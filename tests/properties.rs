//! Property-based tests over the public API (proptest).
//!
//! These complement the unit-level proptests inside `simnet` by checking
//! cross-crate invariants: conservation of bytes in the fluid network, ranking
//! invariants of the decision module (non-finite scores included),
//! schema/feature alignment, monotone
//! behaviour of the execution model, and the snapshot seal contract (indexing
//! a sealed snapshot is bit-identical to indexing an unsealed twin).

use netsched::cluster::{ClusterState, Node, Resources};
use netsched::core::{Column, DecisionModule, FeatureSchema, JobRequest};
use netsched::experiments::{FabricTestbed, SimWorld};
use netsched::simcore::{Rng, SimDuration, SimTime};
use netsched::simnet::Network;
use netsched::sparksim::WorkloadKind;
use netsched::telemetry::{ClusterSnapshot, IndexedTelemetry, NodeTelemetry, SnapshotPublisher};
use netsched::{ClusterNodeId, SimNodeId};
use proptest::prelude::*;

fn paper_network() -> Network {
    FabricTestbed::paper().network
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every byte a flow delivers shows up once in the source's tx counter and
    /// once in the destination's rx counter, and completed flows deliver
    /// exactly their size.
    #[test]
    fn network_conserves_bytes(
        flows in prop::collection::vec((0usize..6, 0usize..6, 1_000.0f64..50_000_000.0), 1..8),
        horizon_secs in 10u64..200,
    ) {
        let mut net = paper_network();
        let mut expected_total = 0.0;
        for &(src, dst, bytes) in &flows {
            net.start_flow(SimNodeId(src), SimNodeId(dst), bytes);
            if src != dst {
                expected_total += bytes;
            }
        }
        net.run_to_quiescence(SimDuration::from_secs(horizon_secs * 10));
        let total_tx: f64 = (0..6).map(|i| net.counters(SimNodeId(i)).tx_bytes).sum();
        let total_rx: f64 = (0..6).map(|i| net.counters(SimNodeId(i)).rx_bytes).sum();
        prop_assert!((total_tx - expected_total).abs() < 1.0, "tx {total_tx} vs expected {expected_total}");
        prop_assert!((total_rx - expected_total).abs() < 1.0, "rx {total_rx} vs expected {expected_total}");
        prop_assert_eq!(net.active_flow_count(), 0);
    }

    /// Advancing the network clock is monotone and counters never decrease.
    #[test]
    fn counters_are_monotone(
        steps in prop::collection::vec(1u64..30, 1..10),
    ) {
        let mut net = paper_network();
        net.start_flow(SimNodeId(0), SimNodeId(2), 1e9);
        net.start_flow(SimNodeId(3), SimNodeId(1), 5e8);
        let mut last_tx = 0.0;
        let mut now = SimTime::ZERO;
        for step in steps {
            now += SimDuration::from_secs(step);
            net.advance_to(now);
            let tx: f64 = (0..6).map(|i| net.counters(SimNodeId(i)).tx_bytes).sum();
            prop_assert!(tx + 1e-9 >= last_tx);
            prop_assert_eq!(net.now(), now);
            last_tx = tx;
        }
    }

    /// The decision module's ranking is a permutation of the candidates with
    /// non-decreasing predictions, regardless of the prediction values.
    #[test]
    fn ranking_is_a_sorted_permutation(predictions in prop::collection::vec(0.0f64..10_000.0, 1..12)) {
        let candidates: Vec<ClusterNodeId> =
            (0..predictions.len()).map(ClusterNodeId::from_index).collect();
        let ranking = DecisionModule.rank(&candidates, &predictions);
        prop_assert_eq!(ranking.len(), candidates.len());
        let mut returned: Vec<ClusterNodeId> = ranking.ranked.iter().map(|r| r.node).collect();
        returned.sort_unstable();
        prop_assert_eq!(returned, candidates.clone());
        for pair in ranking.ranked.windows(2) {
            prop_assert!(pair[0].predicted_seconds <= pair[1].predicted_seconds);
        }
        // The best node really does carry the minimum prediction.
        let min = predictions.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((ranking.best().unwrap().predicted_seconds - min).abs() < 1e-12);
    }

    /// Ranking is a total order at serving-scale candidate counts whatever
    /// the scores are: NaN, infinities and signed zeros never panic the sort
    /// or lose a candidate, NaN ranks last, and a NaN-free input is ordered
    /// exactly as `partial_cmp` then id always ordered it.
    #[test]
    fn ranking_is_total_over_non_finite_scores(
        draws in prop::collection::vec((0u8..8, -4.0f64..4.0), 21..513),
    ) {
        let candidates: Vec<ClusterNodeId> =
            (0..draws.len()).rev().map(ClusterNodeId::from_index).collect();
        let scores: Vec<f64> = draws
            .iter()
            .map(|&(pick, value)| match pick {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                // Rounded, so finite scores tie too.
                _ => value.round(),
            })
            .collect();
        let ranking = DecisionModule.rank(&candidates, &scores);
        let mut returned: Vec<ClusterNodeId> = ranking.ranked.iter().map(|r| r.node).collect();
        returned.sort_unstable();
        returned.reverse();
        prop_assert_eq!(&returned, &candidates);
        let numbers = ranking.ranked.iter().take_while(|r| !r.predicted_seconds.is_nan()).count();
        // Every NaN ranks after every number.
        prop_assert_eq!(numbers, scores.iter().filter(|s| !s.is_nan()).count());
        for pair in ranking.ranked[..numbers].windows(2) {
            prop_assert!(pair[0].predicted_seconds <= pair[1].predicted_seconds);
        }

        let finite: Vec<f64> = scores.iter().map(|s| if s.is_nan() { 1.0 } else { *s }).collect();
        let mut expected: Vec<(ClusterNodeId, f64)> =
            candidates.iter().copied().zip(finite.iter().copied()).collect();
        expected.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        let ranked: Vec<(ClusterNodeId, u64)> = DecisionModule
            .rank(&candidates, &finite)
            .ranked
            .iter()
            .map(|r| (r.node, r.predicted_seconds.to_bits()))
            .collect();
        let expected: Vec<(ClusterNodeId, u64)> =
            expected.into_iter().map(|(node, s)| (node, s.to_bits())).collect();
        prop_assert_eq!(ranked, expected);
    }

    /// Feature vectors always match the schema width, contain only finite
    /// values, and encode exactly one application indicator.
    #[test]
    fn feature_vectors_are_well_formed(
        records in 1_000u64..5_000_000,
        executors in 1u32..6,
        memory_gb in 1u64..8,
        workload_idx in 0usize..5,
        node_idx in 0usize..8,
    ) {
        let mut world = SimWorld::new(FabricTestbed::paper(), 3);
        world.advance_by(SimDuration::from_secs(6));
        let snapshot = world.snapshot();
        let schema = FeatureSchema::standard();
        let kind = WorkloadKind::ALL[workload_idx];
        let request = JobRequest::new(
            "prop-job",
            netsched::sparksim::WorkloadRequest::new(kind, records)
                .with_executors(executors)
                .with_executor_memory(memory_gb << 30),
        );
        // node_idx may point past the real cluster: unknown nodes still yield a valid vector.
        let node = format!("node-{}", node_idx + 1);
        let features = schema.construct(&snapshot, &node, &request);
        prop_assert_eq!(features.len(), schema.len());
        prop_assert!(features.iter().all(|v| v.is_finite()));
        let one_hot: f64 = WorkloadKind::ALL
            .iter()
            .map(|&k| features[schema.position(Column::App(k)).unwrap()])
            .sum();
        prop_assert_eq!(one_hot, 1.0);
        prop_assert_eq!(features[schema.position(Column::InputRecords).unwrap()], records as f64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Larger inputs never complete faster than smaller ones under identical
    /// conditions (monotonicity of the execution model).
    #[test]
    fn completion_time_is_monotone_in_input_size(base in 50_000u64..200_000, factor in 2u64..6) {
        let run = |records: u64| -> f64 {
            let mut world = SimWorld::new(FabricTestbed::paper(), 12345);
            world.advance_by(SimDuration::from_secs(5));
            let request = JobRequest::named("mono", WorkloadKind::Sort, records, 2);
            world.run_job(&request, "node-2").unwrap().result.completion_seconds()
        };
        let small = run(base);
        let large = run(base * factor);
        prop_assert!(large >= small, "large {large} < small {small}");
    }
}

/// A cluster over `names`, registered in the given order.
fn cluster_of<'a>(names: impl Iterator<Item = &'a String>) -> ClusterState {
    let mut cluster = ClusterState::new();
    for (i, name) in names.enumerate() {
        cluster.add_node(Node::new(
            name.as_str(),
            SimNodeId(i),
            Resources::from_cores_and_gib(4, 8),
            "SITE",
        ));
    }
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `index_into` reads sealed RTT rows where it can and accumulates the
    /// rest; an unsealed twin accumulates everything. After any sequence of
    /// mutations, seals, publishes and `clone_from`s the two index to the
    /// same bits — on small tables and on one past 512 nodes, against an
    /// id-aligned cluster and a name-resolved one.
    #[test]
    fn sealed_snapshots_index_like_their_unsealed_twins(
        seed in 0u64..1_000_000,
        small_nodes in 3usize..24,
        scale in 0usize..3,
        steps in 1usize..40,
    ) {
        // One axis of 520 nodes, the other of 3–23.
        let nodes = if scale == 0 { 520 } else { small_nodes };
        let mut rng = Rng::seed_from_u64(seed);
        // Unique names whose sort order is not their id order.
        let names: Vec<String> = (0..nodes).map(|i| format!("node-{}", i * 7919 % 100_003)).collect();
        let aligned = cluster_of(names.iter());
        // Reversed ids, one snapshot node unknown, one cluster node unscraped.
        let stranger = "stranger".to_string();
        let resolved = cluster_of(names.iter().skip(1).rev().chain([&stranger]));

        let telemetry = |rng: &mut Rng| NodeTelemetry {
            cpu_load: rng.uniform(0.0, 8.0),
            memory_available_bytes: rng.uniform(1e9, 3e10),
            tx_rate: rng.uniform(0.0, 1e7),
            rx_rate: rng.uniform(0.0, 1e7),
        };
        let mut plain = ClusterSnapshot::at(SimTime::from_secs(1));
        for name in &names {
            plain.insert_node(name, telemetry(&mut rng));
        }
        // Probes from the highest 64 ids, three peers each: a sampled mesh.
        for i in nodes.saturating_sub(64)..nodes {
            for hop in [1, 2, 5] {
                plain.insert_rtt(&names[i], &names[(i + hop) % nodes], rng.uniform(0.0002, 0.08));
            }
        }
        prop_assert_eq!(plain.revision(), 0);
        let mut sealed = plain.clone();
        sealed.seal();
        // An earlier state of each twin, for `clone_from`.
        let (mut plain_then, mut sealed_then) = (plain.clone(), sealed.clone());
        let mut publisher = SnapshotPublisher::new();

        for step in 0..steps {
            let (a, b) = (rng.gen_range_usize(0, nodes), rng.gen_range_usize(0, nodes));
            let value = rng.uniform(0.0002, 0.08);
            let node = telemetry(&mut rng);
            let op = rng.gen_range_usize(0, 7);
            for snap in [&mut plain, &mut sealed] {
                match op {
                    0 => snap.insert_rtt(&names[a], &names[b], value),
                    1 => {
                        let (a, b) = (snap.node_id(&names[a]).unwrap(), snap.node_id(&names[b]).unwrap());
                        snap.insert_rtt_by_id(a, b, value);
                    }
                    2 => {
                        // `None` (no mutation) when a reset left the node unscraped.
                        if let Some(telemetry) = snap.node_mut(&names[a]) {
                            telemetry.cpu_load = value;
                        }
                    }
                    3 => snap.set_node_by_id(snap.node_id(&names[b]).unwrap(), node),
                    4 => {
                        // What a scrape does: clear every value, refill some.
                        snap.reset_for(SimTime::from_secs(2 + step as u64), &names);
                        for i in (0..nodes.min(40)).step_by(1 + a % 3) {
                            let id = snap.node_id(&names[i]).unwrap();
                            snap.set_node_by_id(id, node);
                            let peer = snap.node_id(&names[(i + 1 + b) % nodes]).unwrap();
                            snap.insert_rtt_by_id(id, peer, value * (1 + i) as f64);
                        }
                    }
                    _ => {}
                }
                if op < 5 && op != 2 {
                    prop_assert!(snap.revision() == 0, "a mutation clears the revision");
                }
            }
            match op {
                5 => {
                    plain.clone_from(&plain_then);
                    sealed.clone_from(&sealed_then);
                    prop_assert_eq!(sealed.revision(), sealed_then.revision());
                }
                6 => {
                    plain_then.clone_from(&plain);
                    sealed_then.clone_from(&sealed);
                }
                _ => {}
            }
            // Seal the sealed twin now and then — directly, or by publishing
            // it — so steps run against sealed, unsealed and partly sealed
            // snapshots.
            match rng.gen_range_usize(0, 4) {
                0 => sealed.seal(),
                1 => {
                    publisher.publish_with(|epoch| epoch.clone_from(&sealed));
                    sealed.clone_from(&publisher.latest().unwrap().snapshot);
                }
                _ => {}
            }
            prop_assert!(plain == sealed);
            for cluster in [&aligned, &resolved] {
                let (mut reference, mut indexed) = (IndexedTelemetry::default(), IndexedTelemetry::default());
                plain.index_into(cluster, &mut reference);
                sealed.index_into(cluster, &mut indexed);
                let mut differing = Vec::new();
                indexed.changed_rows(&reference, |id| differing.push(id));
                prop_assert!(differing.is_empty(), "step {} op {}: rows {:?}", step, op, differing);
            }
            let name = &names[a];
            prop_assert_eq!(sealed.rtt_stats_from(name), plain.rtt_stats_from(name));
        }
        sealed.seal();
        prop_assert!(sealed.revision() != 0);
        prop_assert_eq!(sealed.clone().revision(), sealed.revision());
        prop_assert!(plain.revision() == 0, "the twin was never sealed");
    }
}
