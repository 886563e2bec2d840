//! Differential tests for the two-stage decision path: the indexed
//! feasibility filter, top-K candidate pruning and their interaction with
//! live concurrent telemetry ingest.
//!
//! * **Feasibility differential.** On randomized worlds (mixed capacities,
//!   cordons, partial and full loads) the dense
//!   [`FeasibilityIndex`] and the [`SchedulingContext`] — fresh or reusing a
//!   previous burst's scratch — must agree *exactly* with the naive full
//!   scan through [`DefaultScheduler::filter`].
//! * **Budget byte-identity.** A budget prunes only the supervised rank: the
//!   four baselines rank byte-identically at every K, RNG streams included,
//!   and the supervised rank does at every oversized K.
//! * **Exactness.** For linear, forest and boosted models, the budgeted
//!   supervised ranking is the unbudgeted ranking's first `min(K,
//!   |feasible|)` entries, scores included — on random worlds and on a
//!   240-node clos `ScaleWorld` ranked by the scale predictor.
//! * **The board is the ranking.** A budgeted ranking read off a long-lived
//!   scoreboard equals the re-predicted unbudgeted prefix bit for bit
//!   through random serving histories (binds, releases, NaN loads, held and
//!   skipped epochs, model swaps, revisited cells), for all three families.
//! * **Incremental feasibility.** After random sequences of bind / complete /
//!   delete / cordon / uncordon / `nodes_mut` / `add_node`, the index refreshed
//!   in place equals a freshly built one and the naive scan.
//! * **Keyed decision view.** One long-lived `ContextScratch`, driven through
//!   random interleavings of new epochs (sealed or not, aligned or not, nodes
//!   going missing), binds, releases, model swaps at the same address,
//!   requests from different cells and budget changes, ranks
//!   byte-identically to a cold context at every step — for linear, forest
//!   and boosted models. A regression test pins the two staleness traps the
//!   retired address fingerprints hid.
//! * **Stress.** Pruned decision bursts against a `published_handle()` reader
//!   while ingest commits epochs on another thread: every decision uses a
//!   whole committed epoch and sees every bind made before it, and the
//!   feasibility index is built exactly once.

use netsched::cluster::{
    ClusterState, DefaultScheduler, FeasibilityIndex, FilterResult, Node, PodId, PodSpec, Resources,
};
use netsched::core::context::{ContextScratch, SchedulingContext};
use netsched::core::features::FeatureSchema;
use netsched::core::predictor::CompletionTimePredictor;
use netsched::core::request::JobRequest;
use netsched::core::schedulers::{
    JobScheduler, KubeDefaultScheduler, LeastLoadedScheduler, LowestRttScheduler, RandomScheduler,
    SupervisedScheduler,
};
use netsched::core::service::{SchedulerConfig, SchedulerService};
use netsched::experiments::scale::{train_scale_predictor, ScaleWorld, ScaleWorldSpec};
use netsched::mlcore::{
    Dataset, GradientBoostingConfig, ModelConfig, ModelKind, RandomForestConfig, TrainedModel,
};
use netsched::simcore::rng::Rng;
use netsched::simcore::SimTime;
use netsched::telemetry::{ClusterSnapshot, NodeTelemetry, SnapshotPublisher};
use netsched::{ClusterNodeId, SimNodeId};
use proptest::prelude::*;

/// A randomized world: nodes with mixed capacities, a slice cordoned, loads
/// ranging from idle to completely full, and telemetry for
/// most (not all) nodes plus a sparse RTT ring.
fn varied_world(nodes: usize, seed: u64) -> (ClusterState, ClusterSnapshot) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut cluster = ClusterState::new();
    for i in 0..nodes {
        let cores = 2 + rng.gen_range_usize(0, 7) as u64;
        let gib = 2 + rng.gen_range_usize(0, 15) as u64;
        let mut node = Node::new(
            format!("node-{}", i + 1),
            SimNodeId(i),
            Resources::from_cores_and_gib(cores, gib),
            if i % 2 == 0 { "EAST" } else { "WEST" },
        );
        if rng.gen_range_usize(0, 10) < 2 {
            node.schedulable = false;
        }
        cluster.add_node(node);
    }
    for i in 0..nodes {
        let load = rng.gen_range_usize(0, 4);
        if load == 0 {
            continue;
        }
        let node = cluster
            .node_by_id_mut(ClusterNodeId::from_index(i))
            .expect("node exists");
        let free = node.available();
        let req = if load == 1 {
            free // fill completely
        } else {
            Resources {
                cpu_millis: free.cpu_millis / load as u64,
                memory_bytes: free.memory_bytes / load as u64,
            }
        };
        node.bind(PodId(i as u64), req);
    }

    let mut snapshot = ClusterSnapshot::at(SimTime::from_secs(30));
    for i in 0..nodes {
        // A slice of nodes was never scraped: the model and the heuristics
        // must cope with missing telemetry.
        if rng.gen_range_usize(0, 8) == 0 {
            continue;
        }
        let node = &cluster.nodes()[i];
        snapshot.insert_node(
            &node.name,
            NodeTelemetry {
                cpu_load: node.cpu_load() + rng.uniform(0.0, 1.0),
                memory_available_bytes: node.memory_available(),
                tx_rate: rng.uniform(0.0, 1e7),
                rx_rate: rng.uniform(0.0, 1e7),
            },
        );
        for hop in [1usize, 3] {
            let peer = (i + hop) % nodes;
            if peer != i {
                snapshot.insert_rtt(
                    &format!("node-{}", i + 1),
                    &format!("node-{}", peer + 1),
                    rng.uniform(0.0002, 0.08),
                );
            }
        }
    }
    (cluster, snapshot)
}

fn driver_request(i: usize, cpu_millis: u64, mem_gib: u64) -> JobRequest {
    let kinds = netsched::sparksim::WorkloadKind::ALL;
    JobRequest::named(
        format!("prune-{i}"),
        kinds[i % kinds.len()],
        80_000 + 10_000 * i as u64,
        2,
    )
    .with_driver_resources(cpu_millis, mem_gib * 1024 * 1024 * 1024)
}

/// A deterministic Linear predictor (trained once, shared by every case).
fn predictor() -> CompletionTimePredictor {
    static CACHE: std::sync::OnceLock<CompletionTimePredictor> = std::sync::OnceLock::new();
    CACHE
        .get_or_init(|| {
            let schema = FeatureSchema::standard();
            let mut data = Dataset::new(schema.names().to_vec());
            let mut rng = Rng::seed_from_u64(5);
            let job = driver_request(0, 500, 1);
            for load in 0..40 {
                let mut snap = ClusterSnapshot::at(SimTime::from_secs(10));
                snap.insert_node(
                    "node-1",
                    NodeTelemetry {
                        cpu_load: load as f64 / 5.0,
                        memory_available_bytes: 6e9,
                        tx_rate: 0.0,
                        rx_rate: 0.0,
                    },
                );
                let features = schema.construct(&snap, "node-1", &job);
                data.push(features, 10.0 + 4.0 * load as f64 / 5.0).unwrap();
            }
            let model =
                TrainedModel::train(ModelKind::Linear, &ModelConfig::default(), &data, &mut rng);
            CompletionTimePredictor::new(schema, model).expect("schema matches training data")
        })
        .clone()
}

/// The reference filter: scan every node with the real scheduler filter.
fn naive_feasible(cluster: &ClusterState, request: &JobRequest) -> Vec<ClusterNodeId> {
    let driver = request.to_job_spec().driver_pod(None);
    cluster
        .nodes()
        .iter()
        .enumerate()
        .filter(|(_, node)| DefaultScheduler::filter(&driver, node) == FilterResult::Feasible)
        .map(|(index, _)| ClusterNodeId::from_index(index))
        .collect()
}

/// One node's telemetry, drawn over the ranges the test models train on.
fn random_telemetry(rng: &mut Rng) -> NodeTelemetry {
    NodeTelemetry {
        cpu_load: rng.uniform(0.0, 8.0),
        memory_available_bytes: rng.uniform(1e9, 3e10),
        tx_rate: rng.uniform(0.0, 1e7),
        rx_rate: rng.uniform(0.0, 1e7),
    }
}

/// A small trained model of `kind` whose predictions depend on node
/// telemetry *and* on the job (so requests land in different signature cells)
/// and stay far above the predictor's clamp at 0. `variant` changes the
/// weights: different variants disagree on every loaded node.
fn cell_model(kind: ModelKind, variant: u64) -> CompletionTimePredictor {
    let schema = FeatureSchema::standard();
    let mut data = Dataset::new(schema.names().to_vec());
    let mut rng = Rng::seed_from_u64(0xCE11 + variant);
    let kinds = netsched::sparksim::WorkloadKind::ALL;
    let weight = 3.0 + 2.0 * variant as f64;
    for i in 0..240usize {
        let job = JobRequest::named("train", kinds[i % kinds.len()], 20_000 << (i % 6), 2);
        let node = random_telemetry(&mut rng);
        let rtt = rng.uniform(0.0, 0.08);
        let mut row = Vec::new();
        schema.construct_into(&mut row, &node, (rtt, 2.0 * rtt, 0.5 * rtt), &job);
        let target = 200.0
            + weight * node.cpu_load
            + 400.0 * rtt
            + 1e-6 * node.tx_rate
            + 5.0 * (i % kinds.len()) as f64
            + 1e-4 * job.workload.input_records as f64;
        data.push(row, target).unwrap();
    }
    let config = ModelConfig {
        forest: RandomForestConfig {
            n_trees: 8,
            workers: 1,
            ..Default::default()
        },
        gbdt: GradientBoostingConfig {
            n_rounds: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    let model = TrainedModel::train(kind, &config, &data, &mut rng);
    CompletionTimePredictor::new(schema, model).expect("schema matches training data")
}

/// Two variants of each model family, trained once.
fn cell_models() -> &'static [[CompletionTimePredictor; 2]; 3] {
    static CACHE: std::sync::OnceLock<[[CompletionTimePredictor; 2]; 3]> =
        std::sync::OnceLock::new();
    CACHE.get_or_init(|| ModelKind::ALL.map(|kind| [cell_model(kind, 0), cell_model(kind, 1)]))
}

/// Telemetry as plain data, so each epoch's snapshot can be rebuilt from
/// scratch: `None` = the node went missing from the scrape.
#[derive(Clone)]
struct Telemetry {
    nodes: Vec<Option<NodeTelemetry>>,
    /// `(source, target, rtt)` probes.
    rtts: Vec<(usize, usize, f64)>,
}

impl Telemetry {
    fn random(nodes: usize, rng: &mut Rng) -> Self {
        Telemetry {
            nodes: (0..nodes).map(|_| Some(random_telemetry(rng))).collect(),
            rtts: (0..nodes)
                .flat_map(|i| [1usize, 3].map(|hop| (i, (i + hop) % nodes)))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| (a, b, rng.uniform(0.0002, 0.08)))
                .collect(),
        }
    }

    /// A new epoch: `k` nodes' telemetry changes (one of them may go missing
    /// or come back), and sometimes a probe does.
    fn perturb(&mut self, k: usize, rng: &mut Rng) {
        for _ in 0..k {
            let at = rng.gen_range_usize(0, self.nodes.len());
            self.nodes[at] = match rng.gen_range_usize(0, 6) {
                0 => None,
                _ => Some(random_telemetry(rng)),
            };
        }
        if rng.gen_range_usize(0, 3) == 0 && !self.rtts.is_empty() {
            let at = rng.gen_range_usize(0, self.rtts.len());
            self.rtts[at].2 = rng.uniform(0.0002, 0.08);
        }
    }

    /// A hand-built snapshot of this telemetry. With `aligned` the node table
    /// is the cluster's (ids match); without, names are interned in reverse,
    /// so indexing must resolve every name.
    fn snapshot(&self, aligned: bool) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(30));
        let name = |i: usize| format!("node-{}", i + 1);
        let order: Vec<usize> = if aligned {
            (0..self.nodes.len()).collect()
        } else {
            (0..self.nodes.len()).rev().collect()
        };
        for &i in &order {
            // Registers the name in `order` even for missing nodes.
            snap.insert_rtt(&name(i), &name(i), 0.0);
            if let Some(telemetry) = self.nodes[i] {
                snap.insert_node(&name(i), telemetry);
            }
        }
        for &(a, b, rtt) in &self.rtts {
            snap.insert_rtt(&name(a), &name(b), rtt);
        }
        snap
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The indexed feasibility set equals the naive full-scan filter exactly
    /// — same nodes, same (ascending-id) order — through the raw index, a
    /// fresh context and a context reusing the previous burst's scratch
    /// (whose warm index must re-validate, not drift).
    #[test]
    fn indexed_feasibility_equals_naive_full_scan(
        seed in 0u64..1_000_000,
        nodes in 1usize..48,
        cpu_choice in 0usize..7,
        mem_gib in 0u64..12,
    ) {
        let cpu_millis = [0u64, 250, 500, 1_000, 2_500, 4_000, 9_000][cpu_choice];
        let (mut cluster, snapshot) = varied_world(nodes, seed);
        let request = driver_request(0, cpu_millis, mem_gib);
        let expected = naive_feasible(&cluster, &request);

        let mut index = FeasibilityIndex::new();
        index.sync(&cluster);
        let driver = request.to_job_spec().driver_pod(None);
        let mut answer = Vec::new();
        index.query_into(&driver.requests, &mut answer);
        prop_assert_eq!(&answer, &expected);

        let mut standalone = SchedulingContext::new(&snapshot, &cluster);
        prop_assert_eq!(standalone.feasible_candidates(&request), &expected[..]);

        // Next burst reusing the scratch: same answer from the warm index.
        let scratch = standalone.into_scratch();
        let scratch = {
            let mut reused = SchedulingContext::with_scratch(&snapshot, &cluster, scratch);
            prop_assert_eq!(reused.feasible_candidates(&request), &expected[..]);
            reused.into_scratch()
        };

        // Post-bind update: mutate the cluster, re-derive the oracle, and the
        // reused context must track it through the generation bump.
        if let Some(&target) = expected.first() {
            let node = cluster.node_by_id_mut(target).expect("feasible node exists");
            let free = node.available();
            node.bind(PodId(90_000 + seed), free);
            let mut after = SchedulingContext::with_scratch(&snapshot, &cluster, scratch);
            let expected_after = naive_feasible(&cluster, &request);
            prop_assert_eq!(after.feasible_candidates(&request), &expected_after[..]);
        }
    }

    /// A budget prunes only the supervised rank. The four baselines rank
    /// byte-identically at every budget, 1 included — the stateful (seeded)
    /// ones with their RNG streams advancing exactly as without one — and the
    /// supervised rank does at every oversized budget.
    #[test]
    fn unbounded_budget_is_byte_identical_for_every_policy(
        seed in 0u64..1_000_000,
        nodes in 2usize..24,
        oversized_choice in 0usize..3,
    ) {
        let oversized = [64usize, 1_000, usize::MAX][oversized_choice];
        let (cluster, snapshot) = varied_world(nodes, seed);
        let requests: Vec<JobRequest> = (0..4)
            .map(|i| driver_request(i, 250 + 250 * i as u64, 1 + i as u64 % 3))
            .collect();

        type PolicyFactory = Box<dyn Fn() -> Box<dyn JobScheduler>>;
        let baselines: Vec<(&str, PolicyFactory)> = vec![
            (
                "kube-default",
                Box::new(move || Box::new(KubeDefaultScheduler::new(seed)) as Box<dyn JobScheduler>),
            ),
            (
                "random",
                Box::new(move || Box::new(RandomScheduler::new(seed)) as Box<dyn JobScheduler>),
            ),
            (
                "least-loaded",
                Box::new(|| Box::new(LeastLoadedScheduler) as Box<dyn JobScheduler>),
            ),
            (
                "lowest-rtt",
                Box::new(|| Box::new(LowestRttScheduler) as Box<dyn JobScheduler>),
            ),
        ];
        let supervised: PolicyFactory =
            Box::new(|| Box::new(SupervisedScheduler::new(predictor())) as Box<dyn JobScheduler>);
        let checks = baselines
            .iter()
            .map(|(name, make)| (*name, make, vec![1, 2, 5, oversized]))
            .chain([("supervised", &supervised, vec![oversized])]);
        for (name, make, budgets) in checks {
            let mut unbudgeted_ctx = SchedulingContext::new(&snapshot, &cluster);
            let unbudgeted = make().select_batch(&requests, &mut unbudgeted_ctx);
            for k in budgets {
                let mut budgeted_ctx = SchedulingContext::new(&snapshot, &cluster);
                budgeted_ctx.set_top_k(Some(k));
                let budgeted = make().select_batch(&requests, &mut budgeted_ctx);
                prop_assert!(unbudgeted == budgeted, "{} diverged at K={}", name, k);
            }
        }
    }

    /// For every model family the budgeted supervised ranking is exactly the
    /// first `min(K, |feasible|)` entries of the unbudgeted one, scores
    /// included — which also makes budgets nest and the top-1 exact at every
    /// K ≥ 1.
    #[test]
    fn pruning_is_exact_nested_and_monotone(
        seed in 0u64..1_000_000,
        nodes in 2usize..40,
    ) {
        let (cluster, snapshot) = varied_world(nodes, seed);
        let request = driver_request(seed as usize, 500, 1);
        let mut budgets = vec![1usize, 2, 3, 5, 8, 13, nodes, nodes + 7];
        budgets.sort_unstable();
        budgets.dedup();

        for [predictor, _] in cell_models() {
            let mut ctx = SchedulingContext::new(&snapshot, &cluster);
            let feasible = ctx.feasible_candidates(&request).len();
            let full = ctx.rank_feasible_batch(&request, predictor);
            prop_assert_eq!(full.len(), feasible);
            for &k in &budgets {
                ctx.set_top_k(Some(k));
                let budgeted = ctx.rank_feasible_batch(&request, predictor);
                prop_assert!(
                    budgeted.ranked[..] == full.ranked[..k.min(feasible)],
                    "{} K={}: {:?} is not the prefix of {:?}",
                    predictor.model_kind(),
                    k,
                    budgeted,
                    full
                );
            }
        }
    }

    /// An index refreshed through a random bind/release/cordon/uncordon/resize
    /// history is indistinguishable from a fresh one, and both equal the
    /// naive scan through the scheduler's filter.
    #[test]
    fn incremental_feasibility_equals_rebuild_and_naive_scan(
        seed in 0u64..1_000_000,
        nodes in 2usize..40,
        steps in 1usize..60,
    ) {
        let (mut cluster, _) = varied_world(nodes, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0x1DE7);
        let mut index = FeasibilityIndex::new();
        index.sync(&cluster);
        let mut pods = Vec::new();
        let mut answer = Vec::new();
        for step in 0..steps {
            let name = format!("node-{}", 1 + rng.gen_range_usize(0, cluster.node_count()));
            match rng.gen_range_usize(0, 8) {
                0 | 1 => {
                    let free = cluster.node(&name).unwrap().available();
                    let share = 1 + rng.gen_range_usize(0, 3) as u64;
                    let spec = PodSpec::new(
                        format!("pod-{step}"),
                        Resources {
                            cpu_millis: free.cpu_millis / share,
                            memory_bytes: free.memory_bytes / share,
                        },
                    );
                    let pod = cluster.create_pod(spec, SimTime::ZERO);
                    // A cordoned node refuses the bind; the pod stays pending.
                    if cluster.bind_pod(pod, &name, SimTime::ZERO).is_ok() {
                        pods.push(pod);
                    }
                }
                2 if !pods.is_empty() => {
                    let pod = pods.swap_remove(rng.gen_range_usize(0, pods.len()));
                    cluster.complete_pod(pod, true, SimTime::ZERO).unwrap();
                }
                3 if !pods.is_empty() => {
                    let pod = pods.swap_remove(rng.gen_range_usize(0, pods.len()));
                    cluster.delete_pod(pod, SimTime::ZERO).unwrap();
                }
                4 => {
                    let node = cluster.node_mut(&name).unwrap();
                    node.schedulable = !node.schedulable;
                }
                5 => cluster.node_mut(&name).unwrap().schedulable = true,
                6 => {
                    // A sweep over the whole table (how background load is
                    // injected), here resizing every third node.
                    for node in cluster.nodes_mut().iter_mut().step_by(3) {
                        node.allocatable.memory_bytes += 1 << 30;
                    }
                }
                _ => {
                    let id = cluster.node_count();
                    cluster.add_node(Node::new(
                        format!("node-{}", id + 1),
                        SimNodeId(id),
                        Resources::from_cores_and_gib(4, 8),
                        "EAST",
                    ));
                }
            }
            // Sync after most steps, skipping some so one refresh spans
            // several mutations.
            if rng.gen_range_usize(0, 4) == 0 {
                continue;
            }
            index.sync(&cluster);
            let mut fresh = FeasibilityIndex::new();
            fresh.sync(&cluster);
            for (cpu_millis, mem_gib) in [(0, 0), (500, 1), (2_500, 4), (9_000, 1)] {
                let request = driver_request(0, cpu_millis, mem_gib);
                let requests = request.driver_resources();
                let expected = naive_feasible(&cluster, &request);
                index.query_into(&requests, &mut answer);
                prop_assert!(answer == expected, "refreshed, step {}", step);
                fresh.query_into(&requests, &mut answer);
                prop_assert!(answer == expected, "fresh, step {}", step);
            }
        }
    }

    /// One long-lived scratch, re-keyed through everything a serving loop
    /// does to it, ranks byte-identically to a context built from nothing —
    /// for every model family.
    #[test]
    fn long_lived_scratch_ranks_like_a_cold_context(
        seed in 0u64..1_000_000,
        nodes in 4usize..28,
        steps in 4usize..40,
    ) {
        let (mut cluster, _) = varied_world(nodes, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0x5C8A);
        let mut telemetry = Telemetry::random(nodes, &mut rng);
        let kinds = netsched::sparksim::WorkloadKind::ALL;
        for family in cell_models() {
            // The model lives in one scheduler for the whole run, so a swap
            // overwrites it at the same address.
            let mut scheduler = SupervisedScheduler::new(family[0].clone());
            let mut publisher = SnapshotPublisher::new();
            let mut snapshot = std::sync::Arc::new(telemetry.snapshot(true));
            let mut scratch = ContextScratch::default();
            let mut pods = Vec::new();
            for step in 0..steps {
                match rng.gen_range_usize(0, 6) {
                    0 | 1 => {
                        // A new epoch, hand-built (unsealed, sometimes not
                        // id-aligned) or published through the buffer ring
                        // (sealed, recycled addresses).
                        telemetry.perturb(1 + rng.gen_range_usize(0, 4), &mut rng);
                        let built = telemetry.snapshot(rng.gen_range_usize(0, 3) != 0);
                        snapshot = if rng.gen_range_usize(0, 2) == 0 {
                            std::sync::Arc::new(built)
                        } else {
                            drop(snapshot);
                            publisher.publish_with(|epoch| *epoch = built);
                            publisher.latest().unwrap().snapshot
                        };
                    }
                    2 => {
                        let name = format!("node-{}", 1 + rng.gen_range_usize(0, nodes));
                        let free = cluster.node(&name).unwrap().available();
                        let spec = PodSpec::new(
                            format!("pod-{step}"),
                            Resources {
                                cpu_millis: free.cpu_millis / 2,
                                memory_bytes: free.memory_bytes,
                            },
                        );
                        let pod = cluster.create_pod(spec, SimTime::ZERO);
                        if cluster.bind_pod(pod, &name, SimTime::ZERO).is_ok() {
                            pods.push(pod);
                        }
                    }
                    3 if !pods.is_empty() => {
                        let pod = pods.swap_remove(rng.gen_range_usize(0, pods.len()));
                        cluster.complete_pod(pod, true, SimTime::ZERO).unwrap();
                    }
                    4 => {
                        // Retrain: a model with a new version (reloaded from
                        // its archive) or an earlier one (a clone keeps its
                        // version, and its boards may still be pooled).
                        let next = &family[rng.gen_range_usize(0, 2)];
                        scheduler.set_predictor(if rng.gen_range_usize(0, 2) == 0 {
                            next.clone()
                        } else {
                            CompletionTimePredictor::from_json(&next.to_json()).unwrap()
                        });
                    }
                    _ => {}
                }
                let request = JobRequest::named(
                    format!("job-{step}"),
                    kinds[rng.gen_range_usize(0, kinds.len())],
                    20_000 << rng.gen_range_usize(0, 6),
                    2,
                )
                .with_driver_resources(250 * rng.gen_range_usize(0, 5) as u64, 1 << 30);
                let top_k = [None, Some(1), Some(3), Some(8), Some(1_000)][rng.gen_range_usize(0, 5)];

                let mut warm = SchedulingContext::with_scratch(&snapshot, &cluster, scratch);
                let mut cold = SchedulingContext::new(&snapshot, &cluster);
                for ctx in [&mut warm, &mut cold] {
                    ctx.set_top_k(top_k);
                }
                prop_assert!(
                    warm.rank_feasible_batch(&request, scheduler.predictor())
                        == cold.rank_feasible_batch(&request, scheduler.predictor()),
                    "{} step {} {:?}", scheduler.name(), step, top_k
                );
                scratch = warm.into_scratch();
            }
        }
    }

    /// The board is the ranking. A budgeted decision reads its K scores off
    /// a long-lived scoreboard; a cold unbudgeted one builds every feature
    /// row and runs the model on them. After every decision of a random
    /// serving history — binds and releases, telemetry changing on random
    /// rows (NaN loads included), epochs held or published several at a time
    /// and skipped, models swapped in place as `SchedulerService::retrain`
    /// does, and a small pool of jobs whose cells are revisited after their
    /// boards fell behind — the first is the second's first
    /// `min(K, |feasible|)` entries, scores compared by their bits.
    #[test]
    fn board_read_rankings_equal_re_predicted_rankings_bit_for_bit(
        seed in 0u64..1_000_000,
        nodes in 4usize..24,
        steps in 8usize..32,
    ) {
        let (mut cluster, _) = varied_world(nodes, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0xB0A2D);
        let kinds = netsched::sparksim::WorkloadKind::ALL;
        let jobs: Vec<JobRequest> = (0..4)
            .map(|i| {
                JobRequest::named(
                    format!("job-{i}"),
                    kinds[rng.gen_range_usize(0, kinds.len())],
                    20_000 << rng.gen_range_usize(0, 6),
                    2,
                )
                .with_driver_resources(250 * rng.gen_range_usize(0, 4) as u64, 1 << 30)
            })
            .collect();
        let budgets = [1, 2, 5, nodes - 1, nodes + 3];
        let bits = |ranked: &[netsched::core::decision::RankedNode]| -> Vec<(ClusterNodeId, u64)> {
            ranked.iter().map(|r| (r.node, r.predicted_seconds.to_bits())).collect()
        };
        for family in cell_models() {
            let mut telemetry = Telemetry::random(nodes, &mut rng);
            let mut scheduler = SupervisedScheduler::new(family[0].clone());
            let mut publisher = SnapshotPublisher::new();
            publisher.publish_with(|epoch| *epoch = telemetry.snapshot(true));
            let mut snapshot = publisher.latest().unwrap().snapshot;
            let mut scratch = ContextScratch::default();
            let mut pods = Vec::new();
            for step in 0..steps {
                match rng.gen_range_usize(0, 8) {
                    0 | 1 => {
                        // One to three epochs; decisions see only the last.
                        for _ in 0..1 + rng.gen_range_usize(0, 3) {
                            telemetry.perturb(1 + rng.gen_range_usize(0, 3), &mut rng);
                            if rng.gen_range_usize(0, 3) == 0 {
                                let at = rng.gen_range_usize(0, nodes);
                                if let Some(node) = telemetry.nodes[at].as_mut() {
                                    node.cpu_load = f64::NAN;
                                }
                            }
                            let built = telemetry.snapshot(rng.gen_range_usize(0, 3) != 0);
                            publisher.publish_with(|epoch| *epoch = built);
                        }
                        snapshot = publisher.latest().unwrap().snapshot;
                    }
                    2 => {
                        let name = format!("node-{}", 1 + rng.gen_range_usize(0, nodes));
                        let free = cluster.node(&name).unwrap().available();
                        let spec = PodSpec::new(
                            format!("pod-{step}"),
                            Resources {
                                cpu_millis: free.cpu_millis / 2,
                                memory_bytes: free.memory_bytes / 2,
                            },
                        );
                        let pod = cluster.create_pod(spec, SimTime::ZERO);
                        if cluster.bind_pod(pod, &name, SimTime::ZERO).is_ok() {
                            pods.push(pod);
                        }
                    }
                    3 if !pods.is_empty() => {
                        let pod = pods.swap_remove(rng.gen_range_usize(0, pods.len()));
                        cluster.complete_pod(pod, true, SimTime::ZERO).unwrap();
                    }
                    4 => {
                        let next = &family[rng.gen_range_usize(0, 2)];
                        scheduler.set_predictor(if rng.gen_range_usize(0, 2) == 0 {
                            next.clone()
                        } else {
                            CompletionTimePredictor::from_json(&next.to_json()).unwrap()
                        });
                    }
                    _ => {}
                }
                for _ in 0..2 {
                    let request = &jobs[rng.gen_range_usize(0, jobs.len())];
                    let k = budgets[rng.gen_range_usize(0, budgets.len())];
                    let mut warm = SchedulingContext::with_scratch(&snapshot, &cluster, scratch);
                    warm.set_top_k(Some(k));
                    let budgeted = warm.rank_feasible_batch(request, scheduler.predictor());
                    scratch = warm.into_scratch();
                    let full = SchedulingContext::new(&snapshot, &cluster)
                        .rank_feasible_batch(request, scheduler.predictor());
                    let prefix = &full.ranked[..k.min(full.len())];
                    prop_assert!(
                        bits(&budgeted.ranked) == bits(prefix),
                        "{} step {} K={}: {:?} is not the prefix of {:?}",
                        scheduler.name(), step, k, budgeted, full
                    );
                }
            }
        }
    }
}

/// The two staleness traps an `(address, one prediction)` model fingerprint
/// and an `Arc`-address snapshot key would fall into once scoreboards and
/// indexed telemetry outlive a burst.
#[test]
fn a_model_at_the_same_address_and_a_recycled_buffer_serve_nothing_stale() {
    let nodes = 12usize;
    let mut cluster = ClusterState::new();
    for i in 0..nodes {
        cluster.add_node(Node::new(
            format!("node-{}", i + 1),
            SimNodeId(i),
            Resources::from_cores_and_gib(8, 16),
            "EAST",
        ));
    }
    // Node i runs at load i / 2: nodes 1–6 below 3.0, nodes 7–12 at or above.
    let loads = |reversed: bool| {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(30));
        for i in 0..nodes {
            let rank = if reversed { nodes - 1 - i } else { i };
            snap.insert_node(
                &format!("node-{}", i + 1),
                NodeTelemetry {
                    cpu_load: rank as f64 / 2.0,
                    memory_available_bytes: 8e9,
                    tx_rate: 0.0,
                    rx_rate: 0.0,
                },
            );
        }
        snap
    };
    let mut publisher = SnapshotPublisher::new();
    publisher.publish_with(|epoch| *epoch = loads(false));
    let published = publisher.handle();
    let request = driver_request(0, 500, 1);
    let top2 = |ranking: &netsched::core::NodeRanking| -> Vec<ClusterNodeId> {
        ranking.ranked.iter().take(2).map(|r| r.node).collect()
    };

    // --- A retrained model, installed over the old one in place. Both are
    // linear (one shared cell) and predict `−1000 + 1.5e-7 · memory +
    // w · load`: on the signature row — a default node, memory 0 — both clamp
    // to exactly 0 s, which is all the retired fingerprint looked at, while on
    // real nodes (8 GB free) they disagree: `w = 10`, then `w ≈ −22` once the
    // second batch outweighs the first.
    let mut service = SchedulerService::new(
        SchedulerConfig {
            prune_top_k: Some(2),
            min_training_samples: 10,
            model_kind: ModelKind::Linear,
            ..Default::default()
        },
        7,
    );
    let mut rng = Rng::seed_from_u64(3);
    let log = |service: &mut SchedulerService, weight: f64, repeats: usize| {
        for step in 0..12 * repeats {
            let node = NodeTelemetry {
                cpu_load: (step % 12) as f64 / 2.0,
                memory_available_bytes: [7e9, 8e9, 9e9][step % 3],
                tx_rate: 0.0,
                rx_rate: 0.0,
            };
            let mut snap = ClusterSnapshot::at(SimTime::from_secs(1));
            snap.insert_node("node-1", node);
            let seconds = -1000.0 + 1.5e-7 * node.memory_available_bytes + weight * node.cpu_load;
            service.record_outcome(&snap, &request, "node-1", seconds);
        }
    };
    log(&mut service, 10.0, 4);
    assert!(service.retrain(&mut rng));
    let now = SimTime::from_secs(31);
    let first = service.schedule(&request, &published, &cluster, now);
    assert_eq!(
        top2(&first.ranking),
        vec![ClusterNodeId(0), ClusterNodeId(1)],
        "the first model prefers idle nodes"
    );
    let address = std::ptr::from_ref(service.predictor().unwrap());
    let signature_row = |service: &SchedulerService| {
        let predictor = service.predictor().unwrap();
        let mut row = Vec::new();
        let idle = NodeTelemetry::default();
        predictor
            .schema()
            .construct_into(&mut row, &idle, (0.0, 0.0, 0.0), &request);
        predictor.predict_from_features(&row).to_bits()
    };
    let fingerprint = signature_row(&service);

    log(&mut service, -30.0, 16);
    assert!(service.retrain(&mut rng));
    assert_eq!(
        std::ptr::from_ref(service.predictor().unwrap()),
        address,
        "retrain overwrites the model in place"
    );
    assert_eq!(signature_row(&service), fingerprint);
    // Same held epoch, same cluster, same cell: only the model version says
    // the pooled board is stale.
    let second = service.schedule(&request, &published, &cluster, now);
    let mut cold = SchedulingContext::new(&second.snapshot, &cluster);
    let unpruned = cold.rank_feasible_batch(&request, service.predictor().unwrap());
    assert_eq!(second.ranking.ranked.as_slice(), &unpruned.ranked[..2]);
    assert!(
        top2(&second.ranking).iter().all(|id| id.index() >= 6),
        "the retrained model prefers loaded nodes: {:?}",
        second.ranking
    );

    // --- A recycled publish buffer. The ring has four slots, so the fifth
    // epoch is written into the first one's buffer: same `Arc` address,
    // different contents.
    let predictor = service.predictor().unwrap().clone();
    let first_epoch = published.latest().unwrap().snapshot;
    let mut ctx = SchedulingContext::new(&first_epoch, &cluster);
    ctx.set_top_k(Some(2));
    let before = ctx.rank_feasible_batch(&request, &predictor);
    let scratch = ctx.into_scratch();
    let first_address = std::sync::Arc::as_ptr(&first_epoch);
    drop((first_epoch, first, second, service));
    for _ in 0..4 {
        publisher.publish_with(|epoch| *epoch = loads(true));
    }
    let fifth_epoch = published.latest().unwrap().snapshot;
    assert_eq!(
        std::sync::Arc::as_ptr(&fifth_epoch),
        first_address,
        "the buffer was recycled in place"
    );
    let mut warm = SchedulingContext::with_scratch(&fifth_epoch, &cluster, scratch);
    warm.set_top_k(Some(2));
    assert_eq!(warm.node_telemetry(ClusterNodeId(0)).unwrap().cpu_load, 5.5);
    let after = warm.rank_feasible_batch(&request, &predictor);
    let mut cold = SchedulingContext::new(&fifth_epoch, &cluster);
    cold.set_top_k(Some(2));
    assert_eq!(after, cold.rank_feasible_batch(&request, &predictor));
    assert_ne!(top2(&after), top2(&before), "the loads were reversed");
}

/// At scale, on a 240-node clos `ScaleWorld` (sampled RTT mesh, background
/// load) ranked by the 40-tree scale predictor: every request's budgeted
/// ranking is the unbudgeted ranking's first K entries.
#[test]
fn clos_world_budgets_rank_the_unbudgeted_prefix() {
    let predictor = train_scale_predictor(11);
    let world = ScaleWorld::build(ScaleWorldSpec::with_nodes(240, 11 ^ 240));
    let mut ctx = SchedulingContext::new(&world.snapshot, &world.cluster);
    for request in world.requests(8) {
        ctx.set_top_k(None);
        let full = ctx.rank_feasible_batch(&request, &predictor);
        assert!(
            full.len() > 64,
            "every budget binds: {} feasible",
            full.len()
        );
        for k in [4, 16, 64] {
            ctx.set_top_k(Some(k));
            let budgeted = ctx.rank_feasible_batch(&request, &predictor);
            assert_eq!(
                budgeted.ranked.as_slice(),
                &full.ranked[..k],
                "{} K = {k}",
                request.name
            );
        }
    }
}

/// Pruned decision bursts against a published-epoch reader while ingest runs
/// on another thread, with binds and releases between bursts refreshing the
/// feasibility index mid-stream. Every decision must use a whole committed
/// epoch and see every bind made before it, epochs must advance
/// monotonically, and the index must be built exactly once — neither an
/// epoch nor a bind rebuilds it.
#[test]
fn pruned_bursts_under_live_ingest_use_whole_committed_epochs() {
    use netsched::simcore::SimDuration;
    use netsched::simnet::{gbps, mbps, Network, TopologyBuilder};
    use netsched::telemetry::{ConcurrentScrapeManager, IngestConfig, ScrapeConfig, ScrapeManager};

    let nodes = 8usize;
    let mut b = TopologyBuilder::new();
    let s0 = b.add_site("A", SimDuration::from_micros(200), gbps(10.0));
    let s1 = b.add_site("B", SimDuration::from_micros(200), gbps(10.0));
    for i in 0..nodes {
        b.add_node(
            format!("node-{}", i + 1),
            if i % 2 == 0 { s0 } else { s1 },
            gbps(1.0),
            gbps(1.0),
        );
    }
    b.connect_sites(s0, s1, SimDuration::from_millis(10), mbps(500.0));
    let network = Network::new(b.build().unwrap());
    let mut cluster = ClusterState::new();
    for i in 0..nodes {
        cluster.add_node(Node::new(
            format!("node-{}", i + 1),
            SimNodeId(i),
            Resources::from_cores_and_gib(6, 8),
            if i % 2 == 0 { "A" } else { "B" },
        ));
    }

    let config = ScrapeConfig::default();
    let times: Vec<SimTime> = (0..150u64).map(|i| SimTime::from_secs(1 + i * 5)).collect();

    // Reference: the sequential scraper's snapshot after every round, at that
    // round's own timestamp — the only states a whole-epoch reader may see.
    let mut expected: Vec<String> = Vec::with_capacity(times.len());
    let mut reference = ScrapeManager::new(config.clone());
    for (i, &t) in times.iter().enumerate() {
        reference.scrape(&cluster, &network, t);
        let mut snap = ClusterSnapshot::default();
        reference.snapshot_into(times[i], config.rate_window, &mut snap);
        expected.push(serde_json::to_string(&snap).unwrap());
    }

    let mut manager = ConcurrentScrapeManager::with_ingest(
        config,
        IngestConfig {
            eval_workers: 3,
            queue_depth: 2,
            chunk_rounds: 1,
            sync_work_threshold: 0,
        },
    );
    // Commit the first round up front so every burst below is epoch-backed.
    manager.scrape(&cluster, &network, times[0]);
    let published = manager.published_handle();

    // The scheduler works on its own view of the cluster so bursts can bind
    // pods (refreshing the index) while ingest holds the scraped one.
    let mut sched_cluster = cluster.clone();
    let predictor = predictor();
    let mut service = SchedulerService::with_predictor(
        SchedulerConfig {
            prune_top_k: Some(3),
            ..Default::default()
        },
        predictor.clone(),
        7,
    );

    let ingest_times = &times[1..];
    let (cluster_ref, network_ref) = (&cluster, &network);
    let observed_times = std::thread::scope(|scope| {
        let ingest = scope.spawn(move || {
            manager.ingest(cluster_ref, network_ref, ingest_times);
            manager
        });
        let mut observed: Vec<SimTime> = Vec::new();
        let mut filler: Option<PodId> = None;
        let mut burst = 0usize;
        let mut trailing = false;
        loop {
            let finished = ingest.is_finished();
            let requests: Vec<JobRequest> = (0..3)
                .map(|i| driver_request(burst * 3 + i, 500, 1))
                .collect();
            let mut decisions = Vec::new();
            service.schedule_batch_into(
                &requests,
                &published,
                &sched_cluster,
                SimTime::ZERO,
                &mut decisions,
            );
            for (request, decision) in requests.iter().zip(&decisions) {
                // Whole-epoch consistency: the adopted snapshot is
                // byte-identical to the sequential state after some committed
                // round — never a torn mix of rounds.
                let round = times
                    .iter()
                    .position(|&t| t == decision.snapshot.time)
                    .expect("decision snapshot stamped with a round time");
                assert_eq!(
                    serde_json::to_string(&*decision.snapshot).unwrap(),
                    expected[round],
                    "burst {burst} used a torn (non-epoch) snapshot"
                );
                if observed.last() != Some(&decision.snapshot.time) {
                    observed.push(decision.snapshot.time);
                }
                // The budget binds (3 of the ≥ 7 feasible nodes get ranked),
                // and the ranking is what a context built from nothing over
                // the cluster as it is *now* would produce: the decision saw
                // every bind and release made before it.
                assert!(decision.used_model);
                assert_eq!(decision.ranking.len(), 3);
                let mut cold = SchedulingContext::new(&decision.snapshot, &sched_cluster);
                cold.set_top_k(Some(3));
                assert_eq!(
                    decision.ranking,
                    cold.rank_feasible_batch(request, &predictor),
                    "burst {burst}"
                );
            }
            burst += 1;
            if trailing {
                break;
            }
            // Every few bursts, move a node-filling pod onto the node the
            // last decision ranked: that node must leave the next burst's
            // feasible set and the previously filled one re-enter it, while
            // ingest keeps committing epochs.
            if burst.is_multiple_of(8) {
                if let Some(pod) = filler.take() {
                    sched_cluster
                        .complete_pod(pod, true, SimTime::ZERO)
                        .expect("the filler pod is running");
                }
                let target = decisions[2].ranking.ranked[0].node;
                let name = sched_cluster.node_name(target).to_string();
                let free = sched_cluster.node(&name).unwrap().available();
                let pod = sched_cluster
                    .create_pod(PodSpec::new(format!("stress-{burst}"), free), SimTime::ZERO);
                sched_cluster
                    .bind_pod(pod, &name, SimTime::ZERO)
                    .expect("a pod sized to the node's free resources fits");
                filler = Some(pod);
            }
            // One trailing burst after ingest is done, so the last bind is
            // observed too (and the final epoch is).
            trailing = finished;
        }
        ingest.join().expect("ingest thread");
        // One initial build; every bind, release and epoch since refreshed the
        // index in place or left it alone.
        assert_eq!(service.feasibility_rebuilds(), 1);
        observed
    });

    // Epochs advance monotonically and the post-ingest burst saw the final
    // committed round.
    assert!(
        observed_times.windows(2).all(|w| w[0] <= w[1]),
        "observed epoch times must be monotone: {observed_times:?}"
    );
    assert_eq!(*observed_times.last().unwrap(), *times.last().unwrap());
    assert!(!observed_times.is_empty());
}
