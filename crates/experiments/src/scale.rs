//! Scale worlds: 1k–10k-node clusters for the two-stage decision path.
//!
//! The scenario matrix exercises the full simulation pipeline on worlds of at
//! most a few dozen nodes — a full-mesh RTT scrape and per-job network
//! simulation are quadratic and cannot reach 10k nodes. Scale worlds take the
//! opposite trade: a [`simnet::TieredClosSpec`] substrate (racks → pods →
//! spine) provides real network structure, but telemetry is synthesized
//! directly — per-node load drawn around the cluster's actual allocations and
//! a *sampled* RTT mesh (a few probes per node: rack neighbor, same-pod,
//! cross-pod) exactly like a production ping exporter that cannot afford n²
//! probes either.
//!
//! A world, its request stream ([`ScaleWorld::requests`]) and the model that
//! ranks them ([`train_scale_predictor`]) all derive from `(spec, seed)`.
//! The serving-loop benchmark (`benchmark/`) builds its 10k-node workloads
//! from them and measures decision latency there; the integration tests pin
//! on a 240-node world that a budgeted ranking is the unbudgeted ranking's
//! prefix.

use cluster::{ClusterState, Node, PodSpec, Resources};
use netsched_core::predictor::CompletionTimePredictor;
use netsched_core::request::JobRequest;
use simcore::rng::Rng;
use simcore::SimTime;
use simnet::{TieredClosSpec, TopologySpec};
use sparksim::WorkloadKind;
use telemetry::{ClusterSnapshot, NodeTelemetry};

/// Declarative description of one scale world.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleWorldSpec {
    /// Total node count (rounded up to whole 40-node racks).
    pub nodes: usize,
    /// Seed for background load, telemetry noise and probe sampling.
    pub seed: u64,
    /// RTT probes per node (the sampled mesh's out-degree).
    pub rtt_probes_per_node: usize,
    /// Fraction of nodes carrying a background pod (drives feasibility and
    /// load variation; a slice of these are filled completely).
    pub busy_fraction: f64,
}

impl ScaleWorldSpec {
    /// The standard world at `nodes` total nodes.
    pub fn with_nodes(nodes: usize, seed: u64) -> Self {
        ScaleWorldSpec {
            nodes,
            seed,
            rtt_probes_per_node: 6,
            busy_fraction: 0.6,
        }
    }
}

/// A built scale world: cluster state plus a synthesized telemetry snapshot.
#[derive(Debug)]
pub struct ScaleWorld {
    /// The spec this world was built from.
    pub spec: ScaleWorldSpec,
    /// Cluster with background pods bound (real allocations, real
    /// feasibility variation).
    pub cluster: ClusterState,
    /// Synthesized snapshot: per-node telemetry consistent with the
    /// cluster's allocations, sampled RTT mesh over the Clos substrate.
    pub snapshot: ClusterSnapshot,
}

impl ScaleWorld {
    /// Build the world. Deterministic in the spec.
    pub fn build(spec: ScaleWorldSpec) -> Self {
        let clos = TieredClosSpec::with_total_nodes(spec.nodes);
        let nodes_per_rack = clos.nodes_per_rack;
        let racks_per_pod = clos.racks_per_pod;
        let topo = TopologySpec::TieredClos(clos)
            .build(spec.seed)
            .expect("tiered clos topologies are connected by construction");
        let n = topo.node_count();
        let mut rng = Rng::seed_from_u64(spec.seed ^ 0x5CA1E0_u64);

        let mut cluster = ClusterState::new();
        for net in topo.nodes() {
            let site = topo.site(net.site).name.clone();
            cluster.add_node(Node::new(
                net.name.clone(),
                net.id,
                Resources::from_cores_and_gib(6, 8),
                site,
            ));
        }

        // Background pods: most busy nodes keep headroom, a slice are filled
        // to the brim so the feasible set is a strict subset of the table.
        for i in 0..n {
            if !rng.gen_bool(spec.busy_fraction) {
                continue;
            }
            let full = rng.gen_bool(0.08);
            let (cpu, gib) = if full {
                (6, 8)
            } else {
                (1 + rng.gen_range(4), 1 + rng.gen_range(5))
            };
            let pod = cluster.create_pod(
                PodSpec::new(format!("bg-{i}"), Resources::from_cores_and_gib(cpu, gib)),
                SimTime::ZERO,
            );
            cluster
                .bind_pod(pod, &format!("node-{}", i + 1), SimTime::ZERO)
                .expect("background pod fits an empty node");
        }

        // Telemetry consistent with the allocations plus measurement noise.
        let mut snapshot = ClusterSnapshot::at(SimTime::from_secs(60));
        for node in cluster.nodes() {
            snapshot.insert_node(
                node.name.as_str(),
                NodeTelemetry {
                    cpu_load: node.cpu_load() + rng.uniform(0.0, 0.5),
                    memory_available_bytes: node.memory_available(),
                    tx_rate: rng.uniform(0.0, 2.0e7),
                    rx_rate: rng.uniform(0.0, 2.0e7),
                },
            );
        }
        // Sampled RTT mesh: every node probes its rack neighbor, one same-pod
        // rack and a few cross-pod nodes — the structure the RTT features
        // read, at out-degree `rtt_probes_per_node` instead of n.
        let nodes_per_pod = nodes_per_rack * racks_per_pod;
        for i in 0..n {
            let mut peers = Vec::with_capacity(spec.rtt_probes_per_node);
            peers.push((i / nodes_per_rack) * nodes_per_rack + (i + 1) % nodes_per_rack);
            if n > nodes_per_pod {
                let pod_base = (i / nodes_per_pod) * nodes_per_pod;
                peers.push(pod_base + (i + nodes_per_rack) % nodes_per_pod.min(n - pod_base));
            }
            while peers.len() < spec.rtt_probes_per_node {
                peers.push(rng.gen_range(n as u64) as usize);
            }
            for peer in peers {
                if peer == i || peer >= n {
                    continue;
                }
                let base = topo
                    .base_rtt(simnet::NodeId(i), simnet::NodeId(peer))
                    .as_secs_f64();
                let congestion = 1.0 + rng.uniform(0.0, 0.35);
                snapshot.insert_rtt(
                    &format!("node-{}", i + 1),
                    &format!("node-{}", peer + 1),
                    base * congestion,
                );
            }
        }

        ScaleWorld {
            spec,
            cluster,
            snapshot,
        }
    }

    /// A deterministic batch of varied job requests against this world.
    pub fn requests(&self, jobs: usize) -> Vec<JobRequest> {
        let mut rng = Rng::seed_from_u64(self.spec.seed ^ 0x10B5_u64);
        let kinds = [
            WorkloadKind::Sort,
            WorkloadKind::PageRank,
            WorkloadKind::Join,
            WorkloadKind::GroupBy,
            WorkloadKind::WordCount,
        ];
        (0..jobs)
            .map(|i| {
                let kind = kinds[i % kinds.len()];
                let records = 50_000 + rng.gen_range(400_000);
                let executors = 2 + rng.gen_range(4) as u32;
                JobRequest::named(format!("scale-job-{i}"), kind, records, executors)
                    .with_driver_resources(
                        500 + 250 * rng.gen_range(5),
                        (1 + rng.gen_range(3)) * 1024 * 1024 * 1024,
                    )
            })
            .collect()
    }
}

/// Train the supervised predictor scale worlds are ranked with: a 40-tree
/// random forest fitted on a quick FABRIC-slice dataset (the scale worlds
/// share the feature schema, so the model transfers; what runs at this scale
/// is the decision path, not an accuracy study).
pub fn train_scale_predictor(seed: u64) -> CompletionTimePredictor {
    use crate::workflow::{ExperimentConfig, Workflow};
    let dataset = Workflow::new(ExperimentConfig::quick(3, 2, seed)).run();
    let data = dataset.full_logger().to_dataset();
    let mut rng = Rng::seed_from_u64(seed ^ 0x5CA1E);
    let config = mlcore::ModelConfig {
        forest: mlcore::RandomForestConfig {
            n_trees: 40,
            workers: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let model =
        mlcore::TrainedModel::train(mlcore::ModelKind::RandomForest, &config, &data, &mut rng);
    CompletionTimePredictor::new(dataset.schema.clone(), model)
        .expect("experiment datasets are built from their own schema")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_world_builds_deterministically() {
        let a = ScaleWorld::build(ScaleWorldSpec::with_nodes(200, 9));
        let b = ScaleWorld::build(ScaleWorldSpec::with_nodes(200, 9));
        assert_eq!(a.cluster.node_count(), 200);
        assert_eq!(a.snapshot, b.snapshot);
        assert!(!a.snapshot.is_empty());
        // Busy fraction leaves a non-trivial mix of loaded and idle nodes.
        let loaded = a
            .cluster
            .nodes()
            .iter()
            .filter(|n| n.available().cpu_millis < 6000)
            .count();
        assert!(loaded > 40 && loaded < 200, "{loaded}");
        // The sampled mesh probes only a few peers per node.
        let rtts = a.snapshot.rtt().len();
        assert!((200..=200 * 6).contains(&rtts), "{rtts}");
    }

    #[test]
    fn requests_are_varied_and_deterministic() {
        let world = ScaleWorld::build(ScaleWorldSpec::with_nodes(80, 3));
        let a = world.requests(10);
        let b = world.requests(10);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.driver_cpu_millis, y.driver_cpu_millis);
            assert_eq!(x.name, y.name);
        }
        let sizings: std::collections::BTreeSet<u64> =
            a.iter().map(|r| r.driver_cpu_millis).collect();
        assert!(sizings.len() > 1, "driver sizings must vary");
    }
}
