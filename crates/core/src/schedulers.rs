//! The Kubernetes default scheduler baseline Table 4 compares against.
//!
//! Supervised placement has no policy object: it is
//! [`SchedulingContext::rank_feasible_batch_into`](crate::context::SchedulingContext::rank_feasible_batch_into)
//! with a [`crate::predictor::CompletionTimePredictor`], the one ranker the
//! service, Table 4, the sweep and the ablation all call.
//! [`KubeDefaultScheduler::rank`] ranks the same feasible set the way
//! kube-scheduler would: by resource availability, blind to telemetry. It
//! reads only the cluster, so it takes no context and no top-K budget.

use crate::decision::{NodeRanking, RankedNode};
use crate::request::JobRequest;
use cluster::{ClusterState, DefaultScheduler};
use simcore::Rng;

/// The Kubernetes default scheduler baseline: resource-availability scoring,
/// blind to telemetry, with random tie-breaking among equal scores.
#[derive(Debug, Clone)]
pub struct KubeDefaultScheduler {
    inner: DefaultScheduler,
    rng: Rng,
}

impl KubeDefaultScheduler {
    /// Create the baseline with a tie-breaking seed.
    pub fn new(seed: u64) -> Self {
        KubeDefaultScheduler {
            inner: DefaultScheduler::new(seed),
            rng: Rng::seed_from_u64(seed ^ 0xD1CE_BA5E),
        }
    }

    /// Rank the nodes that can host the job's driver, best first. An empty
    /// ranking means no node can.
    pub fn rank(&mut self, request: &JobRequest, cluster: &ClusterState) -> NodeRanking {
        let driver = request.to_job_spec().driver_pod(None);
        match self.inner.schedule(&driver, cluster.nodes()) {
            cluster::ScheduleOutcome::Unschedulable { .. } => NodeRanking::default(),
            cluster::ScheduleOutcome::Scheduled { node, ranking } => {
                // Within equal-score groups kube-scheduler has no preference;
                // shuffle each tie group so Top-2 reflects that indifference,
                // then force the actually selected node to the front.
                let mut groups: Vec<Vec<cluster::ScoredNode>> = Vec::new();
                for scored in ranking {
                    match groups.last_mut() {
                        Some(group) if (group[0].score - scored.score).abs() < 1e-9 => {
                            group.push(scored)
                        }
                        _ => groups.push(vec![scored]),
                    }
                }
                let mut ordered: Vec<cluster::ScoredNode> = Vec::new();
                for mut group in groups {
                    // Fisher-Yates over the group.
                    let mut order: Vec<usize> = (0..group.len()).collect();
                    self.rng.shuffle(&mut order);
                    for i in order {
                        ordered.push(group[i].clone());
                    }
                    group.clear();
                }
                if let Some(pos) = ordered.iter().position(|s| s.node == node) {
                    let selected = ordered.remove(pos);
                    ordered.insert(0, selected);
                }
                NodeRanking {
                    ranked: ordered
                        .into_iter()
                        .filter_map(|s| {
                            cluster.node_id(&s.node).map(|id| RankedNode {
                                node: id,
                                // Pseudo-prediction: higher kube score = "faster".
                                predicted_seconds: (100.0 - s.score).max(0.0),
                            })
                        })
                        .collect(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::SchedulingContext;
    use crate::features::FeatureSchema;
    use crate::predictor::CompletionTimePredictor;
    use cluster::{Node, Resources};
    use mlcore::{Dataset, ModelConfig, ModelKind, TrainedModel};
    use simcore::SimTime;
    use sparksim::WorkloadKind;
    use telemetry::{ClusterSnapshot, NodeTelemetry};

    fn cluster(n: usize) -> ClusterState {
        let mut c = ClusterState::new();
        for i in 0..n {
            c.add_node(Node::new(
                format!("node-{}", i + 1),
                simnet::NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                "SITE",
            ));
        }
        c
    }

    /// A snapshot over nodes 1..=n whose CPU load and RTTs grow with the
    /// node index.
    fn snapshot(n: usize) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(10));
        for i in 0..n {
            let name = format!("node-{}", i + 1);
            snap.insert_node(
                &name,
                NodeTelemetry {
                    cpu_load: i as f64,
                    memory_available_bytes: 6e9,
                    tx_rate: 0.0,
                    rx_rate: 0.0,
                },
            );
            for j in 0..n {
                if i != j {
                    snap.insert_rtt(&name, &format!("node-{}", j + 1), 0.01 * (i + 1) as f64);
                }
            }
        }
        snap
    }

    fn request() -> JobRequest {
        JobRequest::named("sort-t", WorkloadKind::Sort, 100_000, 2)
    }

    /// Reference full-scan feasibility by name (the retired legacy free
    /// function, kept as a test oracle): filter every node with the real
    /// driver pod.
    fn feasible_names(request: &JobRequest, cluster: &ClusterState) -> Vec<String> {
        let driver = request.to_job_spec().driver_pod(None);
        cluster
            .nodes()
            .iter()
            .filter(|node| {
                DefaultScheduler::filter(&driver, node) == cluster::FilterResult::Feasible
            })
            .map(|node| node.name.clone())
            .collect()
    }

    /// A predictor trained to prefer low-CPU-load nodes.
    fn predictor() -> CompletionTimePredictor {
        let schema = FeatureSchema::standard();
        let mut data = Dataset::new(schema.len());
        let mut rng = Rng::seed_from_u64(5);
        let job = request();
        for load in 0..30 {
            let mut snap = snapshot(1);
            snap.node_mut("node-1").unwrap().cpu_load = load as f64 / 5.0;
            let features = schema.construct(&snap, "node-1", &job);
            data.push(features, 10.0 + 4.0 * load as f64 / 5.0).unwrap();
        }
        let model =
            TrainedModel::train(ModelKind::Linear, &ModelConfig::default(), &data, &mut rng);
        CompletionTimePredictor::new(schema, model).expect("schema matches training data")
    }

    #[test]
    fn feasible_candidates_respects_capacity() {
        let mut c = cluster(3);
        // Fill node-2 completely.
        let id = c.create_pod(
            cluster::PodSpec::new("hog", Resources::from_cores_and_gib(6, 8)),
            SimTime::ZERO,
        );
        c.bind_pod(id, "node-2", SimTime::ZERO).unwrap();
        let candidates = feasible_names(&request(), &c);
        assert_eq!(candidates, vec!["node-1", "node-3"]);
        // The context agrees, id-for-name, and so does the baseline.
        let snap = snapshot(3);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let ids: Vec<&str> = ctx
            .feasible_candidates(&request())
            .iter()
            .map(|&id| c.node_name(id))
            .collect();
        assert_eq!(ids, candidates);
        let mut kube: Vec<&str> = KubeDefaultScheduler::new(1).rank(&request(), &c).names(&c);
        kube.sort_unstable();
        assert_eq!(kube, candidates);
    }

    #[test]
    fn supervised_rank_prefers_idle_nodes() {
        let predictor = predictor();
        let c = cluster(4);
        let snap = snapshot(4);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let ranking = ctx.rank_feasible_batch(&request(), &predictor);
        assert_eq!(ranking.len(), 4);
        // node-1 has the lowest load in the snapshot.
        assert_eq!(ranking.best_name(&c), Some("node-1"));
        // Predictions ascend down the ranking.
        for pair in ranking.ranked.windows(2) {
            assert!(pair[0].predicted_seconds <= pair[1].predicted_seconds);
        }
    }

    #[test]
    fn kube_default_covers_all_feasible_nodes_and_spreads_choices() {
        let mut kube = KubeDefaultScheduler::new(11);
        let c = cluster(6);
        let mut firsts = std::collections::BTreeSet::new();
        for _ in 0..30 {
            let ranking = kube.rank(&request(), &c);
            assert_eq!(ranking.len(), 6);
            firsts.insert(ranking.best_name(&c).unwrap().to_string());
        }
        assert!(firsts.len() >= 3, "tie-breaking should spread: {firsts:?}");
    }

    #[test]
    fn kube_default_empty_when_unschedulable() {
        let mut kube = KubeDefaultScheduler::new(3);
        let c = cluster(2);
        let huge = JobRequest::named("huge", WorkloadKind::Sort, 1000, 1)
            .with_driver_resources(64_000, 64 * 1024 * 1024 * 1024);
        assert!(kube.rank(&huge, &c).is_empty());
    }
}
