//! Scheduling policies: the supervised scheduler and the baselines it is
//! compared against.
//!
//! Every policy implements [`JobScheduler`]: given a job request and a
//! [`SchedulingContext`] (the frozen snapshot + cluster for the current
//! burst, plus shared scratch buffers), produce a [`NodeRanking`] over the
//! feasible candidate nodes (best first). Rankings carry interned
//! [`cluster::NodeId`]s; names are resolved only at the edges. Table 4 of the
//! paper compares the supervised models against the Kubernetes default
//! scheduler; the random and heuristic policies are additional reference
//! points used by the ablation experiments.
//!
//! [`JobScheduler::select_batch`] ranks a whole burst of requests against one
//! context, amortizing feasibility filtering and telemetry indexing across
//! the burst.
//!
//! A top-K budget ([`SchedulingContext::set_top_k`]) prunes only the
//! supervised rank, by the model's own scoreboard. The baselines always rank
//! the whole feasible set: a model-blind preselection followed by an equally
//! cheap model-blind score would buy them nothing.

use crate::context::SchedulingContext;
use crate::decision::{NodeRanking, RankedNode};
use crate::predictor::CompletionTimePredictor;
use crate::request::JobRequest;
use cluster::{DefaultScheduler, NodeId};
use simcore::rng::Rng;

/// A placement policy.
pub trait JobScheduler {
    /// Human-readable policy name (used in result tables).
    fn name(&self) -> String;

    /// Rank the feasible nodes for this job, best first. An empty ranking
    /// means no node can host the driver.
    fn select(&mut self, request: &JobRequest, ctx: &mut SchedulingContext<'_>) -> NodeRanking;

    /// In-place variant of [`JobScheduler::select`]: build the ranking into
    /// `out`, reusing its buffer. The default implementation delegates to
    /// [`JobScheduler::select`]; allocation-free policies override it.
    fn select_into(
        &mut self,
        request: &JobRequest,
        ctx: &mut SchedulingContext<'_>,
        out: &mut NodeRanking,
    ) {
        *out = self.select(request, ctx);
    }

    /// Rank a burst of requests against one shared context. The default
    /// implementation calls [`JobScheduler::select`] per request; the context
    /// carries the amortized state (indexed telemetry, cached feasibility,
    /// scratch buffers) between them, so even the default is batch-cheap.
    /// Policies with additional cross-request structure can override it.
    fn select_batch(
        &mut self,
        requests: &[JobRequest],
        ctx: &mut SchedulingContext<'_>,
    ) -> Vec<NodeRanking> {
        requests
            .iter()
            .map(|request| self.select(request, ctx))
            .collect()
    }
}

/// The paper's contribution: rank by supervised completion-time predictions.
#[derive(Debug, Clone)]
pub struct SupervisedScheduler {
    predictor: CompletionTimePredictor,
}

impl SupervisedScheduler {
    /// Create a supervised scheduler from a trained predictor.
    pub fn new(predictor: CompletionTimePredictor) -> Self {
        SupervisedScheduler { predictor }
    }

    /// Access the underlying predictor.
    pub fn predictor(&self) -> &CompletionTimePredictor {
        &self.predictor
    }

    /// Replace the predictor (used by the service after retraining).
    pub fn set_predictor(&mut self, predictor: CompletionTimePredictor) {
        self.predictor = predictor;
    }
}

impl JobScheduler for SupervisedScheduler {
    fn name(&self) -> String {
        format!("supervised-{}", self.predictor.model_kind().display_name())
    }

    fn select(&mut self, request: &JobRequest, ctx: &mut SchedulingContext<'_>) -> NodeRanking {
        // One batch inference call over the whole feasible candidate set,
        // instead of one model walk per candidate.
        ctx.rank_feasible_batch(request, &self.predictor)
    }

    fn select_into(
        &mut self,
        request: &JobRequest,
        ctx: &mut SchedulingContext<'_>,
        out: &mut NodeRanking,
    ) {
        ctx.rank_feasible_batch_into(request, &self.predictor, out);
    }
}

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
}

impl JobScheduler for KubeDefaultScheduler {
    fn name(&self) -> String {
        "kubernetes-default".to_string()
    }

    fn select(&mut self, request: &JobRequest, ctx: &mut SchedulingContext<'_>) -> NodeRanking {
        let driver = request.to_job_spec().driver_pod(None);
        let cluster = ctx.cluster();
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

/// Uniform-random placement over the feasible candidates.
#[derive(Debug, Clone)]
pub struct RandomScheduler {
    rng: Rng,
}

impl RandomScheduler {
    /// Create a random scheduler.
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: Rng::seed_from_u64(seed),
        }
    }
}

impl JobScheduler for RandomScheduler {
    fn name(&self) -> String {
        "random".to_string()
    }

    fn select(&mut self, request: &JobRequest, ctx: &mut SchedulingContext<'_>) -> NodeRanking {
        let mut candidates: Vec<NodeId> = ctx.feasible_candidates(request).to_vec();
        self.rng.shuffle(&mut candidates);
        NodeRanking {
            ranked: candidates
                .into_iter()
                .enumerate()
                .map(|(i, node)| RankedNode {
                    node,
                    predicted_seconds: i as f64,
                })
                .collect(),
        }
    }
}

/// Heuristic baseline: pick the node with the lowest CPU load average.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastLoadedScheduler;

impl JobScheduler for LeastLoadedScheduler {
    fn name(&self) -> String {
        "least-loaded-heuristic".to_string()
    }

    fn select(&mut self, request: &JobRequest, ctx: &mut SchedulingContext<'_>) -> NodeRanking {
        ctx.rank_feasible(request, |ctx, id| {
            ctx.telemetry()
                .node(id)
                .map(|t| t.cpu_load)
                .unwrap_or(f64::MAX)
        })
    }
}

/// Heuristic baseline: pick the node with the lowest mean RTT to its peers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowestRttScheduler;

impl JobScheduler for LowestRttScheduler {
    fn name(&self) -> String {
        "lowest-rtt-heuristic".to_string()
    }

    fn select(&mut self, request: &JobRequest, ctx: &mut SchedulingContext<'_>) -> NodeRanking {
        ctx.rank_feasible(request, |ctx, id| {
            let (mean, _, _) = ctx.telemetry().rtt_stats(id);
            if mean > 0.0 {
                mean
            } else {
                f64::MAX
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSchema;
    use cluster::{ClusterState, Node, Resources};
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

    /// Build a snapshot over nodes 1..=n, skipping any node in `skip`.
    fn snapshot_without(n: usize, skip: &[usize]) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(10));
        for i in 0..n {
            if skip.contains(&i) {
                continue;
            }
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
                if i != j && !skip.contains(&j) {
                    snap.insert_rtt(&name, &format!("node-{}", j + 1), 0.01 * (i + 1) as f64);
                }
            }
        }
        snap
    }

    fn snapshot(n: usize) -> ClusterSnapshot {
        snapshot_without(n, &[])
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
                DefaultScheduler::filter(&driver, node)
                    == cluster::scheduler::FilterResult::Feasible
            })
            .map(|node| node.name.clone())
            .collect()
    }

    /// A predictor trained to prefer low-CPU-load nodes.
    fn predictor() -> CompletionTimePredictor {
        let schema = FeatureSchema::standard();
        let mut data = Dataset::new(schema.names().to_vec());
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
        // The context agrees, id-for-name.
        let snap = snapshot(3);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let ids: Vec<&str> = ctx
            .feasible_candidates(&request())
            .iter()
            .map(|&id| c.node_name(id))
            .collect();
        assert_eq!(ids, candidates);
    }

    #[test]
    fn supervised_scheduler_prefers_idle_nodes() {
        let mut sched = SupervisedScheduler::new(predictor());
        assert!(sched.name().contains("Linear"));
        assert!(!sched.predictor().schema().is_empty());
        let c = cluster(4);
        let snap = snapshot(4);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let ranking = sched.select(&request(), &mut ctx);
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
        let mut sched = KubeDefaultScheduler::new(11);
        assert_eq!(sched.name(), "kubernetes-default");
        let c = cluster(6);
        let snap = snapshot(6);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let mut firsts = std::collections::BTreeSet::new();
        for _ in 0..30 {
            let ranking = sched.select(&request(), &mut ctx);
            assert_eq!(ranking.len(), 6);
            firsts.insert(ranking.best_name(&c).unwrap().to_string());
        }
        assert!(firsts.len() >= 3, "tie-breaking should spread: {firsts:?}");
    }

    #[test]
    fn kube_default_empty_when_unschedulable() {
        let mut sched = KubeDefaultScheduler::new(3);
        let c = cluster(2);
        let snap = snapshot(2);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let huge = JobRequest::named("huge", WorkloadKind::Sort, 1000, 1)
            .with_driver_resources(64_000, 64 * 1024 * 1024 * 1024);
        let ranking = sched.select(&huge, &mut ctx);
        assert!(ranking.is_empty());
    }

    #[test]
    fn random_scheduler_is_uniformish_and_seeded() {
        let c = cluster(6);
        let snap = snapshot(6);
        let mut a = RandomScheduler::new(42);
        let mut b = RandomScheduler::new(42);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let picks_a: Vec<String> = (0..20)
            .map(|_| {
                a.select(&request(), &mut ctx)
                    .best_name(&c)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let picks_b: Vec<String> = (0..20)
            .map(|_| {
                b.select(&request(), &mut ctx)
                    .best_name(&c)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(picks_a, picks_b);
        let distinct: std::collections::BTreeSet<&String> = picks_a.iter().collect();
        assert!(distinct.len() >= 3);
        assert_eq!(a.name(), "random");
    }

    #[test]
    fn heuristics_rank_by_their_signals() {
        let c = cluster(4);
        let snap = snapshot(4);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let mut least_loaded = LeastLoadedScheduler;
        let r = least_loaded.select(&request(), &mut ctx);
        assert_eq!(r.best_name(&c), Some("node-1"), "lowest cpu_load");
        assert_eq!(least_loaded.name(), "least-loaded-heuristic");

        let mut lowest_rtt = LowestRttScheduler;
        let r = lowest_rtt.select(&request(), &mut ctx);
        assert_eq!(r.best_name(&c), Some("node-1"), "lowest mean RTT");
        assert_eq!(lowest_rtt.name(), "lowest-rtt-heuristic");
    }

    #[test]
    fn heuristics_push_unknown_nodes_last() {
        let c = cluster(3);
        // node-1 was never scraped or probed.
        let snap = snapshot_without(3, &[0]);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let mut least_loaded = LeastLoadedScheduler;
        let r = least_loaded.select(&request(), &mut ctx);
        assert_eq!(c.node_name(r.ranked.last().unwrap().node), "node-1");
        let mut lowest_rtt = LowestRttScheduler;
        let r = lowest_rtt.select(&request(), &mut ctx);
        assert_eq!(c.node_name(r.ranked.last().unwrap().node), "node-1");
    }

    #[test]
    fn select_batch_equals_sequential_selects_for_every_policy() {
        let c = cluster(5);
        let snap = snapshot(5);
        let requests: Vec<JobRequest> = (0..4)
            .map(|i| {
                JobRequest::named(
                    format!("batch-{i}"),
                    WorkloadKind::PAPER_SET[i % 3],
                    50_000 + i as u64 * 10_000,
                    2,
                )
            })
            .collect();

        // Stateless policies: batch must equal per-request selects exactly.
        let mut supervised_a = SupervisedScheduler::new(predictor());
        let mut supervised_b = SupervisedScheduler::new(predictor());
        let mut ctx_a = SchedulingContext::new(&snap, &c);
        let mut ctx_b = SchedulingContext::new(&snap, &c);
        let batch = supervised_a.select_batch(&requests, &mut ctx_a);
        let sequential: Vec<NodeRanking> = requests
            .iter()
            .map(|r| supervised_b.select(r, &mut ctx_b))
            .collect();
        assert_eq!(batch, sequential);

        // Stateful (seeded) policies: batch must consume the RNG exactly like
        // sequential selects, so equal seeds give equal outputs.
        let batch = RandomScheduler::new(9).select_batch(&requests, &mut ctx_a);
        let sequential: Vec<NodeRanking> = {
            let mut policy = RandomScheduler::new(9);
            requests
                .iter()
                .map(|r| policy.select(r, &mut ctx_b))
                .collect()
        };
        assert_eq!(batch, sequential);
    }
}
