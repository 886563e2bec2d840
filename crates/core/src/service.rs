//! The end-to-end scheduler service.
//!
//! [`SchedulerService`] wires the paper's pipeline together: read the metrics
//! server's latest published telemetry, construct features, predict per-node
//! completion times, rank, build the pinned job manifest, and log the outcome
//! for retraining. It runs entirely in user space against the metrics server
//! and the cluster API — no control plane modification, exactly as the paper
//! emphasizes.
//!
//! There is one way telemetry reaches a decision: the
//! [`telemetry::PublishedSnapshot`] handle of the scrape manager that plays
//! the metrics server. A decision compares the handle's epoch with the one it
//! holds (one atomic load) and, only when a new epoch has been published,
//! adopts that epoch's immutable, sealed `Arc` snapshot — no store access, no
//! locks beyond the slot mutex, no copy. The store-backed
//! [`telemetry::SnapshotSource`] query stays with the scrape managers for
//! history queries and tests; the service never calls it.

use crate::builder::{BuiltJob, JobBuilder};
use crate::context::{ContextScratch, PruningPolicy, SchedulingContext};
use crate::decision::{NodeRanking, RankedNode};
use crate::logger::ExecutionLogger;
use crate::predictor::CompletionTimePredictor;
use crate::request::JobRequest;
use cluster::ClusterState;
use mlcore::{ModelConfig, ModelKind, TrainedModel};
use simcore::{Rng, SimTime};
use std::sync::Arc;
use telemetry::{ClusterSnapshot, PublishedSnapshot};

/// Service configuration.
///
/// There is no telemetry knob here: throughput rates are derived once, on
/// the ingest side, with `telemetry::ScrapeConfig::rate_window`, and a
/// decision reads them as published.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Which model family to use once trained.
    pub model_kind: ModelKind,
    /// Minimum number of logged executions before the service switches from
    /// fallback placement to supervised placement.
    pub min_training_samples: usize,
    /// Candidate-pruning budget of the supervised rank: rank at most this
    /// many candidates per decision, read off the model's own scoreboard,
    /// which holds its exact scores for every model family, so no model runs
    /// on them. A budgeted ranking is the unbudgeted ranking's first K
    /// entries, bit for bit. `None` (the default) ranks the full feasible set;
    /// any value `≥ |feasible|` is byte-identical to `None`. The bootstrap
    /// fallback ignores it and stays uniform over the feasible set.
    pub prune_top_k: Option<usize>,
    /// Read by nothing: the model's scoreboard is the only stage-one scorer
    /// (see [`PruningPolicy`]).
    pub pruning_policy: PruningPolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            model_kind: ModelKind::RandomForest,
            min_training_samples: 50,
            prune_top_k: None,
            pruning_policy: PruningPolicy::default(),
        }
    }
}

/// Share of the logged rows [`SchedulerService::retrain`] splits off before
/// training and does not train on. Nothing evaluates that holdout yet; the
/// split stays so that every retrained model, and the random stream after
/// it, is the one the service has always produced.
const RETRAIN_HOLDOUT_FRACTION: f64 = 0.25;

/// The result of one scheduling decision.
#[derive(Debug, Clone)]
pub struct SchedulingDecision {
    /// The job as built (manifests, pinned driver pod).
    pub job: BuiltJob,
    /// The ranking over candidate nodes.
    pub ranking: NodeRanking,
    /// The telemetry snapshot the decision was based on: the published
    /// epoch's own `Arc`, shared (not copied) across every decision that
    /// used that epoch.
    pub snapshot: Arc<ClusterSnapshot>,
    /// Whether the supervised model was used (false = fallback placement
    /// because no model is trained yet).
    pub used_model: bool,
}

/// The user-space scheduling service.
///
/// The predictor is held once a model becomes available and replaced only by
/// [`SchedulerService::retrain`]. Decisions never clone it.
///
/// **One service follows one publisher.** The held epoch is a number, not a
/// handle identity: handing the same service handles of two different
/// publishers would let equal epoch numbers alias different snapshots. It is
/// the rule [`ContextScratch`] already states for the cluster — one scratch,
/// one cluster — applied to telemetry; build one service per metrics server.
#[derive(Debug, Clone)]
pub struct SchedulerService {
    config: SchedulerConfig,
    builder: JobBuilder,
    logger: ExecutionLogger,
    predictor: Option<CompletionTimePredictor>,
    fallback_rng: Rng,
    /// The snapshot decisions are currently made against: the adopted
    /// `Arc` of published epoch `held_epoch`, or an empty snapshot while
    /// nothing has been published.
    held: Arc<ClusterSnapshot>,
    /// Epoch number of `held` (0 = nothing published yet). While the
    /// publisher's epoch equals it, a burst reuses `held` after one atomic
    /// load.
    held_epoch: u64,
    /// The keyed decision view (indexed telemetry, dense feasibility index,
    /// stage-one scoreboards) and per-decision buffers, carried from call to
    /// call: each call takes them, decides, and puts them back. A held epoch
    /// re-keys with one compare, a bind between two decisions refreshes the
    /// feasibility index in place (one pass over the node table), and a new
    /// epoch refreshes only the scoreboard rows whose telemetry changed.
    ctx_scratch: ContextScratch,
}

impl SchedulerService {
    /// Create a service with no trained model yet.
    pub fn new(config: SchedulerConfig, seed: u64) -> Self {
        SchedulerService {
            builder: JobBuilder,
            logger: ExecutionLogger::default(),
            predictor: None,
            config,
            fallback_rng: Rng::seed_from_u64(seed),
            held: Arc::new(ClusterSnapshot::default()),
            held_epoch: 0,
            ctx_scratch: ContextScratch::default(),
        }
    }

    /// Create a service from an already trained predictor.
    pub fn with_predictor(
        config: SchedulerConfig,
        predictor: CompletionTimePredictor,
        seed: u64,
    ) -> Self {
        let mut service = Self::new(config, seed);
        service.logger = ExecutionLogger::new(predictor.schema().clone());
        service.predictor = Some(predictor);
        service
    }

    /// The active predictor, if trained.
    pub fn predictor(&self) -> Option<&CompletionTimePredictor> {
        self.predictor.as_ref()
    }

    /// The execution log collected so far.
    pub fn logger(&self) -> &ExecutionLogger {
        &self.logger
    }

    /// Number of logged executions.
    pub fn logged_executions(&self) -> usize {
        self.logger.len()
    }

    /// Whether the service currently schedules with the supervised model.
    pub fn is_model_active(&self) -> bool {
        self.predictor.is_some()
    }

    /// How many times the persistent feasibility index was rebuilt — its
    /// first build plus one per node-table size change (as opposed to reused
    /// after a generation match, or refreshed in place after binds and
    /// releases). In a serving loop over a fixed node table this stays at 1.
    pub fn feasibility_rebuilds(&self) -> u64 {
        self.ctx_scratch.feasibility_rebuilds()
    }

    /// Make a placement decision for `request`.
    ///
    /// Telemetry is the latest epoch `metrics_server` has published — the
    /// [`PublishedSnapshot`] handle of a [`telemetry::ScrapeManager`] or a
    /// [`telemetry::ConcurrentScrapeManager`], so decision bursts overlap
    /// with live ingest on another thread and only ever see whole committed
    /// scrape rounds. Before the first publish the snapshot is empty and
    /// every feasible node is ranked on job features alone. Feasibility
    /// comes from the cluster state. Before a model is available the service
    /// falls back to a uniformly random feasible node (matching how the
    /// paper bootstraps its training data with varied `target_node`
    /// assignments).
    ///
    /// `now` is the decision time. A published snapshot carries its own
    /// scrape time, so `now` stamps nothing; it stays in the signature as
    /// the instant a snapshot-age limit would compare with `snapshot.time`.
    ///
    /// This is [`SchedulerService::schedule_batch_into`] over one request
    /// and a fresh one-slot `out`.
    pub fn schedule(
        &mut self,
        request: &JobRequest,
        metrics_server: &PublishedSnapshot,
        cluster: &ClusterState,
        now: SimTime,
    ) -> SchedulingDecision {
        let mut out = Vec::with_capacity(1);
        self.schedule_batch_into(
            std::slice::from_ref(request),
            metrics_server,
            cluster,
            now,
            &mut out,
        );
        out.swap_remove(0)
    }

    /// Make placement decisions for a whole burst of requests against one
    /// published epoch and one [`SchedulingContext`], amortizing snapshot
    /// indexing and feasibility filtering across the burst. Decisions are
    /// written into `out`, reusing the rankings, job specs, pod specs and
    /// manifest strings of the decisions already there (slots are added or
    /// dropped to match `requests`). Combined with the held epoch and the
    /// carried context scratch, a steady-state burst performs **zero heap
    /// allocations** — the property the `hot_path_alloc` harness pins at
    /// runtime.
    pub fn schedule_batch_into(
        &mut self,
        requests: &[JobRequest],
        metrics_server: &PublishedSnapshot,
        cluster: &ClusterState,
        _now: SimTime,
        out: &mut Vec<SchedulingDecision>,
    ) {
        let snapshot = self.fetch_shared(metrics_server);
        let scratch = std::mem::take(&mut self.ctx_scratch);
        let mut ctx = SchedulingContext::with_scratch(&snapshot, cluster, scratch);
        ctx.set_top_k(self.config.prune_top_k);
        out.truncate(requests.len());
        while out.len() < requests.len() {
            out.push(SchedulingDecision {
                job: BuiltJob::empty(),
                ranking: NodeRanking::default(),
                snapshot: Arc::clone(&snapshot),
                used_model: false,
            });
        }
        for (request, decision) in requests.iter().zip(out.iter_mut()) {
            decision.used_model = self.decide_into(request, &mut ctx, &mut decision.ranking);
            self.builder.build_into(
                request,
                decision.ranking.best_name(cluster),
                &mut decision.job,
            );
            decision.snapshot = Arc::clone(&snapshot);
        }
        self.ctx_scratch = ctx.into_scratch();
    }

    /// The snapshot this burst decides against: the held `Arc` while the
    /// publisher's epoch is the held one (one atomic load), otherwise the
    /// newly published epoch's `Arc`, adopted as-is (a slot lock plus a
    /// refcount bump — the snapshot is never copied or re-assembled).
    fn fetch_shared(&mut self, metrics_server: &PublishedSnapshot) -> Arc<ClusterSnapshot> {
        if metrics_server.epoch() != self.held_epoch {
            if let Some(published) = metrics_server.latest() {
                self.held_epoch = published.epoch;
                self.held = published.snapshot;
            }
        }
        Arc::clone(&self.held)
    }

    /// The core decision: supervised when a model is held, random-feasible
    /// fallback otherwise. Borrows the held predictor — no clone.
    /// The ranking is built into `out` (buffer reused); returns whether the
    /// supervised model decided.
    fn decide_into(
        &mut self,
        request: &JobRequest,
        ctx: &mut SchedulingContext<'_>,
        out: &mut NodeRanking,
    ) -> bool {
        match &self.predictor {
            Some(predictor) => {
                ctx.rank_feasible_batch_into(request, predictor, out);
                true
            }
            None => {
                // Uniform over the whole feasible set, whatever the budget.
                // Shuffling the ranked slice draws the RNG exactly like the
                // historical shuffle over a `Vec<NodeId>` of the same length,
                // so fallback decision streams are unchanged.
                let feasible = ctx.feasible_candidates(request);
                out.ranked.clear();
                out.ranked.extend(feasible.iter().map(|&node| RankedNode {
                    node,
                    predicted_seconds: 0.0,
                }));
                self.fallback_rng.shuffle(&mut out.ranked);
                for (i, ranked) in out.ranked.iter_mut().enumerate() {
                    ranked.predicted_seconds = i as f64;
                }
                false
            }
        }
    }

    /// Record a completed execution for future retraining.
    pub fn record_outcome(
        &mut self,
        snapshot: &ClusterSnapshot,
        request: &JobRequest,
        target_node: &str,
        completion_seconds: f64,
    ) {
        self.logger
            .log_execution(snapshot, request, target_node, completion_seconds);
    }

    /// Retrain the configured model family, with default hyperparameters,
    /// on the accumulated log less a `RETRAIN_HOLDOUT_FRACTION` split.
    /// Returns `false` (and leaves any existing model untouched) when fewer
    /// than `min_training_samples` executions have been recorded. This is
    /// the only point that replaces the held predictor.
    #[expect(
        clippy::expect_used,
        reason = "the log's rows are built with the log's own schema, so the widths agree by construction"
    )]
    pub fn retrain(&mut self, rng: &mut Rng) -> bool {
        if self.logger.len() < self.config.min_training_samples {
            return false;
        }
        let (train, _holdout) = self
            .logger
            .dataset()
            .train_test_split(RETRAIN_HOLDOUT_FRACTION, rng);
        let model =
            TrainedModel::train(self.config.model_kind, &ModelConfig::default(), &train, rng);
        let predictor = CompletionTimePredictor::new(self.logger.schema().clone(), model)
            .expect("training rows are built with the logger's schema");
        self.predictor = Some(predictor);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{FeatureGroup, FeatureSchema};
    use cluster::{Node, Resources};
    use mlcore::{evaluate_on, Dataset};
    use simcore::SimDuration;
    use simnet::{gbps, mbps, Network, NodeId, TopologyBuilder};
    use sparksim::WorkloadKind;
    use telemetry::{
        ConcurrentScrapeManager, NodeTelemetry, ScrapeConfig, ScrapeManager, SnapshotSource,
    };

    /// A 2 × 2-node two-site world, scraped once at t = 1 s, and the
    /// published handle decisions read.
    fn test_world() -> (ClusterState, Network, ScrapeManager, PublishedSnapshot) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("UCSD", SimDuration::from_micros(200), gbps(10.0));
        let s1 = b.add_site("FIU", SimDuration::from_micros(200), gbps(10.0));
        for i in 0..2 {
            b.add_node(format!("node-{}", i + 1), s0, gbps(1.0), gbps(1.0));
        }
        for i in 2..4 {
            b.add_node(format!("node-{}", i + 1), s1, gbps(1.0), gbps(1.0));
        }
        b.connect_sites(s0, s1, SimDuration::from_millis(30), mbps(500.0));
        let network = Network::new(b.build().unwrap());
        let mut cluster = ClusterState::new();
        for i in 0..4 {
            cluster.add_node(Node::new(
                format!("node-{}", i + 1),
                NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                if i < 2 { "UCSD" } else { "FIU" },
            ));
        }
        let mut scrape = ScrapeManager::new(ScrapeConfig::default());
        scrape.scrape(&cluster, &network, SimTime::from_secs(1));
        let published = scrape.published_handle();
        (cluster, network, scrape, published)
    }

    fn request(i: usize) -> JobRequest {
        JobRequest::named(format!("sort-{i}"), WorkloadKind::Sort, 100_000, 2)
    }

    /// A tiny linear predictor trained through the service's own
    /// schedule → record → retrain loop.
    fn trained_predictor(
        cluster: &ClusterState,
        published: &PublishedSnapshot,
    ) -> CompletionTimePredictor {
        let mut bootstrap = SchedulerService::new(
            SchedulerConfig {
                min_training_samples: 5,
                model_kind: ModelKind::Linear,
                ..Default::default()
            },
            1,
        );
        for i in 0..10 {
            let d = bootstrap.schedule(&request(i), published, cluster, SimTime::from_secs(2));
            let node = d.job.target_node.clone().unwrap();
            bootstrap.record_outcome(&d.snapshot, &request(i), &node, 25.0 + i as f64);
        }
        assert!(bootstrap.retrain(&mut Rng::seed_from_u64(2)));
        bootstrap.predictor().unwrap().clone()
    }

    #[test]
    fn fallback_placement_before_any_training() {
        let (cluster, _network, _scrape, published) = test_world();
        let mut service = SchedulerService::new(SchedulerConfig::default(), 7);
        assert!(!service.is_model_active());
        let decision = service.schedule(&request(0), &published, &cluster, SimTime::from_secs(2));
        assert!(!decision.used_model);
        assert_eq!(decision.ranking.len(), 4);
        assert!(decision.job.target_node.is_some());
        assert!(decision.job.manifest_yaml.contains("SparkApplication"));
        assert!(!decision.snapshot.is_empty());
    }

    #[test]
    fn retrain_requires_minimum_samples_then_activates_model() {
        let (cluster, _network, _scrape, published) = test_world();
        let mut service = SchedulerService::new(
            SchedulerConfig {
                min_training_samples: 30,
                model_kind: ModelKind::Linear,
                ..Default::default()
            },
            3,
        );
        let mut rng = Rng::seed_from_u64(4);
        assert!(!service.retrain(&mut rng), "no data yet");

        // Log synthetic executions whose duration depends on cpu load.
        for i in 0..40 {
            let decision =
                service.schedule(&request(i), &published, &cluster, SimTime::from_secs(2));
            let node = decision.job.target_node.clone().unwrap();
            let load = decision
                .snapshot
                .node(&node)
                .map(|t| t.cpu_load)
                .unwrap_or(0.0);
            let duration = 20.0 + 5.0 * load + (i % 3) as f64;
            service.record_outcome(&decision.snapshot, &request(i), &node, duration);
        }
        assert_eq!(service.logged_executions(), 40);
        assert!(service.retrain(&mut rng));
        assert!(service.is_model_active());
        assert!(service.predictor().is_some());

        // Decisions now use the model and produce a full ranking.
        let decision = service.schedule(&request(99), &published, &cluster, SimTime::from_secs(3));
        assert!(decision.used_model);
        assert_eq!(decision.ranking.len(), 4);
        assert!(decision
            .ranking
            .ranked
            .iter()
            .all(|r| r.predicted_seconds.is_finite()));
    }

    #[test]
    fn with_predictor_constructor_is_active_immediately() {
        let (cluster, _network, _scrape, published) = test_world();
        let predictor = trained_predictor(&cluster, &published);
        let service = SchedulerService::with_predictor(SchedulerConfig::default(), predictor, 9);
        assert!(service.is_model_active());
        assert_eq!(service.logged_executions(), 0);
    }

    #[test]
    fn a_decision_before_the_first_publish_ranks_the_feasible_set_on_an_empty_snapshot() {
        let (cluster, _network, _scrape, published) = test_world();
        let predictor = trained_predictor(&cluster, &published);
        // A metrics server that has never scraped: epoch 0, nothing to adopt.
        let silent = ScrapeManager::new(ScrapeConfig::default()).published_handle();
        assert_eq!(silent.epoch(), 0);
        for mut service in [
            SchedulerService::new(SchedulerConfig::default(), 7),
            SchedulerService::with_predictor(SchedulerConfig::default(), predictor, 7),
        ] {
            let now = SimTime::from_secs(2);
            let single = service.schedule(&request(0), &silent, &cluster, now);
            let mut batch = Vec::new();
            service.schedule_batch_into(
                &[request(1), request(2)],
                &silent,
                &cluster,
                now,
                &mut batch,
            );
            for decision in batch.iter().chain([&single]) {
                assert_eq!(decision.used_model, service.is_model_active());
                assert!(decision.snapshot.is_empty());
                assert_eq!(decision.ranking.len(), 4, "the whole feasible set");
                assert!(decision.job.target_node.is_some());
                assert!(decision
                    .ranking
                    .ranked
                    .iter()
                    .all(|r| r.predicted_seconds.is_finite()));
            }
        }
    }

    #[test]
    fn a_node_whose_prediction_is_nan_is_never_the_best() {
        let (cluster, _network, _scrape, published) = test_world();
        let predictor = trained_predictor(&cluster, &published);
        let scraped = published.latest().unwrap().snapshot;
        let now = SimTime::from_secs(2);
        // `(node, score bits)`: NaN scores compare unequal, their bits do not.
        let bits = |ranking: &NodeRanking| -> Vec<(cluster::NodeId, u64)> {
            ranking
                .ranked
                .iter()
                .map(|r| (r.node, r.predicted_seconds.to_bits()))
                .collect()
        };
        // Republish the scraped round with node-3's load unreadable, as a NaN
        // of either sign: the linear model predicts NaN there, which must
        // rank last — not as 0 s, and not first in stage one's heap.
        for load in [f64::NAN, -f64::NAN] {
            let mut publisher = telemetry::SnapshotPublisher::new();
            publisher.publish_with(|snap| {
                snap.clone_from(&scraped);
                snap.node_mut("node-3").unwrap().cpu_load = load;
            });
            let poisoned = publisher.handle();
            let mut unbudgeted: Vec<NodeRanking> = Vec::new();
            for top_k in [None, Some(1), Some(2), Some(3), Some(4)] {
                let config = SchedulerConfig {
                    prune_top_k: top_k,
                    ..Default::default()
                };
                let mut service = SchedulerService::with_predictor(config, predictor.clone(), 7);
                let single = service.schedule(&request(0), &poisoned, &cluster, now);
                let mut batch = Vec::new();
                service.schedule_batch_into(
                    &[request(1), request(2)],
                    &poisoned,
                    &cluster,
                    now,
                    &mut batch,
                );
                let rankings: Vec<NodeRanking> = [single]
                    .into_iter()
                    .chain(batch)
                    .map(|decision| {
                        assert!(decision.used_model);
                        decision.ranking
                    })
                    .collect();
                for ranking in &rankings {
                    assert_ne!(ranking.best_name(&cluster), Some("node-3"), "{top_k:?}");
                }
                let Some(k) = top_k else {
                    for ranking in &rankings {
                        assert_eq!(ranking.len(), 4);
                        let last = ranking.ranked.last().unwrap();
                        assert_eq!(cluster.node_name(last.node), "node-3");
                        assert!(last.predicted_seconds.is_nan());
                        assert!(ranking.ranked[..3]
                            .iter()
                            .all(|r| r.predicted_seconds.is_finite()));
                    }
                    unbudgeted = rankings;
                    continue;
                };
                for (budgeted, full) in rankings.iter().zip(&unbudgeted) {
                    assert_eq!(bits(budgeted), bits(full)[..k], "K = {k}");
                }
            }
        }
    }

    #[test]
    fn the_bootstrap_fallback_is_uniform_over_the_feasible_set_under_a_budget() {
        let (cluster, _network, _scrape, published) = test_world();
        let mut service = SchedulerService::new(
            SchedulerConfig {
                prune_top_k: Some(2),
                ..Default::default()
            },
            7,
        );
        let mut firsts = std::collections::BTreeSet::new();
        for i in 0..40 {
            let d = service.schedule(&request(i), &published, &cluster, SimTime::from_secs(2));
            assert!(!d.used_model);
            assert_eq!(d.ranking.len(), 4, "a budget prunes only the model's rank");
            firsts.insert(d.job.target_node.unwrap());
        }
        assert_eq!(
            firsts.len(),
            4,
            "first choices cover every node: {firsts:?}"
        );
    }

    #[test]
    fn schedule_batch_matches_sequential_decisions() {
        let (cluster, _network, _scrape, published) = test_world();
        let requests: Vec<JobRequest> = (0..5).map(request).collect();
        let now = SimTime::from_secs(2);

        // Fallback (pre-training) path: the RNG stream must advance the same
        // way through the batch as through sequential calls.
        let mut batch_service = SchedulerService::new(SchedulerConfig::default(), 7);
        let mut seq_service = SchedulerService::new(SchedulerConfig::default(), 7);
        let mut batch = Vec::new();
        batch_service.schedule_batch_into(&requests, &published, &cluster, now, &mut batch);
        assert_eq!(batch.len(), requests.len());
        for (request, batched) in requests.iter().zip(&batch) {
            let sequential = seq_service.schedule(request, &published, &cluster, now);
            assert_eq!(batched.ranking, sequential.ranking);
            assert_eq!(batched.job.target_node, sequential.job.target_node);
            assert_eq!(batched.used_model, sequential.used_model);
            assert_eq!(batched.snapshot, sequential.snapshot);
        }
    }

    #[test]
    fn decisions_overlap_with_concurrent_ingest() {
        let (cluster, network, _, _) = test_world();
        let mut manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
        manager.scrape(&cluster, &network, SimTime::from_secs(1));
        let published = manager.published_handle();

        // Ingest a long scrape schedule on another thread while this thread
        // keeps scheduling against the published handle: every decision sees
        // a consistent (whole-round) snapshot, never a torn one.
        let times: Vec<SimTime> = (1..300u64).map(|i| SimTime::from_secs(1 + i * 5)).collect();
        let mut service = SchedulerService::new(SchedulerConfig::default(), 7);
        let decisions = std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                manager.ingest(&cluster, &network, &times);
                manager
            });
            let mut decisions = Vec::new();
            for i in 0..50 {
                decisions.push(service.schedule(
                    &request(i),
                    &published,
                    &cluster,
                    SimTime::from_secs(2000),
                ));
            }
            ingest.join().expect("ingest thread");
            decisions
        });
        for pair in decisions.windows(2) {
            assert!(pair[0].snapshot.time <= pair[1].snapshot.time);
        }
        for decision in &decisions {
            assert_eq!(decision.ranking.len(), 4);
            // Whole-round consistency: a scrape writes every node's load and
            // every ping pair in one round, so a snapshot must never see
            // only a subset.
            assert_eq!(decision.snapshot.node_names().len(), 4);
            assert_eq!(decision.snapshot.rtt().len(), 4 * 3);
        }
        // After the ingest completes the handle serves the final round.
        let decision =
            service.schedule(&request(99), &published, &cluster, SimTime::from_secs(2000));
        assert_eq!(decision.snapshot.time, *times.last().unwrap());
    }

    #[test]
    fn a_decision_carries_the_ingest_sides_rate_window() {
        // One cross-site transfer that ends well before the last scrape: a
        // 10 s window at t = 40 s sees flat counters, a 30 s window still
        // sees the transfer — so the two windows disagree on tx/rx rates,
        // and the snapshot a decision carries must be the one the manager's
        // own configured window yields (there is no second knob to drift).
        let (cluster, mut network, _, _) = test_world();
        network.start_flow(NodeId(0), NodeId(2), 1e9);
        let config = ScrapeConfig {
            rate_window: SimDuration::from_secs(10),
            ..Default::default()
        };
        let mut flat = ScrapeManager::new(config.clone());
        let mut sharded = ConcurrentScrapeManager::new(config);
        for t in (0..=40).step_by(5).map(SimTime::from_secs) {
            network.advance_to(t);
            flat.scrape(&cluster, &network, t);
            sharded.scrape(&cluster, &network, t);
        }
        let at = SimTime::from_secs(40);
        let handles = [flat.published_handle(), sharded.published_handle()];
        let sources: [&dyn SnapshotSource; 2] = [&flat, &sharded];
        for (published, source) in handles.iter().zip(sources) {
            let mut service = SchedulerService::new(SchedulerConfig::default(), 7);
            let decision = service.schedule(&request(0), published, &cluster, at);
            assert_eq!(
                *decision.snapshot,
                source.snapshot(at, SimDuration::from_secs(10))
            );
            assert_ne!(
                *decision.snapshot,
                source.snapshot(at, SimDuration::from_secs(30)),
                "the schedule must make the two windows distinguishable"
            );
        }
    }

    #[test]
    fn unchanged_epoch_reuses_the_held_snapshot_arc() {
        let (cluster, network, mut scrape, published) = test_world();
        let mut service = SchedulerService::new(SchedulerConfig::default(), 7);
        let now = SimTime::from_secs(2);

        // No epoch published between bursts: the service must hand out the
        // very same Arc without refetching (the freshness fast-path).
        let first = service.schedule(&request(0), &published, &cluster, now);
        let second = service.schedule(&request(1), &published, &cluster, now);
        assert!(Arc::ptr_eq(&first.snapshot, &second.snapshot));

        // A new epoch invalidates the held snapshot.
        scrape.scrape(&cluster, &network, SimTime::from_secs(6));
        let third = service.schedule(&request(2), &published, &cluster, now);
        assert!(!Arc::ptr_eq(&second.snapshot, &third.snapshot));
        assert_eq!(third.snapshot.time, SimTime::from_secs(6));
    }

    #[test]
    fn reused_epoch_does_not_rebuild_the_feasibility_index() {
        let (mut cluster, network, mut scrape, published) = test_world();
        let mut service = SchedulerService::new(SchedulerConfig::default(), 7);
        let now = SimTime::from_secs(2);

        // First burst builds the index once.
        service.schedule(&request(0), &published, &cluster, now);
        assert_eq!(service.feasibility_rebuilds(), 1);

        // Same epoch, unchanged cluster: the held-epoch fast path must reuse
        // the feasibility index too — a rebuild here would undo the fast
        // path's whole point on large worlds.
        service.schedule(&request(1), &published, &cluster, now);
        service.schedule_batch_into(
            &(2..5).map(request).collect::<Vec<_>>(),
            &published,
            &cluster,
            now,
            &mut Vec::new(),
        );
        assert_eq!(service.feasibility_rebuilds(), 1);

        // A new epoch alone (cluster untouched) still reuses the index…
        scrape.scrape(&cluster, &network, SimTime::from_secs(6));
        service.schedule(&request(5), &published, &cluster, now);
        assert_eq!(service.feasibility_rebuilds(), 1);

        // …and a cluster mutation (bind bumps the generation) refreshes the
        // index in place: the next decision sees the bind, still without a
        // rebuild.
        let pod = cluster.create_pod(
            cluster::PodSpec::new("hog", Resources::from_cores_and_gib(6, 8)),
            SimTime::ZERO,
        );
        cluster.bind_pod(pod, "node-1", SimTime::ZERO).unwrap();
        let decision = service.schedule(&request(6), &published, &cluster, now);
        assert_eq!(
            decision.ranking.len(),
            3,
            "the full node left the feasible set"
        );
        assert_eq!(service.feasibility_rebuilds(), 1);
    }

    #[test]
    fn oversized_prune_budget_matches_unpruned_decisions() {
        let (cluster, _network, _scrape, published) = test_world();
        let requests: Vec<JobRequest> = (0..6).map(request).collect();
        let now = SimTime::from_secs(2);
        // K ≥ |feasible| must be byte-identical to pruning disabled, on both
        // the fallback path (RNG stream included) and the supervised path.
        let mut unpruned = SchedulerService::new(SchedulerConfig::default(), 7);
        let mut pruned = SchedulerService::new(
            SchedulerConfig {
                prune_top_k: Some(100),
                ..Default::default()
            },
            7,
        );
        let mut rng_a = Rng::seed_from_u64(4);
        let mut rng_b = Rng::seed_from_u64(4);
        for (i, req) in requests.iter().enumerate() {
            let u = unpruned.schedule(req, &published, &cluster, now);
            let p = pruned.schedule(req, &published, &cluster, now);
            assert_eq!(u.ranking, p.ranking, "request {i}");
            assert_eq!(u.job.target_node, p.job.target_node);
            let node = u.job.target_node.clone().unwrap();
            unpruned.record_outcome(&u.snapshot, req, &node, 20.0 + i as f64);
            pruned.record_outcome(&p.snapshot, req, &node, 20.0 + i as f64);
        }
        // Force-train both on the identical logs (below the default minimum,
        // so lower the bar), then compare supervised decisions.
        for service in [&mut unpruned, &mut pruned] {
            service.config.min_training_samples = 5;
        }
        assert!(unpruned.retrain(&mut rng_a));
        assert!(pruned.retrain(&mut rng_b));
        let u = unpruned.schedule(&request(50), &published, &cluster, now);
        let p = pruned.schedule(&request(50), &published, &cluster, now);
        assert!(u.used_model && p.used_model);
        assert_eq!(u.ranking, p.ranking);
        assert_eq!(u.job.target_node, p.job.target_node);

        // A genuinely binding budget ranks exactly K candidates: the first K
        // of the unbudgeted ranking.
        let mut tight = SchedulerService::with_predictor(
            SchedulerConfig {
                prune_top_k: Some(2),
                ..Default::default()
            },
            unpruned.predictor().unwrap().clone(),
            7,
        );
        let d = tight.schedule(&request(50), &published, &cluster, now);
        assert!(d.used_model);
        assert_eq!(d.ranking.ranked.as_slice(), &u.ranking.ranked[..2]);
    }

    /// Record `n` outcomes on "node-1" whose completion time grows with the
    /// node's cpu load and RTT and with the input size.
    fn record_synthetic(service: &mut SchedulerService, n: usize, seed: u64) {
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..n {
            let load = rng.uniform(0.0, 5.0);
            let rtt = rng.uniform(0.001, 0.08);
            let mut snap = ClusterSnapshot::at(SimTime::from_secs(i as u64));
            snap.insert_node(
                "node-1",
                NodeTelemetry {
                    cpu_load: load,
                    memory_available_bytes: rng.uniform(2e9, 7e9),
                    tx_rate: rng.uniform(0.0, 5e6),
                    rx_rate: rng.uniform(0.0, 5e6),
                },
            );
            snap.insert_rtt("node-1", "node-2", rtt);
            let kind = *rng.choose(&WorkloadKind::PAPER_SET).unwrap();
            let records = 50_000 + rng.gen_range(200_000);
            let request = JobRequest::named(format!("job-{i}"), kind, records, 2);
            let duration =
                15.0 + 6.0 * load + 300.0 * rtt + records as f64 / 20_000.0 + rng.normal(0.0, 0.5);
            service.record_outcome(&snap, &request, "node-1", duration);
        }
    }

    #[test]
    fn retrain_fits_every_family_with_a_good_holdout_fit() {
        let mut unseen = SchedulerService::new(SchedulerConfig::default(), 0);
        record_synthetic(&mut unseen, 125, 7);
        let holdout = unseen.logger().to_dataset();
        for kind in ModelKind::ALL {
            let mut service = SchedulerService::new(
                SchedulerConfig {
                    model_kind: kind,
                    ..Default::default()
                },
                0,
            );
            record_synthetic(&mut service, 400, 1);
            assert!(service.retrain(&mut Rng::seed_from_u64(2)));
            let predictor = service.predictor().unwrap();
            assert_eq!(predictor.model_kind(), kind);
            let train_r2 = evaluate_on(predictor.model(), service.logger().dataset()).r2;
            let holdout_r2 = evaluate_on(predictor.model(), &holdout).r2;
            assert!(holdout_r2 > 0.75, "{kind}: holdout r2 {holdout_r2}");
            assert!(train_r2 >= holdout_r2 - 0.2);
        }
    }

    #[test]
    fn retrain_keeps_the_held_predictors_schema() {
        let schema = FeatureSchema::with_groups(&[FeatureGroup::Job]);
        let unfitted = TrainedModel::train(
            ModelKind::Linear,
            &ModelConfig::default(),
            &Dataset::new(schema.len()),
            &mut Rng::seed_from_u64(1),
        );
        let mut service = SchedulerService::with_predictor(
            SchedulerConfig {
                min_training_samples: 20,
                model_kind: ModelKind::Linear,
                ..Default::default()
            },
            CompletionTimePredictor::new(schema.clone(), unfitted).unwrap(),
            3,
        );
        record_synthetic(&mut service, 40, 5);
        assert_eq!(service.logger().dataset().n_features(), schema.len());
        assert!(service.retrain(&mut Rng::seed_from_u64(4)));
        let predictor = service.predictor().unwrap();
        assert_eq!(predictor.schema(), &schema);
        assert_eq!(predictor.model().n_features(), Some(schema.len()));
    }

    #[test]
    fn logged_outcomes_are_exported_via_logger() {
        let (cluster, _network, _scrape, published) = test_world();
        let mut service = SchedulerService::new(SchedulerConfig::default(), 5);
        let d = service.schedule(&request(0), &published, &cluster, SimTime::from_secs(2));
        service.record_outcome(&d.snapshot, &request(0), "node-1", 17.5);
        assert_eq!(service.logger().len(), 1);
        assert_eq!(service.logger().to_dataset().targets(), &[17.5]);
    }
}
