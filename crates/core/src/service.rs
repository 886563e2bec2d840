//! The end-to-end scheduler service.
//!
//! [`SchedulerService`] wires the paper's pipeline together: fetch telemetry,
//! construct features, predict per-node completion times, rank, build the
//! pinned job manifest, and log the outcome for retraining. It runs entirely
//! in user space against the metrics server and the cluster API — no control
//! plane modification, exactly as the paper emphasizes.

use crate::builder::{BuiltJob, JobBuilder};
use crate::context::PruningPolicy;
use crate::context::{ContextScratch, SchedulingContext};
use crate::decision::{NodeRanking, RankedNode};
use crate::fetcher::TelemetryFetcher;
use crate::logger::ExecutionLogger;
use crate::predictor::CompletionTimePredictor;
use crate::request::JobRequest;
use crate::schedulers::{JobScheduler, SupervisedScheduler};
use crate::training::TrainingPipeline;
use cluster::ClusterState;
use mlcore::ModelKind;
use serde::{Deserialize, Serialize};
use simcore::rng::Rng;
use simcore::{SimDuration, SimTime};
use std::sync::Arc;
use telemetry::{ClusterSnapshot, SnapshotSource};

/// Service configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Which model family to use once trained.
    pub model_kind: ModelKind,
    /// Telemetry rate window for throughput derivation.
    pub rate_window: SimDuration,
    /// Minimum number of logged executions before the service switches from
    /// fallback placement to supervised placement.
    pub min_training_samples: usize,
    /// Candidate-pruning budget: rank at most this many prefiltered
    /// candidates per decision (the two-stage decision path for large
    /// worlds). `None` (the default) ranks the full feasible set; any value
    /// `≥ |feasible|` is byte-identical to `None`.
    pub prune_top_k: Option<usize>,
    /// Which stage-1 scorer a `prune_top_k` budget prunes with. The default,
    /// [`PruningPolicy::ModelAligned`], keeps supervised decisions
    /// byte-identical to the unpruned rank at every K; the model-blind
    /// policies are cheaper but approximate (the `scenario_scale` sweep
    /// publishes their measured accuracy).
    pub pruning_policy: PruningPolicy,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            model_kind: ModelKind::RandomForest,
            rate_window: SimDuration::from_secs(30),
            min_training_samples: 50,
            prune_top_k: None,
            pruning_policy: PruningPolicy::default(),
        }
    }
}

/// The result of one scheduling decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchedulingDecision {
    /// The job as built (manifests, pinned driver pod).
    pub job: BuiltJob,
    /// The ranking over candidate nodes.
    pub ranking: NodeRanking,
    /// The telemetry snapshot the decision was based on. Shared (not deep
    /// copied) across every decision of a batch.
    pub snapshot: Arc<ClusterSnapshot>,
    /// Whether the supervised model was used (false = fallback placement
    /// because no model is trained yet).
    pub used_model: bool,
}

/// The user-space scheduling service.
///
/// The supervised scheduler is built once when a model becomes available and
/// cached on the service; it is invalidated only by [`SchedulerService::retrain`].
/// Decisions never clone the predictor.
#[derive(Debug, Clone)]
pub struct SchedulerService {
    config: SchedulerConfig,
    fetcher: TelemetryFetcher,
    builder: JobBuilder,
    logger: ExecutionLogger,
    pipeline: TrainingPipeline,
    scheduler: Option<SupervisedScheduler>,
    fallback_rng: Rng,
    /// Reusable snapshot buffer: each fetch overwrites it in place instead of
    /// rebuilding the node table and RTT mesh. Decisions share it via `Arc`;
    /// when a caller still holds a previous decision's snapshot the next
    /// fetch transparently copies on write. Against an epoch-publishing
    /// metrics server this *is* the published epoch's own `Arc` — adopted,
    /// never copied.
    snapshot_scratch: Arc<ClusterSnapshot>,
    /// Epoch of the published snapshot currently held in `snapshot_scratch`
    /// (`None` when the last fetch went through a non-publishing source).
    /// The freshness fast-path: when the metrics server has published
    /// nothing new since the last burst, the fetch is skipped entirely and
    /// the held `Arc` is reused — one atomic load per burst.
    held_epoch: Option<u64>,
    /// The keyed decision view (indexed telemetry, incremental feasibility
    /// index, stage-one scoreboards) and per-decision buffers, carried from
    /// call to call: each call takes them, decides, and puts them back. A
    /// held epoch re-keys with one compare, a bind between two decisions
    /// patches one node of the feasibility index, and a new epoch refreshes
    /// only the scoreboard rows whose telemetry changed.
    ctx_scratch: ContextScratch,
}

impl SchedulerService {
    /// Create a service with no trained model yet.
    pub fn new(config: SchedulerConfig, seed: u64) -> Self {
        let pipeline = TrainingPipeline::default();
        SchedulerService {
            fetcher: TelemetryFetcher::new(config.rate_window),
            builder: JobBuilder,
            logger: ExecutionLogger::new(pipeline.schema.clone()),
            pipeline,
            scheduler: None,
            config,
            fallback_rng: Rng::seed_from_u64(seed),
            snapshot_scratch: Arc::new(ClusterSnapshot::default()),
            held_epoch: None,
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
        service.pipeline = TrainingPipeline::with_schema(predictor.schema().clone());
        service.scheduler = Some(SupervisedScheduler::new(predictor));
        service
    }

    /// The active predictor, if trained.
    pub fn predictor(&self) -> Option<&CompletionTimePredictor> {
        self.scheduler.as_ref().map(SupervisedScheduler::predictor)
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
        self.scheduler.is_some()
    }

    /// How many times the persistent feasibility index was rebuilt from
    /// scratch (as opposed to reused after a generation match, or patched in
    /// place after binds and releases). In a serving loop over a fixed node
    /// table this stays at 1.
    pub fn feasibility_rebuilds(&self) -> u64 {
        self.ctx_scratch.feasibility_rebuilds()
    }

    /// Make a placement decision for `request` at time `now`.
    ///
    /// Telemetry is fetched from `metrics_server` — any
    /// [`SnapshotSource`], including a [`telemetry::TelemetryReader`] over a
    /// concurrent ingest running on another thread, so decision bursts can
    /// overlap with scraping. A [`telemetry::PublishedSnapshot`] handle is
    /// the fastest source: the decision adopts the published epoch's
    /// immutable snapshot without locks or copies, and an unchanged epoch
    /// skips the fetch entirely. Feasibility comes from the cluster state.
    /// Before a model is available the service falls back to a uniformly
    /// random feasible node (matching how the paper bootstraps its training
    /// data with varied `target_node` assignments).
    pub fn schedule<S: SnapshotSource + ?Sized>(
        &mut self,
        request: &JobRequest,
        metrics_server: &S,
        cluster: &ClusterState,
        now: SimTime,
    ) -> SchedulingDecision {
        let snapshot = self.fetch_shared(metrics_server, now);
        let scratch = std::mem::take(&mut self.ctx_scratch);
        let mut ctx = SchedulingContext::with_scratch(&snapshot, cluster, scratch);
        ctx.set_top_k(self.config.prune_top_k);
        ctx.set_pruning_policy(self.config.pruning_policy);
        let mut ranking = NodeRanking::default();
        let used_model = self.decide_into(request, &mut ctx, &mut ranking);
        self.ctx_scratch = ctx.into_scratch();
        let job = self.builder.build(request, ranking.best_name(cluster));
        SchedulingDecision {
            job,
            ranking,
            snapshot,
            used_model,
        }
    }

    /// Make placement decisions for a whole burst of requests against one
    /// telemetry fetch and one [`SchedulingContext`], amortizing snapshot
    /// indexing and feasibility filtering across the burst.
    pub fn schedule_batch<S: SnapshotSource + ?Sized>(
        &mut self,
        requests: &[JobRequest],
        metrics_server: &S,
        cluster: &ClusterState,
        now: SimTime,
    ) -> Vec<SchedulingDecision> {
        let mut out = Vec::with_capacity(requests.len());
        self.schedule_batch_into(requests, metrics_server, cluster, now, &mut out);
        out
    }

    /// In-place variant of [`SchedulerService::schedule_batch`]: decisions
    /// are written into `out`, reusing the rankings, job specs, pod specs
    /// and manifest strings of the decisions already there (slots are added
    /// or dropped to match `requests`). Combined with the epoch fast-path
    /// and the carried context scratch, a steady-state burst against a
    /// published snapshot performs **zero heap allocations** — the property
    /// the `hot_path_alloc` harness pins at runtime.
    pub fn schedule_batch_into<S: SnapshotSource + ?Sized>(
        &mut self,
        requests: &[JobRequest],
        metrics_server: &S,
        cluster: &ClusterState,
        now: SimTime,
        out: &mut Vec<SchedulingDecision>,
    ) {
        let snapshot = self.fetch_shared(metrics_server, now);
        let scratch = std::mem::take(&mut self.ctx_scratch);
        let mut ctx = SchedulingContext::with_scratch(&snapshot, cluster, scratch);
        ctx.set_top_k(self.config.prune_top_k);
        ctx.set_pruning_policy(self.config.pruning_policy);
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

    /// Fetch the current telemetry snapshot into the service's reusable
    /// scratch buffer and hand out a shared reference. The buffer is
    /// overwritten in place (no node-table or mesh reallocation) unless a
    /// caller still holds a previous decision's snapshot, in which case the
    /// scratch is replaced with a fresh buffer (cheaper than cloning the old
    /// contents only to overwrite them).
    ///
    /// Against an **epoch-publishing** metrics server (see
    /// [`telemetry::publish`]) no assembly happens at all: the published
    /// epoch's immutable `Arc` is adopted as-is (an atomic load plus a
    /// refcount bump), and while no new epoch has been published since the
    /// last burst even that is skipped — the held `Arc` is reused after a
    /// single atomic freshness check. Published snapshots carry their own
    /// scrape time, so `now` only stamps the non-published fallback.
    fn fetch_shared<S: SnapshotSource + ?Sized>(
        &mut self,
        metrics_server: &S,
        now: SimTime,
    ) -> Arc<ClusterSnapshot> {
        if let Some(epoch) = self.fetcher.published_epoch(metrics_server) {
            if self.held_epoch == Some(epoch) {
                return Arc::clone(&self.snapshot_scratch);
            }
            if let Some(published) = self.fetcher.fetch_published(metrics_server) {
                self.held_epoch = Some(published.epoch);
                self.snapshot_scratch = published.snapshot;
                return Arc::clone(&self.snapshot_scratch);
            }
        }
        self.held_epoch = None;
        let fetcher = self.fetcher;
        if Arc::get_mut(&mut self.snapshot_scratch).is_none() {
            self.snapshot_scratch = Arc::new(ClusterSnapshot::default());
        }
        // Always `Some`: the branch above replaced any shared buffer with a
        // freshly created (uniquely owned) one.
        if let Some(scratch) = Arc::get_mut(&mut self.snapshot_scratch) {
            fetcher.fetch_into(metrics_server, now, scratch);
        }
        Arc::clone(&self.snapshot_scratch)
    }

    /// The core decision: supervised when a model is cached, random-feasible
    /// fallback otherwise. Uses the cached scheduler — no predictor clone.
    /// The ranking is built into `out` (buffer reused); returns whether the
    /// supervised model decided.
    fn decide_into(
        &mut self,
        request: &JobRequest,
        ctx: &mut SchedulingContext<'_>,
        out: &mut NodeRanking,
    ) -> bool {
        match &mut self.scheduler {
            Some(scheduler) => {
                scheduler.select_into(request, ctx, out);
                true
            }
            None => {
                // Shuffling the ranked slice draws the RNG exactly like the
                // historical shuffle over a `Vec<NodeId>` of the same length,
                // so fallback decision streams are unchanged with pruning off
                // (the pruned set *is* the feasible set at `top_k = None`).
                out.ranked.clear();
                out.ranked.extend(
                    ctx.pruned_candidates(request)
                        .iter()
                        .map(|&node| RankedNode {
                            node,
                            predicted_seconds: 0.0,
                        }),
                );
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

    /// Retrain the configured model family from the accumulated log. Returns
    /// `false` (and leaves any existing model untouched) when fewer than
    /// `min_training_samples` executions have been recorded. This is the only
    /// point that invalidates the cached supervised scheduler.
    pub fn retrain(&mut self, rng: &mut Rng) -> bool {
        if self.logger.len() < self.config.min_training_samples {
            return false;
        }
        let data = self.logger.to_dataset();
        let outcome = self.pipeline.train_one(self.config.model_kind, &data, rng);
        match &mut self.scheduler {
            Some(scheduler) => scheduler.set_predictor(outcome.predictor),
            None => self.scheduler = Some(SupervisedScheduler::new(outcome.predictor)),
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Node, Resources};
    use simcore::SimDuration;
    use simnet::{gbps, mbps, Network, NodeId, TopologyBuilder};
    use sparksim::WorkloadKind;
    use telemetry::{ScrapeConfig, ScrapeManager};

    fn test_world() -> (ClusterState, Network, ScrapeManager) {
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
        (cluster, network, scrape)
    }

    fn request(i: usize) -> JobRequest {
        JobRequest::named(format!("sort-{i}"), WorkloadKind::Sort, 100_000, 2)
    }

    #[test]
    fn fallback_placement_before_any_training() {
        let (cluster, _network, scrape) = test_world();
        let mut service = SchedulerService::new(SchedulerConfig::default(), 7);
        assert!(!service.is_model_active());
        let decision = service.schedule(&request(0), &scrape, &cluster, SimTime::from_secs(2));
        assert!(!decision.used_model);
        assert_eq!(decision.ranking.len(), 4);
        assert!(decision.job.target_node.is_some());
        assert!(decision.job.manifest_yaml.contains("SparkApplication"));
        assert!(!decision.snapshot.is_empty());
    }

    #[test]
    fn retrain_requires_minimum_samples_then_activates_model() {
        let (cluster, _network, scrape) = test_world();
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
            let decision = service.schedule(&request(i), &scrape, &cluster, SimTime::from_secs(2));
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
        let decision = service.schedule(&request(99), &scrape, &cluster, SimTime::from_secs(3));
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
        let (cluster, _network, scrape) = test_world();
        // Train a tiny predictor via the service path first.
        let mut bootstrap = SchedulerService::new(
            SchedulerConfig {
                min_training_samples: 5,
                model_kind: ModelKind::Linear,
                ..Default::default()
            },
            1,
        );
        let mut rng = Rng::seed_from_u64(2);
        for i in 0..10 {
            let d = bootstrap.schedule(&request(i), &scrape, &cluster, SimTime::from_secs(2));
            let node = d.job.target_node.clone().unwrap();
            bootstrap.record_outcome(&d.snapshot, &request(i), &node, 25.0 + i as f64);
        }
        assert!(bootstrap.retrain(&mut rng));
        let predictor = bootstrap.predictor().unwrap().clone();

        let service = SchedulerService::with_predictor(SchedulerConfig::default(), predictor, 9);
        assert!(service.is_model_active());
        assert_eq!(service.logged_executions(), 0);
    }

    #[test]
    fn schedule_batch_matches_sequential_decisions() {
        let (cluster, _network, scrape) = test_world();
        let requests: Vec<JobRequest> = (0..5).map(request).collect();
        let now = SimTime::from_secs(2);

        // Fallback (pre-training) path: the RNG stream must advance the same
        // way through the batch as through sequential calls.
        let mut batch_service = SchedulerService::new(SchedulerConfig::default(), 7);
        let mut seq_service = SchedulerService::new(SchedulerConfig::default(), 7);
        let batch = batch_service.schedule_batch(&requests, &scrape, &cluster, now);
        assert_eq!(batch.len(), requests.len());
        for (request, batched) in requests.iter().zip(&batch) {
            let sequential = seq_service.schedule(request, &scrape, &cluster, now);
            assert_eq!(batched.ranking, sequential.ranking);
            assert_eq!(batched.job.target_node, sequential.job.target_node);
            assert_eq!(batched.used_model, sequential.used_model);
            assert_eq!(batched.snapshot, sequential.snapshot);
        }
    }

    #[test]
    fn decisions_overlap_with_concurrent_ingest() {
        use telemetry::ConcurrentScrapeManager;

        let (cluster, network, _) = test_world();
        let mut manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
        manager.scrape(&cluster, &network, SimTime::from_secs(1));
        let reader = manager.reader();

        // Ingest a long scrape schedule on another thread while this thread
        // keeps scheduling against the reader handle: every decision sees a
        // consistent (whole-round) snapshot, never a torn one.
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
                    &reader,
                    &cluster,
                    SimTime::from_secs(2000),
                ));
            }
            ingest.join().expect("ingest thread");
            decisions
        });
        for decision in &decisions {
            assert_eq!(decision.ranking.len(), 4);
            assert!(!decision.snapshot.is_empty());
            // Whole-round consistency: a scrape writes every node's load in
            // one round, so a snapshot must never see only a subset.
            assert_eq!(decision.snapshot.node_names().len(), 4);
        }
        // After the ingest completes the reader serves the final state.
        let decision = service.schedule(&request(99), &reader, &cluster, SimTime::from_secs(2000));
        assert_eq!(decision.snapshot.node_names().len(), 4);
    }

    #[test]
    fn published_source_decisions_match_store_backed_decisions() {
        let (cluster, network, mut scrape) = test_world();
        let published = scrape.published_handle();
        // A publisher-free manager over the same scrape history: the
        // store-backed reference the published path must agree with.
        let mut plain = ScrapeManager::new(ScrapeConfig::default());
        plain.scrape(&cluster, &network, SimTime::from_secs(1));
        // Same seed, same world: adopting the published epoch's snapshot must
        // produce the exact decisions the store-backed fetch produces.
        let mut via_published = SchedulerService::new(SchedulerConfig::default(), 7);
        let mut via_store = SchedulerService::new(SchedulerConfig::default(), 7);
        // The published snapshot carries its own scrape time (t = 1), so the
        // store-backed reference fetches at that same instant.
        let now = SimTime::from_secs(1);
        for i in 0..4 {
            let p = via_published.schedule(&request(i), &published, &cluster, now);
            let s = via_store.schedule(&request(i), &plain, &cluster, now);
            assert_eq!(p.ranking, s.ranking);
            assert_eq!(p.job.target_node, s.job.target_node);
            assert_eq!(*p.snapshot, *s.snapshot);
        }
        // A fresh scrape publishes a new epoch; decisions pick it up.
        scrape.scrape(&cluster, &network, SimTime::from_secs(6));
        let d = via_published.schedule(&request(9), &published, &cluster, now);
        assert_eq!(d.snapshot.time, SimTime::from_secs(6));
        // Epoch numbers surface through the fetcher seam too.
        assert_eq!(via_published.fetcher.published_epoch(&published), Some(2));
    }

    #[test]
    fn unchanged_epoch_reuses_the_held_snapshot_arc() {
        let (cluster, network, mut scrape) = test_world();
        let published = scrape.published_handle();
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

        // Switching to a non-publishing source falls back to assembly (and
        // resets the held epoch so the next published fetch re-adopts).
        let mut plain = ScrapeManager::new(ScrapeConfig::default());
        plain.scrape(&cluster, &network, SimTime::from_secs(1));
        let fourth = service.schedule(&request(3), &plain, &cluster, now);
        assert!(!fourth.snapshot.is_empty());
        let fifth = service.schedule(&request(4), &published, &cluster, now);
        assert_eq!(fifth.snapshot.time, SimTime::from_secs(6));
    }

    #[test]
    fn reused_epoch_does_not_rebuild_the_feasibility_index() {
        let (mut cluster, network, mut scrape) = test_world();
        let published = scrape.published_handle();
        let mut service = SchedulerService::new(SchedulerConfig::default(), 7);
        let now = SimTime::from_secs(2);

        // First burst builds the index once.
        service.schedule(&request(0), &published, &cluster, now);
        assert_eq!(service.feasibility_rebuilds(), 1);

        // Same epoch, unchanged cluster: the held-epoch fast path must reuse
        // the feasibility index too — a rebuild here would undo the fast
        // path's whole point on large worlds.
        service.schedule(&request(1), &published, &cluster, now);
        service.schedule_batch(
            &(2..5).map(request).collect::<Vec<_>>(),
            &published,
            &cluster,
            now,
        );
        assert_eq!(service.feasibility_rebuilds(), 1);

        // A new epoch alone (cluster untouched) still reuses the index…
        scrape.scrape(&cluster, &network, SimTime::from_secs(6));
        service.schedule(&request(5), &published, &cluster, now);
        assert_eq!(service.feasibility_rebuilds(), 1);

        // …and a cluster mutation (bind bumps the generation) is patched
        // into the index in place: the next decision sees the bind, still
        // without a rebuild.
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
        let (cluster, _network, scrape) = test_world();
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
            let u = unpruned.schedule(req, &scrape, &cluster, now);
            let p = pruned.schedule(req, &scrape, &cluster, now);
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
        let u = unpruned.schedule(&request(50), &scrape, &cluster, now);
        let p = pruned.schedule(&request(50), &scrape, &cluster, now);
        assert!(u.used_model && p.used_model);
        assert_eq!(u.ranking, p.ranking);
        assert_eq!(u.job.target_node, p.job.target_node);

        // A genuinely binding budget ranks exactly K candidates.
        let mut tight = SchedulerService::new(
            SchedulerConfig {
                prune_top_k: Some(2),
                ..Default::default()
            },
            7,
        );
        let d = tight.schedule(&request(0), &scrape, &cluster, now);
        assert_eq!(d.ranking.len(), 2);
    }

    #[test]
    fn logged_outcomes_are_exported_via_logger() {
        let (cluster, _network, scrape) = test_world();
        let mut service = SchedulerService::new(SchedulerConfig::default(), 5);
        let d = service.schedule(&request(0), &scrape, &cluster, SimTime::from_secs(2));
        service.record_outcome(&d.snapshot, &request(0), "node-1", 17.5);
        assert_eq!(service.logger().len(), 1);
        assert!(service.logger().to_csv().contains("sort-0"));
    }
}
