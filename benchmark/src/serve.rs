//! The serving loop every workload drives: request in → `schedule*` returns
//! → the driver pod is created and bound, walking down the ranking when a
//! bind is refused. It talks to the system only through public calls, times
//! each of them, keeps a fixed window of pods in flight, runs the output
//! checks, and — in the traced run — composes each decision a second time
//! from the layers' public functions so the per-layer breakdown is of the
//! decision the service actually made.

use crate::alloc::allocations_on_this_thread;
use crate::probe::MemoryProbe;
use crate::stats::OpHash;
use crate::trace::{nanos, timed, Tracer, NO_PARENT};
use cluster::{
    ClusterState, DefaultScheduler, FeasibilityIndex, FilterResult, Node, NodeId, PodId,
};
use mlcore::FeatureMatrix;
use netsched_core::builder::{BuiltJob, JobBuilder};
use netsched_core::context::{ContextScratch, SchedulingContext};
use netsched_core::decision::{DecisionModule, NodeRanking};
use netsched_core::predictor::CompletionTimePredictor;
use netsched_core::request::JobRequest;
use netsched_core::service::{SchedulerConfig, SchedulerService, SchedulingDecision};
use simcore::rng::Rng;
use simcore::SimTime;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use telemetry::{IndexedTelemetry, NodeTelemetry, PublishedEpoch, PublishedSnapshot};

/// The fixed window of in-flight pods: the oldest complete first, so cluster
/// occupancy is stationary over a run of any length.
#[derive(Debug)]
pub struct InFlight {
    pods: VecDeque<PodId>,
    capacity: usize,
}

impl InFlight {
    /// A window holding at most `capacity` pods.
    pub fn new(capacity: usize) -> Self {
        InFlight {
            pods: VecDeque::with_capacity(capacity + 1),
            capacity,
        }
    }

    /// A newly bound pod enters the window.
    pub fn admit(&mut self, pod: PodId) {
        self.pods.push_back(pod);
    }

    /// The oldest pod, removed, while `incoming` more pods would not fit;
    /// `None` once they fit.
    pub fn evict_for(&mut self, incoming: usize) -> Option<PodId> {
        if self.pods.len() + incoming > self.capacity {
            self.pods.pop_front()
        } else {
            None
        }
    }

    /// Pods currently in flight.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.pods.len()
    }
}

/// Which public entry point a step drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// One lone `SchedulerService::schedule`.
    Single,
    /// One `SchedulerService::schedule_batch_into` with a reused `out`.
    Batch,
}

/// Everything one measured phase counts and samples.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Per decision, in op order: arrival → own bind commit, µs (system time
    /// only); `NaN` for a decision that placed no pod.
    pub latency_us: Vec<f64>,
    /// Latency of the first decision after each new epoch, µs (`NaN` alike).
    pub fresh_us: Vec<f64>,
    /// Time the write side took to produce each new epoch, µs.
    pub publish_us: Vec<f64>,
    /// Allocations on the client thread per `schedule*` call (traced run).
    pub schedule_allocs: Vec<f64>,
    /// Per step (one `schedule*` call): decisions placed, and the time inside
    /// `schedule*`, bind and release calls, ns.
    pub steps: Vec<(u32, u64)>,
    /// Requests submitted.
    pub attempted: u64,
    /// Requests whose driver pod was bound.
    pub placed: u64,
    /// Requests whose ranking was empty.
    pub no_feasible: u64,
    /// Requests for which every ranked node refused the bind.
    pub all_refused: u64,
    /// Failed output checks (filter disagreement, release error, pruned
    /// winner ≠ unpruned winner).
    pub check_failures: u64,
    /// `bind_pod` calls the cluster refused.
    pub bind_refused: u64,
    /// Σ over placed decisions of the 0-based rank that took the pod.
    pub placed_rank_sum: u64,
    /// Placed decisions whose first choice took the pod.
    pub first_choice: u64,
    /// Σ ranking length over decisions.
    pub rows_ranked: u64,
    /// Decisions compared against the unpruned rank (seeded 1 % sample).
    pub pruned_checked: u64,
    /// … of which the winners differed.
    pub pruned_top1_mismatches: u64,
    /// Epochs the workload's write side published.
    pub epochs_published: u64,
    /// Hash over (tried node, bind outcome).
    pub op_hash: OpHash,
    /// Harness time spent generating requests and telemetry, ns.
    pub generator_ns: u64,
    /// Memory-probe passes taken between steps, µs each (see [`MemoryProbe`]).
    pub probe_us: Vec<f64>,
}

impl Ledger {
    /// Requests that did not end in a bound pod, or failed an output check.
    pub fn failed(&self) -> u64 {
        self.no_feasible + self.all_refused + self.check_failures
    }

    /// Time inside `schedule*`, bind and release calls over the phase, ns.
    pub fn busy_ns(&self) -> u64 {
        self.steps.iter().map(|&(_, ns)| ns).sum()
    }
}

/// What the traced run's second composition of each decision keeps between
/// decisions: its own context scratch (never the service's) plus standalone
/// buffers for the calls it times on their own.
#[derive(Debug)]
pub struct Replica {
    held: Option<PublishedEpoch>,
    scratch: ContextScratch,
    ranking: NodeRanking,
    job: BuiltJob,
    /// Standalone twins of what `with_scratch` and `feasible_candidates` do
    /// inside the context, so they can be timed on their own.
    telemetry: IndexedTelemetry,
    index: FeasibilityIndex,
    candidates: Vec<NodeId>,
    /// The K ranked rows, rebuilt step by step (features → predict → sort).
    ids: Vec<NodeId>,
    matrix: FeatureMatrix,
    predictions: Vec<f64>,
    sorted: NodeRanking,
    /// Full-cluster matrix: what one stage-one scoreboard build infers over.
    full_matrix: FeatureMatrix,
    full_predictions: Vec<f64>,
    kube: DefaultScheduler,
    signature: Vec<f64>,
    cells: Vec<Vec<u64>>,
    /// The replica ranks with its own copy of the service's model, and the
    /// standalone predict calls with a third: each call re-walks rows another
    /// just walked, and on a shared copy would find every tree path warm in
    /// cache — a price no real decision gets. The cost is cache pressure,
    /// which `bench.trace_overhead_pct` reports.
    predictor: CompletionTimePredictor,
    contrast_predictor: CompletionTimePredictor,
    /// The replica's winner per request of the step.
    winners: Vec<Option<NodeId>>,
    /// What the replica counted in the current phase.
    pub counts: ReplicaCounts,
}

/// Counters of the traced run's second composition.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaCounts {
    /// Decisions whose replica winner differed from the service's.
    pub mismatches: u64,
    /// Epochs the replica adopted (it adopts exactly when the service does).
    pub epochs_adopted: u64,
    /// Steps that found the held epoch still current.
    pub epoch_skips: u64,
    /// Σ feasible-set size over standalone feasibility queries.
    pub feasible_sum: u64,
    /// Standalone feasibility queries made.
    pub feasible_queries: u64,
    /// Σ distinct stage-one signature cells per step.
    pub cells_sum: u64,
    /// Steps replicated.
    pub steps: u64,
}

impl Replica {
    fn new(seed: u64, predictor: &CompletionTimePredictor) -> Self {
        Replica {
            predictor: predictor.clone(),
            contrast_predictor: predictor.clone(),
            winners: Vec::new(),
            held: None,
            scratch: ContextScratch::default(),
            ranking: NodeRanking::default(),
            job: BuiltJob::empty(),
            telemetry: IndexedTelemetry::default(),
            index: FeasibilityIndex::new(),
            candidates: Vec::new(),
            ids: Vec::new(),
            matrix: FeatureMatrix::new(0),
            predictions: Vec::new(),
            sorted: NodeRanking::default(),
            full_matrix: FeatureMatrix::new(0),
            full_predictions: Vec::new(),
            kube: DefaultScheduler::new(seed),
            signature: Vec::new(),
            cells: Vec::new(),
            counts: ReplicaCounts::default(),
        }
    }
}

/// The model a service decides with.
fn trained(service: &SchedulerService) -> &CompletionTimePredictor {
    service
        .predictor()
        .expect("the serving loop needs a trained model")
}

/// One client's closed loop against one scheduler service.
#[derive(Debug)]
pub struct ServeLoop {
    /// The system under test.
    pub service: SchedulerService,
    config: SchedulerConfig,
    /// Where the service fetches telemetry from.
    pub source: PublishedSnapshot,
    /// The cluster decisions are made against and pods are bound on.
    pub cluster: ClusterState,
    window: InFlight,
    /// Decisions of the last step (`out` of `schedule_batch_into`, reused).
    out: Vec<SchedulingDecision>,
    /// Counters and samples of the current phase.
    pub ledger: Ledger,
    /// `Some` in the traced phase.
    pub tracer: Option<Tracer>,
    /// The traced phase's second composition (it holds two more copies of
    /// the model, so it exists only while tracing).
    replica: Option<Replica>,
    seed: u64,
    check_rng: Rng,
    check_scratch: ContextScratch,
    check_ranking: NodeRanking,
    /// Simulated time stamped on pods and store-backed fetches.
    pub now: SimTime,
    deadline: Instant,
    rebuilds_at_start: u64,
    events_at_start: usize,
    probe: MemoryProbe,
}

/// What one measured phase hands to the report.
#[derive(Debug)]
pub struct Phase {
    /// Counters and samples.
    pub ledger: Ledger,
    /// The span buffer (traced phase only).
    pub tracer: Option<Tracer>,
    /// The replica's counters (traced phase only).
    pub replica: ReplicaCounts,
    /// `SchedulerService::feasibility_rebuilds` over the phase.
    pub feasibility_rebuilds: u64,
    /// Cluster events logged over the phase.
    pub events_logged: u64,
}

impl ServeLoop {
    /// A loop around `service`, which must already hold a trained model.
    pub fn new(
        service: SchedulerService,
        config: SchedulerConfig,
        source: PublishedSnapshot,
        cluster: ClusterState,
        window: usize,
        seed: u64,
    ) -> Self {
        ServeLoop {
            service,
            config,
            source,
            cluster,
            window: InFlight::new(window),
            out: Vec::new(),
            ledger: Ledger::default(),
            tracer: None,
            replica: None,
            seed,
            check_rng: Rng::seed_from_u64(seed ^ 0xC4EC),
            check_scratch: ContextScratch::default(),
            check_ranking: NodeRanking::default(),
            now: SimTime::from_secs(60),
            deadline: Instant::now() + Duration::from_secs(3600),
            rebuilds_at_start: 0,
            events_at_start: 0,
            probe: MemoryProbe::new(),
        }
    }

    /// Start a fresh measured phase: new ledger, tracing on or off. The
    /// window, the cluster and the service's warm state carry over.
    pub fn begin_phase(&mut self, tracer: Option<Tracer>, budget: Duration) {
        self.ledger = Ledger::default();
        self.replica = tracer
            .is_some()
            .then(|| Replica::new(self.seed, trained(&self.service)));
        self.tracer = tracer;
        self.rebuilds_at_start = self.service.feasibility_rebuilds();
        self.events_at_start = self.cluster.events().len();
        self.deadline = Instant::now() + budget;
    }

    /// Close the phase and hand over everything it measured.
    pub fn end_phase(&mut self) -> Phase {
        Phase {
            ledger: std::mem::take(&mut self.ledger),
            tracer: self.tracer.take(),
            replica: self
                .replica
                .take()
                .map_or_else(Default::default, |r| r.counts),
            feasibility_rebuilds: self.service.feasibility_rebuilds() - self.rebuilds_at_start,
            events_logged: (self.cluster.events().len() - self.events_at_start) as u64,
        }
    }

    /// True once the phase has outrun its wall-clock guard (a box far slower
    /// than the one the op counts were sized on): the workload stops early
    /// and the result is marked truncated.
    pub fn over_budget(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// The decisions of the last step.
    pub fn decisions(&self) -> &[SchedulingDecision] {
        &self.out
    }

    /// Account a write-side epoch publication the workload just timed.
    pub fn note_publish(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.ledger.publish_us.push(nanos(start, end) as f64 / 1e3);
        self.ledger.epochs_published += 1;
        if let Some(tracer) = &mut self.tracer {
            tracer.push(name, NO_PARENT, self.ledger.attempted as u32, start, end);
        }
    }

    /// One step of the loop: make room in the window, decide every request
    /// through `call`, check, then bind in order.
    pub fn step(&mut self, requests: &[JobRequest], call: Call, fresh_epoch: bool) {
        self.ledger.probe_us.extend(self.probe.sample_if_due());
        let base = self.ledger.attempted as u32;
        self.ledger.attempted += requests.len() as u64;
        let placed_before = self.ledger.placed;
        let release_ns = self.release_for(requests.len(), base);

        // Traced run: the replica goes before the service on every other
        // step, so neither side always finds the model warmed by the other.
        let replica_first = self.ledger.steps.len() % 2 == 1;
        if replica_first {
            self.replicate(requests, call, base);
        }
        let allocs_before = allocations_on_this_thread();
        let (start, end) = match call {
            Call::Single => {
                let (decision, start, end) = timed(|| {
                    self.service
                        .schedule(&requests[0], &self.source, &self.cluster, self.now)
                });
                self.note_allocs(allocs_before);
                self.out.clear();
                self.out.push(decision);
                (start, end)
            }
            Call::Batch => {
                let (_, start, end) = timed(|| {
                    self.service.schedule_batch_into(
                        requests,
                        &self.source,
                        &self.cluster,
                        self.now,
                        &mut self.out,
                    )
                });
                self.note_allocs(allocs_before);
                (start, end)
            }
        };
        let schedule_ns = nanos(start, end);
        if let Some(tracer) = &mut self.tracer {
            tracer.push("core.schedule", NO_PARENT, base, start, end);
        }
        if !replica_first {
            self.replicate(requests, call, base);
        }

        // Checks run against the cluster the decisions were made on, so
        // before the first bind of the step.
        let mut decisions = std::mem::take(&mut self.out);
        let winner = |ranking: &NodeRanking| ranking.best().map(|ranked| ranked.node);
        for (i, (request, decision)) in requests.iter().zip(&decisions).enumerate() {
            self.ledger.rows_ranked += decision.ranking.len() as u64;
            if let Some(replica) = &mut self.replica {
                if replica.winners.get(i) != Some(&winner(&decision.ranking)) {
                    replica.counts.mismatches += 1;
                }
            }
            if self.check_rng.gen_range(100) == 0 {
                self.check_against_unpruned(request, decision);
            }
        }

        let mut bind_ns = 0;
        for (i, (request, decision)) in requests.iter().zip(decisions.iter_mut()).enumerate() {
            let (placed, ns) = self.bind_walk(request, decision, base + i as u32);
            bind_ns += ns;
            let latency_us = if placed {
                (schedule_ns + bind_ns) as f64 / 1e3
            } else {
                f64::NAN
            };
            self.ledger.latency_us.push(latency_us);
            if fresh_epoch && i == 0 {
                self.ledger.fresh_us.push(latency_us);
            }
        }
        self.ledger.steps.push((
            (self.ledger.placed - placed_before) as u32,
            release_ns + schedule_ns + bind_ns,
        ));
        self.out = decisions;
    }

    fn note_allocs(&mut self, before: u64) {
        if self.tracer.is_some() {
            let allocs = allocations_on_this_thread() - before;
            self.ledger.schedule_allocs.push(allocs as f64);
        }
    }

    /// Complete the oldest in-flight pods until `incoming` more fit; returns
    /// the system time spent.
    fn release_for(&mut self, incoming: usize, decision: u32) -> u64 {
        let mut spent = 0;
        while let Some(pod) = self.window.evict_for(incoming) {
            let (result, start, end) = timed(|| self.cluster.complete_pod(pod, true, self.now));
            if result.is_err() {
                self.ledger.check_failures += 1;
            }
            spent += nanos(start, end);
            if let Some(tracer) = &mut self.tracer {
                tracer.push("cluster.release", NO_PARENT, decision, start, end);
            }
        }
        spent
    }

    /// Create and bind the driver pod on the best-ranked node that takes it.
    /// A refused pod is deleted and resubmitted pinned to the next node, as a
    /// client would. Returns whether a node took it and the system time spent.
    fn bind_walk(
        &mut self,
        request: &JobRequest,
        decision: &mut SchedulingDecision,
        id: u32,
    ) -> (bool, u64) {
        let SchedulingDecision { job, ranking, .. } = decision;
        let mut spent = 0;
        for (rank, ranked) in ranking.ranked.iter().enumerate() {
            if rank > 0 {
                let name = self.cluster.node_name(ranked.node);
                let (_, start, end) = timed(|| JobBuilder.build_into(request, Some(name), job));
                spent += nanos(start, end);
            }
            let Some(target) = job.target_node.as_deref() else {
                break;
            };
            // Output check: the cluster's bind and the default scheduler's
            // filter must agree on whether this node can take the pod.
            let accepted = self.cluster.node(target).is_some_and(|node| {
                DefaultScheduler::filter(&job.driver_pod, node) == FilterResult::Feasible
            });
            let ((pod, bound), start, end) = timed(|| {
                let pod = self.cluster.create_pod(job.driver_pod.clone(), self.now);
                (pod, self.cluster.bind_pod(pod, target, self.now))
            });
            spent += nanos(start, end);
            if let Some(tracer) = &mut self.tracer {
                tracer.push("cluster.bind", NO_PARENT, id, start, end);
            }
            if bound.is_ok() != accepted {
                self.ledger.check_failures += 1;
            }
            self.ledger
                .op_hash
                .feed(ranked.node.0, u8::from(bound.is_ok()));
            if bound.is_ok() {
                self.window.admit(pod);
                self.ledger.placed += 1;
                self.ledger.placed_rank_sum += rank as u64;
                self.ledger.first_choice += u64::from(rank == 0);
                return (true, spent);
            }
            self.ledger.bind_refused += 1;
            let (_, start, end) = timed(|| self.cluster.delete_pod(pod, self.now));
            spent += nanos(start, end);
        }
        if ranking.is_empty() {
            self.ledger.no_feasible += 1;
            self.ledger.op_hash.feed(u32::MAX, 2);
        } else {
            self.ledger.all_refused += 1;
        }
        (false, spent)
    }

    /// Output check: the (possibly pruned) winner equals the winner of an
    /// unpruned `rank_feasible_batch` over the same snapshot and cluster.
    fn check_against_unpruned(&mut self, request: &JobRequest, decision: &SchedulingDecision) {
        let scratch = std::mem::take(&mut self.check_scratch);
        let mut ctx = SchedulingContext::with_scratch(&decision.snapshot, &self.cluster, scratch);
        ctx.rank_feasible_batch_into(request, trained(&self.service), &mut self.check_ranking);
        self.check_scratch = ctx.into_scratch();
        self.ledger.pruned_checked += 1;
        let winner = |ranking: &NodeRanking| ranking.best().map(|ranked| ranked.node);
        if winner(&self.check_ranking) != winner(&decision.ranking) {
            self.ledger.pruned_top1_mismatches += 1;
            self.ledger.check_failures += 1;
        }
    }

    /// The traced run's second composition of the step just decided: adopt →
    /// `with_scratch` → per request `rank_feasible_batch_into` → manifest,
    /// each under a span, plus standalone runs of the calls those hide
    /// (`index_into`, `FeasibilityIndex::sync`/`query_into`, the K-row
    /// features → predict → sort) recorded as their children.
    fn replicate(&mut self, requests: &[JobRequest], call: Call, base: u32) {
        let ServeLoop {
            tracer,
            replica,
            cluster,
            source,
            config,
            ..
        } = self;
        let (Some(tracer), Some(rp)) = (tracer.as_mut(), replica.as_mut()) else {
            return;
        };
        let predictor = &rp.predictor;
        let root = tracer.open("replica.decision", NO_PARENT, base);
        rp.counts.steps += 1;

        let (epoch, start, end) = timed(|| source.epoch());
        tracer.push("telemetry.epoch_check", root, base, start, end);
        let adopted_now = rp.held.as_ref().map(|held| held.epoch) != Some(epoch);
        if adopted_now {
            let (latest, start, end) = timed(|| source.latest());
            tracer.push("telemetry.adopt", root, base, start, end);
            rp.held = latest;
            rp.counts.epochs_adopted += 1;
        } else {
            rp.counts.epoch_skips += 1;
        }
        let Some(held) = rp.held.as_ref() else {
            tracer.close(root);
            return;
        };
        let snapshot = Arc::clone(&held.snapshot);

        let scratch = std::mem::take(&mut rp.scratch);
        let (mut ctx, start, end) =
            timed(|| SchedulingContext::with_scratch(&snapshot, cluster, scratch));
        let opened = tracer.push("core.context_open", root, base, start, end);
        let (_, start, end) = timed(|| snapshot.index_into(cluster, &mut rp.telemetry));
        tracer.push("telemetry.index", opened, base, start, end);
        ctx.set_top_k(config.prune_top_k);
        ctx.set_pruning_policy(config.pruning_policy);
        let schema = predictor.schema();

        if adopted_now {
            // Contrast spans, once per epoch: one full-cluster inference (what
            // a stage-one scoreboard build costs) and the kube-default
            // scheduler over the same nodes (the paper's yardstick).
            rp.full_matrix.reset(schema.len());
            for index in 0..cluster.node_count() {
                let id = NodeId(index as u32);
                let node = ctx.node_telemetry(id).copied().unwrap_or_default();
                schema.construct_into_matrix(
                    &mut rp.full_matrix,
                    &node,
                    ctx.rtt_stats(id),
                    &requests[0],
                );
            }
            let (_, start, end) = timed(|| {
                rp.contrast_predictor
                    .predict_batch_into(&rp.full_matrix, &mut rp.full_predictions)
            });
            tracer.push("mlcore.fullboard_predict", NO_PARENT, base, start, end);
            let pod = requests[0].to_job_spec().driver_pod(None);
            let nodes: Vec<&Node> = cluster.nodes().iter().collect();
            let (_, start, end) = timed(|| rp.kube.schedule_refs(&pod, &nodes));
            tracer.push("cluster.kube_default", NO_PARENT, base, start, end);
        }

        rp.cells.clear();
        rp.winners.clear();
        let mut cached_sizing = None;
        for (i, request) in requests.iter().enumerate() {
            let id = base + i as u32;
            // The context answers feasibility from a per-sizing cache; the
            // standalone index mirrors that rule so it is timed exactly when
            // the context pays for it.
            let sizing = (request.driver_cpu_millis, request.driver_memory_bytes);
            let mut feasibility = None;
            if cached_sizing != Some(sizing) {
                cached_sizing = Some(sizing);
                let sync = timed(|| rp.index.sync(cluster));
                let query = timed(|| {
                    rp.index
                        .query_into(&request.driver_resources(), &mut rp.candidates)
                });
                rp.counts.feasible_sum += rp.candidates.len() as u64;
                rp.counts.feasible_queries += 1;
                feasibility = Some((sync, query));
            }

            if call == Call::Single {
                // The owning `schedule` path ranks into a fresh ranking.
                rp.ranking = NodeRanking::default();
            }
            let (_, start, end) =
                timed(|| ctx.rank_feasible_batch_into(request, predictor, &mut rp.ranking));
            let rank = tracer.push("core.rank", root, id, start, end);
            if let Some(((rebuilt, s0, s1), (_, q0, q1))) = feasibility {
                if rebuilt {
                    tracer.push("cluster.feasibility_sync", rank, id, s0, s1);
                }
                tracer.push("cluster.feasibility_query", rank, id, q0, q1);
            }

            // The exact re-rank of the surviving rows, one public call at a
            // time, over ids in ascending order as the context passes them.
            rp.ids.clear();
            rp.ids
                .extend(rp.ranking.ranked.iter().map(|ranked| ranked.node));
            rp.ids.sort_unstable();
            let (_, start, end) = timed(|| {
                rp.matrix.reset(schema.len());
                for &node_id in &rp.ids {
                    let node = ctx.node_telemetry(node_id).copied().unwrap_or_default();
                    schema.construct_into_matrix(
                        &mut rp.matrix,
                        &node,
                        ctx.rtt_stats(node_id),
                        request,
                    );
                }
            });
            tracer.push("core.features", rank, id, start, end);
            let (_, start, end) = timed(|| {
                rp.contrast_predictor
                    .predict_batch_into(&rp.matrix, &mut rp.predictions)
            });
            tracer.push("mlcore.predict", rank, id, start, end);
            let (_, start, end) =
                timed(|| DecisionModule.rank_into(&rp.ids, &rp.predictions, &mut rp.sorted));
            tracer.push("core.sort", rank, id, start, end);

            let target = rp.ranking.best_name(cluster);
            let (_, start, end) = timed(|| match call {
                // `schedule` builds an owned job, `schedule_batch_into`
                // rebuilds the slot's job in place.
                Call::Single => rp.job = JobBuilder.build(request, target),
                Call::Batch => JobBuilder.build_into(request, target, &mut rp.job),
            });
            tracer.push("core.manifest", root, id, start, end);
            rp.winners.push(rp.ranking.best().map(|ranked| ranked.node));

            // Stage one keeps one scoreboard per signature cell: count the
            // distinct cells this burst touched.
            schema.construct_into(
                &mut rp.signature,
                &NodeTelemetry::default(),
                (0.0, 0.0, 0.0),
                request,
            );
            predictor.signature_cells(&mut rp.signature);
            let cell: Vec<u64> = rp.signature.iter().map(|value| value.to_bits()).collect();
            if !rp.cells.contains(&cell) {
                rp.cells.push(cell);
            }
        }
        rp.counts.cells_sum += rp.cells.len() as u64;
        rp.scratch = ctx.into_scratch();
        tracer.close(root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_releases_oldest_first_and_only_when_full() {
        let mut window = InFlight::new(4);
        for id in 0..3 {
            assert_eq!(window.evict_for(1), None, "room for pod {id}");
            window.admit(PodId(id));
        }
        // 3 in flight, capacity 4: one more fits, a burst of 3 does not.
        assert_eq!(window.evict_for(1), None);
        assert_eq!(window.evict_for(3), Some(PodId(0)));
        assert_eq!(window.evict_for(3), Some(PodId(1)));
        assert_eq!(window.evict_for(3), None);
        assert_eq!(window.len(), 1);
        // Steady state: at capacity every admission evicts exactly one.
        for id in 3..6 {
            window.admit(PodId(id));
        }
        assert_eq!(window.len(), 4);
        assert_eq!(window.evict_for(1), Some(PodId(2)));
        assert_eq!(window.evict_for(1), None);
    }
}
