//! The allocation gate: a counting global allocator fails the run when a
//! warm scheduling decision touches the heap.
//!
//! `schedule_batch_into` runs a predict-and-rank step on every arriving job,
//! so once its buffers are warm a burst must not allocate, deallocate or
//! reallocate at all — not in telemetry indexing, feasibility filtering,
//! feature construction, batch inference, ranking, or job/manifest building.
//! Each scenario warms one kind of decision and then counts a window of
//! them:
//!
//! - one burst per model family over a published epoch (the grouped tree
//!   walk on stack arrays), plus a forest ranking more candidates than one
//!   walk block (the block-by-block `FlatTree::accumulate_into` branch);
//! - bursts whose requests alternate two driver sizings (one feasibility
//!   query per decision) or whose reused slots alternate two executor counts;
//! - pruned bursts off the scoreboard, and the untrained fallback with and
//!   without a budget;
//! - a stream of more job cells than the scoreboard pool holds (evicted
//!   boards refilled in place);
//! - a serving loop with a bind between bursts and a new epoch every other
//!   round (feasibility refreshed, telemetry re-indexed and diffed, dirty
//!   scoreboard rows refreshed);
//! - rankings over snapshots that were never sealed: a scraped one (every RTT
//!   row summarised on the spot) and a hand-built 600-node one whose node
//!   table is not in the cluster's order (sampled RTT rows, nodes resolved
//!   by name).
//!
//! On the ingest side, a warm exporter round over a 64-node mesh with live
//! traffic evaluates every ping probe, and refills and seals a warm snapshot
//! buffer, without touching the heap.

use netsched::cluster::{ClusterState, Node, PodSpec, Resources};
use netsched::core::{
    CompletionTimePredictor, ContextScratch, JobRequest, NodeRanking, SchedulerConfig,
    SchedulerService, SchedulingContext, SchedulingDecision,
};
use netsched::mlcore::{FlatTree, ModelKind};
use netsched::simcore::{Rng, SimDuration, SimTime};
use netsched::simnet::{gbps, mbps, Network, NodeId, TopologyBuilder};
use netsched::sparksim::WorkloadKind;
use netsched::telemetry::{
    ClusterSnapshot, ExporterLayout, NodeTelemetry, PublishedSnapshot, ScrapeConfig, ScrapeManager,
    SeriesId, TimeSeriesStore,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Pass-through allocator that counts the heap operations of a thread while
/// that thread is armed.
struct CountingAllocator;

/// `[allocs, deallocs, reallocs]` of one armed window.
type Tally = [u64; 3];

thread_local! {
    // Per thread, so a window measures the burst and only the burst: the
    // harness runs the `#[test]`s of this binary on parallel threads (and its
    // own main thread allocates too). Const-initialised and `Drop`-free, so
    // reading them inside the allocator never allocates or registers a
    // destructor.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static TALLY: Cell<Tally> = const { Cell::new([0; 3]) };
}

fn count(operation: usize) {
    // `try_with`: a thread may allocate while its locals are torn down, and
    // that must not panic inside the allocator.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = TALLY.try_with(|tally| {
                let mut counts = tally.get();
                counts[operation] += 1;
                tally.set(counts);
            });
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is a thread-local
// integer update that neither allocates nor unwinds.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait impl; this one only forwards to `System` and counts"
)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(0);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(2);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Start counting this thread's heap operations from zero.
fn arm() {
    TALLY.with(|tally| tally.set([0; 3]));
    ARMED.with(|armed| armed.set(true));
}

/// Stop counting; `(allocs, deallocs, reallocs)` since [`arm`].
fn disarm() -> (u64, u64, u64) {
    ARMED.with(|armed| armed.set(false));
    let [allocs, deallocs, reallocs] = TALLY.with(Cell::get);
    (allocs, deallocs, reallocs)
}

/// `nodes` nodes named `node-1…`, the first half in site UCSD and the rest
/// in FIU.
fn two_site_cluster(nodes: usize) -> ClusterState {
    let mut cluster = ClusterState::new();
    for i in 0..nodes {
        cluster.add_node(Node::new(
            format!("node-{}", i + 1),
            NodeId(i),
            Resources::from_cores_and_gib(6, 8),
            if i < nodes / 2 { "UCSD" } else { "FIU" },
        ));
    }
    cluster
}

/// A two-site world of `nodes` nodes (one link between the sites) with a
/// scraped telemetry round.
#[expect(
    clippy::unwrap_used,
    reason = "test fixture: two sites, one link between"
)]
fn two_site_world(nodes: usize) -> (ClusterState, Network, ScrapeManager) {
    let mut b = TopologyBuilder::new();
    let s0 = b.add_site("UCSD", SimDuration::from_micros(200), gbps(10.0));
    let s1 = b.add_site("FIU", SimDuration::from_micros(200), gbps(10.0));
    for i in 0..nodes {
        let site = if i < nodes / 2 { s0 } else { s1 };
        b.add_node(format!("node-{}", i + 1), site, gbps(1.0), gbps(1.0));
    }
    b.connect_sites(s0, s1, SimDuration::from_millis(30), mbps(500.0));
    let network = Network::new(b.build().unwrap());
    let cluster = two_site_cluster(nodes);
    let mut scrape = ScrapeManager::new(ScrapeConfig::default());
    scrape.scrape(&cluster, &network, SimTime::from_secs(1));
    (cluster, network, scrape)
}

/// The 4-node world most scenarios decide on.
fn test_world() -> (ClusterState, Network, ScrapeManager) {
    two_site_world(4)
}

fn request(i: usize) -> JobRequest {
    JobRequest::named(format!("sort-{i}"), WorkloadKind::Sort, 100_000, 2)
}

/// Train a `model_kind` service through its own bootstrap path (fallback
/// decisions → logged outcomes → retrain), so the steady-state burst runs the
/// supervised scheduler, not the fallback. Logged jobs vary in size and their
/// completion times with it, so tree ensembles split instead of fitting one
/// leaf.
#[expect(
    clippy::unwrap_used,
    reason = "test fixture: the fallback scheduler places every bootstrap job on the idle 4-node world"
)]
fn trained_service_with(
    cluster: &ClusterState,
    published: &PublishedSnapshot,
    model_kind: ModelKind,
    config: SchedulerConfig,
) -> SchedulerService {
    let mut service = SchedulerService::new(
        SchedulerConfig {
            min_training_samples: 20,
            model_kind,
            ..config
        },
        7,
    );
    let mut rng = Rng::seed_from_u64(11);
    for i in 0..30 {
        let d = service.schedule(&request(i), published, cluster, SimTime::from_secs(2));
        let node = d.job.target_node.clone().unwrap();
        let load = d.snapshot.node(&node).map(|t| t.cpu_load).unwrap_or(0.0);
        let size = 1 + i as u64 % 4;
        let logged = JobRequest::named(format!("sort-{i}"), WorkloadKind::Sort, 50_000 * size, 2);
        service.record_outcome(&d.snapshot, &logged, &node, 10.0 * size as f64 + 5.0 * load);
    }
    assert!(service.retrain(&mut rng));
    assert!(service.is_model_active());
    service
}

fn trained_service(cluster: &ClusterState, published: &PublishedSnapshot) -> SchedulerService {
    trained_service_with(
        cluster,
        published,
        ModelKind::Linear,
        SchedulerConfig::default(),
    )
}

#[test]
fn steady_state_schedule_batch_burst_is_allocation_free() {
    // One leg per model family. The four candidates make a decision-sized
    // batch, so the tree ensembles run the grouped walk (four trees at a
    // time, then a 1–3-tree tail) on stack arrays only. A last forest leg
    // ranks eight more candidates than one walk block has rows, so it walks
    // the trees outer, block by block (`FlatTree::accumulate_into`).
    let legs = ModelKind::ALL
        .map(|kind| (kind, 4))
        .into_iter()
        .chain([(ModelKind::RandomForest, FlatTree::BLOCK + 8)]);
    for (kind, nodes) in legs {
        let (cluster, _network, mut scrape) = two_site_world(nodes);
        let published = scrape.published_handle();
        let mut service =
            trained_service_with(&cluster, &published, kind, SchedulerConfig::default());
        let predictor = service.predictor().unwrap();
        let splits = predictor.model().split_grid(predictor.schema().len());
        assert_eq!(
            splits.iter().any(|column| !column.is_empty()),
            kind != ModelKind::Linear,
            "{kind} on {nodes} nodes: tree ensembles must split, so the walk takes real steps"
        );

        let requests: Vec<JobRequest> = (0..8).map(request).collect();
        let now = SimTime::from_secs(3);
        let mut decisions: Vec<SchedulingDecision> = Vec::new();

        // Warm-up bursts: adopt the published epoch, size every reused buffer
        // (context scratch, rankings, pod specs, manifest strings) to its
        // steady-state capacity.
        for _ in 0..3 {
            service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
        }
        let warm: Vec<Option<String>> = decisions
            .iter()
            .map(|d| d.job.target_node.clone())
            .collect();

        // Steady state: with no new epoch published and stable request
        // shapes, whole bursts must not touch the heap at all.
        arm();
        for _ in 0..10 {
            service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
        }
        let (allocs, deallocs, reallocs) = disarm();
        assert_eq!(
            (allocs, deallocs, reallocs),
            (0, 0, 0),
            "{kind} on {nodes} nodes: steady-state schedule_batch_into bursts must be allocation-free \
             (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
        );

        // The allocation-free path still produces real decisions.
        assert_eq!(decisions.len(), requests.len());
        for decision in &decisions {
            assert!(decision.used_model);
            assert_eq!(decision.ranking.len(), nodes);
            assert!(decision.job.target_node.is_some());
            assert!(decision.job.manifest_yaml.contains("SparkApplication"));
        }
        let after: Vec<Option<String>> = decisions
            .iter()
            .map(|d| d.job.target_node.clone())
            .collect();
        assert_eq!(
            warm, after,
            "{kind} on {nodes} nodes: steady-state bursts are deterministic"
        );
    }
}

#[test]
fn bursts_alternating_two_driver_sizings_are_allocation_free() {
    // The feasible set is cached under one (driver sizing, generation) key,
    // so a burst whose requests alternate two sizings re-queries the
    // feasibility index for every decision — into the same warm buffer.
    let (mut cluster, _network, mut scrape) = test_world();
    let published = scrape.published_handle();
    let mut service = trained_service(&cluster, &published);
    // One node keeps a single free core: the small driver fits everywhere,
    // the large one on three nodes, so consecutive answers differ.
    let hog = cluster.create_pod(
        PodSpec::new("hog", Resources::from_cores_and_gib(5, 1)),
        SimTime::ZERO,
    );
    cluster.bind_pod(hog, "node-2", SimTime::ZERO).unwrap();
    const GIB: u64 = 1 << 30;
    let requests: Vec<JobRequest> = (0..8)
        .map(|i| request(i).with_driver_resources(if i % 2 == 0 { 500 } else { 2_000 }, GIB))
        .collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();
    for _ in 0..3 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }

    arm();
    for _ in 0..10 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "bursts that re-query the feasible set per decision must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    for (i, decision) in decisions.iter().enumerate() {
        assert!(decision.used_model);
        assert_eq!(decision.ranking.len(), if i % 2 == 0 { 4 } else { 3 });
    }
    assert_eq!(service.feasibility_rebuilds(), 1);
}

#[test]
fn bursts_whose_slots_alternate_two_executor_counts_are_allocation_free() {
    // The `sparksim::mix` shape: consecutive bursts reuse each decision slot
    // for a job with a different executor count (2, then 4, then 2 …), so
    // the job a slot rebuilds changes shape on every burst.
    let (cluster, _network, mut scrape) = test_world();
    let published = scrape.published_handle();
    let mut service = trained_service(&cluster, &published);
    let bursts: [Vec<JobRequest>; 2] = [0, 1].map(|parity| {
        (0..8)
            .map(|i| {
                let executors = if (i + parity) % 2 == 0 { 2 } else { 4 };
                JobRequest::named(format!("sort-{i}"), WorkloadKind::Sort, 100_000, executors)
            })
            .collect()
    });
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();
    for requests in bursts.iter().cycle().take(4) {
        service.schedule_batch_into(requests, &published, &cluster, now, &mut decisions);
    }

    arm();
    for requests in bursts.iter().cycle().take(20) {
        service.schedule_batch_into(requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "bursts whose slots change executor count must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    for (decision, request) in decisions.iter().zip(&bursts[1]) {
        assert!(decision.used_model);
        assert_eq!(
            decision.job.spec.executor_count,
            request.workload.executor_count
        );
    }
}

#[test]
fn steady_state_pruned_bursts_are_allocation_free() {
    // Two-stage decision path with a candidate budget: the supervised burst
    // ranks off the model's scoreboard (board pool, bounded heap, signature
    // cells — all scratch-carried and epoch-recycled); the
    // fallback burst ignores the budget and shuffles the whole feasible set.
    // Both must run heap-free once warm.
    let (cluster, _network, mut scrape) = test_world();
    let published = scrape.published_handle();
    let mut service = trained_service_with(
        &cluster,
        &published,
        ModelKind::Linear,
        SchedulerConfig {
            prune_top_k: Some(2),
            ..Default::default()
        },
    );

    let requests: Vec<JobRequest> = (0..8).map(request).collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();
    for _ in 0..3 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }

    arm();
    for _ in 0..10 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state pruned supervised bursts must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    for decision in &decisions {
        assert!(decision.used_model);
        assert_eq!(
            decision.ranking.len(),
            2,
            "the budget binds: 2 of 4 feasible nodes get ranked"
        );
        assert!(decision.job.target_node.is_some());
    }

    // The untrained fallback under the same budget: uniform over all four
    // feasible nodes, through the same carried scratch.
    let mut fallback = SchedulerService::new(
        SchedulerConfig {
            prune_top_k: Some(2),
            ..Default::default()
        },
        7,
    );
    for _ in 0..3 {
        fallback.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    arm();
    for _ in 0..10 {
        fallback.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state pruned fallback bursts must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    assert!(decisions
        .iter()
        .all(|d| !d.used_model && d.ranking.len() == 4));
}

#[test]
fn a_stream_of_more_cells_than_the_board_pool_is_allocation_free_once_warm() {
    // A linear model's signature cell is the job's exact feature values, so
    // 70 input sizes are 70 cells: more than the 64 boards the pool keeps.
    // Cycling through them, every decision of the second cycle evicts the
    // oldest board and must refill its buffers in place.
    let (cluster, _network, mut scrape) = test_world();
    let published = scrape.published_handle();
    let mut service = trained_service_with(
        &cluster,
        &published,
        ModelKind::Linear,
        SchedulerConfig {
            prune_top_k: Some(2),
            ..Default::default()
        },
    );
    let requests: Vec<JobRequest> = (0..70)
        .map(|i| {
            JobRequest::named(
                format!("sort-{i}"),
                WorkloadKind::Sort,
                100_000 + 1_000 * i as u64,
                2,
            )
        })
        .collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();
    service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);

    arm();
    service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "a warm cycle through more cells than the pool holds must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    assert!(decisions
        .iter()
        .all(|d| d.used_model && d.ranking.len() == 2));
}

#[test]
fn steady_state_fallback_burst_is_allocation_free() {
    // The pre-training fallback path (uniform-random feasible placement)
    // shares the same in-place machinery and must also run heap-free once
    // warm.
    let (cluster, _network, mut scrape) = test_world();
    let published = scrape.published_handle();
    let mut service = SchedulerService::new(SchedulerConfig::default(), 7);

    let requests: Vec<JobRequest> = (0..8).map(request).collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();
    for _ in 0..3 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }

    arm();
    for _ in 0..10 {
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "steady-state fallback bursts must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    assert!(decisions.iter().all(|d| !d.used_model));
}

#[test]
fn serving_loop_bursts_are_allocation_free_across_binds_and_epochs() {
    // schedule_batch_into → bind → schedule_batch_into, on a held epoch and
    // across a new one, with pruning on: every burst re-keys the decision
    // view (one feasibility refresh per bind; per new epoch one re-index, one
    // diff and a dirty-row scoreboard refresh) without touching the heap.
    let (mut cluster, network, mut scrape) = test_world();
    let published = scrape.published_handle();
    let mut service = trained_service_with(
        &cluster,
        &published,
        ModelKind::Linear,
        SchedulerConfig {
            prune_top_k: Some(2),
            ..Default::default()
        },
    );
    let requests: Vec<JobRequest> = (0..8).map(request).collect();
    let now = SimTime::from_secs(3);
    let mut decisions: Vec<SchedulingDecision> = Vec::new();

    let mut tally = (0, 0, 0);
    for round in 0..12u64 {
        // Rounds 0–3 are warm-up: one pass through each kind of step (and
        // through all four publish buffers) sizes every reused buffer.
        let measured = round >= 4;
        if measured {
            arm();
        }
        service.schedule_batch_into(&requests, &published, &cluster, now, &mut decisions);
        if measured {
            let (allocs, deallocs, reallocs) = disarm();
            tally = (tally.0 + allocs, tally.1 + deallocs, tally.2 + reallocs);
        }
        assert!(decisions
            .iter()
            .all(|d| d.used_model && d.ranking.len() == 2));

        // Outside the measured window (the cluster API and the scraper
        // allocate by design): bind the first decision's driver, so the next
        // burst sees a new cluster generation …
        let target = decisions[0].job.target_node.clone().unwrap();
        let pod = cluster.create_pod(
            PodSpec::new(
                format!("driver-{round}"),
                Resources::from_cores_and_gib(1, 1),
            ),
            now,
        );
        cluster.bind_pod(pod, &target, now).unwrap();
        // … and on every other round scrape, so it also sees a new epoch
        // whose node loads reflect the binds so far.
        if round % 2 == 1 {
            scrape.scrape(&cluster, &network, SimTime::from_secs(10 + 5 * round));
        }
    }
    assert_eq!(
        tally,
        (0, 0, 0),
        "warm serving-loop bursts must be allocation-free across binds and epochs"
    );
    assert_eq!(service.feasibility_rebuilds(), 1);
}

/// Rank eight requests through contexts over `snapshot` that hand one
/// scratch on, as consecutive `schedule_batch_into` bursts do: three warm-up
/// bursts, then ten counted ones. Asserts the counted bursts touch no heap
/// and rank exactly like the warm-up; returns the last rankings.
fn assert_warm_rankings_are_allocation_free(
    snapshot: &ClusterSnapshot,
    cluster: &ClusterState,
    predictor: &CompletionTimePredictor,
) -> Vec<NodeRanking> {
    assert_eq!(snapshot.revision(), 0, "the snapshot is unsealed");
    let requests: Vec<JobRequest> = (0..8).map(request).collect();
    let mut rankings: Vec<NodeRanking> = requests.iter().map(|_| NodeRanking::default()).collect();
    let burst = |scratch: ContextScratch, rankings: &mut [NodeRanking]| {
        let mut ctx = SchedulingContext::with_scratch(snapshot, cluster, scratch);
        for (request, ranking) in requests.iter().zip(rankings.iter_mut()) {
            ctx.rank_feasible_batch_into(request, predictor, ranking);
        }
        ctx.into_scratch()
    };
    let mut scratch = ContextScratch::default();
    for _ in 0..3 {
        scratch = burst(scratch, &mut rankings);
    }
    let warm: Vec<NodeRanking> = rankings.clone();

    arm();
    for _ in 0..10 {
        scratch = burst(scratch, &mut rankings);
    }
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "warm rankings over an unsealed snapshot must be allocation-free \
         (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
    );
    assert_eq!(snapshot.revision(), 0, "ranking never seals the snapshot");
    assert_eq!(warm, rankings, "warm rankings are deterministic");
    rankings
}

#[test]
fn warm_ranking_over_an_unsealed_snapshot_is_allocation_free() {
    // A published epoch is always sealed, so `schedule_batch_into` reads
    // sealed RTT rows. A snapshot taken by value (the history query here, a
    // scenario's frozen state in Table 4) is not: the ranking `schedule_batch_into`
    // runs re-indexes it on every context and summarises each RTT row on the
    // spot (`rtt_stats_from` → `accumulate_row_stats` → `OnlineStats`). With
    // the scratch carried across contexts, that must not touch the heap.
    let (cluster, _network, mut scrape) = test_world();
    let published = scrape.published_handle();
    let service = trained_service(&cluster, &published);
    let mut snapshot = ClusterSnapshot::default();
    scrape.snapshot_into(
        SimTime::from_secs(1),
        ScrapeConfig::default().rate_window,
        &mut snapshot,
    );
    let (mean, _, _) = snapshot.rtt_stats_from("node-1");
    assert!(mean > 0.0, "the scraped mesh has probes to summarise");

    let rankings =
        assert_warm_rankings_are_allocation_free(&snapshot, &cluster, service.predictor().unwrap());
    assert!(rankings.iter().all(|r| r.len() == 4));
}

#[test]
fn warm_ranking_over_a_sparse_snapshot_in_foreign_node_order_is_allocation_free() {
    // A snapshot whose node table is not the cluster's, in the cluster's
    // order, is resolved node by node through its name index, and an
    // unsealed one sums every sampled RTT row on the spot. A hand-built
    // 600-node snapshot, interned in reverse and never sealed, takes both
    // branches on every context.
    const NODES: usize = 600;
    let (small, _network, mut scrape) = test_world();
    let published = scrape.published_handle();
    let service = trained_service(&small, &published);

    let cluster = two_site_cluster(NODES);
    let name = |i: usize| format!("node-{}", i % NODES + 1);
    let mut snapshot = ClusterSnapshot::at(SimTime::from_secs(1));
    for i in (0..NODES).rev() {
        let telemetry = NodeTelemetry {
            cpu_load: 0.1 * (i % 7) as f64,
            memory_available_bytes: 4e9,
            tx_rate: 1e6,
            rx_rate: 1e6,
        };
        snapshot.insert_node(&name(i), telemetry);
    }
    for i in 0..NODES {
        for peer in [1, 7] {
            let rtt = 0.001 * (1 + (i + peer) % 5) as f64;
            snapshot.insert_rtt(&name(i), &name(i + peer), rtt);
        }
    }
    assert!(!snapshot.is_aligned_with(&cluster));

    let rankings =
        assert_warm_rankings_are_allocation_free(&snapshot, &cluster, service.predictor().unwrap());
    assert!(rankings.iter().all(|r| r.len() == NODES));
}

#[test]
fn warm_exporter_scrape_round_is_allocation_free() {
    // Two sites, 64 nodes alternating between them, eight background flows
    // crossing the WAN link: every one of the 4 032 ping probes of a round
    // reads congested utilization off the network's dense table.
    const NODES: usize = 64;
    let mut b = TopologyBuilder::new();
    let sites = [
        b.add_site("A", SimDuration::from_micros(200), gbps(10.0)),
        b.add_site("B", SimDuration::from_micros(200), gbps(10.0)),
    ];
    for i in 0..NODES {
        b.add_node(
            format!("node-{}", i + 1),
            sites[i % 2],
            gbps(1.0),
            gbps(1.0),
        );
    }
    b.connect_sites(
        sites[0],
        sites[1],
        SimDuration::from_millis(20),
        mbps(500.0),
    );
    let mut network = Network::new(b.build().unwrap());
    for i in 0..8 {
        network.start_flow(NodeId(i), NodeId(NODES - 1 - i), 1e12);
    }
    network.advance_to(SimTime::from_secs(1));
    assert_eq!(network.active_flow_count(), 8);
    assert!(network.path_utilization(NodeId(0), NodeId(1)) > 0.5);

    let mut cluster = ClusterState::new();
    for i in 0..NODES {
        cluster.add_node(Node::new(
            format!("node-{}", i + 1),
            NodeId(i),
            Resources::from_cores_and_gib(6, 8),
            if i % 2 == 0 { "A" } else { "B" },
        ));
    }
    let layout = ExporterLayout::build(&cluster, &mut TimeSeriesStore::new());
    let series = 4 * NODES + NODES * (NODES - 1);
    let mut batch: Vec<(SeriesId, f64)> = Vec::with_capacity(series);

    // Warm-up round, then the measured one into the same buffer.
    layout.scrape_into(&cluster, &network, SimTime::from_secs(5), |id, v| {
        batch.push((id, v))
    });
    batch.clear();
    arm();
    layout.scrape_into(&cluster, &network, SimTime::from_secs(10), |id, v| {
        batch.push((id, v))
    });
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(batch.len(), series);
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "a warm exporter round must not touch the heap"
    );

    // The publish half of the round: refill a warm snapshot buffer from the
    // store and seal it. Every RTT row keeps its capacity across the reset
    // and a scrape writes targets in ascending order, so each probe appends.
    let mut scrape = ScrapeManager::new(ScrapeConfig::default());
    let window = ScrapeConfig::default().rate_window;
    let mut snapshot = ClusterSnapshot::default();
    for secs in [5, 10] {
        scrape.scrape(&cluster, &network, SimTime::from_secs(secs));
    }
    scrape.snapshot_into(SimTime::from_secs(5), window, &mut snapshot);
    snapshot.seal();
    arm();
    scrape.snapshot_into(SimTime::from_secs(10), window, &mut snapshot);
    snapshot.seal();
    let (allocs, deallocs, reallocs) = disarm();
    assert_eq!(snapshot.rtt().len(), NODES * (NODES - 1));
    assert_ne!(snapshot.revision(), 0);
    assert_eq!(
        (allocs, deallocs, reallocs),
        (0, 0, 0),
        "refilling and sealing a warm snapshot must not touch the heap"
    );
}
