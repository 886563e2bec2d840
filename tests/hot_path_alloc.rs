//! Runtime counterpart of the `hot-path-alloc` lint: a counting global
//! allocator proves that steady-state `schedule_batch_into` bursts perform **zero
//! heap allocations**.
//!
//! The static lint (`cargo run -p analysis -- check`) bans allocating tokens
//! inside the hot-path function manifest; this harness pins the same claim
//! dynamically, end to end: against an epoch-published snapshot with a
//! trained model, a warm `schedule_batch_into` burst must not allocate,
//! deallocate or reallocate at all — not in telemetry indexing, feasibility
//! filtering, feature construction, batch inference, ranking, or job/manifest
//! building. The same holds for a serving loop: with a bind between bursts
//! (the feasibility index is refreshed in place) and across a new epoch over an
//! unchanged node set (telemetry is re-indexed and diffed into warm buffers,
//! scoreboards refresh only their dirty rows), and for a stream of more job
//! cells than the scoreboard pool holds (evicted boards are refilled in
//! place).

use netsched::cluster::{ClusterState, Node, PodSpec, Resources};
use netsched::core::request::JobRequest;
use netsched::core::service::{SchedulerConfig, SchedulerService, SchedulingDecision};
use netsched::mlcore::ModelKind;
use netsched::simcore::rng::Rng;
use netsched::simcore::{SimDuration, SimTime};
use netsched::simnet::{gbps, mbps, Network, NodeId, TopologyBuilder};
use netsched::sparksim::WorkloadKind;
use netsched::telemetry::{PublishedSnapshot, ScrapeConfig, ScrapeManager};
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

/// A 4-node, 2-site world with a scraped telemetry round.
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

/// Train a `model_kind` service through its own bootstrap path (fallback
/// decisions → logged outcomes → retrain), so the steady-state burst runs the
/// supervised scheduler, not the fallback. Logged jobs vary in size and their
/// completion times with it, so tree ensembles split instead of fitting one
/// leaf.
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
    // time, then a 1–3-tree tail) on stack arrays only.
    for kind in ModelKind::ALL {
        let (cluster, _network, mut scrape) = test_world();
        let published = scrape.published_handle();
        let mut service =
            trained_service_with(&cluster, &published, kind, SchedulerConfig::default());
        let predictor = service.predictor().unwrap();
        let splits = predictor.model().split_grid(predictor.schema().len());
        assert_eq!(
            splits.iter().any(|column| !column.is_empty()),
            kind != ModelKind::Linear,
            "{kind}: tree ensembles must split, so the walk takes real steps"
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
            "{kind}: steady-state schedule_batch_into bursts must be allocation-free \
             (allocs={allocs} deallocs={deallocs} reallocs={reallocs})"
        );

        // The allocation-free path still produces real decisions.
        assert_eq!(decisions.len(), requests.len());
        for decision in &decisions {
            assert!(decision.used_model);
            assert_eq!(decision.ranking.len(), 4);
            assert!(decision.job.target_node.is_some());
            assert!(decision.job.manifest_yaml.contains("SparkApplication"));
        }
        let after: Vec<Option<String>> = decisions
            .iter()
            .map(|d| d.job.target_node.clone())
            .collect();
        assert_eq!(warm, after, "{kind}: steady-state bursts are deterministic");
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
