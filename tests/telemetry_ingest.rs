//! Differential and stress tests for the concurrent telemetry ingest
//! pipeline.
//!
//! * **Equivalence.** For a fixed scrape schedule, the concurrent pipeline
//!   ([`ConcurrentScrapeManager::ingest`]: exporter evaluation outside the
//!   store's lock, one writer lane behind a bounded queue committing chunks
//!   in schedule order) must produce **byte-identical snapshots** to the
//!   synchronous [`ScrapeManager`] driving the same exporters round by
//!   round — parallelism changes wall-clock, never results — including over
//!   a schedule with duplicate, late and beyond-retention rounds.
//! * **Whole-round visibility.** Readers snapshotting *while* ingest runs on
//!   another thread must only ever observe fully-committed scrape rounds:
//!   every observed snapshot equals the state after some prefix of the
//!   schedule (a whole number of chunks), and successive observations
//!   advance monotonically.
//! * **Whole-epoch publishing.** [`PublishedSnapshot`] readers polling while
//!   ingest runs must only ever observe whole committed epochs: per-handle
//!   epoch numbers are monotone, and every published snapshot is
//!   byte-identical to the sequential scraper's snapshot for the same round.

use netsched::cluster::{ClusterState, Node, Resources};
use netsched::simcore::{SimDuration, SimTime};
use netsched::simnet::{gbps, mbps, Network, TopologyBuilder};
use netsched::telemetry::{
    ClusterSnapshot, ConcurrentScrapeManager, IngestConfig, ScrapeConfig, ScrapeManager,
    SnapshotSource,
};
use netsched::SimNodeId;

mod common;
use common::{snapshot_bits, SnapshotBits};

/// A two-site world with `nodes` node exporters (plus the full ping mesh).
#[expect(
    clippy::unwrap_used,
    reason = "test fixture: two sites, each node on one of them, one link between"
)]
fn setup(nodes: usize) -> (ClusterState, Network) {
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
    (cluster, network)
}

#[test]
fn concurrent_ingest_is_byte_identical_to_sequential_scrapes() {
    let (cluster, network) = setup(6);
    let times: Vec<SimTime> = (0..120u64).map(|i| SimTime::from_secs(i * 5)).collect();
    let config = ScrapeConfig {
        interval: SimDuration::from_secs(5),
        rate_window: SimDuration::from_secs(30),
        retention: Some(SimDuration::from_secs(300)),
    };

    let mut sequential = ScrapeManager::new(config.clone());
    for &t in &times {
        sequential.scrape(&cluster, &network, t);
    }

    // Several ingest tunings, including degenerate ones, all converge to the
    // same bytes: parallelism must never change results.
    for ingest_config in [
        IngestConfig::default(),
        IngestConfig {
            eval_workers: 1,
            queue_depth: 1,
            chunk_rounds: 1,
            sync_work_threshold: 0,
        },
        IngestConfig {
            eval_workers: 6,
            queue_depth: 2,
            chunk_rounds: 3,
            sync_work_threshold: 0,
        },
    ] {
        let mut concurrent = ConcurrentScrapeManager::with_ingest(config.clone(), ingest_config);
        concurrent.ingest(&cluster, &network, &times);
        assert_eq!(concurrent.scrape_count(), times.len() as u64);
        assert_eq!(concurrent.point_count(), sequential.store().point_count());
        assert_eq!(concurrent.series_count(), sequential.store().series_count());

        let window = SimDuration::from_secs(30);
        let mut concurrent_snap = ClusterSnapshot::default();
        let mut flat_snap = ClusterSnapshot::default();
        // Fetch times probe fresh state, mid-history and pre-retention.
        for &at_secs in &[595u64, 400, 123, 10, 0] {
            let at = SimTime::from_secs(at_secs);
            SnapshotSource::snapshot_into(&concurrent, at, window, &mut concurrent_snap);
            sequential.snapshot_into(at, window, &mut flat_snap);
            assert_eq!(
                snapshot_bits(&concurrent_snap),
                snapshot_bits(&flat_snap),
                "snapshot at t = {at_secs}s must be byte-identical ({ingest_config:?})"
            );
        }
    }
}

#[test]
fn readers_only_observe_whole_scrape_rounds_during_ingest() {
    let (cluster, network) = setup(3);
    let times: Vec<SimTime> = (0..80u64).map(|i| SimTime::from_secs(i * 5)).collect();
    let at = *times.last().unwrap();
    let window = SimDuration::from_secs(30);
    let config = ScrapeConfig::default();

    // Expected states: the pre-scrape empty snapshot, then the state after
    // every prefix of committed rounds (computed sequentially up front).
    let mut expected: Vec<ClusterSnapshot> = vec![ClusterSnapshot::at(at)];
    let mut reference = ScrapeManager::new(config.clone());
    for &t in &times {
        reference.scrape(&cluster, &network, t);
        let mut snap = ClusterSnapshot::default();
        reference.snapshot_into(at, window, &mut snap);
        expected.push(snap);
    }

    // One round per commit, then three: a reader sees chunk boundaries only.
    for chunk_rounds in [1usize, 3] {
        let mut manager = ConcurrentScrapeManager::with_ingest(
            config.clone(),
            IngestConfig {
                eval_workers: 3,
                queue_depth: 2,
                chunk_rounds,
                sync_work_threshold: 0,
            },
        );
        let reader = manager.reader();

        let observed_indices = std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                manager.ingest(&cluster, &network, &times);
                manager
            });
            let mut scratch = ClusterSnapshot::default();
            let mut observed = Vec::new();
            loop {
                let finished = ingest.is_finished();
                reader.snapshot_into(at, window, &mut scratch);
                let index = expected
                    .iter()
                    .position(|e| e == &scratch)
                    .unwrap_or_else(|| panic!("reader observed a torn (non-round) snapshot"));
                observed.push(index);
                if finished {
                    break;
                }
            }
            ingest.join().expect("ingest thread");
            observed
        });

        // Chunks commit whole and in schedule order, so observations sit on
        // chunk boundaries, advance monotonically and end on the
        // fully-ingested state.
        assert!(
            observed_indices
                .iter()
                .all(|&i| i % chunk_rounds == 0 || i == times.len()),
            "observed a state inside a chunk of {chunk_rounds}: {observed_indices:?}"
        );
        assert!(
            observed_indices.windows(2).all(|w| w[0] <= w[1]),
            "observed round indices must be monotone: {observed_indices:?}"
        );
        assert_eq!(*observed_indices.last().unwrap(), times.len());
    }
}

#[test]
fn pipelined_ingest_drops_and_prunes_exactly_like_sequential_scrapes() {
    // A schedule the store's ingestion rules have to work on: a repeated
    // timestamp inside a chunk (10) and across a chunk boundary (80), rounds
    // older than the store's tail (12, and 3 leading a chunk), all running
    // 140 s past a 60 s retention. The chunk apply defers pruning to one
    // pass per chunk; it must still end where per-append pruning does.
    let (cluster, network) = setup(4);
    let mut secs: Vec<u64> = vec![
        0, 5, 10, 10, 15, 20, 25, 12, 30, 35, 40, 45, 3, 50, 55, 60, 65, 70, 75, 80, 80,
    ];
    secs.extend((17..=40).map(|i| i * 5));
    let times: Vec<SimTime> = secs.into_iter().map(SimTime::from_secs).collect();
    let config = ScrapeConfig {
        interval: SimDuration::from_secs(5),
        rate_window: SimDuration::from_secs(30),
        retention: Some(SimDuration::from_secs(60)),
    };

    let mut sequential = ScrapeManager::new(config.clone());
    let sequential_epochs = sequential.published_handle();
    for &t in &times {
        sequential.scrape(&cluster, &network, t);
    }

    let mut pipelined = ConcurrentScrapeManager::with_ingest(
        config.clone(),
        IngestConfig {
            eval_workers: 2,
            queue_depth: 1,
            chunk_rounds: 4,
            sync_work_threshold: 0,
        },
    );
    let pipelined_epochs = pipelined.published_handle();
    pipelined.ingest(&cluster, &network, &times);

    assert_eq!(pipelined.scrape_count(), sequential.scrape_count());
    assert_eq!(pipelined.next_scrape_due(), sequential.next_scrape_due());
    assert_eq!(pipelined.point_count(), sequential.store().point_count());
    // Fresh state, mid-window, and an instant retention already pruned.
    for at_secs in [200u64, 150, 100] {
        let at = SimTime::from_secs(at_secs);
        let mut expected = ClusterSnapshot::default();
        sequential.snapshot_into(at, config.rate_window, &mut expected);
        assert_eq!(expected.is_empty(), at_secs == 100);
        assert_eq!(
            SnapshotSource::snapshot(&pipelined, at, config.rate_window),
            expected,
            "snapshot at t = {at_secs}s"
        );
    }
    let (last, expected) = (
        pipelined_epochs.latest().expect("the last chunk published"),
        sequential_epochs
            .latest()
            .expect("the last round published"),
    );
    assert_eq!(last.epoch, times.len().div_ceil(4) as u64);
    assert_eq!(last.snapshot.time, SimTime::from_secs(200));
    assert_eq!(
        snapshot_bits(&last.snapshot),
        snapshot_bits(&expected.snapshot)
    );
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "ordering: `done` is stored Release after ingest has published its last epoch and loaded Acquire before a reader's final poll, so that poll observes the last epoch"
)]
fn published_readers_only_observe_whole_committed_epochs() {
    let (cluster, network) = setup(3);
    let times: Vec<SimTime> = (0..80u64).map(|i| SimTime::from_secs(i * 5)).collect();
    let config = ScrapeConfig::default();
    let window = config.rate_window;

    // Every epoch the pipeline publishes is the state after some committed
    // prefix of rounds, snapshotted at that round's own timestamp. Compute
    // the reference for each prefix with the sequential scraper: published
    // epoch bytes must match exactly.
    let mut expected: Vec<SnapshotBits> = Vec::with_capacity(times.len());
    let mut reference = ScrapeManager::new(config.clone());
    for (i, &t) in times.iter().enumerate() {
        reference.scrape(&cluster, &network, t);
        let mut snap = ClusterSnapshot::default();
        reference.snapshot_into(times[i], window, &mut snap);
        expected.push(snapshot_bits(&snap));
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
    // Taken before any scrape: nothing published yet, so early polls see
    // `None` rather than a torn or empty epoch.
    let published = manager.published_handle();
    assert!(published.latest().is_none());

    let done = std::sync::atomic::AtomicBool::new(false);
    let (cluster_ref, network_ref, times_ref, done_ref) = (&cluster, &network, &times, &done);
    let final_epoch = std::thread::scope(|scope| {
        let ingest = scope.spawn(move || {
            manager.ingest(cluster_ref, network_ref, times_ref);
            done_ref.store(true, std::sync::atomic::Ordering::Release);
            manager
        });
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let published = published.clone();
                let times = &times;
                let expected = &expected;
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    let mut distinct = 0usize;
                    loop {
                        let finished = done_ref.load(std::sync::atomic::Ordering::Acquire);
                        if let Some(observed) = published.latest() {
                            assert!(
                                observed.epoch >= last_epoch,
                                "epochs seen by one handle must be monotone \
                                 ({} after {last_epoch})",
                                observed.epoch
                            );
                            if observed.epoch > last_epoch {
                                last_epoch = observed.epoch;
                                distinct += 1;
                                let round = times
                                    .iter()
                                    .position(|&t| t == observed.snapshot.time)
                                    .expect("published snapshot stamped with a round time");
                                assert_eq!(
                                    snapshot_bits(&observed.snapshot),
                                    expected[round],
                                    "epoch {} (round {round}) must be byte-identical \
                                     to the sequential snapshot of that round",
                                    observed.epoch
                                );
                            }
                        }
                        if finished {
                            break;
                        }
                    }
                    assert!(distinct >= 1, "reader never observed a committed epoch");
                    last_epoch
                })
            })
            .collect();
        let epochs: Vec<u64> = readers.into_iter().map(|r| r.join().unwrap()).collect();
        ingest.join().expect("ingest thread");
        epochs.into_iter().max().unwrap()
    });

    // The pipeline publishes the final round once the last chunk commits, so
    // every reader converges on it; this handle observes it too.
    let last = published.latest().expect("final epoch published");
    assert!(last.epoch >= final_epoch);
    assert_eq!(last.snapshot.time, SimTime::from_secs(79 * 5));
    assert_eq!(snapshot_bits(&last.snapshot), *expected.last().unwrap());
}
