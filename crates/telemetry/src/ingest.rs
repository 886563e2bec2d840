//! Concurrent telemetry ingest: one store, one lock, one writer lane.
//!
//! [`ScrapeManager`] is synchronous and single-owner: nothing can query its
//! store while it scrapes. [`ConcurrentScrapeManager`] is that same manager
//! — same store, same interned layout, same series ids, same cadence grid —
//! behind **one lock** it shares with its [`TelemetryReader`]s:
//!
//! * **The lock is the commit.** A scrape round (inline path) or a whole
//!   chunk of rounds (pipelined path) is applied under a single hold of the
//!   lock — appends, retention prune, snapshot assembly and epoch publish
//!   included. Readers take the same lock, so a history query observes only
//!   whole committed rounds/chunks, in schedule order, never a torn one.
//! * **Pipelined schedules.** [`ConcurrentScrapeManager::ingest`] evaluates
//!   the exporters *outside* the lock, a chunk of rounds at a time (they are
//!   pure functions of `(cluster, network, t)`, so rounds evaluate
//!   independently — inline on the caller's thread, or on `eval_workers`
//!   scoped lanes reassembled in schedule order), and feeds **one writer
//!   lane** through a bounded channel: chunk *n* commits while chunk *n + 1*
//!   evaluates. Chunks commit strictly in schedule order, so the stored
//!   bytes are identical to a sequential scrape no matter how the threads
//!   interleave. Every thread is scoped to the call; the manager holds none
//!   between calls.
//!
//! Why one store and one lane: the exporters emit five metric names and
//! `ping_rtt_seconds` alone is N(N−1) of the 4N + N(N−1) series of a round
//! (94 % at 64 nodes, 99.6 % at 1 000), so per-name shards and per-shard
//! writers are serial by construction. The lane itself earns its keep:
//! committing chunks on the evaluating thread instead costs +28 % per
//! published epoch on the 64-node ingest workload of `benchmark/` (ten
//! alternating pairs on the 2-core reference box, 12 178 → 15 584 µs, the
//! lane ahead in 10/10).
//!
//! Decisions read neither the lock nor the store: they take the manager's
//! [`ConcurrentScrapeManager::published_handle`] (see [`crate::publish`]).

use crate::publish::PublishedSnapshot;
use crate::scrape::{ScrapeConfig, ScrapeManager};
use crate::snapshot::{ClusterSnapshot, SnapshotSource};
use crate::store::Append;
use cluster::ClusterState;
use parking_lot::Mutex;
use simcore::{SimDuration, SimTime};
use simnet::Network;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

/// Tuning knobs of the pipelined ingest path.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Number of exporter-evaluation lanes used by
    /// [`ConcurrentScrapeManager::ingest`] (scoped per call: they borrow the
    /// cluster and network). With 1 the calling thread evaluates inline.
    pub eval_workers: usize,
    /// Bounded-queue depth between pipeline stages (in chunks): the
    /// backpressure that keeps evaluation from outrunning the writer lane.
    pub queue_depth: usize,
    /// Scrape rounds committed (and published as one epoch) per hold of the
    /// lock. Batching rounds amortizes the per-commit channel, prune and
    /// publish work; readers still only ever observe whole rounds (a chunk
    /// boundary is a round boundary).
    pub chunk_rounds: usize,
    /// Adaptive fallback: when one scrape round evaluates fewer than this
    /// many series (exporter series per round — `4 × nodes + ping pairs`),
    /// [`ConcurrentScrapeManager::ingest`] routes the schedule through the
    /// synchronous inline path instead of the pipeline. Small worlds (the
    /// 6-node paper testbed evaluates 54 series per round) sit below the
    /// cross-thread overhead floor, so the fallback makes the concurrent
    /// manager unconditionally safe to default to. Set to 0 to force the
    /// pipeline regardless of size.
    pub sync_work_threshold: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        let cores = simcore::parallel::default_workers();
        IngestConfig {
            // On a two-core box a single evaluation lane (inline on the
            // caller, overlapped with the writer lane) beats spawning
            // evaluation threads; wider machines fan evaluation out.
            eval_workers: if cores <= 2 { 1 } else { (cores - 1).min(8) },
            queue_depth: 4,
            chunk_rounds: 32,
            // Between the 6-node paper world (54 series/round, loses to
            // sequential even on wide boxes) and the 64-node world
            // (4288 series/round, where the pipeline wins ≥2× on 2 cores).
            sync_work_threshold: 1024,
        }
    }
}

/// A scrape manager whose ingest runs concurrently with readers.
///
/// A [`ScrapeManager`] behind one lock: every entry point below commits
/// under a single hold of it, and [`ConcurrentScrapeManager::ingest`]
/// pipelines whole scrape schedules (evaluation outside the lock, one writer
/// lane inside). Hand its [`ConcurrentScrapeManager::published_handle`] to
/// the scheduler and decision bursts overlap with scraping; a
/// [`TelemetryReader`] runs history queries ([`SnapshotSource`]) against the
/// store from another thread.
#[derive(Debug)]
pub struct ConcurrentScrapeManager {
    config: ScrapeConfig,
    ingest: IngestConfig,
    /// Store, layout, cadence and epoch publisher, shared with the readers.
    inner: Arc<Mutex<ScrapeManager>>,
}

impl ConcurrentScrapeManager {
    /// Create a manager with the given scrape configuration and default
    /// ingest tuning.
    pub fn new(config: ScrapeConfig) -> Self {
        Self::with_ingest(config, IngestConfig::default())
    }

    /// Create a manager with explicit ingest tuning.
    pub fn with_ingest(config: ScrapeConfig, ingest: IngestConfig) -> Self {
        ConcurrentScrapeManager {
            inner: Arc::new(Mutex::new(ScrapeManager::new(config.clone()))),
            config,
            ingest,
        }
    }

    /// The scrape configuration.
    pub fn config(&self) -> &ScrapeConfig {
        &self.config
    }

    /// Number of scrape rounds performed.
    pub fn scrape_count(&self) -> u64 {
        self.inner.lock().scrape_count()
    }

    /// When the next periodic scrape is due (immediately if never scraped).
    pub fn next_scrape_due(&self) -> SimTime {
        self.inner.lock().next_scrape_due()
    }

    /// Number of distinct series in the store.
    pub fn series_count(&self) -> usize {
        self.inner.lock().store().series_count()
    }

    /// Total number of retained points in the store.
    pub fn point_count(&self) -> usize {
        self.inner.lock().store().point_count()
    }

    /// A cheap cloneable read handle usable from other threads while this
    /// manager ingests.
    pub fn reader(&self) -> TelemetryReader {
        TelemetryReader {
            inner: Arc::clone(&self.inner),
        }
    }

    /// A cheap cloneable handle over **epoch-published immutable snapshots**
    /// (see [`crate::publish`]): one consistent [`ClusterSnapshot`] per
    /// commit — per scrape round on the inline path, per chunk of
    /// [`IngestConfig::chunk_rounds`] rounds on the pipelined one — resolved
    /// by readers with a single atomic load and an `Arc` clone, never the
    /// store's lock, so fetch latency is flat under live ingest.
    ///
    /// Publishing activates on the first call (scrape managers without a
    /// handle outstanding pay nothing); state committed before activation is
    /// published immediately, so the handle never lags the store at the
    /// moment it is taken. Snapshots are published at the commit's last
    /// scrape time with the configured rate window — byte-identical to
    /// what [`SnapshotSource::snapshot_into`] would assemble at that time.
    pub fn published_handle(&mut self) -> PublishedSnapshot {
        self.inner.lock().published_handle()
    }

    /// Perform one scrape round at `now`, re-anchoring the periodic grid
    /// ([`ScrapeManager::scrape`] under the lock).
    pub fn scrape(&mut self, cluster: &ClusterState, network: &Network, now: SimTime) {
        self.inner.lock().scrape(cluster, network, now);
    }

    /// Scrape only if the grid-aligned due time has been reached
    /// ([`ScrapeManager::scrape_if_due`] under the lock).
    pub fn scrape_if_due(
        &mut self,
        cluster: &ClusterState,
        network: &Network,
        now: SimTime,
    ) -> bool {
        self.inner.lock().scrape_if_due(cluster, network, now)
    }

    /// Run a whole scrape schedule (`times` ascending; a round at or before
    /// the store's tail is dropped by the store's ingestion rules, exactly
    /// as a sequential scrape of it would be) through the pipeline: chunks of
    /// [`IngestConfig::chunk_rounds`] rounds are evaluated outside the lock
    /// — on this thread, or on `eval_workers` scoped lanes reassembled in
    /// schedule order — and handed over a bounded channel to one writer lane
    /// that commits each chunk under a single hold of the lock (append →
    /// prune once → publish one epoch at the chunk's last scrape time), so
    /// evaluating chunk *n + 1* overlaps committing chunk *n*.
    ///
    /// Store contents afterwards are **byte-identical** to calling
    /// [`ConcurrentScrapeManager::scrape`] (or the synchronous manager) once
    /// per time: parallelism changes wall-clock, never results. Readers
    /// holding a [`TelemetryReader`] observe only whole committed chunks
    /// throughout, and the last epoch is published before this returns.
    pub fn ingest(&mut self, cluster: &ClusterState, network: &Network, times: &[SimTime]) {
        if times.is_empty() {
            return;
        }
        let layout = self.inner.lock().ensure_layout(cluster);

        // Adaptive fallback: a round on a small world evaluates so few
        // series that channel traffic dominates — scrape it round by round
        // on this thread. Store contents, committed-round visibility and
        // cadence are identical either way (the crossover is pinned
        // byte-identical by test), only the wall-clock differs.
        let series_per_round = 4 * cluster.node_count() + layout.pings.len();
        if series_per_round < self.ingest.sync_work_threshold {
            for &t in times {
                self.scrape(cluster, network, t);
            }
            return;
        }

        let chunks: Vec<&[SimTime]> = times.chunks(self.ingest.chunk_rounds.max(1)).collect();
        let eval_workers = self.ingest.eval_workers.clamp(1, chunks.len());
        let queue_depth = self.ingest.queue_depth.max(1);
        let (layout, chunks, inner) = (&*layout, &chunks[..], &*self.inner);
        let evaluate_chunk = |rounds: &[SimTime]| {
            let mut batch: Vec<Append> = Vec::with_capacity(series_per_round * rounds.len());
            for &t in rounds {
                layout.scrape_into(cluster, network, t, |id, value| batch.push((id, value, t)));
            }
            batch
        };
        let cursor = AtomicUsize::new(0);

        // A panic on any lane disconnects its channels, which ends the loops
        // below; the scope then re-raises it on this thread.
        std::thread::scope(|scope| {
            // The writer lane: chunks arrive in schedule order, each is
            // committed under one hold of the lock.
            let (commit_tx, commit_rx) = sync_channel::<Vec<Append>>(queue_depth);
            scope.spawn(move || {
                for (rounds, batch) in chunks.iter().zip(commit_rx) {
                    let at = rounds[rounds.len() - 1];
                    inner.lock().commit_chunk(&batch, rounds.len(), at);
                }
            });

            if eval_workers == 1 {
                for rounds in chunks {
                    if commit_tx.send(evaluate_chunk(rounds)).is_err() {
                        break;
                    }
                }
                return;
            }

            // Evaluation lanes pull chunk indices from a cursor and finish
            // out of order; this thread puts the chunks back in schedule
            // order before the writer lane sees them.
            let (eval_tx, eval_rx) =
                sync_channel::<(usize, Vec<Append>)>(queue_depth * eval_workers);
            for _ in 0..eval_workers {
                let (eval_tx, cursor, evaluate_chunk) = (eval_tx.clone(), &cursor, &evaluate_chunk);
                scope.spawn(move || loop {
                    // ordering: Relaxed — the counter only claims chunk
                    // indices; the channel send below synchronizes the
                    // evaluated payload.
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= chunks.len()
                        || eval_tx.send((idx, evaluate_chunk(chunks[idx]))).is_err()
                    {
                        break;
                    }
                });
            }
            drop(eval_tx);
            let mut pending: BTreeMap<usize, Vec<Append>> = BTreeMap::new();
            let mut next = 0usize;
            for (idx, batch) in eval_rx {
                pending.insert(idx, batch);
                while let Some(batch) = pending.remove(&next) {
                    if commit_tx.send(batch).is_err() {
                        return;
                    }
                    next += 1;
                }
            }
        });
    }
}

impl SnapshotSource for ConcurrentScrapeManager {
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        self.inner.lock().snapshot_into(at, rate_window, snap);
    }
}

/// A cloneable, thread-safe history-query handle over a
/// [`ConcurrentScrapeManager`]'s store. Snapshots observe only
/// fully-committed scrape rounds or chunks (a query holds the lock a commit
/// holds), even while ingest is running on another thread — at the price of
/// waiting out a commit in flight, which is why decisions read the published
/// epoch instead.
#[derive(Debug, Clone)]
pub struct TelemetryReader {
    inner: Arc<Mutex<ScrapeManager>>,
}

impl SnapshotSource for TelemetryReader {
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        self.inner.lock().snapshot_into(at, rate_window, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Node, Resources};
    use simnet::{gbps, mbps, NodeId, TopologyBuilder};

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
                NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                if i % 2 == 0 { "A" } else { "B" },
            ));
        }
        (cluster, network)
    }

    #[test]
    fn single_scrapes_match_sequential_manager() {
        let (cluster, network) = setup(3);
        let mut concurrent = ConcurrentScrapeManager::new(ScrapeConfig::default());
        let mut sequential = ScrapeManager::new(ScrapeConfig::default());
        for i in 0..6u64 {
            let t = SimTime::from_secs(i * 5);
            concurrent.scrape(&cluster, &network, t);
            sequential.scrape(&cluster, &network, t);
        }
        assert_eq!(concurrent.scrape_count(), sequential.scrape_count());
        assert_eq!(concurrent.point_count(), sequential.store().point_count());
        assert_eq!(concurrent.series_count(), sequential.store().series_count());
        let at = SimTime::from_secs(27);
        let window = SimDuration::from_secs(30);
        let mut fast = ClusterSnapshot::default();
        let mut flat = ClusterSnapshot::default();
        SnapshotSource::snapshot_into(&concurrent, at, window, &mut fast);
        sequential.snapshot_into(at, window, &mut flat);
        assert_eq!(fast, flat);
    }

    #[test]
    fn ingest_matches_round_by_round_scrapes() {
        let (cluster, network) = setup(4);
        let times: Vec<SimTime> = (0..40u64).map(|i| SimTime::from_secs(i * 5)).collect();
        let mut pipelined = ConcurrentScrapeManager::with_ingest(
            ScrapeConfig::default(),
            IngestConfig {
                eval_workers: 4,
                queue_depth: 2,
                chunk_rounds: 4,
                sync_work_threshold: 0,
            },
        );
        pipelined.ingest(&cluster, &network, &times);
        let mut one_by_one = ConcurrentScrapeManager::new(ScrapeConfig::default());
        for &t in &times {
            one_by_one.scrape(&cluster, &network, t);
        }
        assert_eq!(pipelined.scrape_count(), 40);
        assert_eq!(pipelined.point_count(), one_by_one.point_count());
        assert_eq!(pipelined.next_scrape_due(), one_by_one.next_scrape_due());
        let at = *times.last().unwrap();
        let window = SimDuration::from_secs(30);
        let a = SnapshotSource::snapshot(&pipelined, at, window);
        let b = SnapshotSource::snapshot(&one_by_one, at, window);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn cadence_matches_sequential_manager() {
        let (cluster, network) = setup(2);
        let config = ScrapeConfig {
            interval: SimDuration::from_secs(15),
            ..Default::default()
        };
        let mut concurrent = ConcurrentScrapeManager::new(config.clone());
        let mut sequential = ScrapeManager::new(config);
        for t in [0u64, 10, 18, 29, 30, 100] {
            let now = SimTime::from_secs(t);
            assert_eq!(
                concurrent.scrape_if_due(&cluster, &network, now),
                sequential.scrape_if_due(&cluster, &network, now),
                "t = {t}"
            );
            assert_eq!(concurrent.next_scrape_due(), sequential.next_scrape_due());
        }
        assert_eq!(concurrent.scrape_count(), sequential.scrape_count());
    }

    #[test]
    fn adaptive_fallback_crossover_is_byte_identical() {
        // 3 nodes → 4·3 + 6 ping pairs = 18 series per round: far below the
        // default threshold, so `ingest` takes the synchronous path; with
        // the threshold forced to 0 the same schedule runs through the
        // pipeline. Snapshots either side of the crossover — and against
        // round-by-round scrapes — must be byte-identical. The epoch count
        // tells the paths apart: one per round inline, one per chunk
        // pipelined (30 rounds fit one default chunk of 32).
        let (cluster, network) = setup(3);
        let times: Vec<SimTime> = (0..30u64).map(|i| SimTime::from_secs(i * 5)).collect();

        let mut adaptive = ConcurrentScrapeManager::new(ScrapeConfig::default());
        assert!(IngestConfig::default().sync_work_threshold > 18);
        let adaptive_epochs = adaptive.published_handle();
        adaptive.ingest(&cluster, &network, &times);
        assert_eq!(adaptive_epochs.epoch(), 30, "one epoch per inline round");

        let mut pipelined = ConcurrentScrapeManager::with_ingest(
            ScrapeConfig::default(),
            IngestConfig {
                sync_work_threshold: 0,
                ..IngestConfig::default()
            },
        );
        let pipelined_epochs = pipelined.published_handle();
        pipelined.ingest(&cluster, &network, &times);
        assert_eq!(
            pipelined_epochs.epoch(),
            1,
            "threshold 0 forces the pipeline"
        );
        assert_eq!(
            adaptive_epochs.latest().unwrap().snapshot,
            pipelined_epochs.latest().unwrap().snapshot
        );

        let mut round_by_round = ConcurrentScrapeManager::new(ScrapeConfig::default());
        for &t in &times {
            round_by_round.scrape(&cluster, &network, t);
        }

        assert_eq!(adaptive.scrape_count(), 30);
        assert_eq!(adaptive.point_count(), pipelined.point_count());
        assert_eq!(adaptive.next_scrape_due(), pipelined.next_scrape_due());
        let at = *times.last().unwrap();
        let window = SimDuration::from_secs(30);
        let sync_snap = SnapshotSource::snapshot(&adaptive, at, window);
        let pipe_snap = SnapshotSource::snapshot(&pipelined, at, window);
        let seq_snap = SnapshotSource::snapshot(&round_by_round, at, window);
        assert_eq!(sync_snap, pipe_snap);
        assert_eq!(sync_snap, seq_snap);
        assert!(!sync_snap.is_empty());
        // The serialized bytes agree too (byte-identical, not just
        // observationally equal).
        assert_eq!(
            serde_json::to_string(&sync_snap).unwrap(),
            serde_json::to_string(&pipe_snap).unwrap()
        );
    }

    #[test]
    fn reader_before_first_scrape_sees_empty_snapshot() {
        let manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
        let reader = manager.reader();
        let snap = reader.snapshot(SimTime::from_secs(3), SimDuration::from_secs(30));
        assert!(snap.is_empty());
        assert_eq!(snap.time, SimTime::from_secs(3));
    }

    #[test]
    fn layout_rebuild_on_cluster_growth() {
        let (cluster, network) = setup(2);
        let mut manager = ConcurrentScrapeManager::new(ScrapeConfig::default());
        manager.scrape(&cluster, &network, SimTime::from_secs(5));
        let series_before = manager.series_count();

        let (grown, grown_network) = setup(3);
        manager.scrape(&grown, &grown_network, SimTime::from_secs(10));
        assert!(manager.series_count() > series_before);
        let snap =
            SnapshotSource::snapshot(&manager, SimTime::from_secs(12), SimDuration::from_secs(30));
        assert_eq!(snap.node_names().len(), 3);
        // The store still answers for the original series too.
        assert!(snap.node("node-1").is_some());
    }
}
