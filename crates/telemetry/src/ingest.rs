//! Sharded, concurrent telemetry ingest.
//!
//! [`crate::ScrapeManager`] is synchronous and single-owner: scraping
//! serializes with decision bursts, which is exactly the scale gap on
//! clusters beyond a few hundred nodes. [`ConcurrentScrapeManager`] removes
//! it by combining the metric-name sharding of [`crate::shards`] with a
//! writer/epoch pipeline:
//!
//! * **Shards.** The store is split by metric name behind per-shard locks
//!   ([`crate::ShardRouter`]), so appends and retention pruning of different
//!   metric names never contend.
//! * **Writer pipeline.** [`ConcurrentScrapeManager::ingest`] runs a scrape
//!   schedule through a two-stage pipeline over `crossbeam` scoped threads
//!   and bounded channels: *evaluation workers* run the exporters for whole
//!   scrape rounds in parallel (the exporters are pure functions of
//!   `(cluster, network, t)`, so rounds evaluate independently), and
//!   *per-shard writer workers* drain bounded queues of evaluated batches
//!   into their shard. A dispatcher commits batches strictly in schedule
//!   order, so the stored bytes are identical to a sequential scrape no
//!   matter how the threads interleave.
//! * **Epoch counter.** Commits are bracketed by a seqlock-style generation
//!   counter (odd = round in flight). Readers ([`TelemetryReader`],
//!   obtainable while ingest runs on another thread) retry until they observe
//!   the same even epoch before and after assembly — a snapshot therefore
//!   reflects only fully-committed scrape rounds, never a torn one.
//!
//! The synchronous [`crate::ScrapeManager`] remains the single-owner wrapper
//! (same cadence grid, flat store) for callers that don't need overlap.

use crate::exporters::ExporterLayout;
use crate::publish::{PublishedSnapshot, SnapshotPublisher};
use crate::scrape::{ScrapeCadence, ScrapeConfig};
use crate::shards::{ShardRouter, ShardedSeriesId};
use crate::snapshot::{ClusterSnapshot, SnapshotSource};
use crate::store::{SeriesId, TimeSeriesStore};
use cluster::ClusterState;
use crossbeam::channel;
use parking_lot::{Mutex, MutexGuard};
use simcore::{SimDuration, SimTime};
use simnet::Network;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The exporter layout with sharded series identities.
type ShardedLayout = ExporterLayout<ShardedSeriesId>;

/// One evaluated append: shard-local series, value, timestamp.
type Append = (SeriesId, f64, SimTime);

/// Tuning knobs of the concurrent ingest pipeline.
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Number of store shards (metric names are routed across these).
    pub shard_count: usize,
    /// Number of exporter-evaluation workers used by
    /// [`ConcurrentScrapeManager::ingest`] (scoped per call: they borrow the
    /// cluster and network).
    pub eval_workers: usize,
    /// Number of long-lived writer workers draining append batches into the
    /// shards (each worker owns a fixed subset of shards).
    pub writer_workers: usize,
    /// Bounded-queue depth between pipeline stages (in chunks): the
    /// backpressure that keeps evaluation from outrunning the writers.
    pub queue_depth: usize,
    /// Scrape rounds committed per epoch flip. Batching rounds amortizes the
    /// per-commit channel and epoch traffic; readers still only ever observe
    /// whole rounds (a chunk boundary is a round boundary).
    pub chunk_rounds: usize,
    /// Adaptive fallback: when one scrape round evaluates fewer than this
    /// many series (exporter series per round — `4 × nodes + ping pairs`),
    /// [`ConcurrentScrapeManager::ingest`] routes the schedule through the
    /// synchronous inline path instead of the worker pipeline. Small worlds
    /// (the 8-node paper testbed evaluates 88 series per round) sit below
    /// the cross-thread overhead floor, so the fallback makes the concurrent
    /// manager unconditionally safe to default to. Set to 0 to force the
    /// pipeline regardless of size.
    pub sync_work_threshold: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        let cores = simcore::parallel::default_workers();
        IngestConfig {
            shard_count: 8,
            // On a two-core box a single evaluation lane (inline on the
            // dispatcher, overlapped with the writer) beats spawning
            // evaluation threads; wider machines fan evaluation out.
            eval_workers: if cores <= 2 { 1 } else { (cores - 1).min(8) },
            writer_workers: (cores / 2).clamp(1, 8),
            queue_depth: 4,
            chunk_rounds: 32,
            // Between the 8-node paper world (88 series/round, loses to
            // sequential even on wide boxes) and the 64-node world
            // (4288 series/round, where the pipeline wins ≥2× on 2 cores).
            sync_work_threshold: 1024,
        }
    }
}

/// State shared between the ingest side and every [`TelemetryReader`].
#[derive(Debug)]
struct IngestShared {
    /// Seqlock-style commit counter: odd while a round (or chunk of rounds)
    /// is being applied to the shards, even when fully committed.
    epoch: AtomicU64,
    router: ShardRouter,
    /// One flat store per shard, each behind its own lock.
    shards: Vec<Mutex<TimeSeriesStore>>,
    /// The current exporter layout (swapped atomically on cluster changes;
    /// readers clone the `Arc` and never see a half-built layout).
    layout: Mutex<Option<Arc<ShardedLayout>>>,
}

impl IngestShared {
    fn new(config: &ScrapeConfig, ingest: &IngestConfig) -> Self {
        let router = ShardRouter::new(ingest.shard_count);
        let shards = (0..router.shard_count())
            .map(|_| match config.retention {
                Some(r) => Mutex::new(TimeSeriesStore::with_retention(r)),
                None => Mutex::new(TimeSeriesStore::new()),
            })
            .collect();
        IngestShared {
            epoch: AtomicU64::new(0),
            router,
            shards,
            layout: Mutex::new(None),
        }
    }

    /// Mark a commit as in flight (epoch becomes odd).
    fn begin_commit(&self) {
        // ordering: AcqRel — the Release half orders the odd flip before any
        // shard mutation; the Acquire half pairs with `end_commit`.
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Mark the in-flight commit as complete (epoch becomes even).
    fn end_commit(&self) {
        // ordering: AcqRel — the Release half publishes every shard write of
        // this commit before the even flip readers wait for.
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Assemble a consistent snapshot: retry until the same even epoch is
    /// observed before and after reading the shards, so only fully-committed
    /// rounds are ever visible.
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        let mut waits = 0u32;
        loop {
            // ordering: Acquire pairs with the AcqRel epoch flips so an even
            // value here means the prior commit's shard writes are visible.
            let before = self.epoch.load(Ordering::Acquire);
            if before & 1 == 1 {
                // Apply phases last microseconds: spin first, fall back to
                // yielding only when the wait drags on (e.g. an oversubscribed
                // box where the writers lost the CPU mid-apply).
                waits += 1;
                if waits > 512 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            let layout = self.layout.lock().clone();
            match layout {
                None => {
                    // No scrape yet: an empty snapshot stamped with `at`,
                    // matching the synchronous manager's pre-scrape fallback.
                    snap.clear();
                    snap.time = at;
                }
                Some(layout) => {
                    // Lock every shard in index order (writers only ever hold
                    // one shard lock at a time, so this cannot deadlock) and
                    // assemble exactly what the sequential interned path
                    // would.
                    let guards: Vec<MutexGuard<'_, TimeSeriesStore>> =
                        self.shards.iter().map(Mutex::lock).collect();
                    assemble_sharded(&layout, &guards, at, rate_window, snap);
                }
            }
            // ordering: Acquire — an unchanged even epoch proves no commit
            // overlapped the reads above, so the assembled snapshot is
            // consistent.
            let after = self.epoch.load(Ordering::Acquire);
            if before == after {
                return;
            }
        }
    }
}

/// [`ExporterLayout::snapshot_into`]'s shared assembly body over locked
/// shard guards: the loops (and therefore the float operations) are the
/// flat sequential path's own, so the assembled snapshot is byte-identical
/// given identical stored points.
fn assemble_sharded(
    layout: &ShardedLayout,
    shards: &[MutexGuard<'_, TimeSeriesStore>],
    at: SimTime,
    rate_window: SimDuration,
    snap: &mut ClusterSnapshot,
) {
    layout.assemble_with(
        at,
        snap,
        |id, at| shards[id.shard as usize].instant_id(id.series, at),
        |id, at| shards[id.shard as usize].rate_id(id.series, at, rate_window),
    );
}

/// Evaluate one scrape round (every exporter series at `now`) into per-shard
/// append batches, appending onto `batches`. Pure with respect to the shards:
/// exporters only read `(cluster, network, now)`, which is what lets rounds
/// evaluate concurrently.
fn evaluate_round_into(
    layout: &ShardedLayout,
    cluster: &ClusterState,
    network: &Network,
    now: SimTime,
    batches: &mut [Vec<Append>],
) {
    for (i, node) in cluster.nodes().iter().enumerate() {
        let counters = network.counters(layout.net_ids[i]);
        let push = |batches: &mut [Vec<Append>], id: ShardedSeriesId, value: f64| {
            batches[id.shard as usize].push((id.series, value, now));
        };
        push(batches, layout.load1[i], node.cpu_load());
        push(batches, layout.mem[i], node.memory_available());
        push(batches, layout.tx[i], counters.tx_bytes);
        push(batches, layout.rx[i], counters.rx_bytes);
    }
    for &(a, b, id) in &layout.pings {
        let (src, dst) = (layout.net_ids[a as usize], layout.net_ids[b as usize]);
        let seed = crate::exporters::pair_seed(src.0 as u64, dst.0 as u64, now);
        let rtt = network.current_rtt(src, dst, seed);
        batches[id.shard as usize].push((id.series, rtt.as_secs_f64(), now));
    }
}

/// Per-chunk commit coordination between the writer workers of one chunk:
/// the *lead* writer flips the epoch odd before any shard is touched, the
/// last writer to finish flips it even. Readers therefore see the epoch odd
/// exactly for the duration of the apply phase — never while the dispatcher
/// is evaluating the next chunk.
#[derive(Debug)]
struct ChunkToken {
    /// Set by the lead writer once the epoch has been flipped odd; the other
    /// writers of the chunk spin (nanoseconds) until it is.
    begin_done: std::sync::atomic::AtomicBool,
    /// Writers still to finish their part of the chunk.
    pending: AtomicUsize,
}

/// One dispatch to a writer worker: the chunk's commit token, whether this
/// worker leads the commit, and the `(shard, appends)` batches for the
/// shards it owns.
struct WriterMsg {
    token: Arc<ChunkToken>,
    lead: bool,
    groups: Vec<(usize, Vec<Append>)>,
}

impl std::fmt::Debug for WriterMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WriterMsg { .. }")
    }
}

/// The long-lived writer workers: spawned once (lazily, on the first
/// [`ConcurrentScrapeManager::ingest`]) and kept across calls, because
/// thread spawn costs dwarf a scrape round. Each worker owns a fixed subset
/// of shards (`assignment[shard] → worker`), drains its bounded queue and
/// acks every applied batch.
#[derive(Debug)]
struct WriterPool {
    txs: Vec<channel::Sender<WriterMsg>>,
    ack_rx: channel::Receiver<()>,
    /// Shard index → owning writer index.
    assignment: Vec<usize>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WriterPool {
    fn spawn(shared: &Arc<IngestShared>, writer_workers: usize, queue_depth: usize) -> Self {
        let shard_count = shared.shards.len();
        let workers = writer_workers.clamp(1, shard_count);
        let assignment: Vec<usize> = (0..shard_count).map(|shard| shard % workers).collect();
        let (ack_tx, ack_rx) = channel::bounded::<()>(workers.max(1));
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::bounded::<WriterMsg>(queue_depth.max(1));
            txs.push(tx);
            let ack_tx = ack_tx.clone();
            let shared = Arc::clone(shared);
            handles.push(std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    if msg.lead {
                        shared.begin_commit();
                        // ordering: Release orders the odd epoch flip above
                        // before the flag the follower writers wait on.
                        msg.token.begin_done.store(true, Ordering::Release);
                    } else {
                        // The lead writer of this chunk flips the epoch odd
                        // before anyone touches a shard; wait for it. The
                        // window is nanoseconds unless the lead lost the CPU,
                        // so fall back to yielding rather than burning the
                        // core the lead needs.
                        let mut spins = 0u32;
                        // ordering: Acquire pairs with the lead's Release
                        // store, so the epoch is odd before we touch a shard.
                        while !msg.token.begin_done.load(Ordering::Acquire) {
                            spins += 1;
                            if spins > 512 {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                    }
                    for (shard, appends) in msg.groups {
                        let mut store = shared.shards[shard].lock();
                        for (id, value, t) in appends {
                            store.append_value_deferred_prune(id, value, t);
                        }
                        // One prune per shard per chunk instead of one per
                        // append: the monotone cutoff makes the final live
                        // window identical, and nothing observes the
                        // intermediate states of an uncommitted chunk.
                        store.prune_all_to_watermark();
                    }
                    // ordering: AcqRel — Release publishes this writer's shard
                    // appends; Acquire on the final decrement makes every
                    // peer's appends visible before `end_commit` flips even.
                    if msg.token.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                        shared.end_commit();
                    }
                    if ack_tx.send(()).is_err() {
                        break;
                    }
                }
            }));
        }
        WriterPool {
            txs,
            ack_rx,
            assignment,
            handles,
        }
    }

    /// Dispatch one chunk's batches to the owning writers (the first one
    /// leads the commit), returning how many acks to collect. The commit
    /// itself — epoch flips included — is performed by the writers, so the
    /// caller is free to evaluate the next chunk while this one applies.
    fn dispatch(&self, batches: Vec<Vec<Append>>) -> usize {
        let mut msgs: Vec<Vec<(usize, Vec<Append>)>> =
            (0..self.txs.len()).map(|_| Vec::new()).collect();
        for (shard, appends) in batches.into_iter().enumerate() {
            if !appends.is_empty() {
                msgs[self.assignment[shard]].push((shard, appends));
            }
        }
        let dispatched = msgs.iter().filter(|m| !m.is_empty()).count();
        if dispatched == 0 {
            return 0;
        }
        let token = Arc::new(ChunkToken {
            begin_done: std::sync::atomic::AtomicBool::new(false),
            pending: AtomicUsize::new(dispatched),
        });
        let mut lead = true;
        for (writer, groups) in msgs.into_iter().enumerate() {
            if groups.is_empty() {
                continue;
            }
            self.txs[writer]
                .send(WriterMsg {
                    token: Arc::clone(&token),
                    lead,
                    groups,
                })
                .expect("writer workers alive");
            lead = false;
        }
        dispatched
    }
}

/// A sharded scrape manager whose ingest runs concurrently with readers.
///
/// Same cadence grid and exporter set as [`crate::ScrapeManager`]; the store
/// is sharded by metric name behind per-shard locks, single rounds commit
/// through the epoch protocol, and [`ConcurrentScrapeManager::ingest`]
/// pipelines whole scrape schedules across worker threads. Hand its
/// [`ConcurrentScrapeManager::published_handle`] to the scheduler and
/// decision bursts overlap with scraping; a [`TelemetryReader`] runs history
/// queries ([`SnapshotSource`]) against the shards from another thread.
#[derive(Debug)]
pub struct ConcurrentScrapeManager {
    config: ScrapeConfig,
    ingest: IngestConfig,
    shared: Arc<IngestShared>,
    layout: Option<Arc<ShardedLayout>>,
    writers: Option<WriterPool>,
    cadence: ScrapeCadence,
    scrape_count: u64,
    /// Epoch publisher, activated lazily by
    /// [`ConcurrentScrapeManager::published_handle`]: once a handle has been handed
    /// out, every committed round (or pipelined chunk) also publishes an
    /// immutable snapshot, so published readers never touch the shards.
    publisher: Option<SnapshotPublisher>,
    /// Timestamp of the last committed scrape round (publish-on-activation:
    /// a handle requested after scrapes immediately observes current state).
    last_scrape: Option<SimTime>,
}

impl Drop for ConcurrentScrapeManager {
    fn drop(&mut self) {
        if let Some(pool) = self.writers.take() {
            // Disconnect the queues so the workers observe shutdown, then
            // join them (they only hold `Arc`s, but a clean join keeps the
            // thread count honest in tests and benches).
            drop(pool.txs);
            drop(pool.ack_rx);
            for handle in pool.handles {
                let _ = handle.join();
            }
        }
    }
}

impl ConcurrentScrapeManager {
    /// Create a manager with the given scrape configuration and default
    /// ingest tuning.
    pub fn new(config: ScrapeConfig) -> Self {
        Self::with_ingest(config, IngestConfig::default())
    }

    /// Create a manager with explicit ingest tuning.
    pub fn with_ingest(config: ScrapeConfig, ingest: IngestConfig) -> Self {
        let shared = Arc::new(IngestShared::new(&config, &ingest));
        ConcurrentScrapeManager {
            config,
            ingest,
            shared,
            layout: None,
            writers: None,
            cadence: ScrapeCadence::default(),
            scrape_count: 0,
            publisher: None,
            last_scrape: None,
        }
    }

    /// The scrape configuration.
    pub fn config(&self) -> &ScrapeConfig {
        &self.config
    }

    /// The ingest tuning.
    pub fn ingest_config(&self) -> &IngestConfig {
        &self.ingest
    }

    /// Number of scrape rounds performed.
    pub fn scrape_count(&self) -> u64 {
        self.scrape_count
    }

    /// When the next periodic scrape is due (immediately if never scraped).
    pub fn next_scrape_due(&self) -> SimTime {
        self.cadence.next_due()
    }

    /// Number of distinct series across all shards.
    pub fn series_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.lock().series_count())
            .sum()
    }

    /// Total number of retained points across all shards.
    pub fn point_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| s.lock().point_count())
            .sum()
    }

    /// A cheap cloneable read handle usable from other threads while this
    /// manager ingests.
    pub fn reader(&self) -> TelemetryReader {
        TelemetryReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A cheap cloneable handle over **epoch-published immutable snapshots**
    /// (see [`crate::publish`]): one consistent [`ClusterSnapshot`] per
    /// committed round, resolved by readers with a single atomic load and an
    /// `Arc` clone — no shard locks, no waiting out in-flight commits, so
    /// fetch latency is flat under live ingest.
    ///
    /// Publishing activates on the first call (scrape managers without a
    /// handle outstanding pay nothing); state committed before activation is
    /// published immediately, so the handle never lags the store at the
    /// moment it is taken. Snapshots are published at each committed round's
    /// own scrape time with the configured rate window — byte-identical to
    /// what [`SnapshotSource::snapshot_into`] would assemble at that time.
    pub fn published_handle(&mut self) -> PublishedSnapshot {
        if self.publisher.is_none() {
            self.publisher = Some(SnapshotPublisher::new());
            if let Some(at) = self.last_scrape {
                self.publish(at);
            }
        }
        self.publisher.as_ref().expect("publisher active").handle()
    }

    /// Record a committed round at `at` and, when publishing is active,
    /// materialize + publish the next epoch's snapshot (copy-on-write over
    /// the buffer of four epochs ago; in steady state only the values that
    /// scrape changed are rewritten, via the layout-generation fast path).
    /// Callers invoke it between commits — the epoch is even and no writer
    /// holds a shard — so assembly never contends with appends.
    fn publish(&mut self, at: SimTime) {
        self.last_scrape = Some(at);
        if let Some(publisher) = &mut self.publisher {
            let (shared, rate_window) = (&self.shared, self.config.rate_window);
            publisher.publish_with(|snap| shared.snapshot_into(at, rate_window, snap));
        }
    }

    /// Build (or rebuild) the sharded exporter layout when the cluster's node
    /// table changed, swapping it in atomically for readers.
    fn ensure_layout(&mut self, cluster: &ClusterState) -> Arc<ShardedLayout> {
        let rebuild = match &self.layout {
            Some(layout) => !layout.matches(cluster),
            None => true,
        };
        if rebuild {
            let shared = &self.shared;
            let layout = Arc::new(ExporterLayout::build_with(cluster, |key, kind| {
                let shard = shared.router.shard_of(&key.name);
                ShardedSeriesId {
                    shard: shard as u16,
                    series: shared.shards[shard].lock().intern(key, kind),
                }
            }));
            *self.shared.layout.lock() = Some(Arc::clone(&layout));
            self.layout = Some(layout);
        }
        self.layout.as_ref().expect("layout built above").clone()
    }

    /// One synchronous scrape round on the caller thread: evaluate every
    /// exporter series at `now` into `batches`, apply them shard by shard
    /// under the epoch protocol, publish. Each batch is drained in place so
    /// the caller can reuse the buffers (and their capacity) across rounds.
    fn round_inline(
        &mut self,
        layout: &ShardedLayout,
        cluster: &ClusterState,
        network: &Network,
        now: SimTime,
        batches: &mut [Vec<Append>],
    ) {
        evaluate_round_into(layout, cluster, network, now, batches);
        self.shared.begin_commit();
        for (shard, appends) in batches.iter_mut().enumerate() {
            if appends.is_empty() {
                continue;
            }
            let mut store = self.shared.shards[shard].lock();
            for (id, value, t) in appends.drain(..) {
                store.append_value(id, value, t);
            }
        }
        self.shared.end_commit();
        self.publish(now);
        self.scrape_count += 1;
    }

    /// Perform one scrape round at `now`, re-anchoring the periodic grid
    /// (the synchronous entry point, mirroring [`crate::ScrapeManager::scrape`]).
    pub fn scrape(&mut self, cluster: &ClusterState, network: &Network, now: SimTime) {
        let layout = self.ensure_layout(cluster);
        let mut batches = vec![Vec::new(); self.shared.router.shard_count()];
        self.round_inline(&layout, cluster, network, now, &mut batches);
        self.cadence.reanchor(now, self.config.interval);
    }

    /// Scrape only if the grid-aligned due time has been reached (same
    /// cadence semantics as [`crate::ScrapeManager::scrape_if_due`]).
    pub fn scrape_if_due(
        &mut self,
        cluster: &ClusterState,
        network: &Network,
        now: SimTime,
    ) -> bool {
        if !self.cadence.is_due(now) {
            return false;
        }
        let layout = self.ensure_layout(cluster);
        let mut batches = vec![Vec::new(); self.shared.router.shard_count()];
        self.round_inline(&layout, cluster, network, now, &mut batches);
        self.cadence.advance_on_grid(now, self.config.interval);
        true
    }

    /// Run a whole scrape schedule (`times` must be sorted ascending) through
    /// the concurrent pipeline: exporter evaluation for chunks of rounds runs
    /// in parallel (on scoped workers, or inline on the dispatcher when
    /// `eval_workers <= 1`), long-lived per-shard writer workers drain
    /// bounded queues into their shards, and chunks commit strictly in
    /// schedule order under the epoch protocol. The dispatcher always
    /// evaluates/fetches the *next* chunk before waiting for the previous
    /// chunk's acks, so evaluation and shard appends overlap even with a
    /// single evaluation lane.
    ///
    /// Store contents afterwards are **byte-identical** to calling
    /// [`ConcurrentScrapeManager::scrape`] (or the synchronous manager) once
    /// per time: parallelism changes wall-clock, never results. Readers
    /// holding a [`TelemetryReader`] observe only whole committed rounds
    /// throughout.
    pub fn ingest(&mut self, cluster: &ClusterState, network: &Network, times: &[SimTime]) {
        if times.is_empty() {
            return;
        }
        let layout = self.ensure_layout(cluster);

        // Adaptive fallback: a round on a small world evaluates so few
        // series that channel and epoch traffic dominates — route it through
        // the synchronous inline path. Store contents, committed-round
        // visibility and cadence are identical either way (the crossover is
        // pinned byte-identical by test), only the wall-clock differs.
        let series_per_round = 4 * cluster.node_count() + layout.pings.len();
        if series_per_round < self.ingest.sync_work_threshold {
            // One set of per-shard batch buffers reused (with capacity)
            // across every round: the fallback path stays allocation-free in
            // steady state.
            let mut batches = vec![Vec::new(); self.shared.router.shard_count()];
            for &t in times {
                self.round_inline(&layout, cluster, network, t, &mut batches);
            }
            self.cadence
                .reanchor(*times.last().expect("non-empty"), self.config.interval);
            return;
        }

        // The pool is held by value for the duration of the call so the
        // dispatcher below can borrow `self` to publish.
        let pool = self.writers.take().unwrap_or_else(|| {
            WriterPool::spawn(
                &self.shared,
                self.ingest.writer_workers,
                self.ingest.queue_depth,
            )
        });
        let shard_count = self.shared.router.shard_count();
        let chunk_rounds = self.ingest.chunk_rounds.max(1);
        let chunks: Vec<&[SimTime]> = times.chunks(chunk_rounds).collect();
        let eval_workers = self.ingest.eval_workers.clamp(1, chunks.len());
        let queue_depth = self.ingest.queue_depth.max(1);
        let layout = &layout;
        let cursor = AtomicUsize::new(0);
        // Exact per-shard series counts, so chunk batches are allocated at
        // final size instead of growing through reallocation.
        let mut series_per_shard = vec![0usize; shard_count];
        for ids in [&layout.load1, &layout.mem, &layout.tx, &layout.rx] {
            for id in ids.iter() {
                series_per_shard[id.shard as usize] += 1;
            }
        }
        for &(_, _, id) in &layout.pings {
            series_per_shard[id.shard as usize] += 1;
        }
        let series_per_shard = &series_per_shard;

        let evaluate_chunk = move |rounds: &[SimTime]| {
            let mut batches: Vec<Vec<Append>> = series_per_shard
                .iter()
                .map(|&series| Vec::with_capacity(series * rounds.len()))
                .collect();
            for &t in rounds {
                evaluate_round_into(layout, cluster, network, t, &mut batches);
            }
            batches
        };

        crossbeam::thread::scope(|scope| {
            // Optional stage 1: scoped evaluation workers pull chunk indices
            // from a cursor and evaluate whole rounds out of order (scoped
            // per call because they borrow the cluster and network). With a
            // single evaluation lane the dispatcher evaluates inline instead
            // and no thread is spawned at all.
            let eval_rx = if eval_workers > 1 {
                let (eval_tx, eval_rx) =
                    channel::bounded::<(usize, Vec<Vec<Append>>)>(queue_depth * eval_workers);
                let cursor = &cursor;
                let chunks_ref = &chunks;
                for _ in 0..eval_workers {
                    let eval_tx = eval_tx.clone();
                    scope.spawn(move |_| loop {
                        // ordering: Relaxed — the counter only claims chunk
                        // indices; the channel send below synchronizes the
                        // evaluated payload.
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= chunks_ref.len() {
                            break;
                        }
                        if eval_tx
                            .send((idx, evaluate_chunk(chunks_ref[idx])))
                            .is_err()
                        {
                            break;
                        }
                    });
                }
                Some(eval_rx)
            } else {
                None
            };

            // Dispatcher (this thread): obtain chunks in schedule order,
            // collect the previous chunk's acks only *after* the next chunk
            // is in hand, and hand commits to the writer pool. The epoch is
            // odd exactly while writers apply, so concurrent readers only
            // ever wait out an apply phase, never an evaluation.
            let mut pending: BTreeMap<usize, Vec<Vec<Append>>> = BTreeMap::new();
            let mut inflight = 0usize;
            for (next, chunk) in chunks.iter().enumerate() {
                let batches = match &eval_rx {
                    None => evaluate_chunk(chunk),
                    Some(eval_rx) => loop {
                        if let Some(batches) = pending.remove(&next) {
                            break batches;
                        }
                        let (idx, batches) = eval_rx.recv().expect("evaluation workers alive");
                        if idx == next {
                            break batches;
                        }
                        pending.insert(idx, batches);
                    },
                };
                for _ in 0..inflight {
                    pool.ack_rx.recv().expect("writer workers alive");
                }
                // Publishing happens here, between chunks: the previous
                // chunk's acks are in, so the epoch is even and the writers
                // are idle. A chunk boundary is a round boundary, so every
                // published epoch is a whole committed prefix of the schedule.
                if next > 0 {
                    self.publish(*chunks[next - 1].last().expect("chunks are non-empty"));
                }
                inflight = pool.dispatch(batches);
            }
            for _ in 0..inflight {
                pool.ack_rx.recv().expect("writer workers alive");
            }
            self.publish(*times.last().expect("non-empty"));
        })
        .expect("ingest workers must not panic");

        self.writers = Some(pool);
        self.scrape_count += times.len() as u64;
        self.cadence
            .reanchor(*times.last().expect("non-empty"), self.config.interval);
    }
}

impl SnapshotSource for ConcurrentScrapeManager {
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        self.shared.snapshot_into(at, rate_window, snap);
    }
}

/// A cloneable, thread-safe history-query handle over a
/// [`ConcurrentScrapeManager`]'s shards. Snapshots observe only
/// fully-committed scrape rounds (epoch protocol), even while ingest is
/// running on another thread — at the price of locking every shard per
/// query, which is why decisions read the published epoch instead.
#[derive(Debug, Clone)]
pub struct TelemetryReader {
    shared: Arc<IngestShared>,
}

impl SnapshotSource for TelemetryReader {
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        self.shared.snapshot_into(at, rate_window, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScrapeManager;
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
                shard_count: 3,
                eval_workers: 4,
                writer_workers: 2,
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
        // worker pipeline. Snapshots either side of the crossover — and
        // against round-by-round scrapes — must be byte-identical.
        let (cluster, network) = setup(3);
        let times: Vec<SimTime> = (0..30u64).map(|i| SimTime::from_secs(i * 5)).collect();

        let mut adaptive = ConcurrentScrapeManager::new(ScrapeConfig::default());
        assert!(adaptive.ingest_config().sync_work_threshold > 18);
        adaptive.ingest(&cluster, &network, &times);
        assert!(
            adaptive.writers.is_none(),
            "below the work threshold no writer pool may be spawned"
        );

        let mut pipelined = ConcurrentScrapeManager::with_ingest(
            ScrapeConfig::default(),
            IngestConfig {
                sync_work_threshold: 0,
                ..IngestConfig::default()
            },
        );
        pipelined.ingest(&cluster, &network, &times);
        assert!(
            pipelined.writers.is_some(),
            "threshold 0 forces the pipeline"
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
