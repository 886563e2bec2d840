//! The telemetry snapshot consumed by the scheduler.
//!
//! The paper's Telemetry Fetcher *"queries the Prometheus metrics server at
//! scheduling time to retrieve the most recent telemetry snapshot. It fetches
//! inter-node RTTs from the ping mesh, as well as per-node metrics such as CPU
//! and memory load."* [`ClusterSnapshot::from_store`] performs exactly that
//! query against the [`TimeSeriesStore`], deriving tx/rx *rates* from the
//! cumulative byte counters over the configured rate window.
//!
//! Decisions do not run that query themselves. The scrape managers run it
//! once per commit, with their own `ScrapeConfig::rate_window`, and
//! *publish* the result ([`crate::publish`]); the serving path adopts the
//! published epoch. [`SnapshotSource`] is the **history query** — any
//! instant, any window — kept for retrospective reads and as the reference
//! the published epochs are tested byte-identical against.
//!
//! Snapshots are **id-indexed**: node telemetry lives in a dense table and the
//! RTT mesh ([`RttMesh`]) holds one row per source [`NodeId`], mirroring the
//! cluster's node interning. Names are resolved only at the edges (reports,
//! figures, tests); the scrape→store→snapshot→features path never round-trips
//! through `String`. A snapshot produced by the scrape manager's interned
//! layout uses the cluster's own `NodeId` assignment; hand-built snapshots
//! intern names in insertion order.
//!
//! # Sealing and revisions
//!
//! The Table-1 RTT statistics `(mean, max, std)` of a source row are a pure
//! function of that row's mesh entries, summed in ascending target-id order,
//! so the single writer computes them **once, at publish time**:
//! [`ClusterSnapshot::seal`] (called by
//! [`crate::SnapshotPublisher::publish_with`] after its `fill`) summarises
//! every row not yet sealed and stamps the snapshot with a process-unique
//! non-zero [`ClusterSnapshot::revision`]. The contract:
//!
//! * every mutating accessor clears the revision (0 = "unsealed or mutated
//!   since"); an RTT write also drops every sealed row, a node-telemetry
//!   write none — so an epoch that rewrote only node telemetry seals in O(1);
//! * `Clone`/`clone_from` copy the sealed rows and the revision — a clone has
//!   the same contents, so it may share the stamp;
//! * the public [`ClusterSnapshot::time`] field is *not* covered: the
//!   revision identifies the node table, telemetry and mesh, which is all
//!   [`ClusterSnapshot::index_into`] reads.
//!
//! Readers get two things from it. [`ClusterSnapshot::index_into`] copies
//! sealed rows and accumulates only the rest — through the same accumulation
//! routine, so the result is bit-identical to indexing an unsealed copy. And
//! a consumer that remembers the revision it last indexed can skip
//! re-indexing altogether when it is handed the same revision again; buffer
//! *addresses* cannot serve as that key, because the publisher's slot ring
//! recycles them.

use crate::metrics::SeriesKey;
use crate::store::TimeSeriesStore;
use crate::{
    METRIC_NODE_LOAD1, METRIC_NODE_MEM_AVAILABLE, METRIC_NODE_RX_BYTES, METRIC_NODE_TX_BYTES,
    METRIC_PING_RTT,
};
use cluster::NodeId;
use simcore::{SimDuration, SimTime};

/// `(mean, max, std-dev)` of a row without probes.
const NO_RTT_STATS: (f64, f64, f64) = (0.0, 0.0, 0.0);

/// Host-level telemetry for one node at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeTelemetry {
    /// 1-minute load average (runnable processes).
    pub cpu_load: f64,
    /// Available memory in bytes.
    pub memory_available_bytes: f64,
    /// Transmit throughput in bytes/sec (derived via `rate()`).
    pub tx_rate: f64,
    /// Receive throughput in bytes/sec (derived via `rate()`).
    pub rx_rate: f64,
}

/// The pairwise RTT mesh in seconds: one row per source [`NodeId`], holding
/// its probed `(target, rtt)` pairs in ascending target id. Memory follows
/// the probes, so the paper's fully probed 6–64-node meshes and the sampled
/// peer sets of the 1k–10k scale worlds share one form, and rows keep their
/// capacity across fetches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RttMesh {
    /// Probed `(target, rtt)` pairs per source id, ascending by target.
    rows: Vec<Vec<(NodeId, f64)>>,
    /// Number of probed pairs.
    count: u32,
}

impl RttMesh {
    /// Reset every row to "not probed", keeping each row's capacity.
    fn clear_values(&mut self) {
        self.rows.iter_mut().for_each(Vec::clear);
        self.count = 0;
    }

    /// Record the RTT from `src` to `dst`. A write past the row's last
    /// target (every write of a scrape, which walks targets in ascending
    /// order) appends; any other inserts or overwrites in place.
    pub(crate) fn set(&mut self, src: NodeId, dst: NodeId, rtt_seconds: f64) {
        if self.rows.len() <= src.index() {
            self.rows.resize_with(src.index() + 1, Vec::new);
        }
        let row = &mut self.rows[src.index()];
        match row.last() {
            Some(&(last, _)) if last >= dst => match row.binary_search_by_key(&dst, |&(t, _)| t) {
                Ok(at) => {
                    row[at].1 = rtt_seconds;
                    return;
                }
                Err(at) => row.insert(at, (dst, rtt_seconds)),
            },
            _ => row.push((dst, rtt_seconds)),
        }
        self.count += 1;
    }

    /// The RTT from `src` to `dst`, if probed.
    pub(crate) fn get(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let row = self.row(src);
        let at = row.binary_search_by_key(&dst, |&(t, _)| t).ok()?;
        Some(row[at].1)
    }

    /// Number of probed pairs.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when no pair has been probed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// All probed `(source, target, rtt)` entries, row-major.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.rows.iter().enumerate().flat_map(|(src, row)| {
            row.iter()
                .map(move |&(dst, rtt)| (NodeId(src as u32), dst, rtt))
        })
    }

    /// One source row's probed `(target, rtt)` entries in ascending
    /// target-id order; empty for a source never probed from.
    pub(crate) fn row(&self, src: NodeId) -> &[(NodeId, f64)] {
        self.rows.get(src.index()).map_or(&[], Vec::as_slice)
    }
}

/// A point-in-time view of the whole cluster, as the scheduler sees it.
///
/// Node telemetry is stored densely by [`NodeId`]; the snapshot owns a small
/// name table so name-based accessors keep working at the edges. Build one
/// with [`ClusterSnapshot::from_store`] (or the scrape manager's interned
/// fast path) or assemble one by hand with [`ClusterSnapshot::insert_node`] /
/// [`ClusterSnapshot::insert_rtt`].
#[derive(Debug, Clone, Default)]
pub struct ClusterSnapshot {
    /// Snapshot timestamp.
    pub time: SimTime,
    /// Node name per id (insertion order).
    names: Vec<String>,
    /// Node ids sorted by name (name-resolution edge + deterministic
    /// name-ordered iteration, matching the pre-interning `BTreeMap` order).
    sorted: Vec<u32>,
    /// Telemetry per node id; `None` = node known (e.g. probed by the ping
    /// mesh) but not scraped.
    nodes: Vec<Option<NodeTelemetry>>,
    /// Pairwise RTT measurements, one row per source node id.
    rtt: RttMesh,
    /// Publish-time RTT statistics `(mean, max, std-dev)` of the source rows
    /// below its length (see the module docs). Derived state: excluded from
    /// equality.
    sealed: Vec<(f64, f64, f64)>,
    /// Process-unique stamp of the sealed contents; 0 = unsealed, or mutated
    /// since the last seal.
    revision: u64,
}

impl ClusterSnapshot {
    /// An empty snapshot stamped with `time`.
    pub fn at(time: SimTime) -> Self {
        ClusterSnapshot {
            time,
            ..Self::default()
        }
    }

    /// Assemble a snapshot from the store at time `at` — the generic,
    /// name-resolving path; the scrape manager's interned layout avoids the
    /// label lookups and re-interning entirely.
    ///
    /// `rate_window` controls the lookback used to turn tx/rx byte counters
    /// into rates; when fewer than two counter samples exist in the window
    /// the rate is reported as 0 (cold start).
    pub fn from_store(store: &TimeSeriesStore, at: SimTime, rate_window: SimDuration) -> Self {
        let mut snap = ClusterSnapshot::at(at);
        for &id in store.ids_for_name(METRIC_NODE_LOAD1) {
            if let Some(value) = store.instant_id(id, at) {
                if let Some(instance) = store.key(id).label("instance") {
                    let node = snap.intern(instance);
                    snap.entry(node).cpu_load = value;
                }
            }
        }
        for &id in store.ids_for_name(METRIC_NODE_MEM_AVAILABLE) {
            if let Some(value) = store.instant_id(id, at) {
                if let Some(instance) = store.key(id).label("instance") {
                    let node = snap.intern(instance);
                    snap.entry(node).memory_available_bytes = value;
                }
            }
        }
        for idx in 0..snap.names.len() {
            let Some(entry) = snap.nodes[idx].as_mut() else {
                continue;
            };
            let tx_key = SeriesKey::per_node(METRIC_NODE_TX_BYTES, &snap.names[idx]);
            let rx_key = SeriesKey::per_node(METRIC_NODE_RX_BYTES, &snap.names[idx]);
            entry.tx_rate = store.rate(&tx_key, at, rate_window).unwrap_or(0.0);
            entry.rx_rate = store.rate(&rx_key, at, rate_window).unwrap_or(0.0);
        }
        for &id in store.ids_for_name(METRIC_PING_RTT) {
            if let Some(value) = store.instant_id(id, at) {
                let key = store.key(id);
                if let (Some(src), Some(dst)) = (key.label("source"), key.label("target")) {
                    let (src, dst) = (snap.intern(src), snap.intern(dst));
                    snap.set_rtt(src, dst, value);
                }
            }
        }
        snap
    }

    /// Reset the snapshot for a fresh fetch over a fixed node table: keeps
    /// (or installs) the given names and clears all telemetry/mesh values
    /// without reallocating. This is the scratch-reuse entry point of the
    /// interned scrape path.
    pub fn reset_for(&mut self, time: SimTime, names: &[String]) {
        self.time = time;
        if self.names != names {
            self.names.clear();
            self.sorted.clear();
            self.nodes.clear();
            for name in names {
                self.intern(name);
            }
        }
        self.nodes.iter_mut().for_each(|n| *n = None);
        self.rtt.clear_values();
        self.sealed.clear();
        self.revision = 0;
    }

    /// Intern a node name, returning its snapshot-local id. The telemetry
    /// entry starts absent (`None`).
    fn intern(&mut self, name: &str) -> NodeId {
        match self.lookup(name) {
            Ok(pos) => NodeId(self.sorted[pos]),
            Err(pos) => {
                let id = self.names.len() as u32;
                self.names.push(name.to_string());
                self.nodes.push(None);
                self.sorted.insert(pos, id);
                self.revision = 0;
                NodeId(id)
            }
        }
    }

    /// Binary-search `sorted` for a name: `Ok(pos)` when present.
    fn lookup(&self, name: &str) -> Result<usize, usize> {
        self.sorted
            .binary_search_by(|&id| self.names[id as usize].as_str().cmp(name))
    }

    /// Telemetry entry for a node, creating a zeroed one if absent.
    fn entry(&mut self, id: NodeId) -> &mut NodeTelemetry {
        self.revision = 0;
        self.nodes[id.index()].get_or_insert_with(NodeTelemetry::default)
    }

    /// Record one mesh entry, dropping every sealed row.
    fn set_rtt(&mut self, src: NodeId, dst: NodeId, rtt_seconds: f64) {
        self.rtt.set(src, dst, rtt_seconds);
        self.sealed.clear();
        self.revision = 0;
    }

    /// Record (or overwrite) one node's telemetry, returning its id.
    pub fn insert_node(&mut self, name: &str, telemetry: NodeTelemetry) -> NodeId {
        let id = self.intern(name);
        self.set_node_by_id(id, telemetry);
        id
    }

    /// Mutable telemetry of a node, if scraped.
    pub fn node_mut(&mut self, name: &str) -> Option<&mut NodeTelemetry> {
        let id = self.node_id(name)?;
        let node = self.nodes[id.index()].as_mut()?;
        self.revision = 0;
        Some(node)
    }

    /// Record an RTT probe between two nodes by name (interning both).
    pub fn insert_rtt(&mut self, source: &str, target: &str, rtt_seconds: f64) {
        let (src, dst) = (self.intern(source), self.intern(target));
        self.set_rtt(src, dst, rtt_seconds);
    }

    /// Record an RTT probe between two already-interned node ids.
    pub fn insert_rtt_by_id(&mut self, source: NodeId, target: NodeId, rtt_seconds: f64) {
        self.set_rtt(source, target, rtt_seconds);
    }

    /// Record one node's telemetry by pre-interned id (the interned scrape
    /// path; ids follow the order `reset_for` installed).
    pub fn set_node_by_id(&mut self, id: NodeId, telemetry: NodeTelemetry) {
        self.nodes[id.index()] = Some(telemetry);
        self.revision = 0;
    }

    /// Resolve a node name to its snapshot-local id.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.lookup(name).ok().map(|pos| NodeId(self.sorted[pos]))
    }

    /// The name of an interned node id.
    ///
    /// # Panics
    /// Panics if `id` was not interned by this snapshot.
    pub(crate) fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Telemetry for one node, by name.
    pub fn node(&self, name: &str) -> Option<&NodeTelemetry> {
        let id = self.node_id(name)?;
        self.nodes[id.index()].as_ref()
    }

    /// Telemetry for one node, by snapshot-local id.
    pub fn node_by_id(&self, id: NodeId) -> Option<&NodeTelemetry> {
        self.nodes.get(id.index()).and_then(|t| t.as_ref())
    }

    /// Names of all scraped nodes, sorted.
    pub fn node_names(&self) -> Vec<String> {
        self.sorted
            .iter()
            .filter(|&&id| self.nodes[id as usize].is_some())
            .map(|&id| self.names[id as usize].clone())
            .collect()
    }

    /// All scraped nodes as `(name, telemetry)`, in name order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (&str, &NodeTelemetry)> {
        self.sorted.iter().filter_map(move |&id| {
            self.nodes[id as usize]
                .as_ref()
                .map(|t| (self.names[id as usize].as_str(), t))
        })
    }

    /// The RTT mesh.
    pub fn rtt(&self) -> &RttMesh {
        &self.rtt
    }

    /// RTT from `source` to `target` in seconds, if probed.
    pub fn rtt_between(&self, source: &str, target: &str) -> Option<f64> {
        let src = self.node_id(source)?;
        let dst = self.node_id(target)?;
        self.rtt.get(src, dst)
    }

    /// Summary statistics (mean, max, std-dev) of the RTTs from `source` —
    /// exactly the three RTT features in Table 1 of the paper, summed in
    /// ascending target-id order.
    pub fn rtt_stats_from(&self, source: &str) -> (f64, f64, f64) {
        self.node_id(source)
            .map_or(NO_RTT_STATS, |src| self.row_stats(src))
    }

    /// `(mean, max, std-dev)` of the RTTs probed from `src`: the sealed value
    /// when there is one, otherwise accumulated now — the one routine
    /// [`ClusterSnapshot::seal`] fills sealed rows with, so the two agree
    /// bitwise.
    fn row_stats(&self, src: NodeId) -> (f64, f64, f64) {
        self.sealed
            .get(src.index())
            .copied()
            .unwrap_or_else(|| self.accumulate_row_stats(src))
    }

    /// Sum `src`'s mesh row in ascending target-id order. Both
    /// [`ClusterSnapshot::rtt_stats_from`] and [`ClusterSnapshot::index_into`]
    /// go through here, so the two can never disagree on accumulation order.
    fn accumulate_row_stats(&self, src: NodeId) -> (f64, f64, f64) {
        let mut stats = simcore::OnlineStats::new();
        for &(_, rtt) in self.rtt.row(src) {
            stats.push(rtt);
        }
        if stats.count() == 0 {
            return NO_RTT_STATS;
        }
        (stats.mean(), stats.max(), stats.std_dev())
    }

    /// Seal the snapshot: summarise every source row past the sealed ones
    /// and stamp a fresh process-unique [`ClusterSnapshot::revision`]. A
    /// no-op on a snapshot that is still sealed. Cost is proportional to the
    /// unsealed rows' entries — nothing at all for an epoch that rewrote only
    /// node telemetry.
    #[expect(
        clippy::disallowed_types,
        reason = "ordering: Relaxed — the counter only hands out distinct stamps; the snapshot it stamps reaches readers through the publisher's own Release/Acquire epoch"
    )]
    pub fn seal(&mut self) {
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Source of process-unique revision stamps (0 is reserved for
        /// "unsealed").
        static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);
        if self.revision != 0 {
            return;
        }
        for row in self.sealed.len()..self.names.len() {
            let stats = self.accumulate_row_stats(NodeId(row as u32));
            self.sealed.push(stats);
        }
        self.revision = NEXT_REVISION.fetch_add(1, Ordering::Relaxed);
    }

    /// The stamp [`ClusterSnapshot::seal`] gave the current contents (node
    /// table, telemetry, mesh), or 0 when the snapshot was never sealed or
    /// has been mutated since. Equal non-zero revisions prove equal contents.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// True when the snapshot has no scraped node at all.
    pub fn is_empty(&self) -> bool {
        !self.nodes.iter().any(Option::is_some)
    }

    /// True when the snapshot's node table is exactly `cluster`'s node table
    /// in the same id order — the case for snapshots produced by the interned
    /// scrape path, which lets [`ClusterSnapshot::index_into`] skip name
    /// resolution entirely.
    pub fn is_aligned_with(&self, cluster: &cluster::ClusterState) -> bool {
        cluster.names_match(&self.names)
    }

    /// Resolve this snapshot against a cluster's node intern table into a
    /// dense, [`NodeId`]-indexed view, written into `out` (its tables are
    /// reused).
    ///
    /// This is the scheduler's burst-time amortization point: per-node
    /// telemetry lookups become array indexing and the RTT mesh is scanned
    /// exactly once (instead of once per candidate per decision) to
    /// precompute the Table-1 RTT statistics for every node. When the
    /// snapshot is id-aligned with the cluster (the interned scrape path)
    /// no name is touched at all. Sealed RTT rows are copied; only unsealed
    /// rows are accumulated, through the routine that sealed the others.
    /// Steady-state bursts over a fixed cluster size
    /// re-index without touching the heap.
    pub fn index_into(&self, cluster: &cluster::ClusterState, out: &mut IndexedTelemetry) {
        out.nodes.clear();
        out.rtt_stats.clear();
        if self.is_aligned_with(cluster) {
            out.nodes.extend_from_slice(&self.nodes);
            out.rtt_stats.extend_from_slice(&self.sealed);
            out.rtt_stats.extend(
                (self.sealed.len()..self.names.len())
                    .map(|row| self.accumulate_row_stats(NodeId(row as u32))),
            );
        } else {
            for node in cluster.nodes() {
                let id = self.node_id(&node.name);
                out.nodes.push(id.and_then(|id| self.nodes[id.index()]));
                out.rtt_stats
                    .push(id.map_or(NO_RTT_STATS, |id| self.row_stats(id)));
            }
        }
    }
}

/// Snapshots compare by *observable* telemetry — timestamp, scraped nodes
/// (by name) and probed RTT pairs (by name) — not by internal id assignment,
/// so a hand-built snapshot equals a scrape-produced one with the same
/// contents regardless of intern order, and a node table that was registered
/// but never scraped does not break equality.
impl PartialEq for ClusterSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.iter_nodes().eq(other.iter_nodes())
            && self.rtt.len() == other.rtt.len()
            && self.rtt.iter().all(|(src, dst, rtt)| {
                other.rtt_between(self.node_name(src), self.node_name(dst)) == Some(rtt)
            })
    }
}

/// The **history query** over a metrics store: assemble the cluster state as
/// of any instant `at`, deriving throughput rates over any `rate_window`.
/// Implemented by the store owners — the synchronous
/// [`crate::ScrapeManager`], the lock-sharing
/// [`crate::ConcurrentScrapeManager`] and its cross-thread
/// [`crate::TelemetryReader`] handle.
///
/// This is not the serving seam: a scheduling decision reads the epoch the
/// manager *published* ([`crate::PublishedSnapshot`]) and never calls this.
/// It remains for retrospective queries, for simulation drivers that want a
/// snapshot by value, and as the reference the published epochs are tested
/// byte-identical against.
pub trait SnapshotSource {
    /// Assemble the snapshot at `at` into `snap`, reusing its storage.
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot);

    /// Owning convenience wrapper over
    /// [`SnapshotSource::snapshot_into`].
    fn snapshot(&self, at: SimTime, rate_window: SimDuration) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::default();
        self.snapshot_into(at, rate_window, &mut snap);
        snap
    }
}

/// A dense, [`NodeId`]-indexed resolution of a [`ClusterSnapshot`] against
/// one cluster's node table. Built once per scheduling burst by
/// [`ClusterSnapshot::index_into`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IndexedTelemetry {
    /// Host telemetry per node id; `None` when the node was not scraped.
    nodes: Vec<Option<NodeTelemetry>>,
    /// Precomputed (mean, max, std-dev) RTT-from-node statistics per node id.
    rtt_stats: Vec<(f64, f64, f64)>,
}

impl IndexedTelemetry {
    /// Telemetry for a node, `None` when the node was absent from the scrape.
    pub fn node(&self, id: NodeId) -> Option<&NodeTelemetry> {
        self.nodes.get(id.index()).and_then(|t| t.as_ref())
    }

    /// The Table-1 RTT statistics (mean, max, std-dev) from a node to its
    /// peers; all zeros when the node has no probes.
    pub fn rtt_stats(&self, id: NodeId) -> (f64, f64, f64) {
        self.rtt_stats
            .get(id.index())
            .copied()
            .unwrap_or((0.0, 0.0, 0.0))
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are indexed.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Call `changed` with every node id whose telemetry or RTT statistics
    /// differ **bitwise** from `previous` (so `-0.0` vs `0.0` and NaN
    /// payloads count), including ids only one of the two views covers. What
    /// a consumer caching per-node derivations needs to refresh.
    pub fn changed_rows(&self, previous: &IndexedTelemetry, mut changed: impl FnMut(NodeId)) {
        fn bits(view: &IndexedTelemetry, row: usize) -> Option<(Option<[u64; 4]>, [u64; 3])> {
            let node = view.nodes.get(row)?.map(|t| {
                [
                    t.cpu_load.to_bits(),
                    t.memory_available_bytes.to_bits(),
                    t.tx_rate.to_bits(),
                    t.rx_rate.to_bits(),
                ]
            });
            let (mean, max, std) = view.rtt_stats[row];
            Some((node, [mean.to_bits(), max.to_bits(), std.to_bits()]))
        }
        for row in 0..self.len().max(previous.len()) {
            if bits(self, row) != bits(previous, row) {
                changed(NodeId(row as u32));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Sample;

    fn build_store() -> TimeSeriesStore {
        let mut store = TimeSeriesStore::new();
        let t0 = SimTime::from_secs(0);
        let t1 = SimTime::from_secs(30);
        for node in ["node-1", "node-2"] {
            store.append(Sample::gauge(
                SeriesKey::per_node(METRIC_NODE_LOAD1, node),
                1.5,
                t1,
            ));
            store.append(Sample::gauge(
                SeriesKey::per_node(METRIC_NODE_MEM_AVAILABLE, node),
                6e9,
                t1,
            ));
            // 2 MB/s tx, 1 MB/s rx over 30 s.
            store.append(Sample::counter(
                SeriesKey::per_node(METRIC_NODE_TX_BYTES, node),
                0.0,
                t0,
            ));
            store.append(Sample::counter(
                SeriesKey::per_node(METRIC_NODE_TX_BYTES, node),
                60e6,
                t1,
            ));
            store.append(Sample::counter(
                SeriesKey::per_node(METRIC_NODE_RX_BYTES, node),
                0.0,
                t0,
            ));
            store.append(Sample::counter(
                SeriesKey::per_node(METRIC_NODE_RX_BYTES, node),
                30e6,
                t1,
            ));
        }
        store.append(Sample::gauge(
            SeriesKey::new(
                METRIC_PING_RTT,
                &[("source", "node-1"), ("target", "node-2")],
            ),
            0.066,
            t1,
        ));
        store.append(Sample::gauge(
            SeriesKey::new(
                METRIC_PING_RTT,
                &[("source", "node-2"), ("target", "node-1")],
            ),
            0.067,
            t1,
        ));
        store
    }

    #[test]
    fn snapshot_assembles_all_signals() {
        let store = build_store();
        let snap =
            ClusterSnapshot::from_store(&store, SimTime::from_secs(35), SimDuration::from_secs(60));
        assert!(!snap.is_empty());
        assert_eq!(snap.node_names(), vec!["node-1", "node-2"]);
        let n1 = snap.node("node-1").unwrap();
        assert_eq!(n1.cpu_load, 1.5);
        assert_eq!(n1.memory_available_bytes, 6e9);
        assert!((n1.tx_rate - 2e6).abs() < 1.0);
        assert!((n1.rx_rate - 1e6).abs() < 1.0);
        assert_eq!(snap.rtt_between("node-1", "node-2"), Some(0.066));
        assert_eq!(snap.rtt_between("node-2", "node-1"), Some(0.067));
        assert_eq!(snap.rtt_between("node-1", "node-9"), None);
        assert!(snap.node("node-9").is_none());
        assert_eq!(snap.rtt().len(), 2);
        assert_eq!(snap.iter_nodes().count(), 2);
    }

    #[test]
    fn id_accessors_mirror_name_accessors() {
        let store = build_store();
        let snap =
            ClusterSnapshot::from_store(&store, SimTime::from_secs(35), SimDuration::from_secs(60));
        let id1 = snap.node_id("node-1").unwrap();
        let id2 = snap.node_id("node-2").unwrap();
        assert_eq!(snap.node_name(id1), "node-1");
        assert_eq!(snap.node_by_id(id1), snap.node("node-1"));
        assert_eq!(snap.rtt().get(id1, id2), Some(0.066));
        assert_eq!(snap.node_id("node-9"), None);
        assert_eq!(snap.node_by_id(NodeId(99)), None);
        let pairs: Vec<_> = snap.rtt().iter().collect();
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(id1, id2, 0.066)));
    }

    #[test]
    fn assembly_is_repeatable_and_reset_for_clears_the_values() {
        let store = build_store();
        let at = SimTime::from_secs(35);
        let w = SimDuration::from_secs(60);
        let mut reused = ClusterSnapshot::from_store(&store, at, w);
        assert_eq!(reused, ClusterSnapshot::from_store(&store, at, w));
        // reset_for keeps the node table and clears the values.
        let names: Vec<String> = vec!["node-1".into(), "node-2".into()];
        reused.reset_for(SimTime::from_secs(40), &names);
        assert!(reused.is_empty());
        assert_eq!(reused.node_id("node-2"), Some(NodeId(1)));
        assert_eq!(reused.time, SimTime::from_secs(40));
    }

    #[test]
    fn hand_built_snapshots_intern_in_insertion_order() {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(9));
        let b = snap.insert_node("node-b", NodeTelemetry::default());
        let a = snap.insert_node(
            "node-a",
            NodeTelemetry {
                cpu_load: 2.0,
                ..Default::default()
            },
        );
        assert_eq!((b, a), (NodeId(0), NodeId(1)));
        // Name-sorted iteration regardless of insertion order.
        assert_eq!(snap.node_names(), vec!["node-a", "node-b"]);
        snap.insert_rtt("node-b", "node-a", 0.5);
        snap.insert_rtt_by_id(a, b, 0.25);
        assert_eq!(snap.rtt_between("node-b", "node-a"), Some(0.5));
        assert_eq!(snap.rtt_between("node-a", "node-b"), Some(0.25));
        snap.node_mut("node-a").unwrap().cpu_load = 3.0;
        assert_eq!(snap.node("node-a").unwrap().cpu_load, 3.0);
        assert!(snap.node_mut("node-z").is_none());
    }

    #[test]
    fn reset_for_keeps_a_matching_table_and_rebuilds_a_different_one() {
        let names_ab: Vec<String> = vec!["node-a".into(), "node-b".into()];
        let names_ac: Vec<String> = vec!["node-a".into(), "node-c".into()];
        let mut snap = ClusterSnapshot::default();

        // First reset installs the table.
        snap.reset_for(SimTime::from_secs(1), &names_ab);
        snap.set_node_by_id(
            NodeId(0),
            NodeTelemetry {
                cpu_load: 1.0,
                ..Default::default()
            },
        );
        // Same names: the table is kept, the values are cleared.
        snap.reset_for(SimTime::from_secs(2), &names_ab);
        assert!(snap.is_empty());
        assert_eq!(snap.node_id("node-b"), Some(NodeId(1)));
        assert_eq!(snap.time, SimTime::from_secs(2));

        // Different names: the stale table is replaced, not trusted.
        snap.reset_for(SimTime::from_secs(3), &names_ac);
        assert_eq!(snap.node_id("node-c"), Some(NodeId(1)));
        assert_eq!(snap.node_id("node-b"), None);

        // A hand-grown table (one more interned name) no longer matches, so
        // the next reset drops the extra name.
        snap.insert_node("node-z", NodeTelemetry::default());
        snap.reset_for(SimTime::from_secs(4), &names_ac);
        assert_eq!(snap.node_id("node-z"), None, "stale name must be dropped");
        assert_eq!(snap.node_id("node-c"), Some(NodeId(1)));
    }

    #[test]
    fn rates_default_to_zero_without_history() {
        let mut store = TimeSeriesStore::new();
        store.append(Sample::gauge(
            SeriesKey::per_node(METRIC_NODE_LOAD1, "node-1"),
            0.5,
            SimTime::from_secs(10),
        ));
        // Only one counter point: no rate can be derived.
        store.append(Sample::counter(
            SeriesKey::per_node(METRIC_NODE_TX_BYTES, "node-1"),
            1000.0,
            SimTime::from_secs(10),
        ));
        let snap =
            ClusterSnapshot::from_store(&store, SimTime::from_secs(12), SimDuration::from_secs(30));
        let n = snap.node("node-1").unwrap();
        assert_eq!(n.tx_rate, 0.0);
        assert_eq!(n.rx_rate, 0.0);
        assert_eq!(n.cpu_load, 0.5);
    }

    #[test]
    fn rtt_stats_match_table1_semantics() {
        let mut store = build_store();
        store.append(Sample::gauge(
            SeriesKey::new(
                METRIC_PING_RTT,
                &[("source", "node-1"), ("target", "node-3")],
            ),
            0.010,
            SimTime::from_secs(30),
        ));
        let snap =
            ClusterSnapshot::from_store(&store, SimTime::from_secs(35), SimDuration::from_secs(60));
        let source = snap.node_id("node-1").unwrap();
        assert_eq!(snap.rtt().row(source).len(), 2);
        let (mean, max, std) = snap.rtt_stats_from("node-1");
        assert!((mean - 0.038).abs() < 1e-9);
        assert_eq!(max, 0.066);
        assert!(std > 0.0);
        assert_eq!(snap.rtt_stats_from("node-99"), (0.0, 0.0, 0.0));
        // node-3 was probed but never scraped: known name, absent telemetry.
        assert!(snap.node("node-3").is_none());
        assert_eq!(snap.node_names(), vec!["node-1", "node-2"]);
    }

    #[test]
    fn indexed_view_matches_name_keyed_lookups() {
        use cluster::{Node, Resources};

        let store = build_store();
        let snap =
            ClusterSnapshot::from_store(&store, SimTime::from_secs(35), SimDuration::from_secs(60));
        let mut c = cluster::ClusterState::new();
        // node-3 exists in the cluster but was never scraped.
        for (i, name) in ["node-1", "node-2", "node-3"].iter().enumerate() {
            c.add_node(Node::new(
                *name,
                simnet::NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                "SITE",
            ));
        }
        assert!(!snap.is_aligned_with(&c));
        let mut indexed = IndexedTelemetry::default();
        snap.index_into(&c, &mut indexed);
        assert_eq!(indexed.len(), 3);
        assert!(!indexed.is_empty());
        for name in ["node-1", "node-2"] {
            let id = c.node_id(name).unwrap();
            assert_eq!(indexed.node(id), snap.node(name));
            let (mean, max, std) = indexed.rtt_stats(id);
            let (m2, x2, s2) = snap.rtt_stats_from(name);
            assert_eq!((mean, max, std), (m2, x2, s2));
        }
        let unscraped = c.node_id("node-3").unwrap();
        assert_eq!(indexed.node(unscraped), None);
        assert_eq!(indexed.rtt_stats(unscraped), (0.0, 0.0, 0.0));
        // Out-of-table ids degrade gracefully.
        assert_eq!(indexed.node(cluster::NodeId(99)), None);
        assert_eq!(indexed.rtt_stats(cluster::NodeId(99)), (0.0, 0.0, 0.0));
    }

    #[test]
    fn aligned_fast_path_matches_name_resolution() {
        use cluster::{Node, Resources};

        let store = build_store();
        let snap =
            ClusterSnapshot::from_store(&store, SimTime::from_secs(35), SimDuration::from_secs(60));
        let mut c = cluster::ClusterState::new();
        for (i, name) in ["node-1", "node-2"].iter().enumerate() {
            c.add_node(Node::new(
                *name,
                simnet::NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                "SITE",
            ));
        }
        assert!(snap.is_aligned_with(&c));
        let mut indexed = IndexedTelemetry::default();
        snap.index_into(&c, &mut indexed);
        for name in ["node-1", "node-2"] {
            let id = c.node_id(name).unwrap();
            assert_eq!(indexed.node(id), snap.node(name));
            assert_eq!(indexed.rtt_stats(id), snap.rtt_stats_from(name));
        }
    }

    #[test]
    fn mesh_rows_stay_target_ordered_under_any_write_order() {
        let mut mesh = RttMesh::default();
        // Out of order within row 0, a later row first, one self-probe.
        for &(s, t, v) in &[
            (0u32, 3u32, 0.030),
            (2, 1, 0.021),
            (0, 1, 0.010),
            (0, 7, 0.070),
            (0, 5, 0.050),
            (5, 5, 0.0),
        ] {
            mesh.set(NodeId(s), NodeId(t), v);
        }
        assert_eq!(mesh.len(), 6);
        let targets: Vec<_> = mesh.row(NodeId(0)).iter().map(|&(t, _)| t.0).collect();
        assert_eq!(targets, vec![1, 3, 5, 7]);
        assert_eq!(mesh.get(NodeId(0), NodeId(5)), Some(0.050));
        assert_eq!(mesh.get(NodeId(0), NodeId(4)), None);
        assert_eq!(mesh.get(NodeId(9), NodeId(0)), None);
        // Row-major full iteration.
        let all: Vec<_> = mesh.iter().map(|(s, t, _)| (s.0, t.0)).collect();
        assert_eq!(all, vec![(0, 1), (0, 3), (0, 5), (0, 7), (2, 1), (5, 5)]);
        // Overwrites, at the end of a row or inside it, do not double-count.
        mesh.set(NodeId(0), NodeId(7), 0.9);
        mesh.set(NodeId(0), NodeId(3), 0.8);
        assert_eq!(mesh.len(), 6);
        assert_eq!(mesh.get(NodeId(0), NodeId(3)), Some(0.8));
        // Out-of-range rows are empty, not a panic.
        assert!(mesh.row(NodeId(9999)).is_empty());
        // Clearing keeps every row's buffer for the next fetch.
        let capacity = mesh.rows[0].capacity();
        mesh.clear_values();
        assert!(mesh.is_empty());
        assert_eq!(mesh.iter().count(), 0);
        assert_eq!(mesh.rows[0].capacity(), capacity);
    }

    #[test]
    fn rtt_rows_sum_in_target_id_order_not_name_order() {
        // Twelve nodes interned node-1 … node-12: id order puts node-2 before
        // node-10, name order puts it after node-12.
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(1));
        let names: Vec<String> = (1..=12).map(|i| format!("node-{i}")).collect();
        for name in &names {
            snap.insert_node(name, NodeTelemetry::default());
        }
        let rtt = |t: usize| 0.1 / (t + 2) as f64;
        // Written in reverse, so every probe takes the insert path.
        for t in (1..names.len()).rev() {
            snap.insert_rtt(&names[0], &names[t], rtt(t));
        }
        let summed = |order: Vec<usize>| {
            let mut stats = simcore::OnlineStats::new();
            order.into_iter().for_each(|t| stats.push(rtt(t)));
            [stats.mean(), stats.max(), stats.std_dev()].map(f64::to_bits)
        };
        let id_order = summed((1..names.len()).collect());
        let mut by_name: Vec<usize> = (1..names.len()).collect();
        by_name.sort_by_key(|&t| &names[t]);
        assert_ne!(
            summed(by_name),
            id_order,
            "the two orders must round differently for this test to see the order"
        );
        let bits = |(mean, max, std): (f64, f64, f64)| [mean, max, std].map(f64::to_bits);
        assert_eq!(bits(snap.rtt_stats_from("node-1")), id_order, "unsealed");
        snap.seal();
        assert_eq!(snap.sealed.len(), names.len());
        assert_eq!(bits(snap.rtt_stats_from("node-1")), id_order, "sealed");
    }

    #[test]
    fn large_sampled_mesh_indexes_like_name_lookups() {
        use cluster::{Node, Resources};

        // A 520-node world with a sampled (non-full) RTT mesh.
        let n = 520;
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(1));
        let mut c = cluster::ClusterState::new();
        for i in 0..n {
            let name = format!("node-{i:05}");
            c.add_node(Node::new(
                &name,
                simnet::NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                "SITE",
            ));
            snap.insert_node(
                &name,
                NodeTelemetry {
                    cpu_load: i as f64 * 0.01,
                    ..Default::default()
                },
            );
        }
        // Each node probes 3 peers.
        for i in 0..n {
            for k in 1..=3usize {
                snap.insert_rtt(
                    &format!("node-{i:05}"),
                    &format!("node-{:05}", (i + k * 7) % n),
                    0.001 * (i % 17 + k) as f64,
                );
            }
        }
        assert_eq!(snap.rtt().len(), 3 * n);
        assert!(snap.is_aligned_with(&c));

        let mut indexed = IndexedTelemetry::default();
        snap.index_into(&c, &mut indexed);
        for i in [0usize, 17, n - 1] {
            let name = format!("node-{i:05}");
            let id = c.node_id(&name).unwrap();
            assert_eq!(indexed.node(id), snap.node(&name));
            assert_eq!(indexed.rtt_stats(id), snap.rtt_stats_from(&name));
            let (mean, max, _) = indexed.rtt_stats(id);
            assert!(mean > 0.0 && max >= mean);
        }
    }

    #[test]
    fn an_rtt_write_drops_every_sealed_row_and_a_node_write_none() {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(1));
        for (src, dst, rtt) in [("a", "b", 0.010), ("a", "c", 0.030), ("b", "a", 0.020)] {
            snap.insert_rtt(src, dst, rtt);
        }
        assert_eq!(snap.revision(), 0, "hand-built snapshots start unsealed");
        let unsealed = snap.rtt_stats_from("a");
        snap.seal();
        let first = snap.revision();
        assert_ne!(first, 0);
        assert_eq!(snap.rtt_stats_from("a"), unsealed);
        assert_eq!(snap.sealed.len(), 3);
        // Sealing a sealed snapshot changes nothing; a clone shares the stamp.
        snap.seal();
        assert_eq!(snap.revision(), first);
        assert_eq!(snap.clone().revision(), first);

        // Node telemetry clears the revision but keeps every sealed row, and
        // the next seal computes none: a planted value survives it.
        snap.insert_node("a", NodeTelemetry::default());
        assert_eq!(snap.revision(), 0);
        assert_eq!(snap.sealed.len(), 3);
        snap.sealed[0] = (7.0, 7.0, 7.0);
        snap.seal();
        assert!(snap.revision() > first, "revisions are never reused");
        assert_eq!(snap.sealed[0], (7.0, 7.0, 7.0));
        snap.sealed[0] = unsealed;

        // An RTT write, to any row, drops every sealed row …
        snap.insert_rtt("b", "c", 0.5);
        assert_eq!(snap.revision(), 0);
        assert!(snap.sealed.is_empty());
        // … so every row reads through to the mesh until the next seal.
        let (mean, max, _) = snap.rtt_stats_from("b");
        assert!((mean - 0.26).abs() < 1e-12 && max == 0.5);
        assert_eq!(snap.rtt_stats_from("a"), unsealed);
        snap.seal();
        assert_eq!(snap.sealed.len(), 3);
        assert_eq!(snap.sealed[1], snap.accumulate_row_stats(NodeId(1)));

        // A node interned after the seal stays unsealed until the next.
        snap.insert_node("d", NodeTelemetry::default());
        assert_eq!(snap.sealed.len(), 3);
        snap.seal();
        assert_eq!(snap.sealed.len(), 4);
        assert_eq!(snap.rtt_stats_from("d"), NO_RTT_STATS);
        // Bulk resets drop every sealed row.
        snap.reset_for(SimTime::from_secs(2), &["a".to_string(), "b".to_string()]);
        assert!(snap.sealed.is_empty());
        assert_eq!(snap.revision(), 0);
    }

    #[test]
    fn empty_store_yields_empty_snapshot() {
        let store = TimeSeriesStore::new();
        let snap =
            ClusterSnapshot::from_store(&store, SimTime::from_secs(1), SimDuration::from_secs(30));
        assert!(snap.is_empty());
        assert!(snap.node_names().is_empty());
        assert!(snap.rtt().is_empty());
    }
}
