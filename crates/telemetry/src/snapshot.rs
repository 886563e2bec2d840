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
//! RTT mesh ([`RttMesh`]) is keyed by `(NodeId, NodeId)` pairs, mirroring the
//! cluster's node interning. Names are resolved only at the edges (reports,
//! figures, tests); the scrape→store→snapshot→features path never round-trips
//! through `String`. A snapshot produced by the scrape manager's interned
//! layout uses the cluster's own `NodeId` assignment; hand-built snapshots
//! intern names in insertion order.
//!
//! # Sealing and revisions
//!
//! The Table-1 RTT statistics `(mean, max, std)` of a source row are a pure
//! function of that row's mesh entries, so the single writer computes them
//! **once, at publish time**: [`ClusterSnapshot::seal`] (called by
//! [`crate::SnapshotPublisher::publish_with`] after its `fill`) recomputes the
//! statistics of exactly the rows a `&mut` accessor dirtied since the last
//! seal — a dirty-row *list*, so an epoch that rewrote only node telemetry
//! seals in O(1) — and stamps the snapshot with a process-unique non-zero
//! [`ClusterSnapshot::revision`]. The contract:
//!
//! * every mutating accessor clears the revision (0 = "unsealed or mutated
//!   since"), and RTT mutators additionally dirty the source row they touch;
//!   bulk resets (`clear`, `reset_for*`) drop the sealed rows wholesale;
//! * `Clone`/`clone_from` copy the sealed rows and the revision — a clone has
//!   the same contents, so it may share the stamp;
//! * the public [`ClusterSnapshot::time`] field is *not* covered: the
//!   revision identifies the node table, telemetry and mesh, which is all
//!   [`ClusterSnapshot::index_into`] reads.
//!
//! Readers get two things from it. [`ClusterSnapshot::index_into`] copies
//! sealed rows and accumulates only dirty or never-sealed ones — through the
//! same accumulation routine, so the result is bit-identical to indexing an
//! unsealed copy. And a consumer that remembers the revision it last indexed
//! can skip re-indexing altogether when it is handed the same revision again;
//! buffer *addresses* cannot serve as that key, because the publisher's slot
//! ring recycles them.

use crate::metrics::SeriesKey;
use crate::store::TimeSeriesStore;
use crate::{
    METRIC_NODE_LOAD1, METRIC_NODE_MEM_AVAILABLE, METRIC_NODE_RX_BYTES, METRIC_NODE_TX_BYTES,
    METRIC_PING_RTT,
};
use cluster::NodeId;
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of process-unique [`ClusterSnapshot::revision`] stamps (0 is
/// reserved for "unsealed").
static NEXT_REVISION: AtomicU64 = AtomicU64::new(1);

/// `(mean, max, std-dev)` of a row without probes.
const NO_RTT_STATS: (f64, f64, f64) = (0.0, 0.0, 0.0);

/// Publish-time RTT statistics: `(mean, max, std-dev)` per source row as of
/// the last [`ClusterSnapshot::seal`], plus which of those rows a mutation
/// has dirtied since. Rows at or past `stats.len()` were never sealed, so an
/// empty value means "nothing sealed" and hand-built snapshots pay nothing.
#[derive(Debug, Clone, Default)]
struct SealedRtt {
    stats: Vec<(f64, f64, f64)>,
    /// Per sealed row: its mesh entries changed since the seal.
    stale: Vec<bool>,
    /// The rows flagged in `stale`, so resealing costs O(dirty rows) instead
    /// of a scan over every flag.
    stale_rows: Vec<u32>,
}

impl SealedRtt {
    /// The sealed statistics of `row`, unless it is dirty or was never sealed.
    fn get(&self, row: usize) -> Option<(f64, f64, f64)> {
        match self.stale.get(row) {
            Some(false) => Some(self.stats[row]),
            _ => None,
        }
    }

    /// Note that `row`'s mesh entries changed.
    fn touch(&mut self, row: usize) {
        if let Some(stale) = self.stale.get_mut(row) {
            if !*stale {
                *stale = true;
                self.stale_rows.push(row as u32);
            }
        }
    }

    /// Forget every sealed row (the mesh was reset wholesale).
    fn invalidate(&mut self) {
        self.stats.clear();
        self.stale.clear();
        self.stale_rows.clear();
    }
}

/// Host-level telemetry for one node at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
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

/// Node count up to which the mesh stores a dense `n × n` matrix. The paper's
/// worlds (6–64 nodes, fully probed by the ping mesh) stay dense, keeping
/// every existing access pattern — and its floating-point accumulation order —
/// byte-for-byte unchanged. Past this limit a dense matrix is quadratic
/// memory (10k nodes ≈ 1.6 GB of `Option<f64>`), while the 1k–10k scale
/// worlds only probe a sampled peer set, so the mesh switches to a sorted
/// sparse map keyed `(source, target)`.
const DENSE_NODE_LIMIT: usize = 512;

/// Storage behind [`RttMesh`]: dense matrix at paper scale, sorted sparse map
/// at 1k–10k scale. The representation is a pure function of the current
/// dimension (`n <= DENSE_NODE_LIMIT` ⟺ dense), so equality can compare
/// like-for-like.
#[derive(Debug, Clone, PartialEq)]
enum MeshRepr {
    /// Row-major `n × n` values; `None` = pair not probed.
    Dense(Vec<Option<f64>>),
    /// Probed pairs keyed `(source, target)`; the `BTreeMap`'s lexicographic
    /// key order **is** row-major order, so iteration matches the dense form.
    Sparse(std::collections::BTreeMap<(u32, u32), f64>),
}

impl Default for MeshRepr {
    fn default() -> Self {
        MeshRepr::Dense(Vec::new())
    }
}

/// Iterator over all probed `(source, target, rtt)` entries, row-major.
enum MeshIter<'a> {
    Dense {
        values: std::iter::Enumerate<std::slice::Iter<'a, Option<f64>>>,
        n: usize,
    },
    Sparse(std::collections::btree_map::Iter<'a, (u32, u32), f64>),
}

impl Iterator for MeshIter<'_> {
    type Item = (NodeId, NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            MeshIter::Dense { values, n } => {
                for (i, v) in values.by_ref() {
                    if let Some(rtt) = v {
                        return Some((NodeId((i / *n) as u32), NodeId((i % *n) as u32), *rtt));
                    }
                }
                None
            }
            MeshIter::Sparse(iter) => iter.next().map(|(&(s, t), &v)| (NodeId(s), NodeId(t), v)),
        }
    }
}

/// Iterator over one source row's probed `(target, rtt)` entries, in
/// ascending target-id order.
enum RowIter<'a> {
    Dense(std::iter::Enumerate<std::slice::Iter<'a, Option<f64>>>),
    Sparse(std::collections::btree_map::Range<'a, (u32, u32), f64>),
}

impl Iterator for RowIter<'_> {
    type Item = (NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RowIter::Dense(values) => {
                for (t, v) in values.by_ref() {
                    if let Some(rtt) = v {
                        return Some((NodeId(t as u32), *rtt));
                    }
                }
                None
            }
            RowIter::Sparse(range) => range.next().map(|(&(_, t), &v)| (NodeId(t), v)),
        }
    }
}

/// The pairwise RTT mesh in seconds, keyed by `(source, target)` [`NodeId`]
/// pairs: a dense matrix over the snapshot's node table at paper scale
/// (reusable across fetches without reallocation), a sorted sparse map past
/// `DENSE_NODE_LIMIT` (512) nodes where full meshes are neither probed nor
/// affordable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RttMesh {
    /// Matrix dimension (number of interned nodes).
    n: u32,
    /// Dense or sparse values, per [`MeshRepr`].
    repr: MeshRepr,
    /// Number of present entries.
    count: u32,
}

impl RttMesh {
    /// Grow the mesh to hold at least `n` nodes, preserving entries and
    /// migrating dense → sparse when `n` crosses [`DENSE_NODE_LIMIT`].
    fn ensure_nodes(&mut self, n: usize) {
        let old = self.n as usize;
        if n <= old {
            return;
        }
        match &mut self.repr {
            MeshRepr::Sparse(_) => {
                // Sparse keys are dimension-independent; nothing to move.
            }
            MeshRepr::Dense(values) if n <= DENSE_NODE_LIMIT => {
                if old == 0 {
                    // Fresh layout: reuse the existing buffer's capacity.
                    values.clear();
                    values.resize(n * n, None);
                } else {
                    let mut grown = vec![None; n * n];
                    for s in 0..old {
                        for t in 0..old {
                            grown[s * n + t] = values[s * old + t];
                        }
                    }
                    *values = grown;
                }
            }
            MeshRepr::Dense(values) => {
                let mut map = std::collections::BTreeMap::new();
                for s in 0..old {
                    for t in 0..old {
                        if let Some(v) = values[s * old + t] {
                            map.insert((s as u32, t as u32), v);
                        }
                    }
                }
                self.repr = MeshRepr::Sparse(map);
            }
        }
        self.n = n as u32;
    }

    /// Reset all entries to "not probed" without shrinking the mesh.
    fn clear_values(&mut self) {
        match &mut self.repr {
            MeshRepr::Dense(values) => values.iter_mut().for_each(|v| *v = None),
            MeshRepr::Sparse(map) => map.clear(),
        }
        self.count = 0;
    }

    /// Empty the mesh (dimension back to zero) keeping the dense buffer's
    /// allocation for the next layout.
    fn reset(&mut self) {
        self.n = 0;
        self.count = 0;
        match &mut self.repr {
            MeshRepr::Dense(values) => values.clear(),
            // An empty mesh is below the dense limit by definition; restore
            // the representation invariant.
            repr @ MeshRepr::Sparse(_) => *repr = MeshRepr::default(),
        }
    }

    /// True while the mesh stores the dense matrix (paper-scale worlds).
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, MeshRepr::Dense(_))
    }

    /// Record the RTT from `src` to `dst`, growing the mesh if needed.
    pub fn set(&mut self, src: NodeId, dst: NodeId, rtt_seconds: f64) {
        let need = src.index().max(dst.index()) + 1;
        self.ensure_nodes(need);
        match &mut self.repr {
            MeshRepr::Dense(values) => {
                let slot = &mut values[src.index() * self.n as usize + dst.index()];
                if slot.is_none() {
                    self.count += 1;
                }
                *slot = Some(rtt_seconds);
            }
            MeshRepr::Sparse(map) => {
                if map.insert((src.0, dst.0), rtt_seconds).is_none() {
                    self.count += 1;
                }
            }
        }
    }

    /// The RTT from `src` to `dst`, if probed.
    pub fn get(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        if src.index() >= self.n as usize || dst.index() >= self.n as usize {
            return None;
        }
        match &self.repr {
            MeshRepr::Dense(values) => values[src.index() * self.n as usize + dst.index()],
            MeshRepr::Sparse(map) => map.get(&(src.0, dst.0)).copied(),
        }
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
        match &self.repr {
            MeshRepr::Dense(values) => MeshIter::Dense {
                values: values.iter().enumerate(),
                n: self.n as usize,
            },
            MeshRepr::Sparse(map) => MeshIter::Sparse(map.iter()),
        }
    }

    /// One source row's probed `(target, rtt)` entries in ascending
    /// target-id order. For sparse meshes the work is proportional to the
    /// row's entries, which is what keeps snapshot indexing linear at 10k
    /// nodes.
    pub fn row(&self, src: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        match &self.repr {
            MeshRepr::Dense(values) => {
                let n = self.n as usize;
                let start = (src.index() * n).min(values.len());
                let end = (start + n).min(values.len());
                RowIter::Dense(values[start..end].iter().enumerate())
            }
            MeshRepr::Sparse(map) => RowIter::Sparse(map.range((src.0, 0)..=(src.0, u32::MAX))),
        }
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
    /// Pairwise RTT measurements keyed by `(source, target)` node ids.
    rtt: RttMesh,
    /// Generation of the [`crate::ExporterLayout`] that last installed this
    /// snapshot's node table via [`ClusterSnapshot::reset_for_generation`]
    /// (0 = none / table mutated since). Purely an internal fast-path stamp:
    /// excluded from equality and serialization.
    layout_generation: u64,
    /// Publish-time RTT statistics (see the module docs). Derived state:
    /// excluded from equality and serialization.
    sealed: SealedRtt,
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

    /// Assemble a snapshot from the store at time `at`.
    ///
    /// `rate_window` controls the lookback used to turn tx/rx byte counters
    /// into rates; when fewer than two counter samples exist in the window
    /// the rate is reported as 0 (cold start).
    pub fn from_store(store: &TimeSeriesStore, at: SimTime, rate_window: SimDuration) -> Self {
        let mut snap = ClusterSnapshot::default();
        snap.assemble_from_store(store, at, rate_window);
        snap
    }

    /// Re-assemble this snapshot in place from the store — the generic,
    /// name-resolving path; the scrape manager's interned layout path avoids
    /// the label lookups and re-interning entirely. Vector and mesh buffer
    /// capacity is reused; node names are re-interned.
    pub fn assemble_from_store(
        &mut self,
        store: &TimeSeriesStore,
        at: SimTime,
        rate_window: SimDuration,
    ) {
        self.clear();
        self.time = at;
        for &id in store.ids_for_name(METRIC_NODE_LOAD1) {
            if let Some(value) = store.instant_id(id, at) {
                if let Some(instance) = store.key(id).label("instance") {
                    let node = self.intern(instance);
                    self.entry(node).cpu_load = value;
                }
            }
        }
        for &id in store.ids_for_name(METRIC_NODE_MEM_AVAILABLE) {
            if let Some(value) = store.instant_id(id, at) {
                if let Some(instance) = store.key(id).label("instance") {
                    let node = self.intern(instance);
                    self.entry(node).memory_available_bytes = value;
                }
            }
        }
        for idx in 0..self.names.len() {
            if self.nodes[idx].is_none() {
                continue;
            }
            let tx_key = SeriesKey::per_node(METRIC_NODE_TX_BYTES, &self.names[idx]);
            let rx_key = SeriesKey::per_node(METRIC_NODE_RX_BYTES, &self.names[idx]);
            let tx = store.rate(&tx_key, at, rate_window).unwrap_or(0.0);
            let rx = store.rate(&rx_key, at, rate_window).unwrap_or(0.0);
            let entry = self.nodes[idx].as_mut().expect("checked above");
            entry.tx_rate = tx;
            entry.rx_rate = rx;
        }
        for &id in store.ids_for_name(METRIC_PING_RTT) {
            if let Some(value) = store.instant_id(id, at) {
                let key = store.key(id);
                if let (Some(src), Some(dst)) = (key.label("source"), key.label("target")) {
                    let (src, dst) = (self.intern(src), self.intern(dst));
                    self.set_rtt(src, dst, value);
                }
            }
        }
    }

    /// Fully clear the snapshot (names, telemetry, mesh), keeping the
    /// vectors' and mesh buffer's capacity (node-name `String`s are
    /// re-allocated on the next intern; the id-aligned
    /// [`ClusterSnapshot::reset_for`] path avoids even that).
    pub fn clear(&mut self) {
        self.time = SimTime::ZERO;
        self.names.clear();
        self.sorted.clear();
        self.nodes.clear();
        self.rtt.reset();
        self.layout_generation = 0;
        self.sealed.invalidate();
        self.revision = 0;
    }

    /// Reset the snapshot for a fresh fetch over a fixed node table: keeps
    /// (or installs) the given names and clears all telemetry/mesh values
    /// without reallocating. This is the scratch-reuse entry point of the
    /// interned scrape path.
    pub fn reset_for(&mut self, time: SimTime, names: &[String]) {
        self.layout_generation = 0;
        self.reset_for_table(time, names);
    }

    /// [`ClusterSnapshot::reset_for`] with a layout-generation fast path:
    /// when the snapshot was last reset by the same layout build (same
    /// non-zero `generation`) the name-table comparison is skipped entirely —
    /// one integer compare instead of O(nodes) string compares. Any mutation
    /// of the node table (a different generation, [`ClusterSnapshot::clear`],
    /// or interning a new name) invalidates the stamp, forcing the slow path.
    pub fn reset_for_generation(&mut self, time: SimTime, generation: u64, names: &[String]) {
        if generation != 0 && generation == self.layout_generation {
            self.time = time;
            self.clear_values();
            return;
        }
        self.reset_for_table(time, names);
        self.layout_generation = generation;
    }

    /// Shared body of the reset entry points: keep the node table when it
    /// already matches `names`, rebuild it otherwise, and clear all values.
    fn reset_for_table(&mut self, time: SimTime, names: &[String]) {
        self.time = time;
        if self.names != names {
            self.clear();
            self.time = time;
            for name in names {
                self.intern(name);
            }
        } else {
            self.clear_values();
        }
    }

    /// Drop every telemetry and mesh value, keeping the node table.
    fn clear_values(&mut self) {
        self.nodes.iter_mut().for_each(|n| *n = None);
        self.rtt.clear_values();
        self.sealed.invalidate();
        self.revision = 0;
    }

    /// Intern a node name, returning its snapshot-local id. The telemetry
    /// entry starts absent (`None`). Growing the table invalidates any
    /// layout-generation stamp (the table no longer matches the layout).
    fn intern(&mut self, name: &str) -> NodeId {
        match self.lookup(name) {
            Ok(pos) => NodeId(self.sorted[pos]),
            Err(pos) => {
                let id = self.names.len() as u32;
                self.names.push(name.to_string());
                self.nodes.push(None);
                self.sorted.insert(pos, id);
                self.layout_generation = 0;
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

    /// Record one mesh entry, dirtying the sealed statistics of its source
    /// row. A dense → sparse migration changes every row's accumulation order
    /// (target-name order → target-id order), so it drops all sealed rows.
    fn set_rtt(&mut self, src: NodeId, dst: NodeId, rtt_seconds: f64) {
        let was_dense = self.rtt.is_dense();
        self.rtt.set(src, dst, rtt_seconds);
        if was_dense == self.rtt.is_dense() {
            self.sealed.touch(src.index());
        } else {
            self.sealed.invalidate();
        }
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
    pub fn node_name(&self, id: NodeId) -> &str {
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
    /// exactly the three RTT features in Table 1 of the paper. On dense
    /// meshes accumulation runs in target-name order so results are
    /// bit-identical to the name-keyed mesh this replaced.
    pub fn rtt_stats_from(&self, source: &str) -> (f64, f64, f64) {
        self.node_id(source)
            .map_or(NO_RTT_STATS, |src| self.row_stats(src))
    }

    /// `(mean, max, std-dev)` of the RTTs probed from `src`: the sealed value
    /// when the row is clean, otherwise accumulated now — the one routine
    /// [`ClusterSnapshot::seal`] fills sealed rows with, so the two agree
    /// bitwise.
    fn row_stats(&self, src: NodeId) -> (f64, f64, f64) {
        self.sealed
            .get(src.index())
            .unwrap_or_else(|| self.accumulate_row_stats(src))
    }

    fn accumulate_row_stats(&self, src: NodeId) -> (f64, f64, f64) {
        let mut stats = simcore::OnlineStats::new();
        self.accumulate_rtts_from(src, &mut stats);
        if stats.count() == 0 {
            return NO_RTT_STATS;
        }
        (stats.mean(), stats.max(), stats.std_dev())
    }

    /// Seal the snapshot: recompute the RTT statistics of every source row
    /// dirtied (or interned) since the last seal, and stamp a fresh
    /// process-unique [`ClusterSnapshot::revision`]. A no-op on a snapshot
    /// that is still sealed. Cost is proportional to the dirty rows' entries
    /// — nothing at all for an epoch that rewrote only node telemetry.
    pub fn seal(&mut self) {
        if self.revision != 0 {
            return;
        }
        let mut sealed = std::mem::take(&mut self.sealed);
        for &row in &sealed.stale_rows {
            sealed.stats[row as usize] = self.accumulate_row_stats(NodeId(row));
            sealed.stale[row as usize] = false;
        }
        sealed.stale_rows.clear();
        for row in sealed.stats.len()..self.names.len() {
            sealed
                .stats
                .push(self.accumulate_row_stats(NodeId(row as u32)));
        }
        sealed.stale.resize(sealed.stats.len(), false);
        self.sealed = sealed;
        // ordering: Relaxed — the counter only hands out distinct stamps; the
        // snapshot it stamps is handed to readers by the publisher's own
        // Release/Acquire epoch protocol.
        self.revision = NEXT_REVISION.fetch_add(1, Ordering::Relaxed);
    }

    /// The stamp [`ClusterSnapshot::seal`] gave the current contents (node
    /// table, telemetry, mesh), or 0 when the snapshot was never sealed or
    /// has been mutated since. Equal non-zero revisions prove equal contents.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Push every RTT probed from `src` into `stats`. Dense meshes
    /// accumulate in target-name order (the floating-point order the
    /// paper-scale pins depend on); sparse meshes walk the source row in
    /// target-id order so the work is proportional to the row's entries
    /// rather than the node table. Both [`ClusterSnapshot::rtt_stats_from`]
    /// and [`ClusterSnapshot::index_into`] go through here, so the two can
    /// never disagree on accumulation order.
    fn accumulate_rtts_from(&self, src: NodeId, stats: &mut simcore::OnlineStats) {
        if self.rtt.is_dense() {
            for &t in &self.sorted {
                if let Some(rtt) = self.rtt.get(src, NodeId(t)) {
                    stats.push(rtt);
                }
            }
        } else {
            for (_, rtt) in self.rtt.row(src) {
                stats.push(rtt);
            }
        }
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
    /// no name is touched at all. Sealed RTT rows are copied; only rows
    /// dirtied (or never sealed) since are accumulated, through the routine
    /// that sealed the others. Steady-state bursts over a fixed cluster size
    /// re-index without touching the heap.
    pub fn index_into(&self, cluster: &cluster::ClusterState, out: &mut IndexedTelemetry) {
        out.nodes.clear();
        out.rtt_stats.clear();
        if self.is_aligned_with(cluster) {
            out.nodes.extend_from_slice(&self.nodes);
            out.rtt_stats
                .extend((0..self.names.len()).map(|row| self.row_stats(NodeId(row as u32))));
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

/// Snapshots serialize in a canonical, name-resolved form — `time`, a
/// `(name, telemetry)` list in id order and a `(source, target, rtt)` list —
/// and deserialization rebuilds the intern tables from scratch, so archives
/// can never smuggle in an inconsistent `sorted`/`names`/mesh layout (every
/// internal invariant is re-established by construction) and the on-disk
/// shape is independent of the in-memory one.
impl Serialize for ClusterSnapshot {
    fn serialize_value(&self) -> serde::Value {
        let nodes: Vec<(String, Option<NodeTelemetry>)> = self
            .names
            .iter()
            .cloned()
            .zip(self.nodes.iter().copied())
            .collect();
        let rtt: Vec<(String, String, f64)> = self
            .rtt
            .iter()
            .map(|(src, dst, value)| {
                (
                    self.names[src.index()].clone(),
                    self.names[dst.index()].clone(),
                    value,
                )
            })
            .collect();
        serde::Value::Map(vec![
            (
                serde::Value::Str("time".to_string()),
                self.time.serialize_value(),
            ),
            (
                serde::Value::Str("nodes".to_string()),
                nodes.serialize_value(),
            ),
            (serde::Value::Str("rtt".to_string()), rtt.serialize_value()),
        ])
    }
}

impl Deserialize for ClusterSnapshot {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for ClusterSnapshot"))?;
        let time = SimTime::deserialize_value(serde::get_field(map, "time")?)?;
        let nodes: Vec<(String, Option<NodeTelemetry>)> =
            Deserialize::deserialize_value(serde::get_field(map, "nodes")?)?;
        let rtt: Vec<(String, String, f64)> =
            Deserialize::deserialize_value(serde::get_field(map, "rtt")?)?;
        let mut snap = ClusterSnapshot::at(time);
        for (name, telemetry) in nodes {
            let id = snap.intern(&name);
            snap.nodes[id.index()] = telemetry;
        }
        for (source, target, value) in rtt {
            snap.insert_rtt(&source, &target, value);
        }
        Ok(snap)
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
    fn reused_snapshot_equals_fresh_assembly() {
        let store = build_store();
        let at = SimTime::from_secs(35);
        let w = SimDuration::from_secs(60);
        let fresh = ClusterSnapshot::from_store(&store, at, w);
        let mut reused = ClusterSnapshot::default();
        for _ in 0..3 {
            reused.assemble_from_store(&store, at, w);
            assert_eq!(reused, fresh);
        }
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
    fn generation_stamp_skips_and_forces_the_name_table_path() {
        let names_ab: Vec<String> = vec!["node-a".into(), "node-b".into()];
        let names_ac: Vec<String> = vec!["node-a".into(), "node-c".into()];
        let mut snap = ClusterSnapshot::default();

        // First reset installs the table and stamps the generation.
        snap.reset_for_generation(SimTime::from_secs(1), 7, &names_ab);
        snap.set_node_by_id(
            NodeId(0),
            NodeTelemetry {
                cpu_load: 1.0,
                ..Default::default()
            },
        );
        // Same generation: fast path keeps the table, clears the values.
        snap.reset_for_generation(SimTime::from_secs(2), 7, &names_ab);
        assert!(snap.is_empty());
        assert_eq!(snap.node_id("node-b"), Some(NodeId(1)));
        assert_eq!(snap.time, SimTime::from_secs(2));

        // A mutated layout (different generation, different names) forces the
        // slow path: the stale table must be replaced, not trusted.
        snap.reset_for_generation(SimTime::from_secs(3), 9, &names_ac);
        assert_eq!(snap.node_id("node-c"), Some(NodeId(1)));
        assert_eq!(snap.node_id("node-b"), None);

        // Hand-mutating the table (interning a new name) invalidates the
        // stamp, so the next same-generation reset re-verifies the names.
        snap.insert_node("node-z", NodeTelemetry::default());
        snap.reset_for_generation(SimTime::from_secs(4), 9, &names_ac);
        assert_eq!(snap.node_id("node-z"), None, "stale name must be dropped");
        assert_eq!(snap.node_id("node-c"), Some(NodeId(1)));

        // Generation 0 (no layout) always takes the slow path.
        snap.reset_for_generation(SimTime::from_secs(5), 0, &names_ab);
        snap.reset_for_generation(SimTime::from_secs(6), 0, &names_ac);
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
        assert_eq!(snap.rtt().row(source).count(), 2);
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
    fn snapshot_json_roundtrip_preserves_contents_and_ids() {
        let store = build_store();
        let snap =
            ClusterSnapshot::from_store(&store, SimTime::from_secs(35), SimDuration::from_secs(60));
        let json = serde_json::to_string(&snap).unwrap();
        let back: ClusterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        // Id assignment survives the roundtrip (names serialize in id order,
        // deserialization re-interns them in the same order).
        assert_eq!(back.node_id("node-2"), snap.node_id("node-2"));
        assert_eq!(back.rtt_between("node-1", "node-2"), Some(0.066));
        // Malformed payloads are rejected rather than trusted.
        assert!(serde_json::from_str::<ClusterSnapshot>("{\"time\":0}").is_err());
        assert!(serde_json::from_str::<ClusterSnapshot>("[1,2]").is_err());
        // Empty snapshots roundtrip too.
        let empty = ClusterSnapshot::at(SimTime::from_secs(3));
        let back: ClusterSnapshot =
            serde_json::from_str(&serde_json::to_string(&empty).unwrap()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn sparse_mesh_matches_dense_semantics() {
        // Same probes recorded twice: once within the dense limit, once
        // shifted past it so the mesh goes sparse. Every accessor must agree.
        let probes = [
            (0u32, 3u32, 0.010),
            (3, 0, 0.011),
            (1, 2, 0.020),
            (5, 5, 0.0),
        ];
        let mut dense = RttMesh::default();
        let mut sparse = RttMesh::default();
        let shift = super::DENSE_NODE_LIMIT as u32 + 100;
        for &(s, t, v) in &probes {
            dense.set(NodeId(s), NodeId(t), v);
            sparse.set(NodeId(s + shift), NodeId(t + shift), v);
        }
        assert!(dense.is_dense());
        assert!(!sparse.is_dense());
        assert_eq!(dense.len(), sparse.len());
        for &(s, t, v) in &probes {
            assert_eq!(dense.get(NodeId(s), NodeId(t)), Some(v));
            assert_eq!(sparse.get(NodeId(s + shift), NodeId(t + shift)), Some(v));
        }
        assert_eq!(sparse.get(NodeId(0), NodeId(3)), None);
        // Row-major full iteration and per-row iteration line up.
        let dense_iter: Vec<_> = dense.iter().collect();
        let sparse_iter: Vec<_> = sparse
            .iter()
            .map(|(s, t, v)| (NodeId(s.0 - shift), NodeId(t.0 - shift), v))
            .collect();
        assert_eq!(dense_iter, sparse_iter);
        let dense_row: Vec<_> = dense.row(NodeId(0)).collect();
        let sparse_row: Vec<_> = sparse
            .row(NodeId(shift))
            .map(|(t, v)| (NodeId(t.0 - shift), v))
            .collect();
        assert_eq!(dense_row, vec![(NodeId(3), 0.010)]);
        assert_eq!(dense_row, sparse_row);
        // Overwrites do not double-count in either representation.
        dense.set(NodeId(0), NodeId(3), 0.9);
        sparse.set(NodeId(shift), NodeId(3 + shift), 0.9);
        assert_eq!(dense.len(), sparse.len());
        // Out-of-range rows are empty, not a panic.
        assert_eq!(dense.row(NodeId(9999)).count(), 0);
        assert_eq!(sparse.row(NodeId(9999)).count(), 0);
    }

    #[test]
    fn dense_mesh_migrates_to_sparse_preserving_entries() {
        let mut mesh = RttMesh::default();
        mesh.set(NodeId(0), NodeId(1), 0.001);
        mesh.set(NodeId(1), NodeId(0), 0.002);
        assert!(mesh.is_dense());
        // Growing past the dense limit migrates without losing probes.
        mesh.set(NodeId(super::DENSE_NODE_LIMIT as u32), NodeId(0), 0.003);
        assert!(!mesh.is_dense());
        assert_eq!(mesh.len(), 3);
        assert_eq!(mesh.get(NodeId(0), NodeId(1)), Some(0.001));
        assert_eq!(mesh.get(NodeId(1), NodeId(0)), Some(0.002));
        assert_eq!(
            mesh.get(NodeId(super::DENSE_NODE_LIMIT as u32), NodeId(0)),
            Some(0.003)
        );
    }

    #[test]
    fn large_snapshot_stats_and_roundtrip_use_sparse_mesh() {
        use cluster::{Node, Resources};

        // A world past the dense limit with a sampled (non-full) RTT mesh.
        let n = super::DENSE_NODE_LIMIT + 8;
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
        assert!(!snap.rtt().is_dense());
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

        // Canonical serialization survives the sparse representation.
        let json = serde_json::to_string(&snap).unwrap();
        let back: ClusterSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn sealing_resummarises_only_dirty_rows_and_stamps_a_revision() {
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
        assert_eq!(snap.sealed.stats.len(), 3);
        // Sealing a sealed snapshot changes nothing; a clone shares the stamp.
        snap.seal();
        assert_eq!(snap.revision(), first);
        assert_eq!(snap.clone().revision(), first);

        // Node telemetry clears the revision but dirties no RTT row …
        snap.insert_node("a", NodeTelemetry::default());
        assert_eq!(snap.revision(), 0);
        assert!(snap.sealed.stale_rows.is_empty());
        // … a probe dirties exactly its source row, once.
        snap.insert_rtt("b", "c", 0.5);
        snap.insert_rtt("b", "a", 0.7);
        assert_eq!(snap.sealed.stale_rows, vec![1]);
        assert_eq!(snap.sealed.get(0), Some(unsealed));
        assert_eq!(snap.sealed.get(1), None);
        // Dirty rows read through to the mesh until the next seal.
        let (mean, max, _) = snap.rtt_stats_from("b");
        assert_eq!((mean, max), (0.6, 0.7));
        snap.seal();
        assert!(snap.revision() > first, "revisions are never reused");
        assert_eq!(
            snap.sealed.get(1),
            Some(snap.accumulate_row_stats(NodeId(1)))
        );

        // Interning a node after the seal leaves it unsealed until the next.
        snap.insert_rtt("d", "a", 0.9);
        assert_eq!(snap.sealed.get(3), None);
        assert_eq!(snap.rtt_stats_from("d"), (0.9, 0.9, 0.0));
        // Bulk resets drop every sealed row.
        snap.reset_for(SimTime::from_secs(2), &["a".to_string(), "b".to_string()]);
        assert!(snap.sealed.stats.is_empty());
        assert_eq!(snap.revision(), 0);
    }

    #[test]
    fn dense_to_sparse_migration_drops_the_sealed_rows() {
        // Dense rows accumulate in target-name order, sparse rows in target-id
        // order, so a sealed dense row may differ bitwise from the sparse
        // accumulation of the same entries: the migration must reseal.
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(1));
        for (dst, rtt) in [("z", 0.1), ("m", 0.2), ("b", 0.3)] {
            snap.insert_rtt("a", dst, rtt);
        }
        snap.seal();
        assert!(snap.rtt().is_dense());
        for i in 0..super::DENSE_NODE_LIMIT {
            snap.insert_node(&format!("filler-{i}"), NodeTelemetry::default());
        }
        assert_eq!(
            snap.sealed.get(0),
            Some(snap.accumulate_row_stats(NodeId(0)))
        );
        let last = format!("filler-{}", super::DENSE_NODE_LIMIT - 1);
        snap.insert_rtt(&last, "a", 0.4);
        assert!(!snap.rtt().is_dense());
        assert!(snap.sealed.stats.is_empty());
        assert_eq!(
            snap.rtt_stats_from("a"),
            snap.accumulate_row_stats(NodeId(0))
        );
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
