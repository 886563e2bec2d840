//! Append-only time-series storage with Prometheus-flavoured queries.
//!
//! The store is the metrics server's hot read path: every scheduling decision
//! queries it, so its cost model matters. Two design points keep per-decision
//! work independent of retained history:
//!
//! * **Interned series identity.** Every [`SeriesKey`] is interned once into a
//!   small copyable [`SeriesId`] (its index in the store's key table). All
//!   queries have an `*_id` fast path that skips the key comparison entirely,
//!   and a per-metric-name index makes "all series of metric X"
//!   ([`TimeSeriesStore::ids_for_name`]) a direct bucket lookup instead of a
//!   full-keyspace scan.
//! * **Windowed queries without intermediate allocation.** `range`, `rate`
//!   and `avg_over` slice the time-ordered point vector with two
//!   `partition_point` binary searches and operate on the borrowed window —
//!   no `Vec` is built per query. [`TimeSeriesStore::range`] returns the
//!   borrowed slice directly.

use crate::metrics::{MetricKind, Sample, SeriesKey};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Interned series identity: a dense index into the store's key table.
///
/// `SeriesId`s are assigned in intern order and are stable for the lifetime
/// of the store (series are never removed). They are deliberately tiny and
/// `Copy` so exporters and snapshot assembly can address series without
/// touching `String`s — the same pattern as `cluster::NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(pub u32);

impl SeriesId {
    /// The id as a usize index into the store's series table.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SeriesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s#{}", self.0)
    }
}

/// One evaluated sample of a chunk batch: series, value, timestamp.
pub(crate) type Append = (SeriesId, f64, SimTime);

/// One stored series: its kind and time-ordered points.
///
/// Retention pruning is **amortized**: pruned points are first skipped via
/// `start` (an O(log n) bound advance per append) and only physically
/// drained once they exceed half the buffer — so steady-state appends never
/// pay a per-point `memmove` of the whole retained window. Every read path
/// goes through [`Series::live`], which hides pruned points, so the
/// observable semantics are identical to eager pruning.
#[derive(Debug, Clone)]
struct Series {
    kind: MetricKind,
    points: Vec<(SimTime, f64)>,
    /// Index of the first live (non-pruned) point in `points`.
    start: usize,
}

impl Series {
    /// The live (retention-respecting) points of this series.
    fn live(&self) -> &[(SimTime, f64)] {
        &self.points[self.start..]
    }

    /// Advance the live window past points older than `cutoff`, draining the
    /// pruned prefix when it dominates the buffer. The scan is linear from
    /// `start` — in steady state each append expires at most one point, so
    /// this is O(1) amortized (every point is skipped exactly once).
    fn prune(&mut self, cutoff: SimTime) {
        while self.start < self.points.len() && self.points[self.start].0 < cutoff {
            self.start += 1;
        }
        if self.start > PRUNE_DRAIN_THRESHOLD && self.start * 2 > self.points.len() {
            self.points.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Pruned-prefix length beyond which (together with dominating half the
/// buffer) the prefix is physically drained — bounding memory at ~2× the
/// live window while keeping the per-append cost amortized O(1).
const PRUNE_DRAIN_THRESHOLD: usize = 32;

/// The time-series database backing the metrics server.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesStore {
    /// Series key per [`SeriesId`] (intern order).
    keys: Vec<SeriesKey>,
    /// Series data per [`SeriesId`].
    series: Vec<Series>,
    /// Key → id intern index (sorted; drives [`TimeSeriesStore::keys`]).
    key_index: BTreeMap<SeriesKey, u32>,
    /// Metric name → ids of all series with that name, in intern order.
    name_index: BTreeMap<String, Vec<SeriesId>>,
    retention: Option<SimDuration>,
    /// Newest timestamp ever accepted. The retention cutoff is derived from
    /// this watermark, not from each incoming sample, so a late out-of-order
    /// append can never move the cutoff backwards.
    max_ts: SimTime,
}

impl TimeSeriesStore {
    /// Create an empty store with unlimited retention.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a store that prunes points older than `retention` behind the
    /// latest appended timestamp.
    pub fn with_retention(retention: SimDuration) -> Self {
        TimeSeriesStore {
            retention: Some(retention),
            ..Self::default()
        }
    }

    /// Intern a series key, returning its stable [`SeriesId`]. The kind is
    /// fixed by the first intern; later interns of the same key return the
    /// existing id unchanged.
    pub(crate) fn intern(&mut self, key: &SeriesKey, kind: MetricKind) -> SeriesId {
        if let Some(&id) = self.key_index.get(key) {
            return SeriesId(id);
        }
        let id = SeriesId(self.keys.len() as u32);
        self.key_index.insert(key.clone(), id.0);
        self.name_index
            .entry(key.name.clone())
            .or_default()
            .push(id);
        self.keys.push(key.clone());
        self.series.push(Series {
            kind,
            points: Vec::new(),
            start: 0,
        });
        id
    }

    /// Resolve a key to its interned id, if the series exists.
    pub(crate) fn series_id(&self, key: &SeriesKey) -> Option<SeriesId> {
        self.key_index.get(key).copied().map(SeriesId)
    }

    /// The key of an interned series.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this store.
    pub fn key(&self, id: SeriesId) -> &SeriesKey {
        &self.keys[id.index()]
    }

    /// Ids of every series with the given metric name, in intern order.
    pub(crate) fn ids_for_name(&self, name: &str) -> &[SeriesId] {
        self.name_index.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Append one sample, interning its key (scrape rounds append through
    /// pre-interned ids instead).
    pub fn append(&mut self, sample: Sample) {
        let id = self.intern(&sample.key, sample.kind);
        self.append_value(id, sample.value, sample.timestamp);
    }

    /// Append a value to a pre-interned series. Out-of-order samples (older
    /// than the series tail) and duplicate samples for the tail timestamp are
    /// dropped, mirroring Prometheus's "out of order sample" / "duplicate
    /// sample for timestamp" ingestion rules.
    ///
    /// The retention cutoff is **monotone**: it is derived from the newest
    /// timestamp the store has ever seen (`max_ts - retention`), not from the
    /// incoming sample's timestamp. A series that receives a late sample
    /// (valid for *it*, but older than another series' tail) is therefore
    /// pruned exactly as far as any earlier append already pruned, and a
    /// late sample older than the retention window is itself discarded.
    pub(crate) fn append_value(&mut self, id: SeriesId, value: f64, timestamp: SimTime) {
        if !self.push_point(id, value, timestamp) {
            return;
        }
        if let Some(cutoff) = self.retention_cutoff() {
            self.series[id.index()].prune(cutoff);
        }
    }

    /// Append a whole chunk of `(series, value, timestamp)` samples, then
    /// prune every series once — the bulk-ingest path of
    /// [`crate::ScrapeManager::commit_chunk`]. Because the cutoff is monotone
    /// in the watermark, pruning once against the final watermark yields
    /// exactly the same live window as pruning after every append — and
    /// `&mut self` keeps the intermediate states unobservable.
    pub(crate) fn append_chunk(&mut self, chunk: &[Append]) {
        for &(id, value, timestamp) in chunk {
            self.push_point(id, value, timestamp);
        }
        if let Some(cutoff) = self.retention_cutoff() {
            for series in &mut self.series {
                series.prune(cutoff);
            }
        }
    }

    /// The current retention cutoff (`watermark - retention`), if retention
    /// is configured.
    fn retention_cutoff(&self) -> Option<SimTime> {
        let retention = self.retention?;
        Some(SimTime::from_nanos(
            self.max_ts.as_nanos().saturating_sub(retention.as_nanos()),
        ))
    }

    /// Shared ingestion body: apply the out-of-order/duplicate drop rules,
    /// advance the watermark and push the point. Returns false when the
    /// sample was dropped.
    fn push_point(&mut self, id: SeriesId, value: f64, timestamp: SimTime) -> bool {
        let series = &mut self.series[id.index()];
        if series.start < series.points.len() {
            // The live tail is always the physical tail (pruning only skips
            // a prefix), so the ingestion-order check reads the last point.
            let (last_t, _) = series.points[series.points.len() - 1];
            if timestamp <= last_t {
                return false;
            }
        } else if series.start > 0 {
            // Every point was pruned: reset the buffer so the stale physical
            // entries (which may be newer than this sample) cannot break the
            // time ordering — eager pruning would have left an empty vector
            // here, and empty series accept any timestamp.
            series.points.clear();
            series.start = 0;
        }
        if timestamp > self.max_ts {
            self.max_ts = timestamp;
        }
        series.points.push((timestamp, value));
        true
    }

    /// Number of distinct series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total number of stored points across all series.
    pub fn point_count(&self) -> usize {
        self.series.iter().map(|s| s.live().len()).sum()
    }

    /// Latest value of a series at or before `at`.
    pub fn instant(&self, key: &SeriesKey, at: SimTime) -> Option<f64> {
        self.instant_id(self.series_id(key)?, at)
    }

    /// Latest value of a pre-interned series at or before `at`.
    ///
    /// The common per-decision query asks for the freshest sample (`at` at or
    /// past the series tail) and is answered in O(1) from the tail; older
    /// instants fall back to a binary search.
    pub(crate) fn instant_id(&self, id: SeriesId, at: SimTime) -> Option<f64> {
        let points = self.series[id.index()].live();
        match points.last() {
            None => None,
            Some(&(t, v)) if t <= at => Some(v),
            _ => {
                let idx = points.partition_point(|&(t, _)| t <= at);
                if idx == 0 {
                    None
                } else {
                    Some(points[idx - 1].1)
                }
            }
        }
    }

    /// All points of a series with timestamps in `[from, to]`, as a borrowed
    /// slice of the series storage (no allocation).
    pub fn range(&self, key: &SeriesKey, from: SimTime, to: SimTime) -> &[(SimTime, f64)] {
        match self.series_id(key) {
            Some(id) => self.range_id(id, from, to),
            None => &[],
        }
    }

    /// Borrowed window `[from, to]` of a pre-interned series.
    ///
    /// Decision-path windows (rate lookbacks) end at the series tail and span
    /// a handful of points, so the bounds are found by a short backward walk
    /// from the tail — O(window), cache-local, independent of how much
    /// history retention keeps. Windows deeper in history fall back to
    /// `partition_point` binary searches.
    pub(crate) fn range_id(&self, id: SeriesId, from: SimTime, to: SimTime) -> &[(SimTime, f64)] {
        let points = self.series[id.index()].live();
        let hi = match points.last() {
            Some(&(t, _)) if t > to => points.partition_point(|&(t, _)| t <= to),
            _ => points.len(),
        };
        let mut lo = hi;
        let mut steps = 0usize;
        while lo > 0 && points[lo - 1].0 >= from {
            lo -= 1;
            steps += 1;
            if steps > 32 {
                lo = points[..hi].partition_point(|&(t, _)| t < from);
                break;
            }
        }
        &points[lo..hi]
    }

    /// Prometheus-style `rate()`: the per-second increase of a counter over
    /// the window `[at - window, at]`. Returns `None` when fewer than two
    /// points fall in the window or the series is not a counter.
    pub fn rate(&self, key: &SeriesKey, at: SimTime, window: SimDuration) -> Option<f64> {
        self.rate_id(self.series_id(key)?, at, window)
    }

    /// `rate()` over a pre-interned counter series.
    pub(crate) fn rate_id(&self, id: SeriesId, at: SimTime, window: SimDuration) -> Option<f64> {
        if self.series[id.index()].kind != MetricKind::Counter {
            return None;
        }
        let from_nanos = at.as_nanos().saturating_sub(window.as_nanos());
        let pts = self.range_id(id, SimTime::from_nanos(from_nanos), at);
        if pts.len() < 2 {
            return None;
        }
        let (t0, v0) = pts[0];
        let (t1, v1) = pts[pts.len() - 1];
        let dt = (t1 - t0).as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        // Counters never decrease in our exporters; clamp defensively anyway.
        Some(((v1 - v0).max(0.0)) / dt)
    }

    /// Latest gauge value per matching series: every series with the given
    /// metric name (resolved through the per-name bucket index, not a
    /// full-keyspace scan), with its interned id. Resolve ids back to keys
    /// with [`TimeSeriesStore::key`] at the edges.
    pub fn instant_by_name(&self, name: &str, at: SimTime) -> Vec<(SeriesId, f64)> {
        self.ids_for_name(name)
            .iter()
            .filter_map(|&id| self.instant_id(id, at).map(|v| (id, v)))
            .collect()
    }

    /// Average of a series over `[at - window, at]` (gauges).
    pub fn avg_over(&self, key: &SeriesKey, at: SimTime, window: SimDuration) -> Option<f64> {
        self.avg_over_id(self.series_id(key)?, at, window)
    }

    /// Average over a pre-interned series.
    pub(crate) fn avg_over_id(
        &self,
        id: SeriesId,
        at: SimTime,
        window: SimDuration,
    ) -> Option<f64> {
        let from_nanos = at.as_nanos().saturating_sub(window.as_nanos());
        let pts = self.range_id(id, SimTime::from_nanos(from_nanos), at);
        if pts.is_empty() {
            return None;
        }
        Some(pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64)
    }

    /// All series keys (sorted).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = &SeriesKey> {
        self.key_index.keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str, node: &str) -> SeriesKey {
        SeriesKey::per_node(name, node)
    }

    #[test]
    fn append_and_instant_query() {
        let mut store = TimeSeriesStore::new();
        let k = key("node_load1", "node-1");
        store.append(Sample::gauge(k.clone(), 0.5, SimTime::from_secs(10)));
        store.append(Sample::gauge(k.clone(), 0.9, SimTime::from_secs(20)));
        assert_eq!(store.instant(&k, SimTime::from_secs(5)), None);
        assert_eq!(store.instant(&k, SimTime::from_secs(10)), Some(0.5));
        assert_eq!(store.instant(&k, SimTime::from_secs(15)), Some(0.5));
        assert_eq!(store.instant(&k, SimTime::from_secs(25)), Some(0.9));
        assert_eq!(store.series_count(), 1);
        assert_eq!(store.point_count(), 2);
        // Unknown series.
        assert_eq!(
            store.instant(&key("nope", "node-1"), SimTime::from_secs(30)),
            None
        );
    }

    #[test]
    fn interning_is_stable_and_resolvable() {
        let mut store = TimeSeriesStore::new();
        let a = store.intern(&key("m", "node-1"), MetricKind::Gauge);
        let b = store.intern(&key("m", "node-2"), MetricKind::Gauge);
        assert_ne!(a, b);
        // Re-interning returns the same id and does not change the kind.
        assert_eq!(store.intern(&key("m", "node-1"), MetricKind::Counter), a);
        assert_eq!(store.series[a.index()].kind, MetricKind::Gauge);
        assert_eq!(store.series_id(&key("m", "node-1")), Some(a));
        assert_eq!(store.series_id(&key("m", "node-9")), None);
        assert_eq!(store.key(b), &key("m", "node-2"));
        assert_eq!(store.ids_for_name("m"), &[a, b]);
        assert!(store.ids_for_name("other").is_empty());
        assert_eq!(format!("{}", SeriesId(4)), "s#4");
    }

    #[test]
    fn out_of_order_and_duplicate_samples_are_dropped() {
        let mut store = TimeSeriesStore::new();
        let k = key("node_load1", "node-1");
        store.append(Sample::gauge(k.clone(), 1.0, SimTime::from_secs(10)));
        store.append(Sample::gauge(k.clone(), 2.0, SimTime::from_secs(5)));
        assert_eq!(store.point_count(), 1);
        assert_eq!(store.instant(&k, SimTime::from_secs(30)), Some(1.0));
        // A duplicate sample for the tail timestamp is dropped (Prometheus's
        // "duplicate sample for timestamp" rule): the first write wins and the
        // instant is not double-counted by windowed aggregations.
        store.append(Sample::gauge(k.clone(), 3.0, SimTime::from_secs(10)));
        assert_eq!(store.point_count(), 1);
        assert_eq!(store.instant(&k, SimTime::from_secs(30)), Some(1.0));
        assert_eq!(
            store.avg_over(&k, SimTime::from_secs(10), SimDuration::from_secs(10)),
            Some(1.0)
        );
    }

    #[test]
    fn range_query_filters_window() {
        let mut store = TimeSeriesStore::new();
        let k = key("node_load1", "node-2");
        for i in 0..10u64 {
            store.append(Sample::gauge(
                k.clone(),
                i as f64,
                SimTime::from_secs(i * 10),
            ));
        }
        let pts = store.range(&k, SimTime::from_secs(25), SimTime::from_secs(55));
        assert_eq!(pts.len(), 3); // t = 30, 40, 50
        assert_eq!(pts[0].1, 3.0);
        assert_eq!(pts[2].1, 5.0);
        assert!(store
            .range(&key("x", "y"), SimTime::ZERO, SimTime::MAX)
            .is_empty());
    }

    #[test]
    fn rate_over_counter_window() {
        let mut store = TimeSeriesStore::new();
        let k = key("node_network_transmit_bytes_total", "node-1");
        // 1000 bytes/sec for 60 seconds, scraped every 15 s.
        for i in 0..=4u64 {
            store.append(Sample::counter(
                k.clone(),
                (i * 15_000) as f64,
                SimTime::from_secs(i * 15),
            ));
        }
        let rate = store
            .rate(&k, SimTime::from_secs(60), SimDuration::from_secs(30))
            .unwrap();
        assert!((rate - 1000.0).abs() < 1e-9);
        // Window too small for two samples.
        assert_eq!(
            store.rate(&k, SimTime::from_secs(60), SimDuration::from_secs(10)),
            None
        );
        // Gauges have no rate.
        let g = key("node_load1", "node-1");
        store.append(Sample::gauge(g.clone(), 1.0, SimTime::from_secs(0)));
        store.append(Sample::gauge(g.clone(), 2.0, SimTime::from_secs(30)));
        assert_eq!(
            store.rate(&g, SimTime::from_secs(60), SimDuration::from_secs(60)),
            None
        );
    }

    #[test]
    fn rate_clamps_counter_resets() {
        let mut store = TimeSeriesStore::new();
        let k = key("ctr", "node-1");
        store.append(Sample::counter(k.clone(), 1000.0, SimTime::from_secs(0)));
        store.append(Sample::counter(k.clone(), 10.0, SimTime::from_secs(10)));
        let r = store
            .rate(&k, SimTime::from_secs(10), SimDuration::from_secs(20))
            .unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn retention_prunes_old_points() {
        let mut store = TimeSeriesStore::with_retention(SimDuration::from_secs(30));
        let k = key("node_load1", "node-1");
        for i in 0..10u64 {
            store.append(Sample::gauge(
                k.clone(),
                i as f64,
                SimTime::from_secs(i * 10),
            ));
        }
        // Last timestamp is 90 s; retention 30 s keeps points at >= 60 s.
        assert_eq!(store.point_count(), 4);
        assert_eq!(store.instant(&k, SimTime::from_secs(55)), None);
        assert_eq!(store.instant(&k, SimTime::from_secs(95)), Some(9.0));
    }

    #[test]
    fn retention_cutoff_is_monotone_across_series() {
        let mut store = TimeSeriesStore::with_retention(SimDuration::from_secs(30));
        let a = key("node_load1", "node-a");
        let b = key("node_load1", "node-b");
        store.append(Sample::gauge(b.clone(), 1.0, SimTime::from_secs(60)));
        store.append(Sample::gauge(a.clone(), 1.0, SimTime::from_secs(100)));
        assert_eq!(store.max_ts, SimTime::from_secs(100));
        // A late sample for series b (in order for *b*) must prune b against
        // the watermark cutoff (100 - 30 = 70), not against its own stale
        // timestamp: the t = 60 point falls out even though 60 >= 75 - 30.
        store.append(Sample::gauge(b.clone(), 2.0, SimTime::from_secs(75)));
        assert_eq!(store.instant(&b, SimTime::MAX), Some(2.0));
        assert_eq!(store.range(&b, SimTime::ZERO, SimTime::MAX).len(), 1);
        // A late sample older than the whole retention window is discarded
        // outright rather than resurrecting already-pruned history.
        let c = key("node_load1", "node-c");
        store.append(Sample::gauge(c.clone(), 3.0, SimTime::from_secs(50)));
        assert_eq!(store.instant(&c, SimTime::MAX), None);
        assert!(store.range(&c, SimTime::ZERO, SimTime::MAX).is_empty());
        // The watermark never regressed.
        assert_eq!(store.max_ts, SimTime::from_secs(100));
    }

    #[test]
    fn instant_by_name_collects_all_nodes() {
        let mut store = TimeSeriesStore::new();
        for node in ["node-1", "node-2", "node-3"] {
            store.append(Sample::gauge(
                key("node_load1", node),
                1.0,
                SimTime::from_secs(10),
            ));
        }
        store.append(Sample::gauge(
            key("other_metric", "node-1"),
            5.0,
            SimTime::from_secs(10),
        ));
        let got = store.instant_by_name("node_load1", SimTime::from_secs(20));
        assert_eq!(got.len(), 3);
        assert!(got
            .iter()
            .all(|&(id, v)| store.key(id).name == "node_load1" && v == 1.0));
        // The per-name bucket and the instant query agree.
        assert_eq!(store.ids_for_name("node_load1").len(), 3);
    }

    #[test]
    fn avg_over_window() {
        let mut store = TimeSeriesStore::new();
        let k = key("node_load1", "node-1");
        for (t, v) in [(10u64, 1.0), (20, 2.0), (30, 3.0), (40, 4.0)] {
            store.append(Sample::gauge(k.clone(), v, SimTime::from_secs(t)));
        }
        let avg = store
            .avg_over(&k, SimTime::from_secs(40), SimDuration::from_secs(20))
            .unwrap();
        assert!((avg - 3.0).abs() < 1e-9); // points at 20, 30, 40
        assert_eq!(
            store.avg_over(&k, SimTime::from_secs(5), SimDuration::from_secs(2)),
            None
        );
    }

    #[test]
    fn keys_iterates_sorted() {
        let mut store = TimeSeriesStore::new();
        store.append(Sample::gauge(key("b_metric", "node-1"), 1.0, SimTime::ZERO));
        store.append(Sample::gauge(key("a_metric", "node-1"), 1.0, SimTime::ZERO));
        let names: Vec<&str> = store.keys().map(|k| k.name.as_str()).collect();
        assert_eq!(names, vec!["a_metric", "b_metric"]);
    }

    #[test]
    fn id_queries_match_key_queries() {
        let mut store = TimeSeriesStore::with_retention(SimDuration::from_secs(500));
        let k = key("ctr", "node-1");
        for i in 0..40u64 {
            store.append(Sample::counter(
                k.clone(),
                (i * i) as f64,
                SimTime::from_secs(i * 7),
            ));
        }
        let id = store.series_id(&k).unwrap();
        for t in [0u64, 35, 100, 273, 500] {
            let at = SimTime::from_secs(t);
            assert_eq!(store.instant(&k, at), store.instant_id(id, at));
            let w = SimDuration::from_secs(60);
            assert_eq!(store.rate(&k, at, w), store.rate_id(id, at, w));
            assert_eq!(store.avg_over(&k, at, w), store.avg_over_id(id, at, w));
            assert_eq!(
                store.range(&k, SimTime::from_secs(t / 2), at),
                store.range_id(id, SimTime::from_secs(t / 2), at)
            );
        }
    }
}
