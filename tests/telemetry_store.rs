//! Differential property tests for the interned telemetry store.
//!
//! The store was rewritten around interned [`SeriesId`]s, per-name bucket
//! indexes and `partition_point` window slicing. These tests pin the rewrite
//! against a naive reference implementation (linear scans, owned vectors,
//! the documented append semantics) over random append/query sequences —
//! including out-of-order samples, duplicate timestamps and retention — and
//! pin the interned scrape→snapshot fast path against the generic
//! store-walking assembly.

use netsched::cluster::{ClusterState, Node, Resources};
use netsched::simcore::{SimDuration, SimTime};
use netsched::simnet::{gbps, mbps, Network, TopologyBuilder};
use netsched::telemetry::{
    ClusterSnapshot, MetricKind, Sample, ScrapeConfig, ScrapeManager, SeriesKey, TimeSeriesStore,
};
use netsched::SimNodeId;
use proptest::prelude::*;

/// One reference series: key, kind and time-ordered points.
type NaiveSeries = (SeriesKey, MetricKind, Vec<(SimTime, f64)>);

/// The documented store semantics, implemented the obvious slow way: owned
/// key/point vectors, full linear scans, a fresh `Vec` per windowed query.
#[derive(Default)]
struct NaiveStore {
    series: Vec<NaiveSeries>,
    retention: Option<SimDuration>,
    /// Newest timestamp ever accepted: the retention cutoff is monotone in
    /// this watermark (an out-of-order late sample must not compute a stale,
    /// earlier cutoff).
    max_ts: SimTime,
}

impl NaiveStore {
    fn with_retention(retention: Option<SimDuration>) -> Self {
        NaiveStore {
            series: Vec::new(),
            retention,
            max_ts: SimTime::ZERO,
        }
    }

    fn append(&mut self, key: &SeriesKey, kind: MetricKind, value: f64, t: SimTime) {
        let at = match self.series.iter().position(|(k, _, _)| k == key) {
            Some(at) => at,
            None => {
                self.series.push((key.clone(), kind, Vec::new()));
                self.series.len() - 1
            }
        };
        let entry = &mut self.series[at];
        if let Some(&(last_t, _)) = entry.2.last() {
            // Out-of-order and duplicate-timestamp samples are dropped.
            if t <= last_t {
                return;
            }
        }
        self.max_ts = self.max_ts.max(t);
        entry.2.push((t, value));
        if let Some(retention) = self.retention {
            let cutoff =
                SimTime::from_nanos(self.max_ts.as_nanos().saturating_sub(retention.as_nanos()));
            entry.2.retain(|&(pt, _)| pt >= cutoff);
        }
    }

    fn points(&self, key: &SeriesKey) -> &[(SimTime, f64)] {
        self.series
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, _, p)| p.as_slice())
            .unwrap_or(&[])
    }

    fn instant(&self, key: &SeriesKey, at: SimTime) -> Option<f64> {
        self.points(key)
            .iter()
            .rfind(|&&(t, _)| t <= at)
            .map(|&(_, v)| v)
    }

    fn range(&self, key: &SeriesKey, from: SimTime, to: SimTime) -> Vec<(SimTime, f64)> {
        self.points(key)
            .iter()
            .copied()
            .filter(|&(t, _)| t >= from && t <= to)
            .collect()
    }

    fn rate(&self, key: &SeriesKey, at: SimTime, window: SimDuration) -> Option<f64> {
        let (_, kind, _) = self.series.iter().find(|(k, _, _)| k == key)?;
        if *kind != MetricKind::Counter {
            return None;
        }
        let from = SimTime::from_nanos(at.as_nanos().saturating_sub(window.as_nanos()));
        let pts = self.range(key, from, at);
        if pts.len() < 2 {
            return None;
        }
        let (t0, v0) = pts[0];
        let (t1, v1) = pts[pts.len() - 1];
        let dt = (t1 - t0).as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        Some(((v1 - v0).max(0.0)) / dt)
    }

    fn avg_over(&self, key: &SeriesKey, at: SimTime, window: SimDuration) -> Option<f64> {
        let from = SimTime::from_nanos(at.as_nanos().saturating_sub(window.as_nanos()));
        let pts = self.range(key, from, at);
        if pts.is_empty() {
            return None;
        }
        Some(pts.iter().map(|&(_, v)| v).sum::<f64>() / pts.len() as f64)
    }

    fn instant_by_name(&self, name: &str, at: SimTime) -> Vec<(SeriesKey, f64)> {
        self.series
            .iter()
            .filter(|(k, _, _)| k.name == name)
            .filter_map(|(k, _, _)| self.instant(k, at).map(|v| (k.clone(), v)))
            .collect()
    }

    fn point_count(&self) -> usize {
        self.series.iter().map(|(_, _, p)| p.len()).sum()
    }
}

/// The series universe the generator draws from: two counters, four gauges,
/// across two metric names and three instances.
fn universe() -> Vec<(SeriesKey, MetricKind)> {
    let mut keys = Vec::new();
    for instance in ["node-1", "node-2", "node-3"] {
        keys.push((
            SeriesKey::per_node("bytes_total", instance),
            MetricKind::Counter,
        ));
        keys.push((SeriesKey::per_node("load", instance), MetricKind::Gauge));
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random append/query sequences produce identical answers from the
    /// interned store and the naive reference, with and without retention.
    #[test]
    fn interned_store_matches_naive_reference(
        ops in prop::collection::vec((0usize..6, 0u64..90, 0.0f64..1e6), 1..140),
        queries in prop::collection::vec((0usize..6, 0u64..120, 1u64..80), 1..24),
        retention_secs in 0u64..100,
    ) {
        let keys = universe();
        let retention = if retention_secs < 20 {
            None
        } else {
            Some(SimDuration::from_secs(retention_secs))
        };
        let mut fast = match retention {
            Some(r) => TimeSeriesStore::with_retention(r),
            None => TimeSeriesStore::new(),
        };
        let mut naive = NaiveStore::with_retention(retention);

        for &(series, t, value) in &ops {
            let (key, kind) = &keys[series];
            let at = SimTime::from_secs(t);
            let sample = match kind {
                MetricKind::Counter => Sample::counter(key.clone(), value, at),
                MetricKind::Gauge => Sample::gauge(key.clone(), value, at),
            };
            fast.append(sample);
            naive.append(key, *kind, value, at);
        }

        prop_assert_eq!(fast.series_count(), naive.series.len());
        prop_assert_eq!(fast.point_count(), naive.point_count());

        for &(series, at, window) in &queries {
            let (key, _) = &keys[series];
            let at = SimTime::from_secs(at);
            let window = SimDuration::from_secs(window);
            prop_assert_eq!(fast.instant(key, at), naive.instant(key, at));
            prop_assert_eq!(fast.rate(key, at, window), naive.rate(key, at, window));
            prop_assert_eq!(fast.avg_over(key, at, window), naive.avg_over(key, at, window));
            let from = SimTime::from_secs(at.as_secs_f64() as u64 / 2);
            prop_assert_eq!(fast.range(key, from, at), &naive.range(key, from, at)[..]);
        }

        // Per-name bucket queries agree with the naive full scan (same
        // key→value set; the interned store reports ids).
        for name in ["bytes_total", "load", "missing"] {
            let at = SimTime::from_secs(60);
            let mut fast_pairs: Vec<(SeriesKey, f64)> = fast
                .instant_by_name(name, at)
                .into_iter()
                .map(|(id, v)| (fast.key(id).clone(), v))
                .collect();
            let mut naive_pairs = naive.instant_by_name(name, at);
            fast_pairs.sort_by(|a, b| a.0.cmp(&b.0));
            naive_pairs.sort_by(|a, b| a.0.cmp(&b.0));
            prop_assert_eq!(fast_pairs, naive_pairs);
        }
    }

    /// The interned scrape→snapshot fast path (pre-interned SeriesIds, dense
    /// id-indexed assembly) produces exactly the snapshot the generic
    /// store-walking path builds, at arbitrary fetch times.
    #[test]
    fn interned_snapshot_path_matches_generic_assembly(
        scrape_steps in prop::collection::vec(1u64..12, 1..16),
        fetch_offsets in prop::collection::vec(0u64..70, 1..6),
        rate_window in 5u64..60,
    ) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("A", SimDuration::from_micros(200), gbps(10.0));
        let s1 = b.add_site("B", SimDuration::from_micros(200), gbps(10.0));
        b.add_node("node-1", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-2", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-3", s1, gbps(1.0), gbps(1.0));
        b.connect_sites(s0, s1, SimDuration::from_millis(20), mbps(500.0));
        let network = Network::new(b.build().unwrap());
        let mut cluster = ClusterState::new();
        for (i, name) in ["node-1", "node-2", "node-3"].iter().enumerate() {
            cluster.add_node(Node::new(
                *name,
                SimNodeId(i),
                Resources::from_cores_and_gib(6, 8),
                if i < 2 { "A" } else { "B" },
            ));
        }

        let mut mgr = ScrapeManager::new(ScrapeConfig::default());
        let mut now = SimTime::ZERO;
        for &step in &scrape_steps {
            now += SimDuration::from_secs(step);
            mgr.scrape(&cluster, &network, now);
        }

        let window = SimDuration::from_secs(rate_window);
        let mut reused = ClusterSnapshot::default();
        for &offset in &fetch_offsets {
            let at = SimTime::from_secs(offset);
            let generic = ClusterSnapshot::from_store(mgr.store(), at, window);
            mgr.snapshot_into(at, window, &mut reused);
            prop_assert_eq!(&reused, &generic);
        }
    }
}
