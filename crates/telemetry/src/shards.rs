//! Sharding the time-series store by metric name.
//!
//! [`TimeSeriesStore`](crate::TimeSeriesStore) is one flat series table; on
//! clusters beyond a few hundred nodes every append and every retention prune
//! serializes on it. The store's per-metric-name `SeriesId` buckets are the
//! natural split, so the concurrent ingest pipeline (`crate::ingest`) keeps
//! one flat store per shard, each behind its own lock, and routes by metric
//! name:
//!
//! * [`ShardRouter`] — the stable name → shard mapping (FNV-1a over the
//!   metric name, modulo the shard count). Every series of one metric name
//!   lands in one shard, so per-name queries still touch a single bucket.
//! * [`ShardedSeriesId`] — a [`SeriesId`] qualified with its shard: the
//!   interned identity the sharded exporter layout carries.
//!
//! That the sharded layout answers exactly like one flat store fed the same
//! samples is pinned where it is live: the ingest tests compare the
//! concurrent manager byte for byte against [`crate::ScrapeManager`].

use crate::store::SeriesId;
use std::fmt;

/// Stable metric-name → shard routing: FNV-1a over the name bytes, modulo the
/// shard count. Deterministic across runs and processes (no `RandomState`),
/// so shard assignment — and therefore store layout — is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shard_count: usize,
}

impl ShardRouter {
    /// A router over `shard_count` shards (clamped to at least 1).
    pub fn new(shard_count: usize) -> Self {
        ShardRouter {
            shard_count: shard_count.max(1),
        }
    }

    /// Number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// The shard a metric name routes to. All series of one metric name land
    /// in the same shard, preserving the per-name bucket locality the flat
    /// store's `ids_for_name` relies on.
    pub fn shard_of(&self, metric_name: &str) -> usize {
        // FNV-1a, 64-bit.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in metric_name.as_bytes() {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (hash % self.shard_count as u64) as usize
    }
}

/// Interned series identity in a sharded store: which shard, plus the
/// shard-local [`SeriesId`]. Same role (and same `Copy` discipline) as
/// [`SeriesId`] in the flat store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardedSeriesId {
    /// Index of the owning shard.
    pub shard: u16,
    /// Series id within that shard's intern table.
    pub series: SeriesId,
}

impl fmt::Display for ShardedSeriesId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard#{}/{}", self.shard, self.series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricKind, SeriesKey};
    use crate::store::TimeSeriesStore;

    #[test]
    fn router_is_stable_and_in_range() {
        for count in [1usize, 2, 5, 8] {
            let router = ShardRouter::new(count);
            assert_eq!(router.shard_count(), count);
            for name in ["node_load1", "ping_rtt_seconds", "x", ""] {
                let shard = router.shard_of(name);
                assert!(shard < count);
                assert_eq!(shard, router.shard_of(name), "routing must be stable");
            }
        }
        // Zero shards clamps to one.
        assert_eq!(ShardRouter::new(0).shard_count(), 1);
        assert_eq!(ShardRouter::new(0).shard_of("anything"), 0);
    }

    #[test]
    fn one_metric_name_lands_in_one_shard() {
        // Routing reads the metric name alone, never the labels, so every
        // series of one name shares a shard and a shard-local intern table.
        let router = ShardRouter::new(4);
        let mut shards = vec![TimeSeriesStore::new(); router.shard_count()];
        let ids: Vec<ShardedSeriesId> = (0..6)
            .map(|i| {
                let key = SeriesKey::per_node("node_load1", &format!("node-{i}"));
                let shard = router.shard_of(&key.name);
                ShardedSeriesId {
                    shard: shard as u16,
                    series: shards[shard].intern(&key, MetricKind::Gauge),
                }
            })
            .collect();
        let shard = ids[0].shard;
        assert!(ids.iter().all(|id| id.shard == shard));
        assert_eq!(shards[shard as usize].series_count(), 6);
        assert_eq!(format!("{}", ids[0]), format!("shard#{shard}/s#0"));
    }
}
