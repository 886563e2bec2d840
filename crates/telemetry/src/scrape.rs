//! The scrape manager: the Prometheus server's scrape loop.
//!
//! The manager owns the store and an [`ExporterLayout`] — every exporter
//! series pre-interned to a [`crate::SeriesId`] — so steady-state scrapes
//! append raw values with zero key construction, and snapshot assembly
//! ([`ScrapeManager::snapshot_into`]) runs entirely over interned ids.
//!
//! It is single-owner and synchronous: one round is evaluate → append →
//! publish on the caller's thread. [`crate::ConcurrentScrapeManager`] is this
//! same manager behind one lock, plus a pipelined path for whole schedules
//! that commits a chunk of rounds at a time.
//!
//! **Cadence.** Periodic scrapes ([`ScrapeManager::scrape_if_due`]) fire on a
//! fixed schedule grid: a tick that arrives late still scrapes immediately,
//! but the *next* due time advances from the grid (`last_due + interval`),
//! not from the actual scrape time — one delayed caller can no longer
//! permanently phase-shift the cadence. An explicit [`ScrapeManager::scrape`]
//! is an operator action and re-anchors the grid at its own timestamp.

use crate::exporters::ExporterLayout;
use crate::publish::{PublishedSnapshot, SnapshotPublisher};
use crate::snapshot::{ClusterSnapshot, SnapshotSource};
use crate::store::{Append, TimeSeriesStore};
use cluster::ClusterState;
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};
use simnet::Network;
use std::sync::Arc;

/// Scrape configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScrapeConfig {
    /// Interval between scrapes (Prometheus default is 15 s; the paper scrapes
    /// frequently enough that decisions see fresh data).
    pub interval: SimDuration,
    /// Window used when deriving rates from counters.
    pub rate_window: SimDuration,
    /// Optional retention limit for the store.
    pub retention: Option<SimDuration>,
}

impl Default for ScrapeConfig {
    fn default() -> Self {
        ScrapeConfig {
            interval: SimDuration::from_secs(5),
            rate_window: SimDuration::from_secs(30),
            retention: Some(SimDuration::from_secs(3600)),
        }
    }
}

/// The grid-aligned scrape schedule: tracks when the next periodic scrape is
/// due and advances along the grid without drifting on late ticks.
#[derive(Debug, Clone, Copy, Default)]
struct ScrapeCadence {
    /// When the next periodic scrape is due (`None` = never scraped).
    next_due: Option<SimTime>,
}

impl ScrapeCadence {
    /// When the next scrape is due (immediately if never scraped).
    fn next_due(&self) -> SimTime {
        self.next_due.unwrap_or(SimTime::ZERO)
    }

    /// True when a periodic scrape is due at `now`.
    fn is_due(&self, now: SimTime) -> bool {
        now >= self.next_due()
    }

    /// Re-anchor the grid at `now` (an explicit operator scrape).
    fn reanchor(&mut self, now: SimTime, interval: SimDuration) {
        self.next_due = Some(now + interval);
    }

    /// Advance the due time along the schedule grid past `now`
    /// (`due + k·interval`), skipping missed ticks in O(1), so a delayed tick
    /// does not drift the due times of subsequent scrapes.
    fn advance_on_grid(&mut self, now: SimTime, interval: SimDuration) {
        if interval.is_zero() {
            self.next_due = Some(now);
            return;
        }
        let due = self.next_due();
        let gap = now.as_nanos().saturating_sub(due.as_nanos());
        let steps = gap / interval.as_nanos() + 1;
        self.next_due = Some(SimTime::from_nanos(
            due.as_nanos()
                .saturating_add(steps.saturating_mul(interval.as_nanos())),
        ));
    }
}

/// Drives the exporters on a fixed interval and stores the samples.
#[derive(Debug, Clone)]
pub struct ScrapeManager {
    config: ScrapeConfig,
    store: TimeSeriesStore,
    /// Interned exporter series; rebuilt only when the cluster's node table
    /// changes. Behind an `Arc` so the pipelined ingest can evaluate through
    /// it on other threads while this manager sits behind its lock.
    layout: Option<Arc<ExporterLayout>>,
    cadence: ScrapeCadence,
    scrape_count: u64,
    /// Epoch publisher (see [`crate::publish`]), activated lazily by
    /// [`ScrapeManager::published_handle`]: once active, every scrape also publishes
    /// an immutable snapshot of the new state. Cloning the manager detaches
    /// the clone's publisher (fresh epochs; the original's handles keep
    /// observing only the original).
    publisher: Option<SnapshotPublisher>,
    /// Timestamp of the last scrape (publish-on-activation support).
    last_scrape: Option<SimTime>,
}

impl ScrapeManager {
    /// Create a manager with the given configuration.
    pub fn new(config: ScrapeConfig) -> Self {
        let store = match config.retention {
            Some(r) => TimeSeriesStore::with_retention(r),
            None => TimeSeriesStore::new(),
        };
        ScrapeManager {
            config,
            store,
            layout: None,
            cadence: ScrapeCadence::default(),
            scrape_count: 0,
            publisher: None,
            last_scrape: None,
        }
    }

    /// A cheap cloneable handle over epoch-published immutable snapshots
    /// (see [`crate::publish`]): one consistent snapshot per scrape,
    /// resolved by readers with an atomic load plus an `Arc` clone — never
    /// touching the store. Publishing activates on the first call; state
    /// scraped before activation is published immediately.
    pub fn published_handle(&mut self) -> PublishedSnapshot {
        if self.publisher.is_none() {
            self.publisher = Some(SnapshotPublisher::new());
            if let Some(at) = self.last_scrape {
                self.publish(at);
            }
        }
        self.publisher.as_ref().expect("publisher active").handle()
    }

    /// Record a scrape at `at` and, when publishing is active, publish the
    /// next epoch: the state at `at` under the configured rate window
    /// (copy-on-write over the buffer of four epochs ago).
    fn publish(&mut self, at: SimTime) {
        self.last_scrape = Some(at);
        if let Some(mut publisher) = self.publisher.take() {
            publisher.publish_with(|snap| self.snapshot_into(at, self.config.rate_window, snap));
            self.publisher = Some(publisher);
        }
    }

    /// The scrape configuration.
    pub fn config(&self) -> &ScrapeConfig {
        &self.config
    }

    /// Read access to the underlying store.
    pub fn store(&self) -> &TimeSeriesStore {
        &self.store
    }

    /// The interned exporter layout, once the first scrape has built it.
    pub fn layout(&self) -> Option<&ExporterLayout> {
        self.layout.as_deref()
    }

    /// When the next scrape is due (immediately if never scraped).
    pub fn next_scrape_due(&self) -> SimTime {
        self.cadence.next_due()
    }

    /// Number of scrapes performed.
    pub fn scrape_count(&self) -> u64 {
        self.scrape_count
    }

    /// The interned layout for `cluster`, built (or rebuilt) when the
    /// cluster's node table changed.
    pub(crate) fn ensure_layout(&mut self, cluster: &ClusterState) -> Arc<ExporterLayout> {
        if !self.layout.as_ref().is_some_and(|l| l.matches(cluster)) {
            self.layout = Some(Arc::new(ExporterLayout::build(cluster, &mut self.store)));
        }
        Arc::clone(self.layout.as_ref().expect("layout built above"))
    }

    /// One scrape round: run the exporters through the interned layout
    /// straight into the store, then publish.
    fn scrape_inner(&mut self, cluster: &ClusterState, network: &Network, now: SimTime) {
        let layout = self.ensure_layout(cluster);
        let store = &mut self.store;
        layout.scrape_into(cluster, network, now, |id, value| {
            store.append_value(id, value, now)
        });
        self.scrape_count += 1;
        self.publish(now);
    }

    /// Commit a chunk of `rounds` whole scrape rounds evaluated elsewhere
    /// (`chunk`, in schedule order, the last round at `at`): what `rounds`
    /// explicit [`ScrapeManager::scrape`]s leave behind, with one retention
    /// prune and one published epoch for the whole chunk.
    pub(crate) fn commit_chunk(&mut self, chunk: &[Append], rounds: usize, at: SimTime) {
        self.store.append_chunk(chunk);
        self.scrape_count += rounds as u64;
        self.publish(at);
        self.cadence.reanchor(at, self.config.interval);
    }

    /// Perform one explicit scrape of all exporters at time `now`,
    /// re-anchoring the periodic schedule grid at `now`.
    pub fn scrape(&mut self, cluster: &ClusterState, network: &Network, now: SimTime) {
        self.scrape_inner(cluster, network, now);
        self.cadence.reanchor(now, self.config.interval);
    }

    /// Scrape only if the next grid-aligned due time has been reached.
    /// Returns `true` when a scrape happened. The next due time advances on
    /// the schedule grid (`due + k·interval`), so a delayed tick does not
    /// drift the due times of subsequent scrapes.
    pub fn scrape_if_due(
        &mut self,
        cluster: &ClusterState,
        network: &Network,
        now: SimTime,
    ) -> bool {
        if !self.cadence.is_due(now) {
            return false;
        }
        self.scrape_inner(cluster, network, now);
        self.cadence.advance_on_grid(now, self.config.interval);
        true
    }

    /// Assemble the scheduler-facing snapshot at `at` into `snap`, reusing
    /// its storage. Uses the interned layout when available (the hot path —
    /// no name resolution, cost independent of retained history), falling
    /// back to the generic store walk before the first scrape.
    pub fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        match &self.layout {
            Some(layout) => layout.snapshot_into(&self.store, at, rate_window, snap),
            None => snap.assemble_from_store(&self.store, at, rate_window),
        }
    }
}

impl SnapshotSource for ScrapeManager {
    fn snapshot_into(&self, at: SimTime, rate_window: SimDuration, snap: &mut ClusterSnapshot) {
        ScrapeManager::snapshot_into(self, at, rate_window, snap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{METRIC_NODE_LOAD1, METRIC_PING_RTT};
    use cluster::{Node, Resources};
    use simnet::{gbps, mbps, NodeId, TopologyBuilder};

    fn setup() -> (ClusterState, Network) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("UCSD", SimDuration::from_micros(200), gbps(10.0));
        let s1 = b.add_site("FIU", SimDuration::from_micros(200), gbps(10.0));
        b.add_node("node-1", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-2", s1, gbps(1.0), gbps(1.0));
        b.connect_sites(s0, s1, SimDuration::from_millis(10), mbps(500.0));
        let network = Network::new(b.build().unwrap());
        let mut cluster = ClusterState::new();
        cluster.add_node(Node::new(
            "node-1",
            NodeId(0),
            Resources::from_cores_and_gib(6, 8),
            "UCSD",
        ));
        cluster.add_node(Node::new(
            "node-2",
            NodeId(1),
            Resources::from_cores_and_gib(6, 8),
            "FIU",
        ));
        (cluster, network)
    }

    #[test]
    fn scrape_populates_store() {
        let (cluster, network) = setup();
        let mut mgr = ScrapeManager::new(ScrapeConfig::default());
        assert_eq!(mgr.scrape_count(), 0);
        assert!(mgr.layout().is_none());
        mgr.scrape(&cluster, &network, SimTime::from_secs(10));
        assert_eq!(mgr.scrape_count(), 1);
        assert!(mgr.layout().is_some());
        // 2 nodes x 4 node metrics + 2 ping pairs = 10 series.
        assert_eq!(mgr.store().series_count(), 10);
        assert_eq!(
            mgr.store()
                .instant_by_name(METRIC_NODE_LOAD1, SimTime::from_secs(20))
                .len(),
            2
        );
        assert_eq!(
            mgr.store()
                .instant_by_name(METRIC_PING_RTT, SimTime::from_secs(20))
                .len(),
            2
        );
    }

    #[test]
    fn scrape_if_due_respects_interval() {
        let (cluster, network) = setup();
        let mut mgr = ScrapeManager::new(ScrapeConfig {
            interval: SimDuration::from_secs(15),
            ..Default::default()
        });
        assert_eq!(mgr.next_scrape_due(), SimTime::ZERO);
        assert!(mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(0)));
        assert!(!mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(10)));
        assert_eq!(mgr.next_scrape_due(), SimTime::from_secs(15));
        assert!(mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(15)));
        assert_eq!(mgr.scrape_count(), 2);
    }

    #[test]
    fn delayed_tick_does_not_drift_the_grid() {
        let (cluster, network) = setup();
        let mut mgr = ScrapeManager::new(ScrapeConfig {
            interval: SimDuration::from_secs(15),
            ..Default::default()
        });
        assert!(mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(0)));
        // The t=15 tick arrives 3 s late: it scrapes, but the next due time
        // stays on the grid (30 s), not 18 + 15.
        assert!(mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(18)));
        assert_eq!(mgr.next_scrape_due(), SimTime::from_secs(30));
        assert!(!mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(29)));
        assert!(mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(30)));
        assert_eq!(mgr.next_scrape_due(), SimTime::from_secs(45));
        // A very late tick skips the missed grid points entirely (no burst of
        // catch-up scrapes) and lands on the next future grid point.
        assert!(mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(100)));
        assert_eq!(mgr.next_scrape_due(), SimTime::from_secs(105));
        assert_eq!(mgr.scrape_count(), 4);
    }

    #[test]
    fn explicit_scrape_reanchors_the_grid() {
        let (cluster, network) = setup();
        let mut mgr = ScrapeManager::new(ScrapeConfig {
            interval: SimDuration::from_secs(15),
            ..Default::default()
        });
        assert!(mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(0)));
        // An operator-style scrape at t=7 restarts the cadence from there.
        mgr.scrape(&cluster, &network, SimTime::from_secs(7));
        assert_eq!(mgr.next_scrape_due(), SimTime::from_secs(22));
    }

    #[test]
    fn repeated_scrapes_accumulate_points() {
        let (cluster, network) = setup();
        let mut mgr = ScrapeManager::new(ScrapeConfig::default());
        for i in 0..5u64 {
            mgr.scrape(&cluster, &network, SimTime::from_secs(i * 5));
        }
        assert_eq!(mgr.store().point_count(), 10 * 5);
        assert_eq!(mgr.config().rate_window, SimDuration::from_secs(30));
    }

    #[test]
    fn no_retention_config_is_supported() {
        let (cluster, network) = setup();
        let mut mgr = ScrapeManager::new(ScrapeConfig {
            retention: None,
            ..Default::default()
        });
        mgr.scrape(&cluster, &network, SimTime::from_secs(1));
        assert!(mgr.store().point_count() > 0);
    }

    #[test]
    fn snapshot_into_matches_generic_assembly() {
        let (cluster, network) = setup();
        let mut mgr = ScrapeManager::new(ScrapeConfig::default());
        // Before any scrape: the generic fallback yields an empty snapshot.
        let mut snap = ClusterSnapshot::default();
        mgr.snapshot_into(SimTime::from_secs(1), SimDuration::from_secs(30), &mut snap);
        assert!(snap.is_empty());

        for i in 0..8u64 {
            mgr.scrape_if_due(&cluster, &network, SimTime::from_secs(i * 5));
        }
        let at = SimTime::from_secs(36);
        let window = SimDuration::from_secs(30);
        mgr.snapshot_into(at, window, &mut snap);
        let generic = ClusterSnapshot::from_store(mgr.store(), at, window);
        assert_eq!(snap, generic);
        assert_eq!(snap.node_names(), vec!["node-1", "node-2"]);
    }
}
