//! The two exporters the paper deploys.
//!
//! * **Node exporter** — per-node host metrics: 1-minute load average,
//!   available memory, cumulative transmit/receive byte counters.
//! * **Ping-mesh exporter** — a DaemonSet probing every other node and
//!   exporting the observed RTT (the paper uses `ping_exporter`).
//!
//! [`ExporterLayout`] is the one implementation every scrape runs: it interns
//! every series key into the store **once** and caches the [`SeriesId`]s, so
//! each subsequent scrape appends raw values without constructing a single
//! `SeriesKey` or `String` — and the snapshot can be assembled back out of
//! the store through the same ids. It holds the one interned evaluation loop
//! ([`ExporterLayout::scrape_into`]): a single round appends its
//! `(series, value)` pairs straight into the store, the pipelined ingest of
//! [`crate::ingest`] pushes them onto a chunk batch. The unit tests keep the
//! two exporters as plain sample-producing functions, the reference the
//! layout is checked against.

use crate::metrics::{MetricKind, SeriesKey};
use crate::snapshot::{ClusterSnapshot, NodeTelemetry};
use crate::store::{SeriesId, TimeSeriesStore};
use crate::{
    METRIC_NODE_LOAD1, METRIC_NODE_MEM_AVAILABLE, METRIC_NODE_RX_BYTES, METRIC_NODE_TX_BYTES,
    METRIC_PING_RTT,
};
use cluster::ClusterState;
use simcore::{SimDuration, SimTime};
use simnet::Network;

/// Deterministic jitter seed for a (source, target, time) triple.
pub(crate) fn pair_seed(a: u64, b: u64, now: SimTime) -> u64 {
    let mut h = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    h ^= now.as_nanos().wrapping_mul(0x1656_67B1_9E37_79F9);
    h
}

/// The interned exporter set for one cluster: every series the node and
/// ping-mesh exporters emit, pre-interned into a store.
///
/// Built once (and rebuilt only if the cluster's node table changes); after
/// that, scraping ([`ExporterLayout::scrape_into`]) and snapshot assembly
/// (`ExporterLayout::snapshot_into`) are pure id-indexed work: no
/// `SeriesKey` construction, no label lookups, no `String` round-trips.
#[derive(Debug, Clone)]
pub struct ExporterLayout {
    /// Node names in cluster [`cluster::NodeId`] order.
    pub(crate) node_names: Vec<String>,
    /// Network interface of each node, aligned with `node_names`.
    pub(crate) net_ids: Vec<simnet::NodeId>,
    /// `node_load1` series per node.
    pub(crate) load1: Vec<SeriesId>,
    /// `node_memory_MemAvailable_bytes` series per node.
    pub(crate) mem: Vec<SeriesId>,
    /// `node_network_transmit_bytes_total` series per node.
    pub(crate) tx: Vec<SeriesId>,
    /// `node_network_receive_bytes_total` series per node.
    pub(crate) rx: Vec<SeriesId>,
    /// `(source index, target index, series)` per ordered ping pair.
    pub(crate) pings: Vec<(u32, u32, SeriesId)>,
}

impl ExporterLayout {
    /// Intern every exporter series for `cluster` into `store` and capture
    /// the resulting ids. Intern order matches the sample order of the
    /// reference exporters (per node: load, memory, tx, rx; then the ordered
    /// ping pairs) so the store's per-name buckets stay in cluster order.
    pub fn build(cluster: &ClusterState, store: &mut TimeSeriesStore) -> Self {
        let nodes = cluster.nodes();
        let mut layout = ExporterLayout {
            node_names: Vec::with_capacity(nodes.len()),
            net_ids: Vec::with_capacity(nodes.len()),
            load1: Vec::with_capacity(nodes.len()),
            mem: Vec::with_capacity(nodes.len()),
            tx: Vec::with_capacity(nodes.len()),
            rx: Vec::with_capacity(nodes.len()),
            pings: Vec::with_capacity(nodes.len() * nodes.len().saturating_sub(1)),
        };
        for node in nodes {
            let instance = node.name.as_str();
            layout.node_names.push(node.name.clone());
            layout.net_ids.push(node.net_id);
            layout.load1.push(store.intern(
                &SeriesKey::per_node(METRIC_NODE_LOAD1, instance),
                MetricKind::Gauge,
            ));
            layout.mem.push(store.intern(
                &SeriesKey::per_node(METRIC_NODE_MEM_AVAILABLE, instance),
                MetricKind::Gauge,
            ));
            layout.tx.push(store.intern(
                &SeriesKey::per_node(METRIC_NODE_TX_BYTES, instance),
                MetricKind::Counter,
            ));
            layout.rx.push(store.intern(
                &SeriesKey::per_node(METRIC_NODE_RX_BYTES, instance),
                MetricKind::Counter,
            ));
        }
        for (a, node_a) in nodes.iter().enumerate() {
            for (b, node_b) in nodes.iter().enumerate() {
                if a == b {
                    continue;
                }
                let id = store.intern(
                    &SeriesKey::new(
                        METRIC_PING_RTT,
                        &[
                            ("source", node_a.name.as_str()),
                            ("target", node_b.name.as_str()),
                        ],
                    ),
                    MetricKind::Gauge,
                );
                layout.pings.push((a as u32, b as u32, id));
            }
        }
        layout
    }

    /// True when this layout still describes `cluster`'s node table — same
    /// names in the same order *and* the same network interfaces (a rebuilt
    /// cluster can keep node names while permuting `net_id`s; reusing the
    /// cached ids would then scrape the wrong interface's counters).
    pub(crate) fn matches(&self, cluster: &ClusterState) -> bool {
        cluster.names_match(&self.node_names)
            && cluster
                .nodes()
                .iter()
                .zip(&self.net_ids)
                .all(|(node, &net_id)| node.net_id == net_id)
    }

    /// Evaluate every exporter series at `now` through the pre-interned ids,
    /// handing each `(series, value)` to `sink` — appended straight into the
    /// store by a single scrape round, pushed onto a chunk batch by the
    /// pipelined ingest. Emits exactly the samples of the node and ping-mesh
    /// exporters (the unit tests' sample-producing reference), in their
    /// order, without building any of them; a pure function of
    /// `(cluster, network, now)`, which is what lets rounds evaluate
    /// concurrently.
    pub fn scrape_into(
        &self,
        cluster: &ClusterState,
        network: &Network,
        now: SimTime,
        mut sink: impl FnMut(SeriesId, f64),
    ) {
        for (i, node) in cluster.nodes().iter().enumerate() {
            let counters = network.counters(self.net_ids[i]);
            sink(self.load1[i], node.cpu_load());
            sink(self.mem[i], node.memory_available());
            sink(self.tx[i], counters.tx_bytes);
            sink(self.rx[i], counters.rx_bytes);
        }
        for &(a, b, id) in &self.pings {
            let (src, dst) = (self.net_ids[a as usize], self.net_ids[b as usize]);
            let seed = pair_seed(src.0 as u64, dst.0 as u64, now);
            sink(id, network.current_rtt(src, dst, seed).as_secs_f64());
        }
    }

    /// Assemble the scheduler-facing snapshot at `at` straight through the
    /// interned ids, reusing `snap`'s storage. Produces exactly what
    /// [`ClusterSnapshot::from_store`] would, minus every name lookup. A
    /// scratch snapshot that already holds this layout's node table keeps it.
    pub(crate) fn snapshot_into(
        &self,
        store: &TimeSeriesStore,
        at: SimTime,
        rate_window: SimDuration,
        snap: &mut ClusterSnapshot,
    ) {
        snap.reset_for(at, &self.node_names);
        for i in 0..self.node_names.len() {
            let load = store.instant_id(self.load1[i], at);
            let mem = store.instant_id(self.mem[i], at);
            if load.is_none() && mem.is_none() {
                continue;
            }
            snap.set_node_by_id(
                cluster::NodeId(i as u32),
                NodeTelemetry {
                    cpu_load: load.unwrap_or(0.0),
                    memory_available_bytes: mem.unwrap_or(0.0),
                    tx_rate: store.rate_id(self.tx[i], at, rate_window).unwrap_or(0.0),
                    rx_rate: store.rate_id(self.rx[i], at, rate_window).unwrap_or(0.0),
                },
            );
        }
        for &(a, b, id) in &self.pings {
            if let Some(rtt) = store.instant_id(id, at) {
                snap.insert_rtt_by_id(cluster::NodeId(a), cluster::NodeId(b), rtt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Sample;
    use cluster::{Node, Resources};
    use simcore::SimDuration;
    use simnet::{gbps, mbps, FlowId, NodeId, TopologyBuilder};

    /// Collect node-exporter samples for every node in the cluster.
    ///
    /// Counters (tx/rx bytes) come from the network's interface counters; gauges
    /// (load, available memory) come from the cluster's host-load model.
    fn node_exporter_samples(
        cluster: &ClusterState,
        network: &Network,
        now: SimTime,
    ) -> Vec<Sample> {
        let mut samples = Vec::with_capacity(cluster.nodes().len() * 4);
        for node in cluster.nodes() {
            let instance = node.name.as_str();
            let counters = network.counters(node.net_id);
            samples.push(Sample::gauge(
                SeriesKey::per_node(METRIC_NODE_LOAD1, instance),
                node.cpu_load(),
                now,
            ));
            samples.push(Sample::gauge(
                SeriesKey::per_node(METRIC_NODE_MEM_AVAILABLE, instance),
                node.memory_available(),
                now,
            ));
            samples.push(Sample::counter(
                SeriesKey::per_node(METRIC_NODE_TX_BYTES, instance),
                counters.tx_bytes,
                now,
            ));
            samples.push(Sample::counter(
                SeriesKey::per_node(METRIC_NODE_RX_BYTES, instance),
                counters.rx_bytes,
                now,
            ));
        }
        samples
    }

    /// Collect full-mesh ping samples: one `ping_rtt_seconds{source, target}`
    /// gauge per ordered node pair (excluding self-pairs).
    ///
    /// The jitter seed mixes the pair identity and the scrape time so repeated
    /// scrapes see realistic variation while remaining reproducible.
    fn ping_mesh_samples(cluster: &ClusterState, network: &Network, now: SimTime) -> Vec<Sample> {
        let nodes = cluster.nodes();
        let mut samples = Vec::with_capacity(nodes.len() * nodes.len());
        for a in nodes {
            for b in nodes {
                if a.name == b.name {
                    continue;
                }
                let seed = pair_seed(a.net_id.0 as u64, b.net_id.0 as u64, now);
                let rtt = network.current_rtt(a.net_id, b.net_id, seed);
                samples.push(Sample::gauge(
                    SeriesKey::new(
                        METRIC_PING_RTT,
                        &[("source", a.name.as_str()), ("target", b.name.as_str())],
                    ),
                    rtt.as_secs_f64(),
                    now,
                ));
            }
        }
        samples
    }

    fn setup() -> (ClusterState, Network) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("UCSD", SimDuration::from_micros(200), gbps(10.0));
        let s1 = b.add_site("FIU", SimDuration::from_micros(200), gbps(10.0));
        b.add_node("node-1", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-2", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-3", s1, gbps(1.0), gbps(1.0));
        b.connect_sites(s0, s1, SimDuration::from_millis(33), mbps(500.0));
        let network = Network::new(b.build().unwrap());
        let mut cluster = ClusterState::new();
        for (i, name) in ["node-1", "node-2", "node-3"].iter().enumerate() {
            cluster.add_node(Node::new(
                *name,
                NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                if i < 2 { "UCSD" } else { "FIU" },
            ));
        }
        (cluster, network)
    }

    #[test]
    fn node_exporter_emits_four_metrics_per_node() {
        let (cluster, network) = setup();
        let samples = node_exporter_samples(&cluster, &network, SimTime::from_secs(5));
        assert_eq!(samples.len(), 3 * 4);
        let load_samples: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.key.name == METRIC_NODE_LOAD1)
            .collect();
        assert_eq!(load_samples.len(), 3);
        assert!(load_samples.iter().all(|s| s.value > 0.0));
        let mem: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.key.name == METRIC_NODE_MEM_AVAILABLE)
            .collect();
        assert!(mem.iter().all(|s| s.value > 6.0 * 1024.0 * 1024.0 * 1024.0));
        // Idle network: counters are zero.
        assert!(samples
            .iter()
            .filter(|s| s.key.name == METRIC_NODE_TX_BYTES)
            .all(|s| s.value == 0.0));
    }

    #[test]
    fn tx_counters_grow_after_traffic() {
        let (cluster, mut network) = setup();
        let _: FlowId = network.start_flow(NodeId(0), NodeId(2), 10_000_000.0);
        network.advance_to(SimTime::from_secs(5));
        let samples = node_exporter_samples(&cluster, &network, SimTime::from_secs(5));
        let tx_node1 = samples
            .iter()
            .find(|s| {
                s.key.name == METRIC_NODE_TX_BYTES && s.key.label("instance") == Some("node-1")
            })
            .unwrap();
        assert!(tx_node1.value > 0.0);
        let rx_node3 = samples
            .iter()
            .find(|s| {
                s.key.name == METRIC_NODE_RX_BYTES && s.key.label("instance") == Some("node-3")
            })
            .unwrap();
        assert!((rx_node3.value - tx_node1.value).abs() < 1.0);
    }

    #[test]
    fn ping_mesh_covers_all_ordered_pairs() {
        let (cluster, network) = setup();
        let samples = ping_mesh_samples(&cluster, &network, SimTime::from_secs(1));
        assert_eq!(samples.len(), 3 * 2);
        // Inter-site pairs see the WAN RTT (~66 ms), intra-site pairs are sub-millisecond.
        let inter = samples
            .iter()
            .find(|s| {
                s.key.label("source") == Some("node-1") && s.key.label("target") == Some("node-3")
            })
            .unwrap();
        assert!(inter.value > 0.05, "inter-site RTT {}", inter.value);
        let intra = samples
            .iter()
            .find(|s| {
                s.key.label("source") == Some("node-1") && s.key.label("target") == Some("node-2")
            })
            .unwrap();
        assert!(intra.value < 0.005, "intra-site RTT {}", intra.value);
        // No self-pings.
        assert!(!samples
            .iter()
            .any(|s| s.key.label("source") == s.key.label("target")));
    }

    #[test]
    fn ping_mesh_is_deterministic_for_same_time() {
        let (cluster, network) = setup();
        let a = ping_mesh_samples(&cluster, &network, SimTime::from_secs(7));
        let b = ping_mesh_samples(&cluster, &network, SimTime::from_secs(7));
        assert_eq!(a, b);
        let c = ping_mesh_samples(&cluster, &network, SimTime::from_secs(8));
        // Jitter varies with the scrape time (values differ even if close).
        assert_ne!(a, c);
    }

    #[test]
    fn interned_scrape_matches_sample_building_path() {
        let (cluster, network) = setup();
        let times = [SimTime::from_secs(1), SimTime::from_secs(6)];

        // Reference path: build owned samples and append them.
        let mut reference = TimeSeriesStore::new();
        for &t in &times {
            for sample in node_exporter_samples(&cluster, &network, t)
                .into_iter()
                .chain(ping_mesh_samples(&cluster, &network, t))
            {
                reference.append(sample);
            }
        }

        // Interned path: intern once, then append raw values.
        let mut interned = TimeSeriesStore::new();
        let layout = ExporterLayout::build(&cluster, &mut interned);
        assert!(layout.matches(&cluster));
        for &t in &times {
            layout.scrape_into(&cluster, &network, t, |id, v| {
                interned.append_value(id, v, t)
            });
        }

        assert_eq!(reference.series_count(), interned.series_count());
        assert_eq!(reference.point_count(), interned.point_count());
        for key in reference.keys() {
            let at = SimTime::from_secs(10);
            assert_eq!(
                reference.instant(key, at),
                interned.instant(key, at),
                "{key}"
            );
        }

        // And the id-indexed snapshot equals the generic store assembly.
        let at = SimTime::from_secs(8);
        let window = SimDuration::from_secs(30);
        let generic = ClusterSnapshot::from_store(&interned, at, window);
        let mut fast = ClusterSnapshot::default();
        layout.snapshot_into(&interned, at, window, &mut fast);
        assert_eq!(fast, generic);
        // Scratch reuse converges to the same value.
        layout.snapshot_into(&interned, at, window, &mut fast);
        assert_eq!(fast, generic);
    }

    #[test]
    fn snapshot_into_keeps_a_matching_scratch_table_and_rebuilds_a_different_one() {
        let (cluster, network) = setup();
        let mut store = TimeSeriesStore::new();
        let layout = ExporterLayout::build(&cluster, &mut store);

        let t = SimTime::from_secs(5);
        layout.scrape_into(&cluster, &network, t, |id, v| store.append_value(id, v, t));
        let at = SimTime::from_secs(6);
        let window = SimDuration::from_secs(30);
        let mut snap = ClusterSnapshot::default();
        layout.snapshot_into(&store, at, window, &mut snap);
        let fresh = ClusterSnapshot::from_store(&store, at, window);
        assert_eq!(snap, fresh);
        // Same layout, reused scratch: the table is kept and it converges.
        layout.snapshot_into(&store, at, window, &mut snap);
        assert_eq!(snap, fresh);

        // A smaller cluster's layout rebuilds the table: the scratch's node
        // table must shrink to the new layout's names.
        let mut small = ClusterState::new();
        small.add_node(cluster.nodes()[0].clone());
        let mut small_store = TimeSeriesStore::new();
        let small_layout = ExporterLayout::build(&small, &mut small_store);
        small_layout.scrape_into(&small, &network, t, |id, v| {
            small_store.append_value(id, v, t)
        });
        small_layout.snapshot_into(&small_store, at, window, &mut snap);
        assert_eq!(snap.node_names(), vec!["node-1"]);
        assert!(snap.node("node-2").is_none());
    }

    #[test]
    fn layout_detects_cluster_changes() {
        let (cluster, _network) = setup();
        let mut store = TimeSeriesStore::new();
        let layout = ExporterLayout::build(&cluster, &mut store);
        let mut grown = cluster.clone();
        grown.add_node(Node::new(
            "node-4",
            NodeId(3),
            Resources::from_cores_and_gib(6, 8),
            "FIU",
        ));
        assert!(!layout.matches(&grown));
    }
}
