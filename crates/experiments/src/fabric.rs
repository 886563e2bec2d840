//! The FABRIC testbed of Figure 4.
//!
//! Three sites — UC San Diego (UCSD), Florida International University (FIU)
//! and SRI International (SRI) — with two nodes each. The figure annotates the
//! inter-site links with RTTs of 66 ms (UCSD–FIU), 10 ms (FIU–SRI) and 72 ms
//! (UCSD–SRI). Nodes have 6 CPUs and 8 GB of RAM (Section 5.1).
//!
//! The paper's nodes use 100 Gbps SR-IOV NICs, but application throughput over
//! FABNetv4 is far lower (Figure 3 tops out around 5 MB/s per node during
//! Sort); the substitution here gives the WAN paths sub-gigabit capacities so
//! that the 10 MB background downloads and shuffle traffic actually contend,
//! which is the effect the scheduler must learn.

use crate::world::Testbed;
use cluster::ClusterState;
use simcore::SimDuration;
use simnet::{gbps, mbps, Network, SimNodeId, Topology, TopologyBuilder};

/// Site names in the order used throughout the experiments.
pub const SITE_NAMES: [&str; 3] = ["UCSD", "FIU", "SRI"];

/// Parameters of the reproduced testbed.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricConfig {
    /// Nodes per site (paper: 2).
    pub nodes_per_site: usize,
    /// CPU cores per node (paper: 6).
    pub cores_per_node: u64,
    /// Memory per node in GiB (paper: 8).
    pub memory_gib_per_node: u64,
    /// Round-trip UCSD–FIU in milliseconds (paper: 66).
    pub rtt_ucsd_fiu_ms: f64,
    /// Round-trip FIU–SRI in milliseconds (paper: 10).
    pub rtt_fiu_sri_ms: f64,
    /// Round-trip UCSD–SRI in milliseconds (paper: 72).
    pub rtt_ucsd_sri_ms: f64,
    /// WAN capacity UCSD–FIU (bytes/sec).
    pub wan_ucsd_fiu_bps: f64,
    /// WAN capacity FIU–SRI (bytes/sec).
    pub wan_fiu_sri_bps: f64,
    /// WAN capacity UCSD–SRI (bytes/sec).
    pub wan_ucsd_sri_bps: f64,
    /// Node NIC capacity (bytes/sec).
    pub nic_bps: f64,
    /// Intra-site fabric capacity (bytes/sec).
    pub lan_bps: f64,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            nodes_per_site: 2,
            cores_per_node: 6,
            memory_gib_per_node: 8,
            rtt_ucsd_fiu_ms: 66.0,
            rtt_fiu_sri_ms: 10.0,
            rtt_ucsd_sri_ms: 72.0,
            wan_ucsd_fiu_bps: mbps(600.0),
            wan_fiu_sri_bps: mbps(900.0),
            wan_ucsd_sri_bps: mbps(400.0),
            nic_bps: gbps(1.0),
            lan_bps: gbps(10.0),
        }
    }
}

/// The built testbed: topology, network and cluster, with aligned node names
/// (`node-1` ... `node-6`, numbered across sites in round-robin order so each
/// site holds a mix of low/high indices, like the paper's Figure 4 labels).
#[derive(Debug, Clone)]
pub struct FabricTestbed {
    /// The experiment configuration used to build the testbed.
    pub config: FabricConfig,
    /// The flow-level network.
    pub network: Network,
    /// The mini-Kubernetes cluster.
    pub cluster: ClusterState,
}

impl FabricTestbed {
    /// Build the testbed from a configuration.
    pub fn build(config: FabricConfig) -> Self {
        let topology = Self::build_topology(&config);
        let testbed = Testbed::assemble(
            Network::new(topology),
            config.cores_per_node,
            config.memory_gib_per_node,
        );
        FabricTestbed {
            config,
            network: testbed.network,
            cluster: testbed.cluster,
        }
    }

    /// Build the default paper testbed.
    pub fn paper() -> Self {
        Self::build(FabricConfig::default())
    }

    #[expect(
        clippy::expect_used,
        reason = "the hard-coded paper topology is connected; failing to build it is a programming error"
    )]
    fn build_topology(config: &FabricConfig) -> Topology {
        let mut b = TopologyBuilder::new();
        let lan_delay = SimDuration::from_micros(150);
        let ucsd = b.add_site("UCSD", lan_delay, config.lan_bps);
        let fiu = b.add_site("FIU", lan_delay, config.lan_bps);
        let sri = b.add_site("SRI", lan_delay, config.lan_bps);
        let sites = [ucsd, fiu, sri];
        // node-1..node-6 assigned round-robin: UCSD {1,4}, FIU {2,5}, SRI {3,6}.
        for i in 0..(config.nodes_per_site * 3) {
            let site = sites[i % 3];
            b.add_node(
                format!("node-{}", i + 1),
                site,
                config.nic_bps,
                config.nic_bps,
            );
        }
        // One-way delay = RTT / 2.
        b.connect_sites(
            ucsd,
            fiu,
            SimDuration::from_millis_f64(config.rtt_ucsd_fiu_ms / 2.0),
            config.wan_ucsd_fiu_bps,
        );
        b.connect_sites(
            fiu,
            sri,
            SimDuration::from_millis_f64(config.rtt_fiu_sri_ms / 2.0),
            config.wan_fiu_sri_bps,
        );
        b.connect_sites(
            ucsd,
            sri,
            SimDuration::from_millis_f64(config.rtt_ucsd_sri_ms / 2.0),
            config.wan_ucsd_sri_bps,
        );
        b.build().expect("the paper topology is valid")
    }

    /// Node names in index order.
    pub fn node_names(&self) -> Vec<String> {
        self.cluster.node_names()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.cluster.nodes().len()
    }

    /// The network-substrate id for a node name.
    pub fn net_id(&self, name: &str) -> Option<SimNodeId> {
        self.cluster.node(name).map(|n| n.net_id)
    }

    /// The base (uncongested) RTT matrix in milliseconds, keyed by node name
    /// pairs — the data behind Figure 4.
    pub fn base_rtt_matrix_ms(&self) -> Vec<(String, String, f64)> {
        let topo = self.network.topology();
        let mut out = Vec::new();
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a.id != b.id {
                    out.push((
                        a.name.clone(),
                        b.name.clone(),
                        topo.base_rtt(a.id, b.id).as_millis_f64(),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_six_nodes_across_three_sites() {
        let tb = FabricTestbed::paper();
        assert_eq!(tb.node_count(), 6);
        assert_eq!(tb.network.topology().sites().len(), 3);
        assert_eq!(tb.network.topology().links().len(), 3);
        assert_eq!(
            tb.node_names(),
            vec!["node-1", "node-2", "node-3", "node-4", "node-5", "node-6"]
        );
        // Nodes have the paper's capacity.
        for node in tb.cluster.nodes() {
            assert_eq!(node.allocatable.cpu_cores(), 6.0);
            assert_eq!(node.allocatable.memory_gib(), 8.0);
        }
        // Two nodes per site.
        for site in SITE_NAMES {
            let count = tb
                .cluster
                .nodes()
                .iter()
                .filter(|n| {
                    n.labels
                        .get("topology.kubernetes.io/zone")
                        .map(String::as_str)
                        == Some(site)
                })
                .count();
            assert_eq!(count, 2, "{site}");
        }
    }

    #[test]
    fn inter_site_rtts_match_figure4() {
        let tb = FabricTestbed::paper();
        let rtt = |a: &str, b: &str| -> f64 {
            let ia = tb.net_id(a).unwrap();
            let ib = tb.net_id(b).unwrap();
            tb.network.topology().base_rtt(ia, ib).as_millis_f64()
        };
        // node-1 is UCSD, node-2 is FIU, node-3 is SRI (round-robin).
        assert!((rtt("node-1", "node-2") - 66.0).abs() < 1e-6);
        assert!((rtt("node-2", "node-3") - 10.0).abs() < 1e-6);
        assert!((rtt("node-1", "node-3") - 72.0).abs() < 1e-6);
        // Intra-site RTT is sub-millisecond.
        assert!(rtt("node-1", "node-4") < 1.0);
        assert!(rtt("node-2", "node-5") < 1.0);
    }

    #[test]
    fn routing_prefers_direct_links_under_figure4_delays() {
        // UCSD->SRI direct is 72 ms RTT; via FIU it would be 66 + 10 = 76 ms,
        // so the direct link must be used.
        let tb = FabricTestbed::paper();
        let a = tb.net_id("node-1").unwrap();
        let b = tb.net_id("node-3").unwrap();
        let route = tb.network.topology().route(a, b);
        assert_eq!(route.site_path.len(), 2, "single WAN hop");
    }

    #[test]
    fn rtt_matrix_covers_all_ordered_pairs() {
        let tb = FabricTestbed::paper();
        let matrix = tb.base_rtt_matrix_ms();
        assert_eq!(matrix.len(), 6 * 5);
        assert!(matrix.iter().all(|(_, _, ms)| *ms > 0.0));
        let max = matrix.iter().map(|(_, _, ms)| *ms).fold(0.0, f64::max);
        assert!((max - 72.0).abs() < 1e-6);
    }

    #[test]
    fn custom_config_scales_node_count() {
        let tb = FabricTestbed::build(FabricConfig {
            nodes_per_site: 3,
            ..Default::default()
        });
        assert_eq!(tb.node_count(), 9);
        assert!(tb.net_id("node-9").is_some());
        assert!(tb.net_id("node-10").is_none());
    }
}
