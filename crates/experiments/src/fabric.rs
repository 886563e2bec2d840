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
//!
//! The slice is fixed: its numbers are constants, not settings, and
//! [`Testbed::paper`] is its only constructor. The node shape
//! (`NODE_CORES`, `NODE_MEMORY_GIB`) is shared by every generated
//! substrate, and Figure 4 reads its configured RTTs from `WAN_LINKS`.

use crate::world::Testbed;
use simcore::SimDuration;
use simnet::{gbps, mbps, Network, Topology, TopologyBuilder};

/// Site names in the order used throughout the experiments.
pub(crate) const SITE_NAMES: [&str; 3] = ["UCSD", "FIU", "SRI"];

/// Nodes per site (Figure 4: two).
pub(crate) const NODES_PER_SITE: usize = 2;

/// CPU cores per node (Section 5.1).
pub(crate) const NODE_CORES: u64 = 6;

/// Memory per node in GiB (Section 5.1).
pub(crate) const NODE_MEMORY_GIB: u64 = 8;

/// The inter-site links of Figure 4 as `(site, site, RTT in ms, capacity in
/// Mbps)`, sites indexing [`SITE_NAMES`]. The RTTs are the figure's; the
/// capacities are this reproduction's sub-gigabit substitution.
pub(crate) const WAN_LINKS: [(usize, usize, f64, f64); 3] = [
    (0, 1, 66.0, 600.0),
    (1, 2, 10.0, 900.0),
    (0, 2, 72.0, 400.0),
];

/// The FABRIC slice is a [`Testbed`] like any generated substrate; the name
/// says which one [`Testbed::paper`] built.
pub type FabricTestbed = Testbed;

impl Testbed {
    /// Build the paper's testbed: network and cluster with aligned node names
    /// (`node-1` ... `node-6`, numbered across sites in round-robin order so
    /// each site holds a mix of low/high indices, like the paper's Figure 4
    /// labels).
    pub fn paper() -> Self {
        Testbed::assemble(Network::new(Self::build_topology()))
    }

    #[expect(
        clippy::expect_used,
        reason = "the hard-coded paper topology is connected; failing to build it is a programming error"
    )]
    fn build_topology() -> Topology {
        let mut b = TopologyBuilder::new();
        let lan_delay = SimDuration::from_micros(150);
        let lan_bps = gbps(10.0);
        let nic_bps = gbps(1.0);
        let sites = SITE_NAMES.map(|name| b.add_site(name, lan_delay, lan_bps));
        // node-1..node-6 assigned round-robin: UCSD {1,4}, FIU {2,5}, SRI {3,6}.
        for i in 0..(NODES_PER_SITE * sites.len()) {
            b.add_node(
                format!("node-{}", i + 1),
                sites[i % sites.len()],
                nic_bps,
                nic_bps,
            );
        }
        for (a, z, rtt_ms, capacity_mbps) in WAN_LINKS {
            // One-way delay = RTT / 2.
            b.connect_sites(
                sites[a],
                sites[z],
                SimDuration::from_millis_f64(rtt_ms / 2.0),
                mbps(capacity_mbps),
            );
        }
        b.build().expect("the paper topology is valid")
    }

    /// Node names in index order.
    pub fn node_names(&self) -> Vec<String> {
        self.cluster.node_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_has_six_nodes_across_three_sites() {
        let tb = FabricTestbed::paper();
        assert_eq!(tb.cluster.nodes().len(), 6);
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
            let ia = tb.cluster.node(a).unwrap().net_id;
            let ib = tb.cluster.node(b).unwrap().net_id;
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
        let a = tb.cluster.node("node-1").unwrap().net_id;
        let b = tb.cluster.node("node-3").unwrap().net_id;
        let route = tb.network.topology().route(a, b);
        assert_eq!(route.site_path.len(), 2, "single WAN hop");
    }
}
