//! Parameterized topology generators.
//!
//! The paper evaluates on exactly one substrate — the 6-node, 3-site FABRIC
//! slice of Figure 4 — but a network-aware scheduler has to be judged across
//! heterogeneous fabrics and contention regimes (Decima and CASSINI both make
//! this point). This module generates whole families of topologies from small
//! declarative specs so the experiment harness can sweep a scenario matrix
//! instead of a single slice:
//!
//! * [`StarLanSpec`] — a single-site LAN: every node behind one switch, so
//!   completion differences come from CPU/memory contention and NIC sharing.
//! * [`LeafSpineSpec`] — a two-tier Clos fabric: leaf sites holding nodes,
//!   spine sites providing the cross-leaf paths.
//! * [`TieredClosSpec`] — a datacenter-scale three-tier Clos (racks under
//!   pods under one spine), the substrate of the 1k–10k-node scale worlds.
//! * [`WanMeshSpec`] — N geo-distributed sites on a randomized WAN mesh with
//!   configurable delay/capacity ranges and heterogeneous NICs (the
//!   generalization of the FABRIC slice).
//!
//! Every generator is **deterministic in `(spec, seed)`**: the same spec and
//! seed always produce byte-identical topologies, which is what lets the
//! scenario sweep pin its results run-to-run. Node names follow the `node-1
//! ... node-N` convention used by the cluster layer throughout the workspace.

use crate::topology::{Topology, TopologyBuilder, TopologyError};
use crate::{gbps, mbps};
use simcore::rng::Rng;
use simcore::SimDuration;

/// Single-site LAN ("star"): all nodes attached to one local fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct StarLanSpec {
    /// Number of nodes behind the switch.
    pub nodes: usize,
    /// NIC capacity per node, bytes/sec.
    pub nic_bps: f64,
    /// Shared fabric capacity, bytes/sec.
    pub fabric_bps: f64,
    /// One-way delay between co-located nodes, microseconds.
    pub lan_delay_us: u64,
}

impl Default for StarLanSpec {
    fn default() -> Self {
        StarLanSpec {
            nodes: 6,
            nic_bps: gbps(1.0),
            fabric_bps: gbps(10.0),
            lan_delay_us: 150,
        }
    }
}

/// Two-tier leaf–spine fabric. Leaves are sites holding nodes; spines are
/// transit-only sites. Every leaf connects to every spine.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafSpineSpec {
    /// Number of leaf switches (sites with nodes).
    pub leaves: usize,
    /// Nodes attached to each leaf.
    pub nodes_per_leaf: usize,
    /// Number of spine switches (transit sites).
    pub spines: usize,
    /// One-way leaf↔spine link delay, microseconds.
    pub link_delay_us: u64,
    /// Leaf↔spine link capacity, bytes/sec.
    pub link_bps: f64,
    /// NIC capacity per node, bytes/sec.
    pub nic_bps: f64,
}

impl Default for LeafSpineSpec {
    fn default() -> Self {
        LeafSpineSpec {
            leaves: 3,
            nodes_per_leaf: 2,
            spines: 2,
            link_delay_us: 250,
            link_bps: mbps(800.0),
            nic_bps: gbps(1.0),
        }
    }
}

/// Three-tier Clos fabric at datacenter scale: racks of nodes under leaf
/// switches, leaves grouped into pods under aggregation switches, pods joined
/// through one spine tier. This is the family the 1k–10k-node scale worlds
/// come from — per-tier oversubscription plus rack locality gives the
/// network-aware scheduler real structure to exploit, while site count grows
/// only as `racks + pods + 1`, so building a 10k-node topology stays cheap.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredClosSpec {
    /// Number of racks (leaf sites holding nodes).
    pub racks: usize,
    /// Nodes per rack.
    pub nodes_per_rack: usize,
    /// Racks under each aggregation (pod) switch.
    pub racks_per_pod: usize,
    /// One-way rack↔pod link delay, microseconds.
    pub rack_pod_delay_us: u64,
    /// One-way pod↔spine link delay, microseconds.
    pub pod_spine_delay_us: u64,
    /// Rack↔pod link capacity, bytes/sec.
    pub rack_pod_bps: f64,
    /// Pod↔spine link capacity, bytes/sec (the oversubscribed tier).
    pub pod_spine_bps: f64,
    /// NIC capacity per node, bytes/sec.
    pub nic_bps: f64,
}

impl Default for TieredClosSpec {
    fn default() -> Self {
        TieredClosSpec {
            racks: 25,
            nodes_per_rack: 40,
            racks_per_pod: 8,
            rack_pod_delay_us: 120,
            pod_spine_delay_us: 300,
            rack_pod_bps: gbps(40.0),
            pod_spine_bps: gbps(25.0),
            nic_bps: gbps(10.0),
        }
    }
}

impl TieredClosSpec {
    /// A spec holding (at least) `total` nodes in 40-node racks, 8 racks per
    /// pod — the preset family behind the 1k/4k/10k scale worlds.
    pub fn with_total_nodes(total: usize) -> Self {
        let nodes_per_rack = 40;
        TieredClosSpec {
            racks: total.div_ceil(nodes_per_rack).max(1),
            nodes_per_rack,
            ..Default::default()
        }
    }
}

/// N-site WAN mesh: a connectivity ring plus random chords, with per-link
/// delays/capacities and per-node NIC capacities drawn from configurable
/// ranges. This is the FABRIC slice generalized to arbitrary scale and
/// heterogeneity.
#[derive(Debug, Clone, PartialEq)]
pub struct WanMeshSpec {
    /// Number of geographic sites.
    pub sites: usize,
    /// Nodes per site.
    pub nodes_per_site: usize,
    /// One-way WAN link delay range, milliseconds `(min, max)`.
    pub delay_ms: (f64, f64),
    /// WAN link capacity range, bytes/sec `(min, max)`.
    pub link_bps: (f64, f64),
    /// Per-node NIC capacity range, bytes/sec `(min, max)` — NIC heterogeneity.
    pub nic_bps: (f64, f64),
    /// Fraction of the non-ring site pairs additionally connected by a chord
    /// (0 = pure ring, 1 = full mesh).
    pub chord_fraction: f64,
    /// One-way delay between co-located nodes, microseconds.
    pub lan_delay_us: u64,
    /// Intra-site fabric capacity, bytes/sec.
    pub lan_bps: f64,
}

impl Default for WanMeshSpec {
    fn default() -> Self {
        WanMeshSpec {
            sites: 4,
            nodes_per_site: 2,
            delay_ms: (5.0, 40.0),
            link_bps: (mbps(300.0), mbps(900.0)),
            nic_bps: (mbps(800.0), mbps(1200.0)),
            chord_fraction: 0.35,
            lan_delay_us: 150,
            lan_bps: gbps(10.0),
        }
    }
}

/// Declarative description of a generated topology family member.
///
/// `build(seed)` is deterministic in `(self, seed)`, so a spec and a seed
/// fully describe the substrate a scenario was measured on.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// Single-site LAN.
    StarLan(StarLanSpec),
    /// Two-tier leaf–spine fabric.
    LeafSpine(LeafSpineSpec),
    /// Datacenter-scale three-tier Clos (racks → pods → spine).
    TieredClos(TieredClosSpec),
    /// Randomized N-site WAN mesh.
    WanMesh(WanMeshSpec),
}

impl TopologySpec {
    /// Short human-readable name, e.g. `leaf-spine-3x2` or `wan-mesh-4x2`.
    pub fn name(&self) -> String {
        match self {
            TopologySpec::StarLan(s) => format!("star-lan-{}", s.nodes),
            TopologySpec::LeafSpine(s) => {
                format!("leaf-spine-{}x{}", s.leaves, s.nodes_per_leaf)
            }
            TopologySpec::TieredClos(s) => {
                format!("tiered-clos-{}x{}", s.racks, s.nodes_per_rack)
            }
            TopologySpec::WanMesh(s) => format!("wan-mesh-{}x{}", s.sites, s.nodes_per_site),
        }
    }

    /// Number of compute nodes the built topology will hold.
    pub fn node_count(&self) -> usize {
        match self {
            TopologySpec::StarLan(s) => s.nodes,
            TopologySpec::LeafSpine(s) => s.leaves * s.nodes_per_leaf,
            TopologySpec::TieredClos(s) => s.racks * s.nodes_per_rack,
            TopologySpec::WanMesh(s) => s.sites * s.nodes_per_site,
        }
    }

    /// Build the topology. Deterministic in `(self, seed)`; the seed only
    /// matters for specs that randomize (currently [`WanMeshSpec`]).
    pub fn build(&self, seed: u64) -> Result<Topology, TopologyError> {
        match self {
            TopologySpec::StarLan(s) => build_star_lan(s),
            TopologySpec::LeafSpine(s) => build_leaf_spine(s),
            TopologySpec::TieredClos(s) => build_tiered_clos(s),
            TopologySpec::WanMesh(s) => build_wan_mesh(s, seed),
        }
    }
}

fn build_star_lan(spec: &StarLanSpec) -> Result<Topology, TopologyError> {
    let mut b = TopologyBuilder::new();
    let site = b.add_site(
        "lan",
        SimDuration::from_micros(spec.lan_delay_us.max(1)),
        spec.fabric_bps,
    );
    for i in 0..spec.nodes {
        b.add_node(format!("node-{}", i + 1), site, spec.nic_bps, spec.nic_bps);
    }
    b.build()
}

fn build_leaf_spine(spec: &LeafSpineSpec) -> Result<Topology, TopologyError> {
    let mut b = TopologyBuilder::new();
    let lan_delay = SimDuration::from_micros(100);
    let leaves: Vec<_> = (0..spec.leaves)
        .map(|l| b.add_site(format!("leaf-{}", l + 1), lan_delay, gbps(10.0)))
        .collect();
    let spines: Vec<_> = (0..spec.spines.max(1))
        .map(|s| b.add_site(format!("spine-{}", s + 1), lan_delay, gbps(10.0)))
        .collect();
    // Nodes numbered round-robin across leaves, like the FABRIC testbed.
    for i in 0..spec.leaves * spec.nodes_per_leaf {
        let leaf = leaves[i % spec.leaves.max(1)];
        b.add_node(format!("node-{}", i + 1), leaf, spec.nic_bps, spec.nic_bps);
    }
    let delay = SimDuration::from_micros(spec.link_delay_us.max(1));
    for &leaf in &leaves {
        for &spine in &spines {
            b.connect_sites(leaf, spine, delay, spec.link_bps);
        }
    }
    b.build()
}

fn build_tiered_clos(spec: &TieredClosSpec) -> Result<Topology, TopologyError> {
    let mut b = TopologyBuilder::new();
    let lan_delay = SimDuration::from_micros(50);
    let spine = b.add_site("spine", lan_delay, gbps(100.0));
    let racks_per_pod = spec.racks_per_pod.max(1);
    let pods = spec.racks.div_ceil(racks_per_pod);
    let pod_sites: Vec<_> = (0..pods)
        .map(|p| {
            let pod = b.add_site(format!("pod-{}", p + 1), lan_delay, gbps(50.0));
            b.connect_sites(
                pod,
                spine,
                SimDuration::from_micros(spec.pod_spine_delay_us.max(1)),
                spec.pod_spine_bps,
            );
            pod
        })
        .collect();
    // Nodes are numbered rack-sequentially (rack 1 holds node-1..node-R):
    // rack locality is the structure the scale worlds exploit, so keep ids
    // contiguous within a rack rather than round-robin like the small
    // families.
    for r in 0..spec.racks {
        let rack = b.add_site(format!("rack-{}", r + 1), lan_delay, gbps(40.0));
        b.connect_sites(
            rack,
            pod_sites[r / racks_per_pod],
            SimDuration::from_micros(spec.rack_pod_delay_us.max(1)),
            spec.rack_pod_bps,
        );
        for n in 0..spec.nodes_per_rack {
            b.add_node(
                format!("node-{}", r * spec.nodes_per_rack + n + 1),
                rack,
                spec.nic_bps,
                spec.nic_bps,
            );
        }
    }
    b.build()
}

/// RNG stream constant for the WAN mesh generator ("WAN MESH" in ASCII-ish hex).
const WAN_MESH_STREAM: u64 = 0x57A4_4E5F_4D45_5348;

fn build_wan_mesh(spec: &WanMeshSpec, seed: u64) -> Result<Topology, TopologyError> {
    let mut rng = Rng::seed_from_u64(seed ^ WAN_MESH_STREAM);
    let mut b = TopologyBuilder::new();
    let lan_delay = SimDuration::from_micros(spec.lan_delay_us.max(1));
    let sites: Vec<_> = (0..spec.sites)
        .map(|s| b.add_site(format!("site-{}", s + 1), lan_delay, spec.lan_bps))
        .collect();
    // Heterogeneous NICs, nodes numbered round-robin across sites.
    let (nic_lo, nic_hi) = spec.nic_bps;
    for i in 0..spec.sites * spec.nodes_per_site {
        let nic = rng.uniform(nic_lo.min(nic_hi), nic_hi.max(nic_lo + 1.0));
        b.add_node(format!("node-{}", i + 1), sites[i % spec.sites], nic, nic);
    }
    let (d_lo, d_hi) = spec.delay_ms;
    let (c_lo, c_hi) = spec.link_bps;
    let draw_link = |b: &mut TopologyBuilder, a: usize, z: usize, rng: &mut Rng| {
        let delay = rng.uniform(d_lo.min(d_hi), d_hi.max(d_lo + 1e-9));
        let cap = rng.uniform(c_lo.min(c_hi), c_hi.max(c_lo + 1.0));
        b.connect_sites(sites[a], sites[z], SimDuration::from_millis_f64(delay), cap);
    };
    // Ring guarantees connectivity (degenerating to a single link for two
    // sites — a two-site "ring" would duplicate the same pair).
    if spec.sites == 2 {
        draw_link(&mut b, 0, 1, &mut rng);
    } else if spec.sites > 2 {
        for s in 0..spec.sites {
            draw_link(&mut b, s, (s + 1) % spec.sites, &mut rng);
        }
    }
    // Random chords over the remaining pairs.
    if spec.sites > 3 {
        for a in 0..spec.sites {
            for z in (a + 1)..spec.sites {
                let on_ring = z == a + 1 || (a == 0 && z == spec.sites - 1);
                if !on_ring && rng.gen_bool(spec.chord_fraction.clamp(0.0, 1.0)) {
                    draw_link(&mut b, a, z, &mut rng);
                }
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fairness::{max_min_fair_rates, FlowDemand};
    use crate::topology::{NodeId, Resource};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The four default family members.
    fn default_specs() -> Vec<TopologySpec> {
        vec![
            TopologySpec::StarLan(StarLanSpec::default()),
            TopologySpec::LeafSpine(LeafSpineSpec::default()),
            TopologySpec::TieredClos(TieredClosSpec::default()),
            TopologySpec::WanMesh(WanMeshSpec::default()),
        ]
    }

    #[test]
    fn default_specs_build_with_expected_node_counts_and_names() {
        for spec in default_specs() {
            let topo = spec
                .build(7)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name()));
            assert_eq!(topo.node_count(), spec.node_count(), "{}", spec.name());
            for (i, node) in topo.nodes().iter().enumerate() {
                assert_eq!(node.name, format!("node-{}", i + 1));
            }
            assert!(!spec.name().is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic_in_spec_and_seed() {
        for spec in default_specs() {
            let a = format!("{:?}", spec.build(42).unwrap());
            let b = format!("{:?}", spec.build(42).unwrap());
            assert_eq!(a, b, "{} must be reproducible", spec.name());
        }
        // Different seeds actually change the randomized family.
        let mesh = TopologySpec::WanMesh(WanMeshSpec::default());
        let a = format!("{:?}", mesh.build(1).unwrap());
        let b = format!("{:?}", mesh.build(2).unwrap());
        assert_ne!(a, b, "wan mesh must respond to the seed");
    }

    #[test]
    fn tiered_clos_scales_to_ten_thousand_nodes_with_rack_locality() {
        let spec = TieredClosSpec::with_total_nodes(10_000);
        let topo = TopologySpec::TieredClos(spec.clone()).build(0).unwrap();
        assert_eq!(topo.node_count(), 10_000);
        assert_eq!(spec.racks, 250);

        // Same rack: no WAN hops at all.
        let same_rack = topo.route(NodeId(0), NodeId(1));
        assert_eq!(
            same_rack
                .resources
                .iter()
                .filter(|r| matches!(r, Resource::LinkDir(..)))
                .count(),
            0
        );
        // Same pod, different rack: rack → pod → rack, two WAN hops.
        let cross_rack = topo.route(NodeId(0), NodeId(spec.nodes_per_rack));
        assert_eq!(
            cross_rack
                .resources
                .iter()
                .filter(|r| matches!(r, Resource::LinkDir(..)))
                .count(),
            2
        );
        // Different pods: rack → pod → spine → pod → rack, four WAN hops.
        let cross_pod = topo.route(NodeId(0), NodeId(spec.racks_per_pod * spec.nodes_per_rack));
        let wan_hops = cross_pod
            .resources
            .iter()
            .filter(|r| matches!(r, Resource::LinkDir(..)))
            .count();
        assert_eq!(wan_hops, 4, "route {:?}", cross_pod.site_path);
        let transit = topo.site(cross_pod.site_path[2]).name.clone();
        assert_eq!(transit, "spine");
    }

    #[test]
    fn two_site_mesh_has_exactly_one_wan_link() {
        let topo = TopologySpec::WanMesh(WanMeshSpec {
            sites: 2,
            nodes_per_site: 2,
            ..Default::default()
        })
        .build(4)
        .unwrap();
        assert_eq!(topo.links().len(), 1, "no phantom parallel ring link");
    }

    #[test]
    fn leaf_spine_uses_a_spine_transit_site() {
        let topo = TopologySpec::LeafSpine(LeafSpineSpec::default())
            .build(0)
            .unwrap();
        // node-1 (leaf-1) to node-2 (leaf-2): two WAN hops via a spine.
        let route = topo.route(NodeId(0), NodeId(1));
        assert_eq!(route.site_path.len(), 3);
        let transit = topo.site(route.site_path[1]).name.clone();
        assert!(transit.starts_with("spine-"), "{transit}");
    }

    fn arb_spec() -> impl Strategy<Value = (TopologySpec, u64)> {
        (
            0usize..3,
            2usize..6,
            1usize..4,
            1u64..1_000_000,
            0.0f64..1.0,
        )
            .prop_map(|(family, breadth, depth, seed, chord)| {
                let spec = match family {
                    0 => TopologySpec::StarLan(StarLanSpec {
                        nodes: breadth * depth,
                        ..Default::default()
                    }),
                    1 => TopologySpec::LeafSpine(LeafSpineSpec {
                        leaves: breadth,
                        nodes_per_leaf: depth,
                        spines: 1 + breadth / 2,
                        ..Default::default()
                    }),
                    _ => TopologySpec::WanMesh(WanMeshSpec {
                        sites: breadth,
                        nodes_per_site: depth,
                        chord_fraction: chord,
                        ..Default::default()
                    }),
                };
                (spec, seed)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every generated topology is connected: the builder succeeds (it
        /// errors on unreachable site pairs) and every ordered node pair has a
        /// route whose endpoints' NICs bracket the resource list.
        #[test]
        fn generated_topologies_are_connected(spec_seed in arb_spec()) {
            let (spec, seed) = spec_seed;
            let topo = spec.build(seed).map_err(|e| format!("{}: {e}", spec.name()))?;
            prop_assert_eq!(topo.node_count(), spec.node_count());
            for a in topo.node_ids() {
                for b in topo.node_ids() {
                    let route = topo.route(a, b);
                    if a == b {
                        prop_assert!(route.resources.is_empty());
                    } else {
                        prop_assert_eq!(route.resources.first(), Some(&Resource::NodeEgress(a)));
                        prop_assert_eq!(route.resources.last(), Some(&Resource::NodeIngress(b)));
                    }
                }
            }
        }

        /// Site-level Dijkstra is symmetric in delay: the minimum-delay path
        /// from a to b costs exactly what the path from b to a costs (links are
        /// full duplex with symmetric delays).
        #[test]
        fn site_paths_are_delay_symmetric(spec_seed in arb_spec()) {
            let (spec, seed) = spec_seed;
            let topo = spec.build(seed).map_err(|e| format!("{}: {e}", spec.name()))?;
            for a in topo.node_ids() {
                for b in topo.node_ids() {
                    let fwd = topo.route(a, b).delay;
                    let rev = topo.route(b, a).delay;
                    prop_assert!(fwd == rev, "asymmetric delay {a} -> {b}: {fwd:?} vs {rev:?}");
                    prop_assert_eq!(topo.base_rtt(a, b), topo.base_rtt(b, a));
                }
            }
        }

        /// Max-min fair shares over generated topologies never oversubscribe
        /// any traversed resource, and no flow with a route is starved.
        #[test]
        fn fair_shares_respect_generated_capacities(
            spec_seed in arb_spec(),
            pairs in prop::collection::vec((0usize..1000, 0usize..1000), 1..12),
        ) {
            let (spec, seed) = spec_seed;
            let topo = spec.build(seed).map_err(|e| format!("{}: {e}", spec.name()))?;
            let n = topo.node_count();
            let demands: Vec<FlowDemand> = pairs
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| FlowDemand {
                    index: i,
                    resources: topo.route(NodeId(a % n), NodeId(b % n)).resources.clone(),
                    rate_cap: f64::INFINITY,
                })
                .collect();
            let rates = max_min_fair_rates(&demands, |r| topo.resource_capacity(r));
            let mut usage: BTreeMap<Resource, f64> = BTreeMap::new();
            for (d, &rate) in demands.iter().zip(&rates) {
                prop_assert!(rate >= 0.0);
                if !d.resources.is_empty() {
                    prop_assert!(rate > 0.0, "flow {} starved", d.index);
                }
                for &res in &d.resources {
                    *usage.entry(res).or_insert(0.0) += rate;
                }
            }
            for (res, total) in usage {
                let cap = topo.resource_capacity(res);
                prop_assert!(
                    total <= cap * (1.0 + 1e-9),
                    "{res:?} oversubscribed: {total} > {cap}"
                );
            }
        }
    }
}
