//! Sites, nodes, links and routing.
//!
//! The topology is a two-level graph:
//!
//! * **Sites** are geographic locations (e.g. the FABRIC sites UCSD, FIU,
//!   SRI). Traffic between nodes at the *same* site traverses a local fabric
//!   with the site's LAN delay and effectively NIC-limited bandwidth.
//! * **WAN links** connect pairs of sites with a one-way propagation delay and
//!   a shared capacity. Traffic between nodes at *different* sites follows the
//!   minimum-delay site-level path (Dijkstra), and consumes capacity on every
//!   directed link along it.
//!
//! Nodes own a NIC with separate egress/ingress capacity. Paths are expressed
//! as lists of [`Resource`]s, the unit over which max-min fairness operates:
//! a node pair's route is its source's egress, then the site's fabric (same
//! site) or the directed WAN hops between the two sites, then its
//! destination's ingress. Routes are stored per **site pair**; the node-level
//! [`Route`] of [`Topology::route`] is assembled on demand, and the network's
//! hot paths walk the same hops without assembling anything. Every resource
//! also has a dense index, ascending in [`Resource`]'s order, so
//! per-resource state lives in a flat table instead of a map.

use simcore::SimDuration;
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a node (dense index into the topology's node table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub usize);

/// Identifier of a WAN link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0 + 1)
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site-{}", self.0)
    }
}

/// A geographic site hosting one or more nodes.
#[derive(Debug, Clone)]
pub struct Site {
    /// Site identifier.
    pub id: SiteId,
    /// Human-readable name (e.g. "UCSD").
    pub name: String,
    /// One-way delay between two nodes co-located at this site.
    pub lan_delay: SimDuration,
    /// Capacity of the local fabric between co-located nodes (bytes/sec).
    pub(crate) lan_capacity: f64,
}

/// A compute node attached to a site through a NIC.
#[derive(Debug, Clone)]
pub struct NetNode {
    /// Node identifier.
    pub id: NodeId,
    /// Human-readable name (e.g. "node-3").
    pub name: String,
    /// The site the node lives at.
    pub site: SiteId,
    /// NIC egress capacity in bytes/sec.
    pub(crate) egress_capacity: f64,
    /// NIC ingress capacity in bytes/sec.
    pub(crate) ingress_capacity: f64,
}

/// A WAN link connecting two sites (full duplex: each direction has the full
/// capacity).
#[derive(Debug, Clone)]
pub struct Link {
    /// Link identifier.
    pub id: LinkId,
    /// Human-readable name (e.g. "UCSD<->SRI").
    pub name: String,
    /// One endpoint.
    pub a: SiteId,
    /// The other endpoint.
    pub b: SiteId,
    /// One-way propagation delay.
    pub(crate) delay: SimDuration,
    /// Capacity per direction in bytes/sec.
    pub capacity: f64,
}

/// A capacitated resource a flow can consume. Fair sharing operates over these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// Egress side of a node's NIC.
    NodeEgress(NodeId),
    /// Ingress side of a node's NIC.
    NodeIngress(NodeId),
    /// One direction of a WAN link: `(link, from_site, to_site)` collapsed to
    /// a boolean "forward" flag (true = a→b).
    LinkDir(LinkId, bool),
    /// The local fabric at a site (shared by intra-site flows).
    SiteFabric(SiteId),
}

/// A route between two nodes: the resources consumed and the one-way
/// propagation delay.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Resources traversed, in order.
    pub resources: Vec<Resource>,
    /// End-to-end one-way propagation delay.
    pub(crate) delay: SimDuration,
    /// Site-level hops (for diagnostics).
    pub site_path: Vec<SiteId>,
}

/// The site-level part of a route, shared by every node pair between the
/// same two sites. Storing routes per **site pair** instead of per node pair
/// is what lets 10k-node topologies build in milliseconds: the table grows
/// with `sites²` (a few hundred sites even at 10k nodes), while node-level
/// [`Route`]s are assembled on demand from one of these plus the endpoints'
/// NICs.
#[derive(Debug, Clone, PartialEq)]
struct SiteRoute {
    /// Directed WAN hops, in traversal order (empty for same-site pairs).
    link_dirs: Vec<(LinkId, bool)>,
    /// End-to-end one-way propagation delay.
    delay: SimDuration,
    /// Site-level hops (for diagnostics).
    site_path: Vec<SiteId>,
}

/// An immutable network topology with precomputed site-pair routes.
#[derive(Debug, Clone)]
pub struct Topology {
    sites: Vec<Site>,
    nodes: Vec<NetNode>,
    links: Vec<Link>,
    /// site_routes[src_site][dst_site]; the diagonal holds the intra-site
    /// (LAN fabric) route.
    site_routes: Vec<Vec<SiteRoute>>,
}

/// Errors raised while building or querying a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A referenced site does not exist.
    UnknownSite(SiteId),
    /// A referenced node does not exist.
    UnknownNode(NodeId),
    /// Two sites are not connected by any path.
    Unreachable(SiteId, SiteId),
    /// A capacity or delay parameter is invalid (non-positive / non-finite).
    InvalidParameter(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownSite(s) => write!(f, "unknown site {s}"),
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::Unreachable(a, b) => write!(f, "no path between {a} and {b}"),
            TopologyError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incremental builder for a [`Topology`].
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    sites: Vec<Site>,
    nodes: Vec<NetNode>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Start an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a site and return its id.
    pub fn add_site(
        &mut self,
        name: impl Into<String>,
        lan_delay: SimDuration,
        lan_capacity: f64,
    ) -> SiteId {
        let id = SiteId(self.sites.len());
        self.sites.push(Site {
            id,
            name: name.into(),
            lan_delay,
            lan_capacity,
        });
        id
    }

    /// Add a node at `site` and return its id.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        site: SiteId,
        egress_capacity: f64,
        ingress_capacity: f64,
    ) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NetNode {
            id,
            name: name.into(),
            site,
            egress_capacity,
            ingress_capacity,
        });
        id
    }

    /// Connect two sites with a WAN link.
    pub fn connect_sites(
        &mut self,
        a: SiteId,
        b: SiteId,
        delay: SimDuration,
        capacity: f64,
    ) -> LinkId {
        let id = LinkId(self.links.len());
        let name = format!("link-{}-{}", a.0, b.0);
        self.links.push(Link {
            id,
            name,
            a,
            b,
            delay,
            capacity,
        });
        id
    }

    /// Validate the definition and precompute all-pairs routes.
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.sites.is_empty() {
            return Err(TopologyError::InvalidParameter("no sites defined".into()));
        }
        if self.nodes.is_empty() {
            return Err(TopologyError::InvalidParameter("no nodes defined".into()));
        }
        for s in &self.sites {
            if !(s.lan_capacity.is_finite() && s.lan_capacity > 0.0) {
                return Err(TopologyError::InvalidParameter(format!(
                    "site {} lan_capacity must be positive",
                    s.name
                )));
            }
        }
        for n in &self.nodes {
            if n.site.0 >= self.sites.len() {
                return Err(TopologyError::UnknownSite(n.site));
            }
            if !(n.egress_capacity > 0.0 && n.ingress_capacity > 0.0) {
                return Err(TopologyError::InvalidParameter(format!(
                    "node {} NIC capacities must be positive",
                    n.name
                )));
            }
        }
        for l in &self.links {
            if l.a.0 >= self.sites.len() || l.b.0 >= self.sites.len() {
                return Err(TopologyError::UnknownSite(if l.a.0 >= self.sites.len() {
                    l.a
                } else {
                    l.b
                }));
            }
            if !(l.capacity.is_finite() && l.capacity > 0.0) {
                return Err(TopologyError::InvalidParameter(format!(
                    "link {} capacity must be positive",
                    l.name
                )));
            }
        }

        let topo = Topology {
            site_routes: Vec::new(),
            sites: self.sites,
            nodes: self.nodes,
            links: self.links,
        };
        topo.with_routes()
    }
}

/// Result of site-level Dijkstra: predecessor link and total delay.
#[derive(Clone, Copy)]
struct SiteHop {
    prev_site: SiteId,
    via_link: LinkId,
}

impl Topology {
    fn with_routes(mut self) -> Result<Topology, TopologyError> {
        // One Dijkstra per *occupied* source site covers every node pair;
        // unoccupied (transit-only) sites get placeholder rows so the table
        // stays square and index-addressable. Only site pairs that actually
        // host nodes on both ends must be reachable.
        let occupied: Vec<bool> = {
            let mut occ = vec![false; self.sites.len()];
            for n in &self.nodes {
                occ[n.site.0] = true;
            }
            occ
        };
        let mut site_routes: Vec<Vec<SiteRoute>> = Vec::with_capacity(self.sites.len());
        for src in 0..self.sites.len() {
            let src = SiteId(src);
            if !occupied[src.0] {
                site_routes.push(Vec::new());
                continue;
            }
            let (prev, dist) = self.site_paths(src);
            let mut row = Vec::with_capacity(self.sites.len());
            for dst in 0..self.sites.len() {
                let dst = SiteId(dst);
                if src == dst {
                    row.push(SiteRoute {
                        link_dirs: Vec::new(),
                        delay: self.sites[src.0].lan_delay,
                        site_path: vec![src],
                    });
                    continue;
                }
                if !occupied[dst.0] {
                    row.push(SiteRoute {
                        link_dirs: Vec::new(),
                        delay: SimDuration::ZERO,
                        site_path: Vec::new(),
                    });
                    continue;
                }
                let total = dist[dst.0].ok_or(TopologyError::Unreachable(src, dst))?;
                // Reconstruct the path dst -> src.
                let mut path_sites = vec![dst];
                let mut link_dirs: Vec<(LinkId, bool)> = Vec::new();
                let mut cur = dst;
                while cur != src {
                    let hop = prev[cur.0].ok_or(TopologyError::Unreachable(src, dst))?;
                    let link = &self.links[hop.via_link.0];
                    // Direction: traversal goes hop.prev_site -> cur;
                    // forward if that is a->b.
                    let forward = link.a == hop.prev_site && link.b == cur;
                    link_dirs.push((hop.via_link, forward));
                    cur = hop.prev_site;
                    path_sites.push(cur);
                }
                path_sites.reverse();
                link_dirs.reverse();
                row.push(SiteRoute {
                    link_dirs,
                    delay: total,
                    site_path: path_sites,
                });
            }
            site_routes.push(row);
        }
        self.site_routes = site_routes;
        Ok(self)
    }

    /// Dijkstra over the site graph by delay. Returns per-site predecessor.
    fn site_paths(&self, from: SiteId) -> (Vec<Option<SiteHop>>, Vec<Option<SimDuration>>) {
        let ns = self.sites.len();
        let mut dist: Vec<Option<SimDuration>> = vec![None; ns];
        let mut prev: Vec<Option<SiteHop>> = vec![None; ns];
        let mut visited = vec![false; ns];
        dist[from.0] = Some(SimDuration::ZERO);
        // Adjacency: site -> (neighbor, link)
        let mut adj: BTreeMap<usize, Vec<(usize, LinkId, SimDuration)>> = BTreeMap::new();
        for l in &self.links {
            adj.entry(l.a.0).or_default().push((l.b.0, l.id, l.delay));
            adj.entry(l.b.0).or_default().push((l.a.0, l.id, l.delay));
        }
        for _ in 0..ns {
            // Pick the unvisited site with the smallest distance.
            let mut best: Option<(usize, SimDuration)> = None;
            for (i, d) in dist.iter().enumerate() {
                if visited[i] {
                    continue;
                }
                if let Some(d) = d {
                    if best.map(|(_, bd)| *d < bd).unwrap_or(true) {
                        best = Some((i, *d));
                    }
                }
            }
            let Some((u, du)) = best else { break };
            visited[u] = true;
            if let Some(neighbors) = adj.get(&u) {
                for &(v, link, delay) in neighbors {
                    if visited[v] {
                        continue;
                    }
                    let cand = du + delay;
                    if dist[v].map(|dv| cand < dv).unwrap_or(true) {
                        dist[v] = Some(cand);
                        prev[v] = Some(SiteHop {
                            prev_site: SiteId(u),
                            via_link: link,
                        });
                    }
                }
            }
        }
        (prev, dist)
    }

    /// All sites.
    pub fn sites(&self) -> &[Site] {
        &self.sites
    }

    /// All nodes.
    pub fn nodes(&self) -> &[NetNode] {
        &self.nodes
    }

    /// All WAN links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> &NetNode {
        &self.nodes[id.0]
    }

    /// Look up a site by id.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.0]
    }

    /// The route from `src` to `dst`: assembled from the precomputed
    /// site-pair table plus the endpoints' NICs. It allocates (its resource
    /// list and site path); the network's per-probe and per-reallocation
    /// paths visit the same resources through an allocation-free walk
    /// instead, and this stays the reference they are tested against.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Route {
        if src == dst {
            return Route {
                resources: Vec::new(),
                delay: SimDuration::ZERO,
                site_path: vec![self.nodes[src.0].site],
            };
        }
        let s_site = self.nodes[src.0].site;
        let d_site = self.nodes[dst.0].site;
        let site_route = &self.site_routes[s_site.0][d_site.0];
        let mut resources = Vec::with_capacity(site_route.link_dirs.len() + 3);
        resources.push(Resource::NodeEgress(src));
        if s_site == d_site {
            resources.push(Resource::SiteFabric(s_site));
        } else {
            for &(link, forward) in &site_route.link_dirs {
                resources.push(Resource::LinkDir(link, forward));
            }
        }
        resources.push(Resource::NodeIngress(dst));
        Route {
            resources,
            delay: site_route.delay,
            site_path: site_route.site_path.clone(),
        }
    }

    /// Visit the resources of [`Topology::route`]`(src, dst)` in route order
    /// (egress, then the site fabric or the directed WAN hops, then ingress;
    /// nothing for a self-pair) without assembling the route.
    #[inline]
    pub(crate) fn for_each_hop(&self, src: NodeId, dst: NodeId, mut visit: impl FnMut(Resource)) {
        if src == dst {
            return;
        }
        let s_site = self.nodes[src.0].site;
        let d_site = self.nodes[dst.0].site;
        visit(Resource::NodeEgress(src));
        if s_site == d_site {
            visit(Resource::SiteFabric(s_site));
        } else {
            for &(link, forward) in &self.site_routes[s_site.0][d_site.0].link_dirs {
                visit(Resource::LinkDir(link, forward));
            }
        }
        visit(Resource::NodeIngress(dst));
    }

    /// Number of resources: two NIC sides per node, two directions per WAN
    /// link and one fabric per site.
    pub(crate) fn resource_count(&self) -> usize {
        2 * (self.nodes.len() + self.links.len()) + self.sites.len()
    }

    /// Dense index of `r` in `0..resource_count()`, ascending in
    /// [`Resource`]'s `Ord`: every egress, then every ingress, then link
    /// `l`'s directions at `2l + forward`, then the site fabrics.
    #[inline]
    pub(crate) fn resource_index(&self, r: Resource) -> usize {
        let nics = 2 * self.nodes.len();
        match r {
            Resource::NodeEgress(n) => n.0,
            Resource::NodeIngress(n) => self.nodes.len() + n.0,
            Resource::LinkDir(l, forward) => nics + 2 * l.0 + usize::from(forward),
            Resource::SiteFabric(s) => nics + 2 * self.links.len() + s.0,
        }
    }

    /// The capacity of a [`Resource`] in bytes/sec.
    pub(crate) fn resource_capacity(&self, r: Resource) -> f64 {
        match r {
            Resource::NodeEgress(n) => self.nodes[n.0].egress_capacity,
            Resource::NodeIngress(n) => self.nodes[n.0].ingress_capacity,
            Resource::LinkDir(l, _) => self.links[l.0].capacity,
            Resource::SiteFabric(s) => self.sites[s.0].lan_capacity,
        }
    }

    /// Base (uncongested) round-trip time between two nodes.
    pub fn base_rtt(&self, a: NodeId, b: NodeId) -> SimDuration {
        if a == b {
            return SimDuration::from_micros(50);
        }
        // Site-pair delay directly — no route assembly on this hot path.
        let one_way = self.site_routes[self.nodes[a.0].site.0][self.nodes[b.0].site.0].delay;
        one_way * 2
    }

    /// Iterate node ids.
    #[cfg(test)]
    pub(crate) fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gbps, mbps};

    /// Two sites, two nodes each, one WAN link.
    fn small_topology() -> Topology {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("alpha", SimDuration::from_micros(200), gbps(10.0));
        let s1 = b.add_site("beta", SimDuration::from_micros(200), gbps(10.0));
        let n0 = b.add_node("node-1", s0, gbps(1.0), gbps(1.0));
        let _n1 = b.add_node("node-2", s0, gbps(1.0), gbps(1.0));
        let _n2 = b.add_node("node-3", s1, gbps(1.0), gbps(1.0));
        let n3 = b.add_node("node-4", s1, gbps(1.0), gbps(1.0));
        b.connect_sites(s0, s1, SimDuration::from_millis(30), mbps(500.0));
        let t = b.build().unwrap();
        assert_eq!(n0, NodeId(0));
        assert_eq!(n3, NodeId(3));
        t
    }

    #[test]
    fn builds_and_indexes() {
        let t = small_topology();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.sites().len(), 2);
        assert_eq!(t.links().len(), 1);
    }

    #[test]
    fn intra_site_route_uses_fabric() {
        let t = small_topology();
        let r = t.route(NodeId(0), NodeId(1));
        assert_eq!(
            r.resources,
            vec![
                Resource::NodeEgress(NodeId(0)),
                Resource::SiteFabric(SiteId(0)),
                Resource::NodeIngress(NodeId(1))
            ]
        );
        assert_eq!(r.delay, SimDuration::from_micros(200));
    }

    #[test]
    fn inter_site_route_crosses_wan_link() {
        let t = small_topology();
        let r = t.route(NodeId(0), NodeId(3));
        assert!(r
            .resources
            .iter()
            .any(|res| matches!(res, Resource::LinkDir(LinkId(0), _))));
        assert_eq!(r.delay, SimDuration::from_millis(30));
        assert_eq!(r.site_path, vec![SiteId(0), SiteId(1)]);
        // Reverse direction flips the link direction flag.
        let rev = t.route(NodeId(3), NodeId(0));
        let fwd_dir = r
            .resources
            .iter()
            .find_map(|res| match res {
                Resource::LinkDir(_, d) => Some(*d),
                _ => None,
            })
            .unwrap();
        let rev_dir = rev
            .resources
            .iter()
            .find_map(|res| match res {
                Resource::LinkDir(_, d) => Some(*d),
                _ => None,
            })
            .unwrap();
        assert_ne!(fwd_dir, rev_dir);
    }

    #[test]
    fn loopback_route_is_empty() {
        let t = small_topology();
        let r = t.route(NodeId(2), NodeId(2));
        assert!(r.resources.is_empty());
        assert_eq!(r.delay, SimDuration::ZERO);
    }

    #[test]
    fn base_rtt_is_twice_one_way() {
        let t = small_topology();
        assert_eq!(
            t.base_rtt(NodeId(0), NodeId(3)),
            SimDuration::from_millis(60)
        );
        assert_eq!(
            t.base_rtt(NodeId(0), NodeId(1)),
            SimDuration::from_micros(400)
        );
        assert!(t.base_rtt(NodeId(0), NodeId(0)) > SimDuration::ZERO);
    }

    #[test]
    fn multi_hop_routing_picks_shortest_delay() {
        // Three sites in a line: A -- B -- C plus a slow direct A -- C link.
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a", SimDuration::from_micros(100), gbps(10.0));
        let mid = b.add_site("b", SimDuration::from_micros(100), gbps(10.0));
        let c = b.add_site("c", SimDuration::from_micros(100), gbps(10.0));
        let n_a = b.add_node("na", a, gbps(1.0), gbps(1.0));
        let _n_b = b.add_node("nb", mid, gbps(1.0), gbps(1.0));
        let n_c = b.add_node("nc", c, gbps(1.0), gbps(1.0));
        b.connect_sites(a, mid, SimDuration::from_millis(5), mbps(100.0));
        b.connect_sites(mid, c, SimDuration::from_millis(5), mbps(100.0));
        b.connect_sites(a, c, SimDuration::from_millis(50), mbps(100.0));
        let t = b.build().unwrap();
        let r = t.route(n_a, n_c);
        // 5 + 5 = 10ms via B beats 50ms direct.
        assert_eq!(r.delay, SimDuration::from_millis(10));
        assert_eq!(r.site_path.len(), 3);
        let wan_hops = r
            .resources
            .iter()
            .filter(|res| matches!(res, Resource::LinkDir(..)))
            .count();
        assert_eq!(wan_hops, 2);
    }

    #[test]
    fn unreachable_sites_error() {
        let mut b = TopologyBuilder::new();
        let a = b.add_site("a", SimDuration::from_micros(100), gbps(10.0));
        let c = b.add_site("island", SimDuration::from_micros(100), gbps(10.0));
        b.add_node("na", a, gbps(1.0), gbps(1.0));
        b.add_node("nc", c, gbps(1.0), gbps(1.0));
        let err = b.build().unwrap_err();
        assert!(matches!(err, TopologyError::Unreachable(..)));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut b = TopologyBuilder::new();
        let s = b.add_site("a", SimDuration::from_micros(100), gbps(10.0));
        b.add_node("bad", s, 0.0, gbps(1.0));
        assert!(matches!(b.build(), Err(TopologyError::InvalidParameter(_))));

        let empty = TopologyBuilder::new();
        assert!(matches!(
            empty.build(),
            Err(TopologyError::InvalidParameter(_))
        ));

        let mut no_nodes = TopologyBuilder::new();
        no_nodes.add_site("a", SimDuration::from_micros(100), gbps(10.0));
        assert!(matches!(
            no_nodes.build(),
            Err(TopologyError::InvalidParameter(_))
        ));
    }

    #[test]
    fn resource_capacity_lookup() {
        let t = small_topology();
        assert_eq!(
            t.resource_capacity(Resource::NodeEgress(NodeId(0))),
            gbps(1.0)
        );
        assert_eq!(
            t.resource_capacity(Resource::NodeIngress(NodeId(1))),
            gbps(1.0)
        );
        assert_eq!(
            t.resource_capacity(Resource::LinkDir(LinkId(0), true)),
            mbps(500.0)
        );
        assert_eq!(
            t.resource_capacity(Resource::SiteFabric(SiteId(0))),
            gbps(10.0)
        );
    }

    #[test]
    fn resource_index_is_dense_and_follows_resource_order() {
        let t = small_topology();
        let mut all: Vec<Resource> = Vec::new();
        for n in t.node_ids() {
            all.extend([Resource::NodeEgress(n), Resource::NodeIngress(n)]);
        }
        for l in 0..t.links().len() {
            all.extend([false, true].map(|fwd| Resource::LinkDir(LinkId(l), fwd)));
        }
        all.extend((0..t.sites().len()).map(|s| Resource::SiteFabric(SiteId(s))));
        all.sort();
        assert_eq!(all.len(), t.resource_count());
        for (i, &r) in all.iter().enumerate() {
            assert_eq!(t.resource_index(r), i, "{r:?}");
        }
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", NodeId(0)), "node-1");
        assert_eq!(format!("{}", SiteId(2)), "site-2");
        let err = TopologyError::Unreachable(SiteId(0), SiteId(1));
        assert!(format!("{err}").contains("no path"));
    }
}
