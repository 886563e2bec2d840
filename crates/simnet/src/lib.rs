//! # simnet — flow-level geo-distributed network substrate
//!
//! The paper's evaluation runs on a 6-node Kubernetes cluster spread across
//! three FABRIC sites (UCSD, FIU, SRI) connected over the FABNetv4 data plane,
//! with inter-site RTTs of 10–72 ms. The scheduler never sees packets — it
//! sees *telemetry*: inter-node RTT, per-node transmit/receive throughput.
//! This crate therefore models the network at the flow level:
//!
//! * `topology` — sites, nodes (with NIC capacities), WAN links between
//!   sites, and shortest-path routing over the site graph.
//! * `flow` — bulk data transfers (shuffle traffic, background downloads)
//!   described by source, destination and byte count.
//! * `fairness` — max-min fair bandwidth allocation (progressive filling)
//!   across every capacitated resource a flow crosses (source NIC egress,
//!   WAN link directions, destination NIC ingress).
//! * `network` — the fluid simulator: advance time, transfer bytes at the
//!   current fair rates, detect flow completions, expose per-node interface
//!   counters.
//! * `rtt` — a congestion-aware RTT model (propagation + queuing that grows
//!   with link utilization + jitter) probed by the telemetry ping mesh.
//! * `background` — the paper's background-load pod (a curl loop repeatedly
//!   fetching a 10 MB file) as a stochastic flow generator plus a CPU
//!   contention component.
//!
//! The crate has no event loop of its own: the owner (the cluster/workload
//! simulation in `sparksim`/`experiments`) advances it between events via
//! [`Network::advance_to`] and asks for the next interesting time via
//! [`Network::next_completion`].

#![warn(missing_docs)]

mod background;
mod fairness;
mod flow;
mod generators;
mod network;
mod rtt;
mod topology;

pub use background::{
    place_random_background_load, BackgroundLoadConfig, BackgroundLoadGenerator,
    BackgroundTransfer, BACKGROUND_POD_MEMORY_BYTES,
};
pub use flow::{Flow, FlowId};
pub use generators::{LeafSpineSpec, StarLanSpec, TieredClosSpec, TopologySpec, WanMeshSpec};
pub use network::{InterfaceCounters, Network};
pub use topology::{LinkId, NetNode, NodeId, Site, SiteId, Topology, TopologyBuilder};

/// Alias for [`NodeId`] that cannot be confused with `cluster::NodeId` when
/// both id spaces are in scope downstream (the `netsched` facade exports the
/// matching `ClusterNodeId` alias of `cluster::NodeId`).
pub use topology::NodeId as SimNodeId;

/// Convert megabits per second to bytes per second.
pub fn mbps(v: f64) -> f64 {
    v * 1_000_000.0 / 8.0
}

/// Convert gigabits per second to bytes per second.
pub fn gbps(v: f64) -> f64 {
    v * 1_000_000_000.0 / 8.0
}

/// Convert megabytes to bytes.
pub fn megabytes(v: f64) -> f64 {
    v * 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_helpers() {
        assert_eq!(mbps(8.0), 1_000_000.0);
        assert_eq!(gbps(1.0), 125_000_000.0);
        assert_eq!(megabytes(10.0), 10_000_000.0);
    }
}
