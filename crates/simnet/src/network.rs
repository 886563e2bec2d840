//! The fluid network simulator.
//!
//! [`Network`] tracks active flows (a flow leaves the network when it
//! completes or is cancelled), allocates max-min fair rates whenever the
//! flow set changes, and transfers bytes when the owner advances simulated
//! time. It also maintains per-node interface counters (cumulative tx/rx
//! bytes) and per-resource utilization — exactly the signals the telemetry
//! exporters scrape.
//!
//! Utilization is a dense table with one entry per [`Resource`], rewritten
//! on every reallocation. A ping probe ([`Network::current_rtt`])
//! is therefore pure arithmetic: it walks the pair's hops in route order and
//! reads one table entry per hop, without assembling a
//! [`Route`](crate::topology::Route) or allocating.
//!
//! [`Resource`]: crate::topology::Resource

#![expect(
    clippy::disallowed_types,
    reason = "flows are only looked up by id or updated entry by entry; no hash order reaches an output"
)]

use crate::fairness::{max_min_fair_rates, FlowDemand};
use crate::flow::{Flow, FlowId};
use crate::rtt::RttModel;
use crate::topology::{NodeId, Topology};
use simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// Cumulative interface counters for one node (what node-exporter reports as
/// `node_network_transmit_bytes_total` / `node_network_receive_bytes_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InterfaceCounters {
    /// Total bytes transmitted by the node since simulation start.
    pub tx_bytes: f64,
    /// Total bytes received by the node since simulation start.
    pub rx_bytes: f64,
}

/// The flow-level network simulator.
#[derive(Debug, Clone)]
pub struct Network {
    topology: Topology,
    rtt_model: RttModel,
    flows: HashMap<FlowId, Flow>,
    active_order: Vec<FlowId>,
    next_flow_id: u64,
    counters: Vec<InterfaceCounters>,
    now: SimTime,
    /// Per-resource utilization (rate / capacity) by
    /// [`Topology::resource_index`], rewritten on every reallocation; a
    /// resource no active flow crosses reads 0.
    utilization: Vec<f64>,
}

impl Network {
    /// Create a network over `topology` with the default RTT model.
    pub fn new(topology: Topology) -> Self {
        let n = topology.node_count();
        let resources = topology.resource_count();
        Network {
            topology,
            rtt_model: RttModel::default(),
            flows: HashMap::new(),
            active_order: Vec::new(),
            next_flow_id: 0,
            counters: vec![InterfaceCounters::default(); n],
            now: SimTime::ZERO,
            utilization: vec![0.0; resources],
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current simulated time of the network.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Start a flow of `bytes` from `src` to `dst` and return its id.
    /// Rates of all active flows are re-allocated immediately.
    pub fn start_flow(&mut self, src: NodeId, dst: NodeId, bytes: f64) -> FlowId {
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        let flow = Flow::new(id, src, dst, bytes);
        self.flows.insert(id, flow);
        self.active_order.push(id);
        self.reallocate();
        id
    }

    /// Cancel an active flow (used when a job is aborted). No-op if already finished.
    pub fn cancel_flow(&mut self, id: FlowId) {
        if self.flows.remove(&id).is_some() {
            self.active_order.retain(|&f| f != id);
            self.reallocate();
        }
    }

    /// Look up a flow by id: `Some` exactly while it is active.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(&id)
    }

    /// Number of currently active flows.
    pub fn active_flow_count(&self) -> usize {
        self.active_order.len()
    }

    /// The earliest future time at which an active flow completes at current
    /// rates, or `None` when no active flow is progressing.
    pub fn next_completion(&self) -> Option<SimTime> {
        let mut best: Option<SimTime> = None;
        for id in &self.active_order {
            let flow = &self.flows[id];
            if let Some(eta) = flow.eta_seconds() {
                let mut delta = SimDuration::from_secs_f64(eta);
                // Guarantee forward progress: an ETA that rounds to zero
                // nanoseconds while bytes remain would stall the fluid loop.
                if delta.is_zero() && flow.remaining_bytes() > 0.0 {
                    delta = SimDuration::from_nanos(1);
                }
                let t = self.now + delta;
                best = Some(match best {
                    None => t,
                    Some(b) => b.min(t),
                });
            }
        }
        best
    }

    /// Advance the fluid model to `target` (monotone; earlier times are a no-op).
    ///
    /// Bytes are transferred at the currently allocated rates; flows that
    /// finish strictly before `target` complete at their exact finish time and
    /// rates are re-allocated from that instant, so the trajectory is piecewise
    /// linear and exact.
    pub fn advance_to(&mut self, target: SimTime) {
        while self.now < target {
            // Earliest completion before `target`, if any.
            let next_done = self.next_completion().filter(|&t| t <= target);
            let step_end = next_done.unwrap_or(target);
            let dt = (step_end - self.now).as_secs_f64();
            if dt > 0.0 {
                self.transfer_bytes(dt);
            }
            self.now = step_end;
            if self.remove_finished() {
                self.reallocate();
            }
            if next_done.is_none() {
                break;
            }
        }
        // Even with no active flows the clock must reach the target.
        if self.now < target {
            self.now = target;
        }
    }

    /// Transfer bytes for `dt` seconds at current rates and update counters.
    #[expect(
        clippy::expect_used,
        reason = "active_order only holds ids of flows in the map; both are mutated together"
    )]
    fn transfer_bytes(&mut self, dt: f64) {
        for id in &self.active_order {
            let flow = self.flows.get_mut(id).expect("active flow exists");
            if flow.rate <= 0.0 {
                continue;
            }
            let delta = (flow.rate * dt).min(flow.remaining_bytes());
            flow.transferred_bytes += delta;
            // Loopback transfers never touch the NIC, so they do not show up
            // in the interface counters node-exporter would report.
            if flow.src != flow.dst {
                self.counters[flow.src.0].tx_bytes += delta;
                self.counters[flow.dst.0].rx_bytes += delta;
            }
        }
    }

    /// Remove the flows that have delivered all bytes, returning whether
    /// there were any.
    fn remove_finished(&mut self) -> bool {
        let before = self.active_order.len();
        // Tolerance: a byte fraction left due to floating point is "done".
        // A thousandth of a byte can never matter for completion times but a
        // tighter threshold can strand flows whose ETA rounds below the clock
        // resolution.
        const EPS_BYTES: f64 = 1e-3;
        let flows = &mut self.flows;
        self.active_order.retain(|id| {
            let done = flows[id].remaining_bytes() <= EPS_BYTES;
            if done {
                flows.remove(id);
            }
            !done
        });
        self.active_order.len() < before
    }

    /// Recompute max-min fair rates for all active flows and refresh the
    /// per-resource utilization cache.
    #[expect(
        clippy::expect_used,
        reason = "active_order only holds ids of flows in the map; both are mutated together"
    )]
    fn reallocate(&mut self) {
        let topo = &self.topology;
        let demands: Vec<FlowDemand> = self
            .active_order
            .iter()
            .map(|id| {
                let flow = &self.flows[id];
                let mut resources = Vec::with_capacity(4);
                topo.for_each_hop(flow.src, flow.dst, |r| resources.push(r));
                FlowDemand {
                    resources,
                    rate_cap: f64::INFINITY,
                }
            })
            .collect();
        let rates = max_min_fair_rates(&demands, |r| topo.resource_capacity(r));
        let mut used = vec![0.0; self.utilization.len()];
        for (demand, &rate) in demands.iter().zip(&rates) {
            for &r in &demand.resources {
                used[topo.resource_index(r)] += rate;
            }
        }
        // Only the resources some flow crosses are written; the rest stay 0.
        self.utilization.fill(0.0);
        for &r in demands.iter().flat_map(|d| &d.resources) {
            let i = topo.resource_index(r);
            let cap = topo.resource_capacity(r);
            self.utilization[i] = if cap > 0.0 {
                (used[i] / cap).clamp(0.0, 1.0)
            } else {
                1.0
            };
        }
        for (id, &rate) in self.active_order.iter().zip(&rates) {
            self.flows.get_mut(id).expect("active flow exists").rate = rate;
        }
    }

    /// Cumulative interface counters for `node`.
    pub fn counters(&self, node: NodeId) -> InterfaceCounters {
        self.counters[node.0]
    }

    /// Utilization (0..=1) of the most loaded resource along the `a -> b` path.
    pub fn path_utilization(&self, a: NodeId, b: NodeId) -> f64 {
        let topo = &self.topology;
        let mut max = 0.0;
        topo.for_each_hop(a, b, |r| {
            max = f64::max(max, self.utilization[topo.resource_index(r)]);
        });
        max
    }

    /// Current round-trip time between two nodes, inflated by congestion along
    /// both directions of the path, with deterministic jitter from `jitter_seed`.
    pub fn current_rtt(&self, a: NodeId, b: NodeId, jitter_seed: u64) -> SimDuration {
        let base = self.topology.base_rtt(a, b);
        let util = self.path_utilization(a, b).max(self.path_utilization(b, a));
        self.rtt_model.rtt(base, util, jitter_seed)
    }

    /// Run the network until every active flow completes (or `max_horizon`
    /// elapses), returning the time at which the last flow finished.
    pub fn run_to_quiescence(&mut self, max_horizon: SimDuration) -> SimTime {
        let deadline = self.now + max_horizon;
        while !self.active_order.is_empty() {
            match self.next_completion() {
                Some(t) if t <= deadline => self.advance_to(t),
                _ => {
                    self.advance_to(deadline);
                    break;
                }
            }
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::{gbps, mbps};

    /// 2 sites x 2 nodes, 30 ms / 500 Mbps WAN link, 1 Gbps NICs.
    fn network() -> Network {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("alpha", SimDuration::from_micros(200), gbps(10.0));
        let s1 = b.add_site("beta", SimDuration::from_micros(200), gbps(10.0));
        b.add_node("node-1", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-2", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-3", s1, gbps(1.0), gbps(1.0));
        b.add_node("node-4", s1, gbps(1.0), gbps(1.0));
        b.connect_sites(s0, s1, SimDuration::from_millis(30), mbps(500.0));
        Network::new(b.build().unwrap())
    }

    #[test]
    fn single_flow_completes_at_expected_time() {
        let mut net = network();
        // 62.5 MB over a 500 Mbps (= 62.5 MB/s) WAN bottleneck -> 1 second.
        let id = net.start_flow(NodeId(0), NodeId(2), 62_500_000.0);
        let done = net.next_completion().unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6, "{done}");
        net.advance_to(done);
        assert!(
            net.flow(id).is_none(),
            "a completed flow leaves the network"
        );
        assert_eq!(net.active_flow_count(), 0);
        assert!((net.counters(NodeId(0)).tx_bytes - 62_500_000.0).abs() < 1.0);
        assert!((net.counters(NodeId(2)).rx_bytes - 62_500_000.0).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_the_wan_bottleneck() {
        let mut net = network();
        // Two identical inter-site flows share 62.5 MB/s -> each gets 31.25 MB/s.
        let a = net.start_flow(NodeId(0), NodeId(2), 31_250_000.0);
        let b = net.start_flow(NodeId(1), NodeId(3), 31_250_000.0);
        let rate_a = net.flow(a).unwrap().rate;
        let rate_b = net.flow(b).unwrap().rate;
        assert!((rate_a - 31_250_000.0).abs() < 1.0);
        assert!((rate_b - 31_250_000.0).abs() < 1.0);
        let done = net.next_completion().unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.advance_to(done);
        assert_eq!(net.active_flow_count(), 0);
    }

    #[test]
    fn remaining_flow_speeds_up_after_first_completes() {
        let mut net = network();
        // Flow A: 31.25 MB, flow B: 93.75 MB, sharing 62.5 MB/s.
        // Phase 1: both at 31.25 MB/s, A finishes at t=1 (B has 62.5 MB left).
        // Phase 2: B alone at 62.5 MB/s, finishes 1 s later at t=2.
        let a = net.start_flow(NodeId(0), NodeId(2), 31_250_000.0);
        let b = net.start_flow(NodeId(1), NodeId(3), 93_750_000.0);
        net.advance_to(net.next_completion().unwrap());
        assert!((net.now().as_secs_f64() - 1.0).abs() < 1e-6);
        assert!(net.flow(a).is_none());
        assert!((net.flow(b).unwrap().rate - 62_500_000.0).abs() < 1.0);
        let done_at = net.next_completion().unwrap().as_secs_f64();
        assert!((done_at - 2.0).abs() < 1e-6, "B finishes at {done_at}");
        net.advance_to(SimTime::from_secs(10));
        assert!(net.flow(b).is_none());
    }

    #[test]
    fn intra_site_flows_use_lan_and_are_fast() {
        let mut net = network();
        // 125 MB at 1 Gbps NIC limit (125 MB/s) -> 1 second; LAN fabric is 10 Gbps.
        let id = net.start_flow(NodeId(0), NodeId(1), 125_000_000.0);
        let done = net.next_completion().unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.advance_to(done);
        assert!(net.flow(id).is_none());
    }

    #[test]
    fn loopback_flow_completes_immediately() {
        let mut net = network();
        let id = net.start_flow(NodeId(0), NodeId(0), 1_000_000_000.0);
        let done = net.next_completion().unwrap();
        assert!(done.as_secs_f64() < 0.01);
        net.advance_to(done);
        assert!(net.flow(id).is_none());
    }

    #[test]
    fn cancel_removes_flow_and_frees_bandwidth() {
        let mut net = network();
        let a = net.start_flow(NodeId(0), NodeId(2), 62_500_000.0);
        let b = net.start_flow(NodeId(1), NodeId(3), 62_500_000.0);
        assert!((net.flow(a).unwrap().rate - 31_250_000.0).abs() < 1.0);
        net.cancel_flow(b);
        assert!((net.flow(a).unwrap().rate - 62_500_000.0).abs() < 1.0);
        assert!(net.flow(b).is_none(), "a cancelled flow leaves the network");
        assert_eq!(net.active_flow_count(), 1);
        // Cancelling again is a no-op.
        net.cancel_flow(b);
        assert_eq!(net.active_flow_count(), 1);
    }

    #[test]
    fn rtt_grows_with_congestion() {
        let mut net = network();
        let quiet = net.current_rtt(NodeId(0), NodeId(2), 1);
        net.start_flow(NodeId(0), NodeId(2), 1e12);
        net.start_flow(NodeId(1), NodeId(3), 1e12);
        let busy = net.current_rtt(NodeId(0), NodeId(2), 1);
        assert!(busy > quiet, "busy {busy} should exceed quiet {quiet}");
        // Base RTT (60 ms) should still dominate the scale.
        assert!(quiet >= SimDuration::from_millis(60));
    }

    #[test]
    fn advance_is_monotone_and_idempotent_backwards() {
        let mut net = network();
        net.start_flow(NodeId(0), NodeId(2), 62_500_000.0);
        net.advance_to(SimTime::from_millis(500));
        let tx_at_half = net.counters(NodeId(0)).tx_bytes;
        assert!((tx_at_half - 31_250_000.0).abs() < 1.0);
        // Advancing "backwards" does nothing.
        net.advance_to(SimTime::from_millis(100));
        assert_eq!(net.counters(NodeId(0)).tx_bytes, tx_at_half);
        assert_eq!(net.now(), SimTime::from_millis(500));
    }

    #[test]
    fn run_to_quiescence_finishes_everything() {
        let mut net = network();
        let ids: Vec<FlowId> = (0..4)
            .map(|i| net.start_flow(NodeId(i % 4), NodeId((i + 2) % 4), 10_000_000.0))
            .collect();
        let last = net.next_completion().unwrap();
        let end = net.run_to_quiescence(SimDuration::from_secs(3600));
        assert_eq!(net.active_flow_count(), 0);
        assert!(end >= last);
        assert_eq!(net.next_completion(), None);
        assert!(ids.iter().all(|&id| net.flow(id).is_none()));
    }

    #[test]
    fn path_utilization_is_bounded() {
        let mut net = network();
        for _ in 0..8 {
            net.start_flow(NodeId(0), NodeId(2), 1e12);
        }
        let u = net.path_utilization(NodeId(0), NodeId(2));
        assert!(u > 0.9 && u <= 1.0, "utilization {u}");
        assert_eq!(net.path_utilization(NodeId(1), NodeId(1)), 0.0);
    }
}
