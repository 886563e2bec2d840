//! The fluid network simulator.
//!
//! [`Network`] tracks active flows, allocates max-min fair rates whenever the
//! flow set changes, and transfers bytes when the owner advances simulated
//! time. It also maintains per-node interface counters (cumulative tx/rx
//! bytes) and exposes instantaneous per-node rates and per-resource
//! utilization — exactly the signals the telemetry exporters scrape.

use crate::fairness::{max_min_fair_rates, FlowDemand};
use crate::flow::{Flow, FlowId, FlowKind, FlowState};
use crate::rtt::RttModel;
use crate::topology::{NodeId, Resource, Topology};
use serde::{Deserialize, Serialize};
use simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// Cumulative interface counters for one node (what node-exporter reports as
/// `node_network_transmit_bytes_total` / `node_network_receive_bytes_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct InterfaceCounters {
    /// Total bytes transmitted by the node since simulation start.
    pub tx_bytes: f64,
    /// Total bytes received by the node since simulation start.
    pub rx_bytes: f64,
}

/// Instantaneous send/receive rates for one node in bytes/sec.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeRates {
    /// Current aggregate transmit rate.
    pub tx_rate: f64,
    /// Current aggregate receive rate.
    pub rx_rate: f64,
}

/// A record of a completed flow, kept for workload accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompletedFlow {
    /// The flow as it looked at completion time.
    pub flow: Flow,
    /// Transfer duration.
    pub duration: SimDuration,
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
    completed: Vec<CompletedFlow>,
    /// Cached per-resource utilization (rate / capacity), refreshed on reallocation.
    utilization: HashMap<Resource, f64>,
}

impl Network {
    /// Create a network over `topology` with the default RTT model.
    pub fn new(topology: Topology) -> Self {
        let n = topology.node_count();
        Network {
            topology,
            rtt_model: RttModel::default(),
            flows: HashMap::new(),
            active_order: Vec::new(),
            next_flow_id: 0,
            counters: vec![InterfaceCounters::default(); n],
            now: SimTime::ZERO,
            completed: Vec::new(),
            utilization: HashMap::new(),
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
    pub fn start_flow(&mut self, src: NodeId, dst: NodeId, bytes: f64, kind: FlowKind) -> FlowId {
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        let flow = Flow::new(id, src, dst, bytes, kind, self.now);
        self.flows.insert(id, flow);
        self.active_order.push(id);
        self.reallocate();
        id
    }

    /// Cancel an active flow (used when a job is aborted). No-op if already finished.
    pub fn cancel_flow(&mut self, id: FlowId) {
        if let Some(flow) = self.flows.get_mut(&id) {
            if flow.state == FlowState::Active {
                flow.state = FlowState::Cancelled;
                flow.rate = 0.0;
                self.active_order.retain(|&f| f != id);
                self.reallocate();
            }
        }
    }

    /// Look up a flow by id (active, completed or cancelled).
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(&id)
    }

    /// Number of currently active flows.
    pub fn active_flow_count(&self) -> usize {
        self.active_order.len()
    }

    /// Completed flows recorded so far (drained by [`Network::drain_completed`]).
    pub fn completed(&self) -> &[CompletedFlow] {
        &self.completed
    }

    /// Remove and return all completion records accumulated so far.
    pub fn drain_completed(&mut self) -> Vec<CompletedFlow> {
        std::mem::take(&mut self.completed)
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
            let finished = self.collect_finished();
            if !finished.is_empty() {
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

    /// Mark flows that have delivered all bytes as completed.
    fn collect_finished(&mut self) -> Vec<FlowId> {
        let mut finished = Vec::new();
        // Tolerance: a byte fraction left due to floating point is "done".
        // A thousandth of a byte can never matter for completion times but a
        // tighter threshold can strand flows whose ETA rounds below the clock
        // resolution.
        const EPS_BYTES: f64 = 1e-3;
        self.active_order.retain(|&id| {
            let flow = self.flows.get_mut(&id).expect("active flow exists");
            if flow.remaining_bytes() <= EPS_BYTES {
                flow.transferred_bytes = flow.total_bytes;
                flow.state = FlowState::Completed;
                flow.completed_at = Some(self.now);
                flow.rate = 0.0;
                finished.push(id);
                false
            } else {
                true
            }
        });
        for id in &finished {
            let flow = self.flows[id].clone();
            let duration = self.now - flow.started_at;
            self.completed.push(CompletedFlow { flow, duration });
        }
        finished
    }

    /// Recompute max-min fair rates for all active flows and refresh the
    /// per-resource utilization cache.
    fn reallocate(&mut self) {
        let demands: Vec<FlowDemand> = self
            .active_order
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let flow = &self.flows[id];
                FlowDemand {
                    index: i,
                    resources: self.topology.route(flow.src, flow.dst).resources,
                    rate_cap: f64::INFINITY,
                }
            })
            .collect();
        let topo = &self.topology;
        let rates = max_min_fair_rates(&demands, |r| topo.resource_capacity(r));
        let mut utilization: HashMap<Resource, f64> = HashMap::new();
        for (i, id) in self.active_order.iter().enumerate() {
            let rate = rates[i];
            for &r in &demands[i].resources {
                *utilization.entry(r).or_insert(0.0) += rate;
            }
            self.flows.get_mut(id).expect("active flow exists").rate = rate;
        }
        for (r, used) in utilization.iter_mut() {
            let cap = self.topology.resource_capacity(*r);
            *used = if cap > 0.0 {
                (*used / cap).clamp(0.0, 1.0)
            } else {
                1.0
            };
        }
        self.utilization = utilization;
    }

    /// Cumulative interface counters for `node`.
    pub fn counters(&self, node: NodeId) -> InterfaceCounters {
        self.counters[node.0]
    }

    /// Instantaneous tx/rx rates for `node` (sum of its active flows' rates).
    pub fn node_rates(&self, node: NodeId) -> NodeRates {
        let mut rates = NodeRates::default();
        for id in &self.active_order {
            let flow = &self.flows[id];
            if flow.src == node {
                rates.tx_rate += flow.rate;
            }
            if flow.dst == node {
                rates.rx_rate += flow.rate;
            }
        }
        rates
    }

    /// Utilization (0..=1) of the most loaded resource along the `a -> b` path.
    pub fn path_utilization(&self, a: NodeId, b: NodeId) -> f64 {
        self.topology
            .route(a, b)
            .resources
            .iter()
            .map(|r| self.utilization.get(r).copied().unwrap_or(0.0))
            .fold(0.0, f64::max)
    }

    /// Current round-trip time between two nodes, inflated by congestion along
    /// both directions of the path, with deterministic jitter from `jitter_seed`.
    pub fn current_rtt(&self, a: NodeId, b: NodeId, jitter_seed: u64) -> SimDuration {
        let base = self.topology.base_rtt(a, b);
        let util = self.path_utilization(a, b).max(self.path_utilization(b, a));
        self.rtt_model.rtt(base, util, jitter_seed)
    }

    /// Aggregate bytes currently in flight (remaining bytes of active flows).
    pub fn bytes_in_flight(&self) -> f64 {
        self.active_order
            .iter()
            .map(|id| self.flows[id].remaining_bytes())
            .sum()
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
        let id = net.start_flow(NodeId(0), NodeId(2), 62_500_000.0, FlowKind::Shuffle);
        let done = net.next_completion().unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6, "{done}");
        net.advance_to(done);
        let flow = net.flow(id).unwrap();
        assert!(flow.is_complete());
        assert_eq!(net.active_flow_count(), 0);
        assert_eq!(net.completed().len(), 1);
        assert!((net.counters(NodeId(0)).tx_bytes - 62_500_000.0).abs() < 1.0);
        assert!((net.counters(NodeId(2)).rx_bytes - 62_500_000.0).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_the_wan_bottleneck() {
        let mut net = network();
        // Two identical inter-site flows share 62.5 MB/s -> each gets 31.25 MB/s.
        let a = net.start_flow(NodeId(0), NodeId(2), 31_250_000.0, FlowKind::Shuffle);
        let b = net.start_flow(NodeId(1), NodeId(3), 31_250_000.0, FlowKind::Shuffle);
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
        net.start_flow(NodeId(0), NodeId(2), 31_250_000.0, FlowKind::Shuffle);
        let b = net.start_flow(NodeId(1), NodeId(3), 93_750_000.0, FlowKind::Shuffle);
        net.advance_to(SimTime::from_secs(10));
        let flow_b = net.flow(b).unwrap();
        assert!(flow_b.is_complete());
        let done_at = flow_b.completed_at.unwrap().as_secs_f64();
        assert!((done_at - 2.0).abs() < 1e-6, "B finished at {done_at}");
    }

    #[test]
    fn intra_site_flows_use_lan_and_are_fast() {
        let mut net = network();
        // 125 MB at 1 Gbps NIC limit (125 MB/s) -> 1 second; LAN fabric is 10 Gbps.
        let id = net.start_flow(NodeId(0), NodeId(1), 125_000_000.0, FlowKind::Shuffle);
        let done = net.next_completion().unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
        net.advance_to(done);
        assert!(net.flow(id).unwrap().is_complete());
    }

    #[test]
    fn loopback_flow_completes_immediately() {
        let mut net = network();
        let id = net.start_flow(NodeId(0), NodeId(0), 1_000_000_000.0, FlowKind::Shuffle);
        let done = net.next_completion().unwrap();
        assert!(done.as_secs_f64() < 0.01);
        net.advance_to(done);
        assert!(net.flow(id).unwrap().is_complete());
    }

    #[test]
    fn cancel_removes_flow_and_frees_bandwidth() {
        let mut net = network();
        let a = net.start_flow(NodeId(0), NodeId(2), 62_500_000.0, FlowKind::Shuffle);
        let b = net.start_flow(NodeId(1), NodeId(3), 62_500_000.0, FlowKind::Background);
        assert!((net.flow(a).unwrap().rate - 31_250_000.0).abs() < 1.0);
        net.cancel_flow(b);
        assert!((net.flow(a).unwrap().rate - 62_500_000.0).abs() < 1.0);
        assert_eq!(net.flow(b).unwrap().state, FlowState::Cancelled);
        assert_eq!(net.active_flow_count(), 1);
        // Cancelling again is a no-op.
        net.cancel_flow(b);
        assert_eq!(net.active_flow_count(), 1);
    }

    #[test]
    fn node_rates_reflect_active_flows() {
        let mut net = network();
        net.start_flow(NodeId(0), NodeId(2), 1e9, FlowKind::Shuffle);
        net.start_flow(NodeId(0), NodeId(3), 1e9, FlowKind::Shuffle);
        let rates = net.node_rates(NodeId(0));
        // Both flows leave node-1; their combined tx is bounded by the WAN (62.5 MB/s).
        assert!(rates.tx_rate > 0.0);
        assert!(rates.tx_rate <= 62_500_000.0 * 1.001);
        assert_eq!(rates.rx_rate, 0.0);
        let rx = net.node_rates(NodeId(2));
        assert!(rx.rx_rate > 0.0);
        assert_eq!(rx.tx_rate, 0.0);
        // Idle node sees nothing.
        let idle = net.node_rates(NodeId(1));
        assert_eq!(idle, NodeRates::default());
    }

    #[test]
    fn rtt_grows_with_congestion() {
        let mut net = network();
        let quiet = net.current_rtt(NodeId(0), NodeId(2), 1);
        net.start_flow(NodeId(0), NodeId(2), 1e12, FlowKind::Background);
        net.start_flow(NodeId(1), NodeId(3), 1e12, FlowKind::Background);
        let busy = net.current_rtt(NodeId(0), NodeId(2), 1);
        assert!(busy > quiet, "busy {busy} should exceed quiet {quiet}");
        // Base RTT (60 ms) should still dominate the scale.
        assert!(quiet >= SimDuration::from_millis(60));
    }

    #[test]
    fn advance_is_monotone_and_idempotent_backwards() {
        let mut net = network();
        net.start_flow(NodeId(0), NodeId(2), 62_500_000.0, FlowKind::Shuffle);
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
        for i in 0..4 {
            net.start_flow(
                NodeId(i % 4),
                NodeId((i + 2) % 4),
                10_000_000.0,
                FlowKind::Shuffle,
            );
        }
        let end = net.run_to_quiescence(SimDuration::from_secs(3600));
        assert_eq!(net.active_flow_count(), 0);
        assert!(end > SimTime::ZERO);
        assert_eq!(net.drain_completed().len(), 4);
        assert!(net.completed().is_empty());
    }

    #[test]
    fn bytes_in_flight_decreases() {
        let mut net = network();
        net.start_flow(NodeId(0), NodeId(2), 62_500_000.0, FlowKind::Shuffle);
        let before = net.bytes_in_flight();
        net.advance_to(SimTime::from_millis(200));
        let after = net.bytes_in_flight();
        assert!(after < before);
    }

    #[test]
    fn path_utilization_is_bounded() {
        let mut net = network();
        for _ in 0..8 {
            net.start_flow(NodeId(0), NodeId(2), 1e12, FlowKind::Background);
        }
        let u = net.path_utilization(NodeId(0), NodeId(2));
        assert!(u > 0.9 && u <= 1.0, "utilization {u}");
        assert_eq!(net.path_utilization(NodeId(1), NodeId(1)), 0.0);
    }
}
