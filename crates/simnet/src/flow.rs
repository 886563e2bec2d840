//! Bulk data flows.
//!
//! A flow is a one-way transfer of a fixed number of bytes between two nodes
//! (a Spark shuffle fetch, a result upload, or a background download). The
//! fluid model in [`crate::network`] advances every active flow at its current
//! max-min fair rate.

use crate::topology::NodeId;
use std::fmt;

/// Identifier of a flow (unique within one [`crate::network::Network`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow-{}", self.0)
    }
}

/// A single active flow tracked by the network.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Identifier.
    pub id: FlowId,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Total bytes to transfer.
    pub(crate) total_bytes: f64,
    /// Bytes delivered so far.
    pub(crate) transferred_bytes: f64,
    /// Current allocated rate in bytes/sec (updated on every reallocation).
    pub rate: f64,
}

impl Flow {
    /// Create a new active flow.
    pub(crate) fn new(id: FlowId, src: NodeId, dst: NodeId, total_bytes: f64) -> Self {
        Flow {
            id,
            src,
            dst,
            total_bytes: total_bytes.max(0.0),
            transferred_bytes: 0.0,
            rate: 0.0,
        }
    }

    /// Bytes still to transfer.
    pub(crate) fn remaining_bytes(&self) -> f64 {
        (self.total_bytes - self.transferred_bytes).max(0.0)
    }

    /// Time to completion at the current rate, or `None` if the rate is zero.
    pub(crate) fn eta_seconds(&self) -> Option<f64> {
        if self.rate > 0.0 {
            Some(self.remaining_bytes() / self.rate)
        } else if self.remaining_bytes() == 0.0 {
            Some(0.0)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(total: f64) -> Flow {
        Flow::new(FlowId(1), NodeId(0), NodeId(1), total)
    }

    #[test]
    fn new_flow_has_nothing_sent() {
        let f = flow(1000.0);
        assert_eq!(f.remaining_bytes(), 1000.0);
        assert_eq!(f.eta_seconds(), None, "no rate allocated yet");
    }

    #[test]
    fn negative_sizes_clamp_to_zero() {
        let f = flow(-5.0);
        assert_eq!(f.total_bytes, 0.0);
        assert_eq!(f.eta_seconds(), Some(0.0));
    }

    #[test]
    fn eta_uses_current_rate() {
        let mut f = flow(1_000_000.0);
        f.rate = 250_000.0;
        assert_eq!(f.eta_seconds(), Some(4.0));
        f.transferred_bytes = 500_000.0;
        assert_eq!(f.eta_seconds(), Some(2.0));
    }

    #[test]
    fn remaining_bytes_clamp_at_zero() {
        let mut f = flow(100.0);
        f.transferred_bytes = 150.0;
        assert_eq!(f.remaining_bytes(), 0.0);
    }

    #[test]
    fn display_id() {
        assert_eq!(format!("{}", FlowId(7)), "flow-7");
    }
}
