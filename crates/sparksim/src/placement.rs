//! Driver and executor placement.

use simnet::NodeId;

/// Where the application's pods run.
///
/// The driver node is the decision under evaluation; executor nodes are chosen
/// by the default scheduler (the paper keeps executor placement fixed to the
/// default behaviour to isolate the driver-placement effect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The node hosting the driver pod.
    pub driver_node: NodeId,
    /// One entry per executor pod.
    pub executor_nodes: Vec<NodeId>,
}

impl Placement {
    /// Create a placement.
    pub fn new(driver_node: NodeId, executor_nodes: Vec<NodeId>) -> Self {
        Placement {
            driver_node,
            executor_nodes,
        }
    }
}
