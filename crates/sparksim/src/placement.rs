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

    /// Number of executors.
    pub fn executor_count(&self) -> usize {
        self.executor_nodes.len()
    }

    /// Distinct nodes hosting at least one executor, in first-seen order.
    pub fn distinct_executor_nodes(&self) -> Vec<NodeId> {
        let mut seen = Vec::new();
        for &n in &self.executor_nodes {
            if !seen.contains(&n) {
                seen.push(n);
            }
        }
        seen
    }

    /// Number of executors placed on `node`.
    pub fn executors_on(&self, node: NodeId) -> usize {
        self.executor_nodes.iter().filter(|&&n| n == node).count()
    }

    /// True when at least one executor shares the driver's node.
    pub fn driver_colocated_with_executor(&self) -> bool {
        self.executor_nodes.contains(&self.driver_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = Placement::new(NodeId(2), vec![NodeId(0), NodeId(1), NodeId(0), NodeId(3)]);
        assert_eq!(p.executor_count(), 4);
        assert_eq!(
            p.distinct_executor_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(3)]
        );
        assert_eq!(p.executors_on(NodeId(0)), 2);
        assert_eq!(p.executors_on(NodeId(5)), 0);
        assert!(!p.driver_colocated_with_executor());
        let colocated = Placement::new(NodeId(1), vec![NodeId(1), NodeId(2)]);
        assert!(colocated.driver_colocated_with_executor());
    }

    #[test]
    fn empty_executors() {
        let p = Placement::new(NodeId(0), vec![]);
        assert_eq!(p.executor_count(), 0);
        assert!(p.distinct_executor_nodes().is_empty());
        assert!(!p.driver_colocated_with_executor());
    }
}
