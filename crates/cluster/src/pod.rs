//! Pods: the unit of placement.

use crate::node::{Node, HOSTNAME_LABEL};
use crate::resources::Resources;
use std::fmt;

/// Identifier of a pod within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PodId(pub u64);

impl fmt::Display for PodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod-{}", self.0)
    }
}

/// Desired state of a pod: what the default scheduler and a bind look at.
#[derive(Debug, Clone, PartialEq)]
pub struct PodSpec {
    /// Pod name (unique within the cluster in this model).
    pub name: String,
    /// Requested resources (used by scheduling).
    pub requests: Resources,
    /// The node this pod must run on, matched against the node's
    /// `kubernetes.io/hostname` label: the required nodeAffinity the paper's
    /// Job Builder injects. `None` lets the pod go anywhere it fits.
    pub pinned_node: Option<String>,
}

impl PodSpec {
    /// Create an unpinned pod spec with the given name and requests.
    pub fn new(name: impl Into<String>, requests: Resources) -> Self {
        PodSpec {
            name: name.into(),
            requests,
            pinned_node: None,
        }
    }

    /// True when the pod may run on `node`: it is unpinned, or its pin equals
    /// the node's `kubernetes.io/hostname` label.
    pub(crate) fn pin_matches(&self, node: &Node) -> bool {
        self.pinned_node
            .as_deref()
            .is_none_or(|pin| node.labels.get(HOSTNAME_LABEL).map(String::as_str) == Some(pin))
    }
}

/// Overwrite an optional-string slot in place, keeping its allocation when
/// it already holds a value.
pub fn set_target(slot: &mut Option<String>, target: Option<&str>) {
    match (slot.as_mut(), target) {
        (Some(held), Some(node)) => {
            held.clear();
            held.push_str(node);
        }
        (None, Some(node)) => *slot = Some(node.to_string()),
        (_, None) => *slot = None,
    }
}

/// Lifecycle phase of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PodPhase {
    /// Submitted but not yet bound to a node.
    Pending,
    /// Bound and running on a node.
    Running,
    /// Finished successfully.
    Succeeded,
    /// Finished with an error.
    Failed,
}

/// A pod: spec plus observed status.
#[derive(Debug, Clone)]
pub(crate) struct Pod {
    /// The desired state.
    pub spec: PodSpec,
    /// Current phase.
    pub phase: PodPhase,
    /// The node the pod is bound to, if any.
    pub node: Option<String>,
}

impl Pod {
    /// Create a pending pod.
    pub(crate) fn new(spec: PodSpec) -> Self {
        Pod {
            spec,
            phase: PodPhase::Pending,
            node: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    #[test]
    fn pin_matching() {
        let node = |name: &str| Node::new(name, NodeId(0), Resources::ZERO, "UCSD");
        let mut pinned = PodSpec::new("p", Resources::ZERO);
        set_target(&mut pinned.pinned_node, Some("node-3"));
        assert!(pinned.pin_matches(&node("node-3")));
        assert!(!pinned.pin_matches(&node("node-4")));
        // The pin reads the hostname label, not the node name.
        let mut relabelled = node("node-3");
        relabelled.labels.remove(HOSTNAME_LABEL);
        assert!(!pinned.pin_matches(&relabelled));
        // An unpinned pod matches anything.
        assert!(PodSpec::new("q", Resources::ZERO).pin_matches(&relabelled));
    }

    #[test]
    fn pod_id_display() {
        assert_eq!(format!("{}", PodId(3)), "pod-3");
    }
}
