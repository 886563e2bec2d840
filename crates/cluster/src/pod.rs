//! Pods: the unit of placement.

use crate::node::{Node, HOSTNAME_LABEL};
use crate::resources::Resources;
use simcore::SimTime;
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

    /// Builder-style: require placement on a specific hostname (this is the
    /// paper's Job Builder injection).
    pub fn pinned_to(mut self, hostname: impl Into<String>) -> Self {
        self.pinned_node = Some(hostname.into());
        self
    }

    /// True when the pod may run on `node`: it is unpinned, or its pin equals
    /// the node's `kubernetes.io/hostname` label.
    pub fn pin_matches(&self, node: &Node) -> bool {
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
pub enum PodPhase {
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
pub struct Pod {
    /// Identifier assigned by the cluster.
    pub id: PodId,
    /// The desired state.
    pub spec: PodSpec,
    /// Current phase.
    pub phase: PodPhase,
    /// The node the pod is bound to, if any.
    pub node: Option<String>,
    /// When the pod was created.
    pub created_at: SimTime,
    /// When the pod started running.
    pub started_at: Option<SimTime>,
    /// When the pod finished (succeeded or failed).
    pub finished_at: Option<SimTime>,
}

impl Pod {
    /// Create a pending pod.
    pub fn new(id: PodId, spec: PodSpec, now: SimTime) -> Self {
        Pod {
            id,
            spec,
            phase: PodPhase::Pending,
            node: None,
            created_at: now,
            started_at: None,
            finished_at: None,
        }
    }

    /// True when the pod is in a terminal phase.
    pub fn is_terminal(&self) -> bool {
        matches!(self.phase, PodPhase::Succeeded | PodPhase::Failed)
    }

    /// Wall-clock running duration (or `None` when it never started / hasn't finished).
    pub fn run_duration(&self) -> Option<simcore::SimDuration> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f - s),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    #[test]
    fn builder_chain_sets_fields() {
        let spec =
            PodSpec::new("driver-1", Resources::from_cores_and_gib(1, 2)).pinned_to("node-5");
        assert_eq!(spec.name, "driver-1");
        assert_eq!(spec.requests, Resources::from_cores_and_gib(1, 2));
        assert_eq!(spec.pinned_node.as_deref(), Some("node-5"));
        assert_eq!(PodSpec::new("p", Resources::ZERO).pinned_node, None);
    }

    #[test]
    fn pin_matching() {
        let node = |name: &str| Node::new(name, NodeId(0), Resources::ZERO, "UCSD");
        let pinned = PodSpec::new("p", Resources::ZERO).pinned_to("node-3");
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
    fn lifecycle_and_duration() {
        let mut pod = Pod::new(
            PodId(1),
            PodSpec::new("p", Resources::ZERO),
            SimTime::from_secs(1),
        );
        assert_eq!(pod.phase, PodPhase::Pending);
        assert!(!pod.is_terminal());
        assert_eq!(pod.run_duration(), None);
        pod.phase = PodPhase::Running;
        pod.started_at = Some(SimTime::from_secs(2));
        assert_eq!(pod.run_duration(), None);
        pod.phase = PodPhase::Succeeded;
        pod.finished_at = Some(SimTime::from_secs(10));
        assert!(pod.is_terminal());
        assert_eq!(pod.run_duration().unwrap().as_secs_f64(), 8.0);
    }

    #[test]
    fn pod_id_display() {
        assert_eq!(format!("{}", PodId(3)), "pod-3");
    }
}
