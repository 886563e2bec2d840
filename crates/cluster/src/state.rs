//! Cluster state: the API-server-ish view of nodes and pods.
//!
//! The cluster also owns the node-name intern table: every node gets a small
//! copyable [`NodeId`] (its index in registration order) so the scheduling hot
//! path can pass node identities around without cloning `String`s. Names are
//! resolved back through [`ClusterState::node_name`] only at the edges
//! (manifests, logs, reports).

use crate::node::Node;
use crate::pod::{Pod, PodId, PodPhase, PodSpec};
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt;

/// Interned node identity: a dense index into the cluster's node table.
///
/// `NodeId`s are assigned in node-registration order and are stable for the
/// lifetime of the cluster (nodes are never removed). They are deliberately
/// tiny and `Copy` so rankings, feature pipelines and scratch buffers can
/// carry node identities without touching the heap. Distinct from
/// [`simnet::NodeId`], which identifies a NIC in the network substrate; the
/// two are linked through [`Node::net_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index into the cluster's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a table index.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Errors returned by cluster operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterError {
    /// The referenced node does not exist.
    NoSuchNode(String),
    /// The referenced pod does not exist.
    NoSuchPod(u64),
    /// The pod cannot be bound (does not fit, node cordoned, already bound...).
    BindFailed(String),
    /// The operation is invalid for the pod's current phase.
    InvalidPhase(String),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            ClusterError::NoSuchPod(id) => write!(f, "no such pod: pod-{id}"),
            ClusterError::BindFailed(msg) => write!(f, "bind failed: {msg}"),
            ClusterError::InvalidPhase(msg) => write!(f, "invalid phase: {msg}"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// A recorded cluster event (a simplified `corev1.Event`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterEvent {
    /// When the event happened.
    pub time: SimTime,
    /// Subject (pod or node name).
    pub subject: String,
    /// Short reason code (`Scheduled`, `Started`, `Completed`, ...).
    pub reason: String,
    /// Free-form message.
    pub message: String,
}

/// The cluster: nodes, pods and an event log.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClusterState {
    nodes: Vec<Node>,
    /// Name → [`NodeId`] intern index (kept in sync with `nodes`).
    name_index: BTreeMap<String, u32>,
    pods: BTreeMap<u64, Pod>,
    next_pod_id: u64,
    events: Vec<ClusterEvent>,
    /// Monotone mutation counter, bumped by every operation that can change
    /// a node's feasibility (adding nodes, handing out `&mut Node`, binding
    /// or releasing pods through the node lookups). Derived caches such as
    /// [`crate::feasibility::FeasibilityIndex`] compare it to decide whether
    /// they are stale, so bumping is deliberately conservative: any mutable
    /// node access counts as a change.
    generation: u64,
}

impl ClusterState {
    /// Create an empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node to the cluster, interning its name. Returns the node's
    /// stable [`NodeId`].
    ///
    /// # Panics
    /// Panics when a node with the same name is already registered — a
    /// silent remap would leave the intern table and resource accounting
    /// pointing at different nodes.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let previous = self.name_index.insert(node.name.clone(), id.0);
        assert!(
            previous.is_none(),
            "duplicate node name registered: {}",
            node.name
        );
        self.nodes.push(node);
        self.generation += 1;
        id
    }

    /// The current mutation generation. Bumped whenever the node table is
    /// grown or a mutable node reference is handed out, so callers caching
    /// node-derived state (feasibility indexes) can detect staleness with a
    /// single compare.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to all nodes (used to inject background load). Node
    /// names must not be changed through this; the intern table would go
    /// stale.
    pub fn nodes_mut(&mut self) -> &mut [Node] {
        self.generation += 1;
        &mut self.nodes
    }

    /// Number of nodes (== the number of interned [`NodeId`]s).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Ids of all nodes in registration order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Resolve a node name to its interned id.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied().map(NodeId)
    }

    /// Resolve an interned id back to the node name.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this cluster.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].name
    }

    /// Look up a node by interned id.
    pub fn node_by_id(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// Look up a node by interned id (mutable).
    pub fn node_by_id_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        let node = self.nodes.get_mut(id.index());
        if node.is_some() {
            self.generation += 1;
        }
        node
    }

    /// Find a node by name.
    pub fn node(&self, name: &str) -> Option<&Node> {
        self.node_id(name).and_then(|id| self.nodes.get(id.index()))
    }

    /// Find a node by name (mutable).
    pub fn node_mut(&mut self, name: &str) -> Option<&mut Node> {
        match self.node_id(name) {
            Some(id) => self.node_by_id_mut(id),
            None => None,
        }
    }

    /// Names of all nodes in order.
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.name.clone()).collect()
    }

    /// True when `names` is exactly this cluster's node-name table in
    /// registration ([`NodeId`]) order — the alignment check shared by
    /// id-indexed views built against the table (telemetry snapshots,
    /// exporter layouts).
    pub fn names_match(&self, names: &[String]) -> bool {
        self.nodes.len() == names.len()
            && self
                .nodes
                .iter()
                .zip(names)
                .all(|(node, name)| node.name == *name)
    }

    /// Create a pod in the `Pending` phase and return its id.
    pub fn create_pod(&mut self, spec: PodSpec, now: SimTime) -> PodId {
        let id = PodId(self.next_pod_id);
        self.next_pod_id += 1;
        let name = spec.name.clone();
        self.pods.insert(id.0, Pod::new(id, spec, now));
        self.record(now, name, "Created", "pod created");
        id
    }

    /// Look up a pod.
    pub fn pod(&self, id: PodId) -> Option<&Pod> {
        self.pods.get(&id.0)
    }

    /// All pods (any phase), in id order.
    pub fn pods(&self) -> impl Iterator<Item = &Pod> {
        self.pods.values()
    }

    /// Pods currently bound to `node_name` and not yet terminal.
    pub fn pods_on_node(&self, node_name: &str) -> Vec<&Pod> {
        self.pods
            .values()
            .filter(|p| p.node.as_deref() == Some(node_name) && !p.is_terminal())
            .collect()
    }

    /// Bind a pending pod to a node, reserving resources. A pod pinned to
    /// another hostname is refused like one that does not fit, and leaves
    /// the cluster untouched.
    pub fn bind_pod(
        &mut self,
        id: PodId,
        node_name: &str,
        now: SimTime,
    ) -> Result<(), ClusterError> {
        let node_id = self.node_id(node_name);
        let pod = self
            .pods
            .get_mut(&id.0)
            .ok_or(ClusterError::NoSuchPod(id.0))?;
        if pod.phase != PodPhase::Pending {
            return Err(ClusterError::InvalidPhase(format!(
                "pod {} is {:?}, expected Pending",
                pod.spec.name, pod.phase
            )));
        }
        let node_id = node_id.ok_or_else(|| ClusterError::NoSuchNode(node_name.to_string()))?;
        let node = &mut self.nodes[node_id.index()];
        if !pod.spec.pin_matches(node) {
            return Err(ClusterError::BindFailed(format!(
                "pod {} is pinned to another node than {node_name}",
                pod.spec.name
            )));
        }
        // Mutable node access, as through `node_by_id_mut`.
        self.generation += 1;
        if !node.bind(id, pod.spec.requests) {
            return Err(ClusterError::BindFailed(format!(
                "pod {} does not fit on {node_name}",
                pod.spec.name
            )));
        }
        pod.node = Some(node_name.to_string());
        pod.phase = PodPhase::Running;
        pod.started_at = Some(now);
        let name = pod.spec.name.clone();
        self.record(now, name, "Scheduled", format!("bound to {node_name}"));
        Ok(())
    }

    /// Mark a running pod as finished, releasing its resources.
    pub fn complete_pod(
        &mut self,
        id: PodId,
        succeeded: bool,
        now: SimTime,
    ) -> Result<(), ClusterError> {
        let pod = self
            .pods
            .get_mut(&id.0)
            .ok_or(ClusterError::NoSuchPod(id.0))?;
        if pod.phase != PodPhase::Running {
            return Err(ClusterError::InvalidPhase(format!(
                "pod {} is {:?}, expected Running",
                pod.spec.name, pod.phase
            )));
        }
        pod.phase = if succeeded {
            PodPhase::Succeeded
        } else {
            PodPhase::Failed
        };
        pod.finished_at = Some(now);
        let requests = pod.spec.requests;
        let node_name = pod.node.clone().expect("running pod has a node");
        let pod_name = pod.spec.name.clone();
        if let Some(node) = self.node_mut(&node_name) {
            node.release(id, requests);
        }
        self.record(
            now,
            pod_name,
            if succeeded { "Completed" } else { "Failed" },
            format!("released from {node_name}"),
        );
        Ok(())
    }

    /// Delete a pod in any phase, releasing resources if it was running.
    pub fn delete_pod(&mut self, id: PodId, now: SimTime) -> Result<(), ClusterError> {
        let pod = self
            .pods
            .remove(&id.0)
            .ok_or(ClusterError::NoSuchPod(id.0))?;
        if pod.phase == PodPhase::Running {
            if let (Some(node_name), requests) = (pod.node.clone(), pod.spec.requests) {
                if let Some(node) = self.node_mut(&node_name) {
                    node.release(id, requests);
                }
            }
        }
        self.record(now, pod.spec.name, "Deleted", "pod deleted");
        Ok(())
    }

    /// Record an event.
    pub fn record(
        &mut self,
        time: SimTime,
        subject: impl Into<String>,
        reason: impl Into<String>,
        message: impl Into<String>,
    ) {
        self.events.push(ClusterEvent {
            time,
            subject: subject.into(),
            reason: reason.into(),
            message: message.into(),
        });
    }

    /// The event log.
    pub fn events(&self) -> &[ClusterEvent] {
        &self.events
    }

    /// Total allocatable resources across all nodes.
    pub fn total_allocatable(&self) -> crate::resources::Resources {
        self.nodes
            .iter()
            .fold(crate::resources::Resources::ZERO, |acc, n| {
                acc + n.allocatable
            })
    }

    /// Total requested resources across all nodes.
    pub fn total_allocated(&self) -> crate::resources::Resources {
        self.nodes
            .iter()
            .fold(crate::resources::Resources::ZERO, |acc, n| {
                acc + n.allocated()
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resources;
    use simnet::NodeId;

    fn cluster() -> ClusterState {
        let mut c = ClusterState::new();
        for i in 0..3 {
            c.add_node(Node::new(
                format!("node-{}", i + 1),
                NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                "SITE",
            ));
        }
        c
    }

    #[test]
    fn create_bind_complete_lifecycle() {
        let mut c = cluster();
        let t0 = SimTime::from_secs(1);
        let id = c.create_pod(
            PodSpec::new("driver", Resources::from_cores_and_gib(2, 2)),
            t0,
        );
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Pending);
        c.bind_pod(id, "node-2", SimTime::from_secs(2)).unwrap();
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Running);
        assert_eq!(c.pod(id).unwrap().node.as_deref(), Some("node-2"));
        assert_eq!(
            c.node("node-2").unwrap().allocated(),
            Resources::from_cores_and_gib(2, 2)
        );
        assert_eq!(c.pods_on_node("node-2").len(), 1);
        assert_eq!(c.pods_on_node("node-1").len(), 0);
        c.complete_pod(id, true, SimTime::from_secs(30)).unwrap();
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Succeeded);
        assert_eq!(c.node("node-2").unwrap().allocated(), Resources::ZERO);
        assert_eq!(c.pods_on_node("node-2").len(), 0);
        assert_eq!(
            c.pod(id).unwrap().run_duration().unwrap().as_secs_f64(),
            28.0
        );
        // Events were recorded in order.
        let reasons: Vec<&str> = c.events().iter().map(|e| e.reason.as_str()).collect();
        assert_eq!(reasons, vec!["Created", "Scheduled", "Completed"]);
    }

    #[test]
    fn bind_errors() {
        let mut c = cluster();
        let t = SimTime::ZERO;
        let id = c.create_pod(PodSpec::new("p", Resources::from_cores_and_gib(2, 2)), t);
        assert!(matches!(
            c.bind_pod(id, "nope", t),
            Err(ClusterError::NoSuchNode(_))
        ));
        let huge = c.create_pod(
            PodSpec::new("huge", Resources::from_cores_and_gib(64, 64)),
            t,
        );
        assert!(matches!(
            c.bind_pod(huge, "node-1", t),
            Err(ClusterError::BindFailed(_))
        ));
        c.bind_pod(id, "node-1", t).unwrap();
        // Binding twice is an invalid phase.
        assert!(matches!(
            c.bind_pod(id, "node-1", t),
            Err(ClusterError::InvalidPhase(_))
        ));
        assert!(matches!(
            c.bind_pod(PodId(999), "node-1", t),
            Err(ClusterError::NoSuchPod(999))
        ));
    }

    #[test]
    fn bind_refuses_a_node_the_pod_is_not_pinned_to() {
        let mut c = cluster();
        let t = SimTime::ZERO;
        let id = c.create_pod(
            PodSpec::new("pinned", Resources::from_cores_and_gib(1, 1)).pinned_to("node-2"),
            t,
        );
        let (generation, events) = (c.generation(), c.events().len());
        assert!(matches!(
            c.bind_pod(id, "node-1", t),
            Err(ClusterError::BindFailed(_))
        ));
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Pending);
        assert_eq!(c.pod(id).unwrap().node, None);
        assert_eq!(c.total_allocated(), Resources::ZERO);
        assert_eq!(c.node("node-1").unwrap().pod_count(), 0);
        assert_eq!((c.generation(), c.events().len()), (generation, events));
        c.bind_pod(id, "node-2", t).unwrap();
        assert_eq!(c.pod(id).unwrap().node.as_deref(), Some("node-2"));
        assert_eq!(
            c.node("node-2").unwrap().allocated(),
            Resources::from_cores_and_gib(1, 1)
        );
    }

    #[test]
    fn complete_errors() {
        let mut c = cluster();
        let t = SimTime::ZERO;
        let id = c.create_pod(PodSpec::new("p", Resources::ZERO), t);
        assert!(matches!(
            c.complete_pod(id, true, t),
            Err(ClusterError::InvalidPhase(_))
        ));
        assert!(matches!(
            c.complete_pod(PodId(42), true, t),
            Err(ClusterError::NoSuchPod(42))
        ));
    }

    #[test]
    fn failed_pod_releases_resources() {
        let mut c = cluster();
        let t = SimTime::ZERO;
        let id = c.create_pod(PodSpec::new("p", Resources::from_cores_and_gib(1, 1)), t);
        c.bind_pod(id, "node-1", t).unwrap();
        c.complete_pod(id, false, SimTime::from_secs(5)).unwrap();
        assert_eq!(c.pod(id).unwrap().phase, PodPhase::Failed);
        assert_eq!(c.node("node-1").unwrap().allocated(), Resources::ZERO);
    }

    #[test]
    fn delete_running_pod_releases_resources() {
        let mut c = cluster();
        let t = SimTime::ZERO;
        let id = c.create_pod(PodSpec::new("p", Resources::from_cores_and_gib(1, 1)), t);
        c.bind_pod(id, "node-3", t).unwrap();
        c.delete_pod(id, SimTime::from_secs(1)).unwrap();
        assert!(c.pod(id).is_none());
        assert_eq!(c.node("node-3").unwrap().allocated(), Resources::ZERO);
        assert!(matches!(
            c.delete_pod(id, SimTime::from_secs(2)),
            Err(ClusterError::NoSuchPod(_))
        ));
    }

    #[test]
    fn totals_aggregate_over_nodes() {
        let mut c = cluster();
        assert_eq!(c.total_allocatable(), Resources::from_cores_and_gib(18, 24));
        let t = SimTime::ZERO;
        let id = c.create_pod(PodSpec::new("p", Resources::from_cores_and_gib(2, 2)), t);
        c.bind_pod(id, "node-1", t).unwrap();
        assert_eq!(c.total_allocated(), Resources::from_cores_and_gib(2, 2));
    }

    #[test]
    fn node_lookup_and_names() {
        let c = cluster();
        assert!(c.node("node-2").is_some());
        assert!(c.node("nope").is_none());
        assert_eq!(c.node_names(), vec!["node-1", "node-2", "node-3"]);
    }

    #[test]
    fn node_ids_are_interned_in_registration_order() {
        let mut c = ClusterState::new();
        let ids: Vec<super::NodeId> = (0..3)
            .map(|i| {
                c.add_node(Node::new(
                    format!("node-{}", i + 1),
                    NodeId(i),
                    Resources::from_cores_and_gib(6, 8),
                    "SITE",
                ))
            })
            .collect();
        assert_eq!(
            ids,
            vec![super::NodeId(0), super::NodeId(1), super::NodeId(2)]
        );
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.node_id("node-2"), Some(super::NodeId(1)));
        assert_eq!(c.node_id("nope"), None);
        assert_eq!(c.node_name(super::NodeId(2)), "node-3");
        assert_eq!(c.node_by_id(super::NodeId(0)).unwrap().name, "node-1");
        assert!(c.node_by_id(super::NodeId(9)).is_none());
        assert_eq!(c.node_ids().collect::<Vec<_>>(), ids);
        assert_eq!(format!("{}", super::NodeId(4)), "#4");
        assert_eq!(super::NodeId::from_index(7).index(), 7);
        // Mutable id lookup reaches the same node.
        c.node_by_id_mut(super::NodeId(1)).unwrap().schedulable = false;
        assert!(!c.node("node-2").unwrap().schedulable);
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_node_names_are_rejected() {
        let mut c = cluster();
        c.add_node(Node::new(
            "node-1",
            NodeId(9),
            Resources::from_cores_and_gib(2, 2),
            "SITE",
        ));
    }

    #[test]
    fn generation_tracks_node_mutations() {
        let mut c = ClusterState::new();
        assert_eq!(c.generation(), 0);
        c.add_node(Node::new(
            "node-1",
            NodeId(0),
            Resources::from_cores_and_gib(6, 8),
            "SITE",
        ));
        let after_add = c.generation();
        assert!(after_add > 0);
        // Read-only access does not bump.
        let _ = c.node("node-1");
        let _ = c.nodes();
        let _ = c.node_by_id(super::NodeId(0));
        assert_eq!(c.generation(), after_add);
        // Mutable access bumps, even if the node is not actually changed.
        let _ = c.nodes_mut();
        assert!(c.generation() > after_add);
        let g = c.generation();
        c.node_by_id_mut(super::NodeId(0)).unwrap().schedulable = false;
        assert!(c.generation() > g);
        // A miss hands out no reference and does not bump.
        let g = c.generation();
        assert!(c.node_by_id_mut(super::NodeId(9)).is_none());
        assert!(c.node_mut("nope").is_none());
        assert_eq!(c.generation(), g);
        // Pod binding and release route through node_mut and bump.
        let t = SimTime::ZERO;
        c.node_by_id_mut(super::NodeId(0)).unwrap().schedulable = true;
        let g = c.generation();
        let id = c.create_pod(PodSpec::new("p", Resources::from_cores_and_gib(1, 1)), t);
        c.bind_pod(id, "node-1", t).unwrap();
        assert!(c.generation() > g);
        let g = c.generation();
        c.complete_pod(id, true, t).unwrap();
        assert!(c.generation() > g);
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", ClusterError::NoSuchNode("x".into())).contains("x"));
        assert!(format!("{}", ClusterError::NoSuchPod(3)).contains("pod-3"));
        assert!(format!("{}", ClusterError::BindFailed("m".into())).contains("m"));
        assert!(format!("{}", ClusterError::InvalidPhase("p".into())).contains("p"));
    }
}
