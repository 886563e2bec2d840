//! Cluster nodes.
//!
//! A node couples the orchestration view (allocatable resources, labels,
//! cordon flag, running pods) with a handle into the network substrate (its
//! [`simnet::NodeId`]) and a simple host-load model: a base CPU load plus the
//! contributions of whatever runs on it, which is what node-exporter style
//! telemetry reports as the 1-minute load average and available memory.

use crate::pod::PodId;
use crate::resources::Resources;
use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// A node's name (`node-1` ... `node-6` in the paper's cluster).
pub type NodeName = String;

/// The label a pinned pod is matched against; every node carries it.
pub(crate) const HOSTNAME_LABEL: &str = "kubernetes.io/hostname";

/// A cluster node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Node name (also used as the `kubernetes.io/hostname` label).
    pub name: NodeName,
    /// Handle into the network substrate.
    pub net_id: NodeId,
    /// Total allocatable resources.
    pub allocatable: Resources,
    /// Labels (hostname and site are always present).
    pub labels: BTreeMap<String, String>,
    /// Whether the node accepts new pods.
    pub schedulable: bool,
    /// Resources currently requested by bound pods.
    allocated: Resources,
    /// Pods currently bound to this node.
    bound_pods: BTreeSet<PodId>,
    /// Baseline CPU load (runnable processes) from system daemons.
    pub base_cpu_load: f64,
    /// Baseline memory used by the OS and daemons, in bytes.
    pub base_memory_used: f64,
    /// Extra CPU load injected by background contention pods.
    pub background_cpu_load: f64,
    /// Extra memory pinned by background contention pods, in bytes.
    pub background_memory_used: f64,
}

impl Node {
    /// Create a node with the given capacity, labelled with its hostname and site.
    pub fn new(
        name: impl Into<String>,
        net_id: NodeId,
        allocatable: Resources,
        site: impl Into<String>,
    ) -> Self {
        let name = name.into();
        let mut labels = BTreeMap::new();
        labels.insert(HOSTNAME_LABEL.to_string(), name.clone());
        labels.insert("topology.kubernetes.io/zone".to_string(), site.into());
        Node {
            name,
            net_id,
            allocatable,
            labels,
            schedulable: true,
            allocated: Resources::ZERO,
            bound_pods: BTreeSet::new(),
            base_cpu_load: 0.15,
            base_memory_used: 600.0 * 1024.0 * 1024.0,
            background_cpu_load: 0.0,
            background_memory_used: 0.0,
        }
    }

    /// Builder-style: add a label.
    pub fn with_label(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.insert(key.into(), value.into());
        self
    }

    /// Builder-style: set the baseline host load.
    pub fn with_base_load(mut self, cpu_load: f64, memory_used: f64) -> Self {
        self.base_cpu_load = cpu_load;
        self.base_memory_used = memory_used;
        self
    }

    /// Resources requested by currently bound pods.
    pub fn allocated(&self) -> Resources {
        self.allocated
    }

    /// Resources still available for new pods.
    pub fn available(&self) -> Resources {
        self.allocatable.saturating_sub(&self.allocated)
    }

    /// Pods currently bound to this node.
    pub fn bound_pods(&self) -> impl Iterator<Item = PodId> + '_ {
        self.bound_pods.iter().copied()
    }

    /// Number of bound pods.
    pub fn pod_count(&self) -> usize {
        self.bound_pods.len()
    }

    /// Would a pod with `requests` fit right now?
    pub fn fits(&self, requests: &Resources) -> bool {
        self.schedulable && requests.fits_within(&self.available())
    }

    /// Bind a pod, reserving its requested resources. Returns `false` (and
    /// changes nothing) if the pod does not fit or is already bound.
    pub fn bind(&mut self, pod: PodId, requests: Resources) -> bool {
        if !self.fits(&requests) || self.bound_pods.contains(&pod) {
            return false;
        }
        self.allocated += requests;
        self.bound_pods.insert(pod);
        true
    }

    /// Release a pod's resources. Returns `false` if the pod was not bound.
    pub fn release(&mut self, pod: PodId, requests: Resources) -> bool {
        if self.bound_pods.remove(&pod) {
            self.allocated -= requests;
            true
        } else {
            false
        }
    }

    /// Current CPU load average proxy: baseline + background + one runnable
    /// process per allocated core (a simple but monotone model of how busy
    /// the host looks to node-exporter).
    pub fn cpu_load(&self) -> f64 {
        self.base_cpu_load + self.background_cpu_load + self.allocated.cpu_cores()
    }

    /// Currently available memory in bytes, as node-exporter would report
    /// (`MemAvailable`): capacity minus the OS baseline, background pods and
    /// bound pods' requests.
    pub fn memory_available(&self) -> f64 {
        let used = self.base_memory_used
            + self.background_memory_used
            + self.allocated.memory_bytes as f64;
        (self.allocatable.memory_bytes as f64 - used).max(0.0)
    }

    /// Fraction of memory in use, in `[0, 1]`.
    pub fn memory_utilization(&self) -> f64 {
        let cap = self.allocatable.memory_bytes as f64;
        if cap <= 0.0 {
            return 1.0;
        }
        (1.0 - self.memory_available() / cap).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(
            "node-1",
            NodeId(0),
            Resources::from_cores_and_gib(6, 8),
            "UCSD",
        )
    }

    #[test]
    fn labels_include_hostname_and_zone() {
        let n = node();
        assert_eq!(n.labels.get("kubernetes.io/hostname").unwrap(), "node-1");
        assert_eq!(n.labels.get("topology.kubernetes.io/zone").unwrap(), "UCSD");
        let n2 = node().with_label("disk", "ssd");
        assert_eq!(n2.labels.get("disk").unwrap(), "ssd");
    }

    #[test]
    fn bind_and_release_track_allocation() {
        let mut n = node();
        let req = Resources::from_cores_and_gib(2, 2);
        assert!(n.fits(&req));
        assert!(n.bind(PodId(1), req));
        assert_eq!(n.allocated(), req);
        assert_eq!(n.available(), Resources::from_cores_and_gib(4, 6));
        assert_eq!(n.pod_count(), 1);
        // Double bind of the same pod fails.
        assert!(!n.bind(PodId(1), req));
        assert!(n.bind(PodId(2), req));
        assert!(n.release(PodId(1), req));
        assert_eq!(n.allocated(), req);
        assert!(!n.release(PodId(1), req), "already released");
        assert!(n.release(PodId(2), req));
        assert_eq!(n.allocated(), Resources::ZERO);
    }

    #[test]
    fn overcommit_is_rejected() {
        let mut n = node();
        let big = Resources::from_cores_and_gib(5, 5);
        assert!(n.bind(PodId(1), big));
        assert!(!n.bind(PodId(2), big), "second pod exceeds capacity");
        assert!(!n.fits(&Resources::from_cores_and_gib(2, 1)));
        assert!(n.fits(&Resources::from_cores_and_gib(1, 1)));
    }

    #[test]
    fn unschedulable_node_rejects_pods() {
        let mut n = node();
        n.schedulable = false;
        assert!(!n.fits(&Resources::ZERO));
        assert!(!n.bind(PodId(1), Resources::ZERO));
    }

    #[test]
    fn cpu_load_and_memory_track_activity() {
        let mut n = node().with_base_load(0.2, 1024.0 * 1024.0 * 1024.0);
        let idle_load = n.cpu_load();
        assert!((idle_load - 0.2).abs() < 1e-9);
        let idle_mem = n.memory_available();
        assert!((idle_mem - 7.0 * 1024.0 * 1024.0 * 1024.0).abs() < 1.0);
        n.bind(PodId(1), Resources::from_cores_and_gib(2, 2));
        assert!(n.cpu_load() > idle_load);
        assert!(n.memory_available() < idle_mem);
        n.background_cpu_load = 0.8;
        n.background_memory_used = 512.0 * 1024.0 * 1024.0;
        assert!((n.cpu_load() - (0.2 + 0.8 + 2.0)).abs() < 1e-9);
        assert!(n.memory_utilization() > 0.0 && n.memory_utilization() <= 1.0);
    }

    #[test]
    fn memory_never_negative() {
        let mut n = Node::new(
            "tiny",
            NodeId(1),
            Resources::from_cores_and_mib(1, 256),
            "X",
        );
        n.base_memory_used = 1e12;
        assert_eq!(n.memory_available(), 0.0);
        assert_eq!(n.memory_utilization(), 1.0);
    }
}
