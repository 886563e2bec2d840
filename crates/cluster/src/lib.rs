//! # cluster — a miniature Kubernetes-style orchestrator
//!
//! The paper deploys its scheduler *outside* the Kubernetes control plane and
//! compares against the default `kube-scheduler`. To make that comparison
//! like-for-like in simulation, this crate reimplements the pieces of
//! Kubernetes the experiment touches:
//!
//! * [`resources`] — CPU (millicores) and memory (bytes) quantities with the
//!   usual request/limit semantics and `500m` / `2Gi` style parsing.
//! * [`pod`] — pod specifications (labels, resource requests, node selectors,
//!   affinity, tolerations) and pod lifecycle phases.
//! * [`node`] — cluster nodes with allocatable capacity, labels, taints and a
//!   live view of allocated resources / running pods.
//! * [`affinity`] — node selector terms, required/preferred node affinity and
//!   taint/toleration matching, mirroring the upstream semantics closely
//!   enough for scheduling decisions.
//! * [`scheduler`] — the default scheduler's two phases: **filtering**
//!   (resource fit, node selector/affinity, taints) and **scoring**
//!   (least-requested, balanced-allocation, preferred-affinity weights), with
//!   randomized tie-breaking among top-scoring nodes exactly because the
//!   default scheduler is blind to network state — that blindness is the
//!   baseline the paper quantifies.
//! * [`state`] — the cluster state: bind/evict pods, track allocations,
//!   record events.
//! * [`feasibility`] — per-node free resources and driver-pod eligibility in
//!   two dense arrays, so 10k-node worlds find the feasible set in one
//!   branch-free pass instead of filtering every [`node::Node`], cached
//!   against [`state::ClusterState::generation`].
//! * [`job`] — a Spark-application-shaped job object (driver + executors) and
//!   its lifecycle.
//! * [`manifest`] — declarative YAML rendering of pods/jobs, including the
//!   `nodeAffinity` injection the paper's Job Builder performs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod feasibility;
pub mod job;
pub mod manifest;
pub mod node;
pub mod pod;
pub mod resources;
pub mod scheduler;
pub mod state;

pub use affinity::{
    NodeAffinity, NodeSelectorOp, NodeSelectorRequirement, NodeSelectorTerm, Taint, TaintEffect,
    Toleration,
};
pub use feasibility::FeasibilityIndex;
pub use job::{Job, JobId, JobPhase, JobSpec};
pub use node::{Node, NodeName};
pub use pod::{Pod, PodId, PodPhase, PodSpec};
pub use resources::Resources;
pub use scheduler::{DefaultScheduler, FilterResult, ScheduleOutcome, ScoredNode};
pub use state::{ClusterError, ClusterEvent, ClusterState, NodeId};

/// Alias for [`state::NodeId`] that cannot be confused with `simnet::NodeId`
/// when both id spaces are in scope downstream (the simnet crate exports the
/// matching `SimNodeId` alias).
pub use state::NodeId as ClusterNodeId;
