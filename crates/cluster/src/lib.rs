//! # cluster — a miniature Kubernetes-style orchestrator
//!
//! The paper deploys its scheduler *outside* the Kubernetes control plane and
//! compares against the default `kube-scheduler`. To make that comparison
//! like-for-like in simulation, this crate reimplements the pieces of
//! Kubernetes the experiment touches:
//!
//! * [`resources`] — CPU (millicores) and memory (bytes) quantities with the
//!   usual request semantics and `500m` / `2Gi` style parsing.
//! * [`pod`] — pod specifications (name, resource requests and an optional
//!   hostname pin) and pod lifecycle phases.
//! * [`node`] — cluster nodes with allocatable capacity, labels, a cordon
//!   flag and a live view of allocated resources / running pods.
//! * [`scheduler`] — the default scheduler's two phases: **filtering**
//!   (cordon, resource fit, hostname pin) and **scoring** (least-requested
//!   plus balanced-allocation), with randomized tie-breaking among
//!   top-scoring nodes exactly because the default scheduler is blind to
//!   network state — that blindness is the baseline the paper quantifies.
//! * [`state`] — the cluster state: bind/evict pods, track allocations,
//!   record events.
//! * [`feasibility`] — per-node free resources and driver-pod eligibility in
//!   two dense arrays, so 10k-node worlds find the feasible set in one
//!   branch-free pass instead of filtering every [`node::Node`], cached
//!   against [`state::ClusterState::generation`].
//! * [`job`] — a Spark-application-shaped job object (driver + executors) and
//!   its lifecycle.
//! * [`manifest`] — declarative YAML rendering of a job's SparkApplication,
//!   including the `nodeAffinity` injection the paper's Job Builder performs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod feasibility;
pub mod job;
pub mod manifest;
pub mod node;
pub mod pod;
pub mod resources;
pub mod scheduler;
pub mod state;

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
