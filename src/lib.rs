//! # netsched — network-aware, supervised-learning job scheduling
//!
//! `netsched` is a full reproduction, in Rust, of *"Learning to Schedule: A
//! Supervised Learning Framework for Network-Aware Scheduling of
//! Data-Intensive Workloads"* (SC 2025): a user-space scheduler that predicts
//! the completion time of a submitted data-intensive job on every candidate
//! node from live telemetry, ranks the nodes, and pins the job's driver to the
//! predicted-fastest one — together with every substrate the evaluation needs
//! (a mini-Kubernetes control plane, a Spark-like workload model, a
//! Prometheus-like telemetry pipeline, a geo-distributed flow-level network
//! simulator and from-scratch ML models).
//!
//! This facade crate re-exports the workspace crates under stable module
//! names and hosts the runnable examples and workspace-level integration
//! tests.
//!
//! ## Crate map
//!
//! | Module | Crate | What it provides |
//! |---|---|---|
//! | [`core`] | `netsched-core` | the scheduler: feature constructor, predictor, decision module, job builder, logger, baselines |
//! | [`simcore`] | `simcore` | simulated clock, deterministic RNG, online statistics, parallel map |
//! | [`simnet`] | `simnet` | sites/links/flows, max-min fair sharing, RTT model, background load |
//! | [`cluster`] | `cluster` | pods, nodes, resources, the default kube-scheduler, manifests |
//! | [`sparksim`] | `sparksim` | stage DAGs, Sort/PageRank/Join workloads, the execution engine |
//! | [`telemetry`] | `telemetry` | metric store, node/ping-mesh exporters, scrape loop, epoch-published snapshots |
//! | [`mlcore`] | `mlcore` | linear regression, CART, random forest, gradient boosting, metrics |
//! | [`experiments`] | `experiments` | the FABRIC testbed, the 60-config workflow, every table/figure harness |
//!
//! ## Quickstart
//!
//! ```
//! use netsched::experiments::{FabricTestbed, SimWorld};
//! use netsched::core::request::JobRequest;
//! use netsched::sparksim::WorkloadKind;
//!
//! // A 6-node, 3-site cluster with the paper's RTTs.
//! let mut world = SimWorld::new(FabricTestbed::paper(), 42);
//! world.advance_by(netsched::simcore::SimDuration::from_secs(10));
//!
//! // Run one Sort job with its driver pinned to node-2.
//! let request = JobRequest::named("sort-demo", WorkloadKind::Sort, 100_000, 2);
//! let outcome = world.run_job(&request, "node-2").expect("feasible placement");
//! assert!(outcome.result.completion_seconds() > 0.0);
//! ```
//!
//! See `examples/` for end-to-end scenarios (training the scheduler, comparing
//! it against the default scheduler, reproducing the paper's tables).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cluster;
pub use experiments;
pub use mlcore;
pub use simcore;
pub use simnet;
pub use sparksim;
pub use telemetry;

/// Distinct alias for the *cluster* node-id space (`cluster::NodeId`).
///
/// The workspace has two node-id spaces: the orchestration layer's interned
/// `cluster::NodeId` and the network substrate's `simnet::NodeId`. Both crates
/// export the same short name, which historically forced downstream code into
/// fully-qualified paths; import these aliases instead.
pub use cluster::NodeId as ClusterNodeId;

/// Distinct alias for the *network-substrate* node-id space (`simnet::NodeId`).
pub use simnet::NodeId as SimNodeId;

/// The paper's core contribution (`netsched-core`): the supervised,
/// network-aware scheduler and its components.
pub use netsched_core as core;

/// Workspace version string.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
