//! # sparksim — a Spark-like data-processing application model
//!
//! The paper evaluates its scheduler with three Spark workloads (Table 2):
//! **Sort** (high network and CPU from large shuffles), **PageRank** (iterative
//! data exchange) and **Join** (skewed network/CPU/memory from imbalanced
//! joins). Each job launches a driver pod on the scheduler-selected node and
//! executor pods placed by the default scheduler; job completion time is the
//! prediction target of the supervised model.
//!
//! This crate models those applications at the stage level:
//!
//! * [`workload`] — the workload catalogue: for a given application type,
//!   input size, shuffle partition count and executor count it produces a
//!   stage DAG with CPU work, shuffle volumes, memory footprints and skew.
//! * [`dag`] — the stage DAG representation ([`dag::JobDag`], [`dag::StageSpec`])
//!   with validation and aggregate statistics.
//! * [`mix`] — workload-mix generators (shuffle-heavy, input-fetch-heavy,
//!   mixed DAG sizes, bursty arrivals) for the scenario-matrix sweep.
//! * [`placement`] — where the driver and each executor run.
//! * [`engine`] — the execution engine: walks the DAG stage by stage, runs
//!   compute on the executors (slowed by host CPU contention), moves shuffle
//!   data and driver-bound results through the `simnet` fluid network (sharing
//!   bandwidth with background traffic), and reports per-stage and end-to-end
//!   completion times.
//!
//! The engine is deliberately driver-placement-sensitive in the same ways a
//! real Spark deployment is: per-wave driver↔executor control round-trips pay
//! the driver's RTT to its executors, results are collected onto the driver's
//! node, the driver's own work is slowed by CPU contention on its host, and
//! memory pressure causes spill — which is exactly the signal the supervised
//! scheduler has to learn from telemetry.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod dag;
pub mod engine;
pub mod mix;
pub mod placement;
pub mod workload;

pub use dag::{JobDag, StageSpec};
pub use engine::{ContentionDriver, JobRunResult, NoContention, StageResult};
pub use mix::{GeneratedJob, MixKind, WorkloadMixSpec};
pub use placement::Placement;
pub use workload::{WorkloadKind, WorkloadProfile, WorkloadRequest};
