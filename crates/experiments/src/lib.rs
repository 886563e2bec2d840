//! # experiments — reproduction harness for every table and figure
//!
//! This crate drives the full evaluation of Sections 4–6 of the paper on the
//! simulated substrate:
//!
//! * [`fabric`] — the Figure 4 testbed: three FABRIC sites (UCSD, FIU, SRI),
//!   two nodes per site (6 CPUs / 8 GB each), inter-site RTTs of 66/10/72 ms,
//!   and asymmetric WAN capacities.
//! * [`world`] — a self-contained simulated world (cluster + network +
//!   metrics server + background-load pods) that can execute one Spark-like
//!   job for a chosen driver node while background traffic keeps flowing.
//! * [`config`] — the Section 5.2 job matrix: 60 distinct configurations over
//!   the three paper workloads, input sizes, executor counts and memory.
//! * [`workflow`] — the batch experiment workflow: for every configuration ×
//!   repeat it snapshots telemetry, runs the job once per candidate driver
//!   node under identical conditions, and logs the 3600-sample dataset.
//! * [`evaluation`] — Table 4: Top-1 / Top-2 node-selection accuracy of the
//!   Kubernetes default scheduler and the three supervised models, plus
//!   per-cell completion-time speedups over the default.
//! * [`scenarios`] — the scenario matrix: declarative testbeds
//!   ([`scenarios::TestbedSpec`]; the FABRIC slice is one named spec, the
//!   `simnet` topology generators supply the rest) × workload mixes ×
//!   background-load levels × seeds, swept in parallel with one
//!   machine-readable JSON report (`results/scenario_sweep.json`).
//! * [`figures`] — Figures 2 and 3 (per-node latency and transmit bandwidth
//!   across five Sort runs) and the Figure 4 RTT matrix.
//! * [`tables`] — Tables 1, 2 and 3 (feature schema, workload
//!   characterization, representative training row).
//! * [`ablation`] — feature-group, model and background-load ablations.
//! * [`report`] — markdown/CSV rendering and result-file helpers for the one
//!   `reproduce` binary (`src/bin/reproduce.rs`), which writes every table
//!   and figure at the seeds `results.md5` pins.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod ablation;
pub mod config;
pub mod evaluation;
pub mod fabric;
pub mod figures;
pub mod report;
pub mod scale;
pub mod scenarios;
pub mod tables;
pub mod workflow;
pub mod world;

pub use config::{job_matrix, JobConfig};
pub use evaluation::{
    evaluate_cell, evaluate_table4, CellEvaluation, MethodSpeedup, SchedulerAccuracy, Table4Report,
};
pub use fabric::FabricTestbed;
pub use scenarios::{
    run_sweep, CellReport, LoadLevel, ScenarioMatrix, ScenarioSpec, SweepOptions, SweepReport,
    TestbedSpec,
};
pub use workflow::{ExperimentConfig, ExperimentDataset, ScenarioRecord, Workflow};
pub use world::{SimWorld, Testbed};
