//! # netsched-core — the network-aware supervised-learning scheduler
//!
//! This crate is the paper's primary contribution: a user-space scheduler that
//! predicts the completion time of a submitted job on every candidate node
//! from live telemetry and job configuration, ranks the nodes and pins the
//! job's driver to the predicted-fastest one.
//!
//! The components mirror Figure 1 / Section 3.2 of the paper:
//!
//! | Paper component | Module |
//! |---|---|
//! | Client (job request) | [`request`] |
//! | Telemetry Fetcher | [`service`] (adopts the latest [`telemetry::PublishedSnapshot`] epoch) |
//! | Feature Constructor (Table 1) | `features` |
//! | Supervised Learning Model | [`predictor`] (backed by `mlcore`) |
//! | Decision Module | [`decision`] |
//! | Job Builder (nodeAffinity injection) | [`builder`] |
//! | Logger (training data collection) | `logger` |
//! | Model Training | [`service`] ([`service::SchedulerService::retrain`]) |
//!
//! Supervised placement is one ranker,
//! [`context::SchedulingContext::rank_feasible_batch_into`], called by
//! [`service::SchedulerService`] (which wires the whole pipeline together)
//! and by every accuracy experiment alike; `schedulers` holds the one
//! baseline the paper compares against, the Kubernetes default scheduler.
//!
//! Decisions run against a borrowed [`context::SchedulingContext`] over a
//! carried [`context::ContextScratch`]: telemetry indexed by interned
//! [`cluster::NodeId`], the feasible set and the model's scoreboards live in
//! one decision view keyed by (snapshot revision, cluster generation, model
//! version), so a decision re-derives only what changed since the previous
//! one, allocates nothing but its output, and a burst through one context
//! amortizes all shared work.
//!
//! Telemetry reaches decisions one way: the service reads the metrics
//! server's [`telemetry::PublishedSnapshot`] handle, adopts the published
//! epoch's immutable `Arc` snapshot zero-copy and, while no new epoch lands,
//! reuses the held one after a single atomic freshness check — so any number
//! of service clones serve bursts concurrently with live ingest, without
//! touching a store lock.

#![warn(missing_docs)]

// Named by path in `benchmark/src`; private once ROADMAP item 27 lands.
pub mod builder;
// Named by path in `benchmark/src`; private once ROADMAP item 27 lands.
pub mod context;
// Named by path in `benchmark/src`; private once ROADMAP item 27 lands.
pub mod decision;
mod features;
mod logger;
// Named by path in `benchmark/src`; private once ROADMAP item 27 lands.
pub mod predictor;
// Named by path in `benchmark/src`; private once ROADMAP item 27 lands.
pub mod request;
mod schedulers;
// Named by path in `benchmark/src`; private once ROADMAP item 27 lands.
pub mod service;

pub use builder::JobBuilder;
pub use context::{ContextScratch, PruningPolicy, SchedulingContext};
pub use decision::{DecisionModule, NodeRanking, RankedNode};
pub use features::{Column, FeatureGroup, FeatureSchema};
pub use logger::ExecutionLogger;
pub use predictor::{CompletionTimePredictor, ModelVersion};
pub use request::JobRequest;
pub use schedulers::KubeDefaultScheduler;
pub use service::{SchedulerConfig, SchedulerService, SchedulingDecision};
