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
//! | Feature Constructor (Table 1) | [`features`] |
//! | Supervised Learning Model | [`predictor`] (backed by `mlcore`) |
//! | Decision Module | [`decision`] |
//! | Job Builder (nodeAffinity injection) | [`builder`] |
//! | Logger (training data collection) | [`logger`] |
//! | Model Training | [`training`] |
//!
//! [`schedulers`] additionally provides the baselines the evaluation compares
//! against (the Kubernetes default scheduler adapter, a uniform-random picker
//! and two telemetry heuristics), all behind one [`schedulers::JobScheduler`]
//! trait, and [`service::SchedulerService`] wires the whole pipeline together.
//!
//! Decisions run against a borrowed [`context::SchedulingContext`] over a
//! carried [`context::ContextScratch`]: telemetry indexed by interned
//! [`cluster::NodeId`], the feasible set and the model's scoreboards live in
//! one decision view keyed by (snapshot revision, cluster generation, model
//! version), so a decision re-derives only what changed since the previous
//! one, allocates nothing but its output, and batches amortize all shared
//! work ([`schedulers::JobScheduler::select_batch`]).
//!
//! Telemetry reaches decisions one way: the service reads the metrics
//! server's [`telemetry::PublishedSnapshot`] handle, adopts the published
//! epoch's immutable `Arc` snapshot zero-copy and, while no new epoch lands,
//! reuses the held one after a single atomic freshness check — so any number
//! of service clones serve bursts concurrently with live ingest, without
//! touching a store lock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod context;
pub mod decision;
pub mod features;
pub mod logger;
pub mod predictor;
pub mod request;
pub mod schedulers;
pub mod service;
pub mod training;

pub use builder::JobBuilder;
pub use context::{ContextScratch, PruningPolicy, SchedulingContext};
pub use decision::{DecisionModule, NodeRanking, RankedNode};
pub use features::{FeatureGroup, FeatureSchema, FeatureVector};
pub use logger::{ExecutionLogger, TrainingRecord};
pub use predictor::{CompletionTimePredictor, ModelVersion};
pub use request::JobRequest;
pub use schedulers::{
    JobScheduler, KubeDefaultScheduler, LeastLoadedScheduler, LowestRttScheduler, RandomScheduler,
    SupervisedScheduler,
};
pub use service::{SchedulerConfig, SchedulerService};
pub use training::{train_all_models, TrainingOutcome, TrainingPipeline};
