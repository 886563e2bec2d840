//! # mlcore — from-scratch supervised learning for tabular telemetry data
//!
//! The paper trains three regression models on ~3600 rows of telemetry + job
//! configuration features to predict job completion time: **linear
//! regression**, **random forest** and **gradient-boosted decision trees
//! (XGBoost)**. This crate implements all three (and the infrastructure
//! around them) with no external ML dependency:
//!
//! * `data` — the [`Dataset`] container over a contiguous row-major
//!   [`FeatureMatrix`], train/test splitting and feature
//!   standardization.
//! * `metrics` — MAE, RMSE, R² and MAPE.
//! * `linear` — ordinary least squares / ridge regression solved by normal
//!   equations with Gaussian elimination and optional standardization.
//! * `tree` — CART regression trees (variance-reduction splits, depth and
//!   leaf-size controls, optional per-split feature subsampling), stored as
//!   flat level-order [`FlatTree`]s with batch-prediction kernels.
//! * `forest` — random forests: bootstrap aggregation of CART trees with
//!   feature subsampling, trained in parallel with deterministic per-tree
//!   seeds.
//! * `gbdt` — gradient-boosted trees with squared loss, shrinkage, row
//!   subsampling and early stopping — the role XGBoost plays in the paper.
//! * `model` — the [`TrainedModel`] wrapper over every family and a
//!   [`ModelKind`] factory so the scheduler can swap model families
//!   via configuration.
//! * `validate` — evaluation of a fitted model on held-out data.

#![warn(missing_docs)]

mod data;
mod forest;
mod gbdt;
mod linear;
mod metrics;
mod model;
mod tree;
mod validate;

pub use data::{Dataset, FeatureMatrix, SplitIndices};
pub use forest::{RandomForest, RandomForestConfig};
pub use gbdt::{GradientBoosting, GradientBoostingConfig};
pub use linear::{LinearRegression, LinearRegressionConfig};
pub use metrics::RegressionMetrics;
pub use model::{ModelConfig, ModelKind, TrainedModel};
pub use tree::{DecisionTree, DecisionTreeConfig, FlatTree, TreeNode};
pub use validate::evaluate_on;
