//! # mlcore — from-scratch supervised learning for tabular telemetry data
//!
//! The paper trains three regression models on ~3600 rows of telemetry + job
//! configuration features to predict job completion time: **linear
//! regression**, **random forest** and **gradient-boosted decision trees
//! (XGBoost)**. This crate implements all three (and the infrastructure
//! around them) with no external ML dependency:
//!
//! * [`data`] — the [`data::Dataset`] container over a contiguous row-major
//!   [`data::FeatureMatrix`], train/test splitting and feature
//!   standardization.
//! * [`metrics`] — MAE, RMSE, R², MAPE and ranking helpers.
//! * [`linear`] — ordinary least squares / ridge regression solved by normal
//!   equations with Gaussian elimination and optional standardization.
//! * [`tree`] — CART regression trees (variance-reduction splits, depth and
//!   leaf-size controls, optional per-split feature subsampling), stored as
//!   flat level-order [`tree::FlatTree`]s with batch-prediction kernels.
//! * [`forest`] — random forests: bootstrap aggregation of CART trees with
//!   feature subsampling, trained in parallel with deterministic per-tree
//!   seeds, plus impurity-based feature importance.
//! * [`gbdt`] — gradient-boosted trees with squared loss, shrinkage, row
//!   subsampling and early stopping — the role XGBoost plays in the paper.
//! * [`model`] — the [`model::Regressor`] trait, a serializable
//!   [`model::TrainedModel`] wrapper and a [`model::ModelKind`] factory so the
//!   scheduler can swap model families via configuration.
//! * [`validate`] — evaluation of a fitted model on held-out data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod forest;
pub mod gbdt;
pub mod linear;
pub mod metrics;
pub mod model;
pub mod tree;
pub mod validate;

pub use data::{Dataset, FeatureMatrix, Scaler, SplitIndices};
pub use forest::{RandomForest, RandomForestConfig};
pub use gbdt::{GradientBoosting, GradientBoostingConfig};
pub use linear::{LinearRegression, LinearRegressionConfig};
pub use metrics::RegressionMetrics;
pub use model::{ModelConfig, ModelKind, Regressor, TrainedModel};
pub use tree::{DecisionTree, DecisionTreeConfig, FlatTree, TreeNode};
pub use validate::evaluate_on;
