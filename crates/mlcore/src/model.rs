//! The unified model interface the scheduler plugs into.
//!
//! The paper evaluates three model families. [`ModelKind`] names them,
//! [`TrainedModel`] wraps a fitted instance behind a single enum and predicts
//! a completion time per feature row, one row or a whole batch.

use crate::data::{Dataset, FeatureMatrix};
use crate::forest::{RandomForest, RandomForestConfig};
use crate::gbdt::{GradientBoosting, GradientBoostingConfig};
use crate::linear::{LinearRegression, LinearRegressionConfig};
use simcore::Rng;
use std::fmt;

/// The model families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Ordinary least squares / ridge linear regression.
    Linear,
    /// Random forest.
    RandomForest,
    /// Gradient-boosted trees (the XGBoost stand-in).
    GradientBoosting,
}

impl ModelKind {
    /// All model kinds, in the order the paper reports them.
    pub const ALL: [ModelKind; 3] = [
        ModelKind::Linear,
        ModelKind::GradientBoosting,
        ModelKind::RandomForest,
    ];

    /// Display name matching the paper's Table 4 rows.
    pub fn display_name(&self) -> &'static str {
        match self {
            ModelKind::Linear => "Linear Regression",
            ModelKind::RandomForest => "Random Forest",
            ModelKind::GradientBoosting => "XGBoost",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_name())
    }
}

/// Hyperparameters for every model family (only the selected family's entry
/// is used at fit time).
#[derive(Debug, Clone, Default)]
pub struct ModelConfig {
    /// Linear regression settings.
    pub linear: LinearRegressionConfig,
    /// Random forest settings.
    pub forest: RandomForestConfig,
    /// Gradient boosting settings.
    pub gbdt: GradientBoostingConfig,
}

/// A fitted model of any family, with the feature schema it was trained on.
#[derive(Debug, Clone)]
pub enum TrainedModel {
    /// A fitted linear regression.
    Linear(LinearRegression),
    /// A fitted random forest.
    RandomForest(RandomForest),
    /// A fitted gradient-boosting ensemble.
    GradientBoosting(GradientBoosting),
}

impl TrainedModel {
    /// Train a model of the requested family on `data`.
    pub fn train(
        kind: ModelKind,
        config: &ModelConfig,
        data: &Dataset,
        rng: &mut Rng,
    ) -> TrainedModel {
        match kind {
            ModelKind::Linear => {
                let mut model = LinearRegression::new(config.linear);
                // An empty dataset is the only error path; fall back to the
                // unfitted model (predicts 0) rather than poisoning callers.
                let _ = model.fit(data);
                TrainedModel::Linear(model)
            }
            ModelKind::RandomForest => {
                let mut model = RandomForest::new(config.forest);
                model.fit(data, rng);
                TrainedModel::RandomForest(model)
            }
            ModelKind::GradientBoosting => {
                let mut model = GradientBoosting::new(config.gbdt);
                model.fit(data, rng);
                TrainedModel::GradientBoosting(model)
            }
        }
    }

    /// Predict every row of a feature matrix into a reused output buffer
    /// (cleared and refilled) through the family's batch kernel. The
    /// scheduler hands a whole candidate batch through here in one call.
    pub fn predict_into(&self, x: &FeatureMatrix, out: &mut Vec<f64>) {
        match self {
            TrainedModel::Linear(m) => m.predict_into(x, out),
            TrainedModel::RandomForest(m) => m.predict_into(x, out),
            TrainedModel::GradientBoosting(m) => m.predict_into(x, out),
        }
    }

    /// Predict the targets for every row of a dataset.
    pub(crate) fn predict(&self, data: &Dataset) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(data.matrix(), &mut out);
        out
    }

    /// Which family this model belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            TrainedModel::Linear(_) => ModelKind::Linear,
            TrainedModel::RandomForest(_) => ModelKind::RandomForest,
            TrainedModel::GradientBoosting(_) => ModelKind::GradientBoosting,
        }
    }

    /// Number of feature columns the model requires, or `None` when the
    /// model was never (successfully) fitted. Boundary code uses this to
    /// reject feature schemas whose width does not match the model.
    pub fn n_features(&self) -> Option<usize> {
        match self {
            TrainedModel::Linear(m) => m.is_fitted().then(|| m.weights().len()),
            TrainedModel::RandomForest(m) => m.is_fitted().then(|| m.n_features()),
            TrainedModel::GradientBoosting(m) => m.is_fitted().then(|| m.n_features()),
        }
    }

    /// Sorted, deduplicated split thresholds per feature column across every
    /// tree in the model — its axis-aligned partition of feature space. Two
    /// rows whose values fall in the same inter-threshold cell on every
    /// column take identical paths through every tree and receive identical
    /// predictions; a linear model splits nowhere, so every column's list is
    /// empty (one cell: predictions differ only by the row's linear term).
    /// Columns beyond any split's feature index come back empty.
    pub fn split_grid(&self, n_features: usize) -> Vec<Vec<f64>> {
        let mut grid = vec![Vec::new(); n_features];
        let trees = match self {
            TrainedModel::Linear(_) => &[],
            TrainedModel::RandomForest(m) => m.trees(),
            TrainedModel::GradientBoosting(m) => m.trees(),
        };
        for tree in trees {
            for (feature, threshold) in tree.flat().splits() {
                if let Some(column) = grid.get_mut(feature) {
                    column.push(threshold);
                }
            }
        }
        for column in &mut grid {
            column.sort_by(f64::total_cmp);
            column.dedup();
        }
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RegressionMetrics;

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let x1 = rng.uniform(0.0, 5.0);
            let x2 = rng.uniform(0.0, 5.0);
            d.push(vec![x1, x2], 2.0 * x1 + x2 * x2 + rng.normal(0.0, 0.2))
                .unwrap();
        }
        d
    }

    fn small_config() -> ModelConfig {
        ModelConfig {
            forest: RandomForestConfig {
                n_trees: 25,
                workers: 2,
                ..Default::default()
            },
            gbdt: GradientBoostingConfig {
                n_rounds: 60,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(format!("{}", ModelKind::RandomForest), "Random Forest");
        assert_eq!(ModelKind::GradientBoosting.display_name(), "XGBoost");
        assert_eq!(ModelKind::ALL.len(), 3);
    }

    #[test]
    fn all_families_train_and_predict() {
        let data = dataset(400, 1);
        let mut rng = Rng::seed_from_u64(2);
        let (train, test) = data.train_test_split(0.25, &mut rng);
        for kind in ModelKind::ALL {
            let model = TrainedModel::train(kind, &small_config(), &train, &mut rng);
            assert_eq!(model.kind(), kind);
            let m = RegressionMetrics::compute(&model.predict(&test), test.targets());
            assert!(m.r2 > 0.7, "{kind}: r2 {}", m.r2);
        }
    }

    #[test]
    fn tree_models_beat_linear_on_nonlinear_target() {
        let data = dataset(600, 3);
        let mut rng = Rng::seed_from_u64(4);
        let (train, test) = data.train_test_split(0.25, &mut rng);
        let config = small_config();
        let linear = TrainedModel::train(ModelKind::Linear, &config, &train, &mut rng);
        let forest = TrainedModel::train(ModelKind::RandomForest, &config, &train, &mut rng);
        let lm = RegressionMetrics::compute(&linear.predict(&test), test.targets());
        let fm = RegressionMetrics::compute(&forest.predict(&test), test.targets());
        assert!(
            fm.rmse < lm.rmse,
            "forest {} vs linear {}",
            fm.rmse,
            lm.rmse
        );
    }

    #[test]
    fn training_on_empty_data_is_safe() {
        let empty = Dataset::new(1);
        let mut probe = Dataset::new(1);
        probe.push_row(&[1.0], 0.0).unwrap();
        let mut rng = Rng::seed_from_u64(7);
        for kind in ModelKind::ALL {
            let model = TrainedModel::train(kind, &small_config(), &empty, &mut rng);
            assert_eq!(model.predict(&probe), [0.0]);
        }
    }
}
