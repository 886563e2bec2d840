//! Gradient-boosted decision trees (squared loss).
//!
//! This plays the role XGBoost plays in the paper: an additive ensemble of
//! shallow CART trees fitted to the residuals of the running prediction, with
//! shrinkage (learning rate), row subsampling and optional early stopping on a
//! validation fraction. With squared loss the negative gradient *is* the
//! residual, so each boosting round fits a regression tree to the residuals.

use crate::data::{Dataset, FeatureMatrix};
use crate::tree::{DecisionTree, DecisionTreeConfig, FlatTree};
use simcore::Rng;

/// Gradient boosting hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientBoostingConfig {
    /// Maximum number of boosting rounds.
    pub n_rounds: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Per-tree growth limits (kept shallow).
    pub tree: DecisionTreeConfig,
    /// Fraction of rows sampled (without replacement) per round.
    pub subsample: f64,
    /// Fraction of rows held out for early stopping (0 disables it).
    pub validation_fraction: f64,
    /// Stop when the validation RMSE has not improved for this many rounds.
    pub early_stopping_rounds: usize,
}

impl Default for GradientBoostingConfig {
    fn default() -> Self {
        GradientBoostingConfig {
            n_rounds: 300,
            learning_rate: 0.1,
            tree: DecisionTreeConfig {
                max_depth: 4,
                min_samples_split: 4,
                min_samples_leaf: 2,
                max_features: None,
            },
            subsample: 0.8,
            validation_fraction: 0.1,
            early_stopping_rounds: 25,
        }
    }
}

/// A fitted gradient-boosted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    config: GradientBoostingConfig,
    base_prediction: f64,
    trees: Vec<DecisionTree>,
    n_features: usize,
    fitted: bool,
}

impl Default for GradientBoosting {
    fn default() -> Self {
        Self::new(GradientBoostingConfig::default())
    }
}

impl GradientBoosting {
    /// Create an unfitted model.
    pub fn new(config: GradientBoostingConfig) -> Self {
        GradientBoosting {
            config,
            base_prediction: 0.0,
            trees: Vec::new(),
            n_features: 0,
            fitted: false,
        }
    }

    /// Whether `fit` has been called.
    pub(crate) fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Number of feature columns the ensemble was fitted on.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// The fitted per-round trees (used by differential tests).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The constant base prediction (training-target mean).
    pub fn base_prediction(&self) -> f64 {
        self.base_prediction
    }

    /// The shrinkage each tree's contribution is scaled by.
    pub fn learning_rate(&self) -> f64 {
        self.config.learning_rate
    }

    /// Fit the ensemble.
    pub fn fit(&mut self, data: &Dataset, rng: &mut Rng) {
        self.trees.clear();
        self.n_features = data.n_features();
        if data.is_empty() {
            self.base_prediction = 0.0;
            self.fitted = true;
            return;
        }

        // Optional validation holdout for early stopping.
        let use_validation = self.config.validation_fraction > 0.0
            && data.len() >= 20
            && self.config.early_stopping_rounds > 0;
        let (train, valid) = if use_validation {
            let (t, v) = data.train_test_split(self.config.validation_fraction, rng);
            (t, Some(v))
        } else {
            (data.clone(), None)
        };

        self.base_prediction = train.target_mean();
        let n = train.len();
        let mut predictions = vec![self.base_prediction; n];
        let mut valid_predictions: Vec<f64> = valid
            .as_ref()
            .map(|v| vec![self.base_prediction; v.len()])
            .unwrap_or_default();
        let mut best_valid_rmse = f64::INFINITY;
        let mut rounds_since_improvement = 0usize;

        // Round-reused scratch: residual targets plus batch-prediction
        // buffers. Each round refits the *same* contiguous feature matrix
        // against fresh residuals — no per-round row-of-Vecs copy.
        let mut residuals = vec![0.0; n];
        let mut tree_predictions: Vec<f64> = Vec::with_capacity(n);
        let mut valid_tree_predictions: Vec<f64> = Vec::new();
        for _ in 0..self.config.n_rounds.max(1) {
            // Residuals = negative gradient of squared loss.
            for (residual, (&y, &p)) in residuals
                .iter_mut()
                .zip(train.targets().iter().zip(&predictions))
            {
                *residual = y - p;
            }
            // Row subsample without replacement.
            let sample_size = ((n as f64) * self.config.subsample.clamp(0.1, 1.0)).round() as usize;
            let sample: Vec<usize> = rng.sample_indices(n, sample_size.max(1));

            let mut tree = DecisionTree::new(self.config.tree);
            tree.fit_on_matrix(train.matrix(), &residuals, &sample, rng);

            // Update running predictions (batch walk, trees-outer).
            let lr = self.config.learning_rate;
            tree.predict_into(train.matrix(), &mut tree_predictions);
            for (p, &t) in predictions.iter_mut().zip(&tree_predictions) {
                *p += lr * t;
            }
            if let Some(valid) = &valid {
                tree.predict_into(valid.matrix(), &mut valid_tree_predictions);
                for (p, &t) in valid_predictions.iter_mut().zip(&valid_tree_predictions) {
                    *p += lr * t;
                }
            }
            self.trees.push(tree);

            // Early stopping on validation RMSE.
            if let Some(valid) = &valid {
                let rmse = {
                    let mut sq = 0.0;
                    for (p, &y) in valid_predictions.iter().zip(valid.targets()) {
                        sq += (p - y) * (p - y);
                    }
                    (sq / valid.len() as f64).sqrt()
                };
                if rmse + 1e-9 < best_valid_rmse {
                    best_valid_rmse = rmse;
                    rounds_since_improvement = 0;
                } else {
                    rounds_since_improvement += 1;
                    if rounds_since_improvement >= self.config.early_stopping_rounds {
                        break;
                    }
                }
            }
        }
        self.fitted = true;
    }

    /// Predict one row.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        let mut pred = self.base_prediction;
        for tree in &self.trees {
            pred += self.config.learning_rate * tree.predict_row(row);
        }
        pred
    }

    /// Predict every row of a feature matrix into a reused output buffer.
    ///
    /// Batch accumulation in the same round order as
    /// [`GradientBoosting::predict_row`], so results are bit-identical:
    /// decision-sized batches (≤ [`FlatTree::BLOCK`] rows) fetch their row
    /// slices once and walk the rounds' trees through them four at a time;
    /// larger matrices run trees-outer over interleaved blocks.
    pub fn predict_into(&self, x: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(x.n_rows(), self.base_prediction);
        FlatTree::accumulate_ensemble(
            self.trees
                .iter()
                .map(|t| (t.flat(), self.config.learning_rate)),
            x,
            out,
        );
    }

    /// Predict every row of a dataset.
    #[cfg(test)]
    pub(crate) fn predict(&self, data: &Dataset) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(data.matrix(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearRegression;
    use crate::metrics::RegressionMetrics;

    fn nonlinear(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let x1 = rng.uniform(0.0, 1.0);
            let x2 = rng.uniform(0.0, 1.0);
            let x3 = rng.uniform(0.0, 1.0);
            let y =
                10.0 * (x1 * x2).sqrt() + if x3 > 0.5 { 20.0 } else { 0.0 } + rng.normal(0.0, 0.3);
            d.push(vec![x1, x2, x3], y).unwrap();
        }
        d
    }

    fn fast_config() -> GradientBoostingConfig {
        GradientBoostingConfig {
            n_rounds: 120,
            ..Default::default()
        }
    }

    #[test]
    fn learns_nonlinear_response_well() {
        let data = nonlinear(800, 1);
        let mut rng = Rng::seed_from_u64(2);
        let (train, test) = data.train_test_split(0.25, &mut rng);
        let mut model = GradientBoosting::new(fast_config());
        assert!(!model.is_fitted());
        model.fit(&train, &mut rng);
        assert!(model.is_fitted());
        assert!(!model.trees.is_empty());
        let m = RegressionMetrics::compute(&model.predict(&test), test.targets());
        assert!(m.r2 > 0.9, "r2 {}", m.r2);
    }

    #[test]
    fn outperforms_linear_regression_on_nonlinear_data() {
        let data = nonlinear(800, 3);
        let mut rng = Rng::seed_from_u64(4);
        let (train, test) = data.train_test_split(0.25, &mut rng);
        let mut linear = LinearRegression::default();
        linear.fit(&train).unwrap();
        let linear_m = RegressionMetrics::compute(&linear.predict(&test), test.targets());
        let mut gbdt = GradientBoosting::new(fast_config());
        gbdt.fit(&train, &mut rng);
        let gbdt_m = RegressionMetrics::compute(&gbdt.predict(&test), test.targets());
        assert!(
            gbdt_m.rmse < linear_m.rmse,
            "gbdt rmse {} should beat linear {}",
            gbdt_m.rmse,
            linear_m.rmse
        );
    }

    #[test]
    fn early_stopping_limits_rounds() {
        // Pure-noise targets: validation error cannot improve, so boosting
        // must stop long before the configured round count.
        let mut rng = Rng::seed_from_u64(5);
        let mut d = Dataset::new(1);
        for _ in 0..300 {
            d.push(vec![rng.uniform(0.0, 1.0)], rng.normal(0.0, 1.0))
                .unwrap();
        }
        let mut model = GradientBoosting::new(GradientBoostingConfig {
            n_rounds: 500,
            early_stopping_rounds: 10,
            ..Default::default()
        });
        model.fit(&d, &mut rng);
        assert!(model.trees.len() < 200, "rounds {}", model.trees.len());
    }

    #[test]
    fn disabled_early_stopping_uses_all_rounds() {
        let data = nonlinear(100, 6);
        let mut rng = Rng::seed_from_u64(7);
        let mut model = GradientBoosting::new(GradientBoostingConfig {
            n_rounds: 30,
            validation_fraction: 0.0,
            ..Default::default()
        });
        model.fit(&data, &mut rng);
        assert_eq!(model.trees.len(), 30);
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_per_row() {
        let data = nonlinear(300, 15);
        let mut rng = Rng::seed_from_u64(16);
        let mut model = GradientBoosting::new(fast_config());
        model.fit(&data, &mut rng);
        let mut batch = Vec::new();
        model.predict_into(data.matrix(), &mut batch);
        assert_eq!(batch.len(), data.len());
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(b, model.predict_row(data.row(i)), "row {i}");
        }
        // Empty batch clears the output.
        model.predict_into(&FeatureMatrix::new(3), &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn empty_dataset_predicts_zero() {
        let mut model = GradientBoosting::default();
        let mut rng = Rng::seed_from_u64(8);
        model.fit(&Dataset::new(1), &mut rng);
        assert!(model.is_fitted());
        assert_eq!(model.predict_row(&[1.0]), 0.0);
        assert_eq!(model.trees.len(), 0);
    }

    #[test]
    fn small_dataset_skips_validation_split() {
        let data = nonlinear(10, 9);
        let mut rng = Rng::seed_from_u64(10);
        let mut model = GradientBoosting::new(GradientBoostingConfig {
            n_rounds: 20,
            ..Default::default()
        });
        model.fit(&data, &mut rng);
        assert_eq!(model.trees.len(), 20, "too few rows for a validation split");
        let m = RegressionMetrics::compute(&model.predict(&data), data.targets());
        assert!(m.r2 > 0.8);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let data = nonlinear(200, 12);
        let mut m1 = GradientBoosting::new(GradientBoostingConfig {
            n_rounds: 25,
            ..Default::default()
        });
        let mut m2 = m1.clone();
        let mut r1 = Rng::seed_from_u64(42);
        let mut r2 = Rng::seed_from_u64(42);
        m1.fit(&data, &mut r1);
        m2.fit(&data, &mut r2);
        assert_eq!(m1.predict(&data), m2.predict(&data));
    }
}
