//! Random forests.
//!
//! Bootstrap-aggregated CART trees with per-split feature subsampling. Trees
//! are trained in parallel (one deterministic RNG stream per tree, ordered
//! collection) so the fitted forest is identical regardless of the number of
//! worker threads.

use crate::data::{Dataset, FeatureMatrix};
use crate::tree::{DecisionTree, DecisionTreeConfig, FlatTree};
use simcore::{parallel_map, Rng};

/// Random forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub tree: DecisionTreeConfig,
    /// Fraction of features considered per split (`sqrt(p)` when `None`).
    pub feature_fraction: Option<f64>,
    /// Bootstrap sample size as a fraction of the training set.
    pub sample_fraction: f64,
    /// Worker threads used for training (1 = sequential).
    pub workers: usize,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        RandomForestConfig {
            n_trees: 200,
            tree: DecisionTreeConfig {
                max_depth: 20,
                min_samples_split: 2,
                min_samples_leaf: 1,
                max_features: None,
            },
            // Telemetry datasets have a handful of strong job-size columns and
            // many weaker node-level columns; a generous per-split feature
            // fraction and deep trees let the forest keep discriminating
            // between candidate nodes after the job-size variance is explained.
            feature_fraction: Some(0.7),
            sample_fraction: 1.0,
            workers: simcore::default_workers(),
        }
    }
}

/// A fitted random forest.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    config: RandomForestConfig,
    trees: Vec<DecisionTree>,
    n_features: usize,
    fitted: bool,
}

impl Default for RandomForest {
    fn default() -> Self {
        Self::new(RandomForestConfig::default())
    }
}

impl RandomForest {
    /// Create an unfitted forest.
    pub fn new(config: RandomForestConfig) -> Self {
        RandomForest {
            config,
            trees: Vec::new(),
            n_features: 0,
            fitted: false,
        }
    }

    /// Whether `fit` has been called.
    pub(crate) fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Number of trees in the fitted forest.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Number of feature columns the forest was fitted on.
    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// The fitted trees (flat form each; used by differential tests).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Fit the forest. `rng` provides the master seed; each tree derives an
    /// independent stream keyed by its index so the result is reproducible
    /// and independent of the worker count.
    pub fn fit(&mut self, data: &Dataset, rng: &mut Rng) {
        self.n_features = data.n_features();
        if data.is_empty() {
            self.trees.clear();
            self.fitted = true;
            return;
        }
        let n = data.len();
        let sample_size =
            ((n as f64) * self.config.sample_fraction.clamp(0.05, 1.0)).round() as usize;
        let sample_size = sample_size.max(1);
        let max_features = match self.config.feature_fraction {
            Some(frac) => {
                ((self.n_features as f64 * frac).round() as usize).clamp(1, self.n_features)
            }
            None => ((self.n_features as f64).sqrt().round() as usize).clamp(1, self.n_features),
        };
        let tree_config = DecisionTreeConfig {
            max_features: Some(max_features),
            ..self.config.tree
        };
        // A base RNG from the caller's stream; each tree gets `base.stream(i)`.
        let base = rng.split();
        let n_trees = self.config.n_trees.max(1);
        let workers = self.config.workers.max(1);
        self.trees = parallel_map(n_trees, workers, |tree_idx| {
            let mut tree_rng = base.stream(tree_idx as u64);
            // Bootstrap sample (with replacement).
            let indices: Vec<usize> = (0..sample_size)
                .map(|_| tree_rng.gen_range_usize(0, n))
                .collect();
            let mut tree = DecisionTree::new(tree_config);
            tree.fit_on_matrix(data.matrix(), data.targets(), &indices, &mut tree_rng);
            tree
        });
        self.fitted = true;
    }

    /// Predict one row: the mean of the trees' predictions.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict every row of a feature matrix into a reused output buffer.
    ///
    /// Batch accumulation with interleaved row walks: a decision-sized batch
    /// (≤ [`FlatTree::BLOCK`] rows — the scheduler's candidate set) fetches
    /// its row slices once and walks the trees through them four at a time,
    /// so each tree's nodes are read once per decision with four trees × the
    /// batch's rows of dependent-load chains in flight; larger matrices run
    /// trees-outer over interleaved blocks. Additions happen in the same tree
    /// order as [`RandomForest::predict_row`], so results are bit-identical.
    pub fn predict_into(&self, x: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(x.n_rows(), 0.0);
        if self.trees.is_empty() {
            return;
        }
        FlatTree::accumulate_ensemble(self.trees.iter().map(|t| (t.flat(), 1.0)), x, out);
        let scale = self.trees.len() as f64;
        for v in out.iter_mut() {
            *v /= scale;
        }
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
    use crate::metrics::RegressionMetrics;

    fn friedman_like(n: usize, seed: u64) -> Dataset {
        // A nonlinear benchmark-style response with interactions and noise.
        let mut rng = Rng::seed_from_u64(seed);
        let mut d = Dataset::new(5);
        for _ in 0..n {
            let x: Vec<f64> = (0..5).map(|_| rng.uniform(0.0, 1.0)).collect();
            let y = 10.0 * (std::f64::consts::PI * x[0] * x[1]).sin()
                + 20.0 * (x[2] - 0.5).powi(2)
                + 10.0 * x[3]
                + 5.0 * x[4]
                + rng.normal(0.0, 0.3);
            d.push(x, y).unwrap();
        }
        d
    }

    fn small_config(n_trees: usize, workers: usize) -> RandomForestConfig {
        RandomForestConfig {
            n_trees,
            workers,
            ..Default::default()
        }
    }

    #[test]
    fn learns_nonlinear_response() {
        let data = friedman_like(800, 1);
        let mut rng = Rng::seed_from_u64(2);
        let (train, test) = data.train_test_split(0.25, &mut rng);
        let mut forest = RandomForest::new(small_config(60, 4));
        assert!(!forest.is_fitted());
        forest.fit(&train, &mut rng);
        assert!(forest.is_fitted());
        assert_eq!(forest.tree_count(), 60);
        let m = RegressionMetrics::compute(&forest.predict(&test), test.targets());
        assert!(m.r2 > 0.85, "r2 {}", m.r2);
    }

    #[test]
    fn forest_beats_single_tree_on_held_out_data() {
        let data = friedman_like(600, 3);
        let mut rng = Rng::seed_from_u64(4);
        let (train, test) = data.train_test_split(0.3, &mut rng);
        let mut tree = DecisionTree::default();
        tree.fit(&train, &mut rng);
        let tree_m = RegressionMetrics::compute(&tree.predict(&test), test.targets());
        let mut forest = RandomForest::new(small_config(80, 4));
        forest.fit(&train, &mut rng);
        let forest_m = RegressionMetrics::compute(&forest.predict(&test), test.targets());
        assert!(
            forest_m.rmse <= tree_m.rmse,
            "forest rmse {} should not exceed single-tree rmse {}",
            forest_m.rmse,
            tree_m.rmse
        );
    }

    #[test]
    fn parallel_and_sequential_training_agree() {
        let data = friedman_like(300, 5);
        let mut rng_a = Rng::seed_from_u64(7);
        let mut rng_b = Rng::seed_from_u64(7);
        let mut sequential = RandomForest::new(small_config(16, 1));
        let mut parallel = RandomForest::new(small_config(16, 8));
        sequential.fit(&data, &mut rng_a);
        parallel.fit(&data, &mut rng_b);
        let probe = data.row(0);
        assert_eq!(sequential.predict_row(probe), parallel.predict_row(probe));
        assert_eq!(sequential.predict(&data), parallel.predict(&data));
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_per_row() {
        let data = friedman_like(250, 21);
        let mut rng = Rng::seed_from_u64(22);
        let mut forest = RandomForest::new(small_config(24, 4));
        forest.fit(&data, &mut rng);
        let mut batch = Vec::new();
        forest.predict_into(data.matrix(), &mut batch);
        assert_eq!(batch.len(), data.len());
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(b, forest.predict_row(data.row(i)), "row {i}");
        }
        // Empty batch clears the output.
        forest.predict_into(&crate::data::FeatureMatrix::new(5), &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn empty_and_unfitted_predict_zero() {
        let unfitted = RandomForest::default();
        assert_eq!(unfitted.predict_row(&[1.0, 2.0]), 0.0);
        let mut forest = RandomForest::new(small_config(4, 1));
        let empty = Dataset::new(1);
        let mut rng = Rng::seed_from_u64(1);
        forest.fit(&empty, &mut rng);
        assert!(forest.is_fitted());
        assert_eq!(forest.predict_row(&[1.0]), 0.0);
    }

    #[test]
    fn sample_fraction_and_feature_fraction_are_clamped() {
        let data = friedman_like(100, 13);
        let mut rng = Rng::seed_from_u64(14);
        let mut forest = RandomForest::new(RandomForestConfig {
            n_trees: 5,
            sample_fraction: 0.0,         // clamps to 0.05
            feature_fraction: Some(10.0), // clamps to all features
            workers: 2,
            ..Default::default()
        });
        forest.fit(&data, &mut rng);
        assert_eq!(forest.tree_count(), 5);
        // Still produces finite predictions.
        assert!(forest.predict_row(data.row(0)).is_finite());
    }
}
