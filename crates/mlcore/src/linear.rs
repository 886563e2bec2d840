//! Linear regression (ordinary least squares / ridge).
//!
//! Solved with normal equations: `(XᵀX + λI) w = Xᵀy`, Gaussian elimination
//! with partial pivoting. Features are standardized internally (fit-time
//! scaler) so the ridge penalty treats all columns equally and the solver is
//! well conditioned on telemetry columns with wildly different scales (bytes
//! vs. load averages vs. seconds).

use crate::data::{Dataset, FeatureMatrix, Scaler};
use std::fmt;

/// Configuration of the linear model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearRegressionConfig {
    /// L2 regularization strength (0 = ordinary least squares).
    pub l2: f64,
}

impl Default for LinearRegressionConfig {
    fn default() -> Self {
        LinearRegressionConfig { l2: 1e-6 }
    }
}

/// A fitted (or not yet fitted) linear regression model.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    config: LinearRegressionConfig,
    /// Weights over standardized features.
    weights: Vec<f64>,
    intercept: f64,
    /// The fit-time scaler; `None` until `fit` succeeds.
    scaler: Option<Scaler>,
}

/// Errors raised by model fitting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FitError {
    /// The training set is empty.
    EmptyDataset,
    /// The normal-equation system is singular and could not be solved.
    SingularSystem,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyDataset => write!(f, "cannot fit on an empty dataset"),
            FitError::SingularSystem => write!(f, "normal equations are singular"),
        }
    }
}

impl std::error::Error for FitError {}

impl Default for LinearRegression {
    fn default() -> Self {
        Self::new(LinearRegressionConfig::default())
    }
}

impl LinearRegression {
    /// Create an unfitted model.
    pub(crate) fn new(config: LinearRegressionConfig) -> Self {
        LinearRegression {
            config,
            weights: Vec::new(),
            intercept: 0.0,
            scaler: None,
        }
    }

    /// Fitted weights, in the standardized feature space.
    pub(crate) fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Whether `fit` has been called successfully.
    pub(crate) fn is_fitted(&self) -> bool {
        self.scaler.is_some()
    }

    /// Fit the model to a dataset.
    pub(crate) fn fit(&mut self, data: &Dataset) -> Result<(), FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let scaler = Scaler::fit(data);
        let x = scaler.transform_matrix(data.matrix());
        let y = data.targets();
        let p = data.n_features() + 1; // + intercept column

        // Build the normal equations A w = b with A = XᵀX + λI, b = Xᵀy.
        let mut a = vec![vec![0.0f64; p]; p];
        let mut b = vec![0.0f64; p];
        for (row, &yi) in x.rows().zip(y) {
            // Augmented row: [1, x...]
            for i in 0..p {
                let xi = if i == 0 { 1.0 } else { row[i - 1] };
                b[i] += xi * yi;
                for j in 0..p {
                    let xj = if j == 0 { 1.0 } else { row[j - 1] };
                    a[i][j] += xi * xj;
                }
            }
        }
        // Ridge penalty on the non-intercept diagonal.
        for (i, row) in a.iter_mut().enumerate().skip(1) {
            row[i] += self.config.l2.max(0.0) * x.n_rows() as f64;
        }

        let solution = solve_linear_system(&mut a, &mut b).ok_or(FitError::SingularSystem)?;
        self.intercept = solution[0];
        self.weights = solution[1..].to_vec();
        self.scaler = Some(scaler);
        Ok(())
    }

    /// The affine prediction over a raw row, standardizing element-wise on
    /// the fly. Each term is `w * ((x - m) / s)` — the same operations in the
    /// same order as transforming the row first and taking the dot product,
    /// so results are bit-identical, without a scratch buffer.
    #[inline]
    fn dot_standardized(&self, scaler: &Scaler, row: &[f64]) -> f64 {
        self.intercept
            + self
                .weights
                .iter()
                .zip(row)
                .zip(scaler.means())
                .zip(scaler.stds())
                .map(|(((w, x), m), s)| w * ((x - m) / s))
                .sum::<f64>()
    }

    /// Predict every row of a feature matrix into a reused output buffer.
    /// Standardization is fused into the dot product, so steady-state
    /// batches allocate nothing.
    pub(crate) fn predict_into(&self, x: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        match &self.scaler {
            Some(s) => {
                out.reserve(x.n_rows());
                out.extend(x.rows().map(|row| self.dot_standardized(s, row)));
            }
            None => out.resize(x.n_rows(), 0.0),
        }
    }

    /// Predict the targets for every row of a dataset.
    #[cfg(test)]
    pub(crate) fn predict(&self, data: &Dataset) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(data.matrix(), &mut out);
        out
    }
}

/// Solve `A x = b` in place by Gaussian elimination with partial pivoting.
/// Returns `None` when the matrix is singular.
fn solve_linear_system(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = a[col][col].abs();
        for (row, a_row) in a.iter().enumerate().skip(col + 1) {
            if a_row[col].abs() > best {
                best = a_row[col].abs();
                pivot = row;
            }
        }
        if best < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below. Split so the pivot row and target rows can be
        // borrowed simultaneously.
        let (pivot_rows, target_rows) = a.split_at_mut(col + 1);
        let pivot_row = &pivot_rows[col];
        for (offset, target_row) in target_rows.iter_mut().enumerate() {
            let factor = target_row[col] / pivot_row[col];
            if factor == 0.0 {
                continue;
            }
            for (t, p) in target_row[col..n].iter_mut().zip(&pivot_row[col..n]) {
                *t -= factor * p;
            }
            b[col + 1 + offset] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in i + 1..n {
            sum -= a[i][j] * x[j];
        }
        x[i] = sum / a[i][i];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RegressionMetrics;
    use simcore::Rng;

    fn linear_dataset(n: usize, noise: f64, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let x1 = rng.uniform(0.0, 10.0);
            let x2 = rng.uniform(-5.0, 5.0);
            let x3 = rng.uniform(0.0, 1.0);
            let y = 3.0 + 2.0 * x1 - 1.5 * x2 + 0.5 * x3 + rng.normal(0.0, noise);
            d.push(vec![x1, x2, x3], y).unwrap();
        }
        d
    }

    #[test]
    fn recovers_exact_linear_relationship() {
        let data = linear_dataset(200, 0.0, 1);
        let mut model = LinearRegression::new(LinearRegressionConfig { l2: 0.0 });
        assert!(!model.is_fitted());
        model.fit(&data).unwrap();
        assert!(model.is_fitted());
        let preds = model.predict(&data);
        let m = RegressionMetrics::compute(&preds, data.targets());
        assert!(m.rmse < 1e-6, "rmse {}", m.rmse);
        assert!(m.r2 > 0.999999);
    }

    #[test]
    fn noisy_fit_is_reasonable_and_generalizes() {
        let data = linear_dataset(500, 1.0, 2);
        let mut rng = Rng::seed_from_u64(3);
        let (train, test) = data.train_test_split(0.3, &mut rng);
        let mut model = LinearRegression::default();
        model.fit(&train).unwrap();
        let m = RegressionMetrics::compute(&model.predict(&test), test.targets());
        assert!(m.r2 > 0.9, "r2 {}", m.r2);
        assert!(m.rmse < 2.0, "rmse {}", m.rmse);
    }

    #[test]
    fn empty_dataset_is_an_error() {
        let mut model = LinearRegression::default();
        let empty = Dataset::new(1);
        assert_eq!(model.fit(&empty), Err(FitError::EmptyDataset));
        assert!(format!("{}", FitError::EmptyDataset).contains("empty"));
        assert!(format!("{}", FitError::SingularSystem).contains("singular"));
    }

    #[test]
    fn unfitted_model_predicts_zero() {
        let model = LinearRegression::default();
        let mut probe = Dataset::new(3);
        probe.push_row(&[1.0, 2.0, 3.0], 0.0).unwrap();
        assert_eq!(model.predict(&probe), [0.0]);
    }

    #[test]
    fn duplicate_feature_columns_are_handled_by_ridge() {
        // Perfectly collinear features would make OLS singular; ridge keeps it solvable.
        let mut d = Dataset::new(2);
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..100 {
            let x = rng.uniform(0.0, 1.0);
            d.push(vec![x, x], 5.0 * x + 1.0).unwrap();
        }
        let mut model = LinearRegression::new(LinearRegressionConfig { l2: 1e-3 });
        model.fit(&d).unwrap();
        let m = RegressionMetrics::compute(&model.predict(&d), d.targets());
        assert!(m.r2 > 0.99);
    }

    #[test]
    fn constant_feature_does_not_break_fit() {
        let mut d = Dataset::new(2);
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..50 {
            let x = rng.uniform(0.0, 1.0);
            d.push(vec![x, 42.0], 2.0 * x).unwrap();
        }
        let mut model = LinearRegression::default();
        model.fit(&d).unwrap();
        let m = RegressionMetrics::compute(&model.predict(&d), d.targets());
        assert!(m.r2 > 0.999);
    }

    #[test]
    fn solver_detects_singularity() {
        let mut a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut b = vec![1.0, 2.0];
        assert_eq!(solve_linear_system(&mut a, &mut b), None);
        let mut a2 = vec![vec![2.0, 0.0], vec![0.0, 3.0]];
        let mut b2 = vec![4.0, 9.0];
        let x = solve_linear_system(&mut a2, &mut b2).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }
}
