//! Regression metrics.

/// Standard regression error metrics over a prediction batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionMetrics {
    /// Mean absolute error.
    pub mae: f64,
    /// Root mean squared error.
    pub rmse: f64,
    /// Coefficient of determination.
    pub r2: f64,
    /// Mean absolute percentage error (targets with |y| < 1e-9 are skipped).
    pub(crate) mape: f64,
    /// Number of evaluated samples.
    pub count: usize,
}

impl RegressionMetrics {
    /// Compute metrics from predictions and ground truth.
    ///
    /// # Panics
    /// Panics if the two slices have different lengths.
    pub(crate) fn compute(predictions: &[f64], targets: &[f64]) -> RegressionMetrics {
        assert_eq!(
            predictions.len(),
            targets.len(),
            "predictions and targets must align"
        );
        let n = targets.len();
        if n == 0 {
            return RegressionMetrics {
                mae: 0.0,
                rmse: 0.0,
                r2: 0.0,
                mape: 0.0,
                count: 0,
            };
        }
        let nf = n as f64;
        let mean_y: f64 = targets.iter().sum::<f64>() / nf;
        let mut abs_sum = 0.0;
        let mut sq_sum = 0.0;
        let mut ss_tot = 0.0;
        let mut mape_sum = 0.0;
        let mut mape_n = 0usize;
        for (&p, &y) in predictions.iter().zip(targets) {
            let err = p - y;
            abs_sum += err.abs();
            sq_sum += err * err;
            ss_tot += (y - mean_y) * (y - mean_y);
            if y.abs() > 1e-9 {
                mape_sum += (err / y).abs();
                mape_n += 1;
            }
        }
        let r2 = if ss_tot > 0.0 {
            1.0 - sq_sum / ss_tot
        } else {
            0.0
        };
        RegressionMetrics {
            mae: abs_sum / nf,
            rmse: (sq_sum / nf).sqrt(),
            r2,
            mape: if mape_n > 0 {
                mape_sum / mape_n as f64
            } else {
                0.0
            },
            count: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_predictions() {
        let y = [1.0, 2.0, 3.0, 4.0];
        let m = RegressionMetrics::compute(&y, &y);
        assert_eq!(m.mae, 0.0);
        assert_eq!(m.rmse, 0.0);
        assert_eq!(m.r2, 1.0);
        assert_eq!(m.mape, 0.0);
        assert_eq!(m.count, 4);
    }

    #[test]
    fn known_errors() {
        let pred = [2.0, 4.0];
        let y = [1.0, 2.0];
        let m = RegressionMetrics::compute(&pred, &y);
        assert!((m.mae - 1.5).abs() < 1e-12);
        assert!((m.rmse - (2.5f64).sqrt()).abs() < 1e-12);
        // Relative errors: 1/1 and 2/2 -> mean 1.0.
        assert!((m.mape - 1.0).abs() < 1e-12);
        // SS_tot = 0.5, SS_res = 5 -> r2 = 1 - 10 = -9.
        assert!((m.r2 + 9.0).abs() < 1e-12);
    }

    #[test]
    fn mean_prediction_has_zero_r2() {
        let y = [1.0, 3.0, 5.0, 7.0];
        let pred = [4.0; 4];
        let m = RegressionMetrics::compute(&pred, &y);
        assert!(m.r2.abs() < 1e-12);
    }

    #[test]
    fn empty_and_constant_targets() {
        let m = RegressionMetrics::compute(&[], &[]);
        assert_eq!(m.count, 0);
        assert_eq!(m.r2, 0.0);
        let m2 = RegressionMetrics::compute(&[2.0, 2.0], &[2.0, 2.0]);
        assert_eq!(m2.r2, 0.0, "constant targets have zero total variance");
        // Zero targets are skipped by MAPE.
        let m3 = RegressionMetrics::compute(&[1.0, 5.0], &[0.0, 5.0]);
        assert_eq!(m3.mape, 0.0);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn mismatched_lengths_panic() {
        RegressionMetrics::compute(&[1.0], &[1.0, 2.0]);
    }
}
