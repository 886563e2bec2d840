//! Tabular dataset container, splitting and standardization.
//!
//! Feature rows live in a [`FeatureMatrix`]: one contiguous row-major
//! `Vec<f64>` with a fixed stride, so training loops, batch inference and
//! metric computation stream cache-line-sequential memory instead of chasing
//! one heap allocation per row. Row views are borrowed slices; nothing on the
//! prediction path clones a row.

use serde::{Deserialize, Serialize};
use simcore::rng::Rng;
use std::fmt;

/// A dense row-major matrix of feature values: `n_rows × n_features` in one
/// contiguous allocation. The row count is tracked explicitly so zero-width
/// schemas (ablations that drop every feature group) still count rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeatureMatrix {
    values: Vec<f64>,
    n_features: usize,
    n_rows: usize,
}

impl FeatureMatrix {
    /// Create an empty matrix with the given stride (features per row).
    pub fn new(n_features: usize) -> Self {
        FeatureMatrix {
            values: Vec::new(),
            n_features,
            n_rows: 0,
        }
    }

    /// Create an empty matrix with capacity reserved for `rows` rows.
    pub fn with_capacity(n_features: usize, rows: usize) -> Self {
        FeatureMatrix {
            values: Vec::with_capacity(n_features * rows),
            n_features,
            n_rows: 0,
        }
    }

    /// Number of feature columns (the row stride).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True when the matrix holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Drop all rows, keeping the allocation and stride.
    pub fn clear(&mut self) {
        self.values.clear();
        self.n_rows = 0;
    }

    /// Drop all rows and switch to a new stride (scratch-buffer reuse across
    /// schemas).
    pub fn reset(&mut self, n_features: usize) {
        self.values.clear();
        self.n_features = n_features;
        self.n_rows = 0;
    }

    /// Append one row (must match the stride).
    ///
    /// # Panics
    /// Panics when `row.len() != n_features`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(
            row.len(),
            self.n_features,
            "row width must match the matrix stride"
        );
        self.values.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// Append a zero-filled row and return a mutable view of it, so callers
    /// can construct features in place without a temporary `Vec`.
    pub fn add_row(&mut self) -> &mut [f64] {
        let start = self.values.len();
        self.values.resize(start + self.n_features, 0.0);
        self.n_rows += 1;
        &mut self.values[start..]
    }

    /// Borrow one row.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.n_rows, "row {i} out of {} rows", self.n_rows);
        let start = i * self.n_features;
        &self.values[start..start + self.n_features]
    }

    /// Mutably borrow one row.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.n_rows, "row {i} out of {} rows", self.n_rows);
        let start = i * self.n_features;
        &mut self.values[start..start + self.n_features]
    }

    /// One cell.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.values[row * self.n_features + col]
    }

    /// Overwrite one cell.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.values[row * self.n_features + col] = value;
    }

    /// Iterate over the rows as borrowed slices.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.n_rows).map(move |i| self.row(i))
    }

    /// The backing contiguous value buffer (row-major).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// A tabular regression dataset: named feature columns, one contiguous
/// row-major [`FeatureMatrix`] of samples, one target per row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    feature_names: Vec<String>,
    x: FeatureMatrix,
    targets: Vec<f64>,
}

/// Datasets serialize in the canonical nested form (`feature_names`, a
/// row-per-sample `rows` list, `targets`) — the on-disk shape is independent
/// of the flat in-memory layout, and deserialization re-flattens through
/// [`Dataset::push_row`] so the stride invariant is re-established by
/// construction.
impl Serialize for Dataset {
    fn serialize_value(&self) -> serde::Value {
        let rows: Vec<Vec<f64>> = self.x.rows().map(|r| r.to_vec()).collect();
        serde::Value::Map(vec![
            (
                serde::Value::Str("feature_names".to_string()),
                self.feature_names.serialize_value(),
            ),
            (
                serde::Value::Str("rows".to_string()),
                rows.serialize_value(),
            ),
            (
                serde::Value::Str("targets".to_string()),
                self.targets.serialize_value(),
            ),
        ])
    }
}

impl Deserialize for Dataset {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for Dataset"))?;
        let feature_names: Vec<String> =
            Deserialize::deserialize_value(serde::get_field(map, "feature_names")?)?;
        let rows: Vec<Vec<f64>> = Deserialize::deserialize_value(serde::get_field(map, "rows")?)?;
        let targets: Vec<f64> = Deserialize::deserialize_value(serde::get_field(map, "targets")?)?;
        if rows.len() != targets.len() {
            return Err(serde::Error::custom("rows and targets must align"));
        }
        let mut data = Dataset::new(feature_names);
        for (row, &y) in rows.iter().zip(&targets) {
            data.push_row(row, y)
                .map_err(|e| serde::Error::custom(e.to_string()))?;
        }
        Ok(data)
    }
}

/// Errors raised by dataset operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A row's length does not match the number of feature columns.
    DimensionMismatch {
        /// Expected number of features.
        expected: usize,
        /// Length of the offending row.
        got: usize,
    },
    /// The dataset has no rows but the operation needs at least one.
    Empty,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::DimensionMismatch { expected, got } => {
                write!(f, "row has {got} features, expected {expected}")
            }
            DataError::Empty => write!(f, "dataset is empty"),
        }
    }
}

impl std::error::Error for DataError {}

impl Dataset {
    /// Create an empty dataset with the given feature names.
    pub fn new(feature_names: Vec<String>) -> Self {
        let x = FeatureMatrix::new(feature_names.len());
        Dataset {
            feature_names,
            x,
            targets: Vec::new(),
        }
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.feature_names.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.x.n_rows()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Append a sample from a borrowed slice (no intermediate allocation).
    pub fn push_row(&mut self, features: &[f64], target: f64) -> Result<(), DataError> {
        if features.len() != self.n_features() {
            return Err(DataError::DimensionMismatch {
                expected: self.n_features(),
                got: features.len(),
            });
        }
        self.x.push_row(features);
        self.targets.push(target);
        Ok(())
    }

    /// Append a sample (owned-`Vec` convenience over [`Dataset::push_row`]).
    pub fn push(&mut self, features: Vec<f64>, target: f64) -> Result<(), DataError> {
        self.push_row(&features, target)
    }

    /// The contiguous feature matrix.
    pub fn matrix(&self) -> &FeatureMatrix {
        &self.x
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// One row.
    pub fn row(&self, i: usize) -> &[f64] {
        self.x.row(i)
    }

    /// One target.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// Index of a feature by name.
    pub fn feature_index(&self, name: &str) -> Option<usize> {
        self.feature_names.iter().position(|n| n == name)
    }

    /// Build a new dataset containing only the given row indices.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset {
            feature_names: self.feature_names.clone(),
            x: FeatureMatrix::with_capacity(self.n_features(), indices.len()),
            targets: Vec::with_capacity(indices.len()),
        };
        for &i in indices {
            out.x.push_row(self.x.row(i));
            out.targets.push(self.targets[i]);
        }
        out
    }

    /// Split into `(train, test)` with `test_fraction` of rows (rounded) going
    /// to the test set, shuffled by `rng`.
    pub fn train_test_split(&self, test_fraction: f64, rng: &mut Rng) -> (Dataset, Dataset) {
        let idx = SplitIndices::train_test(self.len(), test_fraction, rng);
        (self.subset(&idx.train), self.subset(&idx.test))
    }

    /// Mean of each feature column.
    pub fn feature_means(&self) -> Vec<f64> {
        let n = self.len().max(1) as f64;
        let mut means = vec![0.0; self.n_features()];
        for row in self.x.rows() {
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Mean of the target column.
    pub fn target_mean(&self) -> f64 {
        if self.targets.is_empty() {
            0.0
        } else {
            self.targets.iter().sum::<f64>() / self.targets.len() as f64
        }
    }
}

/// Train/test index sets.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitIndices {
    /// Row indices of the training partition.
    pub train: Vec<usize>,
    /// Row indices of the held-out partition.
    pub test: Vec<usize>,
}

impl SplitIndices {
    /// Random train/test split of `n` rows.
    pub fn train_test(n: usize, test_fraction: f64, rng: &mut Rng) -> SplitIndices {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let test_len = ((n as f64) * test_fraction.clamp(0.0, 1.0)).round() as usize;
        let test_len = test_len.min(n);
        SplitIndices {
            test: order[..test_len].to_vec(),
            train: order[test_len..].to_vec(),
        }
    }
}

/// Per-feature standardization (z-score) fitted on a training set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Scaler {
    /// Fit a scaler to a dataset's feature columns.
    pub fn fit(data: &Dataset) -> Scaler {
        let n = data.len().max(1) as f64;
        let means = data.feature_means();
        let mut vars = vec![0.0; data.n_features()];
        for row in data.matrix().rows() {
            for ((v, &x), &m) in vars.iter_mut().zip(row).zip(&means) {
                let d = x - m;
                *v += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Scaler { means, stds }
    }

    /// Transform one row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        for ((x, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
    }

    /// Transform a whole matrix into a standardized copy.
    pub fn transform_matrix(&self, x: &FeatureMatrix) -> FeatureMatrix {
        let mut out = x.clone();
        for i in 0..out.n_rows() {
            self.transform_row(out.row_mut(i));
        }
        out
    }

    /// Per-feature means captured at fit time.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-feature standard deviations captured at fit time.
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..10 {
            d.push(vec![i as f64, (i * 2) as f64], i as f64 * 3.0)
                .unwrap();
        }
        d
    }

    #[test]
    fn push_and_access() {
        let d = toy();
        assert_eq!(d.len(), 10);
        assert!(!d.is_empty());
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(3), &[3.0, 6.0]);
        assert_eq!(d.target(3), 9.0);
        assert_eq!(d.feature_index("b"), Some(1));
        assert_eq!(d.feature_index("z"), None);
        assert_eq!(d.feature_names(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn matrix_is_contiguous_row_major() {
        let d = toy();
        let x = d.matrix();
        assert_eq!(x.n_rows(), 10);
        assert_eq!(x.n_features(), 2);
        assert_eq!(x.values().len(), 20);
        assert_eq!(&x.values()[6..8], d.row(3));
        assert_eq!(x.get(3, 1), 6.0);
        assert_eq!(x.rows().len(), 10);
        let collected: Vec<&[f64]> = x.rows().collect();
        assert_eq!(collected[2], &[2.0, 4.0]);
    }

    #[test]
    fn matrix_add_row_constructs_in_place() {
        let mut x = FeatureMatrix::with_capacity(3, 2);
        assert!(x.is_empty());
        let row = x.add_row();
        assert_eq!(row, &[0.0, 0.0, 0.0]);
        row[1] = 5.0;
        assert_eq!(x.row(0), &[0.0, 5.0, 0.0]);
        x.push_row(&[1.0, 2.0, 3.0]);
        assert_eq!(x.n_rows(), 2);
        x.row_mut(1)[0] = 9.0;
        assert_eq!(x.get(1, 0), 9.0);
        x.set(1, 0, 7.0);
        assert_eq!(x.get(1, 0), 7.0);
        x.clear();
        assert_eq!(x.n_rows(), 0);
        assert_eq!(x.n_features(), 3);
        x.reset(1);
        assert_eq!(x.n_features(), 1);
    }

    #[test]
    fn zero_width_matrix_still_counts_rows() {
        let mut x = FeatureMatrix::new(0);
        x.push_row(&[]);
        let _ = x.add_row();
        assert_eq!(x.n_rows(), 2);
        assert_eq!(x.row(1), &[] as &[f64]);
        assert_eq!(x.rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn matrix_rejects_wrong_width_rows() {
        let mut x = FeatureMatrix::new(2);
        x.push_row(&[1.0]);
    }

    #[test]
    fn push_rejects_wrong_width() {
        let mut d = toy();
        assert_eq!(
            d.push(vec![1.0], 0.0),
            Err(DataError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
        assert!(format!("{}", DataError::Empty).contains("empty"));
    }

    #[test]
    fn subset_selects_rows() {
        let d = toy();
        let s = d.subset(&[0, 5, 9]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.row(1), &[5.0, 10.0]);
        assert_eq!(s.target(2), 27.0);
    }

    #[test]
    fn means_are_correct() {
        let d = toy();
        let means = d.feature_means();
        assert!((means[0] - 4.5).abs() < 1e-12);
        assert!((means[1] - 9.0).abs() < 1e-12);
        assert!((d.target_mean() - 13.5).abs() < 1e-12);
        assert_eq!(Dataset::new(vec!["x".into()]).target_mean(), 0.0);
    }

    #[test]
    fn train_test_split_covers_all_rows() {
        let d = toy();
        let mut rng = Rng::seed_from_u64(1);
        let (train, test) = d.train_test_split(0.3, &mut rng);
        assert_eq!(train.len() + test.len(), d.len());
        assert_eq!(test.len(), 3);
        // Deterministic per seed.
        let mut rng2 = Rng::seed_from_u64(1);
        let (train2, test2) = d.train_test_split(0.3, &mut rng2);
        assert_eq!(train.matrix(), train2.matrix());
        assert_eq!(test.targets(), test2.targets());
    }

    #[test]
    fn dataset_serde_roundtrips_nested_rows() {
        let d = toy();
        let restored = Dataset::deserialize_value(&d.serialize_value()).unwrap();
        assert_eq!(restored, d);
        // The serialized form is the canonical nested one.
        let v = d.serialize_value();
        let map = v.as_map().unwrap();
        let rows = serde::get_field(map, "rows").unwrap().as_seq().unwrap();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].as_seq().unwrap().len(), 2);
    }

    #[test]
    fn split_indices_extremes() {
        let mut rng = Rng::seed_from_u64(4);
        let all_test = SplitIndices::train_test(10, 1.0, &mut rng);
        assert_eq!(all_test.test.len(), 10);
        assert!(all_test.train.is_empty());
        let none_test = SplitIndices::train_test(10, 0.0, &mut rng);
        assert!(none_test.test.is_empty());
        assert_eq!(none_test.train.len(), 10);
        // Out-of-range fractions clamp.
        let clamped = SplitIndices::train_test(10, 7.0, &mut rng);
        assert_eq!(clamped.test.len(), 10);
    }

    #[test]
    fn scaler_standardizes_columns() {
        let d = toy();
        let scaler = Scaler::fit(&d);
        let scaled = scaler.transform_matrix(d.matrix());
        assert_eq!(scaled.n_rows(), 10);
        for col in 0..2 {
            // Mean ~ 0 and variance ~ 1 for each column.
            let mean: f64 = scaled.rows().map(|r| r[col]).sum::<f64>() / 10.0;
            assert!(mean.abs() < 1e-9, "mean {mean}");
            let var: f64 = scaled.rows().map(|r| r[col] * r[col]).sum::<f64>() / 10.0;
            assert!((var - 1.0).abs() < 1e-9, "var {var}");
        }
        assert_eq!(scaler.means().len(), 2);
        assert_eq!(scaler.stds().len(), 2);
        // The matrix-level transform agrees with the row-level one.
        let mut row = d.row(3).to_vec();
        scaler.transform_row(&mut row);
        assert_eq!(scaled.row(3), row.as_slice());
    }

    #[test]
    fn scaler_handles_constant_columns() {
        let mut d = Dataset::new(vec!["c".into()]);
        for _ in 0..5 {
            d.push(vec![7.0], 1.0).unwrap();
        }
        let scaler = Scaler::fit(&d);
        let mut row = [7.0];
        scaler.transform_row(&mut row);
        assert_eq!(row, [0.0]);
        // Constant column gets unit std to avoid division by zero.
        assert_eq!(scaler.stds(), &[1.0]);
    }
}
