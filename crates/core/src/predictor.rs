//! The supervised completion-time predictor.
//!
//! Wraps a trained `mlcore` model together with the feature schema it was
//! trained on, so callers can go straight from (telemetry snapshot, candidate
//! node, job request) to a predicted completion time in seconds. The
//! constructor is the feature-width boundary: a schema whose column count
//! does not match the model's fitted feature count is rejected loudly
//! instead of silently predicting from zero-padded or truncated rows.
//!
//! Inference is batch-first: [`CompletionTimePredictor::predict_batch_into`]
//! streams a whole candidate batch (one contiguous [`FeatureMatrix`]) through
//! the model's flat-tree kernels in one call.

use crate::features::FeatureSchema;
use mlcore::{FeatureMatrix, ModelKind, TrainedModel};
use std::fmt;

/// The identity of one trained model, for consumers that cache anything
/// derived from its predictions (the decision view's stage-one scoreboards).
/// Every predictor built by [`CompletionTimePredictor::new`] — which covers
/// training and retraining — gets a version no other predictor in the process
/// has; `Clone` keeps it, because a clone *is* the same model. Unlike an
/// address it survives moves and cannot be reused:
/// `SchedulerService::retrain` overwrites the old model in place, at the same
/// address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelVersion(u64);

impl ModelVersion {
    #[expect(
        clippy::disallowed_types,
        reason = "ordering: Relaxed — the counter only hands out distinct stamps; no memory is published through it"
    )]
    fn fresh() -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        ModelVersion(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// Errors raised when assembling a predictor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictorError {
    /// The schema's column count does not match the model's fitted width.
    SchemaMismatch {
        /// Number of columns in the feature schema.
        schema_features: usize,
        /// Number of features the model was fitted on.
        model_features: usize,
    },
}

impl fmt::Display for PredictorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorError::SchemaMismatch {
                schema_features,
                model_features,
            } => write!(
                f,
                "feature schema has {schema_features} columns but the model was fitted on \
                 {model_features} features"
            ),
        }
    }
}

impl std::error::Error for PredictorError {}

/// A trained model plus its feature schema.
#[derive(Debug, Clone)]
pub struct CompletionTimePredictor {
    schema: FeatureSchema,
    model: TrainedModel,
    /// The model's split thresholds per schema column (sorted, deduplicated;
    /// no columns for a linear model), cached at construction for
    /// [`CompletionTimePredictor::signature_cells`].
    signature_grid: Vec<Vec<f64>>,
    /// Stamped at construction, kept by `Clone`.
    version: ModelVersion,
}

impl CompletionTimePredictor {
    /// Wrap a trained model with the schema its training features used.
    ///
    /// Fails when the schema width disagrees with the model's fitted feature
    /// count — the boundary check that lets the prediction hot path index
    /// rows directly instead of zero-padding malformed vectors. A model that
    /// was never successfully fitted (it predicts a constant 0) has no fitted
    /// width and pairs with any schema.
    pub fn new(schema: FeatureSchema, model: TrainedModel) -> Result<Self, PredictorError> {
        if let Some(model_features) = model.n_features() {
            if model_features != schema.len() {
                return Err(PredictorError::SchemaMismatch {
                    schema_features: schema.len(),
                    model_features,
                });
            }
        }
        // A linear prediction moves with every column's value, so its cells
        // are the values themselves: an empty grid leaves the row unchanged.
        let signature_grid = match model.kind() {
            ModelKind::Linear => Vec::new(),
            _ => model.split_grid(schema.len()),
        };
        Ok(CompletionTimePredictor {
            schema,
            model,
            signature_grid,
            version: ModelVersion::fresh(),
        })
    }

    /// This model's process-unique identity (see [`ModelVersion`]).
    pub(crate) fn version(&self) -> ModelVersion {
        self.version
    }

    /// Collapse a feature row to the model's partition-cell coordinates in
    /// place. For a tree ensemble each value becomes the index of the
    /// inter-threshold cell it falls in on that column, NaN the last one
    /// (a NaN goes right at every split, like a value above every
    /// threshold); a linear model's row is left unchanged, so its cell is the
    /// exact feature values. Either way, rows with identical cell coordinates
    /// receive **identical predictions**, bit for bit, from every model
    /// family — which is what lets every job of one cell share one
    /// scoreboard, and a budgeted decision read its ranking off it.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn signature_cells(&self, row: &mut [f64]) {
        for (value, thresholds) in row.iter_mut().zip(&self.signature_grid) {
            // A value's cell counts the sorted thresholds the walk's own test,
            // `!(x <= t)`, sends it right at — every one of them for NaN.
            *value = thresholds.partition_point(|t| !(*value <= *t)) as f64;
        }
    }

    /// The feature schema.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// The model family.
    pub fn model_kind(&self) -> ModelKind {
        self.model.kind()
    }

    /// Access the underlying model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// Batch inference: predict one completion time per row of `features`
    /// into a reused output buffer (cleared and refilled), negatives clamped
    /// to 0 and NaN kept. One call walks the whole candidate batch through the
    /// model's flat-tree kernels.
    pub fn predict_batch_into(&self, features: &FeatureMatrix, out: &mut Vec<f64>) {
        self.model.predict_into(features, out);
        for v in out.iter_mut() {
            *v = clamp_non_negative(*v);
        }
    }
}

/// A completion time can't be negative, so negative predictions become 0. A
/// NaN prediction (a model fed a NaN telemetry value) stays NaN: `f64::max`
/// would turn it into 0 s, the best score in the cluster, while NaN ranks
/// after every number in `DecisionModule::rank_into`.
fn clamp_non_negative(v: f64) -> f64 {
    if v.is_nan() {
        v
    } else {
        v.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{Column, FeatureGroup};
    use crate::request::JobRequest;
    use mlcore::{Dataset, ModelConfig, RandomForestConfig};
    use simcore::{Rng, SimTime};
    use sparksim::WorkloadKind;
    use telemetry::{ClusterSnapshot, NodeTelemetry};

    fn snapshot_with(load1: f64, load2: f64) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(10));
        for (name, load) in [("node-1", load1), ("node-2", load2)] {
            snap.insert_node(
                name,
                NodeTelemetry {
                    cpu_load: load,
                    memory_available_bytes: 6e9,
                    tx_rate: 0.0,
                    rx_rate: 0.0,
                },
            );
        }
        snap.insert_rtt("node-1", "node-2", 0.01);
        snap.insert_rtt("node-2", "node-1", 0.01);
        snap
    }

    /// Batch-predict `candidates` through one matrix built row by row with
    /// [`FeatureSchema::construct_into_matrix`], as the scheduling context
    /// does.
    fn predict_rows(
        predictor: &CompletionTimePredictor,
        snap: &ClusterSnapshot,
        candidates: &[&str],
        job: &JobRequest,
    ) -> Vec<f64> {
        let schema = predictor.schema();
        let mut matrix = FeatureMatrix::new(schema.len());
        for &candidate in candidates {
            let node = snap.node(candidate).copied().unwrap_or_default();
            schema.construct_into_matrix(&mut matrix, &node, snap.rtt_stats_from(candidate), job);
        }
        let mut out = Vec::new();
        predictor.predict_batch_into(&matrix, &mut out);
        out
    }

    /// Predict one already constructed row through a one-row batch.
    fn predict_row(predictor: &CompletionTimePredictor, row: &[f64]) -> f64 {
        let mut matrix = FeatureMatrix::new(row.len());
        matrix.push_row(row);
        let mut out = Vec::new();
        predictor.predict_batch_into(&matrix, &mut out);
        out[0]
    }

    /// Train a predictor on synthetic data where completion time grows with
    /// the candidate's CPU load — so the fitted model should prefer idle nodes.
    fn trained_predictor(kind: ModelKind) -> CompletionTimePredictor {
        let schema = FeatureSchema::standard();
        let mut data = Dataset::new(schema.len());
        let mut rng = Rng::seed_from_u64(7);
        let job = JobRequest::named("sort", WorkloadKind::Sort, 100_000, 2);
        for _ in 0..400 {
            let load = rng.uniform(0.0, 6.0);
            let snap = snapshot_with(load, 0.0);
            let features = schema.construct(&snap, "node-1", &job);
            let duration = 20.0 + 5.0 * load + rng.normal(0.0, 0.2);
            data.push(features, duration).unwrap();
        }
        let config = ModelConfig {
            forest: RandomForestConfig {
                n_trees: 30,
                workers: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let model = TrainedModel::train(kind, &config, &data, &mut rng);
        CompletionTimePredictor::new(schema, model).expect("schema matches training data")
    }

    #[test]
    fn predicts_longer_times_on_loaded_nodes() {
        for kind in [ModelKind::Linear, ModelKind::RandomForest] {
            let predictor = trained_predictor(kind);
            assert_eq!(predictor.model_kind(), kind);
            let job = JobRequest::named("sort", WorkloadKind::Sort, 100_000, 2);
            let snap = snapshot_with(5.0, 0.2);
            let all = predict_rows(&predictor, &snap, &["node-1", "node-2"], &job);
            let (busy, idle) = (all[0], all[1]);
            assert!(busy > idle, "{kind}: busy {busy} should exceed idle {idle}");
        }
    }

    #[test]
    fn mismatched_schema_is_rejected_at_construction() {
        let predictor = trained_predictor(ModelKind::Linear);
        let narrow = FeatureSchema::with_groups(&[FeatureGroup::Node]);
        let err = CompletionTimePredictor::new(narrow.clone(), predictor.model().clone())
            .expect_err("2-column schema cannot drive a 17-feature model");
        assert_eq!(
            err,
            PredictorError::SchemaMismatch {
                schema_features: narrow.len(),
                model_features: FeatureSchema::standard().len(),
            }
        );
        assert!(err.to_string().contains("fitted on"));
        // An unfitted model has no fitted width and pairs with any schema.
        let unfitted = TrainedModel::train(
            ModelKind::Linear,
            &ModelConfig::default(),
            &Dataset::new(1),
            &mut Rng::seed_from_u64(1),
        );
        assert!(CompletionTimePredictor::new(narrow, unfitted).is_ok());
    }

    #[test]
    fn predictions_are_never_negative() {
        let predictor = trained_predictor(ModelKind::Linear);
        let job = JobRequest::named("sort", WorkloadKind::Sort, 1, 1);
        // An absurd snapshot far outside the training distribution.
        let snap = snapshot_with(-100.0, -100.0);
        let batch = predict_rows(&predictor, &snap, &["node-1", "node-2"], &job);
        assert!(batch.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn rewrapping_a_model_stamps_a_new_version() {
        let predictor = trained_predictor(ModelKind::RandomForest);
        let rewrapped =
            CompletionTimePredictor::new(predictor.schema().clone(), predictor.model().clone())
                .unwrap();
        let job = JobRequest::named("sort", WorkloadKind::Sort, 100_000, 2);
        let snap = snapshot_with(3.0, 1.0);
        let candidates = ["node-1", "node-2", "node-99"];
        assert_eq!(
            predict_rows(&predictor, &snap, &candidates, &job),
            predict_rows(&rewrapped, &snap, &candidates, &job)
        );
        // A rewrapped model is a new model as far as caches are concerned; a
        // clone is the same one.
        assert_ne!(rewrapped.version(), predictor.version());
        assert_eq!(predictor.clone().version(), predictor.version());
    }

    /// A NaN goes right at every split, like a value above every threshold
    /// and unlike one below them all: it must share a cell with the first
    /// and not the second, because equal cells promise equal predictions.
    #[test]
    fn a_nan_feature_shares_a_cell_only_with_rows_that_predict_like_it() {
        let job = JobRequest::named("sort", WorkloadKind::Sort, 100_000, 2);
        for kind in [ModelKind::RandomForest, ModelKind::GradientBoosting] {
            let predictor = trained_predictor(kind);
            let column = predictor.schema().position(Column::CpuLoad).unwrap();
            let thresholds = &predictor.signature_grid[column];
            assert!(!thresholds.is_empty(), "{kind}: the load column must split");
            let base = predictor
                .schema()
                .construct(&snapshot_with(1.0, 0.0), "node-1", &job);
            let with_load = |load: f64| {
                let mut row = base.clone();
                row[column] = load;
                row
            };
            let nan = with_load(f64::NAN);
            let below = with_load(thresholds[0] - 1.0);
            let above = with_load(thresholds[thresholds.len() - 1] + 1.0);
            let predict = |row: &Vec<f64>| predict_row(&predictor, row).to_bits();
            assert_ne!(predict(&nan), predict(&below), "{kind}: NaN goes right");
            for other in [below, above] {
                let (mut nan_cells, mut other_cells) = (nan.clone(), other.clone());
                predictor.signature_cells(&mut nan_cells);
                predictor.signature_cells(&mut other_cells);
                assert_eq!(
                    nan_cells == other_cells,
                    predict(&nan) == predict(&other),
                    "{kind}: NaN vs load {}",
                    other[column]
                );
            }
        }
        // A linear model's cell is the row itself.
        let linear = trained_predictor(ModelKind::Linear);
        let row = linear
            .schema()
            .construct(&snapshot_with(1.0, 0.0), "node-1", &job);
        let mut cells = row.clone();
        linear.signature_cells(&mut cells);
        assert_eq!(cells, row);
    }

    #[test]
    fn batch_inference_is_bit_identical_to_per_candidate_predictions() {
        for kind in ModelKind::ALL {
            let predictor = trained_predictor(kind);
            let job = JobRequest::named("sort", WorkloadKind::Sort, 100_000, 2);
            let snap = snapshot_with(4.0, 0.5);
            let candidates = ["node-1", "node-2", "node-99"];
            let batch = predict_rows(&predictor, &snap, &candidates, &job);
            assert_eq!(batch.len(), 3);
            for (candidate, &b) in candidates.iter().zip(&batch) {
                let alone = predict_rows(&predictor, &snap, &[candidate], &job);
                assert_eq!(alone, [b], "{candidate}");
            }
            // Empty candidate set produces an empty batch.
            assert!(predict_rows(&predictor, &snap, &[], &job).is_empty());
        }
    }
}
