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

use crate::features::{FeatureSchema, FeatureVector};
use crate::request::JobRequest;
use mlcore::{FeatureMatrix, ModelKind, Regressor, TrainedModel};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use telemetry::ClusterSnapshot;

/// The identity of one trained model, for consumers that cache anything
/// derived from its predictions (the decision view's stage-one scoreboards).
/// Every predictor built by [`CompletionTimePredictor::new`] — which covers
/// training, retraining and loading from an archive — gets a version no other
/// predictor in the process has; `Clone` keeps it, because a clone *is* the
/// same model. It is never serialised. Unlike an address it survives moves and
/// cannot be reused: `SupervisedScheduler::set_predictor` overwrites the old
/// model in place, at the same address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelVersion(u64);

impl ModelVersion {
    fn fresh() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        // ordering: Relaxed — the counter only hands out distinct stamps; no
        // memory is published through it.
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
    /// [`CompletionTimePredictor::signature_cells`]. Derived state — not
    /// serialized, rebuilt on load.
    signature_grid: Vec<Vec<f64>>,
    /// Stamped at construction, kept by `Clone`, never serialized.
    version: ModelVersion,
}

/// The serialized form: schema + model only — the signature grid is derived
/// state, rebuilt by [`CompletionTimePredictor::new`] on load. Field names
/// match the predictor's own, so archives saved before the grid existed load
/// unchanged.
#[derive(Serialize, Deserialize)]
struct PredictorArchive {
    schema: FeatureSchema,
    model: TrainedModel,
}

impl Serialize for CompletionTimePredictor {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                serde::Value::Str("schema".into()),
                self.schema.serialize_value(),
            ),
            (
                serde::Value::Str("model".into()),
                self.model.serialize_value(),
            ),
        ])
    }
}

impl Deserialize for CompletionTimePredictor {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let archive = PredictorArchive::deserialize_value(v)?;
        CompletionTimePredictor::new(archive.schema, archive.model)
            .map_err(|e| serde::Error::custom(e.to_string()))
    }
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
    pub fn version(&self) -> ModelVersion {
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

    /// Predict the completion time (seconds) of `job` if its driver were
    /// placed on `candidate_node`. Negative predictions are clamped to 0; a
    /// NaN stays NaN, so the ranking puts that node last.
    pub fn predict(
        &self,
        snapshot: &ClusterSnapshot,
        candidate_node: &str,
        job: &JobRequest,
    ) -> f64 {
        let features = self.schema.construct(snapshot, candidate_node, job);
        self.predict_from_features(&features)
    }

    /// Predict directly from an already constructed feature vector.
    pub fn predict_from_features(&self, features: &FeatureVector) -> f64 {
        clamp_non_negative(self.model.predict_row(features))
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

    /// Predict for every candidate node via one batch inference call,
    /// constructing the candidate × feature matrix into `matrix` (reused
    /// across decisions).
    pub fn predict_batch(
        &self,
        snapshot: &ClusterSnapshot,
        candidates: &[String],
        job: &JobRequest,
        matrix: &mut FeatureMatrix,
        out: &mut Vec<f64>,
    ) {
        self.schema
            .construct_batch_into(matrix, snapshot, candidates, job);
        self.predict_batch_into(matrix, out);
    }

    /// Serialize (schema + model) to JSON for persistence.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("predictor serialization cannot fail")
    }

    /// Load a predictor previously saved with [`CompletionTimePredictor::to_json`].
    /// The schema/model width check is re-applied, so a tampered archive
    /// cannot smuggle in a mismatched pair.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
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
    use crate::features::FeatureGroup;
    use mlcore::{Dataset, ModelConfig, RandomForestConfig};
    use simcore::rng::Rng;
    use simcore::SimTime;
    use sparksim::WorkloadKind;
    use telemetry::NodeTelemetry;

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

    /// Train a predictor on synthetic data where completion time grows with
    /// the candidate's CPU load — so the fitted model should prefer idle nodes.
    fn trained_predictor(kind: ModelKind) -> CompletionTimePredictor {
        let schema = FeatureSchema::standard();
        let mut data = Dataset::new(schema.names().to_vec());
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
            let busy = predictor.predict(&snap, "node-1", &job);
            let idle = predictor.predict(&snap, "node-2", &job);
            assert!(busy > idle, "{kind}: busy {busy} should exceed idle {idle}");
            let (mut matrix, mut all) = (FeatureMatrix::new(0), Vec::new());
            let candidates = ["node-1".to_string(), "node-2".to_string()];
            predictor.predict_batch(&snap, &candidates, &job, &mut matrix, &mut all);
            assert_eq!(all, vec![busy, idle]);
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
        // A tampered archive fails the same check on load.
        let mut sabotaged = CompletionTimePredictor {
            schema: narrow,
            model: predictor.model().clone(),
            signature_grid: Vec::new(),
            version: ModelVersion::fresh(),
        };
        let json = sabotaged.to_json();
        assert!(CompletionTimePredictor::from_json(&json).is_err());
        // An unfitted model has no fitted width and pairs with any schema.
        sabotaged.model = TrainedModel::train(
            ModelKind::Linear,
            &ModelConfig::default(),
            &Dataset::new(vec!["x".into()]),
            &mut Rng::seed_from_u64(1),
        );
        assert!(CompletionTimePredictor::new(sabotaged.schema, sabotaged.model).is_ok());
    }

    #[test]
    fn predictions_are_never_negative() {
        let predictor = trained_predictor(ModelKind::Linear);
        let job = JobRequest::named("sort", WorkloadKind::Sort, 1, 1);
        // An absurd snapshot far outside the training distribution.
        let snap = snapshot_with(-100.0, -100.0);
        assert!(predictor.predict(&snap, "node-1", &job) >= 0.0);
        let (mut matrix, mut batch) = (FeatureMatrix::new(0), Vec::new());
        let candidates = ["node-1".to_string(), "node-2".to_string()];
        predictor.predict_batch(&snap, &candidates, &job, &mut matrix, &mut batch);
        assert!(batch.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let predictor = trained_predictor(ModelKind::RandomForest);
        let json = predictor.to_json();
        let restored = CompletionTimePredictor::from_json(&json).unwrap();
        assert_eq!(restored.model_kind(), ModelKind::RandomForest);
        assert_eq!(restored.schema().len(), predictor.schema().len());
        let job = JobRequest::named("sort", WorkloadKind::Sort, 100_000, 2);
        let snap = snapshot_with(3.0, 1.0);
        assert_eq!(
            predictor.predict(&snap, "node-1", &job),
            restored.predict(&snap, "node-1", &job)
        );
        assert!(CompletionTimePredictor::from_json("{").is_err());
        // A loaded model is a new model as far as caches are concerned; a
        // clone is the same one.
        assert_ne!(restored.version(), predictor.version());
        assert_eq!(predictor.clone().version(), predictor.version());
        assert!(!json.contains("version"));
    }

    #[test]
    fn predict_from_features_matches_predict() {
        let predictor = trained_predictor(ModelKind::Linear);
        let job = JobRequest::named("sort", WorkloadKind::Sort, 100_000, 2);
        let snap = snapshot_with(2.0, 0.5);
        let features = predictor.schema().construct(&snap, "node-1", &job);
        assert_eq!(
            predictor.predict(&snap, "node-1", &job),
            predictor.predict_from_features(&features)
        );
        assert!(predictor.model().predict_row(&features).is_finite());
    }

    /// A NaN goes right at every split, like a value above every threshold
    /// and unlike one below them all: it must share a cell with the first
    /// and not the second, because equal cells promise equal predictions.
    #[test]
    fn a_nan_feature_shares_a_cell_only_with_rows_that_predict_like_it() {
        let job = JobRequest::named("sort", WorkloadKind::Sort, 100_000, 2);
        for kind in [ModelKind::RandomForest, ModelKind::GradientBoosting] {
            let predictor = trained_predictor(kind);
            let column = predictor.schema().index_of("cpu_load").unwrap();
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
            let predict = |row: &FeatureVector| predictor.predict_from_features(row).to_bits();
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
            let candidates: Vec<String> = vec!["node-1".into(), "node-2".into(), "node-99".into()];
            let mut matrix = FeatureMatrix::new(predictor.schema().len());
            let mut batch = Vec::new();
            predictor.predict_batch(&snap, &candidates, &job, &mut matrix, &mut batch);
            assert_eq!(batch.len(), 3);
            for (candidate, &b) in candidates.iter().zip(&batch) {
                assert_eq!(b, predictor.predict(&snap, candidate, &job), "{candidate}");
            }
            // Empty candidate set produces an empty batch.
            predictor.predict_batch(&snap, &[], &job, &mut matrix, &mut batch);
            assert!(batch.is_empty());
        }
    }
}
