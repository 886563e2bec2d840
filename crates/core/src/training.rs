//! Offline model training.
//!
//! *"The model is trained offline using historical data collected from real
//! job executions."* The pipeline turns the [`crate::logger::ExecutionLogger`]
//! records into an `mlcore` dataset, fits one model per requested family and
//! reports held-out accuracy, which is what the experiment harness uses to
//! populate Table 4.

use crate::features::FeatureSchema;
use crate::logger::ExecutionLogger;
use crate::predictor::CompletionTimePredictor;
use mlcore::{evaluate_on, Dataset, ModelKind, RegressionMetrics, TrainedModel};
use simcore::rng::Rng;

/// Result of training one model family.
#[derive(Debug, Clone)]
pub struct TrainingOutcome {
    /// Which family was trained.
    pub kind: ModelKind,
    /// The trained predictor (schema + model).
    pub predictor: CompletionTimePredictor,
    /// Metrics on the held-out fraction.
    pub holdout_metrics: RegressionMetrics,
    /// Metrics on the training fraction (to expose over/under-fitting).
    pub train_metrics: RegressionMetrics,
    /// Number of training rows used.
    pub train_rows: usize,
    /// Number of held-out rows used.
    pub holdout_rows: usize,
}

/// Configurable training pipeline.
#[derive(Debug, Clone)]
pub struct TrainingPipeline {
    /// Feature schema the dataset was constructed with.
    pub schema: FeatureSchema,
    /// Hyperparameters for every model family.
    pub model_config: mlcore::model::ModelConfig,
    /// Fraction of rows held out for evaluation.
    pub holdout_fraction: f64,
}

impl Default for TrainingPipeline {
    fn default() -> Self {
        TrainingPipeline {
            schema: FeatureSchema::standard(),
            model_config: mlcore::model::ModelConfig::default(),
            holdout_fraction: 0.25,
        }
    }
}

impl TrainingPipeline {
    /// Create a pipeline for a specific schema (e.g. an ablated one).
    pub fn with_schema(schema: FeatureSchema) -> Self {
        TrainingPipeline {
            schema,
            ..Default::default()
        }
    }

    /// Train one model family on a dataset.
    #[expect(
        clippy::expect_used,
        reason = "the training pipeline builds dataset and schema from the same source"
    )]
    pub fn train_one(&self, kind: ModelKind, data: &Dataset, rng: &mut Rng) -> TrainingOutcome {
        let (train, holdout) = data.train_test_split(self.holdout_fraction, rng);
        let model = TrainedModel::train(kind, &self.model_config, &train, rng);
        let train_metrics = evaluate_on(&model, &train);
        let holdout_metrics = if holdout.is_empty() {
            train_metrics
        } else {
            evaluate_on(&model, &holdout)
        };
        TrainingOutcome {
            kind,
            // The dataset is built from this pipeline's own schema, so the
            // widths agree by construction.
            predictor: CompletionTimePredictor::new(self.schema.clone(), model)
                .expect("training dataset width matches the pipeline schema"),
            holdout_metrics,
            train_metrics,
            train_rows: train.len(),
            holdout_rows: holdout.len(),
        }
    }

    /// Train every model family on the logger's records.
    pub fn train_from_logger(
        &self,
        logger: &ExecutionLogger,
        rng: &mut Rng,
    ) -> Vec<TrainingOutcome> {
        let data = logger.to_dataset();
        ModelKind::ALL
            .iter()
            .map(|&kind| self.train_one(kind, &data, rng))
            .collect()
    }
}

/// Convenience function: train all three paper models on a logger's records
/// with the default pipeline.
pub fn train_all_models(logger: &ExecutionLogger, rng: &mut Rng) -> Vec<TrainingOutcome> {
    TrainingPipeline::default().train_from_logger(logger, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::JobRequest;
    use mlcore::{GradientBoostingConfig, RandomForestConfig};
    use simcore::SimTime;
    use sparksim::WorkloadKind;
    use telemetry::{ClusterSnapshot, NodeTelemetry};

    /// Build a logger whose records follow a learnable pattern: completion
    /// time grows with cpu load and rtt.
    fn synthetic_logger(n: usize, seed: u64) -> ExecutionLogger {
        let mut logger = ExecutionLogger::default();
        let mut rng = Rng::seed_from_u64(seed);
        for i in 0..n {
            let load = rng.uniform(0.0, 5.0);
            let rtt = rng.uniform(0.001, 0.08);
            let mut snap = ClusterSnapshot::at(SimTime::from_secs(i as u64));
            snap.insert_node(
                "node-1",
                NodeTelemetry {
                    cpu_load: load,
                    memory_available_bytes: rng.uniform(2e9, 7e9),
                    tx_rate: rng.uniform(0.0, 5e6),
                    rx_rate: rng.uniform(0.0, 5e6),
                },
            );
            snap.insert_rtt("node-1", "node-2", rtt);
            let kind = *rng.choose(&WorkloadKind::PAPER_SET).unwrap();
            let records = 50_000 + rng.gen_range(200_000);
            let request = JobRequest::named(format!("job-{i}"), kind, records, 2);
            let duration =
                15.0 + 6.0 * load + 300.0 * rtt + records as f64 / 20_000.0 + rng.normal(0.0, 0.5);
            logger.log_execution(&snap, &request, "node-1", duration);
        }
        logger
    }

    fn fast_pipeline() -> TrainingPipeline {
        TrainingPipeline {
            model_config: mlcore::model::ModelConfig {
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
            },
            ..Default::default()
        }
    }

    #[test]
    fn trains_all_three_families_with_good_holdout_fit() {
        let logger = synthetic_logger(500, 1);
        let mut rng = Rng::seed_from_u64(2);
        let outcomes = fast_pipeline().train_from_logger(&logger, &mut rng);
        assert_eq!(outcomes.len(), 3);
        for outcome in &outcomes {
            assert!(outcome.train_rows > 0 && outcome.holdout_rows > 0);
            assert!(
                outcome.holdout_metrics.r2 > 0.75,
                "{}: holdout r2 {}",
                outcome.kind,
                outcome.holdout_metrics.r2
            );
            assert!(outcome.train_metrics.r2 >= outcome.holdout_metrics.r2 - 0.2);
            assert_eq!(outcome.predictor.model_kind(), outcome.kind);
        }
        // The three families are distinct.
        let kinds: std::collections::BTreeSet<String> =
            outcomes.iter().map(|o| format!("{}", o.kind)).collect();
        assert_eq!(kinds.len(), 3);
    }

    #[test]
    fn train_all_models_helper_works() {
        let logger = synthetic_logger(120, 3);
        let mut rng = Rng::seed_from_u64(4);
        let outcomes = train_all_models(&logger, &mut rng);
        assert_eq!(outcomes.len(), 3);
    }

    #[test]
    fn zero_holdout_fraction_evaluates_on_train() {
        let logger = synthetic_logger(80, 5);
        let mut rng = Rng::seed_from_u64(6);
        let pipeline = TrainingPipeline {
            holdout_fraction: 0.0,
            ..fast_pipeline()
        };
        let data = logger.to_dataset();
        let outcome = pipeline.train_one(ModelKind::Linear, &data, &mut rng);
        assert_eq!(outcome.holdout_rows, 0);
        assert_eq!(outcome.holdout_metrics, outcome.train_metrics);
    }

    #[test]
    fn with_schema_uses_custom_schema() {
        let schema = FeatureSchema::with_groups(&[crate::features::FeatureGroup::Job]);
        let pipeline = TrainingPipeline::with_schema(schema.clone());
        assert_eq!(pipeline.schema.len(), schema.len());
    }
}
