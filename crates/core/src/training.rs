//! Offline model training.
//!
//! *"The model is trained offline using historical data collected from real
//! job executions."* The pipeline fits one model family on the
//! [`crate::ExecutionLogger`]'s dataset, after holding out a fraction of
//! its rows, and wraps it with its schema as a [`CompletionTimePredictor`].

use crate::features::FeatureSchema;
use crate::predictor::CompletionTimePredictor;
use mlcore::{Dataset, ModelKind, TrainedModel};
use simcore::Rng;

/// Configurable training pipeline.
#[derive(Debug, Clone)]
pub(crate) struct TrainingPipeline {
    /// Feature schema the dataset was constructed with.
    pub schema: FeatureSchema,
    /// Hyperparameters for every model family.
    pub model_config: mlcore::ModelConfig,
    /// Fraction of rows held out for evaluation.
    pub holdout_fraction: f64,
}

impl Default for TrainingPipeline {
    fn default() -> Self {
        TrainingPipeline {
            schema: FeatureSchema::standard(),
            model_config: mlcore::ModelConfig::default(),
            holdout_fraction: 0.25,
        }
    }
}

impl TrainingPipeline {
    /// Create a pipeline for a specific schema (e.g. an ablated one).
    pub(crate) fn with_schema(schema: FeatureSchema) -> Self {
        TrainingPipeline {
            schema,
            ..Default::default()
        }
    }

    /// Train one model family on the rows of `data` left after holding out
    /// `holdout_fraction` of them.
    #[expect(
        clippy::expect_used,
        reason = "the training pipeline builds dataset and schema from the same source"
    )]
    pub(crate) fn train_one(
        &self,
        kind: ModelKind,
        data: &Dataset,
        rng: &mut Rng,
    ) -> CompletionTimePredictor {
        let (train, _holdout) = data.train_test_split(self.holdout_fraction, rng);
        let model = TrainedModel::train(kind, &self.model_config, &train, rng);
        // The dataset is built from this pipeline's own schema, so the widths
        // agree by construction.
        CompletionTimePredictor::new(self.schema.clone(), model)
            .expect("training dataset width matches the pipeline schema")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logger::ExecutionLogger;
    use crate::request::JobRequest;
    use mlcore::{evaluate_on, GradientBoostingConfig, RandomForestConfig};
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
            model_config: mlcore::ModelConfig {
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
        let data = synthetic_logger(500, 1).to_dataset();
        let holdout = synthetic_logger(125, 7).to_dataset();
        let mut rng = Rng::seed_from_u64(2);
        for kind in ModelKind::ALL {
            let predictor = fast_pipeline().train_one(kind, &data, &mut rng);
            assert_eq!(predictor.model_kind(), kind);
            let train_r2 = evaluate_on(predictor.model(), &data).r2;
            let holdout_r2 = evaluate_on(predictor.model(), &holdout).r2;
            assert!(holdout_r2 > 0.75, "{kind}: holdout r2 {holdout_r2}");
            assert!(train_r2 >= holdout_r2 - 0.2);
        }
    }

    #[test]
    fn with_schema_uses_custom_schema() {
        let schema = FeatureSchema::with_groups(&[crate::features::FeatureGroup::Job]);
        let pipeline = TrainingPipeline::with_schema(schema.clone());
        assert_eq!(pipeline.schema.len(), schema.len());
    }
}
