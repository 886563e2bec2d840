//! Model validation: held-out evaluation.

use crate::data::Dataset;
use crate::metrics::RegressionMetrics;
use crate::model::TrainedModel;

/// Evaluate an already fitted model on a dataset.
pub fn evaluate_on(model: &TrainedModel, data: &Dataset) -> RegressionMetrics {
    RegressionMetrics::compute(&model.predict(data), data.targets())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestConfig;
    use crate::gbdt::GradientBoostingConfig;
    use crate::model::{ModelConfig, ModelKind};
    use simcore::Rng;

    fn dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut d = Dataset::new(2);
        for _ in 0..n {
            let x1 = rng.uniform(0.0, 5.0);
            let x2 = rng.uniform(0.0, 5.0);
            d.push(vec![x1, x2], 3.0 * x1 - x2 + rng.normal(0.0, 0.1))
                .unwrap();
        }
        d
    }

    fn fast_config() -> ModelConfig {
        ModelConfig {
            forest: RandomForestConfig {
                n_trees: 20,
                workers: 2,
                ..Default::default()
            },
            gbdt: GradientBoostingConfig {
                n_rounds: 40,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn evaluate_on_matches_direct_computation() {
        let data = dataset(150, 5);
        let mut rng = Rng::seed_from_u64(6);
        let model = TrainedModel::train(ModelKind::Linear, &fast_config(), &data, &mut rng);
        let via_helper = evaluate_on(&model, &data);
        let direct = RegressionMetrics::compute(&model.predict(&data), data.targets());
        assert_eq!(via_helper, direct);
    }
}
