//! Ablation studies over the scheduler's design choices.
//!
//! 1. **Feature groups** — drop the Network / Node / Job feature groups from
//!    Table 1 and measure how Top-1/Top-2 accuracy degrades (this is the
//!    quantitative version of the paper's "network-awareness matters" claim).
//! 2. **Model capacity** — sweep the random-forest size.
//! 3. **Background-load intensity** — vary the number of contention pods,
//!    regenerate the dataset and re-evaluate, probing how much learnable
//!    signal the contention process creates.
//!
//! Every variant ranks its held-out scenarios through
//! [`supervised_ranking`], the scheduler service's own ranker, and is scored
//! like Table 4.

use crate::evaluation::{accuracy_from, supervised_ranking, MethodRankings};
use crate::workflow::{ExperimentConfig, ExperimentDataset, ScenarioRecord, Workflow};
use mlcore::{ModelConfig, ModelKind, RandomForestConfig, TrainedModel};
use netsched_core::{CompletionTimePredictor, FeatureGroup, FeatureSchema};
use simcore::Rng;

/// Accuracy of one ablation variant.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label (e.g. `full`, `no-network`, `trees=10`).
    pub variant: String,
    /// Top-1 accuracy.
    pub top1: f64,
    /// Top-2 accuracy.
    pub top2: f64,
    /// Held-out scenarios evaluated.
    pub evaluated: usize,
}

/// Render ablation rows as a markdown table.
pub fn ablation_markdown(title: &str, rows: &[AblationRow]) -> String {
    let mut out =
        format!("### {title}\n\n| Variant | Top-1 | Top-2 | Scenarios |\n|---|---|---|---|\n");
    for row in rows {
        out.push_str(&format!(
            "| {} | {:.3} | {:.3} | {} |\n",
            row.variant, row.top1, row.top2, row.evaluated
        ));
    }
    out
}

/// Evaluate Top-1/Top-2 of one model trained with a specific schema over the
/// dataset's scenarios (scenario-level train/test split).
#[expect(
    clippy::expect_used,
    reason = "feature rows and the predictor share one schema by construction; a width mismatch is a bug worth aborting the experiment"
)]
fn evaluate_with_schema(
    dataset: &ExperimentDataset,
    schema: &FeatureSchema,
    kind: ModelKind,
    model_config: &ModelConfig,
    test_fraction: f64,
    seed: u64,
) -> AblationRow {
    let mut rng = Rng::seed_from_u64(seed);
    let (train_idx, test_idx) = dataset.split_scenarios(test_fraction, &mut rng);

    // Build the training matrix under the restricted schema.
    let mut train = mlcore::Dataset::new(schema.len());
    for &idx in &train_idx {
        let scenario = &dataset.scenarios[idx];
        let request = scenario.request();
        for outcome in &scenario.outcomes {
            let features = schema.construct(&scenario.snapshot, &outcome.node, &request);
            train
                .push(features, outcome.completion_seconds)
                .expect("schema width");
        }
    }
    let model = TrainedModel::train(kind, model_config, &train, &mut rng);
    let predictor = CompletionTimePredictor::new(schema.clone(), model)
        .expect("the model was trained on this schema");

    let cluster = dataset.testbed.build().cluster;
    let scenarios: Vec<&ScenarioRecord> = test_idx.iter().map(|&i| &dataset.scenarios[i]).collect();
    let rankings = MethodRankings {
        method: String::new(),
        rankings: scenarios
            .iter()
            .map(|scenario| supervised_ranking(&predictor, scenario, &cluster))
            .collect(),
    };
    let accuracy = accuracy_from(&rankings, &scenarios);
    AblationRow {
        variant: String::new(),
        top1: accuracy.top1,
        top2: accuracy.top2,
        evaluated: accuracy.evaluated,
    }
}

/// Ablation 1: drop feature groups and re-evaluate a random forest.
pub fn feature_group_ablation(
    dataset: &ExperimentDataset,
    model_config: &ModelConfig,
    test_fraction: f64,
    seed: u64,
) -> Vec<AblationRow> {
    let variants: Vec<(&str, Vec<FeatureGroup>)> = vec![
        (
            "full (network + node + job)",
            vec![FeatureGroup::Network, FeatureGroup::Node, FeatureGroup::Job],
        ),
        (
            "no network telemetry",
            vec![FeatureGroup::Node, FeatureGroup::Job],
        ),
        (
            "no node telemetry",
            vec![FeatureGroup::Network, FeatureGroup::Job],
        ),
        (
            "no job configuration",
            vec![FeatureGroup::Network, FeatureGroup::Node],
        ),
        ("network telemetry only", vec![FeatureGroup::Network]),
        ("job configuration only", vec![FeatureGroup::Job]),
    ];
    variants
        .into_iter()
        .map(|(label, groups)| {
            let schema = FeatureSchema::with_groups(&groups);
            let mut row = evaluate_with_schema(
                dataset,
                &schema,
                ModelKind::RandomForest,
                model_config,
                test_fraction,
                seed,
            );
            row.variant = label.to_string();
            row
        })
        .collect()
}

/// Ablation 2: sweep the random-forest size.
pub fn forest_size_ablation(
    dataset: &ExperimentDataset,
    sizes: &[usize],
    test_fraction: f64,
    seed: u64,
) -> Vec<AblationRow> {
    let schema = FeatureSchema::standard();
    sizes
        .iter()
        .map(|&n_trees| {
            let config = ModelConfig {
                forest: RandomForestConfig {
                    n_trees,
                    workers: simcore::default_workers(),
                    ..Default::default()
                },
                ..Default::default()
            };
            let mut row = evaluate_with_schema(
                dataset,
                &schema,
                ModelKind::RandomForest,
                &config,
                test_fraction,
                seed,
            );
            row.variant = format!("trees={n_trees}");
            row
        })
        .collect()
}

/// Ablation 3: regenerate the dataset with different numbers of background
/// pods and measure the random forest's Top-1/Top-2 on each.
pub fn background_intensity_ablation(
    base: &ExperimentConfig,
    pod_counts: &[usize],
    model_config: &ModelConfig,
    test_fraction: f64,
    seed: u64,
) -> Vec<AblationRow> {
    pod_counts
        .iter()
        .map(|&pods| {
            let config = ExperimentConfig {
                background_pods: (pods, pods),
                seed: base.seed.wrapping_add(pods as u64),
                ..base.clone()
            };
            let dataset = Workflow::new(config).run();
            let mut row = evaluate_with_schema(
                &dataset,
                &FeatureSchema::standard(),
                ModelKind::RandomForest,
                model_config,
                test_fraction,
                seed,
            );
            row.variant = format!("background pods = {pods}");
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlcore::GradientBoostingConfig;

    fn fast_model_config() -> ModelConfig {
        ModelConfig {
            forest: RandomForestConfig {
                n_trees: 25,
                workers: 2,
                ..Default::default()
            },
            gbdt: GradientBoostingConfig {
                n_rounds: 50,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn dataset() -> ExperimentDataset {
        Workflow::new(ExperimentConfig {
            workers: simcore::default_workers(),
            ..ExperimentConfig::quick(2, 3, 19)
        })
        .run()
    }

    #[test]
    fn feature_group_ablation_produces_all_variants() {
        let data = dataset();
        let rows = feature_group_ablation(&data, &fast_model_config(), 0.3, 3);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(!row.variant.is_empty());
            assert!(row.top1 >= 0.0 && row.top1 <= 1.0);
            assert!(row.top2 + 1e-9 >= row.top1);
            assert!(row.evaluated > 0);
        }
        // The full feature set should not be worse than job-configuration-only
        // features (which carry no placement signal at all).
        let full = rows.iter().find(|r| r.variant.starts_with("full")).unwrap();
        let job_only = rows
            .iter()
            .find(|r| r.variant.contains("job configuration only"))
            .unwrap();
        assert!(
            full.top2 + 1e-9 >= job_only.top2,
            "full {full:?} vs job-only {job_only:?}"
        );
        let md = ablation_markdown("Feature groups", &rows);
        assert!(md.contains("Feature groups") && md.contains("no network telemetry"));
    }

    #[test]
    fn forest_size_ablation_runs_each_size() {
        let data = dataset();
        let rows = forest_size_ablation(&data, &[5, 40], 0.3, 5);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].variant.contains("trees=5"));
        assert!(rows[1].variant.contains("trees=40"));
    }

    #[test]
    fn background_intensity_ablation_regenerates_datasets() {
        let base = ExperimentConfig {
            workers: simcore::default_workers(),
            ..ExperimentConfig::quick(1, 2, 23)
        };
        let rows = background_intensity_ablation(&base, &[0, 2], &fast_model_config(), 0.34, 7);
        assert_eq!(rows.len(), 2);
        assert!(rows[0].variant.contains("0"));
        assert!(rows[1].variant.contains("2"));
        assert!(rows.iter().all(|r| r.evaluated > 0));
    }
}
