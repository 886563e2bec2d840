//! Table 4: Top-1 / Top-2 node-selection accuracy (plus per-cell speedups).
//!
//! For every held-out scenario, each scheduling method ranks the candidate
//! nodes: the supervised models through [`supervised_ranking`] — the
//! scheduler service's own ranker — and the Kubernetes default through
//! [`KubeDefaultScheduler::rank`]. The method scores a Top-1 hit when its
//! first choice is the node that actually ran the job fastest, and a Top-2
//! hit when the fastest node appears among its first two choices. The paper
//! reports (Table 4):
//!
//! | Method | Top-1 | Top-2 |
//! |---|---|---|
//! | Kubernetes Default | 0.160 | 0.260 |
//! | Linear Regression  | 0.500 | 0.600 |
//! | XGBoost            | 0.560 | 0.720 |
//! | Random Forest      | 0.700 | 0.880 |
//!
//! The reproduction is judged on the *shape*: every supervised model beats the
//! default scheduler by a wide margin, tree ensembles beat linear regression,
//! and Top-2 dominates Top-1.
//!
//! `evaluate_cell` additionally reports each method's **completion-time
//! speedup over the Kubernetes default**: for every held-out scenario it looks
//! up the measured completion time of the node each method would have picked
//! and divides the default's pick by the method's pick. The scenario-matrix
//! sweep runs this whole pipeline once per cell.

use crate::workflow::{ExperimentDataset, ScenarioRecord};
use cluster::ClusterState;
use mlcore::{evaluate_on, ModelConfig, ModelKind, RegressionMetrics, TrainedModel};
use netsched_core::{
    CompletionTimePredictor, FeatureSchema, KubeDefaultScheduler, NodeRanking, SchedulingContext,
};
use simcore::Rng;

/// The baseline method's display name (the paper's Table 4 first row).
pub const KUBE_DEFAULT_METHOD: &str = "Kubernetes Default";

/// Accuracy of one scheduling method.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerAccuracy {
    /// Method name (matching the paper's Table 4 rows).
    pub method: String,
    /// Fraction of held-out scenarios where the first choice was the fastest node.
    pub top1: f64,
    /// Fraction where the fastest node was within the first two choices.
    pub top2: f64,
    /// Number of evaluated scenarios.
    pub evaluated: usize,
}

/// Completion-time speedup of one method over the Kubernetes default: for
/// every held-out scenario, the default's picked-node completion time divided
/// by this method's picked-node completion time (> 1 means faster jobs).
#[derive(Debug, Clone, PartialEq)]
pub struct MethodSpeedup {
    /// Method name.
    pub method: String,
    /// Geometric mean of the per-scenario speedups.
    pub geomean_speedup: f64,
    /// Arithmetic mean of the per-scenario speedups.
    pub(crate) mean_speedup: f64,
    /// Number of scenarios the speedup was measured on.
    pub evaluated: usize,
}

/// Regression quality of one trained model on held-out samples.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFit {
    /// Model family.
    pub kind: ModelKind,
    /// Held-out regression metrics.
    pub metrics: RegressionMetrics,
}

/// The full Table 4 report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Report {
    /// One row per method (default scheduler + the three supervised models).
    pub rows: Vec<SchedulerAccuracy>,
    /// Held-out regression quality per model (supporting detail).
    pub model_fits: Vec<ModelFit>,
    /// Number of training scenarios.
    pub train_scenarios: usize,
    /// Number of held-out scenarios.
    pub test_scenarios: usize,
    /// Number of training samples (rows) used for model fitting.
    pub train_samples: usize,
}

impl Table4Report {
    /// Look up a row by method name.
    pub fn row(&self, method: &str) -> Option<&SchedulerAccuracy> {
        self.rows.iter().find(|r| r.method == method)
    }

    /// Render the report as a markdown table in the paper's format.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from("| Method | Top-1 | Top-2 |\n|---|---|---|\n");
        for row in &self.rows {
            out.push_str(&format!(
                "| {} | {:.3} | {:.3} |\n",
                row.method, row.top1, row.top2
            ));
        }
        out
    }
}

/// One cell's worth of evaluation: the Table 4 accuracy report plus each
/// method's completion-time speedup over the default scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct CellEvaluation {
    /// Top-1/Top-2 accuracy and model fits.
    pub table4: Table4Report,
    /// Per-method speedup over the Kubernetes default.
    pub speedups: Vec<MethodSpeedup>,
}

/// One method's node rankings over the held-out scenarios (first = predicted
/// fastest), aligned with the test-scenario list.
pub(crate) struct MethodRankings {
    pub(crate) method: String,
    pub(crate) rankings: Vec<Vec<String>>,
}

/// The supervised ranking of one scenario, decided as the scheduler service
/// decides: [`SchedulingContext::rank_feasible_batch_into`] over the
/// scenario's snapshot and `cluster`, then only the nodes with a recorded
/// outcome, in rank order. The rank is a total order on (score, node id) and
/// each score depends only on its own node's row, so this is exactly the
/// ranking of the scenario's candidate list on its own.
pub fn supervised_ranking(
    predictor: &CompletionTimePredictor,
    scenario: &ScenarioRecord,
    cluster: &ClusterState,
) -> Vec<String> {
    let mut ranking = NodeRanking::default();
    SchedulingContext::new(&scenario.snapshot, cluster).rank_feasible_batch_into(
        &scenario.request(),
        predictor,
        &mut ranking,
    );
    ranking
        .names(cluster)
        .into_iter()
        .filter(|name| scenario.outcomes.iter().any(|o| o.node == *name))
        .map(str::to_string)
        .collect()
}

/// Count Top-1/Top-2 hits of precomputed rankings over scenarios.
///
/// Tie-aware: a ranked node scores a hit when its *recorded completion time*
/// equals the scenario minimum, so when two nodes are actually equally
/// fastest a method that picks either one is credited — not only the one
/// that happens to appear first in the outcome list.
pub(crate) fn accuracy_from(
    method: &MethodRankings,
    scenarios: &[&ScenarioRecord],
) -> SchedulerAccuracy {
    let mut top1 = 0usize;
    let mut top2 = 0usize;
    let mut evaluated = 0usize;
    for (scenario, ranking) in scenarios.iter().zip(&method.rankings) {
        if ranking.is_empty() || scenario.outcomes.is_empty() {
            continue;
        }
        evaluated += 1;
        let best = scenario
            .outcomes
            .iter()
            .map(|o| o.completion_seconds)
            .fold(f64::INFINITY, f64::min);
        let is_fastest = |name: &String| {
            scenario
                .outcomes
                .iter()
                .any(|o| &o.node == name && o.completion_seconds == best)
        };
        if ranking.first().map(is_fastest) == Some(true) {
            top1 += 1;
        }
        if ranking.iter().take(2).any(is_fastest) {
            top2 += 1;
        }
    }
    let denom = evaluated.max(1) as f64;
    SchedulerAccuracy {
        method: method.method.clone(),
        top1: top1 as f64 / denom,
        top2: top2 as f64 / denom,
        evaluated,
    }
}

/// Measured completion time of the node a ranking would pick for `scenario`.
fn picked_completion(scenario: &ScenarioRecord, ranking: &[String]) -> Option<f64> {
    let choice = ranking.first()?;
    scenario
        .outcomes
        .iter()
        .find(|o| &o.node == choice)
        .map(|o| o.completion_seconds)
}

/// Per-method speedup over the default scheduler's picks.
#[expect(
    clippy::expect_used,
    reason = "the default scheduler is unconditionally evaluated first"
)]
fn speedups_from(methods: &[MethodRankings], scenarios: &[&ScenarioRecord]) -> Vec<MethodSpeedup> {
    let default = methods
        .iter()
        .find(|m| m.method == KUBE_DEFAULT_METHOD)
        .expect("the default scheduler is always evaluated");
    methods
        .iter()
        .map(|method| {
            let mut log_sum = 0.0;
            let mut sum = 0.0;
            let mut evaluated = 0usize;
            for (i, scenario) in scenarios.iter().enumerate() {
                let (Some(t_default), Some(t_method)) = (
                    picked_completion(scenario, &default.rankings[i]),
                    picked_completion(scenario, &method.rankings[i]),
                ) else {
                    continue;
                };
                if t_default <= 0.0 || t_method <= 0.0 {
                    continue;
                }
                let speedup = t_default / t_method;
                log_sum += speedup.ln();
                sum += speedup;
                evaluated += 1;
            }
            let denom = evaluated.max(1) as f64;
            MethodSpeedup {
                method: method.method.clone(),
                geomean_speedup: if evaluated == 0 {
                    1.0
                } else {
                    (log_sum / denom).exp()
                },
                mean_speedup: if evaluated == 0 { 1.0 } else { sum / denom },
                evaluated,
            }
        })
        .collect()
}

/// Run the full per-cell evaluation pipeline: split scenarios, train the
/// three supervised models, rank every held-out scenario with every method,
/// and score Top-1/Top-2 accuracy plus speedup over the default scheduler.
#[expect(
    clippy::expect_used,
    reason = "experiment datasets are built with the standard schema, so widths agree by construction"
)]
pub(crate) fn evaluate_cell(
    dataset: &ExperimentDataset,
    test_fraction: f64,
    model_config: &ModelConfig,
    seed: u64,
) -> CellEvaluation {
    let mut rng = Rng::seed_from_u64(seed);
    let (train_idx, test_idx) = dataset.split_scenarios(test_fraction, &mut rng);
    let train_data = dataset.logger_for(&train_idx).to_dataset();
    let test_data = dataset.logger_for(&test_idx).to_dataset();
    let test_scenarios: Vec<&ScenarioRecord> =
        test_idx.iter().map(|&i| &dataset.scenarios[i]).collect();

    // An empty cluster (no jobs bound) over the dataset's own substrate for
    // the default-scheduler baseline — exactly what kube-scheduler sees at
    // decision time in the paper's runs.
    let baseline_cluster = dataset.testbed.build().cluster;

    let mut methods: Vec<MethodRankings> = Vec::with_capacity(4);
    let mut model_fits = Vec::with_capacity(3);

    // --- Kubernetes default scheduler baseline. ---
    let mut kube = KubeDefaultScheduler::new(seed ^ 0xAB);
    methods.push(MethodRankings {
        method: KUBE_DEFAULT_METHOD.to_string(),
        rankings: test_scenarios
            .iter()
            .map(|scenario| {
                kube.rank(&scenario.request(), &baseline_cluster)
                    .names(&baseline_cluster)
                    .into_iter()
                    .map(str::to_string)
                    .collect()
            })
            .collect(),
    });

    // --- Supervised models. ---
    for kind in ModelKind::ALL {
        let model = TrainedModel::train(kind, model_config, &train_data, &mut rng);
        let fit = if test_data.is_empty() {
            evaluate_on(&model, &train_data)
        } else {
            evaluate_on(&model, &test_data)
        };
        model_fits.push(ModelFit { kind, metrics: fit });
        let predictor = CompletionTimePredictor::new(FeatureSchema::standard(), model)
            .expect("experiment datasets are built with the standard schema");
        methods.push(MethodRankings {
            method: kind.display_name().to_string(),
            rankings: test_scenarios
                .iter()
                .map(|scenario| supervised_ranking(&predictor, scenario, &baseline_cluster))
                .collect(),
        });
    }

    let rows = methods
        .iter()
        .map(|m| accuracy_from(m, &test_scenarios))
        .collect();
    let speedups = speedups_from(&methods, &test_scenarios);

    CellEvaluation {
        table4: Table4Report {
            rows,
            model_fits,
            train_scenarios: train_idx.len(),
            test_scenarios: test_idx.len(),
            train_samples: train_data.len(),
        },
        speedups,
    }
}

/// Evaluate the default scheduler and the three supervised models on a
/// dataset, holding out `test_fraction` of the scenarios (the Table 4 view of
/// the per-cell evaluation the sweep runs).
pub fn evaluate_table4(
    dataset: &ExperimentDataset,
    test_fraction: f64,
    model_config: &ModelConfig,
    seed: u64,
) -> Table4Report {
    evaluate_cell(dataset, test_fraction, model_config, seed).table4
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::{ExperimentConfig, Workflow};
    use mlcore::{GradientBoostingConfig, RandomForestConfig};

    fn fast_model_config() -> ModelConfig {
        ModelConfig {
            forest: RandomForestConfig {
                n_trees: 30,
                workers: 2,
                ..Default::default()
            },
            gbdt: GradientBoostingConfig {
                n_rounds: 80,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// A moderately sized dataset shared by the evaluation tests.
    fn dataset() -> ExperimentDataset {
        let config = ExperimentConfig {
            workers: simcore::default_workers(),
            ..ExperimentConfig::quick(3, 4, 11)
        };
        Workflow::new(config).run()
    }

    #[test]
    fn table4_has_four_rows_and_reasonable_shape() {
        let data = dataset();
        let report = evaluate_table4(&data, 0.3, &fast_model_config(), 5);
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.model_fits.len(), 3);
        assert!(report.train_scenarios > 0 && report.test_scenarios > 0);
        assert_eq!(report.train_samples, report.train_scenarios * 6);
        for row in &report.rows {
            assert!(row.top1 >= 0.0 && row.top1 <= 1.0);
            assert!(
                row.top2 >= row.top1 - 1e-9,
                "{}: top2 must dominate top1",
                row.method
            );
            assert_eq!(row.evaluated, report.test_scenarios);
        }
        // The default scheduler is blind to telemetry: near-uniform accuracy.
        let default = report.row(KUBE_DEFAULT_METHOD).unwrap();
        assert!(default.top1 < 0.5, "default top1 {}", default.top1);
        // The best supervised model beats the default scheduler on Top-1.
        let best_supervised = report
            .rows
            .iter()
            .filter(|r| r.method != KUBE_DEFAULT_METHOD)
            .map(|r| r.top1)
            .fold(0.0, f64::max);
        assert!(
            best_supervised > default.top1,
            "supervised {best_supervised} vs default {}",
            default.top1
        );
        // Markdown rendering includes every method.
        let md = report.to_markdown();
        for row in &report.rows {
            assert!(md.contains(&row.method));
        }
    }

    #[test]
    fn cell_evaluation_reports_speedups_over_default() {
        let data = dataset();
        let evaluation = evaluate_cell(&data, 0.3, &fast_model_config(), 5);
        assert_eq!(evaluation.speedups.len(), 4);
        let default = evaluation
            .speedups
            .iter()
            .find(|s| s.method == KUBE_DEFAULT_METHOD)
            .unwrap();
        // The default's speedup over itself is identically 1.
        assert!((default.geomean_speedup - 1.0).abs() < 1e-12);
        assert!((default.mean_speedup - 1.0).abs() < 1e-12);
        assert_eq!(default.evaluated, evaluation.table4.test_scenarios);
        for speedup in &evaluation.speedups {
            assert!(speedup.geomean_speedup > 0.0);
            assert!(speedup.mean_speedup > 0.0);
            assert_eq!(speedup.evaluated, evaluation.table4.test_scenarios);
        }
        // The best supervised model's picks are at least as fast as the
        // default's on geometric mean.
        let best = evaluation
            .speedups
            .iter()
            .filter(|s| s.method != KUBE_DEFAULT_METHOD)
            .map(|s| s.geomean_speedup)
            .fold(0.0, f64::max);
        assert!(best >= 1.0, "best supervised speedup {best}");
        // And the accuracy side of the same evaluation matches evaluate_table4.
        let table4 = evaluate_table4(&data, 0.3, &fast_model_config(), 5);
        assert_eq!(table4, evaluation.table4);
    }

    #[test]
    fn model_fits_are_informative() {
        let data = dataset();
        let report = evaluate_table4(&data, 0.25, &fast_model_config(), 7);
        for fit in &report.model_fits {
            assert!(fit.metrics.count > 0);
            assert!(fit.metrics.rmse.is_finite());
        }
        // At least one model should explain a good part of the variance.
        let best_r2 = report
            .model_fits
            .iter()
            .map(|f| f.metrics.r2)
            .fold(f64::MIN, f64::max);
        assert!(best_r2 > 0.3, "best r2 {best_r2}");
    }

    /// A hand-built scenario over `snapshot` with one recorded completion
    /// time per node.
    fn scenario(snapshot: telemetry::ClusterSnapshot, outcomes: &[(&str, f64)]) -> ScenarioRecord {
        use crate::config::JobConfig;
        use crate::workflow::NodeOutcome;
        use sparksim::WorkloadKind;

        ScenarioRecord {
            scenario_id: 0,
            config: JobConfig {
                id: 0,
                kind: WorkloadKind::Sort,
                input_records: 1000,
                executor_count: 2,
                executor_memory_bytes: 1 << 30,
                shuffle_partitions: 4,
                arrival_offset_seconds: 0.0,
            },
            repeat: 0,
            background_hosts: vec![],
            snapshot,
            outcomes: outcomes
                .iter()
                .map(|&(node, completion_seconds)| NodeOutcome {
                    node: node.to_string(),
                    completion_seconds,
                    executor_nodes: vec![],
                    spill_count: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn accuracy_counts_any_tied_fastest_node_as_a_hit() {
        // node-a and node-b are actually equally fastest; node-c is slower.
        let scenario = scenario(
            telemetry::ClusterSnapshot::default(),
            &[("node-a", 10.0), ("node-b", 10.0), ("node-c", 20.0)],
        );
        let scenarios = vec![&scenario];
        let rank = |names: &[&str]| MethodRankings {
            method: "M".into(),
            rankings: vec![names.iter().map(|n| n.to_string()).collect()],
        };

        // fastest_node() returns the first minimum (node-a), but a method
        // picking the tied node-b first must score a Top-1 hit too.
        assert_eq!(scenario.fastest_node(), "node-a");
        let picks_b = accuracy_from(&rank(&["node-b", "node-c", "node-a"]), &scenarios);
        assert_eq!((picks_b.top1, picks_b.top2), (1.0, 1.0));
        let picks_a = accuracy_from(&rank(&["node-a", "node-b", "node-c"]), &scenarios);
        assert_eq!((picks_a.top1, picks_a.top2), (1.0, 1.0));
        // A slow first pick with a tied-fastest second pick is a Top-2 hit.
        let second = accuracy_from(&rank(&["node-c", "node-b", "node-a"]), &scenarios);
        assert_eq!((second.top1, second.top2), (0.0, 1.0));
        // Missing both tied nodes in the top 2 is a miss.
        let miss = accuracy_from(&rank(&["node-c", "node-c"]), &scenarios);
        assert_eq!((miss.top1, miss.top2), (0.0, 0.0));
    }

    /// A NaN telemetry value makes a NaN prediction, and a NaN prediction
    /// ranks after every number: clamping it with `f64::max(0.0)` would have
    /// made it 0 s, the best score in the cluster.
    #[test]
    fn a_nan_prediction_ranks_its_node_last() {
        use cluster::{Node, Resources};
        use mlcore::{Dataset, FeatureMatrix};
        use telemetry::{ClusterSnapshot, NodeTelemetry};

        let names = ["node-a", "node-b", "node-c"];
        let mut cluster = ClusterState::new();
        for (i, name) in names.into_iter().enumerate() {
            let capacity = Resources::from_cores_and_gib(6, 8);
            cluster.add_node(Node::new(name, simnet::NodeId(i), capacity, "SITE"));
        }
        let with_loads = |loads: [f64; 3]| {
            let mut snapshot = ClusterSnapshot::default();
            for (name, cpu_load) in names.into_iter().zip(loads) {
                let node = NodeTelemetry {
                    cpu_load,
                    memory_available_bytes: 6e9,
                    tx_rate: 0.0,
                    rx_rate: 0.0,
                };
                snapshot.insert_node(name, node);
            }
            snapshot
        };
        // node-a has the NaN load; node-b is less loaded than node-c.
        let record = scenario(
            with_loads([f64::NAN, 1.0, 2.0]),
            &[("node-a", 10.0), ("node-b", 12.0), ("node-c", 14.0)],
        );

        // A linear model whose completion time grows with CPU load.
        let schema = FeatureSchema::standard();
        let mut data = Dataset::new(schema.len());
        for step in 0..30 {
            let load = step as f64 / 5.0;
            let snapshot = with_loads([load, 0.0, 0.0]);
            let features = schema.construct(&snapshot, "node-a", &record.request());
            data.push(features, 10.0 + 4.0 * load).unwrap();
        }
        let mut rng = Rng::seed_from_u64(3);
        let model =
            TrainedModel::train(ModelKind::Linear, &ModelConfig::default(), &data, &mut rng);
        let mut row = FeatureMatrix::new(schema.len());
        row.push_row(&schema.construct(&record.snapshot, "node-a", &record.request()));
        let predictor = CompletionTimePredictor::new(schema, model).unwrap();
        let mut prediction = Vec::new();
        predictor.predict_batch_into(&row, &mut prediction);
        assert!(prediction[0].is_nan());

        let ranking = supervised_ranking(&predictor, &record, &cluster);
        assert_eq!(ranking, ["node-b", "node-c", "node-a"]);
    }

    #[test]
    fn row_lookup() {
        let report = Table4Report {
            rows: vec![SchedulerAccuracy {
                method: "X".into(),
                top1: 0.5,
                top2: 0.7,
                evaluated: 10,
            }],
            model_fits: vec![],
            train_scenarios: 1,
            test_scenarios: 1,
            train_samples: 6,
        };
        assert!(report.row("X").is_some());
        assert!(report.row("Y").is_none());
    }
}
