//! Regenerate **Table 4**: Top-1 and Top-2 accuracy of the Kubernetes default
//! scheduler and the three supervised models in selecting the fastest node.
//!
//! The full paper-scale run (60 configurations × 10 repeats × 6 nodes = 3600
//! samples) takes a few minutes in release mode:
//!
//! ```text
//! cargo run --release -p experiments --bin table4_accuracy          # full scale
//! cargo run --release -p experiments --bin table4_accuracy quick    # reduced scale
//! cargo run --release -p experiments --bin table4_accuracy <configs_per_workload> <repeats>
//! ```

use experiments::evaluation::evaluate_table4;
use experiments::report::emit;
use experiments::workflow::{ExperimentConfig, Workflow};
use mlcore::{GradientBoostingConfig, ModelConfig, RandomForestConfig};

fn experiment_config() -> ExperimentConfig {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("quick") => ExperimentConfig::quick(4, 4, 2025),
        Some(first) => {
            let per_workload: usize = first.parse().unwrap_or(20);
            let repeats: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
            if per_workload >= 20 {
                ExperimentConfig {
                    repeats_per_config: repeats,
                    ..ExperimentConfig::default()
                }
            } else {
                ExperimentConfig::quick(per_workload, repeats, 2025)
            }
        }
        None => ExperimentConfig::default(),
    }
}

fn main() {
    let config = experiment_config();
    let scenario_count = config.scenario_count();
    eprintln!(
        "generating dataset: {} configurations x {} repeats = {} scenarios ({} samples) ...",
        config.configs.len(),
        config.repeats_per_config,
        scenario_count,
        scenario_count * 6
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock timing is printed to stderr only and never reaches the pinned artifact"
    )]
    let start = std::time::Instant::now();
    let dataset = Workflow::new(config).run();
    eprintln!(
        "dataset ready: {} samples in {:.1}s; training and evaluating models ...",
        dataset.sample_count(),
        start.elapsed().as_secs_f64()
    );

    let model_config = ModelConfig {
        forest: RandomForestConfig {
            n_trees: 200,
            ..Default::default()
        },
        gbdt: GradientBoostingConfig {
            n_rounds: 300,
            ..Default::default()
        },
        ..Default::default()
    };
    let report = evaluate_table4(&dataset, 0.25, &model_config, 7);

    let mut md = report.to_markdown();
    md.push_str(&format!(
        "\nTraining scenarios: {} ({} samples); held-out scenarios: {}.\n",
        report.train_scenarios, report.train_samples, report.test_scenarios
    ));
    md.push_str("\nHeld-out regression quality:\n\n| Model | MAE (s) | RMSE (s) | R² |\n|---|---|---|---|\n");
    for fit in &report.model_fits {
        md.push_str(&format!(
            "| {} | {:.2} | {:.2} | {:.3} |\n",
            fit.kind, fit.metrics.mae, fit.metrics.rmse, fit.metrics.r2
        ));
    }
    md.push_str("\nPaper reference (Table 4): Kubernetes Default 0.160/0.260, Linear Regression 0.500/0.600, XGBoost 0.560/0.720, Random Forest 0.700/0.880.\n");

    emit(
        "Table 4 — Top-1 and Top-2 accuracy of scheduling approaches",
        "table4_accuracy.md",
        &md,
    );
    eprintln!("total wall-clock: {:.1}s", start.elapsed().as_secs_f64());
}
