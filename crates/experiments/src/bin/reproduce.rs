//! Reproduce every artifact at the fixed seeds `results.md5` pins: Tables
//! 1–4, Figures 2–4, the feature ablation and the scenario-matrix sweep.
//!
//! ```text
//! cargo run --release -p experiments --bin reproduce
//! cd results && md5sum -c ../results.md5
//! ```
//!
//! Takes no arguments (any exits 2). Writes the 12 files `results.md5` lists
//! into `results/` (or `NETSCHED_RESULTS_DIR`), echoes each to stdout and each
//! artifact's wall-clock to stderr; exits 1, naming the file, if a write fails.

use std::io;
use std::process::ExitCode;

use experiments::{
    ablation_markdown, background_intensity_ablation, csv_table, emit, evaluate_table4,
    feature_group_ablation, figure4_topology, forest_size_ablation, markdown_table, run_sweep,
    sort_telemetry_figures, table1_feature_schema, table2_markdown,
    table2_workload_characteristics, table3_markdown, table3_sample, write_result_file,
    ExperimentConfig, ScenarioMatrix, SweepOptions, Workflow,
};
use mlcore::ModelConfig;

/// The seed of every simulated artifact.
const SEED: u64 = 2025;

/// Writes one group of artifacts, or fails naming the file it could not write.
type Artifact = fn() -> io::Result<()>;

fn main() -> ExitCode {
    if std::env::args_os().len() > 1 {
        eprintln!("usage: reproduce (takes no arguments; writes every artifact to results/ or $NETSCHED_RESULTS_DIR)");
        return ExitCode::from(2);
    }
    let artifacts: [(&str, Artifact); 5] = [
        ("tables 1-3", tables),
        ("figures 2-4", figures),
        ("table 4", table4),
        ("ablation", ablation),
        ("sweep", sweep),
    ];
    for (name, artifact) in artifacts {
        #[expect(clippy::disallowed_methods, reason = "stderr-only timing")]
        let start = std::time::Instant::now();
        if let Err(err) = artifact() {
            eprintln!("reproduce: {name}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("{name}: {:.2}s", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

/// Default models with `n_trees` forest trees and `n_rounds` boosting rounds.
fn models(n_trees: usize, n_rounds: usize) -> ModelConfig {
    let mut config = ModelConfig::default();
    config.forest.n_trees = n_trees;
    config.gbdt.n_rounds = n_rounds;
    config
}

/// Tables 1–3: feature schema, workloads at 250 000 records, a training row.
fn tables() -> io::Result<()> {
    emit("table1_features.md", &table1_feature_schema())?;
    let workloads = table2_workload_characteristics(250_000, SEED);
    emit("table2_workloads.md", &table2_markdown(&workloads))?;
    emit("table3_sample.md", &table3_markdown(&table3_sample(SEED)))
}

/// Figures 2 and 3 from one set of five Sort runs, and the Figure 4 layout.
fn figures() -> io::Result<()> {
    let sort = sort_telemetry_figures(5, 500_000, SEED);
    let panels = [
        (
            "figure2_latency",
            ["Avg latency (ms)", "latency_ms"],
            sort.figure2_latency(),
        ),
        (
            "figure3_tx_bandwidth",
            ["Avg Tx bandwidth (MB/s)", "tx_mb_per_s"],
            sort.figure3_tx_bandwidth(),
        ),
    ];
    for (stem, [md_column, csv_column], points) in panels {
        let rows: Vec<Vec<String>> = points
            .into_iter()
            .map(|(node, value)| vec![node, format!("{value:.2}")])
            .collect();
        emit(
            &format!("{stem}.md"),
            &markdown_table(&["Node", md_column], &rows),
        )?;
        write_result_file(
            &format!("{stem}.csv"),
            &csv_table(&["node", csv_column], &rows),
        )?;
    }
    emit("figure4_topology.md", &figure4_topology(SEED).to_markdown())
}

/// Table 4 on the paper-scale dataset (60 configurations × 10 repeats), a
/// quarter of the scenarios held out.
fn table4() -> io::Result<()> {
    let dataset = Workflow::new(ExperimentConfig::default()).run();
    let report = evaluate_table4(&dataset, 0.25, &models(200, 300), 7);
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
    emit("table4_accuracy.md", &md)
}

/// Feature-group, forest-size and background-intensity ablations.
fn ablation() -> io::Result<()> {
    let base = ExperimentConfig::quick(5, 5, SEED);
    let config = models(80, 200);
    let dataset = Workflow::new(base.clone()).run();
    let four_repeats = ExperimentConfig {
        repeats_per_config: 4,
        ..base
    };
    let features = feature_group_ablation(&dataset, &config, 0.25, 13);
    let forest = forest_size_ablation(&dataset, &[10, 50, 100, 200], 0.25, 17);
    let load = background_intensity_ablation(&four_repeats, &[0, 1, 3], &config, 0.25, 19);
    let md = [
        ablation_markdown("Feature-group ablation (random forest)", &features),
        ablation_markdown("Random-forest size ablation", &forest),
        ablation_markdown("Background-load intensity ablation", &load),
    ];
    emit("ablation.md", &md.join("\n"))
}

/// The 24-cell scenario matrix, the Table 4 pipeline in every cell.
fn sweep() -> io::Result<()> {
    let report = run_sweep(&ScenarioMatrix::paper_default(), &SweepOptions::default());
    write_result_file("scenario_sweep.json", &report.to_json())?;
    let mut md = report.to_markdown();
    md.push_str(&format!(
        "\nPaper-shape expectation (every supervised model beats the Kubernetes default on Top-1 in a majority of cells): {}\n",
        if report.paper_shape_holds() { "HOLDS" } else { "VIOLATED" }
    ));
    emit("scenario_sweep.md", &md)
}
