//! Run the **scenario-matrix sweep**: topology × workload mix × background
//! load × seed, with the full Table-4 pipeline (dataset → models → Top-1/Top-2
//! accuracy → speedup vs. the Kubernetes default) in every cell.
//!
//! ```text
//! cargo run --release -p experiments --bin scenario_sweep            # 24-cell default matrix
//! cargo run --release -p experiments --bin scenario_sweep quick      # 8-cell smoke matrix
//! cargo run --release -p experiments --bin scenario_sweep quick 4    # ... on 4 workers
//! cargo run --release -p experiments --bin scenario_sweep 8          # default matrix, 8 workers
//! ```
//!
//! Emits `results/scenario_sweep.json` (machine-readable, byte-stable for a
//! fixed matrix) and `results/scenario_sweep.md` (human summary). The
//! paper-shape expectation is that every supervised model beats the default
//! scheduler's Top-1 accuracy in a majority of cells.

use experiments::report::{emit, write_result_file};
use experiments::scenarios::{run_sweep, ScenarioMatrix, SweepOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut matrix = ScenarioMatrix::paper_default();
    let mut options = SweepOptions::default();
    for arg in &args {
        if arg == "quick" {
            matrix = ScenarioMatrix::smoke();
        } else if let Ok(workers) = arg.parse::<usize>() {
            options.workers = workers.max(1);
        } else {
            eprintln!(
                "ignoring unrecognized argument `{arg}` (expected `quick` or a worker count)"
            );
        }
    }

    eprintln!(
        "sweeping {} cells ({} topologies x {} mixes x {} load levels x {} seeds) on {} workers ...",
        matrix.cell_count(),
        matrix.testbeds.len(),
        matrix.mixes.len(),
        matrix.loads.len(),
        matrix.seeds.len(),
        options.workers,
    );
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock timing is printed to stderr only and never reaches the pinned artifact"
    )]
    let start = std::time::Instant::now();
    let report = run_sweep(&matrix, &options);
    eprintln!(
        "sweep finished in {:.1}s ({} cells, {} scenarios total)",
        start.elapsed().as_secs_f64(),
        report.cells.len(),
        report.cells.iter().map(|c| c.scenario_count).sum::<usize>(),
    );

    if let Some(path) = write_result_file("scenario_sweep.json", &report.to_json()) {
        println!("(JSON report written to {})", path.display());
    }
    let mut md = report.to_markdown();
    md.push_str(&format!(
        "\nPaper-shape expectation (every supervised model beats the Kubernetes default on Top-1 in a majority of cells): {}\n",
        if report.paper_shape_holds() { "HOLDS" } else { "VIOLATED" }
    ));
    emit(
        "Scenario-matrix sweep — per-cell Top-1/Top-2 accuracy and speedup vs. kube default",
        "scenario_sweep.md",
        &md,
    );
}
