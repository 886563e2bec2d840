//! Scenario-matrix integration tests: for a fixed seed the sweep's JSON
//! report is byte-identical across runs, parallel sweeps equal sequential
//! sweeps, and the per-cell reports keep the paper's shape (supervised
//! models ahead of the telemetry-blind default scheduler).
//!
//! Both tests run the 8-cell smoke matrix. The full 24-cell acceptance
//! matrix is what the `reproduce` binary sweeps into the pinned
//! `scenario_sweep.{json,md}`, and what the `#[ignore]`d test at the bottom
//! checks.

use netsched::experiments::{
    run_sweep, ScenarioMatrix, SweepOptions, SweepReport, KUBE_DEFAULT_METHOD,
};

fn sweep(workers: usize) -> SweepReport {
    let options = SweepOptions {
        workers,
        ..SweepOptions::quick()
    };
    run_sweep(&ScenarioMatrix::smoke(), &options)
}

/// FNV-1a (64-bit): a stable fingerprint for pinning rendered bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn sweep_is_deterministic_and_parallel_invariant() {
    let matrix = ScenarioMatrix::smoke();
    assert!(matrix.cell_count() <= 8, "integration matrix stays small");

    let sequential = sweep(1);
    let parallel = sweep(4);
    let parallel_again = sweep(4);

    // Parallelism never changes results, and a fixed seed reproduces the
    // report byte-for-byte.
    assert_eq!(
        sequential.to_json(),
        parallel.to_json(),
        "parallel sweep must equal sequential sweep"
    );
    assert_eq!(
        parallel.to_json(),
        parallel_again.to_json(),
        "fixed seed must reproduce the report byte-for-byte"
    );

    // The report's bytes are pinned: a drifted constant anywhere in the
    // simulator, the workflow or the models moves this fingerprint.
    let json = sequential.to_json();
    assert_eq!(
        fnv1a(json.bytes()),
        14_701_033_765_474_940_315,
        "smoke sweep report of {} bytes",
        json.len()
    );

    // Structural sanity of every cell.
    assert_eq!(sequential.cells.len(), matrix.cell_count());
    for cell in &sequential.cells {
        assert_eq!(cell.accuracy.len(), 4, "{:?}", cell.cell);
        assert_eq!(cell.speedups.len(), 4, "{:?}", cell.cell);
        assert!(cell.scenario_count > 0);
        assert_eq!(
            cell.sample_count,
            cell.scenario_count * cell.node_count,
            "{:?}: every scenario measures every candidate",
            cell.cell
        );
        assert_eq!(
            cell.train_scenarios + cell.test_scenarios,
            cell.scenario_count
        );
        let default_speedup = cell
            .speedups
            .iter()
            .find(|s| s.method == KUBE_DEFAULT_METHOD)
            .expect("default always evaluated");
        assert!((default_speedup.geomean_speedup - 1.0).abs() < 1e-12);
    }
    // The matrix actually spans more than one substrate.
    let topologies: std::collections::BTreeSet<&str> = sequential
        .cells
        .iter()
        .map(|c| c.cell.topology.as_str())
        .collect();
    assert!(topologies.len() >= 2, "{topologies:?}");
}

#[test]
fn smoke_sweep_preserves_paper_shape() {
    let report = sweep(netsched::simcore::default_workers());
    let cells = report.cells.len() as f64;

    // Aggregate shape: averaged over cells, the best supervised model's Top-1
    // clearly beats the telemetry-blind default scheduler's.
    let mean = |f: &dyn Fn(&netsched::experiments::CellReport) -> f64| -> f64 {
        report.cells.iter().map(f).sum::<f64>() / cells
    };
    let mean_default = mean(&|c| {
        c.accuracy_of(KUBE_DEFAULT_METHOD)
            .map(|r| r.top1)
            .unwrap_or(0.0)
    });
    let mean_best_supervised = mean(&|c| {
        c.accuracy
            .iter()
            .filter(|r| r.method != KUBE_DEFAULT_METHOD)
            .map(|r| r.top1)
            .fold(0.0, f64::max)
    });
    assert!(
        mean_best_supervised > mean_default,
        "best supervised {mean_best_supervised:.3} must beat default {mean_default:.3}"
    );

    // In a majority of cells some supervised model strictly wins on Top-1 ...
    let winning_cells = report
        .cells
        .iter()
        .filter(|c| {
            c.accuracy
                .iter()
                .any(|r| r.method != KUBE_DEFAULT_METHOD && c.beats_default_top1(&r.method))
        })
        .count();
    assert!(
        winning_cells * 2 > report.cells.len(),
        "supervised wins in only {winning_cells}/{} cells",
        report.cells.len()
    );

    // ... and picking nodes with the best supervised model yields jobs at
    // least as fast as the default's picks on geometric mean.
    let mean_best_speedup = mean(&|c| {
        c.speedups
            .iter()
            .filter(|s| s.method != KUBE_DEFAULT_METHOD)
            .map(|s| s.geomean_speedup)
            .fold(0.0, f64::max)
    });
    assert!(
        mean_best_speedup >= 1.0,
        "best supervised speedup {mean_best_speedup:.3}"
    );
}

/// The full ≥24-cell acceptance matrix (also swept by
/// `cargo run --release -p experiments --bin reproduce`). Ignored by
/// default because it takes minutes in debug builds:
/// `cargo test --release --test scenario_matrix -- --ignored`.
#[test]
#[ignore = "minutes-long full matrix; run with --ignored or the reproduce binary"]
fn full_paper_default_matrix_preserves_paper_shape() {
    let matrix = ScenarioMatrix::paper_default();
    assert!(matrix.cell_count() >= 24);
    let report = run_sweep(&matrix, &SweepOptions::default());
    for majority in &report.majorities {
        eprintln!(
            "{}: beats default in {}/{} cells",
            majority.method, majority.cells_beating_default_top1, majority.cells
        );
    }
    assert!(
        report.paper_shape_holds(),
        "every supervised model must beat the default's Top-1 in a majority of cells"
    );
}
