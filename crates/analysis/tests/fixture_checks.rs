//! End-to-end self-tests: run the full engine (walk → lex → scope → lint)
//! over the checked-in violation fixtures and assert that every
//! lint fires exactly where the fixtures say it should — and nowhere else.
//!
//! The fixtures live under `crates/analysis/fixtures/`, which the workspace
//! `lint.toml` excludes, so the real `check` run stays clean while these
//! tests exercise the same code path `cargo run -p analysis -- check` uses.

use analysis::config::Config;
use analysis::engine;
use analysis::lints::{ATOMICS, HOT_PATH, UNSAFE_FORBID};
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// A config that treats the fixtures directory as the whole workspace.
fn fixture_config() -> Config {
    Config::parse(
        r#"
[paths]
include = ["."]
# The call-graph fixtures have their own scan (tests/graph_checks.rs).
exclude = ["graph"]

[atomics]
protocol_files = ["protocol_pairing.rs"]

[hot_path]
roots = ["hot_path_violation.rs::schedule_batch_into"]
"#,
    )
    .expect("fixture config parses")
}

fn run_fixture_check() -> Vec<(String, u32, &'static str)> {
    let report = engine::check(&fixtures_root(), &fixture_config()).expect("fixture scan succeeds");
    report
        .findings
        .into_iter()
        .map(|f| (f.file, f.line, f.lint))
        .collect()
}

fn of_lint<'r>(results: &'r [(String, u32, &'static str)], lint: &str) -> Vec<(&'r str, u32)> {
    results
        .iter()
        .filter(|(_, _, l)| *l == lint)
        .map(|(f, line, _)| (f.as_str(), *line))
        .collect()
}

#[test]
fn every_lint_fires_on_its_fixture_at_the_documented_lines() {
    let results = run_fixture_check();

    assert_eq!(
        of_lint(&results, ATOMICS),
        vec![
            ("atomics_violation.rs", 13),
            ("atomics_violation.rs", 17),
            ("protocol_pairing.rs", 9),
        ]
    );
    assert_eq!(
        of_lint(&results, HOT_PATH),
        vec![
            ("hot_path_violation.rs", 6),
            ("hot_path_violation.rs", 7),
            ("hot_path_violation.rs", 8),
            ("hot_path_violation.rs", 9),
            ("hot_path_violation.rs", 10),
            ("hot_path_violation.rs", 11),
        ]
    );
    assert_eq!(
        of_lint(&results, UNSAFE_FORBID),
        vec![
            ("missing_deny/src/lib.rs", 1),
            ("missing_forbid/src/lib.rs", 1),
        ]
    );
    // Nothing else fires: the fixtures hold no other violation.
    assert_eq!(results.len(), 3 + 6 + 2, "{results:?}");
}

#[test]
fn workspace_check_is_clean() {
    // The real workspace gate: lint.toml over the actual tree must produce
    // zero findings. This is the same invariant CI enforces via
    // `cargo run -p analysis -- check`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config_text = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml exists");
    let config = Config::parse(&config_text).expect("lint.toml parses");
    let report = engine::check(&root, &config).expect("workspace scan succeeds");
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        rendered.is_empty(),
        "workspace must be lint-clean:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.files_scanned > 80,
        "scanned {} files",
        report.files_scanned
    );
}
