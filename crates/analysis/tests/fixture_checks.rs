//! End-to-end self-tests: run the full engine (walk → lex → scope → lint)
//! over the checked-in violation fixtures and assert that every
//! lint fires exactly where the fixtures say it should — and nowhere else.
//!
//! The fixtures live under `crates/analysis/fixtures/`, which the workspace
//! `lint.toml` excludes, so the real `check` run stays clean while these
//! tests exercise the same code path `cargo run -p analysis -- check` uses.

use analysis::config::Config;
use analysis::engine;
use analysis::lints::HOT_PATH;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// A config that treats the fixtures directory as the whole workspace.
fn fixture_config() -> Result<Config, String> {
    Config::parse(
        r#"
[paths]
include = ["."]
# The call-graph fixtures have their own scan (tests/graph_checks.rs).
exclude = ["graph"]

[hot_path]
roots = ["hot_path_violation.rs::schedule_batch_into"]
"#,
    )
}

#[test]
fn every_lint_fires_on_its_fixture_at_the_documented_lines() -> Result<(), String> {
    let report = engine::check(&fixtures_root(), &fixture_config()?)?;
    let results: Vec<(&str, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.as_str(), f.line, f.lint))
        .collect();
    // One finding per allocating token, and nothing else: the fixtures hold
    // no other violation.
    let expected: Vec<(&str, u32, &str)> = (6..=11)
        .map(|line| ("hot_path_violation.rs", line, HOT_PATH))
        .collect();
    assert_eq!(results, expected);
    Ok(())
}

#[test]
fn workspace_check_is_clean() -> Result<(), String> {
    // The real workspace gate: lint.toml over the actual tree must produce
    // zero findings. This is the same invariant CI enforces via
    // `cargo run -p analysis -- check`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let config_text = std::fs::read_to_string(root.join("lint.toml")).map_err(|e| e.to_string())?;
    let report = engine::check(&root, &Config::parse(&config_text)?)?;
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
    Ok(())
}
