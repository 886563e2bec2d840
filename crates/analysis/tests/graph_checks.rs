//! End-to-end self-tests for the call-graph layer over the
//! `fixtures/graph` mini-workspace: exact expected edges for the
//! resolution edge cases (same-named methods across impls, a trait
//! default method, nested fns, calls inside macro invocations), and the
//! graph lints — derived hot-path enforcement and panic-reachability with
//! call chains.

use analysis::config::Config;
use analysis::engine::{self, Workspace};
use analysis::lints::{Finding, HOT_PATH};
use analysis::reach::PANIC_REACH;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// A config scoping the scan to the graph fixtures, with the fixture hot
/// path configured: allocation-freedom is enforced on whatever the closure
/// from the hot root derives.
fn graph_config() -> Result<Config, String> {
    Config::parse(
        r#"
[paths]
include = ["graph"]

[hot_path]
roots = ["graph/hot.rs::drive"]

[[hot_path.stop]]
function = "graph/hot.rs::refresh"
reason = "cold refresh branch"
"#,
    )
}

fn workspace() -> Result<Workspace, String> {
    engine::parse_workspace(&fixtures_root(), &graph_config()?)
}

/// Outgoing edges of `from`, as `(display-name, ambiguous)` pairs in
/// source order. Display names disambiguate same-named methods by owner.
fn edges_of(ws: &Workspace, from: &str) -> Vec<(String, bool)> {
    let targets = ws.index.find_spec(from);
    assert_eq!(targets.len(), 1, "`{from}` must name one fixture fn");
    ws.graph
        .edges(targets[0])
        .iter()
        .map(|e| (ws.index.fns[e.to as usize].display(), e.ambiguous))
        .collect()
}

#[test]
fn resolves_the_exact_expected_edges() -> Result<(), String> {
    let ws = workspace()?;

    // `drive` calls its own impl's `step`, the free `refresh`, and —
    // through the `emit!(...)` macro invocation — its own `flush`.
    assert_eq!(
        edges_of(&ws, "graph/hot.rs::drive"),
        vec![
            ("Engine::step".to_string(), false),
            ("refresh".to_string(), false),
            ("Engine::flush".to_string(), false),
        ]
    );
    // `step` only calls std (`unwrap`, `drop`, `vec!`): no workspace edges.
    assert_eq!(edges_of(&ws, "graph/hot.rs::step"), vec![]);
    // A nested fn is an ordinary callee of its enclosing fn.
    assert_eq!(
        edges_of(&ws, "graph/hot.rs::flush"),
        vec![("nested".to_string(), false)]
    );

    // `serve` resolves the workspace-unique `total` to the trait default
    // method with certainty; `total`'s `self.load()` dispatches to BOTH
    // same-named impls, each edge flagged ambiguous.
    assert_eq!(
        edges_of(&ws, "graph/readers.rs::serve"),
        vec![("Source::total".to_string(), false)]
    );
    assert_eq!(
        edges_of(&ws, "graph/readers.rs::total"),
        vec![
            ("Published::load".to_string(), true),
            ("StoreBacked::load".to_string(), true),
        ]
    );
    Ok(())
}

#[test]
fn turbofish_calls_are_edges() -> Result<(), String> {
    let ws = workspace()?;
    // A balanced `::<…>` between the name and `(` is skipped for path,
    // method and bare calls alike — const generics, nested `>>` and an
    // arrow's `>` included.
    assert_eq!(
        edges_of(&ws, "graph/turbofish.rs::run"),
        vec![
            ("Kernel::walk".to_string(), false),
            ("Kernel::fold".to_string(), false),
            ("spread".to_string(), false),
            ("apply".to_string(), false),
        ]
    );
    Ok(())
}

fn run_check() -> Result<Vec<Finding>, String> {
    Ok(engine::check(&fixtures_root(), &graph_config()?)?.findings)
}

fn of_lint<'r>(findings: &'r [Finding], lint: &str) -> Vec<&'r Finding> {
    findings.iter().filter(|f| f.lint == lint).collect()
}

#[test]
fn derivation_enforces_allocation_freedom_past_the_stop() -> Result<(), String> {
    let findings = run_check()?;
    // `step` is listed nowhere; the `vec!` fires purely because `step` is
    // derivable from the root. The stopped `refresh` branch and
    // everything outside the closure stay unenforced.
    let hot = of_lint(&findings, HOT_PATH);
    assert_eq!(hot.len(), 1, "{hot:?}");
    assert_eq!((hot[0].file.as_str(), hot[0].line), ("graph/hot.rs", 18));
    assert!(hot[0].message.contains("`vec!`"), "{}", hot[0].message);
    assert!(hot[0].message.contains("`step`"), "{}", hot[0].message);
    Ok(())
}

#[test]
fn panic_reachability_reports_the_call_chain() -> Result<(), String> {
    let findings = run_check()?;
    // The `unwrap` in `step` is reachable: the finding explains how the
    // decision root reaches it.
    let reach = of_lint(&findings, PANIC_REACH);
    assert_eq!(reach.len(), 1, "{reach:?}");
    assert_eq!(
        (reach[0].file.as_str(), reach[0].line),
        ("graph/hot.rs", 18)
    );
    assert!(
        reach[0].message.contains("Engine::drive -> Engine::step"),
        "{}",
        reach[0].message
    );
    Ok(())
}
