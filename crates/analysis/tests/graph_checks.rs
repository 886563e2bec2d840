//! End-to-end self-tests for the call-graph layer over the
//! `fixtures/graph` mini-workspace: exact expected edges for the
//! resolution edge cases (same-named methods across impls, a trait
//! default method, nested fns, calls inside macro invocations), and the
//! graph lints — derived hot-path enforcement, panic-reachability with
//! call chains, blocking-on-read-path, stale allowlist entries.

use analysis::config::Config;
use analysis::engine::{self, Workspace};
use analysis::lints::{Finding, HOT_PATH, PANIC, STALE_ALLOW};
use analysis::reach::{BLOCKING_READ, PANIC_REACH};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

/// A config scoping the scan to the graph fixtures, with the fixture hot
/// and read paths configured. The `functions` list is empty on purpose:
/// enforcement must come from derivation alone.
fn graph_config() -> Config {
    Config::parse(
        r#"
[paths]
include = ["graph"]

[hot_path]
roots = ["graph/hot.rs::drive"]

[[hot_path.stop]]
function = "graph/hot.rs::refresh"
reason = "cold refresh branch"

[read_path]
roots = ["graph/readers.rs::serve"]

[[read_path.allow]]
file = "graph/readers.rs"
token = "recv"
reason = "bounded fixture channel"

[[panic.allow]]
file = "graph/readers.rs"
token = "expect"
reason = "deliberately stale: readers.rs has no expect site"
"#,
    )
    .expect("graph fixture config parses")
}

fn workspace() -> Workspace {
    engine::parse_workspace(&fixtures_root(), &graph_config()).expect("fixture scan succeeds")
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
fn resolves_the_exact_expected_edges() {
    let ws = workspace();

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
}

#[test]
fn turbofish_calls_are_edges() {
    let ws = workspace();
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
}

fn run_check() -> Vec<Finding> {
    engine::check(&fixtures_root(), &graph_config(), &BTreeSet::new())
        .expect("fixture scan succeeds")
        .findings
}

fn of_lint<'r>(findings: &'r [Finding], lint: &str) -> Vec<&'r Finding> {
    findings.iter().filter(|f| f.lint == lint).collect()
}

#[test]
fn derivation_enforces_allocation_freedom_past_the_stop() {
    let findings = run_check();
    // `step` is nowhere in `functions`; the `vec!` fires purely because
    // `step` is derivable from the root. The stopped `refresh` branch and
    // everything outside the closure stay unenforced.
    let hot = of_lint(&findings, HOT_PATH);
    assert_eq!(hot.len(), 1, "{hot:?}");
    assert_eq!((hot[0].file.as_str(), hot[0].line), ("graph/hot.rs", 18));
    assert!(hot[0].message.contains("`vec!`"), "{}", hot[0].message);
    assert!(hot[0].message.contains("`step`"), "{}", hot[0].message);
}

#[test]
fn panic_reachability_reports_the_call_chain() {
    let findings = run_check();
    // The token-level panic lint flags the raw site…
    let panics = of_lint(&findings, PANIC);
    assert_eq!(panics.len(), 1, "{panics:?}");
    assert_eq!(
        (panics[0].file.as_str(), panics[0].line),
        ("graph/hot.rs", 18)
    );
    // …and the graph lint explains how the decision root reaches it.
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
}

#[test]
fn blocking_on_read_path_fires_through_trait_dispatch() {
    let findings = run_check();
    // The `lock` in `Published::load` is unallowed: one finding with the
    // dispatch chain. The `recv` in `StoreBacked::load` is covered by the
    // allow entry, which is therefore live (no stale finding for it).
    let blocked = of_lint(&findings, BLOCKING_READ);
    assert_eq!(blocked.len(), 1, "{blocked:?}");
    assert_eq!(
        (blocked[0].file.as_str(), blocked[0].line),
        ("graph/readers.rs", 18)
    );
    assert!(
        blocked[0]
            .message
            .contains("serve -> Source::total -> Published::load"),
        "{}",
        blocked[0].message
    );
}

#[test]
fn stale_allow_entries_are_reported() {
    let findings = run_check();
    let stale = of_lint(&findings, STALE_ALLOW);
    assert_eq!(stale.len(), 1, "{stale:?}");
    assert!(
        stale[0].message.contains("expect") && stale[0].message.contains("graph/readers.rs"),
        "{}",
        stale[0].message
    );
}
