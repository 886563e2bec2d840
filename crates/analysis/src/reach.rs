//! Reachability over the call graph, and the lints built on it.
//!
//! A closure is a deterministic BFS from configured root fns, optionally cut
//! at stop fns (documented cold branches). Parent pointers let every
//! membership be *explained* as a call chain, which the lints print so a
//! finding is an argument, not an assertion. Two lints consume closures:
//!
//! - **hot-path-closure** — every root and stop spec that the derived
//!   allocation-free set is built from resolves to a fn.
//! - **panic-reachability** — no panic site is reachable from the decision
//!   roots; each one that is gets reported with its chain.

use crate::config::Config;
use crate::graph::CallGraph;
use crate::items::ItemIndex;
use crate::lints::Finding;
use std::collections::BTreeSet;

pub const HOT_CLOSURE: &str = "hot-path-closure";
pub const PANIC_REACH: &str = "panic-reachability";

/// A computed closure with provenance.
pub struct Reach {
    /// For each fn index: `Some(parent)` when reachable (roots point to
    /// themselves). Indexed like `ItemIndex::fns`.
    parent: Vec<Option<u32>>,
    /// Members in BFS discovery order.
    pub members: Vec<u32>,
}

impl Reach {
    pub fn contains(&self, idx: u32) -> bool {
        self.parent[idx as usize].is_some()
    }

    /// The root-to-`idx` call chain as fn indices (empty when unreachable).
    pub fn chain(&self, idx: u32) -> Vec<u32> {
        if !self.contains(idx) {
            return Vec::new();
        }
        let mut chain = vec![idx];
        let mut at = idx;
        while let Some(parent) = self.parent[at as usize] {
            if parent == at {
                break;
            }
            chain.push(parent);
            at = parent;
        }
        chain.reverse();
        chain
    }

    /// The chain rendered as `a -> b -> c` display names.
    pub fn chain_text(&self, index: &ItemIndex, idx: u32) -> String {
        self.chain(idx)
            .iter()
            .map(|&i| index.fns[i as usize].display())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// BFS closure from `roots` (specs), cut at `stops` (specs): a stopped fn is
/// neither a member nor traversed. Test fns never join a closure.
pub fn closure(index: &ItemIndex, graph: &CallGraph, roots: &[String], stops: &[String]) -> Reach {
    let stop_set: BTreeSet<u32> = stops.iter().flat_map(|s| index.find_spec(s)).collect();
    let mut parent: Vec<Option<u32>> = vec![None; index.fns.len()];
    let mut queue: Vec<u32> = Vec::new();
    for root in roots {
        for idx in index.find_spec(root) {
            let item = &index.fns[idx as usize];
            if item.is_test || stop_set.contains(&idx) || parent[idx as usize].is_some() {
                continue;
            }
            parent[idx as usize] = Some(idx);
            queue.push(idx);
        }
    }
    let mut members = queue.clone();
    let mut head = 0usize;
    while head < queue.len() {
        let at = queue[head];
        head += 1;
        for edge in graph.edges(at) {
            let to = edge.to;
            if parent[to as usize].is_some() || stop_set.contains(&to) {
                continue;
            }
            if index.fns[to as usize].is_test {
                continue;
            }
            parent[to as usize] = Some(at);
            queue.push(to);
            members.push(to);
        }
    }
    Reach { parent, members }
}

/// Run every graph lint. A no-op when no hot-path roots are configured.
pub fn run_graph_lints(
    index: &ItemIndex,
    graph: &CallGraph,
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    if !config.hot_path_roots.is_empty() {
        hot_path_closure(index, config, findings);
        panic_reachability(index, graph, config, findings);
    }
}

fn push(findings: &mut Vec<Finding>, file: &str, line: u32, lint: &'static str, message: String) {
    findings.push(Finding {
        file: file.to_string(),
        line,
        lint,
        message,
    });
}

/// The derived allocation-free set: every fn in the stopped closure from
/// the hot-path roots, as exact `file::name` specs. The engine feeds these
/// into the hot-path-alloc token lint, so the enforcement set is *derived*
/// from the call graph — a refactor that adds a callee extends enforcement
/// automatically instead of silently rotting a hand-kept list.
pub fn derived_hot_specs(index: &ItemIndex, graph: &CallGraph, config: &Config) -> Vec<String> {
    if config.hot_path_roots.is_empty() {
        return Vec::new();
    }
    let reach = closure(
        index,
        graph,
        &config.hot_path_roots,
        &config.hot_path_stop_specs(),
    );
    let mut specs: Vec<String> = reach
        .members
        .iter()
        .map(|&i| index.fns[i as usize].spec())
        .collect();
    specs.sort();
    specs.dedup();
    specs
}

/// Every root and stop spec the derived hot-path closure is built from must
/// resolve: a spec that matches nothing silently shrinks what is enforced.
fn hot_path_closure(index: &ItemIndex, config: &Config, findings: &mut Vec<Finding>) {
    for root in &config.hot_path_roots {
        if index.find_spec(root).is_empty() {
            push(
                findings,
                "lint.toml",
                1,
                HOT_CLOSURE,
                format!("root `{root}` matches no fn in the workspace"),
            );
        }
    }
    for stop in &config.hot_path_stops {
        if index.find_spec(&stop.function).is_empty() {
            push(
                findings,
                "lint.toml",
                stop.line,
                HOT_CLOSURE,
                format!(
                    "stop entry `{}` matches no fn in the workspace",
                    stop.function
                ),
            );
        }
    }
}

/// Report every panic site reachable from the decision roots, with its
/// chain. The closure ignores hot-path stops: a documented cold branch is
/// still runtime-reachable, and a panic there still kills a decision.
fn panic_reachability(
    index: &ItemIndex,
    graph: &CallGraph,
    config: &Config,
    findings: &mut Vec<Finding>,
) {
    let reach = closure(index, graph, &config.hot_path_roots, &[]);
    // One finding per (token, fn): a fn with three `expect`s is one
    // decision, not three.
    let mut seen: BTreeSet<(String, u32)> = BTreeSet::new();
    for &idx in &reach.members {
        let item = &index.fns[idx as usize];
        for site in &graph.panic_sites[idx as usize] {
            if !seen.insert((site.token.clone(), idx)) {
                continue;
            }
            push(
                findings,
                &item.file,
                site.line,
                PANIC_REACH,
                format!(
                    "`{}` in `{}` is reachable from the decision root ({})",
                    site.token,
                    item.name,
                    reach.chain_text(index, idx)
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopEntry;
    use crate::graph::CallGraph;
    use crate::items::{CrateMap, SourceFile};
    use crate::{lexer, scope};

    fn workspace(files: &[(&str, &str)]) -> (ItemIndex, CallGraph) {
        let files: Vec<SourceFile> = files
            .iter()
            .map(|(rel, src)| {
                let tokens = lexer::lex(src);
                let scopes = scope::analyze(src, &tokens, scope::path_is_test(rel));
                SourceFile {
                    rel: rel.to_string(),
                    src: src.to_string(),
                    tokens,
                    scopes,
                }
            })
            .collect();
        let crates = CrateMap::single("ws");
        let index = ItemIndex::build(&files, &crates);
        let graph = CallGraph::build(&files, &index, &crates);
        (index, graph)
    }

    const CHAIN_SRC: &str = "fn root() { mid(); cold(); }\n\
                             fn mid() { leaf(); }\n\
                             fn leaf() {}\n\
                             fn cold() { icy(); }\n\
                             fn icy() {}\n\
                             fn unrelated() {}";

    #[test]
    fn closure_members_and_chains() {
        let (index, graph) = workspace(&[("src/a.rs", CHAIN_SRC)]);
        let reach = closure(&index, &graph, &["root".to_string()], &[]);
        let names: BTreeSet<String> = reach
            .members
            .iter()
            .map(|&i| index.fns[i as usize].name.clone())
            .collect();
        assert_eq!(
            names,
            ["root", "mid", "leaf", "cold", "icy"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        );
        let leaf = index.find_spec("leaf")[0];
        assert_eq!(reach.chain_text(&index, leaf), "root -> mid -> leaf");
    }

    #[test]
    fn stops_cut_the_branch() {
        let (index, graph) = workspace(&[("src/a.rs", CHAIN_SRC)]);
        let reach = closure(&index, &graph, &["root".to_string()], &["cold".to_string()]);
        let cold = index.find_spec("cold")[0];
        let icy = index.find_spec("icy")[0];
        assert!(!reach.contains(cold));
        assert!(!reach.contains(icy));
        assert!(reach.contains(index.find_spec("leaf")[0]));
    }

    fn graph_config() -> Config {
        Config {
            include: vec![".".into()],
            hot_path_roots: vec!["root".into()],
            ..Default::default()
        }
    }

    #[test]
    fn derived_specs_are_the_stopped_closure() {
        let (index, graph) = workspace(&[("src/a.rs", CHAIN_SRC)]);
        let mut config = graph_config();
        config.hot_path_stops.push(StopEntry {
            function: "cold".into(),
            reason: "cold branch".into(),
            line: 1,
        });
        let specs = derived_hot_specs(&index, &graph, &config);
        assert_eq!(
            specs,
            vec!["src/a.rs::leaf", "src/a.rs::mid", "src/a.rs::root"]
        );
        // No roots configured → empty set: nothing is enforced
        // allocation-free.
        config.hot_path_roots.clear();
        assert!(derived_hot_specs(&index, &graph, &config).is_empty());
    }

    #[test]
    fn panic_reachability_reports_chains() {
        let src = "fn root() { mid(); cold(); }\n\
                   fn mid(x: Option<u32>) { x.unwrap(); x.unwrap(); }\n\
                   fn cold() { panic!(\"cold\"); }\n\
                   fn far(x: Option<u32>) { x.expect(\"m\"); }";
        let (index, graph) = workspace(&[("src/a.rs", src)]);
        let mut config = graph_config();
        // A stop cuts `cold` from the allocation-free set, not from the
        // panic closure: a cold branch still panics at runtime.
        config.hot_path_stops.push(StopEntry {
            function: "cold".into(),
            reason: "cold branch".into(),
            line: 1,
        });
        let mut findings = Vec::new();
        run_graph_lints(&index, &graph, &config, &mut findings);
        let reach: Vec<&Finding> = findings.iter().filter(|f| f.lint == PANIC_REACH).collect();
        // One finding per (token, fn) — the two unwraps in `mid` are one
        // decision — plus the stopped `panic!`; the unreachable `far` expect
        // is not reported.
        assert_eq!(reach.len(), 2, "{reach:?}");
        assert!(reach[0].message.contains("`unwrap` in `mid`"));
        assert!(reach[0].message.contains("(root -> mid)"));
        assert!(reach[1].message.contains("`panic` in `cold`"));
        assert!(reach[1].message.contains("(root -> cold)"));
    }

    #[test]
    fn unresolvable_specs_are_findings() {
        let (index, graph) = workspace(&[("src/a.rs", "fn root() {}")]);
        let mut config = graph_config();
        config.hot_path_roots = vec!["missing_fn".into()];
        config.hot_path_stops.push(StopEntry {
            function: "gone_fn".into(),
            reason: "renamed away".into(),
            line: 7,
        });
        let mut findings = Vec::new();
        run_graph_lints(&index, &graph, &config, &mut findings);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("root `missing_fn` matches no fn")));
        assert!(findings.iter().any(|f| f.line == 7
            && f.lint == HOT_CLOSURE
            && f.message.contains("stop entry `gone_fn` matches no fn")));
    }
}
