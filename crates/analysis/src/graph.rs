//! Call-edge resolution over the token stream.
//!
//! Without type information, edges are resolved by name with conservative
//! ambiguity: a call site that could target several workspace fns produces
//! an edge to each, flagged ambiguous, so reachability over-approximates
//! rather than misses. Precision comes from four filters:
//!
//! - method-call candidates must take a `self` receiver and have a body,
//!   and their `impl` owner type (or the trait the impl implements, for
//!   dyn dispatch) must be *named* somewhere in the non-test code of the
//!   caller's file — an import, field, or signature makes every real
//!   receiver type visible;
//! - `Qualifier::fn` path calls must match the qualifier against the
//!   candidate's `impl`/trait owner, module file stem, or crate — an
//!   unmatched qualifier means the call targets external code (no edge);
//! - `self.method()` narrows to the caller's own `impl` when it matches;
//! - an edge may not cross from a crate to one it does not depend on, and
//!   binary-target fns are only callable from their own file.
//!
//! A call is a name followed by `(`, or by a balanced turbofish and then
//! `(` (`walk::<4>(..)`, `.collect::<Vec<_>>()`).
//!
//! The same body walk records the panic sites the panic-reachability lint
//! consumes.

use crate::items::{CrateMap, FnItem, ItemIndex, SourceFile};
use crate::lexer::TokenKind;
use std::collections::BTreeMap;

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub from: u32,
    pub to: u32,
    /// Line of the call site in the caller's file.
    pub line: u32,
    /// True when the call site matched several candidates (or a method call
    /// matched impls beyond the caller's own type).
    pub ambiguous: bool,
}

/// A panic site inside some fn body: `.unwrap()`, `.expect()`, `panic!`,
/// `todo!` or `unimplemented!`.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// The bare token name (`unwrap`, `panic`, ...).
    pub token: String,
    pub line: u32,
}

/// The workspace call graph, indexed by [`ItemIndex`] fn indices.
pub struct CallGraph {
    /// Outgoing edges per fn, deduplicated, in call-site order.
    pub edges_from: Vec<Vec<Edge>>,
    /// Panic sites per fn (non-test fns only).
    pub panic_sites: Vec<Vec<PanicSite>>,
}

impl CallGraph {
    pub fn build(files: &[SourceFile], index: &ItemIndex, crates: &CrateMap) -> CallGraph {
        let mut graph = CallGraph {
            edges_from: vec![Vec::new(); index.fns.len()],
            panic_sites: vec![Vec::new(); index.fns.len()],
        };
        for (file_idx, file) in files.iter().enumerate() {
            resolve_file(file, file_idx, index, crates, &mut graph);
        }
        for edges in &mut graph.edges_from {
            dedup_edges(edges);
        }
        graph
    }

    /// All edges out of `from`, for tests and `--why` explanations.
    pub fn edges(&self, from: u32) -> &[Edge] {
        &self.edges_from[from as usize]
    }
}

/// Keep the first edge per (from, to); a later certain resolution of the
/// same target upgrades the ambiguity flag.
fn dedup_edges(edges: &mut Vec<Edge>) {
    let mut seen: BTreeMap<u32, usize> = BTreeMap::new();
    let mut kept: Vec<Edge> = Vec::with_capacity(edges.len());
    for edge in edges.drain(..) {
        match seen.get(&edge.to) {
            Some(&at) => kept[at].ambiguous &= edge.ambiguous,
            None => {
                seen.insert(edge.to, kept.len());
                kept.push(edge);
            }
        }
    }
    *edges = kept;
}

/// Keywords that can precede `(` without being calls.
fn is_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "fn"
            | "as"
            | "in"
            | "move"
            | "unsafe"
            | "else"
            | "let"
            | "mut"
            | "ref"
            | "dyn"
            | "impl"
            | "where"
            | "break"
            | "continue"
            | "await"
    )
}

fn resolve_file(
    file: &SourceFile,
    file_idx: usize,
    index: &ItemIndex,
    crates: &CrateMap,
    graph: &mut CallGraph,
) {
    let src = file.src.as_str();
    let tokens = &file.tokens;
    // Code-token view: adjacency checks must see through comments.
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| {
            !matches!(
                t.kind,
                TokenKind::LineComment | TokenKind::BlockComment | TokenKind::Shebang
            )
        })
        .map(|(i, _)| i)
        .collect();
    let text_at = |c: usize| tokens[code[c]].text(src);
    let kind_at = |c: usize| tokens[code[c]].kind;
    let punct_eq = |c: usize, p: &str| kind_at(c) == TokenKind::Punct && text_at(c) == p;
    let ident_eq = |c: usize, name: &str| kind_at(c) == TokenKind::Ident && text_at(c) == name;
    // Every identifier the file's non-test code names: the receiver-type
    // visibility set for the method-call mention filter (callers are never
    // test fns, so a type only a test names is no receiver of theirs).
    let mentions: std::collections::BTreeSet<&str> = code
        .iter()
        .filter(|&&i| tokens[i].kind == TokenKind::Ident && !file.scopes.in_test[i])
        .map(|&i| tokens[i].text(src))
        .collect();
    let mentioned = |f: &FnItem| {
        f.owner.as_deref().is_some_and(|o| mentions.contains(o))
            || f.trait_name
                .as_deref()
                .is_some_and(|t| mentions.contains(t))
    };
    // Where the callee name at `c` ends: past a balanced turbofish
    // (`walk::<4>(`, `.collect::<Vec<_>>(`) when one follows, so explicit
    // generic arguments do not hide a call. An arrow's `>` closes nothing.
    let name_end = |c: usize| {
        let turbofish = c + 3 < code.len()
            && punct_eq(c + 1, ":")
            && punct_eq(c + 2, ":")
            && punct_eq(c + 3, "<");
        if !turbofish {
            return c;
        }
        let mut depth = 0usize;
        for d in c + 3..code.len() {
            if punct_eq(d, "<") {
                depth += 1;
            } else if punct_eq(d, ">") && !punct_eq(d - 1, "-") {
                depth -= 1;
                if depth == 0 {
                    return d;
                }
            } else if punct_eq(d, ";") {
                break;
            }
        }
        c
    };

    for c in 0..code.len() {
        let idx = code[c];
        if tokens[idx].kind != TokenKind::Ident {
            continue;
        }
        // Attribute the token to its enclosing fn (the *innermost* one —
        // calls inside a nested fn belong to the nested fn, not the outer).
        let Some(local) = file.scopes.enclosing_fn[idx] else {
            continue;
        };
        let caller_idx = index.global(file_idx, local);
        let caller = &index.fns[caller_idx as usize];
        if caller.is_test {
            continue;
        }
        let text = tokens[idx].text(src);
        let line = tokens[idx].line;
        let prev_is_dot = c > 0 && punct_eq(c - 1, ".");
        let end = name_end(c);
        let next_is_paren = end + 1 < code.len() && punct_eq(end + 1, "(");
        let next_is_bang = c + 1 < code.len() && punct_eq(c + 1, "!");

        // --- panic-site collection ----------------------------------------
        let panics = match text {
            "unwrap" | "expect" => prev_is_dot,
            "panic" | "todo" | "unimplemented" => next_is_bang,
            _ => false,
        };
        if panics {
            graph.panic_sites[caller_idx as usize].push(PanicSite {
                token: text.to_string(),
                line,
            });
        }

        // --- call-edge resolution -----------------------------------------
        if !next_is_paren || is_keyword(text) {
            continue;
        }
        let prev_is_path = c >= 2 && punct_eq(c - 1, ":") && punct_eq(c - 2, ":");

        let mut candidates: Vec<u32> = Vec::new();
        let mut ambiguous_method = false;
        if prev_is_dot {
            // Method call: `recv.name(...)`. Candidates are workspace
            // methods by name; a literal `self.` receiver narrows to the
            // caller's own impl when that impl has the method.
            let feasible: Vec<u32> = index
                .named(text)
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &index.fns[i as usize];
                    f.has_self && callable(caller, f, crates)
                })
                .collect();
            // A workspace-unique method name is strong evidence on its own
            // (distinctive names like `set_required_hostname` need no type
            // info); shared names additionally require the candidate's
            // receiver type or trait to be named in the caller's file.
            let all: Vec<u32> = if feasible.len() == 1 {
                feasible
            } else {
                feasible
                    .into_iter()
                    .filter(|&i| {
                        let f = &index.fns[i as usize];
                        f.file == caller.file || mentioned(f)
                    })
                    .collect()
            };
            let self_recv = c >= 2 && ident_eq(c - 2, "self") && !(c >= 3 && punct_eq(c - 3, "."));
            if self_recv && caller.owner.is_some() {
                let own: Vec<u32> = all
                    .iter()
                    .copied()
                    .filter(|&i| index.fns[i as usize].owner == caller.owner)
                    .collect();
                if own.is_empty() {
                    candidates = all;
                } else {
                    candidates = own;
                }
            } else {
                candidates = all;
            }
            // A method call is inherently name-resolved: mark ambiguous
            // whenever more than one impl could answer.
            ambiguous_method = candidates.len() > 1;
        } else if prev_is_path {
            // Path call: `Qualifier::name(...)`. The segment directly
            // before the name decides resolution.
            if c >= 3 && kind_at(c - 3) == TokenKind::Ident {
                let q = text_at(c - 3);
                candidates = match q {
                    // Same-crate module paths.
                    "self" | "crate" | "super" => index
                        .named(text)
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let f = &index.fns[i as usize];
                            f.owner.is_none()
                                && f.krate == caller.krate
                                && callable(caller, f, crates)
                        })
                        .collect(),
                    // The caller's own type.
                    "Self" => index
                        .named(text)
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let f = &index.fns[i as usize];
                            f.owner == caller.owner
                                && caller.owner.is_some()
                                && callable(caller, f, crates)
                        })
                        .collect(),
                    // `Type::assoc`, `module::free`, or `crate_name::free`;
                    // a qualifier matching none of those is external code.
                    _ => index
                        .named(text)
                        .iter()
                        .copied()
                        .filter(|&i| {
                            let f = &index.fns[i as usize];
                            if !callable(caller, f, crates) {
                                return false;
                            }
                            match &f.owner {
                                Some(owner) => owner == q,
                                None => ItemIndex::file_stem(&f.file) == q || f.krate == q,
                            }
                        })
                        .collect(),
                };
            }
            // Non-ident qualifiers (`<T as Trait>::f`) stay unresolved —
            // the method-name edges from the trait impls cover dispatch.
        } else {
            // Bare call: a free fn by name, from this crate or any
            // dependency (an import made it visible).
            candidates = index
                .named(text)
                .iter()
                .copied()
                .filter(|&i| {
                    let f = &index.fns[i as usize];
                    f.owner.is_none() && callable(caller, f, crates)
                })
                .collect();
        }

        let ambiguous = ambiguous_method || candidates.len() > 1;
        for to in candidates {
            graph.edges_from[caller_idx as usize].push(Edge {
                from: caller_idx,
                to,
                line,
                ambiguous,
            });
        }
    }
}

/// May `caller` have an edge to candidate `f` at all?
fn callable(caller: &FnItem, f: &FnItem, crates: &CrateMap) -> bool {
    if f.is_test || !f.has_body {
        return false;
    }
    if f.bin_scoped && f.file != caller.file {
        return false;
    }
    crates.can_call(&caller.krate, &f.krate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, scope};

    fn workspace(files: &[(&str, &str)]) -> (Vec<SourceFile>, ItemIndex, CallGraph) {
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
        (files, index, graph)
    }

    fn edge_specs(index: &ItemIndex, graph: &CallGraph, from_spec: &str) -> Vec<String> {
        let from = index.find_spec(from_spec);
        assert_eq!(from.len(), 1, "caller {from_spec} not unique: {from:?}");
        graph
            .edges(from[0])
            .iter()
            .map(|e| index.fns[e.to as usize].spec())
            .collect()
    }

    #[test]
    fn free_fn_calls_resolve_by_name() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "fn top() { helper(); } fn helper() { leaf() } fn leaf() {}",
        )]);
        assert_eq!(edge_specs(&index, &graph, "top"), vec!["src/a.rs::helper"]);
        assert_eq!(edge_specs(&index, &graph, "helper"), vec!["src/a.rs::leaf"]);
    }

    #[test]
    fn self_method_call_narrows_to_own_impl() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        )]);
        let edges = edge_specs(&index, &graph, "go");
        assert_eq!(edges, vec!["src/a.rs::step"]);
        let go = index.find_spec("go")[0];
        let to = graph.edges(go)[0].to;
        assert_eq!(index.fns[to as usize].owner.as_deref(), Some("A"));
    }

    #[test]
    fn unqualified_method_call_is_conservatively_ambiguous() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "fn top(x: &dyn T) { x.step(); }\n\
             impl A { fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        )]);
        let top = index.find_spec("top")[0];
        let edges = graph.edges(top);
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().all(|e| e.ambiguous));
    }

    #[test]
    fn qualified_path_call_disambiguates_by_owner() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "fn top() { A::make(); }\n\
             impl A { fn make() {} }\n\
             impl B { fn make() {} }",
        )]);
        let top = index.find_spec("top")[0];
        let edges = graph.edges(top);
        assert_eq!(edges.len(), 1);
        assert!(!edges[0].ambiguous);
        assert_eq!(index.fns[edges[0].to as usize].owner.as_deref(), Some("A"));
    }

    #[test]
    fn module_qualified_call_matches_file_stem() {
        let (_, index, graph) = workspace(&[
            ("src/a.rs", "fn top() { util::help(); other::help(); }"),
            ("src/util.rs", "pub fn help() {}"),
            ("src/misc.rs", "pub fn help() {}"),
        ]);
        // `util::help` resolves to util.rs only; `other::help` matches no
        // module stem, so it is external — no edge to misc.rs.
        assert_eq!(edge_specs(&index, &graph, "top"), vec!["src/util.rs::help"]);
    }

    #[test]
    fn unmatched_qualifier_is_external() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "fn top() { Arc::clone(&x); std::mem::take(&mut y); } impl A { fn clone(&self) {} }",
        )]);
        let top = index.find_spec("src/a.rs::top")[0];
        assert!(graph.edges(top).is_empty());
    }

    #[test]
    fn trait_default_methods_and_decls() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "trait S { fn go(&self); fn run(&self) { self.go(); } }\n\
             impl S for A { fn go(&self) { leaf() } }\n\
             fn leaf() {}\n\
             fn top(s: &dyn S) { s.run(); }",
        )]);
        // `run` exists only as a trait default method; the bodyless `go`
        // declaration is never a target — dispatch goes to the impl.
        assert_eq!(edge_specs(&index, &graph, "top"), vec!["src/a.rs::run"]);
        let run = index.find_spec("run")[0];
        let targets: Vec<String> = graph
            .edges(run)
            .iter()
            .map(|e| index.fns[e.to as usize].display())
            .collect();
        assert_eq!(targets, vec!["A::go"]);
    }

    #[test]
    fn nested_fn_calls_attribute_to_the_nested_fn() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "fn outer() { fn inner() { leaf(); } inner(); } fn leaf() {}",
        )]);
        assert_eq!(edge_specs(&index, &graph, "outer"), vec!["src/a.rs::inner"]);
        assert_eq!(edge_specs(&index, &graph, "inner"), vec!["src/a.rs::leaf"]);
    }

    #[test]
    fn calls_inside_macro_invocations_are_seen() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "fn top() { println!(\"{}\", compute()); assert_eq!(compute(), 1); } fn compute() -> u32 { 1 }",
        )]);
        assert_eq!(edge_specs(&index, &graph, "top"), vec!["src/a.rs::compute"]);
    }

    #[test]
    fn types_only_tests_name_are_no_receivers() {
        let (_, index, graph) = workspace(&[
            (
                "src/a.rs",
                "fn top(v: &mut Vec<u32>) { v.push(1); }\n\
                 #[cfg(test)] mod tests { fn t() { Data::default(); } }",
            ),
            (
                "src/data.rs",
                "impl Data { fn push(&mut self, x: u32) {} }\n\
                 impl Other { fn push(&mut self, x: u32) {} }",
            ),
        ]);
        // `push` is shared, so a candidate's owner must be named; `Data` is
        // named only inside the test module, so `v.push` has no edge.
        let top = index.find_spec("top")[0];
        assert!(graph.edges(top).is_empty());
    }

    #[test]
    fn test_fns_neither_call_nor_get_called() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "fn top() { helper(); } fn helper() {}\n\
             #[cfg(test)] mod tests { fn helper() { panic!(\"x\") } #[test] fn t() { helper(); } }",
        )]);
        // top's bare call must not pick up the test-module helper.
        assert_eq!(edge_specs(&index, &graph, "top").len(), 1);
        let t = index.find_spec("t")[0];
        assert!(graph.edges(t).is_empty());
    }

    #[test]
    fn crate_dependencies_filter_edges() {
        let files: Vec<SourceFile> = [
            ("crates/core/src/lib.rs", "pub fn top() { shared(); }"),
            ("crates/util/src/lib.rs", "pub fn shared() {}"),
            ("crates/other/src/lib.rs", "pub fn shared() {}"),
        ]
        .iter()
        .map(|(rel, src)| {
            let tokens = lexer::lex(src);
            let scopes = scope::analyze(src, &tokens, false);
            SourceFile {
                rel: rel.to_string(),
                src: src.to_string(),
                tokens,
                scopes,
            }
        })
        .collect();
        // Build a crate map by hand: core depends on util only.
        let mut crates = CrateMap::single("root");
        crates.dir_to_key = [
            ("core".to_string(), "core".to_string()),
            ("util".to_string(), "util".to_string()),
            ("other".to_string(), "other".to_string()),
        ]
        .into_iter()
        .collect();
        crates.reachable = [(
            "core".to_string(),
            ["util".to_string()].into_iter().collect(),
        )]
        .into_iter()
        .collect();
        let index = ItemIndex::build(&files, &crates);
        let graph = CallGraph::build(&files, &index, &crates);
        let top = index.find_spec("top")[0];
        let targets: Vec<String> = graph
            .edges(top)
            .iter()
            .map(|e| index.fns[e.to as usize].spec())
            .collect();
        assert_eq!(targets, vec!["crates/util/src/lib.rs::shared"]);
    }

    #[test]
    fn panic_sites_are_collected_per_fn() {
        let (_, index, graph) = workspace(&[(
            "src/a.rs",
            "fn a(x: Option<u32>) { x.unwrap(); } fn b(m: &M) { m.lock(); panic!(\"x\") }",
        )]);
        let a = index.find_spec("a")[0] as usize;
        let b = index.find_spec("b")[0] as usize;
        let tokens = |f: usize| -> Vec<&str> {
            graph.panic_sites[f]
                .iter()
                .map(|s| s.token.as_str())
                .collect()
        };
        assert_eq!(tokens(a), vec!["unwrap"]);
        assert_eq!(tokens(b), vec!["panic"]);
    }
}
