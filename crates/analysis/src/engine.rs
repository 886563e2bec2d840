//! The analysis driver: walk the workspace, lex + scope every Rust file,
//! build the item index and call graph, run the token-level and graph-level
//! lints, and report.

use crate::config::Config;
use crate::graph::CallGraph;
use crate::items::{CrateMap, FnSpec, ItemIndex, SourceFile};
use crate::lexer;
use crate::lints::{self, Finding};
use crate::reach;
use crate::scope;
use std::fs;
use std::path::{Path, PathBuf};

/// The outcome of a full `check` run.
pub struct Report {
    /// Every finding, sorted for stable output.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

/// The fully parsed workspace: every scanned file with its tokens and
/// scopes, the fn-item index, and the call graph. `check` runs lints over
/// it; the `graph` CLI subcommand queries it directly.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub index: ItemIndex,
    pub graph: CallGraph,
}

/// Walk, read, lex, and scope every included file, then build the item
/// index and call graph over the result.
pub fn parse_workspace(root: &Path, config: &Config) -> Result<Workspace, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for include in &config.include {
        // `.` scans the root itself without polluting relative paths.
        let base = if include == "." {
            root.to_path_buf()
        } else {
            root.join(include)
        };
        if !base.exists() {
            return Err(format!(
                "include path `{include}` does not exist under {}",
                root.display()
            ));
        }
        collect_rust_files(&base, &mut paths)?;
    }
    paths.sort();
    paths.dedup();

    let mut files: Vec<SourceFile> = Vec::new();
    for path in &paths {
        let rel = relative_path(root, path);
        if config.exclude.iter().any(|e| is_excluded(&rel, e)) {
            continue;
        }
        let src =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let tokens = lexer::lex(&src);
        let scopes = scope::analyze(&src, &tokens, scope::path_is_test(&rel));
        files.push(SourceFile {
            rel,
            src,
            tokens,
            scopes,
        });
    }

    let crates = CrateMap::load(root);
    let index = ItemIndex::build(&files, &crates);
    let graph = CallGraph::build(&files, &index, &crates);
    Ok(Workspace {
        files,
        index,
        graph,
    })
}

/// Run the analyzer over the workspace rooted at `root`.
pub fn check(root: &Path, config: &Config) -> Result<Report, String> {
    let ws = parse_workspace(root, config)?;

    // Derivation is enforcement: the allocation-free set checked by the
    // hot-path-alloc token lint is the call-graph closure from the
    // configured roots, so a refactor that adds a callee to the hot path
    // extends enforcement automatically.
    let hot_specs = reach::derived_hot_specs(&ws.index, &ws.graph, config);
    let hot_path: Vec<FnSpec<'_>> = hot_specs.iter().map(|raw| FnSpec::parse(raw)).collect();

    let mut findings = Vec::new();
    for file in &ws.files {
        let input = lints::FileInput {
            path: &file.rel,
            src: &file.src,
            tokens: &file.tokens,
            scopes: &file.scopes,
        };
        lints::hot_path_alloc(&input, &hot_path, &mut findings);
    }
    reach::run_graph_lints(&ws.index, &ws.graph, config, &mut findings);

    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.lint,
            b.message.as_str(),
        ))
    });
    Ok(Report {
        findings,
        files_scanned: ws.files.len(),
    })
}

fn is_excluded(rel: &str, exclude: &str) -> bool {
    rel == exclude || rel.starts_with(&format!("{exclude}/"))
}

fn relative_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    // Normalize to forward slashes so config patterns are portable.
    rel.to_string_lossy().replace('\\', "/")
}

fn collect_rust_files(base: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if base.is_file() {
        if base.extension().is_some_and(|e| e == "rs") {
            out.push(base.to_path_buf());
        }
        return Ok(());
    }
    let entries = fs::read_dir(base).map_err(|e| format!("cannot list {}: {e}", base.display()))?;
    let mut children: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", base.display()))?;
        children.push(entry.path());
    }
    children.sort();
    for child in children {
        let name = child
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if child.is_dir() {
            // `target/` build output is never source.
            if name == "target" {
                continue;
            }
            collect_rust_files(&child, out)?;
        } else if name.ends_with(".rs") {
            out.push(child);
        }
    }
    Ok(())
}
