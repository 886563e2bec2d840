//! Workspace item indexing.
//!
//! The call-graph passes need a whole-workspace view of every `fn` item —
//! its crate, file, and `impl`/trait owner — plus the crate dependency
//! structure, so that call-edge resolution can reject edges the build graph
//! makes impossible (a crate cannot call into a crate it does not depend
//! on). Both are derived without an AST: fn facts come from the scope pass,
//! crate facts from a minimal read of the workspace `Cargo.toml`s.

use crate::lexer::Token;
use crate::scope::Scopes;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One scanned source file with its lexed and scoped form.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    pub src: String,
    pub tokens: Vec<Token>,
    pub scopes: Scopes,
}

/// One `fn` item in the workspace, with everything resolution needs.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Crate key (package name with `-` normalized to `_`).
    pub krate: String,
    /// `impl` type or trait name when declared inside such a block.
    pub owner: Option<String>,
    /// The trait implemented by the declaring `impl Trait for Type` block.
    pub trait_name: Option<String>,
    /// 1-based line of the fn name.
    pub line: u32,
    pub has_self: bool,
    pub has_body: bool,
    pub is_test: bool,
    /// Binary-target fns (`src/bin/*`, `src/main.rs`) are only callable
    /// from their own file — no library path reaches them.
    pub bin_scoped: bool,
    /// Index into the scanned file list.
    pub file_idx: u32,
}

impl FnItem {
    /// The canonical `file::name` spec used in CLI output and diagnostics.
    pub fn spec(&self) -> String {
        format!("{}::{}", self.file, self.name)
    }

    /// Display name for call chains: `Owner::name` or bare `name`.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A config-side function spec: a fn name, optionally scoped to one file via
/// `path::fn_name` (the path part matched as a suffix). Scoping matters when
/// several impls share a method name.
pub struct FnSpec<'c> {
    pub file: Option<&'c str>,
    pub function: &'c str,
}

impl<'c> FnSpec<'c> {
    pub fn parse(raw: &'c str) -> FnSpec<'c> {
        match raw.rsplit_once("::") {
            Some((file, function)) => FnSpec {
                file: Some(file),
                function,
            },
            None => FnSpec {
                file: None,
                function: raw,
            },
        }
    }

    pub fn matches(&self, path: &str, fn_name: &str) -> bool {
        self.function == fn_name && self.file.is_none_or(|f| path_matches(path, f))
    }

    pub fn matches_item(&self, item: &FnItem) -> bool {
        self.matches(&item.file, &item.name)
    }
}

/// Does `path` match the config path `pattern` (exact or suffix)?
fn path_matches(path: &str, pattern: &str) -> bool {
    path == pattern || path.ends_with(&format!("/{pattern}")) || path.ends_with(pattern)
}

/// The workspace crate structure: which crate each file belongs to and which
/// crates each crate can reach through its dependency edges.
pub struct CrateMap {
    /// `crates/<dir>` → crate key.
    pub(crate) dir_to_key: BTreeMap<String, String>,
    /// Crate key → transitively reachable dependency crate keys (workspace
    /// members only; external crates are invisible to the scan anyway).
    pub(crate) reachable: BTreeMap<String, BTreeSet<String>>,
    /// Crate key for files outside `crates/` (the root package).
    root_key: String,
}

impl CrateMap {
    /// A degenerate map for tests and fixture trees without `Cargo.toml`s:
    /// every file belongs to one crate, so no edge is crate-filtered.
    pub fn single(key: &str) -> CrateMap {
        CrateMap {
            dir_to_key: BTreeMap::new(),
            reachable: BTreeMap::new(),
            root_key: key.to_string(),
        }
    }

    /// Read the workspace and member `Cargo.toml`s under `root`. Missing or
    /// unparsable manifests degrade to [`CrateMap::single`] rather than
    /// failing: crate filtering is a precision refinement, not a gate.
    pub fn load(root: &Path) -> CrateMap {
        let Ok(root_manifest) = std::fs::read_to_string(root.join("Cargo.toml")) else {
            return CrateMap::single("workspace");
        };
        let root_pkg = manifest_package_name(&root_manifest).unwrap_or("workspace".to_string());
        let root_key = normalize(&root_pkg);

        // Member manifests: `crates/<dir>/Cargo.toml` gives each dir its
        // package name and direct dependency list (by package name).
        let mut dir_to_key = BTreeMap::new();
        let mut direct: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut keys: BTreeSet<String> = BTreeSet::new();
        let crates_dir = root.join("crates");
        if let Ok(entries) = std::fs::read_dir(&crates_dir) {
            let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
            dirs.sort();
            for dir in dirs {
                let Ok(text) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
                    continue;
                };
                let dirname = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let key = manifest_package_name(&text)
                    .map(|n| normalize(&n))
                    .unwrap_or_else(|| normalize(&dirname));
                keys.insert(key.clone());
                direct.insert(
                    key.clone(),
                    manifest_dependency_names(&text)
                        .iter()
                        .map(|n| normalize(n))
                        .collect(),
                );
                dir_to_key.insert(dirname, key);
            }
        }
        keys.insert(root_key.clone());
        direct.insert(
            root_key.clone(),
            manifest_dependency_names(&root_manifest)
                .iter()
                .map(|n| normalize(n))
                .collect(),
        );

        // Keep only workspace-member deps, then take the transitive closure.
        let mut reachable: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for key in &keys {
            let mut seen: BTreeSet<String> = BTreeSet::new();
            let mut queue: Vec<String> = vec![key.clone()];
            while let Some(k) = queue.pop() {
                for dep in direct.get(&k).into_iter().flatten() {
                    if keys.contains(dep) && seen.insert(dep.clone()) {
                        queue.push(dep.clone());
                    }
                }
            }
            reachable.insert(key.clone(), seen);
        }
        CrateMap {
            dir_to_key,
            reachable,
            root_key,
        }
    }

    /// The crate key a workspace-relative file belongs to.
    pub fn crate_of(&self, rel: &str) -> String {
        if let Some(dir) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
        {
            return self
                .dir_to_key
                .get(dir)
                .cloned()
                .unwrap_or_else(|| normalize(dir));
        }
        self.root_key.clone()
    }

    /// Can code in crate `from` call into crate `to`? True when they are the
    /// same crate or `to` is a (transitive) dependency of `from`.
    pub fn can_call(&self, from: &str, to: &str) -> bool {
        from == to
            || self
                .reachable
                .get(from)
                .is_some_and(|deps| deps.contains(to))
    }
}

fn normalize(name: &str) -> String {
    name.replace('-', "_")
}

/// `name = "..."` from the `[package]` section of a manifest.
fn manifest_package_name(text: &str) -> Option<String> {
    let mut in_package = false;
    for raw in text.lines() {
        let line = raw.trim();
        if let Some(header) = line.strip_prefix('[') {
            in_package = header.trim_end_matches(']') == "package";
            continue;
        }
        if in_package {
            if let Some(value) = line.strip_prefix("name") {
                let value = value.trim_start();
                if let Some(rest) = value.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The dependency package names from `[dependencies]` (and
/// `[dev-dependencies]`, which matter for the root package's `tests/`).
fn manifest_dependency_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_deps = false;
    for raw in text.lines() {
        let line = raw.trim();
        if let Some(header) = line.strip_prefix('[') {
            let header = header.trim_end_matches(']');
            in_deps = header == "dependencies" || header == "dev-dependencies";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `foo = ...`, `foo.workspace = true`: the package name is the key
        // up to the first `.`, `=`, or whitespace.
        let name: String = line
            .chars()
            .take_while(|c| !matches!(c, '.' | '=' | ' ' | '\t'))
            .collect();
        if !name.is_empty() {
            names.push(name);
        }
    }
    names
}

/// The workspace-wide fn index.
pub struct ItemIndex {
    pub fns: Vec<FnItem>,
    /// fn name → indices into `fns`, for candidate lookup.
    by_name: BTreeMap<String, Vec<u32>>,
    /// Global index of the first fn of each scanned file.
    pub file_offsets: Vec<u32>,
}

impl ItemIndex {
    pub fn build(files: &[SourceFile], crates: &CrateMap) -> ItemIndex {
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        let mut file_offsets = Vec::with_capacity(files.len());
        for (file_idx, file) in files.iter().enumerate() {
            file_offsets.push(fns.len() as u32);
            let krate = crates.crate_of(&file.rel);
            let bin_scoped = is_bin_path(&file.rel);
            for decl in &file.scopes.fn_items {
                let idx = fns.len() as u32;
                by_name.entry(decl.name.clone()).or_default().push(idx);
                fns.push(FnItem {
                    name: decl.name.clone(),
                    file: file.rel.clone(),
                    krate: krate.clone(),
                    owner: decl.owner.clone(),
                    trait_name: decl.trait_name.clone(),
                    line: decl.line,
                    has_self: decl.has_self,
                    has_body: decl.has_body,
                    is_test: decl.is_test,
                    bin_scoped,
                    file_idx: file_idx as u32,
                });
            }
        }
        ItemIndex {
            fns,
            by_name,
            file_offsets,
        }
    }

    /// Candidate fn indices sharing `name`.
    pub fn named(&self, name: &str) -> &[u32] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The global fn index for local declaration `local` of file `file_idx`.
    pub fn global(&self, file_idx: usize, local: u32) -> u32 {
        self.file_offsets[file_idx] + local
    }

    /// All fns matching a `path::fn_name` (or bare-name) spec.
    pub fn find_spec(&self, raw: &str) -> Vec<u32> {
        let spec = FnSpec::parse(raw);
        self.named(spec.function)
            .iter()
            .copied()
            .filter(|&i| spec.matches_item(&self.fns[i as usize]))
            .collect()
    }

    /// The module-path stem a file contributes (`scope.rs` → `scope`,
    /// `x/mod.rs` → `x`), used to resolve `module::fn` path calls.
    pub fn file_stem(rel: &str) -> &str {
        let mut segs = rel.rsplit('/');
        let last = segs.next().unwrap_or(rel);
        let stem = last.strip_suffix(".rs").unwrap_or(last);
        if stem == "mod" {
            segs.next().unwrap_or(stem)
        } else {
            stem
        }
    }
}

/// Binary targets: their fns are invisible to library callers.
fn is_bin_path(rel: &str) -> bool {
    rel.ends_with("/main.rs") || rel == "src/main.rs" || rel.split('/').any(|seg| seg == "bin")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lexer, scope};

    fn file(rel: &str, src: &str) -> SourceFile {
        let tokens = lexer::lex(src);
        let scopes = scope::analyze(src, &tokens, scope::path_is_test(rel));
        SourceFile {
            rel: rel.to_string(),
            src: src.to_string(),
            tokens,
            scopes,
        }
    }

    #[test]
    fn index_records_crate_owner_and_spec() {
        let files = vec![
            file(
                "crates/core/src/service.rs",
                "impl SchedulerService { fn schedule(&self) {} } fn free() {}",
            ),
            file("src/lib.rs", "fn rooty() {}"),
        ];
        let crates = CrateMap::single("one");
        let index = ItemIndex::build(&files, &crates);
        assert_eq!(index.fns.len(), 3);
        assert_eq!(index.fns[0].owner.as_deref(), Some("SchedulerService"));
        assert!(index.fns[0].has_self);
        assert_eq!(index.fns[0].spec(), "crates/core/src/service.rs::schedule");
        assert_eq!(index.named("free"), &[1]);
        assert_eq!(index.find_spec("service.rs::schedule"), vec![0]);
        assert_eq!(index.find_spec("schedule"), vec![0]);
        assert!(index.find_spec("other.rs::schedule").is_empty());
    }

    #[test]
    fn file_stems() {
        assert_eq!(ItemIndex::file_stem("crates/a/src/scope.rs"), "scope");
        assert_eq!(ItemIndex::file_stem("crates/a/src/net/mod.rs"), "net");
        assert_eq!(ItemIndex::file_stem("lib.rs"), "lib");
    }

    #[test]
    fn bin_paths_are_scoped() {
        assert!(is_bin_path("crates/experiments/src/bin/sweep.rs"));
        assert!(is_bin_path("src/main.rs"));
        assert!(!is_bin_path("crates/core/src/service.rs"));
    }

    #[test]
    fn crate_map_reads_real_workspace_shape() {
        // Exercise the manifest parsers on synthetic text rather than the
        // real tree, so the test pins behaviour, not repo layout.
        assert_eq!(
            manifest_package_name("[package]\nname = \"netsched-core\"\n"),
            Some("netsched-core".to_string())
        );
        assert_eq!(
            manifest_dependency_names(
                "[dependencies]\nserde.workspace = true\ncluster = { path = \"x\" }\n\
                 [features]\nfast = []\n"
            ),
            vec!["serde".to_string(), "cluster".to_string()]
        );
    }
}
