//! The invariant lints.
//!
//! Every lint runs over the same inputs — the token stream, its scope facts,
//! and the config — and appends [`Finding`]s. Test code (by attribute,
//! module, or directory) is exempt everywhere: the invariants protect the
//! shipped library surface, not the harnesses that validate it.

use crate::config::Config;
use crate::items::{path_matches, FnSpec};
use crate::lexer::{Token, TokenKind};
use crate::scope::Scopes;
use std::collections::BTreeSet;

pub const ATOMICS: &str = "atomics-discipline";
pub const HOT_PATH: &str = "hot-path-alloc";
pub const UNSAFE_FORBID: &str = "unsafe-forbid";

/// One diagnostic, rendered as `file:line: [lint] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Everything the lints know about one file.
pub struct FileInput<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    pub src: &'a str,
    pub tokens: &'a [Token],
    pub scopes: &'a Scopes,
    /// Is this file a crate root (`src/lib.rs`) that must carry
    /// `#![forbid(unsafe_code)]` and deny the [`PANIC_GATE`] lints?
    pub is_crate_root: bool,
}

/// Comment-derived line facts for justification lookups.
struct CommentLines {
    /// Every line covered by any comment.
    commented: BTreeSet<u32>,
    /// Lines covered by a comment containing the `ordering:` marker.
    ordering_marker: BTreeSet<u32>,
}

impl CommentLines {
    fn build(src: &str, tokens: &[Token]) -> CommentLines {
        let mut commented = BTreeSet::new();
        let mut ordering_marker = BTreeSet::new();
        for t in tokens {
            if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
                continue;
            }
            let text = t.text(src);
            let end_line = t.line + text.matches('\n').count() as u32;
            let has_marker = text.contains("ordering:");
            for line in t.line..=end_line {
                commented.insert(line);
                if has_marker {
                    ordering_marker.insert(line);
                }
            }
        }
        CommentLines {
            commented,
            ordering_marker,
        }
    }

    /// Is an atomic use at `line` justified? Accepts a marker comment on the
    /// same line or anywhere in the contiguous comment block directly above.
    fn justified(&self, line: u32) -> bool {
        if self.ordering_marker.contains(&line) {
            return true;
        }
        let mut k = line.saturating_sub(1);
        while k > 0 && self.commented.contains(&k) {
            if self.ordering_marker.contains(&k) {
                return true;
            }
            k -= 1;
        }
        false
    }
}

/// Run every token lint over one file. `hot_path` is the allocation-free
/// set: the call-graph closure the engine derives from `[hot_path] roots`.
pub fn run_all(
    input: &FileInput<'_>,
    config: &Config,
    hot_path: &[FnSpec<'_>],
    findings: &mut Vec<Finding>,
) {
    // Indices of code tokens (comments and shebang dropped), so adjacency
    // checks (`.` before a method name, `!` after a macro name) see through
    // interleaved comments.
    let code: Vec<usize> = input
        .tokens
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
    let comments = CommentLines::build(input.src, input.tokens);
    let is_protocol_file = config
        .protocol_files
        .iter()
        .any(|f| path_matches(input.path, f));

    let text_at = |c: usize| input.tokens[code[c]].text(input.src);
    let kind_at = |c: usize| input.tokens[code[c]].kind;
    let punct_eq = |c: usize, p: &str| kind_at(c) == TokenKind::Punct && text_at(c) == p;
    let ident_eq = |c: usize, name: &str| kind_at(c) == TokenKind::Ident && text_at(c) == name;
    let push = |findings: &mut Vec<Finding>, line: u32, lint: &'static str, message: String| {
        findings.push(Finding {
            file: input.path.to_string(),
            line,
            lint,
            message,
        });
    };

    // Protocol pairing state for the atomics lint.
    let mut first_acquire: Option<u32> = None;
    let mut first_release: Option<u32> = None;
    let mut has_acquire = false;
    let mut has_release = false;

    for c in 0..code.len() {
        let idx = code[c];
        let tok = &input.tokens[idx];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let in_test = input.scopes.in_test[idx];
        let text = tok.text(input.src);

        // --- atomics-discipline -------------------------------------------
        if matches!(
            text,
            "Relaxed" | "SeqCst" | "Acquire" | "Release" | "AcqRel"
        ) && c >= 3
            && punct_eq(c - 1, ":")
            && punct_eq(c - 2, ":")
            && ident_eq(c - 3, "Ordering")
            && !in_test
        {
            match text {
                "Relaxed" | "SeqCst" if !comments.justified(tok.line) => {
                    push(
                        findings,
                        tok.line,
                        ATOMICS,
                        format!(
                            "`Ordering::{text}` requires a same-line or preceding \
                             `// ordering:` justification comment"
                        ),
                    );
                }
                "Acquire" => {
                    has_acquire = true;
                    first_acquire.get_or_insert(tok.line);
                }
                "Release" => {
                    has_release = true;
                    first_release.get_or_insert(tok.line);
                }
                "AcqRel" => {
                    has_acquire = true;
                    has_release = true;
                }
                _ => {}
            }
        }

        // --- hot-path-alloc -----------------------------------------------
        if !in_test {
            if let Some(fn_name) = input.scopes.fn_name(idx) {
                if hot_path.iter().any(|e| e.matches(input.path, fn_name)) {
                    let next_is_bang = c + 1 < code.len() && punct_eq(c + 1, "!");
                    let prev_is_dot = c > 0 && punct_eq(c - 1, ".");
                    let next_is_path_new = c + 3 < code.len()
                        && punct_eq(c + 1, ":")
                        && punct_eq(c + 2, ":")
                        && ident_eq(c + 3, "new");
                    let banned = match text {
                        "vec" | "format" if next_is_bang => Some(format!("`{text}!`")),
                        "to_string" | "to_owned" | "collect" if prev_is_dot => {
                            Some(format!("`.{text}()`"))
                        }
                        "Vec" | "Box" if next_is_path_new => Some(format!("`{text}::new`")),
                        _ => None,
                    };
                    if let Some(what) = banned {
                        push(
                            findings,
                            tok.line,
                            HOT_PATH,
                            format!("allocating token {what} in hot-path fn `{fn_name}`"),
                        );
                    }
                }
            }
        }
    }

    // File-level atomics pairing for protocol files: an Acquire load without
    // any Release(-or-AcqRel) store in the same file (or vice versa) means
    // the handoff protocol is incomplete on one side.
    if is_protocol_file {
        if has_acquire && !has_release {
            push(
                findings,
                first_acquire.unwrap_or(1),
                ATOMICS,
                "protocol file performs Acquire loads but no Release (or AcqRel) store \
                 — the publication side of the handoff is missing"
                    .to_string(),
            );
        }
        if has_release && !has_acquire {
            push(
                findings,
                first_release.unwrap_or(1),
                ATOMICS,
                "protocol file performs Release stores but no Acquire (or AcqRel) load \
                 — the consumption side of the handoff is missing"
                    .to_string(),
            );
        }
    }

    // --- unsafe-forbid ----------------------------------------------------
    if input.is_crate_root {
        let forbidden = inner_attr_idents(input.src, input.tokens, &code, "forbid");
        if !forbidden.contains("unsafe_code") {
            push(
                findings,
                1,
                UNSAFE_FORBID,
                "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
            );
        }
        let denied = inner_attr_idents(input.src, input.tokens, &code, "deny");
        let missing: Vec<String> = PANIC_GATE
            .iter()
            .filter(|lint| !denied.contains(*lint))
            .map(|lint| format!("clippy::{lint}"))
            .collect();
        if !missing.is_empty() {
            push(
                findings,
                1,
                UNSAFE_FORBID,
                format!(
                    "crate root does not deny {}; clippy only gates the panic surface \
                     where the root says `#![deny(...)]`",
                    missing.join(", ")
                ),
            );
        }
    }
}

/// The clippy lints every crate root must deny: together they are the
/// library panic surface (`unwrap`, `expect`, `panic!`, `todo!`,
/// `unimplemented!`). Excused sites carry `#[expect(..., reason = "...")]`.
pub const PANIC_GATE: [&str; 5] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
];

/// Every identifier inside the file's inner `#![level(...)]` attributes.
fn inner_attr_idents<'s>(
    src: &'s str,
    tokens: &[Token],
    code: &[usize],
    level: &str,
) -> BTreeSet<&'s str> {
    let at = |k: usize| &tokens[code[k]];
    let is = |k: usize, kind: TokenKind, text: &str| at(k).kind == kind && at(k).text(src) == text;
    let mut idents = BTreeSet::new();
    for c in 0..code.len().saturating_sub(3) {
        let opens = is(c, TokenKind::Punct, "#")
            && is(c + 1, TokenKind::Punct, "!")
            && is(c + 2, TokenKind::Punct, "[")
            && is(c + 3, TokenKind::Ident, level);
        if !opens {
            continue;
        }
        for k in (c + 4)..code.len() {
            if is(k, TokenKind::Punct, "]") {
                break;
            }
            if at(k).kind == TokenKind::Ident {
                idents.insert(at(k).text(src));
            }
        }
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope;

    const HOT_PATH_FNS: [&str; 2] = ["schedule_batch_into", "a/special.rs::snapshot_into"];

    fn run(path: &str, src: &str, config: &Config) -> Vec<Finding> {
        let tokens = lex(src);
        let scopes = scope::analyze(src, &tokens, scope::path_is_test(path));
        let input = FileInput {
            path,
            src,
            tokens: &tokens,
            scopes: &scopes,
            is_crate_root: path.ends_with("src/lib.rs"),
        };
        let hot_path: Vec<FnSpec<'_>> = HOT_PATH_FNS.iter().map(|raw| FnSpec::parse(raw)).collect();
        let mut findings = Vec::new();
        run_all(&input, config, &hot_path, &mut findings);
        findings
    }

    fn config() -> Config {
        Config {
            include: vec!["crates".into()],
            protocol_files: vec!["crates/telemetry/src/publish.rs".into()],
            ..Default::default()
        }
    }

    #[test]
    fn relaxed_without_justification_fires() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }";
        let findings = run("crates/x/src/lib.rs", src, &config());
        assert!(findings.iter().any(|f| f.lint == ATOMICS));
    }

    #[test]
    fn justified_relaxed_is_clean() {
        let src = "fn f(c: &AtomicU64) {\n    // ordering: counter only\n    c.fetch_add(1, Ordering::Relaxed);\n}";
        let findings = run("crates/x/src/lib.rs", src, &config());
        assert!(!findings.iter().any(|f| f.lint == ATOMICS), "{findings:?}");
    }

    #[test]
    fn cmp_ordering_variants_do_not_fire() {
        let src = "fn f() -> std::cmp::Ordering { std::cmp::Ordering::Equal }";
        let findings = run("crates/x/src/lib.rs", src, &config());
        assert!(!findings.iter().any(|f| f.lint == ATOMICS));
    }

    #[test]
    fn protocol_pairing_detects_missing_release() {
        let src = "fn f(e: &AtomicU64) -> u64 { e.load(Ordering::Acquire) }";
        let findings = run("crates/telemetry/src/publish.rs", src, &config());
        assert!(findings
            .iter()
            .any(|f| f.lint == ATOMICS && f.message.contains("Release")));
    }

    #[test]
    fn hot_path_bans_allocating_tokens_by_fn_name() {
        let src = r#"
fn schedule_batch_into(n: usize) {
    let v = vec![0; n];
    let s = format!("x{n}");
    let t = s.to_string();
    let o = s.to_owned();
    let c: Vec<u32> = (0..n as u32).collect();
    let b = Box::new(n);
    let w = Vec::new();
}
fn cold_path() {
    let v = vec![0; 3]; // fine here
}
"#;
        let findings = run("crates/core/src/service.rs", src, &config());
        let hot: Vec<&Finding> = findings.iter().filter(|f| f.lint == HOT_PATH).collect();
        assert_eq!(hot.len(), 7, "{hot:?}");
        assert!(hot
            .iter()
            .all(|f| f.message.contains("schedule_batch_into")));
    }

    #[test]
    fn file_scoped_hot_path_entry() {
        let src = "fn snapshot_into() { let v = Vec::new(); }";
        let scoped = run("crates/t/a/special.rs", src, &config());
        assert!(scoped.iter().any(|f| f.lint == HOT_PATH));
        let elsewhere = run("crates/t/src/other.rs", src, &config());
        assert!(!elsewhere.iter().any(|f| f.lint == HOT_PATH));
    }

    #[test]
    fn unsafe_forbid_on_crate_roots_only() {
        const GATED: &str = "#![forbid(unsafe_code)]\n\
            #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, \
            clippy::todo, clippy::unimplemented)]\n";
        let gated = run(
            "crates/x/src/lib.rs",
            &format!("{GATED}pub fn f() {{}}"),
            &config(),
        );
        assert!(!gated.iter().any(|f| f.lint == UNSAFE_FORBID), "{gated:?}");

        // A bare root misses both gates: one finding each.
        let bare = run("crates/x/src/lib.rs", "pub fn f() {}", &config());
        assert_eq!(
            bare.iter().filter(|f| f.lint == UNSAFE_FORBID).count(),
            2,
            "{bare:?}"
        );

        // The forbid line alone leaves the panic surface ungated.
        let no_deny = run(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
            &config(),
        );
        let found: Vec<&Finding> = no_deny.iter().filter(|f| f.lint == UNSAFE_FORBID).collect();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].message.contains("clippy::unwrap_used"),
            "{}",
            found[0].message
        );

        // A deny line that drops one lint names exactly that lint; split
        // deny lines count as one gate.
        let partial = run(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             #![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::todo)]\n",
            &config(),
        );
        let found: Vec<&Finding> = partial.iter().filter(|f| f.lint == UNSAFE_FORBID).collect();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0]
                .message
                .contains("does not deny clippy::unimplemented;"),
            "{}",
            found[0].message
        );
        let split = run(
            "crates/x/src/lib.rs",
            "#![forbid(unsafe_code)]\n\
             #![deny(clippy::unwrap_used, clippy::expect_used)]\n\
             #![deny(clippy::panic, clippy::todo, clippy::unimplemented)]\n",
            &config(),
        );
        assert!(!split.iter().any(|f| f.lint == UNSAFE_FORBID), "{split:?}");

        let non_root = run("crates/x/src/util.rs", "pub fn f() {}", &config());
        assert!(!non_root.iter().any(|f| f.lint == UNSAFE_FORBID));
    }
}
