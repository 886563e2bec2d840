//! The token lint: `hot-path-alloc`.
//!
//! It runs over one file's token stream and scope facts and appends
//! [`Finding`]s. Test code (by attribute, module, or directory) is exempt:
//! the invariant protects the shipped library surface, not the harnesses
//! that validate it.

use crate::items::FnSpec;
use crate::lexer::{Token, TokenKind};
use crate::scope::Scopes;

pub const HOT_PATH: &str = "hot-path-alloc";

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

/// Everything the lint knows about one file.
pub struct FileInput<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    pub src: &'a str,
    pub tokens: &'a [Token],
    pub scopes: &'a Scopes,
}

/// Ban allocating tokens in every fn of `hot_path`, the allocation-free set:
/// the call-graph closure the engine derives from `[hot_path] roots`.
pub fn hot_path_alloc(input: &FileInput<'_>, hot_path: &[FnSpec<'_>], findings: &mut Vec<Finding>) {
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

    let text_at = |c: usize| input.tokens[code[c]].text(input.src);
    let kind_at = |c: usize| input.tokens[code[c]].kind;
    let punct_eq = |c: usize, p: &str| kind_at(c) == TokenKind::Punct && text_at(c) == p;
    let ident_eq = |c: usize, name: &str| kind_at(c) == TokenKind::Ident && text_at(c) == name;

    for c in 0..code.len() {
        let idx = code[c];
        let tok = &input.tokens[idx];
        if tok.kind != TokenKind::Ident || input.scopes.in_test[idx] {
            continue;
        }
        let Some(fn_name) = input.scopes.fn_name(idx) else {
            continue;
        };
        if !hot_path.iter().any(|e| e.matches(input.path, fn_name)) {
            continue;
        }
        let text = tok.text(input.src);
        let next_is_bang = c + 1 < code.len() && punct_eq(c + 1, "!");
        let prev_is_dot = c > 0 && punct_eq(c - 1, ".");
        let next_is_path_new = c + 3 < code.len()
            && punct_eq(c + 1, ":")
            && punct_eq(c + 2, ":")
            && ident_eq(c + 3, "new");
        let banned = match text {
            "vec" | "format" if next_is_bang => Some(format!("`{text}!`")),
            "to_string" | "to_owned" | "collect" if prev_is_dot => Some(format!("`.{text}()`")),
            "Vec" | "Box" if next_is_path_new => Some(format!("`{text}::new`")),
            _ => None,
        };
        if let Some(what) = banned {
            findings.push(Finding {
                file: input.path.to_string(),
                line: tok.line,
                lint: HOT_PATH,
                message: format!("allocating token {what} in hot-path fn `{fn_name}`"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope;

    const HOT_PATH_FNS: [&str; 2] = ["schedule_batch_into", "a/special.rs::snapshot_into"];

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let tokens = lex(src);
        let scopes = scope::analyze(src, &tokens, scope::path_is_test(path));
        let input = FileInput {
            path,
            src,
            tokens: &tokens,
            scopes: &scopes,
        };
        let hot_path: Vec<FnSpec<'_>> = HOT_PATH_FNS.iter().map(|raw| FnSpec::parse(raw)).collect();
        let mut findings = Vec::new();
        hot_path_alloc(&input, &hot_path, &mut findings);
        findings
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
        let findings = run("crates/core/src/service.rs", src);
        let hot: Vec<&Finding> = findings.iter().filter(|f| f.lint == HOT_PATH).collect();
        assert_eq!(hot.len(), 7, "{hot:?}");
        assert!(hot
            .iter()
            .all(|f| f.message.contains("schedule_batch_into")));
    }

    #[test]
    fn file_scoped_hot_path_entry() {
        let src = "fn snapshot_into() { let v = Vec::new(); }";
        let scoped = run("crates/t/a/special.rs", src);
        assert!(scoped.iter().any(|f| f.lint == HOT_PATH));
        let elsewhere = run("crates/t/src/other.rs", src);
        assert!(!elsewhere.iter().any(|f| f.lint == HOT_PATH));
    }
}
