//! Scope tracking over the token stream.
//!
//! Lints need context the lexer alone cannot give them: the name of the
//! enclosing `fn` item (for the hot-path set), whether a token sits in
//! test code (`#[test]` functions, `#[cfg(test)]` modules and impls, or files
//! under `tests/` / `benches/` / `examples/`), and — for the call-graph
//! passes — the full declaration facts of every `fn` item: its `impl`/trait
//! owner, whether its first parameter is a `self` receiver, and the token
//! range of its body. This module computes all of it in a single pass by
//! tracking brace frames and pending item attributes — no AST required.

use crate::lexer::{Token, TokenKind};

/// One `fn` item declaration, as seen by the scope pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDecl {
    /// The declared name.
    pub name: String,
    /// 1-based source line of the name token.
    pub line: u32,
    /// The enclosing `impl` type or `trait` name when the fn is declared
    /// directly inside such a block (methods, associated fns, trait default
    /// methods). `None` for free fns — including fns nested in other fns.
    pub owner: Option<String>,
    /// For fns in an `impl Trait for Type` block: the trait's name. Lets
    /// call resolution accept a candidate when the caller names the trait
    /// (dyn dispatch) even though it never names the concrete type.
    pub trait_name: Option<String>,
    /// Whether the first parameter is a `self` receiver (`self`, `&self`,
    /// `&mut self`, `mut self`). Distinguishes methods from associated fns.
    pub has_self: bool,
    /// Whether the declaration has a body (`false` for trait method
    /// declarations and extern signatures, which end in `;`).
    pub has_body: bool,
    /// Token index of the body's opening `{` (valid only when `has_body`).
    pub body_start: u32,
    /// Token index of the body's closing `}` (valid only when `has_body`).
    pub body_end: u32,
    /// Whether the fn is test-only code (attribute, module, or file).
    pub is_test: bool,
}

/// Per-token scope facts, parallel to the token stream.
#[derive(Debug, Default)]
pub struct Scopes {
    /// For each token: index into `fn_items` of the innermost enclosing fn.
    pub enclosing_fn: Vec<Option<u32>>,
    /// For each token: whether it sits inside test-only code.
    pub in_test: Vec<bool>,
    /// Every fn item seen, in source order.
    pub fn_items: Vec<FnDecl>,
}

impl Scopes {
    /// The enclosing fn name for token `i`, if any.
    pub fn fn_name(&self, i: usize) -> Option<&str> {
        self.enclosing_fn[i].map(|idx| self.fn_items[idx as usize].name.as_str())
    }
}

#[derive(Clone, Copy)]
struct Frame {
    fn_idx: Option<u32>,
    test: bool,
    /// Index into the local owner-name table when this frame is an
    /// `impl`/`trait` block: fns declared directly in it belong to that type.
    owner: Option<u32>,
    /// Set on the frame that *is* fn `i`'s body, so the matching `}` can
    /// close the declaration's body range.
    body_of: Option<u32>,
}

/// True when the relative path denotes code that is test-only by location.
pub fn path_is_test(relative_path: &str) -> bool {
    relative_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Compute scopes for a lexed file. `file_is_test` marks the whole file as
/// test code (see [`path_is_test`]).
pub fn analyze(src: &str, tokens: &[Token], file_is_test: bool) -> Scopes {
    let mut scopes = Scopes {
        enclosing_fn: Vec::with_capacity(tokens.len()),
        in_test: Vec::with_capacity(tokens.len()),
        fn_items: Vec::new(),
    };
    let base = Frame {
        fn_idx: None,
        test: file_is_test,
        owner: None,
        body_of: None,
    };
    let mut stack: Vec<Frame> = Vec::new();
    let mut owners: Vec<String> = Vec::new();
    // Parallel to `owners`: the trait implemented by that block, if any.
    let mut owner_traits: Vec<Option<String>> = Vec::new();

    // Attribute state: `pending_test` is set by a `#[...]` group mentioning
    // `test`; it attaches to the brace frame of the next item keyword.
    let mut pending_test = false;
    let mut pending_applies = false;
    // Owner of the next opened `impl`/`trait` block, if its header named one.
    let mut pending_owner: Option<u32> = None;

    // Fn-header state: set at `fn name`, consumed by the body `{` (or
    // cancelled by `;` for trait method declarations). `sig_depth` tracks
    // parens/brackets so braces inside the signature's const expressions
    // don't open the body early.
    let mut pending_fn: Option<u32> = None;
    let mut sig_depth = 0i32;

    let mut i = 0usize;
    while i < tokens.len() {
        let top = *stack.last().unwrap_or(&base);
        let tok = &tokens[i];
        // Record scope facts for this token before mutating state, so the
        // opening brace / item keyword itself reports its outer scope.
        scopes.enclosing_fn.push(top.fn_idx);
        scopes.in_test.push(top.test);

        match tok.kind {
            TokenKind::LineComment | TokenKind::BlockComment | TokenKind::Shebang => {}
            TokenKind::Punct => match tok.text(src) {
                "#" => {
                    // An attribute group: `#[...]` (outer) or `#![...]`
                    // (inner). Scan to the matching `]` first, then record
                    // scope facts for the consumed range, noting whether the
                    // group mentions `test` (and is not a `not(test)` guard).
                    let mut j = i + 1;
                    let inner = tokens
                        .get(j)
                        .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == "!");
                    if inner {
                        j += 1;
                    }
                    if tokens
                        .get(j)
                        .is_some_and(|t| t.kind == TokenKind::Punct && t.text(src) == "[")
                    {
                        let mut depth = 0i32;
                        let mut saw_test = false;
                        let mut saw_not = false;
                        let mut end = tokens.len() - 1;
                        let mut k = j;
                        while k < tokens.len() {
                            match (tokens[k].kind, tokens[k].text(src)) {
                                (TokenKind::Punct, "[") => depth += 1,
                                (TokenKind::Punct, "]") => {
                                    depth -= 1;
                                    if depth == 0 {
                                        end = k;
                                        break;
                                    }
                                }
                                (TokenKind::Ident, "test") => saw_test = true,
                                (TokenKind::Ident, "not") => saw_not = true,
                                _ => {}
                            }
                            k += 1;
                        }
                        // Attribute tokens share the outer scope facts.
                        for _ in (i + 1)..=end {
                            scopes.enclosing_fn.push(top.fn_idx);
                            scopes.in_test.push(top.test);
                        }
                        if !inner && saw_test && !saw_not {
                            pending_test = true;
                        }
                        i = end + 1;
                        continue;
                    }
                }
                "(" | "[" if pending_fn.is_some() => sig_depth += 1,
                ")" | "]" if pending_fn.is_some() => sig_depth -= 1,
                ";" if sig_depth == 0 => {
                    // Trait method declaration or attributed non-brace
                    // item: drop pending header/attr state.
                    pending_fn = None;
                    pending_test = false;
                    pending_applies = false;
                    pending_owner = None;
                }
                "{" => {
                    let frame = if let Some(fn_idx) = pending_fn.take() {
                        let decl = &mut scopes.fn_items[fn_idx as usize];
                        decl.has_body = true;
                        decl.body_start = i as u32;
                        Frame {
                            fn_idx: Some(fn_idx),
                            test: top.test || pending_test,
                            // A fn body declares no methods: nested fns are
                            // free fns, not members of the enclosing impl.
                            owner: None,
                            body_of: Some(fn_idx),
                        }
                    } else if pending_applies {
                        Frame {
                            fn_idx: top.fn_idx,
                            test: top.test || pending_test,
                            owner: pending_owner,
                            body_of: None,
                        }
                    } else {
                        Frame {
                            fn_idx: top.fn_idx,
                            test: top.test,
                            owner: top.owner,
                            body_of: None,
                        }
                    };
                    if pending_fn.is_none() {
                        pending_test = false;
                        pending_applies = false;
                        pending_owner = None;
                        sig_depth = 0;
                    }
                    stack.push(frame);
                }
                "}" => {
                    if let Some(frame) = stack.pop() {
                        if let Some(fn_idx) = frame.body_of {
                            scopes.fn_items[fn_idx as usize].body_end = i as u32;
                        }
                    }
                }
                _ => {}
            },
            TokenKind::Ident => match tok.text(src) {
                // An item keyword makes any pending `#[...test...]` apply to
                // the next opened brace (fn bodies, `mod`/`impl` blocks).
                // Only an item header: `fn` followed by a name. A bare
                // `fn(` is a function-pointer type.
                "fn" if tokens
                    .get(i + 1)
                    .is_some_and(|t| t.kind == TokenKind::Ident) =>
                {
                    let name = tokens[i + 1].text(src);
                    scopes.fn_items.push(FnDecl {
                        name: name.to_string(),
                        line: tokens[i + 1].line,
                        owner: top.owner.map(|o| owners[o as usize].clone()),
                        trait_name: top.owner.and_then(|o| owner_traits[o as usize].clone()),
                        has_self: sig_has_self_receiver(src, tokens, i + 1),
                        has_body: false,
                        body_start: 0,
                        body_end: 0,
                        is_test: top.test || pending_test,
                    });
                    pending_fn = Some((scopes.fn_items.len() - 1) as u32);
                    sig_depth = 0;
                }
                // `impl`/`trait` headers name the owner of the methods their
                // block declares. `impl Trait` in a signature's type position
                // is not an item header — pending_fn guards that.
                "impl" if pending_fn.is_none() => {
                    pending_applies = true;
                    let (owner, trait_name) = parse_impl_header(src, tokens, i + 1);
                    pending_owner = owner.map(|name| {
                        owners.push(name);
                        owner_traits.push(trait_name);
                        (owners.len() - 1) as u32
                    });
                }
                "trait" if pending_fn.is_none() => {
                    pending_applies = true;
                    pending_owner = next_code_ident(src, tokens, i + 1).map(|name| {
                        owners.push(name.to_string());
                        owner_traits.push(None);
                        (owners.len() - 1) as u32
                    });
                }
                "mod" | "struct" | "enum" | "union" => {
                    pending_applies = true;
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    debug_assert_eq!(scopes.enclosing_fn.len(), tokens.len());
    scopes
}

/// Is token `i` a comment (skipped when scanning declarations)?
fn is_comment(tokens: &[Token], i: usize) -> bool {
    matches!(
        tokens[i].kind,
        TokenKind::LineComment | TokenKind::BlockComment | TokenKind::Shebang
    )
}

/// The next non-comment identifier at or after `start`, if the very next
/// code token is one.
fn next_code_ident<'s>(src: &'s str, tokens: &[Token], start: usize) -> Option<&'s str> {
    let mut i = start;
    while i < tokens.len() && is_comment(tokens, i) {
        i += 1;
    }
    let tok = tokens.get(i)?;
    (tok.kind == TokenKind::Ident).then(|| tok.text(src))
}

/// Does the parameter list of the fn whose name sits at `name_idx` start with
/// a `self` receiver (`self`, `&self`, `&'a self`, `&mut self`, `mut self`)?
fn sig_has_self_receiver(src: &str, tokens: &[Token], name_idx: usize) -> bool {
    // Find the parameter list's `(`, skipping a generic parameter list
    // (angle-bracket depth tracked; `->` inside bounds must not close it).
    let mut i = name_idx + 1;
    let mut angle = 0i32;
    let mut prev_minus = false;
    while i < tokens.len() {
        if is_comment(tokens, i) {
            i += 1;
            continue;
        }
        let text = tokens[i].text(src);
        match (tokens[i].kind, text) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") if !prev_minus => angle -= 1,
            (TokenKind::Punct, "(") if angle == 0 => {
                i += 1;
                break;
            }
            (TokenKind::Punct, "{" | ";") => return false,
            _ => {}
        }
        prev_minus = tokens[i].kind == TokenKind::Punct && text == "-";
        i += 1;
    }
    // The receiver: `&`s, lifetimes and `mut` may precede `self`.
    while i < tokens.len() {
        match (tokens[i].kind, tokens[i].text(src)) {
            (TokenKind::LineComment | TokenKind::BlockComment, _) => {}
            (TokenKind::Punct, "&") => {}
            (TokenKind::Lifetime, _) => {}
            (TokenKind::Ident, "mut") => {}
            (TokenKind::Ident, "self") => return true,
            _ => return false,
        }
        i += 1;
    }
    false
}

/// Extract the implemented-for type name (and implemented trait, if any)
/// from an `impl` header starting at `start` (the token after `impl`): the
/// last path segment of each, with generic arguments skipped —
/// `impl<'a> Foo<'a>` → `(Foo, None)`,
/// `impl fmt::Display for cluster::NodeId` → `(NodeId, Some(Display))`.
fn parse_impl_header(
    src: &str,
    tokens: &[Token],
    start: usize,
) -> (Option<String>, Option<String>) {
    let mut i = start;
    let mut angle = 0i32;
    let mut prev_minus = false;
    let mut current: Option<&str> = None;
    let mut trait_name: Option<&str> = None;
    while i < tokens.len() {
        if is_comment(tokens, i) {
            i += 1;
            continue;
        }
        let text = tokens[i].text(src);
        match (tokens[i].kind, text) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") if !prev_minus => angle -= 1,
            (TokenKind::Punct, "{" | ";") if angle <= 0 => break,
            (TokenKind::Ident, "where") if angle == 0 => break,
            // `impl Trait for Type`: the owner is the type, not the trait.
            (TokenKind::Ident, "for") if angle == 0 => {
                trait_name = current.take();
            }
            (TokenKind::Ident, "dyn" | "mut" | "const" | "unsafe") => {}
            (TokenKind::Ident, _) if angle == 0 => current = Some(text),
            _ => {}
        }
        prev_minus = tokens[i].kind == TokenKind::Punct && text == "-";
        i += 1;
    }
    (current.map(str::to_string), trait_name.map(str::to_string))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scopes_for(src: &str) -> (Vec<crate::lexer::Token>, Scopes) {
        let tokens = lex(src);
        let scopes = analyze(src, &tokens, false);
        (tokens, scopes)
    }

    fn fact_at(
        src: &str,
        tokens: &[crate::lexer::Token],
        scopes: &Scopes,
        needle: &str,
    ) -> (Option<String>, bool) {
        let idx = tokens
            .iter()
            .position(|t| t.text(src) == needle)
            .unwrap_or_else(|| panic!("token {needle:?} not found"));
        (scopes.fn_name(idx).map(str::to_string), scopes.in_test[idx])
    }

    #[test]
    fn enclosing_fn_names_nest() {
        let src = "fn outer() { let a = 1; fn inner() { let b = 2; } let c = 3; }";
        let (tokens, scopes) = scopes_for(src);
        assert_eq!(
            fact_at(src, &tokens, &scopes, "a").0.as_deref(),
            Some("outer")
        );
        assert_eq!(
            fact_at(src, &tokens, &scopes, "b").0.as_deref(),
            Some("inner")
        );
        assert_eq!(
            fact_at(src, &tokens, &scopes, "c").0.as_deref(),
            Some("outer")
        );
    }

    #[test]
    fn cfg_test_module_marks_contents() {
        let src = "fn lib_code() { x; } #[cfg(test)] mod tests { fn helper() { y; } }";
        let (tokens, scopes) = scopes_for(src);
        assert_eq!(
            fact_at(src, &tokens, &scopes, "x"),
            (Some("lib_code".into()), false)
        );
        assert_eq!(
            fact_at(src, &tokens, &scopes, "y"),
            (Some("helper".into()), true)
        );
    }

    #[test]
    fn test_attribute_marks_single_fn() {
        let src = "#[test] fn checks() { a; } fn library() { b; }";
        let (tokens, scopes) = scopes_for(src);
        assert!(fact_at(src, &tokens, &scopes, "a").1);
        assert!(!fact_at(src, &tokens, &scopes, "b").1);
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))] fn real() { a; }";
        let (tokens, scopes) = scopes_for(src);
        assert!(!fact_at(src, &tokens, &scopes, "a").1);
    }

    #[test]
    fn trait_method_declaration_does_not_leak() {
        let src = "trait T { fn declared(&self); } fn after() { a; }";
        let (tokens, scopes) = scopes_for(src);
        assert_eq!(
            fact_at(src, &tokens, &scopes, "a").0.as_deref(),
            Some("after")
        );
    }

    #[test]
    fn closures_stay_in_enclosing_fn() {
        let src = "fn hot() { let f = |x| { x + 1 }; }";
        let (tokens, scopes) = scopes_for(src);
        assert_eq!(
            fact_at(src, &tokens, &scopes, "1").0.as_deref(),
            Some("hot")
        );
    }

    #[test]
    fn cfg_test_impl_block() {
        let src = "#[cfg(test)] impl Thing { fn only_for_tests() { a; } }";
        let (tokens, scopes) = scopes_for(src);
        assert!(fact_at(src, &tokens, &scopes, "a").1);
    }

    #[test]
    fn file_level_test_flag() {
        let src = "fn anything() { a; }";
        let tokens = lex(src);
        let scopes = analyze(src, &tokens, true);
        let idx = tokens.iter().position(|t| t.text(src) == "a").unwrap();
        assert!(scopes.in_test[idx]);
    }

    #[test]
    fn fn_decls_record_owner_and_receiver() {
        let src = "
impl Widget {
    fn method(&self, x: u32) -> u32 { x }
    fn assoc() -> Widget { Widget }
}
impl fmt::Display for cluster::NodeId {
    fn fmt(&mut self, f: &mut Formatter<'_>) -> fmt::Result { Ok(()) }
}
trait Source {
    fn declared(&self);
    fn defaulted(&self) -> u32 { 1 }
}
fn free<T: Fn() -> u32>(f: T) -> u32 { f() }
fn outer() { fn nested() {} }
";
        let (_, scopes) = scopes_for(src);
        let facts: Vec<(&str, Option<&str>, bool, bool)> = scopes
            .fn_items
            .iter()
            .map(|d| (d.name.as_str(), d.owner.as_deref(), d.has_self, d.has_body))
            .collect();
        assert_eq!(
            facts,
            vec![
                ("method", Some("Widget"), true, true),
                ("assoc", Some("Widget"), false, true),
                ("fmt", Some("NodeId"), true, true),
                ("declared", Some("Source"), true, false),
                ("defaulted", Some("Source"), true, true),
                ("free", None, false, true),
                ("outer", None, false, true),
                ("nested", None, false, true),
            ]
        );
        let traits: Vec<Option<&str>> = scopes
            .fn_items
            .iter()
            .map(|d| d.trait_name.as_deref())
            .collect();
        assert_eq!(
            traits,
            vec![None, None, Some("Display"), None, None, None, None, None,]
        );
    }

    #[test]
    fn fn_body_ranges_cover_exactly_the_body() {
        let src = "fn a() { inner(); } fn b() { other(); }";
        let (tokens, scopes) = scopes_for(src);
        let a = &scopes.fn_items[0];
        let b = &scopes.fn_items[1];
        assert!(a.has_body && b.has_body);
        let text_of = |d: &FnDecl| {
            (d.body_start..=d.body_end)
                .map(|i| tokens[i as usize].text(src))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(text_of(a), "{ inner ( ) ; }");
        assert_eq!(text_of(b), "{ other ( ) ; }");
    }

    #[test]
    fn impl_trait_in_signature_does_not_become_an_owner() {
        let src =
            "fn takes(x: impl Iterator<Item = u32>) -> u32 { helper() } fn helper() -> u32 { 1 }";
        let (_, scopes) = scopes_for(src);
        assert_eq!(scopes.fn_items[0].owner, None);
        assert_eq!(scopes.fn_items[1].owner, None);
    }

    #[test]
    fn test_attribute_marks_fn_decl() {
        let src = "#[test] fn checks() {} fn library() {}";
        let (_, scopes) = scopes_for(src);
        assert!(scopes.fn_items[0].is_test);
        assert!(!scopes.fn_items[1].is_test);
    }

    #[test]
    fn path_classification() {
        assert!(path_is_test("tests/hot_path_alloc.rs"));
        assert!(path_is_test("crates/bench/benches/service_throughput.rs"));
        assert!(!path_is_test("crates/core/src/service.rs"));
    }
}
