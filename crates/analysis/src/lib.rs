//! Workspace invariant analyzer.
//!
//! A custom, dependency-free lint engine for the invariants the toolchain
//! cannot check. The crate gates (`unsafe_code` and the panic surface) live
//! in the root `Cargo.toml`'s `[workspace.lints]`; determinism, locks and
//! atomics are disallowed in `clippy.toml` unless excused in place; stale
//! excuses are rustc's `#[expect]`. What stays here needs the workspace call
//! graph:
//!
//! - **hot-path-alloc** — the steady-state scheduling chain contains no
//!   allocating tokens. The enforced set is *derived*: the call-graph
//!   closure from `[hot_path] roots`, minus stopped cold branches. Its
//!   dynamic counterpart is `tests/hot_path_alloc.rs`, which proves the same
//!   property at runtime with a counting global allocator.
//! - **hot-path-closure** — every root and stop spec resolves to a fn.
//! - **panic-reachability** — no panic site is reachable from the decision
//!   roots; any that is gets reported with its call chain.
//!
//! The call-graph layer ([`items`] → [`graph`] → [`reach`]) indexes every
//! fn with its crate/file/`impl`-trait owner, resolves call edges by name
//! with conservative ambiguity (reachability over-approximates rather than
//! misses), and answers `cargo run -p analysis -- graph [--why path::fn]`
//! queries with printable call chains.
//!
//! Run the lints with `cargo run -p analysis --release -- check`.
//! Diagnostics are `file:line: [lint-name] message`; the exit code is
//! nonzero on any finding.

pub mod config;
pub mod engine;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod lints;
pub mod reach;
pub mod scope;
