//! Fixture: a crate root without `#![forbid(unsafe_code)]`.
//! Expected: one unsafe-forbid finding at line 1.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

pub fn harmless() -> u32 {
    42
}
