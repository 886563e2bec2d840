//! Fixture: a crate root that forbids unsafe code but leaves the clippy
//! panic surface ungated. Expected: one unsafe-forbid finding at line 1.
#![forbid(unsafe_code)]

pub fn harmless() -> u32 {
    42
}
