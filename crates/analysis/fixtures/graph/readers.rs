//! Same-named methods across two impls and a trait default method: the
//! trait-dispatch edge cases asserted in tests/graph_checks.rs.

pub trait Source {
    fn load(&self) -> u32;

    /// Default method: name-based dispatch reaches every impl's `load`.
    fn total(&self) -> u32 {
        self.load() + 1
    }
}

pub struct Published;

impl Source for Published {
    fn load(&self) -> u32 {
        1
    }
}

pub struct StoreBacked;

impl Source for StoreBacked {
    fn load(&self) -> u32 {
        2
    }
}

pub fn serve(source: &Published) -> u32 {
    source.total()
}
