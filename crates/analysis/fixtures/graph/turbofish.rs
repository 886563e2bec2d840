//! Turbofish call sites: explicit generic arguments between a callee's name
//! and its `(` (const generics, nested generics, a fn-pointer type with an
//! arrow) must not hide the call. Edges are asserted in
//! tests/graph_checks.rs.

pub struct Kernel;

impl Kernel {
    pub fn run(&self, rows: &[f64]) -> usize {
        let lanes = Self::walk::<4>(rows);
        let total = self.fold::<u64>(lanes);
        spread::<Vec<Vec<u32>>, 2>(total) + apply::<fn() -> u32>(total)
    }

    fn walk<const G: usize>(rows: &[f64]) -> usize {
        rows.len() * G
    }

    fn fold<T>(&self, lanes: usize) -> usize {
        lanes
    }
}

fn spread<T, const N: usize>(total: usize) -> usize {
    total * N
}

fn apply<F>(total: usize) -> usize {
    total
}
