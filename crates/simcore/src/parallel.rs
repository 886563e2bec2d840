//! Deterministic fork/join helpers built on `std::thread::scope`.
//!
//! The workspace uses data parallelism in two places:
//!
//! 1. running independent simulation replications (the 3600-sample dataset of
//!    the paper is 600 batch runs × 6 candidate nodes, and the scenario
//!    matrix's cells),
//! 2. training the trees of a random forest.
//!
//! Both are embarrassingly parallel maps over an index range. The helper
//! below distributes indices over a fixed number of worker threads and writes
//! results back **in index order**, so the output is identical to a sequential
//! run — parallelism never changes results, only wall-clock time (this is the
//! determinism discipline the HPC guides call for).

use parking_lot::Mutex;

/// Default worker count: the number of available CPUs, capped at 16 so that
/// test machines with many cores don't oversubscribe tiny workloads.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 16)
}

/// Apply `f` to every index in `0..n`, returning results in index order.
///
/// `f` must be `Sync` (it is shared across workers) and is called exactly once
/// per index. Work is distributed dynamically via an atomic cursor, so uneven
/// per-item cost (e.g. simulation replications of different lengths) balances
/// automatically.
#[expect(
    clippy::expect_used,
    reason = "the cursor hands out every index below n exactly once, and a worker panic re-raises at the scope before the slots are read"
)]
#[expect(
    clippy::disallowed_types,
    reason = "ordering: Relaxed — the cursor only claims work indices; results flow through the per-slot mutexes and the scope join"
)]
#[expect(
    clippy::disallowed_methods,
    reason = "blocking: each slot is locked once, by the one worker that claimed its index, so no lock is ever contended; training and replications only, never a decision"
)]
pub fn parallel_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        return (0..n).map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    // A panicking worker re-raises on this thread when the scope joins it.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = cursor.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let value = f(idx);
                *slots[idx].lock() = Some(value);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("every index is processed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_matches_sequential() {
        let f = |i: usize| (i as u64) * (i as u64) + 1;
        let seq: Vec<u64> = (0..500).map(f).collect();
        for workers in [1, 2, 4, 8] {
            let par = parallel_map(500, workers, f);
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let out: Vec<u32> = parallel_map(0, 4, |_| 1u32);
        assert!(out.is_empty());
        let out = parallel_map(1, 8, |i| i + 10);
        assert_eq!(out, vec![10]);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "ordering: Relaxed — a tally read only after parallel_map has joined its workers"
    )]
    fn every_index_called_exactly_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let calls = AtomicU64::new(0);
        let n = 1000;
        let out = parallel_map(n, 8, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), n as u64);
        assert_eq!(out, (0..n).collect::<Vec<usize>>());
    }

    #[test]
    fn default_workers_is_sane() {
        let w = default_workers();
        assert!((1..=16).contains(&w));
    }
}
