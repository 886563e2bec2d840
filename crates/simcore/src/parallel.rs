//! Deterministic fork/join helpers built on `std::thread::scope`.
//!
//! The workspace uses data parallelism in three places:
//!
//! 1. running independent simulation replications (the 3600-sample dataset of
//!    the paper is 600 batch runs × 6 candidate nodes),
//! 2. training the trees of a random forest,
//! 3. evaluating candidate splits / cross-validation folds.
//!
//! All three are embarrassingly parallel maps over an index range. The helper
//! below distributes indices over a fixed number of worker threads and writes
//! results back **in index order**, so the output is identical to a sequential
//! run — parallelism never changes results, only wall-clock time (this is the
//! determinism discipline the HPC guides call for).

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

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
pub fn parallel_map<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
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
                // ordering: Relaxed — the counter only claims work indices;
                // results flow through the per-slot mutexes and scope join.
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

/// Apply `f` to every index in `0..n` with the default worker count.
pub fn parallel_map_auto<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map(n, default_workers(), f)
}

/// Parallel map followed by an ordered fold. Equivalent to
/// `parallel_map(...).into_iter().fold(init, fold)` but spelled out for
/// readability at call sites that reduce large outputs.
pub fn parallel_map_reduce<T, A, F, R>(n: usize, workers: usize, f: F, init: A, fold: R) -> A
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    R: FnMut(A, T) -> A,
{
    parallel_map(n, workers, f).into_iter().fold(init, fold)
}

/// Split `0..n` into `chunks` nearly equal contiguous ranges. The first
/// `n % chunks` ranges get one extra element. Useful for static partitioning
/// when per-item cost is uniform.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<std::ops::Range<usize>> {
    if n == 0 || chunks == 0 {
        return Vec::new();
    }
    let chunks = chunks.min(n);
    let base = n / chunks;
    let extra = n % chunks;
    let mut ranges = Vec::with_capacity(chunks);
    let mut start = 0;
    for i in 0..chunks {
        let len = base + usize::from(i < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn every_index_called_exactly_once() {
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
    fn map_reduce_orders_fold() {
        let total = parallel_map_reduce(100, 4, |i| i as u64, 0u64, |acc, x| acc + x);
        assert_eq!(total, 4950);
        // Ordered fold: concatenation must preserve index order.
        let joined = parallel_map_reduce(
            10,
            3,
            |i| i.to_string(),
            String::new(),
            |mut acc, s| {
                acc.push_str(&s);
                acc
            },
        );
        assert_eq!(joined, "0123456789");
    }

    #[test]
    fn chunk_ranges_cover_everything_without_overlap() {
        for n in [0usize, 1, 7, 16, 100, 101] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(n, chunks);
                let mut covered = vec![false; n];
                for r in &ranges {
                    for i in r.clone() {
                        assert!(!covered[i], "overlap at {i} (n={n}, chunks={chunks})");
                        covered[i] = true;
                    }
                }
                assert!(covered.iter().all(|&c| c), "gap (n={n}, chunks={chunks})");
                if n > 0 {
                    assert!(ranges.len() <= chunks.max(1));
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    assert!(max - min <= 1, "chunks should be balanced");
                }
            }
        }
        assert!(chunk_ranges(5, 0).is_empty());
    }

    #[test]
    fn default_workers_is_sane() {
        let w = default_workers();
        assert!((1..=16).contains(&w));
    }
}
