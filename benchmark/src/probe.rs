//! A memory-speed probe, so a slow *box* is told from a slow *change*.
//!
//! The reference box shares its last-level cache and memory bandwidth with
//! neighbours. Measured there: a pure ALU loop and a 1 MB pointer chase stay
//! within ±3 % over minutes, while a streaming pass over a buffer larger than
//! the cache swings by 40 % — in stretches of a second and in episodes of
//! several minutes — and every workload's decision latency swings with it
//! (over 47 paired runs, `serve_10k`'s quiet-slot p50 read 9.7 ms at a 2.1 ms
//! pass and 15.3 ms at a 2.9 ms pass). Nothing inside a 10 s run can wait
//! such an episode out, so the harness measures it instead: between steps,
//! every [`EVERY`], it times one read-modify-write pass over a 16 MB buffer,
//! and the report scales the run's timings to the memory speed of
//! [`REFERENCE_PASS_US`] (see `report::end_to_end`). The probe knows nothing
//! of the system under test, so the factor is the same for a parent and a
//! change measured in the same minute.

use crate::trace::{nanos, timed};
use std::time::{Duration, Instant};

/// 16 MB: several times the per-core cache, a fraction of a pass per ms.
const WORDS: usize = 2 * 1024 * 1024;
/// How often a pass is taken: ~2.5 % of the run's wall time.
const EVERY: Duration = Duration::from_millis(100);
/// One pass on the reference box when its neighbours are quiet, µs.
pub const REFERENCE_PASS_US: f64 = 2_100.0;

/// The probe's buffer and schedule.
#[derive(Debug)]
pub struct MemoryProbe {
    buffer: Vec<u64>,
    last: Instant,
}

impl MemoryProbe {
    /// A probe whose first pass is due [`EVERY`] from now.
    pub fn new() -> Self {
        MemoryProbe {
            buffer: vec![1; WORDS],
            last: Instant::now(),
        }
    }

    /// When a pass is due, take it and return its duration in µs.
    pub fn sample_if_due(&mut self) -> Option<f64> {
        if self.last.elapsed() < EVERY {
            return None;
        }
        let (_, start, end) = timed(|| {
            let mut sum = 0u64;
            for word in self.buffer.iter_mut() {
                *word = word.wrapping_add(1);
                sum = sum.wrapping_add(*word);
            }
            std::hint::black_box(sum)
        });
        self.last = end;
        Some(nanos(start, end) as f64 / 1e3)
    }
}
