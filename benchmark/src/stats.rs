//! Percentiles, run-to-run spread, the op-sequence hash and an MD5 for the
//! sweep artefact.

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentiles need at least one sample");
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`th
/// percentile. The benchmark reports a tail percentile only as *resolved*
/// when at least [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// The percentile rule of the choosing-metrics guide: a tail percentile needs
/// at least this many samples beyond it to be quoted.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Sort in place and return the nearest-rank median (0 for no samples, so a
/// layer that did no work on a workload reads 0).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    percentile(values, 50.0)
}

/// The quiet value of each slot of a cyclic op stream.
///
/// Every workload cycles through a fixed pool of requests, so sample `i`
/// repeats the op of sample `i − cycle`. For each slot of the cycle this
/// returns the lowest decile (nearest rank; the minimum below eleven
/// repetitions) over the slot's repetitions, skipping `NaN` (an op that
/// produced no sample) and slots never sampled.
///
/// Why: the reference box alternates, in stretches of about a second,
/// between a quiet state and one in which memory-bound code runs ~1.6×
/// slower (a neighbour on the shared cache; a pure ALU loop does not see
/// it). A whole-run percentile flips between the two states with the share
/// of the run each happened to take. Interference only ever slows an op
/// down, so the fast end of an op's repetitions is the system's own cost;
/// percentiles are then taken *across slots*, which keeps the spread between
/// cheap and dear requests and drops the spread between quiet and noisy
/// seconds. A slot reads quiet as long as one repetition in ten was.
pub fn per_slot_quiet(samples: &[f64], cycle: usize) -> Vec<f64> {
    let cycle = cycle.max(1);
    (0..cycle.min(samples.len()))
        .filter_map(|slot| {
            let mut repetitions: Vec<f64> = samples
                .iter()
                .skip(slot)
                .step_by(cycle)
                .copied()
                .filter(|value| !value.is_nan())
                .collect();
            repetitions.sort_by(f64::total_cmp);
            (!repetitions.is_empty()).then(|| percentile(&repetitions, 10.0))
        })
        .collect()
}

/// Nearest-rank percentile of unsorted values (0 for none).
pub fn percentile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        0.0
    } else {
        percentile(&sorted, q)
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the driver computes. 0 below two samples or for a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let Some((q1, q3)) = quartiles(values) else {
        return 0.0;
    };
    let mid = median(&mut values.to_vec());
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / mid.abs()
    }
}

/// FNV-1a over the (winner, bind outcome) sequence of a run. Equal seeds must
/// give equal hashes on the deterministic workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpHash(u64);

impl Default for OpHash {
    fn default() -> Self {
        OpHash(0xcbf2_9ce4_8422_2325)
    }
}

impl OpHash {
    /// Fold one op: the node the decision tried and what the bind returned.
    pub fn feed(&mut self, node: u32, outcome: u8) {
        for byte in node.to_le_bytes().into_iter().chain([outcome]) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// MD5 of `input` as 32 hex digits — the same digest `md5sum` prints for the
/// sweep's `scenario_sweep.json`, which ROADMAP pins as a byte-stability check.
pub fn md5_hex(input: &[u8]) -> String {
    const SHIFTS: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 5, 9, 14, 20, 5, 9, 14, 20, 5,
        9, 14, 20, 5, 9, 14, 20, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 6, 10,
        15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];
    let table: Vec<u32> = (0..64)
        .map(|i| ((i as f64 + 1.0).sin().abs() * 4_294_967_296.0) as u32)
        .collect();
    let mut message = input.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&((input.len() as u64).wrapping_mul(8)).to_le_bytes());

    let mut state: [u32; 4] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
    for block in message.chunks_exact(64) {
        let words: Vec<u32> = block
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect();
        let [mut a, mut b, mut c, mut d] = state;
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let rotated = a
                .wrapping_add(f)
                .wrapping_add(table[i])
                .wrapping_add(words[g])
                .rotate_left(SHIFTS[i]);
            (a, d, c, b) = (d, c, b, b.wrapping_add(rotated));
        }
        for (slot, add) in state.iter_mut().zip([a, b, c, d]) {
            *slot = slot.wrapping_add(add);
        }
    }
    state
        .iter()
        .flat_map(|word| word.to_le_bytes())
        .map(|byte| format!("{byte:02x}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_the_tail_rule_counts_samples_beyond() {
        let sorted: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 100.0);
        assert_eq!(percentile(&sorted, 95.0), 190.0);
        assert_eq!(percentile(&sorted, 100.0), 200.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        // 200 samples leave exactly 10 beyond p95: just resolved; 199 do not.
        assert_eq!(samples_beyond(200, 95.0), 10);
        assert!(samples_beyond(200, 95.0) >= MIN_SAMPLES_BEYOND);
        assert!(samples_beyond(199, 95.0) < MIN_SAMPLES_BEYOND);
        assert_eq!(samples_beyond(1500, 95.0), 75);
        assert_eq!(samples_beyond(0, 95.0), 0);
    }

    #[test]
    fn per_slot_quiet_keeps_the_spread_between_ops_and_drops_the_noise() {
        // A cycle of 4 ops costing 10, 10, 12, 20, repeated 6 times; the
        // second and third repetitions fall into a noisy stretch (×1.6).
        let cycle = [10.0, 10.0, 12.0, 20.0];
        let samples: Vec<f64> = (0..24)
            .map(|i| cycle[i % 4] * if (4..12).contains(&i) { 1.6 } else { 1.0 })
            .collect();
        assert_eq!(median(&mut samples.clone()), 12.0);
        assert_eq!(per_slot_quiet(&samples, 4), cycle.to_vec());
        // Across-slot percentiles see the dear op, not the noise.
        assert_eq!(percentile_of(&per_slot_quiet(&samples, 4), 50.0), 10.0);
        assert_eq!(percentile_of(&per_slot_quiet(&samples, 4), 95.0), 20.0);
        // An op without a sample is skipped, a slot never sampled is absent.
        assert_eq!(
            per_slot_quiet(&[f64::NAN, 5.0, 7.0, 4.0], 2),
            vec![7.0, 4.0]
        );
        assert_eq!(per_slot_quiet(&[3.0], 4), vec![3.0]);
        // One slot: every sample repeats the same op; many repetitions read
        // the lowest decile, not the minimum.
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(per_slot_quiet(&many, 1), vec![10.0]);
        assert_eq!(percentile_of(&[], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([10.0, 11.0, 13.0], n=4) == [10.0, 11.0, 13.0]
        assert_eq!(quartiles(&[13.0, 10.0, 11.0]), Some((10.0, 13.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&[10.0, 11.0, 13.0]) - 3.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn op_hash_is_deterministic_and_order_sensitive() {
        let run = |ops: &[(u32, u8)]| {
            let mut hash = OpHash::default();
            for &(node, outcome) in ops {
                hash.feed(node, outcome);
            }
            hash.hex()
        };
        let ops = [(3, 1), (9_999, 0), (9_998, 1)];
        assert_eq!(run(&ops), run(&ops));
        assert_ne!(run(&ops), run(&[(9_999, 0), (3, 1), (9_998, 1)]));
        assert_ne!(run(&ops), run(&[(3, 1), (9_999, 1), (9_998, 1)]));
        assert_eq!(run(&[]).len(), 16);
    }

    #[test]
    fn md5_matches_the_reference_vectors() {
        assert_eq!(md5_hex(b""), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(md5_hex(b"abc"), "900150983cd24fb0d6963f7d28e17f72");
        assert_eq!(
            md5_hex(
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"
            ),
            "57edf4a22be3c955ac49da2e2107b67a"
        );
    }
}
