//! Congestion-aware round-trip-time model.
//!
//! The paper's ping-mesh exporter measures RTT between every pair of nodes;
//! the learned model uses the mean/max/std of those RTTs as features. In the
//! real testbed RTT inflates when paths are congested (queueing delay) and
//! fluctuates with background noise. This module reproduces both effects with
//! a simple, deterministic model:
//!
//! `rtt = base + queuing(base, utilization) + jitter(seed)`
//!
//! * queuing delay grows super-linearly as utilization approaches 1 (an M/M/1
//!   style `u / (1 - u)` term, capped),
//! * jitter is a small deterministic pseudo-random perturbation derived from
//!   the caller-provided seed, so telemetry is reproducible run-to-run.

use simcore::{SimDuration, SplitMix64};

/// Parameters of the RTT model.
#[derive(Debug, Clone)]
pub(crate) struct RttModel {
    /// Maximum queuing delay added when a path is fully saturated, expressed
    /// as a multiple of the base RTT.
    pub max_congestion_factor: f64,
    /// Cap on the `u/(1-u)` term to keep delays finite at u = 1.
    pub queue_term_cap: f64,
    /// Relative jitter amplitude (fraction of base RTT), applied symmetrically.
    pub jitter_fraction: f64,
    /// Minimum RTT floor.
    pub floor: SimDuration,
}

impl Default for RttModel {
    fn default() -> Self {
        RttModel {
            max_congestion_factor: 1.5,
            queue_term_cap: 9.0,
            // Dedicated L3 paths over FABNetv4 show little idle jitter; most
            // of the observed RTT variation comes from congestion.
            jitter_fraction: 0.02,
            floor: SimDuration::from_micros(50),
        }
    }
}

impl RttModel {
    /// Compute the RTT given the uncongested base RTT, the bottleneck
    /// utilization along the path (0..=1) and a jitter seed.
    pub(crate) fn rtt(&self, base: SimDuration, utilization: f64, jitter_seed: u64) -> SimDuration {
        let u = utilization.clamp(0.0, 0.999);
        // M/M/1-flavoured queuing term, normalized so that utilization = 0.9
        // (queue term 9.0 with the default cap) yields `max_congestion_factor`
        // times the base RTT of extra delay.
        let queue_term = (u / (1.0 - u)).min(self.queue_term_cap);
        let congestion = self.max_congestion_factor * queue_term / self.queue_term_cap;
        let jitter = if self.jitter_fraction > 0.0 {
            let mut rng = SplitMix64::new(jitter_seed);
            // Map to [-1, 1).
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            unit * self.jitter_fraction
        } else {
            0.0
        };
        let factor = (1.0 + congestion + jitter).max(0.0);
        let rtt = base.mul_f64(factor);
        rtt.max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncongested_rtt_is_close_to_base() {
        let m = RttModel {
            jitter_fraction: 0.0,
            ..Default::default()
        };
        let base = SimDuration::from_millis(60);
        assert_eq!(m.rtt(base, 0.0, 0), base);
    }

    #[test]
    fn rtt_increases_with_utilization() {
        let m = RttModel {
            jitter_fraction: 0.0,
            ..Default::default()
        };
        let base = SimDuration::from_millis(60);
        let low = m.rtt(base, 0.2, 0);
        let mid = m.rtt(base, 0.6, 0);
        let high = m.rtt(base, 0.95, 0);
        assert!(low < mid && mid < high);
        // Full saturation adds at most max_congestion_factor x base.
        let max = m.rtt(base, 1.0, 0);
        assert!(max <= base.mul_f64(1.0 + m.max_congestion_factor) + SimDuration::from_nanos(1));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let m = RttModel::default();
        let base = SimDuration::from_millis(10);
        let a = m.rtt(base, 0.1, 42);
        let b = m.rtt(base, 0.1, 42);
        assert_eq!(a, b);
        let c = m.rtt(base, 0.1, 43);
        // Different seeds usually differ (not strictly guaranteed, but with
        // this seed pair they do).
        assert_ne!(a, c);
        // Bounded by the jitter fraction.
        let lo = base.mul_f64(1.0 - m.jitter_fraction - 1e-9);
        let hi = base.mul_f64(
            1.0 + m.max_congestion_factor * (0.1 / 0.9) / m.queue_term_cap
                + m.jitter_fraction
                + 1e-9,
        );
        assert!(a >= lo && a <= hi, "{a} not in [{lo}, {hi}]");
    }

    #[test]
    fn floor_applies_to_tiny_base() {
        let m = RttModel::default();
        let rtt = m.rtt(SimDuration::from_nanos(10), 0.0, 7);
        assert!(rtt >= m.floor);
    }

    #[test]
    fn utilization_out_of_range_is_clamped() {
        let m = RttModel {
            jitter_fraction: 0.0,
            ..Default::default()
        };
        let base = SimDuration::from_millis(20);
        let neg = m.rtt(base, -5.0, 0);
        assert_eq!(neg, base);
        let over = m.rtt(base, 7.0, 0);
        assert!(over > base);
        assert!(over <= base.mul_f64(1.0 + m.max_congestion_factor) + SimDuration::from_nanos(1));
    }
}
