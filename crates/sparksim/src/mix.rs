//! Workload-mix generators.
//!
//! The paper's Section 5.2 matrix enumerates 60 fixed job configurations; the
//! scenario sweep instead wants *families* of workloads with a controlled
//! character, so a scheduler can be judged under shuffle-bound, ingest-bound,
//! structurally diverse and bursty regimes. A [`WorkloadMixSpec`] expands into
//! a deterministic list of [`GeneratedJob`]s given a seed:
//!
//! * [`MixKind::ShuffleHeavy`] — Sort/PageRank/Join with large inputs and
//!   generous partition counts: most bytes cross the network as shuffles.
//! * [`MixKind::InputFetchHeavy`] — Join/GroupBy/WordCount over big inputs
//!   with modest shuffles: the dominant transfers are the input scans and the
//!   result collection onto the driver (the model's "input fetch" analogue).
//! * [`MixKind::MixedDagSizes`] — all five workloads across wide input,
//!   executor and partition ranges, yielding DAGs from 2 to 6+ stages.
//! * [`MixKind::BurstyArrivals`] — paper workloads arriving in tight bursts
//!   separated by long idle gaps, so jobs land on a cluster whose telemetry
//!   is still transient.
//!
//! Generation is **deterministic in `(spec, seed)`**, which the scenario
//! sweep relies on for byte-identical reports.

use crate::workload::{WorkloadKind, WorkloadRequest};
use simcore::rng::Rng;
use simcore::SimDuration;
use std::fmt;

/// A workload-mix family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MixKind {
    /// Network-bound: most input bytes are shuffled.
    ShuffleHeavy,
    /// Ingest/result-bound: large inputs, small shuffles, heavy driver collect.
    InputFetchHeavy,
    /// Structurally diverse DAGs across all workloads and sizes.
    MixedDagSizes,
    /// Paper workloads arriving in bursts.
    BurstyArrivals,
}

impl MixKind {
    /// Every mix family.
    pub const ALL: [MixKind; 4] = [
        MixKind::ShuffleHeavy,
        MixKind::InputFetchHeavy,
        MixKind::MixedDagSizes,
        MixKind::BurstyArrivals,
    ];

    /// Lower-case identifier used in cell names and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            MixKind::ShuffleHeavy => "shuffle-heavy",
            MixKind::InputFetchHeavy => "input-fetch-heavy",
            MixKind::MixedDagSizes => "mixed-dag-sizes",
            MixKind::BurstyArrivals => "bursty-arrivals",
        }
    }
}

impl fmt::Display for MixKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One generated job: the request parameters plus its arrival offset within
/// the mix (offsets are what distinguish bursty from steady arrival shapes).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedJob {
    /// Dense index within the mix.
    pub index: usize,
    /// Workload type.
    pub kind: WorkloadKind,
    /// Input size in records.
    pub input_records: u64,
    /// Executor count.
    pub executor_count: u32,
    /// Executor memory in bytes.
    pub executor_memory_bytes: u64,
    /// Shuffle partition count.
    pub shuffle_partitions: u32,
    /// Arrival time relative to the first job of the mix.
    pub arrival_offset: SimDuration,
}

impl GeneratedJob {
    /// A descriptive name, e.g. `mix3-sort-250k`.
    pub fn name(&self) -> String {
        format!(
            "mix{}-{}-{}k",
            self.index,
            self.kind.as_str(),
            self.input_records / 1000
        )
    }

    /// Convert into a submission request.
    pub fn request(&self) -> WorkloadRequest {
        WorkloadRequest::new(self.kind, self.input_records)
            .with_executors(self.executor_count)
            .with_executor_memory(self.executor_memory_bytes)
            .with_executor_cores(1)
            .with_shuffle_partitions(self.shuffle_partitions)
    }
}

/// Declarative description of a workload mix: which family, how many jobs,
/// and a global input-size scale.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadMixSpec {
    /// The mix family.
    pub kind: MixKind,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Multiplier applied to every drawn input size (1.0 = nominal).
    pub input_scale: f64,
}

impl WorkloadMixSpec {
    /// A mix of `jobs` jobs from `kind` at nominal input scale.
    pub fn new(kind: MixKind, jobs: usize) -> Self {
        WorkloadMixSpec {
            kind,
            jobs,
            input_scale: 1.0,
        }
    }

    /// Builder-style: scale every input size.
    pub fn with_input_scale(mut self, scale: f64) -> Self {
        self.input_scale = scale.max(0.01);
        self
    }

    /// Short name, e.g. `shuffle-heavy-5`.
    pub fn name(&self) -> String {
        format!("{}-{}", self.kind.as_str(), self.jobs)
    }

    /// Warm-up range (seconds) a scenario harness should settle the system
    /// for before snapshotting telemetry. Bursty mixes use a short, tight
    /// range so jobs observe the transient state their burst creates.
    pub fn warmup_seconds(&self) -> (f64, f64) {
        match self.kind {
            MixKind::BurstyArrivals => (2.0, 6.0),
            _ => (8.0, 20.0),
        }
    }

    /// Expand the spec into concrete jobs. Deterministic in `(self, seed)`.
    pub fn generate(&self, seed: u64) -> Vec<GeneratedJob> {
        let mut rng = Rng::seed_from_u64(seed ^ 0x4D49_585F_4A4F_4253); // "MIX_JOBS"
        let mut jobs = Vec::with_capacity(self.jobs);
        let mut arrival = SimDuration::ZERO;
        let mut burst_left = 0usize;
        for index in 0..self.jobs {
            let (kind, records, partitions) = match self.kind {
                MixKind::ShuffleHeavy => {
                    let kind = match rng.weighted_index(&[0.5, 0.3, 0.2]).unwrap_or(0) {
                        0 => WorkloadKind::Sort,
                        1 => WorkloadKind::PageRank,
                        _ => WorkloadKind::Join,
                    };
                    let records = rng.gen_range_usize(200_000, 1_000_001) as u64;
                    (kind, records, 8 + 4 * rng.gen_range_usize(0, 3) as u32)
                }
                MixKind::InputFetchHeavy => {
                    let kind = match rng.weighted_index(&[0.4, 0.3, 0.3]).unwrap_or(0) {
                        0 => WorkloadKind::Join,
                        1 => WorkloadKind::GroupBy,
                        _ => WorkloadKind::WordCount,
                    };
                    let records = rng.gen_range_usize(500_000, 2_000_001) as u64;
                    (kind, records, 4 + 2 * rng.gen_range_usize(0, 3) as u32)
                }
                MixKind::MixedDagSizes => {
                    let kind = WorkloadKind::ALL[rng.gen_range_usize(0, WorkloadKind::ALL.len())];
                    let records = rng.gen_range_usize(50_000, 1_500_001) as u64;
                    (kind, records, 2 + 2 * rng.gen_range_usize(0, 12) as u32)
                }
                MixKind::BurstyArrivals => {
                    let set = WorkloadKind::PAPER_SET;
                    let kind = set[rng.gen_range_usize(0, set.len())];
                    let records = rng.gen_range_usize(100_000, 800_001) as u64;
                    (kind, records, 8)
                }
            };
            // Arrival process: steady exponential gaps, except bursty mixes
            // which emit tight clusters separated by long idle stretches.
            if index > 0 {
                let gap = match self.kind {
                    MixKind::BurstyArrivals => {
                        if burst_left == 0 {
                            burst_left = rng.gen_range_usize(2, 5);
                            rng.uniform(60.0, 180.0)
                        } else {
                            rng.uniform(0.5, 2.0)
                        }
                    }
                    _ => rng.exponential(1.0 / 30.0).min(120.0),
                };
                burst_left = burst_left.saturating_sub(1);
                arrival += SimDuration::from_secs_f64(gap);
            }
            let records = ((records as f64 * self.input_scale) as u64).max(1_000);
            jobs.push(GeneratedJob {
                index,
                kind,
                input_records: records,
                executor_count: 2 + rng.gen_range_usize(0, 2) as u32,
                executor_memory_bytes: (1 + rng.gen_range_usize(0, 2) as u64) << 30,
                shuffle_partitions: partitions.max(1),
                arrival_offset: arrival,
            });
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{execute_job, NoContention};
    use crate::placement::Placement;
    use proptest::prelude::*;
    use simcore::SimTime;
    use simnet::{Network, NodeId, StarLanSpec, TopologySpec};

    fn specs(jobs: usize) -> Vec<WorkloadMixSpec> {
        MixKind::ALL
            .iter()
            .map(|&kind| WorkloadMixSpec::new(kind, jobs))
            .collect()
    }

    #[test]
    fn generation_is_deterministic_and_sized() {
        for spec in specs(6) {
            let a = spec.generate(99);
            let b = spec.generate(99);
            assert_eq!(a, b, "{} must be reproducible", spec.name());
            assert_eq!(a.len(), 6);
            let c = spec.generate(100);
            assert_ne!(a, c, "{} must respond to the seed", spec.name());
            // Arrival offsets are non-decreasing.
            for pair in a.windows(2) {
                assert!(pair[0].arrival_offset <= pair[1].arrival_offset);
            }
        }
    }

    #[test]
    fn mixes_have_their_advertised_character() {
        let shuffle_fraction = |spec: &WorkloadMixSpec| -> f64 {
            let jobs = spec.generate(7);
            let (mut shuffled, mut input) = (0.0, 0.0);
            for job in &jobs {
                let request = job.request();
                shuffled += request.build_dag().total_shuffle_bytes();
                input += request.input_bytes();
            }
            shuffled / input
        };
        let heavy = shuffle_fraction(&WorkloadMixSpec::new(MixKind::ShuffleHeavy, 12));
        let fetchy = shuffle_fraction(&WorkloadMixSpec::new(MixKind::InputFetchHeavy, 12));
        assert!(
            heavy > fetchy * 1.5,
            "shuffle-heavy ({heavy:.2}) must out-shuffle input-fetch-heavy ({fetchy:.2})"
        );
        // Bursty arrivals actually cluster: at least one sub-2.5s gap and one
        // 60s+ gap.
        let bursty = WorkloadMixSpec::new(MixKind::BurstyArrivals, 10).generate(5);
        let gaps: Vec<f64> = bursty
            .windows(2)
            .map(|w| (w[1].arrival_offset - w[0].arrival_offset).as_secs_f64())
            .collect();
        assert!(gaps.iter().any(|&g| g < 2.5), "gaps {gaps:?}");
        assert!(gaps.iter().any(|&g| g >= 60.0), "gaps {gaps:?}");
        // Mixed DAG sizes really vary the stage count.
        let mixed = WorkloadMixSpec::new(MixKind::MixedDagSizes, 16).generate(3);
        let stage_counts: std::collections::BTreeSet<usize> = mixed
            .iter()
            .map(|j| j.request().build_dag().stage_count())
            .collect();
        assert!(stage_counts.len() >= 2, "stage counts {stage_counts:?}");
    }

    #[test]
    fn input_scale_scales_inputs() {
        let base = WorkloadMixSpec::new(MixKind::ShuffleHeavy, 8);
        let scaled = base.clone().with_input_scale(2.0);
        let a = base.generate(1);
        let b = scaled.generate(1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                y.input_records,
                ((x.input_records as f64 * 2.0) as u64).max(1_000)
            );
        }
    }

    #[test]
    fn warmup_hint_is_tight_for_bursts() {
        let bursty = WorkloadMixSpec::new(MixKind::BurstyArrivals, 4).warmup_seconds();
        let steady = WorkloadMixSpec::new(MixKind::ShuffleHeavy, 4).warmup_seconds();
        assert!(bursty.1 < steady.0 + steady.1);
        assert!(bursty.0 < steady.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every generated job yields a valid (acyclic, topologically ordered)
        /// DAG whose per-stage shuffle reads are covered by its parents'
        /// writes, and the bytes a job moves are conserved across placements.
        #[test]
        fn generated_dags_are_acyclic_and_conserve_bytes(
            kind_idx in 0usize..4,
            jobs in 1usize..6,
            seed in 0u64..1_000_000,
            scale in 0.25f64..2.0,
        ) {
            let spec = WorkloadMixSpec::new(MixKind::ALL[kind_idx], jobs).with_input_scale(scale);
            let generated = spec.generate(seed);
            prop_assert_eq!(generated.len(), jobs);
            let topo = TopologySpec::StarLan(StarLanSpec { nodes: 4, ..Default::default() })
                .build(0)
                .expect("star LAN builds");
            for job in &generated {
                let dag = job.request().build_dag();
                // Acyclic + topologically ordered + non-empty stages.
                prop_assert!(dag.validate().is_ok(), "{}: {:?}", job.name(), dag.validate());
                prop_assert!(dag.shuffle_reads_covered(), "{} reads exceed writes", job.name());
                // Byte conservation across placements: the same DAG executed
                // under two different placements moves exactly the same
                // shuffle volume (placement shifts *where* bytes go, never how
                // many there are).
                let run = |driver: usize, execs: [usize; 2]| {
                    let mut network = Network::new(topo.clone());
                    let placement = Placement::new(
                        NodeId(driver),
                        vec![NodeId(execs[0]), NodeId(execs[1])],
                    );
                    execute_job(
                        &dag,
                        &job.request(),
                        &placement,
                        &mut network,
                        &|_| 0.0,
                        &mut NoContention,
                        SimTime::ZERO,
                    )
                };
                let a = run(0, [1, 2]);
                let b = run(3, [2, 0]);
                prop_assert!(a.completion_seconds() > 0.0);
                prop_assert!(
                    (a.shuffle_bytes - b.shuffle_bytes).abs() < 1.0,
                    "{}: {} vs {}",
                    job.name(),
                    a.shuffle_bytes,
                    b.shuffle_bytes
                );
            }
        }
    }
}
