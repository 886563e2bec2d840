//! The workload catalogue.
//!
//! Table 2 of the paper characterizes the three evaluated applications:
//!
//! | Application | Rationale |
//! |---|---|
//! | Sort      | High network and CPU usage from large shuffles; moderate memory |
//! | PageRank  | High network and CPU usage from iterative data exchange; moderate memory |
//! | Join      | Skewed network, CPU, and memory usage due to imbalanced joins |
//!
//! Two extra workloads (GroupBy, WordCount) round out the catalogue for the
//! wider experiments the paper lists as future work ("a wider range of
//! workload characteristics"); they are not part of the Table 4 reproduction.

use crate::dag::{JobDag, StageSpec};
use std::fmt;

/// Average serialized record size in bytes (key + payload), used to convert
/// the paper's "input size (number of records)" feature into data volume.
pub(crate) const BYTES_PER_RECORD: f64 = 100.0;

/// The supported application types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WorkloadKind {
    /// Distributed sort (TeraSort-style): full-data shuffle.
    Sort,
    /// Iterative PageRank: repeated rank exchange.
    PageRank,
    /// Two-table equi-join with key skew.
    Join,
    /// Group-by with combiner (reduced shuffle volume).
    GroupBy,
    /// WordCount: map-heavy, tiny shuffle.
    WordCount,
}

impl WorkloadKind {
    /// The three workloads evaluated in the paper.
    pub const PAPER_SET: [WorkloadKind; 3] = [
        WorkloadKind::Sort,
        WorkloadKind::PageRank,
        WorkloadKind::Join,
    ];

    /// All supported workloads.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Sort,
        WorkloadKind::PageRank,
        WorkloadKind::Join,
        WorkloadKind::GroupBy,
        WorkloadKind::WordCount,
    ];

    /// Lower-case identifier used in job names, manifests and features.
    pub fn as_str(&self) -> &'static str {
        match self {
            WorkloadKind::Sort => "sort",
            WorkloadKind::PageRank => "pagerank",
            WorkloadKind::Join => "join",
            WorkloadKind::GroupBy => "groupby",
            WorkloadKind::WordCount => "wordcount",
        }
    }

    /// Qualitative resource profile (the Table 2 characterization).
    pub(crate) fn profile(&self) -> WorkloadProfile {
        match self {
            WorkloadKind::Sort => WorkloadProfile {
                network_intensity: 1.0,
                cpu_intensity: 0.8,
                memory_intensity: 0.5,
                skew: 0.05,
                iterations: 1,
            },
            WorkloadKind::PageRank => WorkloadProfile {
                network_intensity: 0.85,
                cpu_intensity: 0.75,
                memory_intensity: 0.5,
                skew: 0.1,
                iterations: 5,
            },
            WorkloadKind::Join => WorkloadProfile {
                network_intensity: 0.7,
                cpu_intensity: 0.6,
                memory_intensity: 0.9,
                skew: 0.45,
                iterations: 1,
            },
            WorkloadKind::GroupBy => WorkloadProfile {
                network_intensity: 0.35,
                cpu_intensity: 0.5,
                memory_intensity: 0.4,
                skew: 0.15,
                iterations: 1,
            },
            WorkloadKind::WordCount => WorkloadProfile {
                network_intensity: 0.1,
                cpu_intensity: 0.9,
                memory_intensity: 0.25,
                skew: 0.05,
                iterations: 1,
            },
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Qualitative resource profile of a workload (normalized 0..=1 intensities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkloadProfile {
    /// How much of the input volume crosses the network in shuffles.
    pub(crate) network_intensity: f64,
    /// CPU seconds per megabyte of input.
    pub(crate) cpu_intensity: f64,
    /// Peak memory per task relative to its data share.
    pub(crate) memory_intensity: f64,
    /// Work skew across partitions (0 = balanced).
    pub skew: f64,
    /// Number of iterations (PageRank > 1).
    pub(crate) iterations: u32,
}

/// A fully specified workload request: what the client submits.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRequest {
    /// Application type.
    pub kind: WorkloadKind,
    /// Input size in records.
    pub input_records: u64,
    /// Number of executors the application will run.
    pub executor_count: u32,
    /// Memory requested per executor, bytes.
    pub executor_memory_bytes: u64,
    /// Cores per executor.
    pub executor_cores: u32,
    /// Shuffle partition count.
    pub shuffle_partitions: u32,
}

impl WorkloadRequest {
    /// Create a request with common defaults (2 executors, 1 core / 1 GiB each,
    /// 8 shuffle partitions).
    pub fn new(kind: WorkloadKind, input_records: u64) -> Self {
        WorkloadRequest {
            kind,
            input_records,
            executor_count: 2,
            executor_memory_bytes: 1024 * 1024 * 1024,
            executor_cores: 1,
            shuffle_partitions: 8,
        }
    }

    /// Builder-style: executor count.
    pub fn with_executors(mut self, count: u32) -> Self {
        self.executor_count = count.max(1);
        self
    }

    /// Builder-style: executor memory in bytes.
    pub fn with_executor_memory(mut self, bytes: u64) -> Self {
        self.executor_memory_bytes = bytes;
        self
    }

    /// Builder-style: cores per executor.
    pub fn with_executor_cores(mut self, cores: u32) -> Self {
        self.executor_cores = cores.max(1);
        self
    }

    /// Builder-style: shuffle partitions.
    pub fn with_shuffle_partitions(mut self, partitions: u32) -> Self {
        self.shuffle_partitions = partitions.max(1);
        self
    }

    /// Input volume in bytes.
    pub(crate) fn input_bytes(&self) -> f64 {
        self.input_records as f64 * BYTES_PER_RECORD
    }

    /// Build the stage DAG for this request.
    pub fn build_dag(&self) -> JobDag {
        let profile = self.kind.profile();
        let input_bytes = self.input_bytes();
        let input_mb = input_bytes / 1e6;
        let partitions = self.shuffle_partitions.max(1);
        let mut stages: Vec<StageSpec> = Vec::new();

        // CPU seconds per task for a stage processing `bytes` across `tasks`.
        let cpu_per_task = |bytes: f64, tasks: u32, intensity: f64| -> f64 {
            let mb = bytes / 1e6;
            (mb * intensity / tasks.max(1) as f64).max(0.05)
        };
        // Memory per task for a stage holding `bytes` across `tasks`.
        let mem_per_task = |bytes: f64, tasks: u32| -> f64 {
            (bytes * profile.memory_intensity / tasks.max(1) as f64).max(16e6)
        };

        match self.kind {
            WorkloadKind::Sort => {
                // Stage 0: read + range-partition the input.
                stages.push(StageSpec {
                    id: 0,
                    name: "sort-map".into(),
                    parents: vec![],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        input_bytes,
                        partitions,
                        profile.cpu_intensity * 0.6,
                    ),
                    shuffle_read_bytes: 0.0,
                    shuffle_write_bytes: input_bytes * profile.network_intensity,
                    memory_per_task_bytes: mem_per_task(input_bytes, partitions),
                    skew: profile.skew,
                });
                // Stage 1: fetch all data, sort each partition, write output.
                stages.push(StageSpec {
                    id: 1,
                    name: "sort-reduce".into(),
                    parents: vec![0],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        input_bytes,
                        partitions,
                        profile.cpu_intensity,
                    ),
                    shuffle_read_bytes: input_bytes * profile.network_intensity,
                    shuffle_write_bytes: 0.0,
                    memory_per_task_bytes: mem_per_task(input_bytes, partitions),
                    skew: profile.skew,
                });
            }
            WorkloadKind::PageRank => {
                // Stage 0: load the edge list and build adjacency.
                stages.push(StageSpec {
                    id: 0,
                    name: "pagerank-load".into(),
                    parents: vec![],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        input_bytes,
                        partitions,
                        profile.cpu_intensity * 0.5,
                    ),
                    shuffle_read_bytes: 0.0,
                    shuffle_write_bytes: input_bytes * 0.5,
                    memory_per_task_bytes: mem_per_task(input_bytes, partitions),
                    skew: profile.skew,
                });
                // Iterations: each exchanges rank contributions (a fraction of
                // the edge data) and updates ranks.
                let per_iter_bytes =
                    input_bytes * profile.network_intensity / profile.iterations as f64 * 1.6;
                for iter in 0..profile.iterations {
                    let id = stages.len();
                    stages.push(StageSpec {
                        id,
                        name: format!("pagerank-iter-{}", iter + 1),
                        parents: vec![id - 1],
                        tasks: partitions,
                        cpu_seconds_per_task: cpu_per_task(
                            input_bytes,
                            partitions,
                            profile.cpu_intensity / profile.iterations as f64 * 1.5,
                        ),
                        shuffle_read_bytes: per_iter_bytes,
                        shuffle_write_bytes: if iter + 1 == profile.iterations {
                            0.0
                        } else {
                            per_iter_bytes
                        },
                        memory_per_task_bytes: mem_per_task(input_bytes, partitions),
                        skew: profile.skew,
                    });
                }
            }
            WorkloadKind::Join => {
                // Stage 0/1: scan the two tables (the build side is ~40% of the input).
                let left_bytes = input_bytes * 0.6;
                let right_bytes = input_bytes * 0.4;
                stages.push(StageSpec {
                    id: 0,
                    name: "join-scan-left".into(),
                    parents: vec![],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        left_bytes,
                        partitions,
                        profile.cpu_intensity * 0.5,
                    ),
                    shuffle_read_bytes: 0.0,
                    shuffle_write_bytes: left_bytes * profile.network_intensity,
                    memory_per_task_bytes: mem_per_task(left_bytes, partitions),
                    skew: 0.05,
                });
                stages.push(StageSpec {
                    id: 1,
                    name: "join-scan-right".into(),
                    parents: vec![],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        right_bytes,
                        partitions,
                        profile.cpu_intensity * 0.5,
                    ),
                    shuffle_read_bytes: 0.0,
                    shuffle_write_bytes: right_bytes * profile.network_intensity,
                    memory_per_task_bytes: mem_per_task(right_bytes, partitions),
                    skew: 0.05,
                });
                // Stage 2: shuffled hash join with key skew.
                stages.push(StageSpec {
                    id: 2,
                    name: "join-probe".into(),
                    parents: vec![0, 1],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        input_bytes,
                        partitions,
                        profile.cpu_intensity,
                    ),
                    shuffle_read_bytes: (left_bytes + right_bytes) * profile.network_intensity,
                    shuffle_write_bytes: 0.0,
                    memory_per_task_bytes: mem_per_task(input_bytes, partitions) * 1.5,
                    skew: profile.skew,
                });
            }
            WorkloadKind::GroupBy => {
                stages.push(StageSpec {
                    id: 0,
                    name: "groupby-map".into(),
                    parents: vec![],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        input_bytes,
                        partitions,
                        profile.cpu_intensity * 0.7,
                    ),
                    shuffle_read_bytes: 0.0,
                    shuffle_write_bytes: input_bytes * profile.network_intensity,
                    memory_per_task_bytes: mem_per_task(input_bytes, partitions),
                    skew: profile.skew,
                });
                stages.push(StageSpec {
                    id: 1,
                    name: "groupby-reduce".into(),
                    parents: vec![0],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        input_bytes * 0.5,
                        partitions,
                        profile.cpu_intensity,
                    ),
                    shuffle_read_bytes: input_bytes * profile.network_intensity,
                    shuffle_write_bytes: 0.0,
                    memory_per_task_bytes: mem_per_task(input_bytes * 0.5, partitions),
                    skew: profile.skew,
                });
            }
            WorkloadKind::WordCount => {
                stages.push(StageSpec {
                    id: 0,
                    name: "wordcount-map".into(),
                    parents: vec![],
                    tasks: partitions,
                    cpu_seconds_per_task: cpu_per_task(
                        input_bytes,
                        partitions,
                        profile.cpu_intensity,
                    ),
                    shuffle_read_bytes: 0.0,
                    shuffle_write_bytes: input_bytes * profile.network_intensity,
                    memory_per_task_bytes: mem_per_task(input_bytes * 0.3, partitions),
                    skew: profile.skew,
                });
                stages.push(StageSpec {
                    id: 1,
                    name: "wordcount-reduce".into(),
                    parents: vec![0],
                    tasks: partitions.clamp(1, 4),
                    cpu_seconds_per_task: cpu_per_task(
                        input_bytes * 0.1,
                        partitions.clamp(1, 4),
                        profile.cpu_intensity,
                    ),
                    shuffle_read_bytes: input_bytes * profile.network_intensity,
                    shuffle_write_bytes: 0.0,
                    memory_per_task_bytes: 32e6,
                    skew: profile.skew,
                });
            }
        }

        // Driver-side work: query planning, task-result deserialization and
        // final aggregation. Result handling grows with the input volume, so
        // CPU pressure on the driver's host is a real completion-time factor.
        let driver_cpu_seconds = 2.0 + 0.06 * input_mb + 0.3 * stages.len() as f64;
        // Result sizes: the driver collects a material fraction of the output
        // (Spark `collect`/`take` of result samples, job metrics and, for the
        // join, the materialized result partition headed back to the client).
        // This is what makes the driver's network position a first-order
        // factor in completion time, as the paper observes.
        let result_fraction = match self.kind {
            WorkloadKind::Sort => 0.12,
            WorkloadKind::PageRank => 0.06,
            WorkloadKind::Join => 0.20,
            WorkloadKind::GroupBy => 0.03,
            WorkloadKind::WordCount => 0.005,
        };
        JobDag {
            stages,
            result_bytes_to_driver: (input_bytes * result_fraction).max(64_000.0),
            driver_cpu_seconds,
            startup_seconds: 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(format!("{}", WorkloadKind::Join), "join");
    }

    #[test]
    fn profiles_match_table2_ordering() {
        // Sort and PageRank are the most network-intensive; Join is the most
        // memory-intensive and most skewed — that is the Table 2 story.
        let sort = WorkloadKind::Sort.profile();
        let pagerank = WorkloadKind::PageRank.profile();
        let join = WorkloadKind::Join.profile();
        let wordcount = WorkloadKind::WordCount.profile();
        assert!(sort.network_intensity >= pagerank.network_intensity);
        assert!(pagerank.network_intensity > join.network_intensity);
        assert!(join.memory_intensity > sort.memory_intensity);
        assert!(join.skew > sort.skew);
        assert!(wordcount.network_intensity < 0.2);
        assert!(pagerank.iterations > 1);
    }

    #[test]
    fn request_builders_and_input_bytes() {
        let req = WorkloadRequest::new(WorkloadKind::Sort, 100_000)
            .with_executors(3)
            .with_executor_memory(2 * 1024 * 1024 * 1024)
            .with_executor_cores(2)
            .with_shuffle_partitions(16);
        assert_eq!(req.executor_count, 3);
        assert_eq!(req.executor_cores, 2);
        assert_eq!(req.shuffle_partitions, 16);
        assert_eq!(req.input_bytes(), 10_000_000.0);
        // Zero values clamp to 1.
        let clamped = WorkloadRequest::new(WorkloadKind::Sort, 10)
            .with_executors(0)
            .with_executor_cores(0)
            .with_shuffle_partitions(0);
        assert_eq!(clamped.executor_count, 1);
        assert_eq!(clamped.executor_cores, 1);
        assert_eq!(clamped.shuffle_partitions, 1);
    }

    #[test]
    fn dags_validate_for_all_workloads_and_sizes() {
        for kind in WorkloadKind::ALL {
            for records in [1_000u64, 100_000, 5_000_000] {
                let dag = WorkloadRequest::new(kind, records).build_dag();
                dag.validate().unwrap_or_else(|e| panic!("{kind}: {e}"));
                assert!(dag.total_cpu_seconds() > 0.0);
                assert!(dag.result_bytes_to_driver > 0.0);
                assert!(dag.driver_cpu_seconds > 0.0);
            }
        }
    }

    #[test]
    fn sort_shuffles_roughly_the_input_volume() {
        let req = WorkloadRequest::new(WorkloadKind::Sort, 1_000_000); // 100 MB
        let dag = req.build_dag();
        let shuffle = dag.total_shuffle_bytes();
        assert!(
            shuffle >= 0.9 * req.input_bytes(),
            "sort must shuffle ~all input, got {shuffle}"
        );
        assert_eq!(dag.stages.len(), 2);
    }

    #[test]
    fn pagerank_has_iterative_structure() {
        let dag = WorkloadRequest::new(WorkloadKind::PageRank, 1_000_000).build_dag();
        assert_eq!(dag.stages.len(), 1 + 5);
        // Chain: each iteration depends on the previous stage.
        for (i, stage) in dag.stages.iter().enumerate().skip(1) {
            assert_eq!(stage.parents, vec![i - 1]);
        }
    }

    #[test]
    fn join_is_skewed_and_memory_heavy() {
        let req = WorkloadRequest::new(WorkloadKind::Join, 1_000_000);
        let join_dag = req.build_dag();
        let sort_dag = WorkloadRequest::new(WorkloadKind::Sort, 1_000_000).build_dag();
        assert_eq!(join_dag.stages.len(), 3);
        assert_eq!(join_dag.stages[2].parents, vec![0, 1]);
        assert!(join_dag.stages[2].skew > sort_dag.stages[1].skew);
        assert!(join_dag.peak_memory_per_task() > sort_dag.peak_memory_per_task());
    }

    #[test]
    fn groupby_shuffles_less_than_sort() {
        let groupby = WorkloadRequest::new(WorkloadKind::GroupBy, 1_000_000).build_dag();
        let sort = WorkloadRequest::new(WorkloadKind::Sort, 1_000_000).build_dag();
        assert!(groupby.total_shuffle_bytes() < sort.total_shuffle_bytes());
        let wordcount = WorkloadRequest::new(WorkloadKind::WordCount, 1_000_000).build_dag();
        assert!(wordcount.total_shuffle_bytes() < groupby.total_shuffle_bytes());
    }

    #[test]
    fn larger_inputs_mean_more_work() {
        let small = WorkloadRequest::new(WorkloadKind::Sort, 100_000).build_dag();
        let large = WorkloadRequest::new(WorkloadKind::Sort, 1_000_000).build_dag();
        assert!(large.total_cpu_seconds() > small.total_cpu_seconds());
        assert!(large.total_shuffle_bytes() > small.total_shuffle_bytes());
        assert!(large.result_bytes_to_driver > small.result_bytes_to_driver);
    }
}
