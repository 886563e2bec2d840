//! The Section 5.2 job matrix.
//!
//! *"Our setup includes 60 distinct job configurations across three Spark
//! applications and covers a range of input sizes, executor counts, memory
//! allocations, and shuffle patterns."* The matrix below spans exactly that
//! space: 3 workloads × 5 input sizes × 2 executor counts × 2 memory
//! allocations = 60 configurations.

use netsched_core::JobRequest;
use sparksim::{WorkloadKind, WorkloadRequest};

/// One job configuration from the experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct JobConfig {
    /// Stable configuration id (0..59 for the paper matrix).
    pub id: usize,
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
    /// Arrival time of this job relative to the experiment epoch, seconds.
    /// The batch workflow advances each scenario's world by this much extra
    /// before snapshotting, so jobs from a bursty mix observe the contention
    /// process at their actual arrival phase (the paper's fixed matrix
    /// submits everything at the epoch: 0.0).
    pub(crate) arrival_offset_seconds: f64,
}

impl JobConfig {
    /// A descriptive name, e.g. `sort-250k-3x-2g`.
    pub(crate) fn name(&self) -> String {
        format!(
            "{}-{}k-{}x-{}g",
            self.kind.as_str(),
            self.input_records / 1000,
            self.executor_count,
            self.executor_memory_bytes / (1024 * 1024 * 1024)
        )
    }

    /// Convert into a submission request.
    pub fn to_request(&self) -> JobRequest {
        JobRequest::new(
            self.name(),
            WorkloadRequest::new(self.kind, self.input_records)
                .with_executors(self.executor_count)
                .with_executor_memory(self.executor_memory_bytes)
                .with_executor_cores(1)
                .with_shuffle_partitions(self.shuffle_partitions),
        )
    }
}

/// Input sizes (records) used by the matrix. At ~100 bytes/record these span
/// 5 MB to 100 MB of input data.
pub(crate) const INPUT_SIZES: [u64; 5] = [50_000, 100_000, 250_000, 500_000, 1_000_000];

/// Executor counts used by the matrix.
pub(crate) const EXECUTOR_COUNTS: [u32; 2] = [2, 3];

/// Executor memory allocations used by the matrix (bytes).
pub(crate) const EXECUTOR_MEMORY: [u64; 2] = [1 << 30, 2 << 30];

/// Build the full 60-configuration matrix over the paper's three workloads.
pub fn job_matrix() -> Vec<JobConfig> {
    let mut configs = Vec::with_capacity(60);
    let mut id = 0;
    for kind in WorkloadKind::PAPER_SET {
        for &input_records in &INPUT_SIZES {
            for &executor_count in &EXECUTOR_COUNTS {
                for &executor_memory_bytes in &EXECUTOR_MEMORY {
                    configs.push(JobConfig {
                        id,
                        kind,
                        input_records,
                        executor_count,
                        executor_memory_bytes,
                        shuffle_partitions: 4 * executor_count,
                        arrival_offset_seconds: 0.0,
                    });
                    id += 1;
                }
            }
        }
    }
    configs
}

/// A reduced matrix for quick runs and tests: `per_workload` configurations
/// per workload, sampled evenly across the full matrix.
pub(crate) fn small_job_matrix(per_workload: usize) -> Vec<JobConfig> {
    let full = job_matrix();
    let per_workload = per_workload.max(1);
    let mut out = Vec::new();
    for kind in WorkloadKind::PAPER_SET {
        let of_kind: Vec<&JobConfig> = full.iter().filter(|c| c.kind == kind).collect();
        let stride = (of_kind.len() / per_workload).max(1);
        for chunk in of_kind.chunks(stride) {
            if out.iter().filter(|c: &&JobConfig| c.kind == kind).count() < per_workload {
                out.push(chunk[0].clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_has_exactly_sixty_distinct_configs() {
        let matrix = job_matrix();
        assert_eq!(matrix.len(), 60);
        let names: std::collections::BTreeSet<String> = matrix.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 60, "names must be unique");
        let ids: std::collections::BTreeSet<usize> = matrix.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), 60);
        // 20 per workload.
        for kind in WorkloadKind::PAPER_SET {
            assert_eq!(matrix.iter().filter(|c| c.kind == kind).count(), 20);
        }
    }

    #[test]
    fn configs_convert_to_requests() {
        let config = &job_matrix()[7];
        let request = config.to_request();
        assert_eq!(request.workload.kind, config.kind);
        assert_eq!(request.workload.input_records, config.input_records);
        assert_eq!(request.workload.executor_count, config.executor_count);
        assert_eq!(
            request.workload.executor_memory_bytes,
            config.executor_memory_bytes
        );
        assert_eq!(request.name, config.name());
    }

    #[test]
    fn names_are_descriptive() {
        let matrix = job_matrix();
        let sort_small = matrix
            .iter()
            .find(|c| {
                c.kind == WorkloadKind::Sort
                    && c.input_records == 50_000
                    && c.executor_count == 2
                    && c.executor_memory_bytes == 1 << 30
            })
            .unwrap();
        assert_eq!(sort_small.name(), "sort-50k-2x-1g");
    }

    #[test]
    fn small_matrix_samples_every_workload() {
        let small = small_job_matrix(2);
        assert_eq!(small.len(), 6);
        for kind in WorkloadKind::PAPER_SET {
            assert_eq!(small.iter().filter(|c| c.kind == kind).count(), 2);
        }
        let one = small_job_matrix(1);
        assert_eq!(one.len(), 3);
        // Requesting more than available clamps to the full per-workload count.
        let big = small_job_matrix(100);
        assert!(big.len() <= 60);
    }
}
