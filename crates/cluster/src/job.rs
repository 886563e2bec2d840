//! Spark-application-shaped jobs.
//!
//! The paper submits Spark applications through the Spark Operator: each job
//! launches a **driver** pod (placed by the scheduler under evaluation) and a
//! set of **executor** pods (placed by the default scheduler). This module
//! models that job's desired state; the actual execution semantics (stages,
//! shuffles, completion time) live in the `sparksim` crate.

use crate::pod::{set_target, PodSpec};
use crate::resources::Resources;
use std::fmt::Write as _;

/// Desired state of a job: the driver template plus executor sizing.
///
/// The fields mirror the job-configuration features of Table 1 in the paper
/// (application type, input size, executor count, requested memory).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job name (e.g. `sort-100k-3ex`).
    pub name: String,
    /// Application type string (e.g. `sort`, `pagerank`, `join`).
    pub app_type: String,
    /// Input size in records.
    pub input_records: u64,
    /// Number of executor pods.
    pub executor_count: u32,
    /// Resources requested by the driver pod.
    pub driver_requests: Resources,
    /// Resources requested by each executor pod.
    pub executor_requests: Resources,
    /// Free-form extra configuration (shuffle partitions, etc.).
    pub shuffle_partitions: u32,
}

impl JobSpec {
    /// Create a job spec with sensible Spark-ish defaults.
    pub fn new(name: impl Into<String>, app_type: impl Into<String>, input_records: u64) -> Self {
        JobSpec {
            name: name.into(),
            app_type: app_type.into(),
            input_records,
            executor_count: 2,
            driver_requests: Resources::from_cores_and_gib(1, 1),
            executor_requests: Resources::from_cores_and_gib(1, 1),
            shuffle_partitions: 8,
        }
    }

    /// The driver pod spec, optionally pinned to a specific node (this is the
    /// injection performed by the paper's Job Builder).
    pub fn driver_pod(&self, pinned_node: Option<&str>) -> PodSpec {
        let mut spec = PodSpec::new(String::new(), self.driver_requests);
        self.driver_pod_into(pinned_node, &mut spec);
        spec
    }

    /// In-place variant of [`JobSpec::driver_pod`]: rebuild `out` as this
    /// job's driver pod, reusing its name and pin allocations.
    pub fn driver_pod_into(&self, pinned_node: Option<&str>, out: &mut PodSpec) {
        out.name.clear();
        let _ = write!(out.name, "{}-driver", self.name);
        out.requests = self.driver_requests;
        set_target(&mut out.pinned_node, pinned_node);
    }

    /// The executor pod specs (placed by the default scheduler in the paper).
    pub fn executor_pods(&self) -> Vec<PodSpec> {
        (1..=self.executor_count)
            .map(|i| PodSpec::new(format!("{}-exec-{i}", self.name), self.executor_requests))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_pod_is_pinned_when_requested() {
        let spec = JobSpec::new("sort-1", "sort", 100_000);
        let unpinned = spec.driver_pod(None);
        assert_eq!(unpinned.name, "sort-1-driver");
        assert_eq!(unpinned.requests, spec.driver_requests);
        assert_eq!(unpinned.pinned_node, None);
        let mut pinned = spec.driver_pod(Some("node-4"));
        assert_eq!(pinned.pinned_node.as_deref(), Some("node-4"));
        // Rebuilding in place moves or drops the pin.
        spec.driver_pod_into(Some("node-2"), &mut pinned);
        assert_eq!(pinned.pinned_node.as_deref(), Some("node-2"));
        spec.driver_pod_into(None, &mut pinned);
        assert_eq!(pinned, unpinned);
    }

    #[test]
    fn executor_pods_are_enumerated() {
        let mut spec = JobSpec::new("join-2", "join", 50_000);
        spec.executor_count = 4;
        let execs = spec.executor_pods();
        assert_eq!(execs.len(), 4);
        assert_eq!(execs[0].name, "join-2-exec-1");
        assert_eq!(execs[3].name, "join-2-exec-4");
        assert!(execs
            .iter()
            .all(|e| e.pinned_node.is_none() && e.requests == spec.executor_requests));
    }
}
