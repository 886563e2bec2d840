//! Spark-application-shaped jobs.
//!
//! The paper submits Spark applications through the Spark Operator: each job
//! launches a **driver** pod (placed by the scheduler under evaluation) and a
//! set of **executor** pods (placed by the default scheduler). This module
//! models that job object and its lifecycle; the actual execution semantics
//! (stages, shuffles, completion time) live in the `sparksim` crate.

use crate::pod::{set_target, PodId, PodSpec};
use crate::resources::Resources;
use serde::{Deserialize, Serialize};
use simcore::SimTime;
use std::fmt;
use std::fmt::Write as _;

/// Identifier of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle phase of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobPhase {
    /// Submitted, driver not yet placed.
    Pending,
    /// Driver and executors are running.
    Running,
    /// All work finished successfully.
    Succeeded,
    /// The job failed.
    Failed,
}

/// Desired state of a job: the driver template plus executor sizing.
///
/// The fields mirror the job-configuration features of Table 1 in the paper
/// (application type, input size, executor count, requested memory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Builder-style: set executor count.
    pub fn with_executors(mut self, count: u32) -> Self {
        self.executor_count = count;
        self
    }

    /// Builder-style: set driver resources.
    pub fn with_driver_requests(mut self, requests: Resources) -> Self {
        self.driver_requests = requests;
        self
    }

    /// Builder-style: set per-executor resources.
    pub fn with_executor_requests(mut self, requests: Resources) -> Self {
        self.executor_requests = requests;
        self
    }

    /// Builder-style: set the shuffle partition count.
    pub fn with_shuffle_partitions(mut self, partitions: u32) -> Self {
        self.shuffle_partitions = partitions;
        self
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
        let mut out = Vec::with_capacity(self.executor_count as usize);
        self.executor_pods_into(&mut out);
        out
    }

    /// In-place variant of [`JobSpec::executor_pods`]: rebuild `out` as this
    /// job's executor pod set, reusing the pod specs already in the vector.
    pub fn executor_pods_into(&self, out: &mut Vec<PodSpec>) {
        out.resize_with(self.executor_count as usize, || {
            PodSpec::new(String::new(), Resources::ZERO)
        });
        for (i, pod) in out.iter_mut().enumerate() {
            pod.name.clear();
            let _ = write!(pod.name, "{}-exec-{}", self.name, i + 1);
            pod.requests = self.executor_requests;
            pod.pinned_node = None;
        }
    }

    /// Total resources the whole application will request.
    pub fn total_requests(&self) -> Resources {
        let mut total = self.driver_requests;
        for _ in 0..self.executor_count {
            total += self.executor_requests;
        }
        total
    }
}

/// A job instance tracked by the control plane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Desired state.
    pub spec: JobSpec,
    /// Current phase.
    pub phase: JobPhase,
    /// The node hosting the driver, once placed.
    pub driver_node: Option<String>,
    /// Driver pod id, once created.
    pub driver_pod: Option<PodId>,
    /// Executor pod ids, once created.
    pub executor_pods: Vec<PodId>,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Completion time.
    pub finished_at: Option<SimTime>,
}

impl Job {
    /// Create a pending job.
    pub fn new(id: JobId, spec: JobSpec, now: SimTime) -> Self {
        Job {
            id,
            spec,
            phase: JobPhase::Pending,
            driver_node: None,
            driver_pod: None,
            executor_pods: Vec::new(),
            submitted_at: now,
            finished_at: None,
        }
    }

    /// Job completion time (submission to finish), if finished.
    pub fn completion_time(&self) -> Option<simcore::SimDuration> {
        self.finished_at.map(|f| f - self.submitted_at)
    }

    /// True when the job reached a terminal phase.
    pub fn is_terminal(&self) -> bool {
        matches!(self.phase, JobPhase::Succeeded | JobPhase::Failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builders() {
        let spec = JobSpec::new("sort-1", "sort", 100_000)
            .with_executors(3)
            .with_driver_requests(Resources::from_cores_and_gib(1, 2))
            .with_executor_requests(Resources::from_cores_and_gib(2, 2))
            .with_shuffle_partitions(16);
        assert_eq!(spec.executor_count, 3);
        assert_eq!(spec.shuffle_partitions, 16);
        assert_eq!(
            spec.total_requests(),
            Resources::from_cores_and_gib(1 + 6, 2 + 6)
        );
    }

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
        let spec = JobSpec::new("join-2", "join", 50_000).with_executors(4);
        let execs = spec.executor_pods();
        assert_eq!(execs.len(), 4);
        assert_eq!(execs[0].name, "join-2-exec-1");
        assert_eq!(execs[3].name, "join-2-exec-4");
        assert!(execs
            .iter()
            .all(|e| e.pinned_node.is_none() && e.requests == spec.executor_requests));
    }

    #[test]
    fn job_lifecycle() {
        let mut job = Job::new(
            JobId(1),
            JobSpec::new("j", "sort", 1000),
            SimTime::from_secs(10),
        );
        assert_eq!(job.phase, JobPhase::Pending);
        assert!(!job.is_terminal());
        assert_eq!(job.completion_time(), None);
        job.phase = JobPhase::Succeeded;
        job.finished_at = Some(SimTime::from_secs(40));
        assert!(job.is_terminal());
        assert_eq!(job.completion_time().unwrap().as_secs_f64(), 30.0);
        assert_eq!(format!("{}", job.id), "job-1");
    }
}
