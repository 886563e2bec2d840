//! Job requests: what the client submits.

use cluster::{JobSpec, Resources};
use sparksim::{WorkloadKind, WorkloadRequest};

/// A client job submission: the application to run plus its configuration.
///
/// This corresponds to the paper's client component: *"a job submission
/// request, which includes application-specific parameters such as job type
/// (e.g., sort, join), input data size, and resource configuration (e.g.,
/// executor count, memory)."*
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Unique job name.
    pub name: String,
    /// The workload to run (type, input size, executors, memory, partitions).
    pub workload: WorkloadRequest,
    /// CPU requested by the driver pod, millicores.
    pub driver_cpu_millis: u64,
    /// Memory requested by the driver pod, bytes.
    pub driver_memory_bytes: u64,
}

impl JobRequest {
    /// Create a request with default driver sizing (1 core, 1 GiB).
    pub fn new(name: impl Into<String>, workload: WorkloadRequest) -> Self {
        JobRequest {
            name: name.into(),
            workload,
            driver_cpu_millis: 1000,
            driver_memory_bytes: 1024 * 1024 * 1024,
        }
    }

    /// Convenience constructor from workload parameters.
    pub fn named(
        name: impl Into<String>,
        kind: WorkloadKind,
        input_records: u64,
        executors: u32,
    ) -> Self {
        JobRequest::new(
            name,
            WorkloadRequest::new(kind, input_records).with_executors(executors),
        )
    }

    /// Builder-style: driver resources.
    pub fn with_driver_resources(mut self, cpu_millis: u64, memory_bytes: u64) -> Self {
        self.driver_cpu_millis = cpu_millis;
        self.driver_memory_bytes = memory_bytes;
        self
    }

    /// The application type string (feature + manifest field).
    pub(crate) fn app_type(&self) -> &'static str {
        self.workload.kind.as_str()
    }

    /// Driver resource requests as a [`Resources`] bundle.
    pub fn driver_resources(&self) -> Resources {
        Resources::new(self.driver_cpu_millis, self.driver_memory_bytes)
    }

    /// Per-executor resource requests as a [`Resources`] bundle.
    pub(crate) fn executor_resources(&self) -> Resources {
        Resources::new(
            self.workload.executor_cores as u64 * 1000,
            self.workload.executor_memory_bytes,
        )
    }

    /// Convert into a cluster-level [`JobSpec`] (driver + executor templates).
    pub fn to_job_spec(&self) -> JobSpec {
        let mut spec = JobSpec::new(String::new(), String::new(), 0);
        self.to_job_spec_into(&mut spec);
        spec
    }

    /// In-place variant of [`JobRequest::to_job_spec`]: overwrite every field
    /// of `spec`, reusing its string allocations.
    pub(crate) fn to_job_spec_into(&self, spec: &mut JobSpec) {
        spec.name.clone_from(&self.name);
        spec.app_type.clear();
        spec.app_type.push_str(self.app_type());
        spec.input_records = self.workload.input_records;
        spec.executor_count = self.workload.executor_count;
        spec.driver_requests = self.driver_resources();
        spec.executor_requests = self.executor_resources();
        spec.shuffle_partitions = self.workload.shuffle_partitions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let req = JobRequest::named("sort-1", WorkloadKind::Sort, 100_000, 3)
            .with_driver_resources(2000, 2 * 1024 * 1024 * 1024);
        assert_eq!(req.name, "sort-1");
        assert_eq!(req.app_type(), "sort");
        assert_eq!(req.workload.executor_count, 3);
        assert_eq!(req.driver_resources().cpu_cores(), 2.0);
        assert_eq!(req.driver_resources().memory_gib(), 2.0);
        assert_eq!(req.executor_resources().cpu_millis, 1000);
    }

    #[test]
    fn job_spec_conversion_carries_all_fields() {
        let req = JobRequest::named("join-5", WorkloadKind::Join, 500_000, 4);
        let spec = req.to_job_spec();
        assert_eq!(spec.name, "join-5");
        assert_eq!(spec.app_type, "join");
        assert_eq!(spec.input_records, 500_000);
        assert_eq!(spec.executor_count, 4);
        assert_eq!(spec.driver_requests, req.driver_resources());
        assert_eq!(spec.executor_requests, req.executor_resources());
        assert_eq!(spec.shuffle_partitions, req.workload.shuffle_partitions);
    }
}
