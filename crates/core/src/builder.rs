//! The Job Builder.
//!
//! *"The module generates and submits jobs to the Kubernetes cluster based on
//! the placement decision. It renders a declarative YAML manifest ... Node
//! placement is enforced by injecting nodeAffinity rules into the generated
//! specification."*

use crate::request::JobRequest;
use cluster::manifest::render_job_manifest_into;
use cluster::pod::{set_target, PodSpec};
use cluster::{JobSpec, Resources};
use serde::{Deserialize, Serialize};

/// A fully rendered job ready for submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuiltJob {
    /// The cluster-level job specification.
    pub spec: JobSpec,
    /// The driver pod spec, pinned to the selected node.
    pub driver_pod: PodSpec,
    /// Executor pod specs (left to the default scheduler).
    pub executor_pods: Vec<PodSpec>,
    /// The node the driver is pinned to (None = no pinning, default behaviour).
    pub target_node: Option<String>,
    /// The rendered SparkApplication YAML manifest.
    pub manifest_yaml: String,
}

impl BuiltJob {
    /// An empty shell for in-place building via [`JobBuilder::build_into`].
    pub fn empty() -> Self {
        BuiltJob {
            spec: JobSpec::new(String::new(), String::new(), 0),
            driver_pod: PodSpec::new(String::new(), Resources::ZERO),
            executor_pods: Vec::new(),
            target_node: None,
            manifest_yaml: String::new(),
        }
    }
}

/// Builds Kubernetes-style job objects from a request and a placement decision.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobBuilder;

impl JobBuilder {
    /// Build the job pinned to `target_node` (or unpinned when `None`, which
    /// reproduces the default-scheduler baseline behaviour).
    pub fn build(&self, request: &JobRequest, target_node: Option<&str>) -> BuiltJob {
        let mut out = BuiltJob::empty();
        self.build_into(request, target_node, &mut out);
        out
    }

    /// In-place variant of [`JobBuilder::build`]: rebuild `out` for this
    /// request and placement, reusing its spec, pod, manifest and name
    /// allocations. Steady-state bursts over same-shaped requests rebuild
    /// whole jobs without touching the heap.
    pub fn build_into(&self, request: &JobRequest, target_node: Option<&str>, out: &mut BuiltJob) {
        request.to_job_spec_into(&mut out.spec);
        out.spec.driver_pod_into(target_node, &mut out.driver_pod);
        out.spec.executor_pods_into(&mut out.executor_pods);
        render_job_manifest_into(&mut out.manifest_yaml, &out.spec, target_node);
        set_target(&mut out.target_node, target_node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparksim::WorkloadKind;

    fn request() -> JobRequest {
        JobRequest::named("sort-42", WorkloadKind::Sort, 100_000, 3)
    }

    #[test]
    fn pinned_build_injects_affinity_everywhere() {
        let built = JobBuilder.build(&request(), Some("node-5"));
        assert_eq!(built.target_node.as_deref(), Some("node-5"));
        // The driver pod is pinned to the target.
        assert_eq!(built.driver_pod.pinned_node.as_deref(), Some("node-5"));
        // Executors are not pinned.
        assert!(built.executor_pods.iter().all(|e| e.pinned_node.is_none()));
        assert_eq!(built.executor_pods.len(), 3);
        // Manifest carries the injection.
        assert!(built
            .manifest_yaml
            .contains("requiredDuringSchedulingIgnoredDuringExecution"));
        assert!(built.manifest_yaml.contains("- node-5"));
        assert!(built.manifest_yaml.contains("kind: SparkApplication"));
    }

    #[test]
    fn unpinned_build_has_no_affinity() {
        let built = JobBuilder.build(&request(), None);
        assert_eq!(built.target_node, None);
        assert_eq!(built.driver_pod.pinned_node, None);
        assert!(!built.manifest_yaml.contains("requiredDuringScheduling"));
    }

    #[test]
    fn spec_matches_request() {
        let built = JobBuilder.build(&request(), Some("node-1"));
        assert_eq!(built.spec.executor_count, 3);
        assert_eq!(built.spec.app_type, "sort");
        assert_eq!(built.spec.input_records, 100_000);
    }
}
