//! The Feature Constructor (Table 1).
//!
//! For each candidate node the constructor combines the latest telemetry
//! snapshot with the static job configuration into a fixed-width feature
//! vector:
//!
//! | Feature | Description | Type |
//! |---|---|---|
//! | `rtt_mean`, `rtt_max`, `rtt_std` | RTT statistics from the candidate node to all peers | Network |
//! | `tx_rate`, `rx_rate` | transmit / receive throughput (bytes/s) | Network |
//! | `cpu_load` | load average (runnable processes) | Node |
//! | `memory_available` | available memory (bytes) | Node |
//! | `app_*` (one-hot) | categorical application type | Job |
//! | `input_records` | input data size | Job |
//! | `executor_count`, `executor_cores`, `executor_memory_gb`, `shuffle_partitions` | resource configuration | Job |
//!
//! The schema is fixed and versioned by position so a model trained offline
//! keeps working when re-loaded by a long-running scheduler.

use crate::request::JobRequest;
use mlcore::FeatureMatrix;
use sparksim::WorkloadKind;
use telemetry::{ClusterSnapshot, NodeTelemetry};

/// Which group a feature belongs to (Table 1's Type column). Used by the
/// ablation experiments to drop whole groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureGroup {
    /// Network telemetry (RTT, throughput).
    Network,
    /// Host telemetry (CPU, memory).
    Node,
    /// Static job configuration.
    Job,
}

/// A named, grouped feature schema with a stable column order.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSchema {
    names: Vec<String>,
    groups: Vec<FeatureGroup>,
}

/// One constructed feature vector (aligned with a [`FeatureSchema`]).
pub(crate) type FeatureVector = Vec<f64>;

impl Default for FeatureSchema {
    fn default() -> Self {
        Self::standard()
    }
}

impl FeatureSchema {
    /// The full Table 1 schema.
    pub fn standard() -> Self {
        let mut names: Vec<String> = Vec::new();
        let mut groups: Vec<FeatureGroup> = Vec::new();
        let mut push = |name: &str, group: FeatureGroup| {
            names.push(name.to_string());
            groups.push(group);
        };
        push("rtt_mean_s", FeatureGroup::Network);
        push("rtt_max_s", FeatureGroup::Network);
        push("rtt_std_s", FeatureGroup::Network);
        push("tx_rate_bps", FeatureGroup::Network);
        push("rx_rate_bps", FeatureGroup::Network);
        push("cpu_load", FeatureGroup::Node);
        push("memory_available_bytes", FeatureGroup::Node);
        for kind in WorkloadKind::ALL {
            push(&format!("app_{}", kind.as_str()), FeatureGroup::Job);
        }
        push("input_records", FeatureGroup::Job);
        push("executor_count", FeatureGroup::Job);
        push("executor_cores", FeatureGroup::Job);
        push("executor_memory_gb", FeatureGroup::Job);
        push("shuffle_partitions", FeatureGroup::Job);
        FeatureSchema { names, groups }
    }

    /// A schema restricted to the given groups (ablation variants).
    pub fn with_groups(groups_to_keep: &[FeatureGroup]) -> Self {
        let full = Self::standard();
        let mut names = Vec::new();
        let mut groups = Vec::new();
        for (name, group) in full.names.into_iter().zip(full.groups) {
            if groups_to_keep.contains(&group) {
                names.push(name);
                groups.push(group);
            }
        }
        FeatureSchema { names, groups }
    }

    /// Column names in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Column groups in order.
    pub fn groups(&self) -> &[FeatureGroup] {
        &self.groups
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Index of a named feature.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Build the feature vector for `candidate_node` given the telemetry
    /// snapshot and the job request. Missing telemetry falls back to zeros,
    /// mirroring how a Prometheus query returns empty vectors for unscraped
    /// instances.
    pub fn construct(
        &self,
        snapshot: &ClusterSnapshot,
        candidate_node: &str,
        job: &JobRequest,
    ) -> FeatureVector {
        let node = snapshot.node(candidate_node).copied().unwrap_or_default();
        let rtt_stats = snapshot.rtt_stats_from(candidate_node);
        let mut out = Vec::with_capacity(self.len());
        self.construct_into(&mut out, &node, rtt_stats, job);
        out
    }

    /// The value of one named feature from pre-resolved telemetry. Shared by
    /// every construction variant so the vector and matrix paths produce the
    /// same floats.
    fn feature_value(
        name: &str,
        node: &NodeTelemetry,
        rtt_stats: (f64, f64, f64),
        job: &JobRequest,
    ) -> f64 {
        let (rtt_mean, rtt_max, rtt_std) = rtt_stats;
        match name {
            "rtt_mean_s" => rtt_mean,
            "rtt_max_s" => rtt_max,
            "rtt_std_s" => rtt_std,
            "tx_rate_bps" => node.tx_rate,
            "rx_rate_bps" => node.rx_rate,
            "cpu_load" => node.cpu_load,
            "memory_available_bytes" => node.memory_available_bytes,
            "input_records" => job.workload.input_records as f64,
            "executor_count" => job.workload.executor_count as f64,
            "executor_cores" => job.workload.executor_cores as f64,
            "executor_memory_gb" => {
                job.workload.executor_memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
            }
            "shuffle_partitions" => job.workload.shuffle_partitions as f64,
            other => {
                if let Some(app) = other.strip_prefix("app_") {
                    if app == job.app_type() {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    0.0
                }
            }
        }
    }

    /// Allocation-free feature construction from pre-resolved telemetry: the
    /// hot-path variant used by the scheduling context, which resolves
    /// per-node telemetry and RTT statistics once per burst. `out` is cleared
    /// and refilled; reuse it across candidates to avoid per-candidate
    /// allocation.
    pub fn construct_into(
        &self,
        out: &mut FeatureVector,
        node: &NodeTelemetry,
        rtt_stats: (f64, f64, f64),
        job: &JobRequest,
    ) {
        out.clear();
        out.reserve(self.len());
        out.extend(
            self.names
                .iter()
                .map(|name| Self::feature_value(name, node, rtt_stats, job)),
        );
    }

    /// Append one candidate's feature row to a contiguous [`FeatureMatrix`]
    /// (the batch-inference input). The matrix stride must match the schema
    /// width; rows are constructed in place, no temporary `Vec`.
    pub fn construct_into_matrix(
        &self,
        matrix: &mut FeatureMatrix,
        node: &NodeTelemetry,
        rtt_stats: (f64, f64, f64),
        job: &JobRequest,
    ) {
        assert_eq!(
            matrix.n_features(),
            self.len(),
            "matrix stride must match the schema width"
        );
        let row = matrix.add_row();
        for (slot, name) in row.iter_mut().zip(&self.names) {
            *slot = Self::feature_value(name, node, rtt_stats, job);
        }
    }

    /// Markdown rendering of the schema (Table 1 of the `reproduce` binary).
    pub fn to_markdown_table(&self) -> String {
        let mut out = String::from("| Feature | Type |\n|---|---|\n");
        for (name, group) in self.names.iter().zip(&self.groups) {
            let group = match group {
                FeatureGroup::Network => "Network",
                FeatureGroup::Node => "Node",
                FeatureGroup::Job => "Job",
            };
            out.push_str(&format!("| {name} | {group} |\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
    use telemetry::NodeTelemetry;

    fn snapshot() -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(100));
        snap.insert_node(
            "node-1",
            NodeTelemetry {
                cpu_load: 2.5,
                memory_available_bytes: 6e9,
                tx_rate: 1e6,
                rx_rate: 2e6,
            },
        );
        snap.insert_node(
            "node-2",
            NodeTelemetry {
                cpu_load: 0.5,
                memory_available_bytes: 7e9,
                tx_rate: 0.0,
                rx_rate: 0.0,
            },
        );
        snap.insert_rtt("node-1", "node-2", 0.010);
        snap.insert_rtt("node-1", "node-3", 0.070);
        snap.insert_rtt("node-2", "node-1", 0.011);
        snap
    }

    fn job() -> JobRequest {
        JobRequest::named("sort-x", WorkloadKind::Sort, 250_000, 3)
    }

    #[test]
    fn standard_schema_has_expected_columns() {
        let schema = FeatureSchema::standard();
        assert!(!schema.is_empty());
        // 7 telemetry + 5 one-hot app + 5 job config = 17.
        assert_eq!(schema.len(), 17);
        assert_eq!(schema.names().len(), schema.groups().len());
        assert_eq!(schema.index_of("cpu_load"), Some(5));
        assert_eq!(schema.index_of("does_not_exist"), None);
        let network = schema
            .groups()
            .iter()
            .filter(|g| **g == FeatureGroup::Network)
            .count();
        let node = schema
            .groups()
            .iter()
            .filter(|g| **g == FeatureGroup::Node)
            .count();
        let jobg = schema
            .groups()
            .iter()
            .filter(|g| **g == FeatureGroup::Job)
            .count();
        assert_eq!((network, node, jobg), (5, 2, 10));
    }

    #[test]
    fn construct_reads_telemetry_and_job_config() {
        let schema = FeatureSchema::standard();
        let vec = schema.construct(&snapshot(), "node-1", &job());
        assert_eq!(vec.len(), schema.len());
        let get = |name: &str| vec[schema.index_of(name).unwrap()];
        assert!((get("rtt_mean_s") - 0.040).abs() < 1e-9);
        assert_eq!(get("rtt_max_s"), 0.070);
        assert!(get("rtt_std_s") > 0.0);
        assert_eq!(get("tx_rate_bps"), 1e6);
        assert_eq!(get("rx_rate_bps"), 2e6);
        assert_eq!(get("cpu_load"), 2.5);
        assert_eq!(get("memory_available_bytes"), 6e9);
        assert_eq!(get("app_sort"), 1.0);
        assert_eq!(get("app_join"), 0.0);
        assert_eq!(get("input_records"), 250_000.0);
        assert_eq!(get("executor_count"), 3.0);
        assert_eq!(get("executor_memory_gb"), 1.0);
        assert_eq!(get("shuffle_partitions"), 8.0);
    }

    #[test]
    fn unknown_node_falls_back_to_zeros() {
        let schema = FeatureSchema::standard();
        let vec = schema.construct(&snapshot(), "node-99", &job());
        let get = |name: &str| vec[schema.index_of(name).unwrap()];
        assert_eq!(get("cpu_load"), 0.0);
        assert_eq!(get("rtt_mean_s"), 0.0);
        // Job features are still present.
        assert_eq!(get("input_records"), 250_000.0);
    }

    #[test]
    fn construct_into_matches_construct_and_reuses_buffer() {
        let schema = FeatureSchema::standard();
        let snap = snapshot();
        let job = job();
        let mut buffer = FeatureVector::new();
        for node in ["node-1", "node-2", "node-99"] {
            let telemetry = snap.node(node).copied().unwrap_or_default();
            schema.construct_into(&mut buffer, &telemetry, snap.rtt_stats_from(node), &job);
            assert_eq!(buffer, schema.construct(&snap, node, &job), "{node}");
        }
    }

    #[test]
    fn matrix_construction_matches_vector_construction() {
        let schema = FeatureSchema::standard();
        let snap = snapshot();
        let job = job();
        let candidates = ["node-2", "node-1", "node-99"];
        let mut matrix = FeatureMatrix::new(schema.len());
        for candidate in candidates {
            let node = snap.node(candidate).copied().unwrap_or_default();
            schema.construct_into_matrix(&mut matrix, &node, snap.rtt_stats_from(candidate), &job);
        }
        assert_eq!(matrix.n_rows(), 3);
        assert_eq!(matrix.n_features(), schema.len());
        for (i, candidate) in candidates.iter().enumerate() {
            assert_eq!(
                matrix.row(i),
                schema.construct(&snap, candidate, &job),
                "{candidate}"
            );
        }
    }

    #[test]
    fn construct_follows_candidate_order() {
        let schema = FeatureSchema::standard();
        let candidates = ["node-2".to_string(), "node-1".to_string()];
        let vecs: Vec<FeatureVector> = candidates
            .iter()
            .map(|node| schema.construct(&snapshot(), node, &job()))
            .collect();
        assert_eq!(vecs.len(), 2);
        let cpu = schema.index_of("cpu_load").unwrap();
        assert_eq!(vecs[0][cpu], 0.5);
        assert_eq!(vecs[1][cpu], 2.5);
    }

    #[test]
    fn group_restricted_schemas() {
        let network_only = FeatureSchema::with_groups(&[FeatureGroup::Network]);
        assert_eq!(network_only.len(), 5);
        assert!(network_only
            .names()
            .iter()
            .all(|n| n.starts_with("rtt") || n.contains("rate")));
        let no_network = FeatureSchema::with_groups(&[FeatureGroup::Node, FeatureGroup::Job]);
        assert_eq!(no_network.len(), 12);
        let vec = no_network.construct(&snapshot(), "node-1", &job());
        assert_eq!(vec.len(), 12);
        let empty = FeatureSchema::with_groups(&[]);
        assert!(empty.is_empty());
    }

    #[test]
    fn one_hot_is_exclusive_across_workloads() {
        let schema = FeatureSchema::standard();
        for kind in WorkloadKind::ALL {
            let job = JobRequest::named("j", kind, 1000, 2);
            let vec = schema.construct(&snapshot(), "node-1", &job);
            let hot: f64 = WorkloadKind::ALL
                .iter()
                .map(|k| vec[schema.index_of(&format!("app_{}", k.as_str())).unwrap()])
                .sum();
            assert_eq!(hot, 1.0, "exactly one app indicator set for {kind}");
        }
    }

    #[test]
    fn markdown_table_lists_every_feature() {
        let schema = FeatureSchema::standard();
        let md = schema.to_markdown_table();
        for name in schema.names() {
            assert!(md.contains(name.as_str()));
        }
        assert!(md.contains("| Feature | Type |"));
        assert!(md.contains("Network"));
        assert!(md.contains("Node"));
        assert!(md.contains("Job"));
    }
}
