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
//! A [`FeatureSchema`] is an ordered list of [`Column`]s, and a row is
//! positional over it: cell `i` holds column `i`'s value, from construction
//! through the logger's dataset to training and inference. One exhaustive
//! `match` on [`Column`] fills every cell, so a new column is one variant
//! and the compiler refuses it until that `match` says how it is filled.
//! Column names exist only to render Table 1.

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

/// One feature column of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Column {
    /// Mean RTT from the candidate node to its peers (seconds).
    RttMean,
    /// Largest RTT from the candidate node to its peers (seconds).
    RttMax,
    /// Standard deviation of the candidate node's RTTs (seconds).
    RttStd,
    /// Transmit throughput (bytes/s).
    TxRate,
    /// Receive throughput (bytes/s).
    RxRate,
    /// Load average (runnable processes).
    CpuLoad,
    /// Available memory (bytes).
    MemoryAvailable,
    /// One-hot application type: 1 when the job runs this workload.
    App(WorkloadKind),
    /// Input data size (records).
    InputRecords,
    /// Number of executors.
    ExecutorCount,
    /// Cores per executor.
    ExecutorCores,
    /// Memory per executor (GiB).
    ExecutorMemoryGb,
    /// Shuffle partitions.
    ShufflePartitions,
}

impl Column {
    /// Table 1's Type column.
    pub(crate) fn group(self) -> FeatureGroup {
        match self {
            Column::RttMean | Column::RttMax | Column::RttStd | Column::TxRate | Column::RxRate => {
                FeatureGroup::Network
            }
            Column::CpuLoad | Column::MemoryAvailable => FeatureGroup::Node,
            Column::App(_)
            | Column::InputRecords
            | Column::ExecutorCount
            | Column::ExecutorCores
            | Column::ExecutorMemoryGb
            | Column::ShufflePartitions => FeatureGroup::Job,
        }
    }

    /// The column's name in Table 1.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Column::RttMean => "rtt_mean_s",
            Column::RttMax => "rtt_max_s",
            Column::RttStd => "rtt_std_s",
            Column::TxRate => "tx_rate_bps",
            Column::RxRate => "rx_rate_bps",
            Column::CpuLoad => "cpu_load",
            Column::MemoryAvailable => "memory_available_bytes",
            Column::App(WorkloadKind::Sort) => "app_sort",
            Column::App(WorkloadKind::PageRank) => "app_pagerank",
            Column::App(WorkloadKind::Join) => "app_join",
            Column::App(WorkloadKind::GroupBy) => "app_groupby",
            Column::App(WorkloadKind::WordCount) => "app_wordcount",
            Column::InputRecords => "input_records",
            Column::ExecutorCount => "executor_count",
            Column::ExecutorCores => "executor_cores",
            Column::ExecutorMemoryGb => "executor_memory_gb",
            Column::ShufflePartitions => "shuffle_partitions",
        }
    }
}

/// An ordered list of feature columns; rows are positional over it.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureSchema {
    columns: Vec<Column>,
}

impl Default for FeatureSchema {
    fn default() -> Self {
        Self::standard()
    }
}

impl FeatureSchema {
    /// The full Table 1 schema.
    pub fn standard() -> Self {
        let mut columns = vec![
            Column::RttMean,
            Column::RttMax,
            Column::RttStd,
            Column::TxRate,
            Column::RxRate,
            Column::CpuLoad,
            Column::MemoryAvailable,
        ];
        columns.extend(WorkloadKind::ALL.map(Column::App));
        columns.extend([
            Column::InputRecords,
            Column::ExecutorCount,
            Column::ExecutorCores,
            Column::ExecutorMemoryGb,
            Column::ShufflePartitions,
        ]);
        FeatureSchema { columns }
    }

    /// The standard schema restricted to the given groups, in standard order
    /// (ablation variants).
    pub fn with_groups(groups: &[FeatureGroup]) -> Self {
        let mut schema = Self::standard();
        schema
            .columns
            .retain(|column| groups.contains(&column.group()));
        schema
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Position of `column` in a row, if the schema has it.
    pub fn position(&self, column: Column) -> Option<usize> {
        self.columns.iter().position(|&c| c == column)
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
    ) -> Vec<f64> {
        let mut out = vec![0.0; self.len()];
        self.construct_row(&mut out, snapshot, candidate_node, job);
        out
    }

    /// [`FeatureSchema::construct`] into a borrowed row of this schema's
    /// width (the logger's dataset row).
    pub(crate) fn construct_row(
        &self,
        row: &mut [f64],
        snapshot: &ClusterSnapshot,
        candidate_node: &str,
        job: &JobRequest,
    ) {
        let node = snapshot.node(candidate_node).copied().unwrap_or_default();
        self.fill(row, &node, snapshot.rtt_stats_from(candidate_node), job);
    }

    /// Allocation-free feature construction from pre-resolved telemetry: the
    /// hot-path variant used by the scheduling context, which resolves
    /// per-node telemetry and RTT statistics once per burst. `out` is cleared
    /// and refilled; reuse it across candidates to avoid per-candidate
    /// allocation.
    pub fn construct_into(
        &self,
        out: &mut Vec<f64>,
        node: &NodeTelemetry,
        rtt_stats: (f64, f64, f64),
        job: &JobRequest,
    ) {
        out.clear();
        out.resize(self.len(), 0.0);
        self.fill(out, node, rtt_stats, job);
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
        self.fill(matrix.add_row(), node, rtt_stats, job);
    }

    /// Fill `row` positionally from pre-resolved telemetry: every
    /// construction variant ends here, so the vector, matrix and logger
    /// paths produce the same floats.
    fn fill(
        &self,
        row: &mut [f64],
        node: &NodeTelemetry,
        (rtt_mean, rtt_max, rtt_std): (f64, f64, f64),
        job: &JobRequest,
    ) {
        let workload = &job.workload;
        for (slot, &column) in row.iter_mut().zip(&self.columns) {
            *slot = match column {
                Column::RttMean => rtt_mean,
                Column::RttMax => rtt_max,
                Column::RttStd => rtt_std,
                Column::TxRate => node.tx_rate,
                Column::RxRate => node.rx_rate,
                Column::CpuLoad => node.cpu_load,
                Column::MemoryAvailable => node.memory_available_bytes,
                Column::App(kind) => {
                    if workload.kind == kind {
                        1.0
                    } else {
                        0.0
                    }
                }
                Column::InputRecords => workload.input_records as f64,
                Column::ExecutorCount => workload.executor_count as f64,
                Column::ExecutorCores => workload.executor_cores as f64,
                Column::ExecutorMemoryGb => {
                    workload.executor_memory_bytes as f64 / (1024.0 * 1024.0 * 1024.0)
                }
                Column::ShufflePartitions => workload.shuffle_partitions as f64,
            };
        }
    }

    /// Markdown rendering of the schema (Table 1 of the `reproduce` binary).
    pub fn to_markdown_table(&self) -> String {
        let mut out = String::from("| Feature | Type |\n|---|---|\n");
        for column in &self.columns {
            let group = match column.group() {
                FeatureGroup::Network => "Network",
                FeatureGroup::Node => "Node",
                FeatureGroup::Job => "Job",
            };
            out.push_str(&format!("| {} | {group} |\n", column.name()));
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
    fn standard_schema_pins_table_1() {
        use Column::*;
        use FeatureGroup::{Job, Network, Node};
        let expected = [
            (RttMean, "rtt_mean_s", Network),
            (RttMax, "rtt_max_s", Network),
            (RttStd, "rtt_std_s", Network),
            (TxRate, "tx_rate_bps", Network),
            (RxRate, "rx_rate_bps", Network),
            (CpuLoad, "cpu_load", Node),
            (MemoryAvailable, "memory_available_bytes", Node),
            (App(WorkloadKind::Sort), "app_sort", Job),
            (App(WorkloadKind::PageRank), "app_pagerank", Job),
            (App(WorkloadKind::Join), "app_join", Job),
            (App(WorkloadKind::GroupBy), "app_groupby", Job),
            (App(WorkloadKind::WordCount), "app_wordcount", Job),
            (InputRecords, "input_records", Job),
            (ExecutorCount, "executor_count", Job),
            (ExecutorCores, "executor_cores", Job),
            (ExecutorMemoryGb, "executor_memory_gb", Job),
            (ShufflePartitions, "shuffle_partitions", Job),
        ];
        let schema = FeatureSchema::standard();
        assert_eq!(schema.len(), 17);
        let triples: Vec<(Column, &str, FeatureGroup)> = schema
            .columns
            .iter()
            .map(|&c| (c, c.name(), c.group()))
            .collect();
        assert_eq!(triples, expected);
        for (i, (column, _, _)) in expected.iter().enumerate() {
            assert_eq!(schema.position(*column), Some(i));
        }
        assert_eq!(FeatureSchema::with_groups(&[Job]).position(CpuLoad), None);
    }

    /// The standard schema holds every variant once, so its names are every
    /// variant's name.
    #[test]
    fn every_column_name_is_distinct() {
        let columns = FeatureSchema::standard().columns;
        for (i, a) in columns.iter().enumerate() {
            for b in &columns[i + 1..] {
                assert_ne!(a, b);
                assert_ne!(a.name(), b.name(), "{a:?} and {b:?}");
            }
        }
    }

    #[test]
    fn with_groups_keeps_standard_order_for_every_group_subset() {
        let all = [FeatureGroup::Network, FeatureGroup::Node, FeatureGroup::Job];
        let standard = FeatureSchema::standard().columns;
        for mask in 0..8u8 {
            let groups: Vec<FeatureGroup> = (0..3)
                .filter(|bit| mask & (1 << bit) != 0)
                .map(|bit| all[bit])
                .collect();
            let expected: Vec<Column> = standard
                .iter()
                .copied()
                .filter(|c| groups.contains(&c.group()))
                .collect();
            // Listing the groups in reverse changes nothing.
            let reversed: Vec<FeatureGroup> = groups.iter().rev().copied().collect();
            assert_eq!(FeatureSchema::with_groups(&groups).columns, expected);
            assert_eq!(FeatureSchema::with_groups(&reversed).columns, expected);
        }
    }

    #[test]
    fn construct_reads_telemetry_and_job_config() {
        let schema = FeatureSchema::standard();
        let vec = schema.construct(&snapshot(), "node-1", &job());
        assert_eq!(vec.len(), schema.len());
        let get = |column| vec[schema.position(column).unwrap()];
        assert!((get(Column::RttMean) - 0.040).abs() < 1e-9);
        assert_eq!(get(Column::RttMax), 0.070);
        assert!(get(Column::RttStd) > 0.0);
        assert_eq!(get(Column::TxRate), 1e6);
        assert_eq!(get(Column::RxRate), 2e6);
        assert_eq!(get(Column::CpuLoad), 2.5);
        assert_eq!(get(Column::MemoryAvailable), 6e9);
        assert_eq!(get(Column::App(WorkloadKind::Sort)), 1.0);
        assert_eq!(get(Column::App(WorkloadKind::Join)), 0.0);
        assert_eq!(get(Column::InputRecords), 250_000.0);
        assert_eq!(get(Column::ExecutorCount), 3.0);
        assert_eq!(get(Column::ExecutorMemoryGb), 1.0);
        assert_eq!(get(Column::ShufflePartitions), 8.0);
    }

    #[test]
    fn unknown_node_falls_back_to_zeros() {
        let schema = FeatureSchema::standard();
        let vec = schema.construct(&snapshot(), "node-99", &job());
        let get = |column| vec[schema.position(column).unwrap()];
        assert_eq!(get(Column::CpuLoad), 0.0);
        assert_eq!(get(Column::RttMean), 0.0);
        // Job features are still present.
        assert_eq!(get(Column::InputRecords), 250_000.0);
    }

    #[test]
    fn construct_into_matches_construct_and_reuses_buffer() {
        let schema = FeatureSchema::standard();
        let snap = snapshot();
        let job = job();
        let mut buffer = Vec::new();
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
        let vecs: Vec<Vec<f64>> = candidates
            .iter()
            .map(|node| schema.construct(&snapshot(), node, &job()))
            .collect();
        assert_eq!(vecs.len(), 2);
        let cpu = schema.position(Column::CpuLoad).unwrap();
        assert_eq!(vecs[0][cpu], 0.5);
        assert_eq!(vecs[1][cpu], 2.5);
    }

    #[test]
    fn group_restricted_schemas() {
        let network_only = FeatureSchema::with_groups(&[FeatureGroup::Network]);
        assert_eq!(network_only.len(), 5);
        assert!(network_only
            .columns
            .iter()
            .all(|c| c.group() == FeatureGroup::Network));
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
                .map(|&k| vec[schema.position(Column::App(k)).unwrap()])
                .sum();
            assert_eq!(hot, 1.0, "exactly one app indicator set for {kind}");
        }
    }

    #[test]
    fn markdown_table_lists_every_feature() {
        let schema = FeatureSchema::standard();
        let md = schema.to_markdown_table();
        for column in &schema.columns {
            assert!(md.contains(&format!("| {} |", column.name())));
        }
        assert!(md.contains("| Feature | Type |"));
        assert!(md.contains("Network"));
        assert!(md.contains("Node"));
        assert!(md.contains("Job"));
    }
}
