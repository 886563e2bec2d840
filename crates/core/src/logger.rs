//! The Logger.
//!
//! *"The module captures telemetry and performance data at two stages of each
//! job's lifecycle. Before we submit a job, it records network and node-level
//! telemetry ... After the job completes, it collects application-level
//! metrics such as job duration ... The collected data is used to support
//! offline model training."*
//!
//! Each [`TrainingRecord`] stores the feature vector constructed from the
//! pre-submission snapshot (so training uses exactly what the scheduler will
//! see at decision time) together with the measured completion time.

use crate::features::{FeatureSchema, FeatureVector};
use crate::request::JobRequest;
use mlcore::Dataset;
use simcore::SimTime;
use telemetry::ClusterSnapshot;

/// One training sample: pre-run features plus the measured duration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingRecord {
    /// When the job was submitted.
    pub submitted_at: SimTime,
    /// Job name.
    pub job_name: String,
    /// Application type (e.g. `sort`).
    pub app_type: String,
    /// Node the driver was launched on.
    pub target_node: String,
    /// The constructed feature vector (aligned with the logger's schema).
    pub features: FeatureVector,
    /// Measured job completion time in seconds (the label).
    pub completion_seconds: f64,
}

/// Collects training records and converts them into an `mlcore` dataset.
#[derive(Debug, Clone)]
pub struct ExecutionLogger {
    schema: FeatureSchema,
    records: Vec<TrainingRecord>,
}

impl Default for ExecutionLogger {
    fn default() -> Self {
        Self::new(FeatureSchema::standard())
    }
}

impl ExecutionLogger {
    /// Create a logger using the given feature schema.
    pub fn new(schema: FeatureSchema) -> Self {
        ExecutionLogger {
            schema,
            records: Vec::new(),
        }
    }

    /// The schema used to construct logged feature vectors.
    pub fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn records(&self) -> &[TrainingRecord] {
        &self.records
    }

    /// Log one completed execution: the snapshot taken *before* submission,
    /// the request, the node the driver ran on and the measured duration.
    pub fn log_execution(
        &mut self,
        snapshot: &ClusterSnapshot,
        request: &JobRequest,
        target_node: &str,
        completion_seconds: f64,
    ) {
        let features = self.schema.construct(snapshot, target_node, request);
        self.records.push(TrainingRecord {
            submitted_at: snapshot.time,
            job_name: request.name.clone(),
            app_type: request.app_type().to_string(),
            target_node: target_node.to_string(),
            features,
            completion_seconds,
        });
    }

    /// Append an already-constructed record.
    pub fn push_record(&mut self, record: TrainingRecord) {
        self.records.push(record);
    }

    /// Convert the log into a training dataset: each record's feature slice
    /// is appended straight into the dataset's contiguous matrix, with no
    /// intermediate row-of-`Vec`s copy.
    #[expect(
        clippy::expect_used,
        reason = "the guarding `if` compares the row width against the schema"
    )]
    pub fn to_dataset(&self) -> Dataset {
        let mut data = Dataset::new(self.schema.names().to_vec());
        for record in &self.records {
            // A record pushed by hand could have a stale width; skip anything
            // that does not match the current schema.
            if record.features.len() == self.schema.len() {
                data.push_row(&record.features, record.completion_seconds)
                    .expect("width checked above");
            }
        }
        data
    }

    /// Serialize all records to a CSV string (header + one row per record).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("submitted_at_s,job_name,app_type,target_node,");
        out.push_str(&self.schema.names().join(","));
        out.push_str(",completion_seconds\n");
        for r in &self.records {
            out.push_str(&format!(
                "{:.3},{},{},{}",
                r.submitted_at.as_secs_f64(),
                r.job_name,
                r.app_type,
                r.target_node
            ));
            for v in &r.features {
                out.push_str(&format!(",{v}"));
            }
            out.push_str(&format!(",{}\n", r.completion_seconds));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparksim::WorkloadKind;
    use telemetry::NodeTelemetry;

    fn snapshot() -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(42));
        snap.insert_node(
            "node-1",
            NodeTelemetry {
                cpu_load: 1.0,
                memory_available_bytes: 5e9,
                tx_rate: 1e5,
                rx_rate: 2e5,
            },
        );
        snap.insert_rtt("node-1", "node-2", 0.02);
        snap
    }

    fn request() -> JobRequest {
        JobRequest::named("sort-a", WorkloadKind::Sort, 50_000, 2)
    }

    #[test]
    fn logging_builds_dataset_rows() {
        let mut logger = ExecutionLogger::default();
        assert!(logger.is_empty());
        logger.log_execution(&snapshot(), &request(), "node-1", 33.5);
        logger.log_execution(&snapshot(), &request(), "node-1", 40.0);
        assert_eq!(logger.len(), 2);
        assert_eq!(logger.records()[0].target_node, "node-1");
        assert_eq!(logger.records()[0].app_type, "sort");
        assert_eq!(logger.records()[0].completion_seconds, 33.5);
        let data = logger.to_dataset();
        assert_eq!(data.len(), 2);
        assert_eq!(data.n_features(), logger.schema().len());
        assert_eq!(data.targets(), &[33.5, 40.0]);
        // Feature vector contains the snapshot's cpu load.
        let cpu_idx = logger.schema().index_of("cpu_load").unwrap();
        assert_eq!(data.row(0)[cpu_idx], 1.0);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let mut logger = ExecutionLogger::default();
        logger.log_execution(&snapshot(), &request(), "node-1", 12.0);
        let csv = logger.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("submitted_at_s,job_name,app_type,target_node,rtt_mean_s"));
        assert!(lines[0].ends_with("completion_seconds"));
        assert!(lines[1].contains("sort-a"));
        assert!(lines[1].ends_with(",12"));
        // Column count is constant across header and data.
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn mismatched_imported_records_are_skipped_in_dataset() {
        let mut logger = ExecutionLogger::default();
        logger.push_record(TrainingRecord {
            submitted_at: SimTime::ZERO,
            job_name: "old".into(),
            app_type: "sort".into(),
            target_node: "node-1".into(),
            features: vec![1.0, 2.0], // wrong width
            completion_seconds: 10.0,
        });
        logger.log_execution(&snapshot(), &request(), "node-1", 20.0);
        let data = logger.to_dataset();
        assert_eq!(data.len(), 1);
        assert_eq!(data.targets(), &[20.0]);
        assert_eq!(logger.len(), 2, "raw records are kept");
    }
}
