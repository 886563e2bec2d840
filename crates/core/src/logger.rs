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
use telemetry::ClusterSnapshot;

/// One training sample: pre-run features plus the measured duration.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrainingRecord {
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

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
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
            features,
            completion_seconds,
        });
    }

    /// Convert the log into a training dataset: each record's feature slice
    /// is appended straight into the dataset's contiguous matrix, with no
    /// intermediate row-of-`Vec`s copy.
    #[expect(
        clippy::expect_used,
        reason = "every record comes from `log_execution`, which builds its row with this logger's schema"
    )]
    pub fn to_dataset(&self) -> Dataset {
        let mut data = Dataset::new(self.schema.names().to_vec());
        for record in &self.records {
            data.push_row(&record.features, record.completion_seconds)
                .expect("rows are built with the logger's own schema");
        }
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;
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
        assert_eq!(
            logger.records[0].features,
            logger.schema.construct(&snapshot(), "node-1", &request())
        );
        assert_eq!(logger.records[0].completion_seconds, 33.5);
        let data = logger.to_dataset();
        assert_eq!(data.len(), 2);
        assert_eq!(data.n_features(), logger.schema.len());
        assert_eq!(data.targets(), &[33.5, 40.0]);
        // Feature vector contains the snapshot's cpu load.
        let cpu_idx = logger.schema.index_of("cpu_load").unwrap();
        assert_eq!(data.row(0)[cpu_idx], 1.0);
    }
}
