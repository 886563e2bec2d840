//! The Logger.
//!
//! *"The module captures telemetry and performance data at two stages of each
//! job's lifecycle. Before we submit a job, it records network and node-level
//! telemetry ... After the job completes, it collects application-level
//! metrics such as job duration ... The collected data is used to support
//! offline model training."*
//!
//! Each logged execution appends one row to the logger's [`Dataset`]: the
//! features constructed from the pre-submission snapshot (so training uses
//! exactly what the scheduler will see at decision time), labelled with the
//! measured completion time.

use crate::features::FeatureSchema;
use crate::request::JobRequest;
use mlcore::Dataset;
use telemetry::ClusterSnapshot;

/// Collects training rows straight into an `mlcore` dataset.
#[derive(Debug, Clone)]
pub struct ExecutionLogger {
    schema: FeatureSchema,
    data: Dataset,
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
            data: Dataset::new(schema.len()),
            schema,
        }
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
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
        let row = self.data.add_row(completion_seconds);
        self.schema
            .construct_row(row, snapshot, target_node, request);
    }

    /// The schema every logged row is constructed with.
    pub(crate) fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    /// The log as a training dataset.
    pub(crate) fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// An owned copy of the log as a training dataset.
    pub fn to_dataset(&self) -> Dataset {
        self.data.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Column;
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
        let data = logger.to_dataset();
        assert_eq!(&data, logger.dataset());
        assert_eq!(data.len(), 2);
        assert_eq!(data.n_features(), logger.schema.len());
        assert_eq!(data.targets(), &[33.5, 40.0]);
        let expected = logger.schema.construct(&snapshot(), "node-1", &request());
        assert_eq!(data.row(0), expected);
        assert_eq!(data.row(1), expected);
        // Feature vector contains the snapshot's cpu load.
        let cpu_idx = logger.schema.position(Column::CpuLoad).unwrap();
        assert_eq!(data.row(0)[cpu_idx], 1.0);
    }
}
