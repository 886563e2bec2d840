//! Tables 1, 2 and 3.
//!
//! * **Table 1** — the input feature schema (rendered from the Feature
//!   Constructor's live schema so code and documentation cannot drift apart).
//! * **Table 2** — workload characteristics: the paper gives a qualitative
//!   characterization (network/CPU/memory profile); here it is backed by
//!   measured quantities from single-job runs of each workload.
//! * **Table 3** — a representative training sample (subset of the feature
//!   set plus the measured duration).

use crate::fabric::FabricTestbed;
use crate::world::SimWorld;
use netsched_core::{FeatureSchema, JobRequest};
use simcore::SimDuration;
use simnet::BackgroundLoadConfig;
use sparksim::{WorkloadKind, WorkloadRequest};

/// Table 1: render the live feature schema as markdown.
pub fn table1_feature_schema() -> String {
    FeatureSchema::standard().to_markdown_table()
}

/// Measured characteristics of one workload (Table 2 backing data).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCharacteristics {
    /// Application name.
    pub(crate) application: String,
    /// Bytes shuffled over the network per run.
    pub(crate) shuffle_mb: f64,
    /// Total CPU work in core-seconds per run.
    pub(crate) cpu_core_seconds: f64,
    /// Peak per-task memory in MB.
    pub(crate) peak_task_memory_mb: f64,
    /// Work-skew factor of the heaviest stage.
    pub skew: f64,
    /// Measured completion time on an idle cluster, seconds.
    pub completion_seconds: f64,
    /// The paper's qualitative rationale.
    pub(crate) rationale: String,
}

/// Table 2: characterize the paper's three workloads by actually running them
/// once each on an otherwise idle testbed.
pub fn table2_workload_characteristics(
    input_records: u64,
    seed: u64,
) -> Vec<WorkloadCharacteristics> {
    let rationale = |kind: WorkloadKind| -> &'static str {
        match kind {
            WorkloadKind::Sort => {
                "High network and CPU usage from large shuffles; moderate memory load"
            }
            WorkloadKind::PageRank => {
                "High network and CPU usage from iterative data exchange; moderate memory load"
            }
            WorkloadKind::Join => "Skewed network, CPU, and memory usage due to imbalanced joins",
            WorkloadKind::GroupBy => "Combiner-reduced shuffle; moderate CPU",
            WorkloadKind::WordCount => "Map-heavy CPU; minimal shuffle",
        }
    };
    WorkloadKind::PAPER_SET
        .iter()
        .map(|&kind| {
            let request = JobRequest::new(
                format!("{}-char", kind.as_str()),
                WorkloadRequest::new(kind, input_records).with_executors(2),
            );
            let dag = request.workload.build_dag();
            let mut world = SimWorld::new(FabricTestbed::paper(), seed);
            world.advance_by(SimDuration::from_secs(5));
            let completion = world
                .run_job(&request, "node-1")
                .map(|o| o.result.completion_seconds())
                .unwrap_or(0.0);
            let max_skew = dag.stages.iter().map(|s| s.skew).fold(0.0, f64::max);
            WorkloadCharacteristics {
                application: kind.as_str().to_string(),
                shuffle_mb: dag.total_shuffle_bytes() / 1e6,
                cpu_core_seconds: dag.total_cpu_seconds(),
                peak_task_memory_mb: dag.peak_memory_per_task() / 1e6,
                skew: max_skew,
                completion_seconds: completion,
                rationale: rationale(kind).to_string(),
            }
        })
        .collect()
}

/// Render Table 2 as markdown.
pub fn table2_markdown(rows: &[WorkloadCharacteristics]) -> String {
    let mut out = String::from(
        "| Application | Shuffle (MB) | CPU (core-s) | Peak task mem (MB) | Skew | Completion (s) | Rationale |\n|---|---|---|---|---|---|---|\n",
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.2} | {:.1} | {} |\n",
            row.application,
            row.shuffle_mb,
            row.cpu_core_seconds,
            row.peak_task_memory_mb,
            row.skew,
            row.completion_seconds,
            row.rationale
        ));
    }
    out
}

/// Table 3: a representative training row (the paper shows RTT, Rx, Tx, CPU,
/// memory, input size and the measured duration).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSampleRow {
    /// Mean RTT to peers, seconds.
    pub(crate) rtt_s: f64,
    /// Receive rate, MB/s.
    pub(crate) rx_mb_s: f64,
    /// Transmit rate, MB/s.
    pub(crate) tx_mb_s: f64,
    /// CPU load average.
    pub cpu_load: f64,
    /// Memory utilization, percent.
    pub(crate) mem_used_percent: f64,
    /// Input size, records.
    pub input_records: u64,
    /// Measured completion time, seconds.
    pub(crate) duration_s: f64,
}

/// Produce one representative training sample by running a Sort job on a
/// lightly contended cluster (mirrors the example row in the paper's Table 3).
#[expect(
    clippy::expect_used,
    reason = "the sample job is sized to fit the sample world; an infeasible run is a setup bug"
)]
pub fn table3_sample(seed: u64) -> TrainingSampleRow {
    let mut world = SimWorld::new(FabricTestbed::paper(), seed);
    world.place_background_load(1, &BackgroundLoadConfig::default());
    world.advance_by(SimDuration::from_secs(12));
    let request = JobRequest::named("sort-sample", WorkloadKind::Sort, 100_000, 2);
    let target = "node-2";
    let outcome = world
        .run_job(&request, target)
        .expect("sample job is feasible");
    let snapshot = &outcome.pre_run_snapshot;
    let telemetry = snapshot.node(target).copied().unwrap_or_default();
    let (rtt_mean, _, _) = snapshot.rtt_stats_from(target);
    let capacity_bytes = 8.0 * 1024.0 * 1024.0 * 1024.0;
    TrainingSampleRow {
        rtt_s: rtt_mean,
        rx_mb_s: telemetry.rx_rate / 1e6,
        tx_mb_s: telemetry.tx_rate / 1e6,
        cpu_load: telemetry.cpu_load,
        mem_used_percent: (1.0 - telemetry.memory_available_bytes / capacity_bytes) * 100.0,
        input_records: request.workload.input_records,
        duration_s: outcome.result.completion_seconds(),
    }
}

/// Render Table 3 as markdown.
pub fn table3_markdown(row: &TrainingSampleRow) -> String {
    format!(
        "| RTT (s) | Rx (MB/s) | Tx (MB/s) | CPU (load) | Mem (%) | Input Size | Dur. (s) |\n|---|---|---|---|---|---|---|\n| {:.3} | {:.3} | {:.3} | {:.2} | {:.1} | {} | {:.2} |\n",
        row.rtt_s,
        row.rx_mb_s,
        row.tx_mb_s,
        row.cpu_load,
        row.mem_used_percent,
        row.input_records,
        row.duration_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_the_schema() {
        let md = table1_feature_schema();
        assert!(md.contains("rtt_mean_s"));
        assert!(md.contains("cpu_load"));
        assert!(md.contains("input_records"));
        assert!(md.contains("| Feature | Type |"));
    }

    #[test]
    fn table2_orders_match_the_paper_story() {
        let rows = table2_workload_characteristics(200_000, 31);
        assert_eq!(rows.len(), 3);
        let find = |name: &str| rows.iter().find(|r| r.application == name).unwrap();
        let sort = find("sort");
        let pagerank = find("pagerank");
        let join = find("join");
        // Sort and PageRank shuffle more than Join relative to their input;
        // Join is the most skewed and the most memory-hungry.
        assert!(sort.shuffle_mb > join.shuffle_mb * 0.9);
        assert!(join.skew > sort.skew);
        assert!(join.skew > pagerank.skew);
        assert!(join.peak_task_memory_mb > sort.peak_task_memory_mb);
        assert!(rows.iter().all(|r| r.completion_seconds > 0.0));
        assert!(rows.iter().all(|r| r.cpu_core_seconds > 0.0));
        let md = table2_markdown(&rows);
        assert!(md.contains("sort") && md.contains("pagerank") && md.contains("join"));
    }

    #[test]
    fn table3_sample_is_plausible() {
        let row = table3_sample(17);
        assert!(row.duration_s > 0.0);
        assert!(row.rtt_s > 0.0 && row.rtt_s < 1.0, "rtt {}", row.rtt_s);
        assert!(row.cpu_load >= 0.0);
        assert!(row.mem_used_percent > 0.0 && row.mem_used_percent < 100.0);
        assert_eq!(row.input_records, 100_000);
        let md = table3_markdown(&row);
        assert!(md.contains("Input Size"));
        assert!(md.contains("100000"));
    }
}
