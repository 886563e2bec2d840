//! The benchmark's vocabulary: workload names, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric each
//! should move. `BENCHMARK.json` at the repository root carries the same
//! names, units and directions (a unit test keeps the two in step); the
//! predictions live here and in the README, because the contract fixes
//! `BENCHMARK.json`'s keys.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// `lower` / `higher`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload and the reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// An end-to-end metric: what a user of the scheduler would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub note: &'static str,
}

/// A per-layer metric (the layer is the name's prefix: a workspace crate, or
/// `bench` for the harness about itself).
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload it should move (and where the
    /// prediction is *no change*).
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer a metric belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "paper_6n",
        why: "the paper end to end at 6 nodes: set-up is dataset, train, evaluate, retrain; serving pays only fixed per-decision costs, so a 10k-scale optimisation must show no change here",
    },
    Workload {
        name: "serve_10k",
        why: "lone schedule-bind-schedule decisions at 10000 nodes: each pays the mesh re-index, feasibility re-sort and full-board inference that a keyed decision view would remove",
    },
    Workload {
        name: "burst_10k",
        why: "same world and model through schedule_batch_into, 32 at a time: the amortised path, where decisions of one burst collide on nodes; cross-call caching should move this little",
    },
    Workload {
        name: "ingest_64n",
        why: "closed-loop bursts of 8 beside live ConcurrentScrapeManager ingest on 64 nodes: telemetry's write side does most of the work and decisions contend with it for cores and epoch buffers",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        note: "median of the run's set-ups: world build, model training (on paper_6n the whole dataset-train-evaluate-retrain pipeline), service, warm-up",
    },
    EndToEnd {
        name: "decision_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        note: "median decision latency: request (burst) arrival to the decision's own bind commit, system time only; quiet-slot reading, scaled to reference memory speed",
    },
    EndToEnd {
        name: "decision_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        note: "95th percentile of the same; p99 and max are bench.* per-layer metrics",
    },
    EndToEnd {
        name: "fresh_epoch_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        note: "median latency of the first decision after a new telemetry epoch: the tail's cause, measured as a median so it repeats",
    },
    EndToEnd {
        name: "decisions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        note: "placed decisions per second of time inside schedule*, bind and release calls",
    },
    EndToEnd {
        name: "epoch_publish_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        note: "quiet (lowest-decile) write-side cost of one new epoch: a scrape (paper_6n), a publish_with (10k), an ingested chunk (ingest_64n)",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        note: "VmHWM at the end of the run, so work or state moved into set-up or caches shows",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // telemetry
    layer("telemetry.epoch_check_ns", "ns", Lower, "fresh_epoch_p50_us on paper_6n"),
    layer("telemetry.adopt_ns", "ns", Lower, "fresh_epoch_p50_us on paper_6n"),
    layer("telemetry.index_us", "us", Lower, "decision_p50_us on serve_10k (about 1.5 ms of it); 1/32 of that on burst_10k; about 0 on paper_6n"),
    layer("telemetry.publish_us", "us", Lower, "epoch_publish_us on serve_10k and burst_10k (publish_with incl. copy-on-write copies)"),
    layer("telemetry.scrape_us", "us", Lower, "epoch_publish_us on paper_6n (ScrapeManager::scrape, 6 nodes)"),
    layer("telemetry.ingest_round_us", "us", Lower, "epoch_publish_us on ingest_64n"),
    layer("telemetry.ingest_samples_per_s", "1/s", Higher, "epoch_publish_us on ingest_64n (samples committed per second inside ingest)"),
    layer("telemetry.ingest_busy_share", "ratio", Higher, "contrast on ingest_64n: ingest time over ingest plus client time; telemetry should do most of the work there"),
    layer("telemetry.store_fetch_us", "us", Lower, "contrast only: TelemetryReader::snapshot_into under live ingest, the lock path the published path replaces"),
    layer("telemetry.epochs_published", "count", Higher, "exact count; equal between runs of one seed"),
    layer("telemetry.epochs_adopted", "count", Higher, "fresh_epoch_p50_us: one adoption per fresh-epoch decision"),
    layer("telemetry.epoch_skips", "count", Higher, "decision_p50_us: decisions that reused the held epoch"),
    // cluster
    layer("cluster.feasibility_sync_us", "us", Lower, "decision_p50_us on serve_10k (about 0.7 ms, after every bind); once per burst on burst_10k; about 0 on paper_6n"),
    layer("cluster.feasibility_query_us", "us", Lower, "decision_p50_us on serve_10k and burst_10k"),
    layer("cluster.bind_us", "us", Lower, "decision_p50_us on paper_6n (create_pod + bind_pod)"),
    layer("cluster.release_us", "us", Lower, "decisions_per_s on paper_6n (complete_pod)"),
    layer("cluster.kube_default_us", "us", Lower, "contrast only: DefaultScheduler::schedule_refs over the same nodes, the paper's yardstick"),
    layer("cluster.feasibility_rebuilds", "count", Lower, "decision_p50_us on serve_10k: one rebuild per decision today; exact count"),
    layer("cluster.feasible_mean", "count", Higher, "sizes stage one's input; should not move"),
    layer("cluster.bind_refused", "count", Lower, "decisions_per_s on burst_10k; exact count"),
    layer("cluster.events_logged", "count", Lower, "peak_rss_mib: the cluster event log grows with every bind and release"),
    // core
    layer("core.schedule_us", "us", Lower, "decision_p50_us everywhere (the schedule* call alone, per decision of the call)"),
    layer("core.context_open_us", "us", Lower, "decision_p50_us on serve_10k (with_scratch, contains telemetry.index_us)"),
    layer("core.rank_us", "us", Lower, "decision_p50_us on serve_10k and burst_10k (rank_feasible_batch_into)"),
    layer("core.stage_one_us", "us", Lower, "decision_p50_us on serve_10k (about 6-7 ms: full-board inference) and burst_10k (times core.cells_per_burst); about 0 on paper_6n"),
    layer("core.features_us", "us", Lower, "decision_p50_us on paper_6n (construct_into_matrix over the ranked rows)"),
    layer("core.sort_us", "us", Lower, "decision_p50_us on paper_6n (DecisionModule::rank_into)"),
    layer("core.manifest_us", "us", Lower, "decision_p50_us on paper_6n (JobBuilder::build_into)"),
    layer("core.record_outcome_us", "us", Lower, "setup_s on paper_6n"),
    layer("core.retrain_s", "s", Lower, "setup_s on paper_6n (SchedulerService::retrain from the 3600-sample log, the paper's section 8 retraining cost)"),
    layer("core.allocs_per_decision", "count", Lower, "peak_rss_mib and decision_p95_us; must read 0 for schedule_batch_into on burst_10k"),
    layer("core.rows_ranked_mean", "count", Lower, "decision_p50_us via mlcore.predict_us"),
    layer("core.cells_per_burst", "count", Lower, "decision_p50_us on burst_10k: scoreboards built per burst"),
    layer("core.placed_rank_mean", "count", Lower, "decisions_per_s on burst_10k: how far down the ranking binds land"),
    layer("core.first_choice_bind_share", "ratio", Higher, "decisions_per_s on burst_10k: useful outcomes over attempts"),
    // mlcore
    layer("mlcore.predict_us", "us", Lower, "decision_p50_us on paper_6n and burst_10k (predict_batch_into on the ranked rows)"),
    layer("mlcore.predict_rows_per_s", "1/s", Higher, "decision_p50_us on paper_6n and burst_10k"),
    layer("mlcore.fullboard_predict_us", "us", Lower, "decision_p50_us on serve_10k (the same call over every node)"),
    layer("mlcore.train_rf_s", "s", Lower, "setup_s on paper_6n; about 0 elsewhere"),
    layer("mlcore.train_gbdt_s", "s", Lower, "setup_s on paper_6n; about 0 elsewhere"),
    layer("mlcore.train_linear_s", "s", Lower, "setup_s on paper_6n; about 0 elsewhere"),
    // experiments / sparksim / simnet (simcore runs underneath both)
    layer("experiments.pipeline_s", "s", Lower, "setup_s on paper_6n (dataset, evaluate, log, retrain)"),
    layer("experiments.workflow_s", "s", Lower, "setup_s on paper_6n (Workflow::run)"),
    layer("experiments.scenarios_per_s", "1/s", Higher, "setup_s on paper_6n"),
    layer("experiments.evaluate_s", "s", Lower, "setup_s on paper_6n (evaluate_table4)"),
    layer("experiments.sweep_s", "s", Lower, "run time of paper_6n only (run_sweep is an output check)"),
    layer("experiments.world_build_s", "s", Lower, "setup_s on serve_10k and burst_10k (ScaleWorld::build)"),
    layer("experiments.top1_accuracy", "ratio", Higher, "quality: RF Top-1 on held-out scenarios, round 0; deterministic per seed"),
    layer("experiments.top1_gain_vs_kube", "points", Higher, "quality: RF Top-1 minus kube-default Top-1, round 0; must stay above 0"),
    layer("sparksim.run_job_us", "us", Lower, "setup_s on paper_6n (SimWorld::run_job)"),
    layer("simnet.advance_us_per_sim_s", "us", Lower, "setup_s on paper_6n (SimWorld::advance_by under background load: fair-share network, simcore event loop, due scrapes)"),
    // bench: the harness about itself
    layer("bench.trace_overhead_pct", "%", Lower, "traced against untraced decision_p50_us in the same process"),
    layer("bench.trace_coverage", "ratio", Higher, "replica spans plus binds over traced decision time; should sit in 0.9-1.1"),
    layer("bench.replica_mismatches", "count", Lower, "must be 0 on the deterministic workloads"),
    layer("bench.pruned_top1_mismatches", "count", Lower, "must be 0: pruned winner equals unpruned winner on the 1 % sample"),
    layer("bench.failed_share", "ratio", Lower, "failed over attempted; any increase is a regression"),
    layer("bench.memory_probe_us", "us", Lower, "lowest decile of the 16 MB memory-probe passes: the box, not the change; end-to-end timings are scaled by 2100 over it"),
    layer("bench.timer_ns", "ns", Lower, "cost of one timed() pair"),
    layer("bench.calibration_us", "us", Lower, "a fixed arithmetic loop, so a slow box is told from a slow change"),
    layer("bench.generator_us", "us", Lower, "harness time per decision spent generating requests and telemetry"),
    layer("bench.decision_p99_us", "us", Lower, "tail beyond the gated percentile"),
    layer("bench.decision_max_us", "us", Lower, "tail beyond the gated percentile"),
    layer("bench.samples", "count", Higher, "decision latency samples behind the percentiles"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn field<'a>(entry: &'a Value, key: &str) -> &'a Value {
        entry
            .as_map()
            .and_then(|map| map.iter().find(|(k, _)| k.as_str() == Some(key)))
            .map(|(_, value)| value)
            .unwrap_or_else(|| panic!("BENCHMARK.json entry lacks `{key}`"))
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue is what the
    /// harness prints. They must name the same things the same way.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| field(&root, key).as_seq().expect("a list").to_vec();
        let text_of = |entry: &Value, key: &str| field(entry, key).as_str().unwrap().to_string();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    field(m, "bound").as_num().unwrap(),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);
        assert!(PER_LAYER.len() <= 128);
    }
}
