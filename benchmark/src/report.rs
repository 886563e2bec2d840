//! From a workload's outcome to named metrics: the end-to-end set of the
//! untraced run, the per-layer set of the traced run, the human-readable
//! table, the contract's final JSON line and the result file.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::probe::REFERENCE_PASS_US;
use crate::serve::Phase;
use crate::stats::{median, per_slot_quiet, percentile_of, samples_beyond, MIN_SAMPLES_BEYOND};
use crate::trace::{timed, Tracer};
use crate::workloads::{Outcome, Plan};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Spans written to a trace file; the aggregates always use every span.
const TRACE_FILE_SPANS: usize = 50_000;

/// What the harness measured about the box and itself before the run.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Cost of one `timed()` pair around nothing.
    pub timer_ns: f64,
    /// A fixed arithmetic loop: a slow box moves it, a slow change does not.
    pub calibration_us: f64,
}

impl Calibration {
    /// Measure both, as medians of a few repetitions.
    pub fn measure() -> Self {
        let mut timer: Vec<f64> = (0..2_000)
            .map(|_| {
                let (_, start, end) = timed(|| ());
                end.duration_since(start).as_nanos() as f64
            })
            .collect();
        let mut arithmetic: Vec<f64> = (0..9)
            .map(|_| {
                let (_, start, end) = timed(|| {
                    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
                    for _ in 0..1_000_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                    }
                    std::hint::black_box(x)
                });
                end.duration_since(start).as_nanos() as f64 / 1e3
            })
            .collect();
        Calibration {
            timer_ns: median(&mut timer),
            calibration_us: median(&mut arithmetic),
        }
    }
}

/// One finished run, ready to print and write.
#[derive(Debug)]
pub struct RunReport {
    pub workload: &'static str,
    pub plan: Plan,
    pub truncated: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)`: every end-to-end metric (untraced run) or every
    /// per-layer metric (traced run), in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Exact counters `compare` checks for equality on deterministic workloads.
    pub counters: Vec<(&'static str, Value)>,
    pub checks: Vec<(&'static str, bool)>,
    pub notes: Vec<(&'static str, String)>,
    tracer: Option<Tracer>,
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Ascending copy of the samples an op actually produced (`NaN` = none).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(f64::total_cmp);
    sorted
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// How much faster than the reference the box's memory was during the phase:
/// timings are multiplied by it, rates divided (see [`crate::probe`]). 1 when
/// the phase was too short for a probe pass.
fn memory_factor(phase: &Phase) -> f64 {
    let pass_us = percentile_of(&phase.ledger.probe_us, 10.0);
    if pass_us == 0.0 {
        1.0
    } else {
        REFERENCE_PASS_US / pass_us
    }
}

/// The end-to-end metrics. Every timing is read through [`per_slot_quiet`] —
/// the quiet cost of each op of the workload's request cycle first, then the
/// percentile across the cycle's ops — and scaled to the reference memory
/// speed by [`memory_factor`]. Set-up time and memory are reported as
/// measured.
fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    let ledger = &outcome.untraced.ledger;
    let cycle = outcome.cycle;
    let factor = memory_factor(&outcome.untraced);
    let latency = per_slot_quiet(&ledger.latency_us, cycle.decisions);
    let decision_p50 = percentile_of(&latency, 50.0);
    let fresh = per_slot_quiet(&ledger.fresh_us, cycle.fresh_epochs);
    // Throughput: decisions of one cycle over the cycle's quiet system time.
    let step_busy_s: Vec<f64> = ledger
        .steps
        .iter()
        .map(|&(_, ns)| ns as f64 / 1e9)
        .collect();
    let cycle_busy_s: f64 = per_slot_quiet(&step_busy_s, cycle.steps).iter().sum();
    let placed_per_step = ratio(ledger.placed as f64, ledger.steps.len() as f64);
    vec![
        ("setup_s", outcome.setup_s),
        ("decision_p50_us", decision_p50 * factor),
        ("decision_p95_us", percentile_of(&latency, 95.0) * factor),
        (
            "fresh_epoch_p50_us",
            factor
                * if fresh.is_empty() {
                    decision_p50
                } else {
                    percentile_of(&fresh, 50.0)
                },
        ),
        (
            "decisions_per_s",
            ratio(
                placed_per_step * cycle.steps.min(ledger.steps.len()) as f64,
                cycle_busy_s * factor,
            ),
        ),
        (
            "epoch_publish_us",
            percentile_of(&per_slot_quiet(&ledger.publish_us, 1), 50.0) * factor,
        ),
        ("peak_rss_mib", peak_rss_mib()),
    ]
}

/// Span name behind each per-layer timing and the factor from µs to its unit.
const SPAN_MEDIANS: &[(&str, &str, f64)] = &[
    ("telemetry.epoch_check_ns", "telemetry.epoch_check", 1e3),
    ("telemetry.adopt_ns", "telemetry.adopt", 1e3),
    ("telemetry.index_us", "telemetry.index", 1.0),
    ("telemetry.publish_us", "telemetry.publish", 1.0),
    ("telemetry.scrape_us", "telemetry.scrape", 1.0),
    ("telemetry.store_fetch_us", "telemetry.store_fetch", 1.0),
    (
        "cluster.feasibility_sync_us",
        "cluster.feasibility_sync",
        1.0,
    ),
    (
        "cluster.feasibility_query_us",
        "cluster.feasibility_query",
        1.0,
    ),
    ("cluster.bind_us", "cluster.bind", 1.0),
    ("cluster.release_us", "cluster.release", 1.0),
    ("cluster.kube_default_us", "cluster.kube_default", 1.0),
    ("core.context_open_us", "core.context_open", 1.0),
    ("core.rank_us", "core.rank", 1.0),
    ("core.features_us", "core.features", 1.0),
    ("core.sort_us", "core.sort", 1.0),
    ("core.manifest_us", "core.manifest", 1.0),
    ("mlcore.predict_us", "mlcore.predict", 1.0),
    (
        "mlcore.fullboard_predict_us",
        "mlcore.fullboard_predict",
        1.0,
    ),
];

fn per_layer(
    outcome: &Outcome,
    traced: &Phase,
    calibration: Calibration,
) -> Vec<(&'static str, f64)> {
    let ledger = &traced.ledger;
    let replica = &traced.replica;
    let tracer = traced
        .tracer
        .as_ref()
        .expect("the traced phase carries its tracer");
    // Span timings are scaled to the reference memory speed like the
    // end-to-end ones, so a ledger entry reads the same in a noisy minute.
    let memory = memory_factor(traced);
    let span_median = |span: &str| median(&mut tracer.durations_us(span)) * memory;
    let span_total_ns = |span: &str| tracer.durations_us(span).iter().sum::<f64>() * 1e3;
    let attempted = ledger.attempted as f64;
    let per_call = ratio(attempted, ledger.steps.len() as f64).max(1.0);

    let mut values: Vec<(&'static str, f64)> = SPAN_MEDIANS
        .iter()
        .map(|&(name, span, factor)| (name, span_median(span) * factor))
        .collect();
    let rows_ranked_mean = ratio(ledger.rows_ranked as f64, attempted);
    let predict_us = span_median("mlcore.predict");
    let latency = sorted(&ledger.latency_us);
    let quantile = |q: f64| percentile_of(&latency, q) * memory;
    let reference_p50 = percentile_of(&sorted(&outcome.untraced.ledger.latency_us), 50.0)
        * memory_factor(&outcome.untraced);
    let bind_ns = span_total_ns("cluster.bind");
    values.extend([
        ("core.schedule_us", span_median("core.schedule") / per_call),
        (
            // Per `schedule*` call first (a burst's ranks differ: only those
            // that build a scoreboard pay stage one in full), then the median
            // over calls.
            "core.stage_one_us",
            median(&mut tracer.mean_self_time_by_parent_us("core.rank")) * memory,
        ),
        (
            "core.allocs_per_decision",
            median(&mut ledger.schedule_allocs.clone()) / per_call,
        ),
        ("core.rows_ranked_mean", rows_ranked_mean),
        (
            "core.cells_per_burst",
            ratio(replica.cells_sum as f64, replica.steps as f64),
        ),
        (
            "core.placed_rank_mean",
            ratio(ledger.placed_rank_sum as f64, ledger.placed as f64),
        ),
        (
            "core.first_choice_bind_share",
            ratio(
                ledger.first_choice as f64,
                (ledger.placed + ledger.bind_refused) as f64,
            ),
        ),
        (
            "mlcore.predict_rows_per_s",
            ratio(rows_ranked_mean, predict_us / 1e6),
        ),
        ("telemetry.epochs_published", ledger.epochs_published as f64),
        ("telemetry.epochs_adopted", replica.epochs_adopted as f64),
        ("telemetry.epoch_skips", replica.epoch_skips as f64),
        (
            "cluster.feasibility_rebuilds",
            traced.feasibility_rebuilds as f64,
        ),
        (
            "cluster.feasible_mean",
            ratio(replica.feasible_sum as f64, replica.feasible_queries as f64),
        ),
        ("cluster.bind_refused", ledger.bind_refused as f64),
        ("cluster.events_logged", traced.events_logged as f64),
        (
            "bench.trace_overhead_pct",
            (ratio(quantile(50.0), reference_p50) - 1.0) * 100.0,
        ),
        (
            "bench.trace_coverage",
            ratio(
                tracer.children_total_ns("replica.decision") as f64 + bind_ns,
                span_total_ns("core.schedule") + bind_ns,
            ),
        ),
        ("bench.replica_mismatches", replica.mismatches as f64),
        (
            "bench.pruned_top1_mismatches",
            (ledger.pruned_top1_mismatches + outcome.untraced.ledger.pruned_top1_mismatches) as f64,
        ),
        (
            "bench.failed_share",
            ratio(ledger.failed() as f64, attempted),
        ),
        (
            "bench.memory_probe_us",
            percentile_of(&ledger.probe_us, 10.0),
        ),
        ("bench.timer_ns", calibration.timer_ns),
        ("bench.calibration_us", calibration.calibration_us),
        (
            "bench.generator_us",
            ratio(ledger.generator_ns as f64 / 1e3, attempted),
        ),
        ("bench.decision_p99_us", quantile(99.0)),
        ("bench.decision_max_us", quantile(100.0)),
        ("bench.samples", latency.len() as f64),
    ]);
    values.extend(outcome.layers.iter().copied());
    values
}

/// Name the metrics of a finished run and decide whether it is correct.
pub fn build(
    workload: &'static str,
    plan: Plan,
    mut outcome: Outcome,
    calibration: Calibration,
) -> RunReport {
    let mut traced = outcome.traced.take();
    let mut checks = std::mem::take(&mut outcome.checks);
    let phases: Vec<&Phase> = std::iter::once(&outcome.untraced)
        .chain(traced.as_ref())
        .collect();
    let attempted: u64 = phases.iter().map(|phase| phase.ledger.attempted).sum();
    let failed: u64 = phases.iter().map(|phase| phase.ledger.failed()).sum();
    let measured = phases.last().expect("one phase always runs");

    let latency_samples = sorted(&measured.ledger.latency_us).len();
    let counters = vec![
        ("attempted", Value::Num(measured.ledger.attempted as f64)),
        ("failed", Value::Num(measured.ledger.failed() as f64)),
        ("placed", Value::Num(measured.ledger.placed as f64)),
        (
            "cluster.feasibility_rebuilds",
            Value::Num(measured.feasibility_rebuilds as f64),
        ),
        (
            "cluster.bind_refused",
            Value::Num(measured.ledger.bind_refused as f64),
        ),
        (
            "telemetry.epochs_published",
            Value::Num(measured.ledger.epochs_published as f64),
        ),
        (
            "op_sequence_hash",
            Value::Str(measured.ledger.op_hash.hex()),
        ),
        ("samples", Value::Num(latency_samples as f64)),
        (
            "p95_resolved",
            Value::Bool(samples_beyond(latency_samples, 95.0) >= MIN_SAMPLES_BEYOND),
        ),
    ];

    let values = match &traced {
        None => end_to_end(&outcome),
        Some(phase) => {
            if workload != "ingest_64n" {
                // Beside live ingest an epoch may land between the service's
                // call and the replica's; everywhere else the replica must
                // make the service's decision.
                checks.push(("replica_matches_service", phase.replica.mismatches == 0));
            }
            per_layer(&outcome, phase, calibration)
        }
    };
    let lookup = |name: &str| {
        values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, value)| value)
    };
    let metrics = match &traced {
        None => END_TO_END
            .iter()
            .map(|m| (m.name, lookup(m.name), m.unit))
            .collect(),
        Some(_) => PER_LAYER
            .iter()
            .map(|m| (m.name, lookup(m.name), m.unit))
            .collect(),
    };
    let mut notes = std::mem::take(&mut outcome.notes);
    notes.push((
        "memory_probe",
        format!(
            "pass p10 {:.0} us over {} passes; timings scaled by {:.4}",
            percentile_of(&measured.ledger.probe_us, 10.0),
            measured.ledger.probe_us.len(),
            memory_factor(measured),
        ),
    ));
    let correct = failed == 0 && attempted > 0 && checks.iter().all(|&(_, ok)| ok);
    RunReport {
        workload,
        plan,
        truncated: outcome.truncated,
        correct,
        attempted,
        failed,
        metrics,
        counters,
        checks,
        notes,
        tracer: traced.as_mut().and_then(|phase| phase.tracer.take()),
    }
}

fn text(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn object(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (text(k), v)).collect())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Machine, core count, toolchain and commit the numbers were taken on.
fn environment() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    object(vec![
        (
            "machine",
            text(&format!(
                "{} {}",
                std::env::consts::OS,
                std::env::consts::ARCH
            )),
        ),
        ("cpu", text(&cpu)),
        ("nproc", Value::Num(nproc as f64)),
        ("rustc", text(&command_line("rustc", &["--version"]))),
        (
            "commit",
            text(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
    ])
}

impl RunReport {
    fn metrics_value(&self) -> Value {
        Value::Map(
            self.metrics
                .iter()
                .map(|&(name, value, unit)| {
                    (
                        text(name),
                        object(vec![("value", Value::Num(value)), ("unit", text(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The contract's last line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn final_line(&self) -> String {
        let line = object(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
        ]);
        serde_json::to_string(&line).expect("a value tree always serializes")
    }

    /// Every metric by name with its unit, then checks and counters.
    pub fn print(&self) {
        println!(
            "== {} seed {} {} ({} attempted, {} failed{})",
            self.workload,
            self.plan.seed,
            if self.plan.traced {
                "traced: per-layer metrics"
            } else {
                "untraced: end-to-end metrics"
            },
            self.attempted,
            self.failed,
            if self.truncated {
                ", TRUNCATED by the wall-clock guard"
            } else {
                ""
            },
        );
        for &(name, value, unit) in &self.metrics {
            println!("{name:<34} {value:>16.4} {unit}");
        }
        for &(name, ok) in &self.checks {
            println!("check {name:<28} {}", if ok { "ok" } else { "FAILED" });
        }
        for (name, value) in &self.counters {
            let rendered = serde_json::to_string(value).unwrap_or_default();
            println!("counter {name:<26} {rendered}");
        }
        for (name, note) in &self.notes {
            println!("note {name:<29} {note}");
        }
    }

    /// Write `<dir>/<workload>-s<seed>-t<trace>-<n>.json` (first free `n`)
    /// and, for a traced run, `<dir>/trace_<workload>.json`.
    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let trace = u8::from(self.plan.traced);
        let path = (0..)
            .map(|n| {
                dir.join(format!(
                    "{}-s{}-t{trace}-{n}.json",
                    self.workload, self.plan.seed
                ))
            })
            .find(|path| !path.exists())
            .expect("an unused file name exists");
        let flags = |pairs: &[(&'static str, bool)]| {
            object(pairs.iter().map(|&(k, ok)| (k, Value::Bool(ok))).collect())
        };
        let run = object(vec![
            ("workload", text(self.workload)),
            ("seed", Value::Num(self.plan.seed as f64)),
            ("seconds", Value::Num(self.plan.seconds)),
            ("smoke", Value::Bool(self.plan.smoke)),
            ("trace", Value::Num(f64::from(trace))),
            ("truncated", Value::Bool(self.truncated)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_value()),
            (
                "counters",
                object(self.counters.iter().map(|(k, v)| (*k, v.clone())).collect()),
            ),
            ("checks", flags(&self.checks)),
            (
                "notes",
                object(self.notes.iter().map(|(k, v)| (*k, text(v))).collect()),
            ),
            ("env", environment()),
        ]);
        let mut rendered = serde_json::to_string(&run).expect("a value tree always serializes");
        rendered.push('\n');
        std::fs::write(&path, rendered)?;
        if let Some(tracer) = &self.tracer {
            std::fs::write(
                dir.join(format!("trace_{}.json", self.workload)),
                tracer.to_json(TRACE_FILE_SPANS),
            )?;
        }
        Ok(path)
    }
}
