//! `compare <dirA> <dirB>`: two sets of result files, metric by metric.
//!
//! Per workload and end-to-end metric it prints both medians, the relative
//! difference (positive = B is worse), the bound and each side's run-to-run
//! spread, and marks the row `ok`, `worse` (B's median is worse than A's by
//! more than the bound) or `unresolved` (a side's spread is wider than the
//! bound, so "no change" cannot be claimed — unless every run of B reads
//! better than every run of A). Exact counters of the deterministic
//! workloads must be equal between runs of one seed. Exits non-zero on any
//! `worse` row, on a counter mismatch, or when B fails a larger share.

use crate::catalog::{Better, END_TO_END, WORKLOADS};
use crate::stats::{median, quartile_spread};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One result file, reduced to what `compare` reads.
struct Run {
    workload: String,
    seed: u64,
    traced: bool,
    truncated: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    /// Counter name → rendered JSON value.
    counters: BTreeMap<String, String>,
}

fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()?
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
}

fn parse_run(text: &str) -> Option<Run> {
    let root = serde_json::parse(text).ok()?;
    let number = |key: &str| get(&root, key).and_then(Value::as_num);
    let metrics = get(&root, "metrics")?
        .as_map()?
        .iter()
        .filter_map(|(name, entry)| {
            Some((name.as_str()?.to_string(), get(entry, "value")?.as_num()?))
        })
        .collect();
    let counters = get(&root, "counters")?
        .as_map()?
        .iter()
        .filter_map(|(name, value)| {
            Some((
                name.as_str()?.to_string(),
                serde_json::to_string(value).ok()?,
            ))
        })
        .collect();
    Some(Run {
        workload: get(&root, "workload")?.as_str()?.to_string(),
        seed: number("seed")? as u64,
        traced: number("trace")? != 0.0,
        truncated: matches!(get(&root, "truncated"), Some(Value::Bool(true))),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
        counters,
    })
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries
        .filter_map(|entry| entry.ok().map(|entry| entry.path()))
        .filter(|path| {
            path.extension().is_some_and(|ext| ext == "json")
                && !path
                    .file_name()
                    .is_some_and(|name| name.to_string_lossy().starts_with("trace_"))
        })
        .collect();
    paths.sort();
    let mut runs = Vec::new();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run =
            parse_run(&text).ok_or_else(|| format!("{}: not a result file", path.display()))?;
        if run.truncated {
            // Cut short by the wall-clock guard: fewer ops than its peers, so
            // neither its percentiles nor its counters compare.
            println!("skipping {} (truncated)", path.display());
        } else {
            runs.push(run);
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// The verdict on one metric of one workload.
fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> &'static str {
    let diff = worsening(better, median(&mut a.to_vec()), median(&mut b.to_vec()));
    if diff > bound {
        return "worse";
    }
    let spread = quartile_spread(a).max(quartile_spread(b));
    let b_always_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| worsening(better, x, y) < 0.0));
    if spread > bound && !b_always_better {
        "unresolved"
    } else {
        "ok"
    }
}

/// Compare two result directories; `Ok(true)` when nothing regressed.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(dir_a)?, load(dir_b)?);
    let mut clean = true;
    println!(
        "{:<11} {:<20} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "B worse", "bound", "spread A", "spread B"
    );
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter(|run| run.workload == workload.name && !run.traced)
                    .filter_map(|run| run.metrics.get(metric.name).copied())
                    .collect()
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&mut va.clone()), median(&mut vb.clone()));
            let verdict = verdict(metric.better, metric.bound, &va, &vb);
            clean &= verdict != "worse";
            println!(
                "{:<11} {:<20} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}% {:>7.1}% {:>7.1}%  {verdict}",
                workload.name,
                metric.name,
                ma,
                mb,
                worsening(metric.better, ma, mb) * 100.0,
                metric.bound * 100.0,
                quartile_spread(&va) * 100.0,
                quartile_spread(&vb) * 100.0,
            );
        }

        // failed_share: any increase is a regression.
        let share = |runs: &[Run]| {
            let mine: Vec<&Run> = runs
                .iter()
                .filter(|r| r.workload == workload.name)
                .collect();
            let attempted: f64 = mine.iter().map(|r| r.attempted).sum();
            (attempted > 0.0).then(|| mine.iter().map(|r| r.failed).sum::<f64>() / attempted)
        };
        if let (Some(sa), Some(sb)) = (share(&runs_a), share(&runs_b)) {
            let verdict = if sb > sa { "worse" } else { "ok" };
            clean &= sb <= sa;
            println!(
                "{:<11} {:<20} {sa:>14.6} {sb:>14.6} {:>8} {:>7} {:>8} {:>8}  {verdict}",
                workload.name, "failed_share", "", "0%", "", ""
            );
        }

        // Exact counters: every run of one (seed, trace mode) of a
        // deterministic workload must agree, within and across the two sets.
        if workload.name == "ingest_64n" {
            continue;
        }
        let mut groups: BTreeMap<(u64, bool), Vec<&Run>> = BTreeMap::new();
        for run in runs_a
            .iter()
            .chain(&runs_b)
            .filter(|r| r.workload == workload.name)
        {
            groups.entry((run.seed, run.traced)).or_default().push(run);
        }
        for ((seed, traced), runs) in groups {
            let first = &runs[0].counters;
            for (name, value) in first {
                if name == "p95_resolved" {
                    continue;
                }
                let equal = runs.iter().all(|run| run.counters.get(name) == Some(value));
                clean &= equal;
                println!(
                    "{:<11} {:<34} seed {seed} trace {} over {} runs: {}",
                    workload.name,
                    name,
                    u8::from(traced),
                    runs.len(),
                    if equal {
                        format!("equal ({value})")
                    } else {
                        "MISMATCH".to_string()
                    },
                );
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // 10 % bound, tight runs.
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &[105.0, 104.0, 106.0]),
            "ok"
        );
        assert_eq!(
            verdict(Better::Lower, 0.10, &a, &[115.0, 114.0, 116.0]),
            "worse"
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &a, &[85.0, 86.0, 84.0]),
            "worse"
        );
        assert_eq!(
            verdict(Better::Higher, 0.10, &a, &[115.0, 114.0, 116.0]),
            "ok"
        );
        // A spread wider than the bound cannot claim "no change" …
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(
            verdict(Better::Lower, 0.10, &noisy, &[101.0, 100.0, 99.0]),
            "unresolved"
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            verdict(Better::Lower, 0.10, &noisy, &[70.0, 71.0, 72.0]),
            "ok"
        );
    }

    #[test]
    fn result_files_round_trip_through_parse_run() {
        let text = r#"{"workload":"serve_10k","seed":2,"trace":0,"attempted":10,"failed":0,
            "metrics":{"setup_s":{"value":1.5,"unit":"s"}},
            "counters":{"op_sequence_hash":"00ff","samples":10}}"#;
        let run = parse_run(text).expect("a result file");
        assert_eq!(
            (run.workload.as_str(), run.seed, run.traced),
            ("serve_10k", 2, false)
        );
        assert_eq!(run.metrics["setup_s"], 1.5);
        assert_eq!(run.counters["op_sequence_hash"], "\"00ff\"");
        assert!(parse_run("{}").is_none());
    }
}
