//! The serving-loop benchmark.
//!
//! ```text
//! netsched-benchmark run --workload <name|all> --seed <n> --seconds <s> --trace <0|1|both> [--smoke] [--out <dir>]
//! netsched-benchmark compare <dirA> <dirB>
//! netsched-benchmark list
//! ```
//!
//! `run` builds each workload from the seed, drives the system through its
//! public API only, prints every metric by name with its unit, checks the
//! outputs, writes one JSON per run under `benchmark/results/` and ends with
//! the contract's one-line JSON result. See `benchmark/README.md`.

mod alloc;
mod catalog;
mod compare;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod workloads;

use catalog::{END_TO_END, PER_LAYER, WORKLOADS};
use report::Calibration;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Outcome, Plan};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str = "usage:
  netsched-benchmark run --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1|both>] [--smoke] [--out <dir>]
  netsched-benchmark compare <dirA> <dirB>
  netsched-benchmark list";

/// `--flag value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|arg| arg == flag)
            .and_then(|at| self.0.get(at + 1))
            .map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|arg| arg == flag)
    }
}

/// A workload's entry point.
type Runner = fn(&Plan) -> Outcome;

fn workload_runner(name: &str) -> Option<(&'static str, Runner)> {
    let runners: [(&'static str, Runner); 4] = [
        ("paper_6n", workloads::paper::run),
        ("serve_10k", workloads::scale::serve_10k),
        ("burst_10k", workloads::scale::burst_10k),
        ("ingest_64n", workloads::ingest::run),
    ];
    runners.into_iter().find(|(known, _)| *known == name)
}

fn run(args: &Args) -> Result<bool, String> {
    let selected = args.value("--workload").ok_or("run needs --workload")?;
    let names: Vec<&str> = if selected == "all" {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        vec![selected]
    };
    let parse = |flag: &str, default: f64| -> Result<f64, String> {
        args.value(flag).map_or(Ok(default), |text| {
            text.parse::<f64>()
                .map_err(|_| format!("{flag} {text}: not a number"))
        })
    };
    let seed = parse("--seed", 1.0)? as u64;
    let seconds = parse("--seconds", 10.0)?;
    if !(0.1..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds}: out of range 0.1..=60"));
    }
    let smoke = args.has("--smoke");
    let traces: &[bool] = match args.value("--trace").unwrap_or("both") {
        "0" => &[false],
        "1" => &[true],
        "both" => &[false, true],
        other => return Err(format!("--trace {other}: expected 0, 1 or both")),
    };
    let out = args.value("--out").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results"),
        PathBuf::from,
    );

    let calibration = Calibration::measure();
    let mut all_correct = true;
    let mut last_line = String::new();
    for name in names {
        let (workload, runner) =
            workload_runner(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        for &traced in traces {
            let plan = Plan {
                seed,
                seconds,
                smoke,
                traced,
            };
            let outcome = runner(&plan);
            let report = report::build(workload, plan, outcome, calibration);
            report.print();
            let path = report
                .write(&out)
                .map_err(|e| format!("{}: {e}", out.display()))?;
            println!("wrote {}", path.display());
            all_correct &= report.correct;
            last_line = report.final_line();
        }
    }
    println!("{last_line}");
    Ok(all_correct)
}

fn list() {
    println!("workloads:");
    for workload in WORKLOADS {
        println!("  {:<11} {}", workload.name, workload.why);
    }
    println!("end-to-end metrics (untraced run; every workload reports every one):");
    for metric in END_TO_END {
        println!(
            "  {:<20} {:<5} {:<6} bound {:>3.0}%  {}",
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.bound * 100.0,
            metric.note
        );
    }
    println!("per-layer metrics (traced run; 0 where a layer does no work on a workload):");
    for metric in PER_LAYER {
        println!(
            "  {:<11} {:<34} {:<6} {:<6} -> {}",
            metric.layer(),
            metric.name,
            metric.unit,
            metric.better.as_str(),
            metric.moves
        );
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let command = argv.next();
    let args = Args(argv.collect());
    let result = match command.as_deref() {
        Some("run") => run(&args),
        Some("compare") => match args.0.as_slice() {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()),
            _ => Err("compare needs two result directories".to_string()),
        },
        Some("list") => {
            list();
            Ok(true)
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
