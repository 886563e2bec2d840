//! CLI for the workspace invariant analyzer.
//!
//! Usage:
//!   `cargo run -p analysis --release -- check [--root DIR] [--config FILE]`
//!   `cargo run -p analysis --release -- graph [--root DIR] [--config FILE]
//!    [--why SPEC] [--roots SPEC,...]`

use analysis::{config::Config, engine, reach};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: analysis check [--root DIR] [--config FILE]\n\
         \x20      analysis graph [--root DIR] [--config FILE] [--why SPEC] [--roots SPEC,...]\n\
         \n\
         check  Runs the call-graph lints: hot-path-alloc (no allocating\n\
         \x20      token in the derived hot-path closure), hot-path-closure\n\
         \x20      and panic-reachability.\n\
         graph  Dumps the derived hot-path closure, or explains why one fn\n\
         \x20      (`--why path::fn_name` or a bare name) is reachable via its\n\
         \x20      call chain. `--roots` overrides the configured roots.\n\
         \n\
         Exits 0 when clean/reachable, 1 on findings or an unreachable --why\n\
         target, 2 on usage/config errors."
    );
    ExitCode::from(2)
}

struct Cli {
    command: &'static str,
    root: PathBuf,
    config: Config,
    why: Option<String>,
    roots_override: Option<Vec<String>>,
}

fn parse_cli() -> Result<Cli, ExitCode> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut root = None;
    let mut config_path = None;
    let mut why = None;
    let mut roots_override = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" if command.is_none() => command = Some("check"),
            "graph" if command.is_none() => command = Some("graph"),
            "--root" => root = it.next().cloned(),
            "--config" => config_path = it.next().cloned(),
            "--why" => why = it.next().cloned(),
            "--roots" => {
                roots_override = it
                    .next()
                    .map(|r| r.split(',').map(str::to_string).collect::<Vec<_>>())
            }
            _ => return Err(usage()),
        }
    }
    let Some(command) = command else {
        return Err(usage());
    };

    // Default to the workspace root: the analyzer lives at
    // <workspace>/crates/analysis, so walk two levels up from the manifest.
    let root = PathBuf::from(root.unwrap_or_else(|| {
        std::env::var("CARGO_MANIFEST_DIR")
            .map(|m| format!("{m}/../.."))
            .unwrap_or_else(|_| ".".to_string())
    }));
    let config_file = config_path
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("lint.toml"));

    let config_text = match std::fs::read_to_string(&config_file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("analysis: cannot read {}: {e}", config_file.display());
            return Err(ExitCode::from(2));
        }
    };
    let config = match Config::parse(&config_text) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("analysis: {e}");
            return Err(ExitCode::from(2));
        }
    };
    Ok(Cli {
        command,
        root,
        config,
        why,
        roots_override,
    })
}

fn run_check(cli: &Cli) -> ExitCode {
    match engine::check(&cli.root, &cli.config) {
        Ok(report) => {
            for finding in &report.findings {
                println!("{}", finding.render());
            }
            if report.findings.is_empty() {
                println!("analysis: clean — {} files scanned", report.files_scanned);
                ExitCode::SUCCESS
            } else {
                println!(
                    "analysis: {} finding(s) across {} files scanned",
                    report.findings.len(),
                    report.files_scanned
                );
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("analysis: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_graph(cli: &Cli) -> ExitCode {
    let ws = match engine::parse_workspace(&cli.root, &cli.config) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("analysis: {e}");
            return ExitCode::from(2);
        }
    };
    // `--roots` overrides the configured hot-path roots; the configured
    // stops only apply to the configured roots (an explicit root list asks
    // for the raw closure).
    let (roots, stops): (Vec<String>, Vec<String>) = match &cli.roots_override {
        Some(roots) => (roots.clone(), Vec::new()),
        None => (
            cli.config.hot_path_roots.clone(),
            cli.config.hot_path_stop_specs(),
        ),
    };
    if roots.is_empty() {
        eprintln!("analysis: no roots — configure [hot_path] roots in lint.toml or pass --roots");
        return ExitCode::from(2);
    }
    for root in &roots {
        if ws.index.find_spec(root).is_empty() {
            eprintln!("analysis: root `{root}` matches no fn in the workspace");
            return ExitCode::from(2);
        }
    }
    let reach = reach::closure(&ws.index, &ws.graph, &roots, &stops);

    if let Some(why) = &cli.why {
        let targets = ws.index.find_spec(why);
        if targets.is_empty() {
            eprintln!("analysis: --why `{why}` matches no fn in the workspace");
            return ExitCode::from(2);
        }
        let mut any_reachable = false;
        for idx in targets {
            let spec = ws.index.fns[idx as usize].spec();
            if reach.contains(idx) {
                any_reachable = true;
                println!("{spec}: reachable");
                println!("  via: {}", reach.chain_text(&ws.index, idx));
            } else {
                println!("{spec}: NOT reachable from {}", roots.join(", "));
            }
        }
        return if any_reachable {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    // Default dump: the derived closure, one spec per line, sorted.
    let mut specs: Vec<String> = reach
        .members
        .iter()
        .map(|&i| ws.index.fns[i as usize].spec())
        .collect();
    specs.sort();
    specs.dedup();
    for spec in &specs {
        println!("{spec}");
    }
    println!(
        "analysis: {} fn(s) reachable from {} root(s), {} stop(s) applied",
        specs.len(),
        roots.len(),
        stops.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(code) => return code,
    };
    match cli.command {
        "check" => run_check(&cli),
        "graph" => run_graph(&cli),
        _ => usage(),
    }
}
