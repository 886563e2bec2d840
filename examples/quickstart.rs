//! Quickstart: build the paper's 6-node geo-distributed testbed, add some
//! background contention, run one Spark-like Sort job on a chosen node and
//! look at what the scheduler would have seen.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use netsched::core::{JobBuilder, JobRequest};
use netsched::experiments::{FabricTestbed, SimWorld};
use netsched::simcore::SimDuration;
use netsched::simnet::BackgroundLoadConfig;
use netsched::sparksim::WorkloadKind;

fn main() -> Result<(), &'static str> {
    // 1. The Figure-4 testbed: UCSD / FIU / SRI, two nodes each, 66/10/72 ms RTTs.
    let testbed = FabricTestbed::paper();
    println!("cluster nodes: {:?}", testbed.node_names());

    // 2. A simulated world with background contention (the paper's curl-loop pod).
    let mut world = SimWorld::new(testbed, 42);
    world.place_background_load(2, &BackgroundLoadConfig::default());
    world.advance_by(SimDuration::from_secs(15));
    println!("background load on: {:?}", world.background_hosts());

    // 3. The telemetry snapshot the scheduler would fetch at decision time.
    let snapshot = world.snapshot();
    println!("\nper-node telemetry at t = {}:", snapshot.time);
    for (node, telemetry) in snapshot.iter_nodes() {
        let (rtt_mean, rtt_max, _) = snapshot.rtt_stats_from(node);
        println!(
            "  {node}: cpu_load={:.2}, mem_avail={:.1} GiB, tx={:.2} MB/s, rx={:.2} MB/s, rtt mean/max={:.1}/{:.1} ms",
            telemetry.cpu_load,
            telemetry.memory_available_bytes / (1024.0 * 1024.0 * 1024.0),
            telemetry.tx_rate / 1e6,
            telemetry.rx_rate / 1e6,
            rtt_mean * 1000.0,
            rtt_max * 1000.0,
        );
    }

    // 4. Submit a shuffle-heavy Sort job with its driver pinned to node-2 and
    //    show the manifest the Job Builder would hand to Kubernetes.
    let request = JobRequest::named("sort-quickstart", WorkloadKind::Sort, 250_000, 2);
    let built = JobBuilder.build(&request, Some("node-2"));
    println!(
        "\ngenerated SparkApplication manifest:\n{}",
        built.manifest_yaml
    );

    // 5. Execute it and report the completion breakdown.
    let outcome = world
        .run_job(&request, "node-2")
        .ok_or("node-2 cannot host the job")?;
    println!(
        "driver ran on {}, executors on {:?}",
        outcome.driver_node, outcome.executor_nodes
    );
    println!(
        "job completed in {:.2}s (startup {:.2}s, shuffle {:.1} MB, {} spilled stages)",
        outcome.result.completion_seconds(),
        outcome.result.startup_seconds,
        outcome.result.shuffle_bytes / 1e6,
        outcome.result.spill_count
    );
    for stage in &outcome.result.stages {
        println!(
            "  stage {:<18} control {:.2}s | shuffle {:.2}s | compute {:.2}s",
            stage.name, stage.control_seconds, stage.shuffle_seconds, stage.compute_seconds
        );
    }
    Ok(())
}
