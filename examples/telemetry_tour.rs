//! A tour of the telemetry substrate: exporters, the scrape loop, the
//! time-series store, rate queries and the feature vectors the scheduler
//! consumes — the plumbing between "a pod is busy downloading" and "the model
//! sees a congested node".
//!
//! ```text
//! cargo run --release --example telemetry_tour
//! ```

use netsched::core::{Column, FeatureSchema, JobRequest};
use netsched::experiments::{FabricTestbed, SimWorld};
use netsched::simcore::{SimDuration, SimTime};
use netsched::simnet::BackgroundLoadConfig;
use netsched::sparksim::WorkloadKind;
use netsched::telemetry::{SeriesKey, METRIC_NODE_TX_BYTES, METRIC_PING_RTT};

fn main() -> Result<(), &'static str> {
    let mut world = SimWorld::new(FabricTestbed::paper(), 7);

    // Put a heavy download loop on two nodes and let telemetry accumulate.
    world.place_background_load(
        2,
        &BackgroundLoadConfig {
            mean_gap: SimDuration::from_millis(100),
            ..Default::default()
        },
    );
    world.advance_by(SimDuration::from_secs(60));

    // --- Raw time-series queries, Prometheus-style. ---
    let store = world.metrics.store();
    println!(
        "stored series: {}, points: {}",
        store.series_count(),
        store.point_count()
    );
    let now = world.now();
    for node in world.cluster.node_names() {
        let tx_key = SeriesKey::per_node(METRIC_NODE_TX_BYTES, &node);
        let rate = store
            .rate(&tx_key, now, SimDuration::from_secs(30))
            .unwrap_or(0.0);
        println!(
            "  rate({METRIC_NODE_TX_BYTES}{{instance=\"{node}\"}}[30s]) = {:.2} MB/s",
            rate / 1e6
        );
    }
    let rtt_series = store.instant_by_name(METRIC_PING_RTT, now);
    println!("ping mesh series at t={now}: {} pairs", rtt_series.len());

    // --- The scheduler-facing snapshot and Table-1 feature vectors. ---
    let snapshot = world.snapshot();
    let schema = FeatureSchema::standard();
    let request = JobRequest::named("join-tour", WorkloadKind::Join, 250_000, 2);
    println!(
        "\nfeature vectors for {} ({} features):",
        request.name,
        schema.len()
    );
    for node in world.cluster.node_names() {
        let features = schema.construct(&snapshot, &node, &request);
        let column = |column| {
            schema
                .position(column)
                .ok_or("the standard schema lacks a column")
        };
        let cpu = features[column(Column::CpuLoad)?];
        let rtt = features[column(Column::RttMean)?];
        let rx = features[column(Column::RxRate)?];
        println!(
            "  {node}: cpu_load={cpu:.2}, rtt_mean={:.1} ms, rx_rate={:.2} MB/s, full vector = {:?}",
            rtt * 1000.0,
            rx / 1e6,
            features.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }

    // --- Telemetry staleness: what an old snapshot would have looked like. ---
    let stale = netsched::telemetry::ClusterSnapshot::from_store(
        world.metrics.store(),
        SimTime::from_secs(10),
        SimDuration::from_secs(30),
    );
    println!(
        "\nsnapshot at t=10s saw {} nodes with receive traffic; at t={} it is {}",
        stale.iter_nodes().filter(|(_, t)| t.rx_rate > 0.0).count(),
        snapshot.time,
        snapshot
            .iter_nodes()
            .filter(|(_, t)| t.rx_rate > 0.0)
            .count()
    );
    Ok(())
}
