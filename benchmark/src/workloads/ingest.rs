//! `ingest_64n`: decisions beside live telemetry ingest.
//!
//! A 64-node two-site world with the real `Network` and the full ping mesh
//! (4 288 series per scrape round — above `sync_work_threshold`, so the
//! worker pipeline runs). An ingest-driver thread feeds
//! `ConcurrentScrapeManager::ingest` one simulated hour (720 rounds) at a
//! time for a fixed number of hours, while the client thread runs closed-loop
//! bursts of 8 through `schedule_batch_into` against `published_handle()`,
//! binds included, until ingest finishes.
//!
//! Why: the only workload where telemetry's write side (evaluate → shard
//! write → commit → publish) does most of the work, and the only one where
//! decisions contend with it for cores and for retained epoch buffers
//! (copy-on-write deep copies): reads beside writes on the same layer.

use super::{measure, setup_median, Cycle, Outcome, Plan, Rig};
use crate::serve::{Call, ServeLoop};
use crate::trace::{nanos, timed, NO_PARENT};
use cluster::{ClusterState, Node, Resources};
use experiments::scale::train_scale_predictor;
use netsched_core::request::JobRequest;
use netsched_core::service::{SchedulerConfig, SchedulerService};
use simcore::rng::Rng;
use simcore::{SimDuration, SimTime};
use simnet::{gbps, mbps, Network, NodeId, TopologyBuilder};
use sparksim::WorkloadKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use telemetry::{
    ClusterSnapshot, ConcurrentScrapeManager, IngestConfig, ScrapeConfig, SnapshotSource,
    TelemetryReader,
};

const NODES: usize = 64;
const IN_FLIGHT: usize = 64;
const BURST: usize = 8;
const ROUNDS_PER_HOUR: u64 = 720;
const SCRAPE_INTERVAL_S: u64 = 5;
/// Simulated hours ingested per second of `--seconds` on the reference box.
const HOURS_PER_SECOND: f64 = 2.0;
/// A store-backed fetch (the lock path) is timed every this many bursts of
/// the traced run, for contrast with the published path.
const STORE_FETCH_EVERY: u64 = 8;

/// Two sites, `NODES` nodes alternating between them, one WAN link.
fn world() -> (ClusterState, Network) {
    let mut topology = TopologyBuilder::new();
    let sites = [
        topology.add_site("A", SimDuration::from_micros(200), gbps(10.0)),
        topology.add_site("B", SimDuration::from_micros(200), gbps(10.0)),
    ];
    for i in 0..NODES {
        topology.add_node(
            format!("node-{}", i + 1),
            sites[i % 2],
            gbps(1.0),
            gbps(1.0),
        );
    }
    topology.connect_sites(
        sites[0],
        sites[1],
        SimDuration::from_millis(20),
        mbps(500.0),
    );
    let network = Network::new(topology.build().expect("two connected sites"));
    let mut cluster = ClusterState::new();
    for i in 0..NODES {
        cluster.add_node(Node::new(
            format!("node-{}", i + 1),
            NodeId(i),
            Resources::from_cores_and_gib(6, 8),
            if i % 2 == 0 { "A" } else { "B" },
        ));
    }
    (cluster, network)
}

/// The scrape schedule of simulated hour `hour`.
fn schedule(hour: u64) -> Vec<SimTime> {
    (1..=ROUNDS_PER_HOUR)
        .map(|round| SimTime::from_secs((hour * ROUNDS_PER_HOUR + round) * SCRAPE_INTERVAL_S))
        .collect()
}

/// The request stream the client cycles through, drawn from the seed.
fn requests(seed: u64) -> Vec<JobRequest> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x10B5);
    let kinds = WorkloadKind::PAPER_SET;
    (0..8 * BURST)
        .map(|i| {
            JobRequest::named(
                format!("ingest-job-{i}"),
                kinds[i % kinds.len()],
                50_000 + rng.gen_range(400_000),
                2 + rng.gen_range(3) as u32,
            )
        })
        .collect()
}

/// The client thread's side of the rig.
struct Client {
    serve: ServeLoop,
    reader: TelemetryReader,
    requests: Vec<JobRequest>,
    bursts: u64,
    /// Adopted epochs were monotone, whole and aligned with the cluster.
    epochs_consistent: bool,
    last_adopted: Option<Arc<ClusterSnapshot>>,
    fetched: ClusterSnapshot,
}

impl Client {
    /// One closed-loop burst, plus the epoch checks on what it adopted.
    fn burst(&mut self, last_epoch: &mut u64) {
        let epoch = self.serve.source.epoch();
        let fresh = epoch != *last_epoch;
        *last_epoch = epoch;
        let from = (self.bursts as usize * BURST) % self.requests.len();
        self.serve
            .step(&self.requests[from..from + BURST], Call::Batch, fresh);
        self.bursts += 1;

        let Some(adopted) = self
            .serve
            .decisions()
            .first()
            .map(|d| Arc::clone(&d.snapshot))
        else {
            return;
        };
        let changed = self
            .last_adopted
            .as_ref()
            .is_none_or(|last| !Arc::ptr_eq(last, &adopted));
        if changed {
            let monotone = self
                .last_adopted
                .as_ref()
                .is_none_or(|last| last.time <= adopted.time);
            let whole =
                adopted.iter_nodes().count() == NODES && adopted.rtt().len() == NODES * (NODES - 1);
            let aligned = adopted.is_aligned_with(&self.serve.cluster);
            self.epochs_consistent &= monotone && whole && aligned;
            self.last_adopted = Some(adopted);
        }

        if self.serve.tracer.is_some() && self.bursts.is_multiple_of(STORE_FETCH_EVERY) {
            let at = self.last_adopted.as_ref().map_or(SimTime::ZERO, |s| s.time);
            let (_, start, end) = timed(|| {
                self.reader
                    .snapshot_into(at, SimDuration::from_secs(30), &mut self.fetched)
            });
            if let Some(tracer) = &mut self.serve.tracer {
                tracer.push("telemetry.store_fetch", NO_PARENT, 0, start, end);
            }
        }
    }
}

struct IngestRig {
    client: Client,
    /// `None` only while the ingest-driver thread owns it.
    manager: Option<ConcurrentScrapeManager>,
    /// The cluster the exporters read; decisions bind on the loop's own copy
    /// so binds can go on while ingest borrows this one.
    scraped: ClusterState,
    network: Network,
    next_hour: u64,
    /// Epochs one `ingest` call publishes (one per committed chunk).
    epochs_per_hour: u64,
}

impl IngestRig {
    fn build(plan: &Plan) -> Self {
        let (scraped, network) = world();
        let predictor = train_scale_predictor(plan.seed);
        let config = SchedulerConfig::default();
        let service = SchedulerService::with_predictor(config.clone(), predictor, plan.seed);
        let ingest = IngestConfig::default();
        let mut manager = ConcurrentScrapeManager::with_ingest(
            ScrapeConfig {
                interval: SimDuration::from_secs(SCRAPE_INTERVAL_S),
                rate_window: SimDuration::from_secs(30),
                retention: Some(SimDuration::from_secs(3600)),
            },
            ingest,
        );
        manager.scrape(&scraped, &network, SimTime::ZERO);
        let source = manager.published_handle();
        let reader = manager.reader();
        let serve = ServeLoop::new(
            service,
            config,
            source,
            scraped.clone(),
            IN_FLIGHT,
            plan.seed,
        );
        let mut rig = IngestRig {
            client: Client {
                serve,
                reader,
                requests: requests(plan.seed),
                bursts: 0,
                epochs_consistent: true,
                last_adopted: None,
                fetched: ClusterSnapshot::default(),
            },
            manager: Some(manager),
            scraped,
            network,
            next_hour: 0,
            epochs_per_hour: ROUNDS_PER_HOUR.div_ceil(ingest.chunk_rounds.max(1) as u64),
        };
        // Warm-up: one ingested hour (spawns the writer pool, fills an hour
        // of retention) with the client filling its window beside it.
        rig.drive(1);
        rig
    }
}

impl Rig for IngestRig {
    fn serve_loop(&mut self) -> &mut ServeLoop {
        &mut self.client.serve
    }

    /// Ingest `hours` simulated hours on the ingest-driver thread while this
    /// thread bursts; one trailing burst runs after ingest finishes so the
    /// last epoch is adopted too.
    fn drive(&mut self, hours: usize) -> bool {
        let generating = Instant::now();
        let schedules: Vec<Vec<SimTime>> = (self.next_hour..self.next_hour + hours as u64)
            .map(schedule)
            .collect();
        self.next_hour += hours as u64;
        let IngestRig {
            client,
            manager,
            scraped,
            network,
            epochs_per_hour,
            ..
        } = self;
        client.serve.ledger.generator_ns += generating.elapsed().as_nanos() as u64;

        let mut manager_taken = manager
            .take()
            .expect("the rig owns the manager between phases");
        let stop = AtomicBool::new(false);
        let (scraped, network, stop_flag) = (&*scraped, &*network, &stop);
        let mut last_epoch = client.serve.source.epoch();
        let (returned, calls) = std::thread::scope(|scope| {
            let ingest = scope.spawn(move || {
                let mut calls = Vec::with_capacity(schedules.len());
                for times in &schedules {
                    // ordering: Relaxed — the flag publishes no data, it only
                    // asks the thread to stop at the next hour boundary.
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let (_, start, end) = timed(|| manager_taken.ingest(scraped, network, times));
                    calls.push((start, end));
                }
                (manager_taken, calls)
            });
            loop {
                let finished = ingest.is_finished();
                client.burst(&mut last_epoch);
                if client.serve.over_budget() {
                    stop_flag.store(true, Ordering::Relaxed);
                }
                if finished {
                    break;
                }
            }
            ingest
                .join()
                .expect("the ingest-driver thread does not panic")
        });
        *manager = Some(returned);
        for &(start, end) in &calls {
            // One call commits `epochs_per_hour` chunks and publishes an
            // epoch after each: every epoch is accounted its share.
            let per_epoch_us = nanos(start, end) as f64 / 1e3 / *epochs_per_hour as f64;
            let ledger = &mut client.serve.ledger;
            ledger
                .publish_us
                .extend(std::iter::repeat_n(per_epoch_us, *epochs_per_hour as usize));
            ledger.epochs_published += *epochs_per_hour;
            if let Some(tracer) = &mut client.serve.tracer {
                tracer.push("telemetry.ingest", NO_PARENT, 0, start, end);
            }
        }
        calls.len() == hours
    }
}

/// `ingest_64n`.
pub fn run(plan: &Plan) -> Outcome {
    // This set-up is the cheapest of the four (half a second) and so the
    // noisiest as a share: it repeats five times where the others repeat three.
    let (mut rig, setup_s) = setup_median(2 * plan.setup_repeats() - 1, || IngestRig::build(plan));
    let hours = plan.ops(HOURS_PER_SECOND, 1);
    // The traced phase's span count depends on how many bursts fit beside
    // the ingest, not on the op count: size the buffer generously per hour.
    let (untraced, traced, truncated) = measure(&mut rig, plan, hours, 200_000);

    // Ingest-side layer numbers come from the last phase run (the traced one
    // with `--trace 1`); a ledger's publish samples add up to its calls.
    let ledger = &traced.as_ref().unwrap_or(&untraced).ledger;
    let ingest_ns = ledger.publish_us.iter().sum::<f64>() * 1e3;
    let calls = ledger.epochs_published / rig.epochs_per_hour;
    let series_per_round = (4 * NODES + NODES * (NODES - 1)) as u64;
    let samples = series_per_round * ROUNDS_PER_HOUR * calls;
    let epoch_us = crate::stats::median(&mut ledger.publish_us.clone());
    let layers = vec![
        (
            "telemetry.ingest_round_us",
            epoch_us * rig.epochs_per_hour as f64 / ROUNDS_PER_HOUR as f64,
        ),
        (
            "telemetry.ingest_samples_per_s",
            samples as f64 / (ingest_ns.max(1.0) / 1e9),
        ),
        (
            "telemetry.ingest_busy_share",
            ingest_ns / (ingest_ns + ledger.busy_ns() as f64).max(1.0),
        ),
    ];
    Outcome {
        // Epochs arrive on the ingest thread's clock, not at cycle positions.
        cycle: Cycle {
            fresh_epochs: 1,
            ..Cycle::new(rig.client.requests.len() / BURST, BURST, 1)
        },
        setup_s,
        untraced,
        traced,
        layers,
        checks: vec![(
            "adopted_epochs_monotone_whole_aligned",
            rig.client.epochs_consistent,
        )],
        notes: Vec::new(),
        truncated,
    }
}
