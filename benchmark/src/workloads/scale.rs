//! `serve_10k` and `burst_10k`: one 10 000-node `ScaleWorld`, the RF-40
//! `train_scale_predictor` model, `prune_top_k = 32`, model-aligned pruning,
//! 256 pods in flight — driven two ways.
//!
//! * `serve_10k` makes lone `schedule` → bind → `schedule` decisions, so every
//!   decision pays what the service re-derives per call: the RTT-mesh
//!   re-index, the feasibility re-sort after the bind, a full-cluster
//!   scoreboard. A keyed decision view, publish-time RTT statistics or an
//!   incremental feasibility index must show here.
//! * `burst_10k` pushes the same request stream through `schedule_batch_into`
//!   32 at a time and binds after the batch returns, so the same code runs
//!   amortised — and the decisions of one burst collide on nodes. A change
//!   that caches across calls should move `serve_10k` a lot and this little.

use super::{measure, setup_median, Cycle, Outcome, Plan, Rig};
use crate::serve::{Call, ServeLoop};
use crate::trace::timed;
use cluster::NodeId;
use experiments::scale::{train_scale_predictor, ScaleWorld, ScaleWorldSpec};
use netsched_core::context::PruningPolicy;
use netsched_core::request::JobRequest;
use netsched_core::service::{SchedulerConfig, SchedulerService};
use simcore::rng::Rng;
use simcore::SimDuration;
use std::collections::VecDeque;
use std::time::Instant;
use telemetry::{ClusterSnapshot, SnapshotPublisher};

const NODES: usize = 10_000;
const TOP_K: usize = 32;
const BURST: usize = 32;
/// Share of the nodes whose telemetry changes from one epoch to the next.
const EPOCH_CHURN: f64 = 0.01;
/// Epochs whose changes a recycled publish buffer has missed: the publisher
/// cycles through four buffers.
const BUFFER_LAG: usize = 4;

/// How one of the two workloads drives the shared world.
#[derive(Debug, Clone, Copy)]
struct Shape {
    call: Call,
    /// Requests per `schedule*` call.
    per_step: usize,
    /// Distinct requests the stream cycles through, so the report can tell a
    /// dear request from a noisy second (see `stats::per_slot_quiet`).
    request_pool: usize,
    /// New epoch every this many steps.
    epoch_every: usize,
    /// Steps per second of `--seconds` on the reference box.
    steps_per_second: f64,
    /// Sizes the traced run's span buffer.
    spans_per_step: usize,
}

/// `serve_10k`: 64 distinct requests, about 16 repetitions of each in 10 s.
const SERVE: Shape = Shape {
    call: Call::Single,
    per_step: 1,
    request_pool: 64,
    epoch_every: 16,
    steps_per_second: 100.0,
    spans_per_step: 16,
};

/// `burst_10k`: 7 distinct bursts, about 11 repetitions of each in 10 s. Seven
/// because it shares no factor with `epoch_every`: every kind of burst then
/// takes its turn at being the first after a new epoch, so
/// `fresh_epoch_p50_us` is a median over all of them and not over whichever
/// two a seed happened to line up.
const BURST_SHAPE: Shape = Shape {
    call: Call::Batch,
    per_step: BURST,
    request_pool: 7 * BURST,
    epoch_every: 4,
    steps_per_second: 8.0,
    spans_per_step: 16 + 12 * BURST,
};

struct ScaleRig {
    serve: ServeLoop,
    shape: Shape,
    publisher: SnapshotPublisher,
    /// The telemetry the next epoch is cut from.
    master: ClusterSnapshot,
    /// Nodes each of the last [`BUFFER_LAG`] epochs changed.
    recent_changes: VecDeque<Vec<NodeId>>,
    requests: Vec<JobRequest>,
    rng: Rng,
    /// Ops driven since set-up (the request stream's cursor).
    op: usize,
    world_build_s: f64,
}

/// Pods in flight (a smoke run fills a quarter of the window's bursts).
fn in_flight(plan: &Plan) -> usize {
    if plan.smoke {
        64
    } else {
        256
    }
}

impl ScaleRig {
    fn build(plan: &Plan, shape: Shape) -> Self {
        let (world, start, end) =
            timed(|| ScaleWorld::build(ScaleWorldSpec::with_nodes(NODES, plan.seed)));
        let world_build_s = end.duration_since(start).as_secs_f64();
        let predictor = train_scale_predictor(plan.seed);
        let config = SchedulerConfig {
            prune_top_k: Some(TOP_K),
            pruning_policy: PruningPolicy::ModelAligned,
            ..Default::default()
        };
        let service = SchedulerService::with_predictor(config.clone(), predictor, plan.seed);
        let requests = world.requests(shape.request_pool);
        let ScaleWorld {
            cluster, snapshot, ..
        } = world;
        let mut publisher = SnapshotPublisher::new();
        publisher.publish_with(|epoch| epoch.clone_from(&snapshot));
        let serve = ServeLoop::new(
            service,
            config,
            publisher.handle(),
            cluster,
            in_flight(plan),
            plan.seed,
        );
        let mut rig = ScaleRig {
            serve,
            shape,
            publisher,
            master: snapshot,
            recent_changes: VecDeque::with_capacity(BUFFER_LAG + 1),
            requests,
            rng: Rng::seed_from_u64(plan.seed ^ 0x7E1E),
            op: 0,
            world_build_s,
        };
        // Warm-up: fill the in-flight window through bursts (the cheap way
        // to place 256 pods), put every publish buffer through its first
        // (full-copy) cycle, then take a few steps the workload's own way.
        for burst in rig
            .requests
            .chunks(BURST)
            .cycle()
            .take(in_flight(plan) / BURST)
        {
            rig.serve.step(burst, Call::Batch, false);
        }
        for _ in 1..BUFFER_LAG {
            rig.publish_epoch();
        }
        rig.drive(2);
        rig
    }

    /// Cut the next epoch: perturb ~1 % of the nodes' telemetry in the master
    /// copy (generator time), then publish it (system time).
    fn publish_epoch(&mut self) {
        let generating = Instant::now();
        let nodes = self.serve.cluster.node_count();
        let mut changed = Vec::with_capacity((nodes as f64 * EPOCH_CHURN) as usize);
        for _ in 0..changed.capacity() {
            let id = NodeId(self.rng.gen_range(nodes as u64) as u32);
            let Some(mut telemetry) = self.master.node_by_id(id).copied() else {
                continue;
            };
            telemetry.cpu_load = (telemetry.cpu_load + self.rng.uniform(-0.4, 0.4)).max(0.0);
            telemetry.tx_rate = self.rng.uniform(0.0, 2.0e7);
            telemetry.rx_rate = self.rng.uniform(0.0, 2.0e7);
            self.master.set_node_by_id(id, telemetry);
            changed.push(id);
        }
        self.serve.now += SimDuration::from_secs(5);
        self.master.time = self.serve.now;
        self.recent_changes.push_back(changed);
        if self.recent_changes.len() > BUFFER_LAG {
            self.recent_changes.pop_front();
        }
        self.serve.ledger.generator_ns += generating.elapsed().as_nanos() as u64;

        let (master, recent) = (&self.master, &self.recent_changes);
        let (_, start, end) = timed(|| {
            self.publisher.publish_with(|epoch| {
                if epoch.is_empty() {
                    epoch.clone_from(master);
                    return;
                }
                // A recycled buffer holds the epoch from BUFFER_LAG publishes
                // ago: rewrite only what changed since, as a scrape does.
                epoch.time = master.time;
                for &id in recent.iter().flatten() {
                    if let Some(telemetry) = master.node_by_id(id) {
                        epoch.set_node_by_id(id, *telemetry);
                    }
                }
            })
        });
        self.serve.note_publish("telemetry.publish", start, end);
    }
}

impl Rig for ScaleRig {
    fn serve_loop(&mut self) -> &mut ServeLoop {
        &mut self.serve
    }

    fn drive(&mut self, ops: usize) -> bool {
        let Shape {
            call,
            per_step,
            epoch_every,
            ..
        } = self.shape;
        for _ in 0..ops {
            if self.serve.over_budget() {
                return false;
            }
            let fresh = self.op > 0 && self.op.is_multiple_of(epoch_every);
            if fresh {
                self.publish_epoch();
            }
            let from = (self.op * per_step) % self.requests.len();
            self.serve
                .step(&self.requests[from..from + per_step], call, fresh);
            self.op += 1;
        }
        true
    }
}

fn run(plan: &Plan, shape: Shape) -> Outcome {
    let (mut rig, setup_s) = setup_median(plan.setup_repeats(), || ScaleRig::build(plan, shape));
    let ops = plan.ops(shape.steps_per_second, shape.epoch_every + 1);
    let (untraced, traced, truncated) = measure(&mut rig, plan, ops, shape.spans_per_step);
    Outcome {
        cycle: Cycle::new(
            shape.request_pool / shape.per_step,
            shape.per_step,
            shape.epoch_every,
        ),
        setup_s,
        untraced,
        traced,
        layers: vec![("experiments.world_build_s", rig.world_build_s)],
        checks: Vec::new(),
        notes: Vec::new(),
        truncated,
    }
}

/// `serve_10k`: lone decisions, new epoch every 16.
pub fn serve_10k(plan: &Plan) -> Outcome {
    run(plan, SERVE)
}

/// `burst_10k`: bursts of 32, new epoch every 4 bursts.
pub fn burst_10k(plan: &Plan) -> Outcome {
    run(plan, BURST_SHAPE)
}
