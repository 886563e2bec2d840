//! `paper_6n`: the paper end to end at its own scale.
//!
//! Set-up *is* the paper's pipeline, run several times with derived seeds:
//! `Workflow::run` on the FABRIC 6-node slice (60 configurations × 10
//! repeats), `evaluate_table4` (RF 200 / GBDT 300 / linear / kube-default),
//! every sample logged with `record_outcome`, `SchedulerService::retrain`.
//! The measured phase then serves lone `schedule` → bind decisions with the
//! retrained service against a real `ScrapeManager`, a new epoch every 8
//! decisions, no pruning.
//!
//! Why: it carries the paper-shape quality check; it is the only workload
//! where simcore / simnet / sparksim and model *training* do the work; and in
//! the measured phase the fixed per-decision costs (manifest, per-tree
//! overhead, `Arc` adoption, the owning `schedule` path's allocations)
//! dominate while indexing, feasibility and stage one are ≈ 0 — a 10k-scale
//! optimisation must show *no change* here.

use super::{measure, setup_median, Cycle, Outcome, Plan, Rig};
use crate::serve::{Call, ServeLoop};
use crate::stats::{md5_hex, median};
use crate::trace::timed;
use experiments::config::job_matrix;
use experiments::evaluation::{evaluate_table4, Table4Report, KUBE_DEFAULT_METHOD};
use experiments::fabric::FabricTestbed;
use experiments::scenarios::{run_sweep, ScenarioMatrix, SweepOptions, SweepReport};
use experiments::workflow::{ExperimentConfig, Workflow};
use experiments::world::SimWorld;
use mlcore::{GradientBoostingConfig, ModelConfig, ModelKind, RandomForestConfig, TrainedModel};
use netsched_core::request::JobRequest;
use netsched_core::service::{SchedulerConfig, SchedulerService};
use simcore::rng::Rng;
use simcore::{SimDuration, SimTime};
use simnet::{BackgroundLoadConfig, Network};
use std::sync::OnceLock;
use std::time::Instant;
use telemetry::{ScrapeConfig, ScrapeManager};

/// Pods in flight on the 6-node slice (36 one-core drivers would fill it).
const IN_FLIGHT: usize = 12;
/// A real scrape publishes a new epoch every this many decisions.
const EPOCH_EVERY: usize = 8;
/// Lone decisions per second of `--seconds` on the reference box.
const OPS_PER_SECOND: f64 = 6_000.0;

/// What one run of the paper's pipeline took, stage by stage.
struct Round {
    pipeline_s: f64,
    workflow_s: f64,
    scenarios: usize,
    evaluate_s: f64,
    record_outcome_us: f64,
    retrain_s: f64,
    report: Table4Report,
    service: SchedulerService,
}

/// Random forest, no pruning; the smoke pipeline logs only 36 samples.
fn service_config() -> SchedulerConfig {
    SchedulerConfig {
        min_training_samples: 30,
        ..Default::default()
    }
}

fn model_config(plan: &Plan) -> ModelConfig {
    let (trees, rounds) = if plan.smoke { (25, 60) } else { (200, 300) };
    ModelConfig {
        forest: RandomForestConfig {
            n_trees: trees,
            workers: Plan::workers(),
            ..Default::default()
        },
        gbdt: GradientBoostingConfig {
            n_rounds: rounds,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Dataset → evaluate → log → retrain, once, from `seed`.
fn pipeline_round(plan: &Plan, seed: u64) -> Round {
    let started = Instant::now();
    let config = if plan.smoke {
        ExperimentConfig::quick(1, 2, seed)
    } else {
        ExperimentConfig {
            seed,
            ..Default::default()
        }
    };
    let workflow = Workflow::new(ExperimentConfig {
        workers: Plan::workers(),
        ..config
    });
    let (dataset, start, end) = timed(|| workflow.run());
    let workflow_s = end.duration_since(start).as_secs_f64();

    let (report, start, end) = timed(|| evaluate_table4(&dataset, 0.25, &model_config(plan), seed));
    let evaluate_s = end.duration_since(start).as_secs_f64();

    let mut service = SchedulerService::new(service_config(), seed);
    let start = Instant::now();
    for scenario in &dataset.scenarios {
        let request = scenario.request();
        for outcome in &scenario.outcomes {
            service.record_outcome(
                &scenario.snapshot,
                &request,
                &outcome.node,
                outcome.completion_seconds,
            );
        }
    }
    let record_outcome_us =
        start.elapsed().as_secs_f64() * 1e6 / service.logged_executions().max(1) as f64;

    let mut rng = Rng::seed_from_u64(seed ^ 0x7EA1);
    let (retrained, start, end) = timed(|| service.retrain(&mut rng));
    assert!(retrained, "the pipeline logs enough samples to retrain");
    Round {
        pipeline_s: started.elapsed().as_secs_f64(),
        workflow_s,
        scenarios: dataset.scenario_count(),
        evaluate_s,
        record_outcome_us,
        retrain_s: end.duration_since(start).as_secs_f64(),
        report,
        service,
    }
}

struct PaperRig {
    serve: ServeLoop,
    scrape: ScrapeManager,
    network: Network,
    requests: Vec<JobRequest>,
    op: usize,
}

impl PaperRig {
    fn build(plan: &Plan, repeat: usize) -> (Self, Round) {
        let round = pipeline_round(plan, plan.seed.wrapping_mul(1_000_003) + repeat as u64);
        let FabricTestbed {
            network, cluster, ..
        } = FabricTestbed::paper();
        let mut scrape = ScrapeManager::new(ScrapeConfig::default());
        let source = scrape.published_handle();
        let now = SimTime::from_secs(60);
        scrape.scrape(&cluster, &network, now);
        let mut requests: Vec<JobRequest> = job_matrix()
            .iter()
            .map(|config| config.to_request())
            .collect();
        Rng::seed_from_u64(plan.seed ^ 0x10B5).shuffle(&mut requests);
        let mut serve = ServeLoop::new(
            round.service.clone(),
            service_config(),
            source,
            cluster,
            IN_FLIGHT,
            plan.seed,
        );
        serve.now = now;
        let mut rig = PaperRig {
            serve,
            scrape,
            network,
            requests,
            op: 0,
        };
        // Warm-up: fill the window and cycle every publish buffer once.
        rig.drive(4 * EPOCH_EVERY + IN_FLIGHT);
        (rig, round)
    }
}

impl Rig for PaperRig {
    fn serve_loop(&mut self) -> &mut ServeLoop {
        &mut self.serve
    }

    fn drive(&mut self, ops: usize) -> bool {
        for _ in 0..ops {
            if self.serve.over_budget() {
                return false;
            }
            let fresh = self.op > 0 && self.op.is_multiple_of(EPOCH_EVERY);
            if fresh {
                self.serve.now += SimDuration::from_secs(5);
                let (_, start, end) = timed(|| {
                    self.scrape
                        .scrape(&self.serve.cluster, &self.network, self.serve.now)
                });
                self.serve.note_publish("telemetry.scrape", start, end);
            }
            let request = &self.requests[self.op % self.requests.len()];
            self.serve
                .step(std::slice::from_ref(request), Call::Single, fresh);
            self.op += 1;
        }
        true
    }
}

/// Contrast measurements of the layers only this workload exercises, taken
/// in the traced run: the three trainers on round 0's log, one simulated job
/// and a minute of simulated background load on the FABRIC slice.
fn layer_contrasts(plan: &Plan, round: &Round, layers: &mut Vec<(&'static str, f64)>) {
    let data = round.service.logger().to_dataset();
    let config = model_config(plan);
    for (name, kind) in [
        ("mlcore.train_rf_s", ModelKind::RandomForest),
        ("mlcore.train_gbdt_s", ModelKind::GradientBoosting),
        ("mlcore.train_linear_s", ModelKind::Linear),
    ] {
        let mut rng = Rng::seed_from_u64(plan.seed ^ 0x7EA1);
        let (_, start, end) = timed(|| TrainedModel::train(kind, &config, &data, &mut rng));
        layers.push((name, end.duration_since(start).as_secs_f64()));
    }

    let mut world = SimWorld::new(FabricTestbed::paper(), plan.seed);
    world.place_background_load(2, &BackgroundLoadConfig::default());
    let simulated = 60;
    let (_, start, end) = timed(|| world.advance_by(SimDuration::from_secs(simulated)));
    layers.push((
        "simnet.advance_us_per_sim_s",
        end.duration_since(start).as_secs_f64() * 1e6 / simulated as f64,
    ));
    let mut job_us: Vec<f64> = job_matrix()
        .iter()
        .step_by(7)
        .map(|config| {
            let mut replay = world.clone();
            let request = config.to_request();
            let (outcome, start, end) = timed(|| replay.run_job(&request, "node-1"));
            assert!(outcome.is_some(), "the idle slice fits every paper job");
            end.duration_since(start).as_secs_f64() * 1e6
        })
        .collect();
    layers.push(("sparksim.run_job_us", median(&mut job_us)));
}

/// The scenario sweep behind the paper-shape check, and how long it took.
///
/// Its cell and evaluation seeds are fixed, so it is the same computation on
/// every `--seed`, in every trace mode and in smoke runs: the JSON's md5 is a
/// byte-stability check any later run must reproduce, and one process runs
/// the sweep once however many `paper_6n` runs it makes.
fn paper_sweep() -> &'static (SweepReport, f64) {
    static SWEEP: OnceLock<(SweepReport, f64)> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let options = SweepOptions {
            workers: Plan::workers(),
            ..Default::default()
        };
        let (report, start, end) = timed(|| run_sweep(&ScenarioMatrix::paper_default(), &options));
        (report, end.duration_since(start).as_secs_f64())
    })
}

/// `paper_6n`.
pub fn run(plan: &Plan) -> Outcome {
    let mut rounds: Vec<Round> = Vec::new();
    let mut repeat = 0;
    let (mut rig, setup_s) = setup_median(plan.setup_repeats(), || {
        let (rig, round) = PaperRig::build(plan, repeat);
        repeat += 1;
        rounds.push(round);
        rig
    });
    let median_of =
        |pick: fn(&Round) -> f64| median(&mut rounds.iter().map(pick).collect::<Vec<f64>>());
    let first = &rounds[0];
    let top1 = |method: &str| first.report.row(method).map_or(0.0, |row| row.top1);
    let rf_top1 = top1(ModelKind::RandomForest.display_name());
    let kube_top1 = top1(KUBE_DEFAULT_METHOD);
    let workflow_s = median_of(|round| round.workflow_s);
    let mut layers = vec![
        (
            "experiments.pipeline_s",
            median_of(|round| round.pipeline_s),
        ),
        ("experiments.workflow_s", workflow_s),
        (
            "experiments.scenarios_per_s",
            first.scenarios as f64 / workflow_s,
        ),
        (
            "experiments.evaluate_s",
            median_of(|round| round.evaluate_s),
        ),
        (
            "core.record_outcome_us",
            median_of(|round| round.record_outcome_us),
        ),
        ("core.retrain_s", median_of(|round| round.retrain_s)),
        ("experiments.top1_accuracy", rf_top1),
        ("experiments.top1_gain_vs_kube", rf_top1 - kube_top1),
    ];

    let (sweep, sweep_s) = paper_sweep();
    layers.push(("experiments.sweep_s", *sweep_s));
    if plan.traced {
        layer_contrasts(plan, first, &mut layers);
    }

    let ops = plan.ops(OPS_PER_SECOND, 4 * EPOCH_EVERY);
    let (untraced, traced, truncated) = measure(&mut rig, plan, ops, 16);
    Outcome {
        cycle: Cycle::new(rig.requests.len(), 1, EPOCH_EVERY),
        setup_s,
        untraced,
        traced,
        layers,
        checks: vec![
            ("paper_shape_holds", sweep.paper_shape_holds()),
            ("rf_top1_beats_kube_default", rf_top1 > kube_top1),
        ],
        notes: vec![("sweep_md5", md5_hex(sweep.to_json().as_bytes()))],
        truncated,
    }
}
