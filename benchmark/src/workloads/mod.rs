//! The four named workloads. Each builds its inputs from the seed, sets the
//! system up (several times, so set-up time is a median), then drives the
//! serving loop for a fixed op count sized from `--seconds`.

pub mod ingest;
pub mod paper;
pub mod scale;

use crate::serve::{Phase, ServeLoop};
use crate::stats::median;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Every input derives from it.
    pub seed: u64,
    /// Measured seconds the op counts are sized for on the reference box.
    pub seconds: f64,
    /// Scaled-down run: same code paths, metric names and checks.
    pub smoke: bool,
    /// Traced run: a short untraced reference phase, then the traced phase.
    pub traced: bool,
}

/// The traced run's untraced reference phase, as a share of the op count.
const REFERENCE_SHARE: f64 = 0.25;
/// The traced phase, as a share of the op count (each op runs twice there:
/// once through the service, once through the replica).
const TRACED_SHARE: f64 = 1.0 / 3.0;

impl Plan {
    /// Worker threads handed to `Workflow`, `run_sweep` and model training:
    /// the reference box has two cores.
    pub fn workers() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
    }

    /// Op count of the full untraced run: `per_second × seconds`, so sample
    /// counts and exact counters repeat between runs and commits.
    pub fn ops(&self, per_second: f64, floor: usize) -> usize {
        let seconds = if self.smoke { 0.2 } else { self.seconds };
        ((per_second * seconds) as usize).max(floor)
    }

    /// How many times set-up runs: three where its time is reported (as the
    /// median), once in a traced or smoke run, which report no `setup_s`.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke || self.traced {
            1
        } else {
            3
        }
    }

    /// Wall-clock guard of one phase: a box several times slower than the
    /// one the op counts were sized on stops early instead of overrunning.
    fn guard(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 3.0).max(6.0))
    }
}

/// How a workload's op stream repeats: the request pool is cycled, so op
/// `i` repeats op `i − cycle` and the report can tell a dear request from a
/// noisy second (see `stats::per_slot_quiet`).
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    /// Decisions per cycle of the request pool.
    pub decisions: usize,
    /// Steps (`schedule*` calls) per cycle.
    pub steps: usize,
    /// Distinct cycle positions at which a new epoch lands; 1 when epochs
    /// arrive on their own clock.
    pub fresh_epochs: usize,
}

impl Cycle {
    /// The cycle of a stream of `steps` steps of `per_step` decisions with a
    /// new epoch every `epoch_every` steps.
    pub fn new(steps: usize, per_step: usize, epoch_every: usize) -> Self {
        let gcd = |mut a: usize, mut b: usize| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        Cycle {
            decisions: steps * per_step,
            steps,
            fresh_epochs: steps / gcd(steps, epoch_every.max(1)),
        }
    }
}

/// What a workload hands to the report.
#[derive(Debug)]
pub struct Outcome {
    /// How the op stream repeats.
    pub cycle: Cycle,
    /// Median time of one full set-up (world, model, service, warm-up).
    pub setup_s: f64,
    /// The untraced phase: the whole run with `--trace 0`, the short
    /// reference with `--trace 1`.
    pub untraced: Phase,
    /// The traced phase (`--trace 1` only).
    pub traced: Option<Phase>,
    /// Per-layer values the workload measured itself, by catalogue name.
    pub layers: Vec<(&'static str, f64)>,
    /// Named workload-level output checks.
    pub checks: Vec<(&'static str, bool)>,
    /// Facts worth keeping in the result file (e.g. the sweep md5).
    pub notes: Vec<(&'static str, String)>,
    /// A phase hit its wall-clock guard before its op count.
    pub truncated: bool,
}

/// A set-up system plus the way to push `ops` operations through it.
pub trait Rig {
    /// The serving loop the ops go through.
    fn serve_loop(&mut self) -> &mut ServeLoop;
    /// Run `ops` operations; `false` when the wall-clock guard cut it short.
    fn drive(&mut self, ops: usize) -> bool;
}

/// Build the rig `repeats` times, keep the last, report the median build time.
pub fn setup_median<R>(repeats: usize, mut build: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut rig = None;
    for _ in 0..repeats.max(1) {
        drop(rig.take());
        let start = Instant::now();
        rig = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (rig.expect("at least one set-up ran"), median(&mut times))
}

/// Run the measured phases over a set-up rig: the full untraced op count, or
/// (traced) a reference quarter untraced followed by a traced third.
/// `spans_per_op` sizes the span buffer.
pub fn measure<R: Rig>(
    rig: &mut R,
    plan: &Plan,
    ops: usize,
    spans_per_op: usize,
) -> (Phase, Option<Phase>, bool) {
    let guard = plan.guard();
    if !plan.traced {
        rig.serve_loop().begin_phase(None, guard);
        let complete = rig.drive(ops);
        return (rig.serve_loop().end_phase(), None, !complete);
    }
    let reference_ops = ((ops as f64 * REFERENCE_SHARE) as usize).max(1);
    let traced_ops = ((ops as f64 * TRACED_SHARE) as usize).max(1);
    rig.serve_loop().begin_phase(None, guard);
    let reference_complete = rig.drive(reference_ops);
    let reference = rig.serve_loop().end_phase();
    let tracer = Tracer::with_capacity(traced_ops * spans_per_op + 1024);
    rig.serve_loop().begin_phase(Some(tracer), guard);
    let traced_complete = rig.drive(traced_ops);
    let traced = rig.serve_loop().end_phase();
    (
        reference,
        Some(traced),
        !(reference_complete && traced_complete),
    )
}
