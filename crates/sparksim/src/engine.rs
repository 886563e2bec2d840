//! The job execution engine.
//!
//! Walks a [`JobDag`] stage by stage against the fluid network, producing the
//! job completion time that serves as the supervised model's training label.
//!
//! The model is intentionally simple but captures every effect the paper's
//! scheduler must learn:
//!
//! * **Driver control overhead** — each wave of tasks costs a few round trips
//!   between the driver and its executors, so a driver placed behind a
//!   high-RTT or congested path slows every stage down.
//! * **Shuffle transfers** — stage inputs move all-to-all between executor
//!   nodes through `simnet`, sharing bandwidth max-min-fairly with background
//!   traffic; congested or low-bandwidth paths stretch shuffle time.
//! * **CPU contention** — compute time is inflated by the host's load average
//!   (base load + background pods + co-located pods).
//! * **Memory pressure** — when a stage's per-task footprint exceeds the
//!   executor memory slot, the stage spills and pays a time penalty.
//! * **Result collection** — final results flow from the executors to the
//!   driver's node, so an ingress-congested driver node delays completion.
//!
//! Background traffic keeps flowing while the job runs: the engine hands
//! control to a [`ContentionDriver`] before every network advance so the
//! experiment harness can keep injecting the paper's curl-loop transfers.

use crate::dag::JobDag;
use crate::placement::Placement;
use crate::workload::WorkloadRequest;
use simcore::{SimDuration, SimTime};
use simnet::{FlowId, Network, NodeId};

/// Hook that lets the experiment harness keep background traffic alive while
/// a job executes.
pub trait ContentionDriver {
    /// Inject any transfers due at or before `now` and return the next time
    /// this driver needs to act (or `None` when it has nothing scheduled).
    fn poll(&mut self, network: &mut Network, now: SimTime) -> Option<SimTime>;
}

// Constants of the execution model, fixed at the values every artifact runs.

/// Compute slowdown per unit of competing host load average.
const CONTENTION_ALPHA: f64 = 0.12;

/// Driver↔executor round trips per task wave.
const CONTROL_RTTS_PER_WAVE: f64 = 8.0;

/// Round trips paid per executor during startup/registration.
const STARTUP_RTTS_PER_EXECUTOR: f64 = 4.0;

/// Multiplicative time penalty when a stage spills to disk.
const SPILL_PENALTY: f64 = 0.5;

/// Hard cap on how long a single job may run (guards runaway scenarios).
const MAX_JOB_DURATION: SimDuration = SimDuration::from_secs(24 * 3600);

/// Timing breakdown of one executed stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageResult {
    /// Stage id.
    pub(crate) stage_id: usize,
    /// Stage name.
    pub name: String,
    /// Seconds spent in driver↔executor control traffic.
    pub control_seconds: f64,
    /// Seconds spent fetching shuffle input.
    pub shuffle_seconds: f64,
    /// Seconds spent computing.
    pub compute_seconds: f64,
    /// Whether the stage spilled to disk.
    pub spilled: bool,
}

/// Result of one job execution.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRunResult {
    /// Wall-clock duration from submission to completion.
    pub completion: SimDuration,
    /// Absolute time at which the job finished.
    pub finished_at: SimTime,
    /// Per-stage breakdown.
    pub stages: Vec<StageResult>,
    /// Seconds spent collecting results onto the driver.
    pub(crate) result_collection_seconds: f64,
    /// Seconds of driver-side computation.
    pub(crate) driver_compute_seconds: f64,
    /// Seconds of fixed startup overhead (including executor registration).
    pub startup_seconds: f64,
    /// Total bytes shuffled over the network.
    pub shuffle_bytes: f64,
    /// Number of stages that spilled.
    pub spill_count: u32,
}

impl JobRunResult {
    /// Completion time in seconds (the training label of the paper's model).
    pub fn completion_seconds(&self) -> f64 {
        self.completion.as_secs_f64()
    }
}

/// Advance the network to `target` while letting the contention driver keep
/// injecting background transfers.
fn advance_with_contention(
    network: &mut Network,
    contention: &mut dyn ContentionDriver,
    target: SimTime,
) {
    loop {
        let now = network.now();
        if now >= target {
            break;
        }
        let next_bg = contention.poll(network, now);
        let step = match next_bg {
            Some(t) if t > now && t < target => t,
            _ => target,
        };
        network.advance_to(step);
        // Guard against a driver that keeps returning the same past time.
        if network.now() <= now {
            network.advance_to(target);
            break;
        }
    }
    // Let the driver catch up at the target instant as well.
    let now = network.now();
    contention.poll(network, now);
}

/// Advance the network until every flow in `flows` has completed (or the
/// deadline passes), returning the completion instant. At the deadline the
/// flows still active are cancelled, so a job that is cut off leaves no
/// traffic behind in the caller's network.
fn wait_for_flows(
    network: &mut Network,
    contention: &mut dyn ContentionDriver,
    flows: &[FlowId],
    deadline: SimTime,
) -> SimTime {
    loop {
        let all_done = flows.iter().all(|id| network.flow(*id).is_none());
        if all_done {
            return network.now();
        }
        let now = network.now();
        if now >= deadline {
            for &id in flows {
                network.cancel_flow(id);
            }
            return now;
        }
        let next_bg = contention.poll(network, now);
        let next_done = network.next_completion();
        let mut target = deadline;
        if let Some(t) = next_done {
            target = target.min(t);
        }
        if let Some(t) = next_bg {
            if t > now {
                target = target.min(t);
            }
        }
        if target <= now {
            // No progress possible (should not happen); bail out at deadline,
            // where the next pass cancels what is left.
            network.advance_to(deadline);
            continue;
        }
        network.advance_to(target);
    }
}

/// Compute-slowdown factor for a node with the given competing load average.
fn slowdown(load: f64) -> f64 {
    1.0 + CONTENTION_ALPHA * load.max(0.0)
}

/// `now + seconds`, cut off at `deadline`. A phase long enough to saturate
/// the duration (or the clock) lands on the deadline instead of overflowing.
fn capped(now: SimTime, seconds: f64, deadline: SimTime) -> SimTime {
    now.saturating_add(SimDuration::from_secs_f64(seconds))
        .min(deadline)
}

/// Mean current RTT (seconds) between the driver node and the executor nodes.
fn mean_driver_rtt(network: &Network, driver: NodeId, executors: &[NodeId]) -> f64 {
    if executors.is_empty() {
        return 0.0005;
    }
    let total: f64 = executors
        .iter()
        .map(|&e| {
            network
                .current_rtt(driver, e, driver.0 as u64 ^ (e.0 as u64).rotate_left(17))
                .as_secs_f64()
        })
        .sum();
    total / executors.len() as f64
}

/// Execute a job and return its timing breakdown.
///
/// * `dag` — the stage DAG (from [`WorkloadRequest::build_dag`]).
/// * `request` — executor sizing (cores, memory) used for waves and spill.
/// * `placement` — driver node + executor nodes.
/// * `node_cpu_load` — competing load average per node at execution time
///   (baseline + background + co-located pods), used for compute slowdown.
/// * `contention` — keeps background traffic flowing during the run.
/// * `start` — submission time; the network is advanced from here.
///
/// A job still running 24 simulated hours after `start` is cut off there.
pub fn execute_job(
    dag: &JobDag,
    request: &WorkloadRequest,
    placement: &Placement,
    network: &mut Network,
    node_cpu_load: &dyn Fn(NodeId) -> f64,
    contention: &mut dyn ContentionDriver,
    start: SimTime,
) -> JobRunResult {
    debug_assert!(dag.validate().is_ok(), "DAG must be valid");
    let deadline = start.saturating_add(MAX_JOB_DURATION);
    // Make sure the network clock is at least at the start time.
    if network.now() < start {
        advance_with_contention(network, contention, start);
    }

    let executors: Vec<NodeId> = if placement.executor_nodes.is_empty() {
        vec![placement.driver_node]
    } else {
        placement.executor_nodes.clone()
    };
    let n_exec = executors.len();
    let cores_per_executor = (request.executor_cores as f64).max(0.25);
    let total_cores = cores_per_executor * n_exec as f64;
    let memory_per_slot =
        request.executor_memory_bytes as f64 / request.executor_cores.max(1) as f64;

    // --- Startup: container launch + executor registration round trips. ---
    let rtt = mean_driver_rtt(network, placement.driver_node, &executors);
    let startup_seconds = dag.startup_seconds
        + STARTUP_RTTS_PER_EXECUTOR * rtt * n_exec as f64
        + 0.2 * slowdown(node_cpu_load(placement.driver_node));
    advance_with_contention(
        network,
        contention,
        capped(network.now(), startup_seconds, deadline),
    );

    let mut stage_results = Vec::with_capacity(dag.stages.len());
    let mut shuffle_bytes_total = 0.0;
    let mut spill_count = 0u32;

    for stage in &dag.stages {
        // --- Control: task dispatch round trips per wave. ---
        let waves = (stage.tasks as f64 / total_cores).ceil().max(1.0);
        let rtt = mean_driver_rtt(network, placement.driver_node, &executors);
        let control_seconds = waves * CONTROL_RTTS_PER_WAVE * rtt;
        advance_with_contention(
            network,
            contention,
            capped(network.now(), control_seconds, deadline),
        );

        // --- Spill check. ---
        let spilled = stage.memory_per_task_bytes > memory_per_slot;
        if spilled {
            spill_count += 1;
        }
        let spill_factor = if spilled { 1.0 + SPILL_PENALTY } else { 1.0 };

        // --- Shuffle read: all-to-all between executor nodes. ---
        let t_shuffle_start = network.now();
        let mut shuffle_seconds = 0.0;
        if stage.has_shuffle_input() && stage.shuffle_read_bytes > 0.0 {
            shuffle_bytes_total += stage.shuffle_read_bytes;
            let pair_count = (n_exec * n_exec) as f64;
            let base_bytes = stage.shuffle_read_bytes / pair_count;
            let mut flows: Vec<FlowId> = Vec::with_capacity(n_exec * n_exec);
            for (di, &dst) in executors.iter().enumerate() {
                // Skew concentrates extra bytes on the first executor's partition.
                let dst_factor = if di == 0 {
                    1.0 + stage.skew * (n_exec as f64 - 1.0)
                } else {
                    1.0 - stage.skew
                };
                for &src in executors.iter() {
                    if src == dst {
                        continue; // node-local shuffle data does not cross the network
                    }
                    let bytes = (base_bytes * dst_factor * spill_factor).max(1.0);
                    flows.push(network.start_flow(src, dst, bytes));
                }
            }
            if !flows.is_empty() {
                wait_for_flows(network, contention, &flows, deadline);
            }
            shuffle_seconds = (network.now() - t_shuffle_start).as_secs_f64();
        }

        // --- Compute: tasks spread over executors, slowed by host load. ---
        let total_work = stage.total_cpu_seconds() * spill_factor;
        let straggler_share = (1.0 - stage.skew) / n_exec as f64 + stage.skew;
        let mut compute_seconds: f64 = 0.0;
        for (i, &node) in executors.iter().enumerate() {
            let share = if i == 0 {
                straggler_share
            } else {
                (1.0 - straggler_share) / (n_exec as f64 - 1.0).max(1.0)
            };
            let work = total_work * share;
            let time = work / cores_per_executor * slowdown(node_cpu_load(node));
            compute_seconds = compute_seconds.max(time);
        }
        advance_with_contention(
            network,
            contention,
            capped(network.now(), compute_seconds, deadline),
        );

        stage_results.push(StageResult {
            stage_id: stage.id,
            name: stage.name.clone(),
            control_seconds,
            shuffle_seconds,
            compute_seconds,
            spilled,
        });
    }

    // --- Result collection onto the driver node. ---
    let t_results_start = network.now();
    let mut result_flows = Vec::with_capacity(n_exec);
    let bytes_per_exec = dag.result_bytes_to_driver / n_exec as f64;
    for &src in &executors {
        if src == placement.driver_node {
            continue;
        }
        result_flows.push(network.start_flow(src, placement.driver_node, bytes_per_exec.max(1.0)));
    }
    if !result_flows.is_empty() {
        wait_for_flows(network, contention, &result_flows, deadline);
    }
    let result_collection_seconds = (network.now() - t_results_start).as_secs_f64();

    // --- Driver-side aggregation. ---
    let driver_compute_seconds =
        dag.driver_cpu_seconds * slowdown(node_cpu_load(placement.driver_node));
    advance_with_contention(
        network,
        contention,
        capped(network.now(), driver_compute_seconds, deadline),
    );

    let finished_at = network.now();
    JobRunResult {
        completion: finished_at - start,
        finished_at,
        stages: stage_results,
        result_collection_seconds,
        driver_compute_seconds,
        startup_seconds,
        shuffle_bytes: shuffle_bytes_total,
        spill_count,
    }
}

/// A contention driver that never injects anything (a test fixture).
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoContention;

#[cfg(test)]
impl ContentionDriver for NoContention {
    fn poll(&mut self, _network: &mut Network, _now: SimTime) -> Option<SimTime> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{WorkloadKind, WorkloadRequest};
    use simnet::{gbps, mbps, TopologyBuilder};

    /// 2 sites x 3 nodes, asymmetric WAN.
    fn network() -> Network {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_site("UCSD", SimDuration::from_micros(200), gbps(10.0));
        let s1 = b.add_site("FIU", SimDuration::from_micros(200), gbps(10.0));
        b.add_node("node-1", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-2", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-3", s0, gbps(1.0), gbps(1.0));
        b.add_node("node-4", s1, gbps(1.0), gbps(1.0));
        b.add_node("node-5", s1, gbps(1.0), gbps(1.0));
        b.add_node("node-6", s1, gbps(1.0), gbps(1.0));
        b.connect_sites(s0, s1, SimDuration::from_millis(33), mbps(400.0));
        Network::new(b.build().unwrap())
    }

    fn run(
        kind: WorkloadKind,
        records: u64,
        driver: usize,
        executors: &[usize],
        net: &mut Network,
        load: impl Fn(NodeId) -> f64,
        start: SimTime,
    ) -> JobRunResult {
        let request = WorkloadRequest::new(kind, records).with_executors(executors.len() as u32);
        let dag = request.build_dag();
        let placement = Placement::new(
            NodeId(driver),
            executors.iter().map(|&i| NodeId(i)).collect(),
        );
        execute_job(
            &dag,
            &request,
            &placement,
            net,
            &load,
            &mut NoContention,
            start,
        )
    }

    #[test]
    fn job_completes_with_positive_duration_and_stage_breakdown() {
        let mut net = network();
        let result = run(
            WorkloadKind::Sort,
            200_000,
            0,
            &[1, 3],
            &mut net,
            |_| 0.2,
            SimTime::ZERO,
        );
        assert!(result.completion_seconds() > 0.0);
        assert_eq!(result.stages.len(), 2);
        assert!(
            result.stages[1].shuffle_seconds > 0.0,
            "sort reduce must shuffle"
        );
        assert!(result.stages.iter().all(|s| s.compute_seconds > 0.0));
        assert!(result.shuffle_bytes > 0.0);
        assert!(result.startup_seconds > 0.0);
        assert_eq!(result.finished_at, SimTime::ZERO + result.completion);
        assert!(result.result_collection_seconds >= 0.0);
        let total_from_parts: f64 = result
            .stages
            .iter()
            .map(|s| s.control_seconds + s.shuffle_seconds + s.compute_seconds)
            .sum::<f64>()
            + result.startup_seconds
            + result.result_collection_seconds
            + result.driver_compute_seconds;
        // The parts should approximately add up to the completion time.
        assert!((total_from_parts - result.completion_seconds()).abs() < 1.0);
    }

    #[test]
    fn bigger_inputs_take_longer() {
        let mut net1 = network();
        let small = run(
            WorkloadKind::Sort,
            100_000,
            0,
            &[1, 3],
            &mut net1,
            |_| 0.2,
            SimTime::ZERO,
        );
        let mut net2 = network();
        let large = run(
            WorkloadKind::Sort,
            1_000_000,
            0,
            &[1, 3],
            &mut net2,
            |_| 0.2,
            SimTime::ZERO,
        );
        assert!(large.completion_seconds() > small.completion_seconds());
    }

    #[test]
    fn cpu_contention_on_executor_nodes_slows_the_job() {
        let mut quiet_net = network();
        let quiet = run(
            WorkloadKind::Sort,
            500_000,
            0,
            &[1, 3],
            &mut quiet_net,
            |_| 0.1,
            SimTime::ZERO,
        );
        let mut busy_net = network();
        let busy = run(
            WorkloadKind::Sort,
            500_000,
            0,
            &[1, 3],
            &mut busy_net,
            |n| if n == NodeId(1) { 6.0 } else { 0.1 },
            SimTime::ZERO,
        );
        assert!(busy.completion_seconds() > quiet.completion_seconds());
    }

    #[test]
    fn network_contention_on_driver_path_slows_the_job() {
        // Saturate the ingress of the driver candidate on node-4 (remote site)
        // with long-lived background flows, then compare result-collection against
        // a driver on the quiet site.
        let mut contended = network();
        for _ in 0..4 {
            contended.start_flow(NodeId(1), NodeId(3), 1e12);
        }
        let slow = run(
            WorkloadKind::Join,
            800_000,
            3,
            &[1, 2],
            &mut contended,
            |_| 0.2,
            SimTime::ZERO,
        );

        let mut quiet = network();
        for _ in 0..4 {
            quiet.start_flow(NodeId(1), NodeId(3), 1e12);
        }
        let fast = run(
            WorkloadKind::Join,
            800_000,
            2,
            &[1, 2],
            &mut quiet,
            |_| 0.2,
            SimTime::ZERO,
        );
        assert!(
            slow.completion_seconds() > fast.completion_seconds(),
            "driver behind congested WAN ({}) should be slower than local driver ({})",
            slow.completion_seconds(),
            fast.completion_seconds()
        );
    }

    #[test]
    fn spill_happens_with_tiny_executor_memory() {
        let mut net = network();
        let request = WorkloadRequest::new(WorkloadKind::Join, 2_000_000)
            .with_executors(2)
            .with_executor_memory(32 * 1024 * 1024); // far too small
        let dag = request.build_dag();
        let placement = Placement::new(NodeId(0), vec![NodeId(1), NodeId(3)]);
        let spilled = execute_job(
            &dag,
            &request,
            &placement,
            &mut net,
            &|_| 0.2,
            &mut NoContention,
            SimTime::ZERO,
        );
        assert!(spilled.spill_count > 0);
        assert!(spilled.stages.iter().any(|s| s.spilled));

        let mut net2 = network();
        let roomy_request = WorkloadRequest::new(WorkloadKind::Join, 2_000_000)
            .with_executors(2)
            .with_executor_memory(8 * 1024 * 1024 * 1024);
        let roomy = execute_job(
            &roomy_request.build_dag(),
            &roomy_request,
            &Placement::new(NodeId(0), vec![NodeId(1), NodeId(3)]),
            &mut net2,
            &|_| 0.2,
            &mut NoContention,
            SimTime::ZERO,
        );
        assert!(spilled.completion_seconds() > roomy.completion_seconds());
        assert_eq!(roomy.spill_count, 0);
    }

    #[test]
    fn more_executors_speed_up_cpu_bound_work() {
        let mut net1 = network();
        let two = run(
            WorkloadKind::WordCount,
            2_000_000,
            0,
            &[1, 2],
            &mut net1,
            |_| 0.2,
            SimTime::ZERO,
        );
        let mut net2 = network();
        let four = run(
            WorkloadKind::WordCount,
            2_000_000,
            0,
            &[1, 2, 4, 5],
            &mut net2,
            |_| 0.2,
            SimTime::ZERO,
        );
        assert!(four.completion_seconds() < two.completion_seconds());
    }

    #[test]
    fn starts_later_when_submitted_later() {
        let mut net = network();
        let start = SimTime::from_secs(100);
        let result = run(
            WorkloadKind::GroupBy,
            100_000,
            0,
            &[1, 3],
            &mut net,
            |_| 0.1,
            start,
        );
        assert!(result.finished_at > start);
        assert_eq!(result.finished_at - start, result.completion);
    }

    #[test]
    fn single_node_job_without_remote_executors_still_completes() {
        let mut net = network();
        let request = WorkloadRequest::new(WorkloadKind::Sort, 50_000).with_executors(1);
        let dag = request.build_dag();
        // Driver and the single executor share node-2: no WAN traffic at all.
        let placement = Placement::new(NodeId(1), vec![NodeId(1)]);
        let result = execute_job(
            &dag,
            &request,
            &placement,
            &mut net,
            &|_| 0.1,
            &mut NoContention,
            SimTime::ZERO,
        );
        assert!(result.completion_seconds() > 0.0);
        assert_eq!(
            result.result_collection_seconds, 0.0,
            "driver-local results are free"
        );
        // Placement with no executors falls back to the driver node.
        let empty_placement = Placement::new(NodeId(1), vec![]);
        let mut net2 = network();
        let r2 = execute_job(
            &dag,
            &request,
            &empty_placement,
            &mut net2,
            &|_| 0.1,
            &mut NoContention,
            SimTime::ZERO,
        );
        assert!(r2.completion_seconds() > 0.0);
    }

    #[test]
    fn contention_driver_is_polled_and_its_flows_share_bandwidth() {
        /// Injects one huge background flow at t=1s between the shuffle endpoints.
        struct OneShot {
            injected: bool,
        }
        impl ContentionDriver for OneShot {
            fn poll(&mut self, network: &mut Network, now: SimTime) -> Option<SimTime> {
                if !self.injected && now >= SimTime::from_secs(1) {
                    network.start_flow(NodeId(1), NodeId(3), 5e9);
                    self.injected = true;
                    None
                } else if self.injected {
                    None
                } else {
                    Some(SimTime::from_secs(1))
                }
            }
        }
        let request = WorkloadRequest::new(WorkloadKind::Sort, 1_000_000).with_executors(2);
        let dag = request.build_dag();
        let placement = Placement::new(NodeId(0), vec![NodeId(1), NodeId(3)]);

        let mut quiet_net = network();
        let quiet = execute_job(
            &dag,
            &request,
            &placement,
            &mut quiet_net,
            &|_| 0.1,
            &mut NoContention,
            SimTime::ZERO,
        );
        let mut busy_net = network();
        let mut driver = OneShot { injected: false };
        let busy = execute_job(
            &dag,
            &request,
            &placement,
            &mut busy_net,
            &|_| 0.1,
            &mut driver,
            SimTime::ZERO,
        );
        assert!(driver.injected, "driver must have been polled past t=1s");
        assert!(
            busy.completion_seconds() > quiet.completion_seconds(),
            "background flow should slow the shuffle: busy {} vs quiet {}",
            busy.completion_seconds(),
            quiet.completion_seconds()
        );
    }

    #[test]
    fn deadline_caps_runaway_jobs() {
        // A host load of 1e9 makes every compute phase saturate the duration
        // type; the phase must land on the deadline, not overflow the clock.
        let mut net = network();
        let result = run(
            WorkloadKind::Sort,
            50_000_000,
            0,
            &[1, 3],
            &mut net,
            |_| 1e9,
            SimTime::ZERO,
        );
        let cap = MAX_JOB_DURATION.as_secs_f64();
        assert!(result.completion_seconds() > 0.9 * cap);
        assert!(result.completion_seconds() <= cap + 0.5);
        // The cut-off job's shuffle and result flows do not outlive it.
        assert_eq!(net.active_flow_count(), 0);
    }

    #[test]
    fn slowdown_is_monotone_in_load() {
        assert!(slowdown(0.0) <= slowdown(1.0));
        assert!(slowdown(2.0) < slowdown(6.0));
        assert_eq!(slowdown(-5.0), 1.0);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let mut net1 = network();
        let a = run(
            WorkloadKind::PageRank,
            300_000,
            2,
            &[1, 4],
            &mut net1,
            |_| 0.3,
            SimTime::ZERO,
        );
        let mut net2 = network();
        let b = run(
            WorkloadKind::PageRank,
            300_000,
            2,
            &[1, 4],
            &mut net2,
            |_| 0.3,
            SimTime::ZERO,
        );
        assert_eq!(a, b);
    }
}
