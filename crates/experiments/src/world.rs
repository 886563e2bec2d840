//! A self-contained simulated world.
//!
//! [`SimWorld`] bundles everything one experiment run needs — the cluster, the
//! network, the metrics server, the background-load pods and the RNG — behind
//! a small API: advance time, place background load, snapshot telemetry, run a
//! job with its driver pinned to a chosen node. The whole world is `Clone`, so
//! the workflow can freeze a system state and replay the *same* job from the
//! *same* conditions once per candidate driver node, which is how the "actual
//! fastest node" ground truth for Table 4 is obtained.

use crate::fabric::FabricTestbed;
use cluster::{ClusterState, DefaultScheduler, Node, PodId, Resources};
use netsched_core::request::JobRequest;
use simcore::rng::Rng;
use simcore::{SimDuration, SimTime};
use simnet::{
    place_random_background_load, BackgroundLoadConfig, BackgroundLoadGenerator, Network, SimNodeId,
};
use sparksim::engine::{execute_job, ContentionDriver, ExecutionConfig};
use sparksim::{JobRunResult, Placement};
use telemetry::{ClusterSnapshot, ScrapeConfig, ScrapeManager, SnapshotSource};

/// A built substrate: the flow-level network plus the mini-Kubernetes view of
/// its nodes. This is what [`SimWorld`] runs on; the FABRIC slice
/// ([`FabricTestbed`]) is one way to produce it, the scenario-matrix
/// generators (`crate::scenarios::TestbedSpec`) are another.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The flow-level network.
    pub network: Network,
    /// The mini-Kubernetes cluster aligned with the network's nodes.
    pub cluster: ClusterState,
}

impl Testbed {
    /// Assemble a cluster over every node of `network`'s topology: uniform
    /// allocatable resources, the node's site as its zone label, and a
    /// distinct idle footprint per host (daemons, page cache) so no two nodes
    /// are byte-for-byte identical even when unloaded — real hosts never are,
    /// and the telemetry-blind baseline should not be able to exploit
    /// accidental symmetry.
    pub fn assemble(network: Network, cores_per_node: u64, memory_gib_per_node: u64) -> Self {
        let mut cluster = ClusterState::new();
        for node in network.topology().nodes() {
            let site = network.topology().site(node.site).name.clone();
            cluster.add_node(
                Node::new(
                    node.name.clone(),
                    node.id,
                    Resources::from_cores_and_gib(cores_per_node, memory_gib_per_node),
                    site,
                )
                .with_base_load(
                    0.08 + 0.05 * node.id.0 as f64,
                    (400.0 + 80.0 * node.id.0 as f64) * 1024.0 * 1024.0,
                ),
            );
        }
        Testbed { network, cluster }
    }
}

impl From<FabricTestbed> for Testbed {
    fn from(testbed: FabricTestbed) -> Self {
        Testbed {
            network: testbed.network,
            cluster: testbed.cluster,
        }
    }
}

/// Background-load pods plus their per-pod transfer state. Implements
/// [`ContentionDriver`] so the curl-loop keeps issuing 10 MB downloads while a
/// job executes.
///
/// Each pod behaves like the paper's `curl` loop: it downloads one file,
/// waits for the download to finish, sleeps for a short think time, then
/// starts the next one. Downloads are therefore *sequential per pod*, which
/// both matches the real pod and bounds the number of concurrent background
/// flows to the number of pods.
#[derive(Debug, Clone)]
struct BackgroundDriver {
    generators: Vec<BackgroundLoadGenerator>,
    /// Flow currently in flight for each pod (None = in think time).
    in_flight: Vec<Option<simnet::FlowId>>,
    /// Earliest time each idle pod may start its next download.
    next_start: Vec<SimTime>,
    rng: Rng,
}

impl BackgroundDriver {
    fn new(rng: Rng) -> Self {
        BackgroundDriver {
            generators: Vec::new(),
            in_flight: Vec::new(),
            next_start: Vec::new(),
            rng,
        }
    }

    fn set_generators(&mut self, generators: Vec<BackgroundLoadGenerator>, now: SimTime) {
        self.in_flight = generators.iter().map(|_| None).collect();
        self.next_start = generators.iter().map(|_| now).collect();
        self.generators = generators;
    }

    fn clear(&mut self) {
        self.generators.clear();
        self.in_flight.clear();
        self.next_start.clear();
    }

    fn is_empty(&self) -> bool {
        self.generators.is_empty()
    }
}

impl ContentionDriver for BackgroundDriver {
    fn poll(&mut self, network: &mut Network, now: SimTime) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        for (i, generator) in self.generators.iter_mut().enumerate() {
            // Has the pod's current download finished?
            if let Some(flow_id) = self.in_flight[i] {
                let still_active = network
                    .flow(flow_id)
                    .map(|f| f.is_active())
                    .unwrap_or(false);
                if still_active {
                    // Completion is tracked by the network's own event horizon.
                    continue;
                }
                self.in_flight[i] = None;
                // Think time before the next request.
                let gap = SimDuration::from_secs_f64(
                    self.rng
                        .exponential(1.0 / generator.config.mean_gap.as_secs_f64().max(1e-3))
                        .min(generator.config.mean_gap.as_secs_f64() * 10.0),
                );
                self.next_start[i] = now + gap.max(SimDuration::from_millis(5));
            }
            if self.in_flight[i].is_none() {
                if self.next_start[i] <= now {
                    let transfer = generator.next_transfer(&mut self.rng);
                    let flow = network.start_flow(
                        transfer.src,
                        transfer.dst,
                        transfer.bytes,
                        transfer.kind,
                    );
                    self.in_flight[i] = Some(flow);
                } else {
                    next = Some(match next {
                        None => self.next_start[i],
                        Some(t) => t.min(self.next_start[i]),
                    });
                }
            }
        }
        next
    }
}

/// Outcome of running one job in the world.
#[derive(Debug, Clone)]
pub struct WorldRunOutcome {
    /// The node the driver ran on.
    pub driver_node: String,
    /// Node names that hosted the executors (one entry per executor).
    pub executor_nodes: Vec<String>,
    /// The execution result (completion time, per-stage breakdown).
    pub result: JobRunResult,
    /// The telemetry snapshot taken immediately before submission.
    pub pre_run_snapshot: ClusterSnapshot,
}

/// The simulated world.
#[derive(Debug, Clone)]
pub struct SimWorld {
    /// The mini-Kubernetes cluster.
    pub cluster: ClusterState,
    /// The flow-level network.
    pub network: Network,
    /// The Prometheus-like metrics server.
    pub metrics: ScrapeManager,
    background: BackgroundDriver,
    executor_scheduler: DefaultScheduler,
    exec_config: ExecutionConfig,
    rng: Rng,
    now: SimTime,
}

impl SimWorld {
    /// Create a world from any testbed (the FABRIC slice or a generated
    /// scenario substrate) and a master seed.
    pub fn new(testbed: impl Into<Testbed>, seed: u64) -> Self {
        let testbed = testbed.into();
        let mut rng = Rng::seed_from_u64(seed);
        let background_rng = rng.split();
        // The executor scheduler keeps a seed of its own, *independent of the
        // world seed*: the default scheduler's tie-breaking behaviour is a
        // property of the control plane, not of the scenario, so executor
        // placement follows the same pattern across scenarios (as it does on a
        // long-lived real cluster) while the driver candidate under evaluation
        // still perturbs it through its own resource reservation.
        let scheduler_seed = 0x4558_4543; // "EXEC"
        let _ = rng.next_u64();
        SimWorld {
            cluster: testbed.cluster,
            network: testbed.network,
            metrics: ScrapeManager::new(ScrapeConfig {
                interval: SimDuration::from_secs(5),
                rate_window: SimDuration::from_secs(30),
                retention: Some(SimDuration::from_secs(7200)),
            }),
            background: BackgroundDriver::new(background_rng),
            executor_scheduler: DefaultScheduler::new(scheduler_seed),
            exec_config: ExecutionConfig {
                control_rtts_per_wave: 8.0,
                ..Default::default()
            },
            rng,
            now: SimTime::ZERO,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Borrow the world's RNG (for experiment-level random choices that must
    /// share the world's deterministic stream).
    pub fn rng_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Advance the world to `target`, keeping background traffic flowing and
    /// scraping telemetry on the configured interval.
    pub fn advance_to(&mut self, target: SimTime) {
        // A scrape that is already due fires before time moves.
        self.metrics
            .scrape_if_due(&self.cluster, &self.network, self.now);
        while self.now < target {
            let next_scrape = self.metrics.next_scrape_due();
            let next_bg = self.background.poll(&mut self.network, self.now);
            let mut step = target;
            if next_scrape > self.now {
                step = step.min(next_scrape);
            }
            if let Some(t) = next_bg {
                if t > self.now {
                    step = step.min(t);
                }
            }
            // Stop at background-flow completions so sequential curl loops
            // restart promptly rather than waiting for the next scrape tick.
            if let Some(t) = self.network.next_completion() {
                if t > self.now {
                    step = step.min(t);
                }
            }
            // Never stall.
            if step <= self.now {
                step = target;
            }
            self.network.advance_to(step);
            self.now = step;
            self.metrics
                .scrape_if_due(&self.cluster, &self.network, self.now);
        }
    }

    /// Advance by a duration.
    pub fn advance_by(&mut self, duration: SimDuration) {
        self.advance_to(self.now + duration);
    }

    /// Place `count` background-load pods on random nodes (Section 5.2's
    /// contention process). Replaces any previous placement.
    pub fn place_background_load(&mut self, count: usize, config: &BackgroundLoadConfig) {
        self.clear_background_load();
        let node_ids: Vec<SimNodeId> = self.cluster.nodes().iter().map(|n| n.net_id).collect();
        let generators =
            place_random_background_load(&node_ids, &node_ids, count, config, &mut self.rng);
        for generator in &generators {
            if let Some(node) = self
                .cluster
                .nodes_mut()
                .iter_mut()
                .find(|n| n.net_id == generator.host)
            {
                node.background_cpu_load += generator.cpu_load();
                node.background_memory_used += generator.memory_bytes();
            }
        }
        self.background.set_generators(generators, self.now);
    }

    /// Remove all background load (pods and their CPU/memory contribution).
    pub fn clear_background_load(&mut self) {
        for node in self.cluster.nodes_mut() {
            node.background_cpu_load = 0.0;
            node.background_memory_used = 0.0;
        }
        self.background.clear();
    }

    /// Hosts currently running a background pod.
    pub fn background_hosts(&self) -> Vec<String> {
        self.background
            .generators
            .iter()
            .filter_map(|g| {
                self.cluster
                    .nodes()
                    .iter()
                    .find(|n| n.net_id == g.host)
                    .map(|n| n.name.clone())
            })
            .collect()
    }

    /// Whether any background pod is active.
    pub fn has_background_load(&self) -> bool {
        !self.background.is_empty()
    }

    /// Take a fresh scrape right now and return the scheduler-facing snapshot.
    pub fn snapshot(&mut self) -> ClusterSnapshot {
        self.metrics.scrape(&self.cluster, &self.network, self.now);
        self.metrics
            .snapshot(self.now, self.metrics.config().rate_window)
    }

    /// Run `request` with its driver pinned to `driver_node`. Executors are
    /// placed by the default scheduler (as in the paper). Returns the
    /// completion result and the pre-run snapshot used for features.
    ///
    /// Returns `None` when the driver or an executor cannot be bound (no
    /// feasible capacity), which the workflow treats as an infeasible sample.
    pub fn run_job(&mut self, request: &JobRequest, driver_node: &str) -> Option<WorldRunOutcome> {
        let pre_run_snapshot = self.snapshot();
        let spec = request.to_job_spec();

        // Bind the driver pod to the chosen node.
        let driver_pod_spec = spec.driver_pod(Some(driver_node));
        let driver_pod = self.cluster.create_pod(driver_pod_spec, self.now);
        if self
            .cluster
            .bind_pod(driver_pod, driver_node, self.now)
            .is_err()
        {
            let _ = self.cluster.delete_pod(driver_pod, self.now);
            return None;
        }

        // Executors go wherever the default scheduler puts them.
        let mut executor_pods: Vec<(PodId, String)> = Vec::new();
        for exec_spec in spec.executor_pods() {
            let outcome = self
                .executor_scheduler
                .schedule(&exec_spec, self.cluster.nodes());
            let Some(node_name) = outcome.node().map(str::to_string) else {
                // Roll back everything we bound so far.
                self.rollback(driver_pod, &executor_pods);
                return None;
            };
            let pod = self.cluster.create_pod(exec_spec, self.now);
            if self.cluster.bind_pod(pod, &node_name, self.now).is_err() {
                let _ = self.cluster.delete_pod(pod, self.now);
                self.rollback(driver_pod, &executor_pods);
                return None;
            }
            executor_pods.push((pod, node_name));
        }

        // Competing CPU load per network node id, after binding all pods.
        let mut loads = vec![0.0; self.network.topology().node_count()];
        for node in self.cluster.nodes() {
            loads[node.net_id.0] = node.cpu_load();
        }

        let driver_net = self
            .cluster
            .node(driver_node)
            .expect("bound driver node exists")
            .net_id;
        let executor_nets: Vec<SimNodeId> = executor_pods
            .iter()
            .map(|(_, name)| self.cluster.node(name).expect("bound executor node").net_id)
            .collect();
        let placement = Placement::new(driver_net, executor_nets);
        let dag = request.workload.build_dag();

        let result = execute_job(
            &dag,
            &request.workload,
            &placement,
            &mut self.network,
            &|node: SimNodeId| loads[node.0],
            &mut self.background,
            self.now,
            &self.exec_config,
        );
        self.now = result.finished_at;

        // Tear the application down and record telemetry after completion.
        let _ = self.cluster.complete_pod(driver_pod, true, self.now);
        for (pod, _) in &executor_pods {
            let _ = self.cluster.complete_pod(*pod, true, self.now);
        }
        self.metrics.scrape(&self.cluster, &self.network, self.now);

        Some(WorldRunOutcome {
            driver_node: driver_node.to_string(),
            executor_nodes: executor_pods.into_iter().map(|(_, n)| n).collect(),
            result,
            pre_run_snapshot,
        })
    }

    fn rollback(&mut self, driver_pod: PodId, executor_pods: &[(PodId, String)]) {
        let _ = self.cluster.delete_pod(driver_pod, self.now);
        for (pod, _) in executor_pods {
            let _ = self.cluster.delete_pod(*pod, self.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::FabricTestbed;
    use sparksim::WorkloadKind;

    fn world(seed: u64) -> SimWorld {
        SimWorld::new(FabricTestbed::paper(), seed)
    }

    fn request(records: u64) -> JobRequest {
        JobRequest::named("sort-w", WorkloadKind::Sort, records, 2)
    }

    #[test]
    fn advance_scrapes_on_interval() {
        let mut w = world(1);
        w.advance_to(SimTime::from_secs(30));
        assert_eq!(w.now(), SimTime::from_secs(30));
        // 5 s interval -> scrape at 0,5,...,30.
        assert!(w.metrics.scrape_count() >= 6);
        assert!(!w.has_background_load());
    }

    #[test]
    fn background_load_creates_traffic_and_cpu_pressure() {
        let mut w = world(2);
        w.place_background_load(2, &BackgroundLoadConfig::default());
        assert!(w.has_background_load());
        assert_eq!(w.background_hosts().len(), 2);
        let loaded: Vec<f64> = w
            .cluster
            .nodes()
            .iter()
            .map(|n| n.background_cpu_load)
            .collect();
        assert_eq!(loaded.iter().filter(|&&l| l > 0.0).count(), 2);
        w.advance_by(SimDuration::from_secs(20));
        // The downloads moved bytes somewhere.
        let total_rx: f64 = (0..6)
            .map(|i| w.network.counters(SimNodeId(i)).rx_bytes)
            .sum();
        assert!(total_rx > 10_000_000.0, "rx {total_rx}");
        // Snapshot reflects nonzero rates for at least one node.
        let snap = w.snapshot();
        assert!(snap.iter_nodes().any(|(_, t)| t.rx_rate > 0.0));
        w.clear_background_load();
        assert!(!w.has_background_load());
        assert!(w
            .cluster
            .nodes()
            .iter()
            .all(|n| n.background_cpu_load == 0.0));
    }

    #[test]
    fn run_job_returns_outcome_and_cleans_up() {
        let mut w = world(3);
        w.advance_by(SimDuration::from_secs(5));
        let outcome = w.run_job(&request(100_000), "node-1").expect("feasible");
        assert_eq!(outcome.driver_node, "node-1");
        assert_eq!(outcome.executor_nodes.len(), 2);
        assert!(outcome.result.completion_seconds() > 0.0);
        assert!(!outcome.pre_run_snapshot.is_empty());
        // All pods released.
        for node in w.cluster.nodes() {
            assert_eq!(node.pod_count(), 0, "{}", node.name);
        }
        assert!(w.now() > SimTime::from_secs(5));
    }

    #[test]
    fn infeasible_driver_returns_none_and_rolls_back() {
        let mut w = world(4);
        let huge = JobRequest::named("huge", WorkloadKind::Sort, 1000, 1)
            .with_driver_resources(64_000, 64 * 1024 * 1024 * 1024);
        assert!(w.run_job(&huge, "node-1").is_none());
        for node in w.cluster.nodes() {
            assert_eq!(node.pod_count(), 0);
        }
    }

    #[test]
    fn cloned_worlds_replay_identically() {
        let mut base = world(5);
        base.place_background_load(2, &BackgroundLoadConfig::default());
        base.advance_by(SimDuration::from_secs(10));
        let mut a = base.clone();
        let mut b = base.clone();
        let ra = a.run_job(&request(150_000), "node-2").unwrap();
        let rb = b.run_job(&request(150_000), "node-2").unwrap();
        assert_eq!(
            ra.result.completion_seconds(),
            rb.result.completion_seconds()
        );
        assert_eq!(ra.executor_nodes, rb.executor_nodes);
    }

    #[test]
    fn driver_placement_changes_completion_time() {
        let mut base = world(6);
        base.place_background_load(2, &BackgroundLoadConfig::default());
        base.advance_by(SimDuration::from_secs(10));
        let completions: Vec<f64> = ["node-1", "node-3", "node-5"]
            .iter()
            .map(|node| {
                let mut w = base.clone();
                w.run_job(&request(200_000), node)
                    .unwrap()
                    .result
                    .completion_seconds()
            })
            .collect();
        let min = completions.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = completions.iter().cloned().fold(0.0, f64::max);
        assert!(
            max > min * 1.02,
            "placement should matter: completions {completions:?}"
        );
    }

    #[test]
    fn background_traffic_continues_during_job_execution() {
        let mut w = world(7);
        w.place_background_load(3, &BackgroundLoadConfig::default());
        w.advance_by(SimDuration::from_secs(5));
        let before: f64 = (0..6)
            .map(|i| w.network.counters(SimNodeId(i)).rx_bytes)
            .sum();
        let outcome = w.run_job(&request(300_000), "node-4").unwrap();
        let after: f64 = (0..6)
            .map(|i| w.network.counters(SimNodeId(i)).rx_bytes)
            .sum();
        // Background downloads plus shuffle moved far more than the shuffle alone.
        assert!(after - before > outcome.result.shuffle_bytes);
    }
}
