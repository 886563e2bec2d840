//! The batch experiment workflow (Section 5.2).
//!
//! For every job configuration and repeat, the workflow:
//!
//! 1. builds a fresh simulated world and places background-load pods on
//!    randomly selected nodes,
//! 2. lets the system settle for a randomized warm-up so telemetry reflects
//!    the contention,
//! 3. snapshots telemetry (the features the scheduler would see), and
//! 4. replays the *same* job once per candidate driver node from the *same*
//!    frozen state, recording the completion time of every candidate.
//!
//! Each (configuration, repeat, candidate node) triple yields one training
//! sample — the full paper matrix is 60 × 10 × 6 = 3600 samples — and every
//! (configuration, repeat) pair yields one evaluation *scenario* whose ground
//! truth is the actually fastest node.

use crate::config::{job_matrix, JobConfig};
use crate::scenarios::TestbedSpec;
use crate::world::SimWorld;
use netsched_core::features::FeatureSchema;
use netsched_core::logger::ExecutionLogger;
use netsched_core::request::JobRequest;
use simcore::parallel::parallel_map;
use simcore::rng::Rng;
use simcore::SimDuration;
use simnet::BackgroundLoadConfig;
use telemetry::ClusterSnapshot;

/// Completion time of one candidate driver node within a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeOutcome {
    /// Candidate node name.
    pub node: String,
    /// Measured completion time in seconds.
    pub completion_seconds: f64,
    /// Nodes that hosted the executors during this run.
    pub executor_nodes: Vec<String>,
    /// Number of stages that spilled.
    pub spill_count: u32,
}

/// One evaluation scenario: a frozen system state plus the completion time of
/// the job on every candidate driver node.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Dense scenario index.
    pub scenario_id: usize,
    /// The job configuration.
    pub config: JobConfig,
    /// Repeat index within the configuration.
    pub repeat: usize,
    /// Nodes hosting background-load pods during the scenario.
    pub background_hosts: Vec<String>,
    /// Telemetry snapshot taken immediately before submission.
    pub snapshot: ClusterSnapshot,
    /// Per-candidate outcomes (one entry per cluster node).
    pub outcomes: Vec<NodeOutcome>,
}

impl ScenarioRecord {
    /// The actually fastest node (ground truth for Top-1/Top-2 accuracy).
    pub fn fastest_node(&self) -> &str {
        self.outcomes
            .iter()
            .min_by(|a, b| {
                a.completion_seconds
                    .partial_cmp(&b.completion_seconds)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|o| o.node.as_str())
            .unwrap_or("")
    }

    /// Completion times aligned with `outcomes`.
    pub fn completions(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.completion_seconds).collect()
    }

    /// The submission request for this scenario.
    pub fn request(&self) -> JobRequest {
        self.config.to_request()
    }
}

/// The full experiment dataset: every scenario plus the schema used to
/// construct feature vectors from its snapshots.
#[derive(Debug, Clone)]
pub struct ExperimentDataset {
    /// All scenarios, in generation order.
    pub scenarios: Vec<ScenarioRecord>,
    /// Feature schema used for model training/evaluation.
    pub schema: FeatureSchema,
    /// The substrate every scenario ran on (used to rebuild the candidate
    /// cluster at evaluation time).
    pub testbed: TestbedSpec,
}

impl ExperimentDataset {
    /// Total number of training samples (scenarios × candidate nodes).
    pub fn sample_count(&self) -> usize {
        self.scenarios.iter().map(|s| s.outcomes.len()).sum()
    }

    /// Number of scenarios.
    pub fn scenario_count(&self) -> usize {
        self.scenarios.len()
    }

    /// Build an execution log (feature vector + label per sample) over the
    /// given scenario indices, using this dataset's schema.
    pub fn logger_for(&self, scenario_indices: &[usize]) -> ExecutionLogger {
        let mut logger = ExecutionLogger::new(self.schema.clone());
        for &idx in scenario_indices {
            let scenario = &self.scenarios[idx];
            let request = scenario.request();
            for outcome in &scenario.outcomes {
                logger.log_execution(
                    &scenario.snapshot,
                    &request,
                    &outcome.node,
                    outcome.completion_seconds,
                );
            }
        }
        logger
    }

    /// Build the execution log over every scenario.
    pub fn full_logger(&self) -> ExecutionLogger {
        self.logger_for(&(0..self.scenarios.len()).collect::<Vec<usize>>())
    }

    /// Split scenario indices into (train, test) with `test_fraction` of
    /// scenarios held out, shuffled by `rng`.
    pub fn split_scenarios(&self, test_fraction: f64, rng: &mut Rng) -> (Vec<usize>, Vec<usize>) {
        let split = mlcore::SplitIndices::train_test(self.scenarios.len(), test_fraction, rng);
        (split.train, split.test)
    }
}

/// Workflow parameters.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed; every scenario derives its own stream from it.
    pub seed: u64,
    /// Job configurations to run (default: the full 60-entry matrix).
    pub configs: Vec<JobConfig>,
    /// Repeats per configuration (paper: 10).
    pub repeats_per_config: usize,
    /// Minimum and maximum number of background pods per scenario.
    pub background_pods: (usize, usize),
    /// Background pod behaviour (10 MB curl loop by default).
    pub background: BackgroundLoadConfig,
    /// Warm-up range before the snapshot, seconds.
    pub warmup_seconds: (f64, f64),
    /// The substrate to run on (the FABRIC slice by default; any generated
    /// scenario substrate otherwise).
    pub testbed: TestbedSpec,
    /// Feature schema for downstream training.
    pub schema: FeatureSchema,
    /// Worker threads for scenario-level parallelism.
    pub workers: usize,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 2025,
            configs: job_matrix(),
            repeats_per_config: 10,
            background_pods: (1, 3),
            background: BackgroundLoadConfig::default(),
            warmup_seconds: (8.0, 20.0),
            testbed: TestbedSpec::Fabric,
            schema: FeatureSchema::standard(),
            workers: simcore::parallel::default_workers(),
        }
    }
}

impl ExperimentConfig {
    /// A scaled-down configuration for tests and quick demos:
    /// `per_workload` configs per workload and `repeats` repeats.
    pub fn quick(per_workload: usize, repeats: usize, seed: u64) -> Self {
        ExperimentConfig {
            seed,
            configs: crate::config::small_job_matrix(per_workload),
            repeats_per_config: repeats,
            ..Default::default()
        }
    }

    /// Total number of scenarios this configuration will generate.
    pub fn scenario_count(&self) -> usize {
        self.configs.len() * self.repeats_per_config
    }
}

/// Runs the batch workflow.
#[derive(Debug, Clone)]
pub struct Workflow {
    /// Workflow parameters.
    pub config: ExperimentConfig,
}

impl Workflow {
    /// Create a workflow.
    pub fn new(config: ExperimentConfig) -> Self {
        Workflow { config }
    }

    /// Run every scenario and assemble the dataset. Scenarios run in parallel
    /// (each on its own deterministic world), so the result is independent of
    /// the worker count.
    pub fn run(&self) -> ExperimentDataset {
        let scenario_specs: Vec<(usize, JobConfig, usize)> = self
            .config
            .configs
            .iter()
            .flat_map(|config| {
                (0..self.config.repeats_per_config)
                    .map(move |repeat| (config.id, config.clone(), repeat))
            })
            .enumerate()
            .map(|(scenario_id, (_cfg_id, config, repeat))| (scenario_id, config, repeat))
            .collect();

        let scenarios = parallel_map(scenario_specs.len(), self.config.workers, |i| {
            let (scenario_id, config, repeat) = &scenario_specs[i];
            self.run_scenario(*scenario_id, config, *repeat)
        });

        ExperimentDataset {
            scenarios,
            schema: self.config.schema.clone(),
            testbed: self.config.testbed.clone(),
        }
    }

    /// Run a single scenario: freeze a contended system state and measure the
    /// job's completion time for every candidate driver node.
    pub fn run_scenario(
        &self,
        scenario_id: usize,
        config: &JobConfig,
        repeat: usize,
    ) -> ScenarioRecord {
        // Independent deterministic stream per scenario.
        let scenario_seed = self
            .config
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(scenario_id as u64);
        let mut world = SimWorld::new(self.config.testbed.build(), scenario_seed);

        // Background contention: a random number of pods on random nodes.
        let (lo, hi) = self.config.background_pods;
        let pods = if hi > lo {
            lo + world.rng_mut().gen_range((hi - lo + 1) as u64) as usize
        } else {
            lo
        };
        if pods > 0 {
            world.place_background_load(pods, &self.config.background);
        }

        // Warm-up so telemetry (rates, RTT inflation) reflects the contention,
        // then advance to the job's arrival phase: a job from a bursty mix
        // observes the contention process at its actual arrival offset (early
        // burst members see barely-settled telemetry, later bursts a steady
        // state), which is what makes the bursty axis of the scenario matrix
        // measure something arrival-related.
        let (w_lo, w_hi) = self.config.warmup_seconds;
        let warmup = world
            .rng_mut()
            .uniform(w_lo.min(w_hi), w_hi.max(w_lo + 1e-9));
        let arrival = config.arrival_offset_seconds.max(0.0);
        world.advance_by(SimDuration::from_secs_f64(warmup.max(1.0) + arrival));

        let background_hosts = world.background_hosts();
        let request = config.to_request();
        let candidates = world.cluster.node_names();

        // Run the identical job once per candidate from the frozen state.
        let mut snapshot: Option<ClusterSnapshot> = None;
        let mut outcomes = Vec::with_capacity(candidates.len());
        for node in &candidates {
            let mut replay = world.clone();
            if let Some(outcome) = replay.run_job(&request, node) {
                if snapshot.is_none() {
                    snapshot = Some(outcome.pre_run_snapshot.clone());
                }
                outcomes.push(NodeOutcome {
                    node: node.clone(),
                    completion_seconds: outcome.result.completion_seconds(),
                    executor_nodes: outcome.executor_nodes,
                    spill_count: outcome.result.spill_count,
                });
            }
        }

        ScenarioRecord {
            scenario_id,
            config: config.clone(),
            repeat,
            background_hosts,
            snapshot: snapshot.unwrap_or_default(),
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_dataset() -> ExperimentDataset {
        let config = ExperimentConfig {
            workers: 2,
            ..ExperimentConfig::quick(1, 2, 7)
        };
        Workflow::new(config).run()
    }

    #[test]
    fn quick_workflow_produces_expected_counts() {
        let dataset = quick_dataset();
        // 3 configs (1 per workload) x 2 repeats = 6 scenarios x 6 nodes = 36 samples.
        assert_eq!(dataset.scenario_count(), 6);
        assert_eq!(dataset.sample_count(), 36);
        for scenario in &dataset.scenarios {
            assert_eq!(scenario.outcomes.len(), 6);
            assert!(!scenario.snapshot.is_empty());
            assert!(!scenario.background_hosts.is_empty());
            assert!(scenario.outcomes.iter().all(|o| o.completion_seconds > 0.0));
            assert!(!scenario.fastest_node().is_empty());
            assert_eq!(scenario.completions().len(), 6);
        }
    }

    #[test]
    fn scenarios_have_varying_fastest_nodes() {
        let dataset = quick_dataset();
        // Completion times differ across candidates within a scenario.
        for scenario in &dataset.scenarios {
            let completions = scenario.completions();
            let min = completions.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = completions.iter().cloned().fold(0.0, f64::max);
            assert!(
                max > min,
                "placement must matter in scenario {}",
                scenario.scenario_id
            );
        }
    }

    #[test]
    fn logger_conversion_yields_one_row_per_sample() {
        let dataset = quick_dataset();
        let logger = dataset.full_logger();
        assert_eq!(logger.len(), dataset.sample_count());
        let data = logger.to_dataset();
        assert_eq!(data.len(), dataset.sample_count());
        assert_eq!(data.n_features(), dataset.schema.len());
        // Labels are the recorded completion times.
        assert!(data.targets().iter().all(|&t| t > 0.0));
        // Partial logger selects a subset.
        let partial = dataset.logger_for(&[0, 1]);
        assert_eq!(partial.len(), 12);
    }

    #[test]
    fn split_scenarios_partitions_indices() {
        let dataset = quick_dataset();
        let mut rng = Rng::seed_from_u64(1);
        let (train, test) = dataset.split_scenarios(0.34, &mut rng);
        assert_eq!(train.len() + test.len(), dataset.scenario_count());
        assert_eq!(test.len(), 2);
    }

    #[test]
    fn workflow_is_deterministic_and_parallel_invariant() {
        let base = ExperimentConfig {
            workers: 1,
            ..ExperimentConfig::quick(1, 1, 99)
        };
        let sequential = Workflow::new(base.clone()).run();
        let parallel = Workflow::new(ExperimentConfig { workers: 4, ..base }).run();
        assert_eq!(sequential.scenarios.len(), parallel.scenarios.len());
        for (a, b) in sequential.scenarios.iter().zip(&parallel.scenarios) {
            assert_eq!(a.completions(), b.completions());
            assert_eq!(a.background_hosts, b.background_hosts);
        }
    }

    #[test]
    fn experiment_config_quick_and_counts() {
        let config = ExperimentConfig::quick(2, 3, 1);
        assert_eq!(config.configs.len(), 6);
        assert_eq!(config.scenario_count(), 18);
        let full = ExperimentConfig::default();
        assert_eq!(full.scenario_count(), 600);
    }
}
