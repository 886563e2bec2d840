//! The scenario matrix: parameterized substrates × workload mixes ×
//! background-load levels × seeds, swept in parallel.
//!
//! The paper's evaluation lives on a single 6-node FABRIC slice. This module
//! turns that one world into a point in a matrix: a [`TestbedSpec`] names a
//! substrate declaratively (the FABRIC slice, fixed at the paper's numbers, is
//! one named spec; the `simnet` topology generators provide star-LAN,
//! leaf–spine and WAN meshes), a `sparksim` [`WorkloadMixSpec`] names a
//! workload family, a [`LoadLevel`] names a background-contention regime, and
//! a seed pins the randomness. [`run_sweep`] fans the full cross-product over threads via
//! `simcore::parallel`, re-runs the Table-3/Table-4 pipeline in every cell
//! (dataset generation → model training → Top-1/Top-2 accuracy → speedup vs.
//! the Kubernetes default scheduler) and emits one machine-readable
//! [`SweepReport`].
//!
//! **Determinism.** Every cell derives all of its randomness from its own
//! spec, so the sweep is reproducible run-to-run and invariant to the worker
//! count: parallel and sequential sweeps produce byte-identical JSON.
//!
//! **Paper shape.** Across cells the supervised models are expected to beat
//! the telemetry-blind default scheduler on Top-1 accuracy in a majority of
//! cells; [`SweepReport::majorities`] records those counts and
//! [`SweepReport::paper_shape_holds`] checks the majority. Each cell also
//! reports per-method completion-time speedup over the default's picks
//! (supporting evidence, not part of the majority check).

use crate::evaluation::{evaluate_cell, MethodSpeedup, SchedulerAccuracy};
use crate::fabric::{NODES_PER_SITE, SITE_NAMES};
use crate::workflow::{ExperimentConfig, Workflow};
use crate::world::Testbed;
use mlcore::{GradientBoostingConfig, ModelConfig, RandomForestConfig};
use serde::{Serialize, Value};
use simcore::parallel_map;
use simnet::{
    BackgroundLoadConfig, LeafSpineSpec, Network, StarLanSpec, TopologySpec, WanMeshSpec,
};
use sparksim::{MixKind, WorkloadMixSpec};

/// Declarative description of a substrate. The FABRIC slice of Figure 4 is
/// one named spec; every other member comes from the `simnet` topology
/// generators. Every node has the paper's shape (6 CPUs, 8 GiB).
#[derive(Debug, Clone, PartialEq)]
pub enum TestbedSpec {
    /// The paper's FABRIC slice (UCSD/FIU/SRI).
    Fabric,
    /// A generated topology.
    Generated {
        /// The topology family member to build.
        topology: TopologySpec,
        /// Seed for the topology generator's randomness.
        topology_seed: u64,
    },
}

impl TestbedSpec {
    /// A generated substrate.
    pub(crate) fn generated(topology: TopologySpec, topology_seed: u64) -> Self {
        TestbedSpec::Generated {
            topology,
            topology_seed,
        }
    }

    /// Short name used in cell keys, e.g. `fabric-3x2` or `wan-mesh-4x2-s2`.
    /// Generated names carry the topology seed so two substrates drawn from
    /// the same randomized family remain distinguishable in reports.
    pub(crate) fn name(&self) -> String {
        match self {
            TestbedSpec::Fabric => format!("fabric-{}x{NODES_PER_SITE}", SITE_NAMES.len()),
            TestbedSpec::Generated {
                topology,
                topology_seed,
            } => format!("{}-s{}", topology.name(), topology_seed),
        }
    }

    /// Number of candidate nodes the built testbed will hold.
    pub(crate) fn node_count(&self) -> usize {
        match self {
            TestbedSpec::Fabric => NODES_PER_SITE * SITE_NAMES.len(),
            TestbedSpec::Generated { topology, .. } => topology.node_count(),
        }
    }

    /// Build the substrate.
    #[expect(
        clippy::expect_used,
        reason = "generated topologies are connected by construction"
    )]
    pub fn build(&self) -> Testbed {
        match self {
            TestbedSpec::Fabric => Testbed::paper(),
            TestbedSpec::Generated {
                topology,
                topology_seed,
            } => {
                let topo = topology
                    .build(*topology_seed)
                    .expect("generated topologies are connected by construction");
                Testbed::assemble(Network::new(topo))
            }
        }
    }
}

/// A named background-contention regime: how many curl-loop pods run and how
/// aggressively they download.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadLevel {
    /// Regime name (`moderate`, `heavy`).
    pub name: String,
    /// Minimum and maximum number of background pods per scenario.
    pub pods: (usize, usize),
    /// Background pod behaviour.
    pub background: BackgroundLoadConfig,
}

impl LoadLevel {
    /// The paper's Section 5.2 regime: 1–3 pods on the default curl loop.
    pub(crate) fn moderate() -> Self {
        LoadLevel {
            name: "moderate".into(),
            pods: (1, 3),
            background: BackgroundLoadConfig::default(),
        }
    }

    /// 3–5 eager pods fetching larger files: sustained contention.
    pub(crate) fn heavy() -> Self {
        LoadLevel {
            name: "heavy".into(),
            pods: (3, 5),
            background: BackgroundLoadConfig {
                transfer_bytes: simnet::megabytes(15.0),
                mean_gap: simcore::SimDuration::from_millis(100),
                cpu_load: 2.5,
            },
        }
    }
}

/// One cell of the scenario matrix: a substrate, a workload mix, a load
/// regime and a seed, plus how many repeats each generated job gets.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The substrate.
    pub testbed: TestbedSpec,
    /// The workload mix.
    pub mix: WorkloadMixSpec,
    /// The background-load regime.
    pub load: LoadLevel,
    /// Master seed of the cell (drives job generation, placement, warm-up).
    pub seed: u64,
    /// Repeats per generated job configuration.
    pub repeats: usize,
}

impl ScenarioSpec {
    /// Expand the cell into a concrete batch-workflow configuration: the mix
    /// generates the job list, the load level sets the contention process and
    /// the testbed replaces the FABRIC-only construction.
    pub(crate) fn to_experiment_config(&self) -> ExperimentConfig {
        let configs = self
            .mix
            .generate(self.seed)
            .iter()
            .map(|job| crate::config::JobConfig {
                id: job.index,
                kind: job.kind,
                input_records: job.input_records,
                executor_count: job.executor_count,
                executor_memory_bytes: job.executor_memory_bytes,
                shuffle_partitions: job.shuffle_partitions,
                arrival_offset_seconds: job.arrival_offset.as_secs_f64(),
            })
            .collect();
        ExperimentConfig {
            seed: self.seed,
            configs,
            repeats_per_config: self.repeats.max(1),
            background_pods: self.load.pods,
            background: self.load.background.clone(),
            warmup_seconds: self.mix.warmup_seconds(),
            testbed: self.testbed.clone(),
            // Cells are the unit of sweep parallelism; inside a cell the
            // workflow runs sequentially so a sweep never oversubscribes.
            workers: 1,
        }
    }
}

/// The full matrix: the cross-product of substrates, mixes, load regimes and
/// seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioMatrix {
    /// Substrates to sweep.
    pub testbeds: Vec<TestbedSpec>,
    /// Workload mixes to sweep.
    pub mixes: Vec<WorkloadMixSpec>,
    /// Background-load regimes to sweep.
    pub loads: Vec<LoadLevel>,
    /// Seeds to sweep (each seed is an independent replication).
    pub seeds: Vec<u64>,
    /// Repeats per generated job configuration within each cell.
    pub repeats: usize,
}

impl ScenarioMatrix {
    /// Number of cells in the cross-product.
    pub fn cell_count(&self) -> usize {
        self.testbeds.len() * self.mixes.len() * self.loads.len() * self.seeds.len()
    }

    /// Expand the cross-product in deterministic order
    /// (testbed → mix → load → seed).
    pub(crate) fn cells(&self) -> Vec<ScenarioSpec> {
        let mut cells = Vec::with_capacity(self.cell_count());
        for testbed in &self.testbeds {
            for mix in &self.mixes {
                for load in &self.loads {
                    for &seed in &self.seeds {
                        cells.push(ScenarioSpec {
                            testbed: testbed.clone(),
                            mix: mix.clone(),
                            load: load.clone(),
                            seed,
                            repeats: self.repeats,
                        });
                    }
                }
            }
        }
        cells
    }

    /// The default 24-cell evaluation matrix: 3 substrates (the FABRIC slice,
    /// a leaf–spine fabric, a WAN mesh) × 2 mixes × 2 load regimes × 2 seeds.
    pub fn paper_default() -> Self {
        ScenarioMatrix {
            testbeds: vec![
                TestbedSpec::Fabric,
                TestbedSpec::generated(TopologySpec::LeafSpine(LeafSpineSpec::default()), 1),
                TestbedSpec::generated(TopologySpec::WanMesh(WanMeshSpec::default()), 2),
            ],
            mixes: vec![
                WorkloadMixSpec::new(MixKind::ShuffleHeavy, 5),
                WorkloadMixSpec::new(MixKind::MixedDagSizes, 5),
            ],
            loads: vec![LoadLevel::moderate(), LoadLevel::heavy()],
            seeds: vec![11, 12],
            repeats: 4,
        }
    }

    /// A small smoke matrix (8 cells) for CI and the integration tests:
    /// 2 substrates × 2 mixes × 1 load × 2 seeds with tiny mixes.
    pub fn smoke() -> Self {
        ScenarioMatrix {
            testbeds: vec![
                TestbedSpec::Fabric,
                TestbedSpec::generated(
                    TopologySpec::StarLan(StarLanSpec {
                        nodes: 5,
                        ..Default::default()
                    }),
                    3,
                ),
            ],
            mixes: vec![
                WorkloadMixSpec::new(MixKind::ShuffleHeavy, 3),
                WorkloadMixSpec::new(MixKind::BurstyArrivals, 3),
            ],
            loads: vec![LoadLevel::moderate()],
            seeds: vec![5, 6],
            repeats: 2,
        }
    }
}

/// Fraction of each cell's scenarios held out for evaluation.
const TEST_FRACTION: f64 = 0.3;

/// Evaluation seed (train/test split + default-scheduler tie-breaking);
/// combined with each cell's seed so cells stay independent.
const EVAL_SEED: u64 = 7;

/// Sweep-wide knobs: worker threads and model sizes.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads the sweep fans cells across.
    pub workers: usize,
    /// Model configuration used in every cell.
    pub model: ModelConfig,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            workers: simcore::default_workers(),
            // Lighter than the paper-scale Table 4 models: every cell trains
            // its own three models, so the sweep trades tree count for cells.
            model: ModelConfig {
                forest: RandomForestConfig {
                    n_trees: 80,
                    workers: 1,
                    ..Default::default()
                },
                gbdt: GradientBoostingConfig {
                    n_rounds: 120,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }
}

impl SweepOptions {
    /// A tiny configuration for tests: small models, sequential by default.
    pub fn quick() -> Self {
        SweepOptions {
            workers: 1,
            model: ModelConfig {
                forest: RandomForestConfig {
                    n_trees: 25,
                    workers: 1,
                    ..Default::default()
                },
                gbdt: GradientBoostingConfig {
                    n_rounds: 60,
                    ..Default::default()
                },
                ..Default::default()
            },
        }
    }
}

/// Identity of one swept cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellKey {
    /// Substrate name.
    pub topology: String,
    /// Workload-mix name.
    pub mix: String,
    /// Load-regime name.
    pub load: String,
    /// Replication seed.
    pub seed: u64,
}

/// Everything measured in one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Which cell this is.
    pub cell: CellKey,
    /// Candidate nodes in the cell's substrate.
    pub node_count: usize,
    /// Scenarios generated (jobs × repeats).
    pub scenario_count: usize,
    /// Training samples (scenarios × candidate nodes).
    pub sample_count: usize,
    /// Scenarios used for training.
    pub train_scenarios: usize,
    /// Scenarios held out for evaluation.
    pub test_scenarios: usize,
    /// Top-1/Top-2 accuracy per method (the per-cell Table 4).
    pub accuracy: Vec<SchedulerAccuracy>,
    /// Completion-time speedup of each method over the Kubernetes default.
    pub speedups: Vec<MethodSpeedup>,
}

impl CellReport {
    /// Accuracy row of one method.
    pub fn accuracy_of(&self, method: &str) -> Option<&SchedulerAccuracy> {
        self.accuracy.iter().find(|r| r.method == method)
    }

    /// Does `method` strictly beat the Kubernetes default on Top-1 here?
    pub fn beats_default_top1(&self, method: &str) -> bool {
        match (
            self.accuracy_of(method),
            self.accuracy_of(crate::evaluation::KUBE_DEFAULT_METHOD),
        ) {
            (Some(m), Some(d)) => m.top1 > d.top1,
            _ => false,
        }
    }
}

/// How often one method beat the default scheduler across the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodMajority {
    /// Method name.
    pub method: String,
    /// Cells where the method's Top-1 strictly beat the default's.
    pub cells_beating_default_top1: usize,
    /// Total cells.
    pub cells: usize,
}

impl MethodMajority {
    /// True when the method wins in a strict majority of cells.
    pub(crate) fn is_majority(&self) -> bool {
        self.cells_beating_default_top1 * 2 > self.cells
    }
}

/// The machine-readable sweep result.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// One report per cell, in matrix order.
    pub cells: Vec<CellReport>,
    /// Per-supervised-method majority counts (the paper-shape check).
    pub majorities: Vec<MethodMajority>,
}

/// Implements [`Serialize`] for a struct as a map of its fields, listed in
/// declaration order. The destructuring makes a field missing from the list a
/// compile error.
macro_rules! serialize_fields {
    ($ty:ident { $($field:ident),* }) => {
        impl Serialize for $ty {
            fn serialize_value(&self) -> Value {
                let $ty { $($field),* } = self;
                Value::Map(vec![$(
                    (Value::Str(stringify!($field).to_string()), $field.serialize_value())
                ),*])
            }
        }
    };
}

// The sweep report and everything it holds: the only types the workspace
// serializes (`results/scenario_sweep.json`).
serialize_fields!(SweepReport { cells, majorities });
serialize_fields!(CellReport {
    cell,
    node_count,
    scenario_count,
    sample_count,
    train_scenarios,
    test_scenarios,
    accuracy,
    speedups
});
serialize_fields!(CellKey {
    topology,
    mix,
    load,
    seed
});
serialize_fields!(MethodMajority {
    method,
    cells_beating_default_top1,
    cells
});
serialize_fields!(SchedulerAccuracy {
    method,
    top1,
    top2,
    evaluated
});
serialize_fields!(MethodSpeedup {
    method,
    geomean_speedup,
    mean_speedup,
    evaluated
});

impl SweepReport {
    /// Assemble a report and its majority summary from per-cell results.
    pub(crate) fn new(cells: Vec<CellReport>) -> Self {
        let mut methods: Vec<String> = Vec::new();
        for cell in &cells {
            for row in &cell.accuracy {
                if row.method != crate::evaluation::KUBE_DEFAULT_METHOD
                    && !methods.contains(&row.method)
                {
                    methods.push(row.method.clone());
                }
            }
        }
        let majorities = methods
            .into_iter()
            .map(|method| MethodMajority {
                cells_beating_default_top1: cells
                    .iter()
                    .filter(|c| c.beats_default_top1(&method))
                    .count(),
                cells: cells.len(),
                method,
            })
            .collect();
        SweepReport { cells, majorities }
    }

    /// True when *every* supervised method beats the default scheduler's
    /// Top-1 in a strict majority of cells — the sweep's paper-shape
    /// expectation.
    pub fn paper_shape_holds(&self) -> bool {
        !self.majorities.is_empty() && self.majorities.iter().all(MethodMajority::is_majority)
    }

    /// Serialize to JSON (the `results/scenario_sweep.json` artifact).
    #[expect(
        clippy::expect_used,
        reason = "rendering a value tree to JSON text cannot fail"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("sweep report serialization cannot fail")
    }

    /// Render a markdown summary: one row per cell plus the majority lines.
    pub fn to_markdown(&self) -> String {
        let mut out = String::from(
            "| Cell | Nodes | Scenarios | Default Top-1 | Best supervised (Top-1) | RF speedup (geomean) |\n|---|---|---|---|---|---|\n",
        );
        for cell in &self.cells {
            let default_top1 = cell
                .accuracy_of(crate::evaluation::KUBE_DEFAULT_METHOD)
                .map(|r| r.top1)
                .unwrap_or(0.0);
            let best = cell
                .accuracy
                .iter()
                .filter(|r| r.method != crate::evaluation::KUBE_DEFAULT_METHOD)
                .max_by(|a, b| {
                    a.top1
                        .partial_cmp(&b.top1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let rf_method = mlcore::ModelKind::RandomForest.display_name();
            let rf_speedup = cell
                .speedups
                .iter()
                .find(|s| s.method == rf_method)
                .map(|s| s.geomean_speedup)
                .unwrap_or(1.0);
            out.push_str(&format!(
                "| {}/{}/{}/seed-{} | {} | {} | {:.3} | {} ({:.3}) | {:.2}x |\n",
                cell.cell.topology,
                cell.cell.mix,
                cell.cell.load,
                cell.cell.seed,
                cell.node_count,
                cell.scenario_count,
                default_top1,
                best.map(|r| r.method.as_str()).unwrap_or("-"),
                best.map(|r| r.top1).unwrap_or(0.0),
                rf_speedup,
            ));
        }
        out.push('\n');
        for majority in &self.majorities {
            out.push_str(&format!(
                "- {} beats the Kubernetes default on Top-1 in {}/{} cells{}\n",
                majority.method,
                majority.cells_beating_default_top1,
                majority.cells,
                if majority.is_majority() {
                    " (majority ✓)"
                } else {
                    ""
                }
            ));
        }
        out
    }
}

/// Run one cell: generate its dataset with the batch workflow, then run the
/// Table-4 pipeline (train models, rank, score accuracy and speedup).
pub(crate) fn run_cell(spec: &ScenarioSpec, options: &SweepOptions) -> CellReport {
    let dataset = Workflow::new(spec.to_experiment_config()).run();
    let evaluation = evaluate_cell(
        &dataset,
        TEST_FRACTION,
        &options.model,
        EVAL_SEED ^ spec.seed.rotate_left(17),
    );
    CellReport {
        cell: CellKey {
            topology: spec.testbed.name(),
            mix: spec.mix.name(),
            load: spec.load.name.clone(),
            seed: spec.seed,
        },
        node_count: spec.testbed.node_count(),
        scenario_count: dataset.scenario_count(),
        sample_count: dataset.sample_count(),
        train_scenarios: evaluation.table4.train_scenarios,
        test_scenarios: evaluation.table4.test_scenarios,
        accuracy: evaluation.table4.rows,
        speedups: evaluation.speedups,
    }
}

/// Fan the matrix across `options.workers` threads. Each cell is fully
/// self-contained and deterministic, and `parallel_map` writes results back
/// in index order, so the result is identical to a sequential sweep.
pub fn run_sweep(matrix: &ScenarioMatrix, options: &SweepOptions) -> SweepReport {
    let cells = matrix.cells();
    let reports = parallel_map(cells.len(), options.workers, |i| {
        run_cell(&cells[i], options)
    });
    SweepReport::new(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_cross_product_order_and_count() {
        let matrix = ScenarioMatrix::paper_default();
        assert!(matrix.cell_count() >= 24);
        assert!(matrix.testbeds.len() >= 3);
        assert!(matrix.mixes.len() >= 2);
        assert!(matrix.loads.len() >= 2);
        assert_eq!(matrix.seeds.len(), 2);
        let cells = matrix.cells();
        assert_eq!(cells.len(), matrix.cell_count());
        // Seed varies fastest, testbed slowest.
        assert_eq!(cells[0].seed, matrix.seeds[0]);
        assert_eq!(cells[1].seed, matrix.seeds[1]);
        assert_eq!(cells[0].testbed, cells[1].testbed);
        let names: std::collections::BTreeSet<_> = cells
            .iter()
            .map(|c| (c.testbed.name(), c.mix.name(), &c.load.name, c.seed))
            .collect();
        assert_eq!(names.len(), cells.len(), "cell names must be unique");
        let smoke = ScenarioMatrix::smoke();
        assert!(smoke.cell_count() <= 8);
    }

    #[test]
    fn testbed_specs_build_aligned_clusters() {
        for spec in [
            TestbedSpec::Fabric,
            TestbedSpec::generated(TopologySpec::LeafSpine(LeafSpineSpec::default()), 1),
            TestbedSpec::generated(TopologySpec::WanMesh(WanMeshSpec::default()), 2),
        ] {
            let testbed = spec.build();
            assert_eq!(
                testbed.cluster.nodes().len(),
                spec.node_count(),
                "{}",
                spec.name()
            );
            assert_eq!(
                testbed.network.topology().node_count(),
                spec.node_count(),
                "{}",
                spec.name()
            );
            for node in testbed.cluster.nodes() {
                let net = testbed.network.topology().node(node.net_id);
                assert_eq!(net.name, node.name);
            }
        }
    }

    #[test]
    fn scenario_spec_expands_to_workflow_config() {
        let spec = ScenarioSpec {
            testbed: TestbedSpec::generated(TopologySpec::StarLan(StarLanSpec::default()), 9),
            mix: WorkloadMixSpec::new(MixKind::ShuffleHeavy, 4),
            load: LoadLevel::heavy(),
            seed: 77,
            repeats: 3,
        };
        let config = spec.to_experiment_config();
        assert_eq!(config.configs.len(), 4);
        assert_eq!(config.repeats_per_config, 3);
        assert_eq!(config.scenario_count(), 12);
        assert_eq!(config.background_pods, (3, 5));
        assert_eq!(config.seed, 77);
        assert_eq!(config.workers, 1);
    }

    #[test]
    fn single_cell_runs_end_to_end() {
        let spec = ScenarioSpec {
            testbed: TestbedSpec::Fabric,
            mix: WorkloadMixSpec::new(MixKind::ShuffleHeavy, 3),
            load: LoadLevel::moderate(),
            seed: 21,
            repeats: 2,
        };
        let report = run_cell(&spec, &SweepOptions::quick());
        assert_eq!(report.node_count, 6);
        assert_eq!(report.scenario_count, 6);
        assert_eq!(report.sample_count, 36);
        assert_eq!(report.accuracy.len(), 4);
        assert_eq!(report.speedups.len(), 4);
        // Default's self-speedup is exactly 1.
        let default_speedup = report
            .speedups
            .iter()
            .find(|s| s.method == crate::evaluation::KUBE_DEFAULT_METHOD)
            .unwrap();
        assert!((default_speedup.geomean_speedup - 1.0).abs() < 1e-12);
        assert!(report.train_scenarios + report.test_scenarios == 6);
    }

    #[test]
    fn report_json_and_markdown() {
        let report = SweepReport::new(vec![]);
        assert!(!report.paper_shape_holds(), "empty sweep proves nothing");
        assert_eq!(report.to_json(), r#"{"cells":[],"majorities":[]}"#);
        let md = report.to_markdown();
        assert!(md.contains("| Cell |"));
    }
}
