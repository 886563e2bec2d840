//! Ranker parity and determinism guards.
//!
//! These tests pin the contracts the hot-path refactor relies on, for the
//! two rankers Table 4 compares — the supervised rank
//! (`SchedulingContext::rank_feasible_batch`) and the Kubernetes default
//! baseline (`KubeDefaultScheduler::rank`):
//!
//! * both rank over the *identical* feasible candidate set (the default
//!   scheduler's filter), so Table-4-style comparisons are apples-to-apples;
//! * a fixed seed yields byte-identical rankings across two independent
//!   runs (determinism guard — each node id and predicted time compared as
//!   raw bits).

use netsched::cluster::{ClusterState, NodeId};
use netsched::core::{
    CompletionTimePredictor, FeatureSchema, JobRequest, KubeDefaultScheduler, NodeRanking,
    SchedulingContext,
};
use netsched::experiments::{FabricTestbed, SimWorld};
use netsched::mlcore::{Dataset, ModelConfig, ModelKind, TrainedModel};
use netsched::simcore::{Rng, SimDuration};
use netsched::simnet::BackgroundLoadConfig;
use netsched::sparksim::WorkloadKind;
use netsched::telemetry::ClusterSnapshot;

/// A contended world frozen after warm-up: telemetry differs across nodes.
fn frozen_world() -> (ClusterState, ClusterSnapshot) {
    let mut world = SimWorld::new(FabricTestbed::paper(), 20250727);
    world.place_background_load(2, &BackgroundLoadConfig::default());
    world.advance_by(SimDuration::from_secs(12));
    let snapshot = world.snapshot();
    (world.cluster, snapshot)
}

/// Full-scan reference: names of every node that can host the request's
/// driver pod, via the real scheduler filter (the oracle the indexed
/// [`SchedulingContext::feasible_candidates`] path must agree with).
fn feasible_names(request: &JobRequest, cluster: &ClusterState) -> Vec<String> {
    use netsched::cluster::{DefaultScheduler, FilterResult};
    let driver = request.to_job_spec().driver_pod(None);
    cluster
        .nodes()
        .iter()
        .filter(|node| DefaultScheduler::filter(&driver, node) == FilterResult::Feasible)
        .map(|node| node.name.clone())
        .collect()
}

/// A small predictor trained on synthetic load-sensitive data.
#[expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test fixture: every row and the model are built with the schema's own width"
)]
fn predictor(snapshot: &ClusterSnapshot) -> CompletionTimePredictor {
    let schema = FeatureSchema::standard();
    let mut data = Dataset::new(schema.len());
    let mut rng = Rng::seed_from_u64(9);
    let job = JobRequest::named("train", WorkloadKind::Sort, 100_000, 2);
    for (i, name) in snapshot.node_names().iter().enumerate() {
        for rep in 0..8 {
            let features = schema.construct(snapshot, name, &job);
            let load = snapshot.node(name).map(|t| t.cpu_load).unwrap_or(0.0);
            data.push(features, 20.0 + 5.0 * load + (i + rep) as f64 * 0.1)
                .unwrap();
        }
    }
    let model = TrainedModel::train(ModelKind::Linear, &ModelConfig::default(), &data, &mut rng);
    CompletionTimePredictor::new(schema, model).expect("schema matches training data")
}

/// Both rankers' rankings of `batch`, in order: the supervised rank through
/// one context, then a fresh `seed`ed Kubernetes default baseline.
fn rankings(
    snapshot: &ClusterSnapshot,
    cluster: &ClusterState,
    batch: &[JobRequest],
    seed: u64,
) -> Vec<(&'static str, NodeRanking)> {
    let predictor = predictor(snapshot);
    let mut ctx = SchedulingContext::new(snapshot, cluster);
    let mut kube = KubeDefaultScheduler::new(seed);
    let mut out: Vec<_> = batch
        .iter()
        .map(|request| ("supervised", ctx.rank_feasible_batch(request, &predictor)))
        .collect();
    out.extend(
        batch
            .iter()
            .map(|request| ("kubernetes-default", kube.rank(request, cluster))),
    );
    out
}

fn requests(n: usize) -> Vec<JobRequest> {
    (0..n)
        .map(|i| {
            JobRequest::named(
                format!("job-{i}"),
                WorkloadKind::PAPER_SET[i % 3],
                80_000 + i as u64 * 15_000,
                2,
            )
        })
        .collect()
}

#[test]
fn all_policies_rank_over_the_identical_feasible_set() {
    let (cluster, snapshot) = frozen_world();
    let request = requests(1).remove(0);

    // The shared candidate contract, by name and by id.
    let expected_names = feasible_names(&request, &cluster);
    assert_eq!(expected_names.len(), 6, "paper testbed: all six nodes fit");
    let mut ctx = SchedulingContext::new(&snapshot, &cluster);
    let expected_ids: Vec<NodeId> = ctx.feasible_candidates(&request).to_vec();
    let expected_set: std::collections::BTreeSet<NodeId> = expected_ids.iter().copied().collect();
    assert_eq!(
        expected_names,
        expected_ids
            .iter()
            .map(|&id| cluster.node_name(id).to_string())
            .collect::<Vec<_>>()
    );

    for (name, ranking) in rankings(&snapshot, &cluster, std::slice::from_ref(&request), 77) {
        let ranked_set: std::collections::BTreeSet<NodeId> =
            ranking.ranked.iter().map(|r| r.node).collect();
        assert_eq!(
            ranked_set, expected_set,
            "{name} must rank exactly the feasible candidates"
        );
        assert_eq!(ranking.len(), expected_ids.len(), "{name}");
    }
}

#[test]
fn fixed_seed_yields_byte_identical_rankings_across_runs() {
    let (cluster, snapshot) = frozen_world();
    let batch = requests(6);

    let run = || -> Vec<u8> {
        let mut bytes = Vec::new();
        for (_, ranking) in rankings(&snapshot, &cluster, &batch, 4242) {
            bytes.extend_from_slice(&(ranking.len() as u64).to_le_bytes());
            for r in &ranking.ranked {
                bytes.extend_from_slice(&r.node.0.to_le_bytes());
                bytes.extend_from_slice(&r.predicted_seconds.to_bits().to_le_bytes());
            }
        }
        bytes
    };

    assert_eq!(run(), run(), "same seeds, same inputs, same bytes");
}
