//! Workspace-level integration test: the full paper pipeline in miniature.
//!
//! Generates a small dataset with the Section 5.2 workflow, trains the three
//! supervised models, evaluates Table-4 style Top-1/Top-2 accuracy and checks
//! the qualitative claims of the paper hold end-to-end:
//!
//! * every supervised model beats the telemetry-blind default scheduler,
//! * the scheduler service can be bootstrapped, retrained and used online,
//! * decisions produce valid Kubernetes-style manifests pinned to the chosen node.

use netsched::core::{
    CompletionTimePredictor, FeatureSchema, JobRequest, SchedulerConfig, SchedulerService,
};
use netsched::experiments::{
    evaluate_table4, supervised_ranking, ExperimentConfig, FabricTestbed, SimWorld, Workflow,
};
use netsched::mlcore::{
    FeatureMatrix, GradientBoostingConfig, ModelConfig, ModelKind, RandomForestConfig, TrainedModel,
};
use netsched::simcore::{Rng, SimDuration};
use netsched::simnet::BackgroundLoadConfig;
use netsched::sparksim::WorkloadKind;
use netsched::telemetry::SnapshotPublisher;

fn fast_models() -> ModelConfig {
    ModelConfig {
        forest: RandomForestConfig {
            n_trees: 40,
            workers: 2,
            ..Default::default()
        },
        gbdt: GradientBoostingConfig {
            n_rounds: 100,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn table4_shape_reproduces_on_a_small_dataset() {
    // 3 configs/workload x 4 repeats = 36 scenarios (216 samples).
    let config = ExperimentConfig {
        workers: simcore::default_workers(),
        ..ExperimentConfig::quick(3, 4, 424242)
    };
    let dataset = Workflow::new(config).run();
    assert_eq!(dataset.sample_count(), dataset.scenario_count() * 6);

    let report = evaluate_table4(&dataset, 0.3, &fast_models(), 99);
    let default = report.row("Kubernetes Default").expect("baseline row");
    let forest = report.row("Random Forest").expect("forest row");
    let best_supervised_top1 = report
        .rows
        .iter()
        .filter(|r| r.method != "Kubernetes Default")
        .map(|r| r.top1)
        .fold(0.0, f64::max);
    let best_supervised_top2 = report
        .rows
        .iter()
        .filter(|r| r.method != "Kubernetes Default")
        .map(|r| r.top2)
        .fold(0.0, f64::max);

    // The blind baseline hovers around uniform choice over six nodes.
    assert!(default.top1 < 0.45, "default top1 {}", default.top1);
    // Learning from telemetry helps substantially (the paper's headline claim).
    assert!(
        best_supervised_top1 > default.top1,
        "supervised {best_supervised_top1} must beat default {}",
        default.top1
    );
    assert!(
        best_supervised_top2 > default.top2,
        "supervised top2 {best_supervised_top2} must beat default {}",
        default.top2
    );
    // Top-2 dominates Top-1 for every method, and the forest is competitive.
    for row in &report.rows {
        assert!(row.top2 + 1e-9 >= row.top1, "{}", row.method);
    }
    assert!(forest.top2 >= default.top2);
}

#[test]
fn scheduler_service_full_loop_learns_and_places() {
    // Bootstrap: run jobs with the service's fallback (random) placement,
    // record outcomes, retrain, then check the model is consulted.
    let mut world = SimWorld::new(FabricTestbed::paper(), 777);
    world.place_background_load(2, &BackgroundLoadConfig::default());
    world.advance_by(SimDuration::from_secs(10));
    // The one serving interface: decisions read what the world's metrics
    // server publishes, never the store behind it.
    let metrics_server = world.metrics.published_handle();

    let mut service = SchedulerService::new(
        SchedulerConfig {
            model_kind: ModelKind::RandomForest,
            min_training_samples: 24,
            ..Default::default()
        },
        5,
    );
    let mut rng = Rng::seed_from_u64(6);

    for i in 0..30 {
        let kind = WorkloadKind::PAPER_SET[i % 3];
        let request = JobRequest::named(format!("boot-{i}"), kind, 50_000 + (i as u64 * 10_000), 2);
        let decision = service.schedule(&request, &metrics_server, &world.cluster, world.now());
        assert!(!decision.used_model, "still bootstrapping");
        let target = decision.job.target_node.clone().expect("feasible node");
        let outcome = world.run_job(&request, &target).expect("bootstrap run");
        service.record_outcome(
            &outcome.pre_run_snapshot,
            &request,
            &target,
            outcome.result.completion_seconds(),
        );
        world.advance_by(SimDuration::from_secs(2));
    }
    assert_eq!(service.logged_executions(), 30);
    assert!(service.retrain(&mut rng), "enough samples to train");
    assert!(service.is_model_active());

    // A post-training decision consults the model and pins the driver.
    let request = JobRequest::named("online-sort", WorkloadKind::Sort, 250_000, 2);
    let decision = service.schedule(&request, &metrics_server, &world.cluster, world.now());
    assert!(decision.used_model);
    assert_eq!(decision.ranking.len(), 6);
    let target = decision
        .job
        .target_node
        .clone()
        .expect("model picked a node");
    assert!(decision.job.manifest_yaml.contains(&format!("- {target}")));
    // The pinned manifest is accepted by the world and the job completes.
    let outcome = world
        .run_job(&request, &target)
        .expect("placement is feasible");
    assert!(outcome.result.completion_seconds() > 0.0);
}

#[test]
fn supervised_choice_is_never_worse_on_average_than_random_choice() {
    // Average realized completion time of the model's choices should not
    // exceed the average over random choices on the same scenarios.
    let config = ExperimentConfig {
        workers: simcore::default_workers(),
        ..ExperimentConfig::quick(2, 3, 31337)
    };
    let dataset = Workflow::new(config).run();
    let mut rng = Rng::seed_from_u64(8);
    let (train_idx, test_idx) = dataset.split_scenarios(0.3, &mut rng);
    let train = dataset.logger_for(&train_idx).to_dataset();
    let model = TrainedModel::train(ModelKind::RandomForest, &fast_models(), &train, &mut rng);
    let predictor = CompletionTimePredictor::new(FeatureSchema::standard(), model)
        .expect("experiment datasets are built with the standard schema");

    let mut model_total = 0.0;
    let mut random_total = 0.0;
    let mut oracle_total = 0.0;
    let cluster = dataset.testbed.build().cluster;
    for &idx in &test_idx {
        let scenario = &dataset.scenarios[idx];
        let choice = supervised_ranking(&predictor, scenario, &cluster);
        let choice_idx = scenario
            .outcomes
            .iter()
            .position(|o| o.node == choice[0])
            .expect("the ranking keeps only nodes with an outcome");
        let completions = scenario.completions();
        model_total += completions[choice_idx];
        random_total += completions.iter().sum::<f64>() / completions.len() as f64;
        oracle_total += completions.iter().cloned().fold(f64::INFINITY, f64::min);
    }
    assert!(
        model_total <= random_total * 1.02,
        "model {model_total:.1}s vs random {random_total:.1}s"
    );
    assert!(oracle_total <= model_total + 1e-9);
}

#[test]
fn table4_ranks_held_out_scenarios_exactly_as_the_service_decides() {
    // Table 4's supervised rows rank through `supervised_ranking`; here each
    // held-out scenario is also decided by the scheduler service, on the
    // same baseline cluster, after its snapshot was published like a live
    // epoch. The service's ranking, kept to the nodes with an outcome, must
    // be the evaluation's ranking, and its scores the per-row predictions
    // bit for bit; a top-2 budget must keep its prefix.
    let config = ExperimentConfig {
        workers: simcore::default_workers(),
        ..ExperimentConfig::quick(2, 2, 5150)
    };
    let dataset = Workflow::new(config).run();
    let mut rng = Rng::seed_from_u64(21);
    let (train_idx, test_idx) = dataset.split_scenarios(0.5, &mut rng);
    let train = dataset.logger_for(&train_idx).to_dataset();
    let cluster = dataset.testbed.build().cluster;

    for kind in ModelKind::ALL {
        let model = TrainedModel::train(kind, &fast_models(), &train, &mut rng);
        let predictor = CompletionTimePredictor::new(FeatureSchema::standard(), model)
            .expect("experiment datasets are built with the standard schema");
        let service = |prune_top_k| {
            let config = SchedulerConfig {
                model_kind: kind,
                prune_top_k,
                ..Default::default()
            };
            SchedulerService::with_predictor(config, predictor.clone(), 1)
        };
        let (mut full, mut budgeted) = (service(None), service(Some(2)));
        let mut publisher = SnapshotPublisher::new();
        for &idx in &test_idx {
            let scenario = &dataset.scenarios[idx];
            let request = scenario.request();
            publisher.publish_with(|epoch| *epoch = scenario.snapshot.clone());
            let handle = publisher.handle();
            let now = scenario.snapshot.time;
            let served = full.schedule(&request, &handle, &cluster, now).ranking;
            assert!(served.len() >= scenario.outcomes.len(), "{kind}");

            let kept: Vec<(String, u64)> = served
                .ranked
                .iter()
                .map(|r| {
                    (
                        cluster.node_name(r.node).to_string(),
                        r.predicted_seconds.to_bits(),
                    )
                })
                .filter(|(name, _)| scenario.outcomes.iter().any(|o| o.node == *name))
                .collect();
            let names = supervised_ranking(&predictor, scenario, &cluster);
            let mut rows = FeatureMatrix::new(predictor.schema().len());
            for name in &names {
                rows.push_row(
                    &predictor
                        .schema()
                        .construct(&scenario.snapshot, name, &request),
                );
            }
            let mut seconds = Vec::new();
            predictor.predict_batch_into(&rows, &mut seconds);
            let evaluated: Vec<(String, u64)> = names
                .into_iter()
                .zip(seconds)
                .map(|(name, seconds)| (name, seconds.to_bits()))
                .collect();
            assert_eq!(kept, evaluated, "{kind} scenario {idx}");

            let pruned = budgeted.schedule(&request, &handle, &cluster, now).ranking;
            assert_eq!(pruned.len(), 2.min(served.len()), "{kind}");
            assert_eq!(pruned.ranked, served.ranked[..pruned.len()], "{kind}");
        }
    }
}
