//! Train the supervised scheduler end-to-end and use it for placement.
//!
//! This walks the paper's full loop in miniature:
//!
//! 1. collect training data by running jobs with varied target nodes under
//!    background contention (the Section 5.2 batch workflow),
//! 2. train the three model families and compare their held-out accuracy,
//! 3. plug the best model into the scheduler service and place a new job,
//!    comparing its choice against the default scheduler's.
//!
//! ```text
//! cargo run --release --example train_and_schedule
//! ```

use netsched::core::{
    CompletionTimePredictor, FeatureSchema, JobRequest, KubeDefaultScheduler, SchedulingContext,
};
use netsched::experiments::{ExperimentConfig, FabricTestbed, Workflow};
use netsched::mlcore::{evaluate_on, ModelConfig, ModelKind, TrainedModel};
use netsched::simcore::Rng;
use netsched::sparksim::WorkloadKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Collect a training dataset (scaled down from the paper's 3600 samples). ---
    let config = ExperimentConfig::quick(4, 3, 7); // 12 configs x 3 repeats x 6 nodes = 216 samples
    println!(
        "collecting {} scenarios ({} samples) of training data ...",
        config.scenario_count(),
        config.scenario_count() * 6
    );
    let dataset = Workflow::new(config).run();
    let mut rng = Rng::seed_from_u64(11);
    let (train_idx, test_idx) = dataset.split_scenarios(0.25, &mut rng);
    let train = dataset.logger_for(&train_idx).to_dataset();
    let test = dataset.logger_for(&test_idx).to_dataset();
    println!(
        "training rows: {}, held-out rows: {}",
        train.len(),
        test.len()
    );

    // --- 2. Train and compare the three model families. ---
    let model_config = ModelConfig::default();
    let mut best: Option<(ModelKind, TrainedModel, f64)> = None;
    for kind in ModelKind::ALL {
        let model = TrainedModel::train(kind, &model_config, &train, &mut rng);
        let metrics = evaluate_on(&model, &test);
        println!(
            "  {kind:<18} held-out MAE {:6.2}s  RMSE {:6.2}s  R² {:5.3}",
            metrics.mae, metrics.rmse, metrics.r2
        );
        if best
            .as_ref()
            .map(|(_, _, r2)| metrics.r2 > *r2)
            .unwrap_or(true)
        {
            best = Some((kind, model, metrics.r2));
        }
    }
    let (best_kind, best_model, best_r2) = best.ok_or("no model trained")?;
    println!("best model: {best_kind} (R² = {best_r2:.3})");

    // --- 3. Use the trained model for a new placement decision. ---
    let predictor = CompletionTimePredictor::new(FeatureSchema::standard(), best_model)?;
    let mut kube_default = KubeDefaultScheduler::new(3);

    // Take a held-out scenario's frozen system state as "now".
    let scenario = &dataset.scenarios[test_idx[0]];
    let request = JobRequest::named("sort-new", WorkloadKind::Sort, 500_000, 3);
    let cluster = FabricTestbed::paper().cluster;

    // The service's ranker: one batch inference over the feasible set.
    let mut ctx = SchedulingContext::new(&scenario.snapshot, &cluster);
    let supervised_ranking = ctx.rank_feasible_batch(&request, &predictor);
    let default_ranking = kube_default.rank(&request, &cluster);

    println!("\nscheduling a new job ({}):", request.name);
    println!("  supervised ({best_kind}) ranking:");
    for ranked in &supervised_ranking.ranked {
        println!(
            "    {:<8} predicted {:.1}s",
            cluster.node_name(ranked.node),
            ranked.predicted_seconds
        );
    }
    println!(
        "  supervised choice: {}   | default scheduler choice: {}",
        supervised_ranking.best_name(&cluster).unwrap_or("-"),
        default_ranking.best_name(&cluster).unwrap_or("-"),
    );
    println!(
        "  (actually fastest node in this scenario for its own job was {})",
        scenario.fastest_node()
    );
    Ok(())
}
