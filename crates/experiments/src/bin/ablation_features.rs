//! Ablation harness: feature groups, random-forest size and background-load
//! intensity, each ranked through the scheduler service's own ranker.
//!
//! ```text
//! cargo run --release -p experiments --bin ablation_features [quick|full]
//! ```

use experiments::ablation::{
    ablation_markdown, background_intensity_ablation, feature_group_ablation, forest_size_ablation,
};
use experiments::report::emit;
use experiments::workflow::{ExperimentConfig, Workflow};
use mlcore::{GradientBoostingConfig, ModelConfig, RandomForestConfig};

fn main() {
    let full = std::env::args()
        .nth(1)
        .map(|a| a == "full")
        .unwrap_or(false);
    let base = if full {
        ExperimentConfig {
            repeats_per_config: 5,
            ..ExperimentConfig::default()
        }
    } else {
        ExperimentConfig::quick(5, 5, 2025)
    };
    let model_config = ModelConfig {
        forest: RandomForestConfig {
            n_trees: 80,
            ..Default::default()
        },
        gbdt: GradientBoostingConfig {
            n_rounds: 200,
            ..Default::default()
        },
        ..Default::default()
    };

    eprintln!(
        "generating dataset ({} scenarios) ...",
        base.scenario_count()
    );
    let dataset = Workflow::new(base.clone()).run();

    let mut output = String::new();
    eprintln!("running feature-group ablation ...");
    output.push_str(&ablation_markdown(
        "Feature-group ablation (random forest)",
        &feature_group_ablation(&dataset, &model_config, 0.25, 13),
    ));
    output.push('\n');

    eprintln!("running forest-size ablation ...");
    output.push_str(&ablation_markdown(
        "Random-forest size ablation",
        &forest_size_ablation(&dataset, &[10, 50, 100, 200], 0.25, 17),
    ));
    output.push('\n');

    eprintln!("running background-intensity ablation ...");
    let intensity_base = ExperimentConfig {
        configs: base.configs.clone(),
        repeats_per_config: base.repeats_per_config.min(4),
        ..base
    };
    output.push_str(&ablation_markdown(
        "Background-load intensity ablation",
        &background_intensity_ablation(&intensity_base, &[0, 1, 3], &model_config, 0.25, 19),
    ));

    emit("Ablation studies", "ablation.md", &output);
}
