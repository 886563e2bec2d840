//! Differential property tests for the flat, batch-first model layer.
//!
//! Fitted trees are level-order [`FlatTree`]s, and inference is batch-first:
//! trees-outer accumulation for large matrices, and a grouped walk (four
//! trees at a time) for decision-sized batches of ≤ `FlatTree::BLOCK` rows.
//! These tests pin both against the canonical nested-node reference: an enum
//! walk over [`TreeNode`]s — the representation trees serialize as —
//! re-implemented the obvious way. For random fitted trees, forests and GBDTs
//! (including degenerate stumps, single-leaf trees, 1–3-tree group tails, NaN
//! features and empty batches) the flat scalar walk, both batch paths and the
//! reference must agree **exactly** (bit identity, not tolerance), and serde
//! round-trips through the canonical form must re-flatten to the same
//! predictions. Fixed-seed archives and split grids are pinned byte for byte.

use netsched::mlcore::{
    Dataset, DecisionTree, DecisionTreeConfig, FeatureMatrix, FlatTree, GradientBoosting,
    GradientBoostingConfig, ModelConfig, ModelKind, RandomForest, RandomForestConfig, Regressor,
    TrainedModel, TreeNode,
};
use netsched::simcore::rng::Rng;
use proptest::prelude::*;

/// The reference prediction: walk the canonical nested node list exactly the
/// way the historical enum representation did.
fn reference_walk(nodes: &[TreeNode], row: &[f64]) -> f64 {
    if nodes.is_empty() {
        return 0.0;
    }
    let mut idx = 0usize;
    loop {
        match &nodes[idx] {
            TreeNode::Leaf { prediction, .. } => return *prediction,
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
                ..
            } => {
                idx = if row[*feature] <= *threshold {
                    *left
                } else {
                    *right
                };
            }
        }
    }
}

/// Reference forest prediction with the exact float-operation order of
/// `RandomForest::predict_row`.
fn reference_forest(forest: &RandomForest, row: &[f64]) -> f64 {
    if forest.tree_count() == 0 {
        return 0.0;
    }
    forest
        .trees()
        .iter()
        .map(|t| reference_walk(&t.canonical_nodes(), row))
        .sum::<f64>()
        / forest.tree_count() as f64
}

/// Reference GBDT prediction with the exact float-operation order of
/// `GradientBoosting::predict_row`.
fn reference_gbdt(model: &GradientBoosting, row: &[f64]) -> f64 {
    let mut pred = model.base_prediction();
    for tree in model.trees() {
        pred += model.learning_rate() * reference_walk(&tree.canonical_nodes(), row);
    }
    pred
}

/// Build a dataset from a flat value stream: `width` feature columns, the
/// target derived from the same stream so it correlates with the features.
fn dataset_from(values: &[f64], width: usize) -> Dataset {
    let names = (0..width).map(|i| format!("f{i}")).collect();
    let mut data = Dataset::new(names);
    for chunk in values.chunks_exact(width + 1) {
        data.push_row(&chunk[..width], chunk[width]).unwrap();
    }
    data
}

/// Probe rows: every training row plus a few out-of-distribution ones.
fn probe_matrix(data: &Dataset) -> FeatureMatrix {
    let width = data.n_features();
    let mut probes = FeatureMatrix::new(width);
    for i in 0..data.len() {
        probes.push_row(data.row(i));
    }
    for v in [-1e9, 0.0, 0.5, 1e9] {
        let row = probes.add_row();
        row.fill(v);
    }
    probes
}

/// Decision-sized batches (1, 5 and 16 rows — the grouped walk's range),
/// taken from the end of `probes` so they hold the out-of-distribution rows.
fn decision_batches(probes: &FeatureMatrix) -> Vec<FeatureMatrix> {
    [1usize, 5, FlatTree::BLOCK]
        .into_iter()
        .map(|size| {
            let mut batch = FeatureMatrix::new(probes.n_features());
            for i in probes.n_rows().saturating_sub(size)..probes.n_rows() {
                batch.push_row(probes.row(i));
            }
            batch
        })
        .collect()
}

/// FNV-1a (64-bit): a stable fingerprint for pinning serialized bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat scalar walk, batch kernel and the canonical enum-walk reference
    /// agree exactly for random fitted trees, including depth-0/1 stumps.
    #[test]
    fn flat_tree_matches_enum_walk_reference(
        values in prop::collection::vec(0.0f64..100.0, 30..260),
        width in 1usize..5,
        max_depth in 0usize..9,
        min_samples_leaf in 1usize..5,
        subsample_features in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        let data = dataset_from(&values, width);
        let mut tree = DecisionTree::new(DecisionTreeConfig {
            max_depth,
            min_samples_split: 2,
            min_samples_leaf,
            max_features: if subsample_features == 1 { Some(1) } else { None },
        });
        let mut rng = Rng::seed_from_u64(seed);
        tree.fit(&data, &mut rng);
        prop_assert!(tree.depth() <= max_depth);

        let nodes = tree.canonical_nodes();
        prop_assert_eq!(nodes.len(), tree.node_count());
        let probes = probe_matrix(&data);
        let mut batch = Vec::new();
        tree.predict_into(&probes, &mut batch);
        prop_assert_eq!(batch.len(), probes.n_rows());
        for (i, &batched) in batch.iter().enumerate() {
            let row = probes.row(i);
            let reference = reference_walk(&nodes, row);
            prop_assert_eq!(tree.predict_row(row), reference);
            prop_assert_eq!(batched, reference);
        }

        // The canonical form re-flattens to the identical flat tree, and an
        // empty batch stays empty.
        prop_assert_eq!(&FlatTree::from_nodes(&nodes).unwrap(), tree.flat());
        tree.predict_into(&FeatureMatrix::new(width), &mut batch);
        prop_assert!(batch.is_empty());
    }

    /// Forest and GBDT batch predictions equal their per-row paths and the
    /// enum-walk reference exactly, for random ensembles.
    #[test]
    fn ensembles_match_enum_walk_reference(
        values in prop::collection::vec(0.0f64..100.0, 60..240),
        width in 1usize..4,
        n_trees in 1usize..12,
        n_rounds in 1usize..14,
        seed in 0u64..1_000_000,
    ) {
        let data = dataset_from(&values, width);
        let probes = probe_matrix(&data);
        let batches = decision_batches(&probes);
        let mut batch = Vec::new();

        let mut forest = RandomForest::new(RandomForestConfig {
            n_trees,
            workers: 2,
            tree: DecisionTreeConfig {
                max_depth: 6,
                ..Default::default()
            },
            ..Default::default()
        });
        let mut rng = Rng::seed_from_u64(seed);
        forest.fit(&data, &mut rng);
        forest.predict_into(&probes, &mut batch);
        for (i, &batched) in batch.iter().enumerate() {
            let row = probes.row(i);
            let reference = reference_forest(&forest, row);
            prop_assert_eq!(forest.predict_row(row), reference);
            prop_assert_eq!(batched, reference);
        }
        // The grouped walk: full groups of four trees plus a 1–3-tree tail.
        for rows in &batches {
            forest.predict_into(rows, &mut batch);
            for (i, &batched) in batch.iter().enumerate() {
                prop_assert_eq!(batched, reference_forest(&forest, rows.row(i)));
            }
        }

        let mut gbdt = GradientBoosting::new(GradientBoostingConfig {
            n_rounds,
            validation_fraction: if seed % 2 == 0 { 0.0 } else { 0.2 },
            ..Default::default()
        });
        gbdt.fit(&data, &mut rng);
        gbdt.predict_into(&probes, &mut batch);
        for (i, &batched) in batch.iter().enumerate() {
            let row = probes.row(i);
            let reference = reference_gbdt(&gbdt, row);
            prop_assert_eq!(gbdt.predict_row(row), reference);
            prop_assert_eq!(batched, reference);
        }
        for rows in &batches {
            gbdt.predict_into(rows, &mut batch);
            for (i, &batched) in batch.iter().enumerate() {
                prop_assert_eq!(batched, reference_gbdt(&gbdt, rows.row(i)));
            }
        }

        // Empty batches stay empty for both ensembles.
        forest.predict_into(&FeatureMatrix::new(width), &mut batch);
        prop_assert!(batch.is_empty());
        gbdt.predict_into(&FeatureMatrix::new(width), &mut batch);
        prop_assert!(batch.is_empty());
    }

    /// Serde round-trips go through the canonical nested node form;
    /// re-flattening must preserve every prediction exactly, per family.
    #[test]
    fn serde_roundtrip_reflattens_to_identical_predictions(
        values in prop::collection::vec(0.0f64..100.0, 60..200),
        width in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let data = dataset_from(&values, width);
        let probes = probe_matrix(&data);
        let config = ModelConfig {
            forest: RandomForestConfig {
                n_trees: 4,
                workers: 2,
                tree: DecisionTreeConfig { max_depth: 5, ..Default::default() },
                ..Default::default()
            },
            gbdt: GradientBoostingConfig { n_rounds: 6, ..Default::default() },
            ..Default::default()
        };
        let mut rng = Rng::seed_from_u64(seed);
        for kind in ModelKind::ALL {
            let model = TrainedModel::train(kind, &config, &data, &mut rng);
            let restored = TrainedModel::from_json(&model.to_json()).unwrap();
            prop_assert_eq!(restored.kind(), kind);
            let mut original = Vec::new();
            let mut reloaded = Vec::new();
            model.predict_into(&probes, &mut original);
            restored.predict_into(&probes, &mut reloaded);
            prop_assert_eq!(&original, &reloaded);
            for (i, &expected) in original.iter().enumerate() {
                prop_assert_eq!(restored.predict_row(probes.row(i)), expected);
            }
        }
    }
}

/// A degenerate stump (depth 0) is a single leaf: constant prediction, and
/// the canonical form is one `Leaf` node.
#[test]
fn degenerate_stump_is_a_single_leaf() {
    let mut data = Dataset::new(vec!["x".into()]);
    for i in 0..10 {
        data.push_row(&[i as f64], i as f64 * 2.0).unwrap();
    }
    let mut tree = DecisionTree::new(DecisionTreeConfig {
        max_depth: 0,
        ..Default::default()
    });
    let mut rng = Rng::seed_from_u64(3);
    tree.fit(&data, &mut rng);
    assert_eq!(tree.depth(), 0);
    assert_eq!(tree.node_count(), 1);
    let nodes = tree.canonical_nodes();
    assert!(matches!(nodes[0], TreeNode::Leaf { .. }));
    // Mean of 0,2,..,18 = 9.
    assert_eq!(tree.predict_row(&[123.0]), 9.0);
    let mut batch = Vec::new();
    tree.predict_into(data.matrix(), &mut batch);
    assert!(batch.iter().all(|&p| p == 9.0));
}

/// NaN feature values take the `>` branch in the flat walk — exactly what
/// the historical enum walk's `<=` comparison did.
#[test]
fn nan_features_follow_the_enum_walk_direction() {
    let mut data = Dataset::new(vec!["x".into()]);
    for i in 0..10 {
        let x = i as f64;
        data.push_row(&[x], if x < 5.0 { 10.0 } else { 20.0 })
            .unwrap();
    }
    let mut tree = DecisionTree::default();
    let mut rng = Rng::seed_from_u64(1);
    tree.fit(&data, &mut rng);
    let nodes = tree.canonical_nodes();
    let nan_row = [f64::NAN];
    assert_eq!(tree.predict_row(&nan_row), reference_walk(&nodes, &nan_row));
    let mut probes = FeatureMatrix::new(1);
    probes.push_row(&nan_row);
    let mut batch = Vec::new();
    tree.predict_into(&probes, &mut batch);
    assert_eq!(batch[0], reference_walk(&nodes, &nan_row));
}

/// A single-leaf tree grouped with deeper ones is stepped on every pass of
/// its group. Its root leaf stores `left = u32::MAX` and steps back to 0 by
/// wrapping addition; an unchecked `+` would overflow in the debug profile
/// the workspace tests run in.
#[test]
fn single_leaf_trees_walk_in_groups_with_deeper_trees() {
    let leaf = FlatTree::from_nodes(&[TreeNode::Leaf {
        prediction: 2.5,
        samples: 3,
    }])
    .unwrap();
    assert_eq!((leaf.depth(), leaf.node_count()), (0, 1));
    let values: Vec<f64> = (0..240).map(|i| ((i * 37) % 101) as f64).collect();
    let data = dataset_from(&values, 2);
    let mut rng = Rng::seed_from_u64(5);
    let deep: Vec<FlatTree> = (0..4)
        .map(|_| {
            let mut tree = DecisionTree::new(DecisionTreeConfig {
                max_depth: 6,
                max_features: Some(1),
                ..Default::default()
            });
            tree.fit(&data, &mut rng);
            assert!(tree.depth() > 2);
            tree.flat().clone()
        })
        .collect();
    // Leaf-led, leaf-inside and leaf-only groups, and a tail ending in a leaf.
    let trees: Vec<&FlatTree> = vec![
        &leaf, &deep[0], &deep[1], &leaf, &leaf, &leaf, &leaf, &leaf, &deep[2], &leaf, &deep[3],
        &leaf, &deep[0], &leaf,
    ];
    let probes = probe_matrix(&data);
    for rows in decision_batches(&probes) {
        let mut out = vec![1.0; rows.n_rows()];
        FlatTree::accumulate_ensemble(trees.iter().map(|&t| (t, 0.5)), &rows, &mut out);
        for (i, &batched) in out.iter().enumerate() {
            let mut expected = 1.0;
            for tree in &trees {
                expected += 0.5 * reference_walk(&tree.to_nodes(), rows.row(i));
            }
            assert_eq!(batched, expected, "row {i} of {}", rows.n_rows());
        }
    }
}

/// NaN features take the `>` branch in the grouped walk too, for forests and
/// GBDTs, wherever the NaN sits in the row.
#[test]
fn nan_feature_rows_through_the_grouped_walk_match_the_reference() {
    let values: Vec<f64> = (0..400).map(|i| ((i * 53) % 97) as f64).collect();
    let data = dataset_from(&values, 3);
    let mut rng = Rng::seed_from_u64(9);
    let mut forest = RandomForest::new(RandomForestConfig {
        n_trees: 10,
        workers: 2,
        tree: DecisionTreeConfig {
            max_depth: 7,
            ..Default::default()
        },
        ..Default::default()
    });
    forest.fit(&data, &mut rng);
    let mut gbdt = GradientBoosting::new(GradientBoostingConfig {
        n_rounds: 9,
        validation_fraction: 0.0,
        ..Default::default()
    });
    gbdt.fit(&data, &mut rng);
    let mut rows = FeatureMatrix::new(3);
    for mask in 1..8usize {
        for base in [10.0, 60.0] {
            let row = rows.add_row();
            for (column, value) in row.iter_mut().enumerate() {
                *value = if mask & (1 << column) != 0 {
                    f64::NAN
                } else {
                    base + column as f64
                };
            }
        }
    }
    assert!(rows.n_rows() <= FlatTree::BLOCK);
    let mut batch = Vec::new();
    forest.predict_into(&rows, &mut batch);
    for (i, &batched) in batch.iter().enumerate() {
        assert_eq!(batched, reference_forest(&forest, rows.row(i)), "row {i}");
    }
    gbdt.predict_into(&rows, &mut batch);
    for (i, &batched) in batch.iter().enumerate() {
        assert_eq!(batched, reference_gbdt(&gbdt, rows.row(i)), "row {i}");
    }
}

/// Every leaf holds a NaN threshold, so `FlatTree` equality compares
/// threshold bits: a tree equals itself, its clone and its canonical
/// round-trip, and a tree with one threshold moved does not.
#[test]
fn flat_tree_equality_sees_through_nan_leaf_thresholds() {
    let values: Vec<f64> = (0..180).map(|i| ((i * 29) % 83) as f64).collect();
    let data = dataset_from(&values, 2);
    let mut tree = DecisionTree::default();
    tree.fit(&data, &mut Rng::seed_from_u64(4));
    let flat = tree.flat();
    assert!(flat.leaf_count() > 1);
    assert_eq!(&flat.clone(), flat);
    let mut nodes = flat.to_nodes();
    assert_eq!(&FlatTree::from_nodes(&nodes).unwrap(), flat);
    let Some(TreeNode::Split { threshold, .. }) = nodes.first_mut() else {
        panic!("a fitted tree over varied data splits at the root");
    };
    *threshold += 1.0;
    assert_ne!(&FlatTree::from_nodes(&nodes).unwrap(), flat);
    let leaf = [TreeNode::Leaf {
        prediction: 4.0,
        samples: 1,
    }];
    assert_eq!(
        FlatTree::from_nodes(&leaf).unwrap(),
        FlatTree::from_nodes(&leaf).unwrap()
    );
}

/// The archive is the canonical preorder form and the split grid is sorted,
/// so the in-memory layout moves neither: fixed-seed RF and GBDT archives
/// and grids are pinned to the bytes the pre-level-order tree produced.
#[test]
fn fixed_seed_archives_and_split_grids_are_pinned() {
    let values: Vec<f64> = (0..800).map(|i| ((i * 71) % 113) as f64 / 7.0).collect();
    let data = dataset_from(&values, 3);
    let config = ModelConfig {
        forest: RandomForestConfig {
            n_trees: 6,
            workers: 2,
            tree: DecisionTreeConfig {
                max_depth: 8,
                ..Default::default()
            },
            ..Default::default()
        },
        gbdt: GradientBoostingConfig {
            n_rounds: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    for (kind, archive_pin, grid_pin) in [
        (
            ModelKind::RandomForest,
            12667719830605192121,
            6799315214492856764,
        ),
        (
            ModelKind::GradientBoosting,
            12492327925208026262,
            10509275948793810071,
        ),
    ] {
        let model = TrainedModel::train(kind, &config, &data, &mut Rng::seed_from_u64(42));
        let json = model.to_json();
        let grid = model.split_grid(3);
        let grid_bytes = grid.iter().flat_map(|column| {
            (column.len() as u64)
                .to_le_bytes()
                .into_iter()
                .chain(column.iter().flat_map(|t| t.to_bits().to_le_bytes()))
        });
        assert_eq!(
            (fnv1a(json.bytes()), fnv1a(grid_bytes)),
            (archive_pin, grid_pin),
            "{kind}: archive of {} bytes",
            json.len()
        );
    }
}
