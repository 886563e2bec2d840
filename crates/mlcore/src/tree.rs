//! CART regression trees over flat, level-order storage.
//!
//! Splits minimize the weighted variance of the two children (equivalently,
//! maximize variance reduction). Candidate thresholds are midpoints between
//! consecutive distinct feature values of the sorted node samples. Trees
//! support depth / leaf-size limits and per-split feature subsampling (used by
//! the random forest).
//!
//! A fitted tree is stored as a [`FlatTree`]: one array of 16-byte nodes
//! (`threshold`, `feature`, `left`) laid out breadth-first from the root at
//! index 0, a split's two children side by side at `left` and `left + 1`, so
//! one walk step is one node load and `left + !(row[feature] <= threshold)`.
//! A leaf stores `threshold = NaN` and `left = i − 1`: the comparison fails
//! for every row, NaN features included, and the step lands back on the leaf,
//! so the walk self-loops there instead of branching on a discriminant.
//!
//! One kernel walks `G` trees × up to [`FlatTree::BLOCK`] rows for a fixed
//! `depth` passes. [`FlatTree::accumulate_block`] is `G = 1`, the
//! trees-outer loop large matrices take; [`FlatTree::accumulate_ensemble`]
//! walks a decision-sized batch four trees at a time, because one tree over
//! the scheduler's six candidate rows leaves only six dependent-load chains
//! in flight (4, 6 and 8 trees measured the same). Both add leaf values in
//! tree order, so batch predictions are bit-identical to `predict_row`.
//!
//! Serialization keeps the canonical preorder node form ([`TreeNode`],
//! validated on load). Fitting builds that same form, and both flatten it
//! through [`FlatTree::from_nodes`]' breadth-first pass.

use crate::data::{Dataset, FeatureMatrix};
use serde::{Deserialize, Serialize};
use simcore::rng::Rng;

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecisionTreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples required in each child.
    pub min_samples_leaf: usize,
    /// Number of features examined per split (`None` = all features).
    pub max_features: Option<usize>,
}

impl Default for DecisionTreeConfig {
    fn default() -> Self {
        DecisionTreeConfig {
            max_depth: 12,
            min_samples_split: 4,
            min_samples_leaf: 2,
            max_features: None,
        }
    }
}

/// The canonical nested node form trees serialize as (and the reference
/// representation differential tests walk): either an internal split or a
/// leaf prediction, children addressed by index into the node list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreeNode {
    /// A terminal prediction.
    Leaf {
        /// Mean target of the samples that reached this leaf.
        prediction: f64,
        /// Number of training samples that reached this leaf.
        samples: usize,
    },
    /// An internal split on `feature <= threshold`.
    Split {
        /// Feature column index.
        feature: usize,
        /// Split threshold (midpoint between distinct values).
        threshold: f64,
        /// Index of the `<=` child in the node list.
        left: usize,
        /// Index of the `>` child in the node list.
        right: usize,
        /// Number of training samples that reached this split.
        samples: usize,
    },
}

/// One node of a [`FlatTree`]: 16 bytes, so four share a cache line. A split
/// sends a row to `left` when `row[feature] <= threshold` and to `left + 1`
/// otherwise. A leaf at index `i` holds `threshold = NaN`, `feature = 0` and
/// `left = i − 1` (wrapping, so a root leaf stores `u32::MAX`): the same
/// step lands back on `i`.
#[derive(Debug, Clone, Copy)]
struct Node {
    threshold: f64,
    feature: u32,
    left: u32,
}

/// Threshold bits, not `==`: every leaf holds a NaN threshold, and a tree
/// must equal itself.
impl PartialEq for Node {
    fn eq(&self, other: &Node) -> bool {
        self.threshold.to_bits() == other.threshold.to_bits()
            && self.feature == other.feature
            && self.left == other.left
    }
}

/// A fitted regression tree: one level-order array of 16-byte nodes.
///
/// The root is node 0 and nodes follow breadth-first, so the levels every row
/// walks first share the front of the array, and a split's two children sit
/// side by side at `left` and `left + 1`. One walk step is one node load:
/// `left + !(row[feature] <= threshold)`. A leaf's step lands back on the leaf
/// (`threshold = NaN` fails every comparison, NaN feature values included, and
/// `left = i − 1`), so the batch walk needs no per-step "is this a leaf?"
/// branch: a cursor that reaches a leaf self-loops while the other cursors of
/// its block finish, and the walk runs a fixed `depth` passes. `value`,
/// `samples` and `leaf` are index-parallel to `nodes` and off the walk: the
/// batch walk reads `value` once per (tree, row) at the end, and the scalar
/// walk and the canonical form read `leaf`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FlatTree {
    /// The walk storage, breadth-first from the root at index 0.
    nodes: Vec<Node>,
    /// Leaf prediction per node (0 for splits).
    value: Vec<f64>,
    /// Training samples that reached each node (canonical-form round-trip).
    samples: Vec<u32>,
    /// Leaf flag per node (drives the scalar walk and the canonical form).
    leaf: Vec<bool>,
    /// Maximum node depth: the pass count of the branchless batch walk.
    depth: u32,
}

impl FlatTree {
    /// Deepest tree the fixed-pass (branchless) batch walk handles; a
    /// pathologically deeper chain falls back to the early-exit walk so the
    /// pass count cannot degenerate to the sample count.
    const MAX_FIXED_PASSES: u32 = 64;

    /// Trees walked together by the decision-sized branch of
    /// `accumulate_ensemble`. One tree over the scheduler's six candidate rows
    /// is six dependent-load chains, too few to hide a cache miss per level;
    /// four trees make 24. Groups of 4, 6 and 8 measured the same.
    const GROUP: usize = 4;

    /// True when the tree holds no nodes at all (never fitted).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of nodes (splits + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf.iter().filter(|&&l| l).count()
    }

    /// One walk step from node `i`: `left` for `value <= threshold`, `left + 1`
    /// otherwise. The negated `<=` (rather than `>`) is load-bearing: a NaN
    /// feature value fails `<=` and must go right, exactly as the historical
    /// enum walk's `if v <= t { left } else { right }` did; a leaf's NaN
    /// threshold fails it for every row. Wrapping, because a root leaf's
    /// `left` is `u32::MAX`.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline(always)]
    fn step(&self, i: u32, row: &[f64]) -> u32 {
        let node = &self.nodes[i as usize];
        let right = !(row[node.feature as usize] <= node.threshold);
        node.left.wrapping_add(u32::from(right))
    }

    /// Predict the target for one full-width row.
    ///
    /// Rows must carry every feature the tree was trained on; a short row is
    /// a malformed input and panics (index out of bounds) instead of silently
    /// predicting from padded zeros.
    #[inline]
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut i = 0;
        while !self.leaf[i as usize] {
            i = self.step(i, row);
        }
        self.value[i as usize]
    }

    /// Rows walked simultaneously by the batch kernels. A scalar tree walk
    /// is one serial dependent-load chain (every step waits on the previous
    /// node fetch); interleaving a block of rows keeps that many independent
    /// chains — and, for ensembles larger than cache, that many outstanding
    /// memory requests — in flight at once.
    pub const BLOCK: usize = 16;

    /// The one walk kernel: up to [`Self::BLOCK`] rows through `G` trees at
    /// once, returning the leaf each (tree, row) pair ends on. Every pass
    /// advances every cursor of every tree by one level, so a pass holds
    /// `G × rows` independent dependent-load chains and its inner loop has no
    /// data-dependent branch; the walk runs the group's deepest tree's `depth`
    /// passes (shallower trees' cursors self-loop on their leaves). A group
    /// holding a chain deeper than `MAX_FIXED_PASSES` walks each tree with an
    /// early exit instead. Trees must be non-empty.
    fn walk<const G: usize>(trees: [&FlatTree; G], rows: &[&[f64]]) -> [[u32; Self::BLOCK]; G] {
        let mut cursors = [[0u32; Self::BLOCK]; G];
        let passes = trees.iter().map(|tree| tree.depth).fold(0, u32::max);
        if passes <= Self::MAX_FIXED_PASSES {
            for _ in 0..passes {
                for (tree, cursors) in trees.iter().zip(&mut cursors) {
                    for (cursor, row) in cursors.iter_mut().zip(rows) {
                        *cursor = tree.step(*cursor, row);
                    }
                }
            }
        } else {
            for (tree, cursors) in trees.iter().zip(&mut cursors) {
                loop {
                    let mut pending = false;
                    for (cursor, row) in cursors.iter_mut().zip(rows) {
                        if !tree.leaf[*cursor as usize] {
                            *cursor = tree.step(*cursor, row);
                            pending = true;
                        }
                    }
                    if !pending {
                        break;
                    }
                }
            }
        }
        cursors
    }

    /// Walk one block of up to [`Self::BLOCK`] rows through the tree,
    /// accumulating `scale * prediction` into `out[k]` for row `rows[k]`.
    /// The rows' walk cursors advance level-by-level in an interleaved loop,
    /// so the per-row dependent-load chains overlap. Per-row results are
    /// bit-identical to `out[k] += scale * self.predict_row(rows[k])`.
    ///
    /// # Panics
    /// Panics when `rows.len() > BLOCK` or `out.len() != rows.len()`.
    pub fn accumulate_block(&self, rows: &[&[f64]], scale: f64, out: &mut [f64]) {
        assert!(rows.len() <= Self::BLOCK, "block larger than BLOCK");
        assert_eq!(out.len(), rows.len(), "one accumulator slot per row");
        if self.is_empty() {
            return;
        }
        let [leaves] = Self::walk([self], rows);
        for (slot, &leaf) in out.iter_mut().zip(&leaves) {
            *slot += scale * self.value[leaf as usize];
        }
    }

    /// Walk every row of `x` through the tree, accumulating `scale *
    /// prediction` into `out` (one slot per row). This is the trees-outer
    /// batch kernel for large matrices: the caller loops over trees, so each
    /// tree's nodes stay hot in cache while the whole matrix streams through
    /// them, block by interleaved block. Per-row results are bit-identical to
    /// `out[i] += scale * self.predict_row(x.row(i))`.
    ///
    /// # Panics
    /// Panics when `out.len() != x.n_rows()`.
    pub fn accumulate_into(&self, x: &FeatureMatrix, scale: f64, out: &mut [f64]) {
        assert_eq!(out.len(), x.n_rows(), "one accumulator slot per row");
        if self.is_empty() {
            return;
        }
        let n = x.n_rows();
        let empty: &[f64] = &[];
        let mut rows: [&[f64]; Self::BLOCK] = [empty; Self::BLOCK];
        let mut start = 0;
        while start < n {
            let len = Self::BLOCK.min(n - start);
            for (k, slot) in rows.iter_mut().enumerate().take(len) {
                *slot = x.row(start + k);
            }
            self.accumulate_block(&rows[..len], scale, &mut out[start..start + len]);
            start += len;
        }
    }

    /// Accumulate a whole ensemble of `(tree, scale)` pairs over `x` into
    /// `out`, allocation-free. A decision-sized batch (≤ [`Self::BLOCK`]
    /// rows — the scheduler's candidate set) fetches its row slices into a
    /// stack array once and walks the trees four at a time through them
    /// (a 1–3-tree tail one at a time), adding each group's leaf values row by
    /// row in tree order; larger matrices run trees-outer over interleaved
    /// blocks. Either way per-row results are bit-identical to accumulating
    /// `scale * tree.predict_row(row)` in the same tree order.
    ///
    /// # Panics
    /// Panics when `out.len() != x.n_rows()`.
    pub fn accumulate_ensemble<'t>(
        trees: impl Iterator<Item = (&'t FlatTree, f64)>,
        x: &FeatureMatrix,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), x.n_rows(), "one accumulator slot per row");
        let n = x.n_rows();
        if n > Self::BLOCK {
            for (tree, scale) in trees {
                tree.accumulate_into(x, scale, out);
            }
            return;
        }
        let empty: &[f64] = &[];
        let mut rows: [&[f64]; Self::BLOCK] = [empty; Self::BLOCK];
        for (k, slot) in rows.iter_mut().enumerate().take(n) {
            *slot = x.row(k);
        }
        let rows = &rows[..n];
        // An empty tree adds nothing (as in `accumulate_block`) and has no
        // node 0 to walk.
        let mut trees = trees.filter(|(tree, _)| !tree.is_empty());
        while let Some(first) = trees.next() {
            let mut group = [first; Self::GROUP];
            let mut len = 1;
            while len < Self::GROUP {
                let Some(next) = trees.next() else { break };
                group[len] = next;
                len += 1;
            }
            if len < Self::GROUP {
                for &(tree, scale) in &group[..len] {
                    tree.accumulate_block(rows, scale, out);
                }
                break;
            }
            let leaves = Self::walk(group.map(|(tree, _)| tree), rows);
            for (k, slot) in out.iter_mut().enumerate() {
                for (&(tree, scale), leaves) in group.iter().zip(&leaves) {
                    *slot += scale * tree.value[leaves[k] as usize];
                }
            }
        }
    }

    /// Render the canonical nested node list (preorder: parent, left subtree,
    /// right subtree — the order the recursive builder emits). Iterative, so
    /// an arbitrarily deep chain serializes without recursing once per level.
    pub fn to_nodes(&self) -> Vec<TreeNode> {
        if self.is_empty() {
            return Vec::new();
        }
        // Subtree sizes in one reverse pass: level order puts every child
        // after its parent.
        let n = self.node_count();
        let mut size = vec![1usize; n];
        for i in (0..n).rev() {
            if !self.leaf[i] {
                let left = self.nodes[i].left as usize;
                size[i] = 1 + size[left] + size[left + 1];
            }
        }
        // Preorder emit; a split's left child is the next emitted node, its
        // right child follows the whole left subtree.
        let mut out = Vec::with_capacity(n);
        let mut stack: Vec<usize> = vec![0];
        while let Some(i) = stack.pop() {
            if self.leaf[i] {
                out.push(TreeNode::Leaf {
                    prediction: self.value[i],
                    samples: self.samples[i] as usize,
                });
                continue;
            }
            let node = self.nodes[i];
            let left = node.left as usize;
            let idx = out.len();
            out.push(TreeNode::Split {
                feature: node.feature as usize,
                threshold: node.threshold,
                left: idx + 1,
                right: idx + 1 + size[left],
                samples: self.samples[i] as usize,
            });
            stack.push(left + 1);
            stack.push(left);
        }
        out
    }

    /// Rebuild a flat tree from the canonical nested node list. Every child
    /// index must be in bounds and claimed by at most one parent, and none
    /// may point at the root: then what hangs off the root is a tree (no
    /// cycle, no shared subtree), and a hostile or pathologically deep
    /// archive returns an error or a tree — never a stack overflow or a walk
    /// that does not end.
    pub fn from_nodes(nodes: &[TreeNode]) -> Result<FlatTree, String> {
        let mut claimed = vec![false; nodes.len()];
        if let Some(root) = claimed.first_mut() {
            *root = true;
        }
        for node in nodes {
            if let TreeNode::Split { left, right, .. } = *node {
                for child in [left, right] {
                    let slot = claimed
                        .get_mut(child)
                        .ok_or_else(|| format!("node index {child} out of bounds"))?;
                    if std::mem::replace(slot, true) {
                        return Err(format!(
                            "node index {child} is claimed twice (cycle or shared subtree)"
                        ));
                    }
                }
            }
        }
        Ok(Self::level_order(nodes))
    }

    /// The breadth-first pass behind [`Self::from_nodes`] and
    /// [`DecisionTree::fit`]: flat node `i` is the `i`-th canonical node
    /// dequeued, and a split's children are enqueued as a pair, so they land
    /// side by side. `nodes` must form a tree from index 0 (the builder's own
    /// output, or a list `from_nodes` validated).
    fn level_order(nodes: &[TreeNode]) -> FlatTree {
        let mut tree = FlatTree::default();
        if nodes.is_empty() {
            return tree;
        }
        // (canonical index, depth) of each flat node, in flat order.
        let mut order: Vec<(usize, u32)> = Vec::with_capacity(nodes.len());
        order.push((0, 0));
        let mut i = 0;
        while let Some(&(idx, depth)) = order.get(i) {
            let (node, value, samples, is_leaf) = match nodes[idx] {
                TreeNode::Leaf {
                    prediction,
                    samples,
                } => {
                    tree.depth = tree.depth.max(depth);
                    let leaf = Node {
                        threshold: f64::NAN,
                        feature: 0,
                        left: (i as u32).wrapping_sub(1),
                    };
                    (leaf, prediction, samples, true)
                }
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                    samples,
                } => {
                    let split = Node {
                        threshold,
                        feature: feature as u32,
                        left: order.len() as u32,
                    };
                    order.push((left, depth + 1));
                    order.push((right, depth + 1));
                    (split, 0.0, samples, false)
                }
            };
            tree.nodes.push(node);
            tree.value.push(value);
            tree.samples.push(samples as u32);
            tree.leaf.push(is_leaf);
            i += 1;
        }
        tree
    }

    /// The split (non-leaf) nodes, in level order.
    fn split_nodes(&self) -> impl Iterator<Item = &Node> + '_ {
        self.nodes
            .iter()
            .zip(&self.leaf)
            .filter(|&(_, &is_leaf)| !is_leaf)
            .map(|(node, _)| node)
    }

    /// The largest feature index any split tests, or `None` for a tree with
    /// no splits. Deserialization checks this against the declared feature
    /// count so a loaded archive cannot panic the prediction walk.
    pub fn max_split_feature(&self) -> Option<u32> {
        self.split_nodes().map(|node| node.feature).max()
    }

    /// Depth of the tree (0 for a single leaf or an empty tree).
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// Iterate `(feature, threshold)` over the split (non-leaf) nodes, in
    /// level order. Two rows on the same side of every split's threshold walk
    /// identical paths and receive identical predictions.
    pub fn splits(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.split_nodes()
            .map(|node| (node.feature as usize, node.threshold))
    }
}

/// A fitted regression tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    config: DecisionTreeConfig,
    tree: FlatTree,
    n_features: usize,
    /// Sum of variance reduction attributed to each feature (impurity importance).
    feature_importance: Vec<f64>,
    fitted: bool,
}

/// Trees serialize in the canonical nested form (a [`TreeNode`] list) and
/// re-flatten on deserialize, so the on-disk shape is independent of the flat
/// in-memory layout and archives cannot smuggle in inconsistent parallel
/// arrays.
impl Serialize for DecisionTree {
    fn serialize_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            (
                serde::Value::Str("config".to_string()),
                self.config.serialize_value(),
            ),
            (
                serde::Value::Str("nodes".to_string()),
                self.tree.to_nodes().serialize_value(),
            ),
            (
                serde::Value::Str("n_features".to_string()),
                self.n_features.serialize_value(),
            ),
            (
                serde::Value::Str("feature_importance".to_string()),
                self.feature_importance.serialize_value(),
            ),
            (
                serde::Value::Str("fitted".to_string()),
                self.fitted.serialize_value(),
            ),
        ])
    }
}

impl Deserialize for DecisionTree {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for DecisionTree"))?;
        let config = DecisionTreeConfig::deserialize_value(serde::get_field(map, "config")?)?;
        let nodes: Vec<TreeNode> = Deserialize::deserialize_value(serde::get_field(map, "nodes")?)?;
        let tree = FlatTree::from_nodes(&nodes).map_err(serde::Error::custom)?;
        let n_features: usize =
            Deserialize::deserialize_value(serde::get_field(map, "n_features")?)?;
        // The walk indexes rows by split feature directly (the zero-padding
        // tolerance is gone), so an archive whose splits test columns beyond
        // the declared width must be rejected here, not crash a decision.
        if let Some(max_feature) = tree.max_split_feature() {
            if max_feature as usize >= n_features {
                return Err(serde::Error::custom(format!(
                    "split feature index {max_feature} out of range for {n_features} features"
                )));
            }
        }
        Ok(DecisionTree {
            config,
            tree,
            n_features,
            feature_importance: Deserialize::deserialize_value(serde::get_field(
                map,
                "feature_importance",
            )?)?,
            fitted: Deserialize::deserialize_value(serde::get_field(map, "fitted")?)?,
        })
    }
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self::new(DecisionTreeConfig::default())
    }
}

struct BuildCtx<'a> {
    x: &'a FeatureMatrix,
    targets: &'a [f64],
    config: DecisionTreeConfig,
}

impl DecisionTree {
    /// Create an unfitted tree.
    pub fn new(config: DecisionTreeConfig) -> Self {
        DecisionTree {
            config,
            tree: FlatTree::default(),
            n_features: 0,
            feature_importance: Vec::new(),
            fitted: false,
        }
    }

    /// Whether `fit` has been called.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Number of nodes in the fitted tree.
    pub fn node_count(&self) -> usize {
        self.tree.node_count()
    }

    /// Depth of the fitted tree (0 for a single leaf).
    pub fn depth(&self) -> usize {
        self.tree.depth()
    }

    /// Number of feature columns the tree was fitted on.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The flat, level-order representation.
    pub fn flat(&self) -> &FlatTree {
        &self.tree
    }

    /// The canonical nested node list (the serialized form, and the reference
    /// representation for differential tests).
    pub fn canonical_nodes(&self) -> Vec<TreeNode> {
        self.tree.to_nodes()
    }

    /// Impurity-based feature importance (normalized to sum to 1 when any
    /// split exists).
    pub fn feature_importance(&self) -> Vec<f64> {
        let total: f64 = self.feature_importance.iter().sum();
        if total <= 0.0 {
            return self.feature_importance.clone();
        }
        self.feature_importance.iter().map(|v| v / total).collect()
    }

    /// Fit on all rows of `data`.
    pub fn fit(&mut self, data: &Dataset, rng: &mut Rng) {
        let indices: Vec<usize> = (0..data.len()).collect();
        self.fit_on_matrix(data.matrix(), data.targets(), &indices, rng);
    }

    /// Fit on a subset of row indices of a raw `(matrix, targets)` pair —
    /// the allocation-free entry point boosting uses to refit residual
    /// targets each round without rebuilding a feature container.
    pub fn fit_on_matrix(
        &mut self,
        x: &FeatureMatrix,
        targets: &[f64],
        indices: &[usize],
        rng: &mut Rng,
    ) {
        self.n_features = x.n_features();
        self.feature_importance = vec![0.0; self.n_features];
        // The builder emits the canonical preorder form; the flat tree is its
        // level-order flattening, exactly as a deserialized archive's.
        let mut nodes = Vec::new();
        if indices.is_empty() || x.is_empty() {
            let mean = if targets.is_empty() {
                0.0
            } else {
                targets.iter().sum::<f64>() / targets.len() as f64
            };
            nodes.push(TreeNode::Leaf {
                prediction: mean,
                samples: 0,
            });
        } else {
            let ctx = BuildCtx {
                x,
                targets,
                config: self.config,
            };
            let mut idx = indices.to_vec();
            self.build_node(&ctx, &mut idx, 0, rng, &mut nodes);
        }
        self.tree = FlatTree::level_order(&nodes);
        self.fitted = true;
    }

    /// Recursively build the subtree over `indices`, appending it to `nodes`
    /// in preorder (parent, left subtree, right subtree).
    fn build_node(
        &mut self,
        ctx: &BuildCtx<'_>,
        indices: &mut [usize],
        depth: usize,
        rng: &mut Rng,
        nodes: &mut Vec<TreeNode>,
    ) {
        let n = indices.len();
        let (sum, sum_sq) = indices.iter().fold((0.0, 0.0), |(s, ss), &i| {
            let y = ctx.targets[i];
            (s + y, ss + y * y)
        });
        let mean = sum / n as f64;
        let variance = (sum_sq / n as f64 - mean * mean).max(0.0);

        let leaf = TreeNode::Leaf {
            prediction: mean,
            samples: n,
        };
        if depth >= ctx.config.max_depth || n < ctx.config.min_samples_split || variance < 1e-12 {
            nodes.push(leaf);
            return;
        }

        // Candidate features for this split.
        let feature_candidates: Vec<usize> = match ctx.config.max_features {
            Some(k) if k < self.n_features => rng.sample_indices(self.n_features, k.max(1)),
            _ => (0..self.n_features).collect(),
        };

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, score)
        let parent_score = variance * n as f64;
        for &feature in &feature_candidates {
            // Sort indices by this feature.
            indices.sort_by(|&a, &b| {
                ctx.x
                    .get(a, feature)
                    .partial_cmp(&ctx.x.get(b, feature))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            // Prefix sums for O(n) split scan.
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split_at in 1..n {
                let i = indices[split_at - 1];
                let y = ctx.targets[i];
                left_sum += y;
                left_sq += y * y;
                // Only split between distinct feature values.
                let prev = ctx.x.get(indices[split_at - 1], feature);
                let next = ctx.x.get(indices[split_at], feature);
                if next <= prev {
                    continue;
                }
                let left_n = split_at;
                let right_n = n - split_at;
                if left_n < ctx.config.min_samples_leaf || right_n < ctx.config.min_samples_leaf {
                    continue;
                }
                let right_sum = sum - left_sum;
                let right_sq = sum_sq - left_sq;
                let left_var =
                    (left_sq / left_n as f64 - (left_sum / left_n as f64).powi(2)).max(0.0);
                let right_var =
                    (right_sq / right_n as f64 - (right_sum / right_n as f64).powi(2)).max(0.0);
                let weighted = left_var * left_n as f64 + right_var * right_n as f64;
                let reduction = parent_score - weighted;
                if reduction > 1e-12 && best.map(|(_, _, b)| reduction > b).unwrap_or(true) {
                    best = Some((feature, (prev + next) / 2.0, reduction));
                }
            }
        }

        let Some((feature, threshold, reduction)) = best else {
            nodes.push(leaf);
            return;
        };
        self.feature_importance[feature] += reduction;

        // Partition indices in place around the chosen split.
        indices.sort_by(|&a, &b| {
            ctx.x
                .get(a, feature)
                .partial_cmp(&ctx.x.get(b, feature))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let split_at = indices
            .iter()
            .position(|&i| ctx.x.get(i, feature) > threshold)
            .unwrap_or(indices.len());
        // The split precedes its subtrees; its right child's index is known
        // once the left subtree is in place.
        let slot = nodes.len();
        nodes.push(TreeNode::Split {
            feature,
            threshold,
            left: slot + 1,
            right: 0,
            samples: n,
        });
        let (left_idx_slice, right_idx_slice) = indices.split_at_mut(split_at);
        self.build_node(ctx, left_idx_slice, depth + 1, rng, nodes);
        let right_child = nodes.len();
        if let TreeNode::Split { right, .. } = &mut nodes[slot] {
            *right = right_child;
        }
        self.build_node(ctx, right_idx_slice, depth + 1, rng, nodes);
    }

    /// Predict the target for one full-width row.
    ///
    /// # Panics
    /// Panics when the row is shorter than the features the tree splits on —
    /// malformed feature vectors fail loudly instead of predicting from
    /// zero-padding.
    pub fn predict_row(&self, row: &[f64]) -> f64 {
        self.tree.predict_row(row)
    }

    /// Predict every row of a feature matrix into a reused output buffer
    /// (cleared and refilled) via the interleaved batch kernel.
    pub fn predict_into(&self, x: &FeatureMatrix, out: &mut Vec<f64>) {
        out.clear();
        out.resize(x.n_rows(), 0.0);
        // 0.0 + 1.0 · v == v exactly, so this matches a per-row fill.
        self.tree.accumulate_into(x, 1.0, out);
    }

    /// Predict every row of a dataset.
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_into(data.matrix(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::RegressionMetrics;

    fn step_dataset() -> Dataset {
        // y = 10 when x < 5, else 20 — a single split should fit perfectly.
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..10 {
            let x = i as f64;
            d.push(vec![x], if x < 5.0 { 10.0 } else { 20.0 }).unwrap();
        }
        d
    }

    fn nonlinear_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from_u64(seed);
        let mut d = Dataset::new(vec!["x1".into(), "x2".into()]);
        for _ in 0..n {
            let x1 = rng.uniform(0.0, 10.0);
            let x2 = rng.uniform(0.0, 10.0);
            // Interaction + threshold effects: trees should beat linear models here.
            let y = if x1 > 5.0 { 50.0 } else { 0.0 } + x1 * x2 + rng.normal(0.0, 0.5);
            d.push(vec![x1, x2], y).unwrap();
        }
        d
    }

    #[test]
    fn fits_step_function_exactly() {
        let data = step_dataset();
        let mut tree = DecisionTree::default();
        assert!(!tree.is_fitted());
        let mut rng = Rng::seed_from_u64(1);
        tree.fit(&data, &mut rng);
        assert!(tree.is_fitted());
        assert_eq!(tree.predict_row(&[2.0]), 10.0);
        assert_eq!(tree.predict_row(&[7.0]), 20.0);
        assert!(tree.node_count() >= 3);
        assert!(tree.depth() >= 1);
        // Only one feature: it gets all importance.
        assert_eq!(tree.feature_importance(), vec![1.0]);
    }

    #[test]
    fn captures_nonlinear_interactions() {
        let data = nonlinear_dataset(600, 2);
        let mut rng = Rng::seed_from_u64(3);
        let (train, test) = data.train_test_split(0.25, &mut rng);
        let mut tree = DecisionTree::default();
        tree.fit(&train, &mut rng);
        let m = RegressionMetrics::compute(&tree.predict(&test), test.targets());
        assert!(m.r2 > 0.85, "r2 {}", m.r2);
    }

    #[test]
    fn depth_limit_is_respected() {
        let data = nonlinear_dataset(300, 4);
        let mut rng = Rng::seed_from_u64(5);
        let mut stump = DecisionTree::new(DecisionTreeConfig {
            max_depth: 1,
            ..Default::default()
        });
        stump.fit(&data, &mut rng);
        assert!(stump.depth() <= 1);
        assert!(stump.node_count() <= 3);
        let mut deep = DecisionTree::new(DecisionTreeConfig {
            max_depth: 8,
            ..Default::default()
        });
        deep.fit(&data, &mut rng);
        assert!(deep.depth() <= 8);
        assert!(deep.depth() > 1);
    }

    #[test]
    fn min_samples_leaf_prevents_tiny_leaves() {
        let data = nonlinear_dataset(100, 6);
        let mut rng = Rng::seed_from_u64(7);
        let mut tree = DecisionTree::new(DecisionTreeConfig {
            min_samples_leaf: 20,
            ..Default::default()
        });
        tree.fit(&data, &mut rng);
        // With >= 20 samples per leaf on 100 samples the tree must be small.
        assert!(tree.node_count() <= 9, "node_count {}", tree.node_count());
    }

    #[test]
    fn constant_targets_become_single_leaf() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], 5.0).unwrap();
        }
        let mut rng = Rng::seed_from_u64(8);
        let mut tree = DecisionTree::default();
        tree.fit(&d, &mut rng);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.flat().leaf_count(), 1);
        assert_eq!(tree.predict_row(&[100.0]), 5.0);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn empty_fit_yields_safe_leaf() {
        let d = Dataset::new(vec!["x".into()]);
        let mut rng = Rng::seed_from_u64(9);
        let mut tree = DecisionTree::default();
        tree.fit(&d, &mut rng);
        assert!(tree.is_fitted());
        assert_eq!(tree.predict_row(&[1.0]), 0.0);
        // Unfitted tree also predicts 0.
        let unfitted = DecisionTree::default();
        assert_eq!(unfitted.predict_row(&[1.0]), 0.0);
        assert!(unfitted.flat().is_empty());
    }

    #[test]
    fn feature_subsampling_still_learns() {
        let data = nonlinear_dataset(400, 10);
        let mut rng = Rng::seed_from_u64(11);
        let mut tree = DecisionTree::new(DecisionTreeConfig {
            max_features: Some(1),
            ..Default::default()
        });
        tree.fit(&data, &mut rng);
        let m = RegressionMetrics::compute(&tree.predict(&data), data.targets());
        assert!(
            m.r2 > 0.5,
            "even with per-split subsampling the tree learns, r2 {}",
            m.r2
        );
    }

    #[test]
    fn importance_identifies_the_informative_feature() {
        // y depends only on x1; x2 is noise.
        let mut rng = Rng::seed_from_u64(12);
        let mut d = Dataset::new(vec!["signal".into(), "noise".into()]);
        for _ in 0..300 {
            let x1 = rng.uniform(0.0, 10.0);
            let x2 = rng.uniform(0.0, 10.0);
            d.push(vec![x1, x2], x1 * 3.0).unwrap();
        }
        let mut tree = DecisionTree::default();
        tree.fit(&d, &mut rng);
        let imp = tree.feature_importance();
        assert!(imp[0] > 0.95, "signal importance {imp:?}");
        assert!(imp[1] < 0.05);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let data = nonlinear_dataset(200, 13);
        let mut t1 = DecisionTree::new(DecisionTreeConfig {
            max_features: Some(1),
            ..Default::default()
        });
        let mut t2 = t1.clone();
        let mut r1 = Rng::seed_from_u64(99);
        let mut r2 = Rng::seed_from_u64(99);
        t1.fit(&data, &mut r1);
        t2.fit(&data, &mut r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn predict_into_matches_predict_row_and_handles_empty_batches() {
        let data = nonlinear_dataset(150, 15);
        let mut rng = Rng::seed_from_u64(16);
        let mut tree = DecisionTree::default();
        tree.fit(&data, &mut rng);
        let mut batch = Vec::new();
        tree.predict_into(data.matrix(), &mut batch);
        assert_eq!(batch.len(), data.len());
        for (i, &b) in batch.iter().enumerate() {
            assert_eq!(b, tree.predict_row(data.row(i)), "row {i}");
        }
        // Empty batch: output is cleared to empty, nothing panics.
        let empty = FeatureMatrix::new(2);
        tree.predict_into(&empty, &mut batch);
        assert!(batch.is_empty());
    }

    #[test]
    fn canonical_nodes_roundtrip_through_flat_form() {
        let data = nonlinear_dataset(200, 17);
        let mut rng = Rng::seed_from_u64(18);
        let mut tree = DecisionTree::default();
        tree.fit(&data, &mut rng);
        let nodes = tree.canonical_nodes();
        assert_eq!(nodes.len(), tree.node_count());
        // Root first, and it references in-bounds children.
        let rebuilt = FlatTree::from_nodes(&nodes).unwrap();
        assert_eq!(&rebuilt, tree.flat());
        // A corrupt node list (cycle) is rejected, not trusted.
        let cycle = vec![TreeNode::Split {
            feature: 0,
            threshold: 1.0,
            left: 0,
            right: 0,
            samples: 2,
        }];
        assert!(FlatTree::from_nodes(&cycle).is_err());
        // Two parents for one subtree: a DAG, not a tree.
        let shared = vec![
            TreeNode::Split {
                feature: 0,
                threshold: 1.0,
                left: 1,
                right: 1,
                samples: 2,
            },
            TreeNode::Leaf {
                prediction: 1.0,
                samples: 2,
            },
        ];
        assert!(FlatTree::from_nodes(&shared).is_err());
        let oob = vec![TreeNode::Split {
            feature: 0,
            threshold: 1.0,
            left: 1,
            right: 7,
            samples: 2,
        }];
        assert!(FlatTree::from_nodes(&oob).is_err());
    }

    #[test]
    fn nodes_are_level_order_with_adjacent_siblings_and_self_looping_leaves() {
        // Preorder: root splits into a split (leaves a, b) and leaf c.
        let leaf = |prediction| TreeNode::Leaf {
            prediction,
            samples: 1,
        };
        let canonical = vec![
            TreeNode::Split {
                feature: 0,
                threshold: 5.0,
                left: 1,
                right: 4,
                samples: 3,
            },
            TreeNode::Split {
                feature: 1,
                threshold: 2.0,
                left: 2,
                right: 3,
                samples: 2,
            },
            leaf(10.0),
            leaf(20.0),
            leaf(30.0),
        ];
        let tree = FlatTree::from_nodes(&canonical).unwrap();
        // Level order: root, (inner split, c), (a, b).
        let lefts: Vec<u32> = tree.nodes.iter().map(|n| n.left).collect();
        assert_eq!(lefts, vec![1, 3, 1, 2, 3]);
        assert_eq!(tree.value, vec![0.0, 0.0, 30.0, 10.0, 20.0]);
        assert_eq!(tree.depth(), 2);
        for i in 2..5u32 {
            assert!(tree.nodes[i as usize].threshold.is_nan());
            assert_eq!(tree.step(i, &[f64::NAN, 0.0]), i, "leaf {i} self-loops");
        }
        assert_eq!(tree.predict_row(&[1.0, 3.0]), 20.0);
        assert_eq!(tree.to_nodes(), canonical);
        // A root leaf wraps: `left = u32::MAX`, and its step lands on 0.
        let single = FlatTree::from_nodes(&canonical[4..]).unwrap();
        assert_eq!(single.nodes[0].left, u32::MAX);
        assert_eq!(single.step(0, &[1.0]), 0);
    }

    #[test]
    fn deserialization_rejects_out_of_range_split_features() {
        let data = step_dataset();
        let mut rng = Rng::seed_from_u64(20);
        let mut tree = DecisionTree::default();
        tree.fit(&data, &mut rng);
        // Round-trips cleanly as serialized.
        let value = tree.serialize_value();
        assert_eq!(DecisionTree::deserialize_value(&value).unwrap(), tree);
        // Tamper: a split testing column 7 of a 1-feature model must be
        // rejected at load time, not panic the first prediction.
        let bad_nodes = vec![
            TreeNode::Split {
                feature: 7,
                threshold: 0.5,
                left: 1,
                right: 2,
                samples: 2,
            },
            TreeNode::Leaf {
                prediction: 1.0,
                samples: 1,
            },
            TreeNode::Leaf {
                prediction: 2.0,
                samples: 1,
            },
        ];
        let serde::Value::Map(mut entries) = value else {
            panic!("trees serialize as maps");
        };
        for (key, field) in &mut entries {
            if key.as_str() == Some("nodes") {
                *field = bad_nodes.serialize_value();
            }
        }
        let err = DecisionTree::deserialize_value(&serde::Value::Map(entries))
            .expect_err("out-of-range split feature must not load");
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn deep_chain_archives_do_not_overflow_the_stack() {
        // A 50 000-level left-leaning chain is flat JSON (indices, not
        // nesting): (de)serialization and depth bookkeeping must all be
        // iterative, and the batch walk must take the early-exit path
        // rather than 50 000 fixed passes.
        let depth = 50_000usize;
        let mut nodes = Vec::with_capacity(2 * depth + 1);
        for i in 0..depth {
            nodes.push(TreeNode::Split {
                feature: 0,
                threshold: -((i as f64) + 1.0),
                left: i + 1,
                right: depth + 1 + i,
                samples: depth - i,
            });
        }
        // Chain end, then one right leaf per split.
        nodes.push(TreeNode::Leaf {
            prediction: -1.0,
            samples: 1,
        });
        for i in 0..depth {
            nodes.push(TreeNode::Leaf {
                prediction: i as f64,
                samples: 1,
            });
        }
        let tree = FlatTree::from_nodes(&nodes).unwrap();
        assert_eq!(tree.depth(), depth);
        assert_eq!(tree.node_count(), nodes.len());
        // 0.0 > every threshold: the walk exits right at the first split.
        assert_eq!(tree.predict_row(&[0.0]), 0.0);
        // -∞ is <= every threshold: the walk runs the whole chain.
        assert_eq!(tree.predict_row(&[f64::NEG_INFINITY]), -1.0);
        let mut probes = FeatureMatrix::new(1);
        probes.push_row(&[0.0]);
        probes.push_row(&[f64::NEG_INFINITY]);
        let mut out = vec![0.0; 2];
        tree.accumulate_block(&[probes.row(0), probes.row(1)], 1.0, &mut out);
        assert_eq!(out, vec![0.0, -1.0]);
        // Re-serialization of the deep tree is iterative too.
        let reserialized = tree.to_nodes();
        assert_eq!(reserialized.len(), nodes.len());
        assert_eq!(&FlatTree::from_nodes(&reserialized).unwrap(), &tree);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn short_rows_fail_loudly() {
        let data = step_dataset();
        let mut rng = Rng::seed_from_u64(14);
        let mut tree = DecisionTree::default();
        tree.fit(&data, &mut rng);
        // A row missing the split feature is malformed input: no silent
        // zero-padding, the walk panics.
        let _ = tree.predict_row(&[]);
    }
}
