//! The Decision Module.
//!
//! *"Once the supervised model predicts expected job completion times across
//! candidate nodes, the scheduler ranks nodes in ascending order of predicted
//! duration. The top-ranked node is selected as the launch node."*
//!
//! Rankings carry interned [`NodeId`]s, not node names: the hot path never
//! clones a `String`. Names are resolved through the cluster's intern table
//! only at the edges (manifest rendering, logs, reports) via
//! [`NodeRanking::best_name`] / [`NodeRanking::names`].

use cluster::{ClusterState, NodeId};
use serde::{Deserialize, Serialize};

/// One candidate node with its predicted completion time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedNode {
    /// Interned node identity (resolve via the cluster that issued it).
    pub node: NodeId,
    /// Predicted job completion time in seconds.
    pub predicted_seconds: f64,
}

/// The full ranking produced for one scheduling decision.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NodeRanking {
    /// Candidates sorted by ascending predicted duration (best first).
    pub ranked: Vec<RankedNode>,
}

impl NodeRanking {
    /// The selected (top-ranked) node, if any candidate existed.
    pub fn best(&self) -> Option<&RankedNode> {
        self.ranked.first()
    }

    /// Name of the selected node, resolved against the issuing cluster.
    pub fn best_name<'a>(&self, cluster: &'a ClusterState) -> Option<&'a str> {
        self.best().map(|r| cluster.node_name(r.node))
    }

    /// Ids of the top `k` nodes.
    pub fn top_k(&self, k: usize) -> Vec<NodeId> {
        self.ranked.iter().take(k).map(|r| r.node).collect()
    }

    /// All ranked node names in order, resolved against the issuing cluster.
    pub fn names<'a>(&self, cluster: &'a ClusterState) -> Vec<&'a str> {
        self.ranked
            .iter()
            .map(|r| cluster.node_name(r.node))
            .collect()
    }

    /// Position (0-based) of a node in the ranking.
    pub fn position_of(&self, node: NodeId) -> Option<usize> {
        self.ranked.iter().position(|r| r.node == node)
    }

    /// Number of candidates ranked.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when no candidates were ranked.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }
}

/// Ranks candidate nodes by predicted completion time.
#[derive(Debug, Clone, Copy, Default)]
pub struct DecisionModule;

impl DecisionModule {
    /// Build a ranking from parallel slices of candidates and predictions.
    /// Ties break by ascending [`NodeId`] (registration order) so decisions
    /// are deterministic and auditable.
    pub fn rank(&self, candidates: &[NodeId], predictions: &[f64]) -> NodeRanking {
        let mut out = NodeRanking::default();
        self.rank_into(candidates, predictions, &mut out);
        out
    }

    /// In-place variant of [`DecisionModule::rank`]: build the ranking into
    /// `out`, reusing its buffer, sorted by `rank_order`.
    pub fn rank_into(&self, candidates: &[NodeId], predictions: &[f64], out: &mut NodeRanking) {
        assert_eq!(
            candidates.len(),
            predictions.len(),
            "one prediction per candidate"
        );
        out.ranked.clear();
        out.ranked.extend(
            candidates
                .iter()
                .zip(predictions)
                .map(|(&node, &p)| RankedNode {
                    node,
                    predicted_seconds: p,
                }),
        );
        out.ranked.sort_unstable_by(rank_order);
    }
}

/// The one order every ranking uses, the full rank's sort and stage one's
/// top-K heap alike: NaN scores after every number (among themselves by
/// [`NodeId`], whatever their sign); numbers by value, `-0.0` and `+0.0`
/// tying; ties by ascending [`NodeId`]. That is a total order over distinct
/// candidates, which the unstable sort requires — it may panic on an
/// inconsistent comparator — and which makes it result-identical to a
/// stable sort.
pub(crate) fn rank_order(a: &RankedNode, b: &RankedNode) -> std::cmp::Ordering {
    let (x, y) = (a.predicted_seconds, b.predicted_seconds);
    // Numbers take the one-compare path; only a NaN falls back to `is_nan`.
    x.partial_cmp(&y)
        .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
        .then_with(|| a.node.cmp(&b.node))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(indices: &[u32]) -> Vec<NodeId> {
        indices.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn ranks_ascending_by_prediction() {
        let ranking = DecisionModule.rank(&ids(&[0, 1, 2]), &[30.0, 10.0, 20.0]);
        assert_eq!(ranking.len(), 3);
        assert_eq!(ranking.best().unwrap().node, NodeId(1));
        assert_eq!(ranking.top_k(2), ids(&[1, 2]));
        assert_eq!(ranking.position_of(NodeId(0)), Some(2));
        assert_eq!(ranking.position_of(NodeId(9)), None);
        assert!(!ranking.is_empty());
    }

    #[test]
    fn ties_break_by_node_id() {
        let ranking = DecisionModule.rank(&ids(&[5, 2]), &[5.0, 5.0]);
        assert_eq!(ranking.best().unwrap().node, NodeId(2));
    }

    #[test]
    fn empty_candidates_give_empty_ranking() {
        let ranking = DecisionModule.rank(&[], &[]);
        assert!(ranking.is_empty());
        assert_eq!(ranking.best(), None);
        assert!(ranking.top_k(3).is_empty());
    }

    #[test]
    fn top_k_clamps_to_length() {
        let ranking = DecisionModule.rank(&ids(&[0, 1]), &[1.0, 2.0]);
        assert_eq!(ranking.top_k(10).len(), 2);
        assert_eq!(ranking.top_k(0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "one prediction per candidate")]
    fn mismatched_lengths_panic() {
        DecisionModule.rank(&ids(&[0]), &[1.0, 2.0]);
    }

    #[test]
    fn nan_predictions_rank_last() {
        let ranking = DecisionModule.rank(&ids(&[0, 1, 2]), &[f64::NAN, 1.0, 2.0]);
        assert_eq!(ranking.top_k(3), ids(&[1, 2, 0]));
    }

    #[test]
    fn names_resolve_through_cluster() {
        use cluster::{Node, Resources};
        let mut c = ClusterState::new();
        for i in 0..2 {
            c.add_node(Node::new(
                format!("node-{}", i + 1),
                simnet::NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                "SITE",
            ));
        }
        let ranking = DecisionModule.rank(&ids(&[1, 0]), &[1.0, 2.0]);
        assert_eq!(ranking.best_name(&c), Some("node-2"));
        assert_eq!(ranking.names(&c), vec!["node-2", "node-1"]);
    }
}
