//! The default scheduler: filtering and scoring.
//!
//! This reimplements the behaviour the paper uses as its baseline
//! (Section 3.1): *"filtering, where nodes that do not satisfy basic
//! requirements (e.g., insufficient CPU/memory) are eliminated, and scoring,
//! where remaining nodes are ranked using a set of scoring functions (e.g.,
//! least requested resources, affinity...). The node with the highest score is
//! then selected."* Crucially it is *"blind to runtime factors such as network
//! variability, CPU pressure, or memory contention"* — it only sees declared
//! requests and allocatable capacity, never telemetry. That blindness is what
//! the supervised scheduler in `netsched-core` improves upon.

use crate::node::Node;
use crate::pod::PodSpec;
use simcore::Rng;

/// Why a node was filtered out for a pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterResult {
    /// The node can host the pod.
    Feasible,
    /// Node is cordoned / marked unschedulable.
    Unschedulable,
    /// Requested CPU or memory does not fit the node's free allocatable.
    InsufficientResources,
    /// The pod is pinned to another hostname.
    AffinityMismatch,
}

/// A node together with its score (0..=100 per Kubernetes convention).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredNode {
    /// Node name.
    pub node: String,
    /// Final normalized score.
    pub score: f64,
    /// Breakdown: least-requested component.
    pub(crate) least_requested: f64,
    /// Breakdown: balanced-allocation component.
    pub(crate) balanced_allocation: f64,
}

/// Result of asking a scheduler for a placement.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleOutcome {
    /// A node was selected; the full ranking is included for analysis.
    Scheduled {
        /// The chosen node.
        node: String,
        /// All feasible nodes with scores, sorted best-first.
        ranking: Vec<ScoredNode>,
    },
    /// No feasible node exists; the per-node filter verdicts are included.
    Unschedulable {
        /// Why each node was rejected.
        reasons: Vec<(String, FilterResult)>,
    },
}

impl ScheduleOutcome {
    /// The selected node name, if any.
    pub fn node(&self) -> Option<&str> {
        match self {
            ScheduleOutcome::Scheduled { node, .. } => Some(node),
            ScheduleOutcome::Unschedulable { .. } => None,
        }
    }
}

/// Weight of the least-requested priority.
const LEAST_REQUESTED_WEIGHT: f64 = 1.0;
/// Weight of the balanced-allocation priority.
const BALANCED_ALLOCATION_WEIGHT: f64 = 1.0;

/// The default (network-blind) scheduler.
#[derive(Debug, Clone)]
pub struct DefaultScheduler {
    rng: Rng,
}

impl DefaultScheduler {
    /// Create a default scheduler. `seed` drives the randomized tie-breaking
    /// among equally scored nodes (kube-scheduler does the same: when several
    /// nodes share the top score one is picked at random).
    pub fn new(seed: u64) -> Self {
        DefaultScheduler {
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// Filtering phase for one node: cordon, then resource fit, then pin.
    pub fn filter(pod: &PodSpec, node: &Node) -> FilterResult {
        if !node.schedulable {
            return FilterResult::Unschedulable;
        }
        if !pod.requests.fits_within(&node.available()) {
            return FilterResult::InsufficientResources;
        }
        if !pod.pin_matches(node) {
            return FilterResult::AffinityMismatch;
        }
        FilterResult::Feasible
    }

    /// Scoring phase for one feasible node.
    pub(crate) fn score(&self, pod: &PodSpec, node: &Node) -> ScoredNode {
        // Project the allocation as if the pod were bound.
        let projected = node.allocated() + pod.requests;
        let (cpu_frac, mem_frac) = projected.utilization_of(&node.allocatable);

        // LeastRequestedPriority: free fraction averaged over cpu and memory, scaled to 100.
        let least_requested = ((1.0 - cpu_frac) + (1.0 - mem_frac)) / 2.0 * 100.0;

        // BalancedResourceAllocation: 100 minus the cpu/mem utilization skew.
        let balanced_allocation = (1.0 - (cpu_frac - mem_frac).abs()) * 100.0;

        let score = ((LEAST_REQUESTED_WEIGHT * least_requested
            + BALANCED_ALLOCATION_WEIGHT * balanced_allocation)
            / (LEAST_REQUESTED_WEIGHT + BALANCED_ALLOCATION_WEIGHT))
            .max(0.0);

        ScoredNode {
            node: node.name.clone(),
            score,
            least_requested,
            balanced_allocation,
        }
    }

    /// Choose a node for `pod` among `nodes`.
    pub fn schedule(&mut self, pod: &PodSpec, nodes: &[Node]) -> ScheduleOutcome {
        let refs: Vec<&Node> = nodes.iter().collect();
        self.schedule_refs(pod, &refs)
    }

    /// [`DefaultScheduler::schedule`] over a pre-selected candidate slice of node
    /// references (e.g. the output of a feasibility index or prefilter).
    /// Filtering, scoring, ranking and randomized tie-breaking behave exactly
    /// as they do over the full node table: passing references to every node
    /// in table order produces a byte-identical outcome and consumes the
    /// tie-break RNG identically.
    pub fn schedule_refs(&mut self, pod: &PodSpec, nodes: &[&Node]) -> ScheduleOutcome {
        let mut reasons = Vec::with_capacity(nodes.len());
        let mut feasible: Vec<&Node> = Vec::with_capacity(nodes.len());
        for node in nodes {
            let verdict = Self::filter(pod, node);
            if verdict == FilterResult::Feasible {
                feasible.push(node);
            }
            reasons.push((node.name.clone(), verdict));
        }
        if feasible.is_empty() {
            return ScheduleOutcome::Unschedulable { reasons };
        }
        let mut ranking: Vec<ScoredNode> = feasible.iter().map(|n| self.score(pod, n)).collect();
        // Sort best-first with deterministic secondary ordering by name.
        ranking.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.node.cmp(&b.node))
        });
        // Randomized tie-breaking among the joint top scorers (like upstream).
        let top_score = ranking[0].score;
        let tied: Vec<usize> = ranking
            .iter()
            .enumerate()
            .take_while(|(_, s)| (s.score - top_score).abs() < 1e-9)
            .map(|(i, _)| i)
            .collect();
        let pick = if tied.len() > 1 {
            tied[self.rng.gen_range_usize(0, tied.len())]
        } else {
            0
        };
        let node = ranking[pick].node.clone();
        ScheduleOutcome::Scheduled { node, ranking }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resources;
    use simnet::NodeId;
    use std::collections::BTreeMap;

    fn mk_nodes(n: usize) -> Vec<Node> {
        (0..n)
            .map(|i| {
                Node::new(
                    format!("node-{}", i + 1),
                    NodeId(i),
                    Resources::from_cores_and_gib(6, 8),
                    if i < 2 {
                        "UCSD"
                    } else if i < 4 {
                        "FIU"
                    } else {
                        "SRI"
                    },
                )
            })
            .collect()
    }

    fn pod(cpu: u64, mem_gib: u64) -> PodSpec {
        PodSpec::new("test-pod", Resources::from_cores_and_gib(cpu, mem_gib))
    }

    #[test]
    fn filters_resource_shortfall() {
        let nodes = mk_nodes(2);
        assert_eq!(
            DefaultScheduler::filter(&pod(2, 2), &nodes[0]),
            FilterResult::Feasible
        );
        assert_eq!(
            DefaultScheduler::filter(&pod(8, 2), &nodes[0]),
            FilterResult::InsufficientResources
        );
        assert_eq!(
            DefaultScheduler::filter(&pod(2, 16), &nodes[0]),
            FilterResult::InsufficientResources
        );
    }

    #[test]
    fn filters_cordon_and_pin() {
        let nodes = mk_nodes(2);
        let mut pinned = pod(1, 1);
        pinned.pinned_node = Some("node-2".into());
        assert_eq!(
            DefaultScheduler::filter(&pinned, &nodes[0]),
            FilterResult::AffinityMismatch
        );
        assert_eq!(
            DefaultScheduler::filter(&pinned, &nodes[1]),
            FilterResult::Feasible
        );

        let mut cordoned = mk_nodes(1).remove(0);
        cordoned.schedulable = false;
        assert_eq!(
            DefaultScheduler::filter(&pod(1, 1), &cordoned),
            FilterResult::Unschedulable
        );
    }

    #[test]
    fn least_requested_prefers_emptier_node() {
        let mut nodes = mk_nodes(2);
        // Load node-1 with a big pod.
        nodes[0].bind(crate::pod::PodId(99), Resources::from_cores_and_gib(4, 4));
        let mut sched = DefaultScheduler::new(7);
        let outcome = sched.schedule(&pod(1, 1), &nodes);
        match outcome {
            ScheduleOutcome::Scheduled { node, ranking } => {
                assert_eq!(node, "node-2");
                assert_eq!(ranking.len(), 2);
                assert!(ranking[0].score > ranking[1].score);
            }
            _ => panic!("expected scheduled"),
        }
    }

    #[test]
    fn unschedulable_reports_reasons() {
        let nodes = mk_nodes(3);
        let mut sched = DefaultScheduler::new(1);
        let outcome = sched.schedule(&pod(32, 1), &nodes);
        match outcome {
            ScheduleOutcome::Unschedulable { reasons } => {
                assert_eq!(reasons.len(), 3);
                assert!(reasons
                    .iter()
                    .all(|(_, r)| *r == FilterResult::InsufficientResources));
            }
            _ => panic!("expected unschedulable"),
        }
        assert_eq!(sched.schedule(&pod(32, 1), &nodes).node(), None);
    }

    #[test]
    fn ties_break_randomly_but_reproducibly() {
        let nodes = mk_nodes(6);
        // Identical empty nodes -> identical scores -> random tie-break.
        let picks_a: Vec<String> = {
            let mut sched = DefaultScheduler::new(42);
            (0..40)
                .map(|_| {
                    sched
                        .schedule(&pod(1, 1), &nodes)
                        .node()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let picks_b: Vec<String> = {
            let mut sched = DefaultScheduler::new(42);
            (0..40)
                .map(|_| {
                    sched
                        .schedule(&pod(1, 1), &nodes)
                        .node()
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(picks_a, picks_b, "same seed, same picks");
        let distinct: std::collections::BTreeSet<&String> = picks_a.iter().collect();
        assert!(
            distinct.len() >= 3,
            "tie-breaking should spread across nodes, got {distinct:?}"
        );
    }

    #[test]
    fn balanced_allocation_component_is_sane() {
        let sched = DefaultScheduler::new(0);
        let node = &mk_nodes(1)[0];
        let balanced = sched.score(&pod(3, 4), node); // 50% cpu, 50% mem -> perfectly balanced
        assert!((balanced.balanced_allocation - 100.0).abs() < 1e-9);
        let skewed = sched.score(&pod(6, 0), node); // 100% cpu, 0% mem
        assert!(skewed.balanced_allocation < balanced.balanced_allocation);
        assert!(skewed.score < balanced.score);
    }

    #[test]
    fn scoring_ignores_labels_it_does_not_know() {
        // A node with arbitrary extra labels scores the same as one without.
        let sched = DefaultScheduler::new(0);
        let plain = &mk_nodes(1)[0];
        let mut labelled = plain.clone();
        labelled.labels.insert("unrelated".into(), "value".into());
        let p = pod(2, 2);
        assert_eq!(
            sched.score(&p, plain).score,
            sched.score(&p, &labelled).score
        );
        let _ = BTreeMap::<String, String>::new();
    }
}
