//! Resource-sorted feasibility index over the cluster's node table.
//!
//! At paper scale (6–64 nodes) scanning every node per decision is free; at
//! 10k nodes the linear scan in front of the expensive ranking model starts to
//! dominate decision latency. [`FeasibilityIndex`] keeps, per
//! [`ClusterState::generation`], which nodes are *eligible* for driver pods
//! (schedulable and free of untolerated `NoSchedule` taints — the
//! request-independent part of [`crate::DefaultScheduler::filter`]) together with two
//! resource-sorted arrays over the eligible set. A query binary-searches the
//! sorted arrays to find the nodes with enough free CPU / memory, then walks
//! only the *smaller* of the two suffixes applying the exact
//! [`Resources::fits_within`] check — so the result is byte-identical to the
//! naive full scan, in ascending [`NodeId`] order, while the work is
//! proportional to the matching suffix rather than the node table.
//!
//! # Incremental maintenance
//!
//! A serving loop binds a pod between any two decisions, and every bind bumps
//! the generation. [`FeasibilityIndex::sync`] therefore does not re-sort: on a
//! generation change it compares every node's free resources and eligibility
//! with what it indexed (one linear pass, no sorting) and *patches* the few
//! nodes that differ — a binary-search remove + reinsert of one
//! `(value, node)` pair per sorted array. A full rebuild (one pass plus two
//! sorts) happens only for the first build, a node table that grew, or more
//! changed nodes than `MAX_PATCHED_NODES`; only those count in
//! [`FeasibilityIndex::rebuilds`] and make `sync` return `true`. A patched
//! index is indistinguishable from a rebuilt one: the arrays hold the same
//! pairs in the same (total) order.
//!
//! Driver pods carry no node selector, no affinity and no tolerations (see
//! [`crate::job::JobSpec::driver_pod`]), so eligibility plus the resource fit
//! is the complete filter for them. The index is *not* valid for pods with
//! selectors/affinity/tolerations; callers with such pods must use
//! [`crate::DefaultScheduler::filter`] directly.

use crate::affinity::tolerates_all_no_schedule;
use crate::node::Node;
use crate::resources::Resources;
use crate::state::{ClusterState, NodeId};

/// Changed nodes one [`FeasibilityIndex::sync`] patches in place before it
/// gives up and rebuilds: a patch shifts part of each sorted array per node,
/// a rebuild sorts both arrays once. A burst's worth of binds and releases
/// stays under it; a cluster-wide `nodes_mut` sweep does not.
const MAX_PATCHED_NODES: usize = 64;

/// Sorted per-resource feasibility index, cached against a cluster
/// [generation](ClusterState::generation).
///
/// Bring up to date with [`FeasibilityIndex::sync`], query with
/// [`FeasibilityIndex::query_into`]. `sync` is a single integer compare while
/// the cluster generation is unchanged and a diff-and-patch when it moved
/// (see the module docs), which is what makes the index shareable across
/// decisions that each bind a pod.
#[derive(Debug, Clone, Default)]
pub struct FeasibilityIndex {
    /// Generation of the cluster this index reflects.
    generation: Option<u64>,
    /// How many times the index was fully rebuilt (not patched or reused).
    rebuilds: u64,
    /// Free resources per node, dense by [`NodeId`] index. Only entries for
    /// eligible nodes are consulted by queries.
    available: Vec<Resources>,
    /// Eligibility per node, dense by [`NodeId`] index: whether the node has
    /// an entry in the sorted arrays.
    eligible: Vec<bool>,
    /// `(available cpu_millis, node index)` over eligible nodes, ascending.
    by_cpu: Vec<(u64, u32)>,
    /// `(available memory_bytes, node index)` over eligible nodes, ascending.
    by_memory: Vec<(u64, u32)>,
}

/// Remove `(value, node)` from an ascending array; `false` when absent.
fn remove_pair(sorted: &mut Vec<(u64, u32)>, node: u32, value: u64) -> bool {
    match sorted.binary_search(&(value, node)) {
        Ok(at) => {
            sorted.remove(at);
            true
        }
        Err(_) => false,
    }
}

/// Insert `(value, node)` into an ascending array.
fn insert_pair(sorted: &mut Vec<(u64, u32)>, node: u32, value: u64) {
    let at = sorted.partition_point(|&pair| pair < (value, node));
    sorted.insert(at, (value, node));
}

impl FeasibilityIndex {
    /// Create an empty, unsynced index.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when `node` can host *some* driver pod: it is schedulable and has
    /// no untolerated `NoSchedule` taint. This is what
    /// [`crate::DefaultScheduler::filter`] reduces to for a zero-request,
    /// selector-free, toleration-free pod (and goes through the filter's own
    /// taint check), spelled out because every sync evaluates it for every
    /// node; a unit test pins the two together.
    pub fn eligible(node: &Node) -> bool {
        node.schedulable && tolerates_all_no_schedule(&node.taints, &[])
    }

    /// Bring the index up to date with `cluster`. A matching generation is a
    /// single compare. Otherwise one pass finds the nodes whose free
    /// resources or eligibility differ from what is indexed and patches them
    /// in place; the index is rebuilt from scratch — the only case that
    /// returns `true` and counts in [`rebuilds`](Self::rebuilds) — on the
    /// first sync, when the node table changed size, or when more than
    /// `MAX_PATCHED_NODES` nodes changed. Allocation-free at steady cluster
    /// size either way.
    pub fn sync(&mut self, cluster: &ClusterState) -> bool {
        if self.generation == Some(cluster.generation()) {
            return false;
        }
        let rebuilt = !self.patch(cluster.nodes());
        if rebuilt {
            self.rebuild(cluster.nodes());
        }
        self.generation = Some(cluster.generation());
        rebuilt
    }

    /// Patch the index to `nodes` in place; `false` when a rebuild is needed
    /// instead (see [`sync`](Self::sync)), in which case the index may be
    /// partially patched.
    fn patch(&mut self, nodes: &[Node]) -> bool {
        if self.generation.is_none() || nodes.len() != self.available.len() {
            return false;
        }
        let mut patched = 0;
        for (index, node) in nodes.iter().enumerate() {
            let (was, now) = (self.available[index], node.available());
            let (was_eligible, eligible) = (self.eligible[index], Self::eligible(node));
            if was == now && was_eligible == eligible {
                continue;
            }
            patched += 1;
            if patched > MAX_PATCHED_NODES {
                return false;
            }
            let id = index as u32;
            // A pair that is not where the order says it must be means the
            // index is corrupt: rebuild rather than trust it.
            if was_eligible
                && !(remove_pair(&mut self.by_cpu, id, was.cpu_millis)
                    && remove_pair(&mut self.by_memory, id, was.memory_bytes))
            {
                return false;
            }
            if eligible {
                insert_pair(&mut self.by_cpu, id, now.cpu_millis);
                insert_pair(&mut self.by_memory, id, now.memory_bytes);
            }
            self.available[index] = now;
            self.eligible[index] = eligible;
        }
        true
    }

    /// Rebuild from scratch: one pass over the node table plus two sorts.
    fn rebuild(&mut self, nodes: &[Node]) {
        self.available.clear();
        self.eligible.clear();
        self.by_cpu.clear();
        self.by_memory.clear();
        for (index, node) in nodes.iter().enumerate() {
            let free = node.available();
            let eligible = Self::eligible(node);
            self.available.push(free);
            self.eligible.push(eligible);
            if eligible {
                self.by_cpu.push((free.cpu_millis, index as u32));
                self.by_memory.push((free.memory_bytes, index as u32));
            }
        }
        self.by_cpu.sort_unstable();
        self.by_memory.sort_unstable();
        self.rebuilds += 1;
    }

    /// Number of eligible nodes in the index.
    pub fn eligible_count(&self) -> usize {
        self.by_cpu.len()
    }

    /// How many times [`sync`](Self::sync) rebuilt the index from scratch
    /// (patched and no-op syncs do not count).
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The cluster generation the index currently reflects, if any.
    pub fn generation(&self) -> Option<u64> {
        self.generation
    }

    /// Collect every eligible node whose free resources fit `requests`, in
    /// ascending [`NodeId`] order, into `out` (cleared first). Byte-identical
    /// to filtering every node with [`crate::DefaultScheduler::filter`] for a
    /// selector-free, toleration-free pod with the same requests.
    pub fn query_into(&self, requests: &Resources, out: &mut Vec<NodeId>) {
        out.clear();
        // Nodes with at least `requests.cpu_millis` free CPU form a suffix of
        // `by_cpu`; likewise for memory. Scan whichever suffix is shorter and
        // apply the exact two-sided fit check.
        let cpu_start = self
            .by_cpu
            .partition_point(|&(c, _)| c < requests.cpu_millis);
        let mem_start = self
            .by_memory
            .partition_point(|&(m, _)| m < requests.memory_bytes);
        let cpu_suffix = &self.by_cpu[cpu_start..];
        let mem_suffix = &self.by_memory[mem_start..];
        let scan = if cpu_suffix.len() <= mem_suffix.len() {
            cpu_suffix
        } else {
            mem_suffix
        };
        for &(_, index) in scan {
            if requests.fits_within(&self.available[index as usize]) {
                out.push(NodeId(index));
            }
        }
        out.sort_unstable();
    }

    /// Convenience wrapper around [`query_into`](Self::query_into).
    pub fn query(&self, requests: &Resources) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.query_into(requests, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affinity::{Taint, TaintEffect};
    use crate::pod::{PodId, PodSpec};
    use crate::scheduler::{DefaultScheduler, FilterResult};
    use simcore::rng::Rng;
    use simnet::NodeId as NetId;

    /// The reference implementation: filter every node with the real
    /// scheduler filter for a plain pod with the given requests.
    fn naive(cluster: &ClusterState, requests: &Resources) -> Vec<NodeId> {
        let pod = PodSpec::new("naive", *requests);
        cluster
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, node)| DefaultScheduler::filter(&pod, node) == FilterResult::Feasible)
            .map(|(index, _)| NodeId::from_index(index))
            .collect()
    }

    /// A varied world: mixed capacities, some cordoned, some tainted, some
    /// partially or fully loaded.
    fn varied_world(nodes: usize, seed: u64) -> ClusterState {
        let mut rng = Rng::seed_from_u64(seed);
        let mut cluster = ClusterState::new();
        for i in 0..nodes {
            let cores = 2 + rng.gen_range_usize(0, 7) as u64;
            let gib = 2 + rng.gen_range_usize(0, 15) as u64;
            let mut node = Node::new(
                format!("node-{i}"),
                NetId(i),
                Resources::from_cores_and_gib(cores, gib),
                "SITE",
            );
            match rng.gen_range_usize(0, 10) {
                0 => node.schedulable = false,
                1 => node.taints.push(Taint {
                    key: "dedicated".into(),
                    value: "infra".into(),
                    effect: TaintEffect::NoSchedule,
                }),
                2 => node.taints.push(Taint {
                    key: "flaky".into(),
                    value: "true".into(),
                    effect: TaintEffect::PreferNoSchedule,
                }),
                _ => {}
            }
            cluster.add_node(node);
        }
        // Load some nodes, a few to the brim.
        for i in 0..nodes {
            let load = rng.gen_range_usize(0, 4);
            if load == 0 {
                continue;
            }
            let node = cluster.node_by_id_mut(NodeId::from_index(i)).unwrap();
            let free = node.available();
            let req = if load == 1 {
                free // fill completely
            } else {
                Resources {
                    cpu_millis: free.cpu_millis / load as u64,
                    memory_bytes: free.memory_bytes / load as u64,
                }
            };
            node.bind(PodId(i as u64), req);
        }
        cluster
    }

    #[test]
    fn eligibility_is_the_scheduler_filter_for_a_zero_request_pod() {
        let probe = PodSpec::new("feasibility-probe", Resources::ZERO);
        let (mut eligible, mut ineligible) = (0, 0);
        for seed in 0..8 {
            for node in varied_world(40, seed).nodes() {
                let expected = DefaultScheduler::filter(&probe, node) == FilterResult::Feasible;
                assert_eq!(FeasibilityIndex::eligible(node), expected, "{}", node.name);
                if expected {
                    eligible += 1;
                } else {
                    ineligible += 1;
                }
            }
        }
        assert!(eligible > 0 && ineligible > 0, "both outcomes exercised");
    }

    #[test]
    fn query_matches_naive_filter_on_varied_worlds() {
        for seed in 0..8 {
            let cluster = varied_world(40, seed);
            let mut index = FeasibilityIndex::new();
            assert!(index.sync(&cluster));
            for (cpu, gib) in [(0, 0), (1, 1), (2, 4), (4, 2), (6, 8), (9, 1), (1, 16)] {
                let req = Resources::from_cores_and_gib(cpu, gib);
                assert_eq!(
                    index.query(&req),
                    naive(&cluster, &req),
                    "seed {seed}, request {cpu}c/{gib}GiB"
                );
            }
        }
    }

    #[test]
    fn sync_is_generation_keyed_and_patches_in_place() {
        let mut cluster = varied_world(10, 3);
        let mut index = FeasibilityIndex::new();
        assert!(index.sync(&cluster));
        assert_eq!(index.rebuilds(), 1);
        assert_eq!(index.generation(), Some(cluster.generation()));
        // Unchanged cluster: a single compare.
        assert!(!index.sync(&cluster));
        assert!(!index.sync(&cluster));
        assert_eq!(index.rebuilds(), 1);
        // A node mutation is patched in place: the index follows the cluster
        // without a rebuild.
        cluster.node_by_id_mut(NodeId(0)).unwrap().schedulable = false;
        assert!(!index.sync(&cluster));
        assert_eq!(index.rebuilds(), 1);
        assert_eq!(index.generation(), Some(cluster.generation()));
        let req = Resources::ZERO;
        assert_eq!(index.query(&req), naive(&cluster, &req));
        // A grown node table is rebuilt.
        cluster.add_node(Node::new(
            "late",
            NetId(99),
            Resources::from_cores_and_gib(4, 4),
            "SITE",
        ));
        assert!(index.sync(&cluster));
        assert_eq!(index.rebuilds(), 2);
        assert_eq!(index.query(&req), naive(&cluster, &req));
    }

    /// The index's whole state, for comparing a patched index with a rebuilt
    /// one.
    fn state(index: &FeasibilityIndex) -> impl PartialEq + std::fmt::Debug + '_ {
        (
            &index.available,
            &index.eligible,
            &index.by_cpu,
            &index.by_memory,
        )
    }

    #[test]
    fn patched_index_is_identical_to_a_rebuilt_one() {
        for seed in 0..6 {
            let mut cluster = varied_world(60, seed);
            let mut rng = Rng::seed_from_u64(seed ^ 0xFEA5);
            let mut index = FeasibilityIndex::new();
            index.sync(&cluster);
            for step in 0..200 {
                let id = NodeId::from_index(rng.gen_range_usize(0, 60));
                let pod = PodId(10_000 + step);
                let node = cluster.node_by_id_mut(id).unwrap();
                match rng.gen_range_usize(0, 5) {
                    0 => node.schedulable = !node.schedulable,
                    1 => {
                        if node.taints.is_empty() {
                            node.taints.push(Taint {
                                key: "dedicated".into(),
                                value: "infra".into(),
                                effect: TaintEffect::NoSchedule,
                            });
                        } else {
                            node.taints.clear();
                        }
                    }
                    2 => {
                        // Release everything bound to the node.
                        let bound: Vec<PodId> = node.bound_pods().collect();
                        let share = node.allocated();
                        if let Some(&first) = bound.first() {
                            // One pod holds the node's whole allocation in
                            // this fixture (each node binds at most one pod
                            // at a time below).
                            node.release(first, share);
                        }
                    }
                    _ => {
                        if node.pod_count() == 0 {
                            let free = node.available();
                            node.bind(
                                pod,
                                Resources {
                                    cpu_millis: free.cpu_millis / 2,
                                    memory_bytes: free.memory_bytes / 3,
                                },
                            );
                        }
                    }
                }
                // Sync after every mutation or after a few, so single and
                // multi-node patches both run.
                if step % 3 != 1 {
                    assert!(!index.sync(&cluster), "seed {seed} step {step}: patched");
                    let mut fresh = FeasibilityIndex::new();
                    fresh.sync(&cluster);
                    assert_eq!(state(&index), state(&fresh), "seed {seed} step {step}");
                }
            }
            assert_eq!(index.rebuilds(), 1);
        }
    }

    #[test]
    fn a_cluster_wide_change_rebuilds_instead_of_patching() {
        let mut cluster = varied_world(3 * MAX_PATCHED_NODES, 1);
        let mut index = FeasibilityIndex::new();
        index.sync(&cluster);
        // Exactly the patch budget: still patched.
        for node in cluster.nodes_mut().iter_mut().take(MAX_PATCHED_NODES) {
            node.allocatable.cpu_millis += 1000;
        }
        assert!(!index.sync(&cluster));
        // One more than the budget: rebuilt.
        for node in cluster.nodes_mut().iter_mut().take(MAX_PATCHED_NODES + 1) {
            node.allocatable.cpu_millis += 1000;
        }
        assert!(index.sync(&cluster));
        assert_eq!(index.rebuilds(), 2);
        let mut fresh = FeasibilityIndex::new();
        fresh.sync(&cluster);
        assert_eq!(state(&index), state(&fresh));
    }

    #[test]
    fn stale_index_reflects_old_world_until_synced() {
        let mut cluster = ClusterState::new();
        cluster.add_node(Node::new(
            "only",
            NetId(0),
            Resources::from_cores_and_gib(4, 4),
            "SITE",
        ));
        let mut index = FeasibilityIndex::new();
        index.sync(&cluster);
        assert_eq!(index.eligible_count(), 1);
        cluster.node_mut("only").unwrap().schedulable = false;
        // Until synced, the index still answers from the old generation.
        assert_eq!(index.query(&Resources::ZERO).len(), 1);
        assert!(!index.sync(&cluster), "one cordon is patched, not rebuilt");
        assert!(index.query(&Resources::ZERO).is_empty());
        assert_eq!(index.eligible_count(), 0);
    }

    #[test]
    fn empty_cluster_queries_are_empty() {
        let cluster = ClusterState::new();
        let mut index = FeasibilityIndex::new();
        assert!(index.sync(&cluster));
        assert!(index.query(&Resources::ZERO).is_empty());
        assert_eq!(index.eligible_count(), 0);
    }
}
