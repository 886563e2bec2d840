//! The borrowed scheduling context and the keyed decision view behind it.
//!
//! Placement decisions arrive one at a time or in bursts, and between any two
//! of them little changes: a pod was bound, perhaps a telemetry epoch landed.
//! Everything the ranker derives is a pure function of three versions — the
//! snapshot's [`revision`](ClusterSnapshot::revision), the cluster's
//! [`generation`](ClusterState::generation) and the predictor's
//! [`ModelVersion`] — so it lives in one `DecisionView`, carried inside
//! [`ContextScratch`] from one [`SchedulingContext`] to the next.
//! [`SchedulingContext::with_scratch`] *re-keys* the view instead of
//! discarding it; each of its three legs is refreshed only by what actually
//! invalidates it:
//!
//! * **Telemetry** — the dense [`NodeId`]-indexed [`IndexedTelemetry`]
//!   (per-node telemetry plus the Table-1 RTT statistics), keyed by
//!   `(snapshot revision, node count)`: handed the revision it already
//!   indexed, the view does nothing. A new revision is re-indexed — sealed
//!   RTT rows are copied, not re-accumulated — and diffed bitwise against
//!   the previous index; rows that differ are stamped in `changed_at` with a
//!   new telemetry version. Everything [`crate::SchedulerService`] hands in
//!   is a published, sealed epoch, so serving never sees revision 0; it
//!   still occurs for the snapshots experiments and tests build by hand or
//!   query by value and pass to [`SchedulingContext::new`] (and for the
//!   empty snapshot a service holds before the first publish), and those
//!   are re-indexed on every context — correct, merely not cached.
//! * **Cluster** — the feasible set, answered by a dense
//!   [`cluster::FeasibilityIndex`] (per-node free resources and eligibility)
//!   that refreshes itself in place when the generation moved, and cached
//!   per `(driver sizing, generation)`.
//! * **Model** — under a top-K budget ([`SchedulingContext::set_top_k`]) the
//!   supervised rank reads a pool of scoreboards of the model's per-node
//!   scores, keyed by `(ModelVersion, the job's signature cell)`: every job
//!   of a cell gets the same prediction on every node, for every model
//!   family ([`CompletionTimePredictor::signature_cells`]). Boards outlive
//!   bursts and epochs: a board that lags the telemetry version re-predicts
//!   only the rows stamped since it last synced, bit-identical to a rebuild
//!   (row predictions are batch-independent). A retrained or rewrapped model
//!   carries a new version and never matches an old board.
//!
//! A budgeted rank is the board's top K: one selection, a bounded heap under
//! the rank's own total order (`decision::rank_order`), cached under
//! `(driver sizing, generation)` plus `(budget, board slot, board stamp)`,
//! then sorted. No feature row is rebuilt and no model runs after the board
//! is synced, so the budgeted ranking is the unbudgeted ranking's first K
//! entries, bit for bit. A budget prunes only the supervised rank: the
//! service's bootstrap fallback ranks the whole feasible set. The context
//! also owns the per-decision feature / prediction scratch, so steady-state
//! decisions allocate only their output ranking.
//!
//! Every supervised ranking — the service's, Table 4's, the sweep's and the
//! ablation's — is [`SchedulingContext::rank_feasible_batch_into`]. With
//! pruning disabled (`top_k = None`, the default) it ranks the whole
//! feasible set; with `top_k = K ≥ |feasible|` it is byte-identical to
//! that, by construction.

use crate::decision::{rank_order, DecisionModule, NodeRanking, RankedNode};
use crate::predictor::{CompletionTimePredictor, ModelVersion};
use crate::request::JobRequest;
use cluster::{ClusterState, FeasibilityIndex, NodeId};
use mlcore::FeatureMatrix;
use telemetry::{ClusterSnapshot, IndexedTelemetry, NodeTelemetry};

/// The stage-one scorer a [`top-K budget`](SchedulingContext::set_top_k)
/// prunes with. There is one: the model's own scoreboard. The enum, like
/// [`SchedulingContext::set_pruning_policy`] and
/// [`crate::service::SchedulerConfig::pruning_policy`], changes nothing and
/// remains only because the serving-loop benchmark in `benchmark/` still
/// names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PruningPolicy {
    /// Supervised ranks read the decision model's own scoreboard: the pruned
    /// ranking is the unpruned ranking's first K entries.
    #[default]
    ModelAligned,
}

/// How many scoreboards the pool keeps before evicting the oldest. Streams
/// touching up to this many (model, job cell) pairs pay the full-cluster
/// inference once per pair; at 10k nodes a board is ~80 KB, so even a full
/// pool stays a few MB of scratch.
const MAX_BOARDS: usize = 64;

/// One scoreboard: a model's exact score for every node, shared by every job
/// in one signature cell.
#[derive(Debug, Clone)]
struct ScoreBoard {
    /// The model the scores came from.
    version: ModelVersion,
    /// The job's signature cell the scores belong to.
    sig: Vec<f64>,
    /// One score per node (index = `NodeId::index`).
    scores: Vec<f64>,
    /// The telemetry version the scores reflect.
    synced_at: u64,
    /// Renewed whenever `scores` change; what the selection cache keys on.
    stamp: u64,
}

/// What the cached feasible set and stage-one selection were derived from.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SelectionKey {
    /// Driver sizing and cluster generation behind `candidates`.
    feasible: Option<(u64, u64, u64)>,
    /// Budget, board slot and [`ScoreBoard::stamp`] behind the selection in
    /// [`ContextScratch::heap`]; `None` until a selection ran over the
    /// current `candidates`.
    stage_one: Option<(usize, usize, u64)>,
}

/// Everything the ranker derives from (snapshot, cluster, model), kept across
/// contexts and refreshed leg by leg (see the module docs).
#[derive(Debug, Clone, Default)]
struct DecisionView {
    telemetry: IndexedTelemetry,
    /// The previous index, kept to diff the next one against (and as its
    /// buffer).
    spare: IndexedTelemetry,
    /// `(snapshot revision, node count)` `telemetry` was indexed from;
    /// revision 0 (unsealed) never matches.
    telemetry_key: (u64, usize),
    /// Bumped by every re-index that changed at least one row.
    telemetry_version: u64,
    /// Per node: the telemetry version at which its row last changed.
    changed_at: Vec<u64>,
    /// Dense feasibility index; syncs itself against the cluster
    /// generation, in place.
    index: FeasibilityIndex,
    /// The full feasible set (pre-pruning) for `key.feasible`.
    candidates: Vec<NodeId>,
    key: SelectionKey,
    /// Scoreboard pool, one per (model, job cell) seen, bounded by
    /// [`MAX_BOARDS`].
    boards: Vec<ScoreBoard>,
    /// The slot the next board evicts once the pool is full (oldest first).
    next_evicted: usize,
    /// Source of [`ScoreBoard::stamp`]s.
    next_stamp: u64,
}

impl DecisionView {
    /// Re-key the telemetry leg to `snapshot`: nothing when its revision is
    /// the one already indexed, else re-index and stamp the rows that differ.
    fn adopt(&mut self, snapshot: &ClusterSnapshot, cluster: &ClusterState) {
        let key = (snapshot.revision(), cluster.node_count());
        if key.0 != 0 && key == self.telemetry_key {
            return;
        }
        self.telemetry_key = key;
        std::mem::swap(&mut self.telemetry, &mut self.spare);
        snapshot.index_into(cluster, &mut self.telemetry);
        self.changed_at.resize(self.telemetry.len(), 0);
        let version = self.telemetry_version + 1;
        let changed_at = &mut self.changed_at;
        let mut changed = false;
        self.telemetry.changed_rows(&self.spare, |id| {
            changed = true;
            if let Some(at) = changed_at.get_mut(id.index()) {
                *at = version;
            }
        });
        if changed {
            self.telemetry_version = version;
        }
    }

    /// A pool slot for a board the pool does not hold: a new one while the
    /// pool is under [`MAX_BOARDS`], else the oldest (FIFO). Only growing
    /// the pool allocates; the caller re-initialises the slot in place.
    fn claim_board_slot(&mut self, version: ModelVersion) -> usize {
        if self.boards.len() < MAX_BOARDS {
            self.boards.push(ScoreBoard {
                version,
                sig: Vec::new(),
                scores: Vec::new(),
                synced_at: 0,
                stamp: 0,
            });
            return self.boards.len() - 1;
        }
        let oldest = self.next_evicted;
        self.next_evicted = (oldest + 1) % MAX_BOARDS;
        oldest
    }
}

/// The reusable state behind a [`SchedulingContext`], detached from any
/// snapshot borrow so a long-lived owner (the scheduler service) can carry it
/// from one context to the next: the keyed `DecisionView` plus
/// per-decision buffers. Warm decisions over a fixed cluster size touch no
/// heap.
///
/// The scratch must be reused against the same logical cluster: the view is
/// keyed by [`ClusterState::generation`] and the node count, which are
/// monotone per cluster instance, not globally unique.
#[derive(Debug, Clone, Default)]
pub struct ContextScratch {
    view: DecisionView,
    /// Bounded max-heap for top-K selection: the worst survivor sits at the
    /// root and is evicted when a better candidate arrives, so selection is
    /// `O(n log K)` with no allocation past warmup. Between decisions it
    /// holds the entries of the selection `view.key.stage_one` names, which
    /// a budgeted ranking is sorted from.
    heap: Vec<RankedNode>,
    /// Scratch for building the signature row without allocating.
    sig_scratch: Vec<f64>,
    /// Scratch: the rows a lagging scoreboard re-predicts.
    dirty: Vec<NodeId>,
    /// One prediction per candidate (or per dirty scoreboard row).
    predictions: Vec<f64>,
    /// The candidate × feature matrix one batch inference runs over (one
    /// contiguous buffer, reused across decisions).
    features: FeatureMatrix,
}

impl ContextScratch {
    /// How many times the carried feasibility index was rebuilt: its first
    /// build plus one per node-table size change (as opposed to refreshed in
    /// place or answered from cache).
    pub(crate) fn feasibility_rebuilds(&self) -> u64 {
        self.view.index.rebuilds()
    }
}

/// Offer `entry` to a bounded max-heap of the `k` smallest entries under
/// [`rank_order`], the order every ranking is sorted by: while
/// under budget the entry is pushed and sifted up; at budget it replaces the
/// root (the worst survivor) only when strictly better, then sifts down
/// (`k = 0` keeps nothing). Because the order is total and shared, the heap
/// keeps exactly the nodes the unpruned rank puts first, whatever the
/// scores — NaN of either sign, signed zeros and infinities included.
fn bounded_heap_offer(heap: &mut Vec<RankedNode>, k: usize, entry: RankedNode) {
    let worse = |a: &RankedNode, b: &RankedNode| rank_order(a, b).is_gt();
    if heap.len() < k {
        heap.push(entry);
        let mut at = heap.len() - 1;
        while at > 0 {
            let parent = (at - 1) / 2;
            if worse(&heap[at], &heap[parent]) {
                heap.swap(at, parent);
                at = parent;
            } else {
                break;
            }
        }
    } else if k > 0 && worse(&heap[0], &entry) {
        heap[0] = entry;
        let mut at = 0;
        loop {
            let left = 2 * at + 1;
            let right = 2 * at + 2;
            let mut worst = at;
            if left < heap.len() && worse(&heap[left], &heap[worst]) {
                worst = left;
            }
            if right < heap.len() && worse(&heap[right], &heap[worst]) {
                worst = right;
            }
            if worst == at {
                break;
            }
            heap.swap(at, worst);
            at = worst;
        }
    }
}

/// One or more decisions against a borrowed snapshot and cluster: the world
/// view plus the carried [`ContextScratch`].
#[derive(Debug)]
pub struct SchedulingContext<'a> {
    cluster: &'a ClusterState,
    scratch: ContextScratch,
    /// Candidate-pruning budget of the supervised rank. `None` disables
    /// pruning.
    top_k: Option<usize>,
}

impl<'a> SchedulingContext<'a> {
    /// Build a context against a frozen snapshot and cluster state from
    /// nothing: one pass over the snapshot, then per-decision work only.
    pub fn new(snapshot: &'a ClusterSnapshot, cluster: &'a ClusterState) -> Self {
        Self::with_scratch(snapshot, cluster, ContextScratch::default())
    }

    /// Build a context on the state carried over from a previous one. The
    /// decision view is re-keyed, not invalidated: a snapshot revision it
    /// already indexed costs one compare, and every leg stays valid as long
    /// as its own key holds (see the module docs). The budget starts unset.
    pub fn with_scratch(
        snapshot: &'a ClusterSnapshot,
        cluster: &'a ClusterState,
        mut scratch: ContextScratch,
    ) -> Self {
        scratch.view.adopt(snapshot, cluster);
        SchedulingContext {
            cluster,
            scratch,
            top_k: None,
        }
    }

    /// Release the context's state for reuse by a later context.
    pub fn into_scratch(self) -> ContextScratch {
        self.scratch
    }

    /// Set the candidate-pruning budget: the supervised rank scores at most
    /// `k` candidates per decision, the `k` best by the model's scoreboard.
    /// `None` (the default) ranks the full feasible set; any
    /// `k ≥ |feasible|` is equivalent to `None`. The service's bootstrap
    /// fallback ignores the budget.
    pub fn set_top_k(&mut self, k: Option<usize>) {
        self.top_k = k;
    }

    /// Does nothing: the model's scoreboard is the only stage-one scorer
    /// (see [`PruningPolicy`]).
    pub fn set_pruning_policy(&mut self, _policy: PruningPolicy) {}

    /// Host telemetry for one node (`None` when it was not scraped).
    pub fn node_telemetry(&self, id: NodeId) -> Option<&NodeTelemetry> {
        self.scratch.view.telemetry.node(id)
    }

    /// Precomputed (mean, max, std-dev) RTT statistics from one node.
    pub fn rtt_stats(&self, id: NodeId) -> (f64, f64, f64) {
        self.scratch.view.telemetry.rtt_stats(id)
    }

    /// Ids of the nodes on which the job's driver pod passes the default
    /// scheduler's filtering phase (cordon, resource fit, hostname pin). The
    /// supervised rank, the bootstrap fallback and
    /// [`crate::KubeDefaultScheduler::rank`] all rank this same candidate set,
    /// so comparisons are apples-to-apples.
    ///
    /// The set is answered by the view's [`FeasibilityIndex`] — one
    /// branch-free pass over two dense per-node arrays (≈ 12 µs at 10k
    /// nodes), instead of running the filter on every [`cluster::Node`] —
    /// and is byte-identical (membership and ascending-id order) to
    /// filtering every node with [`cluster::DefaultScheduler::filter`], which
    /// driver pods reduce to exactly (they are unpinned while being ranked).
    ///
    /// Cached per `(driver sizing, cluster generation)` — an unpinned driver
    /// pod's feasibility depends on nothing else — across contexts too; a
    /// burst that alternates sizings misses every time and pays the pass.
    pub fn feasible_candidates(&mut self, request: &JobRequest) -> &[NodeId] {
        let feasible = Some((
            request.driver_cpu_millis,
            request.driver_memory_bytes,
            self.cluster.generation(),
        ));
        let view = &mut self.scratch.view;
        if view.key.feasible != feasible {
            view.index.sync(self.cluster);
            view.index
                .query_into(&request.driver_resources(), &mut view.candidates);
            view.key = SelectionKey {
                feasible,
                stage_one: None,
            };
        }
        &view.candidates
    }

    /// Stage one: the `k` best entries of the cached feasible set by
    /// scoreboard `slot` (whose scores carry `stamp`), left in the scratch's
    /// bounded heap. Cached under the view's one [`SelectionKey`].
    fn select_top_k(&mut self, k: usize, slot: usize, stamp: u64) {
        let stage_one = Some((k, slot, stamp));
        let view = &mut self.scratch.view;
        if view.key.stage_one == stage_one {
            return;
        }
        let heap = &mut self.scratch.heap;
        heap.clear();
        let scores = &view.boards[slot].scores;
        for &node in &view.candidates {
            let predicted_seconds = scores[node.index()];
            bounded_heap_offer(
                heap,
                k,
                RankedNode {
                    node,
                    predicted_seconds,
                },
            );
        }
        view.key.stage_one = stage_one;
    }

    /// Rank the (pruned) feasible candidates by supervised completion-time
    /// predictions (see [`SchedulingContext::rank_feasible_batch_into`]).
    pub fn rank_feasible_batch(
        &mut self,
        request: &JobRequest,
        predictor: &CompletionTimePredictor,
    ) -> NodeRanking {
        let mut out = NodeRanking::default();
        self.rank_feasible_batch_into(request, predictor, &mut out);
        out
    }

    /// Rank the (pruned) feasible candidates by supervised completion-time
    /// predictions into `out`, reusing its buffer; every intermediate lives
    /// in the context's scratch, so a steady-state decision touches no heap.
    ///
    /// Unbudgeted (`top_k = None`, or `K ≥ |feasible|`), the candidate ×
    /// feature matrix is built row by row into one contiguous scratch buffer
    /// and streams through the model in **one batch inference call**.
    ///
    /// Under a binding budget (`top_k = Some(K) < |feasible|`) no feature row
    /// is built and no model runs after the view's scoreboard for the job's
    /// signature cell is synced: the board holds every node's exact score,
    /// for every model family ([`CompletionTimePredictor::signature_cells`]),
    /// so its K best entries, selected under the rank's own total order and
    /// sorted by it, are the unbudgeted ranking's first K entries, bit for
    /// bit, at the cost of an `O(n)` top-K selection.
    pub fn rank_feasible_batch_into(
        &mut self,
        request: &JobRequest,
        predictor: &CompletionTimePredictor,
        out: &mut NodeRanking,
    ) {
        let feasible_len = self.feasible_candidates(request).len();
        if let Some(k) = self.top_k.filter(|&k| k < feasible_len) {
            let (slot, stamp) = self.sync_board(request, predictor);
            self.select_top_k(k, slot, stamp);
            out.ranked.clear();
            out.ranked.extend_from_slice(&self.scratch.heap);
            out.ranked.sort_unstable_by(rank_order);
            return;
        }
        let schema = predictor.schema();
        let view = &self.scratch.view;
        self.scratch.features.reset(schema.len());
        for &id in &view.candidates {
            let node = view.telemetry.node(id).copied().unwrap_or_default();
            let rtt_stats = view.telemetry.rtt_stats(id);
            schema.construct_into_matrix(&mut self.scratch.features, &node, rtt_stats, request);
        }
        predictor.predict_batch_into(&self.scratch.features, &mut self.scratch.predictions);
        DecisionModule.rank_into(&view.candidates, &self.scratch.predictions, out);
    }

    /// Bring the scoreboard for this (model version, job-signature cell) pair
    /// up to date with the view's telemetry and return its pool slot and
    /// [`ScoreBoard::stamp`]. A miss claims a slot (growing the pool, then
    /// refilling the oldest board's buffers) and scores the whole cluster in
    /// one batch inference; a hit that lags the telemetry version re-predicts
    /// only the rows stamped since; a current hit is a pool lookup. Rows use
    /// the request's own job columns: every job of a cell scores every node
    /// identically.
    fn sync_board(
        &mut self,
        request: &JobRequest,
        predictor: &CompletionTimePredictor,
    ) -> (usize, u64) {
        let schema = predictor.schema();
        let nodes = self.cluster.node_count();
        let ContextScratch {
            view,
            sig_scratch: sig,
            dirty,
            predictions,
            features,
            ..
        } = &mut self.scratch;
        schema.construct_into(sig, &NodeTelemetry::default(), (0.0, 0.0, 0.0), request);
        predictor.signature_cells(sig);
        let version = predictor.version();
        let hit = view
            .boards
            .iter()
            .position(|board| board.version == version && board.sig == *sig);
        let slot = hit.unwrap_or_else(|| {
            let slot = view.claim_board_slot(version);
            let board = &mut view.boards[slot];
            board.version = version;
            board.sig.clone_from(sig);
            board.scores.clear();
            slot
        });
        let board = &mut view.boards[slot];
        dirty.clear();
        if board.scores.len() != nodes {
            board.scores.resize(nodes, 0.0);
            dirty.extend((0..nodes).map(NodeId::from_index));
        } else if board.synced_at != view.telemetry_version {
            let since = board.synced_at;
            dirty.extend(
                (0..nodes)
                    .filter(|&index| view.changed_at[index] > since)
                    .map(NodeId::from_index),
            );
        }
        board.synced_at = view.telemetry_version;
        if !dirty.is_empty() {
            features.reset(schema.len());
            for &id in dirty.iter() {
                let node = view.telemetry.node(id).copied().unwrap_or_default();
                let rtt_stats = view.telemetry.rtt_stats(id);
                schema.construct_into_matrix(features, &node, rtt_stats, request);
            }
            predictor.predict_batch_into(features, predictions);
            for (&id, &score) in dirty.iter().zip(predictions.iter()) {
                board.scores[id.index()] = score;
            }
            view.next_stamp += 1;
            board.stamp = view.next_stamp;
        }
        (slot, board.stamp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Node, PodSpec, Resources};
    use simcore::SimTime;
    use sparksim::WorkloadKind;
    use telemetry::NodeTelemetry;

    fn cluster(n: usize) -> ClusterState {
        let mut c = ClusterState::new();
        for i in 0..n {
            c.add_node(Node::new(
                format!("node-{}", i + 1),
                simnet::NodeId(i),
                Resources::from_cores_and_gib(6, 8),
                "SITE",
            ));
        }
        c
    }

    fn snapshot(n: usize) -> ClusterSnapshot {
        let mut snap = ClusterSnapshot::at(SimTime::from_secs(10));
        for i in 0..n {
            let name = format!("node-{}", i + 1);
            snap.insert_node(
                &name,
                NodeTelemetry {
                    cpu_load: i as f64,
                    memory_available_bytes: 6e9,
                    tx_rate: 0.0,
                    rx_rate: 0.0,
                },
            );
            for j in 0..n {
                if i != j {
                    snap.insert_rtt(&name, &format!("node-{}", j + 1), 0.01 * (i + 1) as f64);
                }
            }
        }
        snap
    }

    fn request(name: &str) -> JobRequest {
        JobRequest::named(name, WorkloadKind::Sort, 100_000, 2)
    }

    #[test]
    fn context_exposes_indexed_telemetry() {
        let c = cluster(3);
        let snap = snapshot(3);
        let ctx = SchedulingContext::new(&snap, &c);
        let id = c.node_id("node-2").unwrap();
        assert_eq!(ctx.node_telemetry(id).unwrap().cpu_load, 1.0);
        let (mean, _, _) = ctx.rtt_stats(id);
        assert!((mean - 0.02).abs() < 1e-12);
    }

    #[test]
    fn feasibility_is_cached_per_driver_sizing_and_refreshed_on_change() {
        let mut c = cluster(3);
        // Fill node-2 completely.
        let id = c.create_pod(
            PodSpec::new("hog", Resources::from_cores_and_gib(6, 8)),
            SimTime::ZERO,
        );
        c.bind_pod(id, "node-2", SimTime::ZERO).unwrap();
        let snap = snapshot(3);
        let mut ctx = SchedulingContext::new(&snap, &c);

        let small_a = ctx.feasible_candidates(&request("a")).to_vec();
        assert_eq!(
            small_a,
            vec![c.node_id("node-1").unwrap(), c.node_id("node-3").unwrap()]
        );
        // Same sizing, different job: served from cache (same result).
        let small_b = ctx.feasible_candidates(&request("b")).to_vec();
        assert_eq!(small_a, small_b);

        // An oversized driver fits nowhere; the cache must not serve the
        // small-driver result.
        let huge = request("huge").with_driver_resources(64_000, 64 * 1024 * 1024 * 1024);
        assert!(ctx.feasible_candidates(&huge).is_empty());
        // And switching back recomputes the small set.
        assert_eq!(ctx.feasible_candidates(&request("c")).to_vec(), small_a);
    }

    /// A linear predictor trained to prefer *high*-load nodes, so a stage one
    /// that ranked by load or headroom instead of the model's own scores
    /// would keep the wrong nodes.
    fn prefers_loaded_nodes() -> CompletionTimePredictor {
        use crate::features::FeatureSchema;
        use mlcore::{Dataset, ModelConfig, ModelKind, TrainedModel};
        use simcore::Rng;

        let schema = FeatureSchema::standard();
        let mut data = Dataset::new(schema.len());
        let job = request("train");
        for load in 0..30 {
            let mut snap = snapshot(1);
            snap.node_mut("node-1").unwrap().cpu_load = load as f64 / 5.0;
            let features = schema.construct(&snap, "node-1", &job);
            data.push(features, 40.0 - 4.0 * load as f64 / 5.0).unwrap();
        }
        let mut rng = Rng::seed_from_u64(5);
        let model =
            TrainedModel::train(ModelKind::Linear, &ModelConfig::default(), &data, &mut rng);
        CompletionTimePredictor::new(schema, model).unwrap()
    }

    /// `(node, score bits)` per entry: NaN scores compare unequal under
    /// `PartialEq`, their bits do not.
    fn bits(ranking: &NodeRanking) -> Vec<(NodeId, u64)> {
        ranking
            .ranked
            .iter()
            .map(|r| (r.node, r.predicted_seconds.to_bits()))
            .collect()
    }

    #[test]
    fn heap_selection_is_the_exact_ranks_prefix_for_every_score() {
        let scores = [
            1.5,
            f64::NAN,
            -0.0,
            -f64::NAN,
            f64::INFINITY,
            0.0,
            f64::NEG_INFINITY,
            -2.0,
            -0.0,
            -f64::NAN,
            1.5,
            0.0,
        ];
        let ids: Vec<NodeId> = (0..scores.len()).map(NodeId::from_index).collect();
        let full = bits(&DecisionModule.rank(&ids, &scores));
        let mut heap = Vec::new();
        for reversed in [false, true] {
            for k in 0..=scores.len() + 1 {
                heap.clear();
                let mut offered: Vec<RankedNode> = scores
                    .iter()
                    .zip(&ids)
                    .map(|(&predicted_seconds, &node)| RankedNode {
                        node,
                        predicted_seconds,
                    })
                    .collect();
                if reversed {
                    offered.reverse();
                }
                for entry in offered {
                    bounded_heap_offer(&mut heap, k, entry);
                }
                let mut kept: Vec<NodeId> = heap.iter().map(|r| r.node).collect();
                kept.sort_unstable();
                let kept_scores: Vec<f64> = kept.iter().map(|id| scores[id.index()]).collect();
                let pruned = bits(&DecisionModule.rank(&kept, &kept_scores));
                assert_eq!(
                    pruned,
                    full[..k.min(scores.len())],
                    "K = {k}, reversed = {reversed}"
                );
            }
        }
    }

    #[test]
    fn budgeted_batch_rank_preserves_the_unpruned_decision_prefix() {
        let predictor = prefers_loaded_nodes();
        let c = cluster(8);
        let snap = snapshot(8);
        let mut ctx = SchedulingContext::new(&snap, &c);
        let full = ctx.rank_feasible_batch(&request("a"), &predictor);
        assert_eq!(full.len(), 8);
        // The model's winner is the highest-load node.
        assert_eq!(full.best().unwrap().node, c.node_id("node-8").unwrap());

        // At every budget the pruned ranking is exactly the first K entries
        // of the unpruned one (scores included): stage one kept the K best
        // nodes by the model's own ordering. K = 0 ranks nothing.
        for k in 0..=8usize {
            ctx.set_top_k(Some(k));
            let pruned = ctx.rank_feasible_batch(&request("a"), &predictor);
            assert_eq!(pruned.ranked.as_slice(), &full.ranked[..k], "K = {k}");
        }
        ctx.set_top_k(Some(1_000));
        let oversized = ctx.rank_feasible_batch(&request("a"), &predictor);
        assert_eq!(oversized, full);

        // A different workload class re-keys the scoreboard and stays exact.
        let other = JobRequest::named("b", WorkloadKind::Join, 50_000, 3);
        ctx.set_top_k(None);
        let full_other = ctx.rank_feasible_batch(&other, &predictor);
        ctx.set_top_k(Some(2));
        let pruned_other = ctx.rank_feasible_batch(&other, &predictor);
        assert_eq!(pruned_other.ranked.as_slice(), &full_other.ranked[..2]);
    }

    #[test]
    fn stage_one_cache_tracks_driver_sizing_and_budget() {
        let mut c = cluster(4);
        let id = c.create_pod(
            PodSpec::new("hog", Resources::from_cores_and_gib(6, 8)),
            SimTime::ZERO,
        );
        c.bind_pod(id, "node-4", SimTime::ZERO).unwrap();
        let snap = snapshot(4);
        let predictor = prefers_loaded_nodes();
        let mut ctx = SchedulingContext::new(&snap, &c);

        ctx.set_top_k(Some(2));
        let two = ctx.rank_feasible_batch(&request("a"), &predictor);
        let nodes: Vec<NodeId> = two.ranked.iter().map(|r| r.node).collect();
        assert_eq!(nodes, vec![NodeId(2), NodeId(1)]);
        // A budget change must invalidate the cached selection…
        ctx.set_top_k(Some(1));
        let one = ctx.rank_feasible_batch(&request("a"), &predictor);
        assert_eq!(one.ranked.as_slice(), &two.ranked[..1]);
        // …and so must a sizing change (the oversized driver fits nowhere).
        let huge = request("huge").with_driver_resources(64_000, 64 * 1024 * 1024 * 1024);
        assert!(ctx.rank_feasible_batch(&huge, &predictor).is_empty());
        ctx.set_top_k(Some(2));
        assert_eq!(ctx.rank_feasible_batch(&request("b"), &predictor), two);
    }

    #[test]
    fn scratch_reuse_keeps_the_feasibility_index_warm() {
        let mut c = cluster(4);
        let snap = snapshot(4);
        let ctx = SchedulingContext::new(&snap, &c);
        let mut scratch = ctx.into_scratch();
        assert_eq!(scratch.feasibility_rebuilds(), 0, "no query yet");

        // The first context builds the index once; a second one over the
        // unchanged cluster reuses it (generation-keyed).
        for _ in 0..2 {
            let mut ctx = SchedulingContext::with_scratch(&snap, &c, scratch);
            assert_eq!(ctx.feasible_candidates(&request("a")).len(), 4);
            scratch = ctx.into_scratch();
        }
        assert_eq!(scratch.feasibility_rebuilds(), 1);

        // A cluster mutation between contexts refreshes the carried index in
        // place: the answer follows the cluster without a rebuild.
        c.node_mut("node-4").unwrap().schedulable = false;
        let mut ctx = SchedulingContext::with_scratch(&snap, &c, scratch);
        assert_eq!(ctx.feasible_candidates(&request("a")).len(), 3);
        scratch = ctx.into_scratch();
        assert_eq!(scratch.feasibility_rebuilds(), 1);
    }

    #[test]
    fn boards_survive_contexts_and_refresh_only_what_changed() {
        use crate::features::FeatureSchema;
        use mlcore::{Dataset, ModelConfig, ModelKind, TrainedModel};
        use simcore::Rng;

        // A forest whose prediction grows with the candidate's CPU load.
        let schema = FeatureSchema::standard();
        let mut data = Dataset::new(schema.len());
        for step in 0..60 {
            let mut snap = snapshot(1);
            snap.node_mut("node-1").unwrap().cpu_load = step as f64 / 6.0;
            let features = schema.construct(&snap, "node-1", &request("train"));
            data.push(features, 50.0 + step as f64).unwrap();
        }
        let model = TrainedModel::train(
            ModelKind::RandomForest,
            &ModelConfig::default(),
            &data,
            &mut Rng::seed_from_u64(5),
        );
        let predictor = CompletionTimePredictor::new(schema, model).unwrap();

        let c = cluster(12);
        let mut snap = snapshot(12);
        let job = request("a");
        let mut scratch = ContextScratch::default();
        // A long-lived scratch ranks exactly like a cold context.
        let rank = |scratch: ContextScratch, snap: &ClusterSnapshot| {
            let mut warm = SchedulingContext::with_scratch(snap, &c, scratch);
            warm.set_top_k(Some(3));
            let mut cold = SchedulingContext::new(snap, &c);
            cold.set_top_k(Some(3));
            assert_eq!(
                warm.rank_feasible_batch(&job, &predictor),
                cold.rank_feasible_batch(&job, &predictor)
            );
            warm.into_scratch()
        };
        for epoch in 0..6 {
            // Unsealed (revision 0) and sealed snapshots alike: contents are
            // diffed, so either way only real changes dirty a board.
            if epoch % 2 == 1 {
                snap.seal();
            }
            scratch = rank(scratch, &snap);
            let stamp = scratch.view.boards[0].stamp;
            // Same telemetry again: the board is current, its scores untouched.
            scratch = rank(scratch, &snap);
            assert_eq!(scratch.view.boards.len(), 1);
            assert_eq!(scratch.view.boards[0].stamp, stamp);
            // Next epoch: the best node becomes the worst; one row to refresh.
            let name = format!("node-{}", epoch + 1);
            snap.node_mut(&name).unwrap().cpu_load = 40.0 + epoch as f64;
        }
        assert_eq!(scratch.view.telemetry_version, 6);
    }
}
