//! Scatter-gather queries over a shard forest with a shared τ bound.
//!
//! A sharded index (`fuzzy_index::ShardedIndex`, or any slice of
//! [`NodeAccess`] backends over one object store) answers AKNN by
//! *scatter-gather*: one best-first search per shard, merged by exact
//! distance. Run naively that does S× the work of a single tree; the
//! paper's Eq.-2 pruning generalizes across trees through one shared
//! bound:
//!
//! * [`SharedTau`] — the global k-th-best **upper bound** τ (squared), an
//!   `AtomicU64` over the IEEE-754 bit pattern (non-negative doubles
//!   order identically as integers, so `fetch_min` on bits is `min` on
//!   distances). Every per-shard search publishes its running k-th-best
//!   live upper bound into it and reads it back at each heap pop, so a
//!   late shard prunes against candidates an earlier shard already found
//!   — often at its root, without a single node read.
//! * Shards are visited in ascending root-rectangle distance from the
//!   query cut, so the shard most likely to contain the answer runs
//!   first and seeds τ tightly for the rest.
//! * Every prune compares strictly against an ulp-inflated τ, so exact
//!   ties survive and the merged answer is **byte-identical** to a
//!   single tree over the union (`crates/query/tests/shard_determinism.rs`
//!   proves this cell by cell; `shard_props.rs` property-checks pruned
//!   against unpruned scatter-gather).
//!
//! [`ShardedQueryEngine`] is the read facade (AKNN/RKNN/join);
//! [`ShardedDynamicEngine`] adds per-shard mutation locks (one
//! [`Versioned`] master per shard — writers to different shards never
//! contend) and shard-parallel compaction.

use crate::aknn::{
    inflate_sq, resolve_pool, search, AknnConfig, FoundNeighbor, QueryScratch, SearchMode,
    SearchOutcome,
};
use crate::epoch::Versioned;
use crate::error::QueryError;
use crate::join::{alpha_distance_join, JoinResult};
use crate::result::{AknnResult, Neighbor, RknnResult};
use crate::rknn::{self, RknnAlgorithm};
use crate::stats::QueryStats;
use fuzzy_core::metric::{Metric, L2};
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary, Threshold};
use fuzzy_geom::Mbr;
use fuzzy_index::{MutableIndex, NodeAccess, OverlayRTree};
use fuzzy_store::{ObjectStore, StoreError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The global k-th-best upper bound τ (squared α-distance) shared by the
/// per-shard searches of one scatter-gather query.
///
/// Stored as the IEEE-754 bit pattern of a non-negative `f64` in an
/// `AtomicU64`: for non-negative doubles the unsigned bit order *is* the
/// numeric order, so [`SharedTau::observe`] is a lock-free `fetch_min`.
/// The bound is monotonically non-increasing over the query's lifetime —
/// a reader may see a stale (larger) value, which only weakens pruning,
/// never correctness. One instance lives exactly as long as one query.
#[derive(Debug)]
pub struct SharedTau(AtomicU64);

impl Default for SharedTau {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedTau {
    /// A fresh bound: τ = +∞ (nothing prunes).
    pub fn new() -> Self {
        Self(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// Publish a sound bound: at least `k` distinct objects are known to
    /// lie within `tau_sq` (squared). Keeps the minimum of all published
    /// values; non-finite or negative inputs are ignored.
    pub fn observe(&self, tau_sq: f64) {
        if tau_sq.is_finite() && tau_sq >= 0.0 {
            self.0.fetch_min(tau_sq.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current bound (squared); `+∞` until the first observation.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Reusable scratch for scatter-gather queries: one [`QueryScratch`] lane
/// per shard, grown on demand and retained across queries — a worker
/// thread owns one `ShardScratch` and answers any stream of sharded
/// queries allocation-free in steady state.
pub struct ShardScratch<const D: usize> {
    lanes: Vec<QueryScratch<D>>,
}

impl<const D: usize> Default for ShardScratch<D> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const D: usize> ShardScratch<D> {
    /// Empty scratch; lanes appear as shards are searched.
    pub fn new() -> Self {
        Self { lanes: Vec::new() }
    }

    /// The scratch lane dedicated to shard `i`.
    pub(crate) fn lane(&mut self, i: usize) -> &mut QueryScratch<D> {
        while self.lanes.len() <= i {
            self.lanes.push(QueryScratch::new());
        }
        &mut self.lanes[i]
    }
}

/// Compare two exact-distance neighbours canonically: by distance, ties
/// by object id. This is the merge order of every scatter-gather result,
/// independent of shard count and visit order.
fn canonical_cmp<const D: usize>(a: &FoundNeighbor<D>, b: &FoundNeighbor<D>) -> std::cmp::Ordering {
    a.dist.hi().total_cmp(&b.dist.hi()).then(a.id.cmp(&b.id))
}

/// Scatter-gather AKNN over a shard forest: per-shard *lazy* best-first
/// searches sharing τ through `SharedTau`, then one gather phase
/// ([`crate::aknn::resolve_pool`]) that resolves the merged candidate
/// pool to exact distances in global lower-bound order, merged
/// canonically (distance, then id) and truncated to `k`.
///
/// Shards are visited in ascending `root_mbr → query-cut` distance (ties
/// by shard index), so the most promising shard establishes τ first and
/// later shards prune against it — a shard whose root rectangle already
/// lies beyond τ is dismissed at its root pop with **zero** node reads
/// and zero object probes. After each shard, every pooled candidate's
/// tightest bound is carried into the next shard's seed tracker and the
/// pool's k-th-best bound is published as τ, so later shards hold the
/// same candidate-granularity domination a single tree would. Object
/// probes are deferred to the gather phase wherever the variant allows
/// (the scatter runs lazy), which keeps total probes at S shards from
/// exceeding the single-shard baseline: the gather probes in exactly
/// the order a single tree would.
///
/// `pruned = false` runs every shard independently (no τ exchange) —
/// the reference the property suite compares against.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sharded_search<M: Metric<D>, A: NodeAccess<D>, S: ObjectStore<D>, const D: usize>(
    metric: &M,
    shards: &[A],
    store: &S,
    q: &FuzzyObject<D>,
    k: usize,
    t: Threshold,
    cfg: &AknnConfig,
    pruned: bool,
    scratch: &mut ShardScratch<D>,
) -> Result<SearchOutcome<D>, QueryError> {
    if k == 0 {
        return Err(QueryError::ZeroK);
    }
    let start = Instant::now();
    let q_cut = q.cut_mbr(t).ok_or(QueryError::EmptyQueryCut)?;

    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by(|&a, &b| {
        let da = metric.min_box_dist_sq(&shards[a].root_mbr(), &q_cut);
        let db = metric.min_box_dist_sq(&shards[b].root_mbr(), &q_cut);
        da.total_cmp(&db).then(a.cmp(&b))
    });

    let tau = SharedTau::new();
    let shared = pruned.then_some(&tau);
    let mut pool: Vec<FoundNeighbor<D>> = Vec::with_capacity(k * shards.len().max(1));
    let mut stats = QueryStats::default();
    // Candidates carried into the next shard's seed tracker: (id,
    // tightest squared bound) of everything pooled so far. Ids are
    // disjoint across shards and every entry is a live candidate of the
    // gather phase, so later shards may count them toward the running
    // k-th-best bound exactly like local candidates — the
    // candidate-granularity domination a single tree gets for free.
    let mut carry: Vec<(fuzzy_core::ObjectId, f64)> = Vec::new();
    let mut hi_tmp: Vec<f64> = Vec::new();
    for &si in &order {
        let out = search(
            metric,
            &shards[si],
            store,
            q,
            k,
            t,
            cfg,
            SearchMode::Collect,
            scratch.lane(si),
            shared,
            if pruned { &carry } else { &[] },
        )?;
        stats += out.stats;
        pool.extend(out.neighbors);
        if pruned {
            carry.clear();
            carry.extend(pool.iter().map(|n| {
                let h = n.dist.hi();
                (n.id, if h.is_finite() { h * h } else { f64::INFINITY })
            }));
            if pool.len() >= k {
                // Published with the search-internal ulp inflation, so the
                // sqrt→square round trip can never tighten τ below the
                // true k-th squared distance.
                hi_tmp.clear();
                hi_tmp.extend(carry.iter().map(|&(_, h)| h));
                let (_, kth, _) = hi_tmp.select_nth_unstable_by(k - 1, |a, b| a.total_cmp(b));
                if kth.is_finite() {
                    tau.observe(inflate_sq(*kth));
                }
            }
        }
    }

    let mut merged = resolve_pool(metric, store, q, k, t, pool, &mut stats)?;
    merged.sort_by(canonical_cmp);
    merged.truncate(k);

    stats.wall = start.elapsed();
    Ok(SearchOutcome { neighbors: merged, stats })
}

/// A query engine over a shard forest: any slice of [`NodeAccess`]
/// backends (`&[RTree]`, `&[Arc<PagedRTree>]`, a snapshot vector from a
/// [`ShardedDynamicEngine`]) plus the one shared object store. Answers
/// are byte-identical to a single-tree [`QueryEngine`](crate::QueryEngine) over the union of
/// the shards — the forest is an execution layout, not a semantic change.
pub struct ShardedQueryEngine<'a, A, S, const D: usize> {
    shards: &'a [A],
    store: &'a S,
}

impl<'a, A: NodeAccess<D>, S: ObjectStore<D>, const D: usize> ShardedQueryEngine<'a, A, S, D> {
    /// Bundle a shard slice and a store.
    pub fn new(shards: &'a [A], store: &'a S) -> Self {
        Self { shards, store }
    }

    /// The shard slice.
    pub fn shards(&self) -> &'a [A] {
        self.shards
    }

    /// The shared object store.
    pub fn store(&self) -> &'a S {
        self.store
    }

    /// Scatter-gather kNN (Definition 4) at `alpha ∈ (0, 1]`. All
    /// returned distances are exact, sorted by (distance, id).
    pub fn aknn(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
    ) -> Result<AknnResult, QueryError> {
        self.aknn_with_scratch(q, k, alpha, cfg, &mut ShardScratch::new())
    }

    /// [`Self::aknn`] under an explicit [`Metric`]: the scatter, the τ
    /// exchange and the gather all prune through `metric`'s hooks. With
    /// `&L2` this is byte-identical to [`Self::aknn`].
    pub fn aknn_in<M: Metric<D>>(
        &self,
        metric: &M,
        q: &FuzzyObject<D>,
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
    ) -> Result<AknnResult, QueryError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(QueryError::InvalidProbability { value: alpha });
        }
        let outcome = sharded_search(
            metric,
            self.shards,
            self.store,
            q,
            k,
            Threshold::at(alpha),
            cfg,
            true,
            &mut ShardScratch::new(),
        )?;
        Ok(to_aknn_result(outcome))
    }

    /// [`Self::aknn`] with caller-provided scratch (one per worker).
    pub fn aknn_with_scratch(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
        scratch: &mut ShardScratch<D>,
    ) -> Result<AknnResult, QueryError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(QueryError::InvalidProbability { value: alpha });
        }
        self.aknn_at_with_scratch(q, k, Threshold::at(alpha), cfg, scratch)
    }

    /// Scatter-gather AKNN at an explicit [`Threshold`].
    pub fn aknn_at_with_scratch(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        t: Threshold,
        cfg: &AknnConfig,
        scratch: &mut ShardScratch<D>,
    ) -> Result<AknnResult, QueryError> {
        let outcome = sharded_search(&L2, self.shards, self.store, q, k, t, cfg, true, scratch)?;
        Ok(to_aknn_result(outcome))
    }

    /// [`Self::aknn_with_scratch`] without the shared τ: every shard is
    /// searched independently and the results merged. Same answers,
    /// strictly more work — this is the reference arm of the
    /// pruning-equivalence property suite, public so external harnesses
    /// can check τ soundness on their own data.
    pub fn aknn_unpruned_with_scratch(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha: f64,
        cfg: &AknnConfig,
        scratch: &mut ShardScratch<D>,
    ) -> Result<AknnResult, QueryError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(QueryError::InvalidProbability { value: alpha });
        }
        let outcome = sharded_search(
            &L2,
            self.shards,
            self.store,
            q,
            k,
            Threshold::at(alpha),
            cfg,
            false,
            scratch,
        )?;
        Ok(to_aknn_result(outcome))
    }

    /// Range kNN (Definition 5) over the forest: the inner AKNN calls of
    /// Algorithms 3–5 all route through the scatter-gather path with
    /// shared τ, and the RSS range scan unions per-shard range searches.
    pub fn rknn(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha_start: f64,
        alpha_end: f64,
        algo: RknnAlgorithm,
        cfg: &AknnConfig,
    ) -> Result<RknnResult, QueryError> {
        self.rknn_with_scratch(q, k, alpha_start, alpha_end, algo, cfg, &mut ShardScratch::new())
    }

    /// [`Self::rknn`] with caller-provided scratch.
    #[allow(clippy::too_many_arguments)]
    pub fn rknn_with_scratch(
        &self,
        q: &FuzzyObject<D>,
        k: usize,
        alpha_start: f64,
        alpha_end: f64,
        algo: RknnAlgorithm,
        cfg: &AknnConfig,
        scratch: &mut ShardScratch<D>,
    ) -> Result<RknnResult, QueryError> {
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        if !(alpha_start > 0.0 && alpha_start <= 1.0) {
            return Err(QueryError::InvalidProbability { value: alpha_start });
        }
        if !(alpha_end > 0.0 && alpha_end <= 1.0) {
            return Err(QueryError::InvalidProbability { value: alpha_end });
        }
        if alpha_start > alpha_end {
            return Err(QueryError::InvalidRange { start: alpha_start, end: alpha_end });
        }
        rknn::run(
            &L2,
            &mut rknn::ForestBackend { shards: self.shards, scratch },
            self.store,
            q,
            k,
            alpha_start,
            alpha_end,
            algo,
            cfg,
        )
    }
}

fn to_aknn_result<const D: usize>(outcome: SearchOutcome<D>) -> AknnResult {
    AknnResult {
        neighbors: outcome
            .neighbors
            .into_iter()
            .map(|n| Neighbor { id: n.id, dist: n.dist })
            .collect(),
        stats: outcome.stats,
    }
}

/// ε-join of two shard forests at threshold `t`: the synchronized
/// traversal of [`alpha_distance_join`] runs once per (left shard, right
/// shard) pair and the pairs concatenate — shards partition their
/// dataset, so the pair sets are disjoint and the canonical
/// (left, right) sort makes the merged answer byte-identical to the
/// single-tree join. Pass a one-element slice to join a forest against a
/// single tree.
pub fn sharded_alpha_distance_join<AL, AR, SL, SR, const D: usize>(
    left_shards: &[AL],
    left_store: &SL,
    right_shards: &[AR],
    right_store: &SR,
    t: Threshold,
    radius: f64,
    cfg: &AknnConfig,
) -> Result<JoinResult, QueryError>
where
    AL: NodeAccess<D>,
    AR: NodeAccess<D>,
    SL: ObjectStore<D>,
    SR: ObjectStore<D>,
{
    let start = Instant::now();
    let mut pairs = Vec::new();
    let mut stats = QueryStats::default();
    for lt in left_shards {
        for rt in right_shards {
            let part = alpha_distance_join(lt, left_store, rt, right_store, t, radius, cfg)?;
            stats += part.stats;
            pairs.extend(part.pairs);
        }
    }
    pairs.sort_by_key(|p| (p.left, p.right));
    stats.wall = start.elapsed();
    Ok(JoinResult { pairs, stats })
}

/// A dynamic engine over a shard forest: **per-shard mutation locks**.
///
/// Each shard is its own [`Versioned`] master — writers to different
/// shards commit concurrently without contending, readers pin per-shard
/// snapshots ([`Self::snapshots`]) and query them through a
/// [`ShardedQueryEngine`]. Inserts route to the shard whose build-time
/// region is nearest (a placement heuristic: correctness never depends
/// on routing, because deletes consult every shard and queries visit
/// every non-pruned shard).
///
/// A snapshot vector is assembled shard by shard, so it is consistent
/// *per shard* (each `Arc` is one frozen epoch) but not a global
/// point-in-time cut across shards — the same deal a batch of
/// single-shard engines would give, and sufficient for byte-identical
/// answers as long as each object lives in exactly one shard.
pub struct ShardedDynamicEngine<A, S, const D: usize> {
    shards: Vec<Arc<Versioned<A>>>,
    regions: Vec<Mbr<D>>,
    store: Arc<S>,
}

impl<A, S, const D: usize> Clone for ShardedDynamicEngine<A, S, D> {
    fn clone(&self) -> Self {
        Self {
            shards: self.shards.iter().map(Arc::clone).collect(),
            regions: self.regions.clone(),
            store: Arc::clone(&self.store),
        }
    }
}

impl<A, S, const D: usize> ShardedDynamicEngine<A, S, D>
where
    A: MutableIndex<D> + Clone,
    S: ObjectStore<D>,
{
    /// Wrap shard backends with their build-time regions and a shared
    /// store. `regions` must be one rectangle per shard (the `.fzsm`
    /// manifest rows, or [`Mbr::empty`] placeholders — routing then
    /// falls back to shard 0).
    pub fn new(shards: Vec<A>, regions: Vec<Mbr<D>>, store: Arc<S>) -> Self {
        assert_eq!(shards.len(), regions.len(), "one region per shard");
        assert!(!shards.is_empty(), "at least one shard");
        Self {
            shards: shards.into_iter().map(|s| Arc::new(Versioned::new(s))).collect(),
            regions,
            store,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shared object store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// A clone of the shared store handle.
    pub fn store_handle(&self) -> Arc<S> {
        Arc::clone(&self.store)
    }

    /// Shard `i`'s versioned master, for direct `write`/`snapshot`
    /// access (e.g. batching many mutations into one commit).
    pub fn versioned(&self, i: usize) -> &Versioned<A> {
        &self.shards[i]
    }

    /// Per-shard epochs of the published snapshots.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Pin one snapshot per shard. The returned vector is a valid shard
    /// slice for [`ShardedQueryEngine::new`] (the `Arc`s implement
    /// [`NodeAccess`] by delegation) and stays frozen however many
    /// commits land afterwards.
    pub fn snapshots(&self) -> Vec<Arc<A>> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// The shard a summary routes to: nearest build-time region (ties to
    /// the lowest shard id), shard 0 when every region is empty.
    pub fn route(&self, mbr: &Mbr<D>) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, region) in self.regions.iter().enumerate() {
            if region.is_empty() {
                continue;
            }
            let d = region.min_dist_sq(mbr);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }

    /// Insert one summary into its routed shard (that shard's own epoch;
    /// other shards are untouched). Returns the shard id and whether the
    /// insert happened (`false` = duplicate id in that shard; see
    /// [`Self::contains`] for a forest-wide duplicate check).
    pub fn insert(&self, entry: ObjectSummary<D>) -> Result<(usize, bool), StoreError> {
        let shard = self.route(&entry.support_mbr);
        let inserted = self.shards[shard].write_if(|ix| changed(ix.insert_summary(entry)));
        Ok((shard, inserted?))
    }

    /// Delete by object id: consults every shard (routing is a
    /// heuristic, deletion is not). Returns the shard that held the id,
    /// `None` when absent everywhere. Only the owning shard publishes an
    /// epoch.
    pub fn delete(&self, id: ObjectId) -> Result<Option<usize>, StoreError> {
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.write_if(|ix| changed(ix.delete_id(id)))? {
                return Ok(Some(i));
            }
        }
        Ok(None)
    }

    /// Replace a summary: delete wherever it lives and reinsert into that
    /// same shard in **one commit** (one epoch of the owning shard), so no
    /// pinned snapshot ever sees the id missing. An object never migrates
    /// on update — stable locality keeps routing deterministic. An
    /// unknown id inserts via routing. Returns the shard and whether an
    /// existing entry was replaced.
    pub fn update(&self, entry: ObjectSummary<D>) -> Result<(usize, bool), StoreError> {
        let id = entry.id;
        let mut pending = Some(entry);
        for (i, shard) in self.shards.iter().enumerate() {
            let replaced = shard.write_if(|ix| match ix.delete_id(id) {
                // The delete already changed the master copy, so publish
                // even if the reinsert fails: master and snapshot agree.
                Ok(true) => {
                    let entry = pending.take().expect("only the owning shard reinserts");
                    (true, ix.insert_summary(entry).map(|_| true))
                }
                other => (false, other),
            })?;
            if replaced {
                return Ok((i, true));
            }
        }
        let (shard, _) = self.insert(pending.take().expect("no shard held the id"))?;
        Ok((shard, false))
    }

    /// True when some shard holds `id` (in its published snapshot).
    pub fn contains(&self, id: ObjectId) -> bool
    where
        A: ContainsId,
    {
        self.shards.iter().any(|s| s.snapshot().contains_id(id))
    }

    /// Live objects across all published shard snapshots.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| NodeAccess::len(s.snapshot().as_ref())).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Adapt a `Result<bool>` mutation outcome for [`Versioned::write_if`]:
/// publish only when the mutation reports a change.
fn changed(out: Result<bool, StoreError>) -> (bool, Result<bool, StoreError>) {
    (matches!(out, Ok(true)), out)
}

/// Id membership — implemented by the mutable backends so the sharded
/// engine can answer forest-wide duplicate checks.
pub trait ContainsId {
    /// True when the index holds a live entry with `id`.
    fn contains_id(&self, id: ObjectId) -> bool;
}

impl<const D: usize> ContainsId for fuzzy_index::RTree<D> {
    fn contains_id(&self, id: ObjectId) -> bool {
        fuzzy_index::RTree::contains_id(self, id)
    }
}

impl<const D: usize> ContainsId for OverlayRTree<D> {
    fn contains_id(&self, id: ObjectId) -> bool {
        OverlayRTree::contains_id(self, id)
    }
}

impl<S: ObjectStore<D>, const D: usize> ShardedDynamicEngine<OverlayRTree<D>, S, D>
where
    S: Sync,
{
    /// Compact every dirty shard, **shard-parallel**: one scoped thread
    /// per shard folds that shard's delta sidecar into its base `.fzpt`
    /// file and publishes the fresh overlay as a new epoch, while the
    /// other shards' writers and all readers proceed unhindered (readers
    /// pinned to the old snapshot keep the pre-compaction file handle —
    /// the compaction renames over the path, it never truncates in
    /// place). Clean shards are skipped without publishing.
    ///
    /// Returns one flag per shard: `true` if it was compacted. The first
    /// error aborts that shard only; others still compact. Note that
    /// compaction changes base-file object counts — callers owning a
    /// `.fzsm` manifest must rewrite its rows afterwards (the CLI does).
    pub fn compact_shards(&self, page_size: u32) -> Vec<Result<bool, StoreError>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| {
                    scope.spawn(move || {
                        shard.write_if(|ov| {
                            if ov.is_clean() {
                                return (false, Ok(false));
                            }
                            let reopened = ov
                                .clone()
                                .compact(page_size)
                                .and_then(|tree| OverlayRTree::new(Arc::new(tree)));
                            match reopened {
                                Ok(fresh) => {
                                    *ov = fresh;
                                    (true, Ok(true))
                                }
                                Err(e) => (false, Err(e)),
                            }
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("compaction thread panicked")).collect()
        })
    }
}
