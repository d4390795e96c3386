//! Bulk-loaded vantage-point tree over per-object expected centers: the
//! approximate candidate generator.
//!
//! The exact engines answer every query from first principles; at scale
//! the interesting trade is *recall for throughput*. The VP-tree is a
//! deterministic **candidate generator** over per-object expected centers
//! (the [`ObjectSummary::rep`] points the store already persists).
//! Candidates are *never* an answer by themselves — the query layer
//! resolves the pool through the exact probe loop, so returned distances
//! are always exact and only recall varies with the slack.
//!
//! A VP-tree needs nothing but the [`Metric`] distance itself, so build it
//! under `l2` or `graph` alike; the `.fzvp` loader enforces the pairing by
//! name, exactly like `.fzmt`. The tree is implicit: one permutation of
//! the id-sorted ball arrays plus a parallel radius column, where the
//! subtree of range `[lo, hi)` has its vantage at `order[lo]`, the inner
//! half (distance ≤ radius) at `[lo+1, mid)` and the outer half
//! (distance ≥ radius) at `[mid, hi)` with `mid = lo + 1 + (hi - lo - 1) / 2`
//! — no node structs, no child pointers.
//!
//! Candidate generation is center-kNN with **ε-slack pruning**: the
//! search tracks τ_c, the k-th nearest center distance seen so far, and
//! discards a subtree only when its triangle-inequality bound exceeds
//! `τ_c · (1 + ε)`; every visited center within that slack of the final
//! τ_c joins the pool. ε is the recall dial: 0 keeps the pool tight around
//! the center-nearest objects, larger values sweep in near misses whose
//! α-distance may beat their center rank, and `ε = +∞` (the `exact` dial,
//! see [`parse_slack`]) prunes nothing, so the pool is every indexed id
//! and the resolved answer equals exact AKNN.
//!
//! The tree also carries build-time **friend-of-a-friend** neighbor
//! lists (a near neighbor's near neighbors are likely near), which the
//! query layer may expand for a refinement round after the initial pool
//! is resolved.

use fuzzy_core::metric::Metric;
use fuzzy_core::{ObjectId, ObjectSummary};
use fuzzy_geom::{Mbr, Point};
use fuzzy_store::format::{fnv1a, Decoder, Encoder};
use fuzzy_store::StoreError;
use std::fs;
use std::io::Write;
use std::path::Path;

/// Magic framing a `.fzvp` file.
pub const VPTREE_MAGIC: [u8; 4] = *b"FZVP";
/// Current `.fzvp` format version.
pub const VPTREE_VERSION: u16 = 1;

/// Above this many objects the quadratic FoF neighbor-list build is
/// skipped (lists come back empty, refinement becomes a no-op).
pub const FOF_BUILD_CAP: usize = 8192;

/// Parse a recall-dial value into a VP-tree slack: `exact` is `+∞`
/// (nothing pruned, recall 1.0), anything else a non-negative finite ε.
pub fn parse_slack(s: &str) -> Option<f64> {
    if s.eq_ignore_ascii_case("exact") {
        return Some(f64::INFINITY);
    }
    let v: f64 = s.parse().ok()?;
    (v.is_finite() && v >= 0.0).then_some(v)
}

/// Stable label of a slack for bench rows and log lines (`exact` for
/// `+∞`); the inverse of [`parse_slack`].
pub fn slack_label(slack: f64) -> String {
    if slack == f64::INFINITY {
        "exact".to_string()
    } else {
        format!("{slack}")
    }
}

/// Build-time knobs for [`VpTree`].
#[derive(Clone, Copy, Debug)]
pub struct VpTreeConfig {
    /// Ranges at or below this size stay unsplit (scanned linearly).
    pub leaf_size: usize,
    /// FoF neighbors recorded per object (0 disables).
    pub fof_neighbors: usize,
}

impl Default for VpTreeConfig {
    fn default() -> Self {
        Self { leaf_size: 8, fof_neighbors: 8 }
    }
}

/// A deterministic bulk-loaded VP-tree over expected centers.
pub struct VpTree<const D: usize> {
    /// Name of the metric the tree was built under.
    metric_name: String,
    /// Ascending; parallel to `centers`, `spreads`, `fof`.
    ids: Vec<ObjectId>,
    centers: Vec<Point<D>>,
    /// Sound upper bound on each object's spread around its center.
    spreads: Vec<f64>,
    fof: Vec<Vec<ObjectId>>,
    leaf_size: usize,
    /// Permutation of id positions in VP layout.
    order: Vec<u32>,
    /// Parallel to `order`: split radius at internal roots, 0 elsewhere.
    radius: Vec<f64>,
}

impl<const D: usize> VpTree<D> {
    /// Bulk-build from summaries under `metric`. Deterministic: the
    /// vantage of every range is its lowest id position, and the
    /// distance partition sorts with position tie-breaks.
    pub fn build<M: Metric<D> + ?Sized>(
        metric: &M,
        summaries: &[ObjectSummary<D>],
        config: VpTreeConfig,
    ) -> Self {
        let leaf_size = config.leaf_size.max(1);
        let mut sorted: Vec<&ObjectSummary<D>> = summaries.iter().collect();
        sorted.sort_by_key(|s| s.id);
        let ids: Vec<ObjectId> = sorted.iter().map(|s| s.id).collect();
        let centers: Vec<Point<D>> = sorted.iter().map(|s| s.rep).collect();
        let spreads: Vec<f64> = sorted
            .iter()
            .map(|s| {
                let rep_box = Mbr::new(*s.rep.coords(), *s.rep.coords());
                metric.max_box_dist_sq(&rep_box, &s.support_mbr).sqrt()
            })
            .collect();
        let fof = build_fof(metric, &ids, &centers, config.fof_neighbors);

        let n = ids.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut radius = vec![0.0_f64; n];
        // Explicit stack of ranges to split; recursion depth is data-
        // dependent and this keeps it off the call stack.
        let mut ranges = vec![(0_usize, n)];
        let mut dists: Vec<(f64, u32)> = Vec::with_capacity(n);
        while let Some((lo, hi)) = ranges.pop() {
            if hi - lo <= leaf_size {
                continue;
            }
            // Deterministic vantage: the smallest id position in range.
            let vp_idx = (lo..hi).min_by_key(|&i| order[i]).expect("range is non-empty");
            order.swap(lo, vp_idx);
            let vantage = centers[order[lo] as usize];
            dists.clear();
            dists.extend(
                order[lo + 1..hi]
                    .iter()
                    .map(|&pos| (metric.dist(&vantage, &centers[pos as usize]), pos)),
            );
            dists.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            for (slot, &(_, pos)) in order[lo + 1..hi].iter_mut().zip(&dists) {
                *slot = pos;
            }
            let mid = lo + 1 + (hi - lo - 1) / 2;
            radius[lo] = dists[mid - lo - 1].0;
            ranges.push((lo + 1, mid));
            ranges.push((mid, hi));
        }
        Self {
            metric_name: metric.name().to_string(),
            ids,
            centers,
            spreads,
            fof,
            leaf_size,
            order,
            radius,
        }
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Leaf-range size the tree was built with.
    pub fn leaf_size(&self) -> usize {
        self.leaf_size
    }

    /// The indexed ball of `id`: expected center and a sound upper bound
    /// on the object's spread around it (`+∞` when the metric cannot
    /// bound boxes). `None` for ids the tree does not hold.
    pub fn ball_of(&self, id: ObjectId) -> Option<(&Point<D>, f64)> {
        let pos = self.ids.binary_search(&id).ok()?;
        Some((&self.centers[pos], self.spreads[pos]))
    }

    /// Build-time FoF neighbor list of `id` (empty when disabled).
    pub fn neighbors_of(&self, id: ObjectId) -> &[ObjectId] {
        self.ids.binary_search(&id).map(|p| self.fof[p].as_slice()).unwrap_or(&[])
    }

    /// Append the deterministic candidate pool for a query centered at
    /// `q_center` to `out`, deduplicated and in ascending id order: every
    /// visited center within `τ_c · (1 + slack)` of the query, where τ_c
    /// is the `k`-th nearest center distance. `slack = +∞` yields every
    /// indexed id.
    pub fn candidates<M: Metric<D> + ?Sized>(
        &self,
        metric: &M,
        q_center: &Point<D>,
        k: usize,
        slack: f64,
        out: &mut Vec<ObjectId>,
    ) {
        if self.ids.is_empty() {
            return;
        }
        let k = k.max(1);
        let mut topk: Vec<f64> = Vec::with_capacity(k + 1);
        let mut visited: Vec<(f64, u32)> = Vec::new();
        self.visit(metric, q_center, k, slack, 0, self.order.len(), &mut topk, &mut visited);
        let cut = slack_bound(&topk, k, slack);
        let mut pool: Vec<u32> =
            visited.into_iter().filter(|&(d, _)| d <= cut).map(|(_, pos)| pos).collect();
        pool.sort_unstable();
        out.extend(pool.into_iter().map(|pos| self.ids[pos as usize]));
    }

    /// Collect `(center distance, position)` for every visited entry of
    /// the ε-slack search, tracking τ_c in `topk` (sorted, ≤ k entries).
    #[allow(clippy::too_many_arguments)]
    fn visit<M: Metric<D> + ?Sized>(
        &self,
        metric: &M,
        q: &Point<D>,
        k: usize,
        eps: f64,
        lo: usize,
        hi: usize,
        topk: &mut Vec<f64>,
        visited: &mut Vec<(f64, u32)>,
    ) {
        let touch = |pos: u32, topk: &mut Vec<f64>, visited: &mut Vec<(f64, u32)>| {
            let d = metric.dist(q, &self.centers[pos as usize]);
            visited.push((d, pos));
            if topk.len() < k || d < topk[k - 1] {
                let at = topk.partition_point(|&t| t < d);
                topk.insert(at, d);
                topk.truncate(k);
            }
            d
        };
        if hi - lo <= self.leaf_size {
            for &pos in &self.order[lo..hi] {
                touch(pos, topk, visited);
            }
            return;
        }
        let d = touch(self.order[lo], topk, visited);
        let r = self.radius[lo];
        let mid = lo + 1 + (hi - lo - 1) / 2;
        // Inner holds distances ≤ r, outer ≥ r; visit the likelier side
        // first so τ_c tightens before the other side's bound check.
        let inner_lb = (d - r).max(0.0);
        let outer_lb = (r - d).max(0.0);
        if d <= r {
            if inner_lb <= slack_bound(topk, k, eps) {
                self.visit(metric, q, k, eps, lo + 1, mid, topk, visited);
            }
            if outer_lb <= slack_bound(topk, k, eps) {
                self.visit(metric, q, k, eps, mid, hi, topk, visited);
            }
        } else {
            if outer_lb <= slack_bound(topk, k, eps) {
                self.visit(metric, q, k, eps, mid, hi, topk, visited);
            }
            if inner_lb <= slack_bound(topk, k, eps) {
                self.visit(metric, q, k, eps, lo + 1, mid, topk, visited);
            }
        }
    }

    /// Persist as a `.fzvp` file (layout in `docs/FORMAT.md`).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let mut file = fs::File::create(path)?;
        file.write_all(&self.encode())?;
        file.sync_all()?;
        Ok(())
    }

    /// The `.fzvp` image: magic + version + dims + reserved header, body,
    /// then `fnv1a` over **every byte before the trailer** (header
    /// included, so header corruption — including the reserved word — is
    /// always detected) and a trailing magic.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.ids.len();
        let mut out = Encoder::with_capacity(16 + 64 + n * (28 + D * 8) + 12);
        out.bytes(&VPTREE_MAGIC);
        out.u16(VPTREE_VERSION);
        out.u16(D as u16);
        out.u64(0); // reserved
        let name = self.metric_name.as_bytes();
        out.u32(name.len() as u32);
        out.bytes(name);
        out.u64(n as u64);
        for i in 0..n {
            out.u64(self.ids[i].0);
            for &c in self.centers[i].coords() {
                out.f64(c);
            }
            out.f64(self.spreads[i]);
        }
        for list in &self.fof {
            out.u32(list.len() as u32);
            for id in list {
                out.u64(id.0);
            }
        }
        out.u32(self.leaf_size as u32);
        for &o in &self.order {
            out.u32(o);
        }
        for &r in &self.radius {
            out.f64(r);
        }
        let sum = fnv1a(out.as_bytes());
        out.u64(sum);
        out.bytes(&VPTREE_MAGIC);
        out.into_bytes()
    }

    /// Load a `.fzvp` file; see [`decode`](Self::decode).
    pub fn load<M: Metric<D> + ?Sized>(
        path: impl AsRef<Path>,
        metric: &M,
    ) -> Result<Self, StoreError> {
        Self::decode(&fs::read(path)?, metric)
    }

    /// Decode a `.fzvp` image, verifying magic, version, dimensionality,
    /// the whole-file checksum, that it was built under `metric` (by
    /// name) and that the layout column is a permutation. Checks run
    /// magic → version → dims → checksum so stale-version and
    /// wrong-dimension images report their typed errors even though both
    /// fields are also covered by the checksum.
    pub fn decode<M: Metric<D> + ?Sized>(bytes: &[u8], metric: &M) -> Result<Self, StoreError> {
        let corrupt = |reason: &str| StoreError::Corrupt { reason: reason.to_string() };
        if bytes.len() < 16 + 12 {
            return Err(corrupt("fzvp file shorter than header + trailer"));
        }
        if bytes[..4] != VPTREE_MAGIC || bytes[bytes.len() - 4..] != VPTREE_MAGIC {
            return Err(corrupt("bad fzvp magic"));
        }
        let mut head = Decoder::new(&bytes[4..16]);
        let found_version = head.u16()?;
        if found_version != VPTREE_VERSION {
            return Err(StoreError::VersionMismatch {
                found: found_version,
                expected: VPTREE_VERSION,
            });
        }
        let found_dims = head.u16()?;
        if found_dims != D as u16 {
            return Err(StoreError::DimensionMismatch { found: found_dims, expected: D as u16 });
        }
        let mut tail = Decoder::new(&bytes[bytes.len() - 12..bytes.len() - 4]);
        if tail.u64()? != fnv1a(&bytes[..bytes.len() - 12]) {
            return Err(corrupt("fzvp checksum mismatch"));
        }

        let mut d = Decoder::new(&bytes[16..bytes.len() - 12]);
        let name_len = d.u32()? as usize;
        let metric_name = std::str::from_utf8(d.bytes(name_len)?)
            .map_err(|_| corrupt("metric name is not utf-8"))?
            .to_string();
        if metric_name != metric.name() {
            return Err(StoreError::Corrupt {
                reason: format!(
                    "metric mismatch: index built under '{metric_name}', opened under '{}'",
                    metric.name()
                ),
            });
        }
        let n = d.u64()? as usize;
        let mut ids = Vec::with_capacity(n.min(1 << 20));
        let mut centers = Vec::with_capacity(n.min(1 << 20));
        let mut spreads = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            ids.push(ObjectId(d.u64()?));
            let mut coords = [0.0_f64; D];
            for c in coords.iter_mut() {
                *c = d.f64()?;
            }
            centers.push(Point::new(coords));
            spreads.push(d.f64()?);
        }
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(corrupt("fzvp item ids not strictly ascending"));
        }
        let mut fof = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            let len = d.u32()? as usize;
            let mut list = Vec::with_capacity(len.min(1 << 16));
            for _ in 0..len {
                let id = ObjectId(d.u64()?);
                if ids.binary_search(&id).is_err() {
                    return Err(corrupt("fof neighbor id not in index"));
                }
                list.push(id);
            }
            fof.push(list);
        }
        let leaf_size = d.u32()? as usize;
        if leaf_size == 0 {
            return Err(corrupt("fzvp leaf size must be positive"));
        }
        let mut order = Vec::with_capacity(n.min(1 << 20));
        let mut seen = vec![false; n];
        for _ in 0..n {
            let o = d.u32()?;
            if o as usize >= n || std::mem::replace(&mut seen[o as usize], true) {
                return Err(corrupt("fzvp layout is not a permutation"));
            }
            order.push(o);
        }
        let mut radius = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            radius.push(d.f64()?);
        }
        Ok(Self { metric_name, ids, centers, spreads, fof, leaf_size, order, radius })
    }
}

/// The pruning radius `τ_c · (1 + ε)`: unbounded until `k` centers are
/// known, and always unbounded at `ε = +∞` — τ_c can be 0 (≥ k centers
/// coincide with the query) and `0 · ∞` is NaN, which would prune
/// everything.
fn slack_bound(topk: &[f64], k: usize, eps: f64) -> f64 {
    if topk.len() < k || eps == f64::INFINITY {
        f64::INFINITY
    } else {
        topk[k - 1] * (1.0 + eps)
    }
}

/// Quadratic FoF build: for every object, its `fof_neighbors` nearest
/// *other* centers under `metric`, ties broken by id; skipped (empty
/// lists) above [`FOF_BUILD_CAP`] objects or when `fof_neighbors == 0`.
fn build_fof<M: Metric<D> + ?Sized, const D: usize>(
    metric: &M,
    ids: &[ObjectId],
    centers: &[Point<D>],
    fof_neighbors: usize,
) -> Vec<Vec<ObjectId>> {
    let n = ids.len();
    if fof_neighbors == 0 || n > FOF_BUILD_CAP {
        return vec![Vec::new(); n];
    }
    let mut fof = Vec::with_capacity(n);
    let mut near: Vec<(f64, ObjectId)> = Vec::with_capacity(n.saturating_sub(1));
    for i in 0..n {
        near.clear();
        for j in 0..n {
            if i != j {
                near.push((metric.dist(&centers[i], &centers[j]), ids[j]));
            }
        }
        let keep = fof_neighbors.min(near.len());
        if keep > 0 && keep < near.len() {
            near.select_nth_unstable_by(keep - 1, |a, b| {
                a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1))
            });
        }
        let mut list: Vec<(f64, ObjectId)> = near[..keep].to_vec();
        list.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        fof.push(list.into_iter().map(|(_, id)| id).collect());
    }
    fof
}
