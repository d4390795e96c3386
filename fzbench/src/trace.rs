//! Spans recorded from outside the program, around every call into a
//! layer trait, plus the wrappers that record them.
//!
//! Each thread keeps its spans in a thread-local buffer, linked to the
//! span that was open when they began (their parent) and tagged with the
//! id of the request they serve. Nothing is written while a run measures;
//! [`take_thread_spans`] hands a thread's buffer over when it is done.
//!
//! The wrappers ([`TracedStore`], [`TracedTree`], [`TracedMetric`])
//! delegate every call to the wrapped value (or to [`L2`]) unchanged, so
//! an engine driven through them returns bitwise the same answers.

use fuzzy_core::{DistanceProfile, FuzzyObject, Metric, ObjectId, ObjectSummary, Threshold, L2};
use fuzzy_geom::{Mbr, Point};
use fuzzy_index::{NodeAccess, NodeId, NodeRead};
use fuzzy_store::{IoStatsSnapshot, ObjectStore, StoreError, TracedProbe};
use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What a span measured.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// One request through a query engine (the root of its spans).
    Query,
    /// `ObjectStore::probe_traced` / `probe`.
    Store,
    /// `NodeAccess::read_node`.
    Index,
    /// `Metric::alpha_distance_sq_bounded`.
    Kernel,
    /// `Metric::distance_profile`.
    Profile,
    /// One `Versioned::write` of an update batch.
    Commit,
    /// `OverlayRTree::save_delta` after a batch.
    SaveDelta,
    /// One `compact_shards` call.
    Compact,
}

impl Kind {
    /// All kinds, in report order.
    pub const ALL: [Kind; 8] = [
        Kind::Query,
        Kind::Store,
        Kind::Index,
        Kind::Kernel,
        Kind::Profile,
        Kind::Commit,
        Kind::SaveDelta,
        Kind::Compact,
    ];

    /// Stable name used in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Query => "query",
            Kind::Store => "store",
            Kind::Index => "index",
            Kind::Kernel => "kernel",
            Kind::Profile => "profile",
            Kind::Commit => "epoch.commit",
            Kind::SaveDelta => "overlay.save_delta",
            Kind::Compact => "overlay.compact",
        }
    }
}

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// What was called.
    pub kind: Kind,
    /// Request id shared by every span of one request.
    pub qid: u32,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Start, in nanoseconds since the trace origin.
    pub start: u64,
    /// End, in nanoseconds since the trace origin.
    pub end: u64,
    /// Kind-specific outcome bit: a store probe or node read that reached
    /// the backing medium, or a kernel call the seed pruned.
    pub flag: bool,
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<u32>,
    qid: u32,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Tag the spans this thread records next with request id `qid`.
pub fn set_request(qid: u32) {
    LOCAL.with(|l| l.borrow_mut().qid = qid);
}

/// An open span; it closes when dropped.
pub struct Guard {
    index: u32,
    flag: bool,
}

impl Guard {
    /// Set the span's outcome bit.
    pub fn flag(&mut self, flag: bool) {
        self.flag = flag;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.open.pop();
            let span = &mut l.spans[self.index as usize];
            span.end = end;
            span.flag = self.flag;
        });
    }
}

/// Open a span of `kind` on this thread, nested in the innermost open one.
pub fn enter(kind: Kind) -> Guard {
    let start = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let index = l.spans.len() as u32;
        let parent = l.open.last().copied().unwrap_or(NO_PARENT);
        let qid = l.qid;
        l.spans.push(Span { kind, qid, parent, start, end: start, flag: false });
        l.open.push(index);
        Guard { index, flag: false }
    })
}

/// [`enter`] when `on`; nothing is recorded otherwise.
pub fn enter_if(on: bool, kind: Kind) -> Option<Guard> {
    on.then(|| enter(kind))
}

/// Take every span this thread recorded (its buffer is left empty).
pub fn take_thread_spans() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Append `spans` (one thread's buffer) to `all`, keeping parents valid.
pub fn merge_into(all: &mut Vec<Span>, spans: Vec<Span>) {
    let offset = all.len() as u32;
    all.extend(spans.into_iter().map(|mut s| {
        if s.parent != NO_PARENT {
            s.parent += offset;
        }
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per-kind totals over a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KindTotals {
    /// Spans of this kind.
    pub count: u64,
    /// Spans of this kind whose outcome bit is set.
    pub flagged: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Totals for every kind, indexed like [`Kind::ALL`].
pub fn totals(spans: &[Span]) -> [KindTotals; 8] {
    let mut out = [KindTotals::default(); 8];
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = &mut out[Kind::ALL.iter().position(|k| *k == s.kind).expect("known kind")];
        t.count += 1;
        t.flagged += s.flag as u64;
        t.total_ns += s.end - s.start;
        t.self_ns += own;
    }
    out
}

/// One kind's totals.
pub fn of(totals: &[KindTotals; 8], kind: Kind) -> KindTotals {
    totals[Kind::ALL.iter().position(|k| *k == kind).expect("known kind")]
}

/// Write spans as CSV (`index,qid,kind,parent,start_ns,end_ns,self_ns,
/// flag`), keeping the first `keep` request ids so the file stays small.
pub fn write_csv(path: &std::path::Path, spans: &[Span], keep: u32) -> std::io::Result<()> {
    use std::io::Write;
    let own = self_times(spans);
    let max_qid = spans.iter().map(|s| s.qid).min().unwrap_or(0).saturating_add(keep);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "index,qid,kind,parent,start_ns,end_ns,self_ns,flag")?;
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        if s.qid < max_qid {
            let parent = if s.parent == NO_PARENT { -1 } else { s.parent as i64 };
            writeln!(
                w,
                "{i},{},{},{parent},{},{},{own},{}",
                s.qid,
                s.kind.name(),
                s.start,
                s.end,
                s.flag as u8
            )?;
        }
    }
    w.flush()
}

/// An [`ObjectStore`] that records a [`Kind::Store`] span per probe.
pub struct TracedStore<'a, S>(pub &'a S);

impl<S: ObjectStore<2>> ObjectStore<2> for TracedStore<'_, S> {
    fn probe(&self, id: ObjectId) -> Result<Arc<FuzzyObject<2>>, StoreError> {
        let mut g = enter(Kind::Store);
        g.flag(true);
        self.0.probe(id)
    }

    fn probe_traced(&self, id: ObjectId) -> Result<TracedProbe<2>, StoreError> {
        let mut g = enter(Kind::Store);
        let out = self.0.probe_traced(id);
        g.flag(matches!(&out, Ok(p) if p.disk_read));
        out
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn summaries(&self) -> &[ObjectSummary<2>] {
        self.0.summaries()
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.0.stats()
    }

    fn reset_stats(&self) {
        self.0.reset_stats()
    }
}

/// A [`NodeAccess`] that records a [`Kind::Index`] span per node read;
/// the flag marks a buffer-pool miss.
pub struct TracedTree<'a, A>(pub &'a A);

impl<A: NodeAccess<2>> NodeAccess<2> for TracedTree<'_, A> {
    fn root_id(&self) -> NodeId {
        self.0.root_id()
    }

    fn root_mbr(&self) -> Mbr<2> {
        self.0.root_mbr()
    }

    fn read_node(&self, id: NodeId) -> Result<NodeRead<'_, 2>, StoreError> {
        let mut g = enter(Kind::Index);
        let out = self.0.read_node(id);
        g.flag(matches!(&out, Ok(r) if r.disk_read));
        out
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn height(&self) -> usize {
        self.0.height()
    }
}

/// [`L2`] with a [`Kind::Kernel`] span per α-distance evaluation (flag:
/// the seed pruned it) and a [`Kind::Profile`] span per distance profile.
/// Every hook delegates to `L2`, so pruning and answers are unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracedMetric;

impl Metric<2> for TracedMetric {
    fn name(&self) -> &'static str {
        <L2 as Metric<2>>::name(&L2)
    }

    #[inline]
    fn dist(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        L2.dist(a, b)
    }

    #[inline]
    fn dist_sq(&self, a: &Point<2>, b: &Point<2>) -> f64 {
        L2.dist_sq(a, b)
    }

    #[inline]
    fn min_box_dist_sq(&self, a: &Mbr<2>, b: &Mbr<2>) -> f64 {
        L2.min_box_dist_sq(a, b)
    }

    #[inline]
    fn max_box_dist_sq(&self, a: &Mbr<2>, b: &Mbr<2>) -> f64 {
        L2.max_box_dist_sq(a, b)
    }

    fn alpha_distance_sq_bounded(
        &self,
        a: &FuzzyObject<2>,
        b: &FuzzyObject<2>,
        t: Threshold,
        upper_bound_sq: f64,
    ) -> Option<f64> {
        let mut g = enter(Kind::Kernel);
        let out = L2.alpha_distance_sq_bounded(a, b, t, upper_bound_sq);
        g.flag(out.is_none() && upper_bound_sq.is_finite());
        out
    }

    fn distance_profile(&self, a: &FuzzyObject<2>, q: &FuzzyObject<2>) -> DistanceProfile {
        let _g = enter(Kind::Profile);
        L2.distance_profile(a, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_record_parents() {
        take_thread_spans();
        set_request(7);
        {
            let _q = enter(Kind::Query);
            drop(enter(Kind::Store));
            let mut k = enter(Kind::Kernel);
            k.flag(true);
        }
        let spans = take_thread_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert!(spans.iter().all(|s| s.qid == 7 && s.end >= s.start));
        assert!(spans[2].flag && !spans[1].flag);
    }
}
