//! Pieces the three workloads share: the run context, the request mix,
//! engine dispatch, set-up timing, the update batch and the write probe.

use crate::gate::{aknn_bytes, rknn_bytes, Tally};
use crate::report::Metrics;
use crate::stats::{median, percentile, ratio, sorted, Rng};
use crate::trace::{self, Kind, Span};
use fuzzy_core::{FuzzyObject, Metric, ObjectId, ObjectSummary, Threshold};
use fuzzy_index::{delta_path_for, NodeAccess, OverlayRTree, DEFAULT_PAGE_SIZE};
use fuzzy_query::{
    AknnConfig, QueryEngine, QueryError, QueryScratch, QueryStats, RknnAlgorithm,
    ShardedDynamicEngine,
};
use fuzzy_store::{FileStore, FileStoreWriter, ObjectStore, StoreError};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Everything a workload needs to know about its run.
#[derive(Clone, Debug)]
pub struct Ctx {
    /// Workload seed: inputs and request sequences derive from it.
    pub seed: u64,
    /// Measurement budget of the run, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Thread/connection budget: `available_parallelism`.
    pub nproc: usize,
    /// Scratch directory for the run's files (removed afterwards).
    pub work: PathBuf,
    /// Directory the run's fingerprint and trace are written to.
    pub out: PathBuf,
}

/// k of the RKNN requests (Table 2 default).
pub const RKNN_K: usize = 10;
/// Probability range of the RKNN requests.
pub const RKNN_RANGE: (f64, f64) = (0.4, 0.6);
/// k values of the AKNN mix.
pub const KS: [usize; 3] = [1, 10, 50];
/// α values of the AKNN mix.
pub const ALPHAS: [f64; 3] = [0.2, 0.5, 0.8];

/// One request of a workload's sequence; `q` indexes its query pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Req {
    /// AKNN (LB-LP-UB) at `k`, `alpha`.
    Aknn {
        /// Query object index.
        q: usize,
        /// Neighbours asked for.
        k: usize,
        /// Probability threshold.
        alpha: f64,
    },
    /// RKNN (RSS-ICR) at [`RKNN_K`] over [`RKNN_RANGE`].
    Rknn {
        /// Query object index.
        q: usize,
    },
}

impl Req {
    /// True for RKNN requests.
    pub fn is_rknn(&self) -> bool {
        matches!(self, Req::Rknn { .. })
    }

    /// Query pool index.
    pub fn q(&self) -> usize {
        match *self {
            Req::Aknn { q, .. } | Req::Rknn { q } => q,
        }
    }
}

/// The paper's query mix, balanced. The sequence is cut into blocks of
/// every (k, α) pair of [`KS`] × [`ALPHAS`] once as an AKNN request, plus
/// as many RKNN requests as make up `rknn_share` (< 1), in a shuffled
/// order. Requests take the pool's queries in turn, in a shuffled order.
/// A fixed composition keeps the seed from moving the percentiles
/// through the share of heavy requests it happens to draw.
pub fn mix(rng: &mut Rng, len: usize, pool: usize, rknn_share: f64) -> Vec<Req> {
    let aknn = KS.len() * ALPHAS.len();
    let rknn = (aknn as f64 * rknn_share / (1.0 - rknn_share)).round() as usize;
    let mut queries: Vec<usize> = (0..pool).collect();
    shuffle(rng, &mut queries);
    let mut out = Vec::with_capacity(len + aknn + rknn);
    while out.len() < len {
        let mut block: Vec<Option<(usize, f64)>> = KS
            .iter()
            .flat_map(|&k| ALPHAS.iter().map(move |&alpha| Some((k, alpha))))
            .chain(std::iter::repeat(None).take(rknn))
            .collect();
        shuffle(rng, &mut block);
        for slot in block {
            let q = queries[out.len() % pool];
            out.push(match slot {
                Some((k, alpha)) => Req::Aknn { q, k, alpha },
                None => Req::Rknn { q },
            });
        }
    }
    out.truncate(len);
    out
}

/// One executed request: canonical answer bytes, counters and size.
#[derive(Clone, Debug)]
pub struct Answer {
    /// Canonical bytes ([`aknn_bytes`] / [`rknn_bytes`]).
    pub bytes: Vec<u8>,
    /// Engine counters.
    pub stats: QueryStats,
    /// Neighbours (AKNN) or items (RKNN) returned.
    pub results: u64,
}

impl Answer {
    /// From an AKNN answer.
    pub fn aknn(neighbors: &[fuzzy_query::Neighbor], stats: QueryStats) -> Self {
        Self { bytes: aknn_bytes(neighbors), stats, results: neighbors.len() as u64 }
    }

    /// From an RKNN answer.
    pub fn rknn(items: &[fuzzy_query::RknnItem], stats: QueryStats) -> Self {
        Self { bytes: rknn_bytes(items), stats, results: items.len() as u64 }
    }
}

/// Run `req` on a single-tree engine under `metric` (plain `L2`, or the
/// tracing wrapper) through the engine's metric-generic entry points.
pub fn exec<A: NodeAccess<2>, S: ObjectStore<2>, M: Metric<2>>(
    engine: &QueryEngine<'_, A, S, 2>,
    metric: &M,
    q: &FuzzyObject<2>,
    req: &Req,
    scratch: &mut QueryScratch<2>,
) -> Result<Answer, QueryError> {
    let cfg = AknnConfig::lb_lp_ub();
    match *req {
        Req::Aknn { k, alpha, .. } => engine
            .aknn_at_with_scratch_in(metric, q, k, Threshold::at(alpha), &cfg, scratch)
            .map(|r| Answer::aknn(&r.neighbors, r.stats)),
        Req::Rknn { .. } => engine
            .rknn_with_scratch_in(
                metric,
                q,
                RKNN_K,
                RKNN_RANGE.0,
                RKNN_RANGE.1,
                RknnAlgorithm::RssIcr,
                &cfg,
                scratch,
            )
            .map(|r| Answer::rknn(&r.items, r.stats)),
    }
}

/// One traced request: its kind, counters and answer size.
#[derive(Clone, Copy, Debug)]
pub struct TracedReq {
    /// RKNN (else AKNN).
    pub rknn: bool,
    /// Engine counters.
    pub stats: QueryStats,
    /// Neighbours (AKNN) or items (RKNN) returned.
    pub results: u64,
}

/// Run `f` once inside a [`Kind::Query`] span tagged `qid`.
pub fn traced_request<R>(qid: u32, f: impl FnOnce() -> R) -> R {
    trace::set_request(qid);
    let _g = trace::enter(Kind::Query);
    f()
}

/// Write `objects` to a `.fzkn` store at `path`, returning the open store.
pub fn write_store(objects: &[FuzzyObject<2>], path: &Path) -> Result<FileStore<2>, StoreError> {
    let mut w = FileStoreWriter::create(path)?;
    for obj in objects {
        w.append(obj)?;
    }
    w.finish()
}

/// Flush the run's files to disk after set-up, outside every clock, so
/// that background writeback of hundreds of MB does not stall the
/// measured phases.
pub fn settle(dir: &Path) {
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if let Ok(f) = std::fs::File::open(e.path()) {
                let _ = f.sync_all();
            }
        }
    }
}

/// Wall time of the three set-up phases of one repetition.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Store write (`.fzkn`).
    pub store_write: f64,
    /// Index build and write.
    pub index_build: f64,
    /// Opening the index (and starting the server, where there is one).
    pub open: f64,
}

impl SetupTimes {
    /// Whole set-up time.
    pub fn total(&self) -> f64 {
        self.store_write + self.index_build + self.open
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Record the set-up medians: `setup_s` untraced, the phases traced.
pub fn setup_metrics(m: &mut Metrics, reps: &[SetupTimes]) {
    let pick = |f: fn(&SetupTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    m.insert("setup_s", pick(SetupTimes::total));
    m.insert("setup.store_write_s", pick(|s| s.store_write));
    m.insert("setup.index_build_s", pick(|s| s.index_build));
    m.insert("setup.open_s", pick(|s| s.open));
}

/// Total size of the regular files directly in `dir`: a run's store,
/// index, sidecars and manifest all live in its own work directory.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Per-layer metrics of the server path; 0 on workloads without one.
pub const SERVER_METRICS: [&str; 8] = [
    "server.service_ms_p50",
    "server.service_ms_p99",
    "server.overhead_ms_p50",
    "server.overhead_ms_p99",
    "server.busy_frac",
    "server.request_encode_us",
    "server.response_decode_us",
    "loadgen.lag_ms_p99",
];

/// Objects deleted and reinserted per update batch.
pub const BATCH: usize = 64;

/// Timing of one committed update batch.
#[derive(Clone, Copy, Debug)]
pub struct BatchTiming {
    /// Seconds in `Versioned::write` (mutation plus publish clone).
    pub commit: f64,
    /// Seconds in `save_delta`.
    pub save: f64,
    /// Size of the delta sidecar written by `save_delta`.
    pub bytes: u64,
}

/// Delete and reinsert `ids` (all live in `shard`) inside one
/// `Versioned::write`, then persist the shard's delta. The live set is
/// unchanged afterwards; a batch that finds an id missing is an error.
pub fn update_batch<S: ObjectStore<2>>(
    engine: &ShardedDynamicEngine<OverlayRTree<2>, S, 2>,
    shard: usize,
    ids: &[ObjectId],
    summaries: &[ObjectSummary<2>],
    traced: bool,
) -> Result<BatchTiming, String> {
    let t = Instant::now();
    let ok = {
        let _g = trace::enter_if(traced, Kind::Commit);
        engine
            .versioned(shard)
            .write(|ov| ids.iter().all(|&id| ov.delete(id) && ov.insert(summaries[id.0 as usize])))
    };
    let commit = secs(t);
    if !ok {
        return Err(format!("update batch on shard {shard} lost an object"));
    }
    let t = Instant::now();
    let snapshot = engine.versioned(shard).snapshot();
    {
        let _g = trace::enter_if(traced, Kind::SaveDelta);
        snapshot.save_delta().map_err(|e| e.to_string())?;
    }
    let save = secs(t);
    let bytes = std::fs::metadata(delta_path_for(snapshot.base().path())).map_or(0, |m| m.len());
    Ok(BatchTiming { commit, save, bytes })
}

/// Compact every dirty shard; returns the seconds it took and the
/// number of shards it compacted.
pub fn compact<S: ObjectStore<2> + Sync>(
    engine: &ShardedDynamicEngine<OverlayRTree<2>, S, 2>,
    traced: bool,
) -> Result<Window<(f64, usize)>, String> {
    let t = Instant::now();
    let results = window(|| {
        let _g = trace::enter_if(traced, Kind::Compact);
        engine.compact_shards(DEFAULT_PAGE_SIZE)
    });
    let seconds = secs(t);
    let mut compacted = 0;
    for r in results.log {
        compacted += r.map_err(|e| e.to_string())? as usize;
    }
    Ok(Window { log: (seconds, compacted), steal: results.steal })
}

/// Write-path samples of a run.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// Batch latencies from due time until `save_delta` returns, seconds,
    /// one window per compaction cycle (the batches after one compaction,
    /// up to the next).
    pub cycles: Vec<Window<Vec<f64>>>,
    open: Vec<f64>,
    opened: Option<Ticks>,
    /// Per-batch timings.
    pub batches: Vec<BatchTiming>,
    /// Compactions: seconds taken and shards compacted.
    pub compactions: Vec<Window<(f64, usize)>>,
    /// Batches and compactions attempted and failed.
    pub tally: Tally,
}

impl WriteLog {
    /// Record one committed batch and its latency in the current cycle.
    pub fn batch(&mut self, seconds: f64, timing: BatchTiming) {
        self.opened.get_or_insert_with(ticks);
        self.open.push(seconds);
        self.batches.push(timing);
    }

    /// Record a compaction; it closes the current cycle.
    pub fn compaction(&mut self, c: Result<Window<(f64, usize)>, String>) {
        self.close_cycle();
        self.tally.record(c.is_ok());
        self.compactions.extend(c.ok());
    }

    fn close_cycle(&mut self) {
        if let Some(start) = self.opened.take() {
            let log = std::mem::take(&mut self.open);
            self.cycles.push(Window { log, steal: ticks().steal_since(start) });
        }
    }

    /// Record the end-to-end and per-layer write metrics. Each latency
    /// percentile is the median over the calmest compaction cycles of the
    /// cycle's percentile: a cycle's batches grow with its delta the same
    /// way every cycle, so a stall the steal count missed moves one
    /// cycle's tail and not the median.
    pub fn metrics(&mut self, m: &mut Metrics) {
        self.close_cycle();
        m.insert("write_p50_ms", over(&self.cycles, |c| pct_ms(c, 50.0)));
        m.insert("write_p99_ms", over(&self.cycles, |c| pct_ms(c, 99.0)));
        m.insert("compact_s", over(&self.compactions, |c| c.0));
        m.insert(
            "epoch.commit_ms",
            median(&self.batches.iter().map(|b| b.commit * 1e3).collect::<Vec<_>>()),
        );
        m.insert(
            "overlay.save_delta_ms",
            median(&self.batches.iter().map(|b| b.save * 1e3).collect::<Vec<_>>()),
        );
        let bytes: u64 = self.batches.iter().map(|b| b.bytes).sum();
        m.insert(
            "overlay.bytes_written_per_update",
            ratio(bytes as f64, (self.batches.len() * BATCH) as f64),
        );
        m.insert(
            "overlay.compact_ms",
            over(&self.compactions, |&(s, shards)| ratio(s * 1e3, shards.max(1) as f64)),
        );
    }
}

/// Ids of a shard, shuffled once; batch `j` takes the next [`BATCH`]
/// (distinct while the shard holds at least that many).
pub fn batch_ids(shuffled: &[ObjectId], j: usize) -> Vec<ObjectId> {
    (0..BATCH).map(|i| shuffled[(j * BATCH + i) % shuffled.len()]).collect()
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i + 1));
    }
}

/// The write probe of the read-only workloads: `rounds` × (`batches`
/// update batches, then one compaction) on a one-shard dynamic engine
/// over the workload's own index, closed loop and with no readers.
/// Like [`calm_phase`], it runs up to twice as many rounds while the
/// host steals CPU during more than half of the compaction cycles.
/// dense-churn is the workload with writes beside reads; this probe
/// gives the same write metrics at the other workloads' index sizes.
pub fn write_probe<S: ObjectStore<2> + Sync>(
    engine: &ShardedDynamicEngine<OverlayRTree<2>, S, 2>,
    rng: &mut Rng,
    rounds: usize,
    batches: usize,
    traced: bool,
) -> WriteLog {
    let summaries = engine.store().summaries();
    let mut ids: Vec<ObjectId> = summaries.iter().map(|s| s.id).collect();
    shuffle(rng, &mut ids);
    let mut log = WriteLog::default();
    let mut round = 0;
    while round < rounds || (round < 2 * rounds && !mostly_quiet(&log.cycles)) {
        for b in 0..batches {
            let t = Instant::now();
            let ids = batch_ids(&ids, round * batches + b);
            let r = update_batch(engine, 0, &ids, summaries, traced);
            log.tally.record(r.is_ok());
            if let Ok(timing) = r {
                log.batch(secs(t), timing);
            }
        }
        log.compaction(compact(engine, traced));
        round += 1;
    }
    log
}

/// What a closed loop saw.
#[derive(Debug, Default)]
pub struct LoopLog {
    /// Latency of successful requests, seconds, per kind.
    pub aknn: Vec<f64>,
    /// RKNN latencies, seconds.
    pub rknn: Vec<f64>,
    /// Requests attempted and failed.
    pub tally: Tally,
    /// Traced runs: counters per request and every span recorded.
    pub reqs: Vec<TracedReq>,
    /// Spans of all threads, merged.
    pub spans: Vec<Span>,
    /// Wall time of the loop, seconds.
    pub elapsed: f64,
}

impl LoopLog {
    /// Append another log (a thread's, or a later window's).
    pub fn absorb(&mut self, other: LoopLog) {
        self.aknn.extend(other.aknn);
        self.rknn.extend(other.rknn);
        self.tally.add(other.tally);
        self.reqs.extend(other.reqs);
        trace::merge_into(&mut self.spans, other.spans);
        self.elapsed += other.elapsed;
    }

    /// Mean latency of every successful request, microseconds.
    pub fn mean_us(&self) -> f64 {
        let all = self.aknn.iter().chain(&self.rknn);
        ratio(all.clone().sum::<f64>() * 1e6, all.count() as f64)
    }
}

/// Closed loop: `threads` threads each issue their next request as soon
/// as the previous one returns, for `duration` seconds. Request indices
/// come from the shared counter `next`; `f(i, state)` runs request `i`
/// and returns whether it was an RKNN and its answer when the gate
/// accepted it. Traced loops wrap each request in a query span.
pub fn closed_loop<W, F>(
    threads: usize,
    duration: f64,
    next: &std::sync::atomic::AtomicUsize,
    traced: bool,
    init: impl Fn() -> W + Sync,
    f: F,
) -> LoopLog
where
    F: Fn(usize, &mut W) -> (bool, Option<Answer>) + Sync,
{
    use std::sync::atomic::Ordering;
    let t0 = Instant::now();
    let mut out = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut log = LoopLog::default();
                    while secs(t0) < duration {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let t = Instant::now();
                        let (rknn, answer) = if traced {
                            traced_request(i as u32, || f(i, &mut state))
                        } else {
                            f(i, &mut state)
                        };
                        let latency = secs(t);
                        log.tally.record(answer.is_some());
                        if let Some(a) = answer {
                            if rknn {
                                log.rknn.push(latency);
                            } else {
                                log.aknn.push(latency);
                            }
                            if traced {
                                log.reqs.push(TracedReq {
                                    rknn,
                                    stats: a.stats,
                                    results: a.results,
                                });
                            }
                        }
                    }
                    if traced {
                        log.spans = trace::take_thread_spans();
                    }
                    log
                })
            })
            .collect();
        let mut all = LoopLog::default();
        for h in handles {
            all.absorb(h.join().expect("closed-loop thread panicked"));
        }
        all
    });
    out.elapsed = secs(t0);
    out
}

/// Windows a measured phase of dense-churn is split into.
pub const WINDOWS: usize = 20;

/// Length of one window of the phases [`calm_phase`] measures, seconds.
/// Short windows place the host's steal bursts precisely: a window
/// with no steal at all is common even on a busy host.
pub const WINDOW_S: f64 = 0.3;

/// True when at least half of `windows` saw no steal at all.
pub fn mostly_quiet<T>(windows: &[Window<T>]) -> bool {
    2 * windows.iter().filter(|w| w.steal == 0.0).count() >= windows.len()
}

/// Measure a phase planned for `planned` seconds as windows of
/// [`WINDOW_S`], each running `f(window_seconds)`. When the host steals
/// CPU during more than half of them, the phase goes on, up to twice
/// its planned length, until half of its windows saw no steal.
pub fn calm_phase<T>(planned: f64, mut f: impl FnMut(f64) -> T) -> Vec<Window<T>> {
    let n = ((planned / WINDOW_S).round() as usize).max(4);
    let d = planned / n as f64;
    let mut windows = Vec::with_capacity(2 * n);
    while windows.len() < n || (windows.len() < 2 * n && !mostly_quiet(&windows)) {
        windows.push(window(|| f(d)));
    }
    windows
}

/// CPU time counters of the machine (`/proc/stat`, all CPUs), in ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ticks {
    steal: u64,
    total: u64,
}

/// Read the machine's CPU time counters; zeros where they are missing.
pub fn ticks() -> Ticks {
    let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Ticks { steal: fields.get(7).copied().unwrap_or(0), total: fields.iter().sum() }
}

impl Ticks {
    /// Share of CPU time stolen by the hypervisor since `start`.
    pub fn steal_since(self, start: Ticks) -> f64 {
        ratio(
            self.steal.saturating_sub(start.steal) as f64,
            self.total.saturating_sub(start.total) as f64,
        )
    }
}

/// One measured window and the share of the machine's CPU time the
/// hypervisor stole while it ran.
#[derive(Clone, Debug, Default)]
pub struct Window<T> {
    /// What the window measured.
    pub log: T,
    /// Stolen share of CPU time during the window.
    pub steal: f64,
}

/// Run `f` as one window.
pub fn window<T>(f: impl FnOnce() -> T) -> Window<T> {
    let start = ticks();
    let log = f();
    Window { log, steal: ticks().steal_since(start) }
}

/// The calmest windows: those whose stolen share is at most the lower
/// quartile's, which keeps every window with no steal at all once a
/// quarter of them saw none. On a virtual machine whose host steals CPU
/// in bursts, a burst slows every layer at once; the calmest windows
/// measure the program rather than its neighbours. Without steal, every
/// window counts.
pub fn calm<T>(windows: &[Window<T>]) -> Vec<&T> {
    let cut = percentile(&sorted(windows.iter().map(|w| w.steal).collect()), 25.0);
    windows.iter().filter(|w| w.steal <= cut).map(|w| &w.log).collect()
}

/// Nearest-rank percentile `p`, in ms, of samples in seconds.
pub fn pct_ms(samples_s: &[f64], p: f64) -> f64 {
    percentile(&sorted(samples_s.iter().map(|s| s * 1e3).collect()), p)
}

/// Median of `f` over the calmest windows ([`calm`]).
pub fn over<T>(windows: &[Window<T>], f: impl Fn(&T) -> f64) -> f64 {
    median(&calm(windows).into_iter().map(f).collect::<Vec<_>>())
}

/// Nearest-rank percentile `p`, in ms, of the samples of the calmest
/// windows, pooled. A window holds too few samples for a steady
/// tail of its own; the pool of the calm windows holds thousands.
pub fn pooled_ms<T>(windows: &[Window<T>], samples: impl Fn(&T) -> &[f64], p: f64) -> f64 {
    let pool: Vec<f64> =
        calm(windows).into_iter().flat_map(|w| samples(w).iter().copied()).collect();
    pct_ms(&pool, p)
}

/// p50 and p99 of one request kind over the pooled samples of the
/// calmest windows.
pub fn latency_metrics<T>(
    m: &mut Metrics,
    rknn: bool,
    windows: &[Window<T>],
    samples: impl Fn(&T) -> &[f64],
) {
    let (p50, p99) =
        if rknn { ("rknn_p50_ms", "rknn_p99_ms") } else { ("aknn_p50_ms", "aknn_p99_ms") };
    m.insert(p50, pooled_ms(windows, &samples, 50.0));
    m.insert(p99, pooled_ms(windows, &samples, 99.0));
}

/// Per-layer metrics from the spans and counters of traced requests.
/// Shares are self time over all request time; per-query counts are per
/// AKNN request, per-RKNN counts per RKNN request.
pub fn layer_metrics(m: &mut Metrics, spans: &[Span], reqs: &[TracedReq]) {
    let t = trace::totals(spans);
    let query = trace::of(&t, Kind::Query);
    let all_ns = query.total_ns as f64;
    let aknn: Vec<&TracedReq> = reqs.iter().filter(|r| !r.rknn).collect();
    let rknn: Vec<&TracedReq> = reqs.iter().filter(|r| r.rknn).collect();
    let (na, nr) = (aknn.len() as f64, rknn.len() as f64);
    let sum = |v: &[&TracedReq], f: fn(&QueryStats) -> u64| -> f64 {
        v.iter().map(|r| f(&r.stats) as f64).sum()
    };
    let share = |k: Kind| ratio(trace::of(&t, k).self_ns as f64, all_ns);
    let mean_us = |k: Kind| {
        let x = trace::of(&t, k);
        ratio(x.total_ns as f64 / 1e3, x.count as f64)
    };
    let n = (query.count as f64).max(1.0);

    m.insert("query.self_us_per_query", ratio(query.self_ns as f64 / 1e3, n));
    m.insert("query.share", share(Kind::Query));
    m.insert("query.bound_evals_per_query", ratio(sum(&aknn, |s| s.bound_evals), na));
    m.insert(
        "query.probes_per_result",
        ratio(sum(&aknn, |s| s.object_accesses), aknn.iter().map(|r| r.results as f64).sum()),
    );
    m.insert("query.aknn_calls_per_rknn", ratio(sum(&rknn, |s| s.aknn_calls), nr));
    m.insert("query.candidates_per_rknn", ratio(sum(&rknn, |s| s.candidates), nr));

    m.insert("store.probe_us", mean_us(Kind::Store));
    m.insert("store.probes_per_query", ratio(sum(&aknn, |s| s.object_accesses), na));
    m.insert("store.share", share(Kind::Store));

    let index = trace::of(&t, Kind::Index);
    m.insert("index.read_node_us", mean_us(Kind::Index));
    m.insert("index.node_reads_per_query", ratio(sum(&aknn, |s| s.node_accesses), na));
    m.insert("index.pool_miss_ratio", ratio(index.flagged as f64, index.count as f64));
    m.insert("index.share", share(Kind::Index));

    let kernel = trace::of(&t, Kind::Kernel);
    m.insert("kernel.alpha_dist_us", mean_us(Kind::Kernel));
    m.insert("kernel.calls_per_query", ratio(sum(&aknn, |s| s.distance_evals), na));
    m.insert("kernel.seed_prune_ratio", ratio(kernel.flagged as f64, kernel.count as f64));
    m.insert("kernel.share", share(Kind::Kernel));

    m.insert("profile.call_us", mean_us(Kind::Profile));
    m.insert("profile.calls_per_rknn", ratio(sum(&rknn, |s| s.profile_computations), nr));
    m.insert("profile.share", share(Kind::Profile));
}

/// Write the run's spans (first `keep` requests) under the output dir.
pub fn write_trace(ctx: &Ctx, workload: &str, spans: &[Span], keep: u32) {
    let path = ctx.out.join(format!("{workload}-seed{}-trace.csv", ctx.seed));
    if let Err(e) = trace::write_csv(&path, spans, keep) {
        eprintln!("fzbench: cannot write {}: {e}", path.display());
    }
}

/// Sleep until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// `d` in seconds as a [`Duration`].
pub fn dur(d: f64) -> Duration {
    Duration::from_secs_f64(d.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_blocks_hold_every_pair_once_and_the_rknn_share() {
        let seq = mix(&mut Rng::new(3, 1), 100, 7, 0.1);
        assert_eq!(seq.len(), 100);
        for block in seq.chunks(10) {
            let mut pairs: Vec<(usize, u64)> = block
                .iter()
                .filter_map(|r| match *r {
                    Req::Aknn { k, alpha, .. } => Some((k, alpha.to_bits())),
                    Req::Rknn { .. } => None,
                })
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), 9);
            assert_eq!(block.iter().filter(|r| r.is_rknn()).count(), 1);
        }
        let mut uses = [0; 7];
        for r in &seq {
            uses[r.q()] += 1;
        }
        assert!(uses.iter().all(|&n| n == 14 || n == 15), "{uses:?}");
    }

    #[test]
    fn calm_keeps_the_lower_steal_quartile() {
        let w = |steal: f64, id: u32| Window { log: id, steal };
        let quiet = [w(0.0, 0), w(0.2, 1), w(0.0, 2), w(0.1, 3), w(0.0, 4), w(0.3, 5)];
        assert_eq!(calm(&quiet), [&0, &2, &4]);
        let busy = [w(0.4, 0), w(0.1, 1), w(0.3, 2), w(0.2, 3)];
        assert_eq!(calm(&busy), [&1]);
        assert!(mostly_quiet(&quiet) && !mostly_quiet(&busy));
    }
}
