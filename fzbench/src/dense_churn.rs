//! `dense-churn`: heavily overlapping objects on a two-shard forest, one
//! closed-loop reader beside one fixed-rate writer that deletes and
//! reinserts existing objects and compacts the shards periodically.

use crate::common::*;
use crate::gate::{Gate, Tally};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{ratio, Rng};
use crate::trace::{self, Span, TracedMetric, TracedStore, TracedTree};
use fuzzy_core::{FuzzyObject, ObjectId, ObjectSummary, L2};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_index::{OverlayRTree, RTreeConfig, ShardedIndex, StrCenterAssign, DEFAULT_PAGE_SIZE};
use fuzzy_query::{AknnConfig, RknnAlgorithm, ShardedDynamicEngine, ShardedQueryEngine};
use fuzzy_store::{FileStore, ObjectStore};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sizes and rates of the workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Dataset (the seed is replaced by the run's).
    pub data: SyntheticConfig,
    /// Shards of the STR forest.
    pub shards: usize,
    /// Buffer-pool pages per shard.
    pub pool_pages: usize,
    /// Distinct query objects (the reader cycles through them).
    pub queries: usize,
    /// Queries of the RKNN probe after the churn phase.
    pub rknn_queries: usize,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Writer rate, update batches per second.
    pub write_rate: f64,
    /// Batches between two `compact_shards` calls.
    pub compact_every: usize,
}

/// k and α of the reader's AKNN queries.
pub const READ_K: usize = 10;
/// α of the reader's AKNN queries.
pub const READ_ALPHA: f64 = 0.5;

impl Spec {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            data: SyntheticConfig {
                num_objects: 20_000,
                points_per_object: 24,
                radius: 6.0,
                sigma: 0.5,
                space: 100.0,
                quantize_levels: None,
                seed: 0,
            },
            shards: 2,
            pool_pages: 256,
            queries: 1024,
            rknn_queries: 256,
            setup_reps: 5,
            write_rate: 20.0,
            compact_every: 16,
        }
    }

    /// A seconds-long version for tests.
    pub fn tiny() -> Self {
        let mut s = Self::full();
        s.data.num_objects = 400;
        s.data.points_per_object = 8;
        s.queries = 16;
        s.rknn_queries = 4;
        s.setup_reps = 2;
        s.write_rate = 40.0;
        s.compact_every = 4;
        s
    }
}

type Dynamic = ShardedDynamicEngine<OverlayRTree<2>, FileStore<2>, 2>;

/// One set-up repetition: write the store, build the STR forest, open it
/// delta-aware and wrap it in the dynamic engine.
fn setup(
    objects: &[FuzzyObject<2>],
    ctx: &Ctx,
    spec: &Spec,
) -> Result<(Dynamic, SetupTimes), String> {
    let err = |e: fuzzy_store::StoreError| e.to_string();
    let t = Instant::now();
    let store = write_store(objects, &ctx.work.join("dense.fzkn")).map_err(err)?;
    let store_write = secs(t);
    let t = Instant::now();
    let manifest = ctx.work.join("dense.fzsm");
    ShardedIndex::build(
        store.summaries().to_vec(),
        spec.shards,
        &StrCenterAssign,
        RTreeConfig::default(),
        &manifest,
        DEFAULT_PAGE_SIZE,
    )
    .map_err(err)?;
    let index_build = secs(t);
    let t = Instant::now();
    let (rows, overlays) = ShardedIndex::open_overlays(&manifest, spec.pool_pages).map_err(err)?;
    let regions = rows.shards.iter().map(|r| r.region).collect();
    let dynamic = ShardedDynamicEngine::new(overlays, regions, Arc::new(store));
    Ok((dynamic, SetupTimes { store_write, index_build, open: secs(t) }))
}

/// The open-loop writer: batch `j` is due at `j / rate`; it goes to
/// shard `j mod shards`, and every `compact_every` batches, and once at
/// the end, the forest is compacted. Latency runs from the due time
/// until `save_delta` returns.
fn writer(
    dynamic: &Dynamic,
    shard_ids: &[Vec<ObjectId>],
    summaries: &[ObjectSummary<2>],
    spec: &Spec,
    duration: f64,
    traced: bool,
) -> (WriteLog, Vec<Span>) {
    let t0 = Instant::now();
    let mut log = WriteLog::default();
    let mut j = 0;
    while (j as f64 / spec.write_rate) < duration {
        let due = t0 + dur(j as f64 / spec.write_rate);
        sleep_until(due);
        let shard = j % shard_ids.len();
        let ids = batch_ids(&shard_ids[shard], j / shard_ids.len());
        let r = update_batch(dynamic, shard, &ids, summaries, traced);
        log.tally.record(r.is_ok());
        if let Ok(b) = r {
            log.batch(due.elapsed().as_secs_f64(), b);
        }
        j += 1;
        if j % spec.compact_every == 0 {
            log.compaction(compact(dynamic, traced));
        }
    }
    // Leave the forest compacted, so the RKNN probe that follows always
    // starts from the same state whatever point of a cycle the churn
    // stopped at.
    log.compaction(compact(dynamic, traced));
    (log, if traced { trace::take_thread_spans() } else { Vec::new() })
}

/// Run the workload.
pub fn run(ctx: &Ctx, spec: &Spec) -> Result<Outcome, String> {
    let data = SyntheticConfig { seed: ctx.seed, ..spec.data };
    let objects: Vec<FuzzyObject<2>> = data.generate().collect();
    let pool: Vec<FuzzyObject<2>> =
        (0..spec.queries as u64).map(|i| data.query_object(i + 1)).collect();
    let mut rng = Rng::new(ctx.seed, 3);

    let mut reps = Vec::new();
    let mut opened = None;
    for _ in 0..spec.setup_reps {
        // Close the previous repetition before its files are rewritten.
        drop(opened.take());
        let (dynamic, times) = setup(&objects, ctx, spec)?;
        reps.push(times);
        opened = Some(dynamic);
    }
    let dynamic = opened.expect("at least one set-up repetition");
    settle(&ctx.work);
    let mut m = Metrics::new();
    setup_metrics(&mut m, &reps);
    drop(objects);

    // Pristine-forest answers: the live set never changes, so every read
    // must match these byte for byte.
    let cfg = AknnConfig::lb_lp_ub();
    let snaps = dynamic.snapshots();
    let pristine = ShardedQueryEngine::new(&snaps, dynamic.store());
    let mut expected = Vec::with_capacity(pool.len());
    let mut pristine_reads = Vec::with_capacity(pool.len());
    for q in &pool {
        let r = pristine.aknn_in(&L2, q, READ_K, READ_ALPHA, &cfg).map_err(|e| e.to_string())?;
        expected.push(Answer::aknn(&r.neighbors, r.stats).bytes);
        pristine_reads.push(r.stats.node_accesses as i64);
    }
    let gate = Gate::new(expected);
    let rknn_pool = &pool[..spec.rknn_queries.min(pool.len())];
    let mut rknn_expected = Vec::with_capacity(rknn_pool.len());
    for q in rknn_pool {
        let (lo, hi) = RKNN_RANGE;
        let r = pristine
            .rknn(q, RKNN_K, lo, hi, RknnAlgorithm::RssIcr, &cfg)
            .map_err(|e| e.to_string())?;
        rknn_expected.push(Answer::rknn(&r.items, r.stats).bytes);
    }
    let rknn_gate = Gate::new(rknn_expected);
    let mut shard_ids = Vec::with_capacity(snaps.len());
    for shard in &snaps {
        let live = shard.live_summaries().map_err(|e| e.to_string())?;
        let mut ids: Vec<ObjectId> = live.iter().map(|s| s.id).collect();
        shuffle(&mut rng, &mut ids);
        shard_ids.push(ids);
    }
    drop(snaps);

    let delta_sum = AtomicI64::new(0);
    let read = |i: usize, traced: bool| {
        let qi = i % pool.len();
        let snaps = dynamic.snapshots();
        let result = if traced {
            let trees: Vec<TracedTree<'_, Arc<OverlayRTree<2>>>> =
                snaps.iter().map(TracedTree).collect();
            let store = TracedStore(dynamic.store());
            ShardedQueryEngine::new(&trees, &store).aknn_in(
                &TracedMetric,
                &pool[qi],
                READ_K,
                READ_ALPHA,
                &cfg,
            )
        } else {
            ShardedQueryEngine::new(&snaps, dynamic.store())
                .aknn_in(&L2, &pool[qi], READ_K, READ_ALPHA, &cfg)
        };
        let answer = result.ok().map(|r| Answer::aknn(&r.neighbors, r.stats));
        if let (true, Some(a)) = (traced, &answer) {
            delta_sum
                .fetch_add(a.stats.node_accesses as i64 - pristine_reads[qi], Ordering::Relaxed);
        }
        (false, answer.filter(|a| gate.check(qi, &a.bytes)))
    };
    let s = ctx.seconds;
    let next = AtomicUsize::new(0);
    let mut tally = Tally::default();
    tally.add(closed_loop(1, 0.05 * s, &next, false, || (), |i, _| read(i, false)).tally);

    let churn_s = 0.7 * s;
    let summaries = dynamic.store().summaries();
    let (plain, traced, (mut writes, write_spans)) = std::thread::scope(|scope| {
        let w = scope.spawn(|| writer(&dynamic, &shard_ids, summaries, spec, churn_s, ctx.trace));
        let window_s = if ctx.trace { churn_s / 2.0 } else { churn_s } / WINDOWS as f64;
        let plain: Vec<Window<LoopLog>> = (0..WINDOWS)
            .map(|_| {
                window(|| closed_loop(1, window_s, &next, false, || (), |i, _| read(i, false)))
            })
            .collect();
        let traced = ctx.trace.then(|| {
            closed_loop(1, window_s * WINDOWS as f64, &next, true, || (), |i, _| read(i, true))
        });
        (plain, traced, w.join().expect("writer thread panicked"))
    });
    for w in &plain {
        tally.add(w.log.tally);
    }
    tally.add(writes.tally);
    writes.metrics(&mut m);

    // RKNN probe on the churned forest, writer stopped.
    let next = AtomicUsize::new(0);
    let probe_window = |_| {
        window(|| {
            closed_loop(
                1,
                0.2 * s / WINDOWS as f64,
                &next,
                false,
                || (),
                |i, _| {
                    let qi = i % rknn_pool.len();
                    let snaps = dynamic.snapshots();
                    let (lo, hi) = RKNN_RANGE;
                    let r = ShardedQueryEngine::new(&snaps, dynamic.store()).rknn(
                        &rknn_pool[qi],
                        RKNN_K,
                        lo,
                        hi,
                        RknnAlgorithm::RssIcr,
                        &cfg,
                    );
                    let answer = r.ok().map(|r| Answer::rknn(&r.items, r.stats));
                    (true, answer.filter(|a| rknn_gate.check(qi, &a.bytes)))
                },
            )
        })
    };
    let probe: Vec<Window<LoopLog>> = (0..WINDOWS).map(probe_window).collect();
    for w in &probe {
        tally.add(w.log.tally);
    }

    if let Some(traced) = traced {
        tally.add(traced.tally);
        layer_metrics(&mut m, &traced.spans, &traced.reqs);
        let io = dynamic.store().stats();
        m.insert("store.bytes_per_probe", ratio(io.bytes_read as f64, io.object_reads as f64));
        m.insert(
            "index.delta_node_reads_per_query",
            ratio(delta_sum.load(Ordering::Relaxed) as f64, traced.reqs.len() as f64),
        );
        let mut untraced = LoopLog::default();
        for w in plain {
            untraced.absorb(w.log);
        }
        m.insert("trace.overhead_us_per_query", traced.mean_us() - untraced.mean_us());
        for name in SERVER_METRICS {
            m.insert(name, 0.0);
        }
        write_trace(ctx, "dense-churn", &traced.spans, 2000);
        write_trace(ctx, "dense-churn-writes", &write_spans, u32::MAX);
    } else {
        latency_metrics(&mut m, false, &plain, |w| &w.aknn);
        latency_metrics(&mut m, true, &probe, |w| &w.rknn);
        let qps = over(&plain, |w| ratio(w.aknn.len() as f64, w.elapsed));
        m.insert("qps", qps);
        // One closed-loop reader: its completed rate is the most it can
        // sustain beside the writer.
        m.insert("max_qps", qps);
    }
    drop(dynamic);

    m.insert("disk_bytes_per_object", ratio(dir_bytes(&ctx.work) as f64, data.num_objects as f64));
    m.insert("peak_rss_mb", peak_rss_mb());
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics: m })
}
