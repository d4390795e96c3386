//! `sparse-batch`: many small objects spread so thin that supports rarely
//! overlap, over a paged index many times its buffer pool, queried
//! closed-loop through the engine from `nproc` threads.

use crate::common::*;
use crate::gate::{Gate, Tally};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{ratio, Rng};
use crate::trace::{self, TracedMetric, TracedStore, TracedTree};
use fuzzy_core::{FuzzyObject, L2};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_geom::Mbr;
use fuzzy_index::{OverlayRTree, PagedRTree, RTree, RTreeConfig, DEFAULT_PAGE_SIZE};
use fuzzy_query::{QueryEngine, QueryScratch, ShardedDynamicEngine};
use fuzzy_store::{FileStore, ObjectStore};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

/// Sizes of the workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Dataset (the seed is replaced by the run's).
    pub data: SyntheticConfig,
    /// Buffer-pool pages of the index.
    pub pool_pages: usize,
    /// Distinct query objects.
    pub queries: usize,
    /// Requests in the sequence (cycled).
    pub seq_len: usize,
    /// Share of RKNN requests.
    pub rknn_share: f64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Write probe: compaction rounds.
    pub write_rounds: usize,
    /// Write probe batches per round.
    pub write_batches: usize,
}

impl Spec {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            data: SyntheticConfig {
                num_objects: 200_000,
                points_per_object: 24,
                radius: 0.5,
                sigma: 0.5,
                space: 1000.0,
                quantize_levels: None,
                seed: 0,
            },
            pool_pages: 256,
            queries: 4000,
            seq_len: 8000,
            rknn_share: 0.1,
            setup_reps: 3,
            write_rounds: 16,
            write_batches: 16,
        }
    }

    /// A seconds-long version for tests.
    pub fn tiny() -> Self {
        let mut s = Self::full();
        s.data.num_objects = 600;
        s.data.points_per_object = 8;
        s.data.space = 100.0;
        s.pool_pages = 4;
        s.queries = 16;
        s.seq_len = 32;
        s.setup_reps = 2;
        s.write_rounds = 2;
        s.write_batches = 2;
        s
    }
}

/// Run the workload.
pub fn run(ctx: &Ctx, spec: &Spec) -> Result<Outcome, String> {
    let data = SyntheticConfig { seed: ctx.seed, ..spec.data };
    let objects: Vec<FuzzyObject<2>> = data.generate().collect();
    let pool: Vec<FuzzyObject<2>> =
        (0..spec.queries as u64).map(|i| data.query_object(i + 1)).collect();
    let mut rng = Rng::new(ctx.seed, 2);
    let seq = mix(&mut rng, spec.seq_len, pool.len(), spec.rknn_share);
    let (store_path, index_path) = (ctx.work.join("sparse.fzkn"), ctx.work.join("sparse.fzpt"));

    let mut reps = Vec::new();
    let mut opened = None;
    for _ in 0..spec.setup_reps {
        // Close the previous repetition before its files are rewritten.
        drop(opened.take());
        let t = Instant::now();
        let store = write_store(&objects, &store_path).map_err(|e| e.to_string())?;
        let store_write = secs(t);
        let t = Instant::now();
        let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        PagedRTree::write_tree(&tree, &index_path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?;
        let index_build = secs(t);
        let t = Instant::now();
        let paged = PagedRTree::<2>::open_with_cache(&index_path, spec.pool_pages)
            .map_err(|e| e.to_string())?;
        reps.push(SetupTimes { store_write, index_build, open: secs(t) });
        opened = Some((store, paged));
    }
    let (store, paged): (FileStore<2>, PagedRTree<2>) =
        opened.expect("at least one set-up repetition");
    settle(&ctx.work);
    let mut m = Metrics::new();
    setup_metrics(&mut m, &reps);
    drop(objects);

    // Reference: the in-memory R-tree engine over the same summaries.
    let gate = {
        let mem = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
        let engine = QueryEngine::new(&mem, &store);
        let mut scratch = QueryScratch::new();
        let mut expected = Vec::with_capacity(seq.len());
        for r in &seq {
            let a = exec(&engine, &L2, &pool[r.q()], r, &mut scratch);
            expected.push(a.map_err(|e| e.to_string())?.bytes);
        }
        Gate::new(expected)
    };

    let engine = QueryEngine::new(&paged, &store);
    let (traced_store, traced_tree) = (TracedStore(&store), TracedTree(&paged));
    let traced_engine = QueryEngine::new(&traced_tree, &traced_store);
    let run_loop = |duration: f64, next: &AtomicUsize, traced: bool| {
        closed_loop(ctx.nproc, duration, next, traced, QueryScratch::new, |i, scratch| {
            let r = &seq[i % seq.len()];
            let a = if traced {
                exec(&traced_engine, &TracedMetric, &pool[r.q()], r, scratch)
            } else {
                exec(&engine, &L2, &pool[r.q()], r, scratch)
            };
            (r.is_rknn(), a.ok().filter(|a| gate.check(i % seq.len(), &a.bytes)))
        })
    };
    let s = ctx.seconds;
    let next = AtomicUsize::new(0);
    let mut tally = Tally::default();
    tally.add(run_loop(0.1 * s, &next, false).tally);
    let planned = if ctx.trace { 0.35 * s } else { 0.7 * s };
    let windows = calm_phase(planned, |d| run_loop(d, &next, false));
    let mut main = LoopLog::default();
    for w in &windows {
        main.tally.add(w.log.tally);
    }
    tally.add(main.tally);
    if ctx.trace {
        for w in windows {
            main.absorb(w.log);
        }
        trace::take_thread_spans();
        let io0 = store.stats();
        let traced = run_loop(0.35 * s, &next, true);
        let io = store.stats();
        tally.add(traced.tally);
        layer_metrics(&mut m, &traced.spans, &traced.reqs);
        m.insert(
            "store.bytes_per_probe",
            ratio(
                (io.bytes_read - io0.bytes_read) as f64,
                (io.object_reads - io0.object_reads) as f64,
            ),
        );
        m.insert("index.delta_node_reads_per_query", 0.0);
        m.insert("trace.overhead_us_per_query", traced.mean_us() - main.mean_us());
        for name in SERVER_METRICS {
            m.insert(name, 0.0);
        }
        write_trace(ctx, "sparse-batch", &traced.spans, 2000);
    } else {
        latency_metrics(&mut m, false, &windows, |w| &w.aknn);
        latency_metrics(&mut m, true, &windows, |w| &w.rknn);
        m.insert("qps", over(&windows, |w| ratio(w.aknn.len() as f64, w.elapsed)));
        // Closed loop from every core: the completed rate is the highest
        // this caller can sustain.
        m.insert(
            "max_qps",
            over(&windows, |w| ratio((w.aknn.len() + w.rknn.len()) as f64, w.elapsed)),
        );
    }

    let overlay = OverlayRTree::new(Arc::new(paged)).map_err(|e| e.to_string())?;
    let dynamic = ShardedDynamicEngine::new(vec![overlay], vec![Mbr::empty()], Arc::new(store));
    let mut writes =
        write_probe(&dynamic, &mut rng, spec.write_rounds, spec.write_batches, ctx.trace);
    if ctx.trace {
        write_trace(ctx, "sparse-batch-writes", &trace::take_thread_spans(), u32::MAX);
    }
    tally.add(writes.tally);
    writes.metrics(&mut m);
    drop(dynamic);

    m.insert("disk_bytes_per_object", ratio(dir_bytes(&ctx.work) as f64, data.num_objects as f64));
    m.insert("peak_rss_mb", peak_rss_mb());
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics: m })
}
