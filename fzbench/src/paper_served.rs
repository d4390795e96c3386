//! `paper-served`: the paper's Table 2 synthetic setting behind an
//! in-process FZQP server, driven open-loop from `nproc` connections.

use crate::common::*;
use crate::gate::{Gate, Tally};
use crate::report::{peak_rss_mb, Metrics, Outcome};
use crate::stats::{median, ratio, Rng};
use crate::trace::{self, TracedMetric, TracedStore, TracedTree};
use fuzzy_core::{FuzzyObject, L2};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_geom::Mbr;
use fuzzy_index::{OverlayRTree, PagedRTree, RTree, RTreeConfig, DEFAULT_PAGE_SIZE};
use fuzzy_query::{QueryEngine, QueryScratch, RknnAlgorithm, ShardedDynamicEngine};
use fuzzy_server::{
    serve, Client, ListenAddr, QuerySource, Request, Response, ServeIndex, ServeOptions,
    ServerHandle, WireVariant,
};
use fuzzy_store::{FileStore, ObjectStore};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// p99 latency limit of a passing `max_qps` ladder step.
const SLO_MS: f64 = 50.0;

/// First ladder step, as a grid index: `1.06^24 ≈ 4` times the
/// latency-phase rate, about two thirds of the knee.
const LADDER_START: i32 = 24;

/// Sizes and rates of the workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Dataset (the seed is replaced by the run's).
    pub data: SyntheticConfig,
    /// Buffer-pool pages of the served index.
    pub pool_pages: usize,
    /// Distinct query objects.
    pub queries: usize,
    /// Requests in the sequence (cycled).
    pub seq_len: usize,
    /// Share of RKNN requests.
    pub rknn_share: f64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setup_reps: usize,
    /// Offered rate of the latency phase, requests per second.
    pub fixed_qps: f64,
    /// Write probe: compaction rounds and batches per round.
    pub write_rounds: usize,
    /// Write probe batches per round.
    pub write_batches: usize,
}

impl Spec {
    /// The benchmark's sizes: Table 2 with 120 points per object.
    pub fn full() -> Self {
        Self {
            data: SyntheticConfig {
                num_objects: 50_000,
                points_per_object: 120,
                radius: 0.5,
                sigma: 0.5,
                space: 100.0,
                quantize_levels: None,
                seed: 0,
            },
            pool_pages: 200,
            queries: 3000,
            seq_len: 6000,
            rknn_share: 0.1,
            setup_reps: 3,
            fixed_qps: 450.0,
            write_rounds: 20,
            write_batches: 16,
        }
    }

    /// A seconds-long version for tests.
    pub fn tiny() -> Self {
        let mut s = Self::full();
        s.data.num_objects = 400;
        s.data.points_per_object = 12;
        s.pool_pages = 4;
        s.queries = 16;
        s.seq_len = 32;
        s.setup_reps = 2;
        s.rknn_share = 0.3;
        s.fixed_qps = 400.0;
        s.write_rounds = 2;
        s.write_batches = 2;
        s
    }
}

/// What the open-loop generator saw over one step.
#[derive(Debug, Default)]
struct LoadStep {
    /// Latency from due time to reply, seconds, per kind.
    aknn: Vec<f64>,
    rknn: Vec<f64>,
    /// Send time minus due time, seconds.
    lag: Vec<f64>,
    /// Server-reported service time (`WireStats::wall_nanos`), seconds.
    service: Vec<f64>,
    /// Round trip minus service time, seconds.
    overhead: Vec<f64>,
    /// Client codec timings, seconds (traced runs only).
    encode: Vec<f64>,
    decode: Vec<f64>,
    busy: u64,
    tally: Tally,
    /// Offered rate and wall time until the last reply.
    offered: f64,
    elapsed: f64,
}

impl LoadStep {
    fn merge(&mut self, o: LoadStep) {
        self.aknn.extend(o.aknn);
        self.rknn.extend(o.rknn);
        self.lag.extend(o.lag);
        self.service.extend(o.service);
        self.overhead.extend(o.overhead);
        self.encode.extend(o.encode);
        self.decode.extend(o.decode);
        self.busy += o.busy;
        self.tally.add(o.tally);
    }

    fn achieved(&self) -> f64 {
        ratio((self.aknn.len() + self.rknn.len()) as f64, self.elapsed)
    }

    fn p99_ms(&self) -> f64 {
        pct_ms(&self.aknn.iter().chain(&self.rknn).copied().collect::<Vec<_>>(), 99.0)
    }

    fn passes(&self) -> bool {
        self.tally.failed == 0 && self.p99_ms() <= SLO_MS && self.achieved() >= 0.95 * self.offered
    }
}

/// Drive the server open-loop at `rate` for `duration` seconds: request
/// `i` is due at `i / rate`, connection `i mod n` sends it, and its
/// latency runs from the due time, so a stall is charged to every
/// request it delays.
fn open_loop(
    clients: &mut [Client],
    wire: &[Request],
    gate: &Gate,
    rate: f64,
    duration: f64,
    first: usize,
    codec: bool,
) -> LoadStep {
    let n = clients.len();
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut out = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut s = LoadStep::default();
                    let mut i = c;
                    loop {
                        let due_s = i as f64 / rate;
                        if due_s >= duration {
                            break;
                        }
                        let seq = (first + i) % wire.len();
                        let due = t0 + dur(due_s);
                        sleep_until(due);
                        let sent = Instant::now();
                        let reply = client.call(&wire[seq]);
                        let done = Instant::now();
                        let latency = (done - due).as_secs_f64();
                        s.lag.push((sent - due).as_secs_f64());
                        let answer = match &reply {
                            Ok(Response::Aknn { neighbors, stats }) => {
                                Some((Answer::aknn(neighbors, stats.to_query_stats()), false))
                            }
                            Ok(Response::Rknn { items, stats }) => {
                                Some((Answer::rknn(items, stats.to_query_stats()), true))
                            }
                            Ok(Response::Busy) => {
                                s.busy += 1;
                                None
                            }
                            _ => None,
                        };
                        let ok = answer.as_ref().is_some_and(|(a, _)| gate.check(seq, &a.bytes));
                        s.tally.record(ok);
                        if let Some((a, rknn)) = answer.filter(|_| ok) {
                            let service = a.stats.wall.as_secs_f64();
                            s.service.push(service);
                            s.overhead.push((done - sent).as_secs_f64() - service);
                            if rknn {
                                s.rknn.push(latency);
                            } else {
                                s.aknn.push(latency);
                            }
                        }
                        if codec {
                            let t = Instant::now();
                            std::hint::black_box(wire[seq].encode(i as u64));
                            s.encode.push(secs(t));
                            if let Ok(r) = &reply {
                                let payload = r.payload();
                                let t = Instant::now();
                                let decoded = Response::decode(r.frame_type(), &payload);
                                s.decode.push(secs(t));
                                std::hint::black_box(decoded.is_ok());
                            }
                        }
                        i += n;
                    }
                    s
                })
            })
            .collect();
        let mut all = LoadStep::default();
        for h in handles {
            all.merge(h.join().expect("load generator thread panicked"));
        }
        all
    });
    out.offered = rate;
    out.elapsed = t0.elapsed().as_secs_f64().max(duration);
    out
}

/// Highest ladder rate whose step passes: grid `fixed_qps · 1.06^i`,
/// climbing (or descending) in ×1.26 strides from four times the
/// latency-phase rate, then bisecting between the last pass and the
/// first failure. Reports the achieved rate of the best passing step
/// (or of the lowest step tried, when none passes).
#[allow(clippy::too_many_arguments)]
fn ladder(
    clients: &mut [Client],
    wire: &[Request],
    gate: &Gate,
    spec: &Spec,
    step_s: f64,
    tally: &mut Tally,
    first: &mut usize,
) -> f64 {
    let grid = |i: i32| spec.fixed_qps * 1.06f64.powi(i);
    let mut steps = Vec::new();
    // A failing step runs once more before it counts as failed, so one
    // stall of the machine does not end the climb.
    let mut run = |i: i32, tally: &mut Tally| {
        let mut outcome = (false, 0.0);
        for _ in 0..2 {
            let step = open_loop(clients, wire, gate, grid(i), step_s, *first, false);
            *first += step.tally.attempted as usize;
            tally.add(step.tally);
            outcome = (step.passes(), step.achieved());
            steps.push(format!(
                "{:.0}->{:.0}/s p99 {:.2}ms {}",
                grid(i),
                step.achieved(),
                step.p99_ms(),
                if outcome.0 { "pass" } else { "fail" }
            ));
            if outcome.0 {
                break;
            }
        }
        outcome
    };
    let (mut pass, mut fail): (Option<(i32, f64)>, Option<i32>) = (None, None);
    let (mut i, mut last) = (LADDER_START, 0.0);
    for _ in 0..12 {
        let (ok, achieved) = run(i, tally);
        last = achieved;
        if ok {
            pass = Some((i, achieved));
            if fail.is_some() {
                break;
            }
            i += 4;
        } else {
            fail = Some(i);
            if pass.is_some() {
                break;
            }
            i -= 4;
        }
    }
    let best = match (pass, fail) {
        (Some((mut lo, mut best)), Some(mut hi)) => {
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                let (ok, achieved) = run(mid, tally);
                if ok {
                    (lo, best) = (mid, achieved);
                } else {
                    hi = mid;
                }
            }
            best
        }
        _ => pass.map_or(last, |p| p.1),
    };
    eprintln!("fzbench: max_qps ladder: {}", steps.join(", "));
    best
}

struct Files {
    store: PathBuf,
    index: PathBuf,
}

/// One set-up repetition: write the store, build and write the paged
/// index, open it with the workload's pool and start the server.
fn setup(
    objects: &[FuzzyObject<2>],
    files: &Files,
    spec: &Spec,
    workers: usize,
) -> Result<(ServerHandle, SetupTimes), String> {
    let t = Instant::now();
    let store = write_store(objects, &files.store).map_err(|e| e.to_string())?;
    let store_write = secs(t);
    let t = Instant::now();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    PagedRTree::write_tree(&tree, &files.index, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?;
    let index_build = secs(t);
    let t = Instant::now();
    let index = ServeIndex::open_paged(path_str(&files.index)?, spec.pool_pages)
        .map_err(|e| e.to_string())?;
    let opts = ServeOptions { workers, queue_depth: 64, cache_pages: spec.pool_pages };
    let handle = serve(store, index, &ListenAddr::Tcp("127.0.0.1:0".into()), &opts)
        .map_err(|e| e.to_string())?;
    let open = secs(t);
    Ok((handle, SetupTimes { store_write, index_build, open }))
}

fn path_str(p: &std::path::Path) -> Result<&str, String> {
    p.to_str().ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

/// Run the workload.
pub fn run(ctx: &Ctx, spec: &Spec) -> Result<Outcome, String> {
    let data = SyntheticConfig { seed: ctx.seed, ..spec.data };
    let objects: Vec<FuzzyObject<2>> = data.generate().collect();
    let pool: Vec<FuzzyObject<2>> =
        (0..spec.queries as u64).map(|i| data.query_object(i + 1)).collect();
    let mut rng = Rng::new(ctx.seed, 1);
    let seq = mix(&mut rng, spec.seq_len, pool.len(), spec.rknn_share);
    let wire: Vec<Request> = seq
        .iter()
        .map(|r| match *r {
            Req::Aknn { q, k, alpha } => Request::Aknn {
                query: QuerySource::inline(&pool[q]),
                k: k as u32,
                alpha,
                variant: WireVariant::LbLpUb,
                deadline_ms: 1000,
            },
            Req::Rknn { q } => Request::Rknn {
                query: QuerySource::inline(&pool[q]),
                k: RKNN_K as u32,
                alpha_start: RKNN_RANGE.0,
                alpha_end: RKNN_RANGE.1,
                algo: RknnAlgorithm::RssIcr,
                variant: WireVariant::LbLpUb,
                deadline_ms: 1000,
            },
        })
        .collect();
    let files = Files { store: ctx.work.join("paper.fzkn"), index: ctx.work.join("paper.fzpt") };
    let conns = ctx.nproc;

    // Set-up repetitions; the last one's server stays up.
    let mut reps = Vec::new();
    let mut server = None;
    for _ in 0..spec.setup_reps {
        if let Some(h) = server.take() {
            ServerHandle::stop(h);
        }
        let (h, times) = setup(&objects, &files, spec, conns)?;
        reps.push(times);
        server = Some(h);
    }
    let server = server.expect("at least one set-up repetition");
    settle(&ctx.work);
    let mut m = Metrics::new();
    setup_metrics(&mut m, &reps);
    drop(objects);

    // Reference answers from the in-process engine over the same files.
    let store = FileStore::<2>::open(&files.store).map_err(|e| e.to_string())?;
    let tree = PagedRTree::<2>::open_with_cache(&files.index, spec.pool_pages)
        .map_err(|e| e.to_string())?;
    let engine = QueryEngine::new(&tree, &store);
    let mut scratch = QueryScratch::new();
    let mut expected = Vec::with_capacity(seq.len());
    for r in &seq {
        let q = &pool[r.q()];
        expected.push(exec(&engine, &L2, q, r, &mut scratch).map_err(|e| e.to_string())?.bytes);
    }
    let gate = Gate::new(expected);

    let mut clients = Vec::with_capacity(conns);
    for _ in 0..conns {
        let mut c = Client::connect_to(server.addr()).map_err(|e| e.to_string())?;
        c.set_read_timeout(Some(Duration::from_secs(20))).map_err(|e| e.to_string())?;
        clients.push(c);
    }
    let mut tally = Tally::default();
    let s = ctx.seconds;
    let mut first = 0usize;
    let warm = open_loop(&mut clients, &wire, &gate, spec.fixed_qps, 0.05 * s, first, false);
    first += warm.tally.attempted as usize;
    tally.add(warm.tally);

    if !ctx.trace {
        let max_qps = ladder(&mut clients, &wire, &gate, spec, s / 30.0, &mut tally, &mut first);
        let windows = calm_phase(0.6 * s, |d| {
            let t = Instant::now();
            let mut w = open_loop(&mut clients, &wire, &gate, spec.fixed_qps, d, first, false);
            // `qps` counts the window's whole wall time, the lead-in
            // before its first due time and the last reply included.
            w.elapsed = secs(t);
            first += w.tally.attempted as usize;
            tally.add(w.tally);
            w
        });
        latency_metrics(&mut m, false, &windows, |w| &w.aknn);
        latency_metrics(&mut m, true, &windows, |w| &w.rknn);
        m.insert("max_qps", max_qps);
        m.insert("qps", over(&windows, |w| ratio(w.aknn.len() as f64, w.elapsed)));
    } else {
        let fixed = open_loop(&mut clients, &wire, &gate, spec.fixed_qps, 0.6 * s, first, true);
        tally.add(fixed.tally);
        let ms = pct_ms;
        let us = |v: &[f64]| median(&v.iter().map(|x| x * 1e6).collect::<Vec<_>>());
        m.insert("server.service_ms_p50", ms(&fixed.service, 50.0));
        m.insert("server.service_ms_p99", ms(&fixed.service, 99.0));
        m.insert("server.overhead_ms_p50", ms(&fixed.overhead, 50.0));
        m.insert("server.overhead_ms_p99", ms(&fixed.overhead, 99.0));
        m.insert("server.busy_frac", ratio(fixed.busy as f64, fixed.tally.attempted as f64));
        m.insert("server.request_encode_us", us(&fixed.encode));
        m.insert("server.response_decode_us", us(&fixed.decode));
        m.insert("loadgen.lag_ms_p99", ms(&fixed.lag, 99.0));
    }
    drop(clients);
    server.stop();

    if ctx.trace {
        // The split inside service time: the same sequence replayed
        // in-process over the same files and pool size. Each request runs
        // untraced and traced in turn, the two in alternating order, so
        // a change in the host's speed cancels out of the overhead.
        let (traced_store, traced_tree) = (TracedStore(&store), TracedTree(&tree));
        let traced = QueryEngine::new(&traced_tree, &traced_store);
        trace::take_thread_spans();
        let io0 = store.stats();
        let mut reqs = Vec::new();
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        let t0 = Instant::now();
        let mut n = 0;
        while secs(t0) < 0.4 * s || n == 0 {
            let (qi, r) = (n % seq.len(), &seq[n % seq.len()]);
            for plain in [n % 2 == 0, n % 2 == 1] {
                let t = Instant::now();
                if plain {
                    let a = exec(&engine, &L2, &pool[r.q()], r, &mut scratch);
                    plain_s += secs(t);
                    tally.record(a.is_ok_and(|a| gate.check(qi, &a.bytes)));
                } else {
                    let a = traced_request(n as u32, || {
                        exec(&traced, &TracedMetric, &pool[r.q()], r, &mut scratch)
                    });
                    traced_s += secs(t);
                    tally.record(a.as_ref().is_ok_and(|a| gate.check(qi, &a.bytes)));
                    if let Ok(a) = a {
                        reqs.push(TracedReq {
                            rknn: r.is_rknn(),
                            stats: a.stats,
                            results: a.results,
                        });
                    }
                }
            }
            n += 1;
        }
        let io = store.stats();
        let spans = trace::take_thread_spans();
        layer_metrics(&mut m, &spans, &reqs);
        m.insert(
            "store.bytes_per_probe",
            ratio(
                (io.bytes_read - io0.bytes_read) as f64,
                (io.object_reads - io0.object_reads) as f64,
            ),
        );
        m.insert("index.delta_node_reads_per_query", 0.0);
        m.insert("trace.overhead_us_per_query", (traced_s - plain_s) * 1e6 / n as f64);
        write_trace(ctx, "paper-served", &spans, 2000);
    }

    // Write probe over the served index, after the server has stopped.
    let base =
        PagedRTree::open_with_cache(&files.index, spec.pool_pages).map_err(|e| e.to_string())?;
    let overlay = OverlayRTree::new(Arc::new(base)).map_err(|e| e.to_string())?;
    let dynamic = ShardedDynamicEngine::new(vec![overlay], vec![Mbr::empty()], Arc::new(store));
    trace::take_thread_spans();
    let mut writes =
        write_probe(&dynamic, &mut rng, spec.write_rounds, spec.write_batches, ctx.trace);
    let write_spans = trace::take_thread_spans();
    if ctx.trace {
        write_trace(ctx, "paper-served-writes", &write_spans, u32::MAX);
    }
    tally.add(writes.tally);
    writes.metrics(&mut m);
    drop(dynamic);
    drop(tree);

    m.insert("disk_bytes_per_object", ratio(dir_bytes(&ctx.work) as f64, data.num_objects as f64));
    m.insert("peak_rss_mb", peak_rss_mb());
    Ok(Outcome { attempted: tally.attempted, failed: tally.failed, metrics: m })
}
