//! Tests of the benchmark itself: the metric contract, the correctness
//! gate and the self-time arithmetic of the traced run.

use fuzzy_core::{ObjectId, L2};
use fuzzy_datagen::SyntheticConfig;
use fuzzy_index::{RTree, RTreeConfig};
use fuzzy_query::{DistBound, QueryEngine, QueryScratch};
use fuzzy_store::{MemStore, ObjectStore};
use fzbench::common::{exec, mix, Answer, Ctx};
use fzbench::gate::{aknn_bytes, Gate};
use fzbench::report::{Outcome, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
use fzbench::stats::Rng;
use fzbench::trace::{self, Kind, Span, TracedMetric, TracedStore, TracedTree, NO_PARENT};
use std::path::PathBuf;

fn ctx(name: &str, trace: bool) -> Ctx {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "fzbench-{name}-{}-{}",
        trace as u8,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let (work, out) = (root.join("work"), root.join("out"));
    std::fs::create_dir_all(&work).unwrap();
    std::fs::create_dir_all(&out).unwrap();
    Ctx { seed: 7, seconds: 1.0, trace, nproc: fzbench::report::nproc().min(2), work, out }
}

fn tiny_run(name: &str, trace: bool) -> String {
    let ctx = ctx(name, trace);
    let outcome = fzbench::run(name, &ctx, fzbench::Size::Tiny).expect("tiny run succeeds");
    assert!(outcome.attempted > 0, "{name}: nothing attempted");
    assert_eq!(outcome.failed, 0, "{name}: {} operations failed", outcome.failed);
    let line = outcome.result_line(trace);
    std::fs::remove_dir_all(ctx.work.parent().unwrap()).unwrap();
    line
}

/// Every catalog metric appears once in the result line, with its unit.
fn assert_every_metric(line: &str, trace: bool) {
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    for (name, unit) in Outcome::catalog(trace) {
        let entry = format!("\"{name}\": {{\"value\": ");
        assert_eq!(line.matches(&entry).count(), 1, "{name} missing or repeated in {line}");
        let rest = &line[line.find(&entry).unwrap() + entry.len()..];
        let value = &rest[..rest.find(',').unwrap()];
        assert!(value.parse::<f64>().is_ok_and(f64::is_finite), "{name} = {value}");
        assert!(rest.starts_with(&format!("{value}, \"unit\": \"{unit}\"}}")), "{name} unit");
    }
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for name in fzbench::WORKLOADS {
        for trace in [false, true] {
            let line = tiny_run(name, trace);
            assert_every_metric(&line, trace);
            if !trace {
                // End-to-end metrics are never 0: the spread check divides by them.
                for (metric, _) in END_TO_END {
                    let entry = format!("\"{metric}\": {{\"value\": ");
                    let rest = &line[line.find(&entry).unwrap() + entry.len()..];
                    let value: f64 = rest[..rest.find(',').unwrap()].parse().unwrap();
                    assert!(value > 0.0, "{name}: {metric} = {value}");
                }
            }
        }
    }
}

#[test]
fn benchmark_json_names_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let (e2e, layers) = text.split_at(text.find("\"per_layer\"").expect("per_layer key"));
    let e2e = &e2e[e2e.find("\"end_to_end\"").expect("end_to_end key")..];
    let names = |section: &str| -> Vec<(String, String)> {
        section
            .split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let name = entry[..entry.find('"').unwrap()].to_string();
                let unit = entry.split("\"unit\": \"").nth(1).unwrap();
                (name, unit[..unit.find('"').unwrap()].to_string())
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names(e2e), own(&END_TO_END));
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().copied().chain([TRACE_OVERHEAD]).collect();
    assert_eq!(names(layers), own(&per_layer));
    let workloads =
        &text[text.find("\"workloads\"").unwrap()..text.find("\"end_to_end\"").unwrap()];
    let listed: Vec<&str> = workloads
        .split("{\"name\": \"")
        .skip(1)
        .map(|entry| &entry[..entry.find('"').unwrap()])
        .collect();
    assert!(listed.len() >= 2, "{listed:?}");
    for w in listed {
        assert!(fzbench::WORKLOADS.contains(&w), "unknown workload {w}");
    }
}

fn tiny_engine_fixture() -> (MemStore<2>, RTree<2>, Vec<fuzzy_core::FuzzyObject<2>>) {
    let data = SyntheticConfig {
        num_objects: 300,
        points_per_object: 10,
        space: 30.0,
        seed: 3,
        ..SyntheticConfig::default()
    };
    let store = MemStore::from_objects(data.generate()).unwrap();
    let tree = RTree::bulk_load(store.summaries().to_vec(), RTreeConfig::default());
    let queries = (1..=8).map(|i| data.query_object(i)).collect();
    (store, tree, queries)
}

#[test]
fn gate_rejects_a_corrupted_answer() {
    let (store, tree, queries) = tiny_engine_fixture();
    let engine = QueryEngine::new(&tree, &store);
    let seq = mix(&mut Rng::new(1, 1), 16, queries.len(), 0.25);
    let mut scratch = QueryScratch::new();
    let answers: Vec<Answer> =
        seq.iter().map(|r| exec(&engine, &L2, &queries[r.q()], r, &mut scratch).unwrap()).collect();
    let gate = Gate::new(answers.iter().map(|a| a.bytes.clone()).collect());
    for (i, a) in answers.iter().enumerate() {
        assert!(gate.check(i, &a.bytes));
        let mut flipped = a.bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(!gate.check(i, &flipped), "a flipped bit passed the gate");
        assert!(!gate.check(i, &a.bytes[..a.bytes.len() - 1]), "a truncated answer passed");
    }
    assert!(!gate.check(seq.len(), &answers[0].bytes), "an unknown request passed");

    // A neighbour one ulp farther, or a swapped id, is a different answer.
    let q = &queries[0];
    let r = engine.aknn(q, 5, 0.5, &fuzzy_query::AknnConfig::lb_lp_ub()).unwrap();
    let gate = Gate::new(vec![aknn_bytes(&r.neighbors)]);
    let mut farther = r.neighbors.clone();
    farther[0].dist = match farther[0].dist {
        DistBound::Exact(d) => DistBound::Exact(f64::from_bits(d.to_bits() + 1)),
        DistBound::Bounded { lo, hi } => {
            DistBound::Bounded { lo, hi: f64::from_bits(hi.to_bits() + 1) }
        }
    };
    assert!(!gate.check(0, &aknn_bytes(&farther)));
    let mut renamed = r.neighbors.clone();
    renamed[0].id = ObjectId(renamed[0].id.0 + 1);
    assert!(!gate.check(0, &aknn_bytes(&renamed)));
}

#[test]
fn traced_wrappers_return_bitwise_identical_answers() {
    let (store, tree, queries) = tiny_engine_fixture();
    let plain = QueryEngine::new(&tree, &store);
    let (ts, tt) = (TracedStore(&store), TracedTree(&tree));
    let traced = QueryEngine::new(&tt, &ts);
    let seq = mix(&mut Rng::new(2, 1), 64, queries.len(), 0.2);
    let mut scratch = QueryScratch::new();
    trace::take_thread_spans();
    for r in &seq {
        let q = &queries[r.q()];
        let a = exec(&plain, &L2, q, r, &mut scratch).unwrap();
        let b = exec(&traced, &TracedMetric, q, r, &mut scratch).unwrap();
        assert_eq!(a.bytes, b.bytes);
        let (mut sa, mut sb) = (a.stats, b.stats);
        sa.wall = Default::default();
        sb.wall = Default::default();
        assert_eq!(sa, sb, "counters differ under tracing");
    }
    let spans = trace::take_thread_spans();
    assert!(spans.iter().any(|s| s.kind == Kind::Kernel));
    assert!(spans.iter().any(|s| s.kind == Kind::Profile));
    assert!(spans.iter().any(|s| s.kind == Kind::Store));
}

fn span(kind: Kind, parent: u32, start: u64, end: u64) -> Span {
    Span { kind, qid: 1, parent, start, end, flag: false }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(Kind::Query, NO_PARENT, 0, 100),   // 0
        span(Kind::Store, 0, 10, 30),           // 1
        span(Kind::Index, 0, 20, 40),           // 2: overlaps 1 and 3
        span(Kind::Kernel, 0, 30, 50),          // 3
        span(Kind::Profile, 0, 60, 90),         // 4
        span(Kind::Kernel, 4, 70, 80),          // 5: grandchild of 0
        span(Kind::Query, NO_PARENT, 200, 210), // 6: a second request
    ];
    // Children of 0 cover [10, 50] and [60, 90]: 70 of its 100 ns.
    assert_eq!(trace::self_times(&spans), vec![30, 20, 20, 20, 20, 10, 10]);

    let totals = trace::totals(&spans);
    let query = trace::of(&totals, Kind::Query);
    assert_eq!((query.count, query.total_ns, query.self_ns), (2, 110, 40));
    let kernel = trace::of(&totals, Kind::Kernel);
    assert_eq!((kernel.count, kernel.total_ns, kernel.self_ns), (2, 30, 30));
    assert_eq!(trace::of(&totals, Kind::Profile).self_ns, 20);

    // Merging a second thread's buffer keeps its parents local to it.
    let mut all = spans.clone();
    trace::merge_into(
        &mut all,
        vec![span(Kind::Query, NO_PARENT, 0, 5), span(Kind::Store, 0, 1, 2)],
    );
    assert_eq!(all[8].parent, 7);
    assert_eq!(trace::self_times(&all)[7], 4);
}
