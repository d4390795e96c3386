//! Recall-measurement harness for the approximate AKNN path.
//!
//! Three properties pin the semantics of the VP-tree's ε slack, for any
//! seeded workload:
//!
//! 1. **Exact dial ⇒ recall 1.0**: at `ε = +∞` the VP-tree path answers
//!    bit-identically to the exact engine — ids *and* IEEE-754 distance
//!    bits — even when `k` or more centers coincide with the query's.
//! 2. **Recall is monotone in the slack**: the final τ_c is the true k-th
//!    center distance at every ε, so the pool at ε is a subset of the
//!    pool at any larger ε, and recall@k can only rise.
//! 3. **Every returned `(dist, id)` pair is bit-identical to an
//!    exact-oracle pair**: the slack moves recall, never the reported
//!    distance of any returned object.

use fuzzy_core::metric::L2;
use fuzzy_core::{FuzzyObject, ObjectId, Threshold};
use fuzzy_geom::Point;
use fuzzy_index::{parse_slack, RTree, RTreeConfig, VpTree, VpTreeConfig};
use fuzzy_query::{
    approx_aknn, metric_aknn_brute, recall_at_k, AknnConfig, ApproxConfig, DistBound, QueryEngine,
};
use fuzzy_store::{MemStore, ObjectStore};
use proptest::prelude::*;

/// A deterministic pseudo-random fuzzy object (xorshift, no external RNG).
fn blob(id: u64, salt: u64) -> FuzzyObject<2> {
    let mut state = (id ^ salt.rotate_left(23)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut rnd = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let (cx, cy) = ((id % 9) as f64 * 3.0 + rnd(), (id / 9) as f64 * 3.0 + rnd());
    let mut pts = vec![Point::xy(cx, cy)];
    let mut mus = vec![1.0];
    for _ in 1..12 {
        let r = rnd();
        let th = rnd() * std::f64::consts::TAU;
        pts.push(Point::xy(cx + r * th.cos(), cy + r * th.sin()));
        mus.push((((1.0 - r) * 10.0).round() / 10.0).clamp(0.1, 1.0));
    }
    FuzzyObject::new(ObjectId(id), pts, mus).unwrap()
}

fn store_of(n: u64, salt: u64) -> MemStore<2> {
    MemStore::from_objects((0..n).map(|i| blob(i, salt))).unwrap()
}

/// Render an answer as ids plus raw distance bits — byte-identity proof.
fn fingerprint(result: &fuzzy_query::AknnResult) -> String {
    result
        .neighbors
        .iter()
        .map(|n| match n.dist {
            DistBound::Exact(d) => format!("{}={:016x}", n.id.0, d.to_bits()),
            _ => format!("{}=?", n.id.0),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn vptree(store: &MemStore<2>) -> VpTree<2> {
    VpTree::build(&L2, store.summaries(), VpTreeConfig::default())
}

fn engine_tree(store: &MemStore<2>) -> RTree<2> {
    RTree::bulk_load(store.summaries().to_vec(), RTreeConfig { max_entries: 8, min_fill: 0.4 })
}

/// The `exact` dial as the CLI parses it.
fn exact_dial() -> ApproxConfig {
    ApproxConfig::at(parse_slack("exact").unwrap())
}

#[test]
fn exact_dial_matches_exact_engine_bitwise() {
    for salt in [0_u64, 7, 1234] {
        let store = store_of(70, salt);
        let tree = engine_tree(&store);
        let engine = QueryEngine::new(&tree, &store);
        let vp = vptree(&store);
        let cfg = exact_dial();
        for qid in [0_u64, 13, 42, 69] {
            let q = store.probe(ObjectId(qid)).unwrap();
            for (k, alpha) in [(1, 0.5), (5, 0.5), (10, 0.3), (7, 0.8)] {
                let exact = engine.aknn_exact(&q, k, alpha, &AknnConfig::lb_lp_ub()).unwrap();
                let t = Threshold::at(alpha);
                let via_vp = approx_aknn(&L2, &vp, &store, &q, k, t, &cfg).unwrap();
                assert_eq!(fingerprint(&via_vp), fingerprint(&exact), "vptree exact dial");
                assert_eq!(recall_at_k(&via_vp, &exact), 1.0);
            }
        }
    }
}

#[test]
fn exact_dial_survives_coincident_centres() {
    // At least k centers sit exactly on the query's center, so τ_c = 0
    // and `τ_c · (1 + ε)` would be `0 · ∞ = NaN` at the exact dial. The
    // pool must still be every id and the answer the canonical oracle's.
    // Coincident kernel points put all twelve twins at α-distance 0 from
    // the query, so the k-th place is a tie: the canonical answer keeps
    // the smallest ids, and the exact engine agrees on every distance.
    let twin = blob(0, 3);
    let objects = (0..40_u64).map(|i| {
        if i < 12 {
            FuzzyObject::new(ObjectId(i), twin.points().to_vec(), twin.memberships().to_vec())
                .unwrap()
        } else {
            blob(i, 3)
        }
    });
    let store = MemStore::from_objects(objects).unwrap();
    let tree = engine_tree(&store);
    let engine = QueryEngine::new(&tree, &store);
    let vp = vptree(&store);
    let q = store.probe(ObjectId(5)).unwrap();
    let t = Threshold::at(0.5);
    let ids: Vec<ObjectId> = store.summaries().iter().map(|s| s.id).collect();
    let dist_bits = |r: &fuzzy_query::AknnResult| -> Vec<u64> {
        r.neighbors.iter().map(|n| n.dist.hi().to_bits()).collect()
    };
    for k in [1_usize, 5, 12, 20] {
        let mut pool = Vec::new();
        vp.candidates(&L2, &q.rep_point(), k, f64::INFINITY, &mut pool);
        assert_eq!(pool, ids, "k = {k}: the exact dial's pool is every id");
        let oracle = metric_aknn_brute(&L2, &store, &ids, &q, k, t).unwrap();
        let exact = engine.aknn_exact(&q, k, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
        let via_vp = approx_aknn(&L2, &vp, &store, &q, k, t, &exact_dial()).unwrap();
        assert_eq!(fingerprint(&via_vp), fingerprint(&oracle), "k = {k}");
        assert_eq!(dist_bits(&via_vp), dist_bits(&exact), "k = {k}");
    }
}

#[test]
fn vptree_recall_monotone_in_slack() {
    const SLACKS: [f64; 5] = [0.0, 0.25, 0.5, 1.0, 4.0];
    for salt in [0_u64, 1, 2, 3, 4] {
        let store = store_of(90, salt);
        let tree = engine_tree(&store);
        let engine = QueryEngine::new(&tree, &store);
        let vp = vptree(&store);
        // FoF rounds off: monotonicity is a property of the raw pools.
        let mut last = -1.0_f64;
        for slack in SLACKS {
            let cfg = ApproxConfig { slack, fof_rounds: 0 };
            let mut total = 0.0;
            let mut count = 0;
            for qid in (0..90).step_by(9) {
                let q = store.probe(ObjectId(qid)).unwrap();
                let exact = engine.aknn_exact(&q, 10, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
                let approx =
                    approx_aknn(&L2, &vp, &store, &q, 10, Threshold::at(0.5), &cfg).unwrap();
                total += recall_at_k(&approx, &exact);
                count += 1;
            }
            let mean = total / count as f64;
            assert!(
                mean >= last - 1e-12,
                "salt {salt}: recall fell from {last} to {mean} at slack {slack}"
            );
            last = mean;
        }
    }
}

#[test]
fn returned_pairs_are_bitwise_oracle_pairs() {
    let salt = 31_u64;
    let n = 75_u64;
    let store = store_of(n, salt);
    let ids: Vec<ObjectId> = store.summaries().iter().map(|s| s.id).collect();
    let vp = vptree(&store);
    for qid in [3_u64, 40, 74] {
        let q = store.probe(ObjectId(qid)).unwrap();
        let t = Threshold::at(0.5);
        // Full oracle ranking: every object's exact pair.
        let oracle = metric_aknn_brute(&L2, &store, &ids, &q, n as usize, t).unwrap();
        for slack in [0.0, 1.0, 4.0, f64::INFINITY] {
            let result = approx_aknn(&L2, &vp, &store, &q, 10, t, &ApproxConfig::at(slack));
            for nb in &result.unwrap().neighbors {
                let DistBound::Exact(d) = nb.dist else { panic!("approx must be exact") };
                let found = oracle.neighbors.iter().find(|o| o.id == nb.id).unwrap();
                let DistBound::Exact(od) = found.dist else { unreachable!() };
                assert_eq!(
                    d.to_bits(),
                    od.to_bits(),
                    "returned pair for {} must be bit-identical to the oracle",
                    nb.id
                );
            }
        }
    }
}

#[test]
fn vptree_pools_nest_across_slacks() {
    let store = store_of(80, 99);
    let vp = vptree(&store);
    for qid in [0_u64, 17, 55] {
        let q = store.probe(ObjectId(qid)).unwrap().rep_point();
        let mut prev: Vec<ObjectId> = Vec::new();
        for slack in [0.0, 0.5, 1.0, 2.0, 8.0] {
            let mut pool = Vec::new();
            vp.candidates(&L2, &q, 10, slack, &mut pool);
            assert!(
                prev.iter().all(|id| pool.binary_search(id).is_ok()),
                "pool at a larger slack must contain the smaller pool"
            );
            prev = pool;
        }
    }
}

#[test]
fn vptree_slack_widens_the_pool() {
    let store = store_of(120, 5);
    let vp = vptree(&store);
    for qid in [0_u64, 60, 117] {
        let q = store.probe(ObjectId(qid)).unwrap().rep_point();
        let mut sizes = Vec::new();
        for slack in [0.0, 0.5, 2.0, 8.0] {
            let mut pool = Vec::new();
            vp.candidates(&L2, &q, 10, slack, &mut pool);
            assert!(pool.len() >= 10, "slack pool must hold at least k candidates");
            sizes.push(pool.len());
        }
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]), "ε must widen the pool: {sizes:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The three slack properties under arbitrary seeded workloads.
    #[test]
    fn dial_properties_hold_for_any_seeded_workload(
        salt in any::<u64>(),
        n in 12u64..60,
        k in 1usize..8,
    ) {
        let store = store_of(n, salt);
        let tree = engine_tree(&store);
        let engine = QueryEngine::new(&tree, &store);
        let ids: Vec<ObjectId> = store.summaries().iter().map(|s| s.id).collect();
        let vp = vptree(&store);
        let t = Threshold::at(0.5);
        let q = store.probe(ObjectId(salt % n)).unwrap();
        let exact = engine.aknn_exact(&q, k, 0.5, &AknnConfig::lb_lp_ub()).unwrap();
        let oracle = metric_aknn_brute(&L2, &store, &ids, &q, n as usize, t).unwrap();

        // (1) exact dial ⇒ bitwise-exact answer, recall 1.0.
        let vp_exact = approx_aknn(&L2, &vp, &store, &q, k, t, &exact_dial()).unwrap();
        prop_assert_eq!(fingerprint(&vp_exact), fingerprint(&exact));

        // (2) recall monotone across a slack ladder (raw pools).
        let mut last = -1.0_f64;
        for slack in [0.0, 0.5, 2.0] {
            let cfg = ApproxConfig { slack, fof_rounds: 0 };
            let r = recall_at_k(
                &approx_aknn(&L2, &vp, &store, &q, k, t, &cfg).unwrap(),
                &exact,
            );
            prop_assert!(r >= last - 1e-12, "recall fell from {} to {} at {}", last, r, slack);
            last = r;
        }

        // (3) every returned pair is a bitwise oracle pair.
        let result = approx_aknn(&L2, &vp, &store, &q, k, t, &ApproxConfig::default()).unwrap();
        for nb in &result.neighbors {
            let DistBound::Exact(d) = nb.dist else { panic!("approx must be exact") };
            let found = oracle.neighbors.iter().find(|o| o.id == nb.id).unwrap();
            let DistBound::Exact(od) = found.dist else { unreachable!() };
            prop_assert_eq!(d.to_bits(), od.to_bits());
        }
    }
}
