//! Oracle tests for the SoA reduction pass. `reduce_holding` on the
//! column-stored holding must produce **edge-for-edge** the same result as
//! two references reimplemented inline here:
//!
//! * the original array-of-structs implementation (self-edge retain, then a
//!   hash-table of per-pair minimums, then canonical sort), and
//! * the sort-based in-place reduce the hash-min pass replaced (co-sort by
//!   `(a, b, key, row)`, keep each pair's first row, restore key order),
//!   which pins the whole holding — rows, row order, residents, frozen
//!   marks — and the `ReduceStats` the simulated clock is charged from.

use mnd_graph::gen;
use mnd_graph::types::WEdge;
use mnd_kernels::cgraph::{CEdge, CGraph, CompId};
use mnd_kernels::reduce::{reduce_holding, ReduceStats};
use proptest::prelude::*;

/// The seed's AoS reduction, verbatim semantics: retain non-self edges in
/// order, keep the minimum-key edge per component pair via a hash table,
/// then sort by original-edge key.
fn aos_reference_reduce(mut edges: Vec<CEdge>) -> Vec<CEdge> {
    edges.retain(|e| !e.is_self());
    let mut best: std::collections::HashMap<(CompId, CompId), CEdge> =
        std::collections::HashMap::new();
    for e in edges {
        best.entry((e.a, e.b))
            .and_modify(|cur| {
                if e.key() < cur.key() {
                    *cur = e;
                }
            })
            .or_insert(e);
    }
    let mut out: Vec<CEdge> = best.into_values().collect();
    out.sort_unstable_by_key(|e| e.key());
    out
}

/// Builds a holding whose component structure forces self and multi edges:
/// vertices are assigned to components by `v / group`, so every group of
/// `group` consecutive vertices collapses into one component and any edges
/// between the same two groups become parallel multi-edges.
fn contracted_holding(el: &mnd_graph::EdgeList, group: u32) -> (CGraph, Vec<CEdge>) {
    let comp = |v: u32| (v / group) * group; // component named by min member
    let cedges: Vec<CEdge> = el
        .edges()
        .iter()
        .map(|e| CEdge::new(comp(e.u), comp(e.v), *e))
        .collect();
    let mut resident: Vec<CompId> = (0..el.num_vertices()).map(comp).collect();
    resident.sort_unstable();
    resident.dedup();
    // from_parts would dedup-check; the raw edge set may hold duplicates of
    // nothing (original edges are unique), so construction is safe.
    let cg = CGraph::from_parts(resident, cedges.clone(), vec![]);
    (cg, cedges)
}

fn assert_reduce_matches_oracle(el: &mnd_graph::EdgeList, group: u32) {
    let (mut cg, aos) = contracted_holding(el, group);
    let expect = aos_reference_reduce(aos);
    let stats = reduce_holding(&mut cg);
    assert_eq!(
        cg.edges_vec(),
        expect,
        "SoA reduce diverged from AoS oracle"
    );
    assert_eq!(stats.edges_after as usize, expect.len());
    assert_eq!(
        stats.edges_before - stats.self_removed - stats.multi_removed,
        stats.edges_after
    );
}

#[test]
fn soa_reduce_matches_aos_on_rmat() {
    for seed in [1, 7, 42] {
        let el = gen::rmat(512, 4000, gen::RmatProbs::GRAPH500, seed); // skewed degrees
        for group in [2, 8, 32] {
            assert_reduce_matches_oracle(&el, group);
        }
    }
}

#[test]
fn soa_reduce_matches_aos_on_er() {
    for seed in [3, 11] {
        let el = gen::gnm(400, 2400, seed);
        for group in [2, 5, 20] {
            assert_reduce_matches_oracle(&el, group);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graphs, random contraction granularity: SoA == AoS always.
    #[test]
    fn soa_reduce_matches_aos_randomised(
        n in 10u32..200,
        m_per in 1u64..8,
        seed in 0u64..10_000,
        group in 1u32..16,
    ) {
        let el = gen::gnm(n, n as u64 * m_per, seed);
        let (mut cg, aos) = contracted_holding(&el, group);
        let expect = aos_reference_reduce(aos);
        reduce_holding(&mut cg);
        prop_assert_eq!(cg.edges_vec(), expect);
        cg.validate().unwrap();
    }

    /// Reduction is idempotent: a second pass removes nothing.
    #[test]
    fn reduce_is_idempotent(n in 10u32..120, seed in 0u64..1000, group in 1u32..10) {
        let el = gen::gnm(n, n as u64 * 4, seed);
        let (mut cg, _) = contracted_holding(&el, group);
        reduce_holding(&mut cg);
        let once = cg.clone();
        let stats = reduce_holding(&mut cg);
        prop_assert_eq!(stats.self_removed, 0);
        prop_assert_eq!(stats.multi_removed, 0);
        prop_assert_eq!(&cg, &once);
    }
}

#[test]
fn reference_sanity() {
    // Hand-checked tiny case pinning the oracle itself.
    let e = |a: u32, b: u32, u: u32, v: u32, w: u32| CEdge::new(a, b, WEdge::new(u, v, w));
    let input = vec![
        e(0, 0, 0, 1, 1), // self
        e(0, 2, 0, 2, 5),
        e(0, 2, 1, 3, 2), // lighter multi of 0~2
        e(2, 4, 3, 4, 9),
    ];
    let out = aos_reference_reduce(input);
    assert_eq!(out, vec![e(0, 2, 1, 3, 2), e(2, 4, 3, 4, 9)]);
}

/// The sort-based reduce `remove_multi_edges` used before the hash-min
/// pass, over a holding's rows in storage order: self edges dropped in
/// order, rows co-sorted by `(a, b, key, row)`, the first row of every
/// `(a, b)` run kept, then a `(key, row)` sort.
fn sort_based_reduce(cg: &CGraph) -> (CGraph, ReduceStats) {
    let mut rows = cg.edges_vec();
    let before = rows.len() as u64;
    rows.retain(|e| !e.is_self());
    let after_self = rows.len() as u64;
    let mut idx: Vec<usize> = (0..rows.len()).collect();
    idx.sort_unstable_by_key(|&i| (rows[i].a, rows[i].b, rows[i].key(), i));
    let mut kept: Vec<CEdge> = Vec::with_capacity(idx.len());
    for i in idx {
        let e = rows[i];
        if kept.last().is_none_or(|k| (k.a, k.b) != (e.a, e.b)) {
            kept.push(e);
        }
    }
    let mut order: Vec<usize> = (0..kept.len()).collect();
    order.sort_unstable_by_key(|&i| (kept[i].key(), i));
    let out: Vec<CEdge> = order.into_iter().map(|i| kept[i]).collect();
    let stats = ReduceStats {
        edges_before: before,
        self_removed: before - after_self,
        multi_removed: after_self - out.len() as u64,
        edges_after: out.len() as u64,
    };
    let expect = CGraph::from_parts(cg.resident().to_vec(), out, cg.frozen().to_vec());
    (expect, stats)
}

/// Runs `reduce_holding` on `cg` and checks it against the sort-based
/// oracle: identical holding (`CGraph` equality covers residents, every
/// column in row order, and frozen marks) and identical stats.
fn assert_matches_sort_oracle(mut cg: CGraph) -> ReduceStats {
    let (expect, expect_stats) = sort_based_reduce(&cg);
    let stats = reduce_holding(&mut cg);
    assert_eq!(
        stats, expect_stats,
        "ReduceStats diverged from the sort-based oracle"
    );
    assert_eq!(
        cg.edges_vec(),
        expect.edges_vec(),
        "rows diverged from the sort-based oracle"
    );
    assert_eq!(cg, expect);
    stats
}

/// Deterministic Fisher-Yates shuffle (splitmix64 stream).
fn shuffled<T>(mut xs: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed;
    for i in (1..xs.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        xs.swap(i, (z % (i as u64 + 1)) as usize);
    }
    xs
}

/// `contracted_holding` with the rows in a caller-chosen order and a few
/// frozen marks, so order sensitivity and frozen carry-over are pinned.
fn holding_from_rows(resident: &[CompId], rows: Vec<CEdge>) -> CGraph {
    let frozen: Vec<CompId> = resident.iter().copied().step_by(5).collect();
    CGraph::from_parts(resident.to_vec(), rows, frozen)
}

#[test]
fn hash_min_matches_sort_oracle_sorted_and_unsorted() {
    for seed in [2, 9, 31] {
        let el = gen::rmat(512, 4000, gen::RmatProbs::GRAPH500, seed);
        for group in [1, 3, 16, 128] {
            let (cg, mut rows) = contracted_holding(&el, group);
            let resident = cg.resident().to_vec();
            assert_matches_sort_oracle(holding_from_rows(&resident, rows.clone()));
            rows.sort_unstable_by_key(|e| e.key());
            assert_matches_sort_oracle(holding_from_rows(&resident, rows.clone()));
            let rows = shuffled(rows, seed * 1000 + group as u64);
            assert_matches_sort_oracle(holding_from_rows(&resident, rows));
        }
    }
}

#[test]
fn hash_min_matches_sort_oracle_under_weight_ties() {
    // All weights equal, then three distinct weights.
    for max_w in [1, 3] {
        let mut el = gen::gnm(300, 3000, 5);
        el.assign_random_weights(7, max_w);
        for group in [2, 10, 40] {
            let (cg, rows) = contracted_holding(&el, group);
            let stats = assert_matches_sort_oracle(cg.clone());
            assert!(stats.multi_removed > 0);
            let rows = shuffled(rows, group as u64);
            assert_matches_sort_oracle(holding_from_rows(cg.resident(), rows));
        }
    }
}

#[test]
fn hash_min_matches_sort_oracle_at_both_extremes() {
    let el = gen::gnm(400, 2000, 8);
    // Nothing to remove: every vertex its own component, simple graph.
    let (cg, rows) = contracted_holding(&el, 1);
    let stats = assert_matches_sort_oracle(cg.clone());
    assert_eq!(stats.multi_removed, 0);
    assert_matches_sort_oracle(holding_from_rows(cg.resident(), shuffled(rows, 1)));
    // Almost everything is a multi-edge: three components.
    let (cg, rows) = contracted_holding(&el, 150);
    let stats = assert_matches_sort_oracle(cg.clone());
    assert!(stats.edges_after <= 3, "{stats:?}");
    assert_matches_sort_oracle(holding_from_rows(cg.resident(), shuffled(rows, 2)));
    // Empty holding.
    assert_matches_sort_oracle(CGraph::new());
}

#[test]
fn hash_min_orders_same_edge_copies_by_pair() {
    // Two rows holding the same original edge under different component
    // pairs (a stale boundary copy next to a renamed one): key ties must
    // fall back to the pair, as the sort-based reduce ordered them.
    let e = WEdge::new(4, 9, 2);
    let rows = vec![
        CEdge::new(7, 9, e),
        CEdge::new(3, 9, WEdge::new(1, 9, 5)),
        CEdge::new(4, 9, e),
        CEdge::new(3, 9, WEdge::new(3, 8, 5)),
        CEdge::new(1, 2, WEdge::new(1, 2, 2)),
    ];
    for seed in 0..8 {
        assert_matches_sort_oracle(holding_from_rows(
            &[1, 3, 4, 7],
            shuffled(rows.clone(), seed),
        ));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random graphs, contraction granularity, weight range and row order:
    /// the hash-min reduce equals the sort-based one, holding and stats.
    #[test]
    fn hash_min_matches_sort_oracle_randomised(
        n in 10u32..200,
        m_per in 1u64..8,
        seed in 0u64..10_000,
        group in 1u32..32,
        max_w in 1u32..6,
    ) {
        let mut el = gen::gnm(n, n as u64 * m_per, seed);
        el.assign_random_weights(1, max_w);
        let (cg, rows) = contracted_holding(&el, group);
        assert_matches_sort_oracle(holding_from_rows(cg.resident(), shuffled(rows, seed)));
    }
}
