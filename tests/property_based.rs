//! Property-based tests (proptest) on the core invariants.

use mnd::graph::{CsrGraph, EdgeList, WEdge};
use mnd::kernels::boruvka::boruvka_msf;
use mnd::kernels::cgraph::{CEdge, CGraph};
use mnd::kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd::kernels::{kruskal_msf, local_boruvka, verify_msf, DisjointSets};
use mnd::mst::MndMstRunner;
use proptest::prelude::*;

/// Random canonical edge list over up to `max_v` vertices.
fn arb_edge_list(max_v: u32, max_e: usize) -> impl Strategy<Value = EdgeList> {
    (
        2..max_v,
        proptest::collection::vec((0u32..max_v, 0u32..max_v, 1u32..1000), 0..max_e),
    )
        .prop_map(|(n, raw)| {
            let edges = raw
                .into_iter()
                .map(|(a, b, w)| WEdge::new(a % n, b % n, w))
                .collect::<Vec<_>>();
            EdgeList::from_raw(n, edges)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn boruvka_always_matches_kruskal(el in arb_edge_list(120, 400)) {
        let msf = boruvka_msf(&el);
        prop_assert!(verify_msf(&el, &msf).is_ok());
    }

    #[test]
    fn distributed_always_matches_kruskal(
        el in arb_edge_list(100, 300),
        nranks in 1usize..6,
    ) {
        let r = MndMstRunner::new(nranks).run(&el);
        prop_assert_eq!(r.msf, kruskal_msf(&el));
    }

    #[test]
    fn partition_kernel_never_contracts_non_msf_edges(
        el in arb_edge_list(80, 240),
        cut in 1u32..79,
    ) {
        let n = el.num_vertices();
        let cut = cut % n.max(2);
        let g = CsrGraph::from_edge_list(&el);
        let oracle: std::collections::HashSet<WEdge> =
            kruskal_msf(&el).edges.into_iter().collect();
        let mut cg = CGraph::from_partition(
            &g,
            mnd::graph::VertexRange { start: 0, end: cut.min(n) },
        );
        let out = local_boruvka(&mut cg, ExcpCond::BorderEdge, FreezePolicy::Sticky, StopPolicy::Exhaustive);
        for e in &out.msf_edges {
            prop_assert!(oracle.contains(e), "{e:?} not in the MSF");
        }
        prop_assert!(cg.validate().is_ok());
    }

    #[test]
    fn dsu_union_find_is_an_equivalence(ops in proptest::collection::vec((0u32..50, 0u32..50), 0..200)) {
        let mut dsu = DisjointSets::new(50);
        let mut naive: Vec<u32> = (0..50).collect(); // naive component labels
        for (a, b) in ops {
            dsu.union(a, b);
            let (la, lb) = (naive[a as usize], naive[b as usize]);
            if la != lb {
                for x in naive.iter_mut() {
                    if *x == lb {
                        *x = la;
                    }
                }
            }
        }
        for i in 0..50u32 {
            for j in 0..50u32 {
                let same_dsu = dsu.find(i) == dsu.find(j);
                let same_naive = naive[i as usize] == naive[j as usize];
                prop_assert_eq!(same_dsu, same_naive, "{} vs {}", i, j);
            }
        }
        prop_assert_eq!(
            dsu.num_sets(),
            naive.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }

    #[test]
    fn csr_round_trip(el in arb_edge_list(100, 300)) {
        let g = CsrGraph::from_edge_list(&el);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.to_edge_list(), el);
    }

    #[test]
    fn partition_1d_covers_and_balances(
        el in arb_edge_list(200, 600),
        parts in 1usize..12,
    ) {
        let g = CsrGraph::from_edge_list(&el);
        let ranges = mnd::graph::partition_1d(&g, parts, 0.0);
        prop_assert_eq!(ranges.len(), parts);
        prop_assert_eq!(ranges[0].start, 0);
        prop_assert_eq!(ranges.last().unwrap().end, g.num_vertices());
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn split_off_then_absorb_is_identity(el in arb_edge_list(60, 200), k in 1usize..30) {
        let mut cg = CGraph::from_edge_list(&el);
        cg.sort_edges();
        let before = cg.clone();
        let take: Vec<u32> = cg.resident().iter().copied().take(k).collect();
        if take.len() < cg.num_resident() {
            let seg = cg.split_off(&take);
            cg.absorb(seg);
            cg.sort_edges();
            prop_assert_eq!(cg.resident(), before.resident());
            let mut a = cg.edges_vec();
            let mut b = before.edges_vec();
            a.sort_by_key(|e: &CEdge| (e.orig.u, e.orig.v));
            b.sort_by_key(|e: &CEdge| (e.orig.u, e.orig.v));
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn multi_edge_removal_preserves_msf(el in arb_edge_list(80, 300)) {
        // Reducing a whole-graph holding must not change its MSF.
        let oracle = kruskal_msf(&el);
        let mut cg = CGraph::from_edge_list(&el);
        cg.remove_self_edges();
        cg.remove_multi_edges();
        let reduced = EdgeList::from_raw(
            el.num_vertices(),
            cg.iter_edges().map(|e| e.orig).collect(),
        );
        prop_assert_eq!(kruskal_msf(&reduced), oracle);
    }

    #[test]
    fn weights_determine_unique_msf_regardless_of_edge_order(el in arb_edge_list(80, 250)) {
        let mut shuffled = el.edges().to_vec();
        shuffled.reverse();
        let el2 = EdgeList::from_raw(el.num_vertices(), shuffled);
        prop_assert_eq!(kruskal_msf(&el), kruskal_msf(&el2));
    }
}
