//! Property tests on the kernel crate: freezing safety and reduction
//! invariants.

use mnd_graph::types::WEdge;
use mnd_graph::{gen, CsrGraph, EdgeList, VertexRange};
use mnd_kernels::boruvka::{boruvka_msf, local_boruvka};
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::oracle::kruskal_msf;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd_kernels::reduce::{apply_ghost_parents, reduce_holding};
use proptest::prelude::*;

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = EdgeList> {
    (
        2..max_v,
        proptest::collection::vec((0u32..max_v, 0u32..max_v, 1u32..500), 0..max_e),
    )
        .prop_map(|(n, raw)| {
            EdgeList::from_raw(
                n,
                raw.into_iter()
                    .map(|(a, b, w)| WEdge::new(a % n, b % n, w))
                    .collect(),
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's central safety claim: under any exception condition and
    /// any freeze/stop policy, a partition kernel only ever contracts MSF
    /// edges.
    #[test]
    fn freezing_is_always_safe(
        el in arb_edges(100, 350),
        cut_frac in 0.1f64..0.9,
        excp_pick in 0u8..2,
        freeze_pick in 0u8..2,
        stop_pick in 0u8..2,
    ) {
        let n = el.num_vertices();
        let cut = ((n as f64 * cut_frac) as u32).clamp(1, n - 1);
        let excp = if excp_pick == 0 { ExcpCond::BorderEdge } else { ExcpCond::BorderVertex };
        let freeze = if freeze_pick == 0 { FreezePolicy::Sticky } else { FreezePolicy::Recheck };
        let stop = if stop_pick == 0 {
            StopPolicy::Exhaustive
        } else {
            StopPolicy::DiminishingBenefit { min_improvement: 0.3 }
        };
        let oracle: std::collections::HashSet<WEdge> =
            kruskal_msf(&el).edges.into_iter().collect();
        let g = CsrGraph::from_edge_list(&el);
        for range in [VertexRange { start: 0, end: cut }, VertexRange { start: cut, end: n }] {
            let mut cg = CGraph::from_partition(&g, range);
            let out = local_boruvka(&mut cg, excp, freeze, stop);
            for e in &out.msf_edges {
                prop_assert!(oracle.contains(e), "non-MSF edge {e:?} contracted");
            }
            prop_assert!(cg.validate().is_ok());
        }
    }

    /// The two partitions' contracted edges are disjoint, and their union
    /// stays within the oracle MSF (no double counting across ranks).
    #[test]
    fn partitions_contract_disjoint_edge_sets(el in arb_edges(80, 250), cut in 1u32..79) {
        let n = el.num_vertices();
        let cut = (cut % (n - 1)) + 1;
        let g = CsrGraph::from_edge_list(&el);
        let run = |range: VertexRange| {
            let mut cg = CGraph::from_partition(&g, range);
            local_boruvka(&mut cg, ExcpCond::BorderEdge, FreezePolicy::Sticky, StopPolicy::Exhaustive)
                .msf_edges
        };
        let a = run(VertexRange { start: 0, end: cut });
        let b = run(VertexRange { start: cut, end: n });
        let sa: std::collections::HashSet<_> = a.iter().collect();
        for e in &b {
            prop_assert!(!sa.contains(e), "edge {e:?} contracted by both partitions");
        }
    }

    /// Reductions + ghost relabels never change the final MSF.
    #[test]
    fn reduce_and_relabel_preserve_msf(el in arb_edges(80, 250)) {
        let oracle = kruskal_msf(&el);
        let mut cg = CGraph::from_edge_list(&el);
        // Run one contraction round, reduce, rename nothing ghostly (whole
        // graph resident: apply an empty update), then finish.
        let mut msf = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::DiminishingBenefit { min_improvement: 0.9 },
        ).msf_edges;
        reduce_holding(&mut cg);
        apply_ghost_parents(&mut cg, &[]);
        msf.extend(
            local_boruvka(&mut cg, ExcpCond::None, FreezePolicy::Sticky, StopPolicy::Exhaustive)
                .msf_edges,
        );
        let got = mnd_kernels::msf::MsfResult::from_edges(el.num_vertices(), msf);
        prop_assert_eq!(got, oracle);
    }

    /// boruvka == kruskal on weight distributions with heavy ties.
    #[test]
    fn tie_heavy_weights(el in arb_edges(60, 200), modulus in 1u32..4) {
        let mut el = el;
        let edges: Vec<WEdge> = el
            .edges()
            .iter()
            .map(|e| WEdge::new(e.u, e.v, e.w % modulus + 1))
            .collect();
        el = EdgeList::from_raw(el.num_vertices(), edges);
        let b = boruvka_msf(&el);
        prop_assert_eq!(b, kruskal_msf(&el));
    }
}

#[test]
fn contraction_terminates_in_log_rounds() {
    // Boruvka halves the component count per round: iterations must be
    // O(log V) on every family.
    for el in [
        gen::path(4096, 1),
        gen::complete(64, 2),
        gen::gnm(5000, 20_000, 3),
        gen::web_crawl(4000, 30_000, gen::CrawlParams::default(), 4),
    ] {
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let bound = 2 * (el.num_vertices() as f64).log2().ceil() as usize + 2;
        assert!(
            out.work.num_iterations() <= bound,
            "{} iterations for V={}",
            out.work.num_iterations(),
            el.num_vertices()
        );
    }
}
