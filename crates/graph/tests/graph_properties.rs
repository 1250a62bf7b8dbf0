//! Property tests on the graph substrate: serialisation round trips,
//! generator invariants, partitioning bounds, transform correctness.

use mnd_graph::gen::{self, cut_fraction, CrawlParams};
use mnd_graph::io;
use mnd_graph::partition::{
    edge_imbalance, owner_of, partition_1d, partition_1d_by_degrees, split_range_by_ratio,
    VertexRange,
};
use mnd_graph::transform::{bfs_relabel, largest_component, sort_by_degree};
use mnd_graph::types::WEdge;
use mnd_graph::{connected_components, CsrGraph, EdgeList};
use proptest::prelude::*;

fn arb_edges(max_v: u32, max_e: usize) -> impl Strategy<Value = EdgeList> {
    (
        1..max_v,
        proptest::collection::vec((0u32..max_v, 0u32..max_v, 1u32..10_000), 0..max_e),
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

    #[test]
    fn binary_io_round_trip(el in arb_edges(200, 600)) {
        let mut buf = Vec::new();
        io::write_binary(&el, &mut buf).unwrap();
        prop_assert_eq!(io::read_binary(&buf[..]).unwrap(), el);
    }

    #[test]
    fn text_io_round_trip(el in arb_edges(150, 400)) {
        let mut buf = Vec::new();
        io::write_text(&el, &mut buf).unwrap();
        prop_assert_eq!(io::read_text(&buf[..]).unwrap(), el);
    }

    #[test]
    fn csr_symmetry_and_arc_count(el in arb_edges(150, 500)) {
        let g = CsrGraph::from_edge_list(&el);
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_undirected_edges() as usize, el.len());
        let degree_sum: u64 = (0..g.num_vertices()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, g.num_arcs());
    }

    #[test]
    fn owner_of_agrees_with_ranges(el in arb_edges(300, 800), parts in 1usize..10) {
        let g = CsrGraph::from_edge_list(&el);
        let ranges = partition_1d(&g, parts, 0.5);
        for v in 0..g.num_vertices() {
            let o = owner_of(&ranges, v);
            prop_assert!(ranges[o].contains(v));
        }
    }

    #[test]
    fn ratio_split_is_exhaustive_and_ordered(
        el in arb_edges(200, 600),
        ratio in 0.0f64..1.0,
    ) {
        let g = CsrGraph::from_edge_list(&el);
        let whole = VertexRange { start: 0, end: g.num_vertices() };
        let (a, b) = split_range_by_ratio(&g, whole, ratio);
        prop_assert_eq!(a.start, 0);
        prop_assert_eq!(a.end, b.start);
        prop_assert_eq!(b.end, g.num_vertices());
    }

    #[test]
    fn generators_respect_bounds(n in 4u32..200, m in 1u64..2000, seed in 0u64..50) {
        for el in [
            gen::gnm(n, m, seed),
            gen::web_crawl(n.max(2), m, CrawlParams::default(), seed),
        ] {
            for e in el.edges() {
                prop_assert!(e.u < e.v, "canonical order");
                prop_assert!(e.v < el.num_vertices());
                prop_assert!(e.w >= 1);
            }
        }
    }

    #[test]
    fn transforms_preserve_weight_multiset(el in arb_edges(120, 400)) {
        let weights = |e: &EdgeList| {
            let mut w: Vec<u32> = e.edges().iter().map(|x| x.w).collect();
            w.sort_unstable();
            w
        };
        let base = weights(&el);
        prop_assert_eq!(weights(&bfs_relabel(&el)), base.clone());
        prop_assert_eq!(weights(&sort_by_degree(&el)), base);
    }

    #[test]
    fn transforms_preserve_component_structure(el in arb_edges(100, 300)) {
        let comp_sizes = |e: &EdgeList| {
            let comp = connected_components(&CsrGraph::from_edge_list(e));
            let mut m = std::collections::HashMap::new();
            for c in comp {
                *m.entry(c).or_insert(0u32) += 1;
            }
            let mut sizes: Vec<u32> = m.into_values().collect();
            sizes.sort_unstable();
            sizes
        };
        prop_assert_eq!(comp_sizes(&bfs_relabel(&el)), comp_sizes(&el));
        // largest_component's vertex count equals the max size.
        let big = largest_component(&el);
        let sizes = comp_sizes(&el);
        prop_assert_eq!(big.num_vertices(), *sizes.last().unwrap_or(&0));
    }

    #[test]
    fn cut_fraction_in_unit_interval(el in arb_edges(100, 300), parts in 1u32..20) {
        let f = cut_fraction(&el, parts);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert_eq!(cut_fraction(&el, 1), 0.0);
    }
}

#[test]
fn partition_balance_on_large_uniform_graph() {
    let g = CsrGraph::from_edge_list(&gen::gnm(20_000, 120_000, 1));
    for parts in [2, 4, 8, 16, 32] {
        let ranges = partition_1d(&g, parts, 0.0);
        let imb = edge_imbalance(&g, &ranges);
        assert!(imb < 1.1, "parts={parts} imbalance {imb}");
    }
}

#[test]
fn presets_generate_at_extreme_scales() {
    // No preset may panic at any plausible scale.
    for p in mnd_graph::presets::Preset::ALL {
        for scale in [4096, 16384, 262144, 10_000_000] {
            let el = p.generate(scale, 1);
            assert!(el.num_vertices() >= 2, "{} @{scale}", p.name());
        }
    }
}

/// The per-vertex greedy walk `partition_1d_by_degrees` performed before
/// it learned to take whole 64-vertex blocks: the oracle for its cuts.
fn per_vertex_partition(degrees: &[u64], parts: usize, alpha: f64) -> Vec<VertexRange> {
    let n = degrees.len() as u32;
    let total_score = alpha * n as f64 + degrees.iter().sum::<u64>() as f64;
    let mut out = Vec::with_capacity(parts);
    let (mut cursor, mut consumed) = (0u32, 0.0f64);
    for p in 0..parts {
        let target = (total_score - consumed) / (parts - p) as f64;
        let start = cursor;
        let mut score = 0.0f64;
        while cursor < n {
            let v_score = alpha + degrees[cursor as usize] as f64;
            if score > 0.0 && (score + v_score) - target > target - score {
                break;
            }
            score += v_score;
            cursor += 1;
            if score >= target {
                break;
            }
        }
        consumed += score;
        out.push(VertexRange { start, end: cursor });
    }
    if let Some(last) = out.last_mut() {
        last.end = n;
    }
    out
}

/// Degree vectors mixing zero-degree runs, small degrees and one giant
/// hub, with lengths that are rarely a multiple of 64.
fn arb_degrees() -> impl Strategy<Value = Vec<u64>> {
    (
        proptest::collection::vec((0u32..4, 0u64..40), 0..900),
        0usize..1000,
        0u64..3,
    )
        .prop_map(|(raw, hub_at, hub_kind)| {
            let mut degrees: Vec<u64> = raw
                .into_iter()
                .map(|(kind, d)| if kind == 0 { 0 } else { d })
                .collect();
            if !degrees.is_empty() {
                let hub = [0, 10_000, 1 << 40][hub_kind as usize];
                let at = hub_at % degrees.len();
                degrees[at] += hub;
            }
            degrees
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn block_skip_partition_equals_per_vertex_walk(
        degrees in arb_degrees(),
        parts in 1usize..40,
        zero_run in 0usize..200,
    ) {
        // A long all-zero stretch in front exercises zero-degree blocks.
        let mut degrees = degrees;
        degrees.splice(0..0, std::iter::repeat_n(0, zero_run));
        for alpha in [0.0, 1.0] {
            prop_assert_eq!(
                partition_1d_by_degrees(&degrees, parts, alpha),
                per_vertex_partition(&degrees, parts, alpha),
                "n={} parts={} alpha={}", degrees.len(), parts, alpha
            );
        }
    }
}

#[test]
fn block_skip_partition_edge_cases() {
    let cases: Vec<(Vec<u64>, usize)> = vec![
        (vec![], 3),
        (vec![0; 200], 4),
        (vec![0; 130], 500),
        (vec![5; 65], 64),
        (vec![1; 64 * 50 + 13], 16),
        ((0..10_000u64).map(|v| v % 7).collect(), 16),
        (
            {
                let mut d = vec![1u64; 5000];
                d[4000] = 1 << 45;
                d
            },
            16,
        ),
    ];
    for (degrees, parts) in cases {
        assert_eq!(
            partition_1d_by_degrees(&degrees, parts, 0.0),
            per_vertex_partition(&degrees, parts, 0.0),
            "n={} parts={parts}",
            degrees.len()
        );
    }
}
