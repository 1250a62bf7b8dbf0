//! Oracle tests for the holding plane (DESIGN.md §5e).
//!
//! Every holding-plane kernel has one sequential path. These tests pin it
//! **byte-identically** — whole holdings, forests, relabels, work profiles
//! and reduce stats — to references reimplemented here:
//!
//! * the local Borůvka kernel against a tuple-compare election over
//!   `((w, u, v), row)` with binary-search residency and a min-root DSU
//!   (the kernel elects on packed `(weight << 32) | row` keys instead, with
//!   a full-key fallback on weight ties, and probes through `SlotLookup`);
//! * ghost-parent application and self/multi-edge reduction against
//!   row-vector (AoS) rewrites;
//! * incident counts against a binary-search tally, on dense holdings and
//!   on a sparse-id holding that forces `SlotLookup`'s fallback.
//!
//! Fixtures cover the skewed (RMAT), uniform (ER) and high-diameter (road)
//! families, an all-ties graph where every election is decided by the
//! full-key fallback, and 4-way partitioned holdings with cut edges. The
//! Borůvka comparison also runs on holdings whose id span falls into each
//! `SlotLookup` tier, with the diminishing-benefit stop on partitions, and
//! as a second invocation on contracted, merged holdings that carry sticky
//! freeze marks from the first.

use mnd_graph::edgelist::splitmix64;
use mnd_graph::partition::partition_1d;
use mnd_graph::types::WEdge;
use mnd_graph::{gen, CsrGraph, EdgeList};
use mnd_kernels::boruvka::{local_boruvka_with, LocalOutput};
use mnd_kernels::cgraph::{CEdge, CGraph, CompId};
use mnd_kernels::policy::{
    ExcpCond, FreezePolicy, IterWork, KernelPolicy, StopPolicy, WorkProfile,
};
use mnd_kernels::reduce::{apply_ghost_parents_with, reduce_holding_with, ReduceStats};
use mnd_kernels::slot::dense_span_cap;

fn fixtures() -> Vec<(&'static str, EdgeList)> {
    vec![
        ("rmat", gen::rmat(512, 4096, gen::RmatProbs::GRAPH500, 41)),
        ("er", gen::gnm(400, 2400, 42)),
        ("road", gen::road_grid(20, 20, 0.02, 0.38, 43)),
        ("ties", all_ties_fixture()),
    ]
}

/// An adversarial all-ties fixture: every edge has the same weight, so the
/// packed `(weight << 32) | row` comparison ties for *every* pair of
/// candidates and the election is decided entirely by the `(edge key, row)`
/// fallback.
fn all_ties_fixture() -> EdgeList {
    let mut el = EdgeList::new(120);
    let mut s = 7u64;
    for i in 0..700u32 {
        s = splitmix64(s ^ i as u64);
        let a = (s % 120) as u32;
        let b = ((s >> 16) % 120) as u32;
        if a != b {
            el.push(a, b, 5); // one shared weight: maximal tie pressure
        }
    }
    el
}

/// The 4-way partitioned holdings (with cut edges) of a graph.
fn partitioned(el: &EdgeList) -> Vec<CGraph> {
    let csr = CsrGraph::from_edge_list(el);
    partition_1d(&csr, 4, 1.0)
        .into_iter()
        .map(|r| CGraph::from_partition(&csr, r))
        .collect()
}

// ------------------------------------------------------------------ //
// Reference local Borůvka: tuple-compare election + min-root DSU
// ------------------------------------------------------------------ //

/// A per-root election winner: the elected original edge, its worklist
/// row, and the edge's local endpoint indices.
type Winner = (WEdge, u32, Option<u32>, Option<u32>);

/// Min-representative DSU: the larger root always links under the smaller.
struct MinDsu {
    parent: Vec<u32>,
}

impl MinDsu {
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }
}

/// Elects over the worklist into `best`, one slot per root, keeping the
/// smallest `(edge, row)` candidate.
fn elect_rows(
    rows: &[(Option<u32>, Option<u32>, WEdge)],
    dsu: &mut MinDsu,
    frozen: &[bool],
    freeze: FreezePolicy,
    best: &mut [Option<Winner>],
) {
    for (row, &(a, b, orig)) in rows.iter().enumerate() {
        let ra = a.map(|i| dsu.find(i));
        let rb = b.map(|i| dsu.find(i));
        if matches!((ra, rb), (Some(x), Some(y)) if x == y) {
            continue;
        }
        for r in [ra, rb].into_iter().flatten() {
            if frozen[r as usize] && freeze == FreezePolicy::Sticky {
                continue;
            }
            let slot = &mut best[r as usize];
            let lighter = match slot {
                Some((cur, cur_row, _, _)) => (orig, row as u32) < (*cur, *cur_row),
                None => true,
            };
            if lighter {
                *slot = Some((orig, row as u32, ra, rb));
            }
        }
    }
}

/// The reference kernel: same contract as `local_boruvka`, written the
/// plain way.
fn reference_local_boruvka(
    cg: &mut CGraph,
    excp: ExcpCond,
    freeze: FreezePolicy,
    stop: StopPolicy,
) -> LocalOutput {
    let resident: Vec<CompId> = cg.resident().to_vec();
    let n = resident.len();
    let index_of = |c: CompId| resident.binary_search(&c).ok().map(|i| i as u32);
    let mut dsu = MinDsu {
        parent: (0..n as u32).collect(),
    };
    let mut frozen = vec![false; n];
    for f in cg.frozen() {
        if let Some(i) = index_of(*f) {
            frozen[i as usize] = true;
        }
    }
    if excp == ExcpCond::BorderVertex {
        for e in cg.iter_edges() {
            let (a, b) = (index_of(e.a), index_of(e.b));
            if a.is_none() || b.is_none() {
                if let Some(i) = a.or(b) {
                    frozen[i as usize] = true;
                }
            }
        }
    }
    let mut worklist: Vec<_> = cg
        .iter_edges()
        .map(|e| (index_of(e.a), index_of(e.b), e.orig))
        .collect();
    let mut msf_edges = Vec::new();
    let mut work = WorkProfile::default();
    let mut prev_cost: Option<u64> = None;
    loop {
        let scanned = worklist.len() as u64;
        let mut best = vec![None; n];
        elect_rows(&worklist, &mut dsu, &frozen, freeze, &mut best);
        if freeze == FreezePolicy::Recheck {
            frozen.fill(false);
        }
        let active = best.iter().filter(|s| s.is_some()).count() as u64;
        let mut unions = 0u64;
        for (win, _, ea, eb) in best.into_iter().flatten() {
            let ra = ea.map(|i| dsu.find(i));
            let rb = eb.map(|i| dsu.find(i));
            match (ra, rb) {
                (Some(x), Some(y)) => {
                    if x != y && dsu.union(x, y) {
                        msf_edges.push(win);
                        unions += 1;
                        let root = dsu.find(x);
                        if freeze == FreezePolicy::Sticky
                            && (frozen[x as usize] || frozen[y as usize])
                        {
                            frozen[root as usize] = true;
                        }
                    }
                }
                (Some(x), None) | (None, Some(x)) => {
                    let root = dsu.find(x);
                    frozen[root as usize] = true;
                }
                (None, None) => unreachable!("edge with no resident endpoint elected"),
            }
        }
        work.iters.push(IterWork {
            active_components: active,
            edges_scanned: scanned,
            unions,
        });
        if unions == 0 {
            break;
        }
        worklist.retain(|&(a, b, _)| {
            let ra = a.map(|i| dsu.find(i));
            let rb = b.map(|i| dsu.find(i));
            !matches!((ra, rb), (Some(x), Some(y)) if x == y)
        });
        if prev_cost.is_some_and(|prev| !stop.should_continue(prev, scanned)) {
            break;
        }
        prev_cost = Some(scanned);
    }

    let roots: Vec<u32> = (0..n as u32).map(|i| dsu.find(i)).collect();
    let mut relabel = Vec::new();
    let mut new_resident = Vec::new();
    let mut new_frozen = Vec::new();
    for i in 0..n {
        let new_id = resident[roots[i] as usize];
        if roots[i] as usize == i {
            new_resident.push(new_id);
            if frozen[i] {
                new_frozen.push(new_id);
            }
        }
        if new_id != resident[i] {
            relabel.push((resident[i], new_id));
        }
    }
    cg.relabel(|c| match index_of(c) {
        Some(i) => resident[roots[i as usize] as usize],
        None => c,
    });
    cg.remove_self_edges();
    cg.set_resident(new_resident);
    cg.set_frozen(new_frozen);
    LocalOutput {
        msf_edges,
        relabel,
        work,
    }
}

fn assert_same_output(got: &LocalOutput, expect: &LocalOutput, tag: &str) {
    assert_eq!(got.msf_edges, expect.msf_edges, "{tag}");
    assert_eq!(got.relabel, expect.relabel, "{tag}");
    assert_eq!(got.work, expect.work, "{tag}");
}

#[test]
fn local_boruvka_matches_tuple_compare_oracle() {
    for (name, el) in fixtures() {
        for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
            for freeze in [FreezePolicy::Sticky, FreezePolicy::Recheck] {
                for (part, base) in partitioned(&el).into_iter().enumerate() {
                    let tag = format!("{name} {excp:?}/{freeze:?} part={part}");
                    let mut expect_cg = base.clone();
                    let expect = reference_local_boruvka(
                        &mut expect_cg,
                        excp,
                        freeze,
                        StopPolicy::Exhaustive,
                    );
                    let mut got_cg = base;
                    let got = local_boruvka_with(
                        &mut got_cg,
                        &KernelPolicy,
                        excp,
                        freeze,
                        StopPolicy::Exhaustive,
                    );
                    assert_same_output(&got, &expect, &tag);
                    assert_eq!(got_cg, expect_cg, "{tag}");
                }
            }
        }
    }
}

#[test]
fn whole_graph_and_early_stop_match_oracle() {
    let stops = [
        StopPolicy::Exhaustive,
        StopPolicy::DiminishingBenefit {
            min_improvement: 0.5,
        },
    ];
    for (name, el) in fixtures() {
        for stop in stops {
            let tag = format!("{name} {stop:?}");
            let mut expect_cg = CGraph::from_edge_list(&el);
            let expect =
                reference_local_boruvka(&mut expect_cg, ExcpCond::None, FreezePolicy::Sticky, stop);
            let mut got_cg = CGraph::from_edge_list(&el);
            let got = local_boruvka_with(
                &mut got_cg,
                &KernelPolicy,
                ExcpCond::None,
                FreezePolicy::Sticky,
                stop,
            );
            assert_same_output(&got, &expect, &tag);
            assert_eq!(got_cg, expect_cg, "{tag}");
        }
    }
}

/// Runs the kernel and the reference on copies of `base` and asserts
/// byte-identical outputs and holdings.
fn assert_kernel_matches_reference(
    base: &CGraph,
    excp: ExcpCond,
    freeze: FreezePolicy,
    stop: StopPolicy,
    tag: &str,
) -> (CGraph, LocalOutput) {
    let mut expect_cg = base.clone();
    let expect = reference_local_boruvka(&mut expect_cg, excp, freeze, stop);
    let mut got_cg = base.clone();
    let got = local_boruvka_with(&mut got_cg, &KernelPolicy, excp, freeze, stop);
    assert_same_output(&got, &expect, tag);
    assert_eq!(got_cg, expect_cg, "{tag}");
    (got_cg, got)
}

/// Which `SlotLookup` tier a resident column falls into: 0 when its id
/// span is within 4× the resident count, 1 up to the dense-table cap,
/// 2 beyond it (binary search).
fn slot_tier(resident: &[CompId]) -> usize {
    let span = (resident[resident.len() - 1] - resident[0]) as usize + 1;
    if span <= 4 * resident.len() {
        0
    } else if span <= dense_span_cap(resident.len()) {
        1
    } else {
        2
    }
}

#[test]
fn local_boruvka_matches_oracle_in_every_slot_lookup_tier() {
    // Spreading every id by a stride keeps the holding's structure (the
    // map is monotone, so min-member naming is unchanged) while moving
    // its id span across the `SlotLookup` tiers.
    let mut tiers_seen = [0usize; 3];
    for (name, el) in fixtures() {
        for stride in [1u32, 3, 100, 2000] {
            for (part, mut base) in partitioned(&el).into_iter().enumerate() {
                base.relabel(|c| c * stride + 7);
                let tier = slot_tier(base.resident());
                tiers_seen[tier] += 1;
                for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
                    for freeze in [FreezePolicy::Sticky, FreezePolicy::Recheck] {
                        let tag = format!(
                            "{name} stride={stride} tier={tier} {excp:?}/{freeze:?} part={part}"
                        );
                        assert_kernel_matches_reference(
                            &base,
                            excp,
                            freeze,
                            StopPolicy::Exhaustive,
                            &tag,
                        );
                    }
                }
            }
        }
    }
    assert!(
        tiers_seen.iter().all(|&n| n >= 4),
        "holdings per tier: {tiers_seen:?}"
    );
}

#[test]
fn diminishing_benefit_on_partitions_matches_oracle() {
    for (name, el) in fixtures() {
        for min_improvement in [0.2, 0.5, 0.9] {
            let stop = StopPolicy::DiminishingBenefit { min_improvement };
            for excp in [ExcpCond::BorderEdge, ExcpCond::BorderVertex] {
                for freeze in [FreezePolicy::Sticky, FreezePolicy::Recheck] {
                    for (part, base) in partitioned(&el).into_iter().enumerate() {
                        let tag = format!("{name} {stop:?} {excp:?}/{freeze:?} part={part}");
                        assert_kernel_matches_reference(&base, excp, freeze, stop, &tag);
                    }
                }
            }
        }
    }
}

#[test]
fn second_invocation_on_contracted_holdings_matches_oracle() {
    // A computation step after the first: every part is contracted, the
    // other parts' renames are applied to its ghost endpoints, it is
    // reduced, and neighbouring parts are merged into one holding. The
    // freeze marks of the first invocation ride along (sticky), and the
    // second invocation must still match the reference byte for byte.
    let mut carried_frozen = 0;
    for (name, el) in fixtures() {
        for first_stop in [
            StopPolicy::Exhaustive,
            StopPolicy::DiminishingBenefit {
                min_improvement: 0.5,
            },
        ] {
            let mut parts = Vec::new();
            let mut renames = Vec::new();
            for (part, base) in partitioned(&el).into_iter().enumerate() {
                let tag = format!("{name} first {first_stop:?} part={part}");
                let (cg, out) = assert_kernel_matches_reference(
                    &base,
                    ExcpCond::BorderEdge,
                    FreezePolicy::Sticky,
                    first_stop,
                    &tag,
                );
                parts.push(cg);
                renames.extend(out.relabel);
            }
            renames.sort_unstable();
            for cg in &mut parts {
                apply_ghost_parents_with(cg, &KernelPolicy, &renames);
                reduce_holding_with(cg, &KernelPolicy);
            }
            let mut merged = Vec::new();
            for pair in parts.chunks(2) {
                let mut cg = pair[0].clone();
                if let Some(other) = pair.get(1) {
                    cg.absorb(other.clone());
                }
                reduce_holding_with(&mut cg, &KernelPolicy);
                merged.push(cg);
            }
            for (i, cg) in parts.iter().chain(&merged).enumerate() {
                carried_frozen += cg.frozen().len();
                for freeze in [FreezePolicy::Sticky, FreezePolicy::Recheck] {
                    for stop in [
                        StopPolicy::Exhaustive,
                        StopPolicy::DiminishingBenefit {
                            min_improvement: 0.5,
                        },
                    ] {
                        let tag =
                            format!("{name} first {first_stop:?} holding={i} {freeze:?} {stop:?}");
                        assert_kernel_matches_reference(
                            cg,
                            ExcpCond::BorderEdge,
                            freeze,
                            stop,
                            &tag,
                        );
                    }
                }
            }
        }
    }
    assert!(
        carried_frozen > 0,
        "no freeze mark carried into a second invocation"
    );
}

// ------------------------------------------------------------------ //
// Ghost-parent application and reduction
// ------------------------------------------------------------------ //

/// Ghost-parent pairs renaming every ghost endpoint of `cg` to a fresh id,
/// as a real mergeParts round would after remote contractions.
fn ghost_updates(cg: &CGraph) -> Vec<(CompId, CompId)> {
    let mut updates: Vec<(CompId, CompId)> = cg
        .iter_edges()
        .flat_map(|e| [e.a, e.b])
        .filter(|c| cg.resident().binary_search(c).is_err())
        .map(|c| (c, c / 2 + 1_000_000))
        .collect();
    updates.sort_unstable();
    updates.dedup();
    updates
}

/// Row-vector ghost apply: rename non-resident endpoints found in
/// `updates`, re-canonicalise each row, keep everything else.
fn reference_ghost_apply(cg: &CGraph, updates: &[(CompId, CompId)]) -> CGraph {
    let map: std::collections::HashMap<CompId, CompId> = updates.iter().copied().collect();
    let rename = |c: CompId| match map.get(&c) {
        Some(&new) if cg.resident().binary_search(&c).is_err() => new,
        _ => c,
    };
    let rows = cg
        .iter_edges()
        .map(|e| CEdge::new(rename(e.a), rename(e.b), e.orig))
        .collect();
    CGraph::from_parts(cg.resident().to_vec(), rows, cg.frozen().to_vec())
}

/// Row-vector reduce: drop self edges, keep each pair's minimum-key row,
/// restore canonical `(key, a, b)` order.
fn reference_reduce(cg: &CGraph) -> (CGraph, ReduceStats) {
    let mut rows = cg.edges_vec();
    let before = rows.len() as u64;
    rows.retain(|e| !e.is_self());
    let after_self = rows.len() as u64;
    rows.sort_by_key(|e| (e.a, e.b, e.key()));
    rows.dedup_by_key(|e| (e.a, e.b));
    rows.sort_by_key(|e| (e.key(), e.a, e.b));
    let after = rows.len() as u64;
    let stats = ReduceStats {
        edges_before: before,
        self_removed: before - after_self,
        multi_removed: after_self - after,
        edges_after: after,
    };
    let out = CGraph::from_parts(cg.resident().to_vec(), rows, cg.frozen().to_vec());
    (out, stats)
}

#[test]
fn ghost_apply_and_reduce_match_row_references() {
    for (name, el) in fixtures() {
        for (part, mut cg) in partitioned(&el).into_iter().enumerate() {
            let tag = format!("{name} part={part}");
            // Contract first so the holding carries self and multi edges and
            // freeze marks, as it does when mergeParts runs.
            local_boruvka_with(
                &mut cg,
                &KernelPolicy,
                ExcpCond::BorderEdge,
                FreezePolicy::Sticky,
                StopPolicy::Exhaustive,
            );
            let updates = ghost_updates(&cg);
            assert!(!updates.is_empty(), "{tag}: fixture has no ghosts");
            let expect = reference_ghost_apply(&cg, &updates);
            apply_ghost_parents_with(&mut cg, &KernelPolicy, &updates);
            assert_eq!(cg, expect, "{tag}: ghost apply");

            let (expect, expect_stats) = reference_reduce(&cg);
            let stats = reduce_holding_with(&mut cg, &KernelPolicy);
            assert_eq!(stats, expect_stats, "{tag}: reduce stats");
            assert_eq!(cg, expect, "{tag}: reduce");
        }
        // The whole-graph holding after a relabel that merges vertex pairs
        // is dense in self and multi edges.
        let mut cg = CGraph::from_edge_list(&el);
        cg.relabel(|c| c & !3);
        let (expect, expect_stats) = reference_reduce(&cg);
        assert_eq!(
            reduce_holding_with(&mut cg, &KernelPolicy),
            expect_stats,
            "{name}"
        );
        assert_eq!(cg, expect, "{name}: merged reduce");
    }
}

// ------------------------------------------------------------------ //
// Incident counts
// ------------------------------------------------------------------ //

/// Binary-search tally: one count per endpoint that is resident.
fn reference_counts(cg: &CGraph) -> Vec<u64> {
    let mut counts = vec![0u64; cg.num_resident()];
    for e in cg.iter_edges() {
        for c in [e.a, e.b] {
            if let Ok(slot) = cg.resident().binary_search(&c) {
                counts[slot] += 1;
            }
        }
    }
    counts
}

/// A holding whose resident ids are spread ~10⁴ apart, far beyond the
/// span `SlotLookup` densifies, with ghost endpoints between them.
fn sparse_id_holding() -> CGraph {
    let resident: Vec<CompId> = (0..300u32).map(|i| i * 10_007 + 3).collect();
    let mut rows = Vec::new();
    let mut s = 11u64;
    for i in 0..2000u32 {
        s = splitmix64(s ^ i as u64);
        let a = resident[(s % 300) as usize];
        let b = if s >> 63 == 0 {
            ((s >> 8) % 4_000_000) as CompId // almost always a ghost
        } else {
            resident[((s >> 20) % 300) as usize]
        };
        rows.push(CEdge::new(a, b, WEdge::new(i, i + 1, (s >> 40) as u32)));
    }
    CGraph::from_parts(resident, rows, vec![])
}

#[test]
fn incident_counts_match_binary_search_tally() {
    let mut holdings: Vec<(String, CGraph)> = vec![("sparse-ids".into(), sparse_id_holding())];
    for (name, el) in fixtures() {
        holdings.push((format!("{name} whole"), CGraph::from_edge_list(&el)));
        for (part, cg) in partitioned(&el).into_iter().enumerate() {
            holdings.push((format!("{name} part={part}"), cg));
        }
    }
    for (tag, mut cg) in holdings {
        let expect = reference_counts(&cg);
        assert_eq!(cg.incident_counts(), expect.as_slice(), "{tag}");
        // The scratch column is reused: a second call gives the same answer.
        assert_eq!(cg.incident_counts(), expect.as_slice(), "{tag} (reuse)");
    }
}
