//! Boruvka's algorithm: the whole-graph variant and the paper's
//! exception-condition variant for partitions (§3.2).
//!
//! Both operate on the contracted-graph representation ([`CGraph`]) so the
//! same kernel serves level-0 partitions (components = vertices) and every
//! later merging level (components = merged supervertices).
//!
//! ## Correctness of freezing (the §3.2 exception)
//!
//! In each iteration a resident component elects its lightest incident edge
//! *considering every edge it holds, cut edges included*. If the winner is
//! a cut edge the component freezes instead of expanding; otherwise the
//! winner connects two resident components and is contracted. Because the
//! contracted edge is the minimum over **all** edges leaving the component,
//! the cut property guarantees it belongs to the (unique) MSF — no edge is
//! ever contracted speculatively.
//!
//! ## Election
//!
//! Each round one sequential sweep over the worklist keeps, per resident
//! root, the packed key `(weight << 32) | row` of its lightest candidate in
//! a plain `Vec<u64>` ([`crate::slot`]): weight ties fall back to the full
//! `((w, u, v), row)` order, so the winner is the unique minimum under the
//! workspace edge order. Worklist rows carry each endpoint's current root
//! slot (a ghost sentinel for a non-resident endpoint), so the election
//! reads no union-find at all. After every round that contracts, one
//! shrink pass moves both ends of each row to their new roots and drops the
//! rows that became internal self edges; there is no per-round
//! compression of the whole union-find.
//!
//! ## Contraction
//!
//! Contraction visits the live roots in ascending root-index order, from a
//! list filtered after every round, so a round costs its live rows and
//! roots, not the holding's size. The elected edges form a forest under
//! the total edge order (mutual elections are the same edge), so the union
//! *set* is order-independent, and the fixed order makes the whole kernel
//! deterministic. The visit swaps every slot back to [`NONE_KEY`], which is
//! exactly the reset the next round needs: the slot array is allocated once
//! per invocation.
//!
//! The commit compresses the union-find once, maps every slot to its new
//! id (the root's member id) through one table, and rewrites the holding's
//! rows in one order-keeping pass that drops the new self edges.

use mnd_graph::types::WEdge;

use crate::cgraph::{CGraph, CompId};
use crate::msf::MsfResult;
use crate::policy::{ExcpCond, FreezePolicy, IterWork, KernelPolicy, StopPolicy, WorkProfile};
use crate::slot::{pack, precedes, row_of, SlotLookup, NONE_KEY};

/// Output of one `indComp` invocation on a holding.
#[derive(Clone, Debug, Default)]
pub struct LocalOutput {
    /// Original-graph edges contracted by this invocation (a subset of the
    /// global MSF).
    pub msf_edges: Vec<WEdge>,
    /// Renaming applied to previously-resident components:
    /// `(old_id, new_id)` for every old id whose id changed.
    pub relabel: Vec<(CompId, CompId)>,
    /// Work profile for the device cost model.
    pub work: WorkProfile,
}

/// Runs Boruvka with the given exception condition on the holding,
/// mutating it in place:
///
/// * resident components become the merged components (named by their
///   smallest member id),
/// * edge endpoints on the resident side are relabelled,
/// * self edges produced by contraction are removed (the paper's separate
///   `removeSelfEdges` step is fused here for efficiency; multi-edge
///   removal stays separate because it needs ghost communication),
/// * frozen components are recorded in the holding.
///
/// `ExcpCond::None` is only legal when the holding has no cut edges; the
/// kernel panics otherwise (using it on a real partition silently corrupts
/// the MSF — we make that a loud error instead).
pub fn local_boruvka(
    cg: &mut CGraph,
    excp: ExcpCond,
    freeze: FreezePolicy,
    stop: StopPolicy,
) -> LocalOutput {
    if excp == ExcpCond::None {
        assert_eq!(
            cg.num_cut_edges(),
            0,
            "ExcpCond::None on a holding with cut edges would corrupt the MSF"
        );
    }

    let resident: Vec<CompId> = cg.resident().to_vec();
    let n = resident.len();
    // Local dense index per resident component.
    let slots = SlotLookup::new(&resident);
    let index_of = |c: CompId| slots.get(c);

    let mut dsu = MinDsu::new(n);
    // Election scratch: one packed key per root, allocated once here and
    // drained back to NONE_KEY by every round's contraction.
    let mut best = vec![NONE_KEY; n];
    let mut frozen = vec![false; n];
    // Freeze marks surviving from a previous invocation stay sticky.
    for f in cg.frozen() {
        if let Some(i) = index_of(*f) {
            frozen[i as usize] = true;
        }
    }

    // Data-driven worklist: only edges that can still matter are rescanned.
    // Every row starts at its endpoints' own slots, which are their roots.
    let (ea, eb) = cg.endpoint_cols();
    let mut worklist: Vec<CEdgeLocal> = ea
        .iter()
        .zip(eb)
        .zip(cg.orig_col())
        .map(|((&a, &b), &orig)| CEdgeLocal {
            a: index_of(a).unwrap_or(GHOST),
            b: index_of(b).unwrap_or(GHOST),
            orig,
        })
        .collect();

    // BorderVertex: freeze every component touching the border up front.
    if excp == ExcpCond::BorderVertex {
        for e in &worklist {
            if (e.a == GHOST) != (e.b == GHOST) {
                frozen[e.a.min(e.b) as usize] = true;
            }
        }
    }

    // The roots still live, ascending: contraction visits only these.
    let mut roots: Vec<u32> = (0..n as u32).collect();
    let mut msf_edges: Vec<WEdge> = Vec::new();
    let mut work = WorkProfile::default();
    let mut prev_cost: Option<u64> = None;
    loop {
        // --- Min-edge election ------------------------------------------
        let scanned = worklist.len() as u64;
        elect(&worklist, &frozen, freeze, &mut best);

        // --- Contraction / freezing -------------------------------------
        // Recheck policy re-derives freezes every round.
        if freeze == FreezePolicy::Recheck {
            frozen.fill(false);
        }
        let mut unions = 0u64;
        let mut active = 0u64;
        // Winner slots are visited in root-index order (not election order):
        // the elected edges form a forest, so any visit order unions the
        // same edge set — the fixed order keeps the kernel deterministic.
        for &r in &roots {
            let key = std::mem::replace(&mut best[r as usize], NONE_KEY);
            if key == NONE_KEY {
                continue;
            }
            active += 1;
            let win = worklist[row_of(key) as usize];
            // Re-resolve the endpoints: earlier unions this round may have
            // merged them further.
            match (win.a, win.b) {
                (GHOST, GHOST) => unreachable!("edge with no resident endpoint elected"),
                // Winner is a cut edge: freeze the resident side.
                (x, GHOST) | (GHOST, x) => {
                    frozen[dsu.find(x) as usize] = true;
                }
                (a, b) => {
                    let (x, y) = (dsu.find(a), dsu.find(b));
                    if x != y && dsu.union(x, y) {
                        msf_edges.push(win.orig);
                        unions += 1;
                        // Sticky: a merge involving a frozen side freezes
                        // the result.
                        if freeze == FreezePolicy::Sticky
                            && (frozen[x as usize] || frozen[y as usize])
                        {
                            frozen[x.min(y) as usize] = true;
                        }
                    }
                }
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
        // Data-driven shrink: move both ends to their new roots and drop
        // rows that became internal self edges.
        worklist.retain_mut(|e| {
            if e.a != GHOST {
                e.a = dsu.find(e.a);
            }
            if e.b != GHOST {
                e.b = dsu.find(e.b);
            }
            e.a != e.b || e.a == GHOST
        });
        roots.retain(|&r| dsu.is_root(r));
        // Diminishing-benefit early stop (§4.3.2): compare iteration costs.
        if let Some(prev) = prev_cost {
            if !stop.should_continue(prev, scanned) {
                break;
            }
        }
        prev_cost = Some(scanned);
    }

    // --- Commit the contraction to the holding ---------------------------
    // New id of a resident component = smallest member id = resident[root].
    dsu.compress_all();
    let new_id: Vec<CompId> = dsu.parent.iter().map(|&r| resident[r as usize]).collect();
    let relabel: Vec<(CompId, CompId)> = resident
        .iter()
        .zip(&new_id)
        .filter(|(old, new)| old != new)
        .map(|(&old, &new)| (old, new))
        .collect();
    let new_resident = roots.iter().map(|&r| resident[r as usize]).collect();
    let new_frozen = roots
        .iter()
        .filter(|&&r| frozen[r as usize])
        .map(|&r| resident[r as usize])
        .collect();
    cg.contract(
        |c| match slots.get(c) {
            Some(i) => new_id[i as usize],
            None => c,
        },
        new_resident,
        new_frozen,
    );

    LocalOutput {
        msf_edges,
        relabel,
        work,
    }
}

/// Whole-graph Boruvka MSF over an edge list — the single-device baseline
/// and the post-process kernel. Equivalent to
/// [`local_boruvka`] with `ExcpCond::None` on a whole-graph holding.
pub fn boruvka_msf(el: &mnd_graph::EdgeList) -> MsfResult {
    let mut cg = CGraph::from_edge_list(el);
    let out = local_boruvka(
        &mut cg,
        ExcpCond::None,
        FreezePolicy::Sticky,
        StopPolicy::Exhaustive,
    );
    MsfResult::from_edges(el.num_vertices(), out.msf_edges)
}

/// As [`local_boruvka`]. The policy carries no settings; this entry point
/// remains only because the `perfbench/` harness calls it.
pub fn local_boruvka_with(
    cg: &mut CGraph,
    _policy: &KernelPolicy,
    excp: ExcpCond,
    freeze: FreezePolicy,
    stop: StopPolicy,
) -> LocalOutput {
    local_boruvka(cg, excp, freeze, stop)
}

/// One round's min-edge election: leaves in `best[r]` the packed key of
/// root `r`'s lightest candidate row under `((w, u, v), row)`, or
/// [`NONE_KEY`] when it has none. `best` must come in all [`NONE_KEY`].
/// Rows carry their endpoints' current roots, so no union-find is read.
fn elect(rows: &[CEdgeLocal], frozen: &[bool], freeze: FreezePolicy, best: &mut [u64]) {
    let orig_of = |row: u32| rows[row as usize].orig;
    let sticky = freeze == FreezePolicy::Sticky;
    for (row, e) in rows.iter().enumerate() {
        if e.a == e.b {
            continue; // self edge at current contraction (or ghost-to-ghost)
        }
        let key = pack(e.orig.w, row as u32);
        for r in [e.a, e.b] {
            if r == GHOST || (sticky && frozen[r as usize]) {
                continue;
            }
            let slot = &mut best[r as usize];
            if *slot == NONE_KEY || precedes(key, *slot, &orig_of) {
                *slot = key;
            }
        }
    }
}

/// Min-representative DSU: links always orient the larger root under the
/// smaller, so the representative of a set is its minimum element — the
/// property that makes component ids globally consistent without
/// coordination.
struct MinDsu {
    parent: Vec<u32>,
}

impl MinDsu {
    fn new(n: usize) -> Self {
        MinDsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
    }

    fn is_root(&self, x: u32) -> bool {
        self.parent[x as usize] == x
    }

    /// Fully path-compresses: afterwards `parent[x]` is `x`'s root.
    fn compress_all(&mut self) {
        for i in 0..self.parent.len() as u32 {
            let r = self.find(i);
            self.parent[i as usize] = r;
        }
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi as usize] = lo;
        true
    }
}

/// Root slot of a non-resident (ghost) endpoint in a worklist row.
const GHOST: u32 = u32::MAX;

/// Worklist row: each endpoint's current root slot ([`GHOST`] for a
/// non-resident endpoint) and the original edge.
#[derive(Clone, Copy, Debug)]
struct CEdgeLocal {
    a: u32,
    b: u32,
    orig: WEdge,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msf::verify_msf;
    use crate::oracle::kruskal_msf;
    use mnd_graph::gen;
    use mnd_graph::partition::VertexRange;
    use mnd_graph::CsrGraph;

    fn run_whole(el: &mnd_graph::EdgeList) {
        let msf = boruvka_msf(el);
        verify_msf(el, &msf).unwrap();
    }

    #[test]
    fn whole_graph_matches_kruskal_on_families() {
        run_whole(&gen::path(20, 1));
        run_whole(&gen::cycle(15, 2));
        run_whole(&gen::star(12, 3));
        run_whole(&gen::complete(10, 4));
        run_whole(&gen::gnm(200, 600, 5));
        run_whole(&gen::watts_strogatz(100, 4, 0.3, 6));
        run_whole(&gen::rmat(128, 512, gen::RmatProbs::GRAPH500, 7));
        run_whole(&gen::road_grid(12, 12, 0.02, 0.38, 8));
    }

    #[test]
    fn whole_graph_handles_disconnected() {
        let u = gen::disconnected_union(&[gen::path(5, 1), gen::cycle(6, 2), gen::gnm(30, 60, 3)]);
        run_whole(&u);
    }

    #[test]
    fn empty_and_trivial_inputs() {
        run_whole(&mnd_graph::EdgeList::new(0));
        run_whole(&mnd_graph::EdgeList::new(1));
        run_whole(&mnd_graph::EdgeList::new(10)); // edgeless
    }

    #[test]
    #[should_panic(expected = "cut edges")]
    fn none_exception_rejects_partitions() {
        let g = CsrGraph::from_edge_list(&gen::path(6, 1));
        let mut cg = CGraph::from_partition(&g, VertexRange { start: 0, end: 3 });
        local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
    }

    #[test]
    fn partition_kernel_contracts_only_msf_edges() {
        // Property: every contracted edge must be in the oracle MSF.
        for seed in 0..5 {
            let el = gen::gnm(100, 400, seed);
            let oracle: std::collections::HashSet<_> = kruskal_msf(&el).edges.into_iter().collect();
            let g = CsrGraph::from_edge_list(&el);
            for (lo, hi) in [(0, 50), (25, 75), (0, 100)] {
                let mut cg = CGraph::from_partition(&g, VertexRange { start: lo, end: hi });
                let out = local_boruvka(
                    &mut cg,
                    ExcpCond::BorderEdge,
                    FreezePolicy::Sticky,
                    StopPolicy::Exhaustive,
                );
                for e in &out.msf_edges {
                    assert!(
                        oracle.contains(e),
                        "seed {seed} [{lo},{hi}): {e:?} not in MSF"
                    );
                }
                cg.validate().unwrap();
            }
        }
    }

    #[test]
    fn border_vertex_is_more_conservative_than_border_edge() {
        let el = gen::gnm(200, 800, 11);
        let g = CsrGraph::from_edge_list(&el);
        let range = VertexRange { start: 0, end: 100 };
        let mut cg_e = CGraph::from_partition(&g, range);
        let mut cg_v = CGraph::from_partition(&g, range);
        let out_e = local_boruvka(
            &mut cg_e,
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let out_v = local_boruvka(
            &mut cg_v,
            ExcpCond::BorderVertex,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert!(out_v.msf_edges.len() <= out_e.msf_edges.len());
        assert!(cg_v.num_resident() >= cg_e.num_resident());
    }

    #[test]
    fn resident_ids_become_min_member() {
        let el = gen::path(4, 1); // 0-1-2-3, whole graph
        let mut cg = CGraph::from_edge_list(&el);
        local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert_eq!(cg.resident(), &[0]); // single component named 0
        assert_eq!(cg.num_edges(), 0);
    }

    #[test]
    fn relabel_reports_only_changes() {
        let el = gen::path(3, 1);
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        // 1 and 2 renamed to 0; 0 unchanged.
        let mut r = out.relabel.clone();
        r.sort_unstable();
        assert_eq!(r, vec![(1, 0), (2, 0)]);
    }

    #[test]
    fn frozen_components_survive_in_holding() {
        // Path 0-1-2-3 split in half: with BorderEdge, whether a side
        // freezes depends on whether its internal edge is lighter than its
        // cut edge, but the *union* of contracted edges must stay within
        // the oracle MSF and residency must stay consistent.
        let el = gen::path(4, 5);
        let g = CsrGraph::from_edge_list(&el);
        let mut cg = CGraph::from_partition(&g, VertexRange { start: 0, end: 2 });
        let out = local_boruvka(
            &mut cg,
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let oracle: std::collections::HashSet<_> = kruskal_msf(&el).edges.into_iter().collect();
        for e in &out.msf_edges {
            assert!(oracle.contains(e));
        }
        for f in cg.frozen() {
            assert!(cg.is_resident(*f));
        }
    }

    #[test]
    fn work_profile_is_recorded() {
        let el = gen::gnm(100, 300, 9);
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert!(out.work.num_iterations() >= 1);
        assert!(out.work.total_scanned() > 0);
        // Boruvka halves components per round: few iterations expected.
        assert!(out.work.num_iterations() <= 20);
    }

    #[test]
    fn recheck_freeze_contracts_at_least_as_much() {
        let el = gen::gnm(150, 500, 13);
        let g = CsrGraph::from_edge_list(&el);
        let range = VertexRange { start: 0, end: 75 };
        let mut cg_s = CGraph::from_partition(&g, range);
        let mut cg_r = CGraph::from_partition(&g, range);
        let s = local_boruvka(
            &mut cg_s,
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let r = local_boruvka(
            &mut cg_r,
            ExcpCond::BorderEdge,
            FreezePolicy::Recheck,
            StopPolicy::Exhaustive,
        );
        assert!(r.msf_edges.len() >= s.msf_edges.len());
        let oracle: std::collections::HashSet<_> = kruskal_msf(&el).edges.into_iter().collect();
        for e in r.msf_edges.iter().chain(s.msf_edges.iter()) {
            assert!(oracle.contains(e));
        }
    }

    #[test]
    fn diminishing_benefit_stops_early_but_stays_correct() {
        let el = gen::gnm(300, 900, 17);
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::DiminishingBenefit {
                min_improvement: 0.5,
            },
        );
        let oracle: std::collections::HashSet<_> = kruskal_msf(&el).edges.into_iter().collect();
        for e in &out.msf_edges {
            assert!(oracle.contains(e));
        }
        // Early stop leaves residue: resident components remain and can be
        // finished later (the recursion / postProcess path).
        assert!(cg.num_resident() >= 1);
    }
}
