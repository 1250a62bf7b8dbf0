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
//! workspace edge order. The union-find (`MinDsu`) is fully
//! path-compressed before each sweep, so roots resolve in one hop.
//!
//! Contraction then visits winner slots in root-index order — the elected
//! edges form a forest under the total edge order (mutual elections are
//! the same edge), so the union *set* is order-independent, and the fixed
//! order makes the whole kernel deterministic. The visit swaps every slot
//! back to [`NONE_KEY`], which is exactly the reset the next round needs:
//! the slot array is allocated once per invocation.

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

    // BorderVertex: freeze every component touching the border up front.
    if excp == ExcpCond::BorderVertex {
        for e in cg.iter_edges() {
            let a_res = index_of(e.a);
            let b_res = index_of(e.b);
            if a_res.is_none() || b_res.is_none() {
                if let Some(i) = a_res.or(b_res) {
                    frozen[i as usize] = true;
                }
            }
        }
    }

    let mut msf_edges: Vec<WEdge> = Vec::new();
    let mut work = WorkProfile::default();
    // Data-driven worklist: only edges that can still matter are rescanned.
    let mut worklist: Vec<CEdgeLocal> = cg
        .iter_edges()
        .map(|e| CEdgeLocal {
            a: index_of(e.a),
            b: index_of(e.b),
            orig: e.orig,
        })
        .collect();

    let mut prev_cost: Option<u64> = None;
    loop {
        // --- Min-edge election ------------------------------------------
        dsu.compress_all();
        let scanned = worklist.len() as u64;
        elect(&worklist, &dsu, &frozen, freeze, &mut best);

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
        for slot in best.iter_mut() {
            let key = std::mem::replace(slot, NONE_KEY);
            if key == NONE_KEY {
                continue;
            }
            active += 1;
            let win = worklist[row_of(key) as usize];
            // Re-resolve the endpoints: earlier unions this round may have
            // merged them further.
            let ra = win.a.map(|i| dsu.find(i));
            let rb = win.b.map(|i| dsu.find(i));
            match (ra, rb) {
                (Some(x), Some(y)) => {
                    if x != y && dsu.union(x, y) {
                        msf_edges.push(win.orig);
                        unions += 1;
                        // Sticky: a merge involving a frozen side freezes
                        // the result.
                        let root = dsu.find(x);
                        if freeze == FreezePolicy::Sticky
                            && (frozen[x as usize] || frozen[y as usize])
                        {
                            frozen[root as usize] = true;
                        }
                    }
                }
                // Winner is a cut edge: freeze the resident side.
                (Some(x), None) | (None, Some(x)) => {
                    frozen[dsu.find(x) as usize] = true;
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
        // Data-driven shrink: drop edges that became internal self edges.
        worklist.retain(|e| {
            let ra = e.a.map(|i| dsu.find(i));
            let rb = e.b.map(|i| dsu.find(i));
            !matches!((ra, rb), (Some(x), Some(y)) if x == y)
        });
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
    let mut relabel = Vec::new();
    let mut new_resident = Vec::with_capacity(n);
    let mut new_frozen = Vec::new();
    for i in 0..n as u32 {
        let root = dsu.find_const(i);
        let new_id = resident[root as usize];
        if root == i {
            new_resident.push(new_id);
            if frozen[i as usize] {
                new_frozen.push(new_id);
            }
        }
        if new_id != resident[i as usize] {
            relabel.push((resident[i as usize], new_id));
        }
    }
    cg.relabel(|c| match slots.get(c) {
        Some(i) => resident[dsu.find_const(i) as usize],
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
/// Reads the union-find through [`MinDsu::find_const`] — callers compress
/// fully first.
fn elect(
    rows: &[CEdgeLocal],
    dsu: &MinDsu,
    frozen: &[bool],
    freeze: FreezePolicy,
    best: &mut [u64],
) {
    let orig_of = |row: u32| rows[row as usize].orig;
    for (row, e) in rows.iter().enumerate() {
        let ra = e.a.map(|i| dsu.find_const(i));
        let rb = e.b.map(|i| dsu.find_const(i));
        if let (Some(x), Some(y)) = (ra, rb) {
            if x == y {
                continue; // self edge at current contraction
            }
        }
        let key = pack(e.orig.w, row as u32);
        for r in [ra, rb].into_iter().flatten() {
            if frozen[r as usize] && freeze == FreezePolicy::Sticky {
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

    fn find_const(&self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            x = self.parent[x as usize];
        }
        x
    }

    /// Fully path-compresses: afterwards `parent[x]` is `x`'s root, so
    /// [`MinDsu::find_const`] resolves in one hop from shared references.
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

/// Local-index edge used by the kernel's worklist (`None` = non-resident
/// endpoint).
#[derive(Clone, Copy, Debug)]
struct CEdgeLocal {
    a: Option<u32>,
    b: Option<u32>,
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
