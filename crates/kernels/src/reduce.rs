//! Data-structure reduction between computation stages (§3.3): self-edge
//! removal, ghost-parent application, and multi-edge removal.
//!
//! The ghost half works in tandem with the driver: processors exchange
//! `(old component id, new parent id)` pairs for their boundary components;
//! [`apply_ghost_parents`] applies the received pairs to the *non-resident*
//! endpoints of a holding, after which multi-edge removal can collapse
//! parallel inter-component edges correctly even across processor borders.
//!
//! All reductions run **in place** on the holding's SoA columns. Self-edge
//! removal compacts with a write cursor. Multi-edge removal is the paper's
//! hash table of per-pair minimums: one pass over the rows into a table of
//! row indices, a compaction in storage order through a bitmap, and a key
//! sort only when the survivors are out of order. Table and bitmap live in
//! the holding's reusable scratch, so a reduce pass is linear in the rows
//! and allocates only when a holding outgrows its scratch.

use crate::cgraph::{CGraph, CompId};
use crate::idhash::IdMap;
use crate::policy::KernelPolicy;

/// Summary of one reduction pass (reported to the cost model; the paper
/// charges these operations to the merge phase).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Edges before the pass.
    pub edges_before: u64,
    /// Self edges removed.
    pub self_removed: u64,
    /// Multi-edges removed.
    pub multi_removed: u64,
    /// Edges after the pass.
    pub edges_after: u64,
}

/// Runs self-edge removal followed by multi-edge removal on a holding,
/// entirely in place.
pub fn reduce_holding(cg: &mut CGraph) -> ReduceStats {
    let before = cg.num_edges() as u64;
    cg.remove_self_edges();
    let after_self = cg.num_edges() as u64;
    cg.remove_multi_edges();
    let after = cg.num_edges() as u64;
    ReduceStats {
        edges_before: before,
        self_removed: before - after_self,
        multi_removed: after_self - after,
        edges_after: after,
    }
}

/// As [`reduce_holding`]. The policy carries no settings; this entry point
/// remains only because the `perfbench/` harness calls it.
pub fn reduce_holding_with(cg: &mut CGraph, _policy: &KernelPolicy) -> ReduceStats {
    reduce_holding(cg)
}

/// Normalises the ghost-parent message a processor sends — the `(old, new)`
/// renaming pairs of its own components, restricted by the driver to ids
/// that other processors may reference — by sorting and deduplicating **in
/// place**. Called once per exchange round per rank, so it must not copy
/// the pair vector. Idempotent: renormalising an already-normalised message
/// leaves it unchanged.
pub fn ghost_parent_message(msg: &mut Vec<(CompId, CompId)>) {
    msg.sort_unstable();
    msg.dedup();
}

/// Applies received ghost-parent pairs to a holding: every edge endpoint
/// matching an `old` id is renamed to `new`. Resident ids are left alone —
/// renames of resident components were already committed by the local
/// kernel; this call is specifically for ghost (non-resident) endpoints.
///
/// One call is one sweep of the holding, however many peers the pairs came
/// from: the driver concatenates every received bucket into `updates`.
/// Each `old` id appears once (were it repeated, the last pair would win)
/// and no `new` id is itself an `old` id: renames are applied once, never
/// chained.
pub fn apply_ghost_parents(cg: &mut CGraph, updates: &[(CompId, CompId)]) {
    if updates.is_empty() {
        return;
    }
    let mut map: IdMap<CompId, CompId> =
        IdMap::with_capacity_and_hasher(updates.len(), Default::default());
    map.extend(updates.iter().copied());
    cg.relabel_ghosts(|c| map.get(&c).copied());
}

/// As [`apply_ghost_parents`]. The policy carries no settings; this entry
/// point remains only because the `perfbench/` harness calls it.
pub fn apply_ghost_parents_with(
    cg: &mut CGraph,
    _policy: &KernelPolicy,
    updates: &[(CompId, CompId)],
) {
    apply_ghost_parents(cg, updates);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cgraph::CEdge;
    use mnd_graph::types::WEdge;

    #[test]
    fn reduce_removes_both_kinds() {
        let mut cg = CGraph::from_parts(
            vec![0, 5],
            vec![
                CEdge::new(0, 0, WEdge::new(1, 2, 3)), // self
                CEdge::new(0, 5, WEdge::new(0, 5, 9)), // kept? no: heavier multi
                CEdge::new(0, 5, WEdge::new(2, 6, 4)), // kept (lightest 0~5)
            ],
            vec![],
        );
        let stats = reduce_holding(&mut cg);
        assert_eq!(stats.self_removed, 1);
        assert_eq!(stats.multi_removed, 1);
        assert_eq!(stats.edges_after, 1);
        assert_eq!(cg.edge(0).orig, WEdge::new(2, 6, 4));
    }

    #[test]
    fn ghost_parents_rename_only_non_resident() {
        let mut cg = CGraph::from_parts(
            vec![0, 1],
            vec![
                CEdge::new(0, 7, WEdge::new(0, 7, 1)), // ghost endpoint 7
                CEdge::new(1, 0, WEdge::new(0, 1, 2)),
            ],
            vec![],
        );
        // Remote processor reports 7 -> 5; a malicious/stale pair 1 -> 9
        // must not touch our resident component 1.
        apply_ghost_parents(&mut cg, &[(7, 5), (1, 9)]);
        assert!(cg.iter_edges().any(|e| (e.a, e.b) == (0, 5)));
        assert!(cg.iter_edges().any(|e| (e.a, e.b) == (0, 1)));
        assert_eq!(cg.resident(), &[0, 1]);
    }

    #[test]
    fn ghost_message_dedups() {
        let mut msg = vec![(3, 1), (3, 1), (4, 1)];
        ghost_parent_message(&mut msg);
        assert_eq!(msg, vec![(3, 1), (4, 1)]);
    }

    #[test]
    fn ghost_message_normalisation_is_idempotent() {
        // Regression: normalising twice (as happens when a relabel buffer is
        // reused across exchange rounds) must be a no-op the second time,
        // including capacity — the in-place contract means no reallocation.
        let mut msg = vec![(9, 2), (3, 1), (9, 2), (4, 1), (3, 1)];
        ghost_parent_message(&mut msg);
        let once = msg.clone();
        let cap = msg.capacity();
        ghost_parent_message(&mut msg);
        assert_eq!(msg, once);
        assert_eq!(msg.capacity(), cap);
    }

    #[test]
    fn empty_updates_are_noop() {
        let mut cg =
            CGraph::from_parts(vec![2], vec![CEdge::new(2, 8, WEdge::new(2, 8, 1))], vec![]);
        let before = cg.clone();
        apply_ghost_parents(&mut cg, &[]);
        assert_eq!(cg, before);
    }
}
