//! The `mergeParts` phase (§3.3): ghost-parent exchange plus self/multi-edge
//! reduction, applied after every independent computation.

use mnd_hypar::observe::PhaseKind;
use mnd_kernels::cgraph::CompId;
use mnd_kernels::reduce::{apply_ghost_parents, ghost_parent_message, reduce_holding};
use mnd_wire::PackedPairs;

use crate::ghost::relabel_buckets;
use crate::phases::{exchange_mode, Phase, RankCtx, RankRecovery};

/// Consumes the relabels of the preceding `indComp` (stored in
/// [`MergeParts::relabel`] by the caller), exchanges ghost parents, and
/// reduces the holding in place.
#[derive(Debug, Default)]
pub struct MergeParts {
    /// `(old, new)` component renames produced by the last kernel run;
    /// taken (and normalised in place) when the phase executes.
    pub relabel: Vec<(CompId, CompId)>,
}

impl Phase for MergeParts {
    fn kind(&self) -> PhaseKind {
        PhaseKind::MergeParts
    }

    fn run(&mut self, cx: &mut RankCtx<'_>, _rec: &mut RankRecovery<'_>) {
        let mut relabel = std::mem::take(&mut self.relabel);
        cx.observed(PhaseKind::MergeParts, |cx| {
            let comm = cx.comm;
            // Normalise the outgoing ghost-parent message in place (the
            // device results may repeat pairs; §3.3 sends each once).
            ghost_parent_message(&mut relabel);

            let cfg = cx.cfg();
            let buckets = relabel_buckets(&cx.cg, &relabel, &cx.dir, comm.rank(), comm.size());
            let received = if cfg.compressed_relabels {
                // Rename pairs reference few surviving components per
                // round: the dictionary codec densifies them to small
                // indexes on the wire, inverted on receipt.
                comm.alltoallv_phased_enc(
                    buckets,
                    cx.runner.ghost_phase_size,
                    exchange_mode(cfg),
                    PackedPairs::encode,
                    PackedPairs::into_pairs,
                )
            } else {
                comm.alltoallv_phased_with(buckets, cx.runner.ghost_phase_size, exchange_mode(cfg))
            };
            cx.dir.apply_relabels(&relabel);
            // One sweep for all peers: each old id is resident on exactly
            // one sender and each new id on its sender, so the buckets'
            // olds are disjoint and no rename chains across buckets.
            debug_assert!(
                single_sweep_holds(&received),
                "rank {}: received ghost-parent buckets overlap or chain",
                comm.rank()
            );
            let pairs = received.concat();
            drop(received);
            apply_ghost_parents(&mut cx.cg, &pairs);
            cx.dir.apply_relabels(&pairs);

            // Reduce: self-edge removal + multi-edge removal, in place.
            let stats = reduce_holding(&mut cx.cg);
            comm.compute(cx.runner.sweep_seconds(stats.edges_before));
        });
    }
}

/// The preconditions of applying every received bucket in one sweep: no
/// `old` id arrives in two buckets, and no received `new` id is itself
/// renamed this round.
fn single_sweep_holds(buckets: &[Vec<(CompId, CompId)>]) -> bool {
    let mut olds = std::collections::HashMap::new();
    for (src, pairs) in buckets.iter().enumerate() {
        for &(old, _) in pairs {
            if *olds.entry(old).or_insert(src) != src {
                return false;
            }
        }
    }
    buckets
        .iter()
        .flatten()
        .all(|(_, new)| !olds.contains_key(new))
}

#[cfg(test)]
mod tests {
    use super::single_sweep_holds;

    #[test]
    fn single_sweep_preconditions() {
        // Disjoint olds, news not renamed, a repeat within one bucket.
        assert!(single_sweep_holds(&[
            vec![],
            vec![(3, 1), (4, 1), (3, 1)],
            vec![(9, 7)]
        ]));
        // Old 3 arrives from two peers.
        assert!(!single_sweep_holds(&[vec![(3, 1)], vec![(3, 2)]]));
        // New 7 is itself renamed by another peer: a chain.
        assert!(!single_sweep_holds(&[vec![(9, 7)], vec![(7, 5)]]));
    }
}
