//! The partitioning phase (§3.1): degree exchange, 1D cuts, device
//! calibration, holding construction, and the ghost-information exchange.

use mnd_graph::partition::partition_1d_by_degrees;
use mnd_hypar::api::part_graph;
use mnd_hypar::observe::PhaseKind;
use mnd_kernels::cgraph::{CGraph, CompId};
use mnd_kernels::filter::filter_holding;
use mnd_kernels::slot::SlotLookup;
use mnd_wire::PackedIds;

use crate::ghost::GhostDirectory;
use crate::phases::{exchange_mode, Phase, RankCtx, RankRecovery};

/// `partGraph`: leaves the context with a level-0 holding, a seeded ghost
/// directory, and the calibrated CPU/GPU split.
#[derive(Debug, Default)]
pub struct Partition;

impl Phase for Partition {
    fn kind(&self) -> PhaseKind {
        PhaseKind::Partition
    }

    fn run(&mut self, cx: &mut RankCtx<'_>, rec: &mut RankRecovery<'_>) {
        cx.observed(PhaseKind::Partition, |cx| {
            let comm = cx.comm;
            let runner = cx.runner;
            let cfg = cx.cfg();
            let me = comm.rank();
            let p = comm.size();

            // Gemini-style slice read + degree allreduce + 1D cuts.
            let m_edges = cx.el.len();
            let lo = me * m_edges / p;
            let hi = (me + 1) * m_edges / p;
            let mut partial = vec![0u64; cx.el.num_vertices() as usize];
            for e in &cx.el.edges()[lo..hi] {
                partial[e.u as usize] += 1;
                partial[e.v as usize] += 1;
            }
            comm.compute(runner.sweep_seconds((hi - lo) as u64));
            let degrees = comm.allreduce_vec_u64(partial, |a, b| a + b);
            let ranges = partition_1d_by_degrees(&degrees, p, 0.0);
            let my_range = ranges[me];

            // Intra-node device split (§4.3.1), calibrated on the local
            // partition's induced subgraph.
            cx.split = if runner.platform.is_hybrid() {
                let keep: Vec<u32> = my_range.iter().collect();
                let local = cx.csr.induced_subgraph(&keep);
                let part = part_graph(&local, 1, &runner.platform, cfg);
                // Calibration runs 5-10 small kernels on both devices;
                // charge a sweep over the sampled edges.
                let sampled = (local.num_undirected_edges() as f64
                    * cfg.calibration_frac
                    * cfg.calibration_samples as f64) as u64;
                comm.compute(runner.sweep_seconds(sampled));
                part.split
            } else {
                mnd_device::DeviceSplit::cpu_only()
            };

            // Holding + ghost information.
            cx.cg = CGraph::from_partition(cx.csr, my_range);
            comm.compute(runner.sweep_seconds(cx.cg.num_edges() as u64));

            // Filter-Boruvka (DESIGN.md §8): prune provably-non-MST
            // internal edges from the level-0 holding before any exchange
            // pays for them. Cut edges are exempt inside filter_holding —
            // they are duplicated on both endpoint owners and the
            // ghost-parent protocol needs both copies alive.
            if cfg.filter_sample_prob > 0.0 {
                let before = cx.cg.num_edges() as u64;
                // One ascending sweep: a sort plus a DSU pass.
                comm.compute(runner.sweep_seconds(before));
                filter_holding(&mut cx.cg, cfg.filter_sample_prob, cfg.seed);
            }

            cx.dir = GhostDirectory::from_ranges(ranges);
            cx.note_holding();

            // makeGhostInformation: exchange boundary vertex ids so every
            // rank can build its ghostList hash table (§3.1). Our
            // GhostDirectory derives owners from the ranges, so the payload
            // itself is only used as a consistency check — but the exchange
            // is performed for its (phased) communication cost, like the
            // paper's.
            let mut buckets: Vec<Vec<CompId>> = (0..p).map(|_| Vec::new()).collect();
            let resident = SlotLookup::new(cx.cg.resident());
            let (ea, eb) = cx.cg.endpoint_cols();
            for (&a, &b) in ea.iter().zip(eb) {
                for (mine, ghost) in [(a, b), (b, a)] {
                    if resident.contains(mine) && !resident.contains(ghost) {
                        let owner = cx.dir.owner(ghost) as usize;
                        if owner != me {
                            buckets[owner].push(mine);
                        }
                    }
                }
            }
            for b in &mut buckets {
                b.sort_unstable();
                b.dedup();
            }
            let mode = exchange_mode(cfg);
            let received = if cfg.compressed_relabels {
                // Boundary ids are sorted + deduplicated per bucket, the
                // shape the delta-varint codec compresses best.
                comm.alltoallv_phased_enc(
                    buckets,
                    runner.ghost_phase_size,
                    mode,
                    PackedIds::encode,
                    PackedIds::into_ids,
                )
            } else {
                comm.alltoallv_phased_with(buckets, runner.ghost_phase_size, mode)
            };
            // Consistency: every vertex a neighbour reports as its boundary
            // must be non-resident here and owned by that neighbour.
            for (src, verts) in received.iter().enumerate() {
                for &v in verts {
                    debug_assert_eq!(cx.dir.owner(v) as usize, src, "ghost table mismatch");
                }
            }
        });
        rec.step(cx);
    }
}
