//! Layer timings taken from outside the driver: standalone calls into the
//! graph, kernel and wire crates on the workload's own data.
//!
//! The kernel calls replay the first computation step of rank 0: its 1D
//! partition holding at the run's rank count, one `local_boruvka_with`
//! under the default `KernelPolicy`, that call's own relabels applied as
//! ghost parents, then one reduce.

use std::hint::black_box;
use std::time::Instant;

use mnd_graph::partition::{owner_of, partition_1d};
use mnd_graph::{CsrGraph, EdgeList};
use mnd_hypar::HyParConfig;
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::msf::MsfResult;
use mnd_kernels::reduce::{apply_ghost_parents_with, ghost_parent_message, reduce_holding_with};
use mnd_kernels::{filter_kruskal_msf, local_boruvka_with};
use mnd_wire::{PackedPairs, Wire};

use crate::report::median;
use crate::workload::RANKS;

/// Everything measured by standalone calls.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    pub csr_build_s: f64,
    pub vertices: u64,
    pub edges: u64,
    pub cut_fraction: f64,
    pub local_boruvka_s: f64,
    pub apply_ghost_parents_s: f64,
    pub reduce_holding_s: f64,
    pub reduce_removed_ratio: f64,
    pub local_boruvka_edges_in: u64,
    pub local_boruvka_msf_edges: u64,
    pub packed_pairs_encode_s: f64,
    pub packed_pairs_ratio: f64,
    pub filter_kruskal_s: f64,
    /// Whether every filter-Kruskal forest equalled the oracle.
    pub filter_kruskal_correct: bool,
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = black_box(f());
    (t.elapsed().as_secs_f64(), r)
}

/// Measures every layer, repeating each call `reps` times and keeping the
/// median.
pub fn measure(el: &EdgeList, oracle: &MsfResult, config: &HyParConfig, reps: usize) -> LayerTimes {
    let reps = reps.max(1);
    let policy = config.kernel_policy;
    let mut out = LayerTimes {
        vertices: el.num_vertices() as u64,
        edges: el.len() as u64,
        filter_kruskal_correct: true,
        ..Default::default()
    };

    let mut csr_s = Vec::with_capacity(reps);
    let mut csr = None;
    for _ in 0..reps {
        drop(csr.take());
        let (s, g) = timed(|| CsrGraph::from_edge_list(el));
        csr_s.push(s);
        csr = Some(g);
    }
    let csr = csr.expect("reps >= 1");
    out.csr_build_s = median(&csr_s);

    let ranges = partition_1d(&csr, RANKS, 0.0);
    let cut = el
        .edges()
        .iter()
        .filter(|e| owner_of(&ranges, e.u) != owner_of(&ranges, e.v))
        .count();
    out.cut_fraction = cut as f64 / el.len().max(1) as f64;

    let (mut boruvka_s, mut ghost_s, mut reduce_s, mut encode_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let mut cg = CGraph::from_partition(&csr, ranges[0]);
        out.local_boruvka_edges_in = cg.num_edges() as u64;
        let (s, local) =
            timed(|| local_boruvka_with(&mut cg, &policy, config.excp, config.freeze, config.stop));
        boruvka_s.push(s);
        out.local_boruvka_msf_edges = local.msf_edges.len() as u64;

        let mut relabel = local.relabel;
        ghost_parent_message(&mut relabel);
        let (s, ()) = timed(|| apply_ghost_parents_with(&mut cg, &policy, &relabel));
        ghost_s.push(s);

        let (s, stats) = timed(|| reduce_holding_with(&mut cg, &policy));
        reduce_s.push(s);
        out.reduce_removed_ratio =
            (stats.self_removed + stats.multi_removed) as f64 / stats.edges_before.max(1) as f64;

        let raw_bytes = 8 * relabel.len() as u64;
        let (s, packed) = timed(|| PackedPairs::encode(relabel));
        encode_s.push(s);
        out.packed_pairs_ratio = packed.wire_bytes() as f64 / raw_bytes.max(1) as f64;
    }
    out.local_boruvka_s = median(&boruvka_s);
    out.apply_ghost_parents_s = median(&ghost_s);
    out.reduce_holding_s = median(&reduce_s);
    out.packed_pairs_encode_s = median(&encode_s);
    drop(csr);

    let mut fk_s = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (s, msf) = timed(|| filter_kruskal_msf(el));
        fk_s.push(s);
        out.filter_kruskal_correct &= msf == *oracle;
    }
    out.filter_kruskal_s = median(&fk_s);
    out
}
