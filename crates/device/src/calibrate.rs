//! CPU/GPU partition-ratio calibration — §4.3.1 of the paper.
//!
//! "We form a small number of different induced subgraphs (for our study,
//! we used 5-10 subgraphs), execute each subgraph on both CPU and GPU, find
//! the performance ratio, and obtain an average of the ratios … In addition
//! to performance, we also take into account the GPU memory requirements."

use mnd_graph::edgelist::splitmix64;
use mnd_graph::{CsrGraph, VertexId};
use mnd_kernels::boruvka::local_boruvka;
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};

use crate::exec::ExecDevice;
use crate::model::DeviceModel;
use crate::platform::NodePlatform;

/// The calibrated intra-node split.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceSplit {
    /// Fraction of the node's edges assigned to the CPU partition
    /// (`1 - cpu_fraction` goes to the GPU).
    pub cpu_fraction: f64,
    /// Average of the per-sample GPU:CPU speed ratios.
    pub gpu_speedup: f64,
    /// True if the GPU share was clipped by its memory capacity.
    pub memory_limited: bool,
}

impl DeviceSplit {
    /// A CPU-only split (no GPU present).
    pub fn cpu_only() -> Self {
        DeviceSplit {
            cpu_fraction: 1.0,
            gpu_speedup: 0.0,
            memory_limited: false,
        }
    }
}

/// Calibrates the CPU/GPU split for `graph` following §4.3.1: `samples`
/// induced subgraphs of `sample_frac` of the vertices each (the paper uses
/// 5–10 samples at 5%), executed on both device models; the split is the
/// average performance ratio, clipped so the GPU partition fits GPU memory.
pub fn calibrate_split(
    graph: &CsrGraph,
    cpu: &DeviceModel,
    gpu: &DeviceModel,
    samples: u32,
    sample_frac: f64,
    seed: u64,
) -> DeviceSplit {
    assert!(samples >= 1);
    assert!((0.0..=1.0).contains(&sample_frac));
    let n = graph.num_vertices();
    if n == 0 {
        return DeviceSplit::cpu_only();
    }
    let keep_count = ((n as f64 * sample_frac).ceil() as usize).clamp(1, n as usize);

    let mut ratios = Vec::with_capacity(samples as usize);
    for s in 0..samples {
        let keep = sample_vertices(n, keep_count, splitmix64(seed ^ (s as u64) << 32));
        let sub = graph.induced_subgraph(&keep);
        let el = sub.to_edge_list();
        if el.is_empty() {
            continue; // degenerate sample: no information
        }
        let mut cg = CGraph::from_edge_list(&el);
        let out = local_boruvka(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let skew = {
            let mut cg = CGraph::from_edge_list(&el);
            ExecDevice::holding_skew(&mut cg)
        };
        let t_cpu = cpu.kernel_time(&out.work, skew);
        // The GPU pays its transfers in real use; include them so tiny
        // graphs correctly favour the CPU.
        let bytes = el.len() as u64 * std::mem::size_of::<mnd_graph::WEdge>() as u64;
        let t_gpu = gpu.kernel_time(&out.work, skew) + gpu.transfer_time(bytes);
        if t_gpu > 0.0 && t_cpu > 0.0 {
            ratios.push(t_cpu / t_gpu);
        }
    }
    if ratios.is_empty() {
        return DeviceSplit::cpu_only();
    }
    let gpu_speedup: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;

    // Split proportional to speed: CPU keeps 1/(1+speedup).
    let mut cpu_fraction = 1.0 / (1.0 + gpu_speedup);

    // Memory constraint: the GPU partition (plus working structures, ~2x)
    // must fit device memory. Bytes are judged at simulation scale so a
    // scaled-down stand-in for a billion-edge crawl still exercises the cap.
    let total_bytes = graph.approx_bytes() as f64 * 2.0 * gpu.work_scale;
    let gpu_budget = gpu.mem_bytes as f64;
    let mut memory_limited = false;
    let gpu_share = 1.0 - cpu_fraction;
    if total_bytes * gpu_share > gpu_budget {
        cpu_fraction = 1.0 - (gpu_budget / total_bytes).min(1.0);
        memory_limited = true;
    }
    DeviceSplit {
        cpu_fraction,
        gpu_speedup,
        memory_limited,
    }
}

/// How many rounds of local work a recursion round's fixed cost must be
/// amortised over before recursing pays (empirically, a distributed round
/// removes only a fraction of the edges, so the collective overheads are
/// paid many times before the holding is gone).
const RECURSION_AMORTIZATION_ROUNDS: f64 = 128.0;

/// The recursion-stop threshold in **paper-scale** edges, derived from the
/// platform model instead of the paper's static 100M constant (§4.3.3).
///
/// One more recursion round costs at least an alltoallv (ghost exchange:
/// `p - 1` sequential peer messages under LogGP `o`) plus two tree
/// allreduces (`2⌈log₂ p⌉` hops) of fixed per-message cost
/// `latency + overhead`. The threshold is the edge volume the node's CPU
/// chews through in that collective time, scaled by
/// [`RECURSION_AMORTIZATION_ROUNDS`] because the fixed cost recurs every
/// round of the recursion it triggers. On the AMD cluster at 16 ranks this
/// lands at ~4×10⁷ edges — the paper's order of magnitude — and shrinks on
/// the low-latency Cray Aries fabric, where recursing is cheaper.
pub fn calibrated_recursion_threshold(platform: &NodePlatform, nranks: usize) -> u64 {
    recursion_threshold_for_round_msgs(platform, assumed_round_msgs(nranks))
}

/// The per-rank fixed-cost message count one recursion round is assumed to
/// pay: a dense alltoallv (`p − 1` peer messages) plus two tree allreduces
/// (`2⌈log₂ p⌉` hops). `repro comm-sweep`'s calibration arm validates this
/// against the *measured* per-round message count of the sparse exchange —
/// see `mnd_bench::comm_calibration`, which retired the standing
/// alltoall-sweep item by confirming the assumption is an upper bound once
/// empty buckets stop shipping.
pub fn assumed_round_msgs(nranks: usize) -> f64 {
    let p = nranks.max(2) as f64;
    (p - 1.0) + 2.0 * p.log2().ceil()
}

/// [`calibrated_recursion_threshold`] with an explicit per-round message
/// count, so the threshold can be re-derived from *measured* exchange
/// traffic (the sparse schedule ships fewer messages per round than the
/// dense assumption, lowering the break-even edge volume).
pub fn recursion_threshold_for_round_msgs(platform: &NodePlatform, round_msgs: f64) -> u64 {
    let round_seconds = round_msgs * (platform.network.latency + platform.network.overhead);
    let edges_per_second = platform.cpu.edge_throughput * platform.cpu.efficiency;
    let threshold = round_seconds * edges_per_second * RECURSION_AMORTIZATION_ROUNDS;
    (threshold.ceil() as u64).max(1)
}

/// Deterministic pseudo-random sorted sample of `k` distinct vertices.
fn sample_vertices(n: VertexId, k: usize, seed: u64) -> Vec<VertexId> {
    // Floyd's algorithm over a hash-permuted id space is overkill here;
    // reservoir-free selection: walk ids, keep those whose hash lands under
    // the acceptance threshold, top up deterministically if short.
    let mut keep = Vec::with_capacity(k);
    let threshold = (k as f64 / n as f64 * u64::MAX as f64) as u64;
    for v in 0..n {
        if splitmix64(seed ^ v as u64).wrapping_sub(1) < threshold {
            keep.push(v);
            if keep.len() == k {
                break;
            }
        }
    }
    let mut v = 0;
    while keep.len() < k && v < n {
        if keep.binary_search(&v).is_err() {
            keep.push(v);
            keep.sort_unstable();
        }
        v += 1;
    }
    keep.sort_unstable();
    keep.dedup();
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;

    #[test]
    fn sample_is_sorted_distinct_and_sized() {
        let s = sample_vertices(1000, 50, 7);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&v| v < 1000));
    }

    #[test]
    fn split_favours_gpu_on_big_graphs() {
        // At simulation scale 4096 this 200K-edge graph stands in for an
        // ~800M-edge crawl; 5% samples are then big enough that GPU
        // throughput beats its launch + transfer overheads.
        let g = CsrGraph::from_edge_list(&gen::gnm(20_000, 200_000, 3));
        let split = calibrate_split(
            &g,
            &DeviceModel::cpu_xeon_ivybridge().scaled(4096.0),
            &DeviceModel::gpu_k40().scaled(4096.0),
            5,
            0.05,
            1,
        );
        assert!(split.gpu_speedup > 1.0, "speedup {}", split.gpu_speedup);
        // Pure speed would hand the GPU ~2/3 of the edges, but an
        // ~800M-edge partition exceeds K40 memory, so the cap trims the
        // GPU share (exactly the "GPU memory requirements" clause of
        // §4.3.1) while still keeping the GPU well-used.
        assert!(split.memory_limited);
        assert!(
            split.cpu_fraction < 0.6,
            "cpu_fraction {}",
            split.cpu_fraction
        );
        assert!(split.cpu_fraction > 0.0);
    }

    #[test]
    fn split_uncapped_when_partition_fits() {
        // A 16-node run divides the same crawl: per-node partitions fit the
        // K40 and the split follows speed alone.
        let g = CsrGraph::from_edge_list(&gen::gnm(4_000, 12_000, 3));
        let split = calibrate_split(
            &g,
            &DeviceModel::cpu_xeon_ivybridge().scaled(4096.0),
            &DeviceModel::gpu_k40().scaled(4096.0),
            5,
            0.05,
            1,
        );
        assert!(!split.memory_limited);
        assert!(
            split.cpu_fraction < 0.5,
            "cpu_fraction {}",
            split.cpu_fraction
        );
    }

    #[test]
    fn split_is_deterministic() {
        let g = CsrGraph::from_edge_list(&gen::gnm(5000, 40_000, 9));
        let args = (DeviceModel::cpu_amd_opteron(), DeviceModel::gpu_k40());
        let a = calibrate_split(&g, &args.0, &args.1, 6, 0.05, 42);
        let b = calibrate_split(&g, &args.0, &args.1, 6, 0.05, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_graphs_favour_cpu() {
        // Transfer + launch overheads dominate on a 200-edge graph.
        let g = CsrGraph::from_edge_list(&gen::gnm(100, 200, 5));
        let split = calibrate_split(
            &g,
            &DeviceModel::cpu_xeon_ivybridge(),
            &DeviceModel::gpu_k40(),
            5,
            0.2,
            3,
        );
        assert!(
            split.cpu_fraction > 0.5,
            "cpu_fraction {}",
            split.cpu_fraction
        );
    }

    #[test]
    fn calibrated_threshold_tracks_network_latency() {
        let amd = calibrated_recursion_threshold(&NodePlatform::amd_cluster(), 16);
        let cray = calibrated_recursion_threshold(&NodePlatform::cray_xc40(false), 16);
        // Same order of magnitude as the paper's 100M constant on the
        // commodity cluster ...
        assert!(
            (1_000_000..1_000_000_000).contains(&amd),
            "amd threshold {amd}"
        );
        // ... and smaller on the low-latency Aries fabric (recursing is
        // cheaper there, even with the faster Xeon raising the local rate).
        assert!(cray < amd, "cray {cray} >= amd {amd}");
        // More ranks -> more collective cost -> higher break-even.
        let amd4 = calibrated_recursion_threshold(&NodePlatform::amd_cluster(), 4);
        assert!(amd4 < amd, "amd4 {amd4} >= amd16 {amd}");
        assert!(calibrated_recursion_threshold(&NodePlatform::amd_cluster(), 0) >= 1);
    }

    #[test]
    fn empty_graph_is_cpu_only() {
        let g = CsrGraph::from_edges(0, &[]);
        let split = calibrate_split(
            &g,
            &DeviceModel::cpu_xeon_ivybridge(),
            &DeviceModel::gpu_k40(),
            5,
            0.05,
            1,
        );
        assert_eq!(split, DeviceSplit::cpu_only());
    }
}
