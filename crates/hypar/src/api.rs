//! The HyPar API functions (Table 1 of the paper), node-local side.
//!
//! `partGraph`, `indComp` and `postProcess` are entirely node-local and
//! live here. `mergeParts` has an intra-node half ([`merge_devices`],
//! combining the CPU and GPU results) and an inter-node half (ghost
//! exchange and hierarchical merging) that needs the communicator and is
//! implemented by the `mnd-mst` driver on top of these functions.

use mnd_device::{calibrate_split, DeviceSplit, ExecDevice, NodePlatform};
use mnd_graph::partition::{partition_1d, VertexRange};
use mnd_graph::types::WEdge;
use mnd_graph::CsrGraph;
use mnd_kernels::cgraph::{CGraph, CompId};
use mnd_kernels::policy::ExcpCond;
use mnd_kernels::reduce::{apply_ghost_parents, reduce_holding};

use crate::config::HyParConfig;

/// Result of `partGraph`: the inter-node ranges plus the calibrated
/// intra-node device split.
#[derive(Clone, Debug)]
pub struct NodePartition {
    /// One contiguous vertex range per rank.
    pub ranges: Vec<VertexRange>,
    /// CPU/GPU split within each node (CPU-only when the platform has no
    /// GPU).
    pub split: DeviceSplit,
}

/// `partGraph` (§4.1.1): 1D degree-balanced partitioning across `nranks`
/// nodes, plus the §4.3.1-calibrated CPU/GPU ratio for the node's devices.
pub fn part_graph(
    g: &CsrGraph,
    nranks: usize,
    platform: &NodePlatform,
    cfg: &HyParConfig,
) -> NodePartition {
    let ranges = partition_1d(g, nranks, 0.0);
    let split = match &platform.gpu {
        None => DeviceSplit::cpu_only(),
        Some(gpu) => {
            let cpu = platform.cpu.clone().scaled(cfg.sim_scale);
            let gpu = gpu.clone().scaled(cfg.sim_scale);
            calibrate_split(
                g,
                &cpu,
                &gpu,
                cfg.calibration_samples,
                cfg.calibration_frac,
                cfg.seed,
            )
        }
    };
    NodePartition { ranges, split }
}

/// Result of one node-level `indComp` (possibly across two devices).
#[derive(Clone, Debug, Default)]
pub struct NodeIndComp {
    /// MSF edges contracted on this node.
    pub msf_edges: Vec<WEdge>,
    /// Component renamings this node performed (old → new), for the ghost
    /// messages to other ranks.
    pub relabel: Vec<(CompId, CompId)>,
    /// Simulated compute seconds (devices run simultaneously: the max of
    /// the two device times, plus the intra-node merge sweep).
    pub compute_time: f64,
    /// Simulated CPU↔GPU transfer seconds (not overlapped part).
    pub transfer_time: f64,
    /// Whether the GPU partition was non-empty.
    pub used_gpu: bool,
}

/// `indComp` (§4.1.2): runs Boruvka with `cfg.excp` on the node's holding.
/// With a hybrid platform the holding is first cut into contiguous CPU and
/// GPU sub-partitions by the calibrated ratio, the kernels run
/// "simultaneously" (simulated time = max of the device times), and
/// [`merge_devices`] recombines the results.
pub fn ind_comp(
    cg: &mut CGraph,
    platform: &NodePlatform,
    split: &DeviceSplit,
    cfg: &HyParConfig,
) -> NodeIndComp {
    let mut cpu_dev = ExecDevice::new(platform.cpu.clone().scaled(cfg.sim_scale));
    let gpu_model = platform.gpu.clone().map(|g| g.scaled(cfg.sim_scale));

    // CPU-only path: one kernel invocation on the whole holding. Tiny
    // holdings (late merge levels) skip the GPU — kernel launches and PCIe
    // transfers would outweigh the scan they accelerate.
    let paper_edges = cg.num_edges() as f64 * cfg.sim_scale;
    let gpu_model = match gpu_model {
        Some(g) if split.cpu_fraction < 0.999 && cg.num_resident() >= 2 && paper_edges > 2e6 => g,
        _ => {
            let run = cpu_dev.run_ind_comp(cg, cfg.excp, cfg.freeze, cfg.stop);
            return NodeIndComp {
                msf_edges: run.output.msf_edges,
                relabel: run.output.relabel,
                compute_time: run.kernel_time,
                transfer_time: 0.0,
                used_gpu: false,
            };
        }
    };
    let mut gpu_dev = ExecDevice::new(gpu_model);

    // Contiguous cut of the resident components by incident-edge counts —
    // the CSR-segment split of §3.1 lifted to the component level.
    let gpu_comps = gpu_share_components(cg, split.cpu_fraction);
    let mut gpu_cg = cg.split_off(&gpu_comps);

    let cpu_run = cpu_dev.run_ind_comp(cg, cfg.excp, cfg.freeze, cfg.stop);
    let gpu_run = gpu_dev.run_ind_comp(&mut gpu_cg, cfg.excp, cfg.freeze, cfg.stop);

    let mut out = NodeIndComp {
        msf_edges: Vec::new(),
        relabel: Vec::new(),
        compute_time: cpu_run.kernel_time.max(gpu_run.kernel_time),
        transfer_time: gpu_run.transfer_time,
        used_gpu: true,
    };
    out.msf_edges.extend(cpu_run.output.msf_edges);
    out.msf_edges.extend(gpu_run.output.msf_edges);
    out.relabel.extend(cpu_run.output.relabel.iter().copied());
    out.relabel.extend(gpu_run.output.relabel.iter().copied());

    // Intra-node mergeParts: exchange "ghost parents" between the devices
    // (free: same memory) and recombine.
    let merge_sweep = merge_devices(cg, gpu_cg, &cpu_run.output.relabel, &gpu_run.output.relabel);
    // The merge sweep runs on the CPU.
    out.compute_time += cpu_dev.model.kernel_time(
        &mnd_kernels::policy::WorkProfile {
            iters: vec![mnd_kernels::policy::IterWork {
                active_components: cg.num_resident() as u64,
                edges_scanned: merge_sweep,
                unions: 0,
            }],
        },
        0.0,
    );
    // "The components are then merged in one of the devices" (§3.5): the
    // merging device finishes the contraction the device border blocked,
    // so a hybrid node reaches the same intra-node fixpoint a CPU-only
    // node would. The pass runs over the (already reduced) residual, and
    // its data-driven worklist is seeded from the device-border components
    // only — so its first sweep is charged for the frozen-incident
    // fraction of edges, not the whole residual.
    let frozen: std::collections::HashSet<CompId> = cg.frozen().iter().copied().collect();
    let frozen_fraction = if cg.num_edges() == 0 {
        0.0
    } else {
        cg.iter_edges()
            .filter(|e| frozen.contains(&e.a) || frozen.contains(&e.b))
            .count() as f64
            / cg.num_edges() as f64
    };
    cg.clear_frozen();
    let finish = cpu_dev.run_ind_comp(cg, cfg.excp, cfg.freeze, cfg.stop);
    let mut charged = finish.output.work.clone();
    if let Some(first) = charged.iters.first_mut() {
        first.edges_scanned = (first.edges_scanned as f64 * frozen_fraction).ceil() as u64;
    }
    out.compute_time += cpu_dev.model.kernel_time(&charged, 0.0);
    out.msf_edges.extend(finish.output.msf_edges);
    // Compose the earlier device renames with the finishing pass's.
    let finish_map: std::collections::HashMap<CompId, CompId> =
        finish.output.relabel.iter().copied().collect();
    for (_, new) in out.relabel.iter_mut() {
        if let Some(&n2) = finish_map.get(new) {
            *new = n2;
        }
    }
    out.relabel.extend(finish.output.relabel.iter().copied());
    out
}

/// Picks the suffix of the holding's resident components that carries
/// `1 - cpu_fraction` of the incident edges (the GPU's contiguous share).
/// Uses the holding's reusable incident-count column instead of
/// rebuilding a hash map per call.
fn gpu_share_components(cg: &mut CGraph, cpu_fraction: f64) -> Vec<CompId> {
    let resident: Vec<CompId> = cg.resident().to_vec();
    let counts = cg.incident_counts();
    let total: u64 = counts.iter().sum();
    let gpu_target = (total as f64 * (1.0 - cpu_fraction)).round() as u64;
    let mut acc = 0u64;
    let mut take = Vec::new();
    for i in (0..resident.len()).rev() {
        if acc >= gpu_target {
            break;
        }
        acc += counts[i];
        take.push(resident[i]);
    }
    take.sort_unstable();
    take
}

/// Intra-node `mergeParts`: applies each device's component renames to the
/// other device's ghost endpoints, absorbs the GPU holding into the CPU
/// one, and clears device-border freezes (the border vanished). Returns
/// the number of GPU-side edges folded back in, for the cost model — the
/// merge itself touches only the downloaded device results (the big
/// whole-holding reduction sweep is a separate `mergeParts` step and is
/// charged by the driver).
pub fn merge_devices(
    cpu_cg: &mut CGraph,
    mut gpu_cg: CGraph,
    cpu_relabel: &[(CompId, CompId)],
    gpu_relabel: &[(CompId, CompId)],
) -> u64 {
    let swept = gpu_cg.num_edges() as u64;
    apply_ghost_parents(&mut gpu_cg, cpu_relabel);
    apply_ghost_parents(cpu_cg, gpu_relabel);
    cpu_cg.absorb(gpu_cg);
    reduce_holding(cpu_cg);
    // Note: device-border freeze marks are left in place — `ind_comp`
    // reads them to seed (and price) the finishing pass, then clears them
    // there. Clearing is safe because the border is gone; the next
    // invocation re-freezes anything still blocked (see DESIGN.md §5).
    swept
}

/// `postProcess` (§4.1.4): runs the final whole-holding Boruvka (no
/// exception condition) on whichever device the model predicts faster for
/// this holding, returning the MSF edges and the simulated time.
pub fn post_process(
    cg: &mut CGraph,
    platform: &NodePlatform,
    cfg: &HyParConfig,
) -> (Vec<WEdge>, f64) {
    use mnd_kernels::policy::{FreezePolicy, StopPolicy};
    cg.clear_frozen();
    // Estimate both devices on a proxy profile (one sweep over all edges)
    // and pick the cheaper — "runs the algorithm on one of the devices".
    let proxy = mnd_kernels::policy::WorkProfile {
        iters: vec![mnd_kernels::policy::IterWork {
            active_components: cg.num_resident() as u64,
            edges_scanned: cg.num_edges() as u64,
            unions: 0,
        }],
    };
    let skew = ExecDevice::holding_skew(cg);
    let cpu_model = platform.cpu.clone().scaled(cfg.sim_scale);
    let t_cpu = cpu_model.kernel_time(&proxy, skew);
    let pick_gpu = platform
        .gpu
        .as_ref()
        .map(|g| {
            let gm = g.clone().scaled(cfg.sim_scale);
            gm.kernel_time(&proxy, skew) + gm.transfer_time(cg.approx_bytes() as u64) < t_cpu
        })
        .unwrap_or(false);
    let model = if pick_gpu {
        platform
            .gpu
            .clone()
            .expect("pick_gpu implies gpu")
            .scaled(cfg.sim_scale)
    } else {
        cpu_model
    };
    let mut dev = ExecDevice::new(model);
    let run = dev.run_ind_comp(
        cg,
        ExcpCond::None,
        FreezePolicy::Sticky,
        StopPolicy::Exhaustive,
    );
    (run.output.msf_edges, run.kernel_time + run.transfer_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnd_graph::gen;
    use mnd_kernels::oracle::kruskal_msf;

    fn cfg() -> HyParConfig {
        // sim_scale large enough that test graphs clear the GPU's
        // minimum-size guard.
        HyParConfig {
            stop: mnd_kernels::policy::StopPolicy::Exhaustive,
            ..Default::default()
        }
        .with_sim_scale(4096.0)
    }

    #[test]
    fn part_graph_covers_and_calibrates() {
        let el = gen::gnm(2000, 10_000, 1);
        let g = CsrGraph::from_edge_list(&el);
        let p = part_graph(&g, 4, &NodePlatform::cray_xc40(true), &cfg());
        assert_eq!(p.ranges.len(), 4);
        assert_eq!(p.ranges.last().unwrap().end, 2000);
        assert!(p.split.cpu_fraction < 1.0);
        let p2 = part_graph(&g, 4, &NodePlatform::amd_cluster(), &cfg());
        assert_eq!(p2.split, DeviceSplit::cpu_only());
    }

    #[test]
    fn hybrid_ind_comp_on_whole_graph_finds_full_msf() {
        // Whole graph on one node split across CPU+GPU, then merged and
        // post-processed: must equal Kruskal exactly.
        let el = gen::gnm(500, 2500, 7);
        let oracle = kruskal_msf(&el);
        let platform = NodePlatform::cray_xc40(true);
        let config = cfg();
        let mut cg = CGraph::from_edge_list(&el);
        let split = DeviceSplit {
            cpu_fraction: 0.4,
            gpu_speedup: 1.5,
            memory_limited: false,
        };
        let mut msf = Vec::new();
        let run = ind_comp(&mut cg, &platform, &split, &config);
        assert!(run.used_gpu);
        msf.extend(run.msf_edges);
        // Device borders froze some components; post-process finishes.
        let (rest, _) = post_process(&mut cg, &platform, &config);
        msf.extend(rest);
        let result = mnd_kernels::msf::MsfResult::from_edges(500, msf);
        assert_eq!(result, oracle);
    }

    #[test]
    fn cpu_only_ind_comp_matches_oracle_with_postprocess() {
        let el = gen::watts_strogatz(300, 6, 0.2, 3);
        let oracle = kruskal_msf(&el);
        let platform = NodePlatform::amd_cluster();
        let config = cfg();
        let mut cg = CGraph::from_edge_list(&el);
        let run = ind_comp(&mut cg, &platform, &DeviceSplit::cpu_only(), &config);
        assert!(!run.used_gpu);
        let mut msf = run.msf_edges;
        let (rest, _) = post_process(&mut cg, &platform, &config);
        msf.extend(rest);
        assert_eq!(mnd_kernels::msf::MsfResult::from_edges(300, msf), oracle);
    }

    #[test]
    fn hybrid_times_reflect_simultaneity() {
        let el = gen::gnm(2000, 12_000, 9);
        let platform = NodePlatform::cray_xc40(true);
        let config = cfg();
        let split = DeviceSplit {
            cpu_fraction: 0.5,
            gpu_speedup: 1.0,
            memory_limited: false,
        };
        let mut cg = CGraph::from_edge_list(&el);
        let run = ind_comp(&mut cg, &platform, &split, &config);
        // Sanity: simultaneous execution cannot be slower than the sum of
        // two serial halves at equal split (very loose bound).
        assert!(run.compute_time > 0.0);
        assert!(run.transfer_time >= 0.0);
    }

    #[test]
    fn gpu_share_respects_fraction() {
        let el = gen::gnm(1000, 5000, 11);
        let mut cg = CGraph::from_edge_list(&el);
        let take = gpu_share_components(&mut cg, 0.75);
        // Roughly a quarter of incident edges -> roughly a quarter of
        // uniform-degree components.
        let frac = take.len() as f64 / cg.num_resident() as f64;
        assert!((0.15..0.40).contains(&frac), "got {frac}");
        // Contiguous suffix.
        let min_take = *take.first().unwrap();
        assert!(cg
            .resident()
            .iter()
            .all(|c| take.contains(c) == (*c >= min_take)));
    }

    #[test]
    fn post_process_picks_a_device_and_finishes() {
        let el = gen::rmat(512, 4096, gen::RmatProbs::GRAPH500, 5);
        let oracle = kruskal_msf(&el);
        let mut cg = CGraph::from_edge_list(&el);
        let (msf, t) = post_process(&mut cg, &NodePlatform::cray_xc40(true), &cfg());
        assert!(t > 0.0);
        assert_eq!(mnd_kernels::msf::MsfResult::from_edges(512, msf), oracle);
    }
}
