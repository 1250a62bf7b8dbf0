//! One function per paper table/figure (and per ablation). Each returns
//! structured rows; the `repro` binary formats them.

use std::collections::BTreeMap;
use std::sync::Arc;

use mnd::engines::{registry, EngineParams};
use mnd_chaos::FaultPlan;
use mnd_device::{calibrate_split, NodePlatform};
use mnd_engine::{Engine, EngineChaos};
use mnd_graph::gen::GeoPreset;
use mnd_graph::presets::Preset;
use mnd_graph::stats::graph_stats;
use mnd_graph::types::{VertexId, WEdge, Weight};
use mnd_graph::{CsrGraph, EdgeList};
use mnd_hypar::observe::ObserverHook;
use mnd_hypar::HyParConfig;
use mnd_kernels::oracle::kruskal_msf;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};
use mnd_mst::{MndMstReport, MndMstRunner};
use mnd_net::Tag;
use mnd_pregel::{pregel_msf, BspConfig, PregelReport};
use mnd_serve::{
    EngineBackend, JobKind, JobResult, JobSpec, ServeConfig, ServePlane, ServeReport, TenantSpec,
    UpdateMode,
};
use mnd_spmsf::SpmsfEngine;

/// Shared experiment parameters.
#[derive(Clone, Debug)]
pub struct ExpContext {
    /// Scale divisor: stand-ins are `1/scale` of the paper's graphs, and
    /// simulated costs are scaled back up by the same factor.
    pub scale: u64,
    /// Generator seed.
    pub seed: u64,
    /// Verify every distributed MSF against the Kruskal oracle (on by
    /// default; the harness refuses to time incorrect runs).
    pub verify: bool,
    /// Optional observer attached to every MND run's config — the
    /// `--trace` plumbing (see [`crate::trace`]). Unset by default.
    pub observer: ObserverHook,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext {
            scale: crate::DEFAULT_SCALE,
            seed: 42,
            verify: true,
            observer: ObserverHook::none(),
        }
    }
}

impl ExpContext {
    /// Generates the scaled stand-in for a preset.
    pub fn graph(&self, p: Preset) -> EdgeList {
        p.generate(self.scale, self.seed)
    }

    /// HyPar config carrying the simulation scale (and the context's
    /// observer, when one is attached).
    pub fn hypar(&self) -> HyParConfig {
        let mut cfg = HyParConfig::default().with_sim_scale(self.scale as f64);
        cfg.observer = self.observer.clone();
        cfg
    }

    /// BSP config carrying the simulation scale.
    pub fn bsp(&self) -> BspConfig {
        BspConfig::default().with_sim_scale(self.scale as f64)
    }

    fn check_mnd(&self, el: &EdgeList, r: &MndMstReport, what: &str) {
        if self.verify {
            let oracle = kruskal_msf(el);
            assert_eq!(r.msf, oracle, "{what}: MND-MST result != oracle");
        }
    }

    fn check_bsp(&self, el: &EdgeList, r: &PregelReport, what: &str) {
        if self.verify {
            let oracle = kruskal_msf(el);
            assert_eq!(r.msf, oracle, "{what}: BSP result != oracle");
        }
    }
}

/// Runs MND-MST (verified) and returns the report.
pub fn run_mnd(
    ctx: &ExpContext,
    el: &EdgeList,
    nranks: usize,
    platform: NodePlatform,
    cfg: HyParConfig,
) -> MndMstReport {
    let r = MndMstRunner::new(nranks)
        .with_platform(platform)
        .with_config(cfg)
        .run(el);
    ctx.check_mnd(el, &r, "run_mnd");
    r
}

/// Runs the BSP baseline (verified) and returns the report.
pub fn run_bsp(ctx: &ExpContext, el: &EdgeList, nranks: usize) -> PregelReport {
    let r = pregel_msf(el, nranks, &NodePlatform::amd_cluster(), &ctx.bsp());
    ctx.check_bsp(el, &r, "run_bsp");
    r
}

// --------------------------------------------------------------------- //
// Table 2: graph specifications
// --------------------------------------------------------------------- //

/// One row of our Table 2 analogue.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Graph name.
    pub graph: &'static str,
    /// Stand-in vertices / edges.
    pub vertices: u64,
    /// Stand-in edge count.
    pub edges: u64,
    /// Stand-in avg degree.
    pub avg_degree: f64,
    /// Stand-in max degree.
    pub max_degree: u64,
    /// Stand-in approximate diameter.
    pub diameter: u64,
    /// Paper-reported avg degree (for comparison).
    pub paper_avg_degree: f64,
}

/// Regenerates Table 2 (graph specifications) for the scaled stand-ins.
pub fn table2(ctx: &ExpContext) -> Vec<Table2Row> {
    Preset::ALL
        .iter()
        .map(|&p| {
            let el = ctx.graph(p);
            let g = CsrGraph::from_edge_list(&el);
            let s = graph_stats(&g, 2, ctx.seed);
            Table2Row {
                graph: p.name(),
                vertices: s.num_vertices,
                edges: s.num_edges,
                avg_degree: s.avg_degree,
                max_degree: s.max_degree,
                diameter: s.approx_diameter,
                paper_avg_degree: p.paper_row().avg_degree,
            }
        })
        .collect()
}

// --------------------------------------------------------------------- //
// Table 3: Pregel+ vs MND-MST on 16 nodes (AMD cluster, CPU only)
// --------------------------------------------------------------------- //

/// One row of Table 3.
#[derive(Clone, Debug)]
pub struct Table3Row {
    /// Graph name.
    pub graph: &'static str,
    /// BSP execution time (simulated seconds, paper scale).
    pub pregel_exe: f64,
    /// BSP communication time.
    pub pregel_comm: f64,
    /// MND-MST execution time.
    pub mnd_exe: f64,
    /// MND-MST communication time.
    pub mnd_comm: f64,
}

impl Table3Row {
    /// Performance improvement of MND-MST over the BSP baseline
    /// (the paper's 24–88%).
    pub fn improvement(&self) -> f64 {
        1.0 - self.mnd_exe / self.pregel_exe
    }

    /// Communication-time reduction (the paper's 40–92%).
    pub fn comm_reduction(&self) -> f64 {
        1.0 - self.mnd_comm / self.pregel_comm
    }
}

/// Regenerates Table 3 on `nranks` (paper: 16) AMD nodes.
pub fn table3(ctx: &ExpContext, nranks: usize) -> Vec<Table3Row> {
    Preset::ALL
        .iter()
        .map(|&p| {
            let el = ctx.graph(p);
            let bsp = run_bsp(ctx, &el, nranks);
            let mnd = run_mnd(ctx, &el, nranks, NodePlatform::amd_cluster(), ctx.hypar());
            Table3Row {
                graph: p.name(),
                pregel_exe: bsp.total_time,
                pregel_comm: bsp.comm_time,
                mnd_exe: mnd.total_time,
                mnd_comm: mnd.comm_time,
            }
        })
        .collect()
}

// --------------------------------------------------------------------- //
// Table 4 + Figure 4: node scaling, MND-MST vs Pregel+
// --------------------------------------------------------------------- //

/// A (graph, nodes) scaling measurement.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Graph name.
    pub graph: &'static str,
    /// Node count.
    pub nodes: usize,
    /// MND-MST execution time.
    pub mnd_exe: f64,
    /// BSP execution time, when measured (`None` for MND-only sweeps).
    pub pregel_exe: Option<f64>,
}

/// The node counts the paper sweeps.
pub const NODE_COUNTS: [usize; 4] = [1, 4, 8, 16];

/// Regenerates Table 4 (MND-MST times for arabic-2005 and it-2004 at
/// 1/4/8/16 AMD nodes).
pub fn table4(ctx: &ExpContext) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for p in [Preset::Arabic2005, Preset::It2004] {
        let el = ctx.graph(p);
        for nodes in NODE_COUNTS {
            let mnd = run_mnd(ctx, &el, nodes, NodePlatform::amd_cluster(), ctx.hypar());
            rows.push(ScalingRow {
                graph: p.name(),
                nodes,
                mnd_exe: mnd.total_time,
                pregel_exe: None,
            });
        }
    }
    rows
}

/// Regenerates Figure 4 (inter-node scalability, Pregel+ vs MND-MST, for
/// arabic-2005 and it-2004).
pub fn fig4(ctx: &ExpContext) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for p in [Preset::Arabic2005, Preset::It2004] {
        let el = ctx.graph(p);
        for nodes in NODE_COUNTS {
            let mnd = run_mnd(ctx, &el, nodes, NodePlatform::amd_cluster(), ctx.hypar());
            let bsp = run_bsp(ctx, &el, nodes);
            rows.push(ScalingRow {
                graph: p.name(),
                nodes,
                mnd_exe: mnd.total_time,
                pregel_exe: Some(bsp.total_time),
            });
        }
    }
    rows
}

// --------------------------------------------------------------------- //
// Figure 5: computation vs communication split
// --------------------------------------------------------------------- //

/// Computation/communication split for one (system, graph, nodes) cell.
#[derive(Clone, Debug)]
pub struct CompCommRow {
    /// Graph name.
    pub graph: &'static str,
    /// Node count.
    pub nodes: usize,
    /// System name ("pregel+" or "mnd-mst").
    pub system: &'static str,
    /// Computation seconds (max across ranks).
    pub comp: f64,
    /// Communication seconds (max across ranks).
    pub comm: f64,
}

impl CompCommRow {
    /// Fraction of time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        if self.comp + self.comm == 0.0 {
            0.0
        } else {
            self.comm / (self.comp + self.comm)
        }
    }
}

/// Regenerates Figure 5 for arabic-2005 and it-2004.
pub fn fig5(ctx: &ExpContext) -> Vec<CompCommRow> {
    let mut rows = Vec::new();
    for p in [Preset::Arabic2005, Preset::It2004] {
        let el = ctx.graph(p);
        for nodes in [4usize, 8, 16] {
            let bsp = run_bsp(ctx, &el, nodes);
            let bsp_comp = bsp
                .rank_stats
                .iter()
                .map(|s| s.compute_time)
                .fold(0.0, f64::max);
            rows.push(CompCommRow {
                graph: p.name(),
                nodes,
                system: "pregel+",
                comp: bsp_comp,
                comm: bsp.comm_time,
            });
            let mnd = run_mnd(ctx, &el, nodes, NodePlatform::amd_cluster(), ctx.hypar());
            let mnd_comp = mnd
                .rank_stats
                .iter()
                .map(|s| s.compute_time)
                .fold(0.0, f64::max);
            rows.push(CompCommRow {
                graph: p.name(),
                nodes,
                system: "mnd-mst",
                comp: mnd_comp,
                comm: mnd.comm_time,
            });
        }
    }
    rows
}

// --------------------------------------------------------------------- //
// Figure 6: CPU-only MND-MST scalability on the Cray
// --------------------------------------------------------------------- //

/// Regenerates Figure 6: all six graphs, 1/4/8/16 Cray nodes, CPU only.
/// Graphs whose per-node data exceeds node memory at one node are skipped
/// there (the paper "could not accommodate the last two graphs in a single
/// node").
pub fn fig6(ctx: &ExpContext) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    let platform = NodePlatform::cray_xc40(false);
    for &p in Preset::ALL.iter() {
        let el = ctx.graph(p);
        let paper_bytes = el.len() as u64 * 20 * ctx.scale;
        for nodes in NODE_COUNTS {
            if paper_bytes / nodes as u64 > platform.cpu.mem_bytes {
                continue; // would not fit, like sk-2005/uk-2007 on 1 node
            }
            let mnd = run_mnd(ctx, &el, nodes, platform.clone(), ctx.hypar());
            rows.push(ScalingRow {
                graph: p.name(),
                nodes,
                mnd_exe: mnd.total_time,
                pregel_exe: None,
            });
        }
    }
    rows
}

// --------------------------------------------------------------------- //
// Figure 7: phase breakdown
// --------------------------------------------------------------------- //

/// Phase breakdown for one (graph, nodes) cell.
#[derive(Clone, Debug)]
pub struct PhaseRow {
    /// Graph name.
    pub graph: &'static str,
    /// Node count.
    pub nodes: usize,
    /// indComp seconds (max across ranks).
    pub ind_comp: f64,
    /// Merge/reduction seconds.
    pub merge: f64,
    /// postProcess seconds.
    pub post_process: f64,
    /// Communication seconds.
    pub comm: f64,
}

/// Regenerates Figure 7 (phase times) for the paper's three featured
/// graphs: road_usa, gsh-2015-tpd and uk-2007.
pub fn fig7(ctx: &ExpContext) -> Vec<PhaseRow> {
    let platform = NodePlatform::cray_xc40(false);
    let mut rows = Vec::new();
    for p in [Preset::RoadUsa, Preset::Gsh2015Tpd, Preset::Uk2007] {
        let el = ctx.graph(p);
        let paper_bytes = el.len() as u64 * 20 * ctx.scale;
        for nodes in NODE_COUNTS {
            if paper_bytes / nodes as u64 > platform.cpu.mem_bytes {
                continue;
            }
            let mnd = run_mnd(ctx, &el, nodes, platform.clone(), ctx.hypar());
            let pm = mnd.phase_max();
            rows.push(PhaseRow {
                graph: p.name(),
                nodes,
                ind_comp: pm.ind_comp,
                merge: pm.merge,
                post_process: pm.post_process,
                comm: pm.comm,
            });
        }
    }
    rows
}

// --------------------------------------------------------------------- //
// Figure 8: CPU-only vs CPU-GPU scalability
// --------------------------------------------------------------------- //

/// CPU-only vs CPU+GPU comparison cell.
#[derive(Clone, Debug)]
pub struct HybridRow {
    /// Graph name.
    pub graph: &'static str,
    /// Node count.
    pub nodes: usize,
    /// CPU-only execution time.
    pub cpu_only: f64,
    /// CPU+GPU execution time.
    pub cpu_gpu: f64,
}

impl HybridRow {
    /// GPU benefit (paper: up to 23%, average 9%).
    pub fn improvement(&self) -> f64 {
        1.0 - self.cpu_gpu / self.cpu_only
    }
}

/// Regenerates Figure 8 for it-2004, sk-2005 and uk-2007 on the Cray.
pub fn fig8(ctx: &ExpContext) -> Vec<HybridRow> {
    let mut rows = Vec::new();
    for p in [Preset::It2004, Preset::Sk2005, Preset::Uk2007] {
        let el = ctx.graph(p);
        let cpu_plat = NodePlatform::cray_xc40(false);
        let paper_bytes = el.len() as u64 * 20 * ctx.scale;
        for nodes in NODE_COUNTS {
            if paper_bytes / nodes as u64 > cpu_plat.cpu.mem_bytes {
                continue;
            }
            let cpu = run_mnd(ctx, &el, nodes, cpu_plat.clone(), ctx.hypar());
            let gpu = run_mnd(ctx, &el, nodes, NodePlatform::cray_xc40(true), ctx.hypar());
            rows.push(HybridRow {
                graph: p.name(),
                nodes,
                cpu_only: cpu.total_time,
                cpu_gpu: gpu.total_time,
            });
        }
    }
    rows
}

// --------------------------------------------------------------------- //
// Ablations
// --------------------------------------------------------------------- //

/// Time for one configuration variant.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Execution time.
    pub exe: f64,
    /// Communication time.
    pub comm: f64,
    /// Exchange rounds (where meaningful).
    pub rounds: usize,
}

/// §3.4 group-size study (paper tried 2/4/8/16 and chose 4).
pub fn ablation_group(ctx: &ExpContext, nranks: usize) -> Vec<AblationRow> {
    let el = ctx.graph(Preset::Arabic2005);
    [2usize, 4, 8, 16]
        .iter()
        .map(|&gs| {
            let cfg = HyParConfig {
                group_size: gs,
                ..ctx.hypar()
            };
            let r = run_mnd(ctx, &el, nranks, NodePlatform::amd_cluster(), cfg);
            AblationRow {
                variant: format!("group_size={gs}"),
                exe: r.total_time,
                comm: r.comm_time,
                rounds: r.exchange_rounds,
            }
        })
        .collect()
}

/// §4.1.2 exception-condition study: border-edge vs border-vertex, sticky
/// vs recheck freezing.
pub fn ablation_excp(ctx: &ExpContext, nranks: usize) -> Vec<AblationRow> {
    let el = ctx.graph(Preset::Arabic2005);
    let variants: [(&str, ExcpCond, FreezePolicy); 3] = [
        (
            "border-edge/sticky",
            ExcpCond::BorderEdge,
            FreezePolicy::Sticky,
        ),
        (
            "border-edge/recheck",
            ExcpCond::BorderEdge,
            FreezePolicy::Recheck,
        ),
        (
            "border-vertex/sticky",
            ExcpCond::BorderVertex,
            FreezePolicy::Sticky,
        ),
    ];
    variants
        .iter()
        .map(|&(name, excp, freeze)| {
            let cfg = HyParConfig {
                excp,
                freeze,
                ..ctx.hypar()
            };
            let r = run_mnd(ctx, &el, nranks, NodePlatform::amd_cluster(), cfg);
            AblationRow {
                variant: name.to_string(),
                exe: r.total_time,
                comm: r.comm_time,
                rounds: r.exchange_rounds,
            }
        })
        .collect()
}

/// §4.3.2/§4.3.3 runtime-threshold study: diminishing-benefit stop on/off
/// and recursion on/off, plus the BSP baseline's own optimisation toggles.
pub fn ablation_thresh(ctx: &ExpContext, nranks: usize) -> Vec<AblationRow> {
    let el = ctx.graph(Preset::Arabic2005);
    let mut rows = Vec::new();
    for (name, stop) in [
        (
            "stop=diminishing(5%)",
            StopPolicy::DiminishingBenefit {
                min_improvement: 0.05,
            },
        ),
        ("stop=exhaustive", StopPolicy::Exhaustive),
    ] {
        let cfg = HyParConfig {
            stop,
            ..ctx.hypar()
        };
        let r = run_mnd(ctx, &el, nranks, NodePlatform::amd_cluster(), cfg);
        rows.push(AblationRow {
            variant: name.to_string(),
            exe: r.total_time,
            comm: r.comm_time,
            rounds: r.exchange_rounds,
        });
    }
    for (name, threshold) in [
        ("recursion=on (100M edges, §4.3.3)", 100_000_000u64),
        ("recursion=off", u64::MAX),
        ("recursion=always", 1),
    ] {
        let cfg = HyParConfig {
            recursion_edge_threshold: threshold,
            ..ctx.hypar()
        };
        let r = run_mnd(ctx, &el, nranks, NodePlatform::amd_cluster(), cfg);
        rows.push(AblationRow {
            variant: name.to_string(),
            exe: r.total_time,
            comm: r.comm_time,
            rounds: r.exchange_rounds,
        });
    }
    for (name, combine, mirror) in [
        ("bsp full (combine+mirror)", true, Some(128)),
        ("bsp no-mirror", true, None),
        ("bsp no-combine", false, Some(128)),
    ] {
        let bsp_cfg = BspConfig {
            combine,
            mirror_threshold: mirror,
            ..ctx.bsp()
        };
        let r = pregel_msf(&el, nranks, &NodePlatform::amd_cluster(), &bsp_cfg);
        ctx.check_bsp(&el, &r, name);
        rows.push(AblationRow {
            variant: name.to_string(),
            exe: r.total_time,
            comm: r.comm_time,
            rounds: r.supersteps as usize,
        });
    }
    rows
}

/// Weight-distribution robustness: does the MND-MST vs BSP comparison
/// (and correctness) survive skewed, tied, and degree-correlated weights?
/// The paper assigns unspecified "random weights"; this shows the choice
/// does not drive the result.
pub fn ablation_weights(ctx: &ExpContext, nranks: usize) -> Vec<AblationRow> {
    use mnd_graph::weights::{assign_weights, ALL_DISTRIBUTIONS};
    let base = ctx.graph(Preset::Arabic2005);
    ALL_DISTRIBUTIONS
        .iter()
        .map(|&(name, dist)| {
            let mut el = base.clone();
            assign_weights(&mut el, dist, ctx.seed);
            let mnd = run_mnd(ctx, &el, nranks, NodePlatform::amd_cluster(), ctx.hypar());
            let bsp = run_bsp(ctx, &el, nranks);
            AblationRow {
                variant: format!(
                    "{name} (vs BSP: {:.0}% faster)",
                    100.0 * (1.0 - mnd.total_time / bsp.total_time)
                ),
                exe: mnd.total_time,
                comm: mnd.comm_time,
                rounds: mnd.exchange_rounds,
            }
        })
        .collect()
}

/// §3.1 locality ablation: the same graph with (a) its natural vertex
/// order, (b) scrambled ids (locality destroyed), and (c) scrambled then
/// BFS-relabelled (locality partially restored). Demonstrates *causally*
/// that MND-MST's advantage rides on 1D locality, the paper's premise for
/// contiguous partitioning.
pub fn ablation_locality(ctx: &ExpContext, nranks: usize) -> Vec<AblationRow> {
    use mnd_graph::presets::scramble_ids;
    use mnd_graph::transform::bfs_relabel;
    let base = ctx.graph(Preset::Arabic2005);
    let scrambled = scramble_ids(&base, ctx.seed ^ 0xBEEF);
    let restored = bfs_relabel(&scrambled);
    [
        ("natural order", &base),
        ("scrambled ids", &scrambled),
        ("bfs-relabelled", &restored),
    ]
    .into_iter()
    .map(|(name, el)| {
        let r = run_mnd(ctx, el, nranks, NodePlatform::amd_cluster(), ctx.hypar());
        AblationRow {
            variant: format!(
                "{name} (cut@{nranks}: {:.0}%)",
                100.0 * mnd_graph::gen::cut_fraction(el, nranks as u32)
            ),
            exe: r.total_time,
            comm: r.comm_time,
            rounds: r.exchange_rounds,
        }
    })
    .collect()
}

/// Interconnect sensitivity: the same MND-MST run over Ethernet, Aries,
/// and a 10x-degraded network — how much of the divide-and-conquer win
/// survives a slow fabric (all of it should: the design minimises rounds).
pub fn ablation_network(ctx: &ExpContext, nranks: usize) -> Vec<AblationRow> {
    use mnd_net::CostModel;
    let el = ctx.graph(Preset::Arabic2005);
    let slow = CostModel {
        latency: 500e-6,
        bandwidth: 0.1e9,
        overhead: 50e-6,
        byte_scale: 1.0,
    };
    [
        (
            "gigabit ethernet (AMD cluster)",
            CostModel::default_cluster(),
        ),
        ("cray aries", CostModel::cray_aries()),
        ("10x degraded network", slow),
    ]
    .into_iter()
    .map(|(name, network)| {
        let mut platform = NodePlatform::amd_cluster();
        platform.network = network;
        let r = run_mnd(ctx, &el, nranks, platform, ctx.hypar());
        AblationRow {
            variant: name.to_string(),
            exe: r.total_time,
            comm: r.comm_time,
            rounds: r.exchange_rounds,
        }
    })
    .collect()
}

/// §4.3.1 calibration report per graph.
#[derive(Clone, Debug)]
pub struct CalibrationRow {
    /// Graph name.
    pub graph: &'static str,
    /// Average GPU:CPU speed ratio over the samples.
    pub gpu_speedup: f64,
    /// CPU share of the intra-node partition.
    pub cpu_fraction: f64,
    /// Whether GPU memory clipped the split.
    pub memory_limited: bool,
}

/// Regenerates the §4.3.1 calibration table for all presets.
pub fn calibration(ctx: &ExpContext) -> Vec<CalibrationRow> {
    let plat = NodePlatform::cray_xc40(true);
    Preset::ALL
        .iter()
        .map(|&p| {
            let el = ctx.graph(p);
            let g = CsrGraph::from_edge_list(&el);
            let cfg = ctx.hypar();
            let split = calibrate_split(
                &g,
                &plat.cpu.clone().scaled(cfg.sim_scale),
                &plat.gpu.clone().expect("cray gpu").scaled(cfg.sim_scale),
                cfg.calibration_samples,
                cfg.calibration_frac,
                cfg.seed,
            );
            CalibrationRow {
                graph: p.name(),
                gpu_speedup: split.gpu_speedup,
                cpu_fraction: split.cpu_fraction,
                memory_limited: split.memory_limited,
            }
        })
        .collect()
}

// --------------------------------------------------------------------- //
// Chaos: fault-plane overhead sweep
// --------------------------------------------------------------------- //

/// Runs MND-MST under a fault plan (message faults + phase-level chaos),
/// verified against the oracle — a chaotic run must still produce the
/// exact MSF.
pub fn run_mnd_chaos(
    ctx: &ExpContext,
    el: &EdgeList,
    nranks: usize,
    platform: NodePlatform,
    plan: Arc<FaultPlan>,
) -> MndMstReport {
    run_mnd_chaos_cfg(ctx, el, nranks, platform, ctx.hypar(), plan)
}

/// [`run_mnd_chaos`] with an explicit base config, so sweeps can combine a
/// fault plan with non-default communication knobs (sparse/dense exchange,
/// compression, filter sampling).
pub fn run_mnd_chaos_cfg(
    ctx: &ExpContext,
    el: &EdgeList,
    nranks: usize,
    platform: NodePlatform,
    cfg: HyParConfig,
    plan: Arc<FaultPlan>,
) -> MndMstReport {
    let cfg = cfg.with_chaos(plan.clone());
    let r = MndMstRunner::new(nranks)
        .with_platform(platform)
        .with_config(cfg)
        .with_fault_injector(plan)
        .run(el);
    ctx.check_mnd(el, &r, "run_mnd_chaos");
    r
}

/// One row of the chaos sweep.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Fault-plan label.
    pub plan: String,
    /// Execution time under faults (simulated seconds, paper scale).
    pub exe: f64,
    /// Slowdown relative to the fault-free run (`exe/baseline - 1`).
    pub overhead: f64,
    /// Total forced retransmissions across ranks.
    pub retries: u64,
    /// Total discarded duplicate arrivals across ranks.
    pub redeliveries: u64,
    /// Total checkpoint restores (injected crashes recovered).
    pub restores: u64,
    /// Total virtual seconds lost to injected stalls.
    pub stall: f64,
    /// Compute seconds re-executed during rollback recovery (charged).
    pub replayed_compute: f64,
    /// Inbound bytes served from replay logs (not re-charged).
    pub replayed_in_bytes: u64,
}

/// The chaos sweep: the same run under increasingly hostile fault plans,
/// reporting recovery overhead over the fault-free baseline. Every run —
/// drops, delays, duplicates, a boundary crash, a mid-phase crash replayed
/// from the previous checkpoint, a dead merge leader — still produces the
/// oracle MSF.
pub fn chaos(ctx: &ExpContext, nranks: usize) -> Vec<ChaosRow> {
    let el = ctx.graph(Preset::RoadUsa);
    let platform = NodePlatform::amd_cluster();
    let baseline = run_mnd(ctx, &el, nranks, platform.clone(), ctx.hypar());

    let crash_rank = 1 % nranks;
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("fault-free (chaos armed)", FaultPlan::new(ctx.seed)),
        ("drop 1%", FaultPlan::new(ctx.seed).with_drop_rate(0.01)),
        ("drop 10%", FaultPlan::new(ctx.seed).with_drop_rate(0.10)),
        (
            "delay 20% <=1ms",
            FaultPlan::new(ctx.seed).with_delay(0.2, 1e-3),
        ),
        (
            "dup+reorder 5%",
            FaultPlan::new(ctx.seed)
                .with_duplicates(0.05)
                .with_reorder(0.05),
        ),
        (
            "crash+restart, drop 1%",
            FaultPlan::new(ctx.seed)
                .with_drop_rate(0.01)
                .with_crash(crash_rank, 1),
        ),
        (
            "mid-phase crash @indComp",
            FaultPlan::new(ctx.seed).with_mid_phase_crash(crash_rank, 1, 3),
        ),
        (
            "dead leader @L1, drop 1%",
            FaultPlan::new(ctx.seed)
                .with_drop_rate(0.01)
                .with_dead_leader(0, 1),
        ),
    ];

    let mut rows = vec![ChaosRow {
        plan: "no fault plane".into(),
        exe: baseline.total_time,
        overhead: 0.0,
        retries: 0,
        redeliveries: 0,
        restores: 0,
        stall: 0.0,
        replayed_compute: 0.0,
        replayed_in_bytes: 0,
    }];
    for (name, plan) in plans {
        let r = run_mnd_chaos(ctx, &el, nranks, platform.clone(), Arc::new(plan));
        rows.push(ChaosRow {
            plan: name.to_string(),
            exe: r.total_time,
            overhead: r.total_time / baseline.total_time - 1.0,
            retries: r.rank_stats.iter().map(|s| s.retries).sum(),
            redeliveries: r.rank_stats.iter().map(|s| s.redeliveries).sum(),
            restores: r.rank_stats.iter().map(|s| s.checkpoint_restores).sum(),
            stall: r.rank_stats.iter().map(|s| s.stall_time).sum(),
            replayed_compute: r.rank_stats.iter().map(|s| s.replayed_compute).sum(),
            replayed_in_bytes: r.rank_stats.iter().map(|s| s.replayed_in_bytes).sum(),
        });
    }
    rows
}

// --------------------------------------------------------------------- //
// Resilience: every registered engine under the same fault schedule
// --------------------------------------------------------------------- //

/// Builds the engine registry at the context's scale: the D&C config
/// carries the context's observer and kernel policy, and every engine
/// shares the platform and simulation scale.
pub fn engines_for(ctx: &ExpContext, nranks: usize) -> Vec<Box<dyn Engine>> {
    let mut params = EngineParams::new(nranks);
    params.hypar = ctx.hypar();
    params.bsp = ctx.bsp();
    params.spmsf.sim_scale = ctx.scale as f64;
    registry(&params)
}

/// One row of the resilience comparison (one engine under one plan).
#[derive(Clone, Debug)]
pub struct ResilienceRow {
    /// Engine label ([`Engine::name`]): `"mnd-mst"`, `"bsp"`, `"spmsf"`.
    pub engine: &'static str,
    /// Fault-plan label (shared across engines).
    pub plan: String,
    /// Execution time under faults (simulated seconds, paper scale).
    pub exe: f64,
    /// Recovery time: `exe - baseline` for this engine (simulated s).
    pub recovery: f64,
    /// Slowdown relative to this engine's fault-free run.
    pub overhead: f64,
    /// Total checkpoint restores across ranks.
    pub restores: u64,
    /// Total virtual seconds lost to stalls and restarts.
    pub stall: f64,
    /// Compute seconds re-executed during rollback (charged).
    pub replayed_compute: f64,
    /// Inbound bytes served from replay logs (not re-charged).
    pub replayed_in_bytes: u64,
    /// Work units re-executed at live cost: rolled-back epochs for the
    /// D&C engine, supersteps for BSP, collective steps for min-plus.
    pub reexec: u64,
}

/// The resilience comparison (DESIGN.md §5g/§6): every registered engine
/// runs the same graph under the *same* fault plans — the
/// apples-to-apples counterpart of the performance comparison, measuring
/// what a fault costs each execution model. Every run must produce the
/// oracle MSF, and because suppressed re-sends and replayed receives
/// bypass the fabric counters, each faulted run's logical traffic must
/// equal its engine's chaos-armed fault-free baseline on every rank
/// (asserted when `ctx.verify`).
pub fn resilience(ctx: &ExpContext, nranks: usize) -> Vec<ResilienceRow> {
    let el = ctx.graph(Preset::RoadUsa);
    let oracle = if ctx.verify {
        Some(kruskal_msf(&el))
    } else {
        None
    };

    let crash_rank = 1 % nranks;
    let make_plans = || -> Vec<(&'static str, FaultPlan)> {
        vec![
            ("fault-free (chaos armed)", FaultPlan::new(ctx.seed)),
            ("drop 2%", FaultPlan::new(ctx.seed).with_drop_rate(0.02)),
            (
                "dup+reorder 5%",
                FaultPlan::new(ctx.seed)
                    .with_duplicates(0.05)
                    .with_reorder(0.05),
            ),
            (
                "mid-phase crash @epoch 1",
                FaultPlan::new(ctx.seed).with_mid_phase_crash(crash_rank, 1, 3),
            ),
        ]
    };

    let assert_logical_traffic =
        |engine: &str, plan: &str, faulted: &[mnd_net::RankStats], base: &[mnd_net::RankStats]| {
            if !ctx.verify {
                return;
            }
            for (rank, (f, b)) in faulted.iter().zip(base).enumerate() {
                assert_eq!(
                    (
                        f.bytes_sent,
                        f.messages_sent,
                        f.bytes_received,
                        f.messages_received
                    ),
                    (
                        b.bytes_sent,
                        b.messages_sent,
                        b.bytes_received,
                        b.messages_received
                    ),
                    "{engine} under '{plan}': rank {rank} logical traffic diverged from fault-free"
                );
            }
        };

    let mut rows = Vec::new();
    for engine in engines_for(ctx, nranks) {
        let base = engine.run(&el);
        if let Some(o) = &oracle {
            assert_eq!(
                &base.msf,
                o,
                "{}: fault-free result != oracle",
                engine.name()
            );
        }
        // Logical-traffic baseline: the chaos-*armed* fault-free run (the
        // first plan). Arming the plane adds a little real coordination
        // traffic at recovery points, so the byte-match contract is
        // against the armed run — faults and recovery on top of it must
        // add nothing.
        let mut traffic_base: Option<Vec<mnd_net::RankStats>> = None;
        for (name, plan) in make_plans() {
            let mut chaos = EngineChaos::from_plan(Arc::new(plan));
            if ctx.observer.is_set() {
                chaos = chaos.with_observer(ctx.observer.clone());
            }
            let r = engine.run_chaos(&el, &chaos);
            if let Some(o) = &oracle {
                assert_eq!(
                    &r.msf,
                    o,
                    "{} under '{name}': result != oracle",
                    engine.name()
                );
            }
            match &traffic_base {
                None => traffic_base = Some(r.rank_stats.clone()),
                Some(b) => assert_logical_traffic(engine.name(), name, &r.rank_stats, b),
            }
            rows.push(ResilienceRow {
                engine: engine.name(),
                plan: name.to_string(),
                exe: r.total_time,
                recovery: r.total_time - base.total_time,
                overhead: r.total_time / base.total_time - 1.0,
                restores: r.sum_stat(|s| s.checkpoint_restores),
                stall: r.rank_stats.iter().map(|s| s.stall_time).sum(),
                replayed_compute: r.rank_stats.iter().map(|s| s.replayed_compute).sum(),
                replayed_in_bytes: r.sum_stat(|s| s.replayed_in_bytes),
                reexec: r.recovered_units,
            });
        }
    }
    rows
}

// --------------------------------------------------------------------- //
// Checkpoint sweep: overhead vs recovery cost across cadences
// --------------------------------------------------------------------- //

/// One row of the checkpoint-cadence sweep (one engine at one interval).
#[derive(Clone, Debug)]
pub struct CheckpointSweepRow {
    /// Engine label ([`Engine::name`]).
    pub engine: &'static str,
    /// Recovery opportunities between checkpoints.
    pub interval: u64,
    /// Chaos-armed fault-free execution time (carries the checkpoint
    /// overhead of this cadence and nothing else).
    pub clean_exe: f64,
    /// Checkpoint writes across ranks at this cadence.
    pub writes: u64,
    /// Checkpoint bytes written across ranks in the clean run — the
    /// column the spmsf delta-encoding saving shows up in.
    pub ckpt_bytes: u64,
    /// Execution time with a mid-phase crash injected.
    pub crash_exe: f64,
    /// Recovery cost: `crash_exe - clean_exe`.
    pub recovery: f64,
    /// Checkpoint restores across ranks (0 = the plan's crash window
    /// never opened at this cadence — the run never reached epoch 1).
    pub restores: u64,
    /// Work units re-executed at live cost after the crash.
    pub reexec: u64,
    /// Compute seconds re-executed during rollback (charged).
    pub replayed_compute: f64,
}

/// The checkpoint-cadence sweep: every registered engine, chaos-armed, at
/// increasing checkpoint intervals — fault-free (isolating checkpoint
/// overhead) and under the same mid-phase crash (measuring how much
/// re-execution a sparser cadence buys back). The classic recovery
/// trade-off chart, three engines wide, plus an `spmsf-full` arm per
/// interval: the min-plus engine with delta-encoded component
/// checkpoints disabled, so the bytes column shows exactly what the
/// delta scheme saves (asserted when `ctx.verify`: same write count,
/// fewer bytes, cheaper armed run).
pub fn checkpoint_sweep(ctx: &ExpContext, nranks: usize) -> Vec<CheckpointSweepRow> {
    let el = ctx.graph(Preset::RoadUsa);
    let oracle = if ctx.verify {
        Some(kruskal_msf(&el))
    } else {
        None
    };
    let crash_rank = 1 % nranks;

    let run_one = |label: &'static str, engine: &dyn Engine, interval: u64| {
        let clean = engine.run_chaos(
            &el,
            &EngineChaos::from_plan(Arc::new(FaultPlan::new(ctx.seed))),
        );
        let crash = engine.run_chaos(
            &el,
            &EngineChaos::from_plan(Arc::new(
                FaultPlan::new(ctx.seed).with_mid_phase_crash(crash_rank, 1, 3),
            )),
        );
        if let Some(o) = &oracle {
            assert_eq!(&clean.msf, o, "{label} clean@{interval} != oracle");
            assert_eq!(&crash.msf, o, "{label} crash@{interval} != oracle");
        }
        CheckpointSweepRow {
            engine: label,
            interval,
            clean_exe: clean.total_time,
            writes: clean.sum_stat(|s| s.checkpoint_writes),
            ckpt_bytes: clean.sum_stat(|s| s.checkpoint_bytes),
            crash_exe: crash.total_time,
            recovery: crash.total_time - clean.total_time,
            restores: crash.sum_stat(|s| s.checkpoint_restores),
            reexec: crash.recovered_units,
            replayed_compute: crash.rank_stats.iter().map(|s| s.replayed_compute).sum(),
        }
    };

    let mut rows = Vec::new();
    for interval in [1u64, 2, 4, 8] {
        let mut params = EngineParams::new(nranks);
        params.hypar = ctx.hypar();
        params.bsp = ctx.bsp();
        params.spmsf.sim_scale = ctx.scale as f64;
        let params = params.with_checkpoint_interval(interval);
        for engine in registry(&params) {
            rows.push(run_one(engine.name(), engine.as_ref(), interval));
        }
        // The delta-encoding comparison arm: same engine, same cadence,
        // full O(V) component vectors in every checkpoint.
        let mut full_cfg = params.spmsf.clone();
        full_cfg.delta_checkpoints = false;
        let full_engine = SpmsfEngine {
            nranks,
            platform: params.platform.clone(),
            cfg: full_cfg,
        };
        let full = run_one("spmsf-full", &full_engine, interval);
        if ctx.verify {
            let slim = rows
                .iter()
                .rev()
                .find(|r| r.engine == "spmsf" && r.interval == interval)
                .expect("spmsf row pushed above");
            assert_eq!(
                slim.writes, full.writes,
                "delta encoding must not change the checkpoint cadence"
            );
            // Delta segments fall back to the base encoding whenever the
            // accumulated rewrites would outweigh the full vector, so
            // the scheme never writes more...
            assert!(
                slim.ckpt_bytes <= full.ckpt_bytes,
                "delta checkpoints@{interval}: {} bytes > {} full bytes",
                slim.ckpt_bytes,
                full.ckpt_bytes
            );
            assert!(
                slim.clean_exe <= full.clean_exe,
                "delta checkpoints@{interval} made the armed run dearer"
            );
            // ...and at the per-boundary cadence (where most segments
            // rewrite little or nothing) it must save outright.
            if interval == 1 && slim.writes > nranks as u64 {
                assert!(
                    slim.ckpt_bytes < full.ckpt_bytes,
                    "delta checkpoints@1: {} bytes !< {} full bytes",
                    slim.ckpt_bytes,
                    full.ckpt_bytes
                );
                assert!(
                    slim.clean_exe < full.clean_exe,
                    "delta checkpoints@1 did not cut the armed overhead"
                );
            }
        }
        rows.push(full);
    }
    rows
}

// --------------------------------------------------------------------- //
// Engines: the registry listing
// --------------------------------------------------------------------- //

/// One row of the `repro engines` listing.
#[derive(Clone, Debug)]
pub struct EngineListRow {
    /// Registry name ([`Engine::name`]).
    pub name: &'static str,
    /// One-line description ([`Engine::description`]).
    pub description: &'static str,
}

/// Lists every registered engine with its one-line description.
pub fn engine_list(ctx: &ExpContext, nranks: usize) -> Vec<EngineListRow> {
    engines_for(ctx, nranks)
        .iter()
        .map(|e| EngineListRow {
            name: e.name(),
            description: e.description(),
        })
        .collect()
}

// --------------------------------------------------------------------- //
// Serve sweep: the multi-tenant serving plane under a mixed workload
// --------------------------------------------------------------------- //

/// The deterministic mixed workload `serve_sweep` drives through the
/// serving plane.
pub struct ServeWorkload {
    /// Tenant table: `interactive` (weight 4, deep queue), `batch`
    /// (weight 1, queue bound 3), `updates` (weight 2).
    pub tenants: Vec<TenantSpec>,
    /// Timed submissions.
    pub jobs: Vec<JobSpec>,
    /// The updates tenant's session graph after every mutation batch —
    /// the oracle input for the final incremental forest.
    pub final_graph: EdgeList,
}

/// Builds the mixed workload: an interactive tenant re-submitting the
/// same road-network MST/CC/BFS queries (cache fodder — wave one is
/// cold, everything after hits the fingerprint cache), a batch tenant
/// bursting six distinct ad-hoc graphs at `t = 0` past its admission
/// bound of three (three rejections, on the record), and an updates
/// tenant streaming six insert/delete batches into its incremental-MSF
/// session. A mirror edge map tracks the session's final graph so
/// `serve_sweep` can oracle-check the last update's forest against a
/// full Kruskal recompute.
///
/// The update session runs over a *dense* graph (`E = 32·V`) on
/// purpose: incremental maintenance touches `O(V)` per tree search
/// while a recompute reads all `E` edges over several rounds plus the
/// cluster's communication constants, so density is what separates the
/// two honestly. (On a road-like graph with `E ≈ 1.2·V` the per-op
/// searches rival a recompute — the simulation reproduces that, so the
/// sweep does not claim it.)
pub fn serve_workload(ctx: &ExpContext) -> ServeWorkload {
    let road = Arc::new(ctx.graph(Preset::RoadUsa));
    let n = road.num_vertices();
    let tenants = vec![
        TenantSpec::new("interactive", 4.0, 16),
        TenantSpec::new("batch", 1.0, 3),
        TenantSpec::new("updates", 2.0, 16),
    ];
    let mut jobs = Vec::new();
    for wave in 0..4 {
        let t = wave as f64 * 0.5;
        for (dt, kind) in [
            (0.0, JobKind::Mst),
            (0.1, JobKind::Cc),
            (0.2, JobKind::Bfs { source: 0 }),
        ] {
            jobs.push(JobSpec {
                tenant: 0,
                kind,
                graph: road.clone(),
                submit: t + dt,
            });
        }
    }
    let bn = (n / 2).max(64);
    for i in 0..6u64 {
        let g = Arc::new(mnd_graph::gen::gnm(
            bn,
            bn as u64 * 3,
            ctx.seed ^ (0xB0B0 + i),
        ));
        jobs.push(JobSpec {
            tenant: 1,
            kind: JobKind::Mst,
            graph: g,
            submit: 0.0,
        });
    }
    // Update batches: 4 inserts + 2 deletes each, drawn from a
    // splitmix64 stream seeded by the context. Inserts are applied
    // before deletes in a batch, exactly as the session executes them.
    let sn = (n / 2).max(64);
    let session = Arc::new(mnd_graph::gen::gnm(sn, sn as u64 * 32, ctx.seed ^ 0xD1CE));
    let mut mirror: BTreeMap<(VertexId, VertexId), Weight> =
        session.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
    let mut z = ctx.seed ^ 0x5EED_CAFE;
    let mut next = move || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mnd_graph::edgelist::splitmix64(z)
    };
    for batch in 0..6 {
        let mut inserts = Vec::new();
        let mut deletes = Vec::new();
        for _ in 0..4 {
            let u = (next() % sn as u64) as VertexId;
            let mut v = (next() % sn as u64) as VertexId;
            if v == u {
                v = (v + 1) % sn;
            }
            let w = (next() % 1_000_000) as Weight;
            let (a, b) = (u.min(v), u.max(v));
            inserts.push(WEdge::new(a, b, w));
            mirror.insert((a, b), w);
        }
        for _ in 0..2 {
            if mirror.is_empty() {
                break;
            }
            let keys: Vec<(VertexId, VertexId)> = mirror.keys().copied().collect();
            let k = keys[(next() % keys.len() as u64) as usize];
            deletes.push(k);
            mirror.remove(&k);
        }
        jobs.push(JobSpec {
            tenant: 2,
            kind: JobKind::Update { inserts, deletes },
            graph: session.clone(),
            submit: 1.0 + batch as f64,
        });
    }
    let final_graph = EdgeList::from_raw(
        sn,
        mirror
            .iter()
            .map(|(&(u, v), &w)| WEdge::new(u, v, w))
            .collect(),
    );
    ServeWorkload {
        tenants,
        jobs,
        final_graph,
    }
}

/// One per-tenant row of the serve sweep (one plane run × one tenant).
#[derive(Clone, Debug)]
pub struct ServeTenantRow {
    /// Plane label: `"<engine>/incremental"` or `"mnd-mst/recompute"`.
    pub plane: String,
    /// Tenant name.
    pub tenant: String,
    /// Fair-share weight.
    pub weight: f64,
    /// Jobs submitted (admitted + rejected).
    pub submitted: usize,
    /// Jobs completed.
    pub completed: usize,
    /// Jobs refused at admission.
    pub rejected: usize,
    /// Completions served from the result cache.
    pub cache_hits: usize,
    /// Median latency (simulated seconds at paper scale).
    pub p50: f64,
    /// 95th-percentile latency.
    pub p95: f64,
    /// 99th-percentile latency.
    pub p99: f64,
    /// Completed jobs per simulated second.
    pub throughput: f64,
}

/// One summary row per plane run of the serve sweep.
#[derive(Clone, Debug)]
pub struct ServePlaneRow {
    /// Plane label (backend engine / update mode).
    pub plane: String,
    /// Jobs completed across tenants.
    pub completed: usize,
    /// Jobs refused at admission.
    pub rejected: usize,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Simulated seconds of cold compute the cache hits avoided.
    pub saved: f64,
    /// Total execution seconds of the update jobs — the
    /// incremental-vs-recompute comparison column.
    pub update_exec: f64,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Rank-seconds of execution over `makespan × nranks` capacity.
    pub utilisation: f64,
}

/// The serve sweep's two tables.
pub struct ServeSweep {
    /// Per-tenant latency/throughput rows.
    pub tenants: Vec<ServeTenantRow>,
    /// Per-plane cache/update summaries.
    pub planes: Vec<ServePlaneRow>,
}

/// Runs the workload through one backend engine in one update mode.
fn serve_run(
    ctx: &ExpContext,
    nranks: usize,
    engine: &'static str,
    mode: UpdateMode,
    wl: &ServeWorkload,
) -> ServeReport {
    let ctx2 = ctx.clone();
    let backend = EngineBackend::new(
        engine,
        NodePlatform::amd_cluster(),
        ctx.scale as f64,
        move |ranks| {
            let mut params = EngineParams::new(ranks);
            params.hypar = ctx2.hypar();
            params.bsp = ctx2.bsp();
            params.spmsf.sim_scale = ctx2.scale as f64;
            registry(&params)
                .into_iter()
                .find(|e| e.name() == engine)
                .expect("engine registered")
        },
    );
    let cfg = ServeConfig::new(nranks).with_update_mode(mode);
    let mut plane = ServePlane::new(cfg, Box::new(backend), wl.tenants.clone());
    plane.run(wl.jobs.clone())
}

/// The serve sweep (the serving-plane tentpole experiment): the mixed
/// three-tenant workload through every registered backend engine with
/// incremental update sessions, plus a recompute-mode arm on the default
/// engine as the comparison baseline. When `ctx.verify`, every run's
/// final session forest must byte-match a full Kruskal recompute of the
/// mutated graph, the incremental and recompute arms must agree
/// job-for-job on every update result, incremental updates must cost
/// less than recomputes, and the cache-hit/rejection counts implied by
/// the workload shape are asserted.
pub fn serve_sweep(ctx: &ExpContext, nranks: usize) -> ServeSweep {
    let wl = serve_workload(ctx);
    let oracle = if ctx.verify {
        Some(kruskal_msf(&wl.final_graph))
    } else {
        None
    };
    let engine_names: Vec<&'static str> =
        engines_for(ctx, nranks).iter().map(|e| e.name()).collect();

    let mut runs: Vec<(String, ServeReport)> = Vec::new();
    for name in &engine_names {
        runs.push((
            format!("{name}/incremental"),
            serve_run(ctx, nranks, name, UpdateMode::Incremental, &wl),
        ));
    }
    runs.push((
        "mnd-mst/recompute".into(),
        serve_run(ctx, nranks, "mnd-mst", UpdateMode::Recompute, &wl),
    ));

    let update_forests = |r: &ServeReport| -> BTreeMap<usize, mnd_kernels::msf::MsfResult> {
        r.completions
            .iter()
            .filter(|c| c.kind == "update")
            .map(|c| match &c.result {
                JobResult::Msf(m) => (c.job, (**m).clone()),
                _ => unreachable!("update jobs return forests"),
            })
            .collect()
    };
    let update_exec = |r: &ServeReport| -> f64 {
        r.completions
            .iter()
            .filter(|c| c.kind == "update")
            .map(|c| c.exec_seconds)
            .sum()
    };

    if ctx.verify {
        for (plane, report) in &runs {
            assert_eq!(
                report.completed() + report.rejected,
                wl.jobs.len(),
                "{plane}: jobs lost"
            );
            assert!(
                report.cache.hits > 0,
                "{plane}: the repeat-heavy workload must produce cache hits"
            );
            assert_eq!(
                report.rejected, 3,
                "{plane}: the batch burst must overflow its admission bound"
            );
            let last = report
                .completions
                .iter()
                .filter(|c| c.kind == "update")
                .max_by_key(|c| c.job)
                .expect("update jobs completed");
            let JobResult::Msf(msf) = &last.result else {
                unreachable!("update jobs return forests")
            };
            assert_eq!(
                &**msf,
                oracle.as_ref().unwrap(),
                "{plane}: final session forest != full-recompute oracle"
            );
        }
        // Incremental maintenance must agree with recompute job-for-job
        // and beat it on cost.
        let inc = &runs[0].1;
        let rec = &runs.last().unwrap().1;
        assert_eq!(
            update_forests(inc),
            update_forests(rec),
            "incremental vs recompute: update forests diverge"
        );
        assert!(
            update_exec(inc) < update_exec(rec),
            "incremental updates must cost less than full recomputes"
        );
    }

    let mut sweep = ServeSweep {
        tenants: Vec::new(),
        planes: Vec::new(),
    };
    for (plane, report) in &runs {
        for (spec, t) in wl.tenants.iter().zip(&report.tenants) {
            sweep.tenants.push(ServeTenantRow {
                plane: plane.clone(),
                tenant: t.name.clone(),
                weight: spec.weight,
                submitted: t.submitted,
                completed: t.completed,
                rejected: t.rejected,
                cache_hits: t.cache_hits,
                p50: t.p50,
                p95: t.p95,
                p99: t.p99,
                throughput: t.throughput,
            });
        }
        sweep.planes.push(ServePlaneRow {
            plane: plane.clone(),
            completed: report.completed(),
            rejected: report.rejected,
            cache_hits: report.cache.hits,
            cache_misses: report.cache.misses,
            saved: report.cache.saved_seconds,
            update_exec: update_exec(report),
            makespan: report.makespan,
            utilisation: report.utilisation,
        });
    }
    sweep
}

// --------------------------------------------------------------------- //
// Traffic: per-tag byte/message/fault breakdown
// --------------------------------------------------------------------- //

/// One row of the per-tag traffic table (summed over ranks).
#[derive(Clone, Debug)]
pub struct TrafficRow {
    /// Tag label ([`Tag::name`], annotated for the driver's user tags).
    pub tag: String,
    /// Payload bytes sent under the tag.
    pub bytes_sent: u64,
    /// Messages sent under the tag.
    pub messages: u64,
    /// Forced retransmissions under the tag.
    pub retries: u64,
    /// Discarded duplicate arrivals under the tag.
    pub redeliveries: u64,
}

/// Labels a tag for the traffic table: collectives by name, plus the
/// driver's two user tags (ring segments / leader merges).
fn tag_label(tag: Tag) -> String {
    match tag.name().as_str() {
        "user(1)" => "segments (user 1)".into(),
        "user(2)" => "leader merge (user 2)".into(),
        other => other.into(),
    }
}

/// Per-tag traffic of one MND run under a lightly faulty fabric (2% drop,
/// 2% duplicates — so the retry/redelivery columns are exercised), summed
/// over ranks and sorted by bytes sent.
pub fn traffic(ctx: &ExpContext, nranks: usize) -> Vec<TrafficRow> {
    let el = ctx.graph(Preset::RoadUsa);
    let plan = Arc::new(
        FaultPlan::new(ctx.seed)
            .with_drop_rate(0.02)
            .with_duplicates(0.02),
    );
    // Force real ring exchanges even on scaled-down graphs: the per-tag
    // table should cover the segment tag, not just the leader merge.
    let mut cfg = ctx.hypar().with_chaos(plan.clone());
    cfg.group_edge_threshold = 1;
    let r = MndMstRunner::new(nranks)
        .with_platform(NodePlatform::amd_cluster())
        .with_config(cfg)
        .with_fault_injector(plan)
        .run(&el);
    ctx.check_mnd(&el, &r, "traffic");

    let mut by_tag: std::collections::BTreeMap<Tag, TrafficRow> = std::collections::BTreeMap::new();
    for s in &r.rank_stats {
        for (tag, t) in &s.by_tag {
            let row = by_tag.entry(*tag).or_insert_with(|| TrafficRow {
                tag: tag_label(*tag),
                bytes_sent: 0,
                messages: 0,
                retries: 0,
                redeliveries: 0,
            });
            row.bytes_sent += t.bytes_sent;
            row.messages += t.messages_sent;
            row.retries += t.retries;
            row.redeliveries += t.redeliveries;
        }
    }
    let mut rows: Vec<TrafficRow> = by_tag.into_values().collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.bytes_sent));
    rows
}

// --------------------------------------------------------------------- //
// Comm-sweep: sparse exchanges, compression, filter-Boruvka (DESIGN.md §8)
// --------------------------------------------------------------------- //

/// One comm-sweep row: the whole-run traffic of one verified configuration.
#[derive(Clone, Debug)]
pub struct CommSweepRow {
    /// Preset name.
    pub preset: &'static str,
    /// Variant label (which communication knobs are on).
    pub variant: String,
    /// Total messages sent across ranks (all tags).
    pub messages: u64,
    /// Total wire bytes sent across ranks, in MB.
    pub wire_mb: f64,
    /// Messages on the `alltoall` payload tag.
    pub payload_msgs: u64,
    /// Messages on the `sparse_hdr` header tag.
    pub header_msgs: u64,
    /// Execution time (simulated seconds, paper scale).
    pub exe: f64,
}

/// Sums one tag's sent messages over all ranks of a report.
fn tag_messages(r: &MndMstReport, name: &str) -> u64 {
    r.rank_stats
        .iter()
        .flat_map(|s| &s.by_tag)
        .filter(|(tag, _)| tag.name() == name)
        .map(|(_, t)| t.messages_sent)
        .sum()
}

/// The communication-engineering sweep (ROADMAP item 4): the same skewed
/// web-crawl runs under dense exchanges (the old always-send path), the
/// sparse schedule, sparse + compressed relabeling, and sparse + compression
/// with filter-Boruvka sampling — plus the full stack under a hostile fault
/// plan (drops and a mid-phase crash replayed from checkpoint). Every run
/// is verified against the Kruskal oracle, so the table demonstrates the
/// bytes/messages shed at **unchanged** output.
pub fn comm_sweep(ctx: &ExpContext, nranks: usize) -> Vec<CommSweepRow> {
    let platform = NodePlatform::amd_cluster();
    let variants: Vec<(&str, HyParConfig)> = vec![
        (
            "dense",
            ctx.hypar()
                .with_sparse_exchange(false)
                .with_compressed_relabels(false),
        ),
        (
            "sparse",
            ctx.hypar()
                .with_sparse_exchange(true)
                .with_compressed_relabels(false),
        ),
        ("sparse+pack", ctx.hypar()),
        (
            "sparse+pack+filter(0.25)",
            ctx.hypar().with_filter_sample_prob(0.25),
        ),
    ];
    let mut rows = Vec::new();
    for preset in [Preset::Gsh2015Tpd, Preset::Sk2005] {
        let el = ctx.graph(preset);
        let mut push = |variant: String, r: &MndMstReport| {
            rows.push(CommSweepRow {
                preset: preset.name(),
                variant,
                messages: r.rank_stats.iter().map(|s| s.messages_sent).sum(),
                wire_mb: r.rank_stats.iter().map(|s| s.bytes_sent).sum::<u64>() as f64 / 1e6,
                payload_msgs: tag_messages(r, "alltoall"),
                header_msgs: tag_messages(r, "sparse_hdr"),
                exe: r.total_time,
            });
        };
        for (name, cfg) in &variants {
            let r = run_mnd(ctx, &el, nranks, platform.clone(), cfg.clone());
            push((*name).to_string(), &r);
        }
        // The full stack must survive chaos with the oracle MSF intact:
        // drops force retries over the sparse schedule and a mid-phase
        // crash replays an exchange from the checkpointed replay log.
        let plan = Arc::new(
            FaultPlan::new(ctx.seed)
                .with_drop_rate(0.01)
                .with_mid_phase_crash(1 % nranks, 1, 3),
        );
        let r = run_mnd_chaos_cfg(
            ctx,
            &el,
            nranks,
            platform.clone(),
            ctx.hypar().with_filter_sample_prob(0.25),
            plan,
        );
        push("sparse+pack+filter chaos".to_string(), &r);
    }
    rows
}

/// One row of the recursion-threshold validation (the retired
/// alltoall-sweep item): assumed vs measured per-round exchange messages
/// and the recursion thresholds each implies.
#[derive(Clone, Debug)]
pub struct CommCalibrationRow {
    /// Cluster size.
    pub nranks: usize,
    /// Exchange rounds observed on rank 0 (partition + mergeParts phases).
    pub exchange_rounds: u64,
    /// The calibration model's per-rank per-round message assumption:
    /// `(p − 1) + 2⌈log₂ p⌉`.
    pub assumed_msgs: f64,
    /// Measured per-rank per-round exchange messages (alltoall +
    /// sparse_hdr + phased tags) under the sparse schedule.
    pub measured_msgs: f64,
    /// Recursion threshold from the assumption (paper-scale edges).
    pub assumed_threshold: u64,
    /// Recursion threshold re-derived from the measurement.
    pub measured_threshold: u64,
}

/// Validates `mnd_device::calibrated_recursion_threshold` against the
/// *measured* sparse exchange: an observer counts the exchange rounds
/// (partition + mergeParts samples on rank 0) of a skewed-crawl run, the
/// per-tag tables give the actual exchange messages, and the threshold is
/// re-derived from the measured per-round count. The assumed dense count
/// must be an upper bound once empty buckets stop shipping — confirming
/// the calibrated threshold errs toward recursing *less*, never more.
pub fn comm_calibration(ctx: &ExpContext) -> Vec<CommCalibrationRow> {
    use mnd_hypar::observe::{PhaseKind, PhaseObserver, PhaseSample};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Default)]
    struct RoundCounter(AtomicU64);
    impl PhaseObserver for RoundCounter {
        fn on_phase(&self, kind: PhaseKind, sample: &PhaseSample) {
            if sample.rank == 0 && matches!(kind, PhaseKind::Partition | PhaseKind::MergeParts) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    let platform = NodePlatform::amd_cluster();
    let el = ctx.graph(Preset::Gsh2015Tpd);
    let mut rows = Vec::new();
    for nranks in [4usize, 8, 16] {
        let counter = Arc::new(RoundCounter::default());
        let cfg = ctx.hypar().with_observer(counter.clone());
        let r = run_mnd(ctx, &el, nranks, platform.clone(), cfg);
        let rounds = counter.0.load(Ordering::Relaxed).max(1);
        let exchange_msgs: u64 = ["alltoall", "sparse_hdr", "phased"]
            .iter()
            .map(|t| tag_messages(&r, t))
            .sum();
        let measured = exchange_msgs as f64 / nranks as f64 / rounds as f64;
        let assumed = mnd_device::assumed_round_msgs(nranks);
        rows.push(CommCalibrationRow {
            nranks,
            exchange_rounds: rounds,
            assumed_msgs: assumed,
            measured_msgs: measured,
            assumed_threshold: mnd_device::calibrated_recursion_threshold(&platform, nranks),
            measured_threshold: mnd_device::recursion_threshold_for_round_msgs(&platform, measured),
        });
    }
    rows
}

// --------------------------------------------------------------------- //
// Euclidean MST: the geometric workload family (ROADMAP item 5)
// --------------------------------------------------------------------- //

/// One (preset × engine) row of the emst sweep.
#[derive(Clone, Debug)]
pub struct EmstSweepRow {
    /// Geometric preset name (`geo-uniform-2d`, …).
    pub preset: &'static str,
    /// Engine label ([`Engine::name`]).
    pub engine: &'static str,
    /// Points in the cloud (= vertices).
    pub vertices: u64,
    /// Undirected k-NN edges.
    pub edges: u64,
    /// Average degree — concentrates near `2k` on geometric inputs.
    pub avg_degree: f64,
    /// Maximum degree — bounded (no hubs), the defining contrast with
    /// the crawls.
    pub max_degree: u64,
    /// The k that connected the preset (base k, doubled if needed).
    pub k: usize,
    /// Execution time (simulated seconds, paper scale).
    pub exe: f64,
    /// Communication time (simulated seconds, paper scale).
    pub comm: f64,
    /// Host wall-clock of this engine's run, in milliseconds (the oracle
    /// checks around it are not included).
    pub wall_ms: u64,
}

/// One device-calibration row of the emst sweep: where the occupancy
/// model, the §4.3.1 split, and the calibrated recursion threshold land
/// on a bounded-degree geometric input (crawl reference rows included
/// for contrast).
#[derive(Clone, Debug)]
pub struct EmstDeviceRow {
    /// Graph label: a geo preset or a crawl reference.
    pub graph: String,
    /// Degree-skew fraction from the binned schedule (crawls: large;
    /// k-NN graphs: ~0 — every vertex lands in the low bins).
    pub skew: f64,
    /// GPU occupancy under hierarchical binning at this skew.
    pub occ_binned: f64,
    /// GPU occupancy with binning ablated.
    pub occ_unbinned: f64,
    /// §4.3.1 sampled GPU:CPU speed ratio.
    pub gpu_speedup: f64,
    /// §4.3.1 CPU partition share.
    pub cpu_fraction: f64,
    /// Paper-scale edge count (`edges × scale`).
    pub paper_edges: u64,
    /// Calibrated recursion threshold for the platform at this rank
    /// count (paper-scale edges).
    pub recursion_threshold: u64,
    /// Whether the D&C driver would recurse on the paper-scale instance.
    pub recurses: bool,
}

/// The emst sweep: per-engine rows, device-calibration rows, and the
/// small-n oracle record.
#[derive(Clone, Debug)]
pub struct EmstSweep {
    /// Engine rows (preset-major, registry order within a preset).
    pub rows: Vec<EmstSweepRow>,
    /// Device rows: every geo preset plus two crawl references.
    pub devices: Vec<EmstDeviceRow>,
    /// Points in each small-n oracle instance.
    pub oracle_points: u32,
    /// Max EMST inclusion threshold k* observed across presets: the
    /// smallest k for which the mirrored k-NN graph is guaranteed to
    /// contain every EMST edge.
    pub oracle_kstar: usize,
}

/// The EMST inclusion threshold k* of a cloud: for each brute-force EMST
/// edge `(u, v)`, the edge appears in the mirrored k-NN graph iff `v` is
/// within `u`'s first k neighbours *or* vice versa; k* is the max over
/// EMST edges of that minimum rank. For k ≥ k* the k-NN graph contains
/// the whole EMST, so (weights being exact squared distances) its MSF
/// *is* the EMST.
fn emst_inclusion_threshold(cloud: &mnd_graph::gen::PointCloud, emst: &[WEdge]) -> usize {
    let n = cloud.len() as VertexId;
    let rank = |from: VertexId, to: VertexId| -> usize {
        let d = (cloud.sq_dist(from, to), to);
        (0..n)
            .filter(|&j| j != from)
            .filter(|&j| (cloud.sq_dist(from, j), j) < d)
            .count()
            + 1
    };
    emst.iter()
        .map(|e| rank(e.u, e.v).min(rank(e.v, e.u)))
        .max()
        .unwrap_or(0)
}

/// The small-n EMST-correctness oracle for one preset: brute-force the
/// true EMST from the complete squared-distance graph, derive k*, and
/// assert (a) the k-NN MST matches the EMST exactly once k clears k*,
/// and (b) every registry engine run on the k-NN graph returns it too.
/// Returns `(k*, connected k used)`.
fn emst_oracle_check(ctx: &ExpContext, preset: GeoPreset, n: u32) -> usize {
    let cloud = preset.points(n, ctx.seed);
    let brute = kruskal_msf(&cloud.complete_graph());
    assert_eq!(
        brute.num_components,
        1,
        "{}: complete graph must be connected",
        preset.name()
    );
    let kstar = emst_inclusion_threshold(&cloud, &brute.edges);
    let k = kstar.max(preset.base_k());
    let knn = cloud.knn_graph(k);
    assert_eq!(
        kruskal_msf(&knn),
        brute,
        "{}: k-NN MST (k = {k} ≥ k* = {kstar}) != brute-force EMST",
        preset.name()
    );
    for engine in engines_for(ctx, 4) {
        let r = engine.run(&knn);
        assert_eq!(
            r.msf,
            brute,
            "{}: engine {} != brute-force EMST",
            preset.name(),
            engine.name()
        );
    }
    kstar
}

/// The emst sweep (ROADMAP item 5): every registry engine over every
/// geometric preset at the context's scale, oracle-verified two ways —
/// brute-force EMST equality on small instances (when `ctx.verify`),
/// Kruskal + cross-engine forest equality on the large ones — plus the
/// device-calibration table answering the motivating question: where do
/// the occupancy model, the §4.3.1 split, and the calibrated recursion
/// threshold land on bounded-degree inputs vs the crawls?
pub fn emst_sweep(ctx: &ExpContext, nranks: usize) -> EmstSweep {
    // Small-n oracle arm: cheap (complete graphs on ORACLE_N points), so
    // it runs whenever verification is on.
    const ORACLE_N: u32 = 160;
    let mut oracle_kstar = 0;
    if ctx.verify {
        for p in GeoPreset::ALL {
            oracle_kstar = oracle_kstar.max(emst_oracle_check(ctx, p, ORACLE_N));
        }
    }

    let platform = NodePlatform::amd_cluster();
    let threshold = mnd_device::calibrated_recursion_threshold(&platform, nranks);
    let cpu = mnd_device::DeviceModel::cpu_xeon_ivybridge();
    let (gpu, gpu_unbinned) = (
        mnd_device::DeviceModel::gpu_k40(),
        mnd_device::DeviceModel::gpu_k40_unbinned(),
    );
    let mut rows = Vec::new();
    let mut devices = Vec::new();
    let mut device_row = |name: String, el: &EdgeList| {
        let g = CsrGraph::from_edge_list(el);
        let skew = mnd_kernels::binning::bin_graph(&g).skew_fraction();
        let split = calibrate_split(&g, &cpu, &gpu, 3, 0.25, ctx.seed);
        let paper_edges = el.len() as u64 * ctx.scale;
        devices.push(EmstDeviceRow {
            graph: name,
            skew,
            occ_binned: gpu.occupancy(skew),
            occ_unbinned: gpu_unbinned.occupancy(skew),
            gpu_speedup: split.gpu_speedup,
            cpu_fraction: split.cpu_fraction,
            paper_edges,
            recursion_threshold: threshold,
            recurses: paper_edges > threshold,
        });
    };

    for p in GeoPreset::ALL {
        let (el, k) = p.generate_with_k(ctx.scale, ctx.seed);
        let g = CsrGraph::from_edge_list(&el);
        let s = graph_stats(&g, 1, ctx.seed);
        let oracle = if ctx.verify {
            Some(kruskal_msf(&el))
        } else {
            None
        };
        let mut forests: Vec<(&'static str, mnd_kernels::msf::MsfResult)> = Vec::new();
        for engine in engines_for(ctx, nranks) {
            let t = std::time::Instant::now();
            let r = engine.run(&el);
            let wall_ms = t.elapsed().as_millis() as u64;
            if let Some(o) = &oracle {
                assert_eq!(
                    &r.msf,
                    o,
                    "{}: engine {} != oracle",
                    p.name(),
                    engine.name()
                );
            }
            if let Some((first, msf)) = forests.first() {
                assert_eq!(
                    &r.msf,
                    msf,
                    "{}: engines {first} and {} disagree",
                    p.name(),
                    engine.name()
                );
            }
            rows.push(EmstSweepRow {
                preset: p.name(),
                engine: engine.name(),
                vertices: s.num_vertices,
                edges: s.num_edges,
                avg_degree: s.avg_degree,
                max_degree: s.max_degree,
                k,
                exe: r.total_time,
                comm: r.comm_time,
                wall_ms,
            });
            forests.push((engine.name(), r.msf));
        }
        device_row(p.name().to_string(), &el);
    }
    // Crawl reference rows: the regime the thresholds were calibrated on.
    for p in [Preset::Arabic2005, Preset::Gsh2015Tpd] {
        let el = ctx.graph(p);
        device_row(p.name().to_string(), &el);
    }
    EmstSweep {
        rows,
        devices,
        oracle_points: ORACLE_N,
        oracle_kstar,
    }
}

/// Summary of the geometric incremental-serve session.
#[derive(Clone, Debug)]
pub struct EmstServeRow {
    /// Geometric preset the session ran over.
    pub preset: &'static str,
    /// Points in the final cloud.
    pub points: u32,
    /// Update batches streamed into the session.
    pub batches: usize,
    /// Total edges inserted across batches.
    pub inserts: usize,
    /// Final-forest edge count.
    pub forest_edges: usize,
    /// Total update execution seconds charged to the session.
    pub update_exec: f64,
}

/// Streams point insertions through `mnd-serve`'s incremental sessions
/// on a geometric preset: the session opens on the k-NN graph over the
/// first `5/8` of a cloud, then each batch appends points by inserting
/// edges to their k nearest *already-present* neighbours. A new point's
/// first edge attaches a fresh component; each further edge closes a
/// cycle, so the batch exercises cycle-max replacement on a low-degree
/// graph (the crawls exercise it on hubs). When `ctx.verify`, the final
/// session forest must byte-match a Kruskal recompute of the mirrored
/// edge map.
pub fn emst_serve_session(ctx: &ExpContext, nranks: usize) -> EmstServeRow {
    let preset = GeoPreset::Uniform2d;
    let n: u32 = 512;
    let n0: u32 = n * 5 / 8;
    let k = preset.base_k();
    let cloud = preset.points(n, ctx.seed);

    // Initial graph: k-NN restricted to the first n0 points, carried on
    // the full n-vertex id space (later points start isolated).
    let knn = |j: VertexId, present: VertexId| -> Vec<WEdge> {
        let mut cands: Vec<(u64, VertexId)> = (0..present)
            .filter(|&i| i != j)
            .map(|i| (cloud.sq_dist(j, i), i))
            .collect();
        cands.sort_unstable();
        cands
            .iter()
            .take(k)
            .map(|&(d, i)| WEdge::new(j.min(i), j.max(i), d as Weight))
            .collect()
    };
    let mut initial = EdgeList::new(n);
    for j in 0..n0 {
        for e in knn(j, n0) {
            initial.push(e.u, e.v, e.w);
        }
    }
    initial.canonicalize();
    let mut mirror: BTreeMap<(VertexId, VertexId), Weight> =
        initial.edges().iter().map(|e| ((e.u, e.v), e.w)).collect();
    let session = Arc::new(initial);

    // One update batch per 16 appended points; each point's edges go to
    // its k nearest among the points already present.
    let mut jobs = Vec::new();
    let mut total_inserts = 0usize;
    let batch_pts = 16u32;
    let mut batch = 0usize;
    let mut next_pt = n0;
    while next_pt < n {
        let mut inserts = Vec::new();
        for j in next_pt..(next_pt + batch_pts).min(n) {
            for e in knn(j, j) {
                mirror.insert((e.u, e.v), e.w);
                inserts.push(e);
            }
        }
        total_inserts += inserts.len();
        jobs.push(JobSpec {
            tenant: 0,
            kind: JobKind::Update {
                inserts,
                deletes: Vec::new(),
            },
            graph: session.clone(),
            submit: batch as f64,
        });
        next_pt += batch_pts;
        batch += 1;
    }

    let ctx2 = ctx.clone();
    let backend = EngineBackend::new(
        "mnd-mst",
        NodePlatform::amd_cluster(),
        ctx.scale as f64,
        move |ranks| {
            let mut params = EngineParams::new(ranks);
            params.hypar = ctx2.hypar();
            params.bsp = ctx2.bsp();
            params.spmsf.sim_scale = ctx2.scale as f64;
            registry(&params)
                .into_iter()
                .find(|e| e.name() == "mnd-mst")
                .expect("engine registered")
        },
    );
    let cfg = ServeConfig::new(nranks).with_update_mode(UpdateMode::Incremental);
    let mut plane = ServePlane::new(
        cfg,
        Box::new(backend),
        vec![TenantSpec::new("geo", 1.0, jobs.len().max(1))],
    );
    let report = plane.run(jobs.clone());

    let last = report
        .completions
        .iter()
        .filter(|c| c.kind == "update")
        .max_by_key(|c| c.job)
        .expect("update jobs completed");
    let JobResult::Msf(msf) = &last.result else {
        unreachable!("update jobs return forests")
    };
    if ctx.verify {
        assert_eq!(report.completed(), jobs.len(), "geo session: jobs lost");
        let final_graph = EdgeList::from_raw(
            n,
            mirror
                .iter()
                .map(|(&(u, v), &w)| WEdge::new(u, v, w))
                .collect(),
        );
        let oracle = kruskal_msf(&final_graph);
        assert_eq!(
            &**msf, &oracle,
            "geo session: final forest != full-recompute oracle"
        );
        // All n points present and the cloud connected ⇒ a spanning tree.
        assert_eq!(oracle.num_components, 1, "geo session must end connected");
    }
    EmstServeRow {
        preset: preset.name(),
        points: n,
        batches: batch,
        inserts: total_inserts,
        forest_edges: msf.edges.len(),
        update_exec: report
            .completions
            .iter()
            .filter(|c| c.kind == "update")
            .map(|c| c.exec_seconds)
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Experiments at a heavy scale divisor finish quickly and stay
    /// oracle-correct (full-scale runs are exercised by the repro binary).
    fn tiny() -> ExpContext {
        ExpContext {
            scale: 65536,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn table2_has_six_rows() {
        let rows = table2(&tiny());
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().any(|r| r.graph == "uk-2007"));
    }

    #[test]
    fn table3_rows_have_positive_times() {
        let rows = table3(&tiny(), 4);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.pregel_exe > 0.0 && r.mnd_exe > 0.0, "{r:?}");
            assert!(r.pregel_comm > 0.0 && r.mnd_comm > 0.0, "{r:?}");
        }
    }

    #[test]
    fn fig8_gpu_rows_cover_node_counts() {
        let ctx = tiny();
        let rows = fig8(&ctx);
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.cpu_only > 0.0 && r.cpu_gpu > 0.0);
        }
    }

    #[test]
    fn ablations_run() {
        let ctx = tiny();
        assert_eq!(ablation_group(&ctx, 8).len(), 4);
        assert_eq!(ablation_excp(&ctx, 4).len(), 3);
        assert!(ablation_thresh(&ctx, 4).len() >= 5);
    }

    #[test]
    fn chaos_sweep_verifies_and_counts_faults() {
        let rows = chaos(&tiny(), 4);
        // Baseline + armed-but-clean + 7 fault plans.
        assert_eq!(rows.len(), 9);
        assert_eq!(rows[0].overhead, 0.0);
        // The 10% drop plan must force retries somewhere.
        let drops = rows.iter().find(|r| r.plan == "drop 10%").unwrap();
        assert!(drops.retries > 0, "{drops:?}");
        // The crash plan must restore from checkpoint.
        let crash = rows.iter().find(|r| r.plan.starts_with("crash")).unwrap();
        assert_eq!(crash.restores, 1, "{crash:?}");
        // The mid-phase crash must roll back and re-execute: nonzero
        // replayed compute, replayed bytes served from logs for free.
        let mid = rows
            .iter()
            .find(|r| r.plan.starts_with("mid-phase"))
            .unwrap();
        assert_eq!(mid.restores, 1, "{mid:?}");
        assert!(mid.replayed_compute > 0.0, "{mid:?}");
        assert!(mid.replayed_in_bytes > 0, "{mid:?}");
        // Boundary crashes re-read a checkpoint; only mid-phase crashes
        // re-execute work.
        assert_eq!(crash.replayed_compute, 0.0, "{crash:?}");
    }

    #[test]
    fn traffic_covers_driver_tags_under_faults() {
        let rows = traffic(&tiny(), 4);
        assert!(!rows.is_empty());
        let tags: Vec<&str> = rows.iter().map(|r| r.tag.as_str()).collect();
        assert!(tags.contains(&"segments (user 1)"), "{tags:?}");
        assert!(tags.contains(&"leader merge (user 2)"), "{tags:?}");
        // 2% drops over the whole run should force at least one retry.
        assert!(rows.iter().map(|r| r.retries).sum::<u64>() > 0);
    }

    #[test]
    fn checkpoint_sweep_reports_delta_checkpoint_savings() {
        let rows = checkpoint_sweep(&tiny(), 4);
        // 3 registry engines + the spmsf full-checkpoint arm, 4 cadences.
        assert_eq!(rows.len(), 16);
        // verify=true already asserted slim-vs-full per interval inside
        // the sweep; spot-check the densest cadence here.
        let slim = rows
            .iter()
            .find(|r| r.engine == "spmsf" && r.interval == 1)
            .unwrap();
        let full = rows
            .iter()
            .find(|r| r.engine == "spmsf-full" && r.interval == 1)
            .unwrap();
        assert_eq!(slim.writes, full.writes);
        assert!(slim.ckpt_bytes < full.ckpt_bytes, "{slim:?} vs {full:?}");
        assert!(slim.clean_exe < full.clean_exe);
        for r in &rows {
            assert!(r.writes == 0 || r.ckpt_bytes > 0, "{r:?}");
        }
    }

    #[test]
    fn engine_list_names_and_describes_every_engine() {
        let rows = engine_list(&tiny(), 4);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["mnd-mst", "bsp", "spmsf"]);
        for r in &rows {
            assert!(!r.description.is_empty(), "{r:?}");
        }
    }

    #[test]
    fn serve_sweep_is_deterministic_and_favors_incremental() {
        let ctx = tiny();
        let a = serve_sweep(&ctx, 4);
        // 3 incremental planes + the recompute arm, 3 tenants each.
        assert_eq!(a.planes.len(), 4);
        assert_eq!(a.tenants.len(), 12);
        let inc = a
            .planes
            .iter()
            .find(|p| p.plane == "mnd-mst/incremental")
            .unwrap();
        let rec = a
            .planes
            .iter()
            .find(|p| p.plane == "mnd-mst/recompute")
            .unwrap();
        // Update-heavy streams: maintaining the forest beats recomputing
        // it by a wide margin, not a hair.
        assert!(
            inc.update_exec < rec.update_exec / 2.0,
            "incremental {} vs recompute {}",
            inc.update_exec,
            rec.update_exec
        );
        assert!(inc.cache_hits > 0 && inc.saved > 0.0, "{inc:?}");
        assert_eq!(inc.rejected, 3, "{inc:?}");
        // The interactive tenant's repeats land in the cache.
        let t = a
            .tenants
            .iter()
            .find(|t| t.plane == "mnd-mst/incremental" && t.tenant == "interactive")
            .unwrap();
        assert_eq!((t.submitted, t.completed), (12, 12), "{t:?}");
        assert!(t.cache_hits >= 8, "{t:?}");
        assert!(t.p50 > 0.0 && t.p95 >= t.p50 && t.p99 >= t.p95, "{t:?}");
        // Determinism: a second sweep reproduces every number.
        let b = serve_sweep(&ctx, 4);
        assert_eq!(format!("{:?}", a.tenants), format!("{:?}", b.tenants));
        assert_eq!(format!("{:?}", a.planes), format!("{:?}", b.planes));
    }

    #[test]
    fn calibration_reports_all_graphs() {
        let rows = calibration(&tiny());
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.cpu_fraction), "{r:?}");
        }
    }

    #[test]
    fn comm_sweep_sheds_messages_and_bytes_on_skewed_presets() {
        // Every run inside is oracle-verified (tiny() keeps verify on),
        // including the chaos arm over the full sparse+pack+filter stack.
        let rows = comm_sweep(&tiny(), 8);
        // 2 presets x (4 variants + chaos arm).
        assert_eq!(rows.len(), 10);
        let mut filter_won_somewhere = false;
        for preset in ["gsh-2015-tpd", "sk-2005"] {
            let get = |v: &str| {
                rows.iter()
                    .find(|r| r.preset == preset && r.variant == v)
                    .unwrap()
            };
            let dense = get("dense");
            let sparse = get("sparse");
            let packed = get("sparse+pack");
            let filtered = get("sparse+pack+filter(0.25)");
            // The bugfix: empty buckets stop becoming messages.
            assert!(
                sparse.messages < dense.messages,
                "{preset}: sparse {} !< dense {}",
                sparse.messages,
                dense.messages
            );
            assert!(sparse.payload_msgs < dense.payload_msgs, "{preset}");
            assert_eq!(dense.header_msgs, 0, "{preset}: dense pays no header");
            assert!(sparse.header_msgs > 0, "{preset}");
            // Compression sheds wire bytes at identical message routing.
            assert!(
                packed.wire_mb < sparse.wire_mb,
                "{preset}: packed {} !< sparse {}",
                packed.wire_mb,
                sparse.wire_mb
            );
            assert_eq!(packed.payload_msgs, sparse.payload_msgs, "{preset}");
            // Filtering carries fewer edges, but fewer edges also shift the
            // ring-exchange monitor's decisions, so the total can wobble on
            // a given preset; it must win on at least one (checked below)
            // and never cost more than a small factor on any.
            filter_won_somewhere |= filtered.wire_mb < packed.wire_mb;
            assert!(
                filtered.wire_mb < packed.wire_mb * 1.10,
                "{preset}: filtered {} !<~ packed {}",
                filtered.wire_mb,
                packed.wire_mb
            );
            // The chaos arm completed (it is oracle-verified inside).
            assert!(get("sparse+pack+filter chaos").exe > 0.0);
        }
        assert!(
            filter_won_somewhere,
            "filter never shed wire bytes: {rows:?}"
        );
    }

    #[test]
    fn emst_sweep_runs_every_engine_over_every_preset() {
        let ctx = tiny(); // 2^24/65536 = 256 points per preset
        let sweep = emst_sweep(&ctx, 4);
        // 4 geo presets × 3 registry engines; the sweep itself asserted
        // the brute-force oracle (small n) and cross-engine equality.
        assert_eq!(sweep.rows.len(), 12);
        assert!(sweep.oracle_kstar >= 1);
        for r in &sweep.rows {
            assert!(r.exe > 0.0 && r.comm > 0.0, "{r:?}");
            assert!(r.k >= 8, "{r:?}");
            // Bounded degree: no hubs on any geometric preset.
            assert!(r.max_degree <= 8 * r.k as u64, "{r:?}");
        }
        // Device table: 4 geo rows + 2 crawl references. Geometric inputs
        // must land in the no-skew regime (full GPU occupancy, binned or
        // not); the crawls must not.
        assert_eq!(sweep.devices.len(), 6);
        let crawl = sweep
            .devices
            .iter()
            .find(|d| d.graph == "gsh-2015-tpd")
            .unwrap();
        for d in &sweep.devices {
            assert!((0.0..=1.0).contains(&d.cpu_fraction), "{d:?}");
            assert!(d.gpu_speedup > 0.0, "{d:?}");
            if d.graph.starts_with("geo-uniform") {
                // The pure bounded-degree regime: every vertex lands in
                // the thread-sized bin, occupancy is full, binned or not.
                assert!(d.skew < 0.05, "{d:?}");
                assert!(d.occ_binned > 0.99 && d.occ_unbinned > 0.95, "{d:?}");
            } else if d.graph.starts_with("geo-cluster") {
                // Clustered clouds may push some vertices warp-sized at
                // tiny scales (k doubles to bridge blobs), but stay far
                // below the crawls and keep near-full binned occupancy.
                assert!(d.skew < crawl.skew, "{d:?} vs crawl {}", crawl.skew);
                assert!(d.occ_binned > 0.9, "{d:?}");
            }
        }
        assert!(crawl.skew > 0.3, "{crawl:?}");
        assert!(crawl.occ_unbinned < crawl.occ_binned, "{crawl:?}");
    }

    #[test]
    fn emst_serve_session_replaces_cycle_max_edges() {
        let row = emst_serve_session(&tiny(), 4);
        // 512 - 320 = 192 appended points in batches of 16.
        assert_eq!(row.batches, 12);
        // Each appended point inserts k = 8 edges; only one can attach
        // the new component, so the rest exercised cycle-max replacement.
        assert_eq!(row.inserts, 192 * 8);
        // Connected at the end (asserted against the oracle inside).
        assert_eq!(row.forest_edges, 511);
        assert!(row.update_exec > 0.0);
    }

    #[test]
    fn emst_oracle_rejects_corrupted_forest() {
        // The oracle machinery must actually discriminate: corrupt the
        // correct EMST two ways and watch both checks fire.
        let cloud = GeoPreset::Uniform2d.points(96, 7);
        let el = cloud.complete_graph();
        let good = kruskal_msf(&el);
        assert!(mnd_kernels::msf::verify_msf(&el, &good).is_ok());
        // (a) Swap a forest edge for a non-graph edge: foreign.
        let mut forged = good.clone();
        forged.edges[0].w = forged.edges[0].w.wrapping_add(1);
        assert!(mnd_kernels::msf::verify_msf(&el, &forged).is_err());
        // (b) Keep membership but break minimality: replace the lightest
        // forest edge with the heaviest graph edge (weight changes, and
        // equality against the oracle must fail too).
        let mut heavier = good.clone();
        let heavy = *el.edges().iter().max_by_key(|e| (e.w, e.u, e.v)).unwrap();
        assert!(!heavier.edges.contains(&heavy), "degenerate fixture");
        heavier.edges[0] = heavy;
        assert!(mnd_kernels::msf::verify_msf(&el, &heavier).is_err());
        assert_ne!(heavier, good);
    }

    #[test]
    fn comm_calibration_validates_the_threshold_assumption() {
        let rows = comm_calibration(&tiny());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.exchange_rounds > 0, "{r:?}");
            assert!(r.measured_msgs > 0.0, "{r:?}");
            // The dense assumption upper-bounds the measured sparse
            // exchange, so the calibrated threshold errs toward recursing
            // less — never toward paying more rounds than budgeted.
            assert!(
                r.measured_msgs <= r.assumed_msgs,
                "measured {} > assumed {}",
                r.measured_msgs,
                r.assumed_msgs
            );
            assert!(r.measured_threshold <= r.assumed_threshold, "{r:?}");
        }
    }
}
