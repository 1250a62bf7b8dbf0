//! The three graph regimes the benchmark runs, and the one driver
//! configuration every run uses.

use std::sync::Arc;

use mnd_graph::presets::Preset;
use mnd_hypar::{HyParConfig, PhaseObserver};
use mnd_mst::MndMstRunner;

/// Simulated cluster size: the paper's 16 nodes, one rank thread each.
pub const RANKS: usize = 16;

/// One named workload: a preset graph at a fixed scale divisor.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// The generator.
    pub preset: Preset,
    /// Scale divisor of the preset; also the run's `sim_scale`, so the
    /// simulated clock models the paper-size graph.
    pub scale_div: u64,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "uk-crawl",
        preset: Preset::Uk2007,
        scale_div: 1024,
        why: "high-locality crawl: reduce sheds most edges as multi-edges, mergeParts dominates host wall",
    },
    Workload {
        name: "gsh-scatter",
        preset: Preset::Gsh2015Tpd,
        scale_div: 512,
        why: "weak id locality: communication-bound, several recursion rounds and ring rounds in hierMerge",
    },
    Workload {
        name: "road-sparse",
        preset: Preset::RoadUsa,
        scale_div: 8,
        why: "low degree, large diameter: indComp-bound with long relabel lists and almost nothing to reduce",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The runner every measured run uses: 16 ranks on the AMD-cluster
/// platform, default configuration at `sim_scale = scale_div`, with the
/// observer attached only for the traced run.
pub fn runner(scale_div: u64, observer: Option<Arc<dyn PhaseObserver>>) -> MndMstRunner {
    let mut config = HyParConfig::default().with_sim_scale(scale_div as f64);
    if let Some(observer) = observer {
        config = config.with_observer(observer);
    }
    MndMstRunner::new(RANKS).with_config(config)
}
