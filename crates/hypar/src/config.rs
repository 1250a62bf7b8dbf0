//! HyPar runtime configuration (§4.3).

use mnd_kernels::policy::{ExcpCond, FreezePolicy, KernelPolicy, StopPolicy};

use crate::chaos::ChaosHook;
use crate::observe::ObserverHook;

/// Where the recursion-stop threshold (§4.3.3) comes from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecursionThresholdSource {
    /// Use [`HyParConfig::recursion_edge_threshold`] verbatim (the paper's
    /// static 100M-edge constant).
    Fixed,
    /// Derive the threshold from the platform model: the edge volume whose
    /// local processing time matches a recursion round's collective
    /// latency (`mnd_device::calibrated_recursion_threshold`), so the
    /// recursion stops exactly when another distributed round would cost
    /// more than it saves on *this* hardware.
    #[default]
    Calibrated,
}

/// All tunables of the HyPar runtime, with the paper's defaults.
#[derive(Clone, Debug, PartialEq)]
pub struct HyParConfig {
    /// Hierarchical-merge group size (§3.4: 2/4/8/16 studied, 4 chosen).
    pub group_size: usize,
    /// Exception condition for independent computations (§4.1.2).
    pub excp: ExcpCond,
    /// Freeze interpretation (paper-literal sticky vs. recheck).
    pub freeze: FreezePolicy,
    /// Stop policy for device iterations (§4.3.2: diminishing benefits).
    pub stop: StopPolicy,
    /// Recursion threshold in **paper-scale** edges (§4.3.3: re-enter
    /// partition→indComp→merge while the reduced graph exceeds this; the
    /// paper uses 100M edges). Only consulted when
    /// [`HyParConfig::recursion_threshold_source`] is
    /// [`RecursionThresholdSource::Fixed`].
    pub recursion_edge_threshold: u64,
    /// How the recursion threshold is chosen: the paper's fixed constant
    /// or a platform-calibrated break-even point (the default).
    pub recursion_threshold_source: RecursionThresholdSource,
    /// Hierarchical-merge convergence (§4.3.4): stop ring exchanges and
    /// merge to the leader once an exchange round shrinks the group's data
    /// by less than this fraction.
    pub merge_min_shrink: f64,
    /// Group data threshold in paper-scale edges: below this the group's
    /// components are moved to the leader outright (Algorithm 1 line 7's
    /// `gEdges > threshold` test). §3.4 ties it to node capacity — ring
    /// exchange runs only "until all the components in a group can be
    /// accommodated in a single node" — so the default corresponds to a
    /// 32 GB node at ~20 bytes/edge with headroom for working structures.
    pub group_edge_threshold: u64,
    /// Calibration samples for the CPU/GPU ratio (§4.3.1: 5–10).
    pub calibration_samples: u32,
    /// Calibration sample size as a fraction of vertices (§4.3.1: 5%).
    pub calibration_frac: f64,
    /// Simulation scale: our stand-in graphs are `1/sim_scale` of the
    /// paper's; device work and message bytes are multiplied by this so
    /// fixed overheads keep their paper-scale ratios (DESIGN.md).
    pub sim_scale: f64,
    /// Maximum ring-exchange rounds per level (a safety valve; the
    /// convergence test normally fires first).
    pub max_exchange_rounds: usize,
    /// Deterministic seed for calibration sampling.
    pub seed: u64,
    /// Holding-plane kernel policy. It has no settings: every kernel has
    /// one sequential path. The field remains only because the
    /// `perfbench/` harness reads it.
    pub kernel_policy: KernelPolicy,
    /// Optional phase observer: fired by the driver at every phase boundary
    /// with the phase's time/traffic sample (see [`crate::observe`]).
    pub observer: ObserverHook,
    /// Optional phase-level chaos control: stalls/crashes at checkpoint
    /// boundaries and leader failures at merge levels (see
    /// [`crate::chaos`]). When unset the driver skips all checkpointing, so
    /// fault-free runs are byte-identical to pre-chaos builds.
    pub chaos: ChaosHook,
    /// Use the sparse all-to-all schedule (bitmap count header, only
    /// non-empty buckets ship) for the boundary exchanges. `false` restores
    /// the dense oracle path that pays for empty buckets; results are
    /// byte-identical either way, only traffic changes (DESIGN.md §8).
    pub sparse_exchange: bool,
    /// Ship boundary/relabel payloads through the compressed-relabeling
    /// codecs (`mnd_wire::pack`): delta-varint boundary ids and
    /// dictionary-densified rename pairs, inverted on receipt. Affects wire
    /// bytes only, never routed contents.
    pub compressed_relabels: bool,
    /// Filter-Boruvka sampling probability applied to each rank's level-0
    /// holding before the first exchange (DESIGN.md §8). `0.0` (default)
    /// disables the filter; `1.0` degenerates to a full local Kruskal
    /// filter. Any value is exact — only provably-non-MST edges are
    /// dropped — but nonzero values change which edges the pipeline
    /// carries, so fixtures pinning traffic byte counts keep it off.
    pub filter_sample_prob: f64,
    /// Recovery points between checkpoints when a chaos schedule is armed:
    /// the driver reaches a recovery point after partitioning and after
    /// every mergeParts pass, and takes every `checkpoint_interval`-th one
    /// as a checkpoint boundary. The default of 1 checkpoints at every
    /// recovery point (the historic behaviour); larger values trade
    /// checkpoint overhead for more re-execution after a crash (see
    /// `repro checkpoint-sweep`). Ignored on fault-free runs.
    pub checkpoint_interval: u64,
}

impl Default for HyParConfig {
    fn default() -> Self {
        HyParConfig {
            group_size: 4,
            excp: ExcpCond::BorderEdge,
            freeze: FreezePolicy::Sticky,
            stop: StopPolicy::DiminishingBenefit {
                min_improvement: 0.05,
            },
            recursion_edge_threshold: 100_000_000,
            recursion_threshold_source: RecursionThresholdSource::default(),
            merge_min_shrink: 0.10,
            group_edge_threshold: 1_000_000_000,
            calibration_samples: 6,
            calibration_frac: 0.05,
            sim_scale: 1.0,
            max_exchange_rounds: 8,
            seed: 0x4D4E_442D,
            kernel_policy: KernelPolicy,
            observer: ObserverHook::none(),
            chaos: ChaosHook::none(),
            sparse_exchange: true,
            compressed_relabels: true,
            filter_sample_prob: 0.0,
            checkpoint_interval: 1,
        }
    }
}

impl HyParConfig {
    /// Config with a simulation scale (see [`HyParConfig::sim_scale`]).
    pub fn with_sim_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0);
        self.sim_scale = scale;
        self
    }

    /// The recursion threshold expressed in *our* (scaled-down) edges.
    pub fn scaled_recursion_threshold(&self) -> u64 {
        ((self.recursion_edge_threshold as f64 / self.sim_scale).ceil() as u64).max(1)
    }

    /// The group-merge threshold in scaled-down edges.
    pub fn scaled_group_threshold(&self) -> u64 {
        ((self.group_edge_threshold as f64 / self.sim_scale).ceil() as u64).max(1)
    }

    /// Sets where the recursion threshold comes from (fixed paper constant
    /// vs. platform-calibrated break-even).
    pub fn with_recursion_threshold_source(mut self, source: RecursionThresholdSource) -> Self {
        self.recursion_threshold_source = source;
        self
    }

    /// Attaches a phase observer (see [`crate::observe::PhaseObserver`]).
    pub fn with_observer(
        mut self,
        observer: std::sync::Arc<dyn crate::observe::PhaseObserver>,
    ) -> Self {
        self.observer = ObserverHook::new(observer);
        self
    }

    /// Attaches a phase-level chaos control (see
    /// [`crate::chaos::ChaosControl`]); this also enables checkpointing at
    /// phase boundaries.
    pub fn with_chaos(mut self, control: std::sync::Arc<dyn crate::chaos::ChaosControl>) -> Self {
        self.chaos = ChaosHook::new(control);
        self
    }

    /// Sets the checkpoint cadence at recovery points (see
    /// [`HyParConfig::checkpoint_interval`]).
    pub fn with_checkpoint_interval(mut self, interval: u64) -> Self {
        self.checkpoint_interval = interval.max(1);
        self
    }

    /// Chooses between the sparse exchange schedule and the dense oracle
    /// (see [`HyParConfig::sparse_exchange`]).
    pub fn with_sparse_exchange(mut self, sparse: bool) -> Self {
        self.sparse_exchange = sparse;
        self
    }

    /// Toggles the compressed relabeling codecs (see
    /// [`HyParConfig::compressed_relabels`]).
    pub fn with_compressed_relabels(mut self, compressed: bool) -> Self {
        self.compressed_relabels = compressed;
        self
    }

    /// Sets the filter-Boruvka sampling probability (see
    /// [`HyParConfig::filter_sample_prob`]).
    pub fn with_filter_sample_prob(mut self, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "probability in [0, 1]");
        self.filter_sample_prob = prob;
        self
    }

    /// The `mnd_net::ExchangeMode`-shaped view of
    /// [`HyParConfig::sparse_exchange`] is derived by the drivers; this
    /// helper keeps the boolean the single source of truth for tests.
    pub fn exchange_is_sparse(&self) -> bool {
        self.sparse_exchange
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HyParConfig::default();
        assert_eq!(c.group_size, 4);
        assert_eq!(c.recursion_edge_threshold, 100_000_000);
        assert_eq!(
            c.recursion_threshold_source,
            RecursionThresholdSource::Calibrated
        );
        assert_eq!(c.excp, ExcpCond::BorderEdge);
        assert!((0.0..1.0).contains(&c.calibration_frac));
        // Communication engineering (DESIGN.md §8): sparse exchanges and
        // compressed relabels are pure wire-cost changes, on by default;
        // the filter changes carried edge sets, so it is opt-in.
        assert!(c.sparse_exchange);
        assert!(c.compressed_relabels);
        assert_eq!(c.filter_sample_prob, 0.0);
    }

    #[test]
    fn comm_knob_builders() {
        let c = HyParConfig::default()
            .with_sparse_exchange(false)
            .with_compressed_relabels(false)
            .with_filter_sample_prob(0.25);
        assert!(!c.exchange_is_sparse());
        assert!(!c.compressed_relabels);
        assert_eq!(c.filter_sample_prob, 0.25);
    }

    #[test]
    fn scaled_thresholds_divide_by_sim_scale() {
        let c = HyParConfig::default().with_sim_scale(2048.0);
        assert_eq!(
            c.scaled_recursion_threshold(),
            (100_000_000f64 / 2048.0).ceil() as u64
        );
        assert!(c.scaled_group_threshold() >= 1);
    }

    #[test]
    fn thresholds_never_zero() {
        let c = HyParConfig {
            recursion_edge_threshold: 1,
            group_edge_threshold: 1,
            ..Default::default()
        }
        .with_sim_scale(1e9);
        assert_eq!(c.scaled_recursion_threshold(), 1);
        assert_eq!(c.scaled_group_threshold(), 1);
    }
}
