//! Executing kernels "on" a device: real computation + modelled time.

use mnd_kernels::binning::BinnedSchedule;
use mnd_kernels::boruvka::{local_boruvka, LocalOutput};
use mnd_kernels::cgraph::CGraph;
use mnd_kernels::policy::{ExcpCond, FreezePolicy, StopPolicy};

use crate::model::DeviceModel;

/// A device bound to execution: owns a model and accumulates the simulated
/// time its kernels and transfers cost.
#[derive(Clone, Debug)]
pub struct ExecDevice {
    /// The timing model.
    pub model: DeviceModel,
    elapsed: f64,
    transfer_elapsed: f64,
}

/// Result of one `indComp` execution on a device.
#[derive(Clone, Debug)]
pub struct IndCompRun {
    /// The kernel's output (MSF edges, relabels, work profile).
    pub output: LocalOutput,
    /// Simulated kernel seconds (excludes transfers).
    pub kernel_time: f64,
    /// Simulated transfer seconds (0 for CPUs).
    pub transfer_time: f64,
}

impl ExecDevice {
    /// Wraps a model.
    pub fn new(model: DeviceModel) -> Self {
        ExecDevice {
            model,
            elapsed: 0.0,
            transfer_elapsed: 0.0,
        }
    }

    /// Total simulated kernel seconds so far.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Total simulated transfer seconds so far.
    pub fn transfer_elapsed(&self) -> f64 {
        self.transfer_elapsed
    }

    /// Resets the accumulators (between experiments).
    pub fn reset(&mut self) {
        self.elapsed = 0.0;
        self.transfer_elapsed = 0.0;
    }

    /// Degree-skew fraction of a holding, as the GPU scheduler would see
    /// it: the holding's incident-count column
    /// ([`CGraph::incident_counts`], reusable scratch), binned.
    pub fn holding_skew(cg: &mut CGraph) -> f64 {
        if cg.num_resident() == 0 {
            return 0.0;
        }
        let counts = cg.incident_counts().to_vec();
        let sched = BinnedSchedule::build(counts);
        sched.skew_fraction()
    }

    /// Runs `indComp` on the holding. For GPU devices, charges the
    /// host-to-device upload of the holding before the kernel and the
    /// (much smaller) result download after it, with half the upload
    /// overlapped with execution — the paper's cudaStream overlap (§3.5).
    pub fn run_ind_comp(
        &mut self,
        cg: &mut CGraph,
        excp: ExcpCond,
        freeze: FreezePolicy,
        stop: StopPolicy,
    ) -> IndCompRun {
        let skew = Self::holding_skew(cg);
        let upload_bytes = cg.approx_bytes() as u64;
        let output = local_boruvka(cg, excp, freeze, stop);
        let kernel_time = self.model.kernel_time(&output.work, skew);
        let download_bytes =
            (output.msf_edges.len() * std::mem::size_of::<mnd_graph::WEdge>()) as u64;
        let raw_transfer =
            self.model.transfer_time(upload_bytes) + self.model.transfer_time(download_bytes);
        // cudaStream-style overlap hides up to half the transfer behind the
        // kernel, but never more than the kernel itself runs.
        let hidden = (raw_transfer * 0.5).min(kernel_time);
        let transfer_time = raw_transfer - hidden;
        self.elapsed += kernel_time;
        self.transfer_elapsed += transfer_time;
        IndCompRun {
            output,
            kernel_time,
            transfer_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DeviceModel;
    use mnd_graph::gen;

    fn holding(seed: u64) -> CGraph {
        CGraph::from_edge_list(&gen::gnm(500, 2000, seed))
    }

    #[test]
    fn cpu_and_gpu_produce_identical_results() {
        let mut cg_cpu = holding(1);
        let mut cg_gpu = holding(1);
        let mut cpu = ExecDevice::new(DeviceModel::cpu_xeon_ivybridge());
        let mut gpu = ExecDevice::new(DeviceModel::gpu_k40());
        let a = cpu.run_ind_comp(
            &mut cg_cpu,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let b = gpu.run_ind_comp(
            &mut cg_gpu,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert_eq!(
            a.output.msf_edges, b.output.msf_edges,
            "results must not depend on the device"
        );
        assert_eq!(cg_cpu, cg_gpu);
    }

    #[test]
    fn gpu_charges_transfers_cpu_does_not() {
        let mut cg = holding(2);
        let mut gpu = ExecDevice::new(DeviceModel::gpu_k40());
        let run = gpu.run_ind_comp(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert!(run.transfer_time > 0.0);
        let mut cg = holding(2);
        let mut cpu = ExecDevice::new(DeviceModel::cpu_xeon_ivybridge());
        let run = cpu.run_ind_comp(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert_eq!(run.transfer_time, 0.0);
    }

    #[test]
    fn elapsed_accumulates() {
        let mut dev = ExecDevice::new(DeviceModel::cpu_amd_opteron());
        let mut cg = holding(3);
        dev.run_ind_comp(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        let after_one = dev.elapsed();
        assert!(after_one > 0.0);
        let mut cg = holding(4);
        dev.run_ind_comp(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert!(dev.elapsed() > after_one);
        dev.reset();
        assert_eq!(dev.elapsed(), 0.0);
    }

    #[test]
    fn skew_of_star_holding_is_high() {
        let mut cg = CGraph::from_edge_list(&gen::star(2000, 5));
        assert!(ExecDevice::holding_skew(&mut cg) > 0.4);
        let mut road = CGraph::from_edge_list(&gen::road_grid(20, 20, 0.02, 0.3, 5));
        assert!(ExecDevice::holding_skew(&mut road) < 0.05);
    }

    #[test]
    fn empty_holding_runs_without_cost_blowup() {
        let mut cg = CGraph::new();
        let mut dev = ExecDevice::new(DeviceModel::gpu_k40());
        let run = dev.run_ind_comp(
            &mut cg,
            ExcpCond::None,
            FreezePolicy::Sticky,
            StopPolicy::Exhaustive,
        );
        assert!(run.output.msf_edges.is_empty());
        assert!(run.kernel_time < 1e-3);
    }
}
