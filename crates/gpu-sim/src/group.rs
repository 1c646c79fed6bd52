//! Multi-device simulation: a group of independently-clocked devices and
//! the copy/compute overlap timeline the sharded drivers charge.
//!
//! The paper's testbed is a single K40c; a [`DeviceGroup`] generalizes
//! the simulator to N such devices, each fully independent — its own
//! clock, energy meter, profiler, memory tracker and fault plan — so a
//! fault injected on one device can never perturb another's timeline or
//! results. Aggregates (the makespan [`DeviceGroup::barrier`] returns,
//! [`DeviceGroup::total_energy_j`]) describe the group as one machine:
//! time-to-solution is the slowest device, energy-to-solution is the sum
//! (with [`DeviceGroup::barrier`] charging idle power to the devices
//! that finish early and wait).
//!
//! [`CopyComputeTimeline`] models per-device transfer/compute overlap
//! the way real hardware does it: one H2D DMA engine, one D2H DMA
//! engine, one compute engine, each serializing its own work. Pushing a
//! shard's `(upload, compute, download)` phase durations advances the
//! three engines with the obvious dependencies — compute waits for the
//! shard's upload, download waits for the shard's compute — so the
//! upload of shard *i+1* overlaps the compute of shard *i* exactly as a
//! double-buffered stream schedule would.

use crate::config::DeviceConfig;
use crate::device::Device;
use crate::fault::{FaultPlan, InjectionEvent};

/// A fixed set of simulated devices acting as one machine.
pub struct DeviceGroup {
    devices: Vec<Device>,
}

impl DeviceGroup {
    /// `n` identical devices of configuration `cfg`.
    ///
    /// # Panics
    /// When `n == 0` — a group models at least one device.
    #[must_use]
    pub fn homogeneous(cfg: DeviceConfig, n: usize) -> Self {
        assert!(n > 0, "a device group needs at least one device");
        Self {
            devices: (0..n).map(|_| Device::new(cfg.clone())).collect(),
        }
    }

    /// One device per configuration (heterogeneous groups).
    ///
    /// # Panics
    /// When `cfgs` is empty.
    #[must_use]
    pub fn from_configs(cfgs: Vec<DeviceConfig>) -> Self {
        assert!(!cfgs.is_empty(), "a device group needs at least one device");
        Self {
            devices: cfgs.into_iter().map(Device::new).collect(),
        }
    }

    /// Number of devices.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the group is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Device `i`.
    #[must_use]
    pub fn device(&self, i: usize) -> &Device {
        &self.devices[i]
    }

    /// All devices, in index order.
    #[must_use]
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Installs a fault plan on device `i` only.
    pub fn install_fault_plan(&self, i: usize, plan: FaultPlan) {
        self.devices[i].install_fault_plan(plan);
    }

    /// Clears every device's fault plan, returning each event log in
    /// device order.
    pub fn clear_fault_plans(&self) -> Vec<Vec<InjectionEvent>> {
        self.devices.iter().map(Device::clear_fault_plan).collect()
    }

    /// Time-to-solution: the slowest device's clock.
    #[must_use]
    pub(crate) fn makespan_s(&self) -> f64 {
        self.devices.iter().map(Device::now).fold(0.0, f64::max)
    }

    /// Energy-to-solution: the sum over devices.
    #[must_use]
    pub fn total_energy_j(&self) -> f64 {
        self.devices.iter().map(Device::energy_j).sum()
    }

    /// Resets every device's clock, energy and profiler.
    pub fn reset_metrics(&self) {
        for d in &self.devices {
            d.reset_metrics();
        }
    }

    /// Advances every device to the group makespan, charging the wait at
    /// idle power — the honest energy cost of devices that finish early.
    /// Returns the makespan.
    pub fn barrier(&self) -> f64 {
        let end = self.makespan_s();
        for d in &self.devices {
            let wait = end - d.now();
            if wait > 0.0 {
                d.advance_time(wait, 0.0);
            }
        }
        end
    }
}

/// Per-device three-engine (H2D, compute, D2H) pipeline clock. All times
/// are relative to the timeline's origin; engines serialize their own
/// operations and synchronize only through per-shard dependencies.
#[derive(Clone, Copy, Debug, Default)]
pub struct CopyComputeTimeline {
    htod_free_s: f64,
    compute_free_s: f64,
    dtoh_free_s: f64,
    compute_s: f64,
    transfer_s: f64,
    serial_s: f64,
}

impl CopyComputeTimeline {
    /// A timeline with all three engines idle at t = 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules one shard: `upload_s` on the H2D engine, then
    /// `compute_s` on the compute engine (after the upload lands), then
    /// `download_s` on the D2H engine (after the compute finishes).
    pub fn push(&mut self, upload_s: f64, compute_s: f64, download_s: f64) {
        self.htod_free_s += upload_s;
        self.compute_free_s = self.compute_free_s.max(self.htod_free_s) + compute_s;
        self.dtoh_free_s = self.dtoh_free_s.max(self.compute_free_s) + download_s;
        self.compute_s += compute_s;
        self.transfer_s += upload_s + download_s;
        self.serial_s += upload_s + compute_s + download_s;
    }

    /// Pipelined end-to-end time: when the last engine goes idle.
    #[must_use]
    pub fn total_s(&self) -> f64 {
        self.htod_free_s
            .max(self.compute_free_s)
            .max(self.dtoh_free_s)
    }

    /// What the same phases would cost fully serialized (no overlap).
    #[must_use]
    pub fn serial_s(&self) -> f64 {
        self.serial_s
    }

    /// Accumulated compute-engine busy time.
    #[must_use]
    pub fn compute_busy_s(&self) -> f64 {
        self.compute_s
    }

    /// Accumulated transfer-engine busy time (both directions).
    #[must_use]
    pub fn transfer_busy_s(&self) -> f64 {
        self.transfer_s
    }

    /// Fraction of transfer time hidden behind compute: 0 = fully
    /// serialized, 1 = every transfer byte overlapped. Defined as
    /// `(serial − pipelined) / transfer`, clamped to `[0, 1]`; a
    /// timeline with no transfers reports 1.
    #[must_use]
    pub fn overlap_efficiency(&self) -> f64 {
        if self.transfer_s <= 0.0 {
            return 1.0;
        }
        ((self.serial_s - self.total_s()) / self.transfer_s).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_devices_are_independent() {
        let g = DeviceGroup::homogeneous(DeviceConfig::tiny_test(), 3);
        assert_eq!(g.len(), 3);
        g.device(1).advance_time(2.0, 0.5);
        assert_eq!(g.device(0).now(), 0.0);
        assert_eq!(g.device(1).now(), 2.0);
        assert!((g.makespan_s() - 2.0).abs() < 1e-12);
        // Barrier drags the laggards forward at idle power.
        let e_before = g.device(0).energy_j();
        g.barrier();
        assert_eq!(g.device(0).now(), 2.0);
        let idle = g.device(0).config().idle_power_w * 2.0;
        assert!((g.device(0).energy_j() - e_before - idle).abs() < 1e-9);
    }

    #[test]
    fn heterogeneous_group_keeps_config_order() {
        let g = DeviceGroup::from_configs(vec![DeviceConfig::k40c(), DeviceConfig::tiny_test()]);
        assert_eq!(g.device(0).config().name, DeviceConfig::k40c().name);
        assert_eq!(g.device(1).config().name, DeviceConfig::tiny_test().name);
    }

    #[test]
    fn timeline_overlaps_transfers_with_compute() {
        // Three equal shards: uploads/downloads fully hide behind the
        // long computes except for the first upload and last download.
        let mut t = CopyComputeTimeline::new();
        for _ in 0..3 {
            t.push(1.0, 10.0, 1.0);
        }
        assert!((t.serial_s() - 36.0).abs() < 1e-12);
        assert!((t.total_s() - 32.0).abs() < 1e-12);
        assert!((t.compute_busy_s() - 30.0).abs() < 1e-12);
        // 4 of 6 transfer-seconds hidden.
        assert!((t.overlap_efficiency() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_bound_timeline_is_honest() {
        // Compute far smaller than transfers: almost nothing hides.
        let mut t = CopyComputeTimeline::new();
        t.push(10.0, 1.0, 10.0);
        assert!((t.total_s() - 21.0).abs() < 1e-12);
        assert_eq!(t.overlap_efficiency(), 0.0);
        // A second shard's upload overlaps the first's download.
        t.push(10.0, 1.0, 10.0);
        assert!(t.total_s() < t.serial_s());
    }

    #[test]
    fn empty_timeline_defaults() {
        let t = CopyComputeTimeline::new();
        assert_eq!(t.total_s(), 0.0);
        assert_eq!(t.overlap_efficiency(), 1.0);
    }
}
