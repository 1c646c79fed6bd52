//! The simulated device: allocation, kernel launch, clock and energy.

use crate::config::DeviceConfig;
use crate::cost::{BlockCost, BlockCtx};
use crate::energy::{EnergyMeter, PowerModel};
use crate::fault::{FaultPlan, FaultState, InjectionEvent};
use crate::grid::LaunchConfig;
use crate::mem::{DeviceBuffer, DevicePtr, MemoryTracker, OomError};
use crate::occupancy::{occupancy, OccupancyError};
use crate::sched::{block_service_cycles, schedule_blocks, KernelTiming};
use crate::stats::{KernelStats, Profiler};
use crate::workers::{executor, lock, try_lock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A kernel launch was rejected before execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchError {
    /// The launch configuration violates a device limit.
    Occupancy(OccupancyError),
    /// An installed [`FaultPlan`] rejected the launch (transient fault
    /// model). Like an occupancy rejection, no block ran.
    Injected,
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::Occupancy(e) => write!(f, "launch rejected: {e}"),
            LaunchError::Injected => write!(f, "launch rejected: injected transient fault"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<OccupancyError> for LaunchError {
    fn from(e: OccupancyError) -> Self {
        LaunchError::Occupancy(e)
    }
}

struct Inner {
    clock_s: f64,
    energy: EnergyMeter,
    profiler: Profiler,
    launches: u64,
}

/// Pooled per-launch scratch: the block-cost vector the kernel fills and
/// the SM-availability vector the scheduler sweeps. Both grow to the
/// largest grid seen and are then reused, so the steady-state launch
/// path performs no heap allocation.
#[derive(Default)]
struct LaunchScratch {
    costs: Vec<BlockCost>,
    sm_free: Vec<f64>,
}

/// A simulated accelerator.
///
/// Kernels launched on the device execute *for real* on host threads
/// (producing actual numeric results in device buffers) while the cost
/// model advances the simulated clock. The device is `Sync`; launches
/// serialize on an internal lock for the timeline (matching the default
/// CUDA stream semantics).
pub struct Device {
    cfg: DeviceConfig,
    mem: Arc<MemoryTracker>,
    inner: Mutex<Inner>,
    scratch: Mutex<LaunchScratch>,
    /// Fast-path gate for fault injection: a single relaxed load when no
    /// plan is installed, so the chaos seam costs nothing in production
    /// runs (the `alloc_regression` / `sim_invariance` contract).
    fault_on: AtomicBool,
    fault: Mutex<Option<FaultState>>,
}

impl Device {
    /// Creates a device with the given configuration.
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> Self {
        let mem = MemoryTracker::new(cfg.global_mem_bytes);
        let energy = EnergyMeter::new(PowerModel {
            idle_w: cfg.idle_power_w,
            max_w: cfg.max_power_w,
        });
        Self {
            cfg,
            mem,
            inner: Mutex::new(Inner {
                clock_s: 0.0,
                energy,
                profiler: Profiler::default(),
                launches: 0,
            }),
            scratch: Mutex::new(LaunchScratch::default()),
            fault_on: AtomicBool::new(false),
            fault: Mutex::new(None),
        }
    }

    /// Installs a deterministic [`FaultPlan`]; subsequent launches and
    /// allocations pass through its injection checks. Replaces any plan
    /// already installed (discarding its event log).
    pub fn install_fault_plan(&self, plan: FaultPlan) {
        *lock(&self.fault) = Some(FaultState::new(plan));
        self.fault_on.store(true, Ordering::Release);
    }

    /// Removes the installed plan (if any) and returns its injection
    /// event log.
    pub fn clear_fault_plan(&self) -> Vec<InjectionEvent> {
        self.fault_on.store(false, Ordering::Release);
        lock(&self.fault)
            .take()
            .map_or_else(Vec::new, FaultState::into_events)
    }

    /// Whether a fault plan is currently installed.
    #[must_use]
    pub fn fault_active(&self) -> bool {
        self.fault_on.load(Ordering::Acquire)
    }

    /// Snapshot of the injections fired so far under the installed plan
    /// (empty when none is installed).
    #[must_use]
    pub fn fault_events(&self) -> Vec<InjectionEvent> {
        lock(&self.fault)
            .as_ref()
            .map_or_else(Vec::new, FaultState::events)
    }

    /// Registers a buffer as a corruption target under `name` (see
    /// [`crate::fault::Fault::Corrupt`]). No-op without an installed
    /// plan. The caller must keep the buffer alive while the plan is
    /// installed — the same lifetime contract as [`DevicePtr`].
    pub fn register_fault_target<T>(&self, name: String, ptr: DevicePtr<T>) {
        if !self.fault_active() {
            return;
        }
        if let Some(st) = lock(&self.fault).as_mut() {
            st.register_target(name, ptr.raw().cast(), ptr.len(), std::mem::size_of::<T>());
        }
    }

    /// Injection check for a launch attempt; `true` means reject.
    fn fault_try_inject_launch(&self, name: &'static str) -> bool {
        lock(&self.fault)
            .as_mut()
            .is_some_and(|st| st.on_launch(name))
    }

    /// Injection check for an allocation attempt.
    fn fault_check_alloc(&self, bytes: usize) -> Option<OomError> {
        lock(&self.fault)
            .as_mut()
            .and_then(|st| st.on_alloc(bytes, self.mem.in_use(), self.mem.capacity()))
    }

    /// Applies any due buffer corruption (called after a commit).
    fn fault_after_launch(&self) {
        if let Some(st) = lock(&self.fault).as_mut() {
            st.after_launch();
        }
    }

    /// Device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Allocates a zero-initialized buffer of `len` elements.
    ///
    /// # Errors
    /// [`OomError`] when device memory is exhausted — the padding
    /// baseline's failure mode.
    pub fn alloc<T: Copy + Default>(&self, len: usize) -> Result<DeviceBuffer<T>, OomError> {
        if self.fault_on.load(Ordering::Relaxed) {
            if let Some(e) = self.fault_check_alloc(len * std::mem::size_of::<T>()) {
                return Err(e);
            }
        }
        DeviceBuffer::new(len, Arc::clone(&self.mem))
    }

    /// Bytes of device memory currently allocated.
    #[must_use]
    pub fn mem_in_use(&self) -> usize {
        self.mem.in_use()
    }

    /// High-water mark of device memory use.
    #[must_use]
    pub fn mem_peak(&self) -> usize {
        self.mem.peak()
    }

    /// Cumulative device-buffer allocations (monotonic; survives
    /// [`Device::reset_metrics`]). Diff across a driver call to verify a
    /// warm-workspace steady state allocates nothing.
    #[must_use]
    pub fn alloc_count(&self) -> u64 {
        self.mem.alloc_count()
    }

    /// Cumulative device-buffer frees (monotonic).
    #[must_use]
    pub fn free_count(&self) -> u64 {
        self.mem.free_count()
    }

    /// Launch overhead in seconds (host-side issue cost per kernel).
    #[must_use]
    pub fn launch_overhead_s(&self) -> f64 {
        self.cfg.kernel_launch_overhead_us * 1e-6
    }

    /// Launches `kernel` over `cfg`, executing every block and advancing
    /// the simulated clock. Blocks run on the process-wide launch
    /// executor (a persistent worker pool whose lanes, this thread
    /// included, claim blocks dynamically; see DESIGN.md §6c), or inline
    /// on this thread when the grid has a single block, the process has
    /// one lane, or the executor is busy with another launch. A panic in
    /// a block is re-raised here once every lane has stopped; nothing is
    /// committed and the device stays usable.
    ///
    /// `name` is `&'static str` by design: kernel names form a small
    /// static vocabulary of compile-time constants, which keeps the
    /// per-launch bookkeeping allocation-free. Block costs and the scheduler's SM
    /// sweep run in pooled scratch reused across launches.
    ///
    /// # Errors
    /// [`LaunchError`] if the configuration violates device limits; no
    /// block runs in that case (as in CUDA).
    pub fn launch<F>(
        &self,
        name: &'static str,
        cfg: LaunchConfig,
        kernel: F,
    ) -> Result<KernelStats, LaunchError>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        let occ = occupancy(&self.cfg, &cfg)?;
        let faulty = self.fault_on.load(Ordering::Relaxed);
        if faulty && self.fault_try_inject_launch(name) {
            return Err(LaunchError::Injected);
        }
        let launch_s = self.launch_overhead_s();
        let timing = match try_lock(&self.scratch) {
            Some(mut scratch) => {
                let LaunchScratch { costs, sm_free } = &mut *scratch;
                self.run_blocks_into(&cfg, &kernel, costs);
                schedule_blocks(&self.cfg, costs, &occ, launch_s, sm_free)
            }
            // Another thread is mid-launch: fall back to fresh buffers
            // rather than serializing block *execution* on the pool.
            None => {
                let mut costs = Vec::new();
                let mut sm_free = Vec::new();
                self.run_blocks_into(&cfg, &kernel, &mut costs);
                schedule_blocks(&self.cfg, &costs, &occ, launch_s, &mut sm_free)
            }
        };
        self.commit(name, &timing);
        if faulty {
            self.fault_after_launch();
        }
        Ok(KernelStats {
            name,
            config: cfg,
            occupancy: occ,
            time_s: timing.total_s,
            timing,
        })
    }

    /// Predicted simulated seconds of launching `cfg` when every block
    /// charges what `charge` records: the launch overhead plus
    /// `⌈blocks / num_sms⌉` service times of that block at the launch's
    /// occupancy. For identical blocks this is what [`Device::launch`]
    /// charges under the greedy scheduler. No block runs, and neither
    /// the clock, the profiler nor a fault plan sees the prediction.
    ///
    /// # Errors
    /// [`LaunchError::Occupancy`] if the configuration violates device
    /// limits, exactly when [`Device::launch`] would reject it.
    pub fn predict_launch(
        &self,
        cfg: &LaunchConfig,
        charge: impl FnOnce(&mut BlockCtx),
    ) -> Result<f64, LaunchError> {
        let occ = occupancy(&self.cfg, cfg)?;
        let mut ctx = BlockCtx::new(
            cfg.grid.unflatten(0),
            cfg.block,
            cfg.grid,
            self.cfg.warp_size,
        );
        charge(&mut ctx);
        let service = block_service_cycles(&self.cfg, &occ, &ctx.into_cost()) * self.cfg.cycle_s();
        let waves = cfg.grid.count().div_ceil(u64::from(self.cfg.num_sms));
        Ok(self.launch_overhead_s() + waves as f64 * service)
    }

    fn run_blocks_into<F>(&self, cfg: &LaunchConfig, kernel: &F, costs: &mut Vec<BlockCost>)
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        let n_blocks = cfg.grid.count();
        let slots = usize::try_from(n_blocks).expect("grid block count fits in usize");
        costs.clear();
        costs.resize(slots, BlockCost::default());
        // Each block writes its own slot, so `costs[linear]` — the
        // scheduler's input — is the same for any lane count and any
        // order the executor's lanes claim blocks in.
        executor().claim(costs, |first, chunk| {
            for (linear, cost) in (first as u64..).zip(chunk) {
                let idx = cfg.grid.unflatten(linear);
                let mut ctx = BlockCtx::new(idx, cfg.block, cfg.grid, self.cfg.warp_size);
                kernel(&mut ctx);
                *cost = ctx.into_cost();
            }
        });
    }

    fn commit(&self, name: &'static str, timing: &KernelTiming) {
        let mut inner = lock(&self.inner);
        inner.clock_s += timing.total_s;
        // Launch issue burns idle power; execution burns at the busy
        // fraction.
        inner.energy.add_interval(timing.launch_s, 0.0);
        inner
            .energy
            .add_interval(timing.exec_s, timing.busy_fraction);
        inner.profiler.record(name, timing);
        inner.launches += 1;
    }

    /// Charges a host→device copy of `bytes` to the simulated clock.
    pub fn copy_htod_bytes(&self, bytes: usize) -> f64 {
        self.transfer(bytes)
    }

    /// Charges a device→host copy of `bytes` to the simulated clock.
    pub fn copy_dtoh_bytes(&self, bytes: usize) -> f64 {
        self.transfer(bytes)
    }

    /// Duration of a PCIe transfer of `bytes` without charging the
    /// clock — the building block for overlap schedules
    /// ([`crate::group::CopyComputeTimeline`]) that account transfer time against a DMA engine instead of the
    /// serial timeline.
    #[must_use]
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.cfg.pcie_latency_us * 1e-6 + bytes as f64 / (self.cfg.pcie_bandwidth_gbs * 1e9)
    }

    fn transfer(&self, bytes: usize) -> f64 {
        let t = self.transfer_seconds(bytes);
        let mut inner = lock(&self.inner);
        inner.clock_s += t;
        inner.energy.add_interval(t, 0.0);
        t
    }

    /// Advances the simulated clock by `seconds` at the given device
    /// activity (0 = idle). Used by hybrid baselines to account for
    /// host-side work the device waits on.
    pub fn advance_time(&self, seconds: f64, activity: f64) {
        let mut inner = lock(&self.inner);
        inner.clock_s += seconds;
        inner.energy.add_interval(seconds, activity);
    }

    /// Current simulated time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        lock(&self.inner).clock_s
    }

    /// Energy consumed so far, joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        lock(&self.inner).energy.joules()
    }

    /// Total kernel launches issued so far.
    #[must_use]
    pub fn launch_count(&self) -> u64 {
        lock(&self.inner).launches
    }

    /// Resets clock, energy and profiler (memory stays allocated) —
    /// call before a measured region.
    pub fn reset_metrics(&self) {
        let mut inner = lock(&self.inner);
        inner.clock_s = 0.0;
        inner.energy.reset();
        inner.profiler.reset();
        inner.launches = 0;
    }

    /// Runs `f` with a snapshot view of the profiler.
    pub fn with_profiler<R>(&self, f: impl FnOnce(&Profiler) -> R) -> R {
        let inner = lock(&self.inner);
        f(&inner.profiler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Dim3;

    fn dev() -> Device {
        Device::new(DeviceConfig::tiny_test())
    }

    #[test]
    fn launch_executes_real_numerics() {
        let d = dev();
        let buf = d.alloc::<f64>(128).unwrap();
        buf.fill_from_host(&(0..128).map(|i| i as f64).collect::<Vec<_>>());
        let p = buf.ptr();
        d.launch("square", LaunchConfig::grid_1d(4, 32), move |blk| {
            let base = blk.block_idx().x as usize * 32;
            for i in 0..32 {
                p.set(base + i, p.get(base + i) * p.get(base + i));
            }
            blk.dp_flops(32, 1.0);
        })
        .unwrap();
        let host = buf.read_to_host();
        assert_eq!(host[5], 25.0);
        assert_eq!(host[127], 127.0 * 127.0);
    }

    #[test]
    fn clock_advances_and_resets() {
        let d = dev();
        assert_eq!(d.now(), 0.0);
        d.launch("noop", LaunchConfig::grid_1d(1, 32), |_blk| {})
            .unwrap();
        let t1 = d.now();
        assert!(t1 >= d.launch_overhead_s());
        d.launch("noop", LaunchConfig::grid_1d(1, 32), |_blk| {})
            .unwrap();
        assert!(d.now() > t1);
        assert_eq!(d.launch_count(), 2);
        d.reset_metrics();
        assert_eq!(d.now(), 0.0);
        assert_eq!(d.launch_count(), 0);
    }

    #[test]
    fn more_work_takes_more_simulated_time() {
        let d = dev();
        let s1 = d
            .launch("small", LaunchConfig::grid_1d(2, 32), |blk| {
                blk.dp_flops(32, 100.0);
            })
            .unwrap();
        let s2 = d
            .launch("big", LaunchConfig::grid_1d(2, 32), |blk| {
                blk.dp_flops(32, 100000.0);
            })
            .unwrap();
        assert!(s2.time_s > s1.time_s);
    }

    #[test]
    fn launch_rejected_without_side_effects() {
        let d = dev();
        let before = d.now();
        let err = d.launch("bad", LaunchConfig::grid_1d(1, 4096), |_blk| {
            panic!("must not run")
        });
        assert!(err.is_err());
        assert_eq!(d.now(), before);
    }

    #[test]
    fn predicted_launch_matches_identical_blocks() {
        let d = dev();
        let charge = |blk: &mut BlockCtx| {
            blk.dp_flops(48, 3000.0);
            blk.gmem_read(4096);
            blk.sync();
        };
        // 1, 2 and 3 waves over the tiny config's two SMs, with two
        // resident blocks each (64 threads of a 256-thread SM, 512 B of
        // a 1 KiB shared memory).
        for blocks in [1u32, 4, 5] {
            let cfg = LaunchConfig::grid_1d(blocks, 64).with_shared_mem(512);
            let (now, launches) = (d.now(), d.launch_count());
            let predicted = d.predict_launch(&cfg, charge).unwrap();
            assert_eq!(
                (d.now(), d.launch_count()),
                (now, launches),
                "prediction ran"
            );
            let stats = d.launch("same", cfg, charge).unwrap();
            assert!(
                (predicted - stats.time_s).abs() <= 1e-12 * stats.time_s,
                "{blocks} blocks: predicted {predicted}, launched {}",
                stats.time_s
            );
        }
        let bad = LaunchConfig::grid_1d(1, 4096);
        assert!(matches!(
            d.predict_launch(&bad, |_| {}),
            Err(LaunchError::Occupancy(_))
        ));
    }

    #[test]
    fn energy_increases_with_time() {
        let d = dev();
        d.launch("k", LaunchConfig::grid_1d(4, 32), |blk| {
            blk.dp_flops(32, 1e6);
        })
        .unwrap();
        let e = d.energy_j();
        assert!(e > 0.0);
        // Power must lie between idle and max.
        let t = d.now();
        assert!(e >= d.config().idle_power_w * t * 0.99);
        assert!(e <= d.config().max_power_w * t * 1.01);
    }

    #[test]
    fn transfers_charge_pcie_time() {
        let d = dev();
        let t = d.copy_htod_bytes(1_000_000);
        // 1 MB at 1 GB/s = 1 ms plus 5 µs latency.
        assert!((t - (1e-3 + 5e-6)).abs() < 1e-9);
        assert!((d.now() - t).abs() < 1e-12);
    }

    #[test]
    fn profiler_sees_kernel_names() {
        let d = dev();
        d.launch("aux_compute_max", LaunchConfig::grid_1d(1, 32), |_b| {})
            .unwrap();
        d.launch("fused_step", LaunchConfig::grid_1d(2, 32), |blk| {
            blk.dp_flops(32, 1e5);
        })
        .unwrap();
        d.with_profiler(|p| {
            assert_eq!(p.get("aux_compute_max").unwrap().launches, 1);
            assert!(p.time_fraction_matching("aux") < 0.5);
        });
    }

    #[test]
    fn grid_2d_indices_cover_all_blocks() {
        let d = dev();
        let buf = d.alloc::<i32>(12).unwrap();
        let p = buf.ptr();
        d.launch(
            "mark",
            LaunchConfig::new(Dim3::xy(4, 3), Dim3::x(32), 0),
            move |blk| {
                let id = blk.linear_block_id();
                p.set(id, 1);
            },
        )
        .unwrap();
        assert_eq!(buf.read_to_host(), vec![1; 12]);
    }

    #[test]
    fn oom_is_reported() {
        let d = dev(); // 1 MB capacity
        let r = d.alloc::<f64>(1024 * 1024);
        assert!(r.is_err());
    }

    #[test]
    fn injected_launch_has_no_side_effects_and_recovers() {
        let d = dev();
        d.install_fault_plan(FaultPlan::new().transient_launch("victim", 0, 1));
        let before = d.now();
        let err = d.launch("victim", LaunchConfig::grid_1d(1, 32), |_blk| {
            panic!("must not run")
        });
        assert_eq!(err.unwrap_err(), LaunchError::Injected);
        assert_eq!(d.now(), before, "rejected launch advanced the clock");
        assert_eq!(d.launch_count(), 0);
        // The retry is match #1 and passes.
        d.launch("victim", LaunchConfig::grid_1d(1, 32), |_blk| {})
            .unwrap();
        let events = d.clear_fault_plan();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0],
            InjectionEvent::LaunchRejected {
                name: "victim",
                launch: 0
            }
        ));
        assert!(!d.fault_active());
    }

    #[test]
    fn injected_oom_and_soft_ceiling() {
        let d = dev();
        d.install_fault_plan(FaultPlan::new().oom_at_alloc(0).soft_ceiling(4096));
        let e = d.alloc::<f64>(8).err().expect("attempt 0 must be denied");
        assert_eq!(e.requested, 64);
        let b = d.alloc::<f64>(8).unwrap(); // one-shot: retry succeeds
        assert_eq!(d.mem_in_use(), 64);
        // 8 KB > 4 KB ceiling.
        let e = d.alloc::<f64>(1024).err().expect("ceiling must deny");
        assert_eq!(e.capacity, 4096, "ceiling reported as capacity");
        drop(b);
        assert_eq!(d.mem_in_use(), 0, "denied allocs leak nothing");
        assert_eq!(d.fault_events().len(), 2);
        d.clear_fault_plan();
    }

    #[test]
    fn corruption_fires_between_launches_on_registered_target() {
        let d = dev();
        let buf = d.alloc::<f64>(16).unwrap();
        buf.fill_from_host(&[1.0; 16]);
        d.install_fault_plan(FaultPlan::new().corrupt("mat", 1, 3, crate::fault::Corruption::Nan));
        d.register_fault_target("mat0".to_string(), buf.ptr());
        d.launch("k", LaunchConfig::grid_1d(1, 32), |_blk| {})
            .unwrap();
        let host = buf.read_to_host();
        assert!(host[3].is_nan());
        assert_eq!(host.iter().filter(|v| v.is_nan()).count(), 1);
        let events = d.clear_fault_plan();
        assert!(matches!(
            &events[0],
            InjectionEvent::Corrupted { elem: 3, .. }
        ));
    }
}
