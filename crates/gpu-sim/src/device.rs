//! The simulated device: allocation, kernel launch, streams, clock and
//! energy.

use parking_lot::Mutex;
use rayon::prelude::*;

use crate::config::DeviceConfig;
use crate::cost::{BlockCost, BlockCtx};
use crate::energy::{EnergyMeter, PowerModel};
use crate::fault::{FaultPlan, FaultState, InjectionEvent};
use crate::grid::LaunchConfig;
use crate::mem::{DeviceBuffer, DevicePtr, MemoryTracker, OomError};
use crate::occupancy::{occupancy, Occupancy, OccupancyError};
use crate::sched::{schedule_blocks, schedule_blocks_uniform, KernelTiming};
use crate::stats::{KernelStats, Profiler};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
/// CUDA stream semantics). Use [`Device::stream_group`] for concurrent
/// kernel execution.
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
        *self.fault.lock() = Some(FaultState::new(plan));
        self.fault_on.store(true, Ordering::Release);
    }

    /// Removes the installed plan (if any) and returns its injection
    /// event log.
    pub fn clear_fault_plan(&self) -> Vec<InjectionEvent> {
        self.fault_on.store(false, Ordering::Release);
        self.fault
            .lock()
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
        self.fault
            .lock()
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
        if let Some(st) = self.fault.lock().as_mut() {
            st.register_target(name, ptr.raw().cast(), ptr.len(), std::mem::size_of::<T>());
        }
    }

    /// Injection check for a launch attempt; `true` means reject.
    fn fault_try_inject_launch(&self, name: &'static str) -> bool {
        self.fault
            .lock()
            .as_mut()
            .is_some_and(|st| st.on_launch(name))
    }

    /// Injection check for an allocation attempt.
    fn fault_check_alloc(&self, bytes: usize) -> Option<OomError> {
        self.fault
            .lock()
            .as_mut()
            .and_then(|st| st.on_alloc(bytes, self.mem.in_use(), self.mem.capacity()))
    }

    /// Applies any due buffer corruption (called after a commit).
    fn fault_after_launch(&self) {
        if let Some(st) = self.fault.lock().as_mut() {
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
    /// static vocabulary, and a static name keeps the per-launch
    /// bookkeeping allocation-free (use [`crate::intern::prefixed`] for
    /// names composed at runtime). Block costs and the scheduler's SM
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
        let timing = match self.scratch.try_lock() {
            Some(mut scratch) => {
                let LaunchScratch { costs, sm_free } = &mut *scratch;
                self.run_blocks_into(&cfg, &kernel, costs);
                schedule_blocks_uniform(&self.cfg, costs, &occ, launch_s, sm_free)
            }
            // Another thread is mid-launch: fall back to fresh buffers
            // rather than serializing block *execution* on the pool.
            None => {
                let mut costs = Vec::new();
                let mut sm_free = Vec::new();
                self.run_blocks_into(&cfg, &kernel, &mut costs);
                schedule_blocks_uniform(&self.cfg, &costs, &occ, launch_s, &mut sm_free)
            }
        };
        self.commit(name, &timing, 1);
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

    fn run_blocks<F>(&self, cfg: &LaunchConfig, kernel: &F) -> Vec<BlockCost>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        let mut costs = Vec::new();
        self.run_blocks_into(cfg, kernel, &mut costs);
        costs
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
        (0..n_blocks)
            .into_par_iter()
            .zip(costs.par_iter_mut())
            .for_each(|(linear, cost)| {
                let idx = cfg.grid.unflatten(linear);
                let mut ctx = BlockCtx::new(idx, cfg.block, cfg.grid, self.cfg.warp_size);
                kernel(&mut ctx);
                *cost = ctx.into_cost();
            });
    }

    fn commit(&self, name: &'static str, timing: &KernelTiming, launches: u64) {
        let mut inner = self.inner.lock();
        inner.clock_s += timing.total_s;
        // Launch issue burns idle power; execution burns at the busy
        // fraction.
        inner.energy.add_interval(timing.launch_s, 0.0);
        inner
            .energy
            .add_interval(timing.exec_s, timing.busy_fraction);
        inner.profiler.record(name, timing);
        inner.launches += launches;
    }

    /// Opens a stream group: kernels launched through it are issued
    /// back-to-back by the host (paying one launch overhead each, in
    /// sequence) but execute concurrently on the device — the model of
    /// the paper's CUDA-streams `syrk` alternative.
    #[must_use]
    pub fn stream_group<'d>(&'d self, name: &'static str) -> StreamGroup<'d> {
        StreamGroup {
            dev: self,
            name,
            pending: Vec::new(),
            launches: 0,
            copy_done_s: 0.0,
            compute_ready_s: 0.0,
            dtoh_bytes: Vec::new(),
        }
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
    /// ([`crate::group::CopyComputeTimeline`], [`StreamGroup::upload`])
    /// that account transfer time against a DMA engine instead of the
    /// serial timeline.
    #[must_use]
    pub fn transfer_seconds(&self, bytes: usize) -> f64 {
        self.cfg.pcie_latency_us * 1e-6 + bytes as f64 / (self.cfg.pcie_bandwidth_gbs * 1e9)
    }

    fn transfer(&self, bytes: usize) -> f64 {
        let t = self.transfer_seconds(bytes);
        let mut inner = self.inner.lock();
        inner.clock_s += t;
        inner.energy.add_interval(t, 0.0);
        t
    }

    /// Advances the simulated clock by `seconds` at the given device
    /// activity (0 = idle). Used by hybrid baselines to account for
    /// host-side work the device waits on.
    pub fn advance_time(&self, seconds: f64, activity: f64) {
        let mut inner = self.inner.lock();
        inner.clock_s += seconds;
        inner.energy.add_interval(seconds, activity);
    }

    /// Current simulated time in seconds.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.inner.lock().clock_s
    }

    /// Energy consumed so far, joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.inner.lock().energy.joules()
    }

    /// Total kernel launches issued so far.
    #[must_use]
    pub fn launch_count(&self) -> u64 {
        self.inner.lock().launches
    }

    /// Resets clock, energy and profiler (memory stays allocated) —
    /// call before a measured region.
    pub fn reset_metrics(&self) {
        let mut inner = self.inner.lock();
        inner.clock_s = 0.0;
        inner.energy.reset();
        inner.profiler.reset();
        inner.launches = 0;
    }

    /// Runs `f` with a snapshot view of the profiler.
    pub fn with_profiler<R>(&self, f: impl FnOnce(&Profiler) -> R) -> R {
        let inner = self.inner.lock();
        f(&inner.profiler)
    }
}

/// A group of kernels issued on separate streams and executed
/// concurrently. Obtain via [`Device::stream_group`]; call
/// [`StreamGroup::sync`] to schedule the group and advance the clock.
///
/// Besides kernels, a group carries explicit *transfer phases*: an
/// [`StreamGroup::upload`] occupies the group's DMA engine and gates
/// every kernel launched after it, while a [`StreamGroup::download`]
/// drains after the compute finishes. Phases let one group express the
/// classic double-buffered shard schedule — upload *i+1* overlapping
/// compute *i* — with the clock charged once at [`StreamGroup::sync`].
pub struct StreamGroup<'d> {
    dev: &'d Device,
    name: &'static str,
    pending: Vec<(BlockCost, Occupancy, f64)>,
    launches: u64,
    /// DMA engine busy-until, relative to the group's opening.
    copy_done_s: f64,
    /// Earliest release for kernels issued after the last upload.
    compute_ready_s: f64,
    /// Download phases, scheduled after the compute drains at sync.
    dtoh_bytes: Vec<usize>,
}

impl StreamGroup<'_> {
    /// Launches one kernel into the group. Blocks execute immediately
    /// (real numerics); timing is deferred until [`StreamGroup::sync`].
    ///
    /// # Errors
    /// [`LaunchError`] if the configuration violates device limits.
    pub fn launch<F>(&mut self, cfg: LaunchConfig, kernel: F) -> Result<(), LaunchError>
    where
        F: Fn(&mut BlockCtx) + Sync,
    {
        let occ = occupancy(&self.dev.cfg, &cfg)?;
        if self.dev.fault_on.load(Ordering::Relaxed) && self.dev.fault_try_inject_launch(self.name)
        {
            return Err(LaunchError::Injected);
        }
        let costs = self.dev.run_blocks(&cfg, &kernel);
        // The host issues launches serially: kernel k's blocks release
        // only after k+1 launch overheads have elapsed — and never
        // before the uploads they depend on have landed.
        self.launches += 1;
        let release =
            (self.launches as f64 * self.dev.launch_overhead_s()).max(self.compute_ready_s);
        self.pending
            .extend(costs.into_iter().map(|c| (c, occ, release)));
        Ok(())
    }

    /// Upload phase: `bytes` host→device on the group's DMA engine.
    /// Transfers within a group serialize on that engine; kernels
    /// launched *after* this call release only once the copy has
    /// landed, while kernels already issued keep running — upload
    /// *i+1* overlaps compute *i*. Returns the engine's busy-until
    /// time relative to the group's opening.
    pub fn upload(&mut self, bytes: usize) -> f64 {
        self.copy_done_s += self.dev.transfer_seconds(bytes);
        self.compute_ready_s = self.compute_ready_s.max(self.copy_done_s);
        self.copy_done_s
    }

    /// Download phase: `bytes` device→host, scheduled on the DMA engine
    /// after every pending kernel has drained (at
    /// [`StreamGroup::sync`]).
    pub fn download(&mut self, bytes: usize) {
        self.dtoh_bytes.push(bytes);
    }

    /// Number of kernels issued into the group so far.
    #[must_use]
    pub fn launches(&self) -> u64 {
        self.launches
    }

    /// Schedules all pending blocks together (respecting per-kernel
    /// issue times and upload dependencies), appends the download
    /// phases, advances the device clock once, and returns the group
    /// timing. The time any transfer phase adds beyond the compute
    /// makespan is charged at idle activity, like a plain PCIe copy.
    pub fn sync(self) -> KernelTiming {
        // Launch overhead is encoded in the release times; the group
        // itself adds none on top.
        let mut timing = schedule_blocks(&self.dev.cfg, &self.pending, 0.0);
        let mut dma_free = self.copy_done_s.max(timing.total_s);
        for &bytes in &self.dtoh_bytes {
            dma_free += self.dev.transfer_seconds(bytes);
        }
        let end = timing.total_s.max(self.copy_done_s).max(dma_free);
        timing.launch_s += end - timing.total_s;
        timing.total_s = end;
        self.dev.commit(self.name, &timing, self.launches);
        if self.dev.fault_on.load(Ordering::Relaxed) {
            self.dev.fault_after_launch();
        }
        timing
    }
}

/// Convenience: a device-side array of matrix pointers, sizes, or
/// leading dimensions — the vbatched metadata triple (§III-A) — built
/// from host data in one call (bypasses the PCIe clock; use
/// [`Device::copy_htod_bytes`] to charge it).
pub fn upload_vec<T: Copy + Default>(
    dev: &Device,
    data: &[T],
) -> Result<DeviceBuffer<T>, OomError> {
    let buf = dev.alloc::<T>(data.len())?;
    buf.fill_from_host(data);
    Ok(buf)
}

/// Convenience: device array of `DevicePtr<T>` handles.
pub fn upload_ptrs<T: Copy + Default>(
    dev: &Device,
    ptrs: &[DevicePtr<T>],
) -> Result<DeviceBuffer<DevicePtr<T>>, OomError> {
    let buf = dev.alloc::<DevicePtr<T>>(ptrs.len())?;
    buf.fill_from_host(ptrs);
    Ok(buf)
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
    fn stream_group_cheaper_than_serial_for_many_small_kernels() {
        // 20 small kernels: serial launches pay 20 overheads on the
        // critical path; the stream group overlaps execution with issue.
        let d1 = dev();
        for _ in 0..20 {
            d1.launch("small", LaunchConfig::grid_1d(1, 32), |blk| {
                blk.dp_flops(32, 10.0);
            })
            .unwrap();
        }
        let serial = d1.now();

        let d2 = dev();
        let mut g = d2.stream_group("small_streamed");
        for _ in 0..20 {
            g.launch(LaunchConfig::grid_1d(1, 32), |blk| {
                blk.dp_flops(32, 10.0);
            })
            .unwrap();
        }
        g.sync();
        let streamed = d2.now();
        assert!(
            streamed < serial,
            "streamed {streamed} should beat serial {serial}"
        );
    }

    #[test]
    fn stream_phases_overlap_transfers_with_compute() {
        // Reference: serial copies around the same kernels.
        let work = |blk: &mut BlockCtx| blk.dp_flops(32, 5e5);
        let d1 = dev();
        d1.copy_htod_bytes(500_000);
        d1.launch("k", LaunchConfig::grid_1d(2, 32), work).unwrap();
        d1.copy_htod_bytes(500_000);
        d1.launch("k", LaunchConfig::grid_1d(2, 32), work).unwrap();
        d1.copy_dtoh_bytes(500_000);
        d1.copy_dtoh_bytes(500_000);
        let serial = d1.now();

        // Phased group: the second upload overlaps the first kernel.
        let d2 = dev();
        let mut g = d2.stream_group("k_phased");
        g.upload(500_000);
        g.launch(LaunchConfig::grid_1d(2, 32), work).unwrap();
        g.upload(500_000);
        g.launch(LaunchConfig::grid_1d(2, 32), work).unwrap();
        g.download(500_000);
        g.download(500_000);
        let timing = g.sync();
        let phased = d2.now();
        assert!(
            phased < serial,
            "phased {phased} should beat serial {serial}"
        );
        // The first upload still gates the first kernel, and the
        // downloads still drain after compute: no free lunch.
        let up = d2.transfer_seconds(500_000);
        assert!(phased >= 2.0 * up + timing.exec_s - up);
    }

    #[test]
    fn upload_gates_later_kernels() {
        let d = dev();
        let mut g = d.stream_group("gated");
        // A huge upload: the kernel launched after it cannot start
        // before the copy lands, so the group takes at least that long.
        g.upload(10_000_000);
        let gate = d.transfer_seconds(10_000_000);
        g.launch(LaunchConfig::grid_1d(1, 32), |_blk| {}).unwrap();
        g.sync();
        assert!(d.now() >= gate);
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
    fn upload_helpers() {
        let d = dev();
        let b = upload_vec(&d, &[1i32, 2, 3]).unwrap();
        assert_eq!(b.read_to_host(), vec![1, 2, 3]);
        let data = d.alloc::<f64>(10).unwrap();
        let ptrs = upload_ptrs(&d, &[data.ptr(), data.ptr().offset(5)]).unwrap();
        ptrs.ptr().get(1).set(0, 3.5);
        assert_eq!(data.ptr().get(5), 3.5);
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

    #[test]
    fn stream_group_launch_injection_and_no_plan_overhead() {
        let d = dev();
        d.install_fault_plan(FaultPlan::new().transient_launch("streamed", 0, 1));
        let mut g = d.stream_group("k_streamed");
        let err = g.launch(LaunchConfig::grid_1d(1, 32), |_blk| panic!("must not run"));
        assert_eq!(err.unwrap_err(), LaunchError::Injected);
        g.launch(LaunchConfig::grid_1d(1, 32), |_blk| {}).unwrap();
        g.sync();
        assert_eq!(d.launch_count(), 1);
        d.clear_fault_plan();
        // With the plan cleared the seam is inert.
        assert!(d.fault_events().is_empty());
        d.launch("streamed", LaunchConfig::grid_1d(1, 32), |_blk| {})
            .unwrap();
    }
}
