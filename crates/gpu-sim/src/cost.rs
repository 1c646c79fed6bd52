//! Per-block cost accounting.
//!
//! A kernel body receives a [`BlockCtx`] and reports the work it
//! performs: flops (with the number of *active* threads, so the model
//! can charge warp-padded SIMT cost), global/shared-memory traffic,
//! barriers, and early-termination decisions. The scheduler
//! ([`crate::sched`]) turns the resulting [`BlockCost`] into simulated
//! time.
//!
//! Two ETM-relevant operations:
//!
//! * [`BlockCtx::exit_early`] — the whole block terminates right after
//!   launch (ETM-classic for dead blocks): only the dispatch cost is
//!   charged.
//! * [`BlockCtx::retire_threads_beyond`] — threads at and above an index
//!   terminate (ETM-aggressive): *fully dead warps* stop contributing
//!   resident-warp and barrier cost; partially dead warps cost the same
//!   as full ones, exactly the SIMT semantics the paper's example
//!   describes (sizes 24 and 63 on 64-thread blocks: 40 resp. 1 threads
//!   terminated, one warp resp. zero warps retired).

use crate::grid::Dim3;

/// Accumulated cost of one simulated thread block.
#[derive(Clone, Copy, Debug, Default)]
pub struct BlockCost {
    /// Single-precision flops, warp-padded (as executed by SIMT lanes).
    pub sp_flops_exec: f64,
    /// Double-precision flops, warp-padded.
    pub dp_flops_exec: f64,
    /// Single-precision flops that were arithmetically useful.
    pub sp_flops_useful: f64,
    /// Double-precision flops that were arithmetically useful.
    pub dp_flops_useful: f64,
    /// Bytes read from global memory.
    pub gmem_read_bytes: f64,
    /// Bytes written to global memory.
    pub gmem_write_bytes: f64,
    /// Bytes moved through shared memory.
    pub smem_bytes: f64,
    /// Number of block-wide barriers executed.
    pub syncs: u64,
    /// Warps the launch configuration assigned to this block.
    pub launched_warps: u32,
    /// Warps still resident after early termination decisions — these
    /// occupy scheduler slots and pay for every barrier (ETM-classic
    /// keeps idle warps resident; ETM-aggressive retires them).
    pub resident_warps: u32,
    /// Warps that issued useful work (max over recorded operations) —
    /// these are what hides latency; idle resident warps do not help.
    pub active_warps: u32,
    /// Whether the block exited at the top (dead block under an ETM).
    pub early_exit: bool,
}

impl BlockCost {
    /// Total executed flops across precisions.
    #[must_use]
    pub(crate) fn flops_exec(&self) -> f64 {
        self.sp_flops_exec + self.dp_flops_exec
    }

    /// Total useful flops across precisions.
    #[must_use]
    pub(crate) fn flops_useful(&self) -> f64 {
        self.sp_flops_useful + self.dp_flops_useful
    }

    /// Total global-memory traffic in bytes.
    #[must_use]
    pub(crate) fn gmem_bytes(&self) -> f64 {
        self.gmem_read_bytes + self.gmem_write_bytes
    }
}

/// Execution context handed to a kernel body for one thread block.
pub struct BlockCtx {
    block_idx: Dim3,
    grid_dim: Dim3,
    warp_size: u32,
    cost: BlockCost,
}

impl BlockCtx {
    pub(crate) fn new(block_idx: Dim3, block_dim: Dim3, grid_dim: Dim3, warp_size: u32) -> Self {
        let threads = block_dim.count() as u32;
        let warps = threads.div_ceil(warp_size);
        Self {
            block_idx,
            grid_dim,
            warp_size,
            cost: BlockCost {
                launched_warps: warps,
                resident_warps: warps,
                ..BlockCost::default()
            },
        }
    }

    pub(crate) fn into_cost(self) -> BlockCost {
        self.cost
    }

    /// This block's index within the grid.
    #[must_use]
    pub fn block_idx(&self) -> Dim3 {
        self.block_idx
    }

    /// Linear block id (x fastest).
    #[must_use]
    pub fn linear_block_id(&self) -> usize {
        (self.block_idx.x as u64
            + self.grid_dim.x as u64
                * (self.block_idx.y as u64 + self.grid_dim.y as u64 * self.block_idx.z as u64))
            as usize
    }

    /// Warps currently resident in this block.
    #[must_use]
    pub fn resident_warps(&self) -> u32 {
        self.cost.resident_warps
    }

    /// Records `flops_per_thread` double-precision flops performed by
    /// `active_threads` cooperating threads. SIMT execution charges whole
    /// warps: the executed cost is padded to `⌈active/warp⌉·warp`
    /// lanes (bounded by the block's resident width).
    pub fn dp_flops(&mut self, active_threads: usize, flops_per_thread: f64) {
        let (exec, useful) = self.padded(active_threads, flops_per_thread);
        self.cost.dp_flops_exec += exec;
        self.cost.dp_flops_useful += useful;
    }

    /// Single-precision counterpart of [`BlockCtx::dp_flops`].
    pub(crate) fn sp_flops(&mut self, active_threads: usize, flops_per_thread: f64) {
        let (exec, useful) = self.padded(active_threads, flops_per_thread);
        self.cost.sp_flops_exec += exec;
        self.cost.sp_flops_useful += useful;
    }

    /// Records flops in the precision selected by `double_precision`.
    pub fn flops(&mut self, double_precision: bool, active_threads: usize, flops_per_thread: f64) {
        if double_precision {
            self.dp_flops(active_threads, flops_per_thread);
        } else {
            self.sp_flops(active_threads, flops_per_thread);
        }
    }

    fn padded(&mut self, active_threads: usize, per_thread: f64) -> (f64, f64) {
        if active_threads == 0 || per_thread == 0.0 {
            return (0.0, 0.0);
        }
        let warp = self.warp_size as usize;
        let warps = active_threads
            .div_ceil(warp)
            .min(self.cost.launched_warps.max(1) as usize)
            .max(1);
        self.cost.active_warps = self.cost.active_warps.max(warps as u32);
        let lanes = warps * warp;
        let useful = active_threads as f64 * per_thread;
        let exec = lanes as f64 * per_thread;
        (exec.max(useful), useful)
    }

    /// Records `bytes` read from global memory.
    pub fn gmem_read(&mut self, bytes: usize) {
        self.cost.gmem_read_bytes += bytes as f64;
    }

    /// Records `bytes` written to global memory.
    pub fn gmem_write(&mut self, bytes: usize) {
        self.cost.gmem_write_bytes += bytes as f64;
    }

    /// Records `bytes` staged through shared memory.
    pub fn smem_traffic(&mut self, bytes: usize) {
        self.cost.smem_bytes += bytes as f64;
    }

    /// Records a block-wide barrier (`__syncthreads()`); every resident
    /// warp pays for it.
    pub fn sync(&mut self) {
        self.cost.syncs += 1;
    }

    /// ETM: the block determined at launch that it has no work. Only the
    /// dispatch cost is charged; all warps retire.
    pub fn exit_early(&mut self) {
        self.cost.early_exit = true;
        self.cost.resident_warps = 0;
    }

    /// ETM-aggressive: threads with linear id `>= first_dead` terminate.
    /// Warps whose 32 lanes are all dead are retired; a partially dead
    /// warp stays resident (SIMT).
    pub fn retire_threads_beyond(&mut self, first_dead: usize) {
        let live_warps = first_dead.div_ceil(self.warp_size as usize) as u32;
        self.cost.resident_warps = self.cost.resident_warps.min(live_warps);
    }

    /// Snapshot of the accumulated cost (mainly for tests).
    #[must_use]
    pub fn cost(&self) -> &BlockCost {
        &self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(threads: u32) -> BlockCtx {
        BlockCtx::new(Dim3::x(0), Dim3::x(threads), Dim3::x(1), 32)
    }

    #[test]
    fn warp_padding_charges_whole_warps() {
        let mut c = ctx(64);
        c.dp_flops(33, 10.0); // 33 active → 2 warps → 64 lanes
        assert_eq!(c.cost().dp_flops_exec, 640.0);
        assert_eq!(c.cost().dp_flops_useful, 330.0);
    }

    #[test]
    fn full_warp_has_no_padding() {
        let mut c = ctx(64);
        c.sp_flops(64, 1.0);
        assert_eq!(c.cost().sp_flops_exec, 64.0);
        assert_eq!(c.cost().sp_flops_useful, 64.0);
    }

    #[test]
    fn paper_example_etm_aggressive() {
        // 64-thread blocks; matrix sizes 24 and 63 (paper §III-D1).
        let mut a = ctx(64);
        a.retire_threads_beyond(24); // 40 threads terminated
        assert_eq!(a.resident_warps(), 1); // warp 1 fully dead → retired

        let mut b = ctx(64);
        b.retire_threads_beyond(63); // 1 thread terminated
        assert_eq!(b.resident_warps(), 2); // no fully-dead warp
    }

    #[test]
    fn exit_early_retires_everything() {
        let mut c = ctx(128);
        c.exit_early();
        assert!(c.cost().early_exit);
        assert_eq!(c.resident_warps(), 0);
    }

    #[test]
    fn padding_capped_by_resident_warps() {
        let mut c = ctx(64);
        c.retire_threads_beyond(32);
        // 20 active threads → 1 warp, within the 1 resident warp.
        c.dp_flops(20, 1.0);
        assert_eq!(c.cost().dp_flops_exec, 32.0);
    }

    #[test]
    fn traffic_and_syncs_accumulate() {
        let mut c = ctx(32);
        c.gmem_read(100);
        c.gmem_write(50);
        c.smem_traffic(10);
        c.sync();
        c.sync();
        assert_eq!(c.cost().gmem_bytes(), 150.0);
        assert_eq!(c.cost().smem_bytes, 10.0);
        assert_eq!(c.cost().syncs, 2);
    }

    #[test]
    fn linear_block_id_matches_layout() {
        let c = BlockCtx::new(Dim3::xyz(1, 2, 0), Dim3::x(32), Dim3::xyz(4, 3, 2), 32);
        assert_eq!(c.linear_block_id(), 1 + 4 * 2);
    }

    #[test]
    fn zero_active_threads_is_free() {
        let mut c = ctx(32);
        c.dp_flops(0, 100.0);
        assert_eq!(c.cost().flops_exec(), 0.0);
    }
}
