//! SM-level scheduling: turns per-block costs into kernel time.
//!
//! Blocks are dispatched in grid order to the earliest-available SM —
//! the same greedy policy real GigaThread engines approximate. Each SM
//! serializes its assigned blocks; concurrency *within* an SM (multiple
//! resident blocks hiding each other's latency) is modeled by the
//! issue-efficiency factor driven by resident-warp count, so that low
//! occupancy (few warps) stretches block service time.
//!
//! This is where the paper's load-imbalance story lives: a wave mixing
//! one big matrix with many tiny ones leaves most SMs idle while one
//! grinds — which is exactly what implicit sorting prevents.

use crate::config::DeviceConfig;
use crate::cost::BlockCost;
use crate::occupancy::Occupancy;

/// Simulated execution-time breakdown of one kernel.
#[derive(Clone, Debug, Default)]
pub struct KernelTiming {
    /// Makespan of block execution across SMs, seconds (excludes launch
    /// overhead).
    pub exec_s: f64,
    /// Host launch overhead included in the total, seconds.
    pub launch_s: f64,
    /// End-to-end simulated time, seconds.
    pub total_s: f64,
    /// Mean SM busy fraction during `exec_s` (drives dynamic power).
    pub busy_fraction: f64,
    /// Sum of useful flops over all blocks.
    pub flops_useful: f64,
    /// Sum of warp-padded executed flops over all blocks.
    pub flops_exec: f64,
    /// Sum of global-memory traffic over all blocks, bytes.
    pub gmem_bytes: f64,
    /// Number of blocks that early-exited (dead under an ETM).
    pub early_exit_blocks: u64,
    /// Number of blocks scheduled.
    pub blocks: u64,
}

/// Service time of a single block, in cycles.
#[must_use]
pub fn block_service_cycles(dev: &DeviceConfig, occ: &Occupancy, cost: &BlockCost) -> f64 {
    if cost.early_exit {
        return dev.block_dispatch_cycles;
    }
    let compute = cost.sp_flops_exec / dev.sp_flops_per_cycle_sm
        + cost.dp_flops_exec / dev.dp_flops_per_cycle_sm;
    let gmem = cost.gmem_bytes() / dev.gmem_bytes_per_cycle_sm();
    let smem = cost.smem_bytes / dev.smem_bytes_per_cycle_sm;
    // Compute and memory pipelines overlap; the slower one dominates.
    let base = compute.max(gmem).max(smem);
    // Latency hiding: warps with issuable work on the SM = this block's
    // active warps × how many such blocks fit (occupancy). Idle-but-
    // resident warps (ETM-classic) do not hide latency; they only pay
    // barrier cost below.
    let warps_on_sm = (occ.blocks_per_sm * cost.active_warps.max(1)) as f64;
    let eff = dev.issue_efficiency(warps_on_sm);
    let barriers = cost.syncs as f64 * dev.sync_cycles_per_warp * cost.resident_warps as f64;
    base / eff + barriers + dev.block_dispatch_cycles
}

/// Schedules one kernel's blocks, all of occupancy `occ` and released
/// at time zero, over the device's SMs: each block, in grid order, on
/// the earliest-available SM. `sm_free` is a caller-pooled scratch
/// vector (cleared and resized here), letting the steady-state launch
/// path run without heap allocation.
///
/// `launch_s` is added to the critical path *before* the first block may
/// run (host-side issue cost).
#[must_use]
pub fn schedule_blocks(
    dev: &DeviceConfig,
    costs: &[BlockCost],
    occ: &Occupancy,
    launch_s: f64,
    sm_free: &mut Vec<f64>,
) -> KernelTiming {
    let num_sms = dev.num_sms as usize;
    sm_free.clear();
    sm_free.resize(num_sms, 0.0);
    let cycle = dev.cycle_s();

    let mut busy_total = 0.0;
    let mut timing = KernelTiming {
        launch_s,
        blocks: costs.len() as u64,
        ..KernelTiming::default()
    };

    for cost in costs {
        let (sm_idx, _) = sm_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("times are finite"))
            .expect("at least one SM");
        let service = block_service_cycles(dev, occ, cost) * cycle;
        sm_free[sm_idx] += service;
        busy_total += service;

        timing.flops_useful += cost.flops_useful();
        timing.flops_exec += cost.flops_exec();
        timing.gmem_bytes += cost.gmem_bytes();
        if cost.early_exit {
            timing.early_exit_blocks += 1;
        }
    }

    let makespan = sm_free.iter().cloned().fold(0.0, f64::max);
    timing.exec_s = makespan;
    timing.total_s = launch_s + makespan;
    timing.busy_fraction = if makespan > 0.0 {
        (busy_total / (num_sms as f64 * makespan)).min(1.0)
    } else {
        0.0
    };
    timing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::LaunchConfig;
    use crate::occupancy::occupancy;

    fn dev() -> DeviceConfig {
        DeviceConfig::tiny_test()
    }

    fn occ_for(threads: u32, smem: usize) -> Occupancy {
        occupancy(
            &dev(),
            &LaunchConfig::grid_1d(1, threads).with_shared_mem(smem),
        )
        .unwrap()
    }

    fn work_block(dp_flops: f64) -> BlockCost {
        BlockCost {
            dp_flops_exec: dp_flops,
            dp_flops_useful: dp_flops,
            launched_warps: 1,
            resident_warps: 1,
            ..BlockCost::default()
        }
    }

    #[test]
    fn early_exit_costs_only_dispatch() {
        let d = dev();
        let occ = occ_for(32, 0);
        let dead = BlockCost {
            early_exit: true,
            launched_warps: 1,
            resident_warps: 0,
            ..BlockCost::default()
        };
        assert_eq!(
            block_service_cycles(&d, &occ, &dead),
            d.block_dispatch_cycles
        );
        let live = work_block(1e6);
        assert!(block_service_cycles(&d, &occ, &live) > d.block_dispatch_cycles * 10.0);
    }

    #[test]
    fn barriers_scale_with_resident_warps() {
        let d = dev();
        let occ = occ_for(128, 0);
        let mut classic = work_block(1000.0);
        classic.syncs = 100;
        classic.launched_warps = 4;
        classic.resident_warps = 4;
        let mut aggressive = classic;
        aggressive.resident_warps = 1;
        let c = block_service_cycles(&d, &occ, &classic);
        let a = block_service_cycles(&d, &occ, &aggressive);
        assert!(a < c, "retiring warps must cut barrier cost: {a} vs {c}");
    }

    #[test]
    fn low_occupancy_stretches_service() {
        let d = dev();
        let cost = work_block(1e5);
        let high = occ_for(32, 0); // many blocks per SM
        let low = occ_for(32, 1024); // shared memory allows 1
        assert!(low.blocks_per_sm < high.blocks_per_sm);
        // Fewer resident warps ⇒ worse latency hiding ⇒ longer service.
        let t_low = block_service_cycles(&d, &low, &cost);
        let t_high = block_service_cycles(&d, &high, &cost);
        assert!(t_high < t_low);
    }

    #[test]
    fn imbalanced_waves_have_low_busy_fraction() {
        let d = dev(); // 2 SMs
        let occ = occ_for(32, 0);
        // One huge block + three tiny ones.
        let blocks = [1e8, 10.0, 10.0, 10.0].map(work_block);
        let t = schedule_blocks(&d, &blocks, &occ, 0.0, &mut Vec::new());
        assert!(t.busy_fraction < 0.6, "busy {}", t.busy_fraction);

        // Balanced work: high busy fraction.
        let blocks = [work_block(1e8); 4];
        let t = schedule_blocks(&d, &blocks, &occ, 0.0, &mut Vec::new());
        assert!(t.busy_fraction > 0.9, "busy {}", t.busy_fraction);
    }

    #[test]
    fn launch_overhead_added_to_total() {
        let d = dev();
        let occ = occ_for(32, 0);
        let t = schedule_blocks(&d, &[work_block(100.0)], &occ, 1e-3, &mut Vec::new());
        assert!((t.total_s - t.exec_s - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn aggregates_sum_over_blocks() {
        let d = dev();
        let occ = occ_for(32, 0);
        let mut b = work_block(50.0);
        b.gmem_read_bytes = 100.0;
        let t = schedule_blocks(&d, &[b, b], &occ, 0.0, &mut Vec::new());
        assert_eq!(t.flops_useful, 100.0);
        assert_eq!(t.gmem_bytes, 200.0);
        assert_eq!(t.blocks, 2);
    }
}
