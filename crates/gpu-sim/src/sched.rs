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

/// Schedules `blocks` (with per-block occupancy context) over the
/// device's SMs. `release_s[i]` is the earliest simulated time block `i`
/// may start. This general form is the reference the launch path's
/// crate-private `schedule_blocks_uniform` (one occupancy, every
/// release 0) is checked against.
///
/// `launch_s` is added to the critical path *before* the first block may
/// run (host-side issue cost).
#[must_use]
pub fn schedule_blocks(
    dev: &DeviceConfig,
    per_block: &[(BlockCost, Occupancy, f64)],
    launch_s: f64,
) -> KernelTiming {
    let num_sms = dev.num_sms as usize;
    let mut sm_free = vec![0.0f64; num_sms];
    let cycle = dev.cycle_s();

    let mut busy_total = 0.0;
    let mut timing = KernelTiming {
        launch_s,
        blocks: per_block.len() as u64,
        ..KernelTiming::default()
    };

    for (cost, occ, release) in per_block {
        // Earliest-available SM (greedy, grid order).
        let (sm_idx, _) = sm_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("times are finite"))
            .expect("at least one SM");
        let service = block_service_cycles(dev, occ, cost) * cycle;
        let start = sm_free[sm_idx].max(*release);
        sm_free[sm_idx] = start + service;
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

/// Single-kernel fast path of [`schedule_blocks`]: every block shares
/// one occupancy and releases at time zero, so the scheduler iterates
/// the bare [`BlockCost`] slice directly instead of a materialized
/// `(cost, occupancy, release)` triple per block. `sm_free` is a
/// caller-pooled scratch vector (cleared and resized here), letting the
/// steady-state launch path run without heap allocation.
///
/// Numerically this must stay *bit-identical* to `schedule_blocks` with
/// uniform occupancy and zero releases: same iteration order, same
/// first-minimum SM pick, same accumulation order.
#[must_use]
pub(crate) fn schedule_blocks_uniform(
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
        // `.max(0.0)` mirrors the general path's `.max(*release)` with a
        // zero release (SM-free times are never negative).
        let start = sm_free[sm_idx].max(0.0);
        sm_free[sm_idx] = start + service;
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
        let blocks: Vec<_> = [1e8, 10.0, 10.0, 10.0]
            .iter()
            .map(|&f| (work_block(f), occ, 0.0))
            .collect();
        let t = schedule_blocks(&d, &blocks, 0.0);
        assert!(t.busy_fraction < 0.6, "busy {}", t.busy_fraction);

        // Balanced work: high busy fraction.
        let blocks: Vec<_> = [1e8, 1e8, 1e8, 1e8]
            .iter()
            .map(|&f| (work_block(f), occ, 0.0))
            .collect();
        let t = schedule_blocks(&d, &blocks, 0.0);
        assert!(t.busy_fraction > 0.9, "busy {}", t.busy_fraction);
    }

    #[test]
    fn launch_overhead_added_to_total() {
        let d = dev();
        let occ = occ_for(32, 0);
        let blocks = vec![(work_block(100.0), occ, 0.0)];
        let t = schedule_blocks(&d, &blocks, 1e-3);
        assert!((t.total_s - t.exec_s - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn release_times_delay_start() {
        let d = dev();
        let occ = occ_for(32, 0);
        let blocks = vec![(work_block(100.0), occ, 5e-3)];
        let t = schedule_blocks(&d, &blocks, 0.0);
        assert!(t.exec_s >= 5e-3);
    }

    #[test]
    fn uniform_path_is_bit_identical_to_general() {
        let d = dev();
        let occ = occ_for(32, 0);
        let costs: Vec<BlockCost> = [1e8, 10.0, 5e4, 10.0, 3e6, 0.0]
            .iter()
            .map(|&f| {
                let mut b = work_block(f);
                b.gmem_read_bytes = f / 2.0;
                b.syncs = 3;
                b
            })
            .collect();
        let per_block: Vec<_> = costs.iter().map(|&c| (c, occ, 0.0)).collect();
        let general = schedule_blocks(&d, &per_block, 1e-3);
        let mut sm_free = Vec::new();
        let uniform = schedule_blocks_uniform(&d, &costs, &occ, 1e-3, &mut sm_free);
        assert_eq!(general.total_s.to_bits(), uniform.total_s.to_bits());
        assert_eq!(general.exec_s.to_bits(), uniform.exec_s.to_bits());
        assert_eq!(
            general.busy_fraction.to_bits(),
            uniform.busy_fraction.to_bits()
        );
        assert_eq!(
            general.flops_useful.to_bits(),
            uniform.flops_useful.to_bits()
        );
        assert_eq!(general.gmem_bytes.to_bits(), uniform.gmem_bytes.to_bits());
        assert_eq!(general.blocks, uniform.blocks);
    }

    #[test]
    fn aggregates_sum_over_blocks() {
        let d = dev();
        let occ = occ_for(32, 0);
        let mut b = work_block(50.0);
        b.gmem_read_bytes = 100.0;
        let blocks = vec![(b, occ, 0.0), (b, occ, 0.0)];
        let t = schedule_blocks(&d, &blocks, 0.0);
        assert_eq!(t.flops_useful, 100.0);
        assert_eq!(t.gmem_bytes, 200.0);
        assert_eq!(t.blocks, 2);
    }
}
