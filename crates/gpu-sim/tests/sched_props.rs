//! Property tests of the SM scheduler and occupancy calculator: the
//! bounds a list-scheduling makespan must satisfy, and monotonicity of
//! cost in work.

use proptest::prelude::*;
use vbatch_gpu_sim::occupancy::occupancy;
use vbatch_gpu_sim::sched::{block_service_cycles, schedule_blocks};
use vbatch_gpu_sim::{BlockCost, DeviceConfig, LaunchConfig};

fn dev() -> DeviceConfig {
    DeviceConfig::k40c()
}

fn block(dp_flops: f64, warps: u32) -> BlockCost {
    BlockCost {
        dp_flops_exec: dp_flops,
        dp_flops_useful: dp_flops,
        launched_warps: warps,
        resident_warps: warps,
        active_warps: warps,
        ..BlockCost::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn makespan_respects_list_scheduling_bounds(
        works in prop::collection::vec(1.0f64..1e7, 1..80),
    ) {
        let d = dev();
        let occ = occupancy(&d, &LaunchConfig::grid_1d(1, 128)).unwrap();
        let per: Vec<_> = works.iter().map(|&w| block(w, 4)).collect();
        let t = schedule_blocks(&d, &per, &occ, 0.0, &mut Vec::new());

        let services: Vec<f64> = works
            .iter()
            .map(|&w| block_service_cycles(&d, &occ, &block(w, 4)) * d.cycle_s())
            .collect();
        let total: f64 = services.iter().sum();
        let longest = services.iter().cloned().fold(0.0, f64::max);
        let lower = (total / d.num_sms as f64).max(longest);
        // List scheduling: LB <= makespan <= 2*LB (Graham bound, loose).
        prop_assert!(t.exec_s >= lower * 0.999, "{} < {}", t.exec_s, lower);
        prop_assert!(t.exec_s <= total + 1e-12, "makespan above serial time");
        prop_assert!(t.busy_fraction > 0.0 && t.busy_fraction <= 1.0);
    }

    #[test]
    fn service_monotone_in_flops(w1 in 1.0f64..1e8, w2 in 1.0f64..1e8) {
        let d = dev();
        let occ = occupancy(&d, &LaunchConfig::grid_1d(1, 128)).unwrap();
        let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
        let t_lo = block_service_cycles(&d, &occ, &block(lo, 4));
        let t_hi = block_service_cycles(&d, &occ, &block(hi, 4));
        prop_assert!(t_lo <= t_hi);
    }

    #[test]
    fn memory_bound_blocks_cost_at_least_roofline(
        bytes in 1.0f64..1e8,
    ) {
        let d = dev();
        let occ = occupancy(&d, &LaunchConfig::grid_1d(1, 128)).unwrap();
        let mut b = block(0.0, 4);
        b.gmem_read_bytes = bytes;
        let cycles = block_service_cycles(&d, &occ, &b);
        let min_cycles = bytes / d.gmem_bytes_per_cycle_sm();
        prop_assert!(cycles >= min_cycles * 0.999);
    }

    #[test]
    fn early_exit_always_cheapest(w in 1.0f64..1e6, warps in 1u32..16) {
        let d = dev();
        let occ = occupancy(&d, &LaunchConfig::grid_1d(1, 128)).unwrap();
        let live = block(w, warps);
        let dead = BlockCost {
            early_exit: true,
            launched_warps: warps,
            resident_warps: 0,
            ..BlockCost::default()
        };
        prop_assert!(
            block_service_cycles(&d, &occ, &dead) <= block_service_cycles(&d, &occ, &live)
        );
    }

    #[test]
    fn more_active_warps_never_slower(
        w in 1e3f64..1e7, warps in 1u32..32,
    ) {
        let d = dev();
        let occ = occupancy(&d, &LaunchConfig::grid_1d(1, 1024)).unwrap();
        let mut few = block(w, warps);
        few.active_warps = 1;
        let mut many = block(w, warps);
        many.active_warps = warps.max(2);
        // Same resident warps (barrier cost equal) — better hiding only.
        prop_assert!(
            block_service_cycles(&d, &occ, &many) <= block_service_cycles(&d, &occ, &few)
        );
    }
}

#[test]
fn balanced_load_beats_imbalanced() {
    // Same total work split evenly vs. one hot block: balanced makespan
    // must be no worse.
    let d = dev();
    let occ = occupancy(&d, &LaunchConfig::grid_1d(1, 128)).unwrap();
    let total = 1.5e8;
    let n = 30usize;
    let balanced = vec![block(total / n as f64, 4); n];
    let mut works = vec![total / (2.0 * (n - 1) as f64); n];
    works[0] = total / 2.0;
    let skewed: Vec<_> = works.iter().map(|&w| block(w, 4)).collect();
    let tb = schedule_blocks(&d, &balanced, &occ, 0.0, &mut Vec::new());
    let ts = schedule_blocks(&d, &skewed, &occ, 0.0, &mut Vec::new());
    assert!(
        tb.exec_s <= ts.exec_s * 1.001,
        "{} vs {}",
        tb.exec_s,
        ts.exec_s
    );
}
