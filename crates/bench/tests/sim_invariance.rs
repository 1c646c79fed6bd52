//! Simulated-time invariance goldens: the device clock depends only on
//! size-derived charges, never on numeric values or host-side
//! implementation details, so host-perf refactors (pooled workspaces,
//! interned launch names, scratch reuse) must leave these totals
//! **bit-exact**. The pinned values were produced by the pre-workspace
//! driver on the same workload; a mismatch means a change altered the
//! simulated schedule, not just host speed — that is a correctness bug
//! until proven intentional (then re-pin with justification).
//!
//! The lane-interleaved batched-small path (DESIGN.md §6d) leaves the
//! Fused golden unchanged *by design*: the small-size window (max 12
//! here) still costs one launch, and the lane kernel performs the
//! scalar tier's arithmetic bit-for-bit, so every size-derived charge
//! is identical — only host-side execution is reorganized.

use vbatch_core::{potrf_vbatched, PotrfOptions, SepOpts, Strategy, VBatch};
use vbatch_dense::gen::seeded_rng;
use vbatch_gpu_sim::{Device, DeviceConfig};
use vbatch_workload::fill_spd_batch;

const SIZES: [usize; 10] = [33, 7, 150, 64, 1, 0, 90, 12, 128, 45];

struct Golden {
    strategy: Strategy,
    now_bits: u64,
    energy_j: f64,
    launches: u64,
}

const GOLDENS: [Golden; 2] = [
    Golden {
        strategy: Strategy::Fused,
        now_bits: 0x3f26_8e2e_eb56_db3e, // 1.72084071591272218e-4 s
        energy_j: 7.538_336_659_458_441e-3,
        launches: 11,
    },
    Golden {
        strategy: Strategy::Separated,
        now_bits: 0x3f2a_ec09_b681_8b09, // 2.05398736628025180e-4 s
        energy_j: 1.092_761_643_929_226e-2,
        launches: 23,
    },
];

#[test]
fn simulated_clock_totals_are_pinned() {
    for g in &GOLDENS {
        let dev = Device::new(DeviceConfig::k40c());
        let mut batch = VBatch::<f64>::alloc_square(&dev, &SIZES).unwrap();
        let mut rng = seeded_rng(7);
        fill_spd_batch(&mut batch, &SIZES, &mut rng);
        let opts = PotrfOptions {
            strategy: g.strategy,
            sep: SepOpts {
                nb_panel: 32,
                nb_inner: 8,
            },
            ..Default::default()
        };
        dev.reset_metrics();
        let report = potrf_vbatched(&dev, &mut batch, &opts).unwrap();
        assert!(report.all_ok(), "{:?}: {:?}", g.strategy, report.failures());
        assert_eq!(
            dev.now().to_bits(),
            g.now_bits,
            "{:?}: simulated clock drifted (got {:.17e}, bits {:#x})",
            g.strategy,
            dev.now(),
            dev.now().to_bits()
        );
        assert_eq!(
            dev.energy_j().to_bits(),
            g.energy_j.to_bits(),
            "{:?}: simulated energy drifted (got {:.17e})",
            g.strategy,
            dev.energy_j()
        );
        assert_eq!(
            dev.launch_count(),
            g.launches,
            "{:?}: launch count changed",
            g.strategy
        );
    }
}
