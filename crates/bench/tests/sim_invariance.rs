//! Simulated-time invariance goldens: the device clock depends only on
//! size-derived charges, never on numeric values or host-side
//! implementation details, so host-perf refactors (pooled workspaces,
//! interned launch names, scratch reuse) must leave these totals
//! **bit-exact**. The Cholesky rows were produced by the pre-workspace
//! driver on the same workload; a mismatch means a change altered the
//! simulated schedule, not just host speed — that is a correctness bug
//! until proven intentional (then re-pin with justification). The rows
//! cover both Cholesky strategies, LU, the LU solve and QR, so a charge
//! a kernel pays twice (a copy-pasted `charge_read`, say) moves a pinned
//! bit in any of those families. The LU rows also pin the seeded values:
//! `laswp_vbatched` charges only the rows it actually swaps.
//!
//! The lane-interleaved batched-small path (DESIGN.md §6d) leaves the
//! Fused golden unchanged *by design*: the small-size window (max 12
//! here) still costs one launch, and the lane kernel performs the
//! scalar tier's arithmetic bit-for-bit, so every size-derived charge
//! is identical — only host-side execution is reorganized.

use vbatch_core::lu::{getrf_vbatched, GetrfOptions};
use vbatch_core::qr::{geqrf_vbatched, GeqrfOptions};
use vbatch_core::solve::getrs_vbatched;
use vbatch_core::{potrf_vbatched, PotrfOptions, SepOpts, Strategy, VBatch};
use vbatch_dense::gen::{rand_mat, seeded_rng};
use vbatch_gpu_sim::{Device, DeviceConfig};
use vbatch_workload::fill_spd_batch;

const SIZES: [usize; 10] = [33, 7, 150, 64, 1, 0, 90, 12, 128, 45];

/// What a golden row runs: a Cholesky strategy, the LU factorization,
/// the LU solve after it (the factorization's charges excluded), or QR
/// on `2n × n` matrices.
#[derive(Clone, Copy, Debug)]
enum Leg {
    Potrf(Strategy),
    Getrf,
    Getrs,
    Geqrf,
}

struct Golden {
    leg: Leg,
    now_bits: u64,
    energy_j: f64,
    launches: u64,
}

const GOLDENS: [Golden; 5] = [
    Golden {
        leg: Leg::Potrf(Strategy::Fused),
        now_bits: 0x3f26_8e2e_eb56_db3e, // 1.72084071591272218e-4 s
        energy_j: 7.538_336_659_458_441e-3,
        launches: 11,
    },
    Golden {
        leg: Leg::Potrf(Strategy::Separated),
        now_bits: 0x3f2a_ec09_b681_8b09, // 2.05398736628025180e-4 s
        energy_j: 1.092_761_643_929_226e-2,
        launches: 23,
    },
    Golden {
        leg: Leg::Getrf,
        now_bits: 0x3f3b_c73c_08d6_6877, // 4.23862606874110049e-4 s
        energy_j: 2.259_122_925_971_121_2e-2,
        launches: 48,
    },
    Golden {
        leg: Leg::Getrs,
        now_bits: 0x3f07_43f9_a316_3eac, // 4.43754728492983528e-5 s
        energy_j: 2.339_576_251_372_788_4e-3,
        launches: 3,
    },
    Golden {
        leg: Leg::Geqrf,
        now_bits: 0x3f3d_7634_36ec_3e90, // 4.49550388041488648e-4 s
        energy_j: 3.150_255_578_645_516e-2,
        launches: 38,
    },
];

/// Runs `leg` on the batch seeded over [`SIZES`]; the device's clock,
/// energy and launch count then cover the leg alone.
fn run(dev: &Device, leg: Leg) {
    let mut rng = seeded_rng(7);
    // Seeded general matrices of shape `shape(n)` for each n in SIZES.
    let general = |shape: fn(usize) -> (usize, usize), rng: &mut _| {
        let dims: Vec<(usize, usize)> = SIZES.iter().map(|&n| shape(n)).collect();
        let mut batch = VBatch::<f64>::alloc(dev, &dims).unwrap();
        for (i, &(m, n)) in dims.iter().enumerate() {
            batch.upload_matrix(i, &rand_mat(rng, m * n)).unwrap();
        }
        batch
    };
    match leg {
        Leg::Potrf(strategy) => {
            let mut batch = VBatch::<f64>::alloc_square(dev, &SIZES).unwrap();
            fill_spd_batch(&mut batch, &SIZES, &mut rng);
            let opts = PotrfOptions {
                strategy,
                sep: SepOpts {
                    nb_panel: 32,
                    nb_inner: 8,
                },
                ..Default::default()
            };
            dev.reset_metrics();
            let report = potrf_vbatched(dev, &mut batch, &opts).unwrap();
            assert!(report.all_ok(), "{leg:?}: {:?}", report.failures());
        }
        Leg::Getrf | Leg::Getrs => {
            let mut batch = general(|n| (n, n), &mut rng);
            let rhs = general(|n| (n, 2), &mut rng);
            let opts = GetrfOptions {
                nb_panel: 16,
                ..Default::default()
            };
            dev.reset_metrics();
            let (report, pivots) = getrf_vbatched(dev, &mut batch, &opts).unwrap();
            assert!(report.all_ok(), "{leg:?}: {:?}", report.failures());
            if let Leg::Getrs = leg {
                dev.reset_metrics();
                getrs_vbatched(dev, &batch, &pivots, &rhs).unwrap();
            }
        }
        Leg::Geqrf => {
            let mut batch = general(|n| (2 * n, n), &mut rng);
            let opts = GeqrfOptions {
                nb_panel: 8,
                ..Default::default()
            };
            dev.reset_metrics();
            let (report, _) = geqrf_vbatched(dev, &mut batch, &opts).unwrap();
            assert!(report.all_ok(), "{leg:?}: {:?}", report.failures());
        }
    }
}

#[test]
fn simulated_clock_totals_are_pinned() {
    for g in &GOLDENS {
        let dev = Device::new(DeviceConfig::k40c());
        run(&dev, g.leg);
        assert_eq!(
            dev.now().to_bits(),
            g.now_bits,
            "{:?}: simulated clock drifted (got {:.17e}, bits {:#x})",
            g.leg,
            dev.now(),
            dev.now().to_bits()
        );
        assert_eq!(
            dev.energy_j().to_bits(),
            g.energy_j.to_bits(),
            "{:?}: simulated energy drifted (got {:.17e})",
            g.leg,
            dev.energy_j()
        );
        assert_eq!(
            dev.launch_count(),
            g.launches,
            "{:?}: launch count changed",
            g.leg
        );
    }
}
