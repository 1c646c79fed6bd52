//! Simulated-time invariance goldens: the device clock depends only on
//! size-derived charges, never on numeric values or host-side
//! implementation details, so host-perf refactors (pooled workspaces,
//! constant launch names, scratch reuse) must leave these totals
//! **bit-exact**. The Cholesky rows were produced by the pre-workspace
//! driver on the same workload; a mismatch means a change altered the
//! simulated schedule, not just host speed — that is a correctness bug
//! until proven intentional (then re-pin with justification). The rows
//! cover both Cholesky strategies, LU, the LU solve and QR, so a charge
//! a kernel pays twice (a copy-pasted `charge_read`, say) moves a pinned
//! bit in any of those families. The LU rows also pin the seeded values:
//! besides its pivot and metadata reads, `laswp_vbatched` charges only
//! the rows it actually swaps.
//!
//! The lane-interleaved batched-small path (DESIGN.md §6d) performs the
//! scalar tier's arithmetic bit-for-bit, so every size-derived charge
//! is identical — only host-side execution is reorganized. Its launch
//! count, however, is a scheduling decision: the fused driver cuts a
//! size-sorted window at or below the interleave cutoff into runs of
//! orders wherever the simulator's own launch arithmetic predicts that
//! the smaller tiles pay for the extra launches. The Fused row's nine
//! nonzero matrices form one window (orders up to 150) that takes the
//! step loop, each step launching only the matrices still live: 37
//! blocks over 10 steps. The `PotrfTiny` row (2 000 Uniform{32}
//! matrices) pins the cut, so a change that undoes or alters it moves
//! a bit.

use rand::rngs::StdRng;
use vbatch_core::lu::{getrf_vbatched, GetrfOptions};
use vbatch_core::qr::{geqrf_vbatched, GeqrfOptions};
use vbatch_core::shard::ShardedReport;
use vbatch_core::solve::getrs_vbatched;
use vbatch_core::{
    getrf_sharded, potrf_hybrid, potrf_sharded, potrf_vbatched, HostCostModel, HostEngine,
    HostState, PotrfOptions, SepOpts, ShardOpts, ShardedState, Strategy, VBatch,
};
use vbatch_dense::gen::{diag_dominant_vec, rand_mat, seeded_rng, spd_vec};
use vbatch_gpu_sim::{Device, DeviceConfig, DeviceGroup};
use vbatch_workload::{fill_spd_batch, SizeDist};

const SIZES: [usize; 10] = [33, 7, 150, 64, 1, 0, 90, 12, 128, 45];

/// What a golden row runs: a Cholesky strategy (on [`SIZES`] or on a
/// batch of tiny matrices), the LU factorization,
/// the LU solve after it (the factorization's charges excluded), or QR
/// on `2n × n` matrices.
#[derive(Clone, Copy, Debug)]
enum Leg {
    Potrf(Strategy),
    /// Fused Cholesky on 2 000 Uniform{32} matrices: every window at or
    /// below the interleave cutoff.
    PotrfTiny,
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

const GOLDENS: [Golden; 6] = [
    Golden {
        leg: Leg::Potrf(Strategy::Fused),
        now_bits: 0x3f25_3e64_949c_fc22, // 1.62076738257938924e-4 s
        energy_j: 6.989_361_379_816_382e-3,
        launches: 11,
    },
    Golden {
        leg: Leg::Potrf(Strategy::Separated),
        now_bits: 0x3f2b_4aed_8450_b246, // 2.08226674801708321e-4 s
        energy_j: 8.942_984_833_435_023e-3,
        launches: 23,
    },
    Golden {
        leg: Leg::PotrfTiny,
        now_bits: 0x3f32_d48d_aa04_71ef, // 2.87327371568029310e-4 s
        energy_j: 4.942_866_290_868_417e-2,
        launches: 7,
    },
    Golden {
        leg: Leg::Getrf,
        now_bits: 0x3f3b_8102_cb8b_4db1, // 4.19676954647142544e-4 s
        energy_j: 1.985_131_058_735_002_3e-2,
        launches: 47,
    },
    Golden {
        leg: Leg::Getrs,
        now_bits: 0x3f07_43f9_a316_3eac, // 4.43754728492983528e-5 s
        energy_j: 2.339_576_251_372_788_4e-3,
        launches: 3,
    },
    Golden {
        leg: Leg::Geqrf,
        now_bits: 0x3f3e_68fd_45bb_cc5e, // 4.64021524506813099e-4 s
        energy_j: 2.927_668_319_137_687_4e-2,
        launches: 37,
    },
];

/// Runs `leg` on the batch seeded over [`SIZES`] (`PotrfTiny`: over
/// its own sizes); the device's clock, energy and launch count then
/// cover the leg alone.
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
            potrf_sizes(dev, strategy, &mut rng);
        }
        Leg::PotrfTiny => {
            let sizes = SizeDist::Uniform { max: 32 }.sample_batch(&mut rng, 2_000);
            let mut batch = VBatch::<f64>::alloc_square(dev, &sizes).unwrap();
            fill_spd_batch(&mut batch, &sizes, &mut rng);
            let opts = PotrfOptions {
                strategy: Strategy::Fused,
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

/// Factors the SPD batch over [`SIZES`] with `strategy`, the device's
/// metrics reset just before the call; returns the factored batch.
fn potrf_sizes(dev: &Device, strategy: Strategy, rng: &mut StdRng) -> VBatch<f64> {
    let mut batch = VBatch::<f64>::alloc_square(dev, &SIZES).unwrap();
    fill_spd_batch(&mut batch, &SIZES, rng);
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
    assert!(report.all_ok(), "{strategy:?}: {:?}", report.failures());
    batch
}

/// FNV-1a over 64-bit words.
fn fnv(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

/// The Cholesky row's factor bits and `info` under `strategy`,
/// FNV-hashed.
fn potrf_factor_hash(strategy: Strategy) -> u64 {
    let dev = Device::new(DeviceConfig::k40c());
    let batch = potrf_sizes(&dev, strategy, &mut seeded_rng(7));
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (i, &info) in batch.read_info().iter().enumerate() {
        fnv(&mut h, info as u64);
        for v in batch.download_matrix(i) {
            fnv(&mut h, v.to_bits());
        }
    }
    h
}

/// The Separated row's clock moves whenever its launch grids change
/// shape; this pin (recorded before the grids were compacted to live
/// work) keeps a re-pinned clock from hiding a moved factor bit.
#[test]
fn separated_factor_bits_are_pinned() {
    let h = potrf_factor_hash(Strategy::Separated);
    assert_eq!(
        h, 0x43f7_a5d9_14c6_1888,
        "factor bits or info moved (hash {h:#018x})"
    );
}

/// As [`separated_factor_bits_are_pinned`] for the Fused row, recorded
/// before its step loop launched only each window's live suffix.
#[test]
fn fused_factor_bits_are_pinned() {
    let h = potrf_factor_hash(Strategy::Fused);
    assert_eq!(
        h, 0x4f9f_1e5c_d6f3_733e,
        "factor bits or info moved (hash {h:#018x})"
    );
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

/// What a schedule golden row runs: `potrf_sharded` on a homogeneous
/// K40c group, `potrf_hybrid` on one K40c plus a two-thread host peer,
/// or `getrf_sharded`.
#[derive(Clone, Copy, Debug)]
enum Schedule {
    Sharded { devices: usize, steal: bool },
    Hybrid,
    GetrfSharded { devices: usize },
}

/// One peer's `(shards, stolen, matrices)`; a hybrid row lists the
/// host peer last.
type PeerRow = (usize, u32, usize);

struct ScheduleGolden {
    run: Schedule,
    makespan_bits: u64,
    energy_bits: u64,
    steals: u32,
    peers: &'static [PeerRow],
}

/// The shard scheduler's placement and clock: makespan, energy, steals
/// and each peer's share, bit for bit. Factor bits are pinned by
/// `tests/sharding.rs`; these rows pin where the shards ran and what
/// that cost, which no factor bit shows.
const SCHEDULE_GOLDENS: [ScheduleGolden; 6] = [
    ScheduleGolden {
        run: Schedule::Sharded {
            devices: 1,
            steal: true,
        },
        makespan_bits: 0x3f4e_9895_bfd1_3818, // 9.33716888207094912e-4 s
        energy_bits: 0x3fa4_5fb2_22f6_5412,   // 3.97926013639918891e-2 J
        steals: 0,
        peers: &[(3, 0, 48)],
    },
    ScheduleGolden {
        run: Schedule::Sharded {
            devices: 2,
            steal: true,
        },
        makespan_bits: 0x3f43_470c_8642_8899, // 5.88303676085882789e-4 s
        energy_bits: 0x3fa7_5d15_8119_bc14,   // 4.56320495694556849e-2 J
        steals: 0,
        peers: &[(3, 0, 26), (3, 0, 22)],
    },
    ScheduleGolden {
        run: Schedule::Sharded {
            devices: 4,
            steal: true,
        },
        makespan_bits: 0x3f3c_d0e1_7e57_574e, // 4.39696361664733480e-4 s
        energy_bits: 0x3fae_c91e_c71b_6f1f,   // 6.01281755495774936e-2 J
        steals: 2,
        peers: &[(1, 0, 3), (4, 1, 19), (4, 1, 14), (3, 0, 12)],
    },
    ScheduleGolden {
        run: Schedule::Sharded {
            devices: 4,
            steal: false,
        },
        makespan_bits: 0x3f3f_d731_2250_60bf, // 4.85848899474127600e-4 s
        energy_bits: 0x3fb0_9306_7f9a_ff41,   // 6.47434293305169245e-2 J
        steals: 0,
        peers: &[(3, 0, 12), (3, 0, 14), (3, 0, 10), (3, 0, 12)],
    },
    ScheduleGolden {
        run: Schedule::Hybrid,
        makespan_bits: 0x3f47_cfd3_b308_0f20, // 7.26679200000000108e-4 s
        energy_bits: 0x3fc9_2028_691c_2e43,   // 1.96293879817277611e-1 J
        steals: 0,
        peers: &[(4, 0, 32), (2, 0, 16)],
    },
    ScheduleGolden {
        run: Schedule::GetrfSharded { devices: 2 },
        makespan_bits: 0x3f42_a86a_c3b7_7fe8, // 5.69393282997762880e-4 s
        energy_bits: 0x3fb1_c4da_3b05_51c0,   // 6.94099802106569186e-2 J
        steals: 0,
        peers: &[(3, 0, 26), (3, 0, 22)],
    },
];

/// Runs `run` on a seeded mixed-size workload and returns its report.
fn run_schedule(run: Schedule) -> ShardedReport {
    let mut rng = seeded_rng(0x5CED);
    let sizes = SizeDist::Gaussian { max: 160 }.sample_batch(&mut rng, 48);
    let mut mats: Vec<Vec<f64>> = match run {
        Schedule::GetrfSharded { .. } => sizes
            .iter()
            .map(|&n| diag_dominant_vec(&mut rng, n, n))
            .collect(),
        _ => sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect(),
    };
    let shard_opts = |steal| ShardOpts {
        steal,
        ..ShardOpts::default()
    };
    let group = |devices| DeviceGroup::homogeneous(DeviceConfig::k40c(), devices);
    let mut state = ShardedState::new();
    let opts = PotrfOptions::default();
    let report = match run {
        Schedule::Sharded { devices, steal } => potrf_sharded(
            &group(devices),
            &sizes,
            &mut mats,
            &opts,
            &shard_opts(steal),
            &mut state,
        ),
        Schedule::Hybrid => potrf_hybrid(
            &group(1),
            &HostEngine::with_threads(2),
            &HostCostModel::default_for_threads(2),
            &sizes,
            &mut mats,
            &opts,
            &shard_opts(true),
            &mut state,
            &mut HostState::new(),
        ),
        Schedule::GetrfSharded { devices } => getrf_sharded(
            &group(devices),
            &sizes,
            &mut mats,
            &GetrfOptions::default(),
            &shard_opts(true),
            &mut state,
        )
        .map(|(report, _)| report),
    }
    .unwrap();
    assert!(
        report.info.iter().all(|&i| i == 0),
        "{run:?}: {:?}",
        report.info
    );
    report
}

#[test]
fn shard_schedules_are_pinned() {
    for g in &SCHEDULE_GOLDENS {
        let report = run_schedule(g.run);
        let mut peers: Vec<PeerRow> = report
            .per_device
            .iter()
            .map(|d| (d.shards, d.stolen, d.matrices))
            .collect();
        peers.extend(report.host.map(|h| (h.shards, h.stolen, h.matrices)));
        let got = (
            report.makespan_s.to_bits(),
            report.energy_j.to_bits(),
            report.steals,
            peers.as_slice(),
        );
        assert_eq!(
            got,
            (g.makespan_bits, g.energy_bits, g.steals, g.peers),
            "{:?}: schedule drifted (makespan {:.17e} s, energy {:.17e} J)",
            g.run,
            report.makespan_s,
            report.energy_j
        );
    }
}
