//! Multi-device sharding: cross-device-count bit-identity, numerical
//! correctness, scaling, overlap and work-stealing behavior.

use proptest::prelude::*;
use vbatch_core::shard::normalized_options;
use vbatch_core::{
    getrf_sharded, plan_shards, potrf_hybrid, potrf_sharded, GetrfOptions, HostCostModel,
    HostEngine, HostState, PotrfOptions, ShardOpts, ShardedState,
};
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};
use vbatch_gpu_sim::{Device, DeviceConfig, DeviceGroup};
use vbatch_workload::SizeDist;

/// Seeded mixed-size SPD workload in host (global) order.
fn spd_workload(seed: u64, count: usize, max: usize) -> (Vec<usize>, Vec<Vec<f64>>) {
    let mut rng = seeded_rng(seed);
    let sizes = SizeDist::Gaussian { max }.sample_batch(&mut rng, count);
    let mats = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
    (sizes, mats)
}

fn run_sharded_potrf(
    devices: usize,
    sizes: &[usize],
    mats: &[Vec<f64>],
    shard_opts: &ShardOpts,
) -> (Vec<Vec<f64>>, Vec<i32>, vbatch_core::shard::ShardedReport) {
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), devices);
    let mut state = ShardedState::new();
    let mut work = mats.to_vec();
    let report = potrf_sharded(
        &group,
        sizes,
        &mut work,
        &PotrfOptions::default(),
        shard_opts,
        &mut state,
    )
    .expect("sharded potrf succeeds");
    let info = report.info.clone();
    (work, info, report)
}

fn assert_bits_equal(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: matrix {i} length");
        for (j, (u, v)) in x.iter().zip(y).enumerate() {
            assert!(
                u.to_bits() == v.to_bits(),
                "{what}: matrix {i} elem {j}: {u:e} vs {v:e}"
            );
        }
    }
}

/// Lower-triangle Cholesky residual ‖A − L·Lᵀ‖∞ relative to ‖A‖∞.
fn potrf_residual(a: &[f64], l: &[f64], n: usize) -> f64 {
    let mut worst = 0.0f64;
    let mut scale = 1e-300f64;
    for i in 0..n {
        for j in 0..=i {
            let mut s = 0.0;
            for k in 0..=j {
                s += l[i + k * n] * l[j + k * n];
            }
            worst = worst.max((a[i + j * n] - s).abs());
            scale = scale.max(a[i + j * n].abs());
        }
    }
    worst / scale
}

#[test]
fn sharded_potrf_is_numerically_correct() {
    let (sizes, mats) = spd_workload(0xA11CE, 48, 128);
    let (factors, info, _) = run_sharded_potrf(2, &sizes, &mats, &ShardOpts::default());
    assert!(info.iter().all(|&i| i == 0), "info: {info:?}");
    for (i, &n) in sizes.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let r = potrf_residual(&mats[i], &factors[i], n);
        assert!(r < 1e-12, "matrix {i} (n={n}): residual {r:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Acceptance criterion: the same seeded workload produces
    /// bit-identical factors and `info` on 1-, 2-, 4- and 8-device
    /// groups, with stealing enabled.
    #[test]
    fn factors_bit_identical_across_device_counts(seed in 0u64..1_000_000) {
        let count = 24 + (seed as usize % 17);
        let max = 64 + (seed as usize % 80);
        let (sizes, mats) = spd_workload(seed, count, max);
        let opts = ShardOpts { shards_per_device: 3, steal: true };
        let (f1, i1, _) = run_sharded_potrf(1, &sizes, &mats, &opts);
        for devices in [2usize, 4, 8] {
            let (fd, id, _) = run_sharded_potrf(devices, &sizes, &mats, &opts);
            prop_assert!(i1 == id, "info differs at {} devices", devices);
            assert_bits_equal(&f1, &fd, &format!("{devices}-device factors"));
        }
    }
}

/// The sharded path agrees bit-for-bit with the plain single-device
/// driver run under the same pinned (normalized) options.
#[test]
fn sharded_matches_single_device_driver_bitwise() {
    let (sizes, mats) = spd_workload(0xBEEF, 40, 150);
    let dev = Device::new(DeviceConfig::k40c());
    let global_max = sizes.iter().copied().max().unwrap_or(0);
    let norm = normalized_options::<f64>(&dev, &PotrfOptions::default(), global_max);

    let mut batch = vbatch_core::VBatch::<f64>::alloc_square(&dev, &sizes).expect("alloc");
    for (i, m) in mats.iter().enumerate() {
        batch.upload_matrix(i, m).expect("upload");
    }
    let report = vbatch_core::potrf_vbatched(&dev, &mut batch, &norm).expect("plain driver");
    let reference: Vec<Vec<f64>> = (0..sizes.len()).map(|i| batch.download_matrix(i)).collect();

    let (factors, info, _) = run_sharded_potrf(4, &sizes, &mats, &ShardOpts::default());
    assert_eq!(info, report.info);
    assert_bits_equal(&reference, &factors, "sharded vs plain driver");
}

/// `potrf_sharded` and `potrf_hybrid` factorize the caller's matrices
/// in place: each `mats[i]` keeps its storage, and its factor bits match
/// the 1-device run. Orders reach 256 (512 KiB), so downloads of the
/// larger matrices run as split copies.
#[test]
fn sharded_and_hybrid_write_factors_into_the_callers_storage() {
    let (sizes, mats) = spd_workload(0x51DE, 64, 256);
    let (reference, ref_info, _) = run_sharded_potrf(1, &sizes, &mats, &ShardOpts::default());
    let addrs = |m: &[Vec<f64>]| m.iter().map(|v| v.as_ptr()).collect::<Vec<_>>();

    let mut work = mats.clone();
    let before = addrs(&work);
    let report = potrf_sharded(
        &DeviceGroup::homogeneous(DeviceConfig::k40c(), 4),
        &sizes,
        &mut work,
        &PotrfOptions::default(),
        &ShardOpts::default(),
        &mut ShardedState::new(),
    )
    .expect("sharded potrf");
    assert_eq!(addrs(&work), before, "potrf_sharded moved a matrix");
    assert_eq!(report.info, ref_info);
    assert_bits_equal(&reference, &work, "4 devices vs 1");

    let mut work = mats.clone();
    let before = addrs(&work);
    let report = potrf_hybrid(
        &DeviceGroup::homogeneous(DeviceConfig::k40c(), 1),
        &HostEngine::with_threads(2),
        &HostCostModel::default_for_threads(2),
        &sizes,
        &mut work,
        &PotrfOptions::default(),
        &ShardOpts::default(),
        &mut ShardedState::new(),
        &mut HostState::new(),
    )
    .expect("hybrid potrf");
    assert!(
        report.per_device[0].matrices > 0,
        "the device peer must download something"
    );
    assert_eq!(addrs(&work), before, "potrf_hybrid moved a matrix");
    assert_eq!(report.info, ref_info);
    assert_bits_equal(&reference, &work, "hybrid vs 1 device");
}

#[test]
fn sharded_getrf_bit_identical_across_device_counts() {
    let mut rng = seeded_rng(0x10D);
    let sizes = SizeDist::Uniform { max: 96 }.sample_batch(&mut rng, 30);
    let mats: Vec<Vec<f64>> = sizes
        .iter()
        .map(|&n| diag_dominant_vec::<f64>(&mut rng, n, n))
        .collect();
    let opts = GetrfOptions::default();
    let shard_opts = ShardOpts::default();

    let run = |devices: usize| {
        let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), devices);
        let mut state = ShardedState::new();
        let mut work = mats.clone();
        let (report, pivots) =
            getrf_sharded(&group, &sizes, &mut work, &opts, &shard_opts, &mut state)
                .expect("sharded getrf succeeds");
        (work, report.info, pivots)
    };

    let (f1, i1, p1) = run(1);
    assert!(i1.iter().all(|&i| i == 0), "info: {i1:?}");
    for devices in [2usize, 4, 8] {
        let (fd, id, pd) = run(devices);
        assert_eq!(i1, id, "info differs at {devices} devices");
        assert_eq!(p1, pd, "pivots differ at {devices} devices");
        assert_bits_equal(&f1, &fd, &format!("{devices}-device LU factors"));
    }
}

/// More devices must not be slower; with transfer/compute overlap the
/// group should scale visibly on a transfer-heavy mixed workload.
#[test]
fn sharded_makespan_scales_down_with_devices() {
    let (sizes, mats) = spd_workload(0x5CA1E, 96, 192);
    let opts = ShardOpts::default();
    let (_, _, r1) = run_sharded_potrf(1, &sizes, &mats, &opts);
    let (_, _, r2) = run_sharded_potrf(2, &sizes, &mats, &opts);
    let (_, _, r4) = run_sharded_potrf(4, &sizes, &mats, &opts);
    assert!(
        r2.makespan_s < r1.makespan_s / 1.5,
        "2-device speedup too low: {} vs {}",
        r1.makespan_s,
        r2.makespan_s
    );
    assert!(
        r4.makespan_s < r2.makespan_s,
        "4 devices slower than 2: {} vs {}",
        r2.makespan_s,
        r4.makespan_s
    );
    // Depth ≥ 2 shards per device means later uploads overlap compute.
    assert!(r2.overlap_efficiency > 0.0);

    // The shape of the `benchmark/` shard_hybrid workload
    // (Gaussian{384} x512, 4 shards per device, stealing on) must
    // scale near-linearly on the simulated clock.
    let (sizes, mats) = spd_workload(0x5AD, 512, 384);
    let opts = ShardOpts {
        shards_per_device: 4,
        steal: true,
    };
    let (_, _, r1) = run_sharded_potrf(1, &sizes, &mats, &opts);
    for (devices, at_least) in [(2, 1.8), (4, 3.2)] {
        let (_, _, r) = run_sharded_potrf(devices, &sizes, &mats, &opts);
        let scaling_x = r1.makespan_s / r.makespan_s;
        assert!(
            scaling_x >= at_least,
            "{devices}-device scaling {scaling_x:.2}x below {at_least}x"
        );
    }
}

/// A heterogeneous group (one device clocked far below the others)
/// triggers work-stealing: the fast devices drain their queues and take
/// shards planned for the slow one — and the bits still match the
/// homogeneous run.
#[test]
fn heterogeneous_group_steals_and_preserves_bits() {
    let (sizes, mats) = spd_workload(0x7EA1, 48, 128);
    let opts = ShardOpts {
        shards_per_device: 4,
        steal: true,
    };
    let (reference, ref_info, _) = run_sharded_potrf(1, &sizes, &mats, &opts);

    let mut slow = DeviceConfig::k40c();
    slow.clock_mhz /= 8.0;
    let group = DeviceGroup::from_configs(vec![
        DeviceConfig::k40c(),
        slow,
        DeviceConfig::k40c(),
        DeviceConfig::k40c(),
    ]);
    let mut state = ShardedState::new();
    let mut work = mats.clone();
    let report = potrf_sharded(
        &group,
        &sizes,
        &mut work,
        &PotrfOptions::default(),
        &opts,
        &mut state,
    )
    .expect("hetero sharded potrf succeeds");
    assert!(
        report.steals > 0,
        "fast devices should steal from the slow one"
    );
    assert_eq!(ref_info, report.info);
    assert_bits_equal(&reference, &work, "hetero vs 1-device factors");

    // Stealing must beat the no-steal plan on the same group.
    let mut state2 = ShardedState::new();
    let mut work2 = mats.clone();
    let group2 = DeviceGroup::from_configs(vec![
        DeviceConfig::k40c(),
        {
            let mut c = DeviceConfig::k40c();
            c.clock_mhz /= 8.0;
            c
        },
        DeviceConfig::k40c(),
        DeviceConfig::k40c(),
    ]);
    let no_steal = potrf_sharded(
        &group2,
        &sizes,
        &mut work2,
        &PotrfOptions::default(),
        &ShardOpts {
            shards_per_device: 4,
            steal: false,
        },
        &mut state2,
    )
    .expect("no-steal run succeeds");
    assert!(
        report.makespan_s < no_steal.makespan_s,
        "stealing should shorten the hetero makespan: {} vs {}",
        report.makespan_s,
        no_steal.makespan_s
    );
}

/// Planning invariants hold for every device count, including
/// degenerate workloads (zero-size matrices, fewer matrices than
/// shards).
#[test]
fn plan_handles_degenerate_workloads() {
    let cfg = DeviceConfig::k40c();
    for sizes in [vec![], vec![0usize, 0, 0], vec![7], vec![0, 12, 0, 5]] {
        for devices in [1usize, 2, 4, 8] {
            let shards = plan_shards::<f64>(&cfg, &sizes, devices, 3);
            let mut seen = vec![0u32; sizes.len()];
            for s in &shards {
                assert!(s.home < devices);
                for &i in &s.indices {
                    seen[i] += 1;
                }
            }
            assert!(
                seen.iter().all(|&c| c == 1),
                "sizes={sizes:?} devs={devices}"
            );
        }
    }
    // Degenerate workloads also run end-to-end.
    let sizes = [0usize, 12, 0, 5];
    let mats: Vec<Vec<f64>> = {
        let mut rng = seeded_rng(9);
        sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect()
    };
    let (factors, info, _) = run_sharded_potrf(4, &sizes, &mats, &ShardOpts::default());
    assert_eq!(info, vec![0; 4]);
    assert_eq!(factors[0].len(), 0);
    assert_eq!(factors[1].len(), 144);
}
