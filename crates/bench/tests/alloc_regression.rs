//! Allocation-regression tests: a warm [`DriverWorkspace`] makes the
//! steady-state driver loop perform **zero device allocations** (and
//! zero frees). Pinned via the monotonic `Device::alloc_count` /
//! `free_count` counters so any future per-call scratch sneaking back
//! into the drivers fails loudly.

use vbatch_core::lu::{getrf_vbatched_ws, GetrfOptions};
use vbatch_core::qr::{geqrf_vbatched_ws, GeqrfOptions};
use vbatch_core::{
    getrf_sharded, potrf_hybrid, potrf_sharded, potrf_vbatched_max_ws, potrf_vbatched_ws,
    DriverWorkspace, HostCostModel, HostEngine, HostState, PotrfOptions, SepOpts, ShardOpts,
    ShardedState, Strategy, VBatch,
};
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};
use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Device, DeviceConfig, DeviceGroup};
use vbatch_workload::{fill_spd_batch, SizeDist};

const SIZES: [usize; 10] = [33, 7, 150, 64, 1, 0, 90, 12, 128, 45];

fn potrf_steady_state_is_alloc_free<T: Scalar>(strategy: Strategy) {
    let dev = Device::new(DeviceConfig::k40c());
    let mut batch = VBatch::<T>::alloc_square(&dev, &SIZES).unwrap();
    let mut rng = seeded_rng(7);
    fill_spd_batch(&mut batch, &SIZES, &mut rng);
    let opts = PotrfOptions {
        strategy,
        sep: SepOpts {
            nb_panel: 32,
            nb_inner: 8,
        },
        ..Default::default()
    };
    let mut ws = DriverWorkspace::<T>::new();
    // Cold call: allowed (and expected) to allocate into the workspace.
    let report = potrf_vbatched_max_ws(&dev, &mut batch, 150, &opts, &mut ws).unwrap();
    assert!(report.all_ok());
    let allocs = dev.alloc_count();
    let frees = dev.free_count();
    assert!(allocs > 0, "cold call must have populated the workspace");

    // Warm calls: refactor the same batch twice more — zero device
    // allocations and zero frees.
    for _ in 0..2 {
        fill_spd_batch(&mut batch, &SIZES, &mut seeded_rng(7));
        let report = potrf_vbatched_max_ws(&dev, &mut batch, 150, &opts, &mut ws).unwrap();
        assert!(report.all_ok());
    }
    assert_eq!(
        dev.alloc_count(),
        allocs,
        "{strategy:?}: warm driver call allocated device memory"
    );
    assert_eq!(
        dev.free_count(),
        frees,
        "{strategy:?}: warm driver call freed device memory"
    );
}

#[test]
fn potrf_fused_warm_zero_device_allocs_f64() {
    potrf_steady_state_is_alloc_free::<f64>(Strategy::Fused);
}

#[test]
fn potrf_fused_warm_zero_device_allocs_f32() {
    potrf_steady_state_is_alloc_free::<f32>(Strategy::Fused);
}

#[test]
fn potrf_separated_warm_zero_device_allocs_f64() {
    potrf_steady_state_is_alloc_free::<f64>(Strategy::Separated);
}

#[test]
fn potrf_separated_warm_zero_device_allocs_f32() {
    potrf_steady_state_is_alloc_free::<f32>(Strategy::Separated);
}

#[test]
fn potrf_interleaved_warm_zero_device_allocs() {
    // Every size at or below INTERLEAVE_CUTOFF: the fused driver routes
    // every window through the interleaved batched-small kernel, whose
    // lane-group scratch must come from the pooled workspace — warm
    // calls make zero device allocations, like every other driver path.
    let sizes: [usize; 9] = [4, 32, 7, 16, 1, 8, 27, 32, 3];
    let dev = Device::new(DeviceConfig::k40c());
    let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(13));
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        ..Default::default()
    };
    let mut ws = DriverWorkspace::<f64>::new();
    let report = potrf_vbatched_max_ws(&dev, &mut batch, 32, &opts, &mut ws).unwrap();
    assert!(report.all_ok());
    let allocs = dev.alloc_count();
    let frees = dev.free_count();
    assert!(allocs > 0, "cold call must have populated the workspace");
    for _ in 0..2 {
        fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(13));
        let report = potrf_vbatched_max_ws(&dev, &mut batch, 32, &opts, &mut ws).unwrap();
        assert!(report.all_ok());
    }
    assert_eq!(
        dev.alloc_count(),
        allocs,
        "warm interleaved call allocated device memory"
    );
    assert_eq!(
        dev.free_count(),
        frees,
        "warm interleaved call freed device memory"
    );
    // The pooled interleave buffer is accounted for by the workspace.
    assert!(ws.device_bytes() > 0);
}

#[test]
fn potrf_lapack_interface_warm_zero_device_allocs() {
    // The LAPACK-style entry (device max reduction) must be warm too.
    let dev = Device::new(DeviceConfig::k40c());
    let mut batch = VBatch::<f64>::alloc_square(&dev, &SIZES).unwrap();
    fill_spd_batch(&mut batch, &SIZES, &mut seeded_rng(7));
    let opts = PotrfOptions::default();
    let mut ws = DriverWorkspace::<f64>::new();
    potrf_vbatched_ws(&dev, &mut batch, &opts, &mut ws).unwrap();
    let allocs = dev.alloc_count();
    fill_spd_batch(&mut batch, &SIZES, &mut seeded_rng(7));
    potrf_vbatched_ws(&dev, &mut batch, &opts, &mut ws).unwrap();
    assert_eq!(dev.alloc_count(), allocs);
}

#[test]
fn lu_warm_allocates_only_the_pivot_arena() {
    let dev = Device::new(DeviceConfig::k40c());
    let dims: Vec<(usize, usize)> = vec![(40, 40), (7, 7), (90, 60), (33, 70), (64, 64)];
    let mut rng = seeded_rng(81);
    let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
    for (i, &(m, n)) in dims.iter().enumerate() {
        batch
            .upload_matrix(i, &vbatch_dense::gen::rand_mat::<f64>(&mut rng, m * n))
            .unwrap();
    }
    let opts = GetrfOptions {
        nb_panel: 16,
        ..Default::default()
    };
    let mut ws = DriverWorkspace::<f64>::new();
    let (report, pivots) = getrf_vbatched_ws(&dev, &mut batch, &opts, &mut ws).unwrap();
    assert!(report.all_ok());
    drop(pivots);
    let allocs = dev.alloc_count();
    let (report, pivots) = getrf_vbatched_ws(&dev, &mut batch, &opts, &mut ws).unwrap();
    assert!(report.all_ok());
    // The returned pivot arena (arena + pointer array) is the only
    // per-call device allocation left.
    assert_eq!(dev.alloc_count(), allocs + 2);
    drop(pivots);
}

#[test]
fn qr_warm_allocates_only_the_tau_arena() {
    let dev = Device::new(DeviceConfig::k40c());
    let dims: Vec<(usize, usize)> = vec![(48, 32), (16, 16), (80, 40)];
    let mut rng = seeded_rng(82);
    let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
    for (i, &(m, n)) in dims.iter().enumerate() {
        batch
            .upload_matrix(i, &vbatch_dense::gen::rand_mat::<f64>(&mut rng, m * n))
            .unwrap();
    }
    let opts = GeqrfOptions::default();
    let mut ws = DriverWorkspace::<f64>::new();
    let (report, tau) = geqrf_vbatched_ws(&dev, &mut batch, &opts, &mut ws).unwrap();
    assert!(report.all_ok());
    drop(tau);
    let allocs = dev.alloc_count();
    let (report, tau) = geqrf_vbatched_ws(&dev, &mut batch, &opts, &mut ws).unwrap();
    assert!(report.all_ok());
    assert_eq!(dev.alloc_count(), allocs + 2);
    drop(tau);
}

fn sharded_potrf_steady_state_is_alloc_free(devices: usize) {
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), devices);
    let mut rng = seeded_rng(0x5A);
    let sizes = SizeDist::Gaussian { max: 150 }.sample_batch(&mut rng, 64);
    let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
    let opts = PotrfOptions::default();
    let shard_opts = ShardOpts::default();
    let mut state = ShardedState::new();

    // Cold pass: primes workspaces and per-device pools.
    let mut work = mats.clone();
    potrf_sharded(&group, &sizes, &mut work, &opts, &shard_opts, &mut state).unwrap();
    let allocs: Vec<u64> = group.devices().iter().map(|d| d.alloc_count()).collect();
    let frees: Vec<u64> = group.devices().iter().map(|d| d.free_count()).collect();
    assert!(allocs.iter().sum::<u64>() > 0, "cold pass must allocate");

    // Warm passes: zero device allocations and zero frees, per device.
    for pass in 0..2 {
        let mut work = mats.clone();
        let report =
            potrf_sharded(&group, &sizes, &mut work, &opts, &shard_opts, &mut state).unwrap();
        assert!(report.info.iter().all(|&i| i == 0));
        for (d, dev) in group.devices().iter().enumerate() {
            assert_eq!(
                dev.alloc_count(),
                allocs[d],
                "{devices}-device warm pass {pass}: device {d} allocated"
            );
            assert_eq!(
                dev.free_count(),
                frees[d],
                "{devices}-device warm pass {pass}: device {d} freed"
            );
        }
        // Pool high-water marks are reported per device and only cover
        // devices that actually got work.
        for rec in &report.per_device {
            if rec.matrices > 0 {
                assert!(
                    rec.pool_high_water_bytes > 0,
                    "device {} ran {} matrices but reports no pool usage",
                    rec.device,
                    rec.matrices
                );
            }
        }
    }
}

#[test]
fn sharded_potrf_warm_zero_device_allocs_2_devices() {
    sharded_potrf_steady_state_is_alloc_free(2);
}

#[test]
fn sharded_potrf_warm_zero_device_allocs_4_devices() {
    sharded_potrf_steady_state_is_alloc_free(4);
}

fn sharded_getrf_steady_state_is_alloc_free(devices: usize) {
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), devices);
    let mut rng = seeded_rng(0x5B);
    let sizes = SizeDist::Uniform { max: 120 }.sample_batch(&mut rng, 48);
    let mats: Vec<Vec<f64>> = sizes
        .iter()
        .map(|&n| diag_dominant_vec::<f64>(&mut rng, n, n))
        .collect();
    let opts = GetrfOptions::default();
    let shard_opts = ShardOpts::default();
    let mut state = ShardedState::new();

    let mut work = mats.clone();
    getrf_sharded(&group, &sizes, &mut work, &opts, &shard_opts, &mut state).unwrap();
    let allocs: Vec<u64> = group.devices().iter().map(|d| d.alloc_count()).collect();
    let frees: Vec<u64> = group.devices().iter().map(|d| d.free_count()).collect();

    for pass in 0..2 {
        let mut work = mats.clone();
        let (report, _pivots) =
            getrf_sharded(&group, &sizes, &mut work, &opts, &shard_opts, &mut state).unwrap();
        assert!(report.info.iter().all(|&i| i == 0));
        for (d, dev) in group.devices().iter().enumerate() {
            assert_eq!(
                dev.alloc_count(),
                allocs[d],
                "{devices}-device warm getrf pass {pass}: device {d} allocated"
            );
            assert_eq!(
                dev.free_count(),
                frees[d],
                "{devices}-device warm getrf pass {pass}: device {d} freed"
            );
        }
    }
}

#[test]
fn hybrid_potrf_warm_zero_device_allocs() {
    // The cooperative host+device path must keep the device side as
    // warm as plain sharding: the host peer executes its shards in host
    // memory and must never touch the device allocator.
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 2);
    let engine = HostEngine::with_threads(2);
    let model = HostCostModel::default_for_threads(2);
    let mut rng = seeded_rng(0x5C);
    let sizes = SizeDist::Gaussian { max: 150 }.sample_batch(&mut rng, 64);
    let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        ..Default::default()
    };
    let shard_opts = ShardOpts::default();
    let mut state = ShardedState::new();
    let mut hstate = HostState::new();

    let mut work = mats.clone();
    let report = potrf_hybrid(
        &group,
        &engine,
        &model,
        &sizes,
        &mut work,
        &opts,
        &shard_opts,
        &mut state,
        &mut hstate,
    )
    .unwrap();
    assert!(report.host.is_some_and(|h| h.matrices > 0));
    let allocs: Vec<u64> = group.devices().iter().map(|d| d.alloc_count()).collect();
    let frees: Vec<u64> = group.devices().iter().map(|d| d.free_count()).collect();
    assert!(allocs.iter().sum::<u64>() > 0, "cold pass must allocate");

    for pass in 0..2 {
        let mut work = mats.clone();
        let report = potrf_hybrid(
            &group,
            &engine,
            &model,
            &sizes,
            &mut work,
            &opts,
            &shard_opts,
            &mut state,
            &mut hstate,
        )
        .unwrap();
        assert!(report.info.iter().all(|&i| i == 0));
        for (d, dev) in group.devices().iter().enumerate() {
            assert_eq!(
                dev.alloc_count(),
                allocs[d],
                "hybrid warm pass {pass}: device {d} allocated"
            );
            assert_eq!(
                dev.free_count(),
                frees[d],
                "hybrid warm pass {pass}: device {d} freed"
            );
        }
    }
}

#[test]
fn sharded_getrf_warm_zero_device_allocs_2_devices() {
    sharded_getrf_steady_state_is_alloc_free(2);
}

#[test]
fn sharded_getrf_warm_zero_device_allocs_4_devices() {
    sharded_getrf_steady_state_is_alloc_free(4);
}

#[test]
fn workspace_results_match_per_call_path() {
    // The pooled path must produce bit-identical factors and identical
    // simulated time to the per-call path.
    for strategy in [Strategy::Fused, Strategy::Separated] {
        let opts = PotrfOptions {
            strategy,
            sep: SepOpts {
                nb_panel: 32,
                nb_inner: 8,
            },
            ..Default::default()
        };
        let dev_a = Device::new(DeviceConfig::k40c());
        let mut batch_a = VBatch::<f64>::alloc_square(&dev_a, &SIZES).unwrap();
        fill_spd_batch(&mut batch_a, &SIZES, &mut seeded_rng(7));
        vbatch_core::potrf_vbatched_max(&dev_a, &mut batch_a, 150, &opts).unwrap();

        let dev_b = Device::new(DeviceConfig::k40c());
        let mut batch_b = VBatch::<f64>::alloc_square(&dev_b, &SIZES).unwrap();
        fill_spd_batch(&mut batch_b, &SIZES, &mut seeded_rng(7));
        let mut ws = DriverWorkspace::<f64>::new();
        // Pre-warm on a *different* shape so reuse (not first-fill) is
        // what's under test.
        let warm_sizes = [20usize, 5, 64];
        let mut warm = VBatch::<f64>::alloc_square(&dev_b, &warm_sizes).unwrap();
        fill_spd_batch(&mut warm, &warm_sizes, &mut seeded_rng(9));
        potrf_vbatched_max_ws(&dev_b, &mut warm, 64, &opts, &mut ws).unwrap();
        dev_b.reset_metrics();
        potrf_vbatched_max_ws(&dev_b, &mut batch_b, 150, &opts, &mut ws).unwrap();

        assert_eq!(
            dev_a.now().to_bits(),
            dev_b.now().to_bits(),
            "{strategy:?}: pooled path changed the simulated clock"
        );
        for (i, &n) in SIZES.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let fa = batch_a.download_matrix(i);
            let fb = batch_b.download_matrix(i);
            assert!(
                fa.iter().zip(&fb).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{strategy:?}: matrix {i} differs between pooled and per-call paths"
            );
        }
    }
}
