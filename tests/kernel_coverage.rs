//! Launched-kernel coverage: every driver family launches once, and
//! every kernel any driven device profiled must
//!
//! * carry an interned name (`intern::known_names()`), so the kernel
//!   vocabulary stays enumerable and the launch path allocation-free;
//! * have charged work (`flops_useful + gmem_bytes > 0`) unless every
//!   block it ran exited early, so no kernel runs for free on the
//!   simulated clock and energy.
//!
//! One `#[test]` on purpose: the intern registry is process-global and
//! append-only, and this file is its own process, so what
//! `known_names()` returns at the end is exactly what ran here.

use vbatch_core::lu::{getrf_vbatched, GetrfOptions};
use vbatch_core::qr::{gels_vbatched, geqrf_vbatched, GeqrfOptions};
use vbatch_core::solve::{getrs_vbatched, potri_vbatched, potrs_vbatched};
use vbatch_core::{
    potrf_sharded, potrf_vbatched, FusedOpts, PotrfOptions, SepOpts, ShardOpts, ShardedState,
    Strategy, VBatch,
};
use vbatch_dense::gen::{diag_dominant_vec, rand_mat, seeded_rng, spd_vec};
use vbatch_dense::{Scalar, Uplo};
use vbatch_gpu_sim::{Device, DeviceConfig, DeviceGroup};
use vbatch_serve::{BatchService, Op, ResponseStatus, ServeConfig};
use vbatch_workload::fill_spd_batch;

/// Runs every single-device driver family once in precision `T` on
/// batches just large enough to reach each kernel.
fn drive_single_device_families<T: Scalar>(dev: &Device) {
    let mut rng = seeded_rng(0xC0DE);

    // Fused step loop (every order above the interleave cutoff of 32),
    // then the interleaved window (every order at or below it).
    let fused = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts {
            sorting: true,
            ..Default::default()
        },
        ..Default::default()
    };
    for sizes in [[96usize, 70, 40, 83], [9, 5, 4, 3]] {
        let mut batch = VBatch::<T>::alloc_square(dev, &sizes).unwrap();
        fill_spd_batch(&mut batch, &sizes, &mut rng);
        assert!(potrf_vbatched(dev, &mut batch, &fused).unwrap().all_ok());
    }

    // Separated path, both triangles; the factors feed the
    // solve/inverse kernels.
    let sizes = [100usize, 40, 77];
    for uplo in [Uplo::Lower, Uplo::Upper] {
        let opts = PotrfOptions {
            uplo,
            strategy: Strategy::Separated,
            sep: SepOpts {
                nb_panel: 32,
                nb_inner: 8,
            },
            ..Default::default()
        };
        let mut batch = VBatch::<T>::alloc_square(dev, &sizes).unwrap();
        fill_spd_batch(&mut batch, &sizes, &mut rng);
        assert!(potrf_vbatched(dev, &mut batch, &opts).unwrap().all_ok());
        if uplo == Uplo::Lower {
            let rhs = rhs_batch::<T>(dev, &sizes, &mut rng);
            potrs_vbatched(dev, &batch, &rhs).unwrap();
        }
        potri_vbatched(dev, &batch, uplo).unwrap();
    }

    // LU and its solve, on general matrices: partial pivoting swaps
    // rows, so the row-interchange kernels move (and charge) data.
    let mut batch = VBatch::<T>::alloc_square(dev, &sizes).unwrap();
    for (i, &n) in sizes.iter().enumerate() {
        batch
            .upload_matrix(i, &rand_mat::<T>(&mut rng, n * n))
            .unwrap();
    }
    let lu = GetrfOptions {
        nb_panel: 16,
        ..Default::default()
    };
    let (report, pivots) = getrf_vbatched(dev, &mut batch, &lu).unwrap();
    assert!(report.all_ok());
    let rhs = rhs_batch::<T>(dev, &sizes, &mut rng);
    getrs_vbatched(dev, &batch, &pivots, &rhs).unwrap();

    // QR and least squares on tall matrices.
    let dims = [(48usize, 20usize), (30, 30), (64, 9)];
    let qr = GeqrfOptions {
        nb_panel: 8,
        tile_cols: 8,
        ..Default::default()
    };
    let tall = |rng: &mut _| {
        let mut batch = VBatch::<T>::alloc(dev, &dims).unwrap();
        for (i, &(m, n)) in dims.iter().enumerate() {
            batch.upload_matrix(i, &rand_mat::<T>(rng, m * n)).unwrap();
        }
        batch
    };
    let mut batch = tall(&mut rng);
    assert!(geqrf_vbatched(dev, &mut batch, &qr).unwrap().0.all_ok());
    let mut batch = tall(&mut rng);
    let rows: Vec<usize> = dims.iter().map(|&(m, _)| m).collect();
    let rhs = rhs_batch::<T>(dev, &rows, &mut rng);
    assert!(gels_vbatched(dev, &mut batch, &rhs, &qr).unwrap().all_ok());
}

/// Two random right-hand-side columns per matrix of `rows[i]` rows.
fn rhs_batch<T: Scalar>(dev: &Device, rows: &[usize], rng: &mut impl rand::Rng) -> VBatch<T> {
    let dims: Vec<(usize, usize)> = rows.iter().map(|&m| (m, 2)).collect();
    let mut rhs = VBatch::<T>::alloc(dev, &dims).unwrap();
    for (i, &m) in rows.iter().enumerate() {
        rhs.upload_matrix(i, &rand_mat::<T>(rng, m * 2)).unwrap();
    }
    rhs
}

#[test]
fn every_launched_kernel_is_interned_and_charges_work() {
    let dev = Device::new(DeviceConfig::k40c());
    drive_single_device_families::<f64>(&dev);
    drive_single_device_families::<f32>(&dev);

    // Sharded driver on two devices.
    let mut rng = seeded_rng(0x5AD);
    let sizes = [64usize, 48, 20, 8, 6, 90];
    let mut mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 2);
    let report = potrf_sharded(
        &group,
        &sizes,
        &mut mats,
        &PotrfOptions::default(),
        &ShardOpts::default(),
        &mut ShardedState::new(),
    )
    .unwrap();
    assert!(report.info.iter().all(|&i| i == 0));

    // One serving window carrying both request types.
    let mut svc =
        BatchService::<f64>::new(Device::new(DeviceConfig::k40c()), ServeConfig::default());
    for (k, &n) in [24usize, 8, 40, 16].iter().enumerate() {
        let (op, payload) = if k % 2 == 0 {
            (Op::Potrf, spd_vec::<f64>(&mut rng, n))
        } else {
            (Op::Getrf, diag_dominant_vec::<f64>(&mut rng, n, n))
        };
        svc.submit(0.0, k as u32, op, n, payload, None)
            .expect("accepted");
    }
    svc.drain();
    let responses = svc.take_responses();
    assert_eq!(responses.len(), 4);
    assert!(responses
        .iter()
        .all(|r| r.status == ResponseStatus::Factored));

    let launched = vbatch_gpu_sim::intern::known_names();
    assert!(
        launched.len() >= 30,
        "the families above should reach most of the kernel vocabulary, got {launched:?}"
    );
    for d in std::iter::once(&dev)
        .chain(group.devices())
        .chain([svc.device()])
    {
        d.with_profiler(|p| {
            for (name, e) in p.sorted_by_time() {
                assert!(
                    launched.contains(&name),
                    "kernel `{name}` launched under a name the intern registry never saw"
                );
                // A block the early-termination mechanism retired
                // does no work; every other block must charge some.
                assert!(
                    e.flops_useful + e.gmem_bytes > 0.0 || e.early_exit_blocks == e.blocks,
                    "kernel `{name}` charged no flops and no memory traffic over {} launches",
                    e.launches
                );
            }
        });
    }
}
