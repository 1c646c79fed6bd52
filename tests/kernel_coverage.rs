//! Launched-kernel coverage: every driver family launches once, and
//! every kernel any driven device profiled must have charged work
//! (`flops_useful + gmem_bytes > 0`) unless every block it ran exited
//! early, so no kernel runs for free on the simulated clock and energy.
//!
//! Kernel names are compile-time constants (`vbatch_core::kname!`), one
//! per precision: run on separate devices, the `f64` and `f32` families
//! must launch the same kernels, every typed name being `d` or `s`
//! followed by a base name both precisions share.
//!
//! Under a counting `#[global_allocator]`, the same families also show
//! that no kernel body heap-allocates: a kernel closure runs once per
//! block, so an allocation in one grows with the batch, and doubling
//! the batch must leave each warm driver call's host allocations nearly
//! flat. A panicking kernel already fails whichever test drives it (the
//! executor re-raises the panic in the launching thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use vbatch_baselines::hybrid::{potrf_hybrid_serial, HybridOptions};
use vbatch_baselines::CpuConfig;
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

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: our caller upheld this method's contract; `System` gets it unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: our caller upheld this method's contract; `System` gets it unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: our caller upheld this method's contract; `System` gets it unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The two tests share the process-wide counter, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// Per driver call, in call order: family, batch count, host allocations.
type Tally = Vec<(&'static str, usize, u64)>;

/// Runs `f`, recording the host allocations it made under `family`.
fn counted<R>(tally: &mut Tally, family: &'static str, count: usize, f: impl FnOnce() -> R) -> R {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    tally.push((family, count, ALLOCS.load(Ordering::Relaxed) - a0));
    r
}

/// Runs every single-device driver family once in precision `T` on
/// batches just large enough to reach each kernel, each size repeated
/// `copies` times.
fn drive_single_device_families<T: Scalar>(dev: &Device, copies: usize, tally: &mut Tally) {
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
        let sizes = sizes.repeat(copies);
        let mut batch = VBatch::<T>::alloc_square(dev, &sizes).unwrap();
        fill_spd_batch(&mut batch, &sizes, &mut rng);
        let report = counted(tally, "potrf fused", sizes.len(), || {
            potrf_vbatched(dev, &mut batch, &fused)
        });
        assert!(report.unwrap().all_ok());
    }

    // Separated path, both triangles; the factors feed the
    // solve/inverse kernels.
    let sizes = [100usize, 40, 77].repeat(copies);
    let count = sizes.len();
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
        let report = counted(tally, "potrf separated", count, || {
            potrf_vbatched(dev, &mut batch, &opts)
        });
        assert!(report.unwrap().all_ok());
        if uplo == Uplo::Lower {
            let rhs = rhs_batch::<T>(dev, &sizes, &mut rng);
            counted(tally, "potrs", count, || potrs_vbatched(dev, &batch, &rhs)).unwrap();
        }
        counted(tally, "potri", count, || potri_vbatched(dev, &batch, uplo)).unwrap();
    }

    // The hybrid baseline's device trsm/syrk, one matrix at a time.
    let mut batch = VBatch::<T>::alloc_square(dev, &sizes).unwrap();
    fill_spd_batch(&mut batch, &sizes, &mut rng);
    let cpu = CpuConfig::dual_e5_2670();
    let report = counted(tally, "hybrid", count, || {
        potrf_hybrid_serial(dev, &mut batch, &cpu, &HybridOptions { nb: 32 })
    });
    assert!(report.unwrap().all_ok());

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
    let (report, pivots) = counted(tally, "getrf", count, || {
        getrf_vbatched(dev, &mut batch, &lu)
    })
    .unwrap();
    assert!(report.all_ok());
    let rhs = rhs_batch::<T>(dev, &sizes, &mut rng);
    counted(tally, "getrs", count, || {
        getrs_vbatched(dev, &batch, &pivots, &rhs)
    })
    .unwrap();

    // QR and least squares on tall matrices.
    let dims = [(48usize, 20usize), (30, 30), (64, 9)].repeat(copies);
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
    let report = counted(tally, "geqrf", count, || {
        geqrf_vbatched(dev, &mut batch, &qr)
    });
    assert!(report.unwrap().0.all_ok());
    let mut batch = tall(&mut rng);
    let rows: Vec<usize> = dims.iter().map(|&(m, _)| m).collect();
    let rhs = rhs_batch::<T>(dev, &rows, &mut rng);
    let report = counted(tally, "gels", count, || {
        gels_vbatched(dev, &mut batch, &rhs, &qr)
    });
    assert!(report.unwrap().all_ok());
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

/// Every kernel name `d` profiled, in name order.
fn profiled_names(d: &Device) -> BTreeSet<String> {
    d.with_profiler(|p| {
        p.sorted_by_time()
            .into_iter()
            .map(|(name, _)| name.to_owned())
            .collect()
    })
}

#[test]
fn every_launched_kernel_charges_work() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let dev = Device::new(DeviceConfig::k40c());
    drive_single_device_families::<f64>(&dev, 1, &mut Tally::new());
    drive_single_device_families::<f32>(&dev, 1, &mut Tally::new());

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

    let devices: Vec<&Device> = std::iter::once(&dev)
        .chain(group.devices())
        .chain([svc.device()])
        .collect();
    let launched: BTreeSet<String> = devices.iter().flat_map(|d| profiled_names(d)).collect();
    eprintln!("{} kernels launched: {launched:?}", launched.len());
    assert!(
        launched.len() >= 30,
        "the families above should reach most of the kernel vocabulary, got {launched:?}"
    );
    for d in devices {
        d.with_profiler(|p| {
            for (name, e) in p.sorted_by_time() {
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

/// Run on separate devices, the two precisions launch the same kernels:
/// a name both devices profiled is precision-free (an auxiliary integer
/// kernel), and every other name is `d`+base on the `f64` device exactly
/// when `s`+base is on the `f32` one.
#[test]
fn typed_kernel_names_pair_across_precisions() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let (dev_d, dev_s) = (
        Device::new(DeviceConfig::k40c()),
        Device::new(DeviceConfig::k40c()),
    );
    drive_single_device_families::<f64>(&dev_d, 1, &mut Tally::new());
    drive_single_device_families::<f32>(&dev_s, 1, &mut Tally::new());
    let (names_d, names_s) = (profiled_names(&dev_d), profiled_names(&dev_s));
    let shared: BTreeSet<String> = names_d.intersection(&names_s).cloned().collect();
    assert!(
        shared.iter().all(|name| name.starts_with("vbatch_aux_")),
        "only the auxiliary integer kernels are precision-free, got {shared:?}"
    );
    let bases = |names: &BTreeSet<String>, prefix: char| -> BTreeSet<String> {
        names
            .difference(&shared)
            .map(|name| match name.strip_prefix(prefix) {
                Some(base) => base.to_owned(),
                None => panic!("typed kernel `{name}` lacks the `{prefix}` prefix"),
            })
            .collect()
    };
    let (bases_d, bases_s) = (bases(&names_d, 'd'), bases(&names_s, 's'));
    eprintln!("{} typed kernels per precision: {bases_d:?}", bases_d.len());
    assert_eq!(bases_d, bases_s, "f64 and f32 launch different kernels");
    assert!(bases_d.len() >= 15, "too few typed kernels: {bases_d:?}");
}

/// Doubling every family's batch from `n` (≥ 64) to `2n` matrices adds
/// fewer than `n / 16` host allocations to its warm driver call: what a
/// call allocates per window or per step grows slowly if at all, and
/// one allocation per block or per matrix would add at least `n`. LU
/// and QR add none: their launch order is sorted in place in workspace
/// scratch, and its resident twin grows once to the order's length.
#[test]
fn kernel_bodies_do_not_allocate_per_block() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let dev = Device::new(DeviceConfig::k40c());
    let run = |copies| {
        let mut tally = Tally::new();
        drive_single_device_families::<f64>(&dev, copies, &mut tally);
        tally
    };
    // The larger batch first, so pools and the profiler are warm for both.
    run(64);
    for ((family, n, a), (_, n2, a2)) in run(32).into_iter().zip(run(64)) {
        eprintln!("{family}: {a} host allocations at {n} matrices, {a2} at {n2}");
        assert!(n >= 64 && n2 == 2 * n);
        assert!(
            a2 < a + n as u64 / 16,
            "{family}: {a} -> {a2} host allocations from {n} to {n2} matrices; \
             a kernel body allocates per block"
        );
        if matches!(family, "getrf" | "geqrf" | "gels") {
            assert_eq!(a2, a, "{family}: host allocations grew with the batch");
        }
    }
}
