//! Cross-crate integration: every vbatched Cholesky configuration
//! (strategy × ETM × sorting × panel width × precision × interface) must
//! produce residual-verified factors on mixed-size batches, including
//! degenerate sizes.

use vbatch_core::{
    potrf_vbatched, potrf_vbatched_max, EtmPolicy, FusedOpts, PotrfOptions, SepOpts, Strategy,
    VBatch,
};
use vbatch_dense::gen::seeded_rng;
use vbatch_dense::verify::{chol_residual, residual_tol};
use vbatch_dense::{MatRef, Scalar, Uplo};
use vbatch_gpu_sim::{Device, DeviceConfig};
use vbatch_workload::{fill_spd_batch, SizeDist};

fn all_options() -> Vec<PotrfOptions> {
    let mut v = Vec::new();
    for etm in [EtmPolicy::Classic, EtmPolicy::Aggressive] {
        for sorting in [false, true] {
            v.push(PotrfOptions {
                strategy: Strategy::Fused,
                fused: FusedOpts {
                    etm,
                    sorting,
                    ..Default::default()
                },
                ..Default::default()
            });
        }
    }
    for nb_panel in [16usize, 48, 128] {
        v.push(PotrfOptions {
            strategy: Strategy::Separated,
            sep: SepOpts {
                nb_panel,
                nb_inner: 8,
            },
            ..Default::default()
        });
    }
    v.push(PotrfOptions::default()); // Auto
    v
}

fn check_batch<T: Scalar>(dev: &Device, sizes: &[usize], opts: &PotrfOptions, seed: u64) {
    let mut rng = seeded_rng(seed);
    let mut batch = VBatch::<T>::alloc_square(dev, sizes).unwrap();
    let origs = fill_spd_batch(&mut batch, sizes, &mut rng);
    let report = potrf_vbatched(dev, &mut batch, opts).unwrap();
    assert!(report.all_ok(), "{opts:?}: {:?}", report.failures());
    for (i, &n) in sizes.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let f = batch.download_matrix(i);
        let r = chol_residual(
            Uplo::Lower,
            MatRef::from_slice(&f, n, n, n),
            MatRef::from_slice(&origs[i], n, n, n),
        );
        assert!(
            r < residual_tol::<T>(n),
            "{opts:?}: matrix {i} (n={n}) residual {r}"
        );
    }
}

#[test]
fn every_configuration_factorizes_mixed_batch() {
    let dev = Device::new(DeviceConfig::k40c());
    let sizes = [17usize, 0, 64, 3, 129, 1, 40, 77, 8, 100];
    for (k, opts) in all_options().iter().enumerate() {
        check_batch::<f64>(&dev, &sizes, opts, 1000 + k as u64);
        check_batch::<f32>(&dev, &sizes, opts, 2000 + k as u64);
    }
}

#[test]
fn upper_triangle_mirrors_lower() {
    // Uᵀ from the Upper factorization must equal L from the Lower one
    // (uniqueness of the Cholesky factor), across both strategies.
    let dev = Device::new(DeviceConfig::k40c());
    let sizes = [19usize, 52, 8, 130];
    for strategy in [Strategy::Fused, Strategy::Separated] {
        let mut rng = seeded_rng(900);
        let mut lower = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let origs = fill_spd_batch(&mut lower, &sizes, &mut rng);
        let mut upper = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        for (i, m) in origs.iter().enumerate() {
            upper.upload_matrix(i, m).unwrap();
        }
        let base = PotrfOptions {
            strategy,
            sep: SepOpts {
                nb_panel: 32,
                ..Default::default()
            },
            ..Default::default()
        };
        potrf_vbatched(&dev, &mut lower, &base).unwrap();
        let up_opts = PotrfOptions {
            uplo: Uplo::Upper,
            ..base
        };
        let rep = potrf_vbatched(&dev, &mut upper, &up_opts).unwrap();
        assert!(rep.all_ok());
        for (i, &n) in sizes.iter().enumerate() {
            let l = lower.download_matrix(i);
            let u = upper.download_matrix(i);
            for j in 0..n {
                for r in j..n {
                    let d = (l[r + j * n] - u[j + r * n]).abs();
                    assert!(d < 1e-9, "{strategy:?} matrix {i} ({r},{j}): {d}");
                }
            }
        }
    }
}

#[test]
fn uniform_and_gaussian_workloads() {
    let dev = Device::new(DeviceConfig::k40c());
    for dist in [
        SizeDist::Uniform { max: 150 },
        SizeDist::Gaussian { max: 150 },
    ] {
        let sizes = dist.sample_batch(&mut seeded_rng(3), 60);
        check_batch::<f64>(&dev, &sizes, &PotrfOptions::default(), 30);
    }
}

#[test]
fn expert_and_lapack_interfaces_agree() {
    let dev = Device::new(DeviceConfig::k40c());
    let sizes = [12usize, 30, 5, 44];
    let mut rng = seeded_rng(5);
    let mut b1 = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    let origs = fill_spd_batch(&mut b1, &sizes, &mut rng);
    let mut b2 = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    for (i, m) in origs.iter().enumerate() {
        b2.upload_matrix(i, m).unwrap();
    }
    let opts = PotrfOptions::default();
    potrf_vbatched_max(&dev, &mut b1, 44, &opts).unwrap();
    potrf_vbatched(&dev, &mut b2, &opts).unwrap();
    for i in 0..sizes.len() {
        assert_eq!(
            b1.download_matrix(i),
            b2.download_matrix(i),
            "interfaces disagree on matrix {i}"
        );
    }
}

#[test]
fn lapack_interface_charges_the_max_kernel() {
    // The LAPACK-style wrapper must cost strictly more simulated time
    // (aux reduction + copy) than the expert interface, and the paper
    // says that overhead is negligible — check both.
    let dev = Device::new(DeviceConfig::k40c());
    let sizes: Vec<usize> = (0..200).map(|i| 10 + i % 120).collect();
    let mut rng = seeded_rng(6);

    let mut b1 = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    fill_spd_batch(&mut b1, &sizes, &mut rng);
    dev.reset_metrics();
    potrf_vbatched_max(&dev, &mut b1, 129, &PotrfOptions::default()).unwrap();
    let t_expert = dev.now();

    let mut rng = seeded_rng(6);
    let mut b2 = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    fill_spd_batch(&mut b2, &sizes, &mut rng);
    dev.reset_metrics();
    potrf_vbatched(&dev, &mut b2, &PotrfOptions::default()).unwrap();
    let t_lapack = dev.now();

    assert!(t_lapack > t_expert);
    assert!(
        (t_lapack - t_expert) / t_expert < 0.10,
        "max-computation overhead should be negligible: expert {t_expert}, lapack {t_lapack}"
    );
}

#[test]
fn deterministic_across_runs() {
    // Block-parallel execution must not perturb results: two identical
    // runs give bitwise-identical factors.
    let dev = Device::new(DeviceConfig::k40c());
    let sizes = [33usize, 71, 18, 90];
    let run = || {
        let mut rng = seeded_rng(7);
        let mut b = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        fill_spd_batch(&mut b, &sizes, &mut rng);
        potrf_vbatched(&dev, &mut b, &PotrfOptions::default()).unwrap();
        (0..sizes.len())
            .map(|i| b.download_matrix(i))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn all_matrices_same_size_matches_fixed_kernel() {
    // A vbatched call on a uniform batch must agree numerically with the
    // dedicated fixed-size kernel.
    let dev = Device::new(DeviceConfig::k40c());
    let n = 40;
    let sizes = vec![n; 6];
    let mut rng = seeded_rng(8);
    let mut b1 = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    let origs = fill_spd_batch(&mut b1, &sizes, &mut rng);
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts {
            nb: Some(8),
            sorting: false,
            ..Default::default()
        },
        ..Default::default()
    };
    potrf_vbatched_max(&dev, &mut b1, n, &opts).unwrap();

    let mut b2 = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    for (i, m) in origs.iter().enumerate() {
        b2.upload_matrix(i, m).unwrap();
    }
    vbatch_core::fused::potrf_fused_fixed(&dev, &mut b2, Uplo::Lower, n, 8).unwrap();
    for i in 0..sizes.len() {
        let a = b1.download_matrix(i);
        let b = b2.download_matrix(i);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12, "matrix {i} differs");
        }
    }
}

/// Blocks each separated Cholesky kernel has work for, counted from the
/// sizes alone: per step `j`, one `potf2` block per matrix with rows
/// left, one `trtri` block and one `trsm` block per 64 trailing rows
/// per matrix with trailing rows, and one `syrk` block per 32×32 tile
/// of the stored trailing triangle.
fn separated_live_blocks(sizes: &[usize], nb: usize) -> [(&'static str, u64); 4] {
    let (mut potf2, mut trtri, mut trsm, mut syrk) = (0, 0, 0, 0);
    let top = sizes.iter().copied().max().unwrap_or(0);
    let mut j = 0;
    while j < top {
        for &n in sizes.iter().filter(|&&n| n > j) {
            potf2 += 1;
            let trail = (n - j).saturating_sub(nb);
            if trail == 0 {
                continue;
            }
            trtri += 1;
            trsm += trail.div_ceil(64) as u64;
            let tiles = trail.div_ceil(32);
            for bi in 0..tiles {
                syrk += (bi + 1) as u64;
            }
        }
        j += nb;
    }
    [
        ("potf2_vbatched", potf2),
        ("trtri_vbatched", trtri),
        ("trsm_vbatched", trsm),
        ("syrk_vbatched", syrk),
    ]
}

/// Each separated launch covers its live work alone: on a fault-free
/// SPD batch with orders 0, 1, at and below the panel width and ragged
/// tiles, no block exits early in any kernel, and each kernel
/// dispatches exactly one block per unit of live work. A non-SPD
/// matrix still retires through `info`: its later blocks exit early,
/// and its neighbours factor as before.
#[test]
fn separated_dispatches_one_block_per_unit_of_live_work() {
    fn check<T: Scalar>(uplo: Uplo) {
        let sizes = [0usize, 1, 20, 32, 33, 97, 150, 64, 129];
        let nb = 32;
        let opts = PotrfOptions {
            strategy: Strategy::Separated,
            uplo,
            sep: SepOpts {
                nb_panel: nb,
                nb_inner: 8,
            },
            ..Default::default()
        };
        let dev = Device::new(DeviceConfig::k40c());
        let mut batch = VBatch::<T>::alloc_square(&dev, &sizes).unwrap();
        let origs = fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(91));
        let report = potrf_vbatched_max(&dev, &mut batch, 150, &opts).unwrap();
        assert!(report.all_ok(), "{uplo:?}: {:?}", report.failures());
        dev.with_profiler(|p| {
            for (name, entry) in p.sorted_by_time() {
                assert_eq!(entry.early_exit_blocks, 0, "{uplo:?} {name}");
            }
            for (base, want) in separated_live_blocks(&sizes, nb) {
                let name = format!("{}{base}", T::PREFIX);
                let got = p.get(&name).map_or(0, |e| e.blocks);
                assert_eq!(got, want, "{uplo:?} {name}");
            }
        });
        for (i, &n) in sizes.iter().enumerate().filter(|&(_, &n)| n > 0) {
            let f = batch.download_matrix(i);
            let r = chol_residual(
                uplo,
                MatRef::from_slice(&f, n, n, n),
                MatRef::from_slice(&origs[i], n, n, n),
            );
            assert!(r < residual_tol::<T>(n), "{uplo:?} n={n}: residual {r}");
        }

        // Matrix 6 (order 150) breaks at column 2 of the first panel.
        let dev = Device::new(DeviceConfig::k40c());
        let mut batch = VBatch::<T>::alloc_square(&dev, &sizes).unwrap();
        let mut origs = fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(91));
        origs[6][1 + 150] = T::from_f64(-1e9);
        batch.upload_matrix(6, &origs[6]).unwrap();
        let report = potrf_vbatched_max(&dev, &mut batch, 150, &opts).unwrap();
        let info = batch.read_info();
        assert_eq!(info[6], 2, "{uplo:?}");
        assert_eq!(report.failure_count(), 1, "{uplo:?}");
        let exits: u64 = dev.with_profiler(|p| {
            p.sorted_by_time()
                .iter()
                .map(|(_, e)| e.early_exit_blocks)
                .sum()
        });
        assert!(exits > 0, "{uplo:?}: the broken matrix's blocks retire");
        for (i, &n) in sizes.iter().enumerate().filter(|&(i, &n)| n > 0 && i != 6) {
            let f = batch.download_matrix(i);
            let r = chol_residual(
                uplo,
                MatRef::from_slice(&f, n, n, n),
                MatRef::from_slice(&origs[i], n, n, n),
            );
            assert!(r < residual_tol::<T>(n), "{uplo:?} n={n}: residual {r}");
        }
    }
    for uplo in [Uplo::Lower, Uplo::Upper] {
        check::<f64>(uplo);
        check::<f32>(uplo);
    }
}

/// `potrf_fused_step` blocks with work, counted from the sizes alone:
/// the matrices sort into windows of `width` orders (`((k-1)·width,
/// k·width]`), and each step `j` of a window covers the window's
/// matrices of order above `j`.
fn fused_live_blocks(sizes: &[usize], width: usize, nb: usize) -> u64 {
    let mut windows: Vec<Vec<usize>> = Vec::new();
    for &n in sizes.iter().filter(|&&n| n > 0) {
        let k = (n - 1) / width;
        if windows.len() <= k {
            windows.resize(k + 1, Vec::new());
        }
        windows[k].push(n);
    }
    let mut blocks = 0;
    for w in windows.iter().filter(|w| !w.is_empty()) {
        let wmax = w.iter().copied().max().unwrap_or(0);
        for j in (0..wmax).step_by(nb) {
            blocks += w.iter().filter(|&&n| n > j).count() as u64;
        }
    }
    blocks
}

/// With sorting on, each fused step launches only the suffix of its
/// sorted window that is still live: on a fault-free SPD batch with
/// orders 0, 1, `nb`, `nb + 1` and both sides of every window edge, no
/// `potrf_fused_step` block exits early and the blocks equal the live
/// count. A non-SPD matrix still retires through `info`. Factors and
/// `info` are bit-identical to the unsorted single window, which
/// launches every matrix at every step.
#[test]
fn fused_step_loop_launches_only_the_live_suffix() {
    fn run<T: Scalar>(uplo: Uplo, sorting: bool, broken: bool) -> (Vec<i32>, Vec<Vec<T>>, u64) {
        let (nb, width) = (16, 64);
        let sizes = [65usize, 0, 1, 16, 17, 64, 100, 128, 129, 40, 5, 63, 150];
        let opts = PotrfOptions {
            strategy: Strategy::Fused,
            uplo,
            fused: FusedOpts {
                sorting,
                nb: Some(nb),
                window_width: Some(width),
                // Every window takes the step loop.
                batched_small: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let dev = Device::new(DeviceConfig::k40c());
        let mut batch = VBatch::<T>::alloc_square(&dev, &sizes).unwrap();
        let mut origs = fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(92));
        if broken {
            // Matrix 6 (order 100) breaks at column 2 of the first step.
            origs[6][1 + 100] = T::from_f64(-1e9);
            batch.upload_matrix(6, &origs[6]).unwrap();
        }
        let report = potrf_vbatched_max(&dev, &mut batch, 150, &opts).unwrap();
        assert_eq!(report.failure_count(), usize::from(broken), "{uplo:?}");
        let (blocks, exits) = dev.with_profiler(|p| {
            let e = p.get(&format!("{}potrf_fused_step", T::PREFIX)).unwrap();
            (e.blocks, e.early_exit_blocks)
        });
        if sorting && !broken {
            assert_eq!(exits, 0, "{uplo:?}");
            assert_eq!(blocks, fused_live_blocks(&sizes, width, nb), "{uplo:?}");
        }
        for (i, &n) in sizes
            .iter()
            .enumerate()
            .filter(|&(i, &n)| n > 0 && !(broken && i == 6))
        {
            let f = batch.download_matrix(i);
            let r = chol_residual(
                uplo,
                MatRef::from_slice(&f, n, n, n),
                MatRef::from_slice(&origs[i], n, n, n),
            );
            assert!(r < residual_tol::<T>(n), "{uplo:?} n={n}: residual {r}");
        }
        let factors = (0..sizes.len()).map(|i| batch.download_matrix(i)).collect();
        (batch.read_info(), factors, exits)
    }
    fn check<T: Scalar>(uplo: Uplo) {
        for broken in [false, true] {
            let (info, factors, exits) = run::<T>(uplo, true, broken);
            let (info_u, factors_u, _) = run::<T>(uplo, false, broken);
            if broken {
                assert_eq!(info[6], 2, "{uplo:?}");
                assert!(exits > 0, "{uplo:?}: the broken matrix's blocks retire");
            }
            assert_eq!(info, info_u, "{uplo:?}");
            let bits = |f: &Vec<Vec<T>>| -> Vec<Vec<u64>> {
                f.iter()
                    .map(|m| m.iter().map(|v| v.to_f64().to_bits()).collect())
                    .collect()
            };
            assert_eq!(bits(&factors), bits(&factors_u), "{uplo:?} broken={broken}");
        }
    }
    for uplo in [Uplo::Lower, Uplo::Upper] {
        check::<f64>(uplo);
        check::<f32>(uplo);
    }
}
