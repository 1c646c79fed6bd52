//! Integration tests of the paper's future-work extensions: vbatched LU
//! (partial pivoting) and QR over random variable-size batches,
//! including the batched solves that consume them.

use proptest::prelude::*;
use rand::Rng;
use vbatch_core::lu::{getrf_vbatched, GetrfOptions};
use vbatch_core::qr::{geqrf_vbatched, GeqrfOptions};
use vbatch_core::solve::getrs_vbatched;
use vbatch_core::VBatch;
use vbatch_dense::gen::{diag_dominant_vec, rand_mat, seeded_rng};
use vbatch_dense::naive;
use vbatch_dense::verify::{lu_residual, max_abs_diff_slices, qr_residual, residual_tol};
use vbatch_dense::{MatRef, Trans};
use vbatch_gpu_sim::{Device, DeviceConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lu_random_rectangular_batches(
        seed in 0u64..100_000, count in 1usize..6, nb in 4usize..32,
    ) {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(seed);
        let dims: Vec<(usize, usize)> = (0..count)
            .map(|_| (rng.gen_range(1usize..70), rng.gen_range(1usize..70)))
            .collect();
        let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
        let origs: Vec<Vec<f64>> = dims
            .iter()
            .enumerate()
            .map(|(i, &(m, n))| {
                let a = rand_mat::<f64>(&mut rng, m * n);
                batch.upload_matrix(i, &a).unwrap();                a
            })
            .collect();
        let (report, pivots) =
            getrf_vbatched(&dev, &mut batch, &GetrfOptions { nb_panel: nb, ..Default::default() }).unwrap();
        prop_assert!(report.all_ok());
        for (i, &(m, n)) in dims.iter().enumerate() {
            let k = m.min(n);
            let f = batch.download_matrix(i);
            let ipiv = pivots.download(i, k);
            let r = lu_residual(
                MatRef::from_slice(&f, m, n, m),
                &ipiv,
                MatRef::from_slice(&origs[i], m, n, m),
            );
            prop_assert!(r < residual_tol::<f64>(m.max(n)), "matrix {i}: {r}");
        }
    }

    #[test]
    fn qr_random_rectangular_batches(
        seed in 0u64..100_000, count in 1usize..6, nb in 2usize..24,
    ) {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(seed);
        let dims: Vec<(usize, usize)> = (0..count)
            .map(|_| (rng.gen_range(1usize..60), rng.gen_range(1usize..60)))
            .collect();
        let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
        let origs: Vec<Vec<f64>> = dims
            .iter()
            .enumerate()
            .map(|(i, &(m, n))| {
                let a = rand_mat::<f64>(&mut rng, m * n);
                batch.upload_matrix(i, &a).unwrap();                a
            })
            .collect();
        let (report, tau) = geqrf_vbatched(
            &dev,
            &mut batch,
            &GeqrfOptions { nb_panel: nb, tile_cols: 16, ..Default::default() },
        )
        .unwrap();
        prop_assert!(report.all_ok());
        for (i, &(m, n)) in dims.iter().enumerate() {
            let k = m.min(n);
            let f = batch.download_matrix(i);
            let (r, o) = qr_residual(
                MatRef::from_slice(&f, m, n, m),
                &tau.download(i, k),
                MatRef::from_slice(&origs[i], m, n, m),
            );
            prop_assert!(r < residual_tol::<f64>(m.max(n)), "matrix {i} residual {r}");
            prop_assert!(o < residual_tol::<f64>(m.max(n)), "matrix {i} orthogonality {o}");
        }
    }
}

#[test]
fn lu_then_solve_recovers_solutions() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(44);
    let orders = [20usize, 45, 7, 33];
    let dims: Vec<(usize, usize)> = orders.iter().map(|&n| (n, n)).collect();
    let mut factors = VBatch::<f64>::alloc(&dev, &dims).unwrap();
    let rhs_dims: Vec<(usize, usize)> = orders.iter().map(|&n| (n, 2)).collect();
    let mut rhs = VBatch::<f64>::alloc(&dev, &rhs_dims).unwrap();
    let mut xs = Vec::new();
    for (i, &n) in orders.iter().enumerate() {
        let a = diag_dominant_vec::<f64>(&mut rng, n, n);
        let x = rand_mat::<f64>(&mut rng, n * 2);
        let b = naive::gemm_ref(
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            &a,
            n,
            n,
            &x,
            n,
            2,
            0.0,
            &vec![0.0; n * 2],
            n,
            2,
        );
        factors.upload_matrix(i, &a).unwrap();
        rhs.upload_matrix(i, &b).unwrap();
        xs.push(x);
    }
    let (report, pivots) = getrf_vbatched(&dev, &mut factors, &GetrfOptions::default()).unwrap();
    assert!(report.all_ok());
    getrs_vbatched(&dev, &factors, &pivots, &rhs).unwrap();
    for (i, x) in xs.iter().enumerate() {
        let got = rhs.download_matrix(i);
        assert!(max_abs_diff_slices(&got, x) < 1e-7, "solve {i}");
    }
}

#[test]
fn gels_minimizes_residual_on_inconsistent_systems() {
    // Overdetermined, noisy systems: the QR least-squares solution must
    // match the normal-equations solution computed densely on the host.
    use vbatch_core::qr::gels_vbatched;
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(47);
    let dims = [(24usize, 6usize), (40, 15)];
    let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
    let rhs_dims: Vec<(usize, usize)> = dims.iter().map(|&(m, _)| (m, 1)).collect();
    let mut rhs = VBatch::<f64>::alloc(&dev, &rhs_dims).unwrap();
    let mut expected = Vec::new();
    for (i, &(m, n)) in dims.iter().enumerate() {
        let a = rand_mat::<f64>(&mut rng, m * n);
        let b = rand_mat::<f64>(&mut rng, m); // generic rhs: inconsistent
        batch.upload_matrix(i, &a).unwrap();
        rhs.upload_matrix(i, &b).unwrap(); // Host normal equations: (AᵀA) x = Aᵀ b.
        let ata = naive::gemm_ref(
            Trans::Trans,
            Trans::NoTrans,
            1.0,
            &a,
            m,
            n,
            &a,
            m,
            n,
            0.0,
            &vec![0.0; n * n],
            n,
            n,
        );
        let atb = naive::gemm_ref(
            Trans::Trans,
            Trans::NoTrans,
            1.0,
            &a,
            m,
            n,
            &b,
            m,
            1,
            0.0,
            &vec![0.0; n],
            n,
            1,
        );
        let mut f = ata.clone();
        vbatch_dense::potf2(
            vbatch_dense::Uplo::Lower,
            vbatch_dense::MatMut::from_slice(&mut f, n, n, n),
        )
        .unwrap();
        let mut x = atb.clone();
        vbatch_dense::potrs(
            vbatch_dense::Uplo::Lower,
            MatRef::from_slice(&f, n, n, n),
            vbatch_dense::MatMut::from_slice(&mut x, n, 1, n),
        );
        expected.push(x);
    }
    let report = gels_vbatched(
        &dev,
        &mut batch,
        &rhs,
        &vbatch_core::qr::GeqrfOptions {
            nb_panel: 4,
            tile_cols: 8,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.all_ok());
    for (i, &(m, n)) in dims.iter().enumerate() {
        let sol = rhs.download_matrix(i);
        for r in 0..n {
            let d = (sol[r] - expected[i][r]).abs();
            assert!(d < 1e-8, "matrix {i} x[{r}]: {d} (m={m})");
        }
    }
}

#[test]
fn lu_qr_advance_the_simulated_clock() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(45);
    let dims = [(40usize, 40usize), (25, 30)];
    let mut b1 = VBatch::<f64>::alloc(&dev, &dims).unwrap();
    for (i, &(m, n)) in dims.iter().enumerate() {
        b1.upload_matrix(i, &rand_mat::<f64>(&mut rng, m * n))
            .unwrap();
    }
    dev.reset_metrics();
    getrf_vbatched(&dev, &mut b1, &GetrfOptions::default()).unwrap();
    assert!(dev.now() > 0.0);
    assert!(dev.launch_count() > 0);

    let mut b2 = VBatch::<f64>::alloc(&dev, &dims).unwrap();
    for (i, &(m, n)) in dims.iter().enumerate() {
        b2.upload_matrix(i, &rand_mat::<f64>(&mut rng, m * n))
            .unwrap();
    }
    dev.reset_metrics();
    geqrf_vbatched(&dev, &mut b2, &GeqrfOptions::default()).unwrap();
    assert!(dev.now() > 0.0);
}

#[test]
fn f32_extensions() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(46);
    let dims = [(30usize, 30usize), (18, 24)];
    let mut batch = VBatch::<f32>::alloc(&dev, &dims).unwrap();
    let origs: Vec<Vec<f32>> = dims
        .iter()
        .enumerate()
        .map(|(i, &(m, n))| {
            let a = rand_mat::<f32>(&mut rng, m * n);
            batch.upload_matrix(i, &a).unwrap();
            a
        })
        .collect();
    let (report, pivots) = getrf_vbatched(
        &dev,
        &mut batch,
        &GetrfOptions {
            nb_panel: 8,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.all_ok());
    for (i, &(m, n)) in dims.iter().enumerate() {
        let f = batch.download_matrix(i);
        let r = lu_residual(
            MatRef::from_slice(&f, m, n, m),
            &pivots.download(i, m.min(n)),
            MatRef::from_slice(&origs[i], m, n, m),
        );
        assert!(r < residual_tol::<f32>(m.max(n)), "matrix {i}: {r}");
    }
}

/// Every live `laswp` block reads its `m`/`n`/`ld` (12 bytes) and the
/// step's `jb` pivots (4 bytes each) even when no row moves, so the
/// simulated clock does not depend on whether the input needs pivoting.
/// Diagonally dominant matrices never pivot, so those reads are all the
/// kernel charges: exactly `12 + 4·jb` per matrix with columns outside
/// the step's panel.
#[test]
fn laswp_charges_pivot_and_metadata_reads_without_swaps() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(47);
    let dims = [(40usize, 40usize), (33, 33), (70, 70), (9, 9), (50, 20)];
    let nb = 16;
    let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
    for (i, &(m, n)) in dims.iter().enumerate() {
        batch
            .upload_matrix(i, &diag_dominant_vec::<f64>(&mut rng, m, n))
            .unwrap();
    }
    let (report, pivots) = getrf_vbatched(
        &dev,
        &mut batch,
        &GetrfOptions {
            nb_panel: nb,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.all_ok());
    let mut want = 0;
    for (i, &(m, n)) in dims.iter().enumerate() {
        let k = m.min(n);
        assert_eq!(pivots.download(i, k), (0..k).collect::<Vec<_>>(), "{i}");
        for j in (0..k).step_by(nb) {
            let jb = (k - j).min(nb);
            if n > jb {
                want += 12 + 4 * jb;
            }
        }
    }
    let got = dev.with_profiler(|p| p.get("dlaswp_vbatched").map(|e| e.gmem_bytes));
    assert_eq!(got, Some(want as f64));
}

/// FNV-1a over 64-bit words.
fn fnv(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

/// A batch whose every matrix fits one panel has no column outside the
/// panel and no trailing update, so getrf launches neither `laswp` nor
/// the step-view kernel: one `getf2` launch does it all. Factors,
/// pivots and `info` are pinned to the bits recorded while both kernels
/// were still launched on every step.
#[test]
fn getrf_within_one_panel_launches_no_laswp_or_step_kernel() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(48);
    let dims = [
        (1usize, 1usize),
        (5, 5),
        (17, 17),
        (64, 64),
        (40, 40),
        (50, 20),
    ];
    let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
    for (i, &(m, n)) in dims.iter().enumerate() {
        batch
            .upload_matrix(i, &rand_mat::<f64>(&mut rng, m * n))
            .unwrap();
    }
    dev.reset_metrics();
    let opts = GetrfOptions::default();
    assert!(dims.iter().all(|&(m, n)| m.min(n) <= opts.nb_panel));
    let (report, pivots) = getrf_vbatched(&dev, &mut batch, &opts).unwrap();
    dev.with_profiler(|p| {
        assert!(p.get("dlaswp_vbatched").is_none());
        assert!(p.get("vbatch_aux_lu_step").is_none());
        assert_eq!(p.get("dgetf2_vbatched").map(|e| e.launches), Some(1));
    });
    let mut h = 0xcbf2_9ce4_8422_2325;
    for (i, &(m, n)) in dims.iter().enumerate() {
        fnv(&mut h, report.info[i] as u64);
        for p in pivots.download(i, m.min(n)) {
            fnv(&mut h, p as u64);
        }
        for v in batch.download_matrix(i) {
            fnv(&mut h, v.to_bits());
        }
    }
    assert_eq!(
        h, 0x0e6f_e91e_f191_a6ac,
        "factor, pivot or info bits moved (hash {h:#018x})"
    );
}
