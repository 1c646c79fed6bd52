//! Integration tests of the paper's future-work extensions: vbatched LU
//! (partial pivoting) and QR over random variable-size batches,
//! including the batched solves that consume them.

use proptest::prelude::*;
use rand::Rng;
use vbatch_core::lu::{getrf_vbatched, getrf_vbatched_ws, GetrfOptions};
use vbatch_core::qr::{geqrf_vbatched, geqrf_vbatched_ws, GeqrfOptions};
use vbatch_core::solve::getrs_vbatched;
use vbatch_core::{DriverWorkspace, VBatch};
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

/// Wide, tall and square shapes, two of order zero, and one singular
/// matrix (an exactly-zero column 5): the shapes whose launch-order
/// prefixes differ from step to step. A wide matrix keeps trailing
/// columns after larger square ones have none, so the trailing kernels'
/// prefix is not monotone in the order.
const ARRANGED_DIMS: [(usize, usize); 13] = [
    (40, 40),
    (7, 7),
    (90, 60),
    (33, 70),
    (1, 1),
    (0, 5),
    (5, 0),
    (12, 45),
    (64, 64),
    (20, 9),
    (30, 30),
    (17, 17),
    (9, 50),
];

/// Index of the singular matrix in [`ARRANGED_DIMS`].
const SINGULAR: usize = 10;

/// Per matrix, in [`ARRANGED_DIMS`] order: factor bits, then pivots
/// (LU) or `tau` bits (QR), and `info`.
type Bits = Vec<(Vec<u64>, Vec<u64>, i32)>;

/// Factors the matrices `origs` (of shapes [`ARRANGED_DIMS`]) in one
/// call on a batch that holds matrix `perm[p]` at position `p`, and
/// returns what each matrix came back as.
fn factor_arranged(
    dev: &Device,
    origs: &[Vec<f64>],
    perm: &[usize],
    qr: bool,
    ws: &mut DriverWorkspace<f64>,
) -> Bits {
    let dims: Vec<(usize, usize)> = perm.iter().map(|&i| ARRANGED_DIMS[i]).collect();
    let mut batch = VBatch::<f64>::alloc(dev, &dims).unwrap();
    for (p, &i) in perm.iter().enumerate() {
        batch.upload_matrix(p, &origs[i]).unwrap();
    }
    let k = |p: usize| dims[p].0.min(dims[p].1);
    let (info, second): (Vec<i32>, Vec<Vec<u64>>) = if qr {
        let (report, tau) = geqrf_vbatched_ws(
            dev,
            &mut batch,
            &GeqrfOptions {
                nb_panel: 8,
                tile_cols: 16,
                ..Default::default()
            },
            ws,
        )
        .unwrap();
        let tau = (0..perm.len())
            .map(|p| tau.download(p, k(p)).iter().map(|v| v.to_bits()).collect())
            .collect();
        (report.info, tau)
    } else {
        let opts = GetrfOptions {
            nb_panel: 8,
            ..Default::default()
        };
        let (report, pivots) = getrf_vbatched_ws(dev, &mut batch, &opts, ws).unwrap();
        let pivots = (0..perm.len())
            .map(|p| pivots.download(p, k(p)).iter().map(|&v| v as u64).collect())
            .collect();
        (report.info, pivots)
    };
    let mut out: Bits = vec![Default::default(); perm.len()];
    for (p, &i) in perm.iter().enumerate() {
        let factor = batch
            .download_matrix(p)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        out[i] = (factor, second[p].clone(), info[p]);
    }
    out
}

/// Every block's arithmetic depends only on its own matrix, so the
/// batch's arrangement moves no bit: getrf's factors, pivots and `info`
/// and geqrf's factors and `tau` are the same per matrix whether the
/// batch arrives shuffled, ascending or descending, and whether the
/// workspace is cold or already holds another or the same launch order.
#[test]
fn lu_and_qr_bits_do_not_depend_on_batch_order() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(49);
    let mut origs: Vec<Vec<f64>> = ARRANGED_DIMS
        .iter()
        .map(|&(m, n)| rand_mat::<f64>(&mut rng, m * n))
        .collect();
    for r in 0..30 {
        origs[SINGULAR][r + 5 * 30] = 0.0;
    }
    let by_size = |i: &usize| {
        let (m, n) = ARRANGED_DIMS[*i];
        (m.min(n), m, n)
    };
    let shuffled = [8usize, 3, 11, 0, 5, 12, 9, 1, 6, 10, 2, 4, 7];
    let mut ascending: Vec<usize> = (0..ARRANGED_DIMS.len()).collect();
    ascending.sort_by_key(by_size);
    let mut descending = ascending.clone();
    descending.reverse();
    for qr in [false, true] {
        let reference = factor_arranged(&dev, &origs, &shuffled, qr, &mut DriverWorkspace::new());
        if !qr {
            assert_eq!(reference[SINGULAR].2, 6, "zero pivot at column 5");
            assert!(reference
                .iter()
                .enumerate()
                .all(|(i, r)| i == SINGULAR || r.2 == 0));
        }
        for (i, r) in reference.iter().enumerate() {
            let (m, n) = ARRANGED_DIMS[i];
            assert_eq!((r.0.len(), r.1.len()), (m * n, m.min(n)), "matrix {i}");
        }
        let mut warm = DriverWorkspace::new();
        let runs = [
            (
                "ascending",
                factor_arranged(&dev, &origs, &ascending, qr, &mut DriverWorkspace::new()),
            ),
            (
                "descending, cold",
                factor_arranged(&dev, &origs, &descending, qr, &mut warm),
            ),
            (
                "shuffled after descending",
                factor_arranged(&dev, &origs, &shuffled, qr, &mut warm),
            ),
            (
                "shuffled, repeated",
                factor_arranged(&dev, &origs, &shuffled, qr, &mut warm),
            ),
        ];
        for (name, got) in runs {
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert!(
                    g == r,
                    "qr {qr}, {name}: matrix {i} {:?} moved",
                    ARRANGED_DIMS[i]
                );
            }
        }
    }
}

/// In launch order every step's panel, row-interchange, step-view and
/// `trsm` launches cover exactly the matrices with work in them when
/// the batch is square (LU) or tall (QR), so none of their blocks exits
/// early, however the batch arrives. Only `gemm`'s and `larfb`'s column
/// tiles past a narrower matrix still do.
#[test]
fn panel_launches_dispatch_no_early_exit_blocks() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(50);
    let orders = [33usize, 100, 7, 0, 64, 77, 1, 40, 16, 90];
    let square: Vec<(usize, usize)> = orders.iter().map(|&n| (n, n)).collect();
    let mut lu = VBatch::<f64>::alloc(&dev, &square).unwrap();
    for (i, &n) in orders.iter().enumerate() {
        lu.upload_matrix(i, &rand_mat::<f64>(&mut rng, n * n))
            .unwrap();
    }
    let opts = GetrfOptions {
        nb_panel: 16,
        ..Default::default()
    };
    let (report, _) = getrf_vbatched(&dev, &mut lu, &opts).unwrap();
    assert!(report.all_ok());
    let tall: Vec<(usize, usize)> = orders.iter().map(|&n| (2 * n, n)).collect();
    let mut qr = VBatch::<f64>::alloc(&dev, &tall).unwrap();
    for (i, &(m, n)) in tall.iter().enumerate() {
        qr.upload_matrix(i, &rand_mat::<f64>(&mut rng, m * n))
            .unwrap();
    }
    let qr_opts = GeqrfOptions {
        nb_panel: 8,
        ..Default::default()
    };
    assert!(geqrf_vbatched(&dev, &mut qr, &qr_opts).unwrap().0.all_ok());
    dev.with_profiler(|p| {
        for name in [
            "dgetf2_vbatched",
            "dlaswp_vbatched",
            "vbatch_aux_lu_step",
            "dtrsm_left_vbatched",
            "dgeqr2_vbatched",
        ] {
            let e = p.get(name).unwrap_or_else(|| panic!("{name} launched"));
            assert!(e.blocks > 0, "{name}");
            assert_eq!(e.early_exit_blocks, 0, "{name}: dead blocks dispatched");
        }
    });
}
