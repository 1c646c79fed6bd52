//! Vbatched triangular solves against factored batches (`potrs`,
//! `getrs`) — the "solve routines" the paper's title class covers and
//! its applications (e.g. direct-iterative preconditioners, RX anomaly
//! detection) consume right after the factorization.

use vbatch_dense::{Diag, Scalar, Trans, Uplo};
use vbatch_gpu_sim::{Device, LaunchConfig};

use crate::etm::EtmPolicy;
use crate::kernels::{charge_read, charge_write, mat_mut};
use crate::lu::PivotArray;
use crate::report::VbatchError;
use crate::sep::trsm::trsm_left_vbatched;
use crate::VBatch;

/// Solves `A_i·X_i = B_i` for every matrix, given the lower Cholesky
/// factors in `factors` (from [`crate::potrf_vbatched`]); right-hand
/// sides in `rhs` (per-matrix `n_i × nrhs_i`) are overwritten with the
/// solutions. Matrices whose factorization failed (`info != 0`) are
/// skipped, leaving their right-hand sides untouched.
///
/// # Errors
/// [`VbatchError::InvalidArgument`], with nothing launched, unless
/// `rhs` holds one block per factor with at least the factor's rows and
/// every factor is square; otherwise [`VbatchError`] on launch
/// failures.
pub fn potrs_vbatched<T: Scalar>(
    dev: &Device,
    factors: &VBatch<T>,
    rhs: &VBatch<T>,
) -> Result<(), VbatchError> {
    check_rhs(factors, rhs, true)?;
    if factors.count() == 0 {
        return Ok(());
    }
    // The solves skip a matrix whose right-hand side `info` is set; only
    // `getrs` sets it.
    rhs.reset_info();
    let (a, b) = (factors.view(), rhs.view());
    // L·Y = B, then Lᵀ·X = Y.
    trsm_left_vbatched(dev, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, a, b)?;
    trsm_left_vbatched(dev, Uplo::Lower, Trans::Trans, Diag::NonUnit, a, b)?;
    Ok(())
}

/// Factor-and-solve in one call (LAPACK `xPOSV`): vbatched Cholesky of
/// the batch followed by the triangular solves. Matrices that fail to
/// factorize are reported in the returned [`crate::BatchReport`] and
/// their right-hand sides are left untouched.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] for [`Uplo::Upper`] (the solves take
/// lower factors) or shapes [`potrs_vbatched`] rejects, with the batch
/// and the right-hand sides untouched; otherwise [`VbatchError`] on
/// launch failures.
pub fn posv_vbatched<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    rhs: &VBatch<T>,
    opts: &crate::PotrfOptions,
) -> Result<crate::BatchReport, VbatchError> {
    if opts.uplo != Uplo::Lower {
        return Err(VbatchError::InvalidArgument(
            "posv_vbatched: solves are implemented for Uplo::Lower factors",
        ));
    }
    check_rhs(batch, rhs, true)?;
    let report = crate::potrf_vbatched(dev, batch, opts)?;
    potrs_vbatched(dev, batch, rhs)?;
    Ok(report)
}

/// Solves `A_i·X_i = B_i` given LU factors and pivots (from
/// [`crate::lu::getrf_vbatched`]): applies the row interchanges to the
/// right-hand sides, then unit-lower and upper solves. Broken matrices
/// are skipped. So is a matrix whose pivots do not fit its order (they
/// came from another factorization): its right-hand side is left
/// untouched and the right-hand side batch's `info` reports it as
/// `-(k + 1)`, `k` the first out-of-range pivot; every other matrix's
/// right-hand side `info` is reset to 0.
///
/// # Errors
/// [`VbatchError::InvalidArgument`], with nothing launched, on shapes
/// [`potrs_vbatched`] rejects or when `pivots` covers fewer matrices or
/// pivots than the factors' orders; otherwise [`VbatchError`] on launch
/// failures.
pub fn getrs_vbatched<T: Scalar>(
    dev: &Device,
    factors: &VBatch<T>,
    pivots: &PivotArray,
    rhs: &VBatch<T>,
) -> Result<(), VbatchError> {
    check_rhs(factors, rhs, true)?;
    if !pivots.0.covers(factors.count(), factors.max_cols()) {
        return Err(VbatchError::InvalidArgument(
            "getrs_vbatched: pivots cover fewer matrices or pivots than the factors",
        ));
    }
    let count = factors.count();
    if count == 0 {
        return Ok(());
    }
    rhs.reset_info();
    laswp_rhs(dev, factors, pivots, rhs)?;
    let (a, b) = (factors.view(), rhs.view());
    trsm_left_vbatched(dev, Uplo::Lower, Trans::NoTrans, Diag::Unit, a, b)?;
    trsm_left_vbatched(dev, Uplo::Upper, Trans::NoTrans, Diag::NonUnit, a, b)?;
    Ok(())
}

/// The shape checks every batched solve makes on the host mirrors
/// before launching anything: `rhs` holds one block per factor, each
/// with at least as many rows as its factor, and each factor is square
/// when `square` is set. The kernels' bounds checks are
/// `debug_assert!`s, so these checks are what keep a release build
/// inside every allocation.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] naming the first check that fails.
pub(crate) fn check_rhs<T: Scalar>(
    factors: &VBatch<T>,
    rhs: &VBatch<T>,
    square: bool,
) -> Result<(), VbatchError> {
    let fail = |msg| Err(VbatchError::InvalidArgument(msg));
    if factors.count() != rhs.count() {
        return fail("batched solve: factor and rhs batch counts differ");
    }
    if square && factors.rows() != factors.cols() {
        return fail("batched solve: factors must be square");
    }
    if factors.rows().iter().zip(rhs.rows()).any(|(&m, &r)| r < m) {
        return fail("batched solve: a right-hand side has fewer rows than its factor");
    }
    Ok(())
}

/// Batched SPD inverse (LAPACK `xPOTRI`): overwrites each matrix's
/// Cholesky factor with `A_i⁻¹` (stored triangle only). The application
/// the paper cites for this pattern is RX anomaly detection [Molero et
/// al.], where each pixel neighborhood needs the inverse covariance for
/// a Mahalanobis distance. One thread block per matrix; broken matrices
/// (`info != 0`) are skipped.
///
/// # Errors
/// [`VbatchError`] on launch failures.
pub fn potri_vbatched<T: Scalar>(
    dev: &Device,
    factors: &VBatch<T>,
    uplo: Uplo,
) -> Result<(), VbatchError> {
    let count = factors.count();
    if count == 0 {
        return Ok(());
    }
    let a = factors.view();
    let cfg = LaunchConfig::grid_1d(count as u32, 128);
    dev.launch(kname!(T, "potri_vbatched"), cfg, move |ctx| {
        let i = ctx.linear_block_id();
        let (_, n, ld) = a.dims(i);
        let live = n > 0 && a.info.get(i) == 0;
        if !EtmPolicy::Classic.apply(ctx, if live { 1 } else { 0 }) {
            return;
        }
        if vbatch_dense::potri(uplo, mat_mut(a.ptrs.get(i), n, n, ld)).is_err() {
            // A zero diagonal would have been caught by potf2; record
            // defensively.
            if a.info.get(i) == 0 {
                a.info.set(i, -1);
            }
            return;
        }
        charge_read::<T>(ctx, n * n);
        charge_write::<T>(ctx, n * n / 2 + n);
        // trtri (n³/3) + lauum (n³/3).
        ctx.flops(
            T::IS_DOUBLE,
            128.min(n.max(1)),
            2.0 * vbatch_dense::flops::trtri(n) / 128.min(n.max(1)) as f64,
        );
        for _ in 0..2 * n.div_ceil(8).max(1) {
            ctx.sync();
        }
    })?;
    Ok(())
}

/// Applies each matrix's pivots to its right-hand sides (forward order),
/// once they are all checked against the factor's order: a matrix with a
/// pivot at or past its order swaps nothing and is flagged in the
/// right-hand side's `info`, which the solves that follow skip on.
fn laswp_rhs<T: Scalar>(
    dev: &Device,
    factors: &VBatch<T>,
    pivots: &PivotArray,
    rhs: &VBatch<T>,
) -> Result<(), VbatchError> {
    let count = factors.count();
    let (a, rhs) = (factors.view(), rhs.view());
    let piv = pivots.d_ptrs();
    let cfg = LaunchConfig::grid_1d(count as u32, 128);
    dev.launch(kname!(T, "laswp_rhs_vbatched"), cfg, move |ctx| {
        let i = ctx.linear_block_id();
        let (_, n, _) = a.dims(i);
        let (_, nrhs, ld) = rhs.dims(i);
        let live = n > 0 && nrhs > 0 && a.info.get(i) == 0;
        if !EtmPolicy::Classic.apply(ctx, if live { 1 } else { 0 }) {
            return;
        }
        let p = piv.get(i);
        // A negative pivot casts past every order too.
        if let Some(k) = (0..n).find(|&t| p.get(t) as usize >= n) {
            rhs.info.set(i, -(k as i32 + 1));
            return;
        }
        let mut b = mat_mut(rhs.ptrs.get(i), n, nrhs, ld);
        for t in 0..n {
            let pr = p.get(t) as usize;
            if pr != t {
                for c in 0..nrhs {
                    let x = b.get(t, c);
                    b.set(t, c, b.get(pr, c));
                    b.set(pr, c, x);
                }
            }
        }
        charge_read::<T>(ctx, n * nrhs);
        charge_write::<T>(ctx, n * nrhs);
        ctx.sync();
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{potrf_vbatched, PotrfOptions};
    use crate::lu::{getrf_vbatched, GetrfOptions};
    use vbatch_dense::gen::{diag_dominant_vec, rand_mat, seeded_rng, spd_vec};
    use vbatch_dense::naive;
    use vbatch_dense::verify::max_abs_diff_slices;
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn potrs_solves_variable_batch() {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes = [9usize, 25, 4];
        let nrhs = [2usize, 1, 5];
        let mut rng = seeded_rng(95);
        let mut factors = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let rhs_dims: Vec<(usize, usize)> =
            sizes.iter().zip(&nrhs).map(|(&n, &r)| (n, r)).collect();
        let mut rhs = VBatch::<f64>::alloc(&dev, &rhs_dims).unwrap();
        let mut xs = Vec::new();
        for i in 0..sizes.len() {
            let n = sizes[i];
            let r = nrhs[i];
            let a = spd_vec::<f64>(&mut rng, n);
            let x = rand_mat::<f64>(&mut rng, n * r);
            let b = naive::gemm_ref(
                Trans::NoTrans,
                Trans::NoTrans,
                1.0,
                &a,
                n,
                n,
                &x,
                n,
                r,
                0.0,
                &vec![0.0; n * r],
                n,
                r,
            );
            factors.upload_matrix(i, &a).unwrap();
            rhs.upload_matrix(i, &b).unwrap();
            xs.push(x);
        }
        let report = potrf_vbatched(&dev, &mut factors, &PotrfOptions::default()).unwrap();
        assert!(report.all_ok());
        potrs_vbatched(&dev, &factors, &rhs).unwrap();
        for (i, x) in xs.iter().enumerate() {
            let got = rhs.download_matrix(i);
            assert!(max_abs_diff_slices(&got, x) < 1e-8, "solve {i} mismatch");
        }
    }

    #[test]
    fn getrs_solves_after_lu() {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes = [12usize, 30, 7];
        let mut rng = seeded_rng(96);
        let dims: Vec<(usize, usize)> = sizes.iter().map(|&n| (n, n)).collect();
        let mut factors = VBatch::<f64>::alloc(&dev, &dims).unwrap();
        let rhs_dims: Vec<(usize, usize)> = sizes.iter().map(|&n| (n, 3)).collect();
        let mut rhs = VBatch::<f64>::alloc(&dev, &rhs_dims).unwrap();
        let mut xs = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let a = diag_dominant_vec::<f64>(&mut rng, n, n);
            let x = rand_mat::<f64>(&mut rng, n * 3);
            let b = naive::gemm_ref(
                Trans::NoTrans,
                Trans::NoTrans,
                1.0,
                &a,
                n,
                n,
                &x,
                n,
                3,
                0.0,
                &vec![0.0; n * 3],
                n,
                3,
            );
            factors.upload_matrix(i, &a).unwrap();
            rhs.upload_matrix(i, &b).unwrap();
            xs.push(x);
        }
        let (report, pivots) = getrf_vbatched(
            &dev,
            &mut factors,
            &GetrfOptions {
                nb_panel: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.all_ok());
        getrs_vbatched(&dev, &factors, &pivots, &rhs).unwrap();
        for (i, x) in xs.iter().enumerate() {
            let got = rhs.download_matrix(i);
            assert!(max_abs_diff_slices(&got, x) < 1e-8, "solve {i} mismatch");
        }
    }

    #[test]
    fn potri_inverts_batch() {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes = [10usize, 3, 27];
        let mut rng = seeded_rng(99);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let origs: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let a = spd_vec::<f64>(&mut rng, n);
                batch.upload_matrix(i, &a).unwrap();
                a
            })
            .collect();
        let report = crate::potrf_vbatched(&dev, &mut batch, &PotrfOptions::default()).unwrap();
        assert!(report.all_ok());
        potri_vbatched(&dev, &batch, Uplo::Lower).unwrap();
        for (i, &n) in sizes.iter().enumerate() {
            let inv = batch.download_matrix(i);
            // Symmetrize the lower triangle and check A·A⁻¹ = I.
            let mut full = vec![0.0f64; n * n];
            for j in 0..n {
                for r in 0..n {
                    full[r + j * n] = inv[r.max(j) + r.min(j) * n];
                }
            }
            let prod = naive::gemm_ref(
                Trans::NoTrans,
                Trans::NoTrans,
                1.0,
                &origs[i],
                n,
                n,
                &full,
                n,
                n,
                0.0,
                &vec![0.0; n * n],
                n,
                n,
            );
            for j in 0..n {
                for r in 0..n {
                    let want = if r == j { 1.0 } else { 0.0 };
                    assert!(
                        (prod[r + j * n] - want).abs() < 1e-7,
                        "matrix {i} (n={n}) at ({r},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn posv_factor_and_solve() {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes = [14usize, 6, 40];
        let mut rng = seeded_rng(98);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let rhs_dims: Vec<(usize, usize)> = sizes.iter().map(|&n| (n, 1)).collect();
        let mut rhs = VBatch::<f64>::alloc(&dev, &rhs_dims).unwrap();
        let mut xs = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let a = spd_vec::<f64>(&mut rng, n);
            let x = rand_mat::<f64>(&mut rng, n);
            let b = naive::matvec_ref(&a, n, n, &x);
            batch.upload_matrix(i, &a).unwrap();
            rhs.upload_matrix(i, &b).unwrap();
            xs.push(x);
        }
        let report = posv_vbatched(&dev, &mut batch, &rhs, &PotrfOptions::default()).unwrap();
        assert!(report.all_ok());
        for (i, x) in xs.iter().enumerate() {
            assert!(
                max_abs_diff_slices(&rhs.download_matrix(i), x) < 1e-8,
                "posv {i}"
            );
        }
    }

    /// Shapes the kernels would read or write past an allocation with
    /// (their bounds checks are `debug_assert!`s) are rejected on the
    /// host before any launch, leaving the right-hand side untouched.
    #[test]
    fn count_mismatch_rejected() {
        let dev = Device::new(DeviceConfig::k40c());
        let rhs = |dims: &[(usize, usize)]| {
            let mut b = VBatch::<f64>::alloc(&dev, dims).unwrap();
            for (i, &(m, n)) in dims.iter().enumerate() {
                b.upload_matrix(i, &vec![1.5; m * n]).unwrap();
            }
            b
        };
        let untouched = |b: &VBatch<f64>| {
            (0..b.count()).all(|i| b.download_matrix(i).iter().all(|&x| x == 1.5))
        };
        let square = VBatch::<f64>::alloc_square(&dev, &[3, 4]).unwrap();
        let tall = VBatch::<f64>::alloc(&dev, &[(3, 3), (5, 4)]).unwrap();
        let pivots = PivotArray::alloc(&dev, 2, 4).unwrap();
        let (one_matrix, three_pivots) = (
            PivotArray::alloc(&dev, 1, 4).unwrap(),
            PivotArray::alloc(&dev, 2, 3).unwrap(),
        );
        let cases: [(&VBatch<f64>, VBatch<f64>, &PivotArray); 6] = [
            // Batch counts differ.
            (&square, rhs(&[(3, 1)]), &pivots),
            // A right-hand side with fewer rows than its factor's order.
            (&square, rhs(&[(3, 2), (3, 2)]), &pivots),
            // A non-square factor.
            (&tall, rhs(&[(3, 1), (5, 1)]), &pivots),
            // A right-hand side block with no rows at all.
            (&square, rhs(&[(3, 1), (0, 1)]), &pivots),
            // Pivots for fewer matrices, or fewer pivots, than needed.
            (&square, rhs(&[(3, 1), (4, 1)]), &one_matrix),
            (&square, rhs(&[(3, 1), (4, 1)]), &three_pivots),
        ];
        for (k, (f, b, piv)) in cases.iter().enumerate() {
            let pivots_only = k >= 4;
            if !pivots_only {
                assert!(
                    matches!(
                        potrs_vbatched(&dev, f, b),
                        Err(VbatchError::InvalidArgument(_))
                    ),
                    "potrs case {k}"
                );
            }
            assert!(
                matches!(
                    getrs_vbatched(&dev, f, piv, b),
                    Err(VbatchError::InvalidArgument(_))
                ),
                "getrs case {k}"
            );
            assert!(untouched(b), "case {k}: rhs written");
        }
        assert_eq!(dev.launch_count(), 0, "a rejected solve launched");
    }

    /// `posv` takes lower factors only, and says so before it factors
    /// anything: the batch comes back bit-identical.
    #[test]
    fn posv_rejects_upper_before_touching_the_batch() {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(94);
        let sizes = [6usize, 11];
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let origs: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        for (i, a) in origs.iter().enumerate() {
            batch.upload_matrix(i, a).unwrap();
        }
        let rhs = VBatch::<f64>::alloc(&dev, &[(6, 1), (11, 1)]).unwrap();
        let opts = PotrfOptions {
            uplo: Uplo::Upper,
            ..PotrfOptions::default()
        };
        assert!(matches!(
            posv_vbatched(&dev, &mut batch, &rhs, &opts),
            Err(VbatchError::InvalidArgument(_))
        ));
        for (i, a) in origs.iter().enumerate() {
            let got = batch.download_matrix(i);
            assert!(
                got.iter().zip(a).all(|(g, w)| g.to_bits() == w.to_bits()),
                "matrix {i} was written"
            );
        }
        assert_eq!(dev.launch_count(), 0);
    }

    /// Pivots from a larger factorization, passed with a smaller factor,
    /// point past the right-hand side. The solve must leave it untouched
    /// (no read or write outside its block) and flag it in its `info`.
    #[test]
    fn getrs_flags_pivots_past_the_factor_order() {
        let dev = Device::new(DeviceConfig::k40c());
        // A 6×6 matrix with P·A = L·U, |L| < 1 below the diagonal, so
        // partial pivoting picks at each step the row `ipiv` names.
        let n = 6;
        let ipiv = [5usize, 2, 3, 5, 4, 5];
        let l = |r: usize, k: usize| {
            if r == k {
                1.0
            } else {
                0.5 / (1 + r - k) as f64
            }
        };
        let u = |k: usize, c: usize| if k == c { 4.0 + c as f64 } else { 0.3 };
        let mut rows: Vec<usize> = (0..n).collect();
        for (t, &p) in ipiv.iter().enumerate() {
            rows.swap(t, p);
        }
        let mut a = vec![0.0f64; n * n];
        for (k, &row) in rows.iter().enumerate() {
            for c in 0..n {
                a[row + c * n] = (0..=k.min(c)).map(|q| l(k, q) * u(q, c)).sum();
            }
        }
        let mut big = VBatch::<f64>::alloc_square(&dev, &[n]).unwrap();
        big.upload_matrix(0, &a).unwrap();
        let (report, pivots) = getrf_vbatched(&dev, &mut big, &GetrfOptions::default()).unwrap();
        assert!(report.all_ok());
        assert_eq!(pivots.download(0, n), ipiv);

        let mut rng = seeded_rng(93);
        let mut small = VBatch::<f64>::alloc_square(&dev, &[3]).unwrap();
        small
            .upload_matrix(0, &diag_dominant_vec::<f64>(&mut rng, 3, 3))
            .unwrap();
        let (report, _) = getrf_vbatched(&dev, &mut small, &GetrfOptions::default()).unwrap();
        assert!(report.all_ok());
        let mut rhs = VBatch::<f64>::alloc(&dev, &[(3, 1)]).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        rhs.upload_matrix(0, &b).unwrap();
        getrs_vbatched(&dev, &small, &pivots, &rhs).unwrap();
        assert_eq!(rhs.download_matrix(0), b);
        assert_eq!(rhs.read_info(), vec![-1]);
    }

    #[test]
    fn broken_factor_skips_its_rhs() {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(97);
        let n = 8;
        let mut factors = VBatch::<f64>::alloc_square(&dev, &[n, n]).unwrap();
        let good = spd_vec::<f64>(&mut rng, n);
        let mut bad = good.clone();
        bad[0] = -5.0;
        factors.upload_matrix(0, &bad).unwrap();
        factors.upload_matrix(1, &good).unwrap();
        let mut rhs = VBatch::<f64>::alloc(&dev, &[(n, 1), (n, 1)]).unwrap();
        let b0 = rand_mat::<f64>(&mut rng, n);
        rhs.upload_matrix(0, &b0).unwrap();
        rhs.upload_matrix(1, &b0).unwrap();
        let report = potrf_vbatched(&dev, &mut factors, &PotrfOptions::default()).unwrap();
        assert_eq!(report.failure_count(), 1);
        potrs_vbatched(&dev, &factors, &rhs).unwrap();
        // Broken matrix's rhs untouched; healthy one solved (changed).
        assert_eq!(rhs.download_matrix(0), b0);
        assert!(max_abs_diff_slices(&rhs.download_matrix(1), &b0) > 1e-6);
    }
}
