//! Property-based tests for the dense kernels.
//!
//! Strategy: generate random shapes/contents, and assert algebraic
//! invariants (reference equality, round-trips, residual bounds) rather
//! than fixed outputs.

use proptest::prelude::*;
use vbatch_dense::gen::{rand_mat, seeded_rng, spd_vec};
use vbatch_dense::naive;
use vbatch_dense::verify::{
    chol_residual, lu_residual, max_abs_diff_slices, qr_residual, residual_tol,
};
use vbatch_dense::{
    gemm, geqrf, getrf, potf2, potrf_blocked, syrk, trmm, trsm, trtri, Diag, MatMut, MatRef,
    Scalar, Side, Trans, Uplo,
};

fn trans_strategy() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::NoTrans), Just(Trans::Trans)]
}

fn uplo_strategy() -> impl Strategy<Value = Uplo> {
    prop_oneof![Just(Uplo::Lower), Just(Uplo::Upper)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gemm_matches_reference(
        m in 1usize..12, n in 1usize..12, k in 1usize..12,
        ta in trans_strategy(), tb in trans_strategy(),
        seed in 0u64..1_000_000,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
    ) {
        let mut rng = seeded_rng(seed);
        let (am, an) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
        let (bm, bn) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
        let a = rand_mat::<f64>(&mut rng, am * an);
        let b = rand_mat::<f64>(&mut rng, bm * bn);
        let c0 = rand_mat::<f64>(&mut rng, m * n);
        let mut c = c0.clone();
        gemm(ta, tb, alpha,
            MatRef::from_slice(&a, am, an, am),
            MatRef::from_slice(&b, bm, bn, bm),
            beta,
            MatMut::from_slice(&mut c, m, n, m));
        let want = naive::gemm_ref(ta, tb, alpha, &a, am, an, &b, bm, bn, beta, &c0, m, n);
        prop_assert!(max_abs_diff_slices(&c, &want) < 1e-11);
    }

    #[test]
    fn gemm_is_linear_in_alpha(
        m in 1usize..8, n in 1usize..8, k in 1usize..8,
        seed in 0u64..1_000_000, alpha in -3.0f64..3.0,
    ) {
        let mut rng = seeded_rng(seed);
        let a = rand_mat::<f64>(&mut rng, m * k);
        let b = rand_mat::<f64>(&mut rng, k * n);
        // C1 = alpha*A*B; C2 = A*B scaled by alpha afterwards.
        let mut c1 = vec![0.0f64; m * n];
        gemm(Trans::NoTrans, Trans::NoTrans, alpha,
            MatRef::from_slice(&a, m, k, m), MatRef::from_slice(&b, k, n, k),
            0.0, MatMut::from_slice(&mut c1, m, n, m));
        let mut c2 = vec![0.0f64; m * n];
        gemm(Trans::NoTrans, Trans::NoTrans, 1.0,
            MatRef::from_slice(&a, m, k, m), MatRef::from_slice(&b, k, n, k),
            0.0, MatMut::from_slice(&mut c2, m, n, m));
        for v in &mut c2 { *v *= alpha; }
        prop_assert!(max_abs_diff_slices(&c1, &c2) < 1e-11);
    }

    #[test]
    fn syrk_produces_symmetric_update(
        n in 1usize..10, k in 1usize..10, seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let a = rand_mat::<f64>(&mut rng, n * k);
        // Apply to both triangles separately; result must be symmetric.
        let mut lo = vec![0.0f64; n * n];
        let mut up = vec![0.0f64; n * n];
        syrk(Uplo::Lower, Trans::NoTrans, 1.0, MatRef::from_slice(&a, n, k, n),
            0.0, MatMut::from_slice(&mut lo, n, n, n));
        syrk(Uplo::Upper, Trans::NoTrans, 1.0, MatRef::from_slice(&a, n, k, n),
            0.0, MatMut::from_slice(&mut up, n, n, n));
        for j in 0..n {
            for i in j..n {
                prop_assert!((lo[i + j * n] - up[j + i * n]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trsm_trmm_roundtrip(
        m in 1usize..9, n in 1usize..9, seed in 0u64..1_000_000,
        side in prop_oneof![Just(Side::Left), Just(Side::Right)],
        uplo in uplo_strategy(), trans in trans_strategy(),
        diag in prop_oneof![Just(Diag::NonUnit), Just(Diag::Unit)],
    ) {
        let mut rng = seeded_rng(seed);
        let na = if side == Side::Left { m } else { n };
        let mut a = rand_mat::<f64>(&mut rng, na * na);
        for i in 0..na { a[i + i * na] = 2.0 + a[i + i * na].abs(); }
        let x0 = rand_mat::<f64>(&mut rng, m * n);
        let mut b = x0.clone();
        trmm(side, uplo, trans, diag, 1.0, MatRef::from_slice(&a, na, na, na),
            MatMut::from_slice(&mut b, m, n, m));
        trsm(side, uplo, trans, diag, 1.0, MatRef::from_slice(&a, na, na, na),
            MatMut::from_slice(&mut b, m, n, m));
        prop_assert!(max_abs_diff_slices(&b, &x0) < 1e-8);
    }

    #[test]
    fn potf2_residual_bounded(n in 1usize..40, seed in 0u64..1_000_000) {
        let mut rng = seeded_rng(seed);
        let orig = spd_vec::<f64>(&mut rng, n);
        let mut a = orig.clone();
        potf2(Uplo::Lower, MatMut::from_slice(&mut a, n, n, n)).unwrap();
        let r = chol_residual(Uplo::Lower,
            MatRef::from_slice(&a, n, n, n), MatRef::from_slice(&orig, n, n, n));
        prop_assert!(r < residual_tol::<f64>(n), "residual {r}");
    }

    #[test]
    fn potrf_blocked_residual_bounded(
        n in 1usize..64, nb in 1usize..16, seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let orig = spd_vec::<f64>(&mut rng, n);
        let mut a = orig.clone();
        potrf_blocked(Uplo::Lower, MatMut::from_slice(&mut a, n, n, n), nb).unwrap();
        let r = chol_residual(Uplo::Lower,
            MatRef::from_slice(&a, n, n, n), MatRef::from_slice(&orig, n, n, n));
        prop_assert!(r < residual_tol::<f64>(n), "residual {r}");
    }

    #[test]
    fn potf2_f32_residual_bounded(n in 1usize..32, seed in 0u64..1_000_000) {
        let mut rng = seeded_rng(seed);
        let orig = spd_vec::<f32>(&mut rng, n);
        let mut a = orig.clone();
        potf2(Uplo::Lower, MatMut::from_slice(&mut a, n, n, n)).unwrap();
        let r = chol_residual(Uplo::Lower,
            MatRef::from_slice(&a, n, n, n), MatRef::from_slice(&orig, n, n, n));
        prop_assert!(r < residual_tol::<f32>(n), "residual {r}");
    }

    #[test]
    fn getrf_residual_bounded(
        m in 1usize..32, n in 1usize..32, nb in 1usize..8, seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let orig = rand_mat::<f64>(&mut rng, m * n);
        let mut a = orig.clone();
        let mut p = vec![0usize; m.min(n)];
        getrf(MatMut::from_slice(&mut a, m, n, m), &mut p, nb).unwrap();
        let r = lu_residual(MatRef::from_slice(&a, m, n, m), &p,
            MatRef::from_slice(&orig, m, n, m));
        prop_assert!(r < residual_tol::<f64>(m.max(n)), "residual {r}");
        // Pivots must point at or below their row.
        for (i, &pv) in p.iter().enumerate() {
            prop_assert!(pv >= i && pv < m);
        }
    }

    #[test]
    fn trtri_then_multiply_is_identity(
        n in 1usize..161, seed in 0u64..1_000_000,
        uplo in uplo_strategy(),
        diag in prop_oneof![Just(Diag::NonUnit), Just(Diag::Unit)],
        pad in 0usize..3,
    ) {
        let mut rng = seeded_rng(seed);
        let ld = n + pad;
        let stored = |i: usize, j: usize| match uplo {
            Uplo::Lower => i > j,
            Uplo::Upper => i < j,
        };
        // Small off-diagonals keep the inverse well conditioned at
        // n = 160; what `trtri` must not touch holds NaN.
        let mut t = rand_mat::<f64>(&mut rng, ld * n);
        for j in 0..n {
            for i in 0..ld {
                let v = &mut t[i + j * ld];
                if i == j && diag == Diag::NonUnit {
                    *v = 2.0 + v.abs();
                } else if i < n && stored(i, j) {
                    *v *= 0.25;
                } else {
                    *v = f64::NAN;
                }
            }
        }
        let mut inv = t.clone();
        trtri(uplo, diag, MatMut::from_slice(&mut inv, n, n, ld)).unwrap();
        // Dense copies of both triangles for the naive product.
        let dense = |buf: &[f64]| -> Vec<f64> {
            let mut out = vec![0.0; n * n];
            for j in 0..n {
                for i in 0..n {
                    if i == j && diag == Diag::Unit {
                        out[i + j * n] = 1.0;
                    } else if i == j || stored(i, j) {
                        out[i + j * n] = buf[i + j * ld];
                    }
                }
            }
            out
        };
        let prod = naive::gemm_ref(Trans::NoTrans, Trans::NoTrans, 1.0,
            &dense(&t), n, n, &dense(&inv), n, n, 0.0, &vec![0.0; n * n], n, n);
        for j in 0..n {
            for i in 0..n {
                let want = if i == j { 1.0 } else { 0.0 };
                prop_assert!((prod[i + j * n] - want).abs() < 1e-9,
                    "T*inv(T) != I at ({i},{j}): {}", prod[i + j * n]);
            }
        }
        // Everything outside the referenced triangle is bitwise intact.
        for (k, (got, was)) in inv.iter().zip(&t).enumerate() {
            prop_assert!(!was.is_nan() || got.is_nan(), "trtri wrote unreferenced element {k}");
        }
    }

    #[test]
    fn trtri_reports_first_zero_diagonal_untouched(
        n in 1usize..161, seed in 0u64..1_000_000, uplo in uplo_strategy(),
    ) {
        let mut rng = seeded_rng(seed);
        let mut t = rand_mat::<f64>(&mut rng, n * n);
        for j in 0..n { t[j + j * n] = 2.0 + t[j + j * n].abs(); }
        // Two zero pivots: the first one is the one reported.
        let first = seed as usize % n;
        let second = first + (seed as usize / 7) % (n - first);
        t[first + first * n] = 0.0;
        t[second + second * n] = 0.0;
        let mut a = t.clone();
        let res = trtri(uplo, Diag::NonUnit, MatMut::from_slice(&mut a, n, n, n));
        prop_assert_eq!(res, Err(vbatch_dense::Error::Singular { column: first }));
        prop_assert_eq!(&a, &t);
        // A unit triangle never reads its diagonal, zero or not.
        prop_assert!(trtri(uplo, Diag::Unit, MatMut::from_slice(&mut a, n, n, n)).is_ok());
    }

    #[test]
    fn geqr2_and_geqrf_agree(
        m in 1usize..24, n in 1usize..24, nb in 1usize..8, seed in 0u64..1_000_000,
    ) {
        use vbatch_dense::geqr2;
        let mut rng = seeded_rng(seed);
        let orig = rand_mat::<f64>(&mut rng, m * n);
        let k = m.min(n);
        let mut a1 = orig.clone();
        let mut t1 = vec![0.0f64; k];
        geqr2(MatMut::from_slice(&mut a1, m, n, m), &mut t1);
        let mut a2 = orig.clone();
        let mut t2 = vec![0.0f64; k];
        geqrf(MatMut::from_slice(&mut a2, m, n, m), &mut t2, nb);
        // Same reflectors, same R (the blocked update is algebraically
        // identical to applying reflectors one by one).
        prop_assert!(max_abs_diff_slices(&a1, &a2) < 1e-9);
        prop_assert!(max_abs_diff_slices(&t1, &t2) < 1e-12);
    }

    #[test]
    fn larfb_equals_sequential_larf(
        jb in prop_oneof![Just(1usize), 2usize..10, Just(32usize)],
        // No extra rows: V has no V2 block, so both gemm steps are empty.
        extra_rows in prop_oneof![Just(0usize), 1usize..40],
        // Either side of BLOCKED_MIN_N: slice-tier and packed gemm steps.
        cols in boundary_dim(33),
        pad in 0usize..3,
        drop_one in 0usize..2,
        seed in 0u64..1_000_000,
    ) {
        use vbatch_dense::{geqr2, larf_left, larfb_left_t, larft};
        let (m, ld) = (jb + extra_rows, jb + extra_rows + pad);
        let mut rng = seeded_rng(seed);
        // Build a reflector panel via geqr2, then switch one reflector
        // off: tau = 0 means H = I whatever its stored tail says.
        let mut panel = padded_mat(&mut rng, m, jb, ld);
        let mut tau = vec![0.0f64; jb];
        geqr2(MatMut::from_slice(&mut panel, m, jb, ld), &mut tau);
        if drop_one == 1 {
            tau[seed as usize % jb] = 0.0;
        }
        let c0 = padded_mat(&mut rng, m, cols, ld);

        // Blocked application.
        let v = MatRef::from_slice(&panel, m, jb, ld);
        let mut t = vec![0.0f64; jb * jb];
        larft(v, &tau, MatMut::from_slice(&mut t, jb, jb, jb));
        let mut c_blocked = c0.clone();
        larfb_left_t(
            v,
            MatRef::from_slice(&t, jb, jb, jb),
            MatMut::from_slice(&mut c_blocked, m, cols, ld),
        );

        // One reflector at a time (forward order = Qᵀ).
        let mut c_seq = c0.clone();
        for (r, &tau_r) in tau.iter().enumerate() {
            let v_tail = v.sub(r + 1, r, m - r - 1, 1);
            let c_view = MatMut::from_slice(&mut c_seq, m, cols, ld).sub(r, 0, m - r, cols);
            larf_left(v_tail, tau_r, c_view);
        }
        // Whole buffers: the sentinel rows between m and ld must come
        // through untouched on both sides.
        prop_assert!(max_abs_diff_slices(&c_blocked, &c_seq) < 1e-10);
    }

    #[test]
    fn laswp_roundtrip(n in 1usize..20, cols in 1usize..6, seed in 0u64..1_000_000) {
        use vbatch_dense::laswp;
        let mut rng = seeded_rng(seed);
        let orig = rand_mat::<f64>(&mut rng, n * cols);
        // Random valid pivot vector (p[i] >= i).
        let ipiv: Vec<usize> = (0..n)
            .map(|i| i + (seed as usize + i * 7) % (n - i))
            .collect();
        let mut a = orig.clone();
        laswp(MatMut::from_slice(&mut a, n, cols, n), 0, n, &ipiv);
        // Undo by applying the swaps in reverse order.
        for i in (0..n).rev() {
            if ipiv[i] != i {
                for c in 0..cols {
                    a.swap(i + c * n, ipiv[i] + c * n);
                }
            }
        }
        prop_assert_eq!(a, orig);
    }

    #[test]
    fn potf2_never_accepts_indefinite(n in 2usize..16, seed in 0u64..1_000_000) {
        // A symmetric matrix with a negative eigenvalue direction must fail.
        let mut rng = seeded_rng(seed);
        let mut a = spd_vec::<f64>(&mut rng, n);
        let col = seed as usize % n;
        a[col + col * n] = -1.0 - a[col + col * n].abs();
        let res = potf2(Uplo::Lower, MatMut::from_slice(&mut a, n, n, n));
        prop_assert!(res.is_err());
    }
}

// ---------------------------------------------------------------------
// Tier-oracle equivalence: both kernel tiers against the naive
// references, over every flag combination, boundary-biased sizes (the
// register tile MR/NR, the dispatch threshold, the trsm/syrk block
// edges) and non-unit leading dimensions.
// ---------------------------------------------------------------------

use vbatch_dense::level3::{tier, uses_blocked, MR, NR};

/// Sizes clustered on tile/threshold/block boundaries, ±1 around each,
/// plus 1 and small odd values.
fn boundary_dim(max: usize) -> impl Strategy<Value = usize> {
    let candidates: Vec<usize> = [
        1,
        2,
        3,
        NR - 1,
        NR,
        NR + 1,
        5,
        7,
        MR - 1,
        MR,
        MR + 1,
        11,
        12,
        13,
        17,
        31,
        32,
        33,
        47,
        48,
        49,
        63,
        64,
        65,
        127,
        128,
        129,
        160,
    ]
    .into_iter()
    .filter(|&v| v <= max)
    .collect();
    proptest::sample::select(candidates)
}

/// α/β biased toward the special-cased values 0 and 1.
fn coeff_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(-1.0), -2.0f64..2.0]
}

/// Random `rows × cols` matrix stored with leading dimension `ld`
/// (`ld >= rows`); the `ld - rows` gap rows hold sentinel garbage so a
/// kernel that strays off a column shows up as a mismatch.
fn padded_mat<T: Scalar>(rng: &mut impl rand::Rng, rows: usize, cols: usize, ld: usize) -> Vec<T> {
    let mut buf = rand_mat::<T>(rng, ld * cols.max(1));
    for j in 0..cols {
        for i in rows..ld {
            buf[i + j * ld] = T::from_f64(1e30);
        }
    }
    buf
}

/// Extracts the `rows × cols` view of a padded buffer into packed
/// (`ld == rows`) storage, the layout the naive references use.
fn packed_from<T: Scalar>(buf: &[T], rows: usize, cols: usize, ld: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(rows * cols);
    for j in 0..cols {
        out.extend_from_slice(&buf[j * ld..j * ld + rows]);
    }
    out
}

/// One `trmm` call to check against [`naive::trmm_ref`].
#[derive(Debug)]
struct TrmmCase {
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    /// Leading-dimension padding of `A` and `B`.
    pa: usize,
    pb: usize,
    alpha: f64,
    /// Fill what `trmm` must not read — the opposite triangle of `A`,
    /// and its diagonal under `Diag::Unit` — with NaN.
    poison: bool,
    seed: u64,
}

/// Runs one case in precision `T`: the result must be finite, equal
/// the reference to rounding, and leave the `ld` gap rows untouched.
fn check_trmm<T: Scalar>(case: &TrmmCase) -> Result<(), String> {
    let &TrmmCase {
        side,
        uplo,
        trans,
        diag,
        m,
        n,
        pa,
        pb,
        alpha,
        poison,
        seed,
    } = case;
    let mut rng = seeded_rng(seed);
    let na = if side == Side::Left { m } else { n };
    let (lda, ldb) = (na + pa, m + pb);
    let mut a = padded_mat::<T>(&mut rng, na, na, lda);
    let b0 = padded_mat::<T>(&mut rng, m, n, ldb);
    if poison {
        for j in 0..na {
            for i in 0..na {
                let unread = match uplo {
                    Uplo::Lower => i < j,
                    Uplo::Upper => i > j,
                } || (i == j && diag == Diag::Unit);
                if unread {
                    a[i + j * lda] = T::from_f64(f64::NAN);
                }
            }
        }
    }
    let alpha = T::from_f64(alpha);
    let want = naive::trmm_ref(
        side,
        uplo,
        trans,
        diag,
        alpha,
        &packed_from(&a, na, na, lda),
        &packed_from(&b0, m, n, ldb),
        m,
        n,
    );
    let mut b = b0.clone();
    trmm(
        side,
        uplo,
        trans,
        diag,
        alpha,
        MatRef::from_slice(&a, na, na, lda),
        MatMut::from_slice(&mut b, m, n, ldb),
    );
    let got = packed_from(&b, m, n, ldb);
    // `max_abs_diff_slices` folds with `f64::max`, which drops NaN.
    let finite = got.iter().all(|v| v.is_finite());
    let diff = max_abs_diff_slices(&got, &want);
    let tol = 16.0 * (na as f64 + 1.0) * T::EPSILON.to_f64() * alpha.to_f64().abs().max(1.0);
    let gaps_kept = (0..n).all(|j| (m..ldb).all(|i| b[i + j * ldb] == b0[i + j * ldb]));
    if finite && diff < tol && gaps_kept {
        Ok(())
    } else {
        Err(format!(
            "trmm<{}> {case:?}: finite={finite} diff={diff:e} tol={tol:e} gaps_kept={gaps_kept}",
            T::PREFIX
        ))
    }
}

/// Every side × uplo × trans × diag at triangle orders on both sides of
/// the recursion cutoff (64) at each depth, with the other extent a
/// single column, one ragged narrow chunk, and one full chunk plus a
/// ragged one — the shapes the sampled property only meets by chance.
#[test]
fn trmm_recursion_boundaries_all_flags() {
    let mut count = 0u64;
    for side in [Side::Left, Side::Right] {
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::NoTrans, Trans::Trans] {
                for diag in [Diag::NonUnit, Diag::Unit] {
                    for na in [63, 64, 65, 129, 160] {
                        for other in [1, 9, 70] {
                            let (m, n) = match side {
                                Side::Left => (na, other),
                                Side::Right => (other, na),
                            };
                            count += 1;
                            let case = TrmmCase {
                                side,
                                uplo,
                                trans,
                                diag,
                                m,
                                n,
                                pa: (count % 3) as usize,
                                pb: (count % 2) as usize,
                                alpha: [1.0, -1.0, 0.0, 0.37][(count % 4) as usize],
                                poison: count & 1 == 0,
                                seed: count,
                            };
                            check_trmm::<f64>(&case).unwrap();
                            check_trmm::<f32>(&case).unwrap();
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_tiers_match_reference_any_ld(
        m in boundary_dim(65), n in boundary_dim(65), k in boundary_dim(65),
        ta in trans_strategy(), tb in trans_strategy(),
        pa in 0usize..3, pb in 0usize..3, pc in 0usize..3,
        alpha in coeff_strategy(), beta in coeff_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let (am, an) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
        let (bm, bn) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
        let (lda, ldb, ldc) = (am + pa, bm + pb, m + pc);
        let a = padded_mat(&mut rng, am, an, lda);
        let b = padded_mat(&mut rng, bm, bn, ldb);
        let c0 = padded_mat(&mut rng, m, n, ldc);

        let want = naive::gemm_ref(
            ta, tb, alpha,
            &packed_from(&a, am, an, lda), am, an,
            &packed_from(&b, bm, bn, ldb), bm, bn,
            beta, &packed_from(&c0, m, n, ldc), m, n,
        );

        let ar = MatRef::from_slice(&a, am, an, lda);
        let br = MatRef::from_slice(&b, bm, bn, ldb);
        let tol = 1e-10 * (k as f64 + 1.0);

        let mut c_small = c0.clone();
        tier::gemm_small(ta, tb, alpha, ar, br, beta,
            MatMut::from_slice(&mut c_small, m, n, ldc));
        prop_assert!(
            max_abs_diff_slices(&packed_from(&c_small, m, n, ldc), &want) < tol,
            "small tier mismatch ta={ta:?} tb={tb:?} m={m} n={n} k={k}"
        );

        let mut c_blocked = c0.clone();
        tier::gemm_blocked(ta, tb, alpha, ar, br, beta,
            MatMut::from_slice(&mut c_blocked, m, n, ldc));
        prop_assert!(
            max_abs_diff_slices(&packed_from(&c_blocked, m, n, ldc), &want) < tol,
            "blocked tier mismatch ta={ta:?} tb={tb:?} m={m} n={n} k={k}"
        );

        // The dispatching engine must agree with whichever tier it picks
        // (both threshold sides are exercised: k and n straddle 12 / 8).
        let _ = uses_blocked(m, n, k);
        let mut c_engine = c0.clone();
        gemm(ta, tb, alpha, ar, br, beta,
            MatMut::from_slice(&mut c_engine, m, n, ldc));
        prop_assert!(
            max_abs_diff_slices(&packed_from(&c_engine, m, n, ldc), &want) < tol,
            "engine mismatch ta={ta:?} tb={tb:?} m={m} n={n} k={k}"
        );
    }

    #[test]
    fn syrk_matches_reference_any_ld(
        n in boundary_dim(65), k in boundary_dim(65),
        uplo in uplo_strategy(), trans in trans_strategy(),
        pa in 0usize..3, pc in 0usize..3,
        alpha in coeff_strategy(), beta in coeff_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let (am, an) = if trans == Trans::NoTrans { (n, k) } else { (k, n) };
        let (lda, ldc) = (am + pa, n + pc);
        let a = padded_mat(&mut rng, am, an, lda);
        let c0 = padded_mat(&mut rng, n, n, ldc);

        let want = naive::syrk_ref(
            uplo, trans, alpha,
            &packed_from(&a, am, an, lda), n, k,
            beta, &packed_from(&c0, n, n, ldc),
        );

        let mut c = c0.clone();
        syrk(uplo, trans, alpha, MatRef::from_slice(&a, am, an, lda),
            beta, MatMut::from_slice(&mut c, n, n, ldc));
        prop_assert!(
            max_abs_diff_slices(&packed_from(&c, n, n, ldc), &want) < 1e-10 * (k as f64 + 1.0),
            "syrk mismatch uplo={uplo:?} trans={trans:?} n={n} k={k}"
        );
    }

    #[test]
    fn trmm_matches_reference_any_ld(
        m in boundary_dim(160), n in boundary_dim(160),
        side in prop_oneof![Just(Side::Left), Just(Side::Right)],
        uplo in uplo_strategy(), trans in trans_strategy(),
        diag in prop_oneof![Just(Diag::NonUnit), Just(Diag::Unit)],
        pa in 0usize..3, pb in 0usize..3,
        alpha in coeff_strategy(),
        poison in prop_oneof![Just(false), Just(true)],
        single in prop_oneof![Just(false), Just(true)],
        seed in 0u64..1_000_000,
    ) {
        let case = TrmmCase { side, uplo, trans, diag, m, n, pa, pb, alpha, poison, seed };
        let res = if single { check_trmm::<f32>(&case) } else { check_trmm::<f64>(&case) };
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    #[test]
    fn trsm_matches_reference_any_ld(
        m in boundary_dim(65), n in boundary_dim(48),
        side in prop_oneof![Just(Side::Left), Just(Side::Right)],
        uplo in uplo_strategy(), trans in trans_strategy(),
        diag in prop_oneof![Just(Diag::NonUnit), Just(Diag::Unit)],
        pa in 0usize..3, pb in 0usize..3,
        alpha in coeff_strategy(),
        seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let na = if side == Side::Left { m } else { n };
        let (lda, ldb) = (na + pa, m + pb);
        let mut a = padded_mat::<f64>(&mut rng, na, na, lda);
        // Diagonal dominance keeps the substitution well-conditioned so
        // the elementwise comparison tolerance stays meaningful.
        for i in 0..na {
            a[i + i * lda] = 2.0 + a[i + i * lda].abs();
        }
        let b0 = padded_mat(&mut rng, m, n, ldb);

        let want = naive::trsm_ref(
            side, uplo, trans, diag, alpha,
            &packed_from(&a, na, na, lda), &packed_from(&b0, m, n, ldb), m, n,
        );

        let mut b = b0.clone();
        trsm(side, uplo, trans, diag, alpha, MatRef::from_slice(&a, na, na, lda),
            MatMut::from_slice(&mut b, m, n, ldb));
        // m up to 65 crosses the recursive split (TRSM_NB = 32) twice.
        prop_assert!(
            max_abs_diff_slices(&packed_from(&b, m, n, ldb), &want)
                < 1e-8 * (na as f64 + 1.0),
            "trsm mismatch side={side:?} uplo={uplo:?} trans={trans:?} diag={diag:?} m={m} n={n}"
        );
    }
}

/// Degenerate extents (`0` anywhere) must be no-ops or pure β-scales on
/// every tier — deterministic rather than property-based so each case
/// definitely runs.
#[test]
fn gemm_tiers_handle_zero_extents() {
    for &(m, n, k) in &[(0usize, 3usize, 3usize), (3, 0, 3), (3, 3, 0), (0, 0, 0)] {
        let a = vec![1.0f64; m.max(1) * k.max(1)];
        let b = vec![1.0f64; k.max(1) * n.max(1)];
        let c0 = vec![2.0f64; m.max(1) * n.max(1)];
        let ar = MatRef::from_slice(&a, m, k, m.max(1));
        let br = MatRef::from_slice(&b, k, n, k.max(1));
        for which in 0..3 {
            let mut c = c0.clone();
            let cm = MatMut::from_slice(&mut c, m, n, m.max(1));
            match which {
                0 => gemm(Trans::NoTrans, Trans::NoTrans, 1.0, ar, br, 0.5, cm),
                1 => tier::gemm_small(Trans::NoTrans, Trans::NoTrans, 1.0, ar, br, 0.5, cm),
                _ => tier::gemm_blocked(Trans::NoTrans, Trans::NoTrans, 1.0, ar, br, 0.5, cm),
            }
            // Only the live m×n corner may change, and only by β.
            for j in 0..n {
                for i in 0..m {
                    assert_eq!(c[i + j * m.max(1)], 1.0, "m={m} n={n} k={k} which={which}");
                }
            }
            if m == 0 || n == 0 {
                assert_eq!(c, c0, "degenerate view must not write m={m} n={n} k={k}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Blocked Householder QR: normalised backward error and orthogonality
// over the shapes where the level-3 `larfb` degenerates (one panel, no
// trailing columns, no V2 block) and over both precisions.
// ---------------------------------------------------------------------

/// `(‖A − QR‖_F / (‖A‖_F·max(m,n)·ε), ‖QᵀQ − I‖_F / (m·ε))` of `geqrf`
/// with block size `nb` on a random `m × n` matrix.
fn geqrf_errors_in_eps<T: Scalar>(m: usize, n: usize, nb: usize) -> (f64, f64) {
    let mut rng = seeded_rng((m * 1000 + n) as u64);
    let a = rand_mat::<T>(&mut rng, m * n);
    let mut f = a.clone();
    let mut tau = vec![T::ZERO; m.min(n)];
    geqrf(MatMut::from_slice(&mut f, m, n, m), &mut tau, nb);
    let (res, orth) = qr_residual(
        MatRef::from_slice(&f, m, n, m),
        &tau,
        MatRef::from_slice(&a, m, n, m),
    );
    let eps = T::EPSILON.to_f64();
    (res / eps, orth / eps)
}

// Worst seen on an AVX-512 host: 0.03 eps backward (96x96), 0.51 eps
// orthogonality (8x512); the bounds leave room for other summation
// orders, not for a lost digit.
#[test]
fn geqrf_backward_error_and_orthogonality_bounds() {
    for (m, n) in [(512, 8), (8, 512), (96, 96), (150, 70), (1, 1)] {
        for nb in [1, 8, 32, 1000] {
            for (prec, (res, orth)) in [
                ("f64", geqrf_errors_in_eps::<f64>(m, n, nb)),
                ("f32", geqrf_errors_in_eps::<f32>(m, n, nb)),
            ] {
                assert!(
                    res < 0.5 && orth < 2.0,
                    "{prec} geqrf {m}x{n} nb {nb}: backward error {res:.3} eps, orthogonality {orth:.3} eps"
                );
            }
        }
    }
}

/// `y ← y + a·x`, as the slice tier's `axpy`.
fn axpy_ref<T: Scalar>(y: &mut [T], x: &[T], a: T) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = a.mul_add(*xi, *yi);
    }
}

/// The slice tier's eight-partial-sum `dot`, whose order defines the
/// bits of the dot-form solves.
fn dot_ref<T: Scalar>(x: &[T], y: &[T]) -> T {
    let split = x.len() - x.len() % 8;
    let mut acc = [T::ZERO; 8];
    for (xa, ya) in x[..split].chunks_exact(8).zip(y[..split].chunks_exact(8)) {
        for l in 0..8 {
            acc[l] = xa[l].mul_add(ya[l], acc[l]);
        }
    }
    let mut s = T::ZERO;
    for v in acc {
        s += v;
    }
    for (xi, yi) in x[split..].iter().zip(&y[split..]) {
        s += *xi * *yi;
    }
    s
}

/// Column-axpy substitution on one diagonal block: the loops `trsm`
/// solved its small blocks with before they moved into registers, kept
/// as the oracle for those register sweeps.
fn trsm_columns_leaf<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let (m, n) = (b.nrows(), b.ncols());
    let op = |l: usize, j: usize| match trans {
        Trans::NoTrans => a.get(l, j),
        Trans::Trans => a.get(j, l),
    };
    let unit = diag == Diag::Unit;
    match (side, uplo, trans) {
        (Side::Left, Uplo::Lower, Trans::NoTrans) => {
            for j in 0..n {
                let bj = b.col_as_mut_slice(j);
                for i in 0..m {
                    let (head, tail) = bj.split_at_mut(i + 1);
                    let x = if unit { head[i] } else { head[i] / a.get(i, i) };
                    head[i] = x;
                    axpy_ref(tail, &a.col_as_slice(i)[i + 1..], -x);
                }
            }
        }
        (Side::Left, Uplo::Upper, Trans::NoTrans) => {
            for j in 0..n {
                let bj = b.col_as_mut_slice(j);
                for i in (0..m).rev() {
                    let (head, tail) = bj.split_at_mut(i);
                    let x = if unit { tail[0] } else { tail[0] / a.get(i, i) };
                    tail[0] = x;
                    axpy_ref(head, &a.col_as_slice(i)[..i], -x);
                }
            }
        }
        (Side::Left, Uplo::Upper, Trans::Trans) => {
            for j in 0..n {
                let bj = b.col_as_mut_slice(j);
                for i in 0..m {
                    let x = bj[i] - dot_ref(&a.col_as_slice(i)[..i], &bj[..i]);
                    bj[i] = if unit { x } else { x / a.get(i, i) };
                }
            }
        }
        (Side::Left, Uplo::Lower, Trans::Trans) => {
            for j in 0..n {
                let bj = b.col_as_mut_slice(j);
                for i in (0..m).rev() {
                    let x = bj[i] - dot_ref(&a.col_as_slice(i)[i + 1..], &bj[i + 1..]);
                    bj[i] = if unit { x } else { x / a.get(i, i) };
                }
            }
        }
        (Side::Right, ..) => {
            let forward = matches!(
                (uplo, trans),
                (Uplo::Upper, Trans::NoTrans) | (Uplo::Lower, Trans::Trans)
            );
            for jj in 0..n {
                let (j, prior) = if forward {
                    (jj, 0..jj)
                } else {
                    (n - 1 - jj, n - jj..n)
                };
                for l in prior {
                    let alj = op(l, j);
                    if alj != T::ZERO {
                        let (dst, src) = b.col_pair_mut(j, l);
                        axpy_ref(dst, src, -alj);
                    }
                }
                if !unit {
                    let ajj = op(j, j);
                    for v in b.col_as_mut_slice(j) {
                        *v /= ajj;
                    }
                }
            }
        }
    }
}

/// `trsm` with [`trsm_columns_leaf`] at the leaves: α first, then the
/// library's recursion — halves, the coupling through the public
/// `gemm`, leaves at order ≤ 32 (`TRSM_NB`).
fn trsm_columns_oracle<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    if alpha != T::ONE {
        for j in 0..b.ncols() {
            for v in b.col_as_mut_slice(j) {
                *v = if alpha == T::ZERO {
                    T::ZERO
                } else {
                    *v * alpha
                };
            }
        }
    }
    if b.nrows() > 0 && b.ncols() > 0 {
        trsm_columns_rec(side, uplo, trans, diag, a, b);
    }
}

fn trsm_columns_rec<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: MatRef<'_, T>,
    b: MatMut<'_, T>,
) {
    let na = a.nrows();
    if na <= 32 {
        trsm_columns_leaf(side, uplo, trans, diag, a, b);
        return;
    }
    let n1 = na / 2;
    let a11 = a.sub(0, 0, n1, n1);
    let a22 = a.sub(n1, n1, na - n1, na - n1);
    let off = match uplo {
        Uplo::Lower => a.sub(n1, 0, na - n1, n1),
        Uplo::Upper => a.sub(0, n1, n1, na - n1),
    };
    let rec = |blk: MatRef<'_, T>, rhs: MatMut<'_, T>| {
        trsm_columns_rec(side, uplo, trans, diag, blk, rhs);
    };
    let op_lower = matches!(
        (uplo, trans),
        (Uplo::Lower, Trans::NoTrans) | (Uplo::Upper, Trans::Trans)
    );
    let (one, nt) = (T::ONE, Trans::NoTrans);
    match side {
        Side::Left => {
            let (mut b1, mut b2) = b.split_at_row(n1);
            if op_lower {
                rec(a11, b1.rb());
                gemm(trans, nt, -one, off, b1.as_ref(), one, b2.rb());
                rec(a22, b2);
            } else {
                rec(a22, b2.rb());
                gemm(trans, nt, -one, off, b2.as_ref(), one, b1.rb());
                rec(a11, b1);
            }
        }
        Side::Right => {
            let (mut b1, mut b2) = b.split_at_col(n1);
            if op_lower {
                rec(a22, b2.rb());
                gemm(nt, trans, -one, b2.as_ref(), off, one, b1.rb());
                rec(a11, b1);
            } else {
                rec(a11, b1.rb());
                gemm(nt, trans, -one, b1.as_ref(), off, one, b2.rb());
                rec(a22, b2);
            }
        }
    }
}

/// `trsm` against the column-axpy oracle, bit for bit: all 16
/// side/uplo/trans/diag cases, triangle orders around the recursion
/// cutoff (32) and the other extent around the register sweep's row
/// chunks (8 and 64), with exact zeros (±0.0) off the diagonal — the
/// right-side solve skips them — and −0.0 in `B`.
#[test]
fn trsm_register_sweeps_match_column_oracle_bits() {
    fn run<T: Scalar>() {
        let mut count = 0usize;
        for side in [Side::Left, Side::Right] {
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for trans in [Trans::NoTrans, Trans::Trans] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        for na in [1, 7, 8, 9, 31, 32, 33, 65] {
                            for other in [1, 7, 8, 9, 63, 64, 65, 130] {
                                count += 1;
                                let (m, n) = match side {
                                    Side::Left => (na, other),
                                    Side::Right => (other, na),
                                };
                                let (lda, ldb) = (na + count % 3, m + count % 2);
                                let mut rng = seeded_rng(count as u64);
                                let mut a = padded_mat::<T>(&mut rng, na, na, lda);
                                for j in 0..na {
                                    a[j + j * lda] = T::from_f64(2.0) + a[j + j * lda].abs();
                                    for i in (0..na).filter(|&i| i != j) {
                                        match (i + 3 * j + count) % 11 {
                                            0 => a[i + j * lda] = T::ZERO,
                                            1 => a[i + j * lda] = -T::ZERO,
                                            _ => {}
                                        }
                                    }
                                }
                                let mut b0 = padded_mat::<T>(&mut rng, m, n, ldb);
                                for (i, v) in b0.iter_mut().enumerate() {
                                    if (i + count).is_multiple_of(13) {
                                        *v = -T::ZERO;
                                    }
                                }
                                let alpha = T::from_f64([1.0, -1.0, 0.5, 0.0][count % 4]);
                                let solve = |f: fn(
                                    Side,
                                    Uplo,
                                    Trans,
                                    Diag,
                                    T,
                                    MatRef<'_, T>,
                                    MatMut<'_, T>,
                                )| {
                                    let mut b = b0.clone();
                                    f(
                                        side,
                                        uplo,
                                        trans,
                                        diag,
                                        alpha,
                                        MatRef::from_slice(&a, na, na, lda),
                                        MatMut::from_slice(&mut b, m, n, ldb),
                                    );
                                    b.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>()
                                };
                                assert_eq!(
                                    solve(trsm),
                                    solve(trsm_columns_oracle),
                                    "trsm<{}> {side:?} {uplo:?} {trans:?} {diag:?} m={m} n={n}",
                                    T::PREFIX
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    run::<f64>();
    run::<f32>();
}
