//! One-sided factorizations, triangular inversion, and solves.
//!
//! These are the LAPACK-style routines the vbatched framework builds on:
//! `potf2` is the tile factorization the fused kernel embeds, `trtri`
//! feeds the inverted-diagonal-block `trsm` design, and the blocked
//! drivers (`potrf_blocked`, `getrf`, `geqrf`) serve both as CPU
//! baselines and as single-matrix references for the batched results.

use crate::error::{Error, Result};
use crate::level3::{axpy, dot, gemm, syrk, tri_split, trmm, trsm};
use crate::matrix::{Diag, MatMut, MatRef, Side, Trans, Uplo};
use crate::scalar::Scalar;

/// Unblocked Cholesky factorization of the `uplo` triangle of `a`
/// (LAPACK `xPOTF2`): `A = L·Lᵀ` or `A = Uᵀ·U`, in place.
///
/// # Errors
/// [`Error::NotPositiveDefinite`] with the breakdown column if a pivot is
/// non-positive or non-finite; entries before that column are already
/// factored, as in LAPACK.
pub fn potf2<T: Scalar>(uplo: Uplo, mut a: MatMut<'_, T>) -> Result<()> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "potf2: matrix must be square");
    if uplo == Uplo::Lower && n <= POTF2_TILE_MAX && n > 1 && a.ld() > n {
        return potf2_tile_lower(a, n);
    }
    match uplo {
        Uplo::Lower => {
            // Left-looking by column: the trailing update of column j is
            // a sequence of column axpys `A(j+1.., j) −= A(j,l)·A(j+1.., l)`
            // over contiguous slices.
            for j in 0..n {
                let mut ajj = a.get(j, j);
                for l in 0..j {
                    let v = a.get(j, l);
                    ajj -= v * v;
                }
                if ajj <= T::ZERO || !ajj.is_finite() {
                    return Err(Error::NotPositiveDefinite { column: j });
                }
                let ajj = ajj.sqrt();
                a.set(j, j, ajj);
                if j + 1 == n {
                    continue;
                }
                for l in 0..j {
                    let w = a.get(j, l);
                    if w != T::ZERO {
                        let (dst, src) = a.col_pair_mut(j, l);
                        axpy(&mut dst[j + 1..], &src[j + 1..], -w);
                    }
                }
                for v in &mut a.col_as_mut_slice(j)[j + 1..] {
                    *v /= ajj;
                }
            }
        }
        Uplo::Upper => {
            // Column j's factored prefix is contiguous, so both the pivot
            // and the row-j update reduce to slice dot products.
            for j in 0..n {
                let ajj = {
                    let cj = a.col_as_slice(j);
                    a.get(j, j) - dot(&cj[..j], &cj[..j])
                };
                if ajj <= T::ZERO || !ajj.is_finite() {
                    return Err(Error::NotPositiveDefinite { column: j });
                }
                let ajj = ajj.sqrt();
                a.set(j, j, ajj);
                for i in j + 1..n {
                    let (ci, cj) = a.col_pair_mut(i, j);
                    ci[j] = (ci[j] - dot(&ci[..j], &cj[..j])) / ajj;
                }
            }
        }
    }
    Ok(())
}

/// Tiles at or below this order take the stack-buffer fast path in
/// [`potf2`] (Lower only): the triangle is copied into a dense local
/// tile so the whole factorization runs on one compact buffer instead
/// of strided columns of a much larger matrix.
const POTF2_TILE_MAX: usize = 32;

/// Lower `potf2` on a compact stack copy of the tile. The operation
/// order is identical to the in-place path, so the results are
/// bit-identical, including partial factorization up to a breakdown
/// column.
fn potf2_tile_lower<T: Scalar>(mut a: MatMut<'_, T>, n: usize) -> Result<()> {
    let mut buf = [T::ZERO; POTF2_TILE_MAX * POTF2_TILE_MAX];
    let tile = &mut buf[..n * n];
    for j in 0..n {
        tile[j * n + j..j * n + n].copy_from_slice(&a.col_as_mut_slice(j)[j..n]);
    }
    let store = |a: &mut MatMut<'_, T>, tile: &[T]| {
        for j in 0..n {
            a.col_as_mut_slice(j)[j..n].copy_from_slice(&tile[j * n + j..j * n + n]);
        }
    };
    for j in 0..n {
        let mut ajj = tile[j * n + j];
        for l in 0..j {
            let v = tile[l * n + j];
            ajj -= v * v;
        }
        if ajj <= T::ZERO || !ajj.is_finite() {
            store(&mut a, tile);
            return Err(Error::NotPositiveDefinite { column: j });
        }
        let ajj = ajj.sqrt();
        tile[j * n + j] = ajj;
        if j + 1 == n {
            continue;
        }
        for l in 0..j {
            let w = tile[l * n + j];
            if w != T::ZERO {
                let (head, rest) = tile.split_at_mut(j * n);
                let src = &head[l * n + j + 1..l * n + n];
                axpy(&mut rest[j + 1..n], src, -w);
            }
        }
        for v in &mut tile[j * n + j + 1..j * n + n] {
            *v /= ajj;
        }
    }
    store(&mut a, tile);
    Ok(())
}

/// Blocked right-looking Cholesky factorization (LAPACK `xPOTRF`) with
/// block size `nb`, in place.
///
/// # Errors
/// [`Error::NotPositiveDefinite`] with the *global* breakdown column.
pub fn potrf_blocked<T: Scalar>(uplo: Uplo, mut a: MatMut<'_, T>, nb: usize) -> Result<()> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "potrf: matrix must be square");
    assert!(nb > 0, "potrf: nb must be positive");
    let mut j = 0;
    while j < n {
        let jb = nb.min(n - j);
        // Factorize the diagonal tile.
        potf2(uplo, a.rb().sub(j, j, jb, jb)).map_err(|e| match e {
            Error::NotPositiveDefinite { column } => {
                Error::NotPositiveDefinite { column: j + column }
            }
            other => other,
        })?;
        let rest = n - j - jb;
        if rest > 0 {
            match uplo {
                Uplo::Lower => {
                    // Panel: A21 ← A21 · L11⁻ᵀ.
                    let l11 = a.alias_ref().sub(j, j, jb, jb);
                    trsm(
                        Side::Right,
                        Uplo::Lower,
                        Trans::Trans,
                        Diag::NonUnit,
                        T::ONE,
                        l11,
                        a.rb().sub(j + jb, j, rest, jb),
                    );
                    // Trailing update: A22 ← A22 − A21·A21ᵀ.
                    let a21 = a.alias_ref().sub(j + jb, j, rest, jb);
                    syrk(
                        Uplo::Lower,
                        Trans::NoTrans,
                        -T::ONE,
                        a21,
                        T::ONE,
                        a.rb().sub(j + jb, j + jb, rest, rest),
                    );
                }
                Uplo::Upper => {
                    let u11 = a.alias_ref().sub(j, j, jb, jb);
                    trsm(
                        Side::Left,
                        Uplo::Upper,
                        Trans::Trans,
                        Diag::NonUnit,
                        T::ONE,
                        u11,
                        a.rb().sub(j, j + jb, jb, rest),
                    );
                    let a12 = a.alias_ref().sub(j, j + jb, jb, rest);
                    syrk(
                        Uplo::Upper,
                        Trans::Trans,
                        -T::ONE,
                        a12,
                        T::ONE,
                        a.rb().sub(j + jb, j + jb, rest, rest),
                    );
                }
            }
        }
        j += jb;
    }
    Ok(())
}

/// Order at or below which [`trtri`] inverts column by column instead of
/// splitting: the two [`trmm`] products of a split only repay their
/// set-up once the off-diagonal block is at least this tall.
const TRTRI_NB: usize = 16;

/// In-place inversion of a triangular matrix (LAPACK `xTRTRI`).
///
/// This is the primitive the paper's vbatched `trsm` uses on the
/// diagonal blocks before replacing substitution with `gemm`.
/// Recursive: the triangle splits 2×2 (at `tri_split`, a function of
/// the order only), both diagonal blocks are inverted, and the
/// off-diagonal block becomes `A21 ← −A22⁻¹·A21·A11⁻¹` by two [`trmm`]
/// calls, so nearly all the work runs in the level-3 engine. Blocks of
/// order at most `TRTRI_NB` are inverted one column at a time
/// (`xTRTI2`) with contiguous-column `axpy`s.
///
/// Only the `uplo` triangle is read or written — never the opposite
/// triangle and, under [`Diag::Unit`], never the diagonal.
///
/// # Errors
/// [`Error::Singular`] with the first zero diagonal entry (`NonUnit`
/// only), reported before anything is written.
pub fn trtri<T: Scalar>(uplo: Uplo, diag: Diag, a: MatMut<'_, T>) -> Result<()> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "trtri: matrix must be square");
    if diag == Diag::NonUnit {
        if let Some(j) = (0..n).find(|&j| a.get(j, j) == T::ZERO) {
            return Err(Error::Singular { column: j });
        }
    }
    trtri_rec(uplo, diag, a);
    Ok(())
}

/// Recursive inversion of a triangle whose diagonal is known nonzero.
fn trtri_rec<T: Scalar>(uplo: Uplo, diag: Diag, mut a: MatMut<'_, T>) {
    let n = a.nrows();
    if n <= TRTRI_NB {
        trti2(uplo, diag, a);
        return;
    }
    let n1 = tri_split(n);
    let n2 = n - n1;
    trtri_rec(uplo, diag, a.rb().sub(0, 0, n1, n1));
    trtri_rec(uplo, diag, a.rb().sub(n1, n1, n2, n2));
    let inv11 = a.alias_ref().sub(0, 0, n1, n1);
    let inv22 = a.alias_ref().sub(n1, n1, n2, n2);
    let neg = -T::ONE;
    match uplo {
        Uplo::Lower => {
            let mut a21 = a.sub(n1, 0, n2, n1);
            trmm(
                Side::Right,
                uplo,
                Trans::NoTrans,
                diag,
                neg,
                inv11,
                a21.rb(),
            );
            trmm(Side::Left, uplo, Trans::NoTrans, diag, T::ONE, inv22, a21);
        }
        Uplo::Upper => {
            let mut a12 = a.sub(0, n1, n1, n2);
            trmm(Side::Left, uplo, Trans::NoTrans, diag, neg, inv11, a12.rb());
            trmm(Side::Right, uplo, Trans::NoTrans, diag, T::ONE, inv22, a12);
        }
    }
}

/// Unblocked inversion (LAPACK `xTRTI2`): with the neighbouring
/// triangle `T` already inverted, column `j` of the inverse is
/// `−T⁻¹·A(:,j)/A(j,j)` — an in-place triangular matrix-vector product
/// run as [`axpy`]s of `T⁻¹`'s contiguous columns into column `j`.
fn trti2<T: Scalar>(uplo: Uplo, diag: Diag, mut a: MatMut<'_, T>) {
    let n = a.nrows();
    for jj in 0..n {
        // Lower walks up from the last column and Upper down from the
        // first, so the inverted triangle (rows and columns `done`)
        // always borders column j.
        let (j, done) = match uplo {
            Uplo::Lower => (n - 1 - jj, n - jj..n),
            Uplo::Upper => (jj, 0..jj),
        };
        let scale = match diag {
            Diag::NonUnit => {
                let inv = T::ONE / a.get(j, j);
                a.set(j, j, inv);
                -inv
            }
            Diag::Unit => -T::ONE,
        };
        // x ← scale·T⁻¹·x: each x(l) is consumed, then replaced by its
        // own diagonal term, before any axpy could have written it.
        for ll in 0..done.len() {
            let (l, rest) = match uplo {
                Uplo::Lower => (n - 1 - ll, n - ll..n),
                Uplo::Upper => (ll, 0..ll),
            };
            let (x, t) = a.col_pair_mut(j, l);
            let xl = x[l];
            x[l] = match diag {
                Diag::NonUnit => scale * t[l] * xl,
                Diag::Unit => scale * xl,
            };
            axpy(&mut x[rest.clone()], &t[rest], scale * xl);
        }
    }
}

/// Triangular-factor product (LAPACK `xLAUU2`): overwrites the `uplo`
/// triangle of `a` with `Lᵀ·L` (Lower) or `U·Uᵀ` (Upper). Combined with
/// [`trtri`], this yields the SPD inverse from a Cholesky factor
/// (`xPOTRI`): `A⁻¹ = L⁻ᵀ·L⁻¹ = lauum(trtri(L))`.
pub fn lauum<T: Scalar>(uplo: Uplo, mut a: MatMut<'_, T>) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "lauum: matrix must be square");
    match uplo {
        Uplo::Lower => {
            // Row i of the result uses rows i.. of the original factor;
            // ascending order keeps them intact until consumed.
            for i in 0..n {
                let aii = a.get(i, i);
                // Row update: a(i, 0..i) = aii·a(i, 0..i) + a(i+1.., 0..i)ᵀ·a(i+1.., i).
                for j in 0..i {
                    let mut acc = aii * a.get(i, j);
                    for l in i + 1..n {
                        acc += a.get(l, i) * a.get(l, j);
                    }
                    a.set(i, j, acc);
                }
                // Diagonal: a(i,i) = aii² + ‖a(i+1.., i)‖².
                let mut d = aii * aii;
                for l in i + 1..n {
                    let v = a.get(l, i);
                    d += v * v;
                }
                a.set(i, i, d);
            }
        }
        Uplo::Upper => {
            for i in 0..n {
                let aii = a.get(i, i);
                for j in 0..i {
                    let mut acc = aii * a.get(j, i);
                    for l in i + 1..n {
                        acc += a.get(i, l) * a.get(j, l);
                    }
                    a.set(j, i, acc);
                }
                let mut d = aii * aii;
                for l in i + 1..n {
                    let v = a.get(i, l);
                    d += v * v;
                }
                a.set(i, i, d);
            }
        }
    }
}

/// SPD inverse from a Cholesky factor (LAPACK `xPOTRI`): triangular
/// inversion followed by [`lauum`]; the `uplo` triangle of `a` receives
/// the corresponding triangle of `A⁻¹`.
///
/// # Errors
/// [`Error::Singular`] from the triangular inversion.
pub fn potri<T: Scalar>(uplo: Uplo, mut a: MatMut<'_, T>) -> Result<()> {
    trtri(uplo, Diag::NonUnit, a.rb())?;
    lauum(uplo, a);
    Ok(())
}

/// Unblocked LU factorization with partial pivoting (LAPACK `xGETF2`),
/// in place. `ipiv[i]` receives the zero-based row swapped with row `i`.
///
/// # Errors
/// [`Error::Singular`] if a pivot column is exactly zero; the
/// factorization up to that column is still valid, as in LAPACK.
pub fn getf2<T: Scalar>(mut a: MatMut<'_, T>, ipiv: &mut [usize]) -> Result<()> {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    assert!(ipiv.len() >= k, "getf2: ipiv too short");
    let mut first_zero: Option<usize> = None;
    for (j, piv) in ipiv.iter_mut().enumerate().take(k) {
        // Pivot search in column j, rows j..m.
        let mut p = j;
        let mut best = a.get(j, j).abs();
        for i in j + 1..m {
            let v = a.get(i, j).abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        *piv = p;
        if best == T::ZERO {
            if first_zero.is_none() {
                first_zero = Some(j);
            }
            continue;
        }
        if p != j {
            for c in 0..n {
                let t = a.get(j, c);
                a.set(j, c, a.get(p, c));
                a.set(p, c, t);
            }
        }
        let pivot = a.get(j, j);
        for i in j + 1..m {
            let v = a.get(i, j) / pivot;
            a.set(i, j, v);
        }
        // Rank-1 update of the trailing matrix.
        for c in j + 1..n {
            let ajc = a.get(j, c);
            if ajc == T::ZERO {
                continue;
            }
            for i in j + 1..m {
                let v = a.get(i, c) - a.get(i, j) * ajc;
                a.set(i, c, v);
            }
        }
    }
    match first_zero {
        Some(j) => Err(Error::Singular { column: j }),
        None => Ok(()),
    }
}

/// Applies a sequence of row interchanges (LAPACK `xLASWP`, forward
/// order): for `i` in `k1..k2`, swap rows `i` and `ipiv[i]` of `a`.
pub fn laswp<T: Scalar>(mut a: MatMut<'_, T>, k1: usize, k2: usize, ipiv: &[usize]) {
    let n = a.ncols();
    for (i, &p) in ipiv.iter().enumerate().take(k2).skip(k1) {
        if p != i {
            for j in 0..n {
                let t = a.get(i, j);
                a.set(i, j, a.get(p, j));
                a.set(p, j, t);
            }
        }
    }
}

/// Blocked LU factorization with partial pivoting (LAPACK `xGETRF`),
/// in place, with block size `nb`.
///
/// # Errors
/// [`Error::Singular`] with the global column of the first zero pivot.
pub fn getrf<T: Scalar>(mut a: MatMut<'_, T>, ipiv: &mut [usize], nb: usize) -> Result<()> {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    assert!(ipiv.len() >= k, "getrf: ipiv too short");
    assert!(nb > 0, "getrf: nb must be positive");
    let mut first_err: Option<usize> = None;
    let mut j = 0;
    while j < k {
        let jb = nb.min(k - j);
        // Factor the panel A[j:m, j:j+jb] with local pivoting.
        let panel_rows = m - j;
        match getf2(a.rb().sub(j, j, panel_rows, jb), &mut ipiv[j..j + jb]) {
            Ok(()) => {}
            Err(Error::Singular { column }) => {
                if first_err.is_none() {
                    first_err = Some(j + column);
                }
            }
            Err(e) => return Err(e),
        }
        // Globalize pivot indices and apply the swaps to the columns
        // outside the panel.
        for p in &mut ipiv[j..j + jb] {
            *p += j;
        }
        if j > 0 {
            laswp(a.rb().sub(0, 0, m, j), j, j + jb, ipiv);
        }
        if j + jb < n {
            laswp(a.rb().sub(0, j + jb, m, n - j - jb), j, j + jb, ipiv);
            // U12 ← L11⁻¹·A12.
            let l11 = a.alias_ref().sub(j, j, jb, jb);
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::Unit,
                T::ONE,
                l11,
                a.rb().sub(j, j + jb, jb, n - j - jb),
            );
            // A22 ← A22 − L21·U12.
            if j + jb < m {
                let l21 = a.alias_ref().sub(j + jb, j, m - j - jb, jb);
                let u12 = a.alias_ref().sub(j, j + jb, jb, n - j - jb);
                gemm(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    -T::ONE,
                    l21,
                    u12,
                    T::ONE,
                    a.rb().sub(j + jb, j + jb, m - j - jb, n - j - jb),
                );
            }
        }
        j += jb;
    }
    match first_err {
        Some(c) => Err(Error::Singular { column: c }),
        None => Ok(()),
    }
}

/// Applies the elementary reflector `H = I − τ·v·vᵀ` from the left to
/// `c`, where `v = [1; v_tail]` (LAPACK `xLARF`, left, forward storage):
/// one column `dot` and one `axpy` per column of `c`.
pub fn larf_left<T: Scalar>(v_tail: MatRef<'_, T>, tau: T, mut c: MatMut<'_, T>) {
    let m = c.nrows();
    debug_assert_eq!(v_tail.nrows() + 1, m, "larf: v length mismatch");
    if tau == T::ZERO || m == 0 {
        return;
    }
    let v = v_tail.col_as_slice(0);
    for j in 0..c.ncols() {
        let (c0, c_tail) = c
            .col_as_mut_slice(j)
            .split_first_mut()
            .expect("m > 0 checked above");
        let t = tau * (*c0 + dot(v, c_tail));
        *c0 -= t;
        axpy(c_tail, v, -t);
    }
}

/// Unblocked Householder QR factorization (LAPACK `xGEQR2`), in place:
/// `R` lands in the upper triangle, the reflector tails below the
/// diagonal, with scalars in `tau` (length `min(m,n)`).
pub fn geqr2<T: Scalar>(mut a: MatMut<'_, T>, tau: &mut [T]) {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    assert!(tau.len() >= k, "geqr2: tau too short");
    for (j, tau_j) in tau.iter_mut().enumerate().take(k) {
        // Generate the reflector for column j (LAPACK xLARFG).
        let (alpha, x) = a.col_as_mut_slice(j)[j..]
            .split_first_mut()
            .expect("j < m inside the first min(m,n) columns");
        let xnorm2 = dot(x, x);
        if xnorm2 == T::ZERO {
            *tau_j = T::ZERO;
        } else {
            let norm = (*alpha * *alpha + xnorm2).sqrt();
            let beta = if *alpha >= T::ZERO { -norm } else { norm };
            *tau_j = (beta - *alpha) / beta;
            let scale = T::ONE / (*alpha - beta);
            for v in x {
                *v *= scale;
            }
            *alpha = beta;
        }
        // Apply H_j to the trailing columns A[j:m, j+1:n].
        if j + 1 < n && *tau_j != T::ZERO {
            let v_tail = a.alias_ref().sub(j + 1, j, m - j - 1, 1);
            let trailing = a.rb().sub(j, j + 1, m - j, n - j - 1);
            larf_left(v_tail, *tau_j, trailing);
        }
    }
}

/// Forms the upper-triangular block-reflector factor `T` (LAPACK
/// `xLARFT`, forward columnwise) for the `jb` reflectors stored
/// unit-lower in `v` (`rows × jb`), writing all of the `jb × jb` view
/// `t` (zeros below the diagonal).
pub fn larft<T: Scalar>(v: MatRef<'_, T>, tau: &[T], mut t: MatMut<'_, T>) {
    let jb = v.ncols();
    assert!(tau.len() >= jb, "larft: tau too short");
    assert_eq!((t.nrows(), t.ncols()), (jb, jb), "larft: T must be jb x jb");
    for c in 0..jb {
        let tc = tau[c];
        let (above, rest) = t.col_as_mut_slice(c).split_at_mut(c);
        rest.fill(T::ZERO);
        rest[0] = tc;
        if tc == T::ZERO {
            above.fill(T::ZERO);
            continue;
        }
        // t(0..c, c) = −τ_c · T(0..c,0..c) · (Vᵀ·v_c)(0..c), where
        // (Vᵀ·v_c)_p = V(c,p) + V(c+1.., p)ᵀ·V(c+1.., c): v_c is zero
        // above row c and carries an implicit 1 at row c.
        let vc = &v.col_as_slice(c)[c + 1..];
        for (p, w) in above.iter_mut().enumerate() {
            let vp = v.col_as_slice(p);
            *w = vp[c] + dot(&vp[c + 1..], vc);
        }
        let t_lead = t.alias_ref().sub(0, 0, c, c);
        trmm(
            Side::Left,
            Uplo::Upper,
            Trans::NoTrans,
            Diag::NonUnit,
            -tc,
            t_lead,
            t.rb().sub(0, c, c, 1),
        );
    }
}

/// Applies the transpose of the block reflector `(I − V·T·Vᵀ)` from the
/// left to `c` (LAPACK `xLARFB`, left, transpose, forward columnwise):
/// `C ← (I − V·Tᵀ·Vᵀ)·C`. `v` is the `rows × jb` unit-lower reflector
/// panel, `t` the `jb × jb` factor from [`larft`].
///
/// With `V = [V1; V2]` (`V1` the `jb × jb` unit-lower head) and
/// `C = [C1; C2]`, the `jb × cols` product `W = Tᵀ·Vᵀ·C` is staged in
/// [`Scalar::with_scratch`]; the two `V2` products are [`gemm`] calls
/// and carry nearly all the flops.
pub fn larfb_left_t<T: Scalar>(v: MatRef<'_, T>, t: MatRef<'_, T>, c: MatMut<'_, T>) {
    let jb = v.ncols();
    let cols = c.ncols();
    assert_eq!(c.nrows(), v.nrows(), "larfb: C row mismatch");
    assert!(v.nrows() >= jb, "larfb: V must have at least jb rows");
    if cols == 0 || jb == 0 {
        return;
    }
    let (v1, v2) = v.split_at_row(jb);
    let (mut c1, mut c2) = c.split_at_row(jb);
    T::with_scratch(jb * cols, |work| {
        let mut w = MatMut::from_slice(work, jb, cols, jb);
        w.copy_from(c1.as_ref());
        // W ← Tᵀ·(V1ᵀ·C1 + V2ᵀ·C2).
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::Trans,
            Diag::Unit,
            T::ONE,
            v1,
            w.rb(),
        );
        gemm(
            Trans::Trans,
            Trans::NoTrans,
            T::ONE,
            v2,
            c2.as_ref(),
            T::ONE,
            w.rb(),
        );
        trmm(
            Side::Left,
            Uplo::Upper,
            Trans::Trans,
            Diag::NonUnit,
            T::ONE,
            t,
            w.rb(),
        );
        // C2 ← C2 − V2·W, C1 ← C1 − V1·W.
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            -T::ONE,
            v2,
            w.as_ref(),
            T::ONE,
            c2.rb(),
        );
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            T::ONE,
            v1,
            w.rb(),
        );
        for j in 0..cols {
            axpy(c1.col_as_mut_slice(j), w.col_as_slice(j), -T::ONE);
        }
    });
}

/// Blocked Householder QR factorization (LAPACK `xGEQRF`): `geqr2` on
/// each `nb`-wide panel, then a [`larft`]/[`larfb_left_t`] compact-WY
/// update of the trailing matrix — the same structure the separated
/// vbatched QR uses on the simulated device.
pub fn geqrf<T: Scalar>(mut a: MatMut<'_, T>, tau: &mut [T], nb: usize) {
    let m = a.nrows();
    let n = a.ncols();
    let k = m.min(n);
    assert!(tau.len() >= k, "geqrf: tau too short");
    assert!(nb > 0, "geqrf: nb must be positive");
    let nb = nb.min(k);
    T::with_scratch(nb * nb, |t_work| {
        let mut j = 0;
        while j < k {
            let jb = nb.min(k - j);
            let rows = m - j;
            geqr2(a.rb().sub(j, j, rows, jb), &mut tau[j..j + jb]);
            let cols_right = n - j - jb;
            if cols_right > 0 {
                let v = a.alias_ref().sub(j, j, rows, jb); // unit-lower V in place
                let mut t = MatMut::from_slice(t_work, jb, jb, jb);
                larft(v, &tau[j..j + jb], t.rb());
                let c_view = a.rb().sub(j, j + jb, rows, cols_right);
                larfb_left_t(v, t.as_ref(), c_view);
            }
            j += jb;
        }
    });
}

/// Solves `A·X = B` after [`potf2`]/[`potrf_blocked`] (LAPACK `xPOTRS`):
/// two triangular solves against the stored factor.
pub fn potrs<T: Scalar>(uplo: Uplo, factor: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    match uplo {
        Uplo::Lower => {
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                T::ONE,
                factor,
                b.rb(),
            );
            trsm(
                Side::Left,
                Uplo::Lower,
                Trans::Trans,
                Diag::NonUnit,
                T::ONE,
                factor,
                b.rb(),
            );
        }
        Uplo::Upper => {
            trsm(
                Side::Left,
                Uplo::Upper,
                Trans::Trans,
                Diag::NonUnit,
                T::ONE,
                factor,
                b.rb(),
            );
            trsm(
                Side::Left,
                Uplo::Upper,
                Trans::NoTrans,
                Diag::NonUnit,
                T::ONE,
                factor,
                b.rb(),
            );
        }
    }
}

/// Solves `A·X = B` after [`getrf`] (LAPACK `xGETRS`, no transpose).
pub fn getrs<T: Scalar>(factor: MatRef<'_, T>, ipiv: &[usize], mut b: MatMut<'_, T>) {
    let n = factor.nrows();
    laswp(b.rb(), 0, n.min(ipiv.len()), ipiv);
    trsm(
        Side::Left,
        Uplo::Lower,
        Trans::NoTrans,
        Diag::Unit,
        T::ONE,
        factor,
        b.rb(),
    );
    trsm(
        Side::Left,
        Uplo::Upper,
        Trans::NoTrans,
        Diag::NonUnit,
        T::ONE,
        factor,
        b.rb(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{diag_dominant_vec, rand_mat, seeded_rng, spd_vec};
    use crate::naive;
    use crate::verify::{
        chol_residual, lu_residual, max_abs_diff_slices, qr_residual, residual_tol,
    };

    #[test]
    fn potf2_known_3x3() {
        // A = L L^T with L = [[2,0,0],[1,1,0],[0,3,1]].
        let mut a = vec![4.0f64, 2.0, 0.0, 2.0, 2.0, 3.0, 0.0, 3.0, 10.0];
        potf2(Uplo::Lower, MatMut::from_slice(&mut a, 3, 3, 3)).unwrap();
        let l = [2.0, 1.0, 0.0, 1.0, 3.0, 1.0];
        let got = [a[0], a[1], a[2], a[4], a[5], a[8]];
        for (g, w) in got.iter().zip(l.iter()) {
            assert!((g - w).abs() < 1e-14, "{got:?}");
        }
    }

    #[test]
    fn potf2_both_uplos_residual() {
        let mut rng = seeded_rng(21);
        for &n in &[1usize, 2, 5, 17, 33] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                let orig = spd_vec::<f64>(&mut rng, n);
                let mut a = orig.clone();
                potf2(uplo, MatMut::from_slice(&mut a, n, n, n)).unwrap();
                let r = chol_residual(
                    uplo,
                    MatRef::from_slice(&a, n, n, n),
                    MatRef::from_slice(&orig, n, n, n),
                );
                assert!(r < residual_tol::<f64>(n), "n={n} {uplo:?} residual {r}");
            }
        }
    }

    #[test]
    fn potf2_reports_breakdown_column() {
        // Indefinite matrix: fails at column 1.
        let mut a = vec![1.0f64, 2.0, 2.0, 1.0];
        let err = potf2(Uplo::Lower, MatMut::from_slice(&mut a, 2, 2, 2)).unwrap_err();
        assert_eq!(err, Error::NotPositiveDefinite { column: 1 });
        assert_eq!(err.info(), 2);
    }

    #[test]
    fn potrf_blocked_matches_potf2() {
        let mut rng = seeded_rng(22);
        for &n in &[4usize, 8, 13, 32, 70] {
            for &nb in &[2usize, 8, 100] {
                for &uplo in &[Uplo::Lower, Uplo::Upper] {
                    let orig = spd_vec::<f64>(&mut rng, n);
                    let mut b1 = orig.clone();
                    let mut b2 = orig.clone();
                    potf2(uplo, MatMut::from_slice(&mut b1, n, n, n)).unwrap();
                    potrf_blocked(uplo, MatMut::from_slice(&mut b2, n, n, n), nb).unwrap();
                    // Compare only the factored triangle.
                    for j in 0..n {
                        for i in 0..n {
                            let in_tri = match uplo {
                                Uplo::Lower => i >= j,
                                Uplo::Upper => i <= j,
                            };
                            if in_tri {
                                let d = (b1[i + j * n] - b2[i + j * n]).abs();
                                assert!(d < 1e-10, "n={n} nb={nb} ({i},{j}) diff {d}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn potrf_blocked_global_breakdown_column() {
        // SPD leading 4x4 but indefinite at global column 5.
        let mut rng = seeded_rng(23);
        let n = 8;
        let mut a = spd_vec::<f64>(&mut rng, n);
        // Make trailing part indefinite: huge negative diagonal.
        a[5 + 5 * n] = -1e6;
        let err = potrf_blocked(Uplo::Lower, MatMut::from_slice(&mut a, n, n, n), 3).unwrap_err();
        match err {
            Error::NotPositiveDefinite { column } => assert_eq!(column, 5),
            e => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn trtri_inverts_lower() {
        let mut rng = seeded_rng(24);
        for &n in &[1usize, 2, 7, 16, 31] {
            for &diag in &[Diag::NonUnit, Diag::Unit] {
                for &uplo in &[Uplo::Lower, Uplo::Upper] {
                    // Build a well-conditioned triangular matrix.
                    let mut t = rand_mat::<f64>(&mut rng, n * n);
                    for j in 0..n {
                        for i in 0..n {
                            let outside = match uplo {
                                Uplo::Lower => i < j,
                                Uplo::Upper => i > j,
                            };
                            if outside {
                                t[i + j * n] = 0.0;
                            }
                        }
                        t[j + j * n] = 2.0 + t[j + j * n].abs();
                    }
                    let mut inv = t.clone();
                    trtri(uplo, diag, MatMut::from_slice(&mut inv, n, n, n)).unwrap();
                    // T · T⁻¹ = I on the triangle (Unit: implicit ones).
                    let fix = |mut m: Vec<f64>| {
                        if diag == Diag::Unit {
                            for j in 0..n {
                                m[j + j * n] = 1.0;
                            }
                        }
                        m
                    };
                    let tt = fix(t.clone());
                    let ii = fix(inv.clone());
                    let prod = naive::gemm_ref(
                        Trans::NoTrans,
                        Trans::NoTrans,
                        1.0,
                        &tt,
                        n,
                        n,
                        &ii,
                        n,
                        n,
                        0.0,
                        &vec![0.0; n * n],
                        n,
                        n,
                    );
                    for j in 0..n {
                        for i in 0..n {
                            let want = if i == j { 1.0 } else { 0.0 };
                            assert!(
                                (prod[i + j * n] - want).abs() < 1e-10,
                                "{uplo:?} {diag:?} n={n} ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trtri_detects_singular() {
        let mut a = vec![1.0f64, 5.0, 0.0, 0.0];
        let err = trtri(
            Uplo::Lower,
            Diag::NonUnit,
            MatMut::from_slice(&mut a, 2, 2, 2),
        )
        .unwrap_err();
        assert_eq!(err, Error::Singular { column: 1 });
    }

    #[test]
    fn potri_inverts_spd() {
        let mut rng = seeded_rng(29);
        for &n in &[1usize, 2, 7, 20] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                let a = spd_vec::<f64>(&mut rng, n);
                let mut inv = a.clone();
                potf2(uplo, MatMut::from_slice(&mut inv, n, n, n)).unwrap();
                potri(uplo, MatMut::from_slice(&mut inv, n, n, n)).unwrap();
                // Symmetrize the stored triangle, then check A·A⁻¹ = I.
                let mut full = vec![0.0f64; n * n];
                for j in 0..n {
                    for i in 0..n {
                        let (r, c) = match uplo {
                            Uplo::Lower => (i.max(j), i.min(j)),
                            Uplo::Upper => (i.min(j), i.max(j)),
                        };
                        full[i + j * n] = inv[r + c * n];
                    }
                }
                let prod = naive::gemm_ref(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    1.0,
                    &a,
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
                    for i in 0..n {
                        let want = if i == j { 1.0 } else { 0.0 };
                        assert!(
                            (prod[i + j * n] - want).abs() < 1e-8,
                            "{uplo:?} n={n} at ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lauum_matches_explicit_product() {
        let mut rng = seeded_rng(30);
        let n = 9;
        // Lower: Lᵀ·L.
        let mut l = rand_mat::<f64>(&mut rng, n * n);
        for j in 0..n {
            for i in 0..j {
                l[i + j * n] = 0.0;
            }
        }
        let mut got = l.clone();
        lauum(Uplo::Lower, MatMut::from_slice(&mut got, n, n, n));
        let want = naive::gemm_ref(
            Trans::Trans,
            Trans::NoTrans,
            1.0,
            &l,
            n,
            n,
            &l,
            n,
            n,
            0.0,
            &vec![0.0; n * n],
            n,
            n,
        );
        for j in 0..n {
            for i in j..n {
                assert!(
                    (got[i + j * n] - want[i + j * n]).abs() < 1e-12,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn getf2_and_getrf_residual() {
        let mut rng = seeded_rng(25);
        for &(m, n) in &[(5usize, 5usize), (8, 5), (5, 8), (16, 16), (33, 29)] {
            let orig = rand_mat::<f64>(&mut rng, m * n);
            let k = m.min(n);

            let mut a1 = orig.clone();
            let mut p1 = vec![0usize; k];
            getf2(MatMut::from_slice(&mut a1, m, n, m), &mut p1).unwrap();
            let r1 = lu_residual(
                MatRef::from_slice(&a1, m, n, m),
                &p1,
                MatRef::from_slice(&orig, m, n, m),
            );
            assert!(
                r1 < residual_tol::<f64>(m.max(n)),
                "getf2 {m}x{n} residual {r1}"
            );

            let mut a2 = orig.clone();
            let mut p2 = vec![0usize; k];
            getrf(MatMut::from_slice(&mut a2, m, n, m), &mut p2, 4).unwrap();
            let r2 = lu_residual(
                MatRef::from_slice(&a2, m, n, m),
                &p2,
                MatRef::from_slice(&orig, m, n, m),
            );
            assert!(
                r2 < residual_tol::<f64>(m.max(n)),
                "getrf {m}x{n} residual {r2}"
            );
        }
    }

    #[test]
    fn getf2_flags_singular_column() {
        let mut a = vec![0.0f64; 9];
        // Column 0 all zeros ⇒ singular at column 0; rest arbitrary.
        a[3] = 1.0;
        a[7] = 1.0;
        a[2 + 2 * 3] = 1.0;
        let mut p = vec![0usize; 3];
        let err = getf2(MatMut::from_slice(&mut a, 3, 3, 3), &mut p).unwrap_err();
        assert_eq!(err, Error::Singular { column: 0 });
    }

    #[test]
    fn geqr2_and_geqrf_residuals() {
        let mut rng = seeded_rng(26);
        for &(m, n) in &[(5usize, 5usize), (12, 7), (7, 12), (24, 24), (40, 16)] {
            let orig = rand_mat::<f64>(&mut rng, m * n);
            let k = m.min(n);

            let mut a1 = orig.clone();
            let mut t1 = vec![0.0f64; k];
            geqr2(MatMut::from_slice(&mut a1, m, n, m), &mut t1);
            let (r, o) = qr_residual(
                MatRef::from_slice(&a1, m, n, m),
                &t1,
                MatRef::from_slice(&orig, m, n, m),
            );
            assert!(
                r < residual_tol::<f64>(m.max(n)),
                "geqr2 {m}x{n} residual {r}"
            );
            assert!(o < residual_tol::<f64>(m.max(n)), "geqr2 {m}x{n} orth {o}");

            let mut a2 = orig.clone();
            let mut t2 = vec![0.0f64; k];
            geqrf(MatMut::from_slice(&mut a2, m, n, m), &mut t2, 5);
            let (r, o) = qr_residual(
                MatRef::from_slice(&a2, m, n, m),
                &t2,
                MatRef::from_slice(&orig, m, n, m),
            );
            assert!(
                r < residual_tol::<f64>(m.max(n)),
                "geqrf {m}x{n} residual {r}"
            );
            assert!(o < residual_tol::<f64>(m.max(n)), "geqrf {m}x{n} orth {o}");

            // Blocked and unblocked must agree bitwise-closely on R.
            let mut max_d = 0.0f64;
            for j in 0..n {
                for i in 0..=j.min(m - 1) {
                    max_d = max_d.max((a1[i + j * m] - a2[i + j * m]).abs());
                }
            }
            assert!(max_d < 1e-10, "R mismatch {m}x{n}: {max_d}");
        }
    }

    #[test]
    fn potrs_solves() {
        let mut rng = seeded_rng(27);
        let n = 12;
        let nrhs = 3;
        let a = spd_vec::<f64>(&mut rng, n);
        let x_true = rand_mat::<f64>(&mut rng, n * nrhs);
        let b = naive::gemm_ref(
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            &a,
            n,
            n,
            &x_true,
            n,
            nrhs,
            0.0,
            &vec![0.0; n * nrhs],
            n,
            nrhs,
        );
        for &uplo in &[Uplo::Lower, Uplo::Upper] {
            let mut f = a.clone();
            potf2(uplo, MatMut::from_slice(&mut f, n, n, n)).unwrap();
            let mut x = b.clone();
            potrs(
                uplo,
                MatRef::from_slice(&f, n, n, n),
                MatMut::from_slice(&mut x, n, nrhs, n),
            );
            assert!(max_abs_diff_slices(&x, &x_true) < 1e-9, "{uplo:?}");
        }
    }

    #[test]
    fn getrs_solves() {
        let mut rng = seeded_rng(28);
        let n = 11;
        let nrhs = 2;
        let a = diag_dominant_vec::<f64>(&mut rng, n, n);
        let x_true = rand_mat::<f64>(&mut rng, n * nrhs);
        let b = naive::gemm_ref(
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            &a,
            n,
            n,
            &x_true,
            n,
            nrhs,
            0.0,
            &vec![0.0; n * nrhs],
            n,
            nrhs,
        );
        let mut f = a.clone();
        let mut p = vec![0usize; n];
        getrf(MatMut::from_slice(&mut f, n, n, n), &mut p, 4).unwrap();
        let mut x = b.clone();
        getrs(
            MatRef::from_slice(&f, n, n, n),
            &p,
            MatMut::from_slice(&mut x, n, nrhs, n),
        );
        assert!(max_abs_diff_slices(&x, &x_true) < 1e-9);
    }

    #[test]
    fn larf_identity_when_tau_zero() {
        let v = [0.5f64];
        let mut c = vec![1.0f64, 2.0];
        larf_left(
            MatRef::from_slice(&v, 1, 1, 1),
            0.0,
            MatMut::from_slice(&mut c, 2, 1, 2),
        );
        assert_eq!(c, vec![1.0, 2.0]);
    }
}
