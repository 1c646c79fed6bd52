//! Residual-based verification of factorizations.
//!
//! Each checker reconstructs the original matrix from its factors and
//! returns a scaled residual (`‖A − reconstruction‖_F / (n·‖A‖_F)`); a
//! correctly implemented factorization keeps this within a small multiple
//! of machine epsilon. Tests assert against [`residual_tol`].

use crate::matrix::{MatRef, Uplo};
use crate::naive;
use crate::scalar::Scalar;

/// Frobenius norm of a packed column-major buffer.
pub fn fro_norm_slice<T: Scalar>(a: &[T]) -> f64 {
    a.iter()
        .map(|v| v.to_f64() * v.to_f64())
        .sum::<f64>()
        .sqrt()
}

/// Frobenius norm of a view.
pub(crate) fn fro_norm<T: Scalar>(a: MatRef<'_, T>) -> f64 {
    let mut acc = 0.0;
    for j in 0..a.ncols() {
        for i in 0..a.nrows() {
            let v = a.get(i, j).to_f64();
            acc += v * v;
        }
    }
    acc.sqrt()
}

/// Maximum absolute element-wise difference of two equal-length buffers.
///
/// # Panics
/// If lengths differ.
pub fn max_abs_diff_slices<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
        .fold(0.0, f64::max)
}

/// Tolerance for a scaled residual of an order-`n` factorization in
/// precision `T`: `30·ε` with a floor that keeps tiny matrices from
/// producing vacuous bounds.
pub fn residual_tol<T: Scalar>(n: usize) -> f64 {
    let _ = n;
    30.0 * T::EPSILON.to_f64()
}

/// Scaled Cholesky residual `‖A − L·Lᵀ‖_F / (n·‖A‖_F)` (or `Uᵀ·U`).
///
/// `factored` holds the factor in its `uplo` triangle (other triangle
/// arbitrary); `original` is the matrix that was factorized. Both are
/// views of order `n` (leading dimensions may differ).
pub fn chol_residual<T: Scalar>(
    uplo: Uplo,
    factored: MatRef<'_, T>,
    original: MatRef<'_, T>,
) -> f64 {
    let n = factored.nrows();
    assert_eq!(factored.ncols(), n);
    assert_eq!(original.nrows(), n);
    assert_eq!(original.ncols(), n);
    if n == 0 {
        return 0.0;
    }
    let packed = factored.to_vec();
    let rec = match uplo {
        Uplo::Lower => naive::llt_ref(&packed, n, n),
        Uplo::Upper => naive::utu_ref(&packed, n, n),
    };
    let mut num = 0.0;
    for j in 0..n {
        for i in 0..n {
            let d = original.get(i, j).to_f64() - rec[i + j * n].to_f64();
            num += d * d;
        }
    }
    let denom = (n as f64) * fro_norm(original).max(f64::MIN_POSITIVE);
    num.sqrt() / denom
}

/// Scaled LU residual `‖P·A − L·U‖_F / (max(m,n)·‖A‖_F)`.
///
/// `factored` holds the in-place LU, `ipiv` the zero-based pivot rows in
/// `laswp` forward order, `original` the input matrix.
pub fn lu_residual<T: Scalar>(
    factored: MatRef<'_, T>,
    ipiv: &[usize],
    original: MatRef<'_, T>,
) -> f64 {
    let m = factored.nrows();
    let n = factored.ncols();
    assert_eq!(original.nrows(), m);
    assert_eq!(original.ncols(), n);
    if m == 0 || n == 0 {
        return 0.0;
    }
    let lu = naive::lu_ref(&factored.to_vec(), m, n, m);
    let pa = naive::permute_rows_ref(&original.to_vec(), m, n, ipiv);
    let mut num = 0.0;
    for idx in 0..m * n {
        let d = pa[idx].to_f64() - lu[idx].to_f64();
        num += d * d;
    }
    let denom = (m.max(n) as f64) * fro_norm(original).max(f64::MIN_POSITIVE);
    num.sqrt() / denom
}

/// Scaled QR residual `‖A − Q·R‖_F / (max(m,n)·‖A‖_F)` plus the
/// orthogonality defect `‖QᵀQ − I‖_F / k`, returned as
/// `(factor_residual, orthogonality)`.
///
/// `factored` holds the in-place Householder QR (R in the upper triangle,
/// reflectors below), `tau` the `min(m,n)` Householder scalars.
pub fn qr_residual<T: Scalar>(
    factored: MatRef<'_, T>,
    tau: &[T],
    original: MatRef<'_, T>,
) -> (f64, f64) {
    let m = factored.nrows();
    let n = factored.ncols();
    let k = m.min(n);
    assert_eq!(tau.len(), k);
    if m == 0 || n == 0 {
        return (0.0, 0.0);
    }

    // Build Q (m × m) explicitly by applying reflectors to the identity:
    // Q = H_0 · H_1 ⋯ H_{k−1}.
    let mut q = vec![T::ZERO; m * m];
    for i in 0..m {
        q[i + i * m] = T::ONE;
    }
    for j in (0..k).rev() {
        // v = [zeros(j); 1; A(j+1.., j)]
        let mut v = vec![T::ZERO; m];
        v[j] = T::ONE;
        for (i, vi) in v.iter_mut().enumerate().skip(j + 1) {
            *vi = factored.get(i, j);
        }
        // Q = (I − τ v vᵀ) Q  → for each column c: Q(:,c) −= τ v (vᵀ Q(:,c))
        for c in 0..m {
            let mut dot = T::ZERO;
            for i in j..m {
                dot += v[i] * q[i + c * m];
            }
            let t = tau[j] * dot;
            for i in j..m {
                let cur = q[i + c * m];
                q[i + c * m] = cur - v[i] * t;
            }
        }
    }

    // R: upper triangle (k × n padded to m rows with zeros).
    let mut r = vec![T::ZERO; m * n];
    for j in 0..n {
        for i in 0..=j.min(m - 1) {
            r[i + j * m] = factored.get(i, j);
        }
    }

    // ‖A − Q·R‖.
    let mut num = 0.0;
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for l in 0..m {
                acc += q[i + l * m].to_f64() * r[l + j * m].to_f64();
            }
            let d = original.get(i, j).to_f64() - acc;
            num += d * d;
        }
    }
    let denom = (m.max(n) as f64) * fro_norm(original).max(f64::MIN_POSITIVE);
    let fact_res = num.sqrt() / denom;

    // ‖QᵀQ − I‖ / m.
    let mut orth = 0.0;
    for j in 0..m {
        for i in 0..m {
            let mut acc = 0.0;
            for l in 0..m {
                acc += q[l + i * m].to_f64() * q[l + j * m].to_f64();
            }
            let d = acc - if i == j { 1.0 } else { 0.0 };
            orth += d * d;
        }
    }
    (fact_res, orth.sqrt() / m as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatRef;

    #[test]
    fn norms_and_diffs() {
        let a = [3.0f64, 4.0];
        assert!((fro_norm_slice(&a) - 5.0).abs() < 1e-15);
        let b = [3.0f64, 6.0];
        assert_eq!(max_abs_diff_slices(&a, &b), 2.0);
        let v = MatRef::from_slice(&a, 2, 1, 2);
        assert!((fro_norm(v) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn chol_residual_zero_for_exact_factor() {
        // A = L·Lᵀ with L = [[2,0],[1,1]] → A = [[4,2],[2,2]].
        let l = [2.0f64, 1.0, 99.0, 1.0]; // upper garbage ignored
        let a = [4.0f64, 2.0, 2.0, 2.0];
        let r = chol_residual(
            Uplo::Lower,
            MatRef::from_slice(&l, 2, 2, 2),
            MatRef::from_slice(&a, 2, 2, 2),
        );
        assert!(r < 1e-15, "residual {r}");
    }

    #[test]
    fn chol_residual_detects_corruption() {
        let l = [2.0f64, 1.0, 0.0, 1.0];
        let mut a = [4.0f64, 2.0, 2.0, 2.0];
        a[0] = 10.0;
        let r = chol_residual(
            Uplo::Lower,
            MatRef::from_slice(&l, 2, 2, 2),
            MatRef::from_slice(&a, 2, 2, 2),
        );
        assert!(r > 0.1, "residual {r} should be large");
    }

    #[test]
    fn residual_tol_scales_with_precision() {
        assert!(residual_tol::<f32>(64) > residual_tol::<f64>(64));
    }
}
