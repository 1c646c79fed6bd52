//! Naive reference implementations used only for testing.
//!
//! Everything here trades speed for obviousness: triple loops over dense
//! `Vec`s with `ld == rows`. The optimized level-3 and factorization
//! kernels are validated against these in unit, property
//! and integration tests.

use crate::matrix::{Diag, Side, Trans, Uplo};
use crate::scalar::Scalar;

/// Reference `C = α·op(A)·op(B) + β·C` on packed column-major buffers
/// (`ld == rows`). Returns the result as a fresh vector.
#[allow(clippy::too_many_arguments)]
pub fn gemm_ref<T: Scalar>(
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: &[T],
    am: usize,
    an: usize,
    b: &[T],
    bm: usize,
    bn: usize,
    beta: T,
    c: &[T],
    m: usize,
    n: usize,
) -> Vec<T> {
    let k = if transa == Trans::NoTrans { an } else { am };
    let ga = |i: usize, j: usize| match transa {
        Trans::NoTrans => a[i + j * am],
        Trans::Trans => a[j + i * am],
    };
    let gb = |i: usize, j: usize| match transb {
        Trans::NoTrans => b[i + j * bm],
        Trans::Trans => b[j + i * bm],
    };
    let _ = (an, bn);
    let mut out = vec![T::ZERO; m * n];
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            for l in 0..k {
                acc += ga(i, l) * gb(l, j);
            }
            let base = if beta == T::ZERO {
                T::ZERO
            } else {
                beta * c[i + j * m]
            };
            out[i + j * m] = base + alpha * acc;
        }
    }
    out
}

/// Reference symmetric rank-k update on packed buffers: returns `C` with
/// the `uplo` triangle replaced by `α·A·Aᵀ + β·C` (`NoTrans`; `A` is
/// `n × k`) or `α·Aᵀ·A + β·C` (`Trans`; `A` is `k × n`), other triangle
/// untouched.
#[allow(clippy::too_many_arguments)]
pub fn syrk_ref<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: T,
    a: &[T],
    n: usize,
    k: usize,
    beta: T,
    c: &[T],
) -> Vec<T> {
    let ga = |i: usize, l: usize| match trans {
        Trans::NoTrans => a[i + l * n],
        Trans::Trans => a[l + i * k],
    };
    let mut out = c.to_vec();
    for j in 0..n {
        for i in 0..n {
            let in_tri = match uplo {
                Uplo::Lower => i >= j,
                Uplo::Upper => i <= j,
            };
            if !in_tri {
                continue;
            }
            let mut acc = T::ZERO;
            for l in 0..k {
                acc += ga(i, l) * ga(j, l);
            }
            let base = if beta == T::ZERO {
                T::ZERO
            } else {
                beta * c[i + j * n]
            };
            out[i + j * n] = base + alpha * acc;
        }
    }
    out
}

/// Element of a packed triangular `na × na` matrix under `uplo`, `diag`
/// and `trans`: entries outside the referenced triangle read as zero and
/// a `Unit` diagonal reads as one, matching what the optimized kernels
/// may legally touch.
fn tri_get<T: Scalar>(
    a: &[T],
    na: usize,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    i: usize,
    j: usize,
) -> T {
    let (r, c) = match transa {
        Trans::NoTrans => (i, j),
        Trans::Trans => (j, i),
    };
    if r == c {
        return match diag {
            Diag::Unit => T::ONE,
            Diag::NonUnit => a[r + c * na],
        };
    }
    let stored = match uplo {
        Uplo::Lower => r > c,
        Uplo::Upper => r < c,
    };
    if stored {
        a[r + c * na]
    } else {
        T::ZERO
    }
}

/// Reference triangular multiply on packed buffers: returns
/// `α·op(tri(A))·B` (`Side::Left`) or `α·B·op(tri(A))` (`Side::Right`)
/// for `m × n` `B` and `na × na` `A` (`na` = `m` or `n` per side).
#[allow(clippy::too_many_arguments)]
pub fn trmm_ref<T: Scalar>(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: T,
    a: &[T],
    b: &[T],
    m: usize,
    n: usize,
) -> Vec<T> {
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let mut out = vec![T::ZERO; m * n];
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            match side {
                Side::Left => {
                    for l in 0..m {
                        acc += tri_get(a, na, uplo, transa, diag, i, l) * b[l + j * m];
                    }
                }
                Side::Right => {
                    for l in 0..n {
                        acc += b[i + l * m] * tri_get(a, na, uplo, transa, diag, l, j);
                    }
                }
            }
            out[i + j * m] = alpha * acc;
        }
    }
    out
}

/// Reference triangular solve on packed buffers: returns `X` with
/// `op(tri(A))·X = α·B` (`Side::Left`) or `X·op(tri(A)) = α·B`
/// (`Side::Right`), by plain forward/backward substitution.
#[allow(clippy::too_many_arguments)]
pub fn trsm_ref<T: Scalar>(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: T,
    a: &[T],
    b: &[T],
    m: usize,
    n: usize,
) -> Vec<T> {
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let ga = |i: usize, j: usize| tri_get(a, na, uplo, transa, diag, i, j);
    let mut x: Vec<T> = b.iter().map(|&v| alpha * v).collect();
    match side {
        Side::Left => {
            // op(A) acts lower for Lower/NoTrans and Upper/Trans.
            let forward = matches!(
                (uplo, transa),
                (Uplo::Lower, Trans::NoTrans) | (Uplo::Upper, Trans::Trans)
            );
            let order: Vec<usize> = if forward {
                (0..m).collect()
            } else {
                (0..m).rev().collect()
            };
            for j in 0..n {
                for &i in &order {
                    let mut v = x[i + j * m];
                    for l in 0..m {
                        if l != i {
                            v -= ga(i, l) * x[l + j * m];
                        }
                    }
                    x[i + j * m] = v / ga(i, i);
                }
            }
        }
        Side::Right => {
            let forward = matches!(
                (uplo, transa),
                (Uplo::Upper, Trans::NoTrans) | (Uplo::Lower, Trans::Trans)
            );
            let order: Vec<usize> = if forward {
                (0..n).collect()
            } else {
                (0..n).rev().collect()
            };
            for &j in &order {
                for i in 0..m {
                    let mut v = x[i + j * m];
                    for l in 0..n {
                        if l != j {
                            v -= x[i + l * m] * ga(l, j);
                        }
                    }
                    x[i + j * m] = v / ga(j, j);
                }
            }
        }
    }
    x
}

/// Reference matrix–vector product `y = A·x` for packed column-major `A`.
pub fn matvec_ref<T: Scalar>(a: &[T], m: usize, n: usize, x: &[T]) -> Vec<T> {
    let mut y = vec![T::ZERO; m];
    for j in 0..n {
        for i in 0..m {
            y[i] += a[i + j * m] * x[j];
        }
    }
    y
}

/// Reconstructs `L·Lᵀ` from the lower triangle of a packed `n × n`
/// factored matrix (entries above the diagonal ignored).
pub(crate) fn llt_ref<T: Scalar>(l: &[T], n: usize, ld: usize) -> Vec<T> {
    let get = |i: usize, j: usize| if i >= j { l[i + j * ld] } else { T::ZERO };
    let mut out = vec![T::ZERO; n * n];
    for j in 0..n {
        for i in 0..n {
            let mut acc = T::ZERO;
            for p in 0..=i.min(j) {
                acc += get(i, p) * get(j, p);
            }
            out[i + j * n] = acc;
        }
    }
    out
}

/// Reconstructs `Uᵀ·U` from the upper triangle of a packed `n × n`
/// factored matrix.
pub(crate) fn utu_ref<T: Scalar>(u: &[T], n: usize, ld: usize) -> Vec<T> {
    let get = |i: usize, j: usize| if i <= j { u[i + j * ld] } else { T::ZERO };
    let mut out = vec![T::ZERO; n * n];
    for j in 0..n {
        for i in 0..n {
            let mut acc = T::ZERO;
            for p in 0..=i.min(j) {
                acc += get(p, i) * get(p, j);
            }
            out[i + j * n] = acc;
        }
    }
    out
}

/// Reconstructs `L·U` from a packed in-place LU factorization
/// (`L` unit-lower, `U` upper), `m × n`.
pub(crate) fn lu_ref<T: Scalar>(lu: &[T], m: usize, n: usize, ld: usize) -> Vec<T> {
    let k = m.min(n);
    let gl = |i: usize, j: usize| {
        if i == j {
            T::ONE
        } else if i > j {
            lu[i + j * ld]
        } else {
            T::ZERO
        }
    };
    let gu = |i: usize, j: usize| if i <= j { lu[i + j * ld] } else { T::ZERO };
    let mut out = vec![T::ZERO; m * n];
    for j in 0..n {
        for i in 0..m {
            let mut acc = T::ZERO;
            for p in 0..k.min(i + 1).min(j + 1) {
                acc += gl(i, p) * gu(p, j);
            }
            out[i + j * m] = acc;
        }
    }
    out
}

/// Applies the row permutation recorded by `getrf`-style pivots to a
/// packed matrix, producing `P·A` (forward order, as `laswp` would).
pub(crate) fn permute_rows_ref<T: Scalar>(a: &[T], m: usize, n: usize, ipiv: &[usize]) -> Vec<T> {
    let mut out = a.to_vec();
    for (i, &p) in ipiv.iter().enumerate() {
        if p != i {
            for j in 0..n {
                out.swap(i + j * m, p + j * m);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llt_of_identity() {
        let n = 3;
        let mut l = vec![0.0f64; 9];
        for i in 0..3 {
            l[i + i * 3] = 1.0;
        }
        let a = llt_ref(&l, n, n);
        for j in 0..3 {
            for i in 0..3 {
                assert_eq!(a[i + j * 3], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn lu_ref_unit_lower() {
        // LU with L = [[1,0],[2,1]], U = [[3,4],[0,5]] packed in place.
        let lu = vec![3.0f64, 2.0, 4.0, 5.0];
        let a = lu_ref(&lu, 2, 2, 2);
        assert_eq!(a, vec![3.0, 6.0, 4.0, 13.0]);
    }

    #[test]
    fn permute_rows_forward_order() {
        // ipiv = [1, 1]: swap rows (0,1) then nothing.
        let a = vec![1.0f64, 2.0, 3.0, 4.0]; // [[1,3],[2,4]]
        let p = permute_rows_ref(&a, 2, 2, &[1, 1]);
        assert_eq!(p, vec![2.0, 1.0, 4.0, 3.0]);
    }

    #[test]
    fn matvec_simple() {
        let a = vec![1.0f64, 0.0, 0.0, 1.0]; // identity
        assert_eq!(matvec_ref(&a, 2, 2, &[3.0, 4.0]), vec![3.0, 4.0]);
    }
}
