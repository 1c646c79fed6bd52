//! Seeded generators for test and benchmark matrices.
//!
//! Batched-computation papers generate their inputs synthetically; the
//! paper's SPD inputs for `xPOTRF` are standard diagonally-dominant
//! random matrices. Everything here is deterministic given the seed so
//! experiments are reproducible run to run.

use crate::matrix::MatMut;
use crate::scalar::Scalar;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the workspace-standard seeded RNG.
#[must_use]
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A vector of `len` uniform values in `[-1, 1]`.
pub fn rand_mat<T: Scalar>(rng: &mut impl Rng, len: usize) -> Vec<T> {
    (0..len)
        .map(|_| T::from_f64(rng.gen_range(-1.0..1.0)))
        .collect()
}

/// Fills the `n × n` view `a` with a random symmetric positive-definite
/// matrix: `A = R + Rᵀ` with the diagonal shifted by `n`, which makes it
/// strictly diagonally dominant and hence SPD with a modest condition
/// number — the standard construction for Cholesky benchmarks.
pub(crate) fn fill_spd<T: Scalar>(rng: &mut impl Rng, a: &mut MatMut<'_, T>) {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "SPD matrix must be square");
    for j in 0..n {
        for i in 0..=j {
            let v = T::from_f64(rng.gen_range(-1.0..1.0));
            a.set(i, j, v);
            a.set(j, i, v);
        }
    }
    let shift = T::from_f64(n as f64 + 1.0);
    for i in 0..n {
        let v = a.get(i, i).abs() + shift;
        a.set(i, i, v);
    }
}

/// Packed (ld = n) SPD matrix of order `n`.
pub fn spd_vec<T: Scalar>(rng: &mut impl Rng, n: usize) -> Vec<T> {
    let mut data = vec![T::ZERO; n * n];
    if n > 0 {
        let mut m = MatMut::from_slice(&mut data, n, n, n);
        fill_spd(rng, &mut m);
    }
    data
}

/// Packed general `m × n` matrix with entries in `[-1, 1]`; the diagonal
/// is shifted to keep LU without pivoting stable when `m == n`.
pub fn diag_dominant_vec<T: Scalar>(rng: &mut impl Rng, m: usize, n: usize) -> Vec<T> {
    let mut data: Vec<T> = rand_mat(rng, m * n);
    for i in 0..m.min(n) {
        let v = data[i + i * m].abs() + T::from_f64(n as f64);
        data[i + i * m] = v;
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatRef;

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = seeded_rng(42);
        let mut r2 = seeded_rng(42);
        let a: Vec<f64> = rand_mat(&mut r1, 16);
        let b: Vec<f64> = rand_mat(&mut r2, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn spd_is_symmetric_and_dominant() {
        let mut rng = seeded_rng(3);
        let n = 8;
        let a = spd_vec::<f64>(&mut rng, n);
        let m = MatRef::from_slice(&a, n, n, n);
        for j in 0..n {
            let mut off = 0.0;
            for i in 0..n {
                assert_eq!(m.get(i, j), m.get(j, i));
                if i != j {
                    off += m.get(i, j).abs();
                }
            }
            assert!(m.get(j, j) > off, "row {j} not dominant");
        }
    }

    #[test]
    fn spd_zero_order_is_empty() {
        let mut rng = seeded_rng(3);
        assert!(spd_vec::<f64>(&mut rng, 0).is_empty());
    }

    #[test]
    fn values_in_range() {
        let mut rng = seeded_rng(9);
        let a: Vec<f32> = rand_mat(&mut rng, 100);
        assert!(a.iter().all(|v| (-1.0..=1.0).contains(v)));
    }
}
