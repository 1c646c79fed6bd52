//! Real CPU execution path: dynamic one-core-per-matrix through the
//! `rayon` API.
//!
//! The analytic model in [`crate::cpu_model`] produces the figures; this
//! module actually factorizes the batch on the host so tests can confirm
//! the baseline's numerics.
//! The vendored `rayon` shim runs the iterator on the workspace's
//! persistent worker pool, whose lanes claim runs of matrices
//! dynamically as they finish the previous one — the "dynamic
//! scheduling" variant the paper identifies as the best CPU competitor
//! (no work stealing; a lane never takes back work another has
//! claimed).

use rayon::prelude::*;
use std::time::{Duration, Instant};
use vbatch_dense::{potrf_blocked, Error, MatMut, Scalar, Uplo};

/// Factorizes every matrix in place (lower Cholesky, one task per
/// matrix, dynamically claimed), returning wall time and the per-matrix
/// LAPACK-style `info` codes.
pub fn potrf_batch_dynamic<T: Scalar>(
    mats: &mut [Vec<T>],
    sizes: &[usize],
    nb: usize,
) -> (Duration, Vec<i32>) {
    assert_eq!(mats.len(), sizes.len());
    let start = Instant::now();
    let info: Vec<i32> = mats
        .par_iter_mut()
        .zip(sizes.par_iter())
        .map(|(m, &n)| factor_one(m, n, nb))
        .collect();
    (start.elapsed(), info)
}

/// Lower Cholesky of one `n x n` matrix in place; LAPACK-style `info`.
fn factor_one<T: Scalar>(m: &mut [T], n: usize, nb: usize) -> i32 {
    if n == 0 {
        return 0;
    }
    match potrf_blocked(Uplo::Lower, MatMut::from_slice(m, n, n, n), nb) {
        Ok(()) => 0,
        Err(Error::NotPositiveDefinite { column }) => (column + 1) as i32,
        Err(_) => -1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_dense::gen::{seeded_rng, spd_vec};
    use vbatch_dense::verify::{chol_residual, residual_tol};
    use vbatch_dense::MatRef;

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = seeded_rng(17);
        let sizes: Vec<usize> = (0..40).map(|i| 1 + (i * 13) % 96).collect();
        let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();

        let mut par = mats.clone();
        let (_, info_p) = potrf_batch_dynamic(&mut par, &sizes, 16);
        let mut seq = mats.clone();
        let info_s: Vec<i32> = seq
            .iter_mut()
            .zip(&sizes)
            .map(|(m, &n)| factor_one(m, n, 16))
            .collect();
        assert_eq!(info_p, vec![0; sizes.len()]);
        assert_eq!(info_s, info_p);
        for i in 0..sizes.len() {
            assert_eq!(par[i], seq[i], "matrix {i} differs between par and seq");
            let n = sizes[i];
            let r = chol_residual(
                Uplo::Lower,
                MatRef::from_slice(&par[i], n, n, n),
                MatRef::from_slice(&mats[i], n, n, n),
            );
            assert!(r < residual_tol::<f64>(n));
        }
    }

    #[test]
    fn reports_per_matrix_info() {
        let mut rng = seeded_rng(18);
        let sizes = vec![8usize, 8];
        let good = spd_vec::<f64>(&mut rng, 8);
        let mut bad = good.clone();
        bad[2 + 2 * 8] = -999.0;
        let mut mats = vec![good, bad];
        let (_, info) = potrf_batch_dynamic(&mut mats, &sizes, 4);
        assert_eq!(info[0], 0);
        assert_eq!(info[1], 3);
    }
}
