//! Workload generation for variable-size batched computation.
//!
//! The paper's test cases draw matrix sizes from two pseudo-random
//! generators (§IV-B): a uniform distribution over `[1, Nmax]` and a
//! Gaussian centered at `⌊Nmax/2⌋` clamped to the same interval
//! (Fig. 3). This crate reproduces those generators (seeded, so every
//! experiment is repeatable), the histograms, and a batch-building
//! helper that fills device batches with SPD matrices.

#![forbid(unsafe_code)]
// Library code reports failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dist;
pub mod histogram;

pub use dist::SizeDist;
pub use histogram::Histogram;

use rand::Rng;
use vbatch_dense::gen::spd_vec;
use vbatch_dense::Scalar;

/// Fills an already-allocated square batch with SPD matrices (seeded by
/// the caller's RNG) and returns host copies for verification.
pub fn fill_spd_batch<T: Scalar>(
    batch: &mut vbatch_core::VBatch<T>,
    sizes: &[usize],
    rng: &mut impl Rng,
) -> Vec<Vec<T>> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let m = spd_vec::<T>(rng, n);
            if n > 0 {
                batch
                    .upload_matrix(i, &m)
                    .expect("matrix i fits the batch it was sized for");
            }
            m
        })
        .collect()
}
