//! Small dense linear algebra kernels for variable-size batched computation.
//!
//! This crate provides the LAPACK/BLAS-style building blocks that both the
//! simulated GPU kernels (`vbatch-core`) and the CPU baselines
//! (`vbatch-baselines`) are built from:
//!
//! * column-major matrix views with an explicit leading dimension
//!   ([`MatRef`], [`MatMut`]),
//! * level-3 BLAS kernels ([`gemm`], [`syrk`], [`trsm`], [`trmm`]),
//! * unblocked and blocked one-sided factorizations ([`potf2`],
//!   [`potrf_blocked`], [`getf2`], [`getrf`], [`geqr2`], [`geqrf`]),
//! * triangular inversion ([`trtri`]) used by the vbatched `trsm` design —
//!   like [`trmm`] and [`trsm`], recursive, with the off-diagonal block
//!   cast to [`gemm`],
//! * flop-count formulas matching the conventions the paper uses to report
//!   Gflop/s ([`flops`]),
//! * seeded generators for SPD and general test matrices ([`gen`]) and
//!   residual-based verification ([`verify`]).
//!
//! All kernels operate on matrices of *small* order (the paper's regime is
//! roughly 1–1024). Cholesky, LU and Householder QR alike are built on
//! the [`level3`] engine: unblocked panels run `dot`/`axpy` over
//! contiguous column slices, blocked updates are [`trsm`]/[`trmm`]/
//! [`syrk`]/[`gemm`] calls (for QR, the compact-WY `larfb` sequence), so
//! one engine decides how fast every simulated thread block and every
//! CPU baseline runs. What a block costs on the simulated device is
//! charged separately, by the kernel that calls these routines.
//!
//! `unsafe` code is confined to the raw-view constructors in [`matrix`]
//! (which carry the CUDA-like contract that concurrently executing
//! thread blocks touch disjoint elements) and the AVX2 paths in
//! [`level3`] and [`interleave`]; every unsafe operation sits in an
//! explicit block behind its own `SAFETY:` comment (enforced by
//! `unsafe_op_in_unsafe_fn` below plus the workspace `vbatch-analyze`
//! pass and its `analyze.toml` budget).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod error;
pub mod flops;
pub mod gen;
pub mod interleave;
pub mod matrix;
pub mod naive;
pub mod scalar;
pub mod verify;

mod factor;
/// Level-3 kernels and the two-tier engine internals ([`level3::tier`],
/// [`level3::uses_blocked`], tiling constants) for tests and benches.
pub mod level3;
pub mod tune;

pub use error::{Error, Result};
pub use factor::{
    geqr2, geqrf, getf2, getrf, getrs, larf_left, larfb_left_t, larft, laswp, lauum, potf2,
    potrf_blocked, potri, potrs, trtri,
};
pub use level3::{gemm, syrk, trmm, trsm};
pub use matrix::{Diag, MatMut, MatRef, Side, Trans, Uplo};
pub use scalar::Scalar;
