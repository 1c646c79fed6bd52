//! Approach 2 — separated vbatched BLAS kernels (paper §III-E).
//!
//! When the largest matrix in the batch makes the fused kernel's
//! shared-memory panel infeasible, the factorization is built from
//! standalone vbatched BLAS kernels, each a separate launch:
//!
//! * [`potf2::potf2_panel_vbatched`] — panel factorization, reusing the
//!   fused kernel's step logic on an `NB × NB` tile (`NB > nb`);
//! * [`trsm::trsm_panel_vbatched`] — the paper's `trsm` design, one
//!   launcher for either triangle: invert diagonal blocks with a
//!   vbatched `trtri`, then apply them with `gemm`-shaped multiplies;
//! * [`gemm::gemm_vbatched`] — tiled general multiply, the workhorse
//!   every other kernel leans on;
//! * [`syrk::syrk_vbatched`] — the trailing update, "realized as a gemm
//!   with an additional decision layer" that early-terminates blocks in
//!   the unused triangle, one launch over the whole batch;
//! * [`trsm::trsm_left_vbatched`] — direct in-block substitution, used
//!   by the LU/QR extensions and the batched solves.
//!
//! All of these use **ETM-classic** only: "they cannot use
//! ETM-aggressive since the implementation of these kernels requires all
//! threads in live thread blocks to be in sync."
//!
//! These kernels are a foundation for other variable-size batched
//! factorizations — the [`crate::lu`] and [`crate::qr`] extensions reuse
//! them out of the box, as the paper's conclusion anticipates.

pub mod gemm;
pub mod potf2;
pub mod syrk;
pub mod trsm;
pub mod trtri;

use vbatch_gpu_sim::DevicePtr;

/// Default outer panel width of the separated approach.
pub const DEFAULT_NB_PANEL: usize = 128;

/// Row-tile height of the tiled `gemm`/`trsm`-application kernels.
pub const GEMM_TILE_M: usize = 64;

/// Tile size of the `syrk` decision-layer kernel.
pub const SYRK_TILE: usize = 32;

/// A `Copy` bundle describing one per-matrix operand array: device
/// pointer array plus device leading-dimension array.
pub struct VView<T> {
    /// Per-matrix base pointers (possibly pre-displaced by the driver's
    /// auxiliary step kernel).
    pub ptrs: DevicePtr<DevicePtr<T>>,
    /// Per-matrix leading dimensions.
    pub lds: DevicePtr<i32>,
}

impl<T> Clone for VView<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for VView<T> {}

impl<T> VView<T> {
    /// Bundles a pointer array and a leading-dimension array.
    #[must_use]
    pub fn new(ptrs: DevicePtr<DevicePtr<T>>, lds: DevicePtr<i32>) -> Self {
        Self { ptrs, lds }
    }
}
