//! Approach 2 — separated vbatched BLAS kernels (paper §III-E).
//!
//! When the largest matrix in the batch makes the fused kernel's
//! shared-memory panel infeasible, the factorization is built from
//! standalone vbatched BLAS kernels, each a separate launch:
//!
//! * `potf2::potf2_panel_vbatched` — panel factorization, reusing the
//!   fused kernel's step logic on an `NB × NB` tile (`NB > nb`);
//! * [`trsm::trsm_panel_vbatched`] — the paper's `trsm` design, one
//!   launcher for either triangle: invert diagonal blocks with a
//!   vbatched `trtri`, then apply them with `gemm`-shaped multiplies;
//! * [`gemm::gemm_vbatched`] — tiled general multiply, the LU
//!   extension's trailing update;
//! * [`syrk::syrk_vbatched`] — the trailing update, "realized as a gemm
//!   with an additional decision layer" that identifies the tiles of the
//!   stored triangle, one launch over the whole batch;
//! * [`trsm::trsm_left_vbatched`] — direct in-block substitution, used
//!   by the LU/QR extensions and the batched solves.
//!
//! All of these use **ETM-classic** only: "they cannot use
//! ETM-aggressive since the implementation of these kernels requires all
//! threads in live thread blocks to be in sync."
//!
//! The paper sizes each of these launches by the batch's largest matrix
//! and lets ETM retire the blocks with no work. Each retired block still
//! pays its dispatch, so the Cholesky driver launches `potf2`, `trtri`,
//! `trsm` and `syrk` on a [`LiveGrid`] instead: one block per unit of
//! live work, counted on the host from the size mirror. The call's grids
//! are planned once (`plan_live_grids`, one upload), and the planner
//! `live_steps` reads them back as the driver frame's steps: each step's
//! first column and its four grids. Their in-kernel ETM check is left
//! with the runtime case, a matrix whose `info` is set.
//!
//! Every kernel reads where matrix `i` lives, its shape and its `info`
//! from one [`crate::batch::BatchView`] per operand and nothing else:
//! the four Cholesky kernels from the step state's view of the trailing
//! matrices ([`crate::aux::StepState::view`]), `gemm` and `trsm_left`
//! from whatever views their caller hands them.
//!
//! These kernels are a foundation for other variable-size batched
//! factorizations, as the paper's conclusion anticipates: the
//! [`crate::lu`] extension reuses `trsm_left` and `gemm` for its
//! trailing update, and the batched solves and least squares reuse
//! `trsm_left`.

pub mod gemm;
pub mod potf2;
pub mod syrk;
pub mod trsm;
pub mod trtri;

use vbatch_gpu_sim::{BlockCtx, Device, DeviceBuffer, DevicePtr};

use crate::report::VbatchError;

/// Default outer panel width of the separated approach.
pub const DEFAULT_NB_PANEL: usize = 128;

/// Row-tile height of the tiled `gemm`/`trsm`-application kernels.
pub(crate) const GEMM_TILE_M: usize = 64;

/// Tile size of the `syrk` trailing-update kernel.
pub(crate) const SYRK_TILE: usize = 32;

/// One of the four kernels of a separated Cholesky step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SepKernel {
    /// `potf2::potf2_panel_vbatched`.
    Potf2,
    /// [`trtri::trtri_diag_vbatched`].
    Trtri,
    /// [`trsm::trsm_panel_vbatched`].
    Trsm,
    /// [`syrk::syrk_vbatched`].
    Syrk,
}

impl SepKernel {
    /// The kernels of one step, in launch order.
    pub(crate) const STEP: [SepKernel; 4] = [Self::Potf2, Self::Trtri, Self::Trsm, Self::Syrk];

    /// Live blocks of a matrix with `rem` rows left at a step of panel
    /// width `nb_panel`: one `potf2` block if `rem > 0`, one `trtri`
    /// block if `rem > nb_panel`, one `trsm` block per `GEMM_TILE_M`
    /// trailing rows, one `syrk` block per `SYRK_TILE` tile of the
    /// trailing triangle.
    pub(crate) fn live_blocks(self, rem: usize, nb_panel: usize) -> usize {
        let trail = rem.saturating_sub(nb_panel);
        let tiles = trail.div_ceil(SYRK_TILE);
        match self {
            Self::Potf2 => usize::from(rem > 0),
            Self::Trtri => usize::from(trail > 0),
            Self::Trsm => trail.div_ceil(GEMM_TILE_M),
            Self::Syrk => tiles * (tiles + 1) / 2,
        }
    }

    /// This kernel's block starts at the step `j` columns in: the
    /// exclusive prefix sum of live blocks over `sizes`, `sizes.len() +
    /// 1` entries, the last the grid size.
    fn starts(self, sizes: &[usize], j: usize, nb: usize) -> impl Iterator<Item = i32> + '_ {
        let sums = sizes.iter().scan(0, move |total, &n| {
            *total += self.live_blocks(n.saturating_sub(j), nb);
            Some(*total as i32)
        });
        std::iter::once(0).chain(sums)
    }
}

/// The block starts of every step of a separated Cholesky call on
/// matrices of orders `sizes`, four grids per step in
/// [`SepKernel::STEP`] order ([`live_steps`] reads them back). Steps
/// run while a matrix has columns left.
pub(crate) fn plan_live_grids(sizes: &[usize], nb_panel: usize) -> impl Iterator<Item = i32> + '_ {
    let top = sizes.iter().copied().max().unwrap_or(0);
    (0..top).step_by(nb_panel).flat_map(move |j| {
        SepKernel::STEP
            .into_iter()
            .flat_map(move |k| k.starts(sizes, j, nb_panel))
    })
}

/// The steps of a separated call on `count` matrices at panel width
/// `nb_panel`, read back from its [`plan_live_grids`] plan, held whole
/// at `d_starts` on the device and at the front of `host`: each step's
/// first column `j` and its four grids in [`SepKernel::STEP`] order.
pub(crate) fn live_steps(
    d_starts: DevicePtr<i32>,
    host: &[i32],
    count: usize,
    nb_panel: usize,
) -> impl Iterator<Item = (usize, [LiveGrid; 4])> + '_ {
    let per_step = SepKernel::STEP.len() * (count + 1);
    (0..d_starts.len() / per_step).map(move |s| {
        let grids = std::array::from_fn(|k| {
            let first = s * per_step + k * (count + 1);
            LiveGrid::new(d_starts.offset(first), count, host[first + count] as usize)
        });
        (s * nb_panel, grids)
    })
}

/// A compacted launch grid: one block per unit of live work, matrix by
/// matrix. Block `b` belongs to the matrix `i` with
/// `starts[i] ≤ b < starts[i + 1]` (`count + 1` starts on the device).
#[derive(Clone, Copy, Debug)]
pub struct LiveGrid {
    starts: DevicePtr<i32>,
    count: usize,
    blocks: usize,
}

impl LiveGrid {
    /// The grid of the `count + 1` block starts at `starts`, the last
    /// of which is `blocks`.
    fn new(starts: DevicePtr<i32>, count: usize, blocks: usize) -> Self {
        Self {
            starts,
            count,
            blocks,
        }
    }

    /// Uploads the grid of `kernel` at the step `j` columns in for a
    /// launch of its own; the returned buffer must outlive the launch.
    /// Charges no transfer.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub fn upload(
        dev: &Device,
        kernel: SepKernel,
        sizes: &[usize],
        j: usize,
        nb_panel: usize,
    ) -> Result<(Self, DeviceBuffer<i32>), VbatchError> {
        let host: Vec<i32> = kernel.starts(sizes, j, nb_panel).collect();
        let buf = dev.alloc::<i32>(host.len())?;
        buf.fill_from_host(&host);
        let blocks = host[sizes.len()] as usize;
        Ok((Self::new(buf.ptr(), sizes.len(), blocks), buf))
    }

    /// Blocks in the grid.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The grid size as a launch dimension, or
    /// [`VbatchError::InvalidArgument`] with `msg` if it is empty.
    pub(crate) fn launch_blocks(&self, msg: &'static str) -> Result<u32, VbatchError> {
        match self.blocks {
            0 => Err(VbatchError::InvalidArgument(msg)),
            b => Ok(b as u32),
        }
    }

    /// This block's matrix and its index among that matrix's blocks: a
    /// binary search of the starts, each probe charged as a 4-byte read.
    /// A matrix with no blocks shares its start with the next one, so
    /// the last start at or before the block is its owner's.
    pub(crate) fn locate(&self, ctx: &mut BlockCtx) -> (usize, usize) {
        let b = ctx.linear_block_id();
        let (mut lo, mut hi, mut probes) = (0, self.count - 1, 1);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            probes += 1;
            if self.starts.get(mid) as usize <= b {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        ctx.gmem_read(probes * std::mem::size_of::<i32>());
        (lo, b - self.starts.get(lo) as usize)
    }
}
