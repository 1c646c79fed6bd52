//! Vbatched triangular inversion of diagonal blocks (paper §III-E2).
//!
//! The vbatched `trsm` "starts by inverting the diagonal blocks ...
//! using a vbatched `trtri` routine". One thread block inverts one
//! matrix's `jb × jb` triangular tile into a per-matrix workspace,
//! leaving the factor itself untouched. ETM-classic only.

use vbatch_dense::{Diag, Scalar, Uplo};
use vbatch_gpu_sim::{Device, DevicePtr, KernelStats, LaunchConfig};

use crate::batch::{BatchView, PerMatrixArray};
use crate::etm::EtmPolicy;
use crate::kernels::{charge_flops, charge_read, charge_write, mat_mut, mat_ref, round_to_warp};
use crate::report::VbatchError;
use crate::sep::LiveGrid;

/// Per-matrix square workspace arena (e.g. for inverted diagonal
/// blocks): a `PerMatrixArray` of `nb × nb` tiles, one per matrix.
pub struct TileWorkspace<T> {
    pub(crate) tiles: PerMatrixArray<T>,
    nb: usize,
}

impl<T: Scalar> TileWorkspace<T> {
    /// Allocates `count` tiles of order `nb`.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub fn alloc(dev: &Device, count: usize, nb: usize) -> Result<Self, VbatchError> {
        PerMatrixArray::alloc(dev, count, nb * nb).map(|tiles| Self { tiles, nb })
    }

    /// [`PerMatrixArray::ensure`] on a tile slot: a smaller `nb` reuses
    /// the arena, a larger one or more matrices grow it.
    pub(crate) fn ensure(
        slot: &mut Option<Self>,
        dev: &Device,
        count: usize,
        nb: usize,
    ) -> Result<(), VbatchError> {
        let mut inner = slot.take().map(|t| t.tiles);
        let grown = PerMatrixArray::ensure(&mut inner, dev, count, nb * nb);
        *slot = inner.map(|tiles| Self { tiles, nb });
        grown
    }

    /// Device array of tile pointers.
    #[must_use]
    pub fn d_ptrs(&self) -> DevicePtr<DevicePtr<T>> {
        self.tiles.d_ptrs()
    }

    /// Tile order.
    #[must_use]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Bytes of the tile arena.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.tiles.arena_bytes()
    }
}

/// Inverts the `jb_i × jb_i` triangular diagonal tile
/// (`jb_i = min(nb, rem_i)`) of each matrix of `a` (the step state's
/// view) in `grid` into the workspace (`W_i ← T11_i⁻¹`). The grid
/// holds one block per matrix with trailing rows
/// ([`crate::sep::SepKernel::Trtri`]: `rem_i > nb`, so `trsm` has
/// work); a broken matrix's block terminates early.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] on an empty grid;
/// [`VbatchError::Launch`] on launch rejection.
pub fn trtri_diag_vbatched<T: Scalar>(
    dev: &Device,
    grid: LiveGrid,
    uplo: Uplo,
    a: BatchView<T>,
    work: &TileWorkspace<T>,
    nb: usize,
) -> Result<KernelStats, VbatchError> {
    let warp = dev.config().warp_size;
    let threads = round_to_warp(nb, warp).min(dev.config().max_threads_per_block);
    // The inversion stages 32×32 diagonal sub-blocks through shared
    // memory (as MAGMA's trtri does); the full inverse lives in the
    // global workspace, so the request does not grow with `nb`.
    let stage = nb.min(32);
    let blocks = grid.launch_blocks("trtri_diag_vbatched: no trailing rows")?;
    let cfg = LaunchConfig::grid_1d(blocks, threads).with_shared_mem(2 * stage * stage * T::BYTES);
    let w_ptrs = work.d_ptrs();
    let stats = dev.launch(kname!(T, "trtri_vbatched"), cfg, move |ctx| {
        let (i, _) = grid.locate(ctx);
        let (rem, _, ld) = a.dims(i);
        let jb = rem.min(nb);
        if !EtmPolicy::Classic.apply(ctx, if a.info.get(i) == 0 { jb } else { 0 }) {
            return;
        }
        let t11 = mat_ref(a.ptrs.get(i), jb, jb, ld);
        let mut w = mat_mut(w_ptrs.get(i), jb, jb, nb);
        // Copy the tile then invert in place (the factor must survive):
        // per column, the stored triangle segment is one contiguous
        // memcpy and the rest a fill.
        for c in 0..jb {
            let (lo, hi) = match uplo {
                Uplo::Lower => (c, jb),
                Uplo::Upper => (0, c + 1),
            };
            let src = t11.col_as_slice(c);
            let dst = w.col_as_mut_slice(c);
            dst[..lo].fill(T::ZERO);
            dst[lo..hi].copy_from_slice(&src[lo..hi]);
            dst[hi..].fill(T::ZERO);
        }
        // The tile is SPD-derived: diagonal entries are positive, so
        // inversion cannot fail; a zero diagonal would have been caught
        // by potf2 already. Guard anyway.
        if vbatch_dense::trtri(uplo, Diag::NonUnit, w).is_err() {
            // Leave info to potf2's report; the workspace holds garbage
            // but the matrix is already marked broken.
            return;
        }
        charge_read::<T>(ctx, jb * jb / 2 + jb);
        charge_write::<T>(ctx, jb * jb / 2 + jb);
        charge_flops::<T>(ctx, jb, vbatch_dense::flops::trtri(jb));
        for _ in 0..jb {
            ctx.sync();
        }
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux::StepState;
    use crate::sep::SepKernel;
    use crate::VBatch;
    use vbatch_dense::gen::{seeded_rng, spd_vec};
    use vbatch_dense::{potf2 as dense_potf2, MatMut};
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn inverts_factored_tiles() {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes = [20usize, 6, 40];
        let nb = 8;
        let mut rng = seeded_rng(41);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        // Pre-factorize leading nb×nb tiles on the host.
        let mut tiles = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let mut m = spd_vec::<f64>(&mut rng, n);
            let jb = n.min(nb);
            dense_potf2(
                Uplo::Lower,
                MatMut::from_slice(&mut m, n, n, n).sub(0, 0, jb, jb),
            )
            .unwrap();
            batch.upload_matrix(i, &m).unwrap();
            tiles.push(m);
        }
        let st = StepState::<f64>::alloc(&dev, sizes.len()).unwrap();
        st.update(&dev, batch.view(), 0).unwrap();
        let work = TileWorkspace::<f64>::alloc(&dev, sizes.len(), nb).unwrap();
        let (grid, _starts) = LiveGrid::upload(&dev, SepKernel::Trtri, &sizes, 0, nb).unwrap();
        let stats =
            trtri_diag_vbatched(&dev, grid, Uplo::Lower, st.view(batch.view()), &work, nb).unwrap();
        // Matrix 1 (6 ≤ nb) has no trailing rows and owns no block.
        assert_eq!(stats.timing.blocks, 2);
        assert_eq!(stats.timing.early_exit_blocks, 0);
        // Matrix 0 (rem 20 > nb): W·L11 = I.
        let w = {
            let p = work.d_ptrs().get(0);
            (0..nb * nb).map(|k| p.get(k)).collect::<Vec<f64>>()
        };
        for c in 0..nb {
            for r in 0..nb {
                let mut acc = 0.0;
                for l in 0..nb {
                    let wv = if r >= l { w[r + l * nb] } else { 0.0 };
                    let lv = if l >= c {
                        tiles[0][l + c * sizes[0]]
                    } else {
                        0.0
                    };
                    acc += wv * lv;
                }
                let want = if r == c { 1.0 } else { 0.0 };
                assert!((acc - want).abs() < 1e-10, "W·L ≠ I at ({r},{c})");
            }
        }
        // Matrix 1 was never visited: its workspace is still zero.
        assert_eq!(work.d_ptrs().get(1).get(0), 0.0);
    }

    #[test]
    fn workspace_layout() {
        let dev = Device::new(DeviceConfig::k40c());
        let w = TileWorkspace::<f32>::alloc(&dev, 3, 4).unwrap();
        assert_eq!(w.nb(), 4);
        assert_eq!(w.bytes(), 3 * 16 * 4);
        w.d_ptrs().get(2).set(15, 8.0);
        assert_eq!(w.d_ptrs().get(2).get(15), 8.0);
    }
}
