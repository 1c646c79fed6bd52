//! Vbatched triangular solves (paper §III-E2).
//!
//! Two designs, matching the paper:
//!
//! * [`trsm_panel_vbatched`] — the Cholesky panel solve
//!   (`A21 ← A21·L11⁻ᵀ` or `A12 ← U11⁻ᵀ·A12`), implemented as the paper
//!   describes: the diagonal blocks are first inverted by the vbatched
//!   `trtri` ([`crate::sep::trtri`]), then applied with `gemm`-shaped
//!   tile multiplies ("updates the solution matrix based on several
//!   calls to a vbatched `gemm` kernel").
//! * [`trsm_left_vbatched`] — a direct in-block substitution solve
//!   (`op(L)·X = B`), used where the triangular matrix is small (LU
//!   panels, the batched solves and `gels`); one thread block per
//!   matrix.

use vbatch_dense::{Diag, Scalar, Side, Trans, Uplo};
use vbatch_gpu_sim::{Device, KernelStats, LaunchConfig};

use crate::batch::BatchView;
use crate::etm::EtmPolicy;
use crate::kernels::{charge_flops, charge_read, charge_smem, charge_write, mat_mut, mat_ref};
use crate::report::VbatchError;
use crate::sep::trtri::TileWorkspace;
use crate::sep::{LiveGrid, GEMM_TILE_M};

/// The Cholesky panel solve by inverted diagonal blocks
/// `W_i = T11_i⁻¹` in `work` (produced by
/// [`crate::sep::trtri::trtri_diag_vbatched`]), applied as a `trmm`
/// per tile of the off-diagonal panel:
///
/// * `Lower`: the rows below the panel, `A21_i ← A21_i · W_iᵀ`
///   (so `A21 ← A21·L11⁻ᵀ`), tiled over rows;
/// * `Upper`: the columns right of the panel, `A12_i ← W_iᵀ · A12_i`
///   (so `A12 ← U11⁻ᵀ·A12`), tiled over columns.
///
/// `a` is the step state's view (pointers at `A(j,j)`, `rem_i` rows
/// left); the panel is `nb_panel` wide;
/// `grid` holds one block per `GEMM_TILE_M` trailing rows (or columns)
/// of each matrix ([`crate::sep::SepKernel::Trsm`]).
///
/// # Errors
/// [`VbatchError::InvalidArgument`] when there is nothing to solve;
/// [`VbatchError::Launch`] on launch rejection.
pub fn trsm_panel_vbatched<T: Scalar>(
    dev: &Device,
    grid: LiveGrid,
    uplo: Uplo,
    a: BatchView<T>,
    work: &TileWorkspace<T>,
    nb_panel: usize,
) -> Result<KernelStats, VbatchError> {
    let blocks = grid.launch_blocks("trsm_panel_vbatched: no trailing rows or columns")?;
    let smem = (GEMM_TILE_M + nb_panel) * nb_panel.min(8) * T::BYTES;
    let cfg = LaunchConfig::grid_1d(blocks, 128).with_shared_mem(smem);
    let w_ptrs = work.d_ptrs();
    let w_nb = work.nb();
    let stats = dev.launch(kname!(T, "trsm_vbatched"), cfg, move |ctx| {
        let (i, bi) = grid.locate(ctx);
        if !EtmPolicy::Classic.apply(ctx, usize::from(a.info.get(i) == 0)) {
            return;
        }
        let (rem, _, ld) = a.dims(i);
        let trail = rem.saturating_sub(nb_panel);
        let t0 = bi * GEMM_TILE_M;
        let len = GEMM_TILE_M.min(trail - t0);
        let p = a.ptrs.get(i);
        // The tile starts `nb_panel + t0` rows (Lower) or columns
        // (Upper) into the displaced frame.
        let (side, tile) = match uplo {
            Uplo::Lower => (
                Side::Right,
                mat_mut(p, rem, nb_panel, ld).sub(nb_panel + t0, 0, len, nb_panel),
            ),
            Uplo::Upper => (
                Side::Left,
                mat_mut(p, nb_panel, rem, ld).sub(0, nb_panel + t0, nb_panel, len),
            ),
        };
        let w = mat_ref(w_ptrs.get(i), nb_panel, nb_panel, w_nb);
        // W is triangular in `uplo`, so the solve is a trmm.
        vbatch_dense::trmm(side, uplo, Trans::Trans, Diag::NonUnit, T::ONE, w, tile);
        let active = 128.min(len.max(1) * 2);
        charge_read::<T>(ctx, len * nb_panel + nb_panel * nb_panel / 2);
        charge_write::<T>(ctx, len * nb_panel);
        charge_smem::<T>(ctx, (len + nb_panel) * nb_panel);
        charge_flops::<T>(ctx, active, len as f64 * nb_panel as f64 * nb_panel as f64);
        for _ in 0..nb_panel.div_ceil(8) {
            ctx.sync();
        }
    })?;
    Ok(stats)
}

/// Direct vbatched left triangular solve: `op(A_i)·X_i = B_i`,
/// overwriting `B_i`, for each of `a`'s matrices, one thread block per
/// matrix (forward/backward substitution with the right-hand sides
/// spread over threads).
///
/// The triangle's order is `A_i`'s column count and the right-hand
/// sides are `B_i`'s columns; a matrix whose `info` in `a` or in `b` is
/// set, or a zero-sized problem, early-terminates.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] on an empty view;
/// [`VbatchError::Launch`] on launch rejection.
pub fn trsm_left_vbatched<T: Scalar>(
    dev: &Device,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: BatchView<T>,
    b: BatchView<T>,
) -> Result<KernelStats, VbatchError> {
    let count = a.count;
    if count == 0 {
        return Err(VbatchError::InvalidArgument(
            "trsm_left_vbatched: empty batch",
        ));
    }
    let cfg = LaunchConfig::grid_1d(count as u32, 128);
    let stats = dev.launch(kname!(T, "trsm_left_vbatched"), cfg, move |ctx| {
        let i = ctx.linear_block_id();
        let (_, n, lda) = a.dims(i);
        let (_, nrhs, ldb) = b.dims(i);
        let live = n > 0 && nrhs > 0 && a.info.get(i) == 0 && b.info.get(i) == 0;
        if !EtmPolicy::Classic.apply(ctx, if live { 1 } else { 0 }) {
            return;
        }
        let a_view = mat_ref(a.ptrs.get(i), n, n, lda);
        let b_view = mat_mut(b.ptrs.get(i), n, nrhs, ldb);
        vbatch_dense::trsm(Side::Left, uplo, trans, diag, T::ONE, a_view, b_view);
        let active = 128.min(nrhs.max(1));
        charge_read::<T>(ctx, n * n / 2 + n * nrhs);
        charge_write::<T>(ctx, n * nrhs);
        charge_flops::<T>(ctx, active, n as f64 * n as f64 * nrhs as f64);
        // Substitution synchronizes once per diagonal block of 8.
        for _ in 0..n.div_ceil(8) {
            ctx.sync();
        }
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux::StepState;
    use crate::sep::trtri::trtri_diag_vbatched;
    use crate::sep::SepKernel;
    use crate::VBatch;
    use vbatch_dense::gen::{rand_mat, seeded_rng, spd_vec};
    use vbatch_dense::verify::max_abs_diff_slices;
    use vbatch_dense::{potf2 as dense_potf2, trsm as dense_trsm, MatMut};
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn right_lower_trans_matches_dense() {
        let dev = Device::new(DeviceConfig::k40c());
        let nb = 8;
        let sizes = [100usize, 20, 6, 150];
        let mut rng = seeded_rng(61);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let mut hosts = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let mut m = spd_vec::<f64>(&mut rng, n);
            // Factorize the leading nb×nb tile so L11 exists.
            let jb = n.min(nb);
            dense_potf2(
                vbatch_dense::Uplo::Lower,
                MatMut::from_slice(&mut m, n, n, n).sub(0, 0, jb, jb),
            )
            .unwrap();
            batch.upload_matrix(i, &m).unwrap();
            hosts.push(m);
        }
        let st = StepState::<f64>::alloc(&dev, sizes.len()).unwrap();
        st.update(&dev, batch.view(), 0).unwrap();
        let view = st.view(batch.view());
        let work = TileWorkspace::<f64>::alloc(&dev, sizes.len(), nb).unwrap();
        let (inv, _inv_starts) = LiveGrid::upload(&dev, SepKernel::Trtri, &sizes, 0, nb).unwrap();
        trtri_diag_vbatched(&dev, inv, Uplo::Lower, view, &work, nb).unwrap();
        let (grid, _starts) = LiveGrid::upload(&dev, SepKernel::Trsm, &sizes, 0, nb).unwrap();
        let stats = trsm_panel_vbatched(&dev, grid, Uplo::Lower, view, &work, nb).unwrap();
        // Trailing rows 92, 12, 0, 142: 2 + 1 + 0 + 3 tiles of 64.
        assert_eq!(stats.timing.blocks, 6);
        assert_eq!(stats.timing.early_exit_blocks, 0);
        for (i, &n) in sizes.iter().enumerate() {
            if n <= nb {
                // No trailing rows: untouched below the tile.
                continue;
            }
            // Expected: dense trsm on the host copy.
            let mut want = hosts[i].clone();
            {
                let mut w = MatMut::from_slice(&mut want, n, n, n);
                let l11 = w.alias_ref().sub(0, 0, nb, nb);
                dense_trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::Trans,
                    Diag::NonUnit,
                    1.0,
                    l11,
                    w.rb().sub(nb, 0, n - nb, nb),
                );
            }
            let got = batch.download_matrix(i);
            assert!(
                max_abs_diff_slices(&got, &want) < 1e-9,
                "matrix {i} (n={n}) mismatch"
            );
        }
    }

    #[test]
    fn left_solve_recovers_solution() {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(62);
        let dims_a = [(12usize, 12usize), (5, 5), (30, 30)];
        let rhs_cols = [3usize, 7, 1];
        let mut ab = VBatch::<f64>::alloc(&dev, &dims_a).unwrap();
        let b_dims: Vec<(usize, usize)> = dims_a
            .iter()
            .zip(&rhs_cols)
            .map(|(&(n, _), &r)| (n, r))
            .collect();
        let mut bb = VBatch::<f64>::alloc(&dev, &b_dims).unwrap();
        let mut expected = Vec::new();
        for i in 0..dims_a.len() {
            let n = dims_a[i].0;
            let r = rhs_cols[i];
            let mut l = rand_mat::<f64>(&mut rng, n * n);
            for d in 0..n {
                l[d + d * n] = 2.0 + l[d + d * n].abs();
            }
            let x = rand_mat::<f64>(&mut rng, n * r);
            // b = L x.
            let mut b = x.clone();
            vbatch_dense::trmm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                1.0,
                vbatch_dense::MatRef::from_slice(&l, n, n, n),
                MatMut::from_slice(&mut b, n, r, n),
            );
            ab.upload_matrix(i, &l).unwrap();
            bb.upload_matrix(i, &b).unwrap();
            expected.push(x);
        }
        trsm_left_vbatched(
            &dev,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            ab.view(),
            bb.view(),
        )
        .unwrap();
        for (i, exp) in expected.iter().enumerate() {
            let got = bb.download_matrix(i);
            assert!(max_abs_diff_slices(&got, exp) < 1e-9, "solve {i} mismatch");
        }
    }
}
