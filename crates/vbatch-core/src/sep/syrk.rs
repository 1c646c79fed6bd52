//! Vbatched symmetric rank-k update (paper §III-E3).
//!
//! "The `syrk` operation is realized as a `gemm` with an additional
//! decision layer that identifies thread blocks required to update
//! either the upper or the lower triangular part of the trailing
//! submatrix, and thus terminating all other thread blocks."
//!
//! [`syrk_vbatched`] is that one launch over the whole batch. Its
//! decision layer runs on the host: the launch covers a [`LiveGrid`]
//! holding, matrix by matrix, only the `T(T+1)/2` tiles of the stored
//! triangle (`T = ⌈trail/SYRK_TILE⌉`), and each block decodes its tile
//! from its local index. A grid sized by the largest matrix, as in the
//! paper, would dispatch `T_max² · count` blocks and retire all but the
//! live ones at a dispatch each. The kernel's only exit is the runtime
//! one, a matrix whose `info` is set. The paper's other option, one
//! kernel per matrix on CUDA streams, pays the per-matrix launch
//! overhead the vbatched interface exists to avoid, so it is not
//! modelled.

use vbatch_dense::{Scalar, Trans, Uplo};
use vbatch_gpu_sim::{Device, KernelStats, LaunchConfig};

use crate::batch::BatchView;
use crate::etm::EtmPolicy;
use crate::kernels::{charge_flops, charge_read, charge_smem, charge_write, mat_mut, mat_ref};
use crate::report::VbatchError;
use crate::sep::{LiveGrid, SYRK_TILE};

/// Row and column of the `t`-th tile of a lower triangle of tiles
/// enumerated row by row: `t = r(r+1)/2 + c` with `c ≤ r`.
fn lower_tile(t: usize) -> (usize, usize) {
    let r = ((8 * t + 1).isqrt() - 1) / 2;
    (r, t - r * (r + 1) / 2)
}

/// Batched trailing update `A22_i ← A22_i − A21_i·A21_iᵀ` (lower) or
/// `A22_i ← A22_i − A12_iᵀ·A12_i` (upper) over `grid`, one block per
/// stored-triangle tile ([`crate::sep::SepKernel::Syrk`]).
///
/// # Errors
/// [`VbatchError::InvalidArgument`] on an empty grid;
/// [`VbatchError::Launch`] on launch rejection.
pub fn syrk_vbatched<T: Scalar>(
    dev: &Device,
    grid: LiveGrid,
    uplo: Uplo,
    a: BatchView<T>,
    nb_panel: usize,
) -> Result<KernelStats, VbatchError> {
    let blocks = grid.launch_blocks("syrk_vbatched: no trailing rows")?;
    let smem = 2 * SYRK_TILE * 8 * T::BYTES;
    let cfg = LaunchConfig::grid_1d(blocks, 128).with_shared_mem(smem);
    let stats = dev.launch(kname!(T, "syrk_vbatched"), cfg, move |ctx| {
        let (i, t) = grid.locate(ctx);
        if !EtmPolicy::Classic.apply(ctx, usize::from(a.info.get(i) == 0)) {
            return;
        }
        let (r, c) = lower_tile(t);
        let (bi, bj) = match uplo {
            Uplo::Lower => (r, c),
            Uplo::Upper => (c, r),
        };
        // Update tile `(bi, bj)` of the trailing `C_i` for panel width
        // `k` in the displaced frame at `A(j,j)`.
        let (rem, _, ld) = a.dims(i);
        let (k, a_ptr) = (nb_panel, a.ptrs.get(i));
        let trail = rem.saturating_sub(k);
        let r0 = bi * SYRK_TILE;
        let c0 = bj * SYRK_TILE;
        let mt = SYRK_TILE.min(trail - r0);
        let nt = SYRK_TILE.min(trail - c0);
        // Panel operand blocks in the displaced frame: row blocks of A21
        // (Lower) or column blocks of A12 (Upper).
        let (a_bi, a_bj, op) = match uplo {
            Uplo::Lower => (
                mat_ref(a_ptr, rem, k, ld).sub(k + r0, 0, mt, k),
                mat_ref(a_ptr, rem, k, ld).sub(k + c0, 0, nt, k),
                (Trans::NoTrans, Trans::Trans),
            ),
            Uplo::Upper => (
                mat_ref(a_ptr, k, rem, ld).sub(0, k + r0, k, mt),
                mat_ref(a_ptr, k, rem, ld).sub(0, k + c0, k, nt),
                (Trans::Trans, Trans::NoTrans),
            ),
        };
        // C tile lives in the trailing submatrix at (k + r0, k + c0) of the
        // displaced frame.
        let c_tile = mat_mut(a_ptr, rem, rem, ld).sub(k + r0, k + c0, mt, nt);
        if bi == bj {
            // Diagonal tile: compute fully (as the hardware kernel would)
            // into a stack tile — the simulated analog of shared memory; a
            // kernel body allocates nothing — and write only the stored
            // triangle.
            let mut tmp = [T::ZERO; SYRK_TILE * SYRK_TILE];
            let tmp_view = vbatch_dense::MatMut::from_slice(&mut tmp[..mt * nt], mt, nt, mt);
            vbatch_dense::gemm(op.0, op.1, -T::ONE, a_bi, a_bj, T::ZERO, tmp_view);
            let mut c_tile = c_tile;
            for jj in 0..nt {
                // Contiguous triangle segment of this column (slice tier:
                // one vectorizable add per column, no boxed iterator).
                let (lo, hi) = match uplo {
                    Uplo::Lower => (jj, mt),
                    Uplo::Upper => (0, (jj + 1).min(mt)),
                };
                let col = &mut c_tile.col_as_mut_slice(jj)[lo..hi];
                for (ci, ti) in col.iter_mut().zip(&tmp[jj * mt + lo..jj * mt + hi]) {
                    *ci += *ti;
                }
            }
        } else {
            vbatch_dense::gemm(op.0, op.1, -T::ONE, a_bi, a_bj, T::ONE, c_tile);
        }
        let active = 128.min(mt * nt / 8).max(32);
        charge_read::<T>(ctx, (mt + nt) * k + mt * nt);
        charge_write::<T>(ctx, mt * nt);
        charge_smem::<T>(ctx, (mt + nt) * k);
        charge_flops::<T>(ctx, active, 2.0 * mt as f64 * nt as f64 * k as f64);
        for _ in 0..k.div_ceil(8) {
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
    use vbatch_dense::{MatMut, MatRef, Uplo};
    use vbatch_gpu_sim::DeviceConfig;

    /// Host reference: trailing update on the lower triangle only.
    fn host_syrk(m: &mut [f64], n: usize, k: usize) {
        let mut w = MatMut::from_slice(m, n, n, n);
        let a21 = w.alias_ref().sub(k, 0, n - k, k);
        vbatch_dense::syrk(
            Uplo::Lower,
            Trans::NoTrans,
            -1.0,
            a21,
            1.0,
            w.rb().sub(k, k, n - k, n - k),
        );
    }

    #[test]
    fn batched_matches_host_reference() {
        let dev = Device::new(DeviceConfig::k40c());
        let nb = 8;
        let sizes = [90usize, 20, 5, 130, 8];
        let mut rng = seeded_rng(71);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let mut hosts = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let m = spd_vec::<f64>(&mut rng, n);
            batch.upload_matrix(i, &m).unwrap();
            hosts.push(m);
        }
        let st = StepState::<f64>::alloc(&dev, sizes.len()).unwrap();
        st.update(&dev, batch.view(), 0).unwrap();
        let view = st.view(batch.view());
        let (grid, _starts) = LiveGrid::upload(&dev, SepKernel::Syrk, &sizes, 0, nb).unwrap();
        syrk_vbatched(&dev, grid, Uplo::Lower, view, nb).unwrap();
        for (i, &n) in sizes.iter().enumerate() {
            let mut want = hosts[i].clone();
            if n > nb {
                host_syrk(&mut want, n, nb);
            }
            let got = batch.download_matrix(i);
            // Only the lower triangle is defined; compare it.
            let lw = MatRef::from_slice(&want, n.max(1), n.max(1), n.max(1));
            let lg = MatRef::from_slice(&got, n.max(1), n.max(1), n.max(1));
            for jj in 0..n {
                for ii in jj..n {
                    let d = (lw.get(ii, jj) - lg.get(ii, jj)).abs();
                    assert!(d < 1e-10, "matrix {i} (n={n}) at ({ii},{jj}): {d}");
                }
            }
            // Upper triangle untouched.
            for jj in 0..n {
                for ii in 0..jj {
                    assert_eq!(got[ii + jj * n], hosts[i][ii + jj * n]);
                }
            }
        }
    }

    #[test]
    fn lower_tile_decodes_row_by_row() {
        let mut t = 0;
        for r in 0..40 {
            for c in 0..=r {
                assert_eq!(lower_tile(t), (r, c), "tile {t}");
                t += 1;
            }
        }
    }

    /// The decision layer runs on the host: the upper tiles are
    /// never dispatched, so none has to exit early.
    #[test]
    fn decision_layer_kills_upper_tiles() {
        let dev = Device::new(DeviceConfig::k40c());
        let n = 130;
        let nb = 8;
        let mut rng = seeded_rng(72);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &[n]).unwrap();
        batch
            .upload_matrix(0, &spd_vec::<f64>(&mut rng, n))
            .unwrap();
        let st = StepState::<f64>::alloc(&dev, 1).unwrap();
        st.update(&dev, batch.view(), 0).unwrap();
        let (grid, _starts) = LiveGrid::upload(&dev, SepKernel::Syrk, &[n], 0, nb).unwrap();
        let stats = syrk_vbatched(&dev, grid, Uplo::Lower, st.view(batch.view()), nb).unwrap();
        // trail = 122 → 4 tiles per dim → the 10 lower tiles, none dead.
        assert_eq!(stats.timing.blocks, 10);
        assert_eq!(stats.timing.early_exit_blocks, 0);
    }
}
