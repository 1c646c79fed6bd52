//! Vbatched tiled `gemm` (paper §III-E2).
//!
//! "… a vbatched `gemm` kernel, which was optimized and autotuned based
//! on techniques from the classic MAGMA `gemm` routine." The grid is
//! three-dimensional: `(row tiles, column tiles, batch index)`, sized
//! for the *largest* matrix in the batch; blocks whose tile falls
//! outside their matrix terminate immediately (ETM-classic — these
//! kernels keep all threads of live blocks in sync).
//!
//! The LU extension's trailing update (`A22 ← A22 − L21·U12`) is its
//! one caller in the drivers: the separated Cholesky path updates with
//! [`crate::sep::syrk`] and applies its panel with `trmm`, and QR
//! updates with its own `larfb` kernel.

use vbatch_dense::{Scalar, Trans};
use vbatch_gpu_sim::{Device, Dim3, KernelStats, LaunchConfig};

use crate::batch::BatchView;
use crate::etm::EtmPolicy;
use crate::kernels::{charge_flops, charge_read, charge_smem, charge_write, mat_mut, mat_ref};
use crate::report::VbatchError;

/// Row-tile height.
pub(crate) const TILE_M: usize = 64;
/// Column-tile width.
pub(crate) const TILE_N: usize = 32;
/// Inner blocking (stages staged through shared memory).
pub(crate) const TILE_K: usize = 8;
/// Threads per gemm block.
pub(crate) const THREADS: u32 = 128;

/// `C_i ← α·op(A_i)·op(B_i) + β·C_i` for each of `c`'s matrices. `m`
/// and `n` are `C_i`'s rows and columns, and `k` is `op(A_i)`'s
/// columns.
///
/// `max_m`/`max_n` size the grid (the expert interface of §III-A —
/// callers without them run the aux max kernels first). Matrices whose
/// `m`, `n` or `k` is zero, or whose tile falls outside their extent,
/// cost one early-terminated block dispatch.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] on an empty view or grid;
/// [`VbatchError::Launch`] on launch rejection.
#[allow(clippy::too_many_arguments)]
pub fn gemm_vbatched<T: Scalar>(
    dev: &Device,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: BatchView<T>,
    b: BatchView<T>,
    beta: T,
    c: BatchView<T>,
    max_m: usize,
    max_n: usize,
) -> Result<KernelStats, VbatchError> {
    let count = c.count;
    if count == 0 || max_m == 0 || max_n == 0 {
        return Err(VbatchError::InvalidArgument("gemm_vbatched: empty launch"));
    }
    let grid = Dim3::xyz(
        max_m.div_ceil(TILE_M) as u32,
        max_n.div_ceil(TILE_N) as u32,
        count as u32,
    );
    let smem = (TILE_M + TILE_N) * TILE_K * T::BYTES;
    let cfg = LaunchConfig::new(grid, Dim3::x(THREADS), smem);
    let stats = dev.launch(kname!(T, "gemm_vbatched"), cfg, move |ctx| {
        let bi = ctx.block_idx().x as usize;
        let bj = ctx.block_idx().y as usize;
        let i = ctx.block_idx().z as usize;
        let (m, n, ldc) = c.dims(i);
        let (a_rows, a_cols, lda) = a.dims(i);
        let k = match transa {
            Trans::NoTrans => a_cols,
            Trans::Trans => a_rows,
        };
        let r0 = bi * TILE_M;
        let c0 = bj * TILE_N;
        // Decision layer: tiles outside this matrix's extent die.
        let live = r0 < m && c0 < n && k > 0;
        if !EtmPolicy::Classic.apply(ctx, if live { 1 } else { 0 }) {
            return;
        }
        let mt = TILE_M.min(m - r0);
        let nt = TILE_N.min(n - c0);

        let (_, _, ldb) = b.dims(i);
        let a_view = match transa {
            Trans::NoTrans => mat_ref(a.ptrs.get(i), m, k, lda).sub(r0, 0, mt, k),
            Trans::Trans => mat_ref(a.ptrs.get(i), k, m, lda).sub(0, r0, k, mt),
        };
        let b_view = match transb {
            Trans::NoTrans => mat_ref(b.ptrs.get(i), k, n, ldb).sub(0, c0, k, nt),
            Trans::Trans => mat_ref(b.ptrs.get(i), n, k, ldb).sub(c0, 0, nt, k),
        };
        let c_view = mat_mut(c.ptrs.get(i), m, n, ldc).sub(r0, c0, mt, nt);
        vbatch_dense::gemm(transa, transb, alpha, a_view, b_view, beta, c_view);

        let active = ((THREADS as usize) * mt * nt)
            .div_ceil(TILE_M * TILE_N)
            .max(1);
        charge_read::<T>(
            ctx,
            mt * k + k * nt + if beta == T::ZERO { 0 } else { mt * nt },
        );
        charge_write::<T>(ctx, mt * nt);
        charge_smem::<T>(ctx, (mt + nt) * k);
        charge_flops::<T>(ctx, active, 2.0 * mt as f64 * nt as f64 * k as f64);
        for _ in 0..k.div_ceil(TILE_K) {
            ctx.sync();
        }
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VBatch;
    use vbatch_dense::gen::{rand_mat, seeded_rng};
    use vbatch_dense::naive;
    use vbatch_dense::verify::max_abs_diff_slices;
    use vbatch_gpu_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::k40c())
    }

    #[test]
    fn matches_reference_all_trans_variable_dims() {
        let d = dev();
        let mut rng = seeded_rng(51);
        let problems: Vec<(usize, usize, usize)> = vec![
            (70, 40, 9),
            (5, 5, 5),
            (130, 33, 16),
            (1, 64, 3),
            (64, 1, 1),
        ];
        for &(ta, tb) in &[
            (Trans::NoTrans, Trans::NoTrans),
            (Trans::NoTrans, Trans::Trans),
            (Trans::Trans, Trans::NoTrans),
            (Trans::Trans, Trans::Trans),
        ] {
            // Build batches of A, B, C with per-problem shapes.
            let a_dims: Vec<(usize, usize)> = problems
                .iter()
                .map(|&(m, _, k)| if ta == Trans::NoTrans { (m, k) } else { (k, m) })
                .collect();
            let b_dims: Vec<(usize, usize)> = problems
                .iter()
                .map(|&(_, n, k)| if tb == Trans::NoTrans { (k, n) } else { (n, k) })
                .collect();
            let c_dims: Vec<(usize, usize)> = problems.iter().map(|&(m, n, _)| (m, n)).collect();
            let mut ab = VBatch::<f64>::alloc(&d, &a_dims).unwrap();
            let mut bb = VBatch::<f64>::alloc(&d, &b_dims).unwrap();
            let mut cb = VBatch::<f64>::alloc(&d, &c_dims).unwrap();
            let mut hosts = Vec::new();
            for (i, _) in problems.iter().enumerate() {
                let av = rand_mat::<f64>(&mut rng, a_dims[i].0 * a_dims[i].1);
                let bv = rand_mat::<f64>(&mut rng, b_dims[i].0 * b_dims[i].1);
                let cv = rand_mat::<f64>(&mut rng, c_dims[i].0 * c_dims[i].1);
                ab.upload_matrix(i, &av).unwrap();
                bb.upload_matrix(i, &bv).unwrap();
                cb.upload_matrix(i, &cv).unwrap();
                hosts.push((av, bv, cv));
            }
            gemm_vbatched(
                &d,
                ta,
                tb,
                1.5,
                ab.view(),
                bb.view(),
                -0.5,
                cb.view(),
                130,
                64,
            )
            .unwrap();
            for (i, &(m, n, k)) in problems.iter().enumerate() {
                let (av, bv, cv) = &hosts[i];
                let want = naive::gemm_ref(
                    ta,
                    tb,
                    1.5,
                    av,
                    a_dims[i].0,
                    a_dims[i].1,
                    bv,
                    b_dims[i].0,
                    b_dims[i].1,
                    -0.5,
                    cv,
                    m,
                    n,
                );
                let got = cb.download_matrix(i);
                assert!(
                    max_abs_diff_slices(&got, &want) < 1e-11,
                    "problem {i} ({m},{n},{k}) ta={ta:?} tb={tb:?}"
                );
            }
        }
    }

    #[test]
    fn dead_tiles_early_exit() {
        let d = dev();
        // One big and one tiny problem: grid sized for the big one, so
        // most blocks of the tiny one must early-exit.
        let mut rng = seeded_rng(52);
        let dims_host = [(200usize, 200usize), (5, 5)];
        let mut ab = VBatch::<f64>::alloc(&d, &dims_host).unwrap();
        let mut bb = VBatch::<f64>::alloc(&d, &dims_host).unwrap();
        let mut cb = VBatch::<f64>::alloc(&d, &dims_host).unwrap();
        for (i, &(m, n)) in dims_host.iter().enumerate() {
            ab.upload_matrix(i, &rand_mat::<f64>(&mut rng, m * n))
                .unwrap();
            bb.upload_matrix(i, &rand_mat::<f64>(&mut rng, m * n))
                .unwrap();
            cb.upload_matrix(i, &rand_mat::<f64>(&mut rng, m * n))
                .unwrap();
        }
        let stats = gemm_vbatched(
            &d,
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            ab.view(),
            bb.view(),
            0.0,
            cb.view(),
            200,
            200,
        )
        .unwrap();
        // Grid: 4×7 tiles × 2 matrices; the tiny matrix uses 1 tile.
        assert_eq!(stats.timing.blocks, 4 * 7 * 2);
        assert_eq!(stats.timing.early_exit_blocks, 4 * 7 - 1);
    }

    #[test]
    fn empty_launch_rejected() {
        let d = dev();
        let v = VBatch::<f64>::alloc(&d, &[]).unwrap().view();
        assert!(matches!(
            gemm_vbatched(&d, Trans::NoTrans, Trans::NoTrans, 1.0, v, v, 0.0, v, 1, 1),
            Err(VbatchError::InvalidArgument(_))
        ));
    }
}
