//! Vbatched symmetric rank-k update (paper §III-E3).
//!
//! "The `syrk` operation is realized as a `gemm` with an additional
//! decision layer that identifies thread blocks required to update
//! either the upper or the lower triangular part of the trailing
//! submatrix, and thus terminating all other thread blocks."
//!
//! Two variants, as in the paper:
//!
//! * [`syrk_vbatched`] — one launch, 3-D tile grid over the whole
//!   batch, decision layer kills upper-triangle tiles;
//! * [`syrk_streamed`] — "one kernel is launched per matrix and
//!   concurrent kernel execution is realized using CUDA streams", the
//!   cuBLAS-style alternative. Pays one launch overhead per matrix but
//!   wastes no dead blocks; which one wins is a tuning decision the
//!   driver's [`crate::SyrkMode`] exposes.

use vbatch_dense::{Scalar, Trans, Uplo};
use vbatch_gpu_sim::{BlockCtx, Device, DevicePtr, Dim3, KernelStats, LaunchConfig, LaunchError};

use crate::etm::EtmPolicy;
use crate::kernels::{
    charge_flops, charge_read, charge_smem, charge_write, kname, mat_mut, mat_ref,
};
use crate::report::VbatchError;
use crate::sep::{VView, SYRK_TILE};

/// Tile body shared by both variants: update the `(bi, bj)` lower tile
/// of `C_i ← C_i − A21_i · A21_iᵀ` for a matrix with `trail` trailing
/// rows and panel width `k`. `a` points at the displaced `A(j,j)`.
#[allow(clippy::too_many_arguments)]
fn syrk_tile_math<T: Scalar>(
    ctx: &mut BlockCtx,
    uplo: Uplo,
    a_ptr: DevicePtr<T>,
    ld: usize,
    rem: usize,
    trail: usize,
    k: usize,
    bi: usize,
    bj: usize,
) {
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
        // into a stack tile — the simulated analog of shared memory;
        // kernel purity (VBA101) bans heap allocation in kernel bodies —
        // and write only the stored triangle.
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
}

/// Batched trailing update `A22_i ← A22_i − A21_i·A21_iᵀ` (lower) with
/// the triangular decision layer. `max_trail` sizes the tile grid.
///
/// # Errors
/// [`VbatchError::Launch`] on launch rejection.
#[allow(clippy::too_many_arguments)]
pub fn syrk_vbatched<T: Scalar>(
    dev: &Device,
    count: usize,
    uplo: Uplo,
    a: VView<T>,
    d_rem: DevicePtr<i32>,
    d_info: DevicePtr<i32>,
    nb_panel: usize,
    max_trail: usize,
) -> Result<KernelStats, VbatchError> {
    if max_trail == 0 || count == 0 {
        return Err(VbatchError::InvalidArgument(
            "syrk_vbatched: no trailing rows",
        ));
    }
    let tiles = max_trail.div_ceil(SYRK_TILE) as u32;
    let grid = Dim3::xyz(tiles, tiles, count as u32);
    let smem = 2 * SYRK_TILE * 8 * T::BYTES;
    let cfg = LaunchConfig::new(grid, Dim3::x(128), smem);
    let stats = dev.launch(kname::<T>("syrk_vbatched"), cfg, move |ctx| {
        let bi = ctx.block_idx().x as usize;
        let bj = ctx.block_idx().y as usize;
        let i = ctx.block_idx().z as usize;
        let rem = d_rem.get(i).max(0) as usize;
        let trail = rem.saturating_sub(nb_panel);
        // Decision layer: tiles in the unused triangle and out-of-range
        // tiles die.
        let in_tri = match uplo {
            Uplo::Lower => bi >= bj,
            Uplo::Upper => bi <= bj,
        };
        let live = trail > 0
            && in_tri
            && bi * SYRK_TILE < trail
            && bj * SYRK_TILE < trail
            && d_info.get(i) == 0;
        if !EtmPolicy::Classic.apply(ctx, if live { 1 } else { 0 }) {
            return;
        }
        let ld = a.lds.get(i) as usize;
        syrk_tile_math::<T>(ctx, uplo, a.ptrs.get(i), ld, rem, trail, nb_panel, bi, bj);
    })?;
    Ok(stats)
}

/// General-purpose vbatched `syrk`:
/// `C_i ← α·op(A_i)·op(A_i)ᵀ + β·C_i` on the `uplo` triangle, with
/// independent `A`/`C` operands and per-matrix dimensions — the
/// standalone BLAS routine of the "foundation" the paper describes
/// (the driver's trailing update uses the specialized
/// [`syrk_vbatched`] instead, which exploits the in-place layout).
///
/// `d_n` is the order of `C_i`, `d_k` the rank of the update; `trans`
/// selects `A_i` (`n×k`, `NoTrans`) or `A_iᵀ` (`k×n`, `Trans`).
///
/// # Errors
/// [`VbatchError::Launch`] on launch rejection.
#[allow(clippy::too_many_arguments)]
pub fn syrk_general_vbatched<T: Scalar>(
    dev: &Device,
    count: usize,
    uplo: Uplo,
    trans: Trans,
    alpha: T,
    a: VView<T>,
    beta: T,
    c: VView<T>,
    d_n: DevicePtr<i32>,
    d_k: DevicePtr<i32>,
    max_n: usize,
) -> Result<KernelStats, VbatchError> {
    if max_n == 0 || count == 0 {
        return Err(VbatchError::InvalidArgument(
            "syrk_general_vbatched: empty launch",
        ));
    }
    let tiles = max_n.div_ceil(SYRK_TILE) as u32;
    let grid = Dim3::xyz(tiles, tiles, count as u32);
    let smem = 2 * SYRK_TILE * 8 * T::BYTES;
    let cfg = LaunchConfig::new(grid, Dim3::x(128), smem);
    let stats = dev.launch(kname::<T>("syrk_general_vbatched"), cfg, move |ctx| {
        let bi = ctx.block_idx().x as usize;
        let bj = ctx.block_idx().y as usize;
        let i = ctx.block_idx().z as usize;
        let n = d_n.get(i).max(0) as usize;
        let k = d_k.get(i).max(0) as usize;
        let in_tri = match uplo {
            Uplo::Lower => bi >= bj,
            Uplo::Upper => bi <= bj,
        };
        let r0 = bi * SYRK_TILE;
        let c0 = bj * SYRK_TILE;
        let live = n > 0 && k > 0 && in_tri && r0 < n && c0 < n;
        if !EtmPolicy::Classic.apply(ctx, if live { 1 } else { 0 }) {
            return;
        }
        let mt = SYRK_TILE.min(n - r0);
        let nt = SYRK_TILE.min(n - c0);
        let lda = a.lds.get(i) as usize;
        let ldc = c.lds.get(i) as usize;
        let (a_bi, a_bj, op) = match trans {
            Trans::NoTrans => (
                mat_ref(a.ptrs.get(i), n, k, lda).sub(r0, 0, mt, k),
                mat_ref(a.ptrs.get(i), n, k, lda).sub(c0, 0, nt, k),
                (Trans::NoTrans, Trans::Trans),
            ),
            Trans::Trans => (
                mat_ref(a.ptrs.get(i), k, n, lda).sub(0, r0, k, mt),
                mat_ref(a.ptrs.get(i), k, n, lda).sub(0, c0, k, nt),
                (Trans::Trans, Trans::NoTrans),
            ),
        };
        let c_tile = mat_mut(c.ptrs.get(i), n, n, ldc).sub(r0, c0, mt, nt);
        if bi == bj {
            // Stack tile (mt, nt ≤ SYRK_TILE) staging the full product
            // so only the stored triangle of C is written back —
            // kernel-purity (VBA101) bans heap allocation in launch
            // bodies, and this is the simulated analog of shared memory.
            let mut tmp = [T::ZERO; SYRK_TILE * SYRK_TILE];
            vbatch_dense::gemm(
                op.0,
                op.1,
                alpha,
                a_bi,
                a_bj,
                T::ZERO,
                vbatch_dense::MatMut::from_slice(&mut tmp[..mt * nt], mt, nt, mt),
            );
            let mut c_tile = c_tile;
            for jj in 0..nt {
                let (lo, hi) = match uplo {
                    Uplo::Lower => (jj, mt),
                    Uplo::Upper => (0, (jj + 1).min(mt)),
                };
                let col = &mut c_tile.col_as_mut_slice(jj)[lo..hi];
                let t = &tmp[jj * mt + lo..jj * mt + hi];
                if beta == T::ZERO {
                    // BLAS semantics: β = 0 overwrites, never reads.
                    col.copy_from_slice(t);
                } else {
                    for (ci, ti) in col.iter_mut().zip(t) {
                        *ci = beta.mul_add(*ci, *ti);
                    }
                }
            }
        } else {
            vbatch_dense::gemm(op.0, op.1, alpha, a_bi, a_bj, beta, c_tile);
        }
        let active = 128.min(mt * nt / 8).max(32);
        charge_read::<T>(ctx, (mt + nt) * k + mt * nt);
        charge_write::<T>(ctx, mt * nt);
        charge_smem::<T>(ctx, (mt + nt) * k);
        charge_flops::<T>(ctx, active, 2.0 * mt as f64 * nt as f64 * k as f64);
        for _ in 0..k.div_ceil(8).max(1) {
            ctx.sync();
        }
    })?;
    Ok(stats)
}

/// Streamed alternative: one kernel per matrix, issued through a stream
/// group (concurrent execution, per-matrix launch overhead, no dead
/// blocks from the decision layer).
///
/// Host mirrors of the trailing sizes (`trails`) drive the per-matrix
/// grids, as a cuBLAS-per-stream caller would know them.
///
/// `recovery` (from the driver's [`crate::recover::RecoveryPolicy`])
/// enables bounded retry of *individual* stream launches on injected
/// faults. The retry must live here, per sub-launch: stream-group blocks
/// execute at launch time, so retrying the whole group would re-apply
/// trailing updates that already ran.
///
/// # Errors
/// [`VbatchError::Launch`] on launch rejection.
#[allow(clippy::too_many_arguments)]
pub fn syrk_streamed<T: Scalar>(
    dev: &Device,
    uplo: Uplo,
    a: VView<T>,
    d_rem: DevicePtr<i32>,
    d_info: DevicePtr<i32>,
    trails: &[usize],
    nb_panel: usize,
    mut recovery: Option<(
        &crate::recover::RecoveryPolicy,
        &mut crate::recover::RecoveryReport,
    )>,
) -> Result<(), VbatchError> {
    let mut group = dev.stream_group(kname::<T>("syrk_streamed"));
    for (i, &trail) in trails.iter().enumerate() {
        if trail == 0 {
            continue;
        }
        let tiles = trail.div_ceil(SYRK_TILE) as u32;
        let cfg = LaunchConfig::new(
            Dim3::xy(tiles, tiles),
            Dim3::x(128),
            2 * SYRK_TILE * 8 * T::BYTES,
        );
        let kernel = move |ctx: &mut BlockCtx| {
            let bi = ctx.block_idx().x as usize;
            let bj = ctx.block_idx().y as usize;
            let rem = d_rem.get(i).max(0) as usize;
            let t = rem.saturating_sub(nb_panel);
            let in_tri = match uplo {
                Uplo::Lower => bi >= bj,
                Uplo::Upper => bi <= bj,
            };
            let live =
                t > 0 && in_tri && bi * SYRK_TILE < t && bj * SYRK_TILE < t && d_info.get(i) == 0;
            if !EtmPolicy::Classic.apply(ctx, if live { 1 } else { 0 }) {
                return;
            }
            let ld = a.lds.get(i) as usize;
            syrk_tile_math::<T>(ctx, uplo, a.ptrs.get(i), ld, rem, t, nb_panel, bi, bj);
        };
        let mut attempt = 0u32;
        loop {
            match group.launch(cfg, kernel) {
                Err(LaunchError::Injected) => {
                    let Some((pol, rec)) = recovery.as_mut() else {
                        return Err(LaunchError::Injected.into());
                    };
                    if attempt >= pol.max_retries {
                        return Err(LaunchError::Injected.into());
                    }
                    attempt += 1;
                    rec.retried_launches += 1;
                    dev.advance_time(pol.backoff_s * f64::from(attempt), 0.0);
                }
                other => {
                    other?;
                    break;
                }
            }
        }
    }
    group.sync();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux::StepState;
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

    fn run_case(streamed: bool) {
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
        st.update(
            &dev,
            batch.d_ptrs(),
            batch.d_cols(),
            batch.d_ld(),
            sizes.len(),
            0,
        )
        .unwrap();
        let view = VView::new(st.d_ptrs.ptr(), batch.d_ld());
        if streamed {
            let trails: Vec<usize> = sizes.iter().map(|&n| n.saturating_sub(nb)).collect();
            syrk_streamed(
                &dev,
                Uplo::Lower,
                view,
                st.d_rem.ptr(),
                batch.d_info(),
                &trails,
                nb,
                None,
            )
            .unwrap();
        } else {
            syrk_vbatched(
                &dev,
                sizes.len(),
                Uplo::Lower,
                view,
                st.d_rem.ptr(),
                batch.d_info(),
                nb,
                130 - nb,
            )
            .unwrap();
        }
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
    fn batched_matches_host_reference() {
        run_case(false);
    }

    #[test]
    fn streamed_matches_host_reference() {
        run_case(true);
    }

    #[test]
    fn general_syrk_matches_dense_reference() {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(73);
        let dims_nk: Vec<(usize, usize)> = vec![(40, 12), (7, 7), (65, 3), (1, 5)];
        for &trans in &[Trans::NoTrans, Trans::Trans] {
            for &uplo in &[Uplo::Lower, Uplo::Upper] {
                let a_dims: Vec<(usize, usize)> = dims_nk
                    .iter()
                    .map(|&(n, k)| {
                        if trans == Trans::NoTrans {
                            (n, k)
                        } else {
                            (k, n)
                        }
                    })
                    .collect();
                let c_dims: Vec<(usize, usize)> = dims_nk.iter().map(|&(n, _)| (n, n)).collect();
                let mut ab = VBatch::<f64>::alloc(&dev, &a_dims).unwrap();
                let mut cb = VBatch::<f64>::alloc(&dev, &c_dims).unwrap();
                let mut hosts = Vec::new();
                for (i, &(am, an)) in a_dims.iter().enumerate() {
                    let av = vbatch_dense::gen::rand_mat::<f64>(&mut rng, am * an);
                    let n = dims_nk[i].0;
                    let cv = vbatch_dense::gen::rand_mat::<f64>(&mut rng, n * n);
                    ab.upload_matrix(i, &av).unwrap();
                    cb.upload_matrix(i, &cv).unwrap();
                    hosts.push((av, cv));
                }
                let d_n: Vec<i32> = dims_nk.iter().map(|p| p.0 as i32).collect();
                let d_k: Vec<i32> = dims_nk.iter().map(|p| p.1 as i32).collect();
                let bn = dev.alloc::<i32>(d_n.len()).unwrap();
                let bk = dev.alloc::<i32>(d_k.len()).unwrap();
                bn.fill_from_host(&d_n);
                bk.fill_from_host(&d_k);
                syrk_general_vbatched(
                    &dev,
                    dims_nk.len(),
                    uplo,
                    trans,
                    1.5,
                    VView::new(ab.d_ptrs(), ab.d_ld()),
                    -0.5,
                    VView::new(cb.d_ptrs(), cb.d_ld()),
                    bn.ptr(),
                    bk.ptr(),
                    65,
                )
                .unwrap();
                for (i, &(n, k)) in dims_nk.iter().enumerate() {
                    let (av, cv) = &hosts[i];
                    let mut want = cv.clone();
                    let (am, an) = a_dims[i];
                    vbatch_dense::syrk(
                        uplo,
                        trans,
                        1.5,
                        MatRef::from_slice(av, am, an, am),
                        -0.5,
                        MatMut::from_slice(&mut want, n, n, n),
                    );
                    let got = cb.download_matrix(i);
                    for jj in 0..n {
                        for ii in 0..n {
                            let in_tri = match uplo {
                                Uplo::Lower => ii >= jj,
                                Uplo::Upper => ii <= jj,
                            };
                            let (g, w) = (got[ii + jj * n], want[ii + jj * n]);
                            if in_tri {
                                assert!(
                                    (g - w).abs() < 1e-10,
                                    "{uplo:?} {trans:?} matrix {i} (n={n},k={k}) at ({ii},{jj})"
                                );
                            } else {
                                assert_eq!(g, cv[ii + jj * n], "opposite triangle touched");
                            }
                        }
                    }
                }
            }
        }
    }

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
        st.update(&dev, batch.d_ptrs(), batch.d_cols(), batch.d_ld(), 1, 0)
            .unwrap();
        let stats = syrk_vbatched(
            &dev,
            1,
            Uplo::Lower,
            VView::new(st.d_ptrs.ptr(), batch.d_ld()),
            st.d_rem.ptr(),
            batch.d_info(),
            nb,
            n - nb,
        )
        .unwrap();
        // trail = 122 → 4 tiles per dim → 16 blocks, 6 strictly upper die.
        assert_eq!(stats.timing.blocks, 16);
        assert_eq!(stats.timing.early_exit_blocks, 6);
    }
}
