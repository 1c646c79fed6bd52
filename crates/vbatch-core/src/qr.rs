//! Vbatched Householder QR — the second stated future direction.
//!
//! Right-looking blocked algorithm over `NB`-wide panels:
//!
//! 1. a one-block-per-matrix **panel** kernel: `geqr2` on
//!    `A[j:m, j:j+jb]` plus the `larft` formation of the block
//!    reflector's `T` factor into a device workspace;
//! 2. a column-tiled **`larfb`** kernel applying
//!    `C ← (I − V·Tᵀ·Vᵀ)·C` to the trailing columns — the `gemm`-shaped
//!    update that dominates the flops, parallelized across column tiles
//!    and the batch.
//!
//! Both run on the LU driver body ([`crate::lu`]): its planner gives
//! each step's live prefix of the largest-first launch order, and one
//! grid row per matrix of it. QR's step function launches the panel on
//! the matrices with a panel and `larfb` on those through the last one
//! with trailing columns, as wide as the widest of those, or no `larfb`
//! when none has any. Column tiles past a narrower matrix's trailing
//! block still terminate early (ETM-classic).

use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Device, DevicePtr, Dim3, LaunchConfig};

use crate::batch::PerMatrixArray;
use crate::etm::EtmPolicy;
use crate::kernels::{
    charge_flops, charge_read, charge_smem, charge_write, mat_mut, mat_ref, panel_width,
    round_to_warp,
};
use crate::lu::run_panels;
use crate::recover::{fault_events_start, finish_recovery, with_retry, RecoveryPolicy};
use crate::report::{BatchReport, VbatchError};
use crate::workspace::DriverWorkspace;
use crate::VBatch;

/// Device-resident Householder scalar storage (`max_k` per matrix).
pub struct TauArray<T>(pub(crate) PerMatrixArray<T>);

impl<T: Scalar> TauArray<T> {
    /// Allocates `tau` storage for `count` matrices of up to `max_k`
    /// reflectors each.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub fn alloc(dev: &Device, count: usize, max_k: usize) -> Result<Self, VbatchError> {
        PerMatrixArray::alloc(dev, count, max_k).map(Self)
    }

    /// Device array of per-matrix `tau` pointers.
    #[must_use]
    pub fn d_ptrs(&self) -> DevicePtr<DevicePtr<T>> {
        self.0.d_ptrs()
    }

    /// Downloads matrix `i`'s first `k` Householder scalars.
    #[must_use]
    pub fn download(&self, i: usize, k: usize) -> Vec<T> {
        self.0.read(i, k).collect()
    }
}

/// Options for [`geqrf_vbatched`].
#[derive(Clone, Copy, Debug)]
pub struct GeqrfOptions {
    /// Outer panel width.
    pub nb_panel: usize,
    /// Trailing columns per `larfb` block.
    pub tile_cols: usize,
    /// Fault-recovery policy (see [`crate::recover`]).
    pub recovery: RecoveryPolicy,
}

impl Default for GeqrfOptions {
    fn default() -> Self {
        Self {
            nb_panel: 32,
            tile_cols: 32,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Variable-size batched Householder QR. Matrices may be rectangular.
/// Returns the (always-clean) report and the `tau` arena; the factors
/// land in place, LAPACK-style (R upper, reflectors below).
///
/// # Errors
/// [`VbatchError`] on launch/allocation failures.
pub fn geqrf_vbatched<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    opts: &GeqrfOptions,
) -> Result<(BatchReport, TauArray<T>), VbatchError> {
    geqrf_vbatched_ws(dev, batch, opts, &mut DriverWorkspace::new())
}

/// [`geqrf_vbatched`] with a caller-owned [`DriverWorkspace`]: the
/// `T`-factor arena is pooled, so warm calls only allocate the returned
/// `tau` arena.
///
/// # Errors
/// As [`geqrf_vbatched`].
pub fn geqrf_vbatched_ws<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    opts: &GeqrfOptions,
    ws: &mut DriverWorkspace<T>,
) -> Result<(BatchReport, TauArray<T>), VbatchError> {
    let (count, nb, pol) = (batch.count(), opts.nb_panel.max(1), opts.recovery);
    let mut tau = None;
    let report = run_panels(
        dev,
        batch,
        (nb, pol),
        ws,
        &mut tau,
        // Per-matrix T-factor workspace (nb × nb each), pooled; every
        // tile is fully rewritten by the panel kernel before `larfb`
        // reads it.
        |ws| PerMatrixArray::ensure(&mut ws.qr_t, dev, count, nb * nb),
        |rec, ws, tau, order, s| {
            let t_ptrs = ws
                .qr_t
                .as_ref()
                .expect("ensured by the scratch step")
                .d_ptrs();
            with_retry(dev, &pol, rec, || {
                geqr2_larft_panel(dev, batch, tau, t_ptrs, order.truncate(s.panel), s.j, nb)
            })?;
            if s.trail > 0 {
                with_retry(dev, &pol, rec, || {
                    let order = order.truncate(s.trail);
                    larfb_cols(dev, batch, t_ptrs, order, s.j, opts, s.trail_cols)
                })?;
            }
            Ok(())
        },
    )?;
    Ok((report, TauArray(tau.expect("run_panels fills the arena"))))
}

/// Panel factorization + `T` formation, block `b` on matrix
/// `order[b]`.
fn geqr2_larft_panel<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    tau_ptrs: DevicePtr<DevicePtr<T>>,
    t_ptrs: DevicePtr<DevicePtr<T>>,
    order: DevicePtr<i32>,
    j: usize,
    nb: usize,
) -> Result<(), VbatchError> {
    let a = batch.view();
    let threads =
        round_to_warp(nb * 4, dev.config().warp_size).min(dev.config().max_threads_per_block);
    let cfg =
        LaunchConfig::grid_1d(order.len() as u32, threads).with_shared_mem(2 * nb * nb * T::BYTES);
    dev.launch(kname!(T, "geqr2_vbatched"), cfg, move |ctx| {
        let i = order.get(ctx.linear_block_id()) as usize;
        let (m, n, ld) = a.dims(i);
        let jb = panel_width(m, n, j, nb);
        if !EtmPolicy::Classic.apply(ctx, jb) {
            return;
        }
        let rows = m - j;
        let panel = mat_mut(a.ptrs.get(i).offset(j * ld + j), rows, jb, ld);
        // tau and T land straight in their device arrays (this block is
        // the only one touching matrix i's slots), so the kernel needs
        // no staging copies.
        let mut tau_view = mat_mut(tau_ptrs.get(i).offset(j), jb, 1, jb);
        let tau_j = tau_view.col_as_mut_slice(0);
        vbatch_dense::geqr2(panel, tau_j);
        // Form T for the trailing update (only needed when trailing
        // columns exist, but forming it unconditionally matches the
        // fixed-shape kernel a GPU would compile).
        let v = mat_ref(a.ptrs.get(i).offset(j * ld + j), rows, jb, ld);
        vbatch_dense::larft(v, tau_j, mat_mut(t_ptrs.get(i), jb, jb, jb));
        charge_read::<T>(ctx, rows * jb);
        charge_write::<T>(ctx, rows * jb + jb + jb * jb);
        charge_flops::<T>(
            ctx,
            rows.min(256),
            vbatch_dense::flops::geqrf(rows, jb) + jb as f64 * jb as f64 * rows as f64,
        );
        for _ in 0..2 * jb {
            ctx.sync();
        }
    })?;
    Ok(())
}

/// Column-tiled trailing update `C ← (I − V·Tᵀ·Vᵀ)·C`, grid row `b` on
/// matrix `order[b]`, over `max_tcols` trailing columns.
fn larfb_cols<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    t_ptrs: DevicePtr<DevicePtr<T>>,
    order: DevicePtr<i32>,
    j: usize,
    opts: &GeqrfOptions,
    max_tcols: usize,
) -> Result<(), VbatchError> {
    let (nb, tile_cols) = (opts.nb_panel.max(1), opts.tile_cols.max(1));
    let a = batch.view();
    let grid = Dim3::xy(max_tcols.div_ceil(tile_cols) as u32, order.len() as u32);
    let smem = (nb * nb + nb * tile_cols) * T::BYTES;
    let cfg = LaunchConfig::new(grid, Dim3::x(128), smem);
    dev.launch(kname!(T, "larfb_vbatched"), cfg, move |ctx| {
        let bx = ctx.block_idx().x as usize;
        let i = order.get(ctx.block_idx().y as usize) as usize;
        let (m, n, ld) = a.dims(i);
        let jb = panel_width(m, n, j, nb);
        let tcols = n.saturating_sub(j + jb);
        let c0 = bx * tile_cols;
        let live = jb > 0 && c0 < tcols;
        if !EtmPolicy::Classic.apply(ctx, if live { 1 } else { 0 }) {
            return;
        }
        let tcw = tile_cols.min(tcols - c0);
        let rows = m - j;
        let v = mat_ref(a.ptrs.get(i).offset(j * ld + j), rows, jb, ld);
        let t = mat_ref(t_ptrs.get(i), jb, jb, jb);
        let c_view = mat_mut(a.ptrs.get(i).offset((j + jb + c0) * ld + j), rows, tcw, ld);
        vbatch_dense::larfb_left_t(v, t, c_view);
        let active = 128.min(tcw * 4).max(32);
        charge_read::<T>(ctx, rows * jb + jb * jb + rows * tcw);
        charge_write::<T>(ctx, rows * tcw);
        charge_smem::<T>(ctx, jb * (tcw + jb));
        charge_flops::<T>(ctx, active, 4.0 * rows as f64 * jb as f64 * tcw as f64);
        for _ in 0..jb.div_ceil(8).max(1) {
            ctx.sync();
        }
    })?;
    Ok(())
}

/// Applies `Qᵀ` from the left to each right-hand-side block, where `Q`
/// is held as Householder reflectors in a batch factored by
/// [`geqrf_vbatched`] (LAPACK `xORMQR`, left, transpose). One thread
/// block per matrix, reflectors applied in forward order. The caller
/// has checked the shapes (`crate::solve::check_rhs`) and that the
/// batch is not empty.
///
/// # Errors
/// [`VbatchError`] on launch failures.
fn ormqr_left_trans_vbatched<T: Scalar>(
    dev: &Device,
    factors: &VBatch<T>,
    tau: &TauArray<T>,
    rhs: &VBatch<T>,
) -> Result<(), VbatchError> {
    let count = factors.count();
    let (a, b) = (factors.view(), rhs.view());
    let tau_ptrs = tau.d_ptrs();
    let cfg = LaunchConfig::grid_1d(count as u32, 128);
    dev.launch(kname!(T, "ormqr_vbatched"), cfg, move |ctx| {
        let i = ctx.linear_block_id();
        let (m, n, lda) = a.dims(i);
        let k = m.min(n);
        let (_, nrhs, ldb) = b.dims(i);
        if !EtmPolicy::Classic.apply(ctx, if k > 0 && nrhs > 0 { 1 } else { 0 }) {
            return;
        }
        let tp = tau_ptrs.get(i);
        // Qᵀ·B = H_{k−1} ⋯ H_0 · B, applied in forward order.
        for r in 0..k {
            let tau_r = tp.get(r);
            if tau_r == T::ZERO {
                continue;
            }
            let v_tail = mat_ref(a.ptrs.get(i).offset(r * lda + r), m - r, 1, lda);
            let v_tail = v_tail.sub(1, 0, m - r - 1, 1);
            let c = mat_mut(b.ptrs.get(i).offset(r), m - r, nrhs, ldb);
            vbatch_dense::larf_left(v_tail, tau_r, c);
        }
        charge_read::<T>(ctx, m * k / 2 + m * nrhs);
        charge_write::<T>(ctx, m * nrhs);
        charge_flops::<T>(
            ctx,
            128.min(nrhs.max(1) * 4),
            4.0 * m as f64 * k as f64 * nrhs as f64,
        );
        for _ in 0..k {
            ctx.sync();
        }
    })?;
    Ok(())
}

/// Batched linear least squares (LAPACK `xGELS`, no-transpose,
/// overdetermined): factorizes each `m_i × n_i` matrix (`m_i ≥ n_i`)
/// with [`geqrf_vbatched`], applies `Qᵀ` to the right-hand sides and
/// solves the triangular systems. Solutions land in the leading `n_i`
/// rows of each right-hand-side block.
///
/// # Errors
/// [`VbatchError::InvalidArgument`], with the batch and the right-hand
/// sides untouched, on an underdetermined matrix, a count mismatch or
/// a right-hand side with fewer than `m_i` rows; otherwise
/// [`VbatchError`] on launch failures.
pub fn gels_vbatched<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    rhs: &VBatch<T>,
    opts: &GeqrfOptions,
) -> Result<BatchReport, VbatchError> {
    if batch.rows().iter().zip(batch.cols()).any(|(&m, &n)| m < n) {
        return Err(VbatchError::InvalidArgument(
            "gels_vbatched: every matrix must have m >= n",
        ));
    }
    crate::solve::check_rhs(batch, rhs, false)?;
    let ev_start = fault_events_start(dev);
    let (report, tau) = geqrf_vbatched(dev, batch, opts)?;
    if batch.count() == 0 {
        return Ok(report);
    }
    let pol = opts.recovery;
    let mut rec = report.recovery;
    // The `trsm` below skips a matrix whose right-hand side `info` is set.
    rhs.reset_info();
    with_retry(dev, &pol, &mut rec, || {
        ormqr_left_trans_vbatched(dev, batch, &tau, rhs)
    })?;
    // R X = (QᵀB)[0:n] — upper-triangular solves on the leading rows.
    with_retry(dev, &pol, &mut rec, || {
        crate::sep::trsm::trsm_left_vbatched(
            dev,
            vbatch_dense::Uplo::Upper,
            vbatch_dense::Trans::NoTrans,
            vbatch_dense::Diag::NonUnit,
            batch.view(),
            rhs.view(),
        )
    })?;
    // Re-capture from the gels entry point so injections during the
    // `ormqr`/`trsm` tail are reported alongside the factorization's.
    Ok(finish_recovery(dev, ev_start, rec, report.info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_dense::gen::{rand_mat, seeded_rng};
    use vbatch_dense::verify::{qr_residual, residual_tol};
    use vbatch_dense::MatRef;
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn variable_size_qr_residuals() {
        // Empty, 1x1, square, wide and tall shapes in one batch; the tall
        // ones are deep enough for the packed gemm steps of `larfb` and
        // span several column tiles.
        let dims = [
            (30usize, 30usize),
            (50, 20),
            (20, 50),
            (7, 7),
            (1, 3),
            (0, 4),
            (4, 0),
            (1, 1),
            (200, 70),
            (40, 90),
        ];
        let mut rng = seeded_rng(91);
        let origs: Vec<Vec<f64>> = dims
            .iter()
            .map(|&(m, n)| rand_mat::<f64>(&mut rng, m * n))
            .collect();
        let factor_once = || {
            let dev = Device::new(DeviceConfig::k40c());
            let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
            for (i, a) in origs.iter().enumerate() {
                if !a.is_empty() {
                    batch.upload_matrix(i, a).unwrap();
                }
            }
            let opts = GeqrfOptions {
                nb_panel: 8,
                tile_cols: 16,
                ..Default::default()
            };
            let (report, tau) = geqrf_vbatched(&dev, &mut batch, &opts).unwrap();
            assert!(report.all_ok());
            dims.iter()
                .enumerate()
                .map(|(i, &(m, n))| (batch.download_matrix(i), tau.download(i, m.min(n))))
                .collect::<Vec<(Vec<f64>, Vec<f64>)>>()
        };
        let first = factor_once();
        for (i, &(m, n)) in dims.iter().enumerate() {
            if m.min(n) == 0 {
                continue;
            }
            let (f, t) = &first[i];
            let (r, o) = qr_residual(
                MatRef::from_slice(f, m, n, m),
                t,
                MatRef::from_slice(&origs[i], m, n, m),
            );
            assert!(r < residual_tol::<f64>(m.max(n)), "matrix {i} residual {r}");
            assert!(
                o < residual_tol::<f64>(m.max(n)),
                "matrix {i} orthogonality {o}"
            );
        }
        // Blocks run on however many host threads there are, in any
        // order: factors and tau must not depend on it.
        let bits = |outs: &[(Vec<f64>, Vec<f64>)]| -> Vec<u64> {
            outs.iter()
                .flat_map(|(f, t)| f.iter().chain(t))
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&first), bits(&factor_once()));
    }

    #[test]
    fn qr_matches_host_geqrf() {
        let dev = Device::new(DeviceConfig::k40c());
        let (m, n) = (20usize, 16usize);
        let mut rng = seeded_rng(92);
        let a = rand_mat::<f64>(&mut rng, m * n);
        let mut batch = VBatch::<f64>::alloc(&dev, &[(m, n)]).unwrap();
        batch.upload_matrix(0, &a).unwrap();
        let (_, tau) = geqrf_vbatched(
            &dev,
            &mut batch,
            &GeqrfOptions {
                nb_panel: 4,
                tile_cols: 8,
                ..Default::default()
            },
        )
        .unwrap();
        let mut want = a.clone();
        let mut tau_want = vec![0.0f64; n];
        vbatch_dense::geqrf(
            vbatch_dense::MatMut::from_slice(&mut want, m, n, m),
            &mut tau_want,
            4,
        );
        let got = batch.download_matrix(0);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10, "factor mismatch");
        }
        for (g, w) in tau.download(0, n).iter().zip(&tau_want) {
            assert!((g - w).abs() < 1e-12, "tau mismatch");
        }
    }

    #[test]
    fn gels_recovers_planted_solutions() {
        // Consistent overdetermined systems: b = A·x exactly, so the
        // least-squares solution equals the planted x.
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(94);
        let dims = [(20usize, 8usize), (35, 35), (9, 2)];
        let nrhs = 2;
        let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
        let rhs_dims: Vec<(usize, usize)> = dims.iter().map(|&(m, _)| (m, nrhs)).collect();
        let mut rhs = VBatch::<f64>::alloc(&dev, &rhs_dims).unwrap();
        let mut xs = Vec::new();
        for (i, &(m, n)) in dims.iter().enumerate() {
            let a = rand_mat::<f64>(&mut rng, m * n);
            let x = rand_mat::<f64>(&mut rng, n * nrhs);
            let b = vbatch_dense::naive::gemm_ref(
                vbatch_dense::Trans::NoTrans,
                vbatch_dense::Trans::NoTrans,
                1.0,
                &a,
                m,
                n,
                &x,
                n,
                nrhs,
                0.0,
                &vec![0.0; m * nrhs],
                m,
                nrhs,
            );
            batch.upload_matrix(i, &a).unwrap();
            rhs.upload_matrix(i, &b).unwrap();
            xs.push(x);
        }
        let report = gels_vbatched(
            &dev,
            &mut batch,
            &rhs,
            &GeqrfOptions {
                nb_panel: 4,
                tile_cols: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.all_ok());
        for (i, &(_, n)) in dims.iter().enumerate() {
            let sol = rhs.download_matrix(i);
            // Solution sits in the leading n rows (ld = m).
            let m = dims[i].0;
            for c in 0..nrhs {
                for r in 0..n {
                    let got = sol[r + c * m];
                    let want = xs[i][r + c * n];
                    assert!(
                        (got - want).abs() < 1e-8,
                        "matrix {i} solution ({r},{c}): {got} vs {want}"
                    );
                }
            }
        }
    }

    /// Shapes `gels` cannot solve are rejected before the factorization,
    /// so neither batch is touched: an underdetermined matrix, and a
    /// right-hand side with fewer rows than its matrix (which `ormqr`
    /// would write past).
    #[test]
    fn gels_rejects_underdetermined() {
        let dev = Device::new(DeviceConfig::k40c());
        let mut batch = VBatch::<f64>::alloc(&dev, &[(3, 5)]).unwrap();
        let rhs = VBatch::<f64>::alloc(&dev, &[(3, 1)]).unwrap();
        assert!(matches!(
            gels_vbatched(&dev, &mut batch, &rhs, &GeqrfOptions::default()),
            Err(VbatchError::InvalidArgument(_))
        ));
        let mut rng = seeded_rng(92);
        let dims = [(9usize, 4usize), (6, 6)];
        let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
        let origs: Vec<Vec<f64>> = dims
            .iter()
            .map(|&(m, n)| rand_mat(&mut rng, m * n))
            .collect();
        for (i, a) in origs.iter().enumerate() {
            batch.upload_matrix(i, a).unwrap();
        }
        // Matrix 0 has 9 rows; its right-hand side only 4.
        let mut rhs = VBatch::<f64>::alloc(&dev, &[(4, 2), (6, 1)]).unwrap();
        rhs.upload_matrix(0, &[2.5; 8]).unwrap();
        assert!(matches!(
            gels_vbatched(&dev, &mut batch, &rhs, &GeqrfOptions::default()),
            Err(VbatchError::InvalidArgument(_))
        ));
        for (i, a) in origs.iter().enumerate() {
            assert_eq!(&batch.download_matrix(i), a, "matrix {i} was written");
        }
        assert_eq!(rhs.download_matrix(0), vec![2.5; 8]);
        assert_eq!(dev.launch_count(), 0);
        // An empty batch has nothing to reject, as in every other driver.
        let mut empty = VBatch::<f64>::alloc(&dev, &[]).unwrap();
        let rhs = VBatch::<f64>::alloc(&dev, &[]).unwrap();
        let report = gels_vbatched(&dev, &mut empty, &rhs, &GeqrfOptions::default()).unwrap();
        assert!(report.all_ok() && report.info.is_empty());
    }

    #[test]
    fn f32_qr() {
        let dev = Device::new(DeviceConfig::k40c());
        let (m, n) = (25usize, 18usize);
        let mut rng = seeded_rng(93);
        let a = rand_mat::<f32>(&mut rng, m * n);
        let mut batch = VBatch::<f32>::alloc(&dev, &[(m, n)]).unwrap();
        batch.upload_matrix(0, &a).unwrap();
        let (report, tau) = geqrf_vbatched(&dev, &mut batch, &GeqrfOptions::default()).unwrap();
        assert!(report.all_ok());
        let f = batch.download_matrix(0);
        let (r, o) = qr_residual(
            MatRef::from_slice(&f, m, n, m),
            &tau.download(0, n),
            MatRef::from_slice(&a, m, n, m),
        );
        assert!(r < residual_tol::<f32>(m.max(n)), "residual {r}");
        assert!(o < residual_tol::<f32>(m.max(n)), "orthogonality {o}");
    }
}
