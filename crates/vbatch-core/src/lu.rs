//! Vbatched LU factorization with partial pivoting — the first of the
//! paper's stated future directions ("the extension of this work to the
//! LU and QR factorizations ... where many of the BLAS kernels proposed
//! here can be reused out of the box").
//!
//! Right-looking blocked algorithm over `NB`-wide panels:
//!
//! 1. a one-block-per-matrix **panel** kernel (`getf2` with partial
//!    pivoting, pivots recorded in a device pivot arena);
//! 2. a vbatched **`laswp`** applying the panel's row interchanges to
//!    the columns outside the panel;
//! 3. the reused vbatched **`trsm`** (`U12 ← L11⁻¹·A12`) and
//!    **`gemm`** (`A22 ← A22 − L21·U12`) kernels from [`crate::sep`],
//!    driven by an auxiliary step kernel that materializes the per-matrix
//!    displaced pointers and trailing dimensions on the device.

use vbatch_dense::{Diag, Scalar, Trans, Uplo};
use vbatch_gpu_sim::{Device, DeviceBuffer, DevicePtr, LaunchConfig};

use crate::batch::PerMatrixArray;
use crate::etm::EtmPolicy;
use crate::kernels::{charge_flops, charge_read, charge_write, kname, mat_mut, round_to_warp};
use crate::recover::{
    fault_events_start, finish_recovery, scrub_batch, with_retry, RecoveryPolicy, RecoveryReport,
};
use crate::report::{BatchReport, VbatchError};
use crate::sep::gemm::{gemm_vbatched, GemmDims};
use crate::sep::trsm::trsm_left_vbatched;
use crate::sep::VView;
use crate::VBatch;

/// Registered name of the LU per-step metadata kernel (see
/// [`vbatch_gpu_sim::intern::literal`]; lint VBA301 — constant kernel
/// names still register into the enumerable vocabulary).
fn lu_step_kname() -> &'static str {
    static NAME: std::sync::OnceLock<&'static str> = std::sync::OnceLock::new();
    NAME.get_or_init(|| vbatch_gpu_sim::intern::literal("vbatch_aux_lu_step"))
}

/// Device-resident pivot storage: `max_k` slots per matrix.
pub struct PivotArray(pub(crate) PerMatrixArray<i32>);

impl PivotArray {
    /// Allocates pivot storage for `count` matrices of up to `max_k`
    /// pivots each.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub fn alloc(dev: &Device, count: usize, max_k: usize) -> Result<Self, VbatchError> {
        PerMatrixArray::alloc(dev, count, max_k).map(Self)
    }

    /// [`PerMatrixArray::ensure`] on a pivot slot.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when a grow is needed and device memory is
    /// exhausted.
    pub(crate) fn ensure(
        slot: &mut Option<PivotArray>,
        dev: &Device,
        count: usize,
        max_k: usize,
    ) -> Result<(), VbatchError> {
        let mut inner = slot.take().map(|p| p.0);
        let grown = PerMatrixArray::ensure(&mut inner, dev, count, max_k);
        *slot = inner.map(Self);
        grown
    }

    /// Device array of per-matrix pivot pointers.
    #[must_use]
    pub fn d_ptrs(&self) -> DevicePtr<DevicePtr<i32>> {
        self.0.d_ptrs()
    }

    /// Downloads matrix `i`'s first `k` pivots as zero-based row indices.
    #[must_use]
    pub fn download(&self, i: usize, k: usize) -> Vec<usize> {
        self.0.read(i, k).map(|v| v as usize).collect()
    }
}

/// Per-step device views for the trailing updates, produced by an
/// auxiliary kernel (the §III-A device-side pointer arithmetic).
struct LuStep<T> {
    d_l11: DeviceBuffer<DevicePtr<T>>,
    d_a12: DeviceBuffer<DevicePtr<T>>,
    d_a21: DeviceBuffer<DevicePtr<T>>,
    d_a22: DeviceBuffer<DevicePtr<T>>,
    d_jb: DeviceBuffer<i32>,
    d_trows: DeviceBuffer<i32>,
    d_tcols: DeviceBuffer<i32>,
}

/// Pooled LU driver scratch, held inside
/// [`crate::workspace::DriverWorkspace`]: the per-step view buffers and
/// the always-clean info vector the trailing updates read. Grown on
/// demand, never shrunk. Reuse is safe: every `LuStep` buffer is fully
/// rewritten by the step kernel before the trailing kernels read it, and
/// the clean info vector is only ever read (zero forever).
pub struct LuWorkspace<T> {
    step: Option<LuStep<T>>,
    step_count: usize,
    clean_info: Option<DeviceBuffer<i32>>,
}

impl<T> Default for LuWorkspace<T> {
    fn default() -> Self {
        Self {
            step: None,
            step_count: 0,
            clean_info: None,
        }
    }
}

impl<T: Scalar> LuWorkspace<T> {
    /// Ensures coverage for `count` matrices, returning the step views
    /// and the clean-info pointer.
    fn scratch(
        &mut self,
        dev: &Device,
        count: usize,
    ) -> Result<(&LuStep<T>, DevicePtr<i32>), VbatchError> {
        if self.step.is_none() || self.step_count < count {
            self.step = None;
            self.step = Some(LuStep::alloc(dev, count)?);
            self.step_count = count;
        }
        if self.clean_info.as_ref().is_none_or(|b| b.len() < count) {
            self.clean_info = None;
            self.clean_info = Some(dev.alloc(count)?);
        }
        Ok((
            self.step.as_ref().expect("ensured above"),
            self.clean_info.as_ref().expect("ensured above").ptr(),
        ))
    }

    /// Device bytes currently held.
    #[must_use]
    pub fn device_bytes(&self) -> usize {
        let mut total = 0;
        if let Some(s) = &self.step {
            total += s.d_l11.bytes()
                + s.d_a12.bytes()
                + s.d_a21.bytes()
                + s.d_a22.bytes()
                + s.d_jb.bytes()
                + s.d_trows.bytes()
                + s.d_tcols.bytes();
        }
        if let Some(b) = &self.clean_info {
            total += b.bytes();
        }
        total
    }
}

impl<T: Scalar> LuStep<T> {
    fn alloc(dev: &Device, count: usize) -> Result<Self, VbatchError> {
        Ok(Self {
            d_l11: dev.alloc(count)?,
            d_a12: dev.alloc(count)?,
            d_a21: dev.alloc(count)?,
            d_a22: dev.alloc(count)?,
            d_jb: dev.alloc(count)?,
            d_trows: dev.alloc(count)?,
            d_tcols: dev.alloc(count)?,
        })
    }

    fn update(
        &self,
        dev: &Device,
        batch: &VBatch<T>,
        j: usize,
        nb: usize,
    ) -> Result<(), VbatchError> {
        let count = batch.count();
        let base = batch.d_ptrs();
        let d_m = batch.d_rows();
        let d_n = batch.d_cols();
        let d_ld = batch.d_ld();
        let (l11, a12, a21, a22) = (
            self.d_l11.ptr(),
            self.d_a12.ptr(),
            self.d_a21.ptr(),
            self.d_a22.ptr(),
        );
        let (djb, dtr, dtc) = (self.d_jb.ptr(), self.d_trows.ptr(), self.d_tcols.ptr());
        let blocks = count.div_ceil(256).max(1) as u32;
        dev.launch(
            lu_step_kname(),
            LaunchConfig::grid_1d(blocks, 256),
            move |ctx| {
                let b = ctx.block_idx().x as usize;
                let lo = b * 256;
                let hi = (lo + 256).min(count);
                for i in lo..hi {
                    let m = d_m.get(i).max(0) as usize;
                    let n = d_n.get(i).max(0) as usize;
                    let ld = d_ld.get(i).max(1) as usize;
                    let k = m.min(n);
                    let jb = k.saturating_sub(j).min(nb);
                    djb.set(i, jb as i32);
                    if jb == 0 {
                        l11.set(i, DevicePtr::null());
                        a12.set(i, DevicePtr::null());
                        a21.set(i, DevicePtr::null());
                        a22.set(i, DevicePtr::null());
                        dtr.set(i, 0);
                        dtc.set(i, 0);
                        continue;
                    }
                    let base_p = base.get(i);
                    l11.set(i, base_p.offset(j * ld + j));
                    let trows = m - j - jb;
                    let tcols = n - j - jb;
                    dtr.set(i, trows as i32);
                    dtc.set(i, tcols as i32);
                    a12.set(
                        i,
                        if tcols > 0 {
                            base_p.offset((j + jb) * ld + j)
                        } else {
                            DevicePtr::null()
                        },
                    );
                    a21.set(
                        i,
                        if trows > 0 {
                            base_p.offset(j * ld + j + jb)
                        } else {
                            DevicePtr::null()
                        },
                    );
                    a22.set(
                        i,
                        if trows > 0 && tcols > 0 {
                            base_p.offset((j + jb) * (ld + 1))
                        } else {
                            DevicePtr::null()
                        },
                    );
                }
                let span = hi - lo;
                ctx.gmem_read(span * 12);
                ctx.gmem_write(span * (12 + 4 * std::mem::size_of::<DevicePtr<T>>()));
            },
        )?;
        Ok(())
    }
}

/// Options for [`getrf_vbatched`].
#[derive(Clone, Copy, Debug)]
pub struct GetrfOptions {
    /// Outer panel width.
    pub nb_panel: usize,
    /// Response to transient device failures (see [`crate::recover`]).
    pub recovery: RecoveryPolicy,
}

impl Default for GetrfOptions {
    fn default() -> Self {
        Self {
            nb_panel: 64,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Variable-size batched LU with partial pivoting. Matrices may be
/// rectangular (`m_i × n_i`). Returns the per-matrix report and the
/// pivot arena (`min(m_i, n_i)` pivots each, zero-based, `laswp`
/// forward order).
///
/// # Errors
/// [`VbatchError`] on launch/allocation failures; singular matrices are
/// reported per-matrix (factorization continues, as in LAPACK).
pub fn getrf_vbatched<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    opts: &GetrfOptions,
) -> Result<(BatchReport, PivotArray), VbatchError> {
    getrf_vbatched_ws(
        dev,
        batch,
        opts,
        &mut crate::workspace::DriverWorkspace::new(),
    )
}

/// [`getrf_vbatched`] with a caller-owned
/// [`crate::workspace::DriverWorkspace`]: the per-step view buffers and
/// the clean info vector are pooled, so warm calls only allocate the
/// returned pivot arena.
///
/// # Errors
/// As [`getrf_vbatched`].
pub fn getrf_vbatched_ws<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    opts: &GetrfOptions,
    ws: &mut crate::workspace::DriverWorkspace<T>,
) -> Result<(BatchReport, PivotArray), VbatchError> {
    let mut slot = None;
    let report = getrf_vbatched_pooled(dev, batch, opts, ws, &mut slot)?;
    Ok((report, slot.expect("pooled getrf always fills the slot")))
}

/// [`getrf_vbatched_ws`] with caller-owned pivot storage: the pivot
/// arena in `pivots` is grown on demand and reused across calls, so a
/// warm call of non-growing shape performs **zero** device allocations.
/// This is the entry point the multi-device shard scheduler dispatches
/// through; pivots are read back per matrix via
/// [`PivotArray::download`] on the filled slot.
///
/// # Errors
/// As [`getrf_vbatched`].
pub fn getrf_vbatched_pooled<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    opts: &GetrfOptions,
    ws: &mut crate::workspace::DriverWorkspace<T>,
    pivots: &mut Option<PivotArray>,
) -> Result<BatchReport, VbatchError> {
    let ev_start = fault_events_start(dev);
    let mut rec = RecoveryReport::default();
    let pol = opts.recovery;
    let count = batch.count();
    let nb = opts.nb_panel.max(1);
    let k_max = batch
        .rows()
        .iter()
        .zip(batch.cols())
        .map(|(&m, &n)| m.min(n))
        .max()
        .unwrap_or(0);
    batch.reset_info();
    with_retry(dev, &pol, &mut rec, || {
        PivotArray::ensure(pivots, dev, count.max(1), k_max)
    })?;
    let pivots = pivots.as_ref().expect("ensured above");
    if count == 0 || k_max == 0 {
        return Ok(BatchReport::from_parts(batch.read_info(), rec));
    }
    batch.register_fault_targets(dev);
    // Trailing kernels must keep running for singular matrices (LAPACK
    // continues past a zero pivot), so they get an always-clean info.
    let (step, clean_info) = with_retry(dev, &pol, &mut rec, || {
        ws.lu.scratch(dev, count).map(|_| ())
    })
    .and(ws.lu.scratch(dev, count))?;

    let max_m = batch.max_rows();
    let max_n = batch.max_cols();

    let mut j = 0;
    while j < k_max {
        with_retry(dev, &pol, &mut rec, || {
            getf2_panel(dev, batch, pivots, j, nb)
        })?;
        with_retry(dev, &pol, &mut rec, || {
            laswp_outside(dev, batch, pivots, j, nb)
        })?;
        with_retry(dev, &pol, &mut rec, || step.update(dev, batch, j, nb))?;

        // Host-side conservative bounds for the trailing grids.
        let max_trows = batch
            .rows()
            .iter()
            .zip(batch.cols())
            .map(|(&m, &n)| {
                let jb = m.min(n).saturating_sub(j).min(nb);
                if jb == 0 {
                    0
                } else {
                    m - j - jb
                }
            })
            .max()
            .unwrap_or(0);
        let max_tcols = batch
            .rows()
            .iter()
            .zip(batch.cols())
            .map(|(&m, &n)| {
                let jb = m.min(n).saturating_sub(j).min(nb);
                if jb == 0 {
                    0
                } else {
                    n - j - jb
                }
            })
            .max()
            .unwrap_or(0);

        if max_tcols > 0 {
            // U12 ← L11⁻¹ · A12 (unit lower).
            with_retry(dev, &pol, &mut rec, || {
                trsm_left_vbatched(
                    dev,
                    count,
                    Uplo::Lower,
                    Trans::NoTrans,
                    Diag::Unit,
                    VView::new(step.d_l11.ptr(), batch.d_ld()),
                    VView::new(step.d_a12.ptr(), batch.d_ld()),
                    step.d_jb.ptr(),
                    step.d_tcols.ptr(),
                    clean_info,
                )
            })?;
        }
        if max_trows > 0 && max_tcols > 0 {
            // A22 ← A22 − L21 · U12.
            with_retry(dev, &pol, &mut rec, || {
                gemm_vbatched(
                    dev,
                    count,
                    Trans::NoTrans,
                    Trans::NoTrans,
                    -T::ONE,
                    VView::new(step.d_a21.ptr(), batch.d_ld()),
                    VView::new(step.d_a12.ptr(), batch.d_ld()),
                    T::ONE,
                    VView::new(step.d_a22.ptr(), batch.d_ld()),
                    GemmDims {
                        d_m: step.d_trows.ptr(),
                        d_n: step.d_tcols.ptr(),
                        d_k: step.d_jb.ptr(),
                    },
                    max_trows,
                    max_tcols,
                )
            })?;
        }
        scrub_batch(dev, batch, &pol, &mut rec)?;
        j += nb;
        let _ = (max_m, max_n);
    }

    dev.copy_dtoh_bytes(count * 4);
    let info = batch.read_info();
    finish_recovery(dev, ev_start, &mut rec, &info);
    Ok(BatchReport::from_parts(info, rec))
}

/// One-block-per-matrix panel factorization with partial pivoting.
fn getf2_panel<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    pivots: &PivotArray,
    j: usize,
    nb: usize,
) -> Result<(), VbatchError> {
    let count = batch.count();
    let base = batch.d_ptrs();
    let d_m = batch.d_rows();
    let d_n = batch.d_cols();
    let d_ld = batch.d_ld();
    let d_info = batch.d_info();
    let piv = pivots.d_ptrs();
    let threads =
        round_to_warp(nb * 4, dev.config().warp_size).min(dev.config().max_threads_per_block);
    let cfg = LaunchConfig::grid_1d(count as u32, threads).with_shared_mem(nb * nb * T::BYTES);
    dev.launch(kname::<T>("getf2_vbatched"), cfg, move |ctx| {
        let i = ctx.linear_block_id();
        let m = d_m.get(i).max(0) as usize;
        let n = d_n.get(i).max(0) as usize;
        let k = m.min(n);
        let jb = k.saturating_sub(j).min(nb);
        if !EtmPolicy::Classic.apply(ctx, jb) {
            return;
        }
        let ld = d_ld.get(i).max(1) as usize;
        let rows = m - j;
        let panel = mat_mut(base.get(i).offset(j * ld + j), rows, jb, ld);
        // Per-block pivot scratch sized by the runtime panel width nb — the
        // host analog of the nb*nb shared memory this launch declares in
        // its LaunchConfig; pooling it would need per-block aliasing unsafe.
        // analyze:allow(kernel-purity): panel scratch = declared shared memory analog
        let mut local = vec![0usize; jb];
        let res = vbatch_dense::getf2(panel, &mut local);
        let p = piv.get(i);
        for (t, &lp) in local.iter().enumerate() {
            p.set(j + t, (j + lp) as i32);
        }
        if let Err(vbatch_dense::Error::Singular { column }) = res {
            if d_info.get(i) == 0 {
                d_info.set(i, (j + column + 1) as i32);
            }
        }
        charge_read::<T>(ctx, rows * jb);
        charge_write::<T>(ctx, rows * jb + jb);
        charge_flops::<T>(ctx, rows.min(256), vbatch_dense::flops::getrf(rows, jb));
        for _ in 0..jb {
            ctx.sync();
        }
    })?;
    Ok(())
}

/// Applies the step's row interchanges to the columns outside the panel.
fn laswp_outside<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    pivots: &PivotArray,
    j: usize,
    nb: usize,
) -> Result<(), VbatchError> {
    let count = batch.count();
    let base = batch.d_ptrs();
    let d_m = batch.d_rows();
    let d_n = batch.d_cols();
    let d_ld = batch.d_ld();
    let piv = pivots.d_ptrs();
    let cfg = LaunchConfig::grid_1d(count as u32, 128);
    dev.launch(kname::<T>("laswp_vbatched"), cfg, move |ctx| {
        let i = ctx.linear_block_id();
        let m = d_m.get(i).max(0) as usize;
        let n = d_n.get(i).max(0) as usize;
        let k = m.min(n);
        let jb = k.saturating_sub(j).min(nb);
        let outside = n.saturating_sub(jb); // columns not in the panel
        if !EtmPolicy::Classic.apply(ctx, if jb > 0 && outside > 0 { 1 } else { 0 }) {
            return;
        }
        let ld = d_ld.get(i).max(1) as usize;
        let a = mat_mut(base.get(i), m, n, ld);
        let p = piv.get(i);
        let mut swapped = 0usize;
        let mut a = a;
        for t in j..j + jb {
            let pr = p.get(t) as usize;
            if pr != t {
                for c in (0..j).chain(j + jb..n) {
                    let x = a.get(t, c);
                    a.set(t, c, a.get(pr, c));
                    a.set(pr, c, x);
                }
                swapped += 1;
            }
        }
        charge_read::<T>(ctx, 2 * swapped * outside);
        charge_write::<T>(ctx, 2 * swapped * outside);
        ctx.sync();
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_dense::gen::{rand_mat, seeded_rng};
    use vbatch_dense::verify::{lu_residual, residual_tol};
    use vbatch_dense::MatRef;
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn variable_size_lu_residuals() {
        let dev = Device::new(DeviceConfig::k40c());
        let dims = [
            (40usize, 40usize),
            (7, 7),
            (90, 60),
            (33, 70),
            (1, 1),
            (0, 5),
        ];
        let mut rng = seeded_rng(81);
        let mut batch = VBatch::<f64>::alloc(&dev, &dims).unwrap();
        let origs: Vec<Vec<f64>> = dims
            .iter()
            .enumerate()
            .map(|(i, &(m, n))| {
                let a = rand_mat::<f64>(&mut rng, m * n);
                if m * n > 0 {
                    batch.upload_matrix(i, &a).unwrap();
                }
                a
            })
            .collect();
        let (report, pivots) = getrf_vbatched(
            &dev,
            &mut batch,
            &GetrfOptions {
                nb_panel: 16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.all_ok(), "{:?}", report.failures());
        for (i, &(m, n)) in dims.iter().enumerate() {
            let k = m.min(n);
            if k == 0 {
                continue;
            }
            let f = batch.download_matrix(i);
            let ipiv = pivots.download(i, k);
            let r = lu_residual(
                MatRef::from_slice(&f, m, n, m),
                &ipiv,
                MatRef::from_slice(&origs[i], m, n, m),
            );
            assert!(r < residual_tol::<f64>(m.max(n)), "matrix {i} residual {r}");
        }
    }

    #[test]
    fn lu_matches_host_getrf_pivots() {
        let dev = Device::new(DeviceConfig::k40c());
        let (m, n) = (24usize, 24usize);
        let mut rng = seeded_rng(82);
        let a = rand_mat::<f64>(&mut rng, m * n);
        let mut batch = VBatch::<f64>::alloc(&dev, &[(m, n)]).unwrap();
        batch.upload_matrix(0, &a).unwrap();
        let (report, pivots) = getrf_vbatched(
            &dev,
            &mut batch,
            &GetrfOptions {
                nb_panel: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(report.all_ok());
        // Host reference with the same blocking.
        let mut want = a.clone();
        let mut p_want = vec![0usize; m];
        vbatch_dense::getrf(
            vbatch_dense::MatMut::from_slice(&mut want, m, n, m),
            &mut p_want,
            8,
        )
        .unwrap();
        let got = batch.download_matrix(0);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-10);
        }
        assert_eq!(pivots.download(0, m), p_want);
    }

    #[test]
    fn singular_matrix_reported_continues() {
        let dev = Device::new(DeviceConfig::k40c());
        let n = 12;
        let mut rng = seeded_rng(83);
        let good = rand_mat::<f64>(&mut rng, n * n);
        // Matrix with an exactly-zero column → zero pivot at column 5
        // (floating-point elimination keeps it exactly zero).
        let mut bad = good.clone();
        for r in 0..n {
            bad[r + 5 * n] = 0.0;
        }
        let mut batch = VBatch::<f64>::alloc(&dev, &[(n, n), (n, n)]).unwrap();
        batch.upload_matrix(0, &bad).unwrap();
        batch.upload_matrix(1, &good).unwrap();
        let (report, pivots) = getrf_vbatched(
            &dev,
            &mut batch,
            &GetrfOptions {
                nb_panel: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.failure_count(), 1);
        assert_eq!(report.failures()[0].0, 0);
        // The healthy matrix is still correct.
        let f = batch.download_matrix(1);
        let ipiv = pivots.download(1, n);
        let r = lu_residual(
            MatRef::from_slice(&f, n, n, n),
            &ipiv,
            MatRef::from_slice(&good, n, n, n),
        );
        assert!(r < residual_tol::<f64>(n));
    }
}
