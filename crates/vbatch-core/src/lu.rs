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
//!
//! Every kernel runs in the call's launch order (the paper's implicit
//! sorting, §III-D2, see [`crate::workspace::DriverWorkspace`]'s
//! `launch_order`): largest matrix first, uploaded once, so the matrices
//! still live at a step are a prefix of it and each launch covers just
//! that prefix. A matrix that has finished gets no block, and the
//! heaviest blocks are placed first. Only inside the prefix, where
//! rectangular shapes can leave a matrix with no trailing work before
//! one that has some, and in `gemm`'s column tiles, do blocks still
//! terminate early (ETM-classic).

use vbatch_dense::{Diag, Scalar, Trans, Uplo};
use vbatch_gpu_sim::{Device, DeviceBuffer, DevicePtr, LaunchConfig};

use crate::batch::{BatchView, PerMatrixArray};
use crate::etm::EtmPolicy;
use crate::kernels::{
    charge_flops, charge_read, charge_write, mat_mut, panel_width, round_to_warp,
};
use crate::recover::{
    fault_events_start, finish_recovery, scrub_batch, with_retry, RecoveryPolicy, RecoveryReport,
};
use crate::report::{BatchReport, VbatchError};
use crate::sep::gemm::gemm_vbatched;
use crate::sep::trsm::trsm_left_vbatched;
use crate::VBatch;

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
/// auxiliary kernel (the §III-A device-side pointer arithmetic). Pooled
/// in [`crate::workspace::DriverWorkspace`]: every buffer is fully
/// rewritten by the step kernel before the trailing kernels read it.
pub(crate) struct LuStep<T> {
    d_l11: DeviceBuffer<DevicePtr<T>>,
    d_a12: DeviceBuffer<DevicePtr<T>>,
    d_a21: DeviceBuffer<DevicePtr<T>>,
    d_a22: DeviceBuffer<DevicePtr<T>>,
    d_jb: DeviceBuffer<i32>,
    d_trows: DeviceBuffer<i32>,
    d_tcols: DeviceBuffer<i32>,
    d_ld: DeviceBuffer<i32>,
}

impl<T: Scalar> LuStep<T> {
    pub(crate) fn alloc(dev: &Device, count: usize) -> Result<Self, VbatchError> {
        Ok(Self {
            d_l11: dev.alloc(count)?,
            d_a12: dev.alloc(count)?,
            d_a21: dev.alloc(count)?,
            d_a22: dev.alloc(count)?,
            d_jb: dev.alloc(count)?,
            d_trows: dev.alloc(count)?,
            d_tcols: dev.alloc(count)?,
            d_ld: dev.alloc(count)?,
        })
    }

    /// Matrices the views cover.
    pub(crate) fn count(&self) -> usize {
        self.d_jb.len()
    }

    /// Device bytes held.
    pub(crate) fn bytes(&self) -> usize {
        self.d_l11.bytes()
            + self.d_a12.bytes()
            + self.d_a21.bytes()
            + self.d_a22.bytes()
            + self.d_jb.bytes()
            + self.d_trows.bytes()
            + self.d_tcols.bytes()
            + self.d_ld.bytes()
    }

    /// The step's `L11`, `A12`, `A21` and `A22` blocks of `a`'s
    /// matrices as views, filled by [`LuStep::update`]: slot `b` holds
    /// the matrix the launch order puts at `b`, with its own leading
    /// dimension. Every view carries `info` (the always-clean vector),
    /// since the trailing kernels must keep running past a singular
    /// matrix.
    fn views(&self, a: BatchView<T>, info: DevicePtr<i32>) -> [BatchView<T>; 4] {
        let (jb, trows, tcols) = (self.d_jb.ptr(), self.d_trows.ptr(), self.d_tcols.ptr());
        let a = a.with_ld(self.d_ld.ptr());
        [
            a.blocks(self.d_l11.ptr(), jb, jb, info),
            a.blocks(self.d_a12.ptr(), jb, tcols, info),
            a.blocks(self.d_a21.ptr(), trows, jb, info),
            a.blocks(self.d_a22.ptr(), trows, tcols, info),
        ]
    }

    /// Fills view slot `b` for matrix `order[b]` at step `j`, for every
    /// `b` below `order.len()`; each of those matrices has a panel at
    /// this step.
    fn update(
        &self,
        dev: &Device,
        a: BatchView<T>,
        order: DevicePtr<i32>,
        j: usize,
        nb: usize,
    ) -> Result<(), VbatchError> {
        let count = order.len();
        let (l11, a12, a21, a22) = (
            self.d_l11.ptr(),
            self.d_a12.ptr(),
            self.d_a21.ptr(),
            self.d_a22.ptr(),
        );
        let (djb, dtr, dtc) = (self.d_jb.ptr(), self.d_trows.ptr(), self.d_tcols.ptr());
        let dld = self.d_ld.ptr();
        let blocks = count.div_ceil(256).max(1) as u32;
        dev.launch(
            "vbatch_aux_lu_step",
            LaunchConfig::grid_1d(blocks, 256),
            move |ctx| {
                let b = ctx.block_idx().x as usize;
                let lo = b * 256;
                let hi = (lo + 256).min(count);
                for s in lo..hi {
                    let i = order.get(s) as usize;
                    let (m, n, ld) = a.dims(i);
                    let jb = panel_width(m, n, j, nb);
                    djb.set(s, jb as i32);
                    dld.set(s, ld as i32);
                    let base_p = a.ptrs.get(i);
                    l11.set(s, base_p.offset(j * ld + j));
                    let trows = m - j - jb;
                    let tcols = n - j - jb;
                    dtr.set(s, trows as i32);
                    dtc.set(s, tcols as i32);
                    a12.set(
                        s,
                        if tcols > 0 {
                            base_p.offset((j + jb) * ld + j)
                        } else {
                            DevicePtr::null()
                        },
                    );
                    a21.set(
                        s,
                        if trows > 0 {
                            base_p.offset(j * ld + j + jb)
                        } else {
                            DevicePtr::null()
                        },
                    );
                    a22.set(
                        s,
                        if trows > 0 && tcols > 0 {
                            base_p.offset((j + jb) * (ld + 1))
                        } else {
                            DevicePtr::null()
                        },
                    );
                }
                // Per slot: the order entry and `m`/`n`/`ld` in; `jb`,
                // the trailing extents, `ld` and four pointers out.
                let span = hi - lo;
                ctx.gmem_read(span * 16);
                ctx.gmem_write(span * (16 + 4 * std::mem::size_of::<DevicePtr<T>>()));
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
    let k_max = batch.max_k();
    batch.reset_info();
    with_retry(dev, &pol, &mut rec, || {
        PivotArray::ensure(pivots, dev, count.max(1), k_max)
    })?;
    let pivots = pivots.as_ref().expect("ensured above");
    if count == 0 || k_max == 0 {
        return Ok(finish_recovery(dev, ev_start, rec, batch.read_info()));
    }
    batch.register_fault_targets(dev);
    let d_order = with_retry(dev, &pol, &mut rec, || {
        ws.launch_order(dev, batch.rows(), batch.cols())
    })?;
    // Trailing kernels must keep running for singular matrices (LAPACK
    // continues past a zero pivot), so they get an always-clean info.
    with_retry(dev, &pol, &mut rec, || ws.lu_scratch(dev, count))?;
    let (step, clean_info) = ws.lu_views();
    let order = ws.order();
    let a = batch.view();
    let [l11, a12, a21, a22] = step.views(a, clean_info);
    let (rows, cols) = (batch.rows(), batch.cols());

    let mut j = 0;
    while j < k_max {
        // The matrices with a panel at this step are a prefix of the
        // launch order. Inside it, from the size mirror: how far the
        // matrices with columns outside the panel (`laswp`), with
        // trailing columns (the step views and `trsm`) and with both
        // trailing rows and columns (`gemm`) reach, and `gemm`'s
        // extents. A kernel with no live block is not launched.
        let live = order.partition_point(|&i| rows[i].min(cols[i]) > j);
        let (mut swaps, mut trail, mut update) = (0, 0, 0);
        let (mut max_trows, mut max_tcols) = (0, 0);
        for (b, &i) in order[..live].iter().enumerate() {
            let (m, n) = (rows[i], cols[i]);
            let jb = panel_width(m, n, j, nb);
            let (trows, tcols) = (m - j - jb, n - j - jb);
            if n > jb {
                swaps = b + 1;
            }
            if tcols > 0 {
                trail = b + 1;
            }
            if trows > 0 && tcols > 0 {
                update = b + 1;
                max_trows = max_trows.max(trows);
                max_tcols = max_tcols.max(tcols);
            }
        }

        with_retry(dev, &pol, &mut rec, || {
            getf2_panel(dev, batch, pivots, d_order.truncate(live), j, nb)
        })?;
        if swaps > 0 {
            with_retry(dev, &pol, &mut rec, || {
                laswp_outside(dev, batch, pivots, d_order.truncate(swaps), j, nb)
            })?;
        }
        if trail > 0 {
            with_retry(dev, &pol, &mut rec, || {
                step.update(dev, a, d_order.truncate(trail), j, nb)
            })?;
            // U12 ← L11⁻¹ · A12 (unit lower).
            with_retry(dev, &pol, &mut rec, || {
                trsm_left_vbatched(
                    dev,
                    Uplo::Lower,
                    Trans::NoTrans,
                    Diag::Unit,
                    l11.first(trail),
                    a12.first(trail),
                )
            })?;
        }
        if update > 0 {
            // A22 ← A22 − L21 · U12.
            with_retry(dev, &pol, &mut rec, || {
                gemm_vbatched(
                    dev,
                    Trans::NoTrans,
                    Trans::NoTrans,
                    -T::ONE,
                    a21.first(update),
                    a12.first(update),
                    T::ONE,
                    a22.first(update),
                    max_trows,
                    max_tcols,
                )
            })?;
        }
        scrub_batch(dev, batch, &pol, &mut rec)?;
        j += nb;
    }

    dev.copy_dtoh_bytes(count * 4);
    Ok(finish_recovery(dev, ev_start, rec, batch.read_info()))
}

thread_local! {
    /// Panel-relative pivots of the block `getf2_vbatched` is running on
    /// this thread, the host analog of the shared memory its launch
    /// declares: grow-only, so a warm block allocates nothing.
    static PIVOT_SCRATCH: std::cell::RefCell<Vec<usize>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Panel factorization with partial pivoting, block `b` on matrix
/// `order[b]`.
fn getf2_panel<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    pivots: &PivotArray,
    order: DevicePtr<i32>,
    j: usize,
    nb: usize,
) -> Result<(), VbatchError> {
    let a = batch.view();
    let piv = pivots.d_ptrs();
    let threads =
        round_to_warp(nb * 4, dev.config().warp_size).min(dev.config().max_threads_per_block);
    let cfg =
        LaunchConfig::grid_1d(order.len() as u32, threads).with_shared_mem(nb * nb * T::BYTES);
    dev.launch(kname!(T, "getf2_vbatched"), cfg, move |ctx| {
        let i = order.get(ctx.linear_block_id()) as usize;
        let (m, n, ld) = a.dims(i);
        let jb = panel_width(m, n, j, nb);
        if !EtmPolicy::Classic.apply(ctx, jb) {
            return;
        }
        let rows = m - j;
        let panel = mat_mut(a.ptrs.get(i).offset(j * ld + j), rows, jb, ld);
        let res = PIVOT_SCRATCH.with_borrow_mut(|local| {
            if local.len() < jb {
                local.resize(jb, 0);
            }
            let res = vbatch_dense::getf2(panel, &mut local[..jb]);
            let p = piv.get(i);
            for (t, &lp) in local[..jb].iter().enumerate() {
                p.set(j + t, (j + lp) as i32);
            }
            res
        });
        if let Err(vbatch_dense::Error::Singular { column }) = res {
            if a.info.get(i) == 0 {
                a.info.set(i, (j + column + 1) as i32);
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

/// Applies the step's row interchanges to the columns outside the
/// panel, block `b` on matrix `order[b]`.
fn laswp_outside<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    pivots: &PivotArray,
    order: DevicePtr<i32>,
    j: usize,
    nb: usize,
) -> Result<(), VbatchError> {
    let meta = batch.view();
    let piv = pivots.d_ptrs();
    let cfg = LaunchConfig::grid_1d(order.len() as u32, 128);
    dev.launch(kname!(T, "laswp_vbatched"), cfg, move |ctx| {
        let i = order.get(ctx.linear_block_id()) as usize;
        let (m, n, ld) = meta.dims(i);
        let jb = panel_width(m, n, j, nb);
        let outside = n.saturating_sub(jb); // columns not in the panel
        if !EtmPolicy::Classic.apply(ctx, if jb > 0 && outside > 0 { 1 } else { 0 }) {
            return;
        }
        let mut a = mat_mut(meta.ptrs.get(i), m, n, ld);
        let p = piv.get(i);
        let mut swapped = 0usize;
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
        // Every live block reads its `m`/`n`/`ld` and the step's `jb`
        // pivots, whether or not a row moves.
        ctx.gmem_read(12 + 4 * jb);
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
