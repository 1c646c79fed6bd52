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
//!
//! LU and QR ([`crate::qr`]) share that host layer (§III-F): the pure
//! planner `panel_steps` reads the host size mirror and the launch
//! order and yields one `PanelStep` per panel step, how far into the
//! order each kind of kernel has live work and the extents it spans,
//! and their one body `run_panels` hands each step to the op's step
//! function in the driver frame every factorization shares
//! (`driver::run_frame`), which scrubs after each. LU keeps only that
//! step function and its kernels.

use vbatch_dense::{Diag, Scalar, Trans, Uplo};
use vbatch_gpu_sim::{Device, DeviceBuffer, DevicePtr, LaunchConfig};

use crate::batch::{BatchView, PerMatrixArray};
use crate::driver::run_frame;
use crate::etm::EtmPolicy;
use crate::kernels::{
    charge_flops, charge_read, charge_write, mat_mut, panel_width, round_to_warp,
};
use crate::recover::{fault_events_start, with_retry, RecoveryPolicy, RecoveryReport};
use crate::report::{BatchReport, VbatchError};
use crate::sep::gemm::gemm_vbatched;
use crate::sep::trsm::trsm_left_vbatched;
use crate::workspace::{grow_slot, DriverWorkspace};
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
/// in [`DriverWorkspace`]: every buffer but `d_info` is fully rewritten
/// by the step kernel before the trailing kernels read it, and
/// `d_info`, the always-clean `info` every view carries, is never
/// written.
pub(crate) struct LuStep<T> {
    d_l11: DeviceBuffer<DevicePtr<T>>,
    d_a12: DeviceBuffer<DevicePtr<T>>,
    d_a21: DeviceBuffer<DevicePtr<T>>,
    d_a22: DeviceBuffer<DevicePtr<T>>,
    d_jb: DeviceBuffer<i32>,
    d_trows: DeviceBuffer<i32>,
    d_tcols: DeviceBuffer<i32>,
    d_ld: DeviceBuffer<i32>,
    d_info: DeviceBuffer<i32>,
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
            d_info: dev.alloc(count)?,
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
            + self.d_info.bytes()
    }

    /// The step's `L11`, `A12`, `A21` and `A22` blocks of `a`'s
    /// matrices as views, filled by [`LuStep::update`]: slot `b` holds
    /// the matrix the launch order puts at `b`, with its own leading
    /// dimension. Every view carries the always-clean `info`, since the
    /// trailing kernels must keep running past a singular matrix (LAPACK
    /// continues past a zero pivot).
    fn views(&self, a: BatchView<T>) -> [BatchView<T>; 4] {
        let (jb, trows, tcols) = (self.d_jb.ptr(), self.d_trows.ptr(), self.d_tcols.ptr());
        let info = self.d_info.ptr();
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
    getrf_vbatched_ws(dev, batch, opts, &mut DriverWorkspace::new())
}

/// [`getrf_vbatched`] with a caller-owned [`DriverWorkspace`]: the
/// per-step view buffers are pooled, so warm calls only allocate the
/// returned pivot arena.
///
/// # Errors
/// As [`getrf_vbatched`].
pub fn getrf_vbatched_ws<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    opts: &GetrfOptions,
    ws: &mut DriverWorkspace<T>,
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
    ws: &mut DriverWorkspace<T>,
    pivots: &mut Option<PivotArray>,
) -> Result<BatchReport, VbatchError> {
    let (count, nb, pol) = (batch.count(), opts.nb_panel.max(1), opts.recovery);
    let mut arena = pivots.take().map(|p| p.0);
    let report = run_panels(
        dev,
        batch,
        (nb, pol),
        ws,
        &mut arena,
        |ws| {
            grow_slot(&mut ws.lu_step, LuStep::count, count, || {
                LuStep::alloc(dev, count)
            })
            .map(|_| ())
        },
        |rec, ws, piv, order, s| {
            let st = ws.lu_step.as_ref().expect("grown by the scratch step");
            let [l11, a12, a21, a22] = st.views(batch.view());
            let j = s.j;
            with_retry(dev, &pol, rec, || {
                getf2_panel(dev, batch, piv, order.truncate(s.panel), j, nb)
            })?;
            if s.outside > 0 {
                with_retry(dev, &pol, rec, || {
                    laswp_outside(dev, batch, piv, order.truncate(s.outside), j, nb)
                })?;
            }
            if s.trail > 0 {
                with_retry(dev, &pol, rec, || {
                    st.update(dev, batch.view(), order.truncate(s.trail), j, nb)
                })?;
                // U12 ← L11⁻¹ · A12 (unit lower).
                with_retry(dev, &pol, rec, || {
                    trsm_left_vbatched(
                        dev,
                        Uplo::Lower,
                        Trans::NoTrans,
                        Diag::Unit,
                        l11.first(s.trail),
                        a12.first(s.trail),
                    )
                })?;
            }
            if s.update > 0 {
                // A22 ← A22 − L21 · U12.
                with_retry(dev, &pol, rec, || {
                    gemm_vbatched(
                        dev,
                        Trans::NoTrans,
                        Trans::NoTrans,
                        -T::ONE,
                        a21.first(s.update),
                        a12.first(s.update),
                        T::ONE,
                        a22.first(s.update),
                        s.update_rows,
                        s.update_cols,
                    )
                })?;
            }
            Ok(())
        },
    );
    *pivots = arena.map(PivotArray);
    report
}

/// One panel step of an LU or QR call, planned by [`panel_steps`] on
/// the host size mirror: the panel column `j`, how far into the launch
/// order each kind of kernel has live work, and the extents it spans.
/// Each prefix ends at the last matrix with that work, so no launch
/// carries a dead block past it.
#[derive(Debug, Default)]
pub(crate) struct PanelStep {
    /// The panel's first column.
    pub(crate) j: usize,
    /// Matrices with a panel, `min(m, n) > j` (`getf2`, `geqr2`).
    pub(crate) panel: usize,
    /// Through the last matrix with columns outside the panel (`laswp`).
    pub(crate) outside: usize,
    /// Through the last matrix with trailing columns (the LU step
    /// views, `trsm`, `larfb`), and the widest of those.
    pub(crate) trail: usize,
    pub(crate) trail_cols: usize,
    /// Through the last matrix with trailing rows and columns (`gemm`),
    /// and their largest row and column extents.
    pub(crate) update: usize,
    pub(crate) update_rows: usize,
    pub(crate) update_cols: usize,
}

/// The panel steps of matrices with `rows` and `cols` in the launch
/// `order` ([`DriverWorkspace::launch_order`]'s host copy: every matrix
/// with a panel, largest `min(m, n)` first) at panel width `nb ≥ 1`: one
/// [`PanelStep`] for each `j = 0, nb, …` below the largest `min(m, n)`,
/// yielded lazily, so planning allocates nothing.
pub(crate) fn panel_steps<'a>(
    rows: &'a [usize],
    cols: &'a [usize],
    order: &'a [usize],
    nb: usize,
) -> impl Iterator<Item = PanelStep> + 'a {
    let k = move |i: usize| rows[i].min(cols[i]);
    let k_max = order.first().map_or(0, |&i| k(i));
    (0..k_max).step_by(nb).map(move |j| {
        let panel = order.partition_point(|&i| k(i) > j);
        let mut s = PanelStep {
            j,
            panel,
            ..PanelStep::default()
        };
        for (b, &i) in order[..panel].iter().enumerate() {
            let (m, n) = (rows[i], cols[i]);
            let jb = panel_width(m, n, j, nb);
            let (trows, tcols) = (m - j - jb, n - j - jb);
            if n > jb {
                s.outside = b + 1;
            }
            if tcols > 0 {
                s.trail = b + 1;
                s.trail_cols = s.trail_cols.max(tcols);
            }
            if trows > 0 && tcols > 0 {
                s.update = b + 1;
                s.update_rows = s.update_rows.max(trows);
                s.update_cols = s.update_cols.max(tcols);
            }
        }
        s
    })
}

/// The LU/QR driver body: grows the caller's per-matrix output arena
/// `out` (pivots, `tau`) to `max_k` slots per matrix, then runs in the
/// driver frame ([`run_frame`]): makes the launch order resident and
/// lets `scratch` grow the op's pooled scratch, each under
/// [`with_retry`], and hands each [`PanelStep`] of [`panel_steps`] at
/// panel width `nb` to `step` (with the workspace, `out`'s per-matrix
/// pointers and the device launch order).
pub(crate) fn run_panels<T: Scalar, E: Copy + Default>(
    dev: &Device,
    batch: &VBatch<T>,
    (nb, pol): (usize, RecoveryPolicy),
    ws: &mut DriverWorkspace<T>,
    out: &mut Option<PerMatrixArray<E>>,
    mut scratch: impl FnMut(&mut DriverWorkspace<T>) -> Result<(), VbatchError>,
    mut step: impl FnMut(
        &mut RecoveryReport,
        &DriverWorkspace<T>,
        DevicePtr<DevicePtr<E>>,
        DevicePtr<i32>,
        &PanelStep,
    ) -> Result<(), VbatchError>,
) -> Result<BatchReport, VbatchError> {
    let ev_start = fault_events_start(dev);
    let mut rec = RecoveryReport::default();
    let (count, k_max) = (batch.count(), batch.max_k());
    with_retry(dev, &pol, &mut rec, || {
        PerMatrixArray::ensure(out, dev, count.max(1), k_max)
    })?;
    let out = out.as_ref().expect("ensured above").d_ptrs();
    let (rows, cols) = (batch.rows(), batch.cols());
    run_frame(dev, batch, &pol, (ev_start, rec), |rec| {
        let d_order = with_retry(dev, &pol, rec, || ws.launch_order(dev, rows, cols))?;
        with_retry(dev, &pol, rec, || scratch(ws))?;
        let ws = &*ws;
        let steps = panel_steps(rows, cols, ws.order(), nb);
        Ok((steps, move |rec: &mut RecoveryReport, s| {
            step(rec, ws, out, d_order, &s)
        }))
    })
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
    piv: DevicePtr<DevicePtr<i32>>,
    order: DevicePtr<i32>,
    j: usize,
    nb: usize,
) -> Result<(), VbatchError> {
    let a = batch.view();
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
    piv: DevicePtr<DevicePtr<i32>>,
    order: DevicePtr<i32>,
    j: usize,
    nb: usize,
) -> Result<(), VbatchError> {
    let meta = batch.view();
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
pub(crate) mod tests {
    use super::*;
    use vbatch_dense::gen::{rand_mat, seeded_rng};
    use vbatch_dense::verify::{lu_residual, residual_tol};
    use vbatch_dense::MatRef;
    use vbatch_gpu_sim::DeviceConfig;

    /// Calls `f` on every multiset of at most `max_len` of `vals`
    /// (extending `cur`, picking from `vals[from..]`).
    pub(crate) fn multisets(
        vals: &[(usize, usize)],
        max_len: usize,
        cur: &mut Vec<(usize, usize)>,
        from: usize,
        f: &mut impl FnMut(&[(usize, usize)]),
    ) {
        f(cur);
        if cur.len() < max_len {
            for v in from..vals.len() {
                cur.push(vals[v]);
                multisets(vals, max_len, cur, v, f);
                cur.pop();
            }
        }
    }

    /// Checks [`panel_steps`] on the batch `shapes` at width `nb`
    /// against the definitions, in the order `launch_order` sorts it.
    fn check_plan(shapes: &[(usize, usize)], nb: usize) {
        let (rows, cols): (Vec<usize>, Vec<usize>) = shapes.iter().copied().unzip();
        let k = |i: usize| rows[i].min(cols[i]);
        // `DriverWorkspace::launch_order`'s key and tie-break.
        let key = |i: usize| (k(i), rows[i], cols[i]);
        let mut order: Vec<usize> = (0..shapes.len()).collect();
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(key(i)), i));
        order.retain(|&i| k(i) > 0);
        let k_max = (0..shapes.len()).map(k).max().unwrap_or(0);
        let steps: Vec<PanelStep> = panel_steps(&rows, &cols, &order, nb).collect();
        // (i) One step per panel column below the largest `min(m, n)`.
        let js: Vec<usize> = steps.iter().map(|s| s.j).collect();
        assert_eq!(js, (0..k_max).step_by(nb).collect::<Vec<_>>(), "{shapes:?}");
        let mut panels = 0;
        for s in &steps {
            let j = s.j;
            // Matrix `i`'s trailing rows and columns, if it has a panel.
            let trail = |i: usize| {
                let jb = nb.min(k(i).checked_sub(j).filter(|&r| r > 0)?);
                Some((jb, rows[i] - j - jb, cols[i] - j - jb))
            };
            // (ii) The panel prefix is exactly the matrices with a panel.
            assert!(s.panel > 0, "{shapes:?} {s:?}");
            let mut live = order[..s.panel].to_vec();
            live.sort_unstable();
            let want: Vec<usize> = (0..shapes.len()).filter(|&i| k(i) > j).collect();
            assert_eq!(live, want, "{shapes:?} {s:?}");
            panels += s.panel;
            // (iii) Each prefix holds every matrix with that work and
            // ends at one.
            let works: [(usize, &dyn Fn(usize) -> bool); 3] = [
                (s.outside, &|i| {
                    trail(i).is_some_and(|(jb, _, _)| cols[i] > jb)
                }),
                (s.trail, &|i| trail(i).is_some_and(|(_, _, tc)| tc > 0)),
                (s.update, &|i| {
                    trail(i).is_some_and(|(_, tr, tc)| tr > 0 && tc > 0)
                }),
            ];
            for (prefix, has) in works {
                assert!(prefix <= s.panel, "{shapes:?} {s:?}");
                for (b, &i) in order.iter().enumerate() {
                    assert!(!has(i) || b < prefix, "{shapes:?} {s:?}: {i} left out");
                }
                assert!(prefix == 0 || has(order[prefix - 1]), "{shapes:?} {s:?}");
            }
            // (iv) Each extent is the largest over the matrices with
            // that work.
            let ext = |f: &dyn Fn((usize, usize, usize)) -> Option<usize>| {
                order
                    .iter()
                    .filter_map(|&i| trail(i).and_then(f))
                    .max()
                    .unwrap_or(0)
            };
            assert_eq!(
                s.trail_cols,
                ext(&|(_, _, tc)| Some(tc)),
                "{shapes:?} {s:?}"
            );
            let update =
                |(_, tr, tc): (usize, usize, usize)| (tr > 0 && tc > 0).then_some((tr, tc));
            assert_eq!(
                s.update_rows,
                ext(&|t| update(t).map(|u| u.0)),
                "{shapes:?} {s:?}"
            );
            assert_eq!(
                s.update_cols,
                ext(&|t| update(t).map(|u| u.1)),
                "{shapes:?} {s:?}"
            );
        }
        // Every live (matrix, step) is in exactly one panel launch.
        let want: usize = (0..shapes.len()).map(|i| k(i).div_ceil(nb)).sum();
        assert_eq!(panels, want, "{shapes:?}");
    }

    #[test]
    fn panel_steps_bounded_exhaustive() {
        for nb in 1..=3 {
            let orders: Vec<(usize, usize)> = (0..=3 * nb).map(|n| (n, n)).collect();
            let shapes: Vec<(usize, usize)> = (0..=3 * nb)
                .flat_map(|m| (0..=3 * nb).map(move |n| (m, n)))
                .collect();
            for (vals, max_len) in [(&orders, 6), (&shapes, 3)] {
                multisets(vals, max_len, &mut Vec::new(), 0, &mut |batch| {
                    check_plan(batch, nb);
                    let rev: Vec<(usize, usize)> = batch.iter().rev().copied().collect();
                    check_plan(&rev, nb);
                });
            }
        }
    }

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
