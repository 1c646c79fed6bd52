//! Reusable driver workspaces — the steady-state zero-allocation path.
//!
//! Every factorization driver in this crate needs a handful of device
//! scratch buffers (per-step pointer/size state, diagonal-tile arenas,
//! reduction partials, sorting index uploads). The plain entry points
//! allocate them per call, which is correct but costs one
//! allocate/initialize/free round-trip per driver invocation — exactly
//! the launch-side overhead the paper's fused design exists to amortize
//! on the kernel side. [`DriverWorkspace`] owns those buffers across
//! calls: the `*_ws` driver variants ([`crate::potrf_vbatched_ws`],
//! [`crate::lu::getrf_vbatched_ws`], [`crate::qr::geqrf_vbatched_ws`])
//! grow them on demand and never shrink, so a warm workspace makes the
//! steady-state driver loop perform **zero device allocations** — a
//! property pinned by `Device::alloc_count` in the regression tests.
//!
//! Reuse is safe because every pooled buffer is either fully rewritten
//! by an auxiliary kernel before any consumer reads it (step state, tile
//! arenas, reduction partials), never written at all (the always-clean
//! `info` the LU step views carry), or written only from the host
//! with a host twin of its contents (the sorting permutation and the
//! separated live-grid plan, see `sorting::upload_resident`): a
//! plan the device already holds is not sent again, so a repeated call
//! of one shape pays no plan upload. Simulated launches are synchronous,
//! so a buffer may be reused across sorting windows within one call as
//! well. Outputs that belong to the caller (pivot and tau arenas) are
//! *not* pooled. Each driver makes its scratch resident here before the
//! first step of the driver frame (`driver::run_frame`): the fused
//! permutation, the separated scratch and live-grid plan
//! (`sep_scratch`), or the LU/QR launch order (`launch_order`) and the
//! op's own slot (`lu_step`, `qr_t`).

use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Device, DeviceBuffer, DevicePtr};

use crate::aux::StepState;
use crate::batch::PerMatrixArray;
use crate::fused::IlvPlan;
use crate::lu::LuStep;
use crate::report::VbatchError;
use crate::sep::plan_live_grids;
use crate::sep::trtri::TileWorkspace;
use crate::sorting::upload_resident;

/// The grow-only scratch slot: keeps `slot`'s buffer while it holds at
/// least `need` (by `len`), else drops it *before* calling `alloc` for
/// the replacement, so a grow never holds both buffers at once.
///
/// # Errors
/// Whatever `alloc` returns; the slot is then left empty.
pub(crate) fn grow_slot<B, E>(
    slot: &mut Option<B>,
    len: impl FnOnce(&B) -> usize,
    need: usize,
    alloc: impl FnOnce() -> Result<B, E>,
) -> Result<&B, E> {
    if slot.as_ref().is_none_or(|b| len(b) < need) {
        *slot = None;
        *slot = Some(alloc()?);
    }
    Ok(slot.as_ref().expect("filled above"))
}

/// Pooled device scratch for the factorization drivers, reusable across
/// calls and across precisions' driver families (Cholesky, LU, QR).
///
/// Construction is free (no device memory is touched); buffers are
/// allocated lazily by the first driver call and grown — never shrunk —
/// by later ones. Call [`DriverWorkspace::release`] to return all held
/// device memory.
pub struct DriverWorkspace<T> {
    /// Separated-path per-step state.
    pub(crate) step: Option<StepState<T>>,
    /// Separated-path diagonal-tile arena.
    pub(crate) tiles: Option<TileWorkspace<T>>,
    /// Separated-path live-grid plan ([`plan_live_grids`]): the device
    /// copy and its resident twin, the host copy of what it holds.
    pub(crate) live_host: Vec<i32>,
    live_dev: Option<DeviceBuffer<i32>>,
    /// QR `T`-factor arena: one `nb × nb` tile per matrix, every tile
    /// fully rewritten by the panel kernel before `larfb` reads it.
    pub(crate) qr_t: Option<PerMatrixArray<T>>,
    /// `compute_imax_pooled` block-partial buffer.
    pub(crate) imax_partial: Option<DeviceBuffer<i32>>,
    /// The fused call's sorting permutation, or the LU/QR launch order:
    /// the device copy and its resident twin, the host copy of what it
    /// holds.
    pub(crate) idx_dev: Option<DeviceBuffer<i32>>,
    pub(crate) idx_host: Vec<i32>,
    /// Host scratch of the LU/QR launch order
    /// ([`DriverWorkspace::launch_order`]), grow-only.
    order: Vec<usize>,
    /// Host scratch of the fused driver's batched-small window cut,
    /// boxed on first use: a workspace that never cuts a window holds
    /// one empty pointer.
    pub(crate) ilv_plan: Option<Box<IlvPlan>>,
    /// LU per-step views, with their always-clean `info`.
    pub(crate) lu_step: Option<LuStep<T>>,
}

impl<T: Scalar> DriverWorkspace<T> {
    /// Creates an empty workspace holding no device memory.
    #[must_use]
    pub fn new() -> Self {
        Self {
            step: None,
            tiles: None,
            live_host: Vec::new(),
            live_dev: None,
            qr_t: None,
            imax_partial: None,
            idx_dev: None,
            idx_host: Vec::new(),
            order: Vec::new(),
            ilv_plan: None,
            lu_step: None,
        }
    }

    /// Returns all pooled device memory to the device and clears the
    /// host staging buffers; the resident twins go with their buffers,
    /// so the next call uploads its plans again.
    pub fn release(&mut self) {
        *self = Self::new();
    }

    /// Forgets which plans the device holds but keeps their buffers, so
    /// the next call uploads its plans as on a cold workspace, without
    /// allocating.
    pub(crate) fn forget_plans(&mut self) {
        self.idx_host.clear();
        self.live_host.clear();
    }

    /// Device bytes currently held by the pooled buffers.
    #[must_use]
    pub fn device_bytes(&self) -> usize {
        let mut total = 0;
        if let Some(st) = &self.step {
            total += st.d_ptrs.bytes() + st.d_rem.bytes();
        }
        for t in [self.tiles.as_ref().map(|t| &t.tiles), self.qr_t.as_ref()]
            .into_iter()
            .flatten()
        {
            total += t.bytes();
        }
        if let Some(s) = &self.lu_step {
            total += s.bytes();
        }
        for b in [&self.imax_partial, &self.idx_dev, &self.live_dev]
            .into_iter()
            .flatten()
        {
            total += b.bytes();
        }
        total
    }

    /// Ensures the separated-path scratch covers matrices of orders
    /// `sizes` at panel width `nb`: step state, tile arena, and the
    /// live-grid plan, made resident on the device (uploaded and charged
    /// unless the device already holds it). Returns the plan's device
    /// copy; its host copy is the front of `live_host`, and
    /// [`crate::sep::live_steps`] reads the steps back from the two.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub(crate) fn sep_scratch(
        &mut self,
        dev: &Device,
        sizes: &[usize],
        nb: usize,
    ) -> Result<DevicePtr<i32>, VbatchError> {
        let count = sizes.len();
        grow_slot(
            &mut self.step,
            |st| st.d_rem.len(),
            count,
            || StepState::alloc(dev, count),
        )?;
        TileWorkspace::ensure(&mut self.tiles, dev, count, nb)?;
        let plan = plan_live_grids(sizes, nb);
        Ok(upload_resident(
            dev,
            plan,
            &mut self.live_host,
            &mut self.live_dev,
            true,
        )?)
    }

    /// The LU/QR launch order of matrices with `rows` and `cols`: every
    /// matrix with a panel, largest first by `(min(m, n), m, n)`, ties
    /// in batch order. So the matrices still live at step `j` (those
    /// with `min(m, n) > j`) are a prefix of it, and a panel kernel's
    /// block `b` reads matrix `order[b]`. The order is sorted on the
    /// host size mirror into this workspace's scratch (read back by
    /// [`DriverWorkspace::order`]) and made resident in the sorting
    /// permutation's slot through [`upload_resident`]: one charged
    /// upload when the device does not already hold it, none when it
    /// does (a repeated call, or a batch already in this order after a
    /// longer one). Returns its device copy.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub(crate) fn launch_order(
        &mut self,
        dev: &Device,
        rows: &[usize],
        cols: &[usize],
    ) -> Result<DevicePtr<i32>, VbatchError> {
        let key = |i: usize| (rows[i].min(cols[i]), rows[i], cols[i]);
        let order = &mut self.order;
        order.clear();
        order.extend(0..rows.len());
        // Keys are unique with the index, so the in-place unstable sort
        // gives the stable order without a merge buffer.
        order.sort_unstable_by_key(|&i| (std::cmp::Reverse(key(i)), i));
        order.truncate(order.partition_point(|&i| key(i).0 > 0));
        let plan = order.iter().map(|&i| i as i32);
        Ok(upload_resident(
            dev,
            plan,
            &mut self.idx_host,
            &mut self.idx_dev,
            true,
        )?)
    }

    /// The host copy of the last [`DriverWorkspace::launch_order`].
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }
}

impl<T: Scalar> Default for DriverWorkspace<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn new_holds_no_device_memory() {
        let ws = DriverWorkspace::<f64>::new();
        assert_eq!(ws.device_bytes(), 0);
    }

    #[test]
    fn sep_scratch_grows_and_reuses() {
        let dev = Device::new(DeviceConfig::k40c());
        let mut ws = DriverWorkspace::<f64>::new();
        // Orders of 8 take one step at every panel width below, so the
        // live-grid plan grows with the batch only.
        let sizes = [8usize; 16];
        ws.sep_scratch(&dev, &sizes[..8], 32).unwrap();
        let after_first = dev.alloc_count();
        // Same shape: no new allocations.
        ws.sep_scratch(&dev, &sizes[..8], 32).unwrap();
        assert_eq!(dev.alloc_count(), after_first);
        // Smaller batch still fits: no new allocations.
        ws.sep_scratch(&dev, &sizes[..3], 32).unwrap();
        assert_eq!(dev.alloc_count(), after_first);
        // Larger batch grows; a smaller nb reuses the tile arena, a
        // larger one grows it.
        ws.sep_scratch(&dev, &sizes, 32).unwrap();
        assert!(dev.alloc_count() > after_first);
        let after_grow = dev.alloc_count();
        ws.sep_scratch(&dev, &sizes, 8).unwrap();
        assert_eq!(dev.alloc_count(), after_grow);
        let plan = ws.sep_scratch(&dev, &sizes, 64).unwrap();
        assert!(dev.alloc_count() > after_grow);
        // Four grids of 17 starts each.
        assert_eq!(plan.len(), 4 * 17);
        assert!(ws.device_bytes() > 0);
        let in_use = dev.mem_in_use();
        assert!(in_use > 0);
        ws.release();
        assert_eq!(ws.device_bytes(), 0);
        assert!(dev.mem_in_use() < in_use);
    }
}
