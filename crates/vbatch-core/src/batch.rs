//! The vbatched batch descriptor (paper §III-A).
//!
//! A vbatched routine describes each matrix by an independent size and
//! leading dimension; "all arrays need to reside on the GPU memory and
//! specific GPU kernels required for these kind of operations ... must be
//! developed". [`VBatch`] owns the device-resident metadata arrays
//! (`rows[]`, `cols[]`, `ld[]`, pointer array, `info[]`) plus the matrix
//! storage itself, and keeps host mirrors of the *user-provided* shape
//! information (what the caller of a real vbatched API would also know).

use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Device, DeviceBuffer, DevicePtr, MemoryPool};

use crate::report::VbatchError;

/// The pool bundle a pooled batch draws from — one per device on the
/// sharded path ([`crate::shard`]): element storage, `i32` metadata
/// (sizes, leading dimensions, `info`) and pointer arrays each recycle
/// through their own size-class free lists, so building and retiring a
/// shard's batch touches the device allocator only on cold classes.
pub struct BatchPools<T> {
    /// Matrix element storage.
    pub mats: MemoryPool<T>,
    /// `i32` metadata arrays (rows/cols/ld/info).
    pub meta: MemoryPool<i32>,
    /// Matrix pointer arrays.
    pub ptrs: MemoryPool<DevicePtr<T>>,
}

impl<T> Default for BatchPools<T> {
    fn default() -> Self {
        Self {
            mats: MemoryPool::default(),
            meta: MemoryPool::default(),
            ptrs: MemoryPool::default(),
        }
    }
}

impl<T: Scalar> BatchPools<T> {
    /// Empty pools.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// High-water mark of bytes checked out across the three pools.
    #[must_use]
    pub(crate) fn high_water_bytes(&self) -> usize {
        self.mats.high_water_bytes() + self.meta.high_water_bytes() + self.ptrs.high_water_bytes()
    }

    /// Total pool misses (requests that hit the device allocator).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.mats.misses() + self.meta.misses() + self.ptrs.misses()
    }

    /// Bytes currently parked on the free lists across the three pools.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.mats.held_bytes() + self.meta.held_bytes() + self.ptrs.held_bytes()
    }

    /// Drops every parked buffer, returning its memory to the device.
    pub fn trim(&mut self) {
        self.mats.trim();
        self.meta.trim();
        self.ptrs.trim();
    }
}

/// A device-resident batch of matrices with independent shapes.
pub struct VBatch<T> {
    count: usize,
    d_rows: DeviceBuffer<i32>,
    d_cols: DeviceBuffer<i32>,
    d_ld: DeviceBuffer<i32>,
    d_ptrs: DeviceBuffer<DevicePtr<T>>,
    d_info: DeviceBuffer<i32>,
    storage: Vec<DeviceBuffer<T>>,
    rows: Vec<usize>,
    cols: Vec<usize>,
    ld: Vec<usize>,
}

impl<T: Scalar> VBatch<T> {
    /// Allocates a batch of square matrices of the given orders
    /// (`ld = n`), zero-initialized.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub fn alloc_square(dev: &Device, sizes: &[usize]) -> Result<Self, VbatchError> {
        let dims: Vec<(usize, usize)> = sizes.iter().map(|&n| (n, n)).collect();
        Self::alloc(dev, &dims)
    }

    /// Allocates a batch of `rows × cols` matrices (`ld = rows`),
    /// zero-initialized.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub fn alloc(dev: &Device, dims: &[(usize, usize)]) -> Result<Self, VbatchError> {
        let ld: Vec<usize> = dims.iter().map(|&(m, _)| m).collect();
        Self::alloc_with_ld(dev, dims, &ld)
    }

    /// Allocates with explicit per-matrix leading dimensions
    /// (`ld[i] ≥ rows[i]`).
    ///
    /// # Errors
    /// [`VbatchError::InvalidArgument`] when `ld` and `dims` disagree in
    /// length or `ld[i] < rows[i]` for a non-empty matrix;
    /// [`VbatchError::Oom`] when device memory is exhausted.
    pub fn alloc_with_ld(
        dev: &Device,
        dims: &[(usize, usize)],
        ld: &[usize],
    ) -> Result<Self, VbatchError> {
        if dims.len() != ld.len() {
            return Err(VbatchError::InvalidArgument(
                "alloc_with_ld: dims and ld must have the same length",
            ));
        }
        let count = dims.len();
        let mut storage = Vec::with_capacity(count);
        let mut ptrs = Vec::with_capacity(count);
        for (&(m, n), &l) in dims.iter().zip(ld) {
            if m > 0 && l < m {
                return Err(VbatchError::InvalidArgument(
                    "alloc_with_ld: leading dimension smaller than row count",
                ));
            }
            let elems = if n == 0 { 0 } else { l * (n - 1) + m };
            let buf = dev.alloc::<T>(elems)?;
            ptrs.push(buf.ptr());
            storage.push(buf);
        }
        let d_rows = dev.alloc::<i32>(count)?;
        let d_cols = dev.alloc::<i32>(count)?;
        let d_ld = dev.alloc::<i32>(count)?;
        let d_info = dev.alloc::<i32>(count)?;
        let d_ptrs = dev.alloc::<DevicePtr<T>>(count)?;
        d_rows.fill_from_host(&dims.iter().map(|&(m, _)| m as i32).collect::<Vec<_>>());
        d_cols.fill_from_host(&dims.iter().map(|&(_, n)| n as i32).collect::<Vec<_>>());
        d_ld.fill_from_host(&ld.iter().map(|&l| l as i32).collect::<Vec<_>>());
        d_ptrs.fill_from_host(&ptrs);
        Ok(Self {
            count,
            d_rows,
            d_cols,
            d_ld,
            d_ptrs,
            d_info,
            storage,
            rows: dims.iter().map(|&(m, _)| m).collect(),
            cols: dims.iter().map(|&(_, n)| n).collect(),
            ld: ld.to_vec(),
        })
    }

    /// Allocates a batch of square matrices drawing every buffer from
    /// `pools` instead of the device allocator (zero device
    /// allocations once the pools are warm). Pooled buffers are
    /// size-class rounded and their contents are **stale**: the caller
    /// must upload each matrix's full extent before reading anything
    /// back — which the sharded drivers do — and the metadata arrays
    /// are fully rewritten here.
    ///
    /// # Errors
    /// [`VbatchError::Oom`] when a cold class cannot be served; buffers
    /// taken before the failure are returned to the pools.
    pub fn alloc_square_pooled(
        dev: &Device,
        sizes: &[usize],
        pools: &mut BatchPools<T>,
    ) -> Result<Self, VbatchError> {
        let count = sizes.len();
        let mut storage: Vec<DeviceBuffer<T>> = Vec::with_capacity(count);
        let mut ptrs = Vec::with_capacity(count);
        // rows, cols, ld and info stay here until every take succeeded,
        // so a failure can return each buffer taken before it.
        let mut meta: [Option<DeviceBuffer<i32>>; 4] = Default::default();
        let mut take_all = || -> Result<DeviceBuffer<DevicePtr<T>>, VbatchError> {
            for &n in sizes {
                let elems = extent(n, n, n);
                let buf = pools.mats.take(dev, elems)?;
                // Truncated to the extent, exactly like the fresh path.
                ptrs.push(buf.ptr().truncate(elems));
                storage.push(buf);
            }
            for slot in &mut meta {
                *slot = Some(pools.meta.take(dev, count)?);
            }
            Ok(pools.ptrs.take(dev, count)?)
        };
        let d_ptrs = match take_all() {
            Ok(d_ptrs) => d_ptrs,
            Err(e) => {
                for buf in storage {
                    pools.mats.reclaim(buf);
                }
                for buf in meta.into_iter().flatten() {
                    pools.meta.reclaim(buf);
                }
                return Err(e);
            }
        };
        let [Some(d_rows), Some(d_cols), Some(d_ld), Some(d_info)] = meta else {
            unreachable!("every metadata take precedes the pointer-array take");
        };
        let ns: Vec<i32> = sizes.iter().map(|&n| n as i32).collect();
        d_rows.fill_from_host(&ns);
        d_cols.fill_from_host(&ns);
        d_ld.fill_from_host(&ns);
        d_ptrs.fill_from_host(&ptrs);
        let batch = Self {
            count,
            d_rows,
            d_cols,
            d_ld,
            d_ptrs,
            d_info,
            storage,
            rows: sizes.to_vec(),
            cols: sizes.to_vec(),
            ld: sizes.to_vec(),
        };
        // A pooled info buffer carries the previous tenant's statuses;
        // pooled batches start from the fresh-path zero state whatever
        // shapes came before them.
        batch.reset_info();
        Ok(batch)
    }

    /// Retires the batch into `pools`: every buffer moves to a free
    /// list instead of being dropped, so no device frees occur and a
    /// subsequent [`VBatch::alloc_square_pooled`] of similar shape
    /// recycles everything.
    pub fn reclaim(self, pools: &mut BatchPools<T>) {
        let Self {
            d_rows,
            d_cols,
            d_ld,
            d_ptrs,
            d_info,
            storage,
            ..
        } = self;
        for buf in storage {
            pools.mats.reclaim(buf);
        }
        for buf in [d_rows, d_cols, d_ld, d_info] {
            pools.meta.reclaim(buf);
        }
        pools.ptrs.reclaim(d_ptrs);
    }

    /// Number of matrices in the batch.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Host mirror of the row counts.
    #[must_use]
    pub fn rows(&self) -> &[usize] {
        &self.rows
    }

    /// Host mirror of the column counts.
    #[must_use]
    pub fn cols(&self) -> &[usize] {
        &self.cols
    }

    /// Host mirror of the leading dimensions.
    #[must_use]
    pub fn lds(&self) -> &[usize] {
        &self.ld
    }

    /// Largest row count in the batch (host-side; the expert interface's
    /// `max_m` argument).
    #[must_use]
    pub fn max_rows(&self) -> usize {
        self.rows.iter().copied().max().unwrap_or(0)
    }

    /// Largest column count in the batch.
    #[must_use]
    pub fn max_cols(&self) -> usize {
        self.cols.iter().copied().max().unwrap_or(0)
    }

    /// Largest `min(m, n)` in the batch: the column where the LU/QR
    /// panel loop ends, and zero when a driver has nothing to factorize.
    #[must_use]
    pub(crate) fn max_k(&self) -> usize {
        self.rows
            .iter()
            .zip(&self.cols)
            .map(|(&m, &n)| m.min(n))
            .max()
            .unwrap_or(0)
    }

    // Metadata pointers are truncated to `count`: pooled buffers are
    // size-class rounded, and the logical batch ends at `count` no
    // matter how much capacity backs it.

    /// Device array of column counts (the LAPACK-style interface's
    /// max reduction reads it).
    pub(crate) fn d_cols(&self) -> DevicePtr<i32> {
        self.d_cols.ptr().truncate(self.count)
    }

    /// Device array of matrix base pointers.
    #[must_use]
    pub fn d_ptrs(&self) -> DevicePtr<DevicePtr<T>> {
        self.d_ptrs.ptr().truncate(self.count)
    }

    /// Device array of per-matrix LAPACK `info` codes.
    #[must_use]
    pub fn d_info(&self) -> DevicePtr<i32> {
        self.d_info.ptr().truncate(self.count)
    }

    /// The batch as the operand view every vbatched kernel reads.
    #[must_use]
    pub fn view(&self) -> BatchView<T> {
        BatchView {
            count: self.count,
            ptrs: self.d_ptrs(),
            rows: self.d_rows.ptr().truncate(self.count),
            cols: self.d_cols(),
            ld: self.d_ld.ptr().truncate(self.count),
            info: self.d_info(),
        }
    }

    /// Clears the `info` array to zero (host-side reset before a
    /// factorization).
    pub fn reset_info(&self) {
        let info = self.d_info();
        for i in 0..self.count {
            info.set(i, 0);
        }
    }

    /// Downloads the `info` array.
    #[must_use]
    pub fn read_info(&self) -> Vec<i32> {
        let mut info = Vec::new();
        self.d_info.read_prefix_to_host(self.count, &mut info);
        info
    }

    /// Uploads matrix `i` from packed column-major host data of extent
    /// `ld·(cols−1) + rows` (bypasses the PCIe clock; benchmark setup).
    ///
    /// # Errors
    /// [`VbatchError::InvalidArgument`] when `i` is out of range or
    /// `data` does not match the matrix extent.
    pub fn upload_matrix(&mut self, i: usize, data: &[T]) -> Result<(), VbatchError> {
        if i >= self.count {
            return Err(VbatchError::InvalidArgument(
                "upload_matrix: matrix index out of range",
            ));
        }
        let need = extent(self.rows[i], self.cols[i], self.ld[i]);
        if data.len() != need {
            return Err(VbatchError::InvalidArgument(
                "upload_matrix: data length does not match the matrix extent",
            ));
        }
        self.storage[i].fill_from_host(data);
        Ok(())
    }

    /// Registers every matrix buffer as a fault-injection corruption
    /// target named `"vbatch_mat{i}"` (see
    /// [`vbatch_gpu_sim::Fault::Corrupt`]). No-op unless a fault plan is
    /// installed; the drivers call this automatically at entry.
    pub fn register_fault_targets(&self, dev: &Device) {
        if !dev.fault_active() {
            return;
        }
        for (i, buf) in self.storage.iter().enumerate() {
            dev.register_fault_target(format!("vbatch_mat{i}"), buf.ptr());
        }
    }

    /// Downloads matrix `i` as packed column-major data (with its `ld`).
    #[must_use]
    pub fn download_matrix(&self, i: usize) -> Vec<T> {
        let mut out = Vec::new();
        self.download_matrix_into(i, &mut out);
        out
    }

    /// [`VBatch::download_matrix`] into `out`, reusing its allocation:
    /// a caller that already holds the matrix's extent gets the factor
    /// back in the same storage.
    pub(crate) fn download_matrix_into(&self, i: usize, out: &mut Vec<T>) {
        // A pooled buffer is a whole power-of-two size class; read only
        // the matrix.
        self.storage[i].read_prefix_to_host(extent(self.rows[i], self.cols[i], self.ld[i]), out);
    }

    /// Total bytes of matrix storage (excludes metadata arrays).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.storage.iter().map(DeviceBuffer::bytes).sum()
    }
}

/// How a vbatched kernel sees one operand (paper §III-A): `count`
/// matrices, each described by device arrays of base pointers, rows,
/// columns, leading dimensions and `info` codes. `Copy`, so a launch
/// closure captures it whole. Reads are uncharged; each kernel charges
/// the metadata traffic it models.
///
/// [`VBatch::view`] views a batch's own matrices. A driver's per-step
/// state hands out views of the same matrices over its own pointer and
/// size arrays: [`crate::aux::StepState::view`] keeps the batch's
/// leading dimensions, and the LU step's blocks, whose slot `b` holds
/// the matrix its launch order puts at `b`, carry their own.
pub struct BatchView<T> {
    /// Matrices in the view.
    pub(crate) count: usize,
    /// Per-matrix base pointers.
    pub(crate) ptrs: DevicePtr<DevicePtr<T>>,
    rows: DevicePtr<i32>,
    cols: DevicePtr<i32>,
    ld: DevicePtr<i32>,
    /// Per-matrix LAPACK `info` codes.
    pub(crate) info: DevicePtr<i32>,
}

impl<T> Clone for BatchView<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for BatchView<T> {}

impl<T> BatchView<T> {
    /// `(m, n, ld)` of matrix `i`, clamped to `m, n ≥ 0` and `ld ≥ 1`.
    pub(crate) fn dims(self, i: usize) -> (usize, usize, usize) {
        (
            self.rows.get(i).max(0) as usize,
            self.cols.get(i).max(0) as usize,
            self.ld.get(i).max(1) as usize,
        )
    }

    /// A view of blocks of the same matrices: pointers `ptrs` to
    /// `rows × cols` blocks, at this view's leading dimensions, with
    /// `info` codes in `info`.
    pub(crate) fn blocks(
        self,
        ptrs: DevicePtr<DevicePtr<T>>,
        rows: DevicePtr<i32>,
        cols: DevicePtr<i32>,
        info: DevicePtr<i32>,
    ) -> Self {
        Self {
            ptrs,
            rows,
            cols,
            info,
            ..self
        }
    }

    /// This view with its leading dimensions read from `ld`.
    pub(crate) fn with_ld(self, ld: DevicePtr<i32>) -> Self {
        Self { ld, ..self }
    }

    /// The view of this one's first `count` matrices.
    pub(crate) fn first(self, count: usize) -> Self {
        debug_assert!(count <= self.count);
        Self { count, ..self }
    }
}

/// Device-resident per-matrix storage — one arena holding `per` slots
/// for each matrix plus the device array of per-matrix pointers into
/// it. The one implementation behind [`crate::lu::PivotArray`] (`i32`
/// pivots), [`crate::qr::TauArray`] (Householder scalars),
/// [`crate::sep::trtri::TileWorkspace`] (inverted diagonal tiles) and
/// the QR driver's `T`-factor tiles.
pub(crate) struct PerMatrixArray<T> {
    arena: DeviceBuffer<T>,
    d_ptrs: DeviceBuffer<DevicePtr<T>>,
    per: usize,
    /// Leading matrices whose pointers `d_ptrs` holds at stride `per`.
    covered: usize,
}

impl<T: Copy + Default> PerMatrixArray<T> {
    /// Allocates storage for `count` matrices of up to `max_k` slots
    /// each.
    pub(crate) fn alloc(dev: &Device, count: usize, max_k: usize) -> Result<Self, VbatchError> {
        let mut slot = None;
        Self::ensure(&mut slot, dev, count, max_k)?;
        Ok(slot.expect("ensure fills an empty slot"))
    }

    /// Ensures `slot` holds storage covering `count × max_k`, reusing
    /// the existing arena and pointer array when they are large enough.
    /// The pointer table is rewritten only when the stride changes or
    /// `count` runs past the matrices it covers, so a warm call makes
    /// no host allocation. Grows never shrink: a grow carries the old
    /// capacity forward, so once a slot has seen every shape in a
    /// rotation, further calls are device-alloc-free — the sharded
    /// getrf path relies on that. A grow frees the old arena and table
    /// first, then allocates the arena and the table, in that order
    /// (fault plans count allocations).
    pub(crate) fn ensure(
        slot: &mut Option<Self>,
        dev: &Device,
        count: usize,
        max_k: usize,
    ) -> Result<(), VbatchError> {
        let per = max_k.max(1);
        let fits = slot
            .as_ref()
            .is_some_and(|p| p.arena.len() >= count * per && p.d_ptrs.len() >= count);
        if !fits {
            // Taking the slot releases the undersized storage before
            // growing.
            let (have_arena, have_ptrs) = slot
                .take()
                .map_or((0, 0), |p| (p.arena.len(), p.d_ptrs.len()));
            let arena = dev.alloc((count * per).max(have_arena))?;
            let d_ptrs = dev.alloc(count.max(have_ptrs))?;
            *slot = Some(Self {
                arena,
                d_ptrs,
                per,
                covered: 0,
            });
        }
        let p = slot.as_mut().expect("filled above");
        if p.per != per || p.covered < count {
            p.per = per;
            p.covered = count;
            let ptrs: Vec<DevicePtr<T>> = (0..count)
                .map(|i| p.arena.ptr().offset(i * per).truncate(per))
                .collect();
            p.d_ptrs.fill_from_host(&ptrs);
        }
        Ok(())
    }

    /// Whether the pointer table covers `count` matrices of at least
    /// `k` slots each.
    pub(crate) fn covers(&self, count: usize, k: usize) -> bool {
        self.covered >= count && self.per >= k
    }

    /// Device bytes held by the arena alone.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Device bytes held by the arena and the pointer table.
    pub(crate) fn bytes(&self) -> usize {
        self.arena_bytes() + self.d_ptrs.bytes()
    }

    /// Device array of per-matrix pointers.
    pub(crate) fn d_ptrs(&self) -> DevicePtr<DevicePtr<T>> {
        self.d_ptrs.ptr()
    }

    /// Reads matrix `i`'s first `k` slots — only that extent, not the
    /// arena.
    ///
    /// # Panics
    /// If `[i·per, i·per + k)` runs past the arena.
    pub(crate) fn read(&self, i: usize, k: usize) -> impl Iterator<Item = T> + '_ {
        let start = i * self.per;
        assert!(
            start + k <= self.arena.len(),
            "matrix {i}'s first {k} slots run past the arena"
        );
        let p = self.arena.ptr().offset(start);
        (0..k).map(move |j| p.get(j))
    }
}

/// Column-major extent of an `m × n` matrix with leading dimension `ld`.
#[must_use]
pub fn extent(m: usize, n: usize, ld: usize) -> usize {
    if n == 0 || m == 0 {
        0
    } else {
        ld * (n - 1) + m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_gpu_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::k40c())
    }

    #[test]
    fn alloc_square_roundtrip() {
        let d = dev();
        let mut b = VBatch::<f64>::alloc_square(&d, &[3, 5, 1]).unwrap();
        assert_eq!(b.count(), 3);
        assert_eq!(b.max_rows(), 5);
        let data: Vec<f64> = (0..25).map(|x| x as f64).collect();
        b.upload_matrix(1, &data).unwrap();
        assert_eq!(b.download_matrix(1), data);
        assert_eq!(b.download_matrix(0), vec![0.0; 9]);
    }

    #[test]
    fn metadata_lands_on_device() {
        let d = dev();
        let b = VBatch::<f32>::alloc(&d, &[(4, 2), (7, 7)]).unwrap();
        let v = b.view();
        assert_eq!((v.count, v.dims(0), v.dims(1)), (2, (4, 2, 4), (7, 7, 7)));
        // Pointer array points into the right storage.
        let p = b.d_ptrs().get(0);
        p.set(0, 9.0);
        assert_eq!(b.download_matrix(0)[0], 9.0);
    }

    #[test]
    fn custom_ld_extent() {
        let d = dev();
        let mut b = VBatch::<f64>::alloc_with_ld(&d, &[(3, 2)], &[5]).unwrap();
        // Extent = 5*(2-1)+3 = 8.
        let data: Vec<f64> = (0..8).map(|x| x as f64).collect();
        b.upload_matrix(0, &data).unwrap();
        assert_eq!(b.download_matrix(0).len(), 8);
    }

    #[test]
    fn info_reset_and_read() {
        let d = dev();
        let b = VBatch::<f64>::alloc_square(&d, &[2, 2]).unwrap();
        b.d_info().set(1, 7);
        assert_eq!(b.read_info(), vec![0, 7]);
        b.reset_info();
        assert_eq!(b.read_info(), vec![0, 0]);
    }

    #[test]
    fn pooled_download_reads_only_the_matrix_extent() {
        let d = dev();
        let mut pools = BatchPools::<f64>::new();
        let sizes = [33usize, 48, 65];
        let mut b = VBatch::<f64>::alloc_square_pooled(&d, &sizes, &mut pools).unwrap();
        for (i, &n) in sizes.iter().enumerate() {
            let data: Vec<f64> = (0..n * n).map(|x| (x + i) as f64).collect();
            b.upload_matrix(i, &data).unwrap();
            let got = b.download_matrix(i);
            assert_eq!(got, data);
            // The pooled buffer is the next power of two; the download
            // must not have allocated (and copied) that much.
            let class = (n * n).next_power_of_two();
            assert_eq!(b.storage[i].len(), class);
            assert!(got.capacity() < class, "n={n}: capacity {}", got.capacity());
        }
        b.reclaim(&mut pools);
    }

    #[test]
    fn pooled_realloc_starts_from_zero_info() {
        let d = dev();
        let mut pools = BatchPools::<f64>::new();
        // First tenant's window leaves nonzero statuses behind.
        let b = VBatch::<f64>::alloc_square_pooled(&d, &[4, 2, 3], &mut pools).unwrap();
        b.d_info().set(0, 3);
        b.d_info().set(2, -1);
        b.reclaim(&mut pools);
        // A later window with a different (interleaved) size order
        // recycles the same metadata class and must not inherit them.
        let b = VBatch::<f64>::alloc_square_pooled(&d, &[2, 4, 3], &mut pools).unwrap();
        assert_eq!(
            b.read_info(),
            vec![0, 0, 0],
            "pooled info must be rewritten"
        );
        b.reclaim(&mut pools);
        pools.trim();
    }

    #[test]
    fn pooled_oom_returns_every_buffer_taken() {
        use vbatch_gpu_sim::FaultPlan;
        let d = dev();
        let mut pools = BatchPools::<f64>::new();
        // Takes 0 and 1 are the two matrices, 2 is `rows`; 3 fails.
        d.install_fault_plan(FaultPlan::new().oom_at_alloc(3));
        assert!(VBatch::<f64>::alloc_square_pooled(&d, &[4, 4], &mut pools).is_err());
        assert_eq!(pools.mats.outstanding_bytes(), 0);
        assert_eq!(pools.meta.outstanding_bytes(), 0);
        assert_eq!(pools.ptrs.outstanding_bytes(), 0);
    }

    #[test]
    fn zero_sized_matrices_allowed() {
        let d = dev();
        let b = VBatch::<f64>::alloc_square(&d, &[0, 4, 0]).unwrap();
        assert_eq!(b.count(), 3);
        assert_eq!(b.max_rows(), 4);
        assert!(b.download_matrix(0).is_empty());
    }

    #[test]
    fn invalid_arguments_are_typed_errors_not_panics() {
        let d = dev();
        // ld < rows.
        assert!(matches!(
            VBatch::<f64>::alloc_with_ld(&d, &[(4, 4)], &[3]),
            Err(VbatchError::InvalidArgument(_))
        ));
        // dims/ld length mismatch.
        assert!(matches!(
            VBatch::<f64>::alloc_with_ld(&d, &[(4, 4), (2, 2)], &[4]),
            Err(VbatchError::InvalidArgument(_))
        ));
        let mut b = VBatch::<f64>::alloc_square(&d, &[3]).unwrap();
        // Wrong extent.
        assert!(matches!(
            b.upload_matrix(0, &[0.0; 8]),
            Err(VbatchError::InvalidArgument(_))
        ));
        // Index out of range.
        assert!(matches!(
            b.upload_matrix(5, &[0.0; 9]),
            Err(VbatchError::InvalidArgument(_))
        ));
        // Failed attempts leave the batch usable.
        b.upload_matrix(0, &[1.0; 9]).unwrap();
        assert_eq!(b.download_matrix(0), vec![1.0; 9]);
    }

    #[test]
    fn extent_formula() {
        assert_eq!(extent(3, 2, 5), 8);
        assert_eq!(extent(0, 5, 0), 0);
        assert_eq!(extent(4, 0, 4), 0);
        assert_eq!(extent(4, 4, 4), 16);
    }

    /// `download(i, k)` returns exactly the `k`-slot extent a
    /// whole-arena read would slice out, at the first, a middle and the
    /// last matrix of a 64-matrix arena — through both public wrappers.
    #[test]
    fn pivot_and_tau_download_match_a_whole_arena_read() {
        use crate::lu::PivotArray;
        use crate::qr::TauArray;
        let d = dev();
        let (count, per) = (64usize, 65usize);
        let piv = PivotArray::alloc(&d, count, per).unwrap();
        let tau = TauArray::<f64>::alloc(&d, count, per).unwrap();
        let ints: Vec<i32> = (0..(count * per) as i32).collect();
        piv.0.arena.fill_from_host(&ints);
        let reals: Vec<f64> = ints.iter().map(|&v| f64::from(v) + 0.5).collect();
        tau.0.arena.fill_from_host(&reals);
        let (all_piv, all_tau) = (piv.0.arena.read_to_host(), tau.0.arena.read_to_host());
        for i in [0, count / 2, count - 1] {
            for k in [1usize, 33, 65] {
                let want = i * per..i * per + k;
                let want_piv: Vec<usize> =
                    all_piv[want.clone()].iter().map(|&v| v as usize).collect();
                assert_eq!(
                    piv.download(i, k),
                    want_piv,
                    "pivots of matrix {i}, k = {k}"
                );
                assert_eq!(
                    tau.download(i, k),
                    &all_tau[want],
                    "tau of matrix {i}, k = {k}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "run past the arena")]
    fn download_past_the_arena_panics_in_every_profile() {
        let piv = crate::lu::PivotArray::alloc(&dev(), 4, 8).unwrap();
        let _ = piv.download(3, 9);
    }
}
