//! Device memory: tracked allocations, buffers and raw device pointers.
//!
//! The vbatched interface requires *all* per-matrix metadata (sizes,
//! leading dimensions, matrix pointers) to live in device memory and to
//! be manipulated by device kernels (paper §III-A). [`DeviceBuffer`] is
//! the owning allocation, [`DevicePtr`] the `Copy` handle kernels
//! capture — the analogue of a raw CUDA device pointer, including the
//! ability to alias and to be stored *inside* other device buffers
//! (arrays of pointers).

use std::marker::PhantomData;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocation failure: the device is out of global memory.
///
/// The paper's padding baseline hits exactly this ("the performance
/// graphs of the padding technique look truncated due to running out of
/// the GPU memory").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OomError {
    /// Bytes the failed allocation requested.
    pub requested: usize,
    /// Bytes in use at the time of the request.
    pub in_use: usize,
    /// Device capacity in bytes.
    pub capacity: usize,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} of {} B in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

/// Shared allocation bookkeeping for one device.
#[derive(Debug)]
pub struct MemoryTracker {
    capacity: usize,
    in_use: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl MemoryTracker {
    /// Creates a tracker for `capacity` bytes.
    #[must_use]
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            capacity,
            in_use: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
        })
    }

    /// Attempts to reserve `bytes`, failing with [`OomError`] when the
    /// device capacity would be exceeded.
    pub fn reserve(&self, bytes: usize) -> Result<(), OomError> {
        let mut cur = self.in_use.load(Ordering::Relaxed);
        loop {
            let new = cur.checked_add(bytes).ok_or(OomError {
                requested: bytes,
                in_use: cur,
                capacity: self.capacity,
            })?;
            if new > self.capacity {
                return Err(OomError {
                    requested: bytes,
                    in_use: cur,
                    capacity: self.capacity,
                });
            }
            match self
                .in_use
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases `bytes` previously reserved.
    pub fn release(&self, bytes: usize) {
        self.in_use.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Device capacity in bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of buffer allocations performed so far (monotonic; not
    /// reset by `Device::reset_metrics`). The difference across a driver
    /// call is the allocation-regression metric: a warm-workspace call
    /// must leave it unchanged.
    #[must_use]
    pub fn alloc_count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Number of buffer frees performed so far (monotonic).
    #[must_use]
    pub fn free_count(&self) -> u64 {
        self.frees.load(Ordering::Relaxed)
    }

    fn note_alloc(&self) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
    }

    fn note_free(&self) {
        self.frees.fetch_add(1, Ordering::Relaxed);
    }
}

/// An owning device allocation of `len` elements of `T`.
///
/// Dropping the buffer returns its bytes to the device. Holding a
/// [`DevicePtr`] beyond the buffer's lifetime is the same bug it would be
/// in CUDA; in this simulation the storage is kept alive by an `Arc`, so
/// stale pointers read stale data rather than faulting.
pub struct DeviceBuffer<T> {
    storage: Arc<Storage<T>>,
    tracker: Arc<MemoryTracker>,
}

struct Storage<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: `Storage` is plain owned memory behind a raw pointer; access
// is through raw pointers under the kernel disjointness contract.
unsafe impl<T: Send> Send for Storage<T> {}
unsafe impl<T: Sync> Sync for Storage<T> {}

impl<T> Drop for Storage<T> {
    fn drop(&mut self) {
        // SAFETY: constructed from a boxed slice of exactly `len`
        // elements below.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.ptr, self.len,
            )));
        }
    }
}

impl<T: Copy + Default> DeviceBuffer<T> {
    pub(crate) fn new(len: usize, tracker: Arc<MemoryTracker>) -> Result<Self, OomError> {
        let bytes = len * size_of::<T>();
        tracker.reserve(bytes)?;
        tracker.note_alloc();
        let boxed = vec![T::default(); len].into_boxed_slice();
        let ptr = Box::into_raw(boxed).cast::<T>();
        Ok(Self {
            storage: Arc::new(Storage { ptr, len }),
            tracker,
        })
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.storage.len
    }

    /// Whether the buffer holds zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.storage.len == 0
    }

    /// Size in bytes.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.storage.len * size_of::<T>()
    }

    /// The raw device pointer covering the whole buffer.
    #[must_use]
    pub fn ptr(&self) -> DevicePtr<T> {
        DevicePtr {
            ptr: self.storage.ptr,
            len: self.storage.len,
            _marker: PhantomData,
        }
    }

    /// Host-side initialization that bypasses the PCIe timing model —
    /// use for test setup; use [`crate::Device::copy_htod_bytes`] when the
    /// transfer should be charged to the simulated clock.
    ///
    /// # Panics
    /// If `data` is longer than the buffer.
    pub fn fill_from_host(&self, data: &[T]) {
        assert!(data.len() <= self.len(), "host data larger than buffer");
        // SAFETY: exclusive extent by construction; caller must not race
        // with running kernels (same contract as cudaMemcpy).
        unsafe {
            std::ptr::copy_nonoverlapping(data.as_ptr(), self.storage.ptr, data.len());
        }
    }

    /// Host-side read of the whole buffer, bypassing the timing model.
    #[must_use]
    pub fn read_to_host(&self) -> Vec<T> {
        self.read_prefix_to_host(self.len())
    }

    /// Host-side read of the first `len` elements, bypassing the timing
    /// model — what a pooled buffer's user wants, whose matrix occupies
    /// only the front of a power-of-two size class. Copies straight
    /// into uninitialized capacity — no redundant zero-initialization
    /// pass before the copy (`T: Copy`, so there are no drop
    /// obligations on the skipped default values).
    ///
    /// # Panics
    /// If `len` exceeds the buffer.
    #[must_use]
    pub fn read_prefix_to_host(&self, len: usize) -> Vec<T> {
        assert!(len <= self.len(), "prefix longer than buffer");
        let mut out = Vec::with_capacity(len);
        // SAFETY: `len` is within the buffer extent (asserted above);
        // the copy initializes exactly the `len` elements `set_len`
        // then claims.
        unsafe {
            std::ptr::copy_nonoverlapping(self.storage.ptr, out.as_mut_ptr(), len);
            out.set_len(len);
        }
        out
    }
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.tracker.release(self.storage.len * size_of::<T>());
        self.tracker.note_free();
    }
}

/// A raw, `Copy` device pointer to `len` elements of `T` — what kernels
/// capture, and what lives inside device-side pointer arrays.
///
/// All accesses are bounds-checked with `debug_assert!` (checked in dev
/// and test builds, free in release/bench builds, mirroring how CUDA
/// kernels are debugged with `compute-sanitizer` but shipped unchecked).
pub struct DevicePtr<T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<T>,
}

impl<T> Clone for DevicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DevicePtr<T> {}

impl<T> std::fmt::Debug for DevicePtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DevicePtr({:p}, len {})", self.ptr, self.len)
    }
}

// SAFETY: `DevicePtr` mirrors the CUDA contract — concurrent blocks
// must touch disjoint elements; the simulator's kernels uphold this
// the same way real kernels do.
unsafe impl<T: Send> Send for DevicePtr<T> {}
unsafe impl<T: Sync> Sync for DevicePtr<T> {}

impl<T> Default for DevicePtr<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> DevicePtr<T> {
    /// The null device pointer (zero length); reads/writes panic in
    /// debug builds.
    #[must_use]
    pub fn null() -> Self {
        Self {
            ptr: std::ptr::null_mut(),
            len: 0,
            _marker: PhantomData,
        }
    }

    /// Number of addressable elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether zero elements are addressable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads element `i`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len, "device read OOB: {i} >= {}", self.len);
        // SAFETY: in-bounds per the construction contract and the assert.
        unsafe { *self.ptr.add(i) }
    }

    /// Writes element `i`.
    #[inline]
    pub fn set(&self, i: usize, v: T)
    where
        T: Copy,
    {
        debug_assert!(i < self.len, "device write OOB: {i} >= {}", self.len);
        // SAFETY: in-bounds; disjointness across blocks is the kernel
        // author's contract, as on real hardware.
        unsafe { *self.ptr.add(i) = v }
    }

    /// Pointer displaced by `offset` elements, addressing the remaining
    /// `len - offset` elements (the device-side pointer arithmetic the
    /// vbatched driver performs each factorization step).
    #[must_use]
    pub fn offset(&self, offset: usize) -> DevicePtr<T> {
        debug_assert!(offset <= self.len, "offset {offset} beyond {}", self.len);
        DevicePtr {
            // SAFETY: stays within (one past) the allocation.
            ptr: unsafe { self.ptr.add(offset) },
            len: self.len - offset,
            _marker: PhantomData,
        }
    }

    /// Restricts the addressable window to `len` elements.
    #[must_use]
    pub fn truncate(&self, len: usize) -> DevicePtr<T> {
        debug_assert!(len <= self.len);
        DevicePtr {
            ptr: self.ptr,
            len,
            _marker: PhantomData,
        }
    }

    /// Raw pointer value (for identity comparisons/diagnostics).
    #[must_use]
    pub fn raw(&self) -> *mut T {
        self.ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_accounts_and_ooms() {
        let t = MemoryTracker::new(100);
        t.reserve(60).unwrap();
        assert_eq!(t.in_use(), 60);
        let err = t.reserve(50).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.in_use, 60);
        t.release(60);
        assert_eq!(t.in_use(), 0);
        assert_eq!(t.peak(), 60);
        t.reserve(100).unwrap();
        assert_eq!(t.peak(), 100);
    }

    #[test]
    fn buffer_roundtrip_and_release_on_drop() {
        let t = MemoryTracker::new(1024);
        {
            let b: DeviceBuffer<f64> = DeviceBuffer::new(16, Arc::clone(&t)).unwrap();
            assert_eq!(t.in_use(), 128);
            b.fill_from_host(&[1.5; 16]);
            assert_eq!(b.read_to_host(), vec![1.5; 16]);
        }
        assert_eq!(t.in_use(), 0);
    }

    #[test]
    fn ptr_get_set_offset() {
        let t = MemoryTracker::new(1024);
        let b: DeviceBuffer<i32> = DeviceBuffer::new(8, Arc::clone(&t)).unwrap();
        let p = b.ptr();
        for i in 0..8 {
            p.set(i, i as i32 * 10);
        }
        assert_eq!(p.get(3), 30);
        let q = p.offset(4);
        assert_eq!(q.len(), 4);
        assert_eq!(q.get(0), 40);
        let r = q.truncate(2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn pointer_arrays_of_pointers() {
        // Arrays of device pointers in device memory — the vbatched ABI.
        let t = MemoryTracker::new(1 << 20);
        let data: DeviceBuffer<f64> = DeviceBuffer::new(100, Arc::clone(&t)).unwrap();
        let ptrs: DeviceBuffer<DevicePtr<f64>> = DeviceBuffer::new(4, Arc::clone(&t)).unwrap();
        for i in 0..4 {
            ptrs.ptr().set(i, data.ptr().offset(i * 25));
        }
        let p2 = ptrs.ptr().get(2);
        p2.set(0, 7.0);
        assert_eq!(data.ptr().get(50), 7.0);
    }

    #[test]
    #[should_panic(expected = "OOB")]
    #[cfg(debug_assertions)]
    fn oob_read_panics_in_debug() {
        let t = MemoryTracker::new(1024);
        let b: DeviceBuffer<f64> = DeviceBuffer::new(4, t).unwrap();
        let _ = b.ptr().get(4);
    }

    #[test]
    fn alloc_free_counters_track_buffer_lifecycle() {
        let t = MemoryTracker::new(1024);
        assert_eq!((t.alloc_count(), t.free_count()), (0, 0));
        {
            let _a: DeviceBuffer<f64> = DeviceBuffer::new(8, Arc::clone(&t)).unwrap();
            let _b: DeviceBuffer<i32> = DeviceBuffer::new(4, Arc::clone(&t)).unwrap();
            assert_eq!((t.alloc_count(), t.free_count()), (2, 0));
        }
        assert_eq!((t.alloc_count(), t.free_count()), (2, 2));
        // A failed reservation counts as neither.
        assert!(DeviceBuffer::<f64>::new(1 << 20, Arc::clone(&t)).is_err());
        assert_eq!(t.alloc_count(), 2);
    }

    #[test]
    fn zero_length_buffer() {
        let t = MemoryTracker::new(16);
        let b: DeviceBuffer<f64> = DeviceBuffer::new(0, t).unwrap();
        assert!(b.is_empty());
        assert!(b.ptr().is_empty());
    }
}
