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
use std::mem::{size_of, MaybeUninit};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::workers::executor;

/// Smallest host copy, in bytes, that [`DeviceBuffer`] splits across the
/// launch executor's lanes: at most one contiguous chunk per lane, each
/// at least half this size. Below it a second lane costs more to wake
/// than it saves. Chosen by a sweep over 32, 64, 128 and 256 KiB
/// (EXPERIMENTS.md, "Split host copies").
const SPLIT_BYTES: usize = 64 << 10;

/// Chunks a host copy of `bytes` runs as (see [`SPLIT_BYTES`]).
fn copy_parts(bytes: usize) -> usize {
    if bytes < SPLIT_BYTES {
        return 1;
    }
    (bytes / (SPLIT_BYTES / 2)).min(executor().threads())
}

/// The host side of a [`DeviceBuffer`] copy; its variant is the
/// direction.
enum Host<'a, T> {
    /// Host → device: these elements land at the buffer's front.
    From(&'a [T]),
    /// Device → host: the buffer's front fills these slots.
    Into(&'a mut [MaybeUninit<T>]),
}

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
pub(crate) struct MemoryTracker {
    capacity: usize,
    in_use: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicU64,
    frees: AtomicU64,
}

impl MemoryTracker {
    /// Creates a tracker for `capacity` bytes.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Arc<Self> {
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
    pub(crate) fn reserve(&self, bytes: usize) -> Result<(), OomError> {
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
    pub(crate) fn release(&self, bytes: usize) {
        self.in_use.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    #[must_use]
    pub(crate) fn in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    #[must_use]
    pub(crate) fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Device capacity in bytes.
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of buffer allocations performed so far (monotonic; not
    /// reset by `Device::reset_metrics`). The difference across a driver
    /// call is the allocation-regression metric: a warm-workspace call
    /// must leave it unchanged.
    #[must_use]
    pub(crate) fn alloc_count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Number of buffer frees performed so far (monotonic).
    #[must_use]
    pub(crate) fn free_count(&self) -> u64 {
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

// SAFETY: `Storage` is plain owned memory behind a raw pointer; moving
// it to another thread moves ownership of its `T`s, sound for T: Send.
unsafe impl<T: Send> Send for Storage<T> {}
// SAFETY: a shared `Storage` is accessed only through raw pointers
// under the kernel disjointness contract, sound for T: Sync.
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
        self.copy_host(Host::From(data));
    }

    /// Host-side read of the whole buffer, bypassing the timing model.
    #[must_use]
    pub fn read_to_host(&self) -> Vec<T> {
        let mut out = Vec::new();
        self.read_prefix_to_host(self.len(), &mut out);
        out
    }

    /// Host-side read of the first `len` elements into `out`, replacing
    /// its contents and bypassing the timing model — what a pooled
    /// buffer's user wants, whose matrix occupies only the front of a
    /// power-of-two size class. `out` keeps its allocation when it
    /// already has room for `len`, and the copy lands straight in its
    /// spare capacity: no zero-initialization pass first (`T: Copy`, so
    /// clearing has no drop obligations).
    ///
    /// # Panics
    /// If `len` exceeds the buffer.
    pub fn read_prefix_to_host(&self, len: usize, out: &mut Vec<T>) {
        assert!(len <= self.len(), "prefix longer than buffer");
        out.clear();
        out.reserve(len);
        self.copy_host(Host::Into(&mut out.spare_capacity_mut()[..len]));
        // SAFETY: `copy_host` initialized exactly the `len` slots
        // `set_len` claims.
        unsafe { out.set_len(len) };
    }

    /// The one body of every host↔device copy above: `host.len()`
    /// elements between `host` and the front of the buffer. A copy of
    /// [`SPLIT_BYTES`] or more splits into one contiguous chunk per
    /// executor lane, claimed the way `Device::launch` claims blocks;
    /// a shorter one is a single `memcpy` on this thread. When the
    /// executor is busy — the copy was issued from inside a kernel, or
    /// beside another launcher — every chunk runs on this thread, so a
    /// copy never waits for the pool. Nothing here touches the
    /// simulated clock.
    fn copy_host(&self, host: Host<'_, T>) {
        let (src, dst, len) = match host {
            Host::From(h) => (h.as_ptr(), self.storage.ptr, h.len()),
            Host::Into(h) => (
                self.storage.ptr.cast_const(),
                h.as_mut_ptr().cast(),
                h.len(),
            ),
        };
        assert!(len <= self.len(), "host data larger than buffer");
        let parts = copy_parts(len * size_of::<T>());
        let chunk = len.div_ceil(parts);
        // `AtomicPtr` only carries the two base pointers to the lanes
        // (it is `Sync` without an `unsafe impl`). Nothing stores to it,
        // and the executor's job hand-off (a `Release` epoch bump its
        // workers read with `Acquire`) publishes it, so `Relaxed` loads
        // see the initial values.
        let (src, dst) = (AtomicPtr::new(src.cast_mut()), AtomicPtr::new(dst));
        // The parts carry no data of their own: the lanes claim
        // zero-sized slots (no allocation) and copy the range each
        // slot's index names.
        executor().claim(&mut vec![(); parts], |first, mine| {
            for p in first..first + mine.len() {
                let lo = (p * chunk).min(len);
                let n = chunk.min(len - lo);
                // SAFETY: part `p` copies the disjoint range
                // `[lo, lo + n)` of `[0, len)`; the ranges of all `parts`
                // chunks tile it exactly once. `len` fits the buffer
                // (asserted) and the host slice (its own length); host
                // and device memory are separate allocations, and the
                // host side is borrowed for the whole call (`&mut` when
                // it is the destination). The caller must not race
                // running kernels on the buffer — the cudaMemcpy
                // contract.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        src.load(Ordering::Relaxed).add(lo).cast_const(),
                        dst.load(Ordering::Relaxed).add(lo),
                        n,
                    );
                }
            }
        });
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
// SAFETY: a shared `DevicePtr` is the same device address seen by many
// blocks; under the same disjointness contract no two touch one element.
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

    /// Elements of `T` in a copy of exactly [`SPLIT_BYTES`].
    fn at_split<T>() -> usize {
        SPLIT_BYTES / size_of::<T>()
    }

    /// Copy lengths around the split boundary, plus odd ones; under Miri
    /// only the smallest that splits.
    fn split_extents<T>() -> Vec<usize> {
        let at = at_split::<T>();
        if cfg!(miri) {
            return vec![at + 1];
        }
        vec![0, 1, 3, 257, at - 1, at, at + 1, 3 * at + 7]
    }

    #[test]
    fn copies_split_at_most_once_per_lane() {
        let lanes = executor().threads();
        assert_eq!(copy_parts(0), 1);
        assert_eq!(copy_parts(SPLIT_BYTES - 1), 1);
        assert_eq!(copy_parts(SPLIT_BYTES), 2.min(lanes));
        assert_eq!(copy_parts(usize::MAX / 2), lanes);
    }

    /// Round-trips every extent of [`split_extents`] through a buffer
    /// three elements longer, comparing `key` bits: the prefix lands
    /// whole, the tail keeps what was there, and a read into a larger
    /// `Vec` replaces its contents in place.
    fn assert_round_trips<T: Copy + Default>(make: impl Fn(usize) -> T, key: impl Fn(T) -> u128) {
        let keys = |v: &[T]| v.iter().map(|&x| key(x)).collect::<Vec<_>>();
        let t = MemoryTracker::new(1 << 30);
        for len in split_extents::<T>() {
            let data: Vec<T> = (0..len).map(&make).collect();
            let old: Vec<T> = (len..2 * len + 3).map(&make).collect();
            let buf = DeviceBuffer::<T>::new(len + 3, Arc::clone(&t)).unwrap();
            buf.fill_from_host(&old);
            buf.fill_from_host(&data);
            let back = buf.read_to_host();
            assert_eq!(keys(&back[..len]), keys(&data), "len {len}: prefix");
            assert_eq!(keys(&back[len..]), keys(&old[len..]), "len {len}: tail");
            let mut out = old.clone();
            let base = out.as_ptr();
            buf.read_prefix_to_host(len, &mut out);
            assert_eq!(keys(&out), keys(&data), "len {len}: read into a Vec");
            assert_eq!(out.as_ptr(), base, "len {len}: the Vec kept its storage");
        }
    }

    #[test]
    fn split_copies_round_trip_bitwise() {
        let mix = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Every bit pattern is fair game, NaN payloads included.
        assert_round_trips(|i| f64::from_bits(mix(i)), |x| x.to_bits().into());
        assert_round_trips(
            |i| f32::from_bits((mix(i) >> 32) as u32),
            |x| x.to_bits().into(),
        );
        assert_round_trips(|i| mix(i) as i32, |x| (x as u32).into());
        let t = MemoryTracker::new(1 << 20);
        let target: DeviceBuffer<f64> = DeviceBuffer::new(1000, t).unwrap();
        assert_round_trips(
            |i| target.ptr().offset(i % 993).truncate(i % 7),
            |p| ((p.raw().addr() as u128) << 64) | p.len() as u128,
        );
    }

    #[test]
    fn read_prefix_of_a_pooled_buffer_reads_only_the_prefix() {
        let dev = crate::Device::new(crate::DeviceConfig::k40c());
        let mut pool = crate::MemoryPool::<f64>::new();
        let len = at_split::<f64>() + 1;
        let buf = pool.take(&dev, len).unwrap();
        assert!(buf.len() > len, "the size class rounds up");
        buf.fill_from_host(&vec![-1.0; buf.len()]);
        let data: Vec<f64> = (0..len).map(|i| i as f64).collect();
        buf.fill_from_host(&data);
        let mut out = Vec::new();
        buf.read_prefix_to_host(len, &mut out);
        assert_eq!(out, data);
        pool.reclaim(buf);
    }

    #[test]
    fn large_copy_from_inside_a_kernel_completes_inline() {
        let dev = crate::Device::new(crate::DeviceConfig::k40c());
        let len = 2 * at_split::<f64>() + 1;
        let data: Vec<f64> = (0..len).map(|i| i as f64 + 0.5).collect();
        let bufs: Vec<DeviceBuffer<f64>> = (0..4).map(|_| dev.alloc(len).unwrap()).collect();
        let outs: Vec<std::sync::Mutex<Vec<f64>>> = (0..4).map(|_| Default::default()).collect();
        // Four blocks keep the executor busy, so each block's copies run
        // on the thread that issued them.
        dev.launch(
            "copy_in_kernel",
            crate::LaunchConfig::grid_1d(4, 32),
            |blk| {
                let b = blk.linear_block_id();
                bufs[b].fill_from_host(&data);
                if let Ok(mut out) = outs[b].lock() {
                    bufs[b].read_prefix_to_host(len, &mut out);
                }
            },
        )
        .unwrap();
        for out in outs {
            assert_eq!(out.into_inner().unwrap(), data);
        }
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the two copiers are real threads by purpose"
    )]
    fn two_threads_copy_into_distinct_buffers_at_once() {
        let t = MemoryTracker::new(1 << 30);
        let len = 3 * at_split::<f64>() + 5;
        let reps = if cfg!(miri) { 2 } else { 20 };
        let gate = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for k in 0..2 {
                let (t, gate) = (&t, &gate);
                s.spawn(move || {
                    let data: Vec<f64> = (0..len).map(|i| (2 * i + k) as f64).collect();
                    let buf = DeviceBuffer::<f64>::new(len, Arc::clone(t)).unwrap();
                    gate.wait();
                    for _ in 0..reps {
                        buf.fill_from_host(&data);
                        assert_eq!(buf.read_to_host(), data);
                    }
                });
            }
        });
    }
}
