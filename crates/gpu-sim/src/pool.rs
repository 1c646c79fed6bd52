//! Size-class device-memory pooling for the multi-device sharded path.
//!
//! A [`MemoryPool`] keeps freed [`DeviceBuffer`]s in per-size-class free
//! lists and hands them back on the next request for the same class, so
//! a warm sharded run performs zero device allocations or frees per
//! launch. The design follows the *exclusive page* model: every buffer
//! serves exactly one allocation at a time (no sub-allocation, no
//! slicing), which keeps the pool trivially correct under the
//! simulator's pointer model — a recycled buffer is always at least as
//! large as the request and is owned by a single user until it is
//! [`MemoryPool::reclaim`]ed.
//!
//! Classes are powers of two (with a small minimum class so metadata
//! arrays of nearby batch counts share buffers). Rounding a request up
//! to its class wastes at most 2× capacity in exchange for reuse across
//! *variable-size* shards — the defining workload of this repo: two
//! shards rarely contain identical matrix sizes, but their sizes land in
//! the same classes.
//!
//! Determinism: the pool is a plain `BTreeMap` of `Vec` stacks — no
//! hashing, no clocks — so allocation order (and therefore fault-plan
//! alloc indices and recovery behavior) is a pure function of the
//! request sequence.

use std::collections::BTreeMap;

use crate::device::Device;
use crate::mem::{DeviceBuffer, OomError};

/// Smallest class in elements: requests below this share one class.
const MIN_CLASS: usize = 64;

/// A per-device, per-element-type free-list allocator over
/// [`DeviceBuffer`]s. See the module docs for the model.
pub struct MemoryPool<T> {
    /// Free buffers keyed by class length (elements). `BTreeMap` keeps
    /// iteration and trimming deterministic.
    free: BTreeMap<usize, Vec<DeviceBuffer<T>>>,
    held_bytes: usize,
    outstanding_bytes: usize,
    high_water_bytes: usize,
    hits: u64,
    misses: u64,
}

impl<T> Default for MemoryPool<T> {
    fn default() -> Self {
        Self {
            free: BTreeMap::new(),
            held_bytes: 0,
            outstanding_bytes: 0,
            high_water_bytes: 0,
            hits: 0,
            misses: 0,
        }
    }
}

impl<T: Copy + Default> MemoryPool<T> {
    /// Creates an empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The class a request of `len` elements is served from.
    #[must_use]
    pub(crate) fn class_len(len: usize) -> usize {
        if len == 0 {
            0
        } else {
            len.next_power_of_two().max(MIN_CLASS)
        }
    }

    /// Takes a buffer of at least `len` elements: recycled from the
    /// matching free list when possible, otherwise allocated on `dev`
    /// (the only path that touches the device allocator). The returned
    /// buffer's length is the *class* length; its contents are stale
    /// when recycled — callers must fully overwrite what they read.
    ///
    /// # Errors
    /// [`OomError`] when a miss cannot be served by the device.
    pub fn take(&mut self, dev: &Device, len: usize) -> Result<DeviceBuffer<T>, OomError> {
        let class = Self::class_len(len);
        let buf = match self.free.get_mut(&class).and_then(Vec::pop) {
            Some(buf) => {
                self.hits += 1;
                self.held_bytes -= buf.bytes();
                buf
            }
            None => {
                self.misses += 1;
                dev.alloc::<T>(class)?
            }
        };
        self.outstanding_bytes += buf.bytes();
        self.high_water_bytes = self.high_water_bytes.max(self.outstanding_bytes);
        Ok(buf)
    }

    /// Returns a buffer to its free list (keyed by the buffer's own
    /// length, so foreign buffers pool correctly too).
    pub fn reclaim(&mut self, buf: DeviceBuffer<T>) {
        self.outstanding_bytes = self.outstanding_bytes.saturating_sub(buf.bytes());
        self.held_bytes += buf.bytes();
        self.free.entry(buf.len()).or_default().push(buf);
    }

    /// Drops every free buffer, returning its memory to the device
    /// (the pool analogue of a device buffer's release on drop).
    pub fn trim(&mut self) {
        self.free.clear();
        self.held_bytes = 0;
    }

    /// Requests served from a free list.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that fell through to the device allocator.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Bytes currently parked in free lists.
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.held_bytes
    }

    /// Bytes currently checked out of the pool.
    #[must_use]
    pub fn outstanding_bytes(&self) -> usize {
        self.outstanding_bytes
    }

    /// High-water mark of checked-out bytes over the pool's lifetime.
    #[must_use]
    pub fn high_water_bytes(&self) -> usize {
        self.high_water_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::tiny_test())
    }

    #[test]
    fn class_rounding() {
        assert_eq!(MemoryPool::<f64>::class_len(0), 0);
        assert_eq!(MemoryPool::<f64>::class_len(1), MIN_CLASS);
        assert_eq!(MemoryPool::<f64>::class_len(64), 64);
        assert_eq!(MemoryPool::<f64>::class_len(65), 128);
        assert_eq!(MemoryPool::<f64>::class_len(1000), 1024);
    }

    #[test]
    fn warm_take_is_alloc_free() {
        let d = dev();
        let mut pool = MemoryPool::<f64>::new();
        let a = pool.take(&d, 100).unwrap();
        assert_eq!(a.len(), 128);
        assert_eq!(pool.misses(), 1);
        pool.reclaim(a);
        let (allocs, frees) = (d.alloc_count(), d.free_count());
        // Same class (even from a different request length): recycled.
        let b = pool.take(&d, 70).unwrap();
        assert_eq!(b.len(), 128);
        assert_eq!(pool.hits(), 1);
        assert_eq!(d.alloc_count(), allocs);
        assert_eq!(d.free_count(), frees);
        pool.reclaim(b);
    }

    #[test]
    fn high_water_tracks_outstanding() {
        let d = dev();
        let mut pool = MemoryPool::<f64>::new();
        let a = pool.take(&d, 64).unwrap();
        let b = pool.take(&d, 64).unwrap();
        assert_eq!(pool.outstanding_bytes(), 2 * 64 * 8);
        pool.reclaim(a);
        pool.reclaim(b);
        assert_eq!(pool.outstanding_bytes(), 0);
        assert_eq!(pool.high_water_bytes(), 2 * 64 * 8);
        assert_eq!(pool.held_bytes(), 2 * 64 * 8);
    }

    #[test]
    fn trim_returns_memory_to_device() {
        let d = dev();
        let mut pool = MemoryPool::<f64>::new();
        let a = pool.take(&d, 256).unwrap();
        pool.reclaim(a);
        assert!(d.mem_in_use() > 0);
        pool.trim();
        assert_eq!(d.mem_in_use(), 0);
        assert_eq!(pool.held_bytes(), 0);
    }

    #[test]
    fn zero_length_requests_pool_too() {
        let d = dev();
        let mut pool = MemoryPool::<f64>::new();
        let a = pool.take(&d, 0).unwrap();
        assert_eq!(a.len(), 0);
        pool.reclaim(a);
        let allocs = d.alloc_count();
        let b = pool.take(&d, 0).unwrap();
        assert_eq!(d.alloc_count(), allocs, "zero-size buffers must recycle");
        pool.reclaim(b);
    }
}
