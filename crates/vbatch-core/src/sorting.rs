//! Implicit sorting (paper §III-D2).
//!
//! "At every step of the computation, a window of sizes is noted as
//! 'active' ... Matrices of size within this window move to a ready
//! state queue. This approach allows the algorithm to go through the
//! matrices by batch of nearly similar sizes, improving occupancy and
//! workload balance. The window size is determined by the block size
//! `nb`."
//!
//! The scheduler here produces exactly that: matrix indices grouped into
//! size windows of width `window_factor · nb`. The driver then runs each
//! window group to completion with launches sized to the *window*
//! maximum — which both balances the wave (blocks of nearly-equal cost)
//! and raises occupancy (smaller shared-memory panels for small
//! windows). A window's indices ascend by order, so the matrices still
//! live at a step are a suffix of them: each step launches that slice
//! of the window's one index upload, and a factorized matrix gets no
//! block (the paper's retire kernels).
//!
//! A bucket width suits the step loop, whose panels follow `nb`, but
//! not the batched-small tier: one interleaved launch over the bucket
//! `(0, 32]` would give every lane group the shared-memory tile of the
//! largest order. The fused driver therefore re-cuts each window at or
//! below the interleave cutoff into contiguous runs of distinct orders
//! where the simulator's own launch arithmetic predicts the smaller
//! tiles outweigh the extra launch overheads (see
//! `fused::potrf_interleaved_window`). The runs are slices of
//! the window's ascending index list, so the window's one index upload
//! serves all of them.
//!
//! The index permutation is computed on the host from a one-off
//! device→host copy of the size array (charged to the simulated clock),
//! then uploaded as a device index array the kernels indirect through.

use vbatch_gpu_sim::{Device, DeviceBuffer, DevicePtr, OomError};

use crate::workspace::grow_slot;

/// One window of nearly-equal-size matrices, ready to be factorized
/// together.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeWindow {
    /// Batch indices of the matrices in this window (ascending size).
    pub indices: Vec<usize>,
    /// Largest matrix size in the window — sizes every launch for the
    /// group.
    pub max_size: usize,
}

/// Groups matrix sizes into ascending windows of width `window`.
///
/// Zero-sized matrices are dropped (nothing to factorize). Every other
/// index appears in exactly one window.
#[must_use]
pub fn build_windows(sizes: &[usize], window: usize) -> Vec<SizeWindow> {
    let window = window.max(1);
    let mut order: Vec<usize> = (0..sizes.len()).filter(|&i| sizes[i] > 0).collect();
    order.sort_by_key(|&i| sizes[i]);

    let mut out: Vec<SizeWindow> = Vec::new();
    for idx in order {
        let n = sizes[idx];
        // Window bucket: sizes in ((k-1)·w, k·w] share a bucket.
        let bucket = (n - 1) / window;
        match out.last_mut() {
            Some(last) if (last.max_size - 1) / window == bucket => {
                last.indices.push(idx);
                last.max_size = last.max_size.max(n);
            }
            _ => out.push(SizeWindow {
                indices: vec![idx],
                max_size: n,
            }),
        }
    }
    out
}

/// The trivial schedule used when implicit sorting is off: one window
/// containing every (nonzero) matrix, sized by the global maximum.
#[must_use]
pub(crate) fn single_window(sizes: &[usize]) -> Vec<SizeWindow> {
    let indices: Vec<usize> = (0..sizes.len()).filter(|&i| sizes[i] > 0).collect();
    if indices.is_empty() {
        return Vec::new();
    }
    let max_size = indices.iter().map(|&i| sizes[i]).max().unwrap_or(0);
    vec![SizeWindow { indices, max_size }]
}

/// Uploads a window's index list as a device `i32` array (the kernels
/// indirect block → matrix through it) into caller-pooled buffers: the
/// device buffer is grown on demand (never shrunk) and `host` stages the
/// `i32` conversion, so a warm pool uploads with zero allocations.
/// Returns the device pointer truncated to this window's length. Reuse
/// across windows is safe because simulated launches are synchronous.
///
/// # Errors
/// [`OomError`] when device memory is exhausted.
pub(crate) fn upload_indices_pooled(
    dev: &Device,
    indices: &[usize],
    dev_buf: &mut Option<DeviceBuffer<i32>>,
    host: &mut Vec<i32>,
) -> Result<DevicePtr<i32>, OomError> {
    host.clear();
    host.extend(indices.iter().map(|&i| i as i32));
    let buf = grow_slot(dev_buf, DeviceBuffer::len, indices.len(), || {
        dev.alloc::<i32>(indices.len())
    })?;
    buf.fill_from_host(host);
    Ok(buf.ptr().truncate(indices.len()))
}

/// Charges the host↔device traffic the sorting pass needs (sizes down,
/// indices up) to the simulated clock.
pub(crate) fn charge_sort_transfers(dev: &Device, count: usize) {
    dev.copy_dtoh_bytes(count * 4);
    dev.copy_htod_bytes(count * 4);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn sizes_exactly_at_window_multiples_stay_separate() {
        // n = k·w sits in bucket k−1 (half-open upper edge), so exact
        // multiples land in distinct windows, each its own maximum.
        let sizes = vec![32usize, 64, 96];
        let wins = build_windows(&sizes, 32);
        assert_eq!(wins.len(), 3);
        assert_eq!(
            wins.iter().map(|w| w.max_size).collect::<Vec<_>>(),
            vec![32, 64, 96]
        );
        assert_eq!(
            wins.iter().map(|w| w.indices.clone()).collect::<Vec<_>>(),
            vec![vec![0], vec![1], vec![2]]
        );
    }

    #[test]
    fn all_zero_batch_builds_no_windows() {
        assert!(build_windows(&[0, 0, 0, 0], 32).is_empty());
        assert!(build_windows(&[], 32).is_empty());
        assert!(single_window(&[0, 0]).is_empty());
    }

    #[test]
    fn bucket_edge_splits_between_adjacent_sizes() {
        // 31 and 32 share bucket 0 ((0, 32]); 33 opens bucket 1 — one
        // matrix per side of the edge must not be merged across it.
        let sizes = vec![33usize, 31, 32];
        let wins = build_windows(&sizes, 32);
        assert_eq!(wins.len(), 2);
        assert_eq!(wins[0].indices, vec![1, 2]);
        assert_eq!(wins[0].max_size, 32);
        assert_eq!(wins[1].indices, vec![0]);
        assert_eq!(wins[1].max_size, 33);
    }

    #[test]
    fn windows_partition_all_indices() {
        let sizes = vec![100, 3, 57, 64, 8, 200, 33, 1];
        let wins = build_windows(&sizes, 32);
        let mut seen: Vec<usize> = wins.iter().flat_map(|w| w.indices.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Ascending window maxima.
        for pair in wins.windows(2) {
            assert!(pair[0].max_size < pair[1].max_size);
        }
        // Every member within (max - window, max].
        for w in &wins {
            for &i in &w.indices {
                assert!(sizes[i] <= w.max_size);
                assert!(
                    sizes[i] + 32 > w.max_size,
                    "size {} vs window max {}",
                    sizes[i],
                    w.max_size
                );
            }
        }
    }

    #[test]
    fn window_boundaries_are_half_open() {
        // Width 32: sizes 1..=32 in one bucket, 33..=64 the next.
        let sizes = vec![32, 33, 1, 64];
        let wins = build_windows(&sizes, 32);
        assert_eq!(wins.len(), 2);
        assert_eq!(wins[0].max_size, 32);
        assert_eq!(wins[0].indices, vec![2, 0]);
        assert_eq!(wins[1].max_size, 64);
        assert_eq!(wins[1].indices, vec![1, 3]);
    }

    #[test]
    fn zero_sizes_dropped() {
        let wins = build_windows(&[0, 5, 0], 8);
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].indices, vec![1]);
        assert!(build_windows(&[0, 0], 8).is_empty());
    }

    #[test]
    fn single_window_covers_everything() {
        let wins = single_window(&[9, 0, 4]);
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].indices, vec![0, 2]);
        assert_eq!(wins[0].max_size, 9);
        assert!(single_window(&[0]).is_empty());
    }

    #[test]
    fn identical_sizes_share_one_window() {
        let wins = build_windows(&[16; 100], 8);
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].indices.len(), 100);
    }

    #[test]
    fn pooled_upload_reuses_buffer() {
        let dev = Device::new(DeviceConfig::k40c());
        let mut buf = None;
        let mut host = Vec::new();
        let p = upload_indices_pooled(&dev, &[9, 2, 5, 1], &mut buf, &mut host).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!((p.get(0), p.get(3)), (9, 1));
        let allocs = dev.alloc_count();
        // Smaller window: reuse, truncated view, fresh values.
        let p = upload_indices_pooled(&dev, &[7, 8], &mut buf, &mut host).unwrap();
        assert_eq!(dev.alloc_count(), allocs);
        assert_eq!(p.len(), 2);
        assert_eq!((p.get(0), p.get(1)), (7, 8));
        // Larger window: grows.
        let p = upload_indices_pooled(&dev, &[0, 1, 2, 3, 4, 5], &mut buf, &mut host).unwrap();
        assert!(dev.alloc_count() > allocs);
        assert_eq!(p.len(), 6);
        assert_eq!(p.get(5), 5);
    }

    #[test]
    fn upload_and_charge() {
        let dev = Device::new(DeviceConfig::k40c());
        let mut buf = None;
        upload_indices_pooled(&dev, &[4, 7, 1], &mut buf, &mut Vec::new()).unwrap();
        assert_eq!(buf.unwrap().read_to_host(), vec![4, 7, 1]);
        let t0 = dev.now();
        charge_sort_transfers(&dev, 1000);
        assert!(dev.now() > t0);
    }
}
