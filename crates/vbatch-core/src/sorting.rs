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
//! window group to completion, one step of its driver frame, with
//! launches sized to the *window* maximum — which both balances the wave
//! (blocks of nearly-equal cost) and raises occupancy (smaller
//! shared-memory panels for small windows). A window's indices ascend by
//! order, so the matrices still live at a step are a suffix of them: the
//! driver's planner (`driver::fused_launches`) yields one record per
//! launch, each step's being that suffix of the window's one index
//! upload, and a factorized matrix gets no block (the paper's retire
//! kernels).
//!
//! A bucket width suits the step loop, whose panels follow `nb`, but
//! not the batched-small tier: one interleaved launch over the bucket
//! `(0, 32]` would give every lane group the shared-memory tile of the
//! largest order. The fused driver therefore re-cuts each window at or
//! below the interleave cutoff into contiguous runs of distinct orders
//! where the simulator's own launch arithmetic predicts the smaller
//! tiles outweigh the extra launch overheads (see
//! `fused::potrf_interleaved_window`). The same planner yields the runs
//! as records too; they are slices of the window's ascending index
//! list, so the call's one index upload serves all of them.
//!
//! The permutation is computed from `VBatch`'s host mirror of the
//! sizes, so nothing is read back from the device. The call's windows,
//! back to back, form one permutation that is uploaded once as a device
//! index array the kernels indirect through; each window, and each half
//! the OOM ladder cuts from one and plans afresh, launches on its slice
//! of it (when the whole permutation does not fit in memory, the attempt
//! uploads just its own indices). Every launch reads its blocks' matrices
//! through such an index list, an unsorted call's included. The upload
//! goes through `upload_resident`, which keeps a host twin of
//! what the device buffer holds and sends nothing when the new plan is a
//! prefix of it: a repeated call of one shape, or a batch that arrives
//! in size order (its permutation is the identity) after a larger one,
//! finds its plan already on the device.
//!
//! LU and QR sort too, without windows: one launch order per call, every
//! matrix with a panel, largest first by `(min(m, n), m, n)`, made
//! resident in the same slot through `upload_resident`. Their steps
//! launch over a prefix of it (the matrices still live), and a batch
//! that arrives largest first, as a serving LU window does, has the
//! identity for its order. See `DriverWorkspace::launch_order`.

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

/// Makes `plan` resident at the front of `slot`'s device buffer and
/// returns its device pointer. `twin` is the host copy of what the
/// buffer holds: the plan is written over it in place, and when every
/// value matched (the plan equals a prefix of what the device holds)
/// nothing is uploaded or charged. Otherwise the buffer is grown on
/// demand (never shrunk), `twin` becomes exactly the plan, and the plan
/// is uploaded and, when `charge` is set, charged as one host→device
/// transfer. An uncharged upload leaves `twin` empty, so no charged call
/// finds resident a plan nobody paid for; a failed grow leaves both
/// empty. Reuse is safe because simulated launches are synchronous.
///
/// # Errors
/// [`OomError`] when device memory is exhausted.
pub(crate) fn upload_resident(
    dev: &Device,
    plan: impl IntoIterator<Item = i32>,
    twin: &mut Vec<i32>,
    slot: &mut Option<DeviceBuffer<i32>>,
    charge: bool,
) -> Result<DevicePtr<i32>, OomError> {
    let plan = plan.into_iter();
    // One grow to the plan's known length, not one per doubling.
    twin.reserve(plan.size_hint().0.saturating_sub(twin.len()));
    let mut resident = slot.is_some();
    let mut len = 0;
    for v in plan {
        match twin.get_mut(len) {
            Some(t) if *t == v => {}
            Some(t) => {
                *t = v;
                resident = false;
            }
            None => {
                twin.push(v);
                resident = false;
            }
        }
        len += 1;
    }
    if !resident {
        twin.truncate(len);
        let buf = match grow_slot(slot, DeviceBuffer::len, len, || dev.alloc(len.max(1))) {
            Ok(buf) => buf,
            Err(e) => {
                twin.clear();
                return Err(e);
            }
        };
        buf.fill_from_host(twin);
        if !charge {
            twin.clear();
        } else if len > 0 {
            dev.copy_htod_bytes(len * 4);
        }
    }
    Ok(slot.as_ref().expect("resident above").ptr().truncate(len))
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

    /// Uploads `plan` through [`upload_resident`] and checks the device
    /// holds it.
    fn resident(
        dev: &Device,
        plan: &[i32],
        twin: &mut Vec<i32>,
        buf: &mut Option<DeviceBuffer<i32>>,
        charge: bool,
    ) {
        let p = upload_resident(dev, plan.iter().copied(), twin, buf, charge).unwrap();
        assert_eq!(p.len(), plan.len());
        assert_eq!((0..p.len()).map(|k| p.get(k)).collect::<Vec<_>>(), plan);
    }

    #[test]
    fn pooled_upload_reuses_buffer() {
        let dev = Device::new(DeviceConfig::k40c());
        let (mut twin, mut buf) = (Vec::new(), None);
        resident(&dev, &[9, 2, 5, 1], &mut twin, &mut buf, true);
        let allocs = dev.alloc_count();
        // A shorter, different plan: reuse, truncated view, fresh values.
        resident(&dev, &[7, 8], &mut twin, &mut buf, true);
        assert_eq!(dev.alloc_count(), allocs);
        assert_eq!(twin, vec![7, 8]);
        // A longer one grows the buffer.
        resident(&dev, &[0, 1, 2, 3, 4, 5], &mut twin, &mut buf, true);
        assert!(dev.alloc_count() > allocs);
        // An uncharged upload moves no clock and leaves nothing resident.
        let t0 = dev.now();
        for _ in 0..2 {
            resident(&dev, &[2, 1, 0], &mut twin, &mut buf, false);
            assert!(twin.is_empty());
        }
        assert_eq!(dev.now(), t0);
    }

    /// The residency rule on the simulated clock, exactly: a plan costs
    /// one host→device transfer of its bytes unless it equals a prefix
    /// of what the device holds, and an emptied slot uploads again.
    #[test]
    fn upload_and_charge() {
        let dev = Device::new(DeviceConfig::k40c());
        let (mut twin, mut buf) = (Vec::new(), None);
        let mut want = 0.0;
        let mut step = |plan: &[i32], uploads: bool| {
            resident(&dev, plan, &mut twin, &mut buf, true);
            if uploads {
                want += dev.transfer_seconds(4 * plan.len());
            }
            assert_eq!(dev.now(), want, "plan {plan:?}");
        };
        step(&[4, 7, 1], true); // cold
        step(&[4, 7, 1], false); // the same plan
        step(&[4, 7], false); // a prefix of it
        step(&[4, 1], true); // a different permutation
        step(&[4, 1, 0], true); // longer than what the device holds
        step(&[4, 1, 0], false);
        // An emptied slot (what `DriverWorkspace::release` leaves)
        // uploads again.
        let (mut twin, mut buf) = (Vec::new(), None);
        let t0 = dev.now();
        resident(&dev, &[4, 1, 0], &mut twin, &mut buf, true);
        assert_eq!(dev.now(), t0 + dev.transfer_seconds(12));
    }
}
