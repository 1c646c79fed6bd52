//! Offline shim for the subset of `rayon` used by this workspace.
//!
//! The build environment has no crates.io access, so the workspace
//! vendors the few parallel-iterator shapes it relies on:
//!
//! * `(0..n).into_par_iter()`, `slice.par_iter()`,
//!   `slice.par_iter_mut()`
//! * `zip`, `map`, `for_each`, `collect::<Vec<_>>()`
//! * `current_num_threads()`
//!
//! Parallelism is real and **dynamic**: one process-wide
//! [`pool::WorkerPool`] — the workspace's single audited pool, compiled
//! here from `crates/dense/src/pool.rs` so this crate keeps its empty
//! dependency set — is created on the first parallel call with
//! `resolved_threads() - 1` workers and lives for the process. A call
//! publishes one job to it; every lane, the calling thread included,
//! then claims contiguous chunks off the front of the source until none
//! are left. Each claim is a fixed share of what remains, so chunks
//! shrink towards the end: uneven items balance themselves, and no
//! thread is ever created per call. Work stealing is not reproduced.
//! What callers can rely on:
//!
//! * every item is visited exactly once, and `collect` keeps index
//!   order, for any lane count and any interleaving;
//! * sources of fewer than two items, and every call at one lane, run
//!   inline on the caller without touching the pool;
//! * a call that finds the pool busy — a concurrent caller, or a call
//!   made from inside an item — runs all of its items on the calling
//!   thread and never waits for the pool;
//! * a panic in an item is re-raised on the calling thread after every
//!   lane has stopped, and the pool stays usable;
//! * `for_each` allocates nothing once the pool exists.

// The pool's host-engine surface (`new`, `Job`, ...) is unused here.
#[allow(dead_code)]
#[path = "../../../crates/dense/src/pool.rs"]
mod pool;

use std::sync::{Mutex, OnceLock, PoisonError};

/// The process-wide executor behind every parallel call. Never dropped:
/// its workers sleep on a condvar between calls and die with the
/// process.
fn executor() -> &'static pool::WorkerPool {
    static POOL: OnceLock<pool::WorkerPool> = OnceLock::new();
    POOL.get_or_init(pool::WorkerPool::from_env)
}

/// Lanes of the process-wide executor, the calling thread included
/// (upstream's `rayon::current_num_threads`).
#[must_use]
pub fn current_num_threads() -> usize {
    executor().threads()
}

/// Items the next claim takes off a source with `remaining` left:
/// guided self-scheduling, `⌈remaining / (2·lanes)⌉`. Equal chunks leave
/// whichever lane draws the costliest one finishing alone — and the
/// launch path's sources are size-sorted windows, whose item cost rises
/// all the way to the end; shrinking claims keep the last ones small
/// enough to even that out, in O(lanes · log n) claims. The claim
/// sequence is a pure function of the item count and the lane count, so
/// it does not depend on timing.
fn claim_len(remaining: usize, lanes: usize) -> usize {
    remaining.div_ceil(2 * lanes).max(1)
}

/// A finite, splittable, ordered source of items — the shim's stand-in
/// for rayon's producer machinery. Implementations must yield items in
/// index order and split without overlap.
pub trait ParSource: Send + Sized {
    /// Item type produced.
    type Item: Send;
    /// Sequential iterator over the items, in index order.
    type Seq: Iterator<Item = Self::Item>;
    /// Remaining number of items.
    fn len(&self) -> usize;
    /// True when no items remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Splits into `[0, mid)` and `[mid, len)`.
    fn split_at(self, mid: usize) -> (Self, Self);
    /// Iterates this source sequentially.
    fn into_seq(self) -> Self::Seq;
}

/// Range source over `0..n`-style index ranges.
pub struct RangeSource<I> {
    start: I,
    end: I,
}

macro_rules! impl_range_source {
    ($($t:ty),*) => {$(
        impl ParSource for RangeSource<$t> {
            type Item = $t;
            type Seq = core::ops::Range<$t>;
            fn len(&self) -> usize {
                (self.end - self.start) as usize
            }
            fn split_at(self, mid: usize) -> (Self, Self) {
                let m = self.start + mid as $t;
                (
                    RangeSource { start: self.start, end: m },
                    RangeSource { start: m, end: self.end },
                )
            }
            fn into_seq(self) -> Self::Seq {
                self.start..self.end
            }
        }
    )*};
}
impl_range_source!(usize, u64, u32);

/// Shared-slice source.
pub struct SliceSource<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParSource for SliceSource<'a, T> {
    type Item = &'a T;
    type Seq = core::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(mid);
        (SliceSource { slice: l }, SliceSource { slice: r })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.iter()
    }
}

/// Exclusive-slice source.
pub struct SliceMutSource<'a, T: Send> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParSource for SliceMutSource<'a, T> {
    type Item = &'a mut T;
    type Seq = core::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(mid);
        (SliceMutSource { slice: l }, SliceMutSource { slice: r })
    }
    fn into_seq(self) -> Self::Seq {
        self.slice.iter_mut()
    }
}

/// Pairwise zip of two sources (truncates to the shorter).
pub struct ZipSource<A, B> {
    a: A,
    b: B,
}

impl<A: ParSource, B: ParSource> ParSource for ZipSource<A, B> {
    type Item = (A::Item, B::Item);
    type Seq = core::iter::Zip<A::Seq, B::Seq>;
    fn len(&self) -> usize {
        self.a.len().min(self.b.len())
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(mid);
        let (bl, br) = self.b.split_at(mid);
        (ZipSource { a: al, b: bl }, ZipSource { a: ar, b: br })
    }
    fn into_seq(self) -> Self::Seq {
        self.a.into_seq().zip(self.b.into_seq())
    }
}

/// Lazy map over a source.
pub struct MapSource<S, F> {
    src: S,
    f: F,
}

impl<S, F, R> ParSource for MapSource<S, F>
where
    S: ParSource,
    F: Fn(S::Item) -> R + Sync + Send + Clone,
    R: Send,
{
    type Item = R;
    type Seq = core::iter::Map<S::Seq, F>;
    fn len(&self) -> usize {
        self.src.len()
    }
    fn split_at(self, mid: usize) -> (Self, Self) {
        let (l, r) = self.src.split_at(mid);
        (
            MapSource {
                src: l,
                f: self.f.clone(),
            },
            MapSource { src: r, f: self.f },
        )
    }
    fn into_seq(self) -> Self::Seq {
        self.src.into_seq().map(self.f)
    }
}

/// The parallel-iterator adapter surface (subset of
/// `rayon::iter::ParallelIterator`).
pub trait ParallelIterator: ParSource {
    /// Maps each item through `f`.
    fn map<F, R>(self, f: F) -> MapSource<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send + Clone,
        R: Send,
    {
        MapSource { src: self, f }
    }

    /// Zips with another parallel source.
    fn zip<B: ParSource>(self, other: B) -> ZipSource<Self, B> {
        ZipSource { a: self, b: other }
    }

    /// Executes `f` on every item, across the executor's lanes.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        run_chunks(self, &f);
    }

    /// Collects into an ordered container (only `Vec<T>` supported).
    fn collect<C: FromParSource<Self::Item>>(self) -> C {
        C::from_par_source(self)
    }
}

impl<S: ParSource> ParallelIterator for S {}

/// Containers collectable from a parallel source.
pub trait FromParSource<T> {
    /// Builds the container, preserving item order.
    fn from_par_source<S: ParSource<Item = T>>(src: S) -> Self;
}

impl<T: Send> FromParSource<T> for Vec<T> {
    fn from_par_source<S: ParSource<Item = T>>(src: S) -> Self {
        let n = src.len();
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        {
            let slots = SliceMutSource { slice: &mut out };
            let zipped = ZipSource { a: src, b: slots };
            run_chunks(zipped, &|(item, slot)| *slot = Some(item));
        }
        out.into_iter().map(|x| x.expect("slot filled")).collect()
    }
}

/// Runs `f` on every item of `src`: inline for fewer than two items or
/// one lane, else as one executor job whose lanes claim chunks of
/// [`claim_len`] items off the front of the source until it is empty.
/// The unclaimed rest sits behind a mutex because splitting needs the
/// source by value; the lock is held for one `split_at`, never while
/// items run.
fn run_chunks<S, F>(src: S, f: &F)
where
    S: ParSource,
    F: Fn(S::Item) + Sync,
{
    let n = src.len();
    let Some(pool) = (n >= 2).then(executor).filter(|p| p.threads() > 1) else {
        src.into_seq().for_each(f);
        return;
    };
    let lanes = pool.threads();
    let rest = Mutex::new(Some(src));
    pool.run(&|_lane| loop {
        let head = {
            let mut rest = rest.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(src) = rest.take() else { return };
            let take = claim_len(src.len(), lanes);
            if take >= src.len() {
                src
            } else {
                let (head, tail) = src.split_at(take);
                *rest = Some(tail);
                head
            }
        };
        head.into_seq().for_each(f);
    });
}

/// Entry points mirroring `rayon::prelude`.
pub mod prelude {
    use super::{ParSource, RangeSource, SliceMutSource, SliceSource};

    pub use super::{FromParSource, ParallelIterator};

    /// `into_par_iter()` on owned index ranges.
    pub trait IntoParallelIterator {
        /// The parallel source type.
        type Iter: ParSource;
        /// Converts into a parallel source.
        fn into_par_iter(self) -> Self::Iter;
    }

    macro_rules! impl_into_par_range {
        ($($t:ty),*) => {$(
            impl IntoParallelIterator for core::ops::Range<$t> {
                type Iter = RangeSource<$t>;
                fn into_par_iter(self) -> RangeSource<$t> {
                    RangeSource { start: self.start, end: self.end }
                }
            }
        )*};
    }
    impl_into_par_range!(usize, u64, u32);

    /// `par_iter()` on shared slices.
    pub trait IntoParallelRefIterator<'a> {
        /// The parallel source type.
        type Iter: ParSource;
        /// Shared parallel view of the collection.
        fn par_iter(&'a self) -> Self::Iter;
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
        type Iter = SliceSource<'a, T>;
        fn par_iter(&'a self) -> SliceSource<'a, T> {
            SliceSource { slice: self }
        }
    }

    impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Iter = SliceSource<'a, T>;
        fn par_iter(&'a self) -> SliceSource<'a, T> {
            SliceSource { slice: self }
        }
    }

    /// `par_iter_mut()` on exclusive slices.
    pub trait IntoParallelRefMutIterator<'a> {
        /// The parallel source type.
        type Iter: ParSource;
        /// Exclusive parallel view of the collection.
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }

    impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
        type Iter = SliceMutSource<'a, T>;
        fn par_iter_mut(&'a mut self) -> SliceMutSource<'a, T> {
            SliceMutSource { slice: self }
        }
    }

    impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
        type Iter = SliceMutSource<'a, T>;
        fn par_iter_mut(&'a mut self) -> SliceMutSource<'a, T> {
            SliceMutSource { slice: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::claim_len;
    use super::prelude::*;

    #[test]
    fn range_map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(v.len(), 1000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn collect_preserves_order_with_uneven_items() {
        // Early items are ~100x the late ones, so lanes finish chunks
        // far out of claim order; the result must not show it.
        let v: Vec<u64> = (0..400u64)
            .into_par_iter()
            .map(|i| {
                let spins = if i < 40 { 20_000 } else { 200 };
                (0..spins).fold(i, |acc, k| std::hint::black_box(acc ^ k) ^ k)
            })
            .collect();
        assert_eq!(v, (0..400).collect::<Vec<u64>>());
    }

    #[test]
    fn par_iter_mut_zip_map_collect() {
        let mut data = vec![1i32; 100];
        let sizes: Vec<i32> = (0..100).collect();
        let out: Vec<i32> = data
            .par_iter_mut()
            .zip(sizes.par_iter())
            .map(|(d, &s)| {
                *d += s;
                *d
            })
            .collect();
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, 1 + i as i32);
            assert_eq!(data[i], 1 + i as i32);
        }
    }

    #[test]
    fn for_each_touches_everything() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        (0..257usize).into_par_iter().for_each(|i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 257 * 256 / 2);
    }

    #[test]
    fn nested_call_runs_inline_and_completes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let total = AtomicUsize::new(0);
        (0..8usize).into_par_iter().for_each(|_| {
            (0..8usize).into_par_iter().for_each(|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn panic_in_an_item_reaches_the_caller_and_the_pool_survives() {
        let caught = std::panic::catch_unwind(|| {
            (0..64usize).into_par_iter().for_each(|i| {
                assert!(i != 3, "item 3");
            });
        });
        assert!(caught.is_err());
        let v: Vec<usize> = (0..64usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(v, (1..=64).collect::<Vec<_>>());
    }

    /// The claim sizes `run_chunks` takes off an `n`-item source.
    fn claim_sequence(n: usize, lanes: usize) -> Vec<usize> {
        let mut claims = Vec::new();
        let mut remaining = n;
        while remaining > 0 {
            let take = claim_len(remaining, lanes);
            claims.push(take);
            remaining -= take;
        }
        claims
    }

    #[test]
    fn guided_claims_cover_every_item_once_and_shrink() {
        for lanes in [2usize, 3, 4, 64] {
            for n in [2usize, 3, 7, 64, 1000, 5000, 100_000] {
                let claims = claim_sequence(n, lanes);
                assert_eq!(claims.iter().sum::<usize>(), n, "n={n} lanes={lanes}");
                assert!(claims.iter().all(|&c| c >= 1));
                assert!(
                    claims.windows(2).all(|w| w[0] >= w[1]),
                    "claims must not grow: n={n} lanes={lanes}"
                );
                // Each claim leaves at most (1 − 1/2L) of the rest, so
                // the count is O(lanes · log n).
                let log2 = (usize::BITS - n.leading_zeros()) as usize;
                assert!(
                    claims.len() <= 2 * lanes * (log2 + 1),
                    "n={n} lanes={lanes}: {} claims",
                    claims.len()
                );
                // No lane is ever handed more than half a lane's share.
                assert!(claims[0] <= n.div_ceil(2 * lanes));
                assert_eq!(claims, claim_sequence(n, lanes), "same sequence on repeat");
            }
        }
    }

    #[test]
    fn current_num_threads_is_the_resolved_lane_count() {
        assert_eq!(
            super::current_num_threads(),
            super::pool::resolved_threads()
        );
    }

    #[test]
    fn empty_inputs() {
        let v: Vec<usize> = (0..0usize).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }
}
