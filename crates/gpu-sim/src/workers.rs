//! Fixed-size worker pool: the host engine's lanes and the device
//! launch executor.
//!
//! This is the *only* place in the workspace allowed to spawn threads
//! (enforced by clippy's `disallowed_methods`, configured in the root
//! `clippy.toml`, with one `#[allow]` here): all host-side parallelism
//! goes through this one module so thread count, dispatch order and scratch ownership stay
//! auditable. Its callers use it directly: a `HostEngine` owns a
//! [`WorkerPool`] of its own, and the process-wide [`executor`] runs
//! every `Device::launch`, the large host↔device copies and the dynamic
//! CPU baseline, whose lanes take work through [`WorkerPool::claim`].
//! The pool is deliberately minimal:
//!
//! * **Fixed workers, one job at a time.** [`WorkerPool::new`] spawns
//!   `threads - 1` workers once; [`WorkerPool::run`] publishes a job,
//!   runs one lane of it on the calling thread, and returns when every
//!   worker finished its lane. A pool of one thread spawns nothing and
//!   runs the job inline, so the single-threaded path has zero
//!   synchronization overhead.
//! * **Busy means inline, never wait.** A `run` that finds a job in
//!   flight — another thread launching on the same pool, or a launch
//!   issued from inside a job — runs every lane itself, one after the
//!   other, on the calling thread. It never waits for the pool, so it
//!   cannot deadlock on it; jobs must therefore not make one lane wait
//!   for another.
//! * **Zero allocation per dispatch.** Publishing a job writes a raw
//!   pointer and bumps an epoch under a mutex; no `Box`, no channel, no
//!   thread creation. This keeps the warm host-engine path and the warm
//!   launch path allocation-free (pinned by the bench-crate
//!   counting-allocator tests).
//! * **A bounded spin before parking.** Launches arrive in bursts a few
//!   microseconds apart (a driver's step loop), and a futex sleep/wake
//!   pair costs more than that; workers poll the epoch for
//!   `SPIN_ROUNDS` rounds before sleeping on the condvar, and the
//!   launcher polls the completion count likewise.
//! * **Panics come back to the launcher.** A panic on any lane is
//!   caught there; `run` still waits for every lane (workers hold a
//!   lifetime-erased pointer to the job), then re-raises the first
//!   panic on the calling thread. The pool stays usable afterwards.
//! * **Determinism is the caller's contract.** The pool imposes no
//!   ordering between workers; callers must hand each worker a disjoint
//!   slice of independent work so results are bitwise identical for any
//!   thread count.
//!
//! Thread count resolution ([`resolved_threads`]): the `VBATCH_THREADS`
//! environment variable when set and parseable (floor 1), otherwise
//! `std::thread::available_parallelism()`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};
use std::thread::JoinHandle;

/// The job type workers execute: called once per worker with the
/// worker's index in `0..threads`.
pub type Job<'a> = &'a (dyn Fn(usize) + Sync);

/// What a caught panic carries.
type Payload = Box<dyn Any + Send + 'static>;

/// Polls of the epoch (workers) or of the completion count (launcher)
/// before sleeping on the condvar: about 50 microseconds at ~10 ns per
/// `pause`, which covers the host work between two launches of a
/// driver's step loop or a serving window. Measured on `serve_open`
/// (EXPERIMENTS.md): 0 rounds 1.0 Gflop/s, 2 000 1.8, 5 000 2.1,
/// 50 000 2.15.
const SPIN_ROUNDS: u32 = 5_000;

/// Thread count from the environment: `VBATCH_THREADS` when set and
/// parseable (floor 1), else `available_parallelism()` (floor 1).
#[must_use]
pub fn resolved_threads() -> usize {
    parse_threads(std::env::var("VBATCH_THREADS").ok().as_deref())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// The lane count a `VBATCH_THREADS` value asks for (floor 1), or `None`
/// when it is unset or not a number — a typo must not serialize the
/// process.
fn parse_threads(var: Option<&str>) -> Option<usize> {
    var?.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// The process-wide pool behind every `Device::launch`, the large host
/// copies and the dynamic CPU baseline: [`resolved_threads`] lanes,
/// created on first use and never dropped (its workers sleep between
/// calls and die with the process).
#[must_use]
pub fn executor() -> &'static WorkerPool {
    static EXECUTOR: OnceLock<WorkerPool> = OnceLock::new();
    EXECUTOR.get_or_init(WorkerPool::from_env)
}

/// Items the next claim takes off a slice with `remaining` left: guided
/// self-scheduling, `⌈remaining / (2·lanes)⌉`. Equal chunks leave
/// whichever lane draws the costliest one finishing alone — and the
/// launch path's grids are size-sorted: a Cholesky window's block cost
/// rises all the way to the end, and shrinking claims keep the last
/// ones small enough to even that out, in O(lanes · log n) claims. LU
/// and QR grids run largest first, so their cost falls instead, and the
/// first, largest claim holds the heaviest blocks. The claim sequence
/// is a pure function of the item count and the lane count, so it does
/// not depend on timing.
fn claim_len(remaining: usize, lanes: usize) -> usize {
    remaining.div_ceil(2 * lanes).max(1)
}

/// A lifetime-erased pointer to the current job. Workers only ever
/// dereference it between the epoch bump that published it and their
/// own decrement of `Shared::pending`, which [`WorkerPool::run`] waits
/// on before it returns or unwinds — that is what makes the erasure
/// sound (see SAFETY notes below).
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: JobPtr is only a courier. The pointee is a `Sync` closure
// (shared calls from many threads are fine), and `run` keeps the
// original reference alive, on every exit including a panic on its own
// lane, until every worker reported done — so sending the pointer to
// worker threads never outlives the borrow.
unsafe impl Send for JobPtr {}

struct Slot {
    /// `Some` from publication until the launcher has seen every lane
    /// finish: the pool is busy.
    job: Option<JobPtr>,
    /// First panic caught on a worker lane of the current job.
    panic: Option<Payload>,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Job generation. Bumped under the slot lock when a job is
    /// published (`Release`); spinning workers read it without the lock
    /// (`Acquire`), sleeping ones under it.
    epoch: AtomicU64,
    /// Worker lanes still running the current job. Set under the slot
    /// lock at publication, decremented under it (`Release`) as each
    /// worker finishes; the spinning launcher reads it without the lock
    /// (`Acquire`).
    pending: AtomicUsize,
    /// Workers sleep here waiting for a new epoch (or shutdown).
    work_cv: Condvar,
    /// `run` sleeps here waiting for `pending` to hit zero.
    done_cv: Condvar,
}

/// Fixed pool of `threads - 1` worker threads plus the calling thread.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// A pool presenting `threads` lanes of parallelism (floor 1): the
    /// calling thread plus `threads - 1` spawned workers.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                job: None,
                panic: None,
                shutdown: false,
            }),
            epoch: AtomicU64::new(0),
            pending: AtomicUsize::new(0),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        #[allow(
            clippy::disallowed_methods,
            reason = "the audited worker pool: every host lane and launch-executor \
                      worker starts here"
        )]
        let handles = (0..threads - 1)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vbatch-host-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .unwrap_or_else(|e| panic!("spawn host worker {w}: {e}"))
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
        }
    }

    /// A pool sized by [`resolved_threads`] (`VBATCH_THREADS` override,
    /// default available parallelism).
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(resolved_threads())
    }

    /// The number of parallel lanes (worker threads + the caller).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(w)` once for every lane `w in 0..threads()` and returns
    /// when all are done: on the workers and the calling thread (which
    /// takes lane `threads() - 1`), or — when the pool already has a job
    /// in flight — every lane in turn on the calling thread, without
    /// waiting for the pool. Allocates nothing.
    ///
    /// # Panics
    /// Re-raises the first panic of any lane, after every lane is done;
    /// the pool stays usable.
    pub fn run(&self, job: Job<'_>) {
        if self.handles.is_empty() {
            job(0);
            return;
        }
        {
            let mut slot = lock(&self.shared.slot);
            if slot.job.is_some() {
                drop(slot);
                (0..self.threads).for_each(job);
                return;
            }
            // SAFETY: lifetime erasure only — the borrow stays alive
            // (and this thread stays inside `run`, which catches a
            // panic on its own lane) until every worker is done with
            // the pointer; soundness argued at `JobPtr`.
            let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
            slot.job = Some(JobPtr(erased as *const _));
            self.shared
                .pending
                .store(self.handles.len(), Ordering::Relaxed);
            self.shared.epoch.fetch_add(1, Ordering::Release);
            self.shared.work_cv.notify_all();
        }
        // The caller is the last lane; doing real work here means a
        // T-thread pool uses T cores, not T+1 threads on T cores.
        let own = catch_unwind(AssertUnwindSafe(|| job(self.threads - 1)));
        spin_until(|| self.shared.pending.load(Ordering::Acquire) == 0);
        let mut slot = lock(&self.shared.slot);
        while self.shared.pending.load(Ordering::Acquire) > 0 {
            slot = self
                .shared
                .done_cv
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slot.job = None;
        let worker_panic = slot.panic.take();
        drop(slot);
        if let Some(payload) = own.err().or(worker_panic) {
            resume_unwind(payload);
        }
    }

    /// Runs `f(first, chunk)` over contiguous chunks of `items` until
    /// each item has been handed out exactly once; `first` is the index
    /// of `chunk[0]` in `items`. Every lane, this thread included, claims
    /// `⌈remaining / (2·lanes)⌉` items at a time off the front, so chunks
    /// shrink towards the end and uneven items balance themselves. The
    /// claim sequence depends only on `items.len()` and the lane count,
    /// never on timing. The unclaimed rest sits behind a mutex held for
    /// one `split_at_mut`, never while `f` runs. Fewer than two items and
    /// a one-lane pool run as the one call `f(0, items)` on this thread;
    /// a busy pool runs every chunk on this thread (see
    /// [`WorkerPool::run`]). Allocates nothing.
    ///
    /// # Panics
    /// Re-raises the first panic of `f` after every lane has stopped; the
    /// pool stays usable.
    pub fn claim<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if items.len() < 2 || self.threads == 1 {
            f(0, items);
            return;
        }
        let rest = Mutex::new((0, items));
        self.run(&|_lane| loop {
            let (first, head) = {
                let mut rest = lock(&rest);
                let (first, tail) = &mut *rest;
                if tail.is_empty() {
                    return;
                }
                let take = claim_len(tail.len(), self.threads);
                let (head, unclaimed) = std::mem::take(tail).split_at_mut(take);
                *tail = unclaimed;
                let at = *first;
                *first += take;
                (at, head)
            };
            f(first, head);
        });
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut slot = lock(&self.shared.slot);
            slot.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.handles.drain(..) {
            // Job panics are caught on the lane and re-raised by `run`,
            // so a worker itself only dies of a bug in this file;
            // propagating that out of drop would abort, so log it.
            if h.join().is_err() {
                eprintln!("vbatch host worker panicked");
            }
        }
    }
}

/// Locks `m`, entering it even when a panicking holder poisoned it: the
/// crate's one locking idiom. It is only for values a panic cannot leave
/// half-updated — the pool's slot, the launch scratch (rewritten before
/// each use), and the device clock and fault state, whose updates do
/// not panic midway. The panic itself still reaches its caller.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`lock`] without blocking: `None` while another thread holds `m`.
pub(crate) fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(guard) => Some(guard),
        Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

/// Polls `ready` for at most [`SPIN_ROUNDS`] rounds; the caller then
/// re-checks under the lock and sleeps if it still has to wait.
fn spin_until(ready: impl Fn() -> bool) {
    for _ in 0..SPIN_ROUNDS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        spin_until(|| shared.epoch.load(Ordering::Acquire) != seen_epoch);
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if slot.shutdown {
                    return;
                }
                let epoch = shared.epoch.load(Ordering::Acquire);
                if epoch != seen_epoch {
                    seen_epoch = epoch;
                    break;
                }
                slot = shared
                    .work_cv
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            match slot.job {
                Some(j) => j,
                None => continue,
            }
        };
        // SAFETY: `run` published this pointer under the current epoch
        // and will not return or unwind (or invalidate the borrow)
        // until this worker decrements `pending` below; the pointee is
        // `Sync`.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index) }));
        let mut slot = lock(&shared.slot);
        if let Err(payload) = outcome {
            slot.panic.get_or_insert(payload);
        }
        if shared.pending.fetch_sub(1, Ordering::Release) == 1 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(&|w| {
            assert_eq!(w, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_lane_runs_exactly_once_per_dispatch() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..50 {
            pool.run(&|w| {
                hits[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 50);
        }
    }

    #[test]
    fn disjoint_writes_land() {
        let pool = WorkerPool::new(3);
        let mut out = vec![0usize; 3 * 17];
        let chunks: Vec<&mut [usize]> = out.chunks_mut(17).collect();
        let cell = std::sync::Mutex::new(chunks);
        pool.run(&|w| {
            // Each lane takes its own chunk; the mutex is only the
            // hand-out mechanism, work is disjoint.
            let ptr = {
                let mut guard = cell.lock().unwrap_or_else(PoisonError::into_inner);
                // A write pointer must come from the `&mut` chunk (Miri).
                guard[w].as_mut_ptr() as usize
            };
            // SAFETY: the pointer comes from lane `w`'s own `&mut` chunk of
            // 17 elements, which no other lane touches.
            let s = unsafe { std::slice::from_raw_parts_mut(ptr as *mut usize, 17) };
            for (i, v) in s.iter_mut().enumerate() {
                *v = w * 1000 + i;
            }
        });
        for w in 0..3 {
            for i in 0..17 {
                assert_eq!(out[w * 17 + i], w * 1000 + i);
            }
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    /// Lane hit counts of one more dispatch: every lane exactly once.
    fn assert_usable(pool: &WorkerPool) {
        let hits: Vec<AtomicUsize> = (0..pool.threads()).map(|_| AtomicUsize::new(0)).collect();
        pool.run(&|w| {
            hits[w].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn panic_on_any_lane_reaches_the_launcher_and_the_pool_survives() {
        let pool = WorkerPool::new(4);
        // Lane 3 is the caller's own, lanes 0..3 are workers.
        for bad in 0..4 {
            let finished = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.run(&|w| {
                    assert!(w != bad, "lane {bad} fails");
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }));
            let msg = *caught
                .expect_err("the lane's panic must reach the launcher")
                .downcast::<String>()
                .expect("assert! payload");
            assert_eq!(msg, format!("lane {bad} fails"));
            // `run` waited for the three healthy lanes before unwinding.
            assert_eq!(finished.load(Ordering::Relaxed), 3);
            assert_usable(&pool);
        }
    }

    #[test]
    fn run_from_inside_a_job_goes_inline_on_that_lane() {
        let pool = WorkerPool::new(3);
        let inner_hits = AtomicUsize::new(0);
        pool.run(&|_| {
            let me = std::thread::current().id();
            pool.run(&|_| {
                assert_eq!(std::thread::current().id(), me);
                inner_hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        // Three outer lanes, each running all three inner lanes itself.
        assert_eq!(inner_hits.load(Ordering::Relaxed), 9);
        assert_usable(&pool);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "the two launchers are real threads by purpose"
    )]
    fn concurrent_launchers_never_wait_for_each_other() {
        let pool = WorkerPool::new(2);
        let gate = std::sync::Barrier::new(2);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    gate.wait();
                    for _ in 0..200 {
                        pool.run(&|_| {
                            hits.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        // Pooled or inline, every dispatch runs both lanes once.
        assert_eq!(hits.load(Ordering::Relaxed), 2 * 200 * 2);
        assert_usable(&pool);
    }

    /// The claim sizes `claim` takes off an `n`-item slice.
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
    fn claim_visits_every_item_exactly_once() {
        let pool = WorkerPool::new(4);
        for n in [2usize, 3, 257, 400] {
            let mut visits = vec![0u32; n];
            let chunks = Mutex::new(Vec::new());
            pool.claim(&mut visits, |first, chunk| {
                lock(&chunks).push((first, chunk.len()));
                for v in chunk.iter_mut() {
                    *v += 1;
                }
            });
            assert!(visits.iter().all(|&v| v == 1), "n={n}: {visits:?}");
            // The chunks are the guided claim sequence, tiling `0..n`.
            let mut chunks = chunks.into_inner().unwrap_or_else(PoisonError::into_inner);
            chunks.sort_unstable();
            let tiles: Vec<(usize, usize)> = claim_sequence(n, 4)
                .into_iter()
                .scan(0, |at, len| {
                    *at += len;
                    Some((*at - len, len))
                })
                .collect();
            assert_eq!(chunks, tiles, "n={n}");
        }
    }

    #[test]
    fn claim_offsets_preserve_order_with_uneven_items() {
        let pool = WorkerPool::new(4);
        let heavy = if cfg!(miri) { 20 } else { 20_000 };
        for n in [2usize, 3, 257, 400] {
            // `(index, visits)`. Early items are ~100x the late ones, so
            // lanes finish chunks far out of claim order; each chunk's
            // `first` must still name its place in the slice.
            let mut items: Vec<(usize, u32)> = (0..n).map(|i| (i, 0)).collect();
            pool.claim(&mut items, |first, chunk| {
                for (k, (i, visits)) in chunk.iter_mut().enumerate() {
                    assert_eq!(*i, first + k, "n={n}: chunk offset");
                    let spins = if *i < n / 10 { heavy } else { heavy / 100 };
                    std::hint::black_box((0..spins).fold(*i, |acc, s| acc ^ s));
                    *visits += 1;
                }
            });
            assert!(items.iter().all(|&(_, v)| v == 1), "n={n}: {items:?}");
            let order: Vec<usize> = items.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..n).collect::<Vec<usize>>(), "n={n}");
        }
    }

    #[test]
    fn claim_of_zero_or_one_item_runs_inline_without_the_pool() {
        let pool = WorkerPool::new(4);
        let me = std::thread::current().id();
        let epoch = pool.shared.epoch.load(Ordering::Acquire);
        for n in [0usize, 1] {
            let mut items = vec![7u8; n];
            let calls = AtomicUsize::new(0);
            pool.claim(&mut items, |first, chunk| {
                assert_eq!(std::thread::current().id(), me);
                assert_eq!((first, chunk.len()), (0, n));
                chunk.fill(9);
                calls.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(calls.load(Ordering::Relaxed), 1);
            assert_eq!(items, vec![9u8; n]);
        }
        assert_eq!(
            pool.shared.epoch.load(Ordering::Acquire),
            epoch,
            "no job published"
        );
    }

    #[test]
    fn nested_claim_runs_inline_on_the_issuing_thread() {
        let pool = WorkerPool::new(3);
        let inner_hits = AtomicUsize::new(0);
        pool.claim(&mut [0u8; 8], |_, outer| {
            for _ in outer {
                let me = std::thread::current().id();
                pool.claim(&mut [0u8; 8], |_, inner| {
                    assert_eq!(std::thread::current().id(), me);
                    inner_hits.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(inner_hits.load(Ordering::Relaxed), 64);
        assert_usable(&pool);
    }

    #[test]
    fn panic_in_a_claimed_item_reaches_the_caller_and_the_pool_survives() {
        let pool = WorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.claim(&mut [(); 64], |first, chunk| {
                for i in first..first + chunk.len() {
                    assert!(i != 3, "item 3");
                }
            });
        }));
        let msg = *caught
            .expect_err("the item's panic must reach the caller")
            .downcast::<&str>()
            .expect("assert! payload");
        assert_eq!(msg, "item 3");
        // Every lane has stopped: no job in flight, no worker pending.
        assert!(lock(&pool.shared.slot).job.is_none());
        assert_eq!(pool.shared.pending.load(Ordering::Acquire), 0);
        let mut items = vec![0usize; 64];
        pool.claim(&mut items, |first, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = first + k + 1;
            }
        });
        assert_eq!(items, (1..=64).collect::<Vec<_>>());
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
    fn executor_lane_count_is_the_resolved_thread_count() {
        assert_eq!(executor().threads(), resolved_threads());
    }

    #[test]
    fn unparseable_thread_counts_fall_back_to_the_machine() {
        assert_eq!(parse_threads(None), None);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 3\n")), Some(3));
        assert_eq!(parse_threads(Some("0")), Some(1), "0 clamps to one lane");
        for typo in ["four", "", "-2", "2x", "1.5"] {
            assert_eq!(parse_threads(Some(typo)), None, "{typo:?}");
        }
    }
}
