//! Multicore host execution engine: the host as a batched-factorization
//! peer.
//!
//! The paper's title promises *heterogeneous* parallel architectures;
//! this module redeems the host half. A [`HostEngine`] drives the same
//! per-matrix arithmetic as the simulated device — literally the same
//! functions (`fused::fused_step_math` for the blocked panel loop,
//! [`vbatch_dense::interleave::potrf_lanes_in_place`] for the batched-small
//! interleaved tier) — across a fixed pool of worker threads
//! ([`vbatch_gpu_sim::workers::WorkerPool`]).
//!
//! # Determinism
//!
//! Results are **bitwise identical for any thread count and for any
//! host/device placement**, by construction:
//!
//! * every matrix's factorization is independent — no floating-point
//!   reduction ever crosses a matrix boundary, so partitioning the batch
//!   across workers cannot reassociate anything;
//! * host and device share one implementation of the panel step
//!   (`fused_step_math`, called with `ctx = None` here so only the cost
//!   charges disappear, never an arithmetic operation);
//! * the interleaved lane kernel is bit-identical to the scalar tier
//!   per lane *regardless of group membership or group extent* (the
//!   contract pinned in `vbatch_dense::interleave`), so the host may
//!   regroup small matrices without changing a single bit;
//! * routing (interleaved vs per-step) depends only on each matrix's own
//!   order once [`crate::shard::normalized_options`] pins the window
//!   width to the interleave cutoff — which is exactly how the hybrid
//!   scheduler calls both sides.
//!
//! # Zero-allocation warm path
//!
//! All coordinator scratch (work items, per-worker assignments, sorted
//! order) lives in a pooled [`HostState`] and grows but never shrinks;
//! the interleave tile is each worker thread's own grow-only
//! `Scalar::with_scratch` buffer, and the LPT assignment is
//! deterministic, so a worker sees the same groups every run. After one
//! warm-up run, [`potrf_batch_host`] performs no heap allocation at all
//! (pinned by the bench-crate counting-allocator test).

use vbatch_dense::interleave::{self, MAX_LANES};
use vbatch_dense::{MatMut, Scalar, Uplo};
use vbatch_gpu_sim::workers::WorkerPool;

use crate::driver::PotrfOptions;
use crate::fused::{fused_step_math, DEFAULT_NB};
use crate::report::VbatchError;

/// Fixed-pool multicore host engine. Construction spawns the workers;
/// the pool is reused across every batch the engine runs.
pub struct HostEngine {
    pool: WorkerPool,
}

impl HostEngine {
    /// An engine with an explicit thread count (floor 1).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Self {
            pool: WorkerPool::new(threads),
        }
    }

    /// An engine sized by `VBATCH_THREADS` (default: available
    /// parallelism).
    #[must_use]
    pub fn from_env() -> Self {
        Self {
            pool: WorkerPool::from_env(),
        }
    }

    /// Number of worker lanes (including the calling thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }
}

impl Default for HostEngine {
    fn default() -> Self {
        Self::from_env()
    }
}

/// One unit of host work: either a lane group of small matrices
/// (interleaved tier) or a single blocked factorization.
#[derive(Clone, Copy)]
enum ItemKind {
    /// `cnt` entries of `HostState::small` starting at `first`,
    /// factorized as one interleaved lane group.
    Lanes { first: usize, cnt: usize },
    /// One matrix through the blocked fused-step loop.
    Single { gi: usize, n: usize },
    /// One matrix through blocked LU.
    Getrf { gi: usize, n: usize },
}

#[derive(Clone, Copy)]
struct Item {
    kind: ItemKind,
    cost: f64,
}

/// Pooled coordinator scratch for a [`HostEngine`]. Reuse one
/// state across runs to keep the warm path allocation-free.
pub struct HostState<T> {
    /// `(n, gi)` pairs routed to the interleaved tier, sorted ascending.
    small: Vec<(usize, usize)>,
    items: Vec<Item>,
    /// Item ids sorted by descending cost (LPT order).
    order: Vec<usize>,
    /// Per-worker item-id lists.
    assign: Vec<Vec<usize>>,
    loads: Vec<f64>,
    /// The element type names which engine entry points a state serves;
    /// no typed scratch is left in it.
    _elem: core::marker::PhantomData<T>,
}

impl<T: Scalar> HostState<T> {
    #[must_use]
    pub fn new() -> Self {
        Self {
            small: Vec::new(),
            items: Vec::new(),
            order: Vec::new(),
            assign: Vec::new(),
            loads: Vec::new(),
            _elem: core::marker::PhantomData,
        }
    }

    fn ensure_workers(&mut self, threads: usize) {
        while self.assign.len() < threads {
            self.assign.push(Vec::new());
        }
        if self.loads.len() < threads {
            self.loads.resize(threads, 0.0);
        }
    }
}

impl<T: Scalar> Default for HostState<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A raw-pointer view of a slice handed to the worker pool. Workers
/// index disjoint elements (the scheduler partitions matrix indices),
/// so handing each worker `&mut` access to *its* elements is sound even
/// though the wrapper itself is shared.
struct SharedSlice<U> {
    ptr: *mut U,
    len: usize,
}

impl<U> SharedSlice<U> {
    fn new(s: &mut [U]) -> Self {
        Self {
            ptr: s.as_mut_ptr(),
            len: s.len(),
        }
    }

    /// # Safety
    /// `i < self.len`, and no two concurrent callers pass the same `i`.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut U {
        debug_assert!(i < self.len);
        // SAFETY: in-bounds by the caller contract; disjointness of `i`
        // across workers makes the derived `&mut` unique.
        unsafe { &mut *self.ptr.add(i) }
    }
}

// SAFETY: `SharedSlice` is only a courier for the base pointer; element
// access is disjoint per worker (caller contract on `get`), and `U`
// itself crosses threads, hence the `U: Send` bound.
unsafe impl<U: Send> Send for SharedSlice<U> {}
// SAFETY: `&SharedSlice` only exposes `get`, whose disjointness contract
// is what shared access means here.
unsafe impl<U: Send> Sync for SharedSlice<U> {}

fn validate_batch<T: Scalar>(
    sizes: &[usize],
    mats: &[Vec<T>],
    indices: &[usize],
    info: &[i32],
) -> Result<(), VbatchError> {
    if mats.len() != sizes.len() || info.len() != sizes.len() {
        return Err(VbatchError::InvalidArgument(
            "host engine: sizes/mats/info length mismatch",
        ));
    }
    for &gi in indices {
        let Some(n) = sizes.get(gi) else {
            return Err(VbatchError::InvalidArgument(
                "host engine: matrix index out of range",
            ));
        };
        if mats[gi].len() < n * n {
            return Err(VbatchError::InvalidArgument(
                "host engine: matrix storage smaller than n*n",
            ));
        }
    }
    Ok(())
}

/// Builds the LPT (longest-processing-time) assignment of
/// `state.items` onto `threads` workers. Deterministic: ties in cost
/// break on item id, ties in load break on worker index.
fn assign_lpt<T: Scalar>(state: &mut HostState<T>, threads: usize) {
    state.ensure_workers(threads);
    state.order.clear();
    state.order.extend(0..state.items.len());
    let items = &state.items;
    state
        .order
        .sort_unstable_by(|&a, &b| match items[b].cost.total_cmp(&items[a].cost) {
            core::cmp::Ordering::Equal => a.cmp(&b),
            o => o,
        });
    for w in 0..threads {
        state.assign[w].clear();
        state.loads[w] = 0.0;
    }
    for &id in &state.order {
        let mut best = 0usize;
        for w in 1..threads {
            if state.loads[w] < state.loads[best] {
                best = w;
            }
        }
        state.assign[best].push(id);
        state.loads[best] += items[id].cost;
    }
}

/// Factorizes `mats[gi]` for every `gi` in `indices` on the host pool:
/// the Cholesky analog of the device's fused path, with identical
/// routing and identical arithmetic (see the module docs for the
/// determinism argument). `info[gi]` receives the LAPACK-style code (0
/// ok, `k` > 0 for a breakdown in column `k`); other entries of `info`
/// are untouched. Matrices are column-major order-`n` with `ld = n`.
///
/// Routing matches the device under pinned options: matrices at or
/// below the interleave cutoff (when `opts.fused.batched_small` and
/// `uplo == Lower`) take the lane-interleaved tier; the rest run the
/// blocked fused-step loop with `nb = opts.fused.nb` (default
/// [`DEFAULT_NB`] when unset — pass options through
/// [`crate::shard::normalized_options`] to match a device bit-for-bit).
///
/// Returns the total useful flops (the paper's `n³/3 + …` Cholesky
/// count summed over the selected matrices).
///
/// # Errors
/// [`VbatchError::InvalidArgument`] on length mismatches, out-of-range
/// indices, or undersized matrix storage.
pub fn potrf_batch_host<T: Scalar>(
    engine: &HostEngine,
    sizes: &[usize],
    mats: &mut [Vec<T>],
    indices: &[usize],
    opts: &PotrfOptions,
    state: &mut HostState<T>,
    info: &mut [i32],
) -> Result<f64, VbatchError> {
    validate_batch(sizes, mats, indices, info)?;
    let uplo = opts.uplo;
    let nb = opts.fused.nb.unwrap_or(DEFAULT_NB).max(1);
    let cutoff = if opts.fused.batched_small && uplo == Uplo::Lower {
        opts.fused.resolved_interleave_cutoff::<T>()
    } else {
        0
    };
    let lanes = interleave::lane_count::<T>();

    // Plan: route each matrix, group the small tier into lanes.
    state.small.clear();
    state.items.clear();
    let mut useful_flops = 0.0f64;
    for &gi in indices {
        let n = sizes[gi];
        if n == 0 {
            info[gi] = 0;
            continue;
        }
        useful_flops += vbatch_dense::flops::potrf(n);
        if n <= cutoff {
            state.small.push((n, gi));
        } else {
            state.items.push(Item {
                kind: ItemKind::Single { gi, n },
                cost: vbatch_dense::flops::potrf(n),
            });
        }
    }
    state.small.sort_unstable();
    let groups = state.small.len().div_ceil(lanes);
    for g in 0..groups {
        let first = g * lanes;
        let cnt = lanes.min(state.small.len() - first);
        let cost: f64 = state.small[first..first + cnt]
            .iter()
            .map(|&(n, _)| vbatch_dense::flops::potrf(n))
            .sum();
        state.items.push(Item {
            kind: ItemKind::Lanes { first, cnt },
            cost,
        });
    }

    let threads = engine.threads();
    assign_lpt(state, threads);

    let small: &[(usize, usize)] = &state.small;
    let items: &[Item] = &state.items;
    let assign: &[Vec<usize>] = &state.assign;
    let shared_mats = SharedSlice::new(mats);
    let shared_info = SharedSlice::new(info);

    engine.pool.run(&|w| {
        for &id in &assign[w] {
            match items[id].kind {
                ItemKind::Single { gi, n } => {
                    // SAFETY: `gi` appears in exactly one item and each
                    // item is assigned to exactly one worker.
                    let a = unsafe { shared_mats.get(gi) };
                    let mut code = 0i32;
                    let mut j = 0usize;
                    while j < n {
                        let view = MatMut::from_slice(&mut a[..n * n], n, n, n);
                        if let Err(col) = fused_step_math::<T>(None, uplo, view, n, j, nb) {
                            code = (col + 1) as i32;
                            break;
                        }
                        j += nb;
                    }
                    // SAFETY: same disjointness as the matrix itself.
                    unsafe { *shared_info.get(gi) = code };
                }
                ItemKind::Lanes { first, cnt } => {
                    run_lane_group(&small[first..first + cnt], &shared_mats, &shared_info);
                }
                ItemKind::Getrf { .. } => unreachable!("potrf plan holds no LU items"),
            }
        }
    });
    Ok(useful_flops)
}

/// Factorizes one lane group of `(n, gi)` entries in place through the
/// routine `potrf_interleaved_window`'s blocks run — one body, so the
/// host and the device produce identical bits per lane.
fn run_lane_group<T: Scalar>(
    group: &[(usize, usize)],
    shared_mats: &SharedSlice<Vec<T>>,
    shared_info: &SharedSlice<i32>,
) {
    let mut mats: [MatMut<'_, T>; MAX_LANES] = core::array::from_fn(|l| {
        let Some(&(n, gi)) = group.get(l) else {
            return MatMut::from_slice(&mut [], 0, 0, 1);
        };
        // SAFETY: each small entry's matrix belongs to exactly one lane
        // group, and each group to one worker.
        let a = unsafe { shared_mats.get(gi) };
        MatMut::from_slice(&mut a[..n * n], n, n, n)
    });
    let mut infs = [0i32; MAX_LANES];
    interleave::potrf_lanes_in_place(&mut mats[..group.len()], &mut infs[..group.len()]);
    for (&(_, gi), &code) in group.iter().zip(&infs) {
        // SAFETY: disjointness as above.
        unsafe { *shared_info.get(gi) = code };
    }
}

/// Blocked LU of `mats[gi]` for every `gi` in `indices` on the host
/// pool, with partial pivoting; `pivots[gi]` is resized to `n` and
/// receives the swap targets, `info[gi]` the LAPACK-style code. Results
/// are bitwise identical for any thread count (matrices are
/// independent; the per-matrix kernel is `vbatch_dense::getrf` with the
/// fixed block size `nb`).
///
/// Returns the total useful flops.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] on shape mismatches (including
/// `pivots.len() != sizes.len()`).
#[allow(clippy::too_many_arguments)]
pub fn getrf_batch_host<T: Scalar>(
    engine: &HostEngine,
    sizes: &[usize],
    mats: &mut [Vec<T>],
    indices: &[usize],
    nb: usize,
    state: &mut HostState<T>,
    info: &mut [i32],
    pivots: &mut [Vec<usize>],
) -> Result<f64, VbatchError> {
    validate_batch(sizes, mats, indices, info)?;
    if pivots.len() != sizes.len() {
        return Err(VbatchError::InvalidArgument(
            "host engine: pivots length mismatch",
        ));
    }
    let nb = nb.max(1);
    state.small.clear();
    state.items.clear();
    let mut useful_flops = 0.0f64;
    for &gi in indices {
        let n = sizes[gi];
        // Pivot storage is coordinator-resized so workers stay
        // allocation-free.
        pivots[gi].resize(n, 0);
        if n == 0 {
            info[gi] = 0;
            continue;
        }
        useful_flops += vbatch_dense::flops::getrf(n, n);
        state.items.push(Item {
            kind: ItemKind::Getrf { gi, n },
            cost: vbatch_dense::flops::getrf(n, n),
        });
    }
    let threads = engine.threads();
    assign_lpt(state, threads);

    let HostState { items, assign, .. } = state;
    let items: &[Item] = items;
    let assign: &[Vec<usize>] = assign;
    let shared_mats = SharedSlice::new(mats);
    let shared_info = SharedSlice::new(info);
    let shared_piv = SharedSlice::new(pivots);

    engine.pool.run(&|w| {
        for &id in &assign[w] {
            let ItemKind::Getrf { gi, n } = items[id].kind else {
                unreachable!("LU plan holds only LU items");
            };
            // SAFETY: each matrix index appears in exactly one item and
            // each item is assigned to exactly one worker.
            let a = unsafe { shared_mats.get(gi) };
            // SAFETY: same disjointness.
            let ipiv = unsafe { shared_piv.get(gi) };
            let view = MatMut::from_slice(&mut a[..n * n], n, n, n);
            let code = match vbatch_dense::getrf(view, &mut ipiv[..n], nb) {
                Ok(()) => 0i32,
                Err(e) => e.info() as i32,
            };
            // SAFETY: same disjointness.
            unsafe { *shared_info.get(gi) = code };
        }
    });
    Ok(useful_flops)
}

/// Calibratable host cost + power model, used by the hybrid scheduler
/// to place and clock host work. Plain numbers only — the model is what
/// keeps cooperative scheduling deterministic (rule VBA201: no
/// wall-clock reads inside `vbatch-core`); the bench crate measures
/// real Gflop/s and feeds them in.
#[derive(Clone, Copy, Debug)]
pub struct HostCostModel {
    /// Sustained aggregate batched-factorization rate of the whole pool
    /// (Gflop/s).
    pub gflops: f64,
    /// Per-matrix dispatch overhead (seconds).
    pub overhead_s: f64,
    /// Package power while the pool waits (W).
    pub idle_power_w: f64,
    /// Package power while the pool computes (W).
    pub max_power_w: f64,
}

impl HostCostModel {
    /// A conservative default for a pool of `threads` workers:
    /// ~2.5 Gflop/s per thread on batched small Cholesky, dual-socket
    /// Sandy Bridge power envelope (cf. the paper's host testbed).
    #[must_use]
    pub fn default_for_threads(threads: usize) -> Self {
        Self {
            gflops: 2.5 * threads.max(1) as f64,
            overhead_s: 2.0e-7,
            idle_power_w: 60.0,
            max_power_w: 230.0,
        }
    }

    /// Same envelope, measured sustained rate.
    #[must_use]
    pub fn with_measured_gflops(gflops: f64, threads: usize) -> Self {
        Self {
            gflops: gflops.max(1e-9),
            ..Self::default_for_threads(threads)
        }
    }

    /// Modeled seconds to factorize one order-`n` Cholesky matrix.
    #[must_use]
    pub fn matrix_cost_s(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.overhead_s + vbatch_dense::flops::potrf(n) / (self.gflops * 1e9)
    }

    /// Modeled seconds for a shard: the sum over its matrices.
    #[must_use]
    pub fn shard_cost_s(&self, sizes: &[usize], indices: &[usize]) -> f64 {
        indices.iter().map(|&i| self.matrix_cost_s(sizes[i])).sum()
    }

    /// Energy for `busy_s` seconds of compute plus `idle_s` of waiting.
    #[must_use]
    pub fn energy_j(&self, busy_s: f64, idle_s: f64) -> f64 {
        busy_s * self.max_power_w + idle_s.max(0.0) * self.idle_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_dense::gen::{seeded_rng, spd_vec};

    fn workload(seed: u64, count: usize, max: usize) -> (Vec<usize>, Vec<Vec<f64>>) {
        let mut rng = seeded_rng(seed);
        let sizes: Vec<usize> = (0..count).map(|i| 1 + (i * 37 + 11) % max).collect();
        let mats = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        (sizes, mats)
    }

    #[test]
    fn host_potrf_factors_correctly_and_small_tier_matches_potf2_bits() {
        let (sizes, mats0) = workload(7, 23, 90);
        let engine = HostEngine::with_threads(3);
        let mut state = HostState::new();
        let mut mats = mats0.clone();
        let mut info = vec![-7i32; sizes.len()];
        let indices: Vec<usize> = (0..sizes.len()).collect();
        let opts = PotrfOptions::default();
        let cutoff = opts.fused.resolved_interleave_cutoff::<f64>();
        potrf_batch_host(
            &engine, &sizes, &mut mats, &indices, &opts, &mut state, &mut info,
        )
        .expect("host potrf");
        for (i, &n) in sizes.iter().enumerate() {
            assert_eq!(info[i], 0, "matrix {i} (n={n}) should factor");
            let res = vbatch_dense::verify::chol_residual(
                Uplo::Lower,
                vbatch_dense::MatRef::from_slice(&mats[i], n, n, n),
                vbatch_dense::MatRef::from_slice(&mats0[i], n, n, n),
            );
            assert!(
                res < vbatch_dense::verify::residual_tol::<f64>(n),
                "{i}: {res}"
            );
            if n <= cutoff {
                // The interleaved tier's contract: bit-identical to the
                // scalar potf2 reference, per lane.
                let mut reference = mats0[i].clone();
                vbatch_dense::potf2(Uplo::Lower, MatMut::from_slice(&mut reference, n, n, n))
                    .expect("reference potf2");
                for j in 0..n {
                    for r in j..n {
                        assert_eq!(mats[i][j * n + r].to_bits(), reference[j * n + r].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let (sizes, mats0) = workload(11, 31, 120);
        let indices: Vec<usize> = (0..sizes.len()).collect();
        let opts = PotrfOptions::default();
        let mut runs: Vec<(Vec<Vec<f64>>, Vec<i32>)> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let engine = HostEngine::with_threads(threads);
            let mut state = HostState::new();
            let mut mats = mats0.clone();
            let mut info = vec![0i32; sizes.len()];
            potrf_batch_host(
                &engine, &sizes, &mut mats, &indices, &opts, &mut state, &mut info,
            )
            .expect("host potrf");
            runs.push((mats, info));
        }
        let (m1, i1) = &runs[0];
        for (mt, it) in &runs[1..] {
            assert_eq!(i1, it);
            for (a, b) in m1.iter().zip(mt.iter()) {
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn engine_survives_a_panicking_job() {
        let (sizes, mats0) = workload(13, 19, 100);
        let indices: Vec<usize> = (0..sizes.len()).collect();
        let opts = PotrfOptions::default();
        let run = |engine: &HostEngine| {
            let mut mats = mats0.clone();
            let mut info = vec![0i32; sizes.len()];
            let mut state = HostState::new();
            potrf_batch_host(
                engine, &sizes, &mut mats, &indices, &opts, &mut state, &mut info,
            )
            .expect("host potrf");
            (mats, info)
        };
        let engine = HostEngine::with_threads(4);
        // Lane 1 is a worker, lane 3 the launcher's own.
        for bad in [1usize, 3] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.pool.run(&|w| assert!(w != bad, "lane {bad} fails"));
            }));
            assert!(caught.is_err(), "the lane's panic must reach the launcher");
            assert!(run(&engine) == run(&HostEngine::with_threads(4)));
        }
    }

    #[test]
    fn cost_model_is_monotone() {
        let m = HostCostModel::default_for_threads(4);
        assert!(m.matrix_cost_s(64) > m.matrix_cost_s(32));
        assert!(m.shard_cost_s(&[8, 16, 32], &[0, 1, 2]) > m.matrix_cost_s(32));
        assert!(m.energy_j(1.0, 1.0) > m.energy_j(1.0, 0.0));
    }
}
