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
//! # Scheduling
//!
//! A batch becomes a list of tasks — one blocked factorization, or one
//! lane group of up to `MAX_LANES` small matrices — each of which
//! *owns* its matrices (moved in with `std::mem::take`, moved back
//! afterwards). The tasks are sorted by ascending modelled cost and
//! handed to [`WorkerPool::claim`], the dynamic one-core-per-matrix
//! scheduling of the paper's best CPU competitor (§IV-F): the guided
//! claims shrink towards the end, so the largest matrices are the last,
//! single-task claims. Each lane gets `&mut` chunks of the task list,
//! so disjointness is the borrow checker's, not a caller contract.
//!
//! # Determinism
//!
//! Results are **bitwise identical for any thread count and for any
//! host/device placement**, by construction:
//!
//! * every matrix's factorization is independent — no floating-point
//!   reduction ever crosses a matrix boundary, so which lane runs a
//!   task cannot reassociate anything;
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
//! All coordinator scratch (the small-tier order, the repeated-index
//! marks, the task list) lives in a pooled [`HostState`] and grows but
//! never shrinks; moving a matrix into a task and back allocates
//! nothing. The per-thread `Scalar::with_scratch` stacks (gemm packing,
//! the interleave tile) grow with the largest order a lane factorizes,
//! and which lane claims the largest matrix changes from run to run —
//! so after every claim each lane's stack is brought up to the largest
//! any lane holds (`Scalar::reserve_scratch`). After one warm-up run,
//! [`potrf_batch_host`] and [`getrf_batch_host`] perform no heap
//! allocation at all (pinned by the bench-crate counting-allocator
//! test).

use std::sync::atomic::{AtomicUsize, Ordering};

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
    pub(crate) fn from_env() -> Self {
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

/// One claimable unit of host work, owning its matrices while the
/// claim runs: one blocked potrf, one blocked getrf, or one lane group
/// of up to `MAX_LANES` small matrices. A struct, not an enum of the
/// three: a lane-group variant would dwarf the others, and boxing it
/// would allocate per task. Which routine runs follows from the entry
/// point and the matrices' order.
struct Task<T> {
    /// Modelled flops: the claim order.
    cost: f64,
    /// Matrices held: 1, or a lane group's count.
    len: usize,
    /// `(n, gi)` of each held matrix; `(0, 0)` past `len`.
    ids: [(usize, usize); MAX_LANES],
    mats: [Vec<T>; MAX_LANES],
    info: [i32; MAX_LANES],
    /// LU only: the held matrix's pivot vector, already sized `n`.
    pivots: Vec<usize>,
}

impl<T> Task<T> {
    /// A task holding the `(n, gi)` matrices of `members`, moved out of
    /// `mats` (which keeps an empty `Vec` in their place).
    fn new(cost: f64, members: &[(usize, usize)], mats: &mut [Vec<T>]) -> Self {
        let mut task = Self {
            cost,
            len: members.len(),
            ids: [(0, 0); MAX_LANES],
            mats: core::array::from_fn(|_| Vec::new()),
            info: [0; MAX_LANES],
            pivots: Vec::new(),
        };
        for (l, &(n, gi)) in members.iter().enumerate() {
            task.ids[l] = (n, gi);
            task.mats[l] = std::mem::take(&mut mats[gi]);
        }
        task
    }
}

/// Pooled coordinator scratch for a [`HostEngine`]. Reuse one
/// state across runs to keep the warm path allocation-free.
pub struct HostState<T> {
    /// `(n, gi)` pairs routed to the interleaved tier, sorted ascending.
    small: Vec<(usize, usize)>,
    /// Per-matrix marks of the repeated-index check.
    seen: Vec<bool>,
    /// The run's tasks, empty between runs (a task that panics leaves
    /// the batch's matrices here until the next run clears them).
    tasks: Vec<Task<T>>,
}

impl<T: Scalar> HostState<T> {
    #[must_use]
    pub fn new() -> Self {
        Self {
            small: Vec::new(),
            seen: Vec::new(),
            tasks: Vec::new(),
        }
    }
}

impl<T: Scalar> Default for HostState<T> {
    fn default() -> Self {
        Self::new()
    }
}

fn validate_batch<T: Scalar>(
    sizes: &[usize],
    mats: &[Vec<T>],
    indices: &[usize],
    info: &[i32],
    seen: &mut Vec<bool>,
) -> Result<(), VbatchError> {
    if mats.len() != sizes.len() || info.len() != sizes.len() {
        return Err(VbatchError::InvalidArgument(
            "host engine: sizes/mats/info length mismatch",
        ));
    }
    seen.clear();
    seen.resize(sizes.len(), false);
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
        if std::mem::replace(&mut seen[gi], true) {
            return Err(VbatchError::InvalidArgument(
                "host engine: repeated matrix index",
            ));
        }
    }
    Ok(())
}

/// Runs `task` over every task in `tasks`, cheapest first, on the
/// engine's lanes; then evens out the lanes' scratch (see the module
/// docs) and moves every matrix, code and pivot vector home, leaving
/// `tasks` empty.
fn run_tasks<T: Scalar>(
    engine: &HostEngine,
    tasks: &mut Vec<Task<T>>,
    mats: &mut [Vec<T>],
    info: &mut [i32],
    mut pivots: Option<&mut [Vec<usize>]>,
    task: impl Fn(&mut Task<T>) + Sync,
) {
    tasks.sort_unstable_by(|a, b| a.cost.total_cmp(&b.cost));
    engine
        .pool
        .claim(tasks, |_, chunk| chunk.iter_mut().for_each(&task));
    sync_scratch::<T>(&engine.pool);
    for mut t in tasks.drain(..) {
        for l in 0..t.len {
            let (_, gi) = t.ids[l];
            mats[gi] = std::mem::take(&mut t.mats[l]);
            info[gi] = t.info[l];
        }
        if let Some(pivots) = pivots.as_deref_mut() {
            pivots[t.ids[0].1] = std::mem::take(&mut t.pivots);
        }
    }
}

/// Brings every lane's idle `with_scratch` stack up to the largest
/// extent any lane holds — buffer count and longest buffer — in two
/// passes over the pool: one gathers, one grows. The maxima publish no
/// other data, and `run` returns only after every lane's `Release`
/// completion, which its own `Acquire` wait pairs with; so `Relaxed`.
fn sync_scratch<T: Scalar>(pool: &WorkerPool) {
    let buffers = AtomicUsize::new(0);
    let len = AtomicUsize::new(0);
    pool.run(&|_| {
        let (b, l) = T::reserve_scratch(0, 0);
        buffers.fetch_max(b, Ordering::Relaxed);
        len.fetch_max(l, Ordering::Relaxed);
    });
    let (buffers, len) = (buffers.into_inner(), len.into_inner());
    pool.run(&|_| {
        T::reserve_scratch(buffers, len);
    });
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
/// `fused::DEFAULT_NB`, 8, when unset — pass options through
/// [`crate::shard::normalized_options`] to match a device bit-for-bit).
///
/// Returns the total useful flops (the paper's `n³/3 + …` Cholesky
/// count summed over the selected matrices).
///
/// # Errors
/// [`VbatchError::InvalidArgument`] on length mismatches, out-of-range
/// or repeated indices, or undersized matrix storage; `mats` and `info`
/// are then untouched.
pub fn potrf_batch_host<T: Scalar>(
    engine: &HostEngine,
    sizes: &[usize],
    mats: &mut [Vec<T>],
    indices: &[usize],
    opts: &PotrfOptions,
    state: &mut HostState<T>,
    info: &mut [i32],
) -> Result<f64, VbatchError> {
    validate_batch(sizes, mats, indices, info, &mut state.seen)?;
    let uplo = opts.uplo;
    let nb = opts.fused.nb.unwrap_or(DEFAULT_NB).max(1);
    let cutoff = if opts.fused.batched_small && uplo == Uplo::Lower {
        opts.fused.resolved_interleave_cutoff::<T>()
    } else {
        0
    };

    // Plan: route each matrix, group the small tier into lanes.
    state.small.clear();
    state.tasks.clear();
    let mut useful_flops = 0.0f64;
    for &gi in indices {
        let n = sizes[gi];
        if n == 0 {
            info[gi] = 0;
            continue;
        }
        let cost = vbatch_dense::flops::potrf(n);
        useful_flops += cost;
        if n <= cutoff {
            state.small.push((n, gi));
        } else {
            state.tasks.push(Task::new(cost, &[(n, gi)], mats));
        }
    }
    state.small.sort_unstable();
    for group in state.small.chunks(interleave::lane_count::<T>()) {
        let cost = group
            .iter()
            .map(|&(n, _)| vbatch_dense::flops::potrf(n))
            .sum();
        state.tasks.push(Task::new(cost, group, mats));
    }

    run_tasks(engine, &mut state.tasks, mats, info, None, |t| {
        let (n, _) = t.ids[0];
        if n <= cutoff {
            // One lane group through the routine
            // `potrf_interleaved_window`'s blocks run — one body, so the
            // host and the device produce identical bits per lane.
            let mut ns = t.ids.iter().map(|&(n, _)| n);
            let mut views = t.mats.each_mut().map(|a| {
                let n = ns.next().unwrap_or(0);
                MatMut::from_slice(&mut a[..n * n], n, n, n)
            });
            interleave::potrf_lanes_in_place(&mut views[..t.len], &mut t.info[..t.len]);
            return;
        }
        let a = &mut t.mats[0][..n * n];
        t.info[0] = 0;
        let mut j = 0usize;
        while j < n {
            let view = MatMut::from_slice(a, n, n, n);
            if let Err(col) = fused_step_math::<T>(None, uplo, view, n, j, nb) {
                t.info[0] = (col + 1) as i32;
                break;
            }
            j += nb;
        }
    });
    Ok(useful_flops)
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
/// `pivots.len() != sizes.len()`), out-of-range or repeated indices;
/// `mats`, `info` and `pivots` are then untouched.
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
    validate_batch(sizes, mats, indices, info, &mut state.seen)?;
    if pivots.len() != sizes.len() {
        return Err(VbatchError::InvalidArgument(
            "host engine: pivots length mismatch",
        ));
    }
    let nb = nb.max(1);
    state.tasks.clear();
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
        let cost = vbatch_dense::flops::getrf(n, n);
        useful_flops += cost;
        let mut task = Task::new(cost, &[(n, gi)], mats);
        task.pivots = std::mem::take(&mut pivots[gi]);
        state.tasks.push(task);
    }

    run_tasks(engine, &mut state.tasks, mats, info, Some(pivots), |t| {
        let (n, _) = t.ids[0];
        let view = MatMut::from_slice(&mut t.mats[0][..n * n], n, n, n);
        t.info[0] = match vbatch_dense::getrf(view, &mut t.pivots, nb) {
            Ok(()) => 0,
            Err(e) => e.info() as i32,
        };
    });
    Ok(useful_flops)
}

/// Calibratable host cost + power model, used by the hybrid scheduler
/// to place and clock host work. Plain numbers only — the model is what
/// keeps cooperative scheduling deterministic (`clippy.toml` bans
/// wall-clock reads); the bench crate measures
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
