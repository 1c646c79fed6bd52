//! The factorization driver (paper §III-F) and the public vbatched
//! Cholesky API.
//!
//! "There is a top layer that runs on the CPU side and controls the
//! launch of the vbatched kernels. It consists of the main loop of the
//! algorithm ... It provides information to the kernels about step id
//! and sizes" — and combines the two approaches: "Our proposed framework
//! is designed to select the best out of the two approaches. It defines
//! a crossover point after which separated BLAS kernels are used"
//! (§IV-C), keyed on the *maximum* size in the batch (§IV-E).
//!
//! That top layer is written once, as `run_frame`, the frame every
//! factorization runs in: Cholesky here, LU and QR through
//! `lu::run_panels`. It resets `info`, returns uncharged when nothing
//! is to be factorized, registers the fault targets, and then runs the
//! op's steps, scrubbing after each, and reads `info` back. What a step
//! launches is planned on the host size mirror by a pure planner: for
//! fused Cholesky a step is one sorting window, whose launches
//! `fused_launches` yields as `(first, len, extent, step)` records over
//! the window's indices; for separated Cholesky it is one panel step,
//! its column and four live grids read back from the call's plan by
//! `sep::live_steps`; LU and QR plan theirs with `lu::panel_steps`.

use vbatch_dense::{Scalar, Uplo};
use vbatch_gpu_sim::{Device, DevicePtr};

use crate::aux::compute_imax_pooled;
use crate::etm::EtmPolicy;
use crate::fused::{fused_feasible, potrf_fused_step, potrf_interleaved_window, tuned_nb, IlvPlan};
use crate::recover::{
    fault_events_start, finish_recovery, scrub_batch, with_retry, RecoveryPolicy, RecoveryReport,
};
use crate::report::{BatchReport, VbatchError};
use crate::sep::potf2::potf2_panel_vbatched;
use crate::sep::syrk::syrk_vbatched;
use crate::sep::trsm::trsm_panel_vbatched;
use crate::sep::trtri::trtri_diag_vbatched;
use crate::sep::{live_steps, LiveGrid, SepKernel, DEFAULT_NB_PANEL};
use crate::sorting::{build_windows, single_window, upload_resident, SizeWindow};
use crate::workspace::DriverWorkspace;
use crate::VBatch;

/// Options of the fused approach (§III-D).
#[derive(Clone, Copy, Debug)]
pub struct FusedOpts {
    /// Early-termination mechanism.
    pub etm: EtmPolicy,
    /// Enable implicit sorting (§III-D2).
    pub sorting: bool,
    /// Inner blocking; `None` autotunes per batch ([`tuned_nb`]).
    pub nb: Option<usize>,
    /// Implicit-sorting window width in multiples of `nb`.
    pub window_factor: usize,
    /// Route `Lower` windows whose largest matrix is at or below the
    /// interleave cutoff (see [`FusedOpts::resolved_interleave_cutoff`])
    /// through the lane-interleaved batched-small kernel
    /// (`fused::potrf_interleaved_window`) instead of the
    /// per-matrix step loop.
    pub batched_small: bool,
    /// Exact sorting-window bucket width. `None` derives the width from
    /// `nb · window_factor` and the batch shape (the default heuristic);
    /// `Some(w)` fixes it. The multi-device scheduler
    /// ([`crate::shard`]) pins this to the interleave cutoff so window
    /// routing — and therefore factor bits — is a pure function of each
    /// matrix's own size, never of which neighbors share a shard.
    pub window_width: Option<usize>,
}

impl Default for FusedOpts {
    fn default() -> Self {
        Self {
            etm: EtmPolicy::Aggressive,
            sorting: true,
            nb: None,
            window_factor: 4,
            batched_small: true,
            window_width: None,
        }
    }
}

impl FusedOpts {
    /// The batched-small cutoff for element type `T`: the active
    /// [`vbatch_dense::tune::TileScheme`]'s `ilv_cutoff`, which every
    /// row of the built-in scheme table keeps at
    /// [`crate::fused::INTERLEAVE_CUTOFF`]. Both the fused window router
    /// and anything that needs to predict its routing (sizing, tests)
    /// go through this one resolver so they cannot disagree.
    #[must_use]
    pub fn resolved_interleave_cutoff<T: Scalar>(&self) -> usize {
        vbatch_dense::tune::active::<T>().ilv_cutoff
    }
}

/// Options of the separated approach (§III-E).
#[derive(Clone, Copy, Debug)]
pub struct SepOpts {
    /// Outer panel width `NB`.
    pub nb_panel: usize,
    /// Inner blocking of the panel factorization (`nb < NB`).
    pub nb_inner: usize,
}

impl Default for SepOpts {
    fn default() -> Self {
        Self {
            nb_panel: DEFAULT_NB_PANEL,
            nb_inner: 8,
        }
    }
}

/// Which approach the driver runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Approach 1: per-step fused kernels.
    Fused,
    /// Approach 2: separated vbatched BLAS.
    Separated,
    /// Pick by the batch's maximum size (the paper's combined design):
    /// fused while it is feasible and the maximum is at most
    /// [`default_crossover`], separated above.
    Auto,
}

/// Options of the vbatched Cholesky driver.
#[derive(Clone, Copy, Debug)]
pub struct PotrfOptions {
    /// Triangle to factorize. The paper's case study is
    /// [`Uplo::Lower`]; [`Uplo::Upper`] mirrors every kernel on block
    /// rows of `U`.
    pub uplo: Uplo,
    /// Strategy selection.
    pub strategy: Strategy,
    /// Fused-approach options.
    pub fused: FusedOpts,
    /// Separated-approach options.
    pub sep: SepOpts,
    /// Response to transient device failures (retry → split →
    /// quarantine; see [`crate::recover`]).
    pub recovery: RecoveryPolicy,
}

impl Default for PotrfOptions {
    fn default() -> Self {
        Self {
            uplo: Uplo::Lower,
            strategy: Strategy::Auto,
            fused: FusedOpts::default(),
            sep: SepOpts::default(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Default crossover maximum for [`Strategy::Auto`] in precision `T`,
/// calibrated against the Fig. 7 sweep on the simulated K40c.
#[must_use]
pub fn default_crossover<T: Scalar>() -> usize {
    if T::IS_DOUBLE {
        320
    } else {
        448
    }
}

/// Variable-size batched Cholesky, expert interface (§III-A): the caller
/// supplies `max_n`, "recommended when the user has such information so
/// that computing the maximums is waived".
///
/// `max_n` may overstate the batch's largest order but not understate
/// it.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] when the matrices are not square or
/// `max_n` is smaller than the largest order in the batch (checked on
/// the host mirror of the sizes, at no simulated cost; the batch is left
/// untouched); otherwise [`VbatchError`] on launch/allocation failures.
/// Per-matrix numerical breakdowns are reported in the [`BatchReport`].
pub fn potrf_vbatched_max<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    max_n: usize,
    opts: &PotrfOptions,
) -> Result<BatchReport, VbatchError> {
    potrf_vbatched_max_ws(dev, batch, max_n, opts, &mut DriverWorkspace::new())
}

/// [`potrf_vbatched_max`] with a caller-owned [`DriverWorkspace`]: all
/// internal device scratch is drawn from — and left in — the workspace,
/// so repeated calls on same-shaped (or smaller) batches perform zero
/// device allocations after the first.
///
/// # Errors
/// As [`potrf_vbatched_max`].
pub fn potrf_vbatched_max_ws<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    max_n: usize,
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<T>,
) -> Result<BatchReport, VbatchError> {
    if max_n < batch.max_cols() {
        return Err(VbatchError::InvalidArgument(
            "potrf_vbatched_max: max_n is smaller than the largest matrix",
        ));
    }
    let start = (fault_events_start(dev), RecoveryReport::default());
    potrf_run(dev, batch, max_n, opts, ws, start)
}

/// Driver body shared by both public entry points: validates, then runs
/// the resolved strategy's plan in the driver frame under the recovery
/// policy. `start` carries the fault-event start and the recovery state
/// accumulated by the caller (the LAPACK-style interface's
/// max-reduction runs *before* this body and is itself retried).
fn potrf_run<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    max_n: usize,
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<T>,
    start: (usize, RecoveryReport),
) -> Result<BatchReport, VbatchError> {
    if batch.rows() != batch.cols() {
        return Err(VbatchError::InvalidArgument(
            "potrf_vbatched: matrices must be square",
        ));
    }
    let (batch, pol) = (&*batch, &opts.recovery);
    let nb = opts.fused.nb.unwrap_or_else(|| tuned_nb::<T>(dev, max_n));
    match resolve_strategy::<T>(dev, opts, max_n, nb) {
        Strategy::Fused => run_frame(dev, batch, pol, start, |_| {
            let windows = fused_windows::<T>(dev, batch.cols(), max_n, nb, opts)?;
            // A step of the frame is one window: every window's indices
            // back to back form the call's permutation, `first` is this
            // one's offset into it.
            let (steps, mut first) = (0..windows.len(), 0);
            let step = move |rec: &mut RecoveryReport, w: usize| {
                let indices = &windows[w].indices;
                fused_window(dev, batch, &windows, (first, indices), (nb, opts), ws, rec)?;
                first += indices.len();
                Ok(())
            };
            Ok((steps, step))
        }),
        Strategy::Separated => run_frame(dev, batch, pol, start, |rec| {
            let nb_panel = opts.sep.nb_panel.max(1);
            let sizes = batch.cols();
            // OOM ladder for the separated scratch. Shrinking `nb_panel`
            // would reorder the blocked arithmetic and break bitwise
            // reproducibility, so the only degradations are retry (under
            // a fault plan) and a last-resort release of the pooled
            // workspace; `sep_scratch` keeps partial progress (the step
            // state survives a failed tile alloc).
            let mut grown = with_retry(dev, pol, rec, || ws.sep_scratch(dev, sizes, nb_panel));
            if matches!(grown, Err(VbatchError::Oom(_))) {
                rec.workspace_releases += 1;
                ws.release();
                grown = ws.sep_scratch(dev, sizes, nb_panel);
            }
            let d_starts = grown?;
            let ws = &*ws;
            let steps = live_steps(d_starts, &ws.live_host, sizes.len(), nb_panel);
            Ok((steps, separated_step(dev, batch, opts, ws)))
        }),
        Strategy::Auto => unreachable!("resolved above"),
    }
}

/// The one driver frame (§III-F) every factorization runs in. It resets
/// `info` and returns a batch with nothing to factorize (no matrix with
/// `min(m, n) > 0`) uncharged. Otherwise it registers the fault
/// targets, lets `plan` make the op's plan and scratch resident, each
/// under [`with_retry`], and get back its steps and the step function,
/// runs each step and then the scrubber, and reads `info` back, charging
/// the D2H: the kernels and the scrubber write it. `start` is the
/// fault-event start and the recovery state so far.
pub(crate) fn run_frame<T: Scalar, S, I, F>(
    dev: &Device,
    batch: &VBatch<T>,
    pol: &RecoveryPolicy,
    (ev_start, mut rec): (usize, RecoveryReport),
    plan: impl FnOnce(&mut RecoveryReport) -> Result<(I, F), VbatchError>,
) -> Result<BatchReport, VbatchError>
where
    I: IntoIterator<Item = S>,
    F: FnMut(&mut RecoveryReport, S) -> Result<(), VbatchError>,
{
    batch.reset_info();
    if batch.max_k() == 0 {
        return Ok(finish_recovery(dev, ev_start, rec, batch.read_info()));
    }
    batch.register_fault_targets(dev);
    let (steps, mut step) = plan(&mut rec)?;
    for s in steps {
        step(&mut rec, s)?;
        scrub_batch(dev, batch, pol, &mut rec)?;
    }
    dev.copy_dtoh_bytes(batch.count() * 4);
    Ok(finish_recovery(dev, ev_start, rec, batch.read_info()))
}

/// Variable-size batched Cholesky, LAPACK-style interface (§III-A): the
/// maximum size is computed with a device reduction kernel ("in most
/// cases, the overhead of computing the maximum is negligible").
///
/// # Errors
/// As [`potrf_vbatched_max`].
pub fn potrf_vbatched<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    opts: &PotrfOptions,
) -> Result<BatchReport, VbatchError> {
    potrf_vbatched_ws(dev, batch, opts, &mut DriverWorkspace::new())
}

/// [`potrf_vbatched`] with a caller-owned [`DriverWorkspace`] (the
/// max-reduction's partial buffer is pooled too).
///
/// # Errors
/// As [`potrf_vbatched_max`].
pub fn potrf_vbatched_ws<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<T>,
) -> Result<BatchReport, VbatchError> {
    let ev_start = fault_events_start(dev);
    let mut rec = RecoveryReport::default();
    let d_cols = batch.d_cols();
    let count = batch.count();
    let max_n = with_retry(dev, &opts.recovery, &mut rec, || {
        compute_imax_pooled(dev, d_cols, count, &mut ws.imax_partial)
    })?
    .max(0) as usize;
    potrf_run(dev, batch, max_n, opts, ws, (ev_start, rec))
}

/// Resolves [`Strategy::Auto`] to a concrete approach for this batch.
#[must_use]
pub(crate) fn resolve_strategy<T: Scalar>(
    dev: &Device,
    opts: &PotrfOptions,
    max_n: usize,
    nb: usize,
) -> Strategy {
    match opts.strategy {
        Strategy::Fused | Strategy::Separated => opts.strategy,
        Strategy::Auto => {
            if fused_feasible::<T>(dev, max_n, nb) && max_n <= default_crossover::<T>() {
                Strategy::Fused
            } else {
                Strategy::Separated
            }
        }
    }
}

/// The sorting windows of a fused call on matrices of orders `sizes`,
/// ascending (§III-D2), or one window of every matrix when implicit
/// sorting is off.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] when the fused panel does not fit.
fn fused_windows<T: Scalar>(
    dev: &Device,
    sizes: &[usize],
    max_n: usize,
    nb: usize,
    opts: &PotrfOptions,
) -> Result<Vec<SizeWindow>, VbatchError> {
    if !fused_feasible::<T>(dev, max_n, nb) {
        return Err(VbatchError::InvalidArgument(
            "fused approach infeasible for this max size; use Separated or Auto",
        ));
    }
    if !opts.fused.sorting {
        return Ok(single_window(sizes));
    }
    // Window width: at least `window_factor · nb` (the paper ties it to
    // nb), widened so the average group still fills the device — narrow
    // windows on small batches multiply launches faster than they
    // improve occupancy (measured by `figures -- ablation-window`). An
    // explicit `window_width` bypasses the count-dependent heuristic
    // entirely (the sharded path needs bucketing that is independent of
    // how many matrices landed on this device).
    let width = opts.fused.window_width.unwrap_or_else(|| {
        let target_groups = (sizes.len() / 48).max(1);
        let min_window = max_n.div_ceil(target_groups);
        (nb * opts.fused.window_factor.max(1)).max(min_window)
    });
    Ok(build_windows(sizes, width))
}

/// The fused launches of one window `indices` (or a half the OOM ladder
/// cut from one, never empty), planned on the host size mirror as
/// `(first, len, extent, step)` records, each over `indices[first..][..len]`.
///
/// A `Lower` window whose largest order is at or below the interleave
/// cutoff takes the batched-small path: its matrices factorize whole in
/// `potrf_ilv_batch` launches (`step` is `None`), one per run of orders
/// `ilv` cuts a sorted window into where the simulator's own launch
/// arithmetic predicts the cut pays, and one for an unsorted window.
/// Any other window runs the step loop: one `potrf_fused_step` launch
/// per step `j = 0, nb, …` below its largest order (`Some(j)`), sized
/// by that order. A sorted window's indices ascend by order (and so do
/// the halves the OOM ladder cuts from it), so the matrices still live
/// at step `j` are a suffix of the list, and each step launches that
/// suffix alone. An unsorted window (the sorting ablation) keeps every
/// matrix in every step, and a matrix that breaks mid-window retires
/// through the ETM's `info` check either way.
pub(crate) fn fused_launches<'a, T: Scalar>(
    dev: &Device,
    sizes: &'a [usize],
    indices: &'a [usize],
    nb: usize,
    opts: &PotrfOptions,
    ilv: &'a mut Option<Box<IlvPlan>>,
) -> impl Iterator<Item = (usize, usize, usize, Option<usize>)> + 'a {
    let sorted = opts.fused.sorting;
    let wmax = indices.iter().map(|&i| sizes[i]).max().unwrap_or(0);
    let batched_small = opts.fused.batched_small
        && opts.uplo == Uplo::Lower
        && wmax <= opts.fused.resolved_interleave_cutoff::<T>();
    let runs: &[_] = if batched_small && sorted {
        ilv.get_or_insert_with(Box::default)
            .cut::<T>(dev, sizes, indices)
    } else {
        &[]
    };
    let whole = (batched_small && !sorted).then_some((0, indices.len(), wmax));
    let steps = if batched_small { 0 } else { wmax };
    let runs = runs.iter().copied().chain(whole);
    runs.map(|(first, len, m)| (first, len, m, None))
        .chain((0..steps).step_by(nb).map(move |j| {
            let first = if sorted {
                indices.partition_point(|&i| sizes[i] <= j)
            } else {
                0
            };
            (first, indices.len() - first, wmax, Some(j))
        }))
}

/// The device indices of the slice `first..first + indices.len()` of
/// the call's permutation (every window's indices, back to back), made
/// resident whole through [`upload_resident`] so a call uploads it at
/// most once, and not at all when the workspace already holds it. When
/// the whole permutation does not fit in memory, the slice alone is made
/// resident, which is what lets the OOM ladder's halves fit where their
/// window did not. Only a sorted call charges the upload: an unsorted
/// launch maps blocks to matrices directly, and its index list stands in
/// for that mapping.
fn window_indices<T: Scalar>(
    dev: &Device,
    windows: &[SizeWindow],
    (first, indices): (usize, &[usize]),
    charge: bool,
    ws: &mut DriverWorkspace<T>,
) -> Result<DevicePtr<i32>, VbatchError> {
    let as_i32 = |&i: &usize| i as i32;
    let whole = windows.iter().flat_map(|w| w.indices.iter().map(as_i32));
    match upload_resident(dev, whole, &mut ws.idx_host, &mut ws.idx_dev, charge) {
        Ok(perm) => Ok(perm.offset(first).truncate(indices.len())),
        Err(_) if indices.len() < windows.iter().map(|w| w.indices.len()).sum() => {
            let own = indices.iter().map(as_i32);
            upload_resident(dev, own, &mut ws.idx_host, &mut ws.idx_dev, charge).map_err(Into::into)
        }
        Err(e) => Err(e.into()),
    }
}

/// Factorizes the slice `first..first + indices.len()` of the call's
/// permutation: a fused window, or a half of one. An attempt makes its
/// device indices resident ([`window_indices`]) and launches its
/// [`fused_launches`] records, each under [`with_retry`] (launch
/// rejections and, under a fault plan, alloc denials are retried in
/// place). On persistent OOM (rung 2 of the recovery ladder) the slice
/// is halved and each half planned afresh: each is bitwise-equivalent to
/// its share of the whole because the fused per-matrix arithmetic
/// depends only on the matrix's own order and the globally fixed
/// blocking `nb`, never on which neighbors share the launch. At a single
/// matrix the pooled workspace is released back to the device as the
/// last resort before giving up.
fn fused_window<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    windows: &[SizeWindow],
    (first, indices): (usize, &[usize]),
    (nb, opts): (usize, &PotrfOptions),
    ws: &mut DriverWorkspace<T>,
    rec: &mut RecoveryReport,
) -> Result<(), VbatchError> {
    let pol = &opts.recovery;
    let attempt = |ws: &mut DriverWorkspace<T>, rec: &mut RecoveryReport| {
        let d_idx = with_retry(dev, pol, rec, || {
            window_indices(dev, windows, (first, indices), opts.fused.sorting, ws)
        })?;
        let sizes = batch.cols();
        for (at, len, extent, step) in
            fused_launches::<T>(dev, sizes, indices, nb, opts, &mut ws.ilv_plan)
        {
            let idx = d_idx.offset(at).truncate(len);
            with_retry(dev, pol, rec, || match step {
                None => potrf_interleaved_window(dev, batch, idx, extent),
                Some(j) => potrf_fused_step(dev, batch, opts, idx, extent, j, nb),
            })?;
        }
        Ok::<_, VbatchError>(())
    };
    match attempt(ws, rec) {
        Err(VbatchError::Oom(_)) if indices.len() > 1 => {
            rec.window_splits += 1;
            let mid = indices.len() / 2;
            let (lo, hi) = indices.split_at(mid);
            fused_window(dev, batch, windows, (first, lo), (nb, opts), ws, rec)?;
            fused_window(dev, batch, windows, (first + mid, hi), (nb, opts), ws, rec)
        }
        Err(VbatchError::Oom(e)) => {
            // One matrix left and still no memory: release every pooled
            // buffer and make a final attempt.
            rec.workspace_releases += 1;
            ws.release();
            attempt(ws, rec).map_err(|_| VbatchError::Oom(e))
        }
        other => other,
    }
}

/// The step function of the separated approach (§III-E), on the
/// scratch [`DriverWorkspace::sep_scratch`] made resident in `ws`: each
/// step updates the step state, then launches the panel `potf2`, the
/// diagonal-block `trtri`, the panel `trsm` and the trailing `syrk`,
/// each on a [`LiveGrid`] of its live work alone. The grids
/// ([`live_steps`]) are counted on the host size mirror, so the steps
/// end at the batch's largest order whatever `max_n` the caller passed,
/// and a kernel with no live block at a step is not launched.
///
/// Nothing is read back: the sizes come from the host mirror. Every
/// step's block starts go down in one upload, charged to the clock,
/// which a workspace that already holds the same plan skips.
fn separated_step<'a, T: Scalar>(
    dev: &'a Device,
    batch: &'a VBatch<T>,
    opts: &PotrfOptions,
    ws: &'a DriverWorkspace<T>,
) -> impl FnMut(&mut RecoveryReport, (usize, [LiveGrid; 4])) -> Result<(), VbatchError> + 'a {
    let (pol, uplo) = (opts.recovery, opts.uplo);
    let nb_panel = opts.sep.nb_panel.max(1);
    let nb_inner = opts.sep.nb_inner.max(1).min(nb_panel);
    let st = ws.step.as_ref().expect("grown by sep_scratch");
    let work = ws.tiles.as_ref().expect("grown by sep_scratch");
    // Each step's kernels read the trailing matrices its update wrote.
    let whole = batch.view();
    let a = st.view(whole);
    move |rec, (j, grids)| {
        with_retry(dev, &pol, rec, || st.update(dev, whole, j))?;
        for (kernel, grid) in SepKernel::STEP.into_iter().zip(grids) {
            if grid.blocks() == 0 {
                continue;
            }
            with_retry(dev, &pol, rec, || {
                match kernel {
                    SepKernel::Potf2 => {
                        potf2_panel_vbatched(dev, grid, uplo, a, nb_panel, nb_inner, j)
                    }
                    SepKernel::Trtri => trtri_diag_vbatched(dev, grid, uplo, a, work, nb_panel),
                    SepKernel::Trsm => trsm_panel_vbatched(dev, grid, uplo, a, work, nb_panel),
                    SepKernel::Syrk => syrk_vbatched(dev, grid, uplo, a, nb_panel),
                }
                .map(|_| ())
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sep::plan_live_grids;
    use vbatch_dense::gen::{seeded_rng, spd_vec};
    use vbatch_dense::verify::{chol_residual, residual_tol};
    use vbatch_dense::MatRef;
    use vbatch_gpu_sim::DeviceConfig;

    fn dev() -> Device {
        Device::new(DeviceConfig::k40c())
    }

    fn make_batch<T: Scalar>(d: &Device, sizes: &[usize], seed: u64) -> (VBatch<T>, Vec<Vec<T>>) {
        let mut rng = seeded_rng(seed);
        let mut batch = VBatch::<T>::alloc_square(d, sizes).unwrap();
        let origs: Vec<Vec<T>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let m = spd_vec::<T>(&mut rng, n);
                if n > 0 {
                    batch.upload_matrix(i, &m).unwrap();
                }
                m
            })
            .collect();
        (batch, origs)
    }

    fn verify_all<T: Scalar>(batch: &VBatch<T>, origs: &[Vec<T>], sizes: &[usize]) {
        for (i, &n) in sizes.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let f = batch.download_matrix(i);
            let r = chol_residual(
                Uplo::Lower,
                MatRef::from_slice(&f, n, n, n),
                MatRef::from_slice(&origs[i], n, n, n),
            );
            assert!(r < residual_tol::<T>(n), "matrix {i} (n={n}): residual {r}");
        }
    }

    #[test]
    fn all_strategy_variants_factorize() {
        let d = dev();
        let sizes = [33usize, 7, 150, 64, 1, 0, 90, 12];
        let variants: Vec<PotrfOptions> = vec![
            PotrfOptions {
                strategy: Strategy::Fused,
                fused: FusedOpts {
                    etm: EtmPolicy::Classic,
                    sorting: false,
                    ..Default::default()
                },
                ..Default::default()
            },
            PotrfOptions {
                strategy: Strategy::Fused,
                fused: FusedOpts {
                    etm: EtmPolicy::Aggressive,
                    sorting: false,
                    ..Default::default()
                },
                ..Default::default()
            },
            PotrfOptions {
                strategy: Strategy::Fused,
                fused: FusedOpts {
                    etm: EtmPolicy::Classic,
                    sorting: true,
                    ..Default::default()
                },
                ..Default::default()
            },
            PotrfOptions {
                strategy: Strategy::Fused,
                fused: FusedOpts {
                    etm: EtmPolicy::Aggressive,
                    sorting: true,
                    ..Default::default()
                },
                ..Default::default()
            },
            PotrfOptions {
                strategy: Strategy::Separated,
                sep: SepOpts {
                    nb_panel: 32,
                    nb_inner: 8,
                },
                ..Default::default()
            },
            PotrfOptions {
                strategy: Strategy::Auto,
                ..Default::default()
            },
        ];
        for (vi, opts) in variants.iter().enumerate() {
            let (mut batch, origs) = make_batch::<f64>(&d, &sizes, 100 + vi as u64);
            let report = potrf_vbatched(&d, &mut batch, opts).unwrap();
            assert!(report.all_ok(), "variant {vi}: {:?}", report.failures());
            verify_all(&batch, &origs, &sizes);
        }
    }

    #[test]
    fn f32_both_approaches() {
        let d = dev();
        let sizes = [40usize, 90, 5];
        for strategy in [Strategy::Fused, Strategy::Separated] {
            let (mut batch, origs) = make_batch::<f32>(&d, &sizes, 200);
            let opts = PotrfOptions {
                strategy,
                sep: SepOpts {
                    nb_panel: 32,
                    ..Default::default()
                },
                ..Default::default()
            };
            let report = potrf_vbatched(&d, &mut batch, &opts).unwrap();
            assert!(report.all_ok());
            verify_all(&batch, &origs, &sizes);
        }
    }

    /// The interleave cutoff is one `TileScheme` value resolved through
    /// one place ([`FusedOpts::resolved_interleave_cutoff`]), so the
    /// fused router and anything predicting it cannot disagree. Probe
    /// the boundary with uniform batches at `cutoff − 1`, `cutoff`,
    /// `cutoff + 1`: at or below the cutoff the window collapses into
    /// one interleaved launch, strictly above it the per-step loop runs
    /// — and every variant, the separated approach included, agrees
    /// numerically.
    #[test]
    fn interleave_cutoff_boundary_routing() {
        let d = dev();
        let c = FusedOpts::default().resolved_interleave_cutoff::<f64>();
        let ilv_launches =
            |d: &Device| d.with_profiler(|p| p.get("dpotrf_ilv_batch").map_or(0, |e| e.launches));
        for (n, expect_interleaved) in [(c - 1, true), (c, true), (c + 1, false)] {
            let sizes = vec![n; 8];
            let opts = PotrfOptions {
                strategy: Strategy::Fused,
                fused: FusedOpts {
                    sorting: false,
                    ..Default::default()
                },
                ..Default::default()
            };
            let (mut batch, origs) = make_batch::<f64>(&d, &sizes, 300 + n as u64);
            let before = ilv_launches(&d);
            let report = potrf_vbatched(&d, &mut batch, &opts).unwrap();
            let routed = ilv_launches(&d) - before;
            assert!(report.all_ok(), "n={n}: {:?}", report.failures());
            verify_all(&batch, &origs, &sizes);
            if expect_interleaved {
                assert_eq!(
                    routed, 1,
                    "n={n} ≤ cutoff {c} must be one interleaved launch"
                );
            } else {
                assert_eq!(routed, 0, "n={n} > cutoff {c} must run the per-step loop");
            }
            // The separated approach must agree numerically at the
            // same boundary sizes.
            let (mut batch, origs) = make_batch::<f64>(&d, &sizes, 300 + n as u64);
            let opts = PotrfOptions {
                strategy: Strategy::Separated,
                ..Default::default()
            };
            let report = potrf_vbatched(&d, &mut batch, &opts).unwrap();
            assert!(report.all_ok());
            verify_all(&batch, &origs, &sizes);
        }
    }

    /// The batched-small window cut never costs simulated time and never
    /// moves a bit. On uniform batches at and below the cutoff (window
    /// width pinned to the cutoff, so each case is one sorted window)
    /// with one non-SPD lane, the driver's interleaved launches advance
    /// `dev.now()` by no more than one [`potrf_interleaved_window`]
    /// launch over the same sorted window does, and the factors and
    /// `info` match that launch bit for bit.
    #[test]
    fn window_cut_never_slower_and_bit_identical() {
        use crate::sorting::build_windows;
        use rand::Rng;

        fn check<T: Scalar>(max: usize, count: usize) {
            let cutoff = FusedOpts::default().resolved_interleave_cutoff::<T>();
            let mut rng = seeded_rng(0x1C0 + count as u64);
            let sizes: Vec<usize> = (0..count).map(|_| rng.gen_range(1..=max)).collect();
            let bad = sizes.iter().position(|&n| n >= 8).expect("an order ≥ 8");
            let upload = |d: &Device| {
                let mut rng = seeded_rng(0x1C1);
                let mut batch = VBatch::<T>::alloc_square(d, &sizes).unwrap();
                for (i, &n) in sizes.iter().enumerate() {
                    let mut m = spd_vec::<T>(&mut rng, n);
                    if i == bad {
                        m[5 + 5 * n] = T::from_f64(-3.0); // info 6
                    }
                    batch.upload_matrix(i, &m).unwrap();
                }
                batch
            };
            let ilv_s = |d: &Device| {
                d.with_profiler(|p| {
                    p.get(kname!(T, "potrf_ilv_batch"))
                        .map_or((0.0, 0), |e| (e.time_s, e.launches))
                })
            };

            let d = dev();
            let mut batch = upload(&d);
            let opts = PotrfOptions {
                strategy: Strategy::Fused,
                fused: FusedOpts {
                    window_width: Some(cutoff),
                    ..Default::default()
                },
                ..Default::default()
            };
            d.reset_metrics();
            let report = potrf_vbatched_max(&d, &mut batch, max, &opts).unwrap();
            let (cut_s, launches) = ilv_s(&d);

            let d1 = dev();
            let single = upload(&d1);
            let windows = build_windows(&sizes, cutoff);
            assert_eq!(windows.len(), 1);
            let idx: Vec<i32> = windows[0].indices.iter().map(|&i| i as i32).collect();
            let d_idx = d1.alloc::<i32>(idx.len()).unwrap();
            d_idx.fill_from_host(&idx);
            d1.reset_metrics();
            potrf_interleaved_window(&d1, &single, d_idx.ptr(), windows[0].max_size).unwrap();
            let (single_s, _) = ilv_s(&d1);
            assert_eq!(d1.now(), single_s);

            let case = format!("{} x{count} Uniform{{{max}}}", core::any::type_name::<T>());
            assert!(
                cut_s <= single_s,
                "{case}: {launches} launches take {cut_s:e} s, one launch {single_s:e} s"
            );
            // Large windows are cut, so the comparison is not vacuous.
            assert!(count < 2_000 || launches > 1, "{case}: window not cut");
            assert_eq!(report.info, single.read_info(), "{case}");
            assert_eq!(report.failures(), vec![(bad, 6)], "{case}");
            for (i, &n) in sizes.iter().enumerate() {
                let bits = |b: &VBatch<T>| -> Vec<u64> {
                    b.download_matrix(i)
                        .iter()
                        .map(|v| v.to_f64().to_bits())
                        .collect()
                };
                assert_eq!(bits(&batch), bits(&single), "{case}: matrix {i} (n = {n})");
            }
        }
        for count in [40, 500, 2_000, 20_000] {
            check::<f64>(32, count);
            check::<f32>(32, count);
        }
        check::<f64>(16, 3_000);
        check::<f32>(16, 3_000);
    }

    #[test]
    fn auto_picks_fused_small_separated_large() {
        fn check<T: Scalar>(d: &Device) {
            let opts = PotrfOptions::default();
            let nb = 8;
            let cap = default_crossover::<T>();
            assert_eq!(resolve_strategy::<T>(d, &opts, 64, nb), Strategy::Fused);
            assert_eq!(resolve_strategy::<T>(d, &opts, cap, nb), Strategy::Fused);
            assert_eq!(
                resolve_strategy::<T>(d, &opts, cap + 1, nb),
                Strategy::Separated
            );
            assert_eq!(
                resolve_strategy::<T>(d, &opts, 2000, nb),
                Strategy::Separated
            );
        }
        let d = dev();
        check::<f64>(&d);
        check::<f32>(&d);
    }

    #[test]
    fn non_spd_matrices_reported_not_fatal() {
        let d = dev();
        let sizes = [16usize, 24, 8];
        for strategy in [Strategy::Fused, Strategy::Separated] {
            let (mut batch, origs) = make_batch::<f64>(&d, &sizes, 300);
            // Corrupt matrix 1 at column 10.
            let mut bad = origs[1].clone();
            bad[10 + 10 * 24] = -1e6;
            batch.upload_matrix(1, &bad).unwrap();
            let opts = PotrfOptions {
                strategy,
                sep: SepOpts {
                    nb_panel: 8,
                    ..Default::default()
                },
                ..Default::default()
            };
            let report = potrf_vbatched(&d, &mut batch, &opts).unwrap();
            assert_eq!(report.failure_count(), 1, "{strategy:?}");
            let (idx, info) = report.failures()[0];
            assert_eq!(idx, 1);
            assert_eq!(info, 11, "{strategy:?}: 1-based breakdown column");
            // Healthy matrices still factorized correctly.
            verify_all(&batch, &[origs[0].clone()], &[sizes[0]]);
            let f2 = batch.download_matrix(2);
            let r = chol_residual(
                Uplo::Lower,
                MatRef::from_slice(&f2, 8, 8, 8),
                MatRef::from_slice(&origs[2], 8, 8, 8),
            );
            assert!(r < residual_tol::<f64>(8));
        }
    }

    #[test]
    fn upper_factorizes_both_strategies() {
        let d = dev();
        let sizes = [21usize, 60, 7, 140];
        for strategy in [Strategy::Fused, Strategy::Separated] {
            let (mut batch, origs) = make_batch::<f64>(&d, &sizes, 400);
            let opts = PotrfOptions {
                uplo: Uplo::Upper,
                strategy,
                sep: SepOpts {
                    nb_panel: 32,
                    ..Default::default()
                },
                ..Default::default()
            };
            let report = potrf_vbatched(&d, &mut batch, &opts).unwrap();
            assert!(report.all_ok(), "{strategy:?}: {:?}", report.failures());
            for (i, &n) in sizes.iter().enumerate() {
                let f = batch.download_matrix(i);
                let r = chol_residual(
                    Uplo::Upper,
                    MatRef::from_slice(&f, n, n, n),
                    MatRef::from_slice(&origs[i], n, n, n),
                );
                assert!(
                    r < residual_tol::<f64>(n),
                    "{strategy:?} matrix {i}: residual {r}"
                );
            }
        }
    }

    #[test]
    fn empty_batch_ok() {
        let d = dev();
        let mut batch = VBatch::<f64>::alloc_square(&d, &[]).unwrap();
        let report = potrf_vbatched(&d, &mut batch, &PotrfOptions::default()).unwrap();
        assert!(report.all_ok());
        // Matrices of order 0 under an overstated `max_n`: nothing to
        // factorize, so nothing is allocated, launched or charged.
        let mut zeros = VBatch::<f64>::alloc_square(&d, &[0; 3]).unwrap();
        for strategy in [Strategy::Fused, Strategy::Separated] {
            let (t0, allocs) = (d.now(), d.alloc_count());
            let opts = PotrfOptions {
                strategy,
                ..Default::default()
            };
            let report = potrf_vbatched_max(&d, &mut zeros, 64, &opts).unwrap();
            assert_eq!(report.info, vec![0; 3]);
            assert_eq!((d.now(), d.alloc_count()), (t0, allocs), "{strategy:?}");
        }
    }

    #[test]
    fn sorting_helps_gaussian_like_mix() {
        // A mix with a few large outliers (the Gaussian story of Fig. 6):
        // sorting should strictly reduce simulated time.
        let d = dev();
        let sizes: Vec<usize> = (0..128)
            .map(|i| if i % 16 == 0 { 384 } else { 24 + (i % 8) })
            .collect();
        let mut times = Vec::new();
        for sorting in [false, true] {
            let (mut batch, _) = make_batch::<f64>(&d, &sizes, 500);
            let opts = PotrfOptions {
                strategy: Strategy::Fused,
                fused: FusedOpts {
                    etm: EtmPolicy::Aggressive,
                    sorting,
                    ..Default::default()
                },
                ..Default::default()
            };
            d.reset_metrics();
            potrf_vbatched_max(&d, &mut batch, 384, &opts).unwrap();
            times.push(d.now());
        }
        assert!(
            times[1] < times[0],
            "sorting {} should beat no-sorting {}",
            times[1],
            times[0]
        );
    }

    /// Checks the fused and separated Cholesky plans of the batch
    /// `sizes` at width `nb` against their definitions. `d_plan` is any
    /// device buffer long enough to stand for the live-grid plan's
    /// upload; only its length is read.
    fn check_plans(dev: &Device, sizes: &[usize], nb: usize, d_plan: DevicePtr<i32>) {
        let c = FusedOpts::default().resolved_interleave_cutoff::<f64>();
        let max_n = sizes.iter().copied().max().unwrap_or(0);
        if max_n == 0 {
            return; // The frame returns before planning.
        }
        let mut ilv = None;
        let variants = [
            (Uplo::Lower, false, None),
            (Uplo::Lower, true, None),
            (Uplo::Lower, true, Some(c)),
            (Uplo::Upper, true, Some(c)),
        ];
        for (uplo, sorting, window_width) in variants {
            let opts = PotrfOptions {
                uplo,
                fused: FusedOpts {
                    sorting,
                    window_width,
                    ..Default::default()
                },
                ..Default::default()
            };
            let case = format!("{sizes:?} nb {nb} {uplo:?} sorting {sorting} {window_width:?}");
            let windows = fused_windows::<f64>(dev, sizes, max_n, nb, &opts).unwrap();
            // Per matrix: interleaved runs holding it, and step records
            // holding it at each of its live steps.
            let mut runs = vec![0; sizes.len()];
            let mut steps: Vec<Vec<usize>> =
                sizes.iter().map(|n| vec![0; n.div_ceil(nb)]).collect();
            for w in &windows {
                let wmax = w.indices.iter().map(|&i| sizes[i]).max().unwrap();
                for (first, len, extent, step) in
                    fused_launches::<f64>(dev, sizes, &w.indices, nb, &opts, &mut ilv)
                {
                    assert!(len > 0, "{case}: empty record");
                    let launch = &w.indices[first..first + len];
                    let top = launch.iter().map(|&i| sizes[i]).max().unwrap();
                    match step {
                        None => {
                            assert_eq!(extent, top, "{case}: run extent");
                            assert!(extent <= c && uplo == Uplo::Lower, "{case}");
                            launch.iter().for_each(|&i| runs[i] += 1);
                        }
                        Some(j) => {
                            assert!(j < extent && extent == wmax, "{case}: step {j}");
                            assert_eq!(j % nb, 0, "{case}");
                            for &i in launch {
                                // A sorted launch carries no matrix
                                // already factorized.
                                assert!(!sorting || sizes[i] > j, "{case}: {i} dead at {j}");
                                if let Some(hits) = steps[i].get_mut(j / nb) {
                                    *hits += 1;
                                }
                            }
                        }
                    }
                }
            }
            for (i, &n) in sizes.iter().enumerate() {
                // Each matrix factorizes in exactly one interleaved run or
                // in exactly one step record per live step, never both.
                let stepped = &steps[i];
                match runs[i] {
                    0 => assert!(stepped.iter().all(|&h| h == 1), "{case}: {i} {stepped:?}"),
                    1 => assert!(stepped.iter().all(|&h| h == 0), "{case}: {i} {stepped:?}"),
                    r => panic!("{case}: matrix {i} in {r} interleaved runs"),
                }
                // No record holds a matrix of order 0. Bucketed at the
                // cutoff, every `Lower` matrix at or below it is
                // interleaved, and no other.
                if n == 0 || window_width == Some(c) {
                    let want = usize::from(n > 0 && n <= c && uplo == Uplo::Lower);
                    assert_eq!(runs[i], want, "{case}: matrix {i}");
                }
            }
        }
        // The separated plan, read back from a host copy longer than the
        // plan (what a resident twin can be).
        let mut host: Vec<i32> = plan_live_grids(sizes, nb).collect();
        let len = host.len();
        host.extend([-1; 7]);
        let plan = live_steps(d_plan.truncate(len), &host, sizes.len(), nb);
        let mut s = 0;
        for (j, grids) in plan {
            assert_eq!(j, s * nb, "{sizes:?} nb {nb}");
            for (kernel, grid) in SepKernel::STEP.into_iter().zip(grids) {
                let live = sizes
                    .iter()
                    .map(|&n| kernel.live_blocks(n.saturating_sub(j), nb));
                assert_eq!(
                    grid.blocks(),
                    live.sum::<usize>(),
                    "{sizes:?} nb {nb} {kernel:?} j {j}"
                );
            }
            s += 1;
        }
        assert_eq!(s, max_n.div_ceil(nb), "{sizes:?} nb {nb}");
    }

    /// The Cholesky planners ([`fused_launches`] over the call's windows,
    /// [`live_steps`] over [`plan_live_grids`]), bounded-exhaustively:
    /// nb ∈ {1, 2, 3} and every multiset of ≤ 6 orders in `0..=3·nb`,
    /// given ascending and descending, as they are and with the nonzero
    /// orders shifted to straddle the interleave cutoff. Nothing is
    /// launched and no clock moves: the device only prices the
    /// interleaved cut and holds the stand-in plan buffer.
    #[test]
    fn cholesky_plans_bounded_exhaustive() {
        let d = dev();
        let c = FusedOpts::default().resolved_interleave_cutoff::<f64>();
        let d_plan = d.alloc::<i32>(1 << 12).unwrap();
        for nb in 1..=3 {
            let orders: Vec<(usize, usize)> = (0..=3 * nb).map(|n| (n, n)).collect();
            crate::lu::tests::multisets(&orders, 6, &mut Vec::new(), 0, &mut |batch| {
                for shift in [0, c - 3 * nb / 2] {
                    let up: Vec<usize> = batch
                        .iter()
                        .map(|&(n, _)| if n > 0 { n + shift } else { 0 })
                        .collect();
                    check_plans(&d, &up, nb, d_plan.ptr());
                    let down: Vec<usize> = up.iter().rev().copied().collect();
                    check_plans(&d, &down, nb, d_plan.ptr());
                }
            });
        }
        assert_eq!((d.now(), d.launch_count()), (0.0, 0));
    }

    /// Per kernel: launches and blocks.
    type Counts = std::collections::BTreeMap<&'static str, (u64, u64)>;

    /// Replays `potrf_vbatched` with `opts` on `batch` from the plan
    /// records alone, launch by launch, checking each launch against its
    /// own record, and returns the launches and blocks per kernel the
    /// records count. Fused records launch here; separated steps go
    /// through the driver's step function, whose kernels launch at most
    /// once a step, so each step's profiler delta is its launches.
    fn replay(d: &Device, batch: &mut VBatch<f64>, opts: &PotrfOptions) -> Counts {
        let (sizes, count) = (batch.cols().to_vec(), batch.count());
        let mut ws = DriverWorkspace::new();
        let max_n = compute_imax_pooled(d, batch.d_cols(), count, &mut ws.imax_partial).unwrap();
        let max_n = max_n as usize;
        let of = |name| d.with_profiler(|p| p.get(name).map_or((0, 0), |e| (e.launches, e.blocks)));
        let mut planned = Counts::new();
        let mut launched = |name, blocks: usize, (n0, b0): (u64, u64)| {
            assert_eq!(of(name), (n0 + 1, b0 + blocks as u64), "{name}");
            let e = planned.entry(name).or_default();
            *e = (e.0 + 1, e.1 + blocks as u64);
        };
        if opts.strategy == Strategy::Fused {
            let nb = tuned_nb::<f64>(d, max_n);
            let windows = fused_windows::<f64>(d, &sizes, max_n, nb, opts).unwrap();
            let perm = windows
                .iter()
                .flat_map(|w| w.indices.iter().map(|&i| i as i32));
            let sorting = opts.fused.sorting;
            let perm =
                upload_resident(d, perm, &mut ws.idx_host, &mut ws.idx_dev, sorting).unwrap();
            let lanes = vbatch_dense::interleave::lane_count::<f64>();
            let mut first = 0;
            for w in &windows {
                let plan = fused_launches::<f64>(d, &sizes, &w.indices, nb, opts, &mut ws.ilv_plan);
                for (at, len, extent, step) in plan {
                    let idx = perm.offset(first + at).truncate(len);
                    let name = if step.is_some() {
                        "dpotrf_fused_step"
                    } else {
                        "dpotrf_ilv_batch"
                    };
                    let before = of(name);
                    let (blocks, stats) = match step {
                        None => {
                            let stats = potrf_interleaved_window(d, batch, idx, extent);
                            (len.div_ceil(lanes), stats)
                        }
                        Some(j) => {
                            let stats = potrf_fused_step(d, batch, opts, idx, extent, j, nb);
                            (len, stats)
                        }
                    };
                    assert_eq!(stats.unwrap().config.grid.x as usize, blocks);
                    launched(name, blocks, before);
                }
                first += w.indices.len();
            }
        } else {
            let nb_panel = opts.sep.nb_panel;
            let d_starts = ws.sep_scratch(d, &sizes, nb_panel).unwrap();
            let mut step = separated_step(d, batch, opts, &ws);
            let names = [
                "dpotf2_vbatched",
                "dtrtri_vbatched",
                "dtrsm_vbatched",
                "dsyrk_vbatched",
            ];
            for (j, grids) in live_steps(d_starts, &ws.live_host, count, nb_panel) {
                let (aux, before) = (of("vbatch_aux_step"), names.map(of));
                step(&mut RecoveryReport::default(), (j, grids)).unwrap();
                // The step-state update runs 256 matrices a block.
                launched("vbatch_aux_step", count.div_ceil(256), aux);
                for ((name, grid), before) in names.into_iter().zip(grids).zip(before) {
                    if grid.blocks() > 0 {
                        launched(name, grid.blocks(), before);
                    } else {
                        assert_eq!(of(name), before, "{name} launched with no live block");
                    }
                }
            }
        }
        d.copy_dtoh_bytes(count * 4); // The frame's `info` read.
        planned
    }

    /// Planned equals launched, on the three Cholesky batches of the
    /// `sim_invariance` goldens (fused and separated on its ten orders,
    /// fused on 2 000 Uniform{32} orders) and on [`edge_sizes`] both
    /// ways: each call's profiler holds
    /// exactly the launches and blocks its plan records count, and
    /// nothing else but the max-reduction (the replay's own), and the
    /// record-by-record replay ends on the call's clock and energy bit
    /// for bit.
    #[test]
    fn planned_equals_launched() {
        use rand::Rng;
        let sizes = [33, 7, 150, 64, 1, 0, 90, 12, 128, 45];
        let mut rng = seeded_rng(7);
        let tiny: Vec<usize> = (0..2_000).map(|_| rng.gen_range(1..=32)).collect();
        let separated = PotrfOptions {
            strategy: Strategy::Separated,
            sep: SepOpts {
                nb_panel: 32,
                nb_inner: 8,
            },
            ..Default::default()
        };
        let fused = PotrfOptions {
            strategy: Strategy::Fused,
            ..separated
        };
        // And the edge shape, whose fused call takes two windows.
        let edge = edge_sizes();
        let cases = [
            (&sizes[..], fused),
            (&sizes, separated),
            (&tiny, fused),
            (&edge, fused),
            (&edge, separated),
        ];
        for (sizes, opts) in cases {
            let d = dev();
            let (mut batch, _) = make_batch::<f64>(&d, sizes, 7);
            d.reset_metrics();
            let report = potrf_vbatched(&d, &mut batch, &opts).unwrap();
            assert!(report.all_ok());
            let r = dev();
            let (mut again, _) = make_batch::<f64>(&r, sizes, 7);
            r.reset_metrics();
            let mut planned = replay(&r, &mut again, &opts);
            let imax =
                r.with_profiler(|p| p.get("vbatch_aux_imax").map(|e| (e.launches, e.blocks)));
            planned.insert("vbatch_aux_imax", imax.unwrap());
            let case = format!("{:?} x{}", opts.strategy, sizes.len());
            let ran: Counts = d.with_profiler(|p| {
                planned
                    .keys()
                    .map(|&k| (k, p.get(k).map_or((0, 0), |e| (e.launches, e.blocks))))
                    .collect()
            });
            assert_eq!(ran, planned, "{case}");
            let launches: u64 = planned.values().map(|c| c.0).sum();
            assert_eq!(d.launch_count(), launches, "{case}: an unplanned launch");
            assert_eq!(d.now().to_bits(), r.now().to_bits(), "{case}");
            assert_eq!(d.energy_j().to_bits(), r.energy_j().to_bits(), "{case}");
        }
    }

    /// One order-200 matrix among 2 000 of orders 1-8: at the default
    /// options the fused call cuts the small window into interleaved
    /// runs and steps the large one alone over its live suffix, and the
    /// separated call's live grids hold the one large matrix's tiles
    /// beside 2 000 one-block panels.
    fn edge_sizes() -> Vec<usize> {
        let mut sizes: Vec<usize> = (0..2_000).map(|i| 1 + (i * 5) % 8).collect();
        sizes.insert(1_234, 200);
        sizes
    }

    /// Each factor and `info` of the [`edge_sizes`] batch, fused and
    /// separated, is bit-equal to its matrix factorized alone. Two
    /// matrices break down (the large one late, a small one early), so
    /// the `info` codes are exercised too.
    #[test]
    fn edge_shape_matches_each_matrix_alone() {
        let sizes = edge_sizes();
        let bits = |b: &VBatch<f64>, i: usize| -> Vec<u64> {
            b.download_matrix(i).iter().map(|v| v.to_bits()).collect()
        };
        for strategy in [Strategy::Fused, Strategy::Separated] {
            let opts = PotrfOptions {
                strategy,
                ..Default::default()
            };
            let d = dev();
            let (mut batch, mut origs) = make_batch::<f64>(&d, &sizes, 0xED);
            for (i, col) in [(1_234, 170), (7, 2)] {
                let n = sizes[i];
                origs[i][col * (n + 1)] = -1.0;
                batch.upload_matrix(i, &origs[i]).unwrap();
            }
            let report = potrf_vbatched(&d, &mut batch, &opts).unwrap();
            assert_eq!(
                report.failures(),
                vec![(7, 3), (1_234, 171)],
                "{strategy:?}"
            );
            if strategy == Strategy::Fused {
                let launches = |k| d.with_profiler(|p| p.get(k).map_or(0, |e| e.launches));
                assert!(launches("dpotrf_ilv_batch") > 0 && launches("dpotrf_fused_step") > 0);
            }
            let one = dev();
            let mut ws = DriverWorkspace::new();
            for (i, &n) in sizes.iter().enumerate() {
                let mut alone = VBatch::<f64>::alloc_square(&one, &[n]).unwrap();
                alone.upload_matrix(0, &origs[i]).unwrap();
                let solo = potrf_vbatched_ws(&one, &mut alone, &opts, &mut ws).unwrap();
                let case = format!("{strategy:?}: matrix {i} (n = {n})");
                assert_eq!(solo.info[0], report.info[i], "{case}");
                assert_eq!(bits(&alone, 0), bits(&batch, i), "{case}");
            }
        }
    }
}
