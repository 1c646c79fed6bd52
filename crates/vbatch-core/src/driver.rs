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

use vbatch_dense::{Scalar, Uplo};
use vbatch_gpu_sim::{Device, DevicePtr};

use crate::aux::compute_imax_pooled;
use crate::etm::EtmPolicy;
use crate::fused::{fused_feasible, potrf_fused_step, potrf_interleaved_window, tuned_nb};
use crate::recover::{
    fault_events_start, finish_recovery, scrub_batch, with_retry, RecoveryPolicy, RecoveryReport,
};
use crate::report::{BatchReport, VbatchError};
use crate::sep::potf2::potf2_panel_vbatched;
use crate::sep::syrk::syrk_vbatched;
use crate::sep::trsm::trsm_panel_vbatched;
use crate::sep::trtri::trtri_diag_vbatched;
use crate::sep::{LiveGrid, SepKernel, DEFAULT_NB_PANEL};
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
    let ev_start = fault_events_start(dev);
    potrf_run(
        dev,
        batch,
        max_n,
        opts,
        ws,
        RecoveryReport::default(),
        ev_start,
    )
}

/// Driver body shared by both public entry points: validates, runs the
/// resolved strategy under the recovery policy, and finalizes the
/// report. `rec`/`ev_start` carry recovery state accumulated by the
/// caller (the LAPACK-style interface's max-reduction runs *before*
/// this body and is itself retried).
fn potrf_run<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    max_n: usize,
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<T>,
    mut rec: RecoveryReport,
    ev_start: usize,
) -> Result<BatchReport, VbatchError> {
    if batch.rows() != batch.cols() {
        return Err(VbatchError::InvalidArgument(
            "potrf_vbatched: matrices must be square",
        ));
    }
    batch.reset_info();
    if batch.count() == 0 || max_n == 0 {
        return Ok(finish_recovery(dev, ev_start, rec, batch.read_info()));
    }
    batch.register_fault_targets(dev);

    let nb = opts.fused.nb.unwrap_or_else(|| tuned_nb::<T>(dev, max_n));
    let strategy = resolve_strategy::<T>(dev, opts, max_n, nb);
    match strategy {
        Strategy::Fused => run_fused(dev, batch, max_n, nb, opts, ws, &mut rec)?,
        Strategy::Separated => run_separated(dev, batch, opts, ws, &mut rec)?,
        Strategy::Auto => unreachable!("resolved above"),
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
    potrf_run(dev, batch, max_n, opts, ws, rec, ev_start)
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

fn run_fused<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    max_n: usize,
    nb: usize,
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<T>,
    rec: &mut RecoveryReport,
) -> Result<(), VbatchError> {
    if !fused_feasible::<T>(dev, max_n, nb) {
        return Err(VbatchError::InvalidArgument(
            "fused approach infeasible for this max size; use Separated or Auto",
        ));
    }
    let sizes = batch.cols();
    let windows = if opts.fused.sorting {
        // Window width: at least `window_factor · nb` (the paper ties it
        // to nb), widened so the average group still fills the device —
        // narrow windows on small batches multiply launches faster than
        // they improve occupancy (measured by `figures -- ablation-window`). An
        // explicit `window_width` bypasses the count-dependent heuristic
        // entirely (the sharded path needs bucketing that is independent
        // of how many matrices landed on this device).
        let width = opts.fused.window_width.unwrap_or_else(|| {
            let target_groups = (batch.count() / 48).max(1);
            let min_window = max_n.div_ceil(target_groups);
            (nb * opts.fused.window_factor.max(1)).max(min_window)
        });
        build_windows(sizes, width)
    } else {
        single_window(sizes)
    };
    let mut first = 0;
    for w in &windows {
        let win = (windows.as_slice(), first, w.indices.as_slice());
        process_fused_window(dev, batch, win, w.max_size, nb, opts, ws, rec)?;
        scrub_batch(dev, batch, &opts.recovery, rec)?;
        first += w.indices.len();
    }
    Ok(())
}

/// A fused window or OOM half: the call's windows, the offset of its
/// first index in their concatenation, and its indices.
type WindowSlice<'a> = (&'a [SizeWindow], usize, &'a [usize]);

/// The device indices of `win`: its slice of the call's permutation
/// (every window's indices, back to back), made resident whole through
/// [`upload_resident`] so a call uploads it at most once, and not at all
/// when the workspace already holds it. When the whole permutation does
/// not fit in memory, the slice alone is made resident, which is what
/// lets the OOM ladder's halves fit where their window did not. Only a
/// sorted call charges the upload: an unsorted launch maps blocks to
/// matrices directly, and its index list stands in for that mapping.
fn window_indices<T: Scalar>(
    dev: &Device,
    (windows, first, indices): WindowSlice<'_>,
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

/// Factorizes one fused sorting window, degrading on persistent OOM by
/// recursive halving (rung 2 of the recovery ladder): each sub-window is
/// bitwise-equivalent to its share of the full window because the fused
/// per-matrix arithmetic depends only on the matrix's own order and the
/// globally fixed blocking `nb`, never on which neighbors share the
/// launch. Each half keeps its offset into the call's permutation. At a
/// single-matrix window the pooled workspace is released back to the
/// device as the last resort before giving up.
#[allow(clippy::too_many_arguments)]
fn process_fused_window<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    win: WindowSlice<'_>,
    wmax: usize,
    nb: usize,
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<T>,
    rec: &mut RecoveryReport,
) -> Result<(), VbatchError> {
    match fused_window_once(dev, batch, win, wmax, nb, opts, ws, rec) {
        Err(VbatchError::Oom(e)) => {
            let (windows, first, indices) = win;
            if indices.len() > 1 {
                rec.window_splits += 1;
                let mid = indices.len() / 2;
                let (lo, hi) = indices.split_at(mid);
                for (off, half) in [(first, lo), (first + mid, hi)] {
                    let half_max = half.iter().map(|&i| batch.cols()[i]).max().unwrap_or(0);
                    let half = (windows, off, half);
                    process_fused_window(dev, batch, half, half_max, nb, opts, ws, rec)?;
                }
                Ok(())
            } else {
                // One matrix left and still no memory: release every
                // pooled buffer and make a final attempt.
                rec.workspace_releases += 1;
                ws.release();
                fused_window_once(dev, batch, win, wmax, nb, opts, ws, rec)
                    .map_err(|_| VbatchError::Oom(e))
            }
        }
        other => other,
    }
}

/// One attempt at a fused window (no OOM degradation — that is the
/// caller's ladder). Launch rejections and (under a fault plan) alloc
/// denials are retried in place.
#[allow(clippy::too_many_arguments)]
fn fused_window_once<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    win: WindowSlice<'_>,
    wmax: usize,
    nb: usize,
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<T>,
    rec: &mut RecoveryReport,
) -> Result<(), VbatchError> {
    let indices = win.2;
    if indices.is_empty() || wmax == 0 {
        return Ok(());
    }
    let pol = &opts.recovery;
    let d_idx = with_retry(dev, pol, rec, || {
        window_indices(dev, win, opts.fused.sorting, ws)
    })?;
    if opts.fused.batched_small
        && opts.uplo == Uplo::Lower
        && wmax <= opts.fused.resolved_interleave_cutoff::<T>()
    {
        // Batched-small path: the window factorizes in cross-matrix
        // interleaved launches instead of a per-step loop. A sorted
        // window is cut into runs of orders where the simulator's own
        // launch arithmetic predicts the cut pays; an unsorted one is a
        // single launch.
        let whole = [(0, indices.len(), wmax)];
        let runs = if opts.fused.sorting {
            ws.ilv_plan
                .get_or_insert_with(Box::default)
                .cut::<T>(dev, batch.cols(), indices)
        } else {
            &whole
        };
        for &(first, len, m) in runs {
            let run_idx = d_idx.offset(first).truncate(len);
            with_retry(dev, pol, rec, || {
                potrf_interleaved_window(dev, batch, run_idx, len, m)
            })?;
        }
        return Ok(());
    }
    // A sorted window's indices ascend by order (and so do the halves
    // the OOM ladder cuts from it), so the matrices still live at step
    // `j` are a suffix of the list: each step launches that suffix alone,
    // counted on the host size mirror. The launch shape still follows
    // `wmax - j`. An unsorted window (the sorting ablation) keeps every
    // matrix in every step, and a matrix that breaks mid-window retires
    // through the ETM's `info` check either way.
    let sizes = batch.cols();
    let mut j = 0;
    while j < wmax {
        let first = if opts.fused.sorting {
            indices.partition_point(|&i| sizes[i] <= j)
        } else {
            0
        };
        let live = indices.len() - first;
        let live_idx = d_idx.offset(first).truncate(live);
        with_retry(dev, pol, rec, || {
            potrf_fused_step(
                dev,
                batch,
                opts.uplo,
                live_idx,
                live,
                wmax,
                j,
                nb,
                opts.fused.etm,
            )
        })?;
        j += nb;
    }
    Ok(())
}

/// The separated approach (§III-E): per step, the panel `potf2`, the
/// diagonal-block `trtri`, the panel `trsm` and the trailing `syrk`,
/// each launched on a [`LiveGrid`] of its live work alone. The grids
/// are counted on the host size mirror, so the step loop ends at the
/// batch's largest order whatever `max_n` the caller passed, and a
/// kernel with no live block at a step is not launched.
///
/// Nothing is read back: the sizes come from the host mirror. Every
/// step's block starts go down in one upload, charged to the clock,
/// which a workspace that already holds the same plan skips
/// ([`DriverWorkspace::sep_scratch`]).
fn run_separated<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<T>,
    rec: &mut RecoveryReport,
) -> Result<(), VbatchError> {
    let count = batch.count();
    let sizes = batch.cols();
    let (pol, uplo) = (opts.recovery, opts.uplo);
    let nb_panel = opts.sep.nb_panel.max(1);
    let nb_inner = opts.sep.nb_inner.max(1).min(nb_panel);
    // OOM ladder for the separated scratch. Shrinking `nb_panel` would
    // reorder the blocked arithmetic and break bitwise reproducibility,
    // so the only degradations are retry (under a fault plan) and a
    // last-resort release of the pooled workspace; `sep_scratch` keeps
    // partial progress (the step state survives a failed tile alloc).
    let mut grown = with_retry(dev, &pol, rec, || ws.sep_scratch(dev, sizes, nb_panel));
    if matches!(grown, Err(VbatchError::Oom(_))) {
        rec.workspace_releases += 1;
        ws.release();
        grown = ws.sep_scratch(dev, sizes, nb_panel);
    }
    grown?;
    let (st, work, d_starts, starts) = ws.sep_views();

    // Each step's kernels read the trailing matrices its update wrote.
    let whole = batch.view();
    let a = st.view(whole);
    let top = sizes.iter().copied().max().unwrap_or(0);
    for s in 0..top.div_ceil(nb_panel) {
        let j = s * nb_panel;
        with_retry(dev, &pol, rec, || st.update(dev, whole, j))?;
        for kernel in SepKernel::STEP {
            let grid = LiveGrid::of_plan(d_starts, starts, count, s, kernel);
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
        scrub_batch(dev, batch, &pol, rec)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
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
            potrf_interleaved_window(&d1, &single, d_idx.ptr(), idx.len(), windows[0].max_size)
                .unwrap();
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
}
