//! Approach 1 — fused BLAS kernels (paper §III-D).
//!
//! The fused left-looking Cholesky kernel keeps the current `m × nb`
//! panel in shared memory and fuses three operations that the separated
//! approach would launch as distinct kernels:
//!
//! 1. the **customized `syrk`** panel update
//!    `C ← C − A·Bᵀ` where `B` is a row block *of* `A` (so its loads are
//!    shared — "we take advantage of it in the customized routine and
//!    avoid redundant loads"), streamed from global memory with double
//!    buffering;
//! 2. the **`potf2`** tile factorization of the `nb × nb` diagonal
//!    block, entirely in shared memory;
//! 3. the **`trsm`** panel factorization of the rows below it.
//!
//! Two entry points:
//!
//! * [`potrf_fused_fixed`] — the fixed-size kernel: one launch, one
//!   thread block per matrix, looping over all panel steps internally
//!   (the Fig. 4 kernel, also used by the padding baseline);
//! * [`potrf_fused_step`] — the vbatched per-step kernel the
//!   factorization driver launches once per panel step over a (window
//!   of) live matrices, with ETM support (Figs. 5–7).

use vbatch_dense::{Diag, MatMut, Scalar, Side, Trans, Uplo};
use vbatch_gpu_sim::{BlockCtx, Device, DevicePtr, KernelStats, LaunchConfig};

use crate::etm::EtmPolicy;
use crate::kernels::{
    charge_flops, charge_read, charge_smem, charge_write, kname, mat_mut, panel_smem_bytes,
    round_to_warp,
};
use crate::report::VbatchError;
use crate::VBatch;

/// Default inner blocking size of the fused kernels (the paper's ETM
/// example uses `nb = 8`; autotuning selects per-size values, see
/// [`tuned_nb`]).
pub const DEFAULT_NB: usize = 8;

/// The compile-time-template `nb` values the "modular templated
/// interface" instantiates (paper §III-D: "we call the kernel using the
/// predefined template where the nb tuning parameter is predefined at
/// compile time").
pub const NB_CANDIDATES: [usize; 4] = [4, 8, 16, 32];

/// Autotuned `nb` for a given maximum matrix size. Measured on the
/// simulated K40c (see `examples/autotune_crossover.rs`): tiny batches
/// want the largest panel that fits (fewer steps dominate); above ~48
/// the sweet spot is `nb = 16` — wider panels cost occupancy faster
/// than they save steps — falling back to the largest feasible
/// candidate when shared memory forbids 16.
#[must_use]
pub fn tuned_nb<T: Scalar>(dev: &Device, max_n: usize) -> usize {
    let limit = dev.config().shared_mem_per_block;
    let feasible = |nb: usize| panel_smem_bytes::<T>(max_n.max(1), nb) <= limit;
    if max_n <= 48 {
        NB_CANDIDATES
            .iter()
            .copied()
            .filter(|&nb| feasible(nb))
            .max()
            .unwrap_or(NB_CANDIDATES[0])
    } else if feasible(16) {
        16
    } else {
        NB_CANDIDATES
            .iter()
            .copied()
            .filter(|&nb| feasible(nb))
            .max()
            .unwrap_or(NB_CANDIDATES[0])
    }
}

/// Whether the fused approach can run at all for batches whose largest
/// matrix is `max_n`: the `max_n × nb` panel must fit in one block's
/// shared memory (the crossover criterion of §IV-E — "checking the
/// maximum size decides whether it is safe to run such approach").
#[must_use]
pub fn fused_feasible<T: Scalar>(dev: &Device, max_n: usize, nb: usize) -> bool {
    max_n > 0
        && panel_smem_bytes::<T>(max_n, nb) <= dev.config().shared_mem_per_block
        && round_to_warp(max_n, dev.config().warp_size) <= dev.config().max_threads_per_block
}

/// One fused left-looking panel step on matrix `a` (order `n`, leading
/// dimension `ld`) at column offset `j`: customized `syrk` update,
/// `potf2`, `trsm`. Returns the failing global column on breakdown.
///
/// `ctx` receives the cost charges; the math itself is bit-real and
/// identical whether or not a context is present. The multicore host
/// engine ([`crate::host`]) calls this with `ctx = None` so host-placed
/// matrices replay the exact device arithmetic — the two paths share
/// this one function by construction. The `Uplo::Lower` case is the
/// paper's case study (panel = block column of `L`); `Uplo::Upper`
/// mirrors it on block rows of `U`, with identical shared-memory
/// footprint and cost structure.
pub(crate) fn fused_step_math<T: Scalar>(
    mut ctx: Option<&mut BlockCtx>,
    uplo: Uplo,
    mut a: MatMut<'_, T>,
    n: usize,
    j: usize,
    nb: usize,
) -> Result<(), usize> {
    let rem = n - j;
    let ib = nb.min(rem);

    // Panel staged into shared memory.
    if let Some(ctx) = ctx.as_deref_mut() {
        charge_read::<T>(ctx, rem * ib);
        charge_smem::<T>(ctx, rem * ib);
    }

    if j > 0 {
        // Customized syrk: a standard syrk/gemm would re-load the inner
        // operand, the fused kernel reads the `rem × j` strip once
        // (double buffered: loads of stage s overlap compute of s−1).
        match uplo {
            Uplo::Lower => {
                // panel ← panel − A[j:n, 0:j] · A[j:j+ib, 0:j]ᵀ.
                let a_left = a.alias_ref().sub(j, 0, rem, j);
                let b_rows = a.alias_ref().sub(j, 0, ib, j);
                let panel = a.rb().sub(j, j, rem, ib);
                vbatch_dense::gemm(
                    Trans::NoTrans,
                    Trans::Trans,
                    -T::ONE,
                    a_left,
                    b_rows,
                    T::ONE,
                    panel,
                );
            }
            Uplo::Upper => {
                // panel ← panel − A[0:j, j:j+ib]ᵀ · A[0:j, j:n].
                let a_top = a.alias_ref().sub(0, j, j, ib);
                let b_cols = a.alias_ref().sub(0, j, j, rem);
                let panel = a.rb().sub(j, j, ib, rem);
                vbatch_dense::gemm(
                    Trans::Trans,
                    Trans::NoTrans,
                    -T::ONE,
                    a_top,
                    b_cols,
                    T::ONE,
                    panel,
                );
            }
        }
        if let Some(ctx) = ctx.as_deref_mut() {
            charge_read::<T>(ctx, rem * j);
            charge_smem::<T>(ctx, 2 * rem * ib); // double-buffer staging
            charge_flops::<T>(ctx, rem, 2.0 * rem as f64 * ib as f64 * j as f64);
            // One barrier per double-buffer stage (stage width nb).
            for _ in 0..j.div_ceil(nb) {
                ctx.sync();
            }
        }
    }

    // Tile factorization (xpotf2) of the ib × ib diagonal block.
    let tile = a.rb().sub(j, j, ib, ib);
    if let Err(e) = vbatch_dense::potf2(uplo, tile) {
        let col = match e {
            vbatch_dense::Error::NotPositiveDefinite { column } => column,
            _ => 0,
        };
        return Err(j + col);
    }
    if let Some(ctx) = ctx.as_deref_mut() {
        charge_flops::<T>(ctx, ib, vbatch_dense::flops::potrf(ib));
        // potf2 synchronizes once per column.
        for _ in 0..ib {
            ctx.sync();
        }
    }

    // Panel factorization (trsm): the rows below (Lower) or the columns
    // right of (Upper) the tile.
    if rem > ib {
        match uplo {
            Uplo::Lower => {
                let l11 = a.alias_ref().sub(j, j, ib, ib);
                let below = a.rb().sub(j + ib, j, rem - ib, ib);
                vbatch_dense::trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::Trans,
                    Diag::NonUnit,
                    T::ONE,
                    l11,
                    below,
                );
            }
            Uplo::Upper => {
                let u11 = a.alias_ref().sub(j, j, ib, ib);
                let right = a.rb().sub(j, j + ib, ib, rem - ib);
                vbatch_dense::trsm(
                    Side::Left,
                    Uplo::Upper,
                    Trans::Trans,
                    Diag::NonUnit,
                    T::ONE,
                    u11,
                    right,
                );
            }
        }
        if let Some(ctx) = ctx.as_deref_mut() {
            charge_flops::<T>(ctx, rem - ib, (rem - ib) as f64 * ib as f64 * ib as f64);
            ctx.sync();
        }
    }

    // Panel written back to global memory.
    if let Some(ctx) = ctx {
        charge_write::<T>(ctx, rem * ib);
    }
    Ok(())
}

/// Fixed-size fused Cholesky: one kernel launch, one thread block per
/// matrix, all panel steps fused inside the block (paper Fig. 4).
///
/// Every matrix in `batch` must have order `n` (`batch` may hold padded
/// storage of exactly that order). Per-matrix breakdowns land in the
/// batch `info` array.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] if any matrix is not `n × n` or the
/// panel does not fit in shared memory; [`VbatchError::Launch`] on
/// launch rejection.
pub fn potrf_fused_fixed<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    uplo: Uplo,
    n: usize,
    nb: usize,
) -> Result<KernelStats, VbatchError> {
    if batch.rows().iter().any(|&r| r != n) || batch.cols().iter().any(|&c| c != n) {
        return Err(VbatchError::InvalidArgument(
            "potrf_fused_fixed: all matrices must have order n",
        ));
    }
    if n == 0 || batch.count() == 0 {
        return Err(VbatchError::InvalidArgument(
            "potrf_fused_fixed: empty batch or zero order",
        ));
    }
    if !fused_feasible::<T>(dev, n, nb) {
        return Err(VbatchError::InvalidArgument(
            "potrf_fused_fixed: panel exceeds shared memory; use the separated approach",
        ));
    }
    let warp = dev.config().warp_size;
    let threads = round_to_warp(n, warp);
    let cfg = LaunchConfig::grid_1d(batch.count() as u32, threads)
        .with_shared_mem(panel_smem_bytes::<T>(n, nb));
    let ptrs = batch.d_ptrs();
    let lds = batch.d_ld();
    let infos = batch.d_info();
    let stats = dev.launch(kname::<T>("potrf_fused_fixed"), cfg, move |ctx| {
        let i = ctx.linear_block_id();
        let ld = lds.get(i) as usize;
        let mut j = 0;
        while j < n {
            // Re-derive the view each step (the math consumes it).
            let a_step = mat_mut(ptrs.get(i), n, n, ld);
            if let Err(col) = fused_step_math::<T>(Some(ctx), uplo, a_step, n, j, nb) {
                infos.set(i, (col + 1) as i32);
                return;
            }
            j += nb;
        }
    })?;
    Ok(stats)
}

/// Vbatched fused step kernel: one launch processes panel step `j` for
/// the `group_count` matrices selected by the device index array
/// `d_indices` (identity when empty). The launch is configured for the
/// group's largest matrix (`group_max`); blocks whose matrix is finished
/// or broken terminate per `etm`.
///
/// # Errors
/// [`VbatchError::Launch`] on launch rejection (e.g. panel exceeds
/// shared memory — callers gate on [`fused_feasible`]).
#[allow(clippy::too_many_arguments)]
pub fn potrf_fused_step<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    uplo: Uplo,
    d_indices: DevicePtr<i32>,
    group_count: usize,
    group_max: usize,
    j: usize,
    nb: usize,
    etm: EtmPolicy,
) -> Result<KernelStats, VbatchError> {
    debug_assert!(j < group_max);
    let max_rem = group_max - j;
    let warp = dev.config().warp_size;
    let threads = round_to_warp(max_rem, warp).min(dev.config().max_threads_per_block);
    let cfg = LaunchConfig::grid_1d(group_count as u32, threads)
        .with_shared_mem(panel_smem_bytes::<T>(max_rem, nb));
    let ptrs = batch.d_ptrs();
    let sizes = batch.d_cols();
    let lds = batch.d_ld();
    let infos = batch.d_info();
    let stats = dev.launch(kname::<T>("potrf_fused_step"), cfg, move |ctx| {
        let b = ctx.linear_block_id();
        let i = if d_indices.is_empty() {
            b
        } else {
            d_indices.get(b) as usize
        };
        let n = sizes.get(i) as usize;
        let broken = infos.get(i) != 0;
        let rem = if broken { 0 } else { n.saturating_sub(j) };
        if !etm.apply(ctx, rem) {
            return;
        }
        let ld = lds.get(i) as usize;
        let a = mat_mut(ptrs.get(i), n, n, ld);
        if let Err(col) = fused_step_math::<T>(Some(ctx), uplo, a, n, j, nb) {
            infos.set(i, (col + 1) as i32);
        }
    })?;
    Ok(stats)
}

/// Default cutoff: windows whose largest matrix is at or below this
/// order take the interleaved batched-small path
/// ([`potrf_interleaved_window`]) instead of the per-matrix fused step
/// loop. At 32 the per-matrix tiers still cannot fill SIMD lanes (the
/// whole matrix is smaller than one register tile), the `m² · L`
/// lane-group tile stays within one block's shared memory in both
/// precisions, and a host A/B of the two paths (DESIGN.md §6d) shows
/// the cross-matrix path ahead across the whole range.
///
/// This is the single source of truth only as a *default*: the value
/// lives in [`vbatch_dense::tune::TileScheme::DEFAULT`] (`ilv_cutoff`)
/// and the driver resolves the active, possibly `TUNE.json`-retuned
/// scheme per precision through
/// [`crate::FusedOpts::resolved_interleave_cutoff`].
pub const INTERLEAVE_CUTOFF: usize = vbatch_dense::tune::TileScheme::DEFAULT.ilv_cutoff;

/// Interleaved batched-small Cholesky over one sorting window: each
/// thread block takes up to `L` = [`vbatch_dense::interleave::lane_count`]
/// matrices of the window (selected via `d_indices`, identity when
/// empty) and factorizes them in place as one lane group
/// ([`vbatch_dense::interleave::potrf_lanes_in_place`]). `Lower` only —
/// the driver falls back to the per-step loop for `Upper`.
///
/// The model and the host execution differ in one deliberate way: the
/// launch is *configured and charged* for an `m² · L` shared-memory tile
/// at the **window** extent `m = group_max`, which is what a device
/// kernel compiled for the window would hold, while the host stages
/// each group through a cache-resident scratch tile at the group's own
/// extent. Factor bits do not depend on the extent (the lane kernel's
/// contract), so no device arena is needed.
///
/// Lane masking is the host analog of ETM-aggressive: when the window
/// count is not a multiple of `L`, the trailing lanes of the last group
/// are dead on arrival and their threads retire at launch; a breakdown
/// mid-factorization freezes only its own lane (the per-matrix `info`
/// codes and partial factors match the scalar tier bit-for-bit).
///
/// # Errors
/// [`VbatchError::InvalidArgument`] if the window is empty;
/// [`VbatchError::Launch`] on launch rejection.
pub fn potrf_interleaved_window<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    d_indices: DevicePtr<i32>,
    group_count: usize,
    group_max: usize,
) -> Result<KernelStats, VbatchError> {
    use vbatch_dense::interleave::{self, MAX_LANES};

    if group_count == 0 || group_max == 0 {
        return Err(VbatchError::InvalidArgument(
            "potrf_interleaved_window: empty window",
        ));
    }
    let lanes = interleave::lane_count::<T>();
    let m = group_max;
    let groups = group_count.div_ceil(lanes);
    let tile_elems = interleave::interleaved_len(m, m, lanes);
    let warp = dev.config().warp_size;
    let threads = round_to_warp(m * lanes, warp).min(dev.config().max_threads_per_block);
    let cfg = LaunchConfig::grid_1d(groups as u32, threads).with_shared_mem(tile_elems * T::BYTES);
    let ptrs = batch.d_ptrs();
    let sizes = batch.d_cols();
    let lds = batch.d_ld();
    let infos = batch.d_info();
    let stats = dev.launch(kname::<T>("potrf_ilv_batch"), cfg, move |ctx| {
        let g = ctx.linear_block_id();
        let first = g * lanes;
        let cnt = lanes.min(group_count - first);
        // Resolve this group's matrices; already-broken lanes join at
        // order 0, so nothing of theirs is staged or written back.
        let mut idx = [0usize; MAX_LANES];
        let mut read_elems = 0usize;
        let mut total_flops = 0.0f64;
        let mut mats: [MatMut<'_, T>; MAX_LANES] = core::array::from_fn(|l| {
            if l >= cnt {
                return MatMut::from_slice(&mut [], 0, 0, 1);
            }
            let i = if d_indices.is_empty() {
                first + l
            } else {
                d_indices.get(first + l) as usize
            };
            idx[l] = i;
            let n = if infos.get(i) != 0 {
                0
            } else {
                sizes.get(i) as usize
            };
            read_elems += n * n;
            total_flops += vbatch_dense::flops::potrf(n);
            mat_mut::<T>(ptrs.get(i), n, n, lds.get(i) as usize)
        });
        if cnt < lanes {
            // Threads are lane-major (`t = l·m + i`), so the dead tail
            // of a partial group retires in one contiguous span — the
            // host analog of ETM-aggressive.
            ctx.retire_threads_beyond(cnt * m);
        }
        charge_read::<T>(ctx, read_elems);
        charge_smem::<T>(ctx, tile_elems);
        let mut infs = [0i32; MAX_LANES];
        interleave::potrf_lanes_in_place(&mut mats[..cnt], &mut infs[..cnt]);
        charge_flops::<T>(ctx, cnt * m, total_flops);
        // The lane kernel is column-synchronous: every column's pivot
        // gates its lane-mates' updates, one barrier per column.
        for _ in 0..m {
            ctx.sync();
        }
        for (&i, &code) in idx.iter().zip(infs.iter()).take(cnt) {
            if code != 0 {
                infos.set(i, code);
            }
        }
        charge_write::<T>(ctx, read_elems);
        charge_smem::<T>(ctx, tile_elems);
    })?;
    Ok(stats)
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

    /// `Device::now()` / `energy_j()` after the one launch of
    /// `interleaved_window_equals_scalar_tier_and_keeps_the_pinned_clock`,
    /// recorded from the device-arena kernel this one replaced.
    const PINNED_NOW: u64 = 0x3ef5_f3ab_7ebf_946a;
    const PINNED_ENERGY: u64 = 0x3f5e_7514_b7e2_e5bc;

    fn check_factor<T: Scalar>(factored: &[T], orig: &[T], n: usize) {
        let r = chol_residual(
            Uplo::Lower,
            MatRef::from_slice(factored, n, n, n),
            MatRef::from_slice(orig, n, n, n),
        );
        assert!(r < residual_tol::<T>(n), "n={n}: residual {r}");
    }

    #[test]
    fn fixed_kernel_factorizes_batch() {
        let d = dev();
        let n = 24;
        let mut rng = seeded_rng(5);
        let mut batch = VBatch::<f64>::alloc_square(&d, &[n; 8]).unwrap();
        let origs: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                let m = spd_vec::<f64>(&mut rng, n);
                batch.upload_matrix(i, &m).unwrap();
                m
            })
            .collect();
        let stats = potrf_fused_fixed(&d, &mut batch, Uplo::Lower, n, 8).unwrap();
        assert_eq!(stats.config.grid.x, 8);
        for (i, orig) in origs.iter().enumerate() {
            check_factor(&batch.download_matrix(i), orig, n);
        }
        assert_eq!(batch.read_info(), vec![0; 8]);
    }

    #[test]
    fn fixed_kernel_all_nb_candidates() {
        let d = dev();
        let n = 33; // not a multiple of any nb
        let mut rng = seeded_rng(6);
        for nb in NB_CANDIDATES {
            let mut batch = VBatch::<f64>::alloc_square(&d, &[n; 3]).unwrap();
            let orig = spd_vec::<f64>(&mut rng, n);
            for i in 0..3 {
                batch.upload_matrix(i, &orig).unwrap();
            }
            potrf_fused_fixed(&d, &mut batch, Uplo::Lower, n, nb).unwrap();
            check_factor(&batch.download_matrix(2), &orig, n);
        }
    }

    #[test]
    fn fixed_kernel_upper() {
        let d = dev();
        let n = 24;
        let mut rng = seeded_rng(5);
        let mut batch = VBatch::<f64>::alloc_square(&d, &[n; 4]).unwrap();
        let origs: Vec<Vec<f64>> = (0..4)
            .map(|i| {
                let m = spd_vec::<f64>(&mut rng, n);
                batch.upload_matrix(i, &m).unwrap();
                m
            })
            .collect();
        potrf_fused_fixed(&d, &mut batch, Uplo::Upper, n, 8).unwrap();
        for (i, orig) in origs.iter().enumerate() {
            let f = batch.download_matrix(i);
            let r = chol_residual(
                Uplo::Upper,
                MatRef::from_slice(&f, n, n, n),
                MatRef::from_slice(orig, n, n, n),
            );
            assert!(r < residual_tol::<f64>(n), "matrix {i}: residual {r}");
        }
    }

    #[test]
    fn fixed_kernel_f32() {
        let d = dev();
        let n = 48;
        let mut rng = seeded_rng(7);
        let mut batch = VBatch::<f32>::alloc_square(&d, &[n; 4]).unwrap();
        let orig = spd_vec::<f32>(&mut rng, n);
        for i in 0..4 {
            batch.upload_matrix(i, &orig).unwrap();
        }
        potrf_fused_fixed(&d, &mut batch, Uplo::Lower, n, 8).unwrap();
        check_factor(&batch.download_matrix(0), &orig, n);
    }

    #[test]
    fn fixed_kernel_reports_non_spd() {
        let d = dev();
        let n = 8;
        let mut rng = seeded_rng(8);
        let mut batch = VBatch::<f64>::alloc_square(&d, &[n; 3]).unwrap();
        let good = spd_vec::<f64>(&mut rng, n);
        let mut bad = good.clone();
        bad[3 + 3 * n] = -100.0; // breaks at column 3
        batch.upload_matrix(0, &good).unwrap();
        batch.upload_matrix(1, &bad).unwrap();
        batch.upload_matrix(2, &good).unwrap();
        potrf_fused_fixed(&d, &mut batch, Uplo::Lower, n, 4).unwrap();
        let info = batch.read_info();
        assert_eq!(info[0], 0);
        assert_eq!(info[1], 4); // 1-based column
        assert_eq!(info[2], 0);
        // Good matrices unaffected by the bad one.
        check_factor(&batch.download_matrix(0), &good, n);
    }

    #[test]
    fn step_kernel_variable_sizes_both_etms() {
        let d = dev();
        let sizes = [5usize, 17, 1, 30, 12, 30];
        for etm in [EtmPolicy::Classic, EtmPolicy::Aggressive] {
            let mut rng = seeded_rng(9);
            let mut batch = VBatch::<f64>::alloc_square(&d, &sizes).unwrap();
            let origs: Vec<Vec<f64>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let m = spd_vec::<f64>(&mut rng, n);
                    batch.upload_matrix(i, &m).unwrap();
                    m
                })
                .collect();
            let nb = 8;
            let max = 30;
            let mut j = 0;
            while j < max {
                potrf_fused_step(
                    &d,
                    &batch,
                    Uplo::Lower,
                    DevicePtr::null(),
                    sizes.len(),
                    max,
                    j,
                    nb,
                    etm,
                )
                .unwrap();
                j += nb;
            }
            for (i, &n) in sizes.iter().enumerate() {
                check_factor(&batch.download_matrix(i), &origs[i], n);
            }
            assert!(batch.read_info().iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn step_kernel_with_index_indirection() {
        let d = dev();
        let sizes = [6usize, 14, 9];
        let mut rng = seeded_rng(10);
        let mut batch = VBatch::<f64>::alloc_square(&d, &sizes).unwrap();
        let origs: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let m = spd_vec::<f64>(&mut rng, n);
                batch.upload_matrix(i, &m).unwrap();
                m
            })
            .collect();
        // Factorize only matrices 2 and 0 (in that order) via indices.
        let idx = crate::sorting::upload_indices(&d, &[2, 0]).unwrap();
        let nb = 4;
        let max = 9;
        let mut j = 0;
        while j < max {
            potrf_fused_step(
                &d,
                &batch,
                Uplo::Lower,
                idx.ptr(),
                2,
                max,
                j,
                nb,
                EtmPolicy::Aggressive,
            )
            .unwrap();
            j += nb;
        }
        check_factor(&batch.download_matrix(0), &origs[0], sizes[0]);
        check_factor(&batch.download_matrix(2), &origs[2], sizes[2]);
        // Matrix 1 untouched.
        assert_eq!(batch.download_matrix(1), origs[1]);
    }

    #[test]
    fn aggressive_beats_classic_on_mixed_sizes() {
        let d = dev();
        // Strongly mixed sizes → many idle warps under classic.
        let sizes: Vec<usize> = (0..64).map(|i| if i % 8 == 0 { 256 } else { 16 }).collect();
        let mut times = Vec::new();
        for etm in [EtmPolicy::Classic, EtmPolicy::Aggressive] {
            let mut rng = seeded_rng(11);
            let mut batch = VBatch::<f64>::alloc_square(&d, &sizes).unwrap();
            for (i, &n) in sizes.iter().enumerate() {
                batch
                    .upload_matrix(i, &spd_vec::<f64>(&mut rng, n))
                    .unwrap();
            }
            d.reset_metrics();
            let nb = 8;
            let mut j = 0;
            while j < 256 {
                potrf_fused_step(
                    &d,
                    &batch,
                    Uplo::Lower,
                    DevicePtr::null(),
                    sizes.len(),
                    256,
                    j,
                    nb,
                    etm,
                )
                .unwrap();
                j += nb;
            }
            times.push(d.now());
        }
        assert!(
            times[1] < times[0],
            "aggressive {} should beat classic {}",
            times[1],
            times[0]
        );
    }

    /// A size-sorted mixed window (every order 1..=32, a partial last
    /// group, one non-SPD matrix) through the interleaved launch: the
    /// factors and `info` are the scalar fused tier's bit for bit, and
    /// the simulated clock and energy are the words the window-extent
    /// device-arena version of this kernel produced — the charges are
    /// functions of the window extent, not of how the host stages.
    #[test]
    fn interleaved_window_equals_scalar_tier_and_keeps_the_pinned_clock() {
        use crate::{potrf_vbatched_max, FusedOpts, PotrfOptions, Strategy};
        let sizes: Vec<usize> = (0..37).map(|i| 1 + (i * 32) / 37).collect();
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]) && sizes[36] == 32);
        let upload = |d: &Device| {
            let mut rng = seeded_rng(12);
            let mut batch = VBatch::<f64>::alloc_square(d, &sizes).unwrap();
            for (i, &n) in sizes.iter().enumerate() {
                let mut m = spd_vec::<f64>(&mut rng, n);
                if i == 21 {
                    m[5 + 5 * n] = -3.0; // breaks at column 5 (info 6)
                }
                batch.upload_matrix(i, &m).unwrap();
            }
            batch
        };
        let d = dev();
        let batch = upload(&d);
        d.reset_metrics();
        potrf_interleaved_window(&d, &batch, DevicePtr::null(), sizes.len(), 32).unwrap();
        assert_eq!(
            d.now().to_bits(),
            PINNED_NOW,
            "clock {:#x}",
            d.now().to_bits()
        );
        assert_eq!(
            d.energy_j().to_bits(),
            PINNED_ENERGY,
            "energy {:#x}",
            d.energy_j().to_bits()
        );

        let d2 = dev();
        let mut scalar = upload(&d2);
        let opts = PotrfOptions {
            strategy: Strategy::Fused,
            fused: FusedOpts {
                batched_small: false,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = potrf_vbatched_max(&d2, &mut scalar, 32, &opts).unwrap();
        assert_eq!(batch.read_info(), report.info);
        assert_eq!(report.failures(), vec![(21, 6)]);
        for (i, &n) in sizes.iter().enumerate() {
            let got: Vec<u64> = batch
                .download_matrix(i)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want: Vec<u64> = scalar
                .download_matrix(i)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "matrix {i} (n = {n})");
        }
    }

    /// With the staging tile in host scratch, an interleaved-only run
    /// holds nothing on the device but the batch, its metadata and the
    /// window's index array.
    #[test]
    fn interleaved_run_allocates_only_the_index_array() {
        use crate::{potrf_vbatched_max, PotrfOptions};
        let d = dev();
        let sizes: Vec<usize> = (0..50).map(|i| 1 + (i * 7) % 32).collect();
        let mut rng = seeded_rng(13);
        let mut batch = VBatch::<f64>::alloc_square(&d, &sizes).unwrap();
        for (i, &n) in sizes.iter().enumerate() {
            batch
                .upload_matrix(i, &spd_vec::<f64>(&mut rng, n))
                .unwrap();
        }
        let resident = d.mem_in_use();
        let report = potrf_vbatched_max(&d, &mut batch, 32, &PotrfOptions::default()).unwrap();
        assert!(report.all_ok());
        assert_eq!(d.mem_peak(), resident + sizes.len() * 4);
        assert_eq!(d.mem_in_use(), resident);
    }

    #[test]
    fn feasibility_and_tuning() {
        let d = dev();
        assert!(fused_feasible::<f64>(&d, 512, 8)); // 32 KB
        assert!(!fused_feasible::<f64>(&d, 1024, 8)); // 64 KB > 48 KB
        assert!(fused_feasible::<f32>(&d, 1024, 8)); // 32 KB
        assert!(!fused_feasible::<f64>(&d, 0, 8));
        // Tuned nb: largest panel for tiny sizes, 16 in the mid-range,
        // shrinking with shared memory pressure.
        assert_eq!(tuned_nb::<f64>(&d, 32), 32);
        assert_eq!(tuned_nb::<f64>(&d, 64), 16);
        assert_eq!(tuned_nb::<f64>(&d, 256), 16);
        assert_eq!(tuned_nb::<f64>(&d, 512), 8);
        assert!(tuned_nb::<f64>(&d, 4096) >= 4);
    }

    #[test]
    fn fixed_kernel_rejects_mixed_sizes() {
        let d = dev();
        let mut batch = VBatch::<f64>::alloc_square(&d, &[4, 5]).unwrap();
        assert!(matches!(
            potrf_fused_fixed(&d, &mut batch, Uplo::Lower, 4, 4),
            Err(VbatchError::InvalidArgument(_))
        ));
    }
}
