//! Vbatched panel factorization (paper §III-E1).
//!
//! "This kernel performs the Cholesky factorization as described by the
//! `potf2` routine. In fact, we reuse the fused kernel ... in order to
//! factorize a square panel of size `NB`, where `NB > nb`." One thread
//! block factorizes one matrix's `jb × jb` diagonal tile (`jb =
//! min(NB, rem)`), blocked internally by `nb` with the panel staged in
//! shared memory. The launch covers a [`LiveGrid`] of the matrices with
//! rows left; a broken matrix's block early-terminates (ETM-classic).

use vbatch_dense::{Scalar, Uplo};
use vbatch_gpu_sim::{Device, KernelStats, LaunchConfig};

use crate::batch::BatchView;
use crate::etm::EtmPolicy;
use crate::kernels::{mat_mut, panel_smem_bytes, round_to_warp};
use crate::report::VbatchError;
use crate::sep::LiveGrid;

/// Factorizes the `jb_i × jb_i` leading tile of each matrix of `a`
/// (the step state's view: pointers at `A(j,j)`, `rem_i` rows left),
/// where `jb_i = min(nb_panel, rem_i)`.
///
/// `grid` holds one block per matrix with `rem_i > 0`
/// ([`crate::sep::SepKernel::Potf2`]); `a`'s `info` receives
/// `j + col + 1` on breakdown (`j` = global column offset of this
/// step); broken matrices are skipped.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] on an empty grid;
/// [`VbatchError::Launch`] on launch rejection.
pub(crate) fn potf2_panel_vbatched<T: Scalar>(
    dev: &Device,
    grid: LiveGrid,
    uplo: Uplo,
    a: BatchView<T>,
    nb_panel: usize,
    nb_inner: usize,
    j: usize,
) -> Result<KernelStats, VbatchError> {
    let warp = dev.config().warp_size;
    let threads = round_to_warp(nb_panel, warp).min(dev.config().max_threads_per_block);
    let blocks = grid.launch_blocks("potf2_panel_vbatched: no live matrix")?;
    let cfg = LaunchConfig::grid_1d(blocks, threads)
        .with_shared_mem(panel_smem_bytes::<T>(nb_panel, nb_inner));
    let stats = dev.launch(kname!(T, "potf2_vbatched"), cfg, move |ctx| {
        let (i, _) = grid.locate(ctx);
        let (rem, _, ld) = a.dims(i);
        let jb = rem.min(nb_panel);
        if !EtmPolicy::Classic.apply(ctx, if a.info.get(i) == 0 { jb } else { 0 }) {
            return;
        }
        // Internally blocked left-looking factorization of the tile,
        // reusing the fused step logic.
        let mut jj = 0;
        while jj < jb {
            let tile = mat_mut(a.ptrs.get(i), jb, jb, ld);
            if let Err(col) =
                crate::fused::fused_step_math::<T>(Some(ctx), uplo, tile, jb, jj, nb_inner)
            {
                a.info.set(i, (j + col + 1) as i32);
                return;
            }
            jj += nb_inner;
        }
    })?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aux::StepState;
    use crate::sep::SepKernel;
    use crate::VBatch;
    use vbatch_dense::gen::{seeded_rng, spd_vec};
    use vbatch_dense::verify::{chol_residual, residual_tol};
    use vbatch_dense::{MatRef, Uplo};
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn panel_factorizes_leading_tiles() {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes = [10usize, 40, 0, 25];
        let mut rng = seeded_rng(31);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let origs: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let m = spd_vec::<f64>(&mut rng, n);
                if n > 0 {
                    batch.upload_matrix(i, &m).unwrap();
                }
                m
            })
            .collect();
        let st = StepState::<f64>::alloc(&dev, sizes.len()).unwrap();
        st.update(&dev, batch.view(), 0).unwrap();
        let nb_panel = 16;
        let (grid, _starts) =
            LiveGrid::upload(&dev, SepKernel::Potf2, &sizes, 0, nb_panel).unwrap();
        let stats = potf2_panel_vbatched(
            &dev,
            grid,
            Uplo::Lower,
            st.view(batch.view()),
            nb_panel,
            8,
            0,
        )
        .unwrap();
        // The order-0 matrix owns no block.
        assert_eq!(stats.timing.blocks, 3);
        assert_eq!(stats.timing.early_exit_blocks, 0);
        // Matrix 0 (10 ≤ 16): fully factorized.
        let f0 = batch.download_matrix(0);
        let r = chol_residual(
            Uplo::Lower,
            MatRef::from_slice(&f0, 10, 10, 10),
            MatRef::from_slice(&origs[0], 10, 10, 10),
        );
        assert!(r < residual_tol::<f64>(10), "residual {r}");
        // Matrix 1 (40): only its leading 16×16 tile factorized.
        let f1 = batch.download_matrix(1);
        let lead_orig: Vec<f64> = {
            let m = MatRef::from_slice(&origs[1], 40, 40, 40);
            m.sub(0, 0, 16, 16).to_vec()
        };
        let lead_fact: Vec<f64> = MatRef::from_slice(&f1, 40, 40, 40)
            .sub(0, 0, 16, 16)
            .to_vec();
        let r = chol_residual(
            Uplo::Lower,
            MatRef::from_slice(&lead_fact, 16, 16, 16),
            MatRef::from_slice(&lead_orig, 16, 16, 16),
        );
        assert!(r < residual_tol::<f64>(16), "tile residual {r}");
        // Trailing part untouched.
        assert_eq!(f1[17 + 17 * 40], origs[1][17 + 17 * 40]);
    }

    #[test]
    fn panel_reports_info_with_global_offset() {
        let dev = Device::new(DeviceConfig::k40c());
        let n = 12;
        let mut rng = seeded_rng(32);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &[n]).unwrap();
        let mut bad = spd_vec::<f64>(&mut rng, n);
        bad[2 + 2 * n] = -50.0;
        batch.upload_matrix(0, &bad).unwrap();
        let st = StepState::<f64>::alloc(&dev, 1).unwrap();
        st.update(&dev, batch.view(), 0).unwrap();
        let (grid, _starts) = LiveGrid::upload(&dev, SepKernel::Potf2, &[n], 0, 16).unwrap();
        potf2_panel_vbatched(
            &dev,
            grid,
            Uplo::Lower,
            st.view(batch.view()),
            16,
            4,
            100, // pretend this panel starts at global column 100
        )
        .unwrap();
        assert_eq!(batch.read_info(), vec![103]);
    }
}
