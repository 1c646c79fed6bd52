//! Figure 4: fused kernels vs. separated BLAS on *fixed-size* batches —
//! absolute Gflop/s for single and double precision and the relative
//! speedup. The paper reports fusion winning by up to ~13× (SP) / ~7×
//! (DP) at tiny sizes, decaying below 1 at large sizes.

use std::time::Instant;
use vbatch_baselines::padded::potrf_padded_fixed;
use vbatch_bench::{emit_figure, fresh_device, gflops, scaled_count, Series};
use vbatch_core::fused::{fused_feasible, tuned_nb};
use vbatch_core::{potrf_vbatched_max, PotrfOptions, SepOpts, Strategy, VBatch};
use vbatch_dense::gen::seeded_rng;
use vbatch_dense::Scalar;
use vbatch_workload::fill_spd_batch;

/// Simulated seconds for the fused fixed-size kernel.
fn fused_time<T: Scalar>(n: usize, count: usize, seed: u64) -> Option<f64> {
    let dev = fresh_device();
    if !fused_feasible::<T>(&dev, n, tuned_nb::<T>(&dev, n)) {
        return None;
    }
    let mut rng = seeded_rng(seed);
    let sizes = vec![n; count];
    let mut batch = VBatch::<T>::alloc_square(&dev, &sizes).unwrap();
    fill_spd_batch(&mut batch, &sizes, &mut rng);
    dev.reset_metrics();
    potrf_padded_fixed(&dev, &mut batch, n).unwrap();
    Some(dev.now())
}

/// Simulated seconds for the separated-BLAS approach on the same batch.
fn separated_time<T: Scalar>(n: usize, count: usize, seed: u64) -> f64 {
    let dev = fresh_device();
    let mut rng = seeded_rng(seed);
    let sizes = vec![n; count];
    let mut batch = VBatch::<T>::alloc_square(&dev, &sizes).unwrap();
    fill_spd_batch(&mut batch, &sizes, &mut rng);
    dev.reset_metrics();
    // The paper's Fig. 4 baseline is the legacy fixed-size batched
    // design built from generic separated BLAS kernels (Haidar et al.
    // [13]): conventional blocking with an *unblocked* tile potf2
    // (nb_inner = 1 — one column at a time, the left part re-read from
    // global memory every column) and separate trtri/trsm/syrk launches
    // per step.
    let opts = PotrfOptions {
        strategy: Strategy::Separated,
        sep: SepOpts {
            nb_panel: 32,
            nb_inner: 1,
        },
        ..Default::default()
    };
    potrf_vbatched_max(&dev, &mut batch, n, &opts).unwrap();
    dev.now()
}

fn run<T: Scalar>() -> (Series, Series, Series) {
    let mut fused = Series::new(format!("{}fused", T::PREFIX));
    let mut sep = Series::new(format!("{}separated", T::PREFIX));
    let mut speedup = Series::new(format!("{}speedup", T::PREFIX));
    for &n in &[16usize, 32, 64, 96, 128, 192, 256, 384, 512] {
        let count = scaled_count((12288 / n).clamp(48, 512));
        let sizes = vec![n; count];
        let tf = fused_time::<T>(n, count, 11);
        let ts = separated_time::<T>(n, count, 11);
        let gs = gflops(&sizes, ts);
        sep.push(n, gs);
        match tf {
            Some(tf) => {
                fused.push(n, gflops(&sizes, tf));
                speedup.push(n, ts / tf);
            }
            None => {
                fused.push(n, f64::NAN);
                speedup.push(n, f64::NAN);
            }
        }
    }
    (fused, sep, speedup)
}

fn main() {
    let wall = Instant::now();
    let (sf, ss, ssp) = run::<f32>();
    let (df, ds, dsp) = run::<f64>();
    emit_figure(
        "fig04a",
        "Fused vs separated, fixed sizes — single precision (Gflop/s)",
        "N",
        &[sf, ss],
    );
    emit_figure(
        "fig04b",
        "Fused vs separated, fixed sizes — double precision (Gflop/s)",
        "N",
        &[df, ds],
    );
    emit_figure(
        "fig04c",
        "Relative speedup of kernel fusion over separated BLAS",
        "N",
        &[ssp, dsp],
    );
    eprintln!("fig04 done in {:.1}s", wall.elapsed().as_secs_f64());
}
