//! The MAGMA hybrid CPU+GPU baseline (paper §II, §IV-F).
//!
//! Hybrid one-sided factorizations keep the matrix on the GPU, ship each
//! panel to the CPU for factorization (panels parallelize poorly on the
//! GPU), and update the trailing matrix with GPU kernels. For *large*
//! matrices the trailing updates hide the panel/transfer latency; for a
//! batch of small matrices nothing hides anything, so the scheme is
//! dominated by per-matrix transfer + launch latency — exactly why the
//! paper shows it as the worst GPU-side alternative.
//!
//! Matrices are processed **one at a time** ("the GPU can handle one
//! matrix at a time"), each with the blocked right-looking loop.

use vbatch_core::report::{BatchReport, VbatchError};
use vbatch_core::VBatch;
use vbatch_dense::{Diag, Scalar, Side, Trans, Uplo};
use vbatch_gpu_sim::{Device, Dim3, LaunchConfig};

use crate::cpu_model::CpuConfig;
use vbatch_core::kernels::{charge_flops, charge_read, charge_write, mat_mut, mat_ref};
use vbatch_core::kname;

/// Options of the hybrid baseline.
#[derive(Clone, Copy, Debug)]
pub struct HybridOptions {
    /// Panel width (MAGMA-style large blocking).
    pub nb: usize,
}

impl Default for HybridOptions {
    fn default() -> Self {
        Self { nb: 128 }
    }
}

/// Runs the hybrid algorithm over the batch, one matrix at a time.
/// Panel factorization happens "on the CPU" (charged via `cpu`'s
/// multithreaded rate while the device idles), separated by PCIe panel
/// transfers; `trsm` and `syrk` updates run as device kernels.
///
/// # Errors
/// [`VbatchError`] on launch failures.
pub fn potrf_hybrid_serial<T: Scalar>(
    dev: &Device,
    batch: &mut VBatch<T>,
    cpu: &CpuConfig,
    opts: &HybridOptions,
) -> Result<BatchReport, VbatchError> {
    batch.reset_info();
    let nb = opts.nb.max(1);
    let count = batch.count();
    let sizes = batch.cols().to_vec();
    for (i, &n) in sizes.iter().enumerate().take(count) {
        if n == 0 {
            continue;
        }
        let ld = batch.lds()[i];
        let base = batch.d_ptrs().get(i);
        let d_info = batch.d_info();
        let mut j = 0;
        while j < n {
            let jb = nb.min(n - j);
            let rem = n - j;

            // Panel tile → host (PCIe), CPU potf2, tile → device.
            dev.copy_dtoh_bytes(jb * jb * T::BYTES);
            let nf = jb as f64;
            let par_eff = nf / (nf + cpu.cores as f64 * cpu.par_half_n);
            let cpu_rate = cpu.core_rate(jb, T::IS_DOUBLE)
                * cpu.cores as f64
                * par_eff.max(1.0 / cpu.cores as f64);
            let cpu_t = vbatch_dense::flops::potrf(jb) / cpu_rate + cpu.region_overhead_s;
            dev.advance_time(cpu_t, 0.0);
            // The math itself runs in place (the simulation's host and
            // device share memory; the charges above model the shipping).
            let tile = mat_mut(base.offset(j * (ld + 1)), jb, jb, ld);
            if let Err(vbatch_dense::Error::NotPositiveDefinite { column }) =
                vbatch_dense::potf2(Uplo::Lower, tile)
            {
                d_info.set(i, (j + column + 1) as i32);
                break;
            }
            dev.copy_htod_bytes(jb * jb * T::BYTES);

            let trail = rem - jb;
            if trail > 0 {
                // GPU trsm: row tiles of A21 ← A21 · L11⁻ᵀ.
                const TM: usize = 64;
                let tiles = trail.div_ceil(TM) as u32;
                let cfg = LaunchConfig::grid_1d(tiles, 128)
                    .with_shared_mem((TM + nb.min(rem)) * 8 * T::BYTES);
                dev.launch(kname!(T, "hybrid_trsm"), cfg, move |ctx| {
                    let b = ctx.block_idx().x as usize;
                    let r0 = b * TM;
                    if r0 >= trail {
                        ctx.exit_early();
                        return;
                    }
                    let mt = TM.min(trail - r0);
                    let l11 = mat_ref(base.offset(j * (ld + 1)), jb, jb, ld);
                    let rows =
                        mat_mut(base.offset(j * (ld + 1)), rem, jb, ld).sub(jb + r0, 0, mt, jb);
                    vbatch_dense::trsm(
                        Side::Right,
                        Uplo::Lower,
                        Trans::Trans,
                        Diag::NonUnit,
                        T::ONE,
                        l11,
                        rows,
                    );
                    charge_read::<T>(ctx, mt * jb + jb * jb / 2);
                    charge_write::<T>(ctx, mt * jb);
                    charge_flops::<T>(ctx, 128.min(mt), mt as f64 * jb as f64 * jb as f64);
                    ctx.sync();
                })?;

                // GPU syrk: lower tiles of A22 ← A22 − A21·A21ᵀ.
                const TS: usize = 32;
                let t2 = trail.div_ceil(TS) as u32;
                let cfg = LaunchConfig::new(Dim3::xy(t2, t2), Dim3::x(128), 2 * TS * 8 * T::BYTES);
                dev.launch(kname!(T, "hybrid_syrk"), cfg, move |ctx| {
                    let bi = ctx.block_idx().x as usize;
                    let bj = ctx.block_idx().y as usize;
                    let r0 = bi * TS;
                    let c0 = bj * TS;
                    if bi < bj || r0 >= trail || c0 >= trail {
                        ctx.exit_early();
                        return;
                    }
                    let mt = TS.min(trail - r0);
                    let nt = TS.min(trail - c0);
                    let frame = base.offset(j * (ld + 1));
                    let a_bi = mat_ref(frame, rem, jb, ld).sub(jb + r0, 0, mt, jb);
                    let a_bj = mat_ref(frame, rem, jb, ld).sub(jb + c0, 0, nt, jb);
                    if bi == bj {
                        // Stack tile (mt, nt ≤ TS): stages the product so
                        // only the lower triangle is written back, without
                        // heap allocation in the launch body.
                        let mut tmp = [T::ZERO; TS * TS];
                        vbatch_dense::gemm(
                            Trans::NoTrans,
                            Trans::Trans,
                            -T::ONE,
                            a_bi,
                            a_bj,
                            T::ZERO,
                            vbatch_dense::MatMut::from_slice(&mut tmp[..mt * nt], mt, nt, mt),
                        );
                        let mut c = mat_mut(frame, rem, rem, ld).sub(jb + r0, jb + c0, mt, nt);
                        for cc in 0..nt {
                            for rr in cc..mt {
                                let v = c.get(rr, cc) + tmp[rr + cc * mt];
                                c.set(rr, cc, v);
                            }
                        }
                    } else {
                        let c = mat_mut(frame, rem, rem, ld).sub(jb + r0, jb + c0, mt, nt);
                        vbatch_dense::gemm(
                            Trans::NoTrans,
                            Trans::Trans,
                            -T::ONE,
                            a_bi,
                            a_bj,
                            T::ONE,
                            c,
                        );
                    }
                    charge_read::<T>(ctx, (mt + nt) * jb + mt * nt);
                    charge_write::<T>(ctx, mt * nt);
                    charge_flops::<T>(
                        ctx,
                        128.min(mt * nt / 8).max(32),
                        2.0 * mt as f64 * nt as f64 * jb as f64,
                    );
                    ctx.sync();
                })?;
            }
            j += jb;
        }
    }
    dev.copy_dtoh_bytes(count * 4);
    Ok(BatchReport::from_info(batch.read_info()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use vbatch_dense::gen::spd_vec;
    use vbatch_dense::verify::{chol_residual, residual_tol};
    use vbatch_dense::MatRef;
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn hybrid_factorizes_correctly() {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes = [60usize, 7, 200, 130];
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let origs: Vec<Vec<f64>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                let m = spd_vec::<f64>(&mut rng, n);
                batch.upload_matrix(i, &m).unwrap();
                m
            })
            .collect();
        let cpu = CpuConfig::dual_e5_2670();
        let report =
            potrf_hybrid_serial(&dev, &mut batch, &cpu, &HybridOptions { nb: 64 }).unwrap();
        assert!(report.all_ok());
        for (i, &n) in sizes.iter().enumerate() {
            let f = batch.download_matrix(i);
            let r = chol_residual(
                Uplo::Lower,
                MatRef::from_slice(&f, n, n, n),
                MatRef::from_slice(&origs[i], n, n, n),
            );
            assert!(r < residual_tol::<f64>(n), "matrix {i}: residual {r}");
        }
    }

    #[test]
    fn hybrid_much_slower_than_vbatched_on_small_batch() {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes: Vec<usize> = (0..100).map(|i| 8 + (i % 56)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);

        let mut b1 = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        for (i, &n) in sizes.iter().enumerate() {
            b1.upload_matrix(i, &spd_vec::<f64>(&mut rng, n)).unwrap();
        }
        dev.reset_metrics();
        let cpu = CpuConfig::dual_e5_2670();
        potrf_hybrid_serial(&dev, &mut b1, &cpu, &HybridOptions::default()).unwrap();
        let hybrid_t = dev.now();

        let mut b2 = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for (i, &n) in sizes.iter().enumerate() {
            b2.upload_matrix(i, &spd_vec::<f64>(&mut rng, n)).unwrap();
        }
        dev.reset_metrics();
        vbatch_core::potrf_vbatched(&dev, &mut b2, &vbatch_core::PotrfOptions::default()).unwrap();
        let vbatched_t = dev.now();

        assert!(
            hybrid_t > 5.0 * vbatched_t,
            "hybrid {hybrid_t} should be far slower than vbatched {vbatched_t}"
        );
    }

    #[test]
    fn hybrid_reports_non_spd() {
        let dev = Device::new(DeviceConfig::k40c());
        let n = 20;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut bad = spd_vec::<f64>(&mut rng, n);
        bad[5 + 5 * n] = -100.0;
        let mut batch = VBatch::<f64>::alloc_square(&dev, &[n]).unwrap();
        batch.upload_matrix(0, &bad).unwrap();
        let cpu = CpuConfig::dual_e5_2670();
        let report = potrf_hybrid_serial(&dev, &mut batch, &cpu, &HybridOptions { nb: 8 }).unwrap();
        assert_eq!(report.failures(), vec![(0, 6)]);
    }
}
