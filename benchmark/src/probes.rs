//! Workload-independent layer probes, run once per traced run: the
//! host's FMA peak (the roofline every Gflop/s here is a fraction of,
//! measured in the same run on the same host), the level-3 engine at
//! three shapes, and what the simulator charges the host for an empty
//! launch and an empty block.

use std::hint::black_box;
use std::time::Instant;

use vbatch_dense::gen::{rand_mat, seeded_rng};
use vbatch_dense::{flops, gemm, MatMut, MatRef, Scalar, Trans};
use vbatch_gpu_sim::{Device, DeviceConfig, LaunchConfig};

use crate::workloads::Metrics;

/// Best of `reps` timings of `f`: a probe's floor is the number a
/// roofline fraction is meaningful against.
fn best_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Single-thread f64 FMA peak in Gflop/s: ten independent 8-lane
/// accumulators (enough to cover FMA latency on two ports), which the
/// compiler keeps in vector registers under `target-cpu=native`.
fn peak_fma_gflops() -> f64 {
    const ACCS: usize = 10;
    const LANES: usize = 8;
    const ITERS: usize = 2_000_000;
    let x = black_box([1.000_000_1f64; LANES]);
    let y = black_box([1e-9f64; LANES]);
    let secs = best_s(5, || {
        let mut acc = [[1.0f64; LANES]; ACCS];
        for _ in 0..ITERS {
            for a in &mut acc {
                for l in 0..LANES {
                    a[l] = a[l].mul_add(x[l], y[l]);
                }
            }
        }
        black_box(acc);
    });
    (2 * ACCS * LANES * ITERS) as f64 / secs / 1e9
}

/// `gemm` (NoTrans x Trans, the shape the factorizations' updates use)
/// at `m x n x k`, in Gflop/s.
fn gemm_gflops<T: Scalar>(m: usize, n: usize, k: usize) -> f64 {
    let mut rng = seeded_rng(1);
    let a = rand_mat::<T>(&mut rng, m * k);
    let b = rand_mat::<T>(&mut rng, n * k);
    let mut c = vec![T::ZERO; m * n];
    let secs = best_s(20, || {
        gemm(
            Trans::NoTrans,
            Trans::Trans,
            -T::ONE,
            MatRef::from_slice(&a, m, k, m),
            MatRef::from_slice(&b, n, k, n),
            T::ONE,
            MatMut::from_slice(&mut c, m, n, m),
        );
    });
    black_box(&c);
    flops::gemm(m, n, k) / secs / 1e9
}

/// Host nanoseconds of a no-op launch of `blocks` blocks.
fn noop_launch_ns(dev: &Device, blocks: u32) -> f64 {
    best_s(20, || {
        dev.launch("bench_noop", LaunchConfig::grid_1d(blocks, 32), |_| {})
            .expect("a no-op launch is within device limits");
    }) * 1e9
}

/// Bytes past which glibc serves every request by `mmap`, whatever its
/// moving threshold has learnt (`DEFAULT_MMAP_THRESHOLD_MAX` on 64-bit).
const ALWAYS_MMAPPED_BYTES: usize = 32 << 20;

/// The three `gemm` shapes, on a thread of their own.
///
/// `gemm` packs its panels into a thread-local scratch `Vec` that only
/// grows, and where that `Vec` lands decides the result: 64-byte
/// aligned, 256^3 dgemm runs at ~40 Gflop/s here; at any other 16-byte
/// offset every zmm load of a packed panel splits a cache line and it
/// runs at ~26. On the main thread that offset follows the allocation
/// history of the workload that ran before. So the probes get a fresh
/// thread and first size its scratch past the allocator's largest
/// `mmap` threshold: the buffer is then page + 16 bytes in every run.
fn gemm_probes() -> (f64, f64, f64) {
    std::thread::scope(|s| {
        s.spawn(|| {
            f64::with_scratch(ALWAYS_MMAPPED_BYTES / 8 + 1, |_| ());
            f32::with_scratch(ALWAYS_MMAPPED_BYTES / 4 + 1, |_| ());
            (
                gemm_gflops::<f64>(256, 256, 256),
                gemm_gflops::<f64>(256, 256, 64),
                gemm_gflops::<f32>(256, 256, 256),
            )
        })
        .join()
        .expect("gemm probe thread panicked")
    })
}

pub fn run(out: &mut Metrics) {
    let peak = peak_fma_gflops();
    let (dgemm, dgemm_rank64, sgemm) = gemm_probes();
    out.put("dense.peak_fma_gflops", peak);
    out.put("dense.level3.dgemm_gflops_sq256", dgemm);
    out.put("dense.level3.dgemm_gflops_rank64", dgemm_rank64);
    out.put("dense.level3.sgemm_gflops_sq256", sgemm);
    out.put("dense.level3.dgemm_roofline_frac", dgemm / peak);
    // f32 packs twice the lanes of the measured f64 peak.
    out.put("dense.level3.sgemm_roofline_frac", sgemm / (2.0 * peak));
    let dev = Device::new(DeviceConfig::k40c());
    let empty_launch_ns = noop_launch_ns(&dev, 1);
    out.put("gpu-sim.empty_launch_ns", empty_launch_ns);
    out.put(
        "gpu-sim.empty_block_ns",
        (noop_launch_ns(&dev, 3000) - empty_launch_ns).max(0.0) / 3000.0,
    );
}
