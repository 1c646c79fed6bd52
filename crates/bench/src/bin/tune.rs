//! Host autotuner for the dense engine's runtime tile schemes.
//!
//! Searches the blocked tier's `(MR, NR, MC, KC)` space and the
//! batched-small tier's interleave cutoff per precision with a
//! coarse-to-fine sweep: first the register tile `(MR, NR)` among the
//! shapes the microkernel dispatcher actually backs (at the default
//! cache blocking), then the cache blocking `(MC, KC)` under the winning
//! register tile, then a per-matrix-vs-interleaved A/B for the cutoff:
//! `potf2` one matrix at a time against the lane groups the driver runs
//! (`interleave::potrf_lanes_in_place`). **Every candidate is validated
//! against an oracle** — the naive tier before a gemm scheme is timed,
//! `potf2` bit-for-bit for every interleaved factor — so a path that
//! produces wrong numbers can never win.
//!
//! The winner is written to `TUNE.json` (see `--out`) together with the
//! host's CPU feature set; `TileScheme::load()` picks the file up at
//! startup and falls back to the built-in defaults when it is absent,
//! malformed, or recorded on a host with different CPU features.
//!
//! ```text
//! cargo tune                         # alias, writes ./TUNE.json
//! cargo run --release -p vbatch-bench --bin tune -- --out TUNE.json
//! VBATCH_TUNE_BUDGET=smoke cargo run --release -p vbatch-bench --bin tune
//! ```
//!
//! `VBATCH_TUNE_BUDGET=smoke` shrinks sizes, grids and timing budgets to
//! a few seconds total for CI; its output is schema-valid but its
//! numbers are not a real tuning (do not commit them).

use std::time::Instant;

use vbatch_dense::gen::{rand_mat, seeded_rng, spd_vec};
use vbatch_dense::level3::tier;
use vbatch_dense::tune::{CpuFeatures, TileScheme};
use vbatch_dense::{flops, interleave, naive, potf2, MatMut, MatRef, Scalar, Trans, Uplo};

/// Sweep sizing: one knob object so the smoke profile cannot drift from
/// the real one structurally.
struct Profile {
    /// Seconds of repeat-timing per measurement.
    budget: f64,
    /// Square size for the register-tile (coarse) stage.
    n_coarse: usize,
    /// Square size for the cache-blocking (fine) stage.
    n_fine: usize,
    /// `MC` grid (rounded up to the winning `MR` later).
    mcs: &'static [usize],
    /// `KC` grid.
    kcs: &'static [usize],
    /// Orders probed for the interleave cutoff.
    cutoff_ns: &'static [usize],
    /// Batch count for the cutoff A/B (multiple of every lane width).
    cutoff_batch: usize,
}

const FULL: Profile = Profile {
    budget: 0.2,
    n_coarse: 256,
    n_fine: 512,
    mcs: &[32, 64, 128, 256],
    kcs: &[128, 256, 512],
    cutoff_ns: &[4, 8, 16, 24, 32],
    cutoff_batch: 512,
};

const SMOKE: Profile = Profile {
    budget: 0.02,
    n_coarse: 64,
    n_fine: 96,
    mcs: &[32, 64],
    kcs: &[128, 256],
    cutoff_ns: &[4, 8],
    cutoff_batch: 64,
};

/// Best (minimum) single-run seconds of `f` within a time budget.
fn time_best(budget: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut runs = 0;
    while spent < budget || runs < 3 {
        let t = Instant::now();
        f();
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        spent += dt;
        runs += 1;
        if runs >= 200 {
            break;
        }
    }
    best
}

/// Oracle gate: the candidate scheme must reproduce the naive tier on a
/// deliberately awkward shape (odd dims, partial tiles in every
/// direction, nontrivial alpha/beta) before it may be timed.
fn oracle_ok<T: Scalar>(ts: &TileScheme) -> bool {
    if ts.validate().is_err() {
        return false;
    }
    let (m, n, k) = (67usize, 45usize, 52usize);
    let mut rng = seeded_rng(41);
    let a = rand_mat::<T>(&mut rng, m * k);
    let b = rand_mat::<T>(&mut rng, n * k); // NT: B is n×k, op(B) = Bᵀ
    let c0 = rand_mat::<T>(&mut rng, m * n);
    let alpha = T::from_f64(1.5);
    let beta = T::from_f64(-0.5);
    let mut c = c0.clone();
    tier::gemm_blocked_scheme(
        ts,
        Trans::NoTrans,
        Trans::Trans,
        alpha,
        MatRef::from_slice(&a, m, k, m),
        MatRef::from_slice(&b, n, k, n),
        beta,
        MatMut::from_slice(&mut c, m, n, m),
    );
    let want = naive::gemm_ref(
        Trans::NoTrans,
        Trans::Trans,
        alpha,
        &a,
        m,
        k,
        &b,
        n,
        k,
        beta,
        &c0,
        m,
        n,
    );
    let tol = if T::IS_DOUBLE { 1e-9 } else { 1e-2 };
    c.iter()
        .zip(&want)
        .all(|(&g, &w)| (g.to_f64() - w.to_f64()).abs() <= tol)
}

/// Times the candidate on a square NT `gemm` and returns Gflop/s, or
/// `None` when the scheme is invalid or fails the oracle.
fn eval_scheme<T: Scalar>(ts: &TileScheme, n: usize, budget: f64) -> Option<f64> {
    if !oracle_ok::<T>(ts) {
        return None;
    }
    let mut rng = seeded_rng(42);
    let a = rand_mat::<T>(&mut rng, n * n);
    let b = rand_mat::<T>(&mut rng, n * n);
    let mut c = vec![T::ZERO; n * n];
    let one = T::ONE;
    let secs = time_best(budget, || {
        tier::gemm_blocked_scheme(
            ts,
            Trans::NoTrans,
            Trans::Trans,
            -one,
            MatRef::from_slice(&a, n, n, n),
            MatRef::from_slice(&b, n, n, n),
            one,
            MatMut::from_slice(&mut c, n, n, n),
        );
    });
    Some(flops::gemm(n, n, n) / 1e9 / secs)
}

/// Coarse-to-fine sweep for one precision's blocked-gemm scheme.
fn tune_gemm<T: Scalar>(p: &Profile) -> TileScheme {
    // Register tiles the microkernel dispatcher actually backs. Shapes
    // needing AVX-512 still run (through the portable fallback) on
    // narrower hosts — the sweep simply measures them slower and they
    // lose; no special-casing needed.
    let shapes: &[(usize, usize)] = if T::IS_DOUBLE {
        &[(8, 4), (16, 4), (8, 8)]
    } else {
        &[(8, 4), (16, 4), (16, 8)]
    };
    let mut best = TileScheme::DEFAULT;
    let mut best_gf = 0.0f64;
    eprintln!(
        "  [{}] coarse: register tile at n = {}",
        T::PREFIX,
        p.n_coarse
    );
    for &(mr, nr) in shapes {
        let ts = TileScheme {
            mr,
            nr,
            mc: TileScheme::DEFAULT.mc.div_ceil(mr) * mr,
            ..TileScheme::DEFAULT
        };
        match eval_scheme::<T>(&ts, p.n_coarse, p.budget) {
            Some(gf) => {
                eprintln!("    mr={mr:2} nr={nr}: {gf:8.2} Gflop/s");
                if gf > best_gf {
                    best_gf = gf;
                    best = ts;
                }
            }
            None => eprintln!("    mr={mr:2} nr={nr}: rejected (oracle/validation)"),
        }
    }
    eprintln!(
        "  [{}] fine: cache blocking at n = {} (mr={} nr={})",
        T::PREFIX,
        p.n_fine,
        best.mr,
        best.nr
    );
    let mut fine = best;
    let mut fine_gf = 0.0f64;
    for &mc in p.mcs {
        for &kc in p.kcs {
            let ts = TileScheme {
                mc: mc.div_ceil(best.mr) * best.mr,
                kc,
                ..best
            };
            match eval_scheme::<T>(&ts, p.n_fine, p.budget) {
                Some(gf) => {
                    eprintln!("    mc={:3} kc={kc:3}: {gf:8.2} Gflop/s", ts.mc);
                    if gf > fine_gf {
                        fine_gf = gf;
                        fine = ts;
                    }
                }
                None => eprintln!("    mc={mc:3} kc={kc:3}: rejected (oracle/validation)"),
            }
        }
    }
    fine
}

/// A/B of the batched-small paths: per-matrix `potf2` versus the lane
/// groups the driver runs, `interleave::potrf_lanes_in_place` over
/// consecutive `lane_count` chunks of the batch. Returns the largest
/// probed order at which the interleaved path wins — the window router
/// sends `wmax ≤ cutoff` through it. Every interleaved result is
/// oracle-checked against `potf2` bit-for-bit as it goes (the kernels
/// carry that contract; a mismatch aborts the tuner).
fn tune_cutoff<T: Scalar>(p: &Profile) -> usize {
    let mut cutoff = 1;
    let lanes = interleave::lane_count::<T>();
    eprintln!("  [{}] interleave cutoff A/B", T::PREFIX);
    for &n in p.cutoff_ns {
        let batch = p.cutoff_batch;
        let mut rng = seeded_rng(43);
        let mut pristine = Vec::with_capacity(batch * n * n);
        for _ in 0..batch {
            pristine.extend_from_slice(&spd_vec::<T>(&mut rng, n));
        }
        let mut work = pristine.clone();
        let per_matrix = time_best(p.budget, || {
            for (w, s) in work
                .chunks_exact_mut(n * n)
                .zip(pristine.chunks_exact(n * n))
            {
                w.copy_from_slice(s);
                potf2(Uplo::Lower, MatMut::from_slice(w, n, n, n)).unwrap();
            }
        });
        let oracle = work.clone();
        let mut infos = vec![0i32; batch];
        let interleaved = time_best(p.budget, || {
            work.copy_from_slice(&pristine);
            let mut mats = Vec::with_capacity(lanes);
            for (group, inf) in work.chunks_mut(lanes * n * n).zip(infos.chunks_mut(lanes)) {
                mats.clear();
                mats.extend(
                    group
                        .chunks_exact_mut(n * n)
                        .map(|a| MatMut::from_slice(a, n, n, n)),
                );
                interleave::potrf_lanes_in_place(&mut mats, inf);
            }
        });
        assert!(infos.iter().all(|&i| i == 0), "SPD batch must not break");
        // The lane path leaves the strict upper triangle as `potf2` does,
        // so whole matrices compare.
        let diverged = work
            .chunks_exact(n * n)
            .zip(oracle.chunks_exact(n * n))
            .position(|(g, w)| {
                g.iter()
                    .zip(w)
                    .any(|(a, b)| a.to_f64().to_bits() != b.to_f64().to_bits())
            });
        assert!(
            diverged.is_none(),
            "interleaved lane diverged from potf2 (matrix {diverged:?}, n={n})"
        );
        let wins = interleaved <= per_matrix;
        eprintln!(
            "    n={n:2}: per-matrix {:9.3e}s | interleaved {:9.3e}s {}",
            per_matrix,
            interleaved,
            if wins { "(interleaved wins)" } else { "" }
        );
        if wins {
            cutoff = cutoff.max(n);
        }
    }
    cutoff
}

fn tune_precision<T: Scalar>(p: &Profile) -> TileScheme {
    let mut ts = tune_gemm::<T>(p);
    ts.ilv_cutoff = tune_cutoff::<T>(p);
    assert!(
        ts.validate().is_ok(),
        "tuner produced an invalid scheme: {ts:?}"
    );
    eprintln!(
        "  [{}] winner: mr={} nr={} mc={} kc={} ilv_cutoff={}",
        T::PREFIX,
        ts.mr,
        ts.nr,
        ts.mc,
        ts.kc,
        ts.ilv_cutoff
    );
    ts
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut out = String::from("TUNE.json");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other} (usage: tune [--out PATH])");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let smoke = std::env::var("VBATCH_TUNE_BUDGET").is_ok_and(|v| v == "smoke");
    let p = if smoke { &SMOKE } else { &FULL };
    let cpu = CpuFeatures::detect();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "tuning on: avx2={} fma={} avx512f={} avx512vl={} cores={}{}",
        cpu.avx2,
        cpu.fma,
        cpu.avx512f,
        cpu.avx512vl,
        cores,
        if smoke { " (smoke budget)" } else { "" }
    );
    let wall = Instant::now();
    let f64_scheme = tune_precision::<f64>(p);
    let f32_scheme = tune_precision::<f32>(p);
    let json = vbatch_dense::tune::render_tune_json(&cpu, cores, &f64_scheme, &f32_scheme);
    std::fs::write(&out, &json).expect("write TUNE.json");
    eprintln!("wrote {out} in {:.1}s", wall.elapsed().as_secs_f64());
}
