//! The seven workloads and what they share.
//!
//! A workload is built from `--seed` alone (sizes from
//! `workload::SizeDist` under `seeded_rng(seed ^ tag)`), so the program
//! only ever sees generated inputs. Construction is the set-up the
//! harness times: input generation, device/pool/workspace construction
//! and one warm-up pass.

mod host_mixed;
mod lu_qr;
mod potrf;
mod serve_open;
mod shard_hybrid;

use std::time::Instant;

use vbatch_dense::gen::seeded_rng;
use vbatch_dense::interleave;
use vbatch_dense::{MatMut, MatRef, Scalar, Uplo};
use vbatch_gpu_sim::Device;
use vbatch_workload::SizeDist;

use crate::stats::median;
use crate::trace::{Span, Tracer};

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("potrf_large", "f64 Gaussian{512} x256: above the crossover, so separated gemm/syrk/trsm do the work and the interleaved tier does none (paper Fig. 9)"),
    ("potrf_small", "f32 Uniform{128} x3000: fused step loop, implicit sorting and ETM decide simulated time; the only f32 workload (paper Fig. 5)"),
    ("potrf_tiny", "f64 Uniform{32} x20000: all at or below ilv_cutoff, so the interleaved tier and batch upload/download dominate; a gemm gain must not move it"),
    ("lu_qr", "f64 Gaussian{256} x128: getrf on n x n then geqrf on 2n x n, the shared separated BLAS on other factorizations and rectangular shapes"),
    ("host_mixed", "f64 Gaussian{256} x512 potrf then getrf on the multicore host engine: real CPU execution with no simulator in the path"),
    ("shard_hybrid", "f64 Gaussian{384} x512: potrf_sharded on 4 devices then potrf_hybrid on 1 device + host peer; planner, stealing, pools and staging"),
    ("serve_open", "open-loop serving, phases under/fault/over: admission, DRR, windowing, retry and pack/unpack dominate; matrices are small"),
];

/// Bit-exact figures of one pass: simulated clocks, counts, `flops`.
/// The harness requires every pass of a run to return identical bits.
pub type Outcome = Vec<(&'static str, f64)>;

/// Verdict of the correctness gate.
#[derive(Default)]
pub struct Check {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the error message.
    pub notes: Vec<String>,
}

impl Check {
    pub fn record(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(note());
            }
        }
    }

    /// Folds per-operation verdicts produced in parallel.
    pub fn extend(&mut self, verdicts: Vec<Result<(), String>>) {
        for v in verdicts {
            self.record(v.is_ok(), || v.err().unwrap_or_default());
        }
    }
}

/// Named metric values in emission order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_owned(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// What a traced run hands a workload to derive its layer metrics from.
pub struct LayerEnv<'a> {
    pub spans: &'a [Span],
    pub threads: usize,
    /// Median wall seconds of a traced pass.
    pub pass_wall_s: f64,
    /// The outcome every pass returned.
    pub outcome: &'a Outcome,
}

impl LayerEnv<'_> {
    /// Median over traced passes of the seconds the spans named `name`
    /// cover within one pass.
    pub fn span_s(&self, name: &str) -> f64 {
        let mut by_pass = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_pass.entry(s.pass).or_insert(0u64) += s.dur_ns();
        }
        if by_pass.is_empty() {
            return 0.0;
        }
        median(
            &by_pass
                .values()
                .map(|&ns| ns as f64 * 1e-9)
                .collect::<Vec<_>>(),
        )
    }

    pub fn sim(&self, name: &str) -> f64 {
        lookup(self.outcome, name)
    }
}

pub fn lookup(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .iter()
        .find(|(k, _)| *k == name)
        .map_or(0.0, |(_, v)| *v)
}

pub trait Workload {
    /// Seconds this set-up spent generating inputs.
    fn gen_s(&self) -> f64;
    /// Size multiset of the generated inputs (for the seed tests and
    /// the `meta` block).
    fn sizes(&self) -> &[usize];
    /// Untimed: restores in-place inputs and drops the previous pass's
    /// outputs.
    fn reset(&mut self);
    /// One timed pass: inputs in caller `Vec`s to factors or responses
    /// back in caller `Vec`s.
    fn pass(&mut self, tr: &mut Tracer);
    /// Untimed: the bit-exact figures of the pass just run.
    fn outcome(&self) -> Outcome;
    /// Untimed, once per run: bit-exact figures that need runs of their
    /// own (the serving rate sweep).
    fn once(&mut self) -> Outcome {
        Vec::new()
    }
    /// Untimed: FNV-1a over the bits of the pass's outputs.
    fn factor_hash(&self) -> u64;
    /// The correctness gate over the last pass's outputs.
    fn check(&mut self) -> Check;
    /// Traced runs only: this workload's per-layer metrics.
    fn layers(&mut self, env: &LayerEnv<'_>, out: &mut Metrics);
}

/// Size distribution, batch size and seed tag of a batch workload.
#[derive(Clone, Copy)]
pub struct BatchSpec {
    pub dist: SizeDist,
    pub count: usize,
    tag: u64,
}

impl BatchSpec {
    /// The sizes `seed` draws from `seeded_rng(seed ^ tag)`.
    ///
    /// The benchmark's driver changes the seed from run to run and
    /// bounds the spread of each metric across those runs, and a batch
    /// of 128 or 256 independent draws moves simulated Gflop/s by 4-7 %
    /// with the seed alone (the largest order sets the step count). So
    /// the batch is a systematic sample of a pool [`OVERSAMPLE`] times
    /// its size: every `OVERSAMPLE`-th order statistic of the sorted
    /// pool. It still follows the distribution and still differs seed
    /// to seed, with a fraction of the variance.
    ///
    /// The order statistics go back into a random order that is the
    /// workload's own, not the seed's: the simulator hands each host
    /// thread a contiguous run of blocks, so where the large matrices
    /// sit in the batch moves host time by up to 9 % (`lu_qr`), which
    /// would otherwise be read as noise between seeds.
    pub fn sizes(&self, seed: u64) -> Vec<usize> {
        let mut rng = seeded_rng(seed ^ self.tag);
        let mut pool = self.dist.sample_batch(&mut rng, self.count * OVERSAMPLE);
        pool.sort_unstable();
        let mut sizes: Vec<usize> = pool
            .into_iter()
            .skip(OVERSAMPLE / 2)
            .step_by(OVERSAMPLE)
            .collect();
        // Fisher-Yates on a SplitMix64 stream.
        let mut state = self.tag;
        for i in (1..sizes.len()).rev() {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            sizes.swap(i, (z % (i as u64 + 1)) as usize);
        }
        sizes
    }

    /// Seed of the stream that fills the matrices (apart from the size
    /// stream, so sizes can be drawn without generating matrices).
    pub fn matrix_seed(&self, seed: u64) -> u64 {
        (seed ^ self.tag).rotate_left(32) ^ 0x6d61_7472_6978
    }
}

/// Pool size over batch size in [`BatchSpec::sizes`].
const OVERSAMPLE: usize = 16;

/// Seed tag of `serve_open` (its phases derive theirs from it).
const SERVE_TAG: u64 = 0x5e;

fn batch_spec(name: &str) -> Option<BatchSpec> {
    let (dist, count, tag) = match name {
        "potrf_large" => (SizeDist::Gaussian { max: 512 }, 256, 0x1a),
        "potrf_small" => (SizeDist::Uniform { max: 128 }, 3000, 0x5a),
        "potrf_tiny" => (SizeDist::Uniform { max: 32 }, 20000, 0x71),
        "lu_qr" => (SizeDist::Gaussian { max: 256 }, 128, 0x10),
        "host_mixed" => (SizeDist::Gaussian { max: 256 }, 512, 0x40),
        "shard_hybrid" => (SizeDist::Gaussian { max: 384 }, 512, 0x54),
        _ => return None,
    };
    Some(BatchSpec { dist, count, tag })
}

/// The sizes workload `name` generates from `seed`, without building it.
#[cfg(test)]
pub fn sizes_of(name: &str, seed: u64) -> Option<Vec<usize>> {
    match batch_spec(name) {
        Some(spec) => Some(spec.sizes(seed)),
        None if name == "serve_open" => Some(serve_open::request_sizes(seed ^ SERVE_TAG)),
        None => None,
    }
}

/// Builds workload `name` from `seed` and runs its warm-up pass.
pub fn build(name: &str, seed: u64, threads: usize) -> Option<Box<dyn Workload>> {
    let mut w: Box<dyn Workload> = match (name, batch_spec(name)) {
        ("potrf_small", Some(spec)) => Box::new(potrf::Potrf::<f32>::new(&spec, seed, threads)),
        ("potrf_large" | "potrf_tiny", Some(spec)) => {
            Box::new(potrf::Potrf::<f64>::new(&spec, seed, threads))
        }
        ("lu_qr", Some(spec)) => Box::new(lu_qr::LuQr::new(&spec, seed, threads)),
        ("host_mixed", Some(spec)) => Box::new(host_mixed::HostMixed::new(&spec, seed, threads)),
        ("shard_hybrid", Some(spec)) => {
            Box::new(shard_hybrid::ShardHybrid::new(&spec, seed, threads))
        }
        ("serve_open", None) => Box::new(serve_open::ServeOpen::new(seed ^ SERVE_TAG, threads)),
        _ => return None,
    };
    let mut off = Tracer::new(false);
    w.reset();
    w.pass(&mut off);
    Some(w)
}

/// FNV-1a folded over 64-bit words (one multiply per element, so a
/// 150 MB factor set hashes in tens of milliseconds between passes).
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn mats<T: Scalar>(&mut self, mats: &[Vec<T>]) {
        for m in mats {
            self.word(m.len() as u64);
            for v in m {
                self.word(v.to_f64().to_bits());
            }
        }
    }

    pub fn ints(&mut self, v: impl IntoIterator<Item = u64>) {
        for x in v {
            self.word(x);
        }
    }
}

pub fn bits_equal<T: Scalar>(a: &[Vec<T>], b: &[Vec<T>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|(p, q)| p.to_f64().to_bits() == q.to_f64().to_bits())
        })
}

/// Runs `f(i)` for `i in 0..n` on `threads` scoped threads (the gate's
/// naive reference products are the slowest untimed step).
pub fn par_map<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let threads = threads.clamp(1, n.max(1));
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                s.spawn(move || (t..n).step_by(threads).map(|i| (i, f(i))).collect())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gate worker panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = parts.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Gate for one Cholesky factor: `info == 0` and scaled residual within
/// `verify::residual_tol`.
pub fn chol_ok<T: Scalar>(i: usize, n: usize, info: i32, f: &[T], a: &[T]) -> Result<(), String> {
    if info != 0 {
        return Err(format!("potrf matrix {i} (n={n}): info {info}"));
    }
    if n == 0 {
        return Ok(());
    }
    let r = vbatch_dense::verify::chol_residual(
        Uplo::Lower,
        MatRef::from_slice(f, n, n, n),
        MatRef::from_slice(a, n, n, n),
    );
    let tol = vbatch_dense::verify::residual_tol::<T>(n);
    if r.is_finite() && r <= tol {
        Ok(())
    } else {
        Err(format!(
            "potrf matrix {i} (n={n}): residual {r:e} > {tol:e}"
        ))
    }
}

/// Gate for one LU factor.
pub fn lu_ok<T: Scalar>(
    i: usize,
    n: usize,
    info: i32,
    f: &[T],
    piv: &[usize],
    a: &[T],
) -> Result<(), String> {
    if info != 0 {
        return Err(format!("getrf matrix {i} (n={n}): info {info}"));
    }
    if n == 0 {
        return Ok(());
    }
    let r = vbatch_dense::verify::lu_residual(
        MatRef::from_slice(f, n, n, n),
        piv,
        MatRef::from_slice(a, n, n, n),
    );
    let tol = vbatch_dense::verify::residual_tol::<T>(n);
    if r.is_finite() && r <= tol {
        Ok(())
    } else {
        Err(format!(
            "getrf matrix {i} (n={n}): residual {r:e} > {tol:e}"
        ))
    }
}

/// Median seconds of `reps` runs of `f`; what `f` returns is dropped
/// after the clock stops.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let r = f();
            let dt = t.elapsed().as_secs_f64();
            drop(r);
            dt
        })
        .collect();
    median(&samples)
}

/// Serial single-thread `potrf_blocked` over copies of `mats`: the
/// plain baseline the drivers' host time is compared with.
pub fn potrf_floor_s<T: Scalar>(sizes: &[usize], mats: &[Vec<T>]) -> f64 {
    let mut work: Vec<Vec<T>> = mats.to_vec();
    time_median(3, || {
        for ((w, m), &n) in work.iter_mut().zip(mats).zip(sizes) {
            w.copy_from_slice(m);
            if n > 0 {
                vbatch_dense::potrf_blocked(Uplo::Lower, MatMut::from_slice(w, n, n, n), 64)
                    .expect("SPD input factors");
            }
        }
    })
}

/// Serial single-thread `getrf` (nb 64) over copies of `mats`.
pub fn getrf_floor_s(sizes: &[usize], mats: &[Vec<f64>]) -> f64 {
    let mut work: Vec<Vec<f64>> = mats.to_vec();
    let mut piv = vec![0usize; sizes.iter().copied().max().unwrap_or(0)];
    time_median(3, || {
        for ((w, m), &n) in work.iter_mut().zip(mats).zip(sizes) {
            w.copy_from_slice(m);
            if n > 0 {
                vbatch_dense::getrf(MatMut::from_slice(w, n, n, n), &mut piv, 64)
                    .expect("diagonally dominant input factors");
            }
        }
    })
}

/// `dense.interleave.*`: the matrices at or below `cutoff`, sorted by
/// size and grouped `lane_count` at a time like the drivers do, through
/// `pack_lanes` + `potrf_lanes` + `unpack_lane` (the variable-size forms
/// of `pack_group`/`potrf_group`/`unpack_group`). Emits nothing when no
/// matrix qualifies.
pub fn interleave_metrics<T: Scalar>(
    sizes: &[usize],
    mats: &[Vec<T>],
    cutoff: usize,
    out: &mut Metrics,
) {
    let lanes = interleave::lane_count::<T>();
    let mut small: Vec<usize> = (0..sizes.len())
        .filter(|&i| sizes[i] > 0 && sizes[i] <= cutoff)
        .collect();
    if small.is_empty() {
        return;
    }
    small.sort_by_key(|&i| (sizes[i], i));
    let mut tile = vec![T::ZERO; interleave::interleaved_len(cutoff, cutoff, lanes)];
    let mut dst: Vec<Vec<T>> = small.iter().map(|&i| mats[i].clone()).collect();
    let (mut useful, mut attempted) = (0.0f64, 0.0f64);
    for group in small.chunks(lanes) {
        let wmax = sizes[*group.last().expect("chunks are non-empty")];
        useful += group
            .iter()
            .map(|&i| (sizes[i] * sizes[i]) as f64)
            .sum::<f64>();
        attempted += (lanes * wmax * wmax) as f64;
    }
    let (mut pack_ns, mut total_s) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let mut pack = 0u64;
        let t_all = Instant::now();
        for (g, group) in small.chunks(lanes).enumerate() {
            let wmax = sizes[*group.last().expect("chunks are non-empty")];
            let ns: Vec<usize> = group.iter().map(|&i| sizes[i]).collect();
            let mut infos = vec![0i32; group.len()];
            let t = Instant::now();
            let srcs: Vec<MatRef<'_, T>> = group
                .iter()
                .map(|&i| MatRef::from_slice(&mats[i], sizes[i], sizes[i], sizes[i]))
                .collect();
            interleave::pack_lanes(wmax, wmax, &srcs, &mut tile);
            pack += t.elapsed().as_nanos() as u64;
            interleave::potrf_lanes(&mut tile, wmax, &ns, &mut infos);
            assert!(
                infos.iter().all(|&i| i == 0),
                "interleaved potrf broke down"
            );
            let t = Instant::now();
            for (l, &n) in ns.iter().enumerate() {
                let d = &mut dst[g * lanes + l];
                interleave::unpack_lane(&tile, wmax, l, MatMut::from_slice(d, n, n, n));
            }
            pack += t.elapsed().as_nanos() as u64;
        }
        total_s.push(t_all.elapsed().as_secs_f64());
        pack_ns.push(pack as f64 * 1e-9);
    }
    let total = median(&total_s);
    out.put("dense.interleave.potrf_s", total);
    out.put("dense.interleave.pack_share", median(&pack_ns) / total);
    out.put("dense.interleave.lane_fill", useful / attempted);
}

/// `gpu-sim.*` counts and simulated shares from the device profilers
/// after one pass; with `shares`, also the `driver.sim_share.*` split of
/// kernel time by Cholesky kernel family.
pub fn profiler_metrics(devs: &[&Device], shares: bool, out: &mut Metrics) {
    let (mut launches, mut blocks, mut early, mut kernel_s, mut overhead_s) =
        (0u64, 0u64, 0u64, 0.0f64, 0.0f64);
    let families = ["fused", "ilv", "potf2", "trsm", "trtri", "syrk", "aux"];
    let mut family_s = [0.0f64; 7];
    for dev in devs {
        overhead_s += dev.launch_count() as f64 * dev.launch_overhead_s();
        dev.with_profiler(|p| {
            for (name, e) in p.sorted_by_time() {
                launches += e.launches;
                blocks += e.blocks;
                early += e.early_exit_blocks;
                kernel_s += e.time_s;
                if let Some(k) = families.iter().position(|f| name.contains(f)) {
                    family_s[k] += e.time_s;
                }
            }
        });
    }
    let clock_s: f64 = devs.iter().map(|d| d.now()).sum();
    let mem_peak = devs.iter().map(|d| d.mem_peak()).max().unwrap_or(0);
    out.put("gpu-sim.launches", launches as f64);
    out.put("gpu-sim.blocks", blocks as f64);
    out.put(
        "gpu-sim.early_exit_block_share",
        early as f64 / (blocks as f64).max(1.0),
    );
    out.put("gpu-sim.launch_overhead_sim_s", overhead_s);
    // What the device clocks were charged beyond kernels: PCIe copies
    // (info read-back, sort-index uploads, staging) and modelled waits.
    out.put("gpu-sim.transfer_sim_s", (clock_s - kernel_s).max(0.0));
    out.put("gpu-sim.mem_peak_mb", mem_peak as f64 / (1 << 20) as f64);
    if shares {
        for (f, s) in families.iter().zip(family_s) {
            out.put(
                &format!("driver.sim_share.{f}"),
                s / kernel_s.max(f64::MIN_POSITIVE),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn multiset(name: &str, seed: u64) -> Vec<usize> {
        let mut v = sizes_of(name, seed).expect("a known workload");
        v.sort_unstable();
        v
    }

    #[test]
    fn sizes_are_a_function_of_the_seed_alone() {
        for &(name, _) in WORKLOADS {
            assert_eq!(multiset(name, 2016), multiset(name, 2016), "{name}");
            assert_ne!(multiset(name, 2016), multiset(name, 7), "{name}");
        }
        assert!(sizes_of("nope", 1).is_none());
    }

    #[test]
    fn workloads_draw_from_separate_streams() {
        // host_mixed and lu_qr share a distribution; their tags keep one
        // seed from handing them the same draws.
        let (a, b) = (
            sizes_of("lu_qr", 5).unwrap(),
            sizes_of("host_mixed", 5).unwrap(),
        );
        assert_ne!(a[..], b[..a.len()]);
    }

    #[test]
    fn par_map_keeps_index_order() {
        assert_eq!(par_map(7, 3, |i| i * i), vec![0, 1, 4, 9, 16, 25, 36]);
        assert_eq!(par_map(0, 2, |i| i), Vec::<usize>::new());
    }
}
