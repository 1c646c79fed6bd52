//! `potrf_large`, `potrf_small`, `potrf_tiny`: one device, the default
//! options, `upload_matrix` -> `potrf_vbatched_max_ws` ->
//! `download_matrix`. The three differ only in precision and size
//! distribution, which is what routes them to the separated path, the
//! fused step loop and the interleaved tier.

use std::time::Instant;

use vbatch_core::shard::matrix_cost_s;
use vbatch_core::sorting::build_windows;
use vbatch_core::{potrf_vbatched_max_ws, DriverWorkspace, PotrfOptions, VBatch};
use vbatch_dense::gen::{seeded_rng, spd_vec};
use vbatch_dense::{flops, Scalar};
use vbatch_gpu_sim::{Device, DeviceConfig};

use super::{
    chol_ok, interleave_metrics, par_map, potrf_floor_s, profiler_metrics, BatchSpec, Check, Fnv,
    LayerEnv, Metrics, Outcome, Workload,
};
use crate::alloc::allocs;
use crate::trace::Tracer;

pub struct Potrf<T: Scalar> {
    sizes: Vec<usize>,
    mats: Vec<Vec<T>>,
    dev: Device,
    batch: VBatch<T>,
    ws: DriverWorkspace<T>,
    opts: PotrfOptions,
    max_n: usize,
    out: Vec<Vec<T>>,
    info: Vec<i32>,
    threads: usize,
    gen_s: f64,
    /// Host and device allocations of the last pass's driver call.
    driver_allocs: (u64, u64),
}

impl<T: Scalar> Potrf<T> {
    pub fn new(spec: &BatchSpec, seed: u64, threads: usize) -> Self {
        let t = Instant::now();
        let sizes = spec.sizes(seed);
        let mut rng = seeded_rng(spec.matrix_seed(seed));
        let mats: Vec<Vec<T>> = sizes.iter().map(|&n| spd_vec::<T>(&mut rng, n)).collect();
        let gen_s = t.elapsed().as_secs_f64();
        let dev = Device::new(DeviceConfig::k40c());
        let batch = VBatch::<T>::alloc_square(&dev, &sizes).expect("the batch fits a vK40c");
        Self {
            max_n: sizes.iter().copied().max().unwrap_or(0),
            sizes,
            mats,
            dev,
            batch,
            ws: DriverWorkspace::new(),
            opts: PotrfOptions::default(),
            out: Vec::new(),
            info: Vec::new(),
            threads,
            gen_s,
            driver_allocs: (0, 0),
        }
    }
}

impl<T: Scalar> Workload for Potrf<T> {
    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    fn reset(&mut self) {
        self.out.clear();
    }

    fn pass(&mut self, tr: &mut Tracer) {
        self.dev.reset_metrics();
        let open = tr.begin("vbatch-core.batch:upload_matrix");
        for (i, m) in self.mats.iter().enumerate() {
            self.batch
                .upload_matrix(i, m)
                .expect("matrix i has the extent the batch was sized for");
        }
        tr.end_calls(open, self.mats.len());
        let before = (allocs(), self.dev.alloc_count());
        let report = tr
            .span("vbatch-core.driver:potrf_vbatched_max_ws", || {
                potrf_vbatched_max_ws(
                    &self.dev,
                    &mut self.batch,
                    self.max_n,
                    &self.opts,
                    &mut self.ws,
                )
            })
            .expect("fault-free device run");
        self.driver_allocs = (allocs() - before.0, self.dev.alloc_count() - before.1);
        let open = tr.begin("vbatch-core.batch:download_matrix");
        self.out = (0..self.sizes.len())
            .map(|i| self.batch.download_matrix(i))
            .collect();
        tr.end_calls(open, self.sizes.len());
        self.info = report.info;
    }

    fn outcome(&self) -> Outcome {
        vec![
            ("flops", flops::potrf_batch(&self.sizes)),
            ("sim_s", self.dev.now()),
            ("sim_energy_j", self.dev.energy_j()),
        ]
    }

    fn factor_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.mats(&self.out);
        h.ints(self.info.iter().map(|&i| i as u64));
        h.0
    }

    fn check(&mut self) -> Check {
        let mut c = Check::default();
        c.extend(par_map(self.sizes.len(), self.threads, |i| {
            chol_ok(i, self.sizes[i], self.info[i], &self.out[i], &self.mats[i])
        }));
        c
    }

    fn layers(&mut self, env: &LayerEnv<'_>, out: &mut Metrics) {
        let sim_s = env.sim("sim_s");
        let upload_s = env.span_s("vbatch-core.batch:upload_matrix");
        let download_s = env.span_s("vbatch-core.batch:download_matrix");
        let factor_s = env.span_s("vbatch-core.driver:potrf_vbatched_max_ws");
        out.put("batch.upload_s", upload_s);
        out.put("batch.download_s", download_s);
        out.put(
            "batch.transfer_share",
            (upload_s + download_s) / env.pass_wall_s,
        );
        out.put("driver.factor_s", factor_s);
        out.put("driver.sim_gflops", env.sim("flops") / sim_s / 1e9);
        let modelled: f64 = self
            .sizes
            .iter()
            .map(|&n| matrix_cost_s::<T>(self.dev.config(), n))
            .sum();
        out.put("driver.cost_model_error", modelled / sim_s - 1.0);

        out.put("driver.host_allocs_per_pass", self.driver_allocs.0 as f64);
        out.put(
            "gpu-sim.device_allocs_per_pass",
            self.driver_allocs.1 as f64,
        );
        profiler_metrics(&[&self.dev], true, out);
        let blocks = out.get("gpu-sim.blocks").unwrap_or(0.0);
        out.put(
            "gpu-sim.wall_ns_per_block",
            factor_s * 1e9 / blocks.max(1.0),
        );

        let floor_s = potrf_floor_s(&self.sizes, &self.mats);
        out.put("dense.factor.potrf_floor_s", floor_s);
        out.put(
            "driver.overhead_x",
            factor_s / (floor_s / env.threads as f64),
        );
        let cutoff = self.opts.fused.resolved_interleave_cutoff::<T>();
        interleave_metrics(&self.sizes, &self.mats, cutoff, out);

        // `build_windows` on this size mix at the width the fused path's
        // default rule picks (nb * window_factor, widened so a window
        // averages 48 matrices).
        let nb = self
            .opts
            .fused
            .nb
            .unwrap_or_else(|| vbatch_core::fused::tuned_nb::<T>(&self.dev, self.max_n));
        let groups = (self.sizes.len() / 48).max(1);
        let width = (nb * self.opts.fused.window_factor.max(1)).max(self.max_n.div_ceil(groups));
        let t = Instant::now();
        let windows = build_windows(&self.sizes, width);
        out.put("sorting.build_windows_ns", t.elapsed().as_nanos() as f64);
        out.put("sorting.windows", windows.len() as f64);
        let (mut padded, mut useful) = (0.0f64, 0.0f64);
        for w in &windows {
            padded += (w.indices.len() * w.max_size * w.max_size) as f64;
            useful += w
                .indices
                .iter()
                .map(|&i| (self.sizes[i] * self.sizes[i]) as f64)
                .sum::<f64>();
        }
        out.put(
            "sorting.padding_waste_share",
            (padded - useful) / padded.max(1.0),
        );
    }
}
