//! `lu_qr`: `getrf_vbatched_ws` on n x n, then `geqrf_vbatched_ws` on
//! 2n x n, sharing one device and one `DriverWorkspace`. A potrf-only
//! gain that costs LU or QR shows here.

use std::time::Instant;

use vbatch_core::qr::{geqrf_vbatched_ws, GeqrfOptions};
use vbatch_core::{getrf_vbatched_ws, DriverWorkspace, GetrfOptions, VBatch};
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng};
use vbatch_dense::verify::{fro_norm_slice, qr_residual, residual_tol};
use vbatch_dense::{flops, larf_left, MatMut, MatRef};
use vbatch_gpu_sim::{Device, DeviceConfig};

use super::{
    getrf_floor_s, lu_ok, par_map, profiler_metrics, time_median, BatchSpec, Check, Fnv, LayerEnv,
    Metrics, Outcome, Workload,
};
use crate::trace::Tracer;

pub struct LuQr {
    sizes: Vec<usize>,
    lu_in: Vec<Vec<f64>>,
    qr_in: Vec<Vec<f64>>,
    dev: Device,
    lu_batch: VBatch<f64>,
    qr_batch: VBatch<f64>,
    ws: DriverWorkspace<f64>,
    lu_out: Vec<Vec<f64>>,
    piv_out: Vec<Vec<usize>>,
    qr_out: Vec<Vec<f64>>,
    tau_out: Vec<Vec<f64>>,
    info: Vec<i32>,
    /// Simulated seconds and joules at the end of the LU phase.
    lu_sim: (f64, f64),
    dev_allocs: u64,
    threads: usize,
    gen_s: f64,
}

impl LuQr {
    pub fn new(spec: &BatchSpec, seed: u64, threads: usize) -> Self {
        let t = Instant::now();
        let sizes = spec.sizes(seed);
        let mut rng = seeded_rng(spec.matrix_seed(seed));
        let lu_in: Vec<Vec<f64>> = sizes
            .iter()
            .map(|&n| diag_dominant_vec(&mut rng, n, n))
            .collect();
        let qr_in: Vec<Vec<f64>> = sizes
            .iter()
            .map(|&n| diag_dominant_vec(&mut rng, 2 * n, n))
            .collect();
        let gen_s = t.elapsed().as_secs_f64();
        let dev = Device::new(DeviceConfig::k40c());
        let tall: Vec<(usize, usize)> = sizes.iter().map(|&n| (2 * n, n)).collect();
        Self {
            lu_batch: VBatch::alloc_square(&dev, &sizes).expect("the LU batch fits a vK40c"),
            qr_batch: VBatch::alloc(&dev, &tall).expect("the QR batch fits a vK40c"),
            sizes,
            lu_in,
            qr_in,
            dev,
            ws: DriverWorkspace::new(),
            lu_out: Vec::new(),
            piv_out: Vec::new(),
            qr_out: Vec::new(),
            tau_out: Vec::new(),
            info: Vec::new(),
            lu_sim: (0.0, 0.0),
            dev_allocs: 0,
            threads,
            gen_s,
        }
    }

    fn lu_flops(&self) -> f64 {
        self.sizes.iter().map(|&n| flops::getrf(n, n)).sum()
    }

    fn qr_flops(&self) -> f64 {
        self.sizes.iter().map(|&n| flops::geqrf(2 * n, n)).sum()
    }
}

/// Gate for one QR factor without forming Q: rebuild `A` as
/// `H_0 .. H_{k-1} [R; 0]` with `larf_left` (O(mnk), so every matrix is
/// checked on every run) and require each reflector to be orthogonal,
/// `tau (1 + |v|^2) = 2`.
fn qr_ok(i: usize, n: usize, f: &[f64], tau: &[f64], a: &[f64]) -> Result<(), String> {
    let m = 2 * n;
    if n == 0 {
        return Ok(());
    }
    let fac = MatRef::from_slice(f, m, n, m);
    let mut c = vec![0.0f64; m * n];
    for j in 0..n {
        c[j * m..j * m + j + 1].copy_from_slice(&f[j * m..j * m + j + 1]);
    }
    for j in (0..n).rev() {
        let v = fac.sub(j + 1, j, m - j - 1, 1);
        let vv: f64 = v.col_as_slice(0).iter().map(|x| x * x).sum();
        if tau[j] != 0.0 && (tau[j] * (1.0 + vv) - 2.0).abs() > 64.0 * f64::EPSILON {
            return Err(format!("geqrf matrix {i}: reflector {j} is not orthogonal"));
        }
        larf_left(
            v,
            tau[j],
            MatMut::from_slice(&mut c, m, n, m).sub(j, j, m - j, n - j),
        );
    }
    let diff: f64 = c.iter().zip(a).map(|(x, y)| (x - y) * (x - y)).sum();
    let r = diff.sqrt() / (m as f64 * fro_norm_slice(a).max(f64::MIN_POSITIVE));
    let tol = residual_tol::<f64>(n);
    if r.is_finite() && r <= tol {
        Ok(())
    } else {
        Err(format!(
            "geqrf matrix {i} ({m}x{n}): residual {r:e} > {tol:e}"
        ))
    }
}

impl Workload for LuQr {
    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    fn reset(&mut self) {
        self.lu_out.clear();
        self.piv_out.clear();
        self.qr_out.clear();
        self.tau_out.clear();
    }

    fn pass(&mut self, tr: &mut Tracer) {
        let count = self.sizes.len();
        let allocs0 = self.dev.alloc_count();
        self.dev.reset_metrics();

        let open = tr.begin("vbatch-core.batch:upload_matrix");
        for (i, m) in self.lu_in.iter().enumerate() {
            self.lu_batch
                .upload_matrix(i, m)
                .expect("LU extent matches");
        }
        tr.end_calls(open, count);
        let (report, pivots) = tr
            .span("vbatch-core.lu:getrf_vbatched_ws", || {
                getrf_vbatched_ws(
                    &self.dev,
                    &mut self.lu_batch,
                    &GetrfOptions::default(),
                    &mut self.ws,
                )
            })
            .expect("fault-free device run");
        let open = tr.begin("vbatch-core.batch:download_matrix");
        self.lu_out = (0..count)
            .map(|i| self.lu_batch.download_matrix(i))
            .collect();
        tr.end_calls(open, count);
        let open = tr.begin("vbatch-core.lu:PivotArray::download");
        self.piv_out = (0..count)
            .map(|i| pivots.download(i, self.sizes[i]))
            .collect();
        tr.end_calls(open, count);
        self.info = report.info;
        self.lu_sim = (self.dev.now(), self.dev.energy_j());

        let open = tr.begin("vbatch-core.batch:upload_matrix");
        for (i, m) in self.qr_in.iter().enumerate() {
            self.qr_batch
                .upload_matrix(i, m)
                .expect("QR extent matches");
        }
        tr.end_calls(open, count);
        let (report, tau) = tr
            .span("vbatch-core.qr:geqrf_vbatched_ws", || {
                geqrf_vbatched_ws(
                    &self.dev,
                    &mut self.qr_batch,
                    &GeqrfOptions::default(),
                    &mut self.ws,
                )
            })
            .expect("fault-free device run");
        let open = tr.begin("vbatch-core.batch:download_matrix");
        self.qr_out = (0..count)
            .map(|i| self.qr_batch.download_matrix(i))
            .collect();
        tr.end_calls(open, count);
        let open = tr.begin("vbatch-core.qr:TauArray::download");
        self.tau_out = (0..count).map(|i| tau.download(i, self.sizes[i])).collect();
        tr.end_calls(open, count);
        self.info.extend(report.info);
        self.dev_allocs = self.dev.alloc_count() - allocs0;
    }

    fn outcome(&self) -> Outcome {
        vec![
            ("flops", self.lu_flops() + self.qr_flops()),
            ("sim_s", self.dev.now()),
            ("sim_energy_j", self.dev.energy_j()),
            ("lu.sim_s", self.lu_sim.0),
            ("qr.sim_s", self.dev.now() - self.lu_sim.0),
        ]
    }

    fn factor_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.mats(&self.lu_out);
        h.mats(&self.qr_out);
        h.mats(&self.tau_out);
        h.ints(self.piv_out.iter().flatten().map(|&p| p as u64));
        h.ints(self.info.iter().map(|&i| i as u64));
        h.0
    }

    fn check(&mut self) -> Check {
        let count = self.sizes.len();
        let mut c = Check::default();
        c.extend(par_map(count, self.threads, |i| {
            lu_ok(
                i,
                self.sizes[i],
                self.info[i],
                &self.lu_out[i],
                &self.piv_out[i],
                &self.lu_in[i],
            )
        }));
        c.extend(par_map(count, self.threads, |i| {
            if self.info[count + i] != 0 {
                return Err(format!("geqrf matrix {i}: info {}", self.info[count + i]));
            }
            qr_ok(
                i,
                self.sizes[i],
                &self.qr_out[i],
                &self.tau_out[i],
                &self.qr_in[i],
            )
        }));
        // Cross-check the reconstruction gate against the repository's
        // own (O(m^3), explicit-Q) reference on a fixed sample.
        let sample: Vec<usize> = (0..count)
            .step_by(16)
            .filter(|&i| (1..=160).contains(&self.sizes[i]))
            .collect();
        for (i, (res, orth)) in sample.iter().zip(par_map(sample.len(), self.threads, |k| {
            let (i, n) = (sample[k], self.sizes[sample[k]]);
            qr_residual(
                MatRef::from_slice(&self.qr_out[i], 2 * n, n, 2 * n),
                &self.tau_out[i],
                MatRef::from_slice(&self.qr_in[i], 2 * n, n, 2 * n),
            )
        })) {
            let tol = residual_tol::<f64>(self.sizes[*i]);
            if !(res <= tol && orth <= tol) {
                c.failed += 1;
                c.notes.push(format!(
                    "geqrf matrix {i}: qr_residual ({res:e}, {orth:e}) > {tol:e}"
                ));
            }
        }
        c
    }

    fn layers(&mut self, env: &LayerEnv<'_>, out: &mut Metrics) {
        let getrf_s = env.span_s("vbatch-core.lu:getrf_vbatched_ws");
        let geqrf_s = env.span_s("vbatch-core.qr:geqrf_vbatched_ws");
        let upload_s = env.span_s("vbatch-core.batch:upload_matrix");
        let download_s = env.span_s("vbatch-core.batch:download_matrix");
        out.put("batch.upload_s", upload_s);
        out.put("batch.download_s", download_s);
        out.put(
            "batch.transfer_share",
            (upload_s + download_s) / env.pass_wall_s,
        );
        out.put("lu.getrf_s", getrf_s);
        out.put("lu.sim_gflops", self.lu_flops() / env.sim("lu.sim_s") / 1e9);
        out.put("qr.geqrf_s", geqrf_s);
        out.put("qr.sim_gflops", self.qr_flops() / env.sim("qr.sim_s") / 1e9);
        out.put("gpu-sim.device_allocs_per_pass", self.dev_allocs as f64);
        profiler_metrics(&[&self.dev], false, out);
        let blocks = out.get("gpu-sim.blocks").unwrap_or(0.0);
        out.put(
            "gpu-sim.wall_ns_per_block",
            (getrf_s + geqrf_s) * 1e9 / blocks.max(1.0),
        );

        out.put(
            "dense.factor.getrf_floor_s",
            getrf_floor_s(&self.sizes, &self.lu_in),
        );
        let mut work = self.qr_in.clone();
        let mut tau = vec![0.0f64; self.sizes.iter().copied().max().unwrap_or(0)];
        let geqrf_floor_s = time_median(3, || {
            for ((w, a), &n) in work.iter_mut().zip(&self.qr_in).zip(&self.sizes) {
                w.copy_from_slice(a);
                if n > 0 {
                    vbatch_dense::geqrf(MatMut::from_slice(w, 2 * n, n, 2 * n), &mut tau, 32);
                }
            }
        });
        out.put("dense.factor.geqrf_floor_s", geqrf_floor_s);
        out.put(
            "qr.overhead_x",
            geqrf_s / (geqrf_floor_s / env.threads as f64),
        );
    }
}
