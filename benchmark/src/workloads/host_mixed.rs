//! `host_mixed`: `potrf_batch_host` then `getrf_batch_host` (nb 64) on
//! the multicore host engine. No simulator is in the path, so
//! `dense.factor`, `dense.level3` and the LPT lane scheduler are all
//! there is. Its simulated figures are the fixed `HostCostModel`'s: the
//! clock `potrf_hybrid` charges its host peer with.

use std::time::Instant;

use vbatch_core::{
    getrf_batch_host, potrf_batch_host, HostCostModel, HostEngine, HostState, PotrfOptions,
};
use vbatch_dense::flops;
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};

use super::{
    bits_equal, chol_ok, getrf_floor_s, interleave_metrics, lu_ok, par_map, potrf_floor_s,
    BatchSpec, Check, Fnv, LayerEnv, Metrics, Outcome, Workload,
};
use crate::alloc::allocs;
use crate::stats::median;
use crate::trace::Tracer;

const GETRF_NB: usize = 64;

pub struct HostMixed {
    sizes: Vec<usize>,
    indices: Vec<usize>,
    spd: Vec<Vec<f64>>,
    dd: Vec<Vec<f64>>,
    engine: HostEngine,
    state: HostState<f64>,
    opts: PotrfOptions,
    potrf_work: Vec<Vec<f64>>,
    getrf_work: Vec<Vec<f64>>,
    pivots: Vec<Vec<usize>>,
    potrf_info: Vec<i32>,
    getrf_info: Vec<i32>,
    host_allocs: u64,
    threads: usize,
    gen_s: f64,
}

/// One engine's run over fresh copies of the inputs.
struct Factors {
    potrf: Vec<Vec<f64>>,
    getrf: Vec<Vec<f64>>,
    pivots: Vec<Vec<usize>>,
}

impl HostMixed {
    pub fn new(spec: &BatchSpec, seed: u64, threads: usize) -> Self {
        let t = Instant::now();
        let sizes = spec.sizes(seed);
        let mut rng = seeded_rng(spec.matrix_seed(seed));
        let spd: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        let dd: Vec<Vec<f64>> = sizes
            .iter()
            .map(|&n| diag_dominant_vec(&mut rng, n, n))
            .collect();
        let gen_s = t.elapsed().as_secs_f64();
        let count = sizes.len();
        Self {
            indices: (0..count).collect(),
            potrf_work: spd.clone(),
            getrf_work: dd.clone(),
            sizes,
            spd,
            dd,
            engine: HostEngine::with_threads(threads),
            state: HostState::new(),
            opts: PotrfOptions::default(),
            pivots: vec![Vec::new(); count],
            potrf_info: vec![0; count],
            getrf_info: vec![0; count],
            host_allocs: 0,
            threads,
            gen_s,
        }
    }

    fn potrf_flops(&self) -> f64 {
        flops::potrf_batch(&self.sizes)
    }

    fn getrf_flops(&self) -> f64 {
        self.sizes.iter().map(|&n| flops::getrf(n, n)).sum()
    }

    /// Modelled seconds of the pass under the fixed cost model: its
    /// potrf formula, and the same overhead + flops/rate for getrf.
    fn model_s(&self) -> f64 {
        let m = HostCostModel::default_for_threads(self.threads);
        let nonempty = self.sizes.iter().filter(|&&n| n > 0).count() as f64;
        m.shard_cost_s(&self.sizes, &self.indices)
            + nonempty * m.overhead_s
            + self.getrf_flops() / (m.gflops * 1e9)
    }

    /// Both factorizations on a separate engine of `threads` lanes,
    /// returning the potrf wall seconds too.
    fn run_on(&self, threads: usize) -> (Factors, f64) {
        let engine = HostEngine::with_threads(threads);
        let mut state = HostState::new();
        let mut f = Factors {
            potrf: self.spd.clone(),
            getrf: self.dd.clone(),
            pivots: vec![Vec::new(); self.sizes.len()],
        };
        let mut info = vec![0i32; self.sizes.len()];
        let t = Instant::now();
        potrf_batch_host(
            &engine,
            &self.sizes,
            &mut f.potrf,
            &self.indices,
            &self.opts,
            &mut state,
            &mut info,
        )
        .expect("valid host batch");
        let potrf_s = t.elapsed().as_secs_f64();
        getrf_batch_host(
            &engine,
            &self.sizes,
            &mut f.getrf,
            &self.indices,
            GETRF_NB,
            &mut state,
            &mut info,
            &mut f.pivots,
        )
        .expect("valid host batch");
        (f, potrf_s)
    }
}

impl Workload for HostMixed {
    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    fn reset(&mut self) {
        for (w, a) in self.potrf_work.iter_mut().zip(&self.spd) {
            w.copy_from_slice(a);
        }
        for (w, a) in self.getrf_work.iter_mut().zip(&self.dd) {
            w.copy_from_slice(a);
        }
    }

    fn pass(&mut self, tr: &mut Tracer) {
        let allocs0 = allocs();
        tr.span("vbatch-core.host:potrf_batch_host", || {
            potrf_batch_host(
                &self.engine,
                &self.sizes,
                &mut self.potrf_work,
                &self.indices,
                &self.opts,
                &mut self.state,
                &mut self.potrf_info,
            )
        })
        .expect("valid host batch");
        tr.span("vbatch-core.host:getrf_batch_host", || {
            getrf_batch_host(
                &self.engine,
                &self.sizes,
                &mut self.getrf_work,
                &self.indices,
                GETRF_NB,
                &mut self.state,
                &mut self.getrf_info,
                &mut self.pivots,
            )
        })
        .expect("valid host batch");
        self.host_allocs = allocs() - allocs0;
    }

    fn outcome(&self) -> Outcome {
        let model = HostCostModel::default_for_threads(self.threads);
        let sim_s = self.model_s();
        vec![
            ("flops", self.potrf_flops() + self.getrf_flops()),
            ("sim_s", sim_s),
            ("sim_energy_j", model.energy_j(sim_s, 0.0)),
        ]
    }

    fn factor_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.mats(&self.potrf_work);
        h.mats(&self.getrf_work);
        h.ints(self.pivots.iter().flatten().map(|&p| p as u64));
        h.ints(
            self.potrf_info
                .iter()
                .chain(&self.getrf_info)
                .map(|&i| i as u64),
        );
        h.0
    }

    fn check(&mut self) -> Check {
        let count = self.sizes.len();
        let mut c = Check::default();
        c.extend(par_map(count, self.threads, |i| {
            chol_ok(
                i,
                self.sizes[i],
                self.potrf_info[i],
                &self.potrf_work[i],
                &self.spd[i],
            )
        }));
        c.extend(par_map(count, self.threads, |i| {
            lu_ok(
                i,
                self.sizes[i],
                self.getrf_info[i],
                &self.getrf_work[i],
                &self.pivots[i],
                &self.dd[i],
            )
        }));
        // One lane and `threads` lanes must agree bit for bit.
        let (one, _) = self.run_on(1);
        c.record(
            bits_equal(&one.potrf, &self.potrf_work)
                && bits_equal(&one.getrf, &self.getrf_work)
                && one.pivots == self.pivots,
            || format!("1-lane and {}-lane host factors differ", self.threads),
        );
        c
    }

    fn layers(&mut self, env: &LayerEnv<'_>, out: &mut Metrics) {
        let potrf_s = env.span_s("vbatch-core.host:potrf_batch_host");
        let getrf_s = env.span_s("vbatch-core.host:getrf_batch_host");
        out.put("host.potrf_s", potrf_s);
        out.put("host.getrf_s", getrf_s);
        out.put("host.potrf_gflops", self.potrf_flops() / potrf_s / 1e9);
        out.put("host.getrf_gflops", self.getrf_flops() / getrf_s / 1e9);
        out.put("host.allocs_per_pass", self.host_allocs as f64);
        out.put(
            "host.model_error",
            self.model_s() / (potrf_s + getrf_s) - 1.0,
        );
        // The single-lane baseline: same engine code, one lane.
        let t1: Vec<f64> = (0..3).map(|_| self.run_on(1).1).collect();
        let t1_potrf_s = median(&t1);
        out.put("host.t1_potrf_s", t1_potrf_s);
        out.put(
            "host.parallel_efficiency",
            t1_potrf_s / (potrf_s * env.threads as f64),
        );
        out.put(
            "dense.factor.potrf_floor_s",
            potrf_floor_s(&self.sizes, &self.spd),
        );
        out.put(
            "dense.factor.getrf_floor_s",
            getrf_floor_s(&self.sizes, &self.dd),
        );
        let cutoff = self.opts.fused.resolved_interleave_cutoff::<f64>();
        interleave_metrics(&self.sizes, &self.spd, cutoff, out);
    }
}
