//! `shard_hybrid`: `potrf_sharded` on four homogeneous vK40c, then
//! `potrf_hybrid` on one device plus the host peer. Same kernels as
//! `potrf_large`, so a kernel gain shows in both and a scheduling gain
//! only here.
//!
//! Both phases run `Strategy::Fused`: `potrf_hybrid` refuses the
//! separated path (it has no bit-identical host twin), and the gate
//! compares the two phases' factors bit for bit. The host peer is
//! clocked by the fixed `HostCostModel::default_for_threads`, never a
//! measured one, so simulated figures stay exact.

use std::time::Instant;

use vbatch_core::shard::matrix_cost_s;
use vbatch_core::{
    plan_shards, potrf_hybrid, potrf_sharded, potrf_vbatched_max_ws, DriverWorkspace,
    HostCostModel, HostEngine, HostState, PotrfOptions, ShardOpts, ShardedReport, ShardedState,
    Strategy, VBatch,
};
use vbatch_dense::flops;
use vbatch_dense::gen::{seeded_rng, spd_vec};
use vbatch_gpu_sim::{Device, DeviceConfig, DeviceGroup};

use super::{
    bits_equal, chol_ok, par_map, potrf_floor_s, profiler_metrics, time_median, BatchSpec, Check,
    Fnv, LayerEnv, Metrics, Outcome, Workload,
};
use crate::trace::Tracer;

const SHARD_OPTS: ShardOpts = ShardOpts {
    shards_per_device: 4,
    steal: true,
};

pub struct ShardHybrid {
    sizes: Vec<usize>,
    mats: Vec<Vec<f64>>,
    opts: PotrfOptions,
    group4: DeviceGroup,
    state4: ShardedState<f64>,
    group1: DeviceGroup,
    state1: ShardedState<f64>,
    engine: HostEngine,
    model: HostCostModel,
    host_state: HostState<f64>,
    sharded_work: Vec<Vec<f64>>,
    hybrid_work: Vec<Vec<f64>>,
    sharded: Option<ShardedReport>,
    hybrid: Option<ShardedReport>,
    dev_allocs: u64,
    threads: usize,
    gen_s: f64,
}

fn group_allocs(g: &DeviceGroup) -> u64 {
    g.devices().iter().map(Device::alloc_count).sum()
}

impl ShardHybrid {
    pub fn new(spec: &BatchSpec, seed: u64, threads: usize) -> Self {
        let t = Instant::now();
        let sizes = spec.sizes(seed);
        let mut rng = seeded_rng(spec.matrix_seed(seed));
        let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        let gen_s = t.elapsed().as_secs_f64();
        Self {
            sharded_work: mats.clone(),
            hybrid_work: mats.clone(),
            sizes,
            mats,
            opts: PotrfOptions {
                strategy: Strategy::Fused,
                ..Default::default()
            },
            group4: DeviceGroup::homogeneous(DeviceConfig::k40c(), 4),
            state4: ShardedState::new(),
            group1: DeviceGroup::homogeneous(DeviceConfig::k40c(), 1),
            state1: ShardedState::new(),
            engine: HostEngine::with_threads(threads),
            model: HostCostModel::default_for_threads(threads),
            host_state: HostState::new(),
            sharded: None,
            hybrid: None,
            dev_allocs: 0,
            threads,
            gen_s,
        }
    }

    fn reports(&self) -> (&ShardedReport, &ShardedReport) {
        (
            self.sharded.as_ref().expect("a pass has run"),
            self.hybrid.as_ref().expect("a pass has run"),
        )
    }

    /// `potrf_sharded` on a fresh group of `devices`, returning the
    /// factors and the report.
    fn sharded_on(&self, devices: usize) -> (Vec<Vec<f64>>, ShardedReport) {
        let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), devices);
        let mut work = self.mats.clone();
        let report = potrf_sharded(
            &group,
            &self.sizes,
            &mut work,
            &self.opts,
            &SHARD_OPTS,
            &mut ShardedState::new(),
        )
        .expect("fault-free sharded run");
        (work, report)
    }
}

impl Workload for ShardHybrid {
    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    fn reset(&mut self) {
        for work in [&mut self.sharded_work, &mut self.hybrid_work] {
            for (w, a) in work.iter_mut().zip(&self.mats) {
                w.clone_from(a);
            }
        }
    }

    fn pass(&mut self, tr: &mut Tracer) {
        let allocs0 = group_allocs(&self.group4) + group_allocs(&self.group1);
        self.group4.reset_metrics();
        self.group1.reset_metrics();
        self.sharded = Some(
            tr.span("vbatch-core.shard:potrf_sharded", || {
                potrf_sharded(
                    &self.group4,
                    &self.sizes,
                    &mut self.sharded_work,
                    &self.opts,
                    &SHARD_OPTS,
                    &mut self.state4,
                )
            })
            .expect("fault-free sharded run"),
        );
        self.hybrid = Some(
            tr.span("vbatch-core.shard:potrf_hybrid", || {
                potrf_hybrid(
                    &self.group1,
                    &self.engine,
                    &self.model,
                    &self.sizes,
                    &mut self.hybrid_work,
                    &self.opts,
                    &SHARD_OPTS,
                    &mut self.state1,
                    &mut self.host_state,
                )
            })
            .expect("fault-free hybrid run"),
        );
        self.dev_allocs = group_allocs(&self.group4) + group_allocs(&self.group1) - allocs0;
    }

    fn outcome(&self) -> Outcome {
        let (s, h) = self.reports();
        let host = h.host.as_ref().expect("hybrid runs report the host peer");
        vec![
            ("flops", 2.0 * flops::potrf_batch(&self.sizes)),
            ("sim_s", s.makespan_s + h.makespan_s),
            ("sim_energy_j", s.energy_j + h.energy_j),
            ("shard.steals", f64::from(s.steals + h.steals)),
            ("shard.overlap_efficiency", s.overlap_efficiency),
            ("shard.hybrid_sim_s", h.makespan_s),
            ("shard.hybrid_host_matrices", host.matrices as f64),
        ]
    }

    fn factor_hash(&self) -> u64 {
        let (s, h) = self.reports();
        let mut hash = Fnv::new();
        hash.mats(&self.sharded_work);
        hash.mats(&self.hybrid_work);
        hash.ints(s.info.iter().chain(&h.info).map(|&i| i as u64));
        hash.0
    }

    fn check(&mut self) -> Check {
        let (s, h) = self.reports();
        let mut c = Check::default();
        c.extend(par_map(self.sizes.len(), self.threads, |i| {
            chol_ok(
                i,
                self.sizes[i],
                s.info[i],
                &self.sharded_work[i],
                &self.mats[i],
            )
        }));
        // One device, four devices and device + host agree bit for bit.
        let (one, one_report) = self.sharded_on(1);
        c.record(
            bits_equal(&one, &self.sharded_work) && one_report.info == s.info,
            || "1-device and 4-device factors differ".into(),
        );
        c.record(
            bits_equal(&self.hybrid_work, &self.sharded_work) && h.info == s.info,
            || "hybrid and 4-device factors differ".into(),
        );
        c
    }

    fn layers(&mut self, env: &LayerEnv<'_>, out: &mut Metrics) {
        let (s, _) = self.reports();
        let wall_4dev_s = env.span_s("vbatch-core.shard:potrf_sharded");
        out.put("shard.wall_4dev_s", wall_4dev_s);
        out.put(
            "shard.hybrid_wall_s",
            env.span_s("vbatch-core.shard:potrf_hybrid"),
        );
        out.put(
            "shard.shards",
            s.per_device.iter().map(|d| d.shards).sum::<usize>() as f64,
        );
        let compute: Vec<f64> = s.per_device.iter().map(|d| d.compute_s).collect();
        let mean = compute.iter().sum::<f64>() / compute.len() as f64;
        out.put(
            "shard.imbalance",
            compute.iter().copied().fold(0.0, f64::max) / mean,
        );
        let high_water = s.per_device.iter().map(|d| d.pool_high_water_bytes).max();
        out.put(
            "shard.pool_high_water_mb",
            high_water.unwrap_or(0) as f64 / (1 << 20) as f64,
        );
        let misses: u64 = self.state4.devices.iter().map(|d| d.pools.misses()).sum();
        out.put("batch.pool_misses", misses as f64);
        out.put("gpu-sim.device_allocs_per_pass", self.dev_allocs as f64);
        let devs: Vec<&Device> = self
            .group4
            .devices()
            .iter()
            .chain(self.group1.devices())
            .collect();
        profiler_metrics(&devs, true, out);
        out.put(
            "driver.sim_gflops",
            flops::potrf_batch(&self.sizes) / s.makespan_s / 1e9,
        );
        let modelled: f64 = self
            .sizes
            .iter()
            .map(|&n| matrix_cost_s::<f64>(self.group4.device(0).config(), n))
            .sum();
        out.put(
            "driver.cost_model_error",
            modelled / 4.0 / s.makespan_s - 1.0,
        );

        let t = Instant::now();
        let plan = plan_shards::<f64>(
            self.group4.device(0).config(),
            &self.sizes,
            4,
            SHARD_OPTS.shards_per_device,
        );
        out.put("shard.plan_ns", t.elapsed().as_nanos() as f64);
        std::hint::black_box(plan);

        // The same batch on one device: simulated scaling, and what the
        // planner, peers and staging cost the host next to a plain
        // single-device driver call.
        let (_, one) = self.sharded_on(1);
        out.put("shard.scaling_x_4dev", one.makespan_s / s.makespan_s);
        let dev = Device::new(DeviceConfig::k40c());
        let mut batch = VBatch::<f64>::alloc_square(&dev, &self.sizes).expect("fits a vK40c");
        let mut ws = DriverWorkspace::new();
        let max_n = self.sizes.iter().copied().max().unwrap_or(0);
        let plain_s = time_median(3, || {
            for (i, m) in self.mats.iter().enumerate() {
                batch.upload_matrix(i, m).expect("extent matches");
            }
            potrf_vbatched_max_ws(&dev, &mut batch, max_n, &self.opts, &mut ws)
                .expect("fault-free device run");
            (0..self.sizes.len())
                .map(|i| batch.download_matrix(i))
                .collect::<Vec<_>>()
        });
        out.put("shard.overhead_x", wall_4dev_s / plain_s);
        out.put(
            "dense.factor.potrf_floor_s",
            potrf_floor_s(&self.sizes, &self.mats),
        );
    }
}
