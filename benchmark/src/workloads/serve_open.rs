//! `serve_open`: open-loop serving. Seeded exponential arrivals
//! (`build_schedule`) are replayed by the harness's own loop over
//! `BatchService::{advance_to, submit, drain, take_responses}` so each
//! call can be spanned. Three phases per pass:
//!
//! - `under`: 50 kHz x 4000, below capacity;
//! - `fault`: the same load under `FaultPlan::random_recoverable`;
//! - `over`: 400 kHz x 8000, 20 % of requests on a 1 ms deadline.
//!
//! Latency runs from the scheduled arrival on the simulated arrival
//! clock, so the generator is never late by construction
//! (`service.generator_late_s` is 0 and reported as such).

use std::time::Instant;

use vbatch_core::shard::normalized_options;
use vbatch_core::{
    getrf_vbatched_pooled, potrf_vbatched_max_ws, BatchPools, DriverWorkspace, GetrfOptions,
    PivotArray, VBatch,
};
use vbatch_dense::flops;
use vbatch_gpu_sim::{Device, FaultPlan};
use vbatch_serve::{
    build_schedule, offline_factor, run_soak, Arrival, BatchService, Op, RequestId, Response,
    ResponseStatus, ServeConfig, ServeExecutor, ServeStats, SoakConfig,
};

use super::{profiler_metrics, time_median, Check, Fnv, LayerEnv, Metrics, Outcome, Workload};
use crate::stats::percentile;
use crate::trace::Tracer;

/// Rates the `max_rate_hz` sweep tries, requests per simulated second.
const RATE_GRID_HZ: [f64; 6] = [25e3, 50e3, 100e3, 150e3, 200e3, 400e3];
/// The latency limit on p99 a rate must meet.
const LATENCY_LIMIT_S: f64 = 1e-3;
/// Share of submitted requests a rate may shed, expire or fail.
const MISS_LIMIT: f64 = 0.01;
/// Responses verified bitwise against `offline_factor`, per phase.
const ORACLE_SAMPLE: usize = 200;

fn serve_config() -> ServeConfig {
    ServeConfig {
        max_window: 32,
        max_wait_s: 3e-4,
        shed_cost_s: 4e-4,
        tenant_queue_limit: 256,
        // A `random_recoverable` plan holds up to four faults, and one
        // window can meet them all, one per attempt (three one-shot
        // allocation failures in a row spend the default budget of two
        // and the window comes back `Failed`: seeds 207 and 209).
        window_retries: 4,
        ..Default::default()
    }
}

fn soak_config(seed: u64, rate_hz: f64, requests: usize, deadline_share: f64) -> SoakConfig {
    SoakConfig {
        serve: serve_config(),
        seed,
        clients: 2000,
        tenants: 12,
        requests,
        rate_hz,
        sizes: vec![8, 12, 16, 24, 32, 48, 64],
        getrf_share: 0.3,
        deadline_share,
        deadline_slack_s: 1e-3,
    }
}

fn op_flops(op: Op, n: usize) -> f64 {
    match op {
        Op::Potrf => flops::potrf(n),
        Op::Getrf => flops::getrf(n, n),
    }
}

/// `(name, span, rate, requests, deadline share)` of the three phases;
/// phase `k` draws its schedule from `seed ^ (k + 1)`.
const PHASES: [(&str, &str, f64, usize, f64); 3] = [
    ("under", "harness:phase_under", 50e3, 4000, 0.0),
    ("fault", "harness:phase_fault", 50e3, 4000, 0.0),
    ("over", "harness:phase_over", 400e3, 8000, 0.2),
];

fn phase_config(seed: u64, k: usize) -> SoakConfig {
    let (_, _, rate_hz, requests, deadline_share) = PHASES[k];
    soak_config(seed ^ (k as u64 + 1), rate_hz, requests, deadline_share)
}

/// Matrix orders of every request of a pass, phase by phase.
#[cfg(test)]
pub fn request_sizes(seed: u64) -> Vec<usize> {
    (0..PHASES.len())
        .flat_map(|k| build_schedule::<f64>(&phase_config(seed, k)))
        .map(|a| a.n)
        .collect()
}

/// Sorted latencies of the `Factored` responses.
fn factored_latencies(responses: &[Response<f64>]) -> Vec<f64> {
    let mut v: Vec<f64> = responses
        .iter()
        .filter(|r| r.status == ResponseStatus::Factored)
        .map(Response::latency_s)
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

struct Phase {
    name: &'static str,
    span: &'static str,
    cfg: SoakConfig,
    fault_seed: Option<u64>,
    schedule: Vec<Arrival<f64>>,
    /// Per-arrival payload copies the next pass hands over (refilled,
    /// untimed, by `reset`).
    payloads: Vec<Vec<f64>>,
    /// The service of the last pass, kept for its device and counters.
    svc: Option<BatchService<f64>>,
    responses: Vec<Response<f64>>,
    accepted: Vec<(RequestId, usize)>,
    rejected: usize,
    stats: ServeStats,
}

impl Phase {
    fn new(seed: u64, k: usize, fault_seed: Option<u64>) -> Self {
        let cfg = phase_config(seed, k);
        Self {
            schedule: build_schedule::<f64>(&cfg),
            name: PHASES[k].0,
            span: PHASES[k].1,
            cfg,
            fault_seed,
            payloads: Vec::new(),
            svc: None,
            responses: Vec::new(),
            accepted: Vec::new(),
            rejected: 0,
            stats: ServeStats::default(),
        }
    }

    fn reset(&mut self) {
        self.svc = None;
        self.responses.clear();
        self.accepted.clear();
        self.rejected = 0;
        self.payloads = self.schedule.iter().map(|a| a.payload.clone()).collect();
    }

    fn run(&mut self, tr: &mut Tracer) {
        let phase = tr.begin(self.span);
        let mut svc = tr.span("vbatch-serve.service:BatchService::new", || {
            BatchService::<f64>::new(
                Device::new(self.cfg.serve.device.clone()),
                self.cfg.serve.clone(),
            )
        });
        if let Some(seed) = self.fault_seed {
            svc.device()
                .install_fault_plan(FaultPlan::random_recoverable(seed));
        }
        for (idx, a) in self.schedule.iter().enumerate() {
            let payload = std::mem::take(&mut self.payloads[idx]);
            let open = tr.begin("vbatch-serve.service:advance_to");
            svc.advance_to(a.t_s);
            tr.end(open);
            let open = tr.begin("vbatch-serve.service:submit");
            let verdict = svc.submit(a.t_s, a.tenant, a.op, a.n, payload, a.deadline_s);
            tr.end(open);
            match verdict {
                Ok(id) => self.accepted.push((id, idx)),
                Err(_) => self.rejected += 1,
            }
        }
        self.stats = tr.span("vbatch-serve.service:drain", || svc.drain());
        self.responses = tr.span("vbatch-serve.service:take_responses", || {
            svc.take_responses()
        });
        self.svc = Some(svc);
        tr.end(phase);
    }

    fn svc(&self) -> &BatchService<f64> {
        self.svc.as_ref().expect("a pass has run")
    }

    fn factored(&self) -> impl Iterator<Item = &Response<f64>> {
        self.responses
            .iter()
            .filter(|r| r.status == ResponseStatus::Factored)
    }

    /// Sorted latencies of the completed requests.
    fn latencies(&self) -> Vec<f64> {
        factored_latencies(&self.responses)
    }

    /// Percentile `p` of the completed requests' latency; panics when
    /// the phase is too small to support it (size the phase up instead
    /// of reporting a tail made of a handful of samples).
    fn latency(&self, p: f64) -> f64 {
        let v = self.latencies();
        percentile(&v, p).unwrap_or_else(|| {
            panic!(
                "phase {}: {} completions cannot support p{}",
                self.name,
                v.len(),
                p * 100.0
            )
        })
    }

    fn completed_flops(&self) -> f64 {
        self.factored().map(|r| op_flops(r.op, r.n)).sum()
    }

    /// Bitwise oracle on an evenly strided sample of completed
    /// requests, plus the phase's failure count.
    fn check(&self, strict: bool, c: &mut Check) {
        let index_of: std::collections::BTreeMap<RequestId, usize> =
            self.accepted.iter().copied().collect();
        let done: Vec<&Response<f64>> = self.factored().collect();
        let stride = (done.len() / ORACLE_SAMPLE).max(1);
        let mut mismatched = 0u64;
        let mut verified = 0usize;
        for r in done.iter().step_by(stride) {
            let a = &self.schedule[index_of[&r.id]];
            let (factor, pivots, info) =
                offline_factor::<f64>(&self.cfg.serve, a.op, a.n, &a.payload);
            let same = info == r.info
                && pivots == r.pivots
                && factor.len() == r.factor.len()
                && factor
                    .iter()
                    .zip(&r.factor)
                    .all(|(x, y)| x.to_bits() == y.to_bits());
            verified += 1;
            if !same || r.info != 0 {
                mismatched += 1;
                if c.notes.len() < 5 {
                    c.notes.push(format!(
                        "phase {}: request {} differs from the oracle",
                        self.name, r.id
                    ));
                }
            }
        }
        if verified < ORACLE_SAMPLE.min(done.len()) || done.is_empty() {
            mismatched += 1;
            c.notes.push(format!(
                "phase {}: only {verified} responses verified",
                self.name
            ));
        }
        // Below capacity every request must come back factored; past it,
        // shedding and expiry are the policy working, only `Failed` is
        // a failure.
        let not_served = if strict {
            (self.schedule.len() - done.len()) as u64
        } else {
            self.responses
                .iter()
                .filter(|r| r.status == ResponseStatus::Failed)
                .count() as u64
        };
        if not_served > 0 && c.notes.len() < 5 {
            let count =
                |st: ResponseStatus| self.responses.iter().filter(|r| r.status == st).count();
            c.notes.push(format!(
                "phase {}: {not_served} requests not served ({} refused at submit, {} quarantined, {} expired, {} failed)",
                self.name,
                self.rejected,
                count(ResponseStatus::Quarantined),
                count(ResponseStatus::Expired),
                count(ResponseStatus::Failed),
            ));
        }
        c.attempted += self.schedule.len() as u64;
        c.failed += mismatched + not_served;
    }
}

pub struct ServeOpen {
    under: Phase,
    fault: Phase,
    over: Phase,
    sizes: Vec<usize>,
    seed: u64,
    threads: usize,
    gen_s: f64,
}

impl ServeOpen {
    pub fn new(seed: u64, threads: usize) -> Self {
        let t = Instant::now();
        let under = Phase::new(seed, 0, None);
        let fault = Phase::new(seed, 1, Some(seed));
        let over = Phase::new(seed, 2, None);
        let gen_s = t.elapsed().as_secs_f64();
        let sizes = [&under, &fault, &over]
            .iter()
            .flat_map(|p| p.schedule.iter().map(|a| a.n))
            .collect();
        Self {
            under,
            fault,
            over,
            sizes,
            seed,
            threads,
            gen_s,
        }
    }

    fn phases(&self) -> [&Phase; 3] {
        [&self.under, &self.fault, &self.over]
    }

    /// Highest rate of the grid whose p99 meets the limit with at most
    /// 1 % of submitted requests shed, expired or failed; a refused
    /// request misses the limit.
    fn max_rate_hz(&self) -> f64 {
        let mut best = 0.0;
        for (k, &rate) in RATE_GRID_HZ.iter().enumerate() {
            let cfg = soak_config(self.seed ^ (0x100 + k as u64), rate, 4000, 0.0);
            let schedule = build_schedule::<f64>(&cfg);
            let out = run_soak(&cfg, &schedule, None, 0);
            let lat = factored_latencies(&out.responses);
            let missed = (schedule.len() - lat.len()) as f64 / schedule.len() as f64;
            let p99 = percentile(&lat, 0.99);
            if missed <= MISS_LIMIT && p99.is_some_and(|p| p <= LATENCY_LIMIT_S) {
                best = rate;
            }
        }
        assert!(best > 0.0, "no rate of the grid meets the latency limit");
        best
    }

    /// The `under` phase's matrices through the `_ws` drivers directly,
    /// in `max_window` chunks of one operation each: what the service's
    /// control plane is overhead on top of.
    fn offline_wall_s(&self) -> f64 {
        let serve = &self.under.cfg.serve;
        let dev = Device::new(serve.device.clone());
        let popts = normalized_options::<f64>(&dev, &serve.potrf, serve.max_n);
        let gopts = GetrfOptions {
            nb_panel: serve.getrf_nb,
            recovery: serve.potrf.recovery,
        };
        let mut pools = BatchPools::new();
        let mut ws = DriverWorkspace::new();
        let mut pivots: Option<PivotArray> = None;
        let by_op = |op: Op| -> Vec<&Arrival<f64>> {
            self.under.schedule.iter().filter(|a| a.op == op).collect()
        };
        let (potrf, getrf) = (by_op(Op::Potrf), by_op(Op::Getrf));
        time_median(3, || {
            let mut factors: Vec<Vec<f64>> = Vec::with_capacity(self.under.schedule.len());
            for (op, arrivals) in [(Op::Potrf, &potrf), (Op::Getrf, &getrf)] {
                for chunk in arrivals.chunks(serve.max_window) {
                    let sizes: Vec<usize> = chunk.iter().map(|a| a.n).collect();
                    let mut batch = VBatch::<f64>::alloc_square_pooled(&dev, &sizes, &mut pools)
                        .expect("a window fits a vK40c");
                    for (i, a) in chunk.iter().enumerate() {
                        batch.upload_matrix(i, &a.payload).expect("extent matches");
                    }
                    let max_n = sizes.iter().copied().max().unwrap_or(0);
                    match op {
                        Op::Potrf => {
                            potrf_vbatched_max_ws(&dev, &mut batch, max_n, &popts, &mut ws)
                                .expect("fault-free device run");
                        }
                        Op::Getrf => {
                            getrf_vbatched_pooled(&dev, &mut batch, &gopts, &mut ws, &mut pivots)
                                .expect("fault-free device run");
                        }
                    }
                    factors.extend((0..chunk.len()).map(|i| batch.download_matrix(i)));
                    batch.reclaim(&mut pools);
                }
            }
            factors
        })
    }

    /// Median admission round trip through `ServeExecutor` with
    /// `threads` closed-loop clients splitting the `under` schedule.
    fn exec_submit_rtt_ns(&self) -> f64 {
        let cfg = &self.under.cfg;
        let svc =
            BatchService::<f64>::new(Device::new(cfg.serve.device.clone()), cfg.serve.clone());
        let exec = ServeExecutor::start(svc);
        let clients = self.threads.max(1);
        let mut rtts: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let handle = exec.handle();
                    let schedule = &self.under.schedule;
                    s.spawn(move || {
                        let mut rtts = Vec::new();
                        for a in schedule.iter().skip(c).step_by(clients) {
                            let payload = a.payload.clone();
                            let t = Instant::now();
                            let _ =
                                handle.submit(a.t_s, a.tenant, a.op, a.n, payload, a.deadline_s);
                            rtts.push(t.elapsed().as_nanos() as f64);
                        }
                        rtts
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let _ = exec.finish();
        rtts.sort_by(f64::total_cmp);
        percentile(&rtts, 0.5).expect("thousands of round trips")
    }
}

impl Workload for ServeOpen {
    fn gen_s(&self) -> f64 {
        self.gen_s
    }

    fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    fn reset(&mut self) {
        for p in [&mut self.under, &mut self.fault, &mut self.over] {
            p.reset();
        }
    }

    fn pass(&mut self, tr: &mut Tracer) {
        for p in [&mut self.under, &mut self.fault, &mut self.over] {
            p.run(tr);
        }
    }

    fn outcome(&self) -> Outcome {
        let (u, f, o) = (&self.under, &self.fault, &self.over);
        let phases = self.phases();
        let submitted = o.schedule.len() as f64;
        let completed_over = o.factored().count() as f64;
        let shed = (o.stats.rejected_overloaded + o.stats.rejected_tenant_full) as f64;
        vec![
            ("flops", phases.iter().map(|p| p.completed_flops()).sum()),
            // Device-clock seconds (kernels, copies, retry backoff). The
            // arrival clock's end is fixed by the schedule, so flops over
            // it would be the offered load, which no change to the
            // program can move.
            ("sim_s", phases.iter().map(|p| p.svc().device().now()).sum()),
            (
                "sim_energy_j",
                phases.iter().map(|p| p.svc().device().energy_j()).sum(),
            ),
            ("lat_p50_s", u.latency(0.5)),
            ("lat_p99_s", u.latency(0.99)),
            ("lat_p99_fault_s", f.latency(0.99)),
            ("lat_p99_over_s", o.latency(0.99)),
            ("goodput_over_rps", completed_over / o.svc().now_s()),
            ("service.windows", u.stats.windows as f64),
            (
                "service.window_fill",
                u.stats.completed as f64 / (u.stats.windows as f64 * u.cfg.serve.max_window as f64),
            ),
            ("service.shed_share_over", shed / submitted),
            (
                "service.expired_share_over",
                o.stats.expired as f64 / submitted,
            ),
            ("service.window_retries", f.stats.window_retries as f64),
            (
                "service.injected_faults",
                f.svc().recovery().injected.len() as f64,
            ),
            ("service.queue_depth_max", o.stats.max_queue_depth as f64),
            ("service.generator_late_s", 0.0),
            ("samples.lat_under", u.factored().count() as f64),
            ("samples.lat_fault", f.factored().count() as f64),
            ("samples.lat_over", completed_over),
        ]
    }

    fn once(&mut self) -> Outcome {
        vec![("max_rate_hz", self.max_rate_hz())]
    }

    fn factor_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for p in self.phases() {
            for r in &p.responses {
                h.word(r.id);
                h.word(r.info as u64);
                h.word(r.finish_s.to_bits());
                h.ints(r.factor.iter().map(|v| v.to_bits()));
                h.ints(r.pivots.iter().map(|&p| p as u64));
            }
        }
        h.0
    }

    fn check(&mut self) -> Check {
        let mut c = Check::default();
        self.under.check(true, &mut c);
        self.fault.check(true, &mut c);
        self.over.check(false, &mut c);
        c
    }

    fn layers(&mut self, env: &LayerEnv<'_>, out: &mut Metrics) {
        let mut submit_ns: Vec<f64> = env
            .spans
            .iter()
            .filter(|s| s.name == "vbatch-serve.service:submit")
            .map(|s| s.dur_ns() as f64)
            .collect();
        submit_ns.sort_by(f64::total_cmp);
        let pct = |p| percentile(&submit_ns, p).expect("thousands of submits per pass");
        out.put("service.submit_ns_p50", pct(0.5));
        out.put("service.submit_ns_p99", pct(0.99));
        out.put(
            "service.dispatch_s",
            env.span_s("vbatch-serve.service:advance_to")
                + env.span_s("vbatch-serve.service:drain"),
        );
        let offline_wall_s = self.offline_wall_s();
        out.put("service.offline_wall_s", offline_wall_s);
        out.put(
            "service.overhead_x",
            env.span_s("harness:phase_under") / offline_wall_s,
        );
        out.put("exec.submit_rtt_ns_p50", self.exec_submit_rtt_ns());
        let devs: Vec<&Device> = self.phases().iter().map(|p| p.svc().device()).collect();
        profiler_metrics(&devs, false, out);
        let blocks = out.get("gpu-sim.blocks").unwrap_or(0.0);
        out.put(
            "gpu-sim.wall_ns_per_block",
            out.get("service.dispatch_s").unwrap_or(0.0) * 1e9 / blocks.max(1.0),
        );
    }
}
