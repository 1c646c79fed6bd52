//! Deterministic soak harness: seeded open-loop load against one
//! service, with an offline bitwise oracle.
//!
//! The harness separates three things that must not contaminate each
//! other:
//!
//! 1. **The schedule** ([`build_schedule`]) — a pure function of
//!    [`SoakConfig`]: simulated Poisson arrivals from thousands of
//!    clients, each carrying its payload, deadline, and tenant. Because
//!    the schedule is materialized up front, the oracle can re-factor
//!    any arrival without replaying the service.
//! 2. **The run** ([`run_soak`]) — drives a fresh [`BatchService`]
//!    through the schedule (optionally installing a recoverable
//!    [`FaultPlan`] mid-stream), drains it, releases pooled memory, and
//!    snapshots every observable: responses, admission log, stats,
//!    merged recovery, fired injections, memory baselines.
//! 3. **The oracle** ([`offline_factor`] / [`verify_bitwise`]) — a
//!    fault-free, single-matrix re-factorization on a fresh device with
//!    the *same normalized options*. Option normalization pins blocking
//!    and strategy at the admission cap, so a matrix's factor bits do
//!    not depend on window composition — making "bitwise equal to a
//!    fault-free offline run" a meaningful acceptance bar for a service
//!    that windows dynamically under faults.

use rand::{Rng, RngCore};
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};
use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Device, FaultPlan, InjectionEvent};

use vbatch_core::{
    getrf_vbatched_pooled, potrf_vbatched_max_ws, DeviceState, RecoveryReport, VBatch,
};

use crate::metrics::{LatencyStats, ServeStats};
use crate::request::{Op, Rejection, RequestId, Response, ResponseStatus};
use crate::service::{BatchService, ServeConfig};

/// Parameters of one seeded soak.
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// The service under test.
    pub serve: ServeConfig,
    /// Seed for arrivals, sizes, payloads, tenants, deadlines.
    pub seed: u64,
    /// Number of simulated clients; client `c` submits as tenant
    /// `c % tenants`.
    pub clients: usize,
    /// Distinct tenants.
    pub tenants: u32,
    /// Total arrivals in the schedule.
    pub requests: usize,
    /// Mean open-loop arrival rate (arrivals per simulated second);
    /// inter-arrival gaps are exponential.
    pub rate_hz: f64,
    /// Matrix orders sampled uniformly per arrival.
    pub sizes: Vec<usize>,
    /// Fraction of arrivals requesting LU instead of Cholesky.
    pub getrf_share: f64,
    /// Fraction of arrivals carrying a deadline.
    pub deadline_share: f64,
    /// Deadline slack added to the arrival time.
    pub deadline_slack_s: f64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::default(),
            seed: 0x5eed,
            clients: 2000,
            tenants: 16,
            requests: 600,
            rate_hz: 200_000.0,
            sizes: vec![8, 12, 16, 24, 32, 48, 64],
            getrf_share: 0.35,
            deadline_share: 0.1,
            deadline_slack_s: 5e-3,
        }
    }
}

/// One scheduled submission.
#[derive(Clone, Debug)]
pub struct Arrival<T> {
    /// Simulated submission time.
    pub t_s: f64,
    /// Submitting client (informational; the tenant is what the service
    /// schedules by).
    pub client: usize,
    /// Tenant the client belongs to.
    pub tenant: u32,
    /// Requested factorization.
    pub op: Op,
    /// Matrix order.
    pub n: usize,
    /// Column-major payload (SPD for Cholesky, diagonally dominant for
    /// LU, so fault-free runs factor with `info == 0`).
    pub payload: Vec<T>,
    /// Optional absolute deadline.
    pub deadline_s: Option<f64>,
}

/// Builds the full arrival schedule — a pure function of `cfg`.
#[must_use]
pub fn build_schedule<T: Scalar>(cfg: &SoakConfig) -> Vec<Arrival<T>> {
    let mut rng = seeded_rng(cfg.seed);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(cfg.requests);
    for _ in 0..cfg.requests {
        // Exponential inter-arrival: -ln(1-u)/rate, u ∈ [0,1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        t += -(1.0 - u).ln() / cfg.rate_hz.max(f64::MIN_POSITIVE);
        let client = rng.gen_range(0..cfg.clients.max(1));
        let tenant = client as u32 % cfg.tenants.max(1);
        let op = if rng.gen_f64() < cfg.getrf_share {
            Op::Getrf
        } else {
            Op::Potrf
        };
        let n = cfg.sizes[rng.gen_range(0..cfg.sizes.len().max(1))];
        let payload = match op {
            Op::Potrf => spd_vec::<T>(&mut rng, n),
            Op::Getrf => diag_dominant_vec::<T>(&mut rng, n, n),
        };
        let deadline_s = if rng.gen_f64() < cfg.deadline_share {
            Some(t + cfg.deadline_slack_s)
        } else {
            None
        };
        out.push(Arrival {
            t_s: t,
            client,
            tenant,
            op,
            n,
            payload,
            deadline_s,
        });
    }
    out
}

/// Everything observable about one soak run.
pub struct SoakOutcome<T> {
    /// Terminal responses in emission order.
    pub responses: Vec<Response<T>>,
    /// Admission log: `(request id, schedule index)` for each accepted
    /// arrival — the join key between responses and the oracle.
    pub accepted: Vec<(RequestId, usize)>,
    /// Typed refusals in arrival order, with their schedule index.
    pub rejected: Vec<(usize, Rejection)>,
    /// Final counter snapshot.
    pub stats: ServeStats,
    /// Recovery actions merged across all windows.
    pub recovery: RecoveryReport,
    /// Latency quantiles over completed requests.
    pub latency: LatencyStats,
    /// Injections the device actually fired (from `clear_fault_plan`).
    pub fired: Vec<InjectionEvent>,
    /// Device memory in use before the service existed.
    pub mem_baseline: usize,
    /// Device memory in use after drain + release.
    pub mem_after_release: usize,
    /// Arrival-clock time at the end of the drain (for sustained-rate
    /// computations).
    pub end_s: f64,
}

/// Runs one soak: submit the schedule open-loop, optionally installing
/// `fault` once `fault_after` arrivals have been submitted (0 = from
/// the start), then drain, release memory, and snapshot.
pub fn run_soak<T: Scalar>(
    cfg: &SoakConfig,
    schedule: &[Arrival<T>],
    fault: Option<FaultPlan>,
    fault_after: usize,
) -> SoakOutcome<T> {
    let dev = Device::new(cfg.serve.device.clone());
    let mem_baseline = dev.mem_in_use();
    let mut svc = BatchService::<T>::new(dev, cfg.serve.clone());
    let mut fault = fault;
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for (idx, a) in schedule.iter().enumerate() {
        if idx == fault_after {
            if let Some(plan) = fault.take() {
                svc.device().install_fault_plan(plan);
            }
        }
        match svc.submit(a.t_s, a.tenant, a.op, a.n, a.payload.clone(), a.deadline_s) {
            Ok(id) => accepted.push((id, idx)),
            Err(r) => rejected.push((idx, r)),
        }
    }
    // A plan aimed past the end of the schedule still installs before
    // the drain (covers "fault arrives while the queue empties").
    if let Some(plan) = fault.take() {
        svc.device().install_fault_plan(plan);
    }
    let stats = svc.drain();
    let responses = svc.take_responses();
    let latency = svc.latency_stats();
    let recovery = svc.recovery().clone();
    let fired = svc.device().clear_fault_plan();
    let end_s = svc.now_s();
    svc.release_memory();
    let dev = svc.into_device();
    SoakOutcome {
        responses,
        accepted,
        rejected,
        stats,
        recovery,
        latency,
        fired,
        mem_baseline,
        mem_after_release: dev.mem_in_use(),
        end_s,
    }
}

/// Factors one matrix alone on a fresh fault-free device with the same
/// normalized options the service uses — the bitwise oracle. Returns
/// `(factor, pivots, info)`.
#[must_use]
pub fn offline_factor<T: Scalar>(
    serve: &ServeConfig,
    op: Op,
    n: usize,
    payload: &[T],
) -> (Vec<T>, Vec<usize>, i32) {
    let dev = Device::new(serve.device.clone());
    let (popts, gopts) = serve.options::<T>(&dev);
    let mut dstate = DeviceState::default();
    let mut batch = VBatch::<T>::alloc_square_pooled(&dev, &[n], &mut dstate.pools)
        .expect("oracle alloc on a fresh device");
    batch
        .upload_matrix(0, payload)
        .expect("oracle upload of a validated payload");
    let (report, pivots) = match op {
        Op::Potrf => {
            let r = potrf_vbatched_max_ws(&dev, &mut batch, n, &popts, &mut dstate.ws)
                .expect("oracle potrf on a fault-free device");
            (r, Vec::new())
        }
        Op::Getrf => {
            let r =
                getrf_vbatched_pooled(&dev, &mut batch, &gopts, &mut dstate.ws, &mut dstate.pivots)
                    .expect("oracle getrf on a fault-free device");
            let p = dstate
                .pivots
                .as_ref()
                .map(|p| p.download(0, n))
                .unwrap_or_default();
            (r, p)
        }
    };
    let factor = batch.download_matrix(0);
    let info = report.info[0];
    batch.reclaim(&mut dstate.pools);
    (factor, pivots, info)
}

/// Verifies every `Factored` response in `outcome` bitwise against the
/// offline oracle. Returns the number of verified factors.
///
/// # Errors
/// A human-readable description of the first divergence.
pub fn verify_bitwise<T: Scalar>(
    cfg: &SoakConfig,
    schedule: &[Arrival<T>],
    outcome: &SoakOutcome<T>,
) -> Result<usize, String> {
    let mut verified = 0usize;
    for resp in &outcome.responses {
        if resp.status != ResponseStatus::Factored {
            continue;
        }
        let &(_, idx) = outcome
            .accepted
            .iter()
            .find(|(id, _)| *id == resp.id)
            .ok_or_else(|| format!("response {} has no admission record", resp.id))?;
        let a = &schedule[idx];
        let (factor, pivots, info) = offline_factor::<T>(&cfg.serve, a.op, a.n, &a.payload);
        if info != resp.info {
            return Err(format!(
                "req {} (sched {idx}, n={}): info {} != oracle {}",
                resp.id, a.n, resp.info, info
            ));
        }
        if pivots != resp.pivots {
            return Err(format!("req {} (sched {idx}): pivot divergence", resp.id));
        }
        if factor.len() != resp.factor.len() {
            return Err(format!("req {} (sched {idx}): factor length", resp.id));
        }
        for (k, (got, want)) in resp.factor.iter().zip(&factor).enumerate() {
            if got.to_f64().to_bits() != want.to_f64().to_bits() {
                return Err(format!(
                    "req {} (sched {idx}, n={}): factor[{k}] {:e} != oracle {:e}",
                    resp.id,
                    a.n,
                    got.to_f64(),
                    want.to_f64()
                ));
            }
        }
        verified += 1;
    }
    Ok(verified)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_config() {
        let cfg = SoakConfig {
            requests: 50,
            ..Default::default()
        };
        let a = build_schedule::<f64>(&cfg);
        let b = build_schedule::<f64>(&cfg);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.t_s.to_bits(), y.t_s.to_bits());
            assert_eq!((x.tenant, x.op, x.n), (y.tenant, y.op, y.n));
            assert!(x
                .payload
                .iter()
                .zip(&y.payload)
                .all(|(p, q)| p.to_bits() == q.to_bits()));
        }
        // Arrivals are strictly increasing (exponential gaps are > 0
        // almost surely; the generator never returns u == 1).
        assert!(a.windows(2).all(|w| w[0].t_s < w[1].t_s));
    }

    #[test]
    fn fault_free_soak_is_bitwise_reproducible_and_leak_free() {
        let cfg = SoakConfig {
            requests: 120,
            clients: 300,
            tenants: 8,
            ..Default::default()
        };
        let schedule = build_schedule::<f64>(&cfg);
        let out1 = run_soak(&cfg, &schedule, None, 0);
        let out2 = run_soak(&cfg, &schedule, None, 0);
        assert_eq!(out1.stats, out2.stats, "identical decisions");
        assert_eq!(out1.responses.len(), out2.responses.len());
        for (a, b) in out1.responses.iter().zip(&out2.responses) {
            assert_eq!((a.id, a.status), (b.id, b.status));
            assert!(a
                .factor
                .iter()
                .zip(&b.factor)
                .all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        assert_eq!(out1.mem_after_release, out1.mem_baseline, "no pool leak");
        assert!(out1.fired.is_empty());
        let n = verify_bitwise(&cfg, &schedule, &out1).expect("oracle agreement");
        assert!(n > 0, "some requests must complete");
    }
}
