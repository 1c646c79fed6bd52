//! The batch service: online size-sorted windowing over the vbatched
//! drivers.
//!
//! [`BatchService`] is a deterministic state machine driven by two
//! clocks that never mix roles:
//!
//! * the **arrival clock** (`now_s`) — advanced only by the caller's
//!   submitted timestamps ([`BatchService::submit`] /
//!   [`BatchService::advance_to`]). Every *decision* (window trigger,
//!   deadline cancellation, load shedding) reads this clock, never a
//!   wall clock, so a seeded replay reproduces every decision bit for
//!   bit (`clippy.toml` bans wall-clock types);
//! * the **device clock** (`Device::now`) — charged by the simulated
//!   kernels. A dispatched window's service time is the device-clock
//!   delta across its uploads, factorization and downloads, and is fed
//!   back into the arrival timeline as server busy time (a single-server
//!   queue: one device, windows execute back to back).
//!
//! Dynamic windowing: a window dispatches when `max_window` requests are
//! pending **or** the oldest pending request has waited `max_wait_s`,
//! whichever comes first — the paper's implicit-sorting scheduler run
//! *online*, with the two SLO knobs trading latency against occupancy.
//! Dispatch goes through the zero-alloc `_ws` entry points with pooled
//! batch buffers, under [`PotrfOptions`] normalized against the
//! admission cap `max_n` — the same pinning the multi-device scheduler
//! uses, so a matrix's factor bits are a pure function of its own
//! payload, never of which neighbors shared its window. That is what
//! makes the fault-free offline replay a bitwise oracle.

use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Device, DeviceConfig};

use vbatch_core::shard::{matrix_cost_s, normalized_options};
use vbatch_core::{
    getrf_vbatched_pooled, potrf_vbatched_max_ws, BatchReport, DeviceState, GetrfOptions, Outcome,
    PotrfOptions, RecoveryReport, VBatch, VbatchError,
};

use crate::fair::TenantQueues;
use crate::metrics::{LatencyStats, ServeStats};
use crate::request::{Op, Rejection, Request, RequestId, Response, ResponseStatus};

/// Tuning and policy knobs of one service instance.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Simulated device the service runs on.
    pub device: DeviceConfig,
    /// Admission cap on the matrix order; also the anchor for option
    /// normalization (every admitted size factorizes with the same
    /// pinned blocking, strategy and window width).
    pub max_n: usize,
    /// Dispatch a window as soon as this many requests are pending.
    pub max_window: usize,
    /// Dispatch a window once the oldest pending request has waited
    /// this long (simulated seconds).
    pub max_wait_s: f64,
    /// Bounded per-tenant queue depth (admission backpressure).
    pub tenant_queue_limit: usize,
    /// Global load-shedding threshold: refuse new work once the queued
    /// device-cost would exceed this many seconds.
    pub shed_cost_s: f64,
    /// Deficit-round-robin quantum in device-seconds per tenant per
    /// round (the fairness currency).
    pub drr_quantum_s: f64,
    /// Whole-window redispatch budget after a driver error (the rung
    /// *above* the driver's own [`vbatch_core::RecoveryPolicy`] ladder).
    /// The default of 4 is the most faults a
    /// [`vbatch_gpu_sim::FaultPlan::random_recoverable`] plan holds: one
    /// window can meet them all, one per attempt, and a recoverable plan
    /// must never surface as `Failed`.
    pub window_retries: u32,
    /// Simulated backoff charged to the device clock before window
    /// redispatch `k` (linear, like the driver's launch backoff).
    pub retry_backoff_s: f64,
    /// Base Cholesky options; normalized against `max_n` at
    /// construction.
    pub potrf: PotrfOptions,
    /// LU outer panel width (fixed so LU bits are composition-free too).
    pub getrf_nb: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            device: DeviceConfig::k40c(),
            max_n: 192,
            max_window: 64,
            max_wait_s: 2e-3,
            tenant_queue_limit: 256,
            shed_cost_s: 2e-2,
            drr_quantum_s: 2e-5,
            window_retries: 4,
            retry_backoff_s: 1e-4,
            potrf: PotrfOptions::default(),
            getrf_nb: 64,
        }
    }
}

impl ServeConfig {
    /// Modeled device cost of one request (the DRR and load-shedding
    /// currency). LU is charged at twice the Cholesky flop model
    /// (`n³/3` vs `2n³/3`); only the *relative* weights matter for
    /// fairness.
    #[must_use]
    pub fn request_cost_s<T: Scalar>(&self, op: Op, n: usize) -> f64 {
        let base = matrix_cost_s::<T>(&self.device, n);
        match op {
            Op::Potrf => base,
            Op::Getrf => 2.0 * base,
        }
    }

    /// The Cholesky options normalized on `dev` against `max_n`, and the
    /// LU options at the fixed panel width: what every window, and the
    /// offline oracle, factorizes with.
    pub(crate) fn options<T: Scalar>(&self, dev: &Device) -> (PotrfOptions, GetrfOptions) {
        let popts = normalized_options::<T>(dev, &self.potrf, self.max_n.max(1));
        let gopts = GetrfOptions {
            nb_panel: self.getrf_nb.max(1),
            recovery: self.potrf.recovery,
        };
        (popts, gopts)
    }
}

/// A long-running, multi-tenant batch-serving front end over one
/// simulated device.
pub struct BatchService<T: Scalar> {
    dev: Device,
    cfg: ServeConfig,
    popts: PotrfOptions,
    gopts: GetrfOptions,
    /// Driver workspace, batch pools and pivot arena of the device.
    dstate: DeviceState<T>,
    queues: TenantQueues<T>,
    now_s: f64,
    busy_until_s: f64,
    next_id: RequestId,
    responses: Vec<Response<T>>,
    latencies_s: Vec<f64>,
    stats: ServeStats,
    recovery: RecoveryReport,
}

impl<T: Scalar> BatchService<T> {
    /// Builds a service owning `dev`. Options are normalized against
    /// `cfg.max_n` once, here — the bit-identity anchor.
    #[must_use]
    pub fn new(dev: Device, cfg: ServeConfig) -> Self {
        let (popts, gopts) = cfg.options::<T>(&dev);
        Self {
            dev,
            cfg,
            popts,
            gopts,
            dstate: DeviceState::default(),
            queues: TenantQueues::new(),
            now_s: 0.0,
            busy_until_s: 0.0,
            next_id: 0,
            responses: Vec::new(),
            latencies_s: Vec::new(),
            stats: ServeStats::default(),
            recovery: RecoveryReport::default(),
        }
    }

    /// The device the service runs on (fault plans are installed and
    /// cleared through this handle).
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.dev
    }

    /// The service configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Current arrival-clock time.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Requests admitted but not yet answered.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queues.pending()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Recovery actions merged across every dispatched window, with
    /// quarantined entries remapped to [`RequestId`]s. Its `injected`
    /// log enumerates exactly the faults the device fired inside
    /// dispatched windows (failed attempts included).
    #[must_use]
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Latency quantiles over every completed request so far.
    #[must_use]
    pub fn latency_stats(&self) -> LatencyStats {
        LatencyStats::compute(&self.latencies_s)
    }

    /// Hands out (and clears) the terminal responses produced since the
    /// last call.
    pub fn take_responses(&mut self) -> Vec<Response<T>> {
        std::mem::take(&mut self.responses)
    }

    /// Submits one request at simulated time `t_s` (clamped monotonic:
    /// concurrent front ends may deliver slightly out of order). On
    /// acceptance returns the [`RequestId`] its eventual [`Response`]
    /// will carry.
    ///
    /// # Errors
    /// A typed [`Rejection`]; refusals are normal service behavior and
    /// cost no device time.
    pub fn submit(
        &mut self,
        t_s: f64,
        tenant: u32,
        op: Op,
        n: usize,
        payload: Vec<T>,
        deadline_s: Option<f64>,
    ) -> Result<RequestId, Rejection> {
        self.advance_to(t_s);
        self.stats.submitted += 1;
        if n == 0 {
            self.stats.rejected_invalid += 1;
            return Err(Rejection::Invalid("zero matrix order"));
        }
        if payload.len() != n * n {
            self.stats.rejected_invalid += 1;
            return Err(Rejection::Invalid("payload length != n*n"));
        }
        if n > self.cfg.max_n {
            self.stats.rejected_invalid += 1;
            return Err(Rejection::TooLarge {
                n,
                max_n: self.cfg.max_n,
            });
        }
        let cost_s = self.cfg.request_cost_s::<T>(op, n);
        if self.queues.queued_cost_s() + cost_s > self.cfg.shed_cost_s {
            self.stats.rejected_overloaded += 1;
            return Err(Rejection::Overloaded {
                queued_cost_s: self.queues.queued_cost_s(),
                shed_cost_s: self.cfg.shed_cost_s,
            });
        }
        let depth = self.queues.depth(tenant);
        if depth >= self.cfg.tenant_queue_limit {
            self.stats.rejected_tenant_full += 1;
            return Err(Rejection::TenantQueueFull {
                tenant,
                depth,
                limit: self.cfg.tenant_queue_limit,
            });
        }
        let id = self.next_id;
        self.next_id += 1;
        self.stats.accepted += 1;
        self.queues.enqueue(Request {
            id,
            tenant,
            op,
            n,
            payload,
            arrival_s: self.now_s,
            deadline_s,
            cost_s,
        });
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queues.pending());
        if self.queues.queued_cost_s() > self.stats.max_queued_cost_s {
            self.stats.max_queued_cost_s = self.queues.queued_cost_s();
        }
        // Fill trigger: dispatch immediately once the window is full
        // (the server may still be busy; the window then starts at
        // `busy_until_s`, which `fire_due` accounts for).
        self.fire_due(self.now_s);
        Ok(id)
    }

    /// Advances the arrival clock to `t_s`, firing every window whose
    /// trigger (fill or `max_wait_s`) lands at or before it.
    pub fn advance_to(&mut self, t_s: f64) {
        self.fire_due(t_s);
        if t_s > self.now_s {
            self.now_s = t_s;
        }
        self.cancel_expired();
    }

    /// Dispatches until no admitted request is pending. The arrival
    /// clock advances past every remaining trigger; the returned stats
    /// snapshot is taken after the last window retires.
    pub fn drain(&mut self) -> ServeStats {
        self.fire_due(f64::INFINITY);
        self.stats.clone()
    }

    /// Returns all pooled device memory (driver workspace, batch pools,
    /// pivot arena) to the device — after this, `device().mem_in_use()`
    /// is back to its pre-service baseline.
    pub fn release_memory(&mut self) {
        self.dstate.ws.release();
        self.dstate.pools.trim();
        self.dstate.pivots = None;
    }

    /// Consumes the service, releasing pooled memory and returning the
    /// device (for post-drain baseline assertions).
    #[must_use]
    pub fn into_device(mut self) -> Device {
        self.release_memory();
        self.dev
    }

    /// Fires every window whose effective dispatch time (trigger
    /// clamped by server busyness) is at or before `horizon_s`.
    fn fire_due(&mut self, horizon_s: f64) {
        loop {
            self.cancel_expired();
            let Some((oldest_s, _)) = self.queues.oldest() else {
                return;
            };
            let trigger = if self.queues.pending() >= self.cfg.max_window {
                self.now_s
            } else {
                oldest_s + self.cfg.max_wait_s
            };
            let fire = trigger.max(self.busy_until_s);
            if fire > horizon_s {
                return;
            }
            self.now_s = self.now_s.max(fire);
            self.cancel_expired();
            if self.queues.pending() > 0 {
                self.dispatch_window();
            }
        }
    }

    /// Cancels queued requests whose deadline passed (before dispatch —
    /// they never cost device time) and answers them `Expired`.
    fn cancel_expired(&mut self) {
        for r in self.queues.expire(self.now_s) {
            self.stats.expired += 1;
            let finish = r.deadline_s.unwrap_or(self.now_s);
            self.responses.push(Response::answer(
                &r,
                ResponseStatus::Expired,
                Outcome::Clean,
                finish,
                (0, Vec::new(), Vec::new()),
            ));
        }
    }

    /// Builds one window by DRR and executes it with the service-level
    /// retry ladder on top of the driver's own recovery policy.
    fn dispatch_window(&mut self) {
        let Some((_, op)) = self.queues.oldest() else {
            return;
        };
        let mut window =
            self.queues
                .collect_window(op, self.cfg.max_window, self.cfg.drr_quantum_s);
        if window.is_empty() {
            return;
        }
        // Build the batch in the driver's own order (stable, so equal
        // orders keep their DRR order): ascending for Cholesky's sorting
        // permutation, largest first for LU's launch order. Either is
        // then the identity, which the workspace already holds after any
        // larger window, so no window re-sends it. Members and their
        // shared finish time are the DRR's; responses follow this order.
        match op {
            Op::Potrf => window.sort_by_key(|r| r.n),
            Op::Getrf => window.sort_by_key(|r| std::cmp::Reverse(r.n)),
        }
        self.stats.windows += 1;
        let mut attempt = 0u32;
        loop {
            let ev0 = if self.dev.fault_active() {
                self.dev.fault_events().len()
            } else {
                0
            };
            match self.run_window(op, &window) {
                Ok((report, factors, pivots, service_s)) => {
                    self.finish_window(&window, &report, factors, pivots, service_s, attempt);
                    return;
                }
                Err(_) => {
                    // Keep the merged injection log exact even for the
                    // attempt that failed: the driver's report (which
                    // normally carries them) never came back.
                    if self.dev.fault_active() {
                        let ev = self.dev.fault_events();
                        if ev0 <= ev.len() {
                            self.recovery.injected.extend(ev[ev0..].iter().cloned());
                        }
                    }
                    if attempt < self.cfg.window_retries {
                        attempt += 1;
                        self.stats.window_retries += 1;
                        // Honest backoff on the device timeline, like
                        // the driver's launch-retry rung.
                        self.dev
                            .advance_time(self.cfg.retry_backoff_s * f64::from(attempt), 0.0);
                    } else {
                        self.stats.window_failures += 1;
                        self.fail_window(&window);
                        return;
                    }
                }
            }
        }
    }

    /// One attempt: pooled batch build, payload upload, driver run,
    /// factor (and pivot) download, pool reclaim. Every outcome — success
    /// or error — returns the batch buffers to the pools.
    #[allow(clippy::type_complexity)]
    fn run_window(
        &mut self,
        op: Op,
        window: &[Request<T>],
    ) -> Result<(BatchReport, Vec<Vec<T>>, Vec<Vec<usize>>, f64), VbatchError> {
        let t0 = self.dev.now();
        let sizes: Vec<usize> = window.iter().map(|r| r.n).collect();
        let wmax = sizes.iter().copied().max().unwrap_or(0);
        let dstate = &mut self.dstate;
        let mut batch = VBatch::<T>::alloc_square_pooled(&self.dev, &sizes, &mut dstate.pools)?;
        let payload_bytes: usize = window
            .iter()
            .map(|r| r.payload.len() * std::mem::size_of::<T>())
            .sum();
        type Attempt<T> = Result<(BatchReport, Vec<Vec<T>>, Vec<Vec<usize>>), VbatchError>;
        let result: Attempt<T> = (|| {
            for (k, r) in window.iter().enumerate() {
                batch.upload_matrix(k, &r.payload)?;
            }
            // upload_matrix bypasses the PCIe model; charge the wire
            // honestly so service time includes the transfer.
            self.dev.copy_htod_bytes(payload_bytes);
            let report = match op {
                Op::Potrf => {
                    potrf_vbatched_max_ws(&self.dev, &mut batch, wmax, &self.popts, &mut dstate.ws)?
                }
                Op::Getrf => getrf_vbatched_pooled(
                    &self.dev,
                    &mut batch,
                    &self.gopts,
                    &mut dstate.ws,
                    &mut dstate.pivots,
                )?,
            };
            let factors: Vec<Vec<T>> = (0..batch.count())
                .map(|k| batch.download_matrix(k))
                .collect();
            // Factors and an LU window's `i32` pivots come back in one
            // transfer.
            let pivot_bytes = match op {
                Op::Potrf => 0,
                Op::Getrf => window.iter().map(|r| r.n * 4).sum(),
            };
            self.dev.copy_dtoh_bytes(payload_bytes + pivot_bytes);
            let pivots: Vec<Vec<usize>> = match op {
                Op::Potrf => vec![Vec::new(); window.len()],
                Op::Getrf => {
                    let arena = dstate.pivots.as_ref().expect("getrf filled the slot");
                    window
                        .iter()
                        .enumerate()
                        .map(|(k, r)| arena.download(k, r.n))
                        .collect()
                }
            };
            Ok((report, factors, pivots))
        })();
        batch.reclaim(&mut dstate.pools);
        let (report, factors, pivots) = result?;
        Ok((report, factors, pivots, self.dev.now() - t0))
    }

    /// Emits terminal responses for a completed window and merges its
    /// recovery record.
    fn finish_window(
        &mut self,
        window: &[Request<T>],
        report: &BatchReport,
        factors: Vec<Vec<T>>,
        pivots: Vec<Vec<usize>>,
        service_s: f64,
        attempts: u32,
    ) {
        let finish = self.now_s + service_s;
        self.busy_until_s = finish;
        let mut outcome = report.recovery.outcome();
        if attempts > 0 && outcome == Outcome::Clean {
            // A redispatched window recovered even if the final attempt
            // itself was clean.
            outcome = Outcome::Recovered;
        }
        self.recovery
            .absorb(&report.recovery, |k| window[k].id as usize);
        for ((k, r), (factor, piv)) in window
            .iter()
            .enumerate()
            .zip(factors.into_iter().zip(pivots))
        {
            let info = report.info[k];
            let status = if info < 0 {
                ResponseStatus::Quarantined
            } else {
                ResponseStatus::Factored
            };
            self.stats.completed += 1;
            self.latencies_s.push(finish - r.arrival_s);
            self.responses.push(Response::answer(
                r,
                status,
                outcome,
                finish,
                (info, factor, piv),
            ));
        }
    }

    /// Emits `Failed` responses after the retry budget is spent — the
    /// window's requests get a terminal answer, the service stays up.
    fn fail_window(&mut self, window: &[Request<T>]) {
        for r in window {
            self.responses.push(Response::answer(
                r,
                ResponseStatus::Failed,
                Outcome::Degraded,
                self.now_s,
                (0, Vec::new(), Vec::new()),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};

    fn svc(cfg: ServeConfig) -> BatchService<f64> {
        BatchService::new(Device::new(cfg.device.clone()), cfg)
    }

    fn spd(seed: u64, n: usize) -> Vec<f64> {
        spd_vec::<f64>(&mut seeded_rng(seed), n)
    }

    #[test]
    fn fill_trigger_dispatches_at_max_window() {
        let mut s = svc(ServeConfig {
            max_window: 4,
            max_wait_s: 1.0,
            ..Default::default()
        });
        for i in 0..3 {
            s.submit(0.0, 0, Op::Potrf, 8, spd(i, 8), None).unwrap();
        }
        assert_eq!(s.stats().windows, 0, "below fill, inside max_wait");
        s.submit(0.0, 0, Op::Potrf, 8, spd(9, 8), None).unwrap();
        assert_eq!(s.stats().windows, 1, "fill trigger fires immediately");
        assert_eq!(s.pending(), 0);
        let resp = s.take_responses();
        assert_eq!(resp.len(), 4);
        assert!(resp.iter().all(|r| r.status == ResponseStatus::Factored));
        assert!(resp.iter().all(|r| r.finish_s > r.arrival_s));
    }

    #[test]
    fn max_wait_trigger_dispatches_partial_window() {
        let mut s = svc(ServeConfig {
            max_window: 64,
            max_wait_s: 1e-3,
            ..Default::default()
        });
        s.submit(0.0, 0, Op::Potrf, 8, spd(1, 8), None).unwrap();
        s.advance_to(0.5e-3);
        assert_eq!(s.stats().windows, 0);
        s.advance_to(2e-3);
        assert_eq!(s.stats().windows, 1, "max_wait fired");
        let resp = s.take_responses();
        assert_eq!(resp.len(), 1);
        // Queue wait is at least max_wait.
        assert!(resp[0].latency_s() >= 1e-3);
    }

    #[test]
    fn overload_sheds_with_typed_rejection() {
        let cfg = ServeConfig {
            max_window: 1024,
            max_wait_s: 1.0,
            shed_cost_s: 10.0 * ServeConfig::default().request_cost_s::<f64>(Op::Potrf, 32),
            tenant_queue_limit: 10_000,
            ..Default::default()
        };
        let mut s = svc(cfg);
        let mut shed = 0;
        for i in 0..64 {
            match s.submit(0.0, 0, Op::Potrf, 32, spd(i, 32), None) {
                Ok(_) => {}
                Err(Rejection::Overloaded { .. }) => shed += 1,
                Err(e) => panic!("unexpected rejection {e}"),
            }
        }
        assert!(shed > 0, "must shed above the cost ceiling");
        assert_eq!(s.stats().rejected_overloaded, shed);
        assert_eq!(s.stats().accepted, 64 - shed);
        // Shedding is a refusal, not a failure: draining completes all
        // accepted requests.
        s.drain();
        assert_eq!(s.stats().completed, 64 - shed);
    }

    #[test]
    fn tenant_queue_bound_is_per_tenant() {
        let cfg = ServeConfig {
            max_window: 1024,
            max_wait_s: 1.0,
            tenant_queue_limit: 4,
            shed_cost_s: 1e9,
            ..Default::default()
        };
        let mut s = svc(cfg);
        for i in 0..4 {
            s.submit(0.0, 7, Op::Potrf, 8, spd(i, 8), None).unwrap();
        }
        assert!(matches!(
            s.submit(0.0, 7, Op::Potrf, 8, spd(99, 8), None),
            Err(Rejection::TenantQueueFull { tenant: 7, .. })
        ));
        // A different tenant is unaffected.
        s.submit(0.0, 8, Op::Potrf, 8, spd(5, 8), None).unwrap();
        s.drain();
        assert_eq!(s.stats().completed, 5);
    }

    #[test]
    fn deadline_cancels_before_dispatch() {
        let mut s = svc(ServeConfig {
            max_window: 64,
            max_wait_s: 1e-3,
            ..Default::default()
        });
        s.submit(0.0, 0, Op::Potrf, 8, spd(1, 8), Some(0.2e-3))
            .unwrap();
        s.submit(0.0, 0, Op::Potrf, 8, spd(2, 8), Some(10.0))
            .unwrap();
        let launches_before = s.device().launch_count();
        s.drain();
        let resp = s.take_responses();
        assert_eq!(resp.len(), 2);
        let expired: Vec<_> = resp
            .iter()
            .filter(|r| r.status == ResponseStatus::Expired)
            .collect();
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].id, 0);
        assert!(expired[0].factor.is_empty());
        assert_eq!(s.stats().expired, 1);
        assert_eq!(s.stats().completed, 1);
        assert!(
            s.device().launch_count() > launches_before,
            "the surviving request still ran"
        );
    }

    #[test]
    fn invalid_and_oversized_are_typed() {
        let mut s = svc(ServeConfig::default());
        assert!(matches!(
            s.submit(0.0, 0, Op::Potrf, 0, vec![], None),
            Err(Rejection::Invalid(_))
        ));
        assert!(matches!(
            s.submit(0.0, 0, Op::Potrf, 8, vec![0.0; 63], None),
            Err(Rejection::Invalid(_))
        ));
        assert!(matches!(
            s.submit(0.0, 0, Op::Potrf, 4096, vec![0.0; 4096 * 4096], None),
            Err(Rejection::TooLarge { .. })
        ));
        assert_eq!(s.stats().rejected_invalid, 3);
    }

    #[test]
    fn mixed_ops_split_into_per_op_windows_and_verify() {
        let mut s = svc(ServeConfig {
            max_window: 8,
            max_wait_s: 1e-4,
            ..Default::default()
        });
        let mut rng = seeded_rng(42);
        let mut inputs = Vec::new();
        for i in 0..8u64 {
            let n = 6 + (i as usize % 3) * 5;
            if i % 2 == 0 {
                let m = spd_vec::<f64>(&mut rng, n);
                let id = s.submit(0.0, (i % 3) as u32, Op::Potrf, n, m.clone(), None);
                inputs.push((id.unwrap(), Op::Potrf, n, m));
            } else {
                let m = diag_dominant_vec::<f64>(&mut rng, n, n);
                let id = s.submit(0.0, (i % 3) as u32, Op::Getrf, n, m.clone(), None);
                inputs.push((id.unwrap(), Op::Getrf, n, m));
            }
        }
        s.drain();
        let resp = s.take_responses();
        assert_eq!(resp.len(), 8);
        assert!(s.stats().windows >= 2, "at least one window per op");
        for r in &resp {
            assert_eq!(r.status, ResponseStatus::Factored, "req {}", r.id);
            assert_eq!(r.info, 0);
            let (_, op, n, _) = inputs.iter().find(|(id, ..)| *id == r.id).unwrap();
            assert_eq!(r.op, *op);
            assert_eq!(r.factor.len(), n * n);
            if *op == Op::Getrf {
                assert_eq!(r.pivots.len(), *n);
            }
        }
        // Use the rng once more so the seed isn't "unused" lint bait.
        let _ = rng.gen_range(0..2);
    }

    #[test]
    fn pool_memory_returns_to_baseline_after_release() {
        let cfg = ServeConfig {
            max_window: 8,
            max_wait_s: 1e-4,
            ..Default::default()
        };
        let dev = Device::new(cfg.device.clone());
        let base = dev.mem_in_use();
        let mut s = BatchService::<f64>::new(dev, cfg);
        for i in 0..20 {
            let n = 8 + (i as usize % 4) * 8;
            s.submit(0.0, (i % 2) as u32, Op::Potrf, n, spd(i, n), None)
                .unwrap();
        }
        s.drain();
        assert!(s.device().mem_in_use() > base, "pools are warm");
        s.release_memory();
        let dev = s.into_device();
        assert_eq!(dev.mem_in_use(), base, "all pooled memory returned");
    }
}
