//! The driver recovery layer: bounded retry, OOM degradation, and the
//! finite-check scrubber.
//!
//! The paper's ETM mechanisms retire dead thread blocks so a broken-down
//! matrix never poisons live neighbors; this module is the host-side
//! analog for *device* failures. Every vbatched driver applies a
//! [`RecoveryPolicy`] as a three-rung ladder:
//!
//! 1. **retry** — a transient injected launch rejection
//!    ([`vbatch_gpu_sim::LaunchError::Injected`]) or, under an active
//!    fault plan, a denied allocation is retried up to
//!    [`RecoveryPolicy::max_retries`] times with a linear simulated
//!    backoff (charged to the device clock at idle activity, so the
//!    timeline stays honest). Occupancy rejections are deterministic and
//!    never retried; genuine OOM (no fault plan) skips the retry rung
//!    entirely.
//! 2. **split** — if a fused sorting window's scratch still cannot be
//!    allocated, the window is recursively halved (down to one matrix)
//!    so each sub-batch fits the pooled workspace; as a last resort the
//!    whole [`crate::workspace::DriverWorkspace`] is released back to
//!    the device. Sub-batch factorization is bitwise-identical to the
//!    full window because the per-matrix fused-step arithmetic depends
//!    only on the matrix's own order and the (globally fixed) blocking.
//! 3. **quarantine** — while a fault plan is installed on the device,
//!    a *simulated scrubber kernel* (`vbatch_scrub_finite`; clock and
//!    energy charged like any other launch) runs after each step. It
//!    scans still-healthy matrices for non-finite values planted by
//!    corruption faults and retires them with `info = -(first bad
//!    column)`. Without a plan it never runs, so fault-free runs pay
//!    nothing for it. The negative-`info` convention distinguishes "quarantined
//!    by the runtime" from LAPACK's positive "numerical breakdown", and
//!    every downstream kernel already skips matrices with `info != 0` —
//!    the corruption cannot propagate through `syrk`/`gemm` updates into
//!    healthy neighbors.
//!
//! Every rung taken is recorded in a [`RecoveryReport`] attached to the
//! returned [`crate::BatchReport`], so callers can distinguish
//! [`Outcome::Clean`], [`Outcome::Recovered`] and [`Outcome::Degraded`]
//! runs.

use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Device, InjectionEvent, LaunchConfig, LaunchError};

use crate::etm::EtmPolicy;
use crate::kernels::{charge_read, charge_write};
use crate::report::{BatchReport, VbatchError};
use crate::VBatch;

/// How a driver responds to injected/transient device failures.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Retry budget per launch/allocation site (0 disables the rung).
    pub max_retries: u32,
    /// Simulated backoff before retry `k` is `k · backoff_s` seconds,
    /// charged to the device clock at idle activity.
    pub backoff_s: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_s: 1e-5,
        }
    }
}

/// Overall health of a driver run, derived from its [`RecoveryReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No recovery action was needed.
    Clean,
    /// Faults occurred but every matrix was fully computed (results are
    /// bitwise-identical to a fault-free run).
    Recovered,
    /// One or more matrices were quarantined (negative `info`).
    Degraded,
}

/// Record of every recovery action a driver run took.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Launch attempts retried after an injected rejection.
    pub retried_launches: u32,
    /// Allocation attempts retried after a denial.
    pub retried_allocs: u32,
    /// Fused sorting windows split in half to fit memory.
    pub window_splits: u32,
    /// Times the pooled workspace was released as a last-resort OOM
    /// response.
    pub workspace_releases: u32,
    /// Finite-scrubber kernel launches that completed.
    pub scrub_passes: u32,
    /// Matrices retired with negative `info` by the scrubber.
    pub quarantined: Vec<usize>,
    /// Faults the device injected during the run, in order.
    pub injected: Vec<InjectionEvent>,
}

impl RecoveryReport {
    /// Classifies the run.
    #[must_use]
    pub fn outcome(&self) -> Outcome {
        if !self.quarantined.is_empty() {
            Outcome::Degraded
        } else if self.retried_launches > 0
            || self.retried_allocs > 0
            || self.window_splits > 0
            || self.workspace_releases > 0
            || !self.injected.is_empty()
        {
            Outcome::Recovered
        } else {
            Outcome::Clean
        }
    }

    /// Merges `child`, the record of a run over a subset of this
    /// record's matrices, into `self`: counters add, `child`'s
    /// injections append in order, and its quarantine indices map
    /// through `remap` into this record's numbering.
    pub fn absorb(&mut self, child: &RecoveryReport, remap: impl Fn(usize) -> usize) {
        self.retried_launches += child.retried_launches;
        self.retried_allocs += child.retried_allocs;
        self.window_splits += child.window_splits;
        self.workspace_releases += child.workspace_releases;
        self.scrub_passes += child.scrub_passes;
        self.injected.extend(child.injected.iter().cloned());
        self.quarantined
            .extend(child.quarantined.iter().map(|&k| remap(k)));
    }
}

/// Runs `op`, retrying transient failures per `pol`: injected launch
/// rejections always qualify; denied allocations qualify only while a
/// fault plan is active (genuine OOM escalates immediately to the
/// split rung or the caller). Each retry charges a linear backoff to the
/// simulated clock.
pub(crate) fn with_retry<R>(
    dev: &Device,
    pol: &RecoveryPolicy,
    rec: &mut RecoveryReport,
    mut op: impl FnMut() -> Result<R, VbatchError>,
) -> Result<R, VbatchError> {
    let mut attempt = 0u32;
    loop {
        let res = op();
        let transient_launch = matches!(res, Err(VbatchError::Launch(LaunchError::Injected)));
        let transient_alloc = matches!(res, Err(VbatchError::Oom(_))) && dev.fault_active();
        if (transient_launch || transient_alloc) && attempt < pol.max_retries {
            attempt += 1;
            if transient_launch {
                rec.retried_launches += 1;
            } else {
                rec.retried_allocs += 1;
            }
            dev.advance_time(pol.backoff_s * f64::from(attempt), 0.0);
        } else {
            return res;
        }
    }
}

/// The finite-check scrubber, a no-op unless a fault plan is installed:
/// one simulated kernel launch (one thread block per matrix) that scans each still-healthy matrix's full extent
/// and retires any matrix holding a non-finite value with
/// `info = -(first offending column)` (1-based). Matrices already marked
/// (`info != 0`) are skipped — LAPACK breakdowns keep their positive
/// codes, and a singular LU factor's legitimate `Inf`s are never
/// re-flagged. Clock and energy are charged for the full scan, so fault
/// tolerance has an honest simulated cost.
pub(crate) fn scrub_batch<T: Scalar>(
    dev: &Device,
    batch: &VBatch<T>,
    pol: &RecoveryPolicy,
    rec: &mut RecoveryReport,
) -> Result<(), VbatchError> {
    if !dev.fault_active() || batch.count() == 0 {
        return Ok(());
    }
    let count = batch.count();
    let a = batch.view();
    let cfg = LaunchConfig::grid_1d(count as u32, 128);
    with_retry(dev, pol, rec, || {
        dev.launch(kname!(T, "vbatch_scrub_finite"), cfg, move |ctx| {
            let i = ctx.linear_block_id();
            let (m, n, ld) = a.dims(i);
            let live = m > 0 && n > 0 && a.info.get(i) == 0;
            if !EtmPolicy::Classic.apply(ctx, if live { n } else { 0 }) {
                return;
            }
            let p = a.ptrs.get(i);
            'scan: for j in 0..n {
                for r in 0..m {
                    if !p.get(j * ld + r).is_finite() {
                        a.info.set(i, -((j + 1) as i32));
                        break 'scan;
                    }
                }
            }
            charge_read::<T>(ctx, m * n);
            charge_write::<T>(ctx, 1);
            ctx.sync();
        })?;
        Ok(())
    })?;
    rec.scrub_passes += 1;
    Ok(())
}

/// Snapshot of the device fault-event log length at driver entry (0 when
/// no plan is installed).
pub(crate) fn fault_events_start(dev: &Device) -> usize {
    if dev.fault_active() {
        dev.fault_events().len()
    } else {
        0
    }
}

/// Finalizes a run's [`RecoveryReport`] at driver exit into its
/// [`BatchReport`]: attaches the injection events fired since `start`
/// and derives the quarantine list from negative `info` codes.
pub(crate) fn finish_recovery(
    dev: &Device,
    start: usize,
    mut rec: RecoveryReport,
    info: Vec<i32>,
) -> BatchReport {
    if dev.fault_active() {
        let mut ev = dev.fault_events();
        if start <= ev.len() {
            rec.injected = ev.split_off(start);
        }
    }
    rec.quarantined = info
        .iter()
        .enumerate()
        .filter(|(_, &v)| v < 0)
        .map(|(i, _)| i)
        .collect();
    BatchReport {
        info,
        recovery: rec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_gpu_sim::{DeviceConfig, FaultPlan};

    fn dev() -> Device {
        Device::new(DeviceConfig::k40c())
    }

    #[test]
    fn outcome_classification() {
        let mut r = RecoveryReport::default();
        assert_eq!(r.outcome(), Outcome::Clean);
        r.retried_launches = 1;
        assert_eq!(r.outcome(), Outcome::Recovered);
        r.quarantined.push(3);
        assert_eq!(r.outcome(), Outcome::Degraded);
    }

    #[test]
    fn absorb_sums_counters_remaps_quarantine_and_appends_injections() {
        let ev = |launch| InjectionEvent::LaunchRejected { name: "k", launch };
        let rec = |n: u32, quarantined, injected| RecoveryReport {
            retried_launches: n,
            retried_allocs: 2 * n,
            window_splits: 3 * n,
            workspace_releases: 4 * n,
            scrub_passes: 5 * n,
            quarantined,
            injected,
        };
        let mut parent = rec(1, vec![7], vec![ev(0)]);
        parent.absorb(&rec(10, vec![0, 2], vec![ev(1), ev(2)]), |k| {
            [10, 11, 12][k]
        });
        let merged = rec(11, vec![7, 10, 12], vec![ev(0), ev(1), ev(2)]);
        assert_eq!(parent, merged);
        parent.absorb(&RecoveryReport::default(), |_| unreachable!());
        assert_eq!(parent, merged, "an empty child is a no-op");
    }

    #[test]
    fn retry_absorbs_injected_launch_and_charges_backoff() {
        let d = dev();
        d.install_fault_plan(FaultPlan::new().transient_launch("flaky", 0, 2));
        let pol = RecoveryPolicy::default();
        let mut rec = RecoveryReport::default();
        let t0 = d.now();
        with_retry(&d, &pol, &mut rec, || {
            d.launch(kname!(f64, "flaky"), LaunchConfig::grid_1d(1, 32), |_b| {})
                .map(|_| ())
                .map_err(VbatchError::from)
        })
        .unwrap();
        assert_eq!(rec.retried_launches, 2);
        assert!(
            d.now() > t0 + pol.backoff_s * 2.9,
            "backoff must be charged"
        );
        d.clear_fault_plan();
    }

    #[test]
    fn retry_gives_up_after_budget() {
        let d = dev();
        d.install_fault_plan(FaultPlan::new().transient_launch("", 0, 10));
        let pol = RecoveryPolicy::default();
        let mut rec = RecoveryReport::default();
        let r: Result<(), VbatchError> = with_retry(&d, &pol, &mut rec, || {
            d.launch("doomed", LaunchConfig::grid_1d(1, 32), |_b| {})
                .map(|_| ())
                .map_err(VbatchError::from)
        });
        assert!(matches!(r, Err(VbatchError::Launch(LaunchError::Injected))));
        assert_eq!(rec.retried_launches, pol.max_retries);
        d.clear_fault_plan();
    }

    #[test]
    fn genuine_oom_is_not_retried() {
        let d = Device::new(DeviceConfig::tiny_test()); // 1 MB
        let pol = RecoveryPolicy::default();
        let mut rec = RecoveryReport::default();
        let mut calls = 0u32;
        let r: Result<(), VbatchError> = with_retry(&d, &pol, &mut rec, || {
            calls += 1;
            d.alloc::<f64>(1 << 20)
                .map(|_| ())
                .map_err(VbatchError::from)
        });
        assert!(matches!(r, Err(VbatchError::Oom(_))));
        assert_eq!(calls, 1, "no fault plan → no alloc retry");
        assert_eq!(rec.retried_allocs, 0);
    }
}
