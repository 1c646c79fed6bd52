//! Request/response surface of the serving front end.
//!
//! One request is one matrix — the request-per-matrix API shape of the
//! batched-GEMM interface work (PAPERS.md, Jhurani/Mullowney): a tenant
//! submits a single `n × n` payload plus an operation, and receives the
//! factor (or a typed refusal) back. The service owns coalescing
//! requests into size-sorted vbatched windows; clients never see the
//! batching.

use vbatch_core::Outcome;

/// Identifier the service assigns to every *accepted* request, in
/// admission order.
pub type RequestId = u64;

/// The factorization a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Cholesky (`potrf`) of an SPD matrix.
    Potrf,
    /// LU with partial pivoting (`getrf`).
    Getrf,
}

/// Typed refusal at admission. Every variant is a *normal* overload or
/// validation outcome — the service never panics a client away.
#[derive(Clone, Debug, PartialEq)]
pub enum Rejection {
    /// The global load-shedding threshold would be exceeded: the queued
    /// work already represents `queued_cost_s` seconds of device time
    /// against a ceiling of `shed_cost_s`. Open-loop clients must slow
    /// down or retry later.
    Overloaded {
        /// Device-seconds of work queued at the time of the refusal.
        queued_cost_s: f64,
        /// The configured shedding ceiling in device-seconds.
        shed_cost_s: f64,
    },
    /// This tenant's bounded queue is full (per-tenant backpressure —
    /// one flooding tenant cannot consume the global budget).
    TenantQueueFull {
        /// The refusing tenant.
        tenant: u32,
        /// Requests the tenant already has queued.
        depth: usize,
        /// The per-tenant queue bound.
        limit: usize,
    },
    /// The matrix order exceeds the service's admission cap (the cap
    /// also anchors option normalization, so every admitted size has a
    /// composition-independent factorization).
    TooLarge {
        /// Requested order.
        n: usize,
        /// Largest admissible order.
        max_n: usize,
    },
    /// Malformed request (zero order, payload/extent mismatch, …).
    Invalid(&'static str),
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::Overloaded {
                queued_cost_s,
                shed_cost_s,
            } => write!(
                f,
                "overloaded: {queued_cost_s:.3e}s of work queued against a \
                 {shed_cost_s:.3e}s shedding ceiling"
            ),
            Rejection::TenantQueueFull {
                tenant,
                depth,
                limit,
            } => write!(f, "tenant {tenant} queue full ({depth}/{limit})"),
            Rejection::TooLarge { n, max_n } => {
                write!(f, "order {n} exceeds the admission cap {max_n}")
            }
            Rejection::Invalid(why) => write!(f, "invalid request: {why}"),
        }
    }
}

impl std::error::Error for Rejection {}

/// How an accepted request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseStatus {
    /// Factorization completed; `factor` (and `pivots` for LU) hold the
    /// result and `info` is the LAPACK code (0, or positive breakdown
    /// column for a non-SPD/singular input).
    Factored,
    /// The runtime quarantined the matrix (negative `info`): its window
    /// degraded gracefully instead of failing every neighbor.
    Quarantined,
    /// The per-request deadline passed while the request was still
    /// queued; it was cancelled before dispatch and never cost device
    /// time.
    Expired,
    /// The window failed even after the service-level retry budget
    /// (unrecoverable device error) — reported, never panicked.
    Failed,
}

/// One accepted request, inside the service.
#[derive(Clone, Debug)]
pub(crate) struct Request<T> {
    pub id: RequestId,
    pub tenant: u32,
    pub op: Op,
    pub n: usize,
    pub payload: Vec<T>,
    pub arrival_s: f64,
    pub deadline_s: Option<f64>,
    /// Model cost of this matrix on the device (the DRR currency).
    pub cost_s: f64,
}

/// The terminal answer for one accepted request.
#[derive(Clone, Debug)]
pub struct Response<T> {
    /// The id returned by `submit`.
    pub id: RequestId,
    /// Submitting tenant.
    pub tenant: u32,
    /// Requested operation.
    pub op: Op,
    /// Matrix order.
    pub n: usize,
    /// How the request ended.
    pub status: ResponseStatus,
    /// Per-matrix LAPACK `info` (negative = quarantined by the runtime).
    pub info: i32,
    /// Column-major factor (empty for `Expired`/`Failed`).
    pub factor: Vec<T>,
    /// LU pivots (empty unless `op == Getrf` and the window completed).
    pub pivots: Vec<usize>,
    /// Health of the window that carried this request.
    pub outcome: Outcome,
    /// Simulated arrival time.
    pub arrival_s: f64,
    /// Simulated completion (or cancellation) time.
    pub finish_s: f64,
}

impl<T> Response<T> {
    /// The terminal answer to `req`. `result` is the request's
    /// `(info, factor, pivots)` from its window; a request that never
    /// completed (`Expired`, `Failed`) carries `(0, [], [])`.
    pub(crate) fn answer(
        req: &Request<T>,
        status: ResponseStatus,
        outcome: Outcome,
        finish_s: f64,
        (info, factor, pivots): (i32, Vec<T>, Vec<usize>),
    ) -> Self {
        Response {
            id: req.id,
            tenant: req.tenant,
            op: req.op,
            n: req.n,
            status,
            info,
            factor,
            pivots,
            outcome,
            arrival_s: req.arrival_s,
            finish_s,
        }
    }

    /// Queue wait + service time in simulated seconds.
    #[must_use]
    pub fn latency_s(&self) -> f64 {
        self.finish_s - self.arrival_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejection_display_is_informative() {
        let r = Rejection::Overloaded {
            queued_cost_s: 1.5e-3,
            shed_cost_s: 1e-3,
        };
        assert!(r.to_string().contains("overloaded"));
        let r = Rejection::TenantQueueFull {
            tenant: 7,
            depth: 64,
            limit: 64,
        };
        assert!(r.to_string().contains("tenant 7"));
        assert!(Rejection::TooLarge { n: 900, max_n: 512 }
            .to_string()
            .contains("900"));
        assert!(Rejection::Invalid("zero order")
            .to_string()
            .contains("zero"));
    }

    #[test]
    fn latency_is_finish_minus_arrival() {
        let req = Request::<f64> {
            id: 1,
            tenant: 0,
            op: Op::Potrf,
            n: 4,
            payload: vec![],
            arrival_s: 2.0,
            deadline_s: None,
            cost_s: 0.0,
        };
        let r = Response::answer(
            &req,
            ResponseStatus::Factored,
            Outcome::Clean,
            2.5,
            (0, vec![], vec![]),
        );
        assert!((r.latency_s() - 0.5).abs() < 1e-12);
    }
}
