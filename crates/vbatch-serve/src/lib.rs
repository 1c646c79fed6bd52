//! vbatch-serve: a resilient multi-tenant batch-serving front end over
//! the vbatched factorization drivers.
//!
//! The paper's variable-size batched kernels assume someone hands them a
//! batch. This crate is that someone: a long-running ingestion layer
//! that accepts per-matrix `potrf`/`getrf` requests from many concurrent
//! clients and coalesces them into size-sorted vbatched windows, run
//! through the zero-alloc workspace entry points under the recovery
//! ladder. The serving policies:
//!
//! * **Dynamic windowing** — dispatch on `max_wait` deadline or
//!   `max_window` fill, whichever first ([`ServeConfig`]);
//! * **Admission control** — bounded per-tenant queues and a global
//!   device-cost load-shedding ceiling, refused with typed
//!   [`Rejection`]s, never panics;
//! * **Fairness** — deficit round-robin across tenants with the device
//!   cost model as the currency;
//! * **Deadlines** — per-request timeout cancellation *before* dispatch;
//! * **Resilience** — driver-level recovery plus service-level window
//!   redispatch with simulated backoff; quarantined matrices degrade
//!   their own response ([`ResponseStatus::Quarantined`]) instead of
//!   failing the window;
//! * **Determinism** — simulated clocks only; a seeded soak
//!   ([`soak`]) replays bit-identically and its accepted responses match
//!   a fault-free offline oracle bit for bit.
//!
//! [`BatchService`] is the deterministic single-threaded core;
//! [`ServeExecutor`] is the audited threaded shell for concurrent
//! clients.

#![forbid(unsafe_code)]
// Library code reports failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod exec;
pub mod fair;
pub mod metrics;
pub mod request;
pub mod service;
pub mod soak;

pub use exec::{ClientHandle, ServeExecutor};
pub use metrics::{LatencyStats, ServeStats};
pub use request::{Op, Rejection, RequestId, Response, ResponseStatus};
pub use service::{BatchService, ServeConfig};
pub use soak::{
    build_schedule, offline_factor, run_soak, verify_bitwise, Arrival, SoakConfig, SoakOutcome,
};
