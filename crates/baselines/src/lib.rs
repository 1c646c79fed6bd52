//! Comparison baselines for variable-size batched factorization
//! (paper §IV-F, Figs. 8–10).
//!
//! * [`cpu_model`] — the analytic model of the paper's CPU platform
//!   (two 8-core Xeon E5-2670 running MKL): all-cores-per-matrix,
//!   one-core-per-matrix with static or dynamic scheduling, and the
//!   CPU power model for the energy study;
//! * [`cpu_real`] — a real execution path on the workspace worker pool
//!   (dynamic one-core-per-matrix), used by tests to keep the model
//!   honest about numerics;
//! * [`hybrid`] — the MAGMA hybrid CPU+GPU algorithm applied one matrix
//!   at a time (panel on the CPU, trailing update on the GPU, PCIe
//!   transfers in between) — the paper's "not the correct choice for
//!   this type of workload" baseline;
//! * [`padded`] — fixed-size batched factorization after zero-padding
//!   every matrix to the batch maximum, including its out-of-memory
//!   failure mode.

pub mod cpu_model;
pub mod cpu_real;
pub mod hybrid;
pub mod padded;

pub use cpu_model::{CpuConfig, CpuSchedule, CpuTimeResult};
