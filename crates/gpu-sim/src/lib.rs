//! A virtual throughput-oriented accelerator.
//!
//! The paper's framework targets an NVIDIA Tesla K40c; this crate is the
//! substitution for that hardware gate: a CUDA-like execution model whose
//! kernels *really execute* (on host threads, producing bit-real numeric
//! results) while a calibrated analytic model produces the *simulated*
//! time, occupancy and energy that the benchmark harness reports.
//!
//! The model deliberately captures exactly the mechanisms the paper's
//! performance story rests on:
//!
//! * **kernel launch overhead** — the reason fused kernels beat separated
//!   BLAS calls for tiny matrices (paper §III-C/D);
//! * **shared-memory-limited occupancy** — the reason the fused approach
//!   decays and a crossover to separated kernels exists (§III-E, Fig. 7);
//! * **warp-granularity SIMT cost** — the mechanism behind ETM-classic
//!   vs. ETM-aggressive (§III-D1);
//! * **wave-level load imbalance across SMs** — the mechanism implicit
//!   sorting attacks (§III-D2);
//! * **a memory-bandwidth roofline, PCIe transfers, finite device
//!   memory** (the padding baseline runs out of it, Fig. 8/9), and
//! * **an energy integrator** (Fig. 10).
//!
//! # Example
//!
//! ```
//! use vbatch_gpu_sim::{Device, DeviceConfig, LaunchConfig};
//!
//! let dev = Device::new(DeviceConfig::k40c());
//! let buf = dev.alloc::<f64>(1024).unwrap();
//! buf.fill_from_host(&vec![1.0; 1024]);
//! let ptr = buf.ptr();
//!
//! // Double every element, one thread block per 256-element chunk.
//! let stats = dev
//!     .launch("scale", LaunchConfig::grid_1d(4, 256), move |blk| {
//!         let base = blk.block_idx().x as usize * 256;
//!         for i in 0..256 {
//!             ptr.set(base + i, ptr.get(base + i) * 2.0);
//!         }
//!         blk.gmem_read(256 * 8);
//!         blk.gmem_write(256 * 8);
//!         blk.dp_flops(256, 1.0);
//!     })
//!     .unwrap();
//! assert!(stats.time_s > 0.0);
//! assert_eq!(buf.read_to_host()[0], 2.0);
//! ```

// Library code reports failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
// Every unsafe operation (DeviceBuffer casts, Send/Sync assertions,
// fault-injection pokes, the worker pool's job hand-off) must sit in an
// explicit block with its own SAFETY comment; their number is pinned by
// `tests/unsafe_ratchet.rs`.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod cost;
pub mod device;
mod energy;
pub mod fault;
pub mod grid;
pub mod group;
pub mod mem;
pub mod occupancy;
pub mod pool;
pub mod sched;
pub mod stats;
pub mod workers;

pub use config::DeviceConfig;
pub use cost::{BlockCost, BlockCtx};
pub use device::{Device, LaunchError};
pub use fault::{Corruption, Fault, FaultPlan, InjectionEvent};
pub use grid::{Dim3, LaunchConfig};
pub use group::{CopyComputeTimeline, DeviceGroup};
pub use mem::{DeviceBuffer, DevicePtr, OomError};
pub use occupancy::Occupancy;
pub use pool::MemoryPool;
pub use stats::{KernelStats, ProfileEntry};
