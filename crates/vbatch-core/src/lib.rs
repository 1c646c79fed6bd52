//! Variable-size batched matrix computation — the paper's contribution.
//!
//! This crate implements, on top of the simulated device in
//! `vbatch-gpu-sim`, the full framework of *Abdelfattah, Haidar, Tomov,
//! Dongarra — "On the Development of Variable Size Batched Computation
//! for Heterogeneous Parallel Architectures" (IPDPSW 2016)*:
//!
//! * the **vbatched interface** (§III-A): per-matrix sizes, leading
//!   dimensions and matrix pointers as *device-resident* arrays, with
//!   both the expert interface (caller passes `max_n`) and the
//!   LAPACK-style one (a device kernel computes the max) — [`batch`],
//!   [`aux`];
//! * **Approach 1 — fused kernels** (§III-D): the left-looking Cholesky
//!   step kernel fusing the customized rank-`nb` update, `potf2` and
//!   `trsm` with the panel in shared memory, plus the whole-matrix fused
//!   kernel for fixed-size batches — [`fused`];
//! * the two **early termination mechanisms** — ETM-classic and
//!   ETM-aggressive (§III-D1) — [`etm`];
//! * **implicit sorting** (§III-D2): size-windowed scheduling —
//!   [`sorting`];
//! * **Approach 2 — separated vbatched BLAS** (§III-E): `potf2` panels,
//!   `trsm` via diagonal-block inversion (`trtri`) plus `gemm`, tiled
//!   `gemm`, and `syrk` over the stored triangle, the Cholesky kernels
//!   launched on grids of their live work alone — [`sep`];
//! * the **factorization driver** with per-step auxiliary kernels and
//!   the fused/separated **crossover** (§III-F) — [`driver`];
//! * the paper's stated future work: **vbatched LU and QR** and batched
//!   triangular **solves** — [`lu`], [`qr`], [`solve`].
//!
//! # Quick start
//!
//! ```
//! use vbatch_core::{potrf_vbatched, PotrfOptions, VBatch};
//! use vbatch_gpu_sim::{Device, DeviceConfig};
//! use vbatch_dense::gen::{seeded_rng, spd_vec};
//!
//! let dev = Device::new(DeviceConfig::k40c());
//! let sizes = [5usize, 17, 3, 24];
//! let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
//! let mut rng = seeded_rng(1);
//! for (i, &n) in sizes.iter().enumerate() {
//!     batch.upload_matrix(i, &spd_vec(&mut rng, n)).unwrap();
//! }
//! let report = potrf_vbatched(&dev, &mut batch, &PotrfOptions::default()).unwrap();
//! assert!(report.all_ok());
//! ```

// Library code reports failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

/// Kernel name `{d|s}{base}` for precision `T`, e.g.
/// `kname!(T, "gemm_vbatched")` is `"dgemm_vbatched"` for `f64`: a
/// `&'static str` constant per precision (the paper's compile-time
/// templates), so [`vbatch_gpu_sim::Device::launch`] builds no name at
/// run time. The calling crate must depend on `vbatch_dense`.
#[macro_export]
macro_rules! kname {
    ($t:ty, $base:literal) => {
        if <$t as ::vbatch_dense::Scalar>::IS_DOUBLE {
            concat!("d", $base)
        } else {
            concat!("s", $base)
        }
    };
}

pub mod aux;
pub mod batch;
pub mod driver;
pub mod etm;
pub mod fused;
pub mod host;
pub mod kernels;
pub mod lu;
pub mod qr;
pub mod recover;
pub mod report;
pub mod sep;
pub mod shard;
pub mod solve;
pub mod sorting;
pub mod workspace;

pub use batch::{BatchPools, BatchView, VBatch};
pub use driver::{
    potrf_vbatched, potrf_vbatched_max, potrf_vbatched_max_ws, potrf_vbatched_ws, FusedOpts,
    PotrfOptions, SepOpts, Strategy,
};
pub use etm::EtmPolicy;
pub use host::{getrf_batch_host, potrf_batch_host, HostCostModel, HostEngine, HostState};
pub use lu::{getrf_vbatched, getrf_vbatched_pooled, getrf_vbatched_ws, GetrfOptions, PivotArray};
pub use recover::{Outcome, RecoveryPolicy, RecoveryReport};
pub use report::{BatchReport, VbatchError};
pub use shard::{
    getrf_sharded, plan_shards, potrf_hybrid, potrf_sharded, DeviceShardStats, DeviceState,
    HostPeerReport, Shard, ShardOpts, ShardedReport, ShardedState,
};
pub use workspace::DriverWorkspace;
