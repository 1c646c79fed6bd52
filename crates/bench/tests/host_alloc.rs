//! Host-allocation regression for the launch fast path: with a warm
//! [`DriverWorkspace`], the fused and the separated driver's
//! steady-state loops perform a
//! small, batch-size-independent number of host heap allocations per
//! kernel launch (constant launch names, pooled block-cost scratch and
//! pooled index staging removed the per-launch `format!` and `Vec`
//! churn, and the launch executor is a persistent pool that allocates
//! nothing per dispatch). The counting `#[global_allocator]` is the
//! test-only hook; the bound is a constant that does not depend on the
//! core count — a launch itself allocates nothing at any lane count,
//! what remains is the driver's per-call window bookkeeping — and it
//! fails on anything that allocates per launch lane, per block or per
//! matrix again. Host↔device copies large enough to split across the
//! executor's lanes allocate nothing beyond a download's result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: our caller upheld this method\'s contract; `System` gets it unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: our caller upheld this method\'s contract; `System` gets it unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: our caller upheld this method\'s contract; `System` gets it unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use vbatch_core::{
    potrf_vbatched_max_ws, DriverWorkspace, FusedOpts, PotrfOptions, SepOpts, Strategy,
};
use vbatch_dense::gen::seeded_rng;
use vbatch_gpu_sim::{Device, DeviceConfig};
use vbatch_workload::{fill_spd_batch, SizeDist};

/// Allocations per launch admitted on the warm path: the driver's
/// per-call window bookkeeping spread over its launches (measured: 26
/// over the fused call's 10 launches, 1 over the separated call's 22;
/// the launch path itself makes none). The spawn-per-launch fork-join
/// this replaced read 25 and 19 per launch on two lanes; per-block or
/// per-matrix allocation would blow straight through on a 384-matrix
/// batch.
const MAX_ALLOCS_PER_LAUNCH: u64 = 8;

/// The two tests share the process-wide counter, so they take turns.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn fused_warm_path_allocates_o1_per_launch() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let sizes = SizeDist::Uniform { max: 96 }.sample_batch(&mut seeded_rng(40), 384);
    let dev = Device::new(DeviceConfig::k40c());
    let mut batch = vbatch_core::VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(41));
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts::default(),
        ..Default::default()
    };
    let mut ws = DriverWorkspace::<f64>::new();
    // Cold call warms the workspace, the profiler map and the launch
    // scratch.
    potrf_vbatched_max_ws(&dev, &mut batch, 96, &opts, &mut ws).unwrap();

    fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(41));
    let launches0 = dev.launch_count();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    potrf_vbatched_max_ws(&dev, &mut batch, 96, &opts, &mut ws).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let launches = dev.launch_count() - launches0;
    assert!(launches > 0);
    let per_launch = allocs / launches;
    eprintln!("warm fused call: {allocs} host allocs / {launches} launches = {per_launch}/launch");
    assert!(
        per_launch <= MAX_ALLOCS_PER_LAUNCH,
        "warm fused driver call made {per_launch} host allocations per launch \
         (cap {MAX_ALLOCS_PER_LAUNCH}); per-block or per-call allocation crept back in"
    );
}

/// A 256×256 f64 matrix is 512 KiB, above the size at which host copies
/// split across the executor's lanes: the split itself allocates
/// nothing, so an upload makes no host allocation and a download exactly
/// one — the `Vec` it returns.
#[test]
fn split_transfers_allocate_only_the_returned_vec() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let n = 256;
    let dev = Device::new(DeviceConfig::k40c());
    let mut batch = vbatch_core::VBatch::<f64>::alloc_square(&dev, &[n]).unwrap();
    let a: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
    // The first split copy creates the process-wide executor.
    batch.upload_matrix(0, &a).unwrap();
    drop(batch.download_matrix(0));

    // The counter is process-wide, and the test harness allocates when
    // it starts another test's thread. That noise only adds, so the
    // fewest allocations over a few tries are the copies' own.
    let (mut up, mut down) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        batch.upload_matrix(0, &a).unwrap();
        let a1 = ALLOCS.load(Ordering::Relaxed);
        let back = batch.download_matrix(0);
        let a2 = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(back, a);
        up = up.min(a1 - a0);
        down = down.min(a2 - a1);
    }
    assert_eq!(up, 0, "upload_matrix allocated on the host");
    assert_eq!(down, 1, "download_matrix allocated beyond its result");
}

/// Warm `Strategy::Separated` call on `count` matrices of order 160
/// with 32-wide panels (five steps, every separated kernel launched,
/// `count`·10 diagonal `syrk` tiles): host allocations and launches.
fn warm_separated(count: usize) -> (u64, u64) {
    let sizes = vec![160usize; count];
    let dev = Device::new(DeviceConfig::k40c());
    let mut batch = vbatch_core::VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    let opts = PotrfOptions {
        strategy: Strategy::Separated,
        sep: SepOpts {
            nb_panel: 32,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut ws = DriverWorkspace::<f64>::new();
    fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(42));
    potrf_vbatched_max_ws(&dev, &mut batch, 160, &opts, &mut ws).unwrap();

    fill_spd_batch(&mut batch, &sizes, &mut seeded_rng(42));
    let launches0 = dev.launch_count();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    potrf_vbatched_max_ws(&dev, &mut batch, 160, &opts, &mut ws).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    (allocs, dev.launch_count() - launches0)
}

#[test]
fn separated_warm_path_allocates_o1_per_launch() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let (allocs, launches) = warm_separated(96);
    let (allocs2, launches2) = warm_separated(192);
    eprintln!(
        "warm separated call: {allocs} host allocs / {launches} launches at 96 matrices, \
         {allocs2} / {launches2} at 192"
    );
    assert!(launches > 0);
    assert_eq!(launches, launches2);
    assert!(
        allocs / launches <= MAX_ALLOCS_PER_LAUNCH,
        "warm separated driver call made {} host allocations per launch (cap {MAX_ALLOCS_PER_LAUNCH})",
        allocs / launches
    );
    // A kernel body that allocates per tile (960 more tiles in the
    // second batch) shows as growth with the batch.
    assert!(
        allocs2 <= allocs + 2 * launches,
        "host allocations grew with the batch ({allocs} -> {allocs2}): \
         a kernel body allocates per block or per matrix"
    );
}
