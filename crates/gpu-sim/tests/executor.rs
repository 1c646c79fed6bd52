//! The launch executor's contracts, seen through `Device::launch`:
//! every block runs exactly once and lands in its own cost slot for any
//! grid size, concurrent launchers and launches from inside a kernel
//! complete without waiting for the pool, a panicking kernel reaches
//! its launcher and leaves the device usable, and the simulated clock
//! and energy of a fixed launch sequence are one bit pattern whatever
//! the lane count (CI runs this file at `VBATCH_THREADS=1` and `=4`;
//! the lane count is resolved once per process).
#![allow(
    clippy::disallowed_methods,
    reason = "concurrent launchers are real threads by purpose"
)]

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Barrier;

use vbatch_gpu_sim::workers::resolved_threads;
use vbatch_gpu_sim::{BlockCtx, Device, DeviceConfig, KernelStats, LaunchConfig};

fn dev() -> Device {
    Device::new(DeviceConfig::k40c())
}

/// Block `i` charges `i + 1` useful flops on one thread.
fn charge_by_index(blk: &mut BlockCtx) {
    blk.dp_flops(1, (blk.linear_block_id() + 1) as f64);
}

/// Bit-exact fingerprint of one launch's statistics.
fn fingerprint(s: &KernelStats) -> String {
    format!(
        "{:016x} {:?} {:?}",
        s.time_s.to_bits(),
        s.occupancy,
        s.timing
    )
}

#[test]
fn every_block_runs_once_and_fills_its_cost_slot() {
    let d = dev();
    let mut grids = vec![0usize, 1, 2, 100_000];
    // Either side of the executor's lane count.
    let lanes = resolved_threads();
    grids.extend([lanes.saturating_sub(1), lanes + 1]);
    for n in grids {
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let launched = d.launch("count", LaunchConfig::grid_1d(n as u32, 32), |blk| {
            hits[blk.linear_block_id()].fetch_add(1, Ordering::Relaxed);
            charge_by_index(blk);
        });
        if n == 0 {
            // An empty grid is rejected before the executor sees it.
            assert!(launched.is_err());
            continue;
        }
        let stats = launched.unwrap();
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "grid of {n}: a block ran zero or several times"
        );
        assert_eq!(stats.timing.blocks, n as u64);
        // 1 + 2 + ... + n is exact in f64 here, so a slot left at its
        // default or written twice would show.
        assert_eq!(
            stats.timing.flops_useful,
            (n * (n + 1) / 2) as f64,
            "grid of {n}: per-block costs did not all reach the scheduler"
        );
    }
}

/// Sixteen launches of mixed grid sizes on `d`; one fingerprint each.
fn launch_sequence(d: &Device) -> Vec<String> {
    (0..16usize)
        .map(|k| {
            let grid = [1u32, 2, 3, 17, 64, 257][k % 6];
            let s = d
                .launch("seq", LaunchConfig::grid_1d(grid, 64), move |blk| {
                    blk.dp_flops(64, (k + 1) as f64 * 1e3);
                    blk.gmem_read(4096 * (blk.linear_block_id() % 3 + 1));
                    blk.sync();
                })
                .unwrap();
            fingerprint(&s)
        })
        .collect()
}

#[test]
fn concurrent_launchers_match_a_sequential_run() {
    let reference = launch_sequence(&dev());

    // Eight threads, each on a device of its own.
    let gate = Barrier::new(8);
    let per_thread: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    let d = dev();
                    gate.wait();
                    launch_sequence(&d)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in &per_thread {
        assert_eq!(got, &reference);
    }

    // Eight threads on one shared device: per-launch statistics do not
    // depend on what else the device is doing, and the clock has taken
    // every launch once (sums of the same terms in another order, hence
    // the tolerance).
    let shared = dev();
    let per_thread: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    gate.wait();
                    launch_sequence(&shared)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for got in &per_thread {
        assert_eq!(got, &reference);
    }
    assert_eq!(shared.launch_count(), 8 * 16);
    let single = dev();
    launch_sequence(&single);
    assert!((shared.now() - 8.0 * single.now()).abs() <= 1e-9 * shared.now());
}

#[test]
fn launch_from_inside_a_kernel_completes_inline() {
    let outer = dev();
    let inner = dev();
    let inner_blocks = AtomicUsize::new(0);
    outer
        .launch("outer", LaunchConfig::grid_1d(6, 32), |blk| {
            let issuer = std::thread::current().id();
            inner
                .launch("inner", LaunchConfig::grid_1d(5, 32), |_| {
                    // The pool is running `outer`, so the nested grid
                    // stays on the thread that issued it.
                    assert_eq!(std::thread::current().id(), issuer);
                    inner_blocks.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            charge_by_index(blk);
        })
        .unwrap();
    assert_eq!(inner_blocks.load(Ordering::Relaxed), 6 * 5);
    assert_eq!(inner.launch_count(), 6);
    assert_eq!(outer.launch_count(), 1);
}

#[test]
fn panicking_kernel_reaches_the_launcher_and_the_device_survives() {
    let d = dev();
    let expected = fingerprint(
        &dev()
            .launch("after", LaunchConfig::grid_1d(64, 32), charge_by_index)
            .unwrap(),
    );
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        d.launch("boom", LaunchConfig::grid_1d(64, 32), |blk| {
            assert!(blk.linear_block_id() != 3, "block 3 fails");
        })
    }));
    assert!(
        caught.is_err(),
        "the kernel's panic must reach the launcher"
    );
    // The failed launch committed nothing, and the next one is whole.
    assert_eq!(d.launch_count(), 0);
    assert_eq!(d.now(), 0.0);
    let stats = d
        .launch("after", LaunchConfig::grid_1d(64, 32), charge_by_index)
        .unwrap();
    assert_eq!(fingerprint(&stats), expected);
}

#[test]
fn clock_and_energy_of_a_fixed_sequence_are_golden() {
    let d = dev();
    launch_sequence(&d);
    d.copy_htod_bytes(1 << 20);
    launch_sequence(&d);
    // 1.3010794451901568e-3 s and 1.9004777002237128e-1 J; the parent's
    // spawn-per-launch shim gives the same bits.
    assert_eq!(
        (d.now().to_bits(), d.energy_j().to_bits()),
        (0x3f55_511f_6aa9_6735, 0x3fc8_537c_3e76_3f88),
        "now = {:e} s, energy = {:e} J",
        d.now(),
        d.energy_j()
    );
}
