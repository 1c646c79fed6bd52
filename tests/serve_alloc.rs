//! Host-allocation pin for the serving arrival path: once a service is
//! warm (its tenant FIFOs have capacity), an `advance_to` or `submit`
//! that neither fires a window nor passes a queued deadline performs no
//! heap allocation at all — with or without deadline-bearing requests
//! queued. The deadline check on every clock tick costs a comparison
//! against the earliest queued deadline, not a rebuild of every tenant
//! queue.
//!
//! The counting `#[global_allocator]` counts per thread: the arrival
//! path runs entirely on the calling thread, so the test harness's own
//! threads cannot add noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vbatch_dense::gen::{seeded_rng, spd_vec};
use vbatch_gpu_sim::Device;
use vbatch_serve::{BatchService, Op, ServeConfig};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialized `Cell` has no destructor, so the slot is live
    // for the thread's whole life; `try_with` only guards the contract.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates directly to `System`; the counter has no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: our caller upheld this method\'s contract; `System` gets it unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: our caller upheld this method\'s contract; `System` gets it unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: our caller upheld this method\'s contract; `System` gets it unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const TENANTS: u32 = 8;
/// Arrivals per measured burst: below `max_window` (no fill trigger)
/// and below every tenant FIFO's warmed capacity.
const BURST: usize = 64;
const N: usize = 8;

/// Neither trigger can fire inside a burst: the window never fills and
/// nothing waits a full second.
fn cfg() -> ServeConfig {
    ServeConfig {
        max_window: 1024,
        max_wait_s: 1.0,
        shed_cost_s: 1e9,
        tenant_queue_limit: 10_000,
        ..Default::default()
    }
}

/// One burst of `BURST` arrivals 1 µs apart, each preceded by an
/// `advance_to` to its arrival time. Every `deadline_every`-th request
/// carries a deadline five seconds out, past the burst and past the
/// `max_wait_s` trigger that drains it. Returns the heap allocations the
/// burst made on this thread; payloads are built before counting starts.
fn burst(svc: &mut BatchService<f64>, deadline_every: usize) -> u64 {
    let mut rng = seeded_rng(7);
    let payloads: Vec<Vec<f64>> = (0..BURST).map(|_| spd_vec(&mut rng, N)).collect();
    let t0 = svc.now_s() + 1e-3;
    let (windows, expired) = (svc.stats().windows, svc.stats().expired);
    let a0 = allocs();
    for (i, payload) in payloads.into_iter().enumerate() {
        let t = t0 + i as f64 * 1e-6;
        let deadline = (i % deadline_every == 0).then_some(t + 5.0);
        svc.advance_to(t);
        svc.submit(t, i as u32 % TENANTS, Op::Potrf, N, payload, deadline)
            .expect("admitted");
    }
    let made = allocs() - a0;
    assert_eq!(svc.stats().windows, windows, "a window fired");
    assert_eq!(svc.stats().expired, expired, "a deadline passed");
    assert_eq!(svc.pending(), BURST);
    made
}

#[test]
fn warm_arrival_path_allocates_nothing() {
    let cfg = cfg();
    let mut svc = BatchService::<f64>::new(Device::new(cfg.device.clone()), cfg);
    // Warm-up: the same bursts, drained, leave every tenant FIFO with
    // capacity for its share of a burst.
    for every in [usize::MAX, 3, 1] {
        burst(&mut svc, every);
        svc.drain();
    }
    drop(svc.take_responses());

    for (label, every) in [
        ("no deadlines", usize::MAX),
        ("deadlines", 3),
        ("all deadlines", 1),
    ] {
        let made = burst(&mut svc, every);
        assert_eq!(
            made, 0,
            "warm advance_to/submit burst ({label} queued) made {made} heap allocations"
        );
        svc.drain();
        drop(svc.take_responses());
    }
}
