//! Chaos suite for the serving front end: recoverable fault plans
//! installed mid-stream against a live [`vbatch_serve::BatchService`].
//!
//! The contract under test (satellite of the serving PR): for any
//! *recoverable* [`FaultPlan`] landing at any point of the request
//! stream, every accepted request's response is bitwise-identical to
//! the fault-free replay of the same schedule, the merged
//! [`vbatch_core::RecoveryReport`] enumerates exactly the injections
//! that fired, and the service neither panics nor leaks pool memory.

use proptest::prelude::*;
use vbatch_core::Outcome;
use vbatch_gpu_sim::{Corruption, FaultPlan};
use vbatch_serve::{build_schedule, run_soak, Op, ResponseStatus, ServeConfig, SoakConfig};

/// A soak small enough for proptest yet wide enough to cross many
/// windows and both operations. Shedding and deadlines are disabled so
/// the accepted set is identical with and without faults (admission
/// must not depend on fault-stretched service times here).
fn chaos_cfg(seed: u64) -> SoakConfig {
    SoakConfig {
        serve: ServeConfig {
            max_window: 12,
            max_wait_s: 5e-4,
            shed_cost_s: 1e9,
            tenant_queue_limit: 10_000,
            ..Default::default()
        },
        seed,
        clients: 400,
        tenants: 7,
        requests: 90,
        rate_hz: 150_000.0,
        sizes: vec![6, 9, 13, 17, 24, 31],
        getrf_share: 0.4,
        deadline_share: 0.0,
        deadline_slack_s: 0.0,
    }
}

/// Faulted run ≡ fault-free run, response by response, bit for bit.
fn assert_serve_roundtrip(sched_seed: u64, fault_seed: u64, fault_after: usize) {
    let cfg = chaos_cfg(sched_seed);
    let schedule = build_schedule::<f64>(&cfg);
    let clean = run_soak(&cfg, &schedule, None, 0);
    assert!(clean.fired.is_empty());
    assert_eq!(clean.stats.window_failures, 0);

    let plan = FaultPlan::random_recoverable(fault_seed);
    let fault = run_soak(
        &cfg,
        &schedule,
        Some(plan),
        fault_after % (cfg.requests + 1),
    );

    // Same admission decisions: shedding is off, so both runs accept
    // everything, in the same order.
    assert_eq!(clean.accepted, fault.accepted, "admission diverged");
    assert_eq!(
        fault.stats.window_failures, 0,
        "recoverable plans never fail windows"
    );

    // Bitwise response equality, joined by request id (window
    // composition may legally differ once retries stretch the
    // timeline; the factor bits may not).
    let mut clean_by_id = std::collections::BTreeMap::new();
    for r in &clean.responses {
        clean_by_id.insert(r.id, r);
    }
    assert_eq!(fault.responses.len(), clean.responses.len());
    for r in &fault.responses {
        let want = clean_by_id[&r.id];
        assert_eq!(r.status, want.status, "req {} status", r.id);
        assert_eq!(r.info, want.info, "req {} info", r.id);
        assert_eq!(r.pivots, want.pivots, "req {} pivots", r.id);
        assert_eq!(r.factor.len(), want.factor.len());
        for (k, (a, b)) in r.factor.iter().zip(&want.factor).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "req {} factor[{k}] diverged under fault seed {fault_seed}",
                r.id
            );
        }
    }

    // The merged report enumerates exactly the injections that fired.
    assert_eq!(
        fault.recovery.injected, fault.fired,
        "merged RecoveryReport must enumerate exactly the fired injections"
    );
    if !fault.fired.is_empty() {
        // The recovery may have happened on either rung: the driver's
        // ladder (retries/splits) or the service's whole-window
        // redispatch (an injection on a pooled-batch allocation fails
        // the attempt before the driver ever runs).
        assert!(
            fault.recovery.retried_launches + fault.recovery.retried_allocs > 0
                || fault.recovery.window_splits > 0
                || fault.recovery.workspace_releases > 0
                || fault.stats.window_retries > 0,
            "fired injections imply recovery actions: {:?} / {:?}",
            fault.recovery,
            fault.stats
        );
    }
    assert!(
        fault.recovery.quarantined.is_empty(),
        "recoverable plans never corrupt"
    );

    // No pool leak under faults either.
    assert_eq!(fault.mem_after_release, fault.mem_baseline);
}

// Fixed seeds pinned by the CI serve-soak job (filter: `serve_chaos_seed`).
#[test]
fn serve_chaos_seed_0xa1() {
    assert_serve_roundtrip(0xa1, 0x51, 0);
}
#[test]
fn serve_chaos_seed_0xb2() {
    assert_serve_roundtrip(0xb2, 0x52, 30);
}
#[test]
fn serve_chaos_seed_0xc3() {
    assert_serve_roundtrip(0xc3, 0x53, 85);
}

// A `random_recoverable` plan holds up to four faults and one window can
// meet them all, one per attempt: plan 21 costs the first window three
// redispatches and plan 221 (four one-shot allocation failures) four, so
// both came back `Failed` while the default budget was two. 207 and 209
// are the seeds the benchmark's notes name for this; in this
// configuration they need one redispatch and none.
#[test]
fn serve_chaos_seed_full_plan_within_default_retries() {
    assert_eq!(FaultPlan::random_recoverable(221).len(), 4);
    assert_eq!(ServeConfig::default().window_retries, 4);
    for fault_seed in [21, 221, 207, 209] {
        assert_serve_roundtrip(0xa1, fault_seed, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any recoverable plan, landing anywhere in the stream: the
    /// service's answers are indistinguishable from the fault-free run.
    #[test]
    fn any_recoverable_plan_roundtrips_through_the_service(
        sched_seed in 0u64..1000,
        fault_seed in 0u64..1_000_000,
        fault_after in 0usize..=90,
    ) {
        assert_serve_roundtrip(sched_seed, fault_seed, fault_after);
    }
}

/// Graceful degradation: a corruption quarantines exactly its own
/// request (negative `info`, `Quarantined` status, `Degraded` window),
/// neighbors factor bit-identically to the oracle, and the service
/// keeps answering afterwards.
#[test]
fn corruption_quarantines_one_request_not_the_window() {
    use vbatch_core::Strategy;
    use vbatch_dense::gen::{seeded_rng, spd_vec};
    use vbatch_gpu_sim::Device;
    use vbatch_serve::BatchService;

    let cfg = ServeConfig {
        max_window: 4,
        max_wait_s: 1e-4,
        potrf: vbatch_core::PotrfOptions {
            strategy: Strategy::Separated,
            ..Default::default()
        },
        ..Default::default()
    };
    let dev = Device::new(cfg.device.clone());
    let mut svc = BatchService::<f64>::new(dev, cfg.clone());
    let mut rng = seeded_rng(0xDEAD);
    let n = 8usize;
    // Element 56 = (row 0, col 7): strictly upper triangle — invisible
    // to the Lower factorization, caught only by the scrubber. The
    // window is [poisoned, healthy]; "vbatch_mat0" is the first matrix.
    svc.device().install_fault_plan(FaultPlan::new().corrupt(
        "vbatch_mat0",
        1,
        56,
        Corruption::Nan,
    ));
    let poisoned = spd_vec::<f64>(&mut rng, n);
    let healthy = spd_vec::<f64>(&mut rng, n);
    let id_bad = svc
        .submit(0.0, 0, Op::Potrf, n, poisoned, None)
        .expect("accepted");
    let id_ok = svc
        .submit(0.0, 1, Op::Potrf, n, healthy.clone(), None)
        .expect("accepted");
    svc.drain();
    let fired = svc.device().clear_fault_plan();
    assert!(!fired.is_empty(), "the corruption must have fired");

    let responses = svc.take_responses();
    assert_eq!(responses.len(), 2);
    let bad = responses.iter().find(|r| r.id == id_bad).unwrap();
    let ok = responses.iter().find(|r| r.id == id_ok).unwrap();
    assert_eq!(bad.status, ResponseStatus::Quarantined);
    assert_eq!(bad.info, -8, "NaN in column 7 ⇒ info = -(7+1)");
    assert_eq!(bad.outcome, Outcome::Degraded);
    assert_eq!(ok.status, ResponseStatus::Factored);
    assert_eq!(ok.info, 0);
    // The neighbor's factor matches the fault-free oracle bit for bit.
    let (oracle, _, info) = vbatch_serve::offline_factor::<f64>(&cfg, Op::Potrf, n, &healthy);
    assert_eq!(info, 0);
    assert!(ok
        .factor
        .iter()
        .zip(&oracle)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    // Quarantine is remapped to the request id in the merged report.
    assert_eq!(svc.recovery().quarantined, vec![id_bad as usize]);

    // The service keeps serving after the degradation.
    let again = spd_vec::<f64>(&mut rng, n);
    svc.submit(1.0, 0, Op::Potrf, n, again, None)
        .expect("accepted");
    svc.drain();
    let tail = svc.take_responses();
    assert_eq!(tail.len(), 1);
    assert_eq!(tail[0].status, ResponseStatus::Factored);
}

/// An unrecoverable plan exhausts the service-level retry ladder:
/// `Failed` responses (typed, never a panic), `window_failures`
/// counted, the service and its pools stay healthy for later windows.
#[test]
fn unrecoverable_plan_fails_the_window_without_wedging_the_service() {
    use vbatch_dense::gen::{seeded_rng, spd_vec};
    use vbatch_gpu_sim::Device;
    use vbatch_serve::BatchService;

    let cfg = ServeConfig {
        max_window: 2,
        max_wait_s: 1e-4,
        window_retries: 1,
        ..Default::default()
    };
    let dev = Device::new(cfg.device.clone());
    let base = dev.mem_in_use();
    let mut svc = BatchService::<f64>::new(dev, cfg);
    // 1000 consecutive rejections of every launch beats the driver's
    // 3-retry budget and both service-level attempts.
    svc.device()
        .install_fault_plan(FaultPlan::new().transient_launch("", 0, 1000));
    let mut rng = seeded_rng(7);
    for t in 0..2u32 {
        let m = spd_vec::<f64>(&mut rng, 12);
        svc.submit(0.0, t, Op::Potrf, 12, m, None)
            .expect("accepted");
    }
    svc.drain();
    let responses = svc.take_responses();
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().all(|r| r.status == ResponseStatus::Failed));
    assert_eq!(svc.stats().window_failures, 1);
    assert_eq!(svc.stats().window_retries, 1);
    // Failed attempts still land in the merged injection log.
    let fired = svc.device().clear_fault_plan();
    assert_eq!(svc.recovery().injected, fired);

    // Clear skies: the same service completes new work afterwards.
    let m = spd_vec::<f64>(&mut rng, 12);
    svc.submit(1.0, 0, Op::Potrf, 12, m, None)
        .expect("accepted");
    svc.drain();
    let tail = svc.take_responses();
    assert_eq!(tail.len(), 1);
    assert_eq!(tail[0].status, ResponseStatus::Factored);
    svc.release_memory();
    assert_eq!(
        svc.into_device().mem_in_use(),
        base,
        "no leak after failures"
    );
}
