//! Chaos suite: deterministic fault injection against the self-healing
//! vbatched drivers (tentpole of the robustness PR).
//!
//! The contract under test: for any *recoverable* [`FaultPlan`], the
//! driver's factors and `info` codes are bitwise-identical to the
//! fault-free run, all device memory is released, and every injection
//! that fired is enumerated in the report's [`RecoveryReport`].

use proptest::prelude::*;
use rand::Rng;
use vbatch_core::{
    potrf_vbatched, potrf_vbatched_max, potrf_vbatched_max_ws, DriverWorkspace, FusedOpts, Outcome,
    PotrfOptions, RecoveryReport, Strategy, VBatch, VbatchError,
};
use vbatch_dense::gen::{seeded_rng, spd_vec};
use vbatch_dense::Scalar;
use vbatch_gpu_sim::{Corruption, Device, DeviceConfig, FaultPlan, LaunchError};

const SIZES: [usize; 8] = [17, 4, 33, 8, 0, 21, 12, 40];

fn upload<T: Scalar>(dev: &Device, sizes: &[usize]) -> VBatch<T> {
    let mut batch = VBatch::<T>::alloc_square(dev, sizes).unwrap();
    let mut rng = seeded_rng(0xC0FFEE);
    for (i, &n) in sizes.iter().enumerate() {
        batch.upload_matrix(i, &spd_vec::<T>(&mut rng, n)).unwrap();
    }
    batch
}

fn opts_for(strategy: Strategy) -> PotrfOptions {
    PotrfOptions {
        strategy,
        ..Default::default()
    }
}

/// Runs one factorization, returning `(factor bit patterns, info)` and
/// asserting the device releases every byte it allocated.
fn run_once<T: Scalar>(
    sizes: &[usize],
    opts: &PotrfOptions,
    plan: Option<FaultPlan>,
) -> (Vec<Vec<u64>>, Vec<i32>, vbatch_core::RecoveryReport) {
    let dev = Device::new(DeviceConfig::k40c());
    let mem0 = dev.mem_in_use();
    let mut batch = upload::<T>(&dev, sizes);
    if let Some(p) = plan {
        dev.install_fault_plan(p);
    }
    let report = potrf_vbatched(&dev, &mut batch, opts).unwrap();
    let factors = (0..sizes.len())
        .map(|i| {
            batch
                .download_matrix(i)
                .iter()
                .map(|x| x.to_f64().to_bits())
                .collect()
        })
        .collect();
    let fired = dev.clear_fault_plan();
    assert_eq!(
        report.recovery.injected, fired,
        "report must enumerate exactly the injections that fired"
    );
    drop(batch);
    assert_eq!(dev.mem_in_use(), mem0, "device memory leaked");
    (factors, report.info, report.recovery)
}

/// The core roundtrip: faulted run ≡ clean run, bit for bit.
fn assert_recoverable_roundtrip<T: Scalar>(seed: u64, strategy: Strategy) {
    let opts = opts_for(strategy);
    let (clean_f, clean_i, clean_rec) = run_once::<T>(&SIZES, &opts, None);
    assert_eq!(clean_rec.outcome(), Outcome::Clean);
    let plan = FaultPlan::random_recoverable(seed);
    let (fault_f, fault_i, fault_rec) = run_once::<T>(&SIZES, &opts, Some(plan));
    assert_eq!(clean_i, fault_i, "info diverged under seed {seed}");
    assert_eq!(
        clean_f, fault_f,
        "factor bits diverged under seed {seed} ({strategy:?})"
    );
    if !fault_rec.injected.is_empty() {
        assert_ne!(
            fault_rec.outcome(),
            Outcome::Clean,
            "fired injections must be reported as a recovery"
        );
    }
}

fn roundtrip_all(seed: u64) {
    for strategy in [Strategy::Fused, Strategy::Separated] {
        assert_recoverable_roundtrip::<f64>(seed, strategy);
        assert_recoverable_roundtrip::<f32>(seed, strategy);
    }
}

// Four fixed seeds the CI chaos job pins (filter: `chaos_seed`).
#[test]
fn chaos_seed_0x11() {
    roundtrip_all(0x11);
}
#[test]
fn chaos_seed_0x22() {
    roundtrip_all(0x22);
}
#[test]
fn chaos_seed_0x33() {
    roundtrip_all(0x33);
}
#[test]
fn chaos_seed_0x44() {
    roundtrip_all(0x44);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any recoverable plan, any strategy, both precisions: the result
    /// is indistinguishable from the fault-free run.
    #[test]
    fn any_recoverable_plan_roundtrips(seed in 0u64..1_000_000, separated in 0u8..2) {
        let strategy = if separated == 1 { Strategy::Separated } else { Strategy::Fused };
        assert_recoverable_roundtrip::<f64>(seed, strategy);
        assert_recoverable_roundtrip::<f32>(seed, strategy);
    }
}

/// Retries exhausted → a typed error surfaces (never a panic), and the
/// device still releases everything.
#[test]
fn unrecoverable_plan_is_a_typed_error_not_a_panic() {
    let dev = Device::new(DeviceConfig::k40c());
    let mem0 = dev.mem_in_use();
    let mut batch = upload::<f64>(&dev, &SIZES);
    // 10 consecutive rejections of every launch beats the default
    // 3-retry budget on the very first kernel.
    dev.install_fault_plan(FaultPlan::new().transient_launch("", 0, 10));
    let err = potrf_vbatched(&dev, &mut batch, &PotrfOptions::default())
        .expect_err("exhausted retries must fail");
    assert!(
        matches!(err, VbatchError::Launch(LaunchError::Injected)),
        "expected the injected launch error, got {err:?}"
    );
    dev.clear_fault_plan();
    drop(batch);
    assert_eq!(dev.mem_in_use(), mem0);
}

/// Silent data corruption between launches is caught by the finite-check
/// scrubber and quarantined with the negative-`info` convention.
#[test]
fn corruption_is_quarantined_with_negative_info() {
    let dev = Device::new(DeviceConfig::k40c());
    let n = 8usize;
    let mut batch = upload::<f64>(&dev, &[n]);
    // Element 56 = (row 0, col 7): strictly upper triangle, which the
    // Lower factorization never reads or writes — so whenever the write
    // lands, only the scrubber can see it.
    dev.install_fault_plan(FaultPlan::new().corrupt("vbatch_mat0", 1, 56, Corruption::Nan));
    let opts = PotrfOptions {
        strategy: Strategy::Separated,
        ..Default::default()
    };
    // `_max` variant: no device-side max reduction, so the first launch
    // happens after the driver registers the batch as a fault target.
    let report = potrf_vbatched_max(&dev, &mut batch, n, &opts).unwrap();
    assert_eq!(report.info, vec![-8], "NaN in column 7 ⇒ info = -(7+1)");
    assert_eq!(report.recovery.quarantined, vec![0]);
    assert_eq!(report.outcome(), Outcome::Degraded);
    assert!(
        report
            .recovery
            .injected
            .iter()
            .any(|e| matches!(e, vbatch_gpu_sim::InjectionEvent::Corrupted { .. })),
        "the corruption must be enumerated: {:?}",
        report.recovery.injected
    );
    assert!(
        report.recovery.scrub_passes >= 1,
        "the plan turns the scrubber on"
    );
    dev.clear_fault_plan();

    // The same matrix with no plan installed: the scrubber never runs.
    let mut batch = upload::<f64>(&dev, &[n]);
    dev.reset_metrics();
    let report = potrf_vbatched_max(&dev, &mut batch, n, &opts).unwrap();
    assert_eq!(report.info, vec![0]);
    assert_eq!(report.recovery.scrub_passes, 0, "no plan, no scrub pass");
    assert!(
        dev.with_profiler(|p| p.get("dvbatch_scrub_finite").is_none()),
        "no plan, no scrubber launch"
    );
}

/// A soft memory ceiling forces the fused driver to split the sorting
/// window; the halves still produce bitwise-identical factors.
#[test]
fn soft_ceiling_splits_window_and_stays_bitwise_identical() {
    let sizes = vec![24usize; 40];
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts {
            batched_small: true,
            ..Default::default()
        },
        ..Default::default()
    };
    let (clean_f, clean_i, _) = run_once::<f64>(&sizes, &opts, None);

    let dev = Device::new(DeviceConfig::k40c());
    let mem0 = dev.mem_in_use();
    let mut batch = upload::<f64>(&dev, &sizes);
    // The call's index array (one window here) is the one allocation on
    // the fused path: 40 matrices · 4 B = 160 B on top of the 4 B
    // max-reduction partial — over the ceiling. Each 20-matrix half
    // uploads its own 80 B — under it. Exactly one split suffices.
    dev.install_fault_plan(FaultPlan::new().soft_ceiling(dev.mem_in_use() + 100));
    let report = potrf_vbatched(&dev, &mut batch, &opts).unwrap();
    assert!(
        report.recovery.window_splits >= 1,
        "ceiling must force a window split: {:?}",
        report.recovery
    );
    assert_eq!(report.outcome(), Outcome::Recovered);
    assert_eq!(report.info, clean_i);
    for (i, want) in clean_f.iter().enumerate() {
        let got: Vec<u64> = batch
            .download_matrix(i)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(&got, want, "matrix {i} bits diverged after split");
    }
    dev.clear_fault_plan();
    drop(batch);
    assert_eq!(dev.mem_in_use(), mem0);
}

/// Factors matrices `order` of `mats` as one batch on `ws` and returns
/// each matrix's factor bits and `info` by its index in `mats`, with the
/// call's recovery record. With `ceiling`, every allocation past what the
/// device holds once the batch is up fails while the call runs.
fn factor_in_order(
    dev: &Device,
    mats: &[Vec<f64>],
    order: &[usize],
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<f64>,
    ceiling: bool,
) -> (Vec<Vec<u64>>, Vec<i32>, RecoveryReport) {
    let sizes: Vec<usize> = order.iter().map(|&i| mats[i].len().isqrt()).collect();
    let mut batch = VBatch::<f64>::alloc_square(dev, &sizes).unwrap();
    for (k, &i) in order.iter().enumerate() {
        batch.upload_matrix(k, &mats[i]).unwrap();
    }
    if ceiling {
        dev.install_fault_plan(FaultPlan::new().soft_ceiling(dev.mem_in_use()));
    }
    let max_n = batch.max_cols();
    let report = potrf_vbatched_max_ws(dev, &mut batch, max_n, opts, ws).unwrap();
    dev.clear_fault_plan();
    let (mut bits, mut info) = (vec![Vec::new(); mats.len()], vec![0; mats.len()]);
    for (k, &i) in order.iter().enumerate() {
        bits[i] = batch
            .download_matrix(k)
            .iter()
            .map(|x| x.to_bits())
            .collect();
        info[i] = report.info[k];
    }
    (bits, info, report.recovery)
}

/// One batch factored four ways gives the same factor bits and `info`
/// on both fused tiers (the interleaved batched-small launches and the
/// step loop): in shuffled order, in ascending order, twice on one
/// workspace (the second call finds its permutation resident), and
/// through the OOM halving ladder after a smaller call left a shorter
/// plan resident. Several windows share the call's one permutation
/// upload, each launching on its slice; a half the ladder cuts uploads
/// its own slice when the whole does not fit.
#[test]
fn permutation_slices_and_resident_plans_keep_factor_bits() {
    let mut rng = seeded_rng(0x5EED);
    let mut mats: Vec<Vec<f64>> = (0..40)
        .map(|_| {
            let n = rng.gen_range(1..=32);
            spd_vec(&mut rng, n)
        })
        .collect();
    let bad = mats
        .iter()
        .position(|m| m.len() >= 64)
        .expect("an order ≥ 8");
    let n = mats[bad].len().isqrt();
    mats[bad][5 + 5 * n] = -3.0; // info 6
    let shuffled: Vec<usize> = (0..40).map(|k| (k * 17 + 3) % 40).collect();
    let mut ascending: Vec<usize> = (0..40).collect();
    ascending.sort_by_key(|&i| mats[i].len());

    for batched_small in [true, false] {
        let opts = PotrfOptions {
            strategy: Strategy::Fused,
            fused: FusedOpts {
                batched_small,
                window_width: Some(8),
                ..Default::default()
            },
            ..Default::default()
        };
        let dev = Device::new(DeviceConfig::k40c());
        let tier = if batched_small {
            "interleaved"
        } else {
            "step loop"
        };
        let (want_bits, want_info, _) = factor_in_order(
            &dev,
            &mats,
            &ascending,
            &opts,
            &mut DriverWorkspace::new(),
            false,
        );
        assert_eq!(want_info[bad], 6, "{tier}");
        assert_eq!(want_info.iter().filter(|&&i| i != 0).count(), 1, "{tier}");

        let mut ws = DriverWorkspace::new();
        for way in ["shuffled", "shuffled, resident"] {
            let (bits, info, _) = factor_in_order(&dev, &mats, &shuffled, &opts, &mut ws, false);
            assert_eq!(info, want_info, "{tier}, {way}");
            assert_eq!(bits, want_bits, "{tier}, {way}");
        }

        let mut ws = DriverWorkspace::new();
        factor_in_order(&dev, &mats, &ascending[..4], &opts, &mut ws, false);
        let (bits, info, rec) = factor_in_order(&dev, &mats, &shuffled, &opts, &mut ws, true);
        assert!(
            rec.window_splits > 0,
            "{tier}: the ceiling must split: {rec:?}"
        );
        assert_eq!(info, want_info, "{tier}, halving ladder");
        assert_eq!(bits, want_bits, "{tier}, halving ladder");
    }
}

/// Per-device fault plans in a sharded 4-device run: launch and OOM
/// faults injected only on device 1 recover locally through the same
/// ladder (retry → split → quarantine), the merged report enumerates
/// exactly what fired, healthy devices stay untouched — and the factors
/// and `info` are bitwise equal to the fault-free 4-device run.
#[test]
fn sharded_faults_on_one_device_recover_locally() {
    use vbatch_core::{potrf_sharded, ShardOpts, ShardedState};
    use vbatch_gpu_sim::DeviceGroup;

    let sizes: Vec<usize> = (0..40).map(|i| 4 + (i * 11) % 60).collect();
    let mats: Vec<Vec<f64>> = {
        let mut rng = seeded_rng(0xC0FFEE);
        sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect()
    };
    let shard_opts = ShardOpts {
        shards_per_device: 3,
        steal: true,
    };

    let run = |plan: Option<FaultPlan>| {
        let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 4);
        if let Some(p) = plan {
            group.install_fault_plan(1, p);
        }
        let mut state = ShardedState::new();
        let mut work = mats.clone();
        let report = potrf_sharded(
            &group,
            &sizes,
            &mut work,
            &PotrfOptions::default(),
            &shard_opts,
            &mut state,
        )
        .unwrap();
        let fired = group.clear_fault_plans();
        (work, report, fired)
    };

    let (clean_f, clean_r, _) = run(None);
    assert_eq!(clean_r.recovery.outcome(), vbatch_core::Outcome::Clean);

    // Transient launch rejections plus an injected OOM, all on device 1.
    let plan = FaultPlan::new()
        .transient_launch("", 3, 2)
        .transient_launch("", 11, 1)
        .oom_at_alloc(5);
    let (fault_f, fault_r, fired) = run(Some(plan));

    // Only device 1 fired anything; the merged report enumerates it all.
    assert!(!fired[1].is_empty(), "device 1's plan must have fired");
    for (d, ev) in fired.iter().enumerate() {
        if d != 1 {
            assert!(ev.is_empty(), "device {d} fired {ev:?} without a plan");
        }
    }
    assert_eq!(
        fault_r.recovery.injected, fired[1],
        "merged report must enumerate exactly device 1's injections"
    );
    assert!(fault_r.recovery.retried_launches + fault_r.recovery.retried_allocs > 0);
    assert_eq!(fault_r.recovery.outcome(), vbatch_core::Outcome::Recovered);

    // Bitwise roundtrip against the fault-free 4-device run.
    assert_eq!(clean_r.info, fault_r.info);
    for (i, (a, b)) in clean_f.iter().zip(&fault_f).enumerate() {
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "matrix {i}: factors diverged under device-1 faults"
        );
    }
}

/// The `getrf_sharded` twin: an injected OOM while device 1 builds its
/// first shard's pooled batch (before the driver runs), then a rejected
/// launch inside the driver. The merged report enumerates device 1's
/// log in order, and factors, pivots and `info` are bitwise equal to
/// the fault-free run.
#[test]
fn sharded_getrf_faults_on_one_device_recover_locally() {
    use vbatch_core::{getrf_sharded, GetrfOptions, ShardOpts, ShardedState};
    use vbatch_dense::gen::diag_dominant_vec;
    use vbatch_gpu_sim::{DeviceGroup, InjectionEvent};

    let sizes: Vec<usize> = (0..40).map(|i| 4 + (i * 11) % 60).collect();
    let mats: Vec<Vec<f64>> = {
        let mut rng = seeded_rng(0xC0FFEE);
        sizes
            .iter()
            .map(|&n| diag_dominant_vec::<f64>(&mut rng, n, n))
            .collect()
    };
    let opts = GetrfOptions {
        nb_panel: 16,
        ..Default::default()
    };
    let shard_opts = ShardOpts {
        shards_per_device: 3,
        steal: true,
    };

    let run = |plan: Option<FaultPlan>| {
        let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 4);
        if let Some(p) = plan {
            group.install_fault_plan(1, p);
        }
        let mut state = ShardedState::new();
        let mut work = mats.clone();
        let (report, pivots) =
            getrf_sharded(&group, &sizes, &mut work, &opts, &shard_opts, &mut state).unwrap();
        let fired = group.clear_fault_plans();
        (work, report, pivots, fired)
    };

    let (clean_f, clean_r, clean_p, _) = run(None);
    assert_eq!(clean_r.recovery.outcome(), Outcome::Clean);

    // Allocation 0 on device 1 is its first shard's pooled batch build.
    let plan = FaultPlan::new()
        .oom_at_alloc(0)
        .transient_launch("getf2", 1, 1);
    let (fault_f, fault_r, fault_p, fired) = run(Some(plan));

    for (d, ev) in fired.iter().enumerate() {
        if d != 1 {
            assert!(ev.is_empty(), "device {d} fired {ev:?} without a plan");
        }
    }
    assert!(
        matches!(
            fired[1].as_slice(),
            [
                InjectionEvent::AllocDenied { alloc: 0, .. },
                InjectionEvent::LaunchRejected { .. }
            ]
        ),
        "the batch build's OOM, then the driver's launch: {:?}",
        fired[1]
    );
    assert_eq!(
        fault_r.recovery.injected, fired[1],
        "merged report must enumerate exactly device 1's injections"
    );
    assert_eq!(fault_r.recovery.retried_allocs, 1);
    assert_eq!(fault_r.recovery.retried_launches, 1);
    assert_eq!(fault_r.recovery.outcome(), Outcome::Recovered);

    assert_eq!(clean_r.info, fault_r.info);
    assert_eq!(clean_p, fault_p);
    for (i, (a, b)) in clean_f.iter().zip(&fault_f).enumerate() {
        assert!(
            a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
            "matrix {i}: LU factors diverged under device-1 faults"
        );
    }
}

/// LU and QR return early on a batch with no panel column (`k_max`
/// 0), after allocating their pivot or `tau` arena under the retry
/// ladder. An OOM injected into that allocation is retried and still
/// enumerated in the report.
#[test]
fn early_return_reports_injections_fired_before_it() {
    use vbatch_core::{getrf_vbatched, qr::geqrf_vbatched, GetrfOptions};

    let dev = Device::new(DeviceConfig::k40c());
    let mut batch = VBatch::<f64>::alloc(&dev, &[(0, 5), (4, 0)]).unwrap();
    dev.install_fault_plan(FaultPlan::new().oom_at_alloc(0));
    let (lu, _) = getrf_vbatched(&dev, &mut batch, &GetrfOptions::default()).unwrap();
    let fired = dev.clear_fault_plan();
    assert_eq!(fired.len(), 1);
    assert_eq!(lu.recovery.retried_allocs, 1);
    assert_eq!(lu.recovery.injected, fired);

    dev.install_fault_plan(FaultPlan::new().oom_at_alloc(0));
    let (qr, _) = geqrf_vbatched(&dev, &mut batch, &Default::default()).unwrap();
    assert_eq!(qr.recovery.injected, dev.clear_fault_plan());
    assert_eq!(qr.recovery.retried_allocs, 1);
}
