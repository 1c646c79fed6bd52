//! LAPACK-compliance of batched error reporting (the paper's conclusion
//! raises exactly this open question): per-matrix `info` codes, no
//! cross-matrix poisoning, argument validation.

use vbatch_core::lu::{getrf_vbatched, GetrfOptions};
use vbatch_core::report::VbatchError;
use vbatch_core::{
    potrf_vbatched, potrf_vbatched_max, EtmPolicy, FusedOpts, PotrfOptions, SepOpts, Strategy,
    VBatch,
};
use vbatch_dense::gen::{rand_mat, seeded_rng, spd_vec};
use vbatch_dense::verify::{chol_residual, residual_tol};
use vbatch_dense::{MatRef, Uplo};
use vbatch_gpu_sim::{Device, DeviceConfig};

#[test]
fn info_codes_match_single_matrix_lapack() {
    // The batched info for each matrix must equal what the dense
    // routine reports for the same matrix alone.
    let dev = Device::new(DeviceConfig::k40c());
    let n = 20;
    let mut rng = seeded_rng(60);
    let good = spd_vec::<f64>(&mut rng, n);
    let mut bad_a = good.clone();
    bad_a[0] = -1.0; // fails at column 1
    let mut bad_b = good.clone();
    bad_b[7 + 7 * n] = -1e9; // fails at column 8

    // Dense reference info.
    let dense_info = |m: &Vec<f64>| {
        let mut c = m.clone();
        match vbatch_dense::potf2(
            Uplo::Lower,
            vbatch_dense::MatMut::from_slice(&mut c, n, n, n),
        ) {
            Ok(()) => 0i32,
            Err(e) => e.info() as i32,
        }
    };
    let expect = [dense_info(&bad_a), dense_info(&good), dense_info(&bad_b)];
    assert_eq!(expect[0], 1);
    assert_eq!(expect[1], 0);
    assert_eq!(expect[2], 8);

    for strategy in [Strategy::Fused, Strategy::Separated] {
        let mut batch = VBatch::<f64>::alloc_square(&dev, &[n, n, n]).unwrap();
        batch.upload_matrix(0, &bad_a).unwrap();
        batch.upload_matrix(1, &good).unwrap();
        batch.upload_matrix(2, &bad_b).unwrap();
        let opts = PotrfOptions {
            strategy,
            sep: SepOpts {
                nb_panel: 8,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = potrf_vbatched(&dev, &mut batch, &opts).unwrap();
        assert_eq!(report.info, expect.to_vec(), "{strategy:?}");

        // The healthy matrix is fully factorized despite its neighbors.
        let f = batch.download_matrix(1);
        let r = chol_residual(
            Uplo::Lower,
            MatRef::from_slice(&f, n, n, n),
            MatRef::from_slice(&good, n, n, n),
        );
        assert!(
            r < residual_tol::<f64>(n),
            "{strategy:?}: healthy residual {r}"
        );
    }
}

#[test]
fn broken_matrix_stops_consuming_steps() {
    // Once a matrix breaks, subsequent fused steps must treat its block
    // as dead (early exit), not keep factorizing garbage.
    let dev = Device::new(DeviceConfig::k40c());
    let n = 64;
    let mut rng = seeded_rng(61);
    let mut bad = spd_vec::<f64>(&mut rng, n);
    bad[1 + n] = -1e9; // breaks in the first panel
    bad[1] = 0.0;
    let mut batch = VBatch::<f64>::alloc_square(&dev, &[n]).unwrap();
    batch.upload_matrix(0, &bad).unwrap();
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts {
            etm: EtmPolicy::Aggressive,
            sorting: false,
            nb: Some(8),
            ..Default::default()
        },
        ..Default::default()
    };
    let report = potrf_vbatched(&dev, &mut batch, &opts).unwrap();
    assert_eq!(report.failure_count(), 1);
    dev.with_profiler(|p| {
        let e = p.get("dpotrf_fused_step").expect("fused steps ran");
        // 8 steps for n=64, nb=8; the matrix dies at step 0, so at
        // least 7 launches see a dead block.
        assert!(
            e.early_exit_blocks >= 7,
            "expected dead-block exits, got {}",
            e.early_exit_blocks
        );
    });
}

#[test]
fn invalid_arguments_rejected_before_any_work() {
    let dev = Device::new(DeviceConfig::k40c());
    // Rectangular batch rejected by Cholesky.
    let mut r = VBatch::<f64>::alloc(&dev, &[(4, 6)]).unwrap();
    assert!(matches!(
        potrf_vbatched(&dev, &mut r, &PotrfOptions::default()),
        Err(VbatchError::InvalidArgument(_))
    ));
}

/// The expert interface trusts `max_n` to bound the batch; an
/// understated one would leave the largest matrices partly factored
/// (or untouched) behind a clean report, so it is rejected before any
/// device work. An overstated `max_n` stays legal.
#[test]
fn understated_max_n_rejected_with_batch_untouched() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(63);
    for (sizes, max_n) in [(vec![200usize, 50], 64usize), (vec![5], 0)] {
        let origs: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        for strategy in [Strategy::Fused, Strategy::Separated, Strategy::Auto] {
            let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
            for (i, m) in origs.iter().enumerate() {
                batch.upload_matrix(i, m).unwrap();
            }
            let opts = PotrfOptions {
                strategy,
                ..Default::default()
            };
            let launches = dev.launch_count();
            let res = potrf_vbatched_max(&dev, &mut batch, max_n, &opts);
            assert!(
                matches!(res, Err(VbatchError::InvalidArgument(_))),
                "{strategy:?} sizes {sizes:?} max_n {max_n}: {res:?}"
            );
            assert_eq!(dev.launch_count(), launches, "{strategy:?}: no launch");
            for (i, m) in origs.iter().enumerate() {
                assert_eq!(
                    &batch.download_matrix(i),
                    m,
                    "{strategy:?} sizes {sizes:?}: matrix {i} touched"
                );
            }
        }
    }
    // Overstating is fine: the batch factorizes as with the exact max.
    let sizes = [5usize, 3];
    for strategy in [Strategy::Fused, Strategy::Separated, Strategy::Auto] {
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        for (i, &n) in sizes.iter().enumerate() {
            batch
                .upload_matrix(i, &spd_vec::<f64>(&mut rng, n))
                .unwrap();
        }
        let opts = PotrfOptions {
            strategy,
            ..Default::default()
        };
        let report = potrf_vbatched_max(&dev, &mut batch, 64, &opts).unwrap();
        assert!(report.all_ok(), "{strategy:?}: {:?}", report.failures());
    }
}

/// An overstated `max_n` costs the separated path nothing: its step
/// loop ends at the batch's largest order and a step with no live block
/// launches nothing, so the call's clock, launches and factor bits are
/// those of the exact maximum.
#[test]
fn overstated_max_n_adds_no_separated_step() {
    let sizes = [300usize, 129, 40, 0];
    let mut rng = seeded_rng(64);
    let origs: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
    let opts = PotrfOptions {
        strategy: Strategy::Separated,
        ..Default::default()
    };
    let run = |max_n: usize| {
        let dev = Device::new(DeviceConfig::k40c());
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        for (i, m) in origs.iter().enumerate() {
            batch.upload_matrix(i, m).unwrap();
        }
        let report = potrf_vbatched_max(&dev, &mut batch, max_n, &opts).unwrap();
        assert!(report.all_ok(), "max_n {max_n}: {:?}", report.failures());
        let factors: Vec<Vec<f64>> = (0..sizes.len()).map(|i| batch.download_matrix(i)).collect();
        (dev.now().to_bits(), dev.launch_count(), factors)
    };
    let exact = run(300);
    assert!(exact == run(600), "an overstated max_n changed the call");
}

#[test]
fn lu_singularity_reported_with_global_column() {
    let dev = Device::new(DeviceConfig::k40c());
    let n = 24;
    let mut rng = seeded_rng(62);
    let mut a = rand_mat::<f64>(&mut rng, n * n);
    for r in 0..n {
        a[r + 17 * n] = 0.0; // exactly-zero column 17
    }
    let mut batch = VBatch::<f64>::alloc(&dev, &[(n, n)]).unwrap();
    batch.upload_matrix(0, &a).unwrap();
    let (report, _) = getrf_vbatched(
        &dev,
        &mut batch,
        &GetrfOptions {
            nb_panel: 8,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.info[0], 18, "1-based zero-pivot column");
}

#[test]
fn error_display_messages() {
    let e = VbatchError::InvalidArgument("nope");
    assert!(e.to_string().contains("nope"));
    let oom = vbatch_gpu_sim::OomError {
        requested: 10,
        in_use: 5,
        capacity: 12,
    };
    let e: VbatchError = oom.into();
    assert!(e.to_string().contains("out of memory"));
}
