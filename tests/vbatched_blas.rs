//! Property-based integration tests of the standalone vbatched BLAS
//! kernels against the dense reference implementations, across random
//! batch shapes.

use proptest::prelude::*;
use rand::Rng;
use vbatch_core::aux::StepState;
use vbatch_core::sep::gemm::gemm_vbatched;
use vbatch_core::sep::trsm::{trsm_left_vbatched, trsm_panel_vbatched};
use vbatch_core::sep::trtri::{trtri_diag_vbatched, TileWorkspace};
use vbatch_core::sep::{LiveGrid, SepKernel, DEFAULT_NB_PANEL};
use vbatch_core::VBatch;
use vbatch_dense::gen::{rand_mat, seeded_rng, spd_vec};
use vbatch_dense::naive;
use vbatch_dense::verify::max_abs_diff_slices;
use vbatch_dense::{Diag, MatMut, MatRef, Side, Trans, Uplo};
use vbatch_gpu_sim::{Device, DeviceConfig};

fn trans_strategy() -> impl Strategy<Value = Trans> {
    prop_oneof![Just(Trans::NoTrans), Just(Trans::Trans)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gemm_vbatched_matches_reference(
        seed in 0u64..100_000,
        ta in trans_strategy(),
        tb in trans_strategy(),
        count in 1usize..6,
    ) {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(seed);
        let problems: Vec<(usize, usize, usize)> = (0..count)
            .map(|_| {
                (
                    rng.gen_range(1usize..100),
                    rng.gen_range(1usize..80),
                    rng.gen_range(1usize..40),
                )
            })
            .collect();
        let a_dims: Vec<(usize, usize)> = problems
            .iter()
            .map(|&(m, _, k)| if ta == Trans::NoTrans { (m, k) } else { (k, m) })
            .collect();
        let b_dims: Vec<(usize, usize)> = problems
            .iter()
            .map(|&(_, n, k)| if tb == Trans::NoTrans { (k, n) } else { (n, k) })
            .collect();
        let c_dims: Vec<(usize, usize)> = problems.iter().map(|&(m, n, _)| (m, n)).collect();
        let mut ab = VBatch::<f64>::alloc(&dev, &a_dims).unwrap();
        let mut bb = VBatch::<f64>::alloc(&dev, &b_dims).unwrap();
        let mut cb = VBatch::<f64>::alloc(&dev, &c_dims).unwrap();
        let mut hosts = Vec::new();
        for i in 0..count {
            let av = rand_mat::<f64>(&mut rng, a_dims[i].0 * a_dims[i].1);
            let bv = rand_mat::<f64>(&mut rng, b_dims[i].0 * b_dims[i].1);
            let cv = rand_mat::<f64>(&mut rng, c_dims[i].0 * c_dims[i].1);
            ab.upload_matrix(i, &av).unwrap();            bb.upload_matrix(i, &bv).unwrap();            cb.upload_matrix(i, &cv).unwrap();            hosts.push((av, bv, cv));
        }
        let max_m = problems.iter().map(|p| p.0).max().unwrap();
        let max_n = problems.iter().map(|p| p.1).max().unwrap();
        gemm_vbatched(
            &dev, ta, tb, 1.25, ab.view(), bb.view(), -0.75, cb.view(), max_m, max_n,
        )
        .unwrap();
        for (i, &(m, n, _)) in problems.iter().enumerate() {
            let (av, bv, cv) = &hosts[i];
            let want = naive::gemm_ref(
                ta, tb, 1.25, av, a_dims[i].0, a_dims[i].1, bv, b_dims[i].0, b_dims[i].1,
                -0.75, cv, m, n,
            );
            let got = cb.download_matrix(i);
            prop_assert!(max_abs_diff_slices(&got, &want) < 1e-10, "problem {i}");
        }
    }

    #[test]
    fn trsm_left_vbatched_roundtrip(
        seed in 0u64..100_000,
        uplo in prop_oneof![Just(Uplo::Lower), Just(Uplo::Upper)],
        trans in trans_strategy(),
        diag in prop_oneof![Just(Diag::NonUnit), Just(Diag::Unit)],
        count in 1usize..5,
    ) {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(seed);
        let orders: Vec<usize> = (0..count).map(|_| rng.gen_range(1usize..48)).collect();
        let nrhs: Vec<usize> = (0..count).map(|_| rng.gen_range(1usize..12)).collect();
        let a_dims: Vec<(usize, usize)> = orders.iter().map(|&n| (n, n)).collect();
        let b_dims: Vec<(usize, usize)> = orders.iter().zip(&nrhs).map(|(&n, &r)| (n, r)).collect();
        let mut ab = VBatch::<f64>::alloc(&dev, &a_dims).unwrap();
        let mut bb = VBatch::<f64>::alloc(&dev, &b_dims).unwrap();
        let mut expected = Vec::new();
        for i in 0..count {
            let n = orders[i];
            let r = nrhs[i];
            let mut l = rand_mat::<f64>(&mut rng, n * n);
            for d in 0..n {
                l[d + d * n] = 2.0 + l[d + d * n].abs();
            }
            let x = rand_mat::<f64>(&mut rng, n * r);
            let mut b = x.clone();
            vbatch_dense::trmm(
                Side::Left, uplo, trans, diag, 1.0,
                MatRef::from_slice(&l, n, n, n),
                MatMut::from_slice(&mut b, n, r, n),
            );
            ab.upload_matrix(i, &l).unwrap();            bb.upload_matrix(i, &b).unwrap();            expected.push(x);
        }
        trsm_left_vbatched(&dev, uplo, trans, diag, ab.view(), bb.view()).unwrap();
        for i in 0..count {
            let got = bb.download_matrix(i);
            prop_assert!(
                max_abs_diff_slices(&got, &expected[i]) < 1e-7,
                "solve {i} (n={}, rhs={})", orders[i], nrhs[i]
            );
        }
    }
}

#[test]
fn gemm_vbatched_clock_and_blocks_accounted() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut rng = seeded_rng(9);
    let dims_h = [(100usize, 100usize)];
    let mut ab = VBatch::<f64>::alloc(&dev, &dims_h).unwrap();
    let mut bb = VBatch::<f64>::alloc(&dev, &dims_h).unwrap();
    let mut cb = VBatch::<f64>::alloc(&dev, &dims_h).unwrap();
    ab.upload_matrix(0, &rand_mat::<f64>(&mut rng, 10000))
        .unwrap();
    bb.upload_matrix(0, &rand_mat::<f64>(&mut rng, 10000))
        .unwrap();
    cb.upload_matrix(0, &rand_mat::<f64>(&mut rng, 10000))
        .unwrap();
    dev.reset_metrics();
    let stats = gemm_vbatched(
        &dev,
        Trans::NoTrans,
        Trans::NoTrans,
        1.0,
        ab.view(),
        bb.view(),
        0.0,
        cb.view(),
        100,
        100,
    )
    .unwrap();
    assert!(dev.now() >= stats.time_s * 0.99);
    assert_eq!(stats.timing.blocks, 2 * 4); // ceil(100/64) × ceil(100/32)
    assert!(stats.timing.flops_useful >= 2.0 * 100.0 * 100.0 * 100.0 * 0.99);
    assert!(stats.gflops() > 0.0);
}

/// The separated Cholesky panel solve at the default panel width:
/// `trtri_diag_vbatched` then the `trtri + trmm` `trsm` of each
/// triangle, against `dense::trsm` on the host. At 128 the inversion
/// and both products leave their base cases (the unit tests beside the
/// kernels run `nb = 8`, which never does), and the sizes give one
/// trailing row, a ragged tile and several full tiles. The simulated
/// clock and launch count are pinned: how the host computes a tile is
/// not the device's business. Each launch covers its live grid alone
/// (3 inversion blocks, 1 + 2 + 6 = 9 `trsm` tiles); a grid sized by the
/// largest matrix dispatched 18 `trsm` blocks, 9 of them dead.
#[test]
fn default_panel_trtri_trsm_match_dense_at_unchanged_sim_cost() {
    let nb = DEFAULT_NB_PANEL;
    let sizes = [129usize, 200, 512];
    // 64.60 µs for the two launches, either triangle (64.999 µs when
    // the `trsm` grid still carried the 9 dead blocks).
    let want_now = f64::from_bits(0x3f10_ef23_0c3c_4cf4);
    for uplo in [Uplo::Lower, Uplo::Upper] {
        let dev = Device::new(DeviceConfig::k40c());
        let mut rng = seeded_rng(2016);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
        let mut hosts = Vec::new();
        for (i, &n) in sizes.iter().enumerate() {
            let mut m = spd_vec::<f64>(&mut rng, n);
            // Factor the leading panel tile so the diagonal block exists.
            vbatch_dense::potf2(uplo, MatMut::from_slice(&mut m, n, n, n).sub(0, 0, nb, nb))
                .unwrap();
            batch.upload_matrix(i, &m).unwrap();
            hosts.push(m);
        }
        let st = StepState::<f64>::alloc(&dev, sizes.len()).unwrap();
        st.update(&dev, batch.view(), 0).unwrap();
        let view = st.view(batch.view());
        let work = TileWorkspace::<f64>::alloc(&dev, sizes.len(), nb).unwrap();
        let (inv, _inv_starts) = LiveGrid::upload(&dev, SepKernel::Trtri, &sizes, 0, nb).unwrap();
        let (grid, _starts) = LiveGrid::upload(&dev, SepKernel::Trsm, &sizes, 0, nb).unwrap();
        dev.reset_metrics();
        trtri_diag_vbatched(&dev, inv, uplo, view, &work, nb).unwrap();
        trsm_panel_vbatched(&dev, grid, uplo, view, &work, nb).unwrap();
        assert_eq!(dev.launch_count(), 2);
        assert_eq!(dev.now(), want_now, "{uplo:?}: simulated clock moved");
        dev.with_profiler(|p| {
            for (name, blocks) in [("dtrtri_vbatched", 3), ("dtrsm_vbatched", 9)] {
                let e = p.get(name).expect("launched");
                assert_eq!(
                    (e.blocks, e.early_exit_blocks),
                    (blocks, 0),
                    "{uplo:?} {name}"
                );
            }
        });
        for (i, &n) in sizes.iter().enumerate() {
            let mut want = hosts[i].clone();
            let mut w = MatMut::from_slice(&mut want, n, n, n);
            let t11 = w.alias_ref().sub(0, 0, nb, nb);
            let (side, panel) = match uplo {
                Uplo::Lower => (Side::Right, w.rb().sub(nb, 0, n - nb, nb)),
                Uplo::Upper => (Side::Left, w.rb().sub(0, nb, nb, n - nb)),
            };
            vbatch_dense::trsm(side, uplo, Trans::Trans, Diag::NonUnit, 1.0, t11, panel);
            let got = batch.download_matrix(i);
            assert!(
                max_abs_diff_slices(&got, &want) < 1e-9,
                "{uplo:?} matrix {i} (n={n}): {}",
                max_abs_diff_slices(&got, &want)
            );
        }
    }
}
