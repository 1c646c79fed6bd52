//! Property oracles for the interleaved batch tier.
//!
//! The tier's contract is stronger than a residual bound: per lane it
//! must be **bit-identical** to the scalar tier it mirrors. Every
//! comparison below is on raw bit patterns, never within a tolerance.

use proptest::prelude::*;
use vbatch_dense::gen::{rand_mat, seeded_rng, spd_vec};
use vbatch_dense::interleave::{
    interleaved_len, lane_count, lane_index, pack_lanes, potrf_lanes, unpack_lane,
};
use vbatch_dense::{potf2, MatMut, MatRef, Uplo};

/// Packs square per-lane matrices (`sizes[l]` each) into a fresh group
/// buffer of extent `m`.
fn pack_square(m: usize, mats: &[Vec<f64>], sizes: &[usize]) -> Vec<f64> {
    let lanes = lane_count::<f64>();
    let mut buf = vec![0.0f64; interleaved_len(m, m, lanes)];
    let refs: Vec<MatRef<'_, f64>> = mats
        .iter()
        .zip(sizes)
        .map(|(v, &n)| MatRef::from_slice(v, n, n, n))
        .collect();
    pack_lanes(m, m, &refs, &mut buf);
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_unpack_roundtrips_partial_mixed_groups(
        count in 1usize..5, // 1..=4 lanes: covers counts not divisible by L
        seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let lanes = lane_count::<f64>();
        prop_assert!(count <= lanes);
        // Mixed sizes within one window, including order-1 matrices.
        let sizes: Vec<usize> = (0..count).map(|l| 1 + (seed as usize + 3 * l) % 8).collect();
        let m = *sizes.iter().max().unwrap();
        let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| rand_mat(&mut rng, n * n)).collect();
        let buf = pack_square(m, &mats, &sizes);
        for (l, (&n, orig)) in sizes.iter().zip(&mats).enumerate() {
            let mut out = vec![0.0f64; n * n];
            unpack_lane(&buf, m, l, MatMut::from_slice(&mut out, n, n, n));
            let ob: Vec<u64> = orig.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(gb, ob, "lane {} did not roundtrip", l);
        }
        // Every absent lane and every padding element is exactly zero.
        for l in 0..lanes {
            let top = if l < count { sizes[l] } else { 0 };
            for j in 0..m {
                for i in 0..m {
                    if i >= top || j >= top {
                        prop_assert_eq!(
                            buf[lane_index(m, lanes, i, j, l)].to_bits(),
                            0u64,
                            "padding ({}, {}) lane {} not +0.0", i, j, l
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lane_potrf_bitwise_matches_scalar_tier(
        count in 1usize..5,
        corrupt in 0usize..3, // 0: all SPD; 1/2: one lane breaks down
        seed in 0u64..1_000_000,
    ) {
        let mut rng = seeded_rng(seed);
        let lanes = lane_count::<f64>();
        prop_assert!(count <= lanes);
        let sizes: Vec<usize> = (0..count).map(|l| 1 + (seed as usize + 5 * l) % 12).collect();
        let m = *sizes.iter().max().unwrap();
        let mut mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        if corrupt > 0 {
            // Poison one diagonal entry so that lane breaks down there.
            let victim = (seed as usize) % count;
            let n = sizes[victim];
            let col = (seed as usize / 7) % n;
            mats[victim][col + col * n] = -1.0;
        }
        let mut buf = pack_square(m, &mats, &sizes);
        let mut infos = vec![0i32; count];
        potrf_lanes(&mut buf, m, &sizes, &mut infos);
        for (l, (&n, orig)) in sizes.iter().zip(&mats).enumerate() {
            // Scalar oracle: potf2 on the same input, in place.
            let mut want = orig.clone();
            let want_info = match potf2(Uplo::Lower, MatMut::from_slice(&mut want, n, n, n)) {
                Ok(()) => 0,
                Err(e) => e.info() as i32,
            };
            prop_assert_eq!(infos[l], want_info, "lane {} info", l);
            let mut got = vec![0.0f64; n * n];
            unpack_lane(&buf, m, l, MatMut::from_slice(&mut got, n, n, n));
            let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            // Success and breakdown lanes alike: the full in-place
            // state (factors, or partial factors + untouched tail)
            // matches the scalar tier bit-for-bit.
            prop_assert_eq!(gb, wb, "lane {} state diverged", l);
        }
    }
}
