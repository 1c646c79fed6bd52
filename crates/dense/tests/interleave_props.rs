//! Property oracles for the interleaved batch tier.
//!
//! The tier's contract is stronger than a residual bound: per lane it
//! must be **bit-identical** to the scalar tier it mirrors. Every
//! comparison below is on raw bit patterns, never within a tolerance.

use proptest::prelude::*;
use vbatch_dense::gen::{rand_mat, seeded_rng, spd_vec};
use vbatch_dense::interleave::{
    interleaved_len, lane_count, pack_lanes, potrf_lanes, potrf_lanes_in_place, unpack_lane,
};
use vbatch_dense::{potf2, MatMut, MatRef, Scalar, Uplo};

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

/// One lane group through [`potrf_lanes_in_place`], held to three
/// oracles at once. Lane `l` has order `sizes[l]` and leading dimension
/// `sizes[l] + pad`; every element the factorization must not touch —
/// the strict upper triangle and the `ld` gap rows — holds a NaN
/// sentinel. `poison` makes that lane non-SPD at its middle column.
/// `zero = Some((lane, k))` decouples unknown `k` of that lane: row `k`
/// left of the diagonal becomes `+0.0`, so every multiplier of column
/// `k` is exactly zero in a live lane, and column `k` below the diagonal
/// becomes `-0.0`. A skipped update and an applied `fma(-0, a, c)`
/// differ only when `c` is a signed zero, so the negative zeros are what
/// make the scalar tier's `w != 0` skip observable.
///
/// * per lane, the caller's **whole storage** (sentinels included) and
///   the `info` code equal `potf2` Lower run in place on the same bytes;
/// * so a broken lane freezes exactly as the scalar tier does and its
///   lane-mates do not notice;
/// * the result equals the explicit pack → [`potrf_lanes`] → unpack path
///   at the padded extent 32, i.e. it does not depend on the tile extent
///   the routine picked (the group's own maximum).
fn in_place_group_holds<T: Scalar>(
    sizes: &[usize],
    pad: usize,
    poison: Option<usize>,
    zero: Option<(usize, usize)>,
    seed: u64,
) {
    let mut rng = seeded_rng(seed);
    let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<u64>>();
    let sentinel = T::from_f64(f64::NAN);
    let store: Vec<Vec<T>> = sizes
        .iter()
        .enumerate()
        .map(|(l, &n)| {
            let ld = n + pad;
            let dense = spd_vec::<T>(&mut rng, n);
            let mut a = vec![sentinel; ld * n];
            for j in 0..n {
                a[j * ld + j..j * ld + n].copy_from_slice(&dense[j * n + j..(j + 1) * n]);
            }
            if poison == Some(l) && n > 0 {
                a[(n / 2) * (ld + 1)] = T::from_f64(-1.0);
            }
            if let Some((_, k)) = zero.filter(|&(z, k)| z == l && k < n) {
                for t in 0..k {
                    a[t * ld + k] = T::ZERO;
                }
                for r in k + 1..n {
                    a[k * ld + r] = T::from_f64(-0.0);
                }
            }
            a
        })
        .collect();
    fn view<T: Scalar>(a: &mut [T], n: usize, pad: usize) -> MatMut<'_, T> {
        MatMut::from_slice(a, n, n, (n + pad).max(1))
    }

    let mut got = store.clone();
    let mut infos = vec![-1i32; sizes.len()];
    let mut views: Vec<MatMut<'_, T>> = got
        .iter_mut()
        .zip(sizes)
        .map(|(a, &n)| view(a, n, pad))
        .collect();
    potrf_lanes_in_place(&mut views, &mut infos);

    let mut want = store.clone();
    for (l, (a, &n)) in want.iter_mut().zip(sizes).enumerate() {
        let code = potf2(Uplo::Lower, view(a, n, pad)).map_or_else(|e| e.info() as i32, |()| 0);
        assert_eq!(infos[l], code, "lane {l} (n = {n}) info");
        assert_eq!(
            bits(&got[l]),
            bits(a),
            "lane {l} (n = {n}) storage vs potf2"
        );
    }

    // Same group at the padded extent through the explicit stages.
    let lanes = lane_count::<T>();
    let mut wide = store.clone();
    let mut tile = vec![T::ZERO; interleaved_len(32, 32, lanes)];
    let refs: Vec<MatRef<'_, T>> = wide
        .iter()
        .zip(sizes)
        .map(|(a, &n)| MatRef::from_slice(a, n, n, (n + pad).max(1)))
        .collect();
    pack_lanes(32, 32, &refs, &mut tile);
    let mut wide_infos = vec![0i32; sizes.len()];
    potrf_lanes(&mut tile, 32, sizes, &mut wide_infos);
    assert_eq!(infos, wide_infos, "info depends on the tile extent");
    for (l, (a, &n)) in wide.iter_mut().zip(sizes).enumerate() {
        unpack_lane(&tile, 32, l, view(a, n, pad));
        assert_eq!(
            bits(&got[l]),
            bits(a),
            "lane {l} depends on the tile extent"
        );
    }
}

/// Every order 0..=32 in both precisions: consecutive orders share a
/// group (non-uniform, so the zero-fill path), then each order alone
/// fills a whole group (uniform: no fill) and a partial one. A set of
/// orders also runs a full uniform group holding both a breakdown lane
/// and a live lane with exactly-zero multipliers.
#[test]
fn in_place_group_covers_every_order() {
    fn sweep<T: Scalar>() {
        let lanes = lane_count::<T>();
        let orders: Vec<usize> = (0..=32).collect();
        for (g, group) in orders.chunks(lanes).enumerate() {
            in_place_group_holds::<T>(group, g % 3, None, None, 100 + g as u64);
        }
        for n in 0..=32usize {
            in_place_group_holds::<T>(&vec![n; lanes], 0, None, None, 200 + n as u64);
            in_place_group_holds::<T>(&vec![n; lanes - 1], 1, Some(0), None, 300 + n as u64);
        }
        for n in (1..=12usize).chain([13, 16, 24, 32]) {
            let zero = Some((0, n / 3));
            in_place_group_holds::<T>(&vec![n; lanes], n % 3, Some(1), zero, 400 + n as u64);
        }
        in_place_group_holds::<T>(&[], 0, None, None, 1);
    }
    sweep::<f64>();
    sweep::<f32>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn in_place_group_bitwise_matches_scalar_tier(
        count in 1usize..9,
        pad in 0usize..3,
        poison in 0usize..12, // ≥ count: nobody breaks down
        seed in 0u64..1_000_000,
    ) {
        let order = |l: usize| (seed as usize / 3 + 11 * l) % 33;
        let f64_sizes: Vec<usize> = (0..count.min(lane_count::<f64>())).map(order).collect();
        let f32_sizes: Vec<usize> = (0..count).map(order).collect();
        in_place_group_holds::<f64>(&f64_sizes, pad, Some(poison), None, seed);
        in_place_group_holds::<f32>(&f32_sizes, pad, Some(poison), None, seed);
    }

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
        let mut full = vec![0.0f64; m * m];
        for l in 0..lanes {
            let top = sizes.get(l).copied().unwrap_or(0);
            unpack_lane(&buf, m, l, MatMut::from_slice(&mut full, m, m, m));
            for j in 0..m {
                for i in 0..m {
                    if i >= top || j >= top {
                        prop_assert_eq!(
                            full[j * m + i].to_bits(),
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
