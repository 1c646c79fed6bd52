//! Left-looking (Crout) LU panel for `f64` on AVX-512F hosts.
//!
//! [`getf2`](crate::getf2) runs this panel when `T` is `f64` and the
//! host has AVX-512F; every other precision and host runs the
//! right-looking loop [`getf2_right_looking`](crate::getf2_right_looking),
//! which is also the bit oracle this panel is tested against.
//!
//! The right-looking loop reads and writes the whole trailing panel once
//! per column. Here the columns are taken in blocks of [`BLOCK`]:
//!
//! * the block receives the earlier pivots;
//! * one top-down walk over [`CHUNK`]-row chunks, held in registers (two
//!   8-lane registers per column), brings it up to date with the
//!   finished columns left of it: a chunk gets the steps from the rows
//!   above it in one mul-sub sweep, then the triangle inside the chunk,
//!   broadcasting row `j`'s lane (`permutexvar`) under a row mask;
//! * the block's own columns then run right-looking: per pivot, one
//!   pass divides the column by the pivot, applies its step to the block
//!   columns right of it and searches the next column for its pivot;
//! * the block's pivots reach the finished columns left of it last.
//!
//! Every element replays the right-looking loop's chain exactly: the
//! steps from columns `j` arrive in ascending `j`, each a separate
//! multiply then subtract (never fused), skipped when `u = a(j, c) == 0`
//! (a NaN `u` still applies) and when column `j` was singular. A column
//! is singular exactly when its finished diagonal `a(j, j)` is zero: a
//! skipped column keeps the zero its pivot search found, and a live one
//! holds a pivot whose magnitude is non-zero or NaN. So the skip needs no
//! scratch, and the panel allocates nothing. Row swaps commute with the
//! earlier steps (both swapped rows had received all of them), which is
//! what lets pivots reach a column late, as long as they arrive before
//! its next step.

use crate::error::{Error, Result};
use crate::matrix::{MatMut, MatRef};
use crate::scalar::Scalar;
use core::any::TypeId;
use std::arch::x86_64::*;

/// Rows per register chunk: two 8-lane registers per column.
const CHUNK: usize = 16;

/// Columns per block; a narrower last block runs with fewer.
const BLOCK: usize = 4;

/// Whether [`getf2`] runs for `T` on this host: `T` is `f64` and the CPU
/// has AVX-512F (detected once, cached).
pub(crate) fn applies<T: Scalar>() -> bool {
    TypeId::of::<T>() == TypeId::of::<f64>() && is_x86_feature_detected!("avx512f")
}

/// [`getf2`](crate::getf2) as the Crout panel, bit for bit.
///
/// # Panics
/// Unless [`applies`]`::<T>()`, or if `ipiv` is shorter than
/// `min(m, n)`.
pub(crate) fn getf2<T: Scalar>(mut a: MatMut<'_, T>, ipiv: &mut [usize]) -> Result<()> {
    assert!(
        applies::<T>(),
        "crout::getf2: needs f64 on an AVX-512F host"
    );
    let (m, n, ld) = (a.nrows(), a.ncols(), a.ld());
    // SAFETY: `T` is exactly `f64` (checked above), so the view is
    // re-stated over the same storage and extent; AVX-512F was detected.
    unsafe {
        panel(
            MatMut::from_raw_parts(a.as_mut_ptr().cast::<f64>(), m, n, ld),
            ipiv,
        )
    }
}

#[target_feature(enable = "avx512f")]
fn panel(mut a: MatMut<'_, f64>, ipiv: &mut [usize]) -> Result<()> {
    let (m, n) = (a.nrows(), a.ncols());
    let k = m.min(n);
    assert!(ipiv.len() >= k, "getf2: ipiv too short");
    let mut first_zero: Option<usize> = None;
    let mut c0 = 0;
    while c0 < n {
        let q = BLOCK.min(n - c0);
        let (mut left, right) = a.rb().split_at_col(c0);
        let mut block = right.sub(0, 0, m, q);
        for (j, &p) in ipiv[..c0.min(k)].iter().enumerate() {
            swap_rows(&mut block, j, p);
        }
        if c0 > 0 {
            let l = left.as_ref();
            match q {
                1 => chunks::<1>(l, block.rb()),
                2 => chunks::<2>(l, block.rb()),
                3 => chunks::<3>(l, block.rb()),
                _ => chunks::<4>(l, block.rb()),
            }
        }
        // The block's own steps, right-looking inside the block; each
        // step hands the next column's pivot search to the one after.
        let pivots = c0..(c0 + q).min(k);
        let mut search = None;
        for c in pivots.clone() {
            let t = c - c0;
            let (i, best) = match search.take() {
                Some(found) => found,
                None => iamax(&block.col_as_slice(t)[c..]),
            };
            let p = c + i;
            ipiv[c] = p;
            if best == 0.0 {
                first_zero.get_or_insert(c);
                continue;
            }
            swap_rows(&mut block, c, p);
            search = step(block.rb(), c, t, c + 1 < k);
        }
        // The block's pivots reach the finished columns left of it only
        // now: no step above reads them.
        for c in pivots {
            swap_rows(&mut left, c, ipiv[c]);
        }
        c0 += q;
    }
    match first_zero {
        Some(j) => Err(Error::Singular { column: j }),
        None => Ok(()),
    }
}

/// Swaps rows `i` and `p` of `a`. Row by row across the columns: the
/// swaps of one column would queue behind each other's stores.
fn swap_rows(a: &mut MatMut<'_, f64>, i: usize, p: usize) {
    if p != i {
        for j in 0..a.ncols() {
            let t = a.get(i, j);
            a.set(i, j, a.get(p, j));
            a.set(p, j, t);
        }
    }
}

/// Step `c` (block column `t`, pivot in place) inside the block `b`:
/// one pass over rows `c+1..m` scales column `t` by the pivot and
/// applies the step to the block columns right of it. With `search`,
/// the same pass runs the pivot search of column `t + 1` (if in the
/// block), returned as [`iamax`] would.
#[target_feature(enable = "avx512f")]
fn step(mut b: MatMut<'_, f64>, c: usize, t: usize, search: bool) -> Option<(usize, f64)> {
    let (m, q) = (b.nrows(), b.ncols());
    let pivot = _mm512_set1_pd(b.get(c, t));
    let zero = _mm512_setzero_pd();
    let mut u = [zero; BLOCK];
    let mut live: [__mmask8; BLOCK] = [0; BLOCK];
    for s in t + 1..q {
        u[s] = _mm512_set1_pd(b.get(c, s));
        live[s] = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(u[s], zero);
    }
    let search = search && t + 1 < q;
    // Per lane, the first maximum of `|x|` over non-NaN `x` and its row.
    let mut best = _mm512_set1_pd(-1.0);
    let mut at = _mm512_setzero_si512();
    let mut row = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
    let mut i = c + 1;
    while i < m {
        let rows = 8.min(m - i);
        let col = &mut b.col_as_mut_slice(t)[i..i + rows];
        let l = _mm512_div_pd(load(col), pivot);
        store(col, l);
        for s in t + 1..q {
            let col = &mut b.col_as_mut_slice(s)[i..i + rows];
            let y = load(col);
            let y = mul_sub(y, l, u[s], live[s]);
            store(col, y);
            if search && s == t + 1 {
                let v = _mm512_abs_pd(y);
                let gt = _mm512_mask_cmp_pd_mask::<_CMP_GT_OQ>(lanes(rows), v, best);
                best = _mm512_mask_mov_pd(best, gt, v);
                at = _mm512_mask_mov_epi64(at, gt, row);
            }
        }
        row = _mm512_add_epi64(row, _mm512_set1_epi64(8));
        i += rows;
    }
    if !search {
        return None;
    }
    let first = b.get(c + 1, t + 1).abs();
    if first.is_nan() {
        return Some((0, first));
    }
    let max = _mm512_reduce_max_pd(best);
    let hit = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(best, _mm512_set1_pd(max));
    let at = _mm512_mask_mov_epi64(_mm512_set1_epi64(i64::MAX), hit, at);
    Some((_mm512_reduce_min_epi64(at) as usize, max))
}

/// Brings every row of the block `b` (`m × Q`, earlier pivots applied)
/// up to date with the finished columns `l` (`m × c0`) left of it: row
/// `i` receives the steps from every live `j < min(i, c0)`, ascending.
#[target_feature(enable = "avx512f")]
fn chunks<const Q: usize>(l: MatRef<'_, f64>, mut b: MatMut<'_, f64>) {
    let (m, c0) = (b.nrows(), l.ncols());
    let zero = _mm512_setzero_pd();
    let mut r0 = 0;
    while r0 < m {
        let rows = CHUNK.min(m - r0);
        let (top, mut chunk) = b.rb().split_at_row(r0);
        let top = top.as_ref();
        let mut x = [[zero; 2]; Q];
        for (q, xq) in x.iter_mut().enumerate() {
            *xq = load2(&chunk.col_as_slice(q)[..rows]);
        }
        // Steps from the finished rows above the chunk.
        let u: [&[f64]; Q] = core::array::from_fn(|q| top.col_as_slice(q));
        for j in 0..r0.min(c0) {
            let lj = l.col_as_slice(j);
            if lj[j] == 0.0 {
                continue;
            }
            let lv = load2(&lj[r0..r0 + rows]);
            for (xq, uq) in x.iter_mut().zip(&u) {
                let uj = _mm512_set1_pd(uq[j]);
                let live = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(uj, zero);
                *xq = [0, 1].map(|h| mul_sub(xq[h], lv[h], uj, live));
            }
        }
        // The triangle inside the chunk: `u` is the chunk's own row `j`,
        // and only the rows below it take the step.
        for j in r0..(r0 + rows).min(c0) {
            let lj = l.col_as_slice(j);
            if lj[j] == 0.0 {
                continue;
            }
            let t = j - r0;
            let lv = load2(&lj[r0..r0 + rows]);
            let below = (u32::MAX << (t + 1)) as u16;
            let lane = _mm512_set1_epi64((t % 8) as i64);
            for xq in &mut x {
                let uj = _mm512_permutexvar_pd(lane, xq[t / 8]);
                let live = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(uj, zero);
                *xq = [0, 1].map(|h| mul_sub(xq[h], lv[h], uj, (below >> (8 * h)) as u8 & live));
            }
        }
        for (q, xq) in x.iter().enumerate() {
            store2(&mut chunk.col_as_mut_slice(q)[..rows], *xq);
        }
        r0 += rows;
    }
}

/// `x − l·u` in the lanes `keep` sets, `x` elsewhere: a separate
/// multiply and subtract, as the right-looking loop rounds them.
#[target_feature(enable = "avx512f")]
fn mul_sub(x: __m512d, l: __m512d, u: __m512d, keep: __mmask8) -> __m512d {
    _mm512_mask_sub_pd(x, keep, x, _mm512_mul_pd(l, u))
}

/// The right-looking loop's pivot search over `x` (non-empty) in two
/// vector passes, the maximum and then its first index. `best` starts at
/// `|x[0]|` and only a strictly larger `|x[i]|` replaces it, so the first
/// maximum wins, a NaN `x[0]` keeps index 0 and a NaN elsewhere never
/// wins. Returns `(index, best)`.
#[target_feature(enable = "avx512f")]
fn iamax(x: &[f64]) -> (usize, f64) {
    let first = x[0].abs();
    if first.is_nan() {
        return (0, first);
    }
    let mut acc = _mm512_set1_pd(first);
    for s in x.chunks(8) {
        let v = _mm512_abs_pd(load(s));
        acc = _mm512_mask_mov_pd(acc, _mm512_cmp_pd_mask::<_CMP_GT_OQ>(v, acc), v);
    }
    let best = _mm512_reduce_max_pd(acc);
    let target = _mm512_set1_pd(best);
    for (i, s) in x.chunks(8).enumerate() {
        let v = _mm512_abs_pd(load(s));
        let hit = _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(v, target) & lanes(s.len());
        if hit != 0 {
            return (8 * i + hit.trailing_zeros() as usize, best);
        }
    }
    unreachable!("the maximum is |x[i]| for some i")
}

/// The mask of lanes `0..min(len, 8)`.
fn lanes(len: usize) -> __mmask8 {
    if len >= 8 {
        0xFF
    } else {
        (1u8 << len) - 1
    }
}

/// Lanes `0..min(s.len(), 8)` of `s`, zero above.
#[target_feature(enable = "avx512f")]
fn load(s: &[f64]) -> __m512d {
    // SAFETY: the masked load reads only the lanes `lanes` sets, each an
    // index of `s`.
    unsafe { _mm512_maskz_loadu_pd(lanes(s.len()), s.as_ptr()) }
}

/// Writes lanes `0..min(s.len(), 8)` of `v` to `s`.
#[target_feature(enable = "avx512f")]
fn store(s: &mut [f64], v: __m512d) {
    // SAFETY: the masked store writes only the lanes `lanes` sets, each
    // an index of `s`.
    unsafe { _mm512_mask_storeu_pd(s.as_mut_ptr(), lanes(s.len()), v) }
}

/// Lanes `0..min(s.len(), 16)` of `s` as two registers, zero above.
#[target_feature(enable = "avx512f")]
fn load2(s: &[f64]) -> [__m512d; 2] {
    let (lo, hi) = s.split_at(s.len().min(8));
    [load(lo), load(hi)]
}

/// Writes lanes `0..min(s.len(), 16)` of `v` to `s`.
#[target_feature(enable = "avx512f")]
fn store2(s: &mut [f64], v: [__m512d; 2]) {
    let (lo, hi) = s.split_at_mut(s.len().min(8));
    store(lo, v[0]);
    store(hi, v[1]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The right-looking loop's pivot search.
    fn scan(x: &[f64]) -> (usize, f64) {
        let (mut p, mut best) = (0, x[0].abs());
        for (i, v) in x.iter().enumerate().skip(1) {
            if v.abs() > best {
                best = v.abs();
                p = i;
            }
        }
        (p, best)
    }

    /// Ties, signed zeros, infinities and NaNs, or a uniform value.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            proptest::sample::select(vec![
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                1.0,
                -1.0,
                0.5,
                -0.5,
            ]),
            -1.0f64..1.0,
        ]
    }

    /// The result as bits, a NaN `best` as a class.
    fn class((p, best): (usize, f64)) -> (usize, u64) {
        (
            p,
            if best.is_nan() {
                u64::MAX
            } else {
                best.to_bits()
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn iamax_matches_scan(x in prop::collection::vec(value(), 1..40)) {
            prop_assume!(is_x86_feature_detected!("avx512f"));
            // SAFETY: AVX-512F was just detected.
            let got = unsafe { iamax(&x) };
            prop_assert_eq!(class(got), class(scan(&x)), "{:?}", x);
        }

        #[test]
        fn step_search_matches_scan(x in prop::collection::vec(value(), 1..40)) {
            prop_assume!(is_x86_feature_detected!("avx512f"));
            // Column 0 has the pivot 1 over zeros, column 1 has u = 0
            // over `x`: the step leaves `x` as it is and searches it.
            let m = x.len() + 1;
            let mut a = vec![0.0; 2 * m];
            a[0] = 1.0;
            a[m + 1..].copy_from_slice(&x);
            // SAFETY: AVX-512F was just detected.
            let got = unsafe { step(MatMut::from_slice(&mut a, m, 2, m), 0, 0, true) };
            prop_assert_eq!(got.map(class), Some(class(scan(&x))), "{:?}", x);
        }
    }
}
