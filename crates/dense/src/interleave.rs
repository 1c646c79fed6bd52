//! Tier 3 — the AoSoA **interleaved batch tier**: cross-matrix SIMD for
//! matrices smaller than the register microkernel.
//!
//! Per-matrix register tiling (tiers 1–2, [`crate::level3`]) cannot fill
//! SIMD lanes when the whole matrix is smaller than one `MR × NR` tile —
//! `dpotrf` at n ≤ 32 runs near-scalar while blocked `gemm` reaches its
//! throughput plateau. Batched-small engines fix this by vectorizing
//! *across* matrices instead of within them (Deshmukh & Yokota's batched
//! small-GEMM study; Jhurani & Mullowney's multi-small-matrix GEMM
//! interface): pack `L` independent matrices of nearly-equal size —
//! exactly what the implicit-sorting windows produce — into a
//! lane-interleaved (AoSoA) buffer and let every vector instruction
//! advance all `L` factorizations at once.
//!
//! **Layout.** A lane group of `L` matrices (`L` = [`lane_count`]: the
//! 256-bit AVX2 width, 4 for `f64`, 8 for `f32`) with group extent
//! `m × n` stores element `(i, j)` of lane `l` at `(j*m + i)*L + l`: the
//! `L` lanes of one element are contiguous, so one 32-byte vector
//! load/store moves that element for every matrix in the group. Lanes
//! whose matrix is smaller than the group extent — or absent entirely,
//! when the batch count is not a multiple of `L` — are zero-filled by
//! [`pack_lanes`]; zeros are absorbing under the factorization updates,
//! so dead lanes need no per-row masking, only the per-column live masks
//! described below.
//!
//! **Bit-identity contract.** The lane kernel performs, per lane, the
//! *same floating-point operations in the same order* as the slice-tier
//! reference it mirrors ([`crate::potf2`] Lower in-place). IEEE-754
//! arithmetic is lane-wise, so the vectorized results are
//! bit-identical to the scalar tier — including breakdown
//! detection: a non-positive pivot in one lane freezes that lane (all
//! its subsequent stores are masked off, preserving the partially
//! factored state the scalar routine would leave) without perturbing or
//! terminating its lane-mates. A private portable twin runs the
//! identical per-lane operation order without vector instructions; it is
//! both the non-AVX2 fallback and the oracle the unit tests compare the
//! dispatched path against.

use crate::matrix::{MatMut, MatRef};
use crate::scalar::Scalar;

/// Upper bound on [`lane_count`] over the supported precisions (`f32`'s
/// eight AVX2 lanes) — sizes fixed-capacity per-lane state.
pub const MAX_LANES: usize = 8;

/// Number of interleave lanes for precision `T`: the 256-bit AVX2
/// vector width, 4 for `f64` and 8 for `f32`. The layout uses this
/// width even when the portable fallback executes, so results and
/// buffer shapes are identical across hosts.
#[must_use]
pub fn lane_count<T: Scalar>() -> usize {
    32 / T::BYTES
}

/// Buffer length (in elements) of one `m × n` lane group of `lanes`
/// matrices.
#[must_use]
pub fn interleaved_len(m: usize, n: usize, lanes: usize) -> usize {
    m * n * lanes
}

/// Offset of element `(i, j)` of lane `l` in an `m`-row group of
/// `lanes` matrices.
#[inline]
fn lane_index(m: usize, lanes: usize, i: usize, j: usize, l: usize) -> usize {
    (j * m + i) * lanes + l
}

/// Packs up to [`lane_count`] matrices into the interleaved buffer of a
/// `m × n` lane group: lane `l` receives `srcs[l]` in its top-left
/// corner; every other element of the buffer — absent lanes, and the
/// rows/columns of lanes smaller than the group extent — is
/// zero-filled, which the lane kernels rely on.
///
/// # Panics
/// If `srcs.len() > lane_count::<T>()`, a source exceeds the group
/// extent, or the buffer is shorter than [`interleaved_len`].
pub fn pack_lanes<T: Scalar>(m: usize, n: usize, srcs: &[MatRef<'_, T>], buf: &mut [T]) {
    let lanes = lane_count::<T>();
    assert!(srcs.len() <= lanes, "pack_lanes: more sources than lanes");
    let len = interleaved_len(m, n, lanes);
    assert!(buf.len() >= len, "pack_lanes: buffer too small");
    for src in srcs {
        assert!(
            src.nrows() <= m && src.ncols() <= n,
            "pack_lanes: source exceeds group extent"
        );
    }
    // Zero-fill only when a group element is not covered by a source
    // (absent lanes, or lanes smaller than the extent) — the common
    // full-and-uniform group skips the pass entirely.
    if srcs.len() < lanes || srcs.iter().any(|s| s.nrows() < m || s.ncols() < n) {
        buf[..len].fill(T::ZERO);
    }
    for (l, src) in srcs.iter().enumerate() {
        for j in 0..src.ncols() {
            let col = src.col_as_slice(j);
            let base = j * m * lanes;
            for (chunk, &v) in buf[base..base + col.len() * lanes]
                .chunks_exact_mut(lanes)
                .zip(col)
            {
                chunk[l] = v;
            }
        }
    }
}

/// Extracts lane `l` of an `m`-row interleaved group into `dst`
/// (element-exact inverse of [`pack_lanes`] over the lane's extent).
///
/// # Panics
/// If the buffer is shorter than the `dst` extent requires.
pub fn unpack_lane<T: Scalar>(buf: &[T], m: usize, l: usize, mut dst: MatMut<'_, T>) {
    let lanes = lane_count::<T>();
    let (rows, cols) = (dst.nrows(), dst.ncols());
    assert!(rows <= m && l < lanes, "unpack_lane: lane out of range");
    if rows > 0 && cols > 0 {
        assert!(
            buf.len() > lane_index(m, lanes, rows - 1, cols - 1, l),
            "unpack_lane: buffer too small"
        );
    }
    for j in 0..cols {
        let col = dst.col_as_mut_slice(j);
        let base = j * m * lanes;
        for (chunk, v) in buf[base..base + col.len() * lanes]
            .chunks_exact(lanes)
            .zip(col)
        {
            *v = chunk[l];
        }
    }
}

// ---------------------------------------------------------------------
// potf2 lanes (Lower) — the driver's batched-small kernel.
// ---------------------------------------------------------------------

/// Lane-parallel unblocked Cholesky (Lower): factorizes lane `l` of the
/// `m × m` group to order `ns[l]`, writing `infos[l] = 0` on success or
/// the 1-based breakdown column (the [`crate::potf2`] convention). A
/// broken lane freezes — its columns before the breakdown stay
/// factored, the rest keep their packed values — and never disturbs its
/// lane-mates. Per lane bit-identical to [`crate::potf2`] Lower on
/// in-place storage.
///
/// Dispatches to the AVX2+FMA path when available, else runs a portable
/// per-lane loop with the identical operation order.
///
/// # Panics
/// If `ns`/`infos` disagree in length, exceed [`lane_count`], name an
/// order above `m`, or the buffer is shorter than the group.
pub fn potrf_lanes<T: Scalar>(buf: &mut [T], m: usize, ns: &[usize], infos: &mut [i32]) {
    check_group::<T>(buf, m, ns, infos);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if x86::potrf(buf, m, ns, infos) {
        return;
    }
    potrf_lanes_portable(buf, m, ns, infos);
}

/// Factorizes up to [`lane_count`] square matrices **in place** as one
/// lane group (Lower): lane `l` is `mats[l]`, of its own order and
/// leading dimension (order 0 is a no-op lane), and `infos[l]` receives
/// 0 or the 1-based breakdown column. This is the whole batched-small
/// step — stage, [`potrf_lanes`], write back — behind one call, so the
/// simulated device's block and the host engine's lane group share one
/// body.
///
/// The staging tile is [`Scalar::with_scratch`] at the **group's own**
/// extent `max ns` — at most 32 KiB at the driver cutoff, per thread,
/// grow-only, so it stays cache-resident and a warm call allocates
/// nothing. Only the lower triangle moves in either direction: a Lower
/// factorization reads and writes nothing above the diagonal, so each
/// matrix's strict upper triangle keeps the caller's bits (`potf2`'s
/// in-place behavior) and the tile's is never initialized. The tile is
/// zero-filled first only when some lane is absent or smaller than the
/// extent, the rule [`pack_lanes`] uses.
///
/// Per lane bit-identical to [`crate::potf2`] Lower, breakdown state
/// included, whatever the lane-mates and the extent (the
/// [`potrf_lanes`] contract).
///
/// # Panics
/// If `mats`/`infos` disagree in length, exceed [`lane_count`], or a
/// matrix is not square.
pub fn potrf_lanes_in_place<T: Scalar>(mats: &mut [MatMut<'_, T>], infos: &mut [i32]) {
    let lanes = lane_count::<T>();
    assert!(mats.len() <= lanes, "potrf_lanes_in_place: too many lanes");
    assert_eq!(mats.len(), infos.len(), "potrf_lanes_in_place: infos");
    let mut ns = [0usize; MAX_LANES];
    for (n, a) in ns.iter_mut().zip(mats.iter()) {
        assert_eq!(a.nrows(), a.ncols(), "potrf_lanes_in_place: not square");
        *n = a.nrows();
    }
    let ns = &ns[..mats.len()];
    infos.fill(0);
    let m = ns.iter().copied().max().unwrap_or(0);
    if m == 0 {
        return;
    }
    T::with_scratch(interleaved_len(m, m, lanes), |tile| {
        if ns.len() < lanes || ns.iter().any(|&n| n < m) {
            tile.fill(T::ZERO);
        }
        for (l, a) in mats.iter().enumerate() {
            for j in 0..ns[l] {
                let col = &a.col_as_slice(j)[j..];
                let base = (j * m + j) * lanes;
                for (chunk, &v) in tile[base..base + col.len() * lanes]
                    .chunks_exact_mut(lanes)
                    .zip(col)
                {
                    chunk[l] = v;
                }
            }
        }
        potrf_lanes(tile, m, ns, infos);
        for (l, a) in mats.iter_mut().enumerate() {
            for j in 0..ns[l] {
                let col = &mut a.col_as_mut_slice(j)[j..];
                let base = (j * m + j) * lanes;
                for (chunk, v) in tile[base..base + col.len() * lanes]
                    .chunks_exact(lanes)
                    .zip(col)
                {
                    *v = chunk[l];
                }
            }
        }
    });
}

/// Portable per-lane reference for [`potrf_lanes`]: identical operation
/// order, one lane at a time. This is the non-AVX2 fallback and the
/// oracle the unit tests hold the vector path to.
fn potrf_lanes_portable<T: Scalar>(buf: &mut [T], m: usize, ns: &[usize], infos: &mut [i32]) {
    check_group::<T>(buf, m, ns, infos);
    let lanes = lane_count::<T>();
    for (l, (&n, info)) in ns.iter().zip(infos.iter_mut()).enumerate() {
        *info = potrf_one_lane(buf, m, lanes, l, n);
    }
}

fn check_group<T: Scalar>(buf: &[T], m: usize, ns: &[usize], infos: &[i32]) {
    let lanes = lane_count::<T>();
    assert_eq!(ns.len(), infos.len(), "potrf_lanes: ns/infos mismatch");
    assert!(ns.len() <= lanes, "potrf_lanes: more orders than lanes");
    assert!(ns.iter().all(|&n| n <= m), "potrf_lanes: order exceeds m");
    assert!(
        buf.len() >= interleaved_len(m, m, lanes),
        "potrf_lanes: buffer too small"
    );
}

/// [`crate::potf2`] Lower, verbatim operation order, on one lane of the
/// interleaved buffer. Returns 0 or the 1-based breakdown column.
fn potrf_one_lane<T: Scalar>(buf: &mut [T], m: usize, lanes: usize, l: usize, n: usize) -> i32 {
    let at = |i: usize, j: usize| lane_index(m, lanes, i, j, l);
    for j in 0..n {
        let mut ajj = buf[at(j, j)];
        for t in 0..j {
            let v = buf[at(j, t)];
            ajj -= v * v;
        }
        if ajj <= T::ZERO || !ajj.is_finite() {
            return (j + 1) as i32;
        }
        let ajj = ajj.sqrt();
        buf[at(j, j)] = ajj;
        if j + 1 == n {
            continue;
        }
        for t in 0..j {
            let w = buf[at(j, t)];
            if w != T::ZERO {
                let nw = -w;
                for i in (j + 1)..n {
                    buf[at(i, j)] = nw.mul_add(buf[at(i, t)], buf[at(i, j)]);
                }
            }
        }
        for i in (j + 1)..n {
            buf[at(i, j)] = buf[at(i, j)] / ajj;
        }
    }
    0
}

// ---------------------------------------------------------------------
// AVX2+FMA lane kernels.
// ---------------------------------------------------------------------

/// One 256-bit vector instruction per element advances every lane at
/// once; per-lane divergence (breakdown, the `w != 0` skip, absent
/// lanes) is handled by blend-masked stores, which preserve the exact
/// skip semantics of the scalar tier (including signed zeros). Selected
/// per call by `TypeId` after a runtime CPU-feature check, exactly like
/// the blocked tier's microkernel.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    use super::Scalar;
    use core::any::TypeId;
    use std::arch::x86_64::*;

    #[inline]
    fn simd_available() -> bool {
        // `is_x86_feature_detected!` caches its answer in an atomic, so
        // the per-call cost is two relaxed loads.
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    pub(super) fn potrf<T: Scalar>(
        buf: &mut [T],
        m: usize,
        ns: &[usize],
        infos: &mut [i32],
    ) -> bool {
        if !simd_available() {
            return false;
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // Safety: `T` is exactly `f64` and AVX2+FMA was detected.
            unsafe { potrf_f64(cast_mut::<T, f64>(buf), m, ns, infos) };
            true
        } else if TypeId::of::<T>() == TypeId::of::<f32>() {
            // Safety: as above with `T` == `f32`.
            unsafe { potrf_f32(cast_mut::<T, f32>(buf), m, ns, infos) };
            true
        } else {
            false
        }
    }

    fn cast_mut<T: Scalar, U: 'static>(s: &mut [T]) -> &mut [U] {
        debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<U>(), "cast: type mismatch");
        // Safety: caller matched the TypeIds; identical layout.
        unsafe { core::slice::from_raw_parts_mut(s.as_mut_ptr().cast::<U>(), s.len()) }
    }

    /// Generates the lane kernels for one precision. Masks are
    /// full-width all-ones/all-zero vectors (`blendv` keys on the sign
    /// bit, which all-ones sets); live-lane masks are rebuilt per
    /// column from lane state, `w != 0` masks come from an unordered
    /// `NEQ` compare (matching Rust's `!=` on NaN).
    macro_rules! lane_kernels {
        (
            $ty:ty, $lanes:expr, $vec:ty,
            $loadu:ident, $storeu:ident, $set1:ident, $setzero:ident,
            $add:ident, $sub:ident, $mul:ident, $div:ident, $sqrt:ident,
            $fmadd:ident, $blendv:ident, $and:ident, $andnot:ident, $xor:ident,
            $cmp:ident, $movemask:ident,
            $potrf:ident
        ) => {
            /// # Safety
            /// Caller must have verified AVX2+FMA support; buffer
            /// extents checked by the dispatching wrapper.
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $potrf(buf: &mut [$ty], m: usize, ns: &[usize], infos: &mut [i32]) {
                // SAFETY: fn contract — `buf` holds one interleaved m×m group
                // (m·m·L elements), so every `at(i, j)` offset with i, j < m is an
                // in-bounds L-wide access; `infos` holds one lane-set and `ns` at
                // most L entries, bounds-checked where indexed.
                unsafe {
                    const L: usize = $lanes;
                    // All-lanes movemask: when a mask is FULL a blendv keyed
                    // on it returns its second operand unchanged, so the
                    // specialized no-blend loops below stay bit-identical.
                    const FULL: i32 = (1 << L) - 1;
                    // Stash for negated column multipliers at small orders
                    // (the one-time zero-init is a dozen stores).
                    const NWS: usize = 16;
                    let mut nws = [$setzero(); NWS];
                    let p = buf.as_mut_ptr();
                    let at = |i: usize, j: usize| (j * m + i) * L;
                    let zero = $setzero();
                    let neg0 = $set1(-0.0);
                    let inf = $set1(<$ty>::INFINITY);
                    let mut broken = [false; L];
                    let mut live = [0.0 as $ty; L];
                    // Columns at which a lane runs out of order (`j == ns[l]`)
                    // — the only place besides breakdown where the live mask
                    // changes, so it is rebuilt only there. Column indices
                    // above 63 always rebuild (never hit: the driver cutoff
                    // is far below).
                    let mut ends = if m < 64 { 0u64 } else { !0u64 };
                    if m < 64 {
                        for &n in ns {
                            ends |= 1u64 << n.min(63);
                        }
                    }
                    let rebuild = |live: &mut [$ty; L], broken: &[bool; L], j: usize| {
                        for (l, lv) in live.iter_mut().enumerate() {
                            let alive = l < ns.len() && !broken[l] && j < ns[l];
                            *lv = if alive { <$ty>::from_bits(!0) } else { 0.0 };
                        }
                    };
                    rebuild(&mut live, &broken, 0);
                    let mut lm = $loadu(live.as_ptr());
                    for j in 0..m {
                        if j > 0 && ends & (1u64 << j.min(63)) != 0 {
                            rebuild(&mut live, &broken, j);
                            lm = $loadu(live.as_ptr());
                        }
                        let mut lmk = $movemask(lm);
                        if lmk == 0 {
                            break;
                        }
                        // ajj ← a(j,j) − Σ a(j,t)² — sequential mul-then-sub,
                        // the scalar tier's rounding sequence (no fused op).
                        // The same loads are the row's multipliers, so the
                        // fast path's nonzero test (and, at small orders,
                        // its negated-multiplier stash) rides along here
                        // instead of re-reading the row.
                        let mut ajj = $loadu(p.add(at(j, j)));
                        let mut nz = lm;
                        if m <= NWS {
                            for t in 0..j {
                                let v = $loadu(p.add(at(j, t)));
                                ajj = $sub(ajj, $mul(v, v));
                                nz = $and(nz, $cmp::<_CMP_NEQ_UQ>(v, zero));
                                nws[t] = $xor(v, neg0);
                            }
                        } else {
                            for t in 0..j {
                                let v = $loadu(p.add(at(j, t)));
                                ajj = $sub(ajj, $mul(v, v));
                                nz = $and(nz, $cmp::<_CMP_NEQ_UQ>(v, zero));
                            }
                        }
                        // Same predicate as the scalar tier's
                        // `ajj <= 0 || !ajj.is_finite()`: positive AND below
                        // +∞ (NaN fails both ordered compares).
                        let ok = $and($cmp::<_CMP_GT_OQ>(ajj, zero), $cmp::<_CMP_LT_OQ>(ajj, inf));
                        let dead = $movemask($andnot(ok, lm));
                        if dead != 0 {
                            // Slow path: record breakdowns, freeze lanes.
                            for (l, b) in broken.iter_mut().enumerate() {
                                if dead & (1 << l) != 0 {
                                    infos[l] = (j + 1) as i32;
                                    *b = true;
                                }
                            }
                            lm = $and(lm, ok);
                            $storeu(live.as_mut_ptr(), lm);
                            lmk = $movemask(lm);
                        }
                        if lmk == 0 {
                            continue;
                        }
                        let piv = $sqrt(ajj);
                        if lmk == FULL {
                            $storeu(p.add(at(j, j)), piv);
                        } else {
                            let old = $loadu(p.add(at(j, j)));
                            $storeu(p.add(at(j, j)), $blendv(old, piv, lm));
                        }
                        if j + 1 == m {
                            continue;
                        }
                        // Fast path: every lane live and every multiplier
                        // a(j,t) nonzero in every lane — the steady state
                        // for full SPD groups. Swapping to i-outer,
                        // t-inner register accumulation (divide fused in)
                        // keeps each element's operation sequence — and so
                        // its rounding — exactly that of the scalar tier,
                        // while touching the trailing column once instead
                        // of j+1 times. Small orders stash the negated
                        // multipliers during the nonzero pre-pass; larger
                        // ones amortize the reload over 4-row blocks.
                        let fast = lmk == FULL && $movemask(nz) == FULL;
                        if fast && m < 12 {
                            // Tiny orders: a single accumulator per row —
                            // the 4-row blocking below costs more in code
                            // than it saves in loads at this size.
                            for i in (j + 1)..m {
                                let mut acc = $loadu(p.add(at(i, j)));
                                for t in 0..j {
                                    acc = $fmadd(nws[t], $loadu(p.add(at(i, t))), acc);
                                }
                                $storeu(p.add(at(i, j)), $div(acc, piv));
                            }
                            continue;
                        }
                        if fast && m <= NWS {
                            let mut i = j + 1;
                            while i + 4 <= m {
                                let mut a0 = $loadu(p.add(at(i, j)));
                                let mut a1 = $loadu(p.add(at(i + 1, j)));
                                let mut a2 = $loadu(p.add(at(i + 2, j)));
                                let mut a3 = $loadu(p.add(at(i + 3, j)));
                                for t in 0..j {
                                    let nw = nws[t];
                                    a0 = $fmadd(nw, $loadu(p.add(at(i, t))), a0);
                                    a1 = $fmadd(nw, $loadu(p.add(at(i + 1, t))), a1);
                                    a2 = $fmadd(nw, $loadu(p.add(at(i + 2, t))), a2);
                                    a3 = $fmadd(nw, $loadu(p.add(at(i + 3, t))), a3);
                                }
                                $storeu(p.add(at(i, j)), $div(a0, piv));
                                $storeu(p.add(at(i + 1, j)), $div(a1, piv));
                                $storeu(p.add(at(i + 2, j)), $div(a2, piv));
                                $storeu(p.add(at(i + 3, j)), $div(a3, piv));
                                i += 4;
                            }
                            while i < m {
                                let mut acc = $loadu(p.add(at(i, j)));
                                for t in 0..j {
                                    acc = $fmadd(nws[t], $loadu(p.add(at(i, t))), acc);
                                }
                                $storeu(p.add(at(i, j)), $div(acc, piv));
                                i += 1;
                            }
                            continue;
                        }
                        if fast {
                            let mut i = j + 1;
                            while i + 4 <= m {
                                let mut a0 = $loadu(p.add(at(i, j)));
                                let mut a1 = $loadu(p.add(at(i + 1, j)));
                                let mut a2 = $loadu(p.add(at(i + 2, j)));
                                let mut a3 = $loadu(p.add(at(i + 3, j)));
                                for t in 0..j {
                                    let nw = $xor($loadu(p.add(at(j, t))), neg0);
                                    a0 = $fmadd(nw, $loadu(p.add(at(i, t))), a0);
                                    a1 = $fmadd(nw, $loadu(p.add(at(i + 1, t))), a1);
                                    a2 = $fmadd(nw, $loadu(p.add(at(i + 2, t))), a2);
                                    a3 = $fmadd(nw, $loadu(p.add(at(i + 3, t))), a3);
                                }
                                $storeu(p.add(at(i, j)), $div(a0, piv));
                                $storeu(p.add(at(i + 1, j)), $div(a1, piv));
                                $storeu(p.add(at(i + 2, j)), $div(a2, piv));
                                $storeu(p.add(at(i + 3, j)), $div(a3, piv));
                                i += 4;
                            }
                            while i < m {
                                let mut acc = $loadu(p.add(at(i, j)));
                                for t in 0..j {
                                    let nw = $xor($loadu(p.add(at(j, t))), neg0);
                                    acc = $fmadd(nw, $loadu(p.add(at(i, t))), acc);
                                }
                                $storeu(p.add(at(i, j)), $div(acc, piv));
                                i += 1;
                            }
                            continue;
                        }
                        for t in 0..j {
                            let w = $loadu(p.add(at(j, t)));
                            let wm = $and(lm, $cmp::<_CMP_NEQ_UQ>(w, zero));
                            let mk = $movemask(wm);
                            if mk == 0 {
                                continue;
                            }
                            let nw = $xor(w, neg0);
                            if mk == FULL {
                                for i in (j + 1)..m {
                                    let cv = $loadu(p.add(at(i, j)));
                                    let av = $loadu(p.add(at(i, t)));
                                    $storeu(p.add(at(i, j)), $fmadd(nw, av, cv));
                                }
                            } else {
                                for i in (j + 1)..m {
                                    let cv = $loadu(p.add(at(i, j)));
                                    let av = $loadu(p.add(at(i, t)));
                                    let r = $fmadd(nw, av, cv);
                                    $storeu(p.add(at(i, j)), $blendv(cv, r, wm));
                                }
                            }
                        }
                        if lmk == FULL {
                            for i in (j + 1)..m {
                                let cv = $loadu(p.add(at(i, j)));
                                $storeu(p.add(at(i, j)), $div(cv, piv));
                            }
                        } else {
                            for i in (j + 1)..m {
                                let cv = $loadu(p.add(at(i, j)));
                                let r = $div(cv, piv);
                                $storeu(p.add(at(i, j)), $blendv(cv, r, lm));
                            }
                        }
                    }
                }
            }
        };
    }

    lane_kernels!(
        f64,
        4,
        __m256d,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        _mm256_setzero_pd,
        _mm256_add_pd,
        _mm256_sub_pd,
        _mm256_mul_pd,
        _mm256_div_pd,
        _mm256_sqrt_pd,
        _mm256_fmadd_pd,
        _mm256_blendv_pd,
        _mm256_and_pd,
        _mm256_andnot_pd,
        _mm256_xor_pd,
        _mm256_cmp_pd,
        _mm256_movemask_pd,
        potrf_f64
    );

    lane_kernels!(
        f32,
        8,
        __m256,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        _mm256_setzero_ps,
        _mm256_add_ps,
        _mm256_sub_ps,
        _mm256_mul_ps,
        _mm256_div_ps,
        _mm256_sqrt_ps,
        _mm256_fmadd_ps,
        _mm256_blendv_ps,
        _mm256_and_ps,
        _mm256_andnot_ps,
        _mm256_xor_ps,
        _mm256_cmp_ps,
        _mm256_movemask_ps,
        potrf_f32
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{seeded_rng, spd_vec};
    use crate::{potf2, Uplo};

    fn pack_square<T: Scalar>(m: usize, mats: &[Vec<T>], sizes: &[usize]) -> Vec<T> {
        let lanes = lane_count::<T>();
        let mut buf = vec![T::ZERO; interleaved_len(m, m, lanes)];
        let refs: Vec<MatRef<'_, T>> = mats
            .iter()
            .zip(sizes)
            .map(|(v, &n)| MatRef::from_slice(v, n, n, n))
            .collect();
        pack_lanes(m, m, &refs, &mut buf);
        buf
    }

    #[test]
    fn roundtrip_mixed_sizes_partial_group() {
        let mut rng = seeded_rng(42);
        let sizes = [5usize, 3, 7]; // fewer lanes than L, mixed sizes
        let m = 7;
        let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        let buf = pack_square(m, &mats, &sizes);
        for (l, (&n, orig)) in sizes.iter().zip(&mats).enumerate() {
            let mut out = vec![0.0f64; n * n];
            unpack_lane(&buf, m, l, MatMut::from_slice(&mut out, n, n, n));
            assert_eq!(&out, orig, "lane {l}");
        }
        // Absent lanes and padding are zero.
        let mut pad = vec![1.0f64; m * m];
        unpack_lane(&buf, m, 3, MatMut::from_slice(&mut pad, m, m, m));
        assert!(pad.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn potrf_lanes_matches_scalar_potf2_f64() {
        let mut rng = seeded_rng(7);
        let sizes = [4usize, 8, 1, 6];
        let m = 8;
        let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        let mut buf = pack_square(m, &mats, &sizes);
        let mut infos = [0i32; 4];
        potrf_lanes(&mut buf, m, &sizes, &mut infos);
        assert_eq!(infos, [0; 4]);
        for (l, (&n, orig)) in sizes.iter().zip(&mats).enumerate() {
            let mut want = orig.clone();
            potf2(Uplo::Lower, MatMut::from_slice(&mut want, n, n, n)).unwrap();
            let mut got = vec![0.0f64; n * n];
            unpack_lane(&buf, m, l, MatMut::from_slice(&mut got, n, n, n));
            let wb: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "lane {l} not bit-identical");
        }
    }

    #[test]
    fn potrf_lanes_dispatch_equals_portable() {
        // On AVX2 hosts this pins vector == portable; elsewhere both run
        // the portable path, which the scalar-oracle tests cover.
        let mut rng = seeded_rng(11);
        for &m in &[1usize, 2, 5, 16, 32] {
            let sizes: Vec<usize> = (0..lane_count::<f64>())
                .map(|l| 1 + (m + l) % m.max(1))
                .collect();
            let mats: Vec<Vec<f64>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
            let mut a = pack_square(m, &mats, &sizes);
            let mut b = a.clone();
            let mut ia = vec![0i32; sizes.len()];
            let mut ib = vec![0i32; sizes.len()];
            potrf_lanes(&mut a, m, &sizes, &mut ia);
            potrf_lanes_portable(&mut b, m, &sizes, &mut ib);
            assert_eq!(ia, ib);
            let ab: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "m={m}");
        }
    }

    #[test]
    fn breakdown_is_per_lane_and_freezes_state() {
        let mut rng = seeded_rng(3);
        let n = 6;
        let good = spd_vec::<f64>(&mut rng, n);
        let mut bad = spd_vec::<f64>(&mut rng, n);
        bad[3 + 3 * n] = -100.0; // breaks at column 3 (info 4)
        let sizes = [n, n, n];
        let mats = vec![good.clone(), bad.clone(), good.clone()];
        let mut buf = pack_square(n, &mats, &sizes);
        let mut infos = [0i32; 3];
        potrf_lanes(&mut buf, n, &sizes, &mut infos);

        let mut want_bad = bad.clone();
        let err = potf2(Uplo::Lower, MatMut::from_slice(&mut want_bad, n, n, n)).unwrap_err();
        assert_eq!(infos, [0, err.info() as i32, 0]);

        // Broken lane carries exactly the scalar tier's partial state…
        let mut got_bad = vec![0.0f64; n * n];
        unpack_lane(&buf, n, 1, MatMut::from_slice(&mut got_bad, n, n, n));
        assert_eq!(got_bad, want_bad);
        // …and the healthy lane-mates are bit-identical to scalar.
        let mut want_good = good.clone();
        potf2(Uplo::Lower, MatMut::from_slice(&mut want_good, n, n, n)).unwrap();
        for l in [0usize, 2] {
            let mut got = vec![0.0f64; n * n];
            unpack_lane(&buf, n, l, MatMut::from_slice(&mut got, n, n, n));
            assert_eq!(got, want_good, "lane {l} poisoned by lane 1");
        }
    }

    #[test]
    fn potrf_lanes_f32_full_group() {
        let mut rng = seeded_rng(9);
        let lanes = lane_count::<f32>();
        assert_eq!(lanes, 8);
        let sizes: Vec<usize> = (0..lanes).map(|l| 2 + l).collect();
        let m = 9;
        let mats: Vec<Vec<f32>> = sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect();
        let mut buf = pack_square(m, &mats, &sizes);
        let mut infos = vec![0i32; lanes];
        potrf_lanes(&mut buf, m, &sizes, &mut infos);
        assert_eq!(infos, vec![0; lanes]);
        for (l, (&n, orig)) in sizes.iter().zip(&mats).enumerate() {
            let mut want = orig.clone();
            potf2(Uplo::Lower, MatMut::from_slice(&mut want, n, n, n)).unwrap();
            let mut got = vec![0.0f32; n * n];
            unpack_lane(&buf, m, l, MatMut::from_slice(&mut got, n, n, n));
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(gb, wb, "lane {l} not bit-identical");
        }
    }

    #[test]
    fn zero_order_lanes_are_noops() {
        let lanes = lane_count::<f64>();
        let m = 4;
        let mut buf = vec![0.0f64; interleaved_len(m, m, lanes)];
        let mut infos = [0i32; 2];
        potrf_lanes(&mut buf, m, &[0, 0], &mut infos);
        assert_eq!(infos, [0, 0]);
        assert!(buf.iter().all(|&v| v == 0.0));
        // Empty group entirely.
        potrf_lanes(&mut buf, 0, &[], &mut []);
    }
}
