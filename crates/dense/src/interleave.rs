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
//! terminating its lane-mates. The `_portable` entry points run the
//! identical per-lane operation order without vector instructions; they
//! are both the non-AVX2 fallback and the oracle the property tests
//! compare the dispatched path against.

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

/// Host-side staging-tile length (in elements) for one order-`n` sweep
/// through [`potrf_group`]: room for the widest lane grouping the
/// dispatcher may choose — [`MAX_LANES`] lanes, i.e. two 4-lane `f64`
/// groups fused into one 8-lane AVX-512 sweep (for `f32` this equals
/// one ordinary group). Deliberately independent of the running host's
/// features, so buffer shapes — like the AoSoA layout itself — are
/// identical everywhere; a host without AVX-512 simply uses the front
/// of the tile.
#[must_use]
pub fn group_tile_len(n: usize) -> usize {
    interleaved_len(n, n, MAX_LANES)
}

/// Offset of element `(i, j)` of lane `l` in an `m`-row group of
/// `lanes` matrices.
#[inline]
#[must_use]
pub fn lane_index(m: usize, lanes: usize, i: usize, j: usize, l: usize) -> usize {
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

/// Packs one **full, uniform** lane group — [`lane_count`] col-major
/// order-`n` matrices stored contiguously in `srcs` — into the
/// interleaved buffer. The batch-throughput sibling of [`pack_lanes`]
/// (bit-identical result for the same inputs): the uniform shape admits
/// an in-register `L × L` block-transpose on AVX2, which is what makes
/// the pack overhead negligible next to the factorization at n ≤ 32.
///
/// # Panics
/// If `srcs` holds fewer than `L` order-`n` matrices or `buf` is
/// shorter than [`interleaved_len`]`(n, n, L)`.
pub fn pack_group<T: Scalar>(n: usize, srcs: &[T], buf: &mut [T]) {
    let lanes = lane_count::<T>();
    assert!(srcs.len() >= n * n * lanes, "pack_group: sources short");
    assert!(
        buf.len() >= interleaved_len(n, n, lanes),
        "pack_group: buffer too small"
    );
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if x86::pack_group(n, srcs, buf) {
        return;
    }
    pack_group_portable(n, srcs, buf);
}

/// Portable reference for [`pack_group`].
///
/// # Panics
/// As [`pack_group`].
pub fn pack_group_portable<T: Scalar>(n: usize, srcs: &[T], buf: &mut [T]) {
    let lanes = lane_count::<T>();
    assert!(srcs.len() >= n * n * lanes, "pack_group: sources short");
    assert!(
        buf.len() >= interleaved_len(n, n, lanes),
        "pack_group: buffer too small"
    );
    for (l, src) in srcs.chunks_exact(n * n).take(lanes).enumerate() {
        for (j, col) in src.chunks_exact(n).enumerate() {
            let base = j * n * lanes;
            for (chunk, &v) in buf[base..base + n * lanes].chunks_exact_mut(lanes).zip(col) {
                chunk[l] = v;
            }
        }
    }
}

/// Unpacks one full uniform lane group back into `dsts` (`L` contiguous
/// col-major order-`n` matrices) — the exact inverse of [`pack_group`].
///
/// # Panics
/// If `dsts` is shorter than `L` order-`n` matrices or `buf` is shorter
/// than [`interleaved_len`]`(n, n, L)`.
pub fn unpack_group<T: Scalar>(n: usize, buf: &[T], dsts: &mut [T]) {
    let lanes = lane_count::<T>();
    assert!(dsts.len() >= n * n * lanes, "unpack_group: dsts short");
    assert!(
        buf.len() >= interleaved_len(n, n, lanes),
        "unpack_group: buffer too small"
    );
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if x86::unpack_group(n, buf, dsts) {
        return;
    }
    unpack_group_portable(n, buf, dsts);
}

/// Portable reference for [`unpack_group`].
///
/// # Panics
/// As [`unpack_group`].
pub fn unpack_group_portable<T: Scalar>(n: usize, buf: &[T], dsts: &mut [T]) {
    let lanes = lane_count::<T>();
    assert!(dsts.len() >= n * n * lanes, "unpack_group: dsts short");
    assert!(
        buf.len() >= interleaved_len(n, n, lanes),
        "unpack_group: buffer too small"
    );
    for (l, dst) in dsts.chunks_exact_mut(n * n).take(lanes).enumerate() {
        for (j, col) in dst.chunks_exact_mut(n).enumerate() {
            let base = j * n * lanes;
            for (chunk, v) in buf[base..base + n * lanes].chunks_exact(lanes).zip(col) {
                *v = chunk[l];
            }
        }
    }
}

/// Factorizes a batch of **full uniform** lane groups in a single call:
/// per group, [`pack_group`] `src` into `tile`, run [`potrf_lanes`] to
/// order `n` on every lane, and [`unpack_group`] into `dst` (broken
/// lanes unpack their partial factors; check `infos`). The group count
/// is `src.len() / (n²·L)` — one dispatch for the whole sweep instead of
/// three per group, the difference between winning and losing to the
/// scalar tier at the smallest orders.
///
/// Writes each `dst` matrix's lower triangle and diagonal; the strict
/// upper triangle is **unspecified** (the AVX2 path leaves `dst`'s
/// prior contents, the portable path copies `src`'s). Pre-fill `dst`
/// with `src` to get `potf2`'s exact in-place result.
///
/// Size `tile` with [`group_tile_len`]`(n)` to enable the widest
/// dispatch the host supports — on AVX-512F machines the `f64` path
/// then fuses consecutive 4-lane group pairs into 8-lane sweeps. A
/// tile of only [`interleaved_len`]`(n, n, L)` still works everywhere
/// but pins `f64` to the 4-lane path. Results are bit-identical either
/// way.
///
/// # Panics
/// If `src` holds less than one full group, `dst` is shorter than
/// `src`, `tile` is shorter than [`interleaved_len`]`(n, n, L)`, or
/// `infos` has fewer than `L` entries per group.
pub fn potrf_group<T: Scalar>(
    n: usize,
    src: &[T],
    dst: &mut [T],
    tile: &mut [T],
    infos: &mut [i32],
) {
    if n == 0 {
        return;
    }
    let lanes = lane_count::<T>();
    let gsz = n * n * lanes;
    let groups = src.len() / gsz;
    assert!(groups > 0, "potrf_group: src short");
    assert!(dst.len() >= groups * gsz, "potrf_group: dst short");
    assert!(
        tile.len() >= interleaved_len(n, n, lanes),
        "potrf_group: tile too small"
    );
    assert!(infos.len() >= groups * lanes, "potrf_group: infos short");
    let ns = [n; MAX_LANES];
    infos[..groups * lanes].fill(0);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if x86::potrf_group(n, groups, src, dst, tile, &ns[..lanes], infos) {
        return;
    }
    for g in 0..groups {
        pack_group_portable(n, &src[g * gsz..], tile);
        potrf_lanes_portable(
            tile,
            n,
            &ns[..lanes],
            &mut infos[g * lanes..(g + 1) * lanes],
        );
        unpack_group_portable(n, tile, &mut dst[g * gsz..]);
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
/// Dispatches to the AVX2+FMA path when available, else runs
/// [`potrf_lanes_portable`].
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
/// oracle the property tests hold the vector path to.
///
/// # Panics
/// As [`potrf_lanes`].
pub fn potrf_lanes_portable<T: Scalar>(buf: &mut [T], m: usize, ns: &[usize], infos: &mut [i32]) {
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

    #[inline]
    fn wide_f64_available() -> bool {
        is_x86_feature_detected!("avx512f")
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

    pub(super) fn pack_group<T: Scalar>(n: usize, srcs: &[T], buf: &mut [T]) -> bool {
        if !simd_available() {
            return false;
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // Safety: `T` is exactly `f64` and AVX2 was detected.
            unsafe { pack_group_f64(n, cast::<T, f64>(srcs), cast_mut::<T, f64>(buf), false) };
            true
        } else if TypeId::of::<T>() == TypeId::of::<f32>() {
            // Safety: as above with `T` == `f32`.
            unsafe { pack_group_f32(n, cast::<T, f32>(srcs), cast_mut::<T, f32>(buf), false) };
            true
        } else {
            false
        }
    }

    pub(super) fn unpack_group<T: Scalar>(n: usize, buf: &[T], dsts: &mut [T]) -> bool {
        if !simd_available() {
            return false;
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // Safety: `T` is exactly `f64` and AVX2 was detected.
            unsafe { unpack_group_f64(n, cast::<T, f64>(buf), cast_mut::<T, f64>(dsts), false) };
            true
        } else if TypeId::of::<T>() == TypeId::of::<f32>() {
            // Safety: as above with `T` == `f32`.
            unsafe { unpack_group_f32(n, cast::<T, f32>(buf), cast_mut::<T, f32>(dsts), false) };
            true
        } else {
            false
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn potrf_group<T: Scalar>(
        n: usize,
        groups: usize,
        src: &[T],
        dst: &mut [T],
        tile: &mut [T],
        ns: &[usize],
        infos: &mut [i32],
    ) -> bool {
        if !simd_available() {
            return false;
        }
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // Safety: `T` is exactly `f64` and AVX2+FMA were detected;
            // the wide path additionally checks AVX-512F at runtime.
            unsafe {
                let src = cast::<T, f64>(src);
                let dst = cast_mut::<T, f64>(dst);
                let tile = cast_mut::<T, f64>(tile);
                if n == 4 {
                    potrf_group4_f64(groups, src, dst, tile, ns, infos);
                } else {
                    // Fuse consecutive 4-lane groups into 8-lane
                    // AVX-512 sweeps when the host supports them and
                    // the caller staged a full-width tile
                    // ([`super::group_tile_len`]); narrow hosts and
                    // narrow tiles keep the 4-lane path unchanged.
                    let pairs = if wide_f64_available() && tile.len() >= n * n * 8 {
                        groups / 2
                    } else {
                        0
                    };
                    if pairs > 0 {
                        potrf_group_f64_w8(n, pairs, src, dst, tile, infos);
                    }
                    let g = pairs * 2;
                    if g < groups {
                        let gsz = n * n * 4;
                        potrf_group_f64(
                            n,
                            groups - g,
                            &src[g * gsz..],
                            &mut dst[g * gsz..],
                            tile,
                            ns,
                            &mut infos[g * 4..],
                        );
                    }
                }
            }
            true
        } else if TypeId::of::<T>() == TypeId::of::<f32>() {
            // Safety: as above with `T` == `f32`.
            unsafe {
                potrf_group_f32(
                    n,
                    groups,
                    cast::<T, f32>(src),
                    cast_mut::<T, f32>(dst),
                    cast_mut::<T, f32>(tile),
                    ns,
                    infos,
                );
            }
            true
        } else {
            false
        }
    }

    /// 4×4 `f64` register transpose.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tr4(
        v0: __m256d,
        v1: __m256d,
        v2: __m256d,
        v3: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        let t0 = _mm256_unpacklo_pd(v0, v1);
        let t1 = _mm256_unpackhi_pd(v0, v1);
        let t2 = _mm256_unpacklo_pd(v2, v3);
        let t3 = _mm256_unpackhi_pd(v2, v3);
        (
            _mm256_permute2f128_pd(t0, t2, 0x20),
            _mm256_permute2f128_pd(t1, t3, 0x20),
            _mm256_permute2f128_pd(t0, t2, 0x31),
            _mm256_permute2f128_pd(t1, t3, 0x31),
        )
    }

    /// Fully in-register order-4 `f64` group factorization: the four
    /// lane matrices live in sixteen vectors across the whole
    /// pack → factor → unpack, with no staging tile and no loops.
    /// Every operation is the scalar tier's, in the scalar tier's
    /// order, so successful lanes are bit-identical to `potf2`.
    /// Returns `false` — before touching `dst` — on any failed pivot
    /// or any exactly-zero multiplier, so the caller can rerun the
    /// group through the general masked kernel, which reproduces the
    /// scalar tier's per-lane breakdown and skip semantics.
    ///
    /// # Safety
    /// AVX2+FMA detected; `src`/`dst` hold at least one full group.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn potrf4_f64(src: &[f64], dst: &mut [f64]) -> bool {
        // SAFETY: fn contract — `src` and `dst` hold at least one full
        // group (64 elements), so every offset below (max 60 + 4-wide
        // access) is in bounds; unaligned loads/stores are used throughout.
        unsafe {
            const FULL: i32 = 0xF;
            let s = src.as_ptr();
            let zero = _mm256_setzero_pd();
            let neg0 = _mm256_set1_pd(-0.0);
            let inf = _mm256_set1_pd(f64::INFINITY);
            let ok = |v: __m256d| {
                let fine = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_GT_OQ>(v, zero),
                    _mm256_cmp_pd::<_CMP_LT_OQ>(v, inf),
                );
                _mm256_movemask_pd(fine) == FULL
            };
            let nonzero =
                |v: __m256d| _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_NEQ_UQ>(v, zero)) == FULL;
            // Pack: x_ij holds element (i, j) of all four matrices.
            let (x00, x10, x20, x30) = tr4(
                _mm256_loadu_pd(s),
                _mm256_loadu_pd(s.add(16)),
                _mm256_loadu_pd(s.add(32)),
                _mm256_loadu_pd(s.add(48)),
            );
            let (x01, x11, x21, x31) = tr4(
                _mm256_loadu_pd(s.add(4)),
                _mm256_loadu_pd(s.add(20)),
                _mm256_loadu_pd(s.add(36)),
                _mm256_loadu_pd(s.add(52)),
            );
            let (x02, x12, x22, x32) = tr4(
                _mm256_loadu_pd(s.add(8)),
                _mm256_loadu_pd(s.add(24)),
                _mm256_loadu_pd(s.add(40)),
                _mm256_loadu_pd(s.add(56)),
            );
            let (x03, x13, x23, x33) = tr4(
                _mm256_loadu_pd(s.add(12)),
                _mm256_loadu_pd(s.add(28)),
                _mm256_loadu_pd(s.add(44)),
                _mm256_loadu_pd(s.add(60)),
            );
            // Column 0.
            if !ok(x00) {
                return false;
            }
            let p0 = _mm256_sqrt_pd(x00);
            let l10 = _mm256_div_pd(x10, p0);
            let l20 = _mm256_div_pd(x20, p0);
            let l30 = _mm256_div_pd(x30, p0);
            // Column 1.
            let a11 = _mm256_sub_pd(x11, _mm256_mul_pd(l10, l10));
            if !ok(a11) || !nonzero(l10) {
                return false;
            }
            let p1 = _mm256_sqrt_pd(a11);
            let nw = _mm256_xor_pd(l10, neg0);
            let l21 = _mm256_div_pd(_mm256_fmadd_pd(nw, l20, x21), p1);
            let l31 = _mm256_div_pd(_mm256_fmadd_pd(nw, l30, x31), p1);
            // Column 2.
            let mut a22 = _mm256_sub_pd(x22, _mm256_mul_pd(l20, l20));
            a22 = _mm256_sub_pd(a22, _mm256_mul_pd(l21, l21));
            if !ok(a22) || !nonzero(l20) || !nonzero(l21) {
                return false;
            }
            let p2 = _mm256_sqrt_pd(a22);
            let mut t32 = _mm256_fmadd_pd(_mm256_xor_pd(l20, neg0), l30, x32);
            t32 = _mm256_fmadd_pd(_mm256_xor_pd(l21, neg0), l31, t32);
            let l32 = _mm256_div_pd(t32, p2);
            // Column 3 (last: no trailing update or divide).
            let mut a33 = _mm256_sub_pd(x33, _mm256_mul_pd(l30, l30));
            a33 = _mm256_sub_pd(a33, _mm256_mul_pd(l31, l31));
            a33 = _mm256_sub_pd(a33, _mm256_mul_pd(l32, l32));
            if !ok(a33) {
                return false;
            }
            let l33 = _mm256_sqrt_pd(a33);
            // Unpack; strict upper elements carry their source values, the
            // in-place behavior of the scalar tier.
            let d = dst.as_mut_ptr();
            let (c0, c1, c2, c3) = tr4(p0, l10, l20, l30);
            _mm256_storeu_pd(d, c0);
            _mm256_storeu_pd(d.add(16), c1);
            _mm256_storeu_pd(d.add(32), c2);
            _mm256_storeu_pd(d.add(48), c3);
            let (c0, c1, c2, c3) = tr4(x01, p1, l21, l31);
            _mm256_storeu_pd(d.add(4), c0);
            _mm256_storeu_pd(d.add(20), c1);
            _mm256_storeu_pd(d.add(36), c2);
            _mm256_storeu_pd(d.add(52), c3);
            let (c0, c1, c2, c3) = tr4(x02, x12, p2, l32);
            _mm256_storeu_pd(d.add(8), c0);
            _mm256_storeu_pd(d.add(24), c1);
            _mm256_storeu_pd(d.add(40), c2);
            _mm256_storeu_pd(d.add(56), c3);
            let (c0, c1, c2, c3) = tr4(x03, x13, x23, l33);
            _mm256_storeu_pd(d.add(12), c0);
            _mm256_storeu_pd(d.add(28), c1);
            _mm256_storeu_pd(d.add(44), c2);
            _mm256_storeu_pd(d.add(60), c3);
            true
        }
    }

    /// Batch driver for [`potrf4_f64`]: the rare bail-outs rerun
    /// through the general staged kernel.
    ///
    /// # Safety
    /// As [`potrf4_f64`]; extents checked by the dispatching wrapper.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn potrf_group4_f64(
        groups: usize,
        src: &[f64],
        dst: &mut [f64],
        tile: &mut [f64],
        ns: &[usize],
        infos: &mut [i32],
    ) {
        // SAFETY: fn contract — the dispatching wrapper checked that
        // `src`/`dst` hold `groups` full groups, `tile` one group, and
        // `infos` 4 slots per group, so every per-group slice below is in
        // bounds and the callees’ extent contracts hold.
        unsafe {
            for g in 0..groups {
                let s = &src[g * 64..];
                if !potrf4_f64(s, &mut dst[g * 64..]) {
                    pack_group_f64(4, s, tile, true);
                    potrf_f64(tile, 4, ns, &mut infos[g * 4..]);
                    unpack_group_f64(4, tile, &mut dst[g * 64..], true);
                }
            }
        }
    }

    /// 8×8 `f32` register transpose.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tr8(v: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(v[0], v[1]);
        let t1 = _mm256_unpackhi_ps(v[0], v[1]);
        let t2 = _mm256_unpacklo_ps(v[2], v[3]);
        let t3 = _mm256_unpackhi_ps(v[2], v[3]);
        let t4 = _mm256_unpacklo_ps(v[4], v[5]);
        let t5 = _mm256_unpackhi_ps(v[4], v[5]);
        let t6 = _mm256_unpacklo_ps(v[6], v[7]);
        let t7 = _mm256_unpackhi_ps(v[6], v[7]);
        let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps(u0, u4, 0x20),
            _mm256_permute2f128_ps(u1, u5, 0x20),
            _mm256_permute2f128_ps(u2, u6, 0x20),
            _mm256_permute2f128_ps(u3, u7, 0x20),
            _mm256_permute2f128_ps(u0, u4, 0x31),
            _mm256_permute2f128_ps(u1, u5, 0x31),
            _mm256_permute2f128_ps(u2, u6, 0x31),
            _mm256_permute2f128_ps(u3, u7, 0x31),
        ]
    }

    /// # Safety
    /// AVX2 detected; slice extents checked by the dispatching wrapper.
    /// `lower` restricts each column to its block-aligned lower
    /// triangle (`i ≥ j & !3`) — everything a Lower factorization
    /// touches — halving the moved bytes.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_group_f64(n: usize, srcs: &[f64], buf: &mut [f64], lower: bool) {
        // SAFETY: fn contract — `srcs` holds 4 n×n matrices and `buf` one
        // interleaved group (4·n·n), so column bases `l·n² + j·n` and the
        // 4-wide row accesses at `i ≤ n−4` (scalar tail below n) stay in
        // bounds for both slices.
        unsafe {
            let s = srcs.as_ptr();
            let o = buf.as_mut_ptr();
            let mm = n * n;
            for j in 0..n {
                let c0 = s.add(j * n);
                let c1 = s.add(mm + j * n);
                let c2 = s.add(2 * mm + j * n);
                let c3 = s.add(3 * mm + j * n);
                let ob = o.add(j * n * 4);
                let mut i = if lower { j & !3 } else { 0 };
                while i + 4 <= n {
                    let (r0, r1, r2, r3) = tr4(
                        _mm256_loadu_pd(c0.add(i)),
                        _mm256_loadu_pd(c1.add(i)),
                        _mm256_loadu_pd(c2.add(i)),
                        _mm256_loadu_pd(c3.add(i)),
                    );
                    _mm256_storeu_pd(ob.add(i * 4), r0);
                    _mm256_storeu_pd(ob.add(i * 4 + 4), r1);
                    _mm256_storeu_pd(ob.add(i * 4 + 8), r2);
                    _mm256_storeu_pd(ob.add(i * 4 + 12), r3);
                    i += 4;
                }
                while i < n {
                    *ob.add(i * 4) = *c0.add(i);
                    *ob.add(i * 4 + 1) = *c1.add(i);
                    *ob.add(i * 4 + 2) = *c2.add(i);
                    *ob.add(i * 4 + 3) = *c3.add(i);
                    i += 1;
                }
            }
        }
    }

    /// # Safety
    /// As [`pack_group_f64`].
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_group_f64(n: usize, buf: &[f64], dsts: &mut [f64], lower: bool) {
        // SAFETY: fn contract — mirror of `pack_group_f64`: `buf` holds one
        // interleaved group and `dsts` 4 n×n matrices, same in-bounds
        // offset argument with loads and stores exchanged.
        unsafe {
            let b = buf.as_ptr();
            let d = dsts.as_mut_ptr();
            let mm = n * n;
            for j in 0..n {
                let c0 = d.add(j * n);
                let c1 = d.add(mm + j * n);
                let c2 = d.add(2 * mm + j * n);
                let c3 = d.add(3 * mm + j * n);
                let ib = b.add(j * n * 4);
                let mut i = if lower { j & !3 } else { 0 };
                while i + 4 <= n {
                    let (r0, r1, r2, r3) = tr4(
                        _mm256_loadu_pd(ib.add(i * 4)),
                        _mm256_loadu_pd(ib.add(i * 4 + 4)),
                        _mm256_loadu_pd(ib.add(i * 4 + 8)),
                        _mm256_loadu_pd(ib.add(i * 4 + 12)),
                    );
                    _mm256_storeu_pd(c0.add(i), r0);
                    _mm256_storeu_pd(c1.add(i), r1);
                    _mm256_storeu_pd(c2.add(i), r2);
                    _mm256_storeu_pd(c3.add(i), r3);
                    i += 4;
                }
                while i < n {
                    *c0.add(i) = *ib.add(i * 4);
                    *c1.add(i) = *ib.add(i * 4 + 1);
                    *c2.add(i) = *ib.add(i * 4 + 2);
                    *c3.add(i) = *ib.add(i * 4 + 3);
                    i += 1;
                }
            }
        }
    }

    /// Stride-8 variant of [`pack_group_f64`]: register-transposes the
    /// eight matrices of two consecutive 4-lane groups into one 8-lane
    /// tile so a single AVX-512 sweep factors both. Two `tr4` half
    /// transposes per 4-row block (one per group) rather than an 8-row
    /// f64 tr8 — deliberately, so the block-aligned lower-triangle
    /// restriction stays `i ≥ j & !3` and the set of elements moved
    /// (and therefore the bytes written back to `dst` on unpack) is
    /// exactly the narrow path's.
    ///
    /// # Safety
    /// AVX2 detected; `srcs` holds 8 n×n matrices and `buf` one 8-lane
    /// interleaved group (n·n·8 elements).
    #[target_feature(enable = "avx2")]
    unsafe fn pack_pair_f64_w8(n: usize, srcs: &[f64], buf: &mut [f64]) {
        // SAFETY: fn contract — lane bases `l·n² + j·n` for l < 8 plus
        // 4-wide row accesses at `i ≤ n−4` (scalar tail below n) stay
        // inside the 8·n² source; tile offsets reach at most
        // `(n−1)·8 + (n−1)·n·8 + 7 < n·n·8`.
        unsafe {
            let s = srcs.as_ptr();
            let o = buf.as_mut_ptr();
            let mm = n * n;
            for j in 0..n {
                let mut cols = [core::ptr::null::<f64>(); 8];
                for (l, c) in cols.iter_mut().enumerate() {
                    *c = s.add(l * mm + j * n);
                }
                let ob = o.add(j * n * 8);
                let mut i = j & !3;
                while i + 4 <= n {
                    for h in 0..2 {
                        let (r0, r1, r2, r3) = tr4(
                            _mm256_loadu_pd(cols[4 * h].add(i)),
                            _mm256_loadu_pd(cols[4 * h + 1].add(i)),
                            _mm256_loadu_pd(cols[4 * h + 2].add(i)),
                            _mm256_loadu_pd(cols[4 * h + 3].add(i)),
                        );
                        _mm256_storeu_pd(ob.add(i * 8 + h * 4), r0);
                        _mm256_storeu_pd(ob.add((i + 1) * 8 + h * 4), r1);
                        _mm256_storeu_pd(ob.add((i + 2) * 8 + h * 4), r2);
                        _mm256_storeu_pd(ob.add((i + 3) * 8 + h * 4), r3);
                    }
                    i += 4;
                }
                while i < n {
                    for (l, c) in cols.iter().enumerate() {
                        *ob.add(i * 8 + l) = *c.add(i);
                    }
                    i += 1;
                }
            }
        }
    }

    /// # Safety
    /// As [`pack_pair_f64_w8`], with `buf` read and `dsts` written.
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_pair_f64_w8(n: usize, buf: &[f64], dsts: &mut [f64]) {
        // SAFETY: fn contract — mirror of `pack_pair_f64_w8` with loads
        // and stores exchanged; same in-bounds offset argument.
        unsafe {
            let b = buf.as_ptr();
            let d = dsts.as_mut_ptr();
            let mm = n * n;
            for j in 0..n {
                let mut cols = [core::ptr::null_mut::<f64>(); 8];
                for (l, c) in cols.iter_mut().enumerate() {
                    *c = d.add(l * mm + j * n);
                }
                let ib = b.add(j * n * 8);
                let mut i = j & !3;
                while i + 4 <= n {
                    for h in 0..2 {
                        let (r0, r1, r2, r3) = tr4(
                            _mm256_loadu_pd(ib.add(i * 8 + h * 4)),
                            _mm256_loadu_pd(ib.add((i + 1) * 8 + h * 4)),
                            _mm256_loadu_pd(ib.add((i + 2) * 8 + h * 4)),
                            _mm256_loadu_pd(ib.add((i + 3) * 8 + h * 4)),
                        );
                        _mm256_storeu_pd(cols[4 * h].add(i), r0);
                        _mm256_storeu_pd(cols[4 * h + 1].add(i), r1);
                        _mm256_storeu_pd(cols[4 * h + 2].add(i), r2);
                        _mm256_storeu_pd(cols[4 * h + 3].add(i), r3);
                    }
                    i += 4;
                }
                while i < n {
                    for (l, c) in cols.iter().enumerate() {
                        *c.add(i) = *ib.add(i * 8 + l);
                    }
                    i += 1;
                }
            }
        }
    }

    /// 8-lane AVX-512 port of the 4-lane `f64` lane kernel
    /// (`potrf_f64`), specialized to the uniform groups `potrf_group`
    /// builds: all eight lanes share one order `m`, so the per-lane
    /// end-of-order tracking drops out and the live mask starts full.
    /// Lane predicates live in `__mmask8` registers instead of
    /// sign-bit vectors, with masked stores replacing blends — the
    /// bytes written are the same. Every arithmetic operation and its
    /// order is exactly the 4-lane kernel's (lane width never enters
    /// the value computation), so surviving lanes stay bit-identical
    /// to `potf2`. Sign flips go through an integer-domain xor because
    /// `_mm512_xor_pd` would need AVX-512DQ and only AVX-512F is
    /// required here.
    ///
    /// # Safety
    /// AVX-512F detected; `buf` holds one 8-lane interleaved m×m group
    /// (m·m·8 elements) and `infos` at least 8 entries.
    // Indexed `0..j` loops mirror the column recurrence (and the macro
    // kernel's shape); `nws[t]` rides along with `at(i, t)` loads.
    #[allow(clippy::needless_range_loop)]
    #[target_feature(enable = "avx512f")]
    unsafe fn potrf8_f64(buf: &mut [f64], m: usize, infos: &mut [i32]) {
        // SAFETY: fn contract — every `at(i, j)` offset with i, j < m
        // is an in-bounds 8-wide access into the m·m·8 tile; `infos`
        // is indexed by lane bits l < 8.
        unsafe {
            const FULL: u8 = 0xFF;
            const NWS: usize = 16;
            let mut nws = [_mm512_setzero_pd(); NWS];
            let p = buf.as_mut_ptr();
            let at = |i: usize, j: usize| (j * m + i) * 8;
            let zero = _mm512_setzero_pd();
            let neg0 = _mm512_set1_pd(-0.0);
            let inf = _mm512_set1_pd(f64::INFINITY);
            let neg = |v: __m512d| {
                _mm512_castsi512_pd(_mm512_xor_epi64(
                    _mm512_castpd_si512(v),
                    _mm512_castpd_si512(neg0),
                ))
            };
            let mut lm: u8 = FULL;
            for j in 0..m {
                if lm == 0 {
                    break;
                }
                // ajj ← a(j,j) − Σ a(j,t)² — sequential mul-then-sub,
                // the scalar tier's rounding sequence (no fused op);
                // the fast path's nonzero test and, at small orders,
                // its negated-multiplier stash ride along.
                let mut ajj = _mm512_loadu_pd(p.add(at(j, j)));
                let mut nz: u8 = lm;
                if m <= NWS {
                    for t in 0..j {
                        let v = _mm512_loadu_pd(p.add(at(j, t)));
                        ajj = _mm512_sub_pd(ajj, _mm512_mul_pd(v, v));
                        nz &= _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(v, zero);
                        nws[t] = neg(v);
                    }
                } else {
                    for t in 0..j {
                        let v = _mm512_loadu_pd(p.add(at(j, t)));
                        ajj = _mm512_sub_pd(ajj, _mm512_mul_pd(v, v));
                        nz &= _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(v, zero);
                    }
                }
                // Same predicate as the scalar tier's
                // `ajj <= 0 || !ajj.is_finite()`: positive AND below
                // +∞ (NaN fails both ordered compares).
                let ok = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(ajj, zero)
                    & _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ajj, inf);
                let dead = !ok & lm;
                if dead != 0 {
                    for (l, info) in infos.iter_mut().enumerate().take(8) {
                        if dead & (1 << l) != 0 {
                            *info = (j + 1) as i32;
                        }
                    }
                    lm &= ok;
                    if lm == 0 {
                        continue;
                    }
                }
                let piv = _mm512_sqrt_pd(ajj);
                if lm == FULL {
                    _mm512_storeu_pd(p.add(at(j, j)), piv);
                } else {
                    _mm512_mask_storeu_pd(p.add(at(j, j)), lm, piv);
                }
                if j + 1 == m {
                    continue;
                }
                // Fast path: every lane live, every multiplier
                // nonzero — same i-outer register accumulation (and
                // rounding sequence) as the 4-lane kernel.
                let fast = lm == FULL && nz == FULL;
                if fast && m < 12 {
                    for i in (j + 1)..m {
                        let mut acc = _mm512_loadu_pd(p.add(at(i, j)));
                        for t in 0..j {
                            acc = _mm512_fmadd_pd(nws[t], _mm512_loadu_pd(p.add(at(i, t))), acc);
                        }
                        _mm512_storeu_pd(p.add(at(i, j)), _mm512_div_pd(acc, piv));
                    }
                    continue;
                }
                if fast && m <= NWS {
                    let mut i = j + 1;
                    while i + 4 <= m {
                        let mut a0 = _mm512_loadu_pd(p.add(at(i, j)));
                        let mut a1 = _mm512_loadu_pd(p.add(at(i + 1, j)));
                        let mut a2 = _mm512_loadu_pd(p.add(at(i + 2, j)));
                        let mut a3 = _mm512_loadu_pd(p.add(at(i + 3, j)));
                        for t in 0..j {
                            let nw = nws[t];
                            a0 = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i, t))), a0);
                            a1 = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i + 1, t))), a1);
                            a2 = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i + 2, t))), a2);
                            a3 = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i + 3, t))), a3);
                        }
                        _mm512_storeu_pd(p.add(at(i, j)), _mm512_div_pd(a0, piv));
                        _mm512_storeu_pd(p.add(at(i + 1, j)), _mm512_div_pd(a1, piv));
                        _mm512_storeu_pd(p.add(at(i + 2, j)), _mm512_div_pd(a2, piv));
                        _mm512_storeu_pd(p.add(at(i + 3, j)), _mm512_div_pd(a3, piv));
                        i += 4;
                    }
                    while i < m {
                        let mut acc = _mm512_loadu_pd(p.add(at(i, j)));
                        for t in 0..j {
                            acc = _mm512_fmadd_pd(nws[t], _mm512_loadu_pd(p.add(at(i, t))), acc);
                        }
                        _mm512_storeu_pd(p.add(at(i, j)), _mm512_div_pd(acc, piv));
                        i += 1;
                    }
                    continue;
                }
                if fast {
                    let mut i = j + 1;
                    while i + 4 <= m {
                        let mut a0 = _mm512_loadu_pd(p.add(at(i, j)));
                        let mut a1 = _mm512_loadu_pd(p.add(at(i + 1, j)));
                        let mut a2 = _mm512_loadu_pd(p.add(at(i + 2, j)));
                        let mut a3 = _mm512_loadu_pd(p.add(at(i + 3, j)));
                        for t in 0..j {
                            let nw = neg(_mm512_loadu_pd(p.add(at(j, t))));
                            a0 = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i, t))), a0);
                            a1 = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i + 1, t))), a1);
                            a2 = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i + 2, t))), a2);
                            a3 = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i + 3, t))), a3);
                        }
                        _mm512_storeu_pd(p.add(at(i, j)), _mm512_div_pd(a0, piv));
                        _mm512_storeu_pd(p.add(at(i + 1, j)), _mm512_div_pd(a1, piv));
                        _mm512_storeu_pd(p.add(at(i + 2, j)), _mm512_div_pd(a2, piv));
                        _mm512_storeu_pd(p.add(at(i + 3, j)), _mm512_div_pd(a3, piv));
                        i += 4;
                    }
                    while i < m {
                        let mut acc = _mm512_loadu_pd(p.add(at(i, j)));
                        for t in 0..j {
                            let nw = neg(_mm512_loadu_pd(p.add(at(j, t))));
                            acc = _mm512_fmadd_pd(nw, _mm512_loadu_pd(p.add(at(i, t))), acc);
                        }
                        _mm512_storeu_pd(p.add(at(i, j)), _mm512_div_pd(acc, piv));
                        i += 1;
                    }
                    continue;
                }
                // General masked path: skip exactly-zero multipliers
                // per lane (the scalar tier's `w == 0` skip), then the
                // masked divide.
                for t in 0..j {
                    let w = _mm512_loadu_pd(p.add(at(j, t)));
                    let wm = lm & _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(w, zero);
                    if wm == 0 {
                        continue;
                    }
                    let nw = neg(w);
                    if wm == FULL {
                        for i in (j + 1)..m {
                            let cv = _mm512_loadu_pd(p.add(at(i, j)));
                            let av = _mm512_loadu_pd(p.add(at(i, t)));
                            _mm512_storeu_pd(p.add(at(i, j)), _mm512_fmadd_pd(nw, av, cv));
                        }
                    } else {
                        for i in (j + 1)..m {
                            let cv = _mm512_loadu_pd(p.add(at(i, j)));
                            let av = _mm512_loadu_pd(p.add(at(i, t)));
                            let r = _mm512_fmadd_pd(nw, av, cv);
                            _mm512_mask_storeu_pd(p.add(at(i, j)), wm, r);
                        }
                    }
                }
                if lm == FULL {
                    for i in (j + 1)..m {
                        let cv = _mm512_loadu_pd(p.add(at(i, j)));
                        _mm512_storeu_pd(p.add(at(i, j)), _mm512_div_pd(cv, piv));
                    }
                } else {
                    for i in (j + 1)..m {
                        let cv = _mm512_loadu_pd(p.add(at(i, j)));
                        let r = _mm512_div_pd(cv, piv);
                        _mm512_mask_storeu_pd(p.add(at(i, j)), lm, r);
                    }
                }
            }
        }
    }

    /// Pack → factor → unpack for two consecutive 4-lane groups fused
    /// into one 8-lane AVX-512 sweep. Lane `l` of the wide tile is
    /// matrix `l` of the pair, so each pair's `infos` slots stay
    /// contiguous. The per-lane value computation is the 4-lane
    /// kernel's exactly, so the factors (and breakdown columns) are
    /// bit-identical to the narrow path — and therefore to `potf2`.
    ///
    /// # Safety
    /// AVX2+FMA+AVX-512F detected; `src`/`dst` hold `2·pairs`
    /// interleaved 4-lane groups of order `n`, `tile` holds n·n·8
    /// elements, and `infos` holds 8 entries per pair.
    #[target_feature(enable = "avx2,fma,avx512f")]
    unsafe fn potrf_group_f64_w8(
        n: usize,
        pairs: usize,
        src: &[f64],
        dst: &mut [f64],
        tile: &mut [f64],
        infos: &mut [i32],
    ) {
        // SAFETY: fn contract — each pair consumes 8·n² source and
        // destination elements plus 8 info slots, in bounds by the
        // extent contract; the callees' contracts are met by
        // construction.
        unsafe {
            let gsz = n * n * 4;
            for h in 0..pairs {
                pack_pair_f64_w8(n, &src[h * 2 * gsz..], tile);
                potrf8_f64(tile, n, &mut infos[h * 8..]);
                unpack_pair_f64_w8(n, tile, &mut dst[h * 2 * gsz..]);
            }
        }
    }

    /// # Safety
    /// As [`pack_group_f64`].
    #[target_feature(enable = "avx2")]
    unsafe fn pack_group_f32(n: usize, srcs: &[f32], buf: &mut [f32], lower: bool) {
        // SAFETY: fn contract — `srcs` holds 8 n×n matrices and `buf` one
        // interleaved group (8·n·n); lane bases `l·n² + j·n` and 8-wide row
        // accesses at `i ≤ n−8` (scalar tail below n) stay in bounds.
        unsafe {
            let s = srcs.as_ptr();
            let o = buf.as_mut_ptr();
            let mm = n * n;
            for j in 0..n {
                let mut cols = [core::ptr::null::<f32>(); 8];
                for (l, c) in cols.iter_mut().enumerate() {
                    *c = s.add(l * mm + j * n);
                }
                let ob = o.add(j * n * 8);
                let mut i = if lower { j & !7 } else { 0 };
                while i + 8 <= n {
                    let mut v = [_mm256_setzero_ps(); 8];
                    for (l, c) in cols.iter().enumerate() {
                        v[l] = _mm256_loadu_ps(c.add(i));
                    }
                    let r = tr8(v);
                    for (k, rv) in r.iter().enumerate() {
                        _mm256_storeu_ps(ob.add((i + k) * 8), *rv);
                    }
                    i += 8;
                }
                while i < n {
                    for (l, c) in cols.iter().enumerate() {
                        *ob.add(i * 8 + l) = *c.add(i);
                    }
                    i += 1;
                }
            }
        }
    }

    /// # Safety
    /// As [`pack_group_f64`].
    #[target_feature(enable = "avx2")]
    unsafe fn unpack_group_f32(n: usize, buf: &[f32], dsts: &mut [f32], lower: bool) {
        // SAFETY: fn contract — mirror of `pack_group_f32` with loads and
        // stores exchanged; same extent argument.
        unsafe {
            let b = buf.as_ptr();
            let d = dsts.as_mut_ptr();
            let mm = n * n;
            for j in 0..n {
                let mut cols = [core::ptr::null_mut::<f32>(); 8];
                for (l, c) in cols.iter_mut().enumerate() {
                    *c = d.add(l * mm + j * n);
                }
                let ib = b.add(j * n * 8);
                let mut i = if lower { j & !7 } else { 0 };
                while i + 8 <= n {
                    let mut v = [_mm256_setzero_ps(); 8];
                    for (k, vv) in v.iter_mut().enumerate() {
                        *vv = _mm256_loadu_ps(ib.add((i + k) * 8));
                    }
                    let r = tr8(v);
                    for (l, c) in cols.iter().enumerate() {
                        _mm256_storeu_ps(c.add(i), r[l]);
                    }
                    i += 8;
                }
                while i < n {
                    for (l, c) in cols.iter().enumerate() {
                        *c.add(i) = *ib.add(i * 8 + l);
                    }
                    i += 1;
                }
            }
        }
    }

    fn cast<T: Scalar, U: 'static>(s: &[T]) -> &[U] {
        debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<U>(), "cast: type mismatch");
        // Safety: caller matched the TypeIds; identical layout.
        unsafe { core::slice::from_raw_parts(s.as_ptr().cast::<U>(), s.len()) }
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
            $potrf:ident,
            $pack:ident, $unpack:ident, $fused:ident
        ) => {
            /// Pack → factor → unpack for one full uniform group in a
            /// single `target_feature` region: one dispatch per group
            /// and the three stages inline together, which is what
            /// keeps the per-group overhead below the factorization
            /// cost at the smallest orders. Only the block-aligned
            /// lower triangle moves — the factorization never reads
            /// above the diagonal, and `dst` keeps its own strict
            /// upper triangle (potf2's in-place behavior).
            ///
            /// # Safety
            /// As the potrf kernel.
            #[target_feature(enable = "avx2,fma")]
            unsafe fn $fused(
                n: usize,
                groups: usize,
                src: &[$ty],
                dst: &mut [$ty],
                tile: &mut [$ty],
                ns: &[usize],
                infos: &mut [i32],
            ) {
                // SAFETY: fn contract — the dispatching wrapper sized `src`/`dst`
                // as `groups` interleaved groups, `tile` as one group and `infos`
                // as one lane-set per group, so the per-group slices handed to the
                // pack/factor/unpack callees satisfy their extent contracts.
                unsafe {
                    let gsz = n * n * $lanes;
                    for g in 0..groups {
                        $pack(n, &src[g * gsz..], tile, true);
                        $potrf(tile, n, ns, &mut infos[g * $lanes..]);
                        $unpack(n, tile, &mut dst[g * gsz..], true);
                    }
                }
            }
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
        potrf_f64,
        pack_group_f64,
        unpack_group_f64,
        potrf_group_f64
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
        potrf_f32,
        pack_group_f32,
        unpack_group_f32,
        potrf_group_f32
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

    fn group_pack_roundtrip<T: Scalar>() {
        let mut rng = seeded_rng(23);
        let lanes = lane_count::<T>();
        // 1..=10 covers the transpose remainder lanes (n mod L ≠ 0) on
        // both precisions as well as full-vector columns.
        for n in 1usize..=10 {
            let flat: Vec<T> = crate::gen::rand_mat(&mut rng, n * n * lanes);
            let mut got = vec![T::ZERO; interleaved_len(n, n, lanes)];
            pack_group(n, &flat, &mut got);
            // Oracle: the general per-lane pack on the same matrices.
            let mats: Vec<Vec<T>> = flat.chunks_exact(n * n).map(<[T]>::to_vec).collect();
            let sizes = vec![n; lanes];
            let want = pack_square(n, &mats, &sizes);
            let bits = |v: T| v.to_f64().to_bits();
            assert!(
                got.iter().zip(&want).all(|(&a, &b)| bits(a) == bits(b)),
                "pack_group != pack_lanes at n = {n}"
            );
            let mut back = vec![T::ZERO; n * n * lanes];
            unpack_group(n, &got, &mut back);
            assert!(
                back.iter().zip(&flat).all(|(&a, &b)| bits(a) == bits(b)),
                "unpack_group roundtrip failed at n = {n}"
            );
        }
    }

    #[test]
    fn group_pack_matches_general_pack_and_roundtrips() {
        group_pack_roundtrip::<f64>();
        group_pack_roundtrip::<f32>();
    }

    fn fused_group_matches_staged<T: Scalar>() {
        let mut rng = seeded_rng(29);
        let lanes = lane_count::<T>();
        for n in 1usize..=12 {
            let mut flat = Vec::with_capacity(n * n * lanes);
            for _ in 0..lanes {
                flat.extend_from_slice(&spd_vec::<T>(&mut rng, n));
            }
            if n >= 3 {
                // Poison one lane's diagonal: breakdown info codes and
                // frozen partial factors must match the staged path too.
                flat[n * n + 2 * n + 2] = T::from_f64(-1.0);
            }
            if n >= 2 {
                // Zero one lane's (1, 0) entry: an exactly-zero
                // multiplier, which the in-register n = 4 kernel must
                // bail on (the scalar tier skips zero-w updates, so a
                // straight fmadd could differ in rounding).
                flat[2 * n * n + 1] = T::ZERO;
            }
            let mut tile = vec![T::ZERO; interleaved_len(n, n, lanes)];
            // Pre-filled with the source: the strict upper triangle is
            // unspecified otherwise (the AVX2 path moves only the
            // lower triangle).
            let mut dst = flat.clone();
            let mut infos = vec![0i32; lanes];
            potrf_group(n, &flat, &mut dst, &mut tile, &mut infos);

            let mats: Vec<Vec<T>> = flat.chunks_exact(n * n).map(<[T]>::to_vec).collect();
            let sizes = vec![n; lanes];
            let mut want_buf = pack_square(n, &mats, &sizes);
            let mut want_infos = vec![0i32; lanes];
            potrf_lanes(&mut want_buf, n, &sizes, &mut want_infos);
            assert_eq!(infos, want_infos, "info mismatch at n = {n}");
            for l in 0..lanes {
                let mut want = vec![T::ZERO; n * n];
                unpack_lane(&want_buf, n, l, MatMut::from_slice(&mut want, n, n, n));
                let got = &dst[l * n * n..(l + 1) * n * n];
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits()),
                    "lane {l} diverged at n = {n}"
                );
            }
        }
    }

    #[test]
    fn fused_group_factor_matches_staged_path() {
        fused_group_matches_staged::<f64>();
        fused_group_matches_staged::<f32>();
    }

    /// Multi-group sweeps with a full-width tile ([`group_tile_len`]):
    /// on AVX-512F hosts the `f64` path fuses group pairs into 8-lane
    /// sweeps (odd tails through the 4-lane path); everywhere else the
    /// same call re-checks the narrow path. Either way every lane must
    /// stay bit-identical to the staged per-group oracle — breakdown
    /// lanes, exactly-zero multipliers and non-multiple-of-4 orders
    /// included.
    fn wide_group_matches_staged<T: Scalar>() {
        let mut rng = seeded_rng(31);
        let lanes = lane_count::<T>();
        for n in [1usize, 2, 3, 4, 5, 6, 8, 11, 13, 16, 24] {
            for groups in [1usize, 2, 3, 5] {
                let mut flat = Vec::with_capacity(groups * n * n * lanes);
                for _ in 0..groups * lanes {
                    flat.extend_from_slice(&spd_vec::<T>(&mut rng, n));
                }
                if n >= 3 && groups >= 2 {
                    // Poison a diagonal in the second group — the high
                    // lanes of a fused pair — so per-lane breakdown
                    // freezing is exercised across the pair boundary.
                    let g1 = n * n * lanes;
                    flat[g1 + n * n + 2 * n + 2] = T::from_f64(-1.0);
                }
                if n >= 2 {
                    // Exactly-zero multiplier in the first group (the
                    // scalar tier skips zero-w column updates).
                    flat[1] = T::ZERO;
                }
                let mut tile = vec![T::ZERO; group_tile_len(n)];
                let mut dst = flat.clone();
                let mut infos = vec![0i32; groups * lanes];
                potrf_group(n, &flat, &mut dst, &mut tile, &mut infos);

                let sizes = vec![n; lanes];
                for g in 0..groups {
                    let gsz = n * n * lanes;
                    let gmats: Vec<Vec<T>> = flat[g * gsz..(g + 1) * gsz]
                        .chunks_exact(n * n)
                        .map(<[T]>::to_vec)
                        .collect();
                    let mut want_buf = pack_square(n, &gmats, &sizes);
                    let mut want_infos = vec![0i32; lanes];
                    potrf_lanes(&mut want_buf, n, &sizes, &mut want_infos);
                    assert_eq!(
                        &infos[g * lanes..(g + 1) * lanes],
                        &want_infos[..],
                        "info mismatch at n = {n}, group {g} of {groups}"
                    );
                    for l in 0..lanes {
                        let mut want = vec![T::ZERO; n * n];
                        unpack_lane(&want_buf, n, l, MatMut::from_slice(&mut want, n, n, n));
                        let got = &dst[(g * lanes + l) * n * n..(g * lanes + l + 1) * n * n];
                        assert!(
                            got.iter()
                                .zip(&want)
                                .all(|(a, b)| a.to_f64().to_bits() == b.to_f64().to_bits()),
                            "lane {l} diverged at n = {n}, group {g} of {groups}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wide_tile_group_factor_matches_staged_path() {
        wide_group_matches_staged::<f64>();
        wide_group_matches_staged::<f32>();
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
