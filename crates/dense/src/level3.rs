//! Level-3 BLAS kernels (`gemm`, `syrk`, `trsm`, `trmm`) — a two-tier
//! engine.
//!
//! These are the building blocks the paper's *separated* approach exposes
//! as vbatched kernels, and the primitives that the fused kernel inlines.
//! All four support the full parameter space of their BLAS namesakes for
//! real scalars (no conjugation); dimensions follow the BLAS convention
//! that `op(A)` is `m × k`, `op(B)` is `k × n` and `C` is `m × n`.
//!
//! # The two tiers
//!
//! **Small tier** — inner loops run over contiguous column slices
//! ([`MatRef::col_as_slice`] / [`MatMut::col_as_mut_slice`]) in axpy or
//! dot form, so the compiler auto-vectorizes them instead of issuing
//! per-element pointer arithmetic. This is the profile that dominates the
//! paper's variable-size batched workloads, where most operands are tiny.
//!
//! **Blocked tier** — for larger operands, `gemm` switches to BLIS-style
//! cache tiling: `MC × KC` panels of `op(A)` and `KC × NR` micro-panels
//! of `op(B)` are packed into reusable thread-local scratch
//! ([`Scalar::with_scratch`], no steady-state allocation) and consumed by
//! an `MR × NR` register-tiled microkernel. A narrow update whose
//! `op(A)` is column-major and fits one panel skips the packing: the
//! microkernel reads both operands in place through strides, with the
//! same bits. `syrk` routes its
//! off-diagonal rank-k updates, and the recursive `trsm` and `trmm`
//! their off-diagonal blocks, through the same engine, so every
//! consumer — blocked Cholesky/LU, the vbatched kernels, the CPU
//! baselines — inherits the fast path.
//!
//! [`uses_blocked`](crate::level3::uses_blocked) exposes the dispatch
//! predicate and the [`tier`](crate::level3::tier) module exposes both
//! tiers directly so tests and benches can pin a path regardless of
//! operand size.
//!
//! # Tile schemes by CPU
//!
//! The blocked tier reads its `(mr, nr, mc, kc)` from
//! [`crate::tune::active`] — the per-precision
//! [`crate::tune::TileScheme`] of the built-in table row that matches
//! the host's CPU features (the defaults below when no tuned row
//! applies). Register-tile shapes with a hand-written microkernel — 8×4
//! on AVX2+FMA, plus 16×4 f64/f32, 8×8 f64 and 16×8 f32 on AVX-512F —
//! dispatch to it at runtime; any other valid shape runs on the
//! portable loop.

use crate::matrix::{Diag, MatMut, MatRef, Side, Trans, Uplo};
use crate::scalar::Scalar;
use crate::tune::{self, TileScheme, MR_MAX, NR_MAX};

/// Default rows per register tile of the blocked microkernel
/// (equals [`TileScheme::DEFAULT`]`.mr`).
pub const MR: usize = 8;
/// Default columns per register tile of the blocked microkernel
/// (equals [`TileScheme::DEFAULT`]`.nr`).
pub const NR: usize = 4;
/// Default row-panel height cached per packed `op(A)` block
/// (multiple of `MR`; equals [`TileScheme::DEFAULT`]`.mc`).
pub const MC: usize = 64;
/// Default depth of one packed panel pair (the shared `k` extent per
/// sweep; equals [`TileScheme::DEFAULT`]`.kc`).
pub const KC: usize = 256;

/// Minimum inner extent `k` for the blocked tier: packing `op(A)` and
/// `op(B)` is paid once per element but amortized over `k` fused
/// multiply-adds, so a thin inner dimension can't recoup it.
pub(crate) const BLOCKED_MIN_K: usize = 12;
/// Minimum column count `n` for the blocked tier: with fewer columns
/// than two `NR`-wide micro-panels the register tile runs mostly padded.
pub const BLOCKED_MIN_N: usize = 8;

/// Dispatch predicate: `true` when `gemm` with these dimensions takes
/// the packed/blocked tier rather than the slice tier.
///
/// Host-measured crossover (see `tier_scan` history in the PR): the
/// packed path wins for every shape with a non-thin inner extent and at
/// least two micro-panels of columns — volume is irrelevant, `m` is
/// irrelevant (even `m = 3` amortizes via the zero-padded tile).
#[inline]
#[must_use]
pub fn uses_blocked(m: usize, n: usize, k: usize) -> bool {
    let _ = m;
    k >= BLOCKED_MIN_K && n >= BLOCKED_MIN_N
}

/// General matrix-matrix multiply: `C ← α·op(A)·op(B) + β·C`.
///
/// `C` is `m × n`; `op(A)` must be `m × k` and `op(B)` `k × n`.
/// Dispatches between the slice tier and the packed/blocked tier on
/// [`uses_blocked`].
///
/// # Panics
/// On dimension mismatch.
pub fn gemm<T: Scalar>(
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let (m, n, k) = check_gemm_dims(transa, transb, a, b, &c);
    if alpha == T::ZERO || m == 0 || n == 0 || k == 0 {
        scale(&mut c, beta);
        return;
    }
    if uses_blocked(m, n, k) {
        // β folds into the first panel sweep's writeback — no separate
        // pass over C.
        gemm_blocked_acc(
            &tune::active::<T>(),
            transa,
            transb,
            alpha,
            a,
            b,
            beta,
            &mut c,
        );
    } else {
        scale(&mut c, beta);
        gemm_small_acc(transa, transb, alpha, a, b, &mut c);
    }
}

fn check_gemm_dims<T: Scalar>(
    transa: Trans,
    transb: Trans,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &MatMut<'_, T>,
) -> (usize, usize, usize) {
    let m = c.nrows();
    let n = c.ncols();
    let (am, ak) = match transa {
        Trans::NoTrans => (a.nrows(), a.ncols()),
        Trans::Trans => (a.ncols(), a.nrows()),
    };
    let (bk, bn) = match transb {
        Trans::NoTrans => (b.nrows(), b.ncols()),
        Trans::Trans => (b.ncols(), b.nrows()),
    };
    assert_eq!(am, m, "gemm: op(A) row mismatch");
    assert_eq!(bk, ak, "gemm: op(A)/op(B) inner mismatch");
    assert_eq!(bn, n, "gemm: op(B) col mismatch");
    (m, n, ak)
}

// ---------------------------------------------------------------------
// Slice helpers — the vectorization primitives of the small tier.
// ---------------------------------------------------------------------

/// `y ← y + a·x` over equal-length slices.
#[inline]
pub(crate) fn axpy<T: Scalar>(y: &mut [T], x: &[T], a: T) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = a.mul_add(*xi, *yi);
    }
}

/// Dot product with eight partial accumulators, so the float reduction
/// can vectorize without re-association concerns on the final sum.
#[inline]
pub(crate) fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    const LANES: usize = 8;
    let n = x.len().min(y.len());
    let split = n - n % LANES;
    let mut acc = [T::ZERO; LANES];
    for (xa, ya) in x[..split]
        .chunks_exact(LANES)
        .zip(y[..split].chunks_exact(LANES))
    {
        for l in 0..LANES {
            acc[l] = xa[l].mul_add(ya[l], acc[l]);
        }
    }
    let mut s = T::ZERO;
    for v in acc {
        s += v;
    }
    for (xi, yi) in x[split..n].iter().zip(&y[split..n]) {
        s += *xi * *yi;
    }
    s
}

// ---------------------------------------------------------------------
// Small tier: column-slice axpy/dot loops.
// ---------------------------------------------------------------------

/// `C ← C + α·op(A)·op(B)` (β already applied) via slice loops.
fn gemm_small_acc<T: Scalar>(
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
) {
    let m = c.nrows();
    let n = c.ncols();
    let k = match transa {
        Trans::NoTrans => a.ncols(),
        Trans::Trans => a.nrows(),
    };
    match (transa, transb) {
        (Trans::NoTrans, _) => {
            // C(:,j) += α·B(l,j) · A(:,l) — pure column axpys.
            for j in 0..n {
                let cj = c.col_as_mut_slice(j);
                for l in 0..k {
                    let w = alpha
                        * match transb {
                            Trans::NoTrans => b.get(l, j),
                            Trans::Trans => b.get(j, l),
                        };
                    if w != T::ZERO {
                        axpy(cj, a.col_as_slice(l), w);
                    }
                }
            }
        }
        (Trans::Trans, Trans::NoTrans) => {
            // C(i,j) += α·dot(A(:,i), B(:,j)) — both columns contiguous.
            for j in 0..n {
                let bj = b.col_as_slice(j);
                let cj = c.col_as_mut_slice(j);
                for (i, ci) in cj.iter_mut().enumerate().take(m) {
                    *ci += alpha * dot(a.col_as_slice(i), bj);
                }
            }
        }
        (Trans::Trans, Trans::Trans) => {
            // Gather row j of B once per output column so the inner dot
            // runs over two contiguous slices.
            T::with_scratch(k, |brow| {
                for j in 0..n {
                    for (l, slot) in brow.iter_mut().enumerate() {
                        *slot = b.get(j, l);
                    }
                    let cj = c.col_as_mut_slice(j);
                    for (i, ci) in cj.iter_mut().enumerate().take(m) {
                        *ci += alpha * dot(a.col_as_slice(i), brow);
                    }
                }
            });
        }
    }
}

// ---------------------------------------------------------------------
// Blocked tier: packed panels + register-tiled microkernel.
// ---------------------------------------------------------------------

/// `C ← C + α·op(A)·op(B)` (β already applied) via mc×kc×nr tiling
/// under the given [`TileScheme`] (callers pass a validated scheme —
/// [`tune::active`] or one vetted by [`TileScheme::validate`]).
///
/// Packing is conditional. A narrow update whose operands already sit
/// where the microkernel can read them ([`uses_direct`]) runs
/// [`gemm_direct`]: no scratch, no copies. Everything else packs
/// `op(A)`/`op(B)` panels into thread-local scratch ([`gemm_packed`]).
/// The two paths run the same microkernel over the same `p` order, so
/// they produce the same bits.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked_acc<T: Scalar>(
    ts: &TileScheme,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) {
    let k = match transa {
        Trans::NoTrans => a.ncols(),
        Trans::Trans => a.nrows(),
    };
    if uses_direct(ts, transa, c.nrows(), c.ncols(), k) {
        gemm_direct(ts, transb, alpha, a, b, beta, c);
    } else {
        gemm_packed(ts, transa, transb, alpha, a, b, beta, c);
    }
}

/// Gate of the blocked tier's direct mode, a fixed rule like
/// [`uses_blocked`]: `op(A)` is `A` itself, so a register tile's rows
/// are contiguous in each column; one `kc` sweep and one `mc` panel
/// cover the product, so packing would copy every element once for no
/// reuse beyond what the caches give anyway; and `C` is narrow — at most
/// four register tiles wide — so `A` is read at most four times. Wider
/// updates keep their packed, cache-blocked panels. The tile must also
/// fit inside `C` (`m ≥ mr`, `n ≥ nr`): ragged edge tiles then overlap
/// their neighbour instead of reading past the operands.
#[inline]
fn uses_direct(ts: &TileScheme, transa: Trans, m: usize, n: usize, k: usize) -> bool {
    transa == Trans::NoTrans
        && k <= ts.kc
        && (ts.mr..=ts.mc).contains(&m)
        && (ts.nr..=4 * ts.nr).contains(&n)
}

/// Direct mode of the blocked tier (see [`uses_direct`]): the
/// microkernel reads `A` straight from its columns and `op(B)` straight
/// from `B`. A ragged last row tile is shifted up to end at row `m` and
/// writes back only its rows past the previous tile; a ragged last
/// column tile is shifted left the same way. Every element still runs
/// its own chain over the whole `k` extent, and which register lane it
/// occupies does not change its bits.
fn gemm_direct<T: Scalar>(
    ts: &TileScheme,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) {
    let (tmr, tnr) = (ts.mr, ts.nr);
    let (m, n, k) = (c.nrows(), c.ncols(), a.ncols());
    // Column tiles outermost, as in the packed nest: a `k × nr` block of
    // op(B) stays in L1 while the row tiles stream A from its columns.
    for jr0 in (0..n).step_by(tnr) {
        let jt = jr0.min(n - tnr);
        let b_tile = match transb {
            Trans::NoTrans => b.sub(0, jt, k, tnr),
            Trans::Trans => b.sub(jt, 0, tnr, k),
        };
        for ir0 in (0..m).step_by(tmr) {
            let it = ir0.min(m - tmr);
            let a_tile = a.sub(it, 0, tmr, k);
            let tile = Tile {
                i0: ir0,
                j0: jr0,
                mr: tmr.min(m - ir0),
                nr: tnr.min(n - jr0),
                skip_r: ir0 - it,
                skip_c: jr0 - jt,
            };
            microkernel(alpha, a_tile, b_tile, transb, beta, c, tile);
        }
    }
}

/// Packed mode of the blocked tier: `op(A)` and `op(B)` are copied into
/// `tmr`-row and `tnr`-column micro-panels in thread-local scratch, one
/// `kc × mc` block at a time, so wide products keep their operands in
/// cache.
#[allow(clippy::too_many_arguments)]
fn gemm_packed<T: Scalar>(
    ts: &TileScheme,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    beta: T,
    c: &mut MatMut<'_, T>,
) {
    let (tmr, tnr, mc_blk, kc_blk) = (ts.mr, ts.nr, ts.mc, ts.kc);
    let m = c.nrows();
    let n = c.ncols();
    let k = match transa {
        Trans::NoTrans => a.ncols(),
        Trans::Trans => a.nrows(),
    };
    // A kc or mc larger than the operand's extent clamps — the scheme
    // is a ceiling, not a demand.
    let kc_max = kc_blk.min(k);
    let pa_len = mc_blk.min(m.next_multiple_of(tmr)) * kc_max;
    let pb_len = n.div_ceil(tnr) * tnr * kc_max;
    T::with_scratch(pa_len + pb_len, |scratch| {
        let (pa_buf, pb_buf) = scratch.split_at_mut(pa_len);
        for pc in (0..k).step_by(kc_blk) {
            let kc = kc_blk.min(k - pc);
            // Every C tile is written exactly once per panel sweep, so
            // the first sweep applies β and later sweeps accumulate.
            let beta_eff = if pc == 0 { beta } else { T::ONE };
            pack_b(transb, b, pc, kc, n, tnr, pb_buf);
            for ic in (0..m).step_by(mc_blk) {
                let mc = mc_blk.min(m - ic);
                pack_a(transa, a, ic, mc, pc, kc, tmr, pa_buf);
                for jr0 in (0..n).step_by(tnr) {
                    let pb_panel = &pb_buf[(jr0 / tnr) * (tnr * kc)..][..tnr * kc];
                    // op(B)(p, j) of the panel sits at `p·tnr + j`: the
                    // transpose of a `tnr × kc` column-major view.
                    let pb_panel = MatRef::from_slice(pb_panel, tnr, kc, tnr);
                    for ir0 in (0..mc).step_by(tmr) {
                        let pa_panel = &pa_buf[(ir0 / tmr) * (tmr * kc)..][..tmr * kc];
                        let tile = Tile {
                            i0: ic + ir0,
                            j0: jr0,
                            mr: tmr.min(mc - ir0),
                            nr: tnr.min(n - jr0),
                            skip_r: 0,
                            skip_c: 0,
                        };
                        microkernel(
                            alpha,
                            MatRef::from_slice(pa_panel, tmr, kc, tmr),
                            pb_panel,
                            Trans::Trans,
                            beta_eff,
                            c,
                            tile,
                        );
                    }
                }
            }
        }
    });
}

/// Packs `op(A)[ic..ic+mc, pc..pc+kc]` into `tmr`-row micro-panels:
/// element `(ir0+r, pc+p)` lands at `(ir0/tmr)·tmr·kc + p·tmr + r`, with
/// rows past `mc` zero-padded so the microkernel needs no row masking.
#[allow(clippy::too_many_arguments)]
fn pack_a<T: Scalar>(
    transa: Trans,
    a: MatRef<'_, T>,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    tmr: usize,
    buf: &mut [T],
) {
    for ir0 in (0..mc).step_by(tmr) {
        let mr = tmr.min(mc - ir0);
        let panel = &mut buf[(ir0 / tmr) * (tmr * kc)..][..tmr * kc];
        match transa {
            Trans::NoTrans => {
                for p in 0..kc {
                    let col = &a.col_as_slice(pc + p)[ic + ir0..];
                    let dst = &mut panel[p * tmr..p * tmr + tmr];
                    dst[..mr].copy_from_slice(&col[..mr]);
                    dst[mr..].fill(T::ZERO);
                }
            }
            Trans::Trans => {
                // op(A)(i,p) = A(p,i): read each needed column of A once.
                for r in 0..mr {
                    let col = &a.col_as_slice(ic + ir0 + r)[pc..];
                    for p in 0..kc {
                        panel[p * tmr + r] = col[p];
                    }
                }
                for r in mr..tmr {
                    for p in 0..kc {
                        panel[p * tmr + r] = T::ZERO;
                    }
                }
            }
        }
    }
}

/// Packs `op(B)[pc..pc+kc, 0..n]` into `tnr`-column micro-panels:
/// element `(pc+p, jr0+j)` lands at `(jr0/tnr)·tnr·kc + p·tnr + j`, with
/// columns past `n` zero-padded.
fn pack_b<T: Scalar>(
    transb: Trans,
    b: MatRef<'_, T>,
    pc: usize,
    kc: usize,
    n: usize,
    tnr: usize,
    buf: &mut [T],
) {
    for jr0 in (0..n).step_by(tnr) {
        let nr = tnr.min(n - jr0);
        let panel = &mut buf[(jr0 / tnr) * (tnr * kc)..][..tnr * kc];
        match transb {
            Trans::NoTrans => {
                for j in 0..nr {
                    let col = &b.col_as_slice(jr0 + j)[pc..];
                    for p in 0..kc {
                        panel[p * tnr + j] = col[p];
                    }
                }
                for j in nr..tnr {
                    for p in 0..kc {
                        panel[p * tnr + j] = T::ZERO;
                    }
                }
            }
            Trans::Trans => {
                // op(B)(p,j) = B(j,p): column pc+p of B is contiguous.
                for p in 0..kc {
                    let col = &b.col_as_slice(pc + p)[jr0..];
                    let dst = &mut panel[p * tnr..p * tnr + tnr];
                    dst[..nr].copy_from_slice(&col[..nr]);
                    dst[nr..].fill(T::ZERO);
                }
            }
        }
    }
}

/// Where a register tile's live `mr × nr` corner lands in `C`: rows
/// `i0..i0+mr` and columns `j0..j0+nr`, read from accumulator rows
/// `skip_r..` and columns `skip_c..` (non-zero only for a direct-mode
/// edge tile shifted back inside `C`).
#[derive(Clone, Copy)]
struct Tile {
    i0: usize,
    j0: usize,
    mr: usize,
    nr: usize,
    skip_r: usize,
    skip_c: usize,
}

/// Register-tiled `tmr × tnr` microkernel: accumulates the product of a
/// `tmr × kc` block of `op(A)` and a `kc × tnr` block of `op(B)` in a
/// `tmr × tnr` corner of an `MR_MAX × NR_MAX` accumulator block, then
/// writes `C ← α·acc + β·C` on the tile's live corner of `C`
/// (β = 0 overwrites without reading, BLAS-style).
///
/// The operands are views, not copies, and their extents are the tile's:
/// `a` is the `tmr × kc` block of `op(A)`, rows contiguous (a packed
/// panel, or `A` itself in direct mode), and `op_tb(b)` is the
/// `kc × tnr` block of `op(B)` (a packed panel read as `Trans`, or `B`
/// itself). Packed and direct calls run one kernel body, so an element's
/// bits do not depend on the mode.
#[inline]
fn microkernel<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    tb: Trans,
    beta: T,
    c: &mut MatMut<'_, T>,
    tile: Tile,
) {
    let mut acc = [[T::ZERO; MR_MAX]; NR_MAX];
    accumulate_tile(a, b, tb, &mut acc);
    let Tile {
        i0,
        j0,
        mr,
        nr,
        skip_r,
        skip_c,
    } = tile;
    for (jr, accj) in acc[skip_c..skip_c + nr].iter().enumerate() {
        let accj = &accj[skip_r..skip_r + mr];
        let col = &mut c.col_as_mut_slice(j0 + jr)[i0..i0 + mr];
        if beta == T::ONE {
            for (ci, &v) in col.iter_mut().zip(accj) {
                *ci = alpha.mul_add(v, *ci);
            }
        } else if beta == T::ZERO {
            for (ci, &v) in col.iter_mut().zip(accj) {
                *ci = alpha * v;
            }
        } else {
            for (ci, &v) in col.iter_mut().zip(accj) {
                *ci = alpha.mul_add(v, beta * *ci);
            }
        }
    }
}

/// `acc[jr][r] += Σ_{p<kc} a(r, p) · op_tb(b)(p, jr)` over the tile
/// the two views span: `a` is `tmr × kc`, `op_tb(b)` is `kc × tnr`.
///
/// On x86-64 hosts with AVX2+FMA (runtime-detected), `T` ∈
/// {`f32`, `f64`} and a kernel-backed tile shape, this routes to a
/// hand-written fused-multiply-add kernel (AVX-512F shapes included
/// when the host has them); everywhere else it falls back to the
/// portable loop. The portable loop is monomorphized per known tile
/// shape and deliberately uses `mul` + `add` rather than `mul_add`:
/// LLVM SLP-vectorizes these register-tile shapes, while the scalar fma
/// intrinsic blocks that and serializes the tile.
#[inline]
fn accumulate_tile<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    tb: Trans,
    acc: &mut [[T; MR_MAX]; NR_MAX],
) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if x86::accumulate_tile(a, b, tb, acc) {
        return;
    }
    let tnr = match tb {
        Trans::NoTrans => b.ncols(),
        Trans::Trans => b.nrows(),
    };
    match (a.nrows(), tnr) {
        (8, 4) => portable_tile::<T, 8, 4>(a, b, tb, acc),
        (16, 4) => portable_tile::<T, 16, 4>(a, b, tb, acc),
        (8, 8) => portable_tile::<T, 8, 8>(a, b, tb, acc),
        (16, 8) => portable_tile::<T, 16, 8>(a, b, tb, acc),
        _ => {
            for p in 0..a.ncols() {
                let av = a.col_as_slice(p);
                for (jr, accj) in acc.iter_mut().enumerate().take(tnr) {
                    let bv = op_get(b, tb, p, jr);
                    for (slot, &x) in accj.iter_mut().zip(av) {
                        *slot += x * bv;
                    }
                }
            }
        }
    }
}

/// Portable tile accumulation monomorphized on the tile shape, so the
/// inner loops have compile-time trip counts and SLP-vectorize.
#[inline]
fn portable_tile<T: Scalar, const TMR: usize, const TNR: usize>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    tb: Trans,
    acc: &mut [[T; MR_MAX]; NR_MAX],
) {
    for p in 0..a.ncols() {
        let av: &[T; TMR] = a.col_as_slice(p).try_into().expect("a has TMR rows");
        for (jr, accj) in acc.iter_mut().enumerate().take(TNR) {
            let bv = op_get(b, tb, p, jr);
            for (r, slot) in accj.iter_mut().enumerate().take(TMR) {
                *slot += av[r] * bv;
            }
        }
    }
}

/// Hand-written AVX2+FMA and AVX-512F microkernel accumulators: safe
/// `#[target_feature]` fns over the tile's views, with `unsafe` only
/// around their strided reads and at the dispatch below. The
/// generic tile loop tops out without fused multiply-adds (Rust never
/// contracts `a*b + c`, and the scalar `mul_add` intrinsic defeats SLP
/// vectorization), so the two primitive precisions get explicit
/// `_mm256_fmadd` / `_mm512_fmadd` kernels, selected per call by
/// `(TypeId, tile shape)` after a runtime CPU-feature check. Tile
/// shapes without a matching kernel (or hosts without the feature the
/// kernel needs) return `false` and run the portable loop, so any valid
/// scheme a test or the `tune` sweep hands in runs on any host.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod x86 {
    use super::{Scalar, Trans, MR_MAX, NR_MAX};
    use crate::matrix::MatRef;
    use core::any::TypeId;
    use std::arch::x86_64::*;

    /// Accumulator block shared by every kernel: each of the `NR_MAX`
    /// rows is `MR_MAX` = 16 scalars wide, so an 8-wide f64 kernel
    /// touches elements `0..8` and a 16-wide one `0..16` — always in
    /// bounds.
    type Acc<F> = [[F; MR_MAX]; NR_MAX];

    /// A register tile's operands: `a` is `op(A)` (`tmr × kc`) and `b`
    /// holds `op(B)` (`kc × tnr`) as `B` (`NoTrans`) or `Bᵀ` (`Trans`).
    #[derive(Clone, Copy)]
    struct Operands<'a, F> {
        a: MatRef<'a, F>,
        b: MatRef<'a, F>,
        tb: Trans,
    }

    /// The same tile as strided reads: lane `r` of `op(A)` at step `p`
    /// is `*a.add(r + p·a_ps)` and lane `j` of `op(B)` at step `p` is
    /// `*b.add(j·b_js + p·b_ps)`, for `p < kc`. A packed panel pair
    /// reads with `a_ps = tmr` and `(b_js, b_ps) = (1, tnr)`; direct
    /// mode reads `A` with `a_ps = lda` and `B` with `(1, ldb)`
    /// (`Trans`) or `(ldb, 1)` (`NoTrans`).
    struct Reads<F> {
        a: *const F,
        a_ps: usize,
        b: *const F,
        b_js: usize,
        b_ps: usize,
        kc: usize,
    }

    impl<F> Operands<'_, F> {
        /// The reads of a `tmr × tnr` kernel; every offset they name
        /// for `r < tmr`, `j < tnr`, `p < kc` is an element of `a` or
        /// `b`.
        ///
        /// # Panics
        /// Unless the views span exactly a `tmr × tnr` tile.
        fn reads(self, tmr: usize, tnr: usize) -> Reads<F> {
            let (a, b) = (self.a, self.b);
            let (b_tnr, b_kc, b_js, b_ps) = match self.tb {
                Trans::Trans => (b.nrows(), b.ncols(), 1, b.ld()),
                Trans::NoTrans => (b.ncols(), b.nrows(), b.ld(), 1),
            };
            assert!(
                a.nrows() == tmr && b_tnr == tnr && b_kc == a.ncols(),
                "microkernel: operands do not span a {tmr}x{tnr} tile"
            );
            Reads {
                a: a.as_ptr(),
                a_ps: a.ld(),
                b: b.as_ptr(),
                b_js,
                b_ps,
                kc: a.ncols(),
            }
        }
    }

    /// Returns `true` when the tile was handled by an FMA kernel,
    /// `false` when the caller must run the portable loop.
    #[inline]
    pub(super) fn accumulate_tile<T: Scalar>(
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        tb: Trans,
        acc: &mut [[T; MR_MAX]; NR_MAX],
    ) -> bool {
        // `is_x86_feature_detected!` caches its answer in an atomic, so
        // the per-call cost is a couple of relaxed loads.
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return false;
        }
        let wide = is_x86_feature_detected!("avx512f");
        let tmr = a.nrows();
        let tnr = match tb {
            Trans::NoTrans => b.ncols(),
            Trans::Trans => b.nrows(),
        };
        let (am, ak, lda) = (a.nrows(), a.ncols(), a.ld());
        let (bm, bk, ldb) = (b.nrows(), b.ncols(), b.ld());
        if TypeId::of::<T>() == TypeId::of::<f64>() {
            // Safety: `T` is exactly `f64` (TypeId match above), so the
            // views and `acc` are re-stated over the same storage and
            // extents; each kernel checks that the views span its tile;
            // the features each kernel enables were just detected.
            unsafe {
                let ops = Operands {
                    a: MatRef::from_raw_parts(a.as_ptr().cast::<f64>(), am, ak, lda),
                    b: MatRef::from_raw_parts(b.as_ptr().cast::<f64>(), bm, bk, ldb),
                    tb,
                };
                let acc = &mut *(acc as *mut [[T; MR_MAX]; NR_MAX]).cast::<Acc<f64>>();
                match (tmr, tnr) {
                    (8, 4) => accumulate_f64(ops, acc),
                    (16, 4) if wide => accumulate_f64_16x4(ops, acc),
                    (8, 8) if wide => accumulate_f64_8x8(ops, acc),
                    _ => return false,
                }
            }
            true
        } else if TypeId::of::<T>() == TypeId::of::<f32>() {
            // Safety: as above with `T` == `f32`.
            unsafe {
                let ops = Operands {
                    a: MatRef::from_raw_parts(a.as_ptr().cast::<f32>(), am, ak, lda),
                    b: MatRef::from_raw_parts(b.as_ptr().cast::<f32>(), bm, bk, ldb),
                    tb,
                };
                let acc = &mut *(acc as *mut [[T; MR_MAX]; NR_MAX]).cast::<Acc<f32>>();
                match (tmr, tnr) {
                    (8, 4) => accumulate_f32(ops, acc),
                    (16, 4) if wide => accumulate_f32_16x4(ops, acc),
                    (16, 8) if wide => accumulate_f32_16x8(ops, acc),
                    _ => return false,
                }
            }
            true
        } else {
            false
        }
    }

    /// 8×4 f64 tile: two 4-lane registers per C column, eight
    /// independent fma chains — enough to cover fma latency at two
    /// issues per cycle.
    #[target_feature(enable = "avx2,fma")]
    fn accumulate_f64(o: Operands<'_, f64>, acc: &mut Acc<f64>) {
        let o = o.reads(8, 4);
        // SAFETY: `reads` checked that the views span exactly this tile,
        // so the strided offsets `r + p·a_ps` (r < 8) and `j·b_js + p·b_ps`
        // (j < 4) for `p < kc` name elements of the views; `acc` rows are
        // MR_MAX = 16 wide, covering both 4-wide halves.
        unsafe {
            let mut c: [[__m256d; 2]; 4] = [[_mm256_setzero_pd(); 2]; 4];
            for p in 0..o.kc {
                let (ap, bp) = (o.a.add(p * o.a_ps), o.b.add(p * o.b_ps));
                let a0 = _mm256_loadu_pd(ap);
                let a1 = _mm256_loadu_pd(ap.add(4));
                for (jr, cj) in c.iter_mut().enumerate() {
                    let b = _mm256_set1_pd(*bp.add(jr * o.b_js));
                    cj[0] = _mm256_fmadd_pd(a0, b, cj[0]);
                    cj[1] = _mm256_fmadd_pd(a1, b, cj[1]);
                }
            }
            for (accj, cj) in acc.iter_mut().zip(&c) {
                let lo = _mm256_add_pd(_mm256_loadu_pd(accj.as_ptr()), cj[0]);
                let hi = _mm256_add_pd(_mm256_loadu_pd(accj.as_ptr().add(4)), cj[1]);
                _mm256_storeu_pd(accj.as_mut_ptr(), lo);
                _mm256_storeu_pd(accj.as_mut_ptr().add(4), hi);
            }
        }
    }

    /// 8×4 f32 tile: one 8-lane register per C column. Four columns give
    /// only four fma chains, so the k loop runs two steps at a time into
    /// separate partial sums (eight chains) that merge at the end.
    #[target_feature(enable = "avx2,fma")]
    fn accumulate_f32(o: Operands<'_, f32>, acc: &mut Acc<f32>) {
        let o = o.reads(8, 4);
        // SAFETY: `reads` checked that the views span exactly this tile,
        // so the strided offsets for `r < 8`, `j < 4`, `p < kc` name
        // elements of the views, and each `acc` row is MR_MAX = 16 wide
        // (≥ one 8-lane register).
        unsafe {
            const TNR: usize = 4;
            let mut c0: [__m256; TNR] = [_mm256_setzero_ps(); TNR];
            let mut c1: [__m256; TNR] = [_mm256_setzero_ps(); TNR];
            let mut p = 0;
            while p + 2 <= o.kc {
                let (ap0, bp0) = (o.a.add(p * o.a_ps), o.b.add(p * o.b_ps));
                let (ap1, bp1) = (ap0.add(o.a_ps), bp0.add(o.b_ps));
                let a0 = _mm256_loadu_ps(ap0);
                let a1 = _mm256_loadu_ps(ap1);
                for jr in 0..TNR {
                    let b0 = _mm256_set1_ps(*bp0.add(jr * o.b_js));
                    let b1 = _mm256_set1_ps(*bp1.add(jr * o.b_js));
                    c0[jr] = _mm256_fmadd_ps(a0, b0, c0[jr]);
                    c1[jr] = _mm256_fmadd_ps(a1, b1, c1[jr]);
                }
                p += 2;
            }
            if p < o.kc {
                let (ap, bp) = (o.a.add(p * o.a_ps), o.b.add(p * o.b_ps));
                let a0 = _mm256_loadu_ps(ap);
                for (jr, c0j) in c0.iter_mut().enumerate() {
                    let b0 = _mm256_set1_ps(*bp.add(jr * o.b_js));
                    *c0j = _mm256_fmadd_ps(a0, b0, *c0j);
                }
            }
            for (jr, accj) in acc.iter_mut().enumerate().take(TNR) {
                let sum = _mm256_add_ps(c0[jr], c1[jr]);
                let prev = _mm256_loadu_ps(accj.as_ptr());
                _mm256_storeu_ps(accj.as_mut_ptr(), _mm256_add_ps(prev, sum));
            }
        }
    }

    /// 16×4 f64 tile: two 8-lane ZMM registers per C column, eight
    /// independent fma chains over a register footprint of 8 ZMM
    /// accumulators + 2 A loads + 1 broadcast — comfortably inside the
    /// 32-register AVX-512 file.
    #[target_feature(enable = "avx512f")]
    fn accumulate_f64_16x4(o: Operands<'_, f64>, acc: &mut Acc<f64>) {
        let o = o.reads(16, 4);
        // SAFETY: `reads` checked that the views span exactly this tile,
        // so the strided offsets `r + p·a_ps` (r < 16) and `j·b_js + p·b_ps`
        // (j < 4) for `p < kc` name elements of the views; `acc` rows are
        // MR_MAX = 16 wide, covering both 8-wide halves.
        unsafe {
            let mut c: [[__m512d; 2]; 4] = [[_mm512_setzero_pd(); 2]; 4];
            for p in 0..o.kc {
                let (ap, bp) = (o.a.add(p * o.a_ps), o.b.add(p * o.b_ps));
                let a0 = _mm512_loadu_pd(ap);
                let a1 = _mm512_loadu_pd(ap.add(8));
                for (jr, cj) in c.iter_mut().enumerate() {
                    let b = _mm512_set1_pd(*bp.add(jr * o.b_js));
                    cj[0] = _mm512_fmadd_pd(a0, b, cj[0]);
                    cj[1] = _mm512_fmadd_pd(a1, b, cj[1]);
                }
            }
            for (accj, cj) in acc.iter_mut().zip(&c) {
                let lo = _mm512_add_pd(_mm512_loadu_pd(accj.as_ptr()), cj[0]);
                let hi = _mm512_add_pd(_mm512_loadu_pd(accj.as_ptr().add(8)), cj[1]);
                _mm512_storeu_pd(accj.as_mut_ptr(), lo);
                _mm512_storeu_pd(accj.as_mut_ptr().add(8), hi);
            }
        }
    }

    /// 8×8 f64 tile: one 8-lane ZMM register per C column, eight
    /// independent fma chains. Narrower A panel than 16×4 — wins when
    /// `m` tails would leave half a 16-row panel padded.
    #[target_feature(enable = "avx512f")]
    fn accumulate_f64_8x8(o: Operands<'_, f64>, acc: &mut Acc<f64>) {
        let o = o.reads(8, 8);
        // SAFETY: `reads` checked that the views span exactly this tile,
        // so the strided offsets `r + p·a_ps` (r < 8) and `j·b_js + p·b_ps`
        // (j < 8) for `p < kc` name elements of the views; `acc` rows are
        // MR_MAX = 16 wide (≥ one 8-lane register).
        unsafe {
            let mut c: [__m512d; 8] = [_mm512_setzero_pd(); 8];
            for p in 0..o.kc {
                let (ap, bp) = (o.a.add(p * o.a_ps), o.b.add(p * o.b_ps));
                let a0 = _mm512_loadu_pd(ap);
                for (jr, cj) in c.iter_mut().enumerate() {
                    let b = _mm512_set1_pd(*bp.add(jr * o.b_js));
                    *cj = _mm512_fmadd_pd(a0, b, *cj);
                }
            }
            for (accj, cj) in acc.iter_mut().zip(&c) {
                let sum = _mm512_add_pd(_mm512_loadu_pd(accj.as_ptr()), *cj);
                _mm512_storeu_pd(accj.as_mut_ptr(), sum);
            }
        }
    }

    /// 16×8 f32 tile: one 16-lane ZMM register per C column, eight
    /// independent fma chains.
    #[target_feature(enable = "avx512f")]
    fn accumulate_f32_16x8(o: Operands<'_, f32>, acc: &mut Acc<f32>) {
        let o = o.reads(16, 8);
        // SAFETY: `reads` checked that the views span exactly this tile,
        // so the strided offsets `r + p·a_ps` (r < 16) and `j·b_js + p·b_ps`
        // (j < 8) for `p < kc` name elements of the views; `acc` rows are
        // MR_MAX = 16 wide (exactly one 16-lane register).
        unsafe {
            let mut c: [__m512; 8] = [_mm512_setzero_ps(); 8];
            for p in 0..o.kc {
                let (ap, bp) = (o.a.add(p * o.a_ps), o.b.add(p * o.b_ps));
                let a0 = _mm512_loadu_ps(ap);
                for (jr, cj) in c.iter_mut().enumerate() {
                    let b = _mm512_set1_ps(*bp.add(jr * o.b_js));
                    *cj = _mm512_fmadd_ps(a0, b, *cj);
                }
            }
            for (accj, cj) in acc.iter_mut().zip(&c) {
                let sum = _mm512_add_ps(_mm512_loadu_ps(accj.as_ptr()), *cj);
                _mm512_storeu_ps(accj.as_mut_ptr(), sum);
            }
        }
    }

    /// 16×4 f32 tile: one 16-lane ZMM register per C column. Four
    /// columns give only four fma chains, so the k loop runs two steps
    /// at a time into separate partial sums (eight chains) that merge
    /// at the end — same schedule as the AVX2 8×4 f32 kernel.
    #[target_feature(enable = "avx512f")]
    fn accumulate_f32_16x4(o: Operands<'_, f32>, acc: &mut Acc<f32>) {
        let o = o.reads(16, 4);
        // SAFETY: `reads` checked that the views span exactly this tile,
        // so the strided offsets `r + p·a_ps` (r < 16) and `j·b_js + p·b_ps`
        // (j < 4) for `p < kc` name elements of the views; `acc` rows are
        // MR_MAX = 16 wide (exactly one 16-lane register).
        unsafe {
            const TNR: usize = 4;
            let mut c0: [__m512; TNR] = [_mm512_setzero_ps(); TNR];
            let mut c1: [__m512; TNR] = [_mm512_setzero_ps(); TNR];
            let mut p = 0;
            while p + 2 <= o.kc {
                let (ap0, bp0) = (o.a.add(p * o.a_ps), o.b.add(p * o.b_ps));
                let (ap1, bp1) = (ap0.add(o.a_ps), bp0.add(o.b_ps));
                let a0 = _mm512_loadu_ps(ap0);
                let a1 = _mm512_loadu_ps(ap1);
                for jr in 0..TNR {
                    let b0 = _mm512_set1_ps(*bp0.add(jr * o.b_js));
                    let b1 = _mm512_set1_ps(*bp1.add(jr * o.b_js));
                    c0[jr] = _mm512_fmadd_ps(a0, b0, c0[jr]);
                    c1[jr] = _mm512_fmadd_ps(a1, b1, c1[jr]);
                }
                p += 2;
            }
            if p < o.kc {
                let (ap, bp) = (o.a.add(p * o.a_ps), o.b.add(p * o.b_ps));
                let a0 = _mm512_loadu_ps(ap);
                for (jr, c0j) in c0.iter_mut().enumerate() {
                    let b0 = _mm512_set1_ps(*bp.add(jr * o.b_js));
                    *c0j = _mm512_fmadd_ps(a0, b0, *c0j);
                }
            }
            for (jr, accj) in acc.iter_mut().enumerate().take(TNR) {
                let sum = _mm512_add_ps(c0[jr], c1[jr]);
                let prev = _mm512_loadu_ps(accj.as_ptr());
                _mm512_storeu_ps(accj.as_mut_ptr(), _mm512_add_ps(prev, sum));
            }
        }
    }
}

// ---------------------------------------------------------------------
// syrk
// ---------------------------------------------------------------------

/// Column-block width for the blocked `syrk` sweep (diagonal blocks run
/// on the slice tier; everything below/right of them is `gemm`).
const SYRK_NB: usize = 48;

/// Symmetric rank-k update: `C ← α·A·Aᵀ + β·C` (`NoTrans`) or
/// `C ← α·Aᵀ·A + β·C` (`Trans`), updating only the `uplo` triangle of the
/// `n × n` matrix `C`. `A` is `n × k` (`NoTrans`) or `k × n` (`Trans`).
///
/// Large updates are decomposed into slice-tier diagonal blocks plus
/// off-diagonal rectangles routed through the [`gemm`] engine, so the
/// rank-k updates inside blocked Cholesky hit the packed tier.
///
/// # Panics
/// On dimension mismatch.
pub fn syrk<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let n = c.nrows();
    assert_eq!(c.ncols(), n, "syrk: C must be square");
    let (an, k) = match trans {
        Trans::NoTrans => (a.nrows(), a.ncols()),
        Trans::Trans => (a.ncols(), a.nrows()),
    };
    assert_eq!(an, n, "syrk: A dimension mismatch");
    if n == 0 {
        return;
    }
    if n <= SYRK_NB || k == 0 {
        syrk_small(uplo, trans, alpha, a, beta, c);
        return;
    }
    for j0 in (0..n).step_by(SYRK_NB) {
        let jb = SYRK_NB.min(n - j0);
        let a_diag = match trans {
            Trans::NoTrans => a.sub(j0, 0, jb, k),
            Trans::Trans => a.sub(0, j0, k, jb),
        };
        syrk_small(uplo, trans, alpha, a_diag, beta, c.rb().sub(j0, j0, jb, jb));
        // Off-diagonal rectangle of this block column, via gemm.
        let (ci, cj, cm, cn) = match uplo {
            Uplo::Lower => (j0 + jb, j0, n - (j0 + jb), jb),
            Uplo::Upper => (0, j0, j0, jb),
        };
        if cm == 0 {
            continue;
        }
        let csub = c.rb().sub(ci, cj, cm, cn);
        match trans {
            Trans::NoTrans => gemm(
                Trans::NoTrans,
                Trans::Trans,
                alpha,
                a.sub(ci, 0, cm, k),
                a.sub(cj, 0, cn, k),
                beta,
                csub,
            ),
            Trans::Trans => gemm(
                Trans::Trans,
                Trans::NoTrans,
                alpha,
                a.sub(0, ci, k, cm),
                a.sub(0, cj, k, cn),
                beta,
                csub,
            ),
        }
    }
}

/// Slice-tier `syrk` on one (diagonal) block.
fn syrk_small<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let n = c.nrows();
    let k = match trans {
        Trans::NoTrans => a.ncols(),
        Trans::Trans => a.nrows(),
    };
    let bounds = |j: usize| match uplo {
        Uplo::Lower => (j, n),
        Uplo::Upper => (0, j + 1),
    };
    // β over the triangle only (β = 0 overwrites, BLAS semantics).
    for j in 0..n {
        let (lo, hi) = bounds(j);
        let col = &mut c.col_as_mut_slice(j)[lo..hi];
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else if beta != T::ONE {
            for v in col {
                *v *= beta;
            }
        }
    }
    if alpha == T::ZERO || k == 0 {
        return;
    }
    match trans {
        Trans::NoTrans => {
            // C(lo..hi, j) += α·A(j,l) · A(lo..hi, l): column axpys.
            for l in 0..k {
                let al = a.col_as_slice(l);
                for j in 0..n {
                    let w = alpha * al[j];
                    if w != T::ZERO {
                        let (lo, hi) = bounds(j);
                        axpy(&mut c.col_as_mut_slice(j)[lo..hi], &al[lo..hi], w);
                    }
                }
            }
        }
        Trans::Trans => {
            // C(i,j) += α·dot(A(:,i), A(:,j)): contiguous column dots.
            for j in 0..n {
                let aj = a.col_as_slice(j);
                let (lo, hi) = bounds(j);
                let cj = &mut c.col_as_mut_slice(j)[lo..hi];
                for (ci, i) in cj.iter_mut().zip(lo..hi) {
                    *ci += alpha * dot(a.col_as_slice(i), aj);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// trsm
// ---------------------------------------------------------------------

/// Diagonal-block order at or below which `trsm` substitutes directly
/// ([`trsm_small`]) instead of recursing.
const TRSM_NB: usize = 32;

/// Triangular solve with multiple right-hand sides:
/// `op(A)·X = α·B` (`Side::Left`) or `X·op(A) = α·B` (`Side::Right`),
/// overwriting `B` with `X`. `A` is triangular per `uplo`/`diag`.
///
/// Solves recursively: the triangle splits in half, the off-diagonal
/// coupling becomes a [`gemm`] update (packed tier for large operands),
/// and diagonal blocks of order at most 32 substitute directly, in
/// registers for the axpy forms.
///
/// # Panics
/// On dimension mismatch.
pub fn trsm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let m = b.nrows();
    let n = b.ncols();
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert_eq!(a.nrows(), na, "trsm: A dimension mismatch");
    assert_eq!(a.ncols(), na, "trsm: A must be square");

    scale(&mut b, alpha);
    if m == 0 || n == 0 {
        return;
    }
    trsm_rec(side, uplo, transa, diag, a, b);
}

/// Recursive solve of `op(A)·X = B` / `X·op(A) = B` in place (α already
/// applied by the caller).
fn trsm_rec<T: Scalar>(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    a: MatRef<'_, T>,
    b: MatMut<'_, T>,
) {
    let na = a.nrows();
    if na <= TRSM_NB {
        trsm_small(side, uplo, transa, diag, a, b);
        return;
    }
    let n1 = na / 2;
    let a11 = a.sub(0, 0, n1, n1);
    let a22 = a.sub(n1, n1, na - n1, na - n1);
    // Only one off-diagonal block is populated per `uplo`.
    let a21 = || a.sub(n1, 0, na - n1, n1);
    let a12 = || a.sub(0, n1, n1, na - n1);
    let rec = |blk: MatRef<'_, T>, rhs: MatMut<'_, T>| {
        trsm_rec(side, uplo, transa, diag, blk, rhs);
    };
    match side {
        Side::Left => {
            let (mut b1, mut b2) = b.split_at_row(n1);
            match (uplo, transa) {
                (Uplo::Lower, Trans::NoTrans) => {
                    rec(a11, b1.rb());
                    gemm(
                        transa,
                        Trans::NoTrans,
                        -T::ONE,
                        a21(),
                        b1.as_ref(),
                        T::ONE,
                        b2.rb(),
                    );
                    rec(a22, b2);
                }
                (Uplo::Lower, Trans::Trans) => {
                    rec(a22, b2.rb());
                    gemm(
                        transa,
                        Trans::NoTrans,
                        -T::ONE,
                        a21(),
                        b2.as_ref(),
                        T::ONE,
                        b1.rb(),
                    );
                    rec(a11, b1);
                }
                (Uplo::Upper, Trans::NoTrans) => {
                    rec(a22, b2.rb());
                    gemm(
                        transa,
                        Trans::NoTrans,
                        -T::ONE,
                        a12(),
                        b2.as_ref(),
                        T::ONE,
                        b1.rb(),
                    );
                    rec(a11, b1);
                }
                (Uplo::Upper, Trans::Trans) => {
                    rec(a11, b1.rb());
                    gemm(
                        transa,
                        Trans::NoTrans,
                        -T::ONE,
                        a12(),
                        b1.as_ref(),
                        T::ONE,
                        b2.rb(),
                    );
                    rec(a22, b2);
                }
            }
        }
        Side::Right => {
            let (mut b1, mut b2) = b.split_at_col(n1);
            match (uplo, transa) {
                (Uplo::Lower, Trans::NoTrans) => {
                    rec(a22, b2.rb());
                    gemm(
                        Trans::NoTrans,
                        transa,
                        -T::ONE,
                        b2.as_ref(),
                        a21(),
                        T::ONE,
                        b1.rb(),
                    );
                    rec(a11, b1);
                }
                (Uplo::Lower, Trans::Trans) => {
                    rec(a11, b1.rb());
                    gemm(
                        Trans::NoTrans,
                        transa,
                        -T::ONE,
                        b1.as_ref(),
                        a21(),
                        T::ONE,
                        b2.rb(),
                    );
                    rec(a22, b2);
                }
                (Uplo::Upper, Trans::NoTrans) => {
                    rec(a11, b1.rb());
                    gemm(
                        Trans::NoTrans,
                        transa,
                        -T::ONE,
                        b1.as_ref(),
                        a12(),
                        T::ONE,
                        b2.rb(),
                    );
                    rec(a22, b2);
                }
                (Uplo::Upper, Trans::Trans) => {
                    rec(a22, b2.rb());
                    gemm(
                        Trans::NoTrans,
                        transa,
                        -T::ONE,
                        b2.as_ref(),
                        a12(),
                        T::ONE,
                        b1.rb(),
                    );
                    rec(a11, b1);
                }
            }
        }
    }
}

/// Substitution on one diagonal block (α already applied).
///
/// The axpy forms — all four `Side::Right` cases and the two
/// `Side::Left` `NoTrans` cases — run in registers. `B` is staged in
/// row chunks through a compact scratch tile ([`tri_staged`], as
/// [`trmm_small`] does) and [`trsm_sweep`] solves each output column in
/// an `R`-lane accumulator. A left-side solve is the right-side solve of
/// the transposes, `Xᵀ·op(A)ᵀ = Bᵀ`, so its chunks are staged
/// transposed. Each element runs the same fused multiply-add chain, in
/// the same order, as the column-axpy loops these sweeps replaced, so
/// the bits are theirs. The two `Side::Left` `Trans` cases keep their
/// column-dot loops: [`dot`]'s eight partial sums define their bits.
fn trsm_small<T: Scalar>(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let m = b.nrows();
    let n = b.ncols();
    let left = side == Side::Left;
    match (left, uplo, transa) {
        (true, Uplo::Upper, Trans::Trans) => {
            // Forward substitution in dot form: column i of A holds
            // exactly the coefficients op(A)(i, 0..i).
            for j in 0..n {
                let bj = b.col_as_mut_slice(j);
                for i in 0..m {
                    let mut x = bj[i] - dot(&a.col_as_slice(i)[..i], &bj[..i]);
                    if diag == Diag::NonUnit {
                        x /= a.get(i, i);
                    }
                    bj[i] = x;
                }
            }
        }
        (true, Uplo::Lower, Trans::Trans) => {
            // Backward substitution in dot form.
            for j in 0..n {
                let bj = b.col_as_mut_slice(j);
                for i in (0..m).rev() {
                    let mut x = bj[i] - dot(&a.col_as_slice(i)[i + 1..], &bj[i + 1..]);
                    if diag == Diag::NonUnit {
                        x /= a.get(i, i);
                    }
                    bj[i] = x;
                }
            }
        }
        _ => {
            let transa = if left { transposed(transa) } else { transa };
            tri_staged(side, a.nrows(), b, |tile, cap| {
                if cap == SWEEP_ROWS {
                    trsm_sweep::<T, SWEEP_ROWS>(uplo, transa, diag, a, tile, left);
                } else {
                    trsm_sweep::<T, SWEEP_ROWS_MIN>(uplo, transa, diag, a, tile, left);
                }
            });
        }
    }
}

/// Solves `X·op(A) = B` in place on an `R`-row chunk stored compactly
/// (column `l` at `b[l·R..]`), one output column at a time:
/// `X(:,j) = (B(:,j) − Σ_l X(:,l)·op(A)(l,j)) / op(A)(j,j)` accumulates
/// in `R` register lanes, with no store until the column is solved.
///
/// A right-side chunk replays the old column loop: sources `l` in
/// ascending order, `axpy(acc, X(:,l), −op(A)(l,j))`, zero coefficients
/// skipped. A transposed left-side chunk (`left`) replays the
/// right-looking left solve instead: each step is
/// `acc ← (−x_l)·a + acc`, sources come in the order that solve
/// produced them (ascending forward, descending backward) and none is
/// skipped.
fn trsm_sweep<T: Scalar, const R: usize>(
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    a: MatRef<'_, T>,
    b: &mut [T],
    left: bool,
) {
    let n = a.nrows();
    debug_assert_eq!(b.len(), R * n);
    // An upper op(A) couples column j to the columns before it.
    let forward = !op_is_lower(uplo, transa);
    for jj in 0..n {
        let j = if forward { jj } else { n - 1 - jj };
        let mut acc = *tile_col::<T, R>(b, j);
        let others = if forward { 0..j } else { j + 1..n };
        if left {
            let mut step = |l: usize| {
                let coef = op_get(a, transa, l, j);
                for (s, &x) in acc.iter_mut().zip(tile_col::<T, R>(b, l)) {
                    *s = (-x).mul_add(coef, *s);
                }
            };
            if forward {
                others.for_each(&mut step);
            } else {
                others.rev().for_each(&mut step);
            }
        } else {
            for l in others {
                let alj = op_get(a, transa, l, j);
                if alj != T::ZERO {
                    axpy(&mut acc, tile_col::<T, R>(b, l), -alj);
                }
            }
        }
        if diag == Diag::NonUnit {
            let ajj = op_get(a, transa, j, j);
            for v in &mut acc {
                *v /= ajj;
            }
        }
        b[j * R..][..R].copy_from_slice(&acc);
    }
}

// ---------------------------------------------------------------------
// trmm
// ---------------------------------------------------------------------

/// Triangle order at or below which [`trmm`] stops splitting and
/// multiplies directly ([`trmm_small`]). Below it the off-diagonal
/// `gemm` would pack panels for an inner extent too short to repay them.
const TRMM_NB: usize = 64;

/// Rows of `B` one register-accumulator sweep of [`trmm_small`] or
/// [`trsm_small`] covers.
const SWEEP_ROWS: usize = 64;

/// Row count of the narrow sweep that takes the last rows once at most
/// twice this many are left (and single right-hand sides, as in
/// `larft`).
const SWEEP_ROWS_MIN: usize = 8;

/// Where the recursive triangular kernels ([`trmm`], `trtri`) cut a
/// triangle of order `n > 8`: half, rounded up to a multiple of 8 so
/// the sub-blocks keep the alignment of their parent.
#[inline]
pub(crate) fn tri_split(n: usize) -> usize {
    (n / 2).next_multiple_of(8)
}

/// Triangular matrix multiply: `B ← α·op(A)·B` (`Side::Left`) or
/// `B ← α·B·op(A)` (`Side::Right`), with triangular `A`.
///
/// Used by the vbatched `trsm` design, which multiplies by inverted
/// diagonal blocks instead of substituting (the paper's `trtri + gemm`
/// scheme). Recursive and in place: the triangle splits 2×2, the
/// off-diagonal block is one [`gemm`] update (`B2 += α·op(A21)·B1`,
/// ordered so each half of `B` is read before it is overwritten) and
/// the two diagonal blocks recurse until their order is at most
/// `TRMM_NB`, where a register-accumulator sweep multiplies them
/// directly. The split depends on the dimensions only, so the result is
/// a pure function of the operands.
///
/// Only the `uplo` triangle of `A` is read — never the opposite
/// triangle and, under [`Diag::Unit`], never the diagonal — so callers
/// may keep other data there (`larfb` passes `V1` with `R` above it).
/// `α = 0` zeroes `B` without reading either operand.
///
/// # Panics
/// On dimension mismatch.
pub fn trmm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let m = b.nrows();
    let n = b.ncols();
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    assert_eq!(a.nrows(), na, "trmm: A dimension mismatch");
    assert_eq!(a.ncols(), na, "trmm: A must be square");
    if m == 0 || n == 0 {
        return;
    }
    if alpha == T::ZERO {
        scale(&mut b, T::ZERO);
        return;
    }
    trmm_rec(side, uplo, transa, diag, alpha, a, b);
}

/// Triangularity of `op(A)`: Lower+NoTrans and Upper+Trans act lower.
#[inline]
fn op_is_lower(uplo: Uplo, transa: Trans) -> bool {
    matches!(
        (uplo, transa),
        (Uplo::Lower, Trans::NoTrans) | (Uplo::Upper, Trans::Trans)
    )
}

/// Recursive `B ← α·op(A)·B` / `B ← α·B·op(A)` in place.
fn trmm_rec<T: Scalar>(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatMut<'_, T>,
) {
    let na = a.nrows();
    if na <= TRMM_NB {
        trmm_small(side, uplo, transa, diag, alpha, a, b);
        return;
    }
    let n1 = tri_split(na);
    let a11 = a.sub(0, 0, n1, n1);
    let a22 = a.sub(n1, n1, na - n1, na - n1);
    // The one stored off-diagonal block.
    let off = match uplo {
        Uplo::Lower => a.sub(n1, 0, na - n1, n1),
        Uplo::Upper => a.sub(0, n1, n1, na - n1),
    };
    let rec = |blk: MatRef<'_, T>, rhs: MatMut<'_, T>| {
        trmm_rec(side, uplo, transa, diag, alpha, blk, rhs);
    };
    // With op(A) = [T11 0; T21 T22] (lower) the half of B that T21
    // couples *into* goes first, while its source half is still the
    // input; an upper op(A) mirrors the order.
    let lower = op_is_lower(uplo, transa);
    match side {
        Side::Left => {
            let (mut b1, mut b2) = b.split_at_row(n1);
            if lower {
                rec(a22, b2.rb());
                gemm(transa, Trans::NoTrans, alpha, off, b1.as_ref(), T::ONE, b2);
                rec(a11, b1);
            } else {
                rec(a11, b1.rb());
                gemm(transa, Trans::NoTrans, alpha, off, b2.as_ref(), T::ONE, b1);
                rec(a22, b2);
            }
        }
        Side::Right => {
            let (mut b1, mut b2) = b.split_at_col(n1);
            if lower {
                rec(a11, b1.rb());
                gemm(Trans::NoTrans, transa, alpha, b2.as_ref(), off, T::ONE, b1);
                rec(a22, b2);
            } else {
                rec(a22, b2.rb());
                gemm(Trans::NoTrans, transa, alpha, b1.as_ref(), off, T::ONE, b2);
                rec(a11, b1);
            }
        }
    }
}

/// Base case of [`trmm`] (`A` of order at most [`TRMM_NB`]): every
/// case runs as the right-side product on row chunks of `B`
/// ([`tri_staged`], [`trmm_sweep`]). A left-side product is the
/// right-side product of the transposes, `Bᵀ ← α·Bᵀ·op(A)ᵀ`.
fn trmm_small<T: Scalar>(
    side: Side,
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatMut<'_, T>,
) {
    let transa = match side {
        Side::Right => transa,
        Side::Left => transposed(transa),
    };
    tri_staged(side, a.nrows(), b, |tile, cap| {
        if cap == SWEEP_ROWS {
            trmm_sweep::<T, SWEEP_ROWS>(uplo, transa, diag, alpha, a, tile);
        } else {
            trmm_sweep::<T, SWEEP_ROWS_MIN>(uplo, transa, diag, alpha, a, tile);
        }
    });
}

/// Runs a right-side triangular `sweep` (order `na`) over `B` in row
/// chunks, each staged through a compact scratch tile: `sweep(tile,
/// cap)` gets `na` columns of `cap` rows, column `l` at `tile[l·cap..]`.
/// For `Side::Left` the chunks are rows of `Bᵀ`, so column chunks of `B`
/// are copied in transposed. A right-side chunk is copied column by
/// column, which takes it out of `B`'s leading dimension (at `ld = 512`
/// the 64 columns of a chunk share eight L1 sets, and every column is
/// read once per output column). Chunks are [`SWEEP_ROWS`] rows, or
/// [`SWEEP_ROWS_MIN`] once at most twice that many are left: a wide
/// chunk keeps eight independent vector chains in flight, and a sweep
/// step costs about the same either way. Nothing allocates once the
/// thread's scratch is warm.
fn tri_staged<T: Scalar>(
    side: Side,
    na: usize,
    mut b: MatMut<'_, T>,
    mut sweep: impl FnMut(&mut [T], usize),
) {
    debug_assert!(na <= TRMM_NB);
    let len = match side {
        Side::Right => b.nrows(),
        Side::Left => b.ncols(),
    };
    // Asked for at its largest, so a thread's scratch grows at most once.
    T::with_scratch(SWEEP_ROWS * TRMM_NB, |tile| {
        let mut done = 0;
        while done < len {
            let cap = if len - done > 2 * SWEEP_ROWS_MIN {
                SWEEP_ROWS
            } else {
                SWEEP_ROWS_MIN
            };
            // Rows are independent, so a last partial chunk shifts back
            // to end at `len` when `B` has `cap` rows: the rows it shares
            // with the chunk before are done already, ride along as
            // spare lanes and are not copied back. Only a `B` shorter
            // than one chunk pads it, with zero lanes.
            let r0 = done.min(len.saturating_sub(cap));
            let rows = cap.min(len - r0);
            let tile = &mut tile[..cap * na];
            if rows < cap {
                tile.fill(T::ZERO);
            }
            match side {
                Side::Right => {
                    for (l, t) in tile.chunks_exact_mut(cap).enumerate() {
                        t[..rows].copy_from_slice(&b.col_as_slice(l)[r0..r0 + rows]);
                    }
                }
                Side::Left => {
                    for r in 0..rows {
                        let col = b.col_as_slice(r0 + r);
                        for (t, &v) in tile.chunks_exact_mut(cap).zip(col) {
                            t[r] = v;
                        }
                    }
                }
            }
            sweep(tile, cap);
            match side {
                Side::Right => {
                    for (l, t) in tile.chunks_exact(cap).enumerate() {
                        b.col_as_mut_slice(l)[done..r0 + rows].copy_from_slice(&t[done - r0..rows]);
                    }
                }
                Side::Left => {
                    for r in done - r0..rows {
                        let col = b.col_as_mut_slice(r0 + r);
                        for (t, v) in tile.chunks_exact(cap).zip(col) {
                            *v = t[r];
                        }
                    }
                }
            }
            done = r0 + rows;
        }
    });
}

/// Column `l` of a compact `R`-row tile as a fixed-length view, so the
/// lane loops of the sweeps unroll into registers.
#[inline]
fn tile_col<T, const R: usize>(b: &[T], l: usize) -> &[T; R] {
    b[l * R..][..R].try_into().expect("the range is R long")
}

/// The other transposition.
#[inline]
fn transposed(t: Trans) -> Trans {
    match t {
        Trans::NoTrans => Trans::Trans,
        Trans::Trans => Trans::NoTrans,
    }
}

/// `B ← α·B·op(A)` on an `R`-row chunk stored compactly (column `l` at
/// `b[l·R..]`), one output column at a time: the column accumulates in
/// `R` register lanes as an [`axpy`] over the source columns — no store
/// until it is complete — and columns are visited so that every source
/// is still the input when it is read.
fn trmm_sweep<T: Scalar, const R: usize>(
    uplo: Uplo,
    transa: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    b: &mut [T],
) {
    let n = a.nrows();
    debug_assert_eq!(b.len(), R * n);
    let lower = op_is_lower(uplo, transa);
    for jj in 0..n {
        // Output column j sums source columns l ≥ j (lower op(A),
        // ascending) or l ≤ j (upper, descending).
        let (j, others) = if lower {
            (jj, jj + 1..n)
        } else {
            (n - 1 - jj, 0..n - 1 - jj)
        };
        let d = match diag {
            Diag::Unit => alpha,
            Diag::NonUnit => alpha * a.get(j, j),
        };
        let mut acc: [T; R] = tile_col::<T, R>(b, j).map(|x| d * x);
        for l in others {
            axpy(
                &mut acc,
                tile_col::<T, R>(b, l),
                alpha * op_get(a, transa, l, j),
            );
        }
        b[j * R..][..R].copy_from_slice(&acc);
    }
}

#[inline]
fn op_get<T: Scalar>(a: MatRef<'_, T>, trans: Trans, i: usize, j: usize) -> T {
    match trans {
        Trans::NoTrans => a.get(i, j),
        Trans::Trans => a.get(j, i),
    }
}

fn scale<T: Scalar>(c: &mut MatMut<'_, T>, beta: T) {
    if beta == T::ONE {
        return;
    }
    for j in 0..c.ncols() {
        let col = c.col_as_mut_slice(j);
        if beta == T::ZERO {
            col.fill(T::ZERO);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

/// Direct access to the two `gemm` tiers, bypassing [`uses_blocked`]
/// dispatch. Tests pin each tier against the oracle on identical inputs;
/// benches report both so the dispatch threshold stays honest.
pub mod tier {
    use super::*;

    /// Slice-tier `gemm` (`C ← α·op(A)·op(B) + β·C`), any size.
    pub fn gemm_small<T: Scalar>(
        transa: Trans,
        transb: Trans,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        mut c: MatMut<'_, T>,
    ) {
        let (m, n, k) = check_gemm_dims(transa, transb, a, b, &c);
        scale(&mut c, beta);
        if alpha != T::ZERO && m > 0 && n > 0 && k > 0 {
            gemm_small_acc(transa, transb, alpha, a, b, &mut c);
        }
    }

    /// Packed/blocked-tier `gemm` (`C ← α·op(A)·op(B) + β·C`), any
    /// size, under the active [`TileScheme`].
    pub fn gemm_blocked<T: Scalar>(
        transa: Trans,
        transb: Trans,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        c: MatMut<'_, T>,
    ) {
        gemm_blocked_scheme(&tune::active::<T>(), transa, transb, alpha, a, b, beta, c);
    }

    /// Packed/blocked-tier `gemm` under an explicit [`TileScheme`],
    /// bypassing the process-wide tuning state — the entry point the
    /// autotuner and the scheme-sweep tests use to race candidate
    /// schemes inside one process.
    ///
    /// # Panics
    /// When `ts` fails [`TileScheme::validate`] (the packing layout
    /// depends on its invariants) or on dimension mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_blocked_scheme<T: Scalar>(
        ts: &TileScheme,
        transa: Trans,
        transb: Trans,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        mut c: MatMut<'_, T>,
    ) {
        if let Err(why) = ts.validate() {
            panic!("gemm_blocked_scheme: invalid tile scheme: {why}");
        }
        let (m, n, k) = check_gemm_dims(transa, transb, a, b, &c);
        if alpha != T::ZERO && m > 0 && n > 0 && k > 0 {
            gemm_blocked_acc(ts, transa, transb, alpha, a, b, beta, &mut c);
        } else {
            scale(&mut c, beta);
        }
    }

    /// Packed mode of the blocked tier under an explicit scheme, even
    /// where [`uses_direct`] would read the operands in place: the
    /// oracle the direct-mode bit-identity tests compare against.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_packed_scheme<T: Scalar>(
        ts: &TileScheme,
        transa: Trans,
        transb: Trans,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        beta: T,
        mut c: MatMut<'_, T>,
    ) {
        ts.validate().expect("test schemes are valid");
        let (m, n, k) = check_gemm_dims(transa, transb, a, b, &c);
        if alpha != T::ZERO && m > 0 && n > 0 && k > 0 {
            gemm_packed(ts, transa, transb, alpha, a, b, beta, &mut c);
        } else {
            scale(&mut c, beta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rand_mat, seeded_rng};
    use crate::naive;
    use crate::verify::max_abs_diff_slices;

    fn mat<'a>(d: &'a [f64], m: usize, n: usize) -> MatRef<'a, f64> {
        MatRef::from_slice(d, m, n, m)
    }

    #[test]
    fn gemm_all_trans_match_naive() {
        let mut rng = seeded_rng(7);
        for &(m, n, k) in &[(3usize, 4usize, 5usize), (1, 1, 1), (7, 2, 9), (4, 4, 4)] {
            for &ta in &[Trans::NoTrans, Trans::Trans] {
                for &tb in &[Trans::NoTrans, Trans::Trans] {
                    let (am, an) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
                    let (bm, bn) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
                    let a = rand_mat::<f64>(&mut rng, am * an);
                    let b = rand_mat::<f64>(&mut rng, bm * bn);
                    let c0 = rand_mat::<f64>(&mut rng, m * n);

                    let mut c = c0.clone();
                    gemm(
                        ta,
                        tb,
                        0.5,
                        mat(&a, am, an),
                        mat(&b, bm, bn),
                        -2.0,
                        MatMut::from_slice(&mut c, m, n, m),
                    );
                    let want =
                        naive::gemm_ref(ta, tb, 0.5, &a, am, an, &b, bm, bn, -2.0, &c0, m, n);
                    assert!(
                        max_abs_diff_slices(&c, &want) < 1e-12,
                        "gemm mismatch ta={ta:?} tb={tb:?} m={m} n={n} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_tiers_match_each_other() {
        // Same inputs through both tiers: sizes straddling MR/NR/MC
        // boundaries, all transpose combinations.
        let mut rng = seeded_rng(23);
        for &(m, n, k) in &[
            (MR - 1, NR - 1, 3usize),
            (MR, NR, KC.min(17)),
            (MR + 1, NR + 1, 5),
            (MC - 1, 9, 11),
            (MC + 1, NR * 3 + 2, 13),
            (65, 67, 66),
        ] {
            for &ta in &[Trans::NoTrans, Trans::Trans] {
                for &tb in &[Trans::NoTrans, Trans::Trans] {
                    let (am, an) = if ta == Trans::NoTrans { (m, k) } else { (k, m) };
                    let (bm, bn) = if tb == Trans::NoTrans { (k, n) } else { (n, k) };
                    let a = rand_mat::<f64>(&mut rng, am * an);
                    let b = rand_mat::<f64>(&mut rng, bm * bn);
                    let c0 = rand_mat::<f64>(&mut rng, m * n);

                    let mut cs = c0.clone();
                    tier::gemm_small(
                        ta,
                        tb,
                        1.25,
                        mat(&a, am, an),
                        mat(&b, bm, bn),
                        0.5,
                        MatMut::from_slice(&mut cs, m, n, m),
                    );
                    let mut cb = c0.clone();
                    tier::gemm_blocked(
                        ta,
                        tb,
                        1.25,
                        mat(&a, am, an),
                        mat(&b, bm, bn),
                        0.5,
                        MatMut::from_slice(&mut cb, m, n, m),
                    );
                    assert!(
                        max_abs_diff_slices(&cs, &cb) < 1e-10,
                        "tier mismatch ta={ta:?} tb={tb:?} m={m} n={n} k={k}"
                    );
                }
            }
        }
    }

    /// Every register-tile shape with a hand-written kernel (plus one
    /// portable-only shape) against the naive oracle, across mc/kc
    /// variants including kc > k (clamping) and non-default mc, then
    /// every scheme of the built-in table exactly as a host runs it, on
    /// an operand past one `mc × kc` block so both blockings bind.
    #[test]
    fn gemm_blocked_scheme_sweep_matches_naive() {
        fn run<T: Scalar>(tol: f64) {
            let mut rng = seeded_rng(31);
            let shapes = [(8usize, 4usize), (16, 4), (8, 8), (16, 8), (4, 2)];
            let blocks = [(64usize, 256usize), (32, 64), (48, 4096)];
            let swept = shapes.iter().flat_map(|&(mr, nr)| {
                blocks.iter().map(move |&(mc, kc)| {
                    let ts = TileScheme {
                        mr,
                        nr,
                        mc: mc.div_ceil(mr) * mr,
                        kc,
                        ilv_cutoff: 32,
                    };
                    (ts, (65usize, 39usize, 70usize))
                })
            });
            let table = tune::TABLE
                .iter()
                .flat_map(|row| [row.f64_scheme, row.f32_scheme])
                .map(|ts| (ts, (ts.mc + 17, 39, ts.kc + 9)));
            for (ts, (m, n, k)) in swept.chain(table) {
                ts.validate().expect("sweep schemes are valid");
                let a: Vec<T> = rand_mat::<f64>(&mut rng, m * k)
                    .iter()
                    .map(|&v| T::from_f64(v))
                    .collect();
                let b: Vec<T> = rand_mat::<f64>(&mut rng, k * n)
                    .iter()
                    .map(|&v| T::from_f64(v))
                    .collect();
                let c0: Vec<T> = rand_mat::<f64>(&mut rng, m * n)
                    .iter()
                    .map(|&v| T::from_f64(v))
                    .collect();
                let mut c = c0.clone();
                tier::gemm_blocked_scheme(
                    &ts,
                    Trans::NoTrans,
                    Trans::NoTrans,
                    T::from_f64(1.5),
                    MatRef::from_slice(&a, m, k, m),
                    MatRef::from_slice(&b, k, n, k),
                    T::from_f64(-0.5),
                    MatMut::from_slice(&mut c, m, n, m),
                );
                let want = naive::gemm_ref(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    T::from_f64(1.5),
                    &a,
                    m,
                    k,
                    &b,
                    k,
                    n,
                    T::from_f64(-0.5),
                    &c0,
                    m,
                    n,
                );
                let err = c
                    .iter()
                    .zip(&want)
                    .map(|(x, y)| (x.to_f64() - y.to_f64()).abs())
                    .fold(0.0f64, f64::max);
                assert!(
                    err < tol,
                    "scheme {ts:?} {} err {err}",
                    std::any::type_name::<T>()
                );
            }
        }
        run::<f64>(1e-10);
        run::<f32>(1e-3);
    }

    /// Direct mode against the packed path it replaces, bit for bit (a
    /// NaN as a class): every scheme the sweep above covers, `m`/`n` on and past the tile
    /// edges (ragged tails shift back inside `C`), `k` on both sides of
    /// the `kc` gate edge, α/β over {1, −1, 0.5, 0}, padded leading
    /// dimensions, and operands holding −0.0, NaN and ±Inf.
    #[test]
    fn gemm_direct_matches_packed_bits() {
        type Entry<T> =
            fn(&TileScheme, Trans, Trans, T, MatRef<'_, T>, MatRef<'_, T>, T, MatMut<'_, T>);
        fn run<T: Scalar>() -> usize {
            let mut rng = seeded_rng(41);
            let specials = [-0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
            let coeffs = [1.0, -1.0, 0.5, 0.0];
            let mut fill = |len: usize, salt: usize| -> Vec<T> {
                let mut v = rand_mat::<f64>(&mut rng, len);
                for (i, x) in v.iter_mut().enumerate() {
                    if (i * 7 + salt).is_multiple_of(61) {
                        *x = specials[(i + salt) % specials.len()];
                    }
                }
                v.into_iter().map(T::from_f64).collect()
            };
            // Rust leaves the sign and payload of an arithmetic NaN
            // unspecified, and release codegen of the portable tile
            // does produce different ones, so a NaN compares as a class;
            // every other value, signed zeros included, by its bits.
            let bits = |v: &[T]| {
                v.iter()
                    .map(|x| {
                        let x = x.to_f64();
                        if x.is_nan() {
                            u64::MAX
                        } else {
                            x.to_bits()
                        }
                    })
                    .collect::<Vec<_>>()
            };
            let mut direct = 0;
            let mut case = 0;
            for &(mr, nr) in &[(8usize, 4usize), (16, 4), (8, 8), (16, 8), (4, 2)] {
                for &(mc, kc) in &[(64usize, 256usize), (32, 64), (48, 4096)] {
                    let ts = TileScheme {
                        mr,
                        nr,
                        mc: mc.div_ceil(mr) * mr,
                        kc,
                        ilv_cutoff: 32,
                    };
                    for m in [mr, mr + 3, ts.mc - 1, ts.mc] {
                        for n in [nr, nr + 1, 3 * nr - 1, 4 * nr] {
                            for k in [13, kc, kc + 1] {
                                for tb in [Trans::NoTrans, Trans::Trans] {
                                    case += 1;
                                    let alpha = T::from_f64(coeffs[case % 4]);
                                    let beta = T::from_f64(coeffs[case / 4 % 4]);
                                    let (lda, ldc) = (m + 3, m + 1);
                                    let (bm, bn) = match tb {
                                        Trans::NoTrans => (k, n),
                                        Trans::Trans => (n, k),
                                    };
                                    let ldb = bm + 2;
                                    let a = fill(lda * k, case);
                                    let b = fill(ldb * bn, case + 1);
                                    let c0 = fill(ldc * n, case + 2);
                                    let run_with = |entry: Entry<T>| {
                                        let mut c = c0.clone();
                                        entry(
                                            &ts,
                                            Trans::NoTrans,
                                            tb,
                                            alpha,
                                            MatRef::from_slice(&a, m, k, lda),
                                            MatRef::from_slice(&b, bm, bn, ldb),
                                            beta,
                                            MatMut::from_slice(&mut c, m, n, ldc),
                                        );
                                        bits(&c)
                                    };
                                    direct +=
                                        usize::from(uses_direct(&ts, Trans::NoTrans, m, n, k));
                                    assert_eq!(
                                        run_with(tier::gemm_blocked_scheme),
                                        run_with(tier::gemm_packed_scheme),
                                        "{} {ts:?} m={m} n={n} k={k} tb={tb:?}",
                                        std::any::type_name::<T>()
                                    );
                                }
                            }
                        }
                    }
                }
            }
            direct
        }
        // The gate must actually open on most of these shapes.
        assert!(run::<f64>() > 200);
        assert!(run::<f32>() > 200);
    }

    #[test]
    #[should_panic(expected = "invalid tile scheme")]
    fn gemm_blocked_scheme_rejects_invalid() {
        let a = [1.0f64; 4];
        let mut c = [0.0f64; 4];
        let ts = TileScheme {
            mr: 8,
            nr: 4,
            mc: 4, // mc < mr
            kc: 256,
            ilv_cutoff: 32,
        };
        tier::gemm_blocked_scheme(
            &ts,
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            mat(&a, 2, 2),
            mat(&a, 2, 2),
            0.0,
            MatMut::from_slice(&mut c, 2, 2, 2),
        );
    }

    #[test]
    fn dispatch_threshold_sanity() {
        assert!(!uses_blocked(4, 4, 4));
        assert!(uses_blocked(64, 64, 64));
        assert!(uses_blocked(256, 256, 32));
        // Short m still pays off through the zero-padded register tile.
        assert!(uses_blocked(3, 64, 64));
        // Thin inner dimension stays on the slice tier (axpy form).
        assert!(!uses_blocked(512, 512, 4));
        // Too few columns to fill NR-wide micro-panels.
        assert!(!uses_blocked(64, 3, 64));
    }

    #[test]
    fn gemm_beta_zero_ignores_nan() {
        // beta = 0 must overwrite even NaN garbage in C (BLAS semantics).
        let a = [1.0f64];
        let b = [2.0f64];
        let mut c = [f64::NAN];
        gemm(
            Trans::NoTrans,
            Trans::NoTrans,
            1.0,
            mat(&a, 1, 1),
            mat(&b, 1, 1),
            0.0,
            MatMut::from_slice(&mut c, 1, 1, 1),
        );
        assert_eq!(c[0], 2.0);
    }

    #[test]
    fn syrk_matches_gemm() {
        let mut rng = seeded_rng(11);
        for &(n, k) in &[(4usize, 3usize), (6, 6), (1, 5), (5, 1), (SYRK_NB + 5, 7)] {
            for &trans in &[Trans::NoTrans, Trans::Trans] {
                for &uplo in &[Uplo::Lower, Uplo::Upper] {
                    let (am, an) = if trans == Trans::NoTrans {
                        (n, k)
                    } else {
                        (k, n)
                    };
                    let a = rand_mat::<f64>(&mut rng, am * an);
                    let c0 = rand_mat::<f64>(&mut rng, n * n);

                    let mut c = c0.clone();
                    syrk(
                        uplo,
                        trans,
                        1.5,
                        mat(&a, am, an),
                        0.5,
                        MatMut::from_slice(&mut c, n, n, n),
                    );

                    // Full product via gemm, then compare only the triangle.
                    let mut full = c0.clone();
                    let (ta, tb) = if trans == Trans::NoTrans {
                        (Trans::NoTrans, Trans::Trans)
                    } else {
                        (Trans::Trans, Trans::NoTrans)
                    };
                    gemm(
                        ta,
                        tb,
                        1.5,
                        mat(&a, am, an),
                        mat(&a, am, an),
                        0.5,
                        MatMut::from_slice(&mut full, n, n, n),
                    );
                    for j in 0..n {
                        for i in 0..n {
                            let in_tri = match uplo {
                                Uplo::Lower => i >= j,
                                Uplo::Upper => i <= j,
                            };
                            let got = c[i + j * n];
                            let want = if in_tri {
                                full[i + j * n]
                            } else {
                                c0[i + j * n]
                            };
                            assert!(
                                (got - want).abs() < 1e-12,
                                "syrk {uplo:?} {trans:?} n={n} k={k} at ({i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_roundtrip_all_variants() {
        let mut rng = seeded_rng(13);
        for &(m, n) in &[
            (4usize, 3usize),
            (5, 5),
            (1, 4),
            (6, 1),
            (TRSM_NB + 3, 5),
            (5, TRSM_NB + 3),
        ] {
            for &side in &[Side::Left, Side::Right] {
                for &uplo in &[Uplo::Lower, Uplo::Upper] {
                    for &trans in &[Trans::NoTrans, Trans::Trans] {
                        for &diag in &[Diag::NonUnit, Diag::Unit] {
                            let na = if side == Side::Left { m } else { n };
                            // Well-conditioned triangular matrix.
                            let mut a = rand_mat::<f64>(&mut rng, na * na);
                            for i in 0..na {
                                a[i + i * na] = 2.0 + a[i + i * na].abs();
                            }
                            let x0 = rand_mat::<f64>(&mut rng, m * n);

                            // b = op(A) * x0 (or x0 * op(A)); trsm must recover x0.
                            let mut b = x0.clone();
                            trmm(
                                side,
                                uplo,
                                trans,
                                diag,
                                1.0,
                                mat(&a, na, na),
                                MatMut::from_slice(&mut b, m, n, m),
                            );
                            trsm(
                                side,
                                uplo,
                                trans,
                                diag,
                                1.0,
                                mat(&a, na, na),
                                MatMut::from_slice(&mut b, m, n, m),
                            );
                            assert!(
                                max_abs_diff_slices(&b, &x0) < 1e-10,
                                "trsm roundtrip {side:?} {uplo:?} {trans:?} {diag:?} m={m} n={n}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn trsm_alpha_scales_rhs() {
        let a = [2.0f64]; // 1x1 lower
        let mut b = [8.0f64];
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            0.5,
            mat(&a, 1, 1),
            MatMut::from_slice(&mut b, 1, 1, 1),
        );
        assert_eq!(b[0], 2.0); // (0.5*8)/2
    }

    #[test]
    fn trmm_ignores_opposite_triangle() {
        // Garbage in the strictly-upper part must not affect Lower trmm.
        let mut a = vec![0.0f64; 9];
        a[0] = 1.0;
        a[4] = 2.0;
        a[8] = 3.0;
        a[1] = 4.0; // L(1,0)
        a[3] = f64::NAN; // U(0,1) garbage
        a[6] = f64::NAN;
        a[7] = f64::NAN;
        let mut b = vec![1.0f64; 3];
        trmm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            1.0,
            mat(&a, 3, 3),
            MatMut::from_slice(&mut b, 3, 1, 3),
        );
        assert_eq!(b, vec![1.0, 6.0, 3.0]);
    }
}
