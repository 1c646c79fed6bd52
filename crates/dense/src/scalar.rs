//! Scalar abstraction over the real floating-point precisions.
//!
//! The paper evaluates single and double precision (`SPOTRF` / `DPOTRF`);
//! the framework also "supports complex precisions", which this
//! reproduction leaves out of scope (the performance mechanisms under
//! study are precision-agnostic beyond the flop/byte ratios captured
//! here).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar type usable by every kernel in the workspace.
///
/// The two associated constants [`Scalar::IS_DOUBLE`] and
/// [`Scalar::BYTES`] feed the simulator's cost model: Kepler-class GPUs
/// have separate single- and double-precision throughput, and memory
/// traffic scales with the element width.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + Debug
    + Display
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Default
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this precision.
    const EPSILON: Self;
    /// Width of one element in bytes (4 or 8).
    const BYTES: usize;
    /// Whether this is the double-precision type (drives the DP/SP
    /// throughput split in the device cost model).
    const IS_DOUBLE: bool;
    /// Short LAPACK-style precision prefix, `"s"` or `"d"`.
    const PREFIX: &'static str;

    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Lossy conversion from `f64` (used by generators and tolerances).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (used by verification and norms).
    fn to_f64(self) -> f64;
    /// Fused multiply-add `self * a + b`. The f32/f64 impls call the
    /// hardware FMA: the kernel engine's hot loops fund half their
    /// throughput on it (Rust never contracts `a*b + c` on its own), and
    /// the workspace builds with `target-cpu=native` so it lowers to a
    /// real instruction rather than a libm call.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `true` when the value is finite (not NaN/inf).
    fn is_finite(self) -> bool;

    /// Runs `f` over a thread-local, 64-byte-aligned scratch buffer of
    /// `len` elements whose contents are unspecified (typically stale
    /// data from the previous call) — callers must write every region
    /// they read.
    ///
    /// The blocked level-3 kernels pack `op(A)`/`op(B)` panels on every
    /// call; routing that through per-thread buffers that only ever grow
    /// means steady-state packing performs **no allocation at all** (the
    /// paper's batched regime calls these kernels thousands of times per
    /// factorization sweep). Re-entrant calls on the same thread (a
    /// `gemm` inside `larfb`'s `W` closure) get a second buffer of their
    /// own, reused the same way, so nesting neither aliases nor
    /// allocates once warm.
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;

    /// Grows this thread's idle [`Scalar::with_scratch`] stack to at
    /// least `buffers` buffers that each serve a `len`-element call
    /// without growing, and returns the stack's extent afterwards:
    /// `(buffers, len)` of its longest buffer. `reserve_scratch(0, 0)`
    /// only reads the extent. Missing buffers go in at the bottom of the
    /// stack, so each nesting depth keeps the buffer it already had.
    ///
    /// A worker pool whose lanes take work dynamically brings every
    /// lane up to the largest extent any lane holds; then a warm
    /// `with_scratch` allocates nothing whichever lane runs which work.
    fn reserve_scratch(buffers: usize, len: usize) -> (usize, usize);
}

/// Implements [`Scalar::with_scratch`] against a per-precision
/// thread-local stack of free buffers: a call pops one (or starts an
/// empty one), runs `f`, and pushes it back. Pops and pushes nest, so
/// each nesting depth keeps getting the buffer it used last time.
/// A buffer holds one cache line more than asked, and the slice handed
/// out starts at its first 64-byte boundary — where the packed panels
/// land decides whether the microkernel's loads split cache lines. It is
/// handed out as-is (not re-zeroed): the packing routines overwrite
/// every element they expose, and a defensive fill would cost more than
/// the packing itself on small operands. [`Scalar::reserve_scratch`]
/// grows the same stack.
macro_rules! impl_with_scratch {
    ($t:ty, $tls:ident) => {
        thread_local! {
            static $tls: core::cell::RefCell<Vec<Vec<$t>>> =
                const { core::cell::RefCell::new(Vec::new()) };
        }

        impl ScratchProvider for $t {
            fn with_scratch_impl<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
                const LINE: usize = 64 / core::mem::size_of::<$t>();
                let mut buf = $tls.with(|free| free.borrow_mut().pop().unwrap_or_default());
                if buf.len() < len + LINE {
                    buf.resize(len + LINE, 0.0);
                }
                // `align_offset` may decline (usize::MAX under Miri's
                // symbolic alignment); alignment is only a speed matter.
                let start = buf.as_ptr().align_offset(64);
                let start = if start < LINE { start } else { 0 };
                let out = f(&mut buf[start..start + len]);
                $tls.with(|free| free.borrow_mut().push(buf));
                out
            }

            fn reserve_scratch_impl(buffers: usize, len: usize) -> (usize, usize) {
                const LINE: usize = 64 / core::mem::size_of::<$t>();
                $tls.with(|free| {
                    let mut free = free.borrow_mut();
                    while free.len() < buffers {
                        free.insert(0, Vec::new());
                    }
                    let mut longest = 0;
                    for buf in free.iter_mut() {
                        if buf.len() < len + LINE {
                            buf.resize(len + LINE, 0.0);
                        }
                        longest = longest.max(buf.len() - LINE);
                    }
                    (free.len(), longest)
                })
            }
        }
    };
}

/// Internal helper trait so the macro can live outside the `Scalar` impl
/// blocks while `Scalar::with_scratch` stays a single forwarding call.
trait ScratchProvider: Sized {
    fn with_scratch_impl<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;
    fn reserve_scratch_impl(buffers: usize, len: usize) -> (usize, usize);
}

impl_with_scratch!(f32, SCRATCH_F32);
impl_with_scratch!(f64, SCRATCH_F64);

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const BYTES: usize = 4;
    const IS_DOUBLE: bool = false;
    const PREFIX: &'static str = "s";

    #[inline]
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline]
    fn abs(self) -> Self {
        self.abs()
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline]
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
        <f32 as ScratchProvider>::with_scratch_impl(len, f)
    }
    #[inline]
    fn reserve_scratch(buffers: usize, len: usize) -> (usize, usize) {
        <f32 as ScratchProvider>::reserve_scratch_impl(buffers, len)
    }
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const BYTES: usize = 8;
    const IS_DOUBLE: bool = true;
    const PREFIX: &'static str = "d";

    #[inline]
    fn sqrt(self) -> Self {
        self.sqrt()
    }
    #[inline]
    fn abs(self) -> Self {
        self.abs()
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline]
    fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
        <f64 as ScratchProvider>::with_scratch_impl(len, f)
    }
    #[inline]
    fn reserve_scratch(buffers: usize, len: usize) -> (usize, usize) {
        <f64 as ScratchProvider>::reserve_scratch_impl(buffers, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        assert_eq!(T::ZERO.to_f64(), 0.0);
        assert_eq!(T::ONE.to_f64(), 1.0);
        assert_eq!(T::from_f64(2.5).to_f64(), 2.5);
        assert_eq!(T::from_f64(4.0).sqrt().to_f64(), 2.0);
        assert_eq!(T::from_f64(-3.0).abs().to_f64(), 3.0);
        assert!(T::ONE.is_finite());
        assert!(!(T::ONE / T::ZERO).is_finite());
    }

    // Checked through a generic parameter so each assertion compares two
    // runtime values rather than a compile-time constant.
    fn meta<T: Scalar>(bytes: usize, is_double: bool, prefix: &str) {
        assert_eq!(T::BYTES, bytes);
        assert_eq!(T::IS_DOUBLE, is_double);
        assert_eq!(T::PREFIX, prefix);
    }

    #[test]
    fn f32_contract() {
        roundtrip::<f32>();
        meta::<f32>(4, false, "s");
    }

    #[test]
    fn f64_contract() {
        roundtrip::<f64>();
        meta::<f64>(8, true, "d");
    }

    #[test]
    fn mul_add_matches() {
        let x: f64 = 3.0;
        assert_eq!(x.mul_add(2.0, 1.0), 7.0);
    }

    #[test]
    fn scratch_is_reused_without_reallocation() {
        let ptr1 = f64::with_scratch(64, |s| {
            assert_eq!(s.len(), 64);
            s.fill(3.0);
            s.as_ptr() as usize
        });
        assert_eq!(ptr1 % 64, 0);
        // Same thread, same (or smaller) size: the buffer is reused.
        let ptr2 = f64::with_scratch(32, |s| {
            assert_eq!(s.len(), 32);
            s.as_ptr() as usize
        });
        assert_eq!(ptr1, ptr2);
    }

    #[test]
    fn scratch_reentrant_does_not_alias() {
        let nested = || {
            f32::with_scratch(16, |outer| {
                outer.fill(1.0);
                let inner_ptr = f32::with_scratch(16, |inner| {
                    inner.fill(2.0);
                    inner.as_ptr() as usize
                });
                assert!(outer.iter().all(|&v| v == 1.0));
                (outer.as_ptr() as usize, inner_ptr)
            })
        };
        let (outer1, inner1) = nested();
        assert_eq!((outer1 % 64, inner1 % 64), (0, 0));
        // Each nesting depth gets its own buffer back: no allocation
        // once both are warm.
        assert_eq!(nested(), (outer1, inner1));
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a fresh thread starts with an empty scratch stack"
    )]
    fn reserved_scratch_serves_nested_calls_without_growing() {
        // A fresh thread, so the stack starts empty.
        std::thread::spawn(|| {
            assert_eq!(f64::reserve_scratch(0, 0), (0, 0));
            let outer = f64::with_scratch(100, |s| s.as_ptr() as usize);
            assert_eq!(f64::reserve_scratch(0, 0), (1, 100));
            assert_eq!(f64::reserve_scratch(2, 100), (2, 100));
            let nested = || {
                f64::with_scratch(100, |o| {
                    let inner = f64::with_scratch(100, |i| i.as_ptr() as usize);
                    (o.as_ptr() as usize, inner)
                })
            };
            let (outer2, inner) = nested();
            // Depth 0 keeps the buffer it had; the reserved one went in
            // below it and serves depth 1.
            assert_eq!(outer2, outer);
            assert_ne!(inner, outer);
            // Neither depth grew the stack, and both keep their buffer.
            assert_eq!(f64::reserve_scratch(0, 0), (2, 100));
            assert_eq!(nested(), (outer, inner));
        })
        .join()
        .expect("scratch thread");
    }
}
