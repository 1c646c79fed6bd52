//! Offline shim for the subset of `rand` 0.8 used by this workspace.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the handful of APIs it actually calls: seedable deterministic
//! generators ([`rngs::StdRng`], [`rngs::SmallRng`]) and uniform range
//! sampling via [`Rng::gen_range`]. The generator is xoshiro256++ seeded
//! through SplitMix64 — statistically solid for test-data generation,
//! though the streams differ from the real `rand` crate's `StdRng`
//! (every consumer in this repo derives data from explicit seeds and
//! asserts seed-independent invariants, so only determinism matters).

#![forbid(unsafe_code)]

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Next raw 64-bit word from the stream.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u128;
                self.start + (rng.next_u64() as u128 % span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi - lo) as u128 + 1;
                lo + (rng.next_u64() as u128 % span) as $t
            }
        }
    )*};
}
impl_int_range!(usize, u64, u32, u16, u8, i64, i32);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let u = unit_f64(rng) as $t;
                self.start + u * (self.end - self.start)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                lo + (unit_f64(rng) as $t) * (hi - lo)
            }
        }
    )*};
}
impl_float_range!(f64, f32);

/// Uniform draw in `[0, 1)` with 53 random mantissa bits.
#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// User-facing sampling interface (the `rand::Rng` extension trait).
pub trait Rng: RngCore {
    /// Uniform sample from `range`.
    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Uniform `f64` in `[0, 1)` (monomorphic stand-in for `gen::<f64>()`).
    #[inline]
    fn gen_f64(&mut self) -> f64
    where
        Self: Sized,
    {
        unit_f64(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Types constructible from a seed (`rand::SeedableRng` subset).
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is a pure function of `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ generator (shim stand-in for `rand::rngs::StdRng`).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed into the full state, as
            // recommended by the xoshiro authors.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            Self {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }
    }

    /// Alias of [`StdRng`] (the shim has no reason to differentiate).
    pub type SmallRng = StdRng;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3usize..10);
            assert!((3..10).contains(&v));
            let w = r.gen_range(5u64..=5);
            assert_eq!(w, 5);
            let f = r.gen_range(-1.0f64..1.0);
            assert!((-1.0..1.0).contains(&f));
            let g = r.gen_range(0.5f64..=1.5);
            assert!((0.5..=1.5).contains(&g));
        }
    }

    #[test]
    fn unit_interval() {
        let mut r = StdRng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let u = r.gen_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
