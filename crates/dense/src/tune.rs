//! Tile-scheme configuration for the blocked and interleaved tiers.
//!
//! The blocked GEMM tier historically ran on compile-time constants
//! (MR 8 / NR 4 / MC 64 / KC 256) chosen once on one machine, and the
//! interleave cutoff (32) was a second hand-picked constant in
//! `vbatch-core`. Deshmukh & Yokota (PAPERS.md) show these parameters
//! are strongly CPU-dependent and searchable with a small sweep, so
//! this module keys them on the CPU:
//!
//! - [`TileScheme`] carries `(mr, nr, mc, kc, ilv_cutoff)` per
//!   precision, with [`TileScheme::DEFAULT`] reproducing the historical
//!   constants exactly.
//! - [`TABLE`] holds the schemes the offline `tune` binary in
//!   `crates/bench` derived, one [`Row`] per CPU feature class, built
//!   into the library the way the paper builds in its tuned kernels.
//! - [`active`] returns the scheme the process is running with: the
//!   row [`row_for`] picks from what [`CpuFeatures::detect`] reports,
//!   resolved once at first use. Every host — Miri and non-x86
//!   included — gets a row.
//!
//! The selection depends on the CPU alone, never on the working
//! directory or the environment, so one binary runs the same kernels
//! wherever it is started.

use std::any::TypeId;
use std::sync::OnceLock;

use crate::scalar::Scalar;

/// Widest register-tile row count any microkernel supports (AVX-512
/// f32: one 16-lane vector per C column; f64: two 8-lane vectors).
pub(crate) const MR_MAX: usize = 16;
/// Widest register-tile column count any microkernel supports.
pub(crate) const NR_MAX: usize = 8;

/// Runtime tile/packing parameters for one precision.
///
/// `mr × nr` is the register tile shape, `mc × kc` the cache-blocking
/// panel shape, and `ilv_cutoff` the largest window order routed to the
/// interleaved batched-small tier by `vbatch-core`'s fused driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileScheme {
    /// Register-tile rows (micro-panel height of packed `op(A)`).
    pub mr: usize,
    /// Register-tile columns (micro-panel width of packed `op(B)`).
    pub nr: usize,
    /// Cache block over `m`; must be a positive multiple of `mr`.
    pub mc: usize,
    /// Cache block over `k`; clamped to the operand's `k` at use sites.
    pub kc: usize,
    /// Largest window order the fused driver interleaves.
    pub ilv_cutoff: usize,
}

impl TileScheme {
    /// The hand-picked constants the workspace shipped with; every
    /// fallback path resolves to exactly this value.
    pub const DEFAULT: Self = Self {
        mr: 8,
        nr: 4,
        mc: 64,
        kc: 256,
        ilv_cutoff: 32,
    };

    /// Checks the scheme against the invariants the packing and
    /// microkernel layers rely on. Returns a human-readable reason on
    /// rejection.
    ///
    /// # Errors
    /// When any field is out of range: `mr ∉ 1..=MR_MAX`,
    /// `nr ∉ 1..=NR_MAX`, `mc < mr`, `mc` not a multiple of `mr`,
    /// `kc == 0` or implausibly large, or `ilv_cutoff ∉ 1..=64`.
    pub fn validate(&self) -> Result<(), String> {
        if self.mr == 0 || self.mr > MR_MAX {
            return Err(format!("mr={} outside 1..={MR_MAX}", self.mr));
        }
        if self.nr == 0 || self.nr > NR_MAX {
            return Err(format!("nr={} outside 1..={NR_MAX}", self.nr));
        }
        if self.mc < self.mr {
            return Err(format!("mc={} smaller than mr={}", self.mc, self.mr));
        }
        if !self.mc.is_multiple_of(self.mr) {
            return Err(format!("mc={} not a multiple of mr={}", self.mc, self.mr));
        }
        if self.kc == 0 || self.kc > 8192 {
            return Err(format!("kc={} outside 1..=8192", self.kc));
        }
        if self.ilv_cutoff == 0 || self.ilv_cutoff > 64 {
            return Err(format!("ilv_cutoff={} outside 1..=64", self.ilv_cutoff));
        }
        Ok(())
    }
}

impl Default for TileScheme {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The CPU features that select a [`TABLE`] row (see [`row_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuFeatures {
    /// 256-bit integer/FP vectors.
    pub avx2: bool,
    /// Fused multiply-add.
    pub fma: bool,
    /// 512-bit foundation (wide microkernels gate on this).
    pub avx512f: bool,
    /// AVX-512 vector-length extensions.
    pub avx512vl: bool,
}

impl CpuFeatures {
    /// Runtime feature probe. Always all-false under Miri (the
    /// interpreter has no vector units) and on non-x86 targets, which
    /// routes every dispatch to the portable scalar paths.
    #[must_use]
    pub fn detect() -> Self {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            Self {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
                avx512vl: std::arch::is_x86_feature_detected!("avx512vl"),
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            Self::default()
        }
    }
}

/// One row of the built-in scheme table: the schemes for one class of
/// host CPU (see [`row_for`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Row name, reported as [`Active::source`].
    pub name: &'static str,
    /// Scheme applied to `f64` kernels.
    pub f64_scheme: TileScheme,
    /// Scheme applied to `f32` kernels.
    pub f32_scheme: TileScheme,
}

/// The built-in scheme table. Rows come from `cargo tune` (the `tune`
/// binary in `crates/bench`), which prints the winning schemes as
/// literals for this table. The simulated grid depends on `ilv_cutoff`,
/// so every row keeps [`TileScheme::DEFAULT`]'s.
pub const TABLE: [Row; 2] = [
    Row {
        name: "avx512",
        f64_scheme: TileScheme {
            mr: 16,
            nr: 4,
            mc: 256,
            kc: 256,
            ilv_cutoff: 32,
        },
        f32_scheme: TileScheme {
            mr: 16,
            nr: 8,
            mc: 128,
            kc: 512,
            ilv_cutoff: 32,
        },
    },
    Row {
        name: "default",
        f64_scheme: TileScheme::DEFAULT,
        f32_scheme: TileScheme::DEFAULT,
    },
];

/// The [`TABLE`] row for a host with `cpu`'s features: `avx512` when
/// it has AVX2, FMA, AVX-512F and AVX-512VL, else `default` (Miri and
/// non-x86 hosts detect no feature).
#[must_use]
pub fn row_for(cpu: &CpuFeatures) -> &'static Row {
    if cpu.avx2 && cpu.fma && cpu.avx512f && cpu.avx512vl {
        &TABLE[0]
    } else {
        &TABLE[1]
    }
}

/// Resolved process-wide tuning state: one scheme per precision plus
/// the name of the table row they came from, for bench metadata.
#[derive(Debug, Clone)]
pub struct Active {
    /// Scheme applied to `f64` kernels.
    pub f64_scheme: TileScheme,
    /// Scheme applied to `f32` kernels.
    pub f32_scheme: TileScheme,
    /// Name of the [`TABLE`] row the schemes came from.
    pub source: String,
}

static ACTIVE: OnceLock<Active> = OnceLock::new();

/// The process-wide tuning state: the [`TABLE`] row for this host's
/// CPU, resolved on first use.
pub fn active_info() -> &'static Active {
    ACTIVE.get_or_init(|| {
        let row = row_for(&CpuFeatures::detect());
        Active {
            f64_scheme: row.f64_scheme,
            f32_scheme: row.f32_scheme,
            source: row.name.to_owned(),
        }
    })
}

/// The active [`TileScheme`] for precision `T`.
#[must_use]
pub fn active<T: Scalar>() -> TileScheme {
    let info = active_info();
    if TypeId::of::<T>() == TypeId::of::<f32>() {
        info.f32_scheme
    } else {
        info.f64_scheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        TileScheme::DEFAULT.validate().expect("defaults are valid");
        assert_eq!(TileScheme::default(), TileScheme::DEFAULT);
    }

    #[test]
    fn validation_rejects_degenerate_schemes() {
        let cases = [
            TileScheme {
                mr: 0,
                ..TileScheme::DEFAULT
            },
            TileScheme {
                mr: MR_MAX + 1,
                ..TileScheme::DEFAULT
            },
            TileScheme {
                nr: 0,
                ..TileScheme::DEFAULT
            },
            TileScheme {
                nr: NR_MAX + 1,
                ..TileScheme::DEFAULT
            },
            // MC < MR.
            TileScheme {
                mr: 8,
                mc: 4,
                ..TileScheme::DEFAULT
            },
            // Non-multiple register tile.
            TileScheme {
                mr: 8,
                mc: 60,
                ..TileScheme::DEFAULT
            },
            TileScheme {
                kc: 0,
                ..TileScheme::DEFAULT
            },
            TileScheme {
                kc: 9000,
                ..TileScheme::DEFAULT
            },
            TileScheme {
                ilv_cutoff: 0,
                ..TileScheme::DEFAULT
            },
            TileScheme {
                ilv_cutoff: 65,
                ..TileScheme::DEFAULT
            },
        ];
        for ts in cases {
            assert!(ts.validate().is_err(), "{ts:?} should be rejected");
        }
    }

    const AVX512: CpuFeatures = CpuFeatures {
        avx2: true,
        fma: true,
        avx512f: true,
        avx512vl: true,
    };

    /// The AVX-512 row applies only with all four features: a host
    /// missing any one of them gets the default row.
    #[test]
    fn feature_mismatch_is_rejected() {
        let flips: [fn(&mut CpuFeatures); 4] = [
            |c| c.avx2 = false,
            |c| c.fma = false,
            |c| c.avx512f = false,
            |c| c.avx512vl = false,
        ];
        for flip in flips {
            let mut cpu = AVX512;
            flip(&mut cpu);
            let row = row_for(&cpu);
            assert_eq!(row.name, "default", "{cpu:?}");
            assert_eq!(row.f64_scheme, TileScheme::DEFAULT);
            assert_eq!(row.f32_scheme, TileScheme::DEFAULT);
        }
        assert_eq!(row_for(&CpuFeatures::default()).name, "default");
    }

    #[test]
    fn matching_features_load_tuned_schemes() {
        let row = row_for(&AVX512);
        assert_eq!(row.name, "avx512");
        assert_eq!((row.f64_scheme.mr, row.f64_scheme.nr), (16, 4));
        assert_eq!((row.f64_scheme.mc, row.f64_scheme.kc), (256, 256));
        assert_eq!((row.f32_scheme.mr, row.f32_scheme.nr), (16, 8));
        assert_eq!((row.f32_scheme.mc, row.f32_scheme.kc), (128, 512));
    }

    #[test]
    fn active_returns_a_valid_scheme_per_precision() {
        // Whatever the host resolves to, the result must be a valid
        // scheme and name its table row.
        let d = active::<f64>();
        let s = active::<f32>();
        d.validate().expect("active f64 scheme valid");
        s.validate().expect("active f32 scheme valid");
        assert!(!active_info().source.is_empty());
    }
}
