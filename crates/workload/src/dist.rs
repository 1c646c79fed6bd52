//! Matrix size distributions (paper §IV-B).

use rand::Rng;

/// A distribution of matrix sizes for a vbatched test case.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SizeDist {
    /// Uniform over `[1, max]` (paper Fig. 3a).
    Uniform {
        /// Largest size in the batch.
        max: usize,
    },
    /// Gaussian centered at `⌊max/2⌋`, clamped to `[1, max]`
    /// (paper Fig. 3b); the standard deviation is `max/6` so the
    /// interval covers ±3σ.
    Gaussian {
        /// Largest size in the batch.
        max: usize,
    },
    /// Every matrix the same size (the fixed-size baseline).
    Fixed {
        /// The common size.
        size: usize,
    },
    /// Two sharp modes (paper future work: "test the impact of
    /// different size distributions"): most matrices tiny, a fraction
    /// near `max` — the pattern of block-Jacobi preconditioners with a
    /// few dense coupling blocks.
    Bimodal {
        /// Size of the small mode.
        small: usize,
        /// Size of the large mode (the batch maximum).
        max: usize,
        /// Fraction of matrices in the large mode (0..=1).
        large_fraction: f64,
    },
    /// Geometrically clustered sizes, the shape of multifrontal
    /// elimination-tree levels: sizes `max / 2^k` with populations
    /// growing toward the small end.
    Clustered {
        /// Largest size (root front).
        max: usize,
        /// Number of clusters (tree levels).
        levels: usize,
    },
}

impl SizeDist {
    /// Largest size this distribution can emit.
    #[must_use]
    pub fn max_size(&self) -> usize {
        match *self {
            SizeDist::Uniform { max }
            | SizeDist::Gaussian { max }
            | SizeDist::Bimodal { max, .. }
            | SizeDist::Clustered { max, .. } => max,
            SizeDist::Fixed { size } => size,
        }
    }

    /// Draws one size.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        match *self {
            SizeDist::Uniform { max } => rng.gen_range(1..=max.max(1)),
            SizeDist::Gaussian { max } => {
                let max = max.max(1);
                let mean = (max / 2) as f64;
                let sd = (max as f64 / 6.0).max(1.0);
                // Box–Muller (avoids an extra dependency).
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let v = (mean + sd * z).round();
                v.clamp(1.0, max as f64) as usize
            }
            SizeDist::Fixed { size } => size,
            SizeDist::Bimodal {
                small,
                max,
                large_fraction,
            } => {
                if rng.gen_range(0.0..1.0) < large_fraction.clamp(0.0, 1.0) {
                    max.max(1)
                } else {
                    small.clamp(1, max)
                }
            }
            SizeDist::Clustered { max, levels } => {
                let levels = levels.clamp(1, 16);
                // Level k holds ~2^k× the population of level k−1 and
                // sizes max / 2^k (root level k = 0 is rare).
                let total: f64 = (0..levels).map(|k| (1u64 << k) as f64).sum();
                let mut pick = rng.gen_range(0.0..total);
                let mut level = levels - 1;
                for k in 0..levels {
                    let w = (1u64 << k) as f64;
                    if pick < w {
                        level = k;
                        break;
                    }
                    pick -= w;
                }
                (max >> level).max(1)
            }
        }
    }

    /// Draws a whole batch of sizes.
    pub fn sample_batch(&self, rng: &mut impl Rng, count: usize) -> Vec<usize> {
        (0..count).map(|_| self.sample(rng)).collect()
    }

    /// Label used in benchmark output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SizeDist::Uniform { .. } => "uniform",
            SizeDist::Gaussian { .. } => "gaussian",
            SizeDist::Fixed { .. } => "fixed",
            SizeDist::Bimodal { .. } => "bimodal",
            SizeDist::Clustered { .. } => "clustered",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_dense::gen::seeded_rng;

    #[test]
    fn uniform_bounds_and_coverage() {
        let mut rng = seeded_rng(1);
        let d = SizeDist::Uniform { max: 512 };
        let sizes = d.sample_batch(&mut rng, 2000);
        assert!(sizes.iter().all(|&n| (1..=512).contains(&n)));
        // Paper Fig. 3a: "most sizes appear at least once".
        let distinct: std::collections::BTreeSet<_> = sizes.iter().collect();
        assert!(
            distinct.len() > 450,
            "only {} distinct sizes",
            distinct.len()
        );
    }

    #[test]
    fn gaussian_concentrates_at_mean() {
        let mut rng = seeded_rng(2);
        let d = SizeDist::Gaussian { max: 512 };
        let sizes = d.sample_batch(&mut rng, 2000);
        assert!(sizes.iter().all(|&n| (1..=512).contains(&n)));
        let near_mean = sizes.iter().filter(|&&n| (192..=320).contains(&n)).count();
        let near_edges = sizes.iter().filter(|&&n| n <= 64 || n >= 448).count();
        assert!(
            near_mean > 10 * near_edges.max(1),
            "mean {near_mean} vs edges {near_edges}"
        );
        // Sample mean close to 256.
        let mean: f64 = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!((mean - 256.0).abs() < 15.0, "mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let d = SizeDist::Gaussian { max: 128 };
        let a = d.sample_batch(&mut seeded_rng(7), 100);
        let b = d.sample_batch(&mut seeded_rng(7), 100);
        assert_eq!(a, b);
        let c = d.sample_batch(&mut seeded_rng(8), 100);
        assert_ne!(a, c);
    }

    #[test]
    fn fixed_is_constant() {
        let mut rng = seeded_rng(3);
        let d = SizeDist::Fixed { size: 37 };
        assert!(d.sample_batch(&mut rng, 50).iter().all(|&n| n == 37));
        assert_eq!(d.max_size(), 37);
    }

    #[test]
    fn bimodal_has_two_modes() {
        let mut rng = seeded_rng(5);
        let d = SizeDist::Bimodal {
            small: 16,
            max: 256,
            large_fraction: 0.1,
        };
        let sizes = d.sample_batch(&mut rng, 1000);
        let small = sizes.iter().filter(|&&n| n == 16).count();
        let large = sizes.iter().filter(|&&n| n == 256).count();
        assert_eq!(small + large, 1000, "exactly two modes");
        assert!((50..200).contains(&large), "large mode count {large}");
        assert_eq!(d.max_size(), 256);
        assert_eq!(d.label(), "bimodal");
    }

    #[test]
    fn clustered_population_grows_toward_leaves() {
        let mut rng = seeded_rng(6);
        let d = SizeDist::Clustered {
            max: 512,
            levels: 4,
        };
        let sizes = d.sample_batch(&mut rng, 3000);
        // Sizes restricted to {512, 256, 128, 64}.
        for &n in &sizes {
            assert!([512, 256, 128, 64].contains(&n), "unexpected size {n}");
        }
        let count = |v: usize| sizes.iter().filter(|&&n| n == v).count();
        assert!(count(64) > count(128));
        assert!(count(128) > count(256));
        assert!(count(256) > count(512));
        assert!(count(512) > 0);
    }

    #[test]
    fn degenerate_max_one() {
        let mut rng = seeded_rng(4);
        for d in [SizeDist::Uniform { max: 1 }, SizeDist::Gaussian { max: 1 }] {
            assert!(d.sample_batch(&mut rng, 20).iter().all(|&n| n == 1));
        }
    }
}
