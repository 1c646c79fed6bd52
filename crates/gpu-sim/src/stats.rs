//! Kernel statistics and a device-wide profiler.
//!
//! The paper argues that "the overhead of these auxiliary kernels is
//! almost negligible" — the profiler makes that claim checkable here:
//! every launch is recorded under its kernel name with cumulative counts
//! and simulated time.

use std::collections::BTreeMap;

use crate::grid::LaunchConfig;
use crate::occupancy::Occupancy;
use crate::sched::KernelTiming;

/// The record a single kernel launch returns.
#[derive(Clone, Debug)]
pub struct KernelStats {
    /// Kernel name as passed to `launch`.
    pub name: &'static str,
    /// Launch configuration used.
    pub config: LaunchConfig,
    /// Occupancy achieved.
    pub occupancy: Occupancy,
    /// Simulated end-to-end time of this launch, seconds.
    pub time_s: f64,
    /// Timing breakdown.
    pub timing: KernelTiming,
}

impl KernelStats {
    /// Useful Gflop/s of this launch (paper convention: useful flops over
    /// elapsed time).
    #[must_use]
    pub fn gflops(&self) -> f64 {
        if self.time_s > 0.0 {
            self.timing.flops_useful / self.time_s / 1e9
        } else {
            0.0
        }
    }
}

/// Cumulative per-kernel-name profile.
#[derive(Clone, Debug, Default)]
pub struct ProfileEntry {
    /// Number of launches.
    pub launches: u64,
    /// Total simulated seconds.
    pub time_s: f64,
    /// Total useful flops.
    pub flops_useful: f64,
    /// Total global-memory traffic, bytes.
    pub gmem_bytes: f64,
    /// Total blocks dispatched.
    pub blocks: u64,
    /// Total blocks that early-exited.
    pub early_exit_blocks: u64,
}

/// Device-wide launch profiler keyed by kernel name (by content). Keys
/// are `&'static str`, so the steady-state record path allocates only
/// the first time a name is seen (the map node itself). A `BTreeMap`
/// keeps iteration (and thus every sum derived from it) in name order,
/// independent of insertion history — `clippy.toml` bans unordered
/// maps in the workspace.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    entries: BTreeMap<&'static str, ProfileEntry>,
}

impl Profiler {
    /// Records one launch.
    pub(crate) fn record(&mut self, name: &'static str, timing: &KernelTiming) {
        let e = self.entries.entry(name).or_default();
        e.launches += 1;
        e.time_s += timing.total_s;
        e.flops_useful += timing.flops_useful;
        e.gmem_bytes += timing.gmem_bytes;
        e.blocks += timing.blocks;
        e.early_exit_blocks += timing.early_exit_blocks;
    }

    /// Profile entry for `name`, if any launches were recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ProfileEntry> {
        self.entries.get(name)
    }

    /// All entries, sorted by descending total time.
    #[must_use]
    pub fn sorted_by_time(&self) -> Vec<(&str, &ProfileEntry)> {
        let mut v: Vec<(&str, &ProfileEntry)> = self.entries.iter().map(|(&k, e)| (k, e)).collect();
        v.sort_by(|a, b| b.1.time_s.partial_cmp(&a.1.time_s).expect("finite"));
        v
    }

    /// Total simulated time across all kernels.
    #[must_use]
    pub(crate) fn total_time_s(&self) -> f64 {
        self.entries.values().map(|e| e.time_s).sum()
    }

    /// Fraction of total time spent in kernels whose name contains
    /// `substr` (e.g. `"aux"` for the auxiliary integer kernels).
    #[must_use]
    pub fn time_fraction_matching(&self, substr: &str) -> f64 {
        let total = self.total_time_s();
        if total == 0.0 {
            return 0.0;
        }
        let matched: f64 = self
            .entries
            .iter()
            .filter(|(k, _)| k.contains(substr))
            .map(|(_, e)| e.time_s)
            .sum();
        matched / total
    }

    /// Clears all recorded entries.
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(t: f64, flops: f64) -> KernelTiming {
        KernelTiming {
            total_s: t,
            flops_useful: flops,
            blocks: 4,
            early_exit_blocks: 1,
            ..KernelTiming::default()
        }
    }

    #[test]
    fn profiler_accumulates_by_name() {
        let mut p = Profiler::default();
        p.record("potf2", &timing(1.0, 100.0));
        p.record("potf2", &timing(2.0, 200.0));
        p.record("aux_max", &timing(0.5, 0.0));
        let e = p.get("potf2").unwrap();
        assert_eq!(e.launches, 2);
        assert!((e.time_s - 3.0).abs() < 1e-12);
        assert_eq!(e.blocks, 8);
        assert_eq!(e.early_exit_blocks, 2);
        assert!(p.get("nope").is_none());
    }

    #[test]
    fn fraction_matching_names() {
        let mut p = Profiler::default();
        p.record("aux_max", &timing(1.0, 0.0));
        p.record("fused_step", &timing(9.0, 1e6));
        assert!((p.time_fraction_matching("aux") - 0.1).abs() < 1e-12);
        assert_eq!(p.time_fraction_matching("zzz"), 0.0);
    }

    #[test]
    fn sorted_by_time_desc() {
        let mut p = Profiler::default();
        p.record("a", &timing(1.0, 0.0));
        p.record("b", &timing(5.0, 0.0));
        let v = p.sorted_by_time();
        assert_eq!(v[0].0, "b");
    }
}
