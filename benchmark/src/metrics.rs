//! The metric catalogue: every metric's unit, direction and clock.
//!
//! `BENCHMARK.json` is checked against this table by a unit test, so the
//! two cannot drift. The clock decides how `compare` treats a metric at
//! a fixed seed and thread count:
//!
//! - `Wall`: host wall-clock (or derived from it); median over passes,
//!   10 % bound, `unresolved` when the quartile spread is wider;
//! - `Sim`: the simulated device clock and what derives from it;
//!   bit-exact run to run, 0.1 % bound;
//! - `Exact`: counts and shares of counts; any move the wrong way is
//!   `worse`.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Sim,
    Exact,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Exact => "exact",
        }
    }

    /// Share by which a metric may worsen before `compare` says `worse`.
    pub fn bound(self) -> f64 {
        match self {
            Clock::Wall => 0.10,
            Clock::Sim => 0.001,
            Clock::Exact => 0.0,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
}

use Better::{Higher, Lower};
use Clock::{Exact, Sim, Wall};

const fn m(name: &'static str, unit: &'static str, better: Better, clock: Clock) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock,
    }
}

/// What a user of the system sees. The first five exist on every
/// workload and are the ones `BENCHMARK.json` bounds (its contract
/// wants every end-to-end metric on every workload, and steady across
/// seeds, hence rates per useful flop beside the raw seconds); the rest
/// are reported where they exist and gated by `compare`.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, Wall),
    m("wall_gflops", "Gflop/s", Higher, Wall),
    m("sim_gflops", "Gflop/s", Higher, Sim),
    m("sim_gflop_per_j", "Gflop/J", Higher, Sim),
    m("rss_peak_mb", "MiB", Lower, Wall),
    m("wall_s", "s", Lower, Wall),
    m("sim_s", "s", Lower, Sim),
    m("sim_energy_j", "J", Lower, Sim),
    m("failed_share", "ratio", Lower, Exact),
    m("lat_p50_s", "s", Lower, Sim),
    m("lat_p99_s", "s", Lower, Sim),
    m("lat_p99_fault_s", "s", Lower, Sim),
    m("lat_p99_over_s", "s", Lower, Sim),
    m("goodput_over_rps", "req/s", Higher, Sim),
    m("max_rate_hz", "Hz", Higher, Exact),
];

/// How many of [`END_TO_END`] exist on every workload.
pub const ON_EVERY_WORKLOAD: usize = 5;

/// Single layers, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("workload.gen_s", "s", Lower, Wall),
    m("dense.peak_fma_gflops", "Gflop/s", Higher, Wall),
    m("dense.level3.dgemm_gflops_sq256", "Gflop/s", Higher, Wall),
    m("dense.level3.dgemm_gflops_rank64", "Gflop/s", Higher, Wall),
    m("dense.level3.sgemm_gflops_sq256", "Gflop/s", Higher, Wall),
    m("dense.level3.dgemm_roofline_frac", "ratio", Higher, Wall),
    m("dense.level3.sgemm_roofline_frac", "ratio", Higher, Wall),
    m("dense.factor.potrf_floor_s", "s", Lower, Wall),
    m("dense.factor.getrf_floor_s", "s", Lower, Wall),
    m("dense.factor.geqrf_floor_s", "s", Lower, Wall),
    m("dense.interleave.potrf_s", "s", Lower, Wall),
    m("dense.interleave.pack_share", "ratio", Lower, Wall),
    m("dense.interleave.lane_fill", "ratio", Higher, Exact),
    m("gpu-sim.launches", "count", Lower, Exact),
    m("gpu-sim.blocks", "count", Lower, Exact),
    m("gpu-sim.early_exit_block_share", "ratio", Lower, Exact),
    m("gpu-sim.launch_overhead_sim_s", "s", Lower, Sim),
    m("gpu-sim.transfer_sim_s", "s", Lower, Sim),
    m("gpu-sim.empty_launch_ns", "ns", Lower, Wall),
    m("gpu-sim.empty_block_ns", "ns", Lower, Wall),
    m("gpu-sim.wall_ns_per_block", "ns", Lower, Wall),
    m("gpu-sim.device_allocs_per_pass", "count", Lower, Exact),
    m("gpu-sim.mem_peak_mb", "MiB", Lower, Exact),
    m("batch.upload_s", "s", Lower, Wall),
    m("batch.download_s", "s", Lower, Wall),
    m("batch.transfer_share", "ratio", Lower, Wall),
    m("batch.pool_misses", "count", Lower, Exact),
    m("sorting.windows", "count", Lower, Exact),
    m("sorting.padding_waste_share", "ratio", Lower, Exact),
    m("sorting.build_windows_ns", "ns", Lower, Wall),
    m("driver.factor_s", "s", Lower, Wall),
    m("driver.overhead_x", "x", Lower, Wall),
    m("driver.host_allocs_per_pass", "count", Lower, Wall),
    m("driver.sim_gflops", "Gflop/s", Higher, Sim),
    m("driver.sim_share.fused", "ratio", Lower, Sim),
    m("driver.sim_share.ilv", "ratio", Lower, Sim),
    m("driver.sim_share.potf2", "ratio", Lower, Sim),
    m("driver.sim_share.trsm", "ratio", Lower, Sim),
    m("driver.sim_share.trtri", "ratio", Lower, Sim),
    m("driver.sim_share.syrk", "ratio", Lower, Sim),
    m("driver.sim_share.aux", "ratio", Lower, Sim),
    m("driver.cost_model_error", "ratio", Lower, Sim),
    m("lu.getrf_s", "s", Lower, Wall),
    m("lu.sim_s", "s", Lower, Sim),
    m("lu.sim_gflops", "Gflop/s", Higher, Sim),
    m("qr.geqrf_s", "s", Lower, Wall),
    m("qr.sim_s", "s", Lower, Sim),
    m("qr.sim_gflops", "Gflop/s", Higher, Sim),
    m("qr.overhead_x", "x", Lower, Wall),
    m("host.potrf_s", "s", Lower, Wall),
    m("host.getrf_s", "s", Lower, Wall),
    m("host.potrf_gflops", "Gflop/s", Higher, Wall),
    m("host.getrf_gflops", "Gflop/s", Higher, Wall),
    m("host.t1_potrf_s", "s", Lower, Wall),
    m("host.parallel_efficiency", "ratio", Higher, Wall),
    m("host.roofline_frac", "ratio", Higher, Wall),
    m("host.allocs_per_pass", "count", Lower, Wall),
    m("host.model_error", "ratio", Lower, Wall),
    m("shard.plan_ns", "ns", Lower, Wall),
    m("shard.shards", "count", Lower, Exact),
    m("shard.steals", "count", Lower, Exact),
    m("shard.overlap_efficiency", "ratio", Higher, Sim),
    m("shard.imbalance", "x", Lower, Sim),
    m("shard.scaling_x_4dev", "x", Higher, Sim),
    m("shard.pool_high_water_mb", "MiB", Lower, Exact),
    m("shard.wall_4dev_s", "s", Lower, Wall),
    m("shard.overhead_x", "x", Lower, Wall),
    m("shard.hybrid_wall_s", "s", Lower, Wall),
    m("shard.hybrid_sim_s", "s", Lower, Sim),
    m("shard.hybrid_host_matrices", "count", Higher, Exact),
    m("service.submit_ns_p50", "ns", Lower, Wall),
    m("service.submit_ns_p99", "ns", Lower, Wall),
    m("service.dispatch_s", "s", Lower, Wall),
    m("service.offline_wall_s", "s", Lower, Wall),
    m("service.overhead_x", "x", Lower, Wall),
    m("service.windows", "count", Lower, Exact),
    m("service.window_fill", "ratio", Higher, Sim),
    m("service.shed_share_over", "ratio", Lower, Sim),
    m("service.expired_share_over", "ratio", Lower, Sim),
    m("service.window_retries", "count", Lower, Exact),
    m("service.injected_faults", "count", Lower, Exact),
    m("service.queue_depth_max", "count", Lower, Exact),
    m("service.generator_late_s", "s", Lower, Exact),
    m("exec.submit_rtt_ns_p50", "ns", Lower, Wall),
    m("trace.overhead_share", "ratio", Lower, Wall),
    m("trace.closure_err", "ratio", Lower, Wall),
];

/// Looks a metric up in either list; the flag says whether it is
/// end-to-end.
pub fn find(name: &str) -> Option<(&'static Metric, bool)> {
    END_TO_END
        .iter()
        .map(|m| (m, true))
        .chain(PER_LAYER.iter().map(|m| (m, false)))
        .find(|(m, _)| m.name == name)
}

/// Names `BENCHMARK.json` lists under `end_to_end`.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static Metric> {
    END_TO_END[..ON_EVERY_WORKLOAD].iter()
}

/// Names `BENCHMARK.json` lists under `per_layer`: every layer metric,
/// plus the end-to-end metrics that do not exist on every workload.
pub fn driver_per_layer() -> impl Iterator<Item = &'static Metric> {
    END_TO_END[ON_EVERY_WORKLOAD..].iter().chain(PER_LAYER)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        let field = |e: &Json, k: &str| e.get(k).and_then(Json::str).unwrap_or("?").to_owned();
        doc.get(key)
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
            .collect()
    }

    fn expected(ms: impl Iterator<Item = &'static Metric>) -> Vec<(String, String, String)> {
        ms.map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), expected(driver_end_to_end()));
        assert_eq!(listed(&doc, "per_layer"), expected(driver_per_layer()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .map(Json::items)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::str))
            .collect();
        let ours: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(workloads, ours);
        for e in doc.get("end_to_end").map(Json::items).unwrap_or_default() {
            let bound = e.get("bound").and_then(Json::num).expect("a bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert!(driver_per_layer().count() <= 128);
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(m.name, "_.-", 64), "{}", m.name);
            assert!(ok(m.unit, "_/%.-", 16), "{} unit {}", m.name, m.unit);
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
    }
}
