//! Device configuration: architectural parameters and cost-model
//! calibration constants.

/// Architectural and calibration parameters of a simulated device.
///
/// The [`DeviceConfig::k40c`] preset mirrors the paper's Tesla K40c
/// (Kepler GK110B, 15 SMX, 745 MHz, ECC on). Calibration constants (warp
/// latency-hiding knee, barrier cost, dispatch cost) were tuned once so
/// that the figure harness reproduces the paper's curve *shapes*; they
/// are architectural in spirit, not fitted per experiment.
#[derive(Clone, Debug)]
pub struct DeviceConfig {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// SIMT width.
    pub warp_size: u32,
    /// Maximum threads per block accepted by a launch.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Shared memory available to a single block (bytes).
    pub shared_mem_per_block: usize,
    /// Shared memory per SM (bytes) — divides into resident blocks.
    pub shared_mem_per_sm: usize,
    /// Core clock in MHz.
    pub clock_mhz: f64,
    /// Single-precision flops retired per cycle per SM (cores × 2 for
    /// FMA).
    pub sp_flops_per_cycle_sm: f64,
    /// Double-precision flops retired per cycle per SM.
    pub dp_flops_per_cycle_sm: f64,
    /// Sustained global-memory bandwidth in GB/s (ECC-adjusted).
    pub mem_bandwidth_gbs: f64,
    /// Sustained shared-memory bandwidth per SM in bytes/cycle.
    pub smem_bytes_per_cycle_sm: f64,
    /// Host-side cost of issuing one kernel launch, in microseconds.
    /// This is the constant the fused-kernel approach amortizes.
    pub kernel_launch_overhead_us: f64,
    /// Fixed cycles charged per dispatched block (scheduling, parameter
    /// load, the ETM liveness check).
    pub block_dispatch_cycles: f64,
    /// Cycles per `__syncthreads()` per resident warp.
    pub sync_cycles_per_warp: f64,
    /// Latency-hiding knee: resident warps needed on an SM to reach half
    /// of peak issue efficiency. Few resident warps ⇒ exposed latency.
    pub latency_hiding_half_warps: f64,
    /// Total device memory in bytes (the padding baseline exhausts it).
    pub global_mem_bytes: usize,
    /// PCIe bandwidth for host↔device copies, GB/s.
    pub pcie_bandwidth_gbs: f64,
    /// Fixed latency per host↔device copy, microseconds.
    pub pcie_latency_us: f64,
    /// Idle board power in watts.
    pub idle_power_w: f64,
    /// Board power at full utilization (TDP), watts.
    pub max_power_w: f64,
}

impl DeviceConfig {
    /// Tesla K40c, the paper's evaluation GPU: 15 SMX × 192 SP / 64 DP
    /// cores at 745 MHz (4.29 Tflop/s SP, 1.43 Tflop/s DP peak), 48 KB
    /// shared memory, 12 GB GDDR5 at 288 GB/s (ECC on ≈ 220 sustained).
    #[must_use]
    pub fn k40c() -> Self {
        Self {
            name: "vK40c (simulated Tesla K40c, ECC on)",
            num_sms: 15,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 48 * 1024,
            clock_mhz: 745.0,
            sp_flops_per_cycle_sm: 384.0, // 192 cores × 2 (FMA)
            dp_flops_per_cycle_sm: 128.0, // 64 units × 2
            mem_bandwidth_gbs: 220.0,
            smem_bytes_per_cycle_sm: 128.0,
            kernel_launch_overhead_us: 5.0,
            block_dispatch_cycles: 300.0,
            sync_cycles_per_warp: 24.0,
            latency_hiding_half_warps: 8.0,
            global_mem_bytes: 12 * 1024 * 1024 * 1024,
            pcie_bandwidth_gbs: 6.0,
            pcie_latency_us: 10.0,
            idle_power_w: 25.0,
            max_power_w: 235.0,
        }
    }

    /// A Pascal-class device (P100-like): 56 SMs at 1328 MHz, 64 KB
    /// shared memory per SM, 1:2 DP ratio, HBM2 bandwidth. Not part of
    /// the paper's evaluation — included for what-if studies: more
    /// shared memory pushes the fused kernel's feasibility bound and
    /// crossover outward.
    #[must_use]
    pub fn pascal_like() -> Self {
        Self {
            name: "vP100 (Pascal-class what-if)",
            num_sms: 56,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 64 * 1024,
            clock_mhz: 1328.0,
            sp_flops_per_cycle_sm: 128.0, // 64 cores × 2
            dp_flops_per_cycle_sm: 64.0,  // 32 units × 2
            mem_bandwidth_gbs: 550.0,
            smem_bytes_per_cycle_sm: 128.0,
            kernel_launch_overhead_us: 4.0,
            block_dispatch_cycles: 250.0,
            sync_cycles_per_warp: 20.0,
            latency_hiding_half_warps: 8.0,
            global_mem_bytes: 16 * 1024 * 1024 * 1024,
            pcie_bandwidth_gbs: 12.0,
            pcie_latency_us: 8.0,
            idle_power_w: 30.0,
            max_power_w: 250.0,
        }
    }

    /// A deliberately tiny device for unit tests: deterministic schedules
    /// with 2 SMs, 1 KB shared memory and a 1 MB global memory so OOM
    /// paths are easy to exercise.
    #[must_use]
    pub fn tiny_test() -> Self {
        Self {
            name: "tiny-test",
            num_sms: 2,
            warp_size: 32,
            max_threads_per_block: 128,
            max_threads_per_sm: 256,
            max_blocks_per_sm: 4,
            shared_mem_per_block: 1024,
            shared_mem_per_sm: 1024,
            clock_mhz: 1000.0,
            sp_flops_per_cycle_sm: 64.0,
            dp_flops_per_cycle_sm: 32.0,
            mem_bandwidth_gbs: 10.0,
            smem_bytes_per_cycle_sm: 64.0,
            kernel_launch_overhead_us: 1.0,
            block_dispatch_cycles: 100.0,
            sync_cycles_per_warp: 10.0,
            latency_hiding_half_warps: 4.0,
            global_mem_bytes: 1024 * 1024,
            pcie_bandwidth_gbs: 1.0,
            pcie_latency_us: 5.0,
            idle_power_w: 5.0,
            max_power_w: 50.0,
        }
    }

    /// Core clock in Hz.
    #[must_use]
    pub(crate) fn clock_hz(&self) -> f64 {
        self.clock_mhz * 1e6
    }

    /// Seconds per core cycle.
    #[must_use]
    pub fn cycle_s(&self) -> f64 {
        1.0 / self.clock_hz()
    }

    /// Device-wide peak flop rate for the given precision, flop/s.
    #[must_use]
    pub fn peak_flops(&self, double_precision: bool) -> f64 {
        let per_sm = if double_precision {
            self.dp_flops_per_cycle_sm
        } else {
            self.sp_flops_per_cycle_sm
        };
        per_sm * self.num_sms as f64 * self.clock_hz()
    }

    /// Per-SM share of global-memory bandwidth, bytes per cycle.
    #[must_use]
    pub fn gmem_bytes_per_cycle_sm(&self) -> f64 {
        self.mem_bandwidth_gbs * 1e9 / (self.num_sms as f64 * self.clock_hz())
    }

    /// Issue efficiency for `warps` resident warps on an SM — the
    /// saturating latency-hiding curve `w / (w + w½)`.
    #[must_use]
    pub(crate) fn issue_efficiency(&self, warps: f64) -> f64 {
        let w = warps.max(1.0);
        w / (w + self.latency_hiding_half_warps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k40c_peaks_match_spec() {
        let c = DeviceConfig::k40c();
        // 15 × 384 × 745 MHz = 4.29 Tflop/s SP.
        assert!((c.peak_flops(false) / 1e12 - 4.29).abs() < 0.01);
        // 15 × 128 × 745 MHz = 1.43 Tflop/s DP.
        assert!((c.peak_flops(true) / 1e12 - 1.43).abs() < 0.01);
    }

    #[test]
    fn issue_efficiency_monotone_saturating() {
        let c = DeviceConfig::k40c();
        let e1 = c.issue_efficiency(1.0);
        let e8 = c.issue_efficiency(8.0);
        let e64 = c.issue_efficiency(64.0);
        assert!(e1 < e8 && e8 < e64);
        assert!(e64 < 1.0);
        // Half efficiency exactly at the knee.
        let knee = c.latency_hiding_half_warps;
        assert!((c.issue_efficiency(knee) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pascal_preset_plausible() {
        let c = DeviceConfig::pascal_like();
        // 56 × 64 × 1328 MHz ≈ 4.76 Tflop/s DP (P100 spec: 4.7).
        assert!((c.peak_flops(true) / 1e12 - 4.76).abs() < 0.05);
        assert!(c.peak_flops(false) > c.peak_flops(true));
        assert!(c.mem_bandwidth_gbs > DeviceConfig::k40c().mem_bandwidth_gbs);
    }

    #[test]
    fn cycle_time_consistent() {
        let c = DeviceConfig::tiny_test();
        assert!((c.cycle_s() * c.clock_hz() - 1.0).abs() < 1e-12);
    }
}
