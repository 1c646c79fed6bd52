//! Invariants of the performance simulation itself — the properties the
//! figure harness relies on: clock monotonicity, energy bounds, the ETM
//! and sorting cost orderings, occupancy limits, and the negligible-aux
//! claim.

use proptest::prelude::*;
use vbatch_core::{potrf_vbatched_max, EtmPolicy, FusedOpts, PotrfOptions, Strategy, VBatch};
use vbatch_dense::gen::seeded_rng;
use vbatch_gpu_sim::{Device, DeviceConfig, LaunchConfig};
use vbatch_workload::{fill_spd_batch, SizeDist};

fn sim_time(dev: &Device, sizes: &[usize], opts: &PotrfOptions, seed: u64) -> f64 {
    let mut rng = seeded_rng(seed);
    let mut batch = VBatch::<f64>::alloc_square(dev, sizes).unwrap();
    fill_spd_batch(&mut batch, sizes, &mut rng);
    dev.reset_metrics();
    let max = sizes.iter().copied().max().unwrap_or(0);
    potrf_vbatched_max(dev, &mut batch, max, opts).unwrap();
    dev.now()
}

#[test]
fn clock_monotone_and_energy_bounded() {
    let dev = Device::new(DeviceConfig::k40c());
    let mut last = 0.0;
    for i in 0..5 {
        dev.launch("k", LaunchConfig::grid_1d(4, 64), |b| {
            b.dp_flops(64, 1e4);
        })
        .unwrap();
        let now = dev.now();
        assert!(now > last, "clock must advance");
        last = now;
        let e = dev.energy_j();
        assert!(
            e >= dev.config().idle_power_w * now * 0.999,
            "iteration {i}"
        );
        assert!(e <= dev.config().max_power_w * now * 1.001, "iteration {i}");
    }
}

#[test]
fn more_matrices_take_more_time() {
    let dev = Device::new(DeviceConfig::k40c());
    let opts = PotrfOptions::default();
    let t1 = sim_time(&dev, &vec![48; 32], &opts, 1);
    let t2 = sim_time(&dev, &vec![48; 256], &opts, 1);
    assert!(
        t2 > t1 * 2.0,
        "8x matrices should take >2x time ({t1} vs {t2})"
    );
}

#[test]
fn etm_ordering_on_imbalanced_batches() {
    // aggressive <= classic in simulated time, strictly better when
    // whole warps idle.
    let dev = Device::new(DeviceConfig::k40c());
    let sizes: Vec<usize> = (0..96)
        .map(|i| if i % 12 == 0 { 200 } else { 10 + i % 20 })
        .collect();
    let mk = |etm| PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts {
            etm,
            sorting: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let tc = sim_time(&dev, &sizes, &mk(EtmPolicy::Classic), 2);
    let ta = sim_time(&dev, &sizes, &mk(EtmPolicy::Aggressive), 2);
    assert!(ta < tc, "aggressive {ta} must beat classic {tc}");
    // Paper band: up to ~35 % improvement; sanity-check the magnitude.
    assert!(tc / ta < 3.0, "implausible ETM gain {:.2}", tc / ta);
}

#[test]
fn sorting_gain_larger_for_gaussian_than_uniform() {
    // The Fig. 5 vs Fig. 6 contrast: implicit sorting must help the
    // Gaussian mix at least as much as the uniform one.
    let dev = Device::new(DeviceConfig::k40c());
    let count = 256;
    let max = 320;
    let mk = |sorting| PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts {
            etm: EtmPolicy::Classic,
            sorting,
            ..Default::default()
        },
        ..Default::default()
    };
    let gain = |dist: SizeDist, seed: u64| {
        let sizes = dist.sample_batch(&mut seeded_rng(seed), count);
        let t_no = sim_time(&dev, &sizes, &mk(false), seed);
        let t_yes = sim_time(&dev, &sizes, &mk(true), seed);
        t_no / t_yes
    };
    let g_uni = gain(SizeDist::Uniform { max }, 3);
    let g_gau = gain(SizeDist::Gaussian { max }, 4);
    assert!(g_yes_sane(g_uni), "uniform gain {g_uni}");
    assert!(g_yes_sane(g_gau), "gaussian gain {g_gau}");
    assert!(
        g_gau > g_uni,
        "gaussian gain {g_gau} should exceed uniform gain {g_uni}"
    );
}

fn g_yes_sane(g: f64) -> bool {
    g.is_finite() && g > 0.5 && g < 5.0
}

#[test]
fn aux_kernels_are_negligible() {
    // §III-F: "the overhead of these auxiliary kernels is almost
    // negligible" — check on the separated path, which launches them
    // every step.
    let dev = Device::new(DeviceConfig::k40c());
    let sizes: Vec<usize> = (0..128).map(|i| 64 + (i * 13) % 320).collect();
    let opts = PotrfOptions {
        strategy: Strategy::Separated,
        ..Default::default()
    };
    sim_time(&dev, &sizes, &opts, 5);
    dev.with_profiler(|p| {
        let frac = p.time_fraction_matching("aux");
        assert!(frac > 0.0, "aux kernels must actually run");
        assert!(frac < 0.10, "aux fraction {frac} should be negligible");
    });
}

#[test]
fn pascal_what_if_raises_fused_occupancy() {
    // The fused DP kernel at max_n = 512 needs a 32 KB panel: one block
    // per SM on the K40c (48 KB), two on the Pascal-class preset
    // (64 KB) — the architectural lever that would move the crossover.
    use vbatch_gpu_sim::occupancy::occupancy;
    let cfg = LaunchConfig::grid_1d(64, 512).with_shared_mem(512 * 8 * 8);
    let k40 = occupancy(&DeviceConfig::k40c(), &cfg).unwrap();
    let p100 = occupancy(&DeviceConfig::pascal_like(), &cfg).unwrap();
    assert_eq!(k40.blocks_per_sm, 1);
    assert_eq!(p100.blocks_per_sm, 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn occupancy_never_exceeds_device_limits(
        threads_exp in 0u32..5, smem_kb in 0usize..48, blocks in 1u32..64,
    ) {
        let dev = DeviceConfig::k40c();
        let threads = 32u32 << threads_exp;
        let cfg = LaunchConfig::grid_1d(blocks, threads).with_shared_mem(smem_kb * 1024);
        if let Ok(occ) = vbatch_gpu_sim::occupancy::occupancy(&dev, &cfg) {
            prop_assert!(occ.blocks_per_sm >= 1);
            prop_assert!(occ.blocks_per_sm <= dev.max_blocks_per_sm);
            prop_assert!(occ.blocks_per_sm * threads <= dev.max_threads_per_sm.max(threads));
            if smem_kb > 0 {
                prop_assert!(
                    occ.blocks_per_sm as usize * smem_kb * 1024 <= dev.shared_mem_per_sm
                        || occ.blocks_per_sm == 1
                );
            }
        }
    }

    #[test]
    fn simulated_time_deterministic(seed in 0u64..1000) {
        let dev = Device::new(DeviceConfig::k40c());
        let sizes = SizeDist::Uniform { max: 64 }.sample_batch(&mut seeded_rng(seed), 16);
        let t1 = sim_time(&dev, &sizes, &PotrfOptions::default(), seed);
        let t2 = sim_time(&dev, &sizes, &PotrfOptions::default(), seed);
        prop_assert!((t1 - t2).abs() < 1e-15);
    }
}
