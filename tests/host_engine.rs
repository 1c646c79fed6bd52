//! Host engine + hybrid scheduling: thread-count bit-invariance,
//! host/device placement bit-identity, and cooperative makespan wins.

use proptest::prelude::*;
use vbatch_core::shard::normalized_options;
use vbatch_core::{
    getrf_batch_host, potrf_batch_host, potrf_hybrid, potrf_sharded, potrf_vbatched, HostCostModel,
    HostEngine, HostState, PotrfOptions, ShardOpts, ShardedState, VBatch, VbatchError,
};
use vbatch_dense::gen::{diag_dominant_vec, seeded_rng, spd_vec};
use vbatch_gpu_sim::{Device, DeviceConfig, DeviceGroup};
use vbatch_workload::SizeDist;

/// Reference factorization snapshot: (matrices, info codes, pivots).
type GetrfSnapshot = (Vec<Vec<f64>>, Vec<i32>, Vec<Vec<usize>>);

fn spd_workload(seed: u64, count: usize, max: usize) -> (Vec<usize>, Vec<Vec<f64>>) {
    let mut rng = seeded_rng(seed);
    let sizes = SizeDist::Gaussian { max }.sample_batch(&mut rng, count);
    let mats = sizes.iter().map(|&n| spd_vec::<f64>(&mut rng, n)).collect();
    (sizes, mats)
}

fn assert_bits_equal(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: matrix {i} length");
        for (j, (u, v)) in x.iter().zip(y).enumerate() {
            assert!(
                u.to_bits() == v.to_bits(),
                "{what}: matrix {i} elem {j}: {u:e} vs {v:e}"
            );
        }
    }
}

/// Runs the host engine at `threads` on a copy of the workload.
fn run_host_potrf(
    threads: usize,
    sizes: &[usize],
    mats: &[Vec<f64>],
    opts: &PotrfOptions,
) -> (Vec<Vec<f64>>, Vec<i32>) {
    let engine = HostEngine::with_threads(threads);
    let mut state = HostState::new();
    let mut work = mats.to_vec();
    let mut info = vec![0i32; sizes.len()];
    let indices: Vec<usize> = (0..sizes.len()).collect();
    potrf_batch_host(
        &engine, sizes, &mut work, &indices, opts, &mut state, &mut info,
    )
    .expect("host potrf succeeds");
    (work, info)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole pin: factors and info are bitwise identical at
    /// 1/2/4/8 threads.
    #[test]
    fn host_potrf_bits_invariant_across_thread_counts(
        seed in 0u64..1000,
        count in 1usize..40,
        max in 1usize..140,
    ) {
        let (sizes, mats) = spd_workload(seed, count, max);
        let opts = PotrfOptions::default();
        let (m1, i1) = run_host_potrf(1, &sizes, &mats, &opts);
        for threads in [2usize, 4, 8] {
            let (mt, it) = run_host_potrf(threads, &sizes, &mats, &opts);
            prop_assert_eq!(&i1, &it);
            assert_bits_equal(&m1, &mt, &format!("threads {threads} vs 1"));
        }
    }

    /// LU on the host pool: factors, pivots and info are bitwise
    /// identical at 1/2/4/8 threads.
    #[test]
    fn host_getrf_bits_invariant_across_thread_counts(
        seed in 0u64..1000,
        count in 1usize..24,
        max in 1usize..100,
    ) {
        let mut rng = seeded_rng(seed);
        let sizes = SizeDist::Uniform { max }.sample_batch(&mut rng, count);
        let mats: Vec<Vec<f64>> = sizes
            .iter()
            .map(|&n| diag_dominant_vec::<f64>(&mut rng, n, n))
            .collect();
        let indices: Vec<usize> = (0..sizes.len()).collect();
        let mut base: Option<GetrfSnapshot> = None;
        for threads in [1usize, 2, 4, 8] {
            let engine = HostEngine::with_threads(threads);
            let mut state = HostState::new();
            let mut work = mats.clone();
            let mut info = vec![0i32; sizes.len()];
            let mut pivots: Vec<Vec<usize>> = vec![Vec::new(); sizes.len()];
            getrf_batch_host(
                &engine, &sizes, &mut work, &indices, 16, &mut state, &mut info, &mut pivots,
            )
            .expect("host getrf succeeds");
            match &base {
                None => base = Some((work, info, pivots)),
                Some((m1, i1, p1)) => {
                    prop_assert_eq!(i1, &info);
                    prop_assert_eq!(p1, &pivots);
                    assert_bits_equal(m1, &work, &format!("getrf threads {threads} vs 1"));
                }
            }
        }
    }

    /// Placement pin: host engine vs single-device driver, same
    /// normalized options — bitwise identical factors and info.
    #[test]
    fn host_and_device_factors_are_bit_identical(
        seed in 0u64..1000,
        count in 1usize..24,
        max in 1usize..120,
    ) {
        let (sizes, mats) = spd_workload(seed, count, max);
        let dev = Device::new(DeviceConfig::k40c());
        let global_max = sizes.iter().copied().max().unwrap_or(0);
        let norm = normalized_options::<f64>(&dev, &PotrfOptions::default(), global_max);

        // Device run.
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).expect("alloc");
        for (i, m) in mats.iter().enumerate() {
            batch.upload_matrix(i, m).expect("upload");
        }
        let report = potrf_vbatched(&dev, &mut batch, &norm).expect("device potrf");
        let dev_mats: Vec<Vec<f64>> = (0..sizes.len()).map(|i| batch.download_matrix(i)).collect();

        // Host run, same pinned options.
        let (host_mats, host_info) = run_host_potrf(3, &sizes, &mats, &norm);
        prop_assert_eq!(&report.info, &host_info);
        assert_bits_equal(&dev_mats, &host_mats, "host vs device");
    }
}

#[test]
fn host_breakdown_info_matches_device() {
    // One indefinite matrix among SPD ones: info codes must agree
    // between host and device on both tiers (small and blocked).
    for n in [7usize, 80] {
        let mut rng = seeded_rng(99);
        let sizes = vec![n, 16.min(n), n];
        let mut mats: Vec<Vec<f64>> = sizes.iter().map(|&k| spd_vec::<f64>(&mut rng, k)).collect();
        // Poison the middle matrix: negative diagonal late in the factorization.
        let k = sizes[1];
        let last = k - 1;
        mats[1][last * k + last] = -1.0;

        let dev = Device::new(DeviceConfig::k40c());
        let norm = normalized_options::<f64>(&dev, &PotrfOptions::default(), n);
        let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).expect("alloc");
        for (i, m) in mats.iter().enumerate() {
            batch.upload_matrix(i, m).expect("upload");
        }
        let report = potrf_vbatched(&dev, &mut batch, &norm).expect("device potrf");
        let (_, host_info) = run_host_potrf(2, &sizes, &mats, &norm);
        assert_eq!(report.info, host_info, "n={n}");
        assert!(host_info[1] > 0, "poisoned matrix must break down");
    }
}

/// A repeated index would hand two lanes the same matrix: both entry
/// points reject it before touching `mats`, `info` or `pivots`.
#[test]
fn host_engine_rejects_repeated_indices_untouched() {
    let (sizes, mats) = spd_workload(0xD0B, 4, 40);
    let engine = HostEngine::with_threads(2);
    let indices = [1usize, 2, 1];
    let bits = |m: &[Vec<f64>]| -> Vec<Vec<u64>> {
        m.iter()
            .map(|a| a.iter().map(|x| x.to_bits()).collect())
            .collect()
    };
    let mut work = mats.clone();
    let mut info = vec![-7i32; sizes.len()];
    let got = potrf_batch_host(
        &engine,
        &sizes,
        &mut work,
        &indices,
        &PotrfOptions::default(),
        &mut HostState::new(),
        &mut info,
    );
    assert!(
        matches!(got, Err(VbatchError::InvalidArgument(_))),
        "{got:?}"
    );
    assert_eq!(bits(&work), bits(&mats), "potrf moved a matrix");
    assert_eq!(info, vec![-7; sizes.len()]);

    let mut pivots: Vec<Vec<usize>> = (0..sizes.len()).map(|i| vec![i; 3]).collect();
    let got = getrf_batch_host(
        &engine,
        &sizes,
        &mut work,
        &indices,
        16,
        &mut HostState::new(),
        &mut info,
        &mut pivots,
    );
    assert!(
        matches!(got, Err(VbatchError::InvalidArgument(_))),
        "{got:?}"
    );
    assert_eq!(bits(&work), bits(&mats), "getrf moved a matrix");
    assert_eq!(info, vec![-7; sizes.len()]);
    assert_eq!(
        pivots,
        (0..sizes.len()).map(|i| vec![i; 3]).collect::<Vec<_>>()
    );
}

/// Cooperative run: bit-identical to device-only and host-only runs,
/// and its makespan beats both (the hybrid headline claim, pinned on a
/// deterministic modeled host).
#[test]
fn hybrid_is_bit_identical_and_faster_than_either_side() {
    let (sizes, mats) = spd_workload(0xC0FFEE, 160, 256);
    let shard_opts = ShardOpts::default();
    let opts = PotrfOptions::default();
    let host_model = HostCostModel::with_measured_gflops(25.0, 4);

    // Device-only.
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 1);
    let mut state = ShardedState::new();
    let mut dev_mats = mats.clone();
    let dev_report = potrf_sharded(
        &group,
        &sizes,
        &mut dev_mats,
        &opts,
        &shard_opts,
        &mut state,
    )
    .expect("sharded potrf");
    assert!(dev_report.host.is_none());

    // Host-only (same normalized options as the hybrid run uses).
    let norm = normalized_options::<f64>(
        group.device(0),
        &opts,
        sizes.iter().copied().max().unwrap_or(0),
    );
    let (host_mats, host_info) = run_host_potrf(4, &sizes, &mats, &norm);
    let host_only_makespan: f64 = sizes.iter().map(|&n| host_model.matrix_cost_s(n)).sum();

    // Cooperative.
    let group2 = DeviceGroup::homogeneous(DeviceConfig::k40c(), 1);
    let engine = HostEngine::with_threads(4);
    let mut state2 = ShardedState::new();
    let mut host_state = HostState::new();
    let mut coop_mats = mats.clone();
    let coop = potrf_hybrid(
        &group2,
        &engine,
        &host_model,
        &sizes,
        &mut coop_mats,
        &opts,
        &shard_opts,
        &mut state2,
        &mut host_state,
    )
    .expect("hybrid potrf");

    // Bit-identity across all three placements.
    assert_eq!(dev_report.info, coop.info);
    assert_eq!(host_info, coop.info);
    assert_bits_equal(&dev_mats, &coop_mats, "hybrid vs device-only");
    assert_bits_equal(&host_mats, &coop_mats, "hybrid vs host-only");

    // The host peer did real work, and cooperation beat both
    // single-resource makespans.
    let host = coop.host.expect("hybrid report carries host stats");
    assert!(host.matrices > 0, "host peer should take work");
    assert!(host.matrices < sizes.len(), "devices should keep work too");
    assert!(
        coop.makespan_s < dev_report.makespan_s,
        "cooperative {} !< sim-only {}",
        coop.makespan_s,
        dev_report.makespan_s
    );
    assert!(
        coop.makespan_s < host_only_makespan,
        "cooperative {} !< host-only {}",
        coop.makespan_s,
        host_only_makespan
    );
    // Energy accounting includes the host peer.
    assert!(host.energy_j > 0.0);
    assert!(coop.energy_j > host.energy_j);
}

/// Hybrid runs are deterministic: same inputs, same report figures.
#[test]
fn hybrid_is_deterministic() {
    let (sizes, mats) = spd_workload(0xDE7, 64, 192);
    let host_model = HostCostModel::default_for_threads(2);
    let mut runs = Vec::new();
    for _ in 0..2 {
        let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 2);
        let engine = HostEngine::with_threads(2);
        let mut state = ShardedState::new();
        let mut host_state = HostState::new();
        let mut work = mats.clone();
        let report = potrf_hybrid(
            &group,
            &engine,
            &host_model,
            &sizes,
            &mut work,
            &PotrfOptions::default(),
            &ShardOpts::default(),
            &mut state,
            &mut host_state,
        )
        .expect("hybrid potrf");
        runs.push((work, report));
    }
    let (m0, r0) = &runs[0];
    let (m1, r1) = &runs[1];
    assert_bits_equal(m0, m1, "repeat run");
    assert_eq!(r0.info, r1.info);
    assert_eq!(r0.makespan_s.to_bits(), r1.makespan_s.to_bits());
    assert_eq!(r0.energy_j.to_bits(), r1.energy_j.to_bits());
    assert_eq!(r0.steals, r1.steals);
    assert_eq!(
        r0.host.expect("host stats").matrices,
        r1.host.expect("host stats").matrices
    );
}

/// The separated strategy has no host twin: hybrid must refuse instead
/// of silently changing bits.
#[test]
fn hybrid_rejects_separated_strategy() {
    // Order far above the fused crossover forces Strategy::Separated.
    let n = 700usize;
    let mut rng = seeded_rng(5);
    let sizes = vec![n];
    let mut mats = vec![spd_vec::<f64>(&mut rng, n)];
    let group = DeviceGroup::homogeneous(DeviceConfig::k40c(), 1);
    let engine = HostEngine::with_threads(1);
    let mut state = ShardedState::new();
    let mut host_state = HostState::new();
    let err = potrf_hybrid(
        &group,
        &engine,
        &HostCostModel::default_for_threads(1),
        &sizes,
        &mut mats,
        &PotrfOptions::default(),
        &ShardOpts::default(),
        &mut state,
        &mut host_state,
    );
    assert!(err.is_err(), "separated-strategy workload must be rejected");
}
