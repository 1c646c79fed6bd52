//! The host↔device transfer ledger of the Cholesky drivers and of a
//! serving window, checked exactly on the simulated clock.
//!
//! A driver sends a launch plan (the fused call's sorting permutation,
//! the separated call's live-grid block starts) only when its workspace
//! does not already hold it, and reads nothing back that the host mirror
//! of the sizes already knows. Each case resets the device's metrics,
//! runs one call, and requires the clock to equal, bit for bit, the
//! call's kernel timings plus `Device::transfer_seconds` of each
//! transfer, summed in the order the call makes them. Every case
//! launches each kernel once, so the profiler holds each launch's own
//! time.

use vbatch_core::{
    potrf_vbatched_max_ws, DriverWorkspace, FusedOpts, PotrfOptions, SepOpts, Strategy, VBatch,
};
use vbatch_dense::gen::{seeded_rng, spd_vec};
use vbatch_gpu_sim::{Device, DeviceConfig};
use vbatch_serve::{BatchService, Op, ServeConfig};

/// One clock event of a call.
enum Ev {
    /// A launch of the named kernel.
    Kernel(&'static str),
    /// A host↔device copy of this many bytes.
    Copy(usize),
}

/// The clock `events` add up to on `dev` (metrics reset before them),
/// after checking they name every launch and each kernel launched once.
fn ledger(dev: &Device, events: &[Ev]) -> f64 {
    let kernels = events.iter().filter(|e| matches!(e, Ev::Kernel(_))).count();
    assert_eq!(
        dev.launch_count(),
        kernels as u64,
        "launches outside the ledger"
    );
    events.iter().fold(0.0, |t, e| match *e {
        Ev::Kernel(name) => {
            let (launches, s) =
                dev.with_profiler(|p| p.get(name).map_or((0, 0.0), |e| (e.launches, e.time_s)));
            assert_eq!(launches, 1, "{name} must launch once");
            t + s
        }
        Ev::Copy(bytes) => t + dev.transfer_seconds(bytes),
    })
}

/// Matrices of orders `sizes`, seeded from `seed`.
fn spd(sizes: &[usize], seed: u64) -> Vec<Vec<f64>> {
    let mut rng = seeded_rng(seed);
    sizes.iter().map(|&n| spd_vec(&mut rng, n)).collect()
}

/// Uploads `mats` (uncharged), resets the device's metrics and runs one
/// Cholesky call on `ws`.
fn factor(
    dev: &Device,
    batch: &mut VBatch<f64>,
    mats: &[Vec<f64>],
    opts: &PotrfOptions,
    ws: &mut DriverWorkspace<f64>,
) {
    for (i, m) in mats.iter().enumerate() {
        batch.upload_matrix(i, m).unwrap();
    }
    dev.reset_metrics();
    let max_n = batch.max_cols();
    let report = potrf_vbatched_max_ws(dev, batch, max_n, opts, ws).unwrap();
    assert!(report.all_ok(), "{:?}", report.failures());
}

/// Fused calls below one panel of `nb = 32`: a single step launch.
#[test]
fn fused_calls_upload_their_permutation_only_when_it_changes() {
    let dev = Device::new(DeviceConfig::k40c());
    let opts = PotrfOptions {
        strategy: Strategy::Fused,
        fused: FusedOpts {
            nb: Some(32),
            batched_small: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let step = "dpotrf_fused_step";
    let ascending = [20usize, 24, 30];
    let descending = [30usize, 24, 20];
    let (up, down) = (spd(&ascending, 1), spd(&descending, 2));
    let mut a = VBatch::<f64>::alloc_square(&dev, &ascending).unwrap();
    let mut d = VBatch::<f64>::alloc_square(&dev, &descending).unwrap();
    let mut ws = DriverWorkspace::new();
    // Cold: the permutation goes down once; nothing comes back but
    // `info`.
    let uploads = [Ev::Copy(12), Ev::Kernel(step), Ev::Copy(12)];
    let resident = [Ev::Kernel(step), Ev::Copy(12)];
    factor(&dev, &mut a, &up, &opts, &mut ws);
    assert_eq!(dev.now(), ledger(&dev, &uploads), "cold call");
    // Warm, same shape: the device already holds the permutation.
    factor(&dev, &mut a, &up, &opts, &mut ws);
    assert_eq!(dev.now(), ledger(&dev, &resident), "repeated call");
    // A different permutation goes down once, then stays.
    factor(&dev, &mut d, &down, &opts, &mut ws);
    assert_eq!(dev.now(), ledger(&dev, &uploads), "new permutation");
    factor(&dev, &mut d, &down, &opts, &mut ws);
    assert_eq!(
        dev.now(),
        ledger(&dev, &resident),
        "repeated new permutation"
    );
    // A released workspace holds nothing: the next call uploads again.
    ws.release();
    factor(&dev, &mut d, &down, &opts, &mut ws);
    assert_eq!(dev.now(), ledger(&dev, &uploads), "after release");
}

/// Separated calls below one panel of `NB = 32`: the step-state update
/// and `potf2` launch once each, and the live-grid plan is four grids of
/// `count + 1` block starts.
#[test]
fn separated_calls_upload_their_live_grids_only_when_they_change() {
    let dev = Device::new(DeviceConfig::k40c());
    let opts = PotrfOptions {
        strategy: Strategy::Separated,
        sep: SepOpts {
            nb_panel: 32,
            nb_inner: 8,
        },
        ..Default::default()
    };
    let sizes = [20usize, 24, 30];
    let mats = spd(&sizes, 3);
    let mut batch = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    let mut ws = DriverWorkspace::new();
    let (aux, potf2) = (Ev::Kernel("vbatch_aux_step"), Ev::Kernel("dpotf2_vbatched"));
    let plan = Ev::Copy(4 * (sizes.len() + 1) * 4);
    factor(&dev, &mut batch, &mats, &opts, &mut ws);
    let cold = [plan, aux, potf2, Ev::Copy(12)];
    assert_eq!(dev.now(), ledger(&dev, &cold), "cold call");
    factor(&dev, &mut batch, &mats, &opts, &mut ws);
    assert_eq!(dev.now(), ledger(&dev, &cold[1..]), "repeated call");
}

/// A warm serving window pays its payload up, `info` down and the
/// factors down, and nothing else: the service builds the batch in size
/// order, so the driver's permutation is the identity the workspace
/// holds from the window before.
#[test]
fn warm_serving_window_charges_three_transfers() {
    let cfg = ServeConfig {
        max_window: 3,
        ..Default::default()
    };
    let mut svc = BatchService::<f64>::new(Device::new(cfg.device.clone()), cfg);
    let window = |svc: &mut BatchService<f64>, t_s: f64, sizes: &[usize], seed: u64| {
        for (n, m) in sizes.iter().zip(spd(sizes, seed)) {
            svc.submit(t_s, 0, Op::Potrf, *n, m, None).unwrap();
        }
        assert_eq!(svc.take_responses().len(), sizes.len(), "one full window");
    };
    window(&mut svc, 0.0, &[8, 6, 7], 4);
    svc.device().reset_metrics();
    // Arrivals out of order; the service sorts them.
    let sizes = [7usize, 8, 6];
    window(&mut svc, 1.0, &sizes, 5);
    let payload: usize = sizes.iter().map(|n| n * n * 8).sum();
    let events = [
        Ev::Copy(payload),
        Ev::Kernel("dpotrf_ilv_batch"),
        Ev::Copy(12),
        Ev::Copy(payload),
    ];
    let dev = svc.device();
    assert_eq!(dev.now(), ledger(dev, &events));
}
