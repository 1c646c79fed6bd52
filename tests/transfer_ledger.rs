//! The host↔device transfer ledger of the Cholesky, LU and QR drivers
//! and of serving windows, checked exactly on the simulated clock.
//!
//! A driver sends a launch plan (the fused call's sorting permutation,
//! the separated call's live-grid block starts, the LU/QR launch order)
//! only when its workspace does not already hold it, and reads nothing
//! back that the host mirror of the sizes already knows. Each case resets the device's metrics,
//! runs one call, and requires the clock to equal, bit for bit, the
//! call's kernel timings plus `Device::transfer_seconds` of each
//! transfer, summed in the order the call makes them. Every case
//! launches each kernel once, so the profiler holds each launch's own
//! time.

use vbatch_core::qr::{geqrf_vbatched_ws, GeqrfOptions};
use vbatch_core::{
    getrf_vbatched_ws, potrf_vbatched_max_ws, DriverWorkspace, FusedOpts, GetrfOptions,
    PotrfOptions, SepOpts, Strategy, VBatch,
};
use vbatch_dense::gen::{rand_mat, seeded_rng, spd_vec};
use vbatch_gpu_sim::{Device, DeviceConfig};
use vbatch_serve::{BatchService, Op, ServeConfig};

/// One clock event of a call.
#[derive(Clone, Copy)]
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

/// LU and QR calls below one panel (orders up to 30 at `nb` 64 and
/// 32): one panel launch each, no trailing update. The launch order of
/// orders `[20, 30, 24]` is `[1, 2, 0]` for the square LU batch and for
/// the `2n × n` QR batch alike, so one upload serves both.
#[test]
fn lu_and_qr_upload_their_launch_order_only_when_it_changes() {
    let dev = Device::new(DeviceConfig::k40c());
    let sizes = [20usize, 30, 24];
    let count = sizes.len();
    let mut rng = seeded_rng(6);
    let square: Vec<Vec<f64>> = sizes.iter().map(|&n| rand_mat(&mut rng, n * n)).collect();
    let tall_dims: Vec<(usize, usize)> = sizes.iter().map(|&n| (2 * n, n)).collect();
    let tall: Vec<Vec<f64>> = sizes
        .iter()
        .map(|&n| rand_mat(&mut rng, 2 * n * n))
        .collect();
    let mut lu = VBatch::<f64>::alloc_square(&dev, &sizes).unwrap();
    let mut qr = VBatch::<f64>::alloc(&dev, &tall_dims).unwrap();
    let mut ws = DriverWorkspace::new();
    let mut getrf = |ws: &mut DriverWorkspace<f64>| {
        for (i, m) in square.iter().enumerate() {
            lu.upload_matrix(i, m).unwrap();
        }
        dev.reset_metrics();
        let (report, _) = getrf_vbatched_ws(&dev, &mut lu, &GetrfOptions::default(), ws).unwrap();
        assert!(report.all_ok());
    };
    let (order, info) = (Ev::Copy(4 * count), Ev::Copy(4 * count));
    let getf2 = Ev::Kernel("dgetf2_vbatched");
    // Cold: the order goes down once; `info` comes back.
    getrf(&mut ws);
    assert_eq!(dev.now(), ledger(&dev, &[order, getf2, info]), "cold getrf");
    getrf(&mut ws);
    assert_eq!(dev.now(), ledger(&dev, &[getf2, info]), "repeated getrf");
    // QR of the same orders finds the order resident, and pays its
    // `info` read like every driver.
    for (i, m) in tall.iter().enumerate() {
        qr.upload_matrix(i, m).unwrap();
    }
    dev.reset_metrics();
    let (report, _) = geqrf_vbatched_ws(&dev, &mut qr, &GeqrfOptions::default(), &mut ws).unwrap();
    assert!(report.all_ok());
    let geqr2 = Ev::Kernel("dgeqr2_vbatched");
    assert_eq!(dev.now(), ledger(&dev, &[geqr2, info]), "geqrf after getrf");
    // A released workspace holds nothing: the next call uploads again.
    ws.release();
    getrf(&mut ws);
    assert_eq!(
        dev.now(),
        ledger(&dev, &[order, getf2, info]),
        "after release"
    );
}

/// Runs one full serving window of `op` requests of orders `sizes`,
/// arriving in that order at `t_s`.
fn serve_window(svc: &mut BatchService<f64>, t_s: f64, op: Op, sizes: &[usize], seed: u64) {
    let mats = match op {
        Op::Potrf => spd(sizes, seed),
        Op::Getrf => {
            let mut rng = seeded_rng(seed);
            sizes.iter().map(|&n| rand_mat(&mut rng, n * n)).collect()
        }
    };
    for (n, m) in sizes.iter().zip(mats) {
        svc.submit(t_s, 0, op, *n, m, None).unwrap();
    }
    assert_eq!(svc.take_responses().len(), sizes.len(), "one full window");
}

/// A warm serving window pays its payload up, `info` down and the
/// factors (with an LU window's pivots) down, and nothing else: the
/// service builds the batch in the driver's own order (ascending for
/// Cholesky, largest first for LU), so the driver's permutation or
/// launch order is the identity the workspace holds from the window
/// before.
#[test]
fn warm_serving_window_charges_three_transfers() {
    let cfg = ServeConfig {
        max_window: 3,
        ..Default::default()
    };
    let mut svc = BatchService::<f64>::new(Device::new(cfg.device.clone()), cfg);
    // Arrivals out of order; the service sorts them.
    let sizes = [7usize, 8, 6];
    let payload: usize = sizes.iter().map(|n| n * n * 8).sum();
    let pivots: usize = sizes.iter().map(|n| n * 4).sum();
    for (t_s, op, kernel, down) in [
        (0.0, Op::Potrf, "dpotrf_ilv_batch", payload),
        (2.0, Op::Getrf, "dgetf2_vbatched", payload + pivots),
    ] {
        serve_window(&mut svc, t_s, op, &[8, 6, 7], 4);
        svc.device().reset_metrics();
        serve_window(&mut svc, t_s + 1.0, op, &sizes, 5);
        let events = [
            Ev::Copy(payload),
            Ev::Kernel(kernel),
            Ev::Copy(12),
            Ev::Copy(down),
        ];
        let dev = svc.device();
        assert_eq!(dev.now(), ledger(dev, &events), "{op:?}");
    }
}
