//! Multi-device sharding of a vbatched workload: cost-balanced shard
//! planning, size-aware work-stealing, and upload/compute/download
//! overlap across a [`DeviceGroup`].
//!
//! The scheduler takes a host-side workload (sizes plus column-major
//! matrices), cuts the *size-sorted* index order into cost-balanced
//! shards using the simulator's own [`BlockCost`] arithmetic, and
//! dispatches each shard through the existing zero-alloc `_ws` driver
//! entry points, one [`crate::workspace::DriverWorkspace`] and one
//! [`BatchPools`] bundle per device. Transfers are accounted on a
//! per-device [`CopyComputeTimeline`] (one H2D engine, one compute
//! engine, one D2H engine), so the upload of shard *i+1* overlaps the
//! compute of shard *i*; the stall time the pipeline adds beyond pure
//! compute is charged to each device's clock at idle activity.
//!
//! # Determinism and bit-identity
//!
//! Results must be bit-identical across 1/2/4/8-device runs of the same
//! workload. Two driver defaults are composition-dependent and are
//! therefore pinned up front by [`normalized_options`]:
//!
//! * the fused blocking `nb` autotunes from the *batch* maximum — pinned
//!   to the global workload maximum;
//! * the sorting-window width derives from the *batch count* — pinned to
//!   the interleave cutoff, so a window routes to the batched-small
//!   kernel **iff** every member is at or below the cutoff, a pure
//!   function of each matrix's own size.
//!
//! With those pinned, per-matrix arithmetic depends only on the matrix's
//! own order and the fixed blocking (the same property the OOM
//! window-splitting ladder relies on), so neither shard membership nor
//! work-stealing can perturb a single bit. Scheduling decisions key on
//! simulated time and plain ordered containers — no host clocks, no
//! hashing (`clippy.toml` bans both).
//!
//! Heterogeneous groups are supported (devices may differ in clock or
//! SM count), with one caveat for the *fused* strategy: feasibility and
//! `nb` are resolved against device 0, so devices must agree on the
//! kernel-relevant limits (shared memory per block) for the pinned
//! options to be valid group-wide.

use vbatch_dense::{flops, Scalar};
use vbatch_gpu_sim::occupancy::Limiter;
use vbatch_gpu_sim::sched::block_service_cycles;
use vbatch_gpu_sim::{
    BlockCost, CopyComputeTimeline, Device, DeviceConfig, DeviceGroup, DevicePtr, Occupancy,
};

use crate::batch::{extent, BatchPools};
use crate::driver::{potrf_vbatched_max_ws, resolve_strategy, PotrfOptions, Strategy};
use crate::fused::tuned_nb;
use crate::host::{potrf_batch_host, HostCostModel, HostEngine, HostState};
use crate::lu::{getrf_vbatched_pooled, GetrfOptions, PivotArray};
use crate::recover::{
    fault_events_start, finish_recovery, with_retry, RecoveryPolicy, RecoveryReport,
};
use crate::report::{BatchReport, VbatchError};
use crate::workspace::DriverWorkspace;
use crate::VBatch;

/// Scheduling knobs for the sharded drivers.
#[derive(Clone, Copy, Debug)]
pub struct ShardOpts {
    /// Shards cut per device: depth ≥ 2 enables transfer/compute
    /// overlap (double buffering); more shards improve steal
    /// granularity at the cost of more launches.
    pub shards_per_device: usize,
    /// Rebalance via work-stealing when a device drains its queue.
    pub steal: bool,
}

impl Default for ShardOpts {
    fn default() -> Self {
        Self {
            shards_per_device: 3,
            steal: true,
        }
    }
}

/// One planned shard: a set of global matrix indices, its planned home
/// device and its modeled cost.
#[derive(Clone, Debug, Default)]
pub struct Shard {
    /// Planned home device (execution may steal it elsewhere).
    pub home: usize,
    /// Global indices of the workload's matrices, size-descending.
    pub indices: Vec<usize>,
    /// Modeled simulated-seconds cost ([`matrix_cost_s`] sum).
    pub cost_s: f64,
}

/// Per-device pooled state: the sharded drivers keep one per device of
/// the group, a single-device caller (the serving front end) one for
/// its device. Reusing one across calls makes warm runs
/// zero-device-alloc. Construction allocates no device memory.
pub struct DeviceState<T> {
    /// Driver scratch (window index uploads, LU step views, …).
    pub ws: DriverWorkspace<T>,
    /// Batch storage pools (matrices, metadata, pointer arrays).
    pub pools: BatchPools<T>,
    /// Pooled LU pivot storage.
    pub pivots: Option<PivotArray>,
}

impl<T: Scalar> Default for DeviceState<T> {
    fn default() -> Self {
        Self {
            ws: DriverWorkspace::new(),
            pools: BatchPools::new(),
            pivots: None,
        }
    }
}

/// Pooled state for every device of a group.
#[derive(Default)]
pub struct ShardedState<T> {
    /// Index-aligned with the group's devices.
    pub devices: Vec<DeviceState<T>>,
}

impl<T: Scalar> ShardedState<T> {
    /// Empty state; grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            devices: Vec::new(),
        }
    }

    fn ensure(&mut self, n: usize) -> &mut [DeviceState<T>] {
        while self.devices.len() < n {
            self.devices.push(DeviceState::default());
        }
        &mut self.devices[..n]
    }
}

/// Per-device execution record of one sharded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeviceShardStats {
    /// Device index within the group.
    pub device: usize,
    /// Shards this device executed.
    pub shards: usize,
    /// Of those, shards stolen from another device's queue.
    pub stolen: u32,
    /// Matrices factorized here.
    pub matrices: usize,
    /// Useful flops of those factorizations.
    pub flops: f64,
    /// Compute-engine busy seconds (driver time, launches included).
    pub compute_s: f64,
    /// Pipelined end-to-end seconds (transfer stalls included).
    pub pipeline_s: f64,
    /// Fraction of this device's transfer time hidden behind compute.
    pub overlap_efficiency: f64,
    /// Pool high-water mark, bytes checked out at once.
    pub pool_high_water_bytes: usize,
}

/// Execution record of the host peer in a hybrid run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostPeerReport {
    /// Worker threads the host engine ran with.
    pub threads: usize,
    /// Shards the host executed.
    pub shards: usize,
    /// Of those, shards stolen from a device queue.
    pub stolen: u32,
    /// Matrices factorized on the host.
    pub matrices: usize,
    /// Useful flops of those factorizations.
    pub flops: f64,
    /// Modeled host busy seconds ([`HostCostModel`] charge).
    pub busy_s: f64,
    /// Modeled host energy (busy at max power, wait at idle power).
    pub energy_j: f64,
}

/// Merged result of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// Per-matrix `info`, in the caller's (global) order.
    pub info: Vec<i32>,
    /// Recovery actions merged across shards, quarantine indices
    /// remapped to global order, injections concatenated in execution
    /// order per device.
    pub recovery: RecoveryReport,
    /// Group time-to-solution (slowest device, after the barrier).
    pub makespan_s: f64,
    /// Group energy-to-solution (sum over devices, idle waits charged).
    pub energy_j: f64,
    /// Shards executed away from their planned home.
    pub steals: u32,
    /// Group-aggregate fraction of transfer time hidden by overlap.
    pub overlap_efficiency: f64,
    /// Per-device execution records.
    pub per_device: Vec<DeviceShardStats>,
    /// Host-peer record; `Some` only for [`potrf_hybrid`] runs.
    pub host: Option<HostPeerReport>,
}

/// Modeled factorization cost of one `n × n` matrix on `cfg`, in
/// simulated seconds: the matrix's warp-padded flop and memory traffic
/// as one synthetic [`BlockCost`] serviced at single-block occupancy —
/// the same arithmetic [`block_service_cycles`] charges real launches
/// with. Only *relative* accuracy matters (the plan balances shares);
/// the event loop rebalances any residual error by stealing.
#[must_use]
pub fn matrix_cost_s<T: Scalar>(cfg: &DeviceConfig, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    let warp = cfg.warp_size as usize;
    let padded = n.div_ceil(warp) * warp;
    let warps = (padded / warp) as u32;
    let useful = flops::potrf(n);
    let exec = useful * padded as f64 / n as f64;
    let bytes = (n * n * std::mem::size_of::<T>()) as f64;
    let mut cost = BlockCost {
        gmem_read_bytes: bytes,
        gmem_write_bytes: bytes / 2.0,
        syncs: n.div_ceil(8) as u64,
        launched_warps: warps,
        resident_warps: warps,
        active_warps: warps,
        ..BlockCost::default()
    };
    if T::IS_DOUBLE {
        cost.dp_flops_exec = exec;
        cost.dp_flops_useful = useful;
    } else {
        cost.sp_flops_exec = exec;
        cost.sp_flops_useful = useful;
    }
    let occ = Occupancy {
        blocks_per_sm: 1,
        warps_per_sm: warps,
        limiter: Limiter::Blocks,
    };
    block_service_cycles(cfg, &occ, &cost) * cfg.cycle_s()
}

/// Cuts the size-sorted workload into `devices · shards_per_device`
/// cost-balanced shards and assigns them to devices greedily (largest
/// shard to the least-loaded device). Shards are contiguous runs of the
/// size-descending order, so each shard's sizes are as uniform as the
/// workload allows — the sharded analogue of implicit sorting.
#[must_use]
pub fn plan_shards<T: Scalar>(
    cfg: &DeviceConfig,
    sizes: &[usize],
    devices: usize,
    shards_per_device: usize,
) -> Vec<Shard> {
    plan_peers::<T>(cfg, None, sizes, devices, shards_per_device)
}

/// The one shard planner: cuts `peers · shards_per_device` shards and
/// assigns each, in cut order, to the peer with the earliest projected
/// finish time (greedy LPT; ties break on the lower peer index). Device
/// peers are costed by the device model (`Shard::cost_s`); a `host`
/// peer, index `devices`, by its own model — heterogeneous LPT, so a
/// slow host takes few (or zero) shards and a fast one its fair share.
fn plan_peers<T: Scalar>(
    cfg: &DeviceConfig,
    host: Option<&HostCostModel>,
    sizes: &[usize],
    devices: usize,
    shards_per_device: usize,
) -> Vec<Shard> {
    let devices = devices.max(1);
    let n_peers = devices + usize::from(host.is_some());
    let mut shards = cut_shards::<T>(cfg, sizes, n_peers * shards_per_device.max(1));
    let mut load = vec![0.0f64; n_peers];
    for shard in &mut shards {
        let host_cost = host.map(|h| h.shard_cost_s(sizes, &shard.indices));
        let cost = |p: usize| match host_cost {
            Some(c) if p == devices => c,
            _ => shard.cost_s,
        };
        // Without a host every peer costs the shard the same, so the
        // loads alone order them; adding the cost could round two
        // distinct loads into a tie.
        let finish = |p: usize| {
            if host.is_some() {
                load[p] + cost(p)
            } else {
                load[p]
            }
        };
        let home = (0..n_peers)
            .min_by(|&a, &b| finish(a).total_cmp(&finish(b)).then(a.cmp(&b)))
            .unwrap_or(0);
        load[home] += cost(home);
        shard.home = home;
    }
    shards
}

/// Cuts the size-sorted workload into `want` cost-balanced contiguous
/// shards (home unassigned, device-model costs).
fn cut_shards<T: Scalar>(cfg: &DeviceConfig, sizes: &[usize], want: usize) -> Vec<Shard> {
    // Size-descending, index-ascending: deterministic for equal sizes.
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
    let costs: Vec<f64> = sizes.iter().map(|&n| matrix_cost_s::<T>(cfg, n)).collect();
    let total: f64 = costs.iter().sum();

    // Contiguous cut of the sorted order; the per-shard cost target is
    // recomputed from what remains, so an overshoot on one shard (a
    // single huge matrix) shrinks the following shards instead of
    // starving the last ones.
    let mut shards: Vec<Shard> = Vec::with_capacity(want);
    let mut current: Vec<usize> = Vec::new();
    let mut acc = 0.0;
    let mut remaining = total;
    for (pos, &idx) in order.iter().enumerate() {
        current.push(idx);
        acc += costs[idx];
        remaining -= costs[idx];
        let remaining_shards = want - shards.len() - 1;
        let target = (acc + remaining) / (remaining_shards + 1) as f64;
        let remaining_items = order.len() - pos - 1;
        if remaining_shards > 0 && acc >= target && remaining_items >= 1 {
            shards.push(Shard {
                home: 0,
                indices: std::mem::take(&mut current),
                cost_s: acc,
            });
            acc = 0.0;
        }
    }
    if !current.is_empty() {
        shards.push(Shard {
            home: 0,
            indices: current,
            cost_s: acc,
        });
    }
    shards
}

/// Options normalized for composition-independent results: `nb` and
/// strategy pinned against the *global* workload maximum, the window
/// width to the interleave cutoff (see the module docs).
#[must_use]
pub fn normalized_options<T: Scalar>(
    dev: &Device,
    opts: &PotrfOptions,
    global_max: usize,
) -> PotrfOptions {
    let mut norm = *opts;
    let nb = norm
        .fused
        .nb
        .unwrap_or_else(|| tuned_nb::<T>(dev, global_max.max(1)));
    norm.fused.nb = Some(nb);
    norm.strategy = resolve_strategy::<T>(dev, &norm, global_max, nb);
    norm.fused.window_width = Some(norm.fused.resolved_interleave_cutoff::<T>().max(1));
    norm
}

/// One peer's account of a shard execution, in seconds: the peer's
/// pipeline is advanced by `upload_s → compute_s → download_s`. A host
/// peer moves nothing over PCIe (it factorizes the caller's matrices in
/// place) and reports zero transfer phases.
struct PeerIo {
    upload_s: f64,
    compute_s: f64,
    download_s: f64,
    flops: f64,
}

/// Outcome of the event loop, before aggregation. Entries are indexed
/// by *peer*; in a hybrid run the last peer is the host.
struct DriveStats {
    timelines: Vec<CopyComputeTimeline>,
    per_device: Vec<DeviceShardStats>,
    steals: u32,
}

/// The deterministic event loop over `n_peers` peers: repeatedly gives
/// the next shard to the peer whose pipeline frees up first (ties to
/// the lower index). A peer with an empty queue steals the
/// largest-cost pending shard from the most-loaded queue — size-aware
/// stealing over whole shards, so placement never changes what is
/// computed, only where. Peers are abstract here: `run_one(peer,
/// shard)` executes the shard and accounts its phases.
fn drive_peers<F>(
    n_peers: usize,
    mut shards: Vec<Shard>,
    steal: bool,
    mut run_one: F,
) -> Result<DriveStats, VbatchError>
where
    F: FnMut(usize, &Shard) -> Result<PeerIo, VbatchError>,
{
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); n_peers];
    for (sid, shard) in shards.iter().enumerate() {
        queues[shard.home].push(sid);
    }
    // Queue order: descending planned cost, deterministic.
    for q in &mut queues {
        q.sort_by(|&a, &b| {
            shards[a]
                .cost_s
                .total_cmp(&shards[b].cost_s)
                .reverse()
                .then(a.cmp(&b))
        });
    }

    let mut timelines = vec![CopyComputeTimeline::new(); n_peers];
    let mut per_device: Vec<DeviceShardStats> = (0..n_peers)
        .map(|d| DeviceShardStats {
            device: d,
            ..DeviceShardStats::default()
        })
        .collect();
    let mut steals = 0u32;

    loop {
        if queues.iter().all(Vec::is_empty) {
            break;
        }
        // Next peer: earliest-free pipeline among those that can get
        // work (own queue, or anyone's when stealing is on).
        let Some(d) = (0..n_peers)
            .filter(|&d| !queues[d].is_empty() || steal)
            .min_by(|&a, &b| {
                timelines[a]
                    .total_s()
                    .total_cmp(&timelines[b].total_s())
                    .then(a.cmp(&b))
            })
        else {
            break;
        };
        let (sid, stolen) = if let Some(&sid) = queues[d].first() {
            queues[d].remove(0);
            (sid, false)
        } else {
            // Steal victim: the queue with the most pending cost.
            let Some(v) = (0..n_peers)
                .filter(|&v| !queues[v].is_empty())
                .max_by(|&a, &b| {
                    let ca: f64 = queues[a].iter().map(|&s| shards[s].cost_s).sum();
                    let cb: f64 = queues[b].iter().map(|&s| shards[s].cost_s).sum();
                    ca.total_cmp(&cb).then(b.cmp(&a))
                })
            else {
                break;
            };
            (queues[v].remove(0), true)
        };
        if stolen {
            steals += 1;
            per_device[d].stolen += 1;
        }
        let shard = std::mem::take(&mut shards[sid]);
        let io = run_one(d, &shard)?;
        timelines[d].push(io.upload_s, io.compute_s, io.download_s);
        per_device[d].shards += 1;
        per_device[d].matrices += shard.indices.len();
        per_device[d].compute_s += io.compute_s;
        per_device[d].flops += io.flops;
    }
    Ok(DriveStats {
        timelines,
        per_device,
        steals,
    })
}

/// Aggregates the event loop's outcome into the merged report, after
/// charging the devices' pipeline stalls. With a `host` peer (a hybrid
/// run) the last peer entry of `stats` is the host: devices are pulled
/// to the *overall* makespan (idle-power waits), host energy is charged
/// through the cost model, and the host record lands in
/// [`ShardedReport::host`].
fn finalize<T: Scalar>(
    group: &DeviceGroup,
    host: Option<(&HostEngine, &HostCostModel)>,
    w: Workload<'_, T>,
    state: &ShardedState<T>,
    mut stats: DriveStats,
) -> ShardedReport {
    let n_dev = group.len();
    // Each device's pipeline stalls (time beyond pure compute) land on
    // its clock at idle activity.
    for d in 0..n_dev {
        let t = &stats.timelines[d];
        let extra = t.total_s() - t.compute_busy_s();
        if extra > 0.0 {
            group.device(d).advance_time(extra, 0.0);
        }
        stats.per_device[d].pipeline_s = t.total_s();
        stats.per_device[d].overlap_efficiency = t.overlap_efficiency();
    }
    let Workload {
        info, mut recovery, ..
    } = w;
    recovery.quarantined.sort_unstable();
    let mut makespan_s = group.barrier();
    let host = host.map(|(engine, host_model)| {
        let rec = stats.per_device.remove(n_dev);
        let timeline = stats.timelines.remove(n_dev);
        let busy_s = timeline.compute_busy_s();
        makespan_s = makespan_s.max(timeline.total_s());
        // Devices that beat the host wait for it at idle power.
        for d in group.devices() {
            let wait = makespan_s - d.now();
            if wait > 0.0 {
                d.advance_time(wait, 0.0);
            }
        }
        HostPeerReport {
            threads: engine.threads(),
            shards: rec.shards,
            stolen: rec.stolen,
            matrices: rec.matrices,
            flops: rec.flops,
            busy_s,
            energy_j: host_model.energy_j(busy_s, makespan_s - busy_s),
        }
    });
    let hidden: f64 = stats
        .timelines
        .iter()
        .map(|t| (t.serial_s() - t.total_s()).max(0.0))
        .sum();
    let transfer: f64 = stats
        .timelines
        .iter()
        .map(CopyComputeTimeline::transfer_busy_s)
        .sum();
    let overlap_efficiency = if transfer > 0.0 {
        (hidden / transfer).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let mut per_device = stats.per_device;
    for (d, rec) in per_device.iter_mut().enumerate() {
        rec.pool_high_water_bytes = state.devices[d].pools.high_water_bytes();
    }
    ShardedReport {
        info,
        recovery,
        makespan_s,
        energy_j: group.total_energy_j() + host.as_ref().map_or(0.0, |h| h.energy_j),
        steals: stats.steals,
        overlap_efficiency,
        per_device,
        host,
    }
}

/// The caller's arrays, in global order, that every shard execution
/// reads its matrices from and merges its results back into, with the
/// merged per-matrix `info` and recovery record.
struct Workload<'a, T> {
    sizes: &'a [usize],
    mats: &'a mut [Vec<T>],
    info: Vec<i32>,
    recovery: RecoveryReport,
}

/// Wraps the caller's arrays, rejecting `mats` that disagree with
/// `sizes`.
fn workload<'a, T>(
    sizes: &'a [usize],
    mats: &'a mut [Vec<T>],
) -> Result<Workload<'a, T>, VbatchError> {
    if mats.len() != sizes.len() {
        return Err(VbatchError::InvalidArgument(
            "sharded drivers: sizes and mats must have the same length",
        ));
    }
    if sizes
        .iter()
        .zip(mats.iter())
        .any(|(&n, m)| m.len() != extent(n, n, n))
    {
        return Err(VbatchError::InvalidArgument(
            "sharded drivers: mats[i] must hold sizes[i]² elements",
        ));
    }
    Ok(Workload {
        sizes,
        mats,
        info: vec![0; sizes.len()],
        recovery: RecoveryReport::default(),
    })
}

/// Multi-device variable-size batched Cholesky: shards `mats` (global
/// order, column-major, `mats[i].len() == sizes[i]²`) across the group,
/// factorizes in place, and merges per-matrix `info` plus recovery
/// state back into global order. Factors and `info` are bit-identical
/// for any group size (see the module docs); per-matrix flop accounting
/// and energy land on the device that executed the shard.
///
/// # Errors
/// [`VbatchError::InvalidArgument`] when `mats` disagrees with `sizes`;
/// otherwise as the single-device driver. On error, matrices of
/// already-completed shards have been overwritten with their factors.
pub fn potrf_sharded<T: Scalar>(
    group: &DeviceGroup,
    sizes: &[usize],
    mats: &mut [Vec<T>],
    opts: &PotrfOptions,
    shard_opts: &ShardOpts,
    state: &mut ShardedState<T>,
) -> Result<ShardedReport, VbatchError> {
    potrf_peers(group, None, sizes, mats, opts, shard_opts, state)
}

/// The host peer of a hybrid run: its engine, its cost model and its
/// pooled scheduling state.
type HostPeer<'a, T> = (&'a HostEngine, &'a HostCostModel, &'a mut HostState<T>);

/// The body of [`potrf_sharded`] and, with a `host` peer (index
/// `group.len()`), of [`potrf_hybrid`].
fn potrf_peers<T: Scalar>(
    group: &DeviceGroup,
    mut host: Option<HostPeer<'_, T>>,
    sizes: &[usize],
    mats: &mut [Vec<T>],
    opts: &PotrfOptions,
    shard_opts: &ShardOpts,
    state: &mut ShardedState<T>,
) -> Result<ShardedReport, VbatchError> {
    let mut w = workload(sizes, mats)?;
    let global_max = sizes.iter().copied().max().unwrap_or(0);
    let norm = normalized_options::<T>(group.device(0), opts, global_max);
    if host.is_some() && norm.strategy != Strategy::Fused {
        return Err(VbatchError::InvalidArgument(
            "potrf_hybrid: cooperative execution requires the fused strategy \
             (host and device share the fused kernels; the separated path has \
             no bit-identical host twin)",
        ));
    }
    let n_dev = group.len();
    let shards = plan_peers::<T>(
        group.device(0).config(),
        host.as_ref().map(|&(_, model, _)| model),
        sizes,
        n_dev,
        shard_opts.shards_per_device,
    );

    let devices = state.ensure(n_dev);
    // Shards land by simulated time, so a call's schedule must not hang
    // on plans an earlier call left resident: every device starts with
    // none, and a repeated call repeats its schedule (and with it every
    // pooled buffer's high-water mark).
    for dstate in devices.iter_mut() {
        dstate.ws.forget_plans();
    }
    let n_peers = n_dev + usize::from(host.is_some());
    let stats = drive_peers(n_peers, shards, shard_opts.steal, |p, shard| {
        if p < n_dev {
            return run_shard_on_device(
                group.device(p),
                &mut devices[p],
                shard,
                &mut w,
                &norm.recovery,
                flops::potrf,
                |dev, vb, dstate| {
                    let shard_max = vb.max_rows();
                    potrf_vbatched_max_ws(dev, vb, shard_max, &norm, &mut dstate.ws).map(|r| (r, 0))
                },
            );
        }
        let (engine, host_model, host_state) = host.as_mut().expect("peer n_dev is the host");
        let flops = potrf_batch_host(
            engine,
            sizes,
            w.mats,
            &shard.indices,
            &norm,
            host_state,
            &mut w.info,
        )?;
        Ok(PeerIo {
            upload_s: 0.0,
            compute_s: host_model.shard_cost_s(sizes, &shard.indices),
            download_s: 0.0,
            flops,
        })
    })?;
    let host = host.map(|(engine, host_model, _)| (engine, host_model));
    Ok(finalize(group, host, w, state, stats))
}

/// Executes one shard on a device peer: pooled batch build, upload,
/// `factor` (the driver call; it returns its report and the bytes of
/// any side output it downloads), download, recovery merge. Compute is
/// the device clock's advance over all of it, and the payload bytes go
/// through the device's PCIe model (anything the driver charges itself
/// — info readback, index uploads — is already in the compute time).
/// `matrix_flops` is the useful flop count of one order-`n`
/// factorization.
fn run_shard_on_device<T: Scalar>(
    dev: &Device,
    dstate: &mut DeviceState<T>,
    shard: &Shard,
    w: &mut Workload<'_, T>,
    pol: &RecoveryPolicy,
    matrix_flops: fn(usize) -> f64,
    factor: impl FnOnce(
        &Device,
        &mut VBatch<T>,
        &mut DeviceState<T>,
    ) -> Result<(BatchReport, usize), VbatchError>,
) -> Result<PeerIo, VbatchError> {
    let t0 = dev.now();
    let shard_sizes: Vec<usize> = shard.indices.iter().map(|&gi| w.sizes[gi]).collect();
    let ev_start = fault_events_start(dev);
    // Injected OOMs while the pools refill recover locally, like the
    // driver's own workspace allocations.
    let mut vb = with_retry(dev, pol, &mut w.recovery, || {
        VBatch::<T>::alloc_square_pooled(dev, &shard_sizes, &mut dstate.pools)
    })?;
    let mut upload_bytes = shard.indices.len() * (3 * 4 + std::mem::size_of::<DevicePtr<T>>());
    for (k, &gi) in shard.indices.iter().enumerate() {
        vb.upload_matrix(k, &w.mats[gi])?;
        upload_bytes += w.mats[gi].len() * std::mem::size_of::<T>();
    }
    let (report, mut download_bytes) = factor(dev, &mut vb, dstate)?;
    // The shard's injections are the device log since the shard began:
    // the batch build's, then the driver's own.
    let report = finish_recovery(dev, ev_start, report.recovery, report.info);
    for (k, &gi) in shard.indices.iter().enumerate() {
        vb.download_matrix_into(k, &mut w.mats[gi]);
        download_bytes += w.mats[gi].len() * std::mem::size_of::<T>();
        w.info[gi] = report.info[k];
    }
    w.recovery.absorb(&report.recovery, |k| shard.indices[k]);
    vb.reclaim(&mut dstate.pools);
    Ok(PeerIo {
        upload_s: dev.transfer_seconds(upload_bytes),
        compute_s: dev.now() - t0,
        download_s: dev.transfer_seconds(download_bytes),
        flops: shard_sizes.iter().map(|&n| matrix_flops(n)).sum(),
    })
}

/// Cooperative CPU + GPU variable-size batched Cholesky: the host
/// engine joins the device group as one more peer of the shard
/// scheduler — it enqueues, executes and steals whole shards exactly
/// like a device, factorizing its shards *in place* on the caller's
/// matrices (no PCIe phases) while its event-loop clock advances by
/// `host_model` charges (plain numbers: placement stays deterministic
/// and no wall clock is read).
///
/// Factors and `info` are bit-identical to [`potrf_sharded`] and to a
/// host-only run of the same workload: [`normalized_options`] pins
/// every size-adaptive knob globally, and host and device share the
/// panel-step and interleaved-lane kernels (see [`crate::host`]).
///
/// # Errors
/// As [`potrf_sharded`]; additionally
/// [`VbatchError::InvalidArgument`] when the normalized strategy is not
/// [`Strategy::Fused`] — the separated path's trtri-based `trsm` has no
/// host twin, so cooperative placement would change bits.
#[allow(clippy::too_many_arguments)]
pub fn potrf_hybrid<T: Scalar>(
    group: &DeviceGroup,
    engine: &HostEngine,
    host_model: &HostCostModel,
    sizes: &[usize],
    mats: &mut [Vec<T>],
    opts: &PotrfOptions,
    shard_opts: &ShardOpts,
    state: &mut ShardedState<T>,
    host_state: &mut HostState<T>,
) -> Result<ShardedReport, VbatchError> {
    potrf_peers(
        group,
        Some((engine, host_model, host_state)),
        sizes,
        mats,
        opts,
        shard_opts,
        state,
    )
}

/// Multi-device variable-size batched LU with partial pivoting over
/// square matrices. Returns the merged report plus each matrix's pivot
/// vector (zero-based, `laswp` forward order) in global order. The LU
/// panel loop's per-matrix arithmetic depends only on the matrix's own
/// shape and the fixed `nb_panel`, so factors, pivots and `info` are
/// bit-identical for any group size.
///
/// # Errors
/// As [`potrf_sharded`].
pub fn getrf_sharded<T: Scalar>(
    group: &DeviceGroup,
    sizes: &[usize],
    mats: &mut [Vec<T>],
    opts: &GetrfOptions,
    shard_opts: &ShardOpts,
    state: &mut ShardedState<T>,
) -> Result<(ShardedReport, Vec<Vec<usize>>), VbatchError> {
    let mut w = workload(sizes, mats)?;
    let n_dev = group.len();
    let shards = plan_shards::<T>(
        group.device(0).config(),
        sizes,
        n_dev,
        shard_opts.shards_per_device,
    );
    let mut pivots: Vec<Vec<usize>> = vec![Vec::new(); sizes.len()];
    let devices = state.ensure(n_dev);
    let stats = drive_peers(n_dev, shards, shard_opts.steal, |d, shard| {
        run_shard_on_device(
            group.device(d),
            &mut devices[d],
            shard,
            &mut w,
            &opts.recovery,
            |n| flops::getrf(n, n),
            |dev, vb, dstate| {
                let report =
                    getrf_vbatched_pooled(dev, vb, opts, &mut dstate.ws, &mut dstate.pivots)?;
                let piv = dstate
                    .pivots
                    .as_ref()
                    .expect("pooled getrf fills the pivot slot");
                let mut bytes = 0;
                for (k, &gi) in shard.indices.iter().enumerate() {
                    pivots[gi] = piv.download(k, sizes[gi]);
                    bytes += pivots[gi].len() * 4;
                }
                Ok((report, bytes))
            },
        )
    })?;
    Ok((finalize(group, None, w, state, stats), pivots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbatch_gpu_sim::DeviceConfig;

    #[test]
    fn cost_model_is_monotone_in_size() {
        let cfg = DeviceConfig::k40c();
        assert_eq!(matrix_cost_s::<f64>(&cfg, 0), 0.0);
        let c8 = matrix_cost_s::<f64>(&cfg, 8);
        let c64 = matrix_cost_s::<f64>(&cfg, 64);
        let c256 = matrix_cost_s::<f64>(&cfg, 256);
        assert!(0.0 < c8 && c8 < c64 && c64 < c256);
    }

    #[test]
    fn plan_covers_every_index_exactly_once() {
        let cfg = DeviceConfig::k40c();
        let sizes: Vec<usize> = (0..97).map(|i| (i * 37) % 200).collect();
        for devs in [1usize, 2, 4, 8] {
            let shards = plan_shards::<f64>(&cfg, &sizes, devs, 3);
            let mut seen = vec![0u32; sizes.len()];
            for s in &shards {
                assert!(s.home < devs);
                for &i in &s.indices {
                    seen[i] += 1;
                }
                // Within a shard: size-descending.
                for w in s.indices.windows(2) {
                    assert!(sizes[w[0]] >= sizes[w[1]]);
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "devs={devs}: {seen:?}");
        }
    }

    #[test]
    fn plan_is_cost_balanced() {
        let cfg = DeviceConfig::k40c();
        let sizes: Vec<usize> = (0..128).map(|i| 16 + (i * 53) % 240).collect();
        let shards = plan_shards::<f64>(&cfg, &sizes, 4, 3);
        let mut load = [0.0f64; 4];
        for s in &shards {
            load[s.home] += s.cost_s;
        }
        let max = load.iter().copied().fold(0.0, f64::max);
        let min = load.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            max / min < 1.35,
            "planned load imbalance too high: {load:?}"
        );
    }

    #[test]
    fn normalized_options_pin_composition_dependent_defaults() {
        let dev = Device::new(DeviceConfig::k40c());
        let norm = normalized_options::<f64>(&dev, &PotrfOptions::default(), 200);
        assert!(norm.fused.nb.is_some());
        assert!(norm.fused.window_width.is_some());
        assert_ne!(norm.strategy, crate::driver::Strategy::Auto);
        // Idempotent: normalizing again changes nothing.
        let again = normalized_options::<f64>(&dev, &norm, 200);
        assert_eq!(again.fused.nb, norm.fused.nb);
        assert_eq!(again.strategy, norm.strategy);
    }
}
