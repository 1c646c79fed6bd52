//! One workload, one process: set-up, timed passes, the correctness
//! gate and, when traced, the per-layer metrics.

use std::time::Instant;

use crate::json::Json;
use crate::meta;
use crate::metrics;
use crate::probes;
use crate::stats::{summarize, Summary};
use crate::trace::{self, Tracer};
use crate::workloads::{self, lookup, LayerEnv, Metrics, Outcome, Workload};

/// Set-ups per untraced run, `setup_s` being their median: at least
/// the first number, and for a cheap set-up more, up to the second,
/// until a second of set-up has been sampled.
const SETUP_REPS: (usize, usize) = (5, 9);
/// Fewest passes a measurement phase runs, however short `--seconds`.
const MIN_PASSES: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One metric of a result file: its value and, for a wall-clock median,
/// the quartiles and sample count `compare` judges the spread by.
struct Row {
    name: String,
    value: f64,
    spread: Option<Summary>,
}

/// What a run produced: the workload's block of the result file and the
/// line the benchmark contract wants last on stdout.
pub struct Report {
    pub block: Json,
    pub driver_line: Json,
    pub correct: bool,
    pub notes: Vec<String>,
}

struct Measured {
    walls: Vec<f64>,
    outcome: Outcome,
    hash: u64,
    /// First pass whose simulated figures or factor bits differed.
    drift: Option<String>,
}

/// Same names, same bits, same order.
fn same_bits(a: &Outcome, b: &Outcome) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Runs passes until `budget_s` of measured wall time is spent (at
/// least [`MIN_PASSES`]), requiring every pass to reproduce the first
/// one's bit-exact outcome and factor hash.
fn measure(w: &mut dyn Workload, tr: &mut Tracer, budget_s: f64) -> Measured {
    let mut m = Measured {
        walls: Vec::new(),
        outcome: Vec::new(),
        hash: 0,
        drift: None,
    };
    let mut spent = 0.0;
    while m.walls.len() < MIN_PASSES || spent < budget_s {
        w.reset();
        tr.set_pass(m.walls.len() as u32);
        let t = Instant::now();
        w.pass(tr);
        let wall = t.elapsed().as_secs_f64();
        spent += wall;
        let (outcome, hash) = (w.outcome(), w.factor_hash());
        if m.walls.is_empty() {
            (m.outcome, m.hash) = (outcome, hash);
        } else if m.drift.is_none() && (hash != m.hash || !same_bits(&outcome, &m.outcome)) {
            m.drift = Some(format!(
                "pass {} is not bit-identical to pass 0",
                m.walls.len()
            ));
        }
        m.walls.push(wall);
    }
    m
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn row_json(r: &Row) -> (String, Json) {
    let (m, _) = metrics::find(&r.name).expect("rows are built from the catalogue");
    let mut kv = vec![
        ("value".to_owned(), Json::Num(r.value)),
        ("unit".to_owned(), Json::Str(m.unit.into())),
        ("better".to_owned(), Json::Str(m.better.label().into())),
        ("clock".to_owned(), Json::Str(m.clock.label().into())),
    ];
    if let Some(s) = r.spread {
        kv.push(("n".to_owned(), Json::Num(s.n as f64)));
        kv.push(("q1".to_owned(), Json::Num(s.q1)));
        kv.push(("q3".to_owned(), Json::Num(s.q3)));
    }
    (r.name.clone(), Json::Obj(kv))
}

pub fn run(args: &Args, threads: usize) -> Result<Report, String> {
    let why = workloads::WORKLOADS
        .iter()
        .find(|w| w.0 == args.workload)
        .map(|w| w.1)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let build = || {
        workloads::build(&args.workload, args.seed, threads).expect("the name was checked above")
    };

    // Set-up, repeated so one run yields a median: an untraced run
    // reports `setup_s`, a traced run only needs the workload.
    let mut setup_s = Vec::new();
    let mut w = loop {
        let t = Instant::now();
        let w = build();
        setup_s.push(t.elapsed().as_secs_f64());
        let enough = setup_s.len() >= SETUP_REPS.0 && setup_s.iter().sum::<f64>() >= 1.0;
        if args.trace || enough || setup_s.len() == SETUP_REPS.1 {
            break w;
        }
    };

    let mut off = Tracer::new(false);
    let share = if args.trace { 0.5 } else { 1.0 };
    let plain = measure(w.as_mut(), &mut off, args.seconds * share);
    let rss = rss_peak_mb();
    let wall = summarize(&plain.walls);
    let mut notes: Vec<String> = plain.drift.iter().cloned().collect();

    let mut rows: Vec<Row> = Vec::new();
    let mut put = |name: &str, value: f64, spread: Option<Summary>| {
        rows.push(Row {
            name: name.to_owned(),
            value,
            spread,
        });
    };
    let flops = lookup(&plain.outcome, "flops");
    let (sim_s, sim_j) = (
        lookup(&plain.outcome, "sim_s"),
        lookup(&plain.outcome, "sim_energy_j"),
    );
    put(
        "setup_s",
        summarize(&setup_s).median,
        Some(summarize(&setup_s)),
    );
    // Gflop/s quartiles mirror the pass-time quartiles.
    let rate = |s: f64| flops / s / 1e9;
    put(
        "wall_gflops",
        rate(wall.median),
        Some(Summary {
            median: rate(wall.median),
            q1: rate(wall.q3),
            q3: rate(wall.q1),
            n: wall.n,
        }),
    );
    put("sim_gflops", rate(sim_s), None);
    put("sim_gflop_per_j", flops / sim_j / 1e9, None);
    put("rss_peak_mb", rss, None);
    put("wall_s", wall.median, Some(wall));
    put("sim_s", sim_s, None);
    put("sim_energy_j", sim_j, None);

    let mut info: Vec<(String, Json)> = Vec::new();
    let mut traced_passes = 0usize;
    let mut layer = Metrics::default();
    if args.trace {
        let mut tr = Tracer::new(true);
        let traced = measure(w.as_mut(), &mut tr, args.seconds * 0.5);
        traced_passes = traced.walls.len();
        notes.extend(traced.drift.iter().cloned());
        if traced.hash != plain.hash || !same_bits(&traced.outcome, &plain.outcome) {
            notes.push("traced passes are not bit-identical to untraced passes".into());
        }
        let traced_wall = summarize(&traced.walls);
        layer.put("workload.gen_s", w.gen_s());
        layer.put(
            "trace.overhead_share",
            traced_wall.median / wall.median - 1.0,
        );
        let covered = trace::top_level_ns_by_pass(&tr.spans);
        let errs: Vec<f64> = traced
            .walls
            .iter()
            .enumerate()
            .map(|(p, &wall_s)| {
                let spans_s = covered.get(&(p as u32)).copied().unwrap_or(0) as f64 * 1e-9;
                (spans_s - wall_s).abs() / wall_s
            })
            .collect();
        layer.put("trace.closure_err", summarize(&errs).median);
        probes::run(&mut layer);
        let env = LayerEnv {
            spans: &tr.spans,
            threads,
            pass_wall_s: traced_wall.median,
            outcome: &plain.outcome,
        };
        w.layers(&env, &mut layer);
        if let (Some(gf), Some(peak)) = (
            layer.get("host.potrf_gflops"),
            layer.get("dense.peak_fma_gflops"),
        ) {
            layer.put("host.roofline_frac", gf / (peak * threads as f64));
        }
        let self_s = trace::self_ns_by_layer(&tr.spans)
            .into_iter()
            .map(|(l, ns)| {
                (
                    l.to_owned(),
                    Json::Num(ns as f64 * 1e-9 / traced_passes as f64),
                )
            })
            .collect();
        info.push(("self_s_per_pass".into(), Json::Obj(self_s)));
        // The trace file keeps the first two traced passes: enough to
        // read, small enough to open.
        let shown: Vec<trace::Span> = tr.spans.iter().filter(|s| s.pass < 2).cloned().collect();
        write_file(
            &format!("trace.{}.json", args.workload),
            &trace::chrome_trace(&shown, &args.workload).render(),
        )?;
    }

    let once = w.once();
    let check = w.check();
    // A pass that did not reproduce pass 0 is a failed operation too.
    let failed = check.failed + notes.len() as u64;
    notes.extend(check.notes.iter().cloned());
    let correct = failed == 0;
    put(
        "failed_share",
        failed as f64 / check.attempted.max(1) as f64,
        None,
    );

    // Bit-exact figures of the pass go to whichever list names them;
    // the rest (`flops`, sample counts) is informational.
    for (name, value) in plain.outcome.iter().chain(&once) {
        match metrics::find(name) {
            Some((_, true)) if !rows.iter().any(|r| r.name == *name) => {
                rows.push(Row {
                    name: (*name).to_owned(),
                    value: *value,
                    spread: None,
                });
            }
            Some((_, false)) if args.trace => layer.put(name, *value),
            Some(_) => {}
            None => info.push(((*name).to_owned(), Json::Num(*value))),
        }
    }
    let layer_rows: Vec<Row> = layer
        .0
        .iter()
        .map(|(name, value)| Row {
            name: name.clone(),
            value: *value,
            spread: None,
        })
        .collect();
    for r in rows.iter().chain(&layer_rows) {
        if metrics::find(&r.name).is_none() {
            return Err(format!("uncatalogued metric {}", r.name));
        }
        if !r.value.is_finite() {
            return Err(format!("metric {} is not finite", r.name));
        }
    }

    let sizes = w.sizes();
    let block = Json::Obj(vec![
        ("why".into(), Json::Str(why.into())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(check.attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "factor_hash".into(),
            Json::Str(format!("{:016x}", plain.hash)),
        ),
        ("passes".into(), Json::Num(plain.walls.len() as f64)),
        ("traced_passes".into(), Json::Num(traced_passes as f64)),
        (
            "sizes".into(),
            Json::Obj(vec![
                ("count".into(), Json::Num(sizes.len() as f64)),
                ("sum".into(), Json::Num(sizes.iter().sum::<usize>() as f64)),
                (
                    "max".into(),
                    Json::Num(sizes.iter().copied().max().unwrap_or(0) as f64),
                ),
            ]),
        ),
        (
            "end_to_end".into(),
            Json::Obj(rows.iter().map(row_json).collect()),
        ),
        (
            "per_layer".into(),
            Json::Obj(layer_rows.iter().map(row_json).collect()),
        ),
        ("info".into(), Json::Obj(info)),
    ]);

    // The contract's line: exactly the names BENCHMARK.json lists for
    // this trace mode. A layer this workload never calls reads 0 there;
    // the result file leaves such metrics out instead.
    let value_of = |name: &str| {
        rows.iter()
            .chain(&layer_rows)
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.value)
    };
    let listed: Vec<&metrics::Metric> = if args.trace {
        metrics::driver_per_layer().collect()
    } else {
        metrics::driver_end_to_end().collect()
    };
    let driver_metrics = listed
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value_of(m.name))),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let driver_line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(check.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(driver_metrics)),
    ]);
    Ok(Report {
        block,
        driver_line,
        correct,
        notes,
    })
}

/// Writes `name` under the benchmark's `out/` directory.
pub fn write_file(name: &str, text: &str) -> Result<(), String> {
    let dir = meta::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}
