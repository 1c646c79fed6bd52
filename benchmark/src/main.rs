//! The repository's benchmark: seven workloads over the whole vbatched
//! stack, two clocks (simulated and wall), per-layer spans recorded by
//! the harness itself. See README.md beside this package.
//!
//! ```text
//! vbatch-benchmark [--seed N] [--seconds S]                 every workload, untraced then traced
//! vbatch-benchmark --workload W --seed N --seconds S --trace 0|1    one run (the BENCHMARK.json contract)
//! vbatch-benchmark compare BASE.json NEW.json               verdict per metric x workload
//! ```

mod alloc;
mod compare;
mod json;
mod meta;
mod metrics;
mod probes;
mod run;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use json::Json;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 3.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 2016,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value:?}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value.clone()),
            "--seed" => cli.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

fn result_doc(threads: usize, cli: &Cli, blocks: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Num(1.0)),
        (
            "meta".into(),
            meta::meta_json(threads, cli.seed, cli.seconds),
        ),
        ("workloads".into(), Json::Obj(blocks)),
    ])
}

/// One workload in this process; the last stdout line is the contract's
/// JSON object.
fn run_one(threads: usize, cli: &Cli, workload: &str) -> Result<bool, String> {
    let args = run::Args {
        workload: workload.to_owned(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    let report = run::run(&args, threads)?;
    for note in &report.notes {
        eprintln!("{workload}: {note}");
    }
    let doc = result_doc(threads, cli, vec![(workload.to_owned(), report.block)]);
    let name = format!("result.{workload}.trace{}.json", u8::from(cli.trace));
    run::write_file(&name, &doc.render())?;
    println!("{}", report.driver_line.render());
    Ok(report.correct)
}

fn print_block(workload: &str, block: &Json) {
    let field = |k: &str| block.get(k).map_or("?".into(), Json::render);
    println!(
        "\n== {workload}: correct {} ({} of {} failed), {} + {} traced passes, factor_hash {}",
        field("correct"),
        field("failed"),
        field("attempted"),
        field("passes"),
        field("traced_passes"),
        field("factor_hash"),
    );
    for section in ["end_to_end", "per_layer"] {
        for (name, row) in block.get(section).map(Json::entries).unwrap_or_default() {
            let num = |k: &str| row.get(k).and_then(Json::num);
            let text = |k: &str| row.get(k).and_then(Json::str).unwrap_or("?");
            let spread = match (num("n"), num("q1"), num("q3")) {
                (Some(n), Some(q1), Some(q3)) => format!("  n={n} q1={q1:.6e} q3={q3:.6e}"),
                _ => String::new(),
            };
            println!(
                "  {name:<34} {:>14.6e} {:<8} {:<5}{spread}",
                num("value").unwrap_or(f64::NAN),
                text("unit"),
                text("clock"),
            );
        }
    }
}

/// Every workload, each untraced then traced, each in a process of its
/// own (so `rss_peak_mb` is the workload's and nothing else's). Merges
/// the runs into `out/result.json`: end-to-end metrics from the untraced
/// run, per-layer metrics from the traced one.
fn run_all(threads: usize, cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut blocks = Vec::new();
    let mut correct = true;
    for &(workload, _) in workloads::WORKLOADS {
        let mut merged: Option<Json> = None;
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &cli.seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("spawn {workload}: {e}"))?;
            correct &= status.success();
            let path = meta::out_dir().join(format!("result.{workload}.trace{trace}.json"));
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{workload} --trace {trace} left no result: {e}"))?;
            let block = json::parse(&text)
                .and_then(|d| d.get("workloads")?.get(workload).cloned())
                .ok_or_else(|| format!("{}: malformed result", path.display()))?;
            merged = Some(match merged {
                None => block,
                // Keep the untraced block; take the traced run's layers.
                Some(Json::Obj(kv)) => Json::Obj(
                    kv.into_iter()
                        .map(|(k, v)| match k.as_str() {
                            "per_layer" | "info" | "traced_passes" => {
                                let v = block.get(&k).cloned().unwrap_or(v);
                                (k, v)
                            }
                            _ => (k, v),
                        })
                        .collect(),
                ),
                Some(other) => other,
            });
        }
        let block = merged.expect("two runs were merged");
        correct &= block.get("correct") == Some(&Json::Bool(true));
        print_block(workload, &block);
        blocks.push((workload.to_owned(), block));
    }
    let doc = result_doc(threads, cli, blocks);
    println!(
        "\nmeta {}",
        doc.get("meta").map_or(String::new(), Json::render)
    );
    run::write_file("result.json", &doc.render())?;
    println!("wrote {}", meta::out_dir().join("result.json").display());
    Ok(correct)
}

fn main() -> ExitCode {
    // Before any library call and before any thread exists.
    let threads = meta::pin_environment();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [base, new] => {
                let contract = meta::manifest_dir().join("..").join("BENCHMARK.json");
                compare::compare(base, new, &contract.to_string_lossy())
            }
            _ => Err("usage: compare <base.json> <new.json>".into()),
        }
    } else {
        parse_cli(&args).and_then(|cli| match cli.workload.clone() {
            Some(w) => run_one(threads, &cli, &w),
            None => run_all(threads, &cli),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vbatch-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
