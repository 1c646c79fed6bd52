//! Environment pinning and the `meta` block of a result file.

use std::path::PathBuf;

use vbatch_dense::tune::{self, CpuFeatures, TileScheme};

use crate::json::Json;

/// The benchmark package's directory: where cargo says the manifest is
/// when run through `cargo run`, else where it was at build time. Never
/// the current directory, so results do not depend on where the command
/// is typed.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

pub fn out_dir() -> PathBuf {
    manifest_dir().join("out")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pins what the libraries read from the environment, before the first
/// library call and before any thread exists: the worker count to
/// `min(nproc, 2)` and the tile schemes to the repository's `TUNE.json`
/// (or to the defaults when it is absent), so neither follows the
/// machine's core count or the current directory. Returns the thread
/// count.
pub fn pin_environment() -> usize {
    let threads = nproc().min(2);
    std::env::set_var("VBATCH_THREADS", threads.to_string());
    let tune = manifest_dir().join("..").join("TUNE.json");
    match tune.canonicalize() {
        Ok(path) => std::env::set_var("VBATCH_TUNE", path),
        Err(_) => std::env::set_var("VBATCH_TUNE", "off"),
    }
    threads
}

fn scheme_json(s: &TileScheme) -> Json {
    let field = |k: &str, v: usize| (k.to_owned(), Json::Num(v as f64));
    Json::Obj(vec![
        field("mr", s.mr),
        field("nr", s.nr),
        field("mc", s.mc),
        field("kc", s.kc),
        field("ilv_cutoff", s.ilv_cutoff),
    ])
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

pub fn meta_json(threads: usize, seed: u64, seconds: f64) -> Json {
    let cpu = CpuFeatures::detect();
    let active = tune::active_info();
    let flag = |k: &str, v: bool| (k.to_owned(), Json::Bool(v));
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("threads".into(), Json::Num(threads as f64)),
        (
            "cpu".into(),
            Json::Obj(vec![
                flag("avx2", cpu.avx2),
                flag("fma", cpu.fma),
                flag("avx512f", cpu.avx512f),
                flag("avx512vl", cpu.avx512vl),
            ]),
        ),
        ("tune_source".into(), Json::Str(active.source.clone())),
        ("scheme_f64".into(), scheme_json(&active.f64_scheme)),
        ("scheme_f32".into(), scheme_json(&active.f32_scheme)),
        ("rustc".into(), Json::Str(rustc_version())),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
    ])
}
