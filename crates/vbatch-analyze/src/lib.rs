//! Repo-specific static analysis for the vbatch workspace: the checks
//! that need the source text and that neither rustc, clippy nor the
//! test suite can see.
//!
//! `cargo run -p vbatch-analyze -- check` (or `cargo analyze`) walks
//! every `crates/*/src/**/*.rs` and `shims/*/src/**/*.rs` file, runs
//! the token lints in [`lints`] (kernel purity, kernel-name interning,
//! the `Send`/`Sync` audit naming, copy-paste double charges, waiver
//! hygiene) and checks each crate's `unsafe` count against its budget
//! in `analyze.toml` both ways (over budget is an error, slack is a
//! warning). The run prints human-readable diagnostics and writes the
//! machine-readable `ANALYZE.json` ([`report`]). DESIGN.md §6f says
//! which tool checks which invariant.

// Library code reports failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod config;
mod lex;
pub mod lints;
pub mod report;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use lints::{codes, Finding, Severity, UnsafeCounts};
use report::{CrateStats, Report};

/// One source file queued for analysis.
struct SourceFile {
    /// Workspace-relative path with `/` separators.
    rel: String,
    /// Crate directory name.
    crate_name: String,
    src: String,
}

/// Runs the full pass over the workspace at `root`.
///
/// # Errors
/// Returns `Err` on I/O failures or a malformed `analyze.toml`; lint
/// findings are *not* errors at this level (they live in the report).
pub fn run_check(root: &Path) -> Result<Report, String> {
    let budget_path = root.join("analyze.toml");
    let cfg = match std::fs::read_to_string(&budget_path) {
        Ok(src) => config::parse(&src)?,
        Err(_) => config::Config::default(),
    };
    let files = collect_workspace(root)?;
    Ok(analyze_files(&files, &cfg))
}

/// Gathers every `.rs` file under `crates/*/src` and `shims/*/src`
/// (vendored code gets no pass on `unsafe`). Test trees are not walked:
/// nothing the pass checks applies to them.
fn collect_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    // `crates/` marks the workspace root; a tree without vendored shims
    // is fine.
    for (group, required) in [("crates", true), ("shims", false)] {
        if !required && !root.join(group).is_dir() {
            continue;
        }
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join(group))
            .map_err(|e| format!("cannot read {}/{group}: {e}", root.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.join("src").is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let mut files = Vec::new();
            collect_rs(&dir.join("src"), &mut files)?;
            files.sort();
            for f in files {
                out.push(SourceFile {
                    rel: rel_path(root, &f),
                    crate_name: crate_name.clone(),
                    src: std::fs::read_to_string(&f)
                        .map_err(|e| format!("cannot read {}: {e}", f.display()))?,
                });
            }
        }
    }
    Ok(out)
}

/// Runs the token lints and the budget check over the gathered files.
fn analyze_files(files: &[SourceFile], cfg: &config::Config) -> Report {
    let mut rep = Report {
        files_scanned: files.len() as u32,
        ..Report::default()
    };
    let mut crate_counts: BTreeMap<String, UnsafeCounts> = BTreeMap::new();
    for f in files {
        let file_rep = lints::analyze_source(&f.rel, &f.src);
        let c = crate_counts.entry(f.crate_name.clone()).or_default();
        c.blocks += file_rep.counts.blocks;
        c.fns += file_rep.counts.fns;
        c.impls += file_rep.counts.impls;
        rep.findings.extend(file_rep.findings);
    }
    for (crate_name, counts) in crate_counts {
        let budget = cfg.budget_for(&crate_name);
        let (code, severity, advice) = if counts.total() > budget {
            (
                codes::UNSAFE_OVER_BUDGET,
                Severity::Error,
                "if the new unsafe is justified, raise the budget in analyze.toml \
                 in the same change that adds it",
            )
        } else {
            (
                codes::BUDGET_SLACK,
                Severity::Warning,
                "ratchet the budget down to the actual count so new unsafe \
                 cannot slip in under stale headroom",
            )
        };
        if counts.total() != budget {
            rep.findings.push(Finding {
                code,
                lint: "unsafe-audit",
                file: "analyze.toml".to_string(),
                line: 1,
                message: format!(
                    "crate `{crate_name}` has {} unsafe occurrences but a budget of \
                     {budget}; {advice}",
                    counts.total()
                ),
                allowed: None,
                severity,
            });
        }
        rep.crates.insert(crate_name, CrateStats { counts, budget });
    }
    rep.findings
        .sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    rep
}

/// Workspace-relative path with `/` separators.
fn rel_path(root: &Path, f: &Path) -> String {
    f.strip_prefix(root)
        .unwrap_or(f)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from `start` to the first
/// directory containing both `Cargo.toml` and `crates/`.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(d) = cur {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        cur = d.parent();
    }
    None
}
