//! Repo-specific static analysis for the vbatch workspace.
//!
//! `cargo run -p vbatch-analyze -- check` (or `cargo analyze`) runs in
//! two phases. Phase 1 walks every `crates/*/src/**/*.rs` and
//! `shims/*/src/**/*.rs` file plus the crate `tests/`/`benches/` trees
//! and the root `tests/` suite, runs
//! the per-file token lints in [`lints`], and builds the cross-crate
//! [`index`] (function spans, launch sites with statically resolved
//! kernel names, `unsafe impl Send/Sync` wrappers, pool `take` sites,
//! fault matchers). Phase 2 ([`passes`]) runs graph and dataflow lints
//! over that index: concurrency (VBA401), launch-graph (VBA5xx) and
//! pool-lifecycle (VBA6xx). Per-crate `unsafe` counts are checked
//! against the budgets in `analyze.toml` both ways (over budget is an
//! error, slack is a warning). The run prints human-readable
//! diagnostics and writes the machine-readable `ANALYZE.json`
//! ([`report`]), whose `graph` section mirrors the index so CI can
//! diff kernel-registry drift. See DESIGN.md §6k for the lint catalog
//! and the allowlist convention.

pub mod config;
pub mod index;
pub mod lex;
pub mod lints;
pub mod passes;
pub mod report;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use index::{Index, NameRes};
use lints::{codes, FileCtx, Finding, Severity, UnsafeCounts};
use report::{
    CrateStats, GraphLaunchSite, GraphMatcher, GraphSection, GraphTake, GraphWrapper, Report,
};

/// One source file queued for analysis.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Crate directory name, or empty for the root `tests/` tree.
    pub crate_name: String,
    pub src: String,
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

/// Gathers every analyzable `.rs` file under `root`: `crates/*/src`
/// and `shims/*/src` (production, subject to all lints and the unsafe
/// census — vendored code gets no pass on `unsafe` or thread
/// creation), `crates/*/tests`,
/// `crates/*/benches` and the root `tests/` tree (test context: indexed
/// by phase 2, exempt from token lints).
///
/// # Errors
/// Returns `Err` when a directory or file cannot be read.
pub fn collect_workspace(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut out = Vec::new();
    // (directory of crates, trees walked in each, must exist):
    // `crates/` marks the workspace root; a tree without vendored shims
    // is fine.
    let groups: [(&str, &[&str], bool); 2] = [
        ("crates", &["src", "tests", "benches"], true),
        ("shims", &["src"], false),
    ];
    for (group, subs, required) in groups {
        if !required && !root.join(group).is_dir() {
            continue;
        }
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(root.join(group))
            .map_err(|e| format!("cannot read {}/{group}: {e}", root.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let crate_name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            for sub in subs {
                let d = dir.join(sub);
                if !d.is_dir() {
                    continue;
                }
                let mut files = Vec::new();
                collect_rs(&d, &mut files)?;
                files.sort();
                for f in files {
                    let rel = rel_path(root, &f);
                    // Fixture trees are lint-input *data* (deliberately
                    // broken code), not workspace source.
                    if rel.contains("/fixtures/") {
                        continue;
                    }
                    out.push(SourceFile {
                        rel,
                        crate_name: crate_name.clone(),
                        src: std::fs::read_to_string(&f)
                            .map_err(|e| format!("cannot read {}: {e}", f.display()))?,
                    });
                }
            }
        }
    }
    let root_tests = root.join("tests");
    if root_tests.is_dir() {
        let mut files = Vec::new();
        collect_rs(&root_tests, &mut files)?;
        files.sort();
        for f in files {
            out.push(SourceFile {
                rel: rel_path(root, &f),
                crate_name: String::new(),
                src: std::fs::read_to_string(&f)
                    .map_err(|e| format!("cannot read {}: {e}", f.display()))?,
            });
        }
    }
    Ok(out)
}

/// Runs both analysis phases over an in-memory file set. This is the
/// whole analyzer minus the filesystem walk, so fixture tests can feed
/// it synthetic trees.
#[must_use]
pub fn analyze_files(files: &[SourceFile], cfg: &config::Config) -> Report {
    let scans: Vec<lex::Scan> = files.iter().map(|f| lex::scan(&f.src)).collect();
    let ctxs: Vec<FileCtx<'_>> = files
        .iter()
        .zip(&scans)
        .map(|(f, s)| FileCtx::new(&f.rel, s))
        .collect();

    let mut rep = Report {
        files_scanned: files.len() as u32,
        ..Report::default()
    };

    // Phase 1: per-file token lints + the unsafe census. Test-context
    // files contribute findings (VBA901 waiver hygiene) but their
    // counts are zero by construction, and only `src/` files feed the
    // per-crate budgets.
    let mut crate_counts: BTreeMap<String, UnsafeCounts> = BTreeMap::new();
    for (f, ctx) in files.iter().zip(&ctxs) {
        let file_rep = lints::lint_file(ctx);
        if !f.crate_name.is_empty() && f.rel.contains("/src/") {
            let c = crate_counts.entry(f.crate_name.clone()).or_default();
            c.blocks += file_rep.counts.blocks;
            c.fns += file_rep.counts.fns;
            c.impls += file_rep.counts.impls;
            c.safety_comments += file_rep.counts.safety_comments;
        }
        rep.findings.extend(file_rep.findings);
    }
    for (crate_name, counts) in crate_counts {
        let budget = cfg.budget_for(&crate_name);
        if counts.total() > budget {
            rep.findings.push(Finding {
                code: codes::UNSAFE_OVER_BUDGET,
                lint: "unsafe-audit",
                file: "analyze.toml".to_string(),
                line: 1,
                message: format!(
                    "crate `{crate_name}` has {} unsafe occurrences but a budget of \
                     {budget}; if the new unsafe is justified, raise the budget in \
                     analyze.toml in the same change that adds it",
                    counts.total()
                ),
                allowed: None,
                severity: Severity::Error,
            });
        } else if counts.total() < budget {
            rep.findings.push(Finding {
                code: codes::BUDGET_SLACK,
                lint: "unsafe-audit",
                file: "analyze.toml".to_string(),
                line: 1,
                message: format!(
                    "crate `{crate_name}` has {} unsafe occurrences but a budget of \
                     {budget}; ratchet the budget down to the actual count so new \
                     unsafe cannot slip in under stale headroom",
                    counts.total()
                ),
                allowed: None,
                severity: Severity::Warning,
            });
        }
        rep.crates.insert(crate_name, CrateStats { counts, budget });
    }

    // Phase 2: the cross-crate index and the graph/dataflow passes.
    let idx = Index::build(&ctxs);
    passes::run(&idx, &mut rep.findings);
    rep.graph = Some(build_graph(&idx));

    rep.findings
        .sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    rep
}

/// Flattens the phase-1 index into the report's `graph` section.
fn build_graph(idx: &Index<'_>) -> GraphSection {
    let mut g = GraphSection {
        kernels: idx.kernels.iter().cloned().collect(),
        test_kernels: idx.test_kernels.iter().cloned().collect(),
        ..GraphSection::default()
    };
    for f in &idx.files {
        let file = f.ctx.path.to_string();
        for site in &f.launches {
            let (kernels, resolved) = match &site.resolution {
                NameRes::Resolved(names) => (names.clone(), true),
                NameRes::Unresolved(_) => (Vec::new(), false),
            };
            g.launch_sites.push(GraphLaunchSite {
                file: file.clone(),
                line: site.line,
                func: site
                    .fn_idx
                    .map(|i| f.fns[i].name.clone())
                    .unwrap_or_default(),
                kernels,
                resolved,
                test: site.is_test,
                charges: site.charges.len() as u32,
            });
        }
        for w in &f.unsafe_impls {
            g.unsafe_wrappers.push(GraphWrapper {
                file: file.clone(),
                line: w.line,
                trait_name: w.trait_name.clone(),
                type_name: w.type_name.clone(),
            });
        }
        for t in &f.takes {
            g.pool_takes.push(GraphTake {
                file: file.clone(),
                line: t.line,
                binding: t.binding.clone(),
                meta: t.meta_like,
                escapes: t.escapes,
                rewritten: t.rewritten,
            });
        }
        for m in &f.matchers {
            g.fault_matchers.push(GraphMatcher {
                file: file.clone(),
                line: m.line,
                substring: m.substring.clone(),
                test: m.is_test,
                matched: m.substring.is_empty() || idx.any_kernel_contains(&m.substring),
            });
        }
    }
    g
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
