//! The five repo-specific lints.
//!
//! Every lint works on the token/comment stream of one file
//! ([`crate::lex::Scan`]); none require type information, which is what
//! makes them implementable without a full compiler frontend:
//!
//! * **L1 `unsafe-audit`** (`VBA001`) — every `unsafe` block, fn, impl
//!   or trait must be immediately preceded by a `// SAFETY:` comment
//!   (for fns, a `/// # Safety` doc section also counts). Counts per
//!   crate feed the budget check (`VBA002`, [`crate::config`]).
//! * **L2 `kernel-purity`** (`VBA101`) — closures passed to
//!   `Device::launch`, and the body of any fn whose signature names
//!   `BlockCtx` (a helper such closures call), must not contain
//!   `panic!`, `.unwrap()`, `.expect()`, `Vec::new`, `vec!`,
//!   `Box::new` or `format!`: simulated kernels must be side-effect
//!   free until committed (fault injection rejects *before* blocks
//!   run, so a retried launch must be repeatable) and allocation-free
//!   (the PR 2 zero-alloc launch contract).
//! * **L3 `determinism`** (`VBA201`) — `Instant`, `SystemTime`,
//!   `thread_rng`, `HashMap` and `HashSet` are forbidden in the
//!   simulator's cost/schedule/energy paths and the vbatch drivers;
//!   the sim clock/energy goldens are bit-exact and unordered-map
//!   iteration or wall-clock reads would silently break them.
//! * **L4 `intern`** (`VBA301`) — kernel-name arguments to `launch`
//!   must not be inline string literals; they route through
//!   `vbatch_gpu_sim::intern` (`kname`, `intern::prefixed`,
//!   `intern::literal`) so the process-wide kernel vocabulary is
//!   enumerable and launch-path allocation-free.
//! * **L5 `threading`** (`VBA202`) — ad-hoc thread creation
//!   (`thread::spawn`, `thread::scope`, `thread::Builder`) is forbidden
//!   outside the audited worker pool (`crates/gpu-sim/src/workers.rs`,
//!   the one module behind both the host engine and the launch
//!   executor), in `crates/*/src` and `shims/*/src` alike: host
//!   parallelism routes through `WorkerPool` so thread count
//!   (`VBATCH_THREADS`), naming, and the bit-identity-across-thread-counts
//!   contract stay centralized.
//!
//! Findings can be waived in place with
//! `// analyze:allow(<lint>): <reason>` on (or immediately above) the
//! offending line; waived findings stay in `ANALYZE.json` with their
//! reason, so the waiver list is reviewable.

use crate::lex::{fn_item_at, match_delim, scan, Scan, TokKind, Token};

/// Whether a finding fails the run (error) or only reports (warning,
/// exit 0 — today just the VBA003 budget-slack ratchet).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

/// One diagnostic produced by the pass.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable diagnostic code (`VBA001`…).
    pub code: &'static str,
    /// Lint name as used in `analyze:allow(...)`.
    pub lint: &'static str,
    /// Path as given to [`analyze_source`].
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    pub message: String,
    /// `Some(reason)` when waived by an `analyze:allow` directive.
    pub allowed: Option<String>,
    pub severity: Severity,
}

/// Per-file `unsafe` census (test modules excluded).
#[derive(Debug, Default, Clone, Copy)]
pub struct UnsafeCounts {
    pub blocks: u32,
    pub fns: u32,
    pub impls: u32,
    /// Comments containing a `SAFETY:` marker (any case) or a
    /// `# Safety` doc section.
    pub safety_comments: u32,
}

impl UnsafeCounts {
    /// Total `unsafe` occurrences, the unit the budget file caps.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.blocks + self.fns + self.impls
    }
}

/// Result of analyzing one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub counts: UnsafeCounts,
}

/// Diagnostic codes, kept in one place so fixtures can assert them.
pub mod codes {
    /// L1: `unsafe` without an immediately-preceding SAFETY comment.
    pub const UNSAFE_NO_SAFETY: &str = "VBA001";
    /// L1: a crate's `unsafe` count exceeds its `analyze.toml` budget.
    pub const UNSAFE_OVER_BUDGET: &str = "VBA002";
    /// L1: a crate's `unsafe` count is *below* its budget (warning) —
    /// ratchet the budget down instead of accumulating stale headroom.
    pub const BUDGET_SLACK: &str = "VBA003";
    /// L2: forbidden construct inside a launch closure or a
    /// kernel-body fn (one whose signature names `BlockCtx`).
    pub const KERNEL_IMPURE: &str = "VBA101";
    /// L3: non-deterministic construct in a determinism-scoped file.
    pub const NONDETERMINISM: &str = "VBA201";
    /// L5: ad-hoc thread creation outside the host worker pool.
    pub const ADHOC_THREADING: &str = "VBA202";
    /// L4: inline string literal as a kernel name.
    pub const UNINTERNED_NAME: &str = "VBA301";
    /// C1: `unsafe impl Send/Sync` whose SAFETY comment does not name
    /// the audited wrapper type.
    pub const SEND_SYNC_UNNAMED: &str = "VBA401";
    /// G1: launch-site kernel name that does not resolve to the intern
    /// registry.
    pub const KERNEL_UNRESOLVED: &str = "VBA501";
    /// G2: launch site in a function unreachable from any public driver
    /// entry point.
    pub const LAUNCH_UNREACHABLE: &str = "VBA502";
    /// G3: launch closure that never charges `BlockCost`.
    pub const LAUNCH_UNCHARGED: &str = "VBA503";
    /// G4: identical consecutive `BlockCost` charge (copy-paste double
    /// charge).
    pub const LAUNCH_DOUBLE_CHARGED: &str = "VBA504";
    /// G5: fault-injection launch matcher whose substring matches no
    /// kernel in the resolved registry (dead chaos coverage).
    pub const DEAD_FAULT_MATCHER: &str = "VBA505";
    /// P1: pool `take` whose buffer is neither reclaimed nor handed
    /// onward on any path (leaks pool capacity on drop).
    pub const POOL_TAKE_LEAKED: &str = "VBA601";
    /// P2: pooled metadata buffer handed to a window without a rewrite
    /// of its length-dependent contents (the PR 9 `d_info` bug shape).
    pub const POOL_META_STALE: &str = "VBA602";
    /// An `analyze:allow` directive without a reason.
    pub const ALLOW_NO_REASON: &str = "VBA901";
}

/// Files (path suffixes, `/`-separated) subject to the determinism
/// lint: the simulator's cost accounting and the vbatch drivers.
pub const DETERMINISM_SCOPE: &[&str] = &[
    "crates/gpu-sim/src/",
    "crates/vbatch-core/src/",
    "crates/vbatch-serve/src/",
];

/// Exemptions within [`DETERMINISM_SCOPE`]. Currently empty — the
/// interning table and the profiler both use ordered maps — but the
/// mechanism stays so a future exemption is a one-line, reviewable
/// change here rather than a scattering of allow comments.
pub const DETERMINISM_EXEMPT: &[&str] = &[];

/// Identifiers the determinism lint rejects.
const NONDET_IDENTS: &[&str] = &["Instant", "SystemTime", "thread_rng", "HashMap", "HashSet"];

/// Files (path suffixes, `/`-separated) exempt from the threading lint:
/// the one audited worker pool all host parallelism must route through
/// — the host engine's lanes and the executor behind `Device::launch`
/// are both instances of this single module.
pub const THREADING_EXEMPT: &[&str] = &["crates/gpu-sim/src/workers.rs"];

/// `thread::` members whose use constitutes ad-hoc thread creation.
const THREADING_BANNED: &[&str] = &["spawn", "scope", "Builder"];

/// Whether a workspace-relative path is test-context source: crate
/// `tests/`/`benches/` trees and the root `tests/` integration suite.
/// Test-context files are indexed by phase 2 (their launch sites and
/// fault matchers feed the graph) but exempt from the token lints and
/// the unsafe census, matching how `#[cfg(test)]` regions are treated
/// inside `src/`.
#[must_use]
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.starts_with("benches/")
        || path.contains("/benches/")
}

/// Analyzes one file's source. `path` should be workspace-relative with
/// `/` separators (it selects lint scopes and labels findings).
#[must_use]
pub fn analyze_source(path: &str, src: &str) -> FileReport {
    let s = scan(src);
    let ctx = FileCtx::new(path, &s);
    lint_file(&ctx)
}

/// Runs the per-file token lints over a pre-built [`FileCtx`].
pub(crate) fn lint_file(ctx: &FileCtx<'_>) -> FileReport {
    let path = ctx.path;
    let mut rep = FileReport::default();
    lint_unsafe(ctx, &mut rep);
    lint_launch_sites(ctx, &mut rep);
    lint_kernel_fns(ctx, &mut rep);
    if DETERMINISM_SCOPE.iter().any(|p| path.contains(p))
        && !DETERMINISM_EXEMPT.iter().any(|p| path.ends_with(p))
    {
        lint_determinism(ctx, &mut rep);
    }
    if !THREADING_EXEMPT.iter().any(|p| path.ends_with(p)) {
        lint_threading(ctx, &mut rep);
    }
    for d in &ctx.allows {
        if d.reason.is_empty() {
            rep.findings.push(Finding {
                code: codes::ALLOW_NO_REASON,
                lint: "allow",
                file: path.to_string(),
                line: d.line,
                message: format!(
                    "analyze:allow({}) directive has no reason; write \
                     `// analyze:allow({}): <why this is sound>`",
                    d.lint, d.lint
                ),
                allowed: None,
                severity: Severity::Error,
            });
        }
    }
    rep.findings
        .sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    rep
}

/// An `analyze:allow(<lint>): reason` directive.
pub(crate) struct AllowDirective {
    lint: String,
    reason: String,
    /// Line of the directive comment.
    line: u32,
    /// First code line at or below the directive — the line it waives.
    target: u32,
}

/// Pre-computed per-file context shared by the lints and the phase-2
/// index ([`crate::index`]).
pub struct FileCtx<'a> {
    pub(crate) path: &'a str,
    pub(crate) scan: &'a Scan,
    /// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
    test_regions: Vec<(u32, u32)>,
    /// Lines holding only attribute tokens (`#[...]`), possibly split
    /// over several lines.
    attr_lines: Vec<bool>,
    /// Lines holding a single-line `unsafe impl … {}` item, so a
    /// Send/Sync pair can share one SAFETY comment.
    unsafe_impl_lines: Vec<bool>,
    allows: Vec<AllowDirective>,
    /// Whole file is test context (`tests/`/`benches/` trees).
    test_file: bool,
}

impl<'a> FileCtx<'a> {
    #[must_use]
    pub fn new(path: &'a str, s: &'a Scan) -> Self {
        let toks = &s.tokens;
        let n_lines = s.code_lines.len();

        // Attribute token ranges → attr-only lines.
        let mut in_attr = vec![false; toks.len()];
        let mut i = 0;
        while i < toks.len() {
            if toks[i].kind == TokKind::Punct && toks[i].text == "#" {
                let mut j = i + 1;
                if j < toks.len() && toks[j].text == "!" {
                    j += 1;
                }
                if j < toks.len() && toks[j].text == "[" {
                    let close = match_delim(toks, j);
                    for slot in in_attr
                        .iter_mut()
                        .take(close.min(toks.len() - 1) + 1)
                        .skip(i)
                    {
                        *slot = true;
                    }
                    i = close + 1;
                    continue;
                }
            }
            i += 1;
        }
        let mut nonattr_code = vec![false; n_lines];
        for (k, t) in toks.iter().enumerate() {
            if !in_attr[k] {
                if let Some(slot) = nonattr_code.get_mut(t.line as usize) {
                    *slot = true;
                }
            }
        }
        let attr_lines: Vec<bool> = (0..n_lines)
            .map(|l| s.code_lines[l] && !nonattr_code[l])
            .collect();

        // #[cfg(test)] mod regions.
        let mut test_regions = Vec::new();
        let mut i = 0;
        while i + 6 < toks.len() {
            let is_cfg_test = toks[i].text == "#"
                && toks[i + 1].text == "["
                && toks[i + 2].text == "cfg"
                && toks[i + 3].text == "("
                && toks[i + 4].text == "test"
                && toks[i + 5].text == ")"
                && toks[i + 6].text == "]";
            if is_cfg_test {
                // Skip any further attributes, then expect `mod name {`.
                let mut j = i + 7;
                while j + 1 < toks.len() && toks[j].text == "#" && toks[j + 1].text == "[" {
                    j = match_delim(toks, j + 1) + 1;
                }
                if j + 2 < toks.len() && toks[j].text == "mod" {
                    let mut k = j + 1;
                    while k < toks.len() && toks[k].text != "{" && toks[k].text != ";" {
                        k += 1;
                    }
                    if k < toks.len() && toks[k].text == "{" {
                        let close = match_delim(toks, k);
                        let end = toks.get(close).map_or(u32::MAX, |t| t.line);
                        test_regions.push((toks[i].line, end));
                        i = close + 1;
                        continue;
                    }
                }
            }
            i += 1;
        }

        // Single-line `unsafe impl … {}` lines.
        let mut unsafe_impl_lines = vec![false; n_lines];
        for (k, t) in toks.iter().enumerate() {
            if t.text == "unsafe" && toks.get(k + 1).is_some_and(|n| n.text == "impl") {
                if let Some(slot) = unsafe_impl_lines.get_mut(t.line as usize) {
                    *slot = true;
                }
            }
        }

        // analyze:allow directives.
        let mut allows = Vec::new();
        for c in &s.comments {
            if let Some(pos) = c.text.find("analyze:allow(") {
                let rest = &c.text[pos + "analyze:allow(".len()..];
                if let Some(cl) = rest.find(')') {
                    let lint = rest[..cl].trim().to_string();
                    let reason = rest[cl + 1..]
                        .trim_start_matches([':', '-', ' '])
                        .trim()
                        .to_string();
                    // Waives the first code line at or below it.
                    let mut target = c.line_end;
                    if !s.has_code(target) {
                        target += 1;
                        while (target as usize) < n_lines && !s.has_code(target) {
                            target += 1;
                        }
                    }
                    allows.push(AllowDirective {
                        lint,
                        reason,
                        line: c.line_start,
                        target,
                    });
                }
            }
        }

        Self {
            path,
            scan: s,
            test_regions,
            attr_lines,
            unsafe_impl_lines,
            allows,
            test_file: is_test_path(path),
        }
    }

    pub(crate) fn in_test(&self, line: u32) -> bool {
        self.test_file
            || self
                .test_regions
                .iter()
                .any(|&(a, b)| a <= line && line <= b)
    }

    fn is_attr_line(&self, l: u32) -> bool {
        self.attr_lines.get(l as usize).copied().unwrap_or(false)
    }

    /// Checks the waiver list, producing either an allowed or an active
    /// finding.
    pub(crate) fn finding(
        &self,
        code: &'static str,
        lint: &'static str,
        line: u32,
        message: String,
    ) -> Finding {
        let allowed = self
            .allows
            .iter()
            .find(|d| {
                // A directive may name the lint ("threading") or the
                // stable code ("VBA202") — codes read better next to a
                // long audit comment and survive lint renames.
                (d.lint == lint || d.lint == code)
                    && (d.target == line || d.line == line)
                    && !d.reason.is_empty()
            })
            .map(|d| d.reason.clone());
        Finding {
            code,
            lint,
            file: self.path.to_string(),
            line,
            message,
            allowed,
            severity: Severity::Error,
        }
    }
}

/// The line on which the statement/expression owning token `idx`
/// begins: scan backwards to the nearest statement boundary.
fn anchor_line(toks: &[Token], idx: usize) -> u32 {
    let mut k = idx;
    while k > 0 {
        let t = &toks[k - 1];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}" | "," | "(") {
            break;
        }
        k -= 1;
    }
    toks[k].line.min(toks[idx].line)
}

/// Whether a comment text carries a safety justification.
fn has_safety_marker(text: &str) -> bool {
    let t = text.to_ascii_lowercase();
    t.contains("safety:") || t.contains("# safety")
}

/// Walks upward from `line - 1` through the contiguous run of comment
/// and attribute lines (and, for impls, sibling single-line
/// `unsafe impl`s) looking for a SAFETY marker. Multi-line `// SAFETY:`
/// comments and `#[allow]`-style attributes between the comment and the
/// `unsafe` token are all crossed.
///
/// A SAFETY marker in a *trailing* comment on a code line counts only
/// when that line is directly adjacent (`line - 1`) or the `unsafe`
/// line itself: a trailing comment further up belongs to *that*
/// statement, and letting it satisfy a later `unsafe` was a
/// silently-passing mismatch (any `x = f(); // SAFETY: …` two lines up
/// used to launder the next undocumented `unsafe`).
fn safety_above(ctx: &FileCtx<'_>, line: u32, is_impl: bool) -> bool {
    // Same-line comment: `/* SAFETY: … */ unsafe { … }` or a trailing
    // justification on the unsafe line itself.
    if ctx
        .scan
        .comment_text_on(line)
        .is_some_and(|t| has_safety_marker(&t))
    {
        return true;
    }
    let mut l = line.saturating_sub(1);
    let mut adjacent = true;
    while l >= 1 {
        if let Some(text) = ctx.scan.comment_text_on(l) {
            let code_line = ctx.scan.has_code(l) && !ctx.is_attr_line(l);
            if has_safety_marker(&text) && (!code_line || adjacent) {
                return true;
            }
            // A line can hold both code and a trailing comment; only
            // keep walking when it is comment-only.
            if code_line {
                return false;
            }
        } else if ctx.is_attr_line(l) {
            // skip attributes between doc/comment and item
        } else if is_impl
            && ctx
                .unsafe_impl_lines
                .get(l as usize)
                .copied()
                .unwrap_or(false)
        {
            // A Send/Sync pair may share one SAFETY comment.
        } else {
            return false;
        }
        adjacent = false;
        l -= 1;
    }
    false
}

/// L1: every `unsafe` needs an immediately-preceding justification.
fn lint_unsafe(ctx: &FileCtx<'_>, rep: &mut FileReport) {
    let toks = &ctx.scan.tokens;
    for c in &ctx.scan.comments {
        if !ctx.in_test(c.line_start) && has_safety_marker(&c.text) {
            rep.counts.safety_comments += 1;
        }
    }
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" || ctx.in_test(t.line) {
            continue;
        }
        let next = toks.get(i + 1).map(|n| n.text.as_str()).unwrap_or("");
        let (what, is_fn, is_impl) = match next {
            "fn" | "extern" => ("unsafe fn", true, false),
            "impl" => ("unsafe impl", false, true),
            "trait" => ("unsafe trait", false, true),
            _ => ("unsafe block", false, false),
        };
        if is_fn {
            rep.counts.fns += 1;
        } else if is_impl {
            rep.counts.impls += 1;
        } else {
            rep.counts.blocks += 1;
        }
        let anchor = anchor_line(toks, i);
        let ok = safety_above(ctx, anchor, is_impl)
            || (anchor != t.line && safety_above(ctx, t.line, is_impl));
        if !ok {
            let hint = if is_fn {
                "document the caller contract in a `/// # Safety` section \
                 or a `// SAFETY:` comment"
            } else {
                "state the invariant that makes it sound in a `// SAFETY:` \
                 comment on the preceding line"
            };
            rep.findings.push(ctx.finding(
                codes::UNSAFE_NO_SAFETY,
                "unsafe-audit",
                t.line,
                format!("{what} without an immediately-preceding SAFETY comment; {hint}"),
            ));
        }
    }
}

/// Constructs forbidden inside launch closures, with the contract each
/// one breaks.
const PURITY_BANNED_MACROS: &[(&str, &str)] = &[
    (
        "panic",
        "kernels must stay side-effect-free until committed",
    ),
    ("todo", "kernels must stay side-effect-free until committed"),
    (
        "unimplemented",
        "kernels must stay side-effect-free until committed",
    ),
    ("vec", "the launch fast path is allocation-free"),
    ("format", "the launch fast path is allocation-free"),
];
const PURITY_BANNED_METHODS: &[&str] = &["unwrap", "expect"];
const PURITY_BANNED_PATHS: &[(&str, &str)] = &[("Vec", "new"), ("Box", "new")];

/// Scans `[a, b)` — one launch closure or kernel-body fn, named by
/// `site` in the messages — for purity violations.
fn scan_purity(ctx: &FileCtx<'_>, a: usize, b: usize, site: &str, rep: &mut FileReport) {
    let toks = &ctx.scan.tokens;
    let mut k = a;
    while k < b.min(toks.len()) {
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            if let Some((name, why)) = PURITY_BANNED_MACROS.iter().find(|(m, _)| *m == t.text) {
                if toks.get(k + 1).is_some_and(|n| n.text == "!") {
                    rep.findings.push(ctx.finding(
                        codes::KERNEL_IMPURE,
                        "kernel-purity",
                        t.line,
                        format!("`{name}!` inside {site}: {why}"),
                    ));
                    k += 2;
                    continue;
                }
            }
            if PURITY_BANNED_METHODS.contains(&t.text.as_str())
                && k > 0
                && toks[k - 1].text == "."
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
            {
                rep.findings.push(ctx.finding(
                    codes::KERNEL_IMPURE,
                    "kernel-purity",
                    t.line,
                    format!(
                        "`.{}()` inside {site}: a failed kernel must \
                         reject before side effects, not panic mid-block",
                        t.text
                    ),
                ));
            }
            if let Some((ty, m)) = PURITY_BANNED_PATHS.iter().find(|(ty, _)| *ty == t.text) {
                if toks.get(k + 1).is_some_and(|n| n.text == ":")
                    && toks.get(k + 2).is_some_and(|n| n.text == ":")
                    && toks.get(k + 3).is_some_and(|n| n.text == *m)
                {
                    rep.findings.push(ctx.finding(
                        codes::KERNEL_IMPURE,
                        "kernel-purity",
                        t.line,
                        format!(
                            "`{ty}::{m}` inside {site}: the launch fast \
                             path is allocation-free"
                        ),
                    ));
                    k += 4;
                    continue;
                }
            }
        }
        k += 1;
    }
}

/// Backwards search for `let <name> = …;` so closures bound to a
/// variable and then passed to `launch` are scanned too. Best-effort
/// and single-file; a binding that cannot be found is skipped.
fn find_binding(toks: &[Token], before: usize, name: &str) -> Option<(usize, usize)> {
    let mut k = before;
    while k >= 2 {
        k -= 1;
        if toks[k].text == name
            && toks[k - 1].text == "let"
            && toks.get(k + 1).is_some_and(|t| t.text == "=")
        {
            // Forward to the terminating `;` at delimiter depth 0.
            let mut depth = 0i64;
            let mut j = k + 2;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => return Some((k + 2, j)),
                    _ => {}
                }
                j += 1;
            }
            return None;
        }
    }
    None
}

/// How [`scan_purity`] names a launch-closure region.
const LAUNCH_CLOSURE: &str = "a launch closure";

/// L2 over kernel-body helpers. A launch closure may hand its
/// `BlockCtx` to a named fn (`syrk_tile_math`, `fused_step_math`, …),
/// and only code that runs inside a block can receive one, so every
/// non-test fn whose signature takes a `BlockCtx` is held to the same
/// purity contract as the closures themselves.
fn lint_kernel_fns(ctx: &FileCtx<'_>, rep: &mut FileReport) {
    let toks = &ctx.scan.tokens;
    for k in 0..toks.len() {
        let Some(item) = fn_item_at(toks, k) else {
            continue;
        };
        let Some(close) = item.body_close else {
            continue;
        };
        // `F: Fn(&mut BlockCtx)` is the executor's side of the contract
        // (`Device::launch`, `run_blocks_into`): it takes a kernel, not a
        // block context, so closure-trait argument lists do not count.
        let mut takes_ctx = false;
        let mut j = item.name + 1;
        while j < item.sig_end {
            let t = &toks[j];
            if matches!(t.text.as_str(), "Fn" | "FnMut" | "FnOnce")
                && toks.get(j + 1).is_some_and(|n| n.text == "(")
            {
                j = match_delim(toks, j + 1);
            } else if t.kind == TokKind::Ident && t.text == "BlockCtx" {
                takes_ctx = true;
                break;
            }
            j += 1;
        }
        if takes_ctx && !ctx.in_test(toks[k].line) {
            let site = format!(
                "kernel-body fn `{}` (takes `BlockCtx`)",
                toks[item.name].text
            );
            scan_purity(ctx, item.sig_end + 1, close, &site, rep);
        }
    }
}

/// L2 + L4 over every `.launch(...)` call site.
fn lint_launch_sites(ctx: &FileCtx<'_>, rep: &mut FileReport) {
    let toks = &ctx.scan.tokens;
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || t.text != "launch"
            || toks[i - 1].text != "."
            || toks.get(i + 1).is_none_or(|n| n.text != "(")
            || ctx.in_test(t.line)
        {
            continue;
        }
        let close = match_delim(toks, i + 1);
        if close >= toks.len() {
            continue;
        }

        // L4: a kernel name must be an interned expression, not an
        // inline literal. The name is `launch`'s first argument.
        if let Some(first) = toks.get(i + 2) {
            if first.kind == TokKind::Str {
                rep.findings.push(ctx.finding(
                    codes::UNINTERNED_NAME,
                    "intern",
                    first.line,
                    format!(
                        "kernel name {} passed as an inline string literal; route \
                         it through `kname` / `vbatch_gpu_sim::intern` so the \
                         kernel vocabulary stays enumerable",
                        first.text
                    ),
                ));
            }
        }

        // L2 over the whole argument region (inline closures)…
        scan_purity(ctx, i + 2, close, LAUNCH_CLOSURE, rep);
        // …and over single-ident arguments bound earlier in the
        // same function (`let kernel = move |ctx| {…};`).
        let mut args: Vec<(usize, usize)> = Vec::new();
        let mut depth = 0i64;
        let mut start = i + 2;
        for (k, tok) in toks.iter().enumerate().take(close).skip(i + 2) {
            if tok.kind == TokKind::Punct {
                match tok.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => {
                        args.push((start, k));
                        start = k + 1;
                    }
                    _ => {}
                }
            }
        }
        if start < close {
            args.push((start, close));
        }
        for (a, b) in args {
            if b == a + 1 && toks[a].kind == TokKind::Ident {
                if let Some((ba, bb)) = find_binding(toks, i, &toks[a].text) {
                    scan_purity(ctx, ba, bb, LAUNCH_CLOSURE, rep);
                }
            }
        }
    }
}

/// L5: `thread::spawn` / `thread::scope` / `thread::Builder` anywhere
/// but the audited worker pool. Matches the `thread :: <member>` token
/// triple, so `std::thread::spawn`, `thread::spawn` and a
/// `use std::thread;`-style qualified call are all caught.
fn lint_threading(ctx: &FileCtx<'_>, rep: &mut FileReport) {
    let toks = &ctx.scan.tokens;
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "thread" || ctx.in_test(t.line) {
            continue;
        }
        if !(toks.get(k + 1).is_some_and(|n| n.text == ":")
            && toks.get(k + 2).is_some_and(|n| n.text == ":"))
        {
            continue;
        }
        let Some(member) = toks.get(k + 3) else {
            continue;
        };
        if member.kind == TokKind::Ident && THREADING_BANNED.contains(&member.text.as_str()) {
            rep.findings.push(ctx.finding(
                codes::ADHOC_THREADING,
                "threading",
                t.line,
                format!(
                    "`thread::{}` outside the host worker pool: route host \
                     parallelism through `vbatch_gpu_sim::workers::WorkerPool` so \
                     thread count, naming and the bit-identity contract stay \
                     centralized",
                    member.text
                ),
            ));
        }
    }
}

/// L3: wall clocks, ambient RNG and unordered containers are banned in
/// the deterministic paths.
fn lint_determinism(ctx: &FileCtx<'_>, rep: &mut FileReport) {
    for t in &ctx.scan.tokens {
        if t.kind == TokKind::Ident
            && NONDET_IDENTS.contains(&t.text.as_str())
            && !ctx.in_test(t.line)
        {
            let why = match t.text.as_str() {
                "Instant" | "SystemTime" => {
                    "wall-clock reads in a sim path break the bit-exact \
                     clock/energy goldens; charge the simulated clock instead"
                }
                "thread_rng" => "ambient RNG is unseeded; take a seeded generator from the caller",
                _ => {
                    "unordered iteration is observable in accumulation order; \
                     use BTreeMap/BTreeSet or a sorted Vec"
                }
            };
            rep.findings.push(ctx.finding(
                codes::NONDETERMINISM,
                "determinism",
                t.line,
                format!("`{}` in a determinism-scoped file: {why}", t.text),
            ));
        }
    }
}
