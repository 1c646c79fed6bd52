//! The token lints: the checks that need the source text itself, run
//! one file at a time over its token/comment stream. None needs type
//! information:
//!
//! * **`unsafe` census** — every `unsafe` block, fn, impl or trait
//!   outside `#[cfg(test)]` is counted; [`crate::run_check`] holds
//!   each crate's total to its `analyze.toml` budget (`VBA002` over
//!   budget, `VBA003` below it).
//! * **`kernel-purity`** (`VBA101`) — closures passed to
//!   `Device::launch`, and the body of any fn whose signature names
//!   `BlockCtx` (a helper such closures call), must not contain
//!   `panic!`, `.unwrap()`, `.expect()`, `Vec::new`, `vec!`,
//!   `Box::new` or `format!`: simulated kernels must be side-effect
//!   free until committed (fault injection rejects *before* blocks
//!   run, so a retried launch must be repeatable) and allocation-free
//!   (the zero-alloc launch contract).
//! * **`intern`** (`VBA301`) — kernel-name arguments to `launch` must
//!   not be inline string literals; they route through
//!   `vbatch_gpu_sim::intern` (`kname`, `intern::prefixed`,
//!   `intern::literal`) so the process-wide kernel vocabulary is
//!   enumerable and launch-path allocation-free.
//! * **`send-sync-audit`** (`VBA401`) — the comment above an
//!   `unsafe impl Send/Sync for T` must name `T`, so the justification
//!   cannot silently go stale under a rename or split.
//! * **`double-charge`** (`VBA504`) — two identical consecutive
//!   `BlockCost` charges (same method, same argument tokens, no brace
//!   between them) in a region `VBA101` walks: the copy-paste shape
//!   that makes a kernel pay twice.
//!
//! Findings can be waived in place with
//! `// analyze:allow(<lint or code>): <reason>` on (or immediately
//! above) the offending line; waived findings stay in `ANALYZE.json`
//! with their reason, so the waiver list is reviewable. A waiver without
//! a reason is itself an error (`VBA901`).

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
    /// Stable diagnostic code (`VBA002`…).
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
    /// A crate's `unsafe` count exceeds its `analyze.toml` budget.
    pub const UNSAFE_OVER_BUDGET: &str = "VBA002";
    /// A crate's `unsafe` count is *below* its budget (warning) —
    /// ratchet the budget down instead of accumulating stale headroom.
    pub const BUDGET_SLACK: &str = "VBA003";
    /// Forbidden construct inside a launch closure or a kernel-body fn
    /// (one whose signature names `BlockCtx`).
    pub const KERNEL_IMPURE: &str = "VBA101";
    /// Inline string literal as a kernel name.
    pub const UNINTERNED_NAME: &str = "VBA301";
    /// `unsafe impl Send/Sync` whose comment does not name the type.
    pub const SEND_SYNC_UNNAMED: &str = "VBA401";
    /// Identical consecutive `BlockCost` charge (copy-paste double
    /// charge).
    pub const LAUNCH_DOUBLE_CHARGED: &str = "VBA504";
    /// An `analyze:allow` directive without a reason.
    pub const ALLOW_NO_REASON: &str = "VBA901";
}

/// Charge methods on `BlockCtx` (`crates/gpu-sim/src/cost.rs`).
const CHARGE_METHODS: &[&str] = &[
    "dp_flops",
    "sp_flops",
    "flops",
    "gmem_read",
    "gmem_write",
    "smem_traffic",
];

/// Free-function charge helpers (`crates/vbatch-core/src/kernels.rs`).
const CHARGE_HELPERS: &[&str] = &["charge_flops", "charge_read", "charge_write", "charge_smem"];

/// Analyzes one file's source. `path` should be workspace-relative with
/// `/` separators (it labels findings).
#[must_use]
pub fn analyze_source(path: &str, src: &str) -> FileReport {
    let s = scan(src);
    let ctx = FileCtx::new(path, &s);
    let mut rep = FileReport::default();
    count_unsafe(&ctx, &mut rep);
    lint_send_sync(&ctx, &mut rep);
    lint_launch_sites(&ctx, &mut rep);
    lint_kernel_fns(&ctx, &mut rep);
    for d in ctx.allows.iter().filter(|d| d.reason.is_empty()) {
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
    rep.findings
        .sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    rep
}

/// An `analyze:allow(<lint>): reason` directive.
struct AllowDirective {
    lint: String,
    reason: String,
    /// Line of the directive comment.
    line: u32,
    /// First code line at or below the directive — the line it waives.
    target: u32,
}

/// Pre-computed per-file context shared by the lints.
struct FileCtx<'a> {
    path: &'a str,
    scan: &'a Scan,
    /// Line ranges (inclusive) of `#[cfg(test)] mod … { … }` bodies.
    test_regions: Vec<(u32, u32)>,
    allows: Vec<AllowDirective>,
}

impl<'a> FileCtx<'a> {
    fn new(path: &'a str, s: &'a Scan) -> Self {
        let toks = &s.tokens;

        // #[cfg(test)] mod regions.
        let mut test_regions = Vec::new();
        let mut i = 0;
        while i + 6 < toks.len() {
            let is_cfg_test = ["#", "[", "cfg", "(", "test", ")", "]"]
                .iter()
                .enumerate()
                .all(|(k, want)| toks[i + k].text == *want);
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

        // analyze:allow directives.
        let mut allows = Vec::new();
        for c in &s.comments {
            let Some(pos) = c.text.find("analyze:allow(") else {
                continue;
            };
            let rest = &c.text[pos + "analyze:allow(".len()..];
            let Some(cl) = rest.find(')') else {
                continue;
            };
            // Waives the first code line at or below it.
            let mut target = c.line_end;
            if !s.has_code(target) {
                target += 1;
                while (target as usize) < s.code_lines.len() && !s.has_code(target) {
                    target += 1;
                }
            }
            allows.push(AllowDirective {
                lint: rest[..cl].trim().to_string(),
                reason: rest[cl + 1..]
                    .trim_start_matches([':', '-', ' '])
                    .trim()
                    .to_string(),
                line: c.line_start,
                target,
            });
        }

        Self {
            path,
            scan: s,
            test_regions,
            allows,
        }
    }

    fn in_test(&self, line: u32) -> bool {
        self.test_regions
            .iter()
            .any(|&(a, b)| a <= line && line <= b)
    }

    /// Checks the waiver list, producing either an allowed or an active
    /// finding.
    fn finding(
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
                // A directive may name the lint ("kernel-purity") or the
                // stable code ("VBA101").
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

/// The census the budgets cap: every non-test `unsafe` token, by kind.
fn count_unsafe(ctx: &FileCtx<'_>, rep: &mut FileReport) {
    let toks = &ctx.scan.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "unsafe" || ctx.in_test(t.line) {
            continue;
        }
        match toks.get(i + 1).map_or("", |n| n.text.as_str()) {
            "fn" | "extern" => rep.counts.fns += 1,
            "impl" | "trait" => rep.counts.impls += 1,
            _ => rep.counts.blocks += 1,
        }
    }
}

/// VBA401: `unsafe impl<…> Send|Sync for T` needs `T` named in the
/// comment run directly above it (attribute lines are crossed).
fn lint_send_sync(ctx: &FileCtx<'_>, rep: &mut FileReport) {
    let toks = &ctx.scan.tokens;
    for k in 0..toks.len() {
        if toks[k].text != "unsafe"
            || toks.get(k + 1).is_none_or(|n| n.text != "impl")
            || ctx.in_test(toks[k].line)
        {
            continue;
        }
        // The trait is the last identifier outside `<…>` before `for`.
        let (mut j, mut angle, mut trait_name) = (k + 2, 0i64, "");
        while let Some(t) = toks.get(j) {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "for" | "{" | ";" if angle <= 0 => break,
                _ if angle <= 0 && t.kind == TokKind::Ident => trait_name = &t.text,
                _ => {}
            }
            j += 1;
        }
        if !matches!(trait_name, "Send" | "Sync") || toks.get(j).is_none_or(|t| t.text != "for") {
            continue;
        }
        let Some(ty) = toks[j + 1..].iter().find(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !comment_above(ctx.scan, toks[k].line).contains(&ty.text) {
            rep.findings.push(ctx.finding(
                codes::SEND_SYNC_UNNAMED,
                "send-sync-audit",
                toks[k].line,
                format!(
                    "`unsafe impl {trait_name} for {}` whose SAFETY comment does not \
                     name `{}`; name the audited wrapper type so the justification \
                     cannot silently go stale under a rename",
                    ty.text, ty.text
                ),
            ));
        }
    }
}

/// The comment run directly above `line`, crossing attribute lines.
fn comment_above(s: &Scan, line: u32) -> String {
    let mut text = String::new();
    let mut l = line;
    while l > 1 {
        l -= 1;
        let attr = s
            .tokens
            .iter()
            .find(|t| t.line == l)
            .is_some_and(|t| t.text == "#");
        if s.has_code(l) && !attr {
            break;
        }
        match s.comment_text_on(l) {
            Some(c) => text.push_str(&c),
            None if !attr => break,
            None => {}
        }
    }
    text
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
/// `site` in the messages — for purity violations (VBA101) and
/// identical consecutive charges (VBA504).
fn scan_region(ctx: &FileCtx<'_>, a: usize, b: usize, site: &str, rep: &mut FileReport) {
    let toks = &ctx.scan.tokens;
    let b = b.min(toks.len());
    let mut impure = |line: u32, message: String| {
        rep.findings
            .push(ctx.finding(codes::KERNEL_IMPURE, "kernel-purity", line, message));
    };
    let mut k = a;
    while k < b {
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            if let Some((name, why)) = PURITY_BANNED_MACROS.iter().find(|(m, _)| *m == t.text) {
                if toks.get(k + 1).is_some_and(|n| n.text == "!") {
                    impure(t.line, format!("`{name}!` inside {site}: {why}"));
                    k += 2;
                    continue;
                }
            }
            if PURITY_BANNED_METHODS.contains(&t.text.as_str())
                && k > 0
                && toks[k - 1].text == "."
                && toks.get(k + 1).is_some_and(|n| n.text == "(")
            {
                impure(
                    t.line,
                    format!(
                        "`.{}()` inside {site}: a failed kernel must reject before \
                         side effects, not panic mid-block",
                        t.text
                    ),
                );
            }
            if let Some((ty, m)) = PURITY_BANNED_PATHS.iter().find(|(ty, _)| *ty == t.text) {
                if toks.get(k + 1).is_some_and(|n| n.text == ":")
                    && toks.get(k + 2).is_some_and(|n| n.text == ":")
                    && toks.get(k + 3).is_some_and(|n| n.text == *m)
                {
                    impure(
                        t.line,
                        format!(
                            "`{ty}::{m}` inside {site}: the launch fast path is allocation-free"
                        ),
                    );
                    k += 4;
                    continue;
                }
            }
        }
        k += 1;
    }

    let charges = charges_in(toks, a, b);
    for w in charges.windows(2) {
        let ((pk, pm, pargs), (qk, qm, qargs)) = (&w[0], &w[1]);
        let same_block = !toks[*pk..=*qk]
            .iter()
            .any(|t| t.text == "{" || t.text == "}");
        if pm == qm && pargs == qargs && same_block {
            rep.findings.push(ctx.finding(
                codes::LAUNCH_DOUBLE_CHARGED,
                "double-charge",
                toks[*qk].line,
                format!(
                    "`{qm}({qargs})` charged twice in a row with identical arguments \
                     inside {site} — the copy-paste double-charge shape; delete one \
                     or make the second charge's cost expression distinct"
                ),
            ));
        }
    }
}

/// The direct `BlockCost` charges in `[a, b)`: token index, method and
/// argument tokens joined by spaces.
fn charges_in(toks: &[Token], a: usize, b: usize) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    for k in a..b {
        let t = &toks[k];
        let method = CHARGE_METHODS.contains(&t.text.as_str())
            && k > 0
            && toks[k - 1].text == "."
            && toks.get(k + 1).is_some_and(|n| n.text == "(");
        // Helpers take an optional turbofish: charge_flops::<T>(…).
        let helper = CHARGE_HELPERS.contains(&t.text.as_str())
            && toks
                .get(k + 1)
                .is_some_and(|n| n.text == "(" || n.text == ":");
        if t.kind != TokKind::Ident || !(method || helper) {
            continue;
        }
        let Some(open) = (k + 1..b).find(|&o| toks[o].text == "(") else {
            continue;
        };
        let close = match_delim(toks, open).min(toks.len());
        let args: Vec<&str> = toks[open + 1..close]
            .iter()
            .map(|t| t.text.as_str())
            .collect();
        out.push((k, t.text.clone(), args.join(" ")));
    }
    out
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
            for (j, t) in toks.iter().enumerate().skip(k + 2) {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => return Some((k + 2, j)),
                    _ => {}
                }
            }
            return None;
        }
    }
    None
}

/// How [`scan_region`] names a launch-closure region.
const LAUNCH_CLOSURE: &str = "a launch closure";

/// VBA101/VBA504 over kernel-body helpers. A launch closure may hand
/// its `BlockCtx` to a named fn (`syrk_tile_math`, `fused_step_math`,
/// …), and only code that runs inside a block can receive one, so every
/// non-test fn whose signature takes a `BlockCtx` is held to the same
/// contract as the closures themselves.
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
            scan_region(ctx, item.sig_end + 1, close, &site, rep);
        }
    }
}

/// VBA101 + VBA301 + VBA504 over every `.launch(...)` call site.
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

        // VBA301: a kernel name must be an interned expression, not an
        // inline literal. The name is `launch`'s first argument.
        if let Some(first) = toks.get(i + 2).filter(|f| f.kind == TokKind::Str) {
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

        // The whole argument region (inline closures)…
        scan_region(ctx, i + 2, close, LAUNCH_CLOSURE, rep);
        // …and single-ident arguments bound earlier in the same
        // function (`let kernel = move |ctx| {…};`).
        let mut depth = 0i64;
        let mut start = i + 2;
        for k in i + 2..=close {
            match toks[k].text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" if k < close => depth -= 1,
                "," | ")" if depth == 0 => {
                    if k == start + 1 && toks[start].kind == TokKind::Ident {
                        if let Some((ba, bb)) = find_binding(toks, i, &toks[start].text) {
                            scan_region(ctx, ba, bb, LAUNCH_CLOSURE, rep);
                        }
                    }
                    start = k + 1;
                }
                _ => {}
            }
        }
    }
}
