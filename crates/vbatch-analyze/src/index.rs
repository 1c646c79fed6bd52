//! Phase 1 of the two-phase analyzer: a cross-crate index of the
//! workspace, built from the token streams of every scanned file.
//!
//! The index records, per file:
//!
//! * **function definitions** — name, span, `pub`-ness, test context,
//!   the set of call-site identifiers inside the body, and whether the
//!   body charges `BlockCost` directly;
//! * **launch sites** — `Device::launch` / `Device::stream_group` /
//!   `StreamGroup::launch` calls with their kernel-name expression
//!   *resolved* through the same interning vocabulary the runtime uses
//!   (`kname::<T>`, `intern::literal`, `intern::prefixed`, and local
//!   `*_kname()` helper functions are all chased);
//! * **`unsafe impl Send/Sync` wrappers** — the implemented type plus
//!   the adjacent SAFETY comment text;
//! * **pool `take` sites** — the bound buffer and whether the rest of
//!   the function reclaims, rewrites, or hands it onward;
//! * **fault-injection launch matchers** — `transient_launch`
//!   substrings, checked against the resolved kernel registry.
//!
//! Phase 2 ([`crate::passes`]) runs graph and dataflow lints over this
//! index; [`crate::report`] emits it as the `graph` section of
//! `ANALYZE.json` so CI can diff kernel-registry drift.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::{fn_item_at, match_delim, TokKind, Token};
use crate::lints::FileCtx;

/// Charge methods on `BlockCtx` (`crates/gpu-sim/src/cost.rs`).
pub const CHARGE_METHODS: &[&str] = &[
    "dp_flops",
    "sp_flops",
    "flops",
    "gmem_read",
    "gmem_write",
    "smem_traffic",
];

/// Free-function charge helpers (`crates/vbatch-core/src/kernels.rs`).
pub const CHARGE_HELPERS: &[&str] = &["charge_flops", "charge_read", "charge_write", "charge_smem"];

/// One function definition.
#[derive(Debug)]
pub struct FnDef {
    pub name: String,
    pub line: u32,
    /// Bare `pub` (not `pub(crate)`), i.e. a public driver entry.
    pub is_pub: bool,
    pub is_test: bool,
    /// Token range of the signature (just past the name up to the body
    /// `{`).
    pub sig: (usize, usize),
    /// Token indices of the body `{` and its matching `}`.
    pub body: (usize, usize),
    /// Identifiers called from the body (free fns and method names).
    pub calls: BTreeSet<String>,
    /// Body contains a direct `BlockCost` charge call.
    pub charges: bool,
}

/// How a launch site's kernel-name argument resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameRes {
    /// Resolved to one or more interned names (generic `kname::<T>`
    /// yields both precision prefixes).
    Resolved(Vec<String>),
    /// `StreamGroup::launch(cfg, f)` — the name lives on the
    /// `stream_group` site that created the group.
    Group,
    /// Could not be resolved statically; carries the expression text.
    Unresolved(String),
}

/// The kind of launch-path call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchKind {
    /// `Device::launch(name, cfg, f)`.
    Launch,
    /// `Device::stream_group(name)`.
    StreamGroup,
    /// `StreamGroup::launch(cfg, f)` (two arguments, no name).
    GroupLaunch,
}

impl LaunchKind {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LaunchKind::Launch => "launch",
            LaunchKind::StreamGroup => "stream_group",
            LaunchKind::GroupLaunch => "group_launch",
        }
    }
}

/// One direct `BlockCost` charge inside a closure region.
#[derive(Debug)]
pub struct ChargeSite {
    pub method: String,
    /// Canonical argument text (joined token texts) for duplicate
    /// detection.
    pub args: String,
    pub line: u32,
    pub tok: usize,
}

/// One `launch`/`stream_group` call site.
#[derive(Debug)]
pub struct LaunchSite {
    pub line: u32,
    pub kind: LaunchKind,
    /// Index into the file's `fns` of the enclosing function.
    pub fn_idx: Option<usize>,
    pub is_test: bool,
    pub resolution: NameRes,
    /// Token range `[a, b)` of the closure body argument, when present.
    pub closure: Option<(usize, usize)>,
    pub charges: Vec<ChargeSite>,
    /// Call identifiers inside the closure (for transitive charge
    /// chasing).
    pub closure_calls: BTreeSet<String>,
}

/// One `unsafe impl Send/Sync for T` site.
#[derive(Debug)]
pub struct UnsafeImplSite {
    pub line: u32,
    pub trait_name: String,
    pub type_name: String,
    /// Adjacent comment text (the SAFETY run above the impl group).
    pub comment: String,
    pub is_test: bool,
}

/// One pool `take` binding.
#[derive(Debug)]
pub struct PoolTake {
    pub line: u32,
    pub binding: String,
    /// Taken from a metadata-carrying pool (`.meta`/`.ptrs`), so its
    /// contents are length-dependent and must be rewritten per window.
    pub meta_like: bool,
    pub is_test: bool,
    /// The binding escapes the function (moved out, passed on, or
    /// reclaimed) on some path.
    pub escapes: bool,
    /// The binding's contents are rewritten before use
    /// (`fill_from_host`/`copy_from_host`/`write*`, or a derived
    /// `.ptr()` handle that is `.set(…)`/`.fill(…)`-ed).
    pub rewritten: bool,
}

/// One `transient_launch("substr", …)` fault matcher.
#[derive(Debug)]
pub struct FaultMatcher {
    pub line: u32,
    pub substring: String,
    pub is_test: bool,
}

/// Per-file slice of the index.
pub struct FileIndex<'a> {
    pub ctx: &'a FileCtx<'a>,
    pub fns: Vec<FnDef>,
    pub launches: Vec<LaunchSite>,
    pub unsafe_impls: Vec<UnsafeImplSite>,
    pub takes: Vec<PoolTake>,
    pub matchers: Vec<FaultMatcher>,
}

/// The whole-workspace index.
pub struct Index<'a> {
    pub files: Vec<FileIndex<'a>>,
    /// fn name → (file index, fn index) for every definition.
    pub fn_map: BTreeMap<String, Vec<(usize, usize)>>,
    /// Resolved kernel names launched from non-test code.
    pub kernels: BTreeSet<String>,
    /// Resolved kernel names seen only from test-context launches.
    pub test_kernels: BTreeSet<String>,
}

impl<'a> Index<'a> {
    /// Builds the index over every scanned file, then resolves kernel
    /// names (which needs the cross-file `fn_map` for `*_kname()`
    /// helper chasing).
    #[must_use]
    pub fn build(ctxs: &'a [FileCtx<'a>]) -> Self {
        let files: Vec<FileIndex<'a>> = ctxs.iter().map(index_file).collect();
        let mut fn_map: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, d) in f.fns.iter().enumerate() {
                fn_map.entry(d.name.clone()).or_default().push((fi, gi));
            }
        }
        let mut idx = Index {
            files,
            fn_map,
            kernels: BTreeSet::new(),
            test_kernels: BTreeSet::new(),
        };
        idx.resolve_names();
        idx
    }

    /// Resolves every launch site's name expression and fills the
    /// kernel registries.
    fn resolve_names(&mut self) {
        let mut resolved: Vec<Vec<NameRes>> = Vec::with_capacity(self.files.len());
        for f in &self.files {
            let mut per_file = Vec::with_capacity(f.launches.len());
            for site in &f.launches {
                let res = match &site.resolution {
                    NameRes::Unresolved(expr) => self.resolve_expr(f, expr),
                    other => other.clone(),
                };
                per_file.push(res);
            }
            resolved.push(per_file);
        }
        for (f, per_file) in self.files.iter_mut().zip(resolved) {
            for (site, res) in f.launches.iter_mut().zip(per_file) {
                if let NameRes::Resolved(names) = &res {
                    for n in names {
                        if site.is_test {
                            self.test_kernels.insert(n.clone());
                        } else {
                            self.kernels.insert(n.clone());
                        }
                    }
                }
                site.resolution = res;
            }
        }
        // A name launched from src is not "test-only".
        let prod: Vec<String> = self.kernels.iter().cloned().collect();
        for n in prod {
            self.test_kernels.remove(&n);
        }
    }

    /// Resolves one kernel-name expression (token texts joined with
    /// spaces, as recorded by [`index_file`]).
    fn resolve_expr(&self, file: &FileIndex<'a>, expr: &str) -> NameRes {
        let toks: Vec<&str> = expr.split(' ').filter(|s| !s.is_empty()).collect();
        if let Some(names) = resolve_tokens(&toks) {
            return NameRes::Resolved(names);
        }
        // A single identifier: either a local `let` binding (resolved
        // by the indexer before we get here) or a zero-arg helper —
        // `imax_kname()`-style OnceLock wrappers around
        // `intern::literal`/`intern::prefixed`.
        if toks.len() >= 2 && toks[1] == "(" {
            if let Some(defs) = self.fn_map.get(toks[0]) {
                let mut names = BTreeSet::new();
                for &(fi, gi) in defs {
                    let d = &self.files[fi].fns[gi];
                    let body = &self.files[fi].ctx.scan.tokens[d.body.0..=d.body.1];
                    collect_intern_calls(body, &mut names);
                }
                if !names.is_empty() {
                    return NameRes::Resolved(names.into_iter().collect());
                }
            }
        }
        let _ = file;
        NameRes::Unresolved(expr.to_string())
    }

    /// Whether any resolved kernel name (src or test) contains `sub`.
    #[must_use]
    pub fn any_kernel_contains(&self, sub: &str) -> bool {
        self.kernels.iter().any(|k| k.contains(sub))
            || self.test_kernels.iter().any(|k| k.contains(sub))
    }

    /// Fn names reachable from public entry points (bare `pub` fns,
    /// `main`, and test functions — tests are entry points).
    #[must_use]
    pub fn reachable_fns(&self) -> BTreeSet<String> {
        let mut reach: BTreeSet<String> = BTreeSet::new();
        let mut work: Vec<(usize, usize)> = Vec::new();
        for (fi, f) in self.files.iter().enumerate() {
            for (gi, d) in f.fns.iter().enumerate() {
                if d.is_pub || d.is_test || d.name == "main" {
                    work.push((fi, gi));
                    reach.insert(d.name.clone());
                }
            }
        }
        let mut visited: BTreeSet<(usize, usize)> = work.iter().copied().collect();
        while let Some((fi, gi)) = work.pop() {
            let calls = self.files[fi].fns[gi].calls.clone();
            for name in calls {
                if let Some(defs) = self.fn_map.get(&name) {
                    reach.insert(name.clone());
                    for &t in defs {
                        if visited.insert(t) {
                            work.push(t);
                        }
                    }
                }
            }
        }
        reach
    }

    /// Whether `name` (or anything transitively called from it, up to
    /// `depth` hops) charges `BlockCost`.
    #[must_use]
    pub fn charges_transitively(&self, name: &str, depth: u32) -> bool {
        if depth == 0 {
            return false;
        }
        let Some(defs) = self.fn_map.get(name) else {
            return false;
        };
        for &(fi, gi) in defs {
            let d = &self.files[fi].fns[gi];
            if d.charges {
                return true;
            }
            for callee in &d.calls {
                if callee != name && self.charges_transitively(callee, depth - 1) {
                    return true;
                }
            }
        }
        false
    }
}

/// Joins a token range into the canonical space-separated text used
/// for name-expression resolution and duplicate-charge detection.
fn tok_text(toks: &[Token], a: usize, b: usize) -> String {
    let mut s = String::new();
    for t in toks.iter().take(b.min(toks.len())).skip(a) {
        if !s.is_empty() {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

/// Strips the surrounding quotes from a string-literal token text.
fn unquote(text: &str) -> String {
    text.trim_start_matches(['r', '#'])
        .trim_matches('#')
        .trim_matches('"')
        .to_string()
}

/// Resolves a name expression already split into token texts. Handles
/// the closed set of interning idioms:
/// `"lit"` (test-only), `kname::<T>("base")`, `intern::literal("x")`,
/// `vbatch_gpu_sim::intern::literal("x")`, `intern::prefixed("a","b")`.
fn resolve_tokens(toks: &[&str]) -> Option<Vec<String>> {
    if toks.len() == 1 && toks[0].starts_with('"') {
        return Some(vec![unquote(toks[0])]);
    }
    // Strip a leading path qualifier (`vbatch_gpu_sim :: intern :: …`
    // → `intern :: …`).
    let toks = if toks.len() > 2 && toks[0] == "vbatch_gpu_sim" && toks[1] == ":" && toks[2] == ":"
    {
        &toks[3..]
    } else {
        toks
    };
    if toks.first() == Some(&"kname") {
        // kname ( "base" )  |  kname :: < T > ( "base" )
        let (ty, rest) = if toks.get(1) == Some(&":") && toks.get(3) == Some(&"<") {
            (toks.get(4).copied(), &toks[5..])
        } else {
            (None, &toks[1..])
        };
        let open = rest.iter().position(|t| *t == "(")?;
        let lit = rest.get(open + 1)?;
        if !lit.starts_with('"') {
            return None;
        }
        let base = unquote(lit);
        return Some(match ty {
            Some("f32") => vec![format!("s{base}")],
            Some("f64") => vec![format!("d{base}")],
            // Generic parameter: both precisions are instantiable.
            _ => vec![format!("d{base}"), format!("s{base}")],
        });
    }
    if toks.first() == Some(&"intern") && toks.get(1) == Some(&":") && toks.get(2) == Some(&":") {
        let f = toks.get(3)?;
        if *f == "literal" && toks.get(4) == Some(&"(") {
            let lit = toks.get(5)?;
            if lit.starts_with('"') {
                return Some(vec![unquote(lit)]);
            }
        }
        if *f == "prefixed" && toks.get(4) == Some(&"(") {
            let (p, b) = (toks.get(5)?, toks.get(7)?);
            if p.starts_with('"') && b.starts_with('"') && toks.get(6) == Some(&",") {
                return Some(vec![format!("{}{}", unquote(p), unquote(b))]);
            }
        }
    }
    None
}

/// Scans a token slice for `literal("x")` / `prefixed("a", "b")` calls
/// (used to chase `*_kname()` helper bodies).
fn collect_intern_calls(toks: &[Token], out: &mut BTreeSet<String>) {
    for (k, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "literal"
            && toks.get(k + 1).is_some_and(|n| n.text == "(")
            && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Str)
        {
            out.insert(unquote(&toks[k + 2].text));
        }
        if t.text == "prefixed"
            && toks.get(k + 1).is_some_and(|n| n.text == "(")
            && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Str)
            && toks.get(k + 3).is_some_and(|n| n.text == ",")
            && toks.get(k + 4).is_some_and(|n| n.kind == TokKind::Str)
        {
            out.insert(format!(
                "{}{}",
                unquote(&toks[k + 2].text),
                unquote(&toks[k + 4].text)
            ));
        }
    }
}

const KEYWORDS: &[&str] = &[
    "if", "else", "for", "while", "loop", "match", "return", "let", "fn", "in", "as", "move",
    "mut", "ref", "pub", "use", "mod", "impl", "struct", "enum", "trait", "where", "unsafe",
    "const", "static", "break", "continue", "else", "true", "false", "self", "Self", "super",
    "crate", "dyn", "async", "await", "type",
];

/// Splits a call's argument region `(a, b)` (token indices just inside
/// the parens) at top-level commas.
fn split_args(toks: &[Token], a: usize, b: usize) -> Vec<(usize, usize)> {
    let mut args = Vec::new();
    let mut depth = 0i64;
    let mut start = a;
    for (k, tok) in toks.iter().enumerate().take(b).skip(a) {
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
        // `|closure_param|` bodies hide commas at depth 0 only when
        // braced, which the brace counting above already covers.
    }
    if start < b {
        args.push((start, b));
    }
    args
}

/// The dotted identifier chain immediately preceding token `dot_idx`
/// (which must be the `.` of a method call): `pools . meta` → the
/// idents `[pools, meta]`. Stops at anything that is not `ident`, `.`
/// or `::`.
pub(crate) fn receiver_chain(toks: &[Token], dot_idx: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut k = dot_idx;
    loop {
        if k == 0 {
            break;
        }
        let t = &toks[k - 1];
        if t.kind == TokKind::Ident {
            chain.push(t.text.clone());
            if k >= 3
                && toks[k - 2].text == "."
                && (toks[k - 3].kind == TokKind::Ident || toks[k - 3].text == ")")
            {
                k -= 2;
                continue;
            }
        }
        break;
    }
    chain.reverse();
    chain
}

/// Collects the direct `BlockCost` charges in `[a, b)`.
fn collect_charges(toks: &[Token], a: usize, b: usize) -> Vec<ChargeSite> {
    let mut out = Vec::new();
    for k in a..b.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        let method = CHARGE_METHODS.contains(&t.text.as_str())
            && k > 0
            && toks[k - 1].text == "."
            && toks.get(k + 1).is_some_and(|n| n.text == "(");
        // Helpers take an optional turbofish: charge_flops::<T>(…).
        let helper = CHARGE_HELPERS.contains(&t.text.as_str())
            && (toks.get(k + 1).is_some_and(|n| n.text == "(")
                || (toks.get(k + 1).is_some_and(|n| n.text == ":")
                    && toks.get(k + 3).is_some_and(|n| n.text == "<")));
        if !(method || helper) {
            continue;
        }
        // Locate the opening paren of the call.
        let mut open = k + 1;
        while open < b.min(toks.len()) && toks[open].text != "(" {
            open += 1;
        }
        if open >= toks.len() || toks[open].text != "(" {
            continue;
        }
        let close = match_delim(toks, open);
        out.push(ChargeSite {
            method: t.text.clone(),
            args: tok_text(toks, open + 1, close),
            line: t.line,
            tok: k,
        });
    }
    out
}

/// Collects call-site identifiers (free fns, methods, turbofish calls)
/// in `[a, b)`, excluding keywords and macro invocations.
fn collect_calls(toks: &[Token], a: usize, b: usize, out: &mut BTreeSet<String>) {
    for k in a..b.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(next) = toks.get(k + 1) else {
            continue;
        };
        let called = match next.text.as_str() {
            "(" => true,
            "!" => false, // macro
            ":" => {
                // `name::<T>(…)` turbofish call.
                toks.get(k + 2).is_some_and(|n| n.text == ":")
                    && toks.get(k + 3).is_some_and(|n| n.text == "<")
            }
            _ => false,
        };
        if called {
            out.insert(t.text.clone());
        }
    }
}

/// Extracts everything [`FileIndex`] records from one file.
fn index_file<'a>(ctx: &'a FileCtx<'a>) -> FileIndex<'a> {
    let toks = &ctx.scan.tokens;

    // ---- function definitions ----
    let mut fns: Vec<FnDef> = Vec::new();
    let mut k = 0;
    while k < toks.len() {
        let Some(item) = fn_item_at(toks, k) else {
            k += 1;
            continue;
        };
        let name_idx = item.name;
        // Qualifiers: walk back over `const/unsafe/async/extern "C"`.
        let mut q = k;
        while q > 0 {
            let p = &toks[q - 1];
            if p.kind == TokKind::Ident
                && matches!(p.text.as_str(), "const" | "unsafe" | "async" | "extern")
                || p.kind == TokKind::Str
            {
                q -= 1;
            } else {
                break;
            }
        }
        // Bare `pub` only: `pub(crate) fn` has `)` directly before the
        // qualifier run and is not a public entry.
        let is_pub = q > 0 && toks[q - 1].text == "pub";
        // A trait method declaration has no body to index.
        let (open, Some(close)) = (item.sig_end, item.body_close) else {
            k = item.sig_end + 1;
            continue;
        };
        let mut calls = BTreeSet::new();
        collect_calls(toks, open + 1, close, &mut calls);
        let charges = !collect_charges(toks, open + 1, close).is_empty();
        fns.push(FnDef {
            name: toks[name_idx].text.clone(),
            line: toks[k].line,
            is_pub,
            is_test: ctx.in_test(toks[k].line),
            sig: (name_idx + 1, open),
            body: (open, close),
            calls,
            charges,
        });
        // Continue *inside* the body too: nested fns are rare but real.
        k = name_idx + 1;
    }

    let enclosing_fn = |tok_idx: usize| -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, d) in fns.iter().enumerate() {
            if d.body.0 < tok_idx && tok_idx < d.body.1 {
                // Innermost wins: later defs with tighter spans.
                if best.is_none_or(|b| fns[b].body.0 < d.body.0) {
                    best = Some(i);
                }
            }
        }
        best
    };

    // ---- launch sites ----
    let mut launches: Vec<LaunchSite> = Vec::new();
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || toks[i - 1].text != "." {
            continue;
        }
        let is_launch = t.text == "launch";
        let is_group = t.text == "stream_group";
        if !(is_launch || is_group) || toks.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        let close = match_delim(toks, i + 1);
        if close >= toks.len() {
            continue;
        }
        let args = split_args(toks, i + 2, close);
        let kind = if is_group {
            LaunchKind::StreamGroup
        } else if args.len() == 2 {
            // `StreamGroup::launch(cfg, f)` — no name argument.
            LaunchKind::GroupLaunch
        } else {
            LaunchKind::Launch
        };
        let resolution = match kind {
            LaunchKind::GroupLaunch => NameRes::Group,
            _ => {
                let (a, b) = args.first().copied().unwrap_or((i + 2, i + 2));
                // A single-ident name chases its local `let` binding.
                if b == a + 1 && toks[a].kind == TokKind::Ident {
                    if let Some((ba, bb)) = let_binding(toks, i, &toks[a].text) {
                        NameRes::Unresolved(tok_text(toks, ba, bb))
                    } else {
                        NameRes::Unresolved(tok_text(toks, a, b))
                    }
                } else {
                    NameRes::Unresolved(tok_text(toks, a, b))
                }
            }
        };
        // Closure argument: the last argument when it is a closure
        // (`move |…| …`, `|…| …`, or `&|…| …`).
        let closure = if kind == LaunchKind::StreamGroup {
            None
        } else {
            args.last().and_then(|&(a, b)| {
                let first = toks.get(a)?;
                let is_closure = first.text == "move" || first.text == "|" || first.text == "&";
                if is_closure {
                    Some((a, b))
                } else if b == a + 1 && first.kind == TokKind::Ident {
                    // Hoisted closure binding.
                    let_binding(toks, i, &first.text)
                } else {
                    None
                }
            })
        };
        let (charges, mut closure_calls) = match closure {
            Some((a, b)) => {
                let mut calls = BTreeSet::new();
                collect_calls(toks, a, b, &mut calls);
                (collect_charges(toks, a, b), calls)
            }
            None => (Vec::new(), BTreeSet::new()),
        };
        for m in CHARGE_METHODS.iter().chain(CHARGE_HELPERS) {
            closure_calls.remove(*m);
        }
        launches.push(LaunchSite {
            line: t.line,
            kind,
            fn_idx: enclosing_fn(i),
            is_test: ctx.in_test(t.line),
            resolution,
            closure,
            charges,
            closure_calls,
        });
    }

    // ---- unsafe impl Send/Sync wrappers ----
    let mut unsafe_impls = Vec::new();
    for k in 0..toks.len() {
        if toks[k].text != "unsafe" || toks.get(k + 1).is_none_or(|n| n.text != "impl") {
            continue;
        }
        // Skip generics after `impl`, find the trait path, then `for`.
        let mut j = k + 2;
        if toks.get(j).is_some_and(|t| t.text == "<") {
            let mut angle = 1i64;
            j += 1;
            while j < toks.len() && angle > 0 {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    _ => {}
                }
                j += 1;
            }
        }
        let mut trait_name = String::new();
        while j < toks.len() && toks[j].text != "for" && toks[j].text != "{" {
            if toks[j].kind == TokKind::Ident {
                trait_name = toks[j].text.clone();
            }
            j += 1;
        }
        if !matches!(trait_name.as_str(), "Send" | "Sync") {
            continue;
        }
        if toks.get(j).is_none_or(|t| t.text != "for") {
            continue;
        }
        let type_name = toks[j + 1..]
            .iter()
            .find(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        unsafe_impls.push(UnsafeImplSite {
            line: toks[k].line,
            trait_name,
            type_name,
            comment: comment_block_above(ctx, toks[k].line),
            is_test: ctx.in_test(toks[k].line),
        });
    }

    // ---- pool takes ----
    let mut takes = Vec::new();
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident
            || t.text != "take"
            || toks[i - 1].text != "."
            || toks.get(i + 1).is_none_or(|n| n.text != "(")
        {
            continue;
        }
        let close = match_delim(toks, i + 1);
        // Zero-arg `.take()` is `Option::take`; iterator `.take(n)` has
        // a call-expression receiver, not a pool-named chain.
        if close == i + 2 {
            continue;
        }
        let chain = receiver_chain(toks, i - 1);
        let pool_like = chain
            .iter()
            .any(|c| c.contains("pool") || matches!(c.as_str(), "mats" | "meta" | "ptrs"));
        if !pool_like {
            continue;
        }
        let meta_like = chain.iter().any(|c| matches!(c.as_str(), "meta" | "ptrs"));
        // The `let <name> = …` statement that binds the buffer.
        let Some((binding, bind_tok)) = binding_of(toks, i) else {
            continue;
        };
        let Some(fidx) = enclosing_fn(i) else {
            continue;
        };
        let (_, fn_end) = fns[fidx].body;
        let after = close + 1;
        let mut escapes = false;
        let mut rewritten = false;
        let mut handle = None::<String>;
        for k in after..fn_end.min(toks.len()) {
            if toks[k].kind != TokKind::Ident {
                continue;
            }
            if toks[k].text == binding && k != bind_tok {
                let next = toks.get(k + 1).map(|n| n.text.as_str()).unwrap_or("");
                if next == "." {
                    let m = toks.get(k + 2).map(|n| n.text.as_str()).unwrap_or("");
                    if m == "fill_from_host" || m == "copy_from_host" || m.starts_with("write") {
                        rewritten = true;
                    } else if m == "ptr"
                        && k >= 2
                        && toks[k - 1].text == "="
                        && toks[k - 2].kind == TokKind::Ident
                    {
                        // `let pi = d_info.ptr();` — rewrites happen
                        // through the derived handle.
                        handle = Some(toks[k - 2].text.clone());
                    }
                } else {
                    // Any non-method use hands the buffer onward:
                    // `Ok((…, d_info, …))`, `storage.push(buf)`,
                    // `pools.meta.reclaim(buf)`, struct literals.
                    escapes = true;
                }
            }
            if let Some(h) = &handle {
                if toks[k].text == *h
                    && toks.get(k + 1).is_some_and(|n| n.text == ".")
                    && toks
                        .get(k + 2)
                        .is_some_and(|n| n.text == "set" || n.text == "fill")
                {
                    rewritten = true;
                }
            }
        }
        takes.push(PoolTake {
            line: t.line,
            binding,
            meta_like,
            is_test: ctx.in_test(t.line),
            escapes,
            rewritten,
        });
    }

    // ---- fault matchers ----
    let mut matchers = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && t.text == "transient_launch"
            && toks.get(k + 1).is_some_and(|n| n.text == "(")
            && toks.get(k + 2).is_some_and(|n| n.kind == TokKind::Str)
        {
            matchers.push(FaultMatcher {
                line: t.line,
                substring: unquote(&toks[k + 2].text),
                is_test: ctx.in_test(t.line),
            });
        }
    }

    FileIndex {
        ctx,
        fns,
        launches,
        unsafe_impls,
        takes,
        matchers,
    }
}

/// Backwards search for `let <name> = …` before token `before`,
/// returning the token range of the right-hand side (up to the
/// terminating `;` at depth 0).
fn let_binding(toks: &[Token], before: usize, name: &str) -> Option<(usize, usize)> {
    let mut k = before;
    while k >= 2 {
        k -= 1;
        if toks[k].text == name
            && toks[k - 1].text == "let"
            && toks.get(k + 1).is_some_and(|t| t.text == "=")
        {
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

/// The `let` binding that receives the call at token `call_idx`
/// (`let d_rows = pools.meta.take(…)?;`): walks back to the statement
/// start and matches `let <ident> =`.
fn binding_of(toks: &[Token], call_idx: usize) -> Option<(String, usize)> {
    let mut k = call_idx;
    while k > 0 {
        let t = &toks[k - 1];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            break;
        }
        k -= 1;
    }
    if toks.get(k).is_some_and(|t| t.text == "let") {
        let name = toks.get(k + 1)?;
        if name.kind == TokKind::Ident && toks.get(k + 2).is_some_and(|t| t.text == "=") {
            return Some((name.text.clone(), k + 1));
        }
        // `let mut name = …`
        if name.text == "mut" {
            let name = toks.get(k + 2)?;
            if name.kind == TokKind::Ident && toks.get(k + 3).is_some_and(|t| t.text == "=") {
                return Some((name.text.clone(), k + 2));
            }
        }
    }
    None
}

/// The contiguous comment block directly above `line` (crossing
/// attribute lines and sibling single-line `unsafe impl`s), joined
/// newest-last — the text VBA401 checks for the wrapper type name.
fn comment_block_above(ctx: &FileCtx<'_>, line: u32) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = ctx.scan.comment_text_on(line) {
        parts.push(t);
    }
    let mut l = line.saturating_sub(1);
    while l >= 1 {
        let comment = ctx.scan.comment_text_on(l);
        let code = ctx.scan.has_code(l);
        if let Some(text) = &comment {
            parts.push(text.clone());
        }
        if code {
            // Attr lines and sibling `unsafe impl` lines are crossed so
            // a Send/Sync pair can share one comment.
            let is_sibling = ctx
                .scan
                .tokens
                .iter()
                .any(|t| t.line == l && t.text == "unsafe");
            let is_attr = ctx.scan.tokens.iter().any(|t| t.line == l && t.text == "#");
            if !(is_sibling || is_attr) {
                break;
            }
        } else if comment.is_none() {
            break;
        }
        l -= 1;
    }
    parts.reverse();
    parts.join("\n")
}
