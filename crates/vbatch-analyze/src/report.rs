//! `ANALYZE.json` emission, plus a minimal JSON reader so the fixture
//! tests can validate the schema without a serde dependency.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::lints::{Finding, Severity, UnsafeCounts};

/// Per-crate rollup for the report.
#[derive(Debug, Clone, Copy)]
pub struct CrateStats {
    pub counts: UnsafeCounts,
    pub budget: u32,
}

/// One launch-path call site in the `graph` section.
#[derive(Debug)]
pub struct GraphLaunchSite {
    pub file: String,
    pub line: u32,
    /// Enclosing function name (empty at module scope).
    pub func: String,
    /// Resolved kernel names (empty when unresolved).
    pub kernels: Vec<String>,
    pub resolved: bool,
    pub test: bool,
    /// Direct `BlockCost` charges in the closure.
    pub charges: u32,
}

/// One `unsafe impl Send/Sync` wrapper in the `graph` section.
#[derive(Debug)]
pub struct GraphWrapper {
    pub file: String,
    pub line: u32,
    pub trait_name: String,
    pub type_name: String,
}

/// One pool `take` site in the `graph` section.
#[derive(Debug)]
pub struct GraphTake {
    pub file: String,
    pub line: u32,
    pub binding: String,
    pub meta: bool,
    pub escapes: bool,
    pub rewritten: bool,
}

/// One fault-injection launch matcher in the `graph` section.
#[derive(Debug)]
pub struct GraphMatcher {
    pub file: String,
    pub line: u32,
    pub substring: String,
    pub test: bool,
    pub matched: bool,
}

/// The cross-crate index, emitted so CI can diff kernel-registry and
/// launch-site drift between runs.
#[derive(Debug, Default)]
pub struct GraphSection {
    /// Kernel names resolved from non-test launch sites — the static
    /// mirror of `gpu_sim::intern::known_names()`.
    pub kernels: Vec<String>,
    /// Names launched only from test context.
    pub test_kernels: Vec<String>,
    pub launch_sites: Vec<GraphLaunchSite>,
    pub unsafe_wrappers: Vec<GraphWrapper>,
    pub pool_takes: Vec<GraphTake>,
    pub fault_matchers: Vec<GraphMatcher>,
}

/// Everything the `check` run produced, ready to serialize.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: u32,
    /// Crate directory → rollup (BTreeMap for stable output order).
    pub crates: BTreeMap<String, CrateStats>,
    /// All findings, active and waived, sorted by (file, line, code).
    pub findings: Vec<Finding>,
    /// The phase-1 index (absent for single-file `analyze_source`).
    pub graph: Option<GraphSection>,
}

impl Report {
    /// Active (non-waived) error findings — what fails the run.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.allowed.is_none() && f.severity == Severity::Error)
            .count()
    }

    /// Warning findings (report-only, exit 0).
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Waived findings.
    #[must_use]
    pub fn allowed(&self) -> usize {
        self.findings.iter().filter(|f| f.allowed.is_some()).count()
    }

    /// Serializes the report; output is deterministic for a given tree.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"version\": 1,\n");
        s.push_str("  \"tool\": \"vbatch-analyze\",\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        s.push_str("  \"crates\": {\n");
        let n = self.crates.len();
        for (k, (name, st)) in self.crates.iter().enumerate() {
            let c = st.counts;
            let _ = write!(
                s,
                "    {}: {{\"unsafe_blocks\": {}, \"unsafe_fns\": {}, \
                 \"unsafe_impls\": {}, \"unsafe_total\": {}, \
                 \"unsafe_budget\": {}, \"safety_comments\": {}}}",
                quote(name),
                c.blocks,
                c.fns,
                c.impls,
                c.total(),
                st.budget,
                c.safety_comments
            );
            s.push_str(if k + 1 < n { ",\n" } else { "\n" });
        }
        s.push_str("  },\n");
        s.push_str("  \"findings\": [\n");
        let n = self.findings.len();
        for (k, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"code\": {}, \"lint\": {}, \"severity\": {}, \"file\": {}, \
                 \"line\": {}, \"allowed\": {}, \"reason\": {}, \"message\": {}}}",
                quote(f.code),
                quote(f.lint),
                quote(match f.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                }),
                quote(&f.file),
                f.line,
                f.allowed.is_some(),
                f.allowed
                    .as_deref()
                    .map_or_else(|| "null".to_string(), quote),
                quote(&f.message)
            );
            s.push_str(if k + 1 < n { ",\n" } else { "\n" });
        }
        s.push_str("  ],\n");
        if let Some(g) = &self.graph {
            s.push_str("  \"graph\": {\n");
            let _ = writeln!(s, "    \"kernels\": {},", str_arr(&g.kernels));
            let _ = writeln!(s, "    \"test_kernels\": {},", str_arr(&g.test_kernels));
            s.push_str("    \"launch_sites\": [\n");
            let n = g.launch_sites.len();
            for (k, l) in g.launch_sites.iter().enumerate() {
                let _ = write!(
                    s,
                    "      {{\"file\": {}, \"line\": {}, \"fn\": {}, \"kind\": \"launch\", \
                     \"kernels\": {}, \"resolved\": {}, \"test\": {}, \"charges\": {}}}",
                    quote(&l.file),
                    l.line,
                    quote(&l.func),
                    str_arr(&l.kernels),
                    l.resolved,
                    l.test,
                    l.charges
                );
                s.push_str(if k + 1 < n { ",\n" } else { "\n" });
            }
            s.push_str("    ],\n");
            s.push_str("    \"unsafe_wrappers\": [\n");
            let n = g.unsafe_wrappers.len();
            for (k, w) in g.unsafe_wrappers.iter().enumerate() {
                let _ = write!(
                    s,
                    "      {{\"file\": {}, \"line\": {}, \"trait\": {}, \"type\": {}}}",
                    quote(&w.file),
                    w.line,
                    quote(&w.trait_name),
                    quote(&w.type_name)
                );
                s.push_str(if k + 1 < n { ",\n" } else { "\n" });
            }
            s.push_str("    ],\n");
            s.push_str("    \"pool_takes\": [\n");
            let n = g.pool_takes.len();
            for (k, t) in g.pool_takes.iter().enumerate() {
                let _ = write!(
                    s,
                    "      {{\"file\": {}, \"line\": {}, \"binding\": {}, \"meta\": {}, \
                     \"escapes\": {}, \"rewritten\": {}}}",
                    quote(&t.file),
                    t.line,
                    quote(&t.binding),
                    t.meta,
                    t.escapes,
                    t.rewritten
                );
                s.push_str(if k + 1 < n { ",\n" } else { "\n" });
            }
            s.push_str("    ],\n");
            s.push_str("    \"fault_matchers\": [\n");
            let n = g.fault_matchers.len();
            for (k, m) in g.fault_matchers.iter().enumerate() {
                let _ = write!(
                    s,
                    "      {{\"file\": {}, \"line\": {}, \"substring\": {}, \
                     \"test\": {}, \"matched\": {}}}",
                    quote(&m.file),
                    m.line,
                    quote(&m.substring),
                    m.test,
                    m.matched
                );
                s.push_str(if k + 1 < n { ",\n" } else { "\n" });
            }
            s.push_str("    ]\n");
            s.push_str("  },\n");
        }
        let _ = writeln!(
            s,
            "  \"summary\": {{\"errors\": {}, \"warnings\": {}, \"allowed\": {}}}",
            self.errors(),
            self.warnings(),
            self.allowed()
        );
        s.push_str("}\n");
        s
    }
}

/// Serializes a string list as a one-line JSON array.
fn str_arr(v: &[String]) -> String {
    let mut out = String::from("[");
    for (i, s) in v.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&quote(s));
    }
    out.push(']');
    out
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value (enough of JSON for schema validation).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    #[must_use]
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a JSON document (strict enough for round-tripping
/// [`Report::to_json`] output in tests).
pub fn parse_json(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(m));
            }
            loop {
                skip_ws(b, pos);
                let Json::Str(k) = parse_value(b, pos)? else {
                    return Err("object key must be a string".into());
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let v = parse_value(b, pos)?;
                m.insert(k, v);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(m));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut a = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(a));
            }
            loop {
                a.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(a));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            while let Some(&c) = b.get(*pos) {
                match c {
                    b'"' => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    b'\\' => {
                        *pos += 1;
                        match b.get(*pos) {
                            Some(b'n') => s.push('\n'),
                            Some(b't') => s.push('\t'),
                            Some(b'u') => {
                                let hex = b
                                    .get(*pos + 1..*pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or("bad \\u escape")?;
                                let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                s.push(char::from_u32(cp).ok_or("bad codepoint")?);
                                *pos += 4;
                            }
                            Some(&e) => s.push(e as char),
                            None => return Err("unterminated escape".into()),
                        }
                        *pos += 1;
                    }
                    _ => {
                        // Multibyte UTF-8 passes through byte-wise; the
                        // source is valid UTF-8 so recombine at the end.
                        let start = *pos;
                        while *pos < b.len() && b[*pos] != b'"' && b[*pos] != b'\\' {
                            *pos += 1;
                        }
                        s.push_str(
                            std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?,
                        );
                    }
                }
            }
            Err("unterminated string".into())
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < b.len()
                && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .map_err(|e| e.to_string())?
                .parse::<f64>()
                .map(Json::Num)
                .map_err(|e| e.to_string())
        }
        Some(_) => {
            for (lit, val) in [
                ("true", Json::Bool(true)),
                ("false", Json::Bool(false)),
                ("null", Json::Null),
            ] {
                if b[*pos..].starts_with(lit.as_bytes()) {
                    *pos += lit.len();
                    return Ok(val);
                }
            }
            Err(format!("unexpected byte at {pos}"))
        }
        None => Err("unexpected end of input".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_parser() {
        let mut rep = Report {
            files_scanned: 2,
            ..Report::default()
        };
        rep.crates.insert(
            "dense".into(),
            CrateStats {
                counts: UnsafeCounts {
                    blocks: 3,
                    fns: 1,
                    impls: 2,
                    safety_comments: 6,
                },
                budget: 6,
            },
        );
        rep.findings.push(Finding {
            code: "VBA001",
            lint: "unsafe-audit",
            file: "crates/dense/src/x.rs".into(),
            line: 7,
            message: "msg with \"quotes\"\nand newline".into(),
            allowed: Some("it is fine".into()),
            severity: Severity::Error,
        });
        rep.graph = Some(GraphSection {
            kernels: vec!["potrf_fixed".into()],
            ..GraphSection::default()
        });
        let j = parse_json(&rep.to_json()).expect("valid json");
        assert_eq!(j.get("version").and_then(Json::as_num), Some(1.0));
        let dense = j.get("crates").and_then(|c| c.get("dense")).unwrap();
        assert_eq!(dense.get("unsafe_total").and_then(Json::as_num), Some(6.0));
        let f = &j.get("findings").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(f.get("code").and_then(Json::as_str), Some("VBA001"));
        assert_eq!(f.get("allowed"), Some(&Json::Bool(true)));
        assert!(f
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("\"quotes\"\nand newline"));
        assert_eq!(
            j.get("summary")
                .and_then(|s| s.get("errors"))
                .and_then(Json::as_num),
            Some(0.0)
        );
        assert_eq!(f.get("severity").and_then(Json::as_str), Some("error"));
        let g = j.get("graph").expect("graph section present");
        assert_eq!(
            g.get("kernels").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(
            g.get("launch_sites")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(0)
        );
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(parse_json("{} extra").is_err());
        assert!(parse_json("[1, 2").is_err());
    }
}
