//! `ANALYZE.json` emission.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::lints::{Finding, Severity, UnsafeCounts};

/// Per-crate rollup for the report.
#[derive(Debug, Clone, Copy)]
pub struct CrateStats {
    pub counts: UnsafeCounts,
    pub budget: u32,
}

/// Everything the `check` run produced, ready to serialize.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: u32,
    /// Crate directory → rollup (BTreeMap for stable output order).
    pub crates: BTreeMap<String, CrateStats>,
    /// All findings, active and waived, sorted by (file, line, code).
    pub findings: Vec<Finding>,
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
        s.push_str("  \"version\": 2,\n");
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
                 \"unsafe_budget\": {}}}",
                quote(name),
                c.blocks,
                c.fns,
                c.impls,
                c.total(),
                st.budget
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_writes_the_exact_expected_json() {
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
                },
                budget: 6,
            },
        );
        rep.crates.insert(
            "gpu-sim".into(),
            CrateStats {
                counts: UnsafeCounts::default(),
                budget: 1,
            },
        );
        rep.findings.push(Finding {
            code: "VBA101",
            lint: "kernel-purity",
            file: "crates/dense/src/x.rs".into(),
            line: 7,
            message: "msg with \"quotes\"\nand\ttab \\ \u{1}".into(),
            allowed: Some("it is fine".into()),
            severity: Severity::Error,
        });
        rep.findings.push(Finding {
            code: "VBA003",
            lint: "unsafe-audit",
            file: "analyze.toml".into(),
            line: 1,
            message: "slack".into(),
            allowed: None,
            severity: Severity::Warning,
        });
        let want = r#"{
  "version": 2,
  "tool": "vbatch-analyze",
  "files_scanned": 2,
  "crates": {
    "dense": {"unsafe_blocks": 3, "unsafe_fns": 1, "unsafe_impls": 2, "unsafe_total": 6, "unsafe_budget": 6},
    "gpu-sim": {"unsafe_blocks": 0, "unsafe_fns": 0, "unsafe_impls": 0, "unsafe_total": 0, "unsafe_budget": 1}
  },
  "findings": [
    {"code": "VBA101", "lint": "kernel-purity", "severity": "error", "file": "crates/dense/src/x.rs", "line": 7, "allowed": true, "reason": "it is fine", "message": "msg with \"quotes\"\nand\ttab \\ \u0001"},
    {"code": "VBA003", "lint": "unsafe-audit", "severity": "warning", "file": "analyze.toml", "line": 1, "allowed": false, "reason": null, "message": "slack"}
  ],
  "summary": {"errors": 0, "warnings": 1, "allowed": 1}
}
"#;
        assert_eq!(rep.to_json(), want);
    }
}
