//! Fixture-driven tests for the analyzer: one failing fixture per lint
//! (asserting the exact diagnostic codes), one clean fixture, an
//! end-to-end run of the compiled binary against throwaway workspace
//! trees (exit-code contract), an exact `ANALYZE.json` snapshot, and a
//! property that no input makes the pass panic.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use proptest::sample::select;
use vbatch_analyze::lints::{self, analyze_source};

fn fixture(name: &str) -> String {
    let p = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

/// Analyzes a fixture under a virtual workspace path and returns the
/// `(code, line)` pairs of its findings, in report order.
fn codes_at(virtual_path: &str, name: &str) -> Vec<(&'static str, u32)> {
    let rep = analyze_source(virtual_path, &fixture(name));
    rep.findings.iter().map(|f| (f.code, f.line)).collect()
}

#[test]
fn l2_fixture_flags_heap_alloc_and_unwrap_in_kernel() {
    let got = codes_at("crates/demo/src/l2_purity.rs", "l2_purity.rs");
    let codes: Vec<&str> = got.iter().map(|(c, _)| *c).collect();
    assert_eq!(
        codes,
        vec!["VBA101", "VBA101"],
        "vec! and .unwrap() inside the launch body; got {got:?}"
    );
}

#[test]
fn l2_helper_fixture_flags_kernel_body_fns_by_their_blockctx_parameter() {
    let got = codes_at("crates/demo/src/l2_purity_helper.rs", "l2_purity_helper.rs");
    assert_eq!(
        got,
        vec![("VBA101", 7), ("VBA101", 14)],
        "vec! in the `&mut BlockCtx` helper and .expect() in the \
         `Option<&mut BlockCtx>` one; the executor (`F: Fn(&mut BlockCtx)`) \
         and the #[cfg(test)] helper stay legal; got {got:?}"
    );
    let rep = analyze_source(
        "crates/demo/src/l2_purity_helper.rs",
        &fixture("l2_purity_helper.rs"),
    );
    assert!(
        rep.findings[0]
            .message
            .contains("kernel-body fn `tile_math`"),
        "the message names the helper: {}",
        rep.findings[0].message
    );
}

#[test]
fn l4_fixture_flags_raw_kernel_name_literal() {
    let got = codes_at("crates/demo/src/l4_intern.rs", "l4_intern.rs");
    assert_eq!(got, vec![("VBA301", 6)]);
}

#[test]
fn c1_fixture_flags_unnamed_send_impl() {
    let got = codes_at("crates/demo/src/c1_concurrency.rs", "c1_concurrency.rs");
    assert_eq!(
        got,
        vec![("VBA401", 11)],
        "the Send comment does not name RawShared; the Sync one does"
    );
}

#[test]
fn safety_comment_adjacency_rules() {
    // The comment run directly above counts, across attribute lines…
    let attr = "// SAFETY: `Wrap` is only read through shared references\n\
                // (continued on a second line).\n\
                #[allow(dead_code)]\n\
                unsafe impl Sync for Wrap {}\n";
    assert!(
        analyze_source("crates/demo/src/a.rs", attr)
            .findings
            .is_empty(),
        "attributes between the comment and the impl are crossed"
    );
    // …but a comment above a code line belongs to that line, and a
    // sibling impl's comment does not cover the next impl.
    let distant = "// SAFETY: `Wrap` owns its pointer.\n\
                   unsafe impl Send for Wrap {}\n\
                   unsafe impl Sync for Wrap {}\n";
    let got: Vec<_> = analyze_source("crates/demo/src/b.rs", distant)
        .findings
        .iter()
        .map(|f| (f.code, f.line))
        .collect();
    assert_eq!(got, vec![("VBA401", 3)], "each impl needs its own comment");
}

#[test]
fn g1_fixture_flags_every_launch_graph_violation() {
    let got = codes_at("crates/demo/src/g1_launch.rs", "g1_launch.rs");
    assert_eq!(
        got,
        vec![("VBA504", 7)],
        "the identical second charge; a charge behind a brace or with \
         other arguments stays legal"
    );
}

#[test]
fn clean_fixture_has_no_findings_even_in_scope() {
    let rep = analyze_source("crates/gpu-sim/src/clean.rs", &fixture("clean.rs"));
    assert!(
        rep.findings.is_empty(),
        "clean fixture must pass all lints; got {:?}",
        rep.findings
    );
    assert_eq!(rep.counts.blocks, 1);
}

#[test]
fn allow_directive_without_reason_is_its_own_error() {
    let src = "fn f(dev: &Device) {\n\
               // analyze:allow(kernel-purity)\n\
               dev.launch(name, cfg, move |ctx| { let v = vec![0u8; 4]; })\n\
               }\n";
    let rep = analyze_source("crates/demo/src/lib.rs", src);
    let codes: Vec<&str> = rep.findings.iter().map(|f| f.code).collect();
    assert!(
        codes.contains(&lints::codes::ALLOW_NO_REASON),
        "reasonless allow must raise VBA901; got {codes:?}"
    );
}

#[test]
fn waiver_accepts_stable_code_and_lint_name() {
    let src = "fn f(dev: &Device) {\n\
               // analyze:allow(VBA101): waived by stable code\n\
               dev.launch(a, cfg, move |ctx| { let v = vec![0u8; 4]; });\n\
               // analyze:allow(kernel-purity): waived by lint name\n\
               dev.launch(b, cfg, move |ctx| { let v = vec![0u8; 4]; });\n\
               dev.launch(c, cfg, move |ctx| { let v = vec![0u8; 4]; });\n\
               }\n";
    let rep = analyze_source("crates/demo/src/lib.rs", src);
    let got: Vec<_> = rep
        .findings
        .iter()
        .map(|f| (f.code, f.line, f.allowed.is_some()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("VBA101", 3, true),
            ("VBA101", 5, true),
            ("VBA101", 6, false)
        ],
        "both waiver forms are honored; the unwaived launch stays active"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The lexer and every lint take arbitrary text: unterminated
    /// strings and comments, lone quotes before non-ASCII characters,
    /// half-written launches and impls.
    #[test]
    fn analyze_source_never_panics(parts in prop::collection::vec(select(vec![
        "'", "\"", "r#\"", "\"#", "b'", "/*", "*/", "//", "\n", " ", "\\", "#", "[", "]",
        "é", "µ", "→", "'é'", "(", ")", "{", "}", "<", ">", ",", ";", ":", ".", "|ctx|",
        "unsafe", "impl", "Send", "for", "fn", "let", "x", "=", "0", "r", "b", ".launch(",
        "ctx.gmem_read(8);", "charge_flops::<T>(", "BlockCtx", "vec!", ".unwrap()",
        "#[cfg(test)]", "mod", "// analyze:allow(VBA101)", "// SAFETY: x",
    ]), 0..48)) {
        let src: String = parts.concat();
        let rep = analyze_source("crates/demo/src/lib.rs", &src);
        prop_assert!(rep.findings.iter().all(|f| f.line >= 1));
    }
}

/// Builds a throwaway single-crate workspace under the temp dir.
fn mini_tree(tag: &str, lib_fixture: &str, analyze_toml: Option<&str>) -> PathBuf {
    let root = std::env::temp_dir().join(format!("vbatch-analyze-{}-{tag}", std::process::id()));
    let src = root.join("crates/demo/src");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    std::fs::write(src.join("lib.rs"), fixture(lib_fixture)).unwrap();
    if let Some(toml) = analyze_toml {
        std::fs::write(root.join("analyze.toml"), toml).unwrap();
    }
    root
}

/// Runs the real binary (`CARGO_BIN_EXE_*` is set for integration
/// tests) and returns (exit code, stdout).
fn run_binary(root: &Path) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_vbatch-analyze"))
        .args(["check", "--root"])
        .arg(root)
        .output()
        .expect("spawn vbatch-analyze");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn binary_exits_nonzero_on_failing_tree_and_zero_on_clean() {
    let bad = mini_tree("bad", "census.rs", None);
    let (code, stdout) = run_binary(&bad);
    assert_eq!(code, 1, "findings must fail the run; stdout:\n{stdout}");
    assert!(
        stdout.contains("error[VBA002]"),
        "3 unsafe > default budget 0; stdout:\n{stdout}"
    );

    let good = mini_tree("good", "clean.rs", Some("[unsafe_budget]\ndemo = 1\n"));
    let (code, stdout) = run_binary(&good);
    assert_eq!(code, 0, "clean tree must pass; stdout:\n{stdout}");
    let json = std::fs::read_to_string(good.join("ANALYZE.json")).expect("ANALYZE.json written");
    assert!(json.contains("\"summary\": {\"errors\": 0, \"warnings\": 0, \"allowed\": 0}"));

    let _ = std::fs::remove_dir_all(&bad);
    let _ = std::fs::remove_dir_all(&good);
}

#[test]
fn workspace_walk_covers_vendored_shims() {
    // A clean crate beside a shim with one `unsafe` block: the walk must
    // reach `shims/*/src`, so vendored code gets no pass on `unsafe`.
    // Test trees are not walked: their `unsafe` is not counted.
    let root = mini_tree("shim", "clean.rs", Some("[unsafe_budget]\ndemo = 1\n"));
    let shim_src = root.join("shims/forkjoin/src");
    std::fs::create_dir_all(&shim_src).unwrap();
    std::fs::write(shim_src.join("lib.rs"), fixture("census.rs")).unwrap();
    let tests = root.join("crates/demo/tests");
    std::fs::create_dir_all(&tests).unwrap();
    std::fs::write(tests.join("t.rs"), fixture("census.rs")).unwrap();
    let rep = vbatch_analyze::run_check(&root).unwrap();
    let got: Vec<_> = rep
        .findings
        .iter()
        .map(|f| (f.code, f.file.as_str()))
        .collect();
    assert_eq!(got, vec![("VBA002", "analyze.toml")]);
    assert!(rep.findings[0].message.contains("crate `forkjoin` has 3"));
    assert_eq!(rep.crates["demo"].counts.total(), 1);
    assert_eq!(rep.files_scanned, 2);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn budget_slack_is_a_warning_and_exit_stays_zero() {
    // Actual unsafe count is 1 (one block in clean.rs) but the budget
    // grants 5: the ratchet warning fires without failing the run.
    let root = mini_tree("slack", "clean.rs", Some("[unsafe_budget]\ndemo = 5\n"));
    let (code, stdout) = run_binary(&root);
    assert_eq!(code, 0, "warnings must not fail the run; stdout:\n{stdout}");
    assert!(
        stdout.contains("warning[VBA003]"),
        "stale headroom must warn; stdout:\n{stdout}"
    );
    let json = std::fs::read_to_string(root.join("ANALYZE.json")).unwrap();
    assert!(json.contains("\"summary\": {\"errors\": 0, \"warnings\": 1, \"allowed\": 0}"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn analyze_json_schema_snapshot() {
    let root = mini_tree("schema", "census.rs", None);
    let rep = vbatch_analyze::run_check(&root).unwrap();
    let want = r#"{
  "version": 2,
  "tool": "vbatch-analyze",
  "files_scanned": 1,
  "crates": {
    "demo": {"unsafe_blocks": 2, "unsafe_fns": 1, "unsafe_impls": 0, "unsafe_total": 3, "unsafe_budget": 0}
  },
  "findings": [
    {"code": "VBA002", "lint": "unsafe-audit", "severity": "error", "file": "analyze.toml", "line": 1, "allowed": false, "reason": null, "message": "crate `demo` has 3 unsafe occurrences but a budget of 0; if the new unsafe is justified, raise the budget in analyze.toml in the same change that adds it"}
  ],
  "summary": {"errors": 1, "warnings": 0, "allowed": 0}
}
"#;
    assert_eq!(rep.to_json(), want);
    let _ = std::fs::remove_dir_all(&root);
}
