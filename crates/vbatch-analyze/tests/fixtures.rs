//! Fixture-driven tests for the analyzer: one failing fixture per lint
//! (asserting the exact diagnostic codes), one clean fixture, an
//! end-to-end run of the compiled binary against throwaway workspace
//! trees (exit-code contract), and an `ANALYZE.json` schema snapshot.

use std::path::{Path, PathBuf};

use vbatch_analyze::config::Config;
use vbatch_analyze::lints::{self, analyze_source, Severity};
use vbatch_analyze::report::parse_json;
use vbatch_analyze::{analyze_files, SourceFile};

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
fn l1_fixture_flags_every_undocumented_unsafe() {
    let got = codes_at("crates/demo/src/l1_unsafe.rs", "l1_unsafe.rs");
    assert_eq!(
        got,
        vec![("VBA001", 5), ("VBA001", 9), ("VBA001", 10)],
        "one per unsafe block and one for the unsafe fn"
    );
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
fn l3_fixture_flags_nondeterminism_only_in_scope() {
    // Under a gpu-sim path the clock and hash-order sins are errors.
    let got = codes_at("crates/gpu-sim/src/l3_determinism.rs", "l3_determinism.rs");
    assert!(
        !got.is_empty() && got.iter().all(|(c, _)| *c == "VBA201"),
        "expected only VBA201 in scope; got {got:?}"
    );
    // The same source outside the determinism scope is fine.
    let out = codes_at("crates/baselines/src/free.rs", "l3_determinism.rs");
    assert!(out.is_empty(), "out of scope must not fire; got {out:?}");
}

#[test]
fn l4_fixture_flags_raw_kernel_name_literal() {
    let got = codes_at("crates/demo/src/l4_intern.rs", "l4_intern.rs");
    assert_eq!(got, vec![("VBA301", 6)]);
}

#[test]
fn l5_fixture_flags_adhoc_threading_except_in_pool_and_tests() {
    let got = codes_at("crates/demo/src/l5_threading.rs", "l5_threading.rs");
    assert_eq!(
        got,
        vec![("VBA202", 5), ("VBA202", 7), ("VBA202", 10)],
        "spawn, scope and Builder outside the pool; non-creating \
         members and #[cfg(test)] spawns stay legal; got {got:?}"
    );
    // The audited worker pool itself is exempt by path.
    let pool = codes_at("crates/gpu-sim/src/workers.rs", "l5_threading.rs");
    assert!(
        pool.iter().all(|(c, _)| *c != "VBA202"),
        "workers.rs is exempt from the threading lint; got {pool:?}"
    );
}

#[test]
fn l5_waiver_accepts_stable_code_and_lint_name() {
    let rep = analyze_source(
        "crates/vbatch-serve/src/exec.rs",
        &fixture("l5_threading_waived.rs"),
    );
    let vba202: Vec<_> = rep.findings.iter().filter(|f| f.code == "VBA202").collect();
    assert_eq!(vba202.len(), 3, "got {:?}", rep.findings);
    assert!(
        vba202[0].allowed.is_some(),
        "analyze:allow(VBA202) — waiver by stable code — must be honored"
    );
    assert!(
        vba202[1].allowed.is_some(),
        "analyze:allow(threading) — waiver by lint name — must keep working"
    );
    assert!(
        vba202[2].allowed.is_none(),
        "the unwaived spawn must still be an active finding"
    );
}

#[test]
fn serve_crate_is_inside_the_determinism_scope() {
    let got = codes_at("crates/vbatch-serve/src/service.rs", "l3_determinism.rs");
    assert!(
        !got.is_empty() && got.iter().all(|(c, _)| *c == "VBA201"),
        "serving decision path is determinism-scoped; got {got:?}"
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
    assert_eq!(rep.counts.safety_comments, 1);
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

/// Runs both analyzer phases over one fixture file mounted at a
/// virtual workspace path, returning `(code, line)` pairs in report
/// order. Unlike [`codes_at`] this exercises the phase-2 graph and
/// dataflow passes, which need the whole-tree entry point.
fn tree_codes(virtual_path: &str, name: &str, budget: u32) -> Vec<(&'static str, u32)> {
    let crate_name = virtual_path
        .strip_prefix("crates/")
        .and_then(|p| p.split('/').next())
        .unwrap_or_default()
        .to_string();
    let files = vec![SourceFile {
        rel: virtual_path.to_string(),
        crate_name: crate_name.clone(),
        src: fixture(name),
    }];
    let mut cfg = Config::default();
    cfg.unsafe_budget.insert(crate_name, budget);
    let rep = analyze_files(&files, &cfg);
    rep.findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .map(|f| (f.code, f.line))
        .collect()
}

#[test]
fn c1_fixture_flags_unnamed_send_impl() {
    let got = tree_codes("crates/demo/src/c1_concurrency.rs", "c1_concurrency.rs", 1);
    assert_eq!(
        got,
        vec![("VBA401", 10)],
        "SAFETY comment not naming RawShared"
    );
}

#[test]
fn g1_fixture_flags_every_launch_graph_violation() {
    let got = tree_codes("crates/demo/src/g1_launch.rs", "g1_launch.rs", 0);
    assert_eq!(
        got,
        vec![
            ("VBA504", 7),
            ("VBA505", 9),
            ("VBA501", 15),
            ("VBA502", 15),
            ("VBA503", 15),
        ],
        "double charge, dead matcher, then unresolved + unreachable + \
         uncharged on the orphan launch"
    );
}

#[test]
fn p1_fixture_flags_leaked_take_and_stale_metadata() {
    let got = tree_codes("crates/demo/src/p1_pool.rs", "p1_pool.rs", 0);
    assert_eq!(
        got,
        vec![("VBA601", 5), ("VBA602", 10)],
        "dropped pool buffer and an unrewritten metadata buffer; the \
         rewritten-then-handed-on take must stay clean"
    );
}

#[test]
fn clean_fixture_also_passes_the_graph_passes() {
    let files = vec![SourceFile {
        rel: "crates/demo/src/clean.rs".to_string(),
        crate_name: "demo".to_string(),
        src: fixture("clean.rs"),
    }];
    let mut cfg = Config::default();
    cfg.unsafe_budget.insert("demo".to_string(), 1);
    let rep = analyze_files(&files, &cfg);
    assert!(
        rep.findings.is_empty(),
        "clean fixture must pass phase 2 too; got {:?}",
        rep.findings
    );
    let g = rep.graph.expect("tree analysis emits the graph section");
    assert_eq!(g.kernels, vec!["fixture_clean_kernel".to_string()]);
    assert_eq!(g.launch_sites.len(), 1);
    let site = &g.launch_sites[0];
    assert!(site.resolved, "kernel_name() helper must be chased");
    assert_eq!(site.kernels, vec!["fixture_clean_kernel".to_string()]);
    assert_eq!(site.func, "launch_good");
    assert_eq!(site.charges, 1);
}

#[test]
fn safety_comment_adjacency_rules() {
    // Multi-line SAFETY comments and attribute-separated items count.
    let multi = "fn f() {\n\
                 // SAFETY: a long justification\n\
                 // continuing on a second line.\n\
                 unsafe { work() }\n\
                 }\n";
    assert!(
        analyze_source("crates/demo/src/a.rs", multi)
            .findings
            .is_empty(),
        "multi-line SAFETY comment must satisfy VBA001"
    );
    let attr = "// SAFETY: caller upholds the contract.\n\
                #[allow(dead_code)]\n\
                unsafe fn g() {}\n";
    assert!(
        analyze_source("crates/demo/src/b.rs", attr)
            .findings
            .is_empty(),
        "attributes between the SAFETY comment and the item are crossed"
    );
    // A trailing comment on the directly-adjacent code line still
    // counts (it reads as annotating what follows)…
    let adjacent = "fn f() {\n\
                    let x = setup(); // SAFETY: x is pinned for the deref below\n\
                    unsafe { work(x) }\n\
                    }\n";
    assert!(
        analyze_source("crates/demo/src/c.rs", adjacent)
            .findings
            .is_empty(),
        "adjacent trailing SAFETY comment is accepted"
    );
    // …but a trailing comment further up belongs to its own statement
    // and must NOT satisfy a later unsafe (the silently-passing
    // mismatch the adjacency fix closed).
    let distant = "fn f() {\n\
                   let x = setup(); // SAFETY: about this line only\n\
                   let y = other();\n\
                   unsafe { work(y) }\n\
                   }\n";
    let got: Vec<_> = analyze_source("crates/demo/src/d.rs", distant)
        .findings
        .iter()
        .map(|f| (f.code, f.line))
        .collect();
    assert_eq!(
        got,
        vec![("VBA001", 4)],
        "a distant trailing SAFETY comment must not launder later unsafe"
    );
}

/// Builds a throwaway single-crate workspace under the target temp dir.
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
    let bad = mini_tree("bad", "l1_unsafe.rs", None);
    let (code, stdout) = run_binary(&bad);
    assert_eq!(code, 1, "findings must fail the run; stdout:\n{stdout}");
    assert!(stdout.contains("VBA001"), "stdout:\n{stdout}");
    assert!(
        stdout.contains("VBA002"),
        "3 unsafe > default budget 0; stdout:\n{stdout}"
    );

    let good = mini_tree("good", "clean.rs", Some("[unsafe_budget]\ndemo = 1\n"));
    let (code, stdout) = run_binary(&good);
    assert_eq!(code, 0, "clean tree must pass; stdout:\n{stdout}");
    let json = std::fs::read_to_string(good.join("ANALYZE.json")).expect("ANALYZE.json written");
    assert!(parse_json(&json).is_ok());

    let _ = std::fs::remove_dir_all(&bad);
    let _ = std::fs::remove_dir_all(&good);
}

#[test]
fn workspace_walk_covers_vendored_shims() {
    // A clean crate beside a shim that spawns per call: the walk must
    // reach `shims/*/src`, or VBA202 guards everything but the code
    // under every launch.
    let root = mini_tree("shim", "clean.rs", Some("[unsafe_budget]\ndemo = 1\n"));
    let shim_src = root.join("shims/forkjoin/src");
    std::fs::create_dir_all(&shim_src).unwrap();
    std::fs::write(shim_src.join("lib.rs"), fixture("l5_threading_shim.rs")).unwrap();
    let rep = vbatch_analyze::run_check(&root).unwrap();
    let got: Vec<_> = rep
        .findings
        .iter()
        .map(|f| (f.code, f.file.as_str(), f.line))
        .collect();
    assert_eq!(got, vec![("VBA202", "shims/forkjoin/src/lib.rs", 8)]);
    assert!(
        rep.crates.contains_key("forkjoin"),
        "shim crates take part in the unsafe census (budget 0 unless listed)"
    );
    // The audited pool is exempt at its one path; a copy of it under a
    // shim is not.
    let pool = codes_at("shims/forkjoin/src/workers.rs", "l5_threading.rs");
    assert!(pool.iter().any(|(c, _)| *c == "VBA202"), "got {pool:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn binary_exits_nonzero_on_graph_pass_findings() {
    let bad = mini_tree("graph-bad", "g1_launch.rs", None);
    let (code, stdout) = run_binary(&bad);
    assert_eq!(
        code, 1,
        "graph findings must fail the run; stdout:\n{stdout}"
    );
    for c in ["VBA501", "VBA502", "VBA503", "VBA504", "VBA505"] {
        assert!(stdout.contains(c), "missing {c}; stdout:\n{stdout}");
    }
    let _ = std::fs::remove_dir_all(&bad);
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
    let j = parse_json(&json).unwrap();
    assert_eq!(
        j.get("summary")
            .and_then(|s| s.get("warnings"))
            .and_then(|v| v.as_num()),
        Some(1.0)
    );
    assert_eq!(
        j.get("summary")
            .and_then(|s| s.get("errors"))
            .and_then(|v| v.as_num()),
        Some(0.0)
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn analyze_json_schema_snapshot() {
    let root = mini_tree("schema", "l1_unsafe.rs", None);
    let rep = vbatch_analyze::run_check(&root).unwrap();
    let json = parse_json(&rep.to_json()).unwrap();

    // Top level.
    assert_eq!(json.get("version").and_then(|v| v.as_num()), Some(1.0));
    assert_eq!(
        json.get("tool").and_then(|v| v.as_str()),
        Some("vbatch-analyze")
    );
    assert_eq!(
        json.get("files_scanned").and_then(|v| v.as_num()),
        Some(1.0)
    );

    // Per-crate stats carry all five numeric fields.
    let demo = json
        .get("crates")
        .and_then(|c| c.get("demo"))
        .expect("crates.demo present");
    for key in [
        "unsafe_blocks",
        "unsafe_fns",
        "unsafe_impls",
        "unsafe_total",
        "unsafe_budget",
        "safety_comments",
    ] {
        assert!(
            demo.get(key).and_then(|v| v.as_num()).is_some(),
            "crates.demo.{key} must be a number"
        );
    }

    // Findings: every entry has the full field set; the fixture yields
    // three VBA001 plus one VBA002 budget breach.
    let findings = json
        .get("findings")
        .and_then(|f| f.as_arr())
        .expect("findings array");
    assert_eq!(findings.len(), 4);
    for f in findings {
        for key in [
            "code", "lint", "severity", "file", "line", "allowed", "message",
        ] {
            assert!(f.get(key).is_some(), "finding missing key {key}");
        }
    }
    let codes: Vec<&str> = findings
        .iter()
        .filter_map(|f| f.get("code").and_then(|c| c.as_str()))
        .collect();
    assert_eq!(codes, vec!["VBA002", "VBA001", "VBA001", "VBA001"]);

    // Summary mirrors Report::errors/warnings/allowed.
    let summary = json.get("summary").expect("summary present");
    assert_eq!(summary.get("errors").and_then(|v| v.as_num()), Some(4.0));
    assert_eq!(summary.get("warnings").and_then(|v| v.as_num()), Some(0.0));
    assert_eq!(summary.get("allowed").and_then(|v| v.as_num()), Some(0.0));

    // The graph section is always present on a tree run, with every
    // sub-array in place (empty here: the fixture has no launch paths).
    let graph = json.get("graph").expect("graph section present");
    for key in [
        "kernels",
        "test_kernels",
        "launch_sites",
        "unsafe_wrappers",
        "pool_takes",
        "fault_matchers",
    ] {
        assert!(
            graph.get(key).and_then(|v| v.as_arr()).is_some(),
            "graph.{key} must be an array"
        );
    }

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn graph_section_schema_snapshot() {
    let root = mini_tree(
        "graph-schema",
        "clean.rs",
        Some("[unsafe_budget]\ndemo = 1\n"),
    );
    let rep = vbatch_analyze::run_check(&root).unwrap();
    let json = parse_json(&rep.to_json()).unwrap();
    let graph = json.get("graph").expect("graph section present");

    let kernels = graph.get("kernels").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(
        kernels
            .iter()
            .filter_map(|k| k.as_str())
            .collect::<Vec<_>>(),
        vec!["fixture_clean_kernel"]
    );

    let sites = graph.get("launch_sites").and_then(|v| v.as_arr()).unwrap();
    assert_eq!(sites.len(), 1);
    let site = &sites[0];
    for (key, want) in [
        ("file", "crates/demo/src/lib.rs"),
        ("fn", "launch_good"),
        ("kind", "launch"),
    ] {
        assert_eq!(site.get(key).and_then(|v| v.as_str()), Some(want));
    }
    for key in ["line", "charges"] {
        assert!(site.get(key).and_then(|v| v.as_num()).is_some());
    }
    for key in ["kernels", "resolved", "test"] {
        assert!(site.get(key).is_some(), "launch site missing {key}");
    }

    let _ = std::fs::remove_dir_all(&root);
}
