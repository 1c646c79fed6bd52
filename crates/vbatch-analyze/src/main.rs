//! CLI: `vbatch-analyze check [--root PATH] [--json PATH]`.
//!
//! Exit codes: 0 = clean (waived findings and warnings allowed),
//! 1 = active error findings, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use vbatch_analyze::lints::Severity;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("usage: vbatch-analyze check [--root PATH] [--json PATH]");
        return ExitCode::from(2);
    };
    if cmd != "check" {
        eprintln!("unknown command `{cmd}`; the only command is `check`");
        return ExitCode::from(2);
    }
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            "--json" => json_out = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match vbatch_analyze::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("could not locate the workspace root; pass --root");
                    return ExitCode::from(2);
                }
            }
        }
    };

    let rep = match vbatch_analyze::run_check(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vbatch-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &rep.findings {
        match (&f.allowed, f.severity) {
            (Some(reason), _) => {
                println!(
                    "allowed[{}] {}:{}: waived: {reason}",
                    f.code, f.file, f.line
                );
            }
            (None, Severity::Warning) => {
                println!("warning[{}] {}:{}: {}", f.code, f.file, f.line, f.message);
            }
            (None, Severity::Error) => {
                println!("error[{}] {}:{}: {}", f.code, f.file, f.line, f.message);
            }
        }
    }
    for (name, st) in &rep.crates {
        println!(
            "crate {name}: unsafe {} (budget {})",
            st.counts.total(),
            st.budget
        );
    }
    println!(
        "vbatch-analyze: {} files, {} errors, {} warnings, {} waived",
        rep.files_scanned,
        rep.errors(),
        rep.warnings(),
        rep.allowed()
    );

    let json_path = json_out.unwrap_or_else(|| root.join("ANALYZE.json"));
    if let Err(e) = std::fs::write(&json_path, rep.to_json()) {
        eprintln!("vbatch-analyze: cannot write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }

    if rep.errors() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
