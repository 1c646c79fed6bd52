//! VBA5xx — the launch-graph contract, checked over the resolved
//! index:
//!
//! * **VBA501**: every launch site's kernel-name expression must
//!   resolve statically through the interning vocabulary (`kname`,
//!   `intern::literal`/`prefixed`, or a local `*_kname()` helper). An
//!   unresolvable name is invisible to `intern::known_names()`-based
//!   tooling and to the fault-injection matcher audit below.
//! * **VBA502**: the function containing a launch must be reachable
//!   from a public driver entry (`pub fn`, `main`, or a test) through
//!   the name-based call graph — an unreachable launch is dead kernel
//!   code that still shows up in the registry.
//! * **VBA503**: a launch closure must charge `BlockCost` at least
//!   once (directly or via functions it calls, chased three hops): an
//!   uncharged kernel runs for free in the simulator and silently
//!   skews the clock/energy goldens.
//! * **VBA504**: two *identical consecutive* charges (same method,
//!   same argument tokens, no intervening block) are the copy-paste
//!   double-charge shape — the kernel pays twice.
//! * **VBA505**: every `transient_launch("substr", …)` fault matcher
//!   must match at least one kernel in the resolved registry;
//!   an unmatchable substring is dead chaos coverage that tests
//!   nothing. (The empty substring matches every launch and is the
//!   chaos suites' wildcard — always fine.)

use crate::index::{Index, NameRes};
use crate::lints::{codes, Finding};

/// Transitive charge-chasing depth (closure → helper → math kernel).
const CHARGE_DEPTH: u32 = 3;

/// Runs VBA501…VBA505.
pub fn run(idx: &Index<'_>, findings: &mut Vec<Finding>) {
    let reach = idx.reachable_fns();
    for f in &idx.files {
        let ctx = f.ctx;
        for site in &f.launches {
            // Test launches are indexed (they feed the registry the
            // matcher audit checks against) but not linted: tests may
            // launch throwaway kernels however they like.
            if site.is_test {
                continue;
            }
            if let NameRes::Unresolved(expr) = &site.resolution {
                findings.push(ctx.finding(
                    codes::KERNEL_UNRESOLVED,
                    "launch-graph",
                    site.line,
                    format!(
                        "kernel name `{expr}` does not resolve to the intern \
                         registry; route it through `kname::<T>(\"base\")`, \
                         `intern::literal`/`intern::prefixed`, or a local \
                         `*_kname()` helper so the launch vocabulary stays \
                         statically enumerable"
                    ),
                ));
            }
            if let Some(fi) = site.fn_idx {
                let d = &f.fns[fi];
                if !(d.is_pub || d.name == "main" || reach.contains(&d.name)) {
                    findings.push(ctx.finding(
                        codes::LAUNCH_UNREACHABLE,
                        "launch-graph",
                        site.line,
                        format!(
                            "launch inside `{}`, which is not reachable from any \
                             public driver entry, `main`, or test; dead launch \
                             paths pollute the kernel registry — delete the \
                             function or export a driver that uses it",
                            d.name
                        ),
                    ));
                }
            }
            if site.closure.is_some() {
                let direct = !site.charges.is_empty();
                let transitive = site
                    .closure_calls
                    .iter()
                    .any(|c| idx.charges_transitively(c, CHARGE_DEPTH));
                if !direct && !transitive {
                    findings.push(
                        ctx.finding(
                            codes::LAUNCH_UNCHARGED,
                            "launch-graph",
                            site.line,
                            "launch closure never charges BlockCost (no \
                         flops/gmem/smem charge reachable within three calls): \
                         an uncharged kernel runs for free and skews the sim \
                         clock/energy goldens"
                                .to_string(),
                        ),
                    );
                }
                for w in site.charges.windows(2) {
                    let (p, q) = (&w[0], &w[1]);
                    if p.method == q.method && p.args == q.args && !brace_between(f, p.tok, q.tok) {
                        findings.push(ctx.finding(
                            codes::LAUNCH_DOUBLE_CHARGED,
                            "launch-graph",
                            q.line,
                            format!(
                                "`{}({})` charged twice in a row with identical \
                                 arguments — the copy-paste double-charge shape; \
                                 delete one or make the second charge's cost \
                                 expression distinct",
                                q.method, q.args
                            ),
                        ));
                    }
                }
            }
        }
        for m in &f.matchers {
            if !m.substring.is_empty() && !idx.any_kernel_contains(&m.substring) {
                findings.push(ctx.finding(
                    codes::DEAD_FAULT_MATCHER,
                    "launch-graph",
                    m.line,
                    format!(
                        "fault matcher `transient_launch(\"{}\", …)` matches no \
                         kernel in the resolved registry — dead chaos coverage; \
                         fix the substring or register the kernel it targets",
                        m.substring
                    ),
                ));
            }
        }
    }
}

/// Whether any `{`/`}` token lies strictly between two token indices
/// of the same file (used to restrict VBA504 to same-block runs).
fn brace_between(f: &crate::index::FileIndex<'_>, a: usize, b: usize) -> bool {
    f.ctx.scan.tokens[a..=b]
        .iter()
        .any(|t| t.text == "{" || t.text == "}")
}
