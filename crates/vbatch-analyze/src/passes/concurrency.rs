//! VBA401 — the concurrency pass over cross-thread wrapper types.
//!
//! Every `unsafe impl Send`/`Sync` must carry a SAFETY comment that
//! *names the implemented wrapper type*, so the audit trail survives
//! refactors (a comment about "the pointer" silently goes stale when the
//! wrapper is renamed or split).

use crate::index::{FileIndex, Index};
use crate::lints::{codes, Finding};

/// Runs VBA401 over every file.
pub fn run(idx: &Index<'_>, findings: &mut Vec<Finding>) {
    for f in &idx.files {
        send_sync_named(f, findings);
    }
}

/// VBA401: the SAFETY comment above an `unsafe impl Send/Sync` must
/// name the implemented type.
fn send_sync_named(f: &FileIndex<'_>, findings: &mut Vec<Finding>) {
    for site in &f.unsafe_impls {
        if site.is_test || site.type_name.is_empty() {
            continue;
        }
        if !site.comment.contains(&site.type_name) {
            findings.push(f.ctx.finding(
                codes::SEND_SYNC_UNNAMED,
                "send-sync-audit",
                site.line,
                format!(
                    "`unsafe impl {} for {}` whose SAFETY comment does not name \
                     `{}`; name the audited wrapper type so the justification \
                     cannot silently go stale under a rename",
                    site.trait_name, site.type_name, site.type_name
                ),
            ));
        }
    }
}
