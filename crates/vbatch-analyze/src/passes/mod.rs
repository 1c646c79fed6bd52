//! Phase 2: graph and dataflow passes over the cross-crate
//! [`crate::index::Index`].
//!
//! * [`concurrency`] — VBA401, the audit of cross-thread wrapper types.
//! * [`launch_graph`] — VBA501…VBA505, the launch-site contract.
//! * [`pool_lifecycle`] — VBA601/VBA602, pooled-buffer reuse.
//!
//! Findings produced here go through the same `analyze:allow` waiver
//! machinery as the token lints (each pass builds findings via the
//! owning file's context).

pub mod concurrency;
pub mod launch_graph;
pub mod pool_lifecycle;

use crate::index::Index;
use crate::lints::Finding;

/// Runs every phase-2 pass, appending findings.
pub fn run(idx: &Index<'_>, findings: &mut Vec<Finding>) {
    concurrency::run(idx, findings);
    launch_graph::run(idx, findings);
    pool_lifecycle::run(idx, findings);
}
