//! Kernel-name interning.
//!
//! [`crate::Device::launch`] takes `&'static str` so the steady-state
//! driver path never builds a `String` per launch. Kernel names that are
//! computed at runtime — the `{prefix}{base}` pattern of the vbatched
//! kernels, where the precision prefix comes from a generic parameter —
//! are interned here: the concatenation is allocated once per distinct
//! `(prefix, base)` pair and leaked, and every later lookup is a single
//! ordered-map probe on `Copy` keys with no allocation.
//!
//! The table is global and append-only. The set of kernel names in a
//! process is a small static vocabulary (two precisions × a few dozen
//! kernels), so the leak is bounded and intentional, and the whole
//! vocabulary is enumerable via [`known_names`] — which is why launch
//! sites register even constant names through [`literal`] instead of
//! passing raw string literals (`tests/kernel_coverage.rs` checks every
//! launched name against the vocabulary).

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use crate::workers::lock;

type Table = Mutex<BTreeMap<(&'static str, &'static str), &'static str>>;

static TABLE: OnceLock<Table> = OnceLock::new();

fn table() -> &'static Table {
    TABLE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Returns the interned concatenation `{prefix}{base}`.
///
/// The first call for a given pair allocates (and leaks) the joined
/// string; subsequent calls return the same `&'static str` without
/// allocating.
#[must_use]
pub fn prefixed(prefix: &'static str, base: &'static str) -> &'static str {
    let mut t = lock(table());
    t.entry((prefix, base))
        .or_insert_with(|| Box::leak(format!("{prefix}{base}").into_boxed_str()))
}

/// Registers a constant kernel name in the vocabulary and returns it.
///
/// Functionally the identity on `name`, but the side effect matters:
/// the name becomes visible to [`known_names`], so tooling (and the
/// static-analysis pass) can enumerate every kernel the process may
/// launch. Launch sites must use this (or [`prefixed`] / `kname`)
/// rather than passing a bare literal.
#[must_use]
pub fn literal(name: &'static str) -> &'static str {
    let mut t = lock(table());
    t.entry(("", name)).or_insert(name)
}

/// Every kernel name registered so far, in lexicographic order.
///
/// Deterministic by construction (the table is a `BTreeMap`), so the
/// result is stable for a given set of registrations regardless of
/// call order.
#[must_use]
pub fn known_names() -> Vec<&'static str> {
    let t = lock(table());
    let mut names: Vec<&'static str> = t.values().copied().collect();
    names.sort_unstable();
    names.dedup();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_pair_returns_same_pointer() {
        let a = prefixed("d", "gemm_vbatched");
        let b = prefixed("d", "gemm_vbatched");
        assert_eq!(a, "dgemm_vbatched");
        assert!(std::ptr::eq(a, b), "interned names must be deduplicated");
    }

    #[test]
    fn distinct_pairs_are_distinct() {
        assert_eq!(prefixed("s", "potf2"), "spotf2");
        assert_eq!(prefixed("d", "potf2"), "dpotf2");
        assert_ne!(prefixed("s", "potf2"), prefixed("d", "potf2"));
    }

    #[test]
    fn literal_registers_into_vocabulary() {
        let a = literal("vbatch_test_kernel_xyz");
        assert!(std::ptr::eq(a, "vbatch_test_kernel_xyz"));
        assert!(known_names().contains(&"vbatch_test_kernel_xyz"));
        // Idempotent and allocation-free on repeat.
        let b = literal("vbatch_test_kernel_xyz");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn known_names_sorted_and_deduped() {
        let _ = literal("zz_last");
        let _ = literal("aa_first");
        let names = known_names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(names, sorted);
    }
}
