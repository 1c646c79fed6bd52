//! `compare <base.json> <new.json>`: one row per metric x workload with
//! base, new, ratio and verdict. Needs no rerun: result files carry each
//! wall metric's quartiles and sample count.

use crate::json::{self, Json};
use crate::metrics::{self, Better, Clock};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The quartile spread of either side exceeds the bound, so the two
    /// medians cannot be told apart at this bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: the value and its relative quartile spread
/// (0 when the file carries no quartiles).
#[derive(Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// `absolute` compares the difference itself with the bound instead of
/// its share of the base: metrics that are already shares (unit
/// `ratio`) sit near 0, where a relative difference means nothing.
pub fn judge(base: Side, new: Side, better: Better, bound: f64, absolute: bool) -> Verdict {
    if base.value.to_bits() == new.value.to_bits() {
        return Verdict::Same;
    }
    if !absolute && base.spread.max(new.spread) > bound {
        return Verdict::Unresolved;
    }
    // Positive when `new` is worse.
    let scale = if absolute {
        1.0
    } else {
        base.value.abs().max(f64::MIN_POSITIVE)
    };
    let worse_by = match better {
        Better::Lower => (new.value - base.value) / scale,
        Better::Higher => (base.value - new.value) / scale,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn side(row: &Json) -> Option<Side> {
    let value = row.get("value")?.num()?;
    let spread = match (
        row.get("q1").and_then(Json::num),
        row.get("q3").and_then(Json::num),
    ) {
        (Some(q1), Some(q3)) => (q3 - q1).abs() / value.abs().max(f64::MIN_POSITIVE),
        _ => 0.0,
    };
    Some(Side { value, spread })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    json::parse(&text).ok_or_else(|| format!("{path}: not valid JSON"))
}

/// Bounds `BENCHMARK.json` fixes for its end-to-end metrics; every other
/// metric falls back to its clock's bound.
fn contract_bounds(benchmark_json: &str) -> Vec<(String, f64)> {
    load(benchmark_json)
        .ok()
        .and_then(|doc| {
            doc.get("end_to_end").map(|list| {
                list.items()
                    .iter()
                    .filter_map(|e| {
                        Some((e.get("name")?.str()?.to_owned(), e.get("bound")?.num()?))
                    })
                    .collect()
            })
        })
        .unwrap_or_default()
}

/// Compares two result files. `Ok(true)` when no end-to-end row is
/// `worse`.
///
/// # Errors
/// Unreadable files, or files whose thread count or tile schemes differ
/// (their wall-clock figures are not comparable).
pub fn compare(base_path: &str, new_path: &str, benchmark_json: &str) -> Result<bool, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let meta = |doc: &Json, key: &str| doc.get("meta").and_then(|m| m.get(key)).cloned();
    for key in ["threads", "scheme_f64", "scheme_f32"] {
        let (b, n) = (meta(&base, key), meta(&new, key));
        if b != n || b.is_none() {
            return Err(format!(
                "meta.{key} differs ({} vs {}): the files are not comparable",
                b.map_or("absent".into(), |v| v.render()),
                n.map_or("absent".into(), |v| v.render()),
            ));
        }
    }
    let same_seed = meta(&base, "seed") == meta(&new, "seed");
    let contract = contract_bounds(benchmark_json);
    let mut clean = true;
    println!(
        "{:<13} {:<34} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "new", "ratio"
    );
    let empty = Json::Obj(Vec::new());
    let workloads = base.get("workloads").unwrap_or(&empty);
    for (workload, b_block) in workloads.entries() {
        let Some(n_block) = new.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<13} missing from {new_path}");
            clean = false;
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            let rows = b_block.get(section).unwrap_or(&empty);
            for (name, b_row) in rows.entries() {
                let Some((m, end_to_end)) = metrics::find(name) else {
                    continue;
                };
                let n_row = n_block.get(section).and_then(|s| s.get(name));
                let (Some(b), Some(n)) = (side(b_row), n_row.and_then(side)) else {
                    println!("{workload:<13} {name:<34} missing from {new_path}");
                    clean &= !end_to_end;
                    continue;
                };
                // The contract's bound covers seed-to-seed spread; at one
                // seed a simulated metric is held to its clock's bound.
                let bound = match contract.iter().find(|(k, _)| k == name) {
                    Some((_, bound)) if m.clock == Clock::Wall || !same_seed => *bound,
                    _ => m.clock.bound(),
                };
                let verdict = judge(b, n, m.better, bound, m.unit == "ratio");
                println!(
                    "{workload:<13} {name:<34} {:>14.6e} {:>14.6e} {:>8.4}  {}{}",
                    b.value,
                    n.value,
                    n.value / b.value,
                    verdict.label(),
                    if end_to_end { "" } else { " (layer, advisory)" },
                );
                clean &= !(end_to_end && verdict == Verdict::Worse);
            }
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // Within the bound either way: same.
        let rel = |b, n, better, bound| judge(b, n, better, bound, false);
        assert_eq!(rel(s(1.0, 0.0), s(1.05, 0.0), Lower, 0.1), Verdict::Same);
        // Lower is better: +20 % is worse, -20 % is better.
        assert_eq!(rel(s(1.0, 0.0), s(1.2, 0.0), Lower, 0.1), Verdict::Worse);
        assert_eq!(rel(s(1.0, 0.0), s(0.8, 0.0), Lower, 0.1), Verdict::Better);
        // Higher is better: the same moves flip.
        assert_eq!(rel(s(1.0, 0.0), s(1.2, 0.0), Higher, 0.1), Verdict::Better);
        assert_eq!(rel(s(1.0, 0.0), s(0.8, 0.0), Higher, 0.1), Verdict::Worse);
        // A spread wider than the bound cannot resolve the difference.
        assert_eq!(
            rel(s(1.0, 0.15), s(1.2, 0.0), Lower, 0.1),
            Verdict::Unresolved
        );
        // Exact metrics: any move the wrong way is worse; equal bits are
        // the same whatever the spread says.
        assert_eq!(rel(s(17.0, 0.0), s(18.0, 0.0), Lower, 0.0), Verdict::Worse);
        assert_eq!(rel(s(17.0, 0.9), s(17.0, 0.9), Lower, 0.0), Verdict::Same);
        // Shares compare by difference: 0.001 -> 0.004 is not "4x worse".
        assert_eq!(
            judge(s(0.001, 0.0), s(0.004, 0.0), Lower, 0.1, true),
            Verdict::Same
        );
        assert_eq!(
            judge(s(0.0, 0.0), s(0.004, 0.0), Lower, 0.0, true),
            Verdict::Worse
        );
    }
}
