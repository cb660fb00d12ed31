//! `stabl-benchmark compare A.json B.json`: is set B no worse than set A?
//!
//! Each file holds the records `run.sh --out FILE` appended, one JSON
//! object per line. Per workload the comparer takes the median of every
//! end-to-end metric over the file's untraced records and checks that B
//! is not worse than A by more than the metric's bound, that the
//! `sim_digest`s agree, and that B failed no more operations than A.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::metrics::{median, Better, EndToEnd, END_TO_END};

/// By how much of `a` the value `b` is worse; negative when better.
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `true` if `b` is worse than `a` by more than the metric's bound.
pub fn regressed(metric: &EndToEnd, a: f64, b: f64) -> bool {
    worsening(metric.better, a, b) > metric.bound
}

/// The untraced records of one workload in one file.
#[derive(Default)]
struct Set {
    metrics: BTreeMap<String, Vec<f64>>,
    digests: Vec<(u64, String)>,
    failed: u64,
    calibration_ms: Vec<f64>,
}

fn number(value: Option<&Value>) -> Option<f64> {
    match value? {
        Value::F64(v) => Some(*v),
        Value::U64(v) => Some(*v as f64),
        Value::I64(v) => Some(*v as f64),
        _ => None,
    }
}

fn text(value: Option<&Value>) -> Option<&str> {
    match value? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn load(path: &str) -> Result<BTreeMap<String, Set>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut sets: BTreeMap<String, Set> = BTreeMap::new();
    for (i, line) in body
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record: Value =
            serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if record.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload =
            text(record.get("workload")).ok_or(format!("{path}:{}: no workload", i + 1))?;
        let set = sets.entry(workload.to_owned()).or_default();
        for metric in &END_TO_END {
            let value = record.get("metrics").and_then(|m| m.get(metric.name));
            if let Some(value) = number(value.and_then(|v| v.get("value"))) {
                set.metrics
                    .entry(metric.name.to_owned())
                    .or_default()
                    .push(value);
            }
        }
        let seed = match record.get("seed") {
            Some(Value::U64(seed)) => *seed,
            _ => return Err(format!("{path}:{}: no seed", i + 1)),
        };
        if let Some(digest) = text(record.get("sim_digest")) {
            set.digests.push((seed, digest.to_owned()));
        }
        set.failed += number(record.get("failed")).unwrap_or(0.0) as u64;
        for host in ["host_start", "host_end"] {
            let calibration = record.get(host).and_then(|h| h.get("calibration_ms"));
            set.calibration_ms.extend(number(calibration));
        }
    }
    Ok(sets)
}

/// Prints one row per workload — a positive percentage is B worse than
/// A, whichever way the metric improves; `Ok(true)` if every workload of
/// A is in B and within bounds.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let a = load(path_a)?;
    let b = load(path_b)?;
    if a.is_empty() {
        return Err(format!("{path_a}: no untraced records"));
    }
    let mut all_within = true;
    for (workload, set_a) in &a {
        let Some(set_b) = b.get(workload) else {
            println!("{workload}: missing from {path_b}");
            all_within = false;
            continue;
        };
        let mut row = format!("{workload}:");
        for metric in &END_TO_END {
            let (Some(values_a), Some(values_b)) = (
                set_a.metrics.get(metric.name),
                set_b.metrics.get(metric.name),
            ) else {
                row.push_str(&format!(" {} missing |", metric.name));
                all_within = false;
                continue;
            };
            let (med_a, med_b) = (median(values_a), median(values_b));
            let worse = worsening(metric.better, med_a, med_b);
            let verdict = if regressed(metric, med_a, med_b) {
                all_within = false;
                "REGRESSED"
            } else {
                "ok"
            };
            row.push_str(&format!(
                " {} {med_a:.4} -> {med_b:.4} {} {:+.2}% (bound {:.0}%) {verdict} |",
                metric.name,
                metric.unit,
                worse * 100.0,
                metric.bound * 100.0
            ));
        }
        // Digests are a function of the seed: compare seed by seed.
        let by_seed: BTreeMap<u64, &String> = set_a.digests.iter().map(|(s, d)| (*s, d)).collect();
        let shared: Vec<bool> = set_b
            .digests
            .iter()
            .filter_map(|(seed, digest)| Some(by_seed.get(seed)? == &digest))
            .collect();
        row.push_str(match (shared.is_empty(), shared.iter().all(|same| *same)) {
            (true, _) => " sim_digest: no shared seed |",
            (false, true) => " sim_digest same |",
            (false, false) => " sim_digest DIFFERS: host times are not like-for-like |",
        });
        if set_b.failed > set_a.failed {
            all_within = false;
        }
        row.push_str(&format!(" failed {} -> {} |", set_a.failed, set_b.failed));
        let (cal_a, cal_b) = (median(&set_a.calibration_ms), median(&set_b.calibration_ms));
        if cal_a > 0.0 && ((cal_b - cal_a) / cal_a).abs() > 0.10 {
            row.push_str(&format!(
                " host calibration {cal_a:.1} -> {cal_b:.1} ms: the hosts differ"
            ));
        } else {
            row.push_str(" host calibration agrees");
        }
        println!("{row}");
    }
    Ok(all_within)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "runs_per_wall_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn lower_is_better_regresses_only_upwards() {
        assert!(!regressed(&LOWER, 10.0, 10.9));
        assert!(regressed(&LOWER, 10.0, 11.1));
        // Any improvement is within bounds.
        assert!(!regressed(&LOWER, 10.0, 1.0));
    }

    #[test]
    fn higher_is_better_regresses_only_downwards() {
        assert!(!regressed(&HIGHER, 10.0, 9.1));
        assert!(regressed(&HIGHER, 10.0, 8.9));
        assert!(!regressed(&HIGHER, 10.0, 100.0));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(Better::Lower, 4.0, 5.0) - 0.25).abs() < 1e-12);
        assert!((worsening(Better::Higher, 4.0, 5.0) + 0.25).abs() < 1e-12);
    }
}
