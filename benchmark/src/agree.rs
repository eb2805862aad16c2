//! `agree <a.json> <b.json>`: do two result files (two runs of one commit,
//! or a parent and a change) agree within the bounds of `BENCHMARK.json`?
//!
//! One row per (workload, end-to-end metric): both values, the change with
//! its base, the bound, and a verdict. `worse` fails the command; so do
//! files measured on different hardware, which cannot be compared at all.

use crate::report::{number, string, Contract, Declared};
use serde::Content;
use std::fmt::Write as _;

/// How one (workload, metric) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so
    /// the bound cannot be held against the difference.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Compare `b` against the base `a`. `spread` is the wider of the two
/// sides' quartile spreads (share of the median), when the files carry one.
pub fn verdict(metric: &Declared, a: f64, b: f64, spread: Option<f64>) -> (f64, Verdict) {
    let bound = metric.bound.unwrap_or(0.0);
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worse_by = if metric.higher_is_better {
        -change
    } else {
        change
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (change, verdict)
}

fn parse(path: &str) -> Result<Content, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric<'a>(file: &'a Content, workload: &str, section: &str, name: &str) -> Option<&'a Content> {
    file.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(name)
}

/// The report and whether every pair agreed (no `worse`, nothing missing).
pub fn agree(path_a: &str, path_b: &str, contract: &Contract) -> Result<(String, bool), String> {
    let (a, b) = (parse(path_a)?, parse(path_b)?);
    for field in ["nproc", "cpu_model"] {
        let of = |file: &Content| file.get("env").and_then(|e| e.get(field)).cloned();
        if of(&a) != of(&b) {
            return Err(format!(
                "refusing to compare: `{field}` differs ({:?} vs {:?}); results from different hardware say nothing about the code",
                of(&a),
                of(&b)
            ));
        }
    }
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<20} {:<14} {:>12} {:>12} {:>9} {:>6}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    );
    for workload in &contract.workloads {
        for m in &contract.end_to_end {
            let side = |file: &Content| {
                let entry = metric(file, workload, "end_to_end", &m.name)?;
                Some((
                    entry.get("value").and_then(number)?,
                    entry.get("spread").and_then(number),
                ))
            };
            let (Some((va, sa)), Some((vb, sb))) = (side(&a), side(&b)) else {
                let _ = writeln!(out, "{workload:<20} {:<14} missing from a file", m.name);
                ok = false;
                continue;
            };
            let spread = match (sa, sb) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let (change, v) = verdict(m, va, vb, spread);
            ok &= v != Verdict::Worse;
            let _ = writeln!(
                out,
                "{workload:<20} {:<14} {va:>12.4} {vb:>12.4} {:>+8.2}% {:>5.0}%  {}{}",
                m.name,
                change * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                v.label(),
                spread.map_or(String::new(), |s| format!(" (spread {:.1}%)", s * 100.0)),
            );
        }
        // Counts compare two runs of one program exactly; a difference
        // between two commits is information, between two runs of one
        // commit it is a determinism bug. Reported, never a verdict.
        for m in contract.per_layer.iter().filter(|m| m.unit == "count") {
            let value = |file| {
                metric(file, workload, "per_layer", &m.name)?
                    .get("value")
                    .and_then(number)
            };
            if let (Some(va), Some(vb)) = (value(&a), value(&b)) {
                if va != vb {
                    let _ = writeln!(out, "{workload:<20} {} count differs: {va} vs {vb}", m.name);
                }
            }
        }
        for (file, label) in [(&a, "a"), (&b, "b")] {
            let correct = file
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("correct"));
            if correct != Some(&Content::Bool(true)) {
                let _ = writeln!(out, "{workload:<20} not correct in {label}");
                ok = false;
            }
        }
    }
    let _ = writeln!(
        out,
        "a: seed {:?}, commit {}; b: seed {:?}, commit {}",
        a.get("seed").and_then(number),
        commit(&a),
        b.get("seed").and_then(number),
        commit(&b)
    );
    Ok((out, ok))
}

fn commit(file: &Content) -> &str {
    file.get("env")
        .and_then(|e| e.get("git_commit"))
        .and_then(string)
        .unwrap_or("unknown")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(higher: bool, bound: f64) -> Declared {
        Declared {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let latency = declared(false, 0.10);
        assert_eq!(verdict(&latency, 100.0, 105.0, None).1, Verdict::Same);
        assert_eq!(verdict(&latency, 100.0, 111.0, None).1, Verdict::Worse);
        assert_eq!(verdict(&latency, 100.0, 85.0, None).1, Verdict::Better);
        let (change, _) = verdict(&latency, 200.0, 210.0, None);
        assert!((change - 0.05).abs() < 1e-12);
        let throughput = declared(true, 0.07);
        assert_eq!(verdict(&throughput, 100.0, 92.0, None).1, Verdict::Worse);
        assert_eq!(verdict(&throughput, 100.0, 108.0, None).1, Verdict::Better);
        assert_eq!(verdict(&throughput, 100.0, 95.0, None).1, Verdict::Same);
        // A spread wider than the bound makes any difference unresolved.
        assert_eq!(
            verdict(&latency, 100.0, 150.0, Some(0.2)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&latency, 100.0, 111.0, Some(0.05)).1,
            Verdict::Worse
        );
    }
}
