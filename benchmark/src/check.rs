//! The correctness gate: errors, pinned digests, and a row-oracle sample.
//!
//! Run on the traced rounds of every run. A round's digest is the driver's
//! own `fingerprint::digest` over the fingerprints the probe took from what
//! the driver fed back, so cache hits, delta replays and seeded scans are
//! all covered.

use crate::probe::{QueryRecord, Tier};
use crate::run::{Parts, Round};
use crate::workloads::{by_name, Workload, TWIN_SESSIONS};
use serde::{Deserialize, Serialize};
use simba_driver::fingerprint::digest;
use simba_driver::{fingerprint, ERROR_FINGERPRINT};
use simba_engine::execute_row_oracle;

/// Queries per run re-executed through the row-at-a-time oracle.
pub const ORACLE_SAMPLES: usize = 24;

/// The digests `golden.json` pins for one workload at one size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenEntry {
    pub workload: String,
    pub rows: usize,
    pub sessions: usize,
    pub steps: usize,
    /// Digest over every session of a round.
    pub digest: u64,
    /// Digest over sessions `0..TWIN_SESSIONS`.
    pub prefix_digest: u64,
}

/// `golden.json`: the digests of every workload at one table seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Golden {
    pub seed: u64,
    pub entries: Vec<GoldenEntry>,
}

impl Golden {
    /// The pins compiled into this binary.
    pub fn pinned() -> Result<Golden, String> {
        serde_json::from_str(include_str!("../golden.json"))
            .map_err(|e| format!("benchmark/golden.json does not parse: {e}"))
    }

    fn entry(&self, w: &Workload) -> Option<&GoldenEntry> {
        self.entries.iter().find(|e| {
            e.workload == w.name && (e.rows, e.sessions, e.steps) == (w.rows, w.sessions, w.steps)
        })
    }
}

/// What the gate found.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    pub digest: u64,
    pub prefix_digest: u64,
    /// Oracle comparisons made.
    pub oracle_checked: usize,
    /// Empty when the workload's outputs are correct.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn golden_entry(&self, w: &Workload) -> GoldenEntry {
        GoldenEntry {
            workload: w.name.to_string(),
            rows: w.rows,
            sessions: w.sessions,
            steps: w.steps,
            digest: self.digest,
            prefix_digest: self.prefix_digest,
        }
    }
}

fn digests(w: &Workload, round: &Round) -> (u64, u64) {
    let fingerprints = round.probe.fingerprints(w.sessions);
    let prefix = TWIN_SESSIONS.min(fingerprints.len());
    (digest(&fingerprints), digest(&fingerprints[..prefix]))
}

/// Check the traced rounds of one run against `golden` (the pins of
/// [`Golden::pinned`], or nothing while they are being re-recorded).
pub fn verify(
    w: &Workload,
    seed: u64,
    parts: &Parts,
    traced: &[Round],
    golden: Option<&Golden>,
) -> Verdict {
    let first = &traced[0];
    let (digest, prefix_digest) = digests(w, first);
    let mut v = Verdict {
        digest,
        prefix_digest,
        ..Verdict::default()
    };
    for (i, round) in traced.iter().enumerate() {
        if round.report.errors > 0 {
            v.problems.push(format!(
                "round {i}: {} of {} queries errored",
                round.report.errors, round.report.queries
            ));
        }
        if round.probe.queries.len() as u64 != round.report.queries {
            v.problems.push(format!(
                "round {i}: the probe saw {} queries, the driver reports {}",
                round.probe.queries.len(),
                round.report.queries
            ));
        }
        if digests(w, round).0 != digest {
            v.problems.push(format!(
                "round {i}: digest differs from round 0 (same work)"
            ));
        }
    }
    if let Some(pin) = golden.filter(|g| g.seed == seed).and_then(|g| g.entry(w)) {
        if pin.digest != digest {
            v.problems.push(format!(
                "digest {digest:#018x} differs from the pinned {:#018x}",
                pin.digest
            ));
        }
        if pin.prefix_digest != prefix_digest {
            v.problems.push(format!(
                "twin prefix digest {prefix_digest:#018x} differs from the pinned {:#018x}",
                pin.prefix_digest
            ));
        }
    }
    for q in oracle_sample(&first.probe.queries) {
        v.oracle_checked += 1;
        let expected = match execute_row_oracle(parts.table.clone(), &q.select) {
            Ok(out) => fingerprint(&out.result),
            Err(_) => ERROR_FINGERPRINT,
        };
        if expected != q.fingerprint {
            v.problems.push(format!(
                "row oracle disagrees with the {:?} answer to: {}",
                q.tier,
                simba_sql::printer::print_select(&q.select)
            ));
        }
    }
    v
}

/// [`ORACLE_SAMPLES`] queries, spread evenly over the round and stratified
/// so every tier that answered anything is represented.
fn oracle_sample(queries: &[QueryRecord]) -> Vec<&QueryRecord> {
    let tiers = [Tier::Cache, Tier::DeltaStates, Tier::DeltaSeed, Tier::Scan];
    let strata: Vec<Vec<&QueryRecord>> = tiers
        .iter()
        .map(|t| queries.iter().filter(|q| q.tier == *t).collect())
        .filter(|s: &Vec<_>| !s.is_empty())
        .collect();
    if strata.is_empty() {
        return Vec::new();
    }
    let per_stratum = ORACLE_SAMPLES.div_ceil(strata.len());
    let mut picked: Vec<&QueryRecord> = strata
        .iter()
        .flat_map(|s| crate::replay::evenly_spaced(s, per_stratum))
        .copied()
        .collect();
    picked.truncate(ORACLE_SAMPLES);
    picked
}

/// The twin rule as a property of the pins themselves: the two dashboard
/// workloads share a table and their first `TWIN_SESSIONS` walks, so their
/// prefix digests must be one value.
pub fn twins_agree(golden: &Golden) -> Result<(), String> {
    let prefix = |name: &str| {
        by_name(name)
            .and_then(|w| golden.entry(w))
            .map(|e| e.prefix_digest)
            .ok_or_else(|| format!("golden.json has no entry for {name} at its full size"))
    };
    let (scan, reuse) = (prefix("dash_scan_250k")?, prefix("dash_reuse_250k")?);
    if scan == reuse {
        Ok(())
    } else {
        Err(format!(
            "twin prefix digests differ: dash_scan_250k {scan:#018x}, dash_reuse_250k {reuse:#018x}"
        ))
    }
}
