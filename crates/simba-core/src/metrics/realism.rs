//! The realism probe: quantifying what the paper's user-study experts keyed
//! on (§6.4).
//!
//! Experts identified SIMBA logs by "repeatedly emitted SQL queries
//! returning zero results" — an artifact of the Markov phase; human analysts
//! "would rarely repeat this error in the same session". This module
//! computes those statistics from session logs, plus the binomial test the
//! paper applies to the experts' 6/12 guesses.

use crate::session::{ModelChoice, SessionLog};

/// Zero-result statistics of one session log.
#[derive(Debug, Clone, PartialEq)]
pub struct EmptyResultStats {
    pub total_queries: usize,
    pub empty_queries: usize,
    /// Longest run of consecutive zero-result queries.
    pub longest_empty_run: usize,
    /// Number of interactions *all of whose* queries returned zero rows —
    /// the "interaction produced an empty visualization" events the experts
    /// counted.
    pub empty_interactions: usize,
    /// Empty interactions produced by the Markov model specifically.
    pub markov_empty_interactions: usize,
    /// Empty interactions produced by the Oracle.
    pub oracle_empty_interactions: usize,
}

impl EmptyResultStats {
    /// Fraction of queries returning zero rows.
    pub fn empty_fraction(&self) -> f64 {
        if self.total_queries == 0 {
            0.0
        } else {
            self.empty_queries as f64 / self.total_queries as f64
        }
    }

    /// The expert heuristic: does the log look machine-generated? Humans
    /// occasionally hit an empty view but rarely *repeat* it, so the tell
    /// is 3+ consecutive zero-row queries (across interaction boundaries),
    /// or 3+ interactions in the session whose queries all returned zero
    /// rows, consecutive or not.
    pub fn looks_simulated(&self) -> bool {
        self.longest_empty_run >= 3 || self.empty_interactions >= 3
    }
}

/// Compute zero-result statistics for a session log.
pub fn empty_result_stats(log: &SessionLog) -> EmptyResultStats {
    let mut total = 0usize;
    let mut empty = 0usize;
    let mut longest_run = 0usize;
    let mut current_run = 0usize;
    let mut empty_interactions = 0usize;
    let mut markov_empty = 0usize;
    let mut oracle_empty = 0usize;

    for entry in &log.entries {
        for q in &entry.queries {
            total += 1;
            if q.is_empty() {
                empty += 1;
                current_run += 1;
                longest_run = longest_run.max(current_run);
            } else {
                current_run = 0;
            }
        }
        if !entry.queries.is_empty() && entry.queries.iter().all(|q| q.is_empty()) {
            empty_interactions += 1;
            match entry.model {
                ModelChoice::Markov => markov_empty += 1,
                ModelChoice::Oracle => oracle_empty += 1,
                ModelChoice::InitialRender => {}
            }
        }
    }

    EmptyResultStats {
        total_queries: total,
        empty_queries: empty,
        longest_empty_run: longest_run,
        empty_interactions,
        markov_empty_interactions: markov_empty,
        oracle_empty_interactions: oracle_empty,
    }
}

/// Exact binomial tail probability `P(X ≥ k)` for `X ~ Binomial(n, p)` —
/// the test the paper uses on expert guesses ("the probability of 7 or more
/// successes is 38.7%").
pub fn binomial_tail(n: u64, k: u64, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut tail = 0.0;
    for i in k..=n {
        tail += binomial_pmf(n, i, p);
    }
    tail.min(1.0)
}

fn binomial_pmf(n: u64, k: u64, p: f64) -> f64 {
    // ln C(n, k) via lgamma-free accumulation (n is small in our use).
    let mut ln_c = 0.0f64;
    for i in 0..k {
        ln_c += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    (ln_c + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{LogEntry, QueryRecord, SessionLog};
    use std::time::Duration;

    fn record(rows: usize) -> QueryRecord {
        QueryRecord {
            vis: "v".into(),
            sql: "SELECT 1 FROM t".into(),
            duration: Duration::from_millis(1),
            rows,
        }
    }

    fn entry(step: usize, model: ModelChoice, rows: &[usize]) -> LogEntry {
        LogEntry {
            step,
            model,
            action: "a".into(),
            action_kind: None,
            queries: rows.iter().map(|r| record(*r)).collect(),
        }
    }

    fn log(entries: Vec<LogEntry>) -> SessionLog {
        SessionLog {
            dashboard: "d".into(),
            engine: "e".into(),
            seed: 0,
            entries,
            goals: vec![],
        }
    }

    #[test]
    fn counts_empty_queries_and_runs() {
        let l = log(vec![
            entry(0, ModelChoice::InitialRender, &[5, 3]),
            entry(1, ModelChoice::Markov, &[0, 0]),
            entry(2, ModelChoice::Markov, &[0]),
            entry(3, ModelChoice::Oracle, &[7]),
        ]);
        let s = empty_result_stats(&l);
        assert_eq!(s.total_queries, 6);
        assert_eq!(s.empty_queries, 3);
        assert_eq!(s.longest_empty_run, 3);
        assert_eq!(s.empty_interactions, 2);
        assert_eq!(s.markov_empty_interactions, 2);
        assert_eq!(s.oracle_empty_interactions, 0);
        assert!(s.looks_simulated());
    }

    #[test]
    fn human_like_log_does_not_look_simulated() {
        let l = log(vec![
            entry(0, ModelChoice::InitialRender, &[5]),
            entry(1, ModelChoice::Markov, &[0]),
            entry(2, ModelChoice::Oracle, &[4]),
            entry(3, ModelChoice::Oracle, &[2]),
        ]);
        let s = empty_result_stats(&l);
        assert_eq!(s.empty_interactions, 1);
        assert!(!s.looks_simulated());
    }

    #[test]
    fn binomial_matches_paper_number() {
        // §6.4: "the probability of 7 or more successes [out of 12 at
        // p=0.5] is 38.7%".
        let p = binomial_tail(12, 7, 0.5);
        assert!((p - 0.387).abs() < 0.005, "got {p}");
    }

    #[test]
    fn binomial_edge_cases() {
        assert!((binomial_tail(10, 0, 0.5) - 1.0).abs() < 1e-12);
        assert_eq!(binomial_tail(10, 11, 0.5), 0.0);
        assert!((binomial_tail(1, 1, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_fraction_handles_zero_queries() {
        let s = empty_result_stats(&log(vec![]));
        assert_eq!(s.empty_fraction(), 0.0);
    }
}
