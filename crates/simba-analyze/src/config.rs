//! Workspace scoping: which paths each lint audits or exempts.
//!
//! The default [`Config`] *is* the reproducibility contract, written as
//! path prefixes (see ARCHITECTURE.md, "Static analysis"):
//!
//! * determinism-sensitive code (fingerprint/report paths, engines, the
//!   store) is **in scope** for iteration-order and panic lints;
//! * wall-clock reads are **allowed** only where time is the deliverable
//!   (`simba-obs`, the driver's pacing and deadline modules); any other
//!   timing site carries an inline pragma saying why;
//! * environment reads and unseeded randomness are banned *everywhere* —
//!   no allowed paths: every knob is a flag or a `ScenarioSpec` field.
//!
//! `tests/`, `benches/`, `examples/`, fixtures, and vendored crates are
//! skipped globally: the contract governs shipped library behavior.

use std::collections::BTreeMap;

/// Per-lint path scoping.
#[derive(Debug, Clone, Default)]
pub struct LintScope {
    /// Only files under one of these prefixes are audited. Empty = every
    /// scanned file.
    pub include: Vec<String>,
    /// Files under these prefixes are exempt (the lint's allowlist).
    pub exclude: Vec<String>,
}

impl LintScope {
    /// Does this scope audit `path`?
    pub fn covers(&self, path: &str) -> bool {
        let included =
            self.include.is_empty() || self.include.iter().any(|p| path.starts_with(p.as_str()));
        included && !self.exclude.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// Analyzer configuration: scan roots, global skips, per-lint scopes.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the workspace root) to walk for `.rs`
    /// files.
    pub scan_roots: Vec<String>,
    /// Path *substrings* that exclude a file from scanning entirely.
    pub skip_fragments: Vec<String>,
    /// Scope per lint name. A lint without an entry audits every scanned
    /// file.
    pub scopes: BTreeMap<String, LintScope>,
    /// Subset of `panic-hygiene`'s scope in which slice indexing is also
    /// flagged (the driver's worker loop and the single-flight cache,
    /// where an out-of-bounds panic kills a worker thread mid-session).
    pub index_scope: Vec<String>,
}

impl Config {
    /// The workspace contract (see module docs).
    pub fn workspace_default() -> Config {
        let mut scopes = BTreeMap::new();
        scopes.insert(
            crate::lints::NONDET_ITER.to_string(),
            LintScope {
                // Everything that computes results, fingerprints, reports,
                // or report-carried metrics.
                include: vec![
                    "crates/simba-driver/src/".into(),
                    "crates/simba-engine/src/".into(),
                    "crates/simba-store/src/".into(),
                    "crates/simba-obs/src/metrics.rs".into(),
                    // Results crossing the wire must serialize in a
                    // deterministic order or fingerprints diverge.
                    "crates/simba-server/src/".into(),
                    // Delta keys are sorted normalized conjuncts: unordered
                    // iteration here would split or merge reuse classes.
                    "crates/simba-sql/src/refine.rs".into(),
                ],
                exclude: vec![],
            },
        );
        scopes.insert(
            crate::lints::WALL_CLOCK.to_string(),
            LintScope {
                include: vec![],
                exclude: vec![
                    // The observability substrate is *about* time.
                    "crates/simba-obs/".into(),
                    // Think-time pacing, arrival schedules, and wall-clock
                    // run measurement live here by design.
                    "crates/simba-driver/src/driver.rs".into(),
                    // Deadlines, backoff, and breaker cool-downs.
                    "crates/simba-driver/src/resilience.rs".into(),
                ],
            },
        );
        scopes.insert(
            crate::lints::UNSEEDED_RANDOMNESS.to_string(),
            // Banned everywhere: all randomness chains from the scenario
            // seed via splitmix64.
            LintScope::default(),
        );
        scopes.insert(
            crate::lints::ENV_READ.to_string(),
            // Banned everywhere: every knob is a flag or a spec field.
            LintScope::default(),
        );
        scopes.insert(
            crate::lints::PANIC_HYGIENE.to_string(),
            LintScope {
                include: vec![
                    "crates/simba-driver/src/driver.rs".into(),
                    "crates/simba-driver/src/cache.rs".into(),
                    "crates/simba-engine/src/exec.rs".into(),
                    "crates/simba-engine/src/batch.rs".into(),
                    // Session-delta reuse runs inside the worker loop; a
                    // panic on a stale entry kills a session mid-run.
                    "crates/simba-engine/src/delta.rs".into(),
                    "crates/simba-sql/src/refine.rs".into(),
                    "crates/simba-engine/src/engines/".into(),
                    // A panic in a connection worker kills that client's
                    // session; bad frames must be errors, not aborts.
                    "crates/simba-server/src/".into(),
                ],
                exclude: vec![],
            },
        );
        Config {
            scan_roots: vec!["crates".into()],
            skip_fragments: vec![
                "/tests/".into(),
                "/benches/".into(),
                "/examples/".into(),
                "/fixtures/".into(),
                "vendor/".into(),
                "target/".into(),
            ],
            scopes,
            index_scope: vec![
                "crates/simba-driver/src/driver.rs".into(),
                "crates/simba-driver/src/cache.rs".into(),
            ],
        }
    }

    /// A permissive config for fixture tests: every lint audits every
    /// file handed to it, and slice indexing is checked everywhere.
    pub fn permissive() -> Config {
        Config {
            scan_roots: vec![],
            skip_fragments: vec![],
            scopes: BTreeMap::new(),
            index_scope: vec![String::new()], // "" prefixes every path
        }
    }

    /// Is `path` excluded from scanning entirely?
    pub fn skips(&self, path: &str) -> bool {
        self.skip_fragments
            .iter()
            .any(|f| path.contains(f.as_str()))
    }

    /// Does `lint` audit `path` under this config?
    pub fn lint_covers(&self, lint: &str, path: &str) -> bool {
        self.scopes
            .get(lint)
            .map(|s| s.covers(path))
            .unwrap_or(true)
    }

    /// Is slice indexing audited in `path`?
    pub fn index_covers(&self, path: &str) -> bool {
        self.index_scope
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scopes_encode_the_contract() {
        let cfg = Config::workspace_default();
        assert!(cfg.lint_covers(
            crate::lints::NONDET_ITER,
            "crates/simba-driver/src/cache.rs"
        ));
        assert!(!cfg.lint_covers(crate::lints::NONDET_ITER, "crates/simba-sql/src/parser.rs"));
        assert!(cfg.lint_covers(
            crate::lints::NONDET_ITER,
            "crates/simba-server/src/proto.rs"
        ));
        assert!(cfg.lint_covers(
            crate::lints::PANIC_HYGIENE,
            "crates/simba-server/src/server.rs"
        ));
        assert!(cfg.lint_covers(
            crate::lints::PANIC_HYGIENE,
            "crates/simba-engine/src/delta.rs"
        ));
        assert!(cfg.lint_covers(crate::lints::NONDET_ITER, "crates/simba-sql/src/refine.rs"));
        assert!(!cfg.lint_covers(crate::lints::WALL_CLOCK, "crates/simba-obs/src/trace.rs"));
        assert!(cfg.lint_covers(crate::lints::WALL_CLOCK, "crates/simba-engine/src/exec.rs"));
        assert!(cfg.lint_covers(crate::lints::ENV_READ, "crates/simba-bench/src/lib.rs"));
        assert!(cfg.lint_covers(crate::lints::WALL_CLOCK, "crates/simba-bench/src/paper.rs"));
        assert!(cfg.lint_covers(crate::lints::ENV_READ, "crates/simba-core/src/lib.rs"));
        assert!(cfg.lint_covers(
            crate::lints::UNSEEDED_RANDOMNESS,
            "crates/simba-core/src/markov.rs"
        ));
        assert!(cfg.index_covers("crates/simba-driver/src/driver.rs"));
        assert!(!cfg.index_covers("crates/simba-engine/src/exec.rs"));
    }

    #[test]
    fn skip_fragments_drop_test_and_vendor_paths() {
        let cfg = Config::workspace_default();
        assert!(cfg.skips("crates/simba-driver/tests/foo.rs"));
        assert!(cfg.skips("vendor/rand/src/lib.rs"));
        assert!(cfg.skips("crates/simba-analyze/tests/fixtures/x.rs"));
        assert!(!cfg.skips("crates/simba-driver/src/driver.rs"));
    }
}
