//! # simba-analyze — static enforcement of the reproducibility contract
//!
//! The SIMBA workspace promises byte-identical `RunReport`s for a given
//! `ScenarioSpec`: across reruns, worker counts, cache on/off, tracing
//! on/off, and fault specs. That promise is easy to break silently — one
//! `HashMap` iteration feeding a serialized list, one `Instant::now()` in
//! a result path, one `thread_rng()` — and nothing fails until two runs
//! disagree. This crate turns the contract into a lint pass.
//!
//! ## Design
//!
//! A hand-rolled lexer ([`lex`]) produces a token stream with comments
//! stripped and string literals opaque; [`ctx::FileCtx`] layers on
//! function/module spans, `#[cfg(test)]` regions, and suppression
//! pragmas. Each lint ([`lints::Lint`]) is a pure pattern matcher over
//! that stream; [`config::Config`] holds the path scoping that makes the
//! pass workspace-aware; [`workspace`] walks files in sorted order and
//! applies scoping and suppression so the report itself is deterministic.
//! The crate has **zero dependencies** — the gate that enforces hygiene
//! should not import any.
//!
//! ## The lints
//!
//! | lint | contract clause |
//! |------|-----------------|
//! | `nondeterministic-iteration` | hash-ordered iteration must not reach results/reports |
//! | `wall-clock-outside-obs` | time is read only where time is the deliverable |
//! | `unseeded-randomness` | all randomness chains from the scenario seed |
//! | `env-read-outside-cli` | no crate reads the environment: every knob is a flag or a spec field |
//! | `panic-hygiene` | worker-critical paths degrade, never die |
//!
//! ## Suppression
//!
//! ```text
//! // simba: allow(<lint>[, <lint>...]): <justification>
//! // simba: allow-file(<lint>): <justification>
//! ```
//!
//! The first form covers its own line and the next code line; the second
//! covers the file. The justification is the point: every pragma in the
//! tree documents *why* a site is exempt from the contract.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p simba-analyze --bin simba-lint -- --deny
//! cargo run -p simba-analyze --bin simba-lint -- --json --lint panic-hygiene
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod ctx;
pub mod diag;
pub mod lex;
pub mod lints;
pub mod workspace;

pub use config::{Config, LintScope};
pub use ctx::FileCtx;
pub use diag::{Diagnostic, Level, Report};
pub use lints::{all_lints, Lint};
pub use workspace::{analyze_file, analyze_workspace, collect_files};

/// Analyze one in-memory source file under a config — the entry point
/// fixture tests use.
pub fn analyze_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let file = FileCtx::new(path, src);
    analyze_file(&file, cfg, &all_lints())
}
