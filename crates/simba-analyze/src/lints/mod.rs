//! The lint catalog: the pluggable [`Lint`] trait and the five lints that
//! encode the determinism contract.

use crate::config::Config;
use crate::ctx::FileCtx;
use crate::diag::{Diagnostic, Level};

mod env_read;
mod nondet_iter;
mod panic_hygiene;
mod randomness;
mod wall_clock;

pub use env_read::EnvReadOutsideCli;
pub use nondet_iter::NondeterministicIteration;
pub use panic_hygiene::PanicHygiene;
pub use randomness::UnseededRandomness;
pub use wall_clock::WallClockOutsideObs;

/// Lint name: unordered `HashMap`/`HashSet` iteration in result paths.
pub const NONDET_ITER: &str = "nondeterministic-iteration";
/// Lint name: `Instant::now`/`SystemTime::now` outside timing modules.
pub const WALL_CLOCK: &str = "wall-clock-outside-obs";
/// Lint name: entropy-seeded RNG anywhere.
pub const UNSEEDED_RANDOMNESS: &str = "unseeded-randomness";
/// Lint name: `std::env` reads anywhere (every knob is a flag or a spec
/// field).
pub const ENV_READ: &str = "env-read-outside-cli";
/// Lint name: `unwrap()`/`expect()`/indexing in worker-critical paths.
pub const PANIC_HYGIENE: &str = "panic-hygiene";

/// One static check over a file's token stream.
///
/// A lint never does its own path scoping or pragma handling — the runner
/// applies [`Config`] scopes before calling [`Lint::check`] and filters
/// suppressed diagnostics after, so every lint composes with pragmas and
/// scoping identically.
pub trait Lint {
    /// Stable kebab-case name, used in pragmas, `--lint` filters, and
    /// JSON output.
    fn name(&self) -> &'static str;
    /// One-line description for `simba-lint --list`.
    fn description(&self) -> &'static str;
    /// Default severity.
    fn level(&self) -> Level;
    /// Scan one file, appending diagnostics. `cfg` carries sub-scopes a
    /// lint may consult (e.g. the slice-indexing scope).
    fn check(&self, file: &FileCtx, cfg: &Config, out: &mut Vec<Diagnostic>);
}

/// Every lint this crate ships, in catalog order.
pub fn all_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(NondeterministicIteration),
        Box::new(WallClockOutsideObs),
        Box::new(UnseededRandomness),
        Box::new(EnvReadOutsideCli),
        Box::new(PanicHygiene),
    ]
}

/// Shared constructor so every lint's diagnostics carry the same shape.
pub(crate) fn diag(
    lint: &'static str,
    level: Level,
    file: &FileCtx,
    tok_idx: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        lint,
        level,
        path: file.path.clone(),
        line: file.line(tok_idx),
        message,
        context: file.enclosing_fn(tok_idx).map(|s| s.to_string()),
    }
}
