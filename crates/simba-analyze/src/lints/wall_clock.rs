//! `wall-clock-outside-obs`: reading the clock is a privilege.
//!
//! A wall-clock read in a fingerprint or report-content path makes output
//! depend on *when* the run happened — the exact thing the byte-identical
//! RunReport contract forbids. Time is allowed only where it is the
//! deliverable: the observability substrate and the driver's
//! pacing/deadline modules (see [`Config::workspace_default`]). Everything
//! else must thread durations through from those layers, or pragma the
//! site with a justification.

use super::{diag, Lint, WALL_CLOCK};
use crate::config::Config;
use crate::ctx::FileCtx;
use crate::diag::{Diagnostic, Level};

/// Flags `Instant::now()` and `SystemTime::now()` calls.
pub struct WallClockOutsideObs;

impl Lint for WallClockOutsideObs {
    fn name(&self) -> &'static str {
        WALL_CLOCK
    }

    fn description(&self) -> &'static str {
        "Instant::now/SystemTime::now outside simba-obs and the driver's pacing/deadline modules"
    }

    fn level(&self) -> Level {
        Level::Deny
    }

    fn check(&self, file: &FileCtx, _cfg: &Config, out: &mut Vec<Diagnostic>) {
        for i in 0..file.toks.len() {
            let ty = file.t(i);
            if (ty == "Instant" || ty == "SystemTime")
                && file.is_path_sep(i + 1)
                && file.is_ident(i + 3, "now")
            {
                out.push(diag(
                    WALL_CLOCK,
                    self.level(),
                    file,
                    i,
                    format!(
                        "`{ty}::now()` read outside the timing modules: latency and pacing \
                         must be measured in simba-obs or the driver, never where results, \
                         fingerprints, or report contents are computed"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<u32> {
        let file = FileCtx::new("x.rs", src);
        let mut out = Vec::new();
        WallClockOutsideObs.check(&file, &Config::permissive(), &mut out);
        out.iter().map(|d| d.line).collect()
    }

    #[test]
    fn flags_both_clock_types() {
        let lines = run("fn f() {\nlet a = Instant::now();\nlet b = SystemTime::now();\n}");
        assert_eq!(lines, [2, 3]);
    }

    #[test]
    fn ignores_mentions_in_strings_and_elapsed_calls() {
        assert!(
            run("fn f(start: Instant) { let s = \"Instant::now\"; start.elapsed(); }").is_empty()
        );
    }
}
