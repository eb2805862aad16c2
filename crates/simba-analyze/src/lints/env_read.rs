//! `env-read-outside-cli`: behavior is driven by flags and specs only.
//!
//! An `std::env::var` read anywhere gives the process environment silent
//! influence over results: a scenario replayed on another machine (or in
//! CI) can behave differently with no change to the command line or the
//! spec. No crate may read the environment; every knob is a command-line
//! flag or a `ScenarioSpec` field, which a run's report or command records.

use super::{diag, Lint, ENV_READ};
use crate::config::Config;
use crate::ctx::FileCtx;
use crate::diag::{Diagnostic, Level};

/// `std::env` read accessors (writes like `set_var` are flagged too — a
/// library mutating the environment to pass itself messages is worse).
const ENV_READS: &[&str] = &["var", "var_os", "vars", "vars_os", "set_var", "remove_var"];

/// Flags `env::var`-family calls.
pub struct EnvReadOutsideCli;

impl Lint for EnvReadOutsideCli {
    fn name(&self) -> &'static str {
        ENV_READ
    }

    fn description(&self) -> &'static str {
        "std::env reads anywhere: every knob is a flag or a spec field"
    }

    fn level(&self) -> Level {
        Level::Deny
    }

    fn check(&self, file: &FileCtx, _cfg: &Config, out: &mut Vec<Diagnostic>) {
        for i in 0..file.toks.len() {
            if file.is_ident(i, "env") && file.is_path_sep(i + 1) {
                let accessor = file.t(i + 3);
                if ENV_READS.contains(&accessor) {
                    out.push(diag(
                        ENV_READ,
                        self.level(),
                        file,
                        i,
                        format!(
                            "`env::{accessor}`: no crate may read the environment; make the \
                             knob a command-line flag or a ScenarioSpec field"
                        ),
                    ));
                }
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
        EnvReadOutsideCli.check(&file, &Config::permissive(), &mut out);
        out.iter().map(|d| d.line).collect()
    }

    #[test]
    fn flags_env_reads_by_any_path_spelling() {
        let src = "fn f() {\nlet a = std::env::var(\"X\");\nlet b = env::var_os(\"Y\");\n}";
        assert_eq!(run(src), [2, 3]);
    }

    #[test]
    fn env_named_locals_are_clean() {
        assert!(run("fn f(env: &Env) { env.lookup(\"X\"); }").is_empty());
    }
}
