//! The `bench` CLI: workload scenarios and the SIMBA paper's experiments.
//!
//! ## The `bench` CLI
//!
//! Every scenario — built-in, from a JSON spec file, or one of the paper's
//! experiments — runs through the `bench` binary. The usage below *is*
//! `--help`: both this page and the binary render `src/bench_usage.txt`,
//! so they cannot drift apart.
//!
//! ```text
#![doc = include_str!("bench_usage.txt")]
//! ```
//!
//! ## The paper's experiments
//!
//! Each `paper/` scenario regenerates one of the paper's experiments
//! ([`paper`]):
//!
//! | scenario | experiment |
//! |---|---|
//! | `paper/table3_grid` | Table 3's parameter grid |
//! | `paper/figure7_dashboards` | Figure 7: per-dashboard query durations |
//! | `paper/figure8_workflows` | Figure 8: durations by workflow × dashboard |
//! | `paper/table4_workload_stats` | Table 4: workload shape statistics |
//! | `paper/figure9_idebench` | Figure 9: IDEBench dashboard variance |
//! | `paper/user_study_probe` | §6.4: realism probe + binomial test |
//! | `paper/dbms_shootout` | §6 headline: the two engine architectures × dataset sizes |
//! | `paper/ablation_interleave` | interleaving ablation (P(Markov) ∈ {0, ½, 1}) |
//! | `paper/ablation_horizon` | Oracle lookahead-depth ablation |
//!
//! By default everything runs at laptop scale; pass `--rows` (e.g.
//! `--rows 10000000`) to reproduce paper-scale runs. The measured
//! performance of the stack — end to end and per layer — is the repo-root
//! `benchmark/` package's job (see `benchmark/README.md`).

pub mod paper;
pub mod scenario_cli;
