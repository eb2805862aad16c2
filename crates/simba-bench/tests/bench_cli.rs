//! The `bench` binary end to end: what `--list` names, how a flag that a
//! `paper/` scenario does not take is refused, and what happens when the
//! report cannot be written.

use std::path::Path;
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .output()
        .expect("bench starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn list_names_all_nine_paper_scenarios() {
    let out = bench(&["--list"]);
    assert!(out.status.success());
    let stdout = text(&out.stdout);
    let paper: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("paper/"))
        .collect();
    assert_eq!(paper.len(), 9, "{stdout}");
}

#[test]
fn a_paper_scenario_refuses_other_flags_by_name() {
    let out = bench(&["--scenario", "paper/table4_workload_stats", "--users", "2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).starts_with("--users does not apply to paper/ scenarios"));
    assert!(out.stdout.is_empty());

    let out = bench(&["--scenario", "paper/table9_grid"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(text(&out.stderr).contains("unknown scenario `paper/table9_grid`"));
}

#[test]
fn an_unwritable_json_out_exits_1_with_a_message() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("no-such-dir/reports.json");
    let path = path.to_str().expect("UTF-8 path");
    let out = bench(&[
        "--scenario",
        "smoke",
        "--engine",
        "duckdb-like",
        "--rows",
        "200",
        "--users",
        "1",
        "--steps",
        "2",
        "--json-out",
        path,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(
        stderr.contains(&format!("error: cannot write reports to {path}")),
        "{stderr}"
    );
}
