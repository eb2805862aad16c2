//! The `bench` binary end to end: what `--list` names, how a flag that a
//! `paper/` scenario does not take is refused, what happens when the
//! report cannot be written, what a traced smoke run writes, and how a
//! degraded-session budget fails a run.

use serde::Content;
use simba_driver::{scenario, RunReport, ScenarioParams};
use simba_engine::EngineKind;
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

/// A path under the test target's scratch directory.
fn scratch(name: &str) -> String {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    path.to_str().expect("UTF-8 path").to_string()
}

/// `bench --scenario smoke` on each engine, traced: the run succeeds, and
/// its trace is JSON whose spans are all complete events, from every layer
/// that ran: a driver session, a cache lookup and an engine execution.
#[test]
fn traced_smoke_run_has_driver_cache_and_engine_spans_on_every_engine() {
    for kind in EngineKind::ALL {
        let path = scratch(&format!("smoke-trace-{}.json", kind.name()));
        let out = bench(&[
            "--scenario",
            "smoke",
            "--engine",
            kind.name(),
            "--rows",
            "500",
            "--users",
            "2",
            "--steps",
            "4",
            "--trace-out",
            &path,
            "--metrics",
        ]);
        assert!(out.status.success(), "{}", text(&out.stderr));
        let json = std::fs::read_to_string(&path).expect("trace written");
        let trace: Content = serde_json::from_str(&json).expect("trace is JSON");
        let Some(Content::Seq(events)) = trace.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        let str_of = |e: &Content, key: &str| match e.get(key) {
            Some(Content::Str(s)) => s.clone(),
            other => panic!("{key} is {other:?}"),
        };
        for e in events {
            assert_eq!(str_of(e, "ph"), "X", "{e:?}");
            let Some(&Content::F64(dur)) = e.get("dur") else {
                panic!("no numeric dur: {e:?}");
            };
            assert!(dur >= 0.0, "{e:?}");
        }
        for layer in ["driver", "cache", "engine"] {
            assert!(
                events.iter().any(|e| str_of(e, "cat") == layer),
                "{}: no {layer} spans",
                kind.name()
            );
        }
    }
}

/// `--max-degraded 1` under chaos, whose permanent-error storm degrades
/// every session of its run: the exit status is non-zero, and every run's
/// report is still written first.
#[test]
fn a_degraded_budget_fails_the_run_after_writing_every_report() {
    let path = scratch("chaos-over-budget.json");
    let _ = std::fs::remove_file(&path);
    let (rows, users, steps) = (500, 2, 4);
    let out = bench(&[
        "--scenario",
        "chaos",
        "--rows",
        &rows.to_string(),
        "--users",
        &users.to_string(),
        "--steps",
        &steps.to_string(),
        "--max-degraded",
        "1",
        "--json-out",
        &path,
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    assert!(text(&out.stderr).contains("over the --max-degraded 1% budget"));
    let json = std::fs::read_to_string(&path).expect("reports written");
    let reports: Vec<RunReport> = serde_json::from_str(&json).expect("reports parse");
    let params = ScenarioParams {
        rows,
        users: vec![users],
        steps,
        ..ScenarioParams::default()
    };
    let suite = scenario("chaos", &params).expect("chaos is registered");
    assert_eq!(reports.len(), suite.specs.len());
    assert!(reports
        .iter()
        .all(|r| r.schema_version == RunReport::SCHEMA_VERSION));
}
