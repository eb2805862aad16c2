//! The two JSON shapes other tools read and write must not move when the
//! types behind them are reorganised: the `ScenarioSpec` file format
//! (`bench --spec`, `bench --dump`) and the `RunReport` sections.
//!
//! Both fixtures under `tests/fixtures/` were written by `bench` at the
//! commit *before* the spec types and the runtime types were merged
//! (`bench --spec … --dump` and `bench --spec …` writing its report array to
//! a file, which `--json-out` does today), so
//! they record what that code produced, not what this code thinks is right.

use serde::{Content, Serialize};
use simba_driver::{scenario, Driver, ScenarioParams, ScenarioSpec};

/// Every optional block a spec file can carry, across two specs because
/// `delta` excludes an active `fault`: the first has `size`, a remote
/// engine, an adaptive source, `Exponential` think, `Open` arrival, a
/// cache, `delta`, an explicit-but-inert `fault` and a full `resilience`
/// block; the second an idebench source, `Fixed` think, `"cache": null`, a
/// `u64::MAX` seed, an active `fault` with every probability set and a
/// `resilience` block whose omitted fields were filled with their defaults.
#[test]
fn spec_fixture_parses_validates_and_reserialises_byte_identically() {
    let fixture = include_str!("fixtures/scenario_spec_every_block.json");
    let specs: Vec<ScenarioSpec> = serde_json::from_str(fixture).expect("fixture parses");
    assert_eq!(specs.len(), 2);
    for spec in &specs {
        spec.validate().expect("fixture validates");
    }
    assert!(specs[0].delta && specs[0].engine.is_remote() && specs[0].size.is_some());
    assert!(specs[1].fault.as_ref().is_some_and(|f| f.is_active()));
    let dumped = serde_json::to_string_pretty(&specs).expect("specs serialize");
    assert_eq!(dumped, fixture.trim_end());
}

/// One line per key of a serialized report, in document order:
/// `prefix.section.key`, with ` = null` marking an absent optional section.
/// Arrays (the per-session `degraded` flags) are leaves.
fn key_lines(prefix: &str, content: &Content, out: &mut Vec<String>) {
    let Content::Map(entries) = content else {
        return;
    };
    for (key, value) in entries {
        let path = format!("{prefix}.{key}");
        match value {
            Content::Null => out.push(format!("{path} = null")),
            _ => {
                out.push(path.clone());
                key_lines(&path, value, out);
            }
        }
    }
}

/// The reports of one `chaos` spec (cache on, adaptive, faults + retries)
/// and one `delta-shootout` spec (adaptive, delta on) at 1500 rows carry
/// exactly the fixture's sections and keys, in its order.
#[test]
fn run_reports_carry_exactly_the_fixture_sections_and_keys() {
    let params = ScenarioParams {
        rows: 1_500,
        ..Default::default()
    };
    let mut lines = Vec::new();
    for (name, index) in [("chaos", 1), ("delta-shootout", 3)] {
        let spec = &scenario(name, &params).expect(name).specs[index];
        let report = Driver::execute(spec).expect("spec runs").report;
        assert!(report.queries > 0);
        key_lines(name, &report.to_content(), &mut lines);
    }
    let fixture: Vec<&str> = include_str!("fixtures/run_report_keys.txt")
        .lines()
        .collect();
    assert_eq!(lines, fixture);
}
