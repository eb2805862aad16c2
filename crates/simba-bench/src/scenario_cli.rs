//! The runner behind `bench --scenario <name>`.
//!
//! One code path expands a named scenario (or a spec file) into
//! [`ScenarioSpec`]s, executes each through [`Driver::execute`], prints a
//! progress table, and emits the full [`RunReport`] array as JSON — to
//! stdout or to the file named by `--json-out`. Empty or errored runs
//! make the process exit non-zero, which is what CI keys on.

use simba_driver::workload::TableCache;
use simba_driver::{Driver, RunReport, ScenarioSpec};

/// Parse the `--users` comma-separated sweep (`"1,8,64"`). Strict: one
/// non-numeric, zero or empty entry makes the whole value invalid.
pub fn parse_users(s: &str) -> Option<Vec<usize>> {
    s.split(',')
        .map(|p| p.trim().parse::<usize>().ok().filter(|&u| u > 0))
        .collect()
}

/// Compact count for the summary table: `999`, `12.3K`, `4.5M`, `1.2B`.
fn compact_count(n: u64) -> String {
    match n {
        0..=999 => n.to_string(),
        1_000..=999_999 => format!("{:.1}K", n as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}M", n as f64 / 1e6),
        _ => format!("{:.1}B", n as f64 / 1e9),
    }
}

/// Header for [`print_row`].
pub fn print_header() {
    println!(
        "{:<14} {:>9} {:>6} {:>6} {:>4} {:>8} {:>10} {:>9} {:>9} {:>8} {:>7} {:>7} {:>6} {:>6}",
        "engine",
        "source",
        "users",
        "cache",
        "scan",
        "queries",
        "qps",
        "p50 ms",
        "p99 ms",
        "scanned",
        "pruned",
        "hit%",
        "btrk",
        "drill"
    );
}

/// One aligned table row per executed spec.
pub fn print_row(report: &RunReport, cached: bool) {
    println!(
        "{:<14} {:>9} {:>6} {:>6} {:>4} {:>8} {:>10.0} {:>9.3} {:>9.3} {:>8} {:>7} {:>7} {:>6} {:>6}",
        report.engine,
        report.session_mode,
        report.sessions,
        if cached { "on" } else { "off" },
        report.scan_threads,
        report.queries,
        report.throughput_qps,
        report.latency.p50_us / 1_000.0,
        report.latency.p99_us / 1_000.0,
        compact_count(report.exec.rows_scanned),
        compact_count(report.exec.morsels_pruned),
        report
            .cache
            .as_ref()
            .map(|c| format!("{:.1}", c.hit_rate * 100.0))
            .unwrap_or_else(|| "-".to_string()),
        report
            .steering
            .as_ref()
            .map(|s| s.backtracks.to_string())
            .unwrap_or_else(|| "-".to_string()),
        report
            .steering
            .as_ref()
            .map(|s| s.drills.to_string())
            .unwrap_or_else(|| "-".to_string()),
    );
}

/// What a suite run produced: every report completed before the first
/// failure (all of them on success), plus the failure itself, if any.
/// Keeping the two separate lets callers emit the partial report JSON
/// *before* exiting non-zero, so a failed or degraded run stays
/// inspectable.
pub struct SuiteOutcome {
    /// Reports of the specs that ran to completion, in suite order.
    pub reports: Vec<RunReport>,
    /// Why the suite stopped early, or `None` if every spec completed.
    pub error: Option<String>,
}

/// Execute every spec in order, printing a row per run.
///
/// Stops at the first spec that fails to execute or produces an *empty*
/// report (zero queries) — the "benchmark silently did nothing" failure
/// mode CI must catch — but the reports gathered up to that point survive
/// in the returned [`SuiteOutcome`].
pub fn run_specs(specs: &[ScenarioSpec]) -> SuiteOutcome {
    if specs.is_empty() {
        return SuiteOutcome {
            reports: Vec::new(),
            error: Some("scenario expanded to zero specs".to_string()),
        };
    }
    print_header();
    // One dataset generation per (dataset, rows, seed) across the suite.
    let mut tables = TableCache::new();
    let mut reports = Vec::with_capacity(specs.len());
    for spec in specs {
        let outcome = match Driver::execute_with(spec, &mut tables) {
            Ok(outcome) => outcome,
            Err(e) => {
                return SuiteOutcome {
                    reports,
                    error: Some(format!("{}: {e}", spec.name)),
                }
            }
        };
        if outcome.report.queries == 0 {
            let error = format!(
                "{} ({} / {}): empty report — no queries executed",
                spec.name,
                spec.engine.kind_name(),
                outcome.report.session_mode
            );
            return SuiteOutcome {
                reports,
                error: Some(error),
            };
        }
        print_row(&outcome.report, spec.cache.is_some());
        reports.push(outcome.report);
    }
    SuiteOutcome {
        reports,
        error: None,
    }
}

/// `(degraded sessions, total sessions)` across a suite's reports.
/// Reports without a `resilience` section contribute zero degraded
/// sessions: the section is emitted whenever the policy was active or any
/// query errored, so a report without one had no failed query.
pub fn degraded_totals(reports: &[RunReport]) -> (u64, u64) {
    let degraded = reports
        .iter()
        .filter_map(|r| r.resilience.as_ref())
        .map(|r| r.degraded_sessions)
        .sum();
    let total = reports.iter().map(|r| r.sessions as u64).sum();
    (degraded, total)
}

/// Enforce a `--max-degraded` percentage over a finished suite: `Err`
/// (with a ready-to-print message) when strictly more than `max_percent`
/// of all sessions ended degraded.
pub fn check_max_degraded(reports: &[RunReport], max_percent: f64) -> Result<(), String> {
    let (degraded, total) = degraded_totals(reports);
    if total == 0 {
        return Ok(());
    }
    let percent = degraded as f64 / total as f64 * 100.0;
    if percent > max_percent {
        return Err(format!(
            "{degraded} of {total} sessions ({percent:.1}%) ended degraded, \
             over the --max-degraded {max_percent}% budget"
        ));
    }
    Ok(())
}

/// Arm span collection for the rest of the process. A `--trace-sample`
/// (`sample`: keep 1-in-N root spans; 0 keeps none) is set first so no
/// unsampled root sneaks in.
pub fn enable_tracing(sample: Option<u64>) {
    if let Some(n) = sample {
        simba_obs::trace::set_sample_every(n);
    }
    simba_obs::trace::set_enabled(true);
}

/// Drain every span collected so far and write them as one Chrome
/// `trace_event` JSON file (load in `chrome://tracing` or Perfetto).
pub fn write_trace(path: &str) -> Result<(), String> {
    let events = simba_obs::trace::take_events();
    let json = simba_obs::trace::export_chrome_trace(&events);
    std::fs::write(path, &json).map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    println!("wrote {} spans to {path}", events.len());
    Ok(())
}

/// Write the report array as pretty JSON to the `--json-out` file, or
/// print it to stdout when there is none.
pub fn emit_json(reports: &[RunReport], json_out: Option<&str>) -> Result<(), String> {
    let json = serde_json::to_string_pretty(reports).expect("reports serialize");
    match json_out {
        Some(path) => {
            std::fs::write(path, json)
                .map_err(|e| format!("cannot write reports to {path}: {e}"))?;
            println!("wrote {} reports to {path}", reports.len());
        }
        None => println!("{json}"),
    }
    Ok(())
}
