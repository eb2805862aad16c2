//! The runner behind `bench --scenario <name>`.
//!
//! One code path expands a named scenario (or a spec file) into
//! [`ScenarioSpec`]s, executes each through [`Driver::execute`], prints a
//! progress table, and emits the full [`RunReport`] array as JSON — to
//! stdout or to the file named by `SIMBA_JSON_OUT`. Empty or errored runs
//! make the process exit non-zero, which is what CI keys on.

use simba_driver::workload::TableCache;
use simba_driver::{
    run_datagen_sweep, DatagenReport, DatagenSweep, Driver, RunReport, ScenarioParams, ScenarioSpec,
};

/// Parse a comma-separated user sweep (`"1,8,64"`): the one parser behind
/// both `SIMBA_USERS` and the CLI's `--users`. Non-numeric and zero
/// entries are dropped; `None` if nothing valid remains.
pub fn parse_users(s: &str) -> Option<Vec<usize>> {
    let users: Vec<usize> = s
        .split(',')
        .filter_map(|p| p.trim().parse().ok())
        .filter(|&u| u > 0)
        .collect();
    if users.is_empty() {
        None
    } else {
        Some(users)
    }
}

/// Parse a comma-separated `DatasetSize` label list (`"100K,1M"`): the one
/// parser behind both `SIMBA_SIZES` and the CLI's `--sizes`. Blank entries
/// are dropped; `None` if nothing remains. Label validity is checked by
/// the sweep itself, so typos produce a real error instead of silently
/// vanishing here.
pub fn parse_sizes(s: &str) -> Option<Vec<String>> {
    let sizes: Vec<String> = s
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect();
    if sizes.is_empty() {
        None
    } else {
        Some(sizes)
    }
}

/// Validate a server address for `--addr`/`SIMBA_SERVER_ADDR`, exiting
/// with a usage error on a malformed one. The rule is
/// [`simba_driver::validate_addr`] — the same check spec validation
/// applies — run here at flag-parse time so a typo fails before any
/// dataset is generated or socket dialed.
pub fn addr_or_exit(addr: String) -> String {
    if let Err(e) = simba_driver::validate_addr(&addr) {
        eprintln!("{e}");
        std::process::exit(2);
    }
    addr
}

/// Scale knobs from `SIMBA_*` environment variables over `defaults`:
/// `SIMBA_ROWS`, `SIMBA_SEED`, `SIMBA_USERS` (comma-separated sweep),
/// `SIMBA_STEPS`, `SIMBA_WORKERS`, `SIMBA_THINK_MS`, `SIMBA_SIZES`
/// (comma-separated `DatasetSize` labels), `SIMBA_SERVER_ADDR`
/// (`host:port` of a live `simba-server`, or `"loopback"`).
pub fn params_from_env(defaults: ScenarioParams) -> ScenarioParams {
    let usize_var = |name: &str, dflt: usize| -> usize {
        std::env::var(name)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(dflt)
    };
    let users = std::env::var("SIMBA_USERS")
        .ok()
        .and_then(|s| parse_users(&s))
        .unwrap_or_else(|| defaults.users.clone());
    let sizes = std::env::var("SIMBA_SIZES")
        .ok()
        .and_then(|s| parse_sizes(&s))
        .unwrap_or_else(|| defaults.sizes.clone());
    let addr = std::env::var("SIMBA_SERVER_ADDR")
        .ok()
        .map(addr_or_exit)
        .unwrap_or_else(|| defaults.addr.clone());
    ScenarioParams {
        rows: usize_var("SIMBA_ROWS", defaults.rows),
        seed: crate::configured_seed_or(defaults.seed),
        users,
        steps: usize_var("SIMBA_STEPS", defaults.steps),
        workers: usize_var("SIMBA_WORKERS", defaults.workers),
        think_ms: usize_var("SIMBA_THINK_MS", defaults.think_ms as usize) as u64,
        sizes,
        addr,
    }
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
/// sessions — a legacy-path run can't degrade.
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

/// Run a generation-throughput sweep, printing one aligned row per timed
/// cell, and return the report.
pub fn run_datagen(sweep: &DatagenSweep) -> Result<DatagenReport, String> {
    println!(
        "{:<22} {:>6} {:>12} {:>8} {:>10} {:>12} {:>8}",
        "dataset", "size", "rows", "threads", "secs", "rows/sec", "speedup"
    );
    run_datagen_sweep(sweep, |e| {
        println!(
            "{:<22} {:>6} {:>12} {:>8} {:>10.3} {:>12.0} {:>8}",
            e.dataset,
            e.size,
            e.rows,
            e.threads,
            e.secs,
            e.rows_per_sec,
            e.speedup_vs_single
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string()),
        );
    })
    .map_err(|e| e.to_string())
}

/// Resolve the Chrome-trace output path: an explicit `--trace-out` flag
/// wins over the `SIMBA_TRACE_OUT` environment variable.
pub fn resolve_trace_out(flag: Option<String>) -> Option<String> {
    flag.or_else(|| {
        std::env::var("SIMBA_TRACE_OUT")
            .ok()
            .filter(|s| !s.is_empty())
    })
}

/// Whether `SIMBA_METRICS` asks for a metrics snapshot (any value but
/// `"0"` or empty counts as on).
pub fn metrics_from_env() -> bool {
    std::env::var("SIMBA_METRICS")
        .ok()
        .is_some_and(|v| !v.is_empty() && v != "0")
}

/// Arm span collection for the rest of the process. `SIMBA_TRACE_SAMPLE`
/// (`"8"` or `"1/8"`; `"0"` disables) sets root-span sampling first so no
/// unsampled root sneaks in.
pub fn enable_tracing() {
    if let Ok(s) = std::env::var("SIMBA_TRACE_SAMPLE") {
        match simba_obs::trace::parse_sample(&s) {
            Some(n) => simba_obs::trace::set_sample_every(n),
            None => {
                eprintln!("invalid SIMBA_TRACE_SAMPLE `{s}` (want \"N\", \"1/N\", or \"0\")");
                std::process::exit(2);
            }
        }
    }
    simba_obs::trace::set_enabled(true);
}

/// Drain every span collected so far and write them as one Chrome
/// `trace_event` JSON file (load in `chrome://tracing` or Perfetto).
pub fn write_trace(path: &str) {
    let events = simba_obs::trace::take_events();
    let json = simba_obs::trace::export_chrome_trace(&events);
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write trace to {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} spans to {path}", events.len());
}

/// Write pretty JSON to the `SIMBA_JSON_OUT` file, or print it to stdout
/// when unset.
fn emit_json_payload(json: &str, what: &str) {
    match std::env::var("SIMBA_JSON_OUT") {
        Ok(path) => {
            std::fs::write(&path, json).expect("write SIMBA_JSON_OUT");
            println!("wrote {what} to {path}");
        }
        Err(_) => println!("{json}"),
    }
}

/// Write the report array as pretty JSON to the `SIMBA_JSON_OUT` file, or
/// print it to stdout when unset.
pub fn emit_json(reports: &[RunReport]) {
    let json = serde_json::to_string_pretty(reports).expect("reports serialize");
    emit_json_payload(&json, &format!("{} reports", reports.len()));
}

/// [`emit_json`] for a datagen sweep report.
pub fn emit_datagen_json(report: &DatagenReport) {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    emit_json_payload(&json, &format!("{} datagen entries", report.entries.len()));
}

/// The `SIMBA_MAX_DEGRADED` degraded-session budget (percent), if set to
/// a valid number.
pub fn max_degraded_from_env() -> Option<f64> {
    std::env::var("SIMBA_MAX_DEGRADED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
}
