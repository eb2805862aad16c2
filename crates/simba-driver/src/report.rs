//! Driver run reports: throughput, tail latency, cache effectiveness.
//!
//! One report type — [`RunReport`] — covers every session mode (scripted,
//! adaptive, idebench) and carries an explicit [`RunReport::SCHEMA_VERSION`]
//! so downstream parsers can detect format drift. Reports serialize to JSON
//! and deserialize back losslessly (see the round-trip test).

use crate::cache::CacheStats;
use crate::resilience::{Fault, InjectedError};
use serde::{Deserialize, Serialize};
use simba_engine::{DeltaStoreStats, ExecStats};
use simba_obs::{LatencyHistogram, MetricsSnapshot};

/// Latency quantiles in microseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
}

impl LatencySummary {
    pub fn from_histogram(h: &LatencyHistogram) -> LatencySummary {
        let us = |ns: u64| ns as f64 / 1_000.0;
        LatencySummary {
            count: h.count(),
            mean_us: h.mean_ns() / 1_000.0,
            p50_us: us(h.quantile_ns(0.50)),
            p95_us: us(h.quantile_ns(0.95)),
            p99_us: us(h.quantile_ns(0.99)),
            max_us: us(h.max_ns()),
        }
    }
}

/// Cache counters plus the derived hit rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheReport {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Misses served by another caller's in-flight execution
    /// (single-flight coalescing).
    pub coalesced: u64,
    /// Leader executions that errored: passed to that flight's followers
    /// but never cached, so later callers re-execute.
    pub error_passthrough: u64,
    pub hit_rate: f64,
    pub entries: usize,
}

impl CacheReport {
    pub fn new(stats: &CacheStats, entries: usize) -> CacheReport {
        CacheReport {
            hits: stats.hits,
            misses: stats.misses,
            insertions: stats.insertions,
            evictions: stats.evictions,
            coalesced: stats.coalesced,
            error_passthrough: stats.error_passthrough,
            hit_rate: stats.hit_rate(),
            entries,
        }
    }
}

/// What the fault draw *injected* during a faulted run (the supply side),
/// counted per attempt by the driver's attempt loop where the draw happens.
/// The demand side — what sessions actually observed after caching,
/// coalescing, and retries — is [`ResilienceReport`]. With a shared cache
/// the two legitimately differ: a cache hit never reaches the attempt loop,
/// so it draws nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Injected latency-spike sleeps.
    pub latency_spikes: u64,
    /// Injected transient (retryable) errors.
    pub transient: u64,
    /// Injected permanent errors.
    pub permanent: u64,
    /// Injected panics.
    pub panics: u64,
}

impl FaultReport {
    /// Count one attempt's draw.
    pub(crate) fn add(&mut self, fault: Fault) {
        self.latency_spikes += u64::from(fault.spike.is_some());
        match fault.error {
            None => {}
            Some(InjectedError::Transient) => self.transient += 1,
            Some(InjectedError::Permanent) => self.permanent += 1,
            Some(InjectedError::Panic) => self.panics += 1,
        }
    }

    /// Add another worker's totals.
    pub fn merge(&mut self, other: &FaultReport) {
        self.latency_spikes += other.latency_spikes;
        self.transient += other.transient;
        self.permanent += other.permanent;
        self.panics += other.panics;
    }
}

/// Error taxonomy and recovery counters of a resilience-enabled run: what
/// the driver observed per attempt, what it did about it, and what was
/// left degraded at the end.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceReport {
    /// Stable description of the active policy
    /// ([`ResiliencePolicy::describe`](crate::resilience::ResiliencePolicy::describe)).
    pub policy: String,
    /// Attempts abandoned at the per-query deadline.
    pub timeouts: u64,
    /// Attempts that failed with a transient (retryable) error.
    pub transient_errors: u64,
    /// Attempts that failed with a permanent error.
    pub permanent_errors: u64,
    /// Attempts that panicked and were caught (treated as transient).
    pub panics_recovered: u64,
    /// Retry attempts issued (attempts beyond each query's first).
    pub retries: u64,
    /// Queries whose final outcome was success after ≥ 1 retry.
    pub retries_succeeded: u64,
    /// Per-session degraded flags, session-index order. A session is
    /// degraded when any of its queries ended in a final failure: exhausted
    /// retries or a permanent error.
    pub degraded: Vec<bool>,
    /// `degraded.iter().filter(|d| **d).count()`, precomputed for
    /// threshold checks and dashboards.
    pub degraded_sessions: u64,
}

impl ResilienceReport {
    /// Sum another worker's per-attempt counters into this one. The
    /// run-level fields (policy, degraded flags) are not per-worker; the driver fills them once when the run ends.
    pub fn merge(&mut self, other: &ResilienceReport) {
        self.timeouts += other.timeouts;
        self.transient_errors += other.transient_errors;
        self.permanent_errors += other.permanent_errors;
        self.panics_recovered += other.panics_recovered;
        self.retries += other.retries;
        self.retries_succeeded += other.retries_succeeded;
    }
}

/// Totals of engine-reported execution statistics, aggregated over the
/// run's *fresh* executions — a cache hit or coalesced single-flight wait
/// does not re-count the work its leader already did.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecReport {
    /// Rows actually read from storage. A filter the kernel compiler
    /// proves cannot match reads none, so its rows are never counted.
    pub rows_scanned: u64,
    /// Rows that survived all filter predicates.
    pub rows_matched: u64,
    /// Groups materialized by aggregation.
    pub groups: u64,
    /// Morsels skipped without reading a row: every morsel of the table
    /// when the compiled filter cannot match, otherwise none.
    pub morsels_pruned: u64,
}

impl ExecReport {
    /// Count one fresh execution's engine-reported statistics.
    pub fn add(&mut self, stats: &ExecStats) {
        self.rows_scanned += stats.rows_scanned as u64;
        self.rows_matched += stats.rows_matched as u64;
        self.groups += stats.groups as u64;
        self.morsels_pruned += stats.morsels_pruned as u64;
    }

    /// Sum another worker's totals into this one.
    pub fn merge(&mut self, other: &ExecReport) {
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.groups += other.groups;
        self.morsels_pruned += other.morsels_pruned;
    }
}

/// Session-delta execution totals: how often retained selections / group
/// states were reused across a session's consecutive steps, and what the
/// reuse saved. Hits, group hits, and rows saved are aggregated from
/// per-query [`ExecStats`] over fresh executions;
/// misses, invalidations, and resets come from the per-session stores.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaReport {
    /// Queries whose scan was seeded from a retained selection (exact
    /// requery or provable refinement).
    pub hits: u64,
    /// Queries answered from retained group states without touching the
    /// table at all (same aggregation shape, new ORDER BY / LIMIT).
    pub group_hits: u64,
    /// Queries that consulted a session store and found nothing reusable.
    pub misses: u64,
    /// Retained entries dropped because the catalog moved underneath them
    /// (table re-registered or appended to since capture).
    pub invalidations: u64,
    /// Session chains reset after an errored step.
    pub resets: u64,
    /// Rows the seeded/state-reusing scans did not have to examine,
    /// relative to fresh full scans of the same queries.
    pub rows_saved: u64,
}

impl DeltaReport {
    /// Count one fresh execution's delta reuse (the [`ExecStats`] half).
    pub fn add_exec(&mut self, stats: &ExecStats) {
        self.hits += stats.delta_hits as u64;
        self.group_hits += stats.delta_group_hits as u64;
        self.rows_saved += stats.delta_rows_saved as u64;
    }

    /// Count one finished session's store events (the store half).
    pub fn add_store(&mut self, stats: &DeltaStoreStats) {
        self.misses += stats.misses;
        self.invalidations += stats.invalidations;
        self.resets += stats.resets;
    }

    /// Sum another worker's totals into this one.
    pub fn merge(&mut self, other: &DeltaReport) {
        self.hits += other.hits;
        self.group_hits += other.group_hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.resets += other.resets;
        self.rows_saved += other.rows_saved;
    }
}

/// One execution phase's share of attributed time, derived from the
/// `*.phase.*` histograms of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// Phase span name, e.g. `"engine.scan"`.
    pub phase: String,
    /// Times the phase ran.
    pub count: u64,
    /// Total time attributed to the phase, in milliseconds.
    pub total_ms: f64,
    /// Mean duration in microseconds.
    pub mean_us: f64,
    /// Median duration in microseconds.
    pub p50_us: u64,
    /// 99th-percentile duration in microseconds.
    pub p99_us: u64,
    /// `total_ms` over the summed `total_ms` of all listed phases. Phases
    /// nest (`driver.step` contains `engine.scan`), so shares describe
    /// relative weight, not a partition of wall-clock time.
    pub share: f64,
}

/// Derive the per-phase time breakdown from a snapshot's `*.phase.*`
/// histograms, heaviest phase first.
pub fn phase_breakdown(metrics: &MetricsSnapshot) -> Vec<PhaseBreakdown> {
    let phases: Vec<_> = metrics
        .histograms
        .iter()
        .filter(|h| h.name.contains(".phase."))
        .collect();
    let total: f64 = phases.iter().map(|h| h.total_ms).sum();
    let mut out: Vec<PhaseBreakdown> = phases
        .into_iter()
        .map(|h| PhaseBreakdown {
            phase: h.name.replacen(".phase.", ".", 1),
            count: h.count,
            total_ms: h.total_ms,
            mean_us: h.mean_us,
            p50_us: h.p50_us,
            p99_us: h.p99_us,
            share: if total > 0.0 { h.total_ms / total } else { 0.0 },
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_ms
            .total_cmp(&a.total_ms)
            .then(a.phase.cmp(&b.phase))
    });
    out
}

/// Steering activity of one adaptive run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SteeringReport {
    /// Enabled rules, e.g. `"backtrack_on_empty+drill_top_group"`.
    pub policy: String,
    /// Filters undone because they emptied a chart.
    pub backtracks: u64,
    /// Dominant categories pinned by mark click.
    pub drills: u64,
    /// Successful queries that returned zero rows.
    pub empty_results: u64,
    /// `backtracks / interactions`.
    pub backtrack_rate: f64,
    /// `empty_results / (queries - errors)`.
    pub empty_result_rate: f64,
}

impl SteeringReport {
    /// Sum another worker's counters into this one. The policy and the
    /// rates are run-level; the driver fills them once when the run ends.
    pub fn merge(&mut self, other: &SteeringReport) {
        self.backtracks += other.backtracks;
        self.drills += other.drills;
        self.empty_results += other.empty_results;
    }
}

/// The aggregate outcome of one driver run, in any session mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Report format version ([`RunReport::SCHEMA_VERSION`]); bump on any
    /// field addition, removal, or meaning change.
    pub schema_version: u32,
    /// Name of the scenario that produced this report (`"adhoc"` for
    /// direct `Driver::run_source` calls outside a scenario).
    pub scenario_name: String,
    /// Engine under test.
    pub engine: String,
    /// `"closed"` or `"open"` (arrival pacing).
    pub mode: String,
    /// Session source: `"scripted"` (replayed pre-synthesized scripts),
    /// `"adaptive"` (live result-steered walks), or `"idebench"`
    /// (stochastic filter storms).
    pub session_mode: String,
    pub sessions: usize,
    pub workers: usize,
    /// Intra-query scan parallelism the engine under test was configured
    /// with (morsel-parallel worker threads; `1` = sequential scans).
    pub scan_threads: usize,
    pub wall_clock_ms: f64,
    /// Interactions replayed (excludes the initial renders).
    pub interactions: u64,
    /// Queries executed (cache hits included).
    pub queries: u64,
    /// Queries that returned an engine error.
    pub errors: u64,
    /// Queries per second of wall-clock time.
    pub throughput_qps: f64,
    /// Per-query service latency (cache-hit lookups count as service time).
    pub latency: LatencySummary,
    /// Open-loop only: how long sessions waited past their scheduled
    /// arrival before a worker picked them up.
    pub queue_delay: Option<LatencySummary>,
    /// Steering-capable sources only: steering counters and rates.
    pub steering: Option<SteeringReport>,
    pub cache: Option<CacheReport>,
    /// Engine execution totals (rows scanned/matched, groups, morsels
    /// pruned) over the run's fresh executions.
    pub exec: ExecReport,
    /// Session-delta reuse totals; present exactly when the run executed
    /// with session-delta enabled (all-zero counters are meaningful there:
    /// they say the workload offered no reusable refinements).
    pub delta: Option<DeltaReport>,
    /// Order-sensitive digest over the run's per-session result
    /// fingerprints ([`crate::fingerprint::digest`]); present exactly when
    /// the run collected fingerprints. Two runs of the same workload are
    /// result-identical iff their digests match — what
    /// `delta_equivalence.rs` asserts between the `delta-shootout` suite's
    /// delta-on and delta-off runs.
    #[serde(default)]
    pub fingerprint_digest: Option<u64>,
    /// Open-loop only: the coordinated-omission-corrected view — per-query
    /// latency measured from the *intended* start, so a session's queue
    /// delay lands on its first query instead of being silently absorbed.
    pub response: Option<LatencySummary>,
    /// Injected-fault totals; present exactly when the run had an active
    /// `fault` block (chaos runs).
    pub fault: Option<FaultReport>,
    /// Error taxonomy, retry counters, and per-session degraded
    /// flags; present when the run's
    /// [`ResiliencePolicy`](crate::resilience::ResiliencePolicy) was active
    /// or any query ended in an error.
    pub resilience: Option<ResilienceReport>,
    /// Run-scoped metrics registry snapshot; present when the run was
    /// executed with metrics collection enabled.
    pub metrics: Option<MetricsSnapshot>,
    /// Per-phase attributed time derived from `metrics` (heaviest first);
    /// present exactly when `metrics` is.
    pub phase_breakdown: Option<Vec<PhaseBreakdown>>,
}

/// Scenario name of `Driver::run_source` calls made outside
/// `Driver::execute`.
pub const ADHOC_SCENARIO: &str = "adhoc";

impl RunReport {
    /// Version of the JSON report format. History:
    /// * 1 — implicit (the pre-versioning report), scripted/adaptive.
    /// * 2 — added `schema_version` + `scenario_name`; idebench mode.
    /// * 3 — added `exec` totals, open-loop `response` (coordinated-
    ///   omission-corrected latency), and optional `metrics` +
    ///   `phase_breakdown` observability sections.
    /// * 4 — added the resilience surface: optional `fault` (injected-fault
    ///   totals) and `resilience` (error taxonomy, retry + breaker
    ///   counters, per-session degraded flags) sections, plus
    ///   `cache.error_passthrough`.
    /// * 5 — added the optional `delta` section (session-delta reuse
    ///   totals, present exactly when the run executed with session-delta
    ///   enabled) and `fingerprint_digest` (present exactly when the run
    ///   collected result fingerprints).
    /// * 6 — dropped `cache.invalidations`: a cache lives for one run over
    ///   tables registered before it starts, so nothing invalidates it.
    /// * 7 — dropped `resilience.shed` and `resilience.breaker_{opens,
    ///   half_opens,closes}` with the circuit breaker.
    pub const SCHEMA_VERSION: u32 = 7;

    /// Pretty JSON, for harness output files.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Parse a report back from JSON, as downstream tooling would.
    ///
    /// Rejects payloads whose `schema_version` differs from
    /// [`Self::SCHEMA_VERSION`] — a field-compatible report from a newer
    /// (or corrupted) writer must fail loudly, not parse into something
    /// whose fields may have changed meaning.
    pub fn from_json(json: &str) -> Result<RunReport, String> {
        let report: RunReport = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if report.schema_version != Self::SCHEMA_VERSION {
            return Err(format!(
                "unsupported report schema_version {} (this reader supports {})",
                report.schema_version,
                Self::SCHEMA_VERSION
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut h = LatencyHistogram::new();
        h.record_ns(5_000);
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            scenario_name: "adaptive-shootout".to_string(),
            engine: "duckdb-like".to_string(),
            mode: "closed".to_string(),
            session_mode: "adaptive".to_string(),
            sessions: 4,
            workers: 2,
            scan_threads: 1,
            wall_clock_ms: 12.5,
            interactions: 20,
            queries: 44,
            errors: 0,
            throughput_qps: 3520.0,
            latency: LatencySummary::from_histogram(&h),
            queue_delay: None,
            steering: Some(SteeringReport {
                policy: "backtrack_on_empty+drill_top_group".to_string(),
                backtracks: 3,
                drills: 2,
                empty_results: 5,
                backtrack_rate: 0.15,
                empty_result_rate: 0.11,
            }),
            cache: Some(CacheReport::new(
                &CacheStats {
                    hits: 30,
                    misses: 14,
                    insertions: 14,
                    evictions: 0,
                    coalesced: 2,
                    error_passthrough: 0,
                },
                14,
            )),
            exec: ExecReport {
                rows_scanned: 52_000,
                rows_matched: 8_400,
                groups: 120,
                morsels_pruned: 6,
            },
            delta: None,
            fingerprint_digest: None,
            response: None,
            fault: None,
            resilience: None,
            metrics: None,
            phase_breakdown: None,
        }
    }

    fn sample_metrics() -> MetricsSnapshot {
        use simba_obs::HistogramEntry;
        MetricsSnapshot {
            histograms: vec![
                HistogramEntry {
                    name: "engine.phase.plan".into(),
                    count: 44,
                    total_ms: 0.4,
                    mean_us: 9.1,
                    p50_us: 8,
                    p95_us: 14,
                    p99_us: 15,
                    max_us: 21,
                },
                HistogramEntry {
                    name: "engine.phase.scan".into(),
                    count: 44,
                    total_ms: 3.6,
                    mean_us: 81.8,
                    p50_us: 70,
                    p95_us: 160,
                    p99_us: 190,
                    max_us: 260,
                },
            ],
        }
    }

    #[test]
    fn summary_reflects_histogram() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record_ns(i * 10_000); // 10µs .. 1ms
        }
        let s = LatencySummary::from_histogram(&h);
        assert_eq!(s.count, 100);
        assert!(s.p50_us > 400.0 && s.p50_us < 600.0, "{}", s.p50_us);
        assert!(s.p99_us <= s.max_us);
        assert!(s.mean_us > 0.0);
    }

    #[test]
    fn report_serializes_to_json() {
        let report = sample();
        let json = report.to_json();
        assert!(json.contains("\"schema_version\": 7"), "{json}");
        assert!(json.contains("\"rows_scanned\": 52000"), "{json}");
        assert!(json.contains("\"morsels_pruned\": 6"), "{json}");
        assert!(json.contains("\"metrics\": null"), "{json}");
        assert!(
            json.contains("\"scenario_name\": \"adaptive-shootout\""),
            "{json}"
        );
        assert!(json.contains("\"engine\": \"duckdb-like\""), "{json}");
        assert!(json.contains("\"hit_rate\""), "{json}");
        assert!(json.contains("\"queue_delay\": null"), "{json}");
        assert!(json.contains("\"scan_threads\": 1"), "{json}");
        assert!(json.contains("\"session_mode\": \"adaptive\""), "{json}");
        assert!(json.contains("\"backtrack_rate\""), "{json}");
        assert!(json.contains("\"coalesced\""), "{json}");
    }

    /// The format-drift tripwire: serialize → deserialize → compare. Any
    /// field whose name, type, or optionality changes without a
    /// `SCHEMA_VERSION` bump breaks this test first.
    #[test]
    fn report_round_trips_through_json() {
        let report = sample();
        let parsed = RunReport::from_json(&report.to_json()).expect("report parses back");
        assert_eq!(parsed, report);

        // Optional sections round-trip as absent too.
        let mut bare = sample();
        bare.steering = None;
        bare.cache = None;
        bare.queue_delay = Some(bare.latency.clone());
        let parsed = RunReport::from_json(&bare.to_json()).expect("bare report parses back");
        assert_eq!(parsed, bare);

        // ... and the v3 observability sections round-trip when present.
        let mut full = sample();
        full.response = Some(full.latency.clone());
        full.metrics = Some(sample_metrics());
        full.phase_breakdown = Some(phase_breakdown(full.metrics.as_ref().unwrap()));
        let parsed = RunReport::from_json(&full.to_json()).expect("full report parses back");
        assert_eq!(parsed, full);

        // ... and so do the v4 resilience sections.
        let mut chaotic = sample();
        chaotic.fault = Some(FaultReport {
            latency_spikes: 4,
            transient: 9,
            permanent: 1,
            panics: 2,
        });
        chaotic.resilience = Some(ResilienceReport {
            policy: "deadline=250ms retries=3 backoff=5..80ms".to_string(),
            timeouts: 1,
            transient_errors: 9,
            permanent_errors: 1,
            panics_recovered: 2,
            retries: 12,
            retries_succeeded: 11,
            degraded: vec![false, true, false, false],
            degraded_sessions: 1,
        });
        let parsed = RunReport::from_json(&chaotic.to_json()).expect("chaos report parses back");
        assert_eq!(parsed, chaotic);
        let json = chaotic.to_json();
        assert!(json.contains("\"panics_recovered\": 2"), "{json}");
        assert!(json.contains("\"degraded_sessions\": 1"), "{json}");
        assert!(json.contains("\"latency_spikes\": 4"), "{json}");

        // ... and the v5 session-delta section.
        let mut deltaed = sample();
        deltaed.delta = Some(DeltaReport {
            hits: 12,
            group_hits: 3,
            misses: 8,
            invalidations: 1,
            resets: 0,
            rows_saved: 410_000,
        });
        deltaed.fingerprint_digest = Some(0x5EED_F00D);
        let parsed = RunReport::from_json(&deltaed.to_json()).expect("delta report parses back");
        assert_eq!(parsed, deltaed);
        let json = deltaed.to_json();
        assert!(json.contains("\"group_hits\": 3"), "{json}");
        assert!(json.contains("\"rows_saved\": 410000"), "{json}");
        assert!(
            json.contains(&format!("\"fingerprint_digest\": {}", 0x5EED_F00Du64)),
            "{json}"
        );
    }

    #[test]
    fn phase_breakdown_orders_by_weight_and_shares_sum_to_one() {
        let phases = phase_breakdown(&sample_metrics());
        assert_eq!(phases.len(), 2, "counters are not phases");
        assert_eq!(phases[0].phase, "engine.scan", "heaviest first");
        assert_eq!(phases[1].phase, "engine.plan");
        let total: f64 = phases.iter().map(|p| p.share).sum();
        assert!((total - 1.0).abs() < 1e-9, "shares sum to 1, got {total}");
        assert!(phases[0].share > phases[1].share);
    }

    #[test]
    fn schema_version_gates_unversioned_payloads() {
        // A v1 payload (no schema_version / scenario_name) must fail loudly
        // rather than parse into a half-filled report.
        let legacy = r#"{ "engine": "duckdb-like", "mode": "closed" }"#;
        assert!(RunReport::from_json(legacy).is_err());
    }

    #[test]
    fn schema_version_gates_future_payloads() {
        // A structurally identical report stamped with a different version
        // must be rejected, not silently reinterpreted.
        let future = sample()
            .to_json()
            .replace("\"schema_version\": 7", "\"schema_version\": 8");
        let err = RunReport::from_json(&future).unwrap_err();
        assert!(err.contains("schema_version 8"), "{err}");
    }
}
