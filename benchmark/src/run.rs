//! One run of one workload: set-up, the warm-up round, the measured window,
//! the correctness gate, and the metrics.
//!
//! A *round* re-assembles `Driver::execute_with` from its public parts so
//! the probes of `probe.rs` can sit between the driver and the crates it
//! calls. Every round of a run is the same work — same table, same walks, a
//! fresh result cache and fresh session-delta stores — so its digest and
//! counts repeat exactly, step `i` of one round is step `i` of every other,
//! and rounds are repeated only to measure the same work again:
//!
//! * `--trace 0`: untraced rounds until `--seconds` have passed (at least
//!   [`MIN_ROUNDS`]). A step's latency is its best over the rounds and
//!   throughput is that of the fastest round: on a shared box noise only
//!   ever adds time, and a noisy neighbour's bad spell is usually shorter
//!   than the window. One traced round afterwards feeds the correctness gate.
//! * `--trace 1`: untraced and traced rounds alternate for `--seconds`;
//!   per-layer metrics come from the traced rounds, the layer replay, and
//!   the difference between the two kinds of round (the tracing overhead).

use crate::check::{self, Verdict};
use crate::env::status_mb;
use crate::probe::{Probe, Span, Tier, TimedDbms, TimedSource};
use crate::replay;
use crate::stats::{gated, median, nearest_rank, share};
use crate::workloads::{Source, Workload, WALK_SEED};
use simba_core::dashboard::Dashboard;
use simba_core::markov::MarkovModel;
use simba_core::session::adaptive::AdaptivePolicy;
use simba_core::session::batch::{synthesize_scripts, BatchConfig, SessionScript};
use simba_core::session::source::{
    AdaptiveSource, AdaptiveWalkConfig, ScriptedSource, SessionSource,
};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::{Driver, DriverConfig, RunReport};
use simba_engine::{Dbms, EngineKind};
use simba_idebench::IdebenchSource;
use simba_server::{RemoteDbms, ServerCore};
use simba_store::Table;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Rounds a measured window holds at least, whatever `--seconds` says: one
/// round has nothing to be the best of.
pub const MIN_ROUNDS: usize = 2;
/// Interactivity budget of `steps_over_budget_share`: the classic 100 ms
/// "feels instantaneous" limit. (IDEBench's 500 ms time requirement is
/// never approached at 250K rows, so it would pin the metric at zero.)
pub const STEP_BUDGET: Duration = Duration::from_millis(100);
/// An engine call slower than this is in the slow mode of the bimodal
/// scan-cost distribution (typed fast path ≈ 1.5 ms, multi-key hash
/// aggregation ≈ 25–75 ms at 250K rows).
pub const SLOW_CALL: Duration = Duration::from_millis(20);

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    /// Seed of the generated table.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading, 0 when the layer
    /// does not run in this workload).
    pub n: usize,
}

/// The outcome of [`run`].
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    /// Queries attempted and failed in the measured window.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub verdict: Verdict,
    /// Exactly repeatable counts of one round, for the determinism tests.
    pub counts: RoundCounts,
    /// Spans of the first traced round, for the Chrome trace file.
    pub spans: Vec<Span>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.verdict.problems.is_empty() && self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Counts of one traced round that must repeat exactly between runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundCounts {
    pub queries: u64,
    pub engine_calls: u64,
    pub rows_scanned: u64,
    pub cache_hits: u64,
    pub delta_hits: u64,
}

/// Wall time of each set-up stage.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total_s: f64,
    generate_s: f64,
    register_s: f64,
    synthesize_s: f64,
    /// Resident-set growth across table generation.
    table_rss_mb: f64,
}

/// Everything a round needs, built once per set-up.
pub struct Parts {
    pub table: Arc<Table>,
    pub engine: Arc<dyn Dbms>,
    /// The in-process server behind `engine`, on the wire workload.
    pub core: Option<Arc<ServerCore>>,
    dashboard: Option<Dashboard>,
    scripts: Vec<SessionScript>,
    times: SetupTimes,
}

impl Parts {
    /// Everything before the first query: table generation, zone maps,
    /// engine (or loopback server) registration, dashboard and scripts.
    pub fn build(w: &Workload, seed: u64) -> Result<Parts, String> {
        let start = Instant::now();
        let spec = w.spec(seed);
        spec.validate().map_err(|e| e.to_string())?;
        let rss_before = status_mb("VmRSS");
        // `ScenarioSpec::build_table` on one generator thread: the table is
        // byte-identical at any thread count, but with two threads `setup_s`
        // measures whether the second vCPU was free (quartile spread 19-23 %
        // of the median) and the extra allocator arena moves `rss_mb`.
        let dataset = DashboardDataset::from_table_name(&spec.dataset)
            .ok_or_else(|| format!("unknown dataset {}", spec.dataset))?;
        let table = Arc::new(dataset.generate_rows_with_threads(w.rows, seed, 1));
        table.zone_maps();
        let generate_s = start.elapsed().as_secs_f64();
        let table_rss_mb = status_mb("VmRSS") - rss_before;

        let stage = Instant::now();
        let (engine, core): (Arc<dyn Dbms>, _) = if w.remote {
            let remote =
                RemoteDbms::connect(simba_server::LOOPBACK_ADDR, EngineKind::DuckDbLike, 1)
                    .map_err(|e| e.to_string())?;
            let core = remote.loopback_core();
            (Arc::new(remote), core)
        } else {
            (EngineKind::DuckDbLike.build(), None)
        };
        engine.register(table.clone());
        let register_s = stage.elapsed().as_secs_f64();

        let stage = Instant::now();
        let dashboard = match w.source {
            Source::Idebench => None,
            Source::Adaptive | Source::Scripted => {
                Some(Dashboard::new(builtin(dataset), &table).map_err(|e| e.to_string())?)
            }
        };
        let scripts = match (&dashboard, w.source) {
            (Some(dashboard), Source::Scripted) => synthesize_scripts(
                dashboard,
                &BatchConfig {
                    base_seed: WALK_SEED,
                    steps_per_session: w.steps,
                    mix: MarkovModel::presets(),
                },
                w.sessions,
            ),
            _ => Vec::new(),
        };
        let synthesize_s = stage.elapsed().as_secs_f64();

        Ok(Parts {
            table,
            engine,
            core,
            dashboard,
            scripts,
            times: SetupTimes {
                total_s: start.elapsed().as_secs_f64(),
                generate_s,
                register_s,
                synthesize_s,
                table_rss_mb,
            },
        })
    }

    /// The workload's sessions. Built with the derivations of
    /// `Driver::execute_with`, so a round issues the queries
    /// `Driver::execute(&w.spec(WALK_SEED))` would.
    fn source(&self, w: &Workload) -> Box<dyn SessionSource + '_> {
        match (w.source, &self.dashboard) {
            (Source::Adaptive, Some(dashboard)) => Box::new(AdaptiveSource::new(
                dashboard,
                AdaptiveWalkConfig {
                    base_seed: WALK_SEED,
                    steps_per_session: w.steps,
                    mix: MarkovModel::presets(),
                    policy: AdaptivePolicy::default(),
                },
                w.sessions,
            )),
            (Source::Scripted, _) => Box::new(ScriptedSource::borrowed(&self.scripts)),
            _ => Box::new(IdebenchSource::new(
                self.table.clone(),
                WALK_SEED,
                w.sessions,
                w.steps,
            )),
        }
    }
}

/// One `Driver::run_source` call and what the probes saw of it.
pub struct Round {
    pub wall: Duration,
    pub report: RunReport,
    pub probe: Probe,
}

impl Round {
    fn queries_per_s(&self) -> f64 {
        self.report.queries as f64 / self.wall.as_secs_f64()
    }
}

/// Run the workload's sessions once.
pub fn run_round(parts: &Parts, w: &Workload, seed: u64, trace: bool) -> Round {
    let probe = Probe::new(trace);
    let source = parts.source(w);
    let timed = TimedSource {
        inner: source.as_ref(),
        probe: probe.clone(),
    };
    let engine: Arc<dyn Dbms> = if trace {
        Arc::new(TimedDbms {
            inner: parts.engine.clone(),
            probe: probe.clone(),
        })
    } else {
        parts.engine.clone()
    };
    let mut config = DriverConfig::from(&w.spec(seed));
    // Engine phase sums come from the registry; fingerprints are taken by
    // the probe after the round, so they stay off the driver's clock.
    config.collect_metrics = trace;
    let start = Instant::now();
    let outcome = Driver::new(config).run_source(engine, &timed);
    let wall = start.elapsed();
    drop(timed);
    let mut probe = Arc::try_unwrap(probe)
        .ok()
        .expect("the round's wrappers are dropped")
        .into_inner()
        .expect("a probe wrapper panicked while recording");
    probe.fingerprint_results();
    Round {
        wall,
        report: outcome.report,
        probe,
    }
}

/// Run one workload once and report its metrics.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let w = &opts.workload;
    // The first set-up is the one the rounds run on. The others are made
    // and dropped between rounds, not back to back: a noisy neighbour's bad
    // spell outlasts five consecutive set-ups but not a whole window.
    crate::heap::start();
    let parts = Parts::build(w, opts.seed)?;
    let mut setups = vec![parts.times];
    let set_up_again = || Parts::build(w, opts.seed).map(|parts| parts.times);
    // The warm-up is one untimed round of the workload itself (every round
    // starts from a fresh cache, so nothing it computes is reused). It is
    // also the stretch the heap is counted over.
    run_round(&parts, w, opts.seed, false);
    let peak_heap_mb = crate::heap::stop();

    let window = Duration::from_secs_f64(opts.seconds.max(0.0));
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    // A traced run needs one pair of rounds, not a best of several.
    let min_rounds = if opts.trace { 1 } else { MIN_ROUNDS };
    while start.elapsed() < window || untraced.len() < min_rounds {
        untraced.push(run_round(&parts, w, opts.seed, false));
        if opts.trace {
            traced.push(run_round(&parts, w, opts.seed, true));
        }
        if setups.len() < SETUP_REPEATS {
            setups.push(set_up_again()?);
        }
    }
    if !opts.trace {
        traced.push(run_round(&parts, w, opts.seed, true));
    }
    while setups.len() < SETUP_REPEATS {
        setups.push(set_up_again()?);
    }

    let golden = check::Golden::pinned()?;
    let verdict = check::verify(w, opts.seed, &parts, &traced, Some(&golden));
    let attempted = untraced.iter().map(|r| r.report.queries).sum();
    let failed = untraced.iter().map(|r| r.report.errors).sum();
    let metrics = if opts.trace {
        layer_metrics(w, &parts, &setups, &untraced, &traced)
    } else {
        end_to_end_metrics(&setups, &untraced, peak_heap_mb)?
    };
    let first = traced.swap_remove(0);
    Ok(RunResult {
        workload: w.name,
        seed: opts.seed,
        trace: opts.trace,
        attempted,
        failed,
        metrics,
        verdict,
        counts: round_counts(&first),
        spans: first.probe.spans,
    })
}

fn round_counts(round: &Round) -> RoundCounts {
    let tier = |t: Tier| round.probe.queries.iter().filter(|q| q.tier == t).count() as u64;
    RoundCounts {
        queries: round.report.queries,
        engine_calls: round.probe.calls.len() as u64,
        rows_scanned: round.report.exec.rows_scanned,
        cache_hits: tier(Tier::Cache),
        delta_hits: tier(Tier::DeltaStates) + tier(Tier::DeltaSeed),
    }
}

fn pooled(rounds: &[Round], samples: impl Fn(&Round) -> &[u64]) -> Vec<u64> {
    rounds
        .iter()
        .flat_map(|r| samples(r).iter().copied())
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Each step's best latency over identical rounds.
fn best_steps(rounds: &[Round]) -> Result<Vec<u64>, String> {
    let mut best = rounds[0].probe.step_ns.clone();
    for round in &rounds[1..] {
        if round.probe.step_ns.len() != best.len() {
            return Err(format!(
                "rounds of the same work differ in length: {} and {} steps",
                best.len(),
                round.probe.step_ns.len()
            ));
        }
        for (best, ns) in best.iter_mut().zip(&round.probe.step_ns) {
            *best = (*best).min(*ns);
        }
    }
    Ok(best)
}

fn end_to_end_metrics(
    setups: &[SetupTimes],
    rounds: &[Round],
    peak_heap_mb: f64,
) -> Result<Vec<Metric>, String> {
    let mut steps = best_steps(rounds)?;
    let qps = rounds.iter().map(Round::queries_per_s).fold(0.0, f64::max);
    let setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    Ok(vec![
        Metric {
            name: "setup_s",
            value: median(&setup),
            unit: "s",
            n: setup.len(),
        },
        Metric {
            name: "step_p50_ms",
            value: ms(gated(&mut steps, 0.5)?),
            unit: "ms",
            n: steps.len(),
        },
        Metric {
            name: "step_p95_ms",
            value: ms(gated(&mut steps, 0.95)?),
            unit: "ms",
            n: steps.len(),
        },
        Metric {
            name: "queries_per_s",
            value: qps,
            unit: "1/s",
            n: rounds.len(),
        },
        Metric {
            name: "peak_heap_mb",
            value: peak_heap_mb,
            unit: "MB",
            n: 1,
        },
    ])
}

/// Median (nearest rank) of nanosecond samples in µs, with its count.
fn p50_us(samples: &mut [u64]) -> (f64, usize) {
    (nearest_rank(samples, 0.5).map_or(0.0, us), samples.len())
}

fn layer_metrics(
    w: &Workload,
    parts: &Parts,
    setups: &[SetupTimes],
    untraced: &[Round],
    traced: &[Round],
) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name, value: f64, unit, n: usize| {
        out.push(Metric {
            name,
            value,
            unit,
            n,
        })
    };
    let first = &traced[0];
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let sum =
        |rounds: &[Round], f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let traced_wall_ns = sum(traced, &|r| r.wall.as_nanos() as u64);
    let queries = first.report.queries as f64;
    let steps = first.probe.step_ns.len();

    // simba-data, simba-store: set-up and the shape of what is stored.
    let generate_s = setup_median(|s| s.generate_s);
    put("simba-data.generate_s", generate_s, "s", setups.len());
    put(
        "simba-data.rows_per_s",
        share(w.rows as f64, generate_s),
        "1/s",
        setups.len(),
    );
    put("simba-store.table_rss_mb", setups[0].table_rss_mb, "MB", 1);
    let result_rows: usize = first
        .probe
        .queries
        .iter()
        .filter_map(|q| q.result.as_ref())
        .map(|r| r.n_rows())
        .sum();
    put(
        "simba-store.result_rows_per_query",
        share(result_rows as f64, queries),
        "count",
        first.probe.queries.len(),
    );

    // simba-core / simba-idebench: producing the next interaction.
    let (next_step, next_n) = p50_us(&mut pooled(traced, |r| &r.probe.next_step_ns));
    let storm = w.source == Source::Idebench;
    put(
        "simba-core.next_step_us",
        if storm { 0.0 } else { next_step },
        "us",
        if storm { 0 } else { next_n },
    );
    put(
        "simba-idebench.next_step_us",
        if storm { next_step } else { 0.0 },
        "us",
        if storm { next_n } else { 0 },
    );
    put("simba-core.steps", steps as f64, "count", 1);
    put(
        "simba-core.queries_per_step",
        share(queries, steps as f64),
        "count",
        steps,
    );
    put(
        "simba-core.steered_share",
        share(first.probe.steered_steps as f64, steps as f64),
        "share",
        steps,
    );
    put(
        "simba-core.synthesize_s",
        setup_median(|s| s.synthesize_s),
        "s",
        setups.len(),
    );

    // simba-sql, plan::prepare, cache lookup, fingerprint, wire: replayed
    // over a deterministic sample of the first traced round's queries.
    let replayed = replay::replay(&first.probe.queries, parts);
    for (name, value, unit, n) in replayed {
        put(name, value, unit, n);
    }

    // simba-engine: what the forwarding wrapper saw.
    let mut call_wall = pooled_calls(traced, |c| c.wall_ns);
    let call_wall_sum: f64 = call_wall.iter().sum::<u64>() as f64;
    let calls = first.probe.calls.len();
    put("simba-engine.calls", calls as f64, "count", 1);
    put(
        "simba-engine.call_p50_us",
        nearest_rank(&mut call_wall, 0.5).map_or(0.0, us),
        "us",
        call_wall.len(),
    );
    put(
        "simba-engine.call_p95_us",
        nearest_rank(&mut call_wall, 0.95).map_or(0.0, us),
        "us",
        call_wall.len(),
    );
    put(
        "simba-engine.busy_share",
        share(call_wall_sum, traced_wall_ns),
        "share",
        call_wall.len(),
    );
    let mut unreported = pooled_calls(traced, |c| c.wall_ns.saturating_sub(c.reported_ns));
    let unreported_sum: f64 = unreported.iter().sum::<u64>() as f64;
    let (unreported_p50, unreported_n) = p50_us(&mut unreported);
    put(
        "simba-engine.unreported_us",
        unreported_p50,
        "us",
        unreported_n,
    );
    let stat = |f: fn(&simba_engine::ExecStats) -> usize| -> f64 {
        first.probe.calls.iter().map(|c| f(&c.stats)).sum::<usize>() as f64
    };
    let (scanned, saved) = (stat(|s| s.rows_scanned), stat(|s| s.delta_rows_saved));
    put(
        "simba-engine.rows_scanned_per_call",
        share(scanned, calls as f64),
        "count",
        calls,
    );
    put(
        "simba-engine.matched_share",
        share(stat(|s| s.rows_matched), scanned),
        "share",
        calls,
    );
    put(
        "simba-engine.morsels_pruned_per_call",
        share(stat(|s| s.morsels_pruned), calls as f64),
        "count",
        calls,
    );
    put(
        "simba-engine.groups_per_call",
        share(stat(|s| s.groups), calls as f64),
        "count",
        calls,
    );
    let slow_ns = SLOW_CALL.as_nanos() as u64;
    let slow: Vec<u64> = call_wall
        .iter()
        .copied()
        .filter(|ns| *ns > slow_ns)
        .collect();
    put(
        "simba-engine.slow_call_share",
        share(slow.len() as f64, call_wall.len() as f64),
        "share",
        call_wall.len(),
    );
    put(
        "simba-engine.slow_busy_share",
        share(slow.iter().sum::<u64>() as f64, call_wall_sum),
        "share",
        call_wall.len(),
    );
    let counts = round_counts(first);
    put(
        "simba-engine.delta_hit_share",
        share(counts.delta_hits as f64, queries),
        "share",
        first.probe.queries.len(),
    );
    put(
        "simba-engine.delta_rows_saved_share",
        share(saved, scanned + saved),
        "share",
        calls,
    );
    for (name, phase) in [
        ("simba-engine.scan_ms", "engine.phase.scan"),
        ("simba-engine.aggregate_ms", "engine.phase.aggregate"),
        ("simba-engine.plan_ms", "engine.phase.plan"),
        ("simba-engine.finalize_ms", "engine.phase.finalize"),
    ] {
        let per_round: Vec<f64> = traced.iter().map(|r| phase_ms(&r.report, phase)).collect();
        put(name, median(&per_round), "ms", per_round.len());
    }

    // simba-driver: everything between the stream and the engine.
    put("simba-driver.queries", queries, "count", 1);
    put(
        "simba-driver.cache_hit_share",
        share(counts.cache_hits as f64, queries),
        "share",
        first.probe.queries.len(),
    );
    let step_sum = sum(traced, &|r| r.probe.step_ns.iter().sum());
    let self_ns = step_sum - call_wall_sum - sum(traced, &|r| r.probe.recording_in_step_ns);
    put(
        "simba-driver.self_share",
        share(self_ns, traced_wall_ns),
        "share",
        traced.len(),
    );
    put(
        "simba-driver.self_us_per_query",
        share(self_ns / 1e3, sum(traced, &|r| r.report.queries)),
        "us",
        traced.len(),
    );
    let reported_p50: Vec<f64> = untraced.iter().map(|r| r.report.latency.p50_us).collect();
    put(
        "simba-driver.reported_p50_us",
        median(&reported_p50),
        "us",
        reported_p50.len(),
    );
    let reported_us: f64 = untraced
        .iter()
        .map(|r| r.report.latency.mean_us * r.report.latency.count as f64)
        .sum();
    let untraced_steps = pooled(untraced, |r| &r.probe.step_ns);
    let untraced_step_us = untraced_steps.iter().sum::<u64>() as f64 / 1e3;
    put(
        "simba-driver.reported_gap_share",
        share(untraced_step_us - reported_us, untraced_step_us),
        "share",
        untraced_steps.len(),
    );
    let budget_ns = STEP_BUDGET.as_nanos() as u64;
    let over = untraced_steps.iter().filter(|ns| **ns > budget_ns).count() as u64
        + untraced.iter().map(|r| r.probe.failed_steps).sum::<u64>();
    put(
        "simba-driver.steps_over_budget_share",
        share(over as f64, untraced_steps.len() as f64),
        "share",
        untraced_steps.len(),
    );

    // simba-server: the wire round trip around the engine (wire workload).
    let wire_n = if w.remote { unreported_n } else { 0 };
    let on_wire = |v: f64| if w.remote { v } else { 0.0 };
    put(
        "simba-server.register_s",
        on_wire(setup_median(|s| s.register_s)),
        "s",
        if w.remote { setups.len() } else { 0 },
    );
    put(
        "simba-server.overhead_us_per_query",
        on_wire(share(unreported_sum / 1e3, unreported_n as f64)),
        "us",
        wire_n,
    );
    put(
        "simba-server.overhead_share",
        on_wire(share(unreported_sum, traced_wall_ns)),
        "share",
        wire_n,
    );

    // simba-obs: what the instruments cost and how wrong they are.
    let (hist_record_ns, span_ns, micro_n) = replay::obs_probe_cost();
    put("simba-obs.hist_record_ns", hist_record_ns, "ns", micro_n);
    put("simba-obs.span_ns", span_ns, "ns", micro_n);
    let overhead: Vec<f64> = untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| (t.wall.as_secs_f64() - u.wall.as_secs_f64()) / u.wall.as_secs_f64())
        .collect();
    put(
        "simba-obs.trace_overhead_share",
        median(&overhead),
        "share",
        overhead.len(),
    );
    put(
        "simba-obs.quantile_error_share",
        replay::histogram_p95_error(&mut call_wall),
        "share",
        call_wall.len(),
    );
    out
}

fn pooled_calls(rounds: &[Round], f: impl Fn(&crate::probe::Call) -> u64) -> Vec<u64> {
    rounds
        .iter()
        .flat_map(|r| r.probe.calls.iter().map(&f))
        .collect()
}

/// Exact sum of one engine phase histogram over a traced round.
fn phase_ms(report: &RunReport, phase: &str) -> f64 {
    report
        .metrics
        .iter()
        .flat_map(|m| &m.histograms)
        .find(|h| h.name == phase)
        .map_or(0.0, |h| h.total_ms)
}
