//! The concurrent workload scheduler.
//!
//! Runs exploration sessions against one shared engine from a pool of
//! worker threads. *What* the sessions are comes from a
//! [`SessionSource`] — one trait covering every session mode:
//!
//! * **Scripted** ([`ScriptedSource`](crate::ScriptedSource)) — replays
//!   pre-synthesized
//!   [`SessionScript`](simba_core::session::batch::SessionScript)s: every
//!   interaction was fixed before the first query ran, so the workload is
//!   engine-independent but can never react to results.
//! * **Adaptive** ([`AdaptiveSource`](crate::AdaptiveSource))
//!   — each worker runs a *live* Markov walk per user and steers on what
//!   comes back: a filter that empties a chart gets undone, a dominant
//!   category gets drilled into. This is the paper's adaptivity argument
//!   made executable under load — the next interaction depends on the data
//!   the user just saw.
//! * **IDEBench** ([`IdebenchSource`](simba_idebench::IdebenchSource)) —
//!   stochastic filter storms over per-user implicit dashboards, for
//!   baseline comparisons under the same pacing and reporting.
//!
//! Orthogonally, two arrival disciplines pace the sessions:
//!
//! * **Closed loop** — each worker picks the next unstarted session as soon
//!   as it finishes its current one (think-time paced). Models a fixed
//!   population of concurrent users; total concurrency = worker count.
//! * **Open loop** — sessions arrive on a Poisson schedule at a configured
//!   rate regardless of service speed, which is what exposes saturation:
//!   when the engine can't keep up, the measured queue delay grows without
//!   bound (Eichmann et al.'s argument for think-time/arrival-paced
//!   interactive benchmarks).
//!
//! Prefer describing a run declaratively with a
//! [`ScenarioSpec`](crate::workload::ScenarioSpec) and
//! [`Driver::execute`](crate::workload); a hand-assembled run builds a
//! source and calls [`Driver::run_source`], the loop `execute` itself uses.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::cache::{CacheConfig, CachedResult, ShardedResultCache};
use crate::fingerprint::{fingerprint, ERROR_FINGERPRINT};
use crate::report::{
    CacheReport, DeltaReport, ExecReport, LatencySummary, ResilienceReport, RunReport,
    SteeringReport, ADHOC_SCENARIO,
};
use crate::resilience::{jitter_key, ResiliencePolicy};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use simba_core::session::adaptive::SteeringKind;
use simba_core::session::batch::splitmix;
use simba_core::session::source::{QueryFeedback, SessionSource, SourceStep};
use simba_engine::{Dbms, EngineError, QueryCtx, QueryOutput, SessionDelta};
use simba_obs::LatencyHistogram;
use simba_sql::Select;
use simba_store::ResultSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Think-time pacing between a session's consecutive interactions, and the
/// `think` block of a scenario spec file as-is. Resolution is 1 ms: the
/// spec's integer milliseconds are the only way to say a think time, so
/// sub-millisecond pacing cannot be asked for.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ThinkTime {
    /// No pacing: steps run back-to-back (throughput stress mode).
    None,
    Fixed {
        millis: u64,
    },
    /// Exponentially distributed with the given mean.
    Exponential {
        mean_millis: u64,
    },
}

impl ThinkTime {
    fn sample(&self, rng: &mut ChaCha8Rng) -> Duration {
        match self {
            ThinkTime::None => Duration::ZERO,
            ThinkTime::Fixed { millis } => Duration::from_millis(*millis),
            ThinkTime::Exponential { mean_millis } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                Duration::from_millis(*mean_millis).mul_f64(-(1.0 - u).ln())
            }
        }
    }
}

/// When sessions become eligible to start, and the `arrival` block of a
/// scenario spec file as-is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Start whenever a worker frees up (fixed concurrent population).
    Closed,
    /// Poisson arrivals at this rate (sessions per second).
    Open { rate_per_sec: f64 },
}

/// Driver configuration.
///
/// When running a scenario, this is derived from the
/// [`ScenarioSpec`](crate::workload::ScenarioSpec) (the single source of
/// truth for pacing, seed, and cache settings) via `From`.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Worker threads; `0` = `min(sessions, available_parallelism)`.
    pub workers: usize,
    pub think_time: ThinkTime,
    pub arrival: Arrival,
    /// Seed for think-time and arrival randomness.
    pub seed: u64,
    /// `Some` enables the shared result cache.
    pub cache: Option<CacheConfig>,
    /// Record a per-query result fingerprint (used by equivalence tests).
    pub collect_fingerprints: bool,
    /// Enable session-delta execution: each session carries a
    /// [`SessionDelta`] store (it exists iff this is set) and its queries
    /// run through [`Dbms::execute_delta`], letting engines that opt in seed
    /// scans from the previous step's surviving rows. Results are
    /// byte-identical to delta-off runs (the differential suite enforces
    /// it). Composes with `resilience`: a failed, panicked or
    /// deadline-abandoned attempt resets the store, so a retry never reads
    /// what the attempt before it left half-done.
    pub delta: bool,
    /// Enable the global metrics registry for the duration of the run and
    /// attach a run-scoped [`MetricsSnapshot`](simba_obs::MetricsSnapshot)
    /// (plus the derived phase breakdown) to the report.
    pub collect_metrics: bool,
    /// Deadline and retry/backoff policy applied around every query. Inert
    /// by default: one attempt, no deadline — of the same attempt loop
    /// every run goes through.
    pub resilience: ResiliencePolicy,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            workers: 0,
            think_time: ThinkTime::None,
            arrival: Arrival::Closed,
            seed: 0,
            cache: None,
            collect_fingerprints: false,
            delta: false,
            collect_metrics: false,
            resilience: ResiliencePolicy::default(),
        }
    }
}

/// Result of a driver run ([`Driver::execute`](crate::workload),
/// [`Driver::run_source`]).
#[derive(Debug)]
pub struct DriverOutcome {
    pub report: RunReport,
    /// Per session (outer, in session order): one fingerprint per query (in
    /// step/query order; [`ERROR_FINGERPRINT`] marks errored queries).
    /// Empty unless `collect_fingerprints` was set.
    pub fingerprints: Vec<Vec<u64>>,
    /// Per session, the human-readable description of every step taken
    /// (initial render included) — the determinism proof surface. Empty
    /// unless `collect_fingerprints` was set.
    pub actions: Vec<Vec<String>>,
    /// Per session (session-index order): did any of its queries end in a
    /// final failure — exhausted retries or a permanent error?
    pub degraded: Vec<bool>,
}

/// Replays or live-drives sessions concurrently against one engine.
pub struct Driver {
    config: DriverConfig,
}

/// What one worker thread accumulated. Totals are kept in the report's own
/// section types; their run-level fields (policy strings, rates) are
/// filled once in [`Driver::finish`].
#[derive(Default)]
struct WorkerOutcome {
    latency: LatencyHistogram,
    queue_delay: LatencyHistogram,
    /// Open-loop only: service latency plus, for a session's first query,
    /// the delay past the session's scheduled arrival (the
    /// coordinated-omission-corrected view of what a user would wait).
    response: LatencyHistogram,
    interactions: u64,
    queries: u64,
    errors: u64,
    exec: ExecReport,
    delta: DeltaReport,
    fingerprints: Vec<(usize, Vec<u64>)>,
    actions: Vec<(usize, Vec<String>)>,
    steering: SteeringReport,
    resilience: ResilienceReport,
    /// `(session, any-final-failure)` per completed session.
    degraded: Vec<(usize, bool)>,
}

/// How one execution attempt failed, before retry classification.
enum AttemptError {
    /// The per-query deadline elapsed; the in-flight call was abandoned.
    Timeout,
    /// The engine panicked; the unwind was caught.
    Panic,
    /// The engine returned an error.
    Engine(EngineError),
}

/// Position of a step inside the run, for [`QueryCtx`] and backoff-jitter
/// derivation.
#[derive(Clone, Copy)]
struct StepPos {
    user: u64,
    step: u64,
    session_seed: u64,
}

/// What one executed query left behind for the feedback hooks.
enum Observed {
    Cached(Arc<CachedResult>),
    Owned(ResultSet),
    Errored,
}

impl Observed {
    fn result(&self) -> Option<&ResultSet> {
        match self {
            Observed::Cached(value) => Some(&value.result),
            Observed::Owned(result) => Some(result),
            Observed::Errored => None,
        }
    }
}

impl Driver {
    pub fn new(config: DriverConfig) -> Driver {
        Driver { config }
    }

    /// Run every session a [`SessionSource`] yields to completion and
    /// aggregate a [`RunReport`] — the one concurrent execution loop behind
    /// every session mode.
    pub fn run_source(&self, engine: Arc<dyn Dbms>, source: &dyn SessionSource) -> DriverOutcome {
        let sessions = source.sessions();
        let workers = self.resolve_workers(sessions);
        let cache = self.build_cache();
        let arrivals = self.arrival_offsets(sessions);
        // Metric recording is scoped to the run: a capture at the start
        // lets the report carry only what this run itself recorded.
        let metrics_scope = self
            .config
            .collect_metrics
            .then(simba_obs::metrics::MetricsScope::enter);
        let metrics_before = self
            .config
            .collect_metrics
            .then(simba_obs::metrics::capture);
        let next = AtomicUsize::new(0);
        #[expect(
            clippy::disallowed_methods,
            reason = "the run's wall time and open-loop arrival schedule are measured from here; no session input reads them"
        )]
        let start = Instant::now();
        let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let engine = &engine;
                    let cache = cache.as_deref();
                    let next = &next;
                    let arrivals = &arrivals;
                    scope.spawn(move || {
                        self.worker_loop(engine, cache, source, arrivals, next, start)
                    })
                })
                .collect();
            handles
                .into_iter()
                // Re-raising a worker panic on the coordinating thread is
                // deliberate: worker_loop already converts every per-query
                // failure (engine errors, timeouts, panicking engines) into
                // degraded-session outcomes, so a panic escaping it is a
                // driver bug whose report would be garbage anyway.
                .map(
                    #[expect(
                        clippy::expect_used,
                        reason = "join only fails if worker_loop itself panicked; propagating that bug beats fabricating a report from partial outcomes"
                    )]
                    |h| h.join().expect("worker panicked"),
                )
                .collect()
        });
        let wall = start.elapsed();
        let metrics = metrics_before.map(|before| simba_obs::metrics::snapshot_since(&before));
        drop(metrics_scope);
        self.finish(
            engine.as_ref(),
            source,
            workers,
            wall,
            outcomes,
            cache,
            metrics,
        )
    }

    fn resolve_workers(&self, sessions: usize) -> usize {
        if self.config.workers == 0 {
            std::thread::available_parallelism()
                .map(usize::from)
                .unwrap_or(4)
        } else {
            self.config.workers
        }
        .min(sessions)
        .max(1)
    }

    fn build_cache(&self) -> Option<Arc<ShardedResultCache>> {
        self.config
            .cache
            .clone()
            .map(|c| Arc::new(ShardedResultCache::new(c)))
    }

    /// Open-loop: absolute arrival offsets from run start (Poisson).
    fn arrival_offsets(&self, sessions: usize) -> Vec<Duration> {
        match self.config.arrival {
            Arrival::Closed => vec![Duration::ZERO; sessions],
            Arrival::Open { rate_per_sec } => {
                assert!(
                    rate_per_sec > 0.0,
                    "open-loop arrival rate must be positive"
                );
                let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed ^ 0x0A22_17A1);
                let mut at = 0.0f64;
                (0..sessions)
                    .map(|_| {
                        let u: f64 = rng.gen_range(0.0..1.0);
                        at += -(1.0 - u).ln() / rate_per_sec;
                        Duration::from_secs_f64(at)
                    })
                    .collect()
            }
        }
    }

    /// Open loop: honor the arrival schedule, then measure how late the
    /// session actually started — the queue delay a saturated system
    /// silently absorbs. Returns the delay so the session's first query can
    /// be timed from its *intended* start (the coordinated-omission fix).
    /// (Closed loop has no arrival times, so a delay sample would be
    /// meaningless — returns zero.)
    fn pace_arrival(
        &self,
        out: &mut WorkerOutcome,
        scheduled: Duration,
        run_start: Instant,
    ) -> Duration {
        if matches!(self.config.arrival, Arrival::Open { .. }) {
            let now = run_start.elapsed();
            if now < scheduled {
                std::thread::sleep(scheduled - now);
            }
            let late = run_start.elapsed().saturating_sub(scheduled);
            out.queue_delay.record(late);
            simba_obs::histogram!("driver.phase.queue_delay").record(late);
            late
        } else {
            Duration::ZERO
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "the run-level state a report is assembled from, gathered at its one call site"
    )]
    fn finish(
        &self,
        engine: &dyn Dbms,
        source: &dyn SessionSource,
        workers: usize,
        wall: Duration,
        outcomes: Vec<WorkerOutcome>,
        cache: Option<Arc<ShardedResultCache>>,
        metrics: Option<simba_obs::MetricsSnapshot>,
    ) -> DriverOutcome {
        let sessions = source.sessions();
        let mut latency = LatencyHistogram::new();
        let mut queue_delay = LatencyHistogram::new();
        let mut response = LatencyHistogram::new();
        let (mut interactions, mut queries, mut errors) = (0u64, 0u64, 0u64);
        let mut exec = ExecReport::default();
        let mut delta = DeltaReport::default();
        let mut steering = SteeringReport::default();
        let mut resilience = ResilienceReport::default();
        let mut fingerprints: Vec<Vec<u64>> = vec![Vec::new(); sessions];
        let mut actions: Vec<Vec<String>> = vec![Vec::new(); sessions];
        let mut degraded: Vec<bool> = vec![false; sessions];
        for w in outcomes {
            latency.merge(&w.latency);
            queue_delay.merge(&w.queue_delay);
            response.merge(&w.response);
            interactions += w.interactions;
            queries += w.queries;
            errors += w.errors;
            exec.merge(&w.exec);
            delta.merge(&w.delta);
            steering.merge(&w.steering);
            resilience.merge(&w.resilience);
            // `get_mut`, not indexing: worker outcomes are keyed by the
            // session ids the dispatch loop handed out, which are in range
            // by construction — but a bookkeeping bug here should drop one
            // session's rows, not panic the whole report assembly.
            for (session, fps) in w.fingerprints {
                if let Some(slot) = fingerprints.get_mut(session) {
                    *slot = fps;
                }
            }
            for (session, acts) in w.actions {
                if let Some(slot) = actions.get_mut(session) {
                    *slot = acts;
                }
            }
            for (session, d) in w.degraded {
                if let Some(slot) = degraded.get_mut(session) {
                    *slot = d;
                }
            }
        }

        let report = RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            scenario_name: ADHOC_SCENARIO.to_string(),
            engine: engine.name().to_string(),
            mode: match self.config.arrival {
                Arrival::Closed => "closed".to_string(),
                Arrival::Open { .. } => "open".to_string(),
            },
            session_mode: source.mode().to_string(),
            sessions,
            workers,
            scan_threads: engine.scan_threads(),
            wall_clock_ms: wall.as_secs_f64() * 1_000.0,
            interactions,
            queries,
            errors,
            throughput_qps: if wall.is_zero() {
                0.0
            } else {
                queries as f64 / wall.as_secs_f64()
            },
            latency: LatencySummary::from_histogram(&latency),
            queue_delay: match self.config.arrival {
                Arrival::Closed => None,
                Arrival::Open { .. } => Some(LatencySummary::from_histogram(&queue_delay)),
            },
            steering: source.steering_policy().map(|policy| SteeringReport {
                policy,
                backtrack_rate: rate(steering.backtracks, interactions),
                empty_result_rate: rate(steering.empty_results, queries.saturating_sub(errors)),
                ..steering
            }),
            cache: cache
                .as_ref()
                .map(|c| CacheReport::new(&c.stats(), c.len())),
            exec,
            delta: self.config.delta.then_some(delta),
            fingerprint_digest: self
                .config
                .collect_fingerprints
                .then(|| crate::fingerprint::digest(&fingerprints)),
            response: match self.config.arrival {
                Arrival::Closed => None,
                Arrival::Open { .. } => Some(LatencySummary::from_histogram(&response)),
            },
            // The workload layer fills `fault` from the wrapper's injection
            // stats; the driver only sees a `Dbms`.
            fault: None,
            // Reported when failure handling was configured or had anything
            // to handle; a clean run under an inert policy has no taxonomy.
            resilience: (self.config.resilience.is_active() || errors > 0).then(|| {
                ResilienceReport {
                    policy: self.config.resilience.describe(),
                    degraded_sessions: degraded.iter().filter(|d| **d).count() as u64,
                    degraded: degraded.clone(),
                    ..resilience
                }
            }),
            phase_breakdown: metrics.as_ref().map(crate::report::phase_breakdown),
            metrics,
        };
        DriverOutcome {
            report,
            fingerprints,
            actions,
            degraded,
        }
    }

    fn worker_loop(
        &self,
        engine: &Arc<dyn Dbms>,
        cache: Option<&ShardedResultCache>,
        source: &dyn SessionSource,
        arrivals: &[Duration],
        next: &AtomicUsize,
        run_start: Instant,
    ) -> WorkerOutcome {
        let mut out = WorkerOutcome::default();
        let sessions = source.sessions();
        loop {
            let user = next.fetch_add(1, Ordering::Relaxed);
            if user >= sessions {
                break;
            }
            // `user < sessions` was just checked, and `arrivals` has one
            // slot per session — but a worker must never panic on a
            // schedule-shape bug, so missing slots fall back to "no delay".
            let arrival = arrivals.get(user).copied().unwrap_or(Duration::ZERO);
            let lateness = self.pace_arrival(&mut out, arrival, run_start);
            // Root span: the trace sampler decides per session, so a
            // sampled session carries all of its steps, cache lookups, and
            // engine phases while an unsampled one records nothing.
            let _session = simba_obs::trace::span("driver.session", "driver");
            self.run_session(engine, cache, source, user, lateness, &mut out);
        }
        out
    }

    /// One session: pull steps from the stream, execute their queries, and
    /// feed the results back for the next step.
    fn run_session(
        &self,
        engine: &Arc<dyn Dbms>,
        cache: Option<&ShardedResultCache>,
        source: &dyn SessionSource,
        user: usize,
        lateness: Duration,
        out: &mut WorkerOutcome,
    ) {
        let mut stream = source.open(user);
        // Queue delay still owed to the session's first query when timing
        // it from its intended start; consumed by the first recording.
        let mut lateness = lateness;
        // Pacing noise is kept off any walk rng inside the stream:
        // think-time draws must not perturb action choice (cache hits
        // change timings, never walks). The asymmetric splitmix also stops
        // a shared driver/source seed from cancelling to zero under XOR.
        let mut pace_rng =
            ChaCha8Rng::seed_from_u64(splitmix(self.config.seed) ^ stream.session_seed());
        let collect = self.config.collect_fingerprints;
        let session_seed = stream.session_seed();
        let errors_before = out.errors;
        // Session-delta store: one per session, never shared — a session's
        // refinement chain is its own.
        let mut delta = self.config.delta.then(SessionDelta::default);
        let mut fps = Vec::new();
        let mut actions = Vec::new();
        let mut observed: Vec<Observed> = Vec::new();
        let mut first = true;
        let mut step_index: u64 = 0;

        loop {
            let step = {
                // The steering decision: feedback assembly plus the walk's
                // choice of next interaction.
                let _steer = simba_obs::phase!("driver.steer", "driver", "driver.phase.steer");
                let feedback: Vec<QueryFeedback<'_>> = observed
                    .iter()
                    .map(|o| match o.result() {
                        Some(r) => QueryFeedback::Ok(r),
                        None => QueryFeedback::Errored,
                    })
                    .collect();
                match stream.next_step(&feedback) {
                    Some(step) => step,
                    None => break,
                }
            };
            // The stream has read the previous step's results: free them
            // before this step's results are made, so two steps' results
            // never peak together.
            observed.clear();
            if !first {
                out.interactions += 1;
                let pause = self.config.think_time.sample(&mut pace_rng);
                if !pause.is_zero() {
                    let _think = simba_obs::trace::span("driver.think", "driver");
                    simba_obs::histogram!("driver.phase.think").record(pause);
                    std::thread::sleep(pause);
                }
            }
            first = false;
            let _step_span = simba_obs::phase!("driver.step", "driver", "driver.phase.step");
            match step.steering {
                Some(SteeringKind::BacktrackOnEmpty) => out.steering.backtracks += 1,
                Some(SteeringKind::DrillTopGroup) => out.steering.drills += 1,
                None => {}
            }
            if collect {
                actions.push(step.description.clone());
            }
            let pos = StepPos {
                user: user as u64,
                step: step_index,
                session_seed,
            };
            observed = self.execute_step(
                engine,
                cache,
                &step,
                pos,
                &mut lateness,
                &mut delta,
                out,
                &mut fps,
            );
            step_index += 1;
        }

        if let Some(d) = delta.as_ref() {
            out.delta.add_store(&d.stats());
        }
        if collect {
            out.fingerprints.push((user, fps));
            out.actions.push((user, actions));
        }
        out.degraded.push((user, out.errors > errors_before));
    }

    /// Execute one step's queries, recording latency, errors, fingerprints,
    /// and empty-result counts; returns per-query observations for the
    /// stream's feedback. Every query of every run goes through
    /// [`execute_query`](Self::execute_query).
    #[allow(
        clippy::too_many_arguments,
        reason = "the per-session state a step threads through to each of its queries"
    )]
    fn execute_step(
        &self,
        engine: &Arc<dyn Dbms>,
        cache: Option<&ShardedResultCache>,
        step: &SourceStep,
        pos: StepPos,
        lateness: &mut Duration,
        delta: &mut Option<SessionDelta>,
        out: &mut WorkerOutcome,
        fps: &mut Vec<u64>,
    ) -> Vec<Observed> {
        let mut observed = Vec::with_capacity(step.queries.len());
        for (query_index, (_vis, query)) in step.queries.iter().enumerate() {
            out.queries += 1;
            let executed = self.execute_query(engine, cache, query, query_index, pos, delta, out);
            self.record_query_outcome(executed, lateness, out, fps, &mut observed);
        }
        observed
    }

    /// Execute one query to its final outcome — the one path every session
    /// mode, cache setting and failure policy is timed through: the attempt
    /// loop, run *inside* the single-flight cache leader when caching, so
    /// followers coalesced onto a flaky key observe the leader's post-retry
    /// outcome, never its raw first failure, and a cache hit leaves the
    /// session's delta store exactly as it was: only fresh executions
    /// consult or grow it.
    #[allow(
        clippy::too_many_arguments,
        reason = "the per-session state one query is executed against and recorded into"
    )]
    fn execute_query(
        &self,
        engine: &Arc<dyn Dbms>,
        cache: Option<&ShardedResultCache>,
        query: &Select,
        query_index: usize,
        pos: StepPos,
        delta: &mut Option<SessionDelta>,
        out: &mut WorkerOutcome,
    ) -> Result<(Observed, Duration), EngineError> {
        let first = QueryCtx {
            session: pos.user,
            step: pos.step,
            query: query_index as u64,
            attempt: 0,
        };
        let retries_before = out.resilience.retries;
        let counters = &mut out.resilience;
        let mut run = || self.attempt_loop(engine, query, first, pos.session_seed, delta, counters);
        // Engine totals count fresh executions only — a cache hit or
        // coalesced wait must not re-count the work its leader already did.
        let executed = match cache {
            Some(cache) => cache
                .execute_cached(query, run)
                .map(|(value, elapsed, hit)| {
                    if !hit {
                        out.exec.add(&value.stats);
                        out.delta.add_exec(&value.stats);
                    }
                    (Observed::Cached(value), elapsed)
                }),
            None => run().map(|o| {
                out.exec.add(&o.stats);
                out.delta.add_exec(&o.stats);
                (Observed::Owned(o.result), o.elapsed)
            }),
        };
        if executed.is_ok() && out.resilience.retries > retries_before {
            out.resilience.retries_succeeded += 1;
        }
        executed
    }

    /// Record one query's final outcome into histograms, fingerprints, and
    /// feedback observations.
    fn record_query_outcome(
        &self,
        executed: Result<(Observed, Duration), EngineError>,
        lateness: &mut Duration,
        out: &mut WorkerOutcome,
        fps: &mut Vec<u64>,
        observed: &mut Vec<Observed>,
    ) {
        let collect = self.config.collect_fingerprints;
        let open_loop = matches!(self.config.arrival, Arrival::Open { .. });
        match executed {
            Ok((obs, elapsed)) => {
                out.latency.record(elapsed);
                if open_loop {
                    // Response time from the *intended* start: the
                    // session's remaining queue delay lands on its
                    // first query, later queries owe nothing.
                    out.response.record(elapsed + std::mem::take(lateness));
                }
                if let Some(result) = obs.result() {
                    // Fingerprinting clones and sorts the whole result
                    // set; keep it off the measured path unless asked.
                    if collect {
                        fps.push(fingerprint(result));
                    }
                    if result.is_empty() {
                        out.steering.empty_results += 1;
                    }
                }
                observed.push(obs);
            }
            Err(_) => {
                out.errors += 1;
                // Keep fingerprint vectors position-aligned.
                if collect {
                    fps.push(ERROR_FINGERPRINT);
                }
                observed.push(Observed::Errored);
            }
        }
    }

    /// Run one query to a final outcome under the resilience policy:
    /// deadline-bounded attempts, transient failures (including timeouts
    /// and recovered panics) retried with seeded exponential backoff up to
    /// the budget, permanent errors failing immediately. The inert policy
    /// is this loop's first iteration. Backoff sleeps are recorded as
    /// `driver.phase.backoff` (think-time, not service time).
    fn attempt_loop(
        &self,
        engine: &Arc<dyn Dbms>,
        query: &Select,
        first: QueryCtx,
        session_seed: u64,
        delta: &mut Option<SessionDelta>,
        counters: &mut ResilienceReport,
    ) -> Result<QueryOutput, EngineError> {
        let policy = &self.config.resilience;
        let mut ctx = first;
        loop {
            let failure = match run_attempt(engine, query, &ctx, policy.deadline(), delta) {
                Ok(output) => return Ok(output),
                Err(failure) => failure,
            };
            let (retryable, error) = match failure {
                AttemptError::Timeout => {
                    counters.timeouts += 1;
                    (
                        true,
                        EngineError::Transient(format!(
                            "deadline of {:?} exceeded; attempt abandoned",
                            policy.deadline().unwrap_or_default()
                        )),
                    )
                }
                AttemptError::Panic => {
                    counters.panics_recovered += 1;
                    (
                        true,
                        EngineError::Transient("engine panicked (unwind recovered)".to_string()),
                    )
                }
                AttemptError::Engine(e) if e.is_transient() => {
                    counters.transient_errors += 1;
                    (true, e)
                }
                AttemptError::Engine(e) => {
                    counters.permanent_errors += 1;
                    (false, e)
                }
            };
            if !retryable || ctx.attempt >= policy.max_retries {
                return Err(error);
            }
            ctx.attempt += 1;
            counters.retries += 1;
            let _retry = simba_obs::trace::span("driver.retry", "driver");
            let jkey = jitter_key(self.config.seed, session_seed, first.step, first.query);
            let pause = policy.backoff_delay(jkey, ctx.attempt);
            if !pause.is_zero() {
                simba_obs::histogram!("driver.phase.backoff").record(pause);
                std::thread::sleep(pause);
            }
        }
    }
}

/// One execution attempt. Without a deadline it runs inline. With one, it
/// runs on a freshly spawned thread and the caller waits at most
/// `deadline`: an attempt that blows the budget is **abandoned** — the
/// engine call finishes (and is discarded) on the detached thread, the
/// session moves on. Abandonment, not cancellation: the `Dbms` trait has no
/// cancel hook, and a wedged session is worse than a stray background scan.
///
/// The session's delta store travels with the attempt: it moves into the
/// attempt thread and comes back with the result, and an abandoned
/// attempt's store is dropped for an empty one that keeps the event counts
/// the session had reached before the attempt.
/// Any failed attempt resets the store — what the attempt left in it, and
/// the trajectory steering takes after an error, no longer describe a
/// refinement chain — so a retry starts from an empty one.
fn run_attempt(
    engine: &Arc<dyn Dbms>,
    query: &Select,
    ctx: &QueryCtx,
    deadline: Option<Duration>,
    delta: &mut Option<SessionDelta>,
) -> Result<QueryOutput, AttemptError> {
    let outcome = match deadline {
        None => call_engine(engine.as_ref(), query, ctx, delta.as_mut()),
        Some(deadline) => {
            let (tx, rx) = std::sync::mpsc::channel();
            let (engine, query, ctx) = (Arc::clone(engine), query.clone(), *ctx);
            let mut store = delta.take();
            // The store goes with the attempt and may not come back; what it
            // had counted so far happened either way.
            let counted = store.as_ref().map(SessionDelta::stats);
            std::thread::spawn(move || {
                let outcome = call_engine(engine.as_ref(), &query, &ctx, store.as_mut());
                // A send error just means the caller timed out and went away.
                let _ = tx.send((outcome, store));
            });
            match rx.recv_timeout(deadline) {
                Ok((outcome, store)) => {
                    *delta = store;
                    outcome
                }
                Err(gone) => {
                    *delta = counted.map(SessionDelta::continuing);
                    Err(match gone {
                        std::sync::mpsc::RecvTimeoutError::Timeout => AttemptError::Timeout,
                        // Disconnected is not a timeout: the executor thread
                        // died without sending (call_engine's unwind guard
                        // should make this unreachable). Calling it a timeout
                        // would send it through timeout-retry accounting;
                        // surface it as the infrastructure fault it is.
                        std::sync::mpsc::RecvTimeoutError::Disconnected => {
                            AttemptError::Engine(EngineError::Internal(
                                "deadline executor thread disconnected without a result".into(),
                            ))
                        }
                    })
                }
            }
        }
    };
    if outcome.is_err() {
        if let Some(store) = delta {
            store.reset();
        }
    }
    outcome
}

/// The one engine call site, under an unwind guard: through the session's
/// delta store when it carries one, with the attempt's identity otherwise
/// (the `Dbms` trait cannot carry both).
fn call_engine(
    engine: &dyn Dbms,
    query: &Select,
    ctx: &QueryCtx,
    delta: Option<&mut SessionDelta>,
) -> Result<QueryOutput, AttemptError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match delta {
        Some(store) => engine.execute_delta(query, store),
        None => engine.execute_at(query, ctx),
    })) {
        Ok(Ok(output)) => Ok(output),
        Ok(Err(e)) => Err(AttemptError::Engine(e)),
        Err(_) => Err(AttemptError::Panic),
    }
}

fn rate(n: u64, denom: u64) -> f64 {
    if denom == 0 {
        0.0
    } else {
        n as f64 / denom as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn think_time_samples_match_discipline() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(ThinkTime::None.sample(&mut rng), Duration::ZERO);
        assert_eq!(
            ThinkTime::Fixed { millis: 3 }.sample(&mut rng),
            Duration::from_millis(3)
        );
        let n = 2_000;
        let total: Duration = (0..n)
            .map(|_| ThinkTime::Exponential { mean_millis: 10 }.sample(&mut rng))
            .sum();
        let avg_ms = total.as_secs_f64() * 1_000.0 / n as f64;
        assert!((avg_ms - 10.0).abs() < 1.0, "mean {avg_ms}ms");
    }
}
