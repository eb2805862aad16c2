//! The benchmark's own instruments: forwarding wrappers around the session
//! source and the engine that time the calls the driver makes into each
//! crate. Nothing under `crates/` is edited; every number is taken here.
//!
//! * [`TimedSource`] is always installed. With tracing off it costs two
//!   clock reads per step and yields the interaction latency: from a stream
//!   handing a step out to the driver calling back with that step's results.
//! * With tracing on it also records spans (`session` → `step`, `next_step`)
//!   and every `(Select, ResultSet)` pair the driver fed back, and a
//!   [`TimedDbms`] around the engine records one `call` span per engine call
//!   with the counts of `QueryOutput.stats`.
//!
//! The benchmark runs one driver worker, so one session and one step are
//! open at a time; the shared [`Probe`] relies on that.

use simba_core::session::source::{QueryFeedback, SessionSource, SessionStream, SourceStep};
use simba_driver::{fingerprint, ERROR_FINGERPRINT};
use simba_engine::{Dbms, EngineError, ExecStats, QueryCtx, QueryOutput, SessionDelta};
use simba_sql::Select;
use simba_store::{ResultSet, Table};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Which tier answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Never reached the engine: the result cache answered.
    Cache,
    /// Engine call that replayed cached group states (no scan).
    DeltaStates,
    /// Engine call whose scan was seeded from a retained selection.
    DeltaSeed,
    /// Engine call that scanned the table.
    Scan,
}

/// One recorded span. Times are nanoseconds since the probe's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (crate) the time belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Trace id: session / step / query (`None` where it does not apply).
    pub session: usize,
    pub step: Option<usize>,
    pub query: Option<usize>,
    /// Counts taken at the same boundary (engine calls only).
    pub stats: Option<ExecStats>,
}

/// One engine call seen by [`TimedDbms`].
#[derive(Debug, Clone)]
pub struct Call {
    /// Wall time around the forwarded call.
    pub wall_ns: u64,
    /// The engine's self-reported `QueryOutput.elapsed` (0 for an error).
    pub reported_ns: u64,
    pub stats: ExecStats,
}

/// One query the driver executed, with what it fed back.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub session: usize,
    pub select: Select,
    /// `None` when the driver reported an error for the query.
    pub result: Option<ResultSet>,
    /// `simba_driver::fingerprint` of the result, or `ERROR_FINGERPRINT`.
    /// Filled in by [`Probe::fingerprint_results`] once the round is over.
    pub fingerprint: u64,
    pub tier: Tier,
}

struct OpenStep {
    span: usize,
    queries: Vec<Select>,
    tiers: Vec<Tier>,
    /// Queries before this index are already matched to an engine call.
    cursor: usize,
}

/// Everything one round records. Shared by the source and engine wrappers.
pub struct Probe {
    trace: bool,
    epoch: Instant,
    /// Interaction latency of every step, in hand-out order.
    pub step_ns: Vec<u64>,
    pub failed_steps: u64,
    // Everything below is recorded with tracing on only.
    pub next_step_ns: Vec<u64>,
    pub steered_steps: u64,
    pub spans: Vec<Span>,
    pub calls: Vec<Call>,
    pub queries: Vec<QueryRecord>,
    /// Time [`TimedDbms`] spent on its own bookkeeping after a call returned,
    /// i.e. inside a step: subtracted from the driver's self time. (The
    /// stream wrapper records outside the step interval.)
    pub recording_in_step_ns: u64,
    session_span: Option<usize>,
    open: Option<OpenStep>,
}

impl Probe {
    pub fn new(trace: bool) -> Arc<Mutex<Probe>> {
        Arc::new(Mutex::new(Probe {
            trace,
            epoch: Instant::now(),
            step_ns: Vec::new(),
            failed_steps: 0,
            next_step_ns: Vec::new(),
            steered_steps: 0,
            spans: Vec::new(),
            calls: Vec::new(),
            queries: Vec::new(),
            recording_in_step_ns: 0,
            session_span: None,
            open: None,
        }))
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.duration_since(self.epoch).as_nanos() as u64
    }

    /// Fingerprint every recorded result. Done after the round, not while
    /// recording: hashing a result costs more than everything else the
    /// probe does per query, and belongs to no layer of the program.
    pub fn fingerprint_results(&mut self) {
        for q in &mut self.queries {
            q.fingerprint = q.result.as_ref().map_or(ERROR_FINGERPRINT, fingerprint);
        }
    }

    /// Fingerprints per session, in query order: the argument
    /// `simba_driver::fingerprint::digest` takes.
    pub fn fingerprints(&self, sessions: usize) -> Vec<Vec<u64>> {
        let mut out = vec![Vec::new(); sessions];
        for q in &self.queries {
            out[q.session].push(q.fingerprint);
        }
        out
    }
}

fn lock(probe: &Mutex<Probe>) -> MutexGuard<'_, Probe> {
    // A poisoned probe means a wrapper panicked mid-record; the round is
    // garbage either way, so surface the panic rather than measure on.
    probe
        .lock()
        .expect("a probe wrapper panicked while recording")
}

/// A [`SessionSource`] that times the streams of another.
pub struct TimedSource<'a> {
    pub inner: &'a dyn SessionSource,
    pub probe: Arc<Mutex<Probe>>,
}

impl SessionSource for TimedSource<'_> {
    fn mode(&self) -> &'static str {
        self.inner.mode()
    }

    fn sessions(&self) -> usize {
        self.inner.sessions()
    }

    fn steering_policy(&self) -> Option<String> {
        self.inner.steering_policy()
    }

    fn open(&self, user: usize) -> Box<dyn SessionStream + '_> {
        let inner = self.inner.open(user);
        let mut probe = lock(&self.probe);
        if probe.trace {
            let start_ns = probe.since_epoch(Instant::now());
            probe.spans.push(Span {
                layer: "simba-driver",
                name: "session",
                start_ns,
                end_ns: start_ns,
                parent: None,
                session: user,
                step: None,
                query: None,
                stats: None,
            });
            probe.session_span = Some(probe.spans.len() - 1);
        }
        Box::new(TimedStream {
            inner,
            probe: &self.probe,
            // `simba-idebench` streams are the only ones not from simba-core.
            layer: if self.inner.mode() == "idebench" {
                "simba-idebench"
            } else {
                "simba-core"
            },
            session: user,
            steps: 0,
            handed_out: None,
        })
    }
}

struct TimedStream<'a> {
    inner: Box<dyn SessionStream + 'a>,
    probe: &'a Mutex<Probe>,
    layer: &'static str,
    session: usize,
    steps: usize,
    /// When the step the driver is executing was handed out.
    handed_out: Option<Instant>,
}

impl TimedStream<'_> {
    /// The driver called back: the open step is over. Record its latency
    /// and, with tracing on, what the driver fed back for it.
    fn close_step(&mut self, called_back: Instant, feedback: &[QueryFeedback<'_>]) {
        let Some(handed_out) = self.handed_out.take() else {
            return;
        };
        let mut probe = lock(self.probe);
        probe
            .step_ns
            .push(called_back.duration_since(handed_out).as_nanos() as u64);
        if feedback.iter().any(|f| matches!(f, QueryFeedback::Errored)) {
            probe.failed_steps += 1;
        }
        let Some(open) = probe.open.take() else {
            return;
        };
        let end_ns = probe.since_epoch(called_back);
        probe.spans[open.span].end_ns = end_ns;
        for ((select, tier), fed) in open.queries.into_iter().zip(open.tiers).zip(feedback) {
            probe.queries.push(QueryRecord {
                session: self.session,
                select,
                result: fed.result().cloned(),
                fingerprint: ERROR_FINGERPRINT,
                tier,
            });
        }
    }
}

impl SessionStream for TimedStream<'_> {
    fn session_seed(&self) -> u64 {
        self.inner.session_seed()
    }

    fn next_step(&mut self, feedback: &[QueryFeedback<'_>]) -> Option<SourceStep> {
        self.close_step(Instant::now(), feedback);
        let before = Instant::now();
        let step = self.inner.next_step(feedback);
        let after = Instant::now();
        let mut probe = lock(self.probe);
        if probe.trace {
            let (start_ns, end_ns) = (probe.since_epoch(before), probe.since_epoch(after));
            probe.next_step_ns.push(end_ns - start_ns);
            let parent = probe.session_span;
            probe.spans.push(Span {
                layer: self.layer,
                name: "next_step",
                start_ns,
                end_ns,
                parent,
                session: self.session,
                step: Some(self.steps),
                query: None,
                stats: None,
            });
            if let Some(step) = &step {
                if step.steering.is_some() {
                    probe.steered_steps += 1;
                }
                let queries: Vec<Select> = step.queries.iter().map(|(_, q)| q.clone()).collect();
                let start_ns = probe.since_epoch(Instant::now());
                probe.spans.push(Span {
                    layer: "simba-driver",
                    name: "step",
                    start_ns,
                    end_ns: start_ns,
                    parent,
                    session: self.session,
                    step: Some(self.steps),
                    query: None,
                    stats: None,
                });
                probe.open = Some(OpenStep {
                    span: probe.spans.len() - 1,
                    tiers: vec![Tier::Cache; queries.len()],
                    queries,
                    cursor: 0,
                });
            }
        }
        drop(probe);
        if step.is_some() {
            self.steps += 1;
            self.handed_out = Some(Instant::now());
        }
        step
    }
}

impl Drop for TimedStream<'_> {
    fn drop(&mut self) {
        // `Drop` must not panic: skip the bookkeeping on a poisoned probe.
        if let Ok(mut probe) = self.probe.lock() {
            if let Some(span) = probe.session_span.take() {
                probe.spans[span].end_ns = probe.since_epoch(Instant::now());
            }
        }
    }
}

/// A [`Dbms`] that forwards every call to another and records its wall
/// time. All three entry points forward to their namesake: the trait's
/// default `execute_delta` would silently decline delta execution.
pub struct TimedDbms {
    pub inner: Arc<dyn Dbms>,
    pub probe: Arc<Mutex<Probe>>,
}

impl TimedDbms {
    fn timed(
        &self,
        query: &Select,
        call: impl FnOnce() -> Result<QueryOutput, EngineError>,
    ) -> Result<QueryOutput, EngineError> {
        let before = Instant::now();
        let outcome = call();
        let after = Instant::now();
        let mut probe = lock(&self.probe);
        let (start_ns, end_ns) = (probe.since_epoch(before), probe.since_epoch(after));
        let (reported_ns, stats) = match &outcome {
            Ok(out) => (out.elapsed.as_nanos() as u64, out.stats.clone()),
            Err(_) => (0, ExecStats::default()),
        };
        // Which of the open step's queries was this? Calls arrive in query
        // order; a query with no call was answered by the result cache.
        let mut position = None;
        if let Some(open) = probe.open.as_mut() {
            if let Some(offset) = open.queries[open.cursor..].iter().position(|q| q == query) {
                let index = open.cursor + offset;
                open.cursor = index + 1;
                open.tiers[index] = if stats.delta_group_hits > 0 {
                    Tier::DeltaStates
                } else if stats.delta_hits > 0 {
                    Tier::DeltaSeed
                } else {
                    Tier::Scan
                };
                position = Some((open.span, index));
            }
        }
        let session = probe.session_span.map_or(0, |s| probe.spans[s].session);
        let step = position.and_then(|(span, _)| probe.spans[span].step);
        probe.spans.push(Span {
            layer: "simba-engine",
            name: "call",
            start_ns,
            end_ns,
            parent: position.map(|(span, _)| span),
            session,
            step,
            query: position.map(|(_, index)| index),
            stats: Some(stats.clone()),
        });
        probe.calls.push(Call {
            wall_ns: end_ns - start_ns,
            reported_ns,
            stats,
        });
        probe.recording_in_step_ns += after.elapsed().as_nanos() as u64;
        outcome
    }
}

impl Dbms for TimedDbms {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn scan_threads(&self) -> usize {
        self.inner.scan_threads()
    }

    fn register(&self, table: Arc<Table>) {
        self.inner.register(table);
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        self.timed(query, || self.inner.execute(query))
    }

    fn execute_at(&self, query: &Select, ctx: &QueryCtx) -> Result<QueryOutput, EngineError> {
        self.timed(query, || self.inner.execute_at(query, ctx))
    }

    fn execute_delta(
        &self,
        query: &Select,
        delta: &mut SessionDelta,
    ) -> Result<QueryOutput, EngineError> {
        self.timed(query, || self.inner.execute_delta(query, delta))
    }
}
