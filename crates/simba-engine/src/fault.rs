//! Deterministic chaos: a [`Dbms`] wrapper that injects faults from a
//! seeded per-query RNG.
//!
//! Real engines under dashboard load hiccup, drop connections, and time
//! out; a benchmark that never sees a failure cannot claim to measure
//! resilience. [`FaultInjectingDbms`] wraps any engine and, per execution
//! attempt, may inject:
//!
//! * a **latency spike** — sleep before running the query (drives the
//!   driver's deadline/timeout path);
//! * a **transient error** — [`EngineError::Transient`], the retryable
//!   kind;
//! * a **permanent error** — [`EngineError::Invalid`], which retrying can
//!   only repeat;
//! * a **panic** — an unwind out of `execute`, for exercising
//!   panic-recovery in callers.
//!
//! # Determinism contract
//!
//! Every decision is a pure function of
//! `(FaultConfig::seed, QueryCtx { session, step, query, attempt })` — no
//! wall clock, no shared mutable state, no thread identity. Two runs with
//! the same seed and spec inject byte-identical fault sequences regardless
//! of worker count or interleaving, and a retry (same position, `attempt +
//! 1`) re-rolls rather than deterministically re-failing. Calls through the
//! plain [`Dbms::execute`] entry point (no context) use the zero context,
//! so ad-hoc callers still get reproducible — if positionally
//! indistinguishable — faults.

use crate::{Dbms, EngineError, QueryCtx, QueryOutput};
use serde::{Deserialize, Serialize};
use simba_sql::Select;
use simba_store::mix::splitmix64;
use simba_store::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fault mix of a [`FaultInjectingDbms`], and the `fault` block of a
/// scenario spec file as-is. The default injects nothing, so a wrapped
/// engine behaves byte-identically to the bare one.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed the per-query RNG mixes with the execution context;
    /// independent of the scenario seed, so the same workload can be rerun
    /// under a different fault timeline.
    #[serde(default)]
    pub seed: u64,
    /// Probability of sleeping `latency_spike_ms` before executing
    /// (independent of the error draw).
    #[serde(default)]
    pub latency_spike_prob: f64,
    /// Injected sleep per latency spike, in milliseconds.
    #[serde(default)]
    pub latency_spike_ms: u64,
    /// Probability of failing with a retryable [`EngineError::Transient`].
    #[serde(default)]
    pub transient_error_prob: f64,
    /// Probability of failing with a permanent [`EngineError::Invalid`].
    #[serde(default)]
    pub permanent_error_prob: f64,
    /// Probability of panicking out of `execute` (the driver recovers via
    /// unwind-catching and treats it as transient).
    #[serde(default)]
    pub panic_prob: f64,
}

impl FaultConfig {
    /// Does this config ever inject anything?
    pub fn is_active(&self) -> bool {
        self.latency_spike_prob > 0.0
            || self.transient_error_prob > 0.0
            || self.permanent_error_prob > 0.0
            || self.panic_prob > 0.0
    }
}

/// Monotonic injection counters, snapshot via
/// [`FaultInjectingDbms::stats`]. Counts what the wrapper *injected*; what
/// the driver observed (after caching, coalescing, retries) is reported
/// separately.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Latency spikes slept.
    pub latency_spikes: u64,
    /// Transient errors returned.
    pub transient_errors: u64,
    /// Permanent errors returned.
    pub permanent_errors: u64,
    /// Panics raised.
    pub panics: u64,
}

/// Payload of an injected panic, so panic-recovery code can tell a chaos
/// fault from a genuine engine bug when it cares to downcast.
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// The execution context the panic was injected at.
    pub ctx: QueryCtx,
}

/// A minimal deterministic generator over the splitmix64 stream. Enough
/// randomness for Bernoulli fault draws; crucially, zero dependencies and
/// a trivially auditable determinism story.
struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Seeded from the fault seed and the full execution context, each
    /// field passed through the mixer so low-entropy inputs (small session
    /// and step indices) land far apart in the stream.
    fn for_ctx(seed: u64, ctx: &QueryCtx) -> FaultRng {
        let mut state = splitmix64(seed ^ 0xC4A0_5FA0_17E5_D001);
        for part in [ctx.session, ctx.step, ctx.query, ctx.attempt as u64] {
            state = splitmix64(state ^ splitmix64(part.wrapping_add(1)));
        }
        FaultRng { state }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Uniform draw in `[0, 1)` (53 mantissa bits).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// What the fault draw decided for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Injected {
    None,
    Transient,
    Permanent,
    Panic,
}

/// A [`Dbms`] wrapper injecting deterministic faults around any inner
/// engine. Reports the inner engine's name and scan parallelism so
/// per-engine breakdowns stay stable.
pub struct FaultInjectingDbms {
    inner: Arc<dyn Dbms>,
    config: FaultConfig,
    latency_spikes: AtomicU64,
    transient_errors: AtomicU64,
    permanent_errors: AtomicU64,
    panics: AtomicU64,
}

/// Install (once, process-wide) a panic-hook filter that suppresses the
/// default "thread panicked" report for [`InjectedPanic`] payloads — they
/// are expected, recovered by the driver, and would otherwise flood stderr
/// with one backtrace per injected fault. Every other panic still reaches
/// the previous hook untouched.
fn silence_injected_panic_reports() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

impl FaultInjectingDbms {
    /// Wrap `inner` under `config`. Constructing a wrapper that can panic
    /// also quiets the default panic report for its own injected panics.
    pub fn new(inner: Arc<dyn Dbms>, config: FaultConfig) -> FaultInjectingDbms {
        if config.panic_prob > 0.0 {
            silence_injected_panic_reports();
        }
        FaultInjectingDbms {
            inner,
            config,
            latency_spikes: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            permanent_errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &Arc<dyn Dbms> {
        &self.inner
    }

    /// The fault mix this wrapper was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Snapshot the injection counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            latency_spikes: self.latency_spikes.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            permanent_errors: self.permanent_errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    /// The error-kind decision for one context: a single uniform draw
    /// against cumulative probability bands (panic, then permanent, then
    /// transient), so the three error kinds are mutually exclusive per
    /// attempt and their rates add.
    fn decide(&self, ctx: &QueryCtx) -> (Injected, bool) {
        let mut rng = FaultRng::for_ctx(self.config.seed, ctx);
        let error_draw = rng.next_f64();
        let spike_draw = rng.next_f64();
        let panic_band = self.config.panic_prob;
        let permanent_band = panic_band + self.config.permanent_error_prob;
        let transient_band = permanent_band + self.config.transient_error_prob;
        let injected = if error_draw < panic_band {
            Injected::Panic
        } else if error_draw < permanent_band {
            Injected::Permanent
        } else if error_draw < transient_band {
            Injected::Transient
        } else {
            Injected::None
        };
        let spike = spike_draw < self.config.latency_spike_prob;
        (injected, spike)
    }
}

impl Dbms for FaultInjectingDbms {
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
        self.execute_at(query, &QueryCtx::default())
    }

    fn execute_at(&self, query: &Select, ctx: &QueryCtx) -> Result<QueryOutput, EngineError> {
        if !self.config.is_active() {
            return self.inner.execute_at(query, ctx);
        }
        let (injected, spike) = self.decide(ctx);
        if spike {
            self.latency_spikes.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(self.config.latency_spike_ms));
        }
        match injected {
            Injected::None => self.inner.execute_at(query, ctx),
            Injected::Transient => {
                self.transient_errors.fetch_add(1, Ordering::Relaxed);
                Err(EngineError::Transient(format!(
                    "injected transient fault (session {} step {} query {} attempt {})",
                    ctx.session, ctx.step, ctx.query, ctx.attempt
                )))
            }
            Injected::Permanent => {
                self.permanent_errors.fetch_add(1, Ordering::Relaxed);
                Err(EngineError::Invalid(format!(
                    "injected permanent fault (session {} step {} query {})",
                    ctx.session, ctx.step, ctx.query
                )))
            }
            Injected::Panic => {
                self.panics.fetch_add(1, Ordering::Relaxed);
                std::panic::panic_any(InjectedPanic { ctx: *ctx });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineKind;
    use simba_store::{ColumnDef, Schema, TableBuilder, Value};

    fn small_table() -> Arc<Table> {
        let schema = Schema::new("t", vec![ColumnDef::quantitative_int("x")]);
        let mut b = TableBuilder::new(schema, 8);
        for i in 0..8 {
            b.push_row(vec![Value::Int(i)]);
        }
        Arc::new(b.finish())
    }

    fn wrapped(config: FaultConfig) -> FaultInjectingDbms {
        let inner = EngineKind::SqliteLike.build();
        inner.register(small_table());
        FaultInjectingDbms::new(inner, config)
    }

    fn query() -> Select {
        simba_sql::parse_select("SELECT COUNT(*) FROM t").unwrap()
    }

    #[test]
    fn inactive_config_is_transparent() {
        let db = wrapped(FaultConfig::default());
        assert!(!db.config().is_active());
        let out = db.execute(&query()).unwrap();
        assert_eq!(out.result.sorted_rows(), vec![vec![Value::Int(8)]]);
        assert_eq!(db.stats(), FaultStats::default());
        assert_eq!(db.name(), "sqlite-like", "wrapper reports the inner name");
    }

    #[test]
    fn decisions_are_deterministic_in_seed_and_ctx() {
        let config = FaultConfig {
            seed: 42,
            transient_error_prob: 0.3,
            permanent_error_prob: 0.1,
            panic_prob: 0.0,
            latency_spike_prob: 0.2,
            latency_spike_ms: 0,
        };
        let a = wrapped(config.clone());
        let b = wrapped(config);
        let q = query();
        for session in 0..4u64 {
            for step in 0..16u64 {
                for attempt in 0..3u32 {
                    let ctx = QueryCtx {
                        session,
                        step,
                        query: 0,
                        attempt,
                    };
                    let ra = a.execute_at(&q, &ctx).map(|o| o.result);
                    let rb = b.execute_at(&q, &ctx).map(|o| o.result);
                    assert_eq!(ra, rb, "ctx {ctx:?}");
                }
            }
        }
        assert_eq!(a.stats(), b.stats());
        let s = a.stats();
        assert!(
            s.transient_errors > 0 && s.permanent_errors > 0 && s.latency_spikes > 0,
            "192 draws at these rates must inject every configured kind: {s:?}"
        );
    }

    #[test]
    fn retry_rerolls_instead_of_refailing() {
        let config = FaultConfig {
            seed: 7,
            transient_error_prob: 0.5,
            ..Default::default()
        };
        let db = wrapped(config);
        let q = query();
        // Find a position whose first attempt fails, then check some later
        // attempt of the same position succeeds: the rng must include the
        // attempt counter, or retries would be pointless.
        let mut saw_recovery = false;
        for step in 0..32u64 {
            let first = db.execute_at(
                &q,
                &QueryCtx {
                    session: 0,
                    step,
                    query: 0,
                    attempt: 0,
                },
            );
            if first.is_ok() {
                continue;
            }
            for attempt in 1..8u32 {
                let retry = db.execute_at(
                    &q,
                    &QueryCtx {
                        session: 0,
                        step,
                        query: 0,
                        attempt,
                    },
                );
                if retry.is_ok() {
                    saw_recovery = true;
                    break;
                }
            }
            if saw_recovery {
                break;
            }
        }
        assert!(saw_recovery, "some failed position must recover on retry");
    }

    #[test]
    fn certain_probabilities_always_fire() {
        let transient = wrapped(FaultConfig {
            transient_error_prob: 1.0,
            ..Default::default()
        });
        let err = transient.execute(&query()).unwrap_err();
        assert!(err.is_transient(), "{err}");

        let permanent = wrapped(FaultConfig {
            permanent_error_prob: 1.0,
            ..Default::default()
        });
        let err = permanent.execute(&query()).unwrap_err();
        assert!(!err.is_transient(), "{err}");

        let panicking = wrapped(FaultConfig {
            panic_prob: 1.0,
            ..Default::default()
        });
        let q = query();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = panicking.execute(&q);
        }))
        .unwrap_err();
        assert!(
            unwound.downcast_ref::<InjectedPanic>().is_some(),
            "injected panics carry their context"
        );
        assert_eq!(panicking.stats().panics, 1);
    }

    #[test]
    fn error_kinds_are_mutually_exclusive_bands() {
        // panic + permanent + transient = 1.0: every attempt fails, split
        // across the three kinds, never more than one per attempt.
        let db = wrapped(FaultConfig {
            seed: 3,
            transient_error_prob: 0.4,
            permanent_error_prob: 0.3,
            panic_prob: 0.3,
            ..Default::default()
        });
        let q = query();
        let attempts = 64u64;
        for step in 0..attempts {
            let ctx = QueryCtx {
                session: 1,
                step,
                query: 0,
                attempt: 0,
            };
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.execute_at(&q, &ctx)));
            if let Ok(Ok(_)) = outcome {
                panic!("probabilities sum to 1: step {step} cannot succeed");
            }
        }
        let s = db.stats();
        assert_eq!(
            s.transient_errors + s.permanent_errors + s.panics,
            attempts,
            "exactly one fault per attempt: {s:?}"
        );
        assert!(s.transient_errors > 0 && s.permanent_errors > 0 && s.panics > 0);
    }
}
