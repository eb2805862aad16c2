//! Driver-side chaos and resilience: faults drawn per attempt, and the
//! deadlines and seeded retry/backoff that answer them.
//!
//! The worker loop consults a [`FaultConfig`] and a [`ResiliencePolicy`]
//! around every query:
//!
//! * **fault draw** — when the `fault` block is active, each execution
//!   attempt draws a [`Fault`]: a latency spike slept before the engine
//!   call, and at most one of a transient error, a permanent error or a
//!   panic in its place;
//! * **deadline** — a wall-clock budget per attempt; an attempt that blows
//!   it is *abandoned* (the in-flight call finishes on a detached thread)
//!   and counted as a timeout, so a slow engine can never wedge a session;
//! * **retry + backoff** — transient failures (and timeouts) are retried up
//!   to a budget, sleeping an exponentially growing, seeded-jittered delay
//!   between attempts. Backoff waits are accounted as think-time, not
//!   service time, so the open-loop queue-delay correction stays honest.
//!
//! Everything seeded is deterministic: a fault draw is a pure function of
//! `(fault seed, session, step, query, attempt)`, and backoff jitter of
//! `(driver seed, session seed, step, query, attempt)`, both through the
//! splitmix64 mixing the pacing rng uses, never wall clock or thread
//! identity. A retry (`attempt + 1`) re-rolls the draw rather than
//! re-failing. Nothing here reads the clock: the deadline is a timeout on
//! the driver's wait for an attempt (`run_attempt`), the one place a slow
//! engine can change a session's outcome.

use serde::{Deserialize, Serialize};
use simba_engine::{EngineError, QueryCtx};
use simba_store::mix::splitmix64;
use std::time::Duration;

/// The fault mix, and the `fault` block of a scenario spec file as-is. The
/// default injects nothing, so a run under it is byte-identical to a run
/// without the block.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed the per-attempt draw mixes with the execution context;
    /// independent of the scenario seed, so the same workload can be rerun
    /// under a different fault timeline.
    #[serde(default)]
    pub seed: u64,
    /// Probability of sleeping `latency_spike_ms` before the engine call
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
    /// Probability of panicking in place of the engine call (the driver
    /// catches the unwind and treats it as transient).
    #[serde(default)]
    pub panic_prob: f64,
}

/// What goes wrong with one execution attempt ([`FaultConfig::draw`]). The
/// default is nothing: the engine is called as is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fault {
    /// Sleep this long before the engine call.
    pub spike: Option<Duration>,
    /// Fail the attempt in place of the engine call.
    pub error: Option<InjectedError>,
}

/// The error half of a [`Fault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedError {
    /// [`EngineError::Transient`], the retryable kind.
    Transient,
    /// [`EngineError::Invalid`], which retrying can only repeat.
    Permanent,
    /// An unwind, caught by the driver like an engine panic.
    Panic,
}

/// Payload of an injected panic, so the panic hook can tell a chaos fault
/// from a genuine engine bug.
struct InjectedPanic;

impl FaultConfig {
    /// Does this config ever inject anything?
    pub fn is_active(&self) -> bool {
        self.latency_spike_prob > 0.0
            || self.transient_error_prob > 0.0
            || self.permanent_error_prob > 0.0
            || self.panic_prob > 0.0
    }

    /// The fault for one attempt: a pure function of the seed and `ctx`.
    /// Every field of `ctx` passes through the mixer, so small session and
    /// step indices land far apart in the splitmix64 stream. The stream's
    /// first value is the error draw, one uniform against cumulative bands
    /// (panic, then permanent, then transient), so the three kinds are
    /// mutually exclusive per attempt and their rates add; its second is
    /// the independent spike draw.
    pub fn draw(&self, ctx: &QueryCtx) -> Fault {
        let mut state = splitmix64(self.seed ^ 0xC4A0_5FA0_17E5_D001);
        for part in [ctx.session, ctx.step, ctx.query, u64::from(ctx.attempt)] {
            state = splitmix64(state ^ splitmix64(part.wrapping_add(1)));
        }
        let mut uniform = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            unit(splitmix64(state))
        };
        let error_draw = uniform();
        let spike_draw = uniform();
        let panic_band = self.panic_prob;
        let permanent_band = panic_band + self.permanent_error_prob;
        let transient_band = permanent_band + self.transient_error_prob;
        let error = if error_draw < panic_band {
            Some(InjectedError::Panic)
        } else if error_draw < permanent_band {
            Some(InjectedError::Permanent)
        } else if error_draw < transient_band {
            Some(InjectedError::Transient)
        } else {
            None
        };
        Fault {
            spike: (spike_draw < self.latency_spike_prob)
                .then(|| Duration::from_millis(self.latency_spike_ms)),
            error,
        }
    }
}

impl Fault {
    /// Act the fault out in place of (or ahead of) the engine call for
    /// `ctx`: sleep through the spike, then fail or unwind as drawn. `Ok`
    /// means the engine is called next.
    pub(crate) fn strike(self, ctx: &QueryCtx) -> Result<(), EngineError> {
        if let Some(spike) = self.spike {
            std::thread::sleep(spike);
        }
        match self.error {
            None => Ok(()),
            Some(InjectedError::Transient) => Err(EngineError::Transient(format!(
                "injected transient fault (session {} step {} query {} attempt {})",
                ctx.session, ctx.step, ctx.query, ctx.attempt
            ))),
            Some(InjectedError::Permanent) => Err(EngineError::Invalid(format!(
                "injected permanent fault (session {} step {} query {})",
                ctx.session, ctx.step, ctx.query
            ))),
            Some(InjectedError::Panic) => std::panic::panic_any(InjectedPanic),
        }
    }
}

/// Install (once, process-wide) a panic-hook filter that suppresses the
/// default "thread panicked" report for injected panics: they are expected,
/// recovered by the driver, and would otherwise flood stderr with one report
/// per fault. Every other panic still reaches the previous hook untouched.
pub(crate) fn silence_injected_panic_reports() {
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

/// How the worker loop reacts to slow and failing queries, and the
/// `resilience` block of a scenario spec file as-is. The default (zeros
/// everywhere) is completely inert: no deadline, no retries — the attempt
/// loop's first iteration and nothing else.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResiliencePolicy {
    /// Wall-clock budget per execution attempt, in milliseconds; 0 waits
    /// forever.
    #[serde(default)]
    pub deadline_ms: u64,
    /// Retries after the first attempt (0 = fail on first error). Only
    /// transient failures and timeouts are retried; permanent errors
    /// fail immediately.
    #[serde(default)]
    pub max_retries: u32,
    /// Backoff before retry `n` is `min(cap, base · 2ⁿ)`, jittered into
    /// `[½, 1)·` that bound. In milliseconds.
    #[serde(default)]
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff wait, in milliseconds.
    #[serde(default)]
    pub backoff_cap_ms: u64,
}

impl ResiliencePolicy {
    /// Does any part of the policy do anything? When `false`, every query
    /// is one attempt with no deadline.
    pub fn is_active(&self) -> bool {
        self.deadline_ms > 0 || self.max_retries > 0
    }

    /// The per-attempt deadline, if one is set.
    pub fn deadline(&self) -> Option<Duration> {
        (self.deadline_ms > 0).then(|| Duration::from_millis(self.deadline_ms))
    }

    /// Stable one-line description for reports.
    pub fn describe(&self) -> String {
        if !self.is_active() {
            return "off".to_string();
        }
        let mut parts = Vec::new();
        if self.deadline_ms > 0 {
            parts.push(format!("deadline={}ms", self.deadline_ms));
        }
        if self.max_retries > 0 {
            parts.push(format!(
                "retries={} backoff={}..{}ms",
                self.max_retries, self.backoff_base_ms, self.backoff_cap_ms
            ));
        }
        parts.join(" ")
    }

    /// The jittered wait before retry `attempt` (1-based: the wait that
    /// precedes attempt 1 uses `base · 2⁰`). Deterministic in
    /// `(jitter_key, attempt)`; the caller mixes its seeds into the key.
    pub fn backoff_delay(&self, jitter_key: u64, attempt: u32) -> Duration {
        if self.backoff_base_ms == 0 {
            return Duration::ZERO;
        }
        let base = Duration::from_millis(self.backoff_base_ms);
        let cap = Duration::from_millis(self.backoff_cap_ms);
        let exp = attempt.saturating_sub(1).min(31);
        let raw = base.saturating_mul(1u32 << exp).min(cap.max(base));
        // Jitter into [1/2, 1) of the bound: full-jitter loses too much
        // spacing, zero jitter synchronizes retry storms.
        let u = unit(splitmix64(jitter_key ^ (0xB0FF_u64 << 32) ^ attempt as u64));
        raw.mul_f64(0.5 + 0.5 * u)
    }
}

/// Uniform in `[0, 1)` from the top 53 bits of a mixed word.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Mix the driver seed, session seed, and step/query position into one
/// jitter key for [`ResiliencePolicy::backoff_delay`].
pub fn jitter_key(driver_seed: u64, session_seed: u64, step: u64, query: u64) -> u64 {
    let mut k = splitmix64(driver_seed ^ 0x5E11_1E4C_E000_0001);
    for part in [session_seed, step, query] {
        k = splitmix64(k ^ splitmix64(part.wrapping_add(1)));
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(session: u64, step: u64, query: u64, attempt: u32) -> QueryCtx {
        QueryCtx {
            session,
            step,
            query,
            attempt,
        }
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
        let twin = config.clone();
        let mut injected = crate::FaultReport::default();
        for session in 0..4u64 {
            for step in 0..16u64 {
                for attempt in 0..3u32 {
                    let at = ctx(session, step, 0, attempt);
                    let fault = config.draw(&at);
                    assert_eq!(fault, twin.draw(&at), "ctx {at:?}");
                    assert_eq!(fault, config.draw(&at), "ctx {at:?} drawn twice");
                    injected.add(fault);
                }
            }
        }
        assert!(
            injected.transient > 0 && injected.permanent > 0 && injected.latency_spikes > 0,
            "192 draws at these rates must inject every configured kind: {injected:?}"
        );
        assert_eq!(injected.panics, 0);
    }

    #[test]
    fn retry_rerolls_instead_of_refailing() {
        let config = FaultConfig {
            seed: 7,
            transient_error_prob: 0.5,
            ..Default::default()
        };
        // Some position whose first attempt fails must succeed on a later
        // attempt: the draw must include the attempt counter, or retries
        // would be pointless.
        let recovers = (0..32u64).any(|step| {
            config.draw(&ctx(0, step, 0, 0)).error.is_some()
                && (1..8u32).any(|attempt| config.draw(&ctx(0, step, 0, attempt)).error.is_none())
        });
        assert!(recovers, "some failed position must recover on retry");
    }

    #[test]
    fn error_kinds_are_mutually_exclusive_bands() {
        // panic + permanent + transient = 1.0: every attempt draws exactly
        // one error, split across the three kinds.
        let full = FaultConfig {
            seed: 3,
            transient_error_prob: 0.4,
            permanent_error_prob: 0.3,
            panic_prob: 0.3,
            ..Default::default()
        };
        let mut injected = crate::FaultReport::default();
        for step in 0..64u64 {
            let fault = full.draw(&ctx(1, step, 0, 0));
            assert!(fault.error.is_some(), "probabilities sum to 1: step {step}");
            injected.add(fault);
        }
        assert_eq!(
            injected.transient + injected.permanent + injected.panics,
            64
        );
        assert!(injected.transient > 0 && injected.permanent > 0 && injected.panics > 0);

        // Each band's share is its own rate, and the error rate is their sum.
        let split = FaultConfig {
            seed: 11,
            transient_error_prob: 0.3,
            permanent_error_prob: 0.2,
            panic_prob: 0.1,
            ..Default::default()
        };
        let draws = 20_000u64;
        let mut injected = crate::FaultReport::default();
        for step in 0..draws {
            injected.add(split.draw(&ctx(step % 7, step, step % 3, 0)));
        }
        let share = |n: u64| n as f64 / draws as f64;
        for (kind, n, rate) in [
            ("transient", injected.transient, 0.3),
            ("permanent", injected.permanent, 0.2),
            ("panic", injected.panics, 0.1),
            (
                "any error",
                injected.transient + injected.permanent + injected.panics,
                0.6,
            ),
        ] {
            assert!(
                (share(n) - rate).abs() < 0.02,
                "{kind}: {} vs {rate}",
                share(n)
            );
        }
    }

    /// An inert block draws nothing, so every attempt calls the engine as is.
    #[test]
    fn inactive_config_is_transparent() {
        let inert = [
            FaultConfig::default(),
            FaultConfig {
                seed: 9,
                latency_spike_ms: 50,
                ..Default::default()
            },
        ];
        for config in inert {
            assert!(!config.is_active());
            for step in 0..64u64 {
                let at = ctx(step % 5, step, step % 3, (step % 4) as u32);
                assert_eq!(config.draw(&at), Fault::default(), "ctx {at:?}");
            }
        }
    }

    #[test]
    fn certain_probabilities_always_fire() {
        silence_injected_panic_reports();
        let at = ctx(0, 0, 0, 0);
        let strike = |config: FaultConfig| {
            let fault = config.draw(&at);
            std::panic::catch_unwind(|| fault.strike(&at))
        };
        let transient = strike(FaultConfig {
            transient_error_prob: 1.0,
            ..Default::default()
        });
        assert!(matches!(transient, Ok(Err(e)) if e.is_transient()));
        let permanent = strike(FaultConfig {
            permanent_error_prob: 1.0,
            ..Default::default()
        });
        assert!(matches!(permanent, Ok(Err(e)) if !e.is_transient()));
        let unwound = strike(FaultConfig {
            panic_prob: 1.0,
            ..Default::default()
        })
        .unwrap_err();
        assert!(
            unwound.downcast_ref::<InjectedPanic>().is_some(),
            "an injected panic is recognizable by its payload"
        );
        let spiked = FaultConfig {
            latency_spike_prob: 1.0,
            latency_spike_ms: 3,
            ..Default::default()
        }
        .draw(&at);
        assert_eq!(spiked.spike, Some(Duration::from_millis(3)));
        assert_eq!(spiked.error, None);
    }

    /// The draws of a fixed list of contexts under four seeds and two mixes,
    /// as the engine wrapper the draw replaced injected them: `.` nothing,
    /// `T` transient, `P` permanent, `X` panic, each followed by `~` when a
    /// spike was drawn too. A change to the mixing constants, the field
    /// order or the band order moves them, and with them every chaos run.
    #[test]
    fn draws_match_the_recorded_timeline() {
        let contexts: Vec<QueryCtx> = (0..12u64)
            .map(|i| ctx(i % 3, i * 5 % 7, i % 4, (i % 5) as u32))
            .collect();
        let recorded = [
            (
                (0.1, 0.2, 0.3, 0.25),
                ".P~X.T.~XX.PT.~ .PP~T~T.~PX.P.~X PTTTP..~TT.PX TTT.~TT~TX~PP..",
            ),
            (
                (0.03, 0.0, 0.15, 0.05),
                "..T...TX.... .TT....T.T.T ....T.....TX .......XT...",
            ),
        ];
        for ((panic_prob, permanent_error_prob, transient_error_prob, spike), timeline) in recorded
        {
            let drawn: Vec<String> = [0u64, 7, 0xC4A0_5EED, u64::MAX]
                .into_iter()
                .map(|seed| {
                    let config = FaultConfig {
                        seed,
                        latency_spike_prob: spike,
                        latency_spike_ms: 0,
                        transient_error_prob,
                        permanent_error_prob,
                        panic_prob,
                    };
                    let mut line = String::new();
                    for at in &contexts {
                        let fault = config.draw(at);
                        line.push(match fault.error {
                            None => '.',
                            Some(InjectedError::Transient) => 'T',
                            Some(InjectedError::Permanent) => 'P',
                            Some(InjectedError::Panic) => 'X',
                        });
                        if fault.spike.is_some() {
                            line.push('~');
                        }
                    }
                    line
                })
                .collect();
            assert_eq!(drawn.join(" "), timeline);
        }
    }

    #[test]
    fn default_policy_is_inert() {
        let p = ResiliencePolicy::default();
        assert!(!p.is_active());
        assert_eq!(p.describe(), "off");
        assert_eq!(p.backoff_delay(1, 1), Duration::ZERO);
    }

    #[test]
    fn describe_lists_active_knobs() {
        let p = ResiliencePolicy {
            deadline_ms: 250,
            max_retries: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
        };
        assert_eq!(p.describe(), "deadline=250ms retries=3 backoff=10..200ms");
    }

    #[test]
    fn backoff_grows_exponentially_under_the_cap_with_bounded_jitter() {
        let p = ResiliencePolicy {
            max_retries: 8,
            backoff_base_ms: 10,
            backoff_cap_ms: 100,
            ..Default::default()
        };
        let key = jitter_key(7, 11, 3, 0);
        for attempt in 1..=8u32 {
            let bound = Duration::from_millis(10)
                .saturating_mul(1 << (attempt - 1).min(31))
                .min(Duration::from_millis(100));
            let d = p.backoff_delay(key, attempt);
            assert!(
                d >= bound.mul_f64(0.5),
                "attempt {attempt}: {d:?} < ½·{bound:?}"
            );
            assert!(d < bound, "attempt {attempt}: {d:?} ≥ {bound:?}");
            // Determinism: same key + attempt, same delay.
            assert_eq!(d, p.backoff_delay(key, attempt));
        }
        // Different keys jitter differently (overwhelmingly likely).
        let other = jitter_key(7, 12, 3, 0);
        assert_ne!(p.backoff_delay(key, 1), p.backoff_delay(other, 1));
    }
}
