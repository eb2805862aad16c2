//! Driver-side resilience: deadlines, seeded retry/backoff, and per-engine
//! circuit breaking.
//!
//! The worker loop consults a [`ResiliencePolicy`] around every query:
//!
//! * **deadline** — a wall-clock budget per attempt; an attempt that blows
//!   it is *abandoned* (the in-flight call finishes on a detached thread)
//!   and counted as a timeout, so a slow engine can never wedge a session;
//! * **retry + backoff** — transient failures (and timeouts) are retried up
//!   to a budget, sleeping an exponentially growing, seeded-jittered delay
//!   between attempts. Backoff waits are accounted as think-time, not
//!   service time, so the open-loop queue-delay correction stays honest;
//! * **circuit breaker** — a [`CircuitBreaker`] per engine trips after a run
//!   of consecutive failures and sheds queries instantly while open,
//!   trickling probes through half-open until the engine proves healthy.
//!
//! Everything seeded is deterministic: backoff jitter derives from
//! `(driver seed, session seed, step, query, attempt)` via the same
//! splitmix64 mixing the pacing rng uses, never from wall clock or thread
//! identity. The breaker is the one intentionally *time-coupled* piece
//! (cooldowns are wall-clock), which is why it defaults to off and the
//! byte-identity guarantees in `workload` only cover breaker-less configs.

use serde::{Deserialize, Serialize};
use simba_store::mix::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How the worker loop reacts to slow and failing queries, and the
/// `resilience` block of a scenario spec file as-is. The default (zeros
/// everywhere) is completely inert: no deadline, no retries, no breaker —
/// the attempt loop's first iteration and nothing else.
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
    /// Consecutive final failures that trip the breaker; 0 disables it.
    #[serde(default)]
    pub breaker_failure_threshold: u32,
    /// How long an open breaker sheds before letting probes through, in
    /// milliseconds.
    #[serde(default)]
    pub breaker_cooldown_ms: u64,
    /// Successful half-open probes required to close again; 0 counts as 1.
    #[serde(default)]
    pub breaker_half_open_probes: u32,
}

impl ResiliencePolicy {
    /// Does any part of the policy do anything? When `false`, every query
    /// is one attempt with no deadline and no breaker admission.
    pub fn is_active(&self) -> bool {
        self.deadline_ms > 0 || self.max_retries > 0 || self.breaker_enabled()
    }

    /// The per-attempt deadline, if one is set.
    pub fn deadline(&self) -> Option<Duration> {
        (self.deadline_ms > 0).then(|| Duration::from_millis(self.deadline_ms))
    }

    /// Is the circuit breaker configured?
    pub fn breaker_enabled(&self) -> bool {
        self.breaker_failure_threshold > 0
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
        if self.breaker_enabled() {
            parts.push(format!(
                "breaker={}fails/{}ms/{}probes",
                self.breaker_failure_threshold,
                self.breaker_cooldown_ms,
                self.breaker_half_open_probes.max(1)
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
        let u = (splitmix64(jitter_key ^ (0xB0FF_u64 << 32) ^ attempt as u64) >> 11) as f64
            * (1.0 / (1u64 << 53) as f64);
        raw.mul_f64(0.5 + 0.5 * u)
    }
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

#[derive(Debug)]
enum BreakerState {
    /// Healthy: counting consecutive final failures.
    Closed { consecutive_failures: u32 },
    /// Tripped: shedding everything until the cooldown elapses.
    Open { since: Instant },
    /// Probing: up to `probes` in-flight trial queries decide the verdict.
    HalfOpen { in_flight: u32, successes: u32 },
}

/// Classic closed → open → half-open circuit breaker, shared by every
/// worker hitting one engine. State transitions key off *final* outcomes
/// (after retries), so one flaky query that recovers on retry never counts
/// against the engine.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    probes: u32,
    state: Mutex<BreakerState>,
    opens: AtomicU64,
    half_opens: AtomicU64,
    closes: AtomicU64,
    shed: AtomicU64,
}

/// Monotonic breaker counters, snapshot via [`CircuitBreaker::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Closed/half-open → open transitions.
    pub opens: u64,
    /// Open → half-open transitions (cooldown elapsed, probes admitted).
    pub half_opens: u64,
    /// Half-open → closed transitions (engine proved healthy).
    pub closes: u64,
    /// Queries rejected without execution while open or probe-saturated.
    pub shed: u64,
}

impl CircuitBreaker {
    /// A breaker from the policy's knobs. Call only when
    /// [`ResiliencePolicy::breaker_enabled`].
    pub fn new(policy: &ResiliencePolicy) -> CircuitBreaker {
        CircuitBreaker {
            threshold: policy.breaker_failure_threshold.max(1),
            cooldown: Duration::from_millis(policy.breaker_cooldown_ms),
            probes: policy.breaker_half_open_probes.max(1),
            state: Mutex::new(BreakerState::Closed {
                consecutive_failures: 0,
            }),
            opens: AtomicU64::new(0),
            half_opens: AtomicU64::new(0),
            closes: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// May this query execute? `false` means shed: record a degraded step
    /// and do not touch the engine. Admission while half-open counts the
    /// caller as a probe; it **must** report back via
    /// [`on_success`](Self::on_success) or [`on_failure`](Self::on_failure).
    pub fn try_acquire(&self) -> bool {
        let mut state = self.state.lock().unwrap();
        match &mut *state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { since } => {
                if since.elapsed() >= self.cooldown {
                    *state = BreakerState::HalfOpen {
                        in_flight: 1,
                        successes: 0,
                    };
                    self.half_opens.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
            BreakerState::HalfOpen { in_flight, .. } => {
                if *in_flight < self.probes {
                    *in_flight += 1;
                    true
                } else {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        }
    }

    /// Report a query that ended well (possibly after retries).
    pub fn on_success(&self) {
        let mut state = self.state.lock().unwrap();
        match &mut *state {
            BreakerState::Closed {
                consecutive_failures,
            } => *consecutive_failures = 0,
            BreakerState::HalfOpen {
                in_flight,
                successes,
            } => {
                *in_flight = in_flight.saturating_sub(1);
                *successes += 1;
                if *successes >= self.probes {
                    *state = BreakerState::Closed {
                        consecutive_failures: 0,
                    };
                    self.closes.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Report a query whose final outcome (after retries) was a failure.
    pub fn on_failure(&self) {
        let mut state = self.state.lock().unwrap();
        match &mut *state {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                *consecutive_failures += 1;
                if *consecutive_failures >= self.threshold {
                    *state = BreakerState::Open {
                        since: Instant::now(),
                    };
                    self.opens.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerState::HalfOpen { .. } => {
                // A failed probe re-trips immediately: the engine is not
                // ready, restart the cooldown.
                *state = BreakerState::Open {
                    since: Instant::now(),
                };
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Open { .. } => {}
        }
    }

    /// Snapshot the transition counters.
    pub fn stats(&self) -> BreakerStats {
        BreakerStats {
            opens: self.opens.load(Ordering::Relaxed),
            half_opens: self.half_opens.load(Ordering::Relaxed),
            closes: self.closes.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker_policy(threshold: u32, cooldown: Duration, probes: u32) -> ResiliencePolicy {
        ResiliencePolicy {
            breaker_failure_threshold: threshold,
            breaker_cooldown_ms: cooldown.as_millis() as u64,
            breaker_half_open_probes: probes,
            ..Default::default()
        }
    }

    #[test]
    fn default_policy_is_inert() {
        let p = ResiliencePolicy::default();
        assert!(!p.is_active());
        assert!(!p.breaker_enabled());
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
            breaker_failure_threshold: 5,
            breaker_cooldown_ms: 2_000,
            breaker_half_open_probes: 2,
        };
        assert_eq!(
            p.describe(),
            "deadline=250ms retries=3 backoff=10..200ms breaker=5fails/2000ms/2probes"
        );
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

    #[test]
    fn breaker_trips_after_threshold_and_sheds_while_open() {
        let b = CircuitBreaker::new(&breaker_policy(3, Duration::from_secs(3_600), 1));
        for _ in 0..2 {
            assert!(b.try_acquire());
            b.on_failure();
        }
        assert!(b.try_acquire(), "still closed below the threshold");
        b.on_failure();
        assert!(!b.try_acquire(), "tripped: must shed");
        assert!(!b.try_acquire());
        let s = b.stats();
        assert_eq!((s.opens, s.half_opens, s.closes, s.shed), (1, 0, 0, 2));
    }

    #[test]
    fn success_resets_the_consecutive_failure_count() {
        let b = CircuitBreaker::new(&breaker_policy(2, Duration::from_secs(1), 1));
        b.on_failure();
        b.on_success();
        b.on_failure();
        assert!(b.try_acquire(), "failures were not consecutive");
        assert_eq!(b.stats().opens, 0);
    }

    #[test]
    fn breaker_recovers_through_half_open_probes() {
        let b = CircuitBreaker::new(&breaker_policy(1, Duration::ZERO, 2));
        assert!(b.try_acquire());
        b.on_failure();
        assert_eq!(b.stats().opens, 1);
        // Zero cooldown: next acquire goes half-open, admitting 2 probes.
        assert!(b.try_acquire());
        assert!(b.try_acquire());
        assert!(!b.try_acquire(), "probe slots exhausted");
        b.on_success();
        b.on_success();
        assert!(b.try_acquire(), "closed again after enough probe successes");
        let s = b.stats();
        assert_eq!((s.opens, s.half_opens, s.closes), (1, 1, 1));
        assert_eq!(s.shed, 1);
    }

    #[test]
    fn zero_half_open_probes_count_as_one() {
        // Spec files may omit the field; where it is used, 0 means 1.
        let policy = breaker_policy(1, Duration::ZERO, 0);
        assert_eq!(policy.describe(), "breaker=1fails/0ms/1probes");
        let b = CircuitBreaker::new(&policy);
        b.on_failure(); // trip
        assert!(b.try_acquire(), "one half-open probe is admitted");
        assert!(!b.try_acquire(), "and only one");
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let b = CircuitBreaker::new(&breaker_policy(1, Duration::ZERO, 1));
        assert!(b.try_acquire());
        b.on_failure(); // trip
        assert!(b.try_acquire()); // half-open probe
        b.on_failure(); // probe fails → re-open
        assert_eq!(b.stats().opens, 2);
    }
}
