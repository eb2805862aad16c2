//! Driver-side resilience: deadlines and seeded retry/backoff.
//!
//! The worker loop consults a [`ResiliencePolicy`] around every query:
//!
//! * **deadline** — a wall-clock budget per attempt; an attempt that blows
//!   it is *abandoned* (the in-flight call finishes on a detached thread)
//!   and counted as a timeout, so a slow engine can never wedge a session;
//! * **retry + backoff** — transient failures (and timeouts) are retried up
//!   to a budget, sleeping an exponentially growing, seeded-jittered delay
//!   between attempts. Backoff waits are accounted as think-time, not
//!   service time, so the open-loop queue-delay correction stays honest.
//!
//! Everything seeded is deterministic: backoff jitter derives from
//! `(driver seed, session seed, step, query, attempt)` via the same
//! splitmix64 mixing the pacing rng uses, never from wall clock or thread
//! identity. Nothing here reads the clock: the deadline is a timeout on
//! the driver's wait for an attempt (`run_attempt`), the one place a slow
//! engine can change a session's outcome.

use serde::{Deserialize, Serialize};
use simba_store::mix::splitmix64;
use std::time::Duration;

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

#[cfg(test)]
mod tests {
    use super::*;

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
