//! The built-in scenario registry: named suites of [`ScenarioSpec`]s.
//!
//! A *scenario* is a named list of specs — typically a sweep over engines,
//! user counts, cache settings, or session modes — that the `simba-bench`
//! CLI runs with `bench --scenario <name>`. Suites are parameterized by
//! [`ScenarioParams`] (scale knobs the harness reads from flags) but are
//! otherwise pure data: dump one
//! with `bench --scenario <name> --dump`, edit the JSON, and run the edited
//! file with `bench --spec <file>`.

use super::{EngineSpec, ScenarioSpec, SourceSpec};
use crate::cache::CacheConfig;
use crate::driver::{Arrival, ThinkTime};
use crate::resilience::ResiliencePolicy;
use simba_engine::{EngineKind, FaultConfig};

/// Scale knobs shared by every built-in suite.
#[derive(Debug, Clone)]
pub struct ScenarioParams {
    /// Dataset rows.
    pub rows: usize,
    /// Master seed.
    pub seed: u64,
    /// Concurrent-user sweep (suites that don't sweep use the first entry).
    pub users: Vec<usize>,
    /// Interactions per session after the initial render.
    pub steps: usize,
    /// Worker threads; `0` = available parallelism.
    pub workers: usize,
    /// Fixed think time between interactions, in milliseconds (`0` = none).
    pub think_ms: u64,
    /// `simba-server` address for remote scenarios (`remote-shootout`):
    /// `host:port` of a live server, or `"loopback"` (the default) for
    /// the in-process wire transport, which needs no external process.
    pub addr: String,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            rows: 50_000,
            seed: 0,
            users: vec![4, 16, 64],
            steps: 8,
            workers: 0,
            think_ms: 0,
            addr: "loopback".to_string(),
        }
    }
}

impl ScenarioParams {
    fn think(&self) -> ThinkTime {
        if self.think_ms == 0 {
            ThinkTime::None
        } else {
            ThinkTime::Fixed {
                millis: self.think_ms,
            }
        }
    }

    fn first_users(&self) -> usize {
        self.users.first().copied().unwrap_or(4).max(1)
    }

    fn base(&self, name: &str, users: usize) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(name, "customer_service");
        spec.rows = self.rows;
        spec.seed = self.seed;
        spec.sessions = users;
        spec.steps_per_session = self.steps;
        spec.workers = self.workers;
        spec.think = self.think();
        spec.arrival = Arrival::Closed;
        spec
    }
}

/// One named scenario: what it is, and the specs it expands to.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry name (`bench --scenario <name>`).
    pub name: &'static str,
    /// One-line description shown by `bench --list`.
    pub description: &'static str,
    /// The suite, run in order through `Driver::execute`.
    pub specs: Vec<ScenarioSpec>,
}

/// Names of every built-in scenario, in presentation order.
pub const SCENARIO_NAMES: [&str; 8] = [
    "smoke",
    "concurrent-shootout",
    "adaptive-shootout",
    "idebench",
    "perf-report",
    "chaos",
    "remote-shootout",
    "delta-shootout",
];

/// Expand a built-in scenario by name (case-insensitive), or `None` if
/// unknown.
pub fn scenario(name: &str, params: &ScenarioParams) -> Option<Scenario> {
    let (name, description, specs) = match name.to_ascii_lowercase().as_str() {
        "smoke" => (
            "smoke",
            "every engine x every session mode, one small run each (CI gate)",
            smoke(params),
        ),
        "concurrent-shootout" => (
            "concurrent-shootout",
            "scripted replay: users sweep x engines x cache on/off",
            concurrent_shootout(params),
        ),
        "adaptive-shootout" => (
            "adaptive-shootout",
            "scripted vs adaptive sessions: users sweep x engines x cache on/off",
            adaptive_shootout(params),
        ),
        "idebench" => (
            "idebench",
            "IDEBench-style stochastic storms: users sweep x engines",
            idebench(params),
        ),
        "perf-report" => (
            "perf-report",
            "engine latency profile: every engine sequential + duckdb-like parallel scans",
            perf_report(params),
        ),
        "chaos" => (
            "chaos",
            "fault injection under resilience: every fault kind x engines x cache on/off",
            chaos(params),
        ),
        "remote-shootout" => (
            "remote-shootout",
            "engines over the wire protocol: every engine x cache on/off, fingerprinted \
             (--addr host:port needs a running simba-server; default loopback does not)",
            remote_shootout(params),
        ),
        "delta-shootout" => (
            "delta-shootout",
            "session-delta reuse: adaptive + scripted sessions on duckdb-like, delta on/off, \
             fingerprinted (the off runs are the equivalence baseline)",
            delta_shootout(params),
        ),
        _ => return None,
    };
    Some(Scenario {
        name,
        description,
        specs,
    })
}

/// All built-in scenarios expanded under one parameter set.
pub fn all_scenarios(params: &ScenarioParams) -> Vec<Scenario> {
    SCENARIO_NAMES
        .iter()
        .map(|name| scenario(name, params).expect("registry names are exhaustive"))
        .collect()
}

fn smoke(params: &ScenarioParams) -> Vec<ScenarioSpec> {
    let users = params.first_users();
    let mut specs = Vec::new();
    for kind in EngineKind::ALL {
        for source in [
            SourceSpec::scripted(),
            SourceSpec::adaptive(),
            SourceSpec::idebench(),
        ] {
            let mut spec = params.base("smoke", users);
            spec.engine = EngineSpec::new(kind);
            spec.source = source;
            spec.cache = Some(CacheConfig::default());
            // Smoke doubles as a cheap determinism canary: fingerprints on.
            spec.collect_fingerprints = true;
            specs.push(spec);
        }
    }
    specs
}

fn concurrent_shootout(params: &ScenarioParams) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &users in &params.users {
        for kind in EngineKind::ALL {
            for cache_on in [false, true] {
                let mut spec = params.base("concurrent-shootout", users);
                spec.engine = EngineSpec::new(kind);
                spec.source = SourceSpec::scripted();
                spec.cache = cache_on.then(CacheConfig::default);
                specs.push(spec);
            }
        }
    }
    specs
}

fn adaptive_shootout(params: &ScenarioParams) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &users in &params.users {
        for kind in EngineKind::ALL {
            for cache_on in [false, true] {
                for source in [SourceSpec::scripted(), SourceSpec::adaptive()] {
                    let mut spec = params.base("adaptive-shootout", users);
                    spec.engine = EngineSpec::new(kind);
                    spec.source = source;
                    spec.cache = cache_on.then(CacheConfig::default);
                    specs.push(spec);
                }
            }
        }
    }
    specs
}

fn idebench(params: &ScenarioParams) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &users in &params.users {
        for kind in EngineKind::ALL {
            let mut spec = params.base("idebench", users);
            spec.engine = EngineSpec::new(kind);
            spec.source = SourceSpec::idebench();
            specs.push(spec);
        }
    }
    specs
}

fn perf_report(params: &ScenarioParams) -> Vec<ScenarioSpec> {
    // Latency profile: one user, no cache, no pacing — the driver's p50/p99
    // are then pure engine service time. Every engine sequential, plus
    // duckdb-like with morsel-parallel scans (0 = one thread per core).
    let mut specs = Vec::new();
    for kind in EngineKind::ALL {
        let mut spec = params.base("perf-report", 1);
        spec.engine = EngineSpec::new(kind);
        spec.source = SourceSpec::scripted();
        spec.think = ThinkTime::None;
        specs.push(spec);
    }
    let mut parallel = params.base("perf-report", 1);
    parallel.engine = EngineSpec::local(EngineKind::DuckDbLike.name(), 0);
    parallel.source = SourceSpec::scripted();
    parallel.think = ThinkTime::None;
    specs.push(parallel);
    specs
}

fn chaos(params: &ScenarioParams) -> Vec<ScenarioSpec> {
    let users = params.first_users();
    // Fault timeline seed is decoupled from the workload seed so the same
    // walks can be rerun under a different fault schedule by varying only
    // `--seed` — and vice versa.
    let fault_seed = params.seed.wrapping_add(0xC4A0_5EED);
    let retrying = ResiliencePolicy {
        deadline_ms: 0,
        max_retries: 4,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
    };

    let mut specs = Vec::new();
    // Mixed-fault sweep: transient errors, latency spikes, and rare panics
    // on every engine, cache on and off. No permanent faults, and a retry
    // budget deep enough that sessions almost always recover.
    for kind in EngineKind::ALL {
        for cache_on in [false, true] {
            let mut spec = params.base("chaos", users);
            spec.engine = EngineSpec::new(kind);
            spec.source = SourceSpec::adaptive();
            spec.cache = cache_on.then(CacheConfig::default);
            spec.collect_fingerprints = true;
            spec.fault = Some(FaultConfig {
                seed: fault_seed,
                latency_spike_prob: 0.05,
                latency_spike_ms: 2,
                transient_error_prob: 0.15,
                permanent_error_prob: 0.0,
                panic_prob: 0.03,
            });
            spec.resilience = Some(retrying.clone());
            specs.push(spec);
        }
    }

    // Deadline pressure: spikes longer than the per-attempt deadline force
    // timeouts; retries re-roll the spike draw, so most queries recover on
    // a fast attempt.
    let mut timeout = params.base("chaos", users);
    timeout.engine = EngineSpec::new(EngineKind::DuckDbLike);
    timeout.source = SourceSpec::scripted();
    timeout.fault = Some(FaultConfig {
        seed: fault_seed,
        latency_spike_prob: 0.3,
        latency_spike_ms: 50,
        ..FaultConfig::default()
    });
    timeout.resilience = Some(ResiliencePolicy {
        deadline_ms: 10,
        ..retrying.clone()
    });
    specs.push(timeout);

    // Permanent-error storm: every execution fails permanently, so the run
    // ends with every session degraded. This is the worst case the
    // degraded-run report exists for.
    let mut storm = params.base("chaos", users);
    storm.engine = EngineSpec::new(EngineKind::SqliteLike);
    storm.source = SourceSpec::scripted();
    storm.fault = Some(FaultConfig {
        seed: fault_seed,
        permanent_error_prob: 1.0,
        ..FaultConfig::default()
    });
    storm.resilience = Some(ResiliencePolicy {
        deadline_ms: 0,
        max_retries: 1,
        backoff_base_ms: 1,
        backoff_cap_ms: 2,
    });
    specs.push(storm);

    specs
}

fn remote_shootout(params: &ScenarioParams) -> Vec<ScenarioSpec> {
    // The acceptance bar for the server split: the same walks, through the
    // wire protocol, must fingerprint byte-identically to in-process runs.
    // Fingerprints stay on for every spec so `--addr host:port` against a
    // live server can be diffed directly against the `smoke`/shootout
    // baselines; the default loopback address runs the full protocol
    // in-process and needs no external server.
    let users = params.first_users();
    let mut specs = Vec::new();
    for kind in EngineKind::ALL {
        for cache_on in [false, true] {
            let mut spec = params.base("remote-shootout", users);
            spec.engine = EngineSpec::remote(params.addr.clone(), EngineSpec::new(kind));
            spec.source = SourceSpec::scripted();
            spec.cache = cache_on.then(CacheConfig::default);
            spec.collect_fingerprints = true;
            specs.push(spec);
        }
    }
    specs
}

fn delta_shootout(params: &ScenarioParams) -> Vec<ScenarioSpec> {
    // Session-delta effectiveness: the same walks with delta off (baseline)
    // and on, across the session modes whose steps chain refinements.
    // duckdb-like only — it is the engine that opts in to delta execution;
    // fingerprints stay on so on/off runs can be diffed byte-for-byte.
    let users = params.first_users();
    let mut specs = Vec::new();
    for source in [SourceSpec::scripted(), SourceSpec::adaptive()] {
        for delta_on in [false, true] {
            let mut spec = params.base("delta-shootout", users);
            spec.engine = EngineSpec::new(EngineKind::DuckDbLike);
            spec.source = source.clone();
            spec.delta = delta_on;
            spec.collect_fingerprints = true;
            specs.push(spec);
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_scenario_expands_and_validates() {
        let params = ScenarioParams {
            rows: 500,
            users: vec![2, 3],
            steps: 3,
            ..Default::default()
        };
        for name in SCENARIO_NAMES {
            let sc = scenario(name, &params).expect(name);
            assert_eq!(sc.name, name);
            assert!(!sc.specs.is_empty(), "{name} expanded to nothing");
            for spec in &sc.specs {
                spec.validate()
                    .unwrap_or_else(|e| panic!("{name}: invalid spec: {e}"));
                assert_eq!(spec.name, name);
            }
        }
        assert!(scenario("no-such-scenario", &params).is_none());
        assert_eq!(all_scenarios(&params).len(), SCENARIO_NAMES.len());
    }

    #[test]
    fn shootout_suites_cover_engines_and_cache_states() {
        let params = ScenarioParams {
            users: vec![2],
            ..Default::default()
        };
        let sc = scenario("adaptive-shootout", &params).unwrap();
        // 1 user count x 4 engines x 2 cache states x 2 modes.
        assert_eq!(sc.specs.len(), 16);
        assert!(sc.specs.iter().any(|s| s.cache.is_some()));
        assert!(sc.specs.iter().any(|s| s.cache.is_none()));
        let engines: std::collections::HashSet<&str> =
            sc.specs.iter().map(|s| s.engine.kind_name()).collect();
        assert_eq!(engines.len(), 4);
    }

    #[test]
    fn smoke_is_case_insensitive_and_fingerprinted() {
        let params = ScenarioParams::default();
        let sc = scenario("SMOKE", &params).unwrap();
        assert_eq!(sc.specs.len(), 12, "4 engines x 3 session modes");
        assert!(sc.specs.iter().all(|s| s.collect_fingerprints));
    }

    #[test]
    fn chaos_covers_every_fault_kind_and_cache_state() {
        let sc = scenario("chaos", &ScenarioParams::default()).unwrap();
        let specs = &sc.specs;
        // 4 engines x 2 cache states + timeout spec + permanent-error storm.
        assert_eq!(specs.len(), 10);
        assert!(specs.iter().all(|s| s.fault.is_some()));
        assert!(specs.iter().all(|s| s.resilience.is_some()));
        assert!(specs.iter().any(|s| s.cache.is_some()));
        assert!(specs.iter().any(|s| s.cache.is_none()));
        let faults: Vec<&FaultConfig> = specs.iter().filter_map(|s| s.fault.as_ref()).collect();
        assert!(faults.iter().any(|f| f.transient_error_prob > 0.0));
        assert!(faults.iter().any(|f| f.permanent_error_prob > 0.0));
        assert!(faults.iter().any(|f| f.latency_spike_prob > 0.0));
        assert!(faults.iter().any(|f| f.panic_prob > 0.0));
        // At least one spec forces timeouts (deadline under spike length)
        // and one fails every execution permanently.
        assert!(specs.iter().any(|s| {
            let (Some(f), Some(r)) = (&s.fault, &s.resilience) else {
                return false;
            };
            r.deadline_ms > 0 && f.latency_spike_ms > r.deadline_ms
        }));
        assert!(faults.iter().any(|f| f.permanent_error_prob >= 1.0));
    }

    #[test]
    fn remote_shootout_defaults_to_loopback() {
        let sc = scenario("remote-shootout", &ScenarioParams::default()).unwrap();
        // 4 engines x 2 cache states, all over the wire, all fingerprinted.
        assert_eq!(sc.specs.len(), 8);
        assert!(sc.specs.iter().all(|s| s.engine.is_remote()));
        assert!(sc.specs.iter().all(|s| !s.engine.needs_external_server()));
        assert!(sc.specs.iter().all(|s| s.collect_fingerprints));

        let params = ScenarioParams {
            addr: "10.1.2.3:4640".into(),
            ..Default::default()
        };
        let sc = scenario("remote-shootout", &params).unwrap();
        assert!(sc
            .specs
            .iter()
            .all(|s| s.engine.addr() == Some("10.1.2.3:4640")));
        assert!(sc.specs.iter().all(|s| s.engine.needs_external_server()));
    }

    #[test]
    fn delta_shootout_pairs_on_and_off_runs() {
        let sc = scenario("delta-shootout", &ScenarioParams::default()).unwrap();
        // 2 session modes x delta on/off, all duckdb-like, all fingerprinted.
        assert_eq!(sc.specs.len(), 4);
        assert!(sc
            .specs
            .iter()
            .all(|s| s.engine.kind_name() == "duckdb-like"));
        assert!(sc.specs.iter().all(|s| s.collect_fingerprints));
        assert_eq!(sc.specs.iter().filter(|s| s.delta).count(), 2);
        assert_eq!(sc.specs.iter().filter(|s| !s.delta).count(), 2);
    }

    #[test]
    fn perf_report_includes_parallel_scans() {
        let sc = scenario("perf-report", &ScenarioParams::default()).unwrap();
        assert_eq!(sc.specs.len(), 5);
        assert!(sc
            .specs
            .iter()
            .any(|s| s.engine.kind_name() == "duckdb-like" && s.engine.scan_threads() != 1));
        assert!(sc.specs.iter().all(|s| s.sessions == 1));
    }
}
