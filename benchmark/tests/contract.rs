//! The benchmark against its own contract, at unit-test size (2K rows,
//! 2 sessions × 4 steps; × 100 steps where a gated p95 is taken): names,
//! determinism, transparency of the probes.

use simba_benchmark::check::{twins_agree, Golden};
use simba_benchmark::report::Contract;
use simba_benchmark::run::{run, Options, RunResult};
use simba_benchmark::workloads::{Workload, DEFAULT_SEED, TWIN_SESSIONS, WORKLOADS};
use simba_benchmark::DEFAULT_SECONDS;
use simba_driver::Driver;
use std::sync::OnceLock;

struct Runs {
    /// The workload as the traced runs ran it.
    workload: Workload,
    end_to_end: RunResult,
    /// Two traced runs of the same inputs.
    per_layer: [RunResult; 2],
}

/// Every workload run once untraced and twice traced. Shared by all tests
/// and built by whichever gets there first: runs in one process must not
/// overlap, because the engine phase sums live in a process-wide registry.
fn runs() -> &'static [Runs] {
    static RUNS: OnceLock<Vec<Runs>> = OnceLock::new();
    RUNS.get_or_init(|| {
        WORKLOADS
            .iter()
            .map(|w| {
                let go = |steps, trace| {
                    run(&Options {
                        workload: w.tiny(steps),
                        seed: DEFAULT_SEED,
                        seconds: 0.0,
                        trace,
                    })
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name))
                };
                Runs {
                    workload: w.tiny(4),
                    end_to_end: go(100, false),
                    per_layer: [go(4, true), go(4, true)],
                }
            })
            .collect()
    })
}

fn contract() -> Contract {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is at the repository root");
    Contract::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_and_the_code_name_the_same_things() {
    let contract = contract();
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(contract.workloads, names);
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    for w in &WORKLOADS {
        assert!(
            text.contains(w.why),
            "BENCHMARK.json lacks the why of {}",
            w.name
        );
        assert!(w.why.len() <= 200 && !w.why.contains('\n'));
    }
    assert!(text.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS:.0}")));
    let setup = contract.end_to_end.iter().find(|m| m.name == "setup_s");
    let widest = contract
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(setup.and_then(|m| m.bound), Some(widest));
}

#[test]
fn every_declared_metric_is_emitted_exactly_once_per_workload() {
    let contract = contract();
    let legal = |name: &str| {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for r in runs() {
        for (declared, result) in [
            (&contract.end_to_end, &r.end_to_end),
            (&contract.per_layer, &r.per_layer[0]),
        ] {
            let emitted: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
            let wanted: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            let mut sorted = (emitted.clone(), wanted.clone());
            sorted.0.sort_unstable();
            sorted.1.sort_unstable();
            assert_eq!(sorted.0, sorted.1, "{}", r.workload.name);
            for d in declared.iter() {
                assert!(legal(&d.name), "{}", d.name);
                let m = result.metric(&d.name).unwrap();
                assert_eq!(m.unit, d.unit, "{}", d.name);
                assert!(m.value.is_finite(), "{} {}", r.workload.name, d.name);
            }
        }
        for m in &r.end_to_end.metrics {
            assert!(
                m.value > 0.0,
                "{} {} must never be 0",
                r.workload.name,
                m.name
            );
        }
        // The wire layer runs in the wire workload and nowhere else.
        for m in &r.per_layer[0].metrics {
            if m.name.starts_with("simba-server.") {
                assert_eq!(m.n > 0, r.workload.remote, "{} {}", r.workload.name, m.name);
            }
        }
    }
}

#[test]
fn the_gate_is_green_and_two_runs_repeat_exactly() {
    for r in runs() {
        let [a, b] = &r.per_layer;
        for result in [&r.end_to_end, a, b] {
            assert!(
                result.correct(),
                "{}: {:?}",
                r.workload.name,
                result.verdict.problems
            );
            assert!(result.verdict.oracle_checked > 0);
            assert!(result.attempted > 0 && result.failed == 0);
        }
        assert_eq!(a.verdict.digest, b.verdict.digest, "{}", r.workload.name);
        assert_eq!(a.counts, b.counts, "{}", r.workload.name);
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            if ma.unit == "count" {
                assert_eq!(ma, mb, "{}", r.workload.name);
            }
        }
        assert!(!a.spans.is_empty());
    }
}

#[test]
fn a_round_is_driver_execute_of_the_spec() {
    // The wrappers are transparent: same queries, same results, as the
    // one-call entry point the round re-assembles.
    for r in runs() {
        let mut spec = r.workload.spec(DEFAULT_SEED);
        spec.collect_fingerprints = true;
        let outcome = Driver::execute(&spec).expect("the spec executes");
        assert_eq!(
            outcome.report.fingerprint_digest,
            Some(r.per_layer[0].verdict.digest),
            "{}",
            r.workload.name
        );
        assert_eq!(outcome.report.queries, r.per_layer[0].counts.queries);
    }
}

#[test]
fn the_engine_wrapper_forwards_delta_execution() {
    // The trait's default `execute_delta` declines silently; a wrapper
    // that forgot to forward it would report zero delta hits.
    let reuse = runs().iter().find(|r| r.workload.reuse).unwrap();
    assert!(reuse.per_layer[0].counts.delta_hits > 0);
    assert!(reuse.per_layer[0].counts.cache_hits > 0);
    for r in runs().iter().filter(|r| !r.workload.reuse) {
        let c = &r.per_layer[0].counts;
        assert_eq!((c.delta_hits, c.cache_hits), (0, 0), "{}", r.workload.name);
        assert_eq!(c.engine_calls, c.queries, "{}", r.workload.name);
    }
}

#[test]
fn the_dashboard_twins_share_their_prefix_digest() {
    let prefix = |name: &str| {
        let r = runs().iter().find(|r| r.workload.name == name).unwrap();
        assert!(r.workload.sessions <= TWIN_SESSIONS);
        r.per_layer[0].verdict.prefix_digest
    };
    assert_eq!(prefix("dash_scan_250k"), prefix("dash_reuse_250k"));
    let golden = Golden::pinned().expect("golden.json parses");
    assert_eq!(golden.seed, DEFAULT_SEED);
    assert_eq!(golden.entries.len(), WORKLOADS.len());
    twins_agree(&golden).expect("the pinned twins agree");
}
