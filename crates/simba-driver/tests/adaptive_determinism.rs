//! The adaptive-mode acceptance property: identical seed + policy yield
//! **byte-identical** action sequences and result fingerprints —
//!
//! * across repeated runs (no hidden timing or scheduling dependence),
//! * across both engines vs. the sqlite-like oracle (steering may
//!   inspect result *content* only, which the equivalence suite pins to be
//!   identical everywhere), and
//! * with the shared result cache on vs. off (the cache, including its
//!   single-flight path, changes latencies — never results, and therefore
//!   never the walk).

use proptest::prelude::*;
use simba_core::dashboard::Dashboard;
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::{
    AdaptiveSource, AdaptiveWalkConfig, CacheConfig, Driver, DriverConfig, DriverOutcome,
};
use simba_engine::{Dbms, EngineKind};
use simba_store::Table;
use std::sync::Arc;

const SESSIONS: usize = 3;
const STEPS: usize = 5;

fn context() -> (Arc<Table>, Dashboard) {
    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(700, 23));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    (table, dashboard)
}

fn adaptive_run(
    engine: Arc<dyn Dbms>,
    dashboard: &Dashboard,
    base_seed: u64,
    cache: Option<CacheConfig>,
) -> DriverOutcome {
    Driver::new(DriverConfig {
        workers: 3,
        collect_fingerprints: true,
        cache,
        ..Default::default()
    })
    .run_source(
        engine,
        &AdaptiveSource::new(
            dashboard,
            AdaptiveWalkConfig {
                base_seed,
                steps_per_session: STEPS,
                ..Default::default()
            },
            SESSIONS,
        ),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    #[test]
    fn adaptive_sessions_are_deterministic_across_runs_engines_and_cache(
        seed in 0u64..1_000_000_000,
    ) {
        let (table, dashboard) = context();

        // The sqlite-like engine is the row-at-a-time oracle every other
        // architecture is property-tested against.
        let oracle = EngineKind::SqliteLike.build();
        oracle.register(table.clone());
        let reference = adaptive_run(oracle.clone(), &dashboard, seed, None);
        prop_assert_eq!(reference.report.errors, 0);
        prop_assert!(reference.report.queries > 0);

        // Re-running the oracle must replay byte-identically.
        let again = adaptive_run(oracle, &dashboard, seed, None);
        prop_assert_eq!(&again.actions, &reference.actions);
        prop_assert_eq!(&again.fingerprints, &reference.fingerprints);

        // Every engine, cache off AND cache on, must walk the same
        // sessions and observe the same results as the oracle.
        for kind in EngineKind::ALL {
            for cache in [None, Some(CacheConfig::default())] {
                let engine = kind.build();
                engine.register(table.clone());
                let cache_label = if cache.is_some() { "on" } else { "off" };
                let outcome = adaptive_run(engine, &dashboard, seed, cache);
                prop_assert_eq!(outcome.report.errors, 0);
                prop_assert_eq!(
                    &outcome.actions,
                    &reference.actions,
                    "{} (cache {}): action sequences diverged from the oracle",
                    kind.name(),
                    cache_label
                );
                prop_assert_eq!(
                    &outcome.fingerprints,
                    &reference.fingerprints,
                    "{} (cache {}): result fingerprints diverged from the oracle",
                    kind.name(),
                    cache_label
                );
                let steering = outcome.report.steering.expect("adaptive run reports steering");
                let ref_steering = reference.report.steering.as_ref().unwrap();
                prop_assert_eq!(steering.backtracks, ref_steering.backtracks);
                prop_assert_eq!(steering.drills, ref_steering.drills);
                prop_assert_eq!(steering.empty_results, ref_steering.empty_results);
            }
        }
    }
}
