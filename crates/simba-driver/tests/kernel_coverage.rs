//! Kernel-coverage inventory: which filter kernels the three session
//! sources' queries compile to.
//!
//! The typed kernels are only worth having if the workloads reach them. This
//! drives each source through the driver against an engine that records every
//! query it is asked, compiles each recorded WHERE with the engine's filter
//! compiler, and counts kernels by kind. The IDEBench storm — the workload
//! that stacks filters — must compile to no `Kernel::Generic` at all: a
//! `BETWEEN` falling back to the row interpreter fails here, not just in a
//! benchmark. `cargo test -p simba-driver --test kernel_coverage --
//! --nocapture` prints the table.

use simba_core::dashboard::Dashboard;
use simba_core::session::batch::{synthesize_scripts, BatchConfig};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::{
    AdaptiveSource, AdaptiveWalkConfig, Driver, DriverConfig, ScriptedSource, SessionSource,
};
use simba_engine::exec::{cexpr_conjuncts, compile_kernels, Kernel};
use simba_engine::plan::compile_row_expr;
use simba_engine::{Dbms, EngineError, EngineKind, QueryOutput};
use simba_idebench::IdebenchSource;
use simba_sql::Select;
use simba_store::Table;
use std::sync::{Arc, Mutex};

const ROWS: usize = 2_000;
const SEED: u64 = 7;
const SESSIONS: usize = 4;
const STEPS: usize = 20;

/// Forwards to a real engine (adaptive walks steer by results) and keeps
/// every query it was asked.
struct Recording {
    inner: Arc<dyn Dbms>,
    seen: Mutex<Vec<Select>>,
}

impl Dbms for Recording {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn register(&self, table: Arc<Table>) {
        self.inner.register(table);
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        self.seen.lock().unwrap().push(query.clone());
        self.inner.execute(query)
    }
}

#[derive(Debug, Default)]
struct Inventory {
    queries: usize,
    conjuncts: usize,
    range: usize,
    dict_in: usize,
    generic: usize,
    /// Queries whose filter compiles to one kernel that never matches.
    contradictory: usize,
}

impl Inventory {
    fn kernels(&self) -> usize {
        self.range + self.dict_in + self.generic
    }
}

fn inventory(table: &Arc<Table>, source: &dyn SessionSource) -> Inventory {
    let engine = Arc::new(Recording {
        inner: EngineKind::DuckDbLike.build(),
        seen: Mutex::new(Vec::new()),
    });
    engine.register(table.clone());
    let config = DriverConfig {
        workers: 1,
        seed: SEED,
        ..Default::default()
    };
    let outcome = Driver::new(config).run_source(engine.clone(), source);
    assert_eq!(outcome.report.errors, 0);

    let mut inv = Inventory::default();
    for query in engine.seen.lock().unwrap().iter() {
        inv.queries += 1;
        let Some(filter) = &query.where_clause else {
            continue;
        };
        let filter = compile_row_expr(filter, table.schema()).unwrap();
        let kernels = compile_kernels(&filter, table);
        inv.conjuncts += cexpr_conjuncts(&filter).len();
        inv.contradictory += usize::from(kernels.iter().any(Kernel::never_matches));
        for kernel in &kernels {
            match kernel {
                Kernel::Range { .. } => inv.range += 1,
                Kernel::DictIn { .. } => inv.dict_in += 1,
                Kernel::Generic(_) => inv.generic += 1,
            }
        }
    }
    inv
}

#[test]
fn idebench_storm_compiles_to_typed_kernels_only() {
    let ds = DashboardDataset::CustomerService;
    let table = Arc::new(ds.generate_rows(ROWS, SEED));
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let scripts = synthesize_scripts(
        &dashboard,
        &BatchConfig {
            base_seed: SEED,
            steps_per_session: STEPS,
            ..Default::default()
        },
        SESSIONS,
    );
    let adaptive = AdaptiveSource::new(
        &dashboard,
        AdaptiveWalkConfig {
            base_seed: SEED,
            steps_per_session: STEPS,
            ..Default::default()
        },
        SESSIONS,
    );
    let sources: [(&str, Box<dyn SessionSource + '_>); 3] = [
        (
            "idebench",
            Box::new(IdebenchSource::new(table.clone(), SEED, SESSIONS, STEPS)),
        ),
        ("adaptive", Box::new(adaptive)),
        ("scripted", Box::new(ScriptedSource::new(scripts))),
    ];

    println!(
        "{:<9} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>13}",
        "source", "queries", "conjuncts", "kernels", "Range", "DictIn", "Generic", "contradictory"
    );
    for (name, source) in &sources {
        let inv = inventory(&table, source.as_ref());
        println!(
            "{name:<9} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>13}",
            inv.queries,
            inv.conjuncts,
            inv.kernels(),
            inv.range,
            inv.dict_in,
            inv.generic,
            inv.contradictory
        );
        assert!(inv.queries > 0 && inv.conjuncts > 0, "{name}: {inv:?}");
        assert!(inv.kernels() <= inv.conjuncts, "{name}: {inv:?}");
        if *name == "idebench" {
            assert_eq!(inv.generic, 0, "a storm filter left the typed set: {inv:?}");
            assert!(inv.range > 0 && inv.dict_in > 0, "{inv:?}");
            // Storms stack several filters per column; the combiner folds
            // them, and some of the stacks contradict themselves.
            assert!(inv.kernels() < inv.conjuncts, "{inv:?}");
            assert!(inv.contradictory > 0, "{inv:?}");
        }
    }
}
