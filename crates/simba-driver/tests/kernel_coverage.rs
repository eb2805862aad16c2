//! Kernel-coverage inventory: which filter kernels and which grouping shapes
//! the four session sources' queries compile to.
//!
//! The typed kernels are only worth having if the workloads reach them. This
//! drives each source through the driver against an engine that records every
//! query it is asked, plans each recorded query as the engine does, and
//! counts the plan's kernels by kind and its WHERE's conjuncts. The IDEBench storm — the workload
//! that stacks filters — must compile to no `Kernel::Generic` at all: a
//! `BETWEEN` falling back to the row interpreter fails here, not just in a
//! benchmark. Each aggregate is classified the way the engines' one group
//! table builds it: by key index — global, packed (dictionary and `BIN`
//! keys in one integer) or hash (anything else, the key boxed) — and by
//! aggregate column, typed or boxed, with its
//! key count. The IDEBench storm must leave no aggregate on the hash index,
//! and every hash-indexed aggregate of the other sources must have a bare
//! Int key: the one shape packing does not reach yet. Packed aggregates
//! are split by where a row finds its group — the direct slot table (a
//! radix product of at most 2^16) or the map — with the groups each call
//! emits: the storm must reach both arms and no other source either, which
//! is why the `dash_*` and `wire_*` workloads cannot move with them. Each
//! Float literal compared with an Int column is counted by how the filter
//! compiler places it among the column's keys: in closed form (finite and
//! below 2^53 in magnitude) or by bisection (the rest); the storm must
//! reach the closed form. Each scan that reads a row is counted by the
//! aggregate arm it reaches: a table of one group, which folds each batch
//! into a local, and a `COUNT(*)` over at most `LANE_GROUPS` groups, which
//! counts in lanes, against more. The adaptive walks must reach the
//! one-group arm (their KPI tiles are global aggregates) and the storm the
//! lanes (its `COUNT(*)`s are all grouped). `cargo test -p simba-driver
//! --test kernel_coverage -- --nocapture` prints the five tables.

use simba_core::dashboard::Dashboard;
use simba_core::session::batch::{synthesize_scripts, BatchConfig};
use simba_core::session::workflows::Workflow;
use simba_core::session::{GoalSource, SessionConfig};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_driver::{
    AdaptiveSource, AdaptiveWalkConfig, Driver, DriverConfig, ScriptedSource, SessionSource,
};
use simba_engine::batch::run_morsels;
use simba_engine::exec::Kernel;
use simba_engine::group::{GroupTable, LANE_GROUPS};
use simba_engine::plan::{prepare, QueryKind};
use simba_engine::{Dbms, DeltaScan, EngineError, EngineKind, QueryOutput};
use simba_idebench::IdebenchSource;
use simba_sql::{Expr, Func, Literal, Select};
use simba_store::{ColumnData, Table};
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
    /// Float literals compared with an Int column: placed in closed form,
    /// placed by bisection.
    int_float: [usize; 2],
    /// Aggregates without GROUP BY: the global key index.
    global: usize,
    /// Dictionary and `BIN` keys only: the packed key index.
    packed: usize,
    /// Everything else grouped: the hash key index.
    hash: usize,
    /// Groups per call of the packed aggregates whose rows find their
    /// group in the direct slot table, and of those probing the map.
    direct: Vec<usize>,
    map: Vec<usize>,
    /// Hash-indexed aggregates with a bare Int key.
    hash_int_key: usize,
    /// Hash-indexed aggregates whose aggregate columns are all typed.
    hash_typed: usize,
    /// Aggregate columns: typed, boxed.
    columns: [usize; 2],
    /// Aggregates by GROUP BY key count: 0, 1, 2, 3 or more.
    keys: [usize; 4],
    /// Aggregates whose scan read a row into a table of one group.
    one_group: usize,
    /// `COUNT(*)` aggregates whose scan read a row, by the groups they
    /// emit: one, at most `LANE_GROUPS`, more.
    count_star: [usize; 3],
}

impl Inventory {
    fn kernels(&self) -> usize {
        self.range + self.dict_in + self.generic
    }

    fn aggregates(&self) -> usize {
        self.global + self.packed + self.hash
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
        let plan = prepare(query, table.clone()).unwrap();
        if let QueryKind::Aggregate { keys, aggs, .. } = &plan.kind {
            inv.keys[keys.len().min(3)] += 1;
            let groups = GroupTable::new(keys, aggs, table);
            let (index, typed) = groups.layout();
            let (_, stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
            match groups.packed_arm() {
                Some("direct") => inv.direct.push(stats.groups),
                Some(_) => inv.map.push(stats.groups),
                None => {}
            }
            if stats.rows_matched > 0 {
                inv.one_group += usize::from(stats.groups == 1);
                let count_star = aggs
                    .iter()
                    .any(|a| a.func == Func::Count && a.arg.is_none() && !a.distinct);
                if count_star {
                    let arm = match stats.groups {
                        1 => 0,
                        g if g <= LANE_GROUPS => 1,
                        _ => 2,
                    };
                    inv.count_star[arm] += 1;
                }
            }
            inv.columns[0] += typed;
            inv.columns[1] += aggs.len() - typed;
            let int_key = keys.iter().any(|k| {
                k.as_col()
                    .is_some_and(|c| matches!(table.column(c), ColumnData::Int { .. }))
            });
            match index {
                "global" => inv.global += 1,
                "packed" => inv.packed += 1,
                _ => {
                    inv.hash += 1;
                    inv.hash_int_key += usize::from(int_key);
                    inv.hash_typed += usize::from(typed == aggs.len());
                }
            }
        }
        let Some(filter) = &query.where_clause else {
            continue;
        };
        let kernels = plan.filter.as_deref().unwrap_or_default();
        let conjuncts = filter.conjuncts();
        inv.conjuncts += conjuncts.len();
        for conjunct in conjuncts {
            for f in int_column_float_literals(conjunct, table) {
                inv.int_float[usize::from(f.abs() >= 2f64.powi(53) || f.is_nan())] += 1;
            }
        }
        inv.contradictory += usize::from(kernels.iter().any(Kernel::never_matches));
        for kernel in kernels {
            match kernel {
                Kernel::Range { .. } => inv.range += 1,
                Kernel::DictIn { .. } => inv.dict_in += 1,
                Kernel::Generic(_) => inv.generic += 1,
            }
        }
    }
    inv
}

/// The Float literals `conjunct` compares with an Int column, in the shapes
/// the filter compiler types: `col <op> lit` and `col BETWEEN lit AND lit`.
fn int_column_float_literals(conjunct: &Expr, table: &Table) -> Vec<f64> {
    let (col, bounds) = match conjunct {
        Expr::Binary { left, op, right } if op.is_comparison() => (left, vec![right.as_ref()]),
        Expr::Between {
            expr, low, high, ..
        } => (expr, vec![low.as_ref(), high.as_ref()]),
        _ => return Vec::new(),
    };
    let int_column = match col.as_ref() {
        Expr::Column(name) => table
            .schema()
            .index_of(name)
            .is_some_and(|c| matches!(table.column(c), ColumnData::Int { .. })),
        _ => false,
    };
    if !int_column || !bounds.iter().all(|b| matches!(b, Expr::Literal(_))) {
        return Vec::new();
    }
    bounds
        .into_iter()
        .filter_map(|b| match b {
            Expr::Literal(Literal::Float(f)) => Some(*f),
            _ => None,
        })
        .collect()
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
    // The paper's own sessions: one workflow's goals, planned on an engine
    // of their own so the Oracle's look-ahead stays out of the inventory.
    let planning = EngineKind::DuckDbLike.build();
    planning.register(table.clone());
    let goals = Workflow::Shneiderman.goals_for(&dashboard).unwrap();
    let config = SessionConfig {
        seed: SEED,
        max_steps: STEPS,
        ..Default::default()
    };
    let goal = GoalSource::new(&dashboard, planning.as_ref(), &goals, config, SESSIONS).unwrap();
    let sources: [(&str, Box<dyn SessionSource + '_>); 4] = [
        (
            "idebench",
            Box::new(IdebenchSource::new(table.clone(), SEED, SESSIONS, STEPS)),
        ),
        ("adaptive", Box::new(adaptive)),
        ("scripted", Box::new(ScriptedSource::new(scripts))),
        ("goal", Box::new(goal)),
    ];

    println!(
        "{:<9} {:>7} {:>9} {:>7} {:>7} {:>7} {:>7} {:>13}",
        "source", "queries", "conjuncts", "kernels", "Range", "DictIn", "Generic", "contradictory"
    );
    let inventories: Vec<(&str, Inventory)> = sources
        .iter()
        .map(|(name, source)| (*name, inventory(&table, source.as_ref())))
        .collect();
    for (name, inv) in &inventories {
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

    println!(
        "\n{:<9} {:>10} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6} {:>12} {:>10} {:>10}",
        "source",
        "aggregates",
        "global",
        "packed",
        "hash",
        "typed",
        "boxed",
        "1-key",
        "2-key",
        "3+-key",
        "packed share",
        "hash share",
        "hash typed"
    );
    for (name, inv) in &inventories {
        println!(
            "{name:<9} {:>10} {:>6} {:>6} {:>5} {:>5} {:>5} {:>5} {:>6} {:>6} {:>12.3} {:>10.3} {:>10.3}",
            inv.aggregates(),
            inv.global,
            inv.packed,
            inv.hash,
            inv.columns[0],
            inv.columns[1],
            inv.keys[1],
            inv.keys[2],
            inv.keys[3],
            inv.packed as f64 / inv.queries as f64,
            inv.hash as f64 / inv.queries as f64,
            inv.hash_typed as f64 / inv.hash.max(1) as f64,
        );
        if *name == "idebench" {
            // Storms bin every numeric axis and pair categorical ones: all
            // of their multi-key and binned GROUP BYs pack.
            assert!(inv.packed > 0, "{inv:?}");
            assert_eq!(
                inv.hash, 0,
                "a storm GROUP BY left the packed index: {inv:?}"
            );
        } else {
            // What is left on the hash index is the deferred bare-Int arm.
            assert_eq!(
                inv.hash_int_key, inv.hash,
                "{name}: a hash-indexed GROUP BY without a bare Int key: {inv:?}"
            );
        }
        if matches!(*name, "adaptive" | "goal") {
            assert!(inv.hash > 0, "{name} never reaches the hash table: {inv:?}");
        }
    }

    println!(
        "\n{:<9} {:>6} {:>6} {:>7} {:>10} {:>10} {:>6} {:>7} {:>10} {:>10}",
        "source",
        "packed",
        "direct",
        "reading",
        "p50 groups",
        "max groups",
        "map",
        "reading",
        "p50 groups",
        "max groups"
    );
    for (name, inv) in &inventories {
        let (direct, map) = (groups_per_call(&inv.direct), groups_per_call(&inv.map));
        println!(
            "{name:<9} {:>6} {:>6} {:>7} {:>10} {:>10} {:>6} {:>7} {:>10} {:>10}",
            inv.packed,
            inv.direct.len(),
            direct.0,
            direct.1,
            direct.2,
            inv.map.len(),
            map.0,
            map.1,
            map.2,
        );
        assert_eq!(
            inv.direct.len() + inv.map.len(),
            inv.packed,
            "{name}: {inv:?}"
        );
        if *name == "idebench" {
            // Binned single keys and pairs of dictionaries fit the direct
            // table; a fine date bin across two dictionaries does not.
            assert!(!inv.direct.is_empty() && !inv.map.is_empty(), "{inv:?}");
        } else {
            assert_eq!(inv.packed, 0, "{name} reached a packed arm: {inv:?}");
        }
    }

    println!(
        "\n{:<9} {:>7} {:>16} {:>16} {:>14} {:>19}",
        "source",
        "queries",
        "Int~Float closed",
        "Int~Float bisect",
        "closed / query",
        "contradictory share"
    );
    for (name, inv) in &inventories {
        println!(
            "{name:<9} {:>7} {:>16} {:>16} {:>14.3} {:>19.3}",
            inv.queries,
            inv.int_float[0],
            inv.int_float[1],
            inv.int_float[0] as f64 / inv.queries as f64,
            inv.contradictory as f64 / inv.queries as f64,
        );
        if *name == "idebench" {
            // Storm ranges are Float bounds whatever the column's type.
            assert!(inv.int_float[0] > 0, "{inv:?}");
        }
    }

    print_aggregate_arms(&inventories);
}

/// The aggregate arms each source's scans reach: one group, and
/// `COUNT(*)` by the groups it counts into.
fn print_aggregate_arms(inventories: &[(&str, Inventory)]) {
    println!(
        "\n{:<9} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
        "source",
        "aggregates",
        "one-group",
        "COUNT(*)",
        "1 group",
        format!("<= {LANE_GROUPS}"),
        format!("> {LANE_GROUPS}")
    );
    for (name, inv) in inventories {
        println!(
            "{name:<9} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8}",
            inv.aggregates(),
            inv.one_group,
            inv.count_star.iter().sum::<usize>(),
            inv.count_star[0],
            inv.count_star[1],
            inv.count_star[2],
        );
        match *name {
            // The KPI tiles: global aggregates over the walk's filters.
            "adaptive" => assert!(inv.one_group > 0, "{name}: {inv:?}"),
            // Every storm chart counts its rows per group.
            "idebench" => assert!(inv.count_star[1] > 0, "{name}: {inv:?}"),
            _ => {}
        }
    }
}

/// Of the calls that emit a group (a contradictory filter reads no row):
/// how many there are, and the median and largest groups per call.
fn groups_per_call(calls: &[usize]) -> (usize, usize, usize) {
    let mut reading: Vec<usize> = calls.iter().copied().filter(|&g| g > 0).collect();
    reading.sort_unstable();
    let p50 = reading.get(reading.len() / 2).copied().unwrap_or(0);
    (reading.len(), p50, reading.last().copied().unwrap_or(0))
}
