//! Session-delta execution: reuse work across consecutive exploration steps.
//!
//! Exploration sessions step through *refinements* — each query tightens or
//! repeats the previous step's filter far more often than it starts from
//! scratch (§2 of the paper). A [`SessionDelta`] store retains, per session,
//! the surviving rows as a [`RowBitmap`] (and, for aggregations, the merged
//! [`GroupTable`]) of recent queries, each under the [`NormalizedSelect`] of
//! the query that produced it. `execute_with_delta` builds the new query's
//! form once and resolves it against the stored forms — no stored entry is
//! ever normalized again:
//!
//! 1. **Group-state reuse (tier 2):** an entry with the
//!    [`same_states`](NormalizedSelect::same_states) re-finalizes the cached
//!    [`GroupTable`] without touching the table at all — exact re-renders
//!    and ORDER BY / LIMIT variants of the same aggregation hit this tier,
//!    including the multi-key hash aggregations behind unfiltered dashboard
//!    charts.
//! 2. **Exact selection reuse:** an entry with the
//!    [`same_selection`](NormalizedSelect::same_selection) carries the
//!    precise surviving row set; the scan is seeded from it with filter
//!    kernels skipped entirely.
//! 3. **Refinement seeding (tier 1):** otherwise, the newest entry the new
//!    query provably [`refines`](NormalizedSelect::refines) — one implication
//!    check over the two forms' stored WHERE domains — seeds the scan: only
//!    the stored survivors are candidates, re-filtered through the new
//!    query's kernels (none is read when those cannot match).
//! 4. **Miss:** a fresh capturing scan, whose selection and group table
//!    are stored for the steps that follow. A table holding more than
//!    65,536 slots (its groups, or its direct slot table) is not kept.
//!
//! The same form hands the planner its aggregate-slot layout, so the slots
//! cached states are replayed into are the ones the matching form printed.
//!
//! # Invalidation contract
//!
//! Tables are immutable once registered; re-registration (including
//! [`TableAssembler`](simba_store) appends, which re-register the grown
//! table) publishes a *new* [`Table`] and bumps the catalog
//! [`generation`](crate::exec::Catalog::generation). Every entry records the
//! generation it observed plus the exact `Arc<Table>` snapshot it scanned.
//! At reuse time a generation mismatch drops entries eagerly (coarse
//! signal); entries for the queried table must *additionally* be pointer-
//! identical to the table the plan resolved — the airtight guard, immune to
//! the publish/bump race inherent in reading two atomics.
//!
//! Correctness never depends on the store's contents: every verdict feeding
//! a reuse decision is a proof (key equality over normalized queries, or
//! sound implication), and the differential suite pins delta-on execution
//! byte-identical to fresh execution.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::batch::{run_from_cache, run_morsels, DeltaScan, RowBitmap};
use crate::engines::execute_common;
use crate::error::EngineError;
use crate::exec::{Catalog, QueryOutput};
use crate::group::GroupTable;
use simba_sql::{NormalizedSelect, Select};
use simba_store::Table;
use std::collections::VecDeque;
use std::sync::Arc;

/// Work retained from one executed query for reuse by later session steps.
#[derive(Debug, Clone)]
struct DeltaEntry {
    /// Normal form of the producing query: selection and states identity,
    /// and the WHERE domains refinement checks are proved against.
    form: NormalizedSelect,
    /// Catalog generation observed when the entry was captured.
    generation: u64,
    /// The exact immutable table snapshot that was scanned; reuse against
    /// the same table name requires pointer identity with the snapshot the
    /// new plan resolved.
    snapshot: Arc<Table>,
    /// Surviving rows of the snapshot, one bit per row; `None` for an
    /// entry without a WHERE, kept only for its group states.
    selection: Option<RowBitmap>,
    /// How many rows survived the WHERE: the `rows_matched` a replay of
    /// the group states reports.
    matched: usize,
    /// The merged group table of an aggregation.
    states: Option<GroupTable>,
}

/// Store-side counters: events the per-query [`ExecStats`](crate::exec::ExecStats)
/// delta counters cannot see (hits and rows saved travel with the query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStoreStats {
    /// Queries that consulted the store and found nothing reusable.
    pub misses: u64,
    /// Entries dropped because the catalog moved underneath them
    /// (re-register or append since capture).
    pub invalidations: u64,
    /// Times the chain was reset (a failed attempt makes the session's
    /// trajectory observer-dependent, so retained work is discarded).
    pub resets: u64,
}

/// Per-session store of recently captured selections / group states.
///
/// Bounded: the oldest entry is evicted once `CAPACITY` (32) entries are
/// held, matching the observation that refinements chain off *recent*
/// steps. The store is an optimization cache only — dropping any entry is
/// always safe.
#[derive(Debug)]
pub struct SessionDelta {
    entries: VecDeque<DeltaEntry>,
    stats: DeltaStoreStats,
}

/// Entry bound of a [`SessionDelta`]: a dashboard render captures up to one
/// entry per chart (~5) and adaptive walks revisit the overview after half
/// a dozen drill steps, so the window must span several steps' worth of
/// captures for the return leg to hit tier 1/2 instead of re-scanning. 32
/// covers ~6 steps of a 5-chart dashboard without unbounded retention. Each
/// entry's selection is a [`RowBitmap`] of at most rows/8 bytes whatever
/// its density, so the selections of one session take at most 32 × rows/8
/// bytes: 4 MB at 1M rows, 40 MB at 10M.
const CAPACITY: usize = 32;

impl Default for SessionDelta {
    fn default() -> Self {
        Self {
            entries: VecDeque::with_capacity(CAPACITY),
            stats: DeltaStoreStats::default(),
        }
    }
}

impl SessionDelta {
    /// An empty store that goes on counting from `stats`: the replacement
    /// for a store lost with an abandoned attempt, whose earlier events
    /// still happened.
    pub fn continuing(stats: DeltaStoreStats) -> Self {
        Self {
            stats,
            ..Self::default()
        }
    }

    /// Store-side event counters accumulated so far.
    pub fn stats(&self) -> DeltaStoreStats {
        self.stats
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Discard every retained entry and count a chain reset. Called when an
    /// execution attempt fails: the session's subsequent queries are no
    /// longer a refinement chain the store can reason about.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.stats.resets += 1;
    }

    /// Drop entries that can never be reused against the current catalog
    /// state: any entry captured under a different generation, and any
    /// entry for the queried table whose snapshot is not pointer-identical
    /// to the table the new plan resolved. Entries for *other* tables
    /// survive only the generation check — they are unreachable by this
    /// query's lookups and will be re-validated by their own.
    fn invalidate_stale(&mut self, generation: u64, table: &Arc<Table>) {
        let before = self.entries.len();
        self.entries.retain(|e| {
            e.generation == generation
                && (!e.snapshot.name().eq_ignore_ascii_case(table.name())
                    || Arc::ptr_eq(&e.snapshot, table))
        });
        self.stats.invalidations += (before - self.entries.len()) as u64;
    }

    /// Newest entry with cached group states for exactly this aggregation
    /// shape, plus the surviving-row count its states summarize.
    fn states_for(&self, form: &NormalizedSelect) -> Option<(&GroupTable, usize)> {
        self.entries
            .iter()
            .rev()
            .filter(|e| e.form.same_states(form))
            .find_map(|e| e.states.as_ref().map(|s| (s, e.matched)))
    }

    /// Best seed for the query `form` analyzes: an entry with the same
    /// selection (kernels skippable), else the newest entry whose WHERE is
    /// provably implied by the query's. Entries without a WHERE are never
    /// seeds — their selection is the whole table, so seeding from them
    /// saves nothing over a fresh scan.
    fn seed_for(&self, form: &NormalizedSelect) -> Option<(&RowBitmap, bool)> {
        let candidates = || {
            self.entries
                .iter()
                .rev()
                .filter(|e| !e.form.filter().is_absent())
                .filter_map(|e| Some((e, e.selection.as_ref()?)))
        };
        if let Some((_, selection)) = candidates().find(|(e, _)| e.form.same_selection(form)) {
            return Some((selection, true));
        }
        candidates()
            .find(|(e, _)| form.refines(&e.form))
            .map(|(_, selection)| (selection, false))
    }

    /// Retain a freshly captured entry, replacing any previous entry with
    /// the same states identity and evicting the oldest at capacity.
    fn store(&mut self, entry: DeltaEntry) {
        self.entries.retain(|e| !e.form.same_states(&entry.form));
        while self.entries.len() >= CAPACITY {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }
}

/// Execute `query` with session-delta reuse against `delta` (see the module
/// docs for the tier order). Produces output byte-identical to a
/// [`DeltaScan::Off`] [`run_morsels`] on the same catalog — the
/// differential suite enforces this — while updating the store and the
/// per-query delta counters in [`ExecStats`](crate::exec::ExecStats).
pub(crate) fn execute_with_delta(
    catalog: &Catalog,
    scan_threads: usize,
    query: &Select,
    delta: &mut SessionDelta,
) -> Result<QueryOutput, EngineError> {
    // Read the generation *before* resolving the table: if a register races
    // us, the stamp is merely older than the snapshot and the entry dies a
    // conservative death at the next generation check.
    let generation = catalog.generation();
    let form = NormalizedSelect::from_select(query);
    let mut capture = None;
    let output = execute_common(catalog, query, Some(&form), |plan| {
        delta.invalidate_stale(generation, &plan.table);
        // Tier 2: identical aggregation shape — re-finalize cached states.
        if let Some((states, matched)) = delta.states_for(&form) {
            if let Some(replayed) = run_from_cache(plan, states, matched) {
                return replayed;
            }
        }
        // Tier 1: seed the scan from a captured selection; else a fresh
        // capturing scan.
        let scan = match delta.seed_for(&form) {
            Some((seed, exact)) => DeltaScan::Seeded { seed, exact },
            None => {
                delta.stats.misses += 1;
                DeltaScan::Capture
            }
        };
        let (rows, stats, captured) = run_morsels(plan, scan_threads, scan);
        // The entry pairs what was captured with the snapshot that was
        // scanned, never with what the name resolves to by now.
        capture = captured.map(|cap| (cap, stats.rows_matched, Arc::clone(&plan.table)));
        (rows, stats)
    })?;
    if let Some((cap, matched, snapshot)) = capture {
        // Entries without a WHERE hold no selection — the whole table is
        // useless as a seed — but their group states still serve tier 2
        // (e.g. the unfiltered step-0 dashboard re-sorted at step 1).
        if query.where_clause.is_some() || cap.states.is_some() {
            delta.store(DeltaEntry {
                form,
                generation,
                snapshot,
                selection: cap.selection,
                matched,
                states: cap.states,
            });
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::prepare;
    use simba_sql::parse_select;
    use simba_store::{ColumnDef, Schema, TableBuilder, Value};

    fn schema() -> Schema {
        Schema::new(
            "t",
            vec![
                ColumnDef::quantitative_int("a"),
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_float("v"),
            ],
        )
    }

    fn catalog() -> Catalog {
        let mut b = TableBuilder::new(schema(), 10_000);
        for i in 0..10_000i64 {
            b.push_row(vec![
                Value::Int(i % 97),
                Value::str(format!("g{}", i % 7)),
                Value::Float((i % 13) as f64 * 0.5),
            ]);
        }
        let catalog = Catalog::default();
        catalog.register(Arc::new(b.finish()));
        catalog
    }

    fn fresh(catalog: &Catalog, sql: &str) -> QueryOutput {
        let query = parse_select(sql).unwrap();
        let table = catalog.get(&query.from).unwrap();
        let plan = prepare(&query, table).unwrap();
        let (rows, stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
        let names = plan.output_names.clone();
        QueryOutput {
            result: crate::exec::finalize_rows(rows, names, &plan.order_dirs, plan.limit),
            stats,
            elapsed: std::time::Duration::ZERO,
        }
    }

    fn run(catalog: &Catalog, delta: &mut SessionDelta, sql: &str) -> QueryOutput {
        let query = parse_select(sql).unwrap();
        execute_with_delta(catalog, 1, &query, delta).unwrap()
    }

    #[test]
    fn refinement_chain_reuses_and_matches_fresh_execution() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        let q1 = "SELECT q, COUNT(*), SUM(v) FROM t WHERE a > 10 GROUP BY q ORDER BY q";
        let q2 = "SELECT q, COUNT(*), SUM(v) FROM t WHERE a > 10 AND a < 50 GROUP BY q ORDER BY q";
        let o1 = run(&catalog, &mut delta, q1);
        assert_eq!(o1.stats.delta_hits, 0, "first step is a miss");
        assert_eq!(delta.len(), 1);
        let o2 = run(&catalog, &mut delta, q2);
        assert_eq!(o2.stats.delta_hits, 1, "tightened filter seeds from step 1");
        assert!(o2.stats.delta_rows_saved > 0);
        assert_eq!(o1.result, fresh(&catalog, q1).result);
        assert_eq!(o2.result, fresh(&catalog, q2).result);
    }

    #[test]
    fn exact_requery_skips_kernels_and_order_limit_variants_hit_states() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        let base = "SELECT q, COUNT(*) FROM t WHERE a > 40 GROUP BY q";
        run(&catalog, &mut delta, base);
        // Same aggregation, different ORDER BY/LIMIT: tier-2 group states.
        let sorted =
            "SELECT q, COUNT(*) FROM t WHERE a > 40 GROUP BY q ORDER BY COUNT(*) DESC LIMIT 3";
        let o = run(&catalog, &mut delta, sorted);
        assert_eq!(o.stats.delta_group_hits, 1, "states reused outright");
        assert_eq!(o.result, fresh(&catalog, sorted).result);
        // Different projection over the same WHERE: exact selection seed.
        let reproj = "SELECT AVG(v) FROM t WHERE a > 40";
        let o = run(&catalog, &mut delta, reproj);
        assert_eq!(o.stats.delta_hits, 1);
        assert_eq!(o.result, fresh(&catalog, reproj).result);
    }

    #[test]
    fn multi_key_hash_aggregations_replay_from_cached_groups() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        // Two grouping keys force the hash-indexed group table — no typed
        // mode exists for it, so tier 2 must replay the captured table.
        let base = "SELECT q, a, COUNT(*), SUM(v) FROM t WHERE a > 20 GROUP BY q, a ORDER BY q, a";
        run(&catalog, &mut delta, base);
        // Exact re-render: replayed from the cached groups, no scan at all.
        let o = run(&catalog, &mut delta, base);
        assert_eq!(o.stats.delta_group_hits, 1, "hash groups replayed");
        assert_eq!(o.stats.rows_scanned, 0);
        assert_eq!(o.result, fresh(&catalog, base).result);
        // A LIMIT variant of the same aggregation replays too: ORDER BY and
        // LIMIT are outside the states key and re-apply at finalize.
        let limited =
            "SELECT q, a, COUNT(*), SUM(v) FROM t WHERE a > 20 GROUP BY q, a ORDER BY q, a LIMIT 5";
        let o = run(&catalog, &mut delta, limited);
        assert_eq!(o.stats.delta_group_hits, 1);
        assert_eq!(o.result, fresh(&catalog, limited).result);
        // Typed and boxed aggregate columns in one captured table replay
        // byte-identically too.
        let mixed = "SELECT q, a, COUNT(*), SUM(v), COUNT(DISTINCT v), MIN(q), SUM(a + 1) \
                     FROM t WHERE a > 30 GROUP BY q, a ORDER BY q, a";
        run(&catalog, &mut delta, mixed);
        let o = run(&catalog, &mut delta, mixed);
        assert_eq!(o.stats.delta_group_hits, 1, "mixed columns replayed");
        assert_eq!(o.stats.rows_scanned, 0);
        assert_eq!(o.result, fresh(&catalog, mixed).result);
        // Unfiltered multi-key charts are stored for their states (never as
        // a seed) and replay when the walk returns to the overview.
        let chart = "SELECT q, a, COUNT(*) FROM t GROUP BY q, a ORDER BY q, a";
        run(&catalog, &mut delta, chart);
        let o = run(&catalog, &mut delta, chart);
        assert_eq!(o.stats.delta_group_hits, 1);
        assert_eq!(o.result, fresh(&catalog, chart).result);
    }

    /// Packed tables — one of them with radixes far past the capture bound
    /// and groups well under it — are kept and replayed byte for byte, in
    /// the capturing scan's first-appearance order, so a LIMIT without
    /// ORDER BY cuts the same groups.
    #[test]
    fn packed_group_tables_replay_from_cached_groups() {
        let catalog = catalog();
        let mut b = TableBuilder::new(
            Schema::new(
                "sparse",
                vec![
                    ColumnDef::quantitative_int("a"),
                    ColumnDef::categorical("q"),
                ],
            ),
            60,
        );
        for i in 0..60i64 {
            b.push_row(vec![
                Value::Int(i * 7_919),
                Value::str(format!("g{}", i % 3)),
            ]);
        }
        catalog.register(Arc::new(b.finish()));
        let mut delta = SessionDelta::default();
        for sql in [
            // Radixes (values and NULL) 8 x 11 and 5 x 8.
            "SELECT q, BIN(a, 10), COUNT(*), SUM(v), MIN(q) FROM t WHERE a > 20 \
             GROUP BY q, BIN(a, 10)",
            "SELECT BIN(v, 2), q, COUNT(*) FROM t WHERE q <> 'g3' GROUP BY BIN(v, 2), q LIMIT 5",
            // Radixes 467,223 x 4, holding 60 groups.
            "SELECT BIN(a, 1), q, COUNT(*) FROM sparse GROUP BY BIN(a, 1), q LIMIT 7",
        ] {
            let query = parse_select(sql).unwrap();
            let table = catalog.get(&query.from).unwrap();
            let crate::plan::QueryKind::Aggregate { keys, aggs, .. } =
                prepare(&query, table.clone()).unwrap().kind
            else {
                unreachable!("a GROUP BY aggregates")
            };
            let groups = GroupTable::new(&keys, &aggs, &table);
            assert_eq!(groups.layout().0, "packed", "`{sql}`");
            let first = run(&catalog, &mut delta, sql);
            let o = run(&catalog, &mut delta, sql);
            assert_eq!(o.stats.delta_group_hits, 1, "`{sql}` replayed");
            assert_eq!(o.stats.rows_scanned, 0);
            assert_eq!(o.result, first.result);
            assert_eq!(o.result, fresh(&catalog, sql).result);
        }
    }

    /// The capture bound counts a direct-arm packed table by its slot
    /// table: a radix product of exactly 2^16 (16,384 × 4) is kept and
    /// replays at tier 2 reading no row, and a map-arm table (a product of
    /// 2^16 + 1), counted by its 60 groups, is kept and replays too.
    #[test]
    fn packed_tables_on_either_arm_are_kept_and_replayed() {
        let catalog = catalog();
        let mut b = TableBuilder::new(
            Schema::new(
                "arms",
                vec![
                    ColumnDef::quantitative_int("a"),
                    ColumnDef::quantitative_int("b"),
                    ColumnDef::categorical("q"),
                ],
            ),
            60,
        );
        for i in 0..60i64 {
            b.push_row(vec![
                Value::Int(i * 16_382 / 59),
                Value::Int(i * 65_535 / 59),
                Value::str(format!("g{}", i % 3)),
            ]);
        }
        let table = Arc::new(b.finish());
        catalog.register(table.clone());
        let mut delta = SessionDelta::default();
        for (sql, arm, slots) in [
            (
                "SELECT BIN(a, 1), q, COUNT(*) FROM arms WHERE a > 100 GROUP BY BIN(a, 1), q",
                "direct",
                1 << 16,
            ),
            (
                "SELECT BIN(b, 1), COUNT(*) FROM arms WHERE b >= 0 GROUP BY BIN(b, 1) LIMIT 9",
                "map",
                60,
            ),
        ] {
            let query = parse_select(sql).unwrap();
            let crate::plan::QueryKind::Aggregate { keys, aggs, .. } =
                prepare(&query, table.clone()).unwrap().kind
            else {
                unreachable!("a GROUP BY aggregates")
            };
            let mut groups = GroupTable::new(&keys, &aggs, &table);
            assert_eq!(groups.packed_arm(), Some(arm), "`{sql}`");
            groups.update(&table, &(0..60).collect::<Vec<u32>>());
            assert_eq!(groups.slots(), slots, "`{sql}`");
            assert!(slots <= crate::batch::MAX_CAPTURED_GROUPS);
            let first = run(&catalog, &mut delta, sql);
            let o = run(&catalog, &mut delta, sql);
            assert_eq!(o.stats.delta_group_hits, 1, "`{sql}` kept and replayed");
            assert_eq!(o.stats.rows_scanned, 0);
            assert_eq!(o.result, first.result);
            assert_eq!(o.result, fresh(&catalog, sql).result);
        }
    }

    #[test]
    fn reregister_invalidates_retained_entries() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        run(&catalog, &mut delta, "SELECT COUNT(*) FROM t WHERE a > 10");
        assert_eq!(delta.len(), 1);
        // Re-register `t` with different contents: the retained selection
        // indexes rows of a table that no longer exists.
        let mut b = TableBuilder::new(schema(), 500);
        for i in 0..500i64 {
            b.push_row(vec![Value::Int(i), Value::str("g0"), Value::Float(0.0)]);
        }
        catalog.register(Arc::new(b.finish()));
        let o = run(
            &catalog,
            &mut delta,
            "SELECT COUNT(*) FROM t WHERE a > 10 AND a < 20",
        );
        assert_eq!(o.stats.delta_hits, 0, "stale entry must not seed");
        assert_eq!(delta.stats().invalidations, 1);
        assert_eq!(
            o.result,
            fresh(&catalog, "SELECT COUNT(*) FROM t WHERE a > 10 AND a < 20").result
        );
    }

    #[test]
    fn reset_discards_the_chain() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        run(&catalog, &mut delta, "SELECT COUNT(*) FROM t WHERE a > 10");
        delta.reset();
        assert!(delta.is_empty());
        assert_eq!(delta.stats().resets, 1);
        let o = run(
            &catalog,
            &mut delta,
            "SELECT COUNT(*) FROM t WHERE a > 10 AND a < 50",
        );
        assert_eq!(o.stats.delta_hits, 0, "reset chain cannot seed");
    }

    #[test]
    fn unfiltered_queries_never_seed_but_their_states_are_reusable() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        run(&catalog, &mut delta, "SELECT q, COUNT(*) FROM t GROUP BY q");
        // Any WHERE refines the unfiltered query, but a full-table seed
        // saves nothing — the store must not offer it.
        let o = run(
            &catalog,
            &mut delta,
            "SELECT q, COUNT(*) FROM t WHERE a > 10 GROUP BY q",
        );
        assert_eq!(o.stats.delta_hits, 0);
        // The unfiltered aggregation's states still serve ORDER BY variants.
        let o = run(
            &catalog,
            &mut delta,
            "SELECT q, COUNT(*) FROM t GROUP BY q ORDER BY q LIMIT 2",
        );
        assert_eq!(o.stats.delta_group_hits, 1);
        assert_eq!(
            o.result,
            fresh(
                &catalog,
                "SELECT q, COUNT(*) FROM t GROUP BY q ORDER BY q LIMIT 2"
            )
            .result
        );
    }

    /// An unfiltered chart's entry keeps its group states and a count, not
    /// a row list of the whole table; a tier-2 replay reports the
    /// `rows_matched` of the scan it replays. A filtered chart keeps its
    /// rows.
    #[test]
    fn unfiltered_entries_keep_a_count_not_the_rows() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        let sql = "SELECT q, COUNT(*), SUM(v) FROM t GROUP BY q";
        let first = run(&catalog, &mut delta, sql);
        let entry = delta.entries.back().unwrap();
        assert!(entry.selection.is_none());
        assert_eq!(entry.matched, 10_000);
        let resorted = "SELECT q, COUNT(*), SUM(v) FROM t GROUP BY q ORDER BY q DESC";
        let replay = run(&catalog, &mut delta, resorted);
        assert_eq!(replay.stats.delta_group_hits, 1);
        assert_eq!(replay.stats.rows_matched, first.stats.rows_matched);
        let fresh = fresh(&catalog, resorted);
        assert_eq!(replay.stats.rows_matched, fresh.stats.rows_matched);
        assert_eq!(replay.result, fresh.result);

        let filtered = run(
            &catalog,
            &mut delta,
            "SELECT q, COUNT(*) FROM t WHERE a > 10 GROUP BY q",
        );
        let entry = delta.entries.back().unwrap();
        let rows = entry
            .selection
            .as_ref()
            .expect("a filtered chart keeps rows");
        assert_eq!(rows.len(), filtered.stats.rows_matched);
        assert_eq!(entry.matched, filtered.stats.rows_matched);
    }

    /// A kept selection costs ⌈rows / 64⌉ words whether one row or most of
    /// the table survived, and none when no row did; a kept group table has
    /// freed its lookup (here a direct slot table of 98 × 8 slots) and
    /// still replays.
    #[test]
    fn kept_entries_hold_a_bitmap_and_no_lookup() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        let words = 10_000usize.div_ceil(64);
        for (filter, matched, bytes) in [
            ("a = 5 AND v = 0.0", 8, words * 8),
            ("a > 10", 8_858, words * 8),
            ("a > 1000", 0, 0),
        ] {
            let o = run(
                &catalog,
                &mut delta,
                &format!("SELECT COUNT(*) FROM t WHERE {filter}"),
            );
            let selection = delta.entries.back().unwrap().selection.as_ref().unwrap();
            assert_eq!((selection.len(), o.stats.rows_matched), (matched, matched));
            assert_eq!(selection.heap_bytes(), bytes, "`{filter}`");
        }
        let sql = "SELECT BIN(a, 1), q, COUNT(*) FROM t WHERE a > 10 GROUP BY BIN(a, 1), q";
        run(&catalog, &mut delta, sql);
        let states = delta.entries.back().unwrap().states.as_ref().unwrap();
        assert_eq!(states.packed_arm(), Some("direct"));
        assert_eq!(states.slots(), 0, "the slot table is freed once kept");
        let o = run(&catalog, &mut delta, sql);
        assert_eq!(o.stats.delta_group_hits, 1);
        assert_eq!(o.result, fresh(&catalog, sql).result);
    }

    /// One capture bound for every group table: a dictionary key of more
    /// than 65,536 strings finds its groups in the packed index's map, so
    /// its table is kept when a filter leaves few groups and answered but
    /// not kept when every string is a group; a small dictionary's table
    /// is kept.
    #[test]
    fn group_tables_past_the_slot_bound_are_not_retained() {
        let n = crate::batch::MAX_CAPTURED_GROUPS + 1;
        let schema = Schema::new(
            "big",
            vec![ColumnDef::categorical("k"), ColumnDef::categorical("small")],
        );
        let mut b = TableBuilder::new(schema, n);
        for i in 0..n {
            b.push_row(vec![
                Value::str(format!("k{i}")),
                Value::str(format!("s{}", i % 3)),
            ]);
        }
        let table = Arc::new(b.finish());
        let catalog = Catalog::default();
        catalog.register(table.clone());
        let mut delta = SessionDelta::default();
        let wide = "SELECT k, COUNT(*) FROM big GROUP BY k";
        let oracle = crate::exec::execute_row_oracle(table, &parse_select(wide).unwrap()).unwrap();
        for _ in 0..2 {
            let o = run(&catalog, &mut delta, wide);
            assert_eq!(o.stats.delta_group_hits, 0, "not retained, not replayed");
            assert_eq!((o.stats.groups, o.result.n_rows()), (n, n));
            assert_eq!(o.result.sorted_rows(), oracle.result.sorted_rows());
        }
        assert!(delta.is_empty());
        let filtered = "SELECT k, COUNT(*) FROM big WHERE small IN ('s1') GROUP BY k";
        run(&catalog, &mut delta, filtered);
        let o = run(&catalog, &mut delta, filtered);
        assert_eq!(o.stats.delta_group_hits, 1, "a third of the strings kept");
        assert_eq!(o.stats.groups, n.div_ceil(3));
        assert_eq!(o.result, fresh(&catalog, filtered).result);
        let small = "SELECT small, COUNT(*) FROM big GROUP BY small";
        run(&catalog, &mut delta, small);
        let o = run(&catalog, &mut delta, small);
        assert_eq!(o.stats.delta_group_hits, 1, "small dictionary retained");
        assert_eq!(o.result, fresh(&catalog, small).result);
    }

    #[test]
    fn store_is_bounded() {
        let catalog = catalog();
        let mut delta = SessionDelta::default();
        for lo in 0..CAPACITY + 3 {
            run(
                &catalog,
                &mut delta,
                &format!("SELECT COUNT(*) FROM t WHERE a > {lo}"),
            );
        }
        assert_eq!(delta.len(), CAPACITY, "oldest entries evicted at capacity");
    }
}
