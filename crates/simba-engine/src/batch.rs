//! Batch-at-a-time execution: selection vectors, columnar filter kernels,
//! and the morsel-driven scan, which reads no row when the plan's filter
//! cannot match and aggregates through the one [`GroupTable`].
//!
//! The row-at-a-time interpreter ([`crate::exec::run_row`]) pays an enum
//! dispatch and a `Value` allocation per row per expression. The batch path
//! instead evaluates each compiled filter kernel over a contiguous column
//! slice with a tight typed loop (Int / code slices at their stored width,
//! matched once per batch with [`for_width!`]), refining a
//! [`SelectionVector`] of surviving row indices, and hands each batch of
//! survivors to the group table, whose typed aggregate columns read raw
//! slices too — no `Value` boxing on the hot path.
//! Semantics are pinned to the row path: the equivalence suite requires
//! byte-identical results from both.
//!
//! Two rules keep the per-row loops short:
//!
//! - **A filter kernel has no data-dependent branch.** A row's conditions
//!   (valid, at or above `lo`, at or below `hi`, its code in the mask)
//!   combine with a non-short-circuit `&`, never `&&`, and the compaction
//!   stores every row and advances by the verdict, so a filter of any
//!   selectivity costs the same per row.
//! - **Only `COUNT`, Int `SUM`, `MIN` and `MAX` may reassociate.** Their
//!   results do not depend on the order rows are folded in, so the group
//!   table may count in lanes or fold a batch into a register. Float `SUM`
//!   and `AVG` fold in row order from the stored state (ROADMAP item 20
//!   makes them order-free).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::eval::{eval, eval_predicate, TableRow};
use crate::exec::{ExecStats, Kernel};
use crate::group::GroupTable;
use crate::plan::{PreparedQuery, QueryKind};
use simba_store::zonemap::{float_key, morsel_bounds, morsel_count, MORSEL_ROWS};
use simba_store::{for_width, ResultBuilder, Table};

/// Rows per scan batch: one morsel.
pub const MORSEL: usize = MORSEL_ROWS;

/// The set of row indices (within a morsel or a whole table) still alive
/// after the filter conjuncts applied so far.
#[derive(Debug, Default)]
pub struct SelectionVector {
    rows: Vec<u32>,
}

impl SelectionVector {
    /// Empty selection with room for `capacity` rows.
    pub fn with_capacity(capacity: usize) -> SelectionVector {
        SelectionVector {
            rows: Vec::with_capacity(capacity),
        }
    }

    /// Reset to the dense range `[start, end)`.
    pub fn fill_range(&mut self, start: usize, end: usize) {
        self.rows.clear();
        self.rows.extend(start as u32..end as u32);
    }

    /// Reset to the rows whose bits are set in `words`, the [`RowBitmap`]
    /// words of the rows from `base` (a multiple of 64) on, in ascending
    /// order — a seeded scan's candidates, a prior step's survivors rather
    /// than a dense range.
    fn fill_from_bits(&mut self, base: usize, words: &[u64]) {
        self.rows.clear();
        for (w, &word) in words.iter().enumerate() {
            let row = (base + w * 64) as u32;
            let mut bits = word;
            while bits != 0 {
                self.rows.push(row + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Set the bit of every surviving row in `words`, the bitmap words of
    /// the rows from `base` (a multiple of 64) on.
    fn set_bits(&self, base: usize, words: &mut [u64]) {
        for &row in &self.rows {
            let i = row as usize - base;
            words[i / 64] |= 1 << (i % 64);
        }
    }

    /// Surviving row indices.
    pub fn as_slice(&self) -> &[u32] {
        &self.rows
    }

    /// Number of surviving rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no row survives.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drop every row.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

/// Bitmap words per morsel: a morsel's survivors fill whole words, so each
/// morsel owns its own words and a scan range writes a disjoint slice.
const MORSEL_WORDS: usize = MORSEL / 64;
const _: () = assert!(
    MORSEL.is_multiple_of(64),
    "a morsel spans whole bitmap words"
);

/// A set of rows of one table: one bit per row in ⌈rows / 64⌉ words, row
/// `r` at bit `r % 64` of word `r / 64`, plus the number of set bits. This
/// is how session-delta execution keeps a query's survivors, at rows/8
/// bytes whatever their density; a set with no row holds no words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowBitmap {
    words: Vec<u64>,
    len: usize,
}

impl RowBitmap {
    /// Every row of a `rows`-row table.
    pub fn full(rows: usize) -> RowBitmap {
        let mut words = vec![u64::MAX; rows.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last >>= (64 - rows % 64) % 64;
        }
        RowBitmap::from_words(words, rows)
    }

    /// The set `words` holds, whose set bits number `len`.
    fn from_words(words: Vec<u64>, len: usize) -> RowBitmap {
        debug_assert_eq!(
            words.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
            len
        );
        let words = if len == 0 { Vec::new() } else { words };
        RowBitmap { words, len }
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The words of morsel `m`'s rows: none for a set with no row.
    fn morsel_words(&self, m: usize) -> &[u64] {
        let words = self.words.get(m * MORSEL_WORDS..).unwrap_or_default();
        &words[..words.len().min(MORSEL_WORDS)]
    }

    /// Bytes the words take: ⌈rows / 64⌉ × 8, or none for an empty set.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// The rows in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let row = (w * 64) as u32 + bits.trailing_zeros();
                    bits &= bits - 1;
                    row
                })
            })
        })
    }
}

/// In-place compaction of a selection vector: keep row `i` iff `$keep(i)`.
/// Written without a branch (an unconditional store and an advance by the
/// verdict), so with a `$keep` free of `&&` the typed comparison loops
/// compile to straight-line code.
macro_rules! compact {
    ($sel:expr, $keep:expr) => {{
        let rows = &mut $sel.rows;
        let mut out = 0usize;
        for k in 0..rows.len() {
            let i = rows[k] as usize;
            rows[out] = rows[k];
            out += usize::from($keep(i));
        }
        rows.truncate(out);
    }};
}

impl Kernel {
    /// Refine `sel` to the rows that pass this kernel, evaluating over
    /// contiguous column slices. Exactly equivalent to calling
    /// [`Kernel::matches`] per row (the equivalence suite enforces this),
    /// but without per-row column lookup or `Value` boxing.
    pub fn filter_batch(&self, table: &Table, sel: &mut SelectionVector) {
        match self {
            Kernel::Range {
                col,
                lo,
                hi,
                negated,
            } => {
                let c = table.column(*col);
                let valid = c.validity();
                let (lo, hi, negated) = (*lo, *hi, *negated);
                let keep = |key: i64| ((lo <= key) & (key <= hi)) != negated;
                if let Some(data) = c.int_data() {
                    for_width!(data, |lane| filter_keys(
                        |i| lane[i] as i64,
                        valid,
                        keep,
                        sel
                    ));
                } else if let Some(data) = c.float_data() {
                    filter_keys(|i| float_key(data[i]), valid, keep, sel);
                } else {
                    // Type mismatch: the row path rejects every row.
                    sel.clear();
                }
            }
            Kernel::DictIn { col, mask } => {
                let c = table.column(*col);
                match c.code_data() {
                    Some(codes) => {
                        let valid = c.validity();
                        for_width!(codes, |lane| {
                            let keep_code =
                                |i: usize| mask.get(lane[i] as usize).copied().unwrap_or(false);
                            if valid.is_empty() {
                                compact!(sel, keep_code);
                            } else {
                                compact!(sel, |i: usize| valid[i] & keep_code(i));
                            }
                        })
                    }
                    None => sel.clear(),
                }
            }
            Kernel::Generic(expr) => {
                compact!(sel, |i: usize| eval_predicate(
                    expr,
                    &TableRow { table, row: i }
                ) == Some(true));
            }
        }
    }
}

/// Keep the selected rows that are valid and whose ordered key passes
/// `keep`. `key` reads a row's key off the raw slice, a NULL row's too, so
/// validity and `keep` combine without a branch; one instance per column
/// type and stored width, so the loop stays monomorphic.
fn filter_keys(
    key: impl Fn(usize) -> i64,
    valid: &[bool],
    keep: impl Fn(i64) -> bool,
    sel: &mut SelectionVector,
) {
    if valid.is_empty() {
        compact!(sel, |i: usize| keep(key(i)));
    } else {
        compact!(sel, |i: usize| valid[i] & keep(key(i)));
    }
}

/// Reset `sel` to the rows `[start, end)` and refine it through each filter
/// kernel, as a fresh scan does each morsel; the range may be any size.
pub fn fill_filtered(
    sel: &mut SelectionVector,
    table: &Table,
    start: usize,
    end: usize,
    kernels: Option<&[Kernel]>,
) {
    sel.fill_range(start, end);
    refine(sel, table, kernels);
}

/// Refine `sel` through each filter kernel in turn, stopping once no row
/// survives.
fn refine(sel: &mut SelectionVector, table: &Table, kernels: Option<&[Kernel]>) {
    for k in kernels.unwrap_or_default() {
        if sel.is_empty() {
            break;
        }
        k.filter_batch(table, sel);
    }
}

/// Split `0..n` into at most `parts` contiguous, near-equal ranges.
fn split_ranges(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let rem = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Partial result of scanning one contiguous range of morsels: projected
/// rows, or the query's group table.
enum Partial {
    Rows(ResultBuilder),
    Groups(GroupTable),
}

/// How a scan participates in session-delta execution.
pub enum DeltaScan<'a> {
    /// No participation: the plain fresh scan.
    Off,
    /// Fresh scan that additionally captures the surviving selection of a
    /// filtered query (and, for aggregations, the merged group table) so a
    /// session delta store can seed later refinements from it.
    Capture,
    /// Scan seeded from a previously captured selection: only the seed rows
    /// are candidates, everything else is provably filtered out already.
    /// With `exact` the seeding query's WHERE is identical to this one's,
    /// so the filter kernels are not re-evaluated at all. Seeded scans
    /// capture their own (sub)selection so refinement chains compound.
    Seeded {
        /// The rows that survived the seeding query's WHERE.
        seed: &'a RowBitmap,
        /// The WHERE clauses are semantically identical, not merely implied.
        exact: bool,
    },
}

/// Upper bound on the [slots](GroupTable::slots) a captured group table
/// holds: its groups, or under a packed index's direct arm the radixes'
/// product.
/// Dashboard group-bys are low-cardinality (binned hours, categorical
/// columns), so this only drops pathological high-cardinality aggregations
/// whose captured states would rival the table itself in size. Skipping a
/// capture is always safe — the store is an optimization cache.
pub(crate) const MAX_CAPTURED_GROUPS: usize = 1 << 16;

/// Work retained from one scan for reuse by a later refinement step.
#[derive(Debug, Clone)]
pub struct DeltaCapture {
    /// Surviving rows of the whole table; `None` for a query without
    /// WHERE, whose survivors are the whole table and never seed a later
    /// scan.
    pub selection: Option<RowBitmap>,
    /// The merged group table, moved in after emitting: re-finalizable
    /// without a scan when a later query repeats the same aggregation shape
    /// (`states_key` match) over the same table snapshot.
    pub states: Option<GroupTable>,
}

/// Morsel-driven vectorized scan: selection-vector filter kernels and
/// [`GroupTable`] aggregation. The kernels are the plan's, compiled and
/// settled against the column bounds by `prepare`; the scan compiles
/// nothing. A filter whose kernels never match reads no row: every morsel
/// counts as pruned. With
/// `threads > 1` the morsels are split into contiguous chunks scanned by
/// scoped worker threads whose partial states are merged in morsel order,
/// keeping output deterministic.
///
/// `delta` is the scan's session-delta participation: none, capture the
/// surviving selection / group table for later reuse, or seed the scan
/// from a previously captured selection (see [`DeltaScan`]).
///
/// A capture sets each survivor's bit in its morsel's own words of one
/// bitmap sized to the table, so the ranges scanned in parallel write
/// disjoint slices and the bitmap needs no merge at any thread count.
///
/// Seeded scans split like fresh ones: the same ranges run the same loop,
/// each morsel's candidates read from the seed's words for it instead of
/// its row range. So a seeded scan merges the partials of the fresh scan it
/// stands for, and a Float sum adds in the same order at every thread
/// count.
pub fn run_morsels(
    plan: &PreparedQuery,
    threads: usize,
    delta: DeltaScan<'_>,
) -> (ResultBuilder, ExecStats, Option<DeltaCapture>) {
    let table = plan.table.as_ref();
    let n = table.row_count();
    let (seed, exact, capture_requested) = match delta {
        DeltaScan::Off => (None, false, false),
        DeltaScan::Capture => (None, false, true),
        DeltaScan::Seeded { seed, exact } => (Some(seed), exact, true),
    };
    assert!(
        seed.is_none_or(|seed| seed.is_empty() || seed.words.len() == n.div_ceil(64)),
        "a seed is a bitmap of the table it seeds a scan of"
    );
    // Only a filtered scan's survivors are worth a bitmap.
    let capture_rows = capture_requested && plan.filter.is_some();
    // On an exact seed the WHERE is byte-for-byte the seeding query's: the
    // seed rows *are* the survivors, so the kernels are never evaluated,
    // and a capture is a copy of the seed.
    let exact_seed = seed.filter(|_| exact);
    let kernels = plan.filter.as_deref().filter(|_| exact_seed.is_none());
    let n_morsels = morsel_count(n);
    // The plan holds a kernel that never matches alone, settled against
    // the column bounds when it was compiled: the scan only asks.
    let never = kernels.is_some_and(|ks| ks.iter().any(Kernel::never_matches));

    // The words the scan sets the captured survivors in: none when the
    // filter cannot match or the survivors are an exact seed.
    let set_words = capture_rows && !never && exact_seed.is_none();
    let mut words = vec![0u64; if set_words { n.div_ceil(64) } else { 0 }];
    let partials: Vec<(Partial, usize)> = if never {
        vec![(make_partial(plan), 0)]
    } else {
        let threads = threads.clamp(1, n_morsels.max(1));
        let _scan = simba_obs::phase!("engine.scan", "engine", "engine.phase.scan");
        // Each range takes its morsels' words off the front of the rest.
        let mut rest = words.as_mut_slice();
        let ranges = split_ranges(n_morsels, threads).into_iter().map(|range| {
            let take = rest.len().min(range.len() * MORSEL_WORDS);
            let (own, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            (range, set_words.then_some(own))
        });
        if threads <= 1 {
            ranges
                .map(|(range, words)| scan_range(plan, kernels, seed, range, words))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = ranges
                    .map(|(range, words)| {
                        scope.spawn(move || scan_range(plan, kernels, seed, range, words))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(
                        #[expect(
                            clippy::expect_used,
                            reason = "scan_range catches no panics by design — a panicking scan worker is an engine bug, and re-raising it here is the only honest outcome"
                        )]
                        |h| h.join().expect("scan worker panicked"),
                    )
                    .collect()
            })
        }
    };

    let _agg_phase = simba_obs::phase!("engine.aggregate", "engine", "engine.phase.aggregate");
    // A seeded scan examines the seed's rows, one that cannot match none.
    let mut stats = ExecStats {
        rows_scanned: if never {
            0
        } else {
            seed.map_or(n, RowBitmap::len)
        },
        morsels_pruned: if never { n_morsels } else { 0 },
        ..ExecStats::default()
    };
    if let Some(seed) = seed {
        stats.delta_hits = 1;
        stats.delta_rows_saved = n - seed.len();
    }
    let mut iter = partials.into_iter();
    #[expect(
        clippy::expect_used,
        reason = "split_ranges always yields >= 1 range, so there is always a first partial"
    )]
    let (mut merged, matched) = iter.next().expect("at least one scan range");
    stats.rows_matched = matched;
    for (partial, matched) in iter {
        stats.rows_matched += matched;
        match (&mut merged, partial) {
            (Partial::Rows(a), Partial::Rows(b)) => a.append(b),
            (Partial::Groups(a), Partial::Groups(b)) => a.merge(b),
            _ => unreachable!("scan ranges share one plan"),
        }
    }

    // A kept table emits through the same `GroupTable::emit` a replay
    // does, so a replay emits exactly what this scan did, then frees what
    // only finds a row's group, which a replay never does; an unkept one
    // frees itself as it emits.
    let (rows, states) = match (merged, &plan.kind) {
        (
            Partial::Groups(mut groups),
            QueryKind::Aggregate {
                projections,
                having,
                ..
            },
        ) => {
            stats.groups = groups.len();
            if capture_requested && groups.slots() <= MAX_CAPTURED_GROUPS {
                let rows = groups.emit(table, projections, having.as_ref());
                groups.drop_lookup();
                (rows, Some(groups))
            } else {
                (groups.into_rows(table, projections, having.as_ref()), None)
            }
        }
        (Partial::Rows(rows), _) => (rows, None),
        (Partial::Groups(_), QueryKind::Project { .. }) => {
            unreachable!("partial shape matches plan kind")
        }
    };
    let capture = capture_requested.then(|| DeltaCapture {
        selection: capture_rows.then(|| match exact_seed {
            Some(seed) => seed.clone(),
            None => RowBitmap::from_words(words, stats.rows_matched),
        }),
        states,
    });
    (rows, stats, capture)
}

/// Re-finalize a cached group table against `plan`'s projections, HAVING,
/// ORDER BY, and LIMIT without touching the table at all. Sound only when
/// the table was captured for the same table snapshot, WHERE, GROUP BY
/// and aggregate-slot layout — the caller's `states_key` match plus the
/// store's generation / snapshot-identity checks establish that; the
/// aggregate-count guard here is defense in depth. `matched` is the seeding
/// scan's surviving-row count, reported as this execution's `rows_matched`.
pub fn run_from_cache(
    plan: &PreparedQuery,
    groups: &GroupTable,
    matched: usize,
) -> Option<(ResultBuilder, ExecStats)> {
    let QueryKind::Aggregate {
        aggs,
        projections,
        having,
        ..
    } = &plan.kind
    else {
        return None;
    };
    if groups.width() != aggs.len() {
        return None;
    }
    let stats = ExecStats {
        rows_matched: matched,
        groups: groups.len(),
        delta_group_hits: 1,
        delta_rows_saved: plan.table.row_count(),
        ..ExecStats::default()
    };
    Some((
        groups.emit(&plan.table, projections, having.as_ref()),
        stats,
    ))
}

/// Empty partial state for one scan range, shaped by the plan.
fn make_partial(plan: &PreparedQuery) -> Partial {
    match &plan.kind {
        QueryKind::Project { exprs } => Partial::Rows(ResultBuilder::new(exprs.len())),
        QueryKind::Aggregate { keys, aggs, .. } => {
            Partial::Groups(GroupTable::new(keys, aggs, &plan.table))
        }
    }
}

/// Feed one filtered batch into a range's partial state.
fn update_partial(partial: &mut Partial, plan: &PreparedQuery, sel: &SelectionVector) {
    let table = plan.table.as_ref();
    match (partial, &plan.kind) {
        (Partial::Rows(rows), QueryKind::Project { exprs }) => {
            for &i in sel.as_slice() {
                let ctx = TableRow {
                    table,
                    row: i as usize,
                };
                rows.push_row(exprs.iter().map(|e| eval(e, &ctx)));
            }
        }
        (Partial::Groups(groups), _) => groups.update(table, sel.as_slice()),
        (Partial::Rows(_), QueryKind::Aggregate { .. }) => {
            unreachable!("partial shape matches plan kind")
        }
    }
}

/// Scan `morsels` into one partial state and count the rows that survive:
/// each morsel's candidates are its rows, or under a `seed` its rows in the
/// seed, refined through `kernels`. Each survivor's bit is set in `words`
/// (when capturing): the bitmap words of those morsels' rows, from the
/// range's first row on.
fn scan_range(
    plan: &PreparedQuery,
    kernels: Option<&[Kernel]>,
    seed: Option<&RowBitmap>,
    morsels: std::ops::Range<usize>,
    mut words: Option<&mut [u64]>,
) -> (Partial, usize) {
    let table = plan.table.as_ref();
    let n = table.row_count();
    let base = morsels.start * MORSEL;
    let mut sel = SelectionVector::with_capacity(MORSEL);
    let mut matched = 0usize;
    let mut partial = make_partial(plan);

    for m in morsels {
        let (start, end) = morsel_bounds(m, n);
        match seed {
            None => fill_filtered(&mut sel, table, start, end, kernels),
            Some(seed) => {
                sel.fill_from_bits(start, seed.morsel_words(m));
                refine(&mut sel, table, kernels);
            }
        }
        if sel.is_empty() {
            continue;
        }
        matched += sel.len();
        if let Some(words) = words.as_deref_mut() {
            sel.set_bits(base, words);
        }
        update_partial(&mut partial, plan, &sel);
    }
    (partial, matched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::compile_where;
    use crate::plan::prepare_row;
    use crate::test_support::{built_rows, qnx_table, sample_table, Row};
    use simba_sql::parse_select;
    use simba_store::Value;
    use std::sync::Arc;

    fn table() -> Table {
        sample_table()
    }

    /// The compiled kernels of `SELECT * FROM cs WHERE <filter>`.
    fn kernels(t: &Table, filter: &str) -> Vec<Kernel> {
        let q = parse_select(&format!("SELECT calls FROM cs WHERE {filter}")).unwrap();
        compile_where(&q.where_clause.unwrap(), t).unwrap()
    }

    #[test]
    fn range_filter_batch_matches_row_kernel() {
        let t = table();
        for filter in [
            "calls > 2",
            "calls <> 3",
            "calls BETWEEN 2 AND 5.5",
            "duration NOT BETWEEN 1 AND 20",
            "duration <= 30.0",
        ] {
            let ks = kernels(&t, filter);
            assert!(matches!(ks[..], [Kernel::Range { .. }]), "{filter}");
            let mut sel = SelectionVector::with_capacity(8);
            sel.fill_range(0, t.row_count());
            ks[0].filter_batch(&t, &mut sel);
            let expect: Vec<u32> = (0..t.row_count() as u32)
                .filter(|&i| ks[0].matches(&t, i as usize))
                .collect();
            assert_eq!(sel.as_slice(), expect.as_slice(), "{filter}");
        }
    }

    #[test]
    fn dict_filter_batch_drops_nulls() {
        let t = table();
        let kernels = compile_where(&simba_sql::Expr::in_strs("queue", vec!["A"]), &t).unwrap();
        let mut sel = SelectionVector::with_capacity(8);
        sel.fill_range(0, t.row_count());
        for k in &kernels {
            k.filter_batch(&t, &mut sel);
        }
        assert_eq!(sel.as_slice(), &[0, 2]);
    }

    #[test]
    fn generic_kernel_refines_surviving_rows_only() {
        let t = table();
        // `calls + 0 > 2` does not specialize: exercised via the interpreter.
        let ks = kernels(&t, "calls + 0 > 2");
        assert!(matches!(ks[..], [Kernel::Generic(_)]));
        let mut sel = SelectionVector::with_capacity(8);
        sel.fill_range(0, t.row_count());
        ks[0].filter_batch(&t, &mut sel);
        assert_eq!(sel.as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn zone_pruning_skips_impossible_morsels() {
        let t = table();
        let never = |filter: &str| matches!(&kernels(&t, filter)[..], [k] if k.never_matches());
        // calls ∈ [1, 7]: `calls > 100` compiles to the empty interval.
        assert!(never("calls > 100"));
        assert!(!never("calls > 3"));
        // A hole covering the column's span never matches; one inside it can.
        assert!(never("calls NOT BETWEEN 0 AND 7"));
        assert!(!never("calls NOT BETWEEN 2 AND 7"));
    }

    #[test]
    fn contradictory_filter_reads_no_row() {
        let t = Arc::new(table());
        for filter in [
            "calls BETWEEN 1 AND 3 AND calls BETWEEN 5 AND 7",
            "queue IN ('A') AND calls > 0 AND queue IN ('B')",
            "duration BETWEEN 9 AND 1",
        ] {
            let ks = kernels(&t, filter);
            assert!(
                matches!(&ks[..], [k] if k.never_matches()),
                "one kernel stands for `{filter}`"
            );
            let q = parse_select(&format!(
                "SELECT COUNT(*), MAX(calls) FROM cs WHERE {filter}"
            ))
            .unwrap();
            let plan = crate::plan::prepare(&q, t.clone()).unwrap();
            let (rows, stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
            assert_eq!(
                built_rows(rows),
                vec![vec![Value::Int(0), Value::Null]],
                "{filter}"
            );
            assert_eq!(
                (stats.rows_scanned, stats.morsels_pruned),
                (0, 1),
                "{filter}"
            );
        }
    }

    #[test]
    fn run_morsels_agrees_with_row_path_on_typed_aggregate() {
        let t = Arc::new(table());
        let q = parse_select(
            "SELECT queue, COUNT(*), SUM(calls), MIN(calls), MAX(duration), AVG(calls) \
             FROM cs WHERE calls >= 1 GROUP BY queue",
        )
        .unwrap();
        let plan = crate::plan::prepare(&q, t.clone()).unwrap();
        let (batch_rows, batch_stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
        let (row_rows, row_stats) = crate::exec::run_row(&prepare_row(&q, t).unwrap());
        let mut a = built_rows(batch_rows);
        let mut b = built_rows(row_rows);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(batch_stats.rows_matched, row_stats.rows_matched);
    }

    #[test]
    fn run_morsels_parallel_matches_sequential() {
        let t = Arc::new(table());
        let q = parse_select(
            "SELECT queue, COUNT(*), SUM(calls) FROM cs WHERE calls >= 1 GROUP BY queue",
        )
        .unwrap();
        let plan = crate::plan::prepare(&q, t).unwrap();
        let (seq, _, _) = run_morsels(&plan, 1, DeltaScan::Off);
        let (par, _, _) = run_morsels(&plan, 4, DeltaScan::Off);
        assert_eq!(built_rows(seq), built_rows(par));
    }

    #[test]
    fn global_typed_aggregate_over_empty_selection_emits_one_row() {
        let t = Arc::new(table());
        let q = parse_select("SELECT COUNT(*), SUM(calls) FROM cs WHERE calls > 999").unwrap();
        let plan = crate::plan::prepare(&q, t).unwrap();
        let (rows, stats, _) = run_morsels(&plan, 1, DeltaScan::Off);
        let rows = built_rows(rows);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Int(0));
        assert!(rows[0][1].is_null());
        assert_eq!(
            stats.morsels_pruned, 1,
            "the column's bounds rule out the only morsel"
        );
        assert_eq!(stats.rows_scanned, 0, "no row is read");
    }

    /// `plan`'s groups over `block`-row ranges, each through
    /// `fill_filtered` and one `GroupTable::update`, and the rows matched.
    fn groups_in_blocks(plan: &PreparedQuery, block: usize) -> (ResultBuilder, usize) {
        let QueryKind::Aggregate {
            keys,
            aggs,
            projections,
            having,
        } = &plan.kind
        else {
            unreachable!("an aggregate query")
        };
        let (table, n) = (plan.table.as_ref(), plan.table.row_count());
        let (mut sel, mut matched) = (SelectionVector::default(), 0);
        let mut groups = GroupTable::new(keys, aggs, table);
        for start in (0..n).step_by(block) {
            let end = n.min(start + block);
            fill_filtered(&mut sel, table, start, end, plan.filter.as_deref());
            matched += sel.len();
            groups.update(table, sel.as_slice());
        }
        let rows = groups.into_rows(table, projections, having.as_ref());
        (rows, matched)
    }

    /// The filter kernels and the group table take batches of any size:
    /// 1,024-row blocks (the last one partial) and the whole table as one
    /// batch give `run_row`'s groups, in the morsel scan's emission order,
    /// for every key index, typed and boxed columns, HAVING, and a filter
    /// that settles to nothing.
    #[test]
    fn blocks_and_one_whole_table_batch_agree_with_the_row_path() {
        let mut state = 0x0b10_c4ed_u64;
        let mut next = |k: u64| {
            state = simba_store::mix::splitmix64(state);
            state % k
        };
        let rows: Vec<Row> = (0..5_000)
            .map(|_| {
                let q = (next(10) > 0).then(|| ["A", "B", "C", "D"][next(4) as usize]);
                let n = (next(12) > 0).then(|| next(120) as i64 - 20);
                let x = (next(12) > 0).then(|| next(4_000) as f64 / 8.0 - 100.0);
                (q, n, x)
            })
            .collect();
        let t = qnx_table(&rows);
        for sql in [
            "SELECT q, COUNT(*), SUM(n), AVG(x) FROM t GROUP BY q",
            "SELECT q, BIN(n, 7), COUNT(*), MIN(x) FROM t WHERE n > 10 GROUP BY q, BIN(n, 7)",
            "SELECT BIN(n, 5), COUNT(DISTINCT q), SUM(x) FROM t WHERE q <> 'B' GROUP BY BIN(n, 5)",
            "SELECT n, SUM(x) FROM t WHERE x BETWEEN -5 AND 20 GROUP BY n HAVING COUNT(*) > 4",
            "SELECT COUNT(*), SUM(x), MIN(n) FROM t WHERE n + 0 > 50",
            "SELECT COUNT(*), MAX(n) FROM t WHERE n > 1000",
        ] {
            let query = parse_select(sql).unwrap();
            let plan = crate::plan::prepare(&query, t.clone()).unwrap();
            let (oracle, oracle_stats) =
                crate::exec::run_row(&prepare_row(&query, t.clone()).unwrap());
            let in_order = built_rows(run_morsels(&plan, 1, DeltaScan::Off).0);
            let (mut sorted, mut want) = (in_order.clone(), built_rows(oracle));
            sorted.sort();
            want.sort();
            assert_eq!(sorted, want, "`{sql}` in morsels");
            for block in [1_024, t.row_count()] {
                let (rows, matched) = groups_in_blocks(&plan, block);
                assert_eq!(built_rows(rows), in_order, "`{sql}` in {block}-row batches");
                assert_eq!(matched, oracle_stats.rows_matched, "`{sql}`");
            }
        }
    }

    #[test]
    fn split_ranges_covers_everything_without_overlap() {
        for (n, parts) in [(10, 3), (1, 4), (0, 2), (7, 7), (8, 2)] {
            let ranges = split_ranges(n, parts);
            let mut covered = 0;
            let mut expect_start = 0;
            for r in &ranges {
                assert_eq!(r.start, expect_start);
                expect_start = r.end;
                covered += r.len();
            }
            assert_eq!(covered, n, "n={n} parts={parts}");
        }
    }
}
