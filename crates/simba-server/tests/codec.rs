//! Properties of the payload codec (`proto` documents the layouts):
//!
//! * encode → decode is the identity, bit for bit, for every request and
//!   response over generated results and tables;
//! * decoding is total — arbitrary bytes, truncations and mutations of valid
//!   payloads never panic, fail only with `WireError::Protocol`, and never
//!   allocate more than a small constant times the payload's length;
//! * a malformed or out-of-order table block is a `BadRequest` that leaves
//!   no upload pending and the server usable.

use proptest::prelude::*;
use simba_engine::{EngineError, EngineKind, ExecStats};
use simba_server::proto::{
    EngineSel, FrameKind, ServerStatsSnapshot, TableBlock, CHUNK_ROWS, MAX_PAYLOAD,
};
use simba_server::{Frame, Request, Response, ServerCore, WireError};
use simba_sql::parse_select;
use simba_store::mix::splitmix64;
use simba_store::{
    ColumnData, ColumnDef, ColumnRole, DataType, ResultSet, Schema, Table, TableBuilder, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Bytes requested from the allocator by the current thread, so tests that
// run in parallel do not see each other.

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: the caller's obligations are `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread requested while `f` ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (ALLOCATED.with(Cell::get) - before, out)
}

/// What a decoded message may cost per payload byte. The worst honest case
/// is a one-column result of NULLs: one tag byte on the wire becomes a
/// 24-byte `Value` inside a 24-byte `Vec` header.
const ALLOC_FACTOR: usize = 64;
/// Room for an error message and the outermost containers.
const ALLOC_SLACK: usize = 1024;

// ---------------------------------------------------------------------
// Generators, driven by one seed each.

struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const STRINGS: &[&str] = &[
    "",
    "rep_03",
    "a",
    "naïve",
    "日本語",
    "tab\tquote\"",
    "\u{0}",
    "Ω",
];

const INTS: &[i64] = &[
    i64::MIN,
    i64::MIN + 1,
    -(1 << 31) - 1,
    -(1 << 31),
    -(1 << 15) - 1,
    -(1 << 15),
    -129,
    -128,
    -1,
    0,
    1,
    127,
    128,
    (1 << 15) - 1,
    1 << 15,
    (1 << 31) - 1,
    1 << 31,
    1 << 53,
    i64::MAX,
];

const FLOAT_BITS: &[u64] = &[
    0x0000_0000_0000_0000, // 0.0
    0x8000_0000_0000_0000, // -0.0
    0x7FF0_0000_0000_0000, // inf
    0xFFF0_0000_0000_0000, // -inf
    0x7FF8_0000_0000_0000, // the canonical NaN
    0x7FF8_0000_0000_BEEF, // a NaN with a payload
    0xFFF0_0000_0000_0001, // a negative signalling NaN
    0x0000_0000_0000_0001, // the smallest subnormal
    0x4008_0000_0000_0000, // 3.0, which must not come back as Int(3)
];

fn draw_value(d: &mut Draw) -> Value {
    match d.below(9) {
        0 => Value::Null,
        1 => Value::Bool(d.below(2) == 1),
        2 => Value::Int(INTS[d.below(INTS.len())]),
        3 => Value::Int(d.next() as i64),
        4 => Value::Float(f64::from_bits(FLOAT_BITS[d.below(FLOAT_BITS.len())])),
        5 => Value::Float(f64::from_bits(d.next())),
        6 | 7 => Value::str(STRINGS[d.below(STRINGS.len())]),
        _ => Value::str(format!("s{}", d.below(1000))),
    }
}

/// A value of column kind `kind`: any value (0), or NULL a quarter of the
/// time and otherwise an Int (1), a Float (2), a Bool (3), a string (4) or
/// an Int or a Float (5).
fn draw_cell(d: &mut Draw, kind: usize) -> Value {
    if kind == 0 {
        return draw_value(d);
    }
    if d.below(4) == 0 {
        return Value::Null;
    }
    loop {
        let v = draw_value(d);
        let fits = match &v {
            Value::Int(_) => kind == 1 || kind == 5,
            Value::Float(_) => kind == 2 || kind == 5,
            Value::Bool(_) => kind == 3,
            Value::Str(_) => kind == 4,
            Value::Null => false,
        };
        if fits {
            return v;
        }
    }
}

/// Column names and rows: each column holds any mix of value types or one
/// type with NULLs (see [`draw_cell`]); no columns means no rows.
fn draw_rows(seed: u64, width: usize, rows: usize) -> (Vec<String>, Vec<Vec<Value>>) {
    let mut d = Draw(seed);
    let rows = if width == 0 { 0 } else { rows };
    let columns = (0..width)
        .map(|c| format!("{}{c}", STRINGS[d.below(STRINGS.len())]))
        .collect();
    let kinds: Vec<usize> = (0..width).map(|_| d.below(6)).collect();
    let rows = (0..rows)
        .map(|_| kinds.iter().map(|&k| draw_cell(&mut d, k)).collect())
        .collect();
    (columns, rows)
}

fn draw_result(seed: u64, width: usize, rows: usize) -> ResultSet {
    let (columns, rows) = draw_rows(seed, width, rows);
    ResultSet::new(columns, rows)
}

const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Bool,
];

/// A table of every column type; each column is NULL-free, NULL-bearing or
/// all NULL.
fn draw_table(seed: u64, width: usize, rows: usize) -> Table {
    let mut d = Draw(seed);
    let defs: Vec<ColumnDef> = (0..width)
        .map(|c| {
            let role = [
                ColumnRole::Categorical,
                ColumnRole::Quantitative,
                ColumnRole::Temporal,
            ][d.below(3)];
            ColumnDef::new(format!("c{c}"), TYPES[d.below(4)], role)
        })
        .collect();
    let null_every: Vec<usize> = (0..width).map(|_| [0, 1, 3][d.below(3)]).collect();
    let mut b = TableBuilder::new(Schema::new("t", defs.clone()), rows);
    for i in 0..rows {
        b.push_row(
            defs.iter()
                .zip(&null_every)
                .map(|(def, &every)| {
                    if every != 0 && i % every == 0 {
                        return Value::Null;
                    }
                    match def.data_type {
                        DataType::Int => Value::Int(if d.below(4) == 0 {
                            INTS[d.below(INTS.len())]
                        } else {
                            d.next() as i64
                        }),
                        DataType::Float => Value::Float(f64::from_bits(if d.below(2) == 0 {
                            FLOAT_BITS[d.below(FLOAT_BITS.len())]
                        } else {
                            d.next()
                        })),
                        DataType::Str => Value::str(STRINGS[d.below(STRINGS.len())]),
                        DataType::Bool => Value::Bool(d.below(2) == 1),
                    }
                })
                .collect(),
        );
    }
    b.finish()
}

fn sel(kind: &str) -> EngineSel {
    EngineSel {
        kind: kind.to_string(),
        scan_threads: 1,
    }
}

// ---------------------------------------------------------------------
// (a) Round trips.

fn strict_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn assert_same_result(got: &ResultSet, want: &ResultSet) {
    assert_eq!(got.columns(), want.columns());
    assert_eq!(got.n_rows(), want.n_rows());
    for (g, w) in got.rows().zip(want.rows()) {
        let (g, w) = (g.to_vec(), w.to_vec());
        assert_eq!(g.len(), w.len());
        assert!(
            g.iter().zip(&w).all(|(a, b)| strict_eq(a, b)),
            "{g:?} != {w:?}"
        );
    }
}

fn round_trip_request(req: &Request) -> Request {
    Frame::request(1, req)
        .expect("encodes")
        .parse_request()
        .expect("decodes")
}

fn round_trip_response(resp: &Response) -> Response {
    Frame::response(1, resp)
        .expect("encodes")
        .parse_response()
        .expect("decodes")
}

fn result_response(result: ResultSet, seed: u64) -> Response {
    let mut d = Draw(seed);
    Response::Result {
        result,
        stats: ExecStats {
            rows_scanned: d.next() as usize,
            rows_matched: d.below(1000),
            groups: d.below(100),
            morsels_pruned: d.below(50),
            delta_hits: d.below(2),
            delta_group_hits: d.below(2),
            delta_rows_saved: d.next() as usize,
        },
        elapsed_ns: d.next(),
    }
}

fn assert_result_round_trips(result: ResultSet, seed: u64) {
    let sent = result_response(result, seed);
    let got = round_trip_response(&sent);
    match (&got, &sent) {
        (
            Response::Result {
                result: r,
                stats: s,
                elapsed_ns: e,
            },
            Response::Result {
                result,
                stats,
                elapsed_ns,
            },
        ) => {
            assert_same_result(r, result);
            assert_eq!((s, e), (stats, elapsed_ns));
        }
        _ => panic!("a result came back as {got:?}"),
    }
}

fn assert_table_round_trips(table: &Table) {
    let blocks: Vec<TableBlock> = TableBlock::split(table).collect();
    assert_eq!(
        blocks.len(),
        table.row_count().div_ceil(CHUNK_ROWS).max(1),
        "one block per {CHUNK_ROWS} rows"
    );
    let mut first_row = 0;
    for block in blocks {
        assert_eq!(block.first_row(), first_row);
        assert_eq!(block.total_rows(), table.row_count() as u64);
        first_row += block.rows() as u64;
        let sent = Request::RegisterTable {
            engine: sel("duckdb-like"),
            block,
        };
        // `TableBlock`'s equality is bitwise.
        assert_eq!(round_trip_request(&sent), sent);
    }
    assert_eq!(first_row, table.row_count() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn results_round_trip_bit_for_bit(
        seed in any::<u64>(),
        width in 0usize..6,
        rows in 0usize..40,
    ) {
        assert_result_round_trips(draw_result(seed, width, rows), seed);
    }

    #[test]
    fn tables_round_trip_bit_for_bit_and_answer_like_the_original(
        seed in any::<u64>(),
        width in 1usize..7,
        rows in 0usize..300,
    ) {
        let table = draw_table(seed, width, rows);
        assert_table_round_trips(&table);

        // What the server assembles from the blocks is the table: every
        // cell, read back through an engine over the wire types.
        let core = ServerCore::new();
        for block in TableBlock::split(&table) {
            let resp = core.handle(Request::RegisterTable { engine: sel("sqlite-like"), block });
            prop_assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
        }
        let names: Vec<String> =
            table.schema().columns.iter().map(|c| c.name.clone()).collect();
        let sql = format!("SELECT {} FROM t", names.join(", "));
        let local = EngineKind::SqliteLike.build();
        local.register(Arc::new(table));
        let want = local.execute(&parse_select(&sql).expect("parses")).expect("executes").result;
        match round_trip_response(&core.handle(Request::Execute { engine: sel("sqlite-like"), sql })) {
            Response::Result { result, .. } => assert_same_result(&result, &want),
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn control_messages_round_trip(
        seed in any::<u64>(),
        text in proptest::sample::select(STRINGS),
        threads in 0usize..9,
    ) {
        let mut d = Draw(seed);
        let engine = EngineSel { kind: format!("{text}-like"), scan_threads: threads };
        let requests = [
            Request::Execute { engine, sql: text.to_string() },
            Request::Stats,
            Request::Shutdown,
        ];
        for sent in &requests {
            prop_assert_eq!(&round_trip_request(sent), sent);
        }
        let message = || text.to_string();
        let responses = [
            Response::Registered { rows: d.next() },
            Response::EngineFailure { error: EngineError::UnknownTable(message()) },
            Response::EngineFailure {
                error: EngineError::UnknownColumn { table: message(), column: "c".into() },
            },
            Response::EngineFailure { error: EngineError::Unsupported(message()) },
            Response::EngineFailure { error: EngineError::Invalid(message()) },
            Response::EngineFailure { error: EngineError::Transient(message()) },
            Response::EngineFailure { error: EngineError::Internal(message()) },
            Response::Stats {
                stats: ServerStatsSnapshot {
                    connections: d.next(),
                    active_connections: d.next(),
                    requests: d.next(),
                    executes: d.next(),
                    registers: d.next(),
                    engine_errors: d.next(),
                    protocol_errors: d.next(),
                },
            },
            Response::ShuttingDown,
            Response::BadRequest { message: message() },
        ];
        for sent in &responses {
            prop_assert_eq!(&round_trip_response(sent), sent);
        }
    }
}

/// A result section as the row-major encoder wrote it before results were
/// stored as columns: `put_result` must write exactly these bytes.
fn row_major_result_bytes(columns: &[String], rows: &[Vec<Value>]) -> Vec<u8> {
    let mut head = Raw::default().u32(columns.len() as u32);
    for name in columns {
        head = head.str(name);
    }
    let mut table: Vec<&str> = Vec::new();
    let mut values = Raw::default();
    for row in rows {
        for v in row {
            values = match v {
                Value::Null => values.u8(0),
                Value::Bool(false) => values.u8(1),
                Value::Bool(true) => values.u8(2),
                Value::Int(x) => {
                    if let Ok(v) = i8::try_from(*x) {
                        values.u8(3).bytes(&v.to_le_bytes())
                    } else if let Ok(v) = i16::try_from(*x) {
                        values.u8(4).bytes(&v.to_le_bytes())
                    } else if let Ok(v) = i32::try_from(*x) {
                        values.u8(5).bytes(&v.to_le_bytes())
                    } else {
                        values.u8(6).bytes(&x.to_le_bytes())
                    }
                }
                Value::Float(x) => values.u8(7).u64(x.to_bits()),
                Value::Str(s) => {
                    let at = match table.iter().position(|t| *t == &**s) {
                        Some(at) => at,
                        None => {
                            table.push(s);
                            table.len() - 1
                        }
                    };
                    values.u8(8).u32(at as u32)
                }
            };
        }
    }
    head = head.u32(table.len() as u32);
    for s in table {
        head = head.str(s);
    }
    head.u32(rows.len() as u32).bytes(&values.0).0
}

#[test]
fn result_bytes_equal_the_row_major_encoders() {
    let payload = |result: ResultSet, seed| {
        Frame::response(1, &result_response(result, seed))
            .expect("encodes")
            .payload
    };
    for seed in 0..1024u64 {
        let (width, rows) = ((seed % 6) as usize, (seed / 6 % 48) as usize);
        let (columns, rows) = draw_rows(seed, width, rows);
        let want = row_major_result_bytes(&columns, &rows);
        let got = payload(ResultSet::new(columns, rows), seed);
        // A response tag, the result section, then the statistics and the
        // elapsed time, which an empty result is followed by too.
        let tail = payload(ResultSet::empty(vec![]), seed)[1 + 12..].to_vec();
        assert_eq!(got[0], 1, "seed {seed}: a result response");
        assert_eq!(&got[1..got.len() - tail.len()], &want[..], "seed {seed}");
        assert_eq!(&got[got.len() - tail.len()..], &tail[..], "seed {seed}");
    }
}

#[test]
fn edge_results_round_trip() {
    // No rows; no columns; one column that changes type on every row.
    assert_result_round_trips(ResultSet::empty(vec!["a".into(), "b".into()]), 1);
    assert_result_round_trips(ResultSet::empty(vec![]), 2);
    let mixed = ResultSet::new(
        vec!["m".into()],
        vec![
            vec![Value::Int(3)],
            vec![Value::Float(3.0)],
            vec![Value::str("3")],
            vec![Value::Bool(true)],
            vec![Value::Null],
            vec![Value::Float(f64::from_bits(0x7FF8_0000_0000_BEEF))],
            vec![Value::Float(-0.0)],
            vec![Value::Int(i64::MIN)],
            vec![Value::Int(i64::MAX)],
        ],
    );
    assert_result_round_trips(mixed, 3);

    // Rows of no columns have no encoding.
    let broken = ResultSet::new(vec![], vec![vec![], vec![]]);
    let refused = Frame::response(1, &result_response(broken, 4));
    assert!(
        matches!(refused, Err(WireError::Protocol(_))),
        "{refused:?}"
    );
}

/// One Int column of `rows` rows: cheap to build at block-boundary sizes.
fn counter_table(rows: usize) -> Table {
    let schema = Schema::new("counter", vec![ColumnDef::quantitative_int("n")]);
    let column = ColumnData::Int {
        data: (0..rows as i64).collect(),
        valid: Vec::new(),
    };
    Table::from_columns(schema, vec![column])
}

#[test]
fn tables_at_the_block_boundary_round_trip_and_register() {
    for rows in [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1] {
        let table = counter_table(rows);
        assert_table_round_trips(&table);
        let core = ServerCore::new();
        let mut last = None;
        for block in TableBlock::split(&table) {
            last = Some(core.handle(Request::RegisterTable {
                engine: sel("duckdb-like"),
                block,
            }));
        }
        assert_eq!(last, Some(Response::Registered { rows: rows as u64 }));
        let counted = core.handle(Request::Execute {
            engine: sel("duckdb-like"),
            sql: "SELECT COUNT(*) AS c, MAX(n) AS m FROM counter".into(),
        });
        let top = if rows == 0 {
            Value::Null
        } else {
            Value::Int(rows as i64 - 1)
        };
        match counted {
            Response::Result { result, .. } => {
                assert_eq!(
                    result.sorted_rows(),
                    vec![vec![Value::Int(rows as i64), top]]
                )
            }
            other => panic!("expected a result, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// (b) Totality.

fn frame_of(kind: FrameKind, payload: Vec<u8>) -> Frame {
    Frame::new(kind, 0, payload).expect("under the frame limit")
}

/// Both parsers on `payload`: neither panics, a failure is a protocol error,
/// and neither asks the allocator for more than the payload justifies.
fn assert_total(payload: &[u8]) -> (bool, bool) {
    let budget = ALLOC_FACTOR * payload.len() + ALLOC_SLACK;
    let frame = frame_of(FrameKind::Request, payload.to_vec());
    let (bytes, request) = allocated_by(|| frame.parse_request());
    assert!(
        bytes <= budget,
        "parse_request allocated {bytes} for {}",
        payload.len()
    );
    assert!(matches!(request, Ok(_) | Err(WireError::Protocol(_))));
    let (bytes, response) = allocated_by(|| frame.parse_response());
    assert!(
        bytes <= budget,
        "parse_response allocated {bytes} for {}",
        payload.len()
    );
    assert!(matches!(response, Ok(_) | Err(WireError::Protocol(_))));
    (request.is_ok(), response.is_ok())
}

/// A few valid payloads of each direction, small enough to mutate at every
/// byte.
fn sample_payloads(seed: u64) -> Vec<(FrameKind, Vec<u8>)> {
    let table = draw_table(seed, 5, 40);
    let block = TableBlock::split(&table).next().expect("one block");
    let requests = [
        Request::RegisterTable {
            engine: sel("duckdb-like"),
            block,
        },
        Request::Execute {
            engine: sel("sqlite-like"),
            sql: "SELECT q, COUNT(*) FROM t GROUP BY q".into(),
        },
        Request::Stats,
    ];
    let responses = [
        result_response(draw_result(seed, 4, 12), seed),
        Response::EngineFailure {
            error: EngineError::UnknownColumn {
                table: "t".into(),
                column: "nope".into(),
            },
        },
        Response::Registered { rows: 9 },
    ];
    let mut out = Vec::new();
    for r in &requests {
        out.push((
            FrameKind::Request,
            Frame::request(0, r).expect("encodes").payload,
        ));
    }
    for r in &responses {
        out.push((
            FrameKind::Response,
            Frame::response(0, r).expect("encodes").payload,
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic_or_over_allocate(
        noise in proptest::collection::vec(any::<u8>(), 0..400),
        tag in 0u8..8,
    ) {
        assert_total(&noise);
        // The same noise behind each message tag, so every decoder arm is
        // entered and not only the unknown-tag exit.
        let mut tagged = vec![tag];
        tagged.extend_from_slice(&noise);
        assert_total(&tagged);
    }

    #[test]
    fn counts_that_promise_more_than_the_payload_holds_are_refused_unallocated(
        tag in 0u8..6,
        count in any::<u32>(),
    ) {
        // A tag, then a 4 GiB-scale count where a length or element count
        // is read first, then nothing: the count alone must not reserve.
        let mut payload = vec![tag];
        for _ in 0..6 {
            payload.extend_from_slice(&(count | 0x4000_0000).to_le_bytes());
        }
        assert_total(&payload);
    }

    #[test]
    fn truncations_and_mutations_of_valid_payloads_stay_total(seed in any::<u64>()) {
        let mut d = Draw(seed);
        for (kind, payload) in sample_payloads(seed) {
            // A strict prefix of a valid payload is never valid.
            for cut in 0..payload.len() {
                let (as_request, as_response) = assert_total(&payload[..cut]);
                match kind {
                    FrameKind::Request => prop_assert!(!as_request, "prefix {cut} parsed"),
                    FrameKind::Response => prop_assert!(!as_response, "prefix {cut} parsed"),
                }
            }
            // Every byte, replaced by a value that differs from it.
            let mut mutated = payload.clone();
            for at in 0..payload.len() {
                let flip = 1 + d.below(255) as u8;
                mutated[at] = payload[at].wrapping_add(flip);
                assert_total(&mutated);
                mutated[at] = payload[at];
            }
            // Extra bytes after a whole message are refused too.
            mutated.push(0);
            let (as_request, as_response) = assert_total(&mutated);
            prop_assert!(!as_request && !as_response);
        }
    }
}

// ---------------------------------------------------------------------
// (c) Bad blocks.

/// The documented layout, written by hand so a block that `TableBlock::new`
/// would refuse can still be put on the wire.
#[derive(Default)]
struct Raw(Vec<u8>);

impl Raw {
    fn u8(mut self, v: u8) -> Raw {
        self.0.push(v);
        self
    }
    fn u32(mut self, v: u32) -> Raw {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn u64(mut self, v: u64) -> Raw {
        self.0.extend_from_slice(&v.to_le_bytes());
        self
    }
    fn bytes(mut self, v: &[u8]) -> Raw {
        self.0.extend_from_slice(v);
        self
    }
    fn str(self, s: &str) -> Raw {
        let mut raw = self.u32(s.len() as u32);
        raw.0.extend_from_slice(s.as_bytes());
        raw
    }
}

/// A `RegisterTable` payload for table `two(q Str, n Int)`.
struct RawBlock {
    total_rows: u64,
    first_row: u64,
    rows: u32,
    q_tag: u8,
    dict: Vec<&'static str>,
    codes: Vec<u32>,
    n_tag: u8,
    ints: Vec<i64>,
}

impl RawBlock {
    /// Rows `CHUNK_ROWS..CHUNK_ROWS + 2` of a table one block and two rows
    /// long: the well-formed second block of `two_block_table`.
    fn tail() -> RawBlock {
        RawBlock {
            total_rows: CHUNK_ROWS as u64 + 2,
            first_row: CHUNK_ROWS as u64,
            rows: 2,
            q_tag: 2,
            dict: vec!["x", "y"],
            codes: vec![0, 1],
            n_tag: 0,
            ints: vec![7, 8],
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut raw = Raw::default()
            .u8(0)
            .str("duckdb-like")
            .u64(1)
            .str("two")
            .u32(2)
            .str("q")
            .u8(2)
            .u8(0)
            .str("n")
            .u8(0)
            .u8(1)
            .u64(self.total_rows)
            .u64(self.first_row)
            .u32(self.rows)
            .u8(self.q_tag)
            .u8(0)
            .u32(self.dict.len() as u32);
        for entry in &self.dict {
            raw = raw.str(entry);
        }
        for &code in &self.codes {
            raw = raw.u32(code);
        }
        raw = raw.u8(self.n_tag).u8(0);
        for &v in &self.ints {
            raw = raw.u64(v as u64);
        }
        raw.0
    }
}

fn two_block_table() -> Table {
    let rows = CHUNK_ROWS + 2;
    let schema = Schema::new(
        "two",
        vec![
            ColumnDef::categorical("q"),
            ColumnDef::quantitative_int("n"),
        ],
    );
    let q = ColumnData::Str {
        dict: vec!["x".into(), "y".into()],
        codes: (0..rows as u32).map(|i| i % 2).collect(),
        valid: Vec::new(),
    };
    let n = ColumnData::Int {
        data: (0..rows as i64).collect(),
        valid: Vec::new(),
    };
    Table::from_columns(schema, vec![q, n])
}

fn serve(core: &ServerCore, payload: Vec<u8>) -> Response {
    core.handle_frame(frame_of(FrameKind::Request, payload))
        .parse_response()
        .expect("the server always answers in protocol")
}

fn serve_block(core: &ServerCore, block: TableBlock) -> Response {
    let request = Request::RegisterTable {
        engine: sel("duckdb-like"),
        block,
    };
    serve(core, Frame::request(0, &request).expect("encodes").payload)
}

#[test]
fn bad_blocks_are_bad_requests_that_leave_nothing_pending() {
    let table = two_block_table();
    let blocks: Vec<TableBlock> = TableBlock::split(&table).collect();
    assert_eq!(blocks.len(), 2);
    let (head, tail) = (&blocks[0], &blocks[1]);

    // The hand-written layout is the real one: the baseline is accepted.
    let core = ServerCore::new();
    assert_eq!(
        serve_block(&core, head.clone()),
        Response::Registered {
            rows: CHUNK_ROWS as u64
        }
    );
    assert_eq!(
        serve(&core, RawBlock::tail().payload()),
        Response::Registered {
            rows: CHUNK_ROWS as u64 + 2
        }
    );

    let mut bad: Vec<(&str, Vec<u8>)> = vec![
        (
            "a code at the dictionary length",
            RawBlock {
                codes: vec![0, 2],
                ..RawBlock::tail()
            }
            .payload(),
        ),
        (
            "a column shorter than the declared rows",
            RawBlock {
                ints: vec![7],
                ..RawBlock::tail()
            }
            .payload(),
        ),
        (
            "a column longer than the declared rows",
            RawBlock {
                codes: vec![0, 1, 1],
                ..RawBlock::tail()
            }
            .payload(),
        ),
        (
            "an Int column tagged Float",
            RawBlock {
                n_tag: 1,
                ..RawBlock::tail()
            }
            .payload(),
        ),
        (
            "a Str column tagged Int",
            RawBlock {
                q_tag: 0,
                ..RawBlock::tail()
            }
            .payload(),
        ),
        (
            "more rows than total_rows",
            RawBlock {
                total_rows: CHUNK_ROWS as u64 + 1,
                ..RawBlock::tail()
            }
            .payload(),
        ),
        (
            "a ragged block that is not the last",
            RawBlock {
                total_rows: CHUNK_ROWS as u64 + 9,
                ..RawBlock::tail()
            }
            .payload(),
        ),
        (
            "more rows than a block may hold",
            RawBlock {
                rows: CHUNK_ROWS as u32 + 1,
                ..RawBlock::tail()
            }
            .payload(),
        ),
    ];
    // Well-formed blocks in the wrong place: whole-morsel blocks of a
    // three-block table, where the pending upload is of a two-block one.
    let misplaced = |first_row: u64| {
        TableBlock::new(
            head.schema().clone(),
            3 * CHUNK_ROWS as u64,
            first_row,
            head.columns().to_vec(),
        )
        .expect("well-formed")
    };
    for (what, block) in [
        (
            "a first_row past where the upload ends",
            misplaced(2 * CHUNK_ROWS as u64),
        ),
        (
            "a total_rows the upload did not open with",
            misplaced(CHUNK_ROWS as u64),
        ),
    ] {
        let request = Request::RegisterTable {
            engine: sel("duckdb-like"),
            block,
        };
        bad.push((what, Frame::request(0, &request).expect("encodes").payload));
    }

    for (what, payload) in bad {
        let core = ServerCore::new();
        assert!(
            matches!(
                serve_block(&core, head.clone()),
                Response::Registered { .. }
            ),
            "{what}"
        );
        let errors = core.stats_snapshot().protocol_errors;
        let reply = serve(&core, payload);
        assert!(
            matches!(reply, Response::BadRequest { .. }),
            "{what}: {reply:?}"
        );
        assert_eq!(core.stats_snapshot().protocol_errors, errors + 1, "{what}");
        // The upload is gone: the block that would have completed it has
        // nothing to continue.
        let reply = serve_block(&core, tail.clone());
        assert!(
            matches!(reply, Response::BadRequest { .. }),
            "{what}: {reply:?}"
        );
        assert_eq!(core.stats_snapshot().registers, 0, "{what}");
        // And the server is as usable as before.
        for block in &blocks {
            assert!(
                matches!(
                    serve_block(&core, block.clone()),
                    Response::Registered { .. }
                ),
                "{what}"
            );
        }
        let reply = core.handle(Request::Execute {
            engine: sel("duckdb-like"),
            sql: "SELECT q, COUNT(*) AS c FROM two GROUP BY q ORDER BY q".into(),
        });
        let half = Value::Int(CHUNK_ROWS as i64 / 2 + 1);
        match reply {
            Response::Result { result, .. } => assert_eq!(
                result.rows().map(|r| r.to_vec()).collect::<Vec<_>>(),
                vec![
                    vec![Value::str("x"), half.clone()],
                    vec![Value::str("y"), half]
                ],
                "{what}"
            ),
            other => panic!("{what}: expected a result, got {other:?}"),
        }
    }
}

#[test]
fn a_block_frame_stays_far_under_the_frame_limit() {
    // 65,536 rows of the widest fixed-width type are 512 KiB a column, so
    // even a hundred-column table's block is within MAX_PAYLOAD; the row
    // count of the table does not enter into it.
    let table = counter_table(CHUNK_ROWS);
    let block = TableBlock::split(&table).next().expect("one block");
    let request = Request::RegisterTable {
        engine: sel("duckdb-like"),
        block,
    };
    let payload = Frame::request(0, &request).expect("encodes").payload;
    assert!(payload.len() < 8 * CHUNK_ROWS + 256);
    assert!(100 * payload.len() < MAX_PAYLOAD as usize);
}
