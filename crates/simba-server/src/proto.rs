//! The wire protocol: length-prefixed binary frames with typed binary
//! payloads.
//!
//! Every message on a connection is one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "SMBA" (0x53 0x4D 0x42 0x41)
//! 4       1     protocol version (currently 3)
//! 5       1     frame kind: 0 = request, 1 = response
//! 6       8     request id, u64 little-endian
//! 14      4     payload length, u32 little-endian
//! 18      n     payload: one [`Request`] or [`Response`], laid out below
//! ```
//!
//! The header is fixed-size and self-describing, so a [`Decoder`] can
//! reassemble frames from arbitrarily torn reads (TCP gives a byte
//! stream, not messages). Request ids correlate responses with requests:
//! clients may pipeline several requests before reading any response, and
//! the server echoes each request's id on its response (responses come
//! back in request order on one connection).
//!
//! # Versioning rules
//!
//! * The magic and the version byte never move.
//! * A version bump means the *payload layout* changed incompatibly;
//!   frames with an unknown version are rejected before payload parsing.
//!   Version 1 carried JSON payloads and is rejected like any other
//!   unknown version — there is no negotiation and no second format.
//!   Version 2 had a second execute request (tag 2) carrying the
//!   caller's `QueryCtx`, which no served engine reads; version 3 has
//!   one execute request, and tag 2 is an unknown request.
//! * Within a version nothing is optional and nothing is skipped: a new
//!   field, tag or request kind requires a bump.
//!
//! # Payload layouts
//!
//! All integers are little-endian. `str` is a `u32` byte length followed
//! by that many bytes of UTF-8. `sel` (an [`EngineSel`]) is `str kind`,
//! `u64 scan_threads`. A payload is consumed to its last byte: trailing
//! bytes are an error, so a strict prefix of a valid payload is never
//! valid.
//!
//! ## Requests
//!
//! ```text
//! u8 tag   0 RegisterTable   sel, block (below)
//!          1 Execute         sel, str sql
//!          3 Stats           (nothing)
//!          4 Shutdown        (nothing)
//! ```
//!
//! Queries cross as SQL text (`print_select`; the printer/parser
//! round-trip is property-tested, so the server re-parses the same AST).
//!
//! ## Table blocks
//!
//! A table crosses as one `RegisterTable` frame per *block* of at most
//! [`CHUNK_ROWS`] rows, taken column by column from the table's
//! `ColumnData` — no row-major form exists on either side:
//!
//! ```text
//! str  table name
//! u32  column count; per column: str name,
//!        u8 type (0 Int, 1 Float, 2 Str, 3 Bool),
//!        u8 role (0 Categorical, 1 Quantitative, 2 Temporal)
//! u64  total_rows   rows of the whole table
//! u64  first_row    table row this block starts at
//! u32  rows         rows in this block
//! per column, in schema order:
//!   u8   type tag, equal to the schema's type code for this column
//!   u8   has_validity (0 = every row valid, 1 = validity bytes follow)
//!   [rows x u8]   validity, 1 = valid, 0 = NULL   (iff has_validity)
//!   Int:    rows x i64
//!   Float:  rows x u64, the IEEE-754 bits
//!   Bool:   rows x u8, 0 or 1
//!   Str:    u32 dictionary entries, that many str,
//!           rows x u32 codes into *this block's* dictionary
//! ```
//!
//! A block's dictionary holds the strings its own codes index, in order
//! of first appearance within the block — so a high-cardinality column
//! ships each string about once across the upload, never its whole
//! dictionary per block, and the server needs no dictionary state between
//! blocks (`TableAssembler` remaps per-chunk dictionaries into the
//! table's, as it does for generated chunks).
//!
//! Ints and codes cross at full width whatever width the sender stores
//! them at; the decoder collects them straight into the narrowest width
//! that holds the block's values, so the layout is independent of storage.
//!
//! Validation happens in [`TableBlock::new`], before the server touches
//! the block: the column count and every type tag match the schema; every
//! column holds exactly `rows` values and validity is absent or `rows`
//! long; `rows <= CHUNK_ROWS`; `first_row + rows <= total_rows`;
//! `first_row` lies on the morsel grid, and a block that is not the last
//! (`first_row + rows < total_rows`) is a non-empty whole number of
//! morsels; a valid row's code is below the dictionary length and a NULL
//! row's code is 0. Sequencing is the server's: a block with
//! `first_row == 0` starts (or replaces) the upload of that table into
//! that engine, any other block must start exactly where the pending
//! upload ends and agree with it on schema and `total_rows`, and the block
//! that reaches `total_rows` registers the table. Every block is answered
//! with `Registered { rows }` carrying the rows received so far; a block
//! that fails any check is a `BadRequest` and drops the pending upload. A
//! server holds at most 16 uploads in progress: a first block that would
//! open one more is a `BadRequest`, and a block that continues or restarts
//! a pending upload never is.
//!
//! ## Responses
//!
//! ```text
//! u8 tag   0 Registered      u64 rows
//!          1 Result          result (below), stats: 7 x u64 in `ExecStats`
//!                            field order, u64 elapsed_ns
//!          2 EngineFailure   u8 code (0 UnknownTable, 1 UnknownColumn,
//!                            2 Unsupported, 3 Invalid, 4 Transient,
//!                            5 Internal), str; UnknownColumn: str table,
//!                            str column
//!          3 Stats           7 x u64 in `ServerStatsSnapshot` field order
//!          4 ShuttingDown    (nothing)
//!          5 BadRequest      str message
//! ```
//!
//! A result is its column names, a per-result string table holding each
//! distinct string once, and row-major tagged values:
//!
//! ```text
//! u32  column count, that many str
//! u32  string-table entries, that many str
//! u32  row count
//! rows x columns values:
//!   u8 tag  0 Null | 1 false | 2 true
//!           | 3 Int, i8 | 4 Int, i16 | 5 Int, i32 | 6 Int, i64
//!           | 7 Float, u64 bits | 8 Str, u32 string-table index
//! ```
//!
//! An `Int` is written at the narrowest of the four widths that holds it
//! (two's complement, sign-extended on read; a reader accepts any width) —
//! grouped results are mostly counts and small keys, and at a fixed eight
//! bytes they came out larger than their JSON. Values are bit-exact: a
//! float crosses as its bit pattern (NaN payloads, `-0.0` and infinities
//! included), an integer with its full value, and `Int(3)` never comes
//! back as `Float(3.0)`. A decoded result shares one
//! `Arc<str>` among all occurrences of a string. Rows of no columns cannot
//! cross (they would cost no bytes and so bound nothing); no engine
//! produces them.
//!
//! # Why not JSON payloads
//!
//! Version 1 carried `serde_json` text. Measured on `wire_loopback_10k`
//! it cost 91 us of a 401 us round trip (request encode 7 + parse 8,
//! response encode 31 + parse 46), registering a table went through two
//! row-major copies and two `Content` trees and peaked at 27 times the
//! table's size, and at 153 bytes per row nothing past 440K rows fit a
//! frame. Everything that crosses is a fixed record, a string, or a run
//! of fixed-width values, which a hand-written codec of a few hundred
//! lines handles without a schema language; it lives in one private
//! module and this documentation is its specification.

use crate::codec;
use simba_engine::{EngineError, ExecStats};
use simba_store::{
    for_width, ColumnData, DataType, NarrowVec, ResultSet, Schema, Table, MORSEL_ROWS,
};
use std::ops::Range;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SMBA";

/// Current protocol version; bumped on any incompatible payload change.
pub const PROTOCOL_VERSION: u8 = 3;

/// Fixed frame header size in bytes (magic + version + kind + id + len).
pub const HEADER_LEN: usize = 18;

/// Upper bound on a single frame's payload (64 MiB). A length field above
/// this is treated as a protocol error rather than an allocation request —
/// a garbage or hostile header must not OOM the server.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// What went wrong at the wire layer.
///
/// The two variants deliberately mirror the [`EngineError`] retry
/// classification the client maps them onto: transport failures
/// ([`WireError::Io`]) are worth retrying on a fresh connection
/// (→ `EngineError::Transient`), malformed or mismatched frames
/// ([`WireError::Protocol`]) describe a bug, not a moment
/// (→ `EngineError::Internal`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The transport failed (connect refused, reset, short write, EOF).
    Io(String),
    /// The bytes were readable but not a valid frame or payload.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(m) => write!(f, "wire i/o error: {m}"),
            WireError::Protocol(m) => write!(f, "wire protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.to_string())
    }
}

/// Direction tag in the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
        }
    }

    fn from_code(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Request),
            1 => Some(FrameKind::Response),
            _ => None,
        }
    }
}

/// One reassembled frame: header fields plus the raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Direction of the frame.
    pub kind: FrameKind,
    /// Correlates a response with the request that caused it.
    pub request_id: u64,
    /// One encoded [`Request`] or [`Response`].
    pub payload: Vec<u8>,
}

impl Frame {
    /// Build a frame, rejecting payloads over [`MAX_PAYLOAD`].
    pub fn new(kind: FrameKind, request_id: u64, payload: Vec<u8>) -> Result<Frame, WireError> {
        if payload.len() > MAX_PAYLOAD as usize {
            return Err(WireError::Protocol(format!(
                "payload of {} bytes exceeds the {MAX_PAYLOAD}-byte frame limit",
                payload.len()
            )));
        }
        Ok(Frame {
            kind,
            request_id,
            payload,
        })
    }

    /// Frame carrying an encoded [`Request`].
    pub fn request(request_id: u64, req: &Request) -> Result<Frame, WireError> {
        Frame::new(FrameKind::Request, request_id, codec::encode_request(req))
    }

    /// Frame carrying an encoded [`Response`]. Fails for a result the
    /// format cannot carry (a row whose width is not the column count)
    /// or one past [`MAX_PAYLOAD`].
    pub fn response(request_id: u64, resp: &Response) -> Result<Frame, WireError> {
        Frame::new(
            FrameKind::Response,
            request_id,
            codec::encode_response(resp)?,
        )
    }

    /// Serialize the frame to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(self.kind.code());
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode the payload as a [`Request`]. Total: any bytes give a
    /// request or a [`WireError::Protocol`].
    pub fn parse_request(&self) -> Result<Request, WireError> {
        codec::decode_request(&self.payload)
    }

    /// Decode the payload as a [`Response`]. Total, like
    /// [`parse_request`](Frame::parse_request).
    pub fn parse_response(&self) -> Result<Response, WireError> {
        codec::decode_response(&self.payload)
    }
}

/// Incremental frame reassembler for a byte stream.
///
/// Feed reads of any size with [`feed`](Decoder::feed), then drain
/// complete frames with [`next_frame`](Decoder::next_frame). Torn
/// headers, torn payloads, and multiple frames per read are all handled;
/// a corrupt header (bad magic, unknown version or kind, oversized
/// length) surfaces as a [`WireError::Protocol`] and poisons the stream —
/// framing can't resynchronize after garbage, so the connection must be
/// dropped.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
}

impl Decoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Append raw bytes read from the transport.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Next complete frame, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let header = &self.buf[..HEADER_LEN];
        if header[..4] != MAGIC {
            return Err(WireError::Protocol(format!(
                "bad magic {:02x?} (expected {:02x?})",
                &header[..4],
                MAGIC
            )));
        }
        if header[4] != PROTOCOL_VERSION {
            return Err(WireError::Protocol(format!(
                "unsupported protocol version {} (this build speaks {PROTOCOL_VERSION})",
                header[4]
            )));
        }
        let kind = FrameKind::from_code(header[5])
            .ok_or_else(|| WireError::Protocol(format!("unknown frame kind byte {}", header[5])))?;
        let mut id_bytes = [0u8; 8];
        id_bytes.copy_from_slice(&header[6..14]);
        let request_id = u64::from_le_bytes(id_bytes);
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&header[14..18]);
        let payload_len = u32::from_le_bytes(len_bytes);
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::Protocol(format!(
                "declared payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
            )));
        }
        let total = HEADER_LEN + payload_len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = if self.buf.len() == total {
            // The buffer is this one frame — every loopback exchange and
            // most client reads: hand the allocation over instead of
            // holding a second copy of what may be a table block.
            let mut frame = std::mem::take(&mut self.buf);
            frame.drain(..HEADER_LEN);
            frame
        } else {
            let payload = self.buf[HEADER_LEN..total].to_vec();
            self.buf.drain(..total);
            payload
        };
        Ok(Some(Frame {
            kind,
            request_id,
            payload,
        }))
    }
}

/// Which engine instance a request addresses, by name and scan
/// parallelism — the server builds (and caches) one engine per distinct
/// selector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineSel {
    /// Engine name (`"duckdb-like"` or `"sqlite-like"`).
    pub kind: String,
    /// Morsel-parallel scan threads; `1` = sequential, `0` = one per core.
    pub scan_threads: usize,
}

/// Most rows one [`TableBlock`] carries: 32 morsels, the chunk size
/// dataset generation assembles tables from.
pub const CHUNK_ROWS: usize = 32 * MORSEL_ROWS;

/// A contiguous run of a table's rows, column by column: what one
/// `RegisterTable` frame carries.
///
/// A `TableBlock` can only hold a block that passed every check listed in
/// the [module docs](self) — [`new`](TableBlock::new) is the only way in
/// from outside this crate, and decoding goes through it — so the server
/// can hand its columns to `TableChunk::new` / `TableAssembler`, which
/// panic on a subset of those conditions, without re-checking. The
/// morsel-grid rule is the protocol's own, not an assembler precondition.
#[derive(Debug, Clone)]
pub struct TableBlock {
    schema: Schema,
    total_rows: u64,
    first_row: u64,
    columns: Vec<ColumnData>,
}

/// Bit-for-bit: float bit patterns, dictionary order, codes and the
/// validity representation all count.
impl PartialEq for TableBlock {
    fn eq(&self, other: &TableBlock) -> bool {
        self.schema == other.schema
            && self.total_rows == other.total_rows
            && self.first_row == other.first_row
            && self.columns.len() == other.columns.len()
            && self
                .columns
                .iter()
                .zip(&other.columns)
                .all(|(a, b)| a.bitwise_eq(b))
    }
}

impl TableBlock {
    /// A block of `columns` starting at row `first_row` of a
    /// `total_rows`-row table, or the first rule it breaks.
    pub fn new(
        schema: Schema,
        total_rows: u64,
        first_row: u64,
        columns: Vec<ColumnData>,
    ) -> Result<TableBlock, WireError> {
        check_block(&schema, total_rows, first_row, &columns).map_err(WireError::Protocol)?;
        Ok(TableBlock {
            schema,
            total_rows,
            first_row,
            columns,
        })
    }

    /// The blocks that carry `table`, in order: [`CHUNK_ROWS`] rows each
    /// but the last, and one empty block for an empty table. Each block
    /// copies its rows' column slices and re-codes string columns against
    /// the block's own dictionary.
    pub fn split(table: &Table) -> impl Iterator<Item = TableBlock> + '_ {
        let mut local_of: Vec<Vec<u32>> = (0..table.schema().width())
            .map(|c| vec![u32::MAX; table.column(c).dictionary().map_or(0, <[_]>::len)])
            .collect();
        let total = table.row_count();
        let mut next = Some(0);
        std::iter::from_fn(move || {
            let start = next?;
            let end = total.min(start + CHUNK_ROWS);
            next = (end < total).then_some(end);
            let block = TableBlock {
                schema: table.schema().clone(),
                total_rows: total as u64,
                first_row: start as u64,
                columns: local_of
                    .iter_mut()
                    .enumerate()
                    .map(|(c, local_of)| slice_column(table.column(c), start..end, local_of))
                    .collect(),
            };
            debug_assert_eq!(
                check_block(
                    &block.schema,
                    block.total_rows,
                    block.first_row,
                    &block.columns
                ),
                Ok(())
            );
            Some(block)
        })
    }

    /// Schema of the table this block belongs to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows of the whole table.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Table row this block starts at.
    pub fn first_row(&self) -> u64 {
        self.first_row
    }

    /// Rows in this block.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, ColumnData::len)
    }

    /// The block's column data, in schema order.
    pub fn columns(&self) -> &[ColumnData] {
        &self.columns
    }

    pub(crate) fn into_parts(self) -> (Schema, Vec<ColumnData>) {
        (self.schema, self.columns)
    }
}

/// Rows `range` of `col` as a column of their own. `local_of` maps the
/// column's dictionary codes to block-local ones; it is all `u32::MAX`
/// between calls (only the entries a block touched are reset, so a block
/// costs its rows, not the dictionary).
fn slice_column(col: &ColumnData, range: Range<usize>, local_of: &mut [u32]) -> ColumnData {
    // Empty validity means "all valid", for the column and for the slice.
    let valid = match col.validity().get(range.clone()) {
        Some(part) if part.iter().any(|&v| !v) => part.to_vec(),
        _ => Vec::new(),
    };
    match col {
        ColumnData::Int { data, .. } => ColumnData::Int {
            data: data.slice(range),
            valid,
        },
        ColumnData::Float { data, .. } => ColumnData::Float {
            data: data[range].to_vec(),
            valid,
        },
        ColumnData::Bool { data, .. } => ColumnData::Bool {
            data: data[range].to_vec(),
            valid,
        },
        ColumnData::Str { dict, codes, .. } => {
            let mut local_dict = Vec::new();
            let mut touched = Vec::new();
            let mut local_codes = NarrowVec::with_capacity(range.len());
            for_width!(
                codes,
                |lane| for (i, &code) in lane[range].iter().enumerate() {
                    if valid.get(i) == Some(&false) {
                        local_codes.push(0);
                        continue;
                    }
                    let code = code as usize;
                    let slot = &mut local_of[code];
                    if *slot == u32::MAX {
                        *slot = local_dict.len() as u32;
                        local_dict.push(dict[code].clone());
                        touched.push(code);
                    }
                    local_codes.push(*slot);
                }
            );
            for code in touched {
                local_of[code] = u32::MAX;
            }
            ColumnData::Str {
                dict: local_dict,
                codes: local_codes,
                valid,
            }
        }
    }
}

/// Every rule a block must satisfy before the server may assemble it (see
/// the module docs); the error names the first one broken.
fn check_block(
    schema: &Schema,
    total_rows: u64,
    first_row: u64,
    columns: &[ColumnData],
) -> Result<(), String> {
    if columns.len() != schema.width() {
        return Err(format!(
            "block has {} columns for a {}-column schema",
            columns.len(),
            schema.width()
        ));
    }
    let rows = columns.first().map_or(0, ColumnData::len);
    if rows > CHUNK_ROWS {
        return Err(format!(
            "block of {rows} rows exceeds the {CHUNK_ROWS}-row block limit"
        ));
    }
    if columns.is_empty() && total_rows != 0 {
        return Err(format!("{total_rows} rows of a table with no columns"));
    }
    let end = match first_row.checked_add(rows as u64) {
        Some(end) if end <= total_rows => end,
        _ => {
            return Err(format!(
                "rows {first_row}..+{rows} run past the declared total of {total_rows}"
            ))
        }
    };
    let morsel = MORSEL_ROWS as u64;
    if !first_row.is_multiple_of(morsel) {
        return Err(format!("first_row {first_row} is off the morsel grid"));
    }
    if end < total_rows && (rows == 0 || !end.is_multiple_of(morsel)) {
        return Err(format!(
            "a block of {rows} rows that is not the table's last must be a \
             non-empty whole number of {MORSEL_ROWS}-row morsels"
        ));
    }
    for (def, col) in schema.columns.iter().zip(columns) {
        let matches = matches!(
            (def.data_type, col),
            (DataType::Int, ColumnData::Int { .. })
                | (DataType::Float, ColumnData::Float { .. })
                | (DataType::Bool, ColumnData::Bool { .. })
                | (DataType::Str, ColumnData::Str { .. })
        );
        if !matches {
            return Err(format!(
                "column `{}` is {:?} in the schema but its data is not",
                def.name, def.data_type
            ));
        }
        if col.len() != rows {
            return Err(format!(
                "column `{}` holds {} values in a block of {rows} rows",
                def.name,
                col.len()
            ));
        }
        let valid = col.validity();
        if !valid.is_empty() && valid.len() != rows {
            return Err(format!(
                "column `{}` has {} validity entries in a block of {rows} rows",
                def.name,
                valid.len()
            ));
        }
        if let ColumnData::Str { dict, codes, .. } = col {
            let bad = codes.iter().enumerate().find(|&(i, code)| {
                if valid.get(i) == Some(&false) {
                    code != 0
                } else {
                    code as usize >= dict.len()
                }
            });
            if let Some((i, code)) = bad {
                return Err(format!(
                    "column `{}` row {i} carries code {code} against a \
                     {}-entry dictionary",
                    def.name,
                    dict.len()
                ));
            }
        }
    }
    Ok(())
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Append one block of a table to its upload into the addressed
    /// engine; the block that completes the table registers (or replaces)
    /// it.
    RegisterTable {
        /// Engine instance to register into.
        engine: EngineSel,
        /// The next run of the table's rows.
        block: TableBlock,
    },
    /// Execute one query, shipped as SQL text (`print_select`; the
    /// printer/parser round-trip is property-tested, so the server
    /// re-parses the exact same AST).
    Execute {
        /// Engine instance to execute on.
        engine: EngineSel,
        /// `SELECT` statement text.
        sql: String,
    },
    /// Snapshot the server's request/connection counters.
    Stats,
    /// Begin graceful drain: stop accepting connections, finish what is
    /// in flight, then exit.
    Shutdown,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A table block was accepted.
    Registered {
        /// Rows of the table received so far; the table's row count once
        /// the last block has registered it.
        rows: u64,
    },
    /// A query executed successfully.
    Result {
        /// The result set, value-exact.
        result: ResultSet,
        /// Server-side execution statistics.
        stats: ExecStats,
        /// Server-side execution latency in nanoseconds (excludes wire
        /// time; the client measures round-trip latency itself).
        elapsed_ns: u64,
    },
    /// The engine rejected or failed the query; the variant-exact
    /// [`EngineError`] is what the client re-surfaces.
    EngineFailure {
        /// The engine's error, with retry classification intact.
        error: EngineError,
    },
    /// Server counters, in response to [`Request::Stats`].
    Stats {
        /// Totals since the server started.
        stats: ServerStatsSnapshot,
    },
    /// Acknowledges [`Request::Shutdown`]; the server is now draining.
    ShuttingDown,
    /// The request frame could not be served (undecodable payload, unknown
    /// engine, unparseable SQL, malformed or out-of-order table block).
    /// Protocol-level, not an engine failure: the client maps it to
    /// [`EngineError::Internal`].
    BadRequest {
        /// Human-readable reason.
        message: String,
    },
}

/// Point-in-time server counters, shipped in [`Response::Stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted since start.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Frames dispatched (all request kinds).
    pub requests: u64,
    /// Execute requests served.
    pub executes: u64,
    /// Tables registered.
    pub registers: u64,
    /// Executions that returned an [`EngineError`].
    pub engine_errors: u64,
    /// Requests answered with [`Response::BadRequest`] plus undecodable
    /// frames.
    pub protocol_errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::{ColumnDef, TableBuilder, Value};

    fn sample_request() -> Request {
        Request::Execute {
            engine: EngineSel {
                kind: "duckdb-like".into(),
                scan_threads: 2,
            },
            sql: "SELECT q, SUM(n) FROM t GROUP BY q".into(),
        }
    }

    #[test]
    fn frame_encodes_and_decodes() {
        let frame = Frame::request(42, &sample_request()).unwrap();
        let bytes = frame.encode();
        assert_eq!(&bytes[..4], &MAGIC);
        assert_eq!(bytes[4], PROTOCOL_VERSION);

        let mut d = Decoder::new();
        d.feed(&bytes);
        let back = d.next_frame().unwrap().expect("complete frame");
        assert_eq!(back, frame);
        assert_eq!(back.parse_request().unwrap(), sample_request());
        assert_eq!(d.next_frame().unwrap(), None);
        assert_eq!(d.buffered(), 0);
    }

    /// The documented layout, byte for byte, on one request and one
    /// response small enough to spell out.
    #[test]
    fn payloads_follow_the_documented_layout() {
        let frame = Frame::request(
            1,
            &Request::Execute {
                engine: EngineSel {
                    kind: "ab".into(),
                    scan_threads: 3,
                },
                sql: "S".into(),
            },
        )
        .unwrap();
        let mut want = vec![1u8];
        want.extend_from_slice(&[2, 0, 0, 0, b'a', b'b']);
        want.extend_from_slice(&3u64.to_le_bytes());
        want.extend_from_slice(&[1, 0, 0, 0, b'S']);
        assert_eq!(frame.payload, want);

        let frame = Frame::response(
            1,
            &Response::Result {
                result: ResultSet::new(
                    vec!["q".into(), "s".into()],
                    vec![
                        vec![Value::str("A"), Value::Float(-0.0)],
                        vec![Value::str("A"), Value::Null],
                    ],
                ),
                stats: ExecStats {
                    rows_scanned: 9,
                    ..ExecStats::default()
                },
                elapsed_ns: 7,
            },
        )
        .unwrap();
        let mut want = vec![1u8];
        want.extend_from_slice(&[2, 0, 0, 0, 1, 0, 0, 0, b'q', 1, 0, 0, 0, b's']);
        want.extend_from_slice(&[1, 0, 0, 0, 1, 0, 0, 0, b'A']);
        want.extend_from_slice(&[2, 0, 0, 0]);
        want.extend_from_slice(&[8, 0, 0, 0, 0, 7]);
        want.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        want.extend_from_slice(&[8, 0, 0, 0, 0, 0]);
        want.extend_from_slice(&9u64.to_le_bytes());
        want.extend_from_slice(&[0u8; 48]);
        want.extend_from_slice(&7u64.to_le_bytes());
        assert_eq!(frame.payload, want);
    }

    #[test]
    fn decoded_results_share_one_allocation_per_distinct_string() {
        let rows: Vec<Vec<Value>> = (0..48)
            .map(|i| vec![Value::str("rep_03"), Value::Int(i)])
            .collect();
        let frame = Frame::response(
            1,
            &Response::Result {
                result: ResultSet::new(vec!["rep".into(), "n".into()], rows),
                stats: ExecStats::default(),
                elapsed_ns: 0,
            },
        )
        .unwrap();
        let Response::Result { result, .. } = frame.parse_response().unwrap() else {
            panic!("a result");
        };
        let Value::Str(first) = result.value(0, 0) else {
            panic!("a string");
        };
        // The 48 cells and `first`.
        assert_eq!(std::sync::Arc::strong_count(&first), 49);
        assert!(result
            .rows()
            .all(|r| matches!(r.get(0), Value::Str(s) if std::sync::Arc::ptr_eq(&s, &first))));
    }

    #[test]
    fn decoder_handles_torn_and_concatenated_frames() {
        let a = Frame::request(1, &Request::Stats).unwrap().encode();
        let b = Frame::request(2, &Request::Shutdown).unwrap().encode();
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);

        // Feed one byte at a time: every prefix is a legal partial state.
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for byte in &stream {
            d.feed(std::slice::from_ref(byte));
            while let Some(f) = d.next_frame().unwrap() {
                got.push(f.request_id);
            }
        }
        assert_eq!(got, vec![1, 2]);

        // Feed everything at once: both frames drain back to back.
        let mut d = Decoder::new();
        d.feed(&stream);
        assert_eq!(d.next_frame().unwrap().map(|f| f.request_id), Some(1));
        assert_eq!(d.next_frame().unwrap().map(|f| f.request_id), Some(2));
        assert_eq!(d.next_frame().unwrap(), None);
    }

    #[test]
    fn decoder_rejects_garbage_headers() {
        let mut d = Decoder::new();
        d.feed(b"GARBAGE-NOT-A-FRAME");
        assert!(matches!(d.next_frame(), Err(WireError::Protocol(_))));

        // Wrong version — the JSON-era version 1 included.
        for version in [1, 99] {
            let mut bytes = Frame::request(1, &Request::Stats).unwrap().encode();
            bytes[4] = version;
            let mut d = Decoder::new();
            d.feed(&bytes);
            assert!(matches!(d.next_frame(), Err(WireError::Protocol(_))));
        }

        // Unknown kind byte.
        let mut bytes = Frame::request(1, &Request::Stats).unwrap().encode();
        bytes[5] = 7;
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert!(matches!(d.next_frame(), Err(WireError::Protocol(_))));

        // Oversized declared payload.
        let mut bytes = Frame::request(1, &Request::Stats).unwrap().encode();
        bytes[14..18].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert!(matches!(d.next_frame(), Err(WireError::Protocol(_))));
    }

    fn tiny_table() -> Table {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
            ],
        );
        let mut b = TableBuilder::new(schema, 2);
        b.push_row(vec![Value::str("A"), Value::Int(1)]);
        b.push_row(vec![Value::str("B"), Value::Null]);
        b.finish()
    }

    #[test]
    fn table_blocks_round_trip_and_validate() {
        let table = tiny_table();
        let blocks: Vec<TableBlock> = TableBlock::split(&table).collect();
        assert_eq!(blocks.len(), 1);
        let block = &blocks[0];
        assert_eq!(
            (block.first_row(), block.rows(), block.total_rows()),
            (0, 2, 2)
        );
        assert_eq!(block.schema(), table.schema());
        for c in 0..2 {
            assert!(block.columns()[c].bitwise_eq(table.column(c)));
        }

        let request = Request::RegisterTable {
            engine: EngineSel {
                kind: "sqlite-like".into(),
                scan_threads: 1,
            },
            block: block.clone(),
        };
        let frame = Frame::request(5, &request).unwrap();
        assert_eq!(frame.parse_request().unwrap(), request);

        // Length and type mismatches are errors, not panics downstream.
        let (schema, columns) = block.clone().into_parts();
        let mut torn = columns.clone();
        torn[1] = ColumnData::Int {
            data: vec![1].into(),
            valid: vec![],
        };
        assert!(matches!(
            TableBlock::new(schema.clone(), 2, 0, torn),
            Err(WireError::Protocol(_))
        ));
        let mut wrong = columns.clone();
        wrong[1] = ColumnData::Float {
            data: vec![1.0, 2.0],
            valid: vec![],
        };
        assert!(matches!(
            TableBlock::new(schema.clone(), 2, 0, wrong),
            Err(WireError::Protocol(_))
        ));
        let mut wild = columns.clone();
        wild[0] = ColumnData::Str {
            dict: vec!["A".into()],
            codes: vec![0, 1].into(),
            valid: vec![],
        };
        assert!(matches!(
            TableBlock::new(schema.clone(), 2, 0, wild),
            Err(WireError::Protocol(_))
        ));
        // More rows than the declared total; a ragged block that is not
        // the last; a start off the morsel grid.
        for (total, first) in [(1, 0), (5, 0), (3, 1)] {
            assert!(matches!(
                TableBlock::new(schema.clone(), total, first, columns.clone()),
                Err(WireError::Protocol(_))
            ));
        }
    }

    #[test]
    fn split_recodes_each_block_against_its_own_dictionary() {
        let schema = Schema::new("t", vec![ColumnDef::categorical("c")]);
        let rows = CHUNK_ROWS + 3;
        let mut b = TableBuilder::new(schema, rows);
        for i in 0..rows {
            b.push_row(vec![match i {
                i if i == CHUNK_ROWS => Value::Null,
                i if i > CHUNK_ROWS => Value::str("late"),
                i => Value::str(format!("s{}", i % 3)),
            }]);
        }
        let table = b.finish();
        let blocks: Vec<TableBlock> = TableBlock::split(&table).collect();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].rows(), CHUNK_ROWS);
        assert_eq!(blocks[1].first_row(), CHUNK_ROWS as u64);
        let dict = |b: &TableBlock| -> Vec<String> {
            b.columns()[0]
                .dictionary()
                .unwrap()
                .iter()
                .map(|s| s.to_string())
                .collect()
        };
        assert_eq!(dict(&blocks[0]), ["s0", "s1", "s2"]);
        assert!(blocks[0].columns()[0].all_valid());
        // The second block ships only what its own rows index, and its
        // NULL row does not count as an appearance of code 0.
        assert_eq!(dict(&blocks[1]), ["late"]);
        assert_eq!(
            blocks[1].columns()[0]
                .code_data()
                .unwrap()
                .iter()
                .collect::<Vec<_>>(),
            [0, 0, 0]
        );
        assert_eq!(blocks[1].columns()[0].validity(), [false, true, true]);
    }

    #[test]
    fn an_empty_table_is_one_empty_block() {
        let schema = Schema::new("t", vec![ColumnDef::quantitative_int("n")]);
        let table = TableBuilder::new(schema, 0).finish();
        let blocks: Vec<TableBlock> = TableBlock::split(&table).collect();
        assert_eq!(blocks.len(), 1);
        assert_eq!((blocks[0].rows(), blocks[0].total_rows()), (0, 0));
    }

    #[test]
    fn oversized_payload_is_rejected_at_build_time() {
        let payload = vec![0u8; MAX_PAYLOAD as usize + 1];
        assert!(matches!(
            Frame::new(FrameKind::Request, 0, payload),
            Err(WireError::Protocol(_))
        ));
    }
}
