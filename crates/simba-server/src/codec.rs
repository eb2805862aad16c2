//! The payload codec: a [`Writer`] / [`Reader`] pair and one encode /
//! decode function pair per message type. The byte layouts are documented
//! in [`crate::proto`]; this module is their only implementation.
//!
//! Decoding is total. Every length read from a payload is checked against
//! the bytes that remain *before* anything is allocated for it, every tag
//! is matched exhaustively, and a payload must be consumed to its last
//! byte — so no input panics, no input allocates more than a small
//! constant times its own length, and a strict prefix of a valid payload
//! is never itself valid.

use crate::proto::{
    EngineSel, Request, Response, ServerStatsSnapshot, TableBlock, WireError, CHUNK_ROWS,
};
use simba_engine::{EngineError, ExecStats};
use simba_store::{
    for_width, ColumnData, ColumnDef, ColumnRole, DataType, ResultBuilder, ResultSet, Schema,
    Value, ValueRef,
};
use std::collections::HashMap;
use std::sync::Arc;

const REQ_REGISTER: u8 = 0;
const REQ_EXECUTE: u8 = 1;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

const RESP_REGISTERED: u8 = 0;
const RESP_RESULT: u8 = 1;
const RESP_ENGINE_FAILURE: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_SHUTTING_DOWN: u8 = 4;
const RESP_BAD_REQUEST: u8 = 5;

const VAL_NULL: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_TRUE: u8 = 2;
const VAL_INT8: u8 = 3;
const VAL_INT16: u8 = 4;
const VAL_INT32: u8 = 5;
const VAL_INT64: u8 = 6;
const VAL_FLOAT: u8 = 7;
const VAL_STR: u8 = 8;

const ERR_UNKNOWN_TABLE: u8 = 0;
const ERR_UNKNOWN_COLUMN: u8 = 1;
const ERR_UNSUPPORTED: u8 = 2;
const ERR_INVALID: u8 = 3;
const ERR_TRANSIENT: u8 = 4;
const ERR_INTERNAL: u8 = 5;

fn bad(message: impl Into<String>) -> WireError {
    WireError::Protocol(message.into())
}

/// Append-only payload builder: fixed-width little-endian fields and
/// length-prefixed UTF-8.
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn with_capacity(bytes: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// An in-memory size as a `u64` field (`usize` is at most 64 bits on
    /// every supported target).
    fn size(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// An element or byte count as a `u32` field. A count past `u32::MAX`
    /// saturates: its elements alone put the payload over
    /// [`MAX_PAYLOAD`](crate::proto::MAX_PAYLOAD), so `Frame::new` refuses
    /// it and the clamped field never reaches a reader.
    fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    fn str(&mut self, s: &str) {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Cursor over a received payload. Every accessor fails with
/// [`WireError::Protocol`] instead of reading past the end.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(payload: &'a [u8]) -> Reader<'a> {
        Reader { rest: payload }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(bad(format!(
                "payload ends {} bytes short of a {n}-byte field",
                n - self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn size(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| bad(format!("size {v} does not fit this platform")))
    }

    /// A `u32` element count whose elements take at least `min_bytes_each`
    /// bytes apiece, checked against what is left of the payload — the one
    /// place a declared count turns into a `with_capacity`.
    fn count(&mut self, min_bytes_each: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_bytes_each) {
            Some(bytes) if bytes <= self.rest.len() => Ok(n),
            _ => Err(bad(format!(
                "declared count {n} needs more than the {} bytes that remain",
                self.rest.len()
            ))),
        }
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.count(1)?;
        std::str::from_utf8(self.take(len)?).map_err(|e| bad(format!("string is not UTF-8: {e}")))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(bad(format!(
                "{} trailing bytes after the message",
                self.rest.len()
            )))
        }
    }
}

// ---------------------------------------------------------------- requests

fn put_sel(w: &mut Writer, sel: &EngineSel) {
    w.str(&sel.kind);
    w.size(sel.scan_threads);
}

fn get_sel(r: &mut Reader<'_>) -> Result<EngineSel, WireError> {
    Ok(EngineSel {
        kind: r.str()?.to_string(),
        scan_threads: r.size()?,
    })
}

/// Payload of `Execute`, from borrowed parts: the client encodes straight
/// from its selector and the printed SQL without building a [`Request`]
/// around clones of them.
pub(crate) fn encode_execute(sel: &EngineSel, sql: &str) -> Vec<u8> {
    let mut w = Writer::with_capacity(48 + sel.kind.len() + sql.len());
    w.u8(REQ_EXECUTE);
    put_sel(&mut w, sel);
    w.str(sql);
    w.buf
}

/// Payload of `RegisterTable`, from borrowed parts.
pub(crate) fn encode_register(sel: &EngineSel, block: &TableBlock) -> Vec<u8> {
    let schema = block.schema();
    let hint = 64
        + sel.kind.len()
        + schema.table.len()
        + schema
            .columns
            .iter()
            .map(|c| c.name.len() + 6)
            .sum::<usize>()
        + block.columns().iter().map(column_wire_size).sum::<usize>();
    let mut w = Writer::with_capacity(hint);
    w.u8(REQ_REGISTER);
    put_sel(&mut w, sel);
    put_block(&mut w, block);
    w.buf
}

pub(crate) fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::RegisterTable { engine, block } => encode_register(engine, block),
        Request::Execute { engine, sql } => encode_execute(engine, sql),
        Request::Stats => vec![REQ_STATS],
        Request::Shutdown => vec![REQ_SHUTDOWN],
    }
}

pub(crate) fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        REQ_REGISTER => Request::RegisterTable {
            engine: get_sel(&mut r)?,
            block: get_block(&mut r)?,
        },
        REQ_EXECUTE => Request::Execute {
            engine: get_sel(&mut r)?,
            sql: r.str()?.to_string(),
        },
        REQ_STATS => Request::Stats,
        REQ_SHUTDOWN => Request::Shutdown,
        other => return Err(bad(format!("unknown request tag {other}"))),
    };
    r.finish()?;
    Ok(req)
}

/// The engine selector and table name a `RegisterTable` payload opens
/// with, when that much of it is readable — what the server needs to drop
/// the upload a block it could not decode belonged to.
pub(crate) fn register_target(payload: &[u8]) -> Option<(EngineSel, String)> {
    let mut r = Reader::new(payload);
    if r.u8().ok()? != REQ_REGISTER {
        return None;
    }
    let sel = get_sel(&mut r).ok()?;
    let table = r.str().ok()?.to_string();
    Some((sel, table))
}

// ------------------------------------------------------------ table blocks

fn type_code(t: DataType) -> u8 {
    match t {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
        DataType::Bool => 3,
    }
}

fn role_code(r: ColumnRole) -> u8 {
    match r {
        ColumnRole::Categorical => 0,
        ColumnRole::Quantitative => 1,
        ColumnRole::Temporal => 2,
    }
}

fn put_validity(w: &mut Writer, valid: &[bool]) {
    w.u8(u8::from(!valid.is_empty()));
    w.buf.extend(valid.iter().map(|&v| u8::from(v)));
}

/// Bytes [`put_block`] writes for one column's data: type tag, validity
/// flag and bytes, then 8 per Int or Float value, 1 per Bool, or a string
/// column's dictionary (a count, then each entry length-prefixed) and 4 per
/// code — whatever width the column is stored at.
fn column_wire_size(col: &ColumnData) -> usize {
    let values = match col {
        ColumnData::Int { data, .. } => 8 * data.len(),
        ColumnData::Float { data, .. } => 8 * data.len(),
        ColumnData::Bool { data, .. } => data.len(),
        ColumnData::Str { dict, codes, .. } => {
            4 + dict.iter().map(|s| 4 + s.len()).sum::<usize>() + 4 * codes.len()
        }
    };
    2 + col.validity().len() + values
}

fn put_block(w: &mut Writer, block: &TableBlock) {
    let schema = block.schema();
    w.str(&schema.table);
    w.count(schema.columns.len());
    for def in &schema.columns {
        w.str(&def.name);
        w.u8(type_code(def.data_type));
        w.u8(role_code(def.role));
    }
    w.u64(block.total_rows());
    w.u64(block.first_row());
    w.count(block.rows());
    for (def, col) in schema.columns.iter().zip(block.columns()) {
        w.u8(type_code(def.data_type));
        put_validity(w, col.validity());
        match col {
            // Int values and codes cross at full width whatever their
            // stored one; the decoder narrows them again.
            ColumnData::Int { data, .. } => for_width!(data, |lane| for &v in lane {
                w.buf.extend_from_slice(&(v as i64).to_le_bytes());
            }),
            ColumnData::Float { data, .. } => {
                for v in data {
                    w.buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            ColumnData::Bool { data, .. } => w.buf.extend(data.iter().map(|&v| u8::from(v))),
            ColumnData::Str { dict, codes, .. } => {
                w.count(dict.len());
                for entry in dict {
                    w.str(entry);
                }
                for_width!(codes, |lane| for &c in lane {
                    w.buf.extend_from_slice(&(c as u32).to_le_bytes());
                })
            }
        }
    }
}

/// `rows` bytes, each `0` or `1`.
fn get_bools(r: &mut Reader<'_>, rows: usize, what: &str) -> Result<Vec<bool>, WireError> {
    let bytes = r.take(rows)?;
    if let Some(b) = bytes.iter().find(|&&b| b > 1) {
        return Err(bad(format!("{what} byte {b} is neither 0 nor 1")));
    }
    Ok(bytes.iter().map(|&b| b == 1).collect())
}

fn le_u64(chunk: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(chunk);
    u64::from_le_bytes(a)
}

fn le_u32(chunk: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(chunk);
    u32::from_le_bytes(a)
}

fn get_column(r: &mut Reader<'_>, def: &ColumnDef, rows: usize) -> Result<ColumnData, WireError> {
    let tag = r.u8()?;
    if tag != type_code(def.data_type) {
        return Err(bad(format!(
            "column `{}` is {:?} in the schema but its data carries type tag {tag}",
            def.name, def.data_type
        )));
    }
    let valid = match r.u8()? {
        0 => Vec::new(),
        1 => get_bools(r, rows, "validity")?,
        other => return Err(bad(format!("validity flag {other} is neither 0 nor 1"))),
    };
    // `rows <= CHUNK_ROWS` was checked by the caller: the products below
    // cannot overflow, and `take` refuses them before any `collect`.
    Ok(match def.data_type {
        DataType::Int => ColumnData::Int {
            data: r
                .take(rows * 8)?
                .chunks_exact(8)
                .map(|c| le_u64(c) as i64)
                .collect(),
            valid,
        },
        DataType::Float => ColumnData::Float {
            data: r
                .take(rows * 8)?
                .chunks_exact(8)
                .map(|c| f64::from_bits(le_u64(c)))
                .collect(),
            valid,
        },
        DataType::Bool => ColumnData::Bool {
            data: get_bools(r, rows, "boolean")?,
            valid,
        },
        DataType::Str => {
            let entries = r.count(4)?;
            let mut dict: Vec<Arc<str>> = Vec::with_capacity(entries);
            for _ in 0..entries {
                dict.push(Arc::from(r.str()?));
            }
            ColumnData::Str {
                dict,
                codes: r.take(rows * 4)?.chunks_exact(4).map(le_u32).collect(),
                valid,
            }
        }
    })
}

fn get_block(r: &mut Reader<'_>) -> Result<TableBlock, WireError> {
    let table = r.str()?.to_string();
    // A column definition is a length prefix, a type byte and a role byte.
    let width = r.count(6)?;
    let mut defs = Vec::with_capacity(width);
    for _ in 0..width {
        let name = r.str()?.to_string();
        let data_type = match r.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Str,
            3 => DataType::Bool,
            other => return Err(bad(format!("unknown column type code {other}"))),
        };
        let role = match r.u8()? {
            0 => ColumnRole::Categorical,
            1 => ColumnRole::Quantitative,
            2 => ColumnRole::Temporal,
            other => return Err(bad(format!("unknown column role code {other}"))),
        };
        defs.push(ColumnDef::new(name, data_type, role));
    }
    let total_rows = r.u64()?;
    let first_row = r.u64()?;
    let rows = r.u32()? as usize;
    if rows > CHUNK_ROWS {
        return Err(bad(format!(
            "block of {rows} rows exceeds the {CHUNK_ROWS}-row block limit"
        )));
    }
    let mut columns = Vec::with_capacity(width);
    for def in &defs {
        columns.push(get_column(r, def, rows)?);
    }
    if width == 0 && rows != 0 {
        return Err(bad(format!("block declares {rows} rows of no columns")));
    }
    TableBlock::new(Schema::new(table, defs), total_rows, first_row, columns)
}

// --------------------------------------------------------------- responses

fn put_result(w: &mut Writer, result: &ResultSet) -> Result<(), WireError> {
    let width = result.n_cols();
    if width == 0 && !result.is_empty() {
        return Err(bad(
            "a result with rows but no columns cannot cross the wire",
        ));
    }
    w.count(width);
    for name in result.columns() {
        w.str(name);
    }
    // One pass: values go to a side buffer while the string table fills,
    // then the table is written ahead of them.
    let mut table: Vec<&str> = Vec::new();
    let mut index: HashMap<&str, u32> = HashMap::new();
    let mut values = Writer::with_capacity(result.n_rows() * width * 9);
    for row in result.rows() {
        for v in row.refs() {
            match v {
                ValueRef::Null => values.u8(VAL_NULL),
                ValueRef::Bool(false) => values.u8(VAL_FALSE),
                ValueRef::Bool(true) => values.u8(VAL_TRUE),
                // The narrowest width that holds the value: grouped
                // results are mostly counts and small keys.
                ValueRef::Int(x) => {
                    if let Ok(v) = i8::try_from(x) {
                        values.u8(VAL_INT8);
                        values.buf.extend_from_slice(&v.to_le_bytes());
                    } else if let Ok(v) = i16::try_from(x) {
                        values.u8(VAL_INT16);
                        values.buf.extend_from_slice(&v.to_le_bytes());
                    } else if let Ok(v) = i32::try_from(x) {
                        values.u8(VAL_INT32);
                        values.buf.extend_from_slice(&v.to_le_bytes());
                    } else {
                        values.u8(VAL_INT64);
                        values.buf.extend_from_slice(&x.to_le_bytes());
                    }
                }
                ValueRef::Float(x) => {
                    values.u8(VAL_FLOAT);
                    values.u64(x.to_bits());
                }
                ValueRef::Str(s) => {
                    let next = table.len();
                    let at = *index.entry(s).or_insert_with(|| {
                        table.push(s);
                        u32::try_from(next).unwrap_or(u32::MAX)
                    });
                    values.u8(VAL_STR);
                    values.u32(at);
                }
            }
        }
    }
    w.count(table.len());
    for s in table {
        w.str(s);
    }
    w.count(result.n_rows());
    w.buf.extend_from_slice(&values.buf);
    Ok(())
}

fn get_result(r: &mut Reader<'_>) -> Result<ResultSet, WireError> {
    let width = r.count(4)?;
    let mut columns = Vec::with_capacity(width);
    for _ in 0..width {
        columns.push(r.str()?.to_string());
    }
    let entries = r.count(4)?;
    let mut strings: Vec<Arc<str>> = Vec::with_capacity(entries);
    for _ in 0..entries {
        strings.push(Arc::from(r.str()?));
    }
    // A value is at least its tag byte, so a row is at least `width`
    // bytes; rows of no columns would cost nothing and bound nothing.
    let n_rows = r.count(width)?;
    if width == 0 && n_rows != 0 {
        return Err(bad(format!("result declares {n_rows} rows of no columns")));
    }
    let mut rows = ResultBuilder::with_capacity(width, n_rows);
    for _ in 0..n_rows {
        for _ in 0..width {
            rows.push(match r.u8()? {
                VAL_NULL => Value::Null,
                VAL_FALSE => Value::Bool(false),
                VAL_TRUE => Value::Bool(true),
                VAL_INT8 => Value::Int(i64::from(i8::from_le_bytes(r.array()?))),
                VAL_INT16 => Value::Int(i64::from(i16::from_le_bytes(r.array()?))),
                VAL_INT32 => Value::Int(i64::from(i32::from_le_bytes(r.array()?))),
                VAL_INT64 => Value::Int(i64::from_le_bytes(r.array()?)),
                VAL_FLOAT => Value::Float(f64::from_bits(r.u64()?)),
                VAL_STR => {
                    let at = r.u32()? as usize;
                    match strings.get(at) {
                        Some(s) => Value::Str(Arc::clone(s)),
                        None => {
                            return Err(bad(format!(
                                "string index {at} is outside the {}-entry string table",
                                strings.len()
                            )))
                        }
                    }
                }
                other => return Err(bad(format!("unknown value tag {other}"))),
            });
        }
        rows.end_row();
    }
    Ok(rows.finish(columns))
}

fn put_exec_stats(w: &mut Writer, s: &ExecStats) {
    // Exhaustive on purpose: a new `ExecStats` field fails to compile here
    // instead of silently not crossing.
    let ExecStats {
        rows_scanned,
        rows_matched,
        groups,
        morsels_pruned,
        delta_hits,
        delta_group_hits,
        delta_rows_saved,
    } = s;
    for v in [
        rows_scanned,
        rows_matched,
        groups,
        morsels_pruned,
        delta_hits,
        delta_group_hits,
        delta_rows_saved,
    ] {
        w.size(*v);
    }
}

fn get_exec_stats(r: &mut Reader<'_>) -> Result<ExecStats, WireError> {
    Ok(ExecStats {
        rows_scanned: r.size()?,
        rows_matched: r.size()?,
        groups: r.size()?,
        morsels_pruned: r.size()?,
        delta_hits: r.size()?,
        delta_group_hits: r.size()?,
        delta_rows_saved: r.size()?,
    })
}

fn put_server_stats(w: &mut Writer, s: &ServerStatsSnapshot) {
    let ServerStatsSnapshot {
        connections,
        active_connections,
        requests,
        executes,
        registers,
        engine_errors,
        protocol_errors,
    } = s;
    for v in [
        connections,
        active_connections,
        requests,
        executes,
        registers,
        engine_errors,
        protocol_errors,
    ] {
        w.u64(*v);
    }
}

fn get_server_stats(r: &mut Reader<'_>) -> Result<ServerStatsSnapshot, WireError> {
    Ok(ServerStatsSnapshot {
        connections: r.u64()?,
        active_connections: r.u64()?,
        requests: r.u64()?,
        executes: r.u64()?,
        registers: r.u64()?,
        engine_errors: r.u64()?,
        protocol_errors: r.u64()?,
    })
}

fn put_engine_error(w: &mut Writer, e: &EngineError) {
    let (code, message) = match e {
        EngineError::UnknownTable(t) => (ERR_UNKNOWN_TABLE, t),
        EngineError::UnknownColumn { table, column } => {
            w.u8(ERR_UNKNOWN_COLUMN);
            w.str(table);
            w.str(column);
            return;
        }
        EngineError::Unsupported(m) => (ERR_UNSUPPORTED, m),
        EngineError::Invalid(m) => (ERR_INVALID, m),
        EngineError::Transient(m) => (ERR_TRANSIENT, m),
        EngineError::Internal(m) => (ERR_INTERNAL, m),
    };
    w.u8(code);
    w.str(message);
}

fn get_engine_error(r: &mut Reader<'_>) -> Result<EngineError, WireError> {
    let code = r.u8()?;
    let first = r.str()?.to_string();
    Ok(match code {
        ERR_UNKNOWN_TABLE => EngineError::UnknownTable(first),
        ERR_UNKNOWN_COLUMN => EngineError::UnknownColumn {
            table: first,
            column: r.str()?.to_string(),
        },
        ERR_UNSUPPORTED => EngineError::Unsupported(first),
        ERR_INVALID => EngineError::Invalid(first),
        ERR_TRANSIENT => EngineError::Transient(first),
        ERR_INTERNAL => EngineError::Internal(first),
        other => return Err(bad(format!("unknown engine error code {other}"))),
    })
}

/// Fails only for a [`ResultSet`] the format cannot carry: rows of no
/// columns.
pub(crate) fn encode_response(resp: &Response) -> Result<Vec<u8>, WireError> {
    let mut w = Writer::with_capacity(match resp {
        Response::Result { result, .. } => {
            160 + 16 * result.n_cols() + 10 * result.n_rows() * result.n_cols()
        }
        _ => 64,
    });
    match resp {
        Response::Registered { rows } => {
            w.u8(RESP_REGISTERED);
            w.u64(*rows);
        }
        Response::Result {
            result,
            stats,
            elapsed_ns,
        } => {
            w.u8(RESP_RESULT);
            put_result(&mut w, result)?;
            put_exec_stats(&mut w, stats);
            w.u64(*elapsed_ns);
        }
        Response::EngineFailure { error } => {
            w.u8(RESP_ENGINE_FAILURE);
            put_engine_error(&mut w, error);
        }
        Response::Stats { stats } => {
            w.u8(RESP_STATS);
            put_server_stats(&mut w, stats);
        }
        Response::ShuttingDown => w.u8(RESP_SHUTTING_DOWN),
        Response::BadRequest { message } => {
            w.u8(RESP_BAD_REQUEST);
            w.str(message);
        }
    }
    Ok(w.buf)
}

pub(crate) fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        RESP_REGISTERED => Response::Registered { rows: r.u64()? },
        RESP_RESULT => Response::Result {
            result: get_result(&mut r)?,
            stats: get_exec_stats(&mut r)?,
            elapsed_ns: r.u64()?,
        },
        RESP_ENGINE_FAILURE => Response::EngineFailure {
            error: get_engine_error(&mut r)?,
        },
        RESP_STATS => Response::Stats {
            stats: get_server_stats(&mut r)?,
        },
        RESP_SHUTTING_DOWN => Response::ShuttingDown,
        RESP_BAD_REQUEST => Response::BadRequest {
            message: r.str()?.to_string(),
        },
        other => return Err(bad(format!("unknown response tag {other}"))),
    };
    r.finish()?;
    Ok(resp)
}
