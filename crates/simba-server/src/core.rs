//! Transport-independent server brain.
//!
//! [`ServerCore`] owns the engine catalog and serves decoded [`Request`]s;
//! it knows nothing about sockets. The TCP listener ([`crate::server`])
//! and the in-process loopback transport ([`crate::client`]) both drive
//! the same `handle_frame` path, so the deterministic loopback tests
//! exercise every byte of the encode → decode → dispatch → encode
//! pipeline that a live TCP connection does.

use crate::codec;
use crate::proto::{
    EngineSel, Frame, FrameKind, Request, Response, ServerStatsSnapshot, TableBlock, WireError,
};
use simba_engine::{Dbms, EngineKind};
use simba_sql::parse_select;
use simba_store::{TableAssembler, TableChunk};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// An engine selector as the catalog keys it: the parsed kind, so no
/// request allocates a name to look its engine up.
type SelKey = (EngineKind, usize);

/// How far ahead of the rows actually received an upload's buffers may be
/// sized. A block's `total_rows` is a promise the bytes have not kept yet,
/// so it buys room for at most this many times the rows that have arrived:
/// honest uploads of [`CHUNK_ROWS`](crate::proto::CHUNK_ROWS)-row blocks
/// are sized once up to 1M rows and twice up to 16M, and a small block
/// declaring a huge total reserves a small multiple of its own size.
const RESERVE_AHEAD: u64 = 16;

/// Uploads a server holds part-way at once: tables whose first block has
/// arrived and whose last has not. A client loads one table per engine at
/// a time, so this leaves room for many clients. A first block that would
/// open one more is refused; a block that continues or restarts a pending
/// upload never is, and a table sent as one block holds no place.
const MAX_UPLOADS: usize = 16;

/// A table part-way through its blocks.
struct Upload {
    total_rows: u64,
    /// Rows the assembler's buffers have room for.
    reserved: u64,
    assembler: TableAssembler,
}

impl Upload {
    fn starting_with(block: &TableBlock) -> Upload {
        Upload {
            total_rows: block.total_rows(),
            reserved: 0,
            assembler: TableAssembler::new(block.schema().clone(), 0),
        }
    }

    fn rows(&self) -> u64 {
        self.assembler.rows() as u64
    }

    fn continues_with(&self, block: &TableBlock) -> bool {
        block.first_row() == self.rows()
            && block.total_rows() == self.total_rows
            && block.schema() == self.assembler.schema()
    }

    /// `TableBlock`'s own checks plus `continues_with` cover every
    /// condition `TableChunk::new` and `append_chunk` would panic on.
    fn append(&mut self, block: TableBlock) {
        let after = self.rows() + block.rows() as u64;
        if after > self.reserved {
            self.reserved = self.total_rows.min(after.saturating_mul(RESERVE_AHEAD));
            // Bounded by RESERVE_AHEAD blocks' worth of rows held in memory.
            self.assembler
                .reserve((self.reserved - self.rows()) as usize);
        }
        let (_, columns) = block.into_parts();
        self.assembler.append_chunk(TableChunk::new(columns));
    }
}

/// Request/connection counters, updated with relaxed atomics (they are
/// monotone totals; cross-counter consistency is not needed).
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    connections: AtomicU64,
    active_connections: AtomicU64,
    requests: AtomicU64,
    executes: AtomicU64,
    registers: AtomicU64,
    engine_errors: AtomicU64,
    protocol_errors: AtomicU64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            executes: self.executes.load(Ordering::Relaxed),
            registers: self.registers.load(Ordering::Relaxed),
            engine_errors: self.engine_errors.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// The engine catalog plus request dispatch, shared by every connection.
///
/// Engines are built on demand, one per distinct `(kind, scan_threads)`
/// selector, and live for the life of the server — a client that
/// registers a table and later executes against the same selector (even
/// on a different connection) reaches the same engine instance. Table
/// uploads in progress are keyed by selector and table name the same way,
/// so an upload's blocks may arrive on any of a client's connections.
pub struct ServerCore {
    /// One engine per selector. The lock is held only to find or build an
    /// engine and clone its `Arc`, once per request.
    engines: Mutex<Vec<(SelKey, Arc<dyn Dbms>)>>,
    /// Uploads that have received some but not all of their blocks, at
    /// most [`MAX_UPLOADS`]. An entry is taken out while a block is
    /// appended to it and put back only if that block was accepted and was
    /// not the last. The lock is held across the append, so an upload out
    /// for its append still counts against the cap.
    uploads: Mutex<HashMap<(SelKey, String), Upload>>,
    stats: ServerStats,
    draining: AtomicBool,
}

impl Default for ServerCore {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ServerCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerCore")
            .field("draining", &self.is_draining())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl ServerCore {
    /// Fresh core with an empty engine catalog.
    pub fn new() -> ServerCore {
        ServerCore {
            engines: Mutex::new(Vec::new()),
            uploads: Mutex::new(HashMap::new()),
            stats: ServerStats::default(),
            draining: AtomicBool::new(false),
        }
    }

    /// Has a [`Request::Shutdown`] been received? Transports poll this to
    /// stop accepting and drain.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flip the drain flag directly (used by signal-less test harnesses;
    /// the wire path is [`Request::Shutdown`]).
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Record a connection opening (transport bookkeeping for
    /// [`Response::Stats`]).
    pub fn connection_opened(&self) {
        self.stats.connections.fetch_add(1, Ordering::Relaxed);
        self.stats
            .active_connections
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection closing.
    pub fn connection_closed(&self) {
        self.stats
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    }

    /// Record a frame that could not even be decoded (counted separately
    /// from well-framed requests the dispatcher rejects itself).
    pub fn note_protocol_error(&self) {
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counter totals.
    pub fn stats_snapshot(&self) -> ServerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Serve one request frame: decode, dispatch, encode the response with
    /// the request's id. This is the full wire path minus the socket —
    /// both TCP connections and the loopback transport call it. The frame
    /// is taken by value so a table block's payload is freed as soon as it
    /// has been decoded, before the block is assembled.
    pub fn handle_frame(&self, frame: Frame) -> Frame {
        let _span = simba_obs::trace::span("server.frame", "server");
        let Frame {
            kind,
            request_id,
            payload,
        } = frame;
        let response = match kind {
            FrameKind::Response => {
                self.bad_request("received a response frame on the server side".to_string())
            }
            FrameKind::Request => match codec::decode_request(&payload) {
                Ok(req) => {
                    drop(payload);
                    self.handle(req)
                }
                Err(e) => {
                    // An upload whose block was unreadable cannot complete.
                    if let Some((sel, table)) = codec::register_target(&payload) {
                        if let Some(kind) = EngineKind::from_name(&sel.kind) {
                            self.lock_uploads()
                                .remove(&((kind, sel.scan_threads), table));
                        }
                    }
                    self.bad_request(format!("unreadable request: {e}"))
                }
            },
        };
        // A response that does not encode (a result set no engine should
        // produce, or one past the frame limit) still owes the client an
        // answer on this request id.
        Frame::response(request_id, &response).unwrap_or_else(|e| Frame {
            kind: FrameKind::Response,
            request_id,
            payload: codec::encode_response(
                &self.bad_request(format!("response did not encode: {e}")),
            )
            .unwrap_or_default(),
        })
    }

    /// Serve one decoded request.
    pub fn handle(&self, req: Request) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::RegisterTable { engine, block } => self.register_block(&engine, block),
            Request::Execute { engine, sql } => self.execute(&engine, &sql),
            Request::Stats => Response::Stats {
                stats: self.stats.snapshot(),
            },
            Request::Shutdown => {
                let _span = simba_obs::trace::span("server.shutdown", "server");
                self.begin_drain();
                Response::ShuttingDown
            }
        }
    }

    fn bad_request(&self, message: String) -> Response {
        self.note_protocol_error();
        Response::BadRequest { message }
    }

    fn lock_uploads(&self) -> MutexGuard<'_, HashMap<(SelKey, String), Upload>> {
        // Entries are only ever inserted or removed whole.
        self.uploads.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn register_block(&self, sel: &EngineSel, block: TableBlock) -> Response {
        let _span = simba_obs::trace::span("server.register", "server");
        let (kind, dbms) = match self.engine(sel) {
            Ok(found) => found,
            Err(resp) => return resp,
        };
        let key = ((kind, sel.scan_threads), block.schema().table.clone());
        let mut uploads = self.lock_uploads();
        // Taken out, not borrowed: whichever way this block fails, nothing
        // is left behind for the next one to trip over.
        let pending = uploads.remove(&key);
        let mut upload = match pending {
            None if block.first_row() == 0
                && (block.rows() as u64) < block.total_rows()
                && uploads.len() >= MAX_UPLOADS =>
            {
                return self.bad_request(format!(
                    "`{}` would open an upload past the {MAX_UPLOADS} a server holds in \
                     progress; finish one first",
                    key.1
                ));
            }
            _ if block.first_row() == 0 => Upload::starting_with(&block),
            Some(upload) if upload.continues_with(&block) => upload,
            Some(upload) => {
                return self.bad_request(format!(
                    "block at row {} of {} of `{}` does not continue its upload, which has \
                     {} of {} rows (or its schema changed); the upload is dropped",
                    block.first_row(),
                    block.total_rows(),
                    key.1,
                    upload.rows(),
                    upload.total_rows
                ))
            }
            None => {
                return self.bad_request(format!(
                    "block at row {} of `{}` has no upload in progress to continue",
                    block.first_row(),
                    key.1
                ))
            }
        };
        upload.append(block);
        let rows = upload.rows();
        if rows == upload.total_rows {
            drop(uploads);
            dbms.register(Arc::new(upload.assembler.finish()));
            self.stats.registers.fetch_add(1, Ordering::Relaxed);
        } else {
            uploads.insert(key, upload);
        }
        Response::Registered { rows }
    }

    fn execute(&self, sel: &EngineSel, sql: &str) -> Response {
        let _span = simba_obs::trace::span("server.execute", "server");
        let dbms = match self.engine(sel) {
            Ok((_, dbms)) => dbms,
            Err(resp) => return resp,
        };
        let query = match parse_select(sql) {
            Ok(q) => q,
            Err(e) => return self.bad_request(format!("unparseable SQL: {e}")),
        };
        self.stats.executes.fetch_add(1, Ordering::Relaxed);
        match dbms.execute(&query) {
            Ok(out) => Response::Result {
                result: out.result,
                stats: out.stats,
                // u64 nanoseconds cap at ~584 years; saturate rather than
                // wrap if a clock goes absurd.
                elapsed_ns: u64::try_from(out.elapsed.as_nanos()).unwrap_or(u64::MAX),
            },
            Err(error) => {
                self.stats.engine_errors.fetch_add(1, Ordering::Relaxed);
                Response::EngineFailure { error }
            }
        }
    }

    /// Look up (building on first use) the engine a selector addresses.
    fn engine(&self, sel: &EngineSel) -> Result<(EngineKind, Arc<dyn Dbms>), Response> {
        let Some(kind) = EngineKind::from_name(&sel.kind) else {
            return Err(self.bad_request(format!("unknown engine `{}`", sel.kind)));
        };
        let key = (kind, sel.scan_threads);
        let mut engines = self.engines.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, dbms)) = engines.iter().find(|(k, _)| *k == key) {
            return Ok((kind, Arc::clone(dbms)));
        }
        let dbms = kind.build_with_threads(sel.scan_threads);
        engines.push((key, Arc::clone(&dbms)));
        Ok((kind, dbms))
    }
}

/// The one frame `bytes` hold, reassembled by a [`crate::proto::Decoder`]
/// the way a socket's bytes would be.
pub(crate) fn reframe(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut decoder = crate::proto::Decoder::new();
    decoder.feed(bytes);
    decoder
        .next_frame()?
        .ok_or_else(|| WireError::Protocol("incomplete frame".to_string()))
}

/// One wire round-trip against a core, in process: push the request bytes
/// through a decoder, dispatch, encode the response frame. The loopback
/// transport does the same.
pub fn serve_encoded(core: &ServerCore, request_bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    Ok(core.handle_frame(reframe(request_bytes)?).encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::CHUNK_ROWS;
    use simba_store::{ColumnDef, Schema, Table, TableBuilder, Value, MORSEL_ROWS};

    fn sel(kind: &str) -> EngineSel {
        EngineSel {
            kind: kind.to_string(),
            scan_threads: 1,
        }
    }

    fn tiny_table() -> TableBlock {
        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
            ],
        );
        let mut b = TableBuilder::new(schema, 3);
        b.push_row(vec![Value::str("A"), Value::Int(1)]);
        b.push_row(vec![Value::str("B"), Value::Int(2)]);
        b.push_row(vec![Value::str("A"), Value::Int(4)]);
        TableBlock::split(&b.finish()).next().expect("one block")
    }

    /// `rows` rows of `(q, n)` with `n` the row number.
    fn tall_table(rows: usize) -> Table {
        let schema = Schema::new(
            "tall",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
            ],
        );
        let mut b = TableBuilder::new(schema, rows);
        for i in 0..rows {
            b.push_row(vec![
                Value::str(["A", "B", "C"][i % 3]),
                Value::Int(i as i64),
            ]);
        }
        b.finish()
    }

    fn register(core: &ServerCore, block: TableBlock) -> Response {
        core.handle(Request::RegisterTable {
            engine: sel("duckdb-like"),
            block,
        })
    }

    fn sum_n(core: &ServerCore, table: &str) -> Response {
        core.handle(Request::Execute {
            engine: sel("duckdb-like"),
            sql: format!("SELECT COUNT(*) AS c, SUM(n) AS s FROM {table}"),
        })
    }

    #[test]
    fn register_then_execute_round_trips() {
        let core = ServerCore::new();
        let resp = core.handle(Request::RegisterTable {
            engine: sel("sqlite-like"),
            block: tiny_table(),
        });
        assert_eq!(resp, Response::Registered { rows: 3 });

        let resp = core.handle(Request::Execute {
            engine: sel("sqlite-like"),
            sql: "SELECT q, SUM(n) AS s FROM t GROUP BY q".to_string(),
        });
        match resp {
            Response::Result { result, stats, .. } => {
                let mut rows: Vec<Vec<Value>> = result.rows().map(|r| r.to_vec()).collect();
                rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                assert_eq!(
                    rows,
                    vec![
                        vec![Value::str("A"), Value::Int(5)],
                        vec![Value::str("B"), Value::Int(2)],
                    ]
                );
                assert_eq!(stats.rows_scanned, 3);
            }
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn blocks_assemble_into_the_table_they_were_split_from() {
        let rows = 2 * CHUNK_ROWS + 5;
        let table = tall_table(rows);
        let core = ServerCore::new();
        let mut so_far = 0;
        for block in TableBlock::split(&table) {
            so_far += block.rows() as u64;
            // Nothing is queryable until the last block lands.
            assert!(matches!(
                sum_n(&core, "tall"),
                Response::EngineFailure { .. }
            ));
            assert_eq!(
                register(&core, block),
                Response::Registered { rows: so_far }
            );
        }
        assert_eq!(so_far, rows as u64);
        assert_eq!(core.stats_snapshot().registers, 1);
        let n = rows as i64;
        match sum_n(&core, "tall") {
            Response::Result { result, .. } => assert_eq!(
                result.sorted_rows(),
                vec![vec![Value::Int(n), Value::Int(n * (n - 1) / 2)]]
            ),
            other => panic!("expected a result, got {other:?}"),
        }
    }

    #[test]
    fn out_of_order_blocks_drop_the_upload_and_a_fresh_one_replaces_it() {
        let table = tall_table(2 * CHUNK_ROWS + 5);
        let blocks: Vec<TableBlock> = TableBlock::split(&table).collect();
        let core = ServerCore::new();

        // A later block with nothing to continue.
        assert!(matches!(
            register(&core, blocks[1].clone()),
            Response::BadRequest { .. }
        ));
        // Skipping a block drops the upload: the block that would have
        // been next is then refused too.
        assert_eq!(
            register(&core, blocks[0].clone()),
            Response::Registered {
                rows: CHUNK_ROWS as u64
            }
        );
        assert!(matches!(
            register(&core, blocks[2].clone()),
            Response::BadRequest { .. }
        ));
        assert!(matches!(
            register(&core, blocks[1].clone()),
            Response::BadRequest { .. }
        ));
        assert!(core.lock_uploads().is_empty());
        assert_eq!(core.stats_snapshot().protocol_errors, 3);

        // Starting over mid-upload replaces what was pending.
        register(&core, blocks[0].clone());
        register(&core, blocks[1].clone());
        for block in blocks {
            assert!(matches!(
                register(&core, block),
                Response::Registered { .. }
            ));
        }
        assert!(core.lock_uploads().is_empty());
        assert_eq!(core.stats_snapshot().registers, 1);
        assert!(matches!(sum_n(&core, "tall"), Response::Result { .. }));
    }

    /// Block `half` (0 or 1) of the two-block, `2 * MORSEL_ROWS`-row
    /// table `name`.
    fn half_block(name: &str, half: u64) -> TableBlock {
        let schema = Schema::new(name, vec![ColumnDef::quantitative_int("n")]);
        let mut b = TableBuilder::new(schema.clone(), MORSEL_ROWS);
        for i in 0..MORSEL_ROWS {
            b.push_row(vec![Value::Int(i as i64)]);
        }
        let (_, columns) = TableBlock::split(&b.finish())
            .next()
            .expect("one block")
            .into_parts();
        let rows = MORSEL_ROWS as u64;
        TableBlock::new(schema, 2 * rows, half * rows, columns).expect("well-formed")
    }

    #[test]
    fn uploads_in_progress_are_capped_and_continuations_never_refused() {
        let core = ServerCore::new();
        let half = Response::Registered {
            rows: MORSEL_ROWS as u64,
        };
        for i in 0..MAX_UPLOADS {
            assert_eq!(register(&core, half_block(&format!("t{i}"), 0)), half);
        }
        match register(&core, half_block("extra", 0)) {
            Response::BadRequest { message } => {
                assert!(message.contains(&MAX_UPLOADS.to_string()), "{message}")
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(core.lock_uploads().len(), MAX_UPLOADS);
        // At the cap: a one-block table holds no place, and restarting a
        // pending upload replaces it.
        assert_eq!(
            register(&core, tiny_table()),
            Response::Registered { rows: 3 }
        );
        assert_eq!(register(&core, half_block("t0", 0)), half);
        // A continuation is never refused; finishing an upload frees its
        // place for the next one.
        assert_eq!(
            register(&core, half_block("t1", 1)),
            Response::Registered {
                rows: 2 * MORSEL_ROWS as u64
            }
        );
        assert_eq!(register(&core, half_block("extra", 0)), half);
        assert_eq!(core.lock_uploads().len(), MAX_UPLOADS);
        let stats = core.stats_snapshot();
        assert_eq!((stats.protocol_errors, stats.registers), (1, 2));
    }

    #[test]
    fn a_declared_total_reserves_no_more_than_the_rows_received_justify() {
        let table = tall_table(CHUNK_ROWS);
        let (schema, columns) = TableBlock::split(&table)
            .next()
            .expect("one block")
            .into_parts();
        // One real block that claims to open a table of 2^60 rows.
        let block = TableBlock::new(schema, 1 << 60, 0, columns).expect("well-formed");
        let mut upload = Upload::starting_with(&block);
        upload.append(block);
        assert_eq!(upload.reserved, RESERVE_AHEAD * CHUNK_ROWS as u64);
    }

    /// The same failing query against retired engine names and a live
    /// engine: a retired name addresses nothing, so it is a protocol error;
    /// the live engine's error crosses with its variant intact.
    #[test]
    fn engine_errors_cross_with_variant_intact() {
        let core = ServerCore::new();
        let missing = |kind: &str| {
            core.handle(Request::Execute {
                engine: sel(kind),
                sql: "SELECT COUNT(*) FROM missing".to_string(),
            })
        };
        for (i, retired) in ["postgres-like", "monetdb-like"].into_iter().enumerate() {
            let resp = missing(retired);
            assert!(matches!(resp, Response::BadRequest { .. }), "{resp:?}");
            assert_eq!(core.stats_snapshot().protocol_errors, i as u64 + 1);
        }
        match missing("duckdb-like") {
            Response::EngineFailure { error } => {
                assert_eq!(
                    error,
                    simba_engine::EngineError::UnknownTable("missing".into())
                );
                assert!(!error.is_transient());
            }
            other => panic!("expected an engine failure, got {other:?}"),
        }
        let stats = core.stats_snapshot();
        assert_eq!((stats.protocol_errors, stats.engine_errors), (2, 1));
    }

    #[test]
    fn unknown_engine_and_bad_sql_are_bad_requests() {
        let core = ServerCore::new();
        let resp = core.handle(Request::Execute {
            engine: sel("oracle23ai"),
            sql: "SELECT COUNT(*) FROM t".to_string(),
        });
        assert!(matches!(resp, Response::BadRequest { .. }), "{resp:?}");

        let resp = core.handle(Request::Execute {
            engine: sel("sqlite-like"),
            sql: "DELETE FROM t".to_string(),
        });
        assert!(matches!(resp, Response::BadRequest { .. }), "{resp:?}");
        assert_eq!(core.stats_snapshot().protocol_errors, 2);
    }

    #[test]
    fn catalog_reuses_engine_instances_across_requests() {
        let core = ServerCore::new();
        core.handle(Request::RegisterTable {
            engine: sel("duckdb-like"),
            block: tiny_table(),
        });
        // Same selector on a "different connection": table must still be
        // registered (same engine instance).
        let resp = core.handle(Request::Execute {
            engine: sel("duckdb-like"),
            sql: "SELECT COUNT(*) AS c FROM t".to_string(),
        });
        assert!(matches!(resp, Response::Result { .. }), "{resp:?}");
        // Different scan_threads = a different instance without the table.
        let resp = core.handle(Request::Execute {
            engine: EngineSel {
                kind: "duckdb-like".to_string(),
                scan_threads: 2,
            },
            sql: "SELECT COUNT(*) AS c FROM t".to_string(),
        });
        assert!(matches!(resp, Response::EngineFailure { .. }), "{resp:?}");
    }

    #[test]
    fn shutdown_flips_the_drain_flag() {
        let core = ServerCore::new();
        assert!(!core.is_draining());
        let resp = core.handle(Request::Shutdown);
        assert_eq!(resp, Response::ShuttingDown);
        assert!(core.is_draining());
    }

    #[test]
    fn handle_frame_covers_the_full_byte_path() {
        let core = ServerCore::new();
        let frame = Frame::request(7, &Request::Stats).expect("frame builds");
        let reply = core.handle_frame(frame);
        assert_eq!(reply.kind, FrameKind::Response);
        assert_eq!(reply.request_id, 7);
        match reply.parse_response().expect("response parses") {
            Response::Stats { stats } => assert_eq!(stats.requests, 1),
            other => panic!("expected stats, got {other:?}"),
        }

        // A response frame sent at the server is rejected, not dispatched.
        let bogus = Frame {
            kind: FrameKind::Response,
            request_id: 9,
            payload: Vec::new(),
        };
        let reply = core.handle_frame(bogus);
        assert!(matches!(
            reply.parse_response(),
            Ok(Response::BadRequest { .. })
        ));
    }

    #[test]
    fn rows_of_no_columns_are_refused_at_encode_not_sent_malformed() {
        let mut rows = simba_store::ResultBuilder::new(0);
        rows.end_row();
        let malformed = Response::Result {
            result: rows.finish(Vec::new()),
            stats: Default::default(),
            elapsed_ns: 0,
        };
        assert!(matches!(
            Frame::response(3, &malformed),
            Err(WireError::Protocol(_))
        ));
    }
}
