//! Transport-independent server brain.
//!
//! [`ServerCore`] owns the engine catalog and serves decoded [`Request`]s;
//! it knows nothing about sockets. The TCP listener ([`crate::server`])
//! and the in-process loopback transport ([`crate::client`]) both drive
//! the same `handle_frame` path, so the deterministic loopback tests
//! exercise every byte of the encode → decode → dispatch → encode
//! pipeline that a live TCP connection does.

use crate::proto::{
    EngineSel, Frame, FrameKind, Request, Response, ServerStatsSnapshot, WireError,
};
use simba_engine::{Dbms, EngineKind};
use simba_sql::parse_select;
use simba_store::mix::Fnv1a;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independent locks the engine catalog is split across.
/// Connections addressing different engines never contend; 8 shards
/// cover the 4 engine kinds × the handful of scan-thread settings the
/// scenarios use.
const CATALOG_SHARDS: usize = 8;

type CatalogShard = Mutex<Vec<((String, usize), Arc<dyn Dbms>)>>;

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
/// on a different connection) reaches the same engine instance.
pub struct ServerCore {
    shards: Vec<CatalogShard>,
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
            shards: (0..CATALOG_SHARDS)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
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

    /// Serve one encoded request frame: decode, dispatch, encode the
    /// response with the request's id. This is the full wire path minus
    /// the socket — both TCP connections and the loopback transport call
    /// it with raw frame structs.
    pub fn handle_frame(&self, frame: &Frame) -> Frame {
        let _span = simba_obs::trace::span("server.frame", "server");
        let response = match frame.kind {
            FrameKind::Response => {
                self.note_protocol_error();
                Response::BadRequest {
                    message: "received a response frame on the server side".to_string(),
                }
            }
            FrameKind::Request => match frame.parse_request() {
                Ok(req) => self.handle(&req),
                Err(e) => {
                    self.note_protocol_error();
                    Response::BadRequest {
                        message: format!("unreadable request: {e}"),
                    }
                }
            },
        };
        // A response that fails to serialize would be a harness bug; fall
        // back to a plain BadRequest so the client is never left hanging
        // on a request id.
        Frame::response(frame.request_id, &response).unwrap_or_else(|e| {
            let fallback = Response::BadRequest {
                message: format!("response did not serialize: {e}"),
            };
            Frame {
                kind: FrameKind::Response,
                request_id: frame.request_id,
                payload: serde_json::to_string(&fallback)
                    .unwrap_or_else(|_| String::from("{\"bad_request\":{\"message\":\"\"}}"))
                    .into_bytes(),
            }
        })
    }

    /// Serve one decoded request.
    pub fn handle(&self, req: &Request) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        match req {
            Request::RegisterTable { engine, table } => {
                let _span = simba_obs::trace::span("server.register", "server");
                let dbms = match self.engine(engine) {
                    Ok(d) => d,
                    Err(resp) => return resp,
                };
                let rebuilt = match table.clone().into_table() {
                    Ok(t) => t,
                    Err(e) => {
                        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        return Response::BadRequest {
                            message: format!("malformed table: {e}"),
                        };
                    }
                };
                let rows = rebuilt.row_count() as u64;
                dbms.register(Arc::new(rebuilt));
                self.stats.registers.fetch_add(1, Ordering::Relaxed);
                Response::Registered { rows }
            }
            Request::Execute { engine, sql } => self.execute(engine, sql, None),
            Request::ExecuteAt { engine, sql, ctx } => self.execute(engine, sql, Some(ctx)),
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

    fn execute(
        &self,
        sel: &EngineSel,
        sql: &str,
        ctx: Option<&simba_engine::QueryCtx>,
    ) -> Response {
        let _span = simba_obs::trace::span("server.execute", "server");
        let dbms = match self.engine(sel) {
            Ok(d) => d,
            Err(resp) => return resp,
        };
        let query = match parse_select(sql) {
            Ok(q) => q,
            Err(e) => {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Response::BadRequest {
                    message: format!("unparseable SQL: {e}"),
                };
            }
        };
        self.stats.executes.fetch_add(1, Ordering::Relaxed);
        let outcome = match ctx {
            Some(ctx) => dbms.execute_at(&query, ctx),
            None => dbms.execute(&query),
        };
        match outcome {
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
    fn engine(&self, sel: &EngineSel) -> Result<Arc<dyn Dbms>, Response> {
        let kind = match EngineKind::from_name(&sel.kind) {
            Some(k) => k,
            None => {
                self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                return Err(Response::BadRequest {
                    message: format!("unknown engine `{}`", sel.kind),
                });
            }
        };
        let key = (kind.name().to_string(), sel.scan_threads);
        let shard = &self.shards[shard_index(&key)];
        let mut entries = shard.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, dbms)) = entries.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(dbms));
        }
        let dbms = if sel.scan_threads == 1 {
            kind.build()
        } else {
            kind.build_with_threads(sel.scan_threads)
        };
        entries.push((key, Arc::clone(&dbms)));
        Ok(dbms)
    }
}

/// FNV-1a over the selector key, reduced to a shard index. Deterministic
/// (no `RandomState`), so catalog placement is identical across runs.
fn shard_index(key: &(String, usize)) -> usize {
    let mut h = Fnv1a::new();
    h.write(key.0.as_bytes());
    h.write(&key.1.to_le_bytes());
    (h.finish() % CATALOG_SHARDS as u64) as usize
}

/// One wire round-trip against a core, in process: encode the request,
/// push the bytes through a [`crate::proto::Decoder`], dispatch, decode
/// the response bytes back. Shared by the loopback transport and tests.
pub fn serve_encoded(core: &ServerCore, request_bytes: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut decoder = crate::proto::Decoder::new();
    decoder.feed(request_bytes);
    let frame = decoder
        .next_frame()?
        .ok_or_else(|| WireError::Protocol("incomplete frame".to_string()))?;
    Ok(core.handle_frame(&frame).encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::WireTable;
    use simba_store::{ColumnDef, Schema, TableBuilder, Value};

    fn sel(kind: &str) -> EngineSel {
        EngineSel {
            kind: kind.to_string(),
            scan_threads: 1,
        }
    }

    fn tiny_table() -> WireTable {
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
        WireTable::from_table(&b.finish())
    }

    #[test]
    fn register_then_execute_round_trips() {
        let core = ServerCore::new();
        let resp = core.handle(&Request::RegisterTable {
            engine: sel("sqlite-like"),
            table: tiny_table(),
        });
        assert_eq!(resp, Response::Registered { rows: 3 });

        let resp = core.handle(&Request::Execute {
            engine: sel("sqlite-like"),
            sql: "SELECT q, SUM(n) AS s FROM t GROUP BY q".to_string(),
        });
        match resp {
            Response::Result { result, stats, .. } => {
                let mut rows = result.rows;
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
    fn engine_errors_cross_with_variant_intact() {
        let core = ServerCore::new();
        let resp = core.handle(&Request::Execute {
            engine: sel("postgres-like"),
            sql: "SELECT COUNT(*) FROM missing".to_string(),
        });
        match resp {
            Response::EngineFailure { error } => {
                assert_eq!(
                    error,
                    simba_engine::EngineError::UnknownTable("missing".into())
                );
                assert!(!error.is_transient());
            }
            other => panic!("expected an engine failure, got {other:?}"),
        }
    }

    #[test]
    fn unknown_engine_and_bad_sql_are_bad_requests() {
        let core = ServerCore::new();
        let resp = core.handle(&Request::Execute {
            engine: sel("oracle23ai"),
            sql: "SELECT COUNT(*) FROM t".to_string(),
        });
        assert!(matches!(resp, Response::BadRequest { .. }), "{resp:?}");

        let resp = core.handle(&Request::Execute {
            engine: sel("sqlite-like"),
            sql: "DELETE FROM t".to_string(),
        });
        assert!(matches!(resp, Response::BadRequest { .. }), "{resp:?}");
        assert_eq!(core.stats_snapshot().protocol_errors, 2);
    }

    #[test]
    fn catalog_reuses_engine_instances_across_requests() {
        let core = ServerCore::new();
        core.handle(&Request::RegisterTable {
            engine: sel("duckdb-like"),
            table: tiny_table(),
        });
        // Same selector on a "different connection": table must still be
        // registered (same engine instance).
        let resp = core.handle(&Request::Execute {
            engine: sel("duckdb-like"),
            sql: "SELECT COUNT(*) AS c FROM t".to_string(),
        });
        assert!(matches!(resp, Response::Result { .. }), "{resp:?}");
        // Different scan_threads = a different instance without the table.
        let resp = core.handle(&Request::Execute {
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
        let resp = core.handle(&Request::Shutdown);
        assert_eq!(resp, Response::ShuttingDown);
        assert!(core.is_draining());
    }

    #[test]
    fn handle_frame_covers_the_full_byte_path() {
        let core = ServerCore::new();
        let frame = Frame::request(7, &Request::Stats).expect("frame builds");
        let reply = core.handle_frame(&frame);
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
        let reply = core.handle_frame(&bogus);
        assert!(matches!(
            reply.parse_response(),
            Ok(Response::BadRequest { .. })
        ));
    }
}
