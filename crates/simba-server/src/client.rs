//! Client side: [`RemoteDbms`] speaks the wire protocol behind the
//! ordinary [`Dbms`] trait, so the workload driver cannot tell a remote
//! engine from a local one.
//!
//! Two transports exist: [`TcpTransport`] dials a live `simba-server`,
//! and [`LoopbackTransport`] carries the same encoded bytes straight into
//! an in-process [`ServerCore`] — full encode → decode → dispatch →
//! encode → decode in both directions, minus only the socket. The
//! loopback path is what the deterministic remote-vs-local fingerprint
//! tests run on in CI, where no external process is available.
//!
//! # Error mapping
//!
//! | wire condition | surfaced as | retried? |
//! |---|---|---|
//! | connect/read/write failure | [`EngineError::Transient`] | by the driver's resilience policy |
//! | malformed or mismatched frame | [`EngineError::Internal`] | no |
//! | [`Response::BadRequest`] | [`EngineError::Internal`] | no |
//! | [`Response::EngineFailure`] | the server engine's error, variant-exact | per its own variant |
//!
//! The client itself retries a failed round-trip **once** on a fresh
//! connection (a pooled connection may have been idled out by the server
//! between steps); past that, transient classification hands retry
//! control to the driver so backoff accounting stays in one place.

use crate::codec;
use crate::core::{reframe, ServerCore};
use crate::proto::{
    Decoder, EngineSel, Frame, FrameKind, Request, Response, TableBlock, WireError,
};
use simba_engine::{Dbms, EngineError, EngineKind, QueryOutput};
use simba_sql::printer::print_select;
use simba_sql::Select;
use simba_store::Table;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Address literal that selects the in-process loopback transport.
pub const LOOPBACK_ADDR: &str = "loopback";

/// One client connection: sends a request frame, returns the matching
/// response frame.
pub trait Transport: Send {
    /// Send one request frame and block for its response frame.
    fn round_trip(&mut self, request: &Frame) -> Result<Frame, WireError>;
}

/// A pooled TCP connection to a `simba-server`.
pub struct TcpTransport {
    stream: TcpStream,
    decoder: Decoder,
}

impl TcpTransport {
    /// Dial the server.
    pub fn connect(addr: &str) -> Result<TcpTransport, WireError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpTransport {
            stream,
            decoder: Decoder::new(),
        })
    }
}

impl Transport for TcpTransport {
    fn round_trip(&mut self, request: &Frame) -> Result<Frame, WireError> {
        self.stream.write_all(&request.encode())?;
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(frame) = self.decoder.next_frame()? {
                return Ok(frame);
            }
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(WireError::Io(
                    "server closed the connection mid-response".to_string(),
                ));
            }
            self.decoder.feed(&buf[..n]);
        }
    }
}

/// In-process transport: encodes to bytes, hands them to a shared
/// [`ServerCore`], decodes the response bytes. Deterministic (no sockets,
/// no timeouts) but byte-equivalent to the TCP path.
pub struct LoopbackTransport {
    core: Arc<ServerCore>,
}

impl LoopbackTransport {
    /// Transport into the given core.
    pub fn new(core: Arc<ServerCore>) -> LoopbackTransport {
        LoopbackTransport { core }
    }
}

impl Transport for LoopbackTransport {
    fn round_trip(&mut self, request: &Frame) -> Result<Frame, WireError> {
        // `serve_encoded`, except that the encoded request is dropped
        // before the server works on it: a table block is then held once
        // per side, not twice on this one.
        let request = reframe(&request.encode())?;
        reframe(&self.core.handle_frame(request).encode())
    }
}

/// A remote engine behind the [`Dbms`] trait.
///
/// Holds a small connection pool (one transport per concurrent caller;
/// transports are checked out for a round-trip and returned after). A
/// failed round-trip drops its connection and retries once on a fresh
/// one; persistent failure surfaces as [`EngineError::Transient`] for the
/// driver's resilience policy to handle.
pub struct RemoteDbms {
    addr: String,
    sel: EngineSel,
    kind: EngineKind,
    pool: Mutex<Vec<Box<dyn Transport>>>,
    next_id: AtomicU64,
    /// `register` cannot return an error through the trait; a failure is
    /// parked here and surfaced by the next execute.
    register_failure: Mutex<Option<String>>,
    /// Set when `addr` is [`LOOPBACK_ADDR`]: the private in-process server.
    loopback: Option<Arc<ServerCore>>,
}

impl std::fmt::Debug for RemoteDbms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteDbms")
            .field("addr", &self.addr)
            .field("engine", &self.sel)
            .finish()
    }
}

impl RemoteDbms {
    /// Connect to the engine `kind` served at `addr`.
    ///
    /// `addr` may be [`LOOPBACK_ADDR`], which spins up a private
    /// in-process [`ServerCore`] instead of dialing — same wire bytes, no
    /// network. Otherwise the address is dialed eagerly so an unreachable
    /// server fails loudly at setup, not on the first query of a run.
    pub fn connect(
        addr: &str,
        kind: EngineKind,
        scan_threads: usize,
    ) -> Result<RemoteDbms, WireError> {
        let sel = EngineSel {
            kind: kind.name().to_string(),
            scan_threads,
        };
        let mut loopback = None;
        let mut pool: Vec<Box<dyn Transport>> = Vec::new();
        if addr == LOOPBACK_ADDR {
            let core = Arc::new(ServerCore::new());
            core.connection_opened();
            pool.push(Box::new(LoopbackTransport::new(Arc::clone(&core))));
            loopback = Some(core);
        } else {
            pool.push(Box::new(TcpTransport::connect(addr)?));
        }
        Ok(RemoteDbms {
            addr: addr.to_string(),
            sel,
            kind,
            pool: Mutex::new(pool),
            next_id: AtomicU64::new(1),
            register_failure: Mutex::new(None),
            loopback,
        })
    }

    /// The loopback core, when this client is a loopback client (tests
    /// use it to inspect server counters).
    pub fn loopback_core(&self) -> Option<Arc<ServerCore>> {
        self.loopback.as_ref().map(Arc::clone)
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&self) -> Result<(), EngineError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected_response("shutdown", &other)),
        }
    }

    /// Fetch the server's request/connection counters.
    pub fn server_stats(&self) -> Result<crate::proto::ServerStatsSnapshot, EngineError> {
        match self.round_trip(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected_response("stats", &other)),
        }
    }

    fn checkout(&self) -> Result<Box<dyn Transport>, WireError> {
        let pooled = {
            let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            pool.pop()
        };
        match pooled {
            Some(t) => Ok(t),
            None if self.loopback.is_some() => {
                // Loopback transports are stateless over the shared core.
                let core = self.loopback.as_ref().map(Arc::clone);
                match core {
                    Some(core) => Ok(Box::new(LoopbackTransport::new(core))),
                    None => Err(WireError::Protocol("loopback core vanished".to_string())),
                }
            }
            None => Ok(Box::new(TcpTransport::connect(&self.addr)?)),
        }
    }

    fn checkin(&self, transport: Box<dyn Transport>) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        pool.push(transport);
    }

    /// One request/response exchange with id correlation and a single
    /// reconnect retry on transport failure.
    fn round_trip(&self, request: &Request) -> Result<Response, EngineError> {
        self.round_trip_payload(codec::encode_request(request))
    }

    /// [`round_trip`](Self::round_trip) for an already encoded request.
    fn round_trip_payload(&self, payload: Vec<u8>) -> Result<Response, EngineError> {
        let _span = simba_obs::trace::span("client.round_trip", "server");
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let frame = Frame::new(FrameKind::Request, id, payload).map_err(wire_to_engine)?;
        let mut last_io: Option<WireError> = None;
        // Attempt 0 uses a pooled (possibly stale) connection; attempt 1
        // forces a fresh dial. Anything past that is the driver's job.
        for attempt in 0..2 {
            let mut transport = if attempt == 0 {
                match self.checkout() {
                    Ok(t) => t,
                    Err(e @ WireError::Io(_)) => {
                        last_io = Some(e);
                        continue;
                    }
                    Err(e) => return Err(wire_to_engine(e)),
                }
            } else if self.loopback.is_some() {
                // Loopback has no connection to go stale; don't retry.
                break;
            } else {
                match TcpTransport::connect(&self.addr) {
                    Ok(t) => Box::new(t) as Box<dyn Transport>,
                    Err(e) => {
                        last_io = Some(e);
                        continue;
                    }
                }
            };
            match transport.round_trip(&frame) {
                Ok(reply) => {
                    if reply.request_id != id {
                        // The stream is desynchronized; poison the
                        // connection by not returning it to the pool.
                        return Err(EngineError::Internal(format!(
                            "response id {} does not match request id {id}",
                            reply.request_id
                        )));
                    }
                    let response = reply.parse_response().map_err(wire_to_engine)?;
                    self.checkin(transport);
                    return Ok(response);
                }
                Err(e @ WireError::Io(_)) => {
                    // Drop the dead connection and (maybe) retry fresh.
                    last_io = Some(e);
                }
                Err(e) => return Err(wire_to_engine(e)),
            }
        }
        Err(wire_to_engine(last_io.unwrap_or_else(|| {
            WireError::Io("connection pool exhausted".to_string())
        })))
    }
}

impl Dbms for RemoteDbms {
    fn name(&self) -> &'static str {
        // The trait wants a `'static` name; enumerate rather than leak.
        match self.kind {
            EngineKind::SqliteLike => "remote-sqlite-like",
            EngineKind::DuckDbLike => "remote-duckdb-like",
        }
    }

    fn scan_threads(&self) -> usize {
        self.sel.scan_threads
    }

    fn register(&self, table: Arc<Table>) {
        let _span = simba_obs::trace::span("client.register", "server");
        let mut sent = 0u64;
        // One round trip per block; the first failure ends the upload.
        let failure = TableBlock::split(&table).find_map(|block| {
            sent += block.rows() as u64;
            let payload = codec::encode_register(&self.sel, &block);
            drop(block);
            match self.round_trip_payload(payload) {
                Ok(Response::Registered { rows }) if rows == sent => None,
                Ok(Response::Registered { rows }) => Some(format!(
                    "server holds {rows} rows after {sent} of {} were sent",
                    table.row_count()
                )),
                Ok(other) => Some(unexpected_response("register", &other).to_string()),
                Err(e) => Some(e.to_string()),
            }
        });
        *self
            .register_failure
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = failure;
    }

    fn execute(&self, query: &Select) -> Result<QueryOutput, EngineError> {
        if let Some(msg) = self
            .register_failure
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
        {
            return Err(EngineError::Internal(format!(
                "a prior remote register failed: {msg}"
            )));
        }
        let payload = codec::encode_execute(&self.sel, &print_select(query));
        match self.round_trip_payload(payload)? {
            Response::Result {
                result,
                stats,
                elapsed_ns,
            } => Ok(QueryOutput {
                result,
                stats,
                // Server-side engine latency: the paper's latency metric
                // measures the engine, not the network between harness
                // processes. The driver's own wall-clock wraps this call
                // and captures round-trip latency separately.
                elapsed: Duration::from_nanos(elapsed_ns),
            }),
            Response::EngineFailure { error } => Err(error),
            Response::BadRequest { message } => Err(EngineError::Internal(format!(
                "server rejected the request: {message}"
            ))),
            other => Err(unexpected_response("execute", &other)),
        }
    }
}

fn wire_to_engine(e: WireError) -> EngineError {
    match e {
        WireError::Io(m) => EngineError::Transient(format!("wire i/o failure: {m}")),
        WireError::Protocol(m) => EngineError::Internal(format!("wire protocol failure: {m}")),
    }
}

fn unexpected_response(what: &str, got: &Response) -> EngineError {
    EngineError::Internal(format!(
        "server sent a mismatched response to a {what} request: {got:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_sql::parse_select;
    use simba_store::{ColumnDef, Schema, TableBuilder, Value};

    fn tiny_table() -> Table {
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
        b.finish()
    }

    #[test]
    fn loopback_client_matches_local_engine_exactly() {
        let table = Arc::new(tiny_table());
        let query = parse_select("SELECT q, SUM(n) AS s FROM t GROUP BY q").expect("parses");

        let local = EngineKind::SqliteLike.build();
        local.register(Arc::clone(&table));
        let local_out = local.execute(&query).expect("local executes");

        let remote =
            RemoteDbms::connect(LOOPBACK_ADDR, EngineKind::SqliteLike, 1).expect("loopback");
        remote.register(Arc::clone(&table));
        let remote_out = remote.execute(&query).expect("remote executes");

        assert_eq!(remote_out.result, local_out.result);
        assert_eq!(remote_out.stats, local_out.stats);
    }

    #[test]
    fn engine_errors_survive_the_round_trip() {
        let remote =
            RemoteDbms::connect(LOOPBACK_ADDR, EngineKind::DuckDbLike, 1).expect("loopback");
        let query = parse_select("SELECT COUNT(*) FROM missing").expect("parses");
        let err = remote.execute(&query).expect_err("unknown table");
        assert_eq!(err, EngineError::UnknownTable("missing".into()));
    }

    #[test]
    fn unreachable_server_fails_eagerly_and_transiently() {
        // Reserved port on localhost with nothing listening: connect must
        // fail now, not on first query.
        let err = RemoteDbms::connect("127.0.0.1:1", EngineKind::SqliteLike, 1)
            .expect_err("nothing listens on port 1");
        assert!(matches!(err, WireError::Io(_)), "{err:?}");
        assert!(wire_to_engine(err).is_transient());
    }

    #[test]
    fn names_are_engine_specific() {
        let remote =
            RemoteDbms::connect(LOOPBACK_ADDR, EngineKind::DuckDbLike, 1).expect("loopback");
        assert_eq!(remote.name(), "remote-duckdb-like");
        assert_eq!(remote.scan_threads(), 1);
    }
}
