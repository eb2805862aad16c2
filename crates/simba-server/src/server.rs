//! TCP transport: accept loop, per-connection workers, graceful drain.
//!
//! Each accepted connection gets two threads: the *reader* (reassembles
//! frames from the stream) and the *executor* (dispatches frames through
//! [`ServerCore`] and writes responses back, in request order). A bounded
//! channel of [`Server::window`](ServerConfig::window) frames sits between
//! them: when a client pipelines faster than its queries execute, the
//! channel fills, the reader blocks, the kernel's TCP window fills, and
//! the client's own writes stall — backpressure end to end with no
//! explicit flow-control frames.
//!
//! All blocking reads use a short poll timeout instead of wall-clock
//! arithmetic: the reader counts consecutive empty polls to detect idle
//! connections, and re-checks the drain flag between polls. This keeps
//! the server free of `Instant::now()`, which the workspace `clippy.toml`
//! bans outside a site that sanctions it with an `#[expect]`.

use crate::core::ServerCore;
use crate::proto::{Decoder, Frame, WireError};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How often the accept loop wakes to re-check the drain flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Read timeout per poll on a connection; idle detection counts these.
const READ_POLL_MS: u64 = 25;

/// Tuning knobs for a [`Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to listen on (`host:port`; port `0` picks a free port).
    pub addr: String,
    /// Backpressure window: frames a connection may have in flight
    /// (decoded but not yet answered) before the reader stops reading.
    pub window: usize,
    /// Close a connection after this long with no bytes from the client.
    /// `0` disables idle close.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:4640".to_string(),
            window: 32,
            idle_timeout_ms: 30_000,
        }
    }
}

/// A bound TCP listener serving a [`ServerCore`].
pub struct Server {
    listener: TcpListener,
    core: Arc<ServerCore>,
    config: ServerConfig,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.listener.local_addr().ok())
            .field("config", &self.config)
            .finish()
    }
}

impl Server {
    /// Bind the configured address. The listener is non-blocking so the
    /// accept loop can poll the drain flag between accepts.
    pub fn bind(config: ServerConfig, core: Arc<ServerCore>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            core,
            config,
        })
    }

    /// The address actually bound (resolves port `0`).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The core this server dispatches into.
    pub fn core(&self) -> Arc<ServerCore> {
        Arc::clone(&self.core)
    }

    /// Accept connections until a [`crate::proto::Request::Shutdown`]
    /// flips the drain flag, then join every live connection and return.
    /// In-flight requests finish; new connections are refused (the
    /// listener closes as soon as this returns).
    pub fn run(self) -> std::io::Result<()> {
        let _span = simba_obs::trace::span("server.run", "server");
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        while !self.core.is_draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let core = Arc::clone(&self.core);
                    let window = self.config.window.max(1);
                    let idle_ms = self.config.idle_timeout_ms;
                    workers.push(thread::spawn(move || {
                        serve_connection(stream, core, window, idle_ms)
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(e),
            }
            workers.retain(|w| !w.is_finished());
        }
        for w in workers {
            // A worker that panicked already tore down its own connection;
            // drain must not take the listener down with it.
            let _ = w.join();
        }
        Ok(())
    }
}

/// Serve one connection to completion (EOF, idle timeout, drain, or
/// error), keeping the core's connection counters balanced.
fn serve_connection(stream: TcpStream, core: Arc<ServerCore>, window: usize, idle_ms: u64) {
    let _span = simba_obs::trace::span("server.connection", "server");
    core.connection_opened();
    if let Err(_e) = connection_loop(&stream, &core, window, idle_ms) {
        // The error was already counted (protocol) or is an I/O race on a
        // closing socket; either way the connection is done.
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    core.connection_closed();
}

fn connection_loop(
    stream: &TcpStream,
    core: &Arc<ServerCore>,
    window: usize,
    idle_ms: u64,
) -> Result<(), WireError> {
    stream.set_read_timeout(Some(Duration::from_millis(READ_POLL_MS)))?;
    let _ = stream.set_nodelay(true);
    let write_half = stream.try_clone()?;
    let (tx, rx) = sync_channel::<Frame>(window);
    let exec_core = Arc::clone(core);
    let executor = thread::spawn(move || executor_loop(write_half, exec_core, rx));

    // `0` disables idle close; otherwise round the budget up to whole polls.
    let max_idle_polls = if idle_ms == 0 {
        u64::MAX
    } else {
        idle_ms.div_ceil(READ_POLL_MS).max(1)
    };

    let mut decoder = Decoder::new();
    let mut buf = [0u8; 16 * 1024];
    let mut idle_polls: u64 = 0;
    let read_result: Result<(), WireError> = 'reading: loop {
        // Stop taking new requests once draining — but only at a frame
        // boundary, so a request already half-read still completes.
        if core.is_draining() && decoder.buffered() == 0 {
            break Ok(());
        }
        match (&*stream).read(&mut buf) {
            Ok(0) => break Ok(()),
            Ok(n) => {
                idle_polls = 0;
                decoder.feed(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => {
                            // Blocks when `window` frames are in flight:
                            // this is the backpressure point.
                            if tx.send(frame).is_err() {
                                break 'reading Ok(());
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Framing cannot resynchronize after garbage.
                            core.note_protocol_error();
                            break 'reading Err(e);
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                idle_polls += 1;
                if idle_polls >= max_idle_polls {
                    break Ok(());
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => break Err(e.into()),
        }
    };

    // Closing the channel lets the executor finish the frames it already
    // has (drain semantics), then exit.
    drop(tx);
    let exec_result = executor
        .join()
        .map_err(|_| WireError::Protocol("connection executor panicked".to_string()))?;
    read_result.and(exec_result)
}

/// Dispatch frames in arrival order and write responses back. Response
/// order therefore always matches request order on one connection, which
/// is what lets clients pipeline by request id without reordering logic.
fn executor_loop(
    mut out: TcpStream,
    core: Arc<ServerCore>,
    rx: Receiver<Frame>,
) -> Result<(), WireError> {
    for frame in rx {
        let reply = core.handle_frame(frame);
        out.write_all(&reply.encode())?;
    }
    let _ = out.flush();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{EngineSel, Request, Response, TableBlock};
    use simba_store::{ColumnDef, Schema, TableBuilder, Value};

    fn spawn_server(config: ServerConfig) -> (SocketAddr, Arc<ServerCore>, thread::JoinHandle<()>) {
        let core = Arc::new(ServerCore::new());
        let server = Server::bind(config, Arc::clone(&core)).expect("bind 127.0.0.1:0");
        let addr = server.local_addr().expect("bound addr");
        let handle = thread::spawn(move || server.run().expect("server run"));
        (addr, core, handle)
    }

    fn send(stream: &mut TcpStream, id: u64, req: &Request) {
        let frame = Frame::request(id, req).expect("frame builds");
        stream.write_all(&frame.encode()).expect("write frame");
    }

    fn recv(stream: &mut TcpStream, decoder: &mut Decoder) -> Frame {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = decoder.next_frame().expect("well-formed response") {
                return frame;
            }
            let n = stream.read(&mut buf).expect("read response");
            assert!(n > 0, "server closed before responding");
            decoder.feed(&buf[..n]);
        }
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        }
    }

    #[test]
    fn end_to_end_register_execute_shutdown() {
        let (addr, _core, server) = spawn_server(test_config());
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut decoder = Decoder::new();

        let schema = Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
            ],
        );
        let mut b = TableBuilder::new(schema, 2);
        b.push_row(vec![Value::str("A"), Value::Int(2)]);
        b.push_row(vec![Value::str("A"), Value::Int(3)]);
        let block = TableBlock::split(&b.finish()).next().expect("one block");
        let engine = EngineSel {
            kind: "sqlite-like".to_string(),
            scan_threads: 1,
        };

        // Pipeline all three requests before reading any response.
        send(
            &mut stream,
            1,
            &Request::RegisterTable {
                engine: engine.clone(),
                block,
            },
        );
        send(
            &mut stream,
            2,
            &Request::Execute {
                engine,
                sql: "SELECT SUM(n) AS s FROM t".to_string(),
            },
        );
        send(&mut stream, 3, &Request::Shutdown);

        let reply = recv(&mut stream, &mut decoder);
        assert_eq!(reply.request_id, 1);
        assert_eq!(
            reply.parse_response().unwrap(),
            Response::Registered { rows: 2 }
        );

        let reply = recv(&mut stream, &mut decoder);
        assert_eq!(reply.request_id, 2);
        match reply.parse_response().unwrap() {
            Response::Result { result, .. } => {
                assert_eq!(result.sorted_rows(), vec![vec![Value::Int(5)]]);
            }
            other => panic!("expected a result, got {other:?}"),
        }

        let reply = recv(&mut stream, &mut decoder);
        assert_eq!(reply.request_id, 3);
        assert_eq!(reply.parse_response().unwrap(), Response::ShuttingDown);

        // Graceful drain: the accept loop exits and all workers join.
        server.join().expect("server drains cleanly");
    }

    #[test]
    fn idle_connections_are_closed() {
        let (addr, core, server) = spawn_server(ServerConfig {
            idle_timeout_ms: 50,
            ..test_config()
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Never send anything: the server must hang up on its own.
        let mut buf = [0u8; 16];
        let n = stream.read(&mut buf).expect("clean EOF from idle close");
        assert_eq!(n, 0);
        core.begin_drain();
        server.join().expect("server drains");
    }

    #[test]
    fn garbage_bytes_drop_the_connection_not_the_server() {
        let (addr, core, server) = spawn_server(test_config());
        let mut bad = TcpStream::connect(addr).expect("connect");
        bad.write_all(b"this is not a frame at all........")
            .expect("write");
        let mut buf = [0u8; 16];
        let n = bad.read(&mut buf).expect("server hangs up");
        assert_eq!(n, 0, "garbage should close the connection");

        // The server itself is still healthy for the next client.
        let mut good = TcpStream::connect(addr).expect("connect again");
        let mut decoder = Decoder::new();
        send(&mut good, 1, &Request::Stats);
        let reply = recv(&mut good, &mut decoder);
        match reply.parse_response().unwrap() {
            Response::Stats { stats } => assert!(stats.protocol_errors >= 1),
            other => panic!("expected stats, got {other:?}"),
        }
        core.begin_drain();
        server.join().expect("server drains");
    }
}
