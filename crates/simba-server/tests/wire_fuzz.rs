//! Property tests for the wire decoder: a stream of valid frames must
//! decode identically no matter how the bytes are torn into reads, and
//! arbitrary garbage must never panic, never allocate past the declared
//! payload cap, and always either park (waiting for more bytes) or fail
//! with a protocol error — the decoder has no third state. Over a real
//! localhost socket, a retired request tag and a retired protocol version
//! are refused the way the protocol documents.

use proptest::prelude::*;
use simba_server::{Decoder, Frame, FrameKind, Request, PROTOCOL_VERSION};

/// Strategy for a valid frame: request/response kind, any id, and a
/// payload of arbitrary bytes (the decoder does not parse JSON; payload
/// interpretation happens a layer up).
fn frame_strategy() -> impl Strategy<Value = Frame> {
    (
        prop_oneof![Just(FrameKind::Request), Just(FrameKind::Response)],
        any::<u64>(),
        proptest::collection::vec(any::<u8>(), 0..512),
    )
        .prop_map(|(kind, id, payload)| {
            Frame::new(kind, id, payload).expect("payload under the size cap")
        })
}

/// Split `bytes` at the given cut fractions, yielding 1..=n+1 chunks that
/// concatenate back to the original — models arbitrary short reads.
fn tear(bytes: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
    points.sort_unstable();
    let mut chunks = Vec::new();
    let mut start = 0;
    for p in points {
        chunks.push(bytes[start..p].to_vec());
        start = p;
    }
    chunks.push(bytes[start..].to_vec());
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Frames survive any tearing of the byte stream: feed the encoded
    /// stream chunk by chunk and the decoder yields exactly the original
    /// frames, in order, with nothing left buffered.
    #[test]
    fn torn_reads_reassemble_exactly(
        frames in proptest::collection::vec(frame_strategy(), 1..6),
        cuts in proptest::collection::vec(any::<usize>(), 0..12),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.encode());
        }
        let mut decoder = Decoder::new();
        let mut decoded = Vec::new();
        for chunk in tear(&stream, &cuts) {
            decoder.feed(&chunk);
            while let Some(frame) = decoder.next_frame().expect("valid stream") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded.len(), frames.len());
        for (got, want) in decoded.iter().zip(&frames) {
            prop_assert_eq!(got.kind, want.kind);
            prop_assert_eq!(got.request_id, want.request_id);
            prop_assert_eq!(&got.payload, &want.payload);
        }
        prop_assert_eq!(decoder.buffered(), 0);
    }

    /// Arbitrary bytes never panic the decoder. Each `next_frame` call
    /// either parks on a short read, yields a frame, or reports a protocol
    /// error; after the first error the stream is poisoned and every later
    /// call must keep failing rather than resynchronize on garbage.
    #[test]
    fn garbage_never_panics_and_errors_stick(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let mut decoder = Decoder::new();
        let mut poisoned = false;
        for chunk in tear(&noise, &cuts) {
            decoder.feed(&chunk);
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => prop_assert!(!poisoned, "frame after a protocol error"),
                    Ok(None) => break,
                    Err(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
        }
        if poisoned {
            prop_assert!(decoder.next_frame().is_err(), "poisoned decoder recovered");
        }
    }

    /// A real frame preceded by garbage fails cleanly (bad magic) instead
    /// of hunting for the embedded valid frame — resync on a binary
    /// protocol risks misframing, so the connection is dropped instead.
    #[test]
    fn leading_garbage_poisons_instead_of_resyncing(
        junk in proptest::collection::vec(any::<u8>(), 1..32),
        id in any::<u64>(),
    ) {
        // Force the junk to not accidentally start a valid header.
        let mut junk = junk;
        if junk[0] == b'S' {
            junk[0] = b'X';
        }
        let mut decoder = Decoder::new();
        decoder.feed(&junk);
        let frame = Frame::request(id, &Request::Stats).expect("encodes");
        decoder.feed(&frame.encode());
        // Enough bytes for a header are now buffered; the magic check
        // must reject the stream even though a valid frame follows.
        prop_assert!(decoder.next_frame().is_err());
    }
}

/// The version byte is load-bearing: the same frame with a bumped version
/// is rejected, which is what lets the format evolve behind the number.
#[test]
fn future_protocol_version_is_rejected() {
    let frame = Frame::request(7, &Request::Stats).expect("encodes");
    let mut bytes = frame.encode();
    bytes[4] = PROTOCOL_VERSION + 1;
    let mut decoder = Decoder::new();
    decoder.feed(&bytes);
    assert!(decoder.next_frame().is_err());
}

/// A server on a free localhost port, and the thread running it.
fn spawn_server() -> (
    String,
    std::sync::Arc<simba_server::ServerCore>,
    std::thread::JoinHandle<()>,
) {
    let core = std::sync::Arc::new(simba_server::ServerCore::new());
    let server = simba_server::Server::bind(
        simba_server::ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..simba_server::ServerConfig::default()
        },
        std::sync::Arc::clone(&core),
    )
    .expect("bind 127.0.0.1:0");
    let addr = server.local_addr().expect("bound").to_string();
    (
        addr,
        core,
        std::thread::spawn(move || server.run().expect("server runs")),
    )
}

/// Drain a server started by [`spawn_server`].
fn stop_server(addr: &str, serving: std::thread::JoinHandle<()>) {
    let client = simba_server::RemoteDbms::connect(addr, simba_engine::EngineKind::DuckDbLike, 1)
        .expect("dial");
    client.shutdown_server().expect("shutdown acknowledged");
    drop(client);
    serving.join().expect("server drains");
}

/// Write one frame and read back the response to it.
fn exchange(stream: &mut std::net::TcpStream, frame: &Frame) -> simba_server::Response {
    use std::io::{Read, Write};
    stream.write_all(&frame.encode()).expect("write frame");
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(reply) = decoder.next_frame().expect("well-formed reply") {
            assert_eq!(reply.request_id, frame.request_id);
            return reply.parse_response().expect("reply decodes");
        }
        let n = stream.read(&mut buf).expect("read reply");
        assert!(n > 0, "server closed before answering");
        decoder.feed(&buf[..n]);
    }
}

/// Version 2's second execute request (tag 2: selector, SQL and a
/// four-field query context) is an unknown request in version 3: the
/// server answers it `BadRequest` and the same connection goes on serving.
#[test]
fn retired_request_tag_is_a_bad_request_and_the_connection_survives() {
    use simba_server::proto::{EngineSel, TableBlock};
    use simba_server::Response;
    use simba_store::{ColumnDef, Schema, TableBuilder, Value};

    let mut table = TableBuilder::new(
        Schema::new(
            "t",
            vec![
                ColumnDef::categorical("q"),
                ColumnDef::quantitative_int("n"),
            ],
        ),
        3,
    );
    for (q, n) in [("A", 1), ("B", 2), ("A", 4)] {
        table.push_row(vec![Value::str(q), Value::Int(n)]);
    }
    let table = table.finish();
    let engine = EngineSel {
        kind: "duckdb-like".into(),
        scan_threads: 1,
    };
    let sql = "SELECT COUNT(*) AS c FROM t";

    let (addr, core, serving) = spawn_server();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    for block in TableBlock::split(&table) {
        let register = Request::RegisterTable {
            engine: engine.clone(),
            block,
        };
        let reply = exchange(&mut stream, &Frame::request(1, &register).expect("encodes"));
        assert_eq!(reply, Response::Registered { rows: 3 });
    }

    let put_str = |out: &mut Vec<u8>, text: &str| {
        out.extend_from_slice(&(text.len() as u32).to_le_bytes());
        out.extend_from_slice(text.as_bytes());
    };
    let mut retired = vec![2u8];
    put_str(&mut retired, &engine.kind);
    retired.extend_from_slice(&1u64.to_le_bytes());
    put_str(&mut retired, sql);
    for field in [1u64, 2, 3] {
        retired.extend_from_slice(&field.to_le_bytes());
    }
    retired.extend_from_slice(&4u32.to_le_bytes());
    let frame = Frame::new(FrameKind::Request, 2, retired).expect("under the cap");
    match exchange(&mut stream, &frame) {
        Response::BadRequest { message } => {
            assert!(message.contains("unknown request tag 2"), "{message}")
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }

    let execute = Request::Execute {
        engine,
        sql: sql.into(),
    };
    match exchange(&mut stream, &Frame::request(3, &execute).expect("encodes")) {
        Response::Result { result, .. } => {
            assert_eq!(result.sorted_rows(), vec![vec![Value::Int(3)]])
        }
        other => panic!("expected a result, got {other:?}"),
    }
    let stats = core.stats_snapshot();
    assert_eq!((stats.executes, stats.protocol_errors), (1, 1));
    drop(stream);
    stop_server(&addr, serving);
}

/// A version-2 header is refused on its own: the decoder fails on the
/// header without waiting for the payload it declares, and a server drops
/// the connection with the payload still unsent.
#[test]
fn previous_protocol_version_is_refused_before_its_payload() {
    use std::io::{ErrorKind, Read, Write};

    let mut header = Frame::new(FrameKind::Request, 1, vec![0; 64])
        .expect("under the cap")
        .encode();
    header.truncate(simba_server::proto::HEADER_LEN);
    header[4] = PROTOCOL_VERSION - 1;
    assert_eq!(header[4], 2);
    let mut decoder = Decoder::new();
    decoder.feed(&header);
    assert!(decoder.next_frame().is_err(), "refused at the header");

    let (addr, core, serving) = spawn_server();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&header).expect("write header");
    let mut buf = [0u8; 64];
    match stream.read(&mut buf) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("expected the server to close the connection, got {other:?}"),
    }
    assert_eq!(core.stats_snapshot().protocol_errors, 1);
    drop(stream);
    stop_server(&addr, serving);
}
