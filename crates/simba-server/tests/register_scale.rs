//! Registering a table that takes several frames: how much memory it holds
//! at once, that it replaces rather than accumulates, and that it arrives
//! whole over a real socket.
//!
//! One `#[test]`: the heap counter is process-wide, and the steps share the
//! table.

use simba_engine::{Dbms, EngineKind};
use simba_server::proto::{EngineSel, TableBlock, CHUNK_ROWS, MAX_PAYLOAD};
use simba_server::{
    Decoder, Frame, RemoteDbms, Request, Response, Server, ServerConfig, ServerCore, LOOPBACK_ADDR,
};
use simba_sql::parse_select;
use simba_store::{ColumnData, ColumnDef, Schema, Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct CountingAlloc;

fn changed(by: isize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is two atomic counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            changed(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) };
        changed(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.realloc`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            changed(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The most bytes live at once while `f` ran.
fn peak_during(f: impl FnOnce()) -> isize {
    PEAK.store(live(), Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed)
}

const BLOCKS: usize = 5;
const ROWS: usize = (BLOCKS - 1) * CHUNK_ROWS + 1234;

/// Peak live heap, in bytes, of registering this table over loopback while
/// Int values and dictionary codes were stored at full width: 2.75x the
/// 5,531,611-byte (21 B/row) table of then, under that time's bound of
/// three times its size. The table is 14 B/row now, but the wire still
/// carries 8-byte ints and 4-byte codes, so the bound is held in bytes.
const FULL_WIDTH_PEAK: isize = 15_199_199;

/// `ROWS` rows of (key, n, x): a six-value string key with a NULL every
/// 11th row, an Int counter and a Float — built from vectors, so making it
/// costs little next to what is measured.
fn tall_table() -> Table {
    let schema = Schema::new(
        "tall",
        vec![
            ColumnDef::categorical("key"),
            ColumnDef::quantitative_int("n"),
            ColumnDef::quantitative_float("x"),
        ],
    );
    let keys = ["a", "b", "c", "d", "e", "f"];
    let key = ColumnData::Str {
        dict: keys.iter().map(|&k| Arc::from(k)).collect(),
        codes: (0..ROWS)
            .map(|i| if i % 11 == 0 { 0 } else { (i % 6) as u32 })
            .collect(),
        valid: (0..ROWS).map(|i| i % 11 != 0).collect(),
    };
    let n = ColumnData::Int {
        data: (0..ROWS as i64).collect(),
        valid: Vec::new(),
    };
    let x = ColumnData::Float {
        data: (0..ROWS).map(|i| i as f64 * 0.25).collect(),
        valid: Vec::new(),
    };
    Table::from_columns(schema, vec![key, n, x])
}

const GROUP_BY: &str =
    "SELECT key, COUNT(*) AS c, SUM(n) AS s, MAX(x) AS m FROM tall GROUP BY key ORDER BY key";

fn rows_of(engine: &dyn Dbms) -> Vec<Vec<Value>> {
    engine
        .execute(&parse_select(GROUP_BY).expect("parses"))
        .expect("executes")
        .result
        .rows()
        .map(|r| r.to_vec())
        .collect()
}

#[test]
fn a_table_of_several_blocks_registers_within_three_times_its_size() {
    let before = live();
    let table = Arc::new(tall_table());
    let table_bytes = live() - before;
    // One-byte codes and validity, four-byte counters, eight-byte floats.
    assert!(
        table_bytes as usize >= ROWS * 14,
        "the table is counted: {table_bytes}"
    );

    let local = EngineKind::DuckDbLike.build();
    local.register(table.clone());
    let want = rows_of(local.as_ref());
    assert_eq!(want.len(), 7, "six keys and the NULL group");

    // The frames the table takes, and what each weighs: a table N times as
    // long is N times as many frames of this size, never a larger frame —
    // which is what lets one whose JSON spelling would have passed the
    // 64 MiB frame limit (440K rows of the benchmark's dataset) register.
    let sel = EngineSel {
        kind: "duckdb-like".to_string(),
        scan_threads: 1,
    };
    let frames: Vec<Vec<u8>> = TableBlock::split(&table)
        .enumerate()
        .map(|(i, block)| {
            let request = Request::RegisterTable {
                engine: sel.clone(),
                block,
            };
            Frame::request(i as u64 + 1, &request)
                .expect("a block fits a frame")
                .encode()
        })
        .collect();
    assert_eq!(frames.len(), BLOCKS);
    assert_eq!(frames.len(), ROWS.div_ceil(CHUNK_ROWS));
    let largest = frames.iter().map(Vec::len).max().unwrap_or(0);
    assert!(largest <= 22 * CHUNK_ROWS + 512, "{largest}");
    assert!(largest < MAX_PAYLOAD as usize / 32);

    // Loopback: peak live heap while registering, the caller's table
    // included, against what it was with full-width columns.
    let remote = RemoteDbms::connect(LOOPBACK_ADDR, EngineKind::DuckDbLike, 1).expect("loopback");
    let floor = live() - table_bytes;
    let peak = peak_during(|| remote.register(table.clone())) - floor;
    assert!(
        peak <= FULL_WIDTH_PEAK,
        "registering {table_bytes} bytes peaked at {peak} ({:.2}x)",
        peak as f64 / table_bytes as f64
    );
    assert_eq!(rows_of(&remote), want);

    // Registering the same name again replaces the table: the server ends
    // up holding one copy, not two.
    let held = live();
    remote.register(table.clone());
    assert!(
        (live() - held).abs() < table_bytes / 10,
        "a second register left {} more bytes live",
        live() - held
    );
    assert_eq!(rows_of(&remote), want);
    let stats = remote.server_stats().expect("stats");
    assert_eq!(stats.registers, 2);
    assert_eq!(stats.protocol_errors, 0);
    drop(remote);

    // A real socket: every frame written before any reply is read.
    let core = Arc::new(ServerCore::new());
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServerConfig::default()
        },
        Arc::clone(&core),
    )
    .expect("bind 127.0.0.1:0");
    let addr = server.local_addr().expect("bound").to_string();
    let serving = std::thread::spawn(move || server.run().expect("server runs"));

    let mut stream = TcpStream::connect(&addr).expect("connect");
    for frame in &frames {
        stream.write_all(frame).expect("write frame");
    }
    let mut decoder = Decoder::new();
    let mut buf = [0u8; 4096];
    let mut replies = Vec::new();
    while replies.len() < frames.len() {
        while let Some(frame) = decoder.next_frame().expect("well-formed reply") {
            replies.push((
                frame.request_id,
                frame.parse_response().expect("reply decodes"),
            ));
        }
        if replies.len() < frames.len() {
            let n = stream.read(&mut buf).expect("read reply");
            assert!(n > 0, "server closed before answering every block");
            decoder.feed(&buf[..n]);
        }
    }
    for (i, (id, reply)) in replies.iter().enumerate() {
        assert_eq!(*id, i as u64 + 1, "replies come back in request order");
        let so_far = ROWS.min((i + 1) * CHUNK_ROWS) as u64;
        assert_eq!(*reply, Response::Registered { rows: so_far });
    }
    drop(stream);

    // The pipelined upload, read back through a TCP client; then the same
    // table through that client's own multi-frame register, into a second
    // engine of the same server (the same kind at two scan threads).
    let over_tcp = RemoteDbms::connect(&addr, EngineKind::DuckDbLike, 1).expect("dial");
    assert_eq!(rows_of(&over_tcp), want);
    let second = RemoteDbms::connect(&addr, EngineKind::DuckDbLike, 2).expect("dial");
    second.register(table.clone());
    assert_eq!(rows_of(&second), want);
    assert_eq!(core.stats_snapshot().registers, 2);
    assert_eq!(core.stats_snapshot().protocol_errors, 0);

    over_tcp.shutdown_server().expect("shutdown acknowledged");
    drop((over_tcp, second));
    serving.join().expect("server drains");
}
