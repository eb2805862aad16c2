//! The `simba-server` binary as a separate process: it binds a free port,
//! serves every engine over a real socket with the answers the in-process
//! engines give, drains and exits 0 on a shutdown frame sent by its own
//! `--send-shutdown` form, and writes its `server.*` spans to `--trace-out`.

use serde::Content;
use simba_engine::{Dbms, EngineKind};
use simba_server::RemoteDbms;
use simba_sql::parse_select;
use simba_store::{ColumnData, ColumnDef, ResultSet, Schema, Table};
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

const ROWS: usize = 3000;

/// (key, n, x): a five-value string key with a NULL every 13th row, an Int
/// counter and a Float.
fn table() -> Table {
    let schema = Schema::new(
        "t",
        vec![
            ColumnDef::categorical("key"),
            ColumnDef::quantitative_int("n"),
            ColumnDef::quantitative_float("x"),
        ],
    );
    let keys = ["a", "b", "c", "d", "e"];
    let key = ColumnData::Str {
        dict: keys.iter().map(|&k| Arc::from(k)).collect(),
        codes: (0..ROWS).map(|i| (i % 5) as u32).collect(),
        valid: (0..ROWS).map(|i| i % 13 != 0).collect(),
    };
    let n = ColumnData::Int {
        data: (0..ROWS as i64).map(|i| i * 7 % 1000).collect(),
        valid: Vec::new(),
    };
    let x = ColumnData::Float {
        data: (0..ROWS).map(|i| i as f64 * 0.5).collect(),
        valid: Vec::new(),
    };
    Table::from_columns(schema, vec![key, n, x])
}

const QUERIES: [&str; 4] = [
    "SELECT key, COUNT(*) AS c, SUM(n) AS s, AVG(x) AS a FROM t GROUP BY key ORDER BY key",
    "SELECT COUNT(*) AS c FROM t WHERE n BETWEEN 100 AND 400 AND key IN ('a', 'c')",
    "SELECT BIN(n, 100), MAX(x) AS m FROM t WHERE x > 10.5 GROUP BY BIN(n, 100) ORDER BY m",
    "SELECT n, x FROM t WHERE key = 'e' ORDER BY n DESC, x LIMIT 7",
];

/// A child process that is killed if the test fails before it exits.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn answer(engine: &dyn Dbms, sql: &str) -> ResultSet {
    engine
        .execute(&parse_select(sql).expect("parses"))
        .unwrap_or_else(|e| panic!("{}: {sql}: {e}", engine.name()))
        .result
}

#[test]
fn a_server_process_answers_like_the_engines_then_drains_on_shutdown() {
    let trace_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("server-trace.json");
    let _ = std::fs::remove_file(&trace_path);
    let mut server = Reaped(
        Command::new(env!("CARGO_BIN_EXE_simba-server"))
            .args(["--addr", "127.0.0.1:0", "--trace-out"])
            .arg(&trace_path)
            .stdout(Stdio::piped())
            .spawn()
            .expect("simba-server starts"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("a first line");
    let addr = line
        .trim()
        .strip_prefix("simba-server listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .to_string();

    let table = Arc::new(table());
    for kind in EngineKind::ALL {
        let local = kind.build();
        local.register(Arc::clone(&table));
        let remote = RemoteDbms::connect(&addr, kind, 1).expect("connects");
        remote.register(Arc::clone(&table));
        for sql in QUERIES {
            let want = answer(local.as_ref(), sql);
            assert!(want.n_rows() > 0, "{sql}");
            assert_eq!(answer(&remote, sql), want, "{}: {sql}", kind.name());
        }
    }

    let shutdown = Command::new(env!("CARGO_BIN_EXE_simba-server"))
        .args(["--send-shutdown", "--addr", &addr])
        .output()
        .expect("the control client starts");
    assert!(
        shutdown.status.success(),
        "{}",
        String::from_utf8_lossy(&shutdown.stderr)
    );
    let status = server.0.wait().expect("the server exits");
    let mut log = String::new();
    stdout.read_to_string(&mut log).expect("the rest of stdout");
    assert!(status.success(), "{status}: {log}");

    let json = std::fs::read_to_string(&trace_path).expect("trace written at drain");
    let trace: Content = serde_json::from_str(&json).expect("trace is JSON");
    let Some(Content::Seq(events)) = trace.get("traceEvents") else {
        panic!("no traceEvents array");
    };
    let spans = |name: &str| {
        events
            .iter()
            .filter(|e| e.get("name") == Some(&Content::Str(name.to_string())))
            .count()
    };
    assert!(spans("server.execute") >= EngineKind::ALL.len() * QUERIES.len());
    assert!(spans("server.connection") >= EngineKind::ALL.len());
}
