//! `simba-server` — serve the four engines over TCP.
//!
//! ```text
//! simba-server [--addr HOST:PORT] [--window N] [--idle-timeout-ms N]
//!              [--trace-out PATH]
//! simba-server --send-shutdown [--addr HOST:PORT]
//! ```
//!
//! The first form binds and serves until a shutdown frame arrives, then
//! drains gracefully (in-flight requests finish, workers join) and exits
//! 0. With `--trace-out` the server collects its own `server.*` spans and
//! writes one Chrome `trace_event` JSON file at drain — CI asserts on it.
//!
//! The second form is the matching control client: it dials the address,
//! sends a shutdown frame, and waits for the acknowledgement.
//!
//! Configuration is flags-only, deliberately: the workspace `clippy.toml`
//! bans environment reads in every crate, and a server that can only be
//! configured by its command line is trivially reproducible from a
//! process listing.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use simba_server::client::{TcpTransport, Transport};
use simba_server::proto::{Frame, Request, Response};
use simba_server::{Server, ServerConfig, ServerCore};
use std::sync::Arc;

const USAGE: &str = "usage: simba-server [--addr HOST:PORT] [--window N] \
                     [--idle-timeout-ms N] [--trace-out PATH]\n       \
                     simba-server --send-shutdown [--addr HOST:PORT]";

struct Cli {
    config: ServerConfig,
    trace_out: Option<String>,
    send_shutdown: bool,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("simba-server: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        config: ServerConfig::default(),
        trace_out: None,
        send_shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => usage_error(&format!("{flag} needs a value")),
        };
        match arg.as_str() {
            "--addr" => cli.config.addr = value("--addr"),
            "--window" => match value("--window").parse::<usize>() {
                Ok(n) if n > 0 => cli.config.window = n,
                _ => usage_error("--window wants a positive integer"),
            },
            "--idle-timeout-ms" => match value("--idle-timeout-ms").parse::<u64>() {
                Ok(n) => cli.config.idle_timeout_ms = n,
                Err(_) => usage_error("--idle-timeout-ms wants an integer"),
            },
            "--trace-out" => cli.trace_out = Some(value("--trace-out")),
            "--send-shutdown" => cli.send_shutdown = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
    }
    cli
}

fn send_shutdown(addr: &str) {
    let mut transport = match TcpTransport::connect(addr) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("simba-server: cannot reach {addr}: {e}");
            std::process::exit(1);
        }
    };
    let frame = match Frame::request(0, &Request::Shutdown) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("simba-server: {e}");
            std::process::exit(1);
        }
    };
    match transport.round_trip(&frame) {
        Ok(reply) => match reply.parse_response() {
            Ok(Response::ShuttingDown) => println!("server at {addr} is draining"),
            Ok(other) => {
                eprintln!("simba-server: unexpected shutdown reply: {other:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("simba-server: unreadable shutdown reply: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("simba-server: shutdown round-trip failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let cli = parse_cli();
    if cli.send_shutdown {
        send_shutdown(&cli.config.addr);
        return;
    }

    if cli.trace_out.is_some() {
        simba_obs::trace::set_enabled(true);
    }

    let core = Arc::new(ServerCore::new());
    let server = match Server::bind(cli.config.clone(), Arc::clone(&core)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("simba-server: cannot bind {}: {e}", cli.config.addr);
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("simba-server listening on {addr}"),
        Err(_) => println!("simba-server listening on {}", cli.config.addr),
    }

    if let Err(e) = server.run() {
        eprintln!("simba-server: accept loop failed: {e}");
        std::process::exit(1);
    }

    let stats = core.stats_snapshot();
    println!(
        "simba-server drained: {} requests ({} executes, {} registers, {} engine errors, {} protocol errors) over {} connections",
        stats.requests,
        stats.executes,
        stats.registers,
        stats.engine_errors,
        stats.protocol_errors,
        stats.connections,
    );

    if let Some(path) = cli.trace_out {
        let events = simba_obs::trace::take_events();
        let json = simba_obs::trace::export_chrome_trace(&events);
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("simba-server: cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {} spans to {path}", events.len());
    }
}
