//! Serve the four engines over the wire — and drive them remotely.
//!
//! Real exploration front-ends talk to a database over a network, where
//! serialization, queueing, and tail latency dominate interactivity. This
//! crate supplies the three pieces that let the benchmark cross a socket:
//!
//! * [`proto`] — a hand-rolled, length-prefixed binary framing with
//!   version-tagged headers and request-id correlation, carrying typed
//!   binary payloads ([`proto::Request`] / [`proto::Response`]): results
//!   as a string table plus tagged values, tables as column blocks.
//! * [`core`] + [`server`] — [`core::ServerCore`] (sharded engine catalog,
//!   request dispatch, stats) behind a TCP accept loop with
//!   per-connection worker threads, a bounded in-flight window for
//!   backpressure, idle-connection timeouts, and graceful drain on a
//!   shutdown frame. The `simba-server` binary wraps this.
//! * [`client`] — [`client::RemoteDbms`], a [`simba_engine::Dbms`]
//!   implementation that speaks the protocol over a pooled TCP transport
//!   (or an in-process loopback transport for deterministic tests), maps
//!   wire failures onto [`simba_engine::EngineError::Transient`] /
//!   [`simba_engine::EngineError::Internal`], and reconnects between
//!   attempts so the driver's `ResiliencePolicy` classification drives
//!   retries.
//!
//! Determinism: query *results* crossing the wire are byte-identical to
//! in-process execution — queries ship as SQL text (the printer/parser
//! round-trip is property-tested in `simba-sql`) and values cross as
//! tagged 64-bit patterns, variant- and bit-exact (`tests/codec.rs`). The
//! loopback transport exercises the full
//! encode → frame → decode → dispatch byte path without a socket, which is
//! what lets CI pin remote-vs-local fingerprint equality.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
mod codec;
pub mod core;
pub mod proto;
pub mod server;

pub use client::{RemoteDbms, LOOPBACK_ADDR};
pub use core::ServerCore;
pub use proto::{Decoder, Frame, FrameKind, Request, Response, WireError, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig};
