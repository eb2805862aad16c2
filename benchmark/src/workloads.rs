//! The four workloads: what each one runs and why it exists.
//!
//! Load shape shared by all: closed loop, one driver worker, zero think
//! time, `duckdb-like` with one scan thread, dataset `customer_service`.
//! A workload's *round* is a fixed set of sessions run back to back through
//! one `Driver::run_source` call (so one fresh result cache and fresh
//! session-delta stores per round), at least 200 steps long so that its p95
//! has ten samples beyond it. A run repeats identical rounds for the
//! requested time; see `run.rs`.

use simba_driver::workload::{CacheSpec, EngineSpec, ScenarioSpec, SourceSpec};

/// Seed of every session walk, script and IDEBench storm.
///
/// `--seed` draws the table; the walks are a fixed population. Measured on
/// the 2-vCPU reference box at 250K rows, 28 adaptive sessions × 20 steps:
/// eight walk seeds over one table gave 139–187 queries/s (quartile spread
/// 12 % of the median), eight table seeds under one walk population gave
/// 169–175 queries/s (3 %, one noisy-neighbour outlier at 151). No session
/// count that fits a run brings the first under a 10 % bound, so the walk
/// population is part of the ruler, not of the draw.
pub const WALK_SEED: u64 = 7;

/// Default `--seed`; with it the table seed equals [`WALK_SEED`], so a round
/// is exactly `Driver::execute` of [`Workload::spec`].
pub const DEFAULT_SEED: u64 = 7;

/// Which session source drives the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Adaptive,
    Idebench,
    Scripted,
}

/// One workload of the benchmark.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what the workload is for.
    pub why: &'static str,
    pub rows: usize,
    pub source: Source,
    /// Sessions per round.
    pub sessions: usize,
    /// Interactions per session after the initial render.
    pub steps: usize,
    /// Result cache (16 × 128) and session-delta execution, together.
    pub reuse: bool,
    /// Execute through `RemoteDbms` over the in-process loopback transport.
    pub remote: bool,
}

/// Sessions `0..TWIN_SESSIONS` of `dash_reuse_250k` are the walks of
/// `dash_scan_250k`, so their fingerprint digests must be equal.
pub const TWIN_SESSIONS: usize = 10;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dash_scan_250k",
        why: "adaptive walks, no cache, no delta: every query is a fresh scan and aggregation, so engine kernels and the slow-call tail show here and frontend work must not",
        rows: 250_000,
        source: Source::Adaptive,
        sessions: TWIN_SESSIONS,
        steps: 20,
        reuse: false,
        remote: false,
    },
    Workload {
        name: "dash_reuse_250k",
        why: "the same table and walks with result cache and session delta on: most queries are answered by a tier, so cache-key, lookup and replay cost show here and leave dash_scan unchanged",
        rows: 250_000,
        source: Source::Adaptive,
        sessions: 32,
        steps: 20,
        reuse: true,
        remote: false,
    },
    Workload {
        name: "filter_storm_100k",
        why: "IDEBench storms (0.7/0.22/0.08): every chart refreshes under growing multi-conjunct filters, so filter kernels, selection vectors and zone-map pruning work instead of group-by",
        rows: 100_000,
        source: Source::Idebench,
        sessions: 8,
        steps: 26,
        reuse: false,
        remote: false,
    },
    Workload {
        name: "wire_loopback_10k",
        why: "scripted sessions over RemoteDbms loopback on a small table: print, frame encode, serve, parse, plan and JSON decode are a large share, so wire and driver bookkeeping show here and kernels must not",
        rows: 10_000,
        source: Source::Scripted,
        sessions: 12,
        steps: 192,
        reuse: false,
        remote: true,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at unit-test size: 2K rows, 2 sessions × `steps`.
    /// (An untraced run needs 100 steps: a round must still hold the 200
    /// steps a gated p95 needs.)
    pub fn tiny(&self, steps: usize) -> Workload {
        Workload {
            rows: 2_000,
            sessions: 2,
            steps,
            ..self.clone()
        }
    }

    /// The declarative scenario a round re-assembles. With
    /// `seed == WALK_SEED` a round and `Driver::execute(&spec)` issue the
    /// same queries over the same table.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(self.name, "customer_service");
        spec.rows = self.rows;
        spec.seed = seed;
        spec.sessions = self.sessions;
        spec.steps_per_session = self.steps;
        spec.workers = 1;
        let local = EngineSpec::local("duckdb-like", 1);
        spec.engine = if self.remote {
            EngineSpec::remote(simba_server::LOOPBACK_ADDR, local)
        } else {
            local
        };
        spec.source = match self.source {
            Source::Adaptive => SourceSpec::adaptive(),
            Source::Idebench => SourceSpec::idebench(),
            Source::Scripted => SourceSpec::scripted(),
        };
        if self.reuse {
            spec.cache = Some(CacheSpec::default());
            spec.delta = true;
        }
        spec
    }
}
