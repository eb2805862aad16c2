//! The unified workload API: declarative scenarios over every session mode.
//!
//! A [`ScenarioSpec`] is a complete, serde-serializable description of one
//! driver run — dataset, scale, seed, engine (+ scan threads), session
//! source (scripted / adaptive / idebench), pacing, cache, and worker
//! count. [`Driver::execute`] resolves a spec into tables, dashboards,
//! engines, and a [`SessionSource`](crate::SessionSource), and runs it through the one concurrent
//! loop ([`Driver::run_source`]). Everything that used to require a
//! dedicated binary is now a data file:
//!
//! ```
//! use simba_driver::workload::{ScenarioSpec, SourceSpec};
//! use simba_driver::Driver;
//!
//! let mut spec = ScenarioSpec::new("doc-smoke", "customer_service");
//! spec.rows = 500;
//! spec.sessions = 2;
//! spec.steps_per_session = 3;
//! spec.source = SourceSpec::Adaptive {
//!     models: vec![],
//!     backtrack_on_empty: true,
//!     drill_into_top_group: true,
//! };
//! spec.collect_fingerprints = true;
//!
//! // Specs round-trip through JSON, so scenarios ship as data files.
//! let json = spec.to_json();
//! let parsed = ScenarioSpec::from_json(&json).unwrap();
//! let outcome = Driver::execute(&parsed).unwrap();
//! assert_eq!(outcome.report.session_mode, "adaptive");
//! assert_eq!(outcome.report.scenario_name, "doc-smoke");
//! assert!(outcome.report.queries > 0);
//! ```
//!
//! Scale can be named instead of counted: the `size` field takes a
//! [`DatasetSize`] label from the paper's grid (Table 3) and overrides
//! `rows`, so a spec file can say `"size": "10M"`:
//!
//! ```
//! use simba_driver::workload::ScenarioSpec;
//!
//! let mut spec = ScenarioSpec::new("tiered", "supply_chain");
//! spec.size = Some("10K".into());
//! assert_eq!(spec.effective_rows().unwrap(), 10_000);
//! ```
//!
//! The [`registry`] holds the built-in scenarios (`smoke`,
//! `concurrent-shootout`, `adaptive-shootout`, `idebench`, `perf-report`,
//! the fault-injection suite `chaos`, the over-the-wire `remote-shootout`
//! and the session-delta `delta-shootout`) that
//! the `simba-bench` CLI exposes as `bench --scenario <name>`; adding a
//! new workload means writing a spec (or a suite-builder function) plus,
//! at most, a new [`SessionSource`](crate::SessionSource) impl — never a new binary.
//!
//! # Determinism
//!
//! `Driver::execute` derives every seed from `spec.seed`, so a spec-driven
//! run is byte-identical (action sequences and result fingerprints) to
//! hand-assembling the same source and calling [`Driver::run_source`] —
//! the `scenario_determinism` integration test pins this.

use crate::cache::CacheConfig;
use crate::driver::{Arrival, Driver, DriverConfig, DriverOutcome, ThinkTime};
use crate::report::FaultReport;
use crate::resilience::ResiliencePolicy;

/// The `cache` block of a spec is the cache's own [`CacheConfig`]. The old
/// name stays importable only because the frozen `benchmark/` package
/// imports both.
pub use crate::cache::CacheConfig as CacheSpec;
use serde::{Deserialize, Serialize};
use simba_core::dashboard::Dashboard;
use simba_core::markov::MarkovModel;
use simba_core::session::adaptive::AdaptivePolicy;
use simba_core::session::batch::{synthesize_scripts, BatchConfig};
use simba_core::session::source::{AdaptiveSource, AdaptiveWalkConfig, ScriptedSource};
use simba_core::spec::builtin::builtin;
use simba_data::{DashboardDataset, DatasetSize};
use simba_engine::{Dbms, EngineKind, FaultConfig, FaultInjectingDbms};
use simba_idebench::{ActionProbs, IdebenchSource};
use simba_store::Table;
use std::sync::Arc;

pub mod registry;

/// Everything wrong a spec can be before a single query runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    UnknownDataset(String),
    UnknownEngine(String),
    UnknownModel(String),
    /// A remote engine address that cannot be a `host:port` (caught at
    /// validation time, not at connect time).
    InvalidAddr(String),
    /// A well-formed remote address that did not answer the dial.
    RemoteUnavailable {
        addr: String,
        reason: String,
    },
    InvalidSpec(String),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::UnknownDataset(name) => {
                write!(
                    f,
                    "unknown dataset `{name}` (expected a builtin table name)"
                )
            }
            WorkloadError::UnknownEngine(name) => write!(f, "unknown engine `{name}`"),
            WorkloadError::UnknownModel(name) => {
                write!(f, "unknown Markov model preset `{name}`")
            }
            WorkloadError::InvalidAddr(addr) => {
                write!(
                    f,
                    "invalid server address `{addr}` (expected host:port or \"loopback\")"
                )
            }
            WorkloadError::RemoteUnavailable { addr, reason } => {
                write!(f, "no simba-server answered at `{addr}`: {reason}")
            }
            WorkloadError::InvalidSpec(why) => write!(f, "invalid scenario spec: {why}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Engine selection: which of the four architectures, at what intra-query
/// scan parallelism — and *where* it runs.
///
/// `Local` executes in-process, as every scenario did before the server
/// split. `Remote` wraps a `Local` selection with a `simba-server`
/// address; the driver then speaks the wire protocol through
/// [`simba_server::RemoteDbms`] instead of calling the engine directly.
/// The special address `"loopback"` serves the same wire bytes through an
/// in-process server core, so determinism tests cover the full protocol
/// without sockets.
///
/// # Wire shape
///
/// Serialization is hand-written for backward compatibility: `Local`
/// keeps the legacy flat object (`{"kind": "duckdb-like",
/// "scan_threads": 1}`), so every existing scenario file still parses,
/// and `Remote` is `{"addr": "host:port", "engine": {...}}` — the
/// deserializer dispatches on the presence of `"addr"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineSpec {
    /// An in-process engine.
    Local {
        /// Engine name (`"duckdb-like"`, `"postgres-like"`,
        /// `"sqlite-like"`, `"monetdb-like"`).
        kind: String,
        /// Morsel-parallel scan threads; `1` = sequential, `0` = one per
        /// core. Only `duckdb-like` honors values other than 1.
        scan_threads: usize,
    },
    /// The same engine selection, served by a `simba-server` at `addr`.
    Remote {
        /// `host:port` of a live server, or `"loopback"` for the
        /// in-process transport.
        addr: String,
        /// The engine to address on that server (must be `Local`;
        /// remotes do not nest).
        engine: Box<EngineSpec>,
    },
}

impl Serialize for EngineSpec {
    fn to_content(&self) -> serde::Content {
        use serde::Content;
        match self {
            EngineSpec::Local { kind, scan_threads } => Content::Map(vec![
                ("kind".to_string(), kind.to_content()),
                ("scan_threads".to_string(), scan_threads.to_content()),
            ]),
            EngineSpec::Remote { addr, engine } => Content::Map(vec![
                ("addr".to_string(), addr.to_content()),
                ("engine".to_string(), engine.to_content()),
            ]),
        }
    }
}

impl Deserialize for EngineSpec {
    fn from_content(c: &serde::Content) -> Result<Self, String> {
        let serde::Content::Map(entries) = c else {
            return Err("expected an engine spec object".to_string());
        };
        let field = |name: &str| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        if let Some(addr) = field("addr") {
            let engine = field("engine")
                .ok_or_else(|| "remote engine spec is missing `engine`".to_string())?;
            Ok(EngineSpec::Remote {
                addr: Deserialize::from_content(addr)?,
                engine: Box::new(EngineSpec::from_content(engine)?),
            })
        } else {
            let kind = field("kind").ok_or_else(|| "engine spec is missing `kind`".to_string())?;
            let scan_threads = match field("scan_threads") {
                Some(v) => Deserialize::from_content(v)?,
                None => 1,
            };
            Ok(EngineSpec::Local {
                kind: Deserialize::from_content(kind)?,
                scan_threads,
            })
        }
    }
}

impl EngineSpec {
    /// A sequential in-process engine of the given kind.
    pub fn new(kind: EngineKind) -> EngineSpec {
        EngineSpec::local(kind.name(), 1)
    }

    /// An in-process engine by name and scan parallelism.
    pub fn local(kind: impl Into<String>, scan_threads: usize) -> EngineSpec {
        EngineSpec::Local {
            kind: kind.into(),
            scan_threads,
        }
    }

    /// The given engine selection, served remotely from `addr`.
    pub fn remote(addr: impl Into<String>, engine: EngineSpec) -> EngineSpec {
        EngineSpec::Remote {
            addr: addr.into(),
            engine: Box::new(engine),
        }
    }

    /// The engine name, looking through a `Remote` wrapper.
    pub fn kind_name(&self) -> &str {
        match self {
            EngineSpec::Local { kind, .. } => kind,
            EngineSpec::Remote { engine, .. } => engine.kind_name(),
        }
    }

    /// The scan-thread setting, looking through a `Remote` wrapper.
    pub fn scan_threads(&self) -> usize {
        match self {
            EngineSpec::Local { scan_threads, .. } => *scan_threads,
            EngineSpec::Remote { engine, .. } => engine.scan_threads(),
        }
    }

    /// Does this spec cross a wire?
    pub fn is_remote(&self) -> bool {
        matches!(self, EngineSpec::Remote { .. })
    }

    /// Does this spec need an external `simba-server` process? (`false`
    /// for local engines *and* for the in-process `"loopback"` server.)
    pub fn needs_external_server(&self) -> bool {
        matches!(self, EngineSpec::Remote { addr, .. } if addr != simba_server::LOOPBACK_ADDR)
    }

    /// The server address, if remote.
    pub fn addr(&self) -> Option<&str> {
        match self {
            EngineSpec::Local { .. } => None,
            EngineSpec::Remote { addr, .. } => Some(addr),
        }
    }

    /// Everything checkable without touching the network: the engine name
    /// is known, a remote address is well-formed, and remotes don't nest.
    fn validate(&self) -> Result<(), WorkloadError> {
        match self {
            EngineSpec::Local { kind, .. } => {
                EngineKind::from_name(kind)
                    .ok_or_else(|| WorkloadError::UnknownEngine(kind.clone()))?;
                Ok(())
            }
            EngineSpec::Remote { addr, engine } => {
                validate_addr(addr)?;
                if engine.is_remote() {
                    return Err(WorkloadError::InvalidSpec(
                        "remote engine specs cannot nest".into(),
                    ));
                }
                engine.validate()
            }
        }
    }

    fn resolve(&self) -> Result<Arc<dyn simba_engine::Dbms>, WorkloadError> {
        self.validate()?;
        match self {
            EngineSpec::Local { kind, scan_threads } => {
                let kind = EngineKind::from_name(kind)
                    .ok_or_else(|| WorkloadError::UnknownEngine(kind.clone()))?;
                Ok(if *scan_threads == 1 {
                    kind.build()
                } else {
                    kind.build_with_threads(*scan_threads)
                })
            }
            EngineSpec::Remote { addr, engine } => {
                let kind = EngineKind::from_name(engine.kind_name())
                    .ok_or_else(|| WorkloadError::UnknownEngine(engine.kind_name().into()))?;
                // Dial eagerly: an unreachable server fails the run at
                // setup, not via per-query Transient errors mid-run.
                let remote = simba_server::RemoteDbms::connect(addr, kind, engine.scan_threads())
                    .map_err(|e| WorkloadError::RemoteUnavailable {
                    addr: addr.clone(),
                    reason: e.to_string(),
                })?;
                Ok(Arc::new(remote))
            }
        }
    }
}

/// Accept `"loopback"` or `host:port` with a nonempty host and a nonzero
/// port. Rejected here, at spec-validation time, so a typo in an address
/// fails `bench` before any dataset is generated or socket dialed. Public
/// so the CLI can reject `--addr` typos at flag-parse
/// time with the same rule.
pub fn validate_addr(addr: &str) -> Result<(), WorkloadError> {
    if addr == simba_server::LOOPBACK_ADDR {
        return Ok(());
    }
    let invalid = || WorkloadError::InvalidAddr(addr.to_string());
    let (host, port) = addr.rsplit_once(':').ok_or_else(invalid)?;
    if host.is_empty() {
        return Err(invalid());
    }
    match port.parse::<u16>() {
        Ok(p) if p != 0 => Ok(()),
        _ => Err(invalid()),
    }
}

/// Which session source drives the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SourceSpec {
    /// Pre-synthesized Markov scripts replayed verbatim (never reacts to
    /// results). `models` are preset names; empty = the full preset mix.
    Scripted { models: Vec<String> },
    /// Live walks steered by result inspection.
    Adaptive {
        /// Markov preset names; empty = the full preset mix.
        models: Vec<String>,
        backtrack_on_empty: bool,
        drill_into_top_group: bool,
    },
    /// IDEBench-style stochastic filter storms over per-user implicit
    /// random dashboards.
    Idebench {
        add_filter: f64,
        modify_filter: f64,
        remove_filter: f64,
    },
}

impl SourceSpec {
    /// Adaptive source with the default steering policy.
    pub fn adaptive() -> SourceSpec {
        SourceSpec::Adaptive {
            models: Vec::new(),
            backtrack_on_empty: true,
            drill_into_top_group: true,
        }
    }

    /// Scripted source with the default model mix.
    pub fn scripted() -> SourceSpec {
        SourceSpec::Scripted { models: Vec::new() }
    }

    /// IDEBench source with the paper's default action probabilities.
    pub fn idebench() -> SourceSpec {
        let probs = ActionProbs::default();
        SourceSpec::Idebench {
            add_filter: probs.add_filter,
            modify_filter: probs.modify_filter,
            remove_filter: probs.remove_filter,
        }
    }

    /// Stable mode name this source reports as.
    pub fn mode(&self) -> &'static str {
        match self {
            SourceSpec::Scripted { .. } => "scripted",
            SourceSpec::Adaptive { .. } => "adaptive",
            SourceSpec::Idebench { .. } => "idebench",
        }
    }
}

/// One fully declarative driver run: the single source of truth for every
/// knob that used to be spread across `DriverConfig`, walk configs,
/// `BatchConfig`, and per-binary environment variables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name, stamped into the report.
    pub name: String,
    /// Builtin dataset table name (e.g. `"customer_service"`).
    pub dataset: String,
    /// Rows to generate. Ignored when [`size`](Self::size) is set.
    pub rows: usize,
    /// Optional [`DatasetSize`] label (`"10K"`, `"100K"`, `"1M"`, `"10M"`)
    /// naming the paper's grid tiers; when set it overrides `rows`, so
    /// scenario files can say `"size": "10M"` instead of a raw count.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub size: Option<String>,
    /// Master seed: dataset generation, walks, and pacing all derive from
    /// this one value.
    pub seed: u64,
    /// Concurrent user sessions.
    pub sessions: usize,
    /// Interactions per session after the initial render.
    pub steps_per_session: usize,
    pub engine: EngineSpec,
    pub source: SourceSpec,
    pub think: ThinkTime,
    pub arrival: Arrival,
    /// `Some` enables the shared result cache.
    pub cache: Option<CacheConfig>,
    /// Worker threads; `0` = `min(sessions, available_parallelism)`.
    pub workers: usize,
    /// Record per-query result fingerprints (equivalence/determinism
    /// tests; costs a clone+sort per result).
    pub collect_fingerprints: bool,
    /// Enable session-delta execution: each session carries a per-session
    /// store and engines that opt in (duckdb-like) seed scans from the
    /// previous step's surviving rows. Results stay byte-identical to a
    /// delta-off run; only latency and the report's `delta` section
    /// change. Composes with `resilience` (a failed attempt resets the
    /// store) but not with an active `fault`, which `validate` rejects.
    /// Defaults to off so existing scenario files stay valid.
    #[serde(default)]
    pub delta: bool,
    /// Collect a [`simba_obs`] metrics snapshot (counters + per-phase
    /// latency histograms) over the run and attach it to the report.
    /// Defaults to off so existing scenario files stay valid.
    #[serde(default)]
    pub collect_metrics: bool,
    /// `Some` with non-zero probabilities wraps the engine in a
    /// [`FaultInjectingDbms`]; `None` (the default) or an
    /// explicit-but-inert block leaves the engine untouched and the run
    /// byte-identical to pre-chaos builds.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub fault: Option<FaultConfig>,
    /// Deadlines and retries around every query; `None` is the inert
    /// policy (one attempt, no deadline).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub resilience: Option<ResiliencePolicy>,
}

impl ScenarioSpec {
    /// A small closed-loop spec over `dataset` with the duckdb-like engine
    /// and scripted sessions; override fields as needed.
    pub fn new(name: impl Into<String>, dataset: impl Into<String>) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            dataset: dataset.into(),
            rows: 10_000,
            size: None,
            seed: 0,
            sessions: 4,
            steps_per_session: 8,
            engine: EngineSpec::new(EngineKind::DuckDbLike),
            source: SourceSpec::scripted(),
            think: ThinkTime::None,
            arrival: Arrival::Closed,
            cache: None,
            workers: 0,
            collect_fingerprints: false,
            delta: false,
            collect_metrics: false,
            fault: None,
            resilience: None,
        }
    }

    /// Pretty JSON, for scenario data files.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serializes")
    }

    /// Parse a spec from JSON.
    pub fn from_json(json: &str) -> Result<ScenarioSpec, WorkloadError> {
        serde_json::from_str(json).map_err(|e| WorkloadError::InvalidSpec(e.to_string()))
    }

    /// Check everything that can be checked without generating data.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        self.resolve_dataset()?;
        self.engine.validate()?;
        if self.sessions == 0 {
            return Err(WorkloadError::InvalidSpec("sessions must be > 0".into()));
        }
        if self.effective_rows()? == 0 {
            return Err(WorkloadError::InvalidSpec("rows must be > 0".into()));
        }
        if let Arrival::Open { rate_per_sec } = self.arrival {
            // NaN must fail too, so compare for the good case and negate.
            let positive = rate_per_sec > 0.0;
            if !positive {
                return Err(WorkloadError::InvalidSpec(
                    "open-loop arrival rate must be positive".into(),
                ));
            }
        }
        match &self.source {
            SourceSpec::Scripted { models } | SourceSpec::Adaptive { models, .. } => {
                resolve_mix(models)?;
            }
            SourceSpec::Idebench {
                add_filter,
                modify_filter,
                remove_filter,
            } => {
                for (name, p) in [
                    ("add_filter", add_filter),
                    ("modify_filter", modify_filter),
                    ("remove_filter", remove_filter),
                ] {
                    if !(0.0..=1.0).contains(p) {
                        return Err(WorkloadError::InvalidSpec(format!(
                            "idebench probability {name} must be in [0, 1] (got {p})"
                        )));
                    }
                }
                let sum = add_filter + modify_filter + remove_filter;
                if !(0.99..=1.01).contains(&sum) {
                    return Err(WorkloadError::InvalidSpec(format!(
                        "idebench action probabilities must sum to 1 (got {sum})"
                    )));
                }
            }
        }
        if let Some(fault) = &self.fault {
            for (name, p) in [
                ("latency_spike_prob", fault.latency_spike_prob),
                ("transient_error_prob", fault.transient_error_prob),
                ("permanent_error_prob", fault.permanent_error_prob),
                ("panic_prob", fault.panic_prob),
            ] {
                if !(0.0..=1.0).contains(&p) {
                    return Err(WorkloadError::InvalidSpec(format!(
                        "fault probability {name} must be in [0, 1] (got {p})"
                    )));
                }
            }
            // The three error outcomes are drawn from one cumulative band,
            // so their mass must fit in a single unit draw.
            let error_mass =
                fault.transient_error_prob + fault.permanent_error_prob + fault.panic_prob;
            if error_mass > 1.0 {
                return Err(WorkloadError::InvalidSpec(format!(
                    "fault error probabilities must sum to at most 1 (got {error_mass})"
                )));
            }
            if fault.latency_spike_prob > 0.0 && fault.latency_spike_ms == 0 {
                return Err(WorkloadError::InvalidSpec(
                    "latency_spike_prob is set but latency_spike_ms is 0".into(),
                ));
            }
        }
        if self.delta && self.fault.as_ref().is_some_and(FaultConfig::is_active) {
            // The fault wrapper keys its deterministic draws on the
            // `QueryCtx` of `execute_at`; `execute_delta` cannot carry
            // one, so the wrapper would decline delta for every query.
            return Err(WorkloadError::InvalidSpec(
                "`delta` cannot be combined with an active `fault`: injected faults are keyed \
                 on the per-attempt query context, which delta execution cannot carry"
                    .into(),
            ));
        }
        if let Some(res) = &self.resilience {
            if res.max_retries > 0 && res.backoff_cap_ms < res.backoff_base_ms {
                return Err(WorkloadError::InvalidSpec(format!(
                    "backoff_cap_ms ({}) must be >= backoff_base_ms ({})",
                    res.backoff_cap_ms, res.backoff_base_ms
                )));
            }
        }
        Ok(())
    }

    fn resolve_dataset(&self) -> Result<DashboardDataset, WorkloadError> {
        DashboardDataset::from_table_name(&self.dataset)
            .ok_or_else(|| WorkloadError::UnknownDataset(self.dataset.clone()))
    }

    /// The row count this spec resolves to: the [`size`](Self::size)
    /// label's tier when set, `rows` otherwise. Errors on an unknown
    /// label.
    pub fn effective_rows(&self) -> Result<usize, WorkloadError> {
        match &self.size {
            None => Ok(self.rows),
            Some(label) => DatasetSize::from_label(label)
                .map(DatasetSize::row_count)
                .ok_or_else(|| {
                    WorkloadError::InvalidSpec(format!(
                        "unknown dataset size label `{label}` (expected 10K/100K/1M/10M)"
                    ))
                }),
        }
    }

    /// Generate the dataset table this spec runs over.
    pub fn build_table(&self) -> Result<Arc<Table>, WorkloadError> {
        let ds = self.resolve_dataset()?;
        Ok(Arc::new(
            ds.generate_rows(self.effective_rows()?, self.seed),
        ))
    }
}

/// The pacing/seed/cache/resilience half of a spec, as the driver config.
impl From<&ScenarioSpec> for DriverConfig {
    fn from(spec: &ScenarioSpec) -> DriverConfig {
        DriverConfig {
            workers: spec.workers,
            think_time: spec.think.clone(),
            arrival: spec.arrival.clone(),
            seed: spec.seed,
            cache: spec.cache.clone(),
            collect_fingerprints: spec.collect_fingerprints,
            delta: spec.delta,
            collect_metrics: spec.collect_metrics,
            resilience: spec.resilience.clone().unwrap_or_default(),
        }
    }
}

fn resolve_mix(models: &[String]) -> Result<Vec<MarkovModel>, WorkloadError> {
    if models.is_empty() {
        return Ok(MarkovModel::presets());
    }
    models
        .iter()
        .map(|name| {
            MarkovModel::preset(name).ok_or_else(|| WorkloadError::UnknownModel(name.clone()))
        })
        .collect()
}

/// Memoizes dataset generation across the specs of one suite.
///
/// A shootout suite expands to dozens of specs sharing one
/// `(dataset, rows, seed)` triple; generating the table once per *suite*
/// instead of once per *spec* is the difference between seconds and
/// minutes at paper scale. Generation is deterministic in the key, so
/// reuse cannot change results.
#[derive(Default)]
pub struct TableCache {
    entries: Vec<((String, usize, u64), Arc<Table>)>,
}

impl TableCache {
    pub fn new() -> TableCache {
        TableCache::default()
    }

    /// The table for `spec`, generated on first use. Keys resolve through
    /// [`ScenarioSpec::effective_rows`], so a spec saying `"size": "1M"`
    /// and one saying `"rows": 1000000` share a single generation.
    pub fn get(&mut self, spec: &ScenarioSpec) -> Result<Arc<Table>, WorkloadError> {
        let key = (spec.dataset.clone(), spec.effective_rows()?, spec.seed);
        if let Some((_, table)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Ok(table.clone());
        }
        let table = spec.build_table()?;
        self.entries.push((key, table.clone()));
        Ok(table)
    }
}

impl Driver {
    /// Execute one declarative scenario end to end: resolve the dataset,
    /// dashboard, engine, and session source from `spec`, run the unified
    /// concurrent loop, and stamp the report with the scenario name.
    ///
    /// For any spec this produces byte-identical action sequences and
    /// result fingerprints to hand-assembling the same source and calling
    /// [`Driver::run_source`].
    pub fn execute(spec: &ScenarioSpec) -> Result<DriverOutcome, WorkloadError> {
        Self::execute_with(spec, &mut TableCache::new())
    }

    /// [`execute`](Self::execute) with a caller-held [`TableCache`], so a
    /// suite of specs sharing a dataset generates it once.
    pub fn execute_with(
        spec: &ScenarioSpec,
        tables: &mut TableCache,
    ) -> Result<DriverOutcome, WorkloadError> {
        spec.validate()?;
        let table = tables.get(spec)?;
        let bare = spec.engine.resolve()?;
        bare.register(table.clone());
        // Wrap *after* registration so table setup can never fault; only
        // query execution is chaos-eligible.
        let fault = spec
            .fault
            .as_ref()
            .filter(|f| f.is_active())
            .map(|f| Arc::new(FaultInjectingDbms::new(bare.clone(), f.clone())));
        let engine: Arc<dyn Dbms> = match &fault {
            Some(wrapper) => wrapper.clone(),
            None => bare,
        };
        let driver = Driver::new(DriverConfig::from(spec));

        let mut outcome = match &spec.source {
            SourceSpec::Scripted { models } => {
                let ds = spec.resolve_dataset()?;
                let dashboard = Dashboard::new(builtin(ds), &table)
                    .map_err(|e| WorkloadError::InvalidSpec(e.to_string()))?;
                let scripts = synthesize_scripts(
                    &dashboard,
                    &BatchConfig {
                        base_seed: spec.seed,
                        steps_per_session: spec.steps_per_session,
                        mix: resolve_mix(models)?,
                    },
                    spec.sessions,
                );
                driver.run_source(engine, &ScriptedSource::new(scripts))
            }
            SourceSpec::Adaptive {
                models,
                backtrack_on_empty,
                drill_into_top_group,
            } => {
                let ds = spec.resolve_dataset()?;
                let dashboard = Dashboard::new(builtin(ds), &table)
                    .map_err(|e| WorkloadError::InvalidSpec(e.to_string()))?;
                let source = AdaptiveSource::new(
                    &dashboard,
                    AdaptiveWalkConfig {
                        base_seed: spec.seed,
                        steps_per_session: spec.steps_per_session,
                        mix: resolve_mix(models)?,
                        policy: AdaptivePolicy {
                            backtrack_on_empty: *backtrack_on_empty,
                            drill_into_top_group: *drill_into_top_group,
                        },
                    },
                    spec.sessions,
                );
                driver.run_source(engine, &source)
            }
            SourceSpec::Idebench {
                add_filter,
                modify_filter,
                remove_filter,
            } => {
                let source = IdebenchSource::new(
                    table.clone(),
                    spec.seed,
                    spec.sessions,
                    spec.steps_per_session,
                )
                .with_probs(ActionProbs {
                    add_filter: *add_filter,
                    modify_filter: *modify_filter,
                    remove_filter: *remove_filter,
                });
                driver.run_source(engine, &source)
            }
        };
        outcome.report.scenario_name = spec.name.clone();
        if let Some(wrapper) = &fault {
            let stats = wrapper.stats();
            outcome.report.fault = Some(FaultReport {
                latency_spikes: stats.latency_spikes,
                transient: stats.transient_errors,
                permanent: stats.permanent_errors,
                panics: stats.panics,
            });
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec = ScenarioSpec::new("round-trip", "customer_service");
        spec.source = SourceSpec::adaptive();
        spec.cache = Some(CacheConfig::default());
        spec.think = ThinkTime::Exponential { mean_millis: 5 };
        spec.arrival = Arrival::Open { rate_per_sec: 12.5 };
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);

        let idebench = ScenarioSpec {
            source: SourceSpec::idebench(),
            ..spec
        };
        let parsed = ScenarioSpec::from_json(&idebench.to_json()).unwrap();
        assert_eq!(parsed, idebench);
    }

    #[test]
    fn engine_spec_keeps_the_legacy_wire_shape() {
        // Pre-server scenario files say {"kind", "scan_threads"}; they must
        // keep parsing, and Local must keep writing that exact shape.
        let legacy = r#"{"kind": "duckdb-like", "scan_threads": 2}"#;
        let parsed: EngineSpec = serde_json::from_str(legacy).unwrap();
        assert_eq!(parsed, EngineSpec::local("duckdb-like", 2));
        let json = serde_json::to_string(&parsed).unwrap();
        assert!(
            json.contains("\"kind\"") && !json.contains("\"addr\""),
            "{json}"
        );

        let remote = EngineSpec::remote("10.0.0.7:4640", EngineSpec::local("monetdb-like", 1));
        let json = serde_json::to_string(&remote).unwrap();
        assert!(json.contains("\"addr\""), "{json}");
        let back: EngineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, remote);
        assert_eq!(back.kind_name(), "monetdb-like");
        assert_eq!(back.scan_threads(), 1);
        assert!(back.is_remote());
        assert!(back.needs_external_server());
        assert!(
            !EngineSpec::remote("loopback", EngineSpec::new(EngineKind::SqliteLike))
                .needs_external_server()
        );
    }

    #[test]
    fn validate_rejects_unknowns_and_nonsense() {
        let good = ScenarioSpec::new("ok", "customer_service");
        assert!(good.validate().is_ok());

        let mut spec = good.clone();
        spec.dataset = "nope".into();
        assert!(matches!(
            spec.validate(),
            Err(WorkloadError::UnknownDataset(_))
        ));

        let mut spec = good.clone();
        spec.engine = EngineSpec::local("oracle23ai", 1);
        assert!(matches!(
            spec.validate(),
            Err(WorkloadError::UnknownEngine(_))
        ));

        let mut spec = good.clone();
        spec.engine = EngineSpec::remote("not-an-addr", EngineSpec::new(EngineKind::SqliteLike));
        assert!(matches!(
            spec.validate(),
            Err(WorkloadError::InvalidAddr(_))
        ));

        let mut spec = good.clone();
        spec.engine = EngineSpec::remote("127.0.0.1:0", EngineSpec::new(EngineKind::SqliteLike));
        assert!(matches!(
            spec.validate(),
            Err(WorkloadError::InvalidAddr(_))
        ));

        let mut spec = good.clone();
        spec.engine = EngineSpec::remote(
            "127.0.0.1:4640",
            EngineSpec::remote("127.0.0.1:4641", EngineSpec::new(EngineKind::SqliteLike)),
        );
        assert!(matches!(
            spec.validate(),
            Err(WorkloadError::InvalidSpec(_))
        ));

        let mut spec = good.clone();
        spec.source = SourceSpec::Scripted {
            models: vec!["brownian".into()],
        };
        assert!(matches!(
            spec.validate(),
            Err(WorkloadError::UnknownModel(_))
        ));

        let mut spec = good.clone();
        spec.sessions = 0;
        assert!(spec.validate().is_err());

        let mut spec = good.clone();
        spec.arrival = Arrival::Open { rate_per_sec: 0.0 };
        assert!(spec.validate().is_err());

        let mut spec = good.clone();
        spec.source = SourceSpec::Idebench {
            add_filter: 0.9,
            modify_filter: 0.9,
            remove_filter: 0.9,
        };
        assert!(spec.validate().is_err());

        // Sums to 1 but an individual probability is out of range: the
        // declared distribution would be unreachable at run time.
        let mut spec = good;
        spec.source = SourceSpec::Idebench {
            add_filter: 1.2,
            modify_filter: -0.2,
            remove_filter: 0.0,
        };
        assert!(spec.validate().is_err());

        // A file of any other shape — here a dump of the retired
        // datagen-sweep scenario — is an ordinary spec error naming the
        // first missing field; it is not retried as something else.
        let sweep = r#"{"datasets": [], "sizes": ["10K"], "threads": [], "seed": 0}"#;
        match ScenarioSpec::from_json(sweep) {
            Err(WorkloadError::InvalidSpec(why)) => {
                assert!(why.contains("missing field `name`"), "{why}")
            }
            other => panic!("a datagen-sweep file must not parse, got {other:?}"),
        }
    }

    #[test]
    fn fault_and_resilience_round_trip_and_stay_optional() {
        let mut spec = ScenarioSpec::new("chaotic", "customer_service");
        spec.fault = Some(FaultConfig {
            seed: 9,
            latency_spike_prob: 0.1,
            latency_spike_ms: 5,
            transient_error_prob: 0.2,
            permanent_error_prob: 0.05,
            panic_prob: 0.01,
        });
        spec.resilience = Some(ResiliencePolicy {
            deadline_ms: 250,
            max_retries: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
        });
        spec.validate().unwrap();
        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);

        // Old spec files (no chaos sections) keep parsing, and the
        // sections stay omitted when absent.
        let plain = ScenarioSpec::new("plain", "customer_service");
        let json = plain.to_json();
        assert!(!json.contains("\"fault\""), "None fault is omitted");
        assert!(
            !json.contains("\"resilience\""),
            "None resilience is omitted"
        );
        let parsed = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(parsed.fault, None);
        assert_eq!(parsed.resilience, None);
    }

    #[test]
    fn validate_rejects_bad_fault_and_resilience_values() {
        let good = ScenarioSpec::new("ok", "customer_service");

        let mut spec = good.clone();
        spec.fault = Some(FaultConfig {
            transient_error_prob: 1.5,
            ..FaultConfig::default()
        });
        assert!(spec.validate().is_err(), "probability over 1");

        let mut spec = good.clone();
        spec.fault = Some(FaultConfig {
            transient_error_prob: 0.5,
            permanent_error_prob: 0.4,
            panic_prob: 0.3,
            ..FaultConfig::default()
        });
        assert!(spec.validate().is_err(), "error bands exceed one draw");

        let mut spec = good.clone();
        spec.fault = Some(FaultConfig {
            latency_spike_prob: 0.2,
            latency_spike_ms: 0,
            ..FaultConfig::default()
        });
        assert!(spec.validate().is_err(), "spike with zero duration");

        let mut spec = good.clone();
        spec.resilience = Some(ResiliencePolicy {
            max_retries: 2,
            backoff_base_ms: 100,
            backoff_cap_ms: 10,
            ..ResiliencePolicy::default()
        });
        assert!(spec.validate().is_err(), "cap under base");

        // Inert sections are valid — and equivalent to omitting them.
        let mut spec = good;
        spec.fault = Some(FaultConfig::default());
        spec.resilience = Some(ResiliencePolicy::default());
        spec.delta = true;
        spec.validate().unwrap();
        assert!(!DriverConfig::from(&spec).resilience.is_active());
    }

    #[test]
    fn validate_rejects_delta_under_an_active_fault_by_name() {
        let mut spec = ScenarioSpec::new("chaotic", "customer_service");
        spec.delta = true;
        spec.fault = Some(FaultConfig {
            transient_error_prob: 0.1,
            ..FaultConfig::default()
        });
        match spec.validate() {
            Err(WorkloadError::InvalidSpec(why)) => {
                assert!(why.contains("`delta`") && why.contains("`fault`"), "{why}")
            }
            other => panic!("delta under an active fault must be rejected, got {other:?}"),
        }
        // Delta composes with deadlines and retries; only faults exclude it.
        spec.fault = None;
        spec.resilience = Some(ResiliencePolicy {
            deadline_ms: 100,
            max_retries: 2,
            ..ResiliencePolicy::default()
        });
        spec.validate().unwrap();
    }

    #[test]
    fn driver_config_carries_the_specs_policy_unconverted() {
        let mut spec = ScenarioSpec::new("chaotic", "customer_service");
        spec.resilience = Some(ResiliencePolicy {
            deadline_ms: 100,
            ..ResiliencePolicy::default()
        });
        let config = DriverConfig::from(&spec);
        assert!(config.resilience.is_active());
        assert_eq!(Some(&config.resilience), spec.resilience.as_ref());
    }

    #[test]
    fn size_label_overrides_rows_and_round_trips() {
        let mut spec = ScenarioSpec::new("sized", "customer_service");
        spec.rows = 77; // ignored once a size label is set
        spec.size = Some("10K".into());
        assert_eq!(spec.effective_rows().unwrap(), 10_000);
        spec.validate().unwrap();

        let parsed = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(parsed, spec);

        // Old spec files (no `size` field) keep parsing, with rows wins.
        let mut legacy = spec.clone();
        legacy.size = None;
        let json = legacy.to_json();
        assert!(!json.contains("\"size\""), "None size is omitted");
        let parsed = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(parsed.effective_rows().unwrap(), 77);

        let mut bad = spec;
        bad.size = Some("2G".into());
        assert!(bad.effective_rows().is_err());
        assert!(matches!(bad.validate(), Err(WorkloadError::InvalidSpec(_))));
    }

    #[test]
    fn table_cache_keys_on_effective_rows() {
        let mut by_label = ScenarioSpec::new("a", "customer_service");
        by_label.size = Some("10K".into());
        let mut by_rows = ScenarioSpec::new("b", "customer_service");
        by_rows.rows = 10_000;

        let mut cache = TableCache::new();
        let t1 = cache.get(&by_label).unwrap();
        let t2 = cache.get(&by_rows).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2), "label and raw rows share one table");
    }

    #[test]
    fn execute_runs_each_source_kind() {
        for source in [
            SourceSpec::scripted(),
            SourceSpec::adaptive(),
            SourceSpec::idebench(),
        ] {
            let mut spec = ScenarioSpec::new("exec-smoke", "customer_service");
            spec.rows = 400;
            spec.sessions = 2;
            spec.steps_per_session = 3;
            spec.engine = EngineSpec::new(EngineKind::SqliteLike);
            spec.source = source;
            let outcome = Driver::execute(&spec).unwrap();
            assert_eq!(outcome.report.scenario_name, "exec-smoke");
            assert_eq!(
                outcome.report.schema_version,
                crate::report::RunReport::SCHEMA_VERSION
            );
            assert_eq!(outcome.report.session_mode, spec.source.mode());
            assert_eq!(outcome.report.sessions, 2);
            assert!(outcome.report.queries > 0, "{:?}", outcome.report);
        }
    }
}
