//! What a run leaves behind: metric lines and the result line on standard
//! output, result files and the Chrome trace under `benchmark/out/`; and
//! the reader of `BENCHMARK.json`, which names every metric and bound.

use crate::env::Environment;
use crate::probe::Span;
use crate::run::{Metric, RunResult};
use serde::Content;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The benchmark's directory: `./benchmark` when run from the repository
/// root (as `BENCHMARK.json`'s command is), else where it was built.
pub fn bench_dir() -> PathBuf {
    let from_root = Path::new("benchmark");
    if Path::new("BENCHMARK.json").is_file() && from_root.is_dir() {
        from_root.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// Where result files and traces are written.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

pub fn object(entries: Vec<(&str, Content)>) -> Content {
    Content::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn text(s: &str) -> Content {
    Content::Str(s.to_string())
}

pub fn number(c: &Content) -> Option<f64> {
    match c {
        Content::F64(v) => Some(*v),
        Content::I64(v) => Some(*v as f64),
        Content::U64(v) => Some(*v as f64),
        _ => None,
    }
}

pub fn string(c: &Content) -> Option<&str> {
    match c {
        Content::Str(s) => Some(s),
        _ => None,
    }
}

pub fn entries(c: &Content) -> &[(String, Content)] {
    match c {
        Content::Map(entries) => entries,
        _ => &[],
    }
}

fn items(c: Option<&Content>) -> &[Content] {
    match c {
        Some(Content::Seq(items)) => items,
        _ => &[],
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Debug, Clone)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Contract {
    /// Read `BENCHMARK.json` from the repository root.
    pub fn load() -> Result<Contract, String> {
        let path = bench_dir().join("..").join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Contract::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let root: Content = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            items(root.get(key))
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(string)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: a {key} metric lacks `{f}`"))
                    };
                    Ok(Declared {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(number),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: items(root.get("workloads"))
                .iter()
                .filter_map(|w| w.get("name").and_then(string).map(str::to_string))
                .collect(),
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }
}

fn metrics_content(metrics: &[Metric], with_samples: bool) -> Content {
    Content::Map(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", Content::F64(m.value)), ("unit", text(m.unit))];
                if with_samples {
                    fields.push(("n", Content::U64(m.n as u64)));
                }
                (m.name.to_string(), object(fields))
            })
            .collect(),
    )
}

/// Every metric as `workload metric value unit n=<samples>`.
pub fn metric_lines(result: &RunResult) -> String {
    let mut out = String::new();
    for m in &result.metrics {
        let _ = writeln!(
            out,
            "{} {} {} {} n={}",
            result.workload, m.name, m.value, m.unit, m.n
        );
    }
    out
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(result: &RunResult) -> String {
    let line = object(vec![
        ("correct", Content::Bool(result.correct())),
        ("attempted", Content::U64(result.attempted)),
        ("failed", Content::U64(result.failed)),
        ("metrics", metrics_content(&result.metrics, false)),
    ]);
    serde_json::to_string(&line).expect("a content tree serializes")
}

/// The run as a result file: the result line's fields plus the
/// environment, the sample counts and what the correctness gate found.
pub fn result_file(result: &RunResult, env: &Environment, seconds: f64) -> Content {
    object(vec![
        ("env", env.to_content()),
        ("workload", text(result.workload)),
        ("seed", Content::U64(result.seed)),
        ("seconds", Content::F64(seconds)),
        ("trace", Content::Bool(result.trace)),
        ("correct", Content::Bool(result.correct())),
        ("attempted", Content::U64(result.attempted)),
        ("failed", Content::U64(result.failed)),
        ("digest", Content::U64(result.verdict.digest)),
        ("prefix_digest", Content::U64(result.verdict.prefix_digest)),
        (
            "oracle_checked",
            Content::U64(result.verdict.oracle_checked as u64),
        ),
        (
            "problems",
            Content::Seq(result.verdict.problems.iter().map(|p| text(p)).collect()),
        ),
        ("metrics", metrics_content(&result.metrics, true)),
    ])
}

/// Write `content` as pretty JSON to `out/<name>`.
pub fn write_out(name: &str, content: &Content) -> Result<PathBuf, String> {
    write_text(
        name,
        &serde_json::to_string_pretty(content).map_err(|e| e.to_string())?,
    )
}

fn write_text(name: &str, body: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Spans as Chrome `trace_event` JSON (complete events, µs timestamps):
/// opens in `about:tracing` or <https://ui.perfetto.dev>. Every event
/// carries its trace id (session / step / query), its parent span, and the
/// counts taken at the same boundary.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (id, s) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let dur_ns = s.end_ns.saturating_sub(s.start_ns);
        let _ = write!(
            out,
            "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{id},\"session\":{}",
            s.layer,
            s.name,
            s.layer,
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            dur_ns / 1_000,
            dur_ns % 1_000,
            s.session,
        );
        for (key, value) in [("parent", s.parent), ("step", s.step), ("query", s.query)] {
            if let Some(value) = value {
                let _ = write!(out, ",\"{key}\":{value}");
            }
        }
        if let Some(stats) = &s.stats {
            let _ = write!(
                out,
                ",\"rows_scanned\":{},\"rows_matched\":{},\"groups\":{},\"morsels_pruned\":{},\
                 \"delta_hits\":{},\"delta_group_hits\":{},\"delta_rows_saved\":{}",
                stats.rows_scanned,
                stats.rows_matched,
                stats.groups,
                stats.morsels_pruned,
                stats.delta_hits,
                stats.delta_group_hits,
                stats.delta_rows_saved,
            );
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Write the Chrome trace of a traced run to `out/<workload>.trace.json`.
pub fn write_trace(result: &RunResult) -> Result<PathBuf, String> {
    write_text(
        &format!("{}.trace.json", result.workload),
        &chrome_trace(&result.spans),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_trace_is_json_with_parents_and_counts() {
        let spans = vec![
            Span {
                layer: "simba-driver",
                name: "step",
                start_ns: 1_500,
                end_ns: 9_250,
                parent: None,
                session: 3,
                step: Some(2),
                query: None,
                stats: None,
            },
            Span {
                layer: "simba-engine",
                name: "call",
                start_ns: 2_000,
                end_ns: 8_000,
                parent: Some(0),
                session: 3,
                step: Some(2),
                query: Some(1),
                stats: Some(simba_engine::ExecStats {
                    rows_scanned: 42,
                    ..Default::default()
                }),
            },
        ];
        let parsed: Content = serde_json::from_str(&chrome_trace(&spans)).unwrap();
        let events = items(parsed.get("traceEvents"));
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(string),
            Some("simba-engine.call")
        );
        assert_eq!(events[0].get("ts").and_then(number), Some(1.5));
        assert_eq!(events[0].get("dur").and_then(number), Some(7.75));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(number), Some(0.0));
        assert_eq!(args.get("rows_scanned").and_then(number), Some(42.0));
    }
}
