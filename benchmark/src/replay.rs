//! The layer replay: time each crate's public functions, one call at a
//! time, over a deterministic sample of the `(Select, ResultSet)` pairs a
//! traced round recorded. This is how layers the driver calls internally
//! (key derivation, cache lookup, planning, wire encode/serve/decode) get a
//! number without any edit under `crates/`.

use crate::probe::QueryRecord;
use crate::run::Parts;
use crate::stats::{nearest_rank, share};
use simba_driver::{fingerprint, CacheConfig, CachedResult, ShardedResultCache};
use simba_obs::LatencyHistogram;
use simba_server::core::serve_encoded;
use simba_server::proto::{Decoder, EngineSel, Frame, Request, Response};
use simba_sql::printer::print_select;
use simba_sql::{delta_key, is_refinement, parse_select, query_cache_key, states_key};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Most pairs one replay visits.
pub const MAX_PAIRS: usize = 4096;

/// At most `max` items of `items`, evenly spaced from the first on.
pub fn evenly_spaced<T>(items: &[T], max: usize) -> Vec<&T> {
    let stride = items.len().div_ceil(max.max(1)).max(1);
    items.iter().step_by(stride).collect()
}

/// Wall time of one call, in nanoseconds.
fn time_ns<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = Instant::now();
    let out = black_box(f());
    (start.elapsed().as_nanos() as u64, out)
}

/// Median of per-call samples as a `(name, µs, "us", n)` row.
fn row(name: &'static str, samples: &mut [u64]) -> (&'static str, f64, &'static str, usize) {
    let p50 = nearest_rank(samples, 0.5).map_or(0.0, |ns| ns as f64 / 1e3);
    (name, p50, "us", samples.len())
}

/// Replay every layer; returns `(metric, value, unit, samples)` rows.
pub fn replay(
    queries: &[QueryRecord],
    parts: &Parts,
) -> Vec<(&'static str, f64, &'static str, usize)> {
    let sample = evenly_spaced(queries, MAX_PAIRS);
    let mut out = Vec::new();

    // simba-sql: printing, parsing, and the three keys.
    let (mut print, mut parse, mut cache_key, mut delta_keys) = (vec![], vec![], vec![], vec![]);
    for q in &sample {
        let (ns, sql) = time_ns(|| print_select(&q.select));
        print.push(ns);
        parse.push(time_ns(|| parse_select(&sql)).0);
        cache_key.push(time_ns(|| query_cache_key(&q.select)).0);
        delta_keys.push(time_ns(|| (delta_key(&q.select), states_key(&q.select))).0);
    }
    out.push(row("simba-sql.print_us", &mut print));
    out.push(row("simba-sql.parse_us", &mut parse));
    out.push(row("simba-sql.cache_key_us", &mut cache_key));
    out.push(row("simba-sql.delta_keys_us", &mut delta_keys));

    // Refinement proofs between consecutive queries of one session.
    let consecutive: Vec<(&QueryRecord, &QueryRecord)> = queries
        .windows(2)
        .filter(|pair| pair[0].session == pair[1].session)
        .map(|pair| (&pair[0], &pair[1]))
        .collect();
    let (mut refine, mut proved) = (vec![], 0usize);
    for (prev, next) in evenly_spaced(&consecutive, MAX_PAIRS) {
        let (ns, holds) = time_ns(|| is_refinement(&next.select, &prev.select));
        refine.push(ns);
        proved += usize::from(holds);
    }
    let attempts = refine.len();
    out.push(row("simba-sql.refine_us", &mut refine));
    out.push((
        "simba-sql.refine_proved_share",
        share(proved as f64, attempts as f64),
        "share",
        attempts,
    ));
    let distinct: BTreeSet<String> = queries.iter().map(|q| query_cache_key(&q.select)).collect();
    out.push((
        "simba-sql.distinct_key_share",
        share(distinct.len() as f64, queries.len() as f64),
        "share",
        queries.len(),
    ));

    // simba-engine: planning alone.
    let mut prepare = Vec::new();
    for q in &sample {
        prepare.push(time_ns(|| simba_engine::plan::prepare(&q.select, parts.table.clone())).0);
    }
    out.push(row("simba-engine.prepare_us", &mut prepare));

    // simba-driver: a hit in a cache holding the sample, and fingerprinting.
    let cache = ShardedResultCache::new(CacheConfig::default());
    let answered: Vec<(String, &QueryRecord)> = sample
        .iter()
        .filter(|q| q.result.is_some())
        .map(|q| (query_cache_key(&q.select), *q))
        .collect();
    for (key, q) in &answered {
        if let Some(result) = &q.result {
            cache.insert(
                key.clone(),
                Arc::new(CachedResult {
                    result: result.clone(),
                    stats: Default::default(),
                }),
            );
        }
    }
    let (mut lookup, mut fingerprints) = (vec![], vec![]);
    for (key, q) in &answered {
        lookup.push(time_ns(|| cache.lookup(key)).0);
        if let Some(result) = &q.result {
            fingerprints.push(time_ns(|| fingerprint(result)).0);
        }
    }
    out.push(row("simba-driver.cache_lookup_us", &mut lookup));
    out.push(row("simba-driver.fingerprint_us", &mut fingerprints));

    // simba-server: one wire round trip taken apart.
    let (mut encode, mut serve, mut decode, mut bytes) = (vec![], vec![], vec![], 0usize);
    if let Some(core) = &parts.core {
        let engine = EngineSel {
            kind: "duckdb-like".to_string(),
            scan_threads: 1,
        };
        for (id, q) in sample.iter().enumerate() {
            let sql = print_select(&q.select);
            let (encode_ns, request) = time_ns(|| {
                let request = Request::Execute {
                    engine: engine.clone(),
                    sql,
                };
                Frame::request(id as u64, &request).map(|f| f.encode())
            });
            let Ok(request) = request else { continue };
            let (serve_ns, reply) = time_ns(|| serve_encoded(core, &request));
            let Ok(reply) = reply else { continue };
            let (decode_ns, response) = time_ns(|| {
                let mut decoder = Decoder::new();
                decoder.feed(&reply);
                decoder.next_frame().map(|f| f.map(|f| f.parse_response()))
            });
            let Ok(Some(Ok(Response::Result { elapsed_ns, .. }))) = response else {
                continue;
            };
            encode.push(encode_ns);
            serve.push(serve_ns.saturating_sub(elapsed_ns));
            decode.push(decode_ns);
            bytes += reply.len();
        }
    }
    let served = serve.len();
    out.push(row("simba-server.request_encode_us", &mut encode));
    out.push(row("simba-server.serve_us", &mut serve));
    out.push(row("simba-server.response_decode_us", &mut decode));
    out.push((
        "simba-server.response_bytes_per_query",
        share(bytes as f64, served as f64),
        "B",
        served,
    ));
    out
}

/// Cost of the two `simba-obs` hot-path probes, in nanoseconds per call:
/// `LatencyHistogram::record` and an enabled `trace::span`. Returns
/// `(hist_record_ns, span_ns, calls)`.
pub fn obs_probe_cost() -> (f64, f64, usize) {
    const CALLS: usize = 200_000;
    let mut hist = LatencyHistogram::new();
    let (hist_ns, _) = time_ns(|| {
        for i in 0..CALLS as u64 {
            // Spread over the octaves a run records into.
            hist.record_ns(black_box(1_000 + (i % 1024) * 4_096));
        }
        hist.count()
    });
    simba_obs::trace::set_enabled(true);
    let (span_ns, _) = time_ns(|| {
        for _ in 0..CALLS {
            let _root = simba_obs::trace::span("bench.root", "bench");
            let _child = simba_obs::trace::span("bench.child", "bench");
        }
    });
    simba_obs::trace::set_enabled(false);
    drop(simba_obs::trace::take_events());
    (
        hist_ns as f64 / CALLS as f64,
        span_ns as f64 / (2 * CALLS) as f64,
        CALLS,
    )
}

/// `|LatencyHistogram p95 − exact p95| ÷ exact p95` over the same samples:
/// the error of the instrument `RunReport.latency` is read from.
pub fn histogram_p95_error(samples: &mut [u64]) -> f64 {
    let Some(exact) = nearest_rank(samples, 0.95) else {
        return 0.0;
    };
    let mut hist = LatencyHistogram::new();
    for ns in samples.iter() {
        hist.record_ns(*ns);
    }
    share(
        (hist.quantile_ns(0.95) as f64 - exact as f64).abs(),
        exact as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evenly_spaced_is_bounded_and_starts_at_the_first() {
        let items: Vec<usize> = (0..10).collect();
        assert_eq!(evenly_spaced(&items, 100).len(), 10);
        assert_eq!(evenly_spaced(&items, 5), [&0, &2, &4, &6, &8]);
        assert_eq!(evenly_spaced(&items, 3), [&0, &4, &8]);
        assert!(evenly_spaced(&items, 4).len() <= 4);
        assert!(evenly_spaced::<usize>(&[], 4).is_empty());
    }

    #[test]
    fn histogram_error_is_within_its_documented_bucket_width() {
        let mut samples: Vec<u64> = (1..=1000).map(|i| i * 1_000).collect();
        let error = histogram_p95_error(&mut samples);
        assert!((0.0..=1.0 / 16.0).contains(&error), "{error}");
    }
}
