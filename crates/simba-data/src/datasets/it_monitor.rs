//! IT Monitor dataset (operational decision making; 3Q, 5C).
//!
//! System telemetry with injected anomalies — the paper's user study used
//! this dashboard, and its many filters made over-randomized simulations
//! easy to spot (§6.4). Anomalies (latency spikes, saturated hosts) give the
//! "in-depth examination of anomalies" workflow something real to find.

use crate::chunk::{generate_chunked, ChunkCtx, CHUNK_ROWS};
use crate::util::{clamped_normal, diurnal_by_hour, epoch_at, Weights};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use simba_store::{ColumnDef, Schema, Table, TableBuilder};

/// Per-dataset seed salt: distinct datasets draw disjoint RNG streams from
/// one master seed.
pub(crate) const SALT: u64 = 0x17_40;

const DATACENTERS: [&str; 4] = ["us-east", "us-west", "eu-central", "ap-south"];
const SERVICES: [&str; 10] = [
    "auth",
    "billing",
    "search",
    "checkout",
    "inventory",
    "gateway",
    "notifications",
    "reports",
    "profiles",
    "recommendations",
];
const SEVERITIES: [&str; 4] = ["info", "warning", "error", "critical"];
const ALERT_TYPES: [&str; 6] = [
    "latency",
    "cpu",
    "memory",
    "disk",
    "network",
    "availability",
];
const N_HOSTS: usize = 40;

/// Schema: 5 categorical, 3 quantitative, 1 temporal column.
pub fn schema() -> Schema {
    Schema::new(
        "it_monitor",
        vec![
            ColumnDef::categorical("host"),
            ColumnDef::categorical("datacenter"),
            ColumnDef::categorical("service"),
            ColumnDef::categorical("severity"),
            ColumnDef::categorical("alert_type"),
            ColumnDef::quantitative_float("cpu_util"),
            ColumnDef::quantitative_float("memory_util"),
            ColumnDef::quantitative_float("response_ms"),
            ColumnDef::temporal("event_ts"),
        ],
    )
}

/// Generate `rows` telemetry records, chunk-parallel across all cores.
pub fn generate(rows: usize, seed: u64) -> Table {
    generate_chunked(schema(), rows, seed, SALT, 0, CHUNK_ROWS, fill_chunk)
}

/// Fill one generation chunk (see [`crate::chunk`] for the contract).
pub(crate) fn fill_chunk(rng: &mut ChaCha8Rng, ctx: &ChunkCtx, b: &mut TableBuilder) {
    let hosts: Vec<String> = (0..N_HOSTS).map(|i| format!("host-{i:03}")).collect();
    b.set_labels("host", &hosts);
    b.set_labels("datacenter", &DATACENTERS);
    b.set_labels("service", &SERVICES);
    b.set_labels("severity", &SEVERITIES);
    b.set_labels("alert_type", &ALERT_TYPES);
    let diurnal = diurnal_by_hour();
    let service_zipf = Weights::zipf(SERVICES.len(), 0.6);
    let anomaly_severities = Weights::new(&[60.0, 40.0]);
    let severities = Weights::new(&[80.0, 17.0, 3.0]);
    let alert_zipf = Weights::zipf(ALERT_TYPES.len(), 0.5);

    for _ in 0..ctx.len {
        let host = rng.gen_range(0..N_HOSTS);
        let dc = host % DATACENTERS.len();
        let service = service_zipf.pick(rng);
        let day = rng.gen_range(0i64..30);
        let hour = rng.gen_range(0i64..24);
        let load = diurnal[hour as usize];
        // ~2% of records are anomalies: latency spike + error severity.
        let anomaly = rng.gen_bool(0.02);
        let cpu = if anomaly {
            clamped_normal(rng, 92.0, 6.0, 50.0, 100.0)
        } else {
            clamped_normal(rng, 25.0 + 40.0 * load, 12.0, 0.0, 100.0)
        };
        let mem = clamped_normal(rng, 40.0 + 20.0 * load, 10.0, 0.0, 100.0);
        let response = if anomaly {
            clamped_normal(rng, 2500.0, 900.0, 500.0, 10_000.0)
        } else {
            clamped_normal(rng, 80.0 + 120.0 * load, 40.0, 1.0, 800.0)
        };
        let severity_idx = if anomaly {
            // error or critical
            2 + anomaly_severities.pick(rng)
        } else {
            severities.pick(rng)
        };
        let alert_idx = if anomaly {
            0 // latency
        } else {
            alert_zipf.pick(rng)
        };

        b.row()
            .label(host)
            .label(dc)
            .label(service)
            .label(severity_idx)
            .label(alert_idx)
            .float(cpu)
            .float(mem)
            .float(response)
            .int(epoch_at(day, hour * 3600 + rng.gen_range(0..3600)))
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::Value;

    #[test]
    fn anomalies_exist_and_are_rare() {
        let t = generate(20_000, 4);
        let resp = t.column_by_name("response_ms").unwrap();
        let spikes = (0..t.row_count())
            .filter(|&i| resp.value(i).as_f64().unwrap() > 1000.0)
            .count();
        let frac = spikes as f64 / t.row_count() as f64;
        assert!(frac > 0.005 && frac < 0.05, "anomaly fraction {frac}");
    }

    #[test]
    fn critical_severity_only_on_anomalies() {
        let t = generate(20_000, 4);
        let sev = t.column_by_name("severity").unwrap();
        let resp = t.column_by_name("response_ms").unwrap();
        for i in 0..t.row_count() {
            if sev.value(i) == Value::str("critical") {
                assert!(resp.value(i).as_f64().unwrap() > 400.0);
            }
        }
    }

    #[test]
    fn hosts_pin_to_datacenters() {
        let t = generate(5_000, 6);
        let host = t.column_by_name("host").unwrap();
        let dc = t.column_by_name("datacenter").unwrap();
        let mut map = std::collections::HashMap::new();
        for i in 0..t.row_count() {
            let h = host.value(i).to_string();
            let d = dc.value(i).to_string();
            let prev = map.insert(h.clone(), d.clone());
            if let Some(p) = prev {
                assert_eq!(p, d, "host {h} moved datacenters");
            }
        }
    }
}
