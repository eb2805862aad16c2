//! Customer Service dataset (operational decision making; 10Q, 6C).
//!
//! The paper's running example (Figures 1–4): a call-center dashboard with
//! queues A–D, per-representative metrics, and call outcome tracking. Call
//! volume follows a diurnal curve; abandonment correlates with load and
//! queue (queue D is understaffed), reproducing the correlation the
//! "Finding Correlations" goal template looks for.

use crate::chunk::{generate_chunked, ChunkCtx, CHUNK_ROWS};
use crate::util::{clamped_normal, diurnal_by_hour, epoch_at, Weights};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use simba_store::{ColumnDef, Schema, Table, TableBuilder};

/// Per-dataset seed salt: distinct datasets draw disjoint RNG streams from
/// one master seed.
pub(crate) const SALT: u64 = 0xC5_C5_C5;

const QUEUES: [&str; 4] = ["A", "B", "C", "D"];
const DIRECTIONS: [&str; 2] = ["incoming", "outgoing"];
const CALL_TYPES: [&str; 4] = ["support", "billing", "sales", "retention"];
const RESOLUTIONS: [&str; 3] = ["resolved", "escalated", "unresolved"];
const TIERS: [&str; 3] = ["bronze", "silver", "gold"];
const N_REPS: usize = 12;

/// Schema: 6 categorical, 10 quantitative, 2 temporal columns.
pub fn schema() -> Schema {
    Schema::new(
        "customer_service",
        vec![
            ColumnDef::categorical("queue"),
            ColumnDef::categorical("rep_id"),
            ColumnDef::categorical("call_direction"),
            ColumnDef::categorical("call_type"),
            ColumnDef::categorical("resolution"),
            ColumnDef::categorical("customer_tier"),
            ColumnDef::quantitative_int("calls"),
            ColumnDef::quantitative_int("abandoned"),
            ColumnDef::quantitative_int("lost_calls"),
            ColumnDef::quantitative_float("handle_time"),
            ColumnDef::quantitative_float("hold_time"),
            ColumnDef::quantitative_float("wait_time"),
            ColumnDef::quantitative_float("talk_time"),
            ColumnDef::quantitative_int("satisfaction"),
            ColumnDef::quantitative_int("transfers"),
            ColumnDef::quantitative_int("callbacks"),
            ColumnDef::temporal("hour"),
            ColumnDef::temporal("call_date"),
        ],
    )
}

/// Generate `rows` call records, chunk-parallel across all cores.
pub fn generate(rows: usize, seed: u64) -> Table {
    generate_chunked(schema(), rows, seed, SALT, 0, CHUNK_ROWS, fill_chunk)
}

/// Fill one generation chunk (see [`crate::chunk`] for the contract).
pub(crate) fn fill_chunk(rng: &mut ChaCha8Rng, ctx: &ChunkCtx, b: &mut TableBuilder) {
    let reps: Vec<String> = (0..N_REPS).map(|i| format!("rep_{i:02}")).collect();
    b.set_labels("queue", &QUEUES);
    b.set_labels("rep_id", &reps);
    b.set_labels("call_direction", &DIRECTIONS);
    b.set_labels("call_type", &CALL_TYPES);
    b.set_labels("resolution", &RESOLUTIONS);
    b.set_labels("customer_tier", &TIERS);
    let diurnal = diurnal_by_hour();
    let queue_weights = Weights::new(&[4.0, 3.0, 2.0, 1.0]);
    let rep_zipf = Weights::zipf(N_REPS, 0.7);
    let transfer_weights = Weights::new(&[75.0, 18.0, 5.0, 2.0]);
    let resolution_weights = Weights::new(&[85.0, 15.0]);
    let call_type_zipf = Weights::zipf(CALL_TYPES.len(), 0.8);
    let tier_zipf = Weights::zipf(TIERS.len(), 0.5);

    for _ in 0..ctx.len {
        // Business-hours-weighted hour of day.
        let hour = loop {
            let h = rng.gen_range(0i64..24);
            if rng.gen_bool(diurnal[h as usize]) {
                break h;
            }
        };
        let day = rng.gen_range(0i64..90);
        let load = diurnal[hour as usize];

        let queue_idx = queue_weights.pick(rng);
        // Queue D is understaffed: higher abandonment under load.
        let queue_stress = match queue_idx {
            3 => 2.5,
            2 => 1.4,
            _ => 1.0,
        };
        let p_abandon = (0.03 + 0.10 * load) * queue_stress;
        let abandoned = i64::from(rng.gen_bool(p_abandon.min(0.9)));
        let lost = i64::from(abandoned == 0 && rng.gen_bool((0.01 + 0.03 * load) * queue_stress));

        let rep = rep_zipf.pick(rng);
        let wait = clamped_normal(rng, 30.0 + 240.0 * load * queue_stress, 40.0, 0.0, 1800.0);
        let hold = clamped_normal(rng, 20.0 + 60.0 * load, 25.0, 0.0, 900.0);
        let talk = if abandoned == 1 {
            0.0
        } else {
            clamped_normal(rng, 280.0, 120.0, 15.0, 2400.0)
        };
        let handle = wait + hold + talk;
        let satisfaction = if abandoned == 1 || lost == 1 {
            rng.gen_range(1i64..=2)
        } else {
            // Longer waits depress satisfaction.
            let base = 5.0 - (wait / 300.0).min(2.5);
            clamped_normal(rng, base, 0.8, 1.0, 5.0).round() as i64
        };
        let transfers = transfer_weights.pick(rng) as i64;
        let callbacks = i64::from(rng.gen_bool(0.08));
        let resolution_idx = if abandoned == 1 || lost == 1 {
            2
        } else {
            resolution_weights.pick(rng)
        };

        // The direction, call type and tier are drawn here, in column order.
        b.row()
            .label(queue_idx)
            .label(rep)
            .label(usize::from(rng.gen_bool(0.25)))
            .label(call_type_zipf.pick(rng))
            .label(resolution_idx)
            .label(tier_zipf.pick(rng))
            .int(1) // calls: one record per call
            .int(abandoned)
            .int(lost)
            .float(handle)
            .float(hold)
            .float(wait)
            .float(talk)
            .int(satisfaction)
            .int(transfers)
            .int(callbacks)
            .int(hour)
            .int(epoch_at(day, hour * 3600))
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::Value;

    #[test]
    fn queues_are_skewed_a_heaviest() {
        let t = generate(5_000, 11);
        let col = t.column_by_name("queue").unwrap();
        let mut counts = std::collections::HashMap::new();
        for i in 0..t.row_count() {
            *counts.entry(col.value(i).to_string()).or_insert(0usize) += 1;
        }
        assert!(counts["A"] > counts["D"], "{counts:?}");
        assert_eq!(counts.len(), 4);
    }

    #[test]
    fn abandonment_correlates_with_hour_load() {
        // The "Finding Correlations" goal template (Table 2) must have a
        // real signal to find: busy hours abandon more often.
        let t = generate(20_000, 5);
        let hour = t.column_by_name("hour").unwrap();
        let abandoned = t.column_by_name("abandoned").unwrap();
        let (mut busy_n, mut busy_a, mut quiet_n, mut quiet_a) = (0f64, 0f64, 0f64, 0f64);
        for i in 0..t.row_count() {
            let h = hour.value(i).as_i64().unwrap();
            let a = abandoned.value(i).as_i64().unwrap() as f64;
            if (9..=16).contains(&h) {
                busy_n += 1.0;
                busy_a += a;
            } else if !(8..=17).contains(&h) {
                quiet_n += 1.0;
                quiet_a += a;
            }
        }
        assert!(
            busy_a / busy_n > quiet_a / quiet_n,
            "abandon rate should rise with load"
        );
    }

    #[test]
    fn abandoned_calls_have_zero_talk_time() {
        let t = generate(2_000, 3);
        let abandoned = t.column_by_name("abandoned").unwrap();
        let talk = t.column_by_name("talk_time").unwrap();
        for i in 0..t.row_count() {
            if abandoned.value(i) == Value::Int(1) {
                assert_eq!(talk.value(i), Value::Float(0.0));
            }
        }
    }

    #[test]
    fn satisfaction_in_range() {
        let t = generate(2_000, 9);
        let s = t.column_by_name("satisfaction").unwrap();
        for i in 0..t.row_count() {
            let v = s.value(i).as_i64().unwrap();
            assert!((1..=5).contains(&v), "satisfaction {v}");
        }
    }
}
