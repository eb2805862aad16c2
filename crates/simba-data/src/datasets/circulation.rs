//! Circulation Activity by Library dataset (strategic; 2Q, 2C).
//!
//! Library circulation events system-wide and per branch. The paper notes
//! this dashboard has only two visualizations with near-identical queries,
//! which is why its query durations show almost no variance (§6.3).

use crate::chunk::{generate_chunked, ChunkCtx, CHUNK_ROWS};
use crate::util::{clamped_normal, epoch_at, Weights};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use simba_store::{ColumnDef, Schema, Table, TableBuilder};

/// Per-dataset seed salt: distinct datasets draw disjoint RNG streams from
/// one master seed.
pub(crate) const SALT: u64 = 0xC1_8C;

const BRANCHES: [&str; 8] = [
    "Central",
    "Eastside",
    "Westwood",
    "Northgate",
    "Southpark",
    "Riverside",
    "Hilltop",
    "Lakeview",
];
const EVENT_TYPES: [&str; 4] = ["checkout", "renewal", "return", "hold"];

/// Schema: 2 categorical, 2 quantitative, 1 temporal column.
pub fn schema() -> Schema {
    Schema::new(
        "circulation_activity",
        vec![
            ColumnDef::categorical("branch"),
            ColumnDef::categorical("event_type"),
            ColumnDef::quantitative_int("circulation_count"),
            ColumnDef::quantitative_float("wait_days"),
            ColumnDef::temporal("event_date"),
        ],
    )
}

/// Generate `rows` circulation events, chunk-parallel across all cores.
pub fn generate(rows: usize, seed: u64) -> Table {
    generate_chunked(schema(), rows, seed, SALT, 0, CHUNK_ROWS, fill_chunk)
}

/// Fill one generation chunk (see [`crate::chunk`] for the contract).
pub(crate) fn fill_chunk(rng: &mut ChaCha8Rng, ctx: &ChunkCtx, b: &mut TableBuilder) {
    b.set_labels("branch", &BRANCHES);
    b.set_labels("event_type", &EVENT_TYPES);
    let branch_zipf = Weights::zipf(BRANCHES.len(), 0.9);
    let event_weights = Weights::new(&[45.0, 15.0, 32.0, 8.0]);

    for _ in 0..ctx.len {
        let branch = branch_zipf.pick(rng);
        let event = event_weights.pick(rng);
        let day = rng.gen_range(0i64..365);
        // Central branch moves more volume per event batch.
        let base = if branch == 0 { 14.0 } else { 6.0 };
        let count = clamped_normal(rng, base, 4.0, 1.0, 80.0).round() as i64;
        let wait = if event == 3 {
            clamped_normal(rng, 12.0, 8.0, 0.0, 120.0)
        } else {
            clamped_normal(rng, 0.5, 0.6, 0.0, 10.0)
        };

        b.row()
            .label(branch)
            .label(event)
            .int(count)
            .float(wait)
            .int(epoch_at(day, rng.gen_range(8 * 3600..20 * 3600)))
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::Value;

    #[test]
    fn all_branches_and_events_appear() {
        let t = generate(5_000, 1);
        let branch = t.column_by_name("branch").unwrap();
        let event = t.column_by_name("event_type").unwrap();
        assert_eq!(branch.distinct_values().len(), 8);
        assert_eq!(event.distinct_values().len(), 4);
    }

    #[test]
    fn holds_wait_longer() {
        let t = generate(10_000, 2);
        let event = t.column_by_name("event_type").unwrap();
        let wait = t.column_by_name("wait_days").unwrap();
        let (mut hold_sum, mut hold_n, mut other_sum, mut other_n) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..t.row_count() {
            let w = wait.value(i).as_f64().unwrap();
            if event.value(i) == Value::str("hold") {
                hold_sum += w;
                hold_n += 1.0;
            } else {
                other_sum += w;
                other_n += 1.0;
            }
        }
        assert!(hold_sum / hold_n > other_sum / other_n * 3.0);
    }

    #[test]
    fn counts_positive() {
        let t = generate(1_000, 3);
        let c = t.column_by_name("circulation_count").unwrap();
        for i in 0..t.row_count() {
            assert!(c.value(i).as_i64().unwrap() >= 1);
        }
    }
}
