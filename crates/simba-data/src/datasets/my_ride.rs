//! MyRide dataset (quantified self; 10Q, 3C).
//!
//! Cycling telemetry along a route in Orlando, FL: heart rate tracks power
//! and gradient, speed falls on climbs. The paper notes this dashboard has
//! few categorical columns, making it incompatible with correlation-heavy
//! workflows (§6.2.3) — the schema reproduces that property.

use crate::chunk::{generate_chunked, ChunkCtx, CHUNK_ROWS};
use crate::util::{clamped_normal, epoch_at, Weights};
use rand_chacha::ChaCha8Rng;
use simba_store::{ColumnDef, Schema, Table, TableBuilder};

/// Per-dataset seed salt: distinct datasets draw disjoint RNG streams from
/// one master seed.
pub(crate) const SALT: u64 = 0x000D_E440;

const SEGMENTS: [&str; 12] = [
    "lake_eola",
    "downtown",
    "milk_district",
    "colonial_east",
    "baldwin_park",
    "cady_way",
    "winter_park",
    "mead_garden",
    "orange_ave",
    "college_park",
    "packing_district",
    "lake_ivanhoe",
];
const TERRAIN: [&str; 4] = ["flat", "rolling", "climb", "descent"];
const WEATHER: [&str; 4] = ["clear", "humid", "rain", "windy"];

/// Schema: 3 categorical, 10 quantitative, 1 temporal column.
pub fn schema() -> Schema {
    Schema::new(
        "my_ride",
        vec![
            ColumnDef::categorical("route_segment"),
            ColumnDef::categorical("terrain"),
            ColumnDef::categorical("weather"),
            ColumnDef::quantitative_int("heart_rate"),
            ColumnDef::quantitative_float("speed_kmh"),
            ColumnDef::quantitative_int("cadence_rpm"),
            ColumnDef::quantitative_float("power_w"),
            ColumnDef::quantitative_float("elevation_m"),
            ColumnDef::quantitative_float("gradient_pct"),
            ColumnDef::quantitative_float("temperature_c"),
            ColumnDef::quantitative_float("distance_km"),
            ColumnDef::quantitative_float("calories"),
            ColumnDef::quantitative_float("humidity_pct"),
            ColumnDef::temporal("sample_ts"),
        ],
    )
}

/// Generate `rows` telemetry samples, chunk-parallel across all cores.
pub fn generate(rows: usize, seed: u64) -> Table {
    generate_chunked(schema(), rows, seed, SALT, 0, CHUNK_ROWS, fill_chunk)
}

/// Fill one generation chunk (see [`crate::chunk`] for the contract).
///
/// Row-position effects (route progression, distance, timestamps, the
/// slowly shifting weather) derive from the *global* row index in
/// [`ChunkCtx`], not from RNG state, so they are chunk-independent by
/// construction.
pub(crate) fn fill_chunk(rng: &mut ChaCha8Rng, ctx: &ChunkCtx, b: &mut TableBuilder) {
    let rows = ctx.total_rows;
    b.set_labels("route_segment", &SEGMENTS);
    b.set_labels("terrain", &TERRAIN);
    b.set_labels("weather", &WEATHER);
    let terrain_weights = Weights::new(&[55.0, 25.0, 12.0, 8.0]);

    for i in ctx.start..ctx.start + ctx.len {
        // Samples progress along the route: segment advances with the row.
        let seg = (i * SEGMENTS.len() / rows.max(1)).min(SEGMENTS.len() - 1);
        let ter = terrain_weights.pick(rng);
        let wea = (ctx.seed as usize + i / 5000) % WEATHER.len(); // weather shifts slowly
        let gradient: f64 = match ter {
            0 => clamped_normal(rng, 0.0, 0.5, -1.0, 1.0),
            1 => clamped_normal(rng, 1.0, 1.5, -3.0, 4.0),
            2 => clamped_normal(rng, 5.0, 2.0, 2.0, 12.0),
            _ => clamped_normal(rng, -4.5, 1.5, -10.0, -2.0),
        };
        let power = clamped_normal(rng, 180.0 + 22.0 * gradient.max(0.0), 35.0, 0.0, 900.0);
        let heart = clamped_normal(rng, 105.0 + power * 0.28, 8.0, 55.0, 200.0).round() as i64;
        let speed = clamped_normal(rng, 27.0 - 2.2 * gradient, 3.0, 2.0, 70.0);
        let cadence =
            clamped_normal(rng, 85.0 - gradient.max(0.0) * 2.0, 7.0, 30.0, 130.0).round() as i64;
        let distance = 40.0 * i as f64 / rows.max(1) as f64;
        let elevation = 25.0 + 15.0 * (distance / 6.0).sin() + gradient * 2.0;
        let temp = clamped_normal(rng, 29.0, 2.0, 18.0, 38.0);
        let humidity = clamped_normal(rng, if wea == 1 { 85.0 } else { 62.0 }, 8.0, 20.0, 100.0);
        let calories = power * 3.6 / 4.184 * 0.24; // rough kcal per sample window

        b.row()
            .label(seg)
            .label(ter)
            .label(wea)
            .int(heart)
            .float(speed)
            .int(cadence)
            .float(power)
            .float(elevation)
            .float(gradient)
            .float(temp)
            .float(distance)
            .float(calories)
            .float(humidity)
            .int(epoch_at(10, 7 * 3600 + i as i64))
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::Value;

    #[test]
    fn heart_rate_tracks_power() {
        let t = generate(10_000, 8);
        let hr = t.column_by_name("heart_rate").unwrap();
        let pw = t.column_by_name("power_w").unwrap();
        let (mut hi_hr, mut hi_n, mut lo_hr, mut lo_n) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..t.row_count() {
            let p = pw.value(i).as_f64().unwrap();
            let h = hr.value(i).as_f64().unwrap();
            if p > 250.0 {
                hi_hr += h;
                hi_n += 1.0;
            } else if p < 120.0 {
                lo_hr += h;
                lo_n += 1.0;
            }
        }
        assert!(
            hi_hr / hi_n > lo_hr / lo_n + 15.0,
            "heart rate should track power"
        );
    }

    #[test]
    fn climbs_are_slower() {
        let t = generate(10_000, 8);
        let ter = t.column_by_name("terrain").unwrap();
        let sp = t.column_by_name("speed_kmh").unwrap();
        let (mut climb, mut cn, mut flat, mut fnn) = (0.0, 0.0, 0.0, 0.0);
        for i in 0..t.row_count() {
            let s = sp.value(i).as_f64().unwrap();
            if ter.value(i) == Value::str("climb") {
                climb += s;
                cn += 1.0;
            } else if ter.value(i) == Value::str("flat") {
                flat += s;
                fnn += 1.0;
            }
        }
        assert!(climb / cn < flat / fnn);
    }

    #[test]
    fn distance_monotonically_increases() {
        let t = generate(1_000, 2);
        let d = t.column_by_name("distance_km").unwrap();
        let mut prev = -1.0;
        for i in 0..t.row_count() {
            let v = d.value(i).as_f64().unwrap();
            assert!(v >= prev);
            prev = v;
        }
    }
}
