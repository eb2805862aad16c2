//! UBC Energy Map dataset (strategic decision making; 22Q, 4C).
//!
//! Campus energy usage per building: granular per-energy-type readings plus
//! derived cost/intensity metrics. With 22 quantitative columns it is the
//! widest measure surface of the six dashboards, exercising goal templates
//! that enumerate aggregate attributes (Identification in Table 2).

use crate::chunk::{generate_chunked, ChunkCtx, CHUNK_ROWS};
use crate::util::{clamped_normal, diurnal_by_hour, epoch_at, Weights};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use simba_store::{ColumnDef, Schema, Table, TableBuilder};

/// Per-dataset seed salt: distinct datasets draw disjoint RNG streams from
/// one master seed.
pub(crate) const SALT: u64 = 0x0B_CE;

const BUILDING_TYPES: [&str; 8] = [
    "laboratory",
    "lecture_hall",
    "office",
    "residence",
    "library",
    "athletics",
    "hospital",
    "utility",
];
const ENERGY_TYPES: [&str; 5] = ["electricity", "gas", "steam", "chilled_water", "solar"];
const ZONES: [&str; 6] = [
    "north_campus",
    "south_campus",
    "east_mall",
    "west_mall",
    "marine_drive",
    "wesbrook",
];
const OPERATORS: [&str; 4] = ["facilities", "housing", "athletics_dept", "research_ops"];

/// Schema: 4 categorical, 22 quantitative, 1 temporal column.
pub fn schema() -> Schema {
    Schema::new(
        "ubc_energy",
        vec![
            ColumnDef::categorical("building_type"),
            ColumnDef::categorical("energy_type"),
            ColumnDef::categorical("campus_zone"),
            ColumnDef::categorical("operator"),
            ColumnDef::quantitative_float("elec_kwh"),
            ColumnDef::quantitative_float("gas_kwh"),
            ColumnDef::quantitative_float("steam_kwh"),
            ColumnDef::quantitative_float("chilled_water_kwh"),
            ColumnDef::quantitative_float("solar_gen_kwh"),
            ColumnDef::quantitative_float("water_m3"),
            ColumnDef::quantitative_float("floor_area_m2"),
            ColumnDef::quantitative_int("occupancy"),
            ColumnDef::quantitative_float("energy_intensity"),
            ColumnDef::quantitative_float("elec_cost"),
            ColumnDef::quantitative_float("gas_cost"),
            ColumnDef::quantitative_float("steam_cost"),
            ColumnDef::quantitative_float("water_cost"),
            ColumnDef::quantitative_float("carbon_kg"),
            ColumnDef::quantitative_float("peak_demand_kw"),
            ColumnDef::quantitative_float("base_load_kw"),
            ColumnDef::quantitative_float("hvac_kwh"),
            ColumnDef::quantitative_float("lighting_kwh"),
            ColumnDef::quantitative_float("plug_load_kwh"),
            ColumnDef::quantitative_float("battery_kwh"),
            ColumnDef::quantitative_float("temperature_c"),
            ColumnDef::quantitative_float("efficiency_score"),
            ColumnDef::temporal("reading_ts"),
        ],
    )
}

/// Generate `rows` hourly meter readings, chunk-parallel across all cores.
pub fn generate(rows: usize, seed: u64) -> Table {
    generate_chunked(schema(), rows, seed, SALT, 0, CHUNK_ROWS, fill_chunk)
}

/// Fill one generation chunk (see [`crate::chunk`] for the contract).
pub(crate) fn fill_chunk(rng: &mut ChaCha8Rng, ctx: &ChunkCtx, b: &mut TableBuilder) {
    b.set_labels("building_type", &BUILDING_TYPES);
    b.set_labels("energy_type", &ENERGY_TYPES);
    b.set_labels("campus_zone", &ZONES);
    b.set_labels("operator", &OPERATORS);
    let diurnal = diurnal_by_hour();
    let building_zipf = Weights::zipf(BUILDING_TYPES.len(), 0.5);
    let energy_zipf = Weights::zipf(ENERGY_TYPES.len(), 0.8);

    for _ in 0..ctx.len {
        let bt = building_zipf.pick(rng);
        let et = energy_zipf.pick(rng);
        let zone = rng.gen_range(0..ZONES.len());
        let operator = bt % OPERATORS.len();
        let day = rng.gen_range(0i64..365);
        let hour = rng.gen_range(0i64..24);
        let load = diurnal[hour as usize];
        // Labs and hospitals burn far more energy than offices.
        let scale = match bt {
            0 | 6 => 4.0,
            7 => 3.0,
            3 => 1.5,
            _ => 1.0,
        };
        let area = clamped_normal(rng, 4500.0 * scale, 1500.0, 300.0, 60_000.0);
        let occupancy = (clamped_normal(rng, 120.0 * load * scale, 40.0, 0.0, 4000.0)) as i64;
        let elec = clamped_normal(rng, 220.0 * scale * (0.4 + 0.6 * load), 60.0, 5.0, 8000.0);
        let gas = clamped_normal(rng, 90.0 * scale, 35.0, 0.0, 4000.0);
        let steam = clamped_normal(rng, 60.0 * scale, 25.0, 0.0, 3000.0);
        let chilled = clamped_normal(rng, 45.0 * scale * load, 20.0, 0.0, 2500.0);
        let solar = if (7..19).contains(&hour) {
            clamped_normal(rng, 30.0, 12.0, 0.0, 150.0)
        } else {
            0.0
        };
        let water = clamped_normal(rng, 8.0 * scale, 3.0, 0.1, 300.0);
        let hvac = elec * clamped_normal(rng, 0.45, 0.06, 0.2, 0.7);
        let lighting = elec * clamped_normal(rng, 0.22, 0.04, 0.05, 0.4);
        let plug = (elec - hvac - lighting).max(0.0);
        let battery = clamped_normal(rng, 5.0, 3.0, 0.0, 40.0);
        let peak = elec / 24.0 * clamped_normal(rng, 2.2, 0.3, 1.2, 4.0);
        let base = elec / 24.0 * clamped_normal(rng, 0.6, 0.1, 0.2, 1.0);
        let total = elec + gas + steam + chilled;
        let intensity = total / area * 1000.0;
        let carbon = gas * 0.18 + elec * 0.011 + steam * 0.07;
        let temp = clamped_normal(
            rng,
            11.0 + 9.0 * ((day as f64 / 365.0) * std::f64::consts::TAU).sin(),
            3.0,
            -10.0,
            35.0,
        );
        let efficiency = clamped_normal(rng, 100.0 - intensity.min(80.0), 8.0, 5.0, 100.0);

        b.row()
            .label(bt)
            .label(et)
            .label(zone)
            .label(operator)
            .float(elec)
            .float(gas)
            .float(steam)
            .float(chilled)
            .float(solar)
            .float(water)
            .float(area)
            .int(occupancy)
            .float(intensity)
            .float(elec * 0.11)
            .float(gas * 0.05)
            .float(steam * 0.07)
            .float(water * 2.5)
            .float(carbon)
            .float(peak)
            .float(base)
            .float(hvac)
            .float(lighting)
            .float(plug)
            .float(battery)
            .float(temp)
            .float(efficiency)
            .int(epoch_at(day, hour * 3600))
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::Value;

    #[test]
    fn labs_use_more_energy_than_offices() {
        let t = generate(20_000, 21);
        let bt = t.column_by_name("building_type").unwrap();
        let elec = t.column_by_name("elec_kwh").unwrap();
        let mut lab = (0.0, 0usize);
        let mut office = (0.0, 0usize);
        for i in 0..t.row_count() {
            let e = elec.value(i).as_f64().unwrap();
            if bt.value(i) == Value::str("laboratory") {
                lab.0 += e;
                lab.1 += 1;
            } else if bt.value(i) == Value::str("office") {
                office.0 += e;
                office.1 += 1;
            }
        }
        assert!(lab.0 / lab.1 as f64 > office.0 / office.1 as f64 * 2.0);
    }

    #[test]
    fn solar_only_generates_in_daylight() {
        let t = generate(5_000, 22);
        let solar = t.column_by_name("solar_gen_kwh").unwrap();
        let ts = t.column_by_name("reading_ts").unwrap();
        for i in 0..t.row_count() {
            let hour = (ts.value(i).as_i64().unwrap() / 3600) % 24;
            if !(7..19).contains(&hour) {
                assert_eq!(solar.value(i).as_f64().unwrap(), 0.0);
            }
        }
    }

    #[test]
    fn electric_subloads_sum_to_total() {
        let t = generate(2_000, 23);
        let elec = t.column_by_name("elec_kwh").unwrap();
        let hvac = t.column_by_name("hvac_kwh").unwrap();
        let light = t.column_by_name("lighting_kwh").unwrap();
        let plug = t.column_by_name("plug_load_kwh").unwrap();
        for i in (0..t.row_count()).step_by(53) {
            let total = elec.value(i).as_f64().unwrap();
            let parts = hvac.value(i).as_f64().unwrap()
                + light.value(i).as_f64().unwrap()
                + plug.value(i).as_f64().unwrap();
            assert!(parts <= total + 1e-9);
        }
    }
}
