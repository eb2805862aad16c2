//! Supply Chain dataset (strategic decision making; 5Q, 18C).
//!
//! Order logistics: products, shipping durations, modes, and costs, with
//! regional/categorical filters. Its 18 categorical columns make it the
//! widest filter surface of the six dashboards — the paper's Figure 7 shows
//! it (as "Superstore") producing the slowest, highest-variance queries.

use crate::chunk::{generate_chunked, ChunkCtx, CHUNK_ROWS};
use crate::util::{clamped_normal, epoch_at, Weights};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use simba_store::{ColumnDef, Schema, Table, TableBuilder};

/// Per-dataset seed salt: distinct datasets draw disjoint RNG streams from
/// one master seed.
pub(crate) const SALT: u64 = 0x5C_4A_11;

const CATEGORIES: [&str; 6] = [
    "furniture",
    "technology",
    "office_supplies",
    "apparel",
    "grocery",
    "outdoors",
];
const SUBCATS_PER_CAT: usize = 3; // 18 subcategories total
const REGIONS: [&str; 5] = ["north", "south", "east", "west", "central"];
const SHIP_MODES: [&str; 4] = ["standard", "second_class", "first_class", "same_day"];
const PRIORITIES: [&str; 4] = ["low", "medium", "high", "critical"];
const SEGMENTS: [&str; 3] = ["consumer", "corporate", "home_office"];
const STATUSES: [&str; 5] = ["pending", "processing", "shipped", "delivered", "returned"];
const PAYMENTS: [&str; 5] = ["card", "invoice", "transfer", "cash", "credit_line"];
const CHANNELS: [&str; 3] = ["online", "retail", "wholesale"];
const PACKAGING: [&str; 4] = ["box", "envelope", "pallet", "crate"];
const RETURN_FLAGS: [&str; 2] = ["kept", "returned"];
const DISCOUNTS: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];
const N_BRANDS: usize = 12;
const N_COUNTRIES: usize = 15;
const N_STATES: usize = 30;
const N_CITIES: usize = 50;
const N_CARRIERS: usize = 6;
const N_WAREHOUSES: usize = 10;
const N_SUPPLIERS: usize = 20;

/// Schema: 18 categorical, 5 quantitative, 1 temporal column.
pub fn schema() -> Schema {
    Schema::new(
        "supply_chain",
        vec![
            ColumnDef::categorical("product_category"),
            ColumnDef::categorical("product_subcategory"),
            ColumnDef::categorical("brand"),
            ColumnDef::categorical("region"),
            ColumnDef::categorical("country"),
            ColumnDef::categorical("state"),
            ColumnDef::categorical("city"),
            ColumnDef::categorical("ship_mode"),
            ColumnDef::categorical("carrier"),
            ColumnDef::categorical("priority"),
            ColumnDef::categorical("segment"),
            ColumnDef::categorical("warehouse"),
            ColumnDef::categorical("supplier"),
            ColumnDef::categorical("order_status"),
            ColumnDef::categorical("return_flag"),
            ColumnDef::categorical("payment_method"),
            ColumnDef::categorical("sales_channel"),
            ColumnDef::categorical("packaging"),
            ColumnDef::quantitative_int("quantity"),
            ColumnDef::quantitative_float("unit_price"),
            ColumnDef::quantitative_float("discount"),
            ColumnDef::quantitative_float("shipping_cost"),
            ColumnDef::quantitative_float("total_revenue"),
            ColumnDef::temporal("order_date"),
        ],
    )
}

/// Generate `rows` order records, chunk-parallel across all cores.
pub fn generate(rows: usize, seed: u64) -> Table {
    generate_chunked(schema(), rows, seed, SALT, 0, CHUNK_ROWS, fill_chunk)
}

/// `n` labels `"{prefix}{i:02}"`.
fn numbered(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i:02}")).collect()
}

/// Fill one generation chunk (see [`crate::chunk`] for the contract).
pub(crate) fn fill_chunk(rng: &mut ChaCha8Rng, ctx: &ChunkCtx, b: &mut TableBuilder) {
    let subcats: Vec<String> = (0..CATEGORIES.len() * SUBCATS_PER_CAT)
        .map(|i| {
            format!(
                "{}_{}",
                CATEGORIES[i / SUBCATS_PER_CAT],
                i % SUBCATS_PER_CAT
            )
        })
        .collect();
    let carriers: Vec<String> = (0..N_CARRIERS).map(|i| format!("carrier_{i}")).collect();
    b.set_labels("product_category", &CATEGORIES);
    b.set_labels("product_subcategory", &subcats);
    b.set_labels("brand", &numbered("brand_", N_BRANDS));
    b.set_labels("region", &REGIONS);
    b.set_labels("country", &numbered("country_", N_COUNTRIES));
    b.set_labels("state", &numbered("state_", N_STATES));
    b.set_labels("city", &numbered("city_", N_CITIES));
    b.set_labels("ship_mode", &SHIP_MODES);
    b.set_labels("carrier", &carriers);
    b.set_labels("priority", &PRIORITIES);
    b.set_labels("segment", &SEGMENTS);
    b.set_labels("warehouse", &numbered("wh_", N_WAREHOUSES));
    b.set_labels("supplier", &numbered("sup_", N_SUPPLIERS));
    b.set_labels("order_status", &STATUSES);
    b.set_labels("return_flag", &RETURN_FLAGS);
    b.set_labels("payment_method", &PAYMENTS);
    b.set_labels("sales_channel", &CHANNELS);
    b.set_labels("packaging", &PACKAGING);
    let category_zipf = Weights::zipf(CATEGORIES.len(), 0.7);
    let ship_mode_weights = Weights::new(&[55.0, 22.0, 17.0, 6.0]);
    let status_weights = Weights::new(&[6.0, 10.0, 22.0, 56.0, 6.0]);
    let quantity_zipf = Weights::zipf(10, 1.2);
    let discount_weights = Weights::new(&[55.0, 15.0, 15.0, 10.0, 5.0]);
    let brand_zipf = Weights::zipf(N_BRANDS, 0.8);
    let priority_zipf = Weights::zipf(PRIORITIES.len(), 0.6);
    let segment_zipf = Weights::zipf(SEGMENTS.len(), 0.4);
    let supplier_zipf = Weights::zipf(N_SUPPLIERS, 0.5);
    let payment_zipf = Weights::zipf(PAYMENTS.len(), 0.7);
    let channel_zipf = Weights::zipf(CHANNELS.len(), 0.5);

    for _ in 0..ctx.len {
        let cat = category_zipf.pick(rng);
        let sub = cat * SUBCATS_PER_CAT + rng.gen_range(0..SUBCATS_PER_CAT);
        let region = rng.gen_range(0..REGIONS.len());
        let country = rng.gen_range(0..N_COUNTRIES);
        let state = (country * 2 + rng.gen_range(0..2)) % N_STATES;
        let city = (state * 2 + rng.gen_range(0..3)) % N_CITIES;
        let ship_mode = ship_mode_weights.pick(rng);
        let status = status_weights.pick(rng);
        let returned = status == 4 || rng.gen_bool(0.02);
        let quantity = 1 + quantity_zipf.pick(rng) as i64;
        let unit_price = match cat {
            1 => clamped_normal(rng, 420.0, 260.0, 15.0, 3500.0), // technology
            0 => clamped_normal(rng, 210.0, 120.0, 25.0, 2000.0), // furniture
            _ => clamped_normal(rng, 35.0, 22.0, 1.0, 400.0),
        };
        let discount = DISCOUNTS[discount_weights.pick(rng)];
        let shipping = match ship_mode {
            3 => clamped_normal(rng, 45.0, 12.0, 12.0, 150.0),
            2 => clamped_normal(rng, 22.0, 7.0, 5.0, 80.0),
            1 => clamped_normal(rng, 12.0, 4.0, 3.0, 50.0),
            _ => clamped_normal(rng, 7.0, 3.0, 1.0, 30.0),
        };
        let revenue = quantity as f64 * unit_price * (1.0 - discount);
        let day = rng.gen_range(0i64..365);

        // Brand, carrier, priority, segment, warehouse, supplier, payment,
        // channel, packaging and the time of day are drawn here, in column
        // order.
        b.row()
            .label(cat)
            .label(sub)
            .label(brand_zipf.pick(rng))
            .label(region)
            .label(country)
            .label(state)
            .label(city)
            .label(ship_mode)
            .label(rng.gen_range(0..N_CARRIERS))
            .label(priority_zipf.pick(rng))
            .label(segment_zipf.pick(rng))
            .label(rng.gen_range(0..N_WAREHOUSES))
            .label(supplier_zipf.pick(rng))
            .label(status)
            .label(usize::from(returned))
            .label(payment_zipf.pick(rng))
            .label(channel_zipf.pick(rng))
            .label(rng.gen_range(0..PACKAGING.len()))
            .int(quantity)
            .float(unit_price)
            .float(discount)
            .float(shipping)
            .float(revenue)
            .int(epoch_at(day, rng.gen_range(0..86_400)))
            .end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::Value;

    #[test]
    fn schema_has_18_categoricals() {
        use simba_store::ColumnRole;
        assert_eq!(schema().role_count(ColumnRole::Categorical), 18);
        assert_eq!(schema().role_count(ColumnRole::Quantitative), 5);
    }

    #[test]
    fn revenue_consistent_with_parts() {
        let t = generate(2_000, 13);
        let q = t.column_by_name("quantity").unwrap();
        let p = t.column_by_name("unit_price").unwrap();
        let d = t.column_by_name("discount").unwrap();
        let r = t.column_by_name("total_revenue").unwrap();
        for i in (0..t.row_count()).step_by(37) {
            let expected = q.value(i).as_f64().unwrap()
                * p.value(i).as_f64().unwrap()
                * (1.0 - d.value(i).as_f64().unwrap());
            let got = r.value(i).as_f64().unwrap();
            assert!((expected - got).abs() < 1e-9);
        }
    }

    #[test]
    fn same_day_shipping_costs_most() {
        let t = generate(20_000, 14);
        let mode = t.column_by_name("ship_mode").unwrap();
        let cost = t.column_by_name("shipping_cost").unwrap();
        let mut sums = std::collections::HashMap::new();
        for i in 0..t.row_count() {
            let e = sums
                .entry(mode.value(i).to_string())
                .or_insert((0.0f64, 0usize));
            e.0 += cost.value(i).as_f64().unwrap();
            e.1 += 1;
        }
        let avg = |m: &str| sums[m].0 / sums[m].1 as f64;
        assert!(avg("same_day") > avg("standard") * 3.0);
    }

    #[test]
    fn returned_status_sets_return_flag() {
        let t = generate(5_000, 15);
        let status = t.column_by_name("order_status").unwrap();
        let flag = t.column_by_name("return_flag").unwrap();
        for i in 0..t.row_count() {
            if status.value(i) == Value::str("returned") {
                assert_eq!(flag.value(i), Value::str("returned"));
            }
        }
    }
}
