//! Property test: parallel dataset generation is byte-identical to
//! single-threaded generation.
//!
//! The chunk-deterministic contract (`simba_data::chunk`) claims the
//! generated table is a pure function of `(dataset, rows, seed)` — thread
//! count affects wall-clock only. This pins it with [`Table::bitwise_eq`]
//! (raw buffers, float bit patterns, dictionary order, codes, validity):
//! for every dataset, across thread counts 1/2/8, at row counts sitting
//! exactly on, one past, and one short of chunk boundaries
//! (`rows % chunk_rows ∈ {0, 1, chunk_rows − 1}`), where the dictionary
//! merge and the ragged final chunk are most likely to betray an
//! order-dependent bug.
//!
//! Most cases run at a reduced chunk size (one morsel) through
//! `generate_chunked` so multiple chunks stay cheap; a pinned test crosses
//! the real `CHUNK_ROWS` boundary through the public API.

use proptest::prelude::*;
use simba_data::chunk::{generate_chunked, CHUNK_ROWS};
use simba_data::DashboardDataset;
use simba_store::{Table, Value, Zone, MORSEL_ROWS};

/// Generate `dataset` at a test-scale chunk size (one morsel) so a few
/// thousand rows span several chunks.
fn small_chunked(dataset: DashboardDataset, rows: usize, seed: u64, threads: usize) -> Table {
    generate_chunked(
        dataset.schema(),
        rows,
        seed,
        dataset.chunk_salt(),
        threads,
        MORSEL_ROWS,
        |rng, ctx, b| dataset.fill_chunk(rng, ctx, b),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn parallel_generation_is_byte_identical(
        dataset_idx in 0usize..6,
        whole_chunks in 1usize..4,
        boundary_offset in proptest::sample::select(vec![0usize, 1, MORSEL_ROWS - 1]),
        seed in 0u64..1_000,
    ) {
        let dataset = DashboardDataset::ALL[dataset_idx];
        let rows = whole_chunks * MORSEL_ROWS + boundary_offset;
        let reference = small_chunked(dataset, rows, seed, 1);
        prop_assert_eq!(reference.row_count(), rows);
        for threads in [2, 8] {
            let parallel = small_chunked(dataset, rows, seed, threads);
            prop_assert!(
                parallel.bitwise_eq(&reference),
                "{} rows={} seed={} threads={} diverged from single-threaded",
                dataset.table_name(), rows, seed, threads
            );
        }
    }
}

/// The public API (`generate_rows*`, fixed `CHUNK_ROWS`) across a real
/// chunk boundary: `rows % CHUNK_ROWS ∈ {0, 1}` around one chunk, at
/// 1/2/8 threads plus the auto (all-cores) default. Two representative
/// datasets keep this debug-build-affordable — the narrowest dictionary
/// surface and the widest (18 categorical columns); the proptest above
/// covers all six at a reduced chunk size.
#[test]
fn public_api_thread_invariance_at_real_chunk_boundary() {
    for dataset in [
        DashboardDataset::CirculationActivity,
        DashboardDataset::SupplyChain,
    ] {
        for rows in [CHUNK_ROWS, CHUNK_ROWS + 1] {
            let reference = dataset.generate_rows_with_threads(rows, 42, 1);
            for threads in [2usize, 8] {
                let parallel = dataset.generate_rows_with_threads(rows, 42, threads);
                assert!(
                    parallel.bitwise_eq(&reference),
                    "{} rows={rows} threads={threads}",
                    dataset.table_name()
                );
            }
            assert!(
                dataset.generate_rows(rows, 42).bitwise_eq(&reference),
                "{} rows={rows} auto threads",
                dataset.table_name()
            );
        }
    }
}

/// The benchmark's dataset at its stored widths: six dictionary columns
/// and seven small ints at one byte, `call_date` (epoch seconds) at four,
/// four floats at eight — 49 B/row, where every Int at eight bytes and every
/// code at four took 120 — whatever the thread count, across a chunk
/// boundary.
#[test]
fn customer_service_is_stored_at_its_narrowest_widths() {
    let dataset = DashboardDataset::CustomerService;
    let rows = CHUNK_ROWS + 1;
    let table = dataset.generate_rows_with_threads(rows, 42, 1);
    assert!(dataset
        .generate_rows_with_threads(rows, 42, 4)
        .bitwise_eq(&table));
    let mut bytes_per_row = 0;
    for (def, col) in table.schema().columns.iter().zip(0..) {
        let col = table.column(col);
        assert!(col.all_valid(), "{}", def.name);
        let width = match (col.int_data(), col.code_data()) {
            (Some(ints), _) => ints.width(),
            (_, Some(codes)) => codes.width(),
            _ => 8,
        };
        let want = match def.name.as_str() {
            "call_date" => 4,
            "handle_time" | "hold_time" | "wait_time" | "talk_time" => 8,
            _ => 1,
        };
        assert_eq!(width, want, "{}", def.name);
        bytes_per_row += width;
    }
    assert_eq!(bytes_per_row, 49);
    let size = table.byte_size();
    assert!(size <= 50 * rows, "{size} bytes for {rows} rows");
}

/// The column bounds are the extremes a boxed fold over every valid row
/// finds (`Value`'s order compares floats by `total_cmp`), for every
/// dataset, whatever the thread count.
#[test]
fn zone_maps_are_column_bounds_at_any_thread_count() {
    for dataset in DashboardDataset::ALL {
        for threads in [1, 4] {
            let table = small_chunked(dataset, 2 * MORSEL_ROWS + 7, 5, threads);
            for c in 0..table.schema().width() {
                let col = table.column(c);
                let bounds = match table.zone_maps().column(c) {
                    Some(Zone::Int { min, max }) => Some((Value::Int(min), Value::Int(max))),
                    Some(Zone::Float { min, max }) => Some((Value::Float(min), Value::Float(max))),
                    Some(Zone::AllNull) => None,
                    None => {
                        assert!(col.int_data().is_none() && col.float_data().is_none());
                        continue;
                    }
                };
                let valid = (0..table.row_count()).filter(|&i| !col.is_null(i));
                let naive = valid
                    .clone()
                    .map(|i| col.value(i))
                    .min()
                    .zip(valid.map(|i| col.value(i)).max());
                // Debug tells -0.0 from 0.0 and NaN apart.
                assert_eq!(
                    format!("{bounds:?}"),
                    format!("{naive:?}"),
                    "{} column {c} threads={threads}",
                    dataset.table_name()
                );
            }
        }
    }
}
