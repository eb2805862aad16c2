//! Chunk-deterministic, morsel-parallel dataset generation.
//!
//! The paper's experiment grid runs every dataset at up to 10M rows, and a
//! single-threaded row loop makes that tier the dominant wall-clock cost of
//! every shootout. This module splits generation into fixed-size chunks of
//! [`CHUNK_ROWS`] rows, each driven by an **independent** RNG derived as
//!
//! ```text
//! chunk_rng(i) = ChaCha8Rng::seed_from_u64(master ^ splitmix64(i))
//! ```
//!
//! so chunks can be generated on any number of worker threads, in any
//! scheduling order, and the table is *byte-identical* for a given
//! `(dataset, rows, seed)` triple. Column bounds are not built here: the
//! finished table folds them in one pass on first use.
//!
//! **The fill contract.** A generator's `fill` writes one chunk's rows into
//! the [`TableBuilder`] it is handed, cell by cell through
//! [`TableBuilder::row`]: Ints and Floats as they are, strings as indexes
//! into lists it fixes per column with [`TableBuilder::set_labels`] at the
//! start of the chunk. It draws only from its chunk's RNG and [`ChunkCtx`],
//! and it may not assume the builder is empty.
//!
//! **Who holds fragments.** With one worker, every chunk is filled in index
//! order into one builder sized for the whole table, so the table's columns
//! are the only copy of the data. With more, each worker fills a chunk into
//! a builder of its own, and the finished fragment
//! ([`simba_store::TableChunk`]) waits until the merge
//! ([`simba_store::TableAssembler`]) consumes it, strictly in index order,
//! remapping its dictionary codes into the table's. Both paths give the
//! same bytes: a dictionary's order (first appearance) and a column's width
//! are functions of the row stream alone.
//!
//! The chunk size is part of the determinism contract: the same triple
//! generated under a different `chunk_rows` yields *different* (equally
//! valid) data, because rows map to different RNG streams. All public
//! entry points use [`CHUNK_ROWS`]; tests exercise other sizes through
//! [`generate_chunked`] directly.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simba_store::{Schema, Table, TableAssembler, TableBuilder, TableChunk, MORSEL_ROWS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Rows per generation chunk: 32 morsels. Large enough that
/// per-chunk setup (RNG seeding, lookup-table construction) is noise,
/// small enough that a 10M-row table yields ~150 chunks to parallelize
/// over.
pub const CHUNK_ROWS: usize = 32 * MORSEL_ROWS;

/// The workspace seed mixer; decorrelates the RNG streams of nearby chunk
/// indices.
pub use simba_store::mix::splitmix64;

/// Seed of chunk `chunk_index`'s RNG, derived from the (salted) master
/// seed. This is the determinism contract's seed-derivation rule: plain
/// XOR against a scrambled index keeps distinct masters distinct while
/// giving every chunk a decorrelated stream.
pub fn chunk_seed(master: u64, chunk_index: u64) -> u64 {
    master ^ splitmix64(chunk_index)
}

/// Everything a chunk generator may condition on besides its private RNG.
///
/// Generators must derive each row purely from the RNG and this context —
/// never from state carried across chunks — or chunk independence (and
/// with it thread-count invariance) breaks.
#[derive(Debug, Clone, Copy)]
pub struct ChunkCtx {
    /// Global index of the chunk's first row.
    pub start: usize,
    /// Rows in this chunk (`CHUNK_ROWS` except possibly the last chunk).
    pub len: usize,
    /// Total rows of the table being generated (for row-position effects
    /// like route progression).
    pub total_rows: usize,
    /// The caller's unsalted master seed (for slow-varying state keyed on
    /// the seed itself, e.g. MyRide's weather).
    pub seed: u64,
}

/// Generate a table by filling fixed-size chunks on `threads` worker
/// threads, in chunk order on one.
///
/// * `seed` is the caller's master seed; `salt` is the per-dataset
///   constant folded into it before chunk-seed derivation (so different
///   datasets draw disjoint streams from one master seed).
/// * `threads == 0` means one worker per available core.
/// * `chunk_rows` is the (positive) number of rows per chunk.
/// * `fill` receives a chunk-private RNG already seeded by
///   [`chunk_seed`], the chunk's [`ChunkCtx`], and a row builder with room
///   for at least `ctx.len` more rows; it must push exactly `ctx.len` rows
///   (see the [module docs](self) for the contract). With one worker the
///   builder is the table's own and already holds the chunks before this
///   one; with more it is a fresh fragment, merged in chunk order.
///
/// The output is byte-identical for the same
/// `(schema, rows, seed, salt, chunk_rows, fill)` at **any** thread
/// count.
pub fn generate_chunked<F>(
    schema: Schema,
    rows: usize,
    seed: u64,
    salt: u64,
    threads: usize,
    chunk_rows: usize,
    fill: F,
) -> Table
where
    F: Fn(&mut ChaCha8Rng, &ChunkCtx, &mut TableBuilder) + Sync,
{
    let n_chunks = rows.div_ceil(chunk_rows);
    let master = seed ^ salt;

    let chunk_len = |index: usize| chunk_rows.min(rows - index * chunk_rows);
    // Fill chunk `index` into `builder`, which holds the chunks before it
    // or none.
    let fill_into = |index: usize, builder: &mut TableBuilder| {
        let _p = simba_obs::phase!("data.chunk", "data", "data.phase.chunk");
        let ctx = ChunkCtx {
            start: index * chunk_rows,
            len: chunk_len(index),
            total_rows: rows,
            seed,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(chunk_seed(master, index as u64));
        let before = builder.len();
        fill(&mut rng, &ctx, builder);
        assert_eq!(
            builder.len() - before,
            ctx.len,
            "fill pushed a wrong row count"
        );
    };

    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        threads
    };
    let workers = threads.min(n_chunks);

    if workers <= 1 {
        // Every chunk straight into the table's own columns: no fragment
        // and no merge, so the table is the only copy of the data.
        let mut builder = TableBuilder::new(schema, rows);
        for index in 0..n_chunks {
            fill_into(index, &mut builder);
        }
        return builder.finish();
    }

    // A worker fills each chunk into a fragment of its own.
    let build_chunk = |index: usize| -> TableChunk {
        let mut builder = TableBuilder::new(schema.clone(), chunk_len(index));
        fill_into(index, &mut builder);
        TableChunk::new(builder.finish_parts().1)
    };
    let mut assembler = TableAssembler::new(schema.clone(), rows);

    // Workers pull chunk indices from a shared counter and park finished
    // chunks in their slot; the merge (cheap memcpy-scale work) runs on
    // this thread, consuming slots strictly in index order as they fill.
    // A worker may only *build* a chunk while it is within `window` of the
    // merge frontier, so at most ~2×workers chunks are ever resident
    // beyond the assembled table — without the backpressure, one slow
    // worker on an early chunk would let the rest park the entire table
    // in slots.
    struct MergeState {
        slots: Vec<Option<TableChunk>>,
        /// Index one past the last chunk the merge has consumed.
        merged: usize,
        /// Set when either side dies, so the other fails fast instead of
        /// waiting forever on a condition that can never become true.
        aborted: bool,
    }
    let state = Mutex::new(MergeState {
        slots: (0..n_chunks).map(|_| None).collect(),
        merged: 0,
        aborted: false,
    });
    let ready = Condvar::new();
    let next = AtomicUsize::new(0);
    let window = 2 * workers;

    /// Flags the shared state on unwind; without this a panicking worker
    /// would leave its claimed slot empty and deadlock the merge (or a
    /// panicking merge would strand workers on the backpressure wait).
    struct PanicSignal<'a> {
        state: &'a Mutex<MergeState>,
        ready: &'a Condvar,
    }
    impl Drop for PanicSignal<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let Ok(mut guard) = self.state.lock() {
                    guard.aborted = true;
                }
                self.ready.notify_all();
            }
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _signal = PanicSignal {
                    state: &state,
                    ready: &ready,
                };
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= n_chunks {
                        break;
                    }
                    {
                        // Backpressure: stay within `window` of the merge.
                        let mut guard = state.lock().expect("merge thread panicked");
                        while !guard.aborted && index >= guard.merged + window {
                            guard = ready.wait(guard).expect("merge thread panicked");
                        }
                        if guard.aborted {
                            break;
                        }
                    }
                    let chunk = build_chunk(index);
                    let mut guard = state.lock().expect("merge thread panicked");
                    guard.slots[index] = Some(chunk);
                    ready.notify_all();
                }
            });
        }
        let _signal = PanicSignal {
            state: &state,
            ready: &ready,
        };
        // Spans the whole in-order merge, including waits on the frontier
        // chunk — stall time here means a slow worker, not slow appends.
        let _p = simba_obs::phase!("data.assemble", "data", "data.phase.assemble");
        for index in 0..n_chunks {
            let chunk = {
                let mut guard = state.lock().expect("generator worker panicked");
                loop {
                    assert!(
                        !guard.aborted,
                        "a generation worker panicked; aborting the merge"
                    );
                    match guard.slots[index].take() {
                        Some(chunk) => {
                            guard.merged = index + 1;
                            ready.notify_all();
                            break chunk;
                        }
                        None => guard = ready.wait(guard).expect("generator worker panicked"),
                    }
                }
            };
            assembler.append_chunk(chunk);
        }
        assembler.finish()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simba_store::ColumnDef;

    fn toy_schema() -> Schema {
        Schema::new(
            "toy",
            vec![
                ColumnDef::categorical("label"),
                ColumnDef::quantitative_int("x"),
            ],
        )
    }

    fn toy_fill(rng: &mut ChaCha8Rng, ctx: &ChunkCtx, b: &mut TableBuilder) {
        use rand::Rng;
        b.set_labels("label", &["l0", "l1", "l2", "l3", "l4"]);
        for i in ctx.start..ctx.start + ctx.len {
            b.row()
                .label(rng.gen_range(0..5))
                .int(i as i64 + rng.gen_range(0..100))
                .end();
        }
    }

    fn toy_table(rows: usize, seed: u64, threads: usize, chunk_rows: usize) -> Table {
        generate_chunked(
            toy_schema(),
            rows,
            seed,
            0x70_71,
            threads,
            chunk_rows,
            toy_fill,
        )
    }

    #[test]
    fn thread_count_does_not_change_bytes() {
        let rows = 2 * MORSEL_ROWS + 17;
        // A chunk size off the morsel grid is as deterministic.
        for chunk_rows in [MORSEL_ROWS, 1000] {
            let reference = toy_table(rows, 9, 1, chunk_rows);
            for threads in [2, 3, 8] {
                assert!(
                    toy_table(rows, 9, threads, chunk_rows).bitwise_eq(&reference),
                    "threads={threads} chunk_rows={chunk_rows}"
                );
            }
        }
    }

    #[test]
    fn seeds_and_chunk_sizes_are_part_of_the_contract() {
        let rows = MORSEL_ROWS + 1;
        let base = toy_table(rows, 1, 2, MORSEL_ROWS);
        assert!(
            !toy_table(rows, 2, 2, MORSEL_ROWS).bitwise_eq(&base),
            "seed"
        );
        assert!(
            !toy_table(rows, 1, 2, 2 * MORSEL_ROWS).bitwise_eq(&base),
            "chunk size"
        );
    }

    #[test]
    fn zero_rows_is_fine() {
        let t = toy_table(0, 0, 4, CHUNK_ROWS);
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn chunk_seed_mixes_indices() {
        // Nearby chunk indices must not produce nearby seeds.
        let a = chunk_seed(0, 0);
        let b = chunk_seed(0, 1);
        assert_ne!(a ^ b, 1, "adjacent chunks differ by more than one bit");
        assert_ne!(chunk_seed(1, 0), chunk_seed(0, 0));
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panic_fails_fast_instead_of_deadlocking() {
        // A generator that dies on a later chunk must abort the merge (the
        // waiting-on-slot-1 path), not hang it.
        generate_chunked(
            toy_schema(),
            4 * MORSEL_ROWS,
            0,
            0,
            2,
            MORSEL_ROWS,
            |rng, ctx, b| {
                assert!(ctx.start < MORSEL_ROWS, "boom: worker chunk failure");
                toy_fill(rng, ctx, b);
            },
        );
    }
}
