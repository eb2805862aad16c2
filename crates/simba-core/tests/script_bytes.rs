//! What a synthesized batch holds, in bytes.
//!
//! A batch shares one `Select` between every step that emits the same chart
//! query, so it costs its distinct queries plus 24 B per step query. This
//! test counts the heap the benchmark's scripted batch (`customer_service`
//! at 10K rows, seed 7, 12 sessions × 192 interactions) keeps once
//! synthesis returns, and the most synthesis held at once (the batch plus
//! its memo). Built afresh for every step query, the batch held 8,495,256
//! bytes.
//!
//! One `#[test]` in its own binary: the heap counter is process-wide, and a
//! second test thread allocating meanwhile would count against this one.

use simba_core::dashboard::Dashboard;
use simba_core::markov::MarkovModel;
use simba_core::session::batch::{synthesize_scripts, BatchConfig};
use simba_core::spec::builtin::builtin;
use simba_data::DashboardDataset;
use simba_sql::Select;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

struct CountingAlloc;

fn changed(by: isize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is two atomic counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            changed(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) };
        changed(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.realloc`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            changed(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// What the batch may keep, and what synthesis may hold at once (the batch
/// plus its memo): under half of what the batch kept built afresh.
const BOUND: isize = 4_000_000;

#[test]
fn the_wire_batch_holds_each_distinct_query_once() {
    let ds = DashboardDataset::CustomerService;
    let table = ds.generate_rows(10_000, 7);
    let dashboard = Dashboard::new(builtin(ds), &table).unwrap();
    let config = BatchConfig {
        base_seed: 7,
        steps_per_session: 192,
        mix: MarkovModel::presets(),
    };

    let before = live();
    PEAK.store(before, Ordering::Relaxed);
    let scripts = synthesize_scripts(&dashboard, &config, 12);
    let held = live() - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;

    let queries: usize = scripts.iter().map(|s| s.query_count()).sum();
    let shared: HashSet<*const Select> = scripts
        .iter()
        .flat_map(|s| &s.steps)
        .flat_map(|s| &s.queries)
        .map(|q| Arc::as_ptr(&q.query))
        .collect();
    println!(
        "{queries} step queries, {} built: {held} B held, {peak} B at the peak of synthesis",
        shared.len()
    );
    assert_eq!(queries, 8_199, "the batch is the benchmark's");
    assert!(held <= BOUND, "the batch holds {held} B (bound {BOUND})");
    assert!(
        peak <= BOUND,
        "synthesis peaked at {peak} B (bound {BOUND})"
    );
}
