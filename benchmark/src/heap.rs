//! A counting allocator: the exact peak of live heap bytes over a stretch
//! of a run.
//!
//! Resident-set readings (`VmRSS`, `VmHWM`) of the same work differ by up
//! to 16 % between runs on the reference box — they depend on what the
//! allocator happened to keep back after the transient buffers of set-up —
//! so they cannot hold a bound. Bytes requested from the allocator repeat.
//! Counting costs an atomic add per allocation and per free (10 % of
//! `queries_per_s` on the wire workload), so it is switched on only for
//! set-up and the untimed warm-up round; switched off it costs one relaxed
//! load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// Forwards to [`System`]; counts between [`start`] and [`stop`].
pub struct CountingAlloc;

// Statistics only: the counters publish no other data, so `Relaxed` is
// enough. `LIVE` is signed because blocks allocated before `start` may be
// freed after it.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn changed(by: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            changed(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.alloc_zeroed`'s.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            changed(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) };
        changed(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's obligations are `System.realloc`'s.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            changed(new_size as isize - layout.size() as isize);
        }
        new
    }
}

/// Start counting from zero: the peak is that of the bytes allocated from
/// here on.
pub fn start() {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
}

/// Stop counting; the most bytes live at once since [`start`], in MB.
pub fn stop() -> f64 {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_sees_an_allocation_that_is_already_freed() {
        start();
        drop(std::hint::black_box(vec![0u8; 8 << 20]));
        let peak = stop();
        assert!(peak >= 8.0, "{peak}");
        // Switched off, nothing moves the peak.
        drop(std::hint::black_box(vec![0u8; 32 << 20]));
        assert_eq!(stop(), peak);
    }
}
