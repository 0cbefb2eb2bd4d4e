//! A counting global allocator: live bytes, peak live bytes and the number
//! of allocations, read by the benchmark around each phase of a run.
//!
//! The type only counts once a binary installs it with
//! `#[global_allocator]`; without that every reading stays zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, with counters.
pub struct CountingAlloc;

// The counters publish no other data, so `Relaxed` is enough everywhere.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are only
// updated around the call and never touch the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (so by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract for
        // a block `System` handed out with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

/// Bytes currently allocated.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live byte count since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Starts a new peak measurement from the current live byte count.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// Allocations (including reallocations) made so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
