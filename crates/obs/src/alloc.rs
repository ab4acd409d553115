//! Debug allocation counting for zero-alloc invariants.
//!
//! The partition hot path (DESIGN.md §5) promises that the steady-state
//! admission loop performs **zero heap allocations** once its buffers are
//! warm. Promises rot; counters don't. A test binary installs
//! [`CountingAllocator`] as its `#[global_allocator]` and brackets the
//! region under test with [`thread_allocations`]:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rmts_obs::alloc::CountingAllocator =
//!     rmts_obs::alloc::CountingAllocator;
//!
//! let before = rmts_obs::alloc::thread_allocations();
//! hot_loop();
//! assert_eq!(rmts_obs::alloc::thread_allocations() - before, 0);
//! ```
//!
//! The counter is **per thread**, so allocator traffic from unrelated
//! threads (test harness, service shards) cannot flip a verdict. Only
//! allocation events count (`alloc`, `alloc_zeroed`, `realloc`);
//! deallocations are free to the invariant and are not tracked.
//!
//! Beside it, [`live_bytes`] is a **process-wide** count of the bytes
//! allocated and not yet freed, for footprint pins: the growth of live
//! bytes across a region is what that region retained. Every thread
//! moves it, so a test that reads it must be alone in its binary.
//!
//! This is a debug hook, not an observability source: it bypasses the
//! `Recording` tables entirely (the counter must work while recorders are
//! off, and counting into a thread-local table from inside the allocator
//! would recurse).

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bytes allocated and not yet freed, process-wide. `Relaxed`: a
/// statistic that publishes no other data.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Number of heap allocation events this thread has performed since it
/// started (under a [`CountingAllocator`]; always 0 otherwise).
pub fn thread_allocations() -> u64 {
    // `try_with`: reads during TLS teardown just see 0 instead of aborting.
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes currently allocated by the whole process (under a
/// [`CountingAllocator`]; always 0 otherwise). Requested sizes, without
/// the allocator's own rounding and headers; a failed allocation, which
/// aborts a test binary, is counted as made.
pub fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

#[inline]
fn bump() {
    // `try_with` keeps allocations during TLS teardown from aborting the
    // process (the counter silently misses those — fine for a debug hook).
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// A [`System`]-backed global allocator that counts allocation events into
/// a thread-local counter read by [`thread_allocations`], and live bytes
/// into the process-wide one read by [`live_bytes`]. Install with
/// `#[global_allocator]` in test binaries that assert zero-alloc
/// invariants; behavior is otherwise identical to [`System`].
pub struct CountingAllocator;

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary does not install the allocator (that would tax
    // every other test); the end-to-end behavior lives in the workspace
    // `zero_alloc` integration test. Here we only pin the counter API.
    #[test]
    fn counter_reads_zero_without_installation() {
        assert_eq!(thread_allocations(), 0);
    }

    #[test]
    fn bump_is_visible_on_the_same_thread() {
        let before = thread_allocations();
        bump();
        bump();
        assert_eq!(thread_allocations() - before, 2);
        // Another thread's counter is independent.
        std::thread::spawn(|| assert_eq!(thread_allocations(), 0))
            .join()
            .unwrap();
    }
}
