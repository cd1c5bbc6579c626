//! A counting global allocator: per-thread allocation counts for the
//! work replay's `work.allocs`.
//!
//! The binary installs it with `#[global_allocator]`; without that (in
//! the library's own tests) [`thread_allocs`] stays at zero. Counts are
//! thread-local, so counting costs no shared cache line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    // `try_with`: a thread being torn down may still free (and, rarely,
    // allocate) after its thread-locals are gone.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocations (including reallocations) made by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// [`System`] plus a per-thread allocation counter.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches only a
// const-initialized thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}
