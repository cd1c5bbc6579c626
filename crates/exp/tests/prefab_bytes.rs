//! Heap retained per trial: the exact bytes that one seed's harvest
//! profile and one seed's [`TrialPrefab`] keep alive.
//!
//! Every driver holds one prefab per seed for a whole call (ROADMAP
//! item 5), so these bytes times the task-set count bound what a
//! campaign keeps. A counting global allocator tracks live bytes; it is
//! the only test in this binary, so no other test allocates while it
//! counts.
//!
//! [`TrialPrefab`]: harvest_exp::scenario::TrialPrefab

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use harvest_exp::scenario::PaperScenario;

/// Bytes currently allocated through [`LiveBytes`]. A statistic that
/// publishes no other data, so `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// [`System`] plus a process-wide count of live bytes.
struct LiveBytes;

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is an atomic
// that never allocates.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: forwarded with the caller's guarantees on `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Live bytes that the value `build` returns keeps allocated. A first,
/// discarded call absorbs the process's one-time allocations.
fn retained<T>(build: impl Fn() -> T) -> isize {
    drop(build());
    let before = LIVE.load(Ordering::Relaxed);
    let kept = build();
    let bytes = LIVE.load(Ordering::Relaxed) - before;
    drop(kept);
    bytes
}

#[test]
fn profiles_and_prefabs_retain_pinned_bytes() {
    // (utilization, seed, profile bytes, prefab bytes)
    for (utilization, seed, profile, prefab) in [
        (0.8, 7, 100_008, 116_880),
        (0.4, 1_000_000, 100_008, 116_880),
    ] {
        let scenario = PaperScenario::new(utilization, 500.0);
        let got = (
            retained(|| scenario.profile(seed)),
            retained(|| scenario.prefab(seed)),
        );
        assert_eq!(got, (profile, prefab), "U = {utilization}, seed {seed}");
    }
}
