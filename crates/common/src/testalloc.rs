//! A counting global allocator for zero-copy / zero-alloc proofs.
//!
//! Several proofs in this workspace assert allocation behaviour the hard
//! way — "a warm side-file hit allocates nothing", "a header-only chain
//! walk allocates nothing per record", "clones-per-hit is exactly 0" — by
//! registering a counting allocator as the binary's `#[global_allocator]`
//! and reading counter deltas around the measured section. The counting
//! logic lives here exactly once so the test and the CI bench gate can
//! never drift apart in what they measure.
//!
//! The type is inert unless a binary opts in:
//!
//! ```ignore
//! use rewind_common::testalloc::{allocations, large_allocations, CountingAllocator};
//!
//! #[global_allocator]
//! static ALLOC: CountingAllocator = CountingAllocator;
//! ```
//!
//! Two views of the same count; callers measure deltas, so absolute values
//! never matter:
//!
//! * [`thread_allocations`] / [`thread_large_allocations`] count only the
//!   calling thread's allocations. Single-thread proofs use them: they are
//!   exactly as strict for the measured code, and tests running in parallel
//!   in the same binary (or the test harness's own threads) cannot perturb
//!   them.
//! * [`allocations`] / [`large_allocations`] are process-global, for proofs
//!   whose measured section spans several threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations at or above this size count as "large" — sized to the
/// engine's 8 KiB page, so every page clone lands in
/// [`large_allocations`]. (`rewind-pagestore` asserts at compile time that
/// its `PAGE_SIZE` matches.)
pub const LARGE_ALLOC_MIN: usize = 8192;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread `(all, large)` allocation counts. `const`-initialised with
    /// no destructor, so bumping them never allocates (no lazy
    /// registration) — required inside the allocator itself.
    static THREAD_ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Count one allocation, globally and for the calling thread. `try_with`
/// keeps allocations made during thread teardown safe to count.
fn count(size: usize) {
    let large = size >= LARGE_ALLOC_MIN;
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if large {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
    let _ = THREAD_ALLOCATIONS.try_with(|n| {
        let (all, big) = n.get();
        n.set((all + 1, big + u64::from(large)));
    });
}

/// Forwards to the system allocator, counting every allocation (and
/// page-sized ones separately). Frees are not counted — the proofs are
/// about allocation pressure, and `realloc` counts as one allocation.
pub struct CountingAllocator;

// SAFETY: pure pass-through to `System` plus relaxed atomic and non-allocating
// thread-local counting — every GlobalAlloc contract obligation is
// discharged by the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: delegates to `System.alloc` with the caller's layout unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    // SAFETY: delegates to `System.dealloc`; `ptr`/`layout` come from `alloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to `System.realloc` with the caller's arguments unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocations since process start (meaningful as deltas).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread since it started (meaningful as
/// deltas).
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.try_with(|n| n.get().0).unwrap_or(0)
}

/// The calling thread's allocations of [`LARGE_ALLOC_MIN`] bytes or more
/// (meaningful as deltas).
pub fn thread_large_allocations() -> u64 {
    THREAD_ALLOCATIONS.try_with(|n| n.get().1).unwrap_or(0)
}

/// Allocations of [`LARGE_ALLOC_MIN`] bytes or more — page clones, in this
/// engine (meaningful as deltas).
pub fn large_allocations() -> u64 {
    LARGE_ALLOCATIONS.load(Ordering::Relaxed)
}
