//! A counting global allocator for the traced run's `*.allocs` columns.
//!
//! Counting is off until [`enable`] is called, so the untraced runs pay
//! one relaxed load per allocation and nothing else. Every `alloc`,
//! `alloc_zeroed` and `realloc` call counts once, both in a process-wide
//! total (for layers that fan out over worker threads) and in a
//! per-thread total (for layers timed on the calling thread while other
//! threads may be running).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// The benchmark binary's allocator: [`System`] plus two counters.
pub struct Counting;

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The process-wide total, sharded by thread so that worker threads
/// allocating at once do not contend on one cache line.
#[repr(align(64))]
struct Shard(AtomicU64);
static SHARDS: [Shard; 16] = [const { Shard(AtomicU64::new(0)) }; 16];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized and without destructors, so touching them never
    // allocates (which would recurse into the allocator).
    static LOCAL: Cell<u64> = const { Cell::new(0) };
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count() {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let _ = LOCAL.try_with(|c| c.set(c.get() + 1));
    let shard = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS.len());
            }
            s.get()
        })
        .unwrap_or(0);
    // A statistic that publishes no other data.
    SHARDS[shard].0.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the added counting touches
// only atomics and const-initialized thread-locals, none of which
// allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation of this allocator is), and the caller's guarantees
        // for `new_size` pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Starts counting; called once, at the start of a traced run.
pub fn enable() {
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Allocations made by any thread since [`enable`].
pub fn global() -> u64 {
    SHARDS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
}

/// Allocations made by the calling thread since [`enable`].
pub fn local() -> u64 {
    LOCAL.with(Cell::get)
}
