//! A counting global allocator for allocation-budget benchmarks.
//!
//! Only built with the `bench` feature. A binary (or integration test)
//! registers [`CountingAllocator`] as its `#[global_allocator]`; the
//! process-wide counters then record every heap allocation the program
//! makes, letting harnesses report allocations/event and catch regressions
//! where a "steady-state" code path quietly starts allocating.
//!
//! Two families of counters coexist:
//!
//! * **Event counters** ([`allocations`] / [`allocated_bytes`]): `dealloc`
//!   is uncounted, `realloc` counts as one event with the new size. These
//!   are monotone and answer "how often does this path allocate?".
//!   [`thread_allocations`] is the same count restricted to the calling
//!   thread.
//! * **Live-bytes counters** ([`live_bytes`] / [`peak_live_bytes`]): every
//!   `alloc` adds and every `dealloc` subtracts, with a high-water mark
//!   that scale benchmarks reset per measurement window via
//!   [`reset_peak_live`] to attribute peak heap footprint to one cell.
//!   The peak update uses a `fetch_max` loop, so concurrent allocations
//!   never lose a high-water observation.
//!
//! Relaxed atomics keep the probe cheap; the harnesses that read these
//! counters are single-threaded around their measurement windows.
//!
//! This is the single `unsafe` impl in the workspace (delegating to
//! [`System`]), which is why the crate downgrades `forbid(unsafe_code)` to
//! `deny` under the `bench` feature.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn on_alloc(size: u64) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only during thread teardown, when nobody can read
    // the count any more.
    let _ = THREAD_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    ALLOCATED_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(size: u64) {
    // Saturating: deallocs of memory allocated before a counter reset (or
    // before this allocator was registered) must not wrap the gauge.
    let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(size))
    });
}

/// A `#[global_allocator]` that counts allocation calls, then delegates to
/// the system allocator.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingAllocator;

#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size() as u64);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size() as u64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_dealloc(layout.size() as u64);
        on_alloc(new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocation calls made by this process so far (including `realloc`
/// and `alloc_zeroed`). Meaningful only when [`CountingAllocator`] is the
/// registered global allocator; zero forever otherwise.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Heap allocation calls made so far by the calling thread alone — what a
/// measurement window must use when other threads (a parallel test
/// harness, say) may allocate at the same time.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}

/// Total bytes requested by those allocation calls.
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// Bytes currently live on the heap (allocated minus deallocated).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak_live`].
pub fn peak_live_bytes() -> u64 {
    PEAK_LIVE.load(Ordering::Relaxed)
}

/// Resets the live-bytes high-water mark to the current live level, so the
/// next [`peak_live_bytes`] reading reflects only growth after this point.
pub fn reset_peak_live() {
    PEAK_LIVE.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}
