//! Counting global allocator: a pass-through to the system allocator that
//! tallies heap allocations **per thread**, so the harness can report how
//! many allocations one `schedule*` call performs (`core.allocs_per_decision`)
//! without the ingest-driver thread's allocations leaking into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and `Drop`-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Pass-through allocator counting `alloc`, `alloc_zeroed` and `realloc`
/// calls on the calling thread.
pub struct CountingAllocator;

fn count_one() {
    // `try_with` instead of `with`: a thread may allocate while its locals
    // are being torn down, and that must not panic inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only added work is a thread-local
// integer increment that neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (i.e. by `System`)
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr`/`layout` come from this allocator and `new_size` is
        // non-zero, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations performed on the calling thread since it started.
pub fn allocations_on_this_thread() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
