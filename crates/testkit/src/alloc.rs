//! A counting allocator for allocation-budget tests.
//!
//! An integration test is its own binary, so it can install [`Counting`]
//! as its `#[global_allocator]` and hold a code path to a budget in
//! tier-1, where a regression fails a test instead of showing up in a
//! profile:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mirage_testkit::alloc::Counting = mirage_testkit::alloc::Counting;
//!
//! let (_, allocations) = mirage_testkit::alloc::count(|| vec![0u8; 16]);
//! assert_eq!(allocations, 1);
//! ```
//!
//! Counts are per thread — the test harness runs tests in parallel — and
//! count calls into the allocator that can return new memory (`alloc`,
//! `alloc_zeroed`, `realloc`), not frees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Const-initialised and without a destructor, so touching it from
    /// inside the allocator never allocates and is valid for the whole
    /// life of the thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations.
pub struct Counting;

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with its arguments unchanged, so
// `System`'s guarantees are this allocator's; the counter is a statistic
// that no memory access depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through one of the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f`, returning its result and how many allocations this thread
/// made meanwhile.
///
/// # Panics
///
/// Panics if [`Counting`] is not the binary's `#[global_allocator]` — a
/// budget checked against a counter nothing bumps would always pass.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.get();
    drop(std::hint::black_box(Box::new(0u8)));
    assert_eq!(
        ALLOCATIONS.get(),
        before + 1,
        "mirage_testkit::alloc::Counting is not this binary's #[global_allocator]"
    );
    let start = ALLOCATIONS.get();
    let result = f();
    (result, ALLOCATIONS.get() - start)
}
