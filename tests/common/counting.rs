//! A test-local allocator that counts what the calling thread asks for,
//! so a cost pin is exact on any machine instead of timed. Not part of
//! `common/mod.rs`: a binary that pins allocations pulls it in with
//! `#[path = "common/counting.rs"] mod counting;`, and only those
//! binaries run under it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations; the test harness runs
/// tests on threads of their own, so counts do not mix.
struct Counting;

thread_local! {
    /// (blocks, bytes) this thread has asked for. `const`-initialized
    /// and without a destructor, so touching it never allocates.
    static ASKED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: a thread may still free memory while it is torn down.
    let _ = ASKED.try_with(|a| {
        let (blocks, total) = a.get();
        a.set((blocks + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// beside it neither allocates nor touches the blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// (blocks, bytes) the calling thread asks for while `f` runs — a
/// growth (`realloc`) counts as a block of the new size — and what `f`
/// returns.
pub fn counted<T>(f: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = ASKED.get();
    let out = f();
    let after = ASKED.get();
    ((after.0 - before.0, after.1 - before.1), out)
}
