//! A counting global allocator for the traced run. Counting is off until
//! [`enable`] is called, and then counts only the calling thread's
//! allocations between [`start`] and [`take`], so a measurement is not
//! polluted by server threads allocating at the same time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The benchmark binary's global allocator: `System` plus counters.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(size: usize) {
    if ENABLED.load(Ordering::Relaxed) && ACTIVE.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch only const-initialized thread-locals that
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turns counting on for the rest of the process (traced runs only).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Starts counting the calling thread's allocations from zero.
pub fn start() {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    ACTIVE.with(|a| a.set(true));
}

/// Stops counting and returns `(allocations, bytes)` since [`start`].
pub fn take() -> (u64, u64) {
    ACTIVE.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_the_measured_thread() {
        enable();
        start();
        let v: Vec<u8> = Vec::with_capacity(100);
        std::thread::spawn(|| vec![0u8; 1 << 20]).join().unwrap();
        let (n, bytes) = take();
        drop(v);
        // Spawning allocates a little on this thread; the other thread's
        // 1 MiB buffer must not be counted here.
        assert!(n >= 1);
        assert!((100..1 << 20).contains(&bytes), "{bytes}");
        start();
        assert_eq!(take(), (0, 0));
    }
}
