//! Counting allocator: heap allocations made while armed.
//!
//! An always-on atomic counter cost ~100 ns/frame when this benchmark
//! was sized, so counting hides behind one relaxed flag that only the
//! counting pass and the traced pass raise. Timed rounds run with the
//! flag down and pay a single predictable branch per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The benchmark binary's global allocator: `System` plus the counter.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a statistic
// that publishes no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations counted so far (all threads).
pub fn total() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Raises or lowers the counting flag.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that arm the process-wide allocator take this lock, so a
    /// parallel test cannot count into another's window.
    pub(crate) static ALLOC_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn counts_only_while_armed() {
        let _guard = ALLOC_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let before = total();
        drop(std::hint::black_box(vec![1u8; 64]));
        assert_eq!(total(), before, "disarmed allocations are not counted");
        arm(true);
        drop(std::hint::black_box(vec![1u8; 64]));
        arm(false);
        assert!(total() > before);
    }
}
