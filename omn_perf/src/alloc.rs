//! A counting global allocator: allocation calls and bytes requested while
//! a traced run phase is active. When counting is off an allocation costs
//! one relaxed load more than the system allocator, so the untraced pass
//! that feeds the end-to-end metrics runs on it unchanged.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// The system allocator plus counters. Every counter is a statistic that
/// publishes no other data, so every access is `Relaxed`.
pub struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Allocation calls and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub calls: u64,
    pub bytes: u64,
}

impl Counts {
    /// Counts accrued since `earlier`.
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Turns counting on or off (on only around a traced run phase).
pub fn set_counting(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// The running totals.
pub fn counts() -> Counts {
    Counts {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

#[inline]
fn note(bytes: usize) {
    if ENABLED.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees for `layout` are System's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from System.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from System with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_move_only_while_enabled() {
        // No other test enables counting, so a disabled window is exact; an
        // enabled one may also see other test threads' allocations.
        let before = counts();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(64));
        drop(v);
        assert_eq!(counts(), before, "counted while disabled");

        set_counting(true);
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(64));
        set_counting(false);
        drop(v);
        let moved = counts().since(before);
        assert!(moved.calls >= 1, "{moved:?}");
        assert!(moved.bytes >= 64 * 8, "{moved:?}");
    }
}
