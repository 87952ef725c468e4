//! Counting global allocator: live and peak heap bytes of the whole
//! process, harness included.
//!
//! `peak_live_mb` is read from here. The peak is reset when a workload's
//! measured window starts, so it reports what serving holds (resident
//! artefacts, inputs, online working set); the build's own high-water
//! mark is reported separately as `build.peak_live_mb`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Wraps the system allocator with two relaxed counters. They publish no
/// other data, so `Relaxed` is enough.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Highest live heap size since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the high-water mark from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Bytes as MB (10⁶ bytes).
pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate on parallel threads, so the assertions leave
    // slack for their traffic and use a block far larger than any of it.
    const BIG: usize = 64 << 20;

    #[test]
    fn peak_follows_a_large_block_and_resets_below_it() {
        reset_peak();
        let before = peak_bytes();
        let block = vec![1u8; BIG];
        std::hint::black_box(&block);
        assert!(peak_bytes() >= before + BIG / 2, "peak must see the block");
        drop(block);
        assert!(
            peak_bytes() >= before + BIG / 2,
            "peak must survive the free"
        );
        reset_peak();
        assert!(
            peak_bytes() < before + BIG / 2,
            "reset must drop the peak back to the live size"
        );
    }
}
