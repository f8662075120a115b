//! Host heap probe for the engine micro-bench.
//!
//! The library forbids unsafe code, so the counting
//! `#[global_allocator]` lives in the binaries (the `micro_engine`
//! bench target and the `neomem-bench` CLI own their crate roots);
//! they register their [`HeapCounters`] here and the `micro_engine`
//! figure reads them to report — and, in the bench target, assert —
//! steady-state allocation and live-heap behaviour of the simulation
//! hot loop. When no probe is registered (e.g. the library's own tests)
//! the figure reports the probe as inactive and skips the check.
//!
//! Heap figures are host-side observations: they go to stderr, never
//! into the deterministic result JSON.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// What a counting global allocator records: heap allocations, live
/// heap bytes, and the high-water mark of live bytes.
#[derive(Debug, Default)]
pub struct HeapCounters {
    allocations: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl HeapCounters {
    /// All-zero counters, for a `static`.
    pub const fn new() -> Self {
        Self { allocations: AtomicU64::new(0), live: AtomicU64::new(0), peak: AtomicU64::new(0) }
    }

    /// Records a successful allocation of `bytes`.
    pub fn on_alloc(&self, bytes: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        self.grow(bytes as u64);
    }

    /// Records a deallocation of `bytes`.
    pub fn on_dealloc(&self, bytes: usize) {
        self.live.fetch_sub(bytes as u64, Ordering::Relaxed);
    }

    /// Records a successful reallocation from `old` to `new` bytes,
    /// counted as one allocation.
    pub fn on_realloc(&self, old: usize, new: usize) {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        if new >= old {
            self.grow((new - old) as u64);
        } else {
            self.live.fetch_sub((old - new) as u64, Ordering::Relaxed);
        }
    }

    fn grow(&self, bytes: u64) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }
}

static COUNTERS: OnceLock<&'static HeapCounters> = OnceLock::new();

/// Registers the counters the installed global allocator updates.
/// Later registrations are ignored (first wins).
pub fn install(counters: &'static HeapCounters) {
    let _ = COUNTERS.set(counters);
}

/// Heap allocations observed so far, or `None` when no probe is
/// installed.
pub fn count() -> Option<u64> {
    COUNTERS.get().map(|c| c.allocations.load(Ordering::Relaxed))
}

/// Resets the live-byte high-water mark to the current live bytes and
/// returns them, so [`peak_live_bytes`] then reads the peak since this
/// call. `None` when no probe is installed.
pub fn reset_peak() -> Option<u64> {
    COUNTERS.get().map(|c| {
        let live = c.live.load(Ordering::Relaxed);
        c.peak.store(live, Ordering::Relaxed);
        live
    })
}

/// The live-byte high-water mark since the last [`reset_peak`], or
/// `None` when no probe is installed.
pub fn peak_live_bytes() -> Option<u64> {
    COUNTERS.get().map(|c| c.peak.load(Ordering::Relaxed))
}

/// Expands to the counting global allocator plus an `install_probe()`
/// helper, for use in a **binary** crate root. One definition here
/// keeps the bench target and the CLI counting identically; the macro
/// form keeps the `unsafe impl GlobalAlloc` out of this library, which
/// forbids unsafe code.
#[macro_export]
macro_rules! counting_allocator {
    () => {
        static HEAP_COUNTERS: $crate::alloc_probe::HeapCounters =
            $crate::alloc_probe::HeapCounters::new();

        struct CountingAlloc;

        // SAFETY: defers every operation to the system allocator
        // unchanged; the counter updates are pure side effects.
        unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
                let ptr = std::alloc::System.alloc(layout);
                if !ptr.is_null() {
                    HEAP_COUNTERS.on_alloc(layout.size());
                }
                ptr
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
                HEAP_COUNTERS.on_dealloc(layout.size());
                std::alloc::System.dealloc(ptr, layout)
            }
            unsafe fn realloc(
                &self,
                ptr: *mut u8,
                layout: std::alloc::Layout,
                new_size: usize,
            ) -> *mut u8 {
                let new_ptr = std::alloc::System.realloc(ptr, layout, new_size);
                if !new_ptr.is_null() {
                    HEAP_COUNTERS.on_realloc(layout.size(), new_size);
                }
                new_ptr
            }
            unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
                let ptr = std::alloc::System.alloc_zeroed(layout);
                if !ptr.is_null() {
                    HEAP_COUNTERS.on_alloc(layout.size());
                }
                ptr
            }
        }

        #[global_allocator]
        static GLOBAL_COUNTING_ALLOC: CountingAlloc = CountingAlloc;

        /// Registers the allocator's counters with
        /// [`neomem_bench::alloc_probe`]. Call first thing in `main`.
        fn install_probe() {
            $crate::alloc_probe::install(&HEAP_COUNTERS);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registered probe is process-global, and the library never
    // installs one itself, so install/readback is covered by the
    // micro_engine bench target; the counters themselves are plain
    // values and tested here.
    #[test]
    fn probe_api_is_callable() {
        let _ = (count(), reset_peak(), peak_live_bytes());
    }

    #[test]
    fn counters_track_live_bytes_and_their_peak() {
        let c = HeapCounters::new();
        c.on_alloc(100);
        c.on_realloc(100, 250);
        c.on_dealloc(250);
        c.on_alloc(40);
        c.on_realloc(40, 10);
        assert_eq!(c.allocations.load(Ordering::Relaxed), 4);
        assert_eq!(c.live.load(Ordering::Relaxed), 10);
        assert_eq!(c.peak.load(Ordering::Relaxed), 250);
    }
}
