//! A vendored counting allocator for allocation-discipline tests.
//!
//! The flat-block enumeration pipeline claims *zero* heap allocations per
//! answer in steady state. Wall-clock speedups are machine-dependent, so
//! the claim is enforced directly: a binary (the regression tests, the
//! benchmark) installs [`CountingAlloc`] as its `#[global_allocator]`, warms
//! the scratch buffers with one pass, snapshots [`allocations`], runs the
//! measured pass, and asserts the delta is zero.
//!
//! The counter is a single process-wide relaxed atomic: increments cost a
//! few nanoseconds, allocation behaviour is otherwise exactly
//! [`std::alloc::System`], and the count is monotone (deallocations are
//! tracked separately and never decrement it). `realloc` counts as one
//! allocation event — growing a `Vec` past its capacity is precisely the
//! traffic the discipline is meant to catch.
//!
//! This module is the only place in the workspace that uses `unsafe`
//! (implementing [`GlobalAlloc`] requires it); the crate-level lint is
//! `deny(unsafe_code)` with a scoped allow here.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_FREED: AtomicU64 = AtomicU64::new(0);

/// A [`System`]-backed allocator that counts every allocation event.
///
/// Install it in a binary or test crate with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: cqc_common::alloc::CountingAlloc = cqc_common::alloc::CountingAlloc;
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

// SAFETY: every method delegates directly to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates have no effect on allocation
// behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES_ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
        BYTES_FREED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation events (`alloc` + `alloc_zeroed` + `realloc`) since
/// process start. Monotone; 0 forever unless [`CountingAlloc`] is the
/// global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total deallocation events since process start.
pub fn deallocations() -> u64 {
    DEALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes requested across all allocation events (not live bytes).
pub fn bytes_allocated() -> u64 {
    BYTES_ALLOCATED.load(Ordering::Relaxed)
}

/// Bytes currently allocated and not yet freed (requested sizes, so
/// allocator rounding and metadata are excluded). The difference of two
/// reads around a build is what the built value really keeps.
pub fn live_bytes() -> u64 {
    // Read freed first: a concurrent free between the two loads can then
    // only make the result larger, never wrap it below zero.
    let freed = BYTES_FREED.load(Ordering::Relaxed);
    BYTES_ALLOCATED
        .load(Ordering::Relaxed)
        .saturating_sub(freed)
}

/// A snapshot of the allocation counters, for delta measurements around a
/// region of interest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation events at snapshot time.
    pub allocations: u64,
    /// Deallocation events at snapshot time.
    pub deallocations: u64,
    /// Cumulative requested bytes at snapshot time.
    pub bytes: u64,
}

/// Reads the current counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocations: allocations(),
        deallocations: deallocations(),
        bytes: bytes_allocated(),
    }
}

impl AllocSnapshot {
    /// Allocation events since `earlier`.
    pub fn allocations_since(&self, earlier: &AllocSnapshot) -> u64 {
        self.allocations.saturating_sub(earlier.allocations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so the counters are
    // flat — only the arithmetic is testable here. The end-to-end behaviour
    // is exercised by the `cqe` binary and the engine's allocation
    // regression tests, which do install it.
    #[test]
    fn snapshot_delta_arithmetic() {
        let a = AllocSnapshot {
            allocations: 10,
            deallocations: 4,
            bytes: 100,
        };
        let b = AllocSnapshot {
            allocations: 17,
            deallocations: 9,
            bytes: 240,
        };
        assert_eq!(b.allocations_since(&a), 7);
        assert_eq!(a.allocations_since(&b), 0, "saturating");
    }

    #[test]
    fn counters_are_monotone_reads() {
        let s1 = snapshot();
        let s2 = snapshot();
        assert!(s2.allocations >= s1.allocations);
        assert!(s2.deallocations >= s1.deallocations);
    }
}
