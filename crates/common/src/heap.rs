//! Deterministic heap-space accounting.
//!
//! The paper's central tradeoff is *space* versus delay, so the benchmark
//! harness must measure the size `S` of each compressed representation. We
//! account space deterministically (summing the capacities of owned buffers)
//! rather than asking the allocator, so that measurements are reproducible
//! across hosts and allocators.

/// Types that can report the heap bytes they own.
///
/// Implementations report *owned heap allocations only* — the inline size of
/// the value itself is excluded (callers add `size_of::<T>()` if they own the
/// value inline). Capacities, not lengths, are counted: over-allocation is
/// real memory.
pub trait HeapSize {
    /// Number of heap bytes owned by `self`.
    fn heap_bytes(&self) -> usize;
}

impl<T: Copy> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// A boxed slice has no spare capacity: its length is its allocation.
impl<T: Copy> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&**self)
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

/// Heap bytes of a `Vec` of heap-owning values: buffer plus the transitive
/// allocations of each element.
pub fn vec_deep_bytes<T: HeapSize>(v: &[T]) -> usize {
    std::mem::size_of_val(v) + v.iter().map(HeapSize::heap_bytes).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_counts_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(16);
        v.push(1);
        assert_eq!(v.heap_bytes(), 16 * 8);
    }

    #[test]
    fn boxed_slice_counts_its_length() {
        let mut v: Vec<u32> = Vec::with_capacity(16);
        v.extend([1, 2, 3]);
        assert_eq!(v.into_boxed_slice().heap_bytes(), 3 * 4);
    }

    #[test]
    fn nested_vectors_count_transitively() {
        let v: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![4]];
        let inner: usize = v.iter().map(|x| x.heap_bytes()).sum();
        assert_eq!(
            vec_deep_bytes(&v),
            2 * std::mem::size_of::<Vec<u64>>() + inner
        );
    }

    #[test]
    fn option_and_string() {
        let s = String::from("hello");
        assert!(s.heap_bytes() >= 5);
        let o: Option<String> = None;
        assert_eq!(o.heap_bytes(), 0);
    }
}
