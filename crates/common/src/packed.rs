//! Fixed-width bit-packed integer columns.
//!
//! Every integer column a compressed representation owns — a tree's split
//! points and child ids, a dictionary's candidate values, CSR offsets and
//! candidate ids, a bag's keys, offsets, free-column ranks and domains —
//! is bounded by a number known when it is built: a grid size, a node
//! count, an entry count, a column's distinct count. [`Packed`] stores such
//! a column at the width its largest value needs, `⌈log₂(max + 1)⌉` bits
//! (at least 1), back to back in little-endian `u64` words.
//!
//! The column is immutable: it is built once from its values and then
//! only read. A read is one unaligned 8-byte load at the value's first
//! byte, a shift and a mask. For that one window to hold every value, a
//! value may start at most 7 bits into its first byte and end inside the
//! window: widths up to 57 bits always do, and a column wider than that is
//! stored at 64 bits, one word a value (see [`width_for`]). The words are a
//! boxed slice, so [`HeapSize::heap_bytes`] is exactly
//! `⌈len · width / 64⌉ · 8` — the layout is its own accounting.

use crate::heap::HeapSize;

/// An immutable column of unsigned integers, each stored in `width` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packed {
    /// Little-endian `u64` words, as bytes so a read can take the 8-byte
    /// window at any byte.
    bytes: Box<[u8]>,
    len: usize,
    /// `width` low bits set.
    mask: u64,
    /// Bits per value: `1..=57` or `64`.
    width: u32,
}

/// The widest value an 8-byte window at the value's first byte always
/// holds (the value may start 7 bits into that byte).
const WINDOW_BITS: u32 = 57;

impl Default for Packed {
    /// The empty column (width 1, no words).
    fn default() -> Packed {
        Packed::from_slice(&[])
    }
}

/// The width a column whose largest value is `max` is stored at:
/// `⌈log₂(max + 1)⌉` bits, at least 1, and 64 — a whole word — above 57.
pub fn width_for(max: u64) -> u32 {
    match (u64::BITS - max.leading_zeros()).max(1) {
        w if w > WINDOW_BITS => u64::BITS,
        w => w,
    }
}

/// Heap bytes of a column of `len` values at `width` bits each.
fn bytes_for(len: usize, width: u32) -> usize {
    (len * width as usize).div_ceil(64) * 8
}

impl Packed {
    /// Packs `values` at the width of their maximum. The iterator is
    /// walked twice: once for the maximum, once to store.
    pub fn new<I>(values: I) -> Packed
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let (len, max) = values
            .clone()
            .fold((0usize, 0u64), |(n, m), v| (n + 1, m.max(v)));
        let width = width_for(max);
        let mut words = vec![0u64; bytes_for(len, width) / 8];
        for (i, v) in values.enumerate() {
            let bit = i * width as usize;
            let (k, off) = (bit / 64, bit % 64);
            words[k] |= v << off;
            if off + width as usize > 64 {
                words[k + 1] |= v >> (64 - off);
            }
        }
        Packed {
            bytes: words.iter().flat_map(|w| w.to_le_bytes()).collect(),
            len,
            mask: u64::MAX >> (64 - width),
            width,
        }
    }

    /// Packs a slice at the width of its maximum.
    pub fn from_slice(values: &[u64]) -> Packed {
        Packed::new(values.iter().copied())
    }

    /// The `i`-th value.
    ///
    /// `i` must be below [`Packed::len`] (debug builds check): past the
    /// last word this panics, before it the zero padding reads as 0.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of a column of {}", self.len);
        let bit = i * self.width as usize;
        let at = bit / 8;
        let window = match self.bytes.get(at..at + 8) {
            Some(window) => u64::from_le_bytes(window.try_into().expect("8 bytes")),
            None => self.last_window(bit),
        };
        (window >> (bit % 8)) & self.mask
    }

    /// The window of a value in the column's last 7 bytes, where the one
    /// at its first byte would run past the end: the last 8 bytes, shifted
    /// so the value starts where [`Packed::get`] expects it.
    #[cold]
    #[inline(never)]
    fn last_window(&self, bit: usize) -> u64 {
        let at = self.bytes.len() - 8;
        let window: [u8; 8] = self.bytes[at..].try_into().expect("8 bytes");
        u64::from_le_bytes(window) >> (bit - 8 * at - bit % 8)
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the column holds no value.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per value.
    pub fn width(&self) -> u32 {
        self.width
    }
}

impl HeapSize for Packed {
    fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: a seeded stream for the property tests.
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    fn check(values: &[u64]) {
        let p = Packed::from_slice(values);
        let max = values.iter().copied().max().unwrap_or(0);
        assert_eq!(p.len(), values.len());
        assert_eq!(p.width(), width_for(max));
        assert_eq!(p.heap_bytes(), bytes_for(values.len(), p.width()));
        assert!((0..p.len()).map(|i| p.get(i)).eq(values.iter().copied()));
    }

    #[test]
    fn width_is_the_bit_length_of_the_maximum() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 2);
        assert_eq!(width_for(255), 8);
        assert_eq!(width_for(256), 9);
        assert_eq!(width_for(u64::MAX), 64);
        for w in 1..=57u32 {
            let max = u64::MAX >> (64 - w);
            assert_eq!(width_for(max), w);
            if w < 57 {
                assert_eq!(width_for(max + 1), w + 1);
            }
        }
        // Past one window's reach a value takes a whole word.
        for w in 58..=64u32 {
            assert_eq!(width_for(u64::MAX >> (64 - w)), 64);
        }
    }

    #[test]
    fn the_empty_column_owns_nothing() {
        let p = Packed::from_slice(&[]);
        assert_eq!((p.len(), p.width(), p.heap_bytes()), (0, 1, 0));
        assert!(p.is_empty());
        assert_eq!(p, Packed::default());
    }

    #[test]
    #[should_panic]
    fn reading_past_the_last_word_panics() {
        Packed::from_slice(&[1, 2, 3]).get(64);
    }

    #[test]
    fn all_zero_and_all_max_columns() {
        for len in [1, 63, 64, 65, 200] {
            let zeros = vec![0u64; len];
            check(&zeros);
            assert_eq!(
                Packed::from_slice(&zeros).heap_bytes(),
                len.div_ceil(64) * 8
            );
            let ones = vec![u64::MAX; len];
            check(&ones);
            assert_eq!(Packed::from_slice(&ones).heap_bytes(), 8 * len);
        }
    }

    /// Every width 1..=64 (58..=63 stored at 64), at lengths around word
    /// boundaries (for each width, lengths whose last value ends just
    /// before, on and just after a word edge), with random values whose
    /// maximum is exactly that width's largest value — so every value
    /// straddling two words and every value ending on a word edge is read
    /// back.
    #[test]
    fn every_width_round_trips_across_word_boundaries() {
        let mut next = stream(28);
        for w in 1..=64u32 {
            let max = u64::MAX >> (64 - w);
            let edge = 64 / w as usize;
            let mut lengths = vec![1, 2, 3, 7, 64, 65, 127, 128, 129, 1000];
            lengths.extend([edge.saturating_sub(1), edge, edge + 1, 2 * edge + 1]);
            for len in lengths.into_iter().filter(|&n| n > 0) {
                let mut values: Vec<u64> = (0..len).map(|_| next() & max).collect();
                values[next() as usize % len] = max;
                check(&values);
                let p = Packed::from_slice(&values);
                let stored = if w > 57 { 64 } else { w };
                assert_eq!(p.width(), stored, "w={w} len={len}");
                assert_eq!(p.heap_bytes(), (len * stored as usize).div_ceil(64) * 8);
            }
        }
    }

    /// Every length up to three words at every window width: the values
    /// in a column's last 7 bytes are read through the last window.
    #[test]
    fn every_short_length_round_trips() {
        let mut next = stream(3);
        for w in 1..=57u32 {
            for len in 1..=(3 * 64 / w as usize + 1) {
                let values: Vec<u64> = (0..len).map(|_| next() >> (64 - w)).collect();
                check(&values);
            }
        }
    }

    /// Random lengths, random widths, values spread over the whole width.
    #[test]
    fn random_columns_round_trip() {
        let mut next = stream(7);
        for _ in 0..500 {
            let w = 1 + (next() % 64) as u32;
            let len = (next() % 300) as usize;
            let values: Vec<u64> = (0..len).map(|_| next() >> (64 - w)).collect();
            check(&values);
        }
    }

    #[test]
    fn new_and_from_slice_agree() {
        let values: Vec<u64> = (0..100).map(|i| i * 37 % 101).collect();
        assert_eq!(
            Packed::new(values.iter().copied()),
            Packed::from_slice(&values)
        );
        assert_eq!(Packed::new(0..100u64).width(), 7);
    }
}
