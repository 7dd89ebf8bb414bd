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
//!
//! A column that is *searched* — a sorted index's trie column, an active
//! domain — is built with [`Packed::searchable`] instead: its width is
//! rounded up to a whole word size, 8, 16, 32 or 64 bits
//! ([`byte_width_for`]), with the same bytes and the same accounting.
//! [`Packed::lower_bound`], [`Packed::upper_bound`] and [`Packed::gallop`]
//! branch on the width once per call and then run one loop instantiated
//! per word size, each probe a `uN::from_le_bytes` over a fixed-size
//! subslice; a column at any other width runs the same loop through
//! [`Packed::get`]. A gallop reads its first two probes inline first — a
//! leapfrog scan's seek lands there. Searches read the column in place:
//! nothing is unpacked.
//!
//! [`BitColumn`] is the same window over fields of differing widths, for
//! a column whose reader knows each field's position and width.
//!
//! [`RankedBits`] is the one-bit column beside it: bits in `u64` words and
//! a directory of the set bits before each word, so the rank of a
//! position — how many set bits precede it — is one directory read and
//! one popcount. A column whose rows exist only where a bit is set is
//! indexed by that rank.

use crate::heap::HeapSize;
use std::marker::PhantomData;
use std::ops::Range;

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
    /// Bytes per value when `width` is a whole word size (8, 16, 32 or
    /// 64), else 0: what the searches branch on.
    word: u8,
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

/// The width a searched column whose largest value is `max` is stored at:
/// [`width_for`] rounded up to a whole word size, 8, 16, 32 or 64 bits.
pub fn byte_width_for(max: u64) -> u32 {
    width_for(max).next_power_of_two().max(8)
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
        Packed::pack(values, width_for)
    }

    /// Packs `values` for searching: at the whole word size their maximum
    /// fits ([`byte_width_for`]), so [`Packed::lower_bound`] and its
    /// siblings read each probe as one `u8`/`u16`/`u32`/`u64`.
    pub fn searchable<I>(values: I) -> Packed
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        Packed::pack(values, byte_width_for)
    }

    fn pack<I>(values: I, width_of: fn(u64) -> u32) -> Packed
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        let values = values.into_iter();
        let (len, max) = values
            .clone()
            .fold((0usize, 0u64), |(n, m), v| (n + 1, m.max(v)));
        let width = width_of(max);
        let mut bytes = vec![0u8; bytes_for(len, width)].into_boxed_slice();
        match width {
            8 => fill::<u8>(&mut bytes, values),
            16 => fill::<u16>(&mut bytes, values),
            32 => fill::<u32>(&mut bytes, values),
            64 => fill::<u64>(&mut bytes, values),
            _ => {
                let mut words = vec![0u64; bytes.len() / 8];
                for (i, v) in values.enumerate() {
                    let bit = i * width as usize;
                    let (k, off) = (bit / 64, bit % 64);
                    words[k] |= v << off;
                    if off + width as usize > 64 {
                        words[k + 1] |= v >> (64 - off);
                    }
                }
                fill::<u64>(&mut bytes, words.into_iter());
            }
        }
        Packed {
            bytes,
            len,
            mask: u64::MAX >> (64 - width),
            width,
            word: match width {
                8 | 16 | 32 | 64 => (width / 8) as u8,
                _ => 0,
            },
        }
    }

    /// Packs a slice at the width of its maximum.
    pub fn from_slice(values: &[u64]) -> Packed {
        Packed::new(values.iter().copied())
    }

    /// The `i`-th value.
    ///
    /// # Panics
    ///
    /// Panics unless `i` is below [`Packed::len`], in release builds too:
    /// a position past the last value but inside the last word would
    /// otherwise read the zero padding as a value.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of a column of {}", self.len);
        window(&self.bytes, i * self.width as usize) & self.mask
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

    /// The values in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Appends the values at positions `range` to `out`: one sequential
    /// pass over the bytes at a whole word size, [`Packed::get`] per value
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics unless `range` lies inside the column, in release builds
    /// too (checked once per call).
    pub fn decode_into(&self, range: Range<usize>, out: &mut Vec<u64>) {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "{range:?} out of a column of {}",
            self.len
        );
        match self.word {
            1 => decode::<u8>(&self.bytes, range, out),
            2 => decode::<u16>(&self.bytes, range, out),
            4 => decode::<u32>(&self.bytes, range, out),
            8 => decode::<u64>(&self.bytes, range, out),
            _ => out.extend(range.map(|i| self.get(i))),
        }
    }

    /// Panics unless `lo..hi` lies inside the column: the searches check
    /// their range once per call, in release builds too, since a probe
    /// past the last value but inside its word would read the zero
    /// padding as a value.
    #[inline(always)]
    fn check_range(&self, lo: usize, hi: usize) {
        assert!(
            lo <= hi && hi <= self.len,
            "{lo}..{hi} out of a column of {}",
            self.len
        );
    }

    /// The first position in `lo..hi` whose value is `>= key`, or `hi` if
    /// none is; the values in `lo..hi` must be sorted. Plain binary search.
    ///
    /// # Panics
    ///
    /// Panics unless `lo..hi` lies inside the column.
    #[inline]
    pub fn lower_bound(&self, lo: usize, hi: usize, key: u64) -> usize {
        self.check_range(lo, hi);
        self.seek::<LOWER>(lo, hi, key).0
    }

    /// The first position in `lo..hi` whose value is `> key`, or `hi` if
    /// none is; the values in `lo..hi` must be sorted.
    ///
    /// # Panics
    ///
    /// Panics unless `lo..hi` lies inside the column.
    #[inline]
    pub fn upper_bound(&self, lo: usize, hi: usize, key: u64) -> usize {
        self.check_range(lo, hi);
        self.seek::<UPPER>(lo, hi, key).0
    }

    /// [`Packed::lower_bound`] by galloping (exponential) search from
    /// `lo`, with the value found there: `None` when every value in
    /// `lo..hi` is below `key`. `O(log gap)` when the answer is near `lo`
    /// — the access pattern of leapfrog trie-join, each seek advancing a
    /// cursor by a usually small amount, where galloping gives the
    /// amortized-logarithmic bounds of the worst-case-optimal join
    /// analysis.
    ///
    /// Always inlined: a leapfrog scan's seek lands on the first or second
    /// probe (the cursor rests on the previous match), so those two are
    /// read in the caller and only a longer gallop is a call.
    ///
    /// # Panics
    ///
    /// Panics unless `lo..hi` lies inside the column.
    #[inline(always)]
    pub fn gallop(&self, lo: usize, hi: usize, key: u64) -> Option<(usize, u64)> {
        self.check_range(lo, hi);
        let bytes = &self.bytes[..];
        match self.word {
            1 => gallop_near(Words::<u8>(bytes, PhantomData), self, lo, hi, key),
            2 => gallop_near(Words::<u16>(bytes, PhantomData), self, lo, hi, key),
            4 => gallop_near(Words::<u32>(bytes, PhantomData), self, lo, hi, key),
            8 => gallop_near(Words::<u64>(bytes, PhantomData), self, lo, hi, key),
            _ => gallop_near(self, self, lo, hi, key),
        }
    }

    /// The search loop of a gallop its first two probes did not settle.
    #[inline(never)]
    fn gallop_on(&self, lo: usize, hi: usize, key: u64) -> (usize, u64) {
        self.seek::<GALLOP>(lo, hi, key)
    }

    /// The one branch on the width: a whole word size reads its probes as
    /// `uN`, any other width through [`Packed::get`]. The caller has
    /// checked the range.
    #[inline(always)]
    fn seek<const HOW: u8>(&self, lo: usize, hi: usize, key: u64) -> (usize, u64) {
        let bytes = &self.bytes[..];
        match self.word {
            1 => seek::<_, HOW>(Words::<u8>(bytes, PhantomData), lo, hi, key),
            2 => seek::<_, HOW>(Words::<u16>(bytes, PhantomData), lo, hi, key),
            4 => seek::<_, HOW>(Words::<u32>(bytes, PhantomData), lo, hi, key),
            8 => seek::<_, HOW>(Words::<u64>(bytes, PhantomData), lo, hi, key),
            _ => seek::<_, HOW>(self, lo, hi, key),
        }
    }
}

/// Which search [`Packed::seek`] runs: a const parameter, so each
/// instance is one loop.
const LOWER: u8 = 0;
const UPPER: u8 = 1;
const GALLOP: u8 = 2;

/// A column read in place, by position.
trait Column: Copy {
    fn at(self, i: usize) -> u64;
}

/// A whole word size a column may be stored at: `u8`, `u16`, `u32` or
/// `u64`, little-endian.
trait Word: Copy {
    const BYTES: usize;
    /// The value in `bytes`, exactly [`Word::BYTES`] long.
    fn read(bytes: &[u8]) -> u64;
    /// Stores `v` (which fits) into `bytes`, exactly [`Word::BYTES`] long.
    fn write(v: u64, bytes: &mut [u8]);
}

macro_rules! word {
    ($($w:ty),*) => {$(
        impl Word for $w {
            const BYTES: usize = std::mem::size_of::<$w>();
            #[inline(always)]
            fn read(bytes: &[u8]) -> u64 {
                <$w>::from_le_bytes(bytes.try_into().expect("one word")) as u64
            }
            #[inline(always)]
            fn write(v: u64, bytes: &mut [u8]) {
                bytes.copy_from_slice(&(v as $w).to_le_bytes());
            }
        }
    )*};
}
word!(u8, u16, u32, u64);

/// A column of whole `W` words, back to back.
#[derive(Clone, Copy)]
struct Words<'a, W>(&'a [u8], PhantomData<W>);

impl<W: Word> Column for Words<'_, W> {
    #[inline(always)]
    fn at(self, i: usize) -> u64 {
        W::read(&self.0[i * W::BYTES..(i + 1) * W::BYTES])
    }
}

/// Stores `values` as whole `W` words from the start of `bytes`.
fn fill<W: Word>(bytes: &mut [u8], values: impl Iterator<Item = u64>) {
    for (at, v) in bytes.chunks_exact_mut(W::BYTES).zip(values) {
        W::write(v, at);
    }
}

/// Appends the whole `W` words at positions `range` of `bytes` to `out`.
fn decode<W: Word>(bytes: &[u8], range: Range<usize>, out: &mut Vec<u64>) {
    let words = &bytes[range.start * W::BYTES..range.end * W::BYTES];
    out.extend(words.chunks_exact(W::BYTES).map(W::read));
}

impl Column for &Packed {
    #[inline(always)]
    fn at(self, i: usize) -> u64 {
        self.get(i)
    }
}

/// [`Packed::gallop`] on one [`Column`]: two probes, then the loop.
#[inline(always)]
fn gallop_near<C: Column>(
    col: C,
    p: &Packed,
    lo: usize,
    hi: usize,
    key: u64,
) -> Option<(usize, u64)> {
    for pos in lo..hi.min(lo + 2) {
        let value = col.at(pos);
        if value >= key {
            return Some((pos, value));
        }
    }
    if lo + 2 >= hi {
        return None;
    }
    let (pos, value) = p.gallop_on(lo + 2, hi, key);
    (pos < hi).then_some((pos, value))
}

/// The search loops, one instance per [`Column`] and search: the
/// position found and, for a gallop that lands inside the range, the value
/// there (0 otherwise).
#[inline(always)]
fn seek<C: Column, const HOW: u8>(col: C, lo: usize, hi: usize, key: u64) -> (usize, u64) {
    match HOW {
        LOWER => (partition(col, lo, hi, |v| v < key), 0),
        UPPER => (partition(col, lo, hi, |v| v <= key), 0),
        _ => {
            if lo >= hi {
                return (lo, 0);
            }
            let first = col.at(lo);
            if first >= key {
                return (lo, first);
            }
            // Invariant: the value at lo + step/2 is below key.
            let mut step = 1usize;
            while lo + step < hi && col.at(lo + step) < key {
                step <<= 1;
            }
            let pos = partition(col, lo + step / 2 + 1, (lo + step + 1).min(hi), |v| v < key);
            (pos, if pos < hi { col.at(pos) } else { 0 })
        }
    }
}

/// The first position in `lo..hi` whose value fails `below` (which holds
/// on a prefix of the range), or `hi`.
#[inline(always)]
fn partition<C: Column>(
    col: C,
    mut lo: usize,
    mut hi: usize,
    below: impl Fn(u64) -> bool,
) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(col.at(mid)) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The 8 bytes from `bit`'s byte on, little-endian, shifted so that `bit`
/// is the lowest: a field of up to [`WINDOW_BITS`] bits starting at `bit`
/// lies in its low bits. `bytes` is whole words, so a field in the last 7
/// bytes, whose window would run past the end, reads the last 8.
#[inline]
fn window(bytes: &[u8], bit: usize) -> u64 {
    let at = bit / 8;
    match bytes.get(at..at + 8) {
        Some(window) => u64::from_le_bytes(window.try_into().expect("8 bytes")) >> (bit % 8),
        None => last_window(bytes, bit),
    }
}

/// [`window`] for a field in the last 7 bytes: the last 8 bytes, shifted
/// so the field starts at bit 0.
#[cold]
#[inline(never)]
fn last_window(bytes: &[u8], bit: usize) -> u64 {
    let at = bytes.len() - 8;
    let window: [u8; 8] = bytes[at..].try_into().expect("8 bytes");
    u64::from_le_bytes(window) >> (bit - 8 * at)
}

impl HeapSize for Packed {
    fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes()
    }
}

/// An immutable string of bits, built by a [`BitWriter`], read as fields
/// of any width from 0 to 57, each through the same 8-byte window as
/// [`Packed::get`]. It is for a column whose values do not share one
/// width: the reader knows where each field starts and how wide it is (a
/// delay-balanced tree stores its split points at one width per level and
/// coordinate, the widths first).
///
/// The bits are little-endian `u64` words, so [`HeapSize::heap_bytes`] is
/// exactly `⌈len / 64⌉ · 8`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitColumn {
    bytes: Box<[u8]>,
    /// Bits stored.
    len: usize,
}

impl BitColumn {
    /// The `width` bits from bit `bit` on, as a number; 0 for width 0.
    ///
    /// # Panics
    ///
    /// Panics, in release builds too, unless the field lies inside the
    /// column and `width` is at most 57: the bits past the last field in
    /// its word are padding.
    #[inline]
    pub fn bits_at(&self, bit: usize, width: u32) -> u64 {
        assert!(
            width <= WINDOW_BITS && bit + width as usize <= self.len,
            "bits {bit}..{} out of a column of {}",
            bit + width as usize,
            self.len
        );
        if width == 0 {
            return 0;
        }
        window(&self.bytes, bit) & !(u64::MAX << width)
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the column holds no bit.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A [`BitColumn`] under construction: fields appended one at a time, or
/// another writer's bits after its own.
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    words: Vec<u64>,
    len: usize,
}

impl BitWriter {
    /// Appends a `width`-bit field holding `v`; width 0 appends nothing.
    ///
    /// # Panics
    ///
    /// Panics when `width` exceeds 57 bits or `v` does not fit it.
    pub fn push(&mut self, v: u64, width: u32) {
        assert!(
            width <= WINDOW_BITS,
            "a {width}-bit field is wider than a window"
        );
        assert!(v >> width == 0, "{v} does not fit {width} bits");
        if width == 0 {
            return;
        }
        let (k, off) = (self.len / 64, self.len % 64);
        self.words
            .resize((self.len + width as usize).div_ceil(64), 0);
        self.words[k] |= v << off;
        if off + width as usize > 64 {
            self.words[k + 1] |= v >> (64 - off);
        }
        self.len += width as usize;
    }

    /// Appends `other`'s bits after this writer's.
    pub fn append(&mut self, other: &BitWriter) {
        let (whole, rest) = (other.len / 32, other.len % 32);
        for k in 0..whole {
            self.push(other.words[k / 2] >> (32 * (k % 2)) & 0xffff_ffff, 32);
        }
        if rest > 0 {
            let k = whole;
            let tail = other.words[k / 2] >> (32 * (k % 2)) & !(u64::MAX << rest);
            self.push(tail, rest as u32);
        }
    }

    /// Bits written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bit is written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column of the bits written.
    pub fn finish(self) -> BitColumn {
        BitColumn {
            bytes: self.words.iter().flat_map(|w| w.to_le_bytes()).collect(),
            len: self.len,
        }
    }
}

impl HeapSize for BitColumn {
    fn heap_bytes(&self) -> usize {
        self.bytes.heap_bytes()
    }
}

/// An immutable column of bits with a rank directory: [`RankedBits::rank`]
/// counts the set bits before a position in one directory read and one
/// popcount.
///
/// The bits are little-endian `u64` words; the directory holds, per word,
/// the set bits in the words before it, a [`Packed`] column at the width
/// of its largest value. A delay-balanced tree keeps one bit per
/// level-order slot, set at internal nodes, and stores its rows for
/// internal nodes only, indexed by rank; the heavy-pair dictionary keeps
/// two child bits per entry and numbers the entries they name by rank.
#[derive(Debug, Clone)]
pub struct RankedBits {
    words: Box<[u64]>,
    len: usize,
    /// Set bits before each word.
    ranks: Packed,
    /// Set bits in all.
    ones: usize,
}

impl RankedBits {
    /// Stores `bits` in order.
    pub fn new(bits: impl IntoIterator<Item = bool>) -> RankedBits {
        let (mut words, mut len) = (Vec::new(), 0usize);
        for bit in bits {
            if len % 64 == 0 {
                words.push(0u64);
            }
            words[len / 64] |= u64::from(bit) << (len % 64);
            len += 1;
        }
        let mut ones = 0;
        let ranks: Vec<u64> = words
            .iter()
            .map(|w| {
                let before = ones;
                ones += u64::from(w.count_ones());
                before
            })
            .collect();
        RankedBits {
            words: words.into_boxed_slice(),
            len,
            ranks: Packed::from_slice(&ranks),
            ones: ones as usize,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the column holds no bit.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// The `i`-th bit.
    ///
    /// # Panics
    ///
    /// Panics unless `i` is below [`RankedBits::len`], in release builds
    /// too: the bits past the last one in its word are padding.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of a column of {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The set bits before position `i` (`i` may be [`RankedBits::len`]):
    /// one directory read and one masked popcount.
    ///
    /// # Panics
    ///
    /// Panics when `i` is past [`RankedBits::len`].
    #[inline]
    pub fn rank(&self, i: usize) -> usize {
        assert!(i <= self.len, "rank {i} out of a column of {}", self.len);
        match self.words.get(i / 64) {
            Some(&word) => {
                let below = word & ((1u64 << (i % 64)) - 1);
                self.ranks.get(i / 64) as usize + below.count_ones() as usize
            }
            None => self.ones,
        }
    }

    /// The rank of position `i` when its bit is set, `None` when it is
    /// clear.
    ///
    /// # Panics
    ///
    /// Panics unless `i` is below [`RankedBits::len`].
    #[inline]
    pub fn rank_of_set(&self, i: usize) -> Option<usize> {
        self.get(i).then(|| self.rank(i))
    }
}

impl HeapSize for RankedBits {
    fn heap_bytes(&self) -> usize {
        self.words.heap_bytes() + self.ranks.heap_bytes()
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

    /// In release as in debug: only `get`'s assert stands between a read
    /// past the buffer and another value, so `kick-tires.sh` runs this
    /// module under `--release` too.
    #[test]
    #[should_panic]
    fn reading_past_the_last_word_panics() {
        Packed::from_slice(&[1, 2, 3]).get(64);
    }

    /// Past the last value but inside its word the bytes are zero padding:
    /// a read there panics in release too, not returns 0. A trie column
    /// is shorter than the row count, so a row index taken for a node
    /// index lands here.
    #[test]
    #[should_panic(expected = "out of a column of 3")]
    fn reading_the_padding_after_the_last_value_panics() {
        let p = Packed::searchable([1u64, 2, 3]);
        assert_eq!(
            p.heap_bytes(),
            8,
            "all three values and the padding in one word"
        );
        p.get(3);
    }

    /// The searches and `decode_into` check their range once per call, in
    /// release too: on `[1, 2, 3]` — one word, five bytes of padding — an
    /// unchecked build reads `[1, 2, 3, 0, 0]` for positions `0..5`,
    /// `Some((3, 0))` for a gallop over `3..8` and `8` for an upper bound
    /// there.
    #[test]
    #[should_panic(expected = "0..5 out of a column of 3")]
    fn decoding_past_the_last_value_panics() {
        Packed::searchable([1u64, 2, 3]).decode_into(0..5, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "3..8 out of a column of 3")]
    fn galloping_past_the_last_value_panics() {
        Packed::searchable([1u64, 2, 3]).gallop(3, 8, 0);
    }

    #[test]
    #[should_panic(expected = "3..8 out of a column of 3")]
    fn an_upper_bound_past_the_last_value_panics() {
        Packed::searchable([1u64, 2, 3]).upper_bound(3, 8, 0);
    }

    #[test]
    #[should_panic(expected = "3..8 out of a column of 3")]
    fn a_lower_bound_past_the_last_value_panics() {
        Packed::searchable([1u64, 2, 3]).lower_bound(3, 8, 0);
    }

    #[test]
    #[should_panic(expected = "2..1 out of a column of 3")]
    fn a_reversed_range_panics() {
        Packed::searchable([1u64, 2, 3]).lower_bound(2, 1, 0);
    }

    /// `get` and `rank` at every position (and `rank(len)`) against a
    /// naive prefix count, at lengths around word edges, for all-zero,
    /// all-one, alternating and seeded random bits.
    #[test]
    fn ranked_bits_agree_with_a_prefix_count() {
        let mut next = stream(34);
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 4097] {
            let random: Vec<bool> = (0..len).map(|_| next() & 1 == 1).collect();
            let patterns = [
                vec![false; len],
                vec![true; len],
                (0..len).map(|i| i % 2 == 0).collect(),
                random,
            ];
            for bits in patterns {
                let column = RankedBits::new(bits.iter().copied());
                assert_eq!(column.len(), len);
                assert_eq!(column.is_empty(), len == 0);
                let mut before = 0;
                for (i, &bit) in bits.iter().enumerate() {
                    assert_eq!(column.get(i), bit, "len {len} bit {i}");
                    assert_eq!(column.rank(i), before, "len {len} rank {i}");
                    assert_eq!(column.rank_of_set(i), bit.then_some(before));
                    before += usize::from(bit);
                }
                assert_eq!(column.rank(len), before, "len {len}: rank(len)");
                assert_eq!(column.count_ones(), before);
                let words = len.div_ceil(64);
                let directory = bytes_for(words, width_for(before as u64));
                assert!(column.heap_bytes() <= 8 * words + directory);
            }
        }
    }

    /// Past the last bit but inside its word the bits are padding: a read
    /// there panics in release too.
    #[test]
    #[should_panic(expected = "bit 3 out of a column of 3")]
    fn reading_a_bit_past_the_last_panics() {
        RankedBits::new([true, false, true]).get(3);
    }

    #[test]
    #[should_panic(expected = "rank 4 out of a column of 3")]
    fn ranking_past_the_end_panics() {
        RankedBits::new([true, false, true]).rank(4);
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

    /// The column of `fields`, `(value, width)` pairs, back to back.
    fn bit_column(fields: &[(u64, u32)]) -> BitColumn {
        let mut w = BitWriter::default();
        for &(v, width) in fields {
            w.push(v, width);
        }
        w.finish()
    }

    /// Fields of every width 0..=57, in a seeded random order, read back
    /// at their positions — straddling word edges and in the last 7 bytes —
    /// and the column takes `⌈bits / 64⌉` words; a writer appended to
    /// another gives the same column.
    #[test]
    fn bit_column_fields_round_trip_at_every_width() {
        let mut next = stream(43);
        for count in [1usize, 2, 3, 17, 64, 300] {
            let fields: Vec<(u64, u32)> = (0..count)
                .map(|_| {
                    let w = (next() % 58) as u32;
                    (next() & !(u64::MAX << w), w)
                })
                .collect();
            let column = bit_column(&fields);
            let bits: usize = fields.iter().map(|&(_, w)| w as usize).sum();
            assert_eq!(column.len(), bits);
            assert_eq!(column.heap_bytes(), bits.div_ceil(64) * 8);
            let mut at = 0;
            for &(v, w) in &fields {
                assert_eq!(column.bits_at(at, w), v, "{w} bits at {at}");
                at += w as usize;
            }
            // The same fields split between two writers, the second
            // appended to the first, read back the same.
            for split in [0, 1, count / 2, count] {
                let (mut head, mut tail) = (BitWriter::default(), BitWriter::default());
                for &(v, w) in &fields[..split] {
                    head.push(v, w);
                }
                for &(v, w) in &fields[split..] {
                    tail.push(v, w);
                }
                head.append(&tail);
                assert_eq!(head.finish(), column, "{count} fields split at {split}");
            }
        }
        let empty = bit_column(&[(0, 0), (0, 0)]);
        assert!(empty.is_empty());
        assert_eq!((empty.bits_at(0, 0), empty.heap_bytes()), (0, 0));
    }

    /// A field reaching past the last bit reads padding: it panics in
    /// release too.
    #[test]
    #[should_panic(expected = "bits 3..6 out of a column of 5")]
    fn a_field_past_the_last_bit_panics() {
        bit_column(&[(5, 3), (1, 2)]).bits_at(3, 3);
    }

    #[test]
    #[should_panic(expected = "does not fit 2 bits")]
    fn a_value_wider_than_its_field_panics() {
        bit_column(&[(4, 2)]);
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
    fn searchable_widths_are_whole_word_sizes() {
        for (max, width) in [
            (0, 8),
            (255, 8),
            (256, 16),
            (65_535, 16),
            (65_536, 32),
            (u32::MAX as u64, 32),
            (u32::MAX as u64 + 1, 64),
            (u64::MAX, 64),
        ] {
            assert_eq!(byte_width_for(max), width, "max {max}");
            let values = [max / 2, max];
            let p = Packed::searchable(values);
            assert_eq!(p.width(), width);
            assert_eq!(p.heap_bytes(), bytes_for(2, width));
            assert!(p.iter().eq(values));
        }
        assert_eq!(Packed::searchable([]).heap_bytes(), 0);
        // Same values, same bytes whether bit-tight or searchable when the
        // bit length is already a word size.
        let values: Vec<u64> = (0..100).map(|i| i * 600).collect();
        assert_eq!(
            Packed::searchable(values.iter().copied()),
            Packed::from_slice(&values)
        );
    }

    /// The three searches of `p` over `lo..hi`, against
    /// `slice::partition_point` over the same values (a gallop also
    /// returns the value it lands on).
    fn check_searches(p: &Packed, values: &[u64], lo: usize, hi: usize, key: u64) {
        let run = &values[lo..hi];
        let lower = lo + run.partition_point(|&v| v < key);
        let upper = lo + run.partition_point(|&v| v <= key);
        let at = format!("width {} {lo}..{hi} key {key}", p.width());
        assert_eq!(p.lower_bound(lo, hi, key), lower, "lower_bound, {at}");
        assert_eq!(p.upper_bound(lo, hi, key), upper, "upper_bound, {at}");
        let landed = (lower < hi).then(|| (lower, values[lower]));
        assert_eq!(p.gallop(lo, hi, key), landed, "gallop, {at}");
    }

    /// Sorted columns at every whole-byte width and at bit-tight widths
    /// (a 9-bit column straddles its words; a 57- and a 64-bit one read
    /// whole windows), searched over the empty range, single values,
    /// ranges that start and end inside a word, and the whole column,
    /// for keys below, on, between and above the values.
    #[test]
    fn searches_agree_with_partition_point_at_every_width() {
        let mut next = stream(29);
        let widths = [1u32, 3, 8, 9, 13, 16, 17, 32, 33, 57, 64];
        for (class, width) in widths.into_iter().enumerate() {
            let max = u64::MAX >> (64 - width);
            let mut values: Vec<u64> = (0..300).map(|_| next() & max).collect();
            values.push(max);
            values.sort_unstable();
            let columns = [
                Packed::from_slice(&values),
                Packed::searchable(values.iter().copied()),
            ];
            assert_eq!(columns[1].width(), byte_width_for(max));
            let n = values.len();
            let mut ranges = vec![(0, 0), (0, n), (n, n), (0, 1), (n - 1, n), (150, 150)];
            ranges.extend([(1, 7), (5, 64), (63, 65), (100, 229), (7, n - 3)]);
            for _ in 0..20 {
                let a = next() as usize % (n + 1);
                let b = next() as usize % (n + 1);
                ranges.push((a.min(b), a.max(b)));
            }
            for p in &columns {
                assert!(p.iter().eq(values.iter().copied()), "class {class}");
                for &(lo, hi) in &ranges {
                    let mut keys = vec![0, 1, max, max.saturating_sub(1), u64::MAX];
                    for i in [lo, (lo + hi) / 2, hi.saturating_sub(1)]
                        .into_iter()
                        .filter(|&i| i < n)
                    {
                        keys.extend([
                            values[i],
                            values[i].saturating_sub(1),
                            values[i].saturating_add(1),
                        ]);
                    }
                    for key in keys {
                        check_searches(p, &values, lo, hi, key);
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_match_std_partition() {
        let values = [1u64, 3, 3, 3, 7, 9];
        let data = Packed::searchable(values);
        assert_eq!(data.lower_bound(0, data.len(), 0), 0);
        assert_eq!(data.lower_bound(0, data.len(), 3), 1);
        assert_eq!(data.lower_bound(0, data.len(), 4), 4);
        assert_eq!(data.lower_bound(0, data.len(), 10), 6);
        assert_eq!(data.upper_bound(0, data.len(), 3), 4);
        assert_eq!(data.upper_bound(0, data.len(), 9), 6);
        assert_eq!(data.upper_bound(0, data.len(), 0), 0);
    }

    #[test]
    fn bounds_respect_subranges() {
        let data = Packed::searchable([1u64, 3, 3, 3, 7, 9]);
        assert_eq!(data.lower_bound(2, 5, 3), 2);
        assert_eq!(data.upper_bound(2, 5, 3), 4);
        assert_eq!(data.lower_bound(4, 4, 3), 4);
    }

    #[test]
    fn gallop_agrees_with_lower_bound() {
        let data = Packed::searchable((0..1000).map(|i| i * 3));
        for lo in [0usize, 1, 17, 500, 998] {
            for key in [0u64, 1, 2, 3, 100, 1500, 2997, 2998, 5000] {
                let lower = data.lower_bound(lo, data.len(), key);
                assert_eq!(
                    data.gallop(lo, data.len(), key),
                    (lower < data.len()).then(|| (lower, data.get(lower))),
                    "lo={lo} key={key}"
                );
            }
        }
    }

    #[test]
    fn gallop_on_empty_and_single() {
        let data = Packed::searchable([5u64]);
        assert_eq!(data.gallop(0, 0, 3), None);
        assert_eq!(data.gallop(0, 1, 3), Some((0, 5)));
        assert_eq!(data.gallop(0, 1, 5), Some((0, 5)));
        assert_eq!(data.gallop(0, 1, 6), None);
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
