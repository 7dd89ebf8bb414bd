//! Flat answer blocks and enumeration sinks.
//!
//! Answers leave a representation one way: the structure calls
//! [`AnswerSink::push`] with a **borrowed** value slice per answer, and the
//! sink decides whether to copy (into a flat block), count, time, or stop.
//! The paper's delay guarantees are about work per answer, not allocations
//! per answer — and when every answer was handed out as a fresh
//! `Vec<Value>`, allocator traffic, not the data structures, dominated the
//! measured delay. So nothing on the answer path allocates per answer:
//!
//! * [`AnswerSink`] — the receiver side.
//! * [`AnswerBlock`] — the standard sink: one arity-strided `Vec<Value>`
//!   holding every answer of an enumeration back to back. Clearing a block
//!   keeps its capacity, so a block reused across requests reaches a
//!   steady state with **zero** heap allocations per answer.
//! * [`ExistsSink`] / [`CountingSink`] / [`FnSink`] — existence probes,
//!   cardinality counts, and ad-hoc closures over the same interface.
//!   Delay is counted work between answers ([`crate::metrics`]), so no
//!   sink reads a clock.
//!
//! [`AnswerBlock::to_tuples`] is the one place owned tuples are made, for
//! comparing a served stream with the naive oracle's `Vec<Tuple>`.

use crate::heap::HeapSize;
use crate::value::{lex_cmp, Tuple, Value};

/// The receiving end of an enumeration.
///
/// Enumerators hand each answer to [`AnswerSink::push`] as a borrowed
/// slice valid only for the duration of the call; the sink copies what it
/// wants to keep. Returning `false` stops the enumeration early (the
/// device behind first-answer probes), and enumerators must not call
/// `push` again after a `false`.
pub trait AnswerSink {
    /// Receives one answer (the free-variable values, enumeration order).
    /// Returns `false` to stop the enumeration.
    fn push(&mut self, tuple: &[Value]) -> bool;
}

/// Mutable references forward, so `&mut dyn AnswerSink` (the
/// object-safe handle the network service layer passes around) satisfies
/// the generic `impl AnswerSink` bounds used throughout the enumerators.
impl<S: AnswerSink + ?Sized> AnswerSink for &mut S {
    #[inline]
    fn push(&mut self, tuple: &[Value]) -> bool {
        (**self).push(tuple)
    }
}

/// A flat, arity-strided block of answers: tuple `i` occupies
/// `values[i * arity .. (i + 1) * arity]`.
///
/// The arity is locked in by the first [`AnswerSink::push`] after
/// construction and re-checked (debug) on every later push;
/// [`AnswerBlock::clear`] keeps both the arity and the allocated capacity,
/// which is what makes reuse across requests allocation-free once the
/// high-water mark is reached. Zero-arity answers (all-bound views emit
/// the empty tuple) are supported: the block then counts answers without
/// storing values.
#[derive(Debug, Clone, Default)]
pub struct AnswerBlock {
    values: Vec<Value>,
    arity: usize,
    len: usize,
}

impl AnswerBlock {
    /// An empty block; the arity is adopted from the first push.
    pub fn new() -> AnswerBlock {
        AnswerBlock::default()
    }

    /// An empty block with pre-reserved capacity for `tuples` answers of
    /// the given arity.
    pub fn with_capacity(arity: usize, tuples: usize) -> AnswerBlock {
        AnswerBlock {
            values: Vec::with_capacity(arity * tuples),
            arity,
            len: 0,
        }
    }

    /// Number of answers held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no answers are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tuple arity (0 until the first push on a fresh block).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Answer `i` as a value slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn get(&self, i: usize) -> &[Value] {
        assert!(
            i < self.len,
            "answer index {i} out of bounds ({})",
            self.len
        );
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// The raw flat value storage (length `len() * arity()`).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Iterates over the answers as value slices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        (0..self.len).map(move |i| {
            // Not `chunks_exact`: arity 0 blocks hold answers without values.
            &self.values[i * self.arity..(i + 1) * self.arity]
        })
    }

    /// Copies the block out into owned tuples, the naive oracle's return
    /// type (one allocation per tuple by construction).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter().map(<[Value]>::to_vec).collect()
    }

    /// Forgets the answers but keeps the arity and the allocated capacity
    /// — the reuse point of the steady-state serve loop.
    pub fn clear(&mut self) {
        self.values.clear();
        self.len = 0;
    }

    /// Resets the block completely (arity unlocked, capacity kept) so it
    /// can be reused for a view of a different arity.
    pub fn reset(&mut self) {
        self.clear();
        self.arity = 0;
    }

    /// Drops every answer past the first `keep` (no-op when `keep >=
    /// len()`). Arity and capacity are kept — this is the failover
    /// rollback point: a resumed stream that turns out to be at the wrong
    /// epoch is cut back to the verified prefix.
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.len {
            return;
        }
        self.values.truncate(keep * self.arity);
        self.len = keep;
    }

    /// Appends `count` answers of the given `arity` from an already-flat
    /// value stream — the decode path for wire chunks, which arrive exactly
    /// in this layout. A fresh (or `reset`) block adopts `arity`; `count`
    /// is explicit so zero-arity chunks (answer counts without values) land
    /// correctly.
    ///
    /// # Panics
    ///
    /// Panics when `flat.len() != count * arity`, or when the block already
    /// holds answers of a different arity.
    pub fn extend_flat(&mut self, arity: usize, count: usize, flat: &[Value]) {
        assert_eq!(
            flat.len(),
            count * arity,
            "flat chunk length {} does not match {count} answers of arity {arity}",
            flat.len()
        );
        if self.len == 0 && self.arity == 0 {
            self.arity = arity;
        }
        assert_eq!(arity, self.arity, "chunk arity changed mid-block");
        self.values.extend_from_slice(flat);
        self.len += count;
    }
}

impl AnswerSink for AnswerBlock {
    #[inline]
    fn push(&mut self, tuple: &[Value]) -> bool {
        if self.len == 0 && self.arity == 0 {
            self.arity = tuple.len();
        }
        // Release too: one answer of another arity would shift every later
        // answer's values by the difference.
        assert_eq!(tuple.len(), self.arity, "answer arity changed mid-block");
        self.values.extend_from_slice(tuple);
        self.len += 1;
        true
    }
}

impl HeapSize for AnswerBlock {
    fn heap_bytes(&self) -> usize {
        self.values.heap_bytes()
    }
}

impl<'b> IntoIterator for &'b AnswerBlock {
    type Item = &'b [Value];
    type IntoIter = BlockIter<'b>;

    fn into_iter(self) -> BlockIter<'b> {
        BlockIter { block: self, i: 0 }
    }
}

/// Iterator over the answers of an [`AnswerBlock`] (borrowed slices).
#[derive(Debug)]
pub struct BlockIter<'b> {
    block: &'b AnswerBlock,
    i: usize,
}

impl<'b> Iterator for BlockIter<'b> {
    type Item = &'b [Value];

    fn next(&mut self) -> Option<&'b [Value]> {
        if self.i >= self.block.len() {
            return None;
        }
        let t = self.block.get(self.i);
        self.i += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.block.len() - self.i;
        (n, Some(n))
    }
}

/// A sink that only records whether any answer arrived, stopping the
/// enumeration at the first one — the first-answer probe of §3.3.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExistsSink {
    /// `true` once an answer has been pushed.
    pub found: bool,
}

impl AnswerSink for ExistsSink {
    #[inline]
    fn push(&mut self, _tuple: &[Value]) -> bool {
        self.found = true;
        false
    }
}

/// A sink that counts answers without retaining them (the measurement
/// path: no copy, no allocation, no early stop).
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingSink {
    /// Number of answers pushed.
    pub count: usize,
}

impl AnswerSink for CountingSink {
    #[inline]
    fn push(&mut self, _tuple: &[Value]) -> bool {
        self.count += 1;
        true
    }
}

/// Adapts a closure `FnMut(&[Value]) -> bool` into a sink.
#[derive(Debug)]
pub struct FnSink<F>(pub F);

impl<F: FnMut(&[Value]) -> bool> AnswerSink for FnSink<F> {
    #[inline]
    fn push(&mut self, tuple: &[Value]) -> bool {
        (self.0)(tuple)
    }
}

/// A reusable `k`-way merge over lexicographically sorted [`AnswerBlock`]s.
///
/// Sharded serving enumerates one block per shard, each in the paper's
/// lexicographic free-variable order; merging them restores the *global*
/// lexicographic enumeration order, so a sharded engine gives the same
/// ordered answer stream a single structure would. `k` (the shard count) is
/// small, so each step is a linear scan over the block cursors rather than
/// a heap — cheaper in practice and allocation-free after the first use.
///
/// The merger is stable across equal tuples (ties go to the lower block
/// index), which makes concatenation semantics deterministic even when the
/// inputs are not disjoint.
#[derive(Debug, Default)]
pub struct BlockMerger {
    cursors: Vec<usize>,
}

impl BlockMerger {
    /// An empty merger (cursor scratch grows to the largest `k` seen).
    pub fn new() -> BlockMerger {
        BlockMerger::default()
    }

    /// Merges `blocks` — each individually sorted in lexicographic order —
    /// into `sink`, preserving global lexicographic order. Returns the
    /// number of tuples pushed; stops early when the sink refuses one.
    pub fn merge_into(&mut self, blocks: &[&AnswerBlock], sink: &mut impl AnswerSink) -> usize {
        // Degenerate shapes the router hits constantly: all inputs empty
        // (a selective request), or exactly one non-empty input (a
        // single-shard view, or a fan-out where only one shard matched).
        // Both skip the per-tuple k-way scan entirely.
        let mut non_empty = blocks.iter().filter(|b| !b.is_empty());
        let Some(first) = non_empty.next() else {
            return 0;
        };
        if non_empty.next().is_none() {
            let mut pushed = 0usize;
            for t in first.iter() {
                pushed += 1;
                if !sink.push(t) {
                    break;
                }
            }
            return pushed;
        }
        self.cursors.clear();
        self.cursors.resize(blocks.len(), 0);
        let mut pushed = 0usize;
        loop {
            let mut best: Option<(usize, &[Value])> = None;
            for (i, block) in blocks.iter().enumerate() {
                if self.cursors[i] >= block.len() {
                    continue;
                }
                let t = block.get(self.cursors[i]);
                match best {
                    Some((_, bt)) if lex_cmp(t, bt) != std::cmp::Ordering::Less => {}
                    _ => best = Some((i, t)),
                }
            }
            let Some((i, t)) = best else { break };
            self.cursors[i] += 1;
            pushed += 1;
            if !sink.push(t) {
                break;
            }
        }
        pushed
    }

    /// Concatenates `blocks` into `sink` in block order, without reordering
    /// — the cheap path when the caller does not need the merged
    /// lexicographic order. Returns the number of tuples pushed.
    pub fn concat_into(blocks: &[&AnswerBlock], sink: &mut impl AnswerSink) -> usize {
        let mut pushed = 0usize;
        for block in blocks {
            for t in block.iter() {
                pushed += 1;
                if !sink.push(t) {
                    return pushed;
                }
            }
        }
        pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An answer of another arity would misalign every later one: `push`
    /// panics, in release builds too.
    #[test]
    #[should_panic(expected = "answer arity changed mid-block")]
    fn pushing_another_arity_panics() {
        let mut b = AnswerBlock::new();
        b.push(&[1, 2]);
        b.push(&[1, 2, 3]);
    }

    #[test]
    fn block_strides_by_arity() {
        let mut b = AnswerBlock::new();
        assert!(b.push(&[1, 2]));
        assert!(b.push(&[3, 4]));
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.get(0), &[1, 2]);
        assert_eq!(b.get(1), &[3, 4]);
        assert_eq!(b.values(), &[1, 2, 3, 4]);
        assert_eq!(b.to_tuples(), vec![vec![1, 2], vec![3, 4]]);
        let collected: Vec<&[Value]> = b.iter().collect();
        assert_eq!(collected, vec![&[1, 2][..], &[3, 4]]);
    }

    #[test]
    fn clear_keeps_capacity_and_arity() {
        let mut b = AnswerBlock::new();
        for i in 0..100u64 {
            b.push(&[i, i + 1, i + 2]);
        }
        let cap = b.values.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.arity(), 3);
        assert_eq!(b.values.capacity(), cap);
        b.push(&[7, 8, 9]);
        assert_eq!(b.get(0), &[7, 8, 9]);
    }

    #[test]
    fn zero_arity_answers_are_counted() {
        let mut b = AnswerBlock::new();
        assert!(b.push(&[]));
        assert!(b.push(&[]));
        assert_eq!(b.len(), 2);
        assert_eq!(b.arity(), 0);
        assert_eq!(b.to_tuples(), vec![Vec::<Value>::new(), Vec::new()]);
        assert_eq!(b.iter().count(), 2);
    }

    #[test]
    fn reset_unlocks_arity() {
        let mut b = AnswerBlock::new();
        b.push(&[1, 2]);
        b.reset();
        b.push(&[9]);
        assert_eq!(b.arity(), 1);
        assert_eq!(b.get(0), &[9]);
    }

    #[test]
    fn exists_sink_stops_immediately() {
        let mut s = ExistsSink::default();
        assert!(!s.found);
        assert!(!s.push(&[1]));
        assert!(s.found);
    }

    #[test]
    fn counting_and_fn_sinks() {
        let mut c = CountingSink::default();
        assert!(c.push(&[1]));
        assert!(c.push(&[2]));
        assert_eq!(c.count, 2);
        let mut seen = Vec::new();
        let mut f = FnSink(|t: &[Value]| {
            seen.push(t.to_vec());
            seen.len() < 2
        });
        assert!(f.push(&[1]));
        assert!(!f.push(&[2]));
        assert_eq!(seen, vec![vec![1], vec![2]]);
    }

    #[test]
    fn block_into_iter() {
        let mut b = AnswerBlock::new();
        b.push(&[5, 6]);
        let tuples: Vec<&[Value]> = (&b).into_iter().collect();
        assert_eq!(tuples, vec![&[5, 6][..]]);
    }

    fn block_of(tuples: &[&[Value]]) -> AnswerBlock {
        let mut b = AnswerBlock::new();
        for t in tuples {
            b.push(t);
        }
        b
    }

    #[test]
    fn merge_restores_lexicographic_order() {
        let a = block_of(&[&[1, 9], &[3, 0], &[5, 5]]);
        let b = block_of(&[&[0, 2], &[3, 1]]);
        let c = block_of(&[&[2, 2]]);
        let mut out = AnswerBlock::new();
        let mut merger = BlockMerger::new();
        let n = merger.merge_into(&[&a, &b, &c], &mut out);
        assert_eq!(n, 6);
        let got: Vec<&[Value]> = out.iter().collect();
        assert_eq!(
            got,
            vec![&[0, 2][..], &[1, 9], &[2, 2], &[3, 0], &[3, 1], &[5, 5]]
        );
        // The merger is reusable across calls (and across different k).
        let mut out2 = AnswerBlock::new();
        assert_eq!(merger.merge_into(&[&c, &b], &mut out2), 3);
        assert_eq!(out2.get(0), &[0, 2]);
    }

    #[test]
    fn merge_handles_empty_and_ties() {
        let empty = AnswerBlock::new();
        let a = block_of(&[&[1], &[2]]);
        let b = block_of(&[&[1], &[3]]);
        let mut out = AnswerBlock::new();
        let mut merger = BlockMerger::new();
        assert_eq!(merger.merge_into(&[&empty, &a, &b], &mut out), 4);
        let got: Vec<&[Value]> = out.iter().collect();
        // Ties are stable: block index order (a before b).
        assert_eq!(got, vec![&[1][..], &[1], &[2], &[3]]);
        assert_eq!(merger.merge_into(&[&empty], &mut AnswerBlock::new()), 0);
    }

    #[test]
    fn merge_respects_early_stop() {
        let a = block_of(&[&[1], &[4]]);
        let b = block_of(&[&[2], &[3]]);
        let mut probe = ExistsSink::default();
        let mut merger = BlockMerger::new();
        assert_eq!(merger.merge_into(&[&a, &b], &mut probe), 1);
        assert!(probe.found);
    }

    #[test]
    fn merge_of_all_empty_blocks_is_empty() {
        let e1 = AnswerBlock::new();
        let e2 = AnswerBlock::new();
        let mut out = AnswerBlock::new();
        let mut merger = BlockMerger::new();
        assert_eq!(merger.merge_into(&[], &mut out), 0);
        assert_eq!(merger.merge_into(&[&e1, &e2], &mut out), 0);
        assert!(out.is_empty());
        // The fast path must not poison later real merges.
        let a = block_of(&[&[2], &[5]]);
        let b = block_of(&[&[1]]);
        assert_eq!(merger.merge_into(&[&a, &b], &mut out), 3);
        assert_eq!(out.get(0), &[1]);
    }

    #[test]
    fn merge_single_nonempty_block_passes_through() {
        let a = block_of(&[&[3, 1], &[4, 1], &[5, 9]]);
        let empty = AnswerBlock::new();
        let mut out = AnswerBlock::new();
        let mut merger = BlockMerger::new();
        let n = merger.merge_into(&[&empty, &a, &empty], &mut out);
        assert_eq!(n, 3);
        let got: Vec<&[Value]> = out.iter().collect();
        assert_eq!(got, vec![&[3, 1][..], &[4, 1], &[5, 9]]);
        // Early stop still honoured on the passthrough path.
        let mut probe = ExistsSink::default();
        assert_eq!(merger.merge_into(&[&a, &empty], &mut probe), 1);
        assert!(probe.found);
    }

    #[test]
    fn extend_flat_decodes_wire_chunks() {
        let mut b = AnswerBlock::new();
        b.extend_flat(2, 2, &[1, 2, 3, 4]);
        b.extend_flat(2, 1, &[5, 6]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(2), &[5, 6]);
        // Zero-arity chunks carry counts without values.
        let mut z = AnswerBlock::new();
        z.extend_flat(0, 4, &[]);
        assert_eq!(z.len(), 4);
        assert_eq!(z.arity(), 0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn extend_flat_rejects_ragged_chunks() {
        AnswerBlock::new().extend_flat(2, 2, &[1, 2, 3]);
    }

    #[test]
    fn mut_ref_sink_forwards() {
        fn fill(sink: &mut dyn AnswerSink) {
            sink.push(&[1]);
            sink.push(&[2]);
        }
        let mut b = AnswerBlock::new();
        fill(&mut b);
        assert_eq!(b.len(), 2);
        // And a `&mut dyn` handle satisfies `impl AnswerSink` bounds.
        let a = block_of(&[&[7]]);
        let mut out = AnswerBlock::new();
        let mut sink: &mut dyn AnswerSink = &mut out;
        assert_eq!(BlockMerger::new().merge_into(&[&a], &mut sink), 1);
        assert_eq!(out.get(0), &[7]);
    }

    #[test]
    fn concat_preserves_block_order() {
        let a = block_of(&[&[9]]);
        let b = block_of(&[&[1]]);
        let mut out = AnswerBlock::new();
        assert_eq!(BlockMerger::concat_into(&[&a, &b], &mut out), 2);
        let got: Vec<&[Value]> = out.iter().collect();
        assert_eq!(got, vec![&[9][..], &[1]]);
    }
}
