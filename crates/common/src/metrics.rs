//! Thread-local operation counters.
//!
//! Wall-clock time is noisy and machine dependent; the benchmark harness
//! additionally reports *work* counters (trie seeks, count-index probes,
//! dictionary lookups) so that the scaling shapes claimed by the paper can be
//! verified independently of the host. Counting uses plain `Cell`s in
//! thread-local storage and costs a few nanoseconds per increment; the
//! counters sit on the *search* side of the algorithms, whose per-step cost
//! already includes a binary search. The emit path itself counts nothing:
//! an answer count is the sink's to keep.

use std::cell::Cell;

thread_local! {
    static TRIE_SEEKS: Cell<u64> = const { Cell::new(0) };
    static COUNT_PROBES: Cell<u64> = const { Cell::new(0) };
    static DICT_LOOKUPS: Cell<u64> = const { Cell::new(0) };
    static BUILD_SORT_NS: Cell<u64> = const { Cell::new(0) };
    static BUILD_INDEX_NS: Cell<u64> = const { Cell::new(0) };
    static BUILD_DICT_NS: Cell<u64> = const { Cell::new(0) };
    static BUILD_LP_NS: Cell<u64> = const { Cell::new(0) };
}

/// A snapshot of all counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Number of trie cursor seek/next operations performed by joins.
    pub trie_seeks: u64,
    /// Number of range-count probes against sorted indexes.
    pub count_probes: u64,
    /// Number of heavy-pair dictionary lookups.
    pub dict_lookups: u64,
}

impl MetricsSnapshot {
    /// Componentwise difference `self - earlier`, saturating at zero.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            trie_seeks: self.trie_seeks.saturating_sub(earlier.trie_seeks),
            count_probes: self.count_probes.saturating_sub(earlier.count_probes),
            dict_lookups: self.dict_lookups.saturating_sub(earlier.dict_lookups),
        }
    }

    /// Total work units (the sum of the three counters).
    pub fn work(&self) -> u64 {
        self.trie_seeks + self.count_probes + self.dict_lookups
    }
}

/// Records `n` trie seek operations.
#[inline]
pub fn record_trie_seeks(n: u64) {
    TRIE_SEEKS.with(|c| c.set(c.get() + n));
}

/// Records a count-index probe.
#[inline]
pub fn record_count_probe() {
    COUNT_PROBES.with(|c| c.set(c.get() + 1));
}

/// Records a dictionary lookup.
#[inline]
pub fn record_dict_lookup() {
    DICT_LOOKUPS.with(|c| c.set(c.get() + 1));
}

/// One phase of representation construction, for the build-time breakdown
/// the benchmark reports as `core.build.*_ms` and `lp.solve_ms`. Phases are
/// coarse on purpose: they answer "where does a register go" (the
/// preprocessing cost the paper's §4.3 analysis budgets), not per-call
/// microtimings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildPhase {
    /// Row-permutation sorting inside index/relation construction.
    Sort,
    /// Gathering/emitting sorted index columns (everything in an index
    /// build that is not the sort itself).
    Index,
    /// Heavy-pair dictionary construction (Appendix A).
    Dictionary,
    /// LP and width-search solves (MinDelayCover/MinSpaceCover/ρ⁺ — the
    /// strategy-selection and cover-construction programs of §6).
    Lp,
}

/// Cumulative per-thread build-phase wall times, in nanoseconds.
///
/// Like the work counters these are thread-local: a build that runs on one
/// thread (the engine's register path) reads its own phases exactly; a
/// parallel sharded build accumulates each shard's phases on that shard's
/// thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildPhaseSnapshot {
    /// Permutation-sort time inside index and relation construction.
    pub sort_ns: u64,
    /// Column gather/emit time of index builds (excluding the sort).
    pub index_ns: u64,
    /// Heavy-pair dictionary construction time.
    pub dict_ns: u64,
    /// LP / width-search solve time.
    pub lp_ns: u64,
}

impl BuildPhaseSnapshot {
    /// Componentwise difference `self - earlier`, saturating at zero.
    pub fn delta_since(&self, earlier: &BuildPhaseSnapshot) -> BuildPhaseSnapshot {
        BuildPhaseSnapshot {
            sort_ns: self.sort_ns.saturating_sub(earlier.sort_ns),
            index_ns: self.index_ns.saturating_sub(earlier.index_ns),
            dict_ns: self.dict_ns.saturating_sub(earlier.dict_ns),
            lp_ns: self.lp_ns.saturating_sub(earlier.lp_ns),
        }
    }

    /// Total attributed build time.
    pub fn total_ns(&self) -> u64 {
        self.sort_ns + self.index_ns + self.dict_ns + self.lp_ns
    }
}

/// Adds `ns` to one build-phase timer. Called a handful of times per
/// representation build (never per answer), so the thread-local add is
/// free relative to the phases themselves.
#[inline]
pub fn record_build_phase(phase: BuildPhase, ns: u64) {
    let cell = match phase {
        BuildPhase::Sort => &BUILD_SORT_NS,
        BuildPhase::Index => &BUILD_INDEX_NS,
        BuildPhase::Dictionary => &BUILD_DICT_NS,
        BuildPhase::Lp => &BUILD_LP_NS,
    };
    cell.with(|c| c.set(c.get() + ns));
}

/// Reads the cumulative build-phase timers of this thread.
pub fn build_phases() -> BuildPhaseSnapshot {
    BuildPhaseSnapshot {
        sort_ns: BUILD_SORT_NS.with(Cell::get),
        index_ns: BUILD_INDEX_NS.with(Cell::get),
        dict_ns: BUILD_DICT_NS.with(Cell::get),
        lp_ns: BUILD_LP_NS.with(Cell::get),
    }
}

/// Reads the current counter values.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        trie_seeks: TRIE_SEEKS.with(Cell::get),
        count_probes: COUNT_PROBES.with(Cell::get),
        dict_lookups: DICT_LOOKUPS.with(Cell::get),
    }
}

/// Adds `work` to this thread's work counters (not its build phases): how
/// a caller takes in what another thread counted for it.
pub fn add(work: &MetricsSnapshot) {
    TRIE_SEEKS.with(|c| c.set(c.get() + work.trie_seeks));
    COUNT_PROBES.with(|c| c.set(c.get() + work.count_probes));
    DICT_LOOKUPS.with(|c| c.set(c.get() + work.dict_lookups));
}

/// Resets all counters of this thread to zero.
pub fn reset() {
    TRIE_SEEKS.with(|c| c.set(0));
    COUNT_PROBES.with(|c| c.set(0));
    DICT_LOOKUPS.with(|c| c.set(0));
    BUILD_SORT_NS.with(|c| c.set(0));
    BUILD_INDEX_NS.with(|c| c.set(0));
    BUILD_DICT_NS.with(|c| c.set(0));
    BUILD_LP_NS.with(|c| c.set(0));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        reset();
        record_trie_seeks(3);
        record_count_probe();
        record_dict_lookup();
        record_dict_lookup();
        let s = snapshot();
        assert_eq!(s.trie_seeks, 3);
        assert_eq!(s.count_probes, 1);
        assert_eq!(s.dict_lookups, 2);
        assert_eq!(s.work(), 6);
        reset();
        assert_eq!(snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn build_phase_timers_accumulate_and_reset() {
        reset();
        record_build_phase(BuildPhase::Sort, 5);
        record_build_phase(BuildPhase::Sort, 7);
        record_build_phase(BuildPhase::Index, 3);
        record_build_phase(BuildPhase::Dictionary, 11);
        record_build_phase(BuildPhase::Lp, 2);
        let p = build_phases();
        assert_eq!(p.sort_ns, 12);
        assert_eq!(p.index_ns, 3);
        assert_eq!(p.dict_ns, 11);
        assert_eq!(p.lp_ns, 2);
        assert_eq!(p.total_ns(), 28);
        let later = {
            record_build_phase(BuildPhase::Sort, 8);
            build_phases()
        };
        assert_eq!(later.delta_since(&p).sort_ns, 8);
        assert_eq!(later.delta_since(&p).dict_ns, 0);
        reset();
        assert_eq!(build_phases(), BuildPhaseSnapshot::default());
    }

    #[test]
    fn add_takes_in_work_counted_elsewhere() {
        reset();
        record_trie_seeks(2);
        add(&MetricsSnapshot {
            trie_seeks: 3,
            count_probes: 4,
            dict_lookups: 5,
        });
        assert_eq!(
            snapshot(),
            MetricsSnapshot {
                trie_seeks: 5,
                count_probes: 4,
                dict_lookups: 5,
            }
        );
    }

    #[test]
    fn delta_since_subtracts() {
        reset();
        record_trie_seeks(5);
        let a = snapshot();
        record_trie_seeks(7);
        let b = snapshot();
        assert_eq!(b.delta_since(&a).trie_seeks, 7);
    }
}
