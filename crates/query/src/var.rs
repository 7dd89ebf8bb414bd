//! Query variables and variable sets.

use std::fmt;

/// A query variable, identified by its index in the owning query's variable
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The variable's index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A set of query variables as a 64-bit mask.
///
/// Conjunctive queries in this workspace are limited to 64 variables; the
/// paper's data complexity setting treats the query as constant-size, and
/// every workload here uses at most a dozen variables. Every method that
/// takes a [`Var`] panics, in release builds too, when its index is 64 or
/// more: the shift would wrap (`1 << 64` is `1` there) and name `v0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct VarSet(pub u64);

impl VarSet {
    /// The empty set.
    pub const EMPTY: VarSet = VarSet(0);

    /// A singleton set.
    #[inline]
    pub fn singleton(v: Var) -> VarSet {
        assert!(v.0 < 64, "a VarSet holds variables v0..v63, not {v}");
        VarSet(1u64 << v.0)
    }

    /// Set of the first `n` variables `{v0, …, v_{n-1}}`.
    #[inline]
    pub fn first_n(n: usize) -> VarSet {
        assert!(n <= 64);
        if n == 64 {
            VarSet(u64::MAX)
        } else {
            VarSet((1u64 << n) - 1)
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(self, v: Var) -> bool {
        assert!(v.0 < 64, "a VarSet holds variables v0..v63, not {v}");
        self.0 & (1u64 << v.0) != 0
    }

    /// Inserts a variable (returns the new set).
    #[inline]
    pub fn with(self, v: Var) -> VarSet {
        assert!(v.0 < 64, "a VarSet holds variables v0..v63, not {v}");
        VarSet(self.0 | (1u64 << v.0))
    }

    /// Removes a variable (returns the new set).
    #[inline]
    pub fn without(self, v: Var) -> VarSet {
        assert!(v.0 < 64, "a VarSet holds variables v0..v63, not {v}");
        VarSet(self.0 & !(1u64 << v.0))
    }

    /// Set union.
    #[inline]
    pub fn union(self, other: VarSet) -> VarSet {
        VarSet(self.0 | other.0)
    }

    /// Set intersection.
    #[inline]
    pub fn intersect(self, other: VarSet) -> VarSet {
        VarSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    pub fn minus(self, other: VarSet) -> VarSet {
        VarSet(self.0 & !other.0)
    }

    /// `true` if `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(self, other: VarSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// `true` if the sets share no variable.
    #[inline]
    pub fn is_disjoint(self, other: VarSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Number of variables in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` if empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over members in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = Var> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros();
                bits &= bits - 1;
                Some(Var(i))
            }
        })
    }
}

impl FromIterator<Var> for VarSet {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> VarSet {
        let mut s = VarSet::EMPTY;
        for v in iter {
            s = s.with(v);
        }
        s
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for v in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_set_algebra() {
        let a: VarSet = [Var(0), Var(2), Var(5)].into_iter().collect();
        let b: VarSet = [Var(2), Var(3)].into_iter().collect();
        assert_eq!(a.len(), 3);
        assert!(a.contains(Var(2)));
        assert!(!a.contains(Var(1)));
        assert_eq!(a.intersect(b), VarSet::singleton(Var(2)));
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.minus(b), [Var(0), Var(5)].into_iter().collect());
        assert!(VarSet::singleton(Var(2)).is_subset_of(a));
        assert!(!a.is_subset_of(b));
        assert!(a.minus(b).is_disjoint(b));
    }

    #[test]
    fn iter_in_order() {
        let s: VarSet = [Var(5), Var(0), Var(63)].into_iter().collect();
        let got: Vec<Var> = s.iter().collect();
        assert_eq!(got, vec![Var(0), Var(5), Var(63)]);
    }

    #[test]
    fn first_n_edges() {
        assert_eq!(VarSet::first_n(0), VarSet::EMPTY);
        assert_eq!(VarSet::first_n(3).len(), 3);
        assert_eq!(VarSet::first_n(64).len(), 64);
    }

    #[test]
    fn with_without_roundtrip() {
        let s = VarSet::EMPTY.with(Var(7)).with(Var(9));
        assert_eq!(s.without(Var(7)), VarSet::singleton(Var(9)));
        assert_eq!(s.without(Var(3)), s);
    }

    // `Var`'s index is public, so a 65th variable can be named. In release
    // the wrapped shift made `singleton(Var(64))` the set `{v0}`.
    #[test]
    #[should_panic(expected = "v0..v63, not v64")]
    fn a_singleton_past_the_mask_panics() {
        let _ = VarSet::singleton(Var(64));
    }

    #[test]
    #[should_panic(expected = "v0..v63, not v64")]
    fn membership_past_the_mask_panics() {
        let _ = VarSet::singleton(Var(0)).contains(Var(64));
    }

    #[test]
    #[should_panic(expected = "v0..v63, not v65")]
    fn inserting_past_the_mask_panics() {
        let _ = VarSet::EMPTY.with(Var(65));
    }

    #[test]
    #[should_panic(expected = "v0..v63, not v64")]
    fn removing_past_the_mask_panics() {
        let _ = VarSet::singleton(Var(0)).without(Var(64));
    }

    #[test]
    fn display_formats() {
        let s: VarSet = [Var(1), Var(3)].into_iter().collect();
        assert_eq!(s.to_string(), "{v1,v3}");
        assert_eq!(VarSet::EMPTY.to_string(), "{}");
    }
}
