//! Tree decompositions with connex validation.

use cqc_common::error::{CqcError, Result};
use cqc_query::{Hypergraph, Var, VarSet};

/// A rooted tree decomposition `(T, (B_t))` of a query hypergraph.
///
/// Node 0 is always the root. For `V_b`-connex decompositions the root bag
/// is exactly the bound set `C` (the Appendix B normalization: every bag
/// contained in `V_b` is merged into a single root bag `t_b`); the root bag
/// may be empty (full-enumeration views, `C = ∅`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeDecomposition {
    bags: Vec<VarSet>,
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
}

impl TreeDecomposition {
    /// Builds a decomposition from bags and parent pointers.
    ///
    /// `parent[i]` must be `None` exactly for node 0, and every parent index
    /// must be smaller than its child (nodes in topological order).
    ///
    /// # Errors
    ///
    /// Fails when the parent structure is not a tree rooted at node 0.
    pub fn new(bags: Vec<VarSet>, parent: Vec<Option<usize>>) -> Result<TreeDecomposition> {
        if bags.is_empty() || bags.len() != parent.len() {
            return Err(CqcError::InvalidDecomposition(
                "need one parent entry per bag and at least one bag".into(),
            ));
        }
        if parent[0].is_some() {
            return Err(CqcError::InvalidDecomposition(
                "node 0 must be the root".into(),
            ));
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); bags.len()];
        for (i, p) in parent.iter().enumerate().skip(1) {
            match p {
                Some(p) if *p < i => children[*p].push(i),
                Some(_) => {
                    return Err(CqcError::InvalidDecomposition(format!(
                        "parent of node {i} must precede it (topological order)"
                    )));
                }
                None => {
                    return Err(CqcError::InvalidDecomposition(format!(
                        "node {i} has no parent but is not the root"
                    )));
                }
            }
        }
        Ok(TreeDecomposition {
            bags,
            parent,
            children,
        })
    }

    /// The root node (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.bags.len()
    }

    /// `true` when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.bags.len() <= 1
    }

    /// The bag of node `t`.
    pub fn bag(&self, t: usize) -> VarSet {
        self.bags[t]
    }

    /// All bags.
    pub fn bags(&self) -> &[VarSet] {
        &self.bags
    }

    /// Parent of `t` (`None` for the root).
    pub fn parent(&self, t: usize) -> Option<usize> {
        self.parent[t]
    }

    /// Children of `t`.
    pub fn children(&self, t: usize) -> &[usize] {
        &self.children[t]
    }

    /// Nodes in pre-order (root first; children in index order).
    pub fn preorder(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack = vec![0usize];
        while let Some(t) = stack.pop() {
            out.push(t);
            for &c in self.children[t].iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Nodes in post-order (children before parents).
    pub fn postorder(&self) -> Vec<usize> {
        let mut pre = self.preorder();
        // Reverse pre-order with reversed child order is a valid post-order
        // for our purposes (children before parents).
        pre.reverse();
        pre
    }

    /// `anc(t)`: the union of the bags of `t`'s strict ancestors (§3.2).
    pub fn anc_vars(&self, t: usize) -> VarSet {
        let mut acc = VarSet::EMPTY;
        let mut cur = self.parent[t];
        while let Some(p) = cur {
            acc = acc.union(self.bags[p]);
            cur = self.parent[p];
        }
        acc
    }

    /// `V_b^t = B_t ∩ anc(t)`: the bag's bound variables in the top-down
    /// traversal.
    pub fn bag_bound(&self, t: usize) -> VarSet {
        self.bags[t].intersect(self.anc_vars(t))
    }

    /// `V_f^t = B_t \ anc(t)`: the bag's free variables.
    pub fn bag_free(&self, t: usize) -> VarSet {
        self.bags[t].minus(self.anc_vars(t))
    }

    /// Validates the two tree-decomposition conditions of §2.1 against `h`:
    /// every edge is contained in some bag, and for each variable the nodes
    /// containing it form a connected subtree.
    pub fn validate(&self, h: &Hypergraph) -> Result<()> {
        for (i, e) in h.edges().iter().enumerate() {
            if !self.bags.iter().any(|b| e.is_subset_of(*b)) {
                return Err(CqcError::InvalidDecomposition(format!(
                    "edge #{i} {e} is contained in no bag"
                )));
            }
        }
        for v in h.all_vars().iter() {
            self.check_connected(v)?;
        }
        Ok(())
    }

    fn check_connected(&self, v: Var) -> Result<()> {
        let holders: Vec<usize> = (0..self.len())
            .filter(|&t| self.bags[t].contains(v))
            .collect();
        if holders.len() <= 1 {
            return Ok(());
        }
        // The nodes containing v are connected iff every holder except the
        // shallowest has a parent that also holds v, OR walking up from each
        // holder through holder-parents reaches a common top holder. Since
        // parents precede children in index order, it suffices that each
        // holder other than the minimal one has its parent in the holder set.
        let top = holders[0];
        for &t in &holders[1..] {
            match self.parent[t] {
                Some(p) if self.bags[p].contains(v) => {}
                _ if t == top => {}
                _ => {
                    return Err(CqcError::InvalidDecomposition(format!(
                        "variable {v} violates the running intersection property at node {t}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Validates the `C`-connex condition (Definition 1) in the normalized
    /// form used throughout: the decomposition is valid for `h` and the root
    /// bag equals `C` exactly.
    pub fn validate_connex(&self, h: &Hypergraph, c: VarSet) -> Result<()> {
        self.validate(h)?;
        if self.bags[0] != c {
            return Err(CqcError::InvalidDecomposition(format!(
                "root bag {} must equal the bound set {}",
                self.bags[0], c
            )));
        }
        for t in 1..self.len() {
            if self.bags[t].is_subset_of(c) {
                return Err(CqcError::InvalidDecomposition(format!(
                    "bag {t} is contained in the bound set; merge it into the root (App. B)"
                )));
            }
        }
        Ok(())
    }

    /// Contracts node `t` into its parent (bags are unioned). Children of
    /// `t` are reattached to the parent. Returns a new decomposition.
    ///
    /// # Panics
    ///
    /// Panics when `t` is the root.
    pub fn merge_into_parent(&self, t: usize) -> TreeDecomposition {
        assert!(t != 0, "cannot merge the root");
        let p = self.parent[t].expect("non-root has a parent");
        let mut bags = Vec::with_capacity(self.len() - 1);
        let mut parent = Vec::with_capacity(self.len() - 1);
        // Old index -> new index.
        let remap: Vec<Option<usize>> = {
            let mut m = Vec::with_capacity(self.len());
            let mut next = 0usize;
            for i in 0..self.len() {
                if i == t {
                    m.push(None);
                } else {
                    m.push(Some(next));
                    next += 1;
                }
            }
            m
        };
        for i in 0..self.len() {
            if i == t {
                continue;
            }
            let bag = if i == p {
                self.bags[p].union(self.bags[t])
            } else {
                self.bags[i]
            };
            bags.push(bag);
            let par = self.parent[i].map(|q| if q == t { p } else { q });
            parent.push(par.map(|q| remap[q].expect("parent not removed")));
        }
        TreeDecomposition::new(bags, parent).expect("merge preserves tree structure")
    }

    /// Removes node `t`, promoting child `ch` into its place: `ch` becomes a
    /// child of `t`'s parent and `t`'s other children become children of
    /// `ch`. Valid (decomposition-preserving) when `bag(t) ⊆ bag(ch)`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is the root or `ch` is not a child of `t`.
    pub fn contract_into_child(&self, t: usize, ch: usize) -> TreeDecomposition {
        assert!(t != 0, "cannot contract the root");
        assert!(self.children[t].contains(&ch), "ch must be a child of t");
        let p = self.parent[t].expect("non-root has a parent");
        let mut bags = Vec::with_capacity(self.len() - 1);
        let mut parent = Vec::with_capacity(self.len() - 1);
        let mut keep: Vec<usize> = Vec::with_capacity(self.len() - 1);
        for i in 0..self.len() {
            if i != t {
                keep.push(i);
            }
        }
        for &i in &keep {
            bags.push(self.bags[i]);
            let par = if i == ch {
                Some(p)
            } else {
                match self.parent[i] {
                    Some(q) if q == t => Some(ch),
                    other => other,
                }
            };
            parent.push(par);
        }
        // Remap old ids to positions in `keep`.
        let pos_of = |old: usize| keep.iter().position(|&k| k == old).expect("kept node");
        let parent: Vec<Option<usize>> = parent.into_iter().map(|p| p.map(pos_of)).collect();
        TreeDecomposition::from_unordered(bags, parent)
            .expect("contraction preserves tree structure")
    }

    /// Builds a decomposition from bags and parent pointers in *arbitrary*
    /// node order (re-indexes topologically so that parents precede
    /// children, with the root moved to position 0).
    ///
    /// # Errors
    ///
    /// Fails when the parent pointers do not describe a tree.
    pub fn from_unordered(
        bags: Vec<VarSet>,
        parent: Vec<Option<usize>>,
    ) -> Result<TreeDecomposition> {
        let n = bags.len();
        if n == 0 || parent.len() != n {
            return Err(CqcError::InvalidDecomposition(
                "need one parent entry per bag and at least one bag".into(),
            ));
        }
        let roots: Vec<usize> = (0..n).filter(|&i| parent[i].is_none()).collect();
        if roots.len() != 1 {
            return Err(CqcError::InvalidDecomposition(format!(
                "expected exactly one root, found {}",
                roots.len()
            )));
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                if *p >= n {
                    return Err(CqcError::InvalidDecomposition(format!(
                        "parent index {p} out of range"
                    )));
                }
                children[*p].push(i);
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![roots[0]];
        while let Some(x) = stack.pop() {
            order.push(x);
            for &c in children[x].iter().rev() {
                stack.push(c);
            }
        }
        if order.len() != n {
            return Err(CqcError::InvalidDecomposition(
                "parent pointers contain a cycle or disconnected node".into(),
            ));
        }
        let mut new_id = vec![usize::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            new_id[old] = new;
        }
        let new_bags: Vec<VarSet> = order.iter().map(|&o| bags[o]).collect();
        let new_parent: Vec<Option<usize>> = order
            .iter()
            .map(|&o| parent[o].map(|p| new_id[p]))
            .collect();
        TreeDecomposition::new(new_bags, new_parent)
    }

    /// Removes non-root bags that are subsets of their parent (merged
    /// upward) or of a child (contracted into that child), repeatedly,
    /// producing a minimal equivalent decomposition. The root bag is never
    /// altered.
    pub fn simplify(&self) -> TreeDecomposition {
        let mut cur = self.clone();
        'outer: loop {
            for t in 1..cur.len() {
                let p = cur.parent[t].unwrap();
                if cur.bags[t].is_subset_of(cur.bags[p]) && p != 0 {
                    cur = cur.merge_into_parent(t);
                    continue 'outer;
                }
                if let Some(&ch) = cur.children[t]
                    .iter()
                    .find(|&&ch| cur.bags[t].is_subset_of(cur.bags[ch]))
                {
                    cur = cur.contract_into_child(t, ch);
                    continue 'outer;
                }
                if cur.bags[t].is_subset_of(cur.bags[p]) {
                    // Parent is the root: drop t by attaching its children
                    // to the root only when t adds nothing, i.e. its bag is
                    // inside the root bag; contract upward without changing
                    // the root bag.
                    cur = cur.drop_redundant_under_root(t);
                    continue 'outer;
                }
            }
            return cur;
        }
    }

    /// Removes a node whose bag is contained in the root bag, reattaching
    /// its children to the root (the root bag is unchanged).
    ///
    /// # Panics
    ///
    /// Panics when `t`'s bag is not inside the root bag, in release builds
    /// too: dropping it would lose the variables only it covers.
    fn drop_redundant_under_root(&self, t: usize) -> TreeDecomposition {
        assert!(
            self.bags[t].is_subset_of(self.bags[0]),
            "bag {t} is not inside the root bag"
        );
        let bags: Vec<VarSet> = (0..self.len())
            .filter(|&i| i != t)
            .map(|i| self.bags[i])
            .collect();
        let parent: Vec<Option<usize>> = (0..self.len())
            .filter(|&i| i != t)
            .map(|i| match self.parent[i] {
                Some(q) if q == t => Some(0),
                other => other,
            })
            .collect();
        // Remap indices (everything after t shifts down by one).
        let remap = |old: usize| if old > t { old - 1 } else { old };
        let parent = parent.into_iter().map(|p| p.map(remap)).collect();
        TreeDecomposition::from_unordered(bags, parent)
            .expect("dropping a redundant node preserves the tree")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(vars: &[u32]) -> VarSet {
        vars.iter().map(|&v| Var(v)).collect()
    }

    /// The path query of length 6 from Figure 2: edges {v_i, v_{i+1}},
    /// variables v1..v7 = Var(0)..Var(6).
    fn path6() -> Hypergraph {
        Hypergraph::new(7, (0..6).map(|i| vs(&[i, i + 1])).collect())
    }

    /// The right-hand decomposition of Figure 2: C = {v1, v5, v6}.
    fn fig2_right() -> TreeDecomposition {
        TreeDecomposition::new(
            vec![
                vs(&[0, 4, 5]),    // root: {v1, v5, v6}
                vs(&[1, 3, 0, 4]), // {v2, v4 | v1, v5}
                vs(&[2, 1, 3]),    // {v3 | v2, v4}
                vs(&[6, 5]),       // {v7 | v6}
            ],
            vec![None, Some(0), Some(1), Some(0)],
        )
        .unwrap()
    }

    /// Bag 1 holds `v2` and `v4`, which the root lacks: dropping it under
    /// the root panics, in release builds too.
    #[test]
    #[should_panic(expected = "bag 1 is not inside the root bag")]
    fn dropping_a_bag_outside_the_root_panics() {
        fig2_right().drop_redundant_under_root(1);
    }

    #[test]
    fn fig2_right_is_valid_connex() {
        let h = path6();
        let td = fig2_right();
        td.validate(&h).unwrap();
        td.validate_connex(&h, vs(&[0, 4, 5])).unwrap();
    }

    #[test]
    fn bound_and_free_splits() {
        let td = fig2_right();
        assert_eq!(td.bag_bound(1), vs(&[0, 4]));
        assert_eq!(td.bag_free(1), vs(&[1, 3]));
        assert_eq!(td.bag_bound(2), vs(&[1, 3]));
        assert_eq!(td.bag_free(2), vs(&[2]));
        assert_eq!(td.bag_bound(3), vs(&[5]));
        assert_eq!(td.bag_free(3), vs(&[6]));
        assert_eq!(td.bag_free(0), vs(&[0, 4, 5]));
    }

    #[test]
    fn orders() {
        let td = fig2_right();
        assert_eq!(td.preorder(), vec![0, 1, 2, 3]);
        let post = td.postorder();
        // Children before parents.
        let pos = |t: usize| post.iter().position(|&x| x == t).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
        assert!(pos(3) < pos(0));
    }

    #[test]
    fn coverage_violation_detected() {
        let h = path6();
        // Missing the {v6, v7} edge.
        let td = TreeDecomposition::new(
            vec![vs(&[0, 4, 5]), vs(&[1, 3, 0, 4]), vs(&[2, 1, 3])],
            vec![None, Some(0), Some(1)],
        )
        .unwrap();
        assert!(td.validate(&h).is_err());
    }

    #[test]
    fn running_intersection_violation_detected() {
        let h = Hypergraph::new(3, vec![vs(&[0, 1]), vs(&[1, 2])]);
        // v1 (=Var(1)) appears in two bags that are not adjacent.
        let td = TreeDecomposition::new(
            vec![vs(&[0]), vs(&[0, 1]), vs(&[0, 2]), vs(&[1, 2])],
            vec![None, Some(0), Some(1), Some(2)],
        )
        .unwrap();
        assert!(td.validate(&h).is_err());
    }

    #[test]
    fn connex_requires_exact_root_bag() {
        let h = path6();
        let td = fig2_right();
        assert!(td.validate_connex(&h, vs(&[0, 4])).is_err());
    }

    #[test]
    fn merge_into_parent() {
        let td = fig2_right();
        let merged = td.merge_into_parent(2);
        assert_eq!(merged.len(), 3);
        // Bag 1 absorbed v3.
        assert_eq!(merged.bag(1), vs(&[0, 1, 2, 3, 4]));
        merged.validate(&path6()).unwrap();
    }

    #[test]
    fn simplify_contracts_subsumed_bags() {
        let h = Hypergraph::new(3, vec![vs(&[0, 1, 2])]);
        let td = TreeDecomposition::new(
            vec![VarSet::EMPTY, vs(&[0, 1, 2]), vs(&[1, 2]), vs(&[2])],
            vec![None, Some(0), Some(1), Some(2)],
        )
        .unwrap();
        let s = td.simplify();
        assert_eq!(s.len(), 2);
        s.validate(&h).unwrap();
        s.validate_connex(&h, VarSet::EMPTY).unwrap();
    }

    #[test]
    fn malformed_trees_rejected() {
        assert!(TreeDecomposition::new(vec![], vec![]).is_err());
        assert!(TreeDecomposition::new(vec![VarSet::EMPTY], vec![Some(0)]).is_err());
        assert!(TreeDecomposition::new(vec![VarSet::EMPTY, vs(&[0])], vec![None, None]).is_err());
        // Forward parent reference.
        assert!(TreeDecomposition::new(
            vec![VarSet::EMPTY, vs(&[0]), vs(&[1])],
            vec![None, Some(2), Some(0)]
        )
        .is_err());
    }
}
