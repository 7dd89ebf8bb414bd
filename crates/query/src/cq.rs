//! Conjunctive queries.

use crate::atom::{Atom, Term};
use crate::hypergraph::Hypergraph;
use crate::var::{Var, VarSet};
use cqc_common::error::{CqcError, Result};
use cqc_storage::{Database, Domain};
use std::fmt;

/// A conjunctive query `Q(y) = R_1(x_1), …, R_n(x_n)` (§2.1).
///
/// Variables are identified by indexes into `var_names`; the head lists the
/// output variables in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConjunctiveQuery {
    /// Query name (for display).
    pub name: String,
    /// Head variables in output order.
    pub head: Vec<Var>,
    /// Body atoms.
    pub atoms: Vec<Atom>,
    /// Human-readable variable names, indexed by `Var`.
    pub var_names: Vec<String>,
}

impl ConjunctiveQuery {
    /// Number of variables appearing in the query.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// The set of variables appearing in the body.
    pub fn body_vars(&self) -> VarSet {
        self.atoms
            .iter()
            .map(Atom::var_set)
            .fold(VarSet::EMPTY, VarSet::union)
    }

    /// The set of head variables.
    pub fn head_vars(&self) -> VarSet {
        self.head.iter().copied().collect()
    }

    /// `true` when every body variable also appears in the head (§2.1).
    pub fn is_full(&self) -> bool {
        self.body_vars().is_subset_of(self.head_vars())
    }

    /// `true` when the head contains no variables.
    pub fn is_boolean(&self) -> bool {
        self.head.is_empty()
    }

    /// `true` for natural join queries: full, no constants, no repeated
    /// variables in an atom, and a duplicate-free head (§2.1).
    pub fn is_natural_join(&self) -> bool {
        if !self.is_full() {
            return false;
        }
        let mut seen = VarSet::EMPTY;
        for &v in &self.head {
            if seen.contains(v) {
                return false;
            }
            seen = seen.with(v);
        }
        self.atoms.iter().all(Atom::is_natural)
    }

    /// Validates the natural-join restriction, with a descriptive error.
    pub fn require_natural_join(&self) -> Result<()> {
        if !self.is_full() {
            return Err(CqcError::InvalidQuery(format!(
                "query `{}` projects away body variables; the paper's structures require full CQs \
                 (projections are future work, see §8)",
                self.name
            )));
        }
        for atom in &self.atoms {
            if !atom.is_natural() {
                return Err(CqcError::InvalidQuery(format!(
                    "atom `{atom}` contains constants or repeated variables; apply \
                     `rewrite::rewrite_view` first (Example 3)"
                )));
            }
        }
        let mut seen = VarSet::EMPTY;
        for &v in &self.head {
            if seen.contains(v) {
                return Err(CqcError::InvalidQuery(format!(
                    "head of `{}` repeats variable {}",
                    self.name,
                    self.var_name(v)
                )));
            }
            seen = seen.with(v);
        }
        Ok(())
    }

    /// The hypergraph of a natural join query.
    ///
    /// # Panics
    ///
    /// Panics if the query is not a natural join (call
    /// [`ConjunctiveQuery::require_natural_join`] first).
    pub fn hypergraph(&self) -> Hypergraph {
        assert!(
            self.is_natural_join(),
            "hypergraph is defined for natural join queries"
        );
        Hypergraph::new(
            self.num_vars(),
            self.atoms.iter().map(Atom::var_set).collect(),
        )
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Looks a variable up by name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u32))
    }

    /// Checks that every atom matches a relation of the right arity in `db`.
    pub fn check_schema(&self, db: &Database) -> Result<()> {
        for atom in &self.atoms {
            let rel = db.require(&atom.relation)?;
            if rel.arity() != atom.arity() {
                return Err(CqcError::Schema(format!(
                    "atom `{atom}` has arity {} but relation `{}` has arity {}",
                    atom.arity(),
                    atom.relation,
                    rel.arity()
                )));
            }
        }
        Ok(())
    }

    /// Active domain of every variable: the sorted union, over the atoms in
    /// which the variable occurs, of the matching relation columns (§4.1).
    pub fn active_domains(&self, db: &Database) -> Result<Vec<Domain>> {
        self.check_schema(db)?;
        let n = self.num_vars();
        let mut columns: Vec<Vec<u64>> = vec![Vec::new(); n];
        for atom in &self.atoms {
            let rel = db.require(&atom.relation)?;
            for (pos, term) in atom.terms.iter().enumerate() {
                if let Term::Var(v) = term {
                    columns[v.index()].extend(rel.column_values(pos));
                }
            }
        }
        Ok(columns.into_iter().map(Domain::new).collect())
    }

    /// A canonical text rendering used as a cache key: the query name is
    /// dropped, variables are renamed positionally (head order first, then
    /// first occurrence in the body) and atoms are sorted. For **full**
    /// queries (every body variable in the head — the engine's serving
    /// class) two parses of the same view differing in query name, variable
    /// spelling or atom order normalize to the same string. For non-full
    /// queries, body-only variables are named in body scan order, so an
    /// atom reorder can key differently — a conservative cache miss, never
    /// a false merge (the renaming is injective either way).
    pub fn normalized_text(&self) -> String {
        // Positional names: head variables first (their order is part of
        // the view's semantics), remaining body variables by first
        // occurrence.
        let mut order: Vec<Var> = Vec::with_capacity(self.num_vars());
        for v in &self.head {
            if !order.contains(v) {
                order.push(*v);
            }
        }
        for atom in &self.atoms {
            for term in &atom.terms {
                if let Term::Var(v) = term {
                    if !order.contains(v) {
                        order.push(*v);
                    }
                }
            }
        }
        let canon = |v: &Var| -> String {
            format!("v{}", order.iter().position(|w| w == v).expect("var seen"))
        };
        let mut atoms: Vec<String> = self
            .atoms
            .iter()
            .map(|atom| {
                let terms: Vec<String> = atom
                    .terms
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => canon(v),
                        Term::Const(c) => format!("#{c}"),
                    })
                    .collect();
                format!("{}({})", atom.relation, terms.join(","))
            })
            .collect();
        atoms.sort_unstable();
        let head: Vec<String> = self.head.iter().map(canon).collect();
        format!("({}) :- {}", head.join(","), atoms.join(", "))
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.var_name(*v))?;
        }
        write!(f, ") :- ")?;
        for (i, atom) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", atom.relation)?;
            for (j, t) in atom.terms.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                match t {
                    Term::Var(v) => write!(f, "{}", self.var_name(*v))?,
                    Term::Const(c) => write!(f, "{c}")?,
                }
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_storage::Relation;

    fn triangle() -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: "Q".into(),
            head: vec![Var(0), Var(1), Var(2)],
            atoms: vec![
                Atom::new("R", [Var(0), Var(1)]),
                Atom::new("S", [Var(1), Var(2)]),
                Atom::new("T", [Var(2), Var(0)]),
            ],
            var_names: vec!["x".into(), "y".into(), "z".into()],
        }
    }

    #[test]
    fn classification() {
        let q = triangle();
        assert!(q.is_full());
        assert!(!q.is_boolean());
        assert!(q.is_natural_join());
        q.require_natural_join().unwrap();
        assert_eq!(q.hypergraph().num_edges(), 3);
    }

    #[test]
    fn projection_detected() {
        let mut q = triangle();
        q.head.pop();
        assert!(!q.is_full());
        assert!(q.require_natural_join().is_err());
    }

    #[test]
    fn duplicate_head_detected() {
        let mut q = triangle();
        q.head = vec![Var(0), Var(0), Var(1), Var(2)];
        assert!(q.require_natural_join().is_err());
    }

    #[test]
    fn display_and_lookup() {
        let q = triangle();
        assert_eq!(q.to_string(), "Q(x,y,z) :- R(x,y), S(y,z), T(z,x)");
        assert_eq!(q.var_by_name("y"), Some(Var(1)));
        assert_eq!(q.var_by_name("w"), None);
        assert_eq!(q.var_name(Var(2)), "z");
    }

    #[test]
    fn active_domains_union_columns() {
        let q = triangle();
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 2), (5, 2)]))
            .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 3)])).unwrap();
        db.add(Relation::from_pairs("T", vec![(3, 1), (4, 9)]))
            .unwrap();
        let doms = q.active_domains(&db).unwrap();
        // x occurs in R.0 and T.1: {1, 5} ∪ {1, 9}.
        assert!(doms[0].values().iter().eq([1, 5, 9]));
        // y occurs in R.1 and S.0: {2} ∪ {2}.
        assert!(doms[1].values().iter().eq([2]));
        // z occurs in S.1 and T.0: {3} ∪ {3, 4}.
        assert!(doms[2].values().iter().eq([3, 4]));
    }

    #[test]
    fn schema_mismatch_reported() {
        let q = triangle();
        let mut db = Database::new();
        db.add(Relation::new("R", 3, vec![])).unwrap();
        db.add(Relation::from_pairs("S", vec![])).unwrap();
        db.add(Relation::from_pairs("T", vec![])).unwrap();
        assert!(q.check_schema(&db).is_err());
    }

    #[test]
    fn normalized_text_ignores_name_spelling_and_atom_order() {
        let a = crate::parser::parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)").unwrap();
        let b = crate::parser::parse_query("View(a,b,c) :- T(c,a), R(a,b), S(b,c)").unwrap();
        assert_eq!(a.normalized_text(), b.normalized_text());
        // A genuinely different view (head order swapped) keys differently.
        let c = crate::parser::parse_query("Q(y,x,z) :- R(x,y), S(y,z), T(z,x)").unwrap();
        assert_ne!(a.normalized_text(), c.normalized_text());
    }
}
