//! Linear-time elimination of constants and repeated variables (Example 3).
//!
//! The paper observes (§2.4) that whenever compression time is at least
//! Ω(|D|) we may assume w.l.o.g. that the adorned view has no constants and
//! no repeated variables within an atom: a linear pass rewrites
//! `Q^fb(x,z) = R(x,y,a), S(y,y,z)` into
//! `Q^fb(x,z) = R'(x,y), S'(y,z)` with `R'(x,y) = R(x,y,a)` and
//! `S'(y,z) = S(y,y,z)`. This module performs that pass, producing a new
//! database containing the derived relations and a natural-join view over
//! them.

use crate::adorned::AdornedView;
use crate::atom::{Atom, Term};
use crate::cq::ConjunctiveQuery;
use crate::var::Var;
use cqc_common::error::Result;
use cqc_common::value::Value;
use cqc_storage::{Database, Relation};

/// The result of rewriting an adorned view.
#[derive(Debug, Clone)]
pub struct Rewritten {
    /// The rewritten view: a natural join query over the rewritten database
    /// (unless `always_empty`).
    pub view: AdornedView,
    /// Database containing the original relations that are still referenced
    /// plus all derived relations.
    pub database: Database,
    /// `true` when a fully-ground atom (all constants) failed its membership
    /// test, making the view empty regardless of the access request.
    pub always_empty: bool,
}

/// Rewrites an adorned view over `db` into an equivalent natural-join view
/// (Example 3). Runs in time linear in `|D|`.
///
/// Atoms that are already natural keep their relation; every other atom gets
/// a derived relation obtained by filtering on its constants and repeated
/// variables and projecting onto the first occurrence of each distinct
/// variable. Atoms with no variables become existence guards: a failing
/// guard makes the view constantly empty, a passing guard is dropped.
///
/// # Errors
///
/// Fails when an atom references a missing relation or mismatched arity.
pub fn rewrite_view(view: &AdornedView, db: &Database) -> Result<Rewritten> {
    let query = view.query();
    query.check_schema(db)?;

    let mut out_db = Database::new();
    let mut new_atoms: Vec<Atom> = Vec::with_capacity(query.atoms.len());
    let mut always_empty = false;
    let mut derived_counter = 0usize;

    for atom in &query.atoms {
        if atom.is_natural() {
            if out_db.get(&atom.relation).is_none() {
                db.require(&atom.relation)?; // surface schema errors here
                let shared = db.get_arc(&atom.relation).expect("require just succeeded");
                // Share the allocation instead of deep-copying the rows:
                // the rewrite is read-only, and keeping the original `Arc`
                // lets downstream index pools recognize the relation across
                // selection and build.
                out_db.add_arc(&atom.relation, shared)?;
            }
            new_atoms.push(atom.clone());
            continue;
        }

        let rel = db.require(&atom.relation)?;

        // First occurrence position of each distinct variable, in order.
        let mut distinct_vars: Vec<Var> = Vec::new();
        let mut keep_cols: Vec<usize> = Vec::new();
        for (pos, term) in atom.terms.iter().enumerate() {
            if let Term::Var(v) = term {
                if !distinct_vars.contains(v) {
                    distinct_vars.push(*v);
                    keep_cols.push(pos);
                }
            }
        }

        // Filter rows on constants and repeated-variable equalities.
        let matches = |row: &[Value]| -> bool {
            let mut first_seen: Vec<(Var, Value)> = Vec::new();
            for (pos, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        if row[pos] != *c {
                            return false;
                        }
                    }
                    Term::Var(v) => {
                        if let Some(&(_, val)) = first_seen.iter().find(|(w, _)| w == v) {
                            if row[pos] != val {
                                return false;
                            }
                        } else {
                            first_seen.push((*v, row[pos]));
                        }
                    }
                }
            }
            true
        };

        // One scratch row decoded per stored row; a match keeps the
        // columns of its distinct variables.
        let mut flat: Vec<Value> = Vec::new();
        let mut nonempty = false;
        let mut scan = rel.scan();
        while let Some(row) = scan.next_row() {
            if matches(row) {
                nonempty = true;
                flat.extend(keep_cols.iter().map(|&c| row[c]));
            }
        }

        if distinct_vars.is_empty() {
            // Fully ground atom: an existence guard.
            always_empty |= !nonempty;
            continue;
        }

        derived_counter += 1;
        let name = format!("{}__rw{}", atom.relation, derived_counter);
        out_db.add(Relation::from_flat(&name, distinct_vars.len(), flat))?;
        new_atoms.push(Atom::new(name, distinct_vars));
    }

    let new_query = ConjunctiveQuery {
        name: query.name.clone(),
        head: query.head.clone(),
        atoms: new_atoms,
        var_names: query.var_names.clone(),
    };
    let view = AdornedView::new(new_query, &view.pattern())?;
    Ok(Rewritten {
        view,
        database: out_db,
        always_empty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_adorned;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Relation::new(
            "R",
            3,
            vec![vec![1, 2, 9], vec![1, 3, 9], vec![2, 2, 5]],
        ))
        .unwrap();
        db.add(Relation::new(
            "S",
            3,
            vec![vec![2, 2, 4], vec![2, 3, 4], vec![3, 3, 6]],
        ))
        .unwrap();
        db
    }

    #[test]
    fn example_3_rewrite() {
        // Q^fb(x,z) = R(x,y,9), S(y,y,z): the paper's Example 3 with a = 9.
        let v = parse_adorned("Q(x, z, y) :- R(x, y, 9), S(y, y, z)", "fbf").unwrap();
        let rw = rewrite_view(&v, &db()).unwrap();
        assert!(!rw.always_empty);
        let q = rw.view.query();
        assert!(q.is_natural_join());
        assert_eq!(q.atoms.len(), 2);

        // R'(x,y) = R(x,y,9) keeps rows with third column 9.
        let r2 = rw.database.get(&q.atoms[0].relation).unwrap();
        assert_eq!(r2.arity(), 2);
        assert!(r2.contains(&[1, 2]));
        assert!(r2.contains(&[1, 3]));
        assert!(!r2.contains(&[2, 2]));

        // S'(y,z) = S(y,y,z) keeps rows with equal first two columns.
        let s2 = rw.database.get(&q.atoms[1].relation).unwrap();
        assert_eq!(s2.arity(), 2);
        assert!(s2.contains(&[2, 4]));
        assert!(s2.contains(&[3, 6]));
        assert!(!s2.contains(&[2, 3]));
    }

    #[test]
    fn natural_atoms_untouched() {
        let v = parse_adorned("Q(a, b) :- R(a, b, c)", "bf");
        // R(a,b,c) is natural but the head projects c away: still rewritable,
        // the projection check happens later.
        let v = v.unwrap();
        let rw = rewrite_view(&v, &db()).unwrap();
        assert_eq!(rw.view.query().atoms[0].relation, "R");
        assert_eq!(rw.database.get("R").unwrap().len(), 3);
    }

    #[test]
    fn ground_guard_passes_and_drops() {
        let v = parse_adorned("Q(x, y) :- R(x, y, 9), S(2, 2, 4)", "bf").unwrap();
        let rw = rewrite_view(&v, &db()).unwrap();
        assert!(!rw.always_empty);
        assert_eq!(rw.view.query().atoms.len(), 1);
    }

    #[test]
    fn ground_guard_fails() {
        let v = parse_adorned("Q(x, y) :- R(x, y, 9), S(7, 7, 7)", "bf").unwrap();
        let rw = rewrite_view(&v, &db()).unwrap();
        assert!(rw.always_empty);
    }

    #[test]
    fn repeated_vars_across_atoms_are_fine() {
        // Repetition across atoms is ordinary join structure, not a rewrite
        // target.
        let v = parse_adorned("Q(x, y) :- R(x, y, 9), S(x, y, 4)", "bf").unwrap();
        let rw = rewrite_view(&v, &db()).unwrap();
        assert!(rw.view.query().is_natural_join());
        assert_eq!(rw.view.query().atoms.len(), 2);
    }

    #[test]
    fn missing_relation_errors() {
        let v = parse_adorned("Q(x) :- Zap(x, x)", "b").unwrap();
        assert!(rewrite_view(&v, &db()).is_err());
    }
}
