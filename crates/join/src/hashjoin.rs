//! A second, independent oracle: binary hash joins.
//!
//! `cqc-join::naive` evaluates by nested-loop generate-and-test; this module
//! evaluates the same queries with classic build/probe hash joins over
//! intermediate tuple sets. The two implementations share no evaluation
//! code, so their agreement (property-tested in `tests/prop_roundtrip.rs`)
//! guards the oracle itself — important in a repository where every
//! structure is validated against "the" oracle.

use cqc_common::error::Result;
use cqc_common::hash::{fast_map, FastMap};
use cqc_common::value::{lex_cmp, Tuple, Value};
use cqc_query::atom::Term;
use cqc_query::{AdornedView, Var};
use cqc_storage::Database;

/// Evaluates an access request with left-deep binary hash joins.
///
/// Returns the distinct free-variable tuples in the view's enumeration
/// order, sorted lexicographically — the same contract as
/// [`crate::naive::evaluate_view`].
///
/// # Errors
///
/// Propagates schema errors and access-arity mismatches.
pub fn evaluate_view_hash(
    view: &AdornedView,
    db: &Database,
    bound_values: &[Value],
) -> Result<Vec<Tuple>> {
    view.check_access(bound_values)?;
    let query = view.query();
    query.check_schema(db)?;

    // Current intermediate result: a variable list plus tuples over it.
    let mut vars: Vec<Var> = Vec::new();
    let mut rows: Vec<Tuple> = vec![Vec::new()];

    let bound_head = view.bound_head();
    let bound_of = |v: Var| -> Option<Value> {
        bound_head
            .iter()
            .position(|w| *w == v)
            .map(|i| bound_values[i])
    };

    for atom in &query.atoms {
        let rel = db.require(&atom.relation)?;

        // The atom's tuples, filtered on constants, repeated variables and
        // bound-variable values, projected to its distinct variables.
        let mut atom_vars: Vec<Var> = Vec::new();
        for t in &atom.terms {
            if let Term::Var(v) = t {
                if !atom_vars.contains(v) {
                    atom_vars.push(*v);
                }
            }
        }
        let mut atom_rows: Vec<Tuple> = Vec::new();
        let mut scan = rel.scan();
        'rows: while let Some(row) = scan.next_row() {
            let mut vals: Vec<Option<Value>> = vec![None; atom_vars.len()];
            for (pos, term) in atom.terms.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        if row[pos] != *c {
                            continue 'rows;
                        }
                    }
                    Term::Var(v) => {
                        if let Some(b) = bound_of(*v) {
                            if row[pos] != b {
                                continue 'rows;
                            }
                        }
                        let slot = atom_vars.iter().position(|w| w == v).unwrap();
                        match vals[slot] {
                            Some(prev) if prev != row[pos] => continue 'rows,
                            _ => vals[slot] = Some(row[pos]),
                        }
                    }
                }
            }
            atom_rows.push(vals.into_iter().map(|v| v.unwrap()).collect());
        }

        // Hash join on the shared variables.
        let shared: Vec<(usize, usize)> = vars
            .iter()
            .enumerate()
            .filter_map(|(li, v)| atom_vars.iter().position(|w| w == v).map(|ri| (li, ri)))
            .collect();
        let new_right: Vec<usize> = (0..atom_vars.len())
            .filter(|&ri| !shared.iter().any(|&(_, r)| r == ri))
            .collect();

        // Build on the (smaller) atom side.
        let mut table: FastMap<Tuple, Vec<usize>> = fast_map();
        for (i, r) in atom_rows.iter().enumerate() {
            let key: Tuple = shared.iter().map(|&(_, ri)| r[ri]).collect();
            table.entry(key).or_default().push(i);
        }

        let mut next_rows = Vec::new();
        for l in &rows {
            let key: Tuple = shared.iter().map(|&(li, _)| l[li]).collect();
            if let Some(matches) = table.get(&key) {
                for &ri in matches {
                    let mut out = l.clone();
                    out.extend(new_right.iter().map(|&c| atom_rows[ri][c]));
                    next_rows.push(out);
                }
            }
        }
        vars.extend(new_right.iter().map(|&c| atom_vars[c]));
        rows = next_rows;
        if rows.is_empty() {
            break;
        }
    }

    // Project to the free head in enumeration order; sort + dedup.
    let free = view.free_head();
    let mut out: Vec<Tuple> = rows
        .into_iter()
        .map(|r| {
            free.iter()
                .map(|v| {
                    if let Some(b) = bound_of(*v) {
                        return b;
                    }
                    let i = vars
                        .iter()
                        .position(|w| w == v)
                        .expect("free head var appears in the body");
                    r[i]
                })
                .collect()
        })
        .collect();
    out.sort_unstable_by(|a, b| lex_cmp(a, b));
    out.dedup();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::evaluate_view;
    use cqc_query::parser::parse_adorned;
    use cqc_storage::Relation;

    fn db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs(
            "R",
            vec![(1, 2), (2, 3), (1, 3), (3, 1), (2, 1), (4, 2)],
        ))
        .unwrap();
        db.add(Relation::from_pairs(
            "S",
            vec![(2, 3), (3, 1), (3, 2), (1, 2), (2, 4)],
        ))
        .unwrap();
        db.add(Relation::from_pairs(
            "T",
            vec![(3, 1), (1, 2), (2, 3), (2, 1), (4, 4)],
        ))
        .unwrap();
        db
    }

    #[test]
    fn agrees_with_naive_on_triangle_patterns() {
        let db = db();
        for pattern in ["fff", "bff", "fbf", "ffb", "bbf", "bfb", "bbb"] {
            let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", pattern).unwrap();
            let nb = pattern.chars().filter(|c| *c == 'b').count();
            let mut reqs: Vec<Vec<Value>> = vec![vec![]];
            for _ in 0..nb {
                reqs = reqs
                    .iter()
                    .flat_map(|r| {
                        (0..6u64).map(move |x| {
                            let mut r2 = r.clone();
                            r2.push(x);
                            r2
                        })
                    })
                    .collect();
            }
            for req in reqs {
                assert_eq!(
                    evaluate_view_hash(&v, &db, &req).unwrap(),
                    evaluate_view(&v, &db, &req).unwrap(),
                    "pattern {pattern} req {req:?}"
                );
            }
        }
    }

    #[test]
    fn handles_constants_and_repeats() {
        let db = db();
        let v = parse_adorned("Q(x) :- R(x, 3)", "f").unwrap();
        assert_eq!(
            evaluate_view_hash(&v, &db, &[]).unwrap(),
            evaluate_view(&v, &db, &[]).unwrap()
        );
        let mut db2 = Database::new();
        db2.add(Relation::from_pairs("R", vec![(1, 1), (1, 2), (2, 2)]))
            .unwrap();
        let v = parse_adorned("Q(x) :- R(x, x)", "f").unwrap();
        assert_eq!(
            evaluate_view_hash(&v, &db2, &[]).unwrap(),
            vec![vec![1], vec![2]]
        );
    }

    #[test]
    fn cartesian_product_atoms() {
        // Atoms sharing no variables: a cross product.
        let mut db = Database::new();
        db.add(Relation::from_pairs("A", vec![(1, 2), (3, 4)]))
            .unwrap();
        db.add(Relation::from_pairs("B", vec![(5, 6)])).unwrap();
        let v = parse_adorned("Q(a,b,c,d) :- A(a,b), B(c,d)", "ffff").unwrap();
        let out = evaluate_view_hash(&v, &db, &[]).unwrap();
        assert_eq!(out, vec![vec![1, 2, 5, 6], vec![3, 4, 5, 6]]);
    }

    #[test]
    fn bound_head_vars_pushed_into_scan() {
        let db = db();
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bbb").unwrap();
        assert_eq!(
            evaluate_view_hash(&v, &db, &[1, 2, 3]).unwrap(),
            vec![Vec::<Value>::new()]
        );
        assert!(evaluate_view_hash(&v, &db, &[1, 2, 2]).unwrap().is_empty());
    }
}
