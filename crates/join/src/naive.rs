//! A naive nested-loop evaluator, used as the correctness oracle.
//!
//! This evaluator is deliberately simple — generate-and-test over partial
//! valuations, atom by atom — so that it is obviously correct. Every
//! compressed structure in the workspace is property-tested against it.

use cqc_common::error::Result;
use cqc_common::value::{lex_cmp, Tuple, Value};
use cqc_query::atom::Term;
use cqc_query::{AdornedView, ConjunctiveQuery};
use cqc_storage::Database;

/// Evaluates an access request `Q^η[v]` by brute force.
///
/// Returns the distinct free-variable tuples (in the view's free-head
/// enumeration order), sorted lexicographically — the same contract as the
/// compressed structures.
///
/// # Errors
///
/// Propagates schema errors and access-arity mismatches.
pub fn evaluate_view(
    view: &AdornedView,
    db: &Database,
    bound_values: &[Value],
) -> Result<Vec<Tuple>> {
    view.check_access(bound_values)?;
    let query = view.query();
    query.check_schema(db)?;

    let n = query.num_vars();
    let mut initial: Vec<Option<Value>> = vec![None; n];
    for (var, val) in view.bound_head().iter().zip(bound_values) {
        initial[var.index()] = Some(*val);
    }

    let valuations = join_all_atoms(query, db, initial)?;

    let free = view.free_head();
    let mut out: Vec<Tuple> = valuations
        .into_iter()
        .map(|v| {
            free.iter()
                .map(|x| v[x.index()].expect("free var bound by body"))
                .collect()
        })
        .collect();
    out.sort_unstable_by(|a, b| lex_cmp(a, b));
    out.dedup();
    Ok(out)
}

/// Evaluates a full CQ (all head variables free): the head tuples in sorted
/// order.
pub fn evaluate_full(query: &ConjunctiveQuery, db: &Database) -> Result<Vec<Tuple>> {
    query.check_schema(db)?;
    let valuations = join_all_atoms(query, db, vec![None; query.num_vars()])?;
    let mut out: Vec<Tuple> = valuations
        .into_iter()
        .map(|v| {
            query
                .head
                .iter()
                .map(|x| v[x.index()].expect("head var bound by body"))
                .collect()
        })
        .collect();
    out.sort_unstable_by(|a, b| lex_cmp(a, b));
    out.dedup();
    Ok(out)
}

fn join_all_atoms(
    query: &ConjunctiveQuery,
    db: &Database,
    initial: Vec<Option<Value>>,
) -> Result<Vec<Vec<Option<Value>>>> {
    let mut vals: Vec<Vec<Option<Value>>> = vec![initial];
    for atom in &query.atoms {
        let rel = db.require(&atom.relation)?;
        let mut next: Vec<Vec<Option<Value>>> = Vec::new();
        for v in &vals {
            let mut scan = rel.scan();
            while let Some(row) = scan.next_row() {
                let mut candidate = v.clone();
                let mut ok = true;
                for (pos, term) in atom.terms.iter().enumerate() {
                    match term {
                        Term::Const(c) => {
                            if row[pos] != *c {
                                ok = false;
                                break;
                            }
                        }
                        Term::Var(x) => match candidate[x.index()] {
                            Some(bound) => {
                                if bound != row[pos] {
                                    ok = false;
                                    break;
                                }
                            }
                            None => candidate[x.index()] = Some(row[pos]),
                        },
                    }
                }
                if ok {
                    next.push(candidate);
                }
            }
        }
        vals = next;
        if vals.is_empty() {
            break;
        }
    }
    Ok(vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqc_query::parser::parse_adorned;
    use cqc_storage::Relation;

    fn triangle_db() -> Database {
        let mut db = Database::new();
        db.add(Relation::from_pairs(
            "R",
            vec![(1, 2), (2, 3), (1, 3), (3, 1)],
        ))
        .unwrap();
        db.add(Relation::from_pairs("S", vec![(2, 3), (3, 1), (3, 2)]))
            .unwrap();
        db.add(Relation::from_pairs("T", vec![(3, 1), (1, 2), (2, 3)]))
            .unwrap();
        db
    }

    #[test]
    fn full_triangle_enumeration() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "fff").unwrap();
        let out = evaluate_view(&v, &triangle_db(), &[]).unwrap();
        assert_eq!(out, vec![vec![1, 2, 3], vec![2, 3, 1]]);
    }

    #[test]
    fn bound_access() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        // x = 1, z = 3: y with R(1,y), S(y,3), T(3,1).
        let out = evaluate_view(&v, &triangle_db(), &[1, 3]).unwrap();
        assert_eq!(out, vec![vec![2]]);
        // Absent binding.
        let out = evaluate_view(&v, &triangle_db(), &[2, 2]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn boolean_access() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bbb").unwrap();
        assert_eq!(
            evaluate_view(&v, &triangle_db(), &[1, 2, 3]).unwrap(),
            vec![Vec::<Value>::new()]
        );
        assert!(evaluate_view(&v, &triangle_db(), &[1, 2, 2])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn constants_and_projection_handled() {
        // The oracle supports constants and non-full queries directly.
        let v = parse_adorned("Q(x) :- R(x, 3)", "f").unwrap();
        let out = evaluate_view(&v, &triangle_db(), &[]).unwrap();
        assert_eq!(out, vec![vec![1], vec![2]]);
    }

    #[test]
    fn repeated_variables() {
        let mut db = Database::new();
        db.add(Relation::from_pairs("R", vec![(1, 1), (1, 2), (2, 2)]))
            .unwrap();
        let v = parse_adorned("Q(x) :- R(x, x)", "f").unwrap();
        assert_eq!(evaluate_view(&v, &db, &[]).unwrap(), vec![vec![1], vec![2]]);
    }

    #[test]
    fn evaluate_full_matches_fff_view() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "fff").unwrap();
        let db = triangle_db();
        assert_eq!(
            evaluate_full(v.query(), &db).unwrap(),
            evaluate_view(&v, &db, &[]).unwrap()
        );
    }

    #[test]
    fn wrong_access_arity_is_error() {
        let v = parse_adorned("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)", "bfb").unwrap();
        assert!(evaluate_view(&v, &triangle_db(), &[1]).is_err());
    }
}
