//! Access-request samplers.

use cqc_common::value::Value;
use cqc_query::atom::Term;
use cqc_query::AdornedView;
use cqc_storage::Database;
use rand::rngs::StdRng;
use rand::Rng;

/// `count` access requests whose bound values are drawn uniformly from each
/// bound variable's active domain (misses are likely on sparse data —
/// exercising the `0`/absent paths).
pub fn random_requests(
    rng: &mut StdRng,
    view: &AdornedView,
    db: &Database,
    count: usize,
) -> Vec<Vec<Value>> {
    let domains = view
        .query()
        .active_domains(db)
        .expect("schema validated by caller");
    let bound = view.bound_head();
    (0..count)
        .map(|_| {
            bound
                .iter()
                .map(|v| {
                    let d = &domains[v.index()];
                    if d.is_empty() {
                        0
                    } else {
                        d.value(rng.gen_range(0..d.len()))
                    }
                })
                .collect()
        })
        .collect()
}

/// `count` access requests seeded from witness tuples: for each request, a
/// random tuple is drawn from a random atom containing each bound variable
/// and its value copied. Such requests hit actual data far more often than
/// uniform sampling (though a joint witness across atoms is still not
/// guaranteed).
pub fn witness_requests(
    rng: &mut StdRng,
    view: &AdornedView,
    db: &Database,
    count: usize,
) -> Vec<Vec<Value>> {
    let query = view.query();
    let bound = view.bound_head();
    // For each bound var: (atom index, column) choices.
    let holders: Vec<Vec<(usize, usize)>> = bound
        .iter()
        .map(|v| {
            query
                .atoms
                .iter()
                .enumerate()
                .flat_map(|(ai, atom)| {
                    atom.terms.iter().enumerate().filter_map(move |(col, t)| {
                        matches!(t, Term::Var(w) if w == v).then_some((ai, col))
                    })
                })
                .collect()
        })
        .collect();
    (0..count)
        .map(|_| {
            bound
                .iter()
                .zip(&holders)
                .map(|(_, hs)| {
                    if hs.is_empty() {
                        return 0;
                    }
                    let (ai, col) = hs[rng.gen_range(0..hs.len())];
                    let rel = db
                        .require(&query.atoms[ai].relation)
                        .expect("schema validated by caller");
                    if rel.is_empty() {
                        0
                    } else {
                        rel.value(col, rng.gen_range(0..rel.len()))
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rng, uniform_relation};
    use crate::queries::triangle;

    fn db() -> Database {
        let mut db = Database::new();
        let mut r = rng(11);
        db.add(uniform_relation(&mut r, "R", 2, 100, 30)).unwrap();
        db.add(uniform_relation(&mut r, "S", 2, 100, 30)).unwrap();
        db.add(uniform_relation(&mut r, "T", 2, 100, 30)).unwrap();
        db
    }

    #[test]
    fn random_requests_are_in_domain() {
        let view = triangle("bfb").unwrap();
        let db = db();
        let doms = view.query().active_domains(&db).unwrap();
        let reqs = random_requests(&mut rng(1), &view, &db, 50);
        assert_eq!(reqs.len(), 50);
        let bound = view.bound_head();
        for r in &reqs {
            assert_eq!(r.len(), 2);
            for (val, var) in r.iter().zip(&bound) {
                assert!(doms[var.index()].rank(*val).is_some());
            }
        }
    }

    #[test]
    fn witness_requests_come_from_rows() {
        let view = triangle("bbf").unwrap();
        let db = db();
        let reqs = witness_requests(&mut rng(2), &view, &db, 50);
        assert_eq!(reqs.len(), 50);
        // Each value must appear in some column holding that variable.
        let doms = view.query().active_domains(&db).unwrap();
        let bound = view.bound_head();
        for r in &reqs {
            for (val, var) in r.iter().zip(&bound) {
                assert!(doms[var.index()].rank(*val).is_some());
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let view = triangle("bfb").unwrap();
        let db = db();
        let a = random_requests(&mut rng(9), &view, &db, 10);
        let b = random_requests(&mut rng(9), &view, &db, 10);
        assert_eq!(a, b);
    }
}
