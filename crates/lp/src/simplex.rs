//! A dense two-phase primal simplex solver.
//!
//! Solves `minimize c·x` subject to `A x {≤,=,≥} b`, `x ≥ 0`. Phase 1
//! minimizes the sum of artificial variables to find a basic feasible
//! solution; phase 2 optimizes the real objective. Bland's rule (smallest
//! index entering, smallest basis index on ratio ties) guarantees
//! termination. All arithmetic is `f64` with an absolute tolerance — the
//! cover programs solved here have tiny, well-scaled coefficients
//! (logarithms of relation sizes and 0/1 incidence entries).

use cqc_common::error::{CqcError, Result};

/// Comparison operator of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `a·x ≤ b`
    Le,
    /// `a·x = b`
    Eq,
    /// `a·x ≥ b`
    Ge,
}

/// A linear program in the form `min c·x  s.t.  A x {≤,=,≥} b,  x ≥ 0`.
#[derive(Debug, Clone)]
pub struct Lp {
    n: usize,
    objective: Vec<f64>,
    rows: Vec<Vec<f64>>,
    cmps: Vec<Cmp>,
    rhs: Vec<f64>,
    objective_negated: bool,
}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal variable assignment.
    pub x: Vec<f64>,
}

const EPS: f64 = 1e-9;

// Tableau pivots index several parallel arrays by the same column variable;
// index loops are the clearest formulation here.
#[allow(clippy::needless_range_loop)]
impl Lp {
    /// Creates a program over `n` non-negative variables minimizing
    /// `objective · x`.
    ///
    /// # Panics
    ///
    /// Panics if `objective.len() != n`.
    pub fn minimize(n: usize, objective: Vec<f64>) -> Lp {
        assert_eq!(objective.len(), n);
        Lp {
            n,
            objective,
            rows: Vec::new(),
            cmps: Vec::new(),
            rhs: Vec::new(),
            objective_negated: false,
        }
    }

    /// Creates a program maximizing `objective · x` (negates internally).
    pub fn maximize(n: usize, objective: Vec<f64>) -> Lp {
        let neg = objective.into_iter().map(|c| -c).collect();
        let mut lp = Lp::minimize(n, neg);
        lp.objective_negated = true;
        lp
    }

    /// Adds the constraint `coeffs · x  cmp  rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != n`.
    pub fn constraint(&mut self, coeffs: Vec<f64>, cmp: Cmp, rhs: f64) -> &mut Lp {
        assert_eq!(coeffs.len(), self.n);
        self.rows.push(coeffs);
        self.cmps.push(cmp);
        self.rhs.push(rhs);
        self
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.n
    }

    /// Solves the program.
    ///
    /// Every solve is attributed to the `Lp` build phase of
    /// [`cqc_common::metrics`] — this is the single funnel all §6 programs
    /// (MinDelayCover, MinSpaceCover, the ρ⁺ solves of the width search)
    /// pass through, so the benchmark can report total LP time
    /// (`lp.solve_ms`) without instrumenting each optimizer.
    ///
    /// # Errors
    ///
    /// [`CqcError::Lp`] when the program is infeasible or unbounded.
    pub fn solve(&self) -> Result<LpSolution> {
        let t0 = std::time::Instant::now();
        let out = self.solve_inner();
        cqc_common::metrics::record_build_phase(
            cqc_common::metrics::BuildPhase::Lp,
            t0.elapsed().as_nanos() as u64,
        );
        out
    }

    fn solve_inner(&self) -> Result<LpSolution> {
        let m = self.rows.len();
        let n = self.n;

        // Normalize to b >= 0.
        let mut rows = self.rows.clone();
        let mut cmps = self.cmps.clone();
        let mut rhs = self.rhs.clone();
        for i in 0..m {
            if rhs[i] < 0.0 {
                for a in rows[i].iter_mut() {
                    *a = -*a;
                }
                rhs[i] = -rhs[i];
                cmps[i] = match cmps[i] {
                    Cmp::Le => Cmp::Ge,
                    Cmp::Ge => Cmp::Le,
                    Cmp::Eq => Cmp::Eq,
                };
            }
        }

        // Column layout: [decision | slack/surplus | artificial | rhs].
        let n_slack = cmps.iter().filter(|c| **c != Cmp::Eq).count();
        let n_art = cmps.iter().filter(|c| **c != Cmp::Le).count();
        let total = n + n_slack + n_art;
        let rhs_col = total;

        let mut t = vec![vec![0.0f64; total + 1]; m];
        let mut basis = vec![usize::MAX; m];
        let mut slack_at = n;
        let mut art_at = n + n_slack;
        let art_start = n + n_slack;

        for i in 0..m {
            t[i][..n].copy_from_slice(&rows[i]);
            t[i][rhs_col] = rhs[i];
            match cmps[i] {
                Cmp::Le => {
                    t[i][slack_at] = 1.0;
                    basis[i] = slack_at;
                    slack_at += 1;
                }
                Cmp::Ge => {
                    t[i][slack_at] = -1.0;
                    slack_at += 1;
                    t[i][art_at] = 1.0;
                    basis[i] = art_at;
                    art_at += 1;
                }
                Cmp::Eq => {
                    t[i][art_at] = 1.0;
                    basis[i] = art_at;
                    art_at += 1;
                }
            }
        }

        // Phase 1: minimize the sum of artificials.
        if n_art > 0 {
            let mut cost = vec![0.0f64; total + 1];
            for j in art_start..total {
                cost[j] = 1.0;
            }
            // Zero out reduced costs of the basic (artificial) columns.
            for i in 0..m {
                if basis[i] >= art_start {
                    for j in 0..=total {
                        cost[j] -= t[i][j];
                    }
                }
            }
            Self::optimize(&mut t, &mut cost, &mut basis, total, rhs_col, usize::MAX)?;
            let phase1 = -cost[rhs_col];
            if phase1 > 1e-7 {
                return Err(CqcError::Lp("infeasible linear program".into()));
            }
            // Drive remaining artificials out of the basis.
            for i in 0..m {
                if basis[i] >= art_start {
                    if let Some(j) = (0..art_start).find(|&j| t[i][j].abs() > EPS) {
                        let mut dummy_cost = vec![0.0; total + 1];
                        Self::pivot(&mut t, &mut dummy_cost, &mut basis, i, j, total);
                    }
                    // If the row is all zeros it is redundant; the artificial
                    // stays basic at level zero, which is harmless as long as
                    // it never re-enters (phase 2 forbids artificial columns).
                }
            }
        }

        // Phase 2: minimize the real objective.
        let mut cost = vec![0.0f64; total + 1];
        cost[..n].copy_from_slice(&self.objective);
        for i in 0..m {
            let b = basis[i];
            if b < n && cost[b].abs() > 0.0 {
                let c = cost[b];
                for j in 0..=total {
                    cost[j] -= c * t[i][j];
                }
            }
        }
        Self::optimize(&mut t, &mut cost, &mut basis, total, rhs_col, art_start)?;

        let mut x = vec![0.0f64; n];
        for i in 0..m {
            if basis[i] < n {
                x[basis[i]] = t[i][rhs_col];
            }
        }
        let mut objective = self
            .objective
            .iter()
            .zip(&x)
            .map(|(c, v)| c * v)
            .sum::<f64>();
        if self.objective_negated {
            objective = -objective;
        }
        Ok(LpSolution { objective, x })
    }

    /// Runs simplex iterations on the tableau until optimal.
    ///
    /// `col_limit` restricts entering columns to indexes `< col_limit`
    /// (phase 2 uses it to forbid artificial columns).
    fn optimize(
        t: &mut [Vec<f64>],
        cost: &mut [f64],
        basis: &mut [usize],
        total: usize,
        rhs_col: usize,
        col_limit: usize,
    ) -> Result<()> {
        let m = t.len();
        let limit = col_limit.min(total);
        loop {
            // Bland's rule: smallest-index column with negative reduced cost.
            let Some(enter) = (0..limit).find(|&j| cost[j] < -EPS) else {
                return Ok(());
            };
            // Min ratio test; Bland tie-break on smallest basis index.
            let mut leave: Option<usize> = None;
            let mut best = f64::INFINITY;
            for (i, row) in t.iter().enumerate() {
                if row[enter] > EPS {
                    let ratio = row[rhs_col] / row[enter];
                    let better = ratio < best - EPS
                        || (ratio < best + EPS && leave.is_some_and(|l| basis[i] < basis[l]));
                    if better {
                        best = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(leave) = leave else {
                return Err(CqcError::Lp("unbounded linear program".into()));
            };
            let _ = m;
            Self::pivot_with_cost(t, cost, basis, leave, enter, total);
        }
    }

    fn pivot_with_cost(
        t: &mut [Vec<f64>],
        cost: &mut [f64],
        basis: &mut [usize],
        row: usize,
        col: usize,
        total: usize,
    ) {
        let piv = t[row][col];
        // Release too: a pivot this small scales its row by 10⁹ or more
        // (by ∞ at 0), and the tableau no longer encodes the program.
        assert!(
            piv.abs() > EPS,
            "pivot {piv} at ({row}, {col}) is (near) zero"
        );
        for j in 0..=total {
            t[row][j] /= piv;
        }
        for i in 0..t.len() {
            if i != row && t[i][col].abs() > EPS {
                let f = t[i][col];
                for j in 0..=total {
                    t[i][j] -= f * t[row][j];
                }
            }
        }
        if cost[col].abs() > EPS {
            let f = cost[col];
            for j in 0..=total {
                cost[j] -= f * t[row][j];
            }
        }
        basis[row] = col;
    }

    fn pivot(
        t: &mut [Vec<f64>],
        cost: &mut [f64],
        basis: &mut [usize],
        row: usize,
        col: usize,
        total: usize,
    ) {
        Self::pivot_with_cost(t, cost, basis, row, col, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// A zero pivot would divide its row by 0: it panics, in release
    /// builds too.
    #[test]
    #[should_panic(expected = "pivot 0 at (0, 0) is (near) zero")]
    fn a_zero_pivot_panics() {
        let mut t = [vec![0.0, 1.0, 2.0]];
        Lp::pivot_with_cost(&mut t, &mut [0.0; 3], &mut [1], 0, 0, 2);
    }

    #[test]
    fn simple_minimization() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6.
        let mut lp = Lp::minimize(2, vec![1.0, 1.0]);
        lp.constraint(vec![1.0, 2.0], Cmp::Ge, 4.0);
        lp.constraint(vec![3.0, 1.0], Cmp::Ge, 6.0);
        let s = lp.solve().unwrap();
        // Optimum at intersection: x = 8/5, y = 6/5, objective 14/5.
        assert_close(s.objective, 14.0 / 5.0);
        assert_close(s.x[0], 8.0 / 5.0);
        assert_close(s.x[1], 6.0 / 5.0);
    }

    #[test]
    fn maximization_with_le() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6.
        let mut lp = Lp::maximize(2, vec![3.0, 2.0]);
        lp.constraint(vec![1.0, 1.0], Cmp::Le, 4.0);
        lp.constraint(vec![1.0, 3.0], Cmp::Le, 6.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 12.0); // x=4, y=0.
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2  => x=6, y=4, obj=24.
        let mut lp = Lp::minimize(2, vec![2.0, 3.0]);
        lp.constraint(vec![1.0, 1.0], Cmp::Eq, 10.0);
        lp.constraint(vec![1.0, -1.0], Cmp::Eq, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 24.0);
        assert_close(s.x[0], 6.0);
        assert_close(s.x[1], 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = Lp::minimize(1, vec![1.0]);
        lp.constraint(vec![1.0], Cmp::Ge, 5.0);
        lp.constraint(vec![1.0], Cmp::Le, 3.0);
        assert!(lp.solve().is_err());
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = Lp::minimize(1, vec![-1.0]);
        lp.constraint(vec![1.0], Cmp::Ge, 1.0);
        assert!(lp.solve().is_err());
    }

    #[test]
    fn negative_rhs_normalized() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut lp = Lp::minimize(1, vec![1.0]);
        lp.constraint(vec![-1.0], Cmp::Le, -3.0);
        let s = lp.solve().unwrap();
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn triangle_cover_lp() {
        // Fractional edge cover of the triangle: three edges, each covering
        // two of three vertices; optimum 3/2 with weights 1/2.
        let mut lp = Lp::minimize(3, vec![1.0, 1.0, 1.0]);
        lp.constraint(vec![1.0, 0.0, 1.0], Cmp::Ge, 1.0); // x in R, T
        lp.constraint(vec![1.0, 1.0, 0.0], Cmp::Ge, 1.0); // y in R, S
        lp.constraint(vec![0.0, 1.0, 1.0], Cmp::Ge, 1.0); // z in S, T
        let s = lp.solve().unwrap();
        assert_close(s.objective, 1.5);
    }

    #[test]
    fn degenerate_redundant_rows() {
        // Duplicate equality rows should not break phase 1.
        let mut lp = Lp::minimize(2, vec![1.0, 0.0]);
        lp.constraint(vec![1.0, 1.0], Cmp::Eq, 2.0);
        lp.constraint(vec![1.0, 1.0], Cmp::Eq, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 0.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn zero_variable_program() {
        let lp = Lp::minimize(0, vec![]);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 0.0);
    }
}
