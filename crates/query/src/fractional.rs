//! Fractional edge cover numbers (paper Definition 5.1).
//!
//! `ρ*(Q)` is the optimum of the LP: minimize `Σ_e w_e` subject to
//! `Σ_{e ∋ x} w_e >= 1` for every attribute `x`, `w >= 0`. It bounds the
//! join size (`|Q(R)| <= N^{ρ*}`, AGM) and defines GHD width.
//!
//! Query hypergraphs are tiny (≤ ~8 relations), so instead of a general
//! simplex implementation we solve the LP by **vertex enumeration**: the
//! optimum of a bounded feasible LP is attained at a vertex, i.e. at a point
//! where `n` linearly independent constraints (cover rows or
//! non-negativities) hold with equality. With `n + m <= 16` constraints this
//! is at most `C(16, 8) = 12870` small linear solves — instantaneous, and
//! far easier to make robust than pivoting rules. An optimal cover never
//! pays more than weight 1 on an edge (coefficients are 0/1), so the
//! `w_e <= 1` cap of Definition 5.1 is not binding and is omitted.

use crate::hypergraph::Query;

/// Solves `min Σ w` s.t. `cover_rows · w >= 1`, `w >= 0` by vertex
/// enumeration. `rows[r]` lists the variable indices with coefficient 1 in
/// row `r`. Returns `(optimum, witness)`.
///
/// # Panics
/// Panics if some row is empty (an attribute covered by no edge — an
/// ill-formed hypergraph).
pub(crate) fn min_fractional_cover(num_vars: usize, rows: &[Vec<usize>]) -> (f64, Vec<f64>) {
    assert!(num_vars > 0);
    for r in rows {
        assert!(!r.is_empty(), "attribute covered by no relation");
    }
    // Constraint matrix: m cover rows (>= 1) then n non-negativity rows
    // (>= 0).
    let m = rows.len();
    let total = m + num_vars;
    let mut best = f64::INFINITY;
    let mut best_w = vec![1.0; num_vars]; // all-ones is always feasible
    if m == 0 {
        return (0.0, vec![0.0; num_vars]);
    }

    let mut combo: Vec<usize> = (0..num_vars).collect();
    loop {
        // Build the n x n system for this active set.
        let mut a = vec![vec![0.0f64; num_vars]; num_vars];
        let mut b = vec![0.0f64; num_vars];
        for (i, &c) in combo.iter().enumerate() {
            if c < m {
                for &v in &rows[c] {
                    a[i][v] = 1.0;
                }
                b[i] = 1.0;
            } else {
                a[i][c - m] = 1.0;
                b[i] = 0.0;
            }
        }
        if let Some(w) = solve_linear(&mut a, &mut b) {
            if is_feasible(&w, rows) {
                let obj: f64 = w.iter().sum();
                if obj < best - 1e-12 {
                    best = obj;
                    best_w = w;
                }
            }
        }
        if !next_combination(&mut combo, total) {
            break;
        }
    }
    (best, best_w)
}

/// Fractional edge cover number `ρ*` of a whole query.
pub fn rho_star(q: &Query) -> f64 {
    let rows: Vec<Vec<usize>> = (0..q.num_attrs())
        .map(|a| q.relations_with_attr(a))
        .collect();
    min_fractional_cover(q.num_relations(), &rows).0
}

fn is_feasible(w: &[f64], rows: &[Vec<usize>]) -> bool {
    const EPS: f64 = 1e-9;
    if w.iter().any(|&x| x < -EPS) {
        return false;
    }
    rows.iter()
        .all(|r| r.iter().map(|&v| w[v]).sum::<f64>() >= 1.0 - EPS)
}

/// Gaussian elimination with partial pivoting; `None` for singular systems.
fn solve_linear(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot =
            (col..n).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            if f != 0.0 {
                for k in col..n {
                    a[row][k] -= f * a[col][k];
                }
                b[row] -= f * b[col];
            }
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut s = b[row];
        for k in (row + 1)..n {
            s -= a[row][k] * x[k];
        }
        x[row] = s / a[row][row];
    }
    Some(x)
}

/// Advances `combo` to the next k-subset of `0..total` in lexicographic
/// order; `false` when exhausted.
fn next_combination(combo: &mut [usize], total: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] < total - (k - i) {
            combo[i] += 1;
            for j in (i + 1)..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::QueryBuilder;

    fn q(specs: &[(&str, &[&str])]) -> Query {
        let mut qb = QueryBuilder::new();
        for (name, attrs) in specs {
            qb.relation(name, attrs);
        }
        qb.build().unwrap()
    }

    #[test]
    fn triangle_rho_is_three_halves() {
        let t = q(&[
            ("R1", &["X", "Y"]),
            ("R2", &["Y", "Z"]),
            ("R3", &["Z", "X"]),
        ]);
        assert!((rho_star(&t) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn line3_rho_is_two() {
        let l = q(&[
            ("G1", &["A", "B"]),
            ("G2", &["B", "C"]),
            ("G3", &["C", "D"]),
        ]);
        // Cover: G1 + G3 with weight 1 each covers all of A,B,C,D.
        assert!((rho_star(&l) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_table_rho() {
        let l = q(&[("R1", &["X", "Y"]), ("R2", &["Y", "Z"])]);
        assert!((rho_star(&l) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn star4_rho_is_four() {
        // Star: k edges sharing a hub; each leaf attr needs its own edge.
        let s = q(&[
            ("G1", &["A", "B1"]),
            ("G2", &["A", "B2"]),
            ("G3", &["A", "B3"]),
            ("G4", &["A", "B4"]),
        ]);
        assert!((rho_star(&s) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cycle4_rho_is_two() {
        let c = q(&[
            ("R1", &["A", "B"]),
            ("R2", &["B", "C"]),
            ("R3", &["C", "D"]),
            ("R4", &["D", "A"]),
        ]);
        // Opposite edges cover the 4-cycle.
        assert!((rho_star(&c) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cycle5_rho_is_five_halves() {
        let c = q(&[
            ("R1", &["A", "B"]),
            ("R2", &["B", "C"]),
            ("R3", &["C", "D"]),
            ("R4", &["D", "E"]),
            ("R5", &["E", "A"]),
        ]);
        // Odd cycle: every vertex-cover LP argument gives k/2.
        assert!((rho_star(&c) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn witness_is_a_valid_cover() {
        let t = q(&[
            ("R1", &["X", "Y"]),
            ("R2", &["Y", "Z"]),
            ("R3", &["Z", "X"]),
        ]);
        let rows: Vec<Vec<usize>> = (0..t.num_attrs())
            .map(|a| t.relations_with_attr(a))
            .collect();
        let (obj, w) = min_fractional_cover(t.num_relations(), &rows);
        assert!((obj - w.iter().sum::<f64>()).abs() < 1e-9);
        for r in &rows {
            assert!(r.iter().map(|&v| w[v]).sum::<f64>() >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn combination_iterator_counts() {
        let mut combo = vec![0, 1, 2];
        let mut count = 1;
        while next_combination(&mut combo, 6) {
            count += 1;
        }
        assert_eq!(count, 20); // C(6,3)
    }
}
