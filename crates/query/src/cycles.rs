//! Cycle-query recognition and submodular-width facts.
//!
//! The paper's headline cyclic example: the 4-cycle has fractional
//! hypertree width 2 but **submodular width 1.5**, achieved by
//! decomposing into a *union of multiple trees*, each receiving a subset
//! of the input (§3, referencing Marx and PANDA). The executable C4 plan
//! (heavy/light case split) lives in `anyk_join::c4`; this module
//! provides the structural side: recognizing cycle queries, the known
//! subw values, and the heavy-degree threshold.

use crate::cq::ConjunctiveQuery;

/// If `q` is the standard `l`-cycle `R_1(x1,x2), ..., R_l(x_l,x_1)` (up
/// to variable naming, atoms in cycle order), return `l`.
///
/// Recognition is deliberately syntactic: binary atoms, atom `i` shares
/// its second variable with atom `i+1`'s first, and the last closes the
/// cycle with the first. (General cycle detection up to isomorphism is
/// not needed: workload generators emit this canonical shape.)
pub fn cycle_length(q: &ConjunctiveQuery) -> Option<usize> {
    let l = q.num_atoms();
    if l < 3 || q.num_vars() != l {
        return None;
    }
    for a in q.atoms() {
        if a.vars.len() != 2 {
            return None;
        }
    }
    for i in 0..l {
        let cur = &q.atom(i).vars;
        let nxt = &q.atom((i + 1) % l).vars;
        if cur[1] != nxt[0] {
            return None;
        }
    }
    // All first variables distinct (true when num_vars == l and the
    // chain condition holds, but keep the explicit check).
    let mut seen = vec![false; q.num_vars()];
    for i in 0..l {
        let v = q.atom(i).vars[0];
        if seen[v] {
            return None;
        }
        seen[v] = true;
    }
    Some(l)
}

/// The submodular width of the `l`-cycle: `2 - 1/ceil(l/2)` (Marx 2013 —
/// quoted for the 4-cycle as 1.5 in §3 of the paper).
pub fn cycle_submodular_width(l: usize) -> f64 {
    assert!(l >= 3);
    2.0 - 1.0 / ((l as f64) / 2.0).ceil()
}

/// Degree threshold separating heavy from light values in the C4 plan:
/// values with more than `sqrt(n)` occurrences are heavy, so there are
/// at most `sqrt(n)` heavy values.
pub fn heavy_threshold(n: usize) -> usize {
    (n as f64).sqrt().ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{cycle_query, path_query, star_query, QueryBuilder};

    #[test]
    fn recognizes_cycles() {
        for l in 3..=7 {
            assert_eq!(cycle_length(&cycle_query(l)), Some(l));
        }
    }

    #[test]
    fn rejects_non_cycles() {
        assert_eq!(cycle_length(&path_query(3)), None);
        assert_eq!(cycle_length(&star_query(3)), None);
        let q = QueryBuilder::new()
            .atom("R", &["a", "b", "c"])
            .atom("S", &["c", "a"])
            .atom("T", &["b", "a"])
            .build();
        assert_eq!(cycle_length(&q), None);
    }

    #[test]
    fn subw_values() {
        assert!((cycle_submodular_width(3) - 1.5).abs() < 1e-12);
        assert!((cycle_submodular_width(4) - 1.5).abs() < 1e-12);
        assert!((cycle_submodular_width(5) - 5.0 / 3.0).abs() < 1e-12);
        assert!((cycle_submodular_width(6) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_threshold_sqrt() {
        assert_eq!(heavy_threshold(100), 10);
        assert_eq!(heavy_threshold(101), 11);
        assert_eq!(heavy_threshold(1), 1);
    }
}
