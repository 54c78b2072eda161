//! Cycle-query recognition and submodular-width facts.
//!
//! The paper's headline cyclic example: the ℓ-cycle has fractional
//! hypertree width 2 but **submodular width `2 − 1/⌈ℓ/2⌉`** (1.5 for
//! the 4-cycle), achieved by decomposing into a *union of multiple
//! trees*, each receiving a subset of the input (§3, referencing Marx
//! and PANDA). The executable plan (heavy/light case split over the
//! ℓ − 2 attributes inside the cycle's two half-chains) lives in
//! `anyk_join::cycle`; this module provides the structural side:
//! recognizing cycle queries, the known subw values, and the
//! heavy-degree threshold.

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

/// Degree threshold Δ separating heavy from light values in the
/// ℓ-cycle plan: the smallest `t` with `t^h ≥ n`, `h = ⌈ℓ/2⌉` — values
/// with more than `n^(1/h)` occurrences are heavy, so an attribute has
/// at most `n^(1−1/h)` heavy values, and `n²/Δ = n·Δ^(h−1)`.
///
/// Worked out in integers: the threshold decides the case list and
/// with it the order of cost ties, and `powf(1.0 / 3.0).ceil()` lands
/// on either side of a perfect cube depending on rounding.
pub fn cycle_heavy_threshold(n: usize, l: usize) -> usize {
    assert!(l >= 3);
    let h = l.div_ceil(2) as u32;
    // `n^h ≥ n` (and 0^h ≥ 0): the answer is in `0..=n`.
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if mid.checked_pow(h).is_none_or(|p| p >= n) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// [`cycle_heavy_threshold`] for the 4-cycle: `⌈√n⌉`, so there are at
/// most `√n` heavy values.
pub fn heavy_threshold(n: usize) -> usize {
    cycle_heavy_threshold(n, 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::{chorded_cycle_query, cycle_query, path_query, star_query, QueryBuilder};

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
        assert_eq!(cycle_length(&chorded_cycle_query(5)), None);
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

    #[test]
    fn integer_threshold_is_the_float_square_root_at_length_four() {
        // What `heavy_threshold` was before it became the h = 2
        // instance: exact for every n below 2^51.
        let float = |n: usize| (n as f64).sqrt().ceil() as usize;
        for n in 0..=100_000 {
            assert_eq!(heavy_threshold(n), float(n), "n = {n}");
        }
        for k in 1..=1usize << 16 {
            for n in [k * k - 1, k * k, k * k + 1] {
                assert_eq!(heavy_threshold(n), float(n), "n = {n}");
            }
        }
    }

    #[test]
    fn integer_threshold_is_exact_around_perfect_cubes() {
        for l in [5, 6] {
            assert_eq!(cycle_heavy_threshold(0, l), 0);
            assert_eq!(cycle_heavy_threshold(1, l), 1);
            for k in 2..=2_000usize {
                let cube = k * k * k;
                assert_eq!(cycle_heavy_threshold(cube - 1, l), k, "{k}^3 - 1");
                assert_eq!(cycle_heavy_threshold(cube, l), k, "{k}^3");
                assert_eq!(cycle_heavy_threshold(cube + 1, l), k + 1, "{k}^3 + 1");
            }
        }
        // ℓ = 7, 8: fourth roots; a power that overflows counts as
        // "large enough".
        assert_eq!(cycle_heavy_threshold(81, 7), 3);
        assert_eq!(cycle_heavy_threshold(82, 8), 4);
        assert_eq!(cycle_heavy_threshold(usize::MAX, 6), 2_642_246);
    }
}
