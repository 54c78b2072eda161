//! HRJN-style rank join (Ilyas–Aref–Elmagarmid, VLDB J. 2004) — the
//! flagship "top-k join" operator of Part 1.
//!
//! A binary pull-based operator over two weight-ascending inputs. It
//! buffers everything it has pulled, joins new arrivals against the
//! opposite buffer, and holds join results in an output heap until the
//! **corner bound** guarantees no future result can be lighter:
//!
//! ```text
//! T = min( wL(first) + wR(current),  wL(current) + wR(first) )
//! ```
//!
//! Operators compose into left-deep trees (the output is again a
//! weight-ascending `RjTuple` stream), which is how multiway top-k
//! joins were built in this line of work.
//!
//! The paper's critique (counted in `tests/paper_claims.rs`, E08): the
//! buffers are
//! *intermediate results*. On adversarial inputs — e.g. inverted weight
//! correlation, where the lightest combination joins tuples from the
//! bottoms of both inputs — HRJN pulls everything and its buffered
//! state approaches the full quadratic join, while any-k's
//! preprocessing stays O(n).

use anyk_storage::{FxHashMap, Relation, RowId, Value};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A tuple flowing between rank-join operators: values + weight.
#[derive(Debug, Clone, PartialEq)]
pub struct RjTuple {
    /// Concatenated attribute values.
    pub values: Vec<Value>,
    /// Accumulated weight (lower = better).
    pub weight: f64,
}

/// Heap wrapper ordered by weight (min first) with deterministic ties.
#[derive(Debug)]
struct ByWeight(RjTuple, u64);
impl PartialEq for ByWeight {
    fn eq(&self, other: &Self) -> bool {
        self.0.weight == other.0.weight && self.1 == other.1
    }
}
impl Eq for ByWeight {}
impl PartialOrd for ByWeight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByWeight {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .weight
            .partial_cmp(&other.0.weight)
            .expect("no NaN weights")
            .then(self.1.cmp(&other.1))
    }
}

/// Statistics exposed by every rank-join input/operator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankJoinStats {
    /// Tuples pulled from base inputs (scan depth).
    pub pulled: u64,
    /// Peak buffered tuples across both hash buffers (the RAM-model
    /// intermediate-result cost).
    pub peak_buffered: u64,
}

/// A weight-ascending scan over a relation — the leaf input of a
/// rank-join tree. Sorting (by weight) happens at construction, like
/// the sorted lists rank join assumes.
pub struct SortedScan {
    rel: Relation,
    order: Vec<RowId>,
    pos: usize,
}

impl SortedScan {
    /// Sort `rel` by weight ascending and scan it.
    pub fn new(rel: Relation) -> Self {
        let mut order: Vec<RowId> = (0..rel.len() as RowId).collect();
        order.sort_by(|&a, &b| rel.weight(a).cmp(&rel.weight(b)).then(a.cmp(&b)));
        SortedScan { rel, order, pos: 0 }
    }
}

impl Iterator for SortedScan {
    type Item = RjTuple;

    fn next(&mut self) -> Option<RjTuple> {
        let &rid = self.order.get(self.pos)?;
        self.pos += 1;
        Some(RjTuple {
            values: self.rel.row(rid).to_vec(),
            weight: self.rel.weight(rid).get(),
        })
    }
}

/// The HRJN binary rank-join operator. `left_key`/`right_key` are
/// positions into the respective input tuples' values; outputs
/// concatenate left values then right values.
///
/// ```
/// use anyk_topk::rank_join::{RankJoin, SortedScan};
/// use anyk_storage::{RelationBuilder, Schema};
///
/// let mut l = RelationBuilder::new(Schema::new(["a", "b"]));
/// l.push_ints(&[1, 2], 0.5);
/// let mut r = RelationBuilder::new(Schema::new(["b", "c"]));
/// r.push_ints(&[2, 3], 0.25);
/// r.push_ints(&[2, 4], 1.0);
/// let rj = RankJoin::new(
///     SortedScan::new(l.finish()),
///     SortedScan::new(r.finish()),
///     vec![1], // left join key: column b
///     vec![0], // right join key: column b
/// );
/// let weights: Vec<f64> = rj.map(|t| t.weight).collect();
/// assert_eq!(weights, vec![0.75, 1.5]); // emitted in weight order
/// ```
pub struct RankJoin<L: Iterator<Item = RjTuple>, R: Iterator<Item = RjTuple>> {
    left: L,
    right: R,
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    left_buf: FxHashMap<Vec<Value>, Vec<RjTuple>>,
    right_buf: FxHashMap<Vec<Value>, Vec<RjTuple>>,
    left_first: Option<f64>,
    right_first: Option<f64>,
    left_cur: f64,
    right_cur: f64,
    left_done: bool,
    right_done: bool,
    /// Pull side alternation flag.
    pull_left: bool,
    out: BinaryHeap<Reverse<ByWeight>>,
    seq: u64,
    buffered: u64,
    stats: RankJoinStats,
}

impl<L: Iterator<Item = RjTuple>, R: Iterator<Item = RjTuple>> RankJoin<L, R> {
    /// Create the operator joining `left.values[left_key] ==
    /// right.values[right_key]`.
    pub fn new(left: L, right: R, left_key: Vec<usize>, right_key: Vec<usize>) -> Self {
        assert_eq!(left_key.len(), right_key.len());
        RankJoin {
            left,
            right,
            left_key,
            right_key,
            left_buf: FxHashMap::default(),
            right_buf: FxHashMap::default(),
            left_first: None,
            right_first: None,
            left_cur: f64::NEG_INFINITY,
            right_cur: f64::NEG_INFINITY,
            left_done: false,
            right_done: false,
            pull_left: true,
            out: BinaryHeap::new(),
            seq: 0,
            buffered: 0,
            stats: RankJoinStats::default(),
        }
    }

    /// Run statistics (scan depth, peak buffer size).
    pub fn stats(&self) -> RankJoinStats {
        self.stats
    }

    /// The corner bound: a lower bound on any future join result's
    /// weight. Infinite once both inputs are exhausted.
    fn threshold(&self) -> f64 {
        match (self.left_done, self.right_done) {
            (true, true) => f64::INFINITY,
            _ => {
                let lf = self.left_first.unwrap_or(f64::INFINITY);
                let rf = self.right_first.unwrap_or(f64::INFINITY);
                let a = if self.right_done {
                    f64::INFINITY
                } else {
                    lf + self.right_cur.max(rf)
                };
                let b = if self.left_done {
                    f64::INFINITY
                } else {
                    self.left_cur.max(lf) + rf
                };
                a.min(b)
            }
        }
    }

    fn pull_one(&mut self) {
        // Alternate sides; skip exhausted sides.
        for _ in 0..2 {
            let side_left = self.pull_left;
            self.pull_left = !self.pull_left;
            if side_left && !self.left_done {
                match self.left.next() {
                    Some(t) => {
                        self.stats.pulled += 1;
                        if self.left_first.is_none() {
                            self.left_first = Some(t.weight);
                        }
                        self.left_cur = t.weight;
                        let key: Vec<Value> = self.left_key.iter().map(|&p| t.values[p]).collect();
                        // Join against the right buffer.
                        if let Some(matches) = self.right_buf.get(&key) {
                            for r in matches {
                                let mut values = t.values.clone();
                                values.extend_from_slice(&r.values);
                                self.seq += 1;
                                self.out.push(Reverse(ByWeight(
                                    RjTuple {
                                        values,
                                        weight: t.weight + r.weight,
                                    },
                                    self.seq,
                                )));
                            }
                        }
                        self.left_buf.entry(key).or_default().push(t);
                        self.buffered += 1;
                        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered);
                        return;
                    }
                    None => self.left_done = true,
                }
            } else if !side_left && !self.right_done {
                match self.right.next() {
                    Some(t) => {
                        self.stats.pulled += 1;
                        if self.right_first.is_none() {
                            self.right_first = Some(t.weight);
                        }
                        self.right_cur = t.weight;
                        let key: Vec<Value> = self.right_key.iter().map(|&p| t.values[p]).collect();
                        if let Some(matches) = self.left_buf.get(&key) {
                            for l in matches {
                                let mut values = l.values.clone();
                                values.extend_from_slice(&t.values);
                                self.seq += 1;
                                self.out.push(Reverse(ByWeight(
                                    RjTuple {
                                        values,
                                        weight: l.weight + t.weight,
                                    },
                                    self.seq,
                                )));
                            }
                        }
                        self.right_buf.entry(key).or_default().push(t);
                        self.buffered += 1;
                        self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffered);
                        return;
                    }
                    None => self.right_done = true,
                }
            }
        }
    }
}

impl<L: Iterator<Item = RjTuple>, R: Iterator<Item = RjTuple>> Iterator for RankJoin<L, R> {
    type Item = RjTuple;

    fn next(&mut self) -> Option<RjTuple> {
        loop {
            // Emit when the cheapest held result beats the bound.
            if let Some(Reverse(ByWeight(t, _))) = self.out.peek() {
                if t.weight <= self.threshold() {
                    let Reverse(ByWeight(t, _)) = self.out.pop().unwrap();
                    return Some(t);
                }
            }
            if self.left_done && self.right_done {
                return self.out.pop().map(|Reverse(ByWeight(t, _))| t);
            }
            self.pull_one();
        }
    }
}

/// A boxed rank-join stream (type-erased, for dynamic operator trees).
pub type BoxedRjStream = Box<dyn Iterator<Item = RjTuple>>;

/// Build a left-deep HRJN tree for a *path* join over binary relations:
/// `rels[0](x0,x1) ⋈ rels[1](x1,x2) ⋈ ...`, joining column 1 of the
/// accumulated stream's last relation with column 0 of the next.
/// Returns a weight-ascending stream of concatenated tuples.
pub fn rank_join_path(rels: Vec<Relation>) -> BoxedRjStream {
    assert!(!rels.is_empty());
    for r in &rels {
        assert_eq!(r.arity(), 2, "rank_join_path expects binary relations");
    }
    let mut iter = rels.into_iter();
    let mut stream: BoxedRjStream = Box::new(SortedScan::new(iter.next().unwrap()));
    let mut width = 2usize; // values per tuple in `stream`
    for rel in iter {
        let join_pos = width - 1; // last column of the accumulated tuple
        stream = Box::new(RankJoin::new(
            stream,
            SortedScan::new(rel),
            vec![join_pos],
            vec![0],
        ));
        width += 2;
    }
    stream
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_storage::{RelationBuilder, Schema};

    fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    /// Oracle: all join results sorted by total weight.
    fn oracle(l: &[(i64, i64, f64)], r: &[(i64, i64, f64)]) -> Vec<f64> {
        let mut out = Vec::new();
        for &(_, b, wl) in l {
            for &(b2, _, wr) in r {
                if b == b2 {
                    out.push(wl + wr);
                }
            }
        }
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    #[test]
    fn binary_join_in_weight_order() {
        let l = [(1, 2, 0.5), (3, 2, 1.0), (4, 5, 0.25)];
        let r = [(2, 7, 0.125), (2, 8, 2.0), (5, 9, 1.5)];
        let rj = RankJoin::new(
            SortedScan::new(edge_rel(&l)),
            SortedScan::new(edge_rel(&r)),
            vec![1],
            vec![0],
        );
        let got: Vec<f64> = rj.map(|t| t.weight).collect();
        assert_eq!(got, oracle(&l, &r));
    }

    #[test]
    fn early_emission_on_correlated_input() {
        // Lightest tuples join: first result must come after few pulls.
        let n = 100i64;
        let l: Vec<(i64, i64, f64)> = (0..n).map(|i| (i, i, i as f64)).collect();
        let r: Vec<(i64, i64, f64)> = (0..n).map(|i| (i, i, i as f64)).collect();
        let mut rj = RankJoin::new(
            SortedScan::new(edge_rel(&l)),
            SortedScan::new(edge_rel(&r)),
            vec![1],
            vec![0],
        );
        let first = rj.next().unwrap();
        assert_eq!(first.weight, 0.0);
        assert!(rj.stats().pulled < 10, "pulled {}", rj.stats().pulled);
    }

    #[test]
    fn adversarial_inverted_weights_force_deep_scans() {
        // Anti-correlated weights: left key i has weight i, right key i
        // has weight n - i, so every join result totals exactly n. The
        // corner bound reaches n only when one side is nearly
        // exhausted — HRJN must scan deep before it can emit anything
        // (the Part-1 worst case the paper highlights).
        let n = 50i64;
        let l: Vec<(i64, i64, f64)> = (0..n).map(|i| (i, i, i as f64)).collect();
        let r: Vec<(i64, i64, f64)> = (0..n).map(|i| (i, i, (n - i) as f64)).collect();
        let mut rj = RankJoin::new(
            SortedScan::new(edge_rel(&l)),
            SortedScan::new(edge_rel(&r)),
            vec![1],
            vec![0],
        );
        let first = rj.next().unwrap();
        assert_eq!(first.weight, n as f64);
        assert!(
            rj.stats().pulled >= (n as u64) * 3 / 2,
            "must scan deep before first emission, pulled {}",
            rj.stats().pulled
        );
    }

    #[test]
    fn composes_into_left_deep_tree() {
        // 3-path via two stacked operators.
        let r1 = [(1, 2, 0.5), (1, 3, 1.0)];
        let r2 = [(2, 4, 0.25), (3, 4, 0.125), (2, 5, 3.0)];
        let r3 = [(4, 9, 1.0), (5, 9, 0.5)];
        let lower = RankJoin::new(
            SortedScan::new(edge_rel(&r1)),
            SortedScan::new(edge_rel(&r2)),
            vec![1],
            vec![0],
        );
        // lower output values: [a, b, b, c] — join on position 3 (c).
        let upper = RankJoin::new(lower, SortedScan::new(edge_rel(&r3)), vec![3], vec![0]);
        let got: Vec<f64> = upper.map(|t| t.weight).collect();
        // Oracle: paths a-b-c-d:
        // (1,2,4,9): .5+.25+1 = 1.75 ; (1,3,4,9): 1+.125+1 = 2.125
        // (1,2,5,9): .5+3+.5 = 4.0
        assert_eq!(got, vec![1.75, 2.125, 4.0]);
    }

    #[test]
    fn rank_join_path_matches_manual_tree() {
        let r1 = [(1, 2, 0.5), (1, 3, 1.0)];
        let r2 = [(2, 4, 0.25), (3, 4, 0.125), (2, 5, 3.0)];
        let r3 = [(4, 9, 1.0), (5, 9, 0.5)];
        let auto: Vec<f64> = rank_join_path(vec![edge_rel(&r1), edge_rel(&r2), edge_rel(&r3)])
            .map(|t| t.weight)
            .collect();
        assert_eq!(auto, vec![1.75, 2.125, 4.0]);
    }

    #[test]
    fn empty_inputs() {
        let rj = RankJoin::new(
            SortedScan::new(edge_rel(&[])),
            SortedScan::new(edge_rel(&[(1, 2, 0.5)])),
            vec![1],
            vec![0],
        );
        assert_eq!(rj.count(), 0);
    }
}
