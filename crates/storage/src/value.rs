//! Scalar values and tuple weights.
//!
//! [`Value`] is a small, `Copy` scalar: joins compare and hash values
//! billions of times, so the representation must be branch-cheap and at
//! most 16 bytes. Strings are interned in the [`Catalog`](crate::Catalog)
//! and represented by a `u32` symbol.
//!
//! [`Weight`] is an `f64` with a *total* order (NaN is banned at
//! construction), so weights can live in `BinaryHeap`s and be sorted
//! without `partial_cmp` unwrapping.

use std::cmp::Ordering;
use std::fmt;

/// A scalar attribute value.
///
/// The ordering is total: integers first (by value), then floats, then
/// interned strings (by symbol id — i.e. *not* lexicographic; use the
/// catalog to resolve symbols when a human-readable order is needed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// 64-bit integer (also used for node ids in graph workloads).
    Int(i64),
    /// Total-ordered float (bit pattern of a non-NaN f64).
    Float(FloatBits),
    /// Interned string symbol (see [`Catalog`](crate::Catalog)).
    Sym(u32),
}

impl Value {
    /// Build a float value. Panics on NaN.
    #[inline]
    pub fn float(f: f64) -> Self {
        Value::Float(FloatBits::new(f))
    }

    /// The integer payload, if this is an `Int`.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The integer payload; panics otherwise. Convenient in tests and in
    /// graph workloads where all join attributes are node ids.
    #[inline]
    pub fn int(self) -> i64 {
        match self {
            Value::Int(i) => i,
            other => panic!("expected Value::Int, got {other:?}"),
        }
    }
}

impl Value {
    /// An order-preserving, injective `(tag, key)` pair: comparing two
    /// values is comparing their pairs, and equal pairs mean equal
    /// values. Sorts (the trie build) compare these integers instead of
    /// matching on the enum per comparison.
    #[inline]
    pub(crate) fn order_key(self) -> (u8, u64) {
        match self {
            // Flipping the sign bit maps i64 order onto u64 order.
            Value::Int(i) => (0, i as u64 ^ (1 << 63)),
            Value::Float(f) => (1, key(f.0)),
            Value::Sym(s) => (2, s as u64),
        }
    }

    /// The value [`Value::order_key`] maps to `(tag, key)`: the trie
    /// build reads a level's values back out of its sort records.
    ///
    /// # Panics
    ///
    /// If no value has this pair.
    #[inline]
    pub(crate) fn from_order_key(tag: u8, key: u64) -> Self {
        match tag {
            0 => Value::Int((key ^ (1 << 63)) as i64),
            // `key` set the top bit of a non-negative float's pattern
            // and flipped every bit of a negative one's.
            1 if key >> 63 == 1 => Value::Float(FloatBits(key ^ (1 << 63))),
            1 => Value::Float(FloatBits(!key)),
            2 => Value::Sym(u32::try_from(key).expect("a symbol's key is its id")),
            _ => panic!("no value has order tag {tag}"),
        }
    }
}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.cmp(b),
            (Sym(a), Sym(b)) => a.cmp(b),
            (Int(_), _) => Ordering::Less,
            (_, Int(_)) => Ordering::Greater,
            (Float(_), Sym(_)) => Ordering::Less,
            (Sym(_), Float(_)) => Ordering::Greater,
        }
    }
}

impl From<i64> for Value {
    #[inline]
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    #[inline]
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(b) => write!(f, "{}", b.get()),
            Value::Sym(s) => write!(f, "#{s}"),
        }
    }
}

/// A non-NaN `f64` stored by bit pattern with a total order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FloatBits(u64);

impl FloatBits {
    /// Wrap a float; panics on NaN (NaN has no place in ranking).
    #[inline]
    pub fn new(f: f64) -> Self {
        assert!(!f.is_nan(), "NaN is not a valid Value/Weight");
        FloatBits(f.to_bits())
    }

    /// The wrapped float.
    #[inline]
    pub fn get(self) -> f64 {
        f64::from_bits(self.0)
    }
}

impl PartialOrd for FloatBits {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FloatBits {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order on non-NaN floats: flip sign bit trick.
        let a = key(self.0);
        let b = key(other.0);
        a.cmp(&b)
    }
}

/// Monotone map from f64 bit pattern to u64 order key (non-NaN inputs).
#[inline]
fn key(bits: u64) -> u64 {
    if bits >> 63 == 0 {
        bits | (1 << 63) // positive: set top bit
    } else {
        !bits // negative: flip everything
    }
}

/// A tuple weight: a totally ordered `f64`. Lower weight = more important
/// (the paper's "k lightest 4-cycles" convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Weight(FloatBits);

impl Weight {
    /// Identity for additive ranking (weight 0).
    pub const ZERO: Weight = Weight(FloatBits(0));

    /// Build a weight; panics on NaN.
    #[inline]
    pub fn new(w: f64) -> Self {
        Weight(FloatBits::new(w))
    }

    /// The raw float.
    #[inline]
    pub fn get(self) -> f64 {
        self.0.get()
    }
}

impl From<f64> for Weight {
    #[inline]
    fn from(f: f64) -> Self {
        Weight::new(f)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Int(-5) < Value::Int(0));
    }

    #[test]
    fn cross_variant_ordering_is_total() {
        let vals = [Value::Int(3), Value::float(1.5), Value::Sym(7)];
        let mut sorted = vals;
        sorted.sort();
        assert_eq!(sorted[0], Value::Int(3));
        assert_eq!(sorted[2], Value::Sym(7));
    }

    #[test]
    fn order_key_agrees_with_ord_and_eq() {
        let vals = [
            Value::Int(i64::MIN),
            Value::Int(-1),
            Value::Int(0),
            Value::Int(i64::MAX),
            Value::float(f64::NEG_INFINITY),
            Value::float(-1.5),
            Value::float(-0.0),
            Value::float(0.0),
            Value::float(2.5),
            Value::float(f64::INFINITY),
            Value::Sym(0),
            Value::Sym(u32::MAX),
        ];
        for a in vals {
            let (tag, key) = a.order_key();
            assert_eq!(Value::from_order_key(tag, key), a);
            for b in vals {
                assert_eq!(
                    a.cmp(&b),
                    a.order_key().cmp(&b.order_key()),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn float_total_order() {
        let xs = [-1.0, -0.0, 0.0, 0.5, 1.0, f64::INFINITY, f64::NEG_INFINITY];
        let mut ws: Vec<Weight> = xs.iter().copied().map(Weight::new).collect();
        ws.sort();
        let got: Vec<f64> = ws.iter().map(|w| w.get()).collect();
        assert_eq!(got[0], f64::NEG_INFINITY);
        assert_eq!(*got.last().unwrap(), f64::INFINITY);
        // -0.0 sorts before +0.0 under the bit-flip order; both equal 0.0.
        assert!(got.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let _ = Weight::new(f64::NAN);
    }

    #[test]
    fn weight_zero() {
        assert_eq!(Weight::ZERO.get(), 0.0);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Weight::new(2.5).to_string(), "2.5");
    }
}
