//! Decimal text without `core::fmt`: an integer, and an `f64` as
//! `Display` prints it — the shortest digits that read back as the same
//! float, laid out positionally.
//!
//! The float's digits are Ryū's (Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018) with its small tables, and one departure: an
//! exact tie between two shortest candidates rounds up in magnitude,
//! not to even, as `std` does (`1658206780088562.25` prints as
//! `…562.3`). The layout is `std`'s: never an exponent, so `1e21` is 22
//! digits and `5e-324` is `0.` and 323 zeros before the `5`. The tests
//! hold it to `format!("{x}")` over a sweep of every exponent and
//! re-derive each table entry it can read with exact arithmetic.

/// The longest integer: a sign and the 19 digits of `i64::MIN`, or
/// the 20 of `u64::MAX`.
pub(crate) const INT_LEN: usize = 21;

/// The longest text of an `f64`: `-0.`, 323 zeros and a `5`.
pub(crate) const FLOAT_LEN: usize = 327;

/// Writes `n`, after a `-` when `negative`, from `out[0]`; returns
/// its length. `out` holds [`INT_LEN`] bytes.
pub(crate) fn int(out: &mut [u8], negative: bool, n: u64) -> usize {
    let sign = usize::from(negative);
    out[0] = b'-';
    let len = sign + decimal_len(n);
    write_digits(&mut out[sign..len], n);
    len
}

/// Writes `x` as `Display` does from `out[0]`; returns its length.
/// `out` holds [`FLOAT_LEN`] bytes. NaN reads `NaN`, though no value or
/// weight can hold one.
pub(crate) fn float(out: &mut [u8], x: f64) -> usize {
    if x.is_nan() {
        out[..3].copy_from_slice(b"NaN");
        return 3;
    }
    let sign = usize::from(x.is_sign_negative());
    out[0] = b'-';
    let rest = &mut out[sign..];
    let magnitude = x.to_bits() & !(1 << 63);
    sign + if magnitude == 0 {
        rest[0] = b'0';
        1
    } else if x.is_infinite() {
        rest[..3].copy_from_slice(b"inf");
        3
    } else {
        let (digits, e10) = shortest(magnitude & MANTISSA_MASK, (magnitude >> 52) as u32);
        lay_out(rest, digits, e10)
    }
}

/// How many digits `n` has.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().unwrap_or(0) as usize + 1
}

/// `digits × 10^e10` written positionally from `out[0]`; returns its
/// length.
fn lay_out(out: &mut [u8], digits: u64, e10: i32) -> usize {
    let n = decimal_len(digits);
    // Where the point falls, counted in digits from the first.
    let point = n as i32 + e10;
    if point <= 0 {
        // `0.`, zeros, digits.
        let end = 2 + point.unsigned_abs() as usize + n;
        out[..end].fill(b'0');
        out[1] = b'.';
        write_digits(&mut out[..end], digits);
        end
    } else if (point as usize) < n {
        // Digits with the point among them: write them one place to
        // the right and move the integer part back over the gap.
        let point = point as usize;
        write_digits(&mut out[..n + 1], digits);
        out.copy_within(1..=point, 0);
        out[point] = b'.';
        n + 1
    } else {
        // Digits, then zeros up to the point.
        let end = point as usize;
        out[n..end].fill(b'0');
        write_digits(&mut out[..n], digits);
        end
    }
}

/// `"00"` to `"99"`.
const PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `n`'s decimal digits right-aligned in `out`, two a step.
fn write_digits(out: &mut [u8], mut n: u64) {
    let mut at = out.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        out[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n > 0 || at == out.len() {
        out[at - 1] = b'0' + n as u8;
    }
}

const MANTISSA_BITS: u32 = 52;
const MANTISSA_MASK: u64 = (1 << MANTISSA_BITS) - 1;
const BIAS: i32 = 1023;
/// Bits kept of each power of five and of each inverse.
const POW5_BITS: i32 = 125;

/// The shortest `(digits, e10)` with `digits × 10^e10` inside the
/// rounding interval of the positive float with these fields, closest
/// to it, ties up — Ryū's `d2d` without its round-half-even branch.
/// Ryū tracks whether all of `vr`'s dropped digits were zeros only to
/// send an exact tie to even; with ties going up nothing reads that,
/// so it is not tracked.
fn shortest(mantissa: u64, exponent: u32) -> (u64, i32) {
    let (e2, m2) = if exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, mantissa)
    } else {
        (
            exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | mantissa,
        )
    };
    // Round-half-even parsing: an even mantissa owns its bounds.
    let accept_bounds = m2 & 1 == 0;
    // The interval, in units of 2^e2: [mv - 1 - mm_shift, mv + 2] /
    // 4 ulps, narrower below a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(mantissa != 0 || exponent <= 1);

    // vr, vp, vm: the interval's middle and ends times 2^e2 / 10^e10,
    // a power of five and a shift. Where an end's product is exact, vm
    // may lose more digits and an excluded vp steps inside.
    let mut vm_is_trailing_zeros = false;
    let mut vp_excluded = false;
    let (e10, mul, j) = if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        // At most one of mm, mv, mp is a multiple of five.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp_excluded = multiple_of_pow5(mv + 2, q);
            }
        }
        let k = POW5_BITS + pow5_bits(q) - 1;
        (q as i32, pow5_inv(q), (-e2 + q as i32 + k) as u32)
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        if q <= 1 {
            // mm = mv - 1 - mm_shift ends in a zero bit iff mm_shift.
            vm_is_trailing_zeros = accept_bounds && mm_shift == 1;
            vp_excluded = !accept_bounds;
        }
        let i = (-e2) as u32 - q;
        let k = pow5_bits(i) - POW5_BITS;
        (q as i32 + e2, pow5(i), (q as i32 - k) as u32)
    };
    let scaled = |m: u64| mul_shift(m, mul, j) as u64;
    let mut vr = scaled(mv);
    let mut vp = scaled(mv + 2) - u64::from(vp_excluded);
    let mut vm = scaled(mv - 1 - mm_shift);

    // Drop digits while the interval still holds a shorter number;
    // the last dropped digit of vr rounds what is left.
    let mut removed = 0;
    let mut last = 0;
    if vm_is_trailing_zeros {
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        // vm itself is in the interval: drop its zeros too.
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        let outside = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
        (vr + u64::from(outside || last >= 5), e10 + removed)
    } else {
        // The common case: two digits at a time first.
        if vp / 100 > vm / 100 {
            last = vr % 100 / 10;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        (vr + u64::from(vr == vm || last >= 5), e10 + removed)
    }
}

/// ⌊log2 5^e⌋ + 1, the bit length of 5^e, for 0 ≤ e ≤ 3528.
fn pow5_bits(e: u32) -> i32 {
    ((e * 1_217_359) >> 19) as i32 + 1
}

/// ⌊log10 2^e⌋ for 0 ≤ e ≤ 1650.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// ⌊log10 5^e⌋ for 0 ≤ e ≤ 2620.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether 5^p divides `n`.
fn multiple_of_pow5(mut n: u64, p: u32) -> bool {
    let mut count = 0;
    while n.is_multiple_of(5) && count < p {
        n /= 5;
        count += 1;
    }
    count >= p
}

/// ⌊m × mul / 2^s⌋ for mul < 2^125 and 0 < s < 128, where it fits 128
/// bits: the product of `m` with each half of `mul`, shifted.
fn mul_shift(m: u64, mul: u128, s: u32) -> u128 {
    let low = u128::from(m) * (mul as u64 as u128);
    let high = u128::from(m) * (mul >> 64);
    if s >= 64 {
        ((low >> 64) + high) >> (s - 64)
    } else {
        (low >> s) + (high << (64 - s))
    }
}

/// Every 26th power of five in its top 125 bits, and what the others
/// need on top of a product: 2 bits an entry, 16 to a word.
const POW5_SPLIT: [u128; 13] = [
    0x10000000000000000000000000000000,
    0x14adf4b7320334b90000000000000000,
    0x1aba4714957d300d0e549208b31adb10,
    0x1145b7e285bf98f56dc6ad264d8f0866,
    0x1652efdc6018a1fceb1dbd923d8596ca,
    0x1cda62055b2d9d83b4c1b80b22ae923c,
    0x12a5568b9f52f4165bb28b4e8f7e4c30,
    0x1819651531f9e78ff08aed437682d4fb,
    0x1f25c186a6f04c28b4ee134ad99bf150,
    0x1420eb449c8842e616499ecb70c25f03,
    0x1a03fde214caf08585a56ead360865b0,
    0x10cfeb353a97dad8093db1d57999890b,
    0x15baaf44fa52673ecf38bb735e3f36ac,
];
const POW5_OFFSETS: [u32; 21] = [
    0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x40000000, 0x59695995, 0x55545555, 0x56555515,
    0x41150504, 0x40555410, 0x44555145, 0x44504540, 0x45555550, 0x40004000, 0x96440440, 0x55565565,
    0x54454045, 0x40154151, 0x55559155, 0x51405555, 0x00000105,
];

/// ⌊2^(bits(5^i) + 124) / 5^i⌋ + 1 for every 26th i, and the offsets.
const POW5_INV_SPLIT: [u128; 13] = [
    0x20000000000000000000000000000001,
    0x18c240c4aecb13bb52a6c95fc0655034,
    0x1327fc58da0f6ff57ca8d50071dfc806,
    0x1da48ce468e7c7026520247d3556476e,
    0x16ef5b40c2fc77796139cdd76802e6e9,
    0x11bebdf578b2f391f951a7ff43de8c79,
    0x1b758d848fac54b07be8bee8d6e957e8,
    0x153eda614071a3b78bd3f9e999a423ea,
    0x10701bd527b4978c0848f973cb3ee3ce,
    0x196fbb9bb44db44d153285ebb9efbfa2,
    0x13ae3591f5b4d936adeee7f86c07b696,
    0x1e74404f3daada914d686a4eaf182222,
    0x17900ea4fda7c25798c0a106e09ebd9f,
];
const POW5_INV_OFFSETS: [u32; 19] = [
    0x54544554, 0x04055545, 0x10041000, 0x00400414, 0x40010000, 0x41155555, 0x00000454, 0x00010044,
    0x40000000, 0x44000041, 0x50454450, 0x55550054, 0x51655554, 0x40004000, 0x01000001, 0x00010500,
    0x51515411, 0x05555554, 0x00000000,
];

/// 5^0 to 5^25.
const POW5: [u64; 26] = {
    let mut table = [1; 26];
    let mut i = 1;
    while i < 26 {
        table[i] = table[i - 1] * 5;
        i += 1;
    }
    table
};

/// The 2-bit correction of entry `i`.
fn offset(words: &[u32], i: u32) -> u128 {
    u128::from((words[i as usize / 16] >> ((i % 16) * 2)) & 3)
}

/// 5^i in its top 125 bits, for 0 ≤ i ≤ 325: every power a float
/// reaches, which the tests re-derive.
fn pow5(i: u32) -> u128 {
    let base = i / 26;
    let mul = POW5_SPLIT[base as usize];
    match i % 26 {
        0 => mul,
        rest => {
            let delta = (pow5_bits(i) - pow5_bits(base * 26)) as u32;
            mul_shift(POW5[rest as usize], mul, delta) + offset(&POW5_OFFSETS, i)
        }
    }
}

/// ⌊2^(bits(5^i) + 124) / 5^i⌋ + 1, for 0 ≤ i ≤ 290: every inverse a
/// float reaches, which the tests re-derive.
fn pow5_inv(i: u32) -> u128 {
    let base = i.div_ceil(26);
    let mul = POW5_INV_SPLIT[base as usize];
    match base * 26 - i {
        0 => mul,
        rest => {
            let delta = (pow5_bits(base * 26) - pow5_bits(i)) as u32;
            mul_shift(POW5[rest as usize], mul - 1, delta) + 1 + offset(&POW5_INV_OFFSETS, i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ours(x: f64) -> String {
        let mut buf = [0; FLOAT_LEN];
        let len = float(&mut buf, x);
        String::from_utf8(buf[..len].to_vec()).unwrap()
    }

    fn int_text(negative: bool, n: u64) -> String {
        let mut buf = [0; INT_LEN];
        let len = int(&mut buf, negative, n);
        String::from_utf8(buf[..len].to_vec()).unwrap()
    }

    /// One float against `Display`, with its bits in the message.
    fn check(x: f64) {
        assert_eq!(ours(x), x.to_string(), "{:#018x}", x.to_bits());
    }

    /// splitmix64: a fixed stream, so a failure reproduces.
    struct Seeded(u64);

    impl Seeded {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1), 53 bits.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The sweep's size: full in an optimized build, a sixteenth
    /// unoptimized so a debug `cargo test` stays quick.
    fn sized(n: usize) -> usize {
        if cfg!(debug_assertions) {
            n / 16
        } else {
            n
        }
    }

    #[test]
    fn integers_print_as_display_prints_them() {
        for n in [
            0,
            1,
            9,
            10,
            99,
            100,
            101,
            1_000,
            u64::MAX / 2,
            u64::MAX / 2 + 1,
            u64::MAX,
        ] {
            assert_eq!(int_text(false, n), n.to_string());
            assert_eq!(int_text(true, n), format!("-{n}"));
        }
        let mut rng = Seeded(0x5eed_0000);
        for _ in 0..sized(1 << 16) {
            let n = rng.next() >> (rng.next() % 64);
            assert_eq!(int_text(false, n), n.to_string());
        }
    }

    #[test]
    fn the_edges_print_as_display_prints_them() {
        for (x, want) in [
            (0.0, "0"),
            (-0.0, "-0"),
            (1.0, "1"),
            (-2.5, "-2.5"),
            (0.1, "0.1"),
            (0.3, "0.3"),
            (1e21, "1000000000000000000000"),
            (1e-7, "0.0000001"),
            (123.456, "123.456"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (f64::NAN, "NaN"),
            (1658206780088562.0 + 0.25, "1658206780088562.3"),
            (233115890514796.0 + 0.125, "233115890514796.13"),
        ] {
            assert_eq!(ours(x), want);
            if !x.is_nan() {
                check(x);
            }
        }
        let tiny = ours(5e-324);
        assert_eq!(tiny.len(), 2 + 323 + 1);
        assert_eq!(tiny, format!("0.{}5", "0".repeat(323)));
        assert_eq!(ours(-5e-324).len(), FLOAT_LEN);
        assert_eq!(ours(f64::MAX).len(), 309);
        check(f64::MAX);
        check(f64::MIN);
        check(f64::MIN_POSITIVE);
    }

    #[test]
    fn every_exponent_prints_as_display_prints_it() {
        let mut rng = Seeded(0x5eed_0001);
        let per_exponent = sized(1024);
        for exponent in 0..2047u64 {
            let mut mantissas = vec![0, 1, 2, MANTISSA_MASK - 1, MANTISSA_MASK];
            mantissas.extend((0..per_exponent).map(|_| rng.next() & MANTISSA_MASK));
            for m in mantissas {
                let x = f64::from_bits(exponent << 52 | m);
                check(x);
                check(-x);
            }
        }
    }

    #[test]
    fn powers_of_ten_and_their_neighbours_print_as_display_prints_them() {
        for e in -323..=308 {
            let x: f64 = format!("1e{e}").parse().unwrap();
            for bits in [x.to_bits() - 1, x.to_bits(), x.to_bits() + 1] {
                check(f64::from_bits(bits));
            }
        }
        let two53 = 1u64 << 53;
        for n in two53 - 4096..two53 + 4096 {
            check(n as f64);
            check(-(n as f64));
        }
        for n in 0..sized(1 << 16) as u64 {
            check(n as f64);
        }
    }

    #[test]
    fn ties_round_up_in_magnitude() {
        let mut rng = Seeded(0x5eed_0002);
        for _ in 0..sized(1 << 19) {
            let int = (1u64 << 47) + rng.next() % ((1 << 54) - (1 << 47));
            for tail in [0.25, 0.75, 0.125] {
                check(int as f64 + tail);
            }
        }
    }

    #[test]
    fn sums_of_weights_print_as_display_prints_them() {
        let mut rng = Seeded(0x5eed_0003);
        for _ in 0..sized(1 << 19) {
            check(rng.unit() + rng.unit());
            // Four-decimal weights, as `INSERT` text parses them.
            let a = (rng.next() % 100_000) as f64 / 10_000.0;
            let b = (rng.next() % 100_000) as f64 / 10_000.0;
            check(a);
            check(a + b);
            check(a + b + rng.unit());
        }
    }

    #[test]
    fn random_bits_print_as_display_prints_them() {
        let mut rng = Seeded(0x5eed_0004);
        for _ in 0..sized(1 << 22) {
            let x = f64::from_bits(rng.next());
            if !x.is_nan() {
                check(x);
            }
        }
    }

    /// A non-negative integer in base 2^32, least significant first.
    #[derive(Clone, PartialEq, Debug)]
    struct Big(Vec<u32>);

    impl Big {
        fn pow2(p: u32) -> Big {
            let mut limbs = vec![0; p as usize / 32 + 1];
            limbs[p as usize / 32] = 1 << (p % 32);
            Big(limbs)
        }

        fn pow5(p: u32) -> Big {
            let mut n = Big(vec![1]);
            for _ in 0..p {
                let mut carry = 0u64;
                for limb in &mut n.0 {
                    let v = u64::from(*limb) * 5 + carry;
                    *limb = v as u32;
                    carry = v >> 32;
                }
                if carry > 0 {
                    n.0.push(carry as u32);
                }
            }
            n
        }

        /// ⌊self / 5⌋.
        fn div5(&self) -> Big {
            let mut rem = 0u64;
            let mut limbs = self.0.clone();
            for limb in limbs.iter_mut().rev() {
                let v = rem << 32 | u64::from(*limb);
                *limb = (v / 5) as u32;
                rem = v % 5;
            }
            Big(limbs)
        }

        fn bits(&self) -> u32 {
            let top = self.0.iter().rposition(|&l| l != 0).unwrap();
            top as u32 * 32 + (32 - self.0[top].leading_zeros())
        }

        /// ⌊self / 2^s⌋ as a `u128` (it must fit).
        fn shr(&self, s: u32) -> u128 {
            let mut out = 0u128;
            for bit in (s..self.bits()).rev() {
                let set = self.0[bit as usize / 32] >> (bit % 32) & 1;
                out = out.checked_mul(2).unwrap() | u128::from(set);
            }
            out
        }
    }

    /// The exponents `shortest` can be asked for: which power of five
    /// and which inverse it reads, over every biased exponent.
    fn reachable() -> (u32, u32) {
        let (mut max_i, mut max_q) = (0, 0);
        for exponent in 0..2047 {
            let e2 = exponent.max(1) - BIAS - MANTISSA_BITS as i32 - 2;
            if e2 >= 0 {
                max_q = max_q.max(log10_pow2(e2) - u32::from(e2 > 3));
            } else {
                let q = log10_pow5(-e2) - u32::from(-e2 > 1);
                max_i = max_i.max((-e2) as u32 - q);
            }
        }
        (max_i, max_q)
    }

    #[test]
    fn every_table_entry_is_the_exact_power_of_five() {
        let (max_i, max_q) = reachable();
        assert_eq!((max_i, max_q), (325, 290));
        for (k, &p) in POW5.iter().enumerate() {
            assert_eq!(Big::pow5(k as u32).shr(0), u128::from(p));
        }
        for i in 0..=max_i {
            let exact = Big::pow5(i);
            let bits = exact.bits();
            assert_eq!(pow5_bits(i), bits as i32, "bits of 5^{i}");
            // The top 125 bits, or 5^i shifted up to 125 bits.
            let want = if bits >= 125 {
                exact.shr(bits - 125)
            } else {
                exact.shr(0) << (125 - bits)
            };
            assert_eq!(pow5(i), want, "5^{i}");
        }
        for q in 0..=max_q {
            let bits = Big::pow5(q).bits();
            let mut quotient = Big::pow2(bits - 1 + 125);
            for _ in 0..q {
                quotient = quotient.div5();
            }
            assert_eq!(pow5_inv(q), quotient.shr(0) + 1, "1 / 5^{q}");
        }
    }
}
