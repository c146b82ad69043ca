//! Arithmetic in GF(2^255 - 19), the base field of Curve25519.
//!
//! Elements are stored as five 51-bit little-endian limbs and are reduced
//! lazily. The invariant every caller keeps: **each limb is below 2^54 on
//! entry to [`FieldElement::mul`](Mul), [`FieldElement::square`] and
//! [`FieldElement::mul_small`]** (a `debug_assert!` checks it there). Under
//! it every `19·b` limb fits a `u64` and every column sum fits a `u128`.
//!
//! * `mul`, `square` and `mul_small` run one carry chain over the wide
//!   columns that ends in a single limb-0 carry: their limbs come out below
//!   2^51 + 2^13 ("reduced").
//! * `Add` does no carry pass at all. The sum of up to seven reduced
//!   elements stays below 2^54, which is all the curve formulas need.
//! * `Sub` and `Neg` add `16p` (so no limb underflows for any operand below
//!   2^54) and finish with one parallel weak reduction: reduced output.
//! * [`FieldElement::to_bytes`] is the only full reduction; equality, sign
//!   and zero tests go through it.

use core::ops::{Add, Mul, Neg, Sub};

/// Mask selecting the low 51 bits of a limb.
const LOW_51: u64 = (1 << 51) - 1;

/// Every limb of an operand of `mul`, `square` and `mul_small` stays below
/// this bound.
const LIMB_BOUND: u64 = 1 << 54;

/// `16p` in limb form: added before a subtraction so no limb underflows.
const SIXTEEN_P: [u64; 5] = [
    0x7f_ffff_ffff_fed0,
    0x7f_ffff_ffff_fff0,
    0x7f_ffff_ffff_fff0,
    0x7f_ffff_ffff_fff0,
    0x7f_ffff_ffff_fff0,
];

/// An element of GF(2^255 - 19).
#[derive(Debug, Clone, Copy)]
pub struct FieldElement {
    limbs: [u64; 5],
}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement { limbs: [0; 5] };
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement {
        limbs: [1, 0, 0, 0, 0],
    };

    /// Constructs an element from a small unsigned integer.
    pub const fn from_u64(v: u64) -> Self {
        FieldElement {
            limbs: [v & LOW_51, v >> 51, 0, 0, 0],
        }
    }

    /// Decodes an element from 32 little-endian bytes, ignoring the top bit
    /// (bit 255) per the Curve25519 conventions. Values in `[p, 2^255)` are
    /// accepted unreduced.
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        let load = |start: usize| -> u64 {
            let mut v = 0u64;
            for i in 0..8 {
                v |= (bytes[start + i] as u64) << (8 * i);
            }
            v
        };
        // Load 64-bit words then slice into 51-bit limbs.
        let w0 = load(0);
        let w1 = load(8);
        let w2 = load(16);
        let w3 = load(24);
        let limbs = [
            w0 & LOW_51,
            ((w0 >> 51) | (w1 << 13)) & LOW_51,
            ((w1 >> 38) | (w2 << 26)) & LOW_51,
            ((w2 >> 25) | (w3 << 39)) & LOW_51,
            (w3 >> 12) & LOW_51,
        ];
        FieldElement { limbs }
    }

    /// Encodes the element as 32 little-endian bytes in fully reduced form.
    ///
    /// A fixed sequence: one weak reduction brings the value below `2p`,
    /// then `q = 1` exactly when it is at least `p`, and adding `19q` and
    /// dropping bit 255 subtracts `qp`.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut l = Self::weak_reduce(self.limbs).limbs;
        let mut q = (l[0] + 19) >> 51;
        for i in 1..5 {
            q = (l[i] + q) >> 51;
        }
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= LOW_51;
        }
        l[4] &= LOW_51;
        let mut out = [0u8; 32];
        let w0 = l[0] | (l[1] << 51);
        let w1 = (l[1] >> 13) | (l[2] << 38);
        let w2 = (l[2] >> 26) | (l[3] << 25);
        let w3 = (l[3] >> 39) | (l[4] << 12);
        out[0..8].copy_from_slice(&w0.to_le_bytes());
        out[8..16].copy_from_slice(&w1.to_le_bytes());
        out[16..24].copy_from_slice(&w2.to_le_bytes());
        out[24..32].copy_from_slice(&w3.to_le_bytes());
        out
    }

    /// One parallel carry pass: every limb keeps its low 51 bits and passes
    /// the rest up (limb 4's excess wraps to limb 0 times 19). Limbs below
    /// 2^58 come out reduced.
    fn weak_reduce(l: [u64; 5]) -> Self {
        FieldElement {
            limbs: [
                (l[0] & LOW_51) + (l[4] >> 51) * 19,
                (l[1] & LOW_51) + (l[0] >> 51),
                (l[2] & LOW_51) + (l[1] >> 51),
                (l[3] & LOW_51) + (l[2] >> 51),
                (l[4] & LOW_51) + (l[3] >> 51),
            ],
        }
    }

    /// Checks the limb bound the multiplication kernels rely on.
    #[inline(always)]
    fn debug_assert_bounded(&self) {
        debug_assert!(
            self.limbs.iter().all(|&l| l < LIMB_BOUND),
            "field limb at or above 2^54: {:?}",
            self.limbs
        );
    }

    /// Returns `true` if the element equals zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Returns the least significant bit of the canonical encoding (used as
    /// the "sign" of an x-coordinate in point compression).
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Squares the element.
    ///
    /// Dedicated squaring: the symmetric cross terms of the schoolbook
    /// product collapse (`a_i·a_j + a_j·a_i = 2·a_i·a_j`), so 15 limb
    /// multiplications replace the generic 25. Squarings dominate both the
    /// Montgomery ladder and every exponentiation-based inversion, so this
    /// is the single hottest primitive in the crate.
    #[must_use]
    pub fn square(&self) -> Self {
        self.debug_assert_bounded();
        let a = &self.limbs;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let a3_19 = 19 * a[3];
        let a4_19 = 19 * a[4];

        let c0 = m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19));
        let c1 = m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19));
        let c2 = m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19));
        let c3 = m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2]));
        let c4 = m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3]));

        Self::carry_wide([c0, c1, c2, c3, c4])
    }

    /// Multiplies by a small constant (at most 17 bits, e.g. the ladder's
    /// `a24 = 121665`) without paying a full 25-multiplication product.
    #[must_use]
    pub fn mul_small(&self, k: u32) -> Self {
        self.debug_assert_bounded();
        let k = k as u128;
        let c = self.limbs.map(|l| (l as u128) * k);
        Self::carry_wide(c)
    }

    /// Reduces five wide column sums to a reduced element: one carry chain
    /// from column 0 to column 4, whose top carry wraps to limb 0 times 19,
    /// and one final carry out of limb 0. The shared tail of
    /// multiplication, squaring and small-constant multiplication.
    fn carry_wide(mut c: [u128; 5]) -> Self {
        for i in 0..4 {
            // Each carry fits a u64, so it joins the next column as one.
            c[i + 1] += ((c[i] >> 51) as u64) as u128;
        }
        let mut limbs = c.map(|w| (w as u64) & LOW_51);
        // Operands below 2^54 keep column 4 below 2^111, so `19·carry` fits.
        limbs[0] += ((c[4] >> 51) as u64) * 19;
        limbs[1] += limbs[0] >> 51;
        limbs[0] &= LOW_51;
        FieldElement { limbs }
    }

    /// Squares the element `n` times in sequence.
    #[must_use]
    fn square_n(&self, n: u32) -> Self {
        let mut out = *self;
        for _ in 0..n {
            out = out.square();
        }
        out
    }

    /// The shared prefix of the inversion and square-root addition chains:
    /// returns `(self^(2^250 - 1), self^11)`.
    fn pow22501(&self) -> (Self, Self) {
        let z2 = self.square();
        let z8 = z2.square_n(2);
        let z9 = z8 * *self;
        let z11 = z9 * z2;
        let z2_5_0 = z11.square() * z9; // 2^5 - 1
        let z2_10_0 = z2_5_0.square_n(5) * z2_5_0;
        let z2_20_0 = z2_10_0.square_n(10) * z2_10_0;
        let z2_40_0 = z2_20_0.square_n(20) * z2_20_0;
        let z2_50_0 = z2_40_0.square_n(10) * z2_10_0;
        let z2_100_0 = z2_50_0.square_n(50) * z2_50_0;
        let z2_200_0 = z2_100_0.square_n(100) * z2_100_0;
        let z2_250_0 = z2_200_0.square_n(50) * z2_50_0;
        (z2_250_0, z11)
    }

    /// Raises the element to the power encoded by `exponent` (little-endian
    /// bytes), via square-and-multiply.
    #[must_use]
    pub fn pow_le(&self, exponent: &[u8; 32]) -> Self {
        let mut result = FieldElement::ONE;
        // Find the highest set bit.
        let mut started = false;
        for bit in (0..256).rev() {
            if started {
                result = result.square();
            }
            if (exponent[bit / 8] >> (bit % 8)) & 1 == 1 {
                if started {
                    result = result * *self;
                } else {
                    result = *self;
                    started = true;
                }
            }
        }
        if started {
            result
        } else {
            FieldElement::ONE
        }
    }

    /// Multiplicative inverse (returns zero for zero).
    ///
    /// Uses the standard Curve25519 addition chain for `self^(p-2)`:
    /// 254 squarings and 11 multiplications, roughly half the cost of generic
    /// square-and-multiply over the nearly-all-ones exponent.
    #[must_use]
    pub fn invert(&self) -> Self {
        let (z2_250_0, z11) = self.pow22501();
        z2_250_0.square_n(5) * z11 // 2^255 - 21 = p - 2
    }

    /// Computes `self^((p-5)/8)`, the exponentiation used in square-root
    /// extraction during point decompression (same addition chain as
    /// [`Self::invert`], different tail).
    #[must_use]
    pub fn pow_p58(&self) -> Self {
        let (z2_250_0, _) = self.pow22501();
        z2_250_0.square_n(2) * *self // 2^252 - 3 = (p - 5) / 8
    }

    /// Returns sqrt(-1) mod p.
    ///
    /// The value is a fixed curve constant, so the exponentiation runs once
    /// per process; point decompression sits on the attestation hot path and
    /// must not pay a ~250-squaring `pow_le` per call.
    pub fn sqrt_m1() -> Self {
        static CACHE: std::sync::OnceLock<FieldElement> = std::sync::OnceLock::new();
        *CACHE.get_or_init(|| {
            // 2^((p-1)/4); (p-1)/4 = 2^253 - 5, bytes: 0xfb, 30 × 0xff, 0x1f.
            let mut exp = [0xffu8; 32];
            exp[0] = 0xfb;
            exp[31] = 0x1f;
            FieldElement::from_u64(2).pow_le(&exp)
        })
    }

    /// Constant-time-ish equality on canonical encodings.
    pub fn ct_equals(&self, other: &Self) -> bool {
        crate::ct::ct_eq(&self.to_bytes(), &other.to_bytes())
    }

    /// Conditionally swaps `a` and `b` when `choice` is 1.
    pub fn conditional_swap(choice: u8, a: &mut Self, b: &mut Self) {
        crate::ct::ct_swap_u64(choice, &mut a.limbs, &mut b.limbs);
    }

    /// Replaces `self` with `other` when `choice` is 1, without branching
    /// on `choice`.
    pub(crate) fn conditional_assign(&mut self, other: &Self, choice: u8) {
        let mask = (choice as u64).wrapping_neg();
        for (l, o) in self.limbs.iter_mut().zip(&other.limbs) {
            *l ^= mask & (*l ^ *o);
        }
    }
}

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

impl Eq for FieldElement {}

impl Add for FieldElement {
    type Output = FieldElement;
    /// Limb-wise sum with no carry pass (see the module doc for the bound).
    fn add(self, rhs: Self) -> Self {
        let mut limbs = self.limbs;
        for i in 0..5 {
            limbs[i] += rhs.limbs[i];
        }
        FieldElement { limbs }
    }
}

impl Sub for FieldElement {
    type Output = FieldElement;
    fn sub(self, rhs: Self) -> Self {
        let mut limbs = [0u64; 5];
        for i in 0..5 {
            limbs[i] = (self.limbs[i] + SIXTEEN_P[i]) - rhs.limbs[i];
        }
        FieldElement::weak_reduce(limbs)
    }
}

impl Neg for FieldElement {
    type Output = FieldElement;
    fn neg(self) -> Self {
        FieldElement::ZERO - self
    }
}

impl Mul for FieldElement {
    type Output = FieldElement;
    fn mul(self, rhs: Self) -> Self {
        self.debug_assert_bounded();
        rhs.debug_assert_bounded();
        let a = &self.limbs;
        let b = &rhs.limbs;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        // The wrapped-around columns, precomputed once as u64 (b < 2^54).
        let b1_19 = 19 * b[1];
        let b2_19 = 19 * b[2];
        let b3_19 = 19 * b[3];
        let b4_19 = 19 * b[4];

        let c0 = m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19);
        let c1 = m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19);
        let c2 = m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3_19) + m(a[3], b4_19);
        let c3 = m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4_19);
        let c4 = m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]);

        FieldElement::carry_wide([c0, c1, c2, c3, c4])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::U512;
    use proptest::prelude::*;

    fn fe(v: u64) -> FieldElement {
        FieldElement::from_u64(v)
    }

    fn modulus() -> U512 {
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        U512::from_le_bytes(&p)
    }

    /// The element's value `Σ limb_i · 2^(51i)` reduced mod p by the
    /// bit-serial oracle, independent of the kernels under test.
    fn value(x: &FieldElement) -> U512 {
        let mut acc = U512::ZERO;
        for &limb in x.limbs.iter().rev() {
            for _ in 0..51 {
                acc = acc.shl1();
            }
            acc = acc.wrapping_add(&U512::from_le_bytes(&limb.to_le_bytes()));
        }
        acc.reduce_mod(&modulus())
    }

    /// Limbs drawn up to the stated bound, 2^54 − 1.
    fn at_bound(bytes: &[u8; 40]) -> FieldElement {
        FieldElement {
            limbs: core::array::from_fn(|i| {
                u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
                    & (LIMB_BOUND - 1)
            }),
        }
    }

    /// Checks every kernel on `(a, b)` against the oracle, and that the
    /// outputs promised to be reduced are below 2^51 + 2^13.
    fn check_against_oracle(a: FieldElement, b: FieldElement) {
        let p = modulus();
        let (va, vb) = (value(&a), value(&b));
        let reduced = |x: &FieldElement| x.limbs.iter().all(|&l| l < (1 << 51) + (1 << 13));
        let cases = [
            (a * b, U512::mul_256(&va, &vb).reduce_mod(&p), true),
            (a.square(), U512::mul_256(&va, &va).reduce_mod(&p), true),
            (
                a.mul_small(121665),
                U512::mul_256(&va, &U512::from_le_bytes(&121665u32.to_le_bytes())).reduce_mod(&p),
                true,
            ),
            (a + b, va.wrapping_add(&vb).reduce_mod(&p), false),
            (
                a - b,
                va.wrapping_add(&p).wrapping_sub(&vb).reduce_mod(&p),
                true,
            ),
            (-a, p.wrapping_sub(&va).reduce_mod(&p), true),
        ];
        for (i, (got, expected, promised_reduced)) in cases.iter().enumerate() {
            assert_eq!(value(got), *expected, "kernel {i} on {a:?}, {b:?}");
            assert_eq!(
                got.to_bytes(),
                expected.to_le_bytes_32(),
                "kernel {i} encoding"
            );
            assert!(!promised_reduced || reduced(got), "kernel {i} left {got:?}");
        }
    }

    #[test]
    fn kernels_match_oracle_at_the_limb_bound() {
        let max = FieldElement {
            limbs: [LIMB_BOUND - 1; 5],
        };
        check_against_oracle(max, max);
        check_against_oracle(max, FieldElement::ZERO);
        check_against_oracle(FieldElement::ZERO, max);
        // p itself and p − 1 in canonical limbs.
        let p_minus_1 = -FieldElement::ONE;
        check_against_oracle(p_minus_1, p_minus_1);
        check_against_oracle(p_minus_1 + FieldElement::ONE, max);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = fe(123456789);
        let b = fe(987654321);
        assert_eq!((a + b) - b, a);
        assert_eq!(a - a, FieldElement::ZERO);
    }

    #[test]
    fn mul_matches_small_integers() {
        assert_eq!(fe(7) * fe(6), fe(42));
        assert_eq!(fe(1 << 30) * fe(1 << 30), fe(1 << 60));
    }

    #[test]
    fn inverse_is_correct() {
        let a = fe(1234567);
        assert_eq!(a * a.invert(), FieldElement::ONE);
        assert_eq!(FieldElement::ZERO.invert(), FieldElement::ZERO);
    }

    #[test]
    fn negation() {
        let a = fe(5);
        assert_eq!(a + (-a), FieldElement::ZERO);
    }

    #[test]
    fn bytes_round_trip() {
        let a = fe(0xdead_beef_cafe);
        let b = FieldElement::from_bytes(&a.to_bytes());
        assert_eq!(a, b);
    }

    #[test]
    fn modulus_encodes_to_zero() {
        // p = 2^255 - 19 should reduce to 0.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let p = FieldElement::from_bytes(&p_bytes);
        assert!(p.is_zero());
    }

    #[test]
    fn p_minus_one_is_minus_one() {
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xec;
        bytes[31] = 0x7f;
        let v = FieldElement::from_bytes(&bytes);
        assert_eq!(v + FieldElement::ONE, FieldElement::ZERO);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = FieldElement::sqrt_m1();
        assert_eq!(i.square(), -FieldElement::ONE);
    }

    #[test]
    fn pow_le_small_cases() {
        let two = fe(2);
        let mut exp = [0u8; 32];
        exp[0] = 10;
        assert_eq!(two.pow_le(&exp), fe(1024));
        let zero_exp = [0u8; 32];
        assert_eq!(two.pow_le(&zero_exp), FieldElement::ONE);
    }

    #[test]
    fn is_negative_of_small_values() {
        assert!(fe(1).is_negative());
        assert!(!fe(2).is_negative());
    }

    proptest! {
        #[test]
        fn mul_commutes(a in any::<u64>(), b in any::<u64>()) {
            prop_assert_eq!(fe(a) * fe(b), fe(b) * fe(a));
        }

        #[test]
        fn mul_distributes_over_add(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let (a, b, c) = (fe(a), fe(b), fe(c));
            prop_assert_eq!(a * (b + c), a * b + a * c);
        }

        #[test]
        fn invert_random(a in 1u64..) {
            prop_assert_eq!(fe(a) * fe(a).invert(), FieldElement::ONE);
        }

        #[test]
        fn square_matches_mul(a in any::<u64>()) {
            prop_assert_eq!(fe(a).square(), fe(a) * fe(a));
        }

        #[test]
        fn square_matches_mul_on_wide_elements(bytes in any::<[u8; 32]>()) {
            let mut b = bytes;
            b[31] &= 0x7f;
            let x = FieldElement::from_bytes(&b);
            prop_assert_eq!(x.square(), x * x);
        }

        #[test]
        fn mul_small_matches_full_mul(bytes in any::<[u8; 32]>(), k in any::<u32>()) {
            let mut b = bytes;
            b[31] &= 0x7f;
            let k = k & 0x1ffff; // mul_small's 17-bit contract
            let x = FieldElement::from_bytes(&b);
            prop_assert_eq!(x.mul_small(k), x * FieldElement::from_u64(k as u64));
        }

        #[test]
        fn addition_chain_invert_matches_pow_le(bytes in any::<[u8; 32]>()) {
            let mut b = bytes;
            b[31] &= 0x7f;
            let x = FieldElement::from_bytes(&b);
            // p - 2 = 2^255 - 21, little-endian bytes: 0xeb, 30 × 0xff, 0x7f.
            let mut exp = [0xffu8; 32];
            exp[0] = 0xeb;
            exp[31] = 0x7f;
            prop_assert_eq!(x.invert(), x.pow_le(&exp));
            // (p - 5) / 8 = 2^252 - 3, bytes: 0xfd, 30 × 0xff, 0x0f.
            let mut exp = [0xffu8; 32];
            exp[0] = 0xfd;
            exp[31] = 0x0f;
            prop_assert_eq!(x.pow_p58(), x.pow_le(&exp));
        }

        #[test]
        fn kernels_match_oracle(a in any::<[u8; 40]>(), b in any::<[u8; 40]>()) {
            check_against_oracle(at_bound(&a), at_bound(&b));
        }

        #[test]
        fn kernels_match_oracle_on_unreduced_sums(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
            // Seven reduced elements summed without a carry pass: the widest
            // operand the curve formulas may hand to a multiplication.
            let x = FieldElement::from_bytes(&a).square();
            let y = FieldElement::from_bytes(&b) * x;
            let sum = x + y + x + y + x + y + x;
            let other = y + y + y + x;
            prop_assert!(sum.limbs.iter().all(|&l| l < LIMB_BOUND));
            check_against_oracle(sum, other);
            check_against_oracle(other, sum);
        }

        #[test]
        fn bytes_round_trip_random(bytes in any::<[u8; 32]>()) {
            let mut b = bytes;
            b[31] &= 0x7f;
            let x = FieldElement::from_bytes(&b);
            let y = FieldElement::from_bytes(&x.to_bytes());
            prop_assert_eq!(x, y);
        }
    }
}
