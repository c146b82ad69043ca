//! Minimal fixed-width big-integer arithmetic: the test oracle.
//!
//! [`U512`] does exactly what checking the curve kernels needs: conversion
//! from little-endian byte strings, comparison, addition, schoolbook
//! multiplication of 256-bit halves, and reduction modulo an arbitrary
//! 256-bit modulus via binary long division. The scalar and field modules
//! reduce with fixed-cost kernels; their tests compare against this
//! bit-serial reference, which is compiled only for tests.

use core::cmp::Ordering;

/// A 512-bit unsigned integer stored as eight little-endian `u64` limbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U512 {
    limbs: [u64; 8],
}

impl U512 {
    /// The value zero.
    pub const ZERO: U512 = U512 { limbs: [0; 8] };

    /// Constructs a value from little-endian bytes (at most 64).
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 64`.
    pub fn from_le_bytes(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 64, "at most 64 bytes fit in a U512");
        let mut limbs = [0u64; 8];
        for (i, byte) in bytes.iter().enumerate() {
            limbs[i / 8] |= (*byte as u64) << ((i % 8) * 8);
        }
        Self { limbs }
    }

    /// Returns the low 32 little-endian bytes.
    pub fn to_le_bytes_32(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = ((self.limbs[i / 8] >> ((i % 8) * 8)) & 0xff) as u8;
        }
        out
    }

    /// Returns the index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<u32> {
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            if *limb != 0 {
                return Some(i as u32 * 64 + 63 - limb.leading_zeros());
            }
        }
        None
    }

    /// Returns bit `i` (0 = least significant).
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= 8 {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Compares two values.
    pub fn cmp_value(&self, other: &Self) -> Ordering {
        for i in (0..8).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Wrapping addition (overflow beyond 512 bits is discarded; callers
    /// guarantee it cannot occur for the scalar-arithmetic use cases).
    #[must_use]
    pub fn wrapping_add(&self, other: &Self) -> Self {
        let mut out = [0u64; 8];
        let mut carry = 0u64;
        for i in 0..8 {
            let (sum1, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (sum2, c2) = sum1.overflowing_add(carry);
            out[i] = sum2;
            carry = (c1 as u64) + (c2 as u64);
        }
        Self { limbs: out }
    }

    /// Wrapping subtraction (callers guarantee `self >= other`).
    #[must_use]
    pub fn wrapping_sub(&self, other: &Self) -> Self {
        let mut out = [0u64; 8];
        let mut borrow = 0u64;
        for i in 0..8 {
            let (d1, b1) = self.limbs[i].overflowing_sub(other.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        Self { limbs: out }
    }

    /// Logical left shift by one bit.
    #[must_use]
    pub fn shl1(&self) -> Self {
        let mut out = [0u64; 8];
        let mut carry = 0u64;
        for i in 0..8 {
            out[i] = (self.limbs[i] << 1) | carry;
            carry = self.limbs[i] >> 63;
        }
        Self { limbs: out }
    }

    /// Full 256×256→512-bit product of the low halves of `a` and `b`.
    pub fn mul_256(a: &Self, b: &Self) -> Self {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let cur = out[i + j] as u128
                    + (a.limbs[i] as u128) * (b.limbs[j] as u128)
                    + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            out[i + 4] = carry as u64;
        }
        Self { limbs: out }
    }

    /// Reduces `self` modulo `modulus` (binary long division).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    #[must_use]
    pub fn reduce_mod(&self, modulus: &Self) -> Self {
        assert_ne!(modulus, &U512::ZERO, "modulus must be non-zero");
        if self.cmp_value(modulus) == Ordering::Less {
            return *self;
        }
        let self_bits = self.highest_bit().unwrap_or(0);
        let mod_bits = modulus.highest_bit().expect("non-zero modulus");
        let mut remainder = *self;
        let mut shift = self_bits - mod_bits;
        // Build modulus << shift by repeated shl1 (at most 511 iterations).
        let mut shifted = *modulus;
        for _ in 0..shift {
            shifted = shifted.shl1();
        }
        loop {
            if remainder.cmp_value(&shifted) != Ordering::Less {
                remainder = remainder.wrapping_sub(&shifted);
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
            shifted = shr1(&shifted);
        }
        remainder
    }
}

fn shr1(v: &U512) -> U512 {
    let mut out = [0u64; 8];
    let mut carry = 0u64;
    for i in (0..8).rev() {
        out[i] = (v.limbs[i] >> 1) | (carry << 63);
        carry = v.limbs[i] & 1;
    }
    U512 { limbs: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn from_u128(v: u128) -> U512 {
        U512::from_le_bytes(&v.to_le_bytes())
    }

    #[test]
    fn round_trip_bytes() {
        let bytes: Vec<u8> = (0..64).map(|i| i as u8).collect();
        let v = U512::from_le_bytes(&bytes);
        assert_eq!(v.to_le_bytes_32()[..], bytes[..32]);
    }

    #[test]
    fn add_sub_inverse() {
        let a = from_u128(0x1234_5678_9abc_def0_1111_2222_3333_4444);
        let b = from_u128(0x0fed_cba9_8765_4321);
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn mul_small_values() {
        let a = from_u128(1_000_000_007);
        let b = from_u128(998_244_353);
        let p = U512::mul_256(&a, &b);
        assert_eq!(p, from_u128(1_000_000_007u128 * 998_244_353u128));
    }

    #[test]
    fn reduce_small_values() {
        let a = from_u128(1_000_000);
        let m = from_u128(997);
        let r = a.reduce_mod(&m);
        assert_eq!(r, from_u128(1_000_000 % 997));
    }

    #[test]
    fn reduce_identity_when_smaller() {
        let a = from_u128(5);
        let m = from_u128(997);
        assert_eq!(a.reduce_mod(&m), a);
    }

    #[test]
    fn highest_bit_and_bit() {
        let v = from_u128(0b1010);
        assert_eq!(v.highest_bit(), Some(3));
        assert!(v.bit(1));
        assert!(!v.bit(0));
        assert_eq!(U512::ZERO.highest_bit(), None);
    }

    #[test]
    fn shl1_doubles() {
        let v = from_u128(12345);
        assert_eq!(v.shl1(), from_u128(24690));
    }

    proptest! {
        #[test]
        fn mod_matches_u128_arithmetic(a in 0u128..u128::MAX / 2, m in 1u128..u128::MAX / 4) {
            let r = from_u128(a).reduce_mod(&from_u128(m));
            prop_assert_eq!(r, from_u128(a % m));
        }

        #[test]
        fn mul_matches_u128_for_u64_inputs(a in any::<u64>(), b in any::<u64>()) {
            let p = U512::mul_256(&from_u128(a as u128), &from_u128(b as u128));
            prop_assert_eq!(p, from_u128(a as u128 * b as u128));
        }

        #[test]
        fn add_then_mod_matches_u128(a in 0u128..u128::MAX/2, b in 0u128..u128::MAX/2, m in 1u128..u128::MAX/4) {
            let sum = from_u128(a).wrapping_add(&from_u128(b));
            prop_assert_eq!(sum.reduce_mod(&from_u128(m)), from_u128((a + b) % m));
        }
    }
}
