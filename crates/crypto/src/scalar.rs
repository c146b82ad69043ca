//! Arithmetic modulo the Ed25519 group order
//! `l = 2^252 + 27742317777372353535851937790883648493`.
//!
//! Every reduction is one Barrett step (`reduce_wide`): a fixed sequence
//! of word multiplications, one subtraction and two masked conditional
//! subtractions, with no branch or loop bound that depends on the value.
//! Secret scalars (the signing nonce, the clamped secret key) reduce in
//! constant time, and a reduction costs the same for every input.

/// Little-endian byte encoding of the group order `l`.
pub const L_BYTES: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, //
    0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, //
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10,
];

/// `l` as little-endian 64-bit words.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0,
    0x1000_0000_0000_0000,
];

/// The Barrett constant `floor(2^512 / l)` (260 bits).
const MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0xf,
];

/// Adds the schoolbook product `a·b` into `out` (`out.len() ≥ a.len() + b.len()`).
fn mul_acc(a: &[u64], b: &[u64], out: &mut [u64]) {
    for (i, &ai) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + (ai as u128) * (bj as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        for w in &mut out[i + b.len()..] {
            let cur = *w as u128 + carry;
            *w = cur as u64;
            carry = cur >> 64;
        }
    }
}

/// `a − b mod 2^256` and the final borrow (1 exactly when `a < b`).
fn sub_words(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow);
        out[i] = d;
        borrow = (b1 | b2) as u64;
    }
    (out, borrow)
}

/// Subtracts `l` from `r` when `r ≥ l`, selecting by mask rather than by
/// branch.
fn sub_l_if_ge(r: [u64; 4]) -> [u64; 4] {
    let (d, borrow) = sub_words(&r, &L);
    let keep = borrow.wrapping_neg(); // all ones when r < l
    let mut out = [0u64; 4];
    for i in 0..4 {
        out[i] = (r[i] & keep) | (d[i] & !keep);
    }
    out
}

/// Reduces a 512-bit value `x` (little-endian words) modulo `l`.
///
/// Barrett with `q1 = ⌊x / 2^252⌋` and `q3 = ⌊q1·MU / 2^260⌋`. Writing
/// `x = q1·2^252 + x0` and `2^512/l = MU + f` with `0 ≤ f < 1`,
/// `x/l − q1·MU/2^260 = q1·f/2^260 + x0/l < 2`, because `q1 < 2^260` and
/// `x0 < 2^252 < l`. So `q3` undershoots `⌊x/l⌋` by at most 2 and
/// `r = x − q3·l < 3l < 2^255`: the low four words of the subtraction are
/// exact, and two conditional subtractions finish the job.
fn reduce_wide(x: &[u64; 8]) -> [u64; 4] {
    let mut q1 = [0u64; 5];
    for i in 0..4 {
        q1[i] = (x[i + 3] >> 60) | (x[i + 4] << 4);
    }
    q1[4] = x[7] >> 60;
    let mut q1_mu = [0u64; 10];
    mul_acc(&q1, &MU, &mut q1_mu);
    // Only `q3 mod 2^256` matters for `r mod 2^256`.
    let mut q3 = [0u64; 4];
    for i in 0..4 {
        q3[i] = (q1_mu[i + 4] >> 4) | (q1_mu[i + 5] << 60);
    }
    let mut q3_l = [0u64; 8];
    mul_acc(&q3, &L, &mut q3_l);
    let low: [u64; 4] = [x[0], x[1], x[2], x[3]];
    let (r, _) = sub_words(&low, &[q3_l[0], q3_l[1], q3_l[2], q3_l[3]]);
    sub_l_if_ge(sub_l_if_ge(r))
}

/// A scalar reduced modulo the group order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scalar {
    bytes: [u8; 32],
}

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar { bytes: [0u8; 32] };

    const ONE: Scalar = {
        let mut bytes = [0u8; 32];
        bytes[0] = 1;
        Scalar { bytes }
    };

    /// The scalar as four little-endian 64-bit words.
    fn words(&self) -> [u64; 4] {
        core::array::from_fn(|i| {
            u64::from_le_bytes(self.bytes[8 * i..8 * i + 8].try_into().expect("8 bytes"))
        })
    }

    fn from_words(words: [u64; 4]) -> Self {
        let mut bytes = [0u8; 32];
        for (chunk, w) in bytes.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        Scalar { bytes }
    }

    /// Reduces an arbitrary-length little-endian byte string (up to 64 bytes)
    /// modulo `l`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len() > 64`.
    pub fn from_bytes_mod_order(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= 64, "at most 64 bytes reduce mod l");
        let mut wide = [0u64; 8];
        for (i, byte) in bytes.iter().enumerate() {
            wide[i / 8] |= (*byte as u64) << ((i % 8) * 8);
        }
        Self::from_words(reduce_wide(&wide))
    }

    /// Interprets exactly 32 bytes as a scalar **without** checking that the
    /// value is canonical (used for the clamped secret scalar, which may
    /// exceed `l`). All arithmetic still reduces results.
    pub fn from_unreduced_bytes(bytes: &[u8; 32]) -> Self {
        Self::from_bytes_mod_order(bytes)
    }

    /// Returns `Some(scalar)` if `bytes` is a canonical (fully reduced)
    /// encoding, `None` otherwise. Used when verifying signatures to reject
    /// malleable `s` values.
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let candidate = Scalar { bytes: *bytes };
        let (_, borrow) = sub_words(&candidate.words(), &L);
        (borrow == 1).then_some(candidate)
    }

    /// Returns the canonical 32-byte little-endian encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.bytes
    }

    /// Scalar addition modulo `l`.
    #[must_use]
    pub fn add(&self, other: &Scalar) -> Scalar {
        Self::ONE.mul_add(self, other)
    }

    /// Scalar multiplication modulo `l`.
    #[must_use]
    pub fn mul(&self, other: &Scalar) -> Scalar {
        self.mul_add(other, &Scalar::ZERO)
    }

    /// Computes `self * a + b mod l` (the signing equation `s = r + k·a`)
    /// with one reduction.
    #[must_use]
    pub fn mul_add(&self, a: &Scalar, b: &Scalar) -> Scalar {
        let mut wide = [0u64; 8];
        mul_acc(&self.words(), &a.words(), &mut wide);
        mul_acc(&b.words(), &[1], &mut wide); // + b
        Self::from_words(reduce_wide(&wide))
    }

    /// Returns `true` if the scalar is zero.
    pub fn is_zero(&self) -> bool {
        self.bytes == [0u8; 32]
    }

    /// Returns bit `i` of the scalar encoding.
    pub fn bit(&self, i: usize) -> u8 {
        (self.bytes[i / 8] >> (i % 8)) & 1
    }

    /// Recodes the scalar into 64 signed radix-16 digits `e_i ∈ [−8, 8]`
    /// with `Σ e_i·16^i` equal to the scalar, without branching on it (the
    /// fixed-base comb consumes secret scalars).
    pub(crate) fn as_radix_16(&self) -> [i8; 64] {
        let mut e = [0i8; 64];
        for (i, byte) in self.bytes.iter().enumerate() {
            e[2 * i] = (byte & 0x0f) as i8;
            e[2 * i + 1] = (byte >> 4) as i8;
        }
        // Recentre each digit from [0, 16) to [−8, 8), carrying upwards. The
        // top digit ends at most 2, since every scalar is below 2^253.
        for i in 0..63 {
            let carry = (e[i] + 8) >> 4;
            e[i] -= carry << 4;
            e[i + 1] += carry;
        }
        e
    }

    /// Width-`w` non-adjacent form (`2 ≤ w ≤ 8`): digits that are zero or
    /// odd in `(−2^(w−1), 2^(w−1))`, any two nonzero digits at least `w`
    /// positions apart, and `Σ naf_i·2^i` equal to the scalar. Variable
    /// time: only for public scalars.
    pub(crate) fn non_adjacent_form(&self, w: usize) -> [i8; 256] {
        debug_assert!((2..=8).contains(&w));
        let mut x = [0u64; 5];
        x[..4].copy_from_slice(&self.words());
        let width = 1u64 << w;
        let mut naf = [0i8; 256];
        let mut carry = 0u64;
        let mut pos = 0;
        while pos < 256 {
            let (word, bit) = (pos / 64, pos % 64);
            let mut bits = x[word] >> bit;
            if bit + w > 64 {
                bits |= x[word + 1] << (64 - bit);
            }
            let window = carry + (bits & (width - 1));
            if window & 1 == 0 {
                // A zero digit here; a pending carry moves up with `pos`.
                pos += 1;
                continue;
            }
            if window < width / 2 {
                carry = 0;
                naf[pos] = window as i8;
            } else {
                carry = 1;
                naf[pos] = (window as i64 - width as i64) as i8;
            }
            pos += w;
        }
        naf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bignum::U512;
    use proptest::prelude::*;

    fn order() -> U512 {
        U512::from_le_bytes(&L_BYTES)
    }

    /// Edge scalars for the recodings: 0, 1, l − 1, 2^252, and long runs
    /// of ones that force carries through every window.
    fn edge_scalars() -> Vec<Scalar> {
        let mut l_minus_1 = L_BYTES;
        l_minus_1[0] -= 1;
        let mut two_252 = [0u8; 32];
        two_252[31] = 0x10;
        let mut ones = [0xffu8; 32];
        ones[31] = 0x0f;
        let mut alternating = [0x55u8; 32];
        alternating[31] = 0x0f;
        [
            [0u8; 32],
            {
                let mut b = [0u8; 32];
                b[0] = 1;
                b
            },
            l_minus_1,
            two_252,
            ones,
            alternating,
        ]
        .iter()
        .map(|b| Scalar::from_canonical_bytes(b).expect("canonical"))
        .collect()
    }

    /// Reassembles `Σ digits_i · radix^i` (radix `2^shift`) and checks it
    /// equals `s`, keeping positive and negative parts apart in `U512`.
    fn assert_reconstructs(digits: &[i8], shift: u32, s: &Scalar) {
        let (mut pos, mut neg) = (U512::ZERO, U512::ZERO);
        for &d in digits.iter().rev() {
            for _ in 0..shift {
                pos = pos.shl1();
                neg = neg.shl1();
            }
            let magnitude = U512::from_le_bytes(&[d.unsigned_abs()]);
            if d >= 0 {
                pos = pos.wrapping_add(&magnitude);
            } else {
                neg = neg.wrapping_add(&magnitude);
            }
        }
        assert_eq!(
            pos,
            U512::from_le_bytes(&s.to_bytes()).wrapping_add(&neg),
            "{s:?}"
        );
    }

    fn assert_naf_properties(s: &Scalar, w: usize) {
        let naf = s.non_adjacent_form(w);
        assert_reconstructs(&naf, 1, s);
        let bound = 1i16 << (w - 1);
        let mut last: Option<usize> = None;
        for (i, &d) in naf.iter().enumerate().filter(|(_, d)| **d != 0) {
            assert!(
                d % 2 != 0 && (d as i16).abs() < bound,
                "digit {d} at {i}, w = {w}"
            );
            if let Some(j) = last {
                assert!(i - j >= w, "digits at {j} and {i} closer than w = {w}");
            }
            last = Some(i);
        }
    }

    #[test]
    fn recodings_reconstruct_the_scalar() {
        let mut drbg = crate::drbg::ChaChaDrbg::from_seed([0x5Cu8; 32]);
        let mut scalars = edge_scalars();
        scalars.extend((0..32).map(|_| Scalar::from_bytes_mod_order(&drbg.random_array::<64>())));
        for s in &scalars {
            let radix_16 = s.as_radix_16();
            assert!(
                radix_16.iter().all(|d| (-8..=8).contains(d)),
                "{radix_16:?}"
            );
            assert_reconstructs(&radix_16, 4, s);
            for w in 2..=8 {
                assert_naf_properties(s, w);
            }
        }
    }

    #[test]
    fn reduction_matches_bit_serial_oracle_on_edges() {
        let mut l_bytes = L_BYTES.to_vec();
        let mut l_minus_1 = L_BYTES.to_vec();
        l_minus_1[0] -= 1;
        let mut l_plus_1 = L_BYTES.to_vec();
        l_plus_1[0] += 1;
        let two_256: Vec<u8> = (0..33).map(|i| (i == 32) as u8).collect();
        for bytes in [
            vec![0u8; 64],
            l_minus_1,
            l_bytes.clone(),
            l_plus_1,
            two_256,
            vec![0xff; 32],
            vec![0xff; 64],
        ] {
            let expected = U512::from_le_bytes(&bytes)
                .reduce_mod(&order())
                .to_le_bytes_32();
            assert_eq!(
                Scalar::from_bytes_mod_order(&bytes).to_bytes(),
                expected,
                "{bytes:x?}"
            );
        }
        // (l − 1)·(l − 1) + (l − 1): the largest mul_add input.
        l_bytes[0] -= 1;
        let m = Scalar::from_bytes_mod_order(&l_bytes);
        let big = U512::from_le_bytes(&l_bytes);
        let expected = U512::mul_256(&big, &big)
            .wrapping_add(&big)
            .reduce_mod(&order());
        assert_eq!(m.mul_add(&m, &m).to_bytes(), expected.to_le_bytes_32());
    }

    proptest! {
        #[test]
        fn reduction_matches_bit_serial_oracle(wide in any::<[u8; 32]>(), high in any::<[u8; 32]>()) {
            let mut bytes = wide.to_vec();
            bytes.extend_from_slice(&high);
            let expected = U512::from_le_bytes(&bytes).reduce_mod(&order()).to_le_bytes_32();
            prop_assert_eq!(Scalar::from_bytes_mod_order(&bytes).to_bytes(), expected);
        }

        #[test]
        fn mul_add_matches_bit_serial_oracle(a in any::<[u8; 32]>(), b in any::<[u8; 32]>(), c in any::<[u8; 32]>()) {
            let [a, b, c] = [a, b, c].map(|x| Scalar::from_bytes_mod_order(&x));
            let [wa, wb, wc] = [a, b, c].map(|x| U512::from_le_bytes(&x.to_bytes()));
            let expected = U512::mul_256(&wa, &wb).wrapping_add(&wc).reduce_mod(&order());
            prop_assert_eq!(a.mul_add(&b, &c).to_bytes(), expected.to_le_bytes_32());
            let expected = wa.wrapping_add(&wb).reduce_mod(&order());
            prop_assert_eq!(a.add(&b).to_bytes(), expected.to_le_bytes_32());
        }
    }

    fn scalar_from_u64(v: u64) -> Scalar {
        let mut bytes = [0u8; 32];
        bytes[..8].copy_from_slice(&v.to_le_bytes());
        Scalar::from_bytes_mod_order(&bytes)
    }

    #[test]
    fn small_arithmetic() {
        let a = scalar_from_u64(5);
        let b = scalar_from_u64(7);
        assert_eq!(a.add(&b), scalar_from_u64(12));
        assert_eq!(a.mul(&b), scalar_from_u64(35));
        assert_eq!(a.mul_add(&b, &scalar_from_u64(1)), scalar_from_u64(36));
    }

    #[test]
    fn order_reduces_to_zero() {
        let l = Scalar::from_bytes_mod_order(&L_BYTES);
        assert!(l.is_zero());
    }

    #[test]
    fn order_minus_one_plus_one_is_zero() {
        let mut l_minus_1 = L_BYTES;
        l_minus_1[0] -= 1;
        let a = Scalar::from_bytes_mod_order(&l_minus_1);
        assert!(a.add(&scalar_from_u64(1)).is_zero());
    }

    #[test]
    fn canonical_check() {
        assert!(Scalar::from_canonical_bytes(&[0u8; 32]).is_some());
        assert!(Scalar::from_canonical_bytes(&L_BYTES).is_none());
        let mut just_below = L_BYTES;
        just_below[0] -= 1;
        assert!(Scalar::from_canonical_bytes(&just_below).is_some());
    }

    #[test]
    fn wide_reduction_of_64_bytes() {
        let wide = [0xffu8; 64];
        let s = Scalar::from_bytes_mod_order(&wide);
        // The result must itself be canonical.
        assert!(Scalar::from_canonical_bytes(&s.to_bytes()).is_some());
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let a = scalar_from_u64(0xdead_beef);
        let b = scalar_from_u64(0xfeed_f00d);
        let c = scalar_from_u64(0x1234_5678);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn bit_extraction() {
        let a = scalar_from_u64(0b1010);
        assert_eq!(a.bit(0), 0);
        assert_eq!(a.bit(1), 1);
        assert_eq!(a.bit(3), 1);
        assert_eq!(a.bit(200), 0);
    }
}
