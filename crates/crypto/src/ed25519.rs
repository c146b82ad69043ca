//! Ed25519-SHA3 signatures.
//!
//! Structure and curve follow RFC 8032; the internal hash is SHA3-512 instead
//! of SHA-512 (see the crate-level documentation for the rationale). The SM's
//! attestation key pair, the manufacturer PKI of `sanctorum-verifier` and the
//! signing enclave all use this scheme.

use crate::field::FieldElement;
use crate::scalar::Scalar;
use crate::sha3::Sha3_512;
use core::ops::Neg;
use serde::{Deserialize, Serialize};

/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a secret key seed in bytes.
pub const SECRET_KEY_LEN: usize = 32;
/// Length of a signature in bytes.
pub const SIGNATURE_LEN: usize = 64;

/// A point on the Ed25519 curve in extended twisted-Edwards coordinates
/// `(X:Y:Z:T)` with `x = X/Z`, `y = Y/Z` and `XY = ZT`.
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// `(X:Y:Z)`: the input of a doubling, which never reads `T`.
#[derive(Clone, Copy)]
struct ProjectivePoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

/// The output of every addition and doubling, `x = X/Z`, `y = Y/T`. It
/// converts to [`EdwardsPoint`] with 4 multiplications, or to
/// [`ProjectivePoint`] with 3 when the next step is a doubling.
#[derive(Clone, Copy)]
struct CompletedPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// A point in cached form `(Y+X, Y−X, Z, 2dT)`: the per-point window
/// tables of the variable-time engine hold these, so each addition out of
/// a table skips the `Y±X` sums and the `2d` multiplication.
#[derive(Clone, Copy)]
struct CachedPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z: FieldElement,
    t2d: FieldElement,
}

/// An affine point in Niels form `(y+x, y−x, 2dxy)` (`Z = 1`): the
/// process-wide basepoint tables hold these, saving one more
/// multiplication per addition.
#[derive(Clone, Copy)]
struct AffineNielsPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    xy2d: FieldElement,
}

/// A table entry the Straus engine can add or subtract.
trait Niels: Copy + Neg<Output = Self> {
    fn add_to(&self, p: &EdwardsPoint) -> CompletedPoint;
}

impl Niels for CachedPoint {
    fn add_to(&self, p: &EdwardsPoint) -> CompletedPoint {
        p.add_niels(&self.y_plus_x, &self.y_minus_x, &self.t2d, p.z * self.z)
    }
}

impl Niels for AffineNielsPoint {
    fn add_to(&self, p: &EdwardsPoint) -> CompletedPoint {
        p.add_niels(&self.y_plus_x, &self.y_minus_x, &self.xy2d, p.z)
    }
}

impl Neg for CachedPoint {
    type Output = Self;
    fn neg(self) -> Self {
        CachedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: -self.t2d,
        }
    }
}

impl Neg for AffineNielsPoint {
    type Output = Self;
    fn neg(self) -> Self {
        AffineNielsPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            xy2d: -self.xy2d,
        }
    }
}

impl AffineNielsPoint {
    const IDENTITY: AffineNielsPoint = AffineNielsPoint {
        y_plus_x: FieldElement::ONE,
        y_minus_x: FieldElement::ONE,
        xy2d: FieldElement::ZERO,
    };

    /// Constant-time `digit · (row base)` for a signed digit in `[−8, 8]`,
    /// where `row[j]` holds `(j+1) · (row base)`: every entry is read, the
    /// matching one is kept by mask, and the sign is applied by mask too.
    fn select(row: &[AffineNielsPoint; 8], digit: i8) -> AffineNielsPoint {
        let sign = (digit as i16) >> 15; // −1 when negative, else 0
        let abs = (((digit as i16) + sign) ^ sign) as u16;
        let mut out = AffineNielsPoint::IDENTITY;
        for (j, entry) in row.iter().enumerate() {
            // 1 exactly when abs == j + 1.
            let hit = (((abs ^ (j as u16 + 1)) as u32).wrapping_sub(1) >> 31) as u8;
            out.y_plus_x.conditional_assign(&entry.y_plus_x, hit);
            out.y_minus_x.conditional_assign(&entry.y_minus_x, hit);
            out.xy2d.conditional_assign(&entry.xy2d, hit);
        }
        let negated = -out;
        let negative = (sign & 1) as u8;
        FieldElement::conditional_swap(negative, &mut out.y_plus_x, &mut out.y_minus_x);
        out.xy2d.conditional_assign(&negated.xy2d, negative);
        out
    }

    /// Converts points to affine Niels form with one batched inversion
    /// (Montgomery's trick: `3(n−1)` multiplications and one inversion
    /// instead of `n` inversions), so a cold process builds its tables in
    /// well under a millisecond.
    fn batch_from(points: &[EdwardsPoint]) -> Vec<AffineNielsPoint> {
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = FieldElement::ONE;
        for p in points {
            prefix.push(acc);
            acc = acc * p.z;
        }
        let mut inv = acc.invert(); // 1 / (z_0 ⋯ z_{n−1})
        let mut out = vec![AffineNielsPoint::IDENTITY; points.len()];
        for (i, p) in points.iter().enumerate().rev() {
            let z_inv = inv * prefix[i];
            inv = inv * p.z;
            let x = p.x * z_inv;
            let y = p.y * z_inv;
            out[i] = AffineNielsPoint {
                y_plus_x: y + x,
                y_minus_x: y - x,
                xy2d: x * y * constant_2d(),
            };
        }
        out
    }
}

impl ProjectivePoint {
    /// Doubling (`dbl-2008-hwcd` for `a = −1`: 4 squarings, against the
    /// unified addition's 9 multiplications); doublings are the bulk of
    /// every variable-base scalar multiplication.
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let x_plus_y_sq = (self.x + self.y).square();
        let yy_plus_xx = yy + xx;
        let yy_minus_xx = yy - xx;
        CompletedPoint {
            x: x_plus_y_sq - yy_plus_xx,
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: (zz + zz) - yy_minus_xx,
        }
    }
}

impl CompletedPoint {
    fn to_extended(self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x * self.t,
            y: self.y * self.z,
            z: self.z * self.t,
            t: self.x * self.y,
        }
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x * self.t,
            y: self.y * self.z,
            z: self.z * self.t,
        }
    }
}

/// Returns the curve constant `d = -121665/121666 mod p`.
///
/// Computed once per process: the division costs a full field inversion
/// (~250 squarings), and `d` is consumed by every point addition and
/// decompression on the attestation hot path.
fn constant_d() -> FieldElement {
    static CACHE: std::sync::OnceLock<FieldElement> = std::sync::OnceLock::new();
    *CACHE
        .get_or_init(|| -(FieldElement::from_u64(121665) * FieldElement::from_u64(121666).invert()))
}

/// Returns `2d`, the form the unified addition law consumes.
fn constant_2d() -> FieldElement {
    static CACHE: std::sync::OnceLock<FieldElement> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| constant_d() + constant_d())
}

/// The fixed-base comb: row `i` holds `j · 16^i · B` for `j = 1..=8`.
fn comb_table() -> &'static [[AffineNielsPoint; 8]] {
    static COMB: std::sync::OnceLock<Vec<[AffineNielsPoint; 8]>> = std::sync::OnceLock::new();
    COMB.get_or_init(|| {
        let mut points = Vec::with_capacity(64 * 8);
        let mut base = EdwardsPoint::basepoint();
        for _ in 0..64 {
            let mut multiple = base;
            points.push(multiple);
            for _ in 1..8 {
                multiple = multiple.add(&base);
                points.push(multiple);
            }
            base = multiple.double(); // 16·base: the next digit position
        }
        AffineNielsPoint::batch_from(&points)
            .chunks_exact(8)
            .map(|row| core::array::from_fn(|j| row[j]))
            .collect()
    })
}

/// The odd multiples `B, 3B, …, 127B` that width-8 NAF digits of the
/// basepoint scalar index.
fn basepoint_odd_multiples() -> &'static [AffineNielsPoint] {
    static TABLE: std::sync::OnceLock<Vec<AffineNielsPoint>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let b = EdwardsPoint::basepoint();
        let b2 = b.double();
        let mut points = vec![b];
        for i in 1..64 {
            points.push(points[i - 1].add(&b2));
        }
        AffineNielsPoint::batch_from(&points)
    })
}

/// Adds (or, for a negative digit, subtracts) the table entry a NAF digit
/// selects; `table[k]` holds `(2k+1)·P`.
fn add_naf_digit<N: Niels>(acc: CompletedPoint, digit: i8, table: &[N]) -> CompletedPoint {
    let entry = table[(digit.unsigned_abs() / 2) as usize];
    match digit.signum() {
        1 => entry.add_to(&acc.to_extended()),
        -1 => (-entry).add_to(&acc.to_extended()),
        _ => acc,
    }
}

impl EdwardsPoint {
    /// The identity (neutral) element.
    pub fn identity() -> Self {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard base point `B` (y = 4/5, x recovered with even sign).
    ///
    /// Decompressed once per process — recovering x costs a square-root
    /// exponentiation, and the base point is needed by every sign/verify.
    pub fn basepoint() -> Self {
        static CACHE: std::sync::OnceLock<EdwardsPoint> = std::sync::OnceLock::new();
        *CACHE.get_or_init(|| {
            let y = FieldElement::from_u64(4) * FieldElement::from_u64(5).invert();
            let mut compressed = y.to_bytes();
            compressed[31] &= 0x7f; // sign bit 0: the canonical Bx is even
            Self::decompress(&compressed).expect("base point decompression cannot fail")
        })
    }

    fn to_projective(self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y + self.x,
            y_minus_x: self.y - self.x,
            z: self.z,
            t2d: self.t * constant_2d(),
        }
    }

    /// The unified addition law (`add-2008-hwcd-3`; complete, since `a = −1`
    /// is square and `d` is not) against a Niels-form operand, given the
    /// product `zz` of the two `Z` coordinates.
    fn add_niels(
        &self,
        y_plus_x: &FieldElement,
        y_minus_x: &FieldElement,
        t2d: &FieldElement,
        zz: FieldElement,
    ) -> CompletedPoint {
        let pp = (self.y + self.x) * *y_plus_x;
        let mm = (self.y - self.x) * *y_minus_x;
        let tt2d = self.t * *t2d;
        let zz2 = zz + zz;
        CompletedPoint {
            x: pp - mm,
            y: pp + mm,
            z: zz2 + tt2d,
            t: zz2 - tt2d,
        }
    }

    /// Unified point addition (valid for doubling as well).
    #[must_use]
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        other.to_cached().add_to(self).to_extended()
    }

    /// Point doubling.
    #[must_use]
    pub fn double(&self) -> EdwardsPoint {
        self.to_projective().double().to_extended()
    }

    /// The odd multiples `P, 3P, …, 15P` that width-5 NAF digits index.
    fn odd_multiples(&self) -> [CachedPoint; 8] {
        let p2 = self.double().to_cached();
        let mut multiple = *self;
        let mut table = [self.to_cached(); 8];
        for entry in table.iter_mut().skip(1) {
            multiple = p2.add_to(&multiple).to_extended();
            *entry = multiple.to_cached();
        }
        table
    }

    /// Computes `s·B` for the fixed base point with a constant-time comb.
    ///
    /// The scalar is recoded into 64 signed radix-16 digits in `[−8, 8]`;
    /// digit `i` picks `|e_i|·16^i·B` out of a process-wide row of 8 affine
    /// Niels points by scanning the whole row under masks, negates it by
    /// mask, and adds it: 64 additions, no doublings, and no branch or
    /// table index that depends on the scalar. Signing nonces, secret-key
    /// derivations and X25519 secrets all pass through here.
    pub fn basepoint_mul(scalar: &Scalar) -> EdwardsPoint {
        let digits = scalar.as_radix_16();
        let mut acc = EdwardsPoint::identity();
        for (row, &digit) in comb_table().iter().zip(&digits) {
            acc = AffineNielsPoint::select(row, digit)
                .add_to(&acc)
                .to_extended();
        }
        acc
    }

    /// Computes `b·B + Σ aᵢ·Pᵢ` in **variable time**: only for public
    /// inputs, such as everything a signature verifier sees.
    ///
    /// Straus interleaving over width-`w` NAF digits: one doubling chain
    /// shared by every term, a width-5 table of cached odd multiples per
    /// point `Pᵢ` (8 entries, built per call), and the process-wide width-8
    /// table of odd multiples of `B` (64 affine entries). NAF digits are
    /// nonzero at most once per `w` positions, so a 253-bit scalar costs
    /// about 253/6 additions against a width-5 table and 253/9 against
    /// the width-8 one, and the chain starts at the highest nonzero digit
    /// of any term (128-bit batch coefficients add nothing above bit 128).
    pub fn vartime_multiscalar_mul(b: &Scalar, terms: &[(Scalar, EdwardsPoint)]) -> EdwardsPoint {
        let b_naf = b.non_adjacent_form(8);
        let nafs: Vec<[i8; 256]> = terms.iter().map(|(a, _)| a.non_adjacent_form(5)).collect();
        let tables: Vec<[CachedPoint; 8]> = terms.iter().map(|(_, p)| p.odd_multiples()).collect();
        let b_table = basepoint_odd_multiples();

        let Some(top) = (0..256)
            .rev()
            .find(|&i| b_naf[i] != 0 || nafs.iter().any(|n| n[i] != 0))
        else {
            return EdwardsPoint::identity();
        };
        let mut acc = EdwardsPoint::identity().to_projective();
        for i in (0..=top).rev() {
            let mut sum = acc.double();
            for (naf, table) in nafs.iter().zip(&tables) {
                sum = add_naf_digit(sum, naf[i], table);
            }
            sum = add_naf_digit(sum, b_naf[i], b_table);
            acc = sum.to_projective();
        }
        EdwardsPoint {
            x: acc.x * acc.z,
            y: acc.y * acc.z,
            z: acc.z.square(),
            t: acc.x * acc.y,
        }
    }

    /// Maps the point to the u-coordinate of the birationally equivalent
    /// Curve25519 Montgomery point: `u = (1 + y)/(1 - y)`, computed
    /// projectively as `(Z + Y)/(Z − Y)`. The exceptional point `y = 1` (the
    /// identity) yields 0 — exactly what the Montgomery ladder outputs for
    /// scalars ≡ 0 (mod l), so the two X25519 routes agree everywhere.
    pub fn montgomery_u(&self) -> [u8; 32] {
        let num = self.z + self.y;
        let den = self.z - self.y;
        (num * den.invert()).to_bytes()
    }

    /// Compresses the point to its 32-byte encoding (y with the sign of x in
    /// the top bit).
    pub fn compress(&self) -> [u8; 32] {
        let z_inv = self.z.invert();
        let x = self.x * z_inv;
        let y = self.y * z_inv;
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses a 32-byte encoding into a point, if it is valid.
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let sign = (bytes[31] >> 7) & 1;
        let mut y_bytes = *bytes;
        y_bytes[31] &= 0x7f;
        let y = FieldElement::from_bytes(&y_bytes);

        // x^2 = (y^2 - 1) / (d y^2 + 1)
        let y2 = y.square();
        let u = y2 - FieldElement::ONE;
        let v = constant_d() * y2 + FieldElement::ONE;

        // Candidate root: x = u * v^3 * (u * v^7)^((p-5)/8).
        let v3 = v.square() * v;
        let v7 = v3.square() * v;
        let mut x = u * v3 * (u * v7).pow_p58();

        let vx2 = v * x.square();
        if vx2 == u {
            // x is already a square root.
        } else if vx2 == -u {
            x = x * FieldElement::sqrt_m1();
        } else {
            return None;
        }

        if x.is_zero() && sign == 1 {
            // -0 is not a valid encoding.
            return None;
        }
        if (x.is_negative() as u8) != sign {
            x = -x;
        }

        Some(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x * y,
        })
    }

    /// Returns `true` if both points represent the same affine point.
    pub fn equals(&self, other: &EdwardsPoint) -> bool {
        // Cross-multiply to avoid inversions: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
        (self.x * other.z).ct_equals(&(other.x * self.z))
            && (self.y * other.z).ct_equals(&(other.y * self.z))
    }
}

impl Neg for EdwardsPoint {
    type Output = EdwardsPoint;
    fn neg(self) -> Self {
        EdwardsPoint {
            x: -self.x,
            y: self.y,
            z: self.z,
            t: -self.t,
        }
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        self.equals(other)
    }
}

impl Eq for EdwardsPoint {}

/// An Ed25519-SHA3 secret key (the 32-byte seed).
#[derive(Clone, Serialize, Deserialize)]
pub struct SecretKey {
    seed: [u8; SECRET_KEY_LEN],
}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SecretKey(<redacted>)")
    }
}

/// An Ed25519-SHA3 public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey {
    bytes: [u8; PUBLIC_KEY_LEN],
}

/// An Ed25519-SHA3 signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    r: [u8; 32],
    s: [u8; 32],
}

/// A key pair (seed plus cached public key).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
}

fn clamp(mut scalar_bytes: [u8; 32]) -> [u8; 32] {
    scalar_bytes[0] &= 248;
    scalar_bytes[31] &= 127;
    scalar_bytes[31] |= 64;
    scalar_bytes
}

impl SecretKey {
    /// Creates a secret key from a 32-byte seed.
    pub fn from_seed(seed: [u8; SECRET_KEY_LEN]) -> Self {
        Self { seed }
    }

    /// Returns the seed bytes.
    pub fn seed(&self) -> &[u8; SECRET_KEY_LEN] {
        &self.seed
    }

    fn expand(&self) -> (Scalar, [u8; 32]) {
        let h = Sha3_512::digest(&self.seed);
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&h[..32]);
        let scalar_bytes = clamp(scalar_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        (Scalar::from_unreduced_bytes(&scalar_bytes), prefix)
    }

    /// Derives the corresponding public key.
    pub fn public_key(&self) -> PublicKey {
        let (a, _) = self.expand();
        PublicKey {
            bytes: EdwardsPoint::basepoint_mul(&a).compress(),
        }
    }
}

impl PublicKey {
    /// Constructs a public key from its 32-byte encoding.
    ///
    /// # Errors
    ///
    /// Returns `None` if the bytes do not decode to a curve point.
    pub fn from_bytes(bytes: [u8; PUBLIC_KEY_LEN]) -> Option<Self> {
        EdwardsPoint::decompress(&bytes).map(|_| PublicKey { bytes })
    }

    /// Returns the 32-byte encoding.
    pub fn to_bytes(&self) -> [u8; PUBLIC_KEY_LEN] {
        self.bytes
    }

    /// Verifies `signature` over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        let a = match EdwardsPoint::decompress(&self.bytes) {
            Some(p) => p,
            None => return false,
        };
        let r = match EdwardsPoint::decompress(&signature.r) {
            Some(p) => p,
            None => return false,
        };
        let s = match Scalar::from_canonical_bytes(&signature.s) {
            Some(s) => s,
            None => return false,
        };

        let mut h = Sha3_512::new();
        h.update(&signature.r);
        h.update(&self.bytes);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());

        // s·B − k·A == R: the group equation s·B == R + k·A, with R kept
        // out of the multiplication so small-order components of R are
        // compared, not multiplied away.
        EdwardsPoint::vartime_multiscalar_mul(&s, &[(k, -a)]).equals(&r)
    }
}

/// Verifies a batch of signatures with a single random-linear-combination
/// check: `(Σ zᵢ·sᵢ)·B == Σ zᵢ·Rᵢ + Σ (zᵢ·kᵢ)·Aᵢ` over 128-bit coefficients
/// `zᵢ` derived Fiat–Shamir-style from the whole batch. The doubling chain of
/// the combined multiscalar multiplication is shared across every signature,
/// so per-signature cost falls well below an independent [`PublicKey::verify`]
/// once the batch holds a handful of items.
///
/// Returns `true` only when the combined equation holds. A `true` result
/// implies each signature passes cofactorless verification except with
/// negligible probability in the prime-order subgroup; like every
/// random-linear-combination batch verifier, signatures differing from a
/// valid one only by small-order (torsion) components in `R` can slip
/// through, which single verification would reject. Callers wanting
/// per-item verdicts (or exact single-verification semantics on rejection)
/// should fall back to [`PublicKey::verify`] per item when this returns
/// `false`.
pub fn verify_batch(items: &[(&PublicKey, &[u8], &Signature)]) -> bool {
    if items.is_empty() {
        return true;
    }

    // The coefficients are bound to the whole batch (every signature, key and
    // message) so no input can be chosen to cancel another term after the
    // coefficients are fixed; the run stays deterministic for replay.
    let mut transcript = Sha3_512::new();
    transcript.update(b"sanctorum-ed25519-batch-v1");
    for (public, message, signature) in items {
        transcript.update(&signature.r);
        transcript.update(&public.bytes);
        transcript.update(&(message.len() as u64).to_le_bytes());
        transcript.update(message);
    }
    let seed = transcript.finalize();
    let coefficient = |i: usize| -> Scalar {
        let mut h = Sha3_512::new();
        h.update(&seed);
        h.update(&(i as u64).to_le_bytes());
        let mut z = [0u8; 16];
        z.copy_from_slice(&h.finalize()[..16]);
        z[0] |= 1; // nonzero and odd: a lone torsioned term can never vanish
        Scalar::from_bytes_mod_order(&z)
    };

    let mut combined_s = Scalar::ZERO;
    let mut terms = Vec::with_capacity(2 * items.len());
    let mut key_terms: Vec<(PublicKey, Scalar, EdwardsPoint)> = Vec::new();
    for (i, (public, message, signature)) in items.iter().enumerate() {
        let (Some(r), Some(s)) = (
            EdwardsPoint::decompress(&signature.r),
            Scalar::from_canonical_bytes(&signature.s),
        ) else {
            return false;
        };
        let mut h = Sha3_512::new();
        h.update(&signature.r);
        h.update(&public.bytes);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());
        let z = coefficient(i);
        combined_s = z.mul_add(&s, &combined_s);
        // 128-bit coefficients: the NAFs of the R terms are zero above bit
        // 128, so they add nothing to the top half of the doubling chain.
        terms.push((z, -r));
        // Items under one key share a term: Σ zᵢkᵢ·A = (Σ zᵢkᵢ)·A.
        match key_terms.iter_mut().find(|(key, _, _)| key == *public) {
            Some((_, zk, _)) => *zk = z.mul_add(&k, zk),
            None => {
                let Some(a) = EdwardsPoint::decompress(&public.bytes) else {
                    return false;
                };
                key_terms.push((**public, z.mul(&k), -a));
            }
        }
    }
    terms.extend(key_terms.into_iter().map(|(_, zk, a)| (zk, a)));

    // (Σ zᵢ·sᵢ)·B − Σ zᵢ·Rᵢ − Σ (zᵢ·kᵢ)·Aᵢ is the identity exactly when
    // the combined equation holds.
    EdwardsPoint::vartime_multiscalar_mul(&combined_s, &terms).equals(&EdwardsPoint::identity())
}

impl Signature {
    /// Constructs a signature from its 64-byte encoding.
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LEN]) -> Self {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..]);
        Signature { r, s }
    }

    /// Returns the 64-byte encoding.
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LEN] {
        let mut out = [0u8; SIGNATURE_LEN];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s);
        out
    }
}

impl Keypair {
    /// Generates a key pair from a 32-byte seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use sanctorum_crypto::ed25519::Keypair;
    /// let kp = Keypair::from_seed([7u8; 32]);
    /// let sig = kp.sign(b"measurement report");
    /// assert!(kp.public().verify(b"measurement report", &sig));
    /// assert!(!kp.public().verify(b"tampered report", &sig));
    /// ```
    pub fn from_seed(seed: [u8; SECRET_KEY_LEN]) -> Self {
        let secret = SecretKey::from_seed(seed);
        let public = secret.public_key();
        Self { secret, public }
    }

    /// Generates a key pair from an entropy/DRBG source.
    pub fn generate(drbg: &mut crate::drbg::ChaChaDrbg) -> Self {
        Self::from_seed(drbg.random_array())
    }

    /// Returns the public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Returns the secret key.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let (a, prefix) = self.secret.expand();

        let mut h = Sha3_512::new();
        h.update(&prefix);
        h.update(message);
        let r = Scalar::from_bytes_mod_order(&h.finalize());

        let r_point = EdwardsPoint::basepoint_mul(&r).compress();

        let mut h = Sha3_512::new();
        h.update(&r_point);
        h.update(&self.public.bytes);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());

        let s = k.mul_add(&a, &r);
        Signature {
            r: r_point,
            s: s.to_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::ChaChaDrbg;

    /// The classic one-bit-at-a-time double-and-add: the reference every
    /// faster multiplication is checked against.
    fn bit_serial(p: &EdwardsPoint, scalar: &Scalar) -> EdwardsPoint {
        let mut result = EdwardsPoint::identity();
        for bit in (0..256).rev() {
            result = result.double();
            if scalar.bit(bit) == 1 {
                result = result.add(p);
            }
        }
        result
    }

    fn small_scalar(v: u8) -> Scalar {
        let mut b = [0u8; 32];
        b[0] = v;
        Scalar::from_canonical_bytes(&b).expect("canonical")
    }

    fn l_minus_1() -> Scalar {
        let mut b = crate::scalar::L_BYTES;
        b[0] -= 1;
        Scalar::from_canonical_bytes(&b).expect("l-1 is canonical")
    }

    fn random_point(drbg: &mut ChaChaDrbg) -> EdwardsPoint {
        EdwardsPoint::basepoint_mul(&Scalar::from_bytes_mod_order(&drbg.random_array::<64>()))
    }

    #[test]
    fn basepoint_has_order_l() {
        // l·B must be the identity, by both the comb and the Straus engine.
        let b = EdwardsPoint::basepoint();
        let almost = EdwardsPoint::basepoint_mul(&l_minus_1());
        assert_eq!(almost.add(&b), EdwardsPoint::identity());
        let almost = EdwardsPoint::vartime_multiscalar_mul(&Scalar::ZERO, &[(l_minus_1(), b)]);
        assert_eq!(almost.add(&b), EdwardsPoint::identity());
    }

    #[test]
    fn basepoint_compress_round_trip() {
        let b = EdwardsPoint::basepoint();
        let c = b.compress();
        let d = EdwardsPoint::decompress(&c).expect("round trip");
        assert_eq!(b, d);
    }

    #[test]
    fn identity_properties() {
        let id = EdwardsPoint::identity();
        let b = EdwardsPoint::basepoint();
        assert_eq!(id.add(&b), b);
        assert_eq!(b.add(&id), b);
        assert_eq!(id.double(), id);
    }

    #[test]
    fn addition_is_commutative_and_associative() {
        let b = EdwardsPoint::basepoint();
        let two_b = b.double();
        let three_b = two_b.add(&b);
        assert_eq!(b.add(&two_b), two_b.add(&b));
        assert_eq!(three_b.add(&b), two_b.add(&two_b));
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let b = EdwardsPoint::basepoint();
        let by_add = b.double().double().add(&b);
        let five = small_scalar(5);
        assert_eq!(
            EdwardsPoint::vartime_multiscalar_mul(&Scalar::ZERO, &[(five, b)]),
            by_add
        );
        assert_eq!(EdwardsPoint::vartime_multiscalar_mul(&five, &[]), by_add);
        assert_eq!(EdwardsPoint::basepoint_mul(&five), by_add);
        // A negative NAF digit: 7 = 8 − 1 at width 2, 7 = +7 at width 5.
        let seven = by_add.add(&b.double());
        assert_eq!(
            EdwardsPoint::vartime_multiscalar_mul(&Scalar::ZERO, &[(small_scalar(7), b)]),
            seven
        );
    }

    #[test]
    fn windowed_scalar_mul_matches_bit_serial_double_and_add() {
        // The constant-time comb and the variable-time Straus engine must
        // agree with the bit-serial reference on random and edge scalars
        // (0, 1, l − 1, and digits that recode to −8 or carry into the top).
        let b = EdwardsPoint::basepoint();
        let mut drbg = ChaChaDrbg::from_seed([0xC4u8; 32]);
        let mut scalars: Vec<Scalar> = (0..8)
            .map(|_| Scalar::from_bytes_mod_order(&drbg.random_array::<64>()))
            .collect();
        scalars.extend([
            Scalar::ZERO,
            small_scalar(1),
            small_scalar(8),
            small_scalar(0x88),
            l_minus_1(),
        ]);
        let p = random_point(&mut drbg);
        for s in &scalars {
            let reference = bit_serial(&b, s);
            assert_eq!(EdwardsPoint::basepoint_mul(s), reference);
            assert_eq!(EdwardsPoint::vartime_multiscalar_mul(s, &[]), reference);
            assert_eq!(
                EdwardsPoint::vartime_multiscalar_mul(&Scalar::ZERO, &[(*s, b)]),
                reference
            );
            assert_eq!(
                EdwardsPoint::vartime_multiscalar_mul(&Scalar::ZERO, &[(*s, p)]),
                bit_serial(&p, s)
            );
        }
        assert_eq!(
            EdwardsPoint::basepoint_mul(&Scalar::ZERO),
            EdwardsPoint::identity()
        );
        assert_eq!(EdwardsPoint::basepoint_mul(&small_scalar(1)), b);
    }

    #[test]
    fn comb_select_scans_every_entry_and_negates() {
        let row = &comb_table()[0];
        let b = EdwardsPoint::basepoint();
        let id = EdwardsPoint::identity();
        for digit in -8i8..=8 {
            let selected = AffineNielsPoint::select(row, digit)
                .add_to(&id)
                .to_extended();
            let magnitude = bit_serial(&b, &small_scalar(digit.unsigned_abs()));
            let expected = if digit < 0 { -magnitude } else { magnitude };
            assert_eq!(selected, expected, "digit {digit}");
        }
    }

    #[test]
    fn dedicated_double_matches_unified_addition() {
        // The dbl-2008-hwcd formulas must agree with `P + P` under the
        // complete addition law on arbitrary points (including identity).
        let mut drbg = ChaChaDrbg::from_seed([0xD0u8; 32]);
        let mut p = EdwardsPoint::identity();
        assert_eq!(p.double(), p.add(&p));
        for _ in 0..16 {
            p = random_point(&mut drbg);
            assert_eq!(p.double(), p.add(&p));
        }
    }

    #[test]
    fn multiscalar_matches_independent_scalar_muls() {
        let mut drbg = ChaChaDrbg::from_seed([0xE1u8; 32]);
        for n in [0usize, 1, 2, 5] {
            let b_scalar = Scalar::from_bytes_mod_order(&drbg.random_array::<64>());
            let mut terms: Vec<(Scalar, EdwardsPoint)> = (0..n)
                .map(|_| {
                    let s = Scalar::from_bytes_mod_order(&drbg.random_array::<64>());
                    (s, random_point(&mut drbg))
                })
                .collect();
            // A short (128-bit) scalar, as batch verification uses.
            terms.push((
                Scalar::from_bytes_mod_order(&drbg.random_array::<16>()),
                random_point(&mut drbg),
            ));
            let expected = terms.iter().fold(
                bit_serial(&EdwardsPoint::basepoint(), &b_scalar),
                |acc, (s, p)| acc.add(&bit_serial(p, s)),
            );
            assert_eq!(
                EdwardsPoint::vartime_multiscalar_mul(&b_scalar, &terms),
                expected
            );
        }
        assert_eq!(
            EdwardsPoint::vartime_multiscalar_mul(&Scalar::ZERO, &[]),
            EdwardsPoint::identity()
        );
    }

    /// The verification equation as the bit-serial reference computes it:
    /// `s·B == R + k·A`, with the same decoding and canonical-`s` rules.
    fn reference_verify(public: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> bool {
        let sig = Signature::from_bytes(signature);
        let (Some(a), Some(r), Some(s)) = (
            EdwardsPoint::decompress(public),
            EdwardsPoint::decompress(&sig.r),
            Scalar::from_canonical_bytes(&sig.s),
        ) else {
            return false;
        };
        let mut h = Sha3_512::new();
        h.update(&sig.r);
        h.update(public);
        h.update(message);
        let k = Scalar::from_bytes_mod_order(&h.finalize());
        bit_serial(&EdwardsPoint::basepoint(), &s).equals(&r.add(&bit_serial(&a, &k)))
    }

    /// Encodings of the eight small-order points (`y = 1`, `y = −1`, `y = 0`
    /// with either sign, and the four points of order 8).
    fn small_order_encodings() -> Vec<[u8; 32]> {
        let mut out = Vec::new();
        let mut one = [0u8; 32];
        one[0] = 1;
        out.push(one);
        out.push((-FieldElement::ONE).to_bytes());
        let mut zero = [0u8; 32];
        out.push(zero);
        zero[31] = 0x80;
        out.push(zero);
        let t = EdwardsPoint::decompress(&small_order_8()).expect("order-8 point");
        for p in [
            t,
            -t,
            t.add(&EdwardsPoint::decompress(&out[1]).expect("order 2")),
            -t.add(&EdwardsPoint::decompress(&out[1]).expect("order 2")),
        ] {
            out.push(p.compress());
        }
        out
    }

    /// A point of order 8.
    fn small_order_8() -> [u8; 32] {
        let hex = "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05";
        core::array::from_fn(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).expect("hex"))
    }

    #[test]
    fn verify_agrees_with_the_reference_equation() {
        let kp = Keypair::from_seed([0x3Cu8; 32]);
        let msg = b"fleet attestation report";
        let sig = kp.sign(msg).to_bytes();
        let pk = kp.public().to_bytes();
        let mut cases: Vec<([u8; 32], Vec<u8>, [u8; 64])> = Vec::new();
        // Valid, tampered message, tampered R and s, wrong key.
        cases.push((pk, msg.to_vec(), sig));
        cases.push((pk, b"fleet attestation repory".to_vec(), sig));
        for byte in [0, 17, 31, 32, 45, 62] {
            let mut bad = sig;
            bad[byte] ^= 0x04;
            cases.push((pk, msg.to_vec(), bad));
        }
        cases.push((
            Keypair::from_seed([0x3Du8; 32]).public().to_bytes(),
            msg.to_vec(),
            sig,
        ));
        // Small-order R, small-order A, and both with s = 0: the last
        // combinations satisfy the cofactorless equation and must be
        // accepted by both.
        let small = small_order_encodings();
        for r in &small {
            let mut bad = sig;
            bad[..32].copy_from_slice(r);
            cases.push((pk, msg.to_vec(), bad));
            for a in &small {
                let mut zero_s = [0u8; 64];
                zero_s[..32].copy_from_slice(r);
                cases.push((*a, msg.to_vec(), zero_s));
            }
        }
        // Non-canonical y: y = p + 1 encodes the identity, y = p encodes
        // y = 0; and a y with no curve point.
        let mut p_plus_1 = (-FieldElement::ONE).to_bytes();
        p_plus_1[0] += 2;
        let mut p_enc = p_plus_1;
        p_enc[0] -= 1;
        for enc in [p_plus_1, p_enc] {
            let mut bad = sig;
            bad[..32].copy_from_slice(&enc);
            cases.push((pk, msg.to_vec(), bad));
            let mut zero_s = [0u8; 64];
            zero_s[..32].copy_from_slice(&enc);
            cases.push((enc, msg.to_vec(), zero_s));
            cases.push((small[0], msg.to_vec(), zero_s));
        }
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        cases.push((off_curve, msg.to_vec(), sig));

        let mut accepted = 0;
        for (i, (public, message, signature)) in cases.iter().enumerate() {
            let expected = reference_verify(public, message, signature);
            let got =
                PublicKey { bytes: *public }.verify(message, &Signature::from_bytes(signature));
            assert_eq!(got, expected, "case {i}");
            accepted += got as usize;
        }
        assert!(reference_verify(&pk, msg, &sig));
        // The valid signature plus at least one small-order combination.
        assert!(accepted >= 2, "only {accepted} cases accepted");
        assert!(accepted < cases.len() / 2);
    }

    #[test]
    fn batch_verify_accepts_exactly_when_every_item_verifies() {
        let mut drbg = ChaChaDrbg::from_seed([0xBAu8; 32]);
        // Five keys over sixteen items, so batches repeat keys.
        let keys: Vec<Keypair> = (0..5).map(|_| Keypair::generate(&mut drbg)).collect();
        let messages: Vec<Vec<u8>> = (0..16)
            .map(|i| format!("report {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = messages
            .iter()
            .enumerate()
            .map(|(i, m)| keys[i % 5].sign(m))
            .collect();
        for n in 1..=16usize {
            // Honest, then with one item corrupted in one of three ways.
            for corruption in 0..4 {
                let bad = (n * 7 + corruption) % n;
                let mut tampered = sigs[bad].to_bytes();
                tampered[40] ^= 0x10;
                let tampered = Signature::from_bytes(&tampered);
                let batch: Vec<(&PublicKey, &[u8], &Signature)> = (0..n)
                    .map(|i| match (corruption, i == bad) {
                        (1, true) => (keys[i % 5].public(), b"other".as_slice(), &sigs[i]),
                        (2, true) => (keys[(i + 1) % 5].public(), messages[i].as_slice(), &sigs[i]),
                        (3, true) => (keys[i % 5].public(), messages[i].as_slice(), &tampered),
                        _ => (keys[i % 5].public(), messages[i].as_slice(), &sigs[i]),
                    })
                    .collect();
                let every = batch.iter().all(|(k, m, s)| k.verify(m, s));
                assert_eq!(
                    verify_batch(&batch),
                    every,
                    "n = {n}, corruption {corruption}"
                );
                assert_eq!(every, corruption == 0);
            }
        }
    }

    #[test]
    fn batch_verification_accepts_honest_batches() {
        assert!(verify_batch(&[]));
        let keys: Vec<Keypair> = (0..6u8).map(|i| Keypair::from_seed([i + 1; 32])).collect();
        let messages: Vec<Vec<u8>> = (0..6)
            .map(|i| format!("attestation report {i}").into_bytes())
            .collect();
        let sigs: Vec<Signature> = keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        for n in [1, 2, 6] {
            let batch: Vec<(&PublicKey, &[u8], &Signature)> = (0..n)
                .map(|i| (keys[i].public(), messages[i].as_slice(), &sigs[i]))
                .collect();
            assert!(verify_batch(&batch), "honest batch of {n} rejected");
        }
    }

    #[test]
    fn batch_verification_rejects_any_bad_item() {
        let keys: Vec<Keypair> = (0..4u8).map(|i| Keypair::from_seed([i + 10; 32])).collect();
        let messages: Vec<Vec<u8>> = (0..4).map(|i| format!("report {i}").into_bytes()).collect();
        let sigs: Vec<Signature> = keys.iter().zip(&messages).map(|(k, m)| k.sign(m)).collect();
        for bad in 0..4usize {
            let batch: Vec<(&PublicKey, &[u8], &Signature)> = (0..4)
                .map(|i| {
                    let msg: &[u8] = if i == bad {
                        b"tampered"
                    } else {
                        messages[i].as_slice()
                    };
                    (keys[i].public(), msg, &sigs[i])
                })
                .collect();
            assert!(!verify_batch(&batch), "batch with bad item {bad} accepted");
        }
        // A wrong-key item is also rejected.
        let batch: Vec<(&PublicKey, &[u8], &Signature)> = (0..4)
            .map(|i| {
                let key = if i == 2 {
                    keys[0].public()
                } else {
                    keys[i].public()
                };
                (key, messages[i].as_slice(), &sigs[i])
            })
            .collect();
        assert!(!verify_batch(&batch));
        // Malformed encodings are rejected, not skipped.
        let mut bad_sig = sigs[0].to_bytes();
        bad_sig[3] ^= 0x40;
        let bad_sig = Signature::from_bytes(&bad_sig);
        assert!(!verify_batch(&[(
            keys[0].public(),
            messages[0].as_slice(),
            &bad_sig
        )]));
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::from_seed([42u8; 32]);
        let msg = b"remote attestation nonce + measurement";
        let sig = kp.sign(msg);
        assert!(kp.public().verify(msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::from_seed([42u8; 32]);
        let sig = kp.sign(b"original");
        assert!(!kp.public().verify(b"originaL", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = Keypair::from_seed([42u8; 32]);
        let sig = kp.sign(b"msg");
        let mut bytes = sig.to_bytes();
        bytes[5] ^= 1;
        assert!(!kp.public().verify(b"msg", &Signature::from_bytes(&bytes)));
        let mut bytes = sig.to_bytes();
        bytes[40] ^= 1;
        assert!(!kp.public().verify(b"msg", &Signature::from_bytes(&bytes)));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed([1u8; 32]);
        let kp2 = Keypair::from_seed([2u8; 32]);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn non_canonical_s_rejected() {
        // Add l to s: same value mod l but a non-canonical encoding, which a
        // strict verifier must reject (signature malleability).
        let kp = Keypair::from_seed([3u8; 32]);
        let sig = kp.sign(b"msg");
        let s = crate::bignum::U512::from_le_bytes(&sig.s);
        let l = crate::bignum::U512::from_le_bytes(&crate::scalar::L_BYTES);
        let malleated = s.wrapping_add(&l).to_le_bytes_32();
        let bad = Signature {
            r: sig.r,
            s: malleated,
        };
        assert!(!kp.public().verify(b"msg", &bad));
    }

    #[test]
    fn signature_serialization_round_trip() {
        let kp = Keypair::from_seed([9u8; 32]);
        let sig = kp.sign(b"data");
        let round = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(sig, round);
        assert!(kp.public().verify(b"data", &round));
    }

    #[test]
    fn public_key_from_bytes_validates() {
        let kp = Keypair::from_seed([8u8; 32]);
        assert!(PublicKey::from_bytes(kp.public().to_bytes()).is_some());
        // y = 1 implies x = 0; an encoding claiming x = 0 is "negative"
        // (sign bit set) is invalid and must be rejected.
        let mut negative_zero = [0u8; 32];
        negative_zero[0] = 1;
        negative_zero[31] = 0x80;
        assert!(PublicKey::from_bytes(negative_zero).is_none());
    }

    #[test]
    fn distinct_seeds_give_distinct_keys() {
        let a = Keypair::from_seed([1u8; 32]);
        let b = Keypair::from_seed([2u8; 32]);
        assert_ne!(a.public().to_bytes(), b.public().to_bytes());
    }

    #[test]
    fn deterministic_signatures() {
        let kp = Keypair::from_seed([5u8; 32]);
        assert_eq!(kp.sign(b"m").to_bytes(), kp.sign(b"m").to_bytes());
        assert_ne!(kp.sign(b"m").to_bytes(), kp.sign(b"n").to_bytes());
    }
}
