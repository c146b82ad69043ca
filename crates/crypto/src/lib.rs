//! Cryptographic primitives for the Sanctorum security monitor, implemented
//! from scratch.
//!
//! The paper's trusted-code-base argument counts every line of the monitor,
//! including its cryptography (Section VII-A explicitly includes the SHA-3
//! implementation in the LOC budget). To stay faithful to that accounting —
//! and to keep the workspace inside the approved offline dependency set —
//! every primitive here is implemented in this crate rather than pulled from
//! an external library:
//!
//! * [`sha3`] — Keccak-f\[1600\], SHA3-256/384/512 and SHAKE-128/256
//!   (FIPS 202), used for enclave measurement (paper Section VI-A).
//! * [`hmac`] / [`kdf`] — HMAC-SHA3 and HKDF, used for secure-boot key
//!   derivation and secure-channel key expansion.
//! * [`chacha`] / [`drbg`] — the ChaCha20 stream cipher and a ChaCha20-based
//!   deterministic random-bit generator fed by the platform entropy source
//!   (paper Section IV-B4).
//! * [`ed25519`] / [`x25519`] / [`field`] / [`scalar`] — Curve25519
//!   arithmetic, Ed25519 signatures (with SHA3-512 as the internal hash — see
//!   the note below) for remote attestation (Section VI-C), and X25519 key
//!   agreement for the attested channel (Fig. 7 step 1).
//! * [`secretbox`] — ChaCha20 + HMAC-SHA3 encrypt-then-MAC, used by the
//!   verifier/enclave secure channel after attestation.
//! * [`ct`] — constant-time comparison helpers.
//!
//! # Deviation from RFC 8032
//!
//! Standard Ed25519 uses SHA-512 internally. The paper's TCB contains only a
//! SHA-3 implementation, so this reproduction defines an "Ed25519-SHA3"
//! variant that substitutes SHA3-512. Signatures are therefore not
//! interoperable with stock Ed25519 — irrelevant here because both the signer
//! (the SM/signing enclave) and the verifier (`sanctorum-verifier`) live in
//! this workspace — but the curve and protocol structure are identical, and
//! the X25519 implementation (which involves no hash) is validated against the
//! RFC 7748 test vectors.
//!
//! # Examples
//!
//! ```
//! use sanctorum_crypto::sha3::Sha3_256;
//! let digest = Sha3_256::digest(b"hello sanctorum");
//! assert_eq!(digest.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Carry-propagation loops over fixed-width limb arrays read more clearly with
// explicit indices than with iterator adaptors; keep clippy quiet about them.
#![allow(clippy::needless_range_loop)]

pub mod chacha;
pub mod ct;
pub mod drbg;
pub mod ed25519;
pub mod field;
pub mod hmac;
pub mod kdf;
pub mod scalar;
pub mod secretbox;
pub mod sha3;
pub mod x25519;

pub use drbg::ChaChaDrbg;
pub use ed25519::{Keypair, PublicKey, SecretKey, Signature};
pub use sha3::{Sha3_256, Sha3_512, Shake256};

// The bit-serial big-integer oracle the scalar and field kernels are tested
// against; no production path uses it.
#[cfg(test)]
mod bignum;
