//! The trusted first party of the paper's remote-attestation protocol
//! (Fig. 7): a manufacturer PKI, a remote verifier, and the secure session
//! established over the attested key agreement.
//!
//! * [`pki::ManufacturerCa`] plays the processor manufacturer: it knows each
//!   device's provisioning secret (it fused it), re-derives the device public
//!   key, and issues the device certificate that roots the chain.
//! * [`remote::RemoteVerifier`] issues nonces, performs the verifier half of
//!   the X25519 key agreement, validates attestation evidence (certificate
//!   chain, report signature, nonce freshness, channel binding, expected
//!   measurement) and produces a [`session::SecureSession`].
//! * [`session::SecureSession`] protects application traffic with the agreed
//!   key (Fig. 7 step ⑩), enforcing strict message ordering.
//!
//! The whole tier is shared-state concurrent: `RemoteVerifier` and
//! `SessionPool` take `&self` everywhere and are safe to drive from many
//! threads at once. Each table sits behind one ranked lock: the challenges
//! (DRBG, outstanding map, issue queue) under one mutex, the sessions under
//! another, and the read-mostly trust state (manufacturer roots, trusted
//! measurements, revocation list, chain cache) as one immutable `Arc`
//! snapshot behind a ranked `RwLock`. A rotation, revocation or chain
//! install rebuilds the snapshot under the write guard and swaps it in, so
//! a check that starts after the swap sees the change whole, and a check
//! already running keeps the snapshot it loaded.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod pki;
pub mod remote;
pub mod session;

pub use pki::ManufacturerCa;
pub use remote::{Challenge, RemoteVerifier, VerifierStats, VerifyError};
pub use session::{InsertOutcome, SecureSession, SessionPool};
