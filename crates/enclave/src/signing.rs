//! The trusted signing enclave (paper Section VI-C, Fig. 7 steps ③–⑤).
//!
//! The signing enclave is the only software besides the SM that ever sees the
//! SM's attestation signing key. It receives attestation requests from other
//! enclaves through SM mailboxes, retrieves the key with
//! `get_attestation_key` (the SM checks its measurement against the
//! hard-coded expected value), signs `(nonce, report_data, requester
//! measurement)` and mails a signed [`AttestationReply`] back.
//!
//! Two operating modes share one implementation:
//!
//! * **Serial** (the seed's shape): [`SigningEnclave::accept_request_from`]
//!   arms the request mailbox for one named requester,
//!   [`SigningEnclave::process_request`] handles exactly one request,
//!   fetching the attestation key from the SM every time.
//! * **Pipelined service** (the fabric workload):
//!   [`SigningEnclave::open_service`] arms the request mailbox in wildcard
//!   ([`ANY_SENDER`]) mode and caches the derived keypair once;
//!   [`SigningEnclave::drain`] then consumes every queued request in FIFO
//!   order, consulting a signature cache keyed by
//!   `(requester measurement, challenge class)` and bounded by
//!   `SIGNATURE_TABLE_CAP` — so re-issued challenges cost a lookup, not an
//!   Ed25519 signature — and mails each reply to the
//!   requester identified by the SM's sender tag (no out-of-band requester
//!   id needed: the fabric's [`SenderIdentity::Enclave`] carries it).

use crate::client::AttestationRequest;
use sanctorum_core::api::SmApi;
use sanctorum_core::attestation::AttestationReport;
use sanctorum_core::error::{SmError, SmResult};
use sanctorum_core::mailbox::{SenderIdentity, ANY_SENDER};
use sanctorum_core::measurement::Measurement;
use sanctorum_core::monitor::SecurityMonitor;
use sanctorum_core::session::CallerSession;
use sanctorum_crypto::ed25519::{Keypair, Signature};
use sanctorum_hal::domain::EnclaveId;
use sanctorum_trust::Tainted;
use std::collections::BTreeMap;

/// Mailbox index the signing enclave uses to receive requests.
pub const REQUEST_MAILBOX: usize = 0;
/// Mailbox index requesters use to receive the signature.
pub const REPLY_MAILBOX: usize = 1;

/// The signed reply mailed back to a requester: the report the signing
/// enclave actually signed (the requester's *SM-recorded* measurement, never
/// a self-claimed one) plus the signature under the SM attestation key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReply {
    /// The report that was signed.
    pub report: AttestationReport,
    /// Signature over [`AttestationReport::to_signed_bytes`].
    pub signature: Signature,
}

/// Wire size of an encoded reply: 3 × 32 report bytes + 64 signature bytes.
pub const REPLY_LEN: usize = 96 + 64;

impl AttestationReply {
    /// Serializes the reply for transport through a mailbox.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(REPLY_LEN);
        out.extend_from_slice(self.report.enclave_measurement.as_bytes());
        out.extend_from_slice(&self.report.nonce);
        out.extend_from_slice(&self.report.report_data);
        out.extend_from_slice(&self.signature.to_bytes());
        out
    }

    /// Parses a reply; returns `None` if the length is wrong.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != REPLY_LEN {
            return None;
        }
        let mut measurement = [0u8; 32];
        let mut nonce = [0u8; 32];
        let mut report_data = [0u8; 32];
        let mut sig = [0u8; 64];
        measurement.copy_from_slice(&bytes[..32]);
        nonce.copy_from_slice(&bytes[32..64]);
        report_data.copy_from_slice(&bytes[64..96]);
        sig.copy_from_slice(&bytes[96..]);
        Some(Self {
            report: AttestationReport {
                enclave_measurement: Measurement(measurement),
                nonce,
                report_data,
            },
            signature: Signature::from_bytes(&sig),
        })
    }
}

/// Most entries [`SigningEnclave::drain`] files in the signature table: past
/// this, fresh challenges are still signed but no longer remembered. Fleet
/// traffic draws a fresh nonce for every session and never hits the table,
/// so without a cap it grows by one entry per signed session; explorer
/// worlds, which repeat challenge classes, stay far below it. Preloaded
/// signatures are not capped.
const SIGNATURE_TABLE_CAP: usize = 4096;

/// Signature-cache key: the requester's measurement plus the challenge class
/// (nonce, report data). Identical triples produce identical reports, so the
/// deterministic Ed25519 signature can be replayed from cache.
type ChallengeClass = ([u8; 32], [u8; 32], [u8; 32]);

/// Host-side logic of the signing enclave (see the crate-level substitution
/// note).
#[derive(Debug)]
pub struct SigningEnclave {
    eid: EnclaveId,
    /// Keypair derived once by [`SigningEnclave::open_service`]; the serial
    /// path deliberately leaves this empty and re-derives per request (the
    /// pre-fabric baseline the service mode is measured against).
    cached_keypair: Option<Keypair>,
    /// Signature cache keyed by (measurement, challenge class).
    signature_cache: BTreeMap<ChallengeClass, Signature>,
    cache_hits: u64,
    signatures_produced: u64,
}

impl SigningEnclave {
    /// Binds the logic to the built signing enclave `eid`.
    pub fn new(eid: EnclaveId) -> Self {
        Self {
            eid,
            cached_keypair: None,
            signature_cache: BTreeMap::new(),
            cache_hits: 0,
            signatures_produced: 0,
        }
    }

    /// Returns the enclave id.
    pub fn eid(&self) -> EnclaveId {
        self.eid
    }

    /// `(cache hits, signatures actually produced)` since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache_hits, self.signatures_produced)
    }

    fn session(&self) -> CallerSession {
        CallerSession::enclave(self.eid)
    }

    /// Prepares to receive one attestation request from `requester`
    /// (serial mode).
    ///
    /// # Errors
    ///
    /// Propagates SM mailbox errors.
    pub fn accept_request_from(
        &self,
        sm: &SecurityMonitor,
        requester: EnclaveId,
    ) -> SmResult<()> {
        sm.accept_mail(self.session(), REQUEST_MAILBOX, requester.as_u64())
    }

    /// Opens the pipelined service: arms the request mailbox for **any**
    /// sender and derives the signing keypair once.
    ///
    /// # Errors
    ///
    /// Fails if the SM refuses the key (wrong signing-enclave measurement).
    pub fn open_service(&mut self, sm: &SecurityMonitor) -> SmResult<()> {
        self.open_service_with(sm, Keypair::from_seed)
    }

    /// Like [`SigningEnclave::open_service`], with the seed → keypair
    /// derivation supplied by the caller. The SM's measurement-gated key
    /// release still runs unconditionally; only the (pure, deterministic,
    /// milliseconds-scale) scalar arithmetic behind `Keypair::from_seed` is
    /// delegated — harnesses that boot hundreds of worlds sharing one
    /// device identity memoize it.
    ///
    /// # Errors
    ///
    /// Fails if the SM refuses the key (wrong signing-enclave measurement).
    pub fn open_service_with(
        &mut self,
        sm: &SecurityMonitor,
        derive: impl FnOnce([u8; 32]) -> Keypair,
    ) -> SmResult<()> {
        sm.accept_mail(self.session(), REQUEST_MAILBOX, ANY_SENDER)?;
        let seed = sm.get_attestation_key(self.session())?;
        self.cached_keypair = Some(derive(seed));
        Ok(())
    }

    /// Drains every queued attestation request, signing and replying in FIFO
    /// order. Returns the requester ids replied to. Malformed requests,
    /// requests from the untrusted OS, and requesters whose reply mailbox
    /// refuses delivery are dropped without stalling the queue.
    ///
    /// # Errors
    ///
    /// Fails only if the service was never opened ([`SmError::InvalidState`])
    /// or an SM call fails for a non-protocol reason.
    pub fn drain(&mut self, sm: &SecurityMonitor) -> SmResult<Vec<EnclaveId>> {
        if self.cached_keypair.is_none() {
            return Err(SmError::InvalidState {
                reason: "signing service not opened",
            });
        }
        let mut served = Vec::new();
        // Peek-then-get keeps the loop shape honest: the probe is what a real
        // in-enclave loop would use to poll without blocking.
        while sm.peek_mail(self.session(), REQUEST_MAILBOX).is_ok() {
            let (message, sender) = sm.get_mail(self.session(), REQUEST_MAILBOX)?;
            let Some(request) = AttestationRequest::decode(&message) else {
                continue;
            };
            // The measurement signed is the one the SM recorded for the
            // sender — the requester cannot lie about its own identity, and
            // the OS cannot impersonate an enclave.
            let SenderIdentity::Enclave { id, measurement } = sender else {
                continue;
            };
            let reply = self.sign_request(measurement, &request);
            // A requester that never armed its reply mailbox (or exhausted
            // its queue) forfeits this reply; the service moves on, and the
            // requester does not count as served.
            let encoded = reply.encode();
            if sm.send_mail(self.session(), id, Tainted::new(&encoded)).is_ok() {
                served.push(id);
            }
        }
        Ok(served)
    }

    /// Harness support: seeds the signature cache with a previously produced
    /// (and externally verified) signature for one challenge class.
    ///
    /// Ed25519 signatures are deterministic functions of (key, message), and
    /// the attestation key is fixed per device identity — so replaying a
    /// known-good signature is observationally identical to re-signing the
    /// same report. The adversarial explorer uses this to keep a
    /// multi-hundred-world sweep from re-paying the (millisecond-scale)
    /// signing cost for identical challenge classes in every world. Callers
    /// must only preload signatures produced under **this** monitor's
    /// attestation key.
    pub fn preload_signature(
        &mut self,
        requester_measurement: Measurement,
        nonce: [u8; 32],
        report_data: [u8; 32],
        signature: Signature,
    ) {
        self.signature_cache
            .insert((*requester_measurement.as_bytes(), nonce, report_data), signature);
    }

    fn sign_request(
        &mut self,
        requester_measurement: Measurement,
        request: &AttestationRequest,
    ) -> AttestationReply {
        let report = AttestationReport {
            enclave_measurement: requester_measurement,
            nonce: request.nonce,
            report_data: request.report_data,
        };
        let key: ChallengeClass = (
            *requester_measurement.as_bytes(),
            request.nonce,
            request.report_data,
        );
        let signature = if let Some(cached) = self.signature_cache.get(&key) {
            self.cache_hits += 1;
            *cached
        } else {
            let keypair = self.cached_keypair.as_ref().expect("service opened");
            let signature = keypair.sign(&report.to_signed_bytes());
            if self.signature_cache.len() < SIGNATURE_TABLE_CAP {
                self.signature_cache.insert(key, signature);
            }
            self.signatures_produced += 1;
            signature
        };
        AttestationReply { report, signature }
    }

    /// Processes one pending attestation request the serial way: fetches the
    /// request mail, retrieves the attestation key from the SM, signs the
    /// report, and mails the reply to the requester the SM's sender tag
    /// names.
    ///
    /// Returns the report it signed (useful for tests and traces).
    ///
    /// # Errors
    ///
    /// Fails if no request is waiting, the request is malformed, the SM
    /// refuses to release the key (wrong signing-enclave measurement), or the
    /// requester is not accepting the reply.
    pub fn process_request(
        &self,
        sm: &SecurityMonitor,
    ) -> SmResult<(AttestationReport, Signature)> {
        let (message, sender) = sm.get_mail(self.session(), REQUEST_MAILBOX)?;
        let request = AttestationRequest::decode(&message).ok_or(SmError::InvalidArgument {
            reason: "malformed attestation request",
        })?;
        let SenderIdentity::Enclave {
            id: requester,
            measurement: requester_measurement,
        } = sender
        else {
            return Err(SmError::Unauthorized);
        };

        let key_seed = sm.get_attestation_key(self.session())?;
        let keypair = Keypair::from_seed(key_seed);
        let report = AttestationReport {
            enclave_measurement: requester_measurement,
            nonce: request.nonce,
            report_data: request.report_data,
        };
        let signature = keypair.sign(&report.to_signed_bytes());

        let reply = AttestationReply { report: report.clone(), signature };
        let encoded = reply.encode();
        sm.send_mail(self.session(), requester, Tainted::new(&encoded))?;
        Ok((report, signature))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::AttestationRequest;

    #[test]
    fn request_encoding_round_trip() {
        let req = AttestationRequest {
            nonce: [7; 32],
            report_data: [9; 32],
        };
        let encoded = req.encode();
        let decoded = AttestationRequest::decode(&encoded).expect("round trip");
        assert_eq!(decoded.nonce, [7; 32]);
        assert_eq!(decoded.report_data, [9; 32]);
        assert!(AttestationRequest::decode(&encoded[..40]).is_none());
    }

    #[test]
    fn reply_encoding_round_trip() {
        let reply = AttestationReply {
            report: AttestationReport {
                enclave_measurement: Measurement([3; 32]),
                nonce: [4; 32],
                report_data: [5; 32],
            },
            signature: Signature::from_bytes(&[6; 64]),
        };
        let encoded = reply.encode();
        assert_eq!(encoded.len(), REPLY_LEN);
        assert_eq!(AttestationReply::decode(&encoded).expect("round trip"), reply);
        assert!(AttestationReply::decode(&encoded[..REPLY_LEN - 1]).is_none());
    }

    #[test]
    fn signature_table_stops_growing_at_its_cap() {
        let keypair = Keypair::from_seed([0x5a; 32]);
        let public = *keypair.public();
        let mut service = SigningEnclave::new(EnclaveId::new(1));
        service.cached_keypair = Some(keypair);
        let requester = Measurement([3; 32]);
        for i in 0..SIGNATURE_TABLE_CAP + 10 {
            let mut nonce = [0u8; 32];
            nonce[..8].copy_from_slice(&(i as u64).to_le_bytes());
            let request = AttestationRequest {
                nonce,
                report_data: [9; 32],
            };
            let reply = service.sign_request(requester, &request);
            assert_eq!(reply.report.nonce, nonce);
            assert!(
                public.verify(&reply.report.to_signed_bytes(), &reply.signature),
                "reply {i}"
            );
        }
        assert!(service.signature_cache.len() <= SIGNATURE_TABLE_CAP);
        assert_eq!(service.cache_stats(), (0, SIGNATURE_TABLE_CAP as u64 + 10));
    }
}
