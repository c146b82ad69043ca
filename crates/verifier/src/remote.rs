//! The remote verifier: nonce issuance, key agreement and evidence checking.
//!
//! Every public method takes `&self`, so one verifier serves any number of
//! threads. It keeps two tables, each behind one ranked lock of
//! `sanctorum_core::lockorder`:
//!
//! * **Challenges** (rank `VERIFIER_CHALLENGES`): the DRBG, the outstanding
//!   map and its issue-order queue, under one mutex. `begin` draws the nonce
//!   and then the DH secret and files the challenge under that lock, so a
//!   given seed issues the same nonce sequence whatever the thread count.
//!   Challenges expire after a **generation-counted TTL** (no wall clock):
//!   every `begin` advances the generation, and a challenge older than
//!   [`RemoteVerifier::challenge_ttl`] generations is evicted the next time
//!   one is filed, with evictions surfaced in [`VerifierStats`].
//! * **Trust** (rank `VERIFIER_TRUST`): the accepted manufacturer roots, the
//!   trusted measurements, the device revocation list and the cache of
//!   validated certificate chains, as one immutable snapshot behind a ranked
//!   `RwLock<Arc<_>>`. Every evidence check clones the `Arc` under a brief
//!   read guard. Every change (a trusted measurement, a rotation, a
//!   retirement, a revocation or a chain install) rebuilds the snapshot
//!   under the write guard and swaps it in, so revoking a device or retiring
//!   a root purges the chains it vouched for in the same swap, and a chain
//!   install re-checks revocation and roots against the latest snapshot.
//! * [`RemoteVerifier::verify_batch`] amortizes further: one snapshot load
//!   for the whole batch, one chain validation per *distinct* chain in the
//!   batch (evidence from the same machine shares its chain), and one
//!   publish for all newly validated chains.

use crate::session::SecureSession;
use sanctorum_core::attestation::AttestationEvidence;
use sanctorum_core::lockorder::{rank, OrderedMutex, OrderedRwLock};
use sanctorum_core::measurement::Measurement;
use sanctorum_crypto::ct::ct_eq;
use sanctorum_crypto::drbg::ChaChaDrbg;
use sanctorum_crypto::ed25519::{self, PublicKey};
use sanctorum_crypto::sha3::Sha3_256;
use sanctorum_crypto::x25519;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The challenge the verifier sends to the (untrusted) platform: a fresh
/// nonce and the verifier's ephemeral DH public value (Fig. 7 steps ①–②).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Challenge {
    /// Anti-replay nonce to be signed by the signing enclave.
    pub nonce: [u8; 32],
    /// The verifier's X25519 public value.
    pub verifier_dh_public: [u8; 32],
}

/// Why evidence verification failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// A certificate or the report signature did not verify.
    BadSignature,
    /// The certificate chain does not root in an accepted manufacturer key.
    UntrustedRoot,
    /// The device key the chain presents has been revoked.
    RevokedChain,
    /// The nonce in the report does not match an outstanding challenge.
    StaleNonce,
    /// The report data does not bind the enclave's DH public value.
    ChannelBindingMismatch,
    /// The enclave measurement is not one the verifier trusts.
    UnexpectedMeasurement,
    /// No challenge is outstanding.
    NoChallenge,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            VerifyError::BadSignature => "signature or certificate verification failed",
            VerifyError::UntrustedRoot => "certificate chain does not root in the manufacturer",
            VerifyError::RevokedChain => "device key has been revoked",
            VerifyError::StaleNonce => "nonce mismatch (replayed, stale or evicted evidence)",
            VerifyError::ChannelBindingMismatch => "report data does not bind the enclave key",
            VerifyError::UnexpectedMeasurement => "enclave measurement is not trusted",
            VerifyError::NoChallenge => "no outstanding challenge",
        };
        write!(f, "{text}")
    }
}

impl std::error::Error for VerifyError {}

/// A point-in-time snapshot of the verifier's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifierStats {
    /// Challenges currently outstanding.
    pub outstanding_challenges: usize,
    /// Evidence checks that skipped certificate validation via the cache.
    pub chain_cache_hits: u64,
    /// Distinct validated chains currently cached.
    pub chain_cache_entries: usize,
    /// Challenges evicted by the generation TTL without being consumed.
    pub evicted_challenges: u64,
    /// Evidence checks that produced a secure session.
    pub verified_sessions: u64,
    /// Evidence checks rejected (any [`VerifyError`]).
    pub rejected_evidence: u64,
    /// Trust-state epoch: bumped by every rotation, revocation or newly
    /// trusted measurement (a chain install does not bump it).
    pub trust_epoch: u64,
}

/// Read-mostly trust state, swapped atomically as one snapshot.
#[derive(Debug, Clone)]
struct TrustState {
    /// Accepted manufacturer roots. More than one only mid-rotation: the
    /// incoming root is accepted alongside the outgoing one until the old
    /// root is retired.
    roots: Vec<PublicKey>,
    /// Enclave measurements the verifier accepts.
    measurements: Vec<Measurement>,
    /// Revoked device public keys (chain middles); evidence whose device
    /// certificate names one of these never verifies, cache or no cache.
    revoked_devices: BTreeSet<[u8; 32]>,
    /// Validated chains by fingerprint. Never holds a chain that a revoked
    /// device or an unaccepted root vouched for.
    chains: BTreeMap<[u8; 32], ChainEntry>,
    /// Version counter, bumped by every change except a chain install.
    epoch: u64,
}

/// One validated chain: the SM key it vouches for, plus the device key and
/// root that vouched, so revocation and root retirement can purge it.
#[derive(Debug, Clone, Copy)]
struct ChainEntry {
    sm_key: PublicKey,
    device_key: [u8; 32],
    root: [u8; 32],
}

/// An issued, not-yet-consumed challenge.
#[derive(Debug, Clone, Copy)]
struct ChallengeEntry {
    dh_secret: [u8; 32],
    generation: u64,
}

/// Everything that issues, files and retires challenges, under one lock.
#[derive(Debug)]
struct Challenges {
    drbg: ChaChaDrbg,
    outstanding: BTreeMap<[u8; 32], ChallengeEntry>,
    /// Issue order, so TTL eviction is O(evicted), not O(outstanding).
    issued: VecDeque<([u8; 32], u64)>,
    /// One tick per issued challenge.
    generation: u64,
    /// TTL in generations beyond which an unconsumed challenge is evicted.
    ttl: u64,
    evicted: u64,
}

impl Challenges {
    /// Draws a nonce and then a DH secret, evicts the over-TTL challenges
    /// and files the new one.
    fn issue(&mut self) -> ([u8; 32], [u8; 32]) {
        let nonce: [u8; 32] = self.drbg.random_array();
        let dh_secret = x25519::clamp_scalar(self.drbg.random_array());
        self.generation += 1;
        // The issue queue is in generation order, so eviction stops at the
        // first entry still inside the TTL.
        while let Some(&(stale_nonce, issued_at)) = self.issued.front() {
            if self.generation - issued_at <= self.ttl {
                break;
            }
            self.issued.pop_front();
            // Consumed challenges already left `outstanding`; evict only
            // one still outstanding from this issue (the generation match
            // pins the queue entry to its map entry even if a nonce were
            // ever re-issued).
            let still_outstanding = self
                .outstanding
                .get(&stale_nonce)
                .is_some_and(|entry| entry.generation == issued_at);
            if still_outstanding {
                self.outstanding.remove(&stale_nonce);
                self.evicted += 1;
            }
        }
        let generation = self.generation;
        self.outstanding.insert(
            nonce,
            ChallengeEntry {
                dh_secret,
                generation,
            },
        );
        self.issued.push_back((nonce, generation));
        (nonce, dh_secret)
    }
}

/// Default challenge TTL in generations (one generation per `begin`).
const DEFAULT_CHALLENGE_TTL: u64 = 1 << 16;

/// The remote verifier (the paper's trusted first party), shareable across
/// any number of threads.
pub struct RemoteVerifier {
    /// lock rank: rank::VERIFIER_CHALLENGES
    challenges: OrderedMutex<Challenges>,
    /// lock rank: rank::VERIFIER_TRUST
    trust: OrderedRwLock<Arc<TrustState>>,
    chain_cache_hits: AtomicU64,
    verified_sessions: AtomicU64,
    rejected_evidence: AtomicU64,
}

impl fmt::Debug for RemoteVerifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let trust = self.trust();
        write!(
            f,
            "RemoteVerifier {{ trust_epoch: {}, roots: {}, measurements: {}, revoked: {}, outstanding: {} }}",
            trust.epoch,
            trust.roots.len(),
            trust.measurements.len(),
            trust.revoked_devices.len(),
            self.outstanding_challenges(),
        )
    }
}

impl RemoteVerifier {
    /// Creates a verifier pinning `manufacturer_root` and trusting enclaves
    /// whose measurement appears in `trusted_measurements`.
    pub fn new(
        manufacturer_root: PublicKey,
        trusted_measurements: Vec<Measurement>,
        rng_seed: [u8; 32],
    ) -> Self {
        Self {
            challenges: OrderedMutex::new(
                rank::VERIFIER_CHALLENGES,
                Challenges {
                    drbg: ChaChaDrbg::from_seed(rng_seed),
                    outstanding: BTreeMap::new(),
                    issued: VecDeque::new(),
                    generation: 0,
                    ttl: DEFAULT_CHALLENGE_TTL,
                    evicted: 0,
                },
            ),
            trust: OrderedRwLock::new(
                rank::VERIFIER_TRUST,
                Arc::new(TrustState {
                    roots: vec![manufacturer_root],
                    measurements: trusted_measurements,
                    revoked_devices: BTreeSet::new(),
                    chains: BTreeMap::new(),
                    epoch: 0,
                }),
            ),
            chain_cache_hits: AtomicU64::new(0),
            verified_sessions: AtomicU64::new(0),
            rejected_evidence: AtomicU64::new(0),
        }
    }

    // ---- trust-state publishes ----------------------------------------------

    /// The current trust snapshot (an `Arc` clone under a brief read guard).
    fn trust(&self) -> Arc<TrustState> {
        Arc::clone(&self.trust.read())
    }

    /// Rebuilds the trust snapshot under the write guard and swaps it in.
    /// Readers mid-`verify` keep their snapshot; every check that starts
    /// after the swap sees the new state.
    fn publish(&self, mutate: impl FnOnce(&mut TrustState)) {
        let mut snapshot = self.trust.write();
        let mut next = TrustState::clone(&snapshot);
        mutate(&mut next);
        *snapshot = Arc::new(next);
    }

    /// A publish that changes what the verifier trusts: the next epoch.
    fn publish_trust(&self, mutate: impl FnOnce(&mut TrustState)) {
        self.publish(|trust| {
            mutate(trust);
            trust.epoch += 1;
        });
    }

    /// Adds a measurement to the trusted set (next trust epoch).
    pub fn trust_measurement(&self, measurement: Measurement) {
        self.publish_trust(|trust| trust.measurements.push(measurement));
    }

    /// Begins accepting `new_root` alongside the current root(s): the
    /// rotation window during which devices re-certify under the new CA.
    pub fn rotate_manufacturer_root(&self, new_root: PublicKey) {
        self.publish_trust(|trust| {
            if !trust.roots.contains(&new_root) {
                trust.roots.push(new_root);
            }
        });
    }

    /// Stops accepting `old_root`, completing a rotation. Cached chains
    /// that rooted in it are purged in the same swap.
    pub fn retire_manufacturer_root(&self, old_root: PublicKey) {
        let old = old_root.to_bytes();
        self.publish_trust(|trust| {
            trust.roots.retain(|r| *r != old_root);
            trust.chains.retain(|_, entry| entry.root != old);
        });
    }

    /// Revokes a device public key: evidence whose chain presents it never
    /// verifies again, and its cached chains are purged in the same swap.
    pub fn revoke_device(&self, device_key: PublicKey) {
        let device = device_key.to_bytes();
        self.publish_trust(|trust| {
            trust.revoked_devices.insert(device);
            trust.chains.retain(|_, entry| entry.device_key != device);
        });
    }

    // ---- stats --------------------------------------------------------------

    /// Number of challenges currently outstanding.
    pub fn outstanding_challenges(&self) -> usize {
        self.challenges.lock().outstanding.len()
    }

    /// How many evidence checks skipped certificate validation via the
    /// chain cache.
    pub fn chain_cache_hits(&self) -> u64 {
        self.chain_cache_hits.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> VerifierStats {
        let (outstanding_challenges, evicted_challenges) = {
            let challenges = self.challenges.lock();
            (challenges.outstanding.len(), challenges.evicted)
        };
        let trust = self.trust();
        VerifierStats {
            outstanding_challenges,
            chain_cache_hits: self.chain_cache_hits.load(Ordering::Relaxed),
            chain_cache_entries: trust.chains.len(),
            evicted_challenges,
            verified_sessions: self.verified_sessions.load(Ordering::Relaxed),
            rejected_evidence: self.rejected_evidence.load(Ordering::Relaxed),
            trust_epoch: trust.epoch,
        }
    }

    /// Sets the challenge TTL in generations (one generation per `begin`).
    /// A challenge unconsumed for more than `ttl` generations is evicted.
    pub fn set_challenge_ttl(&self, ttl: u64) {
        self.challenges.lock().ttl = ttl.max(1);
    }

    /// The current challenge TTL in generations.
    pub fn challenge_ttl(&self) -> u64 {
        self.challenges.lock().ttl
    }

    // ---- challenges ---------------------------------------------------------

    /// Begins an attestation: generates a nonce and an ephemeral DH key.
    /// Challenges accumulate — beginning a new one does not invalidate those
    /// already outstanding — but a challenge left unconsumed for more than
    /// [`Self::challenge_ttl`] generations is evicted (counted in stats).
    pub fn begin(&self) -> Challenge {
        // Drawn and filed under one lock in the fixed nonce-then-secret
        // order, so the sequence of issued nonces for a given seed does not
        // depend on how many threads call `begin` (the signature memo and
        // signing caches of the explorer workloads depend on this schedule).
        let (nonce, dh_secret) = self.challenges.lock().issue();
        Challenge {
            nonce,
            verifier_dh_public: x25519::public_key(&dh_secret),
        }
    }

    /// Issues `count` challenges at once (one per client of a batch).
    pub fn begin_many(&self, count: usize) -> Vec<Challenge> {
        (0..count).map(|_| self.begin()).collect()
    }

    /// Consumes the outstanding challenge matching `nonce`, if any.
    fn take_challenge(&self, nonce: &[u8; 32]) -> Result<[u8; 32], VerifyError> {
        let mut challenges = self.challenges.lock();
        if challenges.outstanding.is_empty() {
            return Err(VerifyError::NoChallenge);
        }
        // The attacker-supplied nonce is matched against every outstanding
        // challenge in constant time per comparison (no early-exit prefix
        // matching).
        let matched = challenges
            .outstanding
            .keys()
            .fold(None, |found, candidate| {
                if ct_eq(candidate, nonce) {
                    Some(*candidate)
                } else {
                    found
                }
            })
            .ok_or(VerifyError::StaleNonce)?;
        let entry = challenges
            .outstanding
            .remove(&matched)
            .expect("matched key exists");
        Ok(entry.dh_secret)
    }

    // ---- evidence -----------------------------------------------------------

    fn chain_fingerprint(evidence: &AttestationEvidence) -> [u8; 32] {
        let mut bytes = Vec::with_capacity(256);
        for cert in [&evidence.device_certificate, &evidence.sm_certificate] {
            bytes.extend_from_slice(&cert.subject_public_key.to_bytes());
            bytes.extend_from_slice(&(cert.subject_info.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&cert.subject_info);
            bytes.extend_from_slice(&cert.issuer_public_key.to_bytes());
            bytes.extend_from_slice(&cert.signature.to_bytes());
        }
        Sha3_256::digest(&bytes)
    }

    /// Validates the evidence's certificate chain against a trust snapshot,
    /// via the snapshot's cache when the exact (device certificate, SM
    /// certificate) pair has been seen before. Returns the chain and whether
    /// it was validated just now, i.e. still needs installing.
    fn validate_chain(
        &self,
        evidence: &AttestationEvidence,
        fingerprint: &[u8; 32],
        trust: &TrustState,
    ) -> Result<(ChainEntry, bool), VerifyError> {
        let root = evidence.device_certificate.issuer_public_key;
        if !trust.roots.contains(&root) {
            return Err(VerifyError::UntrustedRoot);
        }
        let device_key = evidence.device_certificate.subject_public_key.to_bytes();
        if trust.revoked_devices.contains(&device_key) {
            return Err(VerifyError::RevokedChain);
        }
        if let Some(entry) = trust.chains.get(fingerprint) {
            self.chain_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((*entry, false));
        }
        let chain_ok = evidence.device_certificate.verify()
            && evidence.sm_certificate.verify()
            && evidence.sm_certificate.issuer_public_key
                == evidence.device_certificate.subject_public_key;
        if !chain_ok {
            return Err(VerifyError::BadSignature);
        }
        let entry = ChainEntry {
            sm_key: evidence.sm_certificate.subject_public_key,
            device_key,
            root: root.to_bytes(),
        };
        Ok((entry, true))
    }

    /// Publishes newly validated chains into the cache (one swap for the
    /// whole slice). Revocation and roots are re-checked against the latest
    /// snapshot inside the write guard, so a revocation or retirement that
    /// landed after the chains were validated is never undone.
    fn install_chains(&self, chains: &[([u8; 32], ChainEntry)]) {
        if chains.is_empty() {
            return;
        }
        self.publish(|trust| {
            for (fingerprint, entry) in chains {
                if !trust.revoked_devices.contains(&entry.device_key)
                    && trust.roots.iter().any(|r| r.to_bytes() == entry.root)
                {
                    trust.chains.insert(*fingerprint, *entry);
                }
            }
        });
    }

    /// The checks downstream of the report signature: channel binding,
    /// measurement, session derivation (shared by the serial path and the
    /// batch-verified path).
    fn finish_evidence(
        &self,
        evidence: &AttestationEvidence,
        enclave_dh_public: &[u8; 32],
        dh_secret: [u8; 32],
        trust: &TrustState,
    ) -> Result<SecureSession, VerifyError> {
        let expected_binding = Sha3_256::digest(enclave_dh_public);
        if !ct_eq(&evidence.report.report_data, &expected_binding) {
            return Err(VerifyError::ChannelBindingMismatch);
        }
        if !trust
            .measurements
            .iter()
            .any(|m| m.ct_eq(&evidence.report.enclave_measurement))
        {
            return Err(VerifyError::UnexpectedMeasurement);
        }
        let shared = x25519::shared_secret(&dh_secret, enclave_dh_public);
        Ok(SecureSession::new(&shared, &evidence.report.nonce))
    }

    fn count_outcome<T>(&self, result: &Result<T, VerifyError>) {
        match result {
            Ok(_) => self.verified_sessions.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.rejected_evidence.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Verifies attestation evidence and, on success, derives the secure
    /// session bound to the attested enclave (Fig. 7 steps ⑧–⑩).
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] describing the first check that failed; the
    /// matching outstanding challenge is consumed either way (nonces are
    /// single-use).
    pub fn verify(
        &self,
        evidence: &AttestationEvidence,
        enclave_dh_public: &[u8; 32],
    ) -> Result<SecureSession, VerifyError> {
        let result = (|| {
            let dh_secret = self.take_challenge(&evidence.report.nonce)?;
            let trust = self.trust();
            let fingerprint = Self::chain_fingerprint(evidence);
            let (entry, fresh) = self.validate_chain(evidence, &fingerprint, &trust)?;
            if fresh {
                self.install_chains(&[(fingerprint, entry)]);
            }
            if !entry
                .sm_key
                .verify(&evidence.report.to_signed_bytes(), &evidence.signature)
            {
                return Err(VerifyError::BadSignature);
            }
            self.finish_evidence(evidence, enclave_dh_public, dh_secret, &trust)
        })();
        self.count_outcome(&result);
        result
    }

    /// Verifies a batch of evidence, one result per item, amortizing across
    /// the batch: the trust state is loaded once, each *distinct* chain in
    /// the batch is validated at most once (evidence from one machine shares
    /// its chain), and all newly validated chains land in the cache with a
    /// single publish.
    pub fn verify_batch(
        &self,
        items: &[(AttestationEvidence, [u8; 32])],
    ) -> Vec<Result<SecureSession, VerifyError>> {
        let trust = self.trust();
        let fingerprints: Vec<[u8; 32]> = items
            .iter()
            .map(|(evidence, _)| Self::chain_fingerprint(evidence))
            .collect();
        let mut resolved: BTreeMap<[u8; 32], Result<ChainEntry, VerifyError>> = BTreeMap::new();
        let mut fresh: Vec<([u8; 32], ChainEntry)> = Vec::new();
        for ((evidence, _), fingerprint) in items.iter().zip(&fingerprints) {
            resolved.entry(*fingerprint).or_insert_with(|| {
                let outcome = self.validate_chain(evidence, fingerprint, &trust);
                if let Ok((entry, true)) = outcome {
                    fresh.push((*fingerprint, entry));
                }
                outcome.map(|(entry, _)| entry)
            });
        }
        self.install_chains(&fresh);

        // Consume each item's challenge and chain verdict, staging the report
        // signature inputs of every still-valid item.
        struct StagedEvidence {
            dh_secret: [u8; 32],
            entry: ChainEntry,
            signed: Vec<u8>,
        }
        let staged: Vec<Result<StagedEvidence, VerifyError>> = items
            .iter()
            .zip(&fingerprints)
            .map(|((evidence, _), fingerprint)| {
                let dh_secret = self.take_challenge(&evidence.report.nonce)?;
                let entry = resolved[fingerprint]?;
                Ok(StagedEvidence {
                    dh_secret,
                    entry,
                    signed: evidence.report.to_signed_bytes(),
                })
            })
            .collect();

        // One random-linear-combination check covers every staged report
        // signature: the multiscalar doubling chain is shared across the
        // batch, so per-evidence signature cost drops well below a lone
        // verification. A failed batch falls back to per-item verification,
        // which both preserves exact single-verify semantics and pins the
        // failure on the right evidence.
        let batch_ok = {
            let triples: Vec<(&PublicKey, &[u8], &ed25519::Signature)> = staged
                .iter()
                .zip(items)
                .filter_map(|(stage, (evidence, _))| {
                    stage
                        .as_ref()
                        .ok()
                        .map(|s| (&s.entry.sm_key, s.signed.as_slice(), &evidence.signature))
                })
                .collect();
            ed25519::verify_batch(&triples)
        };

        items
            .iter()
            .zip(staged)
            .map(|((evidence, dh_public), stage)| {
                let result = (|| {
                    let s = stage?;
                    if !batch_ok && !s.entry.sm_key.verify(&s.signed, &evidence.signature) {
                        return Err(VerifyError::BadSignature);
                    }
                    self.finish_evidence(evidence, dh_public, s.dh_secret, &trust)
                })();
                self.count_outcome(&result);
                result
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sanctorum_core::attestation::{AttestationReport, Certificate};
    use sanctorum_crypto::ed25519::Keypair;

    struct Fixture {
        verifier: RemoteVerifier,
        sm_key: Keypair,
        device_cert: Certificate,
        sm_cert: Certificate,
        enclave_measurement: Measurement,
    }

    fn fixture() -> Fixture {
        let manufacturer = Keypair::from_seed([1; 32]);
        let device = Keypair::from_seed([2; 32]);
        let sm_key = Keypair::from_seed([3; 32]);
        let device_cert = Certificate::issue(&manufacturer, *device.public(), b"device".to_vec());
        let sm_cert = Certificate::issue(&device, *sm_key.public(), b"sm".to_vec());
        let enclave_measurement = Measurement([0x44; 32]);
        let verifier = RemoteVerifier::new(
            *manufacturer.public(),
            vec![enclave_measurement],
            [9; 32],
        );
        Fixture {
            verifier,
            sm_key,
            device_cert,
            sm_cert,
            enclave_measurement,
        }
    }

    fn make_evidence(
        f: &Fixture,
        nonce: [u8; 32],
        enclave_dh_public: &[u8; 32],
        measurement: Measurement,
    ) -> AttestationEvidence {
        let report = AttestationReport {
            enclave_measurement: measurement,
            nonce,
            report_data: Sha3_256::digest(enclave_dh_public),
        };
        let signature = f.sm_key.sign(&report.to_signed_bytes());
        AttestationEvidence {
            report,
            signature,
            sm_certificate: f.sm_cert.clone(),
            device_certificate: f.device_cert.clone(),
        }
    }

    #[test]
    fn end_to_end_verification_and_session() {
        let f = fixture();
        let challenge = f.verifier.begin();
        let enclave_secret = x25519::clamp_scalar([7; 32]);
        let enclave_public = x25519::public_key(&enclave_secret);
        let evidence = make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        let mut session = f.verifier.verify(&evidence, &enclave_public).expect("verifies");

        // The enclave derives the same session from its side.
        let shared = x25519::shared_secret(&enclave_secret, &challenge.verifier_dh_public);
        let mut enclave_session = SecureSession::new(&shared, &challenge.nonce);
        let sealed = session.seal(b"query for the enclave");
        assert_eq!(
            enclave_session.open(&sealed).expect("opens"),
            b"query for the enclave"
        );
        let stats = f.verifier.stats();
        assert_eq!(stats.verified_sessions, 1);
        assert_eq!(stats.rejected_evidence, 0);
        assert_eq!(stats.chain_cache_entries, 1);
    }

    #[test]
    fn nonce_schedule_is_seed_deterministic_and_concurrency_independent() {
        // The whole explorer signature-memo design rests on this: a fresh
        // verifier with a given seed issues the same nonce sequence as the
        // old single-threaded implementation, regardless of sharding.
        let a = RemoteVerifier::new(
            *Keypair::from_seed([1; 32]).public(),
            Vec::new(),
            [0x42; 32],
        );
        let b = RemoteVerifier::new(
            *Keypair::from_seed([2; 32]).public(),
            Vec::new(),
            [0x42; 32],
        );
        let from_a: Vec<_> = a.begin_many(16).iter().map(|c| c.nonce).collect();
        let from_b: Vec<_> = b.begin_many(16).iter().map(|c| c.nonce).collect();
        assert_eq!(from_a, from_b);
        // And the DH halves agree too (same draw order).
        assert_eq!(
            a.begin().verifier_dh_public,
            b.begin().verifier_dh_public
        );
    }

    #[test]
    fn wrong_nonce_rejected() {
        let f = fixture();
        let _ = f.verifier.begin();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let evidence = make_evidence(&f, [0xab; 32], &enclave_public, f.enclave_measurement);
        assert_eq!(
            f.verifier.verify(&evidence, &enclave_public).unwrap_err(),
            VerifyError::StaleNonce
        );
    }

    #[test]
    fn unexpected_measurement_rejected() {
        let f = fixture();
        let challenge = f.verifier.begin();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let evidence = make_evidence(&f, challenge.nonce, &enclave_public, Measurement([0; 32]));
        assert_eq!(
            f.verifier.verify(&evidence, &enclave_public).unwrap_err(),
            VerifyError::UnexpectedMeasurement
        );
    }

    #[test]
    fn channel_binding_mismatch_rejected() {
        let f = fixture();
        let challenge = f.verifier.begin();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let other_public = x25519::public_key(&x25519::clamp_scalar([8; 32]));
        // Evidence binds a *different* key than the one presented.
        let evidence = make_evidence(&f, challenge.nonce, &other_public, f.enclave_measurement);
        assert_eq!(
            f.verifier.verify(&evidence, &enclave_public).unwrap_err(),
            VerifyError::ChannelBindingMismatch
        );
    }

    #[test]
    fn untrusted_root_rejected() {
        let f = fixture();
        let challenge = f.verifier.begin();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let mut evidence =
            make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        // Re-issue the device certificate under a different (untrusted) CA.
        let rogue_ca = Keypair::from_seed([66; 32]);
        evidence.device_certificate = Certificate::issue(
            &rogue_ca,
            evidence.device_certificate.subject_public_key,
            b"device".to_vec(),
        );
        assert_eq!(
            f.verifier.verify(&evidence, &enclave_public).unwrap_err(),
            VerifyError::UntrustedRoot
        );
    }

    #[test]
    fn replayed_evidence_rejected() {
        let f = fixture();
        let challenge = f.verifier.begin();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let evidence = make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        assert!(f.verifier.verify(&evidence, &enclave_public).is_ok());
        // The challenge has been consumed; replaying the same evidence fails.
        assert_eq!(
            f.verifier.verify(&evidence, &enclave_public).unwrap_err(),
            VerifyError::NoChallenge
        );
    }

    #[test]
    fn revoked_device_never_verifies_even_with_a_warm_cache() {
        let f = fixture();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));

        // Warm the chain cache with a successful verification.
        let challenge = f.verifier.begin();
        let evidence = make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        assert!(f.verifier.verify(&evidence, &enclave_public).is_ok());
        assert_eq!(f.verifier.stats().chain_cache_entries, 1);

        // Revoke the device the chain presents: the cached chain is purged
        // in the same stroke as the revocation-list publish.
        f.verifier
            .revoke_device(f.device_cert.subject_public_key);
        assert_eq!(f.verifier.stats().chain_cache_entries, 0);

        let challenge = f.verifier.begin();
        let evidence = make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        assert_eq!(
            f.verifier.verify(&evidence, &enclave_public).unwrap_err(),
            VerifyError::RevokedChain
        );
        assert!(f.verifier.stats().trust_epoch >= 1);
    }

    #[test]
    fn root_rotation_window_accepts_both_then_retires_the_old() {
        let f = fixture();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let new_ca = Keypair::from_seed([77; 32]);

        // Mid-rotation: both roots accepted.
        f.verifier.rotate_manufacturer_root(*new_ca.public());
        let challenge = f.verifier.begin();
        let evidence = make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        assert!(f.verifier.verify(&evidence, &enclave_public).is_ok());

        // A chain re-issued under the new CA also verifies.
        let device = Keypair::from_seed([2; 32]);
        let new_device_cert =
            Certificate::issue(&new_ca, *device.public(), b"device".to_vec());
        let challenge = f.verifier.begin();
        let mut evidence =
            make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        evidence.device_certificate = new_device_cert.clone();
        assert!(f.verifier.verify(&evidence, &enclave_public).is_ok());

        // Rotation completes: the old root is retired, its cached chains are
        // purged, and old-chain evidence stops verifying.
        let old_root = f.device_cert.issuer_public_key;
        f.verifier.retire_manufacturer_root(old_root);
        let challenge = f.verifier.begin();
        let evidence = make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        assert_eq!(
            f.verifier.verify(&evidence, &enclave_public).unwrap_err(),
            VerifyError::UntrustedRoot
        );
        // New-chain evidence still verifies after the retirement.
        let challenge = f.verifier.begin();
        let mut evidence =
            make_evidence(&f, challenge.nonce, &enclave_public, f.enclave_measurement);
        evidence.device_certificate = new_device_cert;
        assert!(f.verifier.verify(&evidence, &enclave_public).is_ok());
    }

    #[test]
    fn unconsumed_challenges_evict_after_the_generation_ttl() {
        // Regression test for the unbounded outstanding-challenge map: with
        // a TTL of 8 generations, sustained `begin` traffic with no matching
        // evidence must keep the outstanding count bounded near the TTL and
        // surface the evictions in stats — not grow without limit.
        let f = fixture();
        f.verifier.set_challenge_ttl(8);
        let first = f.verifier.begin();
        for _ in 0..256 {
            let _ = f.verifier.begin();
        }
        let stats = f.verifier.stats();
        assert!(
            stats.evicted_challenges > 0,
            "sustained unanswered challenges must evict"
        );
        assert!(
            stats.outstanding_challenges < 257,
            "outstanding map must stay bounded, saw {}",
            stats.outstanding_challenges
        );
        // The very first challenge is long past its TTL: its evidence is
        // stale (evicted), not verifiable.
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let evidence = make_evidence(&f, first.nonce, &enclave_public, f.enclave_measurement);
        assert_eq!(
            f.verifier.verify(&evidence, &enclave_public).unwrap_err(),
            VerifyError::StaleNonce
        );
        // A freshly issued challenge still verifies fine.
        let live = f.verifier.begin();
        let evidence = make_evidence(&f, live.nonce, &enclave_public, f.enclave_measurement);
        assert!(f.verifier.verify(&evidence, &enclave_public).is_ok());
    }

    #[test]
    fn batch_verification_amortizes_chain_validation() {
        let f = fixture();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let challenges = f.verifier.begin_many(8);
        let items: Vec<_> = challenges
            .iter()
            .map(|c| {
                (
                    make_evidence(&f, c.nonce, &enclave_public, f.enclave_measurement),
                    enclave_public,
                )
            })
            .collect();
        let results = f.verifier.verify_batch(&items);
        assert!(results.iter().all(|r| r.is_ok()));
        let stats = f.verifier.stats();
        // All eight shared one chain: it was validated once, cached once.
        assert_eq!(stats.chain_cache_entries, 1);
        assert_eq!(stats.verified_sessions, 8);
    }

    #[test]
    fn batch_with_one_tampered_signature_pins_only_that_item() {
        // The fast path batch-verifies every report signature at once; a
        // tampered signature must fail the combined check and the per-item
        // fallback must blame exactly the tampered evidence.
        let f = fixture();
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        let challenges = f.verifier.begin_many(4);
        let mut items: Vec<_> = challenges
            .iter()
            .map(|c| {
                (
                    make_evidence(&f, c.nonce, &enclave_public, f.enclave_measurement),
                    enclave_public,
                )
            })
            .collect();
        let mut sig = items[2].0.signature.to_bytes();
        sig[10] ^= 1;
        items[2].0.signature = sanctorum_crypto::ed25519::Signature::from_bytes(&sig);
        let results = f.verifier.verify_batch(&items);
        for (i, result) in results.iter().enumerate() {
            if i == 2 {
                assert_eq!(result.as_ref().unwrap_err(), &VerifyError::BadSignature);
            } else {
                assert!(result.is_ok(), "item {i} should verify");
            }
        }
    }

    #[test]
    fn concurrent_verification_from_many_threads() {
        use std::sync::Arc;
        let f = Arc::new(fixture());
        let mut handles = Vec::new();
        for t in 0..8u8 {
            let f = Arc::clone(&f);
            handles.push(std::thread::spawn(move || {
                let mut verified = 0usize;
                for i in 0..16 {
                    let challenge = f.verifier.begin();
                    let secret = x25519::clamp_scalar([t.wrapping_mul(31).wrapping_add(i); 32]);
                    let public = x25519::public_key(&secret);
                    let evidence =
                        make_evidence(&f, challenge.nonce, &public, f.enclave_measurement);
                    if f.verifier.verify(&evidence, &public).is_ok() {
                        verified += 1;
                    }
                }
                verified
            }));
        }
        let verified: usize = handles.into_iter().map(|h| h.join().expect("joins")).sum();
        assert_eq!(verified, 8 * 16, "every thread's every exchange verifies");
        let stats = f.verifier.stats();
        assert_eq!(stats.verified_sessions, 8 * 16);
        assert_eq!(stats.outstanding_challenges, 0);
        assert_eq!(stats.chain_cache_entries, 1);
    }

    /// One thread loops over `verify` and `verify_batch` while a second
    /// withdraws trust in the chain's device or root after the first
    /// successful batch and then raises a flag. Every call that started
    /// after the flag must reject with `expected`, and the cache must end
    /// empty: no install in flight when the withdrawal landed may have put
    /// the chain back. Each round presents a fresh SM certificate, so every
    /// call misses the cache and installs; whether the withdrawal lands
    /// inside an install window is up to the scheduler, so the race runs
    /// several times. Debug builds rank-check every acquisition on both
    /// threads.
    fn withdrawal_races_in_flight_verification(withdraw: fn(&Fixture), expected: VerifyError) {
        use std::sync::atomic::AtomicBool;
        const TRIALS: usize = 8;
        const CALLS_AFTER_FLAG: usize = 16;
        let device = Keypair::from_seed([2; 32]);
        let enclave_public = x25519::public_key(&x25519::clamp_scalar([7; 32]));
        for trial in 0..TRIALS {
            let f = fixture();
            let batch_verified = AtomicBool::new(false);
            let withdrawn = AtomicBool::new(false);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    while !batch_verified.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    withdraw(&f);
                    withdrawn.store(true, Ordering::Release);
                });
                let mut calls_after_flag = 0;
                let mut round = 0u32;
                while calls_after_flag < CALLS_AFTER_FLAG {
                    round += 1;
                    let sm_cert = Certificate::issue(
                        &device,
                        *f.sm_key.public(),
                        format!("sm round {round}").into_bytes(),
                    );
                    let evidence = |challenge: &Challenge| {
                        let mut evidence = make_evidence(
                            &f,
                            challenge.nonce,
                            &enclave_public,
                            f.enclave_measurement,
                        );
                        evidence.sm_certificate = sm_cert.clone();
                        (evidence, enclave_public)
                    };
                    let batch = round % 2 == 1;
                    let started_after_flag = withdrawn.load(Ordering::Acquire);
                    let results: Vec<_> = if batch {
                        let items: Vec<_> = f.verifier.begin_many(4).iter().map(evidence).collect();
                        f.verifier.verify_batch(&items)
                    } else {
                        let (evidence, public) = evidence(&f.verifier.begin());
                        vec![f.verifier.verify(&evidence, &public)]
                    };
                    for result in &results {
                        match result {
                            Err(err) if *err == expected => {}
                            Ok(_) if !started_after_flag => {}
                            other => panic!(
                                "trial {trial} round {round}: {other:?} \
                                 (started after the flag: {started_after_flag})"
                            ),
                        }
                    }
                    if started_after_flag {
                        calls_after_flag += 1;
                    } else if batch && results.iter().all(Result::is_ok) {
                        batch_verified.store(true, Ordering::Release);
                    }
                }
            });
            let stats = f.verifier.stats();
            assert_eq!(
                stats.chain_cache_entries, 0,
                "trial {trial}: a chain was resurrected"
            );
            assert_eq!(stats.outstanding_challenges, 0, "trial {trial}");
        }
    }

    #[test]
    fn revocation_races_in_flight_verification() {
        withdrawal_races_in_flight_verification(
            |f| f.verifier.revoke_device(f.device_cert.subject_public_key),
            VerifyError::RevokedChain,
        );
    }

    #[test]
    fn root_retirement_races_in_flight_verification() {
        withdrawal_races_in_flight_verification(
            |f| {
                let new_ca = Keypair::from_seed([77; 32]);
                f.verifier.rotate_manufacturer_root(*new_ca.public());
                f.verifier
                    .retire_manufacturer_root(f.device_cert.issuer_public_key);
            },
            VerifyError::UntrustedRoot,
        );
    }
}
