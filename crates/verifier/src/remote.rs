//! The remote verifier: nonce issuance, key agreement and evidence checking.
//!
//! Built for fleet-scale attestation from many threads at once. Every public
//! method takes `&self`; internally the verifier is a small lock hierarchy
//! (ranks 110–120 of `sanctorum_core::lockorder`):
//!
//! * **Challenges** live in index-interleaved shards, each a ranked mutex.
//!   `begin` draws the nonce and DH secret under the DRBG mutex — preserving
//!   the exact single-threaded nonce sequence for a given seed — then files
//!   the challenge in the nonce's shard. Challenges expire after a
//!   **generation-counted TTL** (no wall clock): every `begin` advances the
//!   generation, and a challenge older than [`RemoteVerifier::challenge_ttl`]
//!   generations is evicted the next time its shard files a new one, with
//!   evictions surfaced in [`VerifierStats`].
//! * **Trust state** (accepted manufacturer roots, trusted measurements, the
//!   device revocation list) is an immutable snapshot behind a ranked
//!   `RwLock<Arc<_>>`: every evidence check clones the `Arc` under a brief
//!   read guard, while rotation and revocation build the next snapshot under
//!   the writer mutex and only take the write guard to swap the `Arc` in.
//! * The **chain cache** (validated device/SM certificate chains) is a
//!   second `RwLock<Arc<_>>`: a hit skips both certificate verifications
//!   under one read guard; a miss verifies the chain and swaps in the grown
//!   cache under the same writer mutex. Revoking a device or retiring a
//!   root also purges the matching cache entries, so a stale cache can
//!   never resurrect a revoked chain.
//! * [`RemoteVerifier::verify_batch`] amortizes further: one trust-state
//!   load for the whole batch, one chain validation per *distinct* chain in
//!   the batch (evidence from the same machine shares its chain), and one
//!   cache publish for all newly validated chains.

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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// Challenges currently outstanding across all shards.
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
    /// trusted measurement.
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
    /// Version counter, bumped by every publish.
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

/// One shard of the outstanding-challenge map: the entries plus an
/// issue-order queue that makes TTL eviction O(evicted), not O(shard).
#[derive(Debug, Default)]
struct ChallengeShard {
    entries: BTreeMap<[u8; 32], ChallengeEntry>,
    issued: VecDeque<([u8; 32], u64)>,
}

/// How many shards the outstanding-challenge map is interleaved across.
const CHALLENGE_SHARDS: usize = 16;

/// Default challenge TTL in generations (one generation per `begin`).
const DEFAULT_CHALLENGE_TTL: u64 = 1 << 16;

/// The remote verifier (the paper's trusted first party), shareable across
/// any number of threads.
pub struct RemoteVerifier {
    /// lock rank: rank::VERIFIER_DRBG
    drbg: OrderedMutex<ChaChaDrbg>,
    /// lock rank: rank::VERIFIER_CHALLENGE_SHARD (one shard at a time)
    challenge_shards: Vec<OrderedMutex<ChallengeShard>>,
    /// Serializes all trust / chain-cache publishes. lock rank:
    /// rank::VERIFIER_WRITER
    writer: OrderedMutex<()>,
    /// lock rank: rank::VERIFIER_TRUST
    trust: OrderedRwLock<Arc<TrustState>>,
    /// lock rank: rank::VERIFIER_CHAIN_CACHE
    chain_cache: OrderedRwLock<Arc<BTreeMap<[u8; 32], ChainEntry>>>,
    /// Generation counter: one tick per issued challenge.
    generation: AtomicU64,
    /// TTL in generations beyond which an unconsumed challenge is evicted.
    challenge_ttl: AtomicU64,
    outstanding: AtomicUsize,
    chain_cache_hits: AtomicU64,
    evicted_challenges: AtomicU64,
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
            self.outstanding.load(Ordering::Relaxed),
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
            drbg: OrderedMutex::new(rank::VERIFIER_DRBG, ChaChaDrbg::from_seed(rng_seed)),
            challenge_shards: (0..CHALLENGE_SHARDS)
                .map(|_| OrderedMutex::new(rank::VERIFIER_CHALLENGE_SHARD, ChallengeShard::default()))
                .collect(),
            writer: OrderedMutex::new(rank::VERIFIER_WRITER, ()),
            trust: OrderedRwLock::new(
                rank::VERIFIER_TRUST,
                Arc::new(TrustState {
                    roots: vec![manufacturer_root],
                    measurements: trusted_measurements,
                    revoked_devices: BTreeSet::new(),
                    epoch: 0,
                }),
            ),
            chain_cache: OrderedRwLock::new(rank::VERIFIER_CHAIN_CACHE, Arc::new(BTreeMap::new())),
            generation: AtomicU64::new(0),
            challenge_ttl: AtomicU64::new(DEFAULT_CHALLENGE_TTL),
            outstanding: AtomicUsize::new(0),
            chain_cache_hits: AtomicU64::new(0),
            evicted_challenges: AtomicU64::new(0),
            verified_sessions: AtomicU64::new(0),
            rejected_evidence: AtomicU64::new(0),
        }
    }

    // ---- trust-state publishes ----------------------------------------------

    /// The current trust snapshot (an `Arc` clone under a brief read guard).
    fn trust(&self) -> Arc<TrustState> {
        Arc::clone(&self.trust.read())
    }

    /// The current chain-cache snapshot (same protocol as [`Self::trust`]).
    fn chains(&self) -> Arc<BTreeMap<[u8; 32], ChainEntry>> {
        Arc::clone(&self.chain_cache.read())
    }

    /// Rebuilds the trust state under the writer mutex and swaps it in.
    /// Readers mid-`verify` keep their snapshot; every check that starts
    /// after the swap sees the new state.
    fn publish_trust(&self, mutate: impl FnOnce(&mut TrustState)) {
        let _writer = self.writer.lock();
        let mut next = (*self.trust()).clone();
        mutate(&mut next);
        next.epoch += 1;
        *self.trust.write() = Arc::new(next);
    }

    /// Rebuilds the chain cache under the writer mutex, keeping only the
    /// entries `keep` approves.
    fn retain_chains(&self, keep: impl Fn(&ChainEntry) -> bool) {
        let _writer = self.writer.lock();
        let next: BTreeMap<[u8; 32], ChainEntry> = self
            .chains()
            .iter()
            .filter(|(_, entry)| keep(entry))
            .map(|(fp, entry)| (*fp, *entry))
            .collect();
        *self.chain_cache.write() = Arc::new(next);
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
    /// that rooted in it are purged in the same stroke.
    pub fn retire_manufacturer_root(&self, old_root: PublicKey) {
        self.publish_trust(|trust| trust.roots.retain(|r| *r != old_root));
        self.retain_chains(|entry| entry.root != old_root.to_bytes());
    }

    /// Revokes a device public key: evidence whose chain presents it never
    /// verifies again, and its cached chains are purged atomically with the
    /// revocation-list publish.
    pub fn revoke_device(&self, device_key: PublicKey) {
        self.publish_trust(|trust| {
            trust.revoked_devices.insert(device_key.to_bytes());
        });
        self.retain_chains(|entry| entry.device_key != device_key.to_bytes());
    }

    // ---- stats --------------------------------------------------------------

    /// Number of challenges currently outstanding.
    pub fn outstanding_challenges(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// How many evidence checks skipped certificate validation via the
    /// chain cache.
    pub fn chain_cache_hits(&self) -> u64 {
        self.chain_cache_hits.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> VerifierStats {
        VerifierStats {
            outstanding_challenges: self.outstanding.load(Ordering::Relaxed),
            chain_cache_hits: self.chain_cache_hits.load(Ordering::Relaxed),
            chain_cache_entries: self.chains().len(),
            evicted_challenges: self.evicted_challenges.load(Ordering::Relaxed),
            verified_sessions: self.verified_sessions.load(Ordering::Relaxed),
            rejected_evidence: self.rejected_evidence.load(Ordering::Relaxed),
            trust_epoch: self.trust().epoch,
        }
    }

    /// Sets the challenge TTL in generations (one generation per `begin`).
    /// A challenge unconsumed for more than `ttl` generations is evicted.
    pub fn set_challenge_ttl(&self, ttl: u64) {
        self.challenge_ttl.store(ttl.max(1), Ordering::Relaxed);
    }

    /// The current challenge TTL in generations.
    pub fn challenge_ttl(&self) -> u64 {
        self.challenge_ttl.load(Ordering::Relaxed)
    }

    // ---- challenges ---------------------------------------------------------

    fn challenge_shard(&self, nonce: &[u8; 32]) -> &OrderedMutex<ChallengeShard> {
        // Shard routing by the nonce's first byte. The nonce travels in the
        // clear, so the index is public information; the secret-dependent
        // comparison inside the shard stays constant-time.
        &self.challenge_shards[nonce[0] as usize % self.challenge_shards.len()]
    }

    /// Begins an attestation: generates a nonce and an ephemeral DH key.
    /// Challenges accumulate — beginning a new one does not invalidate those
    /// already outstanding — but a challenge left unconsumed for more than
    /// [`Self::challenge_ttl`] generations is evicted (counted in stats).
    pub fn begin(&self) -> Challenge {
        // Draw under the DRBG mutex in the fixed nonce-then-secret order, so
        // the sequence of issued nonces for a given seed is bit-identical to
        // the single-threaded verifier's (the signature memo and signing
        // caches of the explorer workloads depend on this schedule).
        let (nonce, dh_secret) = {
            let mut drbg = self.drbg.lock();
            let nonce: [u8; 32] = drbg.random_array();
            let dh_secret = x25519::clamp_scalar(drbg.random_array());
            (nonce, dh_secret)
        };
        let generation = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let ttl = self.challenge_ttl.load(Ordering::Relaxed);
        let mut evicted = 0usize;
        {
            let mut shard = self.challenge_shard(&nonce).lock();
            // Expire this shard's over-TTL challenges before filing the new
            // one. The issue queue is in generation order, so eviction stops
            // at the first live entry.
            while let Some(&(stale_nonce, issued_at)) = shard.issued.front() {
                if generation.saturating_sub(issued_at) <= ttl {
                    break;
                }
                shard.issued.pop_front();
                // Consumed challenges were already removed from `entries`;
                // only evict one that is still outstanding from this issue
                // (the generation check pins the queue entry to its map
                // entry even if a nonce were ever re-issued).
                let still_outstanding = shard
                    .entries
                    .get(&stale_nonce)
                    .is_some_and(|entry| entry.generation == issued_at);
                if still_outstanding {
                    shard.entries.remove(&stale_nonce);
                    evicted += 1;
                }
            }
            shard
                .entries
                .insert(nonce, ChallengeEntry { dh_secret, generation });
            shard.issued.push_back((nonce, generation));
        }
        if evicted > 0 {
            self.evicted_challenges
                .fetch_add(evicted as u64, Ordering::Relaxed);
            self.outstanding.fetch_sub(evicted, Ordering::Relaxed);
        }
        self.outstanding.fetch_add(1, Ordering::Relaxed);
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
        if self.outstanding.load(Ordering::Relaxed) == 0 {
            return Err(VerifyError::NoChallenge);
        }
        let mut shard = self.challenge_shard(nonce).lock();
        // The attacker-supplied nonce is matched against every outstanding
        // challenge of its shard in constant time per comparison (no
        // early-exit prefix matching), preserving the hardening the
        // single-map verifier had.
        let matched = shard
            .entries
            .keys()
            .fold(None, |found, candidate| {
                if ct_eq(candidate, nonce) {
                    Some(*candidate)
                } else {
                    found
                }
            })
            .ok_or(VerifyError::StaleNonce)?;
        let entry = shard.entries.remove(&matched).expect("matched key exists");
        drop(shard);
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
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
    /// via the cache when the exact (device certificate, SM certificate)
    /// pair has been seen before, and returns the SM attestation key the
    /// chain vouches for. `publish` controls whether a cache miss installs
    /// the validated chain (batch verification defers to one publish).
    fn validate_chain(
        &self,
        evidence: &AttestationEvidence,
        trust: &TrustState,
        publish: bool,
    ) -> Result<ChainEntry, VerifyError> {
        let root = evidence.device_certificate.issuer_public_key;
        if !trust.roots.contains(&root) {
            return Err(VerifyError::UntrustedRoot);
        }
        let device_key = evidence.device_certificate.subject_public_key.to_bytes();
        if trust.revoked_devices.contains(&device_key) {
            return Err(VerifyError::RevokedChain);
        }
        let fingerprint = Self::chain_fingerprint(evidence);
        let cached = self.chain_cache.read().get(&fingerprint).copied();
        if let Some(entry) = cached {
            self.chain_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(entry);
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
        if publish {
            self.install_chains(&[(fingerprint, entry)]);
        }
        Ok(entry)
    }

    /// Publishes newly validated chains into the cache (one swap for the
    /// whole slice). Re-checks revocation under the writer mutex so a
    /// concurrent `revoke_device` cannot be undone by a racing install.
    fn install_chains(&self, chains: &[([u8; 32], ChainEntry)]) {
        if chains.is_empty() {
            return;
        }
        let _writer = self.writer.lock();
        let trust = self.trust();
        let mut next = (*self.chains()).clone();
        for (fingerprint, entry) in chains {
            if !trust.revoked_devices.contains(&entry.device_key)
                && trust.roots.iter().any(|r| r.to_bytes() == entry.root)
            {
                next.insert(*fingerprint, *entry);
            }
        }
        *self.chain_cache.write() = Arc::new(next);
    }

    /// The checks downstream of challenge consumption: chain, report
    /// signature, channel binding, measurement; then session derivation.
    fn verify_evidence(
        &self,
        evidence: &AttestationEvidence,
        enclave_dh_public: &[u8; 32],
        dh_secret: [u8; 32],
        trust: &TrustState,
        chain: Result<ChainEntry, VerifyError>,
    ) -> Result<SecureSession, VerifyError> {
        let entry = chain?;
        if !entry
            .sm_key
            .verify(&evidence.report.to_signed_bytes(), &evidence.signature)
        {
            return Err(VerifyError::BadSignature);
        }
        self.finish_evidence(evidence, enclave_dh_public, dh_secret, trust)
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
            let chain = self.validate_chain(evidence, &trust, true);
            self.verify_evidence(evidence, enclave_dh_public, dh_secret, &trust, chain)
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
        let mut resolved: BTreeMap<[u8; 32], Result<ChainEntry, VerifyError>> = BTreeMap::new();
        let mut fresh: Vec<([u8; 32], ChainEntry)> = Vec::new();
        for (evidence, _) in items {
            let fingerprint = Self::chain_fingerprint(evidence);
            resolved.entry(fingerprint).or_insert_with(|| {
                let had_entry = self.chain_cache.read().contains_key(&fingerprint);
                let outcome = self.validate_chain(evidence, &trust, false);
                if let Ok(entry) = outcome {
                    if !had_entry {
                        fresh.push((fingerprint, entry));
                    }
                }
                outcome
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
            .map(|(evidence, _)| {
                let dh_secret = self.take_challenge(&evidence.report.nonce)?;
                let entry = resolved[&Self::chain_fingerprint(evidence)]?;
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
}
