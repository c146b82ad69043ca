//! Multi-machine attestation worlds.
//!
//! A [`Fleet`] boots `N` fully independent simulated machines — each with its
//! own [`System`] (machine, security monitor, secure-boot identity), its own
//! device serial rooted in the simulated PKI, and its own long-running
//! signing-enclave service reached over the mailbox fabric. One manufacturer
//! CA certifies every machine's boot-derived device key, so a single
//! [`RemoteVerifier`] pinned to the CA root can attest enclaves on any
//! machine of the fleet — which is exactly the deployment shape the paper's
//! remote-attestation protocol (Fig. 7) targets: one relying party, many
//! devices.
//!
//! The harness is deterministic end to end: machine device ids, client DH
//! keypairs and the CA seed are all pure functions of the [`FleetConfig`],
//! so two boots of the same config produce bit-identical certificate chains
//! and key material. Machines are independent [`Send`] values, so a load
//! generator can park each [`FleetMachine`] on its own worker thread and
//! drive attestation rounds against one shared concurrent verifier — the
//! fleet benchmark (`fleet_stats`) does exactly that.

use crate::ops::signing_enclave_measurement;
use crate::os::Os;
use crate::system::{PlatformKind, System};
use sanctorum_core::attestation::{AttestationEvidence, Certificate};
use sanctorum_core::mailbox::MAILBOX_QUEUE_DEPTH;
use sanctorum_core::measurement::Measurement;
use sanctorum_core::monitor::{SecurityMonitor, SmConfig};
use sanctorum_crypto::ed25519::PublicKey;
use sanctorum_crypto::sha3::Sha3_256;
use sanctorum_crypto::x25519;
use sanctorum_enclave::client::AttestationClient;
use sanctorum_enclave::image::EnclaveImage;
use sanctorum_enclave::signing::SigningEnclave;
use sanctorum_hal::domain::EnclaveId;
use sanctorum_machine::MachineConfig;
use sanctorum_verifier::{ManufacturerCa, RemoteVerifier, SessionPool};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Geometry and identity of a simulated fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Isolation backend every machine boots on.
    pub platform: PlatformKind,
    /// Number of machines (≥ 1; the fleet benchmark requires ≥ 4).
    pub machines: usize,
    /// Attestation-client enclaves built per machine (≥ 1; bounded by the
    /// machine geometry — see [`Fleet::boot`]).
    pub clients_per_machine: usize,
    /// Seed of the manufacturer CA that certifies every device.
    pub ca_seed: [u8; 32],
    /// Device serial of machine 0; machine `i` gets `device_id_base + i`,
    /// so every machine derives a distinct device keypair at secure boot.
    pub device_id_base: u64,
}

impl FleetConfig {
    /// A fleet of `machines` machines with `clients_per_machine` clients
    /// each, on the Sanctum backend with fixed default identity seeds.
    pub fn new(machines: usize, clients_per_machine: usize) -> Self {
        Self {
            platform: PlatformKind::Sanctum,
            machines,
            clients_per_machine,
            ca_seed: [0x5f; 32],
            device_id_base: 0xf1ee_7000,
        }
    }
}

/// One client slot on a fleet machine: a built enclave plus the
/// deterministically derived X25519 keypair its attestation requests bind.
#[derive(Debug)]
struct ClientSlot {
    eid: EnclaveId,
    measurement: Measurement,
    dh_secret: [u8; 32],
    dh_public: [u8; 32],
}

/// What one [`FleetMachine::attest_round`] accomplished.
#[derive(Debug, Default)]
pub struct RoundOutcome {
    /// Sessions verified and filed into the pool this round.
    pub verified: usize,
    /// Exchanges that failed anywhere between submit and verification.
    pub failed: usize,
    /// Pool inserts that displaced a live session (the session-fixation
    /// shape; a correct round over unique tags never produces one).
    pub replaced: usize,
    /// Per-session latency, challenge issue → session filed, one entry per
    /// verified session. Waves are pipelined, so these include fabric queue
    /// time — the number a relying party under load would observe.
    pub latencies: Vec<Duration>,
}

/// One booted machine of the fleet, owning its system, its signing-enclave
/// service and its client enclaves. Independent of every other machine —
/// safe to move onto a worker thread.
#[derive(Debug)]
pub struct FleetMachine {
    index: usize,
    system: System,
    /// Kept alive for the machine's lifetime: the OS model owns the region
    /// bookkeeping behind every enclave this machine runs.
    _os: Os,
    signing: SigningEnclave,
    device_certificate: Certificate,
    clients: Vec<ClientSlot>,
}

impl FleetMachine {
    /// The machine's position in the fleet.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The machine's device serial.
    pub fn device_id(&self) -> u64 {
        self.system.machine.config().device_id
    }

    /// Number of client enclaves on this machine.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The CA-issued certificate for this machine's boot-derived device key.
    pub fn device_certificate(&self) -> &Certificate {
        &self.device_certificate
    }

    /// This machine's device public key (the subject of its certificate).
    pub fn device_public_key(&self) -> PublicKey {
        self.device_certificate.subject_public_key
    }

    /// This machine's SM attestation public key (the key its reports carry).
    pub fn sm_attestation_public_key(&self) -> PublicKey {
        *self
            .system
            .monitor
            .identity()
            .attestation_keypair
            .public()
    }

    /// The measurement shared by this machine's client enclaves.
    pub fn client_measurement(&self) -> Measurement {
        self.clients[0].measurement
    }

    /// The pool tag filed for `(round, machine, slot)`: the low 12 bits are
    /// the client slot, the next 12 the machine index, the rest the round —
    /// globally unique across the fleet for up to 4096 machines × 4096
    /// clients, so every verified session lands [`InsertOutcome::Fresh`].
    ///
    /// [`InsertOutcome::Fresh`]: sanctorum_verifier::InsertOutcome::Fresh
    pub fn session_tag(round: u64, machine: usize, slot: usize) -> u64 {
        (round << 24) | (((machine as u64) & 0xfff) << 12) | ((slot as u64) & 0xfff)
    }

    /// Runs one complete attestation round over every client on this
    /// machine: challenges are issued from `verifier`, requests pipelined to
    /// the signing service in waves bounded by the mailbox queue depth, and
    /// each verified session filed into `sessions` under
    /// [`FleetMachine::session_tag`].
    pub fn attest_round(
        &mut self,
        verifier: &RemoteVerifier,
        sessions: &SessionPool,
        round: u64,
    ) -> RoundOutcome {
        let monitor = Arc::clone(&self.system.monitor);
        let sm: &SecurityMonitor = &monitor;
        let mut outcome = RoundOutcome::default();
        for wave_start in (0..self.clients.len()).step_by(MAILBOX_QUEUE_DEPTH) {
            let wave_end = (wave_start + MAILBOX_QUEUE_DEPTH).min(self.clients.len());
            let mut pending = Vec::with_capacity(wave_end - wave_start);
            for slot in wave_start..wave_end {
                let started = Instant::now();
                let challenge = verifier.begin();
                let entry = &self.clients[slot];
                let client =
                    AttestationClient::from_dh_keypair(entry.eid, entry.dh_secret, entry.dh_public);
                if client
                    .submit_request(sm, self.signing.eid(), challenge.nonce)
                    .is_ok()
                {
                    pending.push((slot, client, challenge, started));
                } else {
                    outcome.failed += 1;
                }
            }
            self.signing
                .drain(sm)
                .expect("signing service opened at boot");
            for (slot, client, challenge, started) in pending {
                let Ok(response) = client.collect_response(sm, self.device_certificate.clone())
                else {
                    outcome.failed += 1;
                    continue;
                };
                match verifier.verify(&response.evidence, &response.enclave_dh_public) {
                    Ok(mut session) => {
                        // The attested channel must work end to end before the
                        // session counts: the enclave side derives its half
                        // from the same key agreement.
                        let shared = client.shared_secret(&challenge.verifier_dh_public);
                        let mut enclave_side =
                            sanctorum_verifier::SecureSession::new(&shared, &challenge.nonce);
                        let sealed = session.seal(b"fleet-hello");
                        if enclave_side.open(&sealed).is_err() {
                            outcome.failed += 1;
                            continue;
                        }
                        let tag = Self::session_tag(round, self.index, slot);
                        if !sessions.insert(tag, session).is_fresh() {
                            outcome.replaced += 1;
                        }
                        outcome.latencies.push(started.elapsed());
                        outcome.verified += 1;
                    }
                    Err(_) => outcome.failed += 1,
                }
            }
        }
        outcome
    }

    /// Collects one batch of attestation evidence — one item per client —
    /// without verifying it: challenges are issued (and stay outstanding),
    /// the fabric round-trips run, and the `(evidence, enclave DH public)`
    /// pairs come back in [`RemoteVerifier::verify_batch`] shape. The fleet
    /// benchmark uses this to pre-generate work for the serial-versus-
    /// concurrent verifier comparison; the invariants tests use it to build
    /// cross-machine forgeries.
    pub fn collect_evidence(
        &mut self,
        verifier: &RemoteVerifier,
    ) -> Vec<(AttestationEvidence, [u8; 32])> {
        let monitor = Arc::clone(&self.system.monitor);
        let sm: &SecurityMonitor = &monitor;
        let mut batch = Vec::with_capacity(self.clients.len());
        for wave_start in (0..self.clients.len()).step_by(MAILBOX_QUEUE_DEPTH) {
            let wave_end = (wave_start + MAILBOX_QUEUE_DEPTH).min(self.clients.len());
            let mut pending = Vec::with_capacity(wave_end - wave_start);
            for slot in wave_start..wave_end {
                let challenge = verifier.begin();
                let entry = &self.clients[slot];
                let client =
                    AttestationClient::from_dh_keypair(entry.eid, entry.dh_secret, entry.dh_public);
                if client
                    .submit_request(sm, self.signing.eid(), challenge.nonce)
                    .is_ok()
                {
                    pending.push(client);
                }
            }
            self.signing
                .drain(sm)
                .expect("signing service opened at boot");
            for client in pending {
                if let Ok(response) = client.collect_response(sm, self.device_certificate.clone())
                {
                    batch.push((response.evidence, response.enclave_dh_public));
                }
            }
        }
        batch
    }
}

/// A booted multi-machine world: one manufacturer CA plus `N` independent
/// machines, ready for a verifier pinned to the CA root.
#[derive(Debug)]
pub struct Fleet {
    ca: ManufacturerCa,
    machines: Vec<FleetMachine>,
}

impl Fleet {
    /// Boots the fleet described by `config`.
    ///
    /// Every machine uses the attestation-service geometry (half-megabyte
    /// regions, PMP budget covering them all); `clients_per_machine + 2`
    /// regions must fit (clients + signing enclave + OS staging).
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot hold the requested clients, or on any
    /// enclave-build failure (a fresh system never refuses these builds).
    pub fn boot(config: &FleetConfig) -> Self {
        let ca = ManufacturerCa::new(config.ca_seed);
        let signing_measurement = signing_enclave_measurement();
        let machines = (0..config.machines.max(1))
            .map(|index| {
                Self::boot_machine(config, &ca, index, signing_measurement)
            })
            .collect();
        Self { ca, machines }
    }

    fn boot_machine(
        config: &FleetConfig,
        ca: &ManufacturerCa,
        index: usize,
        signing_measurement: Measurement,
    ) -> FleetMachine {
        let clients = config.clients_per_machine.max(1);
        // Half-megabyte regions, one per enclave plus headroom for the
        // signing enclave and OS staging; the PMP budget covers every
        // region so both backends behave identically.
        let regions = (clients + 4).max(16);
        let machine_config = MachineConfig {
            memory_size: regions * 512 * 1024,
            dram_region_size: 512 * 1024,
            pmp_entries: regions + 8,
            device_id: config.device_id_base.wrapping_add(index as u64),
            ..MachineConfig::small()
        };
        assert!(
            clients + 2 <= machine_config.num_regions(),
            "too many clients for the machine geometry"
        );
        let system = System::boot(
            config.platform,
            machine_config,
            SmConfig {
                signing_enclave_measurement: Some(signing_measurement),
                ..SmConfig::default()
            },
        );
        let mut os = Os::new(&system);
        let signing_built = os
            .build_enclave(&EnclaveImage::signing_enclave(), 1)
            .expect("signing enclave builds");
        let mut signing = SigningEnclave::new(signing_built.eid);
        signing
            .open_service(&system.monitor)
            .expect("the monitor trusts the probed signing measurement");
        let device_certificate = ca.certify_device(system.machine.root_of_trust());
        let clients = (0..clients)
            .map(|slot| {
                let built = os
                    .build_enclave(&EnclaveImage::attestation_client(), 1)
                    .expect("client enclave builds");
                let (dh_secret, dh_public) = client_dh_keypair(index, slot);
                ClientSlot {
                    eid: built.eid,
                    measurement: built.measurement,
                    dh_secret,
                    dh_public,
                }
            })
            .collect();
        FleetMachine {
            index,
            system,
            _os: os,
            signing,
            device_certificate,
            clients,
        }
    }

    /// The manufacturer CA whose root every fleet verifier pins.
    pub fn ca(&self) -> &ManufacturerCa {
        &self.ca
    }

    /// Number of machines in the fleet.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// `true` only for an impossible empty fleet (boot clamps to ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Total client enclaves across the fleet.
    pub fn total_clients(&self) -> usize {
        self.machines.iter().map(FleetMachine::client_count).sum()
    }

    /// The machines, for in-place (single-threaded) driving.
    pub fn machines_mut(&mut self) -> &mut [FleetMachine] {
        &mut self.machines
    }

    /// The machines, shared view.
    pub fn machines(&self) -> &[FleetMachine] {
        &self.machines
    }

    /// Builds a verifier pinned to this fleet's CA root and every distinct
    /// client measurement, with the given DRBG seed.
    pub fn verifier(&self, drbg_seed: [u8; 32]) -> RemoteVerifier {
        let mut measurements: Vec<Measurement> = self
            .machines
            .iter()
            .map(FleetMachine::client_measurement)
            .collect();
        measurements.sort_unstable_by_key(|m| *m.as_bytes());
        measurements.dedup_by_key(|m| *m.as_bytes());
        RemoteVerifier::new(self.ca.root_public_key(), measurements, drbg_seed)
    }

    /// Disassembles the fleet into its machines so a load generator can move
    /// each onto its own worker thread.
    pub fn into_machines(self) -> (ManufacturerCa, Vec<FleetMachine>) {
        (self.ca, self.machines)
    }
}

/// The X25519 keypair for client `slot` on machine `machine` — a pure
/// function of the pair, so rebooted fleets bind identical keys.
fn client_dh_keypair(machine: usize, slot: usize) -> ([u8; 32], [u8; 32]) {
    let mut material = Vec::with_capacity(40);
    material.extend_from_slice(b"sanctorum-fleet-dh-v1");
    material.extend_from_slice(&(machine as u64).to_le_bytes());
    material.extend_from_slice(&(slot as u64).to_le_bytes());
    let secret = x25519::clamp_scalar(Sha3_256::digest(&material));
    let public = x25519::public_key(&secret);
    (secret, public)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sanctorum_verifier::VerifyError;

    fn small_fleet() -> Fleet {
        Fleet::boot(&FleetConfig::new(4, 2))
    }

    #[test]
    fn machines_have_distinct_device_and_sm_keys() {
        let fleet = small_fleet();
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet.total_clients(), 8);
        for a in 0..fleet.len() {
            let machine = &fleet.machines()[a];
            assert!(machine.device_certificate().verify());
            assert_eq!(
                machine.device_certificate().issuer_public_key,
                fleet.ca().root_public_key()
            );
            for b in (a + 1)..fleet.len() {
                let other = &fleet.machines()[b];
                assert_ne!(machine.device_public_key(), other.device_public_key());
                assert_ne!(
                    machine.sm_attestation_public_key(),
                    other.sm_attestation_public_key()
                );
            }
        }
    }

    #[test]
    fn one_verifier_attests_every_machine() {
        let mut fleet = small_fleet();
        let verifier = fleet.verifier([0x77; 32]);
        let sessions = SessionPool::new();
        let mut verified = 0;
        for machine in fleet.machines_mut() {
            let outcome = machine.attest_round(&verifier, &sessions, 0);
            assert_eq!(outcome.failed, 0);
            assert_eq!(outcome.replaced, 0);
            assert_eq!(outcome.verified, machine.client_count());
            assert_eq!(outcome.latencies.len(), outcome.verified);
            verified += outcome.verified;
        }
        assert_eq!(verified, 8);
        assert_eq!(sessions.len(), 8);
        // A second round files under fresh tags: nothing is displaced.
        for machine in fleet.machines_mut() {
            let outcome = machine.attest_round(&verifier, &sessions, 1);
            assert_eq!(outcome.replaced, 0);
            assert_eq!(outcome.verified, machine.client_count());
        }
        assert_eq!(sessions.len(), 16);
        assert_eq!(verifier.stats().verified_sessions, 16);
    }

    #[test]
    fn revoking_one_machine_leaves_the_rest_attestable() {
        let mut fleet = small_fleet();
        let verifier = fleet.verifier([0x78; 32]);
        let revoked_key = fleet.machines()[1].device_public_key();
        verifier.revoke_device(revoked_key);
        let sessions = SessionPool::new();
        for machine in fleet.machines_mut() {
            let outcome = machine.attest_round(&verifier, &sessions, 0);
            if machine.device_public_key() == revoked_key {
                assert_eq!(outcome.verified, 0);
                assert_eq!(outcome.failed, machine.client_count());
            } else {
                assert_eq!(outcome.verified, machine.client_count());
                assert_eq!(outcome.failed, 0);
            }
        }
        assert_eq!(sessions.len(), 6);
    }

    #[test]
    fn cross_machine_evidence_is_rejected() {
        let mut fleet = small_fleet();
        let verifier = fleet.verifier([0x79; 32]);
        // A report signed on machine 0 spliced onto machine 1's certificate
        // chain must die at the chain/signature boundary: the chain's SM key
        // is not the key that signed the report.
        let batch = fleet.machines_mut()[0].collect_evidence(&verifier);
        let foreign_chain = fleet.machines()[1].device_certificate().clone();
        let foreign_sm = fleet.machines()[1]
            .system
            .monitor
            .sm_certificate();
        for (evidence, dh_public) in batch {
            let mut spliced = evidence.clone();
            spliced.device_certificate = foreign_chain.clone();
            spliced.sm_certificate = foreign_sm.clone();
            // Machine 1's chain is internally valid and roots in the CA, so
            // the splice dies exactly at the report signature: the chain's
            // SM key is not the key that signed machine 0's report.
            let err = verifier
                .verify(&spliced, &dh_public)
                .expect_err("spliced evidence must not verify");
            assert_eq!(err, VerifyError::BadSignature);
        }
    }

    #[test]
    fn rebooted_fleet_reproduces_identities() {
        let config = FleetConfig::new(2, 1);
        let a = Fleet::boot(&config);
        let b = Fleet::boot(&config);
        for (left, right) in a.machines().iter().zip(b.machines()) {
            assert_eq!(left.device_public_key(), right.device_public_key());
            assert_eq!(
                left.device_certificate().issuer_public_key,
                right.device_certificate().issuer_public_key
            );
            assert_eq!(
                left.sm_attestation_public_key(),
                right.sm_attestation_public_key()
            );
        }
    }
}
