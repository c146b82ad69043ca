//! The reified operation model driven by the adversarial explorer.
//!
//! Every interaction a (possibly malicious) OS or enclave can have with the
//! security monitor is expressed as one enumerable [`Op`] value: honest
//! lifecycle traffic (build / run / teardown), raw Fig. 2 resource calls
//! issued out of protocol, mailbox round-trips, probes, batches, and the
//! whole scripted adversary battery ([`AttackKind`]). Ops carry *abstract*
//! selectors (a slot index, a region index, a parameter word) that are
//! resolved against the live world only when the op is applied — so a
//! sequence of ops is meaningful against any world state, which is what makes
//! seeded generation, `(seed, step)` replay and trace shrinking trivial.
//!
//! [`OpWorld`] owns one booted system plus the OS model and applies ops to
//! it, summarizing each step as an [`OpOutcome`] containing only
//! *platform-invariant*, OS-visible facts (status codes, ids, measurements,
//! outcome discriminants — never cycle counts). The differential explorer
//! applies the same trace to a Sanctum world and a Keystone world and
//! requires the outcome streams to be identical modulo declared platform
//! capacity (see `sanctorum_hal::isolation::PlatformCapacity`).

use crate::adversary::AttackKind;
use crate::os::{BuiltEnclave, Os, ThreadRunOutcome};
use crate::system::{PlatformKind, System};
use sanctorum_core::api::{status, status_of, SmApi, SmCall};
use sanctorum_core::attestation::Certificate;
use sanctorum_core::error::SmError;
use sanctorum_core::mailbox::{SenderIdentity, ANY_SENDER, MAILBOX_QUEUE_DEPTH};
use sanctorum_core::measurement::Measurement;
use sanctorum_core::monitor::PublicField;
use sanctorum_core::resource::ResourceId;
use sanctorum_core::session::CallerSession;
use sanctorum_enclave::client::AttestationClient;
use sanctorum_enclave::image::EnclaveImage;
use sanctorum_enclave::signing::SigningEnclave;
use sanctorum_hal::addr::VirtAddr;
use sanctorum_hal::domain::{CoreId, DomainKind, EnclaveId};
use sanctorum_hal::isolation::RegionId;
use sanctorum_machine::MachineConfig;
use sanctorum_trust::Tainted;
use sanctorum_crypto::ed25519::Signature;
use sanctorum_crypto::sha3::Sha3_256;
use sanctorum_verifier::{ManufacturerCa, RemoteVerifier, SecureSession, SessionPool};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Which canned enclave image an [`Op::Build`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ImageKind {
    /// [`EnclaveImage::hello`] carrying a per-build secret.
    Hello,
    /// [`EnclaveImage::compute`] (no secret).
    Compute,
    /// [`EnclaveImage::faulting`] — AEXes through the unhandled-fault arc.
    Faulting,
    /// [`EnclaveImage::fault_handling`] — exercises the enclave-handler arc.
    FaultHandling,
}

impl ImageKind {
    /// Distinctive tag folded into every generated hello secret; the leak
    /// scan looks for full 64-bit matches, so the tag keeps secrets disjoint
    /// from addresses, counters and other innocent register values.
    pub const SECRET_TAG: u64 = 0x5ec2_e700_0000_0000;

    /// Builds the image for this kind. `param` individualizes the image
    /// (hello secret; compute size) and is folded from a small space so
    /// identical recipes recur within a run — that recurrence is what gives
    /// the measurement-determinism invariant something to compare.
    pub fn instantiate(self, param: u64) -> (EnclaveImage, Option<u64>) {
        match self {
            ImageKind::Hello => {
                let secret = Self::SECRET_TAG | (param & 0x7);
                (EnclaveImage::hello(secret), Some(secret))
            }
            ImageKind::Compute => (EnclaveImage::compute(1 + (param as usize & 1), 32), None),
            ImageKind::Faulting => (EnclaveImage::faulting(), None),
            ImageKind::FaultHandling => (EnclaveImage::fault_handling(), None),
        }
    }

    /// The recipe key for the measurement-determinism invariant: images built
    /// from equal keys must measure equally.
    pub fn recipe(self, param: u64) -> (ImageKind, u64) {
        let normalized = match self {
            ImageKind::Hello => param & 0x7,
            ImageKind::Compute => param & 0x1,
            ImageKind::Faulting | ImageKind::FaultHandling => 0,
        };
        (self, normalized)
    }
}

/// One step of explorer traffic. See the module docs for the selector
/// convention: indices are resolved modulo the live population at apply time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Build an enclave of the given image kind.
    Build {
        /// Image flavour.
        kind: ImageKind,
        /// Image parameter (secret / size selector).
        param: u64,
    },
    /// Tear a live enclave down through the full delete → clean → grant path.
    Teardown {
        /// Live-enclave slot selector.
        slot: u64,
    },
    /// Enter a live enclave's main thread on the issuing hart and drive it.
    Run {
        /// Live-enclave slot selector.
        slot: u64,
        /// Guest step budget (small budgets force preemption).
        budget: u64,
    },
    /// Raise a timer interrupt on the issuing hart (the scheduler tick).
    Tick,
    /// Raw `block_resource` on an arbitrary region.
    BlockRegion {
        /// Region selector.
        region: u64,
    },
    /// Raw `clean_resource` on an arbitrary region.
    CleanRegion {
        /// Region selector.
        region: u64,
    },
    /// Raw `grant_resource` of an arbitrary region to the OS or a live
    /// enclave.
    GrantRegion {
        /// Region selector.
        region: u64,
        /// Owner selector: `0` grants to the OS, otherwise to a live enclave.
        owner: u64,
    },
    /// Raw `delete_enclave` without recycling the regions (delete and
    /// forget — the blocked regions stay for later raw cleans).
    DeleteEnclave {
        /// Live-enclave slot selector.
        slot: u64,
    },
    /// `load_page` into an already-initialized enclave (must be refused).
    LoadAfterInit {
        /// Live-enclave slot selector.
        slot: u64,
    },
    /// OS → enclave mail round-trip; the recorded sender identity must be
    /// [`sanctorum_core::mailbox::SenderIdentity::Untrusted`].
    MailRoundTrip {
        /// Recipient slot selector.
        slot: u64,
        /// Payload word.
        payload: u64,
    },
    /// Enclave → enclave mail; the recorded identity must be the sender's
    /// measurement.
    EnclaveMail {
        /// Sender slot selector.
        from: u64,
        /// Recipient slot selector.
        to: u64,
        /// Payload word.
        payload: u64,
    },
    /// Fabric burst: the recipient arms a wildcard mailbox, the OS queues a
    /// burst of messages, and the recipient drains them FIFO with a
    /// peek-length probe before every fetch — the multi-slot queue path the
    /// single-message `MailRoundTrip` cannot reach.
    MailQueue {
        /// Recipient slot selector.
        slot: u64,
        /// Burst size selector (resolved modulo the queue depth).
        burst: u64,
        /// Payload word (successive messages carry `payload + i`).
        payload: u64,
    },
    /// Pipelined attestation service: up to `clients` live enclaves submit
    /// requests into the signing enclave's wildcard queue, the service
    /// drains and signs them in waves, and a remote verifier batch-verifies
    /// the evidence (the Fig. 7 protocol at fabric scale).
    AttestService {
        /// Client-count selector (resolved to `1..=8`).
        clients: u64,
    },
    /// Public-field probe; the outcome fingerprints the returned bytes.
    GetField {
        /// Field selector (resolved modulo the selector space + 1, so an
        /// invalid selector is periodically exercised too).
        field: u64,
    },
    /// A typed batch of region-lifecycle probes against one region.
    Batch {
        /// Region selector.
        region: u64,
    },
    /// One attack from the scripted battery.
    Attack {
        /// Battery index (resolved through [`AttackKind::resolve`]).
        kind: u64,
        /// Victim slot selector.
        slot: u64,
    },
    /// Crash injection: run the inner op with a crash armed at its
    /// `point`-th fault-point crossing, then run
    /// [`sanctorum_core::monitor::SecurityMonitor::recover`] and reconcile
    /// the OS model against the repaired monitor. The crash-point sweep
    /// harness wraps every op of a trace in one of these per crossed fault
    /// point; the random sampler never draws it (crash placement is the
    /// sweep's job, not the PRNG's).
    Crashed {
        /// Crash at the `point`-th fault-point crossing (1-based) of the
        /// inner op. Point 0 and points past the op's last crossing mean no
        /// crash fires — the op completes and recovery is a no-op.
        point: u64,
        /// The interrupted op.
        op: Box<Op>,
    },
}

impl Op {
    /// Draws one op from a word source (the explorer's per-hart PRNG
    /// streams). The distribution keeps honest lifecycle traffic dominant so
    /// worlds accumulate enclaves for the adversarial ops to aim at.
    pub fn sample(next: &mut dyn FnMut() -> u64) -> Op {
        match next() % 100 {
            0..=16 => {
                let kind = match next() % 10 {
                    0..=4 => ImageKind::Hello,
                    5..=6 => ImageKind::Compute,
                    7..=8 => ImageKind::Faulting,
                    _ => ImageKind::FaultHandling,
                };
                Op::Build { kind, param: next() }
            }
            17..=25 => Op::Teardown { slot: next() },
            26..=43 => Op::Run { slot: next(), budget: 16 + next() % 512 },
            44..=46 => Op::Tick,
            47..=50 => Op::BlockRegion { region: next() },
            51..=54 => Op::CleanRegion { region: next() },
            55..=58 => Op::GrantRegion { region: next(), owner: next() },
            59..=60 => Op::DeleteEnclave { slot: next() },
            61..=63 => Op::LoadAfterInit { slot: next() },
            64..=69 => Op::MailRoundTrip { slot: next(), payload: next() },
            70..=73 => Op::EnclaveMail { from: next(), to: next(), payload: next() },
            74..=77 => Op::MailQueue { slot: next(), burst: next(), payload: next() },
            78..=80 => Op::AttestService { clients: next() },
            81..=84 => Op::GetField { field: next() },
            85..=88 => Op::Batch { region: next() },
            _ => Op::Attack { kind: next(), slot: next() },
        }
    }

    /// Short label for reports and statistics.
    pub const fn label(&self) -> &'static str {
        match self {
            Op::Build { .. } => "build",
            Op::Teardown { .. } => "teardown",
            Op::Run { .. } => "run",
            Op::Tick => "tick",
            Op::BlockRegion { .. } => "block-region",
            Op::CleanRegion { .. } => "clean-region",
            Op::GrantRegion { .. } => "grant-region",
            Op::DeleteEnclave { .. } => "delete-enclave",
            Op::LoadAfterInit { .. } => "load-after-init",
            Op::MailRoundTrip { .. } => "mail-roundtrip",
            Op::EnclaveMail { .. } => "enclave-mail",
            Op::MailQueue { .. } => "mail-queue",
            Op::AttestService { .. } => "attest-service",
            Op::GetField { .. } => "get-field",
            Op::Batch { .. } => "batch",
            Op::Attack { .. } => "attack",
            Op::Crashed { .. } => "crashed",
        }
    }

    /// Every op label, one per variant, in declaration order. Coverage tests
    /// assert the sampler can reach all of them — except `crashed`, which is
    /// deliberately outside the sampled distribution (the crash-point sweep
    /// places crashes exhaustively; random placement would just duplicate a
    /// sliver of that coverage while perturbing every pinned trace digest).
    pub const ALL_LABELS: [&'static str; 17] = [
        "build",
        "teardown",
        "run",
        "tick",
        "block-region",
        "clean-region",
        "grant-region",
        "delete-enclave",
        "load-after-init",
        "mail-roundtrip",
        "enclave-mail",
        "mail-queue",
        "attest-service",
        "get-field",
        "batch",
        "attack",
        "crashed",
    ];

    /// Whether the issuing hart is part of this op's semantics. `Run`,
    /// `Tick` and `Attack` install contexts / raise interrupts *on the
    /// issuing hart* (and a `Crashed` wrapper inherits its inner op's
    /// sensitivity); every other op is a hart-agnostic monitor call. The
    /// model checker uses this to avoid enumerating the same hart-agnostic
    /// op once per hart.
    pub fn hart_sensitive(&self) -> bool {
        match self {
            Op::Run { .. } | Op::Tick | Op::Attack { .. } => true,
            Op::Crashed { op, .. } => op.hart_sensitive(),
            _ => false,
        }
    }
}

/// The OS-visible, platform-invariant summary of one applied op.
///
/// Two backends driven by the same trace must produce equal outcomes step for
/// step (modulo declared capacity — the explorer's differential policy). The
/// summary deliberately excludes anything platform-variant: cycle counts,
/// flush costs, and entry PCs of resumed threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpOutcome {
    /// The op label (diagnostic).
    pub label: &'static str,
    /// `status::OK`, an error's status code, or [`OpOutcome::SKIPPED`].
    pub status: u64,
    /// Platform-invariant detail word (id, discriminant, fingerprint; 0 when
    /// the call's value is platform-variant).
    pub detail: u64,
    /// The measurement a successful build reported.
    pub measurement: Option<Measurement>,
    /// For mail ops: whether the SM-recorded sender identity matched the
    /// actual sending domain (`None` when no mail was retrieved).
    pub mail_identity_ok: Option<bool>,
    /// For attestation-service ops: whether every selected client ended the
    /// round with verified evidence (`None` for other ops). A shortfall is a
    /// service-plane failure (dropped request, mis-routed or unverifiable
    /// reply), deliberately distinct from the identity-leak flag above.
    pub service_ok: Option<bool>,
    /// For attack ops: whether the attack was blocked.
    pub attack_blocked: Option<bool>,
}

impl OpOutcome {
    /// Status value for ops that resolved to nothing (no live enclave, no
    /// free region): the op was skipped identically on every backend.
    pub const SKIPPED: u64 = u64::MAX;

    fn skipped(label: &'static str) -> Self {
        Self::done(label, Self::SKIPPED, 0)
    }

    fn done(label: &'static str, status: u64, detail: u64) -> Self {
        OpOutcome {
            label,
            status,
            detail,
            measurement: None,
            mail_identity_ok: None,
            service_ok: None,
            attack_blocked: None,
        }
    }

    fn of_result<T>(label: &'static str, result: Result<T, SmError>, detail: impl FnOnce(T) -> u64) -> Self {
        match result {
            Ok(value) => Self::done(label, status::OK, detail(value)),
            Err(err) => Self::done(label, status_of(&err), 0),
        }
    }
}

/// Fingerprints a byte string into an outcome detail word.
pub fn detail_fingerprint(bytes: &[u8]) -> u64 {
    sanctorum_hal::fnv::fnv1a(0, bytes)
}

/// Canonical [`Op::Run`] budget small enough that every canned image is
/// preempted or interrupted mid-run (the re-entry / descheduling arc).
pub const RUN_BUDGET_PREEMPT: u64 = 24;

/// Canonical [`Op::Run`] budget large enough for every canned image to run
/// to completion (exit or fault).
pub const RUN_BUDGET_FULL: u64 = 10_000;

/// One live enclave tracked by an [`OpWorld`].
#[derive(Debug, Clone)]
pub struct LiveEnclave {
    /// The built enclave.
    pub built: BuiltEnclave,
    /// The hello secret, when the image carries one (drives the leak scan).
    pub secret: Option<u64>,
    /// The build recipe (drives the measurement-determinism invariant).
    pub recipe: (ImageKind, u64),
    /// Base of the enclave's virtual range (for post-init probes).
    pub evrange_base: VirtAddr,
}

/// Returns the measurement of the canonical signing-enclave image.
///
/// Measurements depend only on the image and its virtual range — not on the
/// platform, the machine geometry or the placement — so one process-wide
/// probe build serves every explorer world, fleet and benchmark setup on
/// either backend (pinned by `signing_enclave_measurement_is_platform_independent`).
pub fn signing_enclave_measurement() -> Measurement {
    static MEASUREMENT: OnceLock<Measurement> = OnceLock::new();
    *MEASUREMENT.get_or_init(|| {
        let scratch = System::boot_small(PlatformKind::Sanctum);
        let mut os = Os::new(&scratch);
        os.build_enclave(&EnclaveImage::signing_enclave(), 1)
            .expect("probe build of the signing enclave succeeds on a fresh system")
            .measurement
    })
}

/// One fully verified attestation exchange, memoized process-wide.
///
/// The key is `(SM attestation public key, requester measurement, nonce,
/// report data)` — everything the signed report depends on — and the value
/// is the signature a full `RemoteVerifier::verify` pass accepted. Both the
/// signature and its verification are *pure deterministic functions* of the
/// key, so replaying the memo across explorer worlds (which share device
/// identities by construction) is observationally identical to re-running
/// the ~45 ms of Ed25519 arithmetic per class in all several hundred worlds
/// of a sweep. Entries are only inserted after a complete verifier pass,
/// and only preloaded into a world whose monitor holds the same attestation
/// key.
type SigClassKey = ([u8; 32], [u8; 32], [u8; 32], [u8; 32]);

fn verified_signature_memo() -> &'static Mutex<BTreeMap<SigClassKey, [u8; 64]>> {
    static MEMO: OnceLock<Mutex<BTreeMap<SigClassKey, [u8; 64]>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The fixed-seed manufacturer CA (pure function of its seed; ~15 ms of
/// Ed25519 derivation, shared across every world of a sweep).
fn manufacturer_ca() -> &'static ManufacturerCa {
    static CA: OnceLock<ManufacturerCa> = OnceLock::new();
    CA.get_or_init(|| ManufacturerCa::new([0x11; 32]))
}

/// Device certificates by device id — issuing one costs an Ed25519
/// signature, and every world with the same device id gets the same bytes.
fn device_certificate(world: &System) -> Certificate {
    static CERTS: OnceLock<Mutex<BTreeMap<u64, Certificate>>> = OnceLock::new();
    let certs = CERTS.get_or_init(|| Mutex::new(BTreeMap::new()));
    let device_id = world.machine.config().device_id;
    certs
        .lock()
        .unwrap()
        .entry(device_id)
        .or_insert_with(|| manufacturer_ca().certify_device(world.machine.root_of_trust()))
        .clone()
}

/// Attestation keypairs by released seed (pure derivation, see
/// [`SigningEnclave::open_service_with`]).
fn derived_keypair(seed: [u8; 32]) -> sanctorum_crypto::ed25519::Keypair {
    static KEYS: OnceLock<Mutex<BTreeMap<[u8; 32], sanctorum_crypto::ed25519::Keypair>>> =
        OnceLock::new();
    let keys = KEYS.get_or_init(|| Mutex::new(BTreeMap::new()));
    keys.lock()
        .unwrap()
        .entry(seed)
        .or_insert_with(|| sanctorum_crypto::ed25519::Keypair::from_seed(seed))
        .clone()
}

/// An X25519 `(secret, public)` pair.
type DhKeypair = ([u8; 32], [u8; 32]);

/// Client X25519 keypairs by wave position (eight seeds total; pure
/// derivation shared across worlds and rounds).
fn client_dh_keypair(position: u8) -> DhKeypair {
    static DH: OnceLock<Mutex<BTreeMap<u8, DhKeypair>>> = OnceLock::new();
    let dh = DH.get_or_init(|| Mutex::new(BTreeMap::new()));
    *dh.lock().unwrap().entry(position).or_insert_with(|| {
        let secret = sanctorum_crypto::x25519::clamp_scalar([0x33 ^ position; 32]);
        let public = sanctorum_crypto::x25519::public_key(&secret);
        (secret, public)
    })
}

/// The signing-enclave half of the attestation-service workload, built
/// lazily by the first [`Op::AttestService`] and kept for the rest of the
/// world's life (a long-running service, not a per-request enclave).
#[derive(Debug)]
struct SigningService {
    built: BuiltEnclave,
    logic: SigningEnclave,
    device_cert: Certificate,
    /// This monitor's attestation public key (the memo namespace).
    attestation_pubkey: [u8; 32],
}

/// A booted system + OS model that ops can be applied to.
#[derive(Debug)]
pub struct OpWorld {
    /// The booted system.
    pub system: System,
    /// The (scriptable) OS model.
    pub os: Os,
    /// Live, fully built enclaves, in build order.
    pub live: Vec<LiveEnclave>,
    /// The signing-enclave service, once an `AttestService` op started it.
    signing: Option<SigningService>,
    /// Total clients attested through the service (diagnostic).
    pub attested_clients: u64,
}

impl OpWorld {
    /// Boots a world on `platform` with the given machine configuration.
    /// The monitor is configured to trust the canonical signing enclave, so
    /// the attestation-service workload can run; everything else uses the
    /// default monitor configuration.
    pub fn boot(platform: PlatformKind, config: MachineConfig) -> Self {
        let system = System::boot(
            platform,
            config,
            sanctorum_core::monitor::SmConfig {
                signing_enclave_measurement: Some(signing_enclave_measurement()),
                ..sanctorum_core::monitor::SmConfig::default()
            },
        );
        let os = Os::new(&system);
        OpWorld {
            system,
            os,
            live: Vec::new(),
            signing: None,
            attested_clients: 0,
        }
    }

    /// All hello secrets currently loaded into live enclaves.
    pub fn live_secrets(&self) -> impl Iterator<Item = u64> + '_ {
        self.live.iter().filter_map(|e| e.secret)
    }

    fn slot(&self, selector: u64) -> Option<usize> {
        if self.live.is_empty() {
            None
        } else {
            Some((selector % self.live.len() as u64) as usize)
        }
    }

    fn region(&self, selector: u64) -> RegionId {
        RegionId::new((selector % self.system.machine.config().num_regions() as u64) as u32)
    }

    fn forget_if_dead(&mut self, eid: EnclaveId) {
        if !self.system.monitor.enclaves().contains(&eid) {
            self.live.retain(|e| e.built.eid != eid);
        }
    }

    /// Whether `op` would actually reach the monitor if applied now, or be
    /// skipped because its selectors resolve to nothing (no live enclave,
    /// no free region).
    ///
    /// This is exactly the skip predicate [`apply`](Self::apply) uses, split
    /// out so search drivers can enumerate the feasible op space instead of
    /// rejection-sampling it. One deliberate asymmetry: `AttestService` is
    /// *enabled* whenever the signing service exists or can be built, even
    /// with no live clients — applying it then still builds the service
    /// (a state change) before reporting the round skipped, and the
    /// predicate must match that behavior, not second-guess it.
    pub fn is_enabled(&self, op: &Op) -> bool {
        match op {
            Op::Build { .. } => self.os.free_region_count() > 0,
            Op::Teardown { .. }
            | Op::Run { .. }
            | Op::DeleteEnclave { .. }
            | Op::LoadAfterInit { .. }
            | Op::MailRoundTrip { .. }
            | Op::EnclaveMail { .. }
            | Op::MailQueue { .. } => !self.live.is_empty(),
            Op::Tick
            | Op::BlockRegion { .. }
            | Op::CleanRegion { .. }
            | Op::GrantRegion { .. }
            | Op::GetField { .. }
            | Op::Batch { .. } => true,
            Op::AttestService { .. } => {
                self.signing.is_some() || self.os.free_region_count() > 0
            }
            Op::Attack { kind, .. } => {
                let kind = AttackKind::resolve(*kind);
                let feasible =
                    !kind.builds_own_enclave() || self.os.free_region_count() > 0;
                !self.live.is_empty() && feasible
            }
            Op::Crashed { op, .. } => self.is_enabled(op),
        }
    }

    /// The canonical owner selector resolving to live slot `slot` under the
    /// [`Op::GrantRegion`] convention (`slot = owner % live`, enclave iff
    /// `owner % (live + 1) != 0`): the smallest selector naming that slot.
    fn canonical_owner(live: u64, slot: u64) -> u64 {
        (0..)
            .map(|k| slot + k * live)
            .find(|o| *o >= 1 && o % (live + 1) != 0)
            .expect("every residue class contains a non-OS selector")
    }

    /// Enumerates the feasible op space of this world under *canonical*
    /// selectors — one op per distinct behavior class rather than one per
    /// raw selector value (slot selectors range over the live population,
    /// region selectors over the physical regions, parameters are pinned to
    /// representatives). Every returned op satisfies
    /// [`is_enabled`](Self::is_enabled); applying any of them reaches the
    /// monitor rather than skipping.
    ///
    /// This is the branching alphabet of the bounded model checker: in a
    /// small world it stays small (tens of ops), and its exhaustive closure
    /// covers everything `Op::sample` can reach modulo selector aliasing.
    pub fn enabled_ops(&self) -> Vec<Op> {
        const CANONICAL_PAYLOAD: u64 = 9;
        let mut ops = Vec::new();
        let live = self.live.len() as u64;
        let regions = self.system.machine.config().num_regions() as u64;
        let free = self.os.free_region_count();
        if free > 0 {
            for kind in [
                ImageKind::Hello,
                ImageKind::Compute,
                ImageKind::Faulting,
                ImageKind::FaultHandling,
            ] {
                ops.push(Op::Build { kind, param: 0 });
            }
        }
        for slot in 0..live {
            ops.push(Op::Teardown { slot });
            for budget in [RUN_BUDGET_PREEMPT, RUN_BUDGET_FULL] {
                ops.push(Op::Run { slot, budget });
            }
        }
        ops.push(Op::Tick);
        for region in 0..regions {
            ops.push(Op::BlockRegion { region });
            ops.push(Op::CleanRegion { region });
            ops.push(Op::GrantRegion { region, owner: 0 });
            for slot in 0..live {
                ops.push(Op::GrantRegion {
                    region,
                    owner: Self::canonical_owner(live, slot),
                });
            }
            ops.push(Op::Batch { region });
        }
        for slot in 0..live {
            ops.push(Op::DeleteEnclave { slot });
            ops.push(Op::LoadAfterInit { slot });
            ops.push(Op::MailRoundTrip { slot, payload: CANONICAL_PAYLOAD });
            ops.push(Op::MailQueue { slot, burst: 0, payload: CANONICAL_PAYLOAD });
        }
        for from in 0..live {
            for to in 0..live {
                ops.push(Op::EnclaveMail { from, to, payload: CANONICAL_PAYLOAD });
            }
        }
        // Only offered with clients present: a clientless round would still
        // permanently consume a region for the service enclave, which in a
        // tiny world prunes the rest of the space for no coverage gain.
        if live > 0 && (self.signing.is_some() || free > 0) {
            ops.push(Op::AttestService { clients: 0 });
        }
        // 0..=3 name the public fields; 4 is the canonical invalid selector.
        for field in 0..5 {
            ops.push(Op::GetField { field });
        }
        for kind in 0..AttackKind::ALL.len() as u64 {
            if AttackKind::ALL[kind as usize].builds_own_enclave() && free == 0 {
                continue;
            }
            for slot in 0..live {
                ops.push(Op::Attack { kind, slot });
            }
        }
        debug_assert!(ops.iter().all(|op| self.is_enabled(op)));
        ops
    }

    /// Fingerprints the *model-layer* state that `Machine::state_digest` and
    /// the monitor's audit digest cannot see: the free pool's order (a
    /// stack — order decides which region the next build takes), the live
    /// roster with secrets and build recipes, and whether the signing
    /// service exists. A visited-set key missing any of these would merge
    /// states with different futures and prune unsoundly.
    pub fn model_fingerprint(&self) -> u64 {
        fn fold(h: u64, v: u64) -> u64 {
            sanctorum_hal::fnv::fnv1a(h, &v.to_le_bytes())
        }
        let mut h = 0x0f1u64;
        for region in self.os.free_regions() {
            h = fold(h, region.index() as u64);
        }
        h = fold(h, u64::MAX);
        for entry in &self.live {
            h = fold(h, entry.built.eid.as_u64());
            h = fold(h, entry.secret.unwrap_or(u64::MAX));
            let (kind, param) = entry.recipe;
            h = fold(h, kind as u64);
            h = fold(h, param);
            h = fold(h, entry.evrange_base.as_u64());
        }
        fold(h, self.signing.is_some() as u64)
    }

    /// Applies one op issued from `hart`, returning its outcome summary.
    /// Ops whose selectors resolve to nothing (no live enclave, no free
    /// region — see [`is_enabled`](Self::is_enabled)) are skipped;
    /// everything else maps onto SM API calls via
    /// [`execute`](Self::execute).
    pub fn apply(&mut self, hart: CoreId, op: &Op) -> OpOutcome {
        if !self.is_enabled(op) {
            return OpOutcome::skipped(op.label());
        }
        self.execute(hart, op)
    }

    /// Executes an op [`is_enabled`](Self::is_enabled) has vouched for.
    /// Selector resolution cannot fail here — the enabled predicate is
    /// exactly the conjunction of the old inline skip checks.
    fn execute(&mut self, hart: CoreId, op: &Op) -> OpOutcome {
        let label = op.label();
        let os_session = CallerSession::os();
        match op {
            Op::Build { kind, param } => {
                let (image, secret) = kind.instantiate(*param);
                let evrange_base = image.evrange_base;
                match self.os.build_enclave(&image, 1) {
                    Ok(built) => {
                        let mut outcome =
                            OpOutcome::done(label, status::OK, built.eid.as_u64());
                        outcome.measurement = Some(built.measurement);
                        self.live.push(LiveEnclave {
                            built,
                            secret,
                            recipe: kind.recipe(*param),
                            evrange_base,
                        });
                        outcome
                    }
                    Err(err) => OpOutcome::done(label, status_of(&err), 0),
                }
            }
            Op::Teardown { slot } => {
                let index = self.slot(*slot).expect("gated by is_enabled");
                let built = self.live[index].built.clone();
                let result = self.os.teardown_enclave(&built);
                self.forget_if_dead(built.eid);
                OpOutcome::of_result(label, result, |_| 0)
            }
            Op::Run { slot, budget } => {
                let index = self.slot(*slot).expect("gated by is_enabled");
                let built = self.live[index].built.clone();
                let tid = built.main_thread();
                let result = self.os.run_thread(&built, tid, hart, *budget);
                OpOutcome::of_result(label, result, |outcome| match outcome {
                    ThreadRunOutcome::Exited { .. } => 1,
                    ThreadRunOutcome::Interrupted { .. } => 2,
                    ThreadRunOutcome::Faulted { .. } => 3,
                    ThreadRunOutcome::Preempted => 4,
                })
            }
            Op::Tick => {
                let result = self.os.tick(hart);
                OpOutcome::of_result(label, result, |descheduled| descheduled as u64)
            }
            Op::BlockRegion { region } => {
                let id = ResourceId::Region(self.region(*region));
                OpOutcome::of_result(
                    label,
                    self.system.monitor.block_resource(os_session, id),
                    |_| 0,
                )
            }
            Op::CleanRegion { region } => {
                let id = ResourceId::Region(self.region(*region));
                // The cleaning cost is platform-variant; only the status is
                // comparable.
                OpOutcome::of_result(
                    label,
                    self.system.monitor.clean_resource(os_session, id),
                    |_| 0,
                )
            }
            Op::GrantRegion { region, owner } => {
                let id = ResourceId::Region(self.region(*region));
                let new_owner = match self.slot(*owner) {
                    Some(index) if *owner % (self.live.len() as u64 + 1) != 0 => {
                        DomainKind::Enclave(self.live[index].built.eid)
                    }
                    _ => DomainKind::Untrusted,
                };
                OpOutcome::of_result(
                    label,
                    self.system.monitor.grant_resource(os_session, id, new_owner),
                    |_| 0,
                )
            }
            Op::DeleteEnclave { slot } => {
                let index = self.slot(*slot).expect("gated by is_enabled");
                let eid = self.live[index].built.eid;
                let result = self.system.monitor.delete_enclave(os_session, eid);
                self.forget_if_dead(eid);
                OpOutcome::of_result(label, result, |_| 0)
            }
            Op::LoadAfterInit { slot } => {
                let index = self.slot(*slot).expect("gated by is_enabled");
                let entry = &self.live[index];
                let result = self.system.monitor.load_page(
                    os_session,
                    entry.built.eid,
                    entry.evrange_base,
                    Tainted::new(self.os.staging_base()),
                    sanctorum_hal::perm::MemPerms::RW,
                );
                OpOutcome::of_result(label, result, |p| p.as_u64())
            }
            Op::MailRoundTrip { slot, payload } => {
                let index = self.slot(*slot).expect("gated by is_enabled");
                let eid = self.live[index].built.eid;
                self.mail_exchange(label, None, eid, *payload)
            }
            Op::EnclaveMail { from, to, payload } => {
                let from_index = self.slot(*from).expect("gated by is_enabled");
                let to_index = self.slot(*to).expect("gated by is_enabled");
                let sender = self.live[from_index].built.eid;
                let recipient = self.live[to_index].built.eid;
                self.mail_exchange(label, Some(sender), recipient, *payload)
            }
            Op::MailQueue { slot, burst, payload } => {
                let index = self.slot(*slot).expect("gated by is_enabled");
                let recipient = self.live[index].built.eid;
                let burst = 1 + (*burst % MAILBOX_QUEUE_DEPTH as u64);
                self.mail_queue_burst(label, recipient, burst, *payload)
            }
            Op::AttestService { clients } => {
                let clients = 1 + (*clients % 8) as usize;
                self.attest_service(label, clients)
            }
            Op::GetField { field } => {
                let selector = field % 5;
                match PublicField::from_selector(selector) {
                    Some(field) => {
                        let bytes = self.system.monitor.get_field(os_session, field);
                        OpOutcome::done(label, status::OK, detail_fingerprint(&bytes))
                    }
                    None => OpOutcome::done(
                        label,
                        status_of(&SmError::InvalidArgument { reason: "unknown field" }),
                        0,
                    ),
                }
            }
            Op::Batch { region } => {
                let region = self.region(*region);
                let calls = vec![
                    SmCall::GetField { field: 3 },
                    SmCall::BlockRegion { region },
                    SmCall::CleanRegion { region },
                    SmCall::GrantRegion { region, owner_eid: 0 },
                    SmCall::GetField { field: 0 },
                ];
                match self.system.monitor.batch(os_session, &calls) {
                    Ok(outcomes) => {
                        // Per-entry statuses are platform-invariant; values
                        // (lengths vs cycle counts) are not, so only the
                        // status stream is fingerprinted.
                        let statuses: Vec<u8> = outcomes
                            .iter()
                            .flat_map(|o| o.status.to_le_bytes())
                            .collect();
                        OpOutcome::done(label, status::OK, detail_fingerprint(&statuses))
                    }
                    Err(err) => OpOutcome::done(label, status_of(&err), 0),
                }
            }
            Op::Attack { kind, slot } => {
                let kind = AttackKind::resolve(*kind);
                let index = self.slot(*slot).expect("gated by is_enabled");
                let victim = self.live[index].built.clone();
                match kind.run(&self.system, &mut self.os, &victim, &victim, hart) {
                    Ok(outcome) => {
                        let mut summary = OpOutcome::done(label, status::OK, 0);
                        summary.attack_blocked = Some(outcome.blocked());
                        summary
                    }
                    Err(err) => OpOutcome::done(label, status_of(&err), 0),
                }
            }
            Op::Crashed { point, op } => {
                use sanctorum_machine::{FaultPlan, InjectedCrash};
                sanctorum_machine::fault::silence_injected_crash_reports();
                self.system.machine.fault_injector().arm(FaultPlan::CrashAt {
                    site: None,
                    crossing: *point,
                });
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.execute(hart, op)
                }));
                self.system.machine.fault_injector().disarm();
                let fired = match result {
                    // The inner op completed: it crossed fewer than `point`
                    // fault points, so no crash fired.
                    Ok(_) => false,
                    Err(payload) => {
                        // Only the injected crash is survivable; any other
                        // panic is a real bug and keeps unwinding.
                        if payload.downcast_ref::<InjectedCrash>().is_none() {
                            std::panic::resume_unwind(payload);
                        }
                        true
                    }
                };
                // Reboot-and-recover: the journal replays pending intents,
                // the quarantine is retried, and the OS model re-derives its
                // bookkeeping from the repaired monitor. All of it is
                // idempotent, so the uncrashed path runs it too — the op's
                // observable protocol is the same either way.
                let report = self.system.monitor.recover();
                self.reconcile_after_recovery();
                OpOutcome::done(
                    label,
                    status::OK,
                    (report.replayed as u64) << 1 | u64::from(fired),
                )
            }
        }
    }

    /// The model-layer half of crash recovery: after
    /// [`sanctorum_core::monitor::SecurityMonitor::recover`] repaired the
    /// monitor's shared state, drop roster entries for enclaves the crash
    /// destroyed mid-create and re-derive the OS free pool from the
    /// monitor's resource map (a crash between the SM calls of a multi-call
    /// sequence leaves the OS's private bookkeeping stale).
    pub fn reconcile_after_recovery(&mut self) {
        let live_ids = self.system.monitor.enclaves();
        self.live.retain(|e| live_ids.contains(&e.built.eid));
        if let Some(service) = &self.signing {
            if !live_ids.contains(&service.built.eid) {
                self.signing = None;
            }
        }
        self.os.reconcile_free_pool();
    }

    /// Checks that the SM-recorded identity tag of a delivered message is
    /// *truthful*: an enclave tag must name a live enclave and carry exactly
    /// that enclave's measurement (dead senders cannot appear — the monitor
    /// purges their undelivered mail at teardown, precisely so a recycled
    /// enclave id can never impersonate its previous incarnation).
    fn identity_is_truthful(&self, identity: &SenderIdentity) -> bool {
        match identity {
            SenderIdentity::Untrusted => true,
            SenderIdentity::Enclave { id, measurement } => self
                .live
                .iter()
                .find(|e| e.built.eid == *id)
                .map(|e| e.built.measurement == *measurement)
                .unwrap_or(false),
        }
    }

    /// Drives one accept → send → get mail exchange and records whether the
    /// SM-attributed sender identity matches the actual sender.
    fn mail_exchange(
        &mut self,
        label: &'static str,
        sender: Option<EnclaveId>,
        recipient: EnclaveId,
        payload: u64,
    ) -> OpOutcome {
        let recipient_session = CallerSession::enclave(recipient);
        let sender_session = match sender {
            Some(eid) => CallerSession::enclave(eid),
            None => CallerSession::os(),
        };
        let sender_id = sender.map(|e| e.as_u64()).unwrap_or(0);
        if let Err(err) = self
            .system
            .monitor
            .accept_mail(recipient_session, 0, sender_id)
        {
            return OpOutcome::done(label, status_of(&err), 1);
        }
        if let Err(err) =
            self.system
                .monitor
                .send_mail(sender_session, recipient, Tainted::new(&payload.to_le_bytes()))
        {
            return OpOutcome::done(label, status_of(&err), 2);
        }
        match self.system.monitor.get_mail(recipient_session, 0) {
            Ok((bytes, identity)) => {
                // The fabric queues messages, so the fetch returns the
                // *oldest* entry — usually the message just sent, but under
                // queue pressure possibly an earlier one. When it is ours
                // (payload match), the tag must name the actual sender
                // exactly; an older message's tag must still be truthful.
                let identity_ok = if bytes == payload.to_le_bytes() {
                    match (&identity, sender) {
                        (SenderIdentity::Untrusted, None) => true,
                        (SenderIdentity::Enclave { id, .. }, Some(eid)) if *id != eid => false,
                        (SenderIdentity::Enclave { .. }, Some(_)) => {
                            self.identity_is_truthful(&identity)
                        }
                        _ => false,
                    }
                } else {
                    self.identity_is_truthful(&identity)
                };
                let mut outcome = OpOutcome::done(
                    label,
                    status::OK,
                    detail_fingerprint(&bytes),
                );
                outcome.mail_identity_ok = Some(identity_ok);
                outcome
            }
            Err(err) => OpOutcome::done(label, status_of(&err), 3),
        }
    }

    /// Drives one fabric burst: wildcard-arm mailbox 0, queue `burst` OS
    /// messages, then drain the whole mailbox FIFO — peeking the length
    /// before every fetch and cross-checking it against what the fetch
    /// returns. Identity truthfulness is checked on every drained message.
    fn mail_queue_burst(
        &mut self,
        label: &'static str,
        recipient: EnclaveId,
        burst: u64,
        payload: u64,
    ) -> OpOutcome {
        let recipient_session = CallerSession::enclave(recipient);
        if let Err(err) = self
            .system
            .monitor
            .accept_mail(recipient_session, 0, ANY_SENDER)
        {
            return OpOutcome::done(label, status_of(&err), 1);
        }
        let mut sent = 0u64;
        let mut last_send_status = status::OK;
        for i in 0..burst {
            match self.system.monitor.send_mail(
                CallerSession::os(),
                recipient,
                Tainted::new(&(payload.wrapping_add(i)).to_le_bytes()),
            ) {
                Ok(()) => sent += 1,
                // Quota or queue backpressure mid-burst is a legitimate,
                // platform-invariant outcome; drain whatever got through.
                Err(err) => {
                    last_send_status = status_of(&err);
                    break;
                }
            }
        }
        let mut drained_bytes = Vec::new();
        let mut identity_ok = true;
        while let Ok((peeked, _sender)) = self.system.monitor.peek_mail(recipient_session, 0) {
            match self.system.monitor.get_mail(recipient_session, 0) {
                Ok((bytes, identity)) => {
                    // The non-destructive probe must describe exactly the
                    // message the fetch then delivers.
                    identity_ok &= peeked == bytes.len();
                    identity_ok &= self.identity_is_truthful(&identity);
                    drained_bytes.extend_from_slice(&bytes);
                }
                // A transient backend fault defers delivery; the message
                // stays queued, which is degradation, not inconsistency.
                Err(SmError::Again) => break,
                Err(_) => {
                    // peek saw a message but get could not deliver it —
                    // a fabric consistency failure.
                    identity_ok = false;
                    break;
                }
            }
        }
        // Leave no wildcard filter behind: re-arm for the OS, the sender
        // `MailRoundTrip` exchanges expect.
        let _ = self.system.monitor.accept_mail(recipient_session, 0, 0);
        let mut detail = detail_fingerprint(&drained_bytes);
        detail ^= sent.rotate_left(17) ^ last_send_status;
        let mut outcome = OpOutcome::done(label, status::OK, detail);
        outcome.mail_identity_ok = Some(identity_ok);
        outcome
    }

    /// Runs the pipelined attestation service over up to `clients` live
    /// enclaves: waves of requests into the signing enclave's wildcard
    /// queue, a drain per wave, then batch verification of the collected
    /// evidence. Returns how many clients ended with a verified secure
    /// session in the outcome detail.
    fn attest_service(&mut self, label: &'static str, clients: usize) -> OpOutcome {
        // The service enclave is built lazily and lives for the rest of the
        // world (its region is never returned to the pool). A free region is
        // guaranteed here: `is_enabled` requires one whenever the service
        // does not exist yet.
        if self.signing.is_none() {
            let built = match self.os.build_enclave(&EnclaveImage::signing_enclave(), 1) {
                Ok(built) => built,
                Err(err) => return OpOutcome::done(label, status_of(&err), 0),
            };
            let mut logic = SigningEnclave::new(built.eid);
            if let Err(err) = logic.open_service_with(&self.system.monitor, derived_keypair) {
                return OpOutcome::done(label, status_of(&err), 0);
            }
            let attestation_pubkey = self
                .system
                .monitor
                .identity()
                .attestation_keypair
                .public()
                .to_bytes();
            // Warm the service's signature cache with every class already
            // verified under this attestation key (see the memo's docs).
            for ((pubkey, measurement, nonce, report_data), sig) in
                verified_signature_memo().lock().unwrap().iter()
            {
                if *pubkey == attestation_pubkey {
                    logic.preload_signature(
                        Measurement(*measurement),
                        *nonce,
                        *report_data,
                        Signature::from_bytes(sig),
                    );
                }
            }
            let device_cert = device_certificate(&self.system);
            self.signing = Some(SigningService {
                built,
                logic,
                device_cert,
                attestation_pubkey,
            });
        }
        if self.live.is_empty() {
            return OpOutcome::skipped(label);
        }
        let count = clients.min(self.live.len());
        let client_enclaves: Vec<(EnclaveId, Measurement)> = self
            .live
            .iter()
            .take(count)
            .map(|e| (e.built.eid, e.built.measurement))
            .collect();
        let service = self.signing.as_mut().expect("service built above");
        let sm = self.system.monitor.as_ref();

        // The verifier's DRBG seed is fixed, so a fresh verifier issues the
        // same nonce schedule in every op of every world — which is what
        // lets the verified-signature memo and the signing enclave's own
        // cache turn repeat rounds into pure fabric traffic.
        let verifier = RemoteVerifier::new(
            manufacturer_ca().root_public_key(),
            client_enclaves.iter().map(|(_, m)| *m).collect(),
            [0x42; 32],
        );
        let sessions = SessionPool::new();
        let mut attested_echo = 0u64;
        let mut session_replaced = false;

        // Waves bounded by the request-queue depth: every submit in a wave
        // must fit the signing enclave's wildcard mailbox.
        for (wave_index, wave) in client_enclaves.chunks(MAILBOX_QUEUE_DEPTH).enumerate() {
            let challenges = verifier.begin_many(wave.len());
            let mut wave_clients = Vec::with_capacity(wave.len());
            for (i, ((eid, measurement), challenge)) in
                wave.iter().zip(&challenges).enumerate()
            {
                // The DH seed depends only on the wave position, so the
                // challenge class (nonce, report data) is stable across
                // worlds and ops — the memo's whole premise.
                let position = (wave_index * MAILBOX_QUEUE_DEPTH + i) as u8;
                let (dh_secret, dh_public) = client_dh_keypair(position);
                let client = AttestationClient::from_dh_keypair(*eid, dh_secret, dh_public);
                if client
                    .submit_request(sm, service.built.eid, challenge.nonce)
                    .is_ok()
                {
                    wave_clients.push((client, *measurement, *challenge));
                }
            }
            if service.logic.drain(sm).is_err() {
                break;
            }
            for (client, measurement, challenge) in wave_clients {
                let Ok(response) = client.collect_response(sm, service.device_cert.clone())
                else {
                    continue;
                };
                // Structural checks first — these hold memo or no memo: the
                // reply must echo *this* client's SM-recorded measurement,
                // *this* challenge's nonce, and the binding of *this*
                // client's DH key. A reply failing any of them was
                // mis-routed, mis-attributed or forged.
                let report = &response.evidence.report;
                let binding = Sha3_256::digest(&client.dh_public());
                if report.enclave_measurement != measurement
                    || report.nonce != challenge.nonce
                    || report.report_data != binding
                {
                    continue;
                }
                let class: SigClassKey = (
                    service.attestation_pubkey,
                    *measurement.as_bytes(),
                    report.nonce,
                    report.report_data,
                );
                let known = verified_signature_memo()
                    .lock()
                    .unwrap()
                    .get(&class)
                    .copied();
                if let Some(verified_sig) = known {
                    // This exact class has survived a full verifier pass in
                    // some world of this process; the deterministic
                    // signature must be bit-identical.
                    if response.evidence.signature.to_bytes() == verified_sig {
                        attested_echo += 1;
                    }
                    continue;
                }
                let Ok(mut session) =
                    verifier.verify(&response.evidence, &response.enclave_dh_public)
                else {
                    continue;
                };
                // The attested channel must actually work end to end: the
                // enclave side derives the same keys from its DH share.
                let shared = client.shared_secret(&challenge.verifier_dh_public);
                let mut enclave_session = SecureSession::new(&shared, &challenge.nonce);
                let sealed = session.seal(b"service-hello");
                if enclave_session.open(&sealed).is_ok() {
                    verified_signature_memo()
                        .lock()
                        .unwrap()
                        .insert(class, response.evidence.signature.to_bytes());
                    // Every client id this round selected is distinct and
                    // the pool is per-op, so a `Replaced` outcome would mean
                    // one client's verified session displaced another's — the
                    // session-fixation shape. Surface it as a service-plane
                    // violation, never silently.
                    if !sessions.insert(client.eid().as_u64(), session).is_fresh() {
                        session_replaced = true;
                    }
                }
            }
        }
        let attested = sessions.len() as u64 + attested_echo;
        self.attested_clients += attested;
        let mut outcome = OpOutcome::done(label, status::OK, attested);
        // Every client the workload selected must end the round with
        // verified evidence; fewer means the service plane dropped,
        // mis-routed or mis-attributed a request somewhere between submit
        // and verification. A replaced session is the same class of
        // violation: two requests resolved to one client id.
        outcome.service_ok = Some(attested as usize == count && !session_replaced);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn sampling_is_deterministic_and_covers_the_op_space() {
        let mut a = words(7);
        let mut b = words(7);
        let ops_a: Vec<Op> = (0..500).map(|_| Op::sample(&mut a)).collect();
        let ops_b: Vec<Op> = (0..500).map(|_| Op::sample(&mut b)).collect();
        assert_eq!(ops_a, ops_b);
        let labels: std::collections::BTreeSet<&str> =
            ops_a.iter().map(|o| o.label()).collect();
        assert!(labels.len() >= 12, "got only {labels:?}");
    }

    #[test]
    fn sample_reaches_every_variant_every_attack_and_every_image() {
        // Exhaustive coverage of the sampler's range: every op label, every
        // attack kind and every image kind must be reachable, or the
        // explorer silently stops exercising part of the surface (and the
        // model checker's alphabet diverges from the sampled one). 4000
        // deterministic draws make the rarest class (~1% per draw)
        // overwhelmingly certain while staying instant.
        let mut stream = words(0xc0_7e1a);
        let ops: Vec<Op> = (0..4000).map(|_| Op::sample(&mut stream)).collect();

        let labels: std::collections::BTreeSet<&str> =
            ops.iter().map(|o| o.label()).collect();
        for label in Op::ALL_LABELS {
            // `crashed` is deliberately outside the sampled distribution —
            // the crash-point sweep places crashes exhaustively instead.
            if label == "crashed" {
                continue;
            }
            assert!(labels.contains(label), "sampler never drew {label:?}");
        }
        assert!(!labels.contains("crashed"), "the sampler must not draw crash ops");
        assert_eq!(labels.len(), Op::ALL_LABELS.len() - 1, "unknown label drawn");

        // Sampled attack selectors are huge PRNG words, which resolve into
        // the pinned SAMPLED battery — all of it, and nothing else (newer
        // attacks are reached only through small direct selectors).
        let kinds: std::collections::BTreeSet<AttackKind> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Attack { kind, .. } => Some(AttackKind::resolve(*kind)),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            AttackKind::SAMPLED.iter().copied().collect(),
            "sampled selectors must cover exactly the SAMPLED battery"
        );

        let images: std::collections::BTreeSet<ImageKind> = ops
            .iter()
            .filter_map(|o| match o {
                Op::Build { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(images.len(), 4, "image kinds missing: got {images:?}");
    }

    #[test]
    fn skipped_ops_report_the_skip_status() {
        let mut world = OpWorld::boot(PlatformKind::Sanctum, MachineConfig::small());
        let outcome = world.apply(CoreId::new(0), &Op::Teardown { slot: 3 });
        assert_eq!(outcome.status, OpOutcome::SKIPPED);
        let outcome = world.apply(CoreId::new(0), &Op::Run { slot: 0, budget: 100 });
        assert_eq!(outcome.status, OpOutcome::SKIPPED);
    }

    #[test]
    fn build_run_teardown_round_trips_through_ops() {
        let mut world = OpWorld::boot(PlatformKind::Sanctum, MachineConfig::small());
        let hart = CoreId::new(0);
        let built = world.apply(hart, &Op::Build { kind: ImageKind::Hello, param: 3 });
        assert_eq!(built.status, status::OK);
        assert!(built.measurement.is_some());
        assert_eq!(world.live.len(), 1);
        assert_eq!(world.live_secrets().count(), 1);

        let ran = world.apply(hart, &Op::Run { slot: 0, budget: 10_000 });
        assert_eq!((ran.status, ran.detail), (status::OK, 1), "exited");

        let mail = world.apply(hart, &Op::MailRoundTrip { slot: 0, payload: 9 });
        assert_eq!(mail.status, status::OK);
        assert_eq!(mail.mail_identity_ok, Some(true));

        let torn = world.apply(hart, &Op::Teardown { slot: 0 });
        assert_eq!(torn.status, status::OK);
        assert!(world.live.is_empty());
    }

    #[test]
    fn attacks_through_ops_are_blocked() {
        let mut world = OpWorld::boot(PlatformKind::Sanctum, MachineConfig::small());
        let hart = CoreId::new(0);
        world.apply(hart, &Op::Build { kind: ImageKind::Hello, param: 1 });
        for kind in 0..AttackKind::ALL.len() as u64 {
            let outcome = world.apply(hart, &Op::Attack { kind, slot: 0 });
            assert_eq!(outcome.status, status::OK, "attack {kind} errored");
            assert_eq!(outcome.attack_blocked, Some(true), "attack {kind} succeeded");
        }
    }

    #[test]
    fn signing_enclave_measurement_is_platform_independent() {
        // Fleets and benchmark setups on either backend trust the one
        // process-wide probe, so a probe build on each platform must agree
        // with it.
        for platform in [PlatformKind::Sanctum, PlatformKind::Keystone] {
            let system = System::boot_small(platform);
            let probe = Os::new(&system)
                .build_enclave(&EnclaveImage::signing_enclave(), 1)
                .expect("probe build succeeds");
            assert_eq!(
                probe.measurement,
                signing_enclave_measurement(),
                "{platform:?}"
            );
        }
    }
}
