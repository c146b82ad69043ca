//! The security monitor: authorization, state machines and resource
//! enforcement behind every SM API call (paper Section V).
//!
//! The complete call surface lives on the [`SmApi`] trait (declared in
//! [`crate::api`] next to the call registry); this module implements it for
//! [`SecurityMonitor`]. Every call method takes a [`CallerSession`] — the
//! authenticated caller capability minted per hart by
//! [`SecurityMonitor::authenticate`] (or by the harness constructors on
//! [`CallerSession`] for direct Rust callers) — and performs its own
//! authorization against that session.
//!
//! # Locking
//!
//! Concurrent harts only serialize on the object they operate on (paper
//! Sections IV–V): the resource map is sharded
//! ([`crate::resource::ShardedResourceMap`]), enclave/thread metadata sits
//! behind per-object locks resolved through read-mostly `RwLock` tables,
//! counters and generation stamps are atomics, and the isolation backend is
//! only locked for the narrow critical section that programs the primitive.
//! Every acquisition follows the total order documented (and debug-enforced)
//! in [`crate::lockorder`]; `LockingMode::Global` instead funnels every call
//! through one FIFO ticket spinlock for the ablation study. See the
//! "Locking discipline" section of ARCHITECTURE.md for the full argument.

use crate::api::{CallOutcome, SmApi, SmCall};
use crate::boot::SmIdentity;
use crate::enclave::{EnclaveLifecycle, EnclaveMeta, PhysWindow};
use crate::error::{SmError, SmResult};
use crate::idalloc::IdAllocator;
use crate::lockorder::{
    rank, OrderedMutex, OrderedMutexGuard, OrderedRwLock, SpinLock,
};
use crate::mailbox::{AcceptMode, SenderIdentity, MAIL_SENDER_QUOTA, MAX_MAIL_LEN};
use crate::measurement::{Measurement, MeasurementContext};
use crate::resource::{
    shard_bit, shard_of, ResourceId, ResourceMap, ResourceState, ShardMask, ShardedResourceMap,
    RESOURCE_SHARDS,
};
use crate::session::CallerSession;
use crate::thread::{ThreadId, ThreadMeta, ThreadState};
use sanctorum_hal::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use sanctorum_hal::cycles::Cycles;
use sanctorum_hal::domain::{CoreId, DomainKind, EnclaveId};
use sanctorum_hal::isolation::{
    FlushKind, IsolationBackend, PlatformCapacity, RegionId, RegionInfo, RegionOp,
};
use sanctorum_hal::perm::MemPerms;
use sanctorum_machine::hart::PrivilegeLevel;
use sanctorum_machine::pagetable::PageTableBuilder;
use sanctorum_machine::{fault_point, Crossing, Machine};
use sanctorum_trust::{ReadAccess, Sanitizer, Tainted};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

/// How the monitor serializes concurrent API transactions (paper Section V-A;
/// the global variant exists for the locking ablation study).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockingMode {
    /// Per-object try-locks: concurrent transactions on the same object fail
    /// with [`SmError::ConcurrentCall`] and must be retried; transactions on
    /// different objects take disjoint locks (sharded resource map,
    /// per-enclave and per-thread records, read-locked lookup tables) and
    /// genuinely proceed in parallel on concurrent harts. All acquisitions
    /// follow the documented lock hierarchy ([`crate::lockorder`]), enforced
    /// by a panicking order checker in debug builds.
    FineGrained,
    /// A single monitor-wide ticket spinlock serializes every API call (the
    /// giant-lock baseline the fine-grained design is compared against —
    /// see [`crate::lockorder::SpinLock`] for why it spins FIFO like real
    /// M-mode firmware locks). The scaling bench and the locking ablation
    /// measure exactly this serialization.
    Global,
}

/// Maximum number of live enclaves (metadata slots).
const MAX_ENCLAVES: usize = 32;

/// Maximum number of live threads.
const MAX_THREADS: usize = 128;

/// Monitor configuration.
#[derive(Debug, Clone)]
pub struct SmConfig {
    /// Locking strategy for API transactions.
    pub locking: LockingMode,
    /// Measurement of the trusted signing enclave (paper Section VI-C). Only
    /// an enclave with exactly this measurement may retrieve the attestation
    /// key.
    pub signing_enclave_measurement: Option<Measurement>,
    /// Thread-id allocation batch size (see [`crate::idalloc::IdAllocator`]).
    /// The default of `1` reproduces the historical monotone, never-reused
    /// id sequence bit-for-bit (the pinned determinism digests depend on
    /// it); concurrent harnesses raise it so each hart draws ids from a
    /// private batch instead of contending on the shared counter.
    pub id_batch: usize,
}

impl Default for SmConfig {
    fn default() -> Self {
        Self {
            locking: LockingMode::FineGrained,
            signing_enclave_measurement: None,
            id_batch: 1,
        }
    }
}

/// Public, non-secret fields readable through `get_field`
/// (paper Section VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublicField {
    /// The SM's attestation public key.
    AttestationPublicKey,
    /// The SM certificate (signed by the device key).
    SmCertificate,
    /// The device public key.
    DevicePublicKey,
    /// The SM measurement taken at secure boot.
    SmMeasurement,
}

impl PublicField {
    /// Maps the register-ABI field selector onto the field (the inverse of
    /// [`PublicField::selector`]). Returns `None` for unknown selectors.
    pub const fn from_selector(selector: u64) -> Option<Self> {
        match selector {
            0 => Some(PublicField::AttestationPublicKey),
            1 => Some(PublicField::SmCertificate),
            2 => Some(PublicField::DevicePublicKey),
            3 => Some(PublicField::SmMeasurement),
            _ => None,
        }
    }

    /// The register-ABI selector for this field.
    pub const fn selector(self) -> u64 {
        match self {
            PublicField::AttestationPublicKey => 0,
            PublicField::SmCertificate => 1,
            PublicField::DevicePublicKey => 2,
            PublicField::SmMeasurement => 3,
        }
    }
}

/// Counters the benchmark harness reads.
#[derive(Debug, Default)]
pub struct SmStats {
    /// Total API calls accepted (authorized and validated).
    pub api_calls: AtomicU64,
    /// API calls rejected for any reason.
    pub api_rejections: AtomicU64,
    /// Concurrent-transaction failures returned.
    pub concurrency_failures: AtomicU64,
    /// Cycles spent cleaning resources (flushes, zeroing, shootdowns).
    pub cleaning_cycles: AtomicU64,
    /// Calls executed through the batched path.
    pub batched_calls: AtomicU64,
}

/// Entry disposition returned by [`SmApi::enter_enclave`]: where the thread
/// should start executing and whether an AEX state is pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnclaveEntry {
    /// Program counter the hart was set to.
    pub entry_pc: u64,
    /// Whether a saved AEX state exists (the enclave may resume from it).
    pub aex_pending: bool,
    /// Cycles charged for the entry (context install + flushes).
    pub cost: Cycles,
}

/// An admission-slot reservation against an atomic live-object counter:
/// taken with a compare-and-swap *before* the (multi-step, fallible) build
/// it admits, released on drop unless the build committed. This is what
/// keeps [`MAX_ENCLAVES`] a hard cap under concurrency — a load-then-check
/// would let two harts both pass at `max - 1`.
struct SlotReservation<'a> {
    counter: &'a AtomicU64,
    committed: bool,
}

impl Drop for SlotReservation<'_> {
    fn drop(&mut self) {
        if !self.committed {
            self.counter.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// The zero-page cost of a region scrub, charged to the machine once, on
/// drop, for the pages actually zeroed: a scrub that stops at a failed or
/// crashed page crossing charges the same cycles as one `zero_page` call
/// per page did.
struct ZeroCharge<'a> {
    machine: &'a Machine,
    pages: u64,
}

impl Drop for ZeroCharge<'_> {
    fn drop(&mut self) {
        self.machine
            .charge(self.machine.cost_model().zero_page.scaled(self.pages));
    }
}

/// Handle to one enclave's lock-protected metadata (rank `ENCLAVE_META`).
type EnclaveHandle = Arc<OrderedMutex<EnclaveMeta>>;
/// Handle to one thread's lock-protected metadata (rank `THREAD_META`).
type ThreadHandle = Arc<OrderedMutex<ThreadMeta>>;
/// One held resource shard (rank `RESOURCE_SHARD_BASE + k`).
type ShardGuard<'a> = OrderedMutexGuard<'a, ResourceMap>;

struct SmState {
    /// The Fig. 2 ownership map, sharded so transactions on different
    /// resources take disjoint locks (see [`ShardedResourceMap`]).
    resources: ShardedResourceMap,
    /// Read-mostly (rank `ENCLAVE_TABLE`): every call resolves enclave ids
    /// through this table but only lifecycle calls mutate it, so lookups
    /// take shared read locks and proceed in parallel across harts.
    enclaves: OrderedRwLock<BTreeMap<EnclaveId, EnclaveHandle>>,
    /// Read-mostly (rank `THREAD_TABLE`), same pattern as the enclave table.
    threads: OrderedRwLock<BTreeMap<ThreadId, ThreadHandle>>,
    /// Which enclave thread currently occupies each core (rank `OCCUPANCY`).
    /// Read-mostly (dispatch probes it on every event; only enter/exit/AEX
    /// write).
    core_occupancy: OrderedRwLock<BTreeMap<CoreId, ThreadId>>,
    /// Thread-id source: per-hart batched caches over a shared pool (ranks
    /// `ID_SLOT` / `ID_POOL`). At the default batch size of 1 it degenerates
    /// to the historical shared monotone counter with no id reuse.
    tids: IdAllocator,
    /// Relaxed count of live enclaves — the lock-free fast path for
    /// diagnostics (`Debug` formatting must never take the table lock: it
    /// deadlocked when a monitor was formatted while a call held enclave
    /// state) and for the [`MAX_ENCLAVES`] admission check.
    live_enclaves: AtomicU64,
    /// Bumped after every enclave-table change and every audit-visible
    /// enclave-metadata change (the value is also recorded into the touched
    /// enclave's [`EnclaveMeta::audit_generation`]). Drives the incremental
    /// audit.
    enclaves_generation: AtomicU64,
    /// Bumped after every thread-table or thread-state change.
    threads_generation: AtomicU64,
    /// Bumped after every core-occupancy change.
    occupancy_generation: AtomicU64,
    /// The mail-fabric quota ledger (rank `MAIL_LEDGER`): undelivered
    /// messages in flight per sender id, across every live recipient's
    /// queues. `send_mail` refuses a sender at [`MAIL_SENDER_QUOTA`];
    /// delivery and teardown purges refund.
    mail_ledger: OrderedMutex<BTreeMap<u64, u64>>,
    /// Bumped after every mail-fabric mutation (send, get, teardown purge).
    mail_generation: AtomicU64,
    /// The mutation journal (rank `JOURNAL` — above every state lock, so an
    /// intent can be recorded or retired from inside any transaction):
    /// `(sequence, intent)` pairs for every multi-step mutation currently in
    /// flight. Entries are recorded *before* shared state is touched and
    /// retired on every exit path except a crash; whatever is still pending
    /// when [`SecurityMonitor::recover`] runs is redone (or undone)
    /// idempotently.
    journal: OrderedMutex<Vec<(u64, JournalEntry)>>,
    /// Sequence source for journal entries.
    journal_seq: AtomicU64,
    /// Regions parked because the isolation backend persistently failed
    /// while cleaning them (rank `QUARANTINE` — above `BACKEND`, so the
    /// failure path can quarantine while still holding the backend guard).
    /// Quarantined regions stay `Blocked`, refuse `clean`/`grant` with
    /// [`SmError::Again`], and are retried by
    /// [`SecurityMonitor::recover`].
    quarantine: OrderedMutex<BTreeSet<RegionId>>,
    /// Bumped after every quarantine-set mutation (audit-visible).
    quarantine_generation: AtomicU64,
}

/// One logged intent of a multi-step monitor mutation.
///
/// The journal discipline: the entry is recorded after validation but before
/// the first mutation of shared state, and retired on every return path —
/// only a crash (modelled as a panic at a [`fault_point!`] crossing) leaves
/// it pending. [`SecurityMonitor::recover`] replays pending entries with
/// idempotent redo (delete) or undo (create, grant); `Clean` and `Batch`
/// need neither, because every crash window they span leaves state a retried
/// call repairs on its own (a partially scrubbed region is still `Blocked`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// `create_enclave` for `eid` over `regions` is in flight.
    CreateEnclave {
        /// The enclave id being created.
        eid: EnclaveId,
        /// The regions being dedicated to it.
        regions: Vec<RegionId>,
    },
    /// `delete_enclave` for `eid` is in flight.
    DeleteEnclave {
        /// The enclave id being deleted.
        eid: EnclaveId,
    },
    /// `grant_resource` of `id` to `new_owner` is in flight.
    Grant {
        /// The resource being granted.
        id: ResourceId,
        /// The owner it is being granted to.
        new_owner: DomainKind,
    },
    /// `clean_resource` of `id` is in flight.
    Clean {
        /// The resource being cleaned.
        id: ResourceId,
    },
    /// A batch is in flight (vacuous marker: the inner calls journal their
    /// own intents; the marker only brackets the crossing window).
    Batch,
}

/// What [`SecurityMonitor::recover`] did: counts for harness assertions and
/// audit logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Journal entries replayed (redone or undone).
    pub replayed: usize,
    /// Quarantined regions successfully scrubbed and released.
    pub quarantine_cleared: usize,
    /// Regions still quarantined after recovery (backend still failing).
    pub quarantine_remaining: usize,
}

/// Deliberate, named weakenings of the monitor's enforcement, used by the
/// adversarial explorer to prove its invariant kernel actually detects
/// violations (a checker that never fires is indistinguishable from a
/// checker that checks nothing).
///
/// Production code must never set one of these; they exist only behind
/// [`SecurityMonitor::weaken_for_testing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestWeakening {
    /// The clean-before-reuse scrub skips zeroing region memory, while
    /// `clean_resource` still completes the Fig. 2 state transition.
    SkipRegionScrub,
    /// The enclave-to-OS core hand-off — `exit_enclave` and the
    /// asynchronous enclave exit — skips cleaning the core's architected
    /// state, so registers the enclave left behind survive into the OS.
    /// `enter_enclave` and `clean_resource` on a core always clean.
    SkipCoreClean,
    /// [`SecurityMonitor::recover`] skips replaying the mutation journal, so
    /// a crash mid-mutation leaves its intent entry pending (and the
    /// half-applied state unrepaired) forever.
    SkipJournalReplay,
    /// `clean_resource` ignores a failed scrub and completes the Fig. 2
    /// transition anyway instead of quarantining the region — secrets ride a
    /// backend fault straight into an `Available` region.
    SkipQuarantine,
}

impl TestWeakening {
    /// Every weakening, for harnesses that must prove each one is caught
    /// (the explorer's weakened-monitor self-checks and the model checker's
    /// completeness tests iterate this list so a new weakening cannot be
    /// added without a detector for it).
    pub const ALL: [TestWeakening; 4] = [
        TestWeakening::SkipRegionScrub,
        TestWeakening::SkipCoreClean,
        TestWeakening::SkipJournalReplay,
        TestWeakening::SkipQuarantine,
    ];

    /// Short name for reports.
    pub const fn name(self) -> &'static str {
        match self {
            TestWeakening::SkipRegionScrub => "skip-region-scrub",
            TestWeakening::SkipCoreClean => "skip-core-clean",
            TestWeakening::SkipJournalReplay => "skip-journal-replay",
            TestWeakening::SkipQuarantine => "skip-quarantine",
        }
    }
}

/// One enclave's OS-visible metadata inside an [`AuditSnapshot`].
///
/// The fields mirror exactly the audit-visible subset of
/// [`EnclaveMeta`]; any monitor code path mutating one of these underlying
/// fields must bump the enclave's `audit_generation` (see
/// [`EnclaveMeta::audit_generation`]) or the incremental audit will serve a
/// stale record — the audit-equivalence property test in the explorer crate
/// guards this contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveAudit {
    /// The enclave id.
    pub id: EnclaveId,
    /// Whether `init_enclave` has sealed the enclave.
    pub initialized: bool,
    /// Regions backing the enclave's physical windows.
    pub regions: Vec<RegionId>,
    /// The finalized measurement, once initialized.
    pub measurement: Option<Measurement>,
    /// Number of threads currently running on cores.
    pub running_threads: usize,
    /// Threads associated with the enclave.
    pub threads: Vec<ThreadId>,
    /// Every message queued in the enclave's mailboxes, flattened in
    /// (mailbox, FIFO) order as `(sender_id, message length)` pairs — the
    /// fabric's audit view, from which the explorer checks quota
    /// conservation against [`AuditSnapshot::mail_outstanding`].
    pub mail_queued: Vec<(u64, u32)>,
}

/// The monotone change counters an [`AuditSnapshot`] was taken at.
///
/// Each counter only ever grows, and grows on (at least) every mutation of
/// the corresponding state component — so two snapshots with equal
/// generations are guaranteed to describe identical state, and a consumer
/// checking invariants after every step can skip whole check families when
/// the relevant counters did not move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditGenerations {
    /// Mutation counter of the resource map (Fig. 2 transitions).
    pub resources: u64,
    /// Mutation counter of the enclave table and all enclave metadata.
    pub enclaves: u64,
    /// Mutation counter of the thread table and all thread state machines.
    pub threads: u64,
    /// Mutation counter of the core-occupancy table.
    pub occupancy: u64,
    /// Mutation counter of the mail fabric (queues + quota ledger).
    pub mail: u64,
    /// Mutation counter of the quarantine set (fault containment).
    pub quarantine: u64,
}

/// A consistent snapshot of the monitor's security-relevant state, taken for
/// invariant checking (the explorer's invariant kernel runs over one of these
/// after every step). Producing the snapshot takes no try-locks, so it can be
/// interleaved with API traffic without inducing `ConcurrentCall` failures.
///
/// Snapshots are produced incrementally: the payload vectors are shared
/// (`Arc`) with the monitor's audit cache and with previous snapshots, so a
/// snapshot after a step that changed nothing costs three atomic loads and
/// three `Arc` clones instead of a deep copy of every thread list and window
/// table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSnapshot {
    /// Every registered resource and its Fig. 2 state, in `ResourceId` order.
    pub resources: Arc<Vec<(ResourceId, ResourceState)>>,
    /// Every live enclave's metadata, in `EnclaveId` order.
    pub enclaves: Vec<Arc<EnclaveAudit>>,
    /// Which enclave thread occupies each core.
    pub core_occupancy: Arc<Vec<(CoreId, ThreadId)>>,
    /// The mail-fabric quota ledger: `(sender_id, undelivered messages)` in
    /// sender order. Conservation against the per-enclave
    /// [`EnclaveAudit::mail_queued`] views is an explorer invariant.
    pub mail_outstanding: Arc<Vec<(u64, u64)>>,
    /// Regions parked in the fault quarantine (Blocked, refusing clean and
    /// grant with `Again` until `recover()` re-scrubs them), in id order.
    pub quarantine: Arc<Vec<RegionId>>,
    /// The change counters this snapshot was taken at.
    pub generations: AuditGenerations,
}

impl AuditSnapshot {
    /// Returns the audit record for `eid`, if the enclave is live.
    pub fn enclave(&self, eid: EnclaveId) -> Option<&EnclaveAudit> {
        self.enclaves
            .binary_search_by_key(&eid, |e| e.id)
            .ok()
            .map(|i| &*self.enclaves[i])
    }

    /// Returns the state of one resource, if registered.
    pub fn resource(&self, id: ResourceId) -> Option<ResourceState> {
        self.resources
            .binary_search_by_key(&id, |(r, _)| *r)
            .ok()
            .map(|i| self.resources[i].1)
    }

    /// A 64-bit fingerprint of the monitor-visible state this snapshot
    /// describes: resource ownership, enclave metadata (lifecycle,
    /// regions, measurement, threads, queued mail), core occupancy and the
    /// mail-quota ledger.
    ///
    /// The [`AuditGenerations`] counters are deliberately *excluded*: they
    /// count mutations, not state, so two different op paths reaching the
    /// same logical monitor state carry different generation values. The
    /// model checker keys its visited set on this digest — folding the
    /// generations in would make every path look novel and defeat pruning.
    pub fn digest(&self) -> u64 {
        fn fold_u64(h: u64, v: u64) -> u64 {
            sanctorum_hal::fnv::fnv1a(h, &v.to_le_bytes())
        }
        fn domain_word(d: DomainKind) -> u64 {
            match d {
                DomainKind::Untrusted => 1,
                DomainKind::SecurityMonitor => 2,
                DomainKind::Enclave(eid) => 0x8000_0000_0000_0000 | eid.as_u64(),
            }
        }
        let mut h = 0xa_0d1u64;
        for (rid, state) in self.resources.iter() {
            let rid_word = match rid {
                ResourceId::Core(c) => 0x1_0000_0000 | c.index() as u64,
                ResourceId::Region(r) => 0x2_0000_0000 | r.index() as u64,
            };
            let state_word = match state {
                ResourceState::Owned(d) => 0x10 ^ domain_word(*d),
                ResourceState::Blocked(d) => 0x20 ^ domain_word(*d),
                ResourceState::Available => 0x30,
            };
            h = fold_u64(fold_u64(h, rid_word), state_word);
        }
        for enc in &self.enclaves {
            h = fold_u64(h, enc.id.as_u64());
            h = fold_u64(h, enc.initialized as u64);
            for r in &enc.regions {
                h = fold_u64(h, r.index() as u64);
            }
            h = match &enc.measurement {
                Some(m) => sanctorum_hal::fnv::fnv1a(h, m.as_bytes()),
                None => fold_u64(h, u64::MAX),
            };
            h = fold_u64(h, enc.running_threads as u64);
            for t in &enc.threads {
                h = fold_u64(h, *t);
            }
            for (sender, len) in &enc.mail_queued {
                h = fold_u64(fold_u64(h, *sender), *len as u64);
            }
        }
        for (core, tid) in self.core_occupancy.iter() {
            h = fold_u64(fold_u64(h, core.index() as u64), *tid);
        }
        for (sender, outstanding) in self.mail_outstanding.iter() {
            h = fold_u64(fold_u64(h, *sender), *outstanding);
        }
        // Entries-only fold: an empty quarantine leaves the digest exactly
        // as it was before the set existed, so pre-fault golden digests
        // (and the pinned determinism traces) are unchanged.
        for region in self.quarantine.iter() {
            h = fold_u64(h, 0x4_0000_0000 | region.index() as u64);
        }
        h
    }
}

/// The incremental-audit cache: the previously built snapshot payloads plus
/// the generations they are valid at. `u64::MAX` sentinels force a full
/// build on the first audit.
struct AuditCache {
    resources_gen: u64,
    resources: Arc<Vec<(ResourceId, ResourceState)>>,
    enclaves_gen: u64,
    /// Per-enclave cache entries: the `audit_generation` the record was built
    /// at, and the shared record itself.
    enclaves: BTreeMap<EnclaveId, (u64, Arc<EnclaveAudit>)>,
    /// The `enclaves` values pre-collected in id order, so an unchanged-state
    /// audit clones one `Vec` of `Arc`s without re-walking the map.
    enclaves_vec: Vec<Arc<EnclaveAudit>>,
    occupancy_gen: u64,
    core_occupancy: Arc<Vec<(CoreId, ThreadId)>>,
    mail_gen: u64,
    mail_outstanding: Arc<Vec<(u64, u64)>>,
    quarantine_gen: u64,
    quarantine: Arc<Vec<RegionId>>,
}

impl Default for AuditCache {
    fn default() -> Self {
        Self {
            resources_gen: u64::MAX,
            resources: Arc::new(Vec::new()),
            enclaves_gen: u64::MAX,
            enclaves: BTreeMap::new(),
            enclaves_vec: Vec::new(),
            occupancy_gen: u64::MAX,
            core_occupancy: Arc::new(Vec::new()),
            mail_gen: u64::MAX,
            mail_outstanding: Arc::new(Vec::new()),
            quarantine_gen: u64::MAX,
            quarantine: Arc::new(Vec::new()),
        }
    }
}

/// The Sanctorum security monitor.
///
/// All API methods take `&self` and a [`CallerSession`]; in the full
/// simulation the session is minted from the hart state by the event
/// dispatcher (Fig. 1, [`SecurityMonitor::authenticate`]), while unit tests
/// and the OS model mint sessions directly.
pub struct SecurityMonitor {
    machine: Arc<Machine>,
    /// The isolation backend, protected by the **highest-ranked** lock in
    /// the hierarchy: it is only ever taken for the narrow critical section
    /// that programs the isolation primitive (PMP entry / region-table
    /// mutation plus the associated flushes), and nothing else is ever
    /// acquired while it is held — so backend work on one hart never blocks
    /// metadata work on another for longer than that mutation.
    ///
    /// PMP/page-table mutation protocol: validate against SM metadata first
    /// (under the relevant shard/meta locks), then take the backend lock,
    /// program the primitive, release, and only then publish the new
    /// ownership in the metadata — with the single exception of
    /// `create_enclave`, which programs the primitive *before* the ownership
    /// transfer (and rolls itself back) because on capacity-limited
    /// platforms programming is the step that can fail. Rank `BACKEND` —
    /// the last lock any call path acquires.
    backend: OrderedMutex<Box<dyn IsolationBackend + Send>>,
    /// Immutable backend facts cached at construction so diagnostics, the
    /// differential explorer and the region-geometry lookups on the enclave
    /// lifecycle paths never take the backend lock for them.
    platform: &'static str,
    capacity: PlatformCapacity,
    region_infos: Vec<RegionInfo>,
    identity: SmIdentity,
    config: SmConfig,
    state: SmState,
    /// The Global-mode giant lock (a spinlock — the M-mode monitor it
    /// models has no scheduler to sleep on). FineGrained mode never touches
    /// it.
    global_lock: SpinLock,
    stats: SmStats,
    /// Encoded [`TestWeakening`] (0 = none): set once before exploration and
    /// read on hot paths, so it is a relaxed atomic, not a lock.
    weakening: AtomicU8,
    /// Memoized audit snapshot (rank `AUDIT_CACHE`), see [`AuditCache`].
    audit_cache: OrderedMutex<AuditCache>,
}

impl std::fmt::Debug for SecurityMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Deliberately lock-free: `Debug` output is often requested from
        // panic/assert contexts that may already hold enclave state, so the
        // count comes from the relaxed counter, never the table lock.
        write!(
            f,
            "SecurityMonitor {{ platform: {}, enclaves: {} }}",
            self.platform,
            self.state.live_enclaves.load(Ordering::Relaxed)
        )
    }
}

impl SecurityMonitor {
    /// Creates a monitor over `machine` using `backend` for isolation.
    ///
    /// All cores and all platform memory units start out owned by the
    /// untrusted OS except the units the backend has already reserved for
    /// the SM itself.
    pub fn new(
        machine: Arc<Machine>,
        backend: Box<dyn IsolationBackend + Send>,
        identity: SmIdentity,
        config: SmConfig,
    ) -> Self {
        let resources = ShardedResourceMap::new();
        for i in 0..machine.num_harts() {
            resources.register(
                ResourceId::Core(CoreId::new(i as u32)),
                ResourceState::Owned(DomainKind::Untrusted),
            );
        }
        let region_infos = backend.regions();
        for info in &region_infos {
            let owner = backend
                .region_owner(info.id)
                .unwrap_or(DomainKind::Untrusted);
            resources.register(ResourceId::Region(info.id), ResourceState::Owned(owner));
        }
        let platform = backend.platform_name();
        let capacity = backend.capacity();
        let id_batch = config.id_batch;
        Self {
            machine,
            backend: OrderedMutex::new(rank::BACKEND, backend),
            platform,
            capacity,
            region_infos,
            identity,
            config,
            state: SmState {
                resources,
                enclaves: OrderedRwLock::new(rank::ENCLAVE_TABLE, BTreeMap::new()),
                threads: OrderedRwLock::new(rank::THREAD_TABLE, BTreeMap::new()),
                core_occupancy: OrderedRwLock::new(rank::OCCUPANCY, BTreeMap::new()),
                tids: IdAllocator::new(0x1000, id_batch),
                live_enclaves: AtomicU64::new(0),
                enclaves_generation: AtomicU64::new(0),
                threads_generation: AtomicU64::new(0),
                occupancy_generation: AtomicU64::new(0),
                mail_ledger: OrderedMutex::new(rank::MAIL_LEDGER, BTreeMap::new()),
                mail_generation: AtomicU64::new(0),
                journal: OrderedMutex::new(rank::JOURNAL, Vec::new()),
                journal_seq: AtomicU64::new(0),
                quarantine: OrderedMutex::new(rank::QUARANTINE, BTreeSet::new()),
                quarantine_generation: AtomicU64::new(0),
            },
            global_lock: SpinLock::new(),
            stats: SmStats::default(),
            weakening: AtomicU8::new(0),
            audit_cache: OrderedMutex::new(rank::AUDIT_CACHE, AuditCache::default()),
        }
    }

    /// Returns the monitor's boot identity (public parts are also available
    /// through [`SmApi::get_field`]).
    pub fn identity(&self) -> &SmIdentity {
        &self.identity
    }

    /// Returns the shared machine handle.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The trust-boundary [`Sanitizer`] backed by this monitor's machine:
    /// the only way OS-supplied addresses and buffers become usable.
    pub fn sanitizer(&self) -> Sanitizer<'_> {
        self.machine.sanitizer()
    }

    /// Returns monitor statistics.
    pub fn stats(&self) -> &SmStats {
        &self.stats
    }

    /// Returns the platform name reported by the isolation backend (cached
    /// at construction — no backend lock taken).
    pub fn platform_name(&self) -> &'static str {
        self.platform
    }

    /// Returns the capacity limits the isolation backend declares (used by
    /// the differential explorer to classify cross-platform divergences;
    /// cached at construction — no backend lock taken).
    pub fn platform_capacity(&self) -> PlatformCapacity {
        self.capacity
    }

    /// Installs (or clears) a deliberate enforcement weakening.
    ///
    /// This is a **test-only** hook: the explorer's self-check weakens a
    /// monitor on purpose and asserts its invariant kernel reports a
    /// violation with a replayable `(seed, step)`. Nothing in the monitor,
    /// the OS model or the benches ever sets this.
    #[doc(hidden)]
    pub fn weaken_for_testing(&self, weakening: Option<TestWeakening>) {
        let encoded = match weakening {
            None => 0,
            Some(TestWeakening::SkipRegionScrub) => 1,
            Some(TestWeakening::SkipCoreClean) => 2,
            Some(TestWeakening::SkipJournalReplay) => 3,
            Some(TestWeakening::SkipQuarantine) => 4,
        };
        self.weakening.store(encoded, Ordering::Relaxed);
    }

    /// Hot-path weakening probe: a relaxed atomic load (the value is set
    /// once, before exploration starts), never a lock.
    fn weakened_by(&self, weakening: TestWeakening) -> bool {
        let encoded = match weakening {
            TestWeakening::SkipRegionScrub => 1,
            TestWeakening::SkipCoreClean => 2,
            TestWeakening::SkipJournalReplay => 3,
            TestWeakening::SkipQuarantine => 4,
        };
        self.weakening.load(Ordering::Relaxed) == encoded
    }

    // ------------------------------------------------------------------
    // locking helpers (see the hierarchy table in `crate::lockorder`)
    // ------------------------------------------------------------------

    fn with_global_lock<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.config.locking {
            LockingMode::Global => {
                let _guard = self.global_lock.lock();
                f()
            }
            LockingMode::FineGrained => f(),
        }
    }

    fn lock_enclave(&self, eid: EnclaveId) -> SmResult<EnclaveHandle> {
        self.state
            .enclaves
            .read()
            .get(&eid)
            .cloned()
            .ok_or(SmError::UnknownEnclave(eid))
    }

    fn lock_thread(&self, tid: ThreadId) -> SmResult<ThreadHandle> {
        self.state
            .threads
            .read()
            .get(&tid)
            .cloned()
            .ok_or(SmError::UnknownThread(tid))
    }

    /// Acquires an object lock following the configured locking discipline:
    /// try-lock with [`SmError::ConcurrentCall`] on conflict in FineGrained
    /// mode, a blocking acquire in Global mode (the giant lock has already
    /// serialized the call, so the block can never be a wait).
    fn try_lock<'a, T>(&self, mutex: &'a OrderedMutex<T>) -> SmResult<OrderedMutexGuard<'a, T>> {
        match self.config.locking {
            LockingMode::FineGrained => mutex.try_lock().ok_or_else(|| {
                self.stats.concurrency_failures.fetch_add(1, Ordering::Relaxed);
                SmError::ConcurrentCall
            }),
            LockingMode::Global => Ok(mutex.lock()),
        }
    }

    /// Acquires the shard holding `id` under the locking discipline.
    fn try_lock_shard(&self, id: ResourceId) -> SmResult<OrderedMutexGuard<'_, ResourceMap>> {
        self.try_lock(self.state.resources.shard(id))
    }

    /// Acquires the shards `mask` names, in ascending shard (= lock-rank)
    /// order, under the locking discipline; slot `k` of the result holds
    /// shard `k`'s guard if `mask` names it. In FineGrained mode any
    /// conflict releases everything acquired so far and reports
    /// [`SmError::ConcurrentCall`]; because every multi-shard transaction
    /// acquires in the same ascending order, the holder of the lowest
    /// contended shard always makes progress (no livelock).
    fn try_lock_shards(
        &self,
        mask: ShardMask,
    ) -> SmResult<[Option<ShardGuard<'_>>; RESOURCE_SHARDS]> {
        let mut guards = std::array::from_fn(|_| None);
        for (k, shard) in self.state.resources.shards().iter().enumerate() {
            if mask & (1 << k) != 0 {
                guards[k] = Some(self.try_lock(shard)?);
            }
        }
        Ok(guards)
    }

    /// The cached geometry record for `region`.
    fn region_info(&self, region: RegionId) -> SmResult<RegionInfo> {
        self.region_infos
            .iter()
            .find(|r| r.id == region)
            .copied()
            .ok_or(SmError::UnknownResource)
    }

    // ------------------------------------------------------------------
    // audit-generation bookkeeping
    // ------------------------------------------------------------------

    /// Marks an enclave's audit-visible metadata as changed. Must be called
    /// (with the enclave's lock held) by every path mutating a field that
    /// [`EnclaveAudit`] reflects: lifecycle, measurement, thread list,
    /// running-thread count.
    fn touch_enclave(&self, meta: &mut EnclaveMeta) {
        meta.audit_generation = self
            .state
            .enclaves_generation
            .fetch_add(1, Ordering::Relaxed)
            + 1;
    }

    /// Marks the enclave *table* (insert/remove) as changed.
    fn touch_enclave_table(&self) {
        self.state.enclaves_generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the thread table or any thread state machine as changed.
    fn touch_threads(&self) {
        self.state.threads_generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the core-occupancy table as changed.
    fn touch_occupancy(&self) {
        self.state.occupancy_generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the mail fabric (queues or quota ledger) as changed.
    fn touch_mail(&self) {
        self.state.mail_generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks the resource map as changed (any committed Fig. 2 transition).
    fn touch_resources(&self) {
        self.state.resources.touch();
    }

    /// Marks the quarantine set as changed.
    fn touch_quarantine(&self) {
        self.state.quarantine_generation.fetch_add(1, Ordering::Relaxed);
    }

    // ------------------------------------------------------------------
    // mutation journal + quarantine (crash consistency)
    // ------------------------------------------------------------------

    /// Records an intent entry for a multi-step mutation. Call after
    /// validation, before the first mutation of shared state; pair with
    /// [`Self::journal_complete`] on *every* return path — only a crash may
    /// leave the entry pending.
    fn journal_record(&self, entry: JournalEntry) -> u64 {
        // atomic: crossed before the intent is appended — a crash here means
        // the operation never started and there is nothing to recover.
        let _ = fault_point!(self.machine.fault_injector(), "journal.record");
        let seq = self.state.journal_seq.fetch_add(1, Ordering::Relaxed);
        self.state.journal.lock().push((seq, entry));
        seq
    }

    /// A named crash window between two phases of a journaled mutation;
    /// recovery redoes the remainder from the pending entry.
    fn journal_step(&self) {
        // journal: pure crossing — a crash here is repaired by replaying the
        // pending intent entry.
        let _ = fault_point!(self.machine.fault_injector(), "journal.step");
    }

    /// Retires a journal entry after the mutation committed (or was cleanly
    /// rolled back by an error path).
    fn journal_complete(&self, seq: u64) {
        // journal: crossed before the entry is retired — a crash here leaves
        // the entry pending and recovery redoes the idempotent completion.
        let _ = fault_point!(self.machine.fault_injector(), "journal.complete");
        self.state.journal.lock().retain(|(s, _)| *s != seq);
    }

    /// Number of journal entries still pending. Zero at every quiescent
    /// point on an honest monitor: a non-zero count after
    /// [`SecurityMonitor::recover`] means crash residue survived (the
    /// explorer's `crash-residue` invariant).
    pub fn journal_pending(&self) -> usize {
        self.state.journal.lock().len()
    }

    /// The regions currently quarantined (audit-visible; sorted).
    pub fn quarantined_regions(&self) -> Vec<RegionId> {
        self.state.quarantine.lock().iter().copied().collect()
    }

    /// Parks `region` in the quarantine set (stays `Blocked`; `clean` and
    /// `grant` refuse it with [`SmError::Again`] until
    /// [`SecurityMonitor::recover`] scrubs it successfully). Legal with the
    /// backend guard held (`QUARANTINE` ranks above `BACKEND`).
    fn quarantine_region(&self, region: RegionId) {
        if self.state.quarantine.lock().insert(region) {
            self.touch_quarantine();
        }
    }

    fn is_quarantined(&self, region: RegionId) -> bool {
        self.state.quarantine.lock().contains(&region)
    }

    /// Crash/fault recovery: replays every pending journal entry (idempotent
    /// redo or undo), then retries the scrub of every quarantined region.
    ///
    /// Safe to call on a clean monitor (a no-op leaving state bit-identical)
    /// and safe to call repeatedly. Intended to run at a quiescent point —
    /// after a simulated crash unwound the faulting call — so it uses plain
    /// blocking locks, not the API try-lock discipline.
    pub fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        if !self.weakened_by(TestWeakening::SkipJournalReplay) {
            // Entries replay oldest-first: a later intent may depend on an
            // earlier one's repair (e.g. a grant after a crashed delete).
            let pending: Vec<(u64, JournalEntry)> =
                std::mem::take(&mut *self.state.journal.lock());
            for (_, entry) in pending {
                self.replay_entry(entry);
                report.replayed += 1;
            }
        }
        let quarantined: Vec<RegionId> =
            self.state.quarantine.lock().iter().copied().collect();
        for region in quarantined {
            if self.retry_quarantined_scrub(region) {
                report.quarantine_cleared += 1;
            }
        }
        report.quarantine_remaining = self.state.quarantine.lock().len();
        report
    }

    /// Replays one pending intent. Every arm is idempotent: it inspects how
    /// far the crashed mutation got and completes (or reverts) only the
    /// missing part.
    fn replay_entry(&self, entry: JournalEntry) {
        match entry {
            JournalEntry::CreateEnclave { eid, regions } => {
                if self.state.enclaves.read().contains_key(&eid) {
                    // The table insert is the commit point; past it the
                    // create fully happened and there is nothing to undo.
                    return;
                }
                // Undo: revoke whatever backend assignments landed. The
                // regions go to the *SM*, not the OS — the never-published
                // owner's memory must stay unwritable until legitimately
                // re-granted, or a later grant would hand a new enclave a
                // region the OS could have dirtied meanwhile.
                for region in &regions {
                    self.park_on_sm(*region);
                }
                let mut repaired = false;
                for region in regions {
                    let id = ResourceId::Region(region);
                    let mut shard = self.state.resources.shard(id).lock();
                    // The regions were validated Available before the crash
                    // window opened, and the map transition (phase 2) is
                    // fault-point-atomic with the table insert — so this is
                    // a defensive restore, not a state change, unless a
                    // straggler mutated the shard during unwind.
                    if shard.state(id).ok() != Some(ResourceState::Available)
                        && shard.recover_force(id, ResourceState::Available).is_ok()
                    {
                        repaired = true;
                    }
                }
                if repaired {
                    self.touch_resources();
                }
            }
            JournalEntry::DeleteEnclave { eid } => self.redo_delete(eid),
            JournalEntry::Grant { id, new_owner } => {
                let Ok(state) = self.state.resources.state(id) else {
                    return;
                };
                if state == ResourceState::Owned(new_owner) {
                    // Backend programming and the map transition are
                    // fault-point-atomic, so an owned map entry means the
                    // grant fully committed.
                    return;
                }
                if state == ResourceState::Available {
                    if let ResourceId::Region(region) = id {
                        // Undo: the backend may hold a half-applied
                        // assignment; park the region with the SM so nobody
                        // can touch it until the grant is retried.
                        self.park_on_sm(region);
                    }
                }
            }
            // A crashed clean leaves the region Blocked with (at worst) a
            // partial scrub — exactly what a retried clean_resource repairs
            // from scratch. A batch marker carries no state of its own.
            JournalEntry::Clean { .. } | JournalEntry::Batch => {}
        }
    }

    /// Undo step of a crashed create or grant: parks `region` on the SM with
    /// a one-op backend batch, quarantining it if the backend refuses.
    fn park_on_sm(&self, region: RegionId) {
        let parked = self.backend.lock().apply_batch(&[RegionOp::Assign {
            region,
            domain: DomainKind::SecurityMonitor,
            perms: MemPerms::RWX,
        }]);
        if parked.is_err() {
            self.quarantine_region(region);
        }
    }

    /// Idempotent redo of a crashed `delete_enclave`, replayed from the
    /// journal: the API path's own teardown steps, minus validation (the
    /// crashed call already passed it), re-blocking through the enclave's
    /// own shard mask. Every step is a no-op where the crashed call already
    /// got past it; recovery runs at a quiescent point, so the steps'
    /// blocking locks never wait. The table removal is the delete's last
    /// step, so an enclave already gone from the table has nothing left to
    /// redo.
    fn redo_delete(&self, eid: EnclaveId) {
        let Some(enclave) = self.state.enclaves.read().get(&eid).cloned() else {
            return;
        };
        let (tids, mask) = {
            let meta = enclave.lock();
            (meta.threads.clone(), meta.shard_mask)
        };
        self.reclaim_thread_slots(tids);
        for (k, shard) in self.state.resources.shards().iter().enumerate() {
            if mask & (1 << k) != 0 {
                Self::block_owned(&mut shard.lock(), eid);
            }
        }
        self.touch_resources();
        self.purge_mail_fabric(eid, &enclave);
        self.remove_enclave(eid);
    }

    /// Retries the full scrub of a quarantined region; on success the region
    /// leaves quarantine but *stays Blocked* — recovery repairs, it does not
    /// perform Fig. 2 transitions the OS never asked for. Returns whether
    /// the region was released.
    fn retry_quarantined_scrub(&self, region: RegionId) -> bool {
        let Ok(info) = self.region_info(region) else {
            return false;
        };
        if self.scrub_region(&info).is_err() {
            return false;
        }
        if self.state.quarantine.lock().remove(&region) {
            self.touch_quarantine();
        }
        true
    }

    /// The clean-before-reuse scrub of one region, shared by
    /// `clean_resource` and quarantine recovery: zero every page, then evict
    /// the region from the shared cache and every TLB. Returns the cycles
    /// spent.
    ///
    /// The page writes run outside the backend lock: they take the
    /// machine's own DRAM write lock, once for the whole region, and need no
    /// isolation-primitive access.
    fn scrub_region(&self, info: &RegionInfo) -> SmResult<Cycles> {
        let mut cost = Cycles::ZERO;
        if !self.weakened_by(TestWeakening::SkipRegionScrub) {
            let mut zeroed = ZeroCharge {
                machine: &self.machine,
                pages: 0,
            };
            self.machine.with_memory_mut(|mem| {
                for page in 0..info.page_count() {
                    // journal: one crossing per scrubbed page; a failure
                    // leaves the region Blocked and quarantined until a
                    // recover() pass scrubs it whole.
                    if fault_point!(self.machine.fault_injector(), "monitor.scrub-page")
                        == Crossing::FailOp
                    {
                        return Err(SmError::Again);
                    }
                    mem.zero_page(info.base.offset(page * PAGE_SIZE as u64))
                        .map_err(|_| SmError::Memory)?;
                    zeroed.pages += 1;
                }
                Ok(())
            })?;
            cost += self.machine.cost_model().zero_page.scaled(zeroed.pages);
        }
        {
            let mut backend = self.backend.lock();
            cost += backend.flush_region_cache(info.id)?;
            cost += backend.tlb_shootdown(info.id)?;
        }
        self.machine.tlb_shootdown(info.base, info.len);
        Ok(cost)
    }

    // ------------------------------------------------------------------
    // enclave teardown steps (shared by delete_enclave and its redo)
    // ------------------------------------------------------------------

    /// Reclaims the thread slots in `tids`: removes each from the thread
    /// table and returns its id to the allocator (per-hart cache first,
    /// spilling to the pool). Only ids removed *here* are freed — an id
    /// already gone was freed by whoever removed it, and freeing it again
    /// would put one id in two harts' caches.
    fn reclaim_thread_slots(&self, tids: Vec<ThreadId>) {
        let removed: Vec<ThreadId> = {
            let mut threads = self.state.threads.write();
            tids.into_iter()
                .filter(|tid| threads.remove(tid).is_some())
                .collect()
        };
        for tid in removed {
            self.state.tids.free(tid);
        }
        self.touch_threads();
    }

    /// Blocks every resource in `shard` that `eid` owns. Resources already
    /// blocked under this id are left alone: enclave ids are physical
    /// addresses, so after a delete whose blocked regions the OS never
    /// cleaned, a new enclave over the same base region reuses the id and
    /// inherits the stale flags. The goal state (flagged for release) is
    /// already reached there, and skipping keeps the sweep total — failing
    /// halfway would strand a live enclave with blocked windows (found by
    /// the adversarial explorer).
    fn block_owned(shard: &mut ResourceMap, eid: EnclaveId) {
        let owned = ResourceState::Owned(DomainKind::Enclave(eid));
        let ids: Vec<ResourceId> = shard
            .iter()
            .filter(|(_, state)| *state == owned)
            .map(|(id, _)| id)
            .collect();
        for id in ids {
            shard
                .block(DomainKind::SecurityMonitor, id)
                .expect("the SM may block any owned resource");
        }
    }

    /// Scrubs every trace of the dying enclave's identity from the mail
    /// fabric. Enclave ids are recycled physical addresses, so (a) a queued
    /// message still carrying this id must not survive into the next
    /// incarnation's identity (purging also resets the dead sender's quota),
    /// and (b) an accept filter naming this id must be disarmed — otherwise
    /// the next enclave recycled onto the id would inherit a delivery
    /// capability extended to its previous life (found by the adversarial
    /// explorer: a rebuilt signing enclave matched a victim's stale filter
    /// and its attestation reply was mis-routed). Undelivered mail in the
    /// dying enclave's own queues is destroyed with it and the senders'
    /// quotas are refunded. The delete marked the enclave
    /// [`EnclaveLifecycle::Deleted`] before this runs and `send_mail`
    /// refuses a deleted recipient under its guard, so the queues read here
    /// are final: no send can land after them unrefunded.
    ///
    /// Lock order matches the send/get paths (enclave meta before ledger,
    /// never both ways): the purge walk holds the table and one meta at a
    /// time with no ledger held, and the ledger is settled afterwards on its
    /// own.
    fn purge_mail_fabric(&self, eid: EnclaveId, enclave: &EnclaveHandle) {
        let mut purged_any = false;
        {
            let table = self.state.enclaves.read();
            for (other_id, other) in table.iter() {
                if *other_id == eid {
                    continue;
                }
                let mut other_meta = other.lock();
                let purged: usize = other_meta
                    .mailboxes
                    .iter_mut()
                    .map(|mb| mb.purge_sender(eid.as_u64()))
                    .sum();
                for mb in other_meta.mailboxes.iter_mut() {
                    mb.disarm_if_expecting(eid.as_u64());
                }
                if purged > 0 {
                    purged_any = true;
                    self.touch_enclave(&mut other_meta);
                }
            }
        }
        let inbound_refunds: Vec<u64> = enclave
            .lock()
            .mailboxes
            .iter()
            .flat_map(|mb| mb.queued())
            .map(|m| m.sender_id)
            .collect();
        let mut ledger = self.state.mail_ledger.lock();
        let mail_changed =
            !inbound_refunds.is_empty() || purged_any || ledger.contains_key(&eid.as_u64());
        for sender in inbound_refunds {
            Self::refund_mail_sender(&mut ledger, sender);
        }
        ledger.remove(&eid.as_u64());
        if mail_changed {
            self.touch_mail();
        }
    }

    /// Removes `eid` from the enclave table, releasing its admission slot.
    fn remove_enclave(&self, eid: EnclaveId) {
        self.state.enclaves.write().remove(&eid);
        self.state.live_enclaves.fetch_sub(1, Ordering::Relaxed);
        self.touch_enclave_table();
    }

    /// Refunds one undelivered-message unit to `sender_id` in the quota
    /// ledger. Delivery and teardown purges both go through here; the
    /// zero-count entry is removed so the ledger (and its audit snapshot)
    /// only ever lists senders with mail actually in flight — the shape the
    /// conservation invariant compares against.
    fn refund_mail_sender(ledger: &mut BTreeMap<u64, u64>, sender_id: u64) {
        if let Some(count) = ledger.get_mut(&sender_id) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                ledger.remove(&sender_id);
            }
        }
    }

    fn record_call<T>(&self, result: SmResult<T>) -> SmResult<T> {
        match &result {
            Ok(_) => {
                self.stats.api_calls.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.stats.api_rejections.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    // ------------------------------------------------------------------
    // diagnostics and SM-internal operations (not part of the call surface)
    // ------------------------------------------------------------------

    /// Returns the measurement of an initialized enclave (not secret; used by
    /// the OS to report identities and by local attestation tests).
    ///
    /// # Errors
    ///
    /// Fails if the enclave does not exist or is not initialized.
    pub fn enclave_measurement(&self, eid: EnclaveId) -> SmResult<Measurement> {
        let enclave = self.lock_enclave(eid)?;
        let meta = enclave.lock();
        meta.measurement()
    }

    /// Returns the ids of all live enclaves (diagnostic; shared read lock).
    pub fn enclaves(&self) -> Vec<EnclaveId> {
        self.state.enclaves.read().keys().copied().collect()
    }

    /// Takes a consistent [`AuditSnapshot`] of the monitor's
    /// security-relevant state for invariant checking.
    ///
    /// The snapshot uses plain (blocking) locks rather than the API's
    /// try-lock discipline, so taking one between API calls never perturbs
    /// the `ConcurrentCall` behaviour the calls themselves observe.
    ///
    /// Snapshots are built incrementally from a generation-counted cache:
    /// only the state components mutated since the previous audit are
    /// re-collected, and unchanged enclave records are shared by `Arc`
    /// rather than re-cloned. [`SecurityMonitor::audit_full`] bypasses the
    /// cache; the two must always agree (property-tested by the explorer).
    pub fn audit(&self) -> AuditSnapshot {
        let mut cache = self.audit_cache.lock();
        let mut generations = AuditGenerations::default();

        // Every generation is read *before* the state it covers, so a
        // concurrent mutation can only make the cached data newer than the
        // recorded generation — the next audit then conservatively rebuilds.
        let resources_gen = self.state.resources.generation();
        if cache.resources_gen != resources_gen {
            cache.resources = Arc::new(self.state.resources.snapshot());
            cache.resources_gen = resources_gen;
        }
        generations.resources = cache.resources_gen;

        let enclaves_gen = self.state.enclaves_generation.load(Ordering::Relaxed);
        if cache.enclaves_gen != enclaves_gen {
            let table = self.state.enclaves.read();
            cache.enclaves.retain(|eid, _| table.contains_key(eid));
            for (eid, enclave) in table.iter() {
                let meta = enclave.lock();
                let fresh = match cache.enclaves.get(eid) {
                    Some((gen, _)) if *gen == meta.audit_generation => None,
                    _ => Some((meta.audit_generation, Arc::new(Self::enclave_audit(&meta)))),
                };
                if let Some(entry) = fresh {
                    cache.enclaves.insert(*eid, entry);
                }
            }
            cache.enclaves_vec = cache.enclaves.values().map(|(_, a)| Arc::clone(a)).collect();
            cache.enclaves_gen = enclaves_gen;
        }
        generations.enclaves = cache.enclaves_gen;

        let occupancy_gen = self.state.occupancy_generation.load(Ordering::Relaxed);
        if cache.occupancy_gen != occupancy_gen {
            cache.core_occupancy = Arc::new(
                self.state
                    .core_occupancy
                    .read()
                    .iter()
                    .map(|(core, tid)| (*core, *tid))
                    .collect(),
            );
            cache.occupancy_gen = occupancy_gen;
        }
        generations.occupancy = cache.occupancy_gen;
        generations.threads = self.state.threads_generation.load(Ordering::Relaxed);

        let mail_gen = self.state.mail_generation.load(Ordering::Relaxed);
        if cache.mail_gen != mail_gen {
            cache.mail_outstanding = Arc::new(
                self.state
                    .mail_ledger
                    .lock()
                    .iter()
                    .map(|(sender, count)| (*sender, *count))
                    .collect(),
            );
            cache.mail_gen = mail_gen;
        }
        generations.mail = cache.mail_gen;

        let quarantine_gen = self.state.quarantine_generation.load(Ordering::Relaxed);
        if cache.quarantine_gen != quarantine_gen {
            cache.quarantine = Arc::new(self.quarantined_regions());
            cache.quarantine_gen = quarantine_gen;
        }
        generations.quarantine = cache.quarantine_gen;

        AuditSnapshot {
            resources: Arc::clone(&cache.resources),
            enclaves: cache.enclaves_vec.clone(),
            core_occupancy: Arc::clone(&cache.core_occupancy),
            mail_outstanding: Arc::clone(&cache.mail_outstanding),
            quarantine: Arc::clone(&cache.quarantine),
            generations,
        }
    }

    /// Builds an [`AuditSnapshot`] from scratch, bypassing the incremental
    /// cache — the reference implementation the cached [`SecurityMonitor::audit`]
    /// is property-tested against (and the baseline of the audit ablation
    /// bench).
    pub fn audit_full(&self) -> AuditSnapshot {
        let resources_gen = self.state.resources.generation();
        let resources = Arc::new(self.state.resources.snapshot());
        let enclaves_gen = self.state.enclaves_generation.load(Ordering::Relaxed);
        let enclaves = self
            .state
            .enclaves
            .read()
            .values()
            .map(|enclave| Arc::new(Self::enclave_audit(&enclave.lock())))
            .collect();
        let occupancy_gen = self.state.occupancy_generation.load(Ordering::Relaxed);
        let core_occupancy = Arc::new(
            self.state
                .core_occupancy
                .read()
                .iter()
                .map(|(core, tid)| (*core, *tid))
                .collect::<Vec<_>>(),
        );
        let mail_gen = self.state.mail_generation.load(Ordering::Relaxed);
        let mail_outstanding = Arc::new(
            self.state
                .mail_ledger
                .lock()
                .iter()
                .map(|(sender, count)| (*sender, *count))
                .collect::<Vec<_>>(),
        );
        let quarantine_gen = self.state.quarantine_generation.load(Ordering::Relaxed);
        let quarantine = Arc::new(self.quarantined_regions());
        AuditSnapshot {
            resources,
            enclaves,
            core_occupancy,
            mail_outstanding,
            quarantine,
            generations: AuditGenerations {
                resources: resources_gen,
                enclaves: enclaves_gen,
                threads: self.state.threads_generation.load(Ordering::Relaxed),
                occupancy: occupancy_gen,
                mail: mail_gen,
                quarantine: quarantine_gen,
            },
        }
    }

    fn enclave_audit(meta: &EnclaveMeta) -> EnclaveAudit {
        EnclaveAudit {
            id: meta.id,
            initialized: meta.lifecycle == EnclaveLifecycle::Initialized,
            regions: meta.windows.iter().map(|w| w.region).collect(),
            measurement: meta.measurement,
            running_threads: meta.running_threads,
            threads: meta.threads.clone(),
            mail_queued: meta
                .mailboxes
                .iter()
                .flat_map(|mb| mb.queued())
                .map(|m| (m.sender_id, m.message.len() as u32))
                .collect(),
        }
    }

    /// Returns the current state of a resource (diagnostic / test helper;
    /// locks only the resource's shard).
    ///
    /// # Errors
    ///
    /// Fails if the resource is unknown.
    pub fn resource_state(&self, id: ResourceId) -> SmResult<ResourceState> {
        self.state.resources.state(id)
    }

    /// Returns the thread currently occupying `core`, if any (shared read).
    pub fn thread_on_core(&self, core: CoreId) -> Option<ThreadId> {
        self.state.core_occupancy.read().get(&core).copied()
    }

    /// Returns a thread's metadata snapshot (test/diagnostic helper).
    ///
    /// This clones the whole record *including the saved AEX hart state*;
    /// callers that only need the state machine or a single field should use
    /// the cheap accessors ([`SecurityMonitor::thread_state`],
    /// [`SecurityMonitor::thread_fault_handler`],
    /// [`SecurityMonitor::thread_ids`]).
    ///
    /// # Errors
    ///
    /// Fails if the thread does not exist.
    pub fn thread_info(&self, tid: ThreadId) -> SmResult<ThreadMeta> {
        Ok(self.lock_thread(tid)?.lock().clone())
    }

    /// Returns the ids of all live threads (diagnostic; no metadata cloned).
    pub fn thread_ids(&self) -> Vec<ThreadId> {
        self.state.threads.read().keys().copied().collect()
    }

    /// Returns a thread's current state machine position without cloning the
    /// full metadata record.
    ///
    /// # Errors
    ///
    /// Fails if the thread does not exist.
    pub fn thread_state(&self, tid: ThreadId) -> SmResult<ThreadState> {
        Ok(self.lock_thread(tid)?.lock().state)
    }

    /// Returns a thread's registered fault-handler entry point, if any,
    /// without cloning the full metadata record (the event dispatcher asks
    /// this on every enclave-handleable fault).
    ///
    /// # Errors
    ///
    /// Fails if the thread does not exist.
    pub fn thread_fault_handler(&self, tid: ThreadId) -> SmResult<Option<u64>> {
        Ok(self.lock_thread(tid)?.lock().fault_handler_pc)
    }

    /// Asynchronous enclave exit: invoked by the event dispatcher when an
    /// interrupt or unhandled fault arrives while an enclave occupies `core`.
    /// Saves the thread's state, cleans the core and returns it to the OS.
    ///
    /// This is an SM-internal operation, not an API call: no caller session
    /// exists because the *event*, not a request, triggers it.
    ///
    /// # Errors
    ///
    /// Fails if no enclave thread occupies the core.
    pub fn asynchronous_enclave_exit(&self, core: CoreId) -> SmResult<Cycles> {
        let result = self.with_global_lock(|| {
            let tid = *self
                .state
                .core_occupancy
                .read()
                .get(&core)
                .ok_or(SmError::InvalidState {
                    reason: "no enclave thread runs on this core",
                })?;
            let thread = self.lock_thread(tid)?;
            let eid = {
                let mut t = self.try_lock(&thread)?;
                // Save the enclave's architected state before anything is
                // wiped.
                let snapshot = self.machine.hart(core).snapshot();
                t.aex_state = Some(snapshot);
                t.aex_pending = true;
                let (eid, _) = t.stop_running()?;
                self.touch_threads();
                self.state.core_occupancy.write().remove(&core);
                self.touch_occupancy();
                eid
                // The thread guard drops here: enclave metadata sits below
                // thread metadata in the lock hierarchy, so the owner's
                // running count is settled after the hand-off is published.
            };
            if let Ok(enclave) = self.lock_enclave(eid) {
                let mut meta = enclave.lock();
                meta.running_threads = meta.running_threads.saturating_sub(1);
                self.touch_enclave(&mut meta);
            }
            self.clean_core_for_handoff(core)
        });
        self.record_call(result)
    }

    fn clean_core_for_handoff(&self, core: CoreId) -> SmResult<Cycles> {
        let mut cost = Cycles::ZERO;
        if !self.weakened_by(TestWeakening::SkipCoreClean) {
            cost += self.machine.clean_core(core)?;
        }
        {
            let mut backend = self.backend.lock();
            cost += backend.flush(core, FlushKind::CoreState)?;
            cost += backend.flush(core, FlushKind::PrivateCaches)?;
        }
        self.machine
            .install_context(core, DomainKind::Untrusted, PrivilegeLevel::Supervisor, None, 0);
        self.stats
            .cleaning_cycles
            .fetch_add(cost.count(), Ordering::Relaxed);
        Ok(cost)
    }

    /// Returns the SM certificate as a structured value (used by the signing
    /// enclave and the verifier; [`SmApi::get_field`] provides the byte
    /// encoding for the register-level ABI).
    pub fn sm_certificate(&self) -> crate::attestation::Certificate {
        self.identity.sm_certificate.clone()
    }
}

impl SmApi for SecurityMonitor {
    // ------------------------------------------------------------------
    // enclave lifecycle (Fig. 3)
    // ------------------------------------------------------------------

    fn create_enclave(
        &self,
        session: CallerSession,
        evrange_base: VirtAddr,
        evrange_len: u64,
        regions: &[RegionId],
    ) -> SmResult<EnclaveId> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            if !evrange_base.is_page_aligned()
                || evrange_len == 0
                || !evrange_len.is_multiple_of(PAGE_SIZE as u64)
            {
                return Err(SmError::InvalidArgument {
                    reason: "evrange must be page aligned and non-empty",
                });
            }
            if regions.is_empty() {
                return Err(SmError::InvalidArgument {
                    reason: "at least one memory region is required",
                });
            }
            // Reserve a metadata slot atomically: a plain load-then-check
            // would let two concurrent creations both pass at
            // `MAX_ENCLAVES - 1` and overshoot the cap. The reservation is
            // released by the guard on every failure path below and
            // consumed (defused) by the table insert.
            if self
                .state
                .live_enclaves
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    (n < MAX_ENCLAVES as u64).then_some(n + 1)
                })
                .is_err()
            {
                return Err(SmError::OutOfResources {
                    resource: "enclave metadata slots",
                });
            }
            let mut slot = SlotReservation {
                counter: &self.state.live_enclaves,
                committed: false,
            };

            // Lock the shards holding the requested regions, in ascending
            // shard order (the lock hierarchy); disjoint creations take
            // disjoint locks and proceed in parallel.
            let mut guards = self.try_lock_shards(
                regions
                    .iter()
                    .fold(0, |mask, r| mask | shard_bit(ResourceId::Region(*r))),
            )?;
            // All regions must be grantable before anything is mutated.
            for region in regions {
                let id = ResourceId::Region(*region);
                guards[shard_of(id)]
                    .as_ref()
                    .expect("shard locked above")
                    .check_grant(DomainKind::SecurityMonitor, id)?;
            }

            // Geometry comes from the construction-time cache, not the
            // backend lock: region layout is immutable platform fact.
            let mut windows: Vec<PhysWindow> = Vec::with_capacity(regions.len());
            for region in regions {
                let info = self.region_info(*region)?;
                windows.push(PhysWindow {
                    region: *region,
                    base: info.base,
                    len: info.len,
                });
            }
            windows.sort_by_key(|w| w.base);
            let eid = EnclaveId::new(windows[0].base.as_u64());
            if self.state.enclaves.read().contains_key(&eid) {
                return Err(SmError::InvalidState {
                    reason: "an enclave already uses this memory",
                });
            }

            // Intent entry: recorded after validation, before the first
            // mutation. Every crash window below (the backend fault points)
            // is covered — recovery undoes a create whose table insert never
            // happened. Retired on both the commit and the rollback path;
            // only a crash leaves it pending.
            let seq = self.journal_record(JournalEntry::CreateEnclave {
                eid,
                regions: regions.to_vec(),
            });
            let committed = (|| -> SmResult<()> {
                // Commit phase 1: program the isolation primitive, inside one
                // batched backend critical section — every window's assignment
                // and DMA filter flushes in a single `apply_batch`, so one
                // TLB-shootdown round amortizes the whole grant set. The batch
                // is all-or-nothing: the platform validates capacity and
                // geometry for the entire batch (Keystone PMP exhaustion
                // included) *before* mutating anything, which is what retired
                // the per-window rollback loop that used to live here. The
                // shard guards stay held across it, so a concurrent
                // transaction cannot re-grant a region out from under a
                // rejected batch.
                {
                    let mut ops: Vec<RegionOp> = Vec::with_capacity(windows.len() * 2);
                    for window in &windows {
                        ops.push(RegionOp::Assign {
                            region: window.region,
                            domain: DomainKind::Enclave(eid),
                            perms: MemPerms::RWX,
                        });
                        ops.push(RegionOp::SetDmaBlocked {
                            region: window.region,
                            blocked: true,
                        });
                    }
                    let mut backend = self.backend.lock();
                    let cost = backend.apply_batch(&ops)?;
                    self.machine.charge(cost);
                    // The backend lock drops here — phase 2 is pure metadata.
                }
                // Commit phase 2: ownership transfer — every region was
                // validated *Available* above (and its shard is still locked),
                // so the transitions cannot fail.
                for region in regions {
                    let id = ResourceId::Region(*region);
                    guards[shard_of(id)]
                        .as_mut()
                        .expect("shard locked above")
                        .grant(DomainKind::SecurityMonitor, id, DomainKind::Enclave(eid))?;
                }
                self.touch_resources();

                let ctx = MeasurementContext::start(
                    &self.identity.sm_measurement,
                    evrange_base,
                    evrange_len,
                );
                let mut meta = EnclaveMeta::new(eid, evrange_base, evrange_len, windows, ctx);
                // A fresh generation from the global counter: enclave ids are
                // physical addresses and get reused after delete, so a recreated
                // enclave must never alias a stale cached audit record.
                self.touch_enclave(&mut meta);
                self.state
                    .enclaves
                    .write()
                    .insert(eid, Arc::new(OrderedMutex::new(rank::ENCLAVE_META, meta)));
                // The insert consumes the slot reserved at admission.
                slot.committed = true;
                self.touch_enclave_table();
                Ok(())
            })();
            self.journal_complete(seq);
            committed?;
            Ok(eid)
        }))
    }

    fn allocate_page_table(&self, session: CallerSession, eid: EnclaveId) -> SmResult<PhysAddr> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            let enclave = self.lock_enclave(eid)?;
            let mut meta = self.try_lock(&enclave)?;
            meta.require_loading()?;
            if meta.page_table_root.is_some() {
                return Err(SmError::InvalidState {
                    reason: "page tables already allocated",
                });
            }
            let pages_needed = PageTableBuilder::table_pages_needed(
                meta.evrange_base.page_number(),
                meta.evrange_len / PAGE_SIZE as u64,
            );
            let mut table_pages = Vec::with_capacity(pages_needed as usize);
            for _ in 0..pages_needed {
                let page = meta.alloc_next_page()?;
                self.machine.zero_page(page)?;
                table_pages.push(page);
            }
            let root = table_pages[0];
            meta.page_table_root = Some(root);
            if let Some(ctx) = meta.measurement_ctx.as_mut() {
                for (level, _) in table_pages.iter().enumerate() {
                    ctx.extend_page_table(level.min(255) as u8);
                }
            }
            // The remaining reserved pages back the intermediate tables that
            // `load_page` wires up on demand. Reverse so `pop` hands them out
            // in ascending physical order.
            let mut pool: Vec<PhysAddr> = table_pages[1..].to_vec();
            pool.reverse();
            meta.pt_pool = pool;
            Ok(root)
        }))
    }

    fn load_page(
        &self,
        session: CallerSession,
        eid: EnclaveId,
        vaddr: VirtAddr,
        src: Tainted<PhysAddr>,
        perms: MemPerms,
    ) -> SmResult<PhysAddr> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            let enclave = self.lock_enclave(eid)?;
            let mut meta = self.try_lock(&enclave)?;
            meta.require_loading()?;
            // Alignment is proved first (jointly with the virtual address —
            // one shared diagnostic), yielding the intermediate `PageAligned`
            // typestate; the access proof comes later in its historical slot.
            let src = match self.sanitizer().check_page_aligned(src) {
                Ok(aligned) if vaddr.is_page_aligned() => aligned,
                _ => {
                    return Err(SmError::InvalidArgument {
                        reason: "addresses must be page aligned",
                    });
                }
            };
            if !meta.in_evrange(vaddr) {
                return Err(SmError::InvalidArgument {
                    reason: "virtual address outside evrange",
                });
            }
            if perms.is_none() {
                return Err(SmError::InvalidArgument {
                    reason: "a loaded page needs at least one permission",
                });
            }
            let root = meta.page_table_root.ok_or(SmError::InvalidState {
                reason: "page tables must be allocated before loading pages",
            })?;
            // The source must be memory the OS could legitimately read.
            let src = self
                .sanitizer()
                .check_page::<ReadAccess>(DomainKind::Untrusted, src)
                .map_err(|_| SmError::Unauthorized)?;
            meta.record_mapping(vaddr)?;
            let dst = meta.alloc_next_page()?;

            // Copy contents and build the mapping inside enclave memory.
            let mut contents = vec![0u8; PAGE_SIZE];
            self.machine.read_page(&src, &mut contents)?;
            self.machine.phys_write(dst, &contents)?;
            self.machine.charge(self.machine.cost_model().zero_page);

            let mut pt_pool = std::mem::take(&mut meta.pt_pool);
            let map_result = self.machine.with_memory_mut(|mem| {
                let mut builder = PageTableBuilder::new(root);
                builder
                    .map(mem, vaddr.page_number(), dst.page_number(), perms, || pt_pool.pop())
                    .map_err(|_| SmError::InvalidState {
                        reason: "page-table pages exhausted for this mapping",
                    })
            });
            meta.pt_pool = pt_pool;
            map_result?;

            if let Some(ctx) = meta.measurement_ctx.as_mut() {
                ctx.extend_page(vaddr, &contents);
                self.machine
                    .charge(self.machine.cost_model().hash_block.scaled((PAGE_SIZE / 64) as u64));
            }
            Ok(dst)
        }))
    }

    fn load_thread(
        &self,
        session: CallerSession,
        eid: EnclaveId,
        entry_pc: u64,
        fault_handler_pc: Option<u64>,
    ) -> SmResult<ThreadId> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            let enclave = self.lock_enclave(eid)?;
            let mut meta = self.try_lock(&enclave)?;
            meta.require_loading()?;
            // Admission check and insert under one write lock: a dropped
            // read guard between them would let two concurrent loads both
            // pass at `MAX_THREADS - 1`.
            let tid = {
                let mut threads = self.state.threads.write();
                if threads.len() >= MAX_THREADS {
                    return Err(SmError::OutOfResources {
                        resource: "thread metadata slots",
                    });
                }
                let tid = self.state.tids.alloc();
                let thread = ThreadMeta::loaded(tid, eid, entry_pc, fault_handler_pc);
                threads.insert(tid, Arc::new(OrderedMutex::new(rank::THREAD_META, thread)));
                tid
            };
            self.touch_threads();
            meta.threads.push(tid);
            self.touch_enclave(&mut meta);
            if let Some(ctx) = meta.measurement_ctx.as_mut() {
                ctx.extend_thread(entry_pc, fault_handler_pc);
            }
            Ok(tid)
        }))
    }

    fn init_enclave(&self, session: CallerSession, eid: EnclaveId) -> SmResult<Measurement> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            let enclave = self.lock_enclave(eid)?;
            let mut meta = self.try_lock(&enclave)?;
            meta.require_loading()?;
            if meta.page_table_root.is_none() {
                return Err(SmError::InvalidState {
                    reason: "enclave has no page tables",
                });
            }
            if meta.threads.is_empty() {
                return Err(SmError::InvalidState {
                    reason: "enclave has no threads",
                });
            }
            let ctx = meta.measurement_ctx.take().ok_or(SmError::InvalidState {
                reason: "measurement context missing",
            })?;
            let measurement = ctx.finalize();
            meta.measurement = Some(measurement);
            meta.lifecycle = EnclaveLifecycle::Initialized;
            self.touch_enclave(&mut meta);
            Ok(measurement)
        }))
    }

    fn delete_enclave(&self, session: CallerSession, eid: EnclaveId) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            // The ownership sweep covers only the shards the enclave's mask
            // names (its windows plus every grant it received). Shard ranks
            // sit below the metadata rank, so the mask is read under the
            // guard, the guard released, the shards try-locked ascending
            // and the guard re-taken: a grant that widened the mask in
            // between (it sets the bit while holding both its shard and
            // this guard) turns this attempt into a `ConcurrentCall`, and a
            // grant after the re-take finds the guard held or the enclave
            // `Deleted`. The re-taken guard then spans the running-threads
            // validation through the `Deleted` commit, thread removal and
            // region blocking, so a concurrent `enter_enclave` either
            // started its thread first (and this delete refuses) or finds
            // the enclave `Deleted`.
            let enclave = self.lock_enclave(eid)?;
            let mask = self.try_lock(&enclave)?.shard_mask;
            let mut shards = self.try_lock_shards(mask)?;
            let mut meta = self.try_lock(&enclave)?;
            meta.require_live()?;
            if meta.shard_mask != mask {
                self.stats.concurrency_failures.fetch_add(1, Ordering::Relaxed);
                return Err(SmError::ConcurrentCall);
            }
            if meta.running_threads > 0 {
                return Err(SmError::InvalidState {
                    reason: "enclave has running threads",
                });
            }
            let owned_tids: Vec<ThreadId> = {
                let threads = self.state.threads.read();
                for tid in &meta.threads {
                    if let Some(thread) = threads.get(tid) {
                        if matches!(thread.lock().state, ThreadState::Running { .. }) {
                            return Err(SmError::InvalidState {
                                reason: "enclave has running threads",
                            });
                        }
                    }
                }
                meta.threads.clone()
            };
            // Intent entry: validation passed, mutation begins. The delete's
            // crash windows are the journal crossings themselves (it touches
            // no backend fault points); a pending entry replays through the
            // idempotent redo path.
            let seq = self.journal_record(JournalEntry::DeleteEnclave { eid });
            meta.lifecycle = EnclaveLifecycle::Deleted;
            self.touch_enclave(&mut meta);
            // The enclave's thread metadata lives in SM memory on its
            // behalf; destroying the enclave reclaims those slots.
            self.reclaim_thread_slots(owned_tids);
            // Block all of the enclave's resources (they stay inaccessible
            // to everyone until cleaned).
            for shard in shards.iter_mut().flatten() {
                Self::block_owned(shard, eid);
            }
            // The meta guard drops here; the mail purge below locks *other*
            // enclaves' records at the same rank, so it must run without
            // ours held.
            drop(meta);
            drop(shards);
            self.touch_resources();
            // journal: a crash between the ownership sweep and the
            // mail-fabric teardown is the interesting mid-delete state —
            // redo_delete finishes the purge from the pending entry.
            self.journal_step();
            self.purge_mail_fabric(eid, &enclave);
            self.remove_enclave(eid);
            self.journal_complete(seq);
            Ok(())
        }))
    }

    // ------------------------------------------------------------------
    // resource API (Fig. 2)
    // ------------------------------------------------------------------

    fn block_resource(&self, session: CallerSession, id: ResourceId) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            let mut shard = self.try_lock_shard(id)?;
            shard.block(session.domain(), id)?;
            drop(shard);
            self.touch_resources();
            Ok(())
        }))
    }

    fn clean_resource(&self, session: CallerSession, id: ResourceId) -> SmResult<Cycles> {
        self.record_call(self.with_global_lock(|| {
            let mut shard = self.try_lock_shard(id)?;
            // Validate the transition first (without committing).
            let caller = session.domain();
            shard.check_clean(caller, id)?;
            // A quarantined region refuses cleaning with Again until
            // recover() verifies the backend can scrub it again.
            if let ResourceId::Region(region) = id {
                if self.is_quarantined(region) {
                    return Err(SmError::Again);
                }
            }

            // The shard guard is held across the hardware cleaning, so a
            // concurrent transaction on the same resource keeps failing
            // with `ConcurrentCall` until the scrub has committed — the
            // clean-before-reuse window stays closed on every hart.
            let mut cost = Cycles::ZERO;
            match id {
                ResourceId::Core(core) => {
                    // Core cleans cross no fault points (the flush calls are
                    // core-local, not region ops), so they stay unjournaled:
                    // no crash window can open inside them.
                    cost += self.machine.clean_core(core)?;
                    let mut backend = self.backend.lock();
                    cost += backend.flush(core, FlushKind::CoreState)?;
                    cost += backend.flush(core, FlushKind::PrivateCaches)?;
                }
                ResourceId::Region(region) => {
                    let info = self.region_info(region)?;
                    // Intent entry: the scrub below crosses per-page and
                    // backend fault points. A crashed clean leaves the
                    // region Blocked with a partial scrub, which a retried
                    // clean repairs from scratch — so replay is a no-op, but
                    // the pending entry still marks the crash for audit.
                    let seq = self.journal_record(JournalEntry::Clean { id });
                    match self.scrub_region(&info) {
                        Ok(spent) => cost += spent,
                        // Weakened: swallow the fault and complete the
                        // transition over possibly-dirty memory — the
                        // explorer's FaultStorm attack must catch this.
                        Err(_) if self.weakened_by(TestWeakening::SkipQuarantine) => {}
                        Err(err) => {
                            // Degrade gracefully instead of wedging: the
                            // region stays Blocked, parked in quarantine; the
                            // caller backs off with Again and recover()
                            // retries the scrub once the backend heals.
                            self.quarantine_region(region);
                            self.journal_complete(seq);
                            return Err(err);
                        }
                    }
                    self.stats
                        .cleaning_cycles
                        .fetch_add(cost.count(), Ordering::Relaxed);
                    let cleaned = shard.clean(caller, id);
                    drop(shard);
                    if cleaned.is_ok() {
                        self.touch_resources();
                    }
                    self.journal_complete(seq);
                    cleaned?;
                    return Ok(cost);
                }
            }
            self.stats
                .cleaning_cycles
                .fetch_add(cost.count(), Ordering::Relaxed);
            shard.clean(caller, id)?;
            drop(shard);
            self.touch_resources();
            Ok(cost)
        }))
    }

    fn grant_resource(
        &self,
        session: CallerSession,
        id: ResourceId,
        new_owner: DomainKind,
    ) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            if new_owner == DomainKind::SecurityMonitor {
                return Err(SmError::InvalidArgument {
                    reason: "resources cannot be granted to the SM through this call",
                });
            }
            let mut shard = self.try_lock_shard(id)?;
            // A quarantined region must not re-enter circulation until
            // recover() has verified the backend can scrub it.
            if let ResourceId::Region(region) = id {
                if self.is_quarantined(region) {
                    return Err(SmError::Again);
                }
            }
            // Granting to an enclave that does not exist would strand the
            // resource in a state nobody can use or reclaim through the
            // normal transitions — the owner can never block it. (Found by
            // the adversarial explorer's exclusivity invariant.) The
            // grantee's guard is taken *while the shard is held* (shard
            // ranks sit below the metadata rank, so the order is legal)
            // to put the shard's bit in its mask: a racing
            // `delete_enclave` either committed first — the enclave is
            // gone or `Deleted` here — or reads the widened mask and sweeps
            // this shard after the grant lands. A grant refused below
            // leaves the bit set, which only widens a later delete's sweep.
            if let DomainKind::Enclave(eid) = new_owner {
                let enclave = self.lock_enclave(eid)?;
                let mut meta = self.try_lock(&enclave)?;
                meta.require_live()?;
                meta.shard_mask |= shard_bit(id);
            }
            // Validate without committing, then program the isolation
            // primitive, and only then publish the ownership transfer — the
            // validate → program → publish protocol. Committing first would
            // leave the map claiming an owner the hardware never isolates
            // when the backend fails (PMP exhaustion), and nobody could
            // reclaim the region through the normal transitions.
            let caller = session.domain();
            shard.check_grant(caller, id)?;
            // Intent entry: the backend programming below crosses fault
            // points. A crash between the PMP write and the map commit is
            // undone during replay by parking the backend on the SM, so the
            // still-Available region never leaks to `new_owner`.
            let seq = self.journal_record(JournalEntry::Grant { id, new_owner });
            let committed = (|| -> SmResult<()> {
                if let ResourceId::Region(region) = id {
                    // One all-or-nothing batch programs the assignment and
                    // the DMA filter: the platform validates the whole batch
                    // before mutating, so no rollback is needed — a rejected
                    // batch leaves hardware and (still-unmutated) metadata
                    // agreeing.
                    let ops = [
                        RegionOp::Assign {
                            region,
                            domain: new_owner,
                            perms: MemPerms::RWX,
                        },
                        RegionOp::SetDmaBlocked {
                            region,
                            blocked: new_owner != DomainKind::Untrusted,
                        },
                    ];
                    let mut backend = self.backend.lock();
                    let cost = backend.apply_batch(&ops)?;
                    self.machine.charge(cost);
                }
                shard.grant(caller, id, new_owner)?;
                Ok(())
            })();
            drop(shard);
            if committed.is_ok() {
                self.touch_resources();
            }
            self.journal_complete(seq);
            committed?;
            Ok(())
        }))
    }

    // ------------------------------------------------------------------
    // thread scheduling (Fig. 4)
    // ------------------------------------------------------------------

    fn enter_enclave(
        &self,
        session: CallerSession,
        eid: EnclaveId,
        tid: ThreadId,
    ) -> SmResult<EnclaveEntry> {
        let core = session.core();
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            if !self.machine.has_hart(core) {
                return Err(SmError::InvalidArgument {
                    reason: "no such core",
                });
            }
            let enclave = self.lock_enclave(eid)?;
            let thread = self.lock_thread(tid)?;
            let mut meta = self.try_lock(&enclave)?;
            meta.require_initialized()?;
            let mut t = self.try_lock(&thread)?;
            {
                let mut occupancy = self.state.core_occupancy.write();
                if occupancy.contains_key(&core) {
                    return Err(SmError::InvalidState {
                        reason: "core already runs an enclave thread",
                    });
                }
                t.start_running(eid, core)?;
                self.touch_threads();
                occupancy.insert(core, tid);
            }
            self.touch_occupancy();
            meta.running_threads += 1;
            self.touch_enclave(&mut meta);

            let mut cost = Cycles::ZERO;
            // Clean whatever the OS left on the core before handing it to the
            // enclave (the reverse hand-off is the AEX path).
            cost += self.machine.clean_core(core)?;
            {
                let mut backend = self.backend.lock();
                cost += backend.flush(core, FlushKind::CoreState)?;
                cost += backend.flush(core, FlushKind::PrivateCaches)?;
            }

            let (entry_pc, aex_pending) = if let Some(snapshot) = t.aex_state.as_ref() {
                // Re-entry after an AEX: restore the saved state.
                let mut hart = self.machine.hart(core);
                hart.restore(snapshot);
                hart.domain = DomainKind::Enclave(eid);
                hart.privilege = PrivilegeLevel::User;
                hart.pending_trap = None;
                (snapshot.pc, true)
            } else {
                self.machine.install_context(
                    core,
                    DomainKind::Enclave(eid),
                    PrivilegeLevel::User,
                    meta.page_table_root,
                    t.entry_pc,
                );
                (t.entry_pc, false)
            };
            t.aex_state = None;
            t.aex_pending = false;
            cost += self.machine.cost_model().trap_return;
            self.machine.charge(cost);
            Ok(EnclaveEntry {
                entry_pc,
                aex_pending,
                cost,
            })
        }))
    }

    fn exit_enclave(&self, session: CallerSession) -> SmResult<Cycles> {
        let core = session.core();
        self.record_call(self.with_global_lock(|| {
            let eid = session.require_enclave()?;
            let tid = *self
                .state
                .core_occupancy
                .read()
                .get(&core)
                .ok_or(SmError::InvalidState {
                    reason: "no enclave thread runs on this core",
                })?;
            let thread = self.lock_thread(tid)?;
            {
                let mut t = self.try_lock(&thread)?;
                let (owner, _) = t.stop_running()?;
                self.touch_threads();
                if owner != eid {
                    // Should be unreachable: the caller identity comes from
                    // the hart, which the SM itself configured.
                    return Err(SmError::Unauthorized);
                }
                self.state.core_occupancy.write().remove(&core);
                self.touch_occupancy();
                // The thread guard drops before the enclave metadata lock
                // (enclave metadata ranks below thread metadata).
            }
            if let Ok(enclave) = self.lock_enclave(eid) {
                let mut meta = enclave.lock();
                meta.running_threads = meta.running_threads.saturating_sub(1);
                self.touch_enclave(&mut meta);
            }
            let cost = self.clean_core_for_handoff(core)?;
            Ok(cost)
        }))
    }

    fn create_thread(&self, session: CallerSession, entry_pc: u64) -> SmResult<ThreadId> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            // Admission check and insert under one write lock (see
            // `load_thread`): the cap must hold against concurrent creates.
            let mut threads = self.state.threads.write();
            if threads.len() >= MAX_THREADS {
                return Err(SmError::OutOfResources {
                    resource: "thread metadata slots",
                });
            }
            let tid = self.state.tids.alloc();
            threads.insert(
                tid,
                Arc::new(OrderedMutex::new(
                    rank::THREAD_META,
                    ThreadMeta::available(tid, entry_pc),
                )),
            );
            drop(threads);
            self.touch_threads();
            Ok(tid)
        }))
    }

    fn delete_thread(&self, session: CallerSession, tid: ThreadId) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            let thread = self.lock_thread(tid)?;
            {
                let t = self.try_lock(&thread)?;
                if t.state != ThreadState::Available {
                    return Err(SmError::InvalidState {
                        reason: "only available threads can be deleted",
                    });
                }
            }
            let removed = self.state.threads.write().remove(&tid).is_some();
            if removed {
                self.state.tids.free(tid);
            }
            self.touch_threads();
            Ok(())
        }))
    }

    fn assign_thread(
        &self,
        session: CallerSession,
        eid: EnclaveId,
        tid: ThreadId,
    ) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            session.require_os()?;
            let _ = self.lock_enclave(eid)?;
            let thread = self.lock_thread(tid)?;
            let mut t = self.try_lock(&thread)?;
            t.assign(eid)?;
            self.touch_threads();
            Ok(())
        }))
    }

    fn accept_thread(&self, session: CallerSession, tid: ThreadId) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            let eid = session.require_enclave()?;
            let thread = self.lock_thread(tid)?;
            {
                let mut t = self.try_lock(&thread)?;
                t.accept(eid)?;
                self.touch_threads();
                // Drop before the enclave metadata lock (hierarchy).
            }
            if let Ok(enclave) = self.lock_enclave(eid) {
                let mut meta = enclave.lock();
                meta.threads.push(tid);
                self.touch_enclave(&mut meta);
            }
            Ok(())
        }))
    }

    fn release_thread(&self, session: CallerSession, tid: ThreadId) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            let eid = session.require_enclave()?;
            let thread = self.lock_thread(tid)?;
            {
                let mut t = self.try_lock(&thread)?;
                t.release(eid)?;
                self.touch_threads();
                // Drop before the enclave metadata lock (hierarchy).
            }
            if let Ok(enclave) = self.lock_enclave(eid) {
                let mut meta = enclave.lock();
                meta.threads.retain(|&x| x != tid);
                self.touch_enclave(&mut meta);
            }
            Ok(())
        }))
    }

    // ------------------------------------------------------------------
    // mailboxes and attestation (Figs. 5–7)
    // ------------------------------------------------------------------

    fn accept_mail(
        &self,
        session: CallerSession,
        mailbox: usize,
        sender_id: u64,
    ) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            let eid = session.require_enclave()?;
            let enclave = self.lock_enclave(eid)?;
            let mut meta = self.try_lock(&enclave)?;
            let mb = meta
                .mailboxes
                .get_mut(mailbox)
                .ok_or(SmError::InvalidArgument { reason: "no such mailbox" })?;
            // Arming (or re-arming) only changes the accept filter — queued
            // messages, which the audit reflects, are untouched, so no
            // generation bump is needed here.
            mb.accept(AcceptMode::from_selector(sender_id));
            Ok(())
        }))
    }

    fn send_mail(
        &self,
        session: CallerSession,
        recipient: EnclaveId,
        message: Tainted<&[u8]>,
    ) -> SmResult<()> {
        self.record_call(self.with_global_lock(|| {
            let sender_identity = match session.domain() {
                DomainKind::Untrusted => SenderIdentity::Untrusted,
                DomainKind::Enclave(eid) => SenderIdentity::Enclave {
                    id: eid,
                    measurement: self.enclave_measurement(eid)?,
                },
                DomainKind::SecurityMonitor => return Err(SmError::Unauthorized),
            };
            let sender_id = sender_identity.sender_id();
            // The message bytes were already copied into monitor memory;
            // all that is left to prove is the length bound the mailbox
            // sink's signature demands.
            let message = Sanitizer::check_message(message, MAX_MAIL_LEN).map_err(|_| {
                SmError::InvalidArgument {
                    reason: "mail message too large",
                }
            })?;
            let enclave = self.lock_enclave(recipient)?;
            let mut meta = self.try_lock(&enclave)?;
            // A deleted recipient's queues were (or are about to be) read
            // for refunds; a message landing now would be destroyed with
            // them and its quota unit never refunded.
            meta.require_live()?;
            // Routing: a sender named by any specific filter is *only*
            // routed to specifically-armed mailboxes — its overflow
            // backpressures instead of spilling into a wildcard service
            // queue, where service logic would misread a directed payload
            // as a request. Senders no specific filter names route to the
            // first wildcard mailbox with room.
            let specific = |mb: &crate::mailbox::Mailbox| {
                matches!(mb.accept_mode(), Some(AcceptMode::Sender(s)) if s == sender_id)
            };
            let directed = meta.mailboxes.iter().any(&specific);
            let target = if directed {
                meta.mailboxes.iter().position(|mb| specific(mb) && !mb.is_full())
            } else {
                meta.mailboxes
                    .iter()
                    .position(|mb| mb.accept_mode() == Some(AcceptMode::Any) && !mb.is_full())
            };
            let Some(index) = target else {
                // Distinguish backpressure (armed but full) from refusal.
                return if directed || meta.mailboxes.iter().any(|mb| mb.admits(sender_id)) {
                    Err(SmError::MailboxUnavailable)
                } else {
                    Err(SmError::MailNotAccepted)
                };
            };
            // atomic: the copy either happens entirely under the meta lock
            // or not at all — a failed crossing aborts before the ledger is
            // charged, so no state needs journaled undo.
            if fault_point!(self.machine.fault_injector(), "monitor.mail-copy") == Crossing::FailOp
            {
                return Err(SmError::Again);
            }
            // Fabric-wide anti-DoS quota: the ledger lock is held across the
            // enqueue so the count can never drift from the queues.
            let mut ledger = self.state.mail_ledger.lock();
            let count = ledger.entry(sender_id).or_insert(0);
            if *count >= MAIL_SENDER_QUOTA as u64 {
                return Err(SmError::OutOfResources {
                    resource: "mail sender quota",
                });
            }
            meta.mailboxes[index].send(sender_identity, &message)?;
            *count += 1;
            drop(ledger);
            self.touch_enclave(&mut meta);
            self.touch_mail();
            Ok(())
        }))
    }

    fn get_mail(
        &self,
        session: CallerSession,
        mailbox: usize,
    ) -> SmResult<(Vec<u8>, SenderIdentity)> {
        // Messages never exceed MAX_MAIL_LEN, so this bound is "no bound".
        self.get_mail_bounded(session, mailbox, MAX_MAIL_LEN)
    }

    fn get_mail_bounded(
        &self,
        session: CallerSession,
        mailbox: usize,
        max_len: usize,
    ) -> SmResult<(Vec<u8>, SenderIdentity)> {
        self.record_call(self.with_global_lock(|| {
            let eid = session.require_enclave()?;
            let enclave = self.lock_enclave(eid)?;
            let mut meta = self.try_lock(&enclave)?;
            // A deleted enclave's queued mail was already refunded by the
            // delete's purge; delivering it now would refund it twice.
            meta.require_live()?;
            let mb = meta
                .mailboxes
                .get_mut(mailbox)
                .ok_or(SmError::InvalidArgument { reason: "no such mailbox" })?;
            // Length check and consumption happen under one meta lock: a
            // concurrent consumer on another hart cannot swap the queue head
            // between the probe and the fetch (the register-ABI GetMail
            // relies on this to never write past the span it validated).
            match mb.peek() {
                None => return Err(SmError::MailboxUnavailable),
                Some(mail) if mail.message.len() > max_len => {
                    return Err(SmError::InvalidArgument {
                        reason: "output buffer too small",
                    })
                }
                Some(_) => {}
            }
            // atomic: dequeue + quota refund run under the meta and ledger
            // locks with no intervening fault points; a failed crossing
            // aborts before the queue head moves.
            if fault_point!(self.machine.fault_injector(), "monitor.mail-fetch") == Crossing::FailOp
            {
                return Err(SmError::Again);
            }
            let mail = mb.get().expect("peeked above");
            Self::refund_mail_sender(&mut self.state.mail_ledger.lock(), mail.sender_id);
            self.touch_enclave(&mut meta);
            self.touch_mail();
            Ok((mail.message, mail.sender))
        }))
    }

    fn peek_mail(&self, session: CallerSession, mailbox: usize) -> SmResult<(usize, u64)> {
        self.record_call(self.with_global_lock(|| {
            let eid = session.require_enclave()?;
            let enclave = self.lock_enclave(eid)?;
            let meta = self.try_lock(&enclave)?;
            let mb = meta
                .mailboxes
                .get(mailbox)
                .ok_or(SmError::InvalidArgument { reason: "no such mailbox" })?;
            let mail = mb.peek().ok_or(SmError::MailboxUnavailable)?;
            Ok((mail.message.len(), mail.sender_id))
        }))
    }

    fn get_attestation_key(&self, session: CallerSession) -> SmResult<[u8; 32]> {
        self.record_call(self.with_global_lock(|| {
            let eid = session.require_enclave()?;
            let expected = self
                .config
                .signing_enclave_measurement
                .ok_or(SmError::InvalidState {
                    reason: "no signing enclave configured",
                })?;
            let actual = self.enclave_measurement(eid)?;
            if !actual.ct_eq(&expected) {
                return Err(SmError::Unauthorized);
            }
            Ok(*self.identity.attestation_keypair.secret().seed())
        }))
    }

    fn get_field(&self, _session: CallerSession, field: PublicField) -> Vec<u8> {
        // Public identity material is available to every caller; the session
        // is accepted (not authorized) so the call shape matches the rest of
        // the surface. The read itself touches only immutable identity
        // state, so the fine-grained mode takes **no lock at all** — this is
        // the read-mostly fast path the scaling bench measures — while the
        // global mode honestly pays the giant lock like every other call.
        self.with_global_lock(|| match field {
            PublicField::AttestationPublicKey => {
                self.identity.attestation_keypair.public().to_bytes().to_vec()
            }
            PublicField::DevicePublicKey => self.identity.device_public_key.to_bytes().to_vec(),
            PublicField::SmMeasurement => self.identity.sm_measurement.to_vec(),
            PublicField::SmCertificate => {
                // A compact, self-describing encoding: subject key ‖ info len ‖
                // info ‖ issuer key ‖ signature.
                let cert = &self.identity.sm_certificate;
                let mut out = Vec::new();
                out.extend_from_slice(&cert.subject_public_key.to_bytes());
                out.extend_from_slice(&(cert.subject_info.len() as u64).to_le_bytes());
                out.extend_from_slice(&cert.subject_info);
                out.extend_from_slice(&cert.issuer_public_key.to_bytes());
                out.extend_from_slice(&cert.signature.to_bytes());
                out
            }
        })
    }

    fn batch(&self, session: CallerSession, calls: &[SmCall]) -> SmResult<Vec<CallOutcome>> {
        // Vacuous intent marker bracketing the batch: the inner calls
        // journal their own mutations, so replay of `Batch` is a no-op, but
        // the pending entry attributes a mid-batch crash during recovery.
        let seq = self.journal_record(JournalEntry::Batch);
        let outcomes = self.run_typed_batch(session, calls);
        self.journal_complete(seq);
        let outcomes = outcomes?;
        self.stats
            .batched_calls
            .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
        Ok(outcomes)
    }
}
