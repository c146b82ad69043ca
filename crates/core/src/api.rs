//! The SM call surface: typed trait, call registry, and register-level ABI.
//!
//! This module is the single place the SM API is *declared*. Three layers
//! share one source of truth:
//!
//! 1. **[`SmApi`]** — the typed call surface. Every method takes a
//!    [`CallerSession`] (an authenticated caller capability, see
//!    [`crate::session`]) instead of a raw `DomainKind`. The monitor
//!    implements it; the OS model, enclaves, benches and tests call it. A
//!    future alternative monitor backend implements the same trait and slots
//!    into every harness unchanged.
//! 2. **The call registry** — the [`sm_call_registry!`] invocation below
//!    declares every register-ABI call exactly once: its call number, its
//!    typed arguments (with their register encoding via [`RegScalar`]), a
//!    context-switch flag, and the handler mapping it onto [`SmApi`]. The
//!    enum [`SmCall`], `encode`/`decode`, per-call metadata and the event
//!    dispatcher's perform table are all derived from that one declaration —
//!    adding a call is a one-entry change.
//! 3. **The register ABI** — callers place a call number in `a0` and
//!    arguments in `a1`–`a5`, execute an environment call, and receive a
//!    status code in `a0` plus an optional value in `a1` (paper Section V-A).
//!    Status codes map 1:1 onto [`crate::error::SmError`] variants via
//!    [`status_of`] / [`SmError::from_status`] — the mapping is a bijection,
//!    asserted by a unit test.
//!
//! Batched calls: [`SmCall::Batch`] names a table of packed calls in
//! untrusted memory and executes them in a single trap, writing per-call
//! statuses back into the table (see [`crate::dispatch`] for the wire
//! layout). This amortizes the trap + authenticate + dispatch overhead for
//! call-dense workloads such as enclave loading.

use crate::error::{SmError, SmResult};
use crate::mailbox::SenderIdentity;
use crate::measurement::Measurement;
use crate::monitor::{EnclaveEntry, PublicField, SecurityMonitor};
use crate::resource::ResourceId;
use crate::session::CallerSession;
use crate::thread::ThreadId;
use sanctorum_hal::addr::{PhysAddr, VirtAddr};
use sanctorum_hal::cycles::Cycles;
use sanctorum_hal::domain::{DomainKind, EnclaveId};
use sanctorum_hal::isolation::{IsolationError, RegionId};
use sanctorum_hal::perm::MemPerms;
use sanctorum_trust::{ReadAccess, SpanPolicy, Tainted, WriteAccess};
use serde::{Deserialize, Serialize};

pub use sanctorum_trust::RegScalar;

// ---------------------------------------------------------------------------
// the typed call surface
// ---------------------------------------------------------------------------

/// The security monitor's complete call surface, as seen by every caller.
///
/// Each method corresponds to one SM API call of the paper (Sections V–VI).
/// The [`CallerSession`] argument carries the authenticated caller identity;
/// authorization decisions happen behind it, inside the implementation. The
/// trait is object-safe so harnesses can compare monitor backends through
/// `&dyn SmApi`.
pub trait SmApi {
    /// `create_enclave`: the OS dedicates *available* memory regions to a new
    /// enclave with virtual range `[evrange_base, +evrange_len)`.
    ///
    /// # Errors
    ///
    /// Fails if the session is not the OS, the arguments are malformed, any
    /// region is not available, or the enclave limit is reached.
    fn create_enclave(
        &self,
        session: CallerSession,
        evrange_base: VirtAddr,
        evrange_len: u64,
        regions: &[RegionId],
    ) -> SmResult<EnclaveId>;

    /// `allocate_page_table`: reserves and zeroes the enclave's page-table
    /// pages and records the allocation in the measurement.
    ///
    /// # Errors
    ///
    /// Fails unless the session is the OS and the enclave is still loading.
    fn allocate_page_table(&self, session: CallerSession, eid: EnclaveId) -> SmResult<PhysAddr>;

    /// `load_page`: copies one page of initial content into the enclave,
    /// mapping it with `perms` and extending the measurement.
    ///
    /// # Errors
    ///
    /// Fails on bad alignment, addresses outside `evrange`, aliased virtual
    /// pages, exhausted enclave memory, an unreadable source page, or a
    /// missing page-table allocation.
    fn load_page(
        &self,
        session: CallerSession,
        eid: EnclaveId,
        vaddr: VirtAddr,
        src: Tainted<PhysAddr>,
        perms: MemPerms,
    ) -> SmResult<PhysAddr>;

    /// `load_thread`: creates an enclave thread during loading; the thread is
    /// implicitly accepted.
    ///
    /// # Errors
    ///
    /// Fails unless the session is the OS and the enclave is loading.
    fn load_thread(
        &self,
        session: CallerSession,
        eid: EnclaveId,
        entry_pc: u64,
        fault_handler_pc: Option<u64>,
    ) -> SmResult<ThreadId>;

    /// `init_enclave`: seals the enclave and finalizes its measurement.
    ///
    /// # Errors
    ///
    /// Fails unless the session is the OS and the enclave is loading with at
    /// least one thread and its page tables allocated.
    fn init_enclave(&self, session: CallerSession, eid: EnclaveId) -> SmResult<Measurement>;

    /// `delete_enclave`: destroys an enclave whose threads are all stopped,
    /// blocking every resource it owned.
    ///
    /// # Errors
    ///
    /// Fails unless the session is the OS and no enclave thread is running.
    fn delete_enclave(&self, session: CallerSession, eid: EnclaveId) -> SmResult<()>;

    /// `enter_enclave`: schedules enclave thread `tid` onto the session's
    /// core (the core the caller was authenticated on — scheduling is always
    /// a property of the calling hart, exactly as in the register ABI).
    ///
    /// # Errors
    ///
    /// Fails unless the session is the OS, the enclave is initialized, the
    /// thread belongs to it, and the core is free.
    fn enter_enclave(
        &self,
        session: CallerSession,
        eid: EnclaveId,
        tid: ThreadId,
    ) -> SmResult<EnclaveEntry>;

    /// `exit_enclave`: voluntary exit by the enclave running on the
    /// session's core.
    ///
    /// # Errors
    ///
    /// Fails unless the session is the enclave actually running on its core.
    fn exit_enclave(&self, session: CallerSession) -> SmResult<Cycles>;

    /// `create_thread`: the OS creates an unassigned thread metadata slot.
    ///
    /// # Errors
    ///
    /// Fails if the session is not the OS or the thread limit is reached.
    fn create_thread(&self, session: CallerSession, entry_pc: u64) -> SmResult<ThreadId>;

    /// `delete_thread`: removes an available thread's metadata.
    ///
    /// # Errors
    ///
    /// Fails if the thread is assigned or running.
    fn delete_thread(&self, session: CallerSession, tid: ThreadId) -> SmResult<()>;

    /// `assign_thread`: binds an available thread to an enclave.
    ///
    /// # Errors
    ///
    /// Propagates thread state-machine errors.
    fn assign_thread(
        &self,
        session: CallerSession,
        eid: EnclaveId,
        tid: ThreadId,
    ) -> SmResult<()>;

    /// `accept_thread`: the enclave accepts a thread assigned to it.
    ///
    /// # Errors
    ///
    /// Propagates thread state-machine errors.
    fn accept_thread(&self, session: CallerSession, tid: ThreadId) -> SmResult<()>;

    /// `release_thread`: the enclave gives a thread back to the OS pool.
    ///
    /// # Errors
    ///
    /// Propagates thread state-machine errors.
    fn release_thread(&self, session: CallerSession, tid: ThreadId) -> SmResult<()>;

    /// `block_resource`: flags a resource for release (owner or SM).
    ///
    /// # Errors
    ///
    /// Propagates resource state-machine and authorization errors.
    fn block_resource(&self, session: CallerSession, id: ResourceId) -> SmResult<()>;

    /// `clean_resource`: scrubs a blocked resource and marks it available.
    ///
    /// # Errors
    ///
    /// Fails unless the session is the OS (or SM) and the resource is
    /// blocked.
    fn clean_resource(&self, session: CallerSession, id: ResourceId) -> SmResult<Cycles>;

    /// `grant_resource`: gives an available resource to a new owner.
    ///
    /// # Errors
    ///
    /// Fails unless the transition is legal for this session.
    fn grant_resource(
        &self,
        session: CallerSession,
        id: ResourceId,
        new_owner: DomainKind,
    ) -> SmResult<()>;

    /// `accept_mail`: arms one of the calling enclave's mailboxes to accept
    /// messages from `sender_id` (an enclave id value, 0 for the OS, or
    /// [`crate::mailbox::ANY_SENDER`] for wildcard service mode).
    ///
    /// # Errors
    ///
    /// Fails for non-enclave sessions or unknown mailboxes.
    fn accept_mail(
        &self,
        session: CallerSession,
        mailbox: usize,
        sender_id: u64,
    ) -> SmResult<()>;

    /// `send_mail`: sends `message` to `recipient`, tagged with the sender's
    /// SM-recorded identity.
    ///
    /// # Errors
    ///
    /// Fails if the recipient does not exist or is being deleted, if no
    /// recipient mailbox accepts this sender, or if the message is
    /// oversized.
    fn send_mail(
        &self,
        session: CallerSession,
        recipient: EnclaveId,
        message: Tainted<&[u8]>,
    ) -> SmResult<()>;

    /// `get_mail`: fetches the oldest message queued in `mailbox` together
    /// with the SM-recorded sender identity, refunding the sender's quota.
    ///
    /// # Errors
    ///
    /// Fails for non-enclave sessions, unknown mailboxes, or empty mailboxes.
    fn get_mail(
        &self,
        session: CallerSession,
        mailbox: usize,
    ) -> SmResult<(Vec<u8>, SenderIdentity)>;

    /// `get_mail` with an atomic length bound: fetches the oldest queued
    /// message only if it fits in `max_len` bytes; a too-large message is
    /// left queued and the call fails. The check and the consumption happen
    /// under one lock, so no concurrent consumer can swap the queue head in
    /// between — the register-ABI `GetMail` is built on this.
    ///
    /// # Errors
    ///
    /// As [`SmApi::get_mail`], plus [`SmError::InvalidArgument`] when the
    /// waiting message exceeds `max_len` (message not consumed).
    fn get_mail_bounded(
        &self,
        session: CallerSession,
        mailbox: usize,
        max_len: usize,
    ) -> SmResult<(Vec<u8>, SenderIdentity)>;

    /// `peek_mail`: non-destructive probe of the oldest message queued in
    /// `mailbox`, returning its length and raw sender id. Callers use this
    /// to size a receive buffer *before* consuming the message.
    ///
    /// # Errors
    ///
    /// Fails for non-enclave sessions, unknown mailboxes, or empty mailboxes.
    fn peek_mail(&self, session: CallerSession, mailbox: usize) -> SmResult<(usize, u64)>;

    /// `get_attestation_key`: releases the attestation signing seed to the
    /// trusted signing enclave (measurement-gated).
    ///
    /// # Errors
    ///
    /// Fails for any session other than an initialized enclave whose
    /// measurement equals the configured signing-enclave measurement.
    fn get_attestation_key(&self, session: CallerSession) -> SmResult<[u8; 32]>;

    /// `get_field`: returns public identity material. Available to every
    /// session.
    fn get_field(&self, session: CallerSession, field: PublicField) -> Vec<u8>;

    /// Executes `calls` back-to-back under one session, returning a per-call
    /// `(status, value)` outcome. Semantics match issuing the calls serially,
    /// with one exception: a context-switching call (or a nested batch) is
    /// refused with [`status::INVALID_ARGUMENT`] and aborts the batch at that
    /// entry — the monitor never switches contexts from inside a batch.
    ///
    /// # Errors
    ///
    /// Fails only on malformed batch shape (empty or oversized); individual
    /// call failures are reported per entry, not as an error.
    fn batch(&self, session: CallerSession, calls: &[SmCall]) -> SmResult<Vec<CallOutcome>>;
}

/// Per-entry outcome of a batched call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallOutcome {
    /// Status code (see [`status`]).
    pub status: u64,
    /// Call-specific return value (0 on failure).
    pub value: u64,
}

impl CallOutcome {
    /// Returns `true` if the call succeeded.
    pub const fn is_ok(&self) -> bool {
        self.status == status::OK
    }
}

/// Maximum number of calls one batch may carry.
pub const MAX_BATCH_CALLS: u64 = 64;

// The register scalar codec ([`RegScalar`]) lives in `sanctorum-trust`
// (re-exported at the top of this module): tainted register values must be
// encodable without ever exposing an accessor, so the `Tainted<T>` blanket
// impl needs the trust crate's private view. All scalar impls (`u64`,
// addresses, ids, perms) live there with it.

// ---------------------------------------------------------------------------
// the call registry
// ---------------------------------------------------------------------------

/// Static description of one registered SM call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallInfo {
    /// The call number carried in `a0`.
    pub number: u64,
    /// The call's name (enum variant name).
    pub name: &'static str,
    /// Whether the call hands the hart to a different context on success
    /// (such calls manage the result registers themselves and are refused
    /// inside batches).
    pub context_switches: bool,
    /// Whether the call can change which domain may access which physical
    /// memory (the batch executor revalidates its table access after such
    /// calls).
    pub mutates_isolation: bool,
}

/// Declares the complete register-ABI call table in one place.
///
/// Each entry provides: the variant (with documented, `RegScalar`-encodable
/// fields in `a1..a5` order), the call number, the context-switch flag, and
/// the handler gluing the decoded call onto the [`SmApi`] surface. The macro
/// derives [`SmCall`], its `encode`/`decode`/metadata methods, the
/// [`CALL_TABLE`] and the dispatcher's `perform` function from this single
/// declaration.
macro_rules! sm_call_registry {
    (
        $(
            $(#[$vmeta:meta])*
            $num:literal => $Variant:ident {
                $( $(#[$fmeta:meta])* $field:ident : $fty:ty ),* $(,)?
            }
            switches: $switches:literal,
            isolation: $isolation:literal,
            handler: ($sm:ident, $session:ident) $handler:block
        )*
    ) => {
        /// A decoded SM API call (derived from the call registry).
        #[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
        pub enum SmCall {
            $(
                $(#[$vmeta])*
                $Variant {
                    $( $(#[$fmeta])* $field : $fty, )*
                },
            )*
        }

        /// Every registered call, in declaration order.
        pub const CALL_TABLE: &[CallInfo] = &[
            $( CallInfo {
                number: $num,
                name: stringify!($Variant),
                context_switches: $switches,
                mutates_isolation: $isolation,
            }, )*
        ];

        impl SmCall {
            /// Returns the call number carried in `a0`.
            pub const fn number(&self) -> u64 {
                match self {
                    $( SmCall::$Variant { .. } => $num, )*
                }
            }

            /// Returns the call's registry name.
            pub const fn name(&self) -> &'static str {
                match self {
                    $( SmCall::$Variant { .. } => stringify!($Variant), )*
                }
            }

            /// Returns `true` if a successful call hands the hart to a
            /// different context (the dispatcher must not overwrite the
            /// result registers, and batches refuse the call).
            pub const fn context_switches(&self) -> bool {
                match self {
                    $( SmCall::$Variant { .. } => $switches, )*
                }
            }

            /// Returns `true` if the call can change which domain may access
            /// which physical memory (region grants, cleans, blocks, enclave
            /// creation/teardown). After such a call a batch must revalidate
            /// its own table access.
            pub const fn mutates_isolation(&self) -> bool {
                match self {
                    $( SmCall::$Variant { .. } => $isolation, )*
                }
            }

            /// Encodes the call into the six argument registers `a0`–`a5`.
            #[allow(unused_assignments, unused_mut, unused_variables)]
            pub fn encode(&self) -> [u64; 6] {
                match self {
                    $( SmCall::$Variant { $($field),* } => {
                        let mut regs = [0u64; 6];
                        regs[0] = $num;
                        let mut slot = 1usize;
                        $(
                            regs[slot] = RegScalar::to_reg($field);
                            slot += 1;
                        )*
                        regs
                    } )*
                }
            }

            /// Decodes the argument registers back into a call.
            ///
            /// # Errors
            ///
            /// Returns [`DecodeError::UnknownCallNumber`] if `a0` does not
            /// name a registered call.
            #[allow(unused_assignments, unused_mut, unused_variables)]
            pub fn decode(regs: &[u64; 6]) -> Result<SmCall, DecodeError> {
                match regs[0] {
                    $( $num => {
                        let mut slot = 1usize;
                        Ok(SmCall::$Variant {
                            $( $field: {
                                let v = <$fty as RegScalar>::from_reg(regs[slot]);
                                slot += 1;
                                v
                            }, )*
                        })
                    } )*
                    other => Err(DecodeError::UnknownCallNumber(other)),
                }
            }
        }

        /// Performs a decoded call against the monitor on behalf of
        /// `session`, producing the register-level return value. This is the
        /// one dispatch table; both the single-call ecall path and the batch
        /// executor go through it.
        pub(crate) fn perform(
            sm: &SecurityMonitor,
            session: CallerSession,
            call: SmCall,
        ) -> SmResult<u64> {
            match call {
                $( SmCall::$Variant { $($field),* } => {
                    #[allow(unused_variables)]
                    let $sm = sm;
                    #[allow(unused_variables)]
                    let $session = session;
                    $handler
                } )*
            }
        }
    };
}

sm_call_registry! {
    /// Create an enclave over one memory region.
    1 => CreateEnclave {
        /// Base of the enclave virtual range.
        evrange_base: VirtAddr,
        /// Length of the enclave virtual range.
        evrange_len: u64,
        /// The single region dedicated to the enclave (the register ABI
        /// carries one; multi-region enclaves use repeated grants).
        region: RegionId,
    }
    switches: false,
    isolation: true,
    handler: (sm, session) {
        sm.create_enclave(session, evrange_base, evrange_len, &[region])
            .map(|eid| eid.as_u64())
    }

    /// Reserve the enclave's page tables.
    2 => AllocatePageTable {
        /// Target enclave.
        eid: EnclaveId,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        sm.allocate_page_table(session, eid).map(|root| root.as_u64())
    }

    /// Load one page of initial contents.
    3 => LoadPage {
        /// Target enclave.
        eid: EnclaveId,
        /// Destination virtual address inside `evrange`.
        vaddr: VirtAddr,
        /// Source physical address in OS memory (untrusted until sanitized).
        src: Tainted<PhysAddr>,
        /// Permission bits (R=1, W=2, X=4).
        perms: MemPerms,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        sm.load_page(session, eid, vaddr, src, perms).map(|p| p.as_u64())
    }

    /// Create an enclave thread during loading.
    4 => LoadThread {
        /// Target enclave.
        eid: EnclaveId,
        /// Entry program counter.
        entry_pc: u64,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        sm.load_thread(session, eid, entry_pc, None)
    }

    /// Seal the enclave and finalize its measurement.
    5 => InitEnclave {
        /// Target enclave.
        eid: EnclaveId,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        sm.init_enclave(session, eid).map(|_| 0)
    }

    /// Destroy an enclave.
    6 => DeleteEnclave {
        /// Target enclave.
        eid: EnclaveId,
    }
    switches: false,
    isolation: true,
    handler: (sm, session) {
        sm.delete_enclave(session, eid).map(|_| 0)
    }

    /// Schedule an enclave thread onto the calling core.
    7 => EnterEnclave {
        /// Target enclave.
        eid: EnclaveId,
        /// Thread to run.
        tid: u64,
    }
    switches: true,
    isolation: false,
    handler: (sm, session) {
        sm.enter_enclave(session, eid, tid).map(|entry| entry.entry_pc)
    }

    /// Voluntary enclave exit from the calling core.
    8 => ExitEnclave {}
    switches: true,
    isolation: false,
    handler: (sm, session) {
        sm.exit_enclave(session).map(|c| c.count())
    }

    /// Block a memory region resource.
    9 => BlockRegion {
        /// The region.
        region: RegionId,
    }
    switches: false,
    isolation: true,
    handler: (sm, session) {
        sm.block_resource(session, ResourceId::Region(region)).map(|_| 0)
    }

    /// Clean a blocked memory region resource.
    10 => CleanRegion {
        /// The region.
        region: RegionId,
    }
    switches: false,
    isolation: true,
    handler: (sm, session) {
        sm.clean_resource(session, ResourceId::Region(region)).map(|c| c.count())
    }

    /// Grant an available region to the untrusted OS (`owner_eid == 0`) or to
    /// an enclave.
    11 => GrantRegion {
        /// The region.
        region: RegionId,
        /// New owner enclave id, or 0 for the untrusted OS.
        owner_eid: u64,
    }
    switches: false,
    isolation: true,
    handler: (sm, session) {
        let owner = if owner_eid == 0 {
            DomainKind::Untrusted
        } else {
            DomainKind::Enclave(EnclaveId::new(owner_eid))
        };
        sm.grant_resource(session, ResourceId::Region(region), owner).map(|_| 0)
    }

    /// Accept mail from a sender into one of the caller's mailboxes.
    12 => AcceptMail {
        /// Mailbox index.
        mailbox: u64,
        /// Sender id (enclave id value, or 0 for the OS).
        sender_id: u64,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        sm.accept_mail(session, mailbox as usize, sender_id).map(|_| 0)
    }

    /// Send mail: the message bytes are read from untrusted memory.
    13 => SendMail {
        /// Recipient enclave.
        recipient: EnclaveId,
        /// Physical address of the message (untrusted until sanitized).
        msg_addr: Tainted<PhysAddr>,
        /// Message length in bytes.
        msg_len: u64,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        if msg_len as usize > crate::mailbox::MAX_MAIL_LEN {
            return Err(SmError::InvalidArgument { reason: "mail message too large" });
        }
        let mut buf = vec![0u8; msg_len as usize];
        if msg_len == 0 {
            // An empty message still names a buffer address; the (vacuous)
            // read it implies only requires the address to sit within DRAM
            // bounds, like the zero-length copy it replaces.
            sm.sanitizer().check_empty::<ReadAccess>(msg_addr).map_err(|_| SmError::Memory)?;
        } else {
            // The caller must itself be able to read the whole message
            // buffer — proving only its first byte would let a buffer placed
            // at the end of the caller's region leak the neighbouring
            // region's contents into the mail.
            let span = sm
                .sanitizer()
                .check_span::<ReadAccess>(
                    session.domain(),
                    msg_addr.spanning(msg_len),
                    SpanPolicy::PLAIN,
                )
                .map_err(|_| SmError::Unauthorized)?;
            sm.machine().read_span(&span, 0, &mut buf)?;
        }
        sm.send_mail(session, recipient, Tainted::new(&buf)).map(|_| 0)
    }

    /// Fetch waiting mail into a caller-supplied buffer.
    14 => GetMail {
        /// Mailbox index.
        mailbox: u64,
        /// Physical address of the output buffer (untrusted until sanitized).
        out_addr: Tainted<PhysAddr>,
        /// Capacity of the output buffer.
        out_len: u64,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        // The whole output window must be caller-writable, for the same
        // reason SendMail checks its whole source span. Messages never
        // exceed MAX_MAIL_LEN, so capping the probe there bounds the check
        // without narrowing what can actually be written.
        let probe_len = out_len.min(crate::mailbox::MAX_MAIL_LEN as u64);
        let out_span = if probe_len == 0 {
            None
        } else {
            Some(
                sm.sanitizer()
                    .check_span::<WriteAccess>(
                        session.domain(),
                        out_addr.spanning(probe_len),
                        SpanPolicy::PLAIN,
                    )
                    .map_err(|_| SmError::Unauthorized)?,
            )
        };
        // The length check and the consumption are one atomic operation: a
        // message too large for the caller's buffer is rejected while it is
        // still queued (the seed consumed it first, destroying mail a
        // too-small buffer could never hold), and no concurrent consumer
        // can swap the queue head between a separate probe and the fetch.
        let (message, _sender) =
            sm.get_mail_bounded(session, mailbox as usize, out_len as usize)?;
        match &out_span {
            Some(span) => sm.machine().write_span(span, 0, &message)?,
            None => {
                // A zero-capacity buffer admits only an empty message; its
                // (vacuous) write still requires an address within DRAM.
                sm.sanitizer().check_empty::<WriteAccess>(out_addr).map_err(|_| SmError::Memory)?;
            }
        }
        Ok(message.len() as u64)
    }

    /// Read a public identity field; returns the field's length.
    15 => GetField {
        /// Field selector (see [`crate::monitor::PublicField`]).
        field: u64,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        let field = PublicField::from_selector(field)
            .ok_or(SmError::InvalidArgument { reason: "unknown field" })?;
        Ok(sm.get_field(session, field).len() as u64)
    }

    /// Execute a table of packed calls in one trap (see [`crate::dispatch`]
    /// for the 64-byte-per-entry wire layout); returns the number of entries
    /// executed.
    16 => Batch {
        /// Physical address of the call table (untrusted until sanitized).
        table: Tainted<PhysAddr>,
        /// Number of packed calls in the table.
        count: u64,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        sm.run_packed_batch(session, table, count)
    }

    /// Non-destructive probe of the oldest waiting message: returns its
    /// length without consuming it (callers size their `GetMail` buffer from
    /// this).
    17 => PeekMail {
        /// Mailbox index.
        mailbox: u64,
    }
    switches: false,
    isolation: false,
    handler: (sm, session) {
        sm.peek_mail(session, mailbox as usize).map(|(len, _sender)| len as u64)
    }
}

/// Errors produced when decoding the register file into an [`SmCall`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The call number in `a0` is not recognised.
    UnknownCallNumber(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownCallNumber(n) => write!(f, "unknown SM call number {n}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// status codes
// ---------------------------------------------------------------------------

/// Status codes returned in `a0` after an SM call.
///
/// Codes `1..=14` and [`status::AGAIN`] are in bijection with the [`SmError`]
/// variant classes (see [`status_of`] and [`SmError::from_status`]);
/// [`status::ILLEGAL_CALL`] is reserved for environment calls that do not
/// decode to a registered call at all and therefore has no `SmError`
/// counterpart.
pub mod status {
    /// Call succeeded.
    pub const OK: u64 = 0;
    /// Caller not authorized ([`crate::error::SmError::Unauthorized`]).
    pub const UNAUTHORIZED: u64 = 1;
    /// Unknown enclave ([`crate::error::SmError::UnknownEnclave`]).
    pub const UNKNOWN_ENCLAVE: u64 = 2;
    /// Unknown thread ([`crate::error::SmError::UnknownThread`]).
    pub const UNKNOWN_THREAD: u64 = 3;
    /// Object in the wrong lifecycle state
    /// ([`crate::error::SmError::InvalidState`]).
    pub const INVALID_STATE: u64 = 4;
    /// Malformed arguments ([`crate::error::SmError::InvalidArgument`]).
    pub const INVALID_ARGUMENT: u64 = 5;
    /// Page-load order violation
    /// ([`crate::error::SmError::MeasurementOrderViolation`]).
    pub const MEASUREMENT_ORDER: u64 = 6;
    /// Unknown machine resource ([`crate::error::SmError::UnknownResource`]).
    pub const UNKNOWN_RESOURCE: u64 = 7;
    /// Forbidden resource transition
    /// ([`crate::error::SmError::ResourceStateViolation`]).
    pub const RESOURCE_STATE: u64 = 8;
    /// Out of resources ([`crate::error::SmError::OutOfResources`]).
    pub const NO_RESOURCES: u64 = 9;
    /// Concurrent transaction; retry
    /// ([`crate::error::SmError::ConcurrentCall`]).
    pub const CONCURRENT: u64 = 10;
    /// Recipient not accepting mail from this sender
    /// ([`crate::error::SmError::MailNotAccepted`]).
    pub const MAIL_NOT_ACCEPTED: u64 = 11;
    /// Mailbox empty or full
    /// ([`crate::error::SmError::MailboxUnavailable`]).
    pub const MAILBOX_UNAVAILABLE: u64 = 12;
    /// Isolation backend failure ([`crate::error::SmError::Platform`]).
    pub const PLATFORM: u64 = 13;
    /// Physical memory access failure ([`crate::error::SmError::Memory`]).
    pub const MEMORY: u64 = 14;
    /// The environment call did not decode to a registered SM call (no
    /// `SmError` counterpart; see [`crate::api::SmCall::decode`]).
    pub const ILLEGAL_CALL: u64 = 15;
    /// Transient fault; the call was rolled back or the target region is
    /// quarantined — back off and retry ([`crate::error::SmError::Again`]).
    pub const AGAIN: u64 = 16;
    /// Sentinel pre-filled into a batch entry's status word by
    /// [`crate::monitor::SecurityMonitor::stage_batch`]; any entry still
    /// carrying it after the batch returns was never examined (the batch
    /// aborted earlier). Never returned by the monitor for an executed call.
    pub const NOT_RUN: u64 = u64::MAX;
}

/// Maps an API error to its register-level status code.
///
/// Every [`SmError`] variant class has its own code; the mapping is a
/// bijection with [`SmError::from_status`] (asserted by the
/// `status_mapping_is_a_bijection` test below).
pub fn status_of(err: &SmError) -> u64 {
    match err {
        SmError::Unauthorized => status::UNAUTHORIZED,
        SmError::UnknownEnclave(_) => status::UNKNOWN_ENCLAVE,
        SmError::UnknownThread(_) => status::UNKNOWN_THREAD,
        SmError::InvalidState { .. } => status::INVALID_STATE,
        SmError::InvalidArgument { .. } => status::INVALID_ARGUMENT,
        SmError::MeasurementOrderViolation => status::MEASUREMENT_ORDER,
        SmError::UnknownResource => status::UNKNOWN_RESOURCE,
        SmError::ResourceStateViolation { .. } => status::RESOURCE_STATE,
        SmError::OutOfResources { .. } => status::NO_RESOURCES,
        SmError::ConcurrentCall => status::CONCURRENT,
        SmError::MailNotAccepted => status::MAIL_NOT_ACCEPTED,
        SmError::MailboxUnavailable => status::MAILBOX_UNAVAILABLE,
        SmError::Platform(_) => status::PLATFORM,
        SmError::Memory => status::MEMORY,
        SmError::Again => status::AGAIN,
    }
}

impl SmError {
    /// Inverse of [`status_of`]: reconstructs the canonical error for a
    /// status code. Variant payloads (ids, reason strings) do not travel
    /// through the one-word status register, so the reconstructed error
    /// carries canonical placeholders; the variant *class* round-trips
    /// exactly.
    ///
    /// Returns `None` for [`status::OK`], [`status::ILLEGAL_CALL`] and
    /// unassigned codes.
    pub fn from_status(code: u64) -> Option<SmError> {
        Some(match code {
            status::UNAUTHORIZED => SmError::Unauthorized,
            status::UNKNOWN_ENCLAVE => SmError::UnknownEnclave(EnclaveId::new(0)),
            status::UNKNOWN_THREAD => SmError::UnknownThread(0),
            status::INVALID_STATE => SmError::InvalidState { reason: "reported via status code" },
            status::INVALID_ARGUMENT => {
                SmError::InvalidArgument { reason: "reported via status code" }
            }
            status::MEASUREMENT_ORDER => SmError::MeasurementOrderViolation,
            status::UNKNOWN_RESOURCE => SmError::UnknownResource,
            status::RESOURCE_STATE => {
                SmError::ResourceStateViolation { reason: "reported via status code" }
            }
            status::NO_RESOURCES => {
                SmError::OutOfResources { resource: "reported via status code" }
            }
            status::CONCURRENT => SmError::ConcurrentCall,
            status::MAIL_NOT_ACCEPTED => SmError::MailNotAccepted,
            status::MAILBOX_UNAVAILABLE => SmError::MailboxUnavailable,
            status::PLATFORM => SmError::Platform(IsolationError::ResourceExhausted {
                resource: "reported via status code",
            }),
            status::MEMORY => SmError::Memory,
            status::AGAIN => SmError::Again,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(call: SmCall) {
        let encoded = call.encode();
        let decoded = SmCall::decode(&encoded).expect("decodes");
        assert_eq!(decoded, call);
        assert_eq!(encoded[0], call.number());
    }

    fn sample_calls() -> Vec<SmCall> {
        vec![
            SmCall::CreateEnclave {
                evrange_base: VirtAddr::new(0x10000),
                evrange_len: 0x8000,
                region: RegionId::new(3),
            },
            SmCall::AllocatePageTable { eid: EnclaveId::new(0x8010_0000) },
            SmCall::LoadPage {
                eid: EnclaveId::new(0x8010_0000),
                vaddr: VirtAddr::new(0x11000),
                src: PhysAddr::new(0x8200_0000).into(),
                perms: MemPerms::RX,
            },
            SmCall::LoadThread { eid: EnclaveId::new(1), entry_pc: 0x40 },
            SmCall::InitEnclave { eid: EnclaveId::new(1) },
            SmCall::DeleteEnclave { eid: EnclaveId::new(1) },
            SmCall::EnterEnclave { eid: EnclaveId::new(1), tid: 0x1001 },
            SmCall::ExitEnclave {},
            SmCall::BlockRegion { region: RegionId::new(7) },
            SmCall::CleanRegion { region: RegionId::new(7) },
            SmCall::GrantRegion { region: RegionId::new(7), owner_eid: 0 },
            SmCall::AcceptMail { mailbox: 1, sender_id: 0x8020_0000 },
            SmCall::SendMail {
                recipient: EnclaveId::new(0x8020_0000),
                msg_addr: PhysAddr::new(0x8300_0000).into(),
                msg_len: 64,
            },
            SmCall::GetMail {
                mailbox: 0,
                out_addr: PhysAddr::new(0x8300_1000).into(),
                out_len: 1024,
            },
            SmCall::GetField { field: 2 },
            SmCall::Batch { table: PhysAddr::new(0x8300_2000).into(), count: 4 },
            SmCall::PeekMail { mailbox: 2 },
        ]
    }

    #[test]
    fn all_registered_calls_round_trip() {
        let samples = sample_calls();
        // One sample per registry row, so new calls must extend this test.
        assert_eq!(samples.len(), CALL_TABLE.len());
        for call in samples {
            round_trip(call);
        }
    }

    #[test]
    fn call_table_is_consistent() {
        // Numbers are unique and match what the enum reports.
        let mut numbers: Vec<u64> = CALL_TABLE.iter().map(|c| c.number).collect();
        numbers.sort_unstable();
        numbers.dedup();
        assert_eq!(numbers.len(), CALL_TABLE.len(), "duplicate call numbers");
        for (call, info) in sample_calls().iter().zip(CALL_TABLE) {
            assert_eq!(call.number(), info.number);
            assert_eq!(call.name(), info.name);
            assert_eq!(call.context_switches(), info.context_switches);
            assert_eq!(call.mutates_isolation(), info.mutates_isolation);
        }
        // Exactly the two scheduling calls switch context.
        let switching: Vec<&str> = CALL_TABLE
            .iter()
            .filter(|c| c.context_switches)
            .map(|c| c.name)
            .collect();
        assert_eq!(switching, ["EnterEnclave", "ExitEnclave"]);
        // Exactly the resource/lifecycle calls that reprogram the isolation
        // primitive are flagged for batch-table revalidation.
        let isolating: Vec<&str> = CALL_TABLE
            .iter()
            .filter(|c| c.mutates_isolation)
            .map(|c| c.name)
            .collect();
        assert_eq!(
            isolating,
            ["CreateEnclave", "DeleteEnclave", "BlockRegion", "CleanRegion", "GrantRegion"]
        );
    }

    #[test]
    fn unknown_call_number_rejected() {
        assert_eq!(
            SmCall::decode(&[999, 0, 0, 0, 0, 0]),
            Err(DecodeError::UnknownCallNumber(999))
        );
        assert_eq!(
            SmCall::decode(&[0, 0, 0, 0, 0, 0]),
            Err(DecodeError::UnknownCallNumber(0))
        );
    }

    #[test]
    fn status_mapping_is_a_bijection() {
        // Canonical representative of every SmError variant class.
        let representatives = [
            SmError::Unauthorized,
            SmError::UnknownEnclave(EnclaveId::new(0x80)),
            SmError::UnknownThread(9),
            SmError::InvalidState { reason: "r" },
            SmError::InvalidArgument { reason: "r" },
            SmError::MeasurementOrderViolation,
            SmError::UnknownResource,
            SmError::ResourceStateViolation { reason: "r" },
            SmError::OutOfResources { resource: "r" },
            SmError::ConcurrentCall,
            SmError::MailNotAccepted,
            SmError::MailboxUnavailable,
            SmError::Platform(IsolationError::UnknownRegion(RegionId::new(1))),
            SmError::Memory,
            SmError::Again,
        ];

        // Compile-time exhaustiveness: every SmError variant class must be
        // named here with no wildcard arm, so adding a variant breaks this
        // test at compile time until a representative (and status code) is
        // added above.
        for err in &representatives {
            match err {
                SmError::Unauthorized
                | SmError::UnknownEnclave(_)
                | SmError::UnknownThread(_)
                | SmError::InvalidState { .. }
                | SmError::InvalidArgument { .. }
                | SmError::MeasurementOrderViolation
                | SmError::UnknownResource
                | SmError::ResourceStateViolation { .. }
                | SmError::OutOfResources { .. }
                | SmError::ConcurrentCall
                | SmError::MailNotAccepted
                | SmError::MailboxUnavailable
                | SmError::Platform(_)
                | SmError::Memory
                | SmError::Again => {}
            }
        }

        // Injective: each class maps to a distinct, non-OK code...
        let mut codes: Vec<u64> = representatives.iter().map(status_of).collect();
        assert!(codes.iter().all(|&c| c != status::OK && c != status::ILLEGAL_CALL));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), representatives.len(), "status codes must be distinct");
        // ...exactly the assigned range: 1..=14 plus AGAIN (15 is reserved
        // for ILLEGAL_CALL, which has no SmError counterpart).
        let expected: Vec<u64> = (1..=14).chain([status::AGAIN]).collect();
        assert_eq!(codes, expected, "codes must cover the assigned range exactly");

        // ...and surjective onto the assigned codes, with from_status a
        // two-sided inverse on variant classes.
        for err in &representatives {
            let code = status_of(err);
            let back = SmError::from_status(code).expect("assigned code");
            assert_eq!(
                std::mem::discriminant(err),
                std::mem::discriminant(&back),
                "variant class must round-trip through {code}"
            );
            assert_eq!(status_of(&back), code, "code must round-trip exactly");
        }

        // Codes outside the assigned range have no error.
        assert_eq!(SmError::from_status(status::OK), None);
        assert_eq!(SmError::from_status(status::ILLEGAL_CALL), None);
        assert_eq!(SmError::from_status(999), None);
    }
}
