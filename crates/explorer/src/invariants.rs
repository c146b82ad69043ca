//! The invariant kernel: first-class security properties checked after every
//! explorer step.
//!
//! Each check formalizes one guarantee the paper's monitor makes:
//!
//! * **resource exclusivity** — every region has exactly one Fig. 2 state,
//!   regions owned by enclaves belong to live enclaves, live enclaves own
//!   their windows, protected ranges never overlap, and core occupancy is
//!   consistent with thread state;
//! * **clean-before-reuse** — a region entering the *Available* state holds
//!   only zeroes (the scrub happened before the state transition, never
//!   after);
//! * **mailbox confidentiality** — the SM-recorded sender identity of
//!   delivered mail matches the actual sending domain, and a message is only
//!   ever delivered to the enclave whose mailbox queued it;
//! * **mail quota conservation** — the fabric's outstanding-message ledger
//!   equals, sender by sender, the messages actually queued across every
//!   live enclave's mailboxes, and no sender ever exceeds the fabric quota
//!   (the anti-DoS property the multi-slot queues depend on);
//! * **no secret leakage** — no OS-visible hart register ever holds a live
//!   enclave secret (cores are scrubbed on every enclave → OS hand-off), and
//!   no OS-readable DRAM page outside the OS's own staging area ever holds
//!   one (DMA filters and access control contain enclave data);
//! * **adversary containment** — every scripted attack mounted mid-trace is
//!   blocked.
//!
//! Measurement determinism and cross-backend agreement are checked one level
//! up, in [`crate::diff`], because they compare *across* steps and worlds.
//!
//! Every check is *incremental*: the monitor's [`AuditSnapshot`] carries
//! monotone generation counters for each state component, the machine tracks
//! written pages in a dirty bitmap, and the access-control table counts its
//! mutations — so a step that changed nothing costs a handful of counter
//! compares, and a step that changed something pays only for what it
//! touched. The memory secret scan reads dirtied pages instead of rescanning
//! DRAM, which is what lets the kernel run after every step of a large seed
//! sweep; clean-before-reuse complements it by inspecting a region's full
//! contents at the moment it transitions to *Available*, covering ownership
//! hand-offs that writes alone would not flag.

use sanctorum_core::monitor::{AuditSnapshot, TestWeakening};
use sanctorum_core::resource::{ResourceId, ResourceState};
use sanctorum_hal::addr::{PhysAddr, PAGE_SIZE};
use sanctorum_hal::domain::{CoreId, DomainKind};
use sanctorum_hal::isolation::RegionId;
use sanctorum_hal::perm::MemPerms;
use sanctorum_machine::MachineConfig;
use sanctorum_os::ops::{Op, OpOutcome, OpWorld};
use sanctorum_os::system::PlatformKind;

/// A detected violation of one invariant. The explorer stops at the first
/// violation and reports it with its replay coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The resource-exclusivity invariant broke.
    ExclusivityBroken {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// What exactly broke.
        detail: String,
    },
    /// A region became *Available* while still holding non-zero bytes.
    DirtyReuse {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// The dirty region.
        region: RegionId,
        /// Offset of the first non-zero byte inside the region.
        offset: u64,
    },
    /// Two builds of the same recipe produced different measurements.
    MeasurementMismatch {
        /// Human-readable recipe description.
        detail: String,
    },
    /// Delivered mail carried a wrong SM-recorded sender identity.
    MailboxLeak {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// The op that exposed it.
        detail: String,
    },
    /// The mail-fabric quota accounting broke: a sender exceeded its quota,
    /// or the outstanding ledger stopped agreeing with the messages actually
    /// queued across the live enclaves' mailboxes.
    MailQuotaBroken {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// What exactly broke.
        detail: String,
    },
    /// The attestation service plane degraded: a selected client ended a
    /// round without verified evidence (request dropped, reply mis-routed,
    /// or evidence unverifiable) — distinct from an identity *forgery*,
    /// which reports as [`Violation::MailboxLeak`].
    ServiceDegraded {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// The op that exposed it.
        detail: String,
    },
    /// An OS-visible register holds a live enclave secret.
    SecretLeak {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// The leaked secret value.
        secret: u64,
        /// The core whose register file holds it.
        core: u32,
        /// The register index.
        register: usize,
    },
    /// An OS-readable DRAM page (outside the OS's own staging area) holds a
    /// live enclave secret.
    SecretInMemory {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// The leaked secret value.
        secret: u64,
        /// Physical address of the leaked word.
        addr: u64,
    },
    /// Crash residue survived recovery: the mutation journal still holds
    /// pending intent entries after the monitor returned to the OS (every
    /// completed call completes its entry; only `recover()` may clear a
    /// crash's leftovers), or a quarantined region drifted out of the
    /// *Blocked* state it must hold until its scrub is retried.
    CrashResidue {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// What exactly was left behind.
        detail: String,
    },
    /// A scripted attack succeeded.
    AttackSucceeded {
        /// Platform the violation was observed on.
        platform: &'static str,
        /// The op that mounted the attack.
        detail: String,
    },
    /// The two backends' OS-visible outcomes diverged outside the declared
    /// platform capacity differences.
    Divergence {
        /// Outcome summary on Sanctum.
        sanctum: String,
        /// Outcome summary on Keystone.
        keystone: String,
    },
}

impl Violation {
    /// The violation's kind tag (used by the shrinker to decide whether a
    /// shortened trace still reproduces "the same" failure).
    pub const fn kind(&self) -> &'static str {
        match self {
            Violation::ExclusivityBroken { .. } => "exclusivity",
            Violation::DirtyReuse { .. } => "dirty-reuse",
            Violation::MeasurementMismatch { .. } => "measurement",
            Violation::MailboxLeak { .. } => "mailbox",
            Violation::MailQuotaBroken { .. } => "mail-quota",
            Violation::ServiceDegraded { .. } => "service-plane",
            Violation::SecretLeak { .. } => "secret-leak",
            Violation::SecretInMemory { .. } => "secret-in-memory",
            Violation::CrashResidue { .. } => "crash-residue",
            Violation::AttackSucceeded { .. } => "attack",
            Violation::Divergence { .. } => "divergence",
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::ExclusivityBroken { platform, detail } => {
                write!(f, "[{platform}] exclusivity broken: {detail}")
            }
            Violation::DirtyReuse { platform, region, offset } => write!(
                f,
                "[{platform}] {region} became available with dirty byte at offset {offset:#x}"
            ),
            Violation::MeasurementMismatch { detail } => {
                write!(f, "measurement determinism broken: {detail}")
            }
            Violation::MailboxLeak { platform, detail } => {
                write!(f, "[{platform}] mailbox identity leak: {detail}")
            }
            Violation::MailQuotaBroken { platform, detail } => {
                write!(f, "[{platform}] mail quota accounting broken: {detail}")
            }
            Violation::ServiceDegraded { platform, detail } => {
                write!(f, "[{platform}] attestation service degraded: {detail}")
            }
            Violation::SecretLeak { platform, secret, core, register } => write!(
                f,
                "[{platform}] secret {secret:#x} visible in core{core} x{register}"
            ),
            Violation::SecretInMemory { platform, secret, addr } => write!(
                f,
                "[{platform}] secret {secret:#x} resident in OS-readable memory at {addr:#x}"
            ),
            Violation::CrashResidue { platform, detail } => {
                write!(f, "[{platform}] crash residue survived recovery: {detail}")
            }
            Violation::AttackSucceeded { platform, detail } => {
                write!(f, "[{platform}] attack succeeded: {detail}")
            }
            Violation::Divergence { sanctum, keystone } => write!(
                f,
                "backends diverged: sanctum={sanctum} keystone={keystone}"
            ),
        }
    }
}

/// Checks the mail-fabric quota conservation property over one snapshot:
/// the outstanding ledger must equal, sender by sender, the messages
/// actually queued across every live enclave's mailboxes, and no sender may
/// ever exceed [`sanctorum_core::mailbox::MAIL_SENDER_QUOTA`]. One
/// definition shared by the in-kernel check and the fabric property tests,
/// so the rule cannot silently fork.
///
/// # Errors
///
/// Returns a human-readable description of the first discrepancy.
pub fn mail_quota_conservation(audit: &AuditSnapshot) -> Result<(), String> {
    use sanctorum_core::mailbox::MAIL_SENDER_QUOTA;
    use std::collections::BTreeMap;
    let mut queued: BTreeMap<u64, u64> = BTreeMap::new();
    for enclave in &audit.enclaves {
        for (sender, _len) in &enclave.mail_queued {
            *queued.entry(*sender).or_default() += 1;
        }
    }
    let ledger: BTreeMap<u64, u64> = audit.mail_outstanding.iter().copied().collect();
    if queued != ledger {
        return Err(format!(
            "ledger {ledger:?} disagrees with queued messages {queued:?}"
        ));
    }
    if let Some((sender, count)) = ledger.iter().find(|(_, c)| **c > MAIL_SENDER_QUOTA as u64) {
        return Err(format!(
            "sender {sender:#x} holds {count} undelivered messages (quota {MAIL_SENDER_QUOTA})"
        ));
    }
    Ok(())
}

/// An [`OpWorld`] wrapped with the invariant kernel: every applied op is
/// followed by a check pass whose cost is proportional to what the op
/// actually changed — the previous step's [`AuditSnapshot`] (cheap to keep,
/// it shares its payload by `Arc`) and its generation counters tell the
/// kernel which check families can be skipped, and the machine's dirty-page
/// bitmap feeds the memory secret scan.
#[derive(Debug)]
pub struct CheckedWorld {
    /// The underlying world.
    pub world: OpWorld,
    platform: &'static str,
    /// Base of the OS staging region: the one piece of OS memory that
    /// legitimately holds enclave secrets (the OS stages page images there
    /// itself before `load_page`), so the memory secret scan excludes it.
    staging_base: PhysAddr,
    staging_len: u64,
    /// The snapshot the previous check pass ran over.
    prev: AuditSnapshot,
    /// Access-control generation the overlap check last validated.
    prev_access_generation: u64,
    /// Forces one complete pass before incremental skipping starts.
    first_check: bool,
}

impl CheckedWorld {
    /// Boots a checked world, optionally installing a deliberate monitor
    /// weakening (the explorer's self-check path).
    pub fn boot(
        platform: PlatformKind,
        config: MachineConfig,
        weaken: Option<TestWeakening>,
    ) -> Self {
        let world = OpWorld::boot(platform, config);
        world.system.monitor.weaken_for_testing(weaken);
        let prev = world.system.monitor.audit();
        let staging_base = world.os.staging_base();
        let staging_len = world.system.machine.config().dram_region_size as u64;
        Self {
            world,
            platform: platform.name(),
            staging_base,
            staging_len,
            prev,
            prev_access_generation: 0,
            first_check: true,
        }
    }

    /// The platform name this world runs on.
    pub const fn platform(&self) -> &'static str {
        self.platform
    }

    /// Applies one op and runs the invariant kernel over the result.
    ///
    /// # Errors
    ///
    /// Returns the first violation detected after the op.
    pub fn step(&mut self, hart: CoreId, op: &Op) -> Result<OpOutcome, Violation> {
        let outcome = self.world.apply(hart, op);
        if outcome.mail_identity_ok == Some(false) {
            return Err(Violation::MailboxLeak {
                platform: self.platform,
                detail: format!("{op:?}"),
            });
        }
        if outcome.service_ok == Some(false) {
            return Err(Violation::ServiceDegraded {
                platform: self.platform,
                detail: format!("{op:?}"),
            });
        }
        if outcome.attack_blocked == Some(false) {
            return Err(Violation::AttackSucceeded {
                platform: self.platform,
                detail: format!("{op:?}"),
            });
        }
        self.check_invariants()?;
        Ok(outcome)
    }

    fn region_geometry(&self, region: RegionId) -> (PhysAddr, u64) {
        let config = self.world.system.machine.config();
        let base = config
            .memory_base
            .offset((region.index() * config.dram_region_size) as u64);
        (base, config.dram_region_size as u64)
    }

    fn check_invariants(&mut self) -> Result<(), Violation> {
        let audit = self.world.system.monitor.audit();
        let machine = &self.world.system.machine;
        let fail = |detail: String| Violation::ExclusivityBroken {
            platform: self.platform,
            detail,
        };

        // Equal generations certify equal monitor state, so the whole
        // SM-state check family can be skipped when no SM call mutated
        // anything this step (probes, rejected calls, pure guest execution).
        let sm_changed = self.first_check || audit.generations != self.prev.generations;
        let resources_changed = self.first_check
            || audit.generations.resources != self.prev.generations.resources;

        // --- resource exclusivity -------------------------------------
        if sm_changed {
            for (id, state) in audit.resources.iter() {
                if let (ResourceId::Region(region), ResourceState::Owned(DomainKind::Enclave(eid))) =
                    (id, state)
                {
                    if audit.enclave(*eid).is_none() {
                        return Err(fail(format!("{region} owned by dead enclave {eid}")));
                    }
                }
            }
            for enclave in &audit.enclaves {
                for region in &enclave.regions {
                    match audit.resource(ResourceId::Region(*region)) {
                        Some(ResourceState::Owned(DomainKind::Enclave(owner)))
                            if owner == enclave.id => {}
                        other => {
                            return Err(fail(format!(
                                "window {region} of {} is in state {other:?}",
                                enclave.id
                            )))
                        }
                    }
                }
                // Lifecycle consistency: a measurement exists exactly once the
                // enclave is sealed.
                if enclave.initialized != enclave.measurement.is_some() {
                    return Err(fail(format!(
                        "{} initialized={} but measurement present={}",
                        enclave.id,
                        enclave.initialized,
                        enclave.measurement.is_some()
                    )));
                }
                // The running-thread count the enclave metadata carries must
                // agree with the occupancy table, and every occupied thread
                // must be one the enclave actually lists.
                let occupied = audit
                    .core_occupancy
                    .iter()
                    .filter(|(_, tid)| enclave.threads.contains(tid))
                    .count();
                if occupied != enclave.running_threads {
                    return Err(fail(format!(
                        "{} claims {} running threads but {} of its threads occupy cores",
                        enclave.id, enclave.running_threads, occupied
                    )));
                }
            }
            for (core, tid) in audit.core_occupancy.iter() {
                // Every occupied thread belongs to exactly one live enclave...
                let owners = audit
                    .enclaves
                    .iter()
                    .filter(|e| e.threads.contains(tid))
                    .count();
                if owners != 1 {
                    return Err(fail(format!(
                        "occupancy names thread {tid} on {core} but {owners} live enclaves list it"
                    )));
                }
                // ...and its own state machine agrees it runs on that core.
                match self.world.system.monitor.thread_state(*tid) {
                    Ok(state) => {
                        let running_here = matches!(
                            state,
                            sanctorum_core::thread::ThreadState::Running { core: c, .. } if c == *core
                        );
                        if !running_here {
                            return Err(fail(format!(
                                "occupancy names thread {tid} on {core} but its state is {state:?}"
                            )));
                        }
                    }
                    Err(_) => {
                        return Err(fail(format!(
                            "occupancy names unknown thread {tid} on {core}"
                        )))
                    }
                }
            }
        }

        // --- crash residue --------------------------------------------
        // Between SM calls the mutation journal must be empty: every call
        // completes its intent entry on every return path, and `recover()`
        // replays a crash's leftovers. Pending entries here mean a crash's
        // residue survived recovery (the `skip-journal-replay` weakening's
        // signature). A quarantined region must also still be *Blocked* —
        // quarantine exists precisely to pin un-scrubbed regions there.
        let pending = self.world.system.monitor.journal_pending();
        if pending != 0 {
            return Err(Violation::CrashResidue {
                platform: self.platform,
                detail: format!("{pending} journal entries still pending after recovery"),
            });
        }
        if sm_changed {
            for region in audit.quarantine.iter() {
                let state = audit.resource(ResourceId::Region(*region));
                if !matches!(state, Some(ResourceState::Blocked(_))) {
                    return Err(Violation::CrashResidue {
                        platform: self.platform,
                        detail: format!(
                            "quarantined {region} is in state {state:?}, not Blocked"
                        ),
                    });
                }
            }
        }

        // --- mail-fabric quota conservation ---------------------------
        // Gated on the fabric's own generation (send/get/teardown purge)
        // plus the enclave table's (queues live inside enclave metadata).
        let mail_changed = self.first_check
            || audit.generations.mail != self.prev.generations.mail
            || audit.generations.enclaves != self.prev.generations.enclaves;
        if mail_changed {
            if let Err(detail) = mail_quota_conservation(&audit) {
                return Err(Violation::MailQuotaBroken {
                    platform: self.platform,
                    detail,
                });
            }
        }

        // --- protected ranges never overlap ---------------------------
        // Gated on the access-control table's own mutation counter: the
        // O(ranges²) sweep only reruns when the table changed.
        let access_generation = machine.access_generation();
        if self.first_check || access_generation != self.prev_access_generation {
            let ranges = machine.protected_ranges();
            for (i, a) in ranges.iter().enumerate() {
                for b in ranges.iter().skip(i + 1) {
                    let a_end = a.base.as_u64() + a.len;
                    let b_end = b.base.as_u64() + b.len;
                    if a.base.as_u64() < b_end && b.base.as_u64() < a_end {
                        return Err(fail(format!(
                            "protected ranges overlap: {:#x}+{:#x} and {:#x}+{:#x}",
                            a.base.as_u64(),
                            a.len,
                            b.base.as_u64(),
                            b.len
                        )));
                    }
                }
            }
            self.prev_access_generation = access_generation;
        }

        // --- clean-before-reuse ---------------------------------------
        // A region's whole contents are inspected at the moment it
        // transitions to *Available*: the scrub must have happened before
        // the Fig. 2 transition. Resource transitions are step-rare, so the
        // per-step cost is the generation compare.
        let mut changed_regions: Vec<RegionId> = Vec::new();
        if resources_changed {
            for (id, state) in audit.resources.iter() {
                let ResourceId::Region(region) = id else { continue };
                // `prev` is valid from boot on (captured in `boot()`), so
                // even the forced first pass diffs against real state.
                let previous = self.prev.resource(*id);
                if previous == Some(*state) {
                    continue;
                }
                changed_regions.push(*region);
                let became_available = *state == ResourceState::Available
                    && previous != Some(ResourceState::Available);
                if became_available {
                    let (base, len) = self.region_geometry(*region);
                    let dirty_at = machine.with_memory(|mem| {
                        for offset in (0..len).step_by(PAGE_SIZE) {
                            // A page with no storage reads as zeroes.
                            let Some(page) = mem
                                .backed_page(base.offset(offset))
                                .expect("region memory is populated DRAM")
                            else {
                                continue;
                            };
                            if let Some(position) = page.iter().position(|&b| b != 0) {
                                return Some(offset + position as u64);
                            }
                        }
                        None
                    });
                    if let Some(offset) = dirty_at {
                        return Err(Violation::DirtyReuse {
                            platform: self.platform,
                            region: *region,
                            offset,
                        });
                    }
                }
            }
        }

        // --- no secret in OS-visible registers ------------------------
        let secrets: Vec<u64> = self.world.live_secrets().collect();
        if !secrets.is_empty() {
            for core in 0..machine.num_harts() {
                let hart = machine.hart(CoreId::new(core as u32));
                if hart.domain.is_enclave() {
                    continue;
                }
                for (register, value) in hart.regs.iter().enumerate() {
                    if secrets.contains(value) {
                        return Err(Violation::SecretLeak {
                            platform: self.platform,
                            secret: *value,
                            core: core as u32,
                            register,
                        });
                    }
                }
            }
        }

        // --- no secret in OS-readable memory (dirty pages only) -------
        // The bitmap is drained every step so the backlog stays one step
        // deep; pages of regions whose Fig. 2 state moved this step are
        // rescanned too, since an ownership change can expose bytes written
        // (and drained) many steps ago.
        let dirty_pages = machine.drain_dirty_pages();
        if !secrets.is_empty() {
            self.scan_pages_for_secrets(&dirty_pages, &changed_regions, &secrets)?;
        }

        self.prev = audit;
        self.first_check = false;
        Ok(())
    }

    /// Scans the given DRAM pages (by index) plus every page of the given
    /// regions for 64-bit words equal to a live secret, skipping pages the
    /// untrusted domain cannot read and the OS staging area (which holds
    /// staged secrets legitimately — the OS wrote them there itself).
    fn scan_pages_for_secrets(
        &self,
        pages: &[u64],
        regions: &[RegionId],
        secrets: &[u64],
    ) -> Result<(), Violation> {
        let machine = &self.world.system.machine;
        let config = machine.config();
        let region_pages = (config.dram_region_size / PAGE_SIZE) as u64;
        let mut candidates: Vec<u64> = pages.to_vec();
        for region in regions {
            let first = region.index() as u64 * region_pages;
            candidates.extend(first..first + region_pages);
        }
        candidates.sort_unstable();
        candidates.dedup();

        let staging_end = self.staging_base.as_u64() + self.staging_len;
        // Resolve readability first (access lock), then scan every readable
        // page in place under a single memory lock.
        candidates.retain(|index| {
            let addr = config.memory_base.offset(index * PAGE_SIZE as u64);
            (addr.as_u64() < self.staging_base.as_u64() || addr.as_u64() >= staging_end)
                // Only memory the adversary can actually read can leak to it.
                && machine.check_access(DomainKind::Untrusted, addr, MemPerms::READ)
        });
        let hit = machine.with_memory(|mem| {
            for index in candidates {
                let addr = config.memory_base.offset(index * PAGE_SIZE as u64);
                // A secret is never zero (tagged values), so a page with no
                // storage, which reads as zeroes, cannot hold one.
                let Some(page) = mem.backed_page(addr).expect("dirty pages are populated DRAM")
                else {
                    continue;
                };
                for (word_index, chunk) in page.chunks_exact(8).enumerate() {
                    let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                    // Fast path: zero words cannot be secrets either.
                    if word != 0 && secrets.contains(&word) {
                        return Some((word, addr.as_u64() + (word_index * 8) as u64));
                    }
                }
            }
            None
        });
        if let Some((secret, addr)) = hit {
            return Err(Violation::SecretInMemory {
                platform: self.platform,
                secret,
                addr,
            });
        }
        Ok(())
    }
}
