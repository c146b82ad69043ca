//! The machine facade: configuration, shared components and the guest
//! execution loop.

use crate::access::{AccessControl, AccessRange};
use crate::cache::{CacheGeometry, CacheModel, PartitionId};
use crate::dma::{pages_touched, DmaError};
use crate::guest::{ExitReason, GuestOp, GuestProgram, RunResult};
use crate::hart::{HartState, PrivilegeLevel, NUM_REGS};
use crate::mem::{MemError, PhysMemory};
use crate::pagetable::{PageTableWalker, WalkOutcome};
use crate::tlb::{Tlb, TlbEntry};
use crate::trap::{AccessKind, Interrupt, TrapCause};
use parking_lot::{Mutex, MutexGuard, RwLock};
use sanctorum_hal::addr::{PhysAddr, Span, VirtAddr, PAGE_SIZE};
use sanctorum_hal::cycles::{CostModel, Cycles};
use sanctorum_hal::domain::{CoreId, DomainKind};
use sanctorum_hal::perm::MemPerms;
use sanctorum_hal::root::SimulatedRootOfTrust;
use sanctorum_trust::{AccessOracle, CanRead, CanWrite, Checked, Sanitizer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Static configuration of a simulated machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of harts (in-order, single-threaded cores).
    pub num_harts: usize,
    /// Base physical address of DRAM.
    pub memory_base: PhysAddr,
    /// DRAM size in bytes (page aligned).
    pub memory_size: usize,
    /// Size of one isolable DRAM region in bytes — the Sanctum backend carves
    /// memory into regions of exactly this size (the paper's hardware uses
    /// 32 MiB; the simulation scales this down so tests stay fast).
    pub dram_region_size: usize,
    /// Number of TLB entries per hart.
    pub tlb_entries: usize,
    /// Geometry of the shared last-level cache.
    pub cache: CacheGeometry,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Number of PMP entries available to a Keystone-style backend.
    pub pmp_entries: usize,
    /// Device serial number (roots the simulated PKI).
    pub device_id: u64,
}

impl MachineConfig {
    /// A small two-hart machine with 8 MiB of DRAM in 1 MiB regions —
    /// the default for unit tests.
    pub fn small() -> Self {
        Self {
            num_harts: 2,
            memory_base: PhysAddr::new(0x8000_0000),
            memory_size: 8 * 1024 * 1024,
            dram_region_size: 1024 * 1024,
            tlb_entries: 32,
            cache: CacheGeometry {
                sets: 256,
                ways: 4,
                line_size: 64,
            },
            cost: CostModel::default_model(),
            pmp_entries: 8,
            device_id: 0x5a17c70b,
        }
    }

    /// A larger four-hart machine with 64 MiB of DRAM in 4 MiB regions —
    /// used by the benchmark harness.
    pub fn default_config() -> Self {
        Self {
            num_harts: 4,
            memory_base: PhysAddr::new(0x8000_0000),
            memory_size: 64 * 1024 * 1024,
            dram_region_size: 4 * 1024 * 1024,
            tlb_entries: 64,
            cache: CacheGeometry::default_llc(),
            cost: CostModel::default_model(),
            pmp_entries: 16,
            device_id: 0xdec0de00,
        }
    }

    /// Number of DRAM regions implied by the memory size and region size.
    pub fn num_regions(&self) -> usize {
        self.memory_size / self.dram_region_size
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::default_config()
    }
}

/// Errors surfaced by privileged physical-memory helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// The underlying physical access failed.
    Memory(MemError),
    /// The hart id does not exist on this machine.
    UnknownHart(CoreId),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::Memory(e) => write!(f, "{e}"),
            MachineError::UnknownHart(c) => write!(f, "unknown hart {c}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<MemError> for MachineError {
    fn from(e: MemError) -> Self {
        MachineError::Memory(e)
    }
}

/// The simulated machine.
///
/// All components use interior mutability so the machine can be shared (via
/// `Arc`) between the security monitor, the untrusted OS model and several
/// host threads driving different harts concurrently.
///
/// # Cross-hart concurrency protocol
///
/// The machine's locks are **leaves** of the system's lock hierarchy: no
/// machine method ever calls back into the monitor, so holding monitor
/// locks while taking machine locks is safe and the reverse never happens
/// (the monitor's debug lock-order checker therefore does not track them).
/// Internally:
///
/// * `memory` and `access` are reader-writer locks — two harts can fault,
///   translate and load pages concurrently (page-table walks and access
///   checks take shared read locks); only stores, DMA, zeroing and the
///   digest cache take the write lock. Both dirty-page bitmaps live inside
///   `PhysMemory`, so every mutator marks them under the same write lock
///   that changes the bytes — a drain can never race a write into
///   under-reporting. A caller of [`Machine::with_memory_mut`] may cross
///   fault points while it holds the write lock (the monitor's region
///   scrub crosses one per page), so the fault injector's lock nests
///   inside the memory write lock; the injector never takes a machine
///   lock, so the nesting cannot invert.
/// * `harts`, `tlbs` and `pending_interrupts` are per-hart locks: harts
///   never take each other's state lock except in `tlb_shootdown`
///   (which takes the TLB locks one at a time, never nested).
/// * `partition_map` is a reader-writer lock: it is read on every guest
///   memory access by every hart and written only when the monitor
///   assigns a cache partition.
/// * `cache` (the LLC model) and `trng` are plain mutexes: both model
///   genuinely serialized hardware resources.
pub struct Machine {
    config: MachineConfig,
    memory: RwLock<PhysMemory>,
    access: RwLock<AccessControl>,
    cache: Mutex<CacheModel>,
    harts: Vec<Mutex<HartState>>,
    tlbs: Vec<Mutex<Tlb>>,
    partition_map: RwLock<HashMap<DomainKind, PartitionId>>,
    walker: PageTableWalker,
    total_cycles: AtomicU64,
    pending_interrupts: Vec<Mutex<Vec<Interrupt>>>,
    trng: Mutex<u64>,
    root_of_trust: SimulatedRootOfTrust,
    fault: crate::fault::FaultInjector,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Machine {{ harts: {}, memory: {:#x} bytes, regions: {} }}",
            self.config.num_harts,
            self.config.memory_size,
            self.config.num_regions()
        )
    }
}

impl Machine {
    /// Creates a machine from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no harts, unaligned memory
    /// size, or a region size that does not divide the memory size).
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.num_harts > 0, "machine needs at least one hart");
        assert_eq!(
            config.memory_size % config.dram_region_size,
            0,
            "region size must divide memory size"
        );
        let memory = PhysMemory::new(config.memory_base, config.memory_size);
        let harts = (0..config.num_harts)
            .map(|i| Mutex::new(HartState::new(CoreId::new(i as u32))))
            .collect();
        let tlbs = (0..config.num_harts)
            .map(|_| Mutex::new(Tlb::new(config.tlb_entries)))
            .collect();
        let pending_interrupts = (0..config.num_harts).map(|_| Mutex::new(Vec::new())).collect();
        Self {
            memory: RwLock::new(memory),
            access: RwLock::new(AccessControl::new()),
            cache: Mutex::new(CacheModel::new(config.cache, config.cost)),
            harts,
            tlbs,
            partition_map: RwLock::new(HashMap::new()),
            walker: PageTableWalker::new(config.cost),
            total_cycles: AtomicU64::new(0),
            pending_interrupts,
            trng: Mutex::new(config.device_id ^ 0x9e3779b97f4a7c15),
            root_of_trust: SimulatedRootOfTrust::new(config.device_id),
            fault: crate::fault::FaultInjector::new(),
            config,
        }
    }

    /// Returns the machine's fault-injection switchboard. Disarmed by
    /// default; crash harnesses arm it around the operation under test.
    /// Injector state is deliberately outside [`state_digest`]
    /// (harts + DRAM only), so arming never perturbs replay digests.
    ///
    /// [`state_digest`]: Self::state_digest
    pub fn fault_injector(&self) -> &crate::fault::FaultInjector {
        &self.fault
    }

    /// Returns the machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Returns the device root of trust.
    pub fn root_of_trust(&self) -> &SimulatedRootOfTrust {
        &self.root_of_trust
    }

    /// Returns total cycles accumulated across all harts and SM operations.
    pub fn total_cycles(&self) -> Cycles {
        Cycles::new(self.total_cycles.load(Ordering::Relaxed))
    }

    /// Charges `cycles` to the global counter (the SM uses this to account
    /// for its own work: hashing, flushes, metadata updates).
    pub fn charge(&self, cycles: Cycles) {
        self.total_cycles.fetch_add(cycles.count(), Ordering::Relaxed);
    }

    /// Returns the cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.config.cost
    }

    /// Fingerprints the machine's deterministic state: every hart's
    /// architected state (registers, pc, privilege, domain, page-table root,
    /// pending trap) folded together with the full DRAM image.
    ///
    /// The machine steps deterministically — `run_guest` consumes no
    /// wall-clock or host randomness, interrupts are only ever raised
    /// explicitly, and the TRNG derives from the configured device id — so
    /// two machines driven by identical operation sequences must report
    /// identical digests. Replay harnesses (the adversarial explorer) assert
    /// exactly that before trusting a `(seed, step)` reproduction.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0u64;
        for hart in &self.harts {
            let hart = hart.lock();
            let mut words: Vec<u8> = Vec::with_capacity((NUM_REGS + 8) * 8);
            for reg in hart.regs.iter() {
                words.extend_from_slice(&reg.to_le_bytes());
            }
            words.extend_from_slice(&hart.pc.to_le_bytes());
            words.push(hart.privilege as u8);
            words.extend_from_slice(
                &match hart.domain {
                    DomainKind::Untrusted => 1u64,
                    DomainKind::SecurityMonitor => 2,
                    DomainKind::Enclave(eid) => 0x8000_0000_0000_0000 | eid.as_u64(),
                }
                .to_le_bytes(),
            );
            words.extend_from_slice(
                &hart
                    .page_table_root
                    .map(|r| r.as_u64())
                    .unwrap_or(u64::MAX)
                    .to_le_bytes(),
            );
            words.push(hart.pending_trap.is_some() as u8);
            h = crate::mem::fnv1a(h, &words);
        }
        // The memory fingerprint is cached per page and refreshed from the
        // dirty bitmap (see `PhysMemory::digest`), hence the write lock.
        self.memory.write().digest(h)
    }

    /// Fingerprints the per-hart queues of raised-but-undelivered
    /// interrupts.
    ///
    /// [`state_digest`](Self::state_digest) intentionally covers only
    /// architectural hart and memory state (its value is pinned by replay
    /// tests), but a queued interrupt changes future behavior — a world
    /// that has ticked differs from one that hasn't even before the
    /// interrupt is taken. State-space searches must fold this digest into
    /// their visited-set key alongside `state_digest` or they will prune
    /// unsoundly.
    pub fn pending_interrupt_digest(&self) -> u64 {
        let mut h = 0x1474u64;
        for pending in &self.pending_interrupts {
            let pending = pending.lock();
            let mut bytes: Vec<u8> = Vec::with_capacity(pending.len() + 1);
            bytes.push(0xfe);
            bytes.extend(pending.iter().map(|i| match i {
                Interrupt::Timer => 1u8,
                Interrupt::Software => 2,
                Interrupt::External => 3,
            }));
            h = crate::mem::fnv1a(h, &bytes);
        }
        h
    }

    /// Returns the indices (relative to `memory_base`, ascending) of every
    /// DRAM page written — by stores, DMA or zeroing — since the previous
    /// drain, and clears the tracking bitmap. The result is a superset of
    /// the pages whose contents actually changed (rewrites of identical
    /// bytes are still reported), so incremental scanners built on it never
    /// miss a write.
    pub fn drain_dirty_pages(&self) -> Vec<u64> {
        self.memory.write().drain_dirty_pages()
    }

    // ----- physical memory (privileged view) --------------------------------

    /// Reads bytes from physical memory with the SM's unrestricted view.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is not populated DRAM.
    pub fn phys_read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MachineError> {
        Ok(self.memory.read().read_bytes(addr, buf)?)
    }

    /// Writes bytes to physical memory with the SM's unrestricted view.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is not populated DRAM.
    pub fn phys_write(&self, addr: PhysAddr, data: &[u8]) -> Result<(), MachineError> {
        Ok(self.memory.write().write_bytes(addr, data)?)
    }

    /// Reads a `u64` from physical memory.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is not populated DRAM.
    pub fn phys_read_u64(&self, addr: PhysAddr) -> Result<u64, MachineError> {
        Ok(self.memory.read().read_u64(addr)?)
    }

    /// Writes a `u64` to physical memory.
    ///
    /// # Errors
    ///
    /// Returns an error if the range is not populated DRAM.
    pub fn phys_write_u64(&self, addr: PhysAddr, value: u64) -> Result<(), MachineError> {
        Ok(self.memory.write().write_u64(addr, value)?)
    }

    /// Zeroes the page containing `addr`, charging the zero-page cost.
    ///
    /// # Errors
    ///
    /// Returns an error if the page is not populated DRAM.
    pub fn zero_page(&self, addr: PhysAddr) -> Result<Cycles, MachineError> {
        self.memory.write().zero_page(addr)?;
        let cost = self.config.cost.zero_page;
        self.charge(cost);
        Ok(cost)
    }

    /// Runs `f` with a mutable reference to physical memory (used by loaders
    /// that need multi-step exclusive access, e.g. the page-table builder,
    /// and by the monitor's region scrub).
    pub fn with_memory_mut<R>(&self, f: impl FnOnce(&mut PhysMemory) -> R) -> R {
        f(&mut self.memory.write())
    }

    /// Runs `f` with a shared reference to physical memory.
    pub fn with_memory<R>(&self, f: impl FnOnce(&PhysMemory) -> R) -> R {
        f(&self.memory.read())
    }

    // ----- access control ----------------------------------------------------

    /// Runs `f` with the mutable access-control table (platform backends use
    /// this to program isolation).
    pub fn with_access_mut<R>(&self, f: impl FnOnce(&mut AccessControl) -> R) -> R {
        f(&mut self.access.write())
    }

    /// Runs `f` with the shared access-control table.
    pub fn with_access<R>(&self, f: impl FnOnce(&AccessControl) -> R) -> R {
        f(&self.access.read())
    }

    /// Convenience wrapper checking whether `domain` may access `addr`.
    pub fn check_access(&self, domain: DomainKind, addr: PhysAddr, perms: MemPerms) -> bool {
        self.access.read().check(domain, addr, perms).is_allowed()
    }

    // ----- trust boundary (checked sinks) -----------------------------------

    /// A [`Sanitizer`] backed by this machine's access table and DRAM
    /// geometry — the only way untrusted addresses become usable.
    pub fn sanitizer(&self) -> Sanitizer<'_> {
        Sanitizer::new(self)
    }

    /// Reads `buf.len()` bytes at `offset` within a span the caller proved
    /// readable. Access was discharged when the proof was minted; DRAM
    /// containment is (deliberately) still checked here, so requests naming
    /// unpopulated addresses keep failing at the copy, exactly where the
    /// unchecked `phys_read` used to fail.
    ///
    /// # Errors
    ///
    /// Returns an error if the window exceeds the proved span or the range
    /// is not populated DRAM.
    pub fn read_span<P: CanRead>(
        &self,
        span: &Checked<Span, P>,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), MachineError> {
        let span = span.get();
        let addr = Self::span_window(span, offset, buf.len())?;
        Ok(self.memory.read().read_bytes(addr, buf)?)
    }

    /// Writes `data` at `offset` within a span the caller proved writable.
    /// Same containment behavior as [`Machine::read_span`].
    ///
    /// # Errors
    ///
    /// Returns an error if the window exceeds the proved span or the range
    /// is not populated DRAM.
    pub fn write_span<P: CanWrite>(
        &self,
        span: &Checked<Span, P>,
        offset: u64,
        data: &[u8],
    ) -> Result<(), MachineError> {
        let span = span.get();
        let addr = Self::span_window(span, offset, data.len())?;
        Ok(self.memory.write().write_bytes(addr, data)?)
    }

    /// Reads one proved-readable page into `buf` (at most [`PAGE_SIZE`]
    /// bytes).
    ///
    /// # Errors
    ///
    /// Returns an error if the page is not populated DRAM.
    pub fn read_page<P: CanRead>(
        &self,
        page: &Checked<PhysAddr, P>,
        buf: &mut [u8],
    ) -> Result<(), MachineError> {
        debug_assert!(buf.len() <= PAGE_SIZE);
        Ok(self.memory.read().read_bytes(page.get(), buf)?)
    }

    /// Bounds-checks a `(offset, len)` window against a proved span and
    /// returns its base address. Exceeding the proof is an SM-internal bug,
    /// never reachable from untrusted arguments; it is reported as the same
    /// out-of-range error a raw access would produce.
    fn span_window(span: Span, offset: u64, len: usize) -> Result<PhysAddr, MachineError> {
        let fits = offset
            .checked_add(len as u64)
            .is_some_and(|end| end <= span.len());
        let addr = span.base().offset(offset);
        if !fits {
            debug_assert!(fits, "sink window exceeds the proved span");
            return Err(MachineError::Memory(MemError::OutOfRange { addr, len }));
        }
        Ok(addr)
    }

    /// Lists the currently programmed protected ranges.
    pub fn protected_ranges(&self) -> Vec<AccessRange> {
        self.access.read().ranges().to_vec()
    }

    /// Monotone mutation counter of the access-control table: unchanged
    /// between two reads ⇒ the protected ranges are identical, so consumers
    /// re-validating range properties after every step (the explorer's
    /// overlap check) can skip the work.
    pub fn access_generation(&self) -> u64 {
        self.access.read().generation()
    }

    // ----- cache and partitions ----------------------------------------------

    /// Runs `f` with the cache model.
    pub fn with_cache_mut<R>(&self, f: impl FnOnce(&mut CacheModel) -> R) -> R {
        f(&mut self.cache.lock())
    }

    /// Assigns `domain` to cache `partition` (Sanctum page colouring). The
    /// default for unknown domains is partition 0.
    pub fn set_partition(&self, domain: DomainKind, partition: PartitionId) {
        self.partition_map.write().insert(domain, partition);
    }

    /// Returns the cache partition used by `domain`.
    pub fn partition_of(&self, domain: DomainKind) -> PartitionId {
        *self
            .partition_map
            .read()
            .get(&domain)
            .unwrap_or(&PartitionId(0))
    }

    // ----- harts and TLBs -----------------------------------------------------

    /// Number of harts on the machine.
    pub fn num_harts(&self) -> usize {
        self.config.num_harts
    }

    /// Locks and returns the state of hart `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn hart(&self, id: CoreId) -> MutexGuard<'_, HartState> {
        self.harts[id.index()].lock()
    }

    /// Locks and returns the TLB of hart `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn tlb(&self, id: CoreId) -> MutexGuard<'_, Tlb> {
        self.tlbs[id.index()].lock()
    }

    /// Returns `true` if `id` names a hart on this machine.
    pub fn has_hart(&self, id: CoreId) -> bool {
        id.index() < self.harts.len()
    }

    /// Cleans hart `id`: zeroes architected state, flushes its TLB and
    /// charges the core-flush cost. This is the hardware half of the paper's
    /// "clean the core resource" operation.
    ///
    /// # Errors
    ///
    /// Returns an error if the hart does not exist.
    pub fn clean_core(&self, id: CoreId) -> Result<Cycles, MachineError> {
        if !self.has_hart(id) {
            return Err(MachineError::UnknownHart(id));
        }
        self.harts[id.index()].lock().clean();
        self.tlbs[id.index()].lock().flush_all();
        let cost = self.config.cost.flush_core;
        self.charge(cost);
        Ok(cost)
    }

    /// Performs a TLB shootdown for the physical range `[base, base+len)` on
    /// every hart, returning the total cost (one inter-processor round per
    /// remote hart, as on Sanctum region re-assignment).
    pub fn tlb_shootdown(&self, base: PhysAddr, len: u64) -> Cycles {
        let pages = len / PAGE_SIZE as u64;
        for tlb in &self.tlbs {
            tlb.lock().flush_phys_range(base.page_number(), pages);
        }
        let cost = self
            .config
            .cost
            .tlb_shootdown
            .scaled(self.config.num_harts as u64);
        self.charge(cost);
        cost
    }

    /// Queues an interrupt for hart `id`; it will be delivered at the next
    /// guest-op boundary (this is how the OS model forces an asynchronous
    /// enclave exit).
    ///
    /// # Errors
    ///
    /// Returns an error if the hart does not exist.
    pub fn raise_interrupt(&self, id: CoreId, interrupt: Interrupt) -> Result<(), MachineError> {
        if !self.has_hart(id) {
            return Err(MachineError::UnknownHart(id));
        }
        self.pending_interrupts[id.index()].lock().push(interrupt);
        Ok(())
    }

    fn take_interrupt(&self, id: CoreId) -> Option<Interrupt> {
        let mut pending = self.pending_interrupts[id.index()].lock();
        if pending.is_empty() {
            None
        } else {
            Some(pending.remove(0))
        }
    }

    /// Returns `true` if an interrupt is pending for hart `id`.
    pub fn interrupt_pending(&self, id: CoreId) -> bool {
        self.has_hart(id) && !self.pending_interrupts[id.index()].lock().is_empty()
    }

    // ----- entropy ------------------------------------------------------------

    /// Returns bytes from the simulated hardware TRNG.
    ///
    /// The stream is deterministic per device so experiments are
    /// reproducible; a real platform wires this to a physical noise source.
    pub fn trng_bytes<const N: usize>(&self) -> [u8; N] {
        let mut state = self.trng.lock();
        let mut out = [0u8; N];
        for chunk in out.chunks_mut(8) {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mixed = (*state ^ (*state >> 29)).wrapping_mul(0xbf58476d1ce4e5b9);
            let bytes = mixed.to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&bytes[..n]);
        }
        out
    }

    // ----- DMA ----------------------------------------------------------------

    /// Performs a DMA copy on behalf of an untrusted device.
    ///
    /// # Errors
    ///
    /// Returns [`DmaError::Blocked`] if any touched page is protected from
    /// DMA, [`DmaError::OutOfRange`] for unpopulated memory and
    /// [`DmaError::EmptyTransfer`] for zero-length requests. No bytes are
    /// copied if any check fails.
    pub fn dma_copy(&self, src: PhysAddr, dst: PhysAddr, len: u64) -> Result<Cycles, DmaError> {
        if len == 0 {
            return Err(DmaError::EmptyTransfer);
        }
        {
            let access = self.access.read();
            for page in pages_touched(src, len).into_iter().chain(pages_touched(dst, len)) {
                if !access.check_dma(page).is_allowed() {
                    return Err(DmaError::Blocked { addr: page });
                }
            }
        }
        let mut buf = vec![0u8; len as usize];
        {
            let mem = self.memory.read();
            mem.read_bytes(src, &mut buf).map_err(|_| DmaError::OutOfRange)?;
        }
        self.memory
            .write()
            .write_bytes(dst, &buf)
            .map_err(|_| DmaError::OutOfRange)?;
        let cost = self
            .config
            .cost
            .mem_miss
            .scaled(len.div_ceil(self.config.cache.line_size as u64));
        self.charge(cost);
        Ok(cost)
    }

    // ----- guest execution ----------------------------------------------------

    /// Translates `vaddr` for the domain currently installed on `hart`,
    /// consulting the TLB, walking the page table on a miss and enforcing the
    /// isolation primitive on the resulting physical address.
    fn translate(
        &self,
        hart: &HartState,
        vaddr: VirtAddr,
        kind: AccessKind,
        needed: MemPerms,
    ) -> Result<(PhysAddr, Cycles), TrapCause> {
        let mut cost = Cycles::ZERO;
        let root = match hart.page_table_root {
            Some(r) => r,
            None => {
                // Machine-mode physical addressing: the address is physical.
                let paddr = PhysAddr::new(vaddr.as_u64());
                return if self.check_access(hart.domain, paddr, needed) {
                    Ok((paddr, cost))
                } else {
                    Err(TrapCause::IsolationFault { kind, addr: vaddr })
                };
            }
        };

        let vpn = vaddr.page_number();
        let cached = self.tlbs[hart.id.index()].lock().lookup(hart.domain, vpn);
        let (paddr, perms) = match cached {
            Some(entry) => (
                entry.ppn.base_address().offset(vaddr.page_offset() as u64),
                entry.perms,
            ),
            None => {
                let outcome = {
                    let mem = self.memory.read();
                    self.walker.walk(&mem, root, vaddr, needed)
                };
                match outcome {
                    WalkOutcome::Translated { addr, perms, cost: walk_cost } => {
                        cost += walk_cost;
                        self.tlbs[hart.id.index()].lock().insert(TlbEntry {
                            vpn,
                            ppn: addr.page_number(),
                            perms,
                            domain: hart.domain,
                        });
                        (addr, perms)
                    }
                    WalkOutcome::Fault { cost: walk_cost } => {
                        cost += walk_cost;
                        self.charge(cost);
                        return Err(TrapCause::PageFault { kind, addr: vaddr });
                    }
                }
            }
        };

        if !perms.allows(needed) {
            self.charge(cost);
            return Err(TrapCause::PageFault { kind, addr: vaddr });
        }
        if !self.check_access(hart.domain, paddr, needed) {
            self.charge(cost);
            return Err(TrapCause::IsolationFault { kind, addr: vaddr });
        }
        Ok((paddr, cost))
    }

    /// Runs `program` on hart `id` for at most `max_steps` guest ops,
    /// starting from the hart's current PC.
    ///
    /// The hart's privilege, domain and page-table root must have been set up
    /// by the caller (the SM does this on enclave entry; the OS model does it
    /// for untrusted tasks). On return the hart state reflects where
    /// execution stopped, so the caller can resume by calling again.
    ///
    /// # Panics
    ///
    /// Panics if the hart id is out of range.
    pub fn run_guest(&self, id: CoreId, program: &GuestProgram, max_steps: u64) -> RunResult {
        let mut cycles = Cycles::ZERO;
        let mut steps = 0u64;
        let cost = self.config.cost;

        let exit = loop {
            if steps >= max_steps {
                break ExitReason::OutOfSteps;
            }
            // Interrupts are recognised at op boundaries.
            if let Some(irq) = self.take_interrupt(id) {
                let mut hart = self.hart(id);
                hart.pending_trap = Some(TrapCause::Interrupt(irq));
                cycles += cost.trap_entry;
                break ExitReason::Trap(TrapCause::Interrupt(irq));
            }

            let mut hart = self.hart(id);
            let pc = hart.pc;
            let Some(op) = program.op_at(pc) else {
                break ExitReason::Trap(TrapCause::IllegalInstruction);
            };
            steps += 1;
            cycles += cost.alu_op;
            match op {
                GuestOp::MovImm { dst, value } => {
                    hart.regs[dst as usize % 32] = value;
                    hart.pc = pc + 1;
                }
                GuestOp::Add { dst, a, b } => {
                    hart.regs[dst as usize % 32] =
                        hart.regs[a as usize % 32].wrapping_add(hart.regs[b as usize % 32]);
                    hart.pc = pc + 1;
                }
                GuestOp::Compute { cycles: c } => {
                    cycles += Cycles::new(c);
                    hart.pc = pc + 1;
                }
                GuestOp::Jump { target } => {
                    hart.pc = target;
                }
                GuestOp::BranchNonZero { reg, target } => {
                    if hart.regs[reg as usize % 32] != 0 {
                        hart.pc = target;
                    } else {
                        hart.pc = pc + 1;
                    }
                }
                GuestOp::Load { dst, addr } => {
                    let vaddr = VirtAddr::new(hart.regs[addr as usize % 32]);
                    match self.translate(&hart, vaddr, AccessKind::Load, MemPerms::READ) {
                        Ok((paddr, tcost)) => {
                            cycles += tcost;
                            let partition = self.partition_of(hart.domain);
                            cycles += self.cache.lock().access(partition, paddr);
                            match self.memory.read().read_u64(paddr) {
                                Ok(v) => {
                                    hart.regs[dst as usize % 32] = v;
                                    hart.pc = pc + 1;
                                }
                                Err(_) => {
                                    let trap = TrapCause::PageFault {
                                        kind: AccessKind::Load,
                                        addr: vaddr,
                                    };
                                    hart.pending_trap = Some(trap);
                                    cycles += cost.trap_entry;
                                    break ExitReason::Trap(trap);
                                }
                            }
                        }
                        Err(trap) => {
                            hart.pending_trap = Some(trap);
                            cycles += cost.trap_entry;
                            break ExitReason::Trap(trap);
                        }
                    }
                }
                GuestOp::Store { src, addr } => {
                    let vaddr = VirtAddr::new(hart.regs[addr as usize % 32]);
                    match self.translate(&hart, vaddr, AccessKind::Store, MemPerms::WRITE) {
                        Ok((paddr, tcost)) => {
                            cycles += tcost;
                            let partition = self.partition_of(hart.domain);
                            cycles += self.cache.lock().access(partition, paddr);
                            let value = hart.regs[src as usize % 32];
                            match self.memory.write().write_u64(paddr, value) {
                                Ok(()) => {
                                    hart.pc = pc + 1;
                                }
                                Err(_) => {
                                    let trap = TrapCause::PageFault {
                                        kind: AccessKind::Store,
                                        addr: vaddr,
                                    };
                                    hart.pending_trap = Some(trap);
                                    cycles += cost.trap_entry;
                                    break ExitReason::Trap(trap);
                                }
                            }
                        }
                        Err(trap) => {
                            hart.pending_trap = Some(trap);
                            cycles += cost.trap_entry;
                            break ExitReason::Trap(trap);
                        }
                    }
                }
                GuestOp::Ecall => {
                    hart.pc = pc + 1;
                    hart.pending_trap = Some(TrapCause::EnvironmentCall);
                    cycles += cost.trap_entry;
                    break ExitReason::Ecall;
                }
                GuestOp::Exit => {
                    hart.pc = pc + 1;
                    break ExitReason::Completed;
                }
            }
        };

        // Account cycles to the hart and the machine.
        self.hart(id).cycles += cycles;
        self.charge(cycles);
        RunResult { exit, cycles, steps }
    }

    /// Prepares hart `id` to run on behalf of `domain` at `privilege` with
    /// the given page-table root and entry PC. Used by the SM on enclave
    /// entry and by the OS model when scheduling untrusted tasks.
    ///
    /// # Panics
    ///
    /// Panics if the hart id is out of range.
    pub fn install_context(
        &self,
        id: CoreId,
        domain: DomainKind,
        privilege: PrivilegeLevel,
        page_table_root: Option<PhysAddr>,
        pc: u64,
    ) {
        let mut hart = self.hart(id);
        hart.domain = domain;
        hart.privilege = privilege;
        hart.page_table_root = page_table_root;
        hart.pc = pc;
        hart.pending_trap = None;
    }
}

/// The machine *is* the sanitizer's oracle: span access resolves against the
/// access-control table under a single read-lock acquisition, and geometry
/// against the populated DRAM range.
impl AccessOracle for Machine {
    fn allows_span(&self, domain: DomainKind, span: Span, perms: MemPerms) -> bool {
        self.access
            .read()
            .check_span(domain, span.base(), span.len(), perms)
    }

    fn dram_contains(&self, span: Span) -> bool {
        self.memory.read().contains(span.base(), span.len() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guest::{GuestProgram, REG_A0};
    use crate::pagetable::PageTableBuilder;
    use sanctorum_hal::domain::EnclaveId;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small())
    }

    /// Builds an identity-ish page table mapping `pages` consecutive virtual
    /// pages starting at vaddr 0x10000 to physical pages starting at
    /// `phys_base`, with table pages taken from `table_base`.
    fn build_address_space(
        m: &Machine,
        table_base: PhysAddr,
        phys_base: PhysAddr,
        pages: u64,
    ) -> PhysAddr {
        m.with_memory_mut(|mem| {
            mem.zero_page(table_base).unwrap();
            let mut builder = PageTableBuilder::new(table_base);
            let mut next_table = table_base.offset(PAGE_SIZE as u64);
            for i in 0..pages {
                builder
                    .map(
                        mem,
                        VirtAddr::new(0x10000 + i * PAGE_SIZE as u64).page_number(),
                        phys_base.offset(i * PAGE_SIZE as u64).page_number(),
                        MemPerms::RW,
                        || {
                            let page = next_table;
                            next_table = next_table.offset(PAGE_SIZE as u64);
                            Some(page)
                        },
                    )
                    .unwrap();
            }
            builder.root()
        })
    }

    #[test]
    fn config_sanity() {
        let m = machine();
        assert_eq!(m.num_harts(), 2);
        assert_eq!(m.config().num_regions(), 8);
        assert!(m.has_hart(CoreId::new(1)));
        assert!(!m.has_hart(CoreId::new(2)));
    }

    #[test]
    fn guest_store_and_load_round_trip() {
        let m = machine();
        let base = m.config().memory_base;
        let root = build_address_space(&m, base.offset(0x10_0000), base.offset(0x20_0000), 4);

        m.install_context(
            CoreId::new(0),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            Some(root),
            0,
        );
        let store = GuestProgram::store_and_exit(0x10008, 0xabcdef);
        let result = m.run_guest(CoreId::new(0), &store, 100);
        assert_eq!(result.exit, ExitReason::Completed);
        assert!(result.cycles > Cycles::ZERO);

        // The value must be visible at the mapped physical address.
        let phys = base.offset(0x20_0000 + 8);
        assert_eq!(m.phys_read_u64(phys).unwrap(), 0xabcdef);

        // And loadable by a second program.
        m.install_context(
            CoreId::new(0),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            Some(root),
            0,
        );
        let load = GuestProgram::load_and_exit(0x10008);
        let result = m.run_guest(CoreId::new(0), &load, 100);
        assert_eq!(result.exit, ExitReason::Completed);
        assert_eq!(m.hart(CoreId::new(0)).regs[REG_A0 as usize], 0xabcdef);
    }

    #[test]
    fn unmapped_access_page_faults() {
        let m = machine();
        let base = m.config().memory_base;
        let root = build_address_space(&m, base.offset(0x10_0000), base.offset(0x20_0000), 1);
        m.install_context(
            CoreId::new(0),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            Some(root),
            0,
        );
        let program = GuestProgram::store_and_exit(0xdead_0000, 1);
        let result = m.run_guest(CoreId::new(0), &program, 100);
        assert!(matches!(
            result.exit,
            ExitReason::Trap(TrapCause::PageFault { .. })
        ));
    }

    #[test]
    fn isolation_fault_when_mapping_points_into_protected_range() {
        let m = machine();
        let base = m.config().memory_base;
        let enclave_mem = base.offset(0x40_0000);
        // Protect a range for an enclave.
        m.with_access_mut(|a| {
            a.protect(AccessRange {
                base: enclave_mem,
                len: 0x10_0000,
                owner: DomainKind::Enclave(EnclaveId::new(1)),
                owner_perms: MemPerms::RWX,
                untrusted_perms: MemPerms::NONE,
                dma_blocked: true,
            })
            .unwrap();
        });
        // The OS maliciously maps its own virtual page onto enclave memory.
        let root = build_address_space(&m, base.offset(0x10_0000), enclave_mem, 1);
        m.install_context(
            CoreId::new(0),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            Some(root),
            0,
        );
        let program = GuestProgram::load_and_exit(0x10000);
        let result = m.run_guest(CoreId::new(0), &program, 100);
        assert!(matches!(
            result.exit,
            ExitReason::Trap(TrapCause::IsolationFault { .. })
        ));
    }

    #[test]
    fn ecall_exits_with_args_visible() {
        let m = machine();
        m.install_context(
            CoreId::new(1),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            None,
            0,
        );
        let program = GuestProgram::new(
            "ecall",
            vec![
                GuestOp::MovImm { dst: REG_A0, value: 42 },
                GuestOp::MovImm { dst: 11, value: 7 },
                GuestOp::Ecall,
                GuestOp::Exit,
            ],
        );
        let result = m.run_guest(CoreId::new(1), &program, 100);
        assert_eq!(result.exit, ExitReason::Ecall);
        let hart = m.hart(CoreId::new(1));
        assert_eq!(hart.regs[REG_A0 as usize], 42);
        assert_eq!(hart.regs[11], 7);
        assert_eq!(hart.pending_trap, Some(TrapCause::EnvironmentCall));
        // PC points past the ecall so execution can resume.
        assert_eq!(hart.pc, 3);
    }

    #[test]
    fn interrupt_preempts_guest() {
        let m = machine();
        m.install_context(
            CoreId::new(0),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            None,
            0,
        );
        m.raise_interrupt(CoreId::new(0), Interrupt::Timer).unwrap();
        let program = GuestProgram::compute(1_000_000);
        let result = m.run_guest(CoreId::new(0), &program, 100);
        assert_eq!(
            result.exit,
            ExitReason::Trap(TrapCause::Interrupt(Interrupt::Timer))
        );
        assert!(!m.interrupt_pending(CoreId::new(0)));
    }

    #[test]
    fn out_of_steps_allows_resumption() {
        let m = machine();
        m.install_context(
            CoreId::new(0),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            None,
            0,
        );
        let ops: Vec<GuestOp> = (0..10)
            .map(|i| GuestOp::MovImm { dst: 1, value: i })
            .chain([GuestOp::Exit])
            .collect();
        let program = GuestProgram::new("long", ops);
        let r1 = m.run_guest(CoreId::new(0), &program, 5);
        assert_eq!(r1.exit, ExitReason::OutOfSteps);
        let r2 = m.run_guest(CoreId::new(0), &program, 100);
        assert_eq!(r2.exit, ExitReason::Completed);
        assert_eq!(r1.steps + r2.steps, 11);
    }

    #[test]
    fn clean_core_erases_state_and_flushes_tlb() {
        let m = machine();
        let base = m.config().memory_base;
        let root = build_address_space(&m, base.offset(0x10_0000), base.offset(0x20_0000), 1);
        m.install_context(
            CoreId::new(0),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            Some(root),
            0,
        );
        let program = GuestProgram::store_and_exit(0x10000, 5);
        m.run_guest(CoreId::new(0), &program, 100);
        assert!(!m.tlb(CoreId::new(0)).is_empty());
        m.clean_core(CoreId::new(0)).unwrap();
        assert!(m.hart(CoreId::new(0)).is_clean());
        assert!(m.tlb(CoreId::new(0)).is_empty());
        assert!(m.clean_core(CoreId::new(5)).is_err());
    }

    #[test]
    fn tlb_shootdown_removes_entries_on_all_harts() {
        let m = machine();
        let base = m.config().memory_base;
        let root = build_address_space(&m, base.offset(0x10_0000), base.offset(0x20_0000), 1);
        for hart in 0..2 {
            m.install_context(
                CoreId::new(hart),
                DomainKind::Untrusted,
                PrivilegeLevel::Supervisor,
                Some(root),
                0,
            );
            m.run_guest(CoreId::new(hart), &GuestProgram::store_and_exit(0x10000, 1), 100);
        }
        assert!(!m.tlb(CoreId::new(0)).is_empty());
        assert!(!m.tlb(CoreId::new(1)).is_empty());
        m.tlb_shootdown(base.offset(0x20_0000), 0x1000);
        assert_eq!(m.tlb(CoreId::new(0)).len(), 0);
        assert_eq!(m.tlb(CoreId::new(1)).len(), 0);
    }

    #[test]
    fn dma_respects_protection() {
        let m = machine();
        let base = m.config().memory_base;
        m.phys_write(base.offset(0x1000), b"public data").unwrap();
        // Unprotected copy succeeds.
        m.dma_copy(base.offset(0x1000), base.offset(0x3000), 16).unwrap();
        let mut buf = [0u8; 11];
        m.phys_read(base.offset(0x3000), &mut buf).unwrap();
        assert_eq!(&buf, b"public data");

        // Protect the destination for an enclave; DMA must now fail.
        m.with_access_mut(|a| {
            a.protect(AccessRange {
                base: base.offset(0x3000),
                len: 0x1000,
                owner: DomainKind::Enclave(EnclaveId::new(2)),
                owner_perms: MemPerms::RW,
                untrusted_perms: MemPerms::NONE,
                dma_blocked: true,
            })
            .unwrap();
        });
        let err = m.dma_copy(base.offset(0x1000), base.offset(0x3000), 16).unwrap_err();
        assert!(matches!(err, DmaError::Blocked { .. }));
        assert!(matches!(
            m.dma_copy(base, base.offset(0x1000), 0),
            Err(DmaError::EmptyTransfer)
        ));
    }

    #[test]
    fn trng_produces_distinct_blocks_and_is_device_deterministic() {
        let m1 = machine();
        let m2 = machine();
        let a: [u8; 32] = m1.trng_bytes();
        let b: [u8; 32] = m1.trng_bytes();
        assert_ne!(a, b);
        let c: [u8; 32] = m2.trng_bytes();
        assert_eq!(a, c, "same device id gives the same stream");
    }

    #[test]
    fn cycle_accounting_accumulates() {
        let m = machine();
        let before = m.total_cycles();
        m.install_context(
            CoreId::new(0),
            DomainKind::Untrusted,
            PrivilegeLevel::Supervisor,
            None,
            0,
        );
        m.run_guest(CoreId::new(0), &GuestProgram::compute(1000), 10);
        assert!(m.total_cycles().count() >= before.count() + 1000);
        assert!(m.hart(CoreId::new(0)).cycles.count() >= 1000);
    }

    #[test]
    fn state_digest_is_deterministic_and_state_sensitive() {
        let drive = |m: &Machine| {
            m.install_context(
                CoreId::new(0),
                DomainKind::Untrusted,
                PrivilegeLevel::Supervisor,
                None,
                0,
            );
            m.run_guest(CoreId::new(0), &GuestProgram::compute(10), 10);
            m.phys_write_u64(m.config().memory_base.offset(0x2000), 0xabcd).unwrap();
        };
        let m1 = machine();
        let m2 = machine();
        drive(&m1);
        drive(&m2);
        assert_eq!(
            m1.state_digest(),
            m2.state_digest(),
            "identical op sequences must fingerprint identically"
        );
        // Any visible state change moves the digest.
        let before = m1.state_digest();
        m1.phys_write_u64(m1.config().memory_base.offset(0x2000), 0xabce).unwrap();
        assert_ne!(before, m1.state_digest());
        let before = m1.state_digest();
        m1.hart(CoreId::new(0)).regs[7] ^= 1;
        assert_ne!(before, m1.state_digest());
    }

    #[test]
    fn partition_map_defaults_to_zero() {
        let m = machine();
        let e = DomainKind::Enclave(EnclaveId::new(9));
        assert_eq!(m.partition_of(e), PartitionId(0));
        m.set_partition(e, PartitionId(3));
        assert_eq!(m.partition_of(e), PartitionId(3));
    }
}
