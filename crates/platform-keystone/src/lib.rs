//! Keystone platform backend (paper Section VII-B).
//!
//! Keystone runs on unmodified RISC-V hardware and uses the physical memory
//! protection (PMP) unit to white-list physical ranges per privilege mode:
//! the SM marks its own memory M-mode-only, and each enclave gets a dedicated
//! PMP-protected range of arbitrary size. Two architectural differences from
//! Sanctum matter for the monitor and show up in the Table 2 comparison:
//!
//! * the number of protected ranges is limited by the number of PMP entries
//!   (8–16 on real cores), so enclave creation can fail with PMP exhaustion;
//! * the shared last-level cache is *not* partitioned, so cleaning a memory
//!   unit (or switching domains conservatively) requires flushing the whole
//!   shared cache, and cross-domain cache interference remains possible — the
//!   paper notes Keystone does not isolate micro-architectural state across
//!   arbitrary platforms, which its threat model reflects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sanctorum_hal::cycles::Cycles;
use sanctorum_hal::domain::{CoreId, DomainKind};
use sanctorum_hal::isolation::{
    FlushKind, IsolationBackend, IsolationError, PlatformCapacity, RegionId, RegionInfo, RegionOp,
};
use sanctorum_hal::perm::MemPerms;
use sanctorum_machine::access::AccessRange;
use sanctorum_machine::{fault_point, Crossing, Machine};
use std::sync::Arc;

/// The Keystone isolation backend.
///
/// The allocatable memory units follow the machine's region geometry (so the
/// same workloads run on both backends), but each unit protected for the SM
/// or an enclave consumes a PMP entry, and the backend refuses assignments
/// once the PMP is exhausted.
///
/// # Examples
///
/// ```
/// use sanctorum_machine::{Machine, MachineConfig};
/// use sanctorum_keystone::KeystoneBackend;
/// use sanctorum_hal::isolation::IsolationBackend;
/// use std::sync::Arc;
///
/// let machine = Arc::new(Machine::new(MachineConfig::small()));
/// let backend = KeystoneBackend::new(Arc::clone(&machine));
/// assert_eq!(backend.platform_name(), "keystone");
/// assert_eq!(backend.pmp_entries_used(), 1); // the SM's own range
/// ```
pub struct KeystoneBackend {
    machine: Arc<Machine>,
    owners: Vec<DomainKind>,
    pmp_capacity: usize,
}

impl std::fmt::Debug for KeystoneBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KeystoneBackend {{ regions: {}, pmp: {}/{} }}",
            self.owners.len(),
            self.pmp_entries_used(),
            self.pmp_capacity
        )
    }
}

impl KeystoneBackend {
    /// Creates the backend, reserving one PMP entry (and memory unit 0) for
    /// the SM's own memory.
    pub fn new(machine: Arc<Machine>) -> Self {
        let num_regions = machine.config().num_regions();
        let pmp_capacity = machine.config().pmp_entries;
        let mut backend = Self {
            machine,
            owners: vec![DomainKind::Untrusted; num_regions],
            pmp_capacity,
        };
        let sm_range = backend
            .region_geometry(RegionId::new(0))
            .expect("every machine has a region 0");
        backend
            .apply_assign(&sm_range, DomainKind::SecurityMonitor, MemPerms::RWX)
            .expect("reserving the SM range cannot fail on a fresh machine");
        backend
    }

    /// Returns the number of PMP entries currently consumed (one per unit not
    /// owned by the untrusted OS; the OS's memory is covered by the
    /// lowest-priority background entry).
    pub fn pmp_entries_used(&self) -> usize {
        self.owners
            .iter()
            .filter(|o| **o != DomainKind::Untrusted)
            .count()
    }

    /// Returns the PMP entry capacity.
    pub fn pmp_capacity(&self) -> usize {
        self.pmp_capacity
    }

    fn region_geometry(&self, region: RegionId) -> Result<RegionInfo, IsolationError> {
        let config = self.machine.config();
        if region.index() >= config.num_regions() {
            return Err(IsolationError::UnknownRegion(region));
        }
        let base = config
            .memory_base
            .offset((region.index() * config.dram_region_size) as u64);
        Ok(RegionInfo {
            id: region,
            base,
            len: config.dram_region_size as u64,
            cache_isolated: false,
        })
    }

    /// The PMP/access-range mutation behind [`RegionOp::Assign`] (and the
    /// SM reservation at construction). Geometry and PMP capacity must
    /// already be validated; [`IsolationBackend::apply_batch`] crosses the
    /// fault point *before* any mutation.
    fn apply_assign(
        &mut self,
        info: &RegionInfo,
        domain: DomainKind,
        perms: MemPerms,
    ) -> Result<(), IsolationError> {
        let range = AccessRange {
            base: info.base,
            len: info.len,
            owner: domain,
            owner_perms: perms,
            untrusted_perms: if domain == DomainKind::Untrusted {
                perms
            } else {
                MemPerms::NONE
            },
            dma_blocked: domain != DomainKind::Untrusted,
        };
        self.machine
            .with_access_mut(|a| a.protect(range))
            .map_err(|_| IsolationError::UnsupportedRange {
                base: info.base,
                len: info.len,
            })?;
        self.owners[info.id.index()] = domain;
        Ok(())
    }

    /// The DMA-filter mutation behind [`RegionOp::SetDmaBlocked`].
    fn apply_dma(&mut self, info: &RegionInfo, blocked: bool) {
        self.machine.with_access_mut(|a| {
            if let Some(range) = a.range_of_mut(info.base) {
                range.dma_blocked = blocked;
            }
        });
    }
}

impl IsolationBackend for KeystoneBackend {
    fn platform_name(&self) -> &'static str {
        "keystone"
    }

    fn capacity(&self) -> PlatformCapacity {
        // Every protected unit consumes one PMP entry, so the PMP size bounds
        // how many units (SM range included) can be isolated at once.
        PlatformCapacity {
            max_isolated_units: Some(self.pmp_capacity),
        }
    }

    fn regions(&self) -> Vec<RegionInfo> {
        (0..self.owners.len())
            .map(|i| {
                self.region_geometry(RegionId::new(i as u32))
                    .expect("registered region has geometry")
            })
            .collect()
    }

    fn region_owner(&self, region: RegionId) -> Result<DomainKind, IsolationError> {
        self.owners
            .get(region.index())
            .copied()
            .ok_or(IsolationError::UnknownRegion(region))
    }

    fn flush(&mut self, core: CoreId, kind: FlushKind) -> Result<Cycles, IsolationError> {
        if !self.machine.has_hart(core) {
            return Err(IsolationError::UnknownCore(core));
        }
        let cost = match kind {
            FlushKind::CoreState => self.machine.cost_model().flush_core,
            FlushKind::PrivateCaches => self.machine.cost_model().flush_core,
            // The LLC is shared: a conservative clean flushes all of it.
            FlushKind::SharedCachePartition => self.machine.with_cache_mut(|c| c.flush_all()),
            FlushKind::Tlb => {
                self.machine.tlb(core).flush_all();
                self.machine.cost_model().tlb_shootdown
            }
        };
        self.machine.charge(cost);
        Ok(cost)
    }

    fn tlb_shootdown(&mut self, region: RegionId) -> Result<Cycles, IsolationError> {
        let info = self.region_geometry(region)?;
        // atomic: crossed before the shootdown is issued; the caller retries
        // the whole shootdown on failure.
        if fault_point!(self.machine.fault_injector(), "backend.tlb-shootdown")
            == Crossing::FailOp
        {
            return Err(IsolationError::TransientFault);
        }
        Ok(self.machine.tlb_shootdown(info.base, info.len))
    }

    fn flush_region_cache(&mut self, region: RegionId) -> Result<Cycles, IsolationError> {
        let _ = self.region_geometry(region)?;
        // atomic: crossed before any cache line is evicted; a failed flush is
        // retried from scratch.
        if fault_point!(self.machine.fault_injector(), "backend.flush-region-cache")
            == Crossing::FailOp
        {
            return Err(IsolationError::TransientFault);
        }
        // No partitioning: the whole shared cache is flushed.
        let cost = self.machine.with_cache_mut(|c| c.flush_all());
        self.machine.charge(cost);
        Ok(cost)
    }

    fn apply_batch(&mut self, ops: &[RegionOp]) -> Result<Cycles, IsolationError> {
        // Validate the whole batch before touching anything — geometry first,
        // then PMP accounting replayed over a shadow of the owner table. The
        // running count must stay within capacity at *every* prefix (the
        // entries are consumed in order on real hardware), so a batch that
        // would transiently exhaust the PMP is rejected with nothing applied.
        let mut infos = Vec::with_capacity(ops.len());
        let mut assigns = 0u64;
        let mut dma_toggles = 0u64;
        let mut shadow: std::collections::BTreeMap<usize, DomainKind> =
            std::collections::BTreeMap::new();
        let mut used = self.pmp_entries_used();
        for op in ops {
            match *op {
                RegionOp::Assign { region, domain, .. } => {
                    infos.push(self.region_geometry(region)?);
                    let current = shadow
                        .get(&region.index())
                        .copied()
                        .unwrap_or(self.owners[region.index()]);
                    let was_protected = current != DomainKind::Untrusted;
                    let will_be_protected = domain != DomainKind::Untrusted;
                    if will_be_protected && !was_protected {
                        if used >= self.pmp_capacity {
                            return Err(IsolationError::ResourceExhausted {
                                resource: "pmp entries",
                            });
                        }
                        used += 1;
                    } else if !will_be_protected && was_protected {
                        used -= 1;
                    }
                    shadow.insert(region.index(), domain);
                    assigns += 1;
                }
                RegionOp::SetDmaBlocked { region, .. } => {
                    infos.push(self.region_geometry(region)?);
                    dma_toggles += 1;
                }
            }
        }
        // Each site is crossed once for the whole batch, before any PMP
        // entry or DMA filter is written — a crash or injected failure here
        // leaves the previous configuration fully intact.
        if assigns > 0
            // atomic: one batch-wide crossing, before any mutation.
            && fault_point!(self.machine.fault_injector(), "backend.assign-region")
                == Crossing::FailOp
        {
            return Err(IsolationError::TransientFault);
        }
        if dma_toggles > 0
            // atomic: one batch-wide crossing, before any mutation.
            && fault_point!(self.machine.fault_injector(), "backend.set-dma-blocked")
                == Crossing::FailOp
        {
            return Err(IsolationError::TransientFault);
        }
        for (op, info) in ops.iter().zip(&infos) {
            match *op {
                RegionOp::Assign { domain, perms, .. } => {
                    self.apply_assign(info, domain, perms)
                        .expect("geometry and capacity validated above");
                }
                RegionOp::SetDmaBlocked { blocked, .. } => self.apply_dma(info, blocked),
            }
        }
        // Amortized cost: each assignment writes its address CSR on every
        // hart, and the batch pays one shared config-CSR round (a lone
        // assignment costs scaled(2 × harts)). Each DMA toggle is one
        // register write.
        let per_hart = self.machine.cost_model().pmp_write.scaled(self.machine.num_harts() as u64);
        let mut total = per_hart.scaled(assigns)
            + self.machine.cost_model().pmp_write.scaled(dma_toggles);
        if assigns > 0 {
            total += per_hart;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sanctorum_hal::addr::PhysAddr;
    use sanctorum_hal::domain::EnclaveId;
    use sanctorum_machine::MachineConfig;

    fn setup() -> (Arc<Machine>, KeystoneBackend) {
        let machine = Arc::new(Machine::new(MachineConfig::small()));
        let backend = KeystoneBackend::new(Arc::clone(&machine));
        (machine, backend)
    }

    fn enclave(id: u64) -> DomainKind {
        DomainKind::Enclave(EnclaveId::new(id))
    }

    fn assign(region: u32, domain: DomainKind) -> RegionOp {
        RegionOp::Assign {
            region: RegionId::new(region),
            domain,
            perms: MemPerms::RWX,
        }
    }

    #[test]
    fn sm_range_reserved_and_counts_against_pmp() {
        let (_, backend) = setup();
        assert_eq!(
            backend.region_owner(RegionId::new(0)).unwrap(),
            DomainKind::SecurityMonitor
        );
        assert_eq!(backend.pmp_entries_used(), 1);
    }

    #[test]
    fn pmp_exhaustion_rejected() {
        let machine = Arc::new(Machine::new(MachineConfig {
            pmp_entries: 3,
            ..MachineConfig::small()
        }));
        let mut backend = KeystoneBackend::new(Arc::clone(&machine));
        backend.apply_batch(&[assign(1, enclave(1))]).unwrap();
        backend.apply_batch(&[assign(2, enclave(2))]).unwrap();
        let err = backend.apply_batch(&[assign(3, enclave(3))]).unwrap_err();
        assert!(matches!(err, IsolationError::ResourceExhausted { .. }));
        // Releasing one back to the OS frees an entry.
        backend.apply_batch(&[assign(1, DomainKind::Untrusted)]).unwrap();
        backend.apply_batch(&[assign(3, enclave(3))]).unwrap();
    }

    #[test]
    fn isolation_enforced_via_machine() {
        let (machine, mut backend) = setup();
        backend
            .apply_batch(&[RegionOp::Assign {
                region: RegionId::new(2),
                domain: enclave(5),
                perms: MemPerms::RW,
            }])
            .unwrap();
        let info = backend.regions()[2];
        assert!(machine.check_access(enclave(5), info.base, MemPerms::RW));
        assert!(!machine.check_access(DomainKind::Untrusted, info.base, MemPerms::READ));
        assert!(!machine.check_access(enclave(6), info.base, MemPerms::READ));
    }

    #[test]
    fn shared_cache_flush_is_whole_cache() {
        let (machine, mut backend) = setup();
        // Warm the cache with lines spread across sets.
        for i in 0..64u64 {
            machine.with_cache_mut(|c| {
                c.access(sanctorum_machine::cache::PartitionId(0), PhysAddr::new(0x8000_0000 + i * 64))
            });
        }
        let cost = backend.flush_region_cache(RegionId::new(1)).unwrap();
        assert!(cost.count() >= 64 * 4, "whole-cache flush must pay per resident line");
        assert!(!machine.with_cache_mut(|c| c.holds_line_in(PhysAddr::new(0x8000_0000), 64 * 64)));
    }

    #[test]
    fn declared_capacity_is_the_pmp_size() {
        let (machine, backend) = setup();
        assert_eq!(
            backend.capacity().max_isolated_units,
            Some(machine.config().pmp_entries)
        );
    }

    #[test]
    fn regions_not_cache_isolated() {
        let (_, backend) = setup();
        assert!(backend.regions().iter().all(|r| !r.cache_isolated));
    }

    #[test]
    fn unknown_region_errors() {
        let (_, mut backend) = setup();
        let bogus = RegionId::new(999);
        assert!(backend.region_owner(bogus).is_err());
        assert!(backend.flush_region_cache(bogus).is_err());
        assert!(backend
            .apply_batch(&[RegionOp::SetDmaBlocked {
                region: bogus,
                blocked: true,
            }])
            .is_err());
    }

    #[test]
    fn injected_transient_fault_fails_cleanly_then_recovers() {
        use sanctorum_machine::FaultPlan;
        let (machine, mut backend) = setup();
        machine.fault_injector().arm(FaultPlan::FailOp {
            site: Some("backend.assign-region"),
            times: 2,
        });
        for _ in 0..2 {
            assert_eq!(
                backend.apply_batch(&[assign(1, enclave(7))]),
                Err(IsolationError::TransientFault)
            );
            assert_eq!(
                backend.region_owner(RegionId::new(1)).unwrap(),
                DomainKind::Untrusted,
                "a failed PMP write must leave the previous assignment intact"
            );
        }
        backend.apply_batch(&[assign(1, enclave(7))]).unwrap();
        assert_eq!(backend.region_owner(RegionId::new(1)).unwrap(), enclave(7));
        machine.fault_injector().disarm();
    }

    #[test]
    fn disarmed_injector_does_not_perturb_the_backend() {
        let (machine, mut backend) = setup();
        backend.apply_batch(&[assign(2, enclave(3))]).unwrap();
        assert_eq!(machine.fault_injector().crossings(), 0);
    }

    #[test]
    fn batch_exceeding_pmp_capacity_is_rejected_with_nothing_applied() {
        let machine = Arc::new(Machine::new(MachineConfig {
            pmp_entries: 3,
            ..MachineConfig::small()
        }));
        let mut backend = KeystoneBackend::new(Arc::clone(&machine));
        // 1 entry used by the SM; a 3-assignment batch needs 3 more.
        let ops: Vec<RegionOp> = (1..=3).map(|i| assign(i, enclave(u64::from(i)))).collect();
        let err = backend.apply_batch(&ops).unwrap_err();
        assert!(matches!(err, IsolationError::ResourceExhausted { .. }));
        for i in 1..=3u32 {
            assert_eq!(
                backend.region_owner(RegionId::new(i)).unwrap(),
                DomainKind::Untrusted,
                "a rejected batch must leave every region untouched"
            );
        }
        assert_eq!(backend.pmp_entries_used(), 1);
        // A batch that releases before it takes fits in the freed entries.
        backend.apply_batch(&[assign(1, enclave(1))]).unwrap();
        backend.apply_batch(&[assign(2, enclave(2))]).unwrap();
        backend
            .apply_batch(&[assign(1, DomainKind::Untrusted), assign(3, enclave(3))])
            .unwrap();
        assert_eq!(backend.pmp_entries_used(), 3);
    }

    #[test]
    fn batch_single_op_cost_matches_assign_region() {
        let (machine, mut backend) = setup();
        let pmp = machine.cost_model().pmp_write;
        let harts = machine.num_harts() as u64;
        // A lone assignment writes the address and config CSRs on every hart.
        let assigned = backend.apply_batch(&[assign(1, enclave(1))]).unwrap();
        assert_eq!(assigned, pmp.scaled(2 * harts));
        // A lone DMA toggle is one register write.
        let toggled = backend
            .apply_batch(&[RegionOp::SetDmaBlocked {
                region: RegionId::new(1),
                blocked: false,
            }])
            .unwrap();
        assert_eq!(toggled, pmp);
    }

    #[test]
    fn faulted_batch_mutates_nothing() {
        use sanctorum_machine::FaultPlan;
        let (machine, mut backend) = setup();
        machine.fault_injector().arm(FaultPlan::FailOp {
            site: Some("backend.set-dma-blocked"),
            times: 1,
        });
        let err = backend
            .apply_batch(&[
                RegionOp::Assign {
                    region: RegionId::new(1),
                    domain: enclave(1),
                    perms: MemPerms::RWX,
                },
                RegionOp::SetDmaBlocked {
                    region: RegionId::new(1),
                    blocked: true,
                },
            ])
            .unwrap_err();
        assert_eq!(err, IsolationError::TransientFault);
        assert_eq!(
            backend.region_owner(RegionId::new(1)).unwrap(),
            DomainKind::Untrusted,
            "the assignment must not land when the batch's DMA flush faults"
        );
        assert_eq!(backend.pmp_entries_used(), 1);
        machine.fault_injector().disarm();
    }
}
