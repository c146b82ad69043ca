//! MIT Sanctum platform backend (paper Section VII-A).
//!
//! The Sanctum processor isolates memory as a fixed array of equally sized
//! DRAM regions (64 × 32 MiB on the real hardware; the simulated machine
//! scales the geometry down). Each region is isolated throughout the memory
//! hierarchy: the last-level cache is partitioned by page colouring, so a
//! protection domain occupying one region can never evict another domain's
//! lines, and a page-table-walk invariant (modelled by the machine's
//! access-control check on every translated access) keeps TLB contents
//! consistent with the region allocation, requiring a TLB shootdown whenever
//! a region changes owner.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sanctorum_hal::cycles::Cycles;
use sanctorum_hal::domain::{CoreId, DomainKind};
use sanctorum_hal::isolation::{
    FlushKind, IsolationBackend, IsolationError, PlatformCapacity, RegionId, RegionInfo, RegionOp,
};
use sanctorum_hal::perm::MemPerms;
use sanctorum_machine::access::AccessRange;
use sanctorum_machine::cache::PartitionId;
use sanctorum_machine::{fault_point, Crossing, Machine};
use std::sync::Arc;

/// Number of LLC partitions (page colours) the backend divides the cache
/// into. Each DRAM region maps to the partition `region_index % PARTITIONS`.
pub const CACHE_PARTITIONS: u32 = 8;

/// The Sanctum isolation backend.
///
/// # Examples
///
/// ```
/// use sanctorum_machine::{Machine, MachineConfig};
/// use sanctorum_sanctum::SanctumBackend;
/// use sanctorum_hal::isolation::IsolationBackend;
/// use std::sync::Arc;
///
/// let machine = Arc::new(Machine::new(MachineConfig::small()));
/// let backend = SanctumBackend::new(Arc::clone(&machine));
/// assert_eq!(backend.platform_name(), "sanctum");
/// assert_eq!(backend.regions().len(), machine.config().num_regions());
/// ```
pub struct SanctumBackend {
    machine: Arc<Machine>,
    owners: Vec<DomainKind>,
}

impl std::fmt::Debug for SanctumBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SanctumBackend {{ regions: {} }}", self.owners.len())
    }
}

impl SanctumBackend {
    /// Creates the backend, partitioning the LLC and reserving region 0 for
    /// the SM itself (its code, stack and metadata region).
    pub fn new(machine: Arc<Machine>) -> Self {
        let num_regions = machine.config().num_regions();
        machine.with_cache_mut(|c| c.partition_evenly(CACHE_PARTITIONS));
        let mut backend = Self {
            machine,
            owners: vec![DomainKind::Untrusted; num_regions],
        };
        let sm_region = backend
            .region_geometry(RegionId::new(0))
            .expect("every machine has a region 0");
        backend
            .apply_assign(&sm_region, DomainKind::SecurityMonitor, MemPerms::RWX)
            .expect("reserving the SM region cannot fail on a fresh machine");
        backend
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
            cache_isolated: true,
        })
    }

    fn partition_for(region: RegionId) -> PartitionId {
        PartitionId(region.0 % CACHE_PARTITIONS)
    }

    /// The region-map mutation behind [`RegionOp::Assign`] (and the SM
    /// reservation at construction): reprogram the access range, record the
    /// owner, rebind the cache partition. Geometry must already be
    /// validated; [`IsolationBackend::apply_batch`] crosses the fault point
    /// *before* any mutation.
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
        // Bind the domain to the region's cache partition (page colouring).
        self.machine.set_partition(domain, Self::partition_for(info.id));
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

impl IsolationBackend for SanctumBackend {
    fn platform_name(&self) -> &'static str {
        "sanctum"
    }

    fn capacity(&self) -> PlatformCapacity {
        // The region map covers every DRAM region: any subset of regions can
        // be isolated simultaneously, so no capacity limit is declared.
        PlatformCapacity::UNLIMITED
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
            // The LLC is partitioned, so a core hand-off does not require a
            // shared-cache flush on Sanctum.
            FlushKind::SharedCachePartition => Cycles::ZERO,
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
        // atomic: crossed before any TLB is invalidated — a failed shootdown
        // invalidates nothing, and the caller retries or quarantines.
        if fault_point!(self.machine.fault_injector(), "backend.tlb-shootdown")
            == Crossing::FailOp
        {
            return Err(IsolationError::TransientFault);
        }
        Ok(self.machine.tlb_shootdown(info.base, info.len))
    }

    fn flush_region_cache(&mut self, region: RegionId) -> Result<Cycles, IsolationError> {
        let _ = self.region_geometry(region)?;
        // atomic: crossed before the partition flush — a failure evicts
        // nothing, so the region's lines are either all flushed or all kept.
        if fault_point!(self.machine.fault_injector(), "backend.flush-region-cache")
            == Crossing::FailOp
        {
            return Err(IsolationError::TransientFault);
        }
        let cost = self
            .machine
            .with_cache_mut(|c| c.flush_partition(Self::partition_for(region)));
        self.machine.charge(cost);
        Ok(cost)
    }

    fn apply_batch(&mut self, ops: &[RegionOp]) -> Result<Cycles, IsolationError> {
        // Validate every operation's geometry before touching anything: the
        // batch is all-or-nothing, and on Sanctum geometry is the only way a
        // region mutation can fail.
        let mut infos = Vec::with_capacity(ops.len());
        let mut assigns = 0u64;
        let mut dma_toggles = 0u64;
        for op in ops {
            let (region, is_assign) = match *op {
                RegionOp::Assign { region, .. } => (region, true),
                RegionOp::SetDmaBlocked { region, .. } => (region, false),
            };
            infos.push(self.region_geometry(region)?);
            if is_assign {
                assigns += 1;
            } else {
                dma_toggles += 1;
            }
        }
        // Each site is crossed once for the whole batch, before any
        // mutation — a crash or injected failure here leaves every previous
        // assignment and DMA filter fully intact.
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
                        .expect("geometry validated above; Sanctum assigns cannot fail");
                }
                RegionOp::SetDmaBlocked { blocked, .. } => self.apply_dma(info, blocked),
            }
        }
        // Amortized cost: each assignment updates its region-map entry (two
        // CSR writes), and the whole batch pays one shared commit round (two
        // more writes — a lone assignment costs scaled(4)). Each DMA toggle
        // is one register write.
        let pmp_write = self.machine.cost_model().pmp_write;
        let mut total = pmp_write.scaled(2 * assigns) + pmp_write.scaled(dma_toggles);
        if assigns > 0 {
            total += pmp_write.scaled(2);
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sanctorum_hal::addr::PhysAddr;
    use sanctorum_hal::domain::EnclaveId;
    use sanctorum_machine::{FaultInjector, FaultPlan, MachineConfig};

    fn setup() -> (Arc<Machine>, SanctumBackend) {
        let machine = Arc::new(Machine::new(MachineConfig::small()));
        let backend = SanctumBackend::new(Arc::clone(&machine));
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

    fn set_dma(region: u32, blocked: bool) -> RegionOp {
        RegionOp::SetDmaBlocked {
            region: RegionId::new(region),
            blocked,
        }
    }

    /// Whether an untrusted device can DMA into the first page of `base`.
    fn dma_reaches(machine: &Machine, base: PhysAddr) -> bool {
        machine.dma_copy(base, base, 8).is_ok()
    }

    #[test]
    fn region_zero_reserved_for_sm() {
        let (_, backend) = setup();
        assert_eq!(
            backend.region_owner(RegionId::new(0)).unwrap(),
            DomainKind::SecurityMonitor
        );
        assert_eq!(
            backend.region_owner(RegionId::new(1)).unwrap(),
            DomainKind::Untrusted
        );
    }

    #[test]
    fn region_geometry_is_fixed_size() {
        let (machine, backend) = setup();
        let regions = backend.regions();
        assert_eq!(regions.len(), machine.config().num_regions());
        let size = machine.config().dram_region_size as u64;
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(r.len, size);
            assert_eq!(
                r.base.as_u64(),
                machine.config().memory_base.as_u64() + i as u64 * size
            );
            assert!(r.cache_isolated);
        }
    }

    #[test]
    fn assignment_enforced_by_machine_access_checks() {
        let (machine, mut backend) = setup();
        let pmp = machine.cost_model().pmp_write;
        let cost = backend.apply_batch(&[assign(2, enclave(7))]).unwrap();
        assert_eq!(cost, pmp.scaled(4), "a lone assignment is four CSR writes");
        let info = backend.regions()[2];
        assert!(machine.check_access(enclave(7), info.base, MemPerms::RW));
        assert!(!machine.check_access(DomainKind::Untrusted, info.base, MemPerms::READ));
        assert!(!dma_reaches(&machine, info.base));
        // Reassign back to the OS.
        backend.apply_batch(&[assign(2, DomainKind::Untrusted)]).unwrap();
        assert!(machine.check_access(DomainKind::Untrusted, info.base, MemPerms::RW));
        assert!(dma_reaches(&machine, info.base));
    }

    #[test]
    fn unknown_region_errors() {
        let (_, mut backend) = setup();
        let bogus = RegionId::new(1000);
        assert!(backend.region_owner(bogus).is_err());
        assert!(backend.apply_batch(&[assign(1000, DomainKind::Untrusted)]).is_err());
        assert!(backend.tlb_shootdown(bogus).is_err());
        assert!(backend.flush_region_cache(bogus).is_err());
        assert!(backend.flush(CoreId::new(99), FlushKind::CoreState).is_err());
    }

    #[test]
    fn shared_cache_flush_is_free_on_core_handoff() {
        let (_, mut backend) = setup();
        assert_eq!(
            backend.flush(CoreId::new(0), FlushKind::SharedCachePartition).unwrap(),
            Cycles::ZERO
        );
        assert!(backend.flush(CoreId::new(0), FlushKind::CoreState).unwrap() > Cycles::ZERO);
    }

    #[test]
    fn partition_mapping_is_stable() {
        assert_eq!(SanctumBackend::partition_for(RegionId::new(1)).0, 1);
        assert_eq!(
            SanctumBackend::partition_for(RegionId::new(CACHE_PARTITIONS + 1)).0,
            1
        );
    }

    #[test]
    fn declares_no_capacity_limit() {
        let (_, backend) = setup();
        assert_eq!(backend.capacity(), PlatformCapacity::UNLIMITED);
    }

    #[test]
    fn injected_transient_fault_fails_cleanly_then_recovers() {
        let (machine, mut backend) = setup();
        let region = RegionId::new(2);
        machine.fault_injector().arm(FaultPlan::FailOp {
            site: Some("backend.assign-region"),
            times: 2,
        });
        for _ in 0..2 {
            let err = backend.apply_batch(&[assign(2, enclave(9))]).unwrap_err();
            assert_eq!(err, IsolationError::TransientFault);
            // The failed assignment mutated nothing: still OS-owned.
            assert_eq!(backend.region_owner(region).unwrap(), DomainKind::Untrusted);
        }
        // Third attempt: the fault budget is exhausted.
        backend.apply_batch(&[assign(2, enclave(9))]).unwrap();
        assert_eq!(backend.region_owner(region).unwrap(), enclave(9));
        machine.fault_injector().disarm();
    }

    #[test]
    fn disarmed_injector_does_not_perturb_the_backend() {
        let (machine, mut backend) = setup();
        let _: &FaultInjector = machine.fault_injector();
        backend.apply_batch(&[assign(1, enclave(3))]).unwrap();
        assert_eq!(machine.fault_injector().crossings(), 0);
    }

    #[test]
    fn dma_block_toggle() {
        let (machine, mut backend) = setup();
        let base = backend.regions()[3].base;
        // An explicit OS assignment installs the region's filter, open.
        backend.apply_batch(&[assign(3, DomainKind::Untrusted)]).unwrap();
        assert!(dma_reaches(&machine, base), "OS memory is DMA-reachable");
        let cost = backend.apply_batch(&[set_dma(3, true)]).unwrap();
        assert_eq!(cost, machine.cost_model().pmp_write, "a toggle is one register write");
        assert!(!dma_reaches(&machine, base));
        backend.apply_batch(&[set_dma(3, false)]).unwrap();
        assert!(dma_reaches(&machine, base));
    }

    #[test]
    fn batch_applies_like_singles_with_single_op_cost_parity() {
        let (machine, mut backend) = setup();
        let cost = backend
            .apply_batch(&[assign(2, enclave(4)), set_dma(2, true)])
            .unwrap();
        assert_eq!(backend.region_owner(RegionId::new(2)).unwrap(), enclave(4));
        assert!(!dma_reaches(&machine, backend.regions()[2].base));
        // One assignment in a batch costs exactly what a lone assignment
        // does (plus the DMA toggle's register write).
        let pmp = machine.cost_model().pmp_write;
        assert_eq!(cost, pmp.scaled(4) + pmp);
    }

    #[test]
    fn batch_amortizes_the_commit_round_across_assignments() {
        let (machine, mut backend) = setup();
        let ops: Vec<RegionOp> = (1..=3)
            .map(|i| RegionOp::Assign {
                region: RegionId::new(i),
                domain: enclave(u64::from(i)),
                perms: MemPerms::RWX,
            })
            .collect();
        let batched = backend.apply_batch(&ops).unwrap();
        let single = machine.cost_model().pmp_write.scaled(4);
        assert!(
            batched < single.scaled(3),
            "three batched assignments ({batched}) must undercut three singles"
        );
        for i in 1..=3u32 {
            assert_eq!(
                backend.region_owner(RegionId::new(i)).unwrap(),
                enclave(u64::from(i))
            );
        }
    }

    #[test]
    fn faulted_batch_mutates_nothing() {
        use sanctorum_machine::FaultPlan;
        let (machine, mut backend) = setup();
        machine.fault_injector().arm(FaultPlan::FailOp {
            site: Some("backend.assign-region"),
            times: 1,
        });
        let err = backend
            .apply_batch(&[
                RegionOp::Assign {
                    region: RegionId::new(1),
                    domain: enclave(1),
                    perms: MemPerms::RWX,
                },
                RegionOp::Assign {
                    region: RegionId::new(2),
                    domain: enclave(1),
                    perms: MemPerms::RWX,
                },
            ])
            .unwrap_err();
        assert_eq!(err, IsolationError::TransientFault);
        for i in 1..=2u32 {
            assert_eq!(
                backend.region_owner(RegionId::new(i)).unwrap(),
                DomainKind::Untrusted,
                "a faulted batch must leave every region untouched"
            );
        }
        machine.fault_injector().disarm();
    }

    #[test]
    fn batch_with_unknown_region_is_rejected_upfront() {
        let (_, mut backend) = setup();
        let err = backend
            .apply_batch(&[
                RegionOp::Assign {
                    region: RegionId::new(1),
                    domain: enclave(1),
                    perms: MemPerms::RWX,
                },
                RegionOp::SetDmaBlocked {
                    region: RegionId::new(1000),
                    blocked: true,
                },
            ])
            .unwrap_err();
        assert!(matches!(err, IsolationError::UnknownRegion(_)));
        assert_eq!(
            backend.region_owner(RegionId::new(1)).unwrap(),
            DomainKind::Untrusted,
            "validation precedes every mutation"
        );
    }
}
