//! The isolation-primitive interface the security monitor is written against.
//!
//! Paper Section IV-B requires the hardware platform to provide: memory
//! isolation across protection domains (IV-B1), isolated computation for
//! shared micro-architectural resources (IV-B2), and exclusive elevated
//! privilege for the SM (IV-B3). The two platform backends —
//! `sanctorum-sanctum` (DRAM regions + LLC partitioning) and
//! `sanctorum-keystone` (RISC-V PMP) — implement this trait over the simulated
//! machine, so the same monitor runs unchanged on both.

use crate::addr::{PhysAddr, PhysPageNum};
use crate::cycles::Cycles;
use crate::domain::{CoreId, DomainKind};
use crate::perm::MemPerms;
use core::fmt;
use serde::{Deserialize, Serialize};

/// Identifier of an isolable memory unit on the platform.
///
/// On the Sanctum backend this is a DRAM region index; on the Keystone
/// backend it is a PMP-backed physical range handle.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Creates a region identifier.
    pub const fn new(id: u32) -> Self {
        Self(id)
    }

    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region{}", self.0)
    }
}

/// Which shared state a flush operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlushKind {
    /// Architected core state: registers, CSRs relevant to the old domain.
    CoreState,
    /// Private (L1) caches and branch predictor state of a core.
    PrivateCaches,
    /// The shared last-level-cache partition associated with a memory unit.
    SharedCachePartition,
    /// TLB entries referring to a re-allocated memory unit.
    Tlb,
}

/// Errors raised by an isolation backend.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IsolationError {
    /// The requested region does not exist on this platform.
    UnknownRegion(RegionId),
    /// The platform ran out of isolation resources (e.g. PMP entries).
    ResourceExhausted {
        /// Human-readable name of the exhausted resource ("pmp entries", ...).
        resource: &'static str,
    },
    /// The requested physical range is not representable by the platform's
    /// isolation primitive (alignment / size restrictions).
    UnsupportedRange {
        /// Start of the rejected range.
        base: PhysAddr,
        /// Length of the rejected range in bytes.
        len: u64,
    },
    /// The core id is out of range for this machine.
    UnknownCore(CoreId),
    /// The backend operation failed transiently (a flaky device, an injected
    /// fault): the request was *not* applied and may be retried. The monitor
    /// surfaces this as `SmError::Again` so callers back off and retry
    /// instead of wedging.
    TransientFault,
}

impl fmt::Display for IsolationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IsolationError::UnknownRegion(r) => write!(f, "unknown isolation {r}"),
            IsolationError::ResourceExhausted { resource } => {
                write!(f, "platform isolation resource exhausted: {resource}")
            }
            IsolationError::UnsupportedRange { base, len } => {
                write!(f, "unsupported isolation range at {base} (+{len:#x} bytes)")
            }
            IsolationError::UnknownCore(c) => write!(f, "unknown {c}"),
            IsolationError::TransientFault => {
                write!(f, "transient isolation-backend fault (retry)")
            }
        }
    }
}

impl std::error::Error for IsolationError {}

/// Description of one isolable memory unit exposed by the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionInfo {
    /// The unit's identifier.
    pub id: RegionId,
    /// Base physical address.
    pub base: PhysAddr,
    /// Length in bytes.
    pub len: u64,
    /// Whether the platform also partitions the shared cache for this unit.
    pub cache_isolated: bool,
}

impl RegionInfo {
    /// Returns the first physical page of the unit.
    pub fn first_page(&self) -> PhysPageNum {
        self.base.page_number()
    }

    /// Returns the number of 4 KiB pages covered by the unit.
    pub fn page_count(&self) -> u64 {
        self.len / crate::addr::PAGE_SIZE as u64
    }

    /// Returns `true` if `addr` lies inside the unit.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr.as_u64() >= self.base.as_u64() && addr.as_u64() < self.base.as_u64() + self.len
    }
}

/// Declared capacity limits of an isolation platform.
///
/// The differential explorer compares the OS-visible behaviour of the same
/// call trace on two backends; behaviour is required to agree *except* where
/// a backend has declared, ahead of time, that its isolation primitive is
/// capacity-limited (paper Table 2: Keystone's PMP entry count bounds the
/// number of concurrently protected ranges, Sanctum's region array does not).
/// A status divergence is only acceptable when the failing side declared the
/// tighter capacity here — anything else is a real divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlatformCapacity {
    /// Maximum number of memory units that can be isolated (owned by the SM
    /// or an enclave) at the same time; `None` means every unit the platform
    /// enumerates can be protected concurrently.
    pub max_isolated_units: Option<usize>,
}

impl PlatformCapacity {
    /// A platform with no declared capacity limit.
    pub const UNLIMITED: PlatformCapacity = PlatformCapacity {
        max_isolated_units: None,
    };

    /// Returns `true` if this platform declares a tighter isolation-unit
    /// limit than `other` (and so may legitimately fail an allocation the
    /// other platform accepts).
    pub fn tighter_than(&self, other: &PlatformCapacity) -> bool {
        match (self.max_isolated_units, other.max_isolated_units) {
            (Some(mine), Some(theirs)) => mine < theirs,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }
}

/// One region mutation inside a backend batch
/// ([`IsolationBackend::apply_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegionOp {
    /// Assign ownership of `region` to `domain` with `perms`, revoking all
    /// other domains' access.
    Assign {
        /// The memory unit being reassigned.
        region: RegionId,
        /// The domain receiving ownership.
        domain: DomainKind,
        /// The owner's permissions.
        perms: MemPerms,
    },
    /// Block or unblock untrusted DMA to `region`.
    SetDmaBlocked {
        /// The memory unit whose DMA filter changes.
        region: RegionId,
        /// Whether untrusted DMA is blocked.
        blocked: bool,
    },
}

/// The isolation primitive contract required by the security monitor.
///
/// Eight methods: three cached platform facts (`platform_name`, `capacity`,
/// `regions`), one ownership query (`region_owner`), three flushes
/// (`flush`, `tlb_shootdown`, `flush_region_cache`) and the only mutation,
/// `apply_batch`. Every flush and mutation returns the architectural
/// [`Cycles`] cost of the operation so the monitor can account for the cost
/// of enforcement (flushes, shootdowns, PMP writes) in its own bookkeeping —
/// this cost is what the Fig. 4 / Table 2 benchmarks report.
pub trait IsolationBackend {
    /// Human-readable platform name ("sanctum", "keystone").
    fn platform_name(&self) -> &'static str;

    /// Declares the platform's capacity limits (see [`PlatformCapacity`]).
    /// The default declares no limit; capacity-bound platforms (PMP-based
    /// isolation) override this so differential harnesses can tell a
    /// declared-capacity failure from a behavioural divergence.
    fn capacity(&self) -> PlatformCapacity {
        PlatformCapacity::UNLIMITED
    }

    /// Enumerates the isolable memory units of the platform.
    fn regions(&self) -> Vec<RegionInfo>;

    /// Returns the domain currently owning a memory unit.
    fn region_owner(&self, region: RegionId) -> Result<DomainKind, IsolationError>;

    /// Flushes the given kind of shared state, returning its cost.
    ///
    /// `core` identifies the affected hart for core-local flushes and is
    /// ignored for shared structures.
    ///
    /// # Errors
    ///
    /// Returns an error if the core is unknown to the platform.
    fn flush(&mut self, core: CoreId, kind: FlushKind) -> Result<Cycles, IsolationError>;

    /// Performs a TLB shootdown for a re-allocated memory unit across all
    /// harts, returning its cost.
    ///
    /// # Errors
    ///
    /// Returns an error if the region is unknown.
    fn tlb_shootdown(&mut self, region: RegionId) -> Result<Cycles, IsolationError>;

    /// Evicts any cached data belonging to a re-allocated memory unit from
    /// the shared cache, returning its cost. On a platform with a partitioned
    /// last-level cache (Sanctum) only that unit's partition is flushed; on a
    /// platform with a shared cache (Keystone) the whole cache must be
    /// flushed.
    ///
    /// # Errors
    ///
    /// Returns an error if the region is unknown.
    fn flush_region_cache(&mut self, region: RegionId) -> Result<Cycles, IsolationError>;

    /// Applies a batch of region mutations in one backend critical section,
    /// returning their combined cost. This is the only way the monitor
    /// changes the isolation configuration; a single mutation is a one-op
    /// batch.
    ///
    /// The batch is **all-or-nothing**: implementations must validate every
    /// operation (geometry, capacity — e.g. net PMP-entry demand of the whole
    /// batch) *before* mutating any state, so a rejected batch leaves the
    /// hardware configuration untouched and callers need no rollback.
    ///
    /// # Errors
    ///
    /// Returns an error if any operation in the batch is invalid or the
    /// platform cannot express the combined result.
    fn apply_batch(&mut self, ops: &[RegionOp]) -> Result<Cycles, IsolationError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_info_geometry() {
        let info = RegionInfo {
            id: RegionId::new(3),
            base: PhysAddr::new(0x10_0000),
            len: 0x8000,
            cache_isolated: true,
        };
        assert_eq!(info.page_count(), 8);
        assert!(info.contains(PhysAddr::new(0x10_7fff)));
        assert!(!info.contains(PhysAddr::new(0x10_8000)));
        assert!(!info.contains(PhysAddr::new(0xf_ffff)));
        assert_eq!(info.first_page().index(), 0x100);
    }

    #[test]
    fn error_display() {
        let e = IsolationError::ResourceExhausted { resource: "pmp entries" };
        assert_eq!(format!("{e}"), "platform isolation resource exhausted: pmp entries");
        let e = IsolationError::UnknownRegion(RegionId::new(9));
        assert!(format!("{e}").contains("region9"));
    }

    #[test]
    fn capacity_tightness_ordering() {
        let unlimited = PlatformCapacity::UNLIMITED;
        let eight = PlatformCapacity { max_isolated_units: Some(8) };
        let three = PlatformCapacity { max_isolated_units: Some(3) };
        assert!(three.tighter_than(&eight));
        assert!(three.tighter_than(&unlimited));
        assert!(eight.tighter_than(&unlimited));
        assert!(!unlimited.tighter_than(&three));
        assert!(!eight.tighter_than(&three));
        assert!(!three.tighter_than(&three));
    }

    #[test]
    fn region_id_display_and_index() {
        assert_eq!(RegionId::new(5).index(), 5);
        assert_eq!(format!("{}", RegionId::new(5)), "region5");
    }
}
