//! Enclave metadata and lifecycle (paper Section V-C, Fig. 3).

use crate::error::{SmError, SmResult};
use crate::mailbox::Mailbox;
use crate::measurement::{Measurement, MeasurementContext};
use crate::resource::{shard_bit, ResourceId, ShardMask};
use sanctorum_hal::addr::{PhysAddr, VirtAddr, PAGE_SIZE};
use sanctorum_hal::domain::EnclaveId;
use sanctorum_hal::isolation::RegionId;
use std::collections::BTreeSet;

/// Number of mailboxes allocated per enclave.
pub const MAILBOXES_PER_ENCLAVE: usize = 4;

/// Lifecycle states of an enclave (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveLifecycle {
    /// Created; the OS may still load page tables, pages and threads.
    Loading,
    /// Sealed by `init_enclave`; threads may be scheduled, no further
    /// modification through the API is possible.
    Initialized,
    /// Terminal: `delete_enclave` committed under this enclave's guard and
    /// is tearing it down. Every call that takes the guard afterwards
    /// treats the enclave as gone ([`SmError::UnknownEnclave`]), so nothing
    /// can start, load, receive a grant or receive mail between the
    /// delete's commit and its table removal.
    Deleted,
}

/// A contiguous physical memory window granted to the enclave (the pages of
/// one granted region, tracked for the bump allocator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysWindow {
    /// The platform region backing this window.
    pub region: RegionId,
    /// Base physical address.
    pub base: PhysAddr,
    /// Length in bytes.
    pub len: u64,
}

/// Per-enclave metadata held in SM-owned memory.
///
/// The paper stores this structure at a physical address which doubles as the
/// enclave id; the reproduction keeps that convention by deriving
/// [`EnclaveId`] from the base address of the enclave's first granted region.
#[derive(Debug, Clone)]
pub struct EnclaveMeta {
    /// The enclave's identifier.
    pub id: EnclaveId,
    /// Lifecycle state.
    pub lifecycle: EnclaveLifecycle,
    /// Base of the enclave virtual range.
    pub evrange_base: VirtAddr,
    /// Length of the enclave virtual range in bytes.
    pub evrange_len: u64,
    /// Physical windows granted to the enclave, in ascending base order.
    pub windows: Vec<PhysWindow>,
    /// Root of the enclave-private page table (the first allocated page).
    pub page_table_root: Option<PhysAddr>,
    /// Reserved, still-unused page-table pages (allocated by
    /// `allocate_page_table`, consumed as `load_page` builds mappings).
    pub pt_pool: Vec<PhysAddr>,
    /// Next physical page the bump allocator will hand out.
    pub next_free_page: PhysAddr,
    /// Virtual pages already mapped (enforces an injective mapping).
    pub mapped_vpns: BTreeSet<u64>,
    /// In-progress measurement while `Loading`.
    pub measurement_ctx: Option<MeasurementContext>,
    /// Final measurement once `Initialized`.
    pub measurement: Option<Measurement>,
    /// Threads belonging to this enclave.
    pub threads: Vec<u64>,
    /// Mailboxes for local attestation.
    pub mailboxes: Vec<Mailbox>,
    /// Number of threads currently running on cores.
    pub running_threads: usize,
    /// The resource shards that may hold something this enclave owns: its
    /// windows' shards from creation, plus the shard of every resource
    /// `grant_resource` gave it (set while holding that shard and this
    /// record's guard). Never cleared, so it may over-approximate;
    /// `delete_enclave` locks exactly these shards.
    pub shard_mask: ShardMask,
    /// Generation stamp of the last audit-visible mutation, drawn from the
    /// monitor's global enclave counter (values are unique process-wide, so
    /// a recreated enclave can never alias a stale cached audit record).
    /// Maintained by `SecurityMonitor::touch_enclave`; the incremental audit
    /// reuses its cached record while this stamp is unchanged.
    pub audit_generation: u64,
}

impl EnclaveMeta {
    /// Creates metadata for a new enclave in the `Loading` state.
    ///
    /// `windows` must be sorted by base address and non-empty; the caller
    /// (the monitor) has already validated ownership of the regions.
    pub fn new(
        id: EnclaveId,
        evrange_base: VirtAddr,
        evrange_len: u64,
        windows: Vec<PhysWindow>,
        measurement_ctx: MeasurementContext,
    ) -> Self {
        let next_free_page = windows.first().map(|w| w.base).unwrap_or(PhysAddr::new(0));
        let shard_mask = windows
            .iter()
            .fold(0, |mask, w| mask | shard_bit(ResourceId::Region(w.region)));
        Self {
            id,
            lifecycle: EnclaveLifecycle::Loading,
            evrange_base,
            evrange_len,
            windows,
            page_table_root: None,
            pt_pool: Vec::new(),
            next_free_page,
            mapped_vpns: BTreeSet::new(),
            measurement_ctx: Some(measurement_ctx),
            measurement: None,
            threads: Vec::new(),
            mailboxes: (0..MAILBOXES_PER_ENCLAVE).map(|_| Mailbox::new()).collect(),
            running_threads: 0,
            shard_mask,
            audit_generation: 0,
        }
    }

    /// Returns `true` if `vaddr` lies inside the enclave virtual range.
    pub fn in_evrange(&self, vaddr: VirtAddr) -> bool {
        vaddr.in_range(self.evrange_base, self.evrange_len)
    }

    /// Allocates the next physical page in ascending order (the bump
    /// allocator that realizes the paper's monotonic-order invariant).
    ///
    /// # Errors
    ///
    /// Returns [`SmError::OutOfResources`] if the enclave's granted memory is
    /// exhausted.
    pub fn alloc_next_page(&mut self) -> SmResult<PhysAddr> {
        let current = self.next_free_page;
        // Find the window containing `current`.
        let window_index = self
            .windows
            .iter()
            .position(|w| {
                current.as_u64() >= w.base.as_u64() && current.as_u64() < w.base.as_u64() + w.len
            })
            .ok_or(SmError::OutOfResources {
                resource: "enclave physical pages",
            })?;
        let window = self.windows[window_index];
        let next = current.offset(PAGE_SIZE as u64);
        self.next_free_page = if next.as_u64() < window.base.as_u64() + window.len {
            next
        } else if let Some(next_window) = self.windows.get(window_index + 1) {
            next_window.base
        } else {
            // Point one past the end; the next allocation will fail.
            next
        };
        Ok(current)
    }

    /// Records that `vpn` has been mapped, enforcing injectivity.
    ///
    /// # Errors
    ///
    /// Returns an error if the virtual page is already mapped.
    pub fn record_mapping(&mut self, vaddr: VirtAddr) -> SmResult<()> {
        if !self.mapped_vpns.insert(vaddr.page_number().index()) {
            return Err(SmError::InvalidArgument {
                reason: "virtual page already mapped (aliasing forbidden)",
            });
        }
        Ok(())
    }

    /// Returns the finalized measurement.
    ///
    /// # Errors
    ///
    /// Fails if the enclave has not been initialized yet.
    pub fn measurement(&self) -> SmResult<Measurement> {
        self.measurement.ok_or(SmError::InvalidState {
            reason: "enclave not yet initialized",
        })
    }

    /// Requires the enclave not to be [`EnclaveLifecycle::Deleted`].
    ///
    /// # Errors
    ///
    /// Returns [`SmError::UnknownEnclave`] for a deleted enclave.
    pub fn require_live(&self) -> SmResult<()> {
        if self.lifecycle == EnclaveLifecycle::Deleted {
            Err(SmError::UnknownEnclave(self.id))
        } else {
            Ok(())
        }
    }

    /// Requires the enclave to be in the `Loading` state.
    ///
    /// # Errors
    ///
    /// Returns [`SmError::UnknownEnclave`] for a deleted enclave and
    /// [`SmError::InvalidState`] for an initialized one.
    pub fn require_loading(&self) -> SmResult<()> {
        match self.lifecycle {
            EnclaveLifecycle::Loading => Ok(()),
            EnclaveLifecycle::Initialized => Err(SmError::InvalidState {
                reason: "enclave is already initialized",
            }),
            EnclaveLifecycle::Deleted => Err(SmError::UnknownEnclave(self.id)),
        }
    }

    /// Requires the enclave to be in the `Initialized` state.
    ///
    /// # Errors
    ///
    /// Returns [`SmError::UnknownEnclave`] for a deleted enclave and
    /// [`SmError::InvalidState`] for one still loading.
    pub fn require_initialized(&self) -> SmResult<()> {
        match self.lifecycle {
            EnclaveLifecycle::Initialized => Ok(()),
            EnclaveLifecycle::Loading => Err(SmError::InvalidState {
                reason: "enclave is still loading",
            }),
            EnclaveLifecycle::Deleted => Err(SmError::UnknownEnclave(self.id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> EnclaveMeta {
        let ctx = MeasurementContext::start(&[0; 32], VirtAddr::new(0x10000), 0x8000);
        EnclaveMeta::new(
            EnclaveId::new(0x8010_0000),
            VirtAddr::new(0x10000),
            0x8000,
            vec![
                PhysWindow {
                    region: RegionId::new(1),
                    base: PhysAddr::new(0x8010_0000),
                    len: 2 * PAGE_SIZE as u64,
                },
                PhysWindow {
                    region: RegionId::new(2),
                    base: PhysAddr::new(0x8020_0000),
                    len: PAGE_SIZE as u64,
                },
            ],
            ctx,
        )
    }

    #[test]
    fn bump_allocator_is_monotonic_across_windows() {
        let mut m = meta();
        let p1 = m.alloc_next_page().unwrap();
        let p2 = m.alloc_next_page().unwrap();
        let p3 = m.alloc_next_page().unwrap();
        assert_eq!(p1, PhysAddr::new(0x8010_0000));
        assert_eq!(p2, PhysAddr::new(0x8010_1000));
        assert_eq!(p3, PhysAddr::new(0x8020_0000));
        assert!(p1 < p2 && p2 < p3, "allocation order must be ascending");
        assert!(matches!(
            m.alloc_next_page(),
            Err(SmError::OutOfResources { .. })
        ));
    }

    #[test]
    fn evrange_and_ownership_checks() {
        let m = meta();
        assert!(m.in_evrange(VirtAddr::new(0x10000)));
        assert!(m.in_evrange(VirtAddr::new(0x17fff)));
        assert!(!m.in_evrange(VirtAddr::new(0x18000)));
    }

    #[test]
    fn aliasing_rejected() {
        let mut m = meta();
        m.record_mapping(VirtAddr::new(0x10000)).unwrap();
        assert!(m.record_mapping(VirtAddr::new(0x10008)).is_err());
        m.record_mapping(VirtAddr::new(0x11000)).unwrap();
    }

    #[test]
    fn lifecycle_guards() {
        let mut m = meta();
        m.require_loading().unwrap();
        assert!(m.require_initialized().is_err());
        assert!(m.measurement().is_err());
        m.lifecycle = EnclaveLifecycle::Initialized;
        m.measurement = Some(Measurement([9; 32]));
        m.require_initialized().unwrap();
        assert!(m.require_loading().is_err());
        assert_eq!(m.measurement().unwrap(), Measurement([9; 32]));
        m.lifecycle = EnclaveLifecycle::Deleted;
        for refused in [
            m.require_live(),
            m.require_loading(),
            m.require_initialized(),
        ] {
            assert_eq!(refused, Err(SmError::UnknownEnclave(m.id)));
        }
    }

    #[test]
    fn shard_mask_covers_the_windows() {
        let m = meta();
        let expected = shard_bit(ResourceId::Region(RegionId::new(1)))
            | shard_bit(ResourceId::Region(RegionId::new(2)));
        assert_eq!(m.shard_mask, expected);
    }

    #[test]
    fn mailboxes_preallocated() {
        let m = meta();
        assert_eq!(m.mailboxes.len(), MAILBOXES_PER_ENCLAVE);
    }
}
