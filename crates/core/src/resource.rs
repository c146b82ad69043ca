//! Machine-resource ownership tracking — the state machine of paper Fig. 2.
//!
//! Every isolable machine resource (a core or a DRAM region / PMP-backed
//! memory unit) is at all times in exactly one of three states:
//!
//! * **Owned** by a protection domain;
//! * **Blocked** — still assigned to its owner but flagged for release; the
//!   owner can no longer rely on it and the OS may reclaim it;
//! * **Available** — cleaned and ready to be granted to a new owner.
//!
//! The transitions (`block` by the owner or SM, `clean` by the OS, `grant` by
//! the OS) and who may perform them are enforced here, and only here: the
//! monitor validates a clean or grant with [`ResourceMap::check_clean`] /
//! [`ResourceMap::check_grant`] before it touches hardware (the scrub, the
//! isolation primitive), and the commit re-runs the same check under the
//! same shard lock.
//!
//! The map is on the monitor's hottest paths (every API call authorizes
//! against it, the explorer audits it after every step), so it is stored as
//! dense vectors indexed directly by core / region number: `state` is O(1)
//! and a transition is one slot write.
//!
//! For true multi-hart parallelism the monitor holds the map as a
//! [`ShardedResourceMap`]: [`RESOURCE_SHARDS`] independently locked
//! [`ResourceMap`] shards (ids interleaved by index modulo the shard
//! count), so transactions on different resources take disjoint locks and
//! only transactions on the *same* shard ever contend. See the "Locking
//! discipline" section of ARCHITECTURE.md.

use crate::error::{SmError, SmResult};
use crate::lockorder::{rank, LockRank, OrderedMutex};
use sanctorum_hal::domain::{CoreId, DomainKind};
use sanctorum_hal::isolation::RegionId;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one isolable machine resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceId {
    /// A processor core (time-multiplexed between domains).
    Core(CoreId),
    /// An isolable memory unit (a Sanctum DRAM region or Keystone PMP range).
    Region(RegionId),
}

/// The ownership state of one resource (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResourceState {
    /// Owned and usable by a protection domain.
    Owned(DomainKind),
    /// Flagged for release by its owner (or the SM); awaiting cleaning.
    Blocked(DomainKind),
    /// Cleaned and ready for re-allocation.
    Available,
}

/// Only the untrusted OS (which orchestrates machine resources) or the SM
/// acting on its behalf may clean or grant a resource.
fn require_os_or_sm(caller: DomainKind) -> SmResult<()> {
    match caller {
        DomainKind::Untrusted | DomainKind::SecurityMonitor => Ok(()),
        _ => Err(SmError::Unauthorized),
    }
}

/// The resource-ownership map maintained by the SM.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResourceMap {
    /// Core states, indexed by [`CoreId`]; `None` = never registered.
    cores: Vec<Option<ResourceState>>,
    /// Region states, indexed by [`RegionId`]; `None` = never registered.
    regions: Vec<Option<ResourceState>>,
}

impl ResourceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, id: ResourceId) -> Option<&Option<ResourceState>> {
        match id {
            ResourceId::Core(core) => self.cores.get(core.index()),
            ResourceId::Region(region) => self.regions.get(region.index()),
        }
    }

    /// Writes `state` for `id`. All mutations funnel through here.
    fn set_state(&mut self, id: ResourceId, state: ResourceState) {
        let (vec, index) = match id {
            ResourceId::Core(core) => (&mut self.cores, core.index()),
            ResourceId::Region(region) => (&mut self.regions, region.index()),
        };
        if index >= vec.len() {
            vec.resize(index + 1, None);
        }
        vec[index] = Some(state);
    }

    /// Registers a resource with an initial owner (used at boot: all cores
    /// and regions start out owned by the untrusted OS, except the regions
    /// the SM reserves for itself).
    pub fn register(&mut self, id: ResourceId, initial: ResourceState) {
        self.set_state(id, initial);
    }

    /// Returns the state of a resource.
    ///
    /// # Errors
    ///
    /// Returns [`SmError::UnknownResource`] if the resource was never
    /// registered.
    pub fn state(&self, id: ResourceId) -> SmResult<ResourceState> {
        self.slot(id).copied().flatten().ok_or(SmError::UnknownResource)
    }

    /// `block_resource`: flags an owned resource for release.
    ///
    /// Allowed for the owner itself or the SM (which blocks all of an
    /// enclave's resources when the OS deletes it).
    ///
    /// # Errors
    ///
    /// Fails if the caller is neither the owner nor the SM, or if the
    /// resource is not currently owned.
    pub fn block(&mut self, caller: DomainKind, id: ResourceId) -> SmResult<()> {
        let state = self.state(id)?;
        match state {
            ResourceState::Owned(owner) => {
                if caller != owner && caller != DomainKind::SecurityMonitor {
                    return Err(SmError::Unauthorized);
                }
                self.set_state(id, ResourceState::Blocked(owner));
                Ok(())
            }
            ResourceState::Blocked(_) => Err(SmError::ResourceStateViolation {
                reason: "resource is already blocked",
            }),
            ResourceState::Available => Err(SmError::ResourceStateViolation {
                reason: "cannot block an available resource",
            }),
        }
    }

    /// Validates `clean_resource` without committing: the resource must be
    /// blocked, and the caller must be the OS or the SM. The state is
    /// checked first, so cleaning a resource that is not blocked is a state
    /// violation whoever asks.
    ///
    /// # Errors
    ///
    /// Fails if the resource is not blocked, or the caller is not the OS or
    /// SM.
    pub fn check_clean(&self, caller: DomainKind, id: ResourceId) -> SmResult<()> {
        let ResourceState::Blocked(_) = self.state(id)? else {
            return Err(SmError::ResourceStateViolation {
                reason: "resource must be blocked before cleaning",
            });
        };
        require_os_or_sm(caller)
    }

    /// `clean_resource`: completes the release of a blocked resource, making
    /// it available. The *actual* cleaning of hardware state is performed by
    /// the monitor before it calls this.
    ///
    /// # Errors
    ///
    /// Fails as [`Self::check_clean`] does.
    pub fn clean(&mut self, caller: DomainKind, id: ResourceId) -> SmResult<()> {
        self.check_clean(caller, id)?;
        self.set_state(id, ResourceState::Available);
        Ok(())
    }

    /// Validates `grant_resource` without committing: the caller must be
    /// the OS or the SM (acting during enclave creation on the OS's behalf)
    /// and the resource must be available. The caller is checked first.
    ///
    /// # Errors
    ///
    /// Fails if the caller is not the OS or SM, or the resource is not
    /// available.
    pub fn check_grant(&self, caller: DomainKind, id: ResourceId) -> SmResult<()> {
        require_os_or_sm(caller)?;
        match self.state(id)? {
            ResourceState::Available => Ok(()),
            _ => Err(SmError::ResourceStateViolation {
                reason: "resource must be available to be granted",
            }),
        }
    }

    /// `grant_resource`: assigns an available resource to a new owner.
    ///
    /// # Errors
    ///
    /// Fails as [`Self::check_grant`] does.
    pub fn grant(
        &mut self,
        caller: DomainKind,
        id: ResourceId,
        new_owner: DomainKind,
    ) -> SmResult<()> {
        self.check_grant(caller, id)?;
        self.set_state(id, ResourceState::Owned(new_owner));
        Ok(())
    }

    /// Crash-recovery escape hatch: forces a registered resource into
    /// `state` regardless of the Fig. 2 transition rules. Only
    /// `SecurityMonitor::recover` uses this, to repair a journaled mutation
    /// that crashed between its intent record and its commit (e.g. a grant
    /// whose backend write landed but whose map transition did not) — every
    /// normal API path goes through [`Self::block`] / [`Self::clean`] /
    /// [`Self::grant`].
    ///
    /// # Errors
    ///
    /// Returns [`SmError::UnknownResource`] if the resource was never
    /// registered; recovery repairs state, it does not invent resources.
    pub fn recover_force(&mut self, id: ResourceId, state: ResourceState) -> SmResult<()> {
        let _ = self.state(id)?;
        self.set_state(id, state);
        Ok(())
    }

    /// Iterates over all registered resources and their states, in
    /// [`ResourceId`] order (cores before regions, ascending indices).
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, ResourceState)> + '_ {
        let cores = self
            .cores
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (ResourceId::Core(CoreId::new(i as u32)), s)));
        let regions = self
            .regions
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|s| (ResourceId::Region(RegionId::new(i as u32)), s)));
        cores.chain(regions)
    }

    /// Collects the full state table (the audit-snapshot payload), in
    /// [`ResourceId`] order.
    pub fn snapshot(&self) -> Vec<(ResourceId, ResourceState)> {
        self.iter().collect()
    }
}

/// Number of lock shards [`ShardedResourceMap`] splits the resource space
/// across. Resource ids map onto shards by index modulo this count
/// (interleaved ranges), so a run of consecutive region ids — the typical
/// working sets of *different* enclaves — lands on *different* shards and
/// concurrent transactions on them take disjoint locks.
pub const RESOURCE_SHARDS: usize = 8;

/// Returns the shard index resource `id` lives on.
pub const fn shard_of(id: ResourceId) -> usize {
    match id {
        ResourceId::Core(core) => core.index() % RESOURCE_SHARDS,
        ResourceId::Region(region) => region.index() % RESOURCE_SHARDS,
    }
}

/// A set of shards, bit `k` standing for shard `k`.
pub type ShardMask = u8;

const _: () = assert!(RESOURCE_SHARDS <= ShardMask::BITS as usize);

/// The [`ShardMask`] holding only the shard resource `id` lives on.
pub const fn shard_bit(id: ResourceId) -> ShardMask {
    1 << shard_of(id)
}

/// The resource map split across [`RESOURCE_SHARDS`] independently locked
/// shards, so API transactions touching different resources do not contend
/// (paper Sections IV–V: harts only serialize on the object they operate
/// on). Each shard is a complete [`ResourceMap`] holding only its own ids;
/// shard `k` carries lock rank `RESOURCE_SHARD_BASE + k`, and multi-shard
/// transactions (enclave creation over several regions, the delete sweep)
/// acquire shards in ascending index order — enforced by the debug
/// lock-order checker.
///
/// A map-wide [`ShardedResourceMap::generation`] counter (atomic, bumped by
/// the monitor after every committed transition via
/// [`ShardedResourceMap::touch`]) lets the incremental audit skip all shard
/// locks when nothing changed. The convention matches the monitor's other
/// generation counters: readers load the generation *before* collecting
/// state, so a racing mutation can only make collected state newer than the
/// recorded generation and the next audit conservatively rebuilds.
#[derive(Debug)]
pub struct ShardedResourceMap {
    /// Shard `k` holds rank `RESOURCE_SHARD_BASE + k`, so the (rare)
    /// multi-shard transactions acquire shards in ascending index order.
    shards: Vec<OrderedMutex<ResourceMap>>,
    generation: AtomicU64,
}

impl Default for ShardedResourceMap {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedResourceMap {
    /// Creates an empty sharded map.
    pub fn new() -> Self {
        Self {
            shards: (0..RESOURCE_SHARDS)
                .map(|k| {
                    OrderedMutex::new(
                        LockRank(rank::RESOURCE_SHARD_BASE + k as u16),
                        ResourceMap::new(),
                    )
                })
                .collect(),
            generation: AtomicU64::new(0),
        }
    }

    /// The shard holding resource `id`.
    pub fn shard(&self, id: ResourceId) -> &OrderedMutex<ResourceMap> {
        &self.shards[shard_of(id)]
    }

    /// All shards, in ascending shard (and therefore lock-rank) order.
    pub fn shards(&self) -> &[OrderedMutex<ResourceMap>] {
        &self.shards
    }

    /// The map-wide mutation counter. Monotone; bumped by [`Self::touch`].
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Records one committed mutation. The monitor calls this after every
    /// successful transition (block / clean / grant / registration); missing
    /// a call would let the incremental audit serve stale resource state,
    /// which the audit-equivalence property test catches.
    pub fn touch(&self) {
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers a resource with an initial owner (boot-time).
    pub fn register(&self, id: ResourceId, initial: ResourceState) {
        self.shard(id).lock().register(id, initial);
        self.touch();
    }

    /// Returns the state of one resource, locking only its shard.
    ///
    /// # Errors
    ///
    /// Returns [`SmError::UnknownResource`] if the resource was never
    /// registered.
    pub fn state(&self, id: ResourceId) -> SmResult<ResourceState> {
        self.shard(id).lock().state(id)
    }

    /// Collects the full state table in [`ResourceId`] order, locking shards
    /// in ascending order (one at a time — callers needing a transactionally
    /// consistent view must be at a quiescent point, which is where the
    /// explorer's audits run).
    pub fn snapshot(&self) -> Vec<(ResourceId, ResourceState)> {
        let mut all: Vec<(ResourceId, ResourceState)> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().iter());
        }
        all.sort_unstable_by_key(|(id, _)| *id);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sanctorum_hal::domain::EnclaveId;

    fn enclave(id: u64) -> DomainKind {
        DomainKind::Enclave(EnclaveId::new(id))
    }

    fn map_with_region() -> (ResourceMap, ResourceId) {
        let mut map = ResourceMap::new();
        let id = ResourceId::Region(RegionId::new(0));
        map.register(id, ResourceState::Owned(DomainKind::Untrusted));
        (map, id)
    }

    #[test]
    fn full_lifecycle_owned_blocked_available_owned() {
        let (mut map, id) = map_with_region();
        map.block(DomainKind::Untrusted, id).unwrap();
        assert_eq!(map.state(id).unwrap(), ResourceState::Blocked(DomainKind::Untrusted));
        map.clean(DomainKind::Untrusted, id).unwrap();
        assert_eq!(map.state(id).unwrap(), ResourceState::Available);
        map.grant(DomainKind::Untrusted, id, enclave(1)).unwrap();
        assert_eq!(map.state(id).unwrap(), ResourceState::Owned(enclave(1)));
    }

    #[test]
    fn only_owner_or_sm_may_block() {
        let (mut map, id) = map_with_region();
        // A different enclave cannot block the OS's resource.
        assert_eq!(map.block(enclave(1), id), Err(SmError::Unauthorized));
        // The SM can.
        map.block(DomainKind::SecurityMonitor, id).unwrap();
    }

    #[test]
    fn enclave_owner_can_block_its_own_resource() {
        let mut map = ResourceMap::new();
        let id = ResourceId::Region(RegionId::new(3));
        map.register(id, ResourceState::Owned(enclave(1)));
        map.block(enclave(1), id).unwrap();
        assert_eq!(map.state(id).unwrap(), ResourceState::Blocked(enclave(1)));
    }

    #[test]
    fn illegal_transitions_rejected() {
        let (mut map, id) = map_with_region();
        // Owned -> Available without blocking is illegal.
        assert!(matches!(
            map.clean(DomainKind::Untrusted, id),
            Err(SmError::ResourceStateViolation { .. })
        ));
        // Owned -> Owned (re-grant) is illegal.
        assert!(matches!(
            map.grant(DomainKind::Untrusted, id, enclave(1)),
            Err(SmError::ResourceStateViolation { .. })
        ));
        map.block(DomainKind::Untrusted, id).unwrap();
        // Double block is illegal.
        assert!(matches!(
            map.block(DomainKind::Untrusted, id),
            Err(SmError::ResourceStateViolation { .. })
        ));
        map.clean(DomainKind::Untrusted, id).unwrap();
        // Double clean is illegal.
        assert!(matches!(
            map.clean(DomainKind::Untrusted, id),
            Err(SmError::ResourceStateViolation { .. })
        ));
    }

    #[test]
    fn enclaves_cannot_grant_or_clean() {
        let (mut map, id) = map_with_region();
        // Clean checks the state before the caller: an enclave cleaning a
        // resource that is not blocked hits the state rule first.
        assert!(matches!(
            map.clean(enclave(1), id),
            Err(SmError::ResourceStateViolation { .. })
        ));
        map.block(DomainKind::Untrusted, id).unwrap();
        assert_eq!(map.clean(enclave(1), id), Err(SmError::Unauthorized));
        // Grant checks the caller first, whatever the state.
        assert_eq!(map.grant(enclave(1), id, enclave(1)), Err(SmError::Unauthorized));
        map.clean(DomainKind::Untrusted, id).unwrap();
        assert_eq!(map.grant(enclave(1), id, enclave(1)), Err(SmError::Unauthorized));
        assert_eq!(map.state(id).unwrap(), ResourceState::Available);
    }

    #[test]
    fn unknown_resource_reported() {
        let map = ResourceMap::new();
        assert_eq!(
            map.state(ResourceId::Core(CoreId::new(9))),
            Err(SmError::UnknownResource)
        );
        // A registered neighbour does not make an unregistered index known.
        let mut map = ResourceMap::new();
        map.register(
            ResourceId::Region(RegionId::new(5)),
            ResourceState::Available,
        );
        assert_eq!(
            map.state(ResourceId::Region(RegionId::new(2))),
            Err(SmError::UnknownResource)
        );
    }

    #[test]
    fn sharded_map_routes_and_merges_across_shards() {
        let map = ShardedResourceMap::new();
        // Region indices 0..20 spread across all shards; a consecutive run
        // of ids therefore lands on distinct shards (the interleaved map).
        for i in 0..20u32 {
            map.register(
                ResourceId::Region(RegionId::new(i)),
                ResourceState::Owned(DomainKind::Untrusted),
            );
        }
        assert_eq!(
            shard_of(ResourceId::Region(RegionId::new(3))),
            shard_of(ResourceId::Region(RegionId::new(3 + RESOURCE_SHARDS as u32)))
        );
        assert_ne!(
            shard_of(ResourceId::Region(RegionId::new(3))),
            shard_of(ResourceId::Region(RegionId::new(4)))
        );
        // The merged snapshot is in ResourceId order despite sharding.
        let snapshot = map.snapshot();
        assert_eq!(snapshot.len(), 20);
        assert!(snapshot.windows(2).all(|w| w[0].0 < w[1].0));
        // Per-shard transitions keep working through the shard lock.
        let id = ResourceId::Region(RegionId::new(9));
        map.shard(id).lock().block(DomainKind::Untrusted, id).unwrap();
        map.touch();
        assert_eq!(map.state(id).unwrap(), ResourceState::Blocked(DomainKind::Untrusted));
        assert_eq!(map.snapshot().len(), 20);
    }

    #[test]
    fn sharded_generation_is_explicitly_touched() {
        let map = ShardedResourceMap::new();
        let g0 = map.generation();
        map.register(
            ResourceId::Core(CoreId::new(0)),
            ResourceState::Owned(DomainKind::Untrusted),
        );
        assert!(map.generation() > g0, "register touches the generation");
        let g1 = map.generation();
        let _ = map.state(ResourceId::Core(CoreId::new(0)));
        let _ = map.snapshot();
        assert_eq!(map.generation(), g1, "reads must not bump the generation");
        map.touch();
        assert_eq!(map.generation(), g1 + 1);
    }

    #[test]
    fn recover_force_repairs_state_and_indexes() {
        let (mut map, id) = map_with_region();
        // Force Owned(OS) -> Blocked(enclave) directly, as recovery does when
        // it finds a half-deleted enclave's region.
        map.recover_force(id, ResourceState::Blocked(enclave(3))).unwrap();
        assert_eq!(map.state(id).unwrap(), ResourceState::Blocked(enclave(3)));
        map.recover_force(id, ResourceState::Available).unwrap();
        assert_eq!(map.state(id).unwrap(), ResourceState::Available);
        // Unregistered resources cannot be invented by recovery.
        assert_eq!(
            map.recover_force(ResourceId::Region(RegionId::new(9)), ResourceState::Available),
            Err(SmError::UnknownResource)
        );
    }

    #[test]
    fn iteration_order_is_cores_then_regions_ascending() {
        let mut map = ResourceMap::new();
        map.register(ResourceId::Region(RegionId::new(1)), ResourceState::Available);
        map.register(ResourceId::Core(CoreId::new(1)), ResourceState::Available);
        map.register(ResourceId::Core(CoreId::new(0)), ResourceState::Available);
        map.register(ResourceId::Region(RegionId::new(0)), ResourceState::Available);
        let ids: Vec<ResourceId> = map.iter().map(|(id, _)| id).collect();
        assert_eq!(
            ids,
            vec![
                ResourceId::Core(CoreId::new(0)),
                ResourceId::Core(CoreId::new(1)),
                ResourceId::Region(RegionId::new(0)),
                ResourceId::Region(RegionId::new(1)),
            ]
        );
        assert_eq!(map.snapshot().len(), 4);
    }
}
