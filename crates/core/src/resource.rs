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
//! the OS) and who may perform them are enforced here; the monitor performs
//! the actual cleaning through the platform backend before completing the
//! `clean` transition.
//!
//! The map is on the monitor's hottest paths (every API call authorizes
//! against it, the explorer audits it after every step), so it is stored as
//! dense vectors indexed directly by core / region number — `state` is O(1) —
//! with two reverse indexes kept in sync by the single `set_state` choke
//! point: a per-owner resource set (`owned_by` is O(owned)) and a
//! region → enclave table for the exclusivity checks. A generation counter
//! increments on every mutation so snapshot consumers (the incremental
//! [`crate::monitor::SecurityMonitor::audit`]) can skip work when nothing
//! changed.
//!
//! For true multi-hart parallelism the monitor holds the map as a
//! [`ShardedResourceMap`]: [`RESOURCE_SHARDS`] independently locked
//! [`ResourceMap`] shards (ids interleaved by index modulo the shard
//! count), so transactions on different resources take disjoint locks and
//! only transactions on the *same* shard ever contend. See the "Locking
//! discipline" section of ARCHITECTURE.md.

use crate::error::{SmError, SmResult};
use crate::lockorder::{rank, LockRank, OrderedMutex};
use sanctorum_hal::domain::{CoreId, DomainKind, EnclaveId};
use sanctorum_hal::isolation::RegionId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
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

impl ResourceState {
    /// Returns the owning domain, if the resource is owned or blocked.
    pub fn owner(&self) -> Option<DomainKind> {
        match self {
            ResourceState::Owned(d) | ResourceState::Blocked(d) => Some(*d),
            ResourceState::Available => None,
        }
    }
}

/// The resource-ownership map maintained by the SM.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResourceMap {
    /// Core states, indexed by [`CoreId`]; `None` = never registered.
    cores: Vec<Option<ResourceState>>,
    /// Region states, indexed by [`RegionId`]; `None` = never registered.
    regions: Vec<Option<ResourceState>>,
    /// Reverse index: every resource owned (or blocked) by a domain, in
    /// [`ResourceId`] order.
    by_owner: BTreeMap<DomainKind, BTreeSet<ResourceId>>,
    /// Reverse index: the enclave owning (or having blocked) each region,
    /// indexed by [`RegionId`].
    region_enclave: Vec<Option<EnclaveId>>,
    /// Registered-resource count.
    registered: usize,
    /// Bumped on every mutation; lets snapshot consumers detect "no change".
    generation: u64,
}

impl ResourceMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotone mutation counter: two equal generations bracket a span in
    /// which no registration or state transition happened.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn slot(&self, id: ResourceId) -> Option<&Option<ResourceState>> {
        match id {
            ResourceId::Core(core) => self.cores.get(core.index()),
            ResourceId::Region(region) => self.regions.get(region.index()),
        }
    }

    /// Writes `state` for `id`, keeping both reverse indexes in sync. All
    /// mutations funnel through here.
    fn set_state(&mut self, id: ResourceId, state: ResourceState) {
        let (vec, index) = match id {
            ResourceId::Core(core) => (&mut self.cores, core.index()),
            ResourceId::Region(region) => (&mut self.regions, region.index()),
        };
        if index >= vec.len() {
            vec.resize(index + 1, None);
        }
        let previous = vec[index].replace(state);
        if previous.is_none() {
            self.registered += 1;
        }
        if let Some(old_owner) = previous.and_then(|s| s.owner()) {
            if let Some(set) = self.by_owner.get_mut(&old_owner) {
                set.remove(&id);
                if set.is_empty() {
                    self.by_owner.remove(&old_owner);
                }
            }
        }
        if let Some(new_owner) = state.owner() {
            self.by_owner.entry(new_owner).or_default().insert(id);
        }
        if let ResourceId::Region(region) = id {
            if region.index() >= self.region_enclave.len() {
                self.region_enclave.resize(region.index() + 1, None);
            }
            self.region_enclave[region.index()] = match state.owner() {
                Some(DomainKind::Enclave(eid)) => Some(eid),
                _ => None,
            };
        }
        self.generation += 1;
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

    /// Returns every resource currently owned (or blocked) by `domain`, in
    /// [`ResourceId`] order.
    pub fn owned_by(&self, domain: DomainKind) -> Vec<ResourceId> {
        self.by_owner
            .get(&domain)
            .map(|set| set.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Returns the enclave owning (or having blocked) `region`, if any —
    /// the reverse of the grant that dedicated the region.
    pub fn enclave_of_region(&self, region: RegionId) -> Option<EnclaveId> {
        self.region_enclave.get(region.index()).copied().flatten()
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

    /// `clean_resource`: completes the release of a blocked resource, making
    /// it available. Only the untrusted OS (which orchestrates machine
    /// resources) or the SM may trigger cleaning; the *actual* cleaning of
    /// hardware state is performed by the monitor before it calls this.
    ///
    /// # Errors
    ///
    /// Fails if the caller is not the OS or SM, or the resource is not
    /// blocked.
    pub fn clean(&mut self, caller: DomainKind, id: ResourceId) -> SmResult<DomainKind> {
        if caller != DomainKind::Untrusted && caller != DomainKind::SecurityMonitor {
            return Err(SmError::Unauthorized);
        }
        let state = self.state(id)?;
        match state {
            ResourceState::Blocked(previous_owner) => {
                self.set_state(id, ResourceState::Available);
                Ok(previous_owner)
            }
            ResourceState::Owned(_) => Err(SmError::ResourceStateViolation {
                reason: "resource must be blocked before cleaning",
            }),
            ResourceState::Available => Err(SmError::ResourceStateViolation {
                reason: "resource is already available",
            }),
        }
    }

    /// `grant_resource`: assigns an available resource to a new owner. Only
    /// the OS (or the SM acting during enclave creation on the OS's behalf)
    /// makes allocation decisions.
    ///
    /// # Errors
    ///
    /// Fails if the caller is not the OS or SM, or the resource is not
    /// available.
    pub fn grant(
        &mut self,
        caller: DomainKind,
        id: ResourceId,
        new_owner: DomainKind,
    ) -> SmResult<()> {
        if caller != DomainKind::Untrusted && caller != DomainKind::SecurityMonitor {
            return Err(SmError::Unauthorized);
        }
        let state = self.state(id)?;
        match state {
            ResourceState::Available => {
                self.set_state(id, ResourceState::Owned(new_owner));
                Ok(())
            }
            _ => Err(SmError::ResourceStateViolation {
                reason: "resource must be available to be granted",
            }),
        }
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

    /// Verifies the global exclusivity invariant: every resource has exactly
    /// one state entry (structural), owned resources have exactly one owner,
    /// and the reverse indexes agree with the dense state tables. Returns the
    /// number of resources checked.
    ///
    /// # Panics
    ///
    /// Panics if a reverse index disagrees with the state tables (which would
    /// mean a mutation bypassed `set_state`).
    pub fn check_exclusivity(&self) -> usize {
        let indexed: usize = self.by_owner.values().map(|set| set.len()).sum();
        let owned = self
            .iter()
            .filter(|(_, state)| state.owner().is_some())
            .count();
        assert_eq!(indexed, owned, "owner index out of sync with state table");
        for (owner, set) in &self.by_owner {
            for id in set {
                assert_eq!(
                    self.state(*id).ok().and_then(|s| s.owner()),
                    Some(*owner),
                    "owner index names {id:?} under the wrong domain"
                );
            }
        }
        for (index, entry) in self.region_enclave.iter().enumerate() {
            let region = RegionId::new(index as u32);
            let expected = match self.state(ResourceId::Region(region)).ok().and_then(|s| s.owner())
            {
                Some(DomainKind::Enclave(eid)) => Some(eid),
                _ => None,
            };
            assert_eq!(*entry, expected, "region→enclave index out of sync for {region}");
        }
        self.registered
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

    /// Returns every resource owned (or blocked) by `domain` across all
    /// shards, in [`ResourceId`] order. Same consistency caveat as
    /// [`Self::snapshot`].
    pub fn owned_by(&self, domain: DomainKind) -> Vec<ResourceId> {
        let mut all: Vec<ResourceId> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().owned_by(domain));
        }
        all.sort_unstable();
        all
    }

    /// Verifies every shard's exclusivity invariant; returns the total
    /// registered-resource count.
    ///
    /// # Panics
    ///
    /// Panics if any shard's reverse index disagrees with its state table.
    pub fn check_exclusivity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().check_exclusivity()).sum()
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
        let prev = map.clean(DomainKind::Untrusted, id).unwrap();
        assert_eq!(prev, DomainKind::Untrusted);
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
        map.block(DomainKind::Untrusted, id).unwrap();
        assert_eq!(map.clean(enclave(1), id), Err(SmError::Unauthorized));
        map.clean(DomainKind::Untrusted, id).unwrap();
        assert_eq!(map.grant(enclave(1), id, enclave(1)), Err(SmError::Unauthorized));
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
    fn owned_by_lists_resources() {
        let mut map = ResourceMap::new();
        map.register(
            ResourceId::Core(CoreId::new(0)),
            ResourceState::Owned(DomainKind::Untrusted),
        );
        map.register(
            ResourceId::Region(RegionId::new(1)),
            ResourceState::Owned(enclave(1)),
        );
        map.register(
            ResourceId::Region(RegionId::new(2)),
            ResourceState::Blocked(enclave(1)),
        );
        let owned = map.owned_by(enclave(1));
        assert_eq!(owned.len(), 2);
        assert_eq!(map.owned_by(DomainKind::Untrusted).len(), 1);
        assert_eq!(map.check_exclusivity(), 3);
    }

    #[test]
    fn reverse_indexes_track_transitions() {
        let mut map = ResourceMap::new();
        let region = RegionId::new(4);
        let id = ResourceId::Region(region);
        map.register(id, ResourceState::Owned(DomainKind::Untrusted));
        assert_eq!(map.enclave_of_region(region), None);

        map.block(DomainKind::Untrusted, id).unwrap();
        map.clean(DomainKind::Untrusted, id).unwrap();
        assert!(map.owned_by(DomainKind::Untrusted).is_empty());

        map.grant(DomainKind::Untrusted, id, enclave(7)).unwrap();
        assert_eq!(map.enclave_of_region(region), Some(EnclaveId::new(7)));
        assert_eq!(map.owned_by(enclave(7)), vec![id]);

        // Blocked resources still count against their owner and keep the
        // region→enclave link until cleaned.
        map.block(DomainKind::SecurityMonitor, id).unwrap();
        assert_eq!(map.enclave_of_region(region), Some(EnclaveId::new(7)));
        assert_eq!(map.owned_by(enclave(7)), vec![id]);
        map.clean(DomainKind::Untrusted, id).unwrap();
        assert_eq!(map.enclave_of_region(region), None);
        assert!(map.owned_by(enclave(7)).is_empty());
        map.check_exclusivity();
    }

    #[test]
    fn generation_counts_mutations_only() {
        let (mut map, id) = map_with_region();
        let g0 = map.generation();
        let _ = map.state(id);
        let _ = map.owned_by(DomainKind::Untrusted);
        assert_eq!(map.generation(), g0, "reads must not bump the generation");
        map.block(DomainKind::Untrusted, id).unwrap();
        assert!(map.generation() > g0);
        let g1 = map.generation();
        // A rejected transition leaves the generation unchanged.
        assert!(map.block(DomainKind::Untrusted, id).is_err());
        assert_eq!(map.generation(), g1);
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
        assert_eq!(map.owned_by(DomainKind::Untrusted).len(), 20);
        assert_eq!(map.check_exclusivity(), 20);
        // Per-shard transitions keep working through the shard lock.
        let id = ResourceId::Region(RegionId::new(9));
        map.shard(id).lock().block(DomainKind::Untrusted, id).unwrap();
        map.touch();
        assert_eq!(map.state(id).unwrap(), ResourceState::Blocked(DomainKind::Untrusted));
        assert_eq!(map.owned_by(DomainKind::Untrusted).len(), 20, "blocked still owned");
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
        assert_eq!(map.owned_by(enclave(3)), vec![id]);
        assert!(map.owned_by(DomainKind::Untrusted).is_empty());
        map.recover_force(id, ResourceState::Available).unwrap();
        assert!(map.owned_by(enclave(3)).is_empty());
        map.check_exclusivity();
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
