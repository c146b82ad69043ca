//! What `delete_enclave`'s ownership sweep blocks, resource by resource.
//!
//! In each shard its enclave's mask names, the delete blocks exactly the
//! resources the enclave holds Owned. The world built here makes each way
//! of getting that wrong visible: the dying enclave holds two windows on
//! one shard (a sweep that stops after the first resource of a shard), a
//! neighbour owns a region on that shard too (a sweep that blocks every
//! enclave's resources), and a region a previous incarnation of the
//! recycled id left Blocked sits there as well (a sweep that re-blocks it).

use sanctorum_core::api::SmApi;
use sanctorum_core::monitor::SmConfig;
use sanctorum_core::resource::{shard_of, ResourceId, ResourceState};
use sanctorum_core::session::CallerSession;
use sanctorum_explorer::concurrent::concurrent_machine_config;
use sanctorum_hal::addr::VirtAddr;
use sanctorum_hal::domain::DomainKind;
use sanctorum_hal::isolation::RegionId;
use sanctorum_os::system::{PlatformKind, System};

const SHARDS: u32 = sanctorum_core::resource::RESOURCE_SHARDS as u32;

fn region(index: u32) -> ResourceId {
    ResourceId::Region(RegionId::new(index))
}

#[test]
fn delete_blocks_exactly_the_resources_its_enclave_owns() {
    for platform in PlatformKind::ALL {
        let system = System::boot(platform, concurrent_machine_config(), SmConfig::default());
        let monitor = &system.monitor;
        let os = CallerSession::os();
        let os_owned = |index: u32| {
            monitor.resource_state(region(index)) == Ok(ResourceState::Owned(DomainKind::Untrusted))
        };
        // Base region `b`; `b + SHARDS`, `b + 2 * SHARDS` and `b + 3 * SHARDS`
        // share its shard, `b + 1` does not.
        let b = (0..system.machine.config().num_regions() as u32)
            .find(|&b| [0, 1, SHARDS, 2 * SHARDS, 3 * SHARDS].iter().all(|&d| os_owned(b + d)))
            .expect("the machine has a free run of OS regions");
        let (window, stale, granted, neighbour) =
            (b + SHARDS, b + 2 * SHARDS, b + 1, b + 3 * SHARDS);
        for index in [b, window, stale, granted, neighbour] {
            monitor.block_resource(os, region(index)).unwrap();
            monitor.clean_resource(os, region(index)).unwrap();
        }
        let create = |regions: &[u32]| {
            let regions: Vec<RegionId> = regions.iter().map(|&r| RegionId::new(r)).collect();
            monitor.create_enclave(os, VirtAddr::new(0x10_0000), 0x4000, &regions).unwrap()
        };

        // A previous incarnation over `b` and `stale`, deleted and only `b`
        // cleaned: `stale` stays Blocked under the id `b` gives the next one.
        let first = create(&[b, stale]);
        monitor.delete_enclave(os, first).unwrap();
        monitor.clean_resource(os, region(b)).unwrap();

        let victim = create(&[b, window]);
        assert_eq!(victim, first, "enclave ids are recycled base addresses");
        monitor.grant_resource(os, region(granted), DomainKind::Enclave(victim)).unwrap();
        let other = create(&[neighbour]);
        assert_eq!(shard_of(region(neighbour)), shard_of(region(b)));

        let before = monitor.audit_full().resources;
        let owned = ResourceState::Owned(DomainKind::Enclave(victim));
        let blocked = ResourceState::Blocked(DomainKind::Enclave(victim));
        let held: Vec<ResourceId> =
            before.iter().filter(|(_, state)| *state == owned).map(|(id, _)| *id).collect();
        assert_eq!(held, vec![region(b), region(granted), region(window)]);
        assert_eq!(before.iter().find(|(id, _)| *id == region(stale)).unwrap().1, blocked);

        monitor.delete_enclave(os, victim).unwrap();

        let after = monitor.audit_full().resources;
        assert_eq!(after.len(), before.len());
        for ((id, was), (_, now)) in before.iter().zip(after.iter()) {
            let expected = if *was == owned { blocked } else { *was };
            assert_eq!(*now, expected, "{id:?} on {platform:?}");
        }
        assert_eq!(
            monitor.resource_state(region(neighbour)),
            Ok(ResourceState::Owned(DomainKind::Enclave(other)))
        );
    }
}
