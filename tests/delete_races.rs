//! `delete_enclave` racing the calls that add to what an enclave holds, on
//! real threads against one FineGrained monitor.
//!
//! A delete locks only the resource shards its enclave's shard mask names
//! and marks the enclave `Deleted` under its guard before tearing it down.
//! These loops race it against a grant of an extra region (which widens the
//! mask) and against mail sent to the dying enclave (whose queued mail the
//! delete refunds), and check after every trial that nothing the enclave
//! held outlived it: no resource owned by a missing enclave, no quota unit
//! charged for mail nobody can receive.

use sanctorum_core::api::SmApi;
use sanctorum_core::error::SmError;
use sanctorum_core::monitor::{SecurityMonitor, SmConfig};
use sanctorum_core::resource::{shard_of, ResourceId, ResourceState};
use sanctorum_core::session::CallerSession;
use sanctorum_explorer::concurrent::concurrent_machine_config;
use sanctorum_hal::addr::VirtAddr;
use sanctorum_hal::domain::{DomainKind, EnclaveId};
use sanctorum_hal::isolation::RegionId;
use sanctorum_os::system::{PlatformKind, System};
use sanctorum_trust::Tainted;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Grant-versus-delete trials.
const GRANT_TRIALS: usize = 4_000;
/// Mail-versus-delete iterations. Before `send_mail` refused a deleted
/// recipient, four runs of this loop each leaked a quota unit, first at
/// iteration 0 to 5 384.
const MAIL_ITERATIONS: usize = 20_000;

fn boot() -> System {
    System::boot(
        PlatformKind::Sanctum,
        concurrent_machine_config(),
        SmConfig::default(),
    )
}

/// Issues `call` until it stops failing with `ConcurrentCall`.
fn retry<T>(mut call: impl FnMut() -> Result<T, SmError>) -> Result<T, SmError> {
    loop {
        match call() {
            Err(SmError::ConcurrentCall) => std::hint::spin_loop(),
            other => return other,
        }
    }
}

/// The first `n` regions the OS owns at boot, made Available.
fn available_regions(system: &System, n: usize) -> Vec<RegionId> {
    let monitor = &system.monitor;
    let os = CallerSession::os();
    let regions: Vec<RegionId> = (0..system.machine.config().num_regions() as u32)
        .map(RegionId::new)
        .filter(|r| {
            monitor.resource_state(ResourceId::Region(*r))
                == Ok(ResourceState::Owned(DomainKind::Untrusted))
        })
        .take(n)
        .collect();
    assert_eq!(regions.len(), n, "the machine has {n} OS regions to spare");
    for region in &regions {
        monitor
            .block_resource(os, ResourceId::Region(*region))
            .unwrap();
        monitor
            .clean_resource(os, ResourceId::Region(*region))
            .unwrap();
    }
    regions
}

fn create(monitor: &SecurityMonitor, region: RegionId) -> EnclaveId {
    retry(|| {
        monitor.create_enclave(
            CallerSession::os(),
            VirtAddr::new(0x10_0000),
            0x4000,
            &[region],
        )
    })
    .expect("the region is Available")
}

fn delete(monitor: &SecurityMonitor, eid: EnclaveId) -> Result<(), String> {
    retry(|| monitor.delete_enclave(CallerSession::os(), eid))
        .map_err(|err| format!("delete failed with {err:?}"))
}

/// Cleans `region` if a delete left it Blocked.
fn reclaim(monitor: &SecurityMonitor, region: RegionId) {
    let id = ResourceId::Region(region);
    if let Ok(ResourceState::Blocked(_)) = monitor.resource_state(id) {
        retry(|| monitor.clean_resource(CallerSession::os(), id)).unwrap();
    }
}

/// Runs `trials` two-thread races. Each trial runs `setup` here, then
/// `racer` on a second thread against `deleter` on this one, and hands the
/// racer's outcome to `check`. Both threads spin on one start signal, and
/// one of them then waits a head start that sweeps over successive trials,
/// so across the run the racer's call lands before, inside and after the
/// delete. The racer must not panic; a panic here stops it.
fn race<S: Copy + Send, R: Send>(
    trials: usize,
    mut setup: impl FnMut() -> S,
    racer: impl Fn(S) -> R + Sync,
    mut deleter: impl FnMut(S) -> Result<(), String>,
    mut check: impl FnMut(S, R) -> Result<(), String>,
) {
    /// Stops the racer when dropped, also on a panic.
    struct Stop<'a, S>(&'a Mutex<Option<S>>, &'a AtomicUsize);
    impl<S> Drop for Stop<'_, S> {
        fn drop(&mut self) {
            *self
                .0
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
            self.1.store(usize::MAX, Ordering::Release);
        }
    }
    /// The delays, in spin hints, of the racer and the deleter in `trial`:
    /// one of them waits, for up to `SWEEP` hints.
    fn head_start(trial: usize) -> (usize, usize) {
        const SWEEP: usize = 256;
        match trial % (2 * SWEEP) {
            wait if wait < SWEEP => (wait, 0),
            wait => (0, wait - SWEEP),
        }
    }
    fn spin(hints: usize) {
        for _ in 0..hints {
            std::hint::spin_loop();
        }
    }
    fn await_count(counter: &AtomicUsize, target: usize) {
        let mut spins = 0u32;
        while counter.load(Ordering::Acquire) < target {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(1 << 12) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
    let state = Mutex::new(None::<S>);
    let outcome = Mutex::new(None::<R>);
    let started = AtomicUsize::new(0);
    let finished = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for trial in 1..=trials {
                await_count(&started, trial);
                let Some(state) = *state.lock().unwrap() else {
                    return;
                };
                spin(head_start(trial).0);
                *outcome.lock().unwrap() = Some(racer(state));
                finished.store(trial, Ordering::Release);
            }
        });
        let _stop = Stop(&state, &started);
        for trial in 1..=trials {
            let s = setup();
            *state.lock().unwrap() = Some(s);
            started.store(trial, Ordering::Release);
            spin(head_start(trial).1);
            let deleted = deleter(s);
            await_count(&finished, trial);
            let raced = outcome.lock().unwrap().take().expect("the racer reported");
            if let Err(err) = deleted.and_then(|()| check(s, raced)) {
                panic!("trial {trial}: {err}");
            }
        }
    });
}

#[test]
fn a_grant_racing_a_delete_is_refused_or_blocked_under_the_dead_id() {
    let system = boot();
    let monitor = &*system.monitor;
    let regions = available_regions(&system, 2);
    let (home, extra) = (regions[0], regions[1]);
    assert_ne!(
        shard_of(ResourceId::Region(home)),
        shard_of(ResourceId::Region(extra)),
        "the grant must widen the victim's shard mask"
    );
    let mut landed = 0;
    race(
        GRANT_TRIALS,
        || create(monitor, home),
        |eid| {
            retry(|| {
                monitor.grant_resource(
                    CallerSession::os(),
                    ResourceId::Region(extra),
                    DomainKind::Enclave(eid),
                )
            })
        },
        |eid| delete(monitor, eid),
        |eid, grant| {
            let expected = match grant {
                Ok(()) => ResourceState::Blocked(DomainKind::Enclave(eid)),
                Err(SmError::UnknownEnclave(dead)) if dead == eid => ResourceState::Available,
                Err(other) => return Err(format!("grant failed with {other:?}")),
            };
            let audit = monitor.audit();
            if !audit.enclaves.is_empty() {
                return Err("the victim outlived its delete".into());
            }
            if let Some((id, state)) = audit
                .resources
                .iter()
                .find(|(_, state)| matches!(state, ResourceState::Owned(DomainKind::Enclave(_))))
            {
                return Err(format!("{id:?} is {state:?} with no enclave left"));
            }
            let contested = audit.resource(ResourceId::Region(extra));
            if contested != Some(expected) {
                return Err(format!(
                    "the contested region is {contested:?}, not {expected:?}"
                ));
            }
            landed += usize::from(grant.is_ok());
            reclaim(monitor, home);
            reclaim(monitor, extra);
            Ok(())
        },
    );
    eprintln!("{landed} of {GRANT_TRIALS} grants landed before the delete committed");
}

#[test]
fn mail_sent_to_a_dying_enclave_is_refunded() {
    let system = boot();
    let monitor = &*system.monitor;
    let region = available_regions(&system, 1)[0];
    race(
        MAIL_ITERATIONS,
        || {
            let eid = create(monitor, region);
            retry(|| monitor.accept_mail(CallerSession::enclave(eid), 0, 0)).unwrap();
            eid
        },
        |eid| retry(|| monitor.send_mail(CallerSession::os(), eid, Tainted::new(b"race"))),
        |eid| delete(monitor, eid),
        |_, sent| {
            match sent {
                Ok(()) | Err(SmError::UnknownEnclave(_)) => {}
                Err(other) => return Err(format!("send failed with {other:?}")),
            }
            // No send can reach the dead recipient from here on, so the
            // ledger must be settled.
            let outstanding = monitor.audit().mail_outstanding;
            if !outstanding.is_empty() {
                return Err(format!(
                    "{outstanding:?} outstanding with no enclave to receive it"
                ));
            }
            reclaim(monitor, region);
            Ok(())
        },
    );
}
