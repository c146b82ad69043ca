//! The crash-point sweep acceptance suite.
//!
//! * **Exhaustive sweep** — over the depth-6 lifecycle trace set, every
//!   fault point crossed is crashed at least once (plus one persistent-
//!   fault run per site), and recovery restores every invariant: zero
//!   violations across both platforms.
//! * **Weakening catch** — the same sweep, pointed at a monitor with
//!   `skip-journal-replay` or `skip-quarantine` compiled in, must walk into
//!   a violation with a minimal, replayable counterexample. This is what
//!   makes the zero above evidence rather than absence of evidence.
//! * **Recovery idempotence** — `recover()` on a clean world is a no-op,
//!   and a second `recover()` after a crash is a no-op, both certified by
//!   bit-identical machine state digests and audit digests.
//! * **Crashed delete ≡ delete** — a `delete_enclave` crashed at any of its
//!   crossings and recovered ends in the state of an uncrashed delete.

use sanctorum_explorer::crash::{
    crash_machine_config, lifecycle_traces, sweep_all, sweep_trace, CrashSweepReport,
};
use sanctorum_explorer::trace::{format_trace, parse_trace};
use sanctorum_core::api::SmApi;
use sanctorum_core::error::SmError;
use sanctorum_core::monitor::TestWeakening;
use sanctorum_core::resource::{shard_of, ResourceId, ResourceState};
use sanctorum_core::session::CallerSession;
use sanctorum_hal::domain::{CoreId, DomainKind};
use sanctorum_machine::fault::ALL_SITES;
use sanctorum_os::ops::{ImageKind, Op, OpWorld};
use sanctorum_os::system::PlatformKind;
use sanctorum_trust::Tainted;

#[test]
fn lifecycle_sweep_crashes_every_fault_point_and_recovers_clean() {
    let report = sweep_all(&crash_machine_config(), None, &lifecycle_traces());
    for site in ALL_SITES {
        assert!(
            report.site_inventory.contains_key(site),
            "lifecycle traces never cross {site}; inventory: {:?}",
            report.site_inventory
        );
    }
    assert!(
        !report.site_inventory.keys().any(|s| !ALL_SITES.contains(s)),
        "undeclared fault site crossed: {:?}",
        report.site_inventory
    );
    assert_eq!(
        report.crash_sweeps, report.crossings,
        "every crossing gets exactly one crash re-run"
    );
    assert!(report.fault_runs > 0);
    assert!(
        report.clean(),
        "{} violations survived recovery; first: {}",
        report.violations.len(),
        report.violations[0]
    );
}

#[test]
fn skip_journal_replay_is_caught_with_a_minimal_replayable_counterexample() {
    let mut report = CrashSweepReport::default();
    for trace in lifecycle_traces() {
        sweep_trace(
            PlatformKind::Sanctum,
            &crash_machine_config(),
            Some(TestWeakening::SkipJournalReplay),
            &trace,
            true,
            &mut report,
        );
        if !report.clean() {
            break;
        }
    }
    let witness = report
        .violations
        .first()
        .expect("a journal-replay hole must not survive the crash sweep");
    assert_eq!(witness.violation.kind(), "crash-residue", "{witness}");
    assert!(
        witness.trace.iter().any(|t| matches!(t.op, Op::Crashed { .. })),
        "the witness embeds the crash: {witness}"
    );
    // Replayable: the counterexample round-trips through the corpus format.
    let text = format_trace(&witness.trace);
    assert_eq!(parse_trace(&text).expect("witness parses"), witness.trace);
}

#[test]
fn skip_quarantine_is_caught_by_the_persistent_fault_pass() {
    let mut report = CrashSweepReport::default();
    for trace in lifecycle_traces() {
        sweep_trace(
            PlatformKind::Sanctum,
            &crash_machine_config(),
            Some(TestWeakening::SkipQuarantine),
            &trace,
            true,
            &mut report,
        );
        if !report.clean() {
            break;
        }
    }
    let witness = report
        .violations
        .first()
        .expect("a quarantine hole must not survive the fault pass");
    // Swallowing a failed scrub hands a dirty region to the next owner:
    // caught as dirty reuse (or the secret scan, whichever fires first).
    assert!(
        ["dirty-reuse", "secret-in-memory"].contains(&witness.violation.kind()),
        "caught as {}: {witness}",
        witness.violation.kind()
    );
    assert_eq!(witness.fault_site, Some("monitor.scrub-page"), "{witness}");
}

#[test]
fn recovery_is_idempotent_and_a_noop_on_clean_worlds() {
    for platform in PlatformKind::ALL {
        // On a freshly booted (clean) world, recover() replays nothing and
        // perturbs nothing.
        let world = OpWorld::boot(platform, crash_machine_config());
        let digest = world.system.machine.state_digest();
        let audit = world.system.monitor.audit_full().digest();
        let report = world.system.monitor.recover();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.quarantine_cleared, 0);
        assert_eq!(world.system.machine.state_digest(), digest);
        assert_eq!(world.system.monitor.audit_full().digest(), audit);

        // After a real crash+recover (the Crashed op recovers internally),
        // a second recover() is a no-op with bit-identical state.
        let mut world = OpWorld::boot(platform, crash_machine_config());
        world.apply(CoreId::new(0), &Op::Build { kind: ImageKind::Hello, param: 0 });
        world.apply(
            CoreId::new(0),
            &Op::Crashed { point: 2, op: Box::new(Op::DeleteEnclave { slot: 0 }) },
        );
        let digest = world.system.machine.state_digest();
        let audit = world.system.monitor.audit_full().digest();
        let second = world.system.monitor.recover();
        assert_eq!(second.replayed, 0, "first recovery completed the journal");
        assert_eq!(world.system.machine.state_digest(), digest);
        assert_eq!(world.system.monitor.audit_full().digest(), audit);
    }
}

/// `delete_enclave` crosses `journal.record`, `journal.step` and
/// `journal.complete`. Crashing at each one and recovering — then
/// re-issuing the delete when the crash landed before the intent was
/// journaled — must end in exactly the monitor and machine state of an
/// uncrashed delete. The world queues mail both ways between the victim and
/// a survivor, the survivor's accept filters name the victim, and the
/// victim holds a granted region on a shard its window does not use, so
/// the thread reclaim, the region sweep through the victim's shard mask,
/// the mail purge, the ledger refund and the filter disarm all have work to
/// do on every path. Filters are not audit-visible,
/// so every path also recycles the victim's id and checks the survivor's
/// filters turn the new incarnation away.
#[test]
fn crashed_delete_ends_in_the_state_of_an_uncrashed_delete() {
    for platform in PlatformKind::ALL {
        let reference = delete_victim(platform, None);
        for point in 1..=3 {
            assert_eq!(
                delete_victim(platform, Some(point)),
                reference,
                "{platform:?}: delete crashed at crossing {point}"
            );
        }
        // There is no fourth crossing: the delete completes uncrashed.
        assert_eq!(delete_victim(platform, Some(4)), reference, "{platform:?}");
    }
}

/// Builds a victim and a survivor with mail in flight, deletes the victim
/// (crashed at its `crash_at`-th crossing, 1-based, when given), recycles
/// its id and returns the audit digest, machine state digest and live
/// thread ids the world ends in.
fn delete_victim(platform: PlatformKind, crash_at: Option<u64>) -> (u64, u64, Vec<u64>) {
    let hart = CoreId::new(0);
    let mut world = OpWorld::boot(platform, crash_machine_config());
    world.apply(hart, &Op::Build { kind: ImageKind::Hello, param: 1 });
    world.apply(hart, &Op::Build { kind: ImageKind::Hello, param: 2 });
    let victim = world.live[0].built.eid;
    let victim_region = world.live[0].built.regions[0];
    let survivor = world.live[1].built.eid;
    let granted = world.os.reserve_regions(1).unwrap()[0];
    assert_ne!(
        shard_of(ResourceId::Region(granted)),
        shard_of(ResourceId::Region(victim_region))
    );
    let monitor = &world.system.monitor;
    monitor
        .grant_resource(
            CallerSession::os(),
            ResourceId::Region(granted),
            DomainKind::Enclave(victim),
        )
        .unwrap();
    let as_victim = CallerSession::enclave(victim);
    let as_survivor = CallerSession::enclave(survivor);
    monitor.accept_mail(as_survivor, 0, victim.as_u64()).unwrap();
    monitor.accept_mail(as_survivor, 1, victim.as_u64()).unwrap();
    monitor.accept_mail(as_victim, 0, survivor.as_u64()).unwrap();
    monitor.send_mail(as_victim, survivor, Tainted::new(&b"to survivor"[..])).unwrap();
    monitor.send_mail(as_survivor, victim, Tainted::new(&b"to victim"[..])).unwrap();
    assert_eq!(monitor.audit().mail_outstanding.len(), 2, "mail is in flight both ways");

    let delete = Op::DeleteEnclave { slot: 0 };
    match crash_at {
        None => {
            world.apply(hart, &delete);
        }
        Some(point) => {
            let crashed = world.apply(hart, &Op::Crashed { point, op: Box::new(delete.clone()) });
            let fired = crashed.detail & 1 == 1;
            assert_eq!(fired, point <= 3, "crash at crossing {point}");
            if world.system.monitor.enclaves().contains(&victim) {
                world.apply(hart, &delete);
            }
        }
    }
    assert_eq!(world.system.monitor.enclaves(), vec![survivor]);
    assert_eq!(world.system.monitor.journal_pending(), 0);
    assert_eq!(
        world
            .system
            .monitor
            .resource_state(ResourceId::Region(granted)),
        Ok(ResourceState::Blocked(DomainKind::Enclave(victim))),
        "the granted region was swept"
    );

    // Recycle the id: the OS cleans the victim's region, takes it back and
    // rebuilds the same image onto it.
    let region = ResourceId::Region(victim_region);
    world.system.monitor.clean_resource(CallerSession::os(), region).unwrap();
    world
        .system
        .monitor
        .grant_resource(CallerSession::os(), region, DomainKind::Untrusted)
        .unwrap();
    world.os.return_region(victim_region);
    world.apply(hart, &Op::Build { kind: ImageKind::Hello, param: 1 });
    let monitor = &world.system.monitor;
    assert!(monitor.enclaves().contains(&victim), "the id was recycled");
    let sent = monitor.send_mail(as_victim, survivor, Tainted::new(&b"stale filter"[..]));
    assert!(
        matches!(sent, Err(SmError::MailNotAccepted)),
        "the survivor's filters naming the dead victim were disarmed: {sent:?}"
    );
    (monitor.audit().digest(), world.system.machine.state_digest(), monitor.thread_ids())
}
