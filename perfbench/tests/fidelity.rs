//! Each traced copy must do what the entry point it copies does, or the
//! per-layer numbers would explain a different program.

use perfbench::churn;
use perfbench::explorer::run_seed_traced;
use perfbench::fleet::{self, Attester, RigFleet};
use perfbench::trace::Tracer;
use sanctorum_explorer::{Explorer, ExplorerConfig};
use sanctorum_os::concurrent::{run_concurrent, ConcurrentConfig, WorkloadProfile};
use sanctorum_os::fleet::{Fleet, FleetConfig, FleetMachine};
use sanctorum_verifier::SessionPool;

#[test]
fn fleet_rig_files_the_sessions_attest_round_files() {
    let config = FleetConfig {
        machines: 2,
        clients_per_machine: 6,
        ..fleet::config(7)
    };
    let drbg_seed = fleet::verifier_seed(7);
    let rounds = 2;

    let mut fleet = Fleet::boot(&config);
    let verifier = fleet.verifier(drbg_seed);
    let pool = SessionPool::new();
    for round in 0..rounds {
        for machine in fleet.machines_mut() {
            let outcome = machine.attest_round(&verifier, &pool, round);
            assert_eq!((outcome.failed, outcome.replaced), (0, 0));
        }
    }

    let mut rig = RigFleet::boot(&config);
    let rig_verifier = rig.verifier(drbg_seed);
    let rig_pool = SessionPool::new();
    let mut tracer = Tracer::default();
    for round in 0..rounds {
        for machine in &mut rig.machines {
            let outcome = machine.round(&rig_verifier, &rig_pool, round, &mut tracer);
            assert_eq!((outcome.failed, outcome.replaced), (0, 0));
            assert_eq!(outcome.latencies.len(), outcome.verified);
        }
    }

    assert_eq!(verifier.stats(), rig_verifier.stats());
    assert_eq!(pool.len(), rig_pool.len());
    for round in 0..rounds {
        for machine in 0..config.machines {
            for slot in 0..config.clients_per_machine {
                let tag = FleetMachine::session_tag(round, machine, slot);
                // Same challenge, same keys: both sessions seal identically.
                let sealed = pool.with_session(tag, |s| s.seal(b"fidelity"));
                let rig_sealed = rig_pool.with_session(tag, |s| s.seal(b"fidelity"));
                assert!(sealed.is_some(), "session {tag:#x} filed");
                assert_eq!(sealed, rig_sealed, "session {tag:#x}");
            }
        }
    }
    // `FleetMachine` keeps its signing enclave private; a fresh nonce per
    // request means every request is signed and none is served from cache.
    let per_machine = rounds * config.clients_per_machine as u64;
    for machine in &rig.machines {
        assert_eq!(machine.signing_cache_stats(), (0, per_machine));
    }
    for stage in [
        "verifier.begin",
        "mailbox.submit",
        "mailbox.collect",
        "verifier.verify",
        "session.install",
    ] {
        assert_eq!(tracer.agg(stage).count, rig_pool.len() as u64, "{stage}");
    }
}

#[test]
fn churn_copy_issues_the_calls_run_concurrent_issues() {
    let config = ConcurrentConfig {
        threads: 1,
        rounds: 2,
        ops_per_round: 20_000,
        profile: WorkloadProfile::MixedMutation,
        seed: 0x5ca1e,
    };
    let system = churn::boot();
    let stats = run_concurrent(&system, &config, |_| Ok(())).expect("entry point runs clean");
    let rig_system = churn::boot();
    let (rig_stats, tracers, _) = churn::run_traced(&rig_system, &config).expect("copy runs clean");

    assert_eq!(stats.steps, 40_000);
    assert_eq!(rig_stats.steps, stats.steps);
    let first_attempts = |s: &sanctorum_os::concurrent::ConcurrentStats| {
        s.sm_calls - s.retries - s.transient_retries
    };
    assert_eq!(first_attempts(&rig_stats), first_attempts(&stats));
    let api_calls = |s: &sanctorum_os::system::System| {
        s.monitor
            .stats()
            .api_calls
            .load(std::sync::atomic::Ordering::Relaxed)
    };
    assert_eq!(api_calls(&rig_system), api_calls(&system));
    let timed: u64 = churn::CALLS
        .iter()
        .map(|name| tracers[0].agg(name).count)
        .sum();
    assert_eq!(
        timed,
        first_attempts(&rig_stats),
        "one span per call, retries inside it"
    );
}

#[test]
fn explorer_copy_matches_run_seed() {
    let explorer = Explorer::new(ExplorerConfig::default());
    let mut tracer = Tracer::default();
    for seed in 0..3 {
        let report = explorer.run_seed(seed);
        let traced = run_seed_traced(explorer.config(), seed, &mut tracer);
        assert!(report.failure.is_none() && traced.violation.is_none());
        assert_eq!(traced.steps_executed, report.steps_executed);
        assert_eq!(traced.op_counts, report.op_counts);
        assert_eq!(traced.final_digests, report.final_digests);
    }
    assert_eq!(tracer.agg("explorer.boot").count, 3);
}

#[test]
fn open_schedule_is_a_function_of_the_seed() {
    let a = fleet::open_schedule(3, 2500.0, 2.0);
    assert_eq!(a, fleet::open_schedule(3, 2500.0, 2.0));
    assert_ne!(a, fleet::open_schedule(4, 2500.0, 2.0));
    assert_eq!(
        a.len(),
        200,
        "2 s × 2500 sessions/s ÷ 25 sessions per round"
    );
    assert!(a.windows(2).all(|pair| pair[0].due <= pair[1].due));
    assert!(a.iter().all(|arrival| arrival.machine < fleet::MACHINES));
}
