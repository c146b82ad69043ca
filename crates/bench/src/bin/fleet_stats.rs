//! Fleet-scale attestation under sustained load: a multi-machine world
//! driven by per-machine worker threads against one shared concurrent
//! verifier, reporting throughput and latency percentiles, plus a
//! serial-versus-concurrent verifier comparison on pre-generated evidence.
//!
//! Two measurements:
//!
//! 1. **Sustained load** — every machine gets its own worker thread running
//!    `rounds` full attestation rounds (challenge → fabric round trip →
//!    verify → session filed) against one shared [`RemoteVerifier`] and
//!    [`SessionPool`]. Per-session latency (challenge issue → session filed)
//!    is recorded for every session; the report carries p50/p95/p99 and the
//!    aggregate sessions/second.
//! 2. **Verifier scaling** — attestation evidence is pre-generated over the
//!    fabric, then verified twice on fresh challenge sets: once serially on
//!    one thread, once split across `threads` threads sharing the verifier.
//!    The ratio is the concurrency speedup of the shared verifier.
//!
//! Usage:
//!
//! ```text
//! fleet_stats [MACHINES] [--clients N] [--rounds N] [--verify-rounds N]
//!             [--threads N] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `MACHINES` — fleet size (default 8, minimum 4).
//! * `--clients N` — client enclaves per machine (default 25).
//! * `--rounds N` — attestation rounds per machine (default 50; defaults
//!   give 8 × 25 × 50 = 10,000 sessions).
//! * `--verify-rounds N` — evidence-collection passes per verifier-scaling
//!   phase (default 4; each pass yields machines × clients items). A phase
//!   needs at least 1 024 items to measure the verifier rather than
//!   scheduler noise; CI runs 4 machines × 8 clients × 32 passes. On a
//!   2-vCPU host, five 64-item runs (`--verify-rounds 2`, ~15 ms per phase)
//!   read 1 530–5 178 serial verifies/s, five 1 024-item runs 4 089–6 488.
//! * `--threads N` — verifier threads in the concurrent phase (default 8).
//! * `--out PATH` — write the machine-readable result JSON.
//! * `--baseline PATH` — exit non-zero if sustained throughput regressed
//!   more than 2× (calibration-normalized) against the committed JSON.
//!
//! The concurrent verifier must beat the serial pass by ≥ 3× at 8 threads;
//! the gate only arms when the host actually has ≥ 8 CPUs (anything less
//! measures the scheduler, not the verifier).
//!
//! Run with: `cargo run --release -p sanctorum-bench --bin fleet_stats`

use sanctorum_bench::{boot_fleet, calibrate, extract_number};
use sanctorum_os::fleet::FleetMachine;
use sanctorum_verifier::{RemoteVerifier, SessionPool};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Throughput regression tolerance for the `--baseline` gate.
const MAX_REGRESSION_FACTOR: f64 = 2.0;
/// The concurrent verifier must beat one serial thread by at least this
/// factor at 8 threads (armed only when the host has ≥ 8 CPUs).
const MIN_VERIFIER_SPEEDUP: f64 = 3.0;
/// CPU floor below which the speedup gate stays informational.
const SPEEDUP_GATE_CPUS: usize = 8;

fn main() {
    let mut machines: usize = 8;
    let mut clients: usize = 25;
    let mut rounds: u64 = 50;
    let mut verify_rounds: usize = 4;
    let mut threads: usize = 8;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => clients = args.next().and_then(|v| v.parse().ok()).expect("--clients N"),
            "--rounds" => rounds = args.next().and_then(|v| v.parse().ok()).expect("--rounds N"),
            "--verify-rounds" => {
                verify_rounds = args.next().and_then(|v| v.parse().ok()).expect("--verify-rounds N")
            }
            "--threads" => threads = args.next().and_then(|v| v.parse().ok()).expect("--threads N"),
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--baseline" => baseline = Some(args.next().expect("--baseline PATH")),
            other => machines = other.parse().expect("MACHINES must be a number"),
        }
    }
    assert!(machines >= 4, "the fleet benchmark needs at least 4 machines");
    let threads = threads.max(1);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let calibration = calibrate();
    let boot_start = Instant::now();
    let fleet = boot_fleet(machines, clients);
    let boot_elapsed = boot_start.elapsed().as_secs_f64();
    let verifier = fleet.verifier([0x42; 32]);
    let (_ca, mut fleet_machines) = fleet.into_machines();

    // --- sustained load: one worker thread per machine ------------------
    let sessions = SessionPool::new();
    let start = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet_machines
            .iter_mut()
            .map(|machine| {
                let verifier = &verifier;
                let sessions = &sessions;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(machine.client_count() * rounds as usize);
                    for round in 0..rounds {
                        let outcome = machine.attest_round(verifier, sessions, round);
                        assert_eq!(outcome.failed, 0, "no exchange may fail under honest load");
                        assert_eq!(outcome.replaced, 0, "unique tags never displace a session");
                        latencies.extend(outcome.latencies);
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("machine worker joins"))
            .collect()
    });
    let load_elapsed = start.elapsed().as_secs_f64();
    let established = sessions.len();
    assert_eq!(established, latencies.len());
    assert_eq!(established, machines * clients * rounds as usize);
    let sessions_per_second = established as f64 / load_elapsed;
    latencies.sort_unstable();
    let p50 = percentile(&latencies, 50.0);
    let p95 = percentile(&latencies, 95.0);
    let p99 = percentile(&latencies, 99.0);
    let stats = verifier.stats();

    // --- verifier scaling: serial vs concurrent on fresh evidence -------
    // Challenges are single-use, so each phase gets its own evidence set;
    // the two sets are statistically identical (same clients, same chains).
    let serial_set = collect_evidence_rounds(&mut fleet_machines, &verifier, verify_rounds);
    let start = Instant::now();
    for (evidence, dh_public) in &serial_set {
        verifier
            .verify(evidence, dh_public)
            .expect("serial verification succeeds");
    }
    let serial_elapsed = start.elapsed().as_secs_f64();
    let serial_verifies_per_second = serial_set.len() as f64 / serial_elapsed;

    let concurrent_set = collect_evidence_rounds(&mut fleet_machines, &verifier, verify_rounds);
    let concurrent_total = concurrent_set.len();
    let chunk = concurrent_total.div_ceil(threads);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for slice in concurrent_set.chunks(chunk) {
            let verifier = &verifier;
            scope.spawn(move || {
                for (evidence, dh_public) in slice {
                    verifier
                        .verify(evidence, dh_public)
                        .expect("concurrent verification succeeds");
                }
            });
        }
    });
    let concurrent_elapsed = start.elapsed().as_secs_f64();
    let concurrent_verifies_per_second = concurrent_total as f64 / concurrent_elapsed;
    let verifier_speedup = concurrent_verifies_per_second / serial_verifies_per_second;

    println!("# fleet attestation under sustained load");
    println!("machines:              {machines} ({clients} clients each)");
    println!("boot:                  {boot_elapsed:.2}s");
    println!(
        "sustained load:        {established} sessions in {load_elapsed:.2}s ({sessions_per_second:.0}/s)"
    );
    println!(
        "latency:               p50 {:.0}us  p95 {:.0}us  p99 {:.0}us",
        p50.as_secs_f64() * 1e6,
        p95.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6
    );
    println!(
        "verifier counters:     {} verified, {} rejected, {} chain-cache hits, {} evicted",
        stats.verified_sessions, stats.rejected_evidence, stats.chain_cache_hits, stats.evicted_challenges
    );
    println!(
        "verifier scaling:      serial {serial_verifies_per_second:.0}/s vs {threads}-thread \
         {concurrent_verifies_per_second:.0}/s = {verifier_speedup:.2}x (host has {host_cpus} cpus)"
    );
    println!("calibration:           {calibration:.0} hashes/sec");

    if let Some(path) = &out {
        let json = render_json(&ReportInputs {
            machines,
            clients,
            rounds,
            threads,
            host_cpus,
            established,
            sessions_per_second,
            p50,
            p95,
            p99,
            serial_verifies_per_second,
            concurrent_verifies_per_second,
            verifier_speedup,
            calibration,
        });
        std::fs::write(path, json).expect("write result JSON");
        println!("\nwrote {path}");
    }

    if host_cpus >= SPEEDUP_GATE_CPUS && threads >= SPEEDUP_GATE_CPUS {
        if verifier_speedup < MIN_VERIFIER_SPEEDUP {
            eprintln!(
                "FAIL: concurrent verifier speedup {verifier_speedup:.2}x is below the \
                 {MIN_VERIFIER_SPEEDUP}x floor at {threads} threads"
            );
            std::process::exit(3);
        }
    } else {
        println!(
            "speedup gate skipped: needs {SPEEDUP_GATE_CPUS} cpus and {SPEEDUP_GATE_CPUS} \
             threads (host has {host_cpus}, run used {threads})"
        );
    }

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path).expect("read baseline JSON");
        let reference = extract_number(&text, "sessions_per_second")
            .expect("baseline JSON has a sessions_per_second field");
        let reference_calibration =
            extract_number(&text, "calibration_hashes_per_second").unwrap_or(calibration);
        let normalized_current = sessions_per_second / calibration;
        let normalized_reference = reference / reference_calibration;
        println!(
            "baseline {path}: {reference:.0}/s at {reference_calibration:.0} hashes/sec \
             (normalized gate: {normalized_current:.2e} vs floor {:.2e})",
            normalized_reference / MAX_REGRESSION_FACTOR
        );
        if normalized_current * MAX_REGRESSION_FACTOR < normalized_reference {
            eprintln!(
                "FAIL: sustained attestation throughput regressed more than \
                 {MAX_REGRESSION_FACTOR}x (machine-normalized {normalized_current:.2e} vs \
                 baseline {normalized_reference:.2e})"
            );
            std::process::exit(2);
        }
    }
}

/// Pre-generates `rounds` passes of evidence from every machine in parallel
/// (each machine on its own thread — the fabric round trips are
/// per-machine), merged into one verify-ready batch.
fn collect_evidence_rounds(
    machines: &mut [FleetMachine],
    verifier: &RemoteVerifier,
    rounds: usize,
) -> Vec<(sanctorum_core::attestation::AttestationEvidence, [u8; 32])> {
    let merged = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for machine in machines.iter_mut() {
            let merged = &merged;
            scope.spawn(move || {
                let mut local = Vec::new();
                for _ in 0..rounds {
                    local.extend(machine.collect_evidence(verifier));
                }
                merged.lock().unwrap().extend(local);
            });
        }
    });
    merged.into_inner().unwrap()
}

/// Nearest-rank percentile over sorted latencies.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

struct ReportInputs {
    machines: usize,
    clients: usize,
    rounds: u64,
    threads: usize,
    host_cpus: usize,
    established: usize,
    sessions_per_second: f64,
    p50: Duration,
    p95: Duration,
    p99: Duration,
    serial_verifies_per_second: f64,
    concurrent_verifies_per_second: f64,
    verifier_speedup: f64,
    calibration: f64,
}

fn render_json(inputs: &ReportInputs) -> String {
    let ReportInputs {
        machines,
        clients,
        rounds,
        threads,
        host_cpus,
        established,
        sessions_per_second,
        p50,
        p95,
        p99,
        serial_verifies_per_second,
        concurrent_verifies_per_second,
        verifier_speedup,
        calibration,
    } = inputs;
    format!(
        r#"{{
  "bench": "fleet_attestation",
  "config": {{
    "machines": {machines},
    "clients_per_machine": {clients},
    "rounds": {rounds},
    "verifier_threads": {threads},
    "platform": "sanctum"
  }},
  "host_cpus": {host_cpus},
  "sessions_established": {established},
  "sessions_per_second": {sessions_per_second:.2},
  "latency_us": {{
    "p50": {:.1},
    "p95": {:.1},
    "p99": {:.1}
  }},
  "serial_verifies_per_second": {serial_verifies_per_second:.2},
  "concurrent_verifies_per_second": {concurrent_verifies_per_second:.2},
  "verifier_speedup": {verifier_speedup:.2},
  "calibration_hashes_per_second": {calibration:.1}
}}
"#,
        p50.as_secs_f64() * 1e6,
        p95.as_secs_f64() * 1e6,
        p99.as_secs_f64() * 1e6,
    )
}
