//! Attestation-service throughput: serial single-slot attestation vs. the
//! pipelined signing-enclave service over the mailbox fabric.
//!
//! The serial baseline reproduces the pre-fabric shape: one request at a
//! time, the signing enclave re-fetching and re-deriving the attestation key
//! per request, a fresh verifier (no caches) validating the full certificate
//! chain for every evidence bundle. The pipelined path is the fabric
//! workload: the service opens once (wildcard request queue + cached
//! keypair), clients submit in waves, the service drains and signs FIFO, and
//! one long-lived verifier batch-verifies with its chain cache warm.
//!
//! The two modes run in alternating rounds (serial, then batched, then
//! serial again), and the reported speedup is the median of the per-round
//! ratios: a host stall slows one round of one mode and moves one ratio,
//! not the verdict.
//!
//! Usage:
//!
//! ```text
//! attestation_service_stats [CLIENTS] [--rounds N] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `CLIENTS` — fleet size (default 8).
//! * `--rounds N` — attestation rounds per mode (default 2).
//! * `--out PATH` — write the machine-readable result JSON.
//! * `--baseline PATH` — exit non-zero if the batched throughput regressed
//!   more than 2× (calibration-normalized) against the committed JSON.
//!
//! The run always exits non-zero if the median batched/serial speedup is
//! below 2×.
//!
//! Run with:
//! `cargo run --release -p sanctorum-bench --bin attestation_service_stats`

use sanctorum_bench::{boot_attestation_service, calibrate, extract_number};
use sanctorum_core::api::SmApi;
use sanctorum_core::mailbox::{ANY_SENDER, MAILBOX_QUEUE_DEPTH};
use sanctorum_core::session::CallerSession;
use sanctorum_enclave::client::AttestationClient;
use sanctorum_enclave::signing::{SigningEnclave, REQUEST_MAILBOX};
use sanctorum_os::system::PlatformKind;
use sanctorum_verifier::{ManufacturerCa, RemoteVerifier, SessionPool};
use std::time::Instant;

/// Throughput regression tolerance for the `--baseline` gate.
const MAX_REGRESSION_FACTOR: f64 = 2.0;
/// The batched path must beat the serial baseline by at least this factor
/// (the fabric's reason to exist; gated so a refactor cannot silently lose
/// it).
const MIN_SPEEDUP: f64 = 2.0;

fn main() {
    let mut clients: usize = 8;
    let mut rounds: usize = 2;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rounds" => rounds = args.next().and_then(|v| v.parse().ok()).expect("--rounds N"),
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--baseline" => baseline = Some(args.next().expect("--baseline PATH")),
            other => clients = other.parse().expect("CLIENTS must be a number"),
        }
    }

    assert!(rounds > 0, "--rounds must be at least 1");
    let calibration = calibrate();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ca = ManufacturerCa::new([0x11; 32]);
    let (system, _os, fleet, signing_enclave) =
        boot_attestation_service(PlatformKind::Sanctum, clients);
    let sm = system.monitor.as_ref();
    let device_cert = ca.certify_device(system.machine.root_of_trust());
    let trusted: Vec<_> = fleet.iter().map(|e| e.measurement).collect();
    let attestation_clients: Vec<AttestationClient> = fleet
        .iter()
        .enumerate()
        .map(|(i, e)| AttestationClient::new(e.eid, [0x33 ^ i as u8; 32]))
        .collect();

    let serial_signing = SigningEnclave::new(signing_enclave.eid);
    let mut service = SigningEnclave::new(signing_enclave.eid);
    service.open_service(sm).expect("service opens");
    let verifier = RemoteVerifier::new(ca.root_public_key(), trusted.clone(), [0x42; 32]);
    let sessions = SessionPool::new();
    let (mut serial_done, mut batched_done) = (0usize, 0usize);
    let (mut serial_elapsed, mut batched_elapsed) = (0.0f64, 0.0f64);
    let mut round_ratios = Vec::with_capacity(rounds);
    for round in 0..rounds {
        // --- serial single-slot baseline -------------------------------
        let start = Instant::now();
        for client in &attestation_clients {
            // A fresh verifier per attestation: no outstanding-challenge
            // reuse, no chain cache — the pre-fabric cost structure.
            let verifier =
                RemoteVerifier::new(ca.root_public_key(), trusted.clone(), [round as u8; 32]);
            let challenge = verifier.begin();
            let response = client
                .obtain_attestation(sm, &serial_signing, challenge.nonce, device_cert.clone())
                .expect("serial attestation succeeds");
            verifier
                .verify(&response.evidence, &response.enclave_dh_public)
                .expect("serial verification succeeds");
            serial_done += 1;
        }
        let serial_round = start.elapsed().as_secs_f64();

        // --- pipelined fabric service ----------------------------------
        // The serial round armed the request mailbox for one requester at
        // a time; the service takes any sender again.
        sm.accept_mail(
            CallerSession::enclave(signing_enclave.eid),
            REQUEST_MAILBOX,
            ANY_SENDER,
        )
        .expect("service re-arms");
        let start = Instant::now();
        for wave in attestation_clients.chunks(MAILBOX_QUEUE_DEPTH) {
            let challenges = verifier.begin_many(wave.len());
            for (client, challenge) in wave.iter().zip(&challenges) {
                client
                    .submit_request(sm, signing_enclave.eid, challenge.nonce)
                    .expect("submit succeeds");
            }
            let served = service.drain(sm).expect("drain succeeds");
            assert_eq!(served.len(), wave.len(), "service must serve the whole wave");
            let evidence: Vec<_> = wave
                .iter()
                .map(|client| {
                    let response = client
                        .collect_response(sm, device_cert.clone())
                        .expect("reply collected");
                    (response.evidence, response.enclave_dh_public)
                })
                .collect();
            for (client, result) in wave.iter().zip(verifier.verify_batch(&evidence)) {
                let session = result.expect("batched verification succeeds");
                sessions.insert(client.eid().as_u64(), session);
                batched_done += 1;
            }
        }
        let batched_round = start.elapsed().as_secs_f64();
        // Both modes serve every client once per round, so the round's
        // speedup is the ratio of its times.
        round_ratios.push(serial_round / batched_round);
        serial_elapsed += serial_round;
        batched_elapsed += batched_round;
    }
    let serial_per_second = serial_done as f64 / serial_elapsed;
    let batched_per_second = batched_done as f64 / batched_elapsed;
    round_ratios.sort_by(f64::total_cmp);
    let speedup = median(&round_ratios);
    let (cache_hits, signatures) = service.cache_stats();

    println!("# attestation service throughput");
    println!("clients:               {clients}");
    println!("rounds per mode:       {rounds}");
    println!("serial:                {serial_done} attestations in {serial_elapsed:.2}s ({serial_per_second:.1}/s)");
    println!("batched:               {batched_done} attestations in {batched_elapsed:.2}s ({batched_per_second:.1}/s)");
    println!(
        "speedup:               {speedup:.2}x (median of {} rounds, {:.2}x-{:.2}x)",
        round_ratios.len(),
        round_ratios[0],
        round_ratios[round_ratios.len() - 1]
    );
    println!("live sessions:         {}", sessions.len());
    println!("service sig cache:     {cache_hits} hits / {signatures} signed");
    println!("verifier chain cache:  {} hits", verifier.chain_cache_hits());
    println!("calibration:           {calibration:.0} hashes/sec");
    println!("host cpus:             {host_cpus}");

    if let Some(path) = &out {
        let json = render_json(
            clients,
            rounds,
            serial_per_second,
            batched_per_second,
            speedup,
            calibration,
            host_cpus,
        );
        std::fs::write(path, json).expect("write result JSON");
        println!("\nwrote {path}");
    }

    if speedup < MIN_SPEEDUP {
        eprintln!("FAIL: median batched speedup {speedup:.2}x is below the {MIN_SPEEDUP}x floor");
        std::process::exit(3);
    }

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path).expect("read baseline JSON");
        let reference = extract_number(&text, "batched_attestations_per_second")
            .expect("baseline JSON has a batched_attestations_per_second field");
        let reference_calibration =
            extract_number(&text, "calibration_hashes_per_second").unwrap_or(calibration);
        let normalized_current = batched_per_second / calibration;
        let normalized_reference = reference / reference_calibration;
        println!(
            "baseline {path}: {reference:.1}/s at {reference_calibration:.0} hashes/sec \
             (normalized gate: {normalized_current:.2e} vs floor {:.2e})",
            normalized_reference / MAX_REGRESSION_FACTOR
        );
        if normalized_current * MAX_REGRESSION_FACTOR < normalized_reference {
            eprintln!(
                "FAIL: batched attestation throughput regressed more than \
                 {MAX_REGRESSION_FACTOR}x (machine-normalized {normalized_current:.2e} vs \
                 baseline {normalized_reference:.2e})"
            );
            std::process::exit(2);
        }
    }
}

/// The median of a sorted, non-empty slice.
fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn render_json(
    clients: usize,
    rounds: usize,
    serial_per_second: f64,
    batched_per_second: f64,
    speedup: f64,
    calibration: f64,
    host_cpus: usize,
) -> String {
    // The baseline block freezes the pre-fabric serial measurement (single
    // 1 KB mailbox cells, per-request key fetch, chainless-cache verifier)
    // recorded when the fabric landed, so the trajectory survives in-repo.
    format!(
        r#"{{
  "bench": "attestation_service_throughput",
  "config": {{
    "clients": {clients},
    "rounds": {rounds},
    "platform": "sanctum"
  }},
  "serial_attestations_per_second": {serial_per_second:.2},
  "batched_attestations_per_second": {batched_per_second:.2},
  "speedup": {speedup:.2},
  "calibration_hashes_per_second": {calibration:.1},
  "host_cpus": {host_cpus},
  "baseline_serial_single_slot": {{
    "description": "pre-fabric shape: one-slot mailboxes, per-request key fetch + derivation, full chain verification per evidence",
    "attestations_per_second": {serial_per_second:.2}
  }}
}}
"#
    )
}
