//! Fleet attestation load: 8 machines × 25 client enclaves against one
//! shared verifier and session pool, driven by at most one worker per host
//! CPU. Each worker owns the machines whose index is congruent to its own
//! modulo the worker count.
//!
//! Untraced phases call the program's entry point,
//! [`FleetMachine::attest_round`]. Traced phases run [`RigMachine`], which
//! is booted and driven by the same public calls in the same order as
//! `Fleet::boot_machine` and `attest_round`, with a span around each layer
//! boundary. Its span tree per round is `fleet.round` → `fleet.wave` →
//! `verifier.begin`, `mailbox.submit`, `signing.drain`, `mailbox.collect`,
//! `verifier.verify`, `session.install` → `session.client_dh`; every
//! per-session span carries the session's pool tag as its id.

use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::{seed_bytes, splitmix, us, Report, Timed, Window};
use sanctorum_core::attestation::Certificate;
use sanctorum_core::mailbox::MAILBOX_QUEUE_DEPTH;
use sanctorum_core::measurement::Measurement;
use sanctorum_core::monitor::{SecurityMonitor, SmConfig};
use sanctorum_crypto::sha3::Sha3_256;
use sanctorum_crypto::x25519;
use sanctorum_enclave::client::AttestationClient;
use sanctorum_enclave::image::EnclaveImage;
use sanctorum_enclave::signing::SigningEnclave;
use sanctorum_hal::domain::EnclaveId;
use sanctorum_machine::MachineConfig;
use sanctorum_os::fleet::{FleetConfig, FleetMachine, RoundOutcome};
use sanctorum_os::os::Os;
use sanctorum_os::system::{PlatformKind, System};
use sanctorum_verifier::{
    ManufacturerCa, RemoteVerifier, SecureSession, SessionPool, VerifierStats,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Machines in the fleet.
pub const MACHINES: usize = 8;
/// Client enclaves per machine.
pub const CLIENTS: usize = 25;
/// Offered load of the open loop, sessions/s: 70% of `fleet_closed`'s
/// median throughput on a 2-CPU virtual machine (3 897 sessions/s over ten
/// 15-second runs).
pub const OPEN_RATE: f64 = 2700.0;
/// Length of the windows a phase's sessions are grouped into.
const WINDOW: Duration = Duration::from_secs(1);

/// Spans whose self times make up a fleet worker's busy time; the rest
/// (`fleet.round`, `fleet.wave`) is harness overhead.
const STAGES: [&str; 8] = [
    "verifier.begin",
    "mailbox.submit",
    "signing.drain",
    "mailbox.collect",
    "verifier.verify",
    "session.install",
    "session.client_dh",
    "open.idle",
];

/// Load threads: one per host CPU, at most one per machine.
pub fn workers() -> usize {
    crate::host_cpus().min(MACHINES)
}

/// The fleet identity for a benchmark seed: CA seed and device serials.
pub fn config(seed: u64) -> FleetConfig {
    let mut state = seed ^ 0xf1ee_7000;
    FleetConfig {
        platform: PlatformKind::Sanctum,
        machines: MACHINES,
        clients_per_machine: CLIENTS,
        ca_seed: seed_bytes(&mut state),
        device_id_base: splitmix(&mut state) >> 16,
    }
}

/// The verifier DRBG seed for a benchmark seed.
pub fn verifier_seed(seed: u64) -> [u8; 32] {
    let mut state = seed ^ 0x7e41_f1e4;
    seed_bytes(&mut state)
}

/// A machine a load worker can run attestation rounds on.
pub trait Attester: Send {
    /// One attestation round over every client of the machine.
    fn round(
        &mut self,
        verifier: &RemoteVerifier,
        sessions: &SessionPool,
        round: u64,
        tracer: &mut Tracer,
    ) -> RoundOutcome;
}

impl Attester for FleetMachine {
    fn round(
        &mut self,
        verifier: &RemoteVerifier,
        sessions: &SessionPool,
        round: u64,
        _tracer: &mut Tracer,
    ) -> RoundOutcome {
        self.attest_round(verifier, sessions, round)
    }
}

/// One client slot of a rig machine (as in `os::fleet`).
#[derive(Debug)]
struct RigClient {
    eid: EnclaveId,
    measurement: Measurement,
    dh_secret: [u8; 32],
    dh_public: [u8; 32],
}

/// A fleet machine booted from public calls, so its rounds can be traced.
#[derive(Debug)]
pub struct RigMachine {
    index: usize,
    system: System,
    _os: Os,
    signing: SigningEnclave,
    device_certificate: Certificate,
    clients: Vec<RigClient>,
}

/// A booted rig fleet: the CA plus its machines.
#[derive(Debug)]
pub struct RigFleet {
    /// The manufacturer CA every machine's device key chains to.
    pub ca: ManufacturerCa,
    /// The machines.
    pub machines: Vec<RigMachine>,
}

impl RigFleet {
    /// Boots the fleet `config` describes, call for call as `Fleet::boot`.
    ///
    /// # Panics
    ///
    /// Panics if an enclave build fails (a fresh system never refuses them).
    pub fn boot(config: &FleetConfig) -> Self {
        let ca = ManufacturerCa::new(config.ca_seed);
        let scratch = System::boot_small(config.platform);
        let signing_measurement = Os::new(&scratch)
            .build_enclave(&EnclaveImage::signing_enclave(), 1)
            .expect("probe build of the signing enclave succeeds")
            .measurement;
        let machines = (0..config.machines.max(1))
            .map(|index| RigMachine::boot(config, &ca, index, signing_measurement))
            .collect();
        Self { ca, machines }
    }

    /// A verifier pinned to the CA root and the client measurement, as
    /// `Fleet::verifier` builds it.
    pub fn verifier(&self, drbg_seed: [u8; 32]) -> RemoteVerifier {
        let mut measurements: Vec<Measurement> = self
            .machines
            .iter()
            .map(|m| m.clients[0].measurement)
            .collect();
        measurements.sort_unstable_by_key(|m| *m.as_bytes());
        measurements.dedup_by_key(|m| *m.as_bytes());
        RemoteVerifier::new(self.ca.root_public_key(), measurements, drbg_seed)
    }
}

impl RigMachine {
    fn boot(
        config: &FleetConfig,
        ca: &ManufacturerCa,
        index: usize,
        signing_measurement: Measurement,
    ) -> Self {
        let clients = config.clients_per_machine.max(1);
        let regions = (clients + 4).max(16);
        let machine_config = MachineConfig {
            memory_size: regions * 512 * 1024,
            dram_region_size: 512 * 1024,
            pmp_entries: regions + 8,
            device_id: config.device_id_base.wrapping_add(index as u64),
            ..MachineConfig::small()
        };
        let system = System::boot(
            config.platform,
            machine_config,
            SmConfig {
                signing_enclave_measurement: Some(signing_measurement),
                ..SmConfig::default()
            },
        );
        let mut os = Os::new(&system);
        let signing_built = os
            .build_enclave(&EnclaveImage::signing_enclave(), 1)
            .expect("signing enclave builds");
        let mut signing = SigningEnclave::new(signing_built.eid);
        signing
            .open_service(&system.monitor)
            .expect("the monitor trusts the probed signing measurement");
        let device_certificate = ca.certify_device(system.machine.root_of_trust());
        let clients = (0..clients)
            .map(|slot| {
                let built = os
                    .build_enclave(&EnclaveImage::attestation_client(), 1)
                    .expect("client enclave builds");
                let (dh_secret, dh_public) = client_dh_keypair(index, slot);
                RigClient {
                    eid: built.eid,
                    measurement: built.measurement,
                    dh_secret,
                    dh_public,
                }
            })
            .collect();
        Self {
            index,
            system,
            _os: os,
            signing,
            device_certificate,
            clients,
        }
    }

    /// `(cache hits, signatures produced)` of this machine's signing enclave.
    pub fn signing_cache_stats(&self) -> (u64, u64) {
        self.signing.cache_stats()
    }
}

/// The client X25519 keypair `os::fleet` derives for `(machine, slot)`.
fn client_dh_keypair(machine: usize, slot: usize) -> ([u8; 32], [u8; 32]) {
    let mut material = Vec::with_capacity(40);
    material.extend_from_slice(b"sanctorum-fleet-dh-v1");
    material.extend_from_slice(&(machine as u64).to_le_bytes());
    material.extend_from_slice(&(slot as u64).to_le_bytes());
    let secret = x25519::clamp_scalar(Sha3_256::digest(&material));
    let public = x25519::public_key(&secret);
    (secret, public)
}

impl Attester for RigMachine {
    fn round(
        &mut self,
        verifier: &RemoteVerifier,
        sessions: &SessionPool,
        round: u64,
        tracer: &mut Tracer,
    ) -> RoundOutcome {
        let monitor = Arc::clone(&self.system.monitor);
        let sm: &SecurityMonitor = &monitor;
        let mut outcome = RoundOutcome::default();
        tracer.enter("fleet.round", round);
        for wave_start in (0..self.clients.len()).step_by(MAILBOX_QUEUE_DEPTH) {
            let wave_end = (wave_start + MAILBOX_QUEUE_DEPTH).min(self.clients.len());
            tracer.enter(
                "fleet.wave",
                FleetMachine::session_tag(round, self.index, wave_start),
            );
            let mut pending = Vec::with_capacity(wave_end - wave_start);
            for slot in wave_start..wave_end {
                let tag = FleetMachine::session_tag(round, self.index, slot);
                let started = Instant::now();
                let challenge = tracer.span("verifier.begin", tag, || verifier.begin());
                tracer.max(
                    "verifier.outstanding_max",
                    verifier.outstanding_challenges() as u64,
                );
                let entry = &self.clients[slot];
                let client =
                    AttestationClient::from_dh_keypair(entry.eid, entry.dh_secret, entry.dh_public);
                let signing_eid = self.signing.eid();
                let submitted = tracer.span("mailbox.submit", tag, || {
                    client.submit_request(sm, signing_eid, challenge.nonce)
                });
                if submitted.is_ok() {
                    pending.push((slot, client, challenge, started));
                } else {
                    outcome.failed += 1;
                }
            }
            let signing = &mut self.signing;
            let wave_tag = FleetMachine::session_tag(round, self.index, wave_start);
            let served = tracer
                .span("signing.drain", wave_tag, || signing.drain(sm))
                .expect("signing service opened at boot");
            tracer.count("signing.requests", served.len() as u64);
            for (slot, client, challenge, started) in pending {
                let tag = FleetMachine::session_tag(round, self.index, slot);
                let certificate = &self.device_certificate;
                let Ok(response) = tracer.span("mailbox.collect", tag, || {
                    client.collect_response(sm, certificate.clone())
                }) else {
                    outcome.failed += 1;
                    continue;
                };
                let verdict = tracer.span("verifier.verify", tag, || {
                    verifier.verify(&response.evidence, &response.enclave_dh_public)
                });
                match verdict {
                    Ok(mut session) => {
                        tracer.enter("session.install", tag);
                        let shared = tracer.span("session.client_dh", tag, || {
                            client.shared_secret(&challenge.verifier_dh_public)
                        });
                        let mut enclave_side = SecureSession::new(&shared, &challenge.nonce);
                        let sealed = session.seal(b"fleet-hello");
                        if enclave_side.open(&sealed).is_err() {
                            tracer.exit();
                            outcome.failed += 1;
                            continue;
                        }
                        if !sessions.insert(tag, session).is_fresh() {
                            outcome.replaced += 1;
                        }
                        tracer.exit();
                        outcome.latencies.push(started.elapsed());
                        outcome.verified += 1;
                    }
                    Err(_) => outcome.failed += 1,
                }
            }
            tracer.exit();
        }
        tracer.exit();
        outcome
    }
}

/// One open-loop arrival: a relying party asks `machine` to attest its
/// enclaves, due `due` after the phase starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the start of the phase.
    pub due: Duration,
    /// Target machine.
    pub machine: usize,
}

/// Seeded Poisson arrivals offering `sessions_per_s` for `seconds`: the
/// count is fixed at the offered rate and the arrival times are uniform
/// over the window, which is a Poisson process conditioned on its count.
/// Each arrival picks its machine uniformly.
pub fn open_schedule(seed: u64, sessions_per_s: f64, seconds: f64) -> Vec<Arrival> {
    let rounds = (sessions_per_s * seconds / CLIENTS as f64).round() as usize;
    let mut state = seed ^ 0x0be1_a000;
    let mut arrivals: Vec<Arrival> = (0..rounds)
        .map(|_| {
            let unit = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            Arrival {
                due: Duration::from_secs_f64(unit * seconds),
                machine: (splitmix(&mut state) % MACHINES as u64) as usize,
            }
        })
        .collect();
    arrivals.sort_by_key(|a| a.due);
    arrivals
}

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load<'a> {
    /// Closed loop: every worker runs rounds back to back over its machines,
    /// numbered from `first_round`, until `length` has passed.
    Closed {
        /// How long the loop runs.
        length: Duration,
        /// Number of every machine's first round (session tags stay unique
        /// across the phases that share a pool).
        first_round: u64,
    },
    /// Closed loop of a fixed size: every machine runs this many rounds.
    Rounds(u64),
    /// Open loop: each arrival runs one round on its machine, not before
    /// it is due; a worker serves its machines' arrivals in due order.
    Open(&'a [Arrival]),
}

/// What one load phase did.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Sessions filed and their latencies, in one-second windows: by the
    /// round's end for closed loops, by its due time for the open loop.
    pub timed: Timed,
    /// Sessions attempted.
    pub attempted: u64,
    /// Exchanges that failed anywhere between submit and the seal/open
    /// round trip.
    pub failed: u64,
    /// Pool inserts that displaced a live session.
    pub replaced: u64,
    /// Open loop: how late each round started after it was due,
    /// microseconds.
    pub lags_us: Vec<f64>,
    /// Open loop: most rounds a worker had due and not yet started.
    pub backlog_max: u64,
    /// Summed wall time of the workers, seconds.
    pub worker_seconds: f64,
    /// One tracer per worker (no spans for untraced machines).
    pub tracers: Vec<Tracer>,
    /// One past the highest round number any machine ran.
    pub next_round: u64,
}

impl LoadResult {
    /// Appends a later phase: its windows, counts and tracers.
    fn absorb(&mut self, later: Self) {
        self.timed.windows.extend(later.timed.windows);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.replaced += later.replaced;
        self.lags_us.extend(later.lags_us);
        self.backlog_max = self.backlog_max.max(later.backlog_max);
        self.worker_seconds += later.worker_seconds;
        self.tracers.extend(later.tracers);
        self.next_round = self.next_round.max(later.next_round);
    }
}

/// One round as a worker saw it.
struct RoundRecord {
    /// Offset from the phase start that places the round in a window.
    at: Duration,
    verified: u64,
    latencies_us: Vec<f64>,
}

#[derive(Default)]
struct WorkerOut {
    rounds: Vec<RoundRecord>,
    attempted: u64,
    failed: u64,
    replaced: u64,
    lags_us: Vec<f64>,
    backlog_max: u64,
    wall: Duration,
    next_round: u64,
}

impl WorkerOut {
    /// Records a round that started `lag` after it was due.
    fn absorb(&mut self, outcome: RoundOutcome, lag: Duration, at: Duration) {
        self.attempted += (outcome.verified + outcome.failed) as u64;
        self.failed += outcome.failed as u64;
        self.replaced += outcome.replaced as u64;
        self.rounds.push(RoundRecord {
            at,
            verified: outcome.verified as u64,
            latencies_us: outcome.latencies.iter().map(|l| us(lag + *l)).collect(),
        });
    }
}

/// Waits until `at`: sleeps while far away, then yields until the instant.
fn wait_until(at: Instant) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// One worker's loop. `due` lists, for an open load, this worker's
/// arrivals as (offset, position of the machine in `mine`).
fn run_worker<A: Attester>(
    mut mine: Vec<&mut A>,
    due: &[(Duration, usize)],
    verifier: &RemoteVerifier,
    sessions: &SessionPool,
    load: Load<'_>,
    start: Instant,
    tracer: &mut Tracer,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let first_round = match load {
        Load::Closed { first_round, .. } => first_round,
        Load::Rounds(_) | Load::Open(_) => 0,
    };
    let mut rounds = vec![first_round; mine.len()];
    match load {
        Load::Closed { length, .. } => 'outer: loop {
            for (position, machine) in mine.iter_mut().enumerate() {
                if start.elapsed() >= length {
                    break 'outer;
                }
                let outcome = machine.round(verifier, sessions, rounds[position], tracer);
                rounds[position] += 1;
                out.absorb(outcome, Duration::ZERO, start.elapsed());
            }
        },
        Load::Rounds(count) => {
            for round in 0..count {
                for (position, machine) in mine.iter_mut().enumerate() {
                    let outcome = machine.round(verifier, sessions, round, tracer);
                    rounds[position] = round + 1;
                    out.absorb(outcome, Duration::ZERO, start.elapsed());
                }
            }
        }
        Load::Open(_) => {
            let mut arrived = 0;
            for (k, &(offset, position)) in due.iter().enumerate() {
                let due_at = start + offset;
                if Instant::now() < due_at {
                    tracer.span("open.idle", k as u64, || wait_until(due_at));
                }
                let began = Instant::now();
                while arrived < due.len() && start + due[arrived].0 <= began {
                    arrived += 1;
                }
                out.backlog_max = out.backlog_max.max((arrived - k) as u64);
                let outcome = mine[position].round(verifier, sessions, rounds[position], tracer);
                rounds[position] += 1;
                out.lags_us.push(us(began - due_at));
                out.absorb(outcome, began - due_at, offset);
            }
        }
    }
    out.wall = start.elapsed();
    out.next_round = rounds.into_iter().max().unwrap_or(first_round);
    out
}

/// Runs one load phase over `machines` with `workers` worker threads.
pub fn drive<A: Attester>(
    machines: &mut [A],
    verifier: &RemoteVerifier,
    sessions: &SessionPool,
    workers: usize,
    load: Load<'_>,
) -> LoadResult {
    let workers = workers.clamp(1, machines.len());
    let mut buckets: Vec<Vec<&mut A>> = (0..workers).map(|_| Vec::new()).collect();
    for (index, machine) in machines.iter_mut().enumerate() {
        buckets[index % workers].push(machine);
    }
    let mut due: Vec<Vec<(Duration, usize)>> = vec![Vec::new(); workers];
    if let Load::Open(arrivals) = load {
        for arrival in arrivals {
            due[arrival.machine % workers].push((arrival.due, arrival.machine / workers));
        }
    }
    let start = Instant::now();
    let mut tracers: Vec<Tracer> = (0..workers).map(|_| Tracer::new(start)).collect();
    let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .into_iter()
            .zip(&due)
            .zip(tracers.iter_mut())
            .map(|((mine, due), tracer)| {
                scope.spawn(move || run_worker(mine, due, verifier, sessions, load, start, tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker joins"))
            .collect()
    });
    let elapsed = outs.iter().map(|o| o.wall).max().unwrap_or_default();
    let count = ((elapsed.as_secs_f64() / WINDOW.as_secs_f64()).round() as usize).max(1);
    let length = elapsed / count as u32;
    let mut windows = vec![
        Window {
            seconds: length.as_secs_f64(),
            ..Window::default()
        };
        count
    ];
    let mut result = LoadResult {
        tracers,
        ..LoadResult::default()
    };
    for out in outs {
        for round in out.rounds {
            let window = &mut windows
                [((round.at.as_secs_f64() / length.as_secs_f64()) as usize).min(count - 1)];
            window.done += round.verified;
            window.latencies_us.extend(round.latencies_us);
        }
        result.attempted += out.attempted;
        result.failed += out.failed;
        result.replaced += out.replaced;
        result.lags_us.extend(out.lags_us);
        result.backlog_max = result.backlog_max.max(out.backlog_max);
        result.worker_seconds += out.wall.as_secs_f64();
        result.next_round = result.next_round.max(out.next_round);
    }
    result.timed.windows = windows;
    result
}

/// Runs a closed loop over `machines` for `length`, one one-second window
/// at a time (at least one), with a host speed sample on the calling thread
/// before the first window and after each; a window's slowdown is the mean
/// of the samples around it. Rounds are numbered from 0.
pub fn drive_closed<A: Attester>(
    machines: &mut [A],
    verifier: &RemoteVerifier,
    sessions: &SessionPool,
    workers: usize,
    length: Duration,
    speed: &mut HostSpeed,
) -> LoadResult {
    let start = Instant::now();
    let mut result = LoadResult::default();
    let mut before = speed.sample();
    loop {
        let load = Load::Closed {
            length: WINDOW,
            first_round: result.next_round,
        };
        let mut window = drive(machines, verifier, sessions, workers, load);
        let after = speed.sample();
        for w in &mut window.timed.windows {
            w.slowdown = (before + after) / 2.0;
        }
        result.absorb(window);
        before = after;
        if start.elapsed() >= length {
            return result;
        }
    }
}

/// Folds a phase's counts and correctness checks into `report`: every
/// session must be filed fresh and pass its seal/open round trip, the
/// verifier must reject nothing, and the pool must hold every session.
pub fn check(report: &mut Report, result: &LoadResult, stats: &VerifierStats, pool: &SessionPool) {
    report.attempted += result.attempted;
    report.failed += result.failed + result.replaced;
    if result.failed > 0 {
        report.error(format!("{} attestation exchanges failed", result.failed));
    }
    if result.replaced > 0 {
        report.error(format!(
            "{} pool inserts replaced a live session",
            result.replaced
        ));
    }
    if stats.rejected_evidence > 0 {
        report.error(format!(
            "verifier rejected {} honest evidence items",
            stats.rejected_evidence
        ));
    }
    if pool.len() as u64 != result.timed.done() {
        report.error(format!(
            "pool holds {} sessions, {} filed",
            pool.len(),
            result.timed.done()
        ));
    }
}

/// Per-layer metrics of one traced fleet phase: verifier, signing,
/// mailbox and session stages, and the accounting residual — the share of
/// the workers' wall time the stage spans leave unexplained, which is
/// returned. Counts are per request or per session, so they do not grow
/// with the number of sessions a time-limited phase files.
pub fn layer_metrics(
    report: &mut Report,
    result: &LoadResult,
    stats: &VerifierStats,
    machines: &[RigMachine],
) -> f64 {
    let mut total = Tracer::new(Instant::now());
    for tracer in &result.tracers {
        total.absorb_totals(tracer);
    }
    let checked = (stats.verified_sessions + stats.rejected_evidence).max(1);
    let (hits, produced) = machines
        .iter()
        .map(RigMachine::signing_cache_stats)
        .fold((0, 0), |(h, p), (mh, mp)| (h + mh, p + mp));
    let drain = total.agg("signing.drain");
    let requests = total.counter("signing.requests");
    let staged_ns: u64 = STAGES.iter().map(|stage| total.agg(stage).self_ns).sum();
    let residual = 1.0 - staged_ns as f64 / 1e9 / result.worker_seconds;

    report.metric(
        "verifier.begin_us",
        total.agg("verifier.begin").self_us(),
        "us",
    );
    report.metric(
        "verifier.verify_us",
        total.agg("verifier.verify").self_us(),
        "us",
    );
    report.metric(
        "verifier.chain_cache_hit_ratio",
        stats.chain_cache_hits as f64 / checked as f64,
        "ratio",
    );
    report.metric(
        "verifier.outstanding_max",
        total.counter("verifier.outstanding_max") as f64,
        "count",
    );
    report.metric("verifier.rejected", stats.rejected_evidence as f64, "count");
    report.metric(
        "signing.drain_us_per_request",
        drain.self_ns as f64 / 1e3 / requests.max(1) as f64,
        "us",
    );
    report.metric(
        "signing.requests_per_drain",
        requests as f64 / drain.count.max(1) as f64,
        "count",
    );
    report.metric(
        "signing.cache_hits",
        hits as f64 / requests.max(1) as f64,
        "per_request",
    );
    // Every signature produced is inserted under a fresh key, so the cache
    // holds exactly as many entries as signatures produced.
    report.metric(
        "signing.cache_entries",
        produced as f64 / result.timed.done().max(1) as f64,
        "per_session",
    );
    report.metric(
        "mailbox.submit_us",
        total.agg("mailbox.submit").self_us(),
        "us",
    );
    report.metric(
        "mailbox.collect_us",
        total.agg("mailbox.collect").self_us(),
        "us",
    );
    report.metric(
        "session.client_dh_us",
        total.agg("session.client_dh").self_us(),
        "us",
    );
    report.metric(
        "session.install_us",
        total.agg("session.install").self_us(),
        "us",
    );
    report.metric("fleet.accounting_residual", residual, "ratio");
    residual
}

/// The open-loop generator's metrics: how late rounds started after they
/// were due (p99) and the deepest per-worker backlog.
pub fn open_metrics(report: &mut Report, result: &LoadResult) {
    let mut lags = result.lags_us.clone();
    lags.sort_by(f64::total_cmp);
    report.metric(
        "open.start_lag_p99_us",
        crate::percentile(&lags, 99.0),
        "us",
    );
    report.metric("open.backlog_max", result.backlog_max as f64, "count");
}
