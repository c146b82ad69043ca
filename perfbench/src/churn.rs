//! Enclave churn: the monitor write path (create / grant / delete / clean
//! and a mail round trip) under `run_concurrent`'s MixedMutation profile
//! with FineGrained locking, one worker per host CPU on disjoint regions.
//! No crypto and no verifier run here.
//!
//! A run is a sequence of batches, each about a second long. Each batch
//! boots a fresh system (timed as set-up) and runs a fixed number of rounds;
//! the next batch starts while time remains. A fresh system per batch keeps
//! the work of every batch the same: `run_concurrent` deals out only the
//! regions the untrusted OS still owns, and a finished batch leaves enclaves
//! behind. A host speed sample runs before the first batch and after each
//! and scales the batch's figures (see [`crate::speed`]). Untraced batches
//! call [`run_concurrent`]; traced batches
//! run [`run_traced`], a copy of its worker loop and `step_mixed` that
//! times every SM call and counts its `ConcurrentCall` retries per call.

use crate::speed::HostSpeed;
use crate::trace::Tracer;
use crate::{splitmix, us, Report, Timed, Window};
use sanctorum_core::api::SmApi;
use sanctorum_core::error::SmError;
use sanctorum_core::monitor::{LockingMode, SecurityMonitor, SmConfig};
use sanctorum_core::resource::{ResourceId, ResourceState};
use sanctorum_core::session::CallerSession;
use sanctorum_explorer::concurrent::concurrent_machine_config;
use sanctorum_hal::addr::VirtAddr;
use sanctorum_hal::domain::{DomainKind, EnclaveId};
use sanctorum_hal::isolation::RegionId;
use sanctorum_os::concurrent::{
    run_concurrent, ConcurrentConfig, ConcurrentStats, WorkloadProfile,
};
use sanctorum_os::system::{PlatformKind, System};
use sanctorum_trust::Tainted;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Per-hart id batch of the fine-grained monitor (as `scaling_stats` runs it).
const ID_BATCH: usize = 16;
/// Boots timed before the first batch, for the set-up median.
const SETUP_BOOTS: usize = 15;

/// Span names of the SM calls `step_mixed` issues.
pub const CALLS: [&str; 11] = [
    "sm.resource_state",
    "sm.block_resource",
    "sm.clean_resource",
    "sm.create_enclave",
    "sm.allocate_page_table",
    "sm.load_thread",
    "sm.init_enclave",
    "sm.accept_mail",
    "sm.send_mail",
    "sm.get_mail",
    "sm.delete_enclave",
];

/// Rounds per batch and steps per worker per round.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Quiescent rounds per batch.
    pub rounds: usize,
    /// Steps per worker per round.
    pub ops_per_round: usize,
}

/// The workload's batch shape: rounds short enough to give over a thousand
/// latency samples in a ten-second run, long enough that the round barrier
/// costs well under 1%.
pub const SHAPE: Shape = Shape {
    rounds: 100,
    ops_per_round: 500,
};

/// Boots the churn system: the concurrent soak geometry, FineGrained.
pub fn boot() -> System {
    System::boot(
        PlatformKind::Sanctum,
        concurrent_machine_config(),
        SmConfig {
            locking: LockingMode::FineGrained,
            id_batch: ID_BATCH,
            ..SmConfig::default()
        },
    )
}

/// Load threads: one per host CPU, at most one per untrusted region of the
/// churn system, since `run_concurrent` gives every worker its own.
pub fn threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let untrusted = untrusted_regions(&boot()).len();
        crate::host_cpus().min(untrusted).max(1)
    })
}

/// `SmStats` counters the per-layer report reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmCounters {
    /// API calls accepted.
    pub api_calls: u64,
    /// API calls rejected.
    pub api_rejections: u64,
    /// `ConcurrentCall` failures returned.
    pub concurrency_failures: u64,
    /// Modeled cycles spent cleaning.
    pub cleaning_cycles: u64,
}

impl SmCounters {
    fn read(system: &System) -> Self {
        let stats = system.monitor.stats();
        Self {
            api_calls: stats.api_calls.load(Ordering::Relaxed),
            api_rejections: stats.api_rejections.load(Ordering::Relaxed),
            concurrency_failures: stats.concurrency_failures.load(Ordering::Relaxed),
            cleaning_cycles: stats.cleaning_cycles.load(Ordering::Relaxed),
        }
    }

    fn add(&mut self, other: Self) {
        self.api_calls += other.api_calls;
        self.api_rejections += other.api_rejections;
        self.concurrency_failures += other.concurrency_failures;
        self.cleaning_cycles += other.cleaning_cycles;
    }
}

/// What a churn phase did.
#[derive(Debug, Default)]
pub struct ChurnResult {
    /// One window per batch: committed steps, the batch's wall time (set-up
    /// excluded), and one latency sample per round, the round's wall time
    /// per step.
    pub timed: Timed,
    /// Summed workload counters.
    pub stats: ConcurrentStats,
    /// Summed monitor counters (each batch's system starts at zero).
    pub sm: SmCounters,
    /// Boot times at nominal host speed, seconds: the extra set-up boots,
    /// then each batch's.
    pub setup_s: Vec<f64>,
    /// Span totals of every traced batch.
    pub totals: Tracer,
    /// Worker tracers, raw spans included, of the first traced batch.
    pub spans: Vec<Tracer>,
    /// `ConcurrentCall` retries by call span name (traced batches).
    pub call_retries: BTreeMap<&'static str, u64>,
}

/// Runs batches of `shape` on `threads` workers until `length` has passed
/// (at least one batch). Batch `b` runs seed `splitmix(seed, b)`. Failed
/// batches are recorded in `report`.
pub fn run(
    seed: u64,
    threads: usize,
    shape: Shape,
    length: Duration,
    traced: bool,
    report: &mut Report,
) -> ChurnResult {
    let mut result = ChurnResult::default();
    let mut state = seed ^ 0xc4c4_0000;
    let mut speed = HostSpeed::new();
    let mut before = speed.sample();
    // A boot takes about a millisecond and some take several, so set-up is
    // sampled on extra boots as well as on each batch's.
    let mut boots = Vec::with_capacity(SETUP_BOOTS);
    for _ in 0..SETUP_BOOTS {
        let booted = Instant::now();
        drop(boot());
        boots.push(booted.elapsed().as_secs_f64());
    }
    let after = speed.sample();
    let slowdown = (before + after) / 2.0;
    result.setup_s.extend(boots.iter().map(|s| s / slowdown));
    before = after;
    let start = Instant::now();
    loop {
        let booted = Instant::now();
        let system = boot();
        result.setup_s.push(booted.elapsed().as_secs_f64() / before);
        let config = ConcurrentConfig {
            threads,
            rounds: shape.rounds,
            ops_per_round: shape.ops_per_round,
            profile: WorkloadProfile::MixedMutation,
            seed: splitmix(&mut state),
        };
        let planned = (threads * shape.rounds * shape.ops_per_round) as u64;
        report.attempted += planned;
        let began = Instant::now();
        let mut marks = Vec::with_capacity(shape.rounds);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if traced {
                run_traced(&system, &config).map(|(stats, tracers, retries)| {
                    for tracer in &tracers {
                        result.totals.absorb_totals(tracer);
                    }
                    if result.spans.is_empty() {
                        result.spans = tracers;
                    }
                    for (name, count) in retries {
                        *result.call_retries.entry(name).or_default() += count;
                    }
                    stats
                })
            } else {
                run_concurrent(&system, &config, |_| {
                    marks.push(Instant::now());
                    Ok(())
                })
            }
        }))
        .unwrap_or_else(|_| Err("a churn worker panicked".into()));
        let seconds = began.elapsed().as_secs_f64();
        let after = speed.sample();
        let mut window = Window {
            seconds,
            slowdown: (before + after) / 2.0,
            ..Window::default()
        };
        before = after;
        let mut previous = began;
        for mark in marks {
            window
                .latencies_us
                .push(us(mark - previous) / shape.ops_per_round as f64);
            previous = mark;
        }
        match outcome {
            Ok(stats) => {
                window.done = stats.steps;
                report.failed += planned - stats.steps.min(planned);
                result.stats.steps += stats.steps;
                result.stats.sm_calls += stats.sm_calls;
                result.stats.retries += stats.retries;
                result.stats.transient_retries += stats.transient_retries;
            }
            Err(err) => {
                report.failed += planned;
                report.error(format!("churn batch failed: {err}"));
            }
        }
        result.timed.windows.push(window);
        result.sm.add(SmCounters::read(&system));
        if start.elapsed() >= length {
            break;
        }
    }
    result
}

/// Per-layer metrics of a traced churn phase. Counts are per committed
/// step, so they do not grow with the number of steps a time-limited phase
/// commits.
pub fn layer_metrics(report: &mut Report, result: &ChurnResult) {
    let per_step = |count: u64| count as f64 / result.stats.steps.max(1) as f64;
    for name in CALLS {
        report.metric(
            format!("{name}.us"),
            result.totals.agg(name).self_us(),
            "us",
        );
        report.metric(
            format!("{name}.retries"),
            per_step(result.call_retries.get(name).copied().unwrap_or(0)),
            "per_step",
        );
    }
    report.metric("sm.retries_per_step", result.stats.retry_rate(), "per_step");
    report.metric(
        "sm.transient_retries",
        per_step(result.stats.transient_retries),
        "per_step",
    );
    report.metric("sm.api_calls", per_step(result.sm.api_calls), "per_step");
    report.metric(
        "sm.api_rejections",
        per_step(result.sm.api_rejections),
        "per_step",
    );
    report.metric(
        "sm.concurrency_failures",
        per_step(result.sm.concurrency_failures),
        "per_step",
    );
    report.metric(
        "sm.cleaning_cycles",
        per_step(result.sm.cleaning_cycles),
        "cycles/step",
    );
}

/// A copy of `os::concurrent`'s worker with every SM call timed.
struct TracedWorker<'m> {
    monitor: &'m SecurityMonitor,
    regions: Vec<RegionId>,
    rng: u64,
    enclave: Option<EnclaveId>,
    calls: u64,
    retries: u64,
    transient_retries: u64,
    call_retries: BTreeMap<&'static str, u64>,
    tracer: Tracer,
}

impl TracedWorker<'_> {
    const AGAIN_RETRY_BUDGET: u32 = 8;

    fn call<T>(
        &mut self,
        name: &'static str,
        mut f: impl FnMut(&SecurityMonitor) -> Result<T, SmError>,
    ) -> Result<T, SmError> {
        let monitor = self.monitor;
        let mut spins = 0u32;
        let mut transient = 0u32;
        self.tracer.enter(name, 0);
        let result = loop {
            self.calls += 1;
            match f(monitor) {
                Err(SmError::ConcurrentCall) => {
                    self.retries += 1;
                    *self.call_retries.entry(name).or_default() += 1;
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                Err(SmError::Again) if transient < Self::AGAIN_RETRY_BUDGET => {
                    transient += 1;
                    self.transient_retries += 1;
                    for _ in 0..(1u32 << transient.min(10)) {
                        std::hint::spin_loop();
                    }
                }
                other => break other,
            }
        };
        self.tracer.exit();
        result
    }

    fn build_enclave(&mut self, region: RegionId) -> Result<EnclaveId, SmError> {
        let os = CallerSession::os();
        let eid = self.call("sm.create_enclave", |m| {
            m.create_enclave(os, VirtAddr::new(0x10_0000), 0x4000, &[region])
        })?;
        self.call("sm.allocate_page_table", |m| m.allocate_page_table(os, eid))?;
        self.call("sm.load_thread", |m| {
            m.load_thread(os, eid, 0x10_0000, None)
        })?;
        self.call("sm.init_enclave", |m| m.init_enclave(os, eid))?;
        Ok(eid)
    }

    fn teardown_enclave(&mut self, eid: EnclaveId, region: RegionId) -> Result<(), SmError> {
        let os = CallerSession::os();
        self.call("sm.delete_enclave", |m| m.delete_enclave(os, eid))?;
        self.call("sm.clean_resource", |m| {
            m.clean_resource(os, ResourceId::Region(region))
        })?;
        Ok(())
    }

    fn step_mixed(&mut self) -> Result<(), SmError> {
        let os = CallerSession::os();
        let draw = splitmix(&mut self.rng);
        let region = self.regions[(draw % self.regions.len() as u64) as usize];
        match self.enclave {
            None => {
                match self.call("sm.resource_state", |m| {
                    m.resource_state(ResourceId::Region(region))
                })? {
                    ResourceState::Owned(DomainKind::Untrusted) => {
                        self.call("sm.block_resource", |m| {
                            m.block_resource(os, ResourceId::Region(region))
                        })?;
                        self.call("sm.clean_resource", |m| {
                            m.clean_resource(os, ResourceId::Region(region))
                        })?;
                    }
                    ResourceState::Blocked(_) => {
                        self.call("sm.clean_resource", |m| {
                            m.clean_resource(os, ResourceId::Region(region))
                        })?;
                    }
                    ResourceState::Available => {}
                    ResourceState::Owned(_) => return Ok(()),
                }
                self.enclave = Some(self.build_enclave(region)?);
            }
            Some(eid) => {
                if draw & 0x4 != 0 {
                    let session = CallerSession::enclave(eid);
                    self.call("sm.accept_mail", |m| m.accept_mail(session, 0, 0))?;
                    let payload = draw.to_le_bytes();
                    self.call("sm.send_mail", |m| {
                        m.send_mail(os, eid, Tainted::new(&payload))
                    })?;
                    let (bytes, _) = self.call("sm.get_mail", |m| m.get_mail(session, 0))?;
                    assert_eq!(bytes, payload, "mail round-trip corrupted");
                } else {
                    let region = self
                        .regions
                        .iter()
                        .copied()
                        .find(|r| self.enclave_region_matches(*r, eid))
                        .expect("worker enclaves live on worker regions");
                    self.teardown_enclave(eid, region)?;
                    self.enclave = None;
                }
            }
        }
        Ok(())
    }

    fn enclave_region_matches(&self, region: RegionId, eid: EnclaveId) -> bool {
        let config = self.monitor.machine().config();
        let base = config.memory_base.as_u64() + (region.index() * config.dram_region_size) as u64;
        base == eid.as_u64()
    }
}

/// The regions the untrusted OS owns, in index order.
fn untrusted_regions(system: &System) -> Vec<RegionId> {
    let monitor = &system.monitor;
    (0..system.machine.config().num_regions() as u32)
        .map(RegionId::new)
        .filter(|r| {
            matches!(
                monitor.resource_state(ResourceId::Region(*r)),
                Ok(ResourceState::Owned(DomainKind::Untrusted))
            )
        })
        .collect()
}

/// The untrusted regions dealt round-robin to `threads` workers, as
/// `run_concurrent` deals them.
fn partition_regions(system: &System, threads: usize) -> Vec<Vec<RegionId>> {
    let mut slices: Vec<Vec<RegionId>> = vec![Vec::new(); threads];
    for (index, region) in untrusted_regions(system).into_iter().enumerate() {
        slices[index % threads].push(region);
    }
    slices
}

type TracedOutcome = (ConcurrentStats, Vec<Tracer>, BTreeMap<&'static str, u64>);

/// The traced copy of `run_concurrent` for the MixedMutation profile: same
/// region partition, same per-worker seeds, same step function, a barrier
/// between rounds; each step is a `churn.step` span (id = worker) around
/// its SM-call spans.
///
/// # Errors
///
/// Returns the first step error; every worker stops at the next round.
pub fn run_traced(system: &System, config: &ConcurrentConfig) -> Result<TracedOutcome, String> {
    let slices = partition_regions(system, config.threads);
    assert!(
        slices.iter().all(|s| !s.is_empty()),
        "every worker needs a region"
    );
    let monitor = system.monitor.as_ref();
    let barrier = Barrier::new(config.threads);
    let stop = AtomicBool::new(false);
    let error = Mutex::new(None::<String>);
    let epoch = Instant::now();
    let workers: Vec<(TracedWorker<'_>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = slices
            .into_iter()
            .enumerate()
            .map(|(index, regions)| {
                let (barrier, stop, error) = (&barrier, &stop, &error);
                scope.spawn(move || {
                    let mut worker = TracedWorker {
                        monitor,
                        regions,
                        rng: config.seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1),
                        enclave: None,
                        calls: 0,
                        retries: 0,
                        transient_retries: 0,
                        call_retries: BTreeMap::new(),
                        tracer: Tracer::new(epoch),
                    };
                    let mut steps = 0u64;
                    for _ in 0..config.rounds {
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        for _ in 0..config.ops_per_round {
                            worker.tracer.enter("churn.step", index as u64);
                            let result = worker.step_mixed();
                            worker.tracer.exit();
                            if let Err(err) = result {
                                *error.lock().expect("error slot") =
                                    Some(format!("worker {index} step failed: {err:?}"));
                                stop.store(true, Ordering::Relaxed);
                                break;
                            }
                            steps += 1;
                        }
                    }
                    (worker, steps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("churn worker joins"))
            .collect()
    });
    if let Some(err) = error.into_inner().expect("error slot") {
        return Err(err);
    }
    let mut stats = ConcurrentStats::default();
    let mut retries = BTreeMap::new();
    let mut tracers = Vec::new();
    for (worker, steps) in workers {
        stats.steps += steps;
        stats.sm_calls += worker.calls;
        stats.retries += worker.retries;
        stats.transient_retries += worker.transient_retries;
        for (name, count) in worker.call_retries {
            *retries.entry(name).or_default() += count;
        }
        tracers.push(worker.tracer);
    }
    Ok((stats, tracers, retries))
}
