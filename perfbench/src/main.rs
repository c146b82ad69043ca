//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Lines before it record the run (workload, seed,
//! host CPUs, load threads) and repeat each metric in plain text.
//!
//! Workloads: `fleet_closed`, `enclave_churn` and `explorer_sweep`. The
//! fleet under seeded Poisson arrivals is not a workload of its own: on a
//! 2-CPU virtual machine its latency medians move by 20–30% between runs,
//! wider than any usable regression bound. Its generator metrics come from
//! an open-loop probe at [`fleet::OPEN_RATE`] in every traced run.
//!
//! * `--trace 0` measures the end-to-end metrics through the program's own
//!   entry points: `throughput_per_s`, `latency_p50_us`, `latency_p99_us`,
//!   `setup_s` and `peak_rss_mb`. Throughput counts sessions filed (fleet),
//!   committed lifecycle steps (churn) or ops applied per backend
//!   (explorer). Latency is per session from challenge to session filed
//!   (fleet), a round's wall time per step (churn), or one seed's sweep
//!   (explorer). Every figure is scaled to nominal host speed by a
//!   reference kernel timed between windows ([`perfbench::speed`]).
//! * `--trace 1` gives every per-layer metric. The workload runs untraced
//!   for half the time and traced for the other half; the layers it does
//!   not load are measured by short fixed-size traced probes. Spans are
//!   written under `$CARGO_TARGET_DIR/perfbench-spans/`.

use perfbench::fleet::{self, Load, RigFleet};
use perfbench::speed::HostSpeed;
use perfbench::trace::write_spans;
use perfbench::{
    churn, crypto_metrics, explorer, host_cpus, median, peak_rss_mb, spans_dir, Report,
};
use sanctorum_os::fleet::Fleet;
use sanctorum_verifier::SessionPool;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fleet boots per run; `setup_s` is their median.
const FLEET_SETUPS: usize = 9;
/// Rounds per machine of the fixed-size fleet phase before the timed one.
/// `peak_rss_mb` is read after it, so the memory figure covers the same
/// sessions however fast the build runs.
const FLEET_FIXED_ROUNDS: u64 = 25;
/// Largest share of a traced fleet phase's worker time that its stage
/// spans may leave unexplained.
const ACCOUNTING_BOUND: f64 = 0.1;
/// Length of the open-loop probe in traced runs of the other workloads.
const OPEN_PROBE: Duration = Duration::from_secs(2);
/// Shape of the churn probe in non-churn traced runs.
const CHURN_PROBE: churn::Shape = churn::Shape {
    rounds: 4,
    ops_per_round: 2000,
};
/// Seeds of the explorer probe in non-explorer traced runs.
const EXPLORER_PROBE_SEEDS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetClosed,
    EnclaveChurn,
    ExplorerSweep,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "fleet_closed" => Self::FleetClosed,
            "enclave_churn" => Self::EnclaveChurn,
            "explorer_sweep" => Self::ExplorerSweep,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::FleetClosed => "fleet_closed",
            Self::EnclaveChurn => "enclave_churn",
            Self::ExplorerSweep => "explorer_sweep",
        }
    }

    /// Load threads: one per host CPU, capped by what the workload can use.
    fn threads(self) -> usize {
        match self {
            Self::FleetClosed => fleet::workers(),
            Self::EnclaveChurn => churn::threads(),
            Self::ExplorerSweep => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--explorer-child") {
        let number = |i: usize| {
            args.get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .expect("child seed range")
        };
        let spans = args.get(3).filter(|p| p.as_str() != "-").map(PathBuf::from);
        if let Err(err) = explorer::child_main(number(1), number(2), spans.as_deref()) {
            eprintln!("explorer child: {err}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    let length = Duration::from_secs_f64(args.seconds);
    let mut report = Report::default();
    if args.trace {
        traced(args.workload, args.seed, length, &mut report);
    } else {
        untraced(args.workload, args.seed, length, &mut report);
    }
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} host_cpus={} threads={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cpus(),
        args.workload.threads()
    );
    for metric in &report.metrics {
        println!(
            "#   {:<40} {:>16.3} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for error in &report.errors {
        println!("# error: {error}");
    }
    println!("{}", report.to_json());
}

/// Runs `f` `times` times; returns the last value and each run's seconds.
/// Each value is dropped before the next is built, so only one is resident.
fn repeated_setup<T>(times: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(times);
    let mut value = None;
    for _ in 0..times {
        drop(value.take());
        let began = Instant::now();
        value = Some(f());
        seconds.push(began.elapsed().as_secs_f64());
    }
    (value.expect("at least one setup"), seconds)
}

fn untraced(workload: Workload, seed: u64, length: Duration, report: &mut Report) {
    let threads = workload.threads();
    match workload {
        Workload::FleetClosed => {
            let config = fleet::config(seed);
            let mut speed = HostSpeed::new();
            let before = speed.sample();
            let ((fleet, verifier), setup) = repeated_setup(FLEET_SETUPS, || {
                let fleet = Fleet::boot(&config);
                let verifier = fleet.verifier(fleet::verifier_seed(seed));
                (fleet, verifier)
            });
            let setup_slowdown = (before + speed.sample()) / 2.0;
            let (_ca, mut machines) = fleet.into_machines();
            let fixed_pool = SessionPool::new();
            let fixed = fleet::drive(
                &mut machines,
                &verifier,
                &fixed_pool,
                threads,
                Load::Rounds(FLEET_FIXED_ROUNDS),
            );
            fleet::check(report, &fixed, &verifier.stats(), &fixed_pool);
            let rss = peak_rss_mb();
            drop(fixed_pool);
            let pool = SessionPool::new();
            let result =
                fleet::drive_closed(&mut machines, &verifier, &pool, threads, length, &mut speed);
            fleet::check(report, &result, &verifier.stats(), &pool);
            result.timed.report(report, result.timed.median_rate());
            report.metric("setup_s", median(&setup) / setup_slowdown, "s");
            report.metric("peak_rss_mb", rss, "MB");
        }
        Workload::EnclaveChurn => {
            let result = churn::run(seed, threads, churn::SHAPE, length, false, report);
            result.timed.report(report, result.timed.median_rate());
            report.metric("setup_s", median(&result.setup_s), "s");
            report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
        Workload::ExplorerSweep => {
            let result = explorer::run(seed, explorer::SEEDS_PER_SWEEP, length, None, report);
            result.timed.report(report, result.timed.median_rate());
            report.metric("setup_s", median(&result.setup_s), "s");
            report.metric("peak_rss_mb", result.rss_mb.max(peak_rss_mb()), "MB");
        }
    }
}

/// Which fleet metrics a traced fleet phase reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetMetrics {
    /// Verifier, signing, mailbox and session stages.
    Layers,
    /// The open-loop generator's lag and backlog.
    Open,
    /// Both.
    All,
}

/// Boots a rig fleet, drives `load` traced, checks it, records the chosen
/// fleet metrics and writes the spans to `spans` with `suffix`. A phase
/// whose stage self times leave more than [`ACCOUNTING_BOUND`] of the
/// workers' time unexplained is an error. Returns the phase, its windows
/// scaled by host speed samples taken before and after it.
fn traced_fleet(
    seed: u64,
    load: Load<'_>,
    metrics: FleetMetrics,
    spans: &Path,
    suffix: &str,
    report: &mut Report,
) -> fleet::LoadResult {
    let mut rig = RigFleet::boot(&fleet::config(seed));
    let verifier = rig.verifier(fleet::verifier_seed(seed));
    let pool = SessionPool::new();
    let mut speed = HostSpeed::new();
    let before = speed.sample();
    let mut result = fleet::drive(&mut rig.machines, &verifier, &pool, fleet::workers(), load);
    let slowdown = (before + speed.sample()) / 2.0;
    for window in &mut result.timed.windows {
        window.slowdown = slowdown;
    }
    let stats = verifier.stats();
    fleet::check(report, &result, &stats, &pool);
    if metrics != FleetMetrics::Open {
        let residual = fleet::layer_metrics(report, &result, &stats, &rig.machines);
        if residual.is_nan() || residual.abs() > ACCOUNTING_BOUND {
            report.error(format!(
                "fleet stage self times leave {residual:.3} of worker time unexplained \
                 (bound {ACCOUNTING_BOUND})"
            ));
        }
    }
    if metrics != FleetMetrics::Layers {
        fleet::open_metrics(report, &result);
    }
    let tracers: Vec<_> = result.tracers.iter().collect();
    if let Err(err) = write_spans(&spans.with_extension(suffix), &tracers) {
        report.error(format!("writing fleet spans: {err}"));
    }
    result
}

fn traced_churn(
    seed: u64,
    shape: churn::Shape,
    length: Duration,
    spans: &Path,
    report: &mut Report,
) -> f64 {
    let result = churn::run(seed, churn::threads(), shape, length, true, report);
    churn::layer_metrics(report, &result);
    let tracers: Vec<_> = result.spans.iter().collect();
    if let Err(err) = write_spans(&spans.with_extension("churn.tsv"), &tracers) {
        report.error(format!("writing churn spans: {err}"));
    }
    result.timed.median_rate()
}

fn traced(workload: Workload, seed: u64, length: Duration, report: &mut Report) {
    let half = length / 2;
    let spans = spans_dir().join(format!("{}-{seed}", workload.name()));
    let mut untraced_half = Report::default();
    untraced(workload, seed, half, &mut untraced_half);
    report.attempted += untraced_half.attempted;
    report.failed += untraced_half.failed;
    report.errors.append(&mut untraced_half.errors);
    let untraced_value = |name: &str| {
        untraced_half
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };

    // The workload's own layers, traced for the second half.
    // `trace_overhead` compares the two halves: throughput lost to tracing.
    let overhead = match workload {
        Workload::FleetClosed => {
            let result = traced_fleet(
                seed,
                Load::Closed {
                    length: half,
                    first_round: 0,
                },
                FleetMetrics::Layers,
                &spans,
                "fleet.tsv",
                report,
            );
            untraced_value("throughput_per_s") / result.timed.median_rate() - 1.0
        }
        Workload::EnclaveChurn => {
            let rate = traced_churn(seed, churn::SHAPE, half, &spans, report);
            untraced_value("throughput_per_s") / rate - 1.0
        }
        Workload::ExplorerSweep => {
            let result = explorer::run(seed, explorer::SEEDS_PER_SWEEP, half, Some(&spans), report);
            explorer::layer_metrics(report, &result);
            untraced_value("throughput_per_s") / result.timed.median_rate() - 1.0
        }
    };

    // The layers the workload does not load, from fixed-size traced probes.
    let schedule = fleet::open_schedule(seed, fleet::OPEN_RATE, OPEN_PROBE.as_secs_f64());
    let metrics = if workload == Workload::FleetClosed {
        FleetMetrics::Open
    } else {
        FleetMetrics::All
    };
    traced_fleet(
        seed,
        Load::Open(&schedule),
        metrics,
        &spans,
        "open.tsv",
        report,
    );
    if workload != Workload::EnclaveChurn {
        traced_churn(seed, CHURN_PROBE, Duration::ZERO, &spans, report);
    }
    if workload != Workload::ExplorerSweep {
        let probe = explorer::run(
            seed,
            EXPLORER_PROBE_SEEDS,
            Duration::ZERO,
            Some(&spans),
            report,
        );
        explorer::layer_metrics(report, &probe);
    }
    crypto_metrics(report);
    report.metric("trace_overhead", overhead, "ratio");
    report.metric("run.host_cpus", host_cpus() as f64, "count");
    report.metric("run.threads", workload.threads() as f64, "count");
}
