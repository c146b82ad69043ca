//! Explorer sweep: single-thread `Explorer::sweep` in fresh processes.
//!
//! The benchmark re-executes itself as a child (`--explorer-child`) for
//! every sweep of [`SEEDS_PER_SWEEP`] seeds, so the process-wide memos in
//! `os::ops` start cold in each, as they do for a user's sweep. The child
//! prints `ready` once it can explore, then one `seed` line per seed
//! (`seed <seed> <ops> <violations> <nanoseconds>`), then, when traced, one
//! `agg` line per span name, and last its `rss` high-water mark in MB.
//!
//! The parent takes a single-thread host speed sample before the first
//! child and after each, and scales the sweep's figures by them (see
//! [`crate::speed`]).
//!
//! Untraced children call `Explorer::sweep` one seed at a time. Traced
//! children run [`run_seed_traced`], a copy of `Explorer::run_seed` with an
//! `explorer.boot` span around `DiffPair::boot` and one span per op, named
//! by the op's label, around `DiffPair::step`.

use crate::speed::HostSpeed;
use crate::trace::{write_spans, Agg, Tracer};
use crate::{peak_rss_mb, splitmix, Report, Timed, Window};
use sanctorum_explorer::invariants::Violation;
use sanctorum_explorer::{trace, DiffPair, Explorer, ExplorerConfig};
use sanctorum_hal::domain::CoreId;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Seeds per child sweep.
pub const SEEDS_PER_SWEEP: u64 = 50;

/// The labels `Op::sample` draws from.
pub const LABELS: [&str; 16] = [
    "build",
    "teardown",
    "run",
    "tick",
    "block-region",
    "clean-region",
    "grant-region",
    "delete-enclave",
    "load-after-init",
    "mail-roundtrip",
    "enclave-mail",
    "mail-queue",
    "attest-service",
    "get-field",
    "batch",
    "attack",
];

/// The result of one seed run by the traced copy.
#[derive(Debug)]
pub struct TracedSeed {
    /// Ops executed (the full budget, or up to the violation).
    pub steps_executed: usize,
    /// Ops applied, by label.
    pub op_counts: BTreeMap<&'static str, usize>,
    /// The violation that stopped the run, if any.
    pub violation: Option<Violation>,
    /// `(sanctum, keystone)` machine state digests at the end.
    pub final_digests: (u64, u64),
}

/// `Explorer::run_seed` with spans, minus shrinking (a violation is
/// reported as it is found).
pub fn run_seed_traced(config: &ExplorerConfig, seed: u64, tracer: &mut Tracer) -> TracedSeed {
    let ops = trace::generate(seed, config.harts, config.steps);
    let mut pair = tracer.span("explorer.boot", seed, || {
        DiffPair::boot(&config.machine, config.weaken)
    });
    let mut op_counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut steps_executed = ops.len();
    let mut violation = None;
    for (step, traced) in ops.iter().enumerate() {
        let label = traced.op.label();
        *op_counts.entry(label).or_default() += 1;
        if let Err(found) = tracer.span(label, seed, || {
            pair.step(CoreId::new(traced.hart), &traced.op)
        }) {
            steps_executed = step + 1;
            violation = Some(found);
            break;
        }
    }
    TracedSeed {
        steps_executed,
        op_counts,
        violation,
        final_digests: (
            pair.sanctum.world.system.machine.state_digest(),
            pair.keystone.world.system.machine.state_digest(),
        ),
    }
}

/// Body of an `--explorer-child` process: explores `count` seeds from
/// `first`, traced when `spans` names a file to write the spans to.
///
/// # Errors
///
/// Propagates stdout and span-file errors.
pub fn child_main(first: u64, count: u64, spans: Option<&Path>) -> std::io::Result<()> {
    let explorer = Explorer::new(ExplorerConfig::default());
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()?;
    let mut tracer = Tracer::new(Instant::now());
    for seed in first..first + count {
        let began = Instant::now();
        let (ops, violations) = if spans.is_some() {
            let report = run_seed_traced(explorer.config(), seed, &mut tracer);
            if let Some(violation) = &report.violation {
                eprintln!("seed {seed:#x}: {violation}");
            }
            (
                report.steps_executed,
                usize::from(report.violation.is_some()),
            )
        } else {
            let stats = explorer.sweep(seed..seed + 1);
            for failure in &stats.failures {
                eprintln!("{failure}");
            }
            (stats.total_steps, stats.failures.len())
        };
        writeln!(
            out,
            "seed {seed} {ops} {violations} {}",
            began.elapsed().as_nanos()
        )?;
    }
    if let Some(path) = spans {
        for (name, agg) in tracer.aggs() {
            writeln!(
                out,
                "agg {name} {} {} {}",
                agg.count, agg.total_ns, agg.self_ns
            )?;
        }
        write_spans(path, &[&tracer])?;
    }
    writeln!(out, "rss {}", peak_rss_mb())?;
    out.flush()
}

/// What an explorer phase did.
#[derive(Debug, Default)]
pub struct ExplorerResult {
    /// One window per child sweep: ops applied per backend, the sweep's
    /// time (process start-up excluded), and one latency sample per seed.
    pub timed: Timed,
    /// Time from spawning each child until it was ready to explore, at
    /// nominal host speed, seconds.
    pub setup_s: Vec<f64>,
    /// Highest child resident-set high-water mark, MB.
    pub rss_mb: f64,
    /// Span totals of traced children, by span name.
    pub aggs: BTreeMap<String, Agg>,
}

/// Runs child sweeps of `seeds_per_sweep` seeds until `length` has passed
/// (at least one sweep). Seeds are consecutive from a base drawn from
/// `seed`. Traced sweeps write their spans under `spans_prefix`.
pub fn run(
    seed: u64,
    seeds_per_sweep: u64,
    length: Duration,
    spans_prefix: Option<&Path>,
    report: &mut Report,
) -> ExplorerResult {
    let mut result = ExplorerResult::default();
    let mut state = seed ^ 0xe791_0000;
    let base = splitmix(&mut state) >> 20;
    let mut speed = HostSpeed::new();
    let mut before = speed.sample();
    let start = Instant::now();
    for sweep in 0u64.. {
        let (windows, setups) = (result.timed.windows.len(), result.setup_s.len());
        let first = base + sweep * seeds_per_sweep;
        let planned = seeds_per_sweep * ExplorerConfig::default().steps as u64;
        report.attempted += planned;
        let spans =
            spans_prefix.map(|prefix| prefix.with_extension(format!("explorer-{sweep}.tsv")));
        if let Err(err) = run_child(
            first,
            seeds_per_sweep,
            spans.as_deref(),
            &mut result,
            report,
        ) {
            report.failed += planned;
            report.error(format!("explorer sweep from seed {first}: {err}"));
        }
        let after = speed.sample();
        for window in &mut result.timed.windows[windows..] {
            window.slowdown = (before + after) / 2.0;
        }
        for setup in &mut result.setup_s[setups..] {
            *setup /= before;
        }
        before = after;
        if start.elapsed() >= length {
            break;
        }
    }
    result
}

fn run_child(
    first: u64,
    count: u64,
    spans: Option<&Path>,
    result: &mut ExplorerResult,
    report: &mut Report,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let spans_arg = spans.map_or_else(|| "-".to_string(), |p| p.display().to_string());
    let spawned = Instant::now();
    let mut child = Command::new(exe)
        .args([
            "--explorer-child",
            &first.to_string(),
            &count.to_string(),
            &spans_arg,
        ])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut window = Window::default();
    let read = read_child(stdout, spawned, &mut window, result, report);
    if read.is_err() {
        // Never leave a child behind: stop it before reaping it.
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    read?;
    let seeds = window.latencies_us.len() as u64;
    if !status.success() || seeds != count {
        return Err(format!(
            "child exited with {status} after {seeds} of {count} seeds"
        ));
    }
    result.timed.windows.push(window);
    Ok(())
}

/// Reads a child's report lines into `window`, `result` and `report`.
fn read_child(
    stdout: std::process::ChildStdout,
    spawned: Instant,
    window: &mut Window,
    result: &mut ExplorerResult,
    report: &mut Report,
) -> Result<(), String> {
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let fields: Vec<&str> = line.split_whitespace().collect();
        let number = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(f64::NAN)
        };
        match fields.first().copied() {
            Some("ready") => result.setup_s.push(spawned.elapsed().as_secs_f64()),
            Some("seed") => {
                window.done += number(2) as u64;
                let seconds = number(4) / 1e9;
                window.seconds += seconds;
                window.latencies_us.push(seconds * 1e6);
                if number(3) != 0.0 {
                    report.failed += ExplorerConfig::default().steps as u64;
                    report.error(format!("explorer violation at seed {}", fields[1]));
                }
            }
            Some("agg") if fields.len() == 5 => {
                let agg = result.aggs.entry(fields[1].to_string()).or_default();
                agg.count += number(2) as u64;
                agg.total_ns += number(3) as u64;
                agg.self_ns += number(4) as u64;
            }
            Some("rss") => result.rss_mb = result.rss_mb.max(number(1)),
            _ => return Err(format!("unexpected child output: {line}")),
        }
    }
    Ok(())
}

/// Per-layer metrics of a traced explorer phase. Op counts are per seed,
/// so they do not grow with the number of seeds a time-limited phase runs.
pub fn layer_metrics(report: &mut Report, result: &ExplorerResult) {
    let agg = |name: &str| result.aggs.get(name).copied().unwrap_or_default();
    let seeds = agg("explorer.boot").count.max(1) as f64;
    report.metric("explorer.boot_us", agg("explorer.boot").self_us(), "us");
    for label in LABELS {
        let op = agg(label);
        report.metric(format!("explorer.op.{label}.us"), op.self_us(), "us");
        report.metric(
            format!("explorer.op.{label}.count"),
            op.count as f64 / seeds,
            "per_seed",
        );
    }
}
