//! Multi-hart scalability benchmark — `steps/sec` and `SM-calls/sec` at
//! 1/2/4/8 OS threads, Global vs FineGrained locking, on a read-mostly
//! (public-field reads + mailbox probes) and a mixed-mutation (full
//! lifecycle churn) workload, emitted as `BENCH_scaling.json` and gated in
//! CI (see EXPERIMENTS.md, "Scaling").
//!
//! Usage:
//!
//! ```text
//! scaling_stats [--rounds N] [--read-ops N] [--mixed-ops N] [--out PATH] [--baseline PATH]
//! ```
//!
//! Gates (exit non-zero on failure):
//!
//! * **fine ≥ 2× global at 4 threads, read-mostly** — the tentpole claim:
//!   with the hot path algorithmically cheap, the giant lock is the
//!   dominant cost under concurrency. Always enforced: on a multi-core
//!   host the fine-grained mode scales while the global mode serializes;
//!   on a single-core host the global mode still collapses, because the
//!   giant lock is a *spinlock* (the M-mode monitor it models has no
//!   scheduler to sleep on) and a preempted holder leaves every other
//!   worker burning its timeslice — exactly the spin cost concurrent harts
//!   pay on real hardware.
//! * **fine at 4 threads ≥ 2× fine at 1 thread, read-mostly** — true
//!   parallel scaling. Only enforced when the host actually has ≥ 4 CPUs
//!   (`host_cpus` is recorded in the JSON either way).
//! * **fine at 8 threads ≥ 3× fine at 1 thread, mixed-mutation** — the
//!   *write path* scales too: with read-locked lookup tables, per-hart id
//!   allocation and batched backend flushes, lifecycle churn must not
//!   serialize on the metadata locks. Only enforced at `host_cpus >= 8`;
//!   the ratio is recorded in the JSON either way.
//! * **at most 1 retry per step at 2 threads, mixed-mutation** — workers on
//!   disjoint regions must not collide: a `ConcurrentCall` storm on the
//!   write path is a liveness bug. Only enforced at `host_cpus >= 2`, where
//!   the two workers truly overlap; the 2-thread/1-thread throughput ratio
//!   is recorded in the JSON next to it.
//! * **`--baseline PATH`** — single-thread FineGrained read-mostly
//!   throughput must not regress more than 2× against the committed JSON,
//!   normalized by each run's `calibration_hashes_per_second`.
//!
//! Each cell additionally records its **retry rate** (`ConcurrentCall`
//! retries per committed step) — the direct measure of write-path
//! contention the mutation-scaling work drives down.
//!
//! A mixed-mutation cell lasts tens of milliseconds, so one run of it swings
//! with whatever else the host does meanwhile. Each is therefore repeated
//! [`MIXED_REPEATS`] times on a fresh system: its throughput is the median
//! repeat's, and its retry rate is the retries summed over every repeat
//! divided by the steps summed likewise. The median drops one odd repeat; a
//! host state lasting seconds moves all five together, so on a shared VM
//! the 2T/1T ratio can still differ between runs (EXPERIMENTS.md, "Fig. 2
//! map: states only").
//!
//! Run with: `cargo run --release -p sanctorum-bench --bin scaling_stats`

use sanctorum_bench::{calibrate, extract_number};
use sanctorum_core::monitor::{LockingMode, SmConfig};
use sanctorum_explorer::concurrent::concurrent_machine_config;
use sanctorum_os::concurrent::{run_concurrent, ConcurrentConfig, ConcurrentStats, WorkloadProfile};
use sanctorum_os::system::{PlatformKind, System};
use std::time::Instant;

const MAX_REGRESSION_FACTOR: f64 = 2.0;
const CONTENTION_FLOOR: f64 = 2.0;
const SCALING_FLOOR: f64 = 2.0;
const MIXED_SCALING_FLOOR: f64 = 3.0;
/// Ceiling on `ConcurrentCall` retries per committed step in the
/// mixed-mutation FineGrained 2-thread cell.
const MIXED_RETRY_CEILING: f64 = 1.0;
/// Per-hart id-allocation batch for the fine-grained cells (the global-lock
/// cells keep the legacy batch of 1: the giant lock serializes allocation
/// anyway, and batch 1 is the configuration the determinism suite pins).
const FINE_ID_BATCH: usize = 16;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Fresh-system repeats per mixed-mutation cell (odd, so the median is one
/// repeat's figure).
const MIXED_REPEATS: usize = 5;

#[derive(Debug, Clone, Copy)]
struct Cell {
    workload: WorkloadProfile,
    locking: LockingMode,
    threads: usize,
    steps_per_second: f64,
    sm_calls_per_second: f64,
    retries: u64,
    /// `ConcurrentCall` retries per committed step (write-path contention).
    retry_rate: f64,
}

fn mode_name(mode: LockingMode) -> &'static str {
    match mode {
        LockingMode::FineGrained => "fine_grained",
        LockingMode::Global => "global_lock",
    }
}

/// Runs one cell `repeats` times, each on a fresh system so no warm caches
/// or leftover enclaves leak between runs or configurations.
fn run_cell(
    workload: WorkloadProfile,
    locking: LockingMode,
    threads: usize,
    repeats: usize,
    rounds: usize,
    ops_per_round: usize,
) -> Cell {
    let config = ConcurrentConfig {
        threads,
        rounds,
        ops_per_round,
        profile: workload,
        seed: 0x5ca1e,
    };
    let mut runs: Vec<(f64, f64)> = Vec::with_capacity(repeats);
    let mut total = ConcurrentStats::default();
    for _ in 0..repeats {
        let system = System::boot(
            PlatformKind::Sanctum,
            concurrent_machine_config(),
            SmConfig {
                locking,
                id_batch: match locking {
                    LockingMode::FineGrained => FINE_ID_BATCH,
                    LockingMode::Global => 1,
                },
                ..SmConfig::default()
            },
        );
        let start = Instant::now();
        let stats =
            run_concurrent(&system, &config, |_| Ok(())).expect("bench workload stays clean");
        let elapsed = start.elapsed().as_secs_f64();
        runs.push((stats.steps as f64 / elapsed, stats.sm_calls as f64 / elapsed));
        total.steps += stats.steps;
        total.retries += stats.retries;
    }
    runs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (steps_per_second, sm_calls_per_second) = runs[runs.len() / 2];
    Cell {
        workload,
        locking,
        threads,
        steps_per_second,
        sm_calls_per_second,
        retries: total.retries,
        retry_rate: total.retry_rate(),
    }
}

fn find(cells: &[Cell], workload: WorkloadProfile, locking: LockingMode, threads: usize) -> &Cell {
    cells
        .iter()
        .find(|c| c.workload == workload && c.locking == locking && c.threads == threads)
        .expect("cell measured")
}

fn main() {
    // Budgets are sized so one round far exceeds a host scheduler
    // timeslice: with short rounds the workers run back-to-back inside
    // single timeslices and never actually overlap, which silently measures
    // the *uncontended* lock.
    let mut rounds = 2usize;
    let mut read_ops = 2_000_000usize;
    let mut mixed_ops = 8_000usize;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rounds" => rounds = args.next().and_then(|v| v.parse().ok()).expect("--rounds N"),
            "--read-ops" => {
                read_ops = args.next().and_then(|v| v.parse().ok()).expect("--read-ops N")
            }
            "--mixed-ops" => {
                mixed_ops = args.next().and_then(|v| v.parse().ok()).expect("--mixed-ops N")
            }
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--baseline" => baseline = Some(args.next().expect("--baseline PATH")),
            other => panic!("unknown argument {other}"),
        }
    }

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let calibration = calibrate();

    println!("# scaling sweep (host_cpus = {host_cpus})");
    let mut cells: Vec<Cell> = Vec::new();
    for workload in [WorkloadProfile::ReadMostly, WorkloadProfile::MixedMutation] {
        let (ops, repeats) = match workload {
            WorkloadProfile::ReadMostly => (read_ops, 1),
            WorkloadProfile::MixedMutation => (mixed_ops, MIXED_REPEATS),
        };
        // The per-worker op budget shrinks as threads grow, so total work
        // (and wall time per cell) stays roughly constant across the sweep.
        for locking in [LockingMode::Global, LockingMode::FineGrained] {
            for threads in THREAD_COUNTS {
                let cell = run_cell(workload, locking, threads, repeats, rounds, ops / threads);
                println!(
                    "{:>14} {:>12} {} threads: {:>12.0} steps/s {:>12.0} calls/s \
                     ({} retries, {:.3} retries/step)",
                    workload.name(),
                    mode_name(locking),
                    threads,
                    cell.steps_per_second,
                    cell.sm_calls_per_second,
                    cell.retries,
                    cell.retry_rate
                );
                cells.push(cell);
            }
        }
    }

    let fine_1t = find(&cells, WorkloadProfile::ReadMostly, LockingMode::FineGrained, 1);
    let fine_4t = find(&cells, WorkloadProfile::ReadMostly, LockingMode::FineGrained, 4);
    let global_4t = find(&cells, WorkloadProfile::ReadMostly, LockingMode::Global, 4);
    let mixed_fine_1t = find(&cells, WorkloadProfile::MixedMutation, LockingMode::FineGrained, 1);
    let mixed_fine_2t = find(&cells, WorkloadProfile::MixedMutation, LockingMode::FineGrained, 2);
    let mixed_fine_8t = find(&cells, WorkloadProfile::MixedMutation, LockingMode::FineGrained, 8);
    let contention_ratio = fine_4t.steps_per_second / global_4t.steps_per_second;
    let scaling_ratio = fine_4t.steps_per_second / fine_1t.steps_per_second;
    let mixed_scaling_ratio = mixed_fine_8t.steps_per_second / mixed_fine_1t.steps_per_second;
    let mixed_2t_ratio = mixed_fine_2t.steps_per_second / mixed_fine_1t.steps_per_second;
    println!("\nfine/global at 4 threads (read-mostly): {contention_ratio:.2}x (floor {CONTENTION_FLOOR}x)");
    println!(
        "fine 4t/1t (read-mostly):               {scaling_ratio:.2}x (floor {SCALING_FLOOR}x, enforced at host_cpus >= 4)"
    );
    println!(
        "fine 8t/1t (mixed-mutation):            {mixed_scaling_ratio:.2}x (floor {MIXED_SCALING_FLOOR}x, enforced at host_cpus >= 8)"
    );
    println!(
        "fine 8t retry rate (mixed-mutation):    {:.3} retries/step",
        mixed_fine_8t.retry_rate
    );
    println!("fine 2t/1t (mixed-mutation):            {mixed_2t_ratio:.2}x");
    println!(
        "fine 2t retry rate (mixed-mutation):    {:.3} retries/step (ceiling {MIXED_RETRY_CEILING}, enforced at host_cpus >= 2)",
        mixed_fine_2t.retry_rate
    );

    if let Some(path) = &out {
        let mut results = String::new();
        for (index, cell) in cells.iter().enumerate() {
            let comma = if index + 1 == cells.len() { "" } else { "," };
            results.push_str(&format!(
                "    {{ \"workload\": \"{}\", \"locking\": \"{}\", \"threads\": {}, \
                 \"steps_per_second\": {:.1}, \"sm_calls_per_second\": {:.1}, \"retries\": {}, \
                 \"retry_rate\": {:.4} }}{comma}\n",
                cell.workload.name(),
                mode_name(cell.locking),
                cell.threads,
                cell.steps_per_second,
                cell.sm_calls_per_second,
                cell.retries,
                cell.retry_rate
            ));
        }
        let json = format!(
            r#"{{
  "bench": "scaling",
  "host_cpus": {host_cpus},
  "calibration_hashes_per_second": {calibration:.1},
  "config": {{ "rounds": {rounds}, "read_ops_total_per_worker_at_1t": {read_ops}, "mixed_ops_total_per_worker_at_1t": {mixed_ops}, "mixed_repeats": {MIXED_REPEATS} }},
  "single_thread_fine_read_mostly_steps_per_second": {:.1},
  "four_thread_fine_read_mostly_steps_per_second": {:.1},
  "four_thread_global_read_mostly_steps_per_second": {:.1},
  "fine_vs_global_4t_read_mostly_ratio": {contention_ratio:.2},
  "fine_4t_vs_1t_read_mostly_ratio": {scaling_ratio:.2},
  "fine_8t_vs_1t_mixed_mutation_ratio": {mixed_scaling_ratio:.2},
  "fine_8t_mixed_mutation_retry_rate": {:.4},
  "fine_2t_vs_1t_mixed_mutation_ratio": {mixed_2t_ratio:.2},
  "fine_2t_mixed_mutation_retry_rate": {:.4},
  "results": [
{results}  ]
}}
"#,
            fine_1t.steps_per_second,
            fine_4t.steps_per_second,
            global_4t.steps_per_second,
            mixed_fine_8t.retry_rate,
            mixed_fine_2t.retry_rate,
        );
        std::fs::write(path, json).expect("write result JSON");
        println!("wrote {path}");
    }

    if contention_ratio < CONTENTION_FLOOR {
        eprintln!(
            "FAIL: fine-grained is only {contention_ratio:.2}x the global lock at 4 threads \
             (floor {CONTENTION_FLOOR}x) on the read-mostly workload"
        );
        std::process::exit(3);
    }
    if host_cpus >= 4 && scaling_ratio < SCALING_FLOOR {
        eprintln!(
            "FAIL: fine-grained at 4 threads is only {scaling_ratio:.2}x its single-thread \
             throughput (floor {SCALING_FLOOR}x) despite {host_cpus} host CPUs"
        );
        std::process::exit(4);
    }
    if host_cpus >= 8 && mixed_scaling_ratio < MIXED_SCALING_FLOOR {
        eprintln!(
            "FAIL: mixed-mutation fine-grained at 8 threads is only {mixed_scaling_ratio:.2}x \
             its single-thread throughput (floor {MIXED_SCALING_FLOOR}x) despite {host_cpus} \
             host CPUs — the write path is serializing"
        );
        std::process::exit(5);
    }
    if host_cpus >= 2 && mixed_fine_2t.retry_rate > MIXED_RETRY_CEILING {
        eprintln!(
            "FAIL: mixed-mutation fine-grained at 2 threads retries {:.3} times per step \
             (ceiling {MIXED_RETRY_CEILING}) despite {host_cpus} host CPUs — workers on \
             disjoint regions are colliding",
            mixed_fine_2t.retry_rate
        );
        std::process::exit(6);
    }

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path).expect("read baseline JSON");
        let reference = extract_number(&text, "single_thread_fine_read_mostly_steps_per_second")
            .expect("baseline JSON has the single-thread fine-grained field");
        let reference_calibration =
            extract_number(&text, "calibration_hashes_per_second").unwrap_or(calibration);
        let normalized_current = fine_1t.steps_per_second / calibration;
        let normalized_reference = reference / reference_calibration;
        println!(
            "baseline {path}: {reference:.0} steps/sec at {reference_calibration:.0} hashes/sec \
             (normalized gate: {normalized_current:.2e} vs floor {:.2e})",
            normalized_reference / MAX_REGRESSION_FACTOR
        );
        if normalized_current * MAX_REGRESSION_FACTOR < normalized_reference {
            eprintln!(
                "FAIL: single-thread throughput regressed more than {MAX_REGRESSION_FACTOR}x \
                 (machine-normalized {normalized_current:.2e} vs baseline {normalized_reference:.2e})"
            );
            std::process::exit(2);
        }
    }
}
