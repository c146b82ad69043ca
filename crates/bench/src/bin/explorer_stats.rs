//! Explorer statistics and throughput benchmark — the coverage and
//! `steps/sec` numbers EXPERIMENTS.md records for the adversarial explorer
//! (seeds × steps × both backends, op mix, violations, declared divergences,
//! wall-clock), optionally emitted as `BENCH_explorer.json` and gated
//! against a committed baseline.
//!
//! Usage:
//!
//! ```text
//! explorer_stats [SEEDS] [--steps N] [--out PATH] [--baseline PATH]
//! ```
//!
//! * `SEEDS` — number of seeds to sweep (default 100).
//! * `--steps N` — ops per seed (default 200).
//! * `--out PATH` — write the machine-readable result JSON to `PATH` (see
//!   EXPERIMENTS.md, "Perf trajectory", for the schema).
//! * `--baseline PATH` — read a previously committed result JSON and exit
//!   non-zero if throughput regressed more than 2× against its
//!   `steps_per_second` (the CI bench-smoke gate). The comparison is
//!   normalized by each run's `calibration_hashes_per_second` — a fixed
//!   pure-CPU workload measured in-process — so a baseline recorded on a
//!   fast workstation does not fail an honest run on a slower CI runner.
//!
//! Run with: `cargo run --release -p sanctorum-bench --bin explorer_stats`

use sanctorum_bench::{calibrate, extract_number};
use sanctorum_explorer::{Explorer, ExplorerConfig};
use std::time::Instant;

/// Throughput regression tolerance for the `--baseline` gate: fail only when
/// the current run is more than this factor slower than the baseline (CI
/// machines are noisy; a 2× cliff is a real regression, not jitter).
const MAX_REGRESSION_FACTOR: f64 = 2.0;

fn main() {
    let mut seeds: u64 = 100;
    let mut steps: usize = 200;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--steps" => steps = args.next().and_then(|v| v.parse().ok()).expect("--steps N"),
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--baseline" => baseline = Some(args.next().expect("--baseline PATH")),
            other => seeds = other.parse().expect("SEEDS must be a number"),
        }
    }

    let config = ExplorerConfig {
        steps,
        ..ExplorerConfig::default()
    };
    let harts = config.harts;
    let explorer = Explorer::new(config);

    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let calibration = calibrate();
    let start = Instant::now();
    let stats = explorer.sweep(0..seeds);
    let elapsed = start.elapsed();
    let steps_per_second = stats.total_steps as f64 / elapsed.as_secs_f64();

    println!("# explorer sweep");
    println!("seeds:                 {}", stats.seeds);
    println!("steps per seed:        {steps}");
    println!("backends per step:     2 (sanctum + keystone, lockstep)");
    println!("total ops applied:     {} per backend", stats.total_steps);
    println!("declared divergences:  {}", stats.declared_divergences);
    println!("violations:            {}", stats.failures.len());
    println!("wall clock:            {:.2?}", elapsed);
    println!("steps/sec per backend: {steps_per_second:.0}");
    println!("calibration:           {calibration:.0} hashes/sec");
    println!("host cpus:             {host_cpus}");
    println!("\n## op mix");
    for (label, count) in &stats.op_counts {
        println!("{label:>16}: {count}");
    }
    for failure in &stats.failures {
        println!("\n{failure}");
    }

    if let Some(path) = &out {
        let json = render_json(
            seeds,
            steps,
            harts,
            stats.total_steps,
            elapsed.as_secs_f64(),
            steps_per_second,
            calibration,
            host_cpus,
            stats.failures.len(),
            stats.declared_divergences,
        );
        std::fs::write(path, json).expect("write result JSON");
        println!("\nwrote {path}");
    }

    if !stats.failures.is_empty() {
        std::process::exit(1);
    }

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path).expect("read baseline JSON");
        let reference = extract_number(&text, "steps_per_second")
            .expect("baseline JSON has a steps_per_second field");
        // Normalize both sides by their machine's calibration so the gate
        // measures the code, not the runner. Older baselines without the
        // field fall back to an absolute comparison.
        let reference_calibration =
            extract_number(&text, "calibration_hashes_per_second").unwrap_or(calibration);
        let normalized_current = steps_per_second / calibration;
        let normalized_reference = reference / reference_calibration;
        println!(
            "baseline {path}: {reference:.0} steps/sec at {reference_calibration:.0} hashes/sec \
             (normalized gate: {normalized_current:.2e} vs floor {:.2e})",
            normalized_reference / MAX_REGRESSION_FACTOR
        );
        if normalized_current * MAX_REGRESSION_FACTOR < normalized_reference {
            eprintln!(
                "FAIL: throughput regressed more than {MAX_REGRESSION_FACTOR}x \
                 (machine-normalized {normalized_current:.2e} vs baseline {normalized_reference:.2e})"
            );
            std::process::exit(2);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    seeds: u64,
    steps: usize,
    harts: u32,
    total_steps: usize,
    wall_clock_seconds: f64,
    steps_per_second: f64,
    calibration: f64,
    host_cpus: usize,
    violations: usize,
    declared_divergences: usize,
) -> String {
    // The baseline block records the pre-optimization measurement (PR 2
    // seed: O(world) audit clones + full rescans per step) on the same
    // 100×200 configuration, so the perf trajectory survives in-repo.
    format!(
        r#"{{
  "bench": "explorer_throughput",
  "config": {{
    "seeds": {seeds},
    "steps_per_seed": {steps},
    "harts": {harts},
    "backends_per_step": 2
  }},
  "total_steps_per_backend": {total_steps},
  "wall_clock_seconds": {wall_clock_seconds:.3},
  "steps_per_second": {steps_per_second:.1},
  "calibration_hashes_per_second": {calibration:.1},
  "host_cpus": {host_cpus},
  "violations": {violations},
  "declared_divergences": {declared_divergences},
  "baseline_before_indexing": {{
    "description": "PR 2 seed: per-step O(world) audit rebuild, uncached secure boot, full-DRAM digest",
    "config": {{ "seeds": 100, "steps_per_seed": 200 }},
    "wall_clock_seconds": 10.29,
    "steps_per_second": 1944.0
  }}
}}
"#
    )
}

