//! Crash-point sweep statistics — the fault-site coverage and sweep
//! throughput numbers EXPERIMENTS.md records, optionally emitted as
//! `BENCH_faultsweep.json` and gated against a committed baseline.
//!
//! The run is the acceptance sweep (`explorer::crash::sweep_all` over the
//! depth-6 lifecycle trace set on both platforms): every fault-point
//! crossing of every trace step gets one crash re-run through the full
//! invariant kernel plus `recover()`, and every distinct site crossed
//! gets one persistent-fault run through the quarantine path. The gates:
//! any violation exits 1 (with the replayable counterexample on stdout),
//! as does a compiled-in fault site the trace set never crosses — untested
//! crash surface is a coverage failure, not a statistic. Against a
//! baseline, a per-site crossing count that differs from the baseline's
//! `site_inventory` exits 3 — a change that opens or closes a crash window
//! must regenerate the baseline with `--out`, so the new inventory shows up
//! in its diff — and a machine-normalized sweeps/sec regression beyond 2×
//! exits 2.
//!
//! Usage:
//!
//! ```text
//! faultsweep_stats [--out PATH] [--baseline PATH]
//! ```
//!
//! Run with: `cargo run --release -p sanctorum-bench --bin faultsweep_stats`

use sanctorum_bench::{calibrate, extract_number};
use sanctorum_explorer::crash::{crash_machine_config, lifecycle_traces, sweep_all};
use sanctorum_machine::fault::ALL_SITES;
use std::collections::{BTreeMap, BTreeSet};

/// Throughput regression tolerance for the `--baseline` gate (matches the
/// other bench gates: CI machines are noisy, a 2× cliff is a regression).
const MAX_REGRESSION_FACTOR: f64 = 2.0;

fn main() {
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().expect("--out PATH")),
            "--baseline" => baseline = Some(args.next().expect("--baseline PATH")),
            other => panic!("unknown argument {other:?}"),
        }
    }

    let calibration = calibrate();
    let traces = lifecycle_traces();
    let start = std::time::Instant::now();
    let report = sweep_all(&crash_machine_config(), None, &traces);
    let wall = start.elapsed();
    let sweeps = report.crash_sweeps + report.fault_runs;
    let sweeps_per_second = sweeps as f64 / wall.as_secs_f64().max(1e-9);

    let uncovered: Vec<&&str> = ALL_SITES
        .iter()
        .filter(|site| !report.site_inventory.contains_key(*site))
        .collect();
    let undeclared: Vec<&&str> = report
        .site_inventory
        .keys()
        .filter(|site| !ALL_SITES.contains(site))
        .collect();

    println!("# crash-point sweep (lifecycle trace set, both platforms)");
    println!("traces swept:     {}", report.traces);
    println!("fault sites:      {} of {} declared", report.site_inventory.len(), ALL_SITES.len());
    println!("crossings:        {}", report.crossings);
    println!("crash re-runs:    {}", report.crash_sweeps);
    println!("fault runs:       {}", report.fault_runs);
    println!("violations:       {}", report.violations.len());
    println!("wall clock:       {wall:.2?}");
    println!("sweeps/sec:       {sweeps_per_second:.1}");
    println!("calibration:      {calibration:.0} hashes/sec");
    println!("\n# per-site crossings");
    for (site, count) in &report.site_inventory {
        println!("{site:<28} {count}");
    }

    for counterexample in &report.violations {
        println!("\nVIOLATION: {counterexample}");
    }
    if !uncovered.is_empty() {
        println!("\nUNCOVERED SITES (declared but never crossed): {uncovered:?}");
    }
    if !undeclared.is_empty() {
        println!("\nUNDECLARED SITES (crossed but not in the inventory): {undeclared:?}");
    }

    if let Some(path) = &out {
        let json = render_json(&report, wall.as_secs_f64(), sweeps_per_second, calibration);
        std::fs::write(path, json).expect("write result JSON");
        println!("\nwrote {path}");
    }

    if !report.clean() || !uncovered.is_empty() || !undeclared.is_empty() {
        eprintln!("FAIL: the sweep must cover every declared site and find no violations");
        std::process::exit(1);
    }

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path).expect("read baseline JSON");
        let committed =
            parse_site_inventory(&text).expect("baseline JSON has a site_inventory object");
        let current: BTreeMap<String, u64> = report
            .site_inventory
            .iter()
            .map(|(site, count)| (site.to_string(), *count))
            .collect();
        if current != committed {
            let sites: BTreeSet<&String> = committed.keys().chain(current.keys()).collect();
            for site in sites {
                let (was, now) = (committed.get(site), current.get(site));
                if was != now {
                    eprintln!("site {site}: baseline {was:?} crossings, now {now:?}");
                }
            }
            eprintln!(
                "FAIL: the crash-window inventory differs from {path}; regenerate it with --out \
                 if the change is intended"
            );
            std::process::exit(3);
        }
        println!("baseline {path}: site inventory identical ({} crossings)", report.crossings);
        let reference = extract_number(&text, "sweeps_per_second")
            .expect("baseline JSON has a sweeps_per_second field");
        let reference_calibration =
            extract_number(&text, "calibration_hashes_per_second").unwrap_or(calibration);
        let normalized_current = sweeps_per_second / calibration;
        let normalized_reference = reference / reference_calibration;
        println!(
            "baseline {path}: {reference:.0} sweeps/sec at {reference_calibration:.0} hashes/sec \
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

/// Reads the `"site_inventory"` object of a result JSON written by
/// [`render_json`] (one `"site": count` pair per entry).
fn parse_site_inventory(json: &str) -> Option<BTreeMap<String, u64>> {
    let key = json.find("\"site_inventory\"")?;
    let open = key + json[key..].find('{')?;
    let close = open + json[open..].find('}')?;
    json[open + 1..close]
        .split(',')
        .filter(|entry| !entry.trim().is_empty())
        .map(|entry| {
            let (site, count) = entry.split_once(':')?;
            let site = site.trim().trim_matches('"').to_string();
            Some((site, count.trim().parse().ok()?))
        })
        .collect()
}

fn render_json(
    report: &sanctorum_explorer::crash::CrashSweepReport,
    wall_clock_seconds: f64,
    sweeps_per_second: f64,
    calibration: f64,
) -> String {
    let sites = report
        .site_inventory
        .iter()
        .map(|(site, count)| format!("    \"{site}\": {count}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        r#"{{
  "bench": "crash_point_sweep",
  "config": {{
    "traces": {traces},
    "platforms": 2,
    "declared_sites": {declared}
  }},
  "fault_points_covered": {covered},
  "crossings": {crossings},
  "crash_sweeps": {crash_sweeps},
  "fault_runs": {fault_runs},
  "site_inventory": {{
{sites}
  }},
  "wall_clock_seconds": {wall_clock_seconds:.3},
  "sweeps_per_second": {sweeps_per_second:.1},
  "calibration_hashes_per_second": {calibration:.1},
  "violations": {violations}
}}
"#,
        traces = report.traces / 2,
        declared = ALL_SITES.len(),
        covered = report.site_inventory.len(),
        crossings = report.crossings,
        crash_sweeps = report.crash_sweeps,
        fault_runs = report.fault_runs,
        violations = report.violations.len(),
    )
}
