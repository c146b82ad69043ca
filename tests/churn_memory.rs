//! Memory stays flat under sustained enclave churn on a monitor nobody
//! audits.
//!
//! `run_concurrent` with the MixedMutation profile builds, runs and tears
//! down enclaves continuously and never calls `audit()` or `recover()`, so
//! any per-mutation state the monitor only reclaims at those points grows
//! without bound here. The test boots one monitor, runs 160 000
//! single-thread churn steps, and bounds the growth of the process's
//! resident set.
//!
//! This file holds a single test so that it is its own test binary: no
//! test running in parallel can move its RSS.

use sanctorum_core::monitor::SmConfig;
use sanctorum_explorer::concurrent::concurrent_machine_config;
use sanctorum_os::concurrent::{run_concurrent, ConcurrentConfig, WorkloadProfile};
use sanctorum_os::system::{PlatformKind, System};

/// RSS growth allowed over the run. A flat monitor grows by allocator
/// slack only (single-digit MB); one that keeps a copy of its enclave or
/// thread table per mutation grows by over 100 MB.
const MAX_GROWTH_MB: f64 = 32.0;

/// The process's resident set in MB, from `/proc/self/status` (`None` on
/// hosts without procfs).
fn rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmRSS:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
fn sustained_churn_without_audits_keeps_rss_flat() {
    let system = System::boot(
        PlatformKind::Sanctum,
        concurrent_machine_config(),
        SmConfig::default(),
    );
    let Some(before) = rss_mb() else {
        return;
    };
    let config = ConcurrentConfig {
        threads: 1,
        rounds: 8,
        ops_per_round: 20_000,
        profile: WorkloadProfile::MixedMutation,
        seed: 0x5eed,
    };
    let stats = run_concurrent(&system, &config, |_| Ok(())).expect("churn run completes");
    assert_eq!(stats.steps, 8 * 20_000, "every planned step commits");
    let after = rss_mb().expect("procfs was readable a moment ago");
    let growth = after - before;
    assert!(
        growth < MAX_GROWTH_MB,
        "RSS grew {growth:.1} MB ({before:.1} -> {after:.1} MB) over {} churn steps",
        stats.steps
    );
}
