//! Benchmark of the Sanctorum reproduction: one command, three workloads,
//! end-to-end numbers from untraced runs through the program's own entry
//! points and per-layer numbers from a separate traced run.
//!
//! * [`fleet`] — fleet attestation, closed loop, plus a seeded open-loop
//!   probe in traced runs (`FleetMachine::attest_round`).
//! * [`churn`] — monitor write-path churn (`os::concurrent::run_concurrent`,
//!   MixedMutation, FineGrained).
//! * [`explorer`] — the differential explorer sweep (`Explorer::sweep`), one
//!   fresh process per sweep so the process-wide memos start cold.
//! * [`speed`] — the host speed reference every timed figure is scaled by.
//!
//! The traced copies in each module re-issue the entry point's public calls
//! in the same order with spans around every layer boundary; the fidelity
//! tests in `tests/fidelity.rs` pin each copy to its entry point.

pub mod churn;
pub mod explorer;
pub mod fleet;
pub mod speed;
pub mod trace;

use std::fmt::Write as _;
use std::time::Duration;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one benchmark run attempted, how much failed, and what it measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (sessions, lifecycle steps, explorer ops).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Correctness findings; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Plain-text lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a correctness finding.
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// `true` when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value is reported as an error
    /// and printed as 0, since JSON has no spelling for it.
    pub fn to_json(&self) -> String {
        let non_finite: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.as_str())
            .collect();
        let correct = self.correct() && non_finite.is_empty();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (index, metric) in self.metrics.iter().enumerate() {
            let sep = if index == 0 { "" } else { ", " };
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Work done and latencies seen in one window of a timed phase.
#[derive(Debug, Clone)]
pub struct Window {
    /// Units of work completed (sessions filed, steps committed, ops applied).
    pub done: u64,
    /// Length of the window, seconds.
    pub seconds: f64,
    /// One latency sample per unit of the workload's latency, microseconds.
    pub latencies_us: Vec<f64>,
    /// How much slower than nominal the host ran around this window
    /// ([`speed::HostSpeed::sample`]); the reported figures divide it out.
    pub slowdown: f64,
}

impl Default for Window {
    fn default() -> Self {
        Self {
            done: 0,
            seconds: 0.0,
            latencies_us: Vec::new(),
            slowdown: 1.0,
        }
    }
}

/// A timed phase, cut into windows of about a second each (a fleet second,
/// a churn batch, an explorer sweep).
///
/// The end-to-end figures are medians over the windows, each scaled to
/// nominal host speed by its window's slowdown: on a shared host a burst of
/// contention from outside slows a few windows, and the median reports the
/// others; a slow phase of the host slows them all, and the scaling takes
/// it out.
#[derive(Debug, Default)]
pub struct Timed {
    /// The windows, in time order.
    pub windows: Vec<Window>,
}

impl Timed {
    /// Units of work completed over the whole phase.
    pub fn done(&self) -> u64 {
        self.windows.iter().map(|w| w.done).sum()
    }

    /// Median over the windows of units per second at nominal host speed.
    pub fn median_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .iter()
            .map(|w| w.done as f64 / w.seconds * w.slowdown)
            .collect();
        median(&rates)
    }

    /// Median over the windows of each window's latency percentile `p`, at
    /// nominal host speed.
    pub fn latency(&self, p: f64) -> f64 {
        let per_window: Vec<f64> = self
            .windows
            .iter()
            .filter(|w| !w.latencies_us.is_empty())
            .map(|w| {
                let mut sorted = w.latencies_us.clone();
                sorted.sort_by(f64::total_cmp);
                percentile(&sorted, p) / w.slowdown
            })
            .collect();
        median(&per_window)
    }

    /// Records the end-to-end triple: `throughput`, p50 and p99 latency,
    /// and notes each window's measured rate and slowdown.
    pub fn report(&self, report: &mut Report, throughput: f64) {
        let rates: Vec<String> = self
            .windows
            .iter()
            .map(|w| format!("{:.0}/{:.2}", w.done as f64 / w.seconds, w.slowdown))
            .collect();
        report
            .notes
            .push(format!("window rate/slowdown: {}", rates.join(" ")));
        report.metric("throughput_per_s", throughput, "ops/s");
        report.metric("latency_p50_us", self.latency(50.0), "us");
        report.metric("latency_p99_us", self.latency(99.0), "us");
    }
}

/// Nearest-rank percentile of sorted samples (0 for no samples).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of the samples (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Microseconds in a duration.
pub fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// SplitMix64 step: the benchmark's only source of seeded inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 32 seeded bytes.
pub fn seed_bytes(state: &mut u64) -> [u8; 32] {
    let mut out = [0u8; 32];
    for chunk in out.chunks_mut(8) {
        chunk.copy_from_slice(&splitmix(state).to_le_bytes());
    }
    out
}

/// CPUs this process may run on; every workload caps its load threads here.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// This process's resident-set high-water mark in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Directory the traced runs write their spans to: inside the build
/// directory, so a run writes nothing next to the sources.
pub fn spans_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into());
    std::path::PathBuf::from(target).join("perfbench-spans")
}

/// Fixed-input timings of the crypto primitives the fleet path uses, so a
/// change in `verifier.verify_us` or `signing.drain_us_per_request` can be
/// traced to the primitive underneath.
pub fn crypto_metrics(report: &mut Report) {
    use sanctorum_crypto::ed25519::Keypair;
    use sanctorum_crypto::sha3::Sha3_256;
    use sanctorum_crypto::x25519;
    use std::hint::black_box;
    use std::time::Instant;

    fn mean_us(iterations: u32, mut f: impl FnMut()) -> f64 {
        let start = Instant::now();
        for _ in 0..iterations {
            f();
        }
        us(start.elapsed()) / f64::from(iterations)
    }

    let keypair = Keypair::from_seed([0x5a; 32]);
    let message = [0x42u8; 128];
    let signature = keypair.sign(&message);
    let sign_us = mean_us(200, || {
        black_box(keypair.sign(black_box(&message)));
    });
    let mut verified = true;
    let verify_us = mean_us(200, || {
        verified &= black_box(keypair.public().verify(black_box(&message), &signature));
    });
    if !verified {
        report.error("ed25519 verify rejected a valid signature");
    }
    let secret = x25519::clamp_scalar([0x33; 32]);
    let peer = x25519::public_key(&x25519::clamp_scalar([0x44; 32]));
    let x25519_us = mean_us(200, || {
        black_box(x25519::shared_secret(black_box(&secret), &peer));
    });
    let page = [0xa5u8; 4096];
    let sha3_us = mean_us(2000, || {
        black_box(Sha3_256::digest(black_box(&page)));
    });
    report.metric("crypto.ed25519_sign_us", sign_us, "us");
    report.metric("crypto.ed25519_verify_us", verify_us, "us");
    report.metric("crypto.x25519_us", x25519_us, "us");
    report.metric("crypto.sha3_us", sha3_us, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_keys() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        report.metric("a", 1.5, "us");
        report.metric("b", 2.0, "count");
        assert_eq!(
            report.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
