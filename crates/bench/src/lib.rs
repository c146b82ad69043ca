//! Shared helpers for the benchmark harness and the workspace-level
//! integration tests and examples.
//!
//! Each benchmark target regenerates one figure or table of the paper's
//! evaluation; the mapping is documented in `DESIGN.md` (per-experiment
//! index) and the measured results are recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sanctorum_core::monitor::{LockingMode, SmConfig};
use sanctorum_enclave::image::EnclaveImage;
use sanctorum_machine::MachineConfig;
use sanctorum_os::ops::signing_enclave_measurement;
use sanctorum_os::os::{BuiltEnclave, Os};
use sanctorum_os::system::{PlatformKind, System};

/// Boots a small system plus OS model on the given platform.
pub fn boot(platform: PlatformKind) -> (System, Os) {
    let system = System::boot_small(platform);
    let os = Os::new(&system);
    (system, os)
}

/// Boots a system with an explicit locking mode (for the locking ablation).
pub fn boot_with_locking(platform: PlatformKind, locking: LockingMode) -> (System, Os) {
    let system = System::boot(
        platform,
        MachineConfig::small(),
        SmConfig {
            locking,
            ..SmConfig::default()
        },
    );
    let os = Os::new(&system);
    (system, os)
}

/// Boots a system, builds a hello enclave and returns everything needed to
/// schedule it.
pub fn boot_with_enclave(platform: PlatformKind) -> (System, Os, BuiltEnclave) {
    let (system, mut os) = boot(platform);
    let built = os
        .build_enclave(&EnclaveImage::hello(0x1234), 1)
        .expect("building the hello enclave succeeds");
    (system, os, built)
}

/// Boots a system where the signing enclave and an attestation-client enclave
/// are loaded and the monitor is configured to trust the signing enclave's
/// measurement. Returns `(system, os, client enclave, signing enclave)`.
pub fn boot_attestation_setup(
    platform: PlatformKind,
) -> (System, Os, BuiltEnclave, BuiltEnclave) {
    // The monitor has the signing enclave's measurement hard-coded.
    let system = System::boot(
        platform,
        MachineConfig::small(),
        SmConfig {
            signing_enclave_measurement: Some(signing_enclave_measurement()),
            ..SmConfig::default()
        },
    );
    let mut os = Os::new(&system);
    let signing = os
        .build_enclave(&EnclaveImage::signing_enclave(), 1)
        .expect("signing enclave builds");
    let client = os
        .build_enclave(&EnclaveImage::attestation_client(), 1)
        .expect("client enclave builds");
    (system, os, client, signing)
}

/// Boots a system sized for the attestation-service workload: the signing
/// enclave plus `clients` client enclaves (all running the attestation-client
/// image), with the monitor trusting the signing enclave's measurement.
/// Returns `(system, os, client enclaves, signing enclave)`.
pub fn boot_attestation_service(
    platform: PlatformKind,
    clients: usize,
) -> (System, Os, Vec<BuiltEnclave>, BuiltEnclave) {
    // A machine with enough half-megabyte regions for the fleet (clients +
    // signing + OS staging), and a PMP budget covering them all so both
    // backends behave identically.
    let config = MachineConfig {
        memory_size: 16 * 512 * 1024,
        dram_region_size: 512 * 1024,
        pmp_entries: 24,
        ..MachineConfig::small()
    };
    assert!(clients + 2 <= config.num_regions(), "too many clients for the geometry");
    let system = System::boot(
        platform,
        config,
        SmConfig {
            signing_enclave_measurement: Some(signing_enclave_measurement()),
            ..SmConfig::default()
        },
    );
    let mut os = Os::new(&system);
    let signing = os
        .build_enclave(&EnclaveImage::signing_enclave(), 1)
        .expect("signing enclave builds");
    let fleet = (0..clients)
        .map(|_| {
            os.build_enclave(&EnclaveImage::attestation_client(), 1)
                .expect("client enclave builds")
        })
        .collect();
    (system, os, fleet, signing)
}

/// Fixed pure-CPU workload (FNV-1a over a 4 KiB buffer) measuring this
/// machine's single-thread throughput in hashes/sec, so recorded
/// steps-per-second numbers can be compared across machines. Shared by the
/// stats bins' `--baseline` gates.
pub fn calibrate() -> f64 {
    let buffer = [0xa5u8; 4096];
    let rounds = 20_000u64;
    let start = std::time::Instant::now();
    let mut acc = 0u64;
    for round in 0..rounds {
        acc ^= sanctorum_hal::fnv::fnv1a(round ^ acc, &buffer);
    }
    std::hint::black_box(acc);
    rounds as f64 / start.elapsed().as_secs_f64()
}

/// Boots a multi-machine attestation fleet on the Sanctum backend with the
/// default fleet identity seeds — the shared entry point for the fleet
/// benchmark and the workspace-level fleet tests.
pub fn boot_fleet(machines: usize, clients_per_machine: usize) -> sanctorum_os::fleet::Fleet {
    sanctorum_os::fleet::Fleet::boot(&sanctorum_os::fleet::FleetConfig::new(
        machines,
        clients_per_machine,
    ))
}

/// Minimal `"key": number` extractor (the workspace's serde is a no-op
/// shim, so the bench gates parse their own output format by hand).
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = json.find(&needle)?;
    let rest = &json[at + needle.len()..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_number_reads_nested_keys() {
        let json = r#"{ "outer": { "steps_per_second": 123.5 }, "n": -2e3 }"#;
        assert_eq!(extract_number(json, "steps_per_second"), Some(123.5));
        assert_eq!(extract_number(json, "n"), Some(-2000.0));
        assert_eq!(extract_number(json, "missing"), None);
    }

    #[test]
    fn helpers_boot_all_configurations() {
        for platform in PlatformKind::ALL {
            let (_, os) = boot(platform);
            assert!(os.free_region_count() > 0);
        }
        let (_, _, built) = boot_with_enclave(PlatformKind::Sanctum);
        assert_eq!(built.threads.len(), 1);
        let (_, _, client, signing) = boot_attestation_setup(PlatformKind::Sanctum);
        assert_ne!(client.eid, signing.eid);
    }
}
