//! Sanctorum: a lightweight security monitor for secure enclaves.
//!
//! This crate is the heart of the reproduction of Lebedev et al.,
//! *"Sanctorum: A lightweight security monitor for secure enclaves"*
//! (DATE 2019). It implements the security monitor (SM) described in the
//! paper's Sections V and VI:
//!
//! * the machine-resource ownership state machine of Fig. 2 ([`resource`]);
//! * the enclave lifecycle of Fig. 3 and the enclave-thread lifecycle of
//!   Fig. 4 ([`enclave`], [`thread`], [`monitor`]);
//! * SHA-3 measurement of enclave initial state with the monotonic
//!   physical-order (no-aliasing) invariant of Section VI-A
//!   ([`measurement`]);
//! * SM-mediated mailboxes for local attestation, Figs. 5–6 ([`mailbox`]);
//! * secure boot and the attestation certificate chain / signing-enclave key
//!   release of Section VI-C and Fig. 7 ([`boot`], [`attestation`]);
//! * the event-dispatch flow of Fig. 1, including asynchronous enclave exits
//!   and batched calls ([`dispatch`]), and the unified call surface — the
//!   typed [`api::SmApi`] trait, the one-declaration call registry, and the
//!   register-level ABI ([`api`]) — authenticated through per-hart caller
//!   sessions ([`session`]);
//! * fine-grained locking with explicit concurrent-transaction failures
//!   (Section V-A) plus a global-lock build for the ablation study
//!   ([`monitor::LockingMode`]), backed by a documented lock hierarchy with
//!   a debug-build order checker ([`lockorder`]) and a resource map sharded
//!   for true multi-hart parallelism ([`resource::ShardedResourceMap`]), and
//!   per-hart batched id allocation ([`idalloc`]).
//!
//! The monitor is written against the platform traits of `sanctorum-hal`;
//! the `sanctorum-sanctum` and `sanctorum-keystone` crates bind it to the
//! two hardware models the paper targets (Section VII).
//!
//! # Examples
//!
//! Booting a monitor on the simulated machine requires a platform backend;
//! see the `sanctorum-sanctum` / `sanctorum-keystone` crates and the
//! workspace examples for complete end-to-end flows. Crate-local pieces can
//! be used directly:
//!
//! ```
//! use sanctorum_core::boot::secure_boot;
//! use sanctorum_core::measurement::MeasurementContext;
//! use sanctorum_hal::addr::VirtAddr;
//! use sanctorum_hal::root::SimulatedRootOfTrust;
//!
//! let identity = secure_boot(&SimulatedRootOfTrust::new(1), b"sm image");
//! let mut ctx = MeasurementContext::start(
//!     &identity.sm_measurement,
//!     VirtAddr::new(0x10000),
//!     0x4000,
//! );
//! ctx.extend_page(VirtAddr::new(0x10000), &[0u8; 4096]);
//! let measurement = ctx.finalize();
//! assert_eq!(measurement.as_bytes().len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod attestation;
pub mod boot;
pub mod dispatch;
pub mod enclave;
pub mod error;
pub mod idalloc;
pub mod lockorder;
pub mod mailbox;
pub mod measurement;
pub mod monitor;
pub mod resource;
pub mod session;
pub mod thread;

pub use api::{status, status_of, CallOutcome, SmApi, SmCall, MAX_BATCH_CALLS};
pub use attestation::{AttestationEvidence, AttestationReport, Certificate};
pub use boot::{secure_boot, SmIdentity};
pub use dispatch::EventOutcome;
pub use error::{SmError, SmResult};
pub use measurement::Measurement;
pub use monitor::{
    AuditSnapshot, EnclaveAudit, EnclaveEntry, LockingMode, PublicField, SecurityMonitor,
    SmConfig, TestWeakening,
};
pub use resource::{ResourceId, ResourceState};
pub use session::CallerSession;
pub use thread::{ThreadId, ThreadState};
