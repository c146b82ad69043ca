//! Enclave-thread metadata and lifecycle (paper Section V-C, Fig. 4).

use crate::error::{SmError, SmResult};
use sanctorum_hal::domain::{CoreId, EnclaveId};
use sanctorum_machine::hart::HartSnapshot;

/// A thread identifier. The paper uses the physical address of the thread's
/// metadata structure; the reproduction allocates dense ids in SM metadata
/// space, which serve the same role as opaque capabilities.
pub type ThreadId = u64;

/// Run/assignment state of a thread (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// Created but not currently bound to an enclave; may be re-assigned.
    Available,
    /// Assigned to an enclave, awaiting the enclave's `accept_thread`.
    Assigned {
        /// The owning enclave.
        enclave: EnclaveId,
        /// Whether the enclave has accepted the assignment (threads created
        /// by `load_thread` during enclave loading are accepted implicitly).
        accepted: bool,
    },
    /// Currently executing on a core.
    Running {
        /// The owning enclave.
        enclave: EnclaveId,
        /// The core it occupies.
        core: CoreId,
    },
}

/// Per-thread metadata held in SM-owned memory.
#[derive(Debug, Clone)]
pub struct ThreadMeta {
    /// The thread's identifier.
    pub tid: ThreadId,
    /// Current state.
    pub state: ThreadState,
    /// Program counter at which `enter_enclave` starts or re-starts the
    /// thread.
    pub entry_pc: u64,
    /// Optional enclave fault-handler entry point.
    pub fault_handler_pc: Option<u64>,
    /// Saved core state from the last asynchronous enclave exit, if any.
    pub aex_state: Option<HartSnapshot>,
    /// Set when an AEX occurred since the last entry; the enclave may inspect
    /// it (via its entry protocol) to decide whether to resume.
    pub aex_pending: bool,
}

impl ThreadMeta {
    /// Creates a thread already assigned (and accepted) to `enclave` — the
    /// `load_thread` path used while the enclave is loading.
    pub fn loaded(tid: ThreadId, enclave: EnclaveId, entry_pc: u64, fault_handler_pc: Option<u64>) -> Self {
        Self {
            tid,
            state: ThreadState::Assigned {
                enclave,
                accepted: true,
            },
            entry_pc,
            fault_handler_pc,
            aex_state: None,
            aex_pending: false,
        }
    }

    /// Creates an unassigned thread (dynamic `create_thread` path).
    pub fn available(tid: ThreadId, entry_pc: u64) -> Self {
        Self {
            tid,
            state: ThreadState::Available,
            entry_pc,
            fault_handler_pc: None,
            aex_state: None,
            aex_pending: false,
        }
    }

    /// Returns the owning enclave, if assigned or running.
    pub fn owner(&self) -> Option<EnclaveId> {
        match self.state {
            ThreadState::Assigned { enclave, .. } | ThreadState::Running { enclave, .. } => {
                Some(enclave)
            }
            ThreadState::Available => None,
        }
    }

    /// `assign_thread(eid, tid)` by the OS: binds an available thread to an
    /// enclave, pending the enclave's acceptance.
    ///
    /// # Errors
    ///
    /// Fails unless the thread is available.
    pub fn assign(&mut self, enclave: EnclaveId) -> SmResult<()> {
        match self.state {
            ThreadState::Available => {
                self.state = ThreadState::Assigned {
                    enclave,
                    accepted: false,
                };
                Ok(())
            }
            _ => Err(SmError::InvalidState {
                reason: "thread is not available for assignment",
            }),
        }
    }

    /// `accept_thread(tid)` by the owning enclave.
    ///
    /// # Errors
    ///
    /// Fails unless the thread is assigned to `caller` and not yet accepted.
    pub fn accept(&mut self, caller: EnclaveId) -> SmResult<()> {
        match self.state {
            ThreadState::Assigned { enclave, accepted: false } if enclave == caller => {
                self.state = ThreadState::Assigned {
                    enclave,
                    accepted: true,
                };
                Ok(())
            }
            ThreadState::Assigned { enclave, .. } if enclave != caller => Err(SmError::Unauthorized),
            _ => Err(SmError::InvalidState {
                reason: "thread is not awaiting acceptance",
            }),
        }
    }

    /// `release_thread(tid)` by the owning enclave: gives the thread back
    /// (the SM clears its saved state before making it available).
    ///
    /// # Errors
    ///
    /// Fails if the thread is running or not owned by `caller`.
    pub fn release(&mut self, caller: EnclaveId) -> SmResult<()> {
        match self.state {
            ThreadState::Assigned { enclave, .. } if enclave == caller => {
                self.clear_sensitive_state();
                self.state = ThreadState::Available;
                Ok(())
            }
            ThreadState::Running { .. } => Err(SmError::InvalidState {
                reason: "cannot release a running thread",
            }),
            _ => Err(SmError::Unauthorized),
        }
    }

    /// Transition to `Running` on `core` (performed by `enter_enclave`).
    ///
    /// # Errors
    ///
    /// Fails unless the thread is assigned-and-accepted to `enclave`.
    pub fn start_running(&mut self, enclave: EnclaveId, core: CoreId) -> SmResult<()> {
        match self.state {
            ThreadState::Assigned { enclave: owner, accepted: true } if owner == enclave => {
                self.state = ThreadState::Running { enclave, core };
                Ok(())
            }
            ThreadState::Assigned { accepted: false, .. } => Err(SmError::InvalidState {
                reason: "thread not yet accepted by the enclave",
            }),
            ThreadState::Running { .. } => Err(SmError::InvalidState {
                reason: "thread is already running",
            }),
            _ => Err(SmError::InvalidState {
                reason: "thread is not assigned to this enclave",
            }),
        }
    }

    /// Transition back to `Assigned` (normal `exit_enclave` or AEX).
    ///
    /// # Errors
    ///
    /// Fails unless the thread is running.
    pub fn stop_running(&mut self) -> SmResult<(EnclaveId, CoreId)> {
        match self.state {
            ThreadState::Running { enclave, core } => {
                self.state = ThreadState::Assigned {
                    enclave,
                    accepted: true,
                };
                Ok((enclave, core))
            }
            _ => Err(SmError::InvalidState {
                reason: "thread is not running",
            }),
        }
    }

    fn clear_sensitive_state(&mut self) {
        self.aex_state = None;
        self.aex_pending = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E1: EnclaveId = EnclaveId::new(0x8010_0000);
    const E2: EnclaveId = EnclaveId::new(0x8020_0000);

    #[test]
    fn loaded_thread_is_accepted_and_enterable() {
        let mut t = ThreadMeta::loaded(1, E1, 0x100, None);
        assert_eq!(t.owner(), Some(E1));
        t.start_running(E1, CoreId::new(0)).unwrap();
        assert!(matches!(t.state, ThreadState::Running { .. }));
        let (owner, core) = t.stop_running().unwrap();
        assert_eq!(owner, E1);
        assert_eq!(core, CoreId::new(0));
        assert!(matches!(t.state, ThreadState::Assigned { accepted: true, .. }));
    }

    #[test]
    fn dynamic_assignment_requires_acceptance() {
        let mut t = ThreadMeta::available(2, 0x200);
        assert_eq!(t.owner(), None);
        t.assign(E1).unwrap();
        // Cannot enter before the enclave accepts.
        assert!(matches!(
            t.start_running(E1, CoreId::new(0)),
            Err(SmError::InvalidState { .. })
        ));
        // The wrong enclave cannot accept it.
        assert_eq!(t.accept(E2), Err(SmError::Unauthorized));
        t.accept(E1).unwrap();
        t.start_running(E1, CoreId::new(1)).unwrap();
    }

    #[test]
    fn wrong_enclave_cannot_enter() {
        let mut t = ThreadMeta::loaded(3, E1, 0, None);
        assert!(matches!(
            t.start_running(E2, CoreId::new(0)),
            Err(SmError::InvalidState { .. })
        ));
    }

    #[test]
    fn release_and_reassign() {
        let mut t = ThreadMeta::loaded(4, E1, 0, None);
        t.aex_pending = true;
        t.release(E1).unwrap();
        assert_eq!(t.state, ThreadState::Available);
        assert!(!t.aex_pending, "sensitive state cleared on release");
        // Re-assign to a different enclave.
        t.assign(E2).unwrap();
        t.accept(E2).unwrap();
        t.start_running(E2, CoreId::new(0)).unwrap();
    }

    #[test]
    fn release_by_non_owner_rejected() {
        let mut t = ThreadMeta::loaded(5, E1, 0, None);
        assert_eq!(t.release(E2), Err(SmError::Unauthorized));
    }

    #[test]
    fn running_thread_cannot_be_unassigned_or_released() {
        let mut t = ThreadMeta::loaded(6, E1, 0, None);
        t.start_running(E1, CoreId::new(0)).unwrap();
        assert!(matches!(t.release(E1), Err(SmError::InvalidState { .. })));
        assert!(matches!(
            t.start_running(E1, CoreId::new(1)),
            Err(SmError::InvalidState { .. })
        ));
    }

    #[test]
    fn stop_running_requires_running() {
        let mut t = ThreadMeta::loaded(7, E1, 0, None);
        assert!(matches!(t.stop_running(), Err(SmError::InvalidState { .. })));
    }
}
