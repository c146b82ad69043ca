//! Lock-ordering infrastructure for the monitor's fine-grained locking.
//!
//! The monitor holds several locks at once on some paths (an enclave's
//! metadata plus a thread record plus the occupancy table, say), so a total
//! acquisition order is what keeps `LockingMode::Global`'s blocking locks
//! deadlock-free and keeps the `FineGrained` try-lock discipline livelock
//! free (two multi-shard transactions always contend in the same direction,
//! so one of them wins). The order is a numeric [`LockRank`] per lock:
//!
//! | rank | lock |
//! |------|------|
//! | 0    | `global_lock` (the Global-mode giant lock) |
//! | 5    | audit cache |
//! | 10+k | resource shard *k* (shards acquired in ascending *k*) |
//! | 30   | enclave table |
//! | 40   | one `EnclaveMeta` |
//! | 50   | thread table |
//! | 55   | one per-hart id-cache slot |
//! | 56   | the shared id pool |
//! | 60   | one `ThreadMeta` |
//! | 70   | core-occupancy table |
//! | 80   | mail quota ledger |
//! | 90   | isolation backend |
//! | 93   | region quarantine set |
//! | 96   | mutation journal |
//! | 100  | model checker's visited-state set |
//! | 110  | verifier challenges (DRBG, outstanding map, issue queue) |
//! | 114  | verifier trust snapshot, `RwLock<Arc<_>>` (roots / measurements / revocation / chain cache) |
//! | 120  | verifier session pool |
//!
//! The verifier tier (ranks 110+) sits entirely above the monitor: a
//! verifier thread may call into a monitor-backed world while holding *no*
//! verifier lock (challenges are drawn and filed before any fabric
//! traffic), and the monitor never calls into the verifier, so the two
//! domains only compose in one direction.
//!
//! **Rule: a lock may only be acquired while every currently held lock has a
//! strictly lower rank.** (Machine-internal locks — DRAM, harts, TLBs — sit
//! below the monitor entirely: the machine never calls back into the
//! monitor, so they are leaves and are not tracked here.)
//!
//! In debug builds every [`OrderedMutex`] / [`OrderedRwLock`] acquisition is
//! checked against a thread-local stack of held ranks and **panics** on a
//! violation, so the whole test suite (and every explorer sweep) doubles as
//! a lock-hierarchy model checker. Release builds compile the checker to
//! nothing.

use parking_lot::{
    Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::ops::{Deref, DerefMut};

/// Position of one lock in the monitor's total acquisition order. Lower
/// ranks are acquired first; see the module docs for the full table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockRank(pub u16);

/// The monitor's lock hierarchy, as named constants (see the module table).
pub mod rank {
    use super::LockRank;

    /// The Global-mode giant lock — always the first lock taken.
    pub const GLOBAL_CALL: LockRank = LockRank(0);
    /// The incremental-audit cache.
    pub const AUDIT_CACHE: LockRank = LockRank(5);
    /// Base rank of the resource shards; shard `k` has rank `10 + k`, so
    /// multi-shard transactions acquire shards in ascending index order.
    pub const RESOURCE_SHARD_BASE: u16 = 10;
    /// The enclave table (id → metadata handle).
    pub const ENCLAVE_TABLE: LockRank = LockRank(30);
    /// One enclave's metadata record.
    pub const ENCLAVE_META: LockRank = LockRank(40);
    /// The thread table (id → metadata handle).
    pub const THREAD_TABLE: LockRank = LockRank(50);
    /// One per-hart id-cache slot of the thread-id allocator. Only one slot
    /// is ever held at a time, and a refill then takes the pool above it.
    pub const ID_SLOT: LockRank = LockRank(55);
    /// The shared id pool the per-hart caches refill from (acquired with a
    /// slot lock held, hence strictly above `ID_SLOT`).
    pub const ID_POOL: LockRank = LockRank(56);
    /// One thread's metadata record.
    pub const THREAD_META: LockRank = LockRank(60);
    /// The core-occupancy table.
    pub const OCCUPANCY: LockRank = LockRank(70);
    /// The mail-fabric quota ledger.
    pub const MAIL_LEDGER: LockRank = LockRank(80);
    /// The isolation backend (PMP / region-table mutation).
    pub const BACKEND: LockRank = LockRank(90);
    /// The region quarantine set (persistently faulted regions). Above the
    /// backend: a failed backend operation quarantines its region while the
    /// backend guard is still held.
    pub const QUARANTINE: LockRank = LockRank(93);
    /// The mutation journal. Above every state lock: intent entries are
    /// recorded before any state lock is taken, and completed while shard,
    /// backend or quarantine guards may still be held.
    pub const JOURNAL: LockRank = LockRank(96);
    /// The model checker's shared visited-state set. Above every monitor
    /// rank: worker threads consult it strictly after all monitor locks for
    /// the expanded state have been released.
    pub const MODEL_VISITED: LockRank = LockRank(100);
    /// The remote verifier's challenges: the DRBG, the outstanding map and
    /// its issue-order queue. `begin` draws the nonce and DH secret and
    /// files the challenge under this one lock, which keeps the nonce
    /// *sequence* for a given seed independent of the thread count.
    pub const VERIFIER_CHALLENGES: LockRank = LockRank(110);
    /// The verifier's trust snapshot (manufacturer roots, trusted
    /// measurements, revocation list, validated-chain cache), an
    /// `RwLock<Arc<_>>`. Every evidence check clones the `Arc` under a read
    /// guard; every change rebuilds the snapshot under the write guard.
    pub const VERIFIER_TRUST: LockRank = LockRank(114);
    /// A verifier-side session pool. Above the whole verify path: a session
    /// is filed strictly after the challenges and the trust snapshot have
    /// been consulted and released.
    pub const VERIFIER_SESSIONS: LockRank = LockRank(120);
}

#[cfg(debug_assertions)]
mod checker {
    use super::LockRank;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockRank>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII token recording one held rank on the current thread's stack.
    #[derive(Debug)]
    pub struct RankToken {
        rank: LockRank,
    }

    pub fn acquire(rank: LockRank) -> RankToken {
        // A violation must be reported *outside* the thread-local borrow:
        // the panic unwinds through `RankToken` drops that need the cell
        // again, and panicking with the borrow (or a poisoned cell) live
        // would turn one bug report into a double panic and abort the
        // process. `try_with`/`try_borrow_mut` degrade to an unchecked
        // acquisition during thread teardown instead of panicking there.
        let conflict = HELD.try_with(|held| {
            let Ok(mut held) = held.try_borrow_mut() else {
                return None;
            };
            if let Some(top) = held.iter().max().copied() {
                if rank <= top {
                    return Some(held.clone());
                }
            }
            held.push(rank);
            None
        });
        if let Ok(Some(held)) = conflict {
            panic!(
                "lock-order violation: acquiring rank {rank:?} while holding {held:?} \
                 (locks must be acquired in strictly ascending rank)",
            );
        }
        RankToken { rank }
    }

    impl Drop for RankToken {
        fn drop(&mut self) {
            // Runs while a panicking holder unwinds (injected crashes drop
            // their guards mid-call) and during thread teardown; neither
            // may panic again, so cell failures degrade to leaving the
            // entry behind rather than aborting the process.
            let _ = HELD.try_with(|held| {
                if let Ok(mut held) = held.try_borrow_mut() {
                    // Guards may be dropped out of acquisition order (a
                    // narrow backend critical section released while a
                    // shard guard lives on), so remove the matching rank,
                    // not the top.
                    if let Some(position) = held.iter().rposition(|r| *r == self.rank) {
                        held.remove(position);
                    }
                }
            });
        }
    }
}

#[cfg(not(debug_assertions))]
mod checker {
    use super::LockRank;

    /// Release builds: the token is zero-sized and acquisition is free.
    #[derive(Debug)]
    pub struct RankToken;

    #[inline(always)]
    pub fn acquire(_rank: LockRank) -> RankToken {
        RankToken
    }
}

use checker::RankToken;

/// A [`parking_lot::Mutex`] that participates in the monitor's lock order:
/// every acquisition (blocking *and* try) is checked against the thread's
/// currently held ranks in debug builds.
#[derive(Debug)]
pub struct OrderedMutex<T: ?Sized> {
    rank: LockRank,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Creates a mutex at the given rank.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: Mutex::new(value),
        }
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// This lock's position in the hierarchy.
    pub const fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires the lock, blocking. Panics (debug builds) on a hierarchy
    /// violation *before* blocking, so the violation is reported even when
    /// the schedule happens not to deadlock.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = checker::acquire(self.rank);
        OrderedMutexGuard {
            guard: self.inner.lock(),
            _token: token,
        }
    }

    /// Attempts the lock without blocking. The hierarchy is checked even for
    /// try-acquisitions: a try-lock out of order cannot deadlock, but it
    /// breaks the ascending-contention argument that makes the fine-grained
    /// mode livelock-free.
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        let token = checker::acquire(self.rank);
        self.inner.try_lock().map(|guard| OrderedMutexGuard {
            guard,
            _token: token,
        })
    }
}

/// Guard for [`OrderedMutex`]; releases the lock and pops the rank on drop.
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    guard: MutexGuard<'a, T>,
    _token: RankToken,
}

impl<T: ?Sized> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`parking_lot::RwLock`] that participates in the monitor's lock order.
/// Read and write acquisitions are both checked (a reader can deadlock
/// against a writer just as well as two writers can against each other).
#[derive(Debug)]
pub struct OrderedRwLock<T: ?Sized> {
    rank: LockRank,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Creates a reader-writer lock at the given rank.
    pub const fn new(rank: LockRank, value: T) -> Self {
        Self {
            rank,
            inner: RwLock::new(value),
        }
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// This lock's position in the hierarchy.
    pub const fn rank(&self) -> LockRank {
        self.rank
    }

    /// Acquires a shared read lock, blocking.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let token = checker::acquire(self.rank);
        OrderedReadGuard {
            guard: self.inner.read(),
            _token: token,
        }
    }

    /// Acquires an exclusive write lock, blocking.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let token = checker::acquire(self.rank);
        OrderedWriteGuard {
            guard: self.inner.write(),
            _token: token,
        }
    }

    /// Attempts an exclusive write lock without blocking.
    pub fn try_write(&self) -> Option<OrderedWriteGuard<'_, T>> {
        let token = checker::acquire(self.rank);
        self.inner.try_write().map(|guard| OrderedWriteGuard {
            guard,
            _token: token,
        })
    }
}

/// Shared-read guard for [`OrderedRwLock`].
#[derive(Debug)]
pub struct OrderedReadGuard<'a, T: ?Sized> {
    guard: RwLockReadGuard<'a, T>,
    _token: RankToken,
}

impl<T: ?Sized> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive-write guard for [`OrderedRwLock`].
#[derive(Debug)]
pub struct OrderedWriteGuard<'a, T: ?Sized> {
    guard: RwLockWriteGuard<'a, T>,
    _token: RankToken,
}

impl<T: ?Sized> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// The Global-mode giant lock: a **ticket spinlock**, because that is what
/// the global variant actually models. A machine-mode security monitor has
/// no scheduler to sleep on, and real M-mode firmware (OpenSBI's
/// `spin_lock`, Linux's historical giant locks) uses *ticket* locks so no
/// hart starves — each waiter takes a ticket and spins until the serving
/// counter reaches it, so the lock is handed off in strict FIFO order.
///
/// That FIFO handoff is precisely the giant lock's concurrency cost: every
/// call site must wait for every caller that arrived before it, however
/// unrelated their work. On a multi-core host the waiters burn cycles in
/// the spin phase; on an oversubscribed host (more workers than CPUs) each
/// handoff additionally pays a scheduler round-trip when the next ticket
/// holder is descheduled — the classic oversubscribed-ticket-lock collapse.
/// Both are honest faces of the same serialization the fine-grained mode
/// removes, and both are what the scaling bench records. The spin loop
/// yields the host thread after a bounded number of spins so an
/// oversubscribed run keeps making progress instead of burning whole
/// timeslices.
///
/// The fine-grained mode never takes this lock, and deterministic
/// single-threaded runs never contend it — uncontended acquisition is one
/// `fetch_add` plus one load.
#[derive(Debug, Default)]
pub struct SpinLock {
    next_ticket: std::sync::atomic::AtomicU64,
    now_serving: std::sync::atomic::AtomicU64,
}

impl SpinLock {
    /// Creates an unlocked spinlock.
    pub const fn new() -> Self {
        Self {
            next_ticket: std::sync::atomic::AtomicU64::new(0),
            now_serving: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Acquires the lock (FIFO), recording rank 0 so every lock taken
    /// inside a Global-mode call is order-checked against it.
    pub fn lock(&self) -> SpinGuard<'_> {
        use std::sync::atomic::Ordering;
        let token = checker::acquire(rank::GLOBAL_CALL);
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let mut spins = 0u32;
        while self.now_serving.load(Ordering::Acquire) != ticket {
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(64) {
                // A real hart would keep spinning; a host thread yields so
                // a descheduled ticket holder ahead of us can run.
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        SpinGuard {
            lock: self,
            ticket,
            _token: token,
        }
    }
}

/// Guard for [`SpinLock`]; passes the lock to the next ticket on drop.
#[derive(Debug)]
pub struct SpinGuard<'a> {
    lock: &'a SpinLock,
    ticket: u64,
    _token: RankToken,
}

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        self.lock
            .now_serving
            .store(self.ticket + 1, std::sync::atomic::Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascending_acquisition_is_accepted() {
        let a = OrderedMutex::new(LockRank(1), 1u32);
        let b = OrderedMutex::new(LockRank(2), 2u32);
        let c = OrderedRwLock::new(LockRank(3), 3u32);
        let ga = a.lock();
        let gb = b.lock();
        let gc = c.read();
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[test]
    fn out_of_order_release_keeps_the_stack_consistent() {
        let a = OrderedMutex::new(LockRank(1), ());
        let b = OrderedMutex::new(LockRank(2), ());
        let c = OrderedMutex::new(LockRank(3), ());
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // released before b — the ledger must not lose rank 2
        let gc = c.lock(); // 3 > 2: fine
        drop(gb);
        drop(gc);
        // After everything is released, rank 1 is acquirable again.
        let _ga = a.lock();
    }

    #[test]
    fn reacquisition_after_release_is_accepted() {
        let a = OrderedMutex::new(LockRank(5), ());
        drop(a.lock());
        drop(a.lock());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn descending_acquisition_panics_in_debug() {
        let low = OrderedMutex::new(LockRank(1), ());
        let high = OrderedMutex::new(LockRank(9), ());
        let _gh = high.lock();
        let _gl = low.lock(); // 1 while holding 9: hierarchy violation
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn equal_rank_acquisition_panics_in_debug() {
        let a = OrderedMutex::new(LockRank(4), ());
        let b = OrderedMutex::new(LockRank(4), ());
        let _ga = a.lock();
        let _gb = b.lock(); // same rank: two metas at once are forbidden
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn try_lock_is_checked_too() {
        let low = OrderedMutex::new(LockRank(1), ());
        let high = OrderedRwLock::new(LockRank(9), ());
        let _gh = high.write();
        let _ = low.try_lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn read_locks_participate_in_the_order() {
        let low = OrderedRwLock::new(LockRank(1), ());
        let high = OrderedMutex::new(LockRank(9), ());
        let _gh = high.lock();
        let _gl = low.read();
    }

    #[test]
    fn panicking_holder_unwinds_the_shadow_stack_cleanly() {
        // An injected crash panics *while ranked locks are held*; the
        // guards drop during unwind and must leave the thread-local rank
        // stack exactly as it was, so post-crash recovery code on the same
        // thread can take the hierarchy from the top again.
        let low = OrderedMutex::new(LockRank(2), ());
        let high = OrderedMutex::new(LockRank(8), ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gl = low.lock();
            let _gh = high.lock();
            panic!("injected crash while holding ranks 2 and 8");
        }));
        assert!(result.is_err());
        // Both ranks were popped during the unwind: rank 2 is acquirable
        // again (it would violate the order if 2 or 8 were still recorded),
        // and the locks themselves are free (parking-lot shim recovers
        // poisoning).
        let _gl = low.lock();
        let _gh = high.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn caught_violation_leaves_held_ranks_intact() {
        // A lock-order violation reports without corrupting the shadow
        // stack: after catching it, the originally held lock is still
        // recorded (further violations are still detected) and releasing
        // it restores a clean slate.
        let low = OrderedMutex::new(LockRank(3), ());
        let high = OrderedMutex::new(LockRank(7), ());
        let gh = high.lock();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gl = low.lock();
        }));
        assert!(result.is_err(), "descending acquisition still reported");
        // Rank 7 must still be on the stack: the same violation reports
        // again rather than being silently allowed.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _gl = low.lock();
        }));
        assert!(result.is_err(), "shadow stack lost the held rank");
        drop(gh);
        // Clean slate: low is acquirable once the high guard is gone.
        let _gl = low.lock();
    }

    #[test]
    fn spinlock_excludes_and_releases() {
        let lock = SpinLock::new();
        {
            let _g = lock.lock();
        }
        let _g = lock.lock(); // released by the scope above
    }

    #[test]
    fn spinlock_serializes_across_threads() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let lock = Arc::new(SpinLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let lock = Arc::clone(&lock);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let _g = lock.lock();
                    // Non-atomic-looking read-modify-write under the lock:
                    // lost updates would show as a short count.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }
}
