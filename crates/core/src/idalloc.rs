//! Per-hart id allocation with batched refill from a shared pool.
//!
//! Thread ids used to come from one shared atomic counter. That is correct,
//! but under the mutation-heavy scaling workload every `load_thread` /
//! `create_thread` on every hart hits the same cache line, and — worse —
//! freed ids were never recycled, so the id space only ever grew. The
//! [`IdAllocator`] keeps a small per-hart cache of ready ids in front of a
//! shared pool: allocation and free normally touch only the calling hart's
//! own cache slot (lock rank `ID_SLOT`), and only a refill or a spill takes
//! the shared pool (rank `ID_POOL`, acquired strictly above the slot).
//!
//! **Determinism.** With `batch == 1` the allocator collapses to the legacy
//! discipline bit-for-bit: every allocation comes straight from the pool's
//! monotone counter and [`IdAllocator::free`] discards the id — no reuse,
//! no per-hart state — so single-threaded replays (the pinned determinism
//! digests) are unchanged. Batching (and with it id reuse) is an explicit
//! opt-in through [`crate::monitor::SmConfig::id_batch`]; a single-threaded
//! run with any fixed batch size is still deterministic (the refill order
//! is a pure function of the alloc/free sequence), which the id-reuse
//! replay test below pins.

use crate::lockorder::{rank, OrderedMutex};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of per-hart cache slots. Collisions (two host threads mapping to
/// one slot) are safe — slots are mutexes — and merely shed the contention
/// win, so a small fixed count suffices.
const ID_SLOTS: usize = 8;

/// Process-global source of per-thread slot indices.
static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's stable slot index, assigned on first use.
    static THREAD_SLOT: usize = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed);
}

/// The shared id pool: a monotone counter plus the free list spilled back
/// from the per-hart caches.
#[derive(Debug)]
struct IdPool {
    /// Next never-issued id.
    next: u64,
    /// Ids freed back from the caches, reissued before fresh ones.
    recycled: Vec<u64>,
}

/// One hart's private cache of ready ids.
#[derive(Debug, Default)]
struct IdSlot {
    ready: Vec<u64>,
}

/// A batched, per-hart id allocator (see the module docs).
#[derive(Debug)]
pub struct IdAllocator {
    /// Ids handed to a cache per refill; `1` = legacy pass-through mode.
    batch: usize,
    /// Per-hart caches, all at rank `ID_SLOT` (only one is ever held at a
    /// time, and always below the pool).
    slots: Vec<OrderedMutex<IdSlot>>,
    /// The shared pool, rank `ID_POOL`.
    pool: OrderedMutex<IdPool>,
}

impl IdAllocator {
    /// Creates an unbounded allocator issuing ids from `base` upward,
    /// refilling per-hart caches `batch` ids at a time.
    pub fn new(base: u64, batch: usize) -> Self {
        Self {
            batch: batch.max(1),
            slots: (0..ID_SLOTS)
                .map(|_| OrderedMutex::new(rank::ID_SLOT, IdSlot::default()))
                .collect(),
            pool: OrderedMutex::new(
                rank::ID_POOL,
                IdPool {
                    next: base,
                    recycled: Vec::new(),
                },
            ),
        }
    }

    /// The calling thread's cache slot.
    fn slot(&self) -> &OrderedMutex<IdSlot> {
        let index = THREAD_SLOT.with(|slot| *slot);
        &self.slots[index % self.slots.len()]
    }

    /// Issues one id from the pool: a recycled one if any, else a fresh one.
    fn take(pool: &mut IdPool) -> u64 {
        if let Some(id) = pool.recycled.pop() {
            return id;
        }
        let id = pool.next;
        pool.next += 1;
        id
    }

    /// Allocates one id. The id space is unbounded, so this never fails.
    pub fn alloc(&self) -> u64 {
        if self.batch == 1 {
            // Legacy discipline: straight off the monotone counter.
            return Self::take(&mut self.pool.lock());
        }
        let mut slot = self.slot().lock();
        if let Some(id) = slot.ready.pop() {
            return id;
        }
        // Refill the cache with `batch` ids, recycled first, and hand out
        // the last one drawn.
        let mut pool = self.pool.lock();
        for _ in 1..self.batch {
            let id = Self::take(&mut pool);
            slot.ready.push(id);
        }
        Self::take(&mut pool)
    }

    /// Returns `id` to the allocator. In legacy mode (`batch == 1`) the id
    /// is discarded — ids are never reused, preserving the historical
    /// monotone sequence; otherwise it lands in the calling hart's cache,
    /// spilling half the cache back to the shared pool beyond `2 × batch`.
    pub fn free(&self, id: u64) {
        if self.batch == 1 {
            return;
        }
        let mut slot = self.slot().lock();
        slot.ready.push(id);
        if slot.ready.len() > 2 * self.batch {
            let keep = self.batch;
            let spill: Vec<u64> = slot.ready.split_off(keep);
            self.pool.lock().recycled.extend(spill);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_mode_is_the_monotone_counter() {
        let alloc = IdAllocator::new(0x1000, 1);
        assert_eq!(alloc.alloc(), 0x1000);
        assert_eq!(alloc.alloc(), 0x1001);
        alloc.free(0x1000);
        // Freed ids are discarded: the next id is still fresh.
        assert_eq!(alloc.alloc(), 0x1002);
    }

    #[test]
    fn id_reuse_is_deterministic_under_single_threaded_replay() {
        // The same alloc/free script against two fresh batched allocators
        // must produce the same id sequence — the property that keeps a
        // batched single-threaded replay bit-identical run to run.
        fn script(alloc: &IdAllocator) -> Vec<u64> {
            let mut out = Vec::new();
            let mut live = Vec::new();
            for step in 0..200u64 {
                if step % 3 == 2 && !live.is_empty() {
                    let id = live.remove((step as usize * 7) % live.len());
                    alloc.free(id);
                } else {
                    let id = alloc.alloc();
                    out.push(id);
                    live.push(id);
                }
            }
            out
        }
        let first = script(&IdAllocator::new(0x1000, 16));
        let second = script(&IdAllocator::new(0x1000, 16));
        assert_eq!(first, second);
        assert!(
            first.iter().any(|id| first.iter().filter(|x| *x == id).count() > 1),
            "the script must actually exercise reuse"
        );
    }

    #[test]
    fn concurrent_soak_never_has_one_id_live_on_two_harts() {
        use std::collections::HashSet;
        use std::sync::{Arc, Mutex};
        let alloc = Arc::new(IdAllocator::new(0, 8));
        let live = Arc::new(Mutex::new(HashSet::new()));
        let mut workers = Vec::new();
        for worker in 0..4u64 {
            let alloc = Arc::clone(&alloc);
            let live = Arc::clone(&live);
            workers.push(std::thread::spawn(move || {
                let mut held: Vec<u64> = Vec::new();
                for step in 0..2000u64 {
                    if (step + worker) % 3 == 0 && !held.is_empty() {
                        let id = held.swap_remove((step as usize) % held.len());
                        assert!(live.lock().unwrap().remove(&id), "freed id was not live");
                        alloc.free(id);
                    } else {
                        let id = alloc.alloc();
                        assert!(
                            live.lock().unwrap().insert(id),
                            "id {id} handed to two harts at once"
                        );
                        held.push(id);
                    }
                }
                for id in held {
                    assert!(live.lock().unwrap().remove(&id));
                    alloc.free(id);
                }
            }));
        }
        for worker in workers {
            worker.join().expect("soak worker");
        }
        assert!(live.lock().unwrap().is_empty());
    }
}
