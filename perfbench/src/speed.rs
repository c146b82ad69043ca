//! Host speed reference.
//!
//! On a shared virtual machine the host's speed drifts in phases of seconds
//! to minutes: a fixed loop can take half again as long in one phase as in
//! another, and a whole run can fall inside a slow phase. Every timed phase
//! therefore runs a fixed reference kernel on the calling thread between
//! its windows, while its load threads are idle, and scales each window's
//! figures by how much slower the kernel ran than on a quiet host. Both
//! CPUs of the host slow together, so one thread's sample stands for the
//! host; a sample on every load thread at once measured the threads'
//! contention with each other as well, and tracked the workloads worse. The kernel is the
//! benchmark's own code, so a change to the program moves the scaled
//! figures and a change of host speed does not.
//!
//! The kernel mixes the kinds of work the workloads do: a multiply chain
//! (the crypto's field arithmetic), a dependent walk over a table larger
//! than the private caches (the monitor's and explorer's state), and small
//! allocations (the sessions, mail and traces).

use crate::splitmix;
use std::hint::black_box;
use std::time::Instant;

/// Words in each thread's walk table: 2 MiB.
const TABLE_WORDS: usize = 1 << 18;
/// Multiply-chain steps per kernel pass.
const MUL_STEPS: u64 = 120_000;
/// Dependent table reads per kernel pass.
const WALK_STEPS: usize = 5_000;
/// Allocations per kernel pass.
const ALLOCS: usize = 2_500;
/// Kernel passes in one sample.
const PASSES: usize = 36;
/// Seconds one sample's passes take on a quiet 2-CPU virtual machine (Intel
/// Xeon, the host the bounds in `BENCHMARK.json` come from).
const NOMINAL_S: f64 = 0.025;

/// One pass of the reference kernel over `table`.
fn pass(table: &mut [u64], salt: u64) -> u64 {
    let mut x = salt | 1;
    let mut acc: u128 = 0;
    for _ in 0..MUL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(u128::from(x) * u128::from(x | 1));
    }
    let mask = table.len() - 1;
    let mut index = (acc as usize) & mask;
    for step in 0..WALK_STEPS {
        let word = table[index];
        table[index] = word.wrapping_add(step as u64);
        index = (word as usize ^ step) & mask;
    }
    let mut kept: Vec<Vec<u8>> = Vec::with_capacity(16);
    for i in 0..ALLOCS {
        let block = vec![i as u8; 16 + (i * 37) % 1024];
        if kept.len() == 16 {
            kept.swap_remove(i % 16);
        }
        kept.push(black_box(block));
    }
    (acc as u64) ^ index as u64 ^ kept.len() as u64
}

/// The reference kernel and its walk table.
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u64>,
    salt: u64,
}

impl HostSpeed {
    /// Builds the walk table and runs the kernel once to warm it.
    pub fn new() -> Self {
        let mut state = 0x5eed_5eed;
        let table = (0..TABLE_WORDS).map(|_| splitmix(&mut state)).collect();
        let mut speed = Self { table, salt: 1 };
        speed.sample();
        speed
    }

    /// Runs the kernel on the calling thread and returns the slowdown: its
    /// time over the nominal time (1.0 on a quiet host, 1.5 when the kernel
    /// takes half again as long).
    pub fn sample(&mut self) -> f64 {
        let began = Instant::now();
        let mut sink = 0u64;
        for _ in 0..PASSES {
            self.salt = self.salt.wrapping_add(1);
            sink ^= pass(&mut self.table, self.salt);
        }
        black_box(sink);
        began.elapsed().as_secs_f64() / NOMINAL_S
    }
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}
