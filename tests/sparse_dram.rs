//! Sparse simulated DRAM is invisible to everything that reads it.
//!
//! `PhysMemory` keeps one slot per 4 KiB page and stores nothing for a page
//! of zeroes. These tests drive it against a flat byte vector (the layout it
//! replaced) through random traces, and check that the monitor's region
//! scrub hands a region's storage back and charges the cycles the per-page
//! scrub charged: the figures below are the flat layout's, on both
//! platforms.

use proptest::prelude::*;
use sanctorum_bench::boot;
use sanctorum_core::api::SmApi;
use sanctorum_core::error::SmError;
use sanctorum_core::resource::ResourceId;
use sanctorum_core::session::CallerSession;
use sanctorum_hal::addr::{PhysAddr, PAGE_SIZE};
use sanctorum_hal::cycles::Cycles;
use sanctorum_hal::fnv::fnv1a;
use sanctorum_hal::isolation::RegionId;
use sanctorum_machine::fault::{silence_injected_crash_reports, FaultPlan};
use sanctorum_machine::mem::PhysMemory;
use sanctorum_machine::{Machine, MachineConfig};
use sanctorum_os::system::{PlatformKind, System};
use std::collections::BTreeSet;

const BASE: u64 = 0x8000_0000;
const PAGES: usize = 8;
const SIZE: usize = PAGES * PAGE_SIZE;

/// The flat reference: every byte stored, and the pages every mutating
/// access touched since the last drain.
struct Flat {
    bytes: Vec<u8>,
    dirty: BTreeSet<u64>,
}

impl Flat {
    fn mark(&mut self, offset: usize, len: usize) {
        if len > 0 {
            self.dirty
                .extend((offset / PAGE_SIZE) as u64..=((offset + len - 1) / PAGE_SIZE) as u64);
        }
    }

    fn write(&mut self, offset: usize, data: &[u8]) {
        self.bytes[offset..offset + data.len()].copy_from_slice(data);
        self.mark(offset, data.len());
    }

    /// The flat layout's digest: every page hashed in full, salted with its
    /// index, XOR-folded, then folded with `seed`.
    fn digest(&self, seed: u64) -> u64 {
        let acc = self
            .bytes
            .chunks(PAGE_SIZE)
            .enumerate()
            .fold(0u64, |acc, (page, bytes)| {
                let salted = fnv1a(0x9e3779b97f4a7c15, &(page as u64).to_le_bytes());
                acc ^ fnv1a(salted, bytes)
            });
        fnv1a(seed, &acc.to_le_bytes())
    }

    fn drain(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.dirty).into_iter().collect()
    }
}

#[derive(Debug)]
enum Op {
    WriteBytes { offset: usize, data: Vec<u8> },
    WriteU64 { offset: usize, value: u64 },
    ZeroPage { page: usize },
    ReadBytes { offset: usize, len: usize },
    PageSlice { page: usize },
    Digest { seed: u64 },
    Drain,
}

fn addr(offset: usize) -> PhysAddr {
    PhysAddr::new(BASE + offset as u64)
}

/// Maps two words to an op. Offsets cluster at page boundaries so writes
/// straddle pages often; write payloads are all zeroes, one non-zero fill
/// byte, or pseudo-random bytes (which contain zeroes too).
fn op_from_words(w0: u64, w1: u64) -> Op {
    let page = (w0 >> 8) as usize % PAGES;
    let within = if (w0 >> 16) & 1 == 1 {
        PAGE_SIZE - 1 - (w0 >> 20) as usize % 16
    } else {
        (w0 >> 20) as usize % PAGE_SIZE
    };
    let offset = page * PAGE_SIZE + within;
    let len = if (w1 >> 8) & 3 == 0 {
        (w1 >> 16) as usize % (2 * PAGE_SIZE)
    } else {
        (w1 >> 16) as usize % 40
    }
    .min(SIZE - offset);
    match w0 % 8 {
        0 | 1 => {
            let mut data = vec![0u8; len];
            match (w1 >> 40) % 3 {
                0 => {}
                1 => data.fill((w1 >> 48) as u8 | 1),
                _ => TestRng::with_seed(w1).fill_bytes(&mut data),
            }
            Op::WriteBytes { offset, data }
        }
        2 => Op::WriteU64 {
            offset: offset.min(SIZE - 8),
            value: if (w0 >> 3) & 1 == 1 { w1 } else { 0 },
        },
        3 => Op::ZeroPage { page },
        4 => Op::ReadBytes { offset, len },
        5 => Op::PageSlice { page },
        6 => Op::Digest { seed: w1 },
        _ => Op::Drain,
    }
}

fn apply(mem: &mut PhysMemory, flat: &mut Flat, op: &Op) -> Result<(), String> {
    match op {
        Op::WriteBytes { offset, data } => {
            mem.write_bytes(addr(*offset), data)
                .map_err(|e| e.to_string())?;
            flat.write(*offset, data);
        }
        Op::WriteU64 { offset, value } => {
            mem.write_u64(addr(*offset), *value)
                .map_err(|e| e.to_string())?;
            flat.write(*offset, &value.to_le_bytes());
        }
        Op::ZeroPage { page } => {
            mem.zero_page(addr(page * PAGE_SIZE + 123))
                .map_err(|e| e.to_string())?;
            flat.write(page * PAGE_SIZE, &[0u8; PAGE_SIZE]);
        }
        Op::ReadBytes { offset, len } => {
            let mut buf = vec![0xeeu8; *len];
            mem.read_bytes(addr(*offset), &mut buf)
                .map_err(|e| e.to_string())?;
            if buf[..] != flat.bytes[*offset..offset + len] {
                return Err("read_bytes differs".into());
            }
        }
        Op::PageSlice { page } => {
            let slice = mem
                .page_slice(addr(page * PAGE_SIZE))
                .map_err(|e| e.to_string())?;
            if slice != &flat.bytes[page * PAGE_SIZE..(page + 1) * PAGE_SIZE] {
                return Err("page_slice differs".into());
            }
        }
        Op::Digest { seed } => {
            if mem.digest(*seed) != flat.digest(*seed) {
                return Err("digest differs".into());
            }
        }
        Op::Drain => {
            let (sparse, reference) = (mem.drain_dirty_pages(), flat.drain());
            if sparse != reference {
                return Err(format!("drain {sparse:?} != {reference:?}"));
            }
        }
    }
    Ok(())
}

/// The state checks run after every op: bytes, and (on clones, so the
/// trace's own digest cache and drain cursor keep accumulating) digest and
/// drain. A page whose bytes are not all zero must hold storage.
fn check(mem: &PhysMemory, flat: &Flat) -> Result<(), String> {
    let mut all = vec![0xeeu8; SIZE];
    mem.read_bytes(addr(0), &mut all)
        .map_err(|e| e.to_string())?;
    if all != flat.bytes {
        return Err("contents differ".into());
    }
    for page in 0..PAGES {
        let backed = mem
            .backed_page(addr(page * PAGE_SIZE))
            .map_err(|e| e.to_string())?;
        let flat_page = &flat.bytes[page * PAGE_SIZE..(page + 1) * PAGE_SIZE];
        match backed {
            Some(bytes) if bytes != flat_page => return Err(format!("page {page} differs")),
            None if flat_page.iter().any(|&b| b != 0) => {
                return Err(format!("non-zero page {page} holds no storage"))
            }
            _ => {}
        }
    }
    let seed = 0x5eed;
    if mem.clone().digest(seed) != flat.digest(seed) {
        return Err("digest differs".into());
    }
    let pending: Vec<u64> = flat.dirty.iter().copied().collect();
    if mem.clone().drain_dirty_pages() != pending {
        return Err("pending dirty pages differ".into());
    }
    Ok(())
}

#[test]
fn sparse_memory_matches_a_flat_byte_vector() {
    let strategy = proptest::collection::vec(0u64.., 2..200);
    let result = Runner::new(0x5ba75e).cases(64).run(&strategy, |words| {
        let mut mem = PhysMemory::new(PhysAddr::new(BASE), SIZE);
        let mut flat = Flat {
            bytes: vec![0u8; SIZE],
            dirty: BTreeSet::new(),
        };
        check(&mem, &flat)?;
        for pair in words.chunks_exact(2) {
            let op = op_from_words(pair[0], pair[1]);
            apply(&mut mem, &mut flat, &op).map_err(|e| format!("{op:?}: {e}"))?;
            check(&mem, &flat).map_err(|e| format!("after {op:?}: {e}"))?;
        }
        apply(&mut mem, &mut flat, &Op::Drain)
    });
    if let Err(failure) = result {
        panic!("sparse memory diverged from the flat reference:\n{failure}");
    }
}

#[test]
fn all_zero_writes_hold_no_storage_and_zeroing_drops_it() {
    let mut mem = PhysMemory::new(PhysAddr::new(BASE), SIZE);
    mem.write_bytes(addr(PAGE_SIZE - 4), &[0u8; 16]).unwrap();
    mem.write_u64(addr(3 * PAGE_SIZE), 0).unwrap();
    assert_eq!(mem.backed_pages(), 0);
    assert_eq!(
        mem.drain_dirty_pages(),
        vec![0, 1, 3],
        "zero writes still mark"
    );
    mem.write_bytes(addr(PAGE_SIZE - 4), &[0, 0, 0, 0, 9, 0])
        .unwrap();
    assert_eq!(
        mem.backed_pages(),
        1,
        "only the page with the non-zero byte"
    );
    assert!(mem.backed_page(addr(0)).unwrap().is_none());
    mem.zero_page(addr(PAGE_SIZE)).unwrap();
    assert_eq!(mem.backed_pages(), 0);
    assert_eq!(mem.drain_dirty_pages(), vec![0, 1]);
}

#[test]
fn a_fresh_machine_backs_no_pages() {
    for config in [MachineConfig::small(), MachineConfig::default_config()] {
        let machine = Machine::new(config);
        assert_eq!(machine.with_memory(PhysMemory::backed_pages), 0);
    }
}

/// Boots a small system and fills every page of region 1 (OS-owned at
/// boot) with non-zero bytes, then blocks it for cleaning.
fn blocked_written_region(platform: PlatformKind) -> (System, ResourceId) {
    let (system, _os) = boot(platform);
    let config = system.machine.config().clone();
    let base = config.memory_base.offset(config.dram_region_size as u64);
    for page in 0..config.dram_region_size / PAGE_SIZE {
        system
            .machine
            .phys_write(base.offset((page * PAGE_SIZE) as u64), &[0xa5; 16])
            .unwrap();
    }
    let id = ResourceId::Region(RegionId::new(1));
    system
        .monitor
        .block_resource(CallerSession::os(), id)
        .unwrap();
    (system, id)
}

#[test]
fn clean_resource_returns_a_written_region_to_unbacked_pages() {
    for platform in PlatformKind::ALL {
        let (system, id) = blocked_written_region(platform);
        let config = system.machine.config().clone();
        let region_pages = config.dram_region_size / PAGE_SIZE;
        let before = system.machine.with_memory(PhysMemory::backed_pages);
        system
            .monitor
            .clean_resource(CallerSession::os(), id)
            .unwrap();
        let after = system.machine.with_memory(PhysMemory::backed_pages);
        assert_eq!(before - after, region_pages, "{platform:?}");
    }
}

#[test]
fn clean_resource_cycles_for_one_region_are_pinned() {
    // One 1 MiB region (256 pages) on the small machine. Returned: 256
    // zero_page charges plus the backend's cache flush and TLB shootdown;
    // the machine's counter also carries its own shootdown. A crash at the
    // fifth page crossing has zeroed four pages; a FailOp at the first has
    // zeroed none.
    silence_injected_crash_reports();
    for platform in PlatformKind::ALL {
        let (system, id) = blocked_written_region(platform);
        let start = system.machine.total_cycles();
        let spent = system
            .monitor
            .clean_resource(CallerSession::os(), id)
            .unwrap();
        assert_eq!(spent, Cycles::new(131_876), "{platform:?}");
        let charged = system.machine.total_cycles().count() - start.count();
        assert_eq!(charged, 132_676, "{platform:?}");

        let (system, id) = blocked_written_region(platform);
        let injector = system.machine.fault_injector();
        injector.arm(FaultPlan::CrashAt {
            site: Some("monitor.scrub-page"),
            crossing: 5,
        });
        let start = system.machine.total_cycles();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            system.monitor.clean_resource(CallerSession::os(), id)
        }));
        injector.disarm();
        assert!(crashed.is_err(), "{platform:?}: the crash fires");
        let charged = system.machine.total_cycles().count() - start.count();
        assert_eq!(charged, 2_048, "{platform:?}: four pages zeroed");

        let (system, id) = blocked_written_region(platform);
        let injector = system.machine.fault_injector();
        injector.arm(FaultPlan::FailOp {
            site: Some("monitor.scrub-page"),
            times: 1,
        });
        let start = system.machine.total_cycles();
        let failed = system.monitor.clean_resource(CallerSession::os(), id);
        injector.disarm();
        assert_eq!(failed, Err(SmError::Again), "{platform:?}");
        assert_eq!(
            system.machine.total_cycles(),
            start,
            "{platform:?}: nothing zeroed"
        );
    }
}
