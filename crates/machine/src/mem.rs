//! Simulated physical memory.

use sanctorum_hal::addr::{PhysAddr, PAGE_SIZE};
use sanctorum_hal::fnv::fnv1a_zeros;
use std::fmt;
use std::ops::Range;

pub(crate) use sanctorum_hal::fnv::fnv1a;

/// What [`PhysMemory::page_slice`] lends out for a page with no storage.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// Errors raised by physical-memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The access touches addresses outside the populated DRAM range.
    OutOfRange {
        /// Address that failed.
        addr: PhysAddr,
        /// Length of the failed access.
        len: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfRange { addr, len } => {
                write!(f, "physical access out of range: {addr} (+{len} bytes)")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// A page-granular dirty bitmap over DRAM.
///
/// Every mutating access sets the bit of each page it touches; consumers
/// drain the set bits. Marking is a superset of actual content changes
/// (rewriting a page with identical bytes still marks it), so drains never
/// under-report — the guarantee incremental scanners rely on.
#[derive(Clone, Default)]
struct DirtyBitmap {
    words: Vec<u64>,
    pages: usize,
    /// Fast-path flag: `true` while no bit is set.
    clean: bool,
}

impl DirtyBitmap {
    fn new(pages: usize) -> Self {
        Self {
            words: vec![0u64; pages.div_ceil(64)],
            pages,
            clean: true,
        }
    }

    fn mark_range(&mut self, first_page: usize, last_page: usize) {
        for page in first_page..=last_page {
            self.words[page / 64] |= 1u64 << (page % 64);
        }
        self.clean = false;
    }

    fn mark_all(&mut self) {
        for (index, word) in self.words.iter_mut().enumerate() {
            let valid = self.pages - (index * 64).min(self.pages);
            *word = if valid >= 64 { u64::MAX } else { (1u64 << valid) - 1 };
        }
        self.clean = self.pages == 0;
    }

    /// Calls `f` with every set page index (ascending) and clears the map.
    fn drain(&mut self, mut f: impl FnMut(usize)) {
        if self.clean {
            return;
        }
        for (word_index, word) in self.words.iter_mut().enumerate() {
            let mut bits = *word;
            *word = 0;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                f(word_index * 64 + bit);
                bits &= bits - 1;
            }
        }
        self.clean = true;
    }
}

/// Byte-addressable simulated DRAM starting at a configurable base address.
///
/// Storage is sparse: DRAM is one slot per 4 KiB page, and an empty slot is
/// a page of zeroes that holds no bytes. Boot allocates no page storage; a
/// write materializes its page only if the page already has storage or the
/// write carries a non-zero byte; [`PhysMemory::zero_page`] drops it again.
/// Reads of an empty slot yield zeroes, so the layout is invisible to every
/// reader.
///
/// Every write (stores, DMA, zeroing) records the touched pages in two
/// page-granular dirty bitmaps, whether or not it materialized storage: one
/// drained by external consumers through [`PhysMemory::drain_dirty_pages`]
/// (the explorer's incremental secret scan), one private to the incremental
/// [`PhysMemory::digest`] cache. The two have independent cursors, so
/// draining one never hides writes from the other.
///
/// # Examples
///
/// ```
/// use sanctorum_machine::mem::PhysMemory;
/// use sanctorum_hal::addr::PhysAddr;
///
/// let mut mem = PhysMemory::new(PhysAddr::new(0x8000_0000), 64 * 1024);
/// assert_eq!(mem.backed_pages(), 0, "boot allocates no page storage");
/// mem.write_u64(PhysAddr::new(0x8000_0100), 0xdead_beef)?;
/// assert_eq!(mem.read_u64(PhysAddr::new(0x8000_0100))?, 0xdead_beef);
/// assert_eq!(mem.backed_pages(), 1);
/// assert_eq!(mem.drain_dirty_pages(), vec![0]);
/// assert!(mem.drain_dirty_pages().is_empty(), "drained bits are cleared");
/// # Ok::<(), sanctorum_machine::mem::MemError>(())
/// ```
#[derive(Clone)]
pub struct PhysMemory {
    base: PhysAddr,
    /// One slot per page; `None` is a page of zeroes with no storage.
    pages: Vec<Option<Box<[u8; PAGE_SIZE]>>>,
    /// Pages written since the last external drain.
    dirty: DirtyBitmap,
    /// Pages written since the digest cache last refreshed.
    digest_dirty: DirtyBitmap,
    /// Cached per-page digests (see [`PhysMemory::digest`]).
    page_digests: Vec<u64>,
    /// XOR-fold of `page_digests`.
    digest_acc: u64,
}

impl fmt::Debug for PhysMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PhysMemory {{ base: {}, size: {:#x} }}",
            self.base,
            self.size()
        )
    }
}

/// Splits the validated byte range `[offset, offset + len)` at page
/// boundaries and calls `f(page, offset within page, piece's range within
/// the access)` for each piece, in ascending order.
fn for_each_piece(offset: usize, len: usize, mut f: impl FnMut(usize, usize, Range<usize>)) {
    let mut done = 0;
    while done < len {
        let at = offset + done;
        let within = at % PAGE_SIZE;
        let piece = (PAGE_SIZE - within).min(len - done);
        f(at / PAGE_SIZE, within, done..done + piece);
        done += piece;
    }
}

impl PhysMemory {
    /// Creates zero-initialized memory of `size` bytes starting at `base`.
    /// No page storage is allocated until a non-zero byte is written.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page aligned.
    pub fn new(base: PhysAddr, size: usize) -> Self {
        assert_eq!(size % PAGE_SIZE, 0, "memory size must be page aligned");
        let pages = size / PAGE_SIZE;
        let mut digest_dirty = DirtyBitmap::new(pages);
        // The page-digest cache starts unpopulated; the first digest call
        // folds every page once, then only rewritten pages are re-hashed.
        digest_dirty.mark_all();
        Self {
            base,
            pages: vec![None; pages],
            dirty: DirtyBitmap::new(pages),
            digest_dirty,
            page_digests: vec![0u64; pages],
            digest_acc: 0,
        }
    }

    /// Number of 4 KiB pages of populated DRAM.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages that hold storage; every other page reads as zeroes.
    pub fn backed_pages(&self) -> usize {
        self.pages.iter().filter(|page| page.is_some()).count()
    }

    /// Marks the pages overlapping `[offset, offset + len)` dirty in both
    /// bitmaps. `offset_of` has already validated the range.
    fn mark_dirty(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let first = offset / PAGE_SIZE;
        let last = (offset + len - 1) / PAGE_SIZE;
        self.dirty.mark_range(first, last);
        self.digest_dirty.mark_range(first, last);
    }

    /// Returns the indices (relative to [`PhysMemory::base`]) of every page
    /// written since the previous drain, ascending, and clears the bitmap.
    ///
    /// Marking happens on every mutating access, including rewrites of
    /// identical bytes and zeroing of pages that hold no storage — the
    /// result is a *superset* of the pages whose contents changed, never a
    /// subset.
    pub fn drain_dirty_pages(&mut self) -> Vec<u64> {
        let mut pages = Vec::new();
        self.dirty.drain(|page| pages.push(page as u64));
        pages
    }

    /// Returns the base address of DRAM.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Returns the size of DRAM in bytes.
    pub fn size(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// Fingerprints all of DRAM, folded with `seed`. Used by
    /// [`crate::Machine::state_digest`] to fingerprint machine state for
    /// replay-determinism checks.
    ///
    /// The fingerprint is incremental: each page's FNV-1a digest (salted
    /// with its index so identical pages don't cancel) is cached and folded
    /// into an XOR accumulator; a digest call re-hashes only the pages
    /// written since the previous call. A page with no storage costs one
    /// [`fnv1a_zeros`], which equals hashing its 4 KiB of zeroes. The result
    /// is a pure function of `seed` and the current memory contents — cache
    /// state and storage layout never leak into the value, so interleaving
    /// extra digest calls between identical write sequences cannot change
    /// what is reported.
    pub fn digest(&mut self, seed: u64) -> u64 {
        let (pages, page_digests, acc) =
            (&self.pages, &mut self.page_digests, &mut self.digest_acc);
        self.digest_dirty.drain(|page| {
            let salted = fnv1a(0x9e3779b97f4a7c15, &(page as u64).to_le_bytes());
            let fresh = match &pages[page] {
                Some(bytes) => fnv1a(salted, bytes.as_slice()),
                None => fnv1a_zeros(salted, PAGE_SIZE),
            };
            *acc ^= page_digests[page] ^ fresh;
            page_digests[page] = fresh;
        });
        fnv1a(seed, &self.digest_acc.to_le_bytes())
    }

    /// Returns `true` if the whole `[addr, addr+len)` range is populated.
    pub fn contains(&self, addr: PhysAddr, len: usize) -> bool {
        let Some(offset) = addr.checked_sub(self.base) else {
            return false;
        };
        (offset as usize)
            .checked_add(len)
            .is_some_and(|end| end <= self.size())
    }

    fn offset_of(&self, addr: PhysAddr, len: usize) -> Result<usize, MemError> {
        if self.contains(addr, len) {
            Ok((addr.as_u64() - self.base.as_u64()) as usize)
        } else {
            Err(MemError::OutOfRange { addr, len })
        }
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not populated.
    pub fn read_bytes(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let offset = self.offset_of(addr, buf.len())?;
        for_each_piece(offset, buf.len(), |page, within, range| {
            let piece = &mut buf[range];
            match &self.pages[page] {
                Some(bytes) => piece.copy_from_slice(&bytes[within..within + piece.len()]),
                None => piece.fill(0),
            }
        });
        Ok(())
    }

    /// Writes `data` starting at `addr`. A page without storage stays
    /// without it when its piece of `data` is all zeroes.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not populated.
    pub fn write_bytes(&mut self, addr: PhysAddr, data: &[u8]) -> Result<(), MemError> {
        let offset = self.offset_of(addr, data.len())?;
        let pages = &mut self.pages;
        for_each_piece(offset, data.len(), |page, within, range| {
            let piece = &data[range];
            let slot = &mut pages[page];
            if slot.is_none() && piece.iter().all(|&b| b == 0) {
                return;
            }
            let bytes = slot.get_or_insert_with(|| Box::new([0; PAGE_SIZE]));
            bytes[within..within + piece.len()].copy_from_slice(piece);
        });
        self.mark_dirty(offset, data.len());
        Ok(())
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not populated.
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        let mut buf = [0u8; 8];
        self.read_bytes(addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range is not populated.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> Result<(), MemError> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Zeroes the 4 KiB page containing `addr` by dropping its storage
    /// (used when cleaning memory before re-allocation to another
    /// protection domain).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the page is not populated.
    pub fn zero_page(&mut self, addr: PhysAddr) -> Result<(), MemError> {
        let offset = self.offset_of(addr.align_down(), PAGE_SIZE)?;
        self.pages[offset / PAGE_SIZE] = None;
        self.mark_dirty(offset, PAGE_SIZE);
        Ok(())
    }

    /// Borrows the page (4 KiB) containing `addr` in place, for scanners
    /// that inspect many pages per step. A page with no storage lends a
    /// shared page of zeroes.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the page is not populated.
    pub fn page_slice(&self, addr: PhysAddr) -> Result<&[u8], MemError> {
        Ok(self.backed_page(addr)?.unwrap_or(&ZERO_PAGE))
    }

    /// Borrows the page (4 KiB) containing `addr` if it holds storage;
    /// `None` means the page reads as zeroes, so scanners looking for
    /// non-zero bytes can skip it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the page is not populated.
    pub fn backed_page(&self, addr: PhysAddr) -> Result<Option<&[u8]>, MemError> {
        let offset = self.offset_of(addr.align_down(), PAGE_SIZE)?;
        Ok(self.pages[offset / PAGE_SIZE]
            .as_deref()
            .map(|bytes| bytes.as_slice()))
    }

    /// Returns the highest populated physical address plus one.
    pub fn end(&self) -> PhysAddr {
        PhysAddr::new(self.base.as_u64() + self.size() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMemory {
        PhysMemory::new(PhysAddr::new(0x8000_0000), 16 * PAGE_SIZE)
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = mem();
        m.write_bytes(PhysAddr::new(0x8000_0010), b"sanctorum").unwrap();
        let mut buf = [0u8; 9];
        m.read_bytes(PhysAddr::new(0x8000_0010), &mut buf).unwrap();
        assert_eq!(&buf, b"sanctorum");
    }

    #[test]
    fn u64_round_trip() {
        let mut m = mem();
        m.write_u64(PhysAddr::new(0x8000_1000), u64::MAX - 3).unwrap();
        assert_eq!(m.read_u64(PhysAddr::new(0x8000_1000)).unwrap(), u64::MAX - 3);
    }

    #[test]
    fn out_of_range_is_rejected() {
        let mut m = mem();
        assert!(m.read_u64(PhysAddr::new(0x7fff_ffff)).is_err());
        assert!(m.write_u64(m.end(), 1).is_err());
        // An access straddling the end is rejected too.
        let last = PhysAddr::new(m.end().as_u64() - 4);
        assert!(m.read_u64(last).is_err());
    }

    #[test]
    fn zero_page_clears_only_that_page() {
        let mut m = mem();
        m.write_u64(PhysAddr::new(0x8000_1008), 0x1111).unwrap();
        m.write_u64(PhysAddr::new(0x8000_2008), 0x2222).unwrap();
        m.zero_page(PhysAddr::new(0x8000_1123)).unwrap();
        assert_eq!(m.read_u64(PhysAddr::new(0x8000_1008)).unwrap(), 0);
        assert_eq!(m.read_u64(PhysAddr::new(0x8000_2008)).unwrap(), 0x2222);
    }

    #[test]
    fn contains_checks_full_range() {
        let m = mem();
        assert!(m.contains(PhysAddr::new(0x8000_0000), 16 * PAGE_SIZE));
        assert!(!m.contains(PhysAddr::new(0x8000_0000), 16 * PAGE_SIZE + 1));
        assert!(!m.contains(PhysAddr::new(0x7fff_f000), PAGE_SIZE));
    }

    #[test]
    fn read_page_returns_full_page() {
        let mut m = mem();
        m.write_bytes(PhysAddr::new(0x8000_3000), &[7u8; 16]).unwrap();
        let page = m.page_slice(PhysAddr::new(0x8000_3abc)).unwrap();
        assert_eq!(page.len(), PAGE_SIZE);
        assert_eq!(&page[..16], &[7u8; 16]);
        assert_eq!(page[16], 0);
        let unbacked = m.page_slice(PhysAddr::new(0x8000_4000)).unwrap();
        assert_eq!(unbacked, &[0u8; PAGE_SIZE][..]);
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_size_panics() {
        let _ = PhysMemory::new(PhysAddr::new(0), 100);
    }

    #[test]
    fn dirty_tracking_reports_every_written_page_once() {
        let mut m = mem();
        assert!(m.drain_dirty_pages().is_empty(), "fresh memory is clean");
        m.write_u64(PhysAddr::new(0x8000_1008), 7).unwrap();
        m.write_bytes(PhysAddr::new(0x8000_2ffc), &[1u8; 8]).unwrap(); // straddles 2→3
        m.zero_page(PhysAddr::new(0x8000_5123)).unwrap();
        assert_eq!(m.drain_dirty_pages(), vec![1, 2, 3, 5]);
        assert!(m.drain_dirty_pages().is_empty(), "drain clears the bitmap");
        // Rewriting identical bytes still marks (never under-reports).
        m.write_u64(PhysAddr::new(0x8000_1008), 7).unwrap();
        assert_eq!(m.drain_dirty_pages(), vec![1]);
    }

    #[test]
    fn digest_is_independent_of_cache_state() {
        // Two memories driven identically must agree, regardless of how
        // often digest() was interleaved (exercising different cache paths).
        let mut a = mem();
        let mut b = mem();
        a.write_u64(PhysAddr::new(0x8000_3000), 0x1234).unwrap();
        let _ = a.digest(0); // refresh a's cache mid-sequence
        a.write_u64(PhysAddr::new(0x8000_4000), 0x5678).unwrap();
        b.write_u64(PhysAddr::new(0x8000_3000), 0x1234).unwrap();
        b.write_u64(PhysAddr::new(0x8000_4000), 0x5678).unwrap();
        assert_eq!(a.digest(9), b.digest(9));
        assert_ne!(a.digest(9), a.digest(10), "seed must fold in");
        // Any content change moves the digest; reverting restores it.
        let before = a.digest(0);
        a.write_u64(PhysAddr::new(0x8000_4000), 0x5679).unwrap();
        assert_ne!(a.digest(0), before);
        a.write_u64(PhysAddr::new(0x8000_4000), 0x5678).unwrap();
        assert_eq!(a.digest(0), before);
    }

    #[test]
    fn digest_distinguishes_page_placement() {
        // Identical contents on different pages must not cancel (the
        // per-page salt): swap two distinct pages and the digest moves.
        let mut a = mem();
        a.write_u64(PhysAddr::new(0x8000_1000), 0xaaaa).unwrap();
        a.write_u64(PhysAddr::new(0x8000_2000), 0xbbbb).unwrap();
        let mut b = mem();
        b.write_u64(PhysAddr::new(0x8000_1000), 0xbbbb).unwrap();
        b.write_u64(PhysAddr::new(0x8000_2000), 0xaaaa).unwrap();
        assert_ne!(a.digest(0), b.digest(0));
    }

    #[test]
    fn external_drain_does_not_perturb_digest() {
        let mut a = mem();
        let mut b = mem();
        for m in [&mut a, &mut b] {
            m.write_u64(PhysAddr::new(0x8000_6000), 0xfeed).unwrap();
        }
        let _ = a.drain_dirty_pages(); // external cursor consumed on a only
        assert_eq!(a.digest(0), b.digest(0));
    }
}
