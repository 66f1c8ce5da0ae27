//! Simulated flat physical memory.
//!
//! Memory is sparse and paged: only pages that have been touched are
//! materialized, so workloads can use widely spread address spaces (which
//! matters for cache index distribution) without allocating gigabytes on
//! the host. All accesses are 8-byte-aligned 64-bit words; workload
//! generators lay out their data structures accordingly.
//!
//! This sits on the interpreter's hottest path (every simulated load and
//! store resolves a page), so the representation is tuned for host
//! throughput while staying fully deterministic:
//!
//! * pages live in a slab (`Vec` of boxed page arrays) and a side index
//!   maps page number → slot, hashed with the cheap deterministic
//!   [`crate::fxhash`] hasher instead of SipHash;
//! * a direct-mapped software TLB (64 entries, indexed by the low
//!   page-number bits) short-circuits the index probe entirely for the
//!   overwhelmingly common recently-touched-page case — on the read
//!   ([`Memory::read_hot`]), host-prefetch ([`Memory::host_prefetch`])
//!   and write ([`Memory::write_hot`]) paths alike, so the index is
//!   probed once per TLB miss, not once per access;
//! * [`Memory::write_slice`] resolves each page once per page, not once
//!   per word.
//!
//! None of this is simulated-visible: reads and writes return the exact
//! same values, and untouched memory still reads as zero.

use crate::fxhash::FxHashMap;

/// Page size in bytes. 4 KiB, like a real small page.
pub const PAGE_BYTES: u64 = 4096;
const WORDS_PER_PAGE: usize = (PAGE_BYTES / 8) as usize;

/// TLB tag meaning "empty". Page numbers are `addr / PAGE_BYTES` so the
/// largest real tag is `u64::MAX / 4096`; `u64::MAX` can never collide.
const TLB_EMPTY: u64 = u64::MAX;

/// Software-TLB entries (direct-mapped on the low page-number bits):
/// 768 bytes of tags and slots, which stay in the host's L1. Sized for
/// the serving loop rather than one kernel — a primary and its
/// scavengers co-run on one `Memory`, each over a few pages of its own,
/// and at four entries they evicted one another on every switch.
const TLB_WAYS: usize = 64;

/// Sparse, paged, word-addressed memory.
#[derive(Clone, Debug)]
pub struct Memory {
    /// Page payloads, in materialization order.
    slabs: Vec<Box<[u64; WORDS_PER_PAGE]>>,
    /// Page number → slot in `slabs`.
    index: FxHashMap<u64, u32>,
    /// Software TLB tags: page numbers, direct-mapped by
    /// `page % TLB_WAYS` ([`TLB_EMPTY`] = invalid entry).
    tlb_pages: [u64; TLB_WAYS],
    /// Slots the TLB tags map to (valid only where the tag is).
    tlb_slots: [u32; TLB_WAYS],
}

impl Default for Memory {
    fn default() -> Self {
        Memory {
            slabs: Vec::new(),
            index: FxHashMap::default(),
            tlb_pages: [TLB_EMPTY; TLB_WAYS],
            tlb_slots: [0; TLB_WAYS],
        }
    }
}

/// Error returned by the checked access methods.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemError {
    /// The address is not 8-byte aligned.
    Unaligned {
        /// The offending address.
        addr: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::Unaligned { addr } => write!(f, "unaligned 64-bit access at {addr:#x}"),
        }
    }
}

impl std::error::Error for MemError {}

impl Memory {
    /// Creates an empty memory.
    pub(crate) fn new() -> Self {
        Memory::default()
    }

    /// The TLB entry `page` maps to (direct-mapped, low bits).
    #[inline]
    fn tlb_way(page: u64) -> usize {
        (page % TLB_WAYS as u64) as usize
    }

    /// Resolves `page` to its slab slot, materializing a zero page if
    /// needed, and caches the translation in the TLB.
    #[inline]
    fn resolve_mut(&mut self, page: u64) -> u32 {
        let slot = match self.index.get(&page) {
            Some(&s) => s,
            None => {
                let s = u32::try_from(self.slabs.len()).expect("page slab overflow");
                self.slabs.push(Box::new([0u64; WORDS_PER_PAGE]));
                self.index.insert(page, s);
                s
            }
        };
        let way = Self::tlb_way(page);
        self.tlb_pages[way] = page;
        self.tlb_slots[way] = slot;
        slot
    }

    /// Reads the 64-bit word at `addr`. Untouched memory reads as zero.
    ///
    /// Returns [`MemError::Unaligned`] if `addr` is not 8-byte aligned.
    #[inline]
    pub fn read(&self, addr: u64) -> Result<u64, MemError> {
        if !addr.is_multiple_of(8) {
            return Err(MemError::Unaligned { addr });
        }
        let page = addr / PAGE_BYTES;
        let word = ((addr % PAGE_BYTES) / 8) as usize;
        let way = Self::tlb_way(page);
        if page == self.tlb_pages[way] {
            return Ok(self.slabs[self.tlb_slots[way] as usize][word]);
        }
        Ok(self
            .index
            .get(&page)
            .map_or(0, |&s| self.slabs[s as usize][word]))
    }

    /// Translates `page` to its slab slot through the TLB, refilling it
    /// from the index on a miss. `None` means the page was never
    /// materialized (nothing is cached — there is no slot to cache).
    #[inline]
    fn translate(&mut self, page: u64) -> Option<u32> {
        let way = Self::tlb_way(page);
        if page == self.tlb_pages[way] {
            return Some(self.tlb_slots[way]);
        }
        let slot = *self.index.get(&page)?;
        self.tlb_pages[way] = page;
        self.tlb_slots[way] = slot;
        Some(slot)
    }

    /// Reads the 64-bit word at `addr`, refilling the TLB on miss.
    ///
    /// Same observable result as [`Memory::read`]; the interpreter's
    /// load path uses this so a run of same-page accesses pays the page
    /// index probe once. Reads of untouched addresses return zero
    /// without materializing the page.
    #[inline]
    pub fn read_hot(&mut self, addr: u64) -> Result<u64, MemError> {
        if !addr.is_multiple_of(8) {
            return Err(MemError::Unaligned { addr });
        }
        let word = ((addr % PAGE_BYTES) / 8) as usize;
        Ok(self
            .translate(addr / PAGE_BYTES)
            .map_or(0, |s| self.slabs[s as usize][word]))
    }

    /// Hints the host CPU to start fetching the slab word backing `addr`
    /// (see [`crate::host_prefetch`]).
    ///
    /// No simulated effect: nothing materializes, and unmapped addresses
    /// are ignored. The interpreter issues this before walking the cache
    /// hierarchy so the host fetch of the data overlaps the walk's own
    /// metadata traffic; the translation it resolves stays in the TLB, so
    /// the [`Memory::read_hot`] that ends the same load never probes the
    /// index again.
    #[inline]
    pub(crate) fn host_prefetch(&mut self, addr: u64) {
        let word = ((addr % PAGE_BYTES) / 8) as usize;
        if let Some(slot) = self.translate(addr / PAGE_BYTES) {
            crate::host_prefetch(&self.slabs[slot as usize][word]);
        }
    }

    /// Writes the 64-bit word at `addr`, materializing the page if needed.
    ///
    /// Returns [`MemError::Unaligned`] if `addr` is not 8-byte aligned.
    #[inline]
    pub fn write(&mut self, addr: u64, val: u64) -> Result<(), MemError> {
        self.write_hot(addr, val)
    }

    /// Writes the 64-bit word at `addr`, refilling the TLB on miss — the
    /// write-path mirror of [`Memory::read_hot`]'s discipline.
    ///
    /// Same observable result as [`Memory::write`] always had (writes
    /// must materialize, so resolving already refilled the TLB via
    /// [`Memory::resolve_mut`]); the interpreter's store paths use this
    /// so a run of same-page stores pays the page index probe once.
    #[inline]
    pub(crate) fn write_hot(&mut self, addr: u64, val: u64) -> Result<(), MemError> {
        if !addr.is_multiple_of(8) {
            return Err(MemError::Unaligned { addr });
        }
        let page = addr / PAGE_BYTES;
        let word = ((addr % PAGE_BYTES) / 8) as usize;
        let slot = match self.translate(page) {
            Some(slot) => slot,
            None => self.resolve_mut(page),
        };
        self.slabs[slot as usize][word] = val;
        Ok(())
    }

    /// Number of materialized pages (for footprint reporting in tests).
    pub fn resident_pages(&self) -> usize {
        self.slabs.len()
    }

    /// Resident footprint in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.slabs.len() as u64 * PAGE_BYTES
    }

    /// Bulk-writes a contiguous array of words starting at `base`.
    ///
    /// Convenience for workload layout code. Each touched page is
    /// resolved once and filled with a word-range copy, rather than
    /// paying a page lookup per word.
    ///
    /// # Panics
    ///
    /// Panics if `base` is unaligned (layout code bug, not a runtime
    /// condition).
    pub fn write_slice(&mut self, base: u64, words: &[u64]) {
        assert!(base.is_multiple_of(8), "unaligned bulk write at {base:#x}");
        let mut addr = base;
        let mut rest = words;
        while !rest.is_empty() {
            let page = addr / PAGE_BYTES;
            let word = ((addr % PAGE_BYTES) / 8) as usize;
            let n = (WORDS_PER_PAGE - word).min(rest.len());
            let slot = self.resolve_mut(page) as usize;
            self.slabs[slot][word..word + n].copy_from_slice(&rest[..n]);
            addr += 8 * n as u64;
            rest = &rest[n..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read(0).unwrap(), 0);
        assert_eq!(m.read(0xdead_beef_0000).unwrap(), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = Memory::new();
        m.write(64, 0x1234).unwrap();
        assert_eq!(m.read(64).unwrap(), 0x1234);
        // Neighbours unaffected.
        assert_eq!(m.read(56).unwrap(), 0);
        assert_eq!(m.read(72).unwrap(), 0);
    }

    #[test]
    fn unaligned_access_errors() {
        let mut m = Memory::new();
        assert_eq!(m.read(3), Err(MemError::Unaligned { addr: 3 }));
        assert_eq!(m.read_hot(3), Err(MemError::Unaligned { addr: 3 }));
        assert_eq!(m.write(9, 1), Err(MemError::Unaligned { addr: 9 }));
    }

    #[test]
    fn pages_materialize_lazily_and_sparsely() {
        let mut m = Memory::new();
        m.write(0, 1).unwrap();
        m.write(10 * PAGE_BYTES, 2).unwrap();
        m.write(10 * PAGE_BYTES + 8, 3).unwrap();
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.resident_bytes(), 2 * PAGE_BYTES);
    }

    #[test]
    fn page_boundary_words_are_independent() {
        let mut m = Memory::new();
        let last_word = PAGE_BYTES - 8;
        m.write(last_word, 7).unwrap();
        m.write(PAGE_BYTES, 8).unwrap();
        assert_eq!(m.read(last_word).unwrap(), 7);
        assert_eq!(m.read(PAGE_BYTES).unwrap(), 8);
    }

    #[test]
    fn write_slice_lays_out_contiguously() {
        let mut m = Memory::new();
        m.write_slice(128, &[10, 11, 12]);
        assert_eq!(m.read(128).unwrap(), 10);
        assert_eq!(m.read(136).unwrap(), 11);
        assert_eq!(m.read(144).unwrap(), 12);
    }

    #[test]
    #[should_panic(expected = "unaligned bulk write")]
    fn write_slice_unaligned_panics() {
        let mut m = Memory::new();
        m.write_slice(4, &[1]);
    }

    #[test]
    fn write_slice_spanning_pages_materializes_each_page_once() {
        // The satellite regression: a bulk write across page boundaries
        // must land every word and only materialize the pages it spans.
        let mut m = Memory::new();
        let words: Vec<u64> = (0..3 * WORDS_PER_PAGE as u64 + 5).collect();
        let base = PAGE_BYTES - 16; // straddle the first boundary
        m.write_slice(base, &words);
        for (i, &w) in words.iter().enumerate() {
            assert_eq!(m.read(base + 8 * i as u64).unwrap(), w, "word {i}");
        }
        // 2 words on page 0, then 3 full pages, then the tail.
        assert_eq!(m.resident_pages(), 5);
    }

    #[test]
    fn read_hot_matches_read_and_skips_materialization() {
        let mut m = Memory::new();
        m.write(0x5000, 77).unwrap();
        m.write(0x9000, 88).unwrap();
        // Hot reads agree with cold reads across TLB hits and misses,
        // including a miss on a never-touched page...
        for addr in [0x5000u64, 0x5008, 0x9000, 0x123_0000, 0x5000] {
            assert_eq!(m.read_hot(addr).unwrap(), m.read(addr).unwrap());
        }
        // ...which must not materialize anything.
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn tlb_does_not_leak_stale_translations_across_clones() {
        let mut a = Memory::new();
        a.write(0x1000, 1).unwrap();
        let mut b = a.clone();
        b.write(0x1000, 2).unwrap();
        b.write(0x2000, 3).unwrap();
        assert_eq!(a.read(0x1000).unwrap(), 1);
        assert_eq!(a.read(0x2000).unwrap(), 0);
        assert_eq!(b.read_hot(0x1000).unwrap(), 2);
        assert_eq!(b.read_hot(0x2000).unwrap(), 3);
    }

    #[test]
    fn write_hot_matches_write_and_accounts_residency_identically() {
        // The satellite differential: a mixed read/write trace through
        // the hot paths must leave the same values and the same resident
        // footprint as the cold paths.
        let mk_trace = || -> Vec<(u64, u64)> {
            // Addresses spanning TLB-conflicting pages (same way), fresh
            // pages, and repeats.
            vec![
                (0x0000, 1),
                (0x1000, 2),
                (TLB_WAYS as u64 * PAGE_BYTES, 3), // same way as 0x0000
                (0x0008, 4),
                (0x9000, 5),
                (TLB_WAYS as u64 * PAGE_BYTES, 6), // overwrite
            ]
        };
        let mut hot = Memory::new();
        let mut cold = Memory::new();
        for (addr, val) in mk_trace() {
            hot.write_hot(addr, val).unwrap();
            assert_eq!(hot.read_hot(addr).unwrap(), val);
            // Reference path: resolve through the index only.
            cold.write_slice(addr, &[val]);
        }
        for (addr, _) in mk_trace() {
            assert_eq!(hot.read(addr).unwrap(), cold.read(addr).unwrap());
        }
        assert_eq!(hot.resident_pages(), cold.resident_pages());
        assert_eq!(hot.resident_bytes(), cold.resident_bytes());
    }

    #[test]
    fn direct_mapped_tlb_survives_way_conflicts() {
        let mut m = Memory::new();
        // Pages 0, WAYS and 2*WAYS all map to way 0; interleave them
        // with pages 1 and 2.
        let ways = TLB_WAYS as u64;
        let bases = [0, ways, 2 * ways, 1, 2].map(|page| page * PAGE_BYTES);
        assert_eq!(Memory::tlb_way(ways), Memory::tlb_way(2 * ways));
        for (i, base) in bases.iter().enumerate() {
            m.write_hot(*base, i as u64 + 10).unwrap();
        }
        for (i, base) in bases.iter().enumerate() {
            assert_eq!(m.read_hot(*base).unwrap(), i as u64 + 10);
            assert_eq!(m.read(*base).unwrap(), i as u64 + 10);
        }
        assert_eq!(m.resident_pages(), 5);
    }

    #[test]
    fn hot_paths_match_a_word_map_past_the_tlb_reach() {
        // Three times as many pages as TLB entries, visited in a seeded
        // order with repeats, so every way is refilled and conflicted;
        // every third page stays unmapped. The reference is a plain
        // address → word map.
        let pages = 3 * TLB_WAYS as u64;
        let mut rng = crate::rng::SplitMix64::new(14);
        let mut m = Memory::new();
        let mut words = std::collections::HashMap::new();
        for step in 1..20 * pages {
            let page = rng.next_below(pages);
            let addr = page * PAGE_BYTES + 8 * rng.next_below(WORDS_PER_PAGE as u64);
            if !page.is_multiple_of(3) && rng.next_below(3) == 0 {
                m.write_hot(addr, step).unwrap();
                words.insert(addr, step);
            }
            let want = words.get(&addr).copied().unwrap_or(0);
            m.host_prefetch(addr);
            assert_eq!(m.read_hot(addr).unwrap(), want, "step {step}");
            assert_eq!(m.read(addr).unwrap(), want, "step {step}");
        }
        let mapped: std::collections::HashSet<u64> =
            words.keys().map(|addr| addr / PAGE_BYTES).collect();
        assert!(mapped.len() > TLB_WAYS);
        assert_eq!(
            m.resident_pages(),
            mapped.len(),
            "reads materialize nothing"
        );
    }
}
