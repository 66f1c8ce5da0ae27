//! Simulated flat physical memory.
//!
//! Memory is sparse: only what has been written is materialized, so
//! workloads can use widely spread address spaces (which matters for
//! cache index distribution) without allocating gigabytes on the host.
//! All accesses are 8-byte-aligned 64-bit words; workload generators lay
//! out their data structures accordingly.
//!
//! Two granularities are at work. Translation is per 4 KiB page
//! ([`PAGE_BYTES`]): a page index and a software TLB map a page number
//! to a page entry. Materialization is per 512-byte frame: a page entry
//! holds eight frames, and each frame is allocated on its first write,
//! so a page with one live word costs 512 bytes, not 4 KiB. Frames are
//! shared copy-on-write between clones: cloning a `Memory` copies one
//! reference per frame, and a store into a frame that another clone
//! still holds copies that frame first.
//!
//! This sits on the interpreter's hottest path (every simulated load and
//! store resolves a page), so the representation is tuned for host
//! throughput while staying fully deterministic:
//!
//! * page entries live in a `Vec` and a side index maps page number →
//!   entry slot, hashed with the cheap deterministic [`crate::fxhash`]
//!   hasher instead of SipHash;
//! * a direct-mapped software TLB (64 entries, indexed by the low
//!   page-number bits) short-circuits the index probe entirely for the
//!   overwhelmingly common recently-touched-page case — on the read
//!   ([`Memory::read_hot`]), host-prefetch ([`Memory::host_prefetch`])
//!   and write ([`Memory::write_hot`]) paths alike, so the index is
//!   probed once per TLB miss, not once per access. A TLB hit reaches a
//!   word through the slot, the page entry and the frame;
//! * [`Memory::write_slice`] resolves each page once and each frame
//!   once, not once per word.
//!
//! None of this is simulated-visible: reads and writes return the exact
//! same values, and unwritten memory still reads as zero.

use std::sync::Arc;

use crate::fxhash::FxHashMap;

/// Page size in bytes: 4 KiB, like a real small page.
///
/// This is the unit of translation (the page index and the TLB map page
/// numbers) and the alignment workload layout code rounds allocations
/// to. It is not the unit of materialization: memory is allocated in
/// 512-byte frames, eight to a page.
pub const PAGE_BYTES: u64 = 4096;
const WORDS_PER_PAGE: usize = (PAGE_BYTES / 8) as usize;

/// Frame size in bytes: the unit of materialization and of
/// copy-on-write sharing between clones.
const FRAME_BYTES: u64 = 512;
const WORDS_PER_FRAME: usize = (FRAME_BYTES / 8) as usize;
const FRAMES_PER_PAGE: usize = (PAGE_BYTES / FRAME_BYTES) as usize;

/// One materialized frame, shared by every clone that has not stored
/// into it since the clone was made.
type Frame = Arc<[u64; WORDS_PER_FRAME]>;

/// A page entry: its frames, `None` where nothing was ever written (such
/// a frame reads as zero).
type Page = [Option<Frame>; FRAMES_PER_PAGE];

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
///
/// `clone` copies the page index, the TLB and one reference per frame,
/// never frame contents; the TLB stays valid in the copy because page
/// entries keep their slots.
#[derive(Clone, Debug)]
pub struct Memory {
    /// Page entries, in materialization order.
    pages: Vec<Page>,
    /// Page number → slot in `pages`.
    index: FxHashMap<u64, u32>,
    /// Materialized frames across all pages.
    frames: usize,
    /// Software TLB tags: page numbers, direct-mapped by
    /// `page % TLB_WAYS` ([`TLB_EMPTY`] = invalid entry).
    tlb_pages: [u64; TLB_WAYS],
    /// Slots the TLB tags map to (valid only where the tag is).
    tlb_slots: [u32; TLB_WAYS],
}

// The fleet serves its shards on scoped threads, each owning a
// `Machine`, and clones of one machine share frames across them.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<crate::Machine>();
};

impl Default for Memory {
    fn default() -> Self {
        Memory {
            pages: Vec::new(),
            index: FxHashMap::default(),
            frames: 0,
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

/// Splits `addr` into its page number, its frame within the page and
/// its word within the frame.
#[inline]
fn locate(addr: u64) -> (u64, usize, usize) {
    let word = ((addr % PAGE_BYTES) / 8) as usize;
    (
        addr / PAGE_BYTES,
        word / WORDS_PER_FRAME,
        word % WORDS_PER_FRAME,
    )
}

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

    /// Resolves `page` to its entry slot, creating an empty entry if
    /// needed, and caches the translation in the TLB.
    #[inline]
    fn resolve_mut(&mut self, page: u64) -> u32 {
        let slot = match self.index.get(&page) {
            Some(&s) => s,
            None => {
                let s = u32::try_from(self.pages.len()).expect("page slot overflow");
                self.pages.push(Page::default());
                self.index.insert(page, s);
                s
            }
        };
        let way = Self::tlb_way(page);
        self.tlb_pages[way] = page;
        self.tlb_slots[way] = slot;
        slot
    }

    /// The word at `(slot, frame, word)`; zero if the frame is absent.
    #[inline]
    fn load(&self, slot: u32, frame: usize, word: usize) -> u64 {
        self.pages[slot as usize][frame]
            .as_ref()
            .map_or(0, |f| f[word])
    }

    /// The frame at `(slot, frame)` for writing: materialized if absent,
    /// and copied first if another clone still shares it.
    #[inline]
    fn frame_mut(&mut self, slot: u32, frame: usize) -> &mut [u64; WORDS_PER_FRAME] {
        let frames = &mut self.frames;
        let frame = self.pages[slot as usize][frame].get_or_insert_with(|| {
            *frames += 1;
            Arc::new([0; WORDS_PER_FRAME])
        });
        Arc::make_mut(frame)
    }

    /// Reads the 64-bit word at `addr`. Unwritten memory reads as zero.
    ///
    /// Returns [`MemError::Unaligned`] if `addr` is not 8-byte aligned.
    #[inline]
    pub fn read(&self, addr: u64) -> Result<u64, MemError> {
        if !addr.is_multiple_of(8) {
            return Err(MemError::Unaligned { addr });
        }
        let (page, frame, word) = locate(addr);
        let way = Self::tlb_way(page);
        if page == self.tlb_pages[way] {
            return Ok(self.load(self.tlb_slots[way], frame, word));
        }
        Ok(self
            .index
            .get(&page)
            .map_or(0, |&s| self.load(s, frame, word)))
    }

    /// Translates `page` to its entry slot through the TLB, refilling it
    /// from the index on a miss. `None` means nothing on the page was
    /// ever written (nothing is cached — there is no slot to cache).
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
    /// index probe once. Reads of unwritten addresses return zero
    /// without materializing anything.
    #[inline]
    pub fn read_hot(&mut self, addr: u64) -> Result<u64, MemError> {
        if !addr.is_multiple_of(8) {
            return Err(MemError::Unaligned { addr });
        }
        let (page, frame, word) = locate(addr);
        Ok(self
            .translate(page)
            .map_or(0, |s| self.load(s, frame, word)))
    }

    /// Hints the host CPU to start fetching the frame word backing
    /// `addr` (see [`crate::host_prefetch`]).
    ///
    /// No simulated effect: nothing materializes, and unwritten
    /// addresses are ignored. The interpreter issues this before walking
    /// the cache hierarchy so the host fetch of the data overlaps the
    /// walk's own metadata traffic; the translation it resolves stays in
    /// the TLB, so the [`Memory::read_hot`] that ends the same load never
    /// probes the index again.
    #[inline]
    pub(crate) fn host_prefetch(&mut self, addr: u64) {
        let (page, frame, word) = locate(addr);
        if let Some(slot) = self.translate(page) {
            if let Some(f) = &self.pages[slot as usize][frame] {
                crate::host_prefetch(&f[word]);
            }
        }
    }

    /// Writes the 64-bit word at `addr`, materializing its frame if
    /// needed.
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
        let (page, frame, word) = locate(addr);
        let slot = match self.translate(page) {
            Some(slot) => slot,
            None => self.resolve_mut(page),
        };
        self.frame_mut(slot, frame)[word] = val;
        Ok(())
    }

    /// Number of pages with at least one materialized frame (for
    /// footprint reporting in tests).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Resident footprint in bytes: materialized frames times their
    /// size. A frame that clones share counts once in each of them.
    pub fn resident_bytes(&self) -> u64 {
        self.frames as u64 * FRAME_BYTES
    }

    /// Bulk-writes a contiguous array of words starting at `base`.
    ///
    /// Convenience for workload layout code. Each touched page is
    /// resolved once and each touched frame filled with one word-range
    /// copy, rather than paying a page lookup per word.
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
            let first = ((addr % PAGE_BYTES) / 8) as usize;
            let end = (first + rest.len()).min(WORDS_PER_PAGE);
            let slot = self.resolve_mut(page);
            let mut word = first;
            while word < end {
                let (frame, off) = (word / WORDS_PER_FRAME, word % WORDS_PER_FRAME);
                let n = (WORDS_PER_FRAME - off).min(end - word);
                let (chunk, tail) = rest.split_at(n);
                self.frame_mut(slot, frame)[off..off + n].copy_from_slice(chunk);
                rest = tail;
                word += n;
            }
            addr += 8 * (end - first) as u64;
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
        // One frame on page 0, one on page 10 (both words share it).
        assert_eq!(m.resident_bytes(), 2 * 512);
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

    #[test]
    fn clones_match_their_own_word_maps() {
        // A seeded interleaving of clones, drops, stores, bulk stores and
        // reads. Every live copy is checked after every step against its
        // own address → word map, so a store that leaks into a frame a
        // sibling shares, a lost or misplaced word, or a miscounted frame
        // fails at the step that caused it. The pages include two pairs
        // that share a TLB way, and bulk stores cross frame and page
        // boundaries.
        #[derive(Clone, Default)]
        struct Model {
            words: std::collections::HashMap<u64, u64>,
            pages: std::collections::HashSet<u64>,
            frames: std::collections::HashSet<u64>,
        }
        impl Model {
            fn store(&mut self, addr: u64, val: u64) {
                self.words.insert(addr, val);
                self.pages.insert(addr / PAGE_BYTES);
                self.frames.insert(addr / FRAME_BYTES);
            }
            fn check(&self, m: &mut Memory, addr: u64, step: u64) {
                let want = self.words.get(&addr).copied().unwrap_or(0);
                m.host_prefetch(addr);
                assert_eq!(m.read_hot(addr).unwrap(), want, "step {step} at {addr:#x}");
                assert_eq!(m.read(addr).unwrap(), want, "step {step} at {addr:#x}");
                assert_eq!(m.resident_pages(), self.pages.len(), "step {step}");
                assert_eq!(
                    m.resident_bytes(),
                    self.frames.len() as u64 * FRAME_BYTES,
                    "step {step}"
                );
            }
        }

        let ways = TLB_WAYS as u64;
        let pages = [0, 1, ways, ways + 1, 5, 3 * ways + 9];
        let mut rng = crate::rng::SplitMix64::new(34);
        let mut copies = vec![(Memory::new(), Model::default())];
        let mut clones = 0;
        for step in 0..6000 {
            let i = rng.next_below(copies.len() as u64) as usize;
            let page = pages[rng.next_below(pages.len() as u64) as usize];
            let addr = page * PAGE_BYTES + 8 * rng.next_below(WORDS_PER_PAGE as u64);
            let val = match rng.next_below(8) {
                0 => 0,
                _ => rng.next_u64(),
            };
            match rng.next_below(16) {
                0 | 1 if copies.len() < 5 => {
                    copies.push(copies[i].clone());
                    clones += 1;
                }
                2 if copies.len() > 1 => drop(copies.swap_remove(i)),
                3..=7 => {
                    let (m, model) = &mut copies[i];
                    if step % 2 == 0 {
                        m.write(addr, val).unwrap();
                    } else {
                        m.write_hot(addr, val).unwrap();
                    }
                    model.store(addr, val);
                }
                8 | 9 => {
                    let len = 1 + rng.next_below(2 * WORDS_PER_PAGE as u64 + 3);
                    let words: Vec<u64> = (0..len).map(|k| val ^ k).collect();
                    let (m, model) = &mut copies[i];
                    m.write_slice(addr, &words);
                    for (k, &w) in words.iter().enumerate() {
                        model.store(addr + 8 * k as u64, w);
                    }
                }
                _ => {}
            }
            // The step's address, its neighbours, the first word of its
            // frame and of the next page, on every live copy.
            let probes = [
                addr,
                addr.saturating_sub(8),
                addr + 8,
                addr / FRAME_BYTES * FRAME_BYTES,
                (page + 1) * PAGE_BYTES,
            ];
            for (m, model) in &mut copies {
                for probe in probes {
                    model.check(m, probe, step);
                }
            }
        }
        assert!(clones > 100, "the trace exercises sharing");
        for (m, model) in &mut copies {
            for &addr in model.words.keys() {
                model.check(m, addr, u64::MAX);
            }
        }
    }
}
