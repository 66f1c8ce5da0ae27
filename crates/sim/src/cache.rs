//! Set-associative cache hierarchy with in-flight fill (MSHR) tracking.
//!
//! Three levels (L1/L2/L3) plus a DRAM latency model. The hierarchy is
//! *mostly inclusive*: a fill installs the line at every level; evictions do
//! not back-invalidate inner levels, and there is no dirty/write-back cost
//! modelling — neither affects the stall structure the paper's mechanism
//! targets (demand-miss latency and prefetch overlap).
//!
//! Prefetches allocate an MSHR entry and install the line only when the
//! fill completes; a demand access that arrives while the fill is in flight
//! pays only the *remaining* latency. This is exactly the overlap window
//! profile-guided `prefetch+yield` instrumentation exploits.
//!
//! [`Hierarchy::access`] runs once per simulated load, and most loads hit
//! L1, so that case is kept to one indexed probe per structure. None of
//! it is simulated-visible (`tests/prop_cache.rs` holds the hierarchy to
//! a reference model written without any of it):
//!
//! * the MSHRs are a flat vector beside a completion watermark, so
//!   draining costs one compare until a fill has actually completed;
//! * each set remembers its most recently used way, which `lookup`
//!   verifies against the line metadata before falling back to the scan;
//! * the host-prefetch hints for the L2/L3 set metadata are issued only
//!   once L1 has missed.

use crate::config::MachineConfig;

/// Which level serviced an access. `Mem` means a full miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Last-level cache.
    L3,
    /// DRAM.
    Mem,
}

impl Level {
    /// Index 0..=3 for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Level::L1 => 0,
            Level::L2 => 1,
            Level::L3 => 2,
            Level::Mem => 3,
        }
    }

    /// The level for an index 0..=3.
    ///
    /// # Panics
    ///
    /// Panics on an index greater than 3.
    pub fn from_index(i: usize) -> Level {
        match i {
            0 => Level::L1,
            1 => Level::L2,
            2 => Level::L3,
            3 => Level::Mem,
            _ => panic!("no cache level with index {i}"),
        }
    }
}

/// The outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The level that serviced the request (for an access that merged with
    /// an in-flight fill, the level that fill was fetching from).
    pub level: Level,
    /// Absolute cycle at which the data is available.
    pub ready: u64,
    /// Whether this demand access merged with an in-flight (prefetched)
    /// fill and therefore paid only part of the full latency.
    pub merged_with_fill: bool,
}

/// One cache line's metadata, packed to 16 bytes so a 16-way set scan
/// touches 4 host cache lines instead of 6 (the scan is the hot loop of
/// every simulated load).
///
/// Validity is encoded in the stamp: per-level stamps are pre-incremented
/// before every write, so a present line always has `stamp >= 1` and
/// `stamp == 0` means invalid. This also unifies victim selection —
/// the first way with the minimal stamp is the first free way when one
/// exists (stamp 0), and the first LRU way otherwise, exactly the
/// priorities of the explicit free-way/LRU scans it replaces.
#[derive(Clone, Copy, Debug)]
struct LineMeta {
    tag: u64,
    /// LRU timestamp (monotonically increasing access stamp); 0 = invalid.
    stamp: u64,
}

impl LineMeta {
    #[inline]
    fn is(&self, tag: u64) -> bool {
        self.stamp != 0 && self.tag == tag
    }
}

const INVALID: LineMeta = LineMeta { tag: 0, stamp: 0 };

/// A single set-associative cache level with LRU replacement.
#[derive(Clone, Debug)]
struct CacheLevel {
    /// `sets * ways` line metadata, row-major by set.
    lines: Vec<LineMeta>,
    /// Per set, the way that last hit or was last installed: where
    /// `lookup` looks first. A hint and nothing more — it is verified
    /// against the way's `LineMeta` and never trusted, so invalidation
    /// and eviction need not maintain it, and a truncated index (more
    /// than 256 ways) merely guesses wrong.
    mru: Vec<u8>,
    ways: usize,
    set_mask: u64,
    stamp: u64,
}

impl CacheLevel {
    fn new(sets: usize, ways: usize) -> Self {
        CacheLevel {
            lines: vec![INVALID; sets * ways],
            mru: vec![0; sets],
            ways,
            set_mask: sets as u64 - 1,
            stamp: 0,
        }
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr & self.set_mask) as usize
    }

    #[inline]
    fn set_range(&self, line_addr: u64) -> std::ops::Range<usize> {
        let set = self.set_of(line_addr);
        set * self.ways..(set + 1) * self.ways
    }

    /// Hints the host to start fetching this set's metadata (one hint per
    /// 64-byte host line, i.e. per four `LineMeta`). Issued for L2 and L3
    /// together once L1 has missed, so the L3 scan finds its set already
    /// in flight — for the megabytes of L3 metadata this turns serialized
    /// host misses into overlapped ones.
    #[inline]
    fn prefetch_set(&self, line_addr: u64) {
        let r = self.set_range(line_addr);
        let mut i = r.start;
        while i < r.end {
            crate::host_prefetch(&self.lines[i]);
            i += 4;
        }
    }

    /// Looks up `line_addr`; on hit refreshes LRU and returns `true`.
    ///
    /// Probes the set's MRU way before scanning. A line sits in at most
    /// one way of its set, so a verified guess is the way the scan would
    /// have found: stamps, and with them every later victim, are the same.
    #[inline]
    fn lookup(&mut self, line_addr: u64) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_of(line_addr);
        let base = set * self.ways;
        let guess = &mut self.lines[base + self.mru[set] as usize];
        if guess.is(line_addr) {
            guess.stamp = stamp;
            return true;
        }
        for (way, meta) in self.lines[base..base + self.ways].iter_mut().enumerate() {
            if meta.is(line_addr) {
                meta.stamp = stamp;
                self.mru[set] = way as u8;
                return true;
            }
        }
        false
    }

    /// Read-only presence check (does not perturb LRU) — used by the §4.1
    /// presence probe.
    fn contains(&self, line_addr: u64) -> bool {
        let range = self.set_range(line_addr);
        self.lines[range].iter().any(|m| m.is(line_addr))
    }

    /// Installs `line_addr`, evicting the LRU way if the set is full.
    /// Returns the evicted line address, if any.
    ///
    /// Single pass over the set (it runs once per fill on the
    /// interpreter's load path), with the same priorities and
    /// tie-breaking as the obvious three-scan version: refresh if
    /// present, else first free way, else first way with the minimal
    /// LRU stamp.
    fn install(&mut self, line_addr: u64) -> Option<u64> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set_index = self.set_of(line_addr);
        let range = self.set_range(line_addr);
        let set = &mut self.lines[range];
        let mut victim = 0usize;
        let mut min_stamp = u64::MAX;
        for (i, meta) in set.iter_mut().enumerate() {
            if meta.is(line_addr) {
                // Already present (e.g. re-install after an inner-level
                // miss): refresh.
                meta.stamp = stamp;
                self.mru[set_index] = i as u8;
                return None;
            }
            if meta.stamp < min_stamp {
                min_stamp = meta.stamp;
                victim = i;
            }
        }
        let evicted = if min_stamp == 0 {
            None // took a free way, nothing evicted
        } else {
            Some(set[victim].tag)
        };
        set[victim] = LineMeta {
            tag: line_addr,
            stamp,
        };
        self.mru[set_index] = victim as u8;
        evicted
    }

    /// Invalidates `line_addr` if present (used by tests and flush).
    fn invalidate(&mut self, line_addr: u64) {
        let range = self.set_range(line_addr);
        for meta in &mut self.lines[range] {
            if meta.is(line_addr) {
                meta.stamp = 0;
            }
        }
    }

    fn clear(&mut self) {
        self.lines.fill(INVALID);
    }
}

/// Per-hierarchy event counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses serviced per level (`[l1, l2, l3, mem]`).
    pub demand_hits: [u64; 4],
    /// Demand accesses that merged with an in-flight prefetch.
    pub demand_merged: u64,
    /// Software prefetches issued.
    pub prefetches: u64,
    /// Software prefetches that were useless (line already in L1).
    pub prefetch_useless: u64,
    /// Hardware next-line prefetches issued.
    pub hw_prefetches: u64,
}

/// The full L1/L2/L3 + memory hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: CacheLevel,
    l2: CacheLevel,
    l3: CacheLevel,
    latencies: [u64; 4],
    line_shift: u32,
    /// Next-line hardware prefetcher degree (0 = off).
    hw_degree: usize,
    /// In-flight fills, at most one per line, in no particular order: a
    /// blocking core keeps one or two in flight and prefetching code a
    /// handful, so a linear scan beats hashing the line address.
    mshr: Vec<Fill>,
    /// Completion watermark: the earliest `ready` in `mshr`, `u64::MAX`
    /// when it is empty. Kept exact by every insertion and removal, so
    /// the per-access drain is one compare while nothing has completed.
    next_ready: u64,
    /// Statistics.
    pub stats: CacheStats,
}

/// One in-flight fill (an occupied MSHR).
#[derive(Clone, Copy, Debug)]
struct Fill {
    line: u64,
    /// Absolute cycle at which the fill completes.
    ready: u64,
    /// The level the fill is fetching from.
    origin: Level,
}

/// Kind of hierarchy access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A demand load: the context will wait for `ready`.
    DemandLoad,
    /// A store (write-allocate, non-blocking).
    Store,
    /// A software prefetch (non-blocking, installs at completion).
    Prefetch,
}

impl Hierarchy {
    /// Builds a hierarchy from the machine configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`MachineConfig::assert_valid`]).
    pub fn new(cfg: &MachineConfig) -> Self {
        cfg.assert_valid();
        let line = cfg.line_bytes;
        Hierarchy {
            l1: CacheLevel::new(cfg.l1.sets(line), cfg.l1.ways),
            l2: CacheLevel::new(cfg.l2.sets(line), cfg.l2.ways),
            l3: CacheLevel::new(cfg.l3.sets(line), cfg.l3.ways),
            latencies: [
                cfg.l1.hit_latency,
                cfg.l2.hit_latency,
                cfg.l3.hit_latency,
                cfg.mem_latency,
            ],
            line_shift: line.trailing_zeros(),
            hw_degree: cfg.hw_prefetch_degree,
            mshr: Vec::new(),
            next_ready: u64::MAX,
            stats: CacheStats::default(),
        }
    }

    /// Re-applies the per-level service latencies from `cfg` without
    /// touching cache contents, statistics, or in-flight fills. The
    /// multi-core model uses this to impose shared-L3/DRAM contention
    /// penalties at epoch boundaries: geometry never changes, only the
    /// cost of an L3 hit and a memory fill. Fills already in flight keep
    /// the completion cycle they were issued with.
    pub fn set_latencies(&mut self, cfg: &MachineConfig) {
        self.latencies = [
            cfg.l1.hit_latency,
            cfg.l2.hit_latency,
            cfg.l3.hit_latency,
            cfg.mem_latency,
        ];
    }

    /// The line address (tag+index, i.e. byte address >> line bits) for a
    /// byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The in-flight fill for `line`, if any.
    #[inline]
    fn inflight(&self, line: u64) -> Option<Fill> {
        self.mshr.iter().find(|f| f.line == line).copied()
    }

    /// Allocates an MSHR for `line`, which must not have one.
    #[inline]
    fn start_fill(&mut self, line: u64, ready: u64, origin: Level) {
        debug_assert!(self.inflight(line).is_none(), "one fill per line");
        self.mshr.push(Fill {
            line,
            ready,
            origin,
        });
        self.next_ready = self.next_ready.min(ready);
    }

    /// The completion watermark recomputed from what is in flight.
    fn earliest_ready(&self) -> u64 {
        self.mshr.iter().map(|f| f.ready).min().unwrap_or(u64::MAX)
    }

    /// Drops the in-flight fill for `line`, if any, without installing it.
    fn cancel_fill(&mut self, line: u64) {
        if let Some(i) = self.mshr.iter().position(|f| f.line == line) {
            self.mshr.swap_remove(i);
            self.next_ready = self.earliest_ready();
        }
    }

    /// Completes every in-flight fill whose completion cycle is ≤ `now`,
    /// installing the lines into all levels.
    ///
    /// Completed fills install in (ready, line) order so that LRU stamps —
    /// and therefore every downstream result — do not depend on the order
    /// the fills sit in `mshr`.
    #[inline]
    fn drain_fills(&mut self, now: u64) {
        while self.next_ready <= now {
            let earliest = (0..self.mshr.len()).min_by_key(|&i| {
                let f = &self.mshr[i];
                (f.ready, f.line)
            });
            // Nothing in flight and `now` is `u64::MAX` itself.
            let Some(i) = earliest else { return };
            let line = self.mshr.swap_remove(i).line;
            self.install_all(line);
            self.next_ready = self.earliest_ready();
        }
    }

    fn install_all(&mut self, line: u64) {
        self.l3.install(line);
        self.l2.install(line);
        self.l1.install(line);
    }

    /// Performs an access of `kind` to byte address `addr` at cycle `now`.
    ///
    /// For [`AccessKind::DemandLoad`] the returned [`Access::ready`] is
    /// when the value is available; the caller charges the stall. Stores
    /// and prefetches return immediately-usable results (the caller charges
    /// only their issue cost).
    pub fn access(&mut self, addr: u64, now: u64, kind: AccessKind) -> Access {
        let line = self.line_of(addr);
        self.drain_fills(now);

        if kind == AccessKind::DemandLoad {
            self.train_hw_prefetcher(line, now);
        }

        // Merge with an in-flight fill: pay only the remaining latency.
        if let Some(Fill { ready, origin, .. }) = self.inflight(line) {
            match kind {
                AccessKind::DemandLoad => {
                    self.stats.demand_merged += 1;
                    self.stats.demand_hits[origin.index()] += 1;
                    return Access {
                        level: origin,
                        ready,
                        merged_with_fill: true,
                    };
                }
                AccessKind::Store | AccessKind::Prefetch => {
                    return Access {
                        level: origin,
                        ready,
                        merged_with_fill: true,
                    };
                }
            }
        }

        // Walk the hierarchy.
        let level = if self.l1.lookup(line) {
            Level::L1
        } else {
            // Host-side overlap only (no simulated effect): the outer
            // levels' set metadata is needed only now that L1 has missed,
            // so the hints are keyed on that outcome — the common L1 hit
            // never reads those sets and pays for no hint.
            self.l2.prefetch_set(line);
            self.l3.prefetch_set(line);
            if self.l2.lookup(line) {
                Level::L2
            } else if self.l3.lookup(line) {
                Level::L3
            } else {
                Level::Mem
            }
        };
        let ready = now + self.latencies[level.index()];

        match kind {
            AccessKind::DemandLoad => {
                self.stats.demand_hits[level.index()] += 1;
                // Misses allocate an MSHR; the line installs when the fill
                // completes (drained by a later access). A blocked consumer
                // stalls until `ready`, so by the time it proceeds the fill
                // is done; a switch-on-stall consumer parks and other
                // contexts merging with the fill pay only the remainder.
                if level != Level::L1 {
                    self.start_fill(line, ready, level);
                }
            }
            AccessKind::Store => {
                // Write-allocate through a store buffer: the store itself
                // never blocks, and we install immediately (the fill's
                // timing is hidden behind the store buffer).
                if level != Level::L1 {
                    self.install_all(line);
                }
            }
            AccessKind::Prefetch => {
                self.stats.prefetches += 1;
                if level == Level::L1 {
                    // Already as close as it gets: nothing to do.
                    self.stats.prefetch_useless += 1;
                } else {
                    self.start_fill(line, ready, level);
                }
            }
        }
        Access {
            level,
            ready,
            merged_with_fill: false,
        }
    }

    /// Next-line hardware prefetcher: every demand load (hit, merged or
    /// miss) keeps the following `hw_degree` sequential lines resident or
    /// in flight — the streamer behaviour that lets it run ahead of a
    /// sequential consumer.
    fn train_hw_prefetcher(&mut self, line: u64, now: u64) {
        for d in 1..=self.hw_degree {
            let nl = line + d as u64;
            if self.inflight(nl).is_some()
                || self.l1.contains(nl)
                || self.l2.contains(nl)
                || self.l3.contains(nl)
            {
                continue;
            }
            self.stats.hw_prefetches += 1;
            self.start_fill(nl, now + self.latencies[Level::Mem.index()], Level::Mem);
        }
    }

    /// §4.1 presence probe: returns the level the line currently resides
    /// in, treating in-flight fills that have completed by `now` as
    /// resident. Does not perturb LRU state or statistics.
    pub fn probe(&self, addr: u64, now: u64) -> Level {
        let line = self.line_of(addr);
        if self.l1.contains(line) {
            return Level::L1;
        }
        if self.inflight(line).is_some_and(|f| f.ready <= now) {
            return Level::L1; // installed everywhere on drain
        }
        if self.l2.contains(line) {
            return Level::L2;
        }
        if self.l3.contains(line) {
            return Level::L3;
        }
        Level::Mem
    }

    /// Invalidates a line everywhere (test/fault-injection hook).
    pub fn invalidate(&mut self, addr: u64) {
        let line = self.line_of(addr);
        self.l1.invalidate(line);
        self.l2.invalidate(line);
        self.l3.invalidate(line);
        self.cancel_fill(line);
    }

    /// Empties all levels and MSHRs (cold-cache reset between experiment
    /// phases).
    pub fn flush(&mut self) {
        self.l1.clear();
        self.l2.clear();
        self.l3.clear();
        self.mshr.clear();
        self.next_ready = u64::MAX;
    }

    /// Number of fills currently in flight.
    pub fn inflight_fills(&self) -> usize {
        self.mshr.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(&MachineConfig::default())
    }

    #[test]
    fn cold_access_misses_to_memory_then_hits_l1() {
        let mut h = hierarchy();
        let a = h.access(0x1000, 0, AccessKind::DemandLoad);
        assert_eq!(a.level, Level::Mem);
        assert_eq!(a.ready, 300);
        let b = h.access(0x1000, 400, AccessKind::DemandLoad);
        assert_eq!(b.level, Level::L1);
        assert_eq!(b.ready, 404);
    }

    #[test]
    fn same_line_different_word_hits() {
        let mut h = hierarchy();
        h.access(0x1000, 0, AccessKind::DemandLoad);
        let a = h.access(0x1038, 400, AccessKind::DemandLoad);
        assert_eq!(a.level, Level::L1, "0x1038 shares the 64B line of 0x1000");
        let b = h.access(0x1040, 500, AccessKind::DemandLoad);
        assert_eq!(b.level, Level::Mem, "0x1040 is the next line");
    }

    #[test]
    fn prefetch_then_demand_pays_remaining_latency() {
        let mut h = hierarchy();
        h.access(0x2000, 0, AccessKind::Prefetch);
        assert_eq!(h.inflight_fills(), 1);
        // Demand arrives 100 cycles later; fill completes at 300.
        let a = h.access(0x2000, 100, AccessKind::DemandLoad);
        assert!(a.merged_with_fill);
        assert_eq!(a.ready, 300, "pays only the remaining 200 cycles");
        assert_eq!(h.stats.demand_merged, 1);
    }

    #[test]
    fn prefetch_completes_and_installs() {
        let mut h = hierarchy();
        h.access(0x2000, 0, AccessKind::Prefetch);
        // Long after completion, the demand access is an L1 hit.
        let a = h.access(0x2000, 1000, AccessKind::DemandLoad);
        assert_eq!(a.level, Level::L1);
        assert!(!a.merged_with_fill);
        assert_eq!(h.inflight_fills(), 0);
    }

    #[test]
    fn prefetch_of_resident_line_is_useless() {
        let mut h = hierarchy();
        h.access(0x3000, 0, AccessKind::DemandLoad);
        h.access(0x3000, 400, AccessKind::Prefetch);
        assert_eq!(h.stats.prefetch_useless, 1);
        assert_eq!(h.inflight_fills(), 0);
    }

    #[test]
    fn lru_evicts_least_recently_used_within_set() {
        let cfg = MachineConfig::default();
        let mut h = Hierarchy::new(&cfg);
        // L1: 64 sets, 8 ways. Addresses that map to set 0 differ by
        // 64 sets * 64 B = 4096 B.
        let stride = 64 * 64;
        // Fill set 0 with 8 distinct lines.
        for i in 0..8u64 {
            h.access(i * stride, i * 1000, AccessKind::DemandLoad);
        }
        // Touch line 0 to refresh it, then install a 9th line (the fill
        // completes — and evicts — when a later access drains the MSHR).
        h.access(0, 20_000, AccessKind::DemandLoad);
        h.access(8 * stride, 30_000, AccessKind::DemandLoad);
        h.access(0, 40_000, AccessKind::DemandLoad); // drains the 9th fill
                                                     // Line 1 was LRU and must be gone from L1; line 0 must remain.
        assert_eq!(h.probe(0, 50_000), Level::L1);
        assert_ne!(h.probe(stride, 50_000), Level::L1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = MachineConfig::default();
        let mut h = Hierarchy::new(&cfg);
        let stride = 64 * 64; // L1 set-0 conflict stride
        for i in 0..9u64 {
            h.access(i * stride, i * 1000, AccessKind::DemandLoad);
        }
        // Line 0 fell out of L1 (9 lines in an 8-way set) but L2 has 1024
        // sets so these 9 lines do not conflict there.
        let a = h.access(0, 100_000, AccessKind::DemandLoad);
        assert_eq!(a.level, Level::L2);
        assert_eq!(a.ready, 100_000 + cfg.l2.hit_latency);
    }

    #[test]
    fn probe_reports_levels_and_is_non_destructive() {
        let mut h = hierarchy();
        assert_eq!(h.probe(0x9000, 0), Level::Mem);
        h.access(0x9000, 0, AccessKind::DemandLoad);
        assert_eq!(h.probe(0x9000, 400), Level::L1);
        let stats_before = h.stats;
        let _ = h.probe(0x9000, 400);
        assert_eq!(h.stats, stats_before, "probe must not count as access");
    }

    #[test]
    fn probe_sees_completed_inflight_fill() {
        let mut h = hierarchy();
        h.access(0x9000, 0, AccessKind::Prefetch);
        assert_eq!(h.probe(0x9000, 10), Level::Mem, "fill not complete yet");
        assert_eq!(h.probe(0x9000, 300), Level::L1, "fill complete");
    }

    #[test]
    fn invalidate_removes_everywhere() {
        let mut h = hierarchy();
        h.access(0x4000, 0, AccessKind::DemandLoad);
        h.invalidate(0x4000);
        assert_eq!(h.probe(0x4000, 1000), Level::Mem);
    }

    #[test]
    fn flush_empties_hierarchy() {
        let mut h = hierarchy();
        for i in 0..100u64 {
            h.access(i * 64, i, AccessKind::DemandLoad);
        }
        h.flush();
        assert_eq!(h.probe(0, 10_000), Level::Mem);
        assert_eq!(h.inflight_fills(), 0);
    }

    #[test]
    fn store_allocates_line() {
        let mut h = hierarchy();
        h.access(0x5000, 0, AccessKind::Store);
        assert_eq!(h.probe(0x5000, 100), Level::L1, "write-allocate");
    }

    #[test]
    fn demand_hit_counters_accumulate_per_level() {
        let mut h = hierarchy();
        h.access(0x1000, 0, AccessKind::DemandLoad); // mem
        h.access(0x1000, 400, AccessKind::DemandLoad); // l1
        h.access(0x1000, 500, AccessKind::DemandLoad); // l1
        assert_eq!(h.stats.demand_hits[Level::Mem.index()], 1);
        assert_eq!(h.stats.demand_hits[Level::L1.index()], 2);
    }

    #[test]
    fn hw_prefetcher_fetches_next_lines_on_demand_miss() {
        let cfg = MachineConfig {
            hw_prefetch_degree: 2,
            ..MachineConfig::default()
        };
        let mut h = Hierarchy::new(&cfg);
        // One demand miss trains the prefetcher on the next two lines.
        h.access(0x8000, 0, AccessKind::DemandLoad);
        assert_eq!(h.stats.hw_prefetches, 2);
        assert_eq!(h.inflight_fills(), 3);
        // After the fills complete, the next lines are demand hits.
        let a = h.access(0x8040, 1000, AccessKind::DemandLoad);
        assert_eq!(a.level, Level::L1, "next line was hardware-prefetched");
        let b = h.access(0x8080, 2000, AccessKind::DemandLoad);
        assert_eq!(b.level, Level::L1);
        // Resident lines do not retrain redundant prefetches.
        let before = h.stats.hw_prefetches;
        h.access(0x8000, 3000, AccessKind::DemandLoad);
        assert_eq!(h.stats.hw_prefetches, before, "hit issues no prefetch");
    }

    #[test]
    fn hw_prefetcher_disabled_by_default() {
        let mut h = hierarchy();
        h.access(0x8000, 0, AccessKind::DemandLoad);
        assert_eq!(h.stats.hw_prefetches, 0);
        assert_eq!(h.inflight_fills(), 1);
    }

    #[test]
    fn cancelling_the_earliest_fill_moves_the_watermark_to_the_next() {
        let mut h = hierarchy();
        h.access(0x1000, 0, AccessKind::Prefetch); // ready at 300
        h.access(0x2000, 50, AccessKind::Prefetch); // ready at 350
        assert_eq!(h.next_ready, 300);
        h.invalidate(0x1000);
        assert_eq!((h.inflight_fills(), h.next_ready), (1, 350));
        // At the cancelled fill's old completion cycle nothing installs...
        h.access(0x3000, 300, AccessKind::Store);
        assert_eq!(h.probe(0x1000, 300), Level::Mem);
        assert_eq!(h.inflight_fills(), 1);
        // ...and the surviving fill still lands on its own cycle.
        let a = h.access(0x2000, 350, AccessKind::DemandLoad);
        assert_eq!((a.level, a.merged_with_fill), (Level::L1, false));
        assert_eq!((h.inflight_fills(), h.next_ready), (0, u64::MAX));
    }

    #[test]
    fn flush_resets_the_watermark() {
        let mut h = hierarchy();
        h.access(0x1000, 0, AccessKind::Prefetch);
        h.flush();
        assert_eq!(h.next_ready, u64::MAX);
        // A fill started after the flush is the only thing that drains.
        h.access(0x2000, 1000, AccessKind::Prefetch);
        assert_eq!(h.next_ready, 1300);
        h.access(0x3000, 1300, AccessKind::Store);
        assert_eq!(h.probe(0x2000, 1300), Level::L1);
        assert_eq!(h.probe(0x1000, 1300), Level::Mem);
    }

    #[test]
    fn a_stale_mru_guess_is_verified_not_trusted() {
        let mut l = CacheLevel::new(4, 2);
        // Lines 0, 4, 8 share set 0 of a 4-set level.
        l.install(0);
        l.install(4);
        assert_eq!(l.mru[0], 1);
        // The guessed way is invalidated: its tag still reads 4.
        l.invalidate(4);
        assert!(!l.lookup(4));
        assert!(l.lookup(0), "found by the scan");
        assert_eq!(l.mru[0], 0);
        // The guessed way now holds another line: 4 retakes the free way,
        // 0 is touched, so 8 evicts 4 and the guess for 4 reads tag 8.
        l.install(4);
        assert!(l.lookup(0));
        assert_eq!(l.install(8), Some(4));
        assert_eq!(l.mru[0], 1);
        assert!(!l.lookup(4));
        assert!(l.lookup(8) && l.lookup(0));
    }

    #[test]
    fn level_index_round_trip() {
        for i in 0..4 {
            assert_eq!(Level::from_index(i).index(), i);
        }
    }
}
