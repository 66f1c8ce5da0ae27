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
//! [`Hierarchy::access`] runs once per simulated load, so neither the
//! common L1 hit nor a miss that walks all three levels down and installs
//! at all three on the way back may cost a scan, and no set is matched
//! twice for one line. None of it is simulated-visible
//! (`tests/prop_cache.rs` holds the hierarchy to a reference model
//! written with stamps, scans and a hash map):
//!
//! * the MSHRs are a flat vector beside a completion watermark, so
//!   draining costs one compare until a fill has actually completed;
//! * a set is its ways' addresses, one control byte per way and one
//!   packed recency queue, so presence is a word-wide byte match, a free
//!   way and the LRU victim are read off a word, and no operation visits
//!   the ways (see `CacheLevel`);
//! * the inlined part of `access` answers an L1 hit on the line in its
//!   set's most recently used way — where most loads hit, and a hit
//!   changes nothing — whenever no fill is due and the streamer is off;
//!   all else is an out-of-line call;
//! * a fill remembers the level its lookup found the line at, and when it
//!   drains (or a store write-allocates) the levels nearer the core,
//!   which that lookup missed, take the line without being matched again
//!   (`Hierarchy::install_from`);
//! * the host-prefetch hints for the L2/L3 sets are issued only once L1
//!   has missed.

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

/// Line address of a free way. A line address is a byte address shifted
/// right by the line bits (at least one: `MachineConfig::assert_valid`),
/// so it never reaches this.
const EMPTY: u64 = u64::MAX;
/// Control byte of a free way; a valid way's is its 7-bit address hash.
const FREE: u64 = 0x80;
/// The low and the high bit of every byte, and of every nibble, of a word.
const BYTE_LO: u64 = 0x0101_0101_0101_0101;
const BYTE_HI: u64 = 0x8080_8080_8080_8080;
const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;
const NIBBLE_HI: u64 = 0x8888_8888_8888_8888;
/// The recency queue of a set nothing has touched: way `i` in nibble `i`.
const IDENTITY_QUEUE: u64 = 0xFEDC_BA98_7654_3210;

/// A single set-associative cache level with LRU replacement, in which
/// no operation visits the ways.
///
/// Per set: the ways' line addresses; one control byte per way, `FREE`
/// or the 7-bit hash of the address there; and one recency queue, a
/// `u64` of 4-bit way numbers, least recently used in the low nibble.
/// The queue is always a permutation of `0..ways`. Among the valid ways
/// its order is the order of their last use — exactly what per-way LRU
/// stamps encode — and where a free way sits in it does not matter: a
/// free way is taken by lowest index, off the control bytes, and moves
/// to the top when it is. So the victim of a full set, the queue's low
/// nibble, is the way with the minimal stamp.
#[derive(Clone, Debug)]
struct CacheLevel {
    /// `sets * ways` line addresses, row-major by set; `EMPTY` = free.
    addrs: Vec<u64>,
    /// `stride` words per set: the recency queue, then the control bytes
    /// (way `i` in byte `i % 8` of word `i / 8`). The bytes beyond `ways`
    /// stay `FREE`: they never match a hash, and are the last free ones.
    heads: Vec<u64>,
    ways: usize,
    stride: usize,
    set_mask: u64,
    set_bits: u32,
    /// Bit offset of the queue's top (most recently used) nibble.
    top_shift: u32,
}

impl CacheLevel {
    fn new(sets: usize, ways: usize) -> Self {
        let ctrl_words = ways.div_ceil(8);
        let mut level = CacheLevel {
            addrs: vec![EMPTY; sets * ways],
            heads: vec![0; sets * (1 + ctrl_words)],
            ways,
            stride: 1 + ctrl_words,
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            top_shift: 4 * (ways as u32 - 1),
        };
        level.clear();
        level
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        (line_addr & self.set_mask) as usize
    }

    /// The control byte of a way holding `line_addr`: the low seven of
    /// the address bits above the set index.
    #[inline]
    fn hash(&self, line_addr: u64) -> u64 {
        (line_addr >> self.set_bits) & 0x7f
    }

    /// Hints the host to start fetching this set's head and its first
    /// line of addresses. Issued for L2 and L3 together once L1 has
    /// missed, so the L3 match finds its set already in flight — for the
    /// megabyte of L3 metadata this turns serialized host misses into
    /// overlapped ones.
    #[inline]
    fn prefetch_set(&self, line_addr: u64) {
        let set = self.set_of(line_addr);
        crate::host_prefetch(&self.heads[set * self.stride]);
        crate::host_prefetch(&self.addrs[set * self.ways]);
    }

    /// The way of `set` that holds `line_addr`, if one does.
    ///
    /// The control words are matched against the broadcast hash, eight
    /// ways per step, and each candidate's address is compared in full:
    /// a match is a hint and never trusted — two lines of a set can share
    /// a hash, and the zero-byte test flags a byte that is one off above
    /// a true match. A free or unused byte keeps its high bit through the
    /// xor, so no candidate is ever a way without an address.
    #[inline]
    fn find(&self, set: usize, line_addr: u64) -> Option<usize> {
        let head = set * self.stride;
        let want = self.hash(line_addr) * BYTE_LO;
        for word in 1..self.stride {
            let x = self.heads[head + word] ^ want;
            let mut hits = x.wrapping_sub(BYTE_LO) & !x & BYTE_HI;
            while hits != 0 {
                let way = 8 * (word - 1) + hits.trailing_zeros() as usize / 8;
                if self.addrs[set * self.ways + way] == line_addr {
                    return Some(way);
                }
                hits &= hits - 1;
            }
        }
        None
    }

    /// Moves `way` to the top of `set`'s recency queue: its nibble is
    /// found by a zero-nibble match (exact at the lowest hit, and the
    /// queue holds every way once), the nibbles above it drop one place,
    /// the ones below stay.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let queue = &mut self.heads[set * self.stride];
        let x = *queue ^ (way as u64 * NIBBLE_LO);
        let at = x.wrapping_sub(NIBBLE_LO) & !x & NIBBLE_HI;
        let below = ((at & at.wrapping_neg()) >> 3) - 1;
        *queue = (*queue & below) | ((*queue >> 4) & !below) | (way as u64) << self.top_shift;
    }

    #[inline]
    fn set_ctrl(&mut self, set: usize, way: usize, byte: u64) {
        let word = &mut self.heads[set * self.stride + 1 + way / 8];
        let shift = 8 * (way % 8);
        *word = (*word & !(0xff << shift)) | byte << shift;
    }

    /// Whether `line_addr` sits in the most recently used way of its set,
    /// where a `lookup` would find it and change nothing. L1 asks this
    /// first: most loads hit there, on the line the last one did.
    #[inline]
    fn is_mru(&self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        let top = (self.heads[set * self.stride] >> self.top_shift) as usize;
        self.addrs[set * self.ways + top] == line_addr
    }

    /// Looks up `line_addr`; on hit refreshes LRU and returns `true`.
    #[inline]
    fn lookup(&mut self, line_addr: u64) -> bool {
        let set = self.set_of(line_addr);
        let hit = self.find(set, line_addr);
        if let Some(way) = hit {
            self.touch(set, way);
        }
        hit.is_some()
    }

    /// Read-only presence check (does not perturb LRU) — used by the §4.1
    /// presence probe.
    fn contains(&self, line_addr: u64) -> bool {
        self.find(self.set_of(line_addr), line_addr).is_some()
    }

    /// Installs `line_addr`, evicting the LRU way if the set is full.
    /// Returns the evicted line address, if any.
    ///
    /// Refresh if present (e.g. re-install after an inner-level miss),
    /// else [`CacheLevel::insert`].
    fn install(&mut self, line_addr: u64) -> Option<u64> {
        let set = self.set_of(line_addr);
        match self.find(set, line_addr) {
            Some(way) => {
                self.touch(set, way);
                None
            }
            None => self.insert(set, line_addr),
        }
    }

    /// Installs `line_addr`, which must be absent from `set`, without
    /// matching the set for it: into the lowest free way, else the least
    /// recently used one. Returns the evicted line address, if any.
    fn insert(&mut self, set: usize, line_addr: u64) -> Option<u64> {
        debug_assert!(self.find(set, line_addr).is_none(), "{line_addr} present");
        let head = set * self.stride;
        let free = (1..self.stride).find_map(|word| {
            let free = self.heads[head + word] & BYTE_HI;
            (free != 0).then(|| 8 * (word - 1) + free.trailing_zeros() as usize / 8)
        });
        let lru = (self.heads[head] & 0xf) as usize;
        let way = free.filter(|&way| way < self.ways).unwrap_or(lru);
        let slot = &mut self.addrs[set * self.ways + way];
        let evicted = (*slot != EMPTY).then_some(*slot);
        *slot = line_addr;
        self.set_ctrl(set, way, self.hash(line_addr));
        self.touch(set, way);
        debug_assert!(self.set_is_sound(set), "set {set} after an install");
        evicted
    }

    /// Invalidates `line_addr` if present (used by tests and flush). The
    /// way keeps its place in the queue until it is taken again.
    fn invalidate(&mut self, line_addr: u64) {
        let set = self.set_of(line_addr);
        if let Some(way) = self.find(set, line_addr) {
            self.addrs[set * self.ways + way] = EMPTY;
            self.set_ctrl(set, way, FREE);
        }
        debug_assert!(self.set_is_sound(set), "set {set} after an invalidate");
    }

    fn clear(&mut self) {
        self.addrs.fill(EMPTY);
        let identity = IDENTITY_QUEUE & (u64::MAX >> (60 - self.top_shift));
        for head in self.heads.chunks_exact_mut(self.stride) {
            head.fill(FREE * BYTE_LO);
            head[0] = identity;
        }
    }

    /// What `install` and `invalidate` must leave behind: the queue a
    /// permutation of `0..ways`, and every control byte agreeing with its
    /// way's address.
    fn set_is_sound(&self, set: usize) -> bool {
        let head = &self.heads[set * self.stride..][..self.stride];
        let addrs = &self.addrs[set * self.ways..][..self.ways];
        let queued = (0..self.ways).fold(0u32, |ways, at| ways | 1 << (head[0] >> (4 * at) & 0xf));
        queued == (1 << self.ways) - 1
            && head[0] >> self.top_shift >> 4 == 0
            && (0..8 * (self.stride - 1)).all(|way| {
                let ctrl = head[1 + way / 8] >> (8 * (way % 8)) & 0xff;
                match addrs.get(way) {
                    Some(&addr) if addr != EMPTY => ctrl == self.hash(addr),
                    _ => ctrl == FREE,
                }
            })
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
    /// `MachineConfig::assert_valid`).
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
    pub(crate) fn line_of(&self, addr: u64) -> u64 {
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
            let Fill { line, origin, .. } = self.mshr.swap_remove(i);
            self.install_from(line, origin);
            self.next_ready = self.earliest_ready();
        }
    }

    /// Installs `line` at every level, having just been found at `origin`
    /// by a store, or by the lookup that started its now drained fill.
    ///
    /// The levels nearer the core than `origin` missed that lookup, and
    /// nothing has installed the line since: a store or a prefetch to a
    /// line in flight merges with its fill, the streamer skips it, and
    /// a line has one fill at a time. So those levels insert without
    /// matching the set; `origin` and the levels beyond it, which the
    /// line may or may not still occupy, install as usual.
    fn install_from(&mut self, line: u64, origin: Level) {
        for (level, cache) in [
            (Level::L3, &mut self.l3),
            (Level::L2, &mut self.l2),
            (Level::L1, &mut self.l1),
        ] {
            if level < origin {
                cache.insert(cache.set_of(line), line);
            } else {
                cache.install(line);
            }
        }
    }

    /// Performs an access of `kind` to byte address `addr` at cycle `now`.
    ///
    /// For [`AccessKind::DemandLoad`] the returned [`Access::ready`] is
    /// when the value is available; the caller charges the stall. Stores
    /// and prefetches return immediately-usable results (the caller charges
    /// only their issue cost).
    ///
    /// Inline, it answers the common L1 hit itself: when no fill is due
    /// (so nothing drains), the streamer is off (so nothing trains) and
    /// the line sits in its L1 set's most recently used way (so a lookup
    /// would change nothing). Such a line has no fill in flight — a fill
    /// starts only for a line its lookup missed in L1, and it is absent
    /// there until the fill drains — so the slow path would return the
    /// same L1 hit. Everything else takes the slow path.
    #[inline]
    pub fn access(&mut self, addr: u64, now: u64, kind: AccessKind) -> Access {
        let line = self.line_of(addr);
        if self.next_ready > now && self.hw_degree == 0 && self.l1.is_mru(line) {
            match kind {
                AccessKind::DemandLoad => self.stats.demand_hits[Level::L1.index()] += 1,
                AccessKind::Store => {}
                AccessKind::Prefetch => {
                    self.stats.prefetches += 1;
                    self.stats.prefetch_useless += 1;
                }
            }
            return Access {
                level: Level::L1,
                ready: now + self.latencies[Level::L1.index()],
                merged_with_fill: false,
            };
        }
        self.access_slow(line, now, kind)
    }

    /// [`Hierarchy::access`] in full: drain, train, merge, walk.
    #[inline(never)]
    fn access_slow(&mut self, line: u64, now: u64, kind: AccessKind) -> Access {
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
        let level = if self.l1.is_mru(line) || self.l1.lookup(line) {
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
                    self.install_from(line, level);
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
        for i in 0..100u64 {
            assert_eq!(h.probe(i * 64, 10_000), Level::Mem);
        }
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

    const KINDS: [AccessKind; 3] = [
        AccessKind::DemandLoad,
        AccessKind::Store,
        AccessKind::Prefetch,
    ];

    /// How many ways of its set at `l` hold `line`.
    fn copies(l: &CacheLevel, line: u64) -> usize {
        let set = l.set_of(line);
        let addrs = &l.addrs[set * l.ways..][..l.ways];
        addrs.iter().filter(|&&a| a == line).count()
    }

    #[test]
    fn a_line_in_flight_is_installed_nowhere_until_its_fill_drains() {
        // One line per origin: cold (memory), in L3 only, in L2 only.
        let (mem, l3, l2) = (0x10_0000u64, 0x20_0000u64, 0x30_0000u64);
        let mut h = hierarchy();
        let line = |addr| addr >> 6;
        h.l3.install(line(l3));
        h.l2.install(line(l2));
        for (addr, origin) in [(mem, Level::Mem), (l3, Level::L3), (l2, Level::L2)] {
            let a = h.access(addr, 1000, AccessKind::DemandLoad);
            assert_eq!((a.level, a.merged_with_fill), (origin, false));
        }
        let ready = 1000 + h.latencies[Level::L2.index()];
        // A store, a software prefetch and a demand load to each line in
        // flight merge with its fill and install it at no level: only the
        // drain does, and then once per level.
        for now in [1001, ready - 1] {
            for addr in [mem, l3, l2] {
                for kind in KINDS {
                    assert!(h.access(addr, now, kind).merged_with_fill, "{kind:?} {now}");
                }
            }
            let held = |l: &CacheLevel| [mem, l3, l2].map(|addr| copies(l, line(addr)));
            assert_eq!(held(&h.l1), [0, 0, 0], "L1 at {now}");
            assert_eq!(held(&h.l2), [0, 0, 1], "L2 at {now}");
            assert_eq!(held(&h.l3), [0, 1, 0], "L3 at {now}");
        }
        h.access(
            0x4000_0000,
            1000 + h.latencies[Level::Mem.index()],
            AccessKind::Store,
        );
        assert_eq!(h.inflight_fills(), 0);
        for addr in [mem, l3, l2] {
            for l in [&h.l1, &h.l2, &h.l3] {
                assert_eq!(copies(l, line(addr)), 1, "{addr:#x} after the drain");
            }
        }
    }

    /// Everything an access can change, for comparing two hierarchies.
    fn state(h: &Hierarchy) -> impl PartialEq + std::fmt::Debug {
        let levels = [&h.l1, &h.l2, &h.l3].map(|l| (l.addrs.clone(), l.heads.clone()));
        let mshr: Vec<_> = h.mshr.iter().map(|f| (f.line, f.ready, f.origin)).collect();
        (levels, mshr, h.next_ready, h.stats)
    }

    #[test]
    fn the_inline_hit_is_the_slow_paths_answer() {
        // `x` and `y` share an L1 set; `x` sits in its MRU way while `y`'s
        // fill is in flight. The inline check may answer only before the
        // fill is due (at `ready - 1`, not at `ready`, where the drain
        // makes `y` the MRU line) and only with the streamer off.
        let (x, y) = (0x1000u64, 0x1000 + 64 * 64);
        for degree in [0, 2] {
            let cfg = MachineConfig {
                hw_prefetch_degree: degree,
                ..MachineConfig::default()
            };
            let mut h = Hierarchy::new(&cfg);
            h.access(x, 0, AccessKind::DemandLoad);
            h.access(x, 1000, AccessKind::DemandLoad);
            h.access(y, 2000, AccessKind::Prefetch);
            // The lines a streamer would fetch next are not resident, so
            // a demand load of `x` trains it.
            h.invalidate(x + 64);
            h.invalidate(x + 128);
            let ready = h.next_ready;
            assert!(h.l1.is_mru(h.line_of(x)) && ready == 2000 + cfg.mem_latency);
            for now in [ready - 1, ready] {
                for kind in KINDS {
                    let (mut inline, mut slow) = (h.clone(), h.clone());
                    let a = inline.access(x, now, kind);
                    let b = slow.access_slow(slow.line_of(x), now, kind);
                    let at = if now < ready { "ready - 1" } else { "ready" };
                    let what = format!("{kind:?} at {at}, degree {degree}");
                    assert_eq!(a, b, "{what}");
                    assert_eq!(a.level, Level::L1, "{what}");
                    assert_eq!(state(&inline), state(&slow), "{what}");
                }
            }
        }
    }

    /// The ways of `set`'s recency queue, least recently used first.
    fn queue(l: &CacheLevel, set: usize) -> Vec<usize> {
        let q = l.heads[set * l.stride];
        (0..l.ways)
            .map(|at| (q >> (4 * at) & 0xf) as usize)
            .collect()
    }

    fn shuffled(n: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        crate::SplitMix64::new(seed).shuffle(&mut order);
        order
    }

    #[test]
    fn touch_moves_the_way_at_any_position_to_the_top() {
        for ways in [8, 16] {
            let start = shuffled(ways, ways as u64);
            for at in 0..ways {
                let mut l = CacheLevel::new(1, ways);
                l.heads[0] = start.iter().rev().fold(0, |q, &way| q << 4 | way as u64);
                assert_eq!(queue(&l, 0), start);
                let mut model = start.clone();
                let way = model.remove(at);
                model.push(way);
                l.touch(0, way);
                assert_eq!(queue(&l, 0), model, "position {at} of {ways}");
                assert!(l.set_is_sound(0));
            }
        }
    }

    #[test]
    fn reinstall_after_invalidate_takes_the_lowest_free_way_and_evicts_nothing() {
        // Lines 0, 4, 8, ... share set 0 of a 4-set level.
        let mut l = CacheLevel::new(4, 8);
        for way in 0..8 {
            assert_eq!(l.install(4 * way), None);
        }
        l.invalidate(4 * 5);
        l.invalidate(4 * 2);
        assert_eq!((l.install(400), l.addrs[2]), (None, 400));
        assert_eq!((l.install(404), l.addrs[5]), (None, 404));
        assert_eq!(l.install(408), Some(0), "full again: the oldest line goes");
    }

    #[test]
    fn a_full_set_evicts_in_the_order_it_was_last_touched() {
        for ways in [8u64, 16] {
            // The odd lines share set 1 of a 2-set level.
            let mut l = CacheLevel::new(2, ways as usize);
            for way in 0..ways {
                l.install(2 * way + 1);
            }
            let order = shuffled(ways as usize, 7);
            for &way in &order {
                assert!(l.lookup(2 * way as u64 + 1));
            }
            for (fresh, &way) in order.iter().enumerate() {
                let evicted = l.install(2 * (ways + fresh as u64) + 1);
                assert_eq!(evicted, Some(2 * way as u64 + 1));
            }
        }
    }

    #[test]
    fn a_control_byte_match_is_verified_not_trusted() {
        let mut l = CacheLevel::new(4, 2);
        // Same set, same control byte, another address.
        let (line, double, triple) = (4, 4 + (4 << 7), 4 + (8 << 7));
        assert_eq!(
            (l.set_of(line), l.hash(line)),
            (l.set_of(double), l.hash(double))
        );
        l.install(line);
        assert!(!l.contains(double) && !l.is_mru(double) && !l.lookup(double));
        l.invalidate(double);
        assert!(l.contains(line), "invalidating the double leaves the line");
        l.install(double);
        assert!(l.lookup(line) && l.lookup(double), "found behind one byte");
        assert_eq!(l.install(triple), Some(line));
        assert!(!l.lookup(line) && l.lookup(double) && l.lookup(triple));
    }

    #[test]
    fn default_geometry_keeps_at_most_11_bytes_per_line() {
        // Down from 16 with a tag and a stamp per way; most of what a
        // `Machine` weighs, and so most of a fleet's `peak_rss_mb`.
        let h = hierarchy();
        for l in [&h.l1, &h.l2, &h.l3] {
            assert!(8 * (l.addrs.len() + l.heads.len()) <= 11 * l.addrs.len());
        }
    }

    #[test]
    fn level_index_round_trip() {
        for i in 0..4 {
            assert_eq!(Level::from_index(i).index(), i);
        }
    }
}
