//! Oracle for the cache model: `Hierarchy` against a reference written
//! the obvious way — a hash-map MSHR drained by collect-and-sort, a tag
//! and an LRU stamp per way, separate present / free-way / oldest-way
//! scans, no control bytes, no recency queue, no completion watermark —
//! over random traces on geometries small enough that every set
//! overflows. Every `Access`, every line's `probe` level, the in-flight
//! count and the statistics must agree after each operation, and a final
//! sweep of fresh lines evicts everything, so a single wrong place in a
//! recency queue shows up as a wrong victim.
//!
//! Each level draws its associativity from {1, 2, 4, 8, 16} and its set
//! count from {1, 2, 4}, and half the trace's lines come from a universe
//! built to collide: `COLLIDE_STRIDE` apart, so at every level they share
//! a set *and* the 7-bit control byte `CacheLevel` matches on (the
//! address bits above the set index, mod 128) while being different
//! lines — the case where a control-byte match must not be trusted.

use proptest::prelude::*;
use reach_sim::{
    Access, AccessKind, CacheLevelConfig, CacheStats, Hierarchy, Level, MachineConfig, SplitMix64,
};
use std::collections::HashMap;

const LINE: u64 = 64;
/// The most sets a level draws.
const MAX_SETS: u64 = 4;
/// Consecutive lines the trace draws from: as many as the largest L3 holds.
const DENSE: u64 = 64;
/// Lines this far apart agree on the set index and the seven address bits
/// above it, whatever the level's set count up to `MAX_SETS`.
const COLLIDE_STRIDE: u64 = MAX_SETS << 7;
/// Colliding lines per column, and columns (the set they all fall in):
/// more in one set than the widest level has ways.
const COLLIDING: u64 = 24;
const COLUMNS: u64 = 2;
/// Where the closing sweep's fresh lines start.
const SWEEP_BASE: u64 = 1 << 20;

/// One level: `(tag, stamp)` per way, row-major by set; stamp 0 = empty.
struct RefLevel {
    ways: Vec<(u64, u64)>,
    assoc: usize,
    tick: u64,
}

impl RefLevel {
    fn new(cfg: &CacheLevelConfig) -> Self {
        RefLevel {
            ways: vec![(0, 0); cfg.size_bytes / LINE as usize],
            assoc: cfg.ways,
            tick: 0,
        }
    }

    fn set(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line % (self.ways.len() / self.assoc) as u64) as usize;
        set * self.assoc..(set + 1) * self.assoc
    }

    fn contains(&self, line: u64) -> bool {
        self.ways[self.set(line)]
            .iter()
            .any(|w| w.1 != 0 && w.0 == line)
    }

    /// Refreshes the line's stamp if it is present.
    fn touch(&mut self, line: u64) -> bool {
        self.tick += 1;
        let (tick, set) = (self.tick, self.set(line));
        let hit = self.ways[set].iter_mut().find(|w| w.1 != 0 && w.0 == line);
        hit.map(|w| w.1 = tick).is_some()
    }

    fn install(&mut self, line: u64) {
        if self.touch(line) {
            return;
        }
        let (tick, set) = (self.tick, self.set(line));
        let set = &mut self.ways[set];
        let way = set.iter().position(|w| w.1 == 0).unwrap_or_else(|| {
            let oldest = set.iter().map(|w| w.1).min().expect("ways > 0");
            set.iter().position(|w| w.1 == oldest).expect("the minimum")
        });
        set[way] = (line, tick);
    }

    fn invalidate(&mut self, line: u64) {
        let set = self.set(line);
        for w in self.ways[set].iter_mut().filter(|w| w.0 == line) {
            w.1 = 0;
        }
    }
}

fn latencies(cfg: &MachineConfig) -> [u64; 4] {
    [
        cfg.l1.hit_latency,
        cfg.l2.hit_latency,
        cfg.l3.hit_latency,
        cfg.mem_latency,
    ]
}

struct RefHierarchy {
    levels: [RefLevel; 3],
    lat: [u64; 4],
    degree: u64,
    /// line → (completion cycle, origin level)
    mshr: HashMap<u64, (u64, Level)>,
    stats: CacheStats,
}

impl RefHierarchy {
    fn new(cfg: &MachineConfig) -> Self {
        RefHierarchy {
            levels: [&cfg.l1, &cfg.l2, &cfg.l3].map(RefLevel::new),
            lat: latencies(cfg),
            degree: cfg.hw_prefetch_degree as u64,
            mshr: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn install_all(&mut self, line: u64) {
        self.levels.iter_mut().for_each(|l| l.install(line));
    }

    fn resident(&self, line: u64) -> Option<usize> {
        self.levels.iter().position(|l| l.contains(line))
    }

    fn access(&mut self, addr: u64, now: u64, kind: AccessKind) -> Access {
        let line = addr / LINE;
        let mut done: Vec<(u64, u64)> = self.mshr.iter().map(|(&l, f)| (f.0, l)).collect();
        done.retain(|&(ready, _)| ready <= now);
        done.sort_unstable();
        for (_, l) in done {
            self.mshr.remove(&l);
            self.install_all(l);
        }
        if kind == AccessKind::DemandLoad {
            for next in line + 1..=line + self.degree {
                if !self.mshr.contains_key(&next) && self.resident(next).is_none() {
                    self.stats.hw_prefetches += 1;
                    self.mshr.insert(next, (now + self.lat[3], Level::Mem));
                }
            }
        }
        if let Some(&(ready, level)) = self.mshr.get(&line) {
            if kind == AccessKind::DemandLoad {
                self.stats.demand_merged += 1;
                self.stats.demand_hits[level.index()] += 1;
            }
            return Access {
                level,
                ready,
                merged_with_fill: true,
            };
        }
        let hit = self.levels.iter_mut().position(|l| l.touch(line));
        let level = Level::from_index(hit.unwrap_or(3));
        let ready = now + self.lat[level.index()];
        let missed_l1 = level != Level::L1;
        match kind {
            AccessKind::DemandLoad => {
                self.stats.demand_hits[level.index()] += 1;
                if missed_l1 {
                    self.mshr.insert(line, (ready, level));
                }
            }
            AccessKind::Store if missed_l1 => self.install_all(line),
            AccessKind::Store => {}
            AccessKind::Prefetch => {
                self.stats.prefetches += 1;
                if missed_l1 {
                    self.mshr.insert(line, (ready, level));
                } else {
                    self.stats.prefetch_useless += 1;
                }
            }
        }
        Access {
            level,
            ready,
            merged_with_fill: false,
        }
    }

    fn probe(&self, addr: u64, now: u64) -> Level {
        let line = addr / LINE;
        let landed = self.mshr.get(&line).is_some_and(|f| f.0 <= now);
        match self.resident(line) {
            Some(0) => Level::L1,
            _ if landed => Level::L1,
            at => Level::from_index(at.unwrap_or(3)),
        }
    }

    fn invalidate(&mut self, addr: u64) {
        let line = addr / LINE;
        self.levels.iter_mut().for_each(|l| l.invalidate(line));
        self.mshr.remove(&line);
    }

    fn flush(&mut self) {
        self.levels.iter_mut().for_each(|l| l.ways.fill((0, 0)));
        self.mshr.clear();
    }
}

/// Three levels of 1–4 sets by 1–16 ways each, and latencies short enough
/// that fills land between the trace's accesses as often as they overlap
/// them.
fn tiny(rng: &mut SplitMix64, degree: usize) -> MachineConfig {
    let mut level = |hit_latency| {
        let (sets, ways) = (1 << rng.next_below(3), 1 << rng.next_below(5));
        CacheLevelConfig {
            size_bytes: sets * ways * LINE as usize,
            ways,
            hit_latency,
        }
    };
    MachineConfig {
        l1: level(1),
        l2: level(5),
        l3: level(12),
        mem_latency: 40,
        hw_prefetch_degree: degree,
        ..MachineConfig::default()
    }
}

/// The lines the trace draws from: the dense run, then the colliding
/// columns.
fn universe() -> Vec<u64> {
    let colliding = (0..COLUMNS).flat_map(|c| (1..=COLLIDING).map(move |k| c + k * COLLIDE_STRIDE));
    (0..DENSE).chain(colliding).collect()
}

/// Asserts the two agree on every line of `watch`, on the fills in flight
/// and on the statistics.
fn agree(real: &Hierarchy, oracle: &RefHierarchy, watch: &[u64], now: u64, what: &str) {
    for &line in watch {
        assert_eq!(
            real.probe(line * LINE, now),
            oracle.probe(line * LINE, now),
            "line {line} after {what} at cycle {now}"
        );
    }
    assert_eq!(real.inflight_fills(), oracle.mshr.len(), "after {what}");
    assert_eq!(real.stats, oracle.stats, "after {what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hierarchy_matches_the_reference_model(
        seed in any::<u64>(),
        ops in 1usize..400,
        degree in 0usize..3,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut cfg = tiny(&mut rng, degree);
        let mut real = Hierarchy::new(&cfg);
        let mut oracle = RefHierarchy::new(&cfg);
        let universe = universe();
        // Every line either could hold: the universe and what the
        // next-line prefetcher fetches beside it, then the sweep's too.
        let mut watch: Vec<u64> = universe.iter().flat_map(|&l| l..=l + 2).collect();
        watch.sort_unstable();
        watch.dedup();
        let mut now = 0u64;
        for _ in 0..ops {
            now += rng.next_below(25);
            // Half dense, half colliding.
            let pick = match rng.next_below(2) {
                0 => rng.next_below(DENSE),
                _ => DENSE + rng.next_below(COLUMNS * COLLIDING),
            };
            let addr = universe[pick as usize] * LINE + 8 * rng.next_below(8);
            let what = match rng.next_below(20) {
                0 => {
                    real.invalidate(addr);
                    oracle.invalidate(addr);
                    "invalidate"
                }
                1 if rng.next_below(4) == 0 => {
                    real.flush();
                    oracle.flush();
                    "flush"
                }
                2 => {
                    // What `MultiCore::apply_contention` does at an epoch
                    // boundary: fills in flight keep their completion cycle.
                    cfg.l3.hit_latency = 12 + rng.next_below(8);
                    cfg.mem_latency = 40 + rng.next_below(40);
                    real.set_latencies(&cfg);
                    oracle.lat = latencies(&cfg);
                    "set_latencies"
                }
                k => {
                    let kind = match k % 3 {
                        0 => AccessKind::DemandLoad,
                        1 => AccessKind::Store,
                        _ => AccessKind::Prefetch,
                    };
                    prop_assert_eq!(
                        real.access(addr, now, kind),
                        oracle.access(addr, now, kind),
                        "{:?} of {:#x} at cycle {}", kind, addr, now
                    );
                    "access"
                }
            };
            agree(&real, &oracle, &watch, now, what);
        }
        // Fresh lines through every set, three times what the largest
        // level holds and each given time to land: the victims come out in
        // LRU order, at all three levels.
        let largest = [cfg.l1, cfg.l2, cfg.l3].map(|l| l.size_bytes as u64 / LINE);
        let sweep = SWEEP_BASE..SWEEP_BASE + 3 * largest.into_iter().max().expect("three");
        watch.extend(sweep.start..sweep.end + 2);
        for fresh in sweep {
            now += 100;
            prop_assert_eq!(
                real.access(fresh * LINE, now, AccessKind::DemandLoad),
                oracle.access(fresh * LINE, now, AccessKind::DemandLoad)
            );
            agree(&real, &oracle, &watch, now + 100, "the eviction sweep");
        }
    }
}
