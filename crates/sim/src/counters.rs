//! Performance counters: the ground truth the simulator always maintains.
//!
//! Two distinct things live here:
//!
//! * Aggregate cycle accounting (`busy`, `stall`, `switch`, sampling
//!   overhead) from which CPU efficiency is computed — the paper's headline
//!   metric.
//! * Per-PC statistics (loads, misses by level, stall cycles) — the *ground
//!   truth* against which sampled profiles are scored in experiment T11.
//!   A real machine cannot afford to maintain these; the simulator can,
//!   which is precisely why profile accuracy is measurable here.

use crate::cache::Level;

/// Ground-truth statistics for a single program counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PcStats {
    /// Times a load at this PC retired.
    pub loads: u64,
    /// Loads serviced per level (`[l1, l2, l3, mem]`).
    pub served_by: [u64; 4],
    /// Visible stall cycles attributed to this PC (after the OoO window).
    pub stall_cycles: u64,
}

impl PcStats {
    /// Loads that missed L2 (were serviced by L3 or memory) — the event
    /// class the paper's mechanism targets.
    #[inline]
    pub fn l2_misses(&self) -> u64 {
        self.served_by[Level::L3.index()] + self.served_by[Level::Mem.index()]
    }

    /// Empirical probability that a load at this PC misses L2.
    #[inline]
    pub fn miss_likelihood(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.l2_misses() as f64 / self.loads as f64
        }
    }
}

/// Flat per-PC statistics table, indexed directly by program counter.
///
/// This replaces a `HashMap<usize, PcStats>` on the interpreter's
/// hottest path: every retired load records here, and PCs are small
/// dense integers, so a `Vec` turns the per-load hash-probe into an
/// indexed store. The table is sized up front from the program length
/// ([`PerPcTable::grow_to`], called by the machine when a run starts)
/// and lazily grown by [`PerPcTable::entry`] as a backstop, so one
/// `PerfCounters` can span several programs of different sizes.
///
/// A PC "has stats" iff a load retired there (`loads > 0`) — exactly
/// the presence semantics of the old map, and what [`PerPcTable::get`],
/// [`PerPcTable::iter`] and equality expose. Slack capacity is
/// invisible: two tables that record the same loads are equal no matter
/// how they were grown.
#[derive(Clone, Debug, Default)]
pub struct PerPcTable {
    stats: Vec<PcStats>,
}

/// What absent PCs read as (via the `Index` impls).
const ZERO_STATS: PcStats = PcStats {
    loads: 0,
    served_by: [0; 4],
    stall_cycles: 0,
};

impl PerPcTable {
    /// Ensures the table covers PCs `0..n` without reallocation during
    /// the run. Never shrinks.
    #[inline]
    pub fn grow_to(&mut self, n: usize) {
        if self.stats.len() < n {
            self.stats.resize(n, PcStats::default());
        }
    }

    /// Mutable stats slot for `pc`, growing the table if needed.
    #[inline]
    pub fn entry(&mut self, pc: usize) -> &mut PcStats {
        if pc >= self.stats.len() {
            self.stats.resize(pc + 1, PcStats::default());
        }
        &mut self.stats[pc]
    }

    /// Stats for `pc`, if a load ever retired there.
    #[inline]
    pub fn get(&self, pc: usize) -> Option<&PcStats> {
        self.stats.get(pc).filter(|s| s.loads > 0)
    }

    /// Recorded entries `(pc, stats)` in ascending PC order. Yields only
    /// PCs where a load retired, mirroring the old map's key set.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &PcStats)> {
        self.stats.iter().enumerate().filter(|&(_, s)| s.loads > 0)
    }

    /// Number of PCs with recorded loads.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when no load has been recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl std::ops::Index<usize> for PerPcTable {
    type Output = PcStats;

    /// PCs that never recorded a load read as all-zero stats.
    #[inline]
    fn index(&self, pc: usize) -> &PcStats {
        self.stats.get(pc).unwrap_or(&ZERO_STATS)
    }
}

impl std::ops::Index<&usize> for PerPcTable {
    type Output = PcStats;

    #[inline]
    fn index(&self, pc: &usize) -> &PcStats {
        &self[*pc]
    }
}

impl PartialEq for PerPcTable {
    /// Capacity-independent equality: same recorded loads, same stats.
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for PerPcTable {}

/// Aggregate and per-PC counters for one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Retired instructions.
    pub instructions: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Executed software prefetches.
    pub prefetches: u64,
    /// Executed branches (taken or not).
    pub branches: u64,
    /// Yield instructions that actually fired (caused a context switch).
    pub yields_fired: u64,
    /// Yield instructions whose condition was evaluated but did not fire.
    pub yields_suppressed: u64,
    /// Cycles spent doing useful work (instruction execution).
    pub busy_cycles: u64,
    /// Cycles lost to memory stalls (beyond the OoO window).
    pub stall_cycles: u64,
    /// Cycles lost to context switches (coroutine, SMT or thread).
    pub switch_cycles: u64,
    /// Cycles lost to conditional-yield checks.
    pub check_cycles: u64,
    /// Cycles lost to sampling interrupts (PEBS overhead).
    pub sampling_cycles: u64,
    /// Cycles the core sat idle with every context blocked.
    pub idle_cycles: u64,
    /// Ground truth per-PC load behaviour.
    pub per_pc: PerPcTable,
}

impl PerfCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total cycles accounted for.
    #[inline]
    pub fn total_cycles(&self) -> u64 {
        self.busy_cycles
            + self.stall_cycles
            + self.switch_cycles
            + self.check_cycles
            + self.sampling_cycles
            + self.idle_cycles
    }

    /// CPU efficiency: fraction of cycles spent on useful work.
    ///
    /// This is the paper's headline metric — hiding events converts stall
    /// cycles into busy cycles at the price of some switch/check overhead.
    #[inline]
    pub fn cpu_efficiency(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 1.0;
        }
        self.busy_cycles as f64 / total as f64
    }

    /// Fraction of cycles lost to memory stalls (the §1 ">60%" metric).
    #[inline]
    pub fn stall_fraction(&self) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            return 0.0;
        }
        self.stall_cycles as f64 / total as f64
    }

    /// Records a load at `pc` serviced by `level` with `stall` visible
    /// stall cycles *attributed* to it.
    ///
    /// Only per-PC ground truth is updated here: whether those cycles are
    /// actually lost depends on the execution mode (a blocking core loses
    /// them; a switch-on-stall core may fill them with other contexts), so
    /// the aggregate [`PerfCounters::stall_cycles`] is charged by the
    /// machine only when the core really waits.
    #[inline]
    pub fn record_load(&mut self, pc: usize, level: Level, stall: u64) {
        self.loads += 1;
        let e = self.per_pc.entry(pc);
        e.loads += 1;
        e.served_by[level.index()] += 1;
        e.stall_cycles += stall;
    }

    /// The set of PCs whose true L2-miss likelihood is at least
    /// `threshold` — ground truth for profile-accuracy scoring.
    pub fn true_miss_pcs(&self, threshold: f64) -> Vec<usize> {
        self.per_pc
            .iter()
            .filter(|(_, s)| s.miss_likelihood() >= threshold)
            .map(|(pc, _)| pc)
            .collect()
    }

    /// Merges another counter set into this one (used when aggregating
    /// multi-context runs).
    pub fn merge(&mut self, other: &PerfCounters) {
        self.instructions += other.instructions;
        self.loads += other.loads;
        self.stores += other.stores;
        self.prefetches += other.prefetches;
        self.branches += other.branches;
        self.yields_fired += other.yields_fired;
        self.yields_suppressed += other.yields_suppressed;
        self.busy_cycles += other.busy_cycles;
        self.stall_cycles += other.stall_cycles;
        self.switch_cycles += other.switch_cycles;
        self.check_cycles += other.check_cycles;
        self.sampling_cycles += other.sampling_cycles;
        self.idle_cycles += other.idle_cycles;
        self.per_pc.grow_to(other.per_pc.stats.len());
        for (pc, s) in other.per_pc.iter() {
            let e = self.per_pc.entry(pc);
            e.loads += s.loads;
            e.stall_cycles += s.stall_cycles;
            for i in 0..4 {
                e.served_by[i] += s.served_by[i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_of_empty_counters_is_one() {
        assert_eq!(PerfCounters::new().cpu_efficiency(), 1.0);
        assert_eq!(PerfCounters::new().stall_fraction(), 0.0);
    }

    #[test]
    fn efficiency_arithmetic() {
        let mut c = PerfCounters::new();
        c.busy_cycles = 40;
        c.stall_cycles = 50;
        c.switch_cycles = 10;
        assert_eq!(c.total_cycles(), 100);
        assert!((c.cpu_efficiency() - 0.4).abs() < 1e-12);
        assert!((c.stall_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_load_builds_per_pc_ground_truth() {
        let mut c = PerfCounters::new();
        c.record_load(7, Level::Mem, 270);
        c.record_load(7, Level::L1, 0);
        c.record_load(9, Level::L3, 12);
        let s7 = c.per_pc[&7];
        assert_eq!(s7.loads, 2);
        assert_eq!(s7.l2_misses(), 1);
        assert!((s7.miss_likelihood() - 0.5).abs() < 1e-12);
        assert_eq!(s7.stall_cycles, 270);
        assert_eq!(
            c.stall_cycles, 0,
            "aggregate stall is charged by the machine"
        );
        assert_eq!(c.loads, 3);
    }

    #[test]
    fn true_miss_pcs_filters_by_threshold() {
        let mut c = PerfCounters::new();
        for _ in 0..9 {
            c.record_load(1, Level::Mem, 100);
        }
        c.record_load(1, Level::L1, 0);
        for _ in 0..9 {
            c.record_load(2, Level::L1, 0);
        }
        c.record_load(2, Level::Mem, 100);
        assert_eq!(c.true_miss_pcs(0.5), vec![1]);
        assert_eq!(c.true_miss_pcs(0.05), vec![1, 2]);
        assert!(c.true_miss_pcs(0.95).is_empty());
    }

    #[test]
    fn miss_likelihood_of_unused_pc_is_zero() {
        assert_eq!(PcStats::default().miss_likelihood(), 0.0);
    }

    #[test]
    fn per_pc_equality_ignores_table_capacity() {
        // A reference stepping loop grows the table lazily per touched
        // PC; the block engine pre-grows to the program length. Both must
        // compare equal when they recorded the same loads.
        let mut lazy = PerfCounters::new();
        lazy.record_load(3, Level::Mem, 7);
        let mut pregrown = PerfCounters::new();
        pregrown.per_pc.grow_to(1000);
        pregrown.record_load(3, Level::Mem, 7);
        assert_eq!(lazy, pregrown);
        pregrown.record_load(900, Level::L1, 0);
        assert_ne!(lazy, pregrown);
    }

    #[test]
    fn per_pc_get_and_index_expose_recorded_loads_only() {
        let mut c = PerfCounters::new();
        c.per_pc.grow_to(100);
        c.record_load(5, Level::L3, 2);
        assert_eq!(c.per_pc.get(5).unwrap().loads, 1);
        assert!(c.per_pc.get(6).is_none(), "grown but unrecorded");
        assert!(c.per_pc.get(4000).is_none(), "out of range");
        assert_eq!(c.per_pc[&4000], ZERO_STATS, "absent PCs read as zero");
        assert_eq!(c.per_pc.len(), 1);
        assert!(!c.per_pc.is_empty());
        let pcs: Vec<usize> = c.per_pc.iter().map(|(pc, _)| pc).collect();
        assert_eq!(pcs, vec![5]);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PerfCounters::new();
        a.busy_cycles = 10;
        a.record_load(3, Level::Mem, 5);
        let mut b = PerfCounters::new();
        b.busy_cycles = 20;
        b.record_load(3, Level::L1, 0);
        b.record_load(4, Level::L3, 2);
        a.merge(&b);
        assert_eq!(a.busy_cycles, 30);
        assert_eq!(a.per_pc[&3].loads, 2);
        assert_eq!(a.per_pc[&4].loads, 1);
        assert_eq!(a.loads, 3);
    }
}
