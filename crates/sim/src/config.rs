//! Machine configuration: cache geometry, latencies, switch costs, clock.
//!
//! All experiments share one [`MachineConfig`]; parameter sweeps clone it
//! and adjust fields. The defaults model a contemporary 3 GHz server core,
//! matching the magnitudes the paper cites: L2/L3 misses in the 10s–100s of
//! ns, coroutine switches at 9 ns, OS thread switches at ~1 µs.

/// Geometry and hit latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes. Must be a multiple of `line * ways`.
    pub size_bytes: usize,
    /// Associativity (ways per set), from 1 to 16: a set's recency order
    /// is one `u64` of 4-bit way numbers.
    pub ways: usize,
    /// Hit latency in cycles, measured from the issue of the access.
    pub hit_latency: u64,
}

impl CacheLevelConfig {
    /// Number of sets given the line size.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (an associativity outside
    /// `1..=16`, a non-divisible capacity or a non-power-of-two set
    /// count), which indicates a configuration bug.
    pub fn sets(&self, line_bytes: usize) -> usize {
        assert!(
            (1..=16).contains(&self.ways),
            "associativity {} of a {}-byte cache with {}-byte lines not in 1..=16",
            self.ways,
            self.size_bytes,
            line_bytes
        );
        let lines = self.size_bytes / line_bytes;
        assert!(
            lines.is_multiple_of(self.ways),
            "cache size {} not divisible into {} ways of {}-byte lines",
            self.size_bytes,
            self.ways,
            line_bytes
        );
        let sets = lines / self.ways;
        assert!(
            sets.is_power_of_two(),
            "set count {sets} not a power of two"
        );
        sets
    }
}

/// Full machine configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct MachineConfig {
    /// Core clock frequency in GHz; used only to convert cycles to
    /// nanoseconds for reporting.
    pub clock_ghz: f64,
    /// Cache line size in bytes (shared by all levels).
    pub line_bytes: usize,
    /// L1 data cache.
    pub l1: CacheLevelConfig,
    /// L2 cache.
    pub l2: CacheLevelConfig,
    /// L3 (last-level) cache.
    pub l3: CacheLevelConfig,
    /// Memory (DRAM) access latency in cycles, measured from issue.
    pub mem_latency: u64,
    /// Out-of-order-lite overlap window in cycles: stalls shorter than this
    /// are fully hidden by the core itself (models "hardware handles events
    /// below ~10 ns", paper §1). Applied to the portion of a load's latency
    /// beyond the L1 hit cost.
    pub ooo_window: u64,
    /// Base cost of a coroutine context switch in cycles, excluding the
    /// per-register save/restore cost (the "9 ns fcontext" number).
    pub coro_switch_base: u64,
    /// Additional cycles per saved/restored register beyond
    /// [`MachineConfig::coro_switch_free_regs`].
    pub coro_switch_per_reg: u64,
    /// Number of registers whose save cost is covered by
    /// [`MachineConfig::coro_switch_base`] (instruction pointer, stack
    /// pointer and the minimal callee-saved set).
    pub coro_switch_free_regs: u8,
    /// Cost of an OS thread context switch in cycles (paper §1 cites
    /// several hundred ns to a few µs [14, 38]).
    pub thread_switch: u64,
    /// Cost of an SMT hardware context switch in cycles (effectively 0).
    pub smt_switch: u64,
    /// Maximum SMT hardware contexts per core (paper: 2–8).
    pub smt_max_contexts: usize,
    /// SMT fairness quantum in cycles: a runnable hardware context is
    /// rotated out after this many cycles even without stalling. Real SMT
    /// multiplexes issue slots cycle-by-cycle; this is the event-driven
    /// approximation of that fair sharing.
    pub smt_quantum: u64,
    /// Cost in cycles of executing a software prefetch instruction.
    pub prefetch_cost: u64,
    /// Cost in cycles of evaluating a conditional yield's condition
    /// (scavenger mode check, or the §4.1 presence probe).
    pub cond_check_cost: u64,
    /// Cycles consumed by the PEBS microcode assist for every sample
    /// taken (tens of cycles on real hardware; the buffer is drained
    /// asynchronously).
    pub pebs_sample_cost: u64,
    /// Hardware next-line prefetcher degree: on a demand-load miss, the
    /// following `hw_prefetch_degree` sequential lines are fetched too.
    /// 0 disables the prefetcher (the default — the paper's target events
    /// are the ones no stride prefetcher can predict, but the ablation
    /// experiment turns this on to show streaming workloads stop
    /// stalling while pointer chases do not care).
    pub hw_prefetch_degree: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            clock_ghz: 3.0,
            line_bytes: 64,
            l1: CacheLevelConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                hit_latency: 4,
            },
            l2: CacheLevelConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                hit_latency: 14,
            },
            l3: CacheLevelConfig {
                size_bytes: 8 * 1024 * 1024,
                ways: 16,
                hit_latency: 42,
            },
            mem_latency: 300,     // 100 ns at 3 GHz
            ooo_window: 30,       // ~10 ns: OoO hides L1/L2-hit-class events
            coro_switch_base: 27, // 9 ns at 3 GHz (Boost fcontext_t)
            coro_switch_per_reg: 1,
            coro_switch_free_regs: 4,
            thread_switch: 3000, // 1 µs
            smt_switch: 0,
            smt_max_contexts: 8,
            smt_quantum: 50,
            prefetch_cost: 1,
            cond_check_cost: 2,
            pebs_sample_cost: 30,
            hw_prefetch_degree: 0,
        }
    }
}

impl MachineConfig {
    /// Converts a cycle count to nanoseconds under this clock.
    ///
    /// # Examples
    ///
    /// ```
    /// let c = reach_sim::MachineConfig::default();
    /// assert_eq!(c.cycles_to_ns(300), 100.0);
    /// ```
    #[inline]
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.clock_ghz
    }

    /// Converts nanoseconds to (rounded) cycles under this clock.
    #[inline]
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.clock_ghz).round() as u64
    }

    /// Cost in cycles of a coroutine switch that saves `nregs` registers.
    ///
    /// The first [`MachineConfig::coro_switch_free_regs`] registers are
    /// included in the base cost; each extra register costs
    /// [`MachineConfig::coro_switch_per_reg`] cycles. This is the knob the
    /// liveness optimization (§3.2) turns: fewer live registers, cheaper
    /// switch.
    #[inline]
    pub fn coro_switch_cost(&self, nregs: u8) -> u64 {
        let extra = nregs.saturating_sub(self.coro_switch_free_regs) as u64;
        self.coro_switch_base + extra * self.coro_switch_per_reg
    }

    /// The fill latency (cycles) of a demand access served by the given
    /// level, measured from issue. Level 0 = L1, 1 = L2, 2 = L3,
    /// 3 = memory.
    #[inline]
    pub fn latency_of_level(&self, level: usize) -> u64 {
        match level {
            0 => self.l1.hit_latency,
            1 => self.l2.hit_latency,
            2 => self.l3.hit_latency,
            _ => self.mem_latency,
        }
    }

    /// Validates internal consistency; panics on a malformed
    /// configuration. Called by `Machine::new`.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two above 1, any cache
    /// geometry is inconsistent, or latencies are not monotonically
    /// increasing with level.
    pub fn assert_valid(&self) {
        // More than one byte, so that no line address is `u64::MAX`, which
        // the cache model keeps for a free way.
        assert!(
            self.line_bytes.is_power_of_two() && self.line_bytes > 1,
            "line size must be 2^k, k > 0"
        );
        let _ = self.l1.sets(self.line_bytes);
        let _ = self.l2.sets(self.line_bytes);
        let _ = self.l3.sets(self.line_bytes);
        assert!(
            self.l1.hit_latency <= self.l2.hit_latency
                && self.l2.hit_latency <= self.l3.hit_latency
                && self.l3.hit_latency <= self.mem_latency,
            "latencies must be monotone in level"
        );
        assert!(self.clock_ghz > 0.0, "clock must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        MachineConfig::default().assert_valid();
    }

    #[test]
    fn default_magnitudes_match_paper() {
        let c = MachineConfig::default();
        // DRAM access = 100 ns, the canonical "middle of the spectrum" event.
        assert_eq!(c.cycles_to_ns(c.mem_latency), 100.0);
        // Coroutine switch base = 9 ns (Boost fcontext_t).
        assert_eq!(c.cycles_to_ns(c.coro_switch_base), 9.0);
        // OS thread switch = 1 us.
        assert_eq!(c.cycles_to_ns(c.thread_switch), 1000.0);
        // L3 hit (14 ns) sits inside the 10-100 ns band; L1 (1.33 ns)
        // below it.
        assert!(c.cycles_to_ns(c.l3.hit_latency) > 10.0);
        assert!(c.cycles_to_ns(c.l1.hit_latency) < 10.0);
    }

    #[test]
    fn sets_computation() {
        let c = MachineConfig::default();
        assert_eq!(c.l1.sets(64), 64); // 32 KiB / 64 B / 8 ways
        assert_eq!(c.l2.sets(64), 1024);
        assert_eq!(c.l3.sets(64), 8192);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn non_divisible_geometry_panics() {
        let lvl = CacheLevelConfig {
            size_bytes: 1000,
            ways: 7,
            hit_latency: 1,
        };
        let _ = lvl.sets(64);
    }

    #[test]
    #[should_panic(expected = "associativity 0 of a 4096-byte cache with 64-byte lines")]
    fn zero_ways_panics_with_the_geometry_not_a_division() {
        let mut c = MachineConfig::default();
        c.l2.size_bytes = 4096;
        c.l2.ways = 0;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "associativity 17 of a 69632-byte cache with 64-byte lines")]
    fn seventeen_ways_panics() {
        let mut c = MachineConfig::default();
        c.l3.size_bytes = 17 * 64 * 64;
        c.l3.ways = 17;
        c.assert_valid();
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        let lvl = CacheLevelConfig {
            size_bytes: 1000,
            ways: 3,
            hit_latency: 1,
        };
        let _ = lvl.sets(64);
    }

    #[test]
    fn switch_cost_scales_with_saved_registers() {
        let c = MachineConfig::default();
        assert_eq!(c.coro_switch_cost(0), c.coro_switch_base);
        assert_eq!(c.coro_switch_cost(4), c.coro_switch_base);
        assert_eq!(c.coro_switch_cost(8), c.coro_switch_base + 4);
        assert!(c.coro_switch_cost(32) > c.coro_switch_cost(8));
    }

    #[test]
    fn ns_cycle_round_trip() {
        let c = MachineConfig::default();
        assert_eq!(c.ns_to_cycles(100.0), 300);
        assert_eq!(c.ns_to_cycles(9.0), 27);
    }

    #[test]
    fn latency_of_level_monotone() {
        let c = MachineConfig::default();
        let l: Vec<u64> = (0..4).map(|i| c.latency_of_level(i)).collect();
        assert!(l.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(l[3], c.mem_latency);
    }
}
