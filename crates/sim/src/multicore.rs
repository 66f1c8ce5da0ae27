//! N-core machine model: per-core private L1/L2 plus a coarse shared
//! L3-occupancy and DRAM-bandwidth contention model.
//!
//! Each core is a full [`Machine`] — its own clock, cache hierarchy,
//! counters, samplers and fault injector — so everything that already
//! works on one core (dual-mode execution, the supervisor, fault
//! injection) works unchanged per core. What single machines cannot
//! express is *interference*: N cores hammering one last-level cache
//! and one memory controller slow each other down. Modeling that at
//! per-access granularity would mean threading a shared hierarchy
//! through every core's hot path; the serving layer operates in epochs
//! anyway, so the model here is deliberately coarse and epoch-grained:
//!
//! * **Shared L3 occupancy** — between two [`MultiCore::apply_contention`]
//!   calls, each core's demand traffic that reached L3 or memory
//!   approximates its footprint in the shared cache. When the summed
//!   footprint exceeds the shared capacity, every core's L3 hit latency
//!   gains a penalty proportional to the overcommit (cross-core
//!   conflict misses cost extra trips, modeled as latency rather than
//!   per-line eviction).
//! * **DRAM bandwidth throttle** — the aggregate rate of memory fills
//!   (lines per kilocycle) above the configured budget queues at the
//!   memory controller; every core's memory latency gains a penalty
//!   proportional to the overdemand.
//!
//! Both penalties are pure integer functions of the cores' own
//! deterministic counters, so an N-core run is replay-deterministic,
//! and with contention disabled (or a single quiet core) latencies stay
//! byte-identical to the single-core model. Penalties apply *between*
//! epochs — in-flight fills keep their issued completion cycle.
//!
//! Between two [`MultiCore::apply_contention`] calls the cores share
//! nothing, so they may run on separate host threads. The serving
//! fleet does: it steps each epoch's shards host-parallel, one core
//! per shard, and calls `apply_contention` after the join.

use crate::config::MachineConfig;
use crate::machine::Machine;

/// Configuration of the shared uncore (L3 + memory controller).
#[derive(Clone, Debug)]
pub struct MultiCoreConfig {
    /// Number of cores.
    pub cores: usize,
    /// Per-core baseline configuration (private L1/L2; its L3 section
    /// describes the shared L3 every core sees).
    pub core: MachineConfig,
    /// Shared L3 capacity in lines. The per-core [`MachineConfig::l3`]
    /// geometry is the *same* shared cache seen from each core; this is
    /// its capacity for the occupancy model.
    pub shared_l3_lines: u64,
    /// Aggregate DRAM bandwidth budget: demand lines the memory
    /// controller sustains per 1000 cycles without queueing.
    pub dram_lines_per_kcycle: u64,
    /// Extra L3 hit cycles per 100% footprint overcommit.
    pub l3_penalty_step: u64,
    /// Extra memory cycles per 100% bandwidth overdemand.
    pub dram_penalty_step: u64,
    /// Upper bound on either penalty, in cycles.
    pub max_penalty: u64,
}

impl MultiCoreConfig {
    /// A contemporary `cores`-way server around the default core: the
    /// default 8 MiB L3 shared by all cores, and a bandwidth budget that
    /// one streaming core can just about saturate (so N cores contend).
    pub fn new(cores: usize) -> Self {
        let core = MachineConfig::default();
        let shared_l3_lines = (core.l3.size_bytes / core.line_bytes) as u64;
        MultiCoreConfig {
            cores,
            core,
            shared_l3_lines,
            // ~21 GB/s at 3 GHz and 64-byte lines: one line per ~9
            // cycles sustained.
            dram_lines_per_kcycle: 110,
            l3_penalty_step: 12,
            dram_penalty_step: 60,
            max_penalty: 400,
        }
    }
}

/// The uncore's current contention estimate, refreshed by every
/// [`MultiCore::apply_contention`] call. All fields are exact integers
/// derived from simulated counters — safe to gate byte-identically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UncoreStatus {
    /// Shared-L3 footprint of the last window as a percentage of
    /// capacity (100 = exactly full).
    pub l3_occupancy_pct: u64,
    /// DRAM demand of the last window as a percentage of the bandwidth
    /// budget (100 = exactly saturated).
    pub dram_demand_pct: u64,
    /// Extra cycles currently added to every core's L3 hit latency.
    pub l3_extra: u64,
    /// Extra cycles currently added to every core's memory latency.
    pub mem_extra: u64,
    /// Peak `l3_extra` ever applied.
    pub l3_extra_peak: u64,
    /// Peak `mem_extra` ever applied.
    pub mem_extra_peak: u64,
}

/// Per-core counter snapshot from the end of the previous window.
#[derive(Clone, Copy, Debug, Default)]
struct CoreSnapshot {
    l3_served: u64,
    mem_served: u64,
    now: u64,
}

/// N independent cores sharing an L3 and a memory controller.
///
/// The fleet serving layer steps its shards on `cores[shard]` and calls
/// [`MultiCore::apply_contention`] at every epoch boundary; everything
/// else treats each core as an ordinary [`Machine`].
pub struct MultiCore {
    /// The cores. Index = core id = shard id in the serving layer.
    pub cores: Vec<Machine>,
    cfg: MultiCoreConfig,
    snapshots: Vec<CoreSnapshot>,
    status: UncoreStatus,
}

impl MultiCore {
    /// Builds `cfg.cores` machines with cold private caches at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores == 0` or the core configuration is invalid.
    pub fn new(cfg: MultiCoreConfig) -> Self {
        assert!(cfg.cores > 0, "a fleet needs at least one core");
        let cores: Vec<Machine> = (0..cfg.cores)
            .map(|_| Machine::new(cfg.core.clone()))
            .collect();
        let snapshots = vec![CoreSnapshot::default(); cfg.cores];
        MultiCore {
            cores,
            cfg,
            snapshots,
            status: UncoreStatus::default(),
        }
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// True when the fleet has no cores (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The current contention estimate.
    pub fn status(&self) -> UncoreStatus {
        self.status
    }

    /// Folds the window since the previous call into fresh contention
    /// penalties and applies them to every core's L3/memory latency.
    ///
    /// Deterministic: integer arithmetic over each core's own simulated
    /// counters. Returns the new status. With one quiet core (or
    /// traffic inside both budgets) the penalties are zero and each
    /// core's latencies equal the baseline configuration exactly.
    pub fn apply_contention(&mut self) -> UncoreStatus {
        let mut l3_lines = 0u64;
        let mut mem_lines = 0u64;
        let mut elapsed = 0u64;
        for (core, snap) in self.cores.iter().zip(&mut self.snapshots) {
            let s = &core.hier.stats;
            // Demand traffic that reached the shared uncore this window:
            // lines served by L3 occupy it; lines served by memory both
            // occupy it (they fill into L3) and consume DRAM bandwidth.
            let l3_served = s.demand_hits[2];
            let mem_served = s.demand_hits[3];
            l3_lines += (l3_served - snap.l3_served) + (mem_served - snap.mem_served);
            mem_lines += mem_served - snap.mem_served;
            elapsed = elapsed.max(core.now - snap.now);
            *snap = CoreSnapshot {
                l3_served,
                mem_served,
                now: core.now,
            };
        }
        let elapsed = elapsed.max(1);

        let occupancy_pct = l3_lines * 100 / self.cfg.shared_l3_lines.max(1);
        let demand_rate = mem_lines * 1000 / elapsed;
        let demand_pct = demand_rate * 100 / self.cfg.dram_lines_per_kcycle.max(1);

        let l3_extra = (occupancy_pct.saturating_sub(100) * self.cfg.l3_penalty_step / 100)
            .min(self.cfg.max_penalty);
        let mem_extra = (demand_pct.saturating_sub(100) * self.cfg.dram_penalty_step / 100)
            .min(self.cfg.max_penalty);

        for core in &mut self.cores {
            let mut cfg = self.cfg.core.clone();
            cfg.l3.hit_latency += l3_extra;
            cfg.mem_latency += mem_extra;
            core.hier.set_latencies(&cfg);
            core.cfg = cfg;
        }
        self.status = UncoreStatus {
            l3_occupancy_pct: occupancy_pct,
            dram_demand_pct: demand_pct,
            l3_extra,
            mem_extra,
            l3_extra_peak: self.status.l3_extra_peak.max(l3_extra),
            mem_extra_peak: self.status.mem_extra_peak.max(mem_extra),
        };
        self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;
    use crate::isa::{ProgramBuilder, Reg};

    /// A tight dependent pointer chase over `n` lines starting at `base`:
    /// every load misses all private levels once, so uncore traffic is
    /// easy to provoke.
    fn chase_prog() -> crate::isa::Program {
        let mut b = ProgramBuilder::new("chase");
        let top = b.label();
        b.bind(top);
        b.load(Reg(1), Reg(1), 0);
        b.alu(crate::isa::AluOp::Add, Reg(2), Reg(2), Reg(0), 1);
        b.branch(crate::isa::Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    fn chase_context(m: &mut Machine, base: u64, nodes: u64, stride: u64) -> Context {
        for i in 0..nodes {
            let addr = base + i * stride;
            let next = if i + 1 == nodes { 0 } else { addr + stride };
            m.mem.write(addr, next).unwrap();
        }
        let mut c = Context::new(0);
        c.regs[1] = base;
        c
    }

    #[test]
    fn quiet_cores_keep_baseline_latencies() {
        let mut mc = MultiCore::new(MultiCoreConfig::new(4));
        let st = mc.apply_contention();
        assert_eq!(st.l3_extra, 0);
        assert_eq!(st.mem_extra, 0);
        for core in &mc.cores {
            assert_eq!(core.cfg, MachineConfig::default());
        }
    }

    #[test]
    fn single_core_counters_match_a_plain_machine() {
        // The multi-core wrapper must be a pure superset: core 0 driven
        // alone, with contention applied every epoch, stays
        // byte-identical to a standalone machine as long as traffic is
        // under budget.
        let prog = chase_prog();
        let mut mc = MultiCore::new(MultiCoreConfig::new(2));
        let mut solo = Machine::new(MachineConfig::default());
        let mut c0 = chase_context(&mut mc.cores[0], 0x10000, 64, 4096);
        let mut c1 = chase_context(&mut solo, 0x10000, 64, 4096);
        mc.cores[0].run(&prog, &mut c0, u64::MAX).unwrap();
        mc.apply_contention();
        solo.run(&prog, &mut c1, u64::MAX).unwrap();
        assert_eq!(mc.cores[0].now, solo.now);
        assert_eq!(c0.regs, c1.regs);
        assert_eq!(
            mc.cores[0].hier.stats.demand_hits,
            solo.hier.stats.demand_hits
        );
    }

    #[test]
    fn saturating_cores_pay_contention_and_quiescence_clears_it() {
        let prog = chase_prog();
        let mut cfg = MultiCoreConfig::new(4);
        // Tiny budgets so a short chase overcommits both resources.
        cfg.shared_l3_lines = 16;
        cfg.dram_lines_per_kcycle = 1;
        let mut mc = MultiCore::new(cfg);
        for core_id in 0..4 {
            let mut c = chase_context(&mut mc.cores[core_id], 0x10000, 256, 4096);
            mc.cores[core_id].run(&prog, &mut c, u64::MAX).unwrap();
        }
        let st = mc.apply_contention();
        assert!(st.l3_occupancy_pct > 100, "{st:?}");
        assert!(st.dram_demand_pct > 100, "{st:?}");
        assert!(st.l3_extra > 0 && st.mem_extra > 0, "{st:?}");
        assert!(st.l3_extra <= 400 && st.mem_extra <= 400);
        for core in &mc.cores {
            assert_eq!(
                core.cfg.mem_latency,
                MachineConfig::default().mem_latency + st.mem_extra
            );
        }
        // A quiet window drops the penalty back to zero: contention is
        // a property of the window, not a ratchet.
        let st2 = mc.apply_contention();
        assert_eq!(st2.l3_extra, 0);
        assert_eq!(st2.mem_extra, 0);
        assert_eq!(st2.l3_extra_peak, st.l3_extra);
        for core in &mc.cores {
            assert_eq!(core.cfg, MachineConfig::default());
        }
    }

    #[test]
    fn contention_is_deterministic_across_replays() {
        let run = || {
            let prog = chase_prog();
            let mut cfg = MultiCoreConfig::new(3);
            cfg.shared_l3_lines = 32;
            cfg.dram_lines_per_kcycle = 2;
            let mut mc = MultiCore::new(cfg);
            let mut log = Vec::new();
            for round in 0..3u64 {
                for core_id in 0..3 {
                    let base = 0x10000 + round * 0x100000;
                    let mut c = chase_context(&mut mc.cores[core_id], base, 128, 4096);
                    mc.cores[core_id].run(&prog, &mut c, u64::MAX).unwrap();
                }
                log.push(mc.apply_contention());
            }
            (log, mc.cores.iter().map(|c| c.now).collect::<Vec<_>>())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn contended_chase_is_slower_than_solo() {
        // The point of the model: the same per-core work costs more
        // cycles when the fleet saturates the uncore.
        let prog = chase_prog();
        let mut cfg = MultiCoreConfig::new(2);
        cfg.shared_l3_lines = 16;
        cfg.dram_lines_per_kcycle = 1;
        let mut mc = MultiCore::new(cfg);
        // Epoch 1: both cores chase, overcommitting the uncore.
        for core_id in 0..2 {
            let mut c = chase_context(&mut mc.cores[core_id], 0x10000, 256, 4096);
            mc.cores[core_id].run(&prog, &mut c, u64::MAX).unwrap();
        }
        let before = mc.cores[0].now;
        mc.apply_contention();
        // Epoch 2 under contention vs. the same chase on a fresh solo
        // machine (same cold-cache state for the new address range).
        let mut c = chase_context(&mut mc.cores[0], 0x900000, 256, 4096);
        mc.cores[0].run(&prog, &mut c, u64::MAX).unwrap();
        let contended = mc.cores[0].now - before;

        let mut solo = Machine::new(MachineConfig::default());
        let mut warm = chase_context(&mut solo, 0x10000, 256, 4096);
        solo.run(&prog, &mut warm, u64::MAX).unwrap();
        let t0 = solo.now;
        let mut c2 = chase_context(&mut solo, 0x900000, 256, 4096);
        solo.run(&prog, &mut c2, u64::MAX).unwrap();
        let uncontended = solo.now - t0;
        assert!(
            contended > uncontended,
            "contended {contended} <= uncontended {uncontended}"
        );
    }
}
