//! Scavenger instrumentation (§3.3): bound the inter-yield interval.
//!
//! Primary yields sit wherever the memory-access pattern put them, so two
//! adjacent yields "can be arbitrarily far apart". This pass places
//! *conditional* [`YieldKind::Scavenger`] yields so that, along every
//! static path, the cycles between consecutive yield points never exceed a
//! user-supplied target (e.g. 300 cycles = 100 ns — "bounded but
//! sufficient to hide L2/L3 cache misses").
//!
//! Per the paper, placement is profile-assisted: common-case load costs
//! come from the profile (miss likelihood times stall per miss; every
//! other instruction costs its fixed cycles — the LBR latencies the
//! profile also carries are not consulted), and a worst-case *static*
//! dataflow over the CFG bounds all paths, loops
//! included. The dataflow propagates the maximum possible
//! cycles-since-last-yield into each block (max over predecessors),
//! planning an insertion wherever the accumulator would cross the target;
//! insertions reset the accumulator, which is what makes the fixpoint
//! converge even around loops.

use crate::cfg::Cfg;
use crate::liveness::Liveness;
use crate::rewrite::{insert_before, Insertion, PcMap, RewriteError};
use reach_profile::Profile;
use reach_sim::{Inst, MachineConfig, Program, YieldKind};

/// Options for the scavenger pass.
#[derive(Clone, Copy, Debug)]
pub struct ScavengerOptions {
    /// Target maximum inter-yield interval in cycles.
    pub target_interval: u64,
    /// Annotate inserted yields with liveness save sets.
    pub use_liveness: bool,
}

impl Default for ScavengerOptions {
    fn default() -> Self {
        ScavengerOptions {
            target_interval: 300, // 100 ns at 3 GHz
            use_liveness: true,
        }
    }
}

/// Report from the scavenger pass.
#[derive(Clone, Debug)]
pub struct ScavReport {
    /// Conditional yields inserted.
    pub yields_inserted: usize,
    /// Longest inter-yield path before the pass, in *expected* cycles:
    /// each load is charged its expected cost, not its worst, so a run
    /// can exceed it and it is not a worst-case bound (`None` =
    /// unbounded: some cycle contains no yield).
    pub max_interval_before: Option<u64>,
    /// Longest inter-yield path after the pass, in expected cycles (see
    /// `max_interval_before`).
    pub max_interval_after: Option<u64>,
    /// PC map from the input program to the instrumented one.
    pub pc_map: PcMap,
}

/// Common-case cost estimator for one instruction of `prog`.
///
/// `origin` maps PCs of `prog` back to the binary the profile was
/// collected on (pass the composed [`PcMap::origin`] when `prog` was
/// already rewritten by the primary pass).
struct CostModel<'a> {
    prog: &'a Program,
    profile: Option<&'a Profile>,
    origin: Option<&'a [Option<usize>]>,
    mcfg: &'a MachineConfig,
    default_stall: f64,
}

impl<'a> CostModel<'a> {
    fn new(
        prog: &'a Program,
        profile: Option<&'a Profile>,
        origin: Option<&'a [Option<usize>]>,
        mcfg: &'a MachineConfig,
    ) -> Self {
        CostModel {
            prog,
            profile,
            origin,
            mcfg,
            default_stall: (mcfg.mem_latency - mcfg.ooo_window) as f64,
        }
    }

    /// Expected cycles the instruction at `pc` consumes in the common
    /// case.
    fn cost(&self, pc: usize) -> u64 {
        match &self.prog.insts[pc] {
            Inst::Alu { lat, .. } => *lat as u64,
            Inst::Imm { .. } | Inst::Store { .. } | Inst::Branch { .. } => 1,
            Inst::Call { .. } | Inst::Ret => 2,
            Inst::Prefetch { .. } => self.mcfg.prefetch_cost,
            Inst::Halt => 0,
            Inst::Yield { .. } => self.mcfg.cond_check_cost,
            Inst::Load { addr, offset, .. } => {
                // A load right after its own prefetch (primary
                // instrumentation) does not stall: the yield hid the fill.
                if self.is_prefetched(pc, *addr, *offset) {
                    return 1;
                }
                let Some(profile) = self.profile else {
                    return 1;
                };
                let opc = match self.origin {
                    Some(origin) => match origin[pc] {
                        Some(o) => o,
                        None => return 1,
                    },
                    None => pc,
                };
                let p = profile.miss_likelihood(opc);
                let stall = profile.stall_per_miss(opc).unwrap_or(self.default_stall);
                1 + (p * stall) as u64
            }
        }
    }

    /// Looks back a short window for a prefetch of the same address.
    fn is_prefetched(&self, pc: usize, addr: reach_sim::Reg, offset: i64) -> bool {
        let lo = pc.saturating_sub(6);
        self.prog.insts[lo..pc].iter().any(
            |i| matches!(i, Inst::Prefetch { addr: a, offset: o } if *a == addr && *o == offset),
        )
    }

    /// Whether executing `pc` resets the inter-yield accumulator (a yield
    /// that fires in scavenger mode).
    fn resets(&self, pc: usize) -> bool {
        matches!(
            self.prog.insts[pc],
            Inst::Yield {
                kind: YieldKind::Primary | YieldKind::Scavenger | YieldKind::Manual,
                ..
            }
        )
        // IfAbsent yields are conservatively NOT resets: in the worst case
        // the line is present and the yield does not fire.
    }
}

/// Forward max-dataflow: returns per-block worst-case accumulator at
/// entry, the set of planned insertion PCs (empty when `target` is
/// `None`), and the worst interval observed (saturating at `cap`).
fn interval_dataflow(
    prog: &Program,
    cfg: &Cfg,
    cost: &CostModel<'_>,
    target: Option<u64>,
) -> (Vec<usize>, Option<u64>) {
    // Saturation cap: anything that reaches it is effectively unbounded
    // (a cycle with no reset).
    let cap: u64 = prog
        .insts
        .iter()
        .enumerate()
        .map(|(pc, _)| cost.cost(pc))
        .sum::<u64>()
        .saturating_add(target.unwrap_or(0))
        .saturating_add(1);

    let nb = cfg.len();
    let mut acc_in = vec![0u64; nb];
    let mut dirty = vec![true; nb];
    let rpo = cfg.reverse_post_order();
    let mut max_seen = 0u64;

    // Transfer: walk the block from `acc`, planning (virtually) and
    // resetting; returns acc_out. `plan` receives insertion PCs when
    // provided.
    let transfer =
        |acc_in: u64, b: usize, mut plan: Option<&mut Vec<usize>>, max_seen: &mut u64| {
            let block = &cfg.blocks[b];
            let mut acc = acc_in;
            for pc in block.start..block.end {
                let c = cost.cost(pc);
                if let Some(t) = target {
                    if acc > 0 && acc.saturating_add(c) > t {
                        if let Some(plan) = plan.as_deref_mut() {
                            plan.push(pc);
                        }
                        acc = 0;
                    }
                }
                acc = acc.saturating_add(c).min(cap);
                *max_seen = (*max_seen).max(acc);
                if cost.resets(pc) {
                    acc = 0;
                }
            }
            acc
        };

    // Fixpoint on acc_in (monotone, bounded by cap). Plain iteration
    // climbs by one block-cost per pass, so a cheap loop body could need
    // ~cap/cost passes to reach the target; after `nb + 2` passes any
    // block still rising sits on a reset-free cycle — widen it straight
    // to the cap (the unbounded verdict) and let one more sweep close
    // the fixpoint.
    let mut iterations = 0usize;
    loop {
        let mut changed = false;
        for &b in &rpo {
            if !dirty[b] {
                continue;
            }
            dirty[b] = false;
            let out = transfer(acc_in[b], b, None, &mut max_seen);
            for &s in &cfg.blocks[b].succs {
                if out > acc_in[s] {
                    acc_in[s] = out;
                    dirty[s] = true;
                    changed = true;
                }
            }
        }
        iterations += 1;
        if !changed || iterations > 2 * nb + 4 {
            break;
        }
        if iterations == nb + 2 {
            for b in 0..nb {
                if dirty[b] {
                    acc_in[b] = cap;
                }
            }
        }
    }

    // Final pass: derive the plan and the true max with stable acc_in.
    max_seen = 0;
    let mut plan = Vec::new();
    for &b in &rpo {
        let mut block_plan = Vec::new();
        let _ = transfer(acc_in[b], b, Some(&mut block_plan), &mut max_seen);
        plan.extend(block_plan);
    }
    plan.sort_unstable();
    plan.dedup();

    let max = if max_seen >= cap {
        None
    } else {
        Some(max_seen)
    };
    (plan, max)
}

/// Runs the scavenger pass on `prog` (typically already
/// primary-instrumented).
///
/// `profile_and_origin` optionally supplies the profile plus the
/// `origin` map translating `prog` PCs back to the profiled binary; with
/// `None` the pass falls back to purely static cost estimates.
pub fn instrument_scavenger(
    prog: &Program,
    profile_and_origin: Option<(&Profile, &[Option<usize>])>,
    mcfg: &MachineConfig,
    opts: &ScavengerOptions,
) -> Result<(Program, ScavReport), RewriteError> {
    assert!(opts.target_interval > 0, "target interval must be positive");
    let cfg = Cfg::build(prog);
    let liveness = Liveness::compute(prog, &cfg);
    let (profile, origin) = match profile_and_origin {
        Some((p, o)) => (Some(p), Some(o)),
        None => (None, None),
    };
    let cost = CostModel::new(prog, profile, origin, mcfg);

    let (_, max_before) = interval_dataflow(prog, &cfg, &cost, None);
    let (plan, _) = interval_dataflow(prog, &cfg, &cost, Some(opts.target_interval));

    let insertions: Vec<Insertion> = plan
        .iter()
        .map(|&pc| {
            let save_regs = if opts.use_liveness {
                Some(liveness.live_before(pc))
            } else {
                None
            };
            Insertion {
                at_pc: pc,
                insts: vec![Inst::Yield {
                    kind: YieldKind::Scavenger,
                    save_regs,
                }],
            }
        })
        .collect();
    let yields_inserted = insertions.len();
    let (new_prog, pc_map) = insert_before(prog, insertions)?;

    // Re-analyze the instrumented binary to report the achieved bound.
    let new_cfg = Cfg::build(&new_prog);
    // Compose origins so load costs still resolve to the profiled binary.
    let composed: Option<Vec<Option<usize>>> = origin.map(|orig| {
        pc_map
            .origin
            .iter()
            .map(|&o| o.and_then(|p| orig[p]))
            .collect()
    });
    let new_cost = CostModel::new(&new_prog, profile, composed.as_deref(), mcfg);
    let (_, max_after) = interval_dataflow(&new_prog, &new_cfg, &new_cost, None);

    Ok((
        new_prog,
        ScavReport {
            yields_inserted,
            max_interval_before: max_before,
            max_interval_after: max_after,
            pc_map,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Cond, ProgramBuilder, Reg};

    /// A loop whose body burns ~`work` cycles with no yield.
    fn busy_loop(work: u32) -> Program {
        let mut b = ProgramBuilder::new("busy");
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(6), work);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    fn opts(target: u64) -> ScavengerOptions {
        ScavengerOptions {
            target_interval: target,
            use_liveness: true,
        }
    }

    #[test]
    fn yieldless_loop_is_statically_unbounded() {
        let prog = busy_loop(50);
        let (q, rep) =
            instrument_scavenger(&prog, None, &MachineConfig::default(), &opts(300)).unwrap();
        assert_eq!(rep.max_interval_before, None, "no yield on the cycle");
        assert!(rep.yields_inserted >= 1);
        let bound = rep.max_interval_after.expect("bounded after the pass");
        assert!(bound <= 300 + 52, "bound {bound} way above target");
        assert!(q.insts.iter().any(|i| matches!(
            i,
            Inst::Yield {
                kind: YieldKind::Scavenger,
                ..
            }
        )));
    }

    #[test]
    fn long_straight_line_gets_periodic_yields() {
        let mut b = ProgramBuilder::new("line");
        for _ in 0..10 {
            b.alu(AluOp::Add, Reg(2), Reg(2), Reg(6), 100);
        }
        b.halt();
        let prog = b.finish().unwrap();
        let (_, rep) =
            instrument_scavenger(&prog, None, &MachineConfig::default(), &opts(300)).unwrap();
        // 1000 cycles of work at a 300-cycle target: at least 3 yields.
        assert!(rep.yields_inserted >= 3, "{}", rep.yields_inserted);
        let after = rep.max_interval_after.unwrap();
        assert!(after <= 400, "interval after = {after}");
    }

    #[test]
    fn already_dense_yields_mean_no_insertions() {
        let mut b = ProgramBuilder::new("dense");
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(6), 10);
        b.yield_manual();
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        let prog = b.finish().unwrap();
        let (q, rep) =
            instrument_scavenger(&prog, None, &MachineConfig::default(), &opts(300)).unwrap();
        assert_eq!(rep.yields_inserted, 0);
        assert_eq!(q, prog);
        assert!(rep.max_interval_before.unwrap() <= 300);
    }

    #[test]
    fn primary_yields_count_as_resets() {
        let mut b = ProgramBuilder::new("p");
        let top = b.label();
        b.bind(top);
        b.push(Inst::Yield {
            kind: YieldKind::Primary,
            save_regs: Some(0b1),
        });
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(6), 100);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        let prog = b.finish().unwrap();
        let (_, rep) =
            instrument_scavenger(&prog, None, &MachineConfig::default(), &opts(300)).unwrap();
        assert_eq!(rep.yields_inserted, 0, "primary yield already resets");
    }

    #[test]
    fn diamond_takes_worst_case_path() {
        // One arm is cheap, the other burns 250 cycles; the join plus tail
        // burns 100 more. Worst path = 350 > 300 -> needs a yield even
        // though the hot (cheap) path would not.
        let mut b = ProgramBuilder::new("diamond");
        let expensive = b.label();
        let join = b.label();
        b.branch(Cond::Nez, Reg(0), expensive);
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(6), 10);
        b.jump(join);
        b.bind(expensive);
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(6), 250);
        b.bind(join);
        b.alu(AluOp::Add, Reg(3), Reg(3), Reg(6), 100);
        b.halt();
        let prog = b.finish().unwrap();
        let (_, rep) =
            instrument_scavenger(&prog, None, &MachineConfig::default(), &opts(300)).unwrap();
        assert!(rep.yields_inserted >= 1);
        assert!(rep.max_interval_after.unwrap() <= 352);
    }

    #[test]
    fn profile_aware_load_costs_drive_placement() {
        // Straight-line loads the profile says miss hard: their expected
        // cost alone exceeds the target, so the pass must insert even
        // though statically each load is "1 cycle" (and the whole
        // sequence is far under the target).
        let mut b = ProgramBuilder::new("l");
        for i in 0..4i64 {
            b.load(Reg(4), Reg(0), i * 8);
            b.alu(AluOp::Or, Reg(5), Reg(5), Reg(4), 1);
        }
        b.halt();
        let prog = b.finish().unwrap();

        let periods = reach_profile::Periods {
            l2_miss: 1,
            l3_miss: 1,
            stall: 1,
            retired: 1,
        };
        let mut profile = Profile::new("l", periods);
        for pc in [0usize, 2, 4, 6] {
            profile.retired_samples.insert(pc, 100);
            profile.l2_miss_samples.insert(pc, 90);
            profile.stall_samples.insert(pc, 90 * 270);
        }
        let origin: Vec<Option<usize>> = (0..prog.len()).map(Some).collect();

        let with_profile = instrument_scavenger(
            &prog,
            Some((&profile, &origin)),
            &MachineConfig::default(),
            &opts(300),
        )
        .unwrap()
        .1;
        let without = instrument_scavenger(&prog, None, &MachineConfig::default(), &opts(300))
            .unwrap()
            .1;
        // Statically the sequence is ~8 cycles: no yields needed. With
        // the profile each load is ~244 expected cycles: the pass must
        // insert.
        assert_eq!(without.yields_inserted, 0);
        assert!(with_profile.yields_inserted >= 1);
    }

    #[test]
    fn cheap_yieldless_loop_still_gets_a_yield() {
        // Regression for the fixpoint iteration cap: a reset-free cycle
        // is unbounded no matter how cheap one trip is (the trip count is
        // not statically known), so the pass must break it. The old
        // `nb + 2` cap quit before a 4-cycle body could climb past the
        // target, silently planning nothing.
        let mut b = ProgramBuilder::new("cheap");
        let top = b.label();
        b.bind(top);
        b.load(Reg(4), Reg(0), 0);
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        let prog = b.finish().unwrap();

        let (_, rep) =
            instrument_scavenger(&prog, None, &MachineConfig::default(), &opts(300)).unwrap();
        assert_eq!(rep.max_interval_before, None, "reset-free cycle");
        assert!(rep.yields_inserted >= 1);
        assert!(
            rep.max_interval_after.is_some(),
            "instrumented loop must be statically bounded"
        );
    }

    #[test]
    fn prefetched_load_is_cheap_for_placement() {
        // prefetch+yield+load (primary-instrumented shape): the load after
        // its own prefetch costs ~1, so no scavenger yield needed even
        // under a hot profile.
        let mut b = ProgramBuilder::new("pf");
        let top = b.label();
        b.bind(top);
        b.prefetch(Reg(0), 0);
        b.push(Inst::Yield {
            kind: YieldKind::Primary,
            save_regs: Some(0b1),
        });
        b.load(Reg(4), Reg(0), 0);
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        let prog = b.finish().unwrap();
        let periods = reach_profile::Periods {
            l2_miss: 1,
            l3_miss: 1,
            stall: 1,
            retired: 1,
        };
        let mut profile = Profile::new("pf", periods);
        profile.retired_samples.insert(2, 100);
        profile.l2_miss_samples.insert(2, 90);
        profile.stall_samples.insert(2, 90 * 270);
        let origin: Vec<Option<usize>> = (0..prog.len()).map(Some).collect();
        let (_, rep) = instrument_scavenger(
            &prog,
            Some((&profile, &origin)),
            &MachineConfig::default(),
            &opts(300),
        )
        .unwrap();
        assert_eq!(rep.yields_inserted, 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_target_panics() {
        let prog = busy_loop(10);
        let _ = instrument_scavenger(&prog, None, &MachineConfig::default(), &opts(0));
    }
}
