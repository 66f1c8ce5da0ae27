//! Primary instrumentation (§3.2): insert `prefetch + yield` before the
//! load sites the policy selected.
//!
//! For each selected load, the pass inserts (i) a software prefetch of the
//! requested line and (ii) a [`YieldKind::Primary`] yield annotated with
//! the live-register save set, immediately before the load. When
//! coalescing is enabled, runs of selected loads whose addresses are all
//! computable at the first one (see [`crate::dependence`]) share a single
//! yield: their prefetches issue back-to-back and one switch amortizes
//! over all the fills.

use crate::cfg::Cfg;
use crate::cost_model::{select_sites, Policy, SiteDecision};
use crate::dependence::coalesce_groups;
use crate::liveness::Liveness;
use crate::rewrite::{insert_before, Insertion, PcMap, RewriteError};
use reach_profile::Profile;
use reach_sim::{Inst, MachineConfig, Program, YieldKind, NUM_REGS};

/// Options for the primary pass.
#[derive(Clone, Copy, Debug)]
pub struct PrimaryOptions {
    /// Site-selection policy.
    pub policy: Policy,
    /// Annotate yields with liveness-derived save sets (§3.2 optimization
    /// 1). When false, yields save the full architectural file.
    pub use_liveness: bool,
    /// Coalesce adjacent independent selected loads under one yield
    /// (§3.2 optimization 2).
    pub coalesce: bool,
}

impl Default for PrimaryOptions {
    fn default() -> Self {
        PrimaryOptions {
            policy: Policy::CostModel { margin: 1.0 },
            use_liveness: true,
            coalesce: true,
        }
    }
}

/// What the primary pass did.
#[derive(Clone, Debug)]
pub struct PrimaryReport {
    /// Model verdicts for every load site.
    pub decisions: Vec<SiteDecision>,
    /// Yields inserted (≤ selected sites when coalescing).
    pub yields_inserted: usize,
    /// Prefetches inserted (= selected sites).
    pub prefetches_inserted: usize,
    /// PC map from the input program to the instrumented one.
    pub pc_map: PcMap,
}

impl PrimaryReport {
    /// Number of sites the policy selected.
    pub fn sites_selected(&self) -> usize {
        self.decisions.iter().filter(|d| d.instrument).count()
    }
}

/// Runs the primary instrumentation pass.
///
/// `profile` must have been collected on `prog` (PCs must refer to this
/// program image).
pub fn instrument_primary(
    prog: &Program,
    profile: &Profile,
    mcfg: &MachineConfig,
    opts: &PrimaryOptions,
) -> Result<(Program, PrimaryReport), RewriteError> {
    let cfg = Cfg::build(prog);
    let liveness = Liveness::compute(prog, &cfg);

    let decisions = select_sites(prog, profile, mcfg, opts.policy, |pc| {
        if opts.use_liveness {
            liveness.live_count(pc)
        } else {
            NUM_REGS as u32
        }
    });
    let selected: Vec<usize> = decisions
        .iter()
        .filter(|d| d.instrument)
        .map(|d| d.pc)
        .collect();

    // Partition the selected loads by basic block and coalesce within it.
    let mut insertions: Vec<Insertion> = Vec::new();
    let mut yields_inserted = 0;
    let mut prefetches_inserted = 0;
    let mut i = 0;
    while i < selected.len() {
        let block = cfg.block_of_pc(selected[i]);
        let mut in_block = vec![selected[i]];
        let mut j = i + 1;
        while j < selected.len() && cfg.block_of_pc(selected[j]) == block {
            in_block.push(selected[j]);
            j += 1;
        }
        i = j;

        let bstart = cfg.blocks[block].start;
        let rel: Vec<usize> = in_block.iter().map(|&pc| pc - bstart).collect();
        let insts = &prog.insts[cfg.blocks[block].start..cfg.blocks[block].end];
        let groups = if opts.coalesce {
            coalesce_groups(insts, &rel)
        } else {
            rel.iter().map(|&r| vec![r]).collect()
        };

        for group in groups {
            let anchor_pc = bstart + group[0];
            let mut new_insts = Vec::with_capacity(group.len() + 1);
            for &member in &group {
                let Inst::Load { addr, offset, .. } = prog.insts[bstart + member] else {
                    unreachable!("selected site is always a load");
                };
                new_insts.push(Inst::Prefetch { addr, offset });
                prefetches_inserted += 1;
            }
            let save_regs = if opts.use_liveness {
                Some(liveness.live_before(anchor_pc))
            } else {
                None
            };
            new_insts.push(Inst::Yield {
                kind: YieldKind::Primary,
                save_regs,
            });
            yields_inserted += 1;
            insertions.push(Insertion {
                at_pc: anchor_pc,
                insts: new_insts,
            });
        }
    }

    let (new_prog, pc_map) = insert_before(prog, insertions)?;
    Ok((
        new_prog,
        PrimaryReport {
            decisions,
            yields_inserted,
            prefetches_inserted,
            pc_map,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_profile::Periods;
    use reach_sim::{AluOp, Cond, Context, Machine, MachineConfig, ProgramBuilder, Reg};

    /// chase-like loop: 0: load r4,[r0]; 1: mov r0,r4; 2: sub r1; 3: bnez.
    fn chase_prog() -> Program {
        let mut b = ProgramBuilder::new("chase");
        let top = b.label();
        b.bind(top);
        b.load(Reg(4), Reg(0), 0);
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    fn hot_profile_for(pc: usize) -> Profile {
        let periods = Periods {
            l2_miss: 1,
            l3_miss: 1,
            stall: 1,
            retired: 1,
        };
        let mut p = Profile::new("chase", periods);
        p.retired_samples.insert(pc, 1000);
        p.l2_miss_samples.insert(pc, 950);
        p.stall_samples.insert(pc, 950 * 270);
        p
    }

    #[test]
    fn inserts_prefetch_and_yield_before_hot_load() {
        let prog = chase_prog();
        let (q, rep) = instrument_primary(
            &prog,
            &hot_profile_for(0),
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        assert_eq!(rep.sites_selected(), 1);
        assert_eq!(rep.yields_inserted, 1);
        assert_eq!(rep.prefetches_inserted, 1);
        // Layout: prefetch, yield, load...
        assert!(matches!(q.insts[0], Inst::Prefetch { .. }));
        assert!(matches!(
            q.insts[1],
            Inst::Yield {
                kind: YieldKind::Primary,
                save_regs: Some(_)
            }
        ));
        assert!(matches!(q.insts[2], Inst::Load { .. }));
        // Back edge points at the prefetch.
        let Inst::Branch { target, .. } = q.insts[5] else {
            panic!("expected branch at pc 5, got {:?}", q.insts[5]);
        };
        assert_eq!(target, 0);
    }

    #[test]
    fn save_set_is_live_registers_only() {
        let prog = chase_prog();
        let (q, _) = instrument_primary(
            &prog,
            &hot_profile_for(0),
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        let Inst::Yield {
            save_regs: Some(mask),
            ..
        } = q.insts[1]
        else {
            panic!("yield must carry a save set");
        };
        // Live before the load: r0 (addr), r1 (counter), r6 (const 1).
        assert_eq!(mask, (1 << 0) | (1 << 1) | (1 << 6));
    }

    #[test]
    fn no_liveness_means_full_save_set() {
        let prog = chase_prog();
        let (q, _) = instrument_primary(
            &prog,
            &hot_profile_for(0),
            &MachineConfig::default(),
            &PrimaryOptions {
                use_liveness: false,
                ..PrimaryOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(
            q.insts[1],
            Inst::Yield {
                save_regs: None,
                ..
            }
        ));
    }

    #[test]
    fn cold_profile_inserts_nothing() {
        let prog = chase_prog();
        let p = Profile::new("chase", Periods::default());
        let (q, rep) = instrument_primary(
            &prog,
            &p,
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        assert_eq!(q, prog);
        assert_eq!(rep.sites_selected(), 0);
    }

    #[test]
    fn coalescing_shares_one_yield_across_independent_loads() {
        // Two independent chains advanced in lockstep.
        let mut b = ProgramBuilder::new("pair");
        let top = b.label();
        b.bind(top);
        b.load(Reg(4), Reg(0), 0); // chain A
        b.load(Reg(5), Reg(2), 0); // chain B, independent
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Or, Reg(2), Reg(5), Reg(5), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        let prog = b.finish().unwrap();

        let mut profile = hot_profile_for(0);
        profile.retired_samples.insert(1, 1000);
        profile.l2_miss_samples.insert(1, 950);
        profile.stall_samples.insert(1, 950 * 270);

        let run = |coalesce: bool| {
            instrument_primary(
                &prog,
                &profile,
                &MachineConfig::default(),
                &PrimaryOptions {
                    coalesce,
                    ..PrimaryOptions::default()
                },
            )
            .unwrap()
            .1
        };
        let with = run(true);
        let without = run(false);
        assert_eq!(with.prefetches_inserted, 2);
        assert_eq!(with.yields_inserted, 1, "one yield for the pair");
        assert_eq!(without.yields_inserted, 2);
    }

    #[test]
    fn dependent_loads_do_not_coalesce() {
        // load r4,[r0]; load r5,[r4]: the classic dependent pair.
        let mut b = ProgramBuilder::new("dep");
        b.load(Reg(4), Reg(0), 0);
        b.load(Reg(5), Reg(4), 0);
        b.halt();
        let prog = b.finish().unwrap();
        let mut profile = hot_profile_for(0);
        profile.retired_samples.insert(1, 1000);
        profile.l2_miss_samples.insert(1, 950);
        profile.stall_samples.insert(1, 950 * 270);
        let (_, rep) = instrument_primary(
            &prog,
            &profile,
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        assert_eq!(rep.yields_inserted, 2);
    }

    #[test]
    fn instrumented_program_preserves_semantics() {
        let prog = chase_prog();
        let (q, _) = instrument_primary(
            &prog,
            &hot_profile_for(0),
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();

        let run = |p: &Program| {
            let mut m = Machine::new(MachineConfig::default());
            // A 3-node cycle of self-addressing nodes.
            m.mem.write(0x1000, 0x2000).unwrap();
            m.mem.write(0x2000, 0x3000).unwrap();
            m.mem.write(0x3000, 0x1000).unwrap();
            let mut ctx = Context::new(0);
            ctx.set_reg(Reg(0), 0x1000);
            ctx.set_reg(Reg(1), 5);
            ctx.set_reg(Reg(6), 1);
            m.run_to_completion(p, &mut ctx, 1000).unwrap();
            (ctx.reg(Reg(0)), ctx.reg(Reg(4)))
        };
        assert_eq!(run(&prog), run(&q));
    }
}
