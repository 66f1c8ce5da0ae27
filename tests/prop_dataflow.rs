//! Properties of the generic dataflow engine.
//!
//! Two families of guarantees:
//!
//! 1. **Differential**: the engine-backed liveness
//!    ([`Liveness::compute`]) is bit-identical to the original
//!    hand-rolled worklist ([`reference_liveness`], kept here and only
//!    here) — on every workload program in the suite, on every
//!    pipeline-instrumented binary, on arbitrary generated programs, and
//!    on the hand-written examples that pin what liveness *means*
//!    (`mod examples`: every one of them runs both).
//! 2. **Fixpoint**: on arbitrary CFGs the engine terminates and its
//!    solution actually *is* a fixpoint — per-instruction facts are
//!    transfer-consistent, and block boundaries satisfy the join
//!    equations.

mod common;

use common::gen_program;
use proptest::prelude::*;
use reach_bench::{pgo_build, workload_builder, WORKLOAD_NAMES};
use reach_core::PipelineOptions;
use reach_instrument::{
    solve, Cfg, DataflowProblem, Direction, Liveness, LivenessProblem, ReachingDefsProblem, RegSet,
    ALL_REGS,
};
use reach_sim::isa::{Inst, Program};
use reach_sim::MachineConfig;

/// The original hand-rolled backward worklist, kept as the differential
/// oracle: `live_in` per pc, `live' = (live \ def) ∪ uses`, `ret` makes
/// everything live, nothing is live after `halt`.
fn reference_liveness(prog: &Program, cfg: &Cfg) -> Vec<RegSet> {
    let mut live_in = vec![0u32; prog.len()];
    let mut uses_buf = Vec::with_capacity(4);

    // Worklist over blocks, backward.
    let mut dirty = vec![true; cfg.len()];
    let mut work: Vec<usize> = (0..cfg.len()).rev().collect();
    while let Some(b) = work.pop() {
        if !dirty[b] {
            continue;
        }
        dirty[b] = false;
        let block = &cfg.blocks[b];

        // live-out of the block = union of successors' live-in, with
        // the conservative exits baked in.
        let mut live = match prog.insts[block.end - 1] {
            Inst::Ret => ALL_REGS,
            _ => 0,
        };
        for &s in &block.succs {
            live |= live_in[cfg.blocks[s].start];
        }

        // Backward transfer through the block.
        let mut changed = false;
        for pc in (block.start..block.end).rev() {
            let inst = &prog.insts[pc];
            uses_buf.clear();
            inst.uses(&mut uses_buf);
            let uses = uses_buf.iter().fold(0, |set, r| set | 1u32 << r.index());
            let def = inst.def().map_or(0, |r| 1u32 << r.index());
            live = (live & !def) | uses;
            if live_in[pc] != live {
                live_in[pc] = live;
                changed = true;
            }
        }
        if changed {
            for &p in &block.preds {
                if !dirty[p] {
                    dirty[p] = true;
                    work.push(p);
                }
            }
        }
    }
    live_in
}

fn assert_engine_matches_reference(prog: &Program, what: &str) {
    let cfg = Cfg::build(prog);
    let engine = Liveness::compute(prog, &cfg);
    let reference = reference_liveness(prog, &cfg);
    for (pc, &live) in reference.iter().enumerate() {
        assert_eq!(
            engine.live_before(pc),
            live,
            "{what}: liveness deviates from reference at pc {pc}"
        );
    }
}

/// Checks that a solved problem satisfies the dataflow equations on
/// `prog`: transfer-consistency inside blocks and join-consistency at
/// block boundaries.
fn assert_is_fixpoint<P: DataflowProblem>(problem: &P, prog: &Program, cfg: &Cfg)
where
    P::Fact: std::fmt::Debug,
{
    let sol = solve(problem, prog, cfg);
    // Transfer consistency at every pc.
    for pc in 0..prog.len() {
        match problem.direction() {
            Direction::Forward => {
                let mut f = sol.before(pc).clone();
                problem.transfer(pc, &prog.insts[pc], &mut f);
                assert_eq!(
                    &f,
                    sol.after(pc),
                    "forward transfer inconsistent at pc {pc}"
                );
            }
            Direction::Backward => {
                let mut f = sol.after(pc).clone();
                problem.transfer(pc, &prog.insts[pc], &mut f);
                assert_eq!(
                    &f,
                    sol.before(pc),
                    "backward transfer inconsistent at pc {pc}"
                );
            }
        }
    }
    // Join consistency at block boundaries.
    for (b, blk) in cfg.blocks.iter().enumerate() {
        match problem.direction() {
            Direction::Forward => {
                let mut joined = if b == 0 {
                    problem.boundary(None)
                } else {
                    problem.bottom()
                };
                for &p in &blk.preds {
                    let pred_exit = cfg.blocks[p].end - 1;
                    problem.join(&mut joined, sol.after(pred_exit));
                }
                assert_eq!(
                    &joined,
                    sol.before(blk.start),
                    "forward join inconsistent at block {b}"
                );
            }
            Direction::Backward => {
                let mut joined = if blk.succs.is_empty() {
                    problem.boundary(Some(&prog.insts[blk.end - 1]))
                } else {
                    problem.bottom()
                };
                for &s in &blk.succs {
                    problem.join(&mut joined, sol.before(cfg.blocks[s].start));
                }
                assert_eq!(
                    &joined,
                    sol.after(blk.end - 1),
                    "backward join inconsistent at block {b}"
                );
            }
        }
    }
}

#[test]
fn liveness_engine_matches_reference_on_workload_suite() {
    let cfg = MachineConfig::default();
    for name in WORKLOAD_NAMES {
        let build = workload_builder(name).unwrap();
        // The original workload program...
        let (_, w) = reach_bench::fresh(&cfg, &*build);
        assert_engine_matches_reference(&w.prog, name);
        // ...and its fully instrumented pipeline output.
        let built = pgo_build(&cfg, &*build, 1, &PipelineOptions::default());
        assert_engine_matches_reference(&built.prog, &format!("{name} (instrumented)"));
    }
}

#[test]
fn workload_solutions_are_fixpoints() {
    let mcfg = MachineConfig::default();
    for name in WORKLOAD_NAMES {
        let build = workload_builder(name).unwrap();
        let (_, w) = reach_bench::fresh(&mcfg, &*build);
        let cfg = Cfg::build(&w.prog);
        assert_is_fixpoint(&LivenessProblem, &w.prog, &cfg);
        assert_is_fixpoint(&ReachingDefsProblem, &w.prog, &cfg);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_reference_on_arbitrary_programs(g in gen_program()) {
        assert_engine_matches_reference(&g.prog, "generated");
    }

    #[test]
    fn engine_reaches_fixpoint_on_arbitrary_cfgs(g in gen_program()) {
        let cfg = Cfg::build(&g.prog);
        // Backward (liveness) and forward (reaching defs) both terminate
        // and satisfy the dataflow equations on arbitrary generated CFGs.
        assert_is_fixpoint(&LivenessProblem, &g.prog, &cfg);
        assert_is_fixpoint(&ReachingDefsProblem, &g.prog, &cfg);
    }
}

/// What liveness means, on hand-written programs (the analysis's unit
/// tests, kept beside the reference so each one still checks both).
mod examples {
    use super::*;
    use reach_sim::isa::{AluOp, Cond, ProgramBuilder, Reg};

    fn analyze(prog: &Program) -> Liveness {
        assert_engine_matches_reference(prog, &prog.name);
        Liveness::compute(prog, &Cfg::build(prog))
    }

    #[test]
    fn dead_value_is_not_live() {
        // r0 = 1 (dead: overwritten); r0 = 2; store uses r0, r1.
        let mut b = ProgramBuilder::new("t");
        b.imm(Reg(0), 1);
        b.imm(Reg(0), 2);
        b.store(Reg(0), Reg(1), 0);
        b.halt();
        let p = b.finish().unwrap();
        let l = analyze(&p);
        // Before pc 0: r1 is live (used by the store), r0 is not (it is
        // redefined before use).
        assert_eq!(l.live_before(0), 1 << 1);
        // Before the store: r0 and r1 live.
        assert_eq!(l.live_before(2), 0b11);
        // After halt nothing is live; before it nothing is used.
        assert_eq!(l.live_before(3), 0);
    }

    #[test]
    fn liveness_flows_around_loop() {
        // Loop decrements r0 by r1: both live throughout the body.
        let mut b = ProgramBuilder::new("loop");
        b.imm(Reg(0), 3);
        b.imm(Reg(1), 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, Reg(0), Reg(0), Reg(1), 1);
        b.branch(Cond::Nez, Reg(0), top);
        b.halt();
        let p = b.finish().unwrap();
        let l = analyze(&p);
        // At the loop head both r0 (redefined but used first) and r1
        // (loop-carried) are live.
        assert_eq!(l.live_before(2), 0b11);
        assert_eq!(l.live_count(2), 2);
        // Before pc 1 only r0 is live-in... r0 defined at 0 and used at 2;
        // r1 defined at 1. So live_before(1) = {r0}.
        assert_eq!(l.live_before(1), 0b01);
    }

    #[test]
    fn branch_condition_register_is_live_on_both_arms() {
        let mut b = ProgramBuilder::new("d");
        let then_l = b.label();
        b.branch(Cond::Nez, Reg(5), then_l);
        b.imm(Reg(1), 2);
        b.bind(then_l);
        b.store(Reg(1), Reg(2), 0);
        b.halt();
        let p = b.finish().unwrap();
        let l = analyze(&p);
        // Before the branch: r5 (condition), r2 (store addr) and r1 (store
        // value on the taken path, where pc1's def is skipped) are live.
        assert_eq!(l.live_before(0), (1 << 5) | (1 << 2) | (1 << 1));
    }

    #[test]
    fn ret_makes_everything_live() {
        let mut b = ProgramBuilder::new("r");
        let f = b.label();
        b.call(f);
        b.halt();
        b.bind(f);
        b.imm(Reg(3), 1);
        b.ret();
        let p = b.finish().unwrap();
        let l = analyze(&p);
        // Inside the callee: before the `ret` (pc 3) everything is
        // conservatively live; before the `imm r3` (pc 2), r3 is killed by
        // its own definition.
        assert_eq!(l.live_before(3), ALL_REGS);
        assert_eq!(l.live_before(2), ALL_REGS & !(1 << 3));
    }

    #[test]
    fn load_addr_register_is_live_before_load() {
        let mut b = ProgramBuilder::new("ld");
        b.load(Reg(4), Reg(9), 8);
        b.store(Reg(4), Reg(10), 0);
        b.halt();
        let p = b.finish().unwrap();
        let l = analyze(&p);
        assert_eq!(l.live_before(0), (1 << 9) | (1 << 10));
        assert_eq!(l.live_before(1), (1 << 4) | (1 << 10));
    }

    #[test]
    fn yields_are_transparent_to_liveness() {
        let mut b = ProgramBuilder::new("y");
        b.imm(Reg(2), 7);
        b.yield_manual();
        b.store(Reg(2), Reg(3), 0);
        b.halt();
        let p = b.finish().unwrap();
        let l = analyze(&p);
        // Live across the yield: r2 (value) and r3 (addr) — exactly what a
        // switch at pc 1 must save.
        assert_eq!(l.live_before(1), (1 << 2) | (1 << 3));
    }
}
