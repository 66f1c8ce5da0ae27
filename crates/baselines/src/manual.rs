//! CoroBase-style *manual* instrumentation (§2's prior software
//! approaches [23, 28, 53]).
//!
//! Instead of consulting a profile, the developer "decides where these
//! events may happen (e.g., loads that cause cache misses) and hard codes
//! event handlers at these locations at development time": a prefetch and
//! an unconditional yield before every load the developer believes is a
//! pointer dereference likely to miss. The developer:
//!
//! * cannot know which dereferences actually miss in production (skewed
//!   or cache-resident data makes many of them hits), and
//! * does not run liveness analysis, so every manual yield saves the full
//!   register file.
//!
//! Both blind spots are exactly what profile-guided instrumentation fixes;
//! experiment F6 quantifies them.

use reach_instrument::{insert_before, Insertion, PcMap, RewriteError};
use reach_sim::{Inst, Program, YieldKind};

/// Inserts `prefetch + manual yield` before each load in `pcs` (PCs of the
/// input program).
///
/// # Errors
///
/// Returns an error if a PC is out of range, duplicated, or not a load.
pub fn instrument_manual(prog: &Program, pcs: &[usize]) -> Result<(Program, PcMap), RewriteError> {
    let insertions = plan(prog, pcs, true)?;
    insert_before(prog, insertions)
}

/// Inserts only the prefetches (no yields): the software-prefetch-only
/// baseline (APT-get-style, paper ref \[27\], without interleaving). For *dependent*
/// access chains there is no independent work between prefetch and load,
/// so this hides almost nothing — the motivation for yielding at all.
pub fn instrument_prefetch_only(
    prog: &Program,
    pcs: &[usize],
) -> Result<(Program, PcMap), RewriteError> {
    let insertions = plan(prog, pcs, false)?;
    insert_before(prog, insertions)
}

fn plan(prog: &Program, pcs: &[usize], with_yield: bool) -> Result<Vec<Insertion>, RewriteError> {
    pcs.iter()
        .map(|&pc| {
            let Some(Inst::Load { addr, offset, .. }) = prog.insts.get(pc) else {
                return Err(RewriteError::BadInsertionPc { at_pc: pc });
            };
            let mut insts = vec![Inst::Prefetch {
                addr: *addr,
                offset: *offset,
            }];
            if with_yield {
                insts.push(Inst::Yield {
                    kind: YieldKind::Manual,
                    save_regs: None, // developers do not run liveness
                });
            }
            Ok(Insertion { at_pc: pc, insts })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Cond, Context, Machine, MachineConfig, ProgramBuilder, Reg};

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

    #[test]
    fn manual_inserts_prefetch_and_full_save_yield() {
        let p = chase_prog();
        let (q, _) = instrument_manual(&p, &[0]).unwrap();
        assert!(matches!(q.insts[0], Inst::Prefetch { .. }));
        assert!(matches!(
            q.insts[1],
            Inst::Yield {
                kind: YieldKind::Manual,
                save_regs: None
            }
        ));
        assert!(matches!(q.insts[2], Inst::Load { .. }));
    }

    #[test]
    fn prefetch_only_inserts_no_yield() {
        let p = chase_prog();
        let (q, _) = instrument_prefetch_only(&p, &[0]).unwrap();
        assert!(matches!(q.insts[0], Inst::Prefetch { .. }));
        assert!(matches!(q.insts[1], Inst::Load { .. }));
        assert!(!q.insts.iter().any(Inst::is_yield));
    }

    #[test]
    fn non_load_pc_rejected() {
        let p = chase_prog();
        assert!(instrument_manual(&p, &[1]).is_err());
        assert!(instrument_manual(&p, &[99]).is_err());
    }

    #[test]
    fn manual_variant_preserves_semantics() {
        let p = chase_prog();
        let (q, _) = instrument_manual(&p, &[0]).unwrap();
        let run = |prog: &Program| {
            let mut m = Machine::new(MachineConfig::default());
            m.mem.write(0x1000, 0x2000).unwrap();
            m.mem.write(0x2000, 0).unwrap();
            let mut ctx = Context::new(0);
            ctx.set_reg(Reg(0), 0x1000);
            ctx.set_reg(Reg(1), 2);
            ctx.set_reg(Reg(6), 1);
            m.run_to_completion(prog, &mut ctx, 1000).unwrap();
            ctx.reg(Reg(0))
        };
        assert_eq!(run(&p), run(&q));
    }

    #[test]
    fn prefetch_only_barely_helps_dependent_chase() {
        // A dependent chase: the prefetch immediately precedes its own
        // load, so overlap is ~zero.
        let p = chase_prog();
        let (q, _) = instrument_prefetch_only(&p, &[0]).unwrap();
        let stall_of = |prog: &Program| {
            let mut m = Machine::new(MachineConfig::default());
            for i in 0..32u64 {
                let a = 0x10_0000 + i * 4096;
                let next = if i == 31 { 0 } else { a + 4096 };
                m.mem.write(a, next).unwrap();
            }
            let mut ctx = Context::new(0);
            ctx.set_reg(Reg(0), 0x10_0000);
            ctx.set_reg(Reg(1), 32);
            ctx.set_reg(Reg(6), 1);
            m.run_to_completion(prog, &mut ctx, 10_000).unwrap();
            m.counters.stall_cycles
        };
        let base = stall_of(&p);
        let pf = stall_of(&q);
        assert!(
            pf > base * 9 / 10,
            "prefetch-only should hide <10% of a dependent chase: {pf} vs {base}"
        );
    }
}
