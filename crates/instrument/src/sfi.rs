//! Software-based fault isolation (SFI) — §4.2's coroutine-isolation
//! discussion, made concrete.
//!
//! "SFI establishes a logical protection domain by inserting dynamic
//! checks before memory and control-transfer instructions [58, 65, 69]."
//! This pass implements classic sandboxing by address masking: every load
//! and store first ANDs its effective base into a scratch register with a
//! domain mask, and the access is rewritten to go through the masked
//! register. For programs whose addresses already lie inside the domain
//! the transformation is semantics-preserving — it only costs the check,
//! which is the quantity §4.2's co-design question ("can a co-design of
//! SFI and our proposal help reduce the runtime overhead of SFI?") is
//! about. Experiment T16 measures that cost with and without miss hiding.
//!
//! The pass must run *before* yield instrumentation: primary prefetches
//! read the load's address register, and masking rewrites which register
//! that is.

use crate::rewrite::{insert_before, Insertion, PcMap, RewriteError};
use reach_sim::{AluOp, Inst, Program, Reg};

/// Register holding the domain mask; seeded by the runtime before entry.
pub const R_SFI_MASK: Reg = Reg(26);
/// Scratch register receiving the masked address.
pub const R_SFI_ADDR: Reg = Reg(27);

/// Report from the SFI pass.
#[derive(Clone, Debug)]
pub struct SfiReport {
    /// Memory operations guarded (loads + stores).
    pub guarded: usize,
    /// PC map from the input program.
    pub pc_map: PcMap,
}

/// Inserts an address-masking check before every load and store and
/// reroutes the access through [`R_SFI_ADDR`].
///
/// The offset stays on the access itself (real SFI leaves the domain a
/// guard zone for bounded displacements).
///
/// # Errors
///
/// Propagates rewriting errors (none occur for valid programs).
pub fn instrument_sfi(prog: &Program) -> Result<(Program, SfiReport), RewriteError> {
    // 1. Insert the masking op before every memory access.
    let mut insertions = Vec::new();
    for (pc, inst) in prog.insts.iter().enumerate() {
        let addr = match inst {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } | Inst::Prefetch { addr, .. } => {
                *addr
            }
            _ => continue,
        };
        insertions.push(Insertion {
            at_pc: pc,
            insts: vec![Inst::Alu {
                op: AluOp::And,
                dst: R_SFI_ADDR,
                src1: addr,
                src2: R_SFI_MASK,
                lat: 1,
            }],
        });
    }
    let guarded = insertions.len();
    let (mut new_prog, pc_map) = insert_before(prog, insertions)?;

    // 2. Reroute each guarded access through the masked register.
    for &old_pc in pc_map.origin.iter().flatten().collect::<Vec<_>>().iter() {
        let new_pc = pc_map.new_of[*old_pc];
        match &mut new_prog.insts[new_pc] {
            Inst::Load { addr, .. } | Inst::Store { addr, .. } | Inst::Prefetch { addr, .. } => {
                *addr = R_SFI_ADDR;
            }
            _ => {}
        }
    }
    new_prog
        .validate()
        .map_err(|e| RewriteError::Invalid(e.to_string()))?;
    Ok((new_prog, SfiReport { guarded, pc_map }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{Cond, Context, Machine, MachineConfig, ProgramBuilder};

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

    fn run(prog: &Program, mask: u64) -> (u64, u64) {
        let mut m = Machine::new(MachineConfig::default());
        m.mem.write(0x1000, 0x2000).unwrap();
        m.mem.write(0x2000, 0).unwrap();
        let mut ctx = Context::new(0);
        ctx.set_reg(Reg(0), 0x1000);
        ctx.set_reg(Reg(1), 2);
        ctx.set_reg(Reg(6), 1);
        ctx.set_reg(R_SFI_MASK, mask);
        m.run_to_completion(prog, &mut ctx, 10_000).unwrap();
        (ctx.reg(Reg(0)), m.counters.busy_cycles)
    }

    #[test]
    fn sfi_preserves_in_domain_semantics() {
        let p = chase_prog();
        let (q, rep) = instrument_sfi(&p).unwrap();
        assert_eq!(rep.guarded, 1);
        let full_mask = u64::MAX;
        assert_eq!(run(&p, full_mask).0, run(&q, full_mask).0);
    }

    #[test]
    fn sfi_rewrites_accesses_through_the_masked_register() {
        let p = chase_prog();
        let (q, _) = instrument_sfi(&p).unwrap();
        // Masking ALU precedes the load; the load reads R_SFI_ADDR.
        assert!(matches!(
            q.insts[0],
            Inst::Alu {
                op: AluOp::And,
                dst: R_SFI_ADDR,
                ..
            }
        ));
        assert!(matches!(
            q.insts[1],
            Inst::Load {
                addr: R_SFI_ADDR,
                ..
            }
        ));
    }

    #[test]
    fn sfi_actually_confines_addresses() {
        // A malicious mask... rather, a confining mask redirects the
        // out-of-domain pointer 0x2000 to 0x0000 within the 0x1FFF domain:
        // the chase reads 0 (untouched memory) and terminates immediately.
        let p = chase_prog();
        let (q, _) = instrument_sfi(&p).unwrap();
        let (end, _) = run(&q, 0x1FF8);
        assert_eq!(end, 0, "masked walk never leaves the domain");
    }

    #[test]
    fn sfi_costs_cycles() {
        let p = chase_prog();
        let (q, _) = instrument_sfi(&p).unwrap();
        let (_, busy0) = run(&p, u64::MAX);
        let (_, busy1) = run(&q, u64::MAX);
        assert!(
            busy1 > busy0,
            "each guard costs a cycle: {busy1} vs {busy0}"
        );
    }

    #[test]
    fn sfi_composes_with_stores_and_prefetches() {
        let mut b = ProgramBuilder::new("sp");
        b.prefetch(Reg(0), 0);
        b.load(Reg(2), Reg(0), 0);
        b.store(Reg(2), Reg(1), 8);
        b.halt();
        let p = b.finish().unwrap();
        let (q, rep) = instrument_sfi(&p).unwrap();
        assert_eq!(rep.guarded, 3);
        // Every memory op now goes through the masked register.
        for inst in &q.insts {
            if let Inst::Load { addr, .. }
            | Inst::Store { addr, .. }
            | Inst::Prefetch { addr, .. } = inst
            {
                assert_eq!(*addr, R_SFI_ADDR);
            }
        }
    }
}
