//! Yield elision: the "runaway scavenger" fault for the robustness
//! harness.
//!
//! A scavenger is only cooperative because the instrumenter planted
//! conditional yields on every path (§3.3). This pass produces the
//! misbehaving twin of an instrumented binary: selected `Yield`
//! instructions are replaced in place by a PC-preserving identity ALU op
//! of the same cost, so the program computes the same results in the
//! same number of instructions but never hands the core back. No
//! relocation is needed — every branch target stays valid — which is
//! exactly what makes this the right model for "the compiler's yield got
//! optimized out" or "a third-party library never yields": the code is
//! otherwise indistinguishable from the cooperative version.
//!
//! The elided binary is for *executing* fault experiments only; it would
//! (correctly) fail the reach-lint gate, which is the point of pairing
//! the static gate with runtime containment.

use reach_sim::{AluOp, Inst, Program, Reg, SplitMix64, YieldKind};

/// Which yields [`elide_yields`] removes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ElideMode {
    /// Only conditional kinds (`Scavenger`, `IfAbsent`) — the cooperative
    /// yields a scavenger depends on.
    Conditional,
    /// Every yield, of any kind.
    All,
}

/// What [`elide_yields`] did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElideReport {
    /// PCs whose yields were replaced.
    pub elided_pcs: Vec<usize>,
    /// Yields considered but kept (fraction draw said no).
    pub kept: usize,
}

/// Returns a copy of `prog` with `fraction` of the mode-matching yields
/// replaced by a same-cost identity ALU op (`or r0, r0, r0` with the
/// conditional-check latency), chosen deterministically from `seed`.
///
/// `fraction == 1.0` elides every matching yield. The result has the
/// same length and the same architectural behaviour as the input except
/// that elided yields can never fire.
pub fn elide_yields(
    prog: &Program,
    mode: ElideMode,
    fraction: f64,
    seed: u64,
    cond_check_cost: u64,
) -> (Program, ElideReport) {
    let mut rng = SplitMix64::new(seed);
    let mut out = prog.clone();
    out.name = format!("{}+elided", prog.name);
    let mut report = ElideReport::default();
    for (pc, inst) in out.insts.iter_mut().enumerate() {
        let Inst::Yield { kind, .. } = *inst else {
            continue;
        };
        let matches_mode = match mode {
            ElideMode::All => true,
            ElideMode::Conditional => {
                matches!(kind, YieldKind::Scavenger | YieldKind::IfAbsent)
            }
        };
        if !matches_mode {
            continue;
        }
        if fraction < 1.0 && rng.next_f64() >= fraction {
            report.kept += 1;
            continue;
        }
        // Identity op: same register state, roughly the cost the elided
        // conditional check would have paid, and no relocation needed.
        *inst = Inst::Alu {
            op: AluOp::Or,
            dst: Reg(0),
            src1: Reg(0),
            src2: Reg(0),
            lat: cond_check_cost.max(1) as u32,
        };
        report.elided_pcs.push(pc);
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{Context, Exit, Machine, MachineConfig, Mode, ProgramBuilder};

    fn scav_prog() -> Program {
        let mut b = ProgramBuilder::new("s");
        b.imm(Reg(1), 7);
        b.push(Inst::Yield {
            kind: YieldKind::Scavenger,
            save_regs: Some(0b10),
        });
        b.alu(AluOp::Add, Reg(1), Reg(1), Reg(1), 1);
        b.yield_manual();
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn conditional_mode_keeps_manual_yields() {
        let p = scav_prog();
        let (e, r) = elide_yields(&p, ElideMode::Conditional, 1.0, 1, 2);
        assert_eq!(r.elided_pcs, vec![1]);
        assert_eq!(e.len(), p.len(), "in-place, no relocation");
        assert!(matches!(e.insts[3], Inst::Yield { .. }), "manual kept");
        e.validate().unwrap();
    }

    #[test]
    fn elided_scavenger_never_yields_but_computes_the_same() {
        let p = scav_prog();
        let (e, _) = elide_yields(&p, ElideMode::All, 1.0, 1, 2);
        let mut m = Machine::new(MachineConfig::default());
        let mut ctx = Context::with_mode(0, Mode::Scavenger);
        // The cooperative version yields twice; the elided one runs
        // straight to completion.
        assert_eq!(m.run(&e, &mut ctx, 100).unwrap(), Exit::Done);
        assert_eq!(ctx.reg(Reg(1)), 14);
        let mut ctx2 = Context::with_mode(1, Mode::Scavenger);
        let mut m2 = Machine::new(MachineConfig::default());
        assert!(matches!(
            m2.run(&p, &mut ctx2, 100).unwrap(),
            Exit::Yielded { .. }
        ));
    }

    #[test]
    fn fraction_and_seed_are_deterministic() {
        let mut b = ProgramBuilder::new("many");
        for _ in 0..64 {
            b.push(Inst::Yield {
                kind: YieldKind::Scavenger,
                save_regs: None,
            });
        }
        b.halt();
        let p = b.finish().unwrap();
        let (a, ra) = elide_yields(&p, ElideMode::Conditional, 0.5, 9, 2);
        let (b2, rb) = elide_yields(&p, ElideMode::Conditional, 0.5, 9, 2);
        assert_eq!(a.insts, b2.insts);
        assert_eq!(ra, rb);
        assert!(!ra.elided_pcs.is_empty() && ra.kept > 0, "partial elision");
    }
}
