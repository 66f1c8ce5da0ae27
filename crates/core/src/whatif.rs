//! §4.1 hardware what-if: conditional yields on a cache-presence probe.
//!
//! The paper's proposed minimal hardware support is an instruction that
//! reveals whether a line is already in L1/L2, letting yields fire *only
//! when the targeted event actually happens*. Statically-placed primary
//! yields pay the prefetch+switch cost even when the load would have hit;
//! with the probe, the hit path costs only the (cheap) condition check.
//!
//! [`make_conditional`] rewrites an instrumented binary accordingly:
//! every unconditional [`YieldKind::Primary`] becomes a
//! [`YieldKind::IfAbsent`] gated on the preceding prefetch's observed
//! level — the simulator's stand-in for the probe instruction.

use reach_sim::{Inst, Program, YieldKind};

/// Rewrites primary yields into presence-probe-conditional yields.
///
/// Scavenger, manual and already-conditional yields are left untouched.
/// No PCs move, so profiles and PC maps remain valid.
pub fn make_conditional(prog: &Program) -> Program {
    let mut out = prog.clone();
    for inst in &mut out.insts {
        if let Inst::Yield {
            kind: kind @ YieldKind::Primary,
            ..
        } = inst
        {
            *kind = YieldKind::IfAbsent;
        }
    }
    out
}

/// Counts yields of each kind — handy for reports.
pub fn yield_census(prog: &Program) -> YieldCensus {
    let mut c = YieldCensus::default();
    for inst in &prog.insts {
        if let Inst::Yield { kind, .. } = inst {
            match kind {
                YieldKind::Primary => c.primary += 1,
                YieldKind::Scavenger => c.scavenger += 1,
                YieldKind::Manual => c.manual += 1,
                YieldKind::IfAbsent => c.if_absent += 1,
            }
        }
    }
    c
}

/// Static yield counts by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct YieldCensus {
    /// Unconditional primary yields.
    pub primary: usize,
    /// Conditional scavenger yields.
    pub scavenger: usize,
    /// Developer-written yields.
    pub manual: usize,
    /// Presence-probe-conditional yields.
    pub if_absent: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::ProgramBuilder;

    fn prog_with_yields() -> Program {
        let mut b = ProgramBuilder::new("y");
        b.push(Inst::Yield {
            kind: YieldKind::Primary,
            save_regs: Some(0b101),
        });
        b.push(Inst::Yield {
            kind: YieldKind::Scavenger,
            save_regs: Some(0b11),
        });
        b.yield_manual();
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn primary_yields_become_if_absent() {
        let p = prog_with_yields();
        let q = make_conditional(&p);
        let census = yield_census(&q);
        assert_eq!(census.primary, 0);
        assert_eq!(census.if_absent, 1);
        assert_eq!(census.scavenger, 1, "scavenger yields untouched");
        assert_eq!(census.manual, 1, "manual yields untouched");
        // Save masks survive the rewrite.
        assert!(matches!(
            q.insts[0],
            Inst::Yield {
                kind: YieldKind::IfAbsent,
                save_regs: Some(0b101)
            }
        ));
        assert_eq!(q.len(), p.len(), "no PCs move");
    }

    #[test]
    fn census_counts() {
        let c = yield_census(&prog_with_yields());
        assert_eq!(c.primary, 1);
        assert_eq!(c.primary + c.scavenger + c.manual + c.if_absent, 3);
    }
}
