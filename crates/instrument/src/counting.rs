//! Instrumentation-based profiling — the *predecessor* technique §2
//! contrasts sample-based profiling against.
//!
//! "Early efforts on PGO relied on instrumentation based profiling, which
//! requires instrumenting the application to collect profile information.
//! However, this approach not only complicates the build process, but also
//! incurs significant CPU and memory overhead. More importantly,
//! instrumentation-based profiling cannot easily support our proposal,
//! because it is hard to obtain visibility into hardware events like
//! L2/L3 cache misses with only instrumentation."
//!
//! This pass reproduces the technique faithfully: a counter
//! load-increment-store sequence before every load site. It yields exact
//! *execution counts* — and nothing else: no miss likelihoods, no stall
//! attribution, which is precisely why it cannot drive yield placement.
//! Experiment T15 measures its overhead against the sampling collector's.

use crate::rewrite::{insert_before, Insertion, PcMap, RewriteError};
use reach_sim::{AluOp, Inst, Machine, MemError, Program, Reg};

/// Registers reserved for the counting harness; instrumented programs
/// must not use them (our workload and test generators stay below r24).
pub const R_COUNTER_BASE: Reg = Reg(31);
const R_TMP: Reg = Reg(30);
const R_ONE: Reg = Reg(28);

/// A counting-instrumented binary plus its counter directory.
#[derive(Clone, Debug)]
pub struct CountingInstrumented {
    /// The rewritten program. Run it with [`R_COUNTER_BASE`] seeded to
    /// the counter region's base address.
    pub prog: Program,
    /// `sites[k]` = original load PC counted by counter word `k`.
    pub sites: Vec<usize>,
    /// PC map from the original program.
    pub pc_map: PcMap,
}

impl CountingInstrumented {
    /// Reads the counter values out of simulated memory after a run.
    ///
    /// Returns `(original_load_pc, executions)` pairs.
    pub fn read_counts(
        &self,
        machine: &Machine,
        counter_base: u64,
    ) -> Result<Vec<(usize, u64)>, MemError> {
        self.sites
            .iter()
            .enumerate()
            .map(|(k, &pc)| Ok((pc, machine.mem.read(counter_base + k as u64 * 8)?)))
            .collect()
    }
}

/// Inserts a `load; add 1; store` counter update before every load site.
///
/// The counters live at `[R_COUNTER_BASE + 8k]`; the caller allocates the
/// region (one word per load site) and seeds the register.
///
/// # Errors
///
/// Propagates rewriting errors (none occur for valid programs).
pub fn instrument_counting(prog: &Program) -> Result<CountingInstrumented, RewriteError> {
    let sites: Vec<usize> = prog.load_pcs();
    let insertions: Vec<Insertion> = sites
        .iter()
        .enumerate()
        .map(|(k, &pc)| Insertion {
            at_pc: pc,
            insts: vec![
                Inst::Imm { dst: R_ONE, val: 1 },
                Inst::Load {
                    dst: R_TMP,
                    addr: R_COUNTER_BASE,
                    offset: k as i64 * 8,
                },
                Inst::Alu {
                    op: AluOp::Add,
                    dst: R_TMP,
                    src1: R_TMP,
                    src2: R_ONE,
                    lat: 1,
                },
                Inst::Store {
                    src: R_TMP,
                    addr: R_COUNTER_BASE,
                    offset: k as i64 * 8,
                },
            ],
        })
        .collect();
    let (new_prog, pc_map) = insert_before(prog, insertions)?;
    Ok(CountingInstrumented {
        prog: new_prog,
        sites,
        pc_map,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{Cond, Context, MachineConfig, ProgramBuilder};

    /// A loop doing 5 iterations of two loads.
    fn two_load_loop() -> Program {
        let mut b = ProgramBuilder::new("t");
        b.imm(Reg(0), 0x1000);
        b.imm(Reg(1), 5);
        b.imm(Reg(6), 1);
        let top = b.label();
        b.bind(top);
        b.load(Reg(2), Reg(0), 0);
        b.load(Reg(3), Reg(0), 8);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn counts_are_exact_execution_counts() {
        let prog = two_load_loop();
        let counted = instrument_counting(&prog).unwrap();
        assert_eq!(counted.sites, vec![3, 4]);

        let counter_base = 0x9_0000u64;
        let mut m = Machine::new(MachineConfig::default());
        let mut ctx = Context::new(0);
        ctx.set_reg(R_COUNTER_BASE, counter_base);
        m.run_to_completion(&counted.prog, &mut ctx, 10_000)
            .unwrap();

        let counts = counted.read_counts(&m, counter_base).unwrap();
        assert_eq!(counts, vec![(3, 5), (4, 5)], "5 iterations, 2 loads each");
    }

    #[test]
    fn counting_preserves_program_results() {
        let prog = two_load_loop();
        let counted = instrument_counting(&prog).unwrap();
        let run = |p: &Program| {
            let mut m = Machine::new(MachineConfig::default());
            m.mem.write(0x1000, 77).unwrap();
            m.mem.write(0x1008, 88).unwrap();
            let mut ctx = Context::new(0);
            ctx.set_reg(R_COUNTER_BASE, 0x9_0000);
            m.run_to_completion(p, &mut ctx, 10_000).unwrap();
            (ctx.reg(Reg(2)), ctx.reg(Reg(3)))
        };
        assert_eq!(run(&prog), run(&counted.prog));
    }

    #[test]
    fn counting_adds_significant_overhead() {
        let prog = two_load_loop();
        let counted = instrument_counting(&prog).unwrap();
        let cycles = |p: &Program| {
            let mut m = Machine::new(MachineConfig::default());
            let mut ctx = Context::new(0);
            ctx.set_reg(R_COUNTER_BASE, 0x9_0000);
            m.run_to_completion(p, &mut ctx, 10_000).unwrap();
            m.now
        };
        let clean = cycles(&prog);
        let instrumented = cycles(&counted.prog);
        assert!(
            instrumented > clean + 40,
            "counter updates must cost real cycles: {instrumented} vs {clean}"
        );
    }
}
