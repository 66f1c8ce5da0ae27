//! Concrete dataflow analyses built on the [`crate::dataflow`] engine.
//!
//! Each analysis here is a [`DataflowProblem`] instance plus a thin
//! result wrapper with domain-specific accessors. All but the first
//! power the `reach-lint` checks in [`crate::lint`]:
//!
//! * [`ReachingDefsProblem`] — classic forward may-analysis: which definition
//!   sites can supply a register's value at a point. No lint reads it; it
//!   is kept as the dataflow engine's forward may-problem under test.
//! * [`AvailablePrefetches`] — forward **must**-analysis: which
//!   `(address register, offset)` cache lines are already in flight on
//!   *every* path to a point. A prefetch of an available line is
//!   redundant (`RL0003`).
//! * [`AnticipatedLoads`] — backward may-analysis: which `(addr, offset)`
//!   lines are loaded on *some* path onward before the address register
//!   is redefined. A prefetch whose line is never anticipated is dead
//!   work (`RL0002`).
//! * [`SfiMasked`] — abstract interpretation for SFI: which registers
//!   provably hold in-domain (masked) addresses. Strictly stronger than
//!   the syntactic "was an `and` inserted?" check: it accepts any data
//!   flow that preserves maskedness and rejects everything else
//!   (`RL0005`).

use crate::cfg::Cfg;
use crate::dataflow::{self, DataflowProblem, Direction, Solution};
use crate::liveness::RegSet;
use crate::sfi::R_SFI_MASK;
use reach_sim::{AluOp, Inst, Program};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

/// Sentinel definition site: "the value the register held at program
/// entry" (runtime-seeded arguments, the SFI mask, ...).
pub(crate) const ENTRY_DEF: usize = usize::MAX;

/// Fact: the set of `(register, definition pc)` pairs that may reach a
/// point. `ENTRY_DEF` marks the runtime-provided initial value.
pub(crate) type DefSet = BTreeSet<(u8, usize)>;

/// Reaching definitions as a forward may-problem on the powerset lattice
/// of `(reg, def-site)` pairs.
pub struct ReachingDefsProblem;

impl DataflowProblem for ReachingDefsProblem {
    type Fact = DefSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> DefSet {
        DefSet::new()
    }

    fn boundary(&self, _last: Option<&Inst>) -> DefSet {
        // Every register starts with its runtime-seeded entry value.
        (0..reach_sim::NUM_REGS as u8)
            .map(|r| (r, ENTRY_DEF))
            .collect()
    }

    fn join(&self, into: &mut DefSet, from: &DefSet) {
        into.extend(from.iter().copied());
    }

    fn transfer(&self, pc: usize, inst: &Inst, fact: &mut DefSet) {
        if let Some(r) = inst.def() {
            let r = r.index() as u8;
            fact.retain(|&(reg, _)| reg != r);
            fact.insert((r, pc));
        }
    }
}

// ---------------------------------------------------------------------------
// Available prefetches (forward must)
// ---------------------------------------------------------------------------

/// A cache line identified by its address register and constant offset.
pub(crate) type Line = (u8, i64);

/// Must-facts use `Option`: `None` is ⊥ ("unvisited — no path
/// constraints yet") and joins as the identity; `Some(set)` intersects.
pub(crate) type MustLines = Option<BTreeSet<Line>>;

/// Available prefetches: `(addr, offset)` lines requested (by prefetch
/// or load) on **every** path to a point, with the address register
/// unmodified since. Yields kill everything — the line may be evicted
/// while another coroutine runs, so re-prefetching after a yield is
/// legitimate, never redundant.
pub(crate) struct AvailablePrefetchesProblem;

fn kill_reg(set: &mut BTreeSet<Line>, reg: u8) {
    set.retain(|&(r, _)| r != reg);
}

impl DataflowProblem for AvailablePrefetchesProblem {
    type Fact = MustLines;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> MustLines {
        None
    }

    fn boundary(&self, _last: Option<&Inst>) -> MustLines {
        Some(BTreeSet::new())
    }

    fn join(&self, into: &mut MustLines, from: &MustLines) {
        match (into.as_mut(), from) {
            (_, None) => {}
            (None, Some(f)) => *into = Some(f.clone()),
            (Some(i), Some(f)) => i.retain(|line| f.contains(line)),
        }
    }

    fn transfer(&self, _pc: usize, inst: &Inst, fact: &mut MustLines) {
        let Some(set) = fact.as_mut() else { return };
        match inst {
            Inst::Prefetch { addr, offset } => {
                set.insert((addr.index() as u8, *offset));
            }
            Inst::Load { dst, addr, offset } => {
                // The load brings the line in, then redefines dst.
                set.insert((addr.index() as u8, *offset));
                kill_reg(set, dst.index() as u8);
            }
            Inst::Yield { .. } => set.clear(),
            _ => {
                if let Some(d) = inst.def() {
                    kill_reg(set, d.index() as u8);
                }
            }
        }
    }
}

/// Solved available-prefetch analysis.
pub(crate) struct AvailablePrefetches {
    sol: Solution<MustLines>,
}

impl AvailablePrefetches {
    /// Runs the analysis.
    pub(crate) fn compute(prog: &Program, cfg: &Cfg) -> AvailablePrefetches {
        AvailablePrefetches {
            sol: dataflow::solve(&AvailablePrefetchesProblem, prog, cfg),
        }
    }

    /// Is `line` already in flight on every path reaching the point
    /// before `pc`? (`false` for unreachable code.)
    pub(crate) fn available_before(&self, pc: usize, line: Line) -> bool {
        self.sol
            .before(pc)
            .as_ref()
            .is_some_and(|s| s.contains(&line))
    }
}

// ---------------------------------------------------------------------------
// Anticipated loads (backward may)
// ---------------------------------------------------------------------------

/// Anticipated loads: `(addr, offset)` lines loaded on **some** path
/// onward, before the address register is redefined. The consumer test
/// for prefetches — a prefetch whose line nobody anticipates can never
/// hide a miss.
pub(crate) struct AnticipatedLoadsProblem;

impl DataflowProblem for AnticipatedLoadsProblem {
    type Fact = BTreeSet<Line>;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> BTreeSet<Line> {
        BTreeSet::new()
    }

    fn boundary(&self, _last: Option<&Inst>) -> BTreeSet<Line> {
        BTreeSet::new()
    }

    fn join(&self, into: &mut BTreeSet<Line>, from: &BTreeSet<Line>) {
        into.extend(from.iter().copied());
    }

    fn transfer(&self, _pc: usize, inst: &Inst, fact: &mut BTreeSet<Line>) {
        // Backward: `fact` is the state *after* the instruction and
        // becomes the state *before*. Kill first (a def at this point
        // invalidates downstream pairs through that register), then gen.
        if let Some(d) = inst.def() {
            kill_reg(fact, d.index() as u8);
        }
        if let Inst::Load { addr, offset, .. } = inst {
            fact.insert((addr.index() as u8, *offset));
        }
        // Yields do NOT kill: prefetch → yield → load is the canonical
        // instrumentation pattern and the load still consumes the line.
    }
}

/// Solved anticipated-loads analysis.
pub(crate) struct AnticipatedLoads {
    sol: Solution<BTreeSet<Line>>,
}

impl AnticipatedLoads {
    /// Runs the analysis.
    pub(crate) fn compute(prog: &Program, cfg: &Cfg) -> AnticipatedLoads {
        AnticipatedLoads {
            sol: dataflow::solve(&AnticipatedLoadsProblem, prog, cfg),
        }
    }

    /// Is `line` loaded on some path starting after `pc`, before its
    /// address register is redefined?
    pub(crate) fn anticipated_after(&self, pc: usize, line: Line) -> bool {
        self.sol.after(pc).contains(&line)
    }
}

// ---------------------------------------------------------------------------
// SFI maskedness (forward must / abstract interpretation)
// ---------------------------------------------------------------------------

/// SFI address-range analysis. Abstract domain per register: *masked*
/// (value provably satisfies `bits(v) ⊆ bits(mask in r26)`) or unknown.
/// The fact is the must-set of masked registers (`None` = unvisited).
///
/// Transfer rules (each sound by bit-algebra on the AND-mask domain):
///
/// * `and d, a, b` — masked if *either* source is masked:
///   `bits(a & b) ⊆ bits(a)`.
/// * `or d, a, b` — masked if *both* sources are masked:
///   `bits(a | b) = bits(a) ∪ bits(b)`.
/// * `imm d, 0` — masked: the empty bit-set is inside every domain.
/// * any other definition — unknown (conservative).
/// * a definition of [`R_SFI_MASK`] itself clears its maskedness; the
///   lint layer additionally flags it as a clobber, since the runtime
///   owns that register.
///
/// This subsumes the syntactic pattern `and r27, addr, r26; access r27`
/// that [`crate::sfi::instrument_sfi`] emits, but also accepts hand-
/// written or optimized guard sequences — and rejects any access whose
/// address cannot be proven in-domain on every path.
pub(crate) struct SfiMaskedProblem;

impl DataflowProblem for SfiMaskedProblem {
    type Fact = Option<RegSet>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> Option<RegSet> {
        None
    }

    fn boundary(&self, _last: Option<&Inst>) -> Option<RegSet> {
        // At entry only the mask register itself is trivially in-domain.
        Some(1 << R_SFI_MASK.index())
    }

    fn join(&self, into: &mut Option<RegSet>, from: &Option<RegSet>) {
        match (into.as_mut(), from) {
            (_, None) => {}
            (None, Some(f)) => *into = Some(*f),
            (Some(i), Some(f)) => *i &= *f,
        }
    }

    fn transfer(&self, _pc: usize, inst: &Inst, fact: &mut Option<RegSet>) {
        let Some(masked) = fact.as_mut() else { return };
        let bit = |r: reach_sim::Reg| 1u32 << r.index();
        match inst {
            Inst::Alu {
                op: AluOp::And,
                dst,
                src1,
                src2,
                ..
            } => {
                if *masked & (bit(*src1) | bit(*src2)) != 0 {
                    *masked |= bit(*dst);
                } else {
                    *masked &= !bit(*dst);
                }
            }
            Inst::Alu {
                op: AluOp::Or,
                dst,
                src1,
                src2,
                ..
            } => {
                if *masked & bit(*src1) != 0 && *masked & bit(*src2) != 0 {
                    *masked |= bit(*dst);
                } else {
                    *masked &= !bit(*dst);
                }
            }
            Inst::Imm { dst, val } => {
                if *val == 0 {
                    *masked |= bit(*dst);
                } else {
                    *masked &= !bit(*dst);
                }
            }
            _ => {
                if let Some(d) = inst.def() {
                    *masked &= !bit(d);
                }
            }
        }
    }
}

/// Solved SFI maskedness analysis.
pub(crate) struct SfiMasked {
    sol: Solution<Option<RegSet>>,
}

impl SfiMasked {
    /// Runs the analysis.
    pub(crate) fn compute(prog: &Program, cfg: &Cfg) -> SfiMasked {
        SfiMasked {
            sol: dataflow::solve(&SfiMaskedProblem, prog, cfg),
        }
    }

    /// Is `reg` provably masked on every path reaching the point before
    /// `pc`? Unreachable code vacuously passes (`None` fact — no path
    /// can execute the access).
    pub(crate) fn masked_before(&self, pc: usize, reg: u8) -> bool {
        match self.sol.before(pc) {
            None => true,
            Some(set) => set & (1 << reg) != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sfi::{instrument_sfi, R_SFI_ADDR};
    use reach_sim::{Cond, ProgramBuilder, Reg};

    fn cfg_of(p: &Program) -> Cfg {
        Cfg::build(p)
    }

    #[test]
    fn reaching_defs_track_redefinition_and_merge() {
        let mut b = ProgramBuilder::new("rd");
        let join = b.label();
        b.imm(Reg(0), 1); // pc 0
        b.branch(Cond::Nez, Reg(5), join); // pc 1
        b.imm(Reg(0), 2); // pc 2
        b.bind(join);
        b.store(Reg(0), Reg(1), 0); // pc 3
        b.halt();
        let p = b.finish().unwrap();
        let sol = dataflow::solve(&ReachingDefsProblem, &p, &cfg_of(&p));
        let defs_before = |pc: usize, reg: u8| -> Vec<usize> {
            let defs = sol.before(pc).iter().filter(|&&(r, _)| r == reg);
            defs.map(|&(_, d)| d).collect()
        };
        // At the store both defs of r0 may reach.
        let mut defs = defs_before(3, 0);
        defs.sort_unstable();
        assert_eq!(defs, vec![0, 2]);
        // r1 is only ever entry-defined.
        assert_eq!(defs_before(3, 1), vec![ENTRY_DEF]);
        // Before pc 2, only the pc-0 def of r0 reaches.
        assert_eq!(defs_before(2, 0), vec![0]);
    }

    #[test]
    fn available_prefetch_killed_by_redef_and_yield() {
        let mut b = ProgramBuilder::new("ap");
        b.prefetch(Reg(3), 8); // pc 0
        b.prefetch(Reg(3), 8); // pc 1: redundant
        b.yield_manual(); // pc 2: kills availability
        b.prefetch(Reg(3), 8); // pc 3: NOT redundant (post-yield)
        b.imm(Reg(3), 0); // pc 4: redefines addr reg
        b.prefetch(Reg(3), 8); // pc 5: NOT redundant (new value)
        b.halt();
        let p = b.finish().unwrap();
        let ap = AvailablePrefetches::compute(&p, &cfg_of(&p));
        assert!(!ap.available_before(0, (3, 8)));
        assert!(ap.available_before(1, (3, 8)));
        assert!(!ap.available_before(3, (3, 8)));
        assert!(!ap.available_before(5, (3, 8)));
    }

    #[test]
    fn available_prefetch_is_a_must_analysis() {
        // Prefetched on only one arm of a diamond ⇒ not available at the
        // join.
        let mut b = ProgramBuilder::new("apm");
        let join = b.label();
        b.branch(Cond::Nez, Reg(5), join); // pc 0
        b.prefetch(Reg(3), 0); // pc 1 (fallthrough arm only)
        b.bind(join);
        b.load(Reg(4), Reg(3), 0); // pc 2
        b.halt();
        let p = b.finish().unwrap();
        let ap = AvailablePrefetches::compute(&p, &cfg_of(&p));
        assert!(!ap.available_before(2, (3, 0)));
    }

    #[test]
    fn anticipated_loads_survive_yields_and_die_at_redef() {
        let mut b = ProgramBuilder::new("al");
        b.prefetch(Reg(3), 8); // pc 0: consumed (load at 2)
        b.yield_manual(); // pc 1
        b.load(Reg(4), Reg(3), 8); // pc 2
        b.prefetch(Reg(3), 16); // pc 3: orphan — r3 redefined first
        b.imm(Reg(3), 0); // pc 4
        b.load(Reg(5), Reg(3), 16); // pc 5 (different r3 value)
        b.halt();
        let p = b.finish().unwrap();
        let al = AnticipatedLoads::compute(&p, &cfg_of(&p));
        assert!(al.anticipated_after(0, (3, 8)));
        assert!(!al.anticipated_after(3, (3, 16)));
        // After the redef, the downstream load is anticipated again.
        assert!(al.anticipated_after(4, (3, 16)));
    }

    #[test]
    fn anticipated_load_with_dst_equal_addr() {
        // Pointer chase: `load r3, [r3]` — the load's own def kills the
        // pair going further backward, but the pair is anticipated
        // immediately before the load.
        let mut b = ProgramBuilder::new("chase");
        b.prefetch(Reg(3), 0); // pc 0
        b.load(Reg(3), Reg(3), 0); // pc 1
        b.load(Reg(3), Reg(3), 0); // pc 2
        b.halt();
        let p = b.finish().unwrap();
        let al = AnticipatedLoads::compute(&p, &cfg_of(&p));
        assert!(al.anticipated_after(0, (3, 0)));
        // After pc 1 the *new* r3 is loaded at pc 2, so (3,0) is still
        // anticipated — but that's a different dynamic address; the
        // may-analysis is conservative here by design.
        assert!(al.anticipated_after(1, (3, 0)));
    }

    #[test]
    fn sfi_instrumented_program_is_fully_masked() {
        let mut b = ProgramBuilder::new("s");
        b.load(Reg(4), Reg(0), 0);
        b.store(Reg(4), Reg(1), 8);
        b.halt();
        let p = b.finish().unwrap();
        let (q, _) = instrument_sfi(&p).unwrap();
        let sm = SfiMasked::compute(&q, &cfg_of(&q));
        for (pc, inst) in q.insts.iter().enumerate() {
            if let Inst::Load { addr, .. } | Inst::Store { addr, .. } = inst {
                assert!(
                    sm.masked_before(pc, addr.index() as u8),
                    "access at pc {pc} not proven masked"
                );
            }
        }
    }

    #[test]
    fn sfi_detects_unmasked_path_through_diamond() {
        // One arm masks the address, the other does not ⇒ must-analysis
        // rejects the access at the join.
        let mut b = ProgramBuilder::new("sd");
        let join = b.label();
        b.branch(Cond::Nez, Reg(5), join); // pc 0: skips the mask
        b.alu(AluOp::And, R_SFI_ADDR, Reg(0), R_SFI_MASK, 1); // pc 1
        b.bind(join);
        b.load(Reg(4), R_SFI_ADDR, 0); // pc 2
        b.halt();
        let p = b.finish().unwrap();
        let sm = SfiMasked::compute(&p, &cfg_of(&p));
        assert!(!sm.masked_before(2, R_SFI_ADDR.index() as u8));
    }

    #[test]
    fn sfi_maskedness_flows_through_or_and_zero() {
        let mut b = ProgramBuilder::new("sf");
        b.alu(AluOp::And, Reg(10), Reg(0), R_SFI_MASK, 1); // r10 masked
        b.imm(Reg(11), 0); // r11 masked (zero)
        b.alu(AluOp::Or, Reg(12), Reg(10), Reg(11), 1); // or of masked: masked
        b.load(Reg(4), Reg(12), 0);
        b.alu(AluOp::Add, Reg(12), Reg(10), Reg(11), 1); // add: unknown
        b.load(Reg(4), Reg(12), 0);
        b.halt();
        let p = b.finish().unwrap();
        let sm = SfiMasked::compute(&p, &cfg_of(&p));
        assert!(sm.masked_before(3, 12));
        assert!(!sm.masked_before(5, 12));
    }
}
