//! Generic worklist dataflow engine over the micro-IR CFG.
//!
//! Every static analysis in this crate — liveness, reaching definitions,
//! available prefetches, the SFI address-range verifier — is an instance
//! of the same schema: facts drawn from a join-semilattice, a monotone
//! per-instruction transfer function, and iteration to a fixpoint over
//! the CFG. This module factors that schema out once so analyses are
//! written as a [`DataflowProblem`] (a lattice + a transfer function) and
//! never re-implement worklists, direction handling or convergence
//! checking.
//!
//! Design points:
//!
//! * **Direction-generic.** Forward problems propagate entry→exit along
//!   CFG edges; backward problems run on the reversed graph. The engine
//!   owns the orientation; transfer functions are always written in their
//!   natural direction (backward transfers map the fact *after* an
//!   instruction to the fact *before* it).
//! * **Join-semilattice facts.** `Fact: Clone + PartialEq` with an
//!   explicit [`DataflowProblem::bottom`] (the join identity) and
//!   [`DataflowProblem::join`]. Must-analyses encode ⊤ as an `Option`
//!   (`None` = "unvisited / no information", which joins as identity) —
//!   see `AvailablePrefetches` in [`crate::prefetch_analysis`].
//! * **Widening hook.** After [`WIDEN_AFTER`] visits to a loop head the
//!   engine routes the joined fact through [`DataflowProblem::widen`].
//!   The default is the identity (every lattice currently used has finite
//!   height, so plain iteration terminates); an analysis over an
//!   unbounded lattice (e.g. numeric ranges) overrides it to jump to a
//!   coarser fact and force termination.
//! * **Convergence guard.** A non-monotone transfer function would
//!   oscillate forever; the engine panics after an impossible number of
//!   block visits instead of hanging, turning an analysis bug into a
//!   loud test failure.
//!
//! The solved [`Solution`] materializes the fact at every program point
//! (before and after each instruction), which is what the lint passes
//! consume.

use crate::cfg::Cfg;
use reach_sim::{Inst, Program};
use std::collections::VecDeque;

/// Propagation direction of a dataflow problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from the entry along CFG edges (e.g. reaching
    /// definitions, available prefetches).
    Forward,
    /// Facts flow from exits against CFG edges (e.g. liveness).
    Backward,
}

/// Number of joins at a loop head before the engine applies
/// [`DataflowProblem::widen`].
pub(crate) const WIDEN_AFTER: usize = 8;

/// A dataflow analysis: a join-semilattice of facts plus a monotone
/// transfer function over instructions.
pub trait DataflowProblem {
    /// The lattice element attached to every program point.
    type Fact: Clone + PartialEq;

    /// Propagation direction.
    fn direction(&self) -> Direction;

    /// The join identity ("no paths reach here yet"). Also the initial
    /// fact of every block-boundary before iteration.
    fn bottom(&self) -> Self::Fact;

    /// Fact at the analysis boundary: the program entry for forward
    /// problems; for backward problems the point after `last`, the final
    /// instruction of an exit block (no CFG successors). Liveness uses
    /// this to make `ret` conservative (everything live for the unknown
    /// caller) and `halt` strict.
    fn boundary(&self, last: Option<&Inst>) -> Self::Fact;

    /// Joins `from` into `into` (least upper bound). The engine detects
    /// convergence by comparing the joined fact with its previous value.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact);

    /// Transfer across one instruction, mutating the fact in place. For
    /// forward problems `fact` is the state before `inst` and becomes the
    /// state after; for backward problems it is the state after and
    /// becomes the state before.
    fn transfer(&self, pc: usize, inst: &Inst, fact: &mut Self::Fact);

    /// Widening: accelerates (or forces) convergence at loop heads on
    /// lattices of unbounded height. `old` is the fact from the previous
    /// visit, `new` the freshly joined one; the result must be an upper
    /// bound of both. The default — returning `new` unchanged — is
    /// correct for any finite-height lattice.
    fn widen(&self, _old: &Self::Fact, new: Self::Fact) -> Self::Fact {
        new
    }
}

/// A solved dataflow problem: the fact at every program point.
#[derive(Clone, Debug)]
pub struct Solution<F> {
    /// `before[pc]`: fact at the point immediately before the
    /// instruction at `pc` executes (in program order, regardless of the
    /// analysis direction).
    pub before: Vec<F>,
    /// `after[pc]`: fact at the point immediately after.
    pub after: Vec<F>,
    /// Total block visits the worklist performed (fixpoint diagnostics;
    /// bounded for monotone transfers on finite lattices).
    pub iterations: usize,
}

impl<F> Solution<F> {
    /// The fact immediately before the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn before(&self, pc: usize) -> &F {
        &self.before[pc]
    }

    /// The fact immediately after the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub fn after(&self, pc: usize) -> &F {
        &self.after[pc]
    }
}

/// Solves `problem` over `prog` and `cfg` by worklist iteration to a
/// fixpoint.
///
/// # Panics
///
/// Panics if the iteration fails to converge within a generous bound —
/// which a monotone transfer function on a finite-height (or widened)
/// lattice cannot do, so a panic here means the [`DataflowProblem`]
/// implementation is buggy, not the input program.
pub fn solve<P: DataflowProblem>(problem: &P, prog: &Program, cfg: &Cfg) -> Solution<P::Fact> {
    let nb = cfg.len();
    let forward = problem.direction() == Direction::Forward;

    // Orient the graph once: edge sources feeding each block, and the
    // iteration order that converges fastest (RPO forward, reverse RPO
    // backward).
    let feeds_of = |b: usize| -> &[usize] {
        if forward {
            &cfg.blocks[b].preds
        } else {
            &cfg.blocks[b].succs
        }
    };
    let outputs_of = |b: usize| -> &[usize] {
        if forward {
            &cfg.blocks[b].succs
        } else {
            &cfg.blocks[b].preds
        }
    };
    let mut order = cfg.reverse_post_order();
    // RPO covers only entry-reachable blocks; unreachable blocks still
    // get facts (the reference analyses computed them, and lints reason
    // about dead code), so append them in index order.
    let mut in_order = vec![false; nb];
    for &b in &order {
        in_order[b] = true;
    }
    for (b, seen) in in_order.iter().enumerate() {
        if !seen {
            order.push(b);
        }
    }
    if !forward {
        order.reverse();
    }

    // Loop heads in the analysis direction: targets of retreating edges,
    // where widening applies.
    let mut is_loop_head = vec![false; nb];
    for (tail, head) in cfg.back_edges() {
        let h = if forward { head } else { tail };
        is_loop_head[h] = true;
    }

    // in_fact[b]: fact at the block's analysis entry (start of the block
    // forward, end of the block backward).
    let mut in_fact: Vec<P::Fact> = (0..nb).map(|_| problem.bottom()).collect();
    let mut out_fact: Vec<P::Fact> = (0..nb).map(|_| problem.bottom()).collect();
    let mut visits = vec![0usize; nb];

    // A block with no feeding edges takes the boundary fact: the entry
    // block forward, exit blocks (ret/halt/trailing) backward.
    let boundary_fact = |b: usize| -> Option<P::Fact> {
        if forward {
            (b == 0).then(|| problem.boundary(None))
        } else {
            feeds_of(b)
                .is_empty()
                .then(|| problem.boundary(Some(&prog.insts[cfg.blocks[b].end - 1])))
        }
    };

    // Transfer a whole block from its analysis-entry fact.
    let transfer_block = |b: usize, fact: &mut P::Fact| {
        let block = &cfg.blocks[b];
        if forward {
            for pc in block.start..block.end {
                problem.transfer(pc, &prog.insts[pc], fact);
            }
        } else {
            for pc in (block.start..block.end).rev() {
                problem.transfer(pc, &prog.insts[pc], fact);
            }
        }
    };

    let mut queue: VecDeque<usize> = order.iter().copied().collect();
    let mut queued = vec![false; nb];
    for &b in &order {
        queued[b] = true;
    }

    // Convergence guard: lattice chains here are short (≤ a few hundred
    // joins per block even for per-register set lattices); this bound is
    // orders of magnitude above any legitimate run.
    let max_visits = 1024 + nb * 256;
    let mut iterations = 0usize;

    while let Some(b) = queue.pop_front() {
        queued[b] = false;
        iterations += 1;
        assert!(
            iterations <= max_visits,
            "dataflow failed to converge after {iterations} block visits: \
             non-monotone transfer or unbounded lattice without widening"
        );
        visits[b] += 1;

        // Join the feeding facts (plus the boundary, where applicable).
        let mut joined = match boundary_fact(b) {
            Some(f) => f,
            None => problem.bottom(),
        };
        for &f in feeds_of(b) {
            problem.join(&mut joined, &out_fact[f]);
        }
        if is_loop_head[b] && visits[b] > WIDEN_AFTER {
            joined = problem.widen(&in_fact[b], joined);
        }

        let first_visit = visits[b] == 1;
        if !first_visit && joined == in_fact[b] {
            continue; // stable input ⇒ stable output
        }
        in_fact[b] = joined.clone();

        let mut out = joined;
        transfer_block(b, &mut out);
        if first_visit || out != out_fact[b] {
            out_fact[b] = out;
            for &s in outputs_of(b) {
                if !queued[s] {
                    queued[s] = true;
                    queue.push_back(s);
                }
            }
        }
    }

    // Materialize per-PC facts from the stable block-entry facts.
    let n = prog.len();
    let mut before: Vec<P::Fact> = (0..n).map(|_| problem.bottom()).collect();
    let mut after: Vec<P::Fact> = (0..n).map(|_| problem.bottom()).collect();
    for (b, block) in cfg.blocks.iter().enumerate() {
        let mut fact = in_fact[b].clone();
        if forward {
            for pc in block.start..block.end {
                before[pc] = fact.clone();
                problem.transfer(pc, &prog.insts[pc], &mut fact);
                after[pc] = fact.clone();
            }
        } else {
            for pc in (block.start..block.end).rev() {
                after[pc] = fact.clone();
                problem.transfer(pc, &prog.insts[pc], &mut fact);
                before[pc] = fact.clone();
            }
        }
    }

    Solution {
        before,
        after,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Cond, ProgramBuilder, Reg};

    /// A toy forward problem: "constant-ish" PC count — each fact counts
    /// instructions seen on the longest path, capped (finite lattice).
    struct CappedCount;

    impl DataflowProblem for CappedCount {
        type Fact = u32;

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn bottom(&self) -> u32 {
            0
        }

        fn boundary(&self, _last: Option<&Inst>) -> u32 {
            0
        }

        fn join(&self, into: &mut u32, from: &u32) {
            *into = (*into).max(*from);
        }

        fn transfer(&self, _pc: usize, _inst: &Inst, fact: &mut u32) {
            *fact = (*fact + 1).min(100);
        }
    }

    fn loop_prog() -> reach_sim::Program {
        let mut b = ProgramBuilder::new("l");
        b.imm(Reg(0), 3).imm(Reg(1), 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, Reg(0), Reg(0), Reg(1), 1);
        b.branch(Cond::Nez, Reg(0), top);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn forward_fixpoint_saturates_around_loop() {
        let p = loop_prog();
        let cfg = Cfg::build(&p);
        let sol = solve(&CappedCount, &p, &cfg);
        // The loop re-feeds itself; the capped count must hit the cap at
        // the loop head and stay consistent (before + 1 = after).
        assert_eq!(*sol.before(2), 100);
        for pc in 0..p.len() {
            assert_eq!(*sol.after(pc), (*sol.before(pc) + 1).min(100));
        }
    }

    #[test]
    fn solution_is_a_fixpoint() {
        // Re-applying the transfer to every block entry reproduces the
        // recorded exits (the definition of a fixpoint).
        let p = loop_prog();
        let cfg = Cfg::build(&p);
        let sol = solve(&CappedCount, &p, &cfg);
        for block in &cfg.blocks {
            let mut f = sol.before[block.start];
            for pc in block.start..block.end {
                CappedCount.transfer(pc, &p.insts[pc], &mut f);
            }
            assert_eq!(f, sol.after[block.end - 1]);
        }
    }

    /// Widening to ⊤ (here: the cap) after repeated loop-head visits.
    struct NeedsWidening;

    impl DataflowProblem for NeedsWidening {
        type Fact = u64;

        fn direction(&self) -> Direction {
            Direction::Forward
        }

        fn bottom(&self) -> u64 {
            0
        }

        fn boundary(&self, _last: Option<&Inst>) -> u64 {
            0
        }

        fn join(&self, into: &mut u64, from: &u64) {
            *into = (*into).max(*from);
        }

        fn transfer(&self, _pc: usize, _inst: &Inst, fact: &mut u64) {
            // Strictly increasing: never converges without widening.
            *fact = fact.saturating_add(1);
        }

        fn widen(&self, _old: &u64, _new: u64) -> u64 {
            u64::MAX - 1000 // jump far up the chain; saturation finishes it
        }
    }

    #[test]
    fn widening_forces_convergence_on_unbounded_lattice() {
        let p = loop_prog();
        let cfg = Cfg::build(&p);
        let sol = solve(&NeedsWidening, &p, &cfg);
        assert!(*sol.before(2) >= u64::MAX - 1000);
        assert!(sol.iterations < 1000);
    }
}
