//! Register liveness analysis over the binary (§3.2's first optimization:
//! "identify registers whose values will be used later via a register
//! liveness analysis [45, 52] and only preserve the values of these
//! registers").
//!
//! A standard backward may-analysis on the CFG: a register is live at a
//! point if some path from that point reads it before writing it. Yield
//! sites then save exactly the live set instead of the full architectural
//! file, directly reducing the modelled switch cost.
//!
//! Conservatism: `ret` is treated as "all registers live" (an unknown
//! caller may read anything), `halt` as "nothing live". Both directions
//! are sound for save-set purposes: over-approximating liveness only costs
//! cycles, never correctness — and the executor's register-poisoning test
//! mode verifies we never under-approximate.
//!
//! Implementation: an instance of the generic worklist engine in
//! [`crate::dataflow`] ([`LivenessProblem`]). The original hand-rolled
//! worklist lives on as the oracle of `tests/prop_dataflow.rs`, which
//! pins the engine bit-identical to it — on this module's own example
//! programs too, which is why its unit tests are there.

use crate::cfg::Cfg;
use crate::dataflow::{self, DataflowProblem, Direction};
use reach_sim::{Inst, Program, Reg, NUM_REGS};

/// A register set as a bitmask (bit *i* = register *i*).
pub type RegSet = u32;

/// Mask with every architectural register set.
pub const ALL_REGS: RegSet = u32::MAX;

/// Per-instruction liveness results.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// `live_in[pc]`: registers live immediately before the instruction at
    /// `pc` executes.
    live_in: Vec<RegSet>,
}

fn def_use(inst: &Inst, uses_buf: &mut Vec<Reg>) -> (RegSet, RegSet) {
    let def = inst.def().map_or(0, |r| 1u32 << r.index());
    uses_buf.clear();
    inst.uses(uses_buf);
    let mut uses = 0u32;
    for r in uses_buf.iter() {
        uses |= 1u32 << r.index();
    }
    (def, uses)
}

/// Liveness as a [`DataflowProblem`]: backward may-analysis on the
/// `RegSet` powerset lattice (join = union), transfer
/// `live' = (live \ def) ∪ uses`.
pub struct LivenessProblem;

impl DataflowProblem for LivenessProblem {
    type Fact = RegSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self) -> RegSet {
        0
    }

    fn boundary(&self, last: Option<&Inst>) -> RegSet {
        // Exit-block conservatism: an unknown caller may read anything
        // after `ret`; nothing is observable after `halt`.
        match last {
            Some(Inst::Ret) => ALL_REGS,
            _ => 0,
        }
    }

    fn join(&self, into: &mut RegSet, from: &RegSet) {
        *into |= *from;
    }

    fn transfer(&self, _pc: usize, inst: &Inst, fact: &mut RegSet) {
        let mut uses_buf = Vec::with_capacity(4);
        let (def, uses) = def_use(inst, &mut uses_buf);
        *fact = (*fact & !def) | uses;
    }
}

impl Liveness {
    /// Computes liveness for `prog` over its `cfg` via the generic
    /// dataflow engine.
    pub fn compute(prog: &Program, cfg: &Cfg) -> Liveness {
        let sol = dataflow::solve(&LivenessProblem, prog, cfg);
        Liveness {
            live_in: sol.before,
        }
    }

    /// Registers live immediately before the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn live_before(&self, pc: usize) -> RegSet {
        self.live_in[pc]
    }

    /// Number of live registers before `pc`.
    #[inline]
    pub fn live_count(&self, pc: usize) -> u32 {
        self.live_in[pc].count_ones()
    }
}

/// Formats a register set for debugging ("{r0,r3,r7}").
pub(crate) fn regset_to_string(set: RegSet) -> String {
    let regs: Vec<String> = (0..NUM_REGS)
        .filter(|&i| set & (1 << i) != 0)
        .map(|i| format!("r{i}"))
        .collect();
    format!("{{{}}}", regs.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regset_formatting() {
        assert_eq!(regset_to_string(0), "{}");
        assert_eq!(regset_to_string(0b1001), "{r0,r3}");
    }
}
