//! Control-flow-graph construction — the "disassembly" step of the binary
//! instrumentation pipeline (§3.2 points at BOLT-class binary optimizers
//! [7, 50, 51] for this machinery).
//!
//! Operating on the flat instruction stream, we find basic-block leaders
//! (entry, branch/call targets, fall-throughs of terminators), split the
//! stream into blocks, and wire successor edges. Calls are treated
//! conservatively for intra-procedural analyses: a call's successors are
//! both the callee entry and the return point, and `ret` is an exit edge.

use reach_sim::{Cond, Inst, Program};
use std::collections::BTreeSet;

/// A basic block: the instructions `[start, end)` of the program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BasicBlock {
    /// PC of the first instruction.
    pub start: usize,
    /// One past the PC of the last instruction.
    pub end: usize,
    /// Successor block ids.
    pub succs: Vec<usize>,
    /// Predecessor block ids.
    pub preds: Vec<usize>,
}

/// The control-flow graph of one program.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Blocks in ascending `start` order; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// Map from PC to owning block id.
    block_of: Vec<usize>,
}

impl Cfg {
    /// Builds the CFG of `prog`.
    ///
    /// # Panics
    ///
    /// Panics if the program is empty or fails validation — the caller is
    /// expected to instrument only valid binaries.
    pub fn build(prog: &Program) -> Cfg {
        prog.validate()
            .expect("cannot build a CFG of an invalid program");
        let n = prog.len();

        // 1. Leaders.
        let mut leaders = BTreeSet::new();
        leaders.insert(0usize);
        for (pc, inst) in prog.insts.iter().enumerate() {
            match inst {
                Inst::Branch { target, .. } => {
                    leaders.insert(*target);
                    if pc + 1 < n {
                        leaders.insert(pc + 1);
                    }
                }
                Inst::Call { target } => {
                    leaders.insert(*target);
                    if pc + 1 < n {
                        leaders.insert(pc + 1);
                    }
                }
                Inst::Ret | Inst::Halt if pc + 1 < n => {
                    leaders.insert(pc + 1);
                }
                _ => {}
            }
        }

        // 2. Blocks.
        let starts: Vec<usize> = leaders.into_iter().collect();
        let mut blocks: Vec<BasicBlock> = starts
            .iter()
            .enumerate()
            .map(|(i, &start)| BasicBlock {
                start,
                end: starts.get(i + 1).copied().unwrap_or(n),
                succs: Vec::new(),
                preds: Vec::new(),
            })
            .collect();
        let mut block_of = vec![0usize; n];
        for (id, b) in blocks.iter().enumerate() {
            block_of[b.start..b.end].fill(id);
        }

        // 3. Edges.
        for id in 0..blocks.len() {
            let last_pc = blocks[id].end - 1;
            let succs: Vec<usize> = match &prog.insts[last_pc] {
                Inst::Branch {
                    cond: Cond::Always,
                    target,
                    ..
                } => vec![block_of[*target]],
                Inst::Branch { target, .. } => {
                    let mut v = vec![block_of[*target]];
                    if last_pc + 1 < n {
                        v.push(block_of[last_pc + 1]);
                    }
                    v
                }
                // Conservative: control reaches the callee and, later, the
                // return point.
                Inst::Call { target } => {
                    let mut v = vec![block_of[*target]];
                    if last_pc + 1 < n {
                        v.push(block_of[last_pc + 1]);
                    }
                    v
                }
                Inst::Ret | Inst::Halt => vec![],
                // Fall through.
                _ => {
                    if last_pc + 1 < n {
                        vec![block_of[last_pc + 1]]
                    } else {
                        vec![]
                    }
                }
            };
            for &s in &succs {
                blocks[s].preds.push(id);
            }
            blocks[id].succs = succs;
        }

        Cfg { blocks, block_of }
    }

    /// The block containing `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    pub(crate) fn block_of_pc(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if the CFG has no blocks (never after `build`).
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Block ids in reverse post-order from the entry (good iteration
    /// order for forward dataflow).
    pub fn reverse_post_order(&self) -> Vec<usize> {
        let mut visited = vec![false; self.blocks.len()];
        let mut post = Vec::with_capacity(self.blocks.len());
        // Iterative DFS to avoid recursion limits on long programs.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < self.blocks[b].succs.len() {
                let s = self.blocks[b].succs[*next];
                *next += 1;
                if !visited[s] {
                    visited[s] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        post
    }

    /// The set of back edges `(from, to)` (edges to a block currently on
    /// the DFS stack) — loop detection for the scavenger worst-case pass.
    pub(crate) fn back_edges(&self) -> Vec<(usize, usize)> {
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            New,
            Active,
            Done,
        }
        let mut state = vec![State::New; self.blocks.len()];
        let mut edges = Vec::new();
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        state[0] = State::Active;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            if *next < self.blocks[b].succs.len() {
                let s = self.blocks[b].succs[*next];
                *next += 1;
                match state[s] {
                    State::Active => edges.push((b, s)),
                    State::New => {
                        state[s] = State::Active;
                        stack.push((s, 0));
                    }
                    State::Done => {}
                }
            } else {
                state[b] = State::Done;
                stack.pop();
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, ProgramBuilder, Reg};

    fn loop_program() -> Program {
        // 0: imm r0, 3
        // 1: imm r1, 1
        // 2: sub r0, r0, r1     <- loop head
        // 3: br.nez r0, @2
        // 4: halt
        let mut b = ProgramBuilder::new("loop");
        b.imm(Reg(0), 3).imm(Reg(1), 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, Reg(0), Reg(0), Reg(1), 1);
        b.branch(Cond::Nez, Reg(0), top);
        b.halt();
        b.finish().unwrap()
    }

    #[test]
    fn straight_line_is_one_block() {
        let mut b = ProgramBuilder::new("s");
        b.imm(Reg(0), 1);
        b.imm(Reg(1), 2);
        b.halt();
        let cfg = Cfg::build(&b.finish().unwrap());
        assert_eq!(cfg.len(), 1);
        assert_eq!(cfg.blocks[0].start, 0);
        assert_eq!(cfg.blocks[0].end, 3);
        assert!(cfg.blocks[0].succs.is_empty());
    }

    #[test]
    fn loop_splits_into_three_blocks() {
        let cfg = Cfg::build(&loop_program());
        // [0,2) preamble, [2,4) body, [4,5) exit.
        assert_eq!(cfg.len(), 3);
        assert_eq!(cfg.blocks[0].succs, vec![1]);
        let body = &cfg.blocks[1];
        assert_eq!(body.start, 2);
        assert_eq!(body.end, 4);
        let mut s = body.succs.clone();
        s.sort_unstable();
        assert_eq!(s, vec![1, 2], "body loops to itself and exits");
        assert_eq!(cfg.blocks[2].succs, Vec::<usize>::new());
        assert_eq!(cfg.block_of_pc(3), 1);
        assert_eq!(cfg.block_of_pc(4), 2);
    }

    #[test]
    fn preds_mirror_succs() {
        let cfg = Cfg::build(&loop_program());
        for (id, b) in cfg.blocks.iter().enumerate() {
            for &s in &b.succs {
                assert!(cfg.blocks[s].preds.contains(&id));
            }
            for &p in &b.preds {
                assert!(cfg.blocks[p].succs.contains(&id));
            }
        }
    }

    #[test]
    fn back_edges_found_in_loop() {
        let cfg = Cfg::build(&loop_program());
        assert_eq!(cfg.back_edges(), vec![(1, 1)]);
    }

    #[test]
    fn rpo_starts_at_entry_and_covers_reachable_blocks() {
        let cfg = Cfg::build(&loop_program());
        let rpo = cfg.reverse_post_order();
        assert_eq!(rpo[0], 0);
        assert_eq!(rpo.len(), 3);
    }

    #[test]
    fn call_block_has_callee_and_return_successors() {
        let mut b = ProgramBuilder::new("c");
        let f = b.label();
        b.imm(Reg(0), 1);
        b.call(f);
        b.halt();
        b.bind(f);
        b.alu(AluOp::Add, Reg(0), Reg(0), Reg(0), 1);
        b.ret();
        let cfg = Cfg::build(&b.finish().unwrap());
        // Blocks: [0,2) call-block, [2,3) halt, [3,5) callee.
        let call_block = cfg.block_of_pc(1);
        let mut s = cfg.blocks[call_block].succs.clone();
        s.sort_unstable();
        assert_eq!(s, vec![cfg.block_of_pc(2), cfg.block_of_pc(3)]);
        // The callee's ret has no static successors.
        assert!(cfg.blocks[cfg.block_of_pc(4)].succs.is_empty());
    }

    #[test]
    fn diamond_control_flow() {
        // if r0 { r1 = 1 } else { r1 = 2 }; halt
        let mut b = ProgramBuilder::new("d");
        let then_l = b.label();
        let join = b.label();
        b.branch(Cond::Nez, Reg(0), then_l);
        b.imm(Reg(1), 2);
        b.jump(join);
        b.bind(then_l);
        b.imm(Reg(1), 1);
        b.bind(join);
        b.halt();
        let cfg = Cfg::build(&b.finish().unwrap());
        assert_eq!(cfg.len(), 4);
        let join_id = cfg.block_of_pc(4);
        assert_eq!(cfg.blocks[join_id].preds.len(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid program")]
    fn invalid_program_panics() {
        let p = Program::new("bad");
        let _ = Cfg::build(&p);
    }
}
