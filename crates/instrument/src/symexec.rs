//! Symbolic evaluation of micro-IR basic blocks over a small term
//! algebra — the engine under the translation-validation pass
//! ([`crate::equiv`]).
//!
//! A block is executed once over *terms* instead of values: registers
//! start as opaque entry terms, ALU results become operator nodes
//! (constant-folded when both operands are known), and loads become
//! uninterpreted reads keyed by their symbolic effective address and the
//! number of stores executed before them. Two blocks that produce the
//! same store sequence, the same exit behavior and the same final
//! register terms are observationally indistinguishable to any context
//! that enters them in equal states — which is exactly the per-block
//! proof obligation of the CFG bisimulation in [`crate::equiv`].
//!
//! The algebra is deliberately tiny. Hash-consing makes term equality a
//! pointer (id) comparison; the only simplifications are constant
//! folding through [`AluOp::eval`] and the handful of identities the
//! pipeline's own rewrites need to validate (`or x,x = x` is how
//! [`crate::elide`] replaces a yield with an architectural no-op;
//! `x + 0 = x` folds zero load offsets so SFI mask stripping composes).

use reach_sim::{AluOp, Cond, Inst, Program, NUM_REGS};
use std::collections::HashMap;
use std::ops::Range;

/// Index of a hash-consed term in its [`TermPool`]. Equal ids ⇔ equal
/// terms.
pub(crate) type TermId = u32;

/// A node in the term algebra.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Term {
    /// The value register `reg` held at the cut point, on paths where
    /// both programs provably agree on it.
    Entry {
        /// Register index.
        reg: u8,
    },
    /// The value register `reg` held at the cut point on one side only
    /// (`side` 0 = original, 1 = rewritten) — used for registers the
    /// bisimulation could not prove equal, so that accidental
    /// coincidences never count as proofs.
    Diverged {
        /// Which program's entry state (0 = original, 1 = rewritten).
        side: u8,
        /// Register index.
        reg: u8,
    },
    /// A known 64-bit constant.
    Const(u64),
    /// An ALU operation over two terms.
    Alu {
        /// The operation.
        op: AluOp,
        /// Left operand.
        a: TermId,
        /// Right operand.
        b: TermId,
    },
    /// An uninterpreted memory read: the value at symbolic address
    /// `addr` after `version` stores have executed in this block.
    Read {
        /// Normalized effective-address term.
        addr: TermId,
        /// Store count before this read (the block-local memory
        /// version).
        version: u32,
    },
}

/// A hash-consing arena of [`Term`]s: structurally equal terms intern to
/// the same [`TermId`], so term equality is id equality.
#[derive(Clone, Debug, Default)]
pub(crate) struct TermPool {
    terms: Vec<Term>,
    index: HashMap<Term, TermId>,
}

impl TermPool {
    /// An empty pool.
    pub(crate) fn new() -> TermPool {
        TermPool::default()
    }

    /// Number of distinct terms interned.
    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }

    /// The node behind `id`.
    pub(crate) fn get(&self, id: TermId) -> Term {
        self.terms[id as usize]
    }

    /// Interns `t`, returning the existing id for structurally equal
    /// terms.
    pub(crate) fn intern(&mut self, t: Term) -> TermId {
        if let Some(&id) = self.index.get(&t) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(t);
        self.index.insert(t, id);
        id
    }

    /// Interns a constant.
    pub(crate) fn constant(&mut self, v: u64) -> TermId {
        self.intern(Term::Const(v))
    }

    /// Interns an ALU node, constant-folding through [`AluOp::eval`] and
    /// applying the identities the pipeline's rewrites rely on
    /// (`or/and x,x = x`; `x op 0 = x` for add/sub/or/xor/shifts).
    pub(crate) fn alu(&mut self, op: AluOp, a: TermId, b: TermId) -> TermId {
        if let (Term::Const(x), Term::Const(y)) = (self.get(a), self.get(b)) {
            return self.constant(op.eval(x, y));
        }
        match op {
            AluOp::Or | AluOp::And | AluOp::Min | AluOp::Max if a == b => return a,
            AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor | AluOp::Shl | AluOp::Shr
                if self.get(b) == Term::Const(0) =>
            {
                return a
            }
            _ => {}
        }
        self.intern(Term::Alu { op, a, b })
    }

    /// The effective-address term `base + offset` (folded when the
    /// offset is zero, so address normalization composes with SFI mask
    /// stripping).
    pub(crate) fn eff_addr(&mut self, base: TermId, offset: i64) -> TermId {
        if offset == 0 {
            return base;
        }
        let off = self.constant(offset as u64);
        self.alu(AluOp::Add, base, off)
    }

    /// If `t` is `and(x, mask)`, returns `x` — the raw address under an
    /// SFI mask application. `None` otherwise.
    pub(crate) fn strip_mask(&self, t: TermId, mask: TermId) -> Option<TermId> {
        match self.get(t) {
            Term::Alu {
                op: AluOp::And,
                a,
                b,
            } if b == mask => Some(a),
            _ => None,
        }
    }
}

/// The kind of a symbolic memory event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemKind {
    /// A load (its value entered the register file as a [`Term::Read`]).
    Load,
    /// A store (`value` carries the stored term).
    Store,
    /// A software prefetch (no architectural effect; tracked for the
    /// consuming-load obligation).
    Prefetch,
}

/// One memory access the block performed, in program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MemEvent {
    /// PC of the access in the evaluated program.
    pub pc: usize,
    /// Load, store or prefetch.
    pub kind: MemKind,
    /// Normalized effective-address term (SFI masks stripped when a
    /// mask term was supplied).
    pub addr: TermId,
    /// The stored value ([`MemKind::Store`] only).
    pub value: Option<TermId>,
    /// `true` when the base register's term carried the SFI mask
    /// pattern `and(x, mask)` — the maskedness obligation witness.
    pub masked: bool,
}

/// How the evaluated range ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SymExit {
    /// Ran off the end of the range without a terminator (falls through
    /// to the next block).
    Fallthrough,
    /// A branch. `src` is the condition operand's term (`None` for
    /// [`Cond::Always`], whose operand is architecturally ignored).
    Branch {
        /// Branch condition.
        cond: Cond,
        /// Condition operand term, when the condition reads it.
        src: Option<TermId>,
        /// Absolute target PC (in the evaluated program's image).
        target: usize,
    },
    /// A call to `target` (the return point is the instruction after
    /// the call).
    Call {
        /// Absolute callee entry PC.
        target: usize,
    },
    /// Return to the caller — every register is caller-observable here.
    Ret,
    /// Successful termination — the final context is observable.
    Halt,
}

/// The result of symbolically executing one block.
#[derive(Clone, Debug)]
pub(crate) struct BlockRun {
    /// Final register terms.
    pub regs: [TermId; NUM_REGS],
    /// Memory events in program order.
    pub mem: Vec<MemEvent>,
    /// How the range ended.
    pub exit: SymExit,
    /// PC of the terminator (or one past the last executed instruction
    /// for [`SymExit::Fallthrough`]) — the diagnostic anchor.
    pub exit_pc: usize,
}

/// Symbolically executes `prog[range]` from the register state `entry`,
/// stopping at the first terminator.
///
/// `sfi_mask` enables SFI address normalization: when the base register
/// of an access holds `and(x, sfi_mask)`, the access is keyed by the
/// *raw* address `x` and flagged [`MemEvent::masked`]. Applying it to
/// both programs of a pair makes a masked rewrite's reads produce the
/// same terms as the original's raw reads, turning "equivalent modulo
/// sandboxing" into plain term equality while keeping the maskedness
/// obligation checkable.
pub(crate) fn sym_exec_range(
    prog: &Program,
    range: Range<usize>,
    entry: &[TermId; NUM_REGS],
    pool: &mut TermPool,
    sfi_mask: Option<TermId>,
) -> BlockRun {
    let mut regs = *entry;
    let mut mem: Vec<MemEvent> = Vec::new();
    let mut version = 0u32;

    let access = |pool: &mut TermPool, base: TermId, offset: i64| -> (TermId, bool) {
        match sfi_mask.and_then(|m| pool.strip_mask(base, m)) {
            Some(raw) => (pool.eff_addr(raw, offset), true),
            None => (pool.eff_addr(base, offset), false),
        }
    };

    for pc in range.clone() {
        match &prog.insts[pc] {
            Inst::Imm { dst, val } => {
                regs[dst.index()] = pool.constant(*val);
            }
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
                ..
            } => {
                regs[dst.index()] = pool.alu(*op, regs[src1.index()], regs[src2.index()]);
            }
            Inst::Load { dst, addr, offset } => {
                let (a, masked) = access(pool, regs[addr.index()], *offset);
                mem.push(MemEvent {
                    pc,
                    kind: MemKind::Load,
                    addr: a,
                    value: None,
                    masked,
                });
                regs[dst.index()] = pool.intern(Term::Read { addr: a, version });
            }
            Inst::Store { src, addr, offset } => {
                let (a, masked) = access(pool, regs[addr.index()], *offset);
                mem.push(MemEvent {
                    pc,
                    kind: MemKind::Store,
                    addr: a,
                    value: Some(regs[src.index()]),
                    masked,
                });
                version += 1;
            }
            Inst::Prefetch { addr, offset } => {
                let (a, masked) = access(pool, regs[addr.index()], *offset);
                mem.push(MemEvent {
                    pc,
                    kind: MemKind::Prefetch,
                    addr: a,
                    value: None,
                    masked,
                });
            }
            // Architectural no-ops to the evaluator: the executor saves
            // and restores the context around them, and the checker
            // discharges their save-mask obligations on its own.
            Inst::Yield { .. } => {}
            Inst::Branch { cond, src, target } => {
                let src = if *cond == Cond::Always {
                    None
                } else {
                    Some(regs[src.index()])
                };
                return BlockRun {
                    regs,
                    mem,
                    exit: SymExit::Branch {
                        cond: *cond,
                        src,
                        target: *target,
                    },
                    exit_pc: pc,
                };
            }
            Inst::Call { target } => {
                return BlockRun {
                    regs,
                    mem,
                    exit: SymExit::Call { target: *target },
                    exit_pc: pc,
                };
            }
            Inst::Ret => {
                return BlockRun {
                    regs,
                    mem,
                    exit: SymExit::Ret,
                    exit_pc: pc,
                };
            }
            Inst::Halt => {
                return BlockRun {
                    regs,
                    mem,
                    exit: SymExit::Halt,
                    exit_pc: pc,
                };
            }
        }
    }
    BlockRun {
        regs,
        mem,
        exit: SymExit::Fallthrough,
        exit_pc: range.end,
    }
}

/// The shared entry register state for a cut point: registers in
/// `equal` (a bitmask) get the side-agnostic [`Term::Entry`]; the rest
/// get [`Term::Diverged`] for `side`, so unproven registers can never
/// accidentally compare equal downstream.
pub(crate) fn entry_state(pool: &mut TermPool, equal: u32, side: u8) -> [TermId; NUM_REGS] {
    std::array::from_fn(|r| {
        if equal & (1 << r) != 0 {
            pool.intern(Term::Entry { reg: r as u8 })
        } else {
            pool.intern(Term::Diverged { side, reg: r as u8 })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{ProgramBuilder, Reg, YieldKind};

    #[test]
    fn constant_folding_matches_machine_semantics() {
        let mut p = TermPool::new();
        let a = p.constant(7);
        let b = p.constant(0);
        let div = p.alu(AluOp::Div, a, b);
        assert_eq!(p.get(div), Term::Const(u64::MAX));
        let rem = p.alu(AluOp::Rem, a, b);
        assert_eq!(p.get(rem), Term::Const(7));
        let c = p.constant(u64::MAX);
        let one = p.constant(1);
        let wrap = p.alu(AluOp::Add, c, one);
        assert_eq!(p.get(wrap), Term::Const(0));
    }

    #[test]
    fn or_self_is_identity() {
        // `or r, x, x` is how elide.rs turns a yield into a no-op; the
        // algebra must see through it.
        let mut p = TermPool::new();
        let x = p.intern(Term::Entry { reg: 3 });
        assert_eq!(p.alu(AluOp::Or, x, x), x);
        assert_eq!(p.alu(AluOp::And, x, x), x);
        let zero = p.constant(0);
        assert_eq!(p.alu(AluOp::Add, x, zero), x);
    }

    #[test]
    fn hash_consing_dedups() {
        let mut p = TermPool::new();
        let a = p.constant(42);
        let b = p.constant(42);
        assert_eq!(a, b);
        let x = p.intern(Term::Entry { reg: 1 });
        let t1 = p.alu(AluOp::Add, x, a);
        let t2 = p.alu(AluOp::Add, x, b);
        assert_eq!(t1, t2);
    }

    #[test]
    fn straightline_block_produces_expected_events() {
        let mut b = ProgramBuilder::new("s");
        b.imm(Reg(1), 8);
        b.load(Reg(2), Reg(0), 16);
        b.store(Reg(2), Reg(0), 24);
        b.halt();
        let prog = b.finish().unwrap();
        let mut pool = TermPool::new();
        let entry = entry_state(&mut pool, u32::MAX, 0);
        let run = sym_exec_range(&prog, 0..prog.len(), &entry, &mut pool, None);
        assert_eq!(run.exit, SymExit::Halt);
        assert_eq!(run.exit_pc, 3);
        assert_eq!(run.mem.len(), 2);
        assert_eq!(run.mem[0].kind, MemKind::Load);
        assert_eq!(run.mem[1].kind, MemKind::Store);
        // The store writes exactly what the load read.
        assert_eq!(run.mem[1].value, Some(run.regs[2]));
        assert!(matches!(pool.get(run.regs[2]), Term::Read { .. }));
        // r1 folded to a constant.
        assert_eq!(pool.get(run.regs[1]), Term::Const(8));
    }

    #[test]
    fn yields_change_nothing() {
        let mut b = ProgramBuilder::new("y");
        b.imm(Reg(1), 5);
        b.push(Inst::Yield {
            kind: YieldKind::Primary,
            save_regs: Some(0b10),
        });
        b.halt();
        let prog = b.finish().unwrap();
        let mut pool = TermPool::new();
        let entry = entry_state(&mut pool, u32::MAX, 0);
        let run = sym_exec_range(&prog, 0..prog.len(), &entry, &mut pool, None);
        assert_eq!(pool.get(run.regs[1]), Term::Const(5));
    }

    #[test]
    fn sfi_mask_stripping_normalizes_access_keys() {
        // and r27, r0, r26 ; load r4, [r27+8]  — with the mask term
        // supplied, the read keys by the *raw* r0 + 8 and is flagged
        // masked.
        let mut b = ProgramBuilder::new("sfi");
        b.alu(AluOp::And, Reg(27), Reg(0), Reg(26), 1);
        b.load(Reg(4), Reg(27), 8);
        b.halt();
        let prog = b.finish().unwrap();
        let mut pool = TermPool::new();
        let entry = entry_state(&mut pool, u32::MAX, 1);
        let mask = entry[26];
        let run = sym_exec_range(&prog, 0..prog.len(), &entry, &mut pool, Some(mask));
        assert!(run.mem[0].masked);
        let raw = entry[0];
        let want = pool.eff_addr(raw, 8);
        assert_eq!(run.mem[0].addr, want);
    }
}
