//! Binary rewriting with relocation: the mechanical core of operating at
//! the post-linked-binary level.
//!
//! Inserting instructions into a flat stream shifts every later PC, so all
//! branch/call targets must be relocated — the same fix-up a real binary
//! rewriter performs. [`insert_before`] applies a batch of insertions and
//! returns both the new program and the PC maps needed to carry
//! profile data (which refers to *original* PCs) across rewriting passes.

use reach_sim::{Inst, Program};

/// A batch entry: place `insts` immediately before the original
/// instruction at `at_pc`.
#[derive(Clone, Debug)]
pub struct Insertion {
    /// Original PC the new instructions precede.
    pub at_pc: usize,
    /// Instructions to insert (kept in order).
    pub insts: Vec<Inst>,
}

/// Mapping between original and rewritten PC spaces.
#[derive(Clone, Debug)]
pub struct PcMap {
    /// `new_of[old_pc]` = new PC of the original instruction.
    pub new_of: Vec<usize>,
    /// `origin[new_pc]` = original PC, or `None` for inserted
    /// instructions.
    pub origin: Vec<Option<usize>>,
}

impl PcMap {
    /// Identity map for an untouched program of length `n`.
    #[cfg(test)]
    pub(crate) fn identity(n: usize) -> PcMap {
        PcMap {
            new_of: (0..n).collect(),
            origin: (0..n).map(Some).collect(),
        }
    }

    /// Composes two rewriting steps: `self` (first) then `later`.
    ///
    /// The result maps the *original* PC space of `self` to the final PC
    /// space of `later`.
    pub fn then(&self, later: &PcMap) -> PcMap {
        PcMap {
            new_of: self.new_of.iter().map(|&p| later.new_of[p]).collect(),
            origin: later
                .origin
                .iter()
                .map(|&o| o.and_then(|p| self.origin[p]))
                .collect(),
        }
    }
}

/// Errors from [`insert_before`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RewriteError {
    /// An insertion targets a PC outside the program.
    BadInsertionPc {
        /// The offending PC.
        at_pc: usize,
    },
    /// Two insertions target the same PC (merge them first — order would
    /// be ambiguous).
    DuplicateInsertionPc {
        /// The duplicated PC.
        at_pc: usize,
    },
    /// The rewritten program failed validation (an internal bug).
    Invalid(String),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::BadInsertionPc { at_pc } => {
                write!(f, "insertion at pc {at_pc} outside program")
            }
            RewriteError::DuplicateInsertionPc { at_pc } => {
                write!(f, "two insertions at pc {at_pc}")
            }
            RewriteError::Invalid(e) => write!(f, "rewritten program invalid: {e}"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Inserts every batch entry before its original instruction, relocating
/// all branch and call targets.
///
/// Branch targets that pointed at an instruction with an insertion now
/// point at the *first inserted instruction* — i.e. control arriving at a
/// load via a branch still executes the prefetch+yield placed before it.
pub fn insert_before(
    prog: &Program,
    mut insertions: Vec<Insertion>,
) -> Result<(Program, PcMap), RewriteError> {
    let n = prog.len();
    insertions.sort_by_key(|i| i.at_pc);
    for w in insertions.windows(2) {
        if w[0].at_pc == w[1].at_pc {
            return Err(RewriteError::DuplicateInsertionPc { at_pc: w[0].at_pc });
        }
    }
    if let Some(last) = insertions.last() {
        if last.at_pc >= n {
            return Err(RewriteError::BadInsertionPc { at_pc: last.at_pc });
        }
    }

    // Build the new stream and the PC maps.
    let extra: usize = insertions.iter().map(|i| i.insts.len()).sum();
    let mut insts = Vec::with_capacity(n + extra);
    let mut new_of = vec![0usize; n];
    let mut origin = Vec::with_capacity(n + extra);
    let mut ins_iter = insertions.iter().peekable();
    // `entry_of[old_pc]`: where control arriving at `old_pc` should land
    // (the first inserted instruction if any, else the instruction
    // itself).
    let mut entry_of = vec![0usize; n];

    for (old_pc, inst) in prog.insts.iter().enumerate() {
        let mut entry = insts.len();
        if let Some(ins) = ins_iter.peek() {
            if ins.at_pc == old_pc {
                let ins = ins_iter.next().expect("peeked");
                entry = insts.len();
                for new_inst in &ins.insts {
                    origin.push(None);
                    insts.push(new_inst.clone());
                }
            }
        }
        entry_of[old_pc] = entry;
        new_of[old_pc] = insts.len();
        origin.push(Some(old_pc));
        insts.push(inst.clone());
    }

    // Relocate targets: branches land on the entry point (inserted code
    // included) of their original target.
    for inst in &mut insts {
        match inst {
            Inst::Branch { target, .. } | Inst::Call { target } => {
                *target = entry_of[*target];
            }
            _ => {}
        }
    }

    let new_prog = Program {
        insts,
        name: prog.name.clone(),
    };
    new_prog
        .validate()
        .map_err(|e| RewriteError::Invalid(e.to_string()))?;
    Ok((new_prog, PcMap { new_of, origin }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Cond, Context, Machine, MachineConfig, ProgramBuilder, Reg, YieldKind};

    fn loop_prog() -> Program {
        // 0: imm r0,3  1: imm r1,1  2: sub r0,r0,r1  3: br.nez r0,@2
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

    fn yield_inst() -> Inst {
        Inst::Yield {
            kind: YieldKind::Primary,
            save_regs: Some(0b11),
        }
    }

    #[test]
    fn insertion_shifts_and_relocates_backedge() {
        let p = loop_prog();
        let (q, map) = insert_before(
            &p,
            vec![Insertion {
                at_pc: 2,
                insts: vec![yield_inst()],
            }],
        )
        .unwrap();
        assert_eq!(q.len(), 6);
        // The yield sits where pc 2 was; the sub moved to 3.
        assert!(matches!(q.insts[2], Inst::Yield { .. }));
        assert!(matches!(q.insts[3], Inst::Alu { .. }));
        // The back edge retargets to the *yield* (entry of old pc 2): a
        // loop iteration hits the instrumentation every time around.
        let Inst::Branch { target, .. } = q.insts[4] else {
            panic!("pc 4 should be the branch");
        };
        assert_eq!(target, 2);
        assert_eq!(map.new_of[2], 3);
        assert_eq!(map.origin[2], None);
        assert_eq!(map.origin[3], Some(2));
    }

    #[test]
    fn rewritten_program_has_identical_semantics() {
        let p = loop_prog();
        let (q, _) = insert_before(
            &p,
            vec![
                Insertion {
                    at_pc: 0,
                    insts: vec![yield_inst()],
                },
                Insertion {
                    at_pc: 4,
                    insts: vec![yield_inst()],
                },
            ],
        )
        .unwrap();
        let run = |prog: &Program| {
            let mut m = Machine::new(MachineConfig::default());
            let mut ctx = Context::new(0);
            m.run_to_completion(prog, &mut ctx, 1000).unwrap();
            ctx.regs
        };
        assert_eq!(run(&p), run(&q));
    }

    #[test]
    fn multiple_insertions_accumulate_offsets() {
        let p = loop_prog();
        let (q, map) = insert_before(
            &p,
            vec![
                Insertion {
                    at_pc: 1,
                    insts: vec![yield_inst(), yield_inst()],
                },
                Insertion {
                    at_pc: 3,
                    insts: vec![yield_inst()],
                },
            ],
        )
        .unwrap();
        assert_eq!(q.len(), 8);
        assert_eq!(map.new_of[0], 0);
        assert_eq!(map.new_of[1], 3);
        assert_eq!(map.new_of[2], 4);
        assert_eq!(map.new_of[3], 6);
        assert_eq!(map.new_of[4], 7);
    }

    #[test]
    fn duplicate_insertion_pc_rejected() {
        let p = loop_prog();
        let r = insert_before(
            &p,
            vec![
                Insertion {
                    at_pc: 2,
                    insts: vec![yield_inst()],
                },
                Insertion {
                    at_pc: 2,
                    insts: vec![yield_inst()],
                },
            ],
        );
        assert_eq!(
            r.unwrap_err(),
            RewriteError::DuplicateInsertionPc { at_pc: 2 }
        );
    }

    #[test]
    fn out_of_range_insertion_rejected() {
        let p = loop_prog();
        let r = insert_before(
            &p,
            vec![Insertion {
                at_pc: 99,
                insts: vec![yield_inst()],
            }],
        );
        assert_eq!(r.unwrap_err(), RewriteError::BadInsertionPc { at_pc: 99 });
    }

    #[test]
    fn pcmap_composition() {
        let p = loop_prog();
        let (q, m1) = insert_before(
            &p,
            vec![Insertion {
                at_pc: 2,
                insts: vec![yield_inst()],
            }],
        )
        .unwrap();
        let (_, m2) = insert_before(
            &q,
            vec![Insertion {
                at_pc: 0,
                insts: vec![yield_inst()],
            }],
        )
        .unwrap();
        let m = m1.then(&m2);
        // Original pc 2 → new pc 3 after step 1 → pc 4 after step 2.
        assert_eq!(m.new_of[2], 4);
        // Origins survive composition.
        assert_eq!(m.origin[4], Some(2));
        assert_eq!(m.origin[0], None, "step-2 insertion has no origin");
        assert_eq!(m.origin[3], None, "step-1 insertion has no origin");
    }

    #[test]
    fn identity_map() {
        let m = PcMap::identity(3);
        assert_eq!(m.new_of, vec![0, 1, 2]);
        assert_eq!(m.origin, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn empty_insertion_batch_is_identity_rewrite() {
        let p = loop_prog();
        let (q, map) = insert_before(&p, vec![]).unwrap();
        assert_eq!(q, p);
        assert_eq!(map.new_of, (0..p.len()).collect::<Vec<_>>());
    }
}
