//! Translation validation: statically check that a rewritten binary is a
//! faithful instrumentation of its original.
//!
//! Production binary rewriters pair every transformation with a
//! validation pass — trust comes from checking, not from the rewriter's
//! own bookkeeping. [`validate_rewrite`] checks, given the original, the
//! rewritten program and the rewriting `origin` map:
//!
//! 1. **coverage** — every original instruction appears exactly once, in
//!    order;
//! 2. **identity modulo relocation** — each surviving instruction is
//!    unchanged except for branch/call targets, which must point at the
//!    relocated position of their original target (its *entry*, i.e.
//!    possibly at instrumentation inserted before it);
//! 3. **insertion discipline** — inserted instructions come only from the
//!    allowed set (prefetches, yields, and SFI masking ALUs into the
//!    reserved registers), none of which can change architectural state
//!    the original program observes.

use crate::sfi::{R_SFI_ADDR, R_SFI_MASK};
use reach_sim::{AluOp, Inst, Program};

/// A validation failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidationError {
    /// The origin map's length does not match the rewritten program.
    MapLengthMismatch,
    /// Original instructions are missing, duplicated or out of order.
    CoverageBroken {
        /// Number of original PCs covered.
        covered: usize,
        /// Expected count.
        expected: usize,
    },
    /// A surviving instruction changed beyond target relocation.
    InstructionAltered {
        /// PC in the rewritten program.
        new_pc: usize,
        /// PC in the original program.
        old_pc: usize,
    },
    /// A relocated target does not reach its original target's entry.
    BadRelocation {
        /// PC of the branch in the rewritten program.
        new_pc: usize,
        /// The (wrong) rewritten target.
        got: usize,
        /// The expected rewritten target.
        want: usize,
    },
    /// An inserted instruction is outside the allowed set.
    IllegalInsertion {
        /// PC of the inserted instruction.
        new_pc: usize,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::MapLengthMismatch => write!(f, "origin map length mismatch"),
            ValidationError::CoverageBroken { covered, expected } => {
                write!(f, "coverage broken: {covered} of {expected} originals")
            }
            ValidationError::InstructionAltered { new_pc, old_pc } => {
                write!(
                    f,
                    "instruction at new pc {new_pc} (orig {old_pc}) was altered"
                )
            }
            ValidationError::BadRelocation { new_pc, got, want } => {
                write!(
                    f,
                    "branch at new pc {new_pc} relocated to {got}, want {want}"
                )
            }
            ValidationError::IllegalInsertion { new_pc } => {
                write!(f, "illegal inserted instruction at new pc {new_pc}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Returns `true` if `inst` is allowed as *inserted* instrumentation.
fn is_legal_insertion(inst: &Inst) -> bool {
    match inst {
        Inst::Prefetch { .. } | Inst::Yield { .. } => true,
        // SFI masking: `and R_SFI_ADDR, <any>, R_SFI_MASK`.
        Inst::Alu {
            op: AluOp::And,
            dst,
            src2,
            ..
        } => *dst == R_SFI_ADDR && *src2 == R_SFI_MASK,
        _ => false,
    }
}

/// Validates that `rewritten` instruments `original` per `origin`.
///
/// `allow_addr_rerouting` permits surviving memory accesses to have their
/// address register replaced by [`R_SFI_ADDR`] (the SFI pass does this);
/// leave it false for yield-only pipelines.
pub fn validate_rewrite(
    original: &Program,
    rewritten: &Program,
    origin: &[Option<usize>],
    allow_addr_rerouting: bool,
) -> Result<(), ValidationError> {
    if origin.len() != rewritten.len() {
        return Err(ValidationError::MapLengthMismatch);
    }

    // Coverage + entry map: entry[old_pc] = first new pc whose run of
    // insertions precedes old_pc's relocated instruction.
    let mut survivors: Vec<(usize, usize)> = Vec::new(); // (new, old)
    for (new_pc, o) in origin.iter().enumerate() {
        if let Some(old_pc) = o {
            survivors.push((new_pc, *old_pc));
        }
    }
    let expected = original.len();
    let in_order = survivors.windows(2).all(|w| w[0].1 + 1 == w[1].1);
    if survivors.len() != expected || !in_order || survivors.first().map(|s| s.1) != Some(0) {
        return Err(ValidationError::CoverageBroken {
            covered: survivors.len(),
            expected,
        });
    }
    // Entry of old pc = new position of the first instruction inserted
    // before it (or the instruction itself).
    let mut entry = vec![0usize; expected];
    let mut prev_new = 0usize;
    for &(new_pc, old_pc) in &survivors {
        // The insertions between the previous survivor and this one
        // belong to this old pc's entry.
        entry[old_pc] = if old_pc == 0 { 0 } else { prev_new + 1 };
        prev_new = new_pc;
    }

    for &(new_pc, old_pc) in &survivors {
        let orig = &original.insts[old_pc];
        let new = &rewritten.insts[new_pc];
        let same = match (orig, new) {
            (
                Inst::Branch {
                    cond: c1,
                    src: s1,
                    target: t1,
                },
                Inst::Branch {
                    cond: c2,
                    src: s2,
                    target: t2,
                },
            ) => {
                if c1 != c2 || s1 != s2 {
                    false
                } else {
                    let want = entry[*t1];
                    if *t2 != want {
                        return Err(ValidationError::BadRelocation {
                            new_pc,
                            got: *t2,
                            want,
                        });
                    }
                    true
                }
            }
            (Inst::Call { target: t1 }, Inst::Call { target: t2 }) => {
                let want = entry[*t1];
                if *t2 != want {
                    return Err(ValidationError::BadRelocation {
                        new_pc,
                        got: *t2,
                        want,
                    });
                }
                true
            }
            (
                Inst::Load {
                    dst: d1,
                    addr: a1,
                    offset: o1,
                },
                Inst::Load {
                    dst: d2,
                    addr: a2,
                    offset: o2,
                },
            ) => d1 == d2 && o1 == o2 && (a1 == a2 || (allow_addr_rerouting && *a2 == R_SFI_ADDR)),
            (
                Inst::Store {
                    src: s1,
                    addr: a1,
                    offset: o1,
                },
                Inst::Store {
                    src: s2,
                    addr: a2,
                    offset: o2,
                },
            ) => s1 == s2 && o1 == o2 && (a1 == a2 || (allow_addr_rerouting && *a2 == R_SFI_ADDR)),
            (
                Inst::Prefetch {
                    addr: a1,
                    offset: o1,
                },
                Inst::Prefetch {
                    addr: a2,
                    offset: o2,
                },
            ) => o1 == o2 && (a1 == a2 || (allow_addr_rerouting && *a2 == R_SFI_ADDR)),
            (a, b) => a == b,
        };
        if !same {
            return Err(ValidationError::InstructionAltered { new_pc, old_pc });
        }
    }

    for (new_pc, o) in origin.iter().enumerate() {
        if o.is_none() && !is_legal_insertion(&rewritten.insts[new_pc]) {
            return Err(ValidationError::IllegalInsertion { new_pc });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primary::{instrument_primary, PrimaryOptions};
    use crate::scavenger::{instrument_scavenger, ScavengerOptions};
    use crate::sfi::instrument_sfi;
    use reach_profile::{Periods, Profile};
    use reach_sim::{Cond, MachineConfig, ProgramBuilder, Reg};

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

    fn hot_profile() -> Profile {
        let periods = Periods {
            l2_miss: 1,
            l3_miss: 1,
            stall: 1,
            retired: 1,
        };
        let mut p = Profile::new("chase", periods);
        p.retired_samples.insert(0, 1000);
        p.l2_miss_samples.insert(0, 900);
        p.stall_samples.insert(0, 900 * 270);
        p
    }

    #[test]
    fn primary_pass_validates() {
        let p = chase_prog();
        let (q, rep) = instrument_primary(
            &p,
            &hot_profile(),
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        validate_rewrite(&p, &q, &rep.pc_map.origin, false).unwrap();
    }

    #[test]
    fn scavenger_pass_validates() {
        let p = chase_prog();
        let (q, rep) = instrument_scavenger(
            &p,
            None,
            &MachineConfig::default(),
            &ScavengerOptions {
                target_interval: 2,
                use_liveness: true,
            },
        )
        .unwrap();
        validate_rewrite(&p, &q, &rep.pc_map.origin, false).unwrap();
    }

    #[test]
    fn sfi_pass_validates_with_rerouting_allowed() {
        let p = chase_prog();
        let (q, rep) = instrument_sfi(&p).unwrap();
        validate_rewrite(&p, &q, &rep.pc_map.origin, true).unwrap();
        // ...and is rejected without the rerouting allowance.
        assert!(matches!(
            validate_rewrite(&p, &q, &rep.pc_map.origin, false),
            Err(ValidationError::InstructionAltered { .. })
        ));
    }

    #[test]
    fn tampering_is_caught() {
        let p = chase_prog();
        let (mut q, rep) = instrument_primary(
            &p,
            &hot_profile(),
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        // Corrupt a surviving instruction.
        let victim = rep.pc_map.origin.iter().position(|o| o.is_some()).unwrap();
        q.insts[victim] = Inst::Imm {
            dst: Reg(9),
            val: 666,
        };
        assert!(validate_rewrite(&p, &q, &rep.pc_map.origin, false).is_err());
    }

    #[test]
    fn illegal_insertion_is_caught() {
        let p = chase_prog();
        let (mut q, rep) = instrument_primary(
            &p,
            &hot_profile(),
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        let inserted = rep
            .pc_map
            .origin
            .iter()
            .position(|o| o.is_none())
            .expect("pass inserted something");
        q.insts[inserted] = Inst::Imm {
            dst: Reg(9),
            val: 1,
        };
        assert_eq!(
            validate_rewrite(&p, &q, &rep.pc_map.origin, false),
            Err(ValidationError::IllegalInsertion { new_pc: inserted })
        );
    }

    #[test]
    fn bad_relocation_is_caught() {
        let p = chase_prog();
        let (mut q, rep) = instrument_primary(
            &p,
            &hot_profile(),
            &MachineConfig::default(),
            &PrimaryOptions::default(),
        )
        .unwrap();
        // Find the back edge and mis-relocate it.
        let branch_pc = q
            .insts
            .iter()
            .position(|i| {
                matches!(
                    i,
                    Inst::Branch {
                        cond: Cond::Nez,
                        ..
                    }
                )
            })
            .unwrap();
        if let Inst::Branch { target, .. } = &mut q.insts[branch_pc] {
            *target += 1;
        }
        assert!(matches!(
            validate_rewrite(&p, &q, &rep.pc_map.origin, false),
            Err(ValidationError::BadRelocation { .. })
        ));
    }

    #[test]
    fn wrong_map_length_is_caught() {
        let p = chase_prog();
        assert_eq!(
            validate_rewrite(&p, &p, &[], false),
            Err(ValidationError::MapLengthMismatch)
        );
    }
}
