//! VERIFY: translation-validation coverage — proof shape and
//! mutation-kill rate across the standard workload suite.
//!
//! Each cell runs the full PGO pipeline on one workload and then drives
//! the symbolic equivalence checker ([`reach_instrument::verify_rewrite`]) two
//! ways:
//!
//! * **soundness / size** — the shipped binary must *prove out* against
//!   the original under the composed origin map (any refusal here is a
//!   checker false positive and fails the cell), and the proof's size
//!   (block pairs, discharged obligations, interned terms) is recorded;
//! * **sensitivity** — a fixed matrix of seeded rewrite mutants (the
//!   bugs a broken instrumenter or pc-map composition could produce:
//!   dropped save bits, mis-placed insertions, skewed prefetch
//!   operands, corrupted origin entries, mis-relocated branches) is
//!   applied to the shipped binary, and the checker must *kill* (refuse)
//!   every one.
//!
//! Every metric is deterministic, so the committed baseline regenerates
//! byte-identically. The proof's host time is not measured here:
//! `benchmark/run.sh run --workload rebuild-cycle --trace 1` reports it
//! in calibrated time as `instrument.equiv.us`.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::harness::{fresh, pgo_build};
use crate::workloads::{workload_builder, WORKLOAD_NAMES};
use reach_core::PipelineOptions;
use reach_instrument::{verify_rewrite, LintOptions};
use reach_sim::{Inst, MachineConfig, Program, Reg};

/// One seeded rewrite mutant: mutates the shipped binary and/or its
/// origin map in place, returning `false` when the binary has no site
/// the mutant applies to.
type Mutant = fn(&mut Program, &mut [Option<usize>]) -> bool;

/// The first yield carrying a non-empty save mask.
fn first_masked_yield(p: &Program) -> Option<usize> {
    p.insts
        .iter()
        .position(|i| matches!(i, Inst::Yield { save_regs: Some(m), .. } if *m != 0))
}

/// The first *inserted* prefetch (`origin[pc]` is `None`).
fn first_inserted_prefetch(p: &Program, origin: &[Option<usize>]) -> Option<usize> {
    p.insts
        .iter()
        .enumerate()
        .position(|(pc, i)| matches!(i, Inst::Prefetch { .. }) && origin[pc].is_none())
}

/// Drops the lowest set bit from the first save mask — the classic
/// "liveness off by one register" instrumenter bug.
fn drop_save_bit(p: &mut Program, _o: &mut [Option<usize>]) -> bool {
    let Some(pc) = first_masked_yield(p) else {
        return false;
    };
    if let Inst::Yield {
        save_regs: Some(m), ..
    } = &mut p.insts[pc]
    {
        *m &= *m - 1;
    }
    true
}

/// Empties the first save mask entirely ("forgot liveness").
fn clear_save_mask(p: &mut Program, _o: &mut [Option<usize>]) -> bool {
    let Some(pc) = first_masked_yield(p) else {
        return false;
    };
    if let Inst::Yield { save_regs, .. } = &mut p.insts[pc] {
        *save_regs = Some(0);
    }
    true
}

/// Rotates the first insertion run one slot: `[P…, Y, anchor]` becomes
/// `[anchor, P…, Y]` with the origin map unchanged — an off-by-one
/// insertion pc. The prefetch loses its consuming load and the yield
/// slides past the anchor its save mask was computed for.
fn rotate_insertion(p: &mut Program, o: &mut [Option<usize>]) -> bool {
    let Some(ppc) = first_inserted_prefetch(p, o) else {
        return false;
    };
    let Some(anchor) = (ppc..p.len()).find(|&pc| o[pc].is_some()) else {
        return false;
    };
    p.insts[ppc..=anchor].rotate_right(1);
    true
}

/// Skews the first inserted prefetch's offset by a page — it now
/// requests a line nothing loads.
fn skew_prefetch_offset(p: &mut Program, o: &mut [Option<usize>]) -> bool {
    let Some(pc) = first_inserted_prefetch(p, o) else {
        return false;
    };
    if let Inst::Prefetch { offset, .. } = &mut p.insts[pc] {
        *offset += 4096;
    }
    true
}

/// Repoints the first inserted prefetch at a register no load in the
/// binary dereferences — the "swapped operands" bug class. (Bumping to
/// an *adjacent* register is not guaranteed wrong: on multi-chain
/// workloads the next register is another chain's pointer, and
/// prefetching it early is still a consumed, equivalent prefetch.)
fn bump_prefetch_addr(p: &mut Program, o: &mut [Option<usize>]) -> bool {
    let Some(pc) = first_inserted_prefetch(p, o) else {
        return false;
    };
    let mut dereferenced = 0u32;
    for i in &p.insts {
        if let Inst::Load { addr, .. } | Inst::Prefetch { addr, .. } = i {
            dereferenced |= 1 << addr.0;
        }
    }
    let Some(wrong) = (0..32u8).find(|r| dereferenced & (1 << r) == 0) else {
        return false;
    };
    if let Inst::Prefetch { addr, .. } = &mut p.insts[pc] {
        *addr = Reg(wrong);
    }
    true
}

/// Claims an inserted instruction *is* the next survivor — a duplicated
/// origin entry, the pc-map composition bug.
fn duplicate_origin(p: &mut Program, o: &mut [Option<usize>]) -> bool {
    let Some(ins) = (0..p.len()).find(|&pc| o[pc].is_none()) else {
        return false;
    };
    let Some(next) = (ins..p.len()).find_map(|pc| o[pc]) else {
        return false;
    };
    o[ins] = Some(next);
    true
}

/// Mis-relocates the first branch by one slot.
fn retarget_branch(p: &mut Program, _o: &mut [Option<usize>]) -> bool {
    let n = p.len();
    let Some(pc) = p
        .insts
        .iter()
        .position(|i| matches!(i, Inst::Branch { .. }))
    else {
        return false;
    };
    if let Inst::Branch { target, .. } = &mut p.insts[pc] {
        *target = (*target + 1) % n;
    }
    true
}

/// The seeded-mutant matrix, in stable order.
fn mutants() -> Vec<(&'static str, Mutant)> {
    vec![
        ("drop-save-bit", drop_save_bit),
        ("clear-save-mask", clear_save_mask),
        ("rotate-insertion", rotate_insertion),
        ("skew-prefetch-offset", skew_prefetch_offset),
        ("bump-prefetch-addr", bump_prefetch_addr),
        ("duplicate-origin", duplicate_origin),
        ("retarget-branch", retarget_branch),
    ]
}

/// The translation-validation experiment.
pub(super) struct Verify;

impl Experiment for Verify {
    fn name(&self) -> &'static str {
        "verify"
    }

    fn title(&self) -> &'static str {
        "VERIFY: translation validation — proof shape and mutation-kill rate"
    }

    fn notes(&self) -> &'static str {
        "blocks/obligations/terms and the mutant kill counts are \
         deterministic and gated. kill_rate must stay 1.0: every seeded \
         rewrite bug is refused by the checker. Proof host time: \
         benchmark/run.sh run --workload rebuild-cycle --trace 1 \
         (instrument.equiv.us)."
    }

    fn cells(&self) -> Vec<Cell> {
        WORKLOAD_NAMES
            .iter()
            .map(|w| Cell::new(*w, "pipeline"))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let build = workload_builder(&cell.workload).expect("known workload");
        let built = pgo_build(&cfg, &*build, 1, &PipelineOptions::default());
        let (_, w) = fresh(&cfg, &*workload_builder(&cell.workload).unwrap());
        let opts = LintOptions::default();

        // Soundness: the shipped binary proves out.
        let rep = verify_rewrite(&w.prog, &built.prog, &built.origin, &opts);
        assert!(
            rep.ok() && rep.lint.is_clean(),
            "{}: checker false positive on the pipeline's own output:\n{rep}",
            cell
        );

        // Sensitivity: every applicable seeded mutant must be refused.
        let mut total = 0u64;
        let mut killed = 0u64;
        for (mname, mutate) in mutants() {
            let mut p = built.prog.clone();
            let mut o = built.origin.clone();
            if !mutate(&mut p, &mut o) {
                continue;
            }
            total += 1;
            let rep = verify_rewrite(&w.prog, &p, &o, &opts);
            if rep.ok() {
                eprintln!("{}: mutant {mname} SURVIVED the checker", cell);
            } else {
                killed += 1;
            }
        }

        let mut out = CellMetrics::new();
        out.put_u64("verify_ok", 1)
            .put_u64("blocks_checked", rep.blocks_checked as u64)
            .put_u64("save_obligations", rep.save_obligations as u64)
            .put_u64("prefetch_obligations", rep.prefetch_obligations as u64)
            .put_u64("terms", rep.terms as u64)
            .put_u64("mutants_total", total)
            .put_u64("mutants_killed", killed)
            .put_f64("kill_rate", killed as f64 / total as f64);
        out
    }
}
