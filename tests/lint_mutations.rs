//! `reach-lint` end-to-end: clean binaries stay clean, seeded defects
//! fire exactly their lint.
//!
//! The zero-false-positive contract: every pipeline-instrumented binary
//! from the workload suite lints with *no* diagnostics at all. The
//! detection contract: deliberately corrupted binaries (the mutations a
//! buggy instrumenter could produce) each fire exactly the expected
//! stable code.

use reach_bench::{fresh, pgo_build, workload_builder, WORKLOAD_NAMES};
use reach_core::PipelineOptions;
use reach_instrument::{
    instrument_sfi, lint_program, verify_rewrite, Cfg, Level, LintOptions, Liveness, R_SFI_ADDR,
};
use reach_sim::{Inst, MachineConfig, Program, Reg};

fn instrumented(name: &str) -> (Program, Vec<Option<usize>>) {
    let cfg = MachineConfig::default();
    let build = workload_builder(name).unwrap();
    let built = pgo_build(&cfg, &*build, 1, &PipelineOptions::default());
    (built.prog, built.origin)
}

#[test]
fn every_clean_workload_binary_lints_with_zero_diagnostics() {
    for name in WORKLOAD_NAMES {
        let (prog, origin) = instrumented(name);
        let report = lint_program(&prog, Some(&origin), &LintOptions::default());
        assert!(
            report.is_clean(),
            "false positive(s) on clean {name} binary:\n{report}"
        );
        // The uninstrumented original is clean too.
        let mcfg = MachineConfig::default();
        let (_, w) = fresh(&mcfg, &*workload_builder(name).unwrap());
        let orig_report = lint_program(&w.prog, None, &LintOptions::default());
        assert!(
            orig_report.is_clean(),
            "false positive(s) on original {name} binary:\n{orig_report}"
        );
    }
}

#[test]
fn clobbered_live_register_at_yield_fires_exactly_rl0001() {
    let (mut prog, origin) = instrumented("chase");
    // Find a yield whose save mask actually covers live registers, then
    // corrupt it to save nothing — the classic "instrumenter forgot
    // liveness" bug.
    let liveness = Liveness::compute(&prog, &Cfg::build(&prog));
    let victim = prog
        .insts
        .iter()
        .enumerate()
        .find_map(|(pc, i)| match i {
            Inst::Yield {
                save_regs: Some(m), ..
            } if liveness.live_before(pc) & m != 0 => Some(pc),
            _ => None,
        })
        .expect("pipeline inserted a live-saving yield");
    if let Inst::Yield { save_regs, .. } = &mut prog.insts[victim] {
        *save_regs = Some(0);
    }
    let report = lint_program(&prog, Some(&origin), &LintOptions::default());
    assert_eq!(
        report.fired_codes(),
        vec!["RL0001"],
        "unexpected findings:\n{report}"
    );
    assert!(report.has_deny());
    assert!(report.diagnostics.iter().any(|d| d.pc == Some(victim)));
}

#[test]
fn unmasked_store_in_sfi_binary_fires_exactly_rl0005() {
    // SFI-sandbox a store-bearing binary (the workload suite is
    // read-only, so build a writer), then undo one store's rerouting so
    // it accesses its raw (unmasked) address register again.
    let mut b = reach_sim::ProgramBuilder::new("writer");
    let top = b.label();
    b.imm(Reg(1), 8);
    b.imm(Reg(2), 32);
    // 4 iterations: r2 counts down by r1 = 8.
    b.bind(top);
    b.load(Reg(3), Reg(0), 0);
    b.store(Reg(3), Reg(0), 8);
    b.alu(reach_sim::AluOp::Add, Reg(0), Reg(0), Reg(1), 1);
    b.alu(reach_sim::AluOp::Sub, Reg(2), Reg(2), Reg(1), 1);
    b.branch(reach_sim::Cond::Nez, Reg(2), top);
    b.halt();
    let w_prog = b.finish().unwrap();
    let (mut prog, rep) = instrument_sfi(&w_prog).unwrap();
    let opts = LintOptions {
        sfi: true,
        ..Default::default()
    };
    // Sanity: the sandboxed binary passes the escape analysis.
    let clean = lint_program(&prog, Some(&rep.pc_map.origin), &opts);
    assert!(
        clean.is_clean(),
        "sandboxed binary should be clean:\n{clean}"
    );

    let victim = prog
        .insts
        .iter()
        .position(|i| matches!(i, Inst::Store { addr, .. } if *addr == R_SFI_ADDR))
        .expect("workload has a guarded store");
    if let Inst::Store { addr, .. } = &mut prog.insts[victim] {
        *addr = Reg(0); // raw pointer, never proven masked
    }
    let report = lint_program(&prog, Some(&rep.pc_map.origin), &opts);
    assert_eq!(
        report.fired_codes(),
        vec!["RL0005"],
        "unexpected findings:\n{report}"
    );
    assert!(report.has_deny());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.pc == Some(victim) && d.level == Level::Deny));
}

#[test]
fn orphan_prefetch_fires_exactly_rl0002() {
    let (mut prog, origin) = instrumented("chase");
    // Skew an inserted prefetch's offset so no load ever consumes the
    // line it requests.
    let victim = prog
        .insts
        .iter()
        .position(|i| matches!(i, Inst::Prefetch { .. }))
        .expect("pipeline inserted a prefetch");
    if let Inst::Prefetch { offset, .. } = &mut prog.insts[victim] {
        *offset += 4096;
    }
    let report = lint_program(&prog, Some(&origin), &LintOptions::default());
    assert_eq!(
        report.fired_codes(),
        vec!["RL0002"],
        "unexpected findings:\n{report}"
    );
    assert!(!report.has_deny(), "RL0002 is warn-level by default");
    assert!(report.diagnostics.iter().any(|d| d.pc == Some(victim)));
}

// ---------------------------------------------------------------------
// Translation validation: the symbolic checker's zero-false-positive
// contract on clean binaries, and its seeded-mutant kill matrix — the
// same bug classes as the lint tests above, but caught by *proof*
// rather than pattern, plus the map-corruption bugs only a checker that
// consumes the PcMap can see.
// ---------------------------------------------------------------------

fn original(name: &str) -> Program {
    let mcfg = MachineConfig::default();
    let (_, w) = fresh(&mcfg, &*workload_builder(name).unwrap());
    w.prog
}

#[test]
fn every_clean_workload_binary_verifies_equivalent() {
    for name in WORKLOAD_NAMES {
        let (prog, origin) = instrumented(name);
        let report = verify_rewrite(&original(name), &prog, &origin, &LintOptions::default());
        assert!(
            report.ok() && report.lint.is_clean(),
            "checker false positive on clean {name} binary:\n{report}"
        );
        assert!(report.blocks_checked > 0, "{name}: vacuous proof");
    }
}

#[test]
fn validator_kills_dropped_save_bit_with_rl0009() {
    let (mut prog, origin) = instrumented("chase");
    let victim = prog
        .insts
        .iter()
        .position(|i| matches!(i, Inst::Yield { save_regs: Some(m), .. } if *m != 0))
        .expect("pipeline inserted a masked yield");
    if let Inst::Yield {
        save_regs: Some(m), ..
    } = &mut prog.insts[victim]
    {
        *m &= *m - 1; // drop the lowest saved register
    }
    let report = verify_rewrite(&original("chase"), &prog, &origin, &LintOptions::default());
    assert!(!report.ok(), "dropped save bit survived:\n{report}");
    assert_eq!(
        report.lint.fired_codes(),
        vec!["RL0009"],
        "unexpected findings:\n{report}"
    );
}

#[test]
fn validator_kills_off_by_one_insertion_pc() {
    // Rotate the first insertion run one slot without touching the
    // origin map — the inserted prefetch/yield now sit *after* the
    // anchor they were computed for. Instruction-pattern lints do not
    // model placement; the checker refuses it.
    let (mut prog, origin) = instrumented("chase");
    let ins = (0..prog.len())
        .find(|&pc| origin[pc].is_none() && matches!(prog.insts[pc], Inst::Prefetch { .. }))
        .expect("pipeline inserted a prefetch");
    let anchor = (ins..prog.len())
        .find(|&pc| origin[pc].is_some())
        .expect("insertions precede a surviving anchor");
    prog.insts[ins..=anchor].rotate_right(1);
    let report = verify_rewrite(&original("chase"), &prog, &origin, &LintOptions::default());
    assert!(!report.ok(), "off-by-one insertion pc survived:\n{report}");
}

#[test]
fn validator_kills_swapped_prefetch_operand_with_rl0008() {
    // Repoint an inserted prefetch at a register no load dereferences:
    // its address term can no longer match any consuming load.
    let (mut prog, origin) = instrumented("chase");
    let victim = (0..prog.len())
        .find(|&pc| origin[pc].is_none() && matches!(prog.insts[pc], Inst::Prefetch { .. }))
        .expect("pipeline inserted a prefetch");
    let mut dereferenced = 0u32;
    for i in &prog.insts {
        if let Inst::Load { addr, .. } | Inst::Prefetch { addr, .. } = i {
            dereferenced |= 1 << addr.0;
        }
    }
    let wrong = (0..32u8)
        .find(|r| dereferenced & (1 << r) == 0)
        .expect("a non-dereferenced register exists");
    if let Inst::Prefetch { addr, .. } = &mut prog.insts[victim] {
        *addr = Reg(wrong);
    }
    let report = verify_rewrite(&original("chase"), &prog, &origin, &LintOptions::default());
    assert!(!report.ok(), "swapped prefetch operand survived:\n{report}");
    assert!(
        report.lint.fired_codes().contains(&"RL0008"),
        "refusal did not cite RL0008:\n{report}"
    );
}

#[test]
fn validator_kills_corrupted_pcmap_entry_with_rl0010() {
    // Claim an inserted instruction *is* the next survivor — the
    // duplicated-origin bug a broken pc-map composition produces.
    let (prog, mut origin) = instrumented("chase");
    let ins = (0..prog.len())
        .find(|&pc| origin[pc].is_none())
        .expect("pipeline inserted something");
    let next = (ins..prog.len())
        .find_map(|pc| origin[pc])
        .expect("a survivor follows the insertion");
    origin[ins] = Some(next);
    let report = verify_rewrite(&original("chase"), &prog, &origin, &LintOptions::default());
    assert!(!report.ok(), "corrupted pc-map entry survived:\n{report}");
    assert!(
        report.lint.fired_codes().contains(&"RL0010"),
        "refusal did not cite RL0010:\n{report}"
    );
}

#[test]
fn validator_kills_retargeted_branch_with_rl0008() {
    let (mut prog, origin) = instrumented("chase");
    let n = prog.len();
    let victim = prog
        .insts
        .iter()
        .position(|i| matches!(i, Inst::Branch { .. }))
        .expect("workload has a branch");
    if let Inst::Branch { target, .. } = &mut prog.insts[victim] {
        *target = (*target + 1) % n;
    }
    let report = verify_rewrite(&original("chase"), &prog, &origin, &LintOptions::default());
    assert!(!report.ok(), "retargeted branch survived:\n{report}");
    assert!(
        report.lint.fired_codes().contains(&"RL0008"),
        "refusal did not cite RL0008:\n{report}"
    );
}
