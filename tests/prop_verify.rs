//! Property tests: the translation validator has **zero false
//! positives** on everything the pipeline actually ships.
//!
//! The checker's contract has two sides. Sensitivity (seeded bugs are
//! refused) is covered by `lint_mutations.rs` and the `verify`
//! experiment; this file covers soundness-for-shipping on *arbitrary*
//! programs: for randomly generated, terminating micro-IR, every
//! rewrite the pipeline can produce — primary instrumentation (with and
//! without liveness/coalescing), the scavenger pass, conditional-yield
//! elision, and the composed primary∘scavenger map — must *prove out*
//! cleanly. A refusal on any of these is a checker bug, not a pipeline
//! bug: `prop_semantics.rs` separately establishes the rewrites really
//! are semantics-preserving.
//!
//! One sensitivity property rides along because it holds universally,
//! not just on the curated workloads: dropping any save bit from any
//! pipeline-computed yield mask is always refused (RL0009), since
//! liveness-derived masks contain exactly the registers some path still
//! reads.

mod common;

use common::{gen_program, profile_of, GenProgram};
use proptest::prelude::*;
use reach_instrument::{
    elide_yields, instrument_primary, instrument_scavenger, smooth_profile, verify_rewrite,
    verify_rewrite_map, ElideMode, LintOptions, PcMap, Policy, PrimaryOptions, ScavengerOptions,
};
use reach_sim::{Inst, MachineConfig, Program};

/// Primary + scavenger with the most aggressive settings, returning
/// every intermediate needed to verify each stage independently.
fn build_stages(
    g: &GenProgram,
    use_liveness: bool,
    coalesce: bool,
) -> (Program, PcMap, Program, PcMap) {
    let profile = smooth_profile(&profile_of(g), &g.prog);
    let mcfg = MachineConfig::default();
    let (p1, rep1) = instrument_primary(
        &g.prog,
        &profile,
        &mcfg,
        &PrimaryOptions {
            policy: Policy::All,
            use_liveness,
            coalesce,
        },
    )
    .expect("primary pass");
    let (p2, rep2) = instrument_scavenger(
        &p1,
        Some((&profile, &rep1.pc_map.origin)),
        &mcfg,
        &ScavengerOptions {
            target_interval: 40,
            use_liveness,
        },
    )
    .expect("scavenger pass");
    (p1, rep1.pc_map, p2, rep2.pc_map)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_pipeline_stage_proves_out_on_random_programs(g in gen_program()) {
        let opts = LintOptions::default();
        for (live, coal) in [(true, true), (true, false), (false, true)] {
            let (p1, m1, p2, m2) = build_stages(&g, live, coal);
            let v1 = verify_rewrite_map(&g.prog, &p1, &m1, &opts);
            prop_assert!(v1.ok(), "false positive on primary (live={live}, coal={coal}):\n{v1}");
            let v2 = verify_rewrite_map(&p1, &p2, &m2, &opts);
            prop_assert!(v2.ok(), "false positive on scavenger (live={live}):\n{v2}");
            let composed = m1.then(&m2);
            let vc = verify_rewrite(&g.prog, &p2, &composed.origin, &opts);
            prop_assert!(vc.ok(), "false positive on composed map (live={live}, coal={coal}):\n{vc}");
        }
    }

    #[test]
    fn yield_elision_proves_out_on_random_programs(g in gen_program()) {
        let opts = LintOptions::default();
        let (_, m1, p2, m2) = build_stages(&g, true, true);
        let composed = m1.then(&m2);
        // Elide every yield — the algebra must see through the
        // substituted `or x,x,x` no-ops on the composed map.
        let (e, _rep) = elide_yields(&p2, ElideMode::All, 1.0, 7, 1);
        let v = verify_rewrite_map(&g.prog, &e, &composed, &opts);
        prop_assert!(v.ok(), "false positive on elided binary:\n{v}");
    }

    #[test]
    fn dropping_any_save_bit_is_always_refused(g in gen_program()) {
        let opts = LintOptions::default();
        let (_, m1, p2, m2) = build_stages(&g, true, true);
        let composed = m1.then(&m2);
        for pc in 0..p2.len() {
            let Inst::Yield { save_regs: Some(m), .. } = p2.insts[pc] else {
                continue;
            };
            if m == 0 {
                continue;
            }
            // Drop each set bit in turn: each drop leaves a register
            // some path still reads unsaved, so RL0009 must fire.
            let mut bits = m;
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits &= bits - 1;
                let mut mutant = p2.clone();
                if let Inst::Yield { save_regs, .. } = &mut mutant.insts[pc] {
                    *save_regs = Some(m & !bit);
                }
                let v = verify_rewrite_map(&g.prog, &mutant, &composed, &opts);
                prop_assert!(
                    !v.ok(),
                    "dropped save bit {bit:#x} at pc {pc} survived the checker"
                );
                prop_assert!(
                    v.lint.fired_codes().contains(&"RL0009"),
                    "refusal at pc {pc} did not cite RL0009:\n{v}"
                );
            }
        }
    }
}
