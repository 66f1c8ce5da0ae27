//! The end-to-end PGO pipeline (§3.2's three logical steps):
//!
//! 1. run the original coroutine code "in production" under sample-based
//!    profiling ([`reach_profile::collect`]);
//! 2. instrument the binary — primary `prefetch+yield` insertion guided by
//!    the profile, then the scavenger pass bounding inter-yield intervals;
//! 3. hand the finalized binary to an executor
//!    ([`crate::executor`] / [`crate::dualmode`]) to interleave at run
//!    time.
//!
//! The pipeline also composes the PC maps across both rewriting passes so
//! the final binary's instructions can always be traced back to the
//! profiled image.

use reach_instrument::{
    instrument_primary, instrument_scavenger, lint_program, smooth_profile, validate_rewrite,
    verify_rewrite, verify_rewrite_map, LintOptions, LintReport, PcMap, PrimaryOptions,
    PrimaryReport, RewriteError, ScavReport, ScavengerOptions, ValidationError, VerifyReport,
};
use reach_profile::{
    collect, validate_profile, CollectionCost, CollectorConfig, Profile, ProfileInvalid,
    ProfileValidationOptions,
};
use reach_sim::{Context, ExecError, Machine, MachineConfig, Program};

/// Options for the full pipeline.
#[derive(Clone, Debug)]
pub struct PipelineOptions {
    /// Profiling-run configuration.
    pub collector: CollectorConfig,
    /// Primary-pass options.
    pub primary: PrimaryOptions,
    /// Scavenger-pass options; `None` skips the pass (primary-only
    /// instrumentation, as in §3.2 alone).
    pub scavenger: Option<ScavengerOptions>,
    /// `reach-lint` configuration for the final-binary gate. Deny-level
    /// findings abort the pipeline ([`PipelineError::Lint`]); warnings
    /// ride along in [`InstrumentedBinary::lint_report`].
    pub lint: LintOptions,
    /// Profile admission control: provenance (binary fingerprint) and
    /// sample-coverage checks on the smoothed profile before it steers
    /// instrumentation. `None` (the default) skips the check — opt in
    /// when profiles cross a trust boundary (serialized, cached, or
    /// collected by another process). The degradation ladder
    /// ([`crate::pgo_pipeline_degrading`]) turns these refusals into re-profiles and
    /// rung descents instead of hard failures.
    pub validation: Option<ProfileValidationOptions>,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            collector: CollectorConfig::default(),
            primary: PrimaryOptions::default(),
            scavenger: Some(ScavengerOptions::default()),
            lint: LintOptions::default(),
            validation: None,
        }
    }
}

/// Pipeline errors.
#[derive(Debug)]
pub enum PipelineError {
    /// The profiling run failed.
    Exec(ExecError),
    /// A rewriting pass failed.
    Rewrite(RewriteError),
    /// A rewriting pass produced a binary that failed translation
    /// validation (an instrumenter bug, caught before it ships).
    Validation(ValidationError),
    /// The final binary failed a deny-level `reach-lint` check — the
    /// defense-in-depth gate next to translation validation. The report
    /// carries every finding.
    Lint(LintReport),
    /// The symbolic equivalence checker could not prove a rewrite
    /// observationally equivalent to its input (RL0008–RL0010). The
    /// report carries the proof obligations that failed.
    Verify(Box<VerifyReport>),
    /// The profile failed admission control (wrong provenance or too
    /// little coverage to steer instrumentation safely).
    Profile(ProfileInvalid),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Exec(e) => write!(f, "profiling run failed: {e}"),
            PipelineError::Rewrite(e) => write!(f, "rewriting failed: {e}"),
            PipelineError::Validation(e) => write!(f, "translation validation failed: {e}"),
            PipelineError::Lint(report) => {
                write!(
                    f,
                    "reach-lint refused the binary ({} deny-level finding(s)):\n{report}",
                    report.deny_count()
                )
            }
            PipelineError::Verify(report) => {
                write!(
                    f,
                    "equivalence verification refused the rewrite ({} deny-level finding(s)):\n{report}",
                    report.lint.deny_count()
                )
            }
            PipelineError::Profile(e) => write!(f, "profile rejected: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ExecError> for PipelineError {
    fn from(e: ExecError) -> Self {
        PipelineError::Exec(e)
    }
}

impl From<RewriteError> for PipelineError {
    fn from(e: RewriteError) -> Self {
        PipelineError::Rewrite(e)
    }
}

impl From<ValidationError> for PipelineError {
    fn from(e: ValidationError) -> Self {
        PipelineError::Validation(e)
    }
}

impl From<ProfileInvalid> for PipelineError {
    fn from(e: ProfileInvalid) -> Self {
        PipelineError::Profile(e)
    }
}

/// The finalized, instrumented binary plus everything learned on the way.
#[derive(Clone, Debug)]
pub struct InstrumentedBinary {
    /// The final program (primary + scavenger instrumentation applied).
    pub prog: Program,
    /// `origin[pc]` = PC in the *original* program, `None` for inserted
    /// instructions.
    pub origin: Vec<Option<usize>>,
    /// The collected profile.
    pub profile: Profile,
    /// What profiling cost.
    pub collection_cost: CollectionCost,
    /// Primary-pass report.
    pub primary_report: PrimaryReport,
    /// Scavenger-pass report (when the pass ran).
    pub scavenger_report: Option<ScavReport>,
    /// `reach-lint` findings on the final binary (warn-level only — a
    /// deny-level finding aborts the pipeline instead).
    pub lint_report: LintReport,
}

/// The `reach-lint` shipping gate: lints `prog` and refuses it
/// ([`PipelineError::Lint`]) if any deny-level finding fires. Returns
/// the (warn-only) report otherwise.
pub(crate) fn lint_gate(
    prog: &Program,
    origin: &[Option<usize>],
    opts: &LintOptions,
) -> Result<LintReport, PipelineError> {
    let report = lint_program(prog, Some(origin), opts);
    if report.has_deny() {
        Err(PipelineError::Lint(report))
    } else {
        Ok(report)
    }
}

/// The translation-validation shipping gate: proves `rewritten`
/// observationally equivalent to `original` (modulo inserted
/// yields/prefetches) under the rewrite's origin map, refusing
/// ([`PipelineError::Verify`]) when any obligation cannot be
/// discharged. Returns the (clean) proof report otherwise.
pub(crate) fn verify_gate(
    original: &Program,
    rewritten: &Program,
    origin: &[Option<usize>],
    opts: &LintOptions,
) -> Result<VerifyReport, PipelineError> {
    let report = verify_rewrite(original, rewritten, origin, opts);
    if report.ok() {
        Ok(report)
    } else {
        Err(PipelineError::Verify(Box::new(report)))
    }
}

/// [`verify_gate`] over a full [`PcMap`] (adds the `new_of`↔`origin`
/// consistency obligation, RL0010).
fn verify_map_gate(
    original: &Program,
    rewritten: &Program,
    map: &PcMap,
    opts: &LintOptions,
) -> Result<VerifyReport, PipelineError> {
    let report = verify_rewrite_map(original, rewritten, map, opts);
    if report.ok() {
        Ok(report)
    } else {
        Err(PipelineError::Verify(Box::new(report)))
    }
}

/// Runs the full pipeline: profile `prog` by executing
/// `profiling_contexts` on `machine`, then instrument.
///
/// The machine is left warm (caches and counters reflect the profiling
/// run); evaluation runs should use a fresh machine with the same memory
/// layout, exactly as production deploys the instrumented binary on fresh
/// processes.
pub fn pgo_pipeline(
    machine: &mut Machine,
    prog: &Program,
    profiling_contexts: &mut [Context],
    opts: &PipelineOptions,
) -> Result<InstrumentedBinary, PipelineError> {
    // Step (i): profile the original code.
    let (raw_profile, collection_cost) =
        collect(machine, prog, profiling_contexts, &opts.collector)?;
    // Block-smooth execution estimates so per-PC likelihoods are usable
    // even for short loops (AutoFDO-style aggregation).
    let profile = smooth_profile(&raw_profile, prog);

    // Admission control: refuse a profile with the wrong provenance or
    // too little coverage before it steers any rewriting.
    if let Some(v) = &opts.validation {
        validate_profile(&profile, prog, v)?;
    }

    let mcfg = machine.cfg.clone();
    let (final_prog, origin, primary_report, scavenger_report, lint_report) =
        instrument_with_profile(prog, &profile, &mcfg, opts)?;

    Ok(InstrumentedBinary {
        prog: final_prog,
        origin,
        profile,
        collection_cost,
        primary_report,
        scavenger_report,
        lint_report,
    })
}

/// Step (ii) in isolation: instrument `prog` under an already-collected,
/// already-smoothed (and, if configured, already-validated) `profile`.
/// Shared by [`pgo_pipeline`] and the degradation ladder
/// ([`crate::degrade`]), which re-enters here after re-profiling.
#[allow(clippy::type_complexity)]
pub(crate) fn instrument_with_profile(
    prog: &Program,
    profile: &Profile,
    mcfg: &MachineConfig,
    opts: &PipelineOptions,
) -> Result<
    (
        Program,
        Vec<Option<usize>>,
        PrimaryReport,
        Option<ScavReport>,
        LintReport,
    ),
    PipelineError,
> {
    // Step (ii a): primary instrumentation, translation-validated
    // syntactically and proven equivalent.
    let (primary_prog, primary_report) = instrument_primary(prog, profile, mcfg, &opts.primary)?;
    validate_rewrite(prog, &primary_prog, &primary_report.pc_map.origin, false)?;
    verify_map_gate(prog, &primary_prog, &primary_report.pc_map, &opts.lint)?;

    // Step (ii b): scavenger instrumentation, carrying profile PCs across
    // the first rewrite via the origin map.
    let (final_prog, origin, scavenger_report) = match &opts.scavenger {
        Some(sopts) => {
            let origin1 = primary_report.pc_map.origin.clone();
            let (scav_prog, scav_report) =
                instrument_scavenger(&primary_prog, Some((profile, &origin1)), mcfg, sopts)?;
            validate_rewrite(&primary_prog, &scav_prog, &scav_report.pc_map.origin, false)?;
            // Each pass proves out on its own, and the composed
            // end-to-end map must tell a consistent story too.
            verify_map_gate(&primary_prog, &scav_prog, &scav_report.pc_map, &opts.lint)?;
            let composed_map = primary_report.pc_map.then(&scav_report.pc_map);
            verify_map_gate(prog, &scav_prog, &composed_map, &opts.lint)?;
            let composed: Vec<Option<usize>> = scav_report
                .pc_map
                .origin
                .iter()
                .map(|&o| o.and_then(|p| origin1[p]))
                .collect();
            (scav_prog, composed, Some(scav_report))
        }
        None => (primary_prog, primary_report.pc_map.origin.clone(), None),
    };

    // Step (ii c): static verification of the shipped binary —
    // defense-in-depth next to the per-pass translation validation.
    let lint_report = lint_gate(&final_prog, &origin, &opts.lint)?;

    Ok((
        final_prog,
        origin,
        primary_report,
        scavenger_report,
        lint_report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{run_interleaved, InterleaveOptions};
    use reach_sim::{Inst, MachineConfig, YieldKind};
    use reach_workloads::{build_chase, AddrAlloc, ChaseParams};

    fn chase_params() -> ChaseParams {
        ChaseParams {
            nodes: 1024,
            hops: 1024,
            node_stride: 4096,
            work_per_hop: 20,
            work_insts: 1,
            seed: 3,
        }
    }

    #[test]
    fn pipeline_produces_instrumented_binary_with_both_yield_kinds() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        // Extra instance for profiling so evaluation instances stay
        // untouched.
        let w = build_chase(&mut m.mem, &mut alloc, chase_params(), 2);
        let mut prof_ctx = vec![w.instances[1].make_context(99)];
        let built =
            pgo_pipeline(&mut m, &w.prog, &mut prof_ctx, &PipelineOptions::default()).unwrap();

        assert!(built.primary_report.sites_selected() >= 1);
        let kinds: Vec<YieldKind> = built
            .prog
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::Yield { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&YieldKind::Primary));
        // The chase body is short; with the ALU work=20 the loop stays
        // under 300 cycles once the miss is hidden, so scavenger yields
        // may or may not be needed — but the report must exist and the
        // final static interval must be bounded.
        let scav = built.scavenger_report.as_ref().unwrap();
        assert!(scav.max_interval_after.is_some());
        // Origins point back into the original program.
        assert_eq!(built.origin.len(), built.prog.len());
        let max_origin = built.origin.iter().flatten().max().unwrap();
        assert!(*max_origin < w.prog.len());
        // The shipped binary linted clean (deny would have aborted; the
        // pipeline's own output must not even warn).
        assert!(
            built.lint_report.is_clean(),
            "pipeline output should lint clean:\n{}",
            built.lint_report
        );
    }

    #[test]
    fn lint_gate_refuses_deny_level_binaries() {
        use reach_instrument::{Level, Lint};
        use reach_sim::{ProgramBuilder, Reg};

        // A binary whose yield saves nothing while r2/r3 are live: the
        // RL0001 deny must turn into a pipeline refusal.
        let mut b = ProgramBuilder::new("bad");
        b.imm(Reg(2), 7);
        b.push(Inst::Yield {
            kind: YieldKind::Manual,
            save_regs: Some(0),
        });
        b.store(Reg(2), Reg(3), 0);
        b.halt();
        let bad = b.finish().unwrap();
        let origin: Vec<Option<usize>> = (0..bad.len()).map(Some).collect();
        let err = lint_gate(&bad, &origin, &LintOptions::default()).unwrap_err();
        match &err {
            PipelineError::Lint(report) => {
                assert!(report.has_deny());
                assert_eq!(report.fired_codes(), vec!["RL0001"]);
            }
            other => panic!("expected lint refusal, got {other}"),
        }
        assert!(err.to_string().contains("RL0001"));

        // Demoting the lint to warn lets the same binary through, with
        // the finding preserved in the report.
        let relaxed = LintOptions {
            sfi: false,
            levels: vec![(Lint::ClobberedLiveAtYield, Level::Warn)],
        };
        let report = lint_gate(&bad, &origin, &relaxed).unwrap();
        assert_eq!(report.warn_count(), 1);
    }

    #[test]
    fn validation_accepts_own_profile_and_refuses_forged_provenance() {
        use reach_profile::ProfileInvalid;

        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build_chase(&mut m.mem, &mut alloc, chase_params(), 2);

        // Validation on: the pipeline's own freshly collected profile
        // passes admission control.
        let opts = PipelineOptions {
            validation: Some(reach_profile::ProfileValidationOptions::default()),
            ..PipelineOptions::default()
        };
        let mut prof_ctx = vec![w.instances[1].make_context(99)];
        let built = pgo_pipeline(&mut m, &w.prog, &mut prof_ctx, &opts).unwrap();
        assert_eq!(built.profile.fingerprint, w.prog.fingerprint());

        // A profile collected against a *different* binary is refused
        // before it can steer instrumentation.
        let other = {
            let mut b = reach_sim::ProgramBuilder::new("other");
            b.halt();
            b.finish().unwrap()
        };
        let verdict =
            reach_profile::validate_profile(&built.profile, &other, &opts.validation.unwrap());
        assert!(matches!(
            verdict,
            Err(ProfileInvalid::FingerprintMismatch { .. })
        ));

        // And an impossible coverage bar makes the pipeline itself refuse
        // with a typed error rather than instrumenting blind.
        let strict = PipelineOptions {
            validation: Some(reach_profile::ProfileValidationOptions {
                min_load_coverage: 2.0,
            }),
            ..PipelineOptions::default()
        };
        let mut m2 = Machine::new(MachineConfig::default());
        let mut alloc2 = AddrAlloc::new(0x10_0000);
        let w2 = build_chase(&mut m2.mem, &mut alloc2, chase_params(), 2);
        let mut prof_ctx2 = vec![w2.instances[1].make_context(99)];
        let err = pgo_pipeline(&mut m2, &w2.prog, &mut prof_ctx2, &strict).unwrap_err();
        assert!(matches!(
            err,
            PipelineError::Profile(ProfileInvalid::LowLoadCoverage { .. })
        ));
    }

    #[test]
    fn instrumented_binary_preserves_checksums_under_interleaving() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build_chase(&mut m.mem, &mut alloc, chase_params(), 5);
        let mut prof_ctx = vec![w.instances[4].make_context(99)];
        let built =
            pgo_pipeline(&mut m, &w.prog, &mut prof_ctx, &PipelineOptions::default()).unwrap();

        // Fresh machine, same memory: rebuild deterministically.
        let mut m2 = Machine::new(MachineConfig::default());
        let mut alloc2 = AddrAlloc::new(0x10_0000);
        let w2 = build_chase(&mut m2.mem, &mut alloc2, chase_params(), 5);
        let mut ctxs: Vec<_> = (0..4).map(|i| w2.instances[i].make_context(i)).collect();
        let opts = InterleaveOptions {
            poison_unsaved: true, // prove the liveness save sets are sound
            ..InterleaveOptions::default()
        };
        let rep = run_interleaved(&mut m2, &built.prog, &mut ctxs, &opts).unwrap();
        assert_eq!(rep.completed, 4);
        for (i, c) in ctxs.iter().enumerate() {
            w2.instances[i].assert_checksum(c);
        }
    }

    #[test]
    fn instrumentation_improves_cpu_efficiency_on_chase() {
        // Baseline: 4 instances run back to back, uninstrumented.
        let mut mb = Machine::new(MachineConfig::default());
        let mut ab = AddrAlloc::new(0x10_0000);
        let wb = build_chase(&mut mb.mem, &mut ab, chase_params(), 4);
        for i in 0..4 {
            wb.run_solo(&mut mb, i, 10_000_000);
        }
        let base_eff = mb.counters.cpu_efficiency();

        // Pipeline + interleaved execution of the same work.
        let mut mp = Machine::new(MachineConfig::default());
        let mut ap = AddrAlloc::new(0x10_0000);
        let wp = build_chase(&mut mp.mem, &mut ap, chase_params(), 5);
        let mut prof_ctx = vec![wp.instances[4].make_context(99)];
        let built = pgo_pipeline(
            &mut mp,
            &wp.prog,
            &mut prof_ctx,
            &PipelineOptions::default(),
        )
        .unwrap();

        let mut m2 = Machine::new(MachineConfig::default());
        let mut a2 = AddrAlloc::new(0x10_0000);
        let w2 = build_chase(&mut m2.mem, &mut a2, chase_params(), 5);
        let mut ctxs: Vec<_> = (0..4).map(|i| w2.instances[i].make_context(i)).collect();
        run_interleaved(
            &mut m2,
            &built.prog,
            &mut ctxs,
            &InterleaveOptions::default(),
        )
        .unwrap();
        let inst_eff = m2.counters.cpu_efficiency();

        assert!(
            inst_eff > base_eff * 2.0,
            "hiding should at least double efficiency on a DRAM-bound \
             chase: {inst_eff:.3} vs {base_eff:.3}"
        );
    }
}
