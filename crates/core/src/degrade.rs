//! The graceful-degradation ladder: an infallible front end to the PGO
//! pipeline.
//!
//! The §3.2 pipeline is built from fallible stages — the profiling run
//! can fault, the profile can be stale or under-sampled, the rewriters
//! can refuse a binary. Production deployment cannot afford "no binary":
//! something must always ship. [`pgo_pipeline_degrading`] therefore walks
//! a ladder of rungs, each strictly less dependent on the failed
//! machinery than the one above:
//!
//! 1. [`Rung::FullPgo`] — profile (with bounded re-profile retries on
//!    failure or rejection), validate, instrument both passes.
//! 2. [`Rung::ScavengerOnly`] — skip the profile entirely; the scavenger
//!    pass's static worst-case interval bound needs no samples, so
//!    cooperative yielding (and thus bounded primary latency when the
//!    binary is used as a filler) is preserved even with zero profile
//!    signal. No prefetch+yield hiding, though.
//! 3. [`Rung::Uninstrumented`] — ship the original binary unchanged.
//!    Always succeeds; performance degrades, correctness never.
//!
//! Every descent is recorded as a [`DegradeReason`], so a deployment that
//! lands on a lower rung is *diagnosable*, not silent.

use crate::pipeline::{
    instrument_with_profile, lint_gate, verify_gate, PipelineError, PipelineOptions,
};
use reach_instrument::{instrument_scavenger, smooth_profile, validate_rewrite, LintReport};
use reach_profile::{collect, validate_profile, Profile, ProfileInvalid};
use reach_sim::{Context, ExecError, Machine, MachineConfig, Program};

/// Which rung of the ladder the build landed on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Full profile-guided instrumentation (primary + scavenger passes).
    FullPgo,
    /// Static scavenger instrumentation only; no profile was trusted.
    ScavengerOnly,
    /// The original binary, unchanged.
    Uninstrumented,
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rung::FullPgo => write!(f, "full-pgo"),
            Rung::ScavengerOnly => write!(f, "scavenger-only"),
            Rung::Uninstrumented => write!(f, "uninstrumented"),
        }
    }
}

/// Why the ladder moved down (or retried) — one entry per event, in
/// order.
#[derive(Debug)]
pub enum DegradeReason {
    /// A profiling run failed with an execution error.
    ProfilingFailed(ExecError),
    /// A collected profile failed admission control.
    ProfileRejected(ProfileInvalid),
    /// All `1 + max_reprofiles` profiling attempts were consumed without
    /// an admissible profile.
    ReprofileExhausted {
        /// Total profiling attempts made.
        attempts: u32,
    },
    /// The full pipeline refused the build for a non-profile reason
    /// (rewrite, translation validation, or lint); re-profiling cannot
    /// fix these, so the ladder descends immediately.
    PipelineRefused(PipelineError),
    /// The scavenger-only rung itself failed; only the uninstrumented
    /// rung remains.
    ScavengerOnlyFailed(PipelineError),
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeReason::ProfilingFailed(e) => write!(f, "profiling run failed: {e}"),
            DegradeReason::ProfileRejected(e) => write!(f, "profile rejected: {e}"),
            DegradeReason::ReprofileExhausted { attempts } => {
                write!(f, "no admissible profile after {attempts} attempt(s)")
            }
            DegradeReason::PipelineRefused(e) => write!(f, "pipeline refused: {e}"),
            DegradeReason::ScavengerOnlyFailed(e) => {
                write!(f, "scavenger-only instrumentation failed: {e}")
            }
        }
    }
}

/// Options for the degrading pipeline.
#[derive(Clone, Debug)]
pub struct DegradeOptions {
    /// The underlying pipeline configuration. Unlike [`pgo_pipeline`],
    /// the ladder *always* runs profile admission control:
    /// `pipeline.validation` of `None` means
    /// [`reach_profile::ProfileValidationOptions::default`].
    ///
    /// [`pgo_pipeline`]: crate::pipeline::pgo_pipeline
    pub pipeline: PipelineOptions,
    /// Extra profiling attempts after the first failure/rejection before
    /// giving up on [`Rung::FullPgo`].
    pub max_reprofiles: u32,
    /// Test/fault-injection hook: applied to each smoothed profile before
    /// validation (e.g. to simulate a stale or drifted profile). A plain
    /// `fn` pointer so the options stay `Clone`.
    pub profile_mutator: Option<fn(&mut Profile)>,
}

impl Default for DegradeOptions {
    fn default() -> Self {
        DegradeOptions {
            pipeline: PipelineOptions::default(),
            max_reprofiles: 1,
            profile_mutator: None,
        }
    }
}

/// What the ladder shipped.
#[derive(Debug)]
pub struct DegradedBuild {
    /// The binary to deploy — always present, whatever happened.
    pub prog: Program,
    /// `origin[pc]` = PC in the original program (`None` for inserted
    /// instructions). Identity for [`Rung::Uninstrumented`].
    pub origin: Vec<Option<usize>>,
    /// The rung the build landed on.
    pub rung: Rung,
    /// Every failure/descent event, in order. Empty exactly when the
    /// first profiling attempt produced a clean [`Rung::FullPgo`] build.
    pub reasons: Vec<DegradeReason>,
    /// Profiling attempts beyond the first.
    pub reprofiles: u32,
    /// The admitted profile ([`Rung::FullPgo`] only).
    pub profile: Option<Profile>,
    /// Lint report for the shipped binary (absent for
    /// [`Rung::Uninstrumented`], which never passed through the gate).
    pub lint_report: Option<LintReport>,
}

/// Runs the PGO pipeline with graceful degradation: always returns a
/// deployable binary, descending the rung ladder instead of failing.
///
/// `make_profiling_contexts(attempt)` supplies fresh profiling contexts
/// for each attempt (attempt numbers start at 0), so retries re-profile
/// real work rather than re-running finished coroutines.
pub fn pgo_pipeline_degrading(
    machine: &mut Machine,
    prog: &Program,
    mut make_profiling_contexts: impl FnMut(u32) -> Vec<Context>,
    opts: &DegradeOptions,
) -> DegradedBuild {
    let mut reasons = Vec::new();
    let mut reprofiles = 0u32;
    let vopts = opts.pipeline.validation.unwrap_or_default();
    let mcfg = machine.cfg.clone();

    // Rung 1: full PGO, with bounded re-profile retries.
    let attempts = 1 + opts.max_reprofiles;
    let mut descend_now = false;
    for attempt in 0..attempts {
        if attempt > 0 {
            reprofiles += 1;
        }
        let mut contexts = make_profiling_contexts(attempt);
        // `collect` arms its own samplers; disarm them afterwards so a
        // retry does not stack sampling overhead on top of the last
        // attempt's.
        let samplers_before = machine.samplers.len();
        let collected = collect(machine, prog, &mut contexts, &opts.pipeline.collector);
        machine.samplers.truncate(samplers_before);
        let raw = match collected {
            Ok((raw, _cost)) => raw,
            Err(e) => {
                reasons.push(DegradeReason::ProfilingFailed(e));
                continue;
            }
        };
        let mut profile = smooth_profile(&raw, prog);
        if let Some(mutate) = opts.profile_mutator {
            mutate(&mut profile);
        }
        if let Err(e) = validate_profile(&profile, prog, &vopts) {
            reasons.push(DegradeReason::ProfileRejected(e));
            continue;
        }
        match instrument_with_profile(prog, &profile, &mcfg, &opts.pipeline) {
            Ok((final_prog, origin, _primary, _scav, lint_report)) => {
                return DegradedBuild {
                    prog: final_prog,
                    origin,
                    rung: Rung::FullPgo,
                    reasons,
                    reprofiles,
                    profile: Some(profile),
                    lint_report: Some(lint_report),
                };
            }
            Err(e) => {
                // Deterministic instrumenter refusal: another profile
                // will not change the outcome.
                reasons.push(DegradeReason::PipelineRefused(e));
                descend_now = true;
                break;
            }
        }
    }
    if !descend_now {
        reasons.push(DegradeReason::ReprofileExhausted { attempts });
    }

    // Rung 2: profile-free scavenger instrumentation — keeps the binary
    // cooperative (bounded inter-yield intervals) without trusting any
    // sample.
    if let Some(result) = scavenger_only_build(prog, &mcfg, &opts.pipeline) {
        match result {
            Ok((scav_prog, origin, lint_report)) => {
                return DegradedBuild {
                    prog: scav_prog,
                    origin,
                    rung: Rung::ScavengerOnly,
                    reasons,
                    reprofiles,
                    profile: None,
                    lint_report: Some(lint_report),
                };
            }
            Err(e) => reasons.push(DegradeReason::ScavengerOnlyFailed(e)),
        }
    }

    // Rung 3: the original binary. Cannot fail.
    uninstrumented_build(prog, reasons, reprofiles)
}

/// The [`Rung::ScavengerOnly`] build step in isolation: static scavenger
/// instrumentation, rewrite validation, and the lint gate — no profile
/// involved. Returns `None` when the pipeline has no scavenger pass
/// configured. Shared by the ladder's rung 2 and the runtime
/// supervisor's circuit breaker, which deploys this build directly when
/// consecutive full-PGO rebuilds keep failing.
#[allow(clippy::type_complexity)]
pub(crate) fn scavenger_only_build(
    prog: &Program,
    mcfg: &MachineConfig,
    pipeline: &PipelineOptions,
) -> Option<Result<(Program, Vec<Option<usize>>, LintReport), PipelineError>> {
    let sopts = pipeline.scavenger.as_ref()?;
    Some(
        instrument_scavenger(prog, None, mcfg, sopts)
            .map_err(PipelineError::from)
            .and_then(|(scav_prog, report)| {
                validate_rewrite(prog, &scav_prog, &report.pc_map.origin, false)?;
                verify_gate(prog, &scav_prog, &report.pc_map.origin, &pipeline.lint)?;
                let lint = lint_gate(&scav_prog, &report.pc_map.origin, &pipeline.lint)?;
                Ok((scav_prog, report.pc_map.origin, lint))
            }),
    )
}

/// The always-succeeding [`Rung::Uninstrumented`] terminal rung as a
/// [`DegradedBuild`].
fn uninstrumented_build(
    prog: &Program,
    reasons: Vec<DegradeReason>,
    reprofiles: u32,
) -> DegradedBuild {
    DegradedBuild {
        origin: (0..prog.len()).map(Some).collect(),
        prog: prog.clone(),
        rung: Rung::Uninstrumented,
        reasons,
        reprofiles,
        profile: None,
        lint_report: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{Inst, MachineConfig, Reg, YieldKind};
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

    fn yield_kinds(prog: &Program) -> Vec<YieldKind> {
        prog.insts
            .iter()
            .filter_map(|i| match i {
                Inst::Yield { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn healthy_pipeline_lands_on_full_pgo_with_no_reasons() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build_chase(&mut m.mem, &mut alloc, chase_params(), 2);
        let b = pgo_pipeline_degrading(
            &mut m,
            &w.prog,
            |_| vec![w.instances[1].make_context(99)],
            &DegradeOptions::default(),
        );
        assert_eq!(b.rung, Rung::FullPgo);
        assert!(b.reasons.is_empty(), "{:?}", b.reasons);
        assert_eq!(b.reprofiles, 0);
        assert!(b.profile.is_some());
        assert!(yield_kinds(&b.prog).contains(&YieldKind::Primary));
        assert!(m.samplers.is_empty(), "samplers disarmed after collect");
    }

    #[test]
    fn stale_profile_retries_then_degrades_to_scavenger_only() {
        fn wipe(p: &mut Profile) {
            p.total_samples = 0; // simulate a profile with no signal
        }
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build_chase(&mut m.mem, &mut alloc, chase_params(), 2);
        let opts = DegradeOptions {
            max_reprofiles: 2,
            profile_mutator: Some(wipe),
            ..DegradeOptions::default()
        };
        let b = pgo_pipeline_degrading(
            &mut m,
            &w.prog,
            |_| vec![w.instances[1].make_context(99)],
            &opts,
        );
        assert_eq!(b.rung, Rung::ScavengerOnly);
        assert_eq!(b.reprofiles, 2);
        // 3 rejections + the exhaustion marker, in order.
        assert_eq!(b.reasons.len(), 4, "{:?}", b.reasons);
        assert!(matches!(
            b.reasons[0],
            DegradeReason::ProfileRejected(ProfileInvalid::TooFewSamples { .. })
        ));
        assert!(matches!(
            b.reasons[3],
            DegradeReason::ReprofileExhausted { attempts: 3 }
        ));
        // Still cooperative: conditional scavenger yields, no primary
        // (profile-guided) ones.
        let kinds = yield_kinds(&b.prog);
        assert!(kinds.contains(&YieldKind::Scavenger));
        assert!(!kinds.contains(&YieldKind::Primary));
        assert!(b.profile.is_none());
        assert!(b.lint_report.is_some());
    }

    #[test]
    fn profiling_faults_descend_to_uninstrumented_when_no_scavenger_pass() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build_chase(&mut m.mem, &mut alloc, chase_params(), 2);
        let opts = DegradeOptions {
            pipeline: PipelineOptions {
                scavenger: None,
                ..PipelineOptions::default()
            },
            max_reprofiles: 1,
            ..DegradeOptions::default()
        };
        let b = pgo_pipeline_degrading(
            &mut m,
            &w.prog,
            |_| {
                // Misaligned chase head: every profiling run faults.
                let mut c = w.instances[1].make_context(99);
                c.set_reg(Reg(0), 0x1001);
                vec![c]
            },
            &opts,
        );
        assert_eq!(b.rung, Rung::Uninstrumented);
        assert_eq!(b.prog.insts, w.prog.insts, "original binary shipped");
        assert_eq!(b.origin.len(), w.prog.len());
        assert!(b.origin.iter().enumerate().all(|(i, o)| *o == Some(i)));
        assert!(matches!(
            b.reasons[0],
            DegradeReason::ProfilingFailed(ExecError::Mem(_))
        ));
        assert!(b
            .reasons
            .iter()
            .any(|r| matches!(r, DegradeReason::ReprofileExhausted { attempts: 2 })));
        assert!(b.lint_report.is_none());
    }
}
