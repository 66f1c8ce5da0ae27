//! Profile validation: the checks the pipeline runs before trusting a
//! profile to steer instrumentation.
//!
//! A profile can lie in two ways the pipeline must distinguish. It can be
//! the *wrong profile* — collected on a different binary, or so sparse
//! (sampler starvation, dropped events) that its estimates are noise —
//! which these checks reject outright. Or it can be *stale* — same
//! binary, but the workload drifted — which no static check can catch;
//! that case is contained at runtime instead (prefetches are hints, the
//! watchdog bounds scavenger overruns).

use crate::Profile;
use reach_sim::{Inst, Program};
use std::fmt;

/// Minimum total samples for estimates to be better than noise.
const MIN_TOTAL_SAMPLES: u64 = 8;

/// Thresholds for [`validate_profile`]. A profile needs at least 8
/// samples, and one with unknown provenance (`fingerprint == 0`) passes
/// the fingerprint check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileValidationOptions {
    /// Minimum fraction of the program's load instructions that must
    /// have a non-zero execution estimate (after block smoothing).
    pub min_load_coverage: f64,
}

impl Default for ProfileValidationOptions {
    fn default() -> Self {
        ProfileValidationOptions {
            min_load_coverage: 0.25,
        }
    }
}

/// Why a profile was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProfileInvalid {
    /// The profile was collected on a different binary.
    FingerprintMismatch {
        /// Fingerprint of the binary being instrumented.
        expected: u64,
        /// Fingerprint recorded in the profile.
        got: u64,
    },
    /// Fewer samples than the minimum of 8.
    TooFewSamples {
        /// Samples in the profile.
        got: u64,
        /// The minimum.
        need: u64,
    },
    /// Too few load instructions have execution estimates.
    LowLoadCoverage {
        /// Loads with a non-zero estimate.
        covered: usize,
        /// Total loads in the program.
        loads: usize,
        /// The configured minimum fraction.
        need: f64,
    },
}

impl fmt::Display for ProfileInvalid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileInvalid::FingerprintMismatch { expected, got } => write!(
                f,
                "profile provenance mismatch: binary {expected:#x}, profile {got:#x}"
            ),
            ProfileInvalid::TooFewSamples { got, need } => {
                write!(f, "profile has {got} samples, need at least {need}")
            }
            ProfileInvalid::LowLoadCoverage {
                covered,
                loads,
                need,
            } => write!(
                f,
                "only {covered}/{loads} loads covered, need {:.0}%",
                need * 100.0
            ),
        }
    }
}

impl std::error::Error for ProfileInvalid {}

/// Validates `profile` against the binary it claims to describe.
///
/// # Errors
///
/// Returns the first failed check; see [`ProfileInvalid`].
pub fn validate_profile(
    profile: &Profile,
    prog: &Program,
    opts: &ProfileValidationOptions,
) -> Result<(), ProfileInvalid> {
    let expected = prog.fingerprint();
    if profile.fingerprint != 0 && profile.fingerprint != expected {
        return Err(ProfileInvalid::FingerprintMismatch {
            expected,
            got: profile.fingerprint,
        });
    }
    if profile.total_samples < MIN_TOTAL_SAMPLES {
        return Err(ProfileInvalid::TooFewSamples {
            got: profile.total_samples,
            need: MIN_TOTAL_SAMPLES,
        });
    }
    if opts.min_load_coverage > 0.0 {
        let loads: Vec<usize> = prog
            .insts
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Inst::Load { .. }))
            .map(|(pc, _)| pc)
            .collect();
        if !loads.is_empty() {
            let covered = loads
                .iter()
                .filter(|&&pc| profile.est_executions(pc) > 0.0)
                .count();
            if (covered as f64) < opts.min_load_coverage * loads.len() as f64 {
                return Err(ProfileInvalid::LowLoadCoverage {
                    covered,
                    loads: loads.len(),
                    need: opts.min_load_coverage,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Periods;
    use reach_sim::{ProgramBuilder, Reg};

    fn prog() -> Program {
        let mut b = ProgramBuilder::new("v");
        b.imm(Reg(0), 0x1000);
        b.load(Reg(1), Reg(0), 0);
        b.load(Reg(2), Reg(0), 8);
        b.halt();
        b.finish().unwrap()
    }

    fn good_profile(p: &Program) -> Profile {
        let mut prof = Profile::new("v", Periods::default());
        prof.fingerprint = p.fingerprint();
        prof.total_samples = 100;
        prof.retired_samples.insert(1, 5);
        prof.retired_samples.insert(2, 5);
        prof
    }

    #[test]
    fn accepts_a_matching_profile() {
        let p = prog();
        let prof = good_profile(&p);
        let opts = ProfileValidationOptions::default();
        assert_eq!(validate_profile(&prof, &p, &opts), Ok(()));
    }

    #[test]
    fn rejects_wrong_binary() {
        let p = prog();
        let mut prof = good_profile(&p);
        prof.fingerprint ^= 1;
        let opts = ProfileValidationOptions::default();
        assert!(matches!(
            validate_profile(&prof, &p, &opts),
            Err(ProfileInvalid::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn unknown_provenance_passes() {
        let p = prog();
        let mut prof = good_profile(&p);
        prof.fingerprint = 0;
        let opts = ProfileValidationOptions::default();
        assert_eq!(validate_profile(&prof, &p, &opts), Ok(()));
    }

    #[test]
    fn rejects_starved_sampling() {
        let p = prog();
        let mut prof = good_profile(&p);
        prof.total_samples = 3;
        let opts = ProfileValidationOptions::default();
        assert!(matches!(
            validate_profile(&prof, &p, &opts),
            Err(ProfileInvalid::TooFewSamples { got: 3, .. })
        ));
    }

    #[test]
    fn rejects_uncovered_loads() {
        let p = prog();
        let mut prof = good_profile(&p);
        prof.retired_samples.clear();
        let opts = ProfileValidationOptions::default();
        assert!(matches!(
            validate_profile(&prof, &p, &opts),
            Err(ProfileInvalid::LowLoadCoverage {
                covered: 0,
                loads: 2,
                ..
            })
        ));
    }
}
