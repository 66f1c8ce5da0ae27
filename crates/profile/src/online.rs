//! Online staleness estimation: is the deployed profile still true?
//!
//! The PGO loop of §3.2 is not one-shot — production FDO systems
//! (Google-wide profiling, AutoFDO) sample *continuously* because
//! behaviour drifts. This module is the lightweight in-situ half of that
//! loop: a bounded, exponentially-decayed stream of L2-miss samples
//! taken while serving live traffic, comparable at any moment against
//! the deployed [`Profile`] via the existing staleness metric
//! ([`Profile::miss_distribution_distance`]).
//!
//! The estimator deliberately holds *counts only* — no LBR, no stall
//! attribution, no smoothing — so the run-time supervisor can keep it
//! armed permanently at a long sampling period. It answers exactly one
//! question: has the per-PC miss *distribution* moved away from the one
//! the shipped instrumentation was built for?
//!
//! Determinism: the window decay halves integer counts in place and the
//! distance computation sorts PC keys, so for a given observation
//! sequence the estimate is bit-for-bit reproducible — a requirement for
//! the supervisor's replayable incident log.

use crate::profile::Profile;
use std::collections::HashMap;

/// Configuration for [`OnlineStalenessEstimator`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OnlineEstimatorOptions {
    /// Window cap: when the total retained weight exceeds this, every
    /// per-PC count is halved (exponential decay), so old traffic fades
    /// instead of averaging drift away.
    pub window: u64,
    /// Below this many retained samples the estimate is withheld
    /// ([`OnlineStalenessEstimator::staleness_vs`] returns NaN): a
    /// handful of samples says nothing about a distribution.
    pub min_samples: u64,
}

impl Default for OnlineEstimatorOptions {
    fn default() -> Self {
        OnlineEstimatorOptions {
            window: 2048,
            min_samples: 24,
        }
    }
}

/// A bounded-memory estimate of the live per-PC L2-miss distribution.
///
/// Feed it sample PCs (already folded back to *original* PC space when
/// sampling an instrumented binary — see
/// `reach_instrument::remap_to_origin` for the batch analogue) and ask
/// how far live behaviour has drifted from a deployed profile.
#[derive(Clone, Debug)]
pub struct OnlineStalenessEstimator {
    opts: OnlineEstimatorOptions,
    counts: HashMap<usize, u64>,
    /// Retained (post-decay) weight.
    total: u64,
    /// Lifetime samples observed, never decayed.
    observed: u64,
}

impl OnlineStalenessEstimator {
    /// Creates an empty estimator.
    ///
    /// # Panics
    ///
    /// Panics if `opts.window == 0` (the window could never hold a
    /// sample).
    pub fn new(opts: OnlineEstimatorOptions) -> Self {
        assert!(opts.window > 0, "estimator window must be > 0");
        OnlineStalenessEstimator {
            opts,
            counts: HashMap::new(),
            total: 0,
            observed: 0,
        }
    }

    /// Folds one L2-miss sample at `pc` into the window.
    pub fn observe(&mut self, pc: usize) {
        self.observe_many(pc, 1);
    }

    /// Folds `n` samples at `pc` into the window.
    pub fn observe_many(&mut self, pc: usize, n: u64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(pc).or_insert(0) += n;
        self.total += n;
        self.observed += n;
        while self.total > self.opts.window {
            self.decay();
        }
    }

    /// Halves every retained count (dropping those that reach zero) and
    /// recomputes the retained total.
    fn decay(&mut self) {
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
        self.total = self.counts.values().sum();
        // A pathological window (< distinct PCs) could fail to shrink;
        // counts of 1 halve to 0 and are dropped, so the loop in
        // `observe_many` always terminates — at worst with an empty map.
        if self.counts.is_empty() {
            self.total = 0;
        }
    }

    /// Retained (windowed) sample weight.
    pub fn retained(&self) -> u64 {
        self.total
    }

    /// Whether enough samples are retained for
    /// [`OnlineStalenessEstimator::staleness_vs`] to return a number.
    pub(crate) fn warmed_up(&self) -> bool {
        self.total >= self.opts.min_samples
    }

    /// Forgets everything (used after a hot swap: the deployed reference
    /// changed, so the old window no longer measures drift against it).
    pub fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// The window as a throwaway [`Profile`] (only `l2_miss_samples` is
    /// populated), so existing profile machinery can consume it.
    pub(crate) fn as_profile(&self, deployed: &Profile) -> Profile {
        let mut p = Profile::new("online-window", deployed.periods);
        p.l2_miss_samples = self.counts.clone();
        p.total_samples = self.total;
        p
    }

    /// Staleness of `deployed` relative to the live window: the total
    /// variation distance between the normalized miss distributions
    /// (`[0, 1]`; the existing [`Profile::miss_distribution_distance`]).
    /// NaN until [`OnlineEstimatorOptions::min_samples`] are retained.
    pub fn staleness_vs(&self, deployed: &Profile) -> f64 {
        if !self.warmed_up() {
            return f64::NAN;
        }
        deployed.miss_distribution_distance(&self.as_profile(deployed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Periods;

    fn profile_at(pcs: &[(usize, u64)]) -> Profile {
        let mut p = Profile::new("t", Periods::default());
        for &(pc, n) in pcs {
            p.l2_miss_samples.insert(pc, n);
            p.total_samples += n;
        }
        p
    }

    #[test]
    fn withholds_estimate_until_min_samples() {
        let mut e = OnlineStalenessEstimator::new(OnlineEstimatorOptions {
            window: 256,
            min_samples: 10,
        });
        let dep = profile_at(&[(3, 100)]);
        for _ in 0..9 {
            e.observe(3);
        }
        assert!(!e.warmed_up());
        assert!(e.staleness_vs(&dep).is_nan());
        e.observe(3);
        assert!(e.warmed_up());
        assert_eq!(e.staleness_vs(&dep), 0.0);
    }

    #[test]
    fn matching_traffic_reads_zero_and_disjoint_reads_one() {
        let mut e = OnlineStalenessEstimator::new(OnlineEstimatorOptions::default());
        let dep = profile_at(&[(3, 80), (7, 20)]);
        // Same 80/20 shape at the same PCs.
        e.observe_many(3, 80);
        e.observe_many(7, 20);
        assert_eq!(e.staleness_vs(&dep), 0.0);

        let mut moved = OnlineStalenessEstimator::new(OnlineEstimatorOptions::default());
        moved.observe_many(11, 100); // all mass somewhere else entirely
        assert_eq!(moved.staleness_vs(&dep), 1.0);
    }

    #[test]
    fn half_the_mass_moved_reads_half() {
        let mut e = OnlineStalenessEstimator::new(OnlineEstimatorOptions::default());
        let dep = profile_at(&[(3, 100)]);
        e.observe_many(3, 50);
        e.observe_many(9, 50);
        let d = e.staleness_vs(&dep);
        assert!((d - 0.5).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn window_decay_forgets_old_traffic() {
        let mut e = OnlineStalenessEstimator::new(OnlineEstimatorOptions {
            window: 128,
            min_samples: 8,
        });
        let dep = profile_at(&[(3, 100)]);
        // Old traffic matches the deployed profile...
        e.observe_many(3, 128);
        assert_eq!(e.staleness_vs(&dep), 0.0);
        // ...then the workload shifts. Repeated decay must let the new
        // distribution dominate rather than averaging forever.
        e.observe_many(9, 1024);
        let d = e.staleness_vs(&dep);
        assert!(d > 0.8, "drift swamped by stale window: {d}");
        assert!(e.retained() <= 128 * 2);
        assert_eq!(e.observed, 128 + 1024);
    }

    #[test]
    fn reset_forgets_window() {
        let mut e = OnlineStalenessEstimator::new(OnlineEstimatorOptions::default());
        e.observe_many(5, 100);
        assert!(e.warmed_up());
        e.reset();
        assert!(!e.warmed_up());
        assert_eq!(e.retained(), 0);
        assert!(e.staleness_vs(&profile_at(&[(5, 1)])).is_nan());
        // Lifetime counter survives reset.
        assert_eq!(e.observed, 100);
    }

    #[test]
    fn observation_sequence_is_deterministic() {
        let run = || {
            let mut e = OnlineStalenessEstimator::new(OnlineEstimatorOptions {
                window: 64,
                min_samples: 4,
            });
            for i in 0..500usize {
                e.observe((i * 7) % 13);
            }
            e.staleness_vs(&profile_at(&[(0, 10), (1, 30), (5, 60)]))
        };
        assert_eq!(run().to_bits(), run().to_bits());
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let _ = OnlineStalenessEstimator::new(OnlineEstimatorOptions {
            window: 0,
            min_samples: 1,
        });
    }
}
