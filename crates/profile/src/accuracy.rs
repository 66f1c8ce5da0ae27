//! Profile-accuracy scoring: sampled estimates versus simulator ground
//! truth.
//!
//! A real deployment can never compute this — there is no ground truth on
//! real hardware — but the simulator maintains exact per-PC load/miss
//! counters, so experiment T11 can quantify how sampling period, buffer
//! size and skid trade collection cost against the fidelity of the
//! profile the instrumenter consumes.

use crate::profile::Profile;
use reach_sim::PerfCounters;

/// Set-overlap accuracy of the profile's predicted miss-PC set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Accuracy {
    /// |predicted ∩ true| / |predicted| (1.0 when nothing predicted).
    pub precision: f64,
    /// |predicted ∩ true| / |true| (1.0 when nothing to find).
    pub recall: f64,
    /// Mean absolute error of per-PC miss-likelihood estimates over the
    /// union of predicted and true PCs.
    pub likelihood_mae: f64,
}

/// Scores `profile` against ground-truth `counters` at a miss-likelihood
/// `threshold` (the same threshold an instrumentation policy would use).
pub fn score(profile: &Profile, counters: &PerfCounters, threshold: f64) -> Accuracy {
    let predicted = profile.miss_pcs(threshold);
    let truth = counters.true_miss_pcs(threshold);

    let inter = predicted.iter().filter(|pc| truth.contains(pc)).count() as f64;
    let precision = if predicted.is_empty() {
        1.0
    } else {
        inter / predicted.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        inter / truth.len() as f64
    };

    let mut union: Vec<usize> = predicted.iter().chain(truth.iter()).copied().collect();
    union.sort_unstable();
    union.dedup();
    let likelihood_mae = if union.is_empty() {
        0.0
    } else {
        union
            .iter()
            .map(|&pc| {
                let est = profile.miss_likelihood(pc);
                let actual = counters
                    .per_pc
                    .get(pc)
                    .map(|s| s.miss_likelihood())
                    .unwrap_or(0.0);
                (est - actual).abs()
            })
            .sum::<f64>()
            / union.len() as f64
    };

    Accuracy {
        precision,
        recall,
        likelihood_mae,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Periods;
    use reach_sim::Level;

    fn truth() -> PerfCounters {
        let mut c = PerfCounters::new();
        for _ in 0..90 {
            c.record_load(1, Level::Mem, 270);
        }
        for _ in 0..10 {
            c.record_load(1, Level::L1, 0);
        }
        for _ in 0..100 {
            c.record_load(2, Level::L1, 0);
        }
        c
    }

    fn perfect_profile() -> Profile {
        let mut p = Profile::new(
            "t",
            Periods {
                l2_miss: 1,
                l3_miss: 1,
                stall: 1,
                retired: 1,
            },
        );
        p.l2_miss_samples.insert(1, 90);
        p.retired_samples.insert(1, 100);
        p.retired_samples.insert(2, 100);
        p
    }

    #[test]
    fn perfect_profile_scores_one() {
        let a = score(&perfect_profile(), &truth(), 0.5);
        assert_eq!(a.precision, 1.0);
        assert_eq!(a.recall, 1.0);
        assert!(a.likelihood_mae < 1e-9);
    }

    #[test]
    fn false_positive_lowers_precision() {
        let mut p = perfect_profile();
        p.l2_miss_samples.insert(2, 80); // claims pc2 misses
        let a = score(&p, &truth(), 0.5);
        assert_eq!(a.precision, 0.5);
        assert_eq!(a.recall, 1.0);
        assert!(a.likelihood_mae > 0.1);
    }

    #[test]
    fn missed_pc_lowers_recall() {
        let mut p = perfect_profile();
        p.l2_miss_samples.clear(); // predicts nothing
        let a = score(&p, &truth(), 0.5);
        assert_eq!(a.precision, 1.0, "empty prediction is vacuously precise");
        assert_eq!(a.recall, 0.0);
    }

    #[test]
    fn empty_truth_and_prediction_is_perfect() {
        let p = Profile::new("t", Periods::default());
        let c = PerfCounters::new();
        let a = score(&p, &c, 0.5);
        assert_eq!(a.precision, 1.0);
        assert_eq!(a.recall, 1.0);
        assert_eq!(a.likelihood_mae, 0.0);
    }
}
