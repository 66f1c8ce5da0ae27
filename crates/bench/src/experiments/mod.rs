//! The experiment registry: every harness as a library module.
//!
//! Each submodule implements [`crate::experiment::Experiment`] for one
//! paper table/figure; [`all`] returns the full suite in EXPERIMENTS.md
//! order and is what `exp_all` drives in-process.

pub mod chaos;
pub mod f10_dualmode;
pub mod f1_spectrum;
pub mod f6_manual_vs_pgo;
pub mod f9_interyield;
pub mod fault_matrix;
pub mod multicore;
pub mod selfheal;
pub mod simperf;
pub mod t11_sampling;
pub mod t12_whatif;
pub mod t13_scheduler;
pub mod t14_hw_prefetcher;
pub mod t15_profiling_methods;
pub mod t16_sfi;
pub mod t17_drift;
pub mod t2_stall_fraction;
pub mod t3_switch_cost;
pub mod t4_concurrency;
pub mod t5_latency;
pub mod t7_policy;
pub mod t8_ablation;
pub mod verify;

use crate::experiment::Experiment;

/// Every experiment in the suite, EXPERIMENTS.md order.
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(f1_spectrum::F1Spectrum),
        Box::new(t2_stall_fraction::T2StallFraction),
        Box::new(t3_switch_cost::T3SwitchCost),
        Box::new(t4_concurrency::T4Concurrency),
        Box::new(t5_latency::T5Latency),
        Box::new(f6_manual_vs_pgo::F6ManualVsPgo),
        Box::new(t7_policy::T7Policy),
        Box::new(t8_ablation::T8Ablation),
        Box::new(f9_interyield::F9InterYield),
        Box::new(f10_dualmode::F10DualMode),
        Box::new(t11_sampling::T11Sampling),
        Box::new(t12_whatif::T12WhatIf),
        Box::new(t13_scheduler::T13Scheduler),
        Box::new(t14_hw_prefetcher::T14HwPrefetcher),
        Box::new(t15_profiling_methods::T15ProfilingMethods),
        Box::new(t16_sfi::T16Sfi),
        Box::new(t17_drift::T17Drift),
        Box::new(fault_matrix::FaultMatrix),
        Box::new(selfheal::SelfHeal),
        Box::new(chaos::Chaos),
        Box::new(multicore::Multicore),
        Box::new(simperf::SimPerf),
        Box::new(verify::Verify),
    ]
}

/// Looks an experiment up by its stable name.
pub fn by_name(name: &str) -> Option<Box<dyn Experiment>> {
    all().into_iter().find(|e| e.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{cell_seed, Cell};

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let exps = all();
        assert_eq!(exps.len(), 23);
        for e in &exps {
            assert!(by_name(e.name()).is_some());
        }
        let mut names: Vec<&str> = exps.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), exps.len(), "duplicate experiment name");
    }

    /// Every metric is a pure function of the cell and its seed — the
    /// premise of regenerating the baselines byte-identically. The two
    /// cells are from the experiments that once timed themselves on the
    /// host.
    #[test]
    fn a_cell_run_twice_returns_equal_metrics() {
        for (exp, workload, config) in [
            ("simperf", "alu-dense", "seq"),
            ("verify", "chase", "pipeline"),
        ] {
            let e = by_name(exp).unwrap();
            let cell = Cell::new(workload, config);
            assert!(e.cells().contains(&cell));
            let seed = cell_seed(exp, &cell);
            assert_eq!(e.run_cell(&cell, seed), e.run_cell(&cell, seed), "{exp}");
        }
    }

    #[test]
    fn cell_keys_are_unique_within_each_experiment() {
        for e in all() {
            let cells = e.cells();
            assert!(!cells.is_empty(), "{}: empty matrix", e.name());
            let mut keys: Vec<String> = cells.iter().map(|c| c.key()).collect();
            keys.sort();
            keys.dedup();
            assert_eq!(keys.len(), cells.len(), "{}: duplicate cell key", e.name());
        }
    }
}
