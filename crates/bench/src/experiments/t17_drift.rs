//! T17 (extension, §2): continuous PGO under workload drift.
//!
//! §2 grounds the proposal in production profiling infrastructure
//! ("Google-wide profiling", AutoFDO): profiles are collected
//! continuously because behaviour drifts. Here the Zipf KV traffic
//! drifts from uniform (θ=0: every lookup misses DRAM) to extremely hot
//! (θ=2: the head is L1-resident), and the pipeline reacts:
//!
//! 1. instrument against the *old* profile (uniform traffic: the value
//!    load is a guaranteed DRAM miss, clearly worth a yield);
//! 2. production shifts; the stale binary now pays a prefetch+switch on
//!    every lookup for loads that almost always hit — pure overhead;
//! 3. sampling continues on the *instrumented* binary; the new samples
//!    are folded back to original PCs ([`remap_to_origin`]) and compared
//!    with the shipped profile — the miss-distribution distance flags the
//!    drift (`profile_distance`, n/a before day 2's samples exist);
//! 4. re-instrumenting from the fresh profile recovers the efficiency.
//!
//! [`remap_to_origin`]: reach_instrument::remap_to_origin

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::harness::interleave_checked;
use crate::report::{BenchReport, CellStatus};
use reach_core::InterleaveOptions;
use reach_instrument::{instrument_primary, remap_to_origin, smooth_profile, PrimaryOptions};
use reach_profile::{collect, CollectorConfig, OnlineEstimatorOptions, OnlineStalenessEstimator};
use reach_sim::{Machine, MachineConfig};
use reach_workloads::{build_zipf_kv, AddrAlloc, BuiltWorkload, ZipfKvParams};

const N: usize = 8;

const PHASES: &[&str] = &["day1", "day2-stale", "day2-repgo"];

fn params(theta: f64) -> ZipfKvParams {
    ZipfKvParams {
        table_entries: 1 << 21,
        lookups: 8192,
        theta,
        seed: 0x717,
    }
}

fn setup(theta: f64) -> (Machine, BuiltWorkload) {
    let mut m = Machine::new(MachineConfig::default());
    let mut alloc = AddrAlloc::new(crate::harness::LAYOUT_BASE);
    let w = build_zipf_kv(&mut m.mem, &mut alloc, params(theta), N + 1);
    (m, w)
}

/// Collects a raw profile of `prog` on a theta-shaped workload; returns
/// it in `prog`'s own PC space.
fn profile_on(theta: f64, prog: &reach_sim::Program) -> reach_profile::Profile {
    let (mut m, w) = setup(theta);
    let mut ctx = vec![w.instances[N].make_context(99)];
    let (p, _) = collect(&mut m, prog, &mut ctx, &CollectorConfig::default()).unwrap();
    p
}

fn run(prog: &reach_sim::Program, theta: f64) -> f64 {
    let (mut m, w) = setup(theta);
    interleave_checked(&mut m, prog, &w, 0..N, &InterleaveOptions::default());
    m.counters.cpu_efficiency()
}

/// The T17 continuous-PGO drift experiment.
pub(super) struct T17Drift;

impl Experiment for T17Drift {
    fn name(&self) -> &'static str {
        "t17_drift"
    }

    fn title(&self) -> &'static str {
        "T17: continuous PGO under workload drift (zipf KV, theta 0.0 -> 2.0)"
    }

    fn notes(&self) -> &'static str {
        "shape: after the drift the shipped binary pays a switch per lookup \
         for loads that now hit; the remapped production samples flag the \
         drift (profile_distance) and one re-instrumentation round strips \
         the useless yields — §2's continuous-profiling loop, closed."
    }

    fn cells(&self) -> Vec<Cell> {
        PHASES.iter().map(|p| Cell::new("zipf-drift", *p)).collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let mcfg = MachineConfig::default();
        let (_, w0) = setup(0.0);
        let orig = w0.prog.clone();

        // Day 1: uniform traffic; profile and ship. Deterministic, so
        // each cell can rebuild the shipped binary independently.
        let day1_raw = profile_on(0.0, &orig);
        let day1 = smooth_profile(&day1_raw, &orig);
        let opts = PrimaryOptions::default();
        let (shipped, day1_report) = instrument_primary(&orig, &day1, &mcfg, &opts).unwrap();

        let mut out = CellMetrics::new();
        match cell.config.as_str() {
            "day1" => {
                out.put_u64("sites", day1_report.sites_selected() as u64)
                    .put_str("traffic", "theta=0.0")
                    .put_f64("eff", run(&shipped, 0.0))
                    .put_f64("profile_distance", f64::NAN)
                    .put_f64("est_distance", f64::NAN)
                    .put_f64("est_err", f64::NAN);
            }
            "day2-stale" => {
                // Traffic drifts hot; the shipped binary is stale overhead.
                out.put_u64("sites", day1_report.sites_selected() as u64)
                    .put_str("traffic", "theta=2.0")
                    .put_f64("eff", run(&shipped, 2.0))
                    .put_f64("profile_distance", f64::NAN)
                    .put_f64("est_distance", f64::NAN)
                    .put_f64("est_err", f64::NAN);
            }
            "day2-repgo" => {
                // Continuous sampling on the shipped binary under the new
                // traffic, folded back to original PCs.
                let day2_inst_raw = profile_on(2.0, &shipped);
                let day2_raw = remap_to_origin(&day2_inst_raw, &day1_report.pc_map.origin);
                let distance = day1_raw.miss_distribution_distance(&day2_raw);

                // The supervisor's online estimator, fed the same
                // production sample stream (folded to original PCs),
                // must agree with this offline oracle distance — the
                // agreement is gated in finish().
                let mut est = OnlineStalenessEstimator::new(OnlineEstimatorOptions {
                    window: 1 << 20, // no decay: the oracle sees every sample too
                    min_samples: 8,
                });
                let mut stream: Vec<(usize, u64)> = day2_inst_raw
                    .l2_miss_samples
                    .iter()
                    .map(|(pc, n)| (*pc, *n))
                    .collect();
                stream.sort_unstable();
                for (pc, n) in stream {
                    if let Some(Some(opc)) = day1_report.pc_map.origin.get(pc) {
                        est.observe_many(*opc, n);
                    }
                }
                let est_distance = est.staleness_vs(&day1_raw);

                // Re-instrument from the fresh profile.
                let day2 = smooth_profile(&day2_raw, &orig);
                let (reshipped, day2_report) =
                    instrument_primary(&orig, &day2, &mcfg, &opts).unwrap();
                out.put_u64("sites", day2_report.sites_selected() as u64)
                    .put_str("traffic", "theta=2.0")
                    .put_f64("eff", run(&reshipped, 2.0))
                    .put_f64("profile_distance", distance)
                    .put_f64("est_distance", est_distance)
                    .put_f64("est_err", (est_distance - distance).abs());
            }
            other => panic!("unknown T17 phase {other:?}"),
        }
        out
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        // The online estimator and the offline remap-and-compare oracle
        // read the same sample stream; if they disagree, the
        // supervisor's drift trigger cannot be trusted.
        let mut violations = Vec::new();
        for c in &report.cells {
            if c.status != CellStatus::Ok || c.cell.config != "day2-repgo" {
                continue;
            }
            let err = c.metrics.get_f64("est_err").unwrap_or(f64::NAN);
            // NaN (estimate withheld / metric missing) must violate too.
            if err.is_nan() || err > 0.05 {
                violations.push(format!(
                    "{}: online estimator disagrees with the oracle distance (|err| = {err:.4})",
                    c.cell
                ));
            }
        }
        violations
    }
}
