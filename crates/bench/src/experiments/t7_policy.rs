//! T7 (§3.2): the yield-insertion trade-off and the policies that
//! navigate it.
//!
//! "Aggressive instrumentation minimizes CPU stalls due to uninstrumented
//! cache misses, at the risk of incurring unnecessary overhead if a load
//! turns out to be a cache hit." On the tiered workload, the four sites'
//! miss likelihoods are ≈ {0, mixed, ~1, ~1} but their *stalls* differ
//! sharply (L3-resident ≈ 4 ns visible, DRAM ≈ 90 ns): a pure likelihood
//! threshold cannot distinguish the L3 site (likely miss, not worth a
//! switch) from the DRAM site (likely miss, very worth it) — the
//! quantitative gain/cost model can.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::harness::{fresh, interleave_checked, pgo_build};
use reach_core::{InterleaveOptions, PipelineOptions};
use reach_instrument::{Policy, PrimaryOptions};
use reach_sim::MachineConfig;
use reach_workloads::{build_tiered, TieredParams};

const N: usize = 8;

const POLICIES: &[&str] = &[
    "threshold-0.01",
    "threshold-0.1",
    "threshold-0.3",
    "threshold-0.5",
    "threshold-0.7",
    "threshold-0.9",
    "threshold-0.99",
    "top-1",
    "top-2",
    "cost-margin-1.0",
    "all",
];

fn policy(config: &str) -> Policy {
    if let Some(thr) = config.strip_prefix("threshold-") {
        return Policy::Threshold(thr.parse().expect("threshold value"));
    }
    if let Some(k) = config.strip_prefix("top-") {
        return Policy::TopK(k.parse().expect("top-k value"));
    }
    if let Some(margin) = config.strip_prefix("cost-margin-") {
        return Policy::CostModel {
            margin: margin.parse().expect("margin value"),
        };
    }
    assert_eq!(config, "all", "unknown T7 policy {config:?}");
    Policy::All
}

/// The T7 insertion-policy sweep.
pub(super) struct T7Policy;

impl Experiment for T7Policy {
    fn name(&self) -> &'static str {
        "t7_policy"
    }

    fn title(&self) -> &'static str {
        "T7: insertion policy sweep (tiered workload, per-site stalls differ)"
    }

    fn notes(&self) -> &'static str {
        "shape: low thresholds over-instrument (hit sites pay switches), \
         very high thresholds miss the DRAM site; the gain/cost model picks \
         only the sites whose hidden stall beats the switch price."
    }

    fn cells(&self) -> Vec<Cell> {
        POLICIES.iter().map(|p| Cell::new("tiered", *p)).collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let params = TieredParams {
            iters: 8192,
            ..TieredParams::default()
        };
        let build = |mem: &mut _, alloc: &mut _| build_tiered(mem, alloc, &params, N + 1);
        let opts = PipelineOptions {
            primary: PrimaryOptions {
                policy: policy(&cell.config),
                ..PrimaryOptions::default()
            },
            ..PipelineOptions::default()
        };
        let built = pgo_build(&cfg, build, N, &opts);
        let (mut m, w) = fresh(&cfg, build);
        interleave_checked(&mut m, &built.prog, &w, 0..N, &InterleaveOptions::default());
        let mut out = CellMetrics::new();
        out.put_u64("sites", built.primary_report.sites_selected() as u64)
            .put_u64("yields_fired", m.counters.yields_fired)
            .put_f64("eff", m.counters.cpu_efficiency());
        out
    }
}
