//! T8 (§3.2): ablation of the two instrumentation optimizations —
//! liveness-minimized save sets and yield coalescing.
//!
//! On the 4-chain lockstep chase every iteration has four adjacent
//! independent likely-miss loads. Coalescing folds their four switches
//! into one; liveness shrinks each switch's save set from the full
//! architectural file to the handful of live registers. The matrix shows
//! all four combinations.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::harness::{fresh, interleave_checked, pgo_build};
use reach_core::{InterleaveOptions, PipelineOptions};
use reach_instrument::PrimaryOptions;
use reach_sim::MachineConfig;
use reach_workloads::{build_multi_chase, MultiChaseParams};

const N: usize = 16;

const COMBOS: &[(&str, bool, bool)] = &[
    ("live=no,coal=no", false, false),
    ("live=no,coal=yes", false, true),
    ("live=yes,coal=no", true, false),
    ("live=yes,coal=yes", true, true),
];

/// The T8 optimization-ablation experiment.
pub(super) struct T8Ablation;

impl Experiment for T8Ablation {
    fn name(&self) -> &'static str {
        "t8_ablation"
    }

    fn title(&self) -> &'static str {
        "T8: optimization ablation (4-chain chase, 16 coroutines)"
    }

    fn notes(&self) -> &'static str {
        "shape: coalescing quarters the switches (4 chains per yield); \
         liveness shrinks each switch; together they set the efficiency \
         ceiling of the mechanism on switch-bound kernels."
    }

    fn cells(&self) -> Vec<Cell> {
        COMBOS
            .iter()
            .map(|&(config, _, _)| Cell::new("multi4", config))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let &(_, live, coal) = COMBOS
            .iter()
            .find(|(config, _, _)| *config == cell.config)
            .expect("known combo");
        let cfg = MachineConfig::default();
        let params = MultiChaseParams {
            chains: 4,
            nodes: 512,
            hops: 512,
            node_stride: 256,
            seed: 0x78,
        };
        let build = |mem: &mut _, alloc: &mut _| build_multi_chase(mem, alloc, params, N + 1);
        let opts = PipelineOptions {
            primary: PrimaryOptions {
                use_liveness: live,
                coalesce: coal,
                ..PrimaryOptions::default()
            },
            ..PipelineOptions::default()
        };
        let built = pgo_build(&cfg, build, N, &opts);
        let (mut m, w) = fresh(&cfg, build);
        let (rep, _) =
            interleave_checked(&mut m, &built.prog, &w, 0..N, &InterleaveOptions::default());
        let mut out = CellMetrics::new();
        out.put_u64(
            "yields_inserted",
            built.primary_report.yields_inserted as u64,
        )
        .put_f64(
            "cyc_per_switch",
            m.counters.switch_cycles as f64 / rep.switches.max(1) as f64,
        )
        .put_u64("switch_cyc", m.counters.switch_cycles)
        .put_f64("eff", m.counters.cpu_efficiency());
        out
    }
}
