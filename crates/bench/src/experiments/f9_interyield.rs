//! F9 (§3.3): scavenger instrumentation bounds the inter-yield interval.
//!
//! Primary yields land only where misses are likely, so on a
//! compute-heavy region "adjacent yields can be arbitrarily far apart".
//! The scavenger pass inserts conditional yields targeting a bounded
//! interval, using profiled load costs for the common case and a static
//! worst-case dataflow for the rest.
//!
//! A workload alternating DRAM-missing hops with a long compute burst
//! makes the gap visible. Each cell reports the *static* worst-case bound
//! from the pass (`static_max_cyc`, n/a = unbounded) and the *measured*
//! distribution of gaps between fired yields of scavenger-mode
//! coroutines; the target sweep (150–1200 cycles) quantifies the §3.3
//! tension between timely yielding and check/switch overhead.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::{fresh, pgo_build};
use reach_core::{percentiles, run_interleaved, InterleaveOptions, PipelineOptions};
use reach_instrument::ScavengerOptions;
use reach_sim::{Context, MachineConfig, Mode};
use reach_workloads::{build_chase, ChaseParams};

const N: usize = 8;

const CONFIGS: &[&str] = &[
    "primary-only",
    "scav-150",
    "scav-300",
    "scav-600",
    "scav-1200",
];

fn params() -> ChaseParams {
    ChaseParams {
        nodes: 512,
        hops: 512,
        node_stride: 4096,
        work_per_hop: 100, // 7 x 100 cycles: ~233 ns of compute per hop,
        work_insts: 7,     // splittable at instruction granularity
        seed: 0xf9,
    }
}

/// The F9 inter-yield-interval experiment.
pub struct F9InterYield;

impl Experiment for F9InterYield {
    fn name(&self) -> &'static str {
        "f9_interyield"
    }

    fn title(&self) -> &'static str {
        "F9: inter-yield interval, primary-only vs scavenger pass (target in cycles)"
    }

    fn notes(&self) -> &'static str {
        "shape: without the scavenger pass the compute burst (~700 cyc) \
         stretches the gap far past any target (static max n/a = unbounded); \
         with it both the static bound and the measured tail collapse to \
         ~the target — and halving the target roughly doubles the \
         conditional yields and their overhead."
    }

    fn cells(&self) -> Vec<Cell> {
        CONFIGS
            .iter()
            .map(|c| Cell::new("chase-burst", *c))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let build = |mem: &mut _, alloc: &mut _| build_chase(mem, alloc, params(), N + 1);
        let scav = cell.config.strip_prefix("scav-").map(|t| ScavengerOptions {
            target_interval: t.parse().expect("target cycles"),
            use_liveness: true,
        });
        let opts = PipelineOptions {
            scavenger: scav,
            ..PipelineOptions::default()
        };
        let built = pgo_build(&cfg, build, N, &opts);

        let (scav_yields, static_max) = match &built.scavenger_report {
            Some(r) => (
                r.yields_inserted as u64,
                r.max_interval_after.map(|v| v as f64).unwrap_or(f64::NAN),
            ),
            None => {
                // Analyze the primary-only binary by running the pass with
                // an enormous target (no insertions, report only).
                let probe = reach_instrument::instrument_scavenger(
                    &built.prog,
                    Some((&built.profile, &built.origin)),
                    &cfg,
                    &ScavengerOptions {
                        target_interval: u64::MAX / 4,
                        use_liveness: true,
                    },
                )
                .unwrap()
                .1;
                (
                    0,
                    probe
                        .max_interval_before
                        .map(|v| v as f64)
                        .unwrap_or(f64::NAN),
                )
            }
        };

        // Measure the fired-yield gap distribution in scavenger mode.
        let (mut m, w) = fresh(&cfg, build);
        let mut ctxs: Vec<Context> = (0..N)
            .map(|i| {
                let mut c = w.instances[i].make_context(i);
                c.mode = Mode::Scavenger; // conditional yields armed
                c
            })
            .collect();
        let iopts = InterleaveOptions {
            record_intervals: true,
            ..InterleaveOptions::default()
        };
        let rep = run_interleaved(&mut m, &built.prog, &mut ctxs, &iopts).unwrap();
        for (i, c) in ctxs.iter().enumerate() {
            w.instances[i].assert_checksum(c);
        }
        let ps = percentiles(&rep.intervals, &[0.5, 0.95]);
        let overhead = (m.counters.check_cycles + m.counters.switch_cycles) as f64
            / m.counters.total_cycles() as f64;

        let mut out = CellMetrics::new();
        out.put_u64("scav_yields", scav_yields)
            .put_f64("static_max_cyc", static_max)
            .put_u64("p50_cyc", ps[0])
            .put_u64("p95_cyc", ps[1])
            .put_u64("max_cyc", rep.intervals.iter().copied().max().unwrap_or(0))
            .put_f64("overhead", overhead);
        out
    }
}
