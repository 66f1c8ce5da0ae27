//! T12 (§4.1): the hardware what-if — presence-probe-conditional yields.
//!
//! "Hardware support to expose events, e.g., indicating whether a cache
//! line is in L1/L2 cache, could be highly useful here, as it allows
//! yields to be conditional on whether targeted events actually happen."
//!
//! On a Zipf-skewed KV workload the instrumented value load misses only
//! part of the time: statically-placed primary yields pay a switch on
//! every execution, while probe-conditional yields pay only the (cheap)
//! check on the hit path. The sweep over skew shows the win growing as
//! the hit fraction rises.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::harness::{fresh, interleave_checked, pgo_build};
use reach_core::{make_conditional, InterleaveOptions, PipelineOptions};
use reach_instrument::{Policy, PrimaryOptions};
use reach_sim::MachineConfig;
use reach_workloads::{build_zipf_kv, ZipfKvParams};

const N: usize = 8;

const THETAS: &[&str] = &["0.0", "0.6", "0.9", "1.1"];
const BINARIES: &[&str] = &["static", "probe-cond"];

/// The T12 presence-probe what-if experiment.
pub(super) struct T12WhatIf;

impl Experiment for T12WhatIf {
    fn name(&self) -> &'static str {
        "t12_whatif"
    }

    fn title(&self) -> &'static str {
        "T12: static primary yields vs presence-probe conditional (zipf KV)"
    }

    fn notes(&self) -> &'static str {
        "shape: at high skew most lookups hit and the probe suppresses the \
         useless switches; at theta=0 nearly every lookup misses and the \
         probe only adds its check cost."
    }

    fn cells(&self) -> Vec<Cell> {
        THETAS
            .iter()
            .flat_map(|t| {
                BINARIES
                    .iter()
                    .map(move |b| Cell::new(format!("zipf-theta={t}"), *b))
            })
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let theta: f64 = cell
            .workload
            .strip_prefix("zipf-theta=")
            .and_then(|s| s.parse().ok())
            .expect("workload is zipf-theta=<f>");
        let cfg = MachineConfig::default();
        let params = ZipfKvParams {
            table_entries: 1 << 21,
            lookups: 8192,
            theta,
            seed: 0x712,
        };
        let build = |mem: &mut _, alloc: &mut _| build_zipf_kv(mem, alloc, params, N + 1);
        // Threshold policy on purpose: instrument the skewed load even at
        // moderate likelihood, then let the probe sort hits from misses at
        // run time (the paper's "place conditional yields at locations
        // that often but not always incur target events").
        let opts = PipelineOptions {
            primary: PrimaryOptions {
                policy: Policy::Threshold(0.2),
                ..PrimaryOptions::default()
            },
            ..PipelineOptions::default()
        };
        let built = pgo_build(&cfg, build, N, &opts);
        let prog = match cell.config.as_str() {
            "static" => built.prog,
            "probe-cond" => make_conditional(&built.prog),
            other => panic!("unknown T12 binary {other:?}"),
        };
        let (mut m, w) = fresh(&cfg, build);
        interleave_checked(&mut m, &prog, &w, 0..N, &InterleaveOptions::default());
        let mut out = CellMetrics::new();
        out.put_u64("yields_fired", m.counters.yields_fired)
            .put_u64("suppressed", m.counters.yields_suppressed)
            .put_f64("eff", m.counters.cpu_efficiency());
        out
    }
}
