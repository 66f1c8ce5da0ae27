//! T4 (§1): "modern CPUs have only 2 to 8 threads per physical core,
//! which is insufficient for SMT to fully hide the latency of events like
//! memory accesses".
//!
//! Sweeps the degree of concurrency on a DRAM-bound 4-chain lockstep
//! chase. The kernel is compute-light (≈6 ns of work per 100 ns of
//! misses), so hiding needs far more than 8 contexts' worth of
//! *switch-free* overlap — or, for coroutines, yield coalescing to
//! amortize switches across the four independent fills. SMT stops at the
//! hardware's 8 contexts (`eff_smt` is n/a past the limit); software
//! coroutines keep scaling.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::{fresh, interleave_checked, pgo_build};
use reach_core::{InterleaveOptions, PipelineOptions};
use reach_sim::{run_smt, MachineConfig};
use reach_workloads::{build_multi_chase, MultiChaseParams};

const MAX_N: usize = 64;
const SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32, 64];

fn params() -> MultiChaseParams {
    MultiChaseParams {
        chains: 4,
        nodes: 512,
        hops: 512,
        node_stride: 256,
        seed: 0x74,
    }
}

/// The T4 concurrency-sweep experiment.
pub struct T4Concurrency;

impl Experiment for T4Concurrency {
    fn name(&self) -> &'static str {
        "t4_concurrency"
    }

    fn title(&self) -> &'static str {
        "T4: CPU efficiency vs degree of concurrency (4-chain DRAM chase)"
    }

    fn notes(&self) -> &'static str {
        "SMT is capped by the hardware context count (n/a past it); \
         coalesced coroutine yields keep climbing well past it."
    }

    fn cells(&self) -> Vec<Cell> {
        SWEEP
            .iter()
            .map(|n| Cell::new("multi4", format!("n={n}")))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let n: usize = cell
            .config
            .strip_prefix("n=")
            .and_then(|s| s.parse().ok())
            .expect("config is n=<count>");
        let cfg = MachineConfig::default();
        let build = |mem: &mut _, alloc: &mut _| build_multi_chase(mem, alloc, params(), MAX_N + 1);

        let eff_smt = if n <= cfg.smt_max_contexts {
            let (mut m, w) = fresh(&cfg, build);
            let mut ctxs: Vec<_> = (0..n).map(|i| w.instances[i].make_context(i)).collect();
            run_smt(&mut m, &w.prog, &mut ctxs, 1 << 24).unwrap();
            m.counters.cpu_efficiency()
        } else {
            f64::NAN // past the hardware limit: no such machine exists
        };

        let built = pgo_build(&cfg, build, MAX_N, &PipelineOptions::default());
        let (mut m, w) = fresh(&cfg, build);
        interleave_checked(&mut m, &built.prog, &w, 0..n, &InterleaveOptions::default());
        let eff_coro = m.counters.cpu_efficiency();

        let mut out = CellMetrics::new();
        out.put_f64("eff_smt", eff_smt)
            .put_f64("eff_coro", eff_coro);
        out
    }
}
