//! F1 (Figure 1): which mechanism hides events of which duration?
//!
//! Sweeps the memory-event latency from ~1 ns to 10 µs and measures CPU
//! efficiency under every mechanism on a 4-chain lockstep pointer chase
//! (compute-light, miss-heavy — the regime the paper targets):
//!
//! * **OoOE (sequential)** — the core's overlap window alone;
//! * **SMT-2 / SMT-8** — switch-on-stall hardware threads;
//! * **coroutines + PGO** — the paper's mechanism, 16 software contexts;
//! * **OS threads** — the same interleaving at 1 µs switch cost.
//!
//! Expected shape (Figure 1): OoOE suffices below ~10 ns and collapses
//! after; SMT helps but saturates at its 2–8 contexts; profile-guided
//! coroutines dominate the 10 ns–1 µs middle band; OS threads only become
//! *viable* (≫ sequential) at µs scale.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::harness::{fresh, interleave_checked, pgo_build};
use reach_baselines::run_sequential;
use reach_core::{InterleaveOptions, PipelineOptions, SwitchMode};
use reach_sim::{run_smt, MachineConfig};
use reach_workloads::{build_multi_chase, MultiChaseParams};

const CORO_N: usize = 16;

/// (mem_latency cycles, cell config key).
const DURATIONS: &[(u64, &str)] = &[
    (3, "event=1ns"),
    (15, "event=5ns"),
    (30, "event=10ns"),
    (90, "event=30ns"),
    (300, "event=100ns"),
    (900, "event=300ns"),
    (3000, "event=1us"),
    (9000, "event=3us"),
    (30000, "event=10us"),
];

fn config_for(mem_latency: u64) -> MachineConfig {
    let mut cfg = MachineConfig::default();
    // A flat fast hierarchy so the *single* swept event dominates.
    cfg.l1.hit_latency = 1;
    cfg.l2.hit_latency = 2;
    cfg.l3.hit_latency = 3;
    cfg.mem_latency = mem_latency;
    cfg
}

fn params() -> MultiChaseParams {
    MultiChaseParams {
        chains: 4,
        nodes: 512,
        hops: 512,
        node_stride: 256,
        seed: 0xf1,
    }
}

/// The F1 mechanism-spectrum experiment.
pub(super) struct F1Spectrum;

impl Experiment for F1Spectrum {
    fn name(&self) -> &'static str {
        "f1_spectrum"
    }

    fn title(&self) -> &'static str {
        "F1: CPU efficiency vs event duration (4-chain pointer chase)"
    }

    fn notes(&self) -> &'static str {
        "shape check: OoOE handles <=10ns; SMT saturates at 8 contexts; \
         coroutines+PGO own the 10ns-1us band; threads only catch up near 1us+."
    }

    fn cells(&self) -> Vec<Cell> {
        DURATIONS
            .iter()
            .map(|&(_, label)| Cell::new("multi4", label))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let &(d, _) = DURATIONS
            .iter()
            .find(|(_, label)| *label == cell.config)
            .expect("known duration");
        let cfg = config_for(d);
        let build =
            |mem: &mut _, alloc: &mut _| build_multi_chase(mem, alloc, params(), CORO_N + 1);

        // OoOE only: one instance, sequential.
        let (mut m, w) = fresh(&cfg, build);
        let mut ctxs = vec![w.instances[0].make_context(0)];
        run_sequential(&mut m, &w.prog, &mut ctxs, 1 << 24).unwrap();
        let seq_eff = m.counters.cpu_efficiency();

        // SMT with 2 and 8 hardware contexts.
        let smt_eff = |n: usize| {
            let (mut m, w) = fresh(&cfg, build);
            let mut ctxs: Vec<_> = (0..n).map(|i| w.instances[i].make_context(i)).collect();
            run_smt(&mut m, &w.prog, &mut ctxs, 1 << 24).unwrap();
            m.counters.cpu_efficiency()
        };
        let smt2 = smt_eff(2);
        let smt8 = smt_eff(8);

        // Coroutines + PGO (the paper's mechanism).
        let built = pgo_build(&cfg, build, CORO_N, &PipelineOptions::default());
        let (mut m, w) = fresh(&cfg, build);
        interleave_checked(
            &mut m,
            &built.prog,
            &w,
            0..CORO_N,
            &InterleaveOptions::default(),
        );
        let coro_eff = m.counters.cpu_efficiency();

        // OS threads over the same instrumented binary.
        let (mut m, w) = fresh(&cfg, build);
        let topts = InterleaveOptions {
            switch: SwitchMode::Thread,
            ..InterleaveOptions::default()
        };
        interleave_checked(&mut m, &built.prog, &w, 0..CORO_N, &topts);
        let thread_eff = m.counters.cpu_efficiency();

        let mut out = CellMetrics::new();
        out.put_f64("eff_seq", seq_eff)
            .put_f64("eff_smt2", smt2)
            .put_f64("eff_smt8", smt8)
            .put_f64("eff_coro16", coro_eff)
            .put_f64("eff_thread16", thread_eff);
        out
    }
}
