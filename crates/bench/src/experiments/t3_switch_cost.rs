//! T3 (§1/§2): context-switch costs across mechanisms.
//!
//! The paper's numbers: coroutine switches < 10 ns (9 ns for Boost
//! fcontext_t), OS thread/process switches several hundred ns to a few µs
//! [14, 38], SMT switches effectively free but capped at 2–8 contexts.
//! Each cell reports (a) the modelled cost from the machine
//! configuration, and (b) the *measured* per-switch cost extracted from
//! an instrumented run (switch cycles / switches), including the liveness
//! save-set reduction.
//!
//! All of it is simulated. The host machine's real resume cost has no
//! calibrated workload in `benchmark/` and is therefore not quoted;
//! `examples/host_interleaving.rs` shows the mechanism on real hardware.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::harness::{fresh, interleave_checked, pgo_build};
use crate::table::cyc_ns;
use reach_core::{InterleaveOptions, PipelineOptions, SwitchMode};
use reach_instrument::PrimaryOptions;
use reach_sim::{MachineConfig, NUM_REGS};
use reach_workloads::{build_chase, ChaseParams};

const N: usize = 8;

const MECHANISMS: &[&str] = &["coro-full", "coro-liveness", "smt", "thread"];

fn params() -> ChaseParams {
    ChaseParams {
        nodes: 1024,
        hops: 1024,
        node_stride: 4096,
        work_per_hop: 10,
        work_insts: 1,
        seed: 0x73,
    }
}

fn measured_switch(cfg: &MachineConfig, use_liveness: bool, mode: SwitchMode) -> (f64, u64) {
    let opts = PipelineOptions {
        primary: PrimaryOptions {
            use_liveness,
            ..PrimaryOptions::default()
        },
        ..PipelineOptions::default()
    };
    let build = |mem: &mut _, alloc: &mut _| build_chase(mem, alloc, params(), N + 1);
    let built = pgo_build(cfg, build, N, &opts);
    let (mut m, w) = fresh(cfg, build);
    let iopts = InterleaveOptions {
        switch: mode,
        ..InterleaveOptions::default()
    };
    let (rep, _) = interleave_checked(&mut m, &built.prog, &w, 0..N, &iopts);
    (
        m.counters.switch_cycles as f64 / rep.switches.max(1) as f64,
        rep.switches,
    )
}

/// The T3 switch-cost experiment.
pub(super) struct T3SwitchCost;

impl Experiment for T3SwitchCost {
    fn name(&self) -> &'static str {
        "t3_switch_cost"
    }

    fn title(&self) -> &'static str {
        "T3: context switch cost by mechanism"
    }

    fn notes(&self) -> &'static str {
        "the paper's 9 ns-class coroutine switch is orders of magnitude \
         cheaper than a 1 us thread switch; liveness shrinks each save set \
         further (compare the coro rows' measured cost)."
    }

    fn cells(&self) -> Vec<Cell> {
        MECHANISMS.iter().map(|m| Cell::new("chase", *m)).collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let full = cfg.coro_switch_cost(NUM_REGS as u8);
        let mut out = CellMetrics::new();
        let (modelled, measured, switches) = match cell.config.as_str() {
            "coro-full" => {
                let (c, s) = measured_switch(&cfg, false, SwitchMode::Coroutine);
                (cyc_ns(full, cfg.clock_ghz), c, s)
            }
            "coro-liveness" => {
                let (c, s) = measured_switch(&cfg, true, SwitchMode::Coroutine);
                (
                    format!(
                        "{} .. {}",
                        cyc_ns(cfg.coro_switch_cost(0), cfg.clock_ghz),
                        cyc_ns(full, cfg.clock_ghz)
                    ),
                    c,
                    s,
                )
            }
            "smt" => (cyc_ns(cfg.smt_switch, cfg.clock_ghz), 0.0, 0),
            "thread" => {
                let (c, s) = measured_switch(&cfg, true, SwitchMode::Thread);
                (cyc_ns(cfg.thread_switch, cfg.clock_ghz), c, s)
            }
            other => panic!("unknown T3 mechanism {other:?}"),
        };
        out.put_str("modelled", modelled)
            .put_f64("measured_cyc", measured)
            .put_f64("measured_ns", measured / cfg.clock_ghz)
            .put_u64("switches", switches);
        out
    }
}
