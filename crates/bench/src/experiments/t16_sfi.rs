//! T16 (§4.2): coroutine isolation — SFI overhead with and without miss
//! hiding.
//!
//! The paper notes the mechanism "can co-exist with either isolation
//! mechanism" and asks "whether a co-design of SFI and our proposal can
//! help reduce the runtime overhead of SFI". First-order numbers: the SFI
//! pass (address masking before every memory access) is applied and
//! measured under the plain sequential run and under profile-guided
//! coroutine interleaving.
//!
//! The shape worth knowing: on a stall-dominated run SFI's checks hide in
//! the shadow of the misses (tiny relative cost); once the mechanism
//! hides the misses, the run becomes busy-bound and SFI's checks surface
//! at their full instruction cost. Isolation is cheap exactly when the
//! CPU is being wasted — one more reason to co-design the two rewriters
//! (both passes share the same decode/CFG machinery here).
//!
//! `overhead_vs_plain` is derived in [`Experiment::finish`] from the
//! matching plain cell, so the four cells stay independent under the
//! parallel driver.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::fresh;
use crate::report::{BenchReport, CellStatus};
use reach_baselines::run_sequential;
use reach_core::{pgo_pipeline, run_interleaved, InterleaveOptions, PipelineOptions};
use reach_instrument::{instrument_sfi, R_SFI_MASK};
use reach_sim::{Context, MachineConfig, Program};
use reach_workloads::{build_chase, BuiltWorkload, ChaseParams};

const N: usize = 8;
const MASK: u64 = u64::MAX >> 8; // generous domain: all layout addresses fit

const BINARIES: &[&str] = &["plain", "sfi"];
const EXECUTORS: &[&str] = &["seq", "coro"];

fn params() -> ChaseParams {
    ChaseParams {
        nodes: 1024,
        hops: 1024,
        node_stride: 4096,
        work_per_hop: 20,
        work_insts: 1,
        seed: 0x716,
    }
}

fn contexts(w: &BuiltWorkload, n: usize) -> Vec<Context> {
    (0..n)
        .map(|i| {
            let mut c = w.instances[i].make_context(i);
            c.set_reg(R_SFI_MASK, MASK);
            c
        })
        .collect()
}

/// Builds the PGO-instrumented version of `prog`, profiling instance `N`.
fn pgo(prog: &Program, cfg: &MachineConfig) -> Program {
    let (mut m, w) = fresh(cfg, |mem, alloc| build_chase(mem, alloc, params(), N + 1));
    let mut prof = vec![{
        let mut c = w.instances[N].make_context(99);
        c.set_reg(R_SFI_MASK, MASK);
        c
    }];
    pgo_pipeline(&mut m, prog, &mut prof, &PipelineOptions::default())
        .expect("pipeline")
        .prog
}

/// The T16 SFI-overhead experiment.
pub struct T16Sfi;

impl Experiment for T16Sfi {
    fn name(&self) -> &'static str {
        "t16_sfi"
    }

    fn title(&self) -> &'static str {
        "T16: SFI (address masking) overhead, sequential vs hidden"
    }

    fn notes(&self) -> &'static str {
        "shape: SFI rides almost free while stalls dominate, and surfaces \
         at full cost once hiding makes the run busy-bound — quantifying \
         the co-design question §4.2 raises."
    }

    fn cells(&self) -> Vec<Cell> {
        EXECUTORS
            .iter()
            .flat_map(|e| BINARIES.iter().map(move |b| Cell::new(*b, *e)))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let build = |mem: &mut _, alloc: &mut _| build_chase(mem, alloc, params(), N + 1);

        let (_, w0) = fresh(&cfg, build);
        let (base, guarded) = match cell.workload.as_str() {
            "plain" => (w0.prog.clone(), 0u64),
            "sfi" => {
                let (prog, rep) = instrument_sfi(&w0.prog).expect("sfi pass");
                (prog, rep.guarded as u64)
            }
            other => panic!("unknown T16 binary {other:?}"),
        };

        let (mut m, w) = fresh(&cfg, build);
        let mut ctxs = contexts(&w, N);
        match cell.config.as_str() {
            "seq" => {
                run_sequential(&mut m, &base, &mut ctxs, 1 << 26).unwrap();
            }
            "coro" => {
                let instrumented = pgo(&base, &cfg);
                let r = run_interleaved(
                    &mut m,
                    &instrumented,
                    &mut ctxs,
                    &InterleaveOptions::default(),
                )
                .unwrap();
                assert_eq!(r.completed, N);
            }
            other => panic!("unknown T16 executor {other:?}"),
        }
        for (i, c) in ctxs.iter().enumerate() {
            w.instances[i].assert_checksum(c);
        }

        let mut out = CellMetrics::new();
        out.put_u64("cycles", m.now)
            .put_f64("eff", m.counters.cpu_efficiency())
            .put_u64("guarded", guarded);
        out
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        for executor in EXECUTORS {
            let plain = report
                .cell("plain", executor)
                .filter(|c| c.status == CellStatus::Ok)
                .and_then(|c| c.metrics.get_f64("cycles"));
            if let Some(c) = report.cell_mut("sfi", executor) {
                if c.status != CellStatus::Ok {
                    continue;
                }
                let overhead = match (c.metrics.get_f64("cycles"), plain) {
                    (Some(sfi), Some(p)) if p > 0.0 => sfi / p - 1.0,
                    _ => f64::NAN,
                };
                c.metrics.put_f64("overhead_vs_plain", overhead);
            }
        }
        Vec::new()
    }
}
