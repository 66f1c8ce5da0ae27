//! T5 (§1 + §3.3): "SMT is known to likely lead to significantly
//! increased latencies … our proposal can simultaneously achieve low
//! latency and high CPU efficiency."
//!
//! One latency-sensitive *query* (a cold DRAM pointer chase) co-runs with
//! 7 *batch* instances of the same binary whose working sets are cache-
//! resident (warm chases — pure compute from the core's point of view).
//! Measured: the query's latency inflation vs running alone, and machine
//! CPU efficiency:
//!
//! * solo — reference latency, efficiency wasted on stalls;
//! * SMT-8 co-run — fair hardware multiplexing: efficiency recovers but
//!   the query waits its 1/8 issue share (no priority exists);
//! * symmetric coroutines — fair software round-robin: same story;
//! * dual-mode — the query runs primary, batch scavenges its stalls:
//!   near-solo latency at high efficiency.
//!
//! `vs_solo` is derived in [`Experiment::finish`] from the solo cell, so
//! the four cells stay independent under the parallel driver.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::report::{BenchReport, CellStatus};
use reach_core::{
    pgo_pipeline, ratio, run_dual_mode, run_interleaved, DualModeOptions, InterleaveOptions,
    PipelineOptions,
};
use reach_sim::{run_smt, Context, Machine, MachineConfig, Memory};
use reach_workloads::{build_chase, AddrAlloc, BuiltWorkload, ChaseParams};

const POOL: usize = 7;
const WORK: u32 = 30;

const MECHANISMS: &[&str] = &["solo", "smt8", "coro-sym", "dual-mode"];

fn query_params() -> ChaseParams {
    ChaseParams {
        nodes: 1024,
        hops: 1024,
        node_stride: 4096, // page-spread: every hop misses DRAM
        work_per_hop: WORK,
        work_insts: 1,
        seed: 0x75,
    }
}

fn batch_params() -> ChaseParams {
    ChaseParams {
        nodes: 64, // 16 KiB: L1-resident after the first lap
        hops: 8192,
        node_stride: 256,
        work_per_hop: WORK, // same program text as the query
        work_insts: 1,
        seed: 0x76,
    }
}

/// Lays out 1 query instance (+1 for profiling) and `POOL` batch
/// instances; both workloads share one program image.
fn fresh_setup(cfg: &MachineConfig) -> (Machine, BuiltWorkload, BuiltWorkload) {
    fn setup(mem: &mut Memory, alloc: &mut AddrAlloc) -> (BuiltWorkload, BuiltWorkload) {
        let q = build_chase(mem, alloc, query_params(), 2);
        let b = build_chase(mem, alloc, batch_params(), POOL);
        assert_eq!(q.prog, b.prog, "same binary for query and batch");
        (q, b)
    }
    let mut m = Machine::new(cfg.clone());
    let mut alloc = AddrAlloc::new(crate::LAYOUT_BASE);
    let (q, b) = setup(&mut m.mem, &mut alloc);
    (m, q, b)
}

fn contexts(q: &BuiltWorkload, b: &BuiltWorkload) -> Vec<Context> {
    let mut v = vec![q.instances[0].make_context(0)];
    v.extend((0..POOL).map(|i| b.instances[i].make_context(i + 1)));
    v
}

/// The T5 tail-latency experiment.
pub struct T5Latency;

impl Experiment for T5Latency {
    fn name(&self) -> &'static str {
        "t5_latency"
    }

    fn title(&self) -> &'static str {
        "T5: high-priority query latency when co-run with 7 batch instances"
    }

    fn notes(&self) -> &'static str {
        "shape: SMT and fair round-robin inflate the query several-fold; \
         dual-mode keeps it near solo while efficiency stays high."
    }

    fn cells(&self) -> Vec<Cell> {
        MECHANISMS
            .iter()
            .map(|m| Cell::new("query+batch", *m))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let mut out = CellMetrics::new();
        let (lat, eff) = match cell.config.as_str() {
            "solo" => {
                let (mut m, q, _b) = fresh_setup(&cfg);
                let ctx = q.run_solo(&mut m, 0, 1 << 24);
                (ctx.stats.latency().unwrap(), m.counters.cpu_efficiency())
            }
            "smt8" => {
                // Uninstrumented binary: hardware needs no rewriting.
                let (mut m, q, b) = fresh_setup(&cfg);
                let mut ctxs = contexts(&q, &b);
                let rep = run_smt(&mut m, &q.prog, &mut ctxs, 1 << 24).unwrap();
                q.instances[0].assert_checksum(&ctxs[0]);
                (rep.latencies[0].unwrap(), m.counters.cpu_efficiency())
            }
            "coro-sym" | "dual-mode" => {
                // Instrument once, profiling the query-shaped instance.
                let (mut pm, pq, _pb) = fresh_setup(&cfg);
                let mut prof = vec![pq.instances[1].make_context(99)];
                let built = pgo_pipeline(&mut pm, &pq.prog, &mut prof, &PipelineOptions::default())
                    .unwrap();
                if cell.config == "coro-sym" {
                    let (mut m, q, b) = fresh_setup(&cfg);
                    let mut ctxs = contexts(&q, &b);
                    let rep = run_interleaved(
                        &mut m,
                        &built.prog,
                        &mut ctxs,
                        &InterleaveOptions::default(),
                    )
                    .unwrap();
                    q.instances[0].assert_checksum(&ctxs[0]);
                    (rep.latencies[0].unwrap(), m.counters.cpu_efficiency())
                } else {
                    let (mut m, q, b) = fresh_setup(&cfg);
                    let mut primary = q.instances[0].make_context(0);
                    let mut scavs: Vec<Context> = (0..POOL)
                        .map(|i| b.instances[i].make_context(i + 1))
                        .collect();
                    let rep = run_dual_mode(
                        &mut m,
                        &built.prog,
                        &mut primary,
                        &built.prog,
                        &mut scavs,
                        &DualModeOptions::default(),
                    )
                    .unwrap();
                    q.instances[0].assert_checksum(&primary);
                    (rep.primary_latency.unwrap(), m.counters.cpu_efficiency())
                }
            }
            other => panic!("unknown T5 mechanism {other:?}"),
        };
        out.put_u64("latency_cyc", lat).put_f64("eff", eff);
        out
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        let solo = report
            .cell("query+batch", "solo")
            .filter(|c| c.status == CellStatus::Ok)
            .and_then(|c| c.metrics.get_f64("latency_cyc"));
        for c in &mut report.cells {
            if c.status != CellStatus::Ok {
                continue;
            }
            let vs = match (c.metrics.get_f64("latency_cyc"), solo) {
                (Some(lat), Some(s)) => ratio(lat as u64, s as u64),
                _ => f64::NAN,
            };
            c.metrics.put_f64("vs_solo", vs);
        }
        Vec::new()
    }
}
