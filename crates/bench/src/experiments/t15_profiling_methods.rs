//! T15 (§2): instrumentation-based vs sample-based profiling.
//!
//! The paper's case for sampling: instrumentation-based profiling "incurs
//! significant CPU and memory overhead" and "cannot easily support our
//! proposal, because it is hard to obtain visibility into hardware events
//! like L2/L3 cache misses with only instrumentation".
//!
//! Both collectors run over the same workloads:
//!
//! * **counting instrumentation** — a load/add/store counter update at
//!   every load site: exact execution counts, zero event visibility, and
//!   overhead paid on *every* execution (plus counter-traffic cache
//!   pollution);
//! * **PEBS-style sampling** — periodic samples of miss loads, stall
//!   cycles and retired instructions: approximate counts, full event
//!   visibility, overhead proportional to the sampling rate.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::fresh;
use reach_instrument::{instrument_counting, R_COUNTER_BASE};
use reach_profile::{collect, CollectorConfig};
use reach_sim::{MachineConfig, Memory};
use reach_workloads::{
    build_chase, build_scan, build_tiered, AddrAlloc, BuiltWorkload, ChaseParams, ScanParams,
    TieredParams,
};

const WORKLOADS: &[&str] = &["pointer-chase", "tiered", "warm-scan"];
const METHODS: &[&str] = &["counting", "sampling"];

fn build(name: &str, mem: &mut Memory, alloc: &mut AddrAlloc) -> BuiltWorkload {
    match name {
        "pointer-chase" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 2048,
                hops: 2048,
                node_stride: 4096,
                work_per_hop: 10,
                work_insts: 1,
                seed: 0x715,
            },
            1,
        ),
        "tiered" => build_tiered(
            mem,
            alloc,
            &TieredParams {
                iters: 8192,
                ..TieredParams::default()
            },
            1,
        ),
        "warm-scan" => build_scan(
            mem,
            alloc,
            ScanParams {
                words: 1 << 12, // 32 KiB: L1-resident once warm
                passes: 16,
                seed: 0x715,
            },
            1,
        ),
        other => panic!("unknown T15 workload {other:?}"),
    }
}

/// The T15 profiling-method comparison.
pub(super) struct T15ProfilingMethods;

impl Experiment for T15ProfilingMethods {
    fn name(&self) -> &'static str {
        "t15_profiling_methods"
    }

    fn title(&self) -> &'static str {
        "T15: profiling method comparison (overhead and event visibility)"
    }

    fn notes(&self) -> &'static str {
        "shape: on stall-bound code the counter updates hide behind misses, \
         but on compute-bound code counting inflates run time severely — \
         and in every case it sees no hardware events: execution counts \
         alone cannot say which loads miss. Sampling's overhead is tunable \
         (T11) and it is the only method that exposes the events the \
         instrumenter needs."
    }

    fn cells(&self) -> Vec<Cell> {
        WORKLOADS
            .iter()
            .flat_map(|w| METHODS.iter().map(move |m| Cell::new(*w, *m)))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let wname = cell.workload.clone();
        let builder = |mem: &mut Memory, alloc: &mut AddrAlloc| build(&wname, mem, alloc);
        let mut out = CellMetrics::new();
        match cell.config.as_str() {
            "counting" => {
                // Clean run for the overhead baseline.
                let (mut m, w) = fresh(&cfg, builder);
                w.run_solo(&mut m, 0, 1 << 26);
                let clean_cycles = m.now;
                let clean_insts = m.counters.instructions;

                let (mut m, w) = fresh(&cfg, builder);
                let counted = instrument_counting(&w.prog).expect("counting pass");
                let counter_base = 0xF000_0000u64;
                let mut ctx = w.instances[0].make_context(0);
                ctx.set_reg(R_COUNTER_BASE, counter_base);
                m.run_to_completion(&counted.prog, &mut ctx, 1 << 26)
                    .unwrap();
                w.instances[0].assert_checksum(&ctx);
                let exec_counts: u64 = counted
                    .read_counts(&m, counter_base)
                    .unwrap()
                    .iter()
                    .map(|&(_, n)| n)
                    .sum();
                out.put_f64(
                    "cycle_overhead",
                    (m.now as f64 - clean_cycles as f64) / clean_cycles as f64,
                )
                .put_f64(
                    "inst_overhead",
                    (m.counters.instructions as f64 - clean_insts as f64) / clean_insts as f64,
                )
                .put_u64("exec_counts", exec_counts)
                .put_str("counts_kind", "exact")
                .put_u64("miss_sites", 0);
            }
            "sampling" => {
                let (mut m, w) = fresh(&cfg, builder);
                let mut ctxs = w.make_contexts();
                let (profile, cost) =
                    collect(&mut m, &w.prog, &mut ctxs, &CollectorConfig::default()).unwrap();
                let est_total: f64 = profile
                    .retired_samples
                    .values()
                    .map(|&n| n as f64 * profile.periods.retired as f64)
                    .sum();
                out.put_f64("cycle_overhead", cost.overhead())
                    .put_f64("inst_overhead", 0.0)
                    .put_f64("exec_counts", est_total)
                    .put_str("counts_kind", "estimated")
                    .put_u64("miss_sites", profile.l2_miss_samples.len() as u64);
            }
            other => panic!("unknown T15 method {other:?}"),
        }
        out
    }
}
