//! T14 (extension): does a hardware stride prefetcher make the software
//! mechanism unnecessary?
//!
//! The paper targets events "not exposed to software" that hardware also
//! cannot *predict* — irregular, dependent accesses. A next-line
//! prefetcher (degree 4, streamer-style) is switched on and the unhidden
//! stall fraction plus the PGO-coroutine efficiency are re-measured on a
//! streaming scan (stride-predictable) and a pointer chase
//! (unpredictable):
//!
//! * the prefetcher nearly eliminates the scan's stalls — hardware owns
//!   the regular patterns, exactly why the cost model should leave them
//!   alone;
//! * the chase is untouched by the prefetcher, and profile-guided
//!   coroutines hide it the same either way — the two mechanisms
//!   complement, not compete.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::{fresh, interleave_checked, pgo_build};
use reach_baselines::run_sequential;
use reach_core::{InterleaveOptions, PipelineOptions};
use reach_sim::{MachineConfig, Memory};
use reach_workloads::{build_chase, build_scan, AddrAlloc, BuiltWorkload, ChaseParams, ScanParams};

const N: usize = 8;

const WORKLOADS: &[&str] = &["stream-scan", "pointer-chase"];
const PREFETCH: &[&str] = &["hwpf=off", "hwpf=on"];

fn build(name: &str, mem: &mut Memory, alloc: &mut AddrAlloc) -> BuiltWorkload {
    match name {
        "pointer-chase" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 1024,
                hops: 1024,
                node_stride: 4096,
                work_per_hop: 20,
                work_insts: 1,
                seed: 0x714,
            },
            N + 1,
        ),
        "stream-scan" => build_scan(
            mem,
            alloc,
            ScanParams {
                words: 1 << 16,
                passes: 1,
                seed: 0x714,
            },
            N + 1,
        ),
        other => panic!("unknown T14 workload {other:?}"),
    }
}

/// The T14 hardware-prefetcher interaction experiment.
pub struct T14HwPrefetcher;

impl Experiment for T14HwPrefetcher {
    fn name(&self) -> &'static str {
        "t14_hw_prefetcher"
    }

    fn title(&self) -> &'static str {
        "T14: hardware stream prefetcher (degree 4) vs the software mechanism"
    }

    fn notes(&self) -> &'static str {
        "shape: the prefetcher erases the scan's (predictable) stalls and \
         leaves the chase's (dependent) stalls untouched; profile-guided \
         coroutines keep hiding the chase either way — the mechanisms are \
         complementary, which is why the paper targets the irregular case."
    }

    fn cells(&self) -> Vec<Cell> {
        PREFETCH
            .iter()
            .flat_map(|p| WORKLOADS.iter().map(move |w| Cell::new(*w, *p)))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let degree = match cell.config.as_str() {
            "hwpf=off" => 0,
            "hwpf=on" => 4,
            other => panic!("unknown T14 config {other:?}"),
        };
        let cfg = MachineConfig {
            hw_prefetch_degree: degree,
            ..MachineConfig::default()
        };
        let wname = cell.workload.clone();
        let builder = |mem: &mut Memory, alloc: &mut AddrAlloc| build(&wname, mem, alloc);

        // Unhidden stall fraction.
        let (mut m, w) = fresh(&cfg, builder);
        let mut ctxs = w.make_contexts();
        ctxs.truncate(N);
        run_sequential(&mut m, &w.prog, &mut ctxs, 1 << 26).unwrap();
        let stall = m.counters.stall_fraction();

        // PGO coroutines.
        let built = pgo_build(&cfg, builder, N, &PipelineOptions::default());
        let (mut m, w) = fresh(&cfg, builder);
        interleave_checked(&mut m, &built.prog, &w, 0..N, &InterleaveOptions::default());
        let coro = m.counters.cpu_efficiency();

        let mut out = CellMetrics::new();
        out.put_f64("stall_unhidden", stall)
            .put_f64("eff_coro", coro);
        out
    }
}
