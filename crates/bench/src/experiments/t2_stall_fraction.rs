//! T2 (§1): "some widely-used modern applications lose more than 60% of
//! all processor cycles due to memory-bound CPU stalls".
//!
//! Measures the stall-cycle fraction of each workload run plainly (no
//! hiding) on the default machine. The memory-bound kernels (pointer
//! chase, large hash probe, uniform KV over a DRAM-sized table) must land
//! above 60%; the locality controls (streaming scan, hot KV) stay below.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::fresh;
use reach_baselines::run_sequential;
use reach_sim::{MachineConfig, Memory};
use reach_workloads::{
    build_chase, build_hash, build_scan, build_search, build_zipf_kv, AddrAlloc, BuiltWorkload,
    ChaseParams, HashParams, ScanParams, SearchParams, ZipfKvParams,
};

/// Workload keys, in table order; the first four are the memory-bound
/// kernels the paper's claim covers, the last two the locality controls.
const WORKLOADS: &[&str] = &[
    "chase-dram",
    "hash-16mib",
    "kv-uniform",
    "binsearch-16mib",
    "kv-skewed",
    "scan-warm",
];

fn build(name: &str, mem: &mut Memory, alloc: &mut AddrAlloc) -> BuiltWorkload {
    match name {
        "chase-dram" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 8192,
                hops: 8192,
                node_stride: 4096,
                work_per_hop: 0,
                work_insts: 1,
                seed: 0x72,
            },
            1,
        ),
        "hash-16mib" => build_hash(
            mem,
            alloc,
            HashParams {
                capacity: 1 << 20, // 16 MiB > L3
                occupied: 500_000,
                lookups: 4096,
                hit_fraction: 0.8,
                seed: 0x72,
            },
            1,
        ),
        "kv-uniform" => build_zipf_kv(
            mem,
            alloc,
            ZipfKvParams {
                table_entries: 1 << 21,
                lookups: 8192,
                theta: 0.0, // uniform: the analytics-like worst case
                seed: 0x72,
            },
            1,
        ),
        "binsearch-16mib" => build_search(
            mem,
            alloc,
            SearchParams {
                array_len: 1 << 21,
                searches: 1024,
                seed: 0x72,
            },
            1,
        ),
        "kv-skewed" => build_zipf_kv(
            mem,
            alloc,
            ZipfKvParams {
                table_entries: 1 << 21,
                lookups: 8192,
                theta: 1.2, // hot head: the locality control
                seed: 0x72,
            },
            1,
        ),
        "scan-warm" => build_scan(
            mem,
            alloc,
            ScanParams {
                words: 1 << 15, // 256 KiB: L2-resident once warm
                passes: 8,
                seed: 0x72,
            },
            1,
        ),
        other => panic!("unknown T2 workload {other:?}"),
    }
}

/// The T2 stall-fraction experiment.
pub(super) struct T2StallFraction;

impl Experiment for T2StallFraction {
    fn name(&self) -> &'static str {
        "t2_stall_fraction"
    }

    fn title(&self) -> &'static str {
        "T2: memory-bound stall fraction, unhidden (paper: >60% for modern apps)"
    }

    fn notes(&self) -> &'static str {
        "claim holds if the memory-bound rows (chase, hash, uniform KV, \
         binary search) show stall > 60%."
    }

    fn cells(&self) -> Vec<Cell> {
        WORKLOADS.iter().map(|w| Cell::new(*w, "plain")).collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let (mut m, w) = fresh(&cfg, |mem, alloc| build(&cell.workload, mem, alloc));
        let mut ctxs = w.make_contexts();
        run_sequential(&mut m, &w.prog, &mut ctxs, 1 << 26).unwrap();
        for (i, c) in ctxs.iter().enumerate() {
            w.instances[i].assert_checksum(c);
        }
        let mut out = CellMetrics::new();
        out.put_f64("stall", m.counters.stall_fraction())
            .put_f64("busy", m.counters.cpu_efficiency());
        out
    }
}
