//! F6 (§2): manual CoroBase-style instrumentation vs profile-guided.
//!
//! The developer "decides where these events may happen and hard codes
//! event handlers at these locations at development time" — i.e. a
//! prefetch+yield at every pointer dereference, with a full-register save
//! (no liveness tooling). Profile-guided instrumentation instead measures
//! where stalls actually come from and models the gain.
//!
//! Three workloads separate the regimes:
//!
//! * **cold chase** — misses exactly where the developer expects: PGO must
//!   *match* manual;
//! * **hot hash probe** — the dereferences nearly always hit: manual pays
//!   prefetch+switch on every probe for nothing, PGO inserts nothing;
//! * **tiered sites** — four syntactically identical dereferences with
//!   wildly different miss behaviour: the developer cannot tell them
//!   apart, the profile can.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::harness::{fresh, interleave_checked, pgo_build};
use reach_baselines::instrument_manual;
use reach_core::{InterleaveOptions, PipelineOptions};
use reach_sim::{MachineConfig, Memory};
use reach_workloads::{
    build_chase, build_hash, build_tiered, site_load_pc, AddrAlloc, BuiltWorkload, ChaseParams,
    HashParams, TieredParams, PROBE_LOAD_PC,
};

const N: usize = 8;

const WORKLOADS: &[&str] = &["cold-chase", "hot-hash", "tiered"];
const MECHANISMS: &[&str] = &["manual", "pgo"];

fn build(name: &str, mem: &mut Memory, alloc: &mut AddrAlloc) -> BuiltWorkload {
    match name {
        "cold-chase" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 1024,
                hops: 1024,
                node_stride: 4096,
                work_per_hop: 20,
                work_insts: 1,
                seed: 0xf6,
            },
            N + 1,
        ),
        "hot-hash" => build_hash(
            mem,
            alloc,
            HashParams {
                capacity: 1 << 9, // 8 KiB: L1-resident
                occupied: 256,
                lookups: 4096,
                hit_fraction: 1.0,
                seed: 0xf6,
            },
            N + 1,
        ),
        "tiered" => build_tiered(
            mem,
            alloc,
            &TieredParams {
                iters: 8192,
                ..TieredParams::default()
            },
            N + 1,
        ),
        other => panic!("unknown F6 workload {other:?}"),
    }
}

/// The load PCs a developer would identify as "pointer dereferences".
fn manual_pcs(name: &str) -> Vec<usize> {
    match name {
        "cold-chase" => vec![0],           // the next-pointer load
        "hot-hash" => vec![PROBE_LOAD_PC], // "the probe is a deref"
        // All four sites look identical in the source.
        "tiered" => (0..4).map(site_load_pc).collect(),
        other => panic!("unknown F6 workload {other:?}"),
    }
}

/// The F6 manual-vs-PGO experiment.
pub(super) struct F6ManualVsPgo;

impl Experiment for F6ManualVsPgo {
    fn name(&self) -> &'static str {
        "f6_manual_vs_pgo"
    }

    fn title(&self) -> &'static str {
        "F6: manual (CoroBase-style) vs profile-guided instrumentation"
    }

    fn notes(&self) -> &'static str {
        "shape: PGO matches manual where the developer guessed right (cold \
         chase) and strictly wins where the guess is wrong (hot probe) or \
         impossible to make statically (tiered sites)."
    }

    fn cells(&self) -> Vec<Cell> {
        WORKLOADS
            .iter()
            .flat_map(|w| MECHANISMS.iter().map(move |m| Cell::new(*w, *m)))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let wname = cell.workload.clone();
        let builder = |mem: &mut Memory, alloc: &mut AddrAlloc| build(&wname, mem, alloc);

        let prog = match cell.config.as_str() {
            "manual" => {
                // Manual: developer-placed prefetch+yield, full save sets.
                let (_, w0) = fresh(&cfg, builder);
                instrument_manual(&w0.prog, &manual_pcs(&cell.workload))
                    .expect("manual instrumentation")
                    .0
            }
            "pgo" => pgo_build(&cfg, builder, N, &PipelineOptions::default()).prog,
            other => panic!("unknown F6 mechanism {other:?}"),
        };
        let (mut m, w) = fresh(&cfg, builder);
        interleave_checked(&mut m, &prog, &w, 0..N, &InterleaveOptions::default());
        let mut out = CellMetrics::new();
        out.put_u64("yields_fired", m.counters.yields_fired)
            .put_u64("switch_cyc", m.counters.switch_cycles)
            .put_f64("eff", m.counters.cpu_efficiency());
        out
    }
}
