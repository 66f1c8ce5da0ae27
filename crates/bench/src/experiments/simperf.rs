//! SIMPERF: the superblock engine against the `Machine::step` reference
//! on real workloads — a differential canary with gated counters and
//! block-cache statistics.
//!
//! Every experiment, test and fault-matrix cell in this repo executes
//! through `Machine::run`, which serves on the superblock engine unless
//! a dispatch rule pins the run to the reference `step` loop. Each cell
//! here runs one kernel on both and asserts that they are
//! observationally identical: counters, clock, per-sampler totals and
//! fault log (`prop_fastpath` holds the same property on random
//! programs; this holds it on the workloads the other experiments run).
//!
//! The metrics are all simulated and deterministic, and the committed
//! baseline must regenerate byte-identically like every other
//! experiment's: `sim_insts` /
//! `sim_cycles` / `samples`, and the block cache's `blocks_compiled` /
//! `block_hit_rate` / `block_invalidations`. Host throughput is not
//! measured here: `benchmark/run.sh run` reports it in calibrated time
//! (`sim_minst_per_s`, and `sim.machine.{unobs,obs}_ns_per_inst` with
//! `--trace 1`, on the `interp-membound` and `interp-dispatch`
//! workloads, which run these kernels).
//!
//! The workload mix exercises the interpreter's distinct regimes:
//! dependent cold loads (pointer chase — the memory miss path), hash
//! probes over a DRAM-sized table (zipf), warm streaming loads (the cache
//! hit path), a load-free ALU kernel, and a simulated-L1-resident tight
//! pointer chase — the last two are *dispatch-bound*: almost no time in
//! the simulated memory system.
//!
//! Each workload runs under four observation regimes (the cell's
//! config): `seq` with nothing armed; `insitu` with the supervisor's
//! serving-time L2-miss sampler; `collect4` with the collector's four
//! counters and the LBR; `faults` with a fault injector whose trap
//! countdown and prefetch-corruption channel are armed. The last three
//! are what production runs, and what the superblock engine's observed
//! instance has to agree with `step` under.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::fresh;
use reach_baselines::run_sequential;
use reach_profile::CollectorConfig;
use reach_sim::{
    AluOp, CacheLevelConfig, Cond, Context, FaultInjector, FaultPlan, HwEvent, Machine,
    MachineConfig, PebsConfig, ProgramBuilder, Reg,
};
use reach_workloads::{
    build_chase, build_scan, build_zipf_kv, ChaseParams, ScanParams, ZipfKvParams,
};

/// Workload keys.
///
/// * `chase-hot` is a pointer chase that misses hard in a scaled-down
///   *simulated* hierarchy (see [`hot_config`]): the miss path at 1/32
///   the footprint.
/// * `chase-dram` / `zipf-uniform` are the same miss-heavy kernels at
///   full footprint (tens of MiB) on the default geometry.
const WORKLOADS: &[&str] = &[
    "chase-hot",
    "chase-dram",
    "chase-tight",
    "zipf-uniform",
    "scan-warm",
    "alu-dense",
];

/// Observation regimes (cell configs); see the module docs.
const REGIMES: &[&str] = &["seq", "insitu", "collect4", "faults"];

/// Arms `m` for `regime` and picks the engine.
fn arm(m: &mut Machine, regime: &str, blocks: bool) {
    m.blocks_enabled = blocks;
    let c = CollectorConfig::default();
    let counter = |event, period| PebsConfig {
        event,
        period,
        skid: c.skid,
        buffer_capacity: c.buffer_capacity,
    };
    match regime {
        "seq" => {}
        // `SupervisorOptions::insitu_period` as the fleet runs it.
        "insitu" => {
            m.add_sampler(PebsConfig {
                buffer_capacity: 65_536,
                ..counter(HwEvent::LoadL2Miss, 31)
            });
        }
        // What `reach_profile::collect` arms. Nothing drains here, so
        // the buffers fill and later samples are dropped (and counted).
        "collect4" => {
            m.add_sampler(counter(HwEvent::LoadL2Miss, c.periods.l2_miss));
            m.add_sampler(counter(HwEvent::LoadL3Miss, c.periods.l3_miss));
            m.add_sampler(counter(HwEvent::StallCycle, c.periods.stall));
            m.add_sampler(counter(HwEvent::InstRetired, c.periods.retired));
            m.lbr_enabled = true;
        }
        // The countdown is charged on every block but never comes due
        // (a trap would end the kernel): this checks the accounting, not
        // a trap. The kernels issue no prefetches, so that channel is
        // armed and idle.
        "faults" => {
            m.faults = Some(FaultInjector::new(
                FaultPlan::none(0x51)
                    .with_trap_every(1 << 40)
                    .with_prefetch_corrupt(0.5, 4),
            ));
        }
        other => panic!("unknown simperf regime {other:?}"),
    }
}

/// Step budget: every kernel finishes well inside it.
const MAX_STEPS: u64 = 1 << 26;

/// Builds and runs the load-free ALU kernel: a counted loop of dependent
/// 1-cycle ALU ops — pure dispatch.
fn run_alu_dense(regime: &str, blocks: bool) -> Machine {
    const ITERS: u64 = 200_000;
    let mut b = ProgramBuilder::new("alu_dense");
    let cnt = Reg(0);
    let one = Reg(1);
    let acc = Reg(2);
    b.imm(cnt, ITERS).imm(one, 1).imm(acc, 0);
    let top = b.label();
    b.bind(top);
    for _ in 0..16 {
        b.alu(AluOp::Add, acc, acc, one, 1);
    }
    b.alu(AluOp::Sub, cnt, cnt, one, 1);
    b.branch(Cond::Nez, cnt, top);
    b.halt();
    let prog = b.finish().expect("alu kernel is well-formed");
    let mut m = Machine::new(MachineConfig::default());
    arm(&mut m, regime, blocks);
    let mut ctx = Context::new(0);
    let exit = m.run_to_completion(&prog, &mut ctx, MAX_STEPS).unwrap();
    assert_eq!(exit, reach_sim::Exit::Done);
    assert_eq!(ctx.reg(acc), 16 * ITERS, "alu kernel checksum");
    m
}

/// A scaled-down cache geometry (L1 8 KiB, L2 64 KiB, L3 256 KiB, same
/// associativities, line size and latencies as the default) for the
/// `chase-hot` cell: the simulated miss behaviour of a DRAM-bound chase
/// at 1/32 the host footprint.
fn hot_config() -> MachineConfig {
    let mut cfg = MachineConfig::default();
    cfg.l1 = CacheLevelConfig {
        size_bytes: 8 * 1024,
        ..cfg.l1
    };
    cfg.l2 = CacheLevelConfig {
        size_bytes: 64 * 1024,
        ..cfg.l2
    };
    cfg.l3 = CacheLevelConfig {
        size_bytes: 256 * 1024,
        ..cfg.l3
    };
    cfg
}

/// Runs one of the built workloads sequentially and checks its answers.
fn run_workload(name: &str, regime: &str, blocks: bool) -> Machine {
    let cfg = if name == "chase-hot" {
        hot_config()
    } else {
        MachineConfig::default()
    };
    let (mut m, w) = fresh(&cfg, |mem, alloc| match name {
        // 8192 nodes × 64-byte stride = 512 KiB: double the (scaled)
        // simulated L3, a fraction of the host L2.
        "chase-hot" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 8192,
                hops: 1 << 17,
                node_stride: 64,
                work_per_hop: 0,
                work_insts: 1,
                seed: 0x51,
            },
            1,
        ),
        "chase-dram" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 8192,
                hops: 1 << 17,
                node_stride: 4096,
                work_per_hop: 0,
                work_insts: 1,
                seed: 0x51,
            },
            1,
        ),
        // 64 nodes × 64-byte stride = 4 KiB: resident in the simulated
        // L1 after one lap, so every hop is an L1 hit and the cell is
        // dispatch-bound — the tight-loop regime superblocks target.
        "chase-tight" => build_chase(
            mem,
            alloc,
            ChaseParams {
                nodes: 64,
                hops: 1 << 17,
                node_stride: 64,
                work_per_hop: 0,
                work_insts: 1,
                seed: 0x51,
            },
            1,
        ),
        "zipf-uniform" => build_zipf_kv(
            mem,
            alloc,
            ZipfKvParams {
                table_entries: 1 << 21,
                lookups: 1 << 14,
                theta: 0.0,
                seed: 0x51,
            },
            1,
        ),
        "scan-warm" => build_scan(
            mem,
            alloc,
            ScanParams {
                words: 1 << 16,
                passes: 16,
                seed: 0x51,
            },
            1,
        ),
        other => panic!("unknown simperf workload {other:?}"),
    });
    arm(&mut m, regime, blocks);
    let mut ctxs = w.make_contexts();
    run_sequential(&mut m, &w.prog, &mut ctxs, MAX_STEPS).unwrap();
    for (i, c) in ctxs.iter().enumerate() {
        w.instances[i].assert_checksum(c);
    }
    m
}

/// The engine-differential experiment.
pub(super) struct SimPerf;

impl Experiment for SimPerf {
    fn name(&self) -> &'static str {
        "simperf"
    }

    fn title(&self) -> &'static str {
        "SIMPERF: superblock engine vs the `step` reference on real workloads"
    }

    fn notes(&self) -> &'static str {
        "Every metric is simulated, deterministic and gated. Both engines ran \
         every cell and agreed on counters, clock, sampler totals and fault \
         log. Host throughput: benchmark/run.sh run (sim_minst_per_s on \
         interp-membound / interp-dispatch)."
    }

    fn cells(&self) -> Vec<Cell> {
        WORKLOADS
            .iter()
            .flat_map(|w| REGIMES.iter().map(move |r| Cell::new(*w, *r)))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let run_one = |blocks: bool| match cell.workload.as_str() {
            "alu-dense" => run_alu_dense(&cell.config, blocks),
            other => run_workload(other, &cell.config, blocks),
        };
        // What the observers saw: per-counter totals and the fault log.
        let observed = |m: &Machine| {
            let counters: Vec<_> = (m.samplers.iter())
                .map(|s| (s.occurrences, s.emitted, s.dropped))
                .collect();
            (counters, m.faults.as_ref().map(|fi| fi.log.clone()))
        };
        let mb = run_one(true);
        let mr = run_one(false);
        // The two engines must be observationally identical — this
        // doubles as a differential canary on real workloads.
        assert_eq!(
            mb.counters, mr.counters,
            "{}: engine counters diverge",
            cell
        );
        assert_eq!(mb.now, mr.now, "{}: engine clocks diverge", cell);
        assert_eq!(
            observed(&mb),
            observed(&mr),
            "{}: engines were observed differently",
            cell
        );
        let bstats = &mb.block_cache.stats;
        let mut out = CellMetrics::new();
        out.put_u64("sim_insts", mb.counters.instructions)
            .put_u64("sim_cycles", mb.now)
            .put_u64("samples", mb.samplers.iter().map(|s| s.emitted).sum())
            .put_u64("blocks_compiled", bstats.compiled)
            .put_f64("block_hit_rate", bstats.hit_rate())
            .put_u64("block_invalidations", bstats.invalidations);
        out
    }
}
