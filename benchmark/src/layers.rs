//! The only file of the benchmark that names library symbols.
//!
//! Every layer is driven from outside, through public functions only, and
//! every world and parameter below is a copy: editing an experiment under
//! `crates/bench` can never move the benchmark. A refactor that changes
//! one of these signatures must keep or wrap it, or edit this file in a
//! change of its own that claims no gain.
//!
//! Pinned public surface:
//!
//! * `reach-sim`: `Machine::{new, run_to_completion, add_sampler,
//!   take_samples}` and its public fields (`mem`, `hier`, `now`,
//!   `counters`, `samplers`, `faults`, `block_cache`, `cfg`),
//!   `MultiCore::{new, apply_contention}` + `cores`, `Hierarchy::{new,
//!   access}` + `stats`, `Memory::{read_hot, resident_bytes}`,
//!   `MachineConfig`, `MultiCoreConfig`, `PebsConfig`, `HwEvent`,
//!   `FaultPlan`, `FaultInjector::new`, `ProgramBuilder`,
//!   `Program::{fingerprint, insts}`, `Inst::{Yield, Store}`,
//!   `SplitMix64`, `Zipf`.
//! * `reach-workloads`: the nine `build_*` generators with their
//!   `*Params`, `AddrAlloc`, `InstanceSetup::{make_context,
//!   assert_checksum, checksum_ok}`.
//! * `reach-profile`: `collect`, `CollectorConfig`, `Periods`, `Profile`,
//!   `OnlineStalenessEstimator::{new, observe, staleness_vs}`,
//!   `OnlineEstimatorOptions`, `Json` (reads `BENCHMARK.json`, writes
//!   results).
//! * `reach-instrument`: `smooth_profile`, `instrument_primary`,
//!   `instrument_scavenger`, `validate_rewrite`, `verify_rewrite_map`,
//!   `lint_program`, `PcMap::then`.
//! * `reach-core`: `pgo_pipeline`, `pgo_pipeline_degrading`,
//!   `PipelineOptions`, `DegradeOptions`, `Rung`, `run_dual_mode`,
//!   `DualModeOptions`, `WatchdogOptions`, `run_interleaved`,
//!   `InterleaveOptions`, `run_fleet` + `FleetWorkload` / `FleetOptions` /
//!   `Arrival` / `RolloutOptions` / `FleetReport`, `shard_seed`,
//!   `random_fleet_schedule` / `FleetChaosSchedule` (the schedules are
//!   run through `run_fleet`, armed as `run_fleet_schedule` arms them:
//!   see `FleetWorld::armed`),
//!   `Journal::{new, append, flush, replay, store_build}`,
//!   `JournalRecord`, `StoredBuild`, `project`, `recover`,
//!   `RecoverOptions`, `SupervisorOptions`, `DeployedBuild`.

pub use reach_profile::{Json, JsonError};

use crate::runner::Prober;
use crate::trace::{fleet_spans, Callback, Mark, Tracer};
use reach_core::{
    pgo_pipeline, pgo_pipeline_degrading, project, random_fleet_schedule, recover, run_dual_mode,
    run_fleet, run_interleaved, shard_seed, Arrival, DegradeOptions, DeployedBuild,
    DualModeOptions, FleetChaosSchedule, FleetOptions, FleetReport, FleetWorkload,
    InterleaveOptions, Journal, JournalRecord, PipelineOptions, RecoverOptions, RolloutOptions,
    Rung, StoredBuild, SupervisorOptions, WatchdogOptions,
};
use reach_instrument::{
    instrument_primary, instrument_scavenger, lint_program, smooth_profile, validate_rewrite,
    verify_rewrite_map, PcMap,
};
use reach_profile::{collect, OnlineEstimatorOptions, OnlineStalenessEstimator, Periods, Profile};
use reach_sim::{
    AccessKind, AluOp, Cond, Context, Exit, FaultInjector, Hierarchy, HwEvent, Inst, Machine,
    MachineConfig, Memory, MultiCore, MultiCoreConfig, PebsConfig, Program, ProgramBuilder, Reg,
    SplitMix64, Zipf,
};
use reach_workloads::{
    build_bfs, build_bst, build_chase, build_hash, build_multi_chase, build_scan, build_search,
    build_tiered, build_zipf_kv, AddrAlloc, BfsParams, BstParams, BuiltWorkload, ChaseParams,
    HashParams, InstanceSetup, MultiChaseParams, ScanParams, SearchParams, TieredParams,
    ZipfKvParams,
};
use std::hint::black_box;
use std::time::Instant;

/// Where generators start laying out data (the address the library's own
/// tests and experiments use).
const LAYOUT_BASE: u64 = 0x10_0000;
/// Step budget of a single kernel or audit run: far above any of them.
const MAX_STEPS: u64 = 1 << 26;
/// The in-situ sampler the supervisor arms before every epoch batch;
/// observed interpreter runs arm the same one.
const INSITU: PebsConfig = PebsConfig {
    event: HwEvent::LoadL2Miss,
    period: 31,
    skid: 0,
    buffer_capacity: 65_536,
};

/// What one timed rep did. Simulated numbers must repeat exactly for one
/// seed; `digest` folds everything that must.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rep {
    /// Wall time of the timed calls alone.
    pub raw_ns: u64,
    pub ops: u64,
    pub failed: u64,
    /// Simulated instructions retired inside the timed calls.
    pub insts: u64,
    /// Advance of every core's clock inside the timed calls.
    pub cycles: u64,
    pub digest: u64,
}

/// One workload, set up. Reps come in rounds of [`World::round_len`]
/// kinds; reps of one kind are identical, digest included.
pub trait World {
    fn round_len(&self) -> usize {
        1
    }
    /// Consecutive reps that share one calibration bracket (reps much
    /// shorter than the calibration kernel are bracketed by the round).
    fn cal_group(&self) -> usize {
        1
    }
    /// Untimed: restores the pristine state a rep of `kind` starts from.
    fn prepare(&mut self, kind: usize);
    fn run(&mut self, kind: usize, tr: &mut Tracer) -> Rep;
    /// Layer replays: isolated timings on inputs of this workload's size.
    fn probes(&mut self, p: &mut Prober);
    /// Host memory the simulated memories of the pristine world hold.
    fn resident_bytes(&self) -> u64;
}

/// Builds the world of `workload` from `seed` alone: world generation,
/// initial PGO builds and the set-up answer audit.
pub fn setup(workload: &str, seed: u64, tr: &mut Tracer) -> Result<Box<dyn World>, String> {
    Ok(match workload {
        "fleet-steady" => Box::new(FleetWorld::new(seed, FLEET_SHARDS, Traffic::Steady, tr)),
        "fleet-churn" => Box::new(FleetWorld::new(seed, FLEET_SHARDS, Traffic::Churn, tr)),
        "rebuild-cycle" => Box::new(RebuildWorld::new(seed, tr)),
        "interp-membound" => Box::new(InterpWorld::new(membound_kernels(seed, tr))),
        "interp-dispatch" => Box::new(InterpWorld::new(dispatch_kernels(seed, tr))),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// A generator seed derived from the run's seed: `--seed` reaches every
/// generator, and no two generators share a stream.
fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn fold(h: u64, x: u64) -> u64 {
    SplitMix64::new(h ^ x.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Whether every function of this binary starts on a 64-byte line, read
/// off the binary itself. `run.sh` builds it so (README, "Calibrated
/// time"); a bare `cargo run` or `cargo test` does not, and between the
/// two builds the numbers differ by up to 16% with no change to the code.
/// Unaligned, a function starts on any 16-byte boundary: the odds that
/// all of these fall on a line by chance are 4^-10.
pub fn aligned_build() -> bool {
    let entries = [
        run_fleet as *const (),
        run_dual_mode as *const (),
        collect as *const (),
        verify_rewrite_map as *const (),
        lint_program as *const (),
        project as *const (),
        Machine::run_to_completion as *const (),
        Hierarchy::access as *const (),
        Memory::read_hot as *const (),
        setup as *const (),
    ];
    entries.iter().all(|e| (*e as usize).is_multiple_of(64))
}

// ---------------------------------------------------------------------
// Simulated counters, read from outside as before/after differences.

/// Names under which a rep's simulated counts are filed in the tracer.
const SIM_COUNTS: [&str; 10] = [
    "cache_l1",
    "cache_l2",
    "cache_l3",
    "cache_mem",
    "cache_merged",
    "pebs_samples",
    "blocks_compiled",
    "blocks_hits",
    "blocks_misses",
    "blocks_invalidations",
];

#[derive(Clone, Copy, Debug, Default)]
struct SimDelta {
    insts: u64,
    cycles: u64,
    /// In [`SIM_COUNTS`]' order.
    counts: [u64; 10],
}

impl SimDelta {
    fn add(&mut self, after: &Machine, before: &Machine) {
        self.insts += after.counters.instructions - before.counters.instructions;
        self.cycles += after.now - before.now;
        let (a, b) = (&after.hier.stats, &before.hier.stats);
        for l in 0..4 {
            self.counts[l] += a.demand_hits[l] - b.demand_hits[l];
        }
        self.counts[4] += a.demand_merged - b.demand_merged;
        self.counts[5] += (after.counters.sampling_cycles - before.counters.sampling_cycles)
            / after.cfg.pebs_sample_cost.max(1);
        let (a, b) = (&after.block_cache.stats, &before.block_cache.stats);
        self.counts[6] += a.compiled - b.compiled;
        self.counts[7] += a.hits - b.hits;
        self.counts[8] += a.misses - b.misses;
        self.counts[9] += a.invalidations - b.invalidations;
    }

    fn file(&self, tr: &mut Tracer) {
        for (name, n) in SIM_COUNTS.iter().zip(self.counts) {
            tr.count(name, n);
        }
    }
}

// ---------------------------------------------------------------------
// Interpreter kernels: `Machine::run_to_completion`, unobserved and with
// the in-situ sampler armed. Both interp workloads are sets of these, and
// every other workload replays its own jobs as kernels in its probes.

/// Addresses a kernel's loads fall on, for the cache-model and memory
/// replays: `slots` places `stride` bytes apart from `lo`, picked with
/// Zipf skew `theta`.
#[derive(Clone, Copy, Debug)]
struct Footprint {
    lo: u64,
    slots: u64,
    stride: u64,
    theta: f64,
}

struct Kernel {
    name: &'static str,
    /// Reused across reps; only what a run changes is restored.
    machine: Machine,
    /// The machine as every run finds it: caches, counters and clock as
    /// one warm-up run left them, memory as the generator left it.
    snapshot: Machine,
    prog: Program,
    /// Whether a run writes simulated memory (bfs marks vertices visited
    /// and fills its queue), so that memory too must be put back.
    stores: bool,
    jobs: Vec<InstanceSetup>,
    footprint: Option<Footprint>,
}

impl Kernel {
    fn new(
        name: &'static str,
        machine: Machine,
        prog: Program,
        jobs: Vec<InstanceSetup>,
        footprint: Option<Footprint>,
    ) -> Kernel {
        let stores = prog.insts.iter().any(|i| matches!(i, Inst::Store { .. }));
        let generated = stores.then(|| machine.mem.clone());
        let mut k = Kernel {
            name,
            snapshot: machine.clone(),
            machine,
            prog,
            stores,
            jobs,
            footprint,
        };
        // The warm-up run: compiles the superblocks and fills the
        // simulated caches, so every timed run starts warm.
        k.run_jobs(false);
        k.snapshot = k.machine.clone();
        if let Some(mem) = generated {
            k.snapshot.mem = mem;
        }
        k
    }

    /// Puts back what a run changes. Most kernels never store, and their
    /// simulated memory (most of the machine's bytes) is left alone; the
    /// compiled superblocks stay too, as on any reused machine.
    fn restore(&mut self) {
        let (m, s) = (&mut self.machine, &self.snapshot);
        m.hier = s.hier.clone();
        m.counters = s.counters.clone();
        m.now = s.now;
        m.lbr = s.lbr.clone();
        m.samplers.clear();
        if self.stores {
            m.mem = s.mem.clone();
        }
    }

    /// Runs every job once; returns the answers folded together, or `None`
    /// if one was wrong.
    fn run_jobs(&mut self, observed: bool) -> Option<u64> {
        if observed {
            self.machine.add_sampler(INSITU);
        }
        let mut answers = Some(0);
        for (i, job) in self.jobs.iter().enumerate() {
            let mut ctx = job.make_context(i);
            let exit = self
                .machine
                .run_to_completion(&self.prog, &mut ctx, MAX_STEPS);
            let right = exit == Ok(Exit::Done) && job.checksum_ok(&ctx);
            answers = answers
                .filter(|_| right)
                .map(|h| fold(h, job.expected_checksum));
        }
        if observed {
            black_box(self.machine.take_samples(0));
        }
        answers
    }

    /// One pass over the jobs, from the restored state.
    fn run_pass(&mut self, observed: bool, tr: &mut Tracer) -> (Rep, SimDelta) {
        tr.open(if observed {
            "run_observed"
        } else {
            "run_unobserved"
        });
        let (answers, raw_ns) = timed(|| self.run_jobs(observed));
        let mut delta = SimDelta::default();
        delta.add(&self.machine, &self.snapshot);
        tr.close(delta.insts);
        let rep = Rep {
            raw_ns,
            ops: 1,
            failed: u64::from(answers.is_none()),
            insts: delta.insts,
            cycles: delta.cycles,
            digest: fold(fold(answers.unwrap_or(0), delta.insts), delta.cycles),
        };
        (rep, delta)
    }
}

fn machine_with(
    cfg: MachineConfig,
    build: impl FnOnce(&mut Memory, &mut AddrAlloc) -> BuiltWorkload,
    tr: &mut Tracer,
) -> (Machine, BuiltWorkload, (u64, u64)) {
    let mut m = Machine::new(cfg);
    let mut alloc = AddrAlloc::new(LAYOUT_BASE);
    let lo = alloc.watermark();
    let w = tr.span("generate", || (build(&mut m.mem, &mut alloc), 1));
    (m, w, (lo, alloc.watermark()))
}

/// A pointer chase of `nodes` 64-byte nodes, 2^17 hops.
fn chase_kernel(
    name: &'static str,
    cfg: MachineConfig,
    nodes: u64,
    seed: u64,
    tr: &mut Tracer,
) -> Kernel {
    const STRIDE: u64 = 64;
    let params = ChaseParams {
        nodes,
        hops: 1 << 17,
        node_stride: STRIDE,
        work_per_hop: 0,
        work_insts: 1,
        seed,
    };
    let (m, w, (lo, _)) = machine_with(cfg, |mem, alloc| build_chase(mem, alloc, params, 1), tr);
    let fp = Footprint {
        lo,
        slots: nodes,
        stride: STRIDE,
        theta: 0.0,
    };
    Kernel::new(name, m, w.prog, w.instances, Some(fp))
}

/// The default machine with every cache level at 1/32 of its size (L1
/// 8 KiB, L2 64 KiB, L3 256 KiB; ways, line size and latencies as they
/// are): what exp_simperf's chase-hot runs on, for its reason. A chase
/// that misses the real 8 MiB L3 needs tens of MiB of host memory, and
/// what the run then measures is the shared host's DRAM weather (the
/// same kernels at full size moved by 20% between quarters of an hour);
/// on the scaled geometry the same simulated misses fit the host's
/// private cache, and the number is the simulator's miss path.
fn scaled_down_caches() -> MachineConfig {
    let mut cfg = MachineConfig::default();
    cfg.l1.size_bytes /= 32;
    cfg.l2.size_bytes /= 32;
    cfg.l3.size_bytes /= 32;
    cfg
}

/// Nearly every load goes to simulated memory: `Hierarchy::access` and
/// `Memory` do most of the host work, dispatch little.
fn membound_kernels(seed: u64, tr: &mut Tracer) -> Vec<Kernel> {
    let cfg = scaled_down_caches();
    // 1 MiB of values against 256 KiB of simulated L3.
    let zipf = ZipfKvParams {
        table_entries: 1 << 17,
        lookups: 1 << 14,
        theta: 0.99,
        seed: sub_seed(seed, 2),
    };
    let build = |mem: &mut Memory, alloc: &mut AddrAlloc| build_zipf_kv(mem, alloc, zipf, 1);
    let (m, w, (lo, _)) = machine_with(cfg.clone(), build, tr);
    let fp = Footprint {
        lo,
        slots: zipf.table_entries,
        stride: 8,
        theta: zipf.theta,
    };
    vec![
        // 512 KiB of nodes: twice the simulated L3.
        chase_kernel("chase-dram", cfg, 8192, sub_seed(seed, 1), tr),
        Kernel::new("zipf", m, w.prog, w.instances, Some(fp)),
    ]
}

/// The mirror image: dispatch does almost all the work, the cache model
/// almost none.
fn dispatch_kernels(seed: u64, tr: &mut Tracer) -> Vec<Kernel> {
    // 16 dependent adds per iteration; the seed picks the addend, and the
    // answer is checked against the closed form.
    const ITERS: u64 = 200_000;
    let addend = 1 + sub_seed(seed, 4) % 1000;
    let (cnt, one, acc, add) = (Reg(0), Reg(1), Reg(7), Reg(2));
    let mut b = ProgramBuilder::new("alu_dense");
    b.imm(one, 1);
    let top = b.label();
    b.bind(top);
    for _ in 0..16 {
        b.alu(AluOp::Add, acc, acc, add, 1);
    }
    b.alu(AluOp::Sub, cnt, cnt, one, 1);
    b.branch(Cond::Nez, cnt, top);
    b.halt();
    let alu = InstanceSetup {
        regs: vec![(cnt, ITERS), (add, addend)],
        expected_checksum: 16 * ITERS * addend,
    };
    let prog = b.finish().expect("alu kernel is well-formed");
    vec![
        // 4 KiB of nodes: resident in the simulated L1 after one lap.
        chase_kernel(
            "chase-tight",
            MachineConfig::default(),
            64,
            sub_seed(seed, 3),
            tr,
        ),
        Kernel::new(
            "alu-dense",
            Machine::new(MachineConfig::default()),
            prog,
            vec![alu],
            None,
        ),
    ]
}

/// Reps are single passes: kind `2k` runs kernel `k` unobserved, kind
/// `2k + 1` runs it observed from the same state.
struct InterpWorld {
    kernels: Vec<Kernel>,
    /// Instructions the last unobserved pass of each kernel retired.
    unobserved_insts: Vec<u64>,
}

impl InterpWorld {
    fn new(kernels: Vec<Kernel>) -> Self {
        InterpWorld {
            unobserved_insts: vec![0; kernels.len()],
            kernels,
        }
    }
}

impl World for InterpWorld {
    fn round_len(&self) -> usize {
        2 * self.kernels.len()
    }

    fn cal_group(&self) -> usize {
        self.round_len()
    }

    fn prepare(&mut self, kind: usize) {
        self.kernels[kind / 2].restore();
    }

    fn run(&mut self, kind: usize, tr: &mut Tracer) -> Rep {
        let (k, observed) = (kind / 2, kind % 2 == 1);
        tr.open(self.kernels[k].name);
        let (mut rep, delta) = self.kernels[k].run_pass(observed, tr);
        tr.close(rep.insts);
        delta.file(tr);
        // Observation may cost cycles, never instructions.
        if !observed {
            self.unobserved_insts[k] = rep.insts;
        } else if rep.insts != self.unobserved_insts[k] {
            rep.failed = rep.ops;
        }
        rep
    }

    fn probes(&mut self, p: &mut Prober) {
        probe_cache_and_memory(p, &mut self.kernels);
        let jobs: Vec<InstanceSetup> = self.kernels.iter().flat_map(|k| k.jobs.clone()).collect();
        probe_contexts(p, &jobs);
    }

    fn resident_bytes(&self) -> u64 {
        self.kernels
            .iter()
            .map(|k| k.snapshot.mem.resident_bytes())
            .sum()
    }
}

/// `sim.machine.*` for a workload that is not itself a set of kernels:
/// its own jobs, replayed through `run_to_completion` both ways.
fn probe_kernels(p: &mut Prober, kernels: &mut [Kernel]) {
    for _ in 0..p.reps {
        p.op(|tr| {
            for k in kernels.iter_mut() {
                for observed in [false, true] {
                    k.restore();
                    let (rep, _) = k.run_pass(observed, tr);
                    // A replay that computes another answer than the jobs
                    // it replays times other work than theirs.
                    assert_eq!(rep.failed, 0, "{}: replayed job's answer is wrong", k.name);
                }
            }
        });
    }
}

/// `Hierarchy::access` and `Memory::read_hot` alone, on a seeded stream
/// with each kernel's footprint and skew.
fn probe_cache_and_memory(p: &mut Prober, kernels: &mut [Kernel]) {
    const ACCESSES: u64 = 1 << 16;
    for k in kernels.iter_mut() {
        let Some(fp) = k.footprint else { continue };
        let zipf = Zipf::new(fp.slots, fp.theta);
        let mut rng = SplitMix64::new(fp.lo ^ fp.slots);
        let addrs: Vec<u64> = (0..ACCESSES)
            .map(|_| {
                let slot = zipf.sample(&mut rng).wrapping_mul(0x9E37_79B9_7F4A_7C15) % fp.slots;
                fp.lo + slot * fp.stride
            })
            .collect();
        // A copy: reading a page no job touched would materialise it.
        let mut mem = k.snapshot.mem.clone();
        for _ in 0..p.reps {
            p.op(|tr| {
                let mut hier = Hierarchy::new(&k.snapshot.cfg);
                tr.span("hier_access", || {
                    let mut now = 0;
                    for &a in &addrs {
                        now = hier
                            .access(a, now, AccessKind::DemandLoad)
                            .ready
                            .max(now + 1);
                    }
                    (black_box(now), ACCESSES)
                });
                tr.span("mem_read", || {
                    let mut sum = 0u64;
                    for &a in &addrs {
                        sum = sum.wrapping_add(mem.read_hot(a).expect("aligned"));
                    }
                    (black_box(sum), ACCESSES)
                });
            });
        }
    }
}

// ---------------------------------------------------------------------
// The rebuild cycle, pass by pass.

/// One program the cycle rebuilds.
struct Target {
    name: &'static str,
    /// Holds the generated data; cloned for every cycle.
    machine: Machine,
    prog: Program,
    /// The spare instance the cycle profiles.
    profiled: InstanceSetup,
    /// Fingerprint of what `pgo_pipeline` ships for the same input. The
    /// set-up audit ran that build interleaved against the generator's
    /// predicted checksums, so a cycle that reproduces the fingerprint
    /// reproduces the answers; one that does not has failed.
    reference: u64,
    footprint: Footprint,
}

/// Instances the set-up audit interleaves, next to the profiled one.
const AUDITED: usize = 2;

/// A workload generator: memory, allocator, instance count.
type Generator<'a> = dyn Fn(&mut Memory, &mut AddrAlloc, usize) -> BuiltWorkload + 'a;

impl Target {
    fn new(
        name: &'static str,
        stride: u64,
        build: &Generator<'_>,
        opts: &PipelineOptions,
        tr: &mut Tracer,
    ) -> Target {
        let build = |mem: &mut Memory, alloc: &mut AddrAlloc| build(mem, alloc, AUDITED + 1);
        let (machine, w, (lo, hi)) = machine_with(MachineConfig::default(), build, tr);
        let profiled = w.instances[AUDITED].clone();

        let mut m = machine.clone();
        let built = pgo_pipeline(&mut m, &w.prog, &mut [profiled.make_context(99)], opts)
            .unwrap_or_else(|e| panic!("{name}: the default pipeline refuses this generator: {e}"));
        let mut ctxs: Vec<Context> = (0..AUDITED)
            .map(|i| w.instances[i].make_context(i))
            .collect();
        let audit = InterleaveOptions {
            poison_unsaved: true,
            ..InterleaveOptions::default()
        };
        let rep = run_interleaved(&mut m, &built.prog, &mut ctxs, &audit)
            .unwrap_or_else(|e| panic!("{name}: audit run failed: {e}"));
        assert_eq!(rep.completed, AUDITED, "{name}: audit run did not finish");
        for (i, c) in ctxs.iter().enumerate() {
            w.instances[i].assert_checksum(c);
        }

        Target {
            name,
            machine,
            prog: w.prog,
            profiled,
            reference: built.prog.fingerprint(),
            footprint: Footprint {
                lo,
                slots: (hi - lo) / stride,
                stride,
                theta: 0.0,
            },
        }
    }
}

/// The nine generators, at the sizes the repository's pipeline tests and
/// developer tools use (bfs, which neither sizes, at a size between).
fn targets(seed: u64, opts: &PipelineOptions, tr: &mut Tracer) -> Vec<Target> {
    let s = |tag: u64| sub_seed(seed, 16 + tag);
    let bfs = BfsParams {
        vertices: 1 << 12,
        degree: 8,
        seed: s(0),
    };
    let bst = BstParams {
        keys: 1 << 15,
        lookups: 512,
        node_stride: 64,
        seed: s(1),
    };
    let chase = ChaseParams {
        nodes: 512,
        hops: 512,
        node_stride: 4096,
        work_per_hop: 20,
        work_insts: 1,
        seed: s(2),
    };
    let hash = HashParams {
        capacity: 1 << 18,
        occupied: 120_000,
        lookups: 1024,
        hit_fraction: 0.8,
        seed: s(3),
    };
    let multi = MultiChaseParams {
        chains: 4,
        nodes: 256,
        hops: 256,
        node_stride: 256,
        seed: s(4),
    };
    let scan = ScanParams {
        words: 1 << 14,
        passes: 2,
        seed: s(5),
    };
    let search = SearchParams {
        array_len: 1 << 19,
        searches: 512,
        seed: s(6),
    };
    let tiered = TieredParams {
        iters: 8192,
        seed: s(7),
        ..TieredParams::default()
    };
    let zipf = ZipfKvParams {
        table_entries: 1 << 19,
        lookups: 2048,
        theta: 0.6,
        seed: s(8),
    };
    // Name, the stride of the replayed address stream, the generator.
    let generators: [(&'static str, u64, &Generator<'_>); 9] = [
        ("bfs", 8, &|m, a, n| build_bfs(m, a, bfs, n)),
        ("bst", 64, &|m, a, n| build_bst(m, a, bst, n)),
        ("chase", 4096, &|m, a, n| build_chase(m, a, chase, n)),
        ("hash", 16, &|m, a, n| build_hash(m, a, hash, n)),
        ("multi_chase", 256, &|m, a, n| {
            build_multi_chase(m, a, multi, n)
        }),
        ("scan", 8, &|m, a, n| build_scan(m, a, scan, n)),
        ("search", 8, &|m, a, n| build_search(m, a, search, n)),
        ("tiered", 8, &|m, a, n| build_tiered(m, a, &tiered, n)),
        ("zipf_kv", 8, &|m, a, n| build_zipf_kv(m, a, zipf, n)),
    ];
    generators
        .into_iter()
        .map(|(name, stride, build)| Target::new(name, stride, build, opts, tr))
        .collect()
}

/// Journal records a cycle appends: the deploy and one 16-epoch segment
/// of epoch advances, so replay has a journal of serving size to read.
const JOURNAL_EPOCHS: u64 = 16;

/// What a cycle shipped: the build's fingerprint and the smoothed profile
/// it was made from; `None` when a pass refused.
type Shipped = Option<(u64, Profile)>;

/// One cycle on `machine` (a clone of the target's): profile, rebuild,
/// prove, lint, persist, recover.
fn rebuild_cycle(
    t: &Target,
    machine: &mut Machine,
    opts: &PipelineOptions,
    sup: &SupervisorOptions,
    tr: &mut Tracer,
) -> (Rep, Shipped) {
    let mut ok = true;
    tr.open("cycle");
    let t0 = Instant::now();

    let mut ctxs = [t.profiled.make_context(99)];
    tr.open("collect");
    let collected = collect(machine, &t.prog, &mut ctxs, &opts.collector);
    tr.close(ctxs[0].stats.instructions);
    let shipped: Shipped = 'passes: {
        let Ok((raw, _cost)) = collected else {
            break 'passes None;
        };
        tr.count("collector_samples", raw.total_samples);
        let profile = tr.span("smooth_profile", || (smooth_profile(&raw, &t.prog), 0));
        let mcfg = machine.cfg.clone();
        let lint = &opts.lint;

        tr.open("instrument_primary");
        let primary = instrument_primary(&t.prog, &profile, &mcfg, &opts.primary);
        tr.close(
            primary
                .as_ref()
                .map_or(0, |(_, r)| r.yields_inserted as u64),
        );
        let Ok((p1, r1)) = primary else {
            break 'passes None;
        };
        ok &= tr.span("validate_rewrite", || {
            (
                validate_rewrite(&t.prog, &p1, &r1.pc_map.origin, false).is_ok(),
                0,
            )
        });
        let prove = |tr: &mut Tracer, from: &Program, to: &Program, map: &PcMap| {
            tr.open("verify_rewrite_map");
            let v = verify_rewrite_map(from, to, map, lint);
            tr.close(v.terms as u64);
            tr.count("equiv_terms", v.terms as u64);
            tr.count(
                "equiv_obligations",
                (v.save_obligations + v.prefetch_obligations) as u64,
            );
            v.ok()
        };
        ok &= prove(tr, &t.prog, &p1, &r1.pc_map);

        let sopts = opts
            .scavenger
            .as_ref()
            .expect("default pipeline has the pass");
        tr.open("instrument_scavenger");
        let scav = instrument_scavenger(&p1, Some((&profile, &r1.pc_map.origin)), &mcfg, sopts);
        tr.close(scav.as_ref().map_or(0, |(_, r)| r.yields_inserted as u64));
        let Ok((p2, r2)) = scav else {
            break 'passes None;
        };
        ok &= tr.span("validate_rewrite", || {
            (
                validate_rewrite(&p1, &p2, &r2.pc_map.origin, false).is_ok(),
                0,
            )
        });
        ok &= prove(tr, &p1, &p2, &r2.pc_map);
        let composed = r1.pc_map.then(&r2.pc_map);
        ok &= prove(tr, &t.prog, &p2, &composed);

        tr.open("lint_program");
        let report = lint_program(&p2, Some(&composed.origin), lint);
        tr.close(report.diagnostics.len() as u64);
        ok &= !report.has_deny();
        tr.count("prog_len_in", t.prog.len() as u64);
        tr.count("prog_len_out", p2.len() as u64);

        // Persist and come back, as a supervisor does at a swap and
        // after a crash.
        let fp = tr.span("fingerprint", || (p2.fingerprint(), 0));
        let mut journal = Journal::new();
        tr.span("store_build", || {
            let stored = StoredBuild {
                prog: p2.clone(),
                origin: composed.origin.clone(),
                rung: Rung::FullPgo,
                profile: Some(profile.clone()),
            };
            (journal.store_build(fp, stored), 0)
        });
        tr.span("journal_append", || {
            journal.append(
                &JournalRecord::Deploy {
                    epoch: 0,
                    rung: Rung::FullPgo,
                    fingerprint: fp,
                },
                None,
            );
            for epoch in 0..JOURNAL_EPOCHS {
                let next_job = epoch;
                journal.append(&JournalRecord::EpochAdvance { epoch, next_job }, None);
            }
            (journal.flush(), 1 + JOURNAL_EPOCHS)
        });
        tr.span("journal_replay", || {
            let replay = journal.replay();
            (
                black_box(project(&replay.records)),
                replay.records.len() as u64,
            )
        });
        tr.open("recover");
        let rec = recover(
            &mut journal,
            &t.prog,
            machine,
            sup,
            &RecoverOptions { revalidate: true },
        );
        tr.close(0);
        ok &= rec.is_ok_and(|r| !r.degraded && r.build.prog.fingerprint() == fp);
        Some((fp, profile))
    };

    let raw_ns = t0.elapsed().as_nanos() as u64;
    tr.close(1);
    let mut delta = SimDelta::default();
    delta.add(machine, &t.machine);
    delta.file(tr);
    let fingerprint = shipped.as_ref().map_or(0, |(fp, _)| *fp);
    let rep = Rep {
        raw_ns,
        ops: 1,
        failed: u64::from(!ok || shipped.is_none()),
        insts: delta.insts,
        cycles: delta.cycles,
        digest: fold(fold(fingerprint, delta.insts), delta.cycles),
    };
    (rep, shipped)
}

/// `core.degrade.ladder_us`: the same input through `pgo_pipeline` and
/// through the ladder, which adds profile admission control and the
/// re-profile loop around it.
fn probe_ladder(p: &mut Prober, t: &Target, degrade: &DegradeOptions) {
    let plain = |tr: &mut Tracer| {
        let mut m = t.machine.clone();
        let mut ctxs = [t.profiled.make_context(99)];
        tr.span("pgo_pipeline", || {
            (
                black_box(pgo_pipeline(&mut m, &t.prog, &mut ctxs, &degrade.pipeline).is_ok()),
                1,
            )
        });
    };
    let ladder = |tr: &mut Tracer| {
        let mut m = t.machine.clone();
        tr.span("pgo_pipeline_degrading", || {
            let make = |_attempt| vec![t.profiled.make_context(99)];
            (
                black_box(pgo_pipeline_degrading(&mut m, &t.prog, make, degrade).rung),
                1,
            )
        });
    };
    // Whichever runs first finds the host's caches colder: take turns.
    for rep in 0..p.reps {
        p.op(|tr| {
            if rep % 2 == 0 {
                plain(tr);
                ladder(tr);
            } else {
                ladder(tr);
                plain(tr);
            }
        });
    }
}

/// `profile.online.*`: the estimator fed the PCs of `profile`'s own miss
/// samples, then asked for its distance to it.
fn probe_estimator(p: &mut Prober, profile: &Profile, opts: OnlineEstimatorOptions) {
    const OBSERVES: u64 = 100_000;
    const READINGS: u64 = 1_000;
    let mut pcs: Vec<usize> = profile.l2_miss_samples.keys().copied().collect();
    pcs.sort_unstable();
    if pcs.is_empty() {
        return;
    }
    for _ in 0..p.reps {
        p.op(|tr| {
            let mut est = OnlineStalenessEstimator::new(opts);
            tr.span("estimator_observe", || {
                for i in 0..OBSERVES as usize {
                    est.observe(pcs[i % pcs.len()]);
                }
                ((), OBSERVES)
            });
            tr.span("estimator_staleness", || {
                let mut sum = 0.0;
                for _ in 0..READINGS {
                    sum += est.staleness_vs(profile);
                }
                (black_box(sum), READINGS)
            });
        });
    }
}

/// `workloads.ctx_ns`: what handing the library a fresh context costs.
fn probe_contexts(p: &mut Prober, jobs: &[InstanceSetup]) {
    const CONTEXTS: usize = 10_000;
    for _ in 0..p.reps {
        p.op(|tr| {
            tr.span("make_context", || {
                for i in 0..CONTEXTS {
                    black_box(jobs[i % jobs.len()].make_context(i));
                }
                ((), CONTEXTS as u64)
            })
        });
    }
}

struct RebuildWorld {
    targets: Vec<Target>,
    opts: PipelineOptions,
    sup: SupervisorOptions,
    /// The machine the next cycle runs on.
    staged: Option<Machine>,
}

impl RebuildWorld {
    fn new(seed: u64, tr: &mut Tracer) -> Self {
        let opts = PipelineOptions::default();
        RebuildWorld {
            targets: targets(seed, &opts, tr),
            sup: SupervisorOptions {
                degrade: DegradeOptions {
                    pipeline: opts.clone(),
                    ..DegradeOptions::default()
                },
                ..SupervisorOptions::default()
            },
            opts,
            staged: None,
        }
    }
}

impl World for RebuildWorld {
    fn round_len(&self) -> usize {
        self.targets.len()
    }

    fn cal_group(&self) -> usize {
        self.targets.len()
    }

    fn prepare(&mut self, kind: usize) {
        self.staged = Some(self.targets[kind].machine.clone());
    }

    fn run(&mut self, kind: usize, tr: &mut Tracer) -> Rep {
        let mut m = self.staged.take().expect("prepared");
        let t = &self.targets[kind];
        tr.open(t.name);
        let (mut rep, shipped) = rebuild_cycle(t, &mut m, &self.opts, &self.sup, tr);
        tr.close(rep.insts);
        if shipped.map(|(fp, _)| fp) != Some(t.reference) {
            rep.failed = rep.ops;
        }
        rep
    }

    fn probes(&mut self, p: &mut Prober) {
        let mut kernels: Vec<Kernel> = self
            .targets
            .iter()
            .map(|t| {
                Kernel::new(
                    t.name,
                    t.machine.clone(),
                    t.prog.clone(),
                    vec![t.profiled.clone()],
                    Some(t.footprint),
                )
            })
            .collect();
        probe_kernels(p, &mut kernels);
        probe_cache_and_memory(p, &mut kernels);
        // The shortest cycle of the round: the ladder adds microseconds,
        // which a longer cycle's own noise would drown.
        let t = self
            .targets
            .iter()
            .find(|t| t.name == "chase")
            .expect("chase");
        probe_ladder(p, t, &self.sup.degrade);
        let mut m = t.machine.clone();
        let (_, shipped) = rebuild_cycle(t, &mut m, &self.opts, &self.sup, &mut Tracer::new());
        let (_, profile) = shipped.expect("audited at set-up");
        probe_estimator(p, &profile, self.sup.estimator);
        let jobs: Vec<InstanceSetup> = self.targets.iter().map(|t| t.profiled.clone()).collect();
        probe_contexts(p, &jobs);
    }

    fn resident_bytes(&self) -> u64 {
        self.targets
            .iter()
            .map(|t| t.machine.mem.resident_bytes())
            .sum()
    }
}

// ---------------------------------------------------------------------
// The fleet: exp_multicore's world, copied.

const FLEET_SHARDS: usize = 4;
/// Fleet epochs of a steady rep: 20 x 4 shards = 80 jobs, which keeps a
/// 15 s run above 120 reps while the host is in its slow mode.
const STEADY_EPOCHS: u64 = 20;
/// Fleet epochs of a churn rep: what a full rolling deploy over four
/// shards needs (drain + health window each), as in exp_multicore.
const CHURN_EPOCHS: u64 = 16;
/// Fleet epochs of a replayed stretch of steady serving.
const PROBE_EPOCHS: u64 = 16;
const LIVE_INSTANCES: usize = 56;
const PROFILING_INSTANCES: usize = 12;
/// Fresh profiling contexts handed out per rebuild attempt.
const PROFILED_PER_ATTEMPT: usize = 2;
/// Fleet epochs during which the runaway shard's scavenger pool spins.
const RUNAWAY_EPOCHS: std::ops::Range<u64> = 3..6;

/// Schedules of a churn round, by arm: no rollout, clean rollout,
/// poisoned rollout, close to the generator's own 40 : 45 : 15. A rollout
/// moves a schedule's cost more than anything else in it, so the mix is
/// held fixed: every seed draws other schedules, no seed draws an easier
/// round. Twelve schedules make a 15 s run about twenty rounds.
const CHURN_MIX: [usize; 3] = [5, 5, 2];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Traffic {
    Steady,
    Churn,
}

/// Per-shard request and profiling streams; identical on every shard, as
/// every core holds the same table layout.
#[derive(Clone)]
struct Streams {
    live: Vec<InstanceSetup>,
    profiling: Vec<InstanceSetup>,
}

/// The key-sharded zipf-KV service: one owner-rotating arrival per shard
/// per epoch, each ingressing at the owner's neighbour, so all traffic
/// crosses the forwarding path.
struct FleetService {
    streams: Streams,
    /// Next live / profiling instance, per shard.
    cursors: Vec<(usize, usize)>,
    /// Shard whose scavenger pool spins during [`RUNAWAY_EPOCHS`].
    runaway: Option<(usize, Program)>,
    /// Callbacks seen, when tracing, in ns since the tracer's origin.
    marks: Option<(Instant, Vec<Mark>)>,
}

impl FleetService {
    fn enter(&self) -> u64 {
        self.marks
            .as_ref()
            .map_or(0, |(origin, _)| origin.elapsed().as_nanos() as u64)
    }

    fn mark(&mut self, kind: Callback, shard: usize, enter_ns: u64) {
        if let Some((origin, marks)) = &mut self.marks {
            marks.push(Mark {
                kind,
                shard,
                enter_ns,
                exit_ns: origin.elapsed().as_nanos() as u64,
            });
        }
    }

    fn next_live(&mut self, shard: usize) -> Context {
        let i = self.cursors[shard].0;
        self.cursors[shard].0 += 1;
        self.streams.live[i % self.streams.live.len()].make_context(1_000 + i)
    }
}

impl FleetWorkload for FleetService {
    fn arrivals(&mut self, epoch: u64) -> Vec<Arrival> {
        let t = self.enter();
        let shards = self.cursors.len();
        let out = (0..shards)
            .map(|i| {
                let owner = (epoch as usize + i) % shards;
                Arrival {
                    ingress: (owner + 1) % shards,
                    owner,
                }
            })
            .collect();
        self.mark(Callback::Arrivals, 0, t);
        out
    }

    fn primary_context(&mut self, shard: usize, _job: u64) -> Context {
        let t = self.enter();
        let ctx = self.next_live(shard);
        self.mark(Callback::PrimaryContext, shard, t);
        ctx
    }

    fn scavenger_context(&mut self, shard: usize, _epoch: u64, _job: u64, _slot: usize) -> Context {
        let t = self.enter();
        let ctx = self.next_live(shard);
        self.mark(Callback::ScavengerContext, shard, t);
        ctx
    }

    fn scavenger_program(&mut self, shard: usize, epoch: u64) -> Option<Program> {
        let t = self.enter();
        let out = match &self.runaway {
            Some((s, prog)) if *s == shard && RUNAWAY_EPOCHS.contains(&epoch) => Some(prog.clone()),
            _ => None,
        };
        self.mark(Callback::ScavengerProgram, shard, t);
        out
    }

    fn profiling_contexts(&mut self, shard: usize, _attempt: u32) -> Vec<Context> {
        let t = self.enter();
        let out = (0..PROFILED_PER_ATTEMPT)
            .map(|_| {
                let i = self.cursors[shard].1;
                self.cursors[shard].1 += 1;
                self.streams.profiling[i % self.streams.profiling.len()].make_context(9_000 + i)
            })
            .collect();
        self.mark(Callback::ProfilingContexts, shard, t);
        out
    }
}

/// A scavenger that never yields: the chaos engine's runaway arm.
fn runaway_program() -> Program {
    let mut b = ProgramBuilder::new("runaway");
    b.imm(Reg(1), 1);
    let top = b.label();
    b.bind(top);
    b.alu(AluOp::Add, Reg(2), Reg(2), Reg(1), 1);
    b.branch(Cond::Nez, Reg(1), top);
    b.halt();
    b.finish().expect("runaway program is well-formed")
}

/// Per-shard supervisor options: the chaos suite's, with one change. The
/// suite never quarantines (`max_overruns: u32::MAX`), which makes one
/// runaway job cost as much host time as a whole 64-job schedule and lets
/// the runaway arm's share of a round decide `rep_ms_p90`; here the
/// watchdog quarantines at the library's default of 3 overruns, so the
/// arm exercises the watchdog at a bounded cost.
fn supervisor_options() -> SupervisorOptions {
    let mut degrade = DegradeOptions::default();
    // Sampling periods sized to the 1024-lookup jobs.
    degrade.pipeline.collector.periods = Periods {
        l2_miss: 13,
        l3_miss: 13,
        stall: 13,
        retired: 13,
    };
    SupervisorOptions {
        service_per_epoch: 1,
        scavengers: 2,
        insitu_period: INSITU.period,
        estimator: OnlineEstimatorOptions {
            window: 2048,
            min_samples: 8,
        },
        staleness_threshold: 0.6,
        degrade,
        dual: DualModeOptions {
            drain_scavengers: false,
            isolate_faults: true,
            watchdog: Some(WatchdogOptions {
                slice_steps: 2_000,
                overrun_cycles: 500,
                ..WatchdogOptions::default()
            }),
            ..DualModeOptions::default()
        },
        ..SupervisorOptions::default()
    }
}

/// The rolling deploy a churn schedule may arm: drain from epoch 2, one
/// health epoch per shard, a permissive p99 gate (containment is what the
/// oracles probe, not a tight p99).
fn rollout_template() -> RolloutOptions {
    RolloutOptions {
        start_epoch: 2,
        health_epochs: 1,
        p99_factor: 100.0,
        poison: None,
    }
}

/// The fault class of a poisoned rollout, as the chaos engine applies it:
/// every yield's save set clobbered after the build-time gates.
fn poison_yield_saves(b: &mut DeployedBuild) {
    for inst in &mut b.prog.insts {
        if let Inst::Yield { save_regs, .. } = inst {
            *save_regs = Some(0);
        }
    }
}

struct FleetWorld {
    seed: u64,
    shards: usize,
    traffic: Traffic,
    /// The cores as set-up left them; every rep runs on clones.
    pristine: Vec<Machine>,
    streams: Streams,
    original: Program,
    initial: DeployedBuild,
    fleet: FleetOptions,
    /// Churn only: the round's schedules.
    schedules: Vec<FleetChaosSchedule>,
    /// Machines, service and options of the next rep.
    staged: Option<(MultiCore, FleetService, FleetOptions)>,
}

impl FleetWorld {
    fn new(seed: u64, shards: usize, traffic: Traffic, tr: &mut Tracer) -> Self {
        let sup = supervisor_options();
        let mut mc = MultiCore::new(MultiCoreConfig::new(shards));
        let mut built: Option<(Program, Streams)> = None;
        for core in &mut mc.cores {
            let mut alloc = AddrAlloc::new(LAYOUT_BASE);
            let params = |seed| ZipfKvParams {
                table_entries: 1 << 15,
                lookups: 1024,
                theta: 3.0,
                seed,
            };
            let (live, profiling) = tr.span("generate", || {
                let live = build_zipf_kv(
                    &mut core.mem,
                    &mut alloc,
                    params(sub_seed(seed, 32)),
                    LIVE_INSTANCES,
                );
                let prof = build_zipf_kv(
                    &mut core.mem,
                    &mut alloc,
                    params(sub_seed(seed, 33)),
                    PROFILING_INSTANCES,
                );
                ((live, prof), 1)
            });
            built.get_or_insert((
                live.prog,
                Streams {
                    live: live.instances,
                    profiling: profiling.instances,
                },
            ));
        }
        let (original, streams) = built.expect("at least one shard");

        // The initial build, profiled against the live distribution on
        // core 0 (steady traffic never trips a rebuild).
        let mut svc = FleetWorld::service(&streams, shards, None);
        let build = pgo_pipeline_degrading(
            &mut mc.cores[0],
            &original,
            |attempt| svc.profiling_contexts(0, attempt),
            &sup.degrade,
        );
        assert_eq!(build.rung, Rung::FullPgo, "{:?}", build.reasons);
        let initial = DeployedBuild::from(build);

        // The answer audit: `run_fleet` never checks what a served job
        // computed, so the build it will serve runs every live instance
        // here, against the generator's predicted checksums.
        for core in &mc.cores {
            let mut m = core.clone();
            for (i, job) in streams.live.iter().enumerate() {
                let mut ctx = job.make_context(i);
                let exit = m.run_to_completion(&initial.prog, &mut ctx, MAX_STEPS);
                assert_eq!(exit, Ok(Exit::Done), "audit job {i} did not finish");
                job.assert_checksum(&ctx);
            }
        }

        let fleet = FleetOptions {
            shards,
            epochs: match traffic {
                Traffic::Steady => STEADY_EPOCHS,
                Traffic::Churn => CHURN_EPOCHS,
            },
            sup,
            // The router's jitter seed; shard seeds derive from it.
            seed: sub_seed(seed, 34),
            ..FleetOptions::default()
        };
        let schedules = match traffic {
            Traffic::Steady => Vec::new(),
            Traffic::Churn => churn_round(seed, shards),
        };
        FleetWorld {
            seed,
            shards,
            traffic,
            pristine: mc.cores,
            streams,
            original,
            initial,
            fleet,
            schedules,
            staged: None,
        }
    }

    fn service(streams: &Streams, shards: usize, runaway: Option<usize>) -> FleetService {
        FleetService {
            streams: streams.clone(),
            cursors: vec![(0, 0); shards],
            runaway: runaway.map(|s| (s, runaway_program())),
            marks: None,
        }
    }

    /// A pristine machine set and service for one rep.
    fn fresh(&self, runaway: Option<usize>) -> (MultiCore, FleetService) {
        let mut mc = MultiCore::new(MultiCoreConfig::new(self.shards));
        mc.cores = self.pristine.clone();
        (mc, FleetWorld::service(&self.streams, self.shards, runaway))
    }

    fn delta(&self, mc: &MultiCore) -> SimDelta {
        let mut d = SimDelta::default();
        for (after, before) in mc.cores.iter().zip(&self.pristine) {
            d.add(after, before);
        }
        d
    }

    /// A pristine fleet armed for `schedule` as the chaos engine
    /// (`run_fleet_schedule`) arms it: per-shard fault plans on shard-mixed
    /// seeds, the torn-write channels on the torn shard alone, each
    /// shard's crash instant, the runaway shard, the rollout and its
    /// poison. The engine itself is not called: it drops its machines
    /// before it returns, and the instruction and cycle counts with them.
    fn armed(&self, schedule: &FleetChaosSchedule) -> (MultiCore, FleetService, FleetOptions) {
        let (mut mc, svc) = self.fresh(schedule.runaway_shard);
        let mut opts = self.fleet.clone();
        opts.rollout = schedule.rollout.then(|| RolloutOptions {
            poison: schedule
                .poisoned
                .then_some(poison_yield_saves as fn(&mut DeployedBuild)),
            ..rollout_template()
        });
        for (s, core) in mc.cores.iter_mut().enumerate() {
            let mut plan = schedule.plan;
            plan.seed = shard_seed(schedule.plan.seed, s as u64);
            if schedule.torn_shard != Some(s) {
                plan.torn_write = 0.0;
                plan.partial_flush = 0.0;
            }
            plan.crash_at = schedule
                .crashes
                .iter()
                .find(|&&(shard, _)| shard == s)
                .map(|&(_, at)| at);
            let armed = plan.crash_at.is_some()
                || plan.torn_write > 0.0
                || plan.partial_flush > 0.0
                || plan.trap_every.is_some();
            core.faults = armed.then(|| FaultInjector::new(plan));
        }
        (mc, svc, opts)
    }
}

/// Draws schedules from `random_fleet_schedule` until every arm of
/// [`CHURN_MIX`] is full.
fn churn_round(seed: u64, shards: usize) -> Vec<FleetChaosSchedule> {
    let mut rng = SplitMix64::new(sub_seed(seed, 35));
    let mut want = CHURN_MIX;
    let mut round = Vec::new();
    while want.iter().any(|&w| w > 0) {
        let s = random_fleet_schedule(&mut rng, shards);
        let arm = usize::from(s.rollout) + usize::from(s.poisoned);
        if want[arm] > 0 {
            want[arm] -= 1;
            round.push(s);
        }
    }
    round
}

fn file_fleet_counts(tr: &mut Tracer, r: &FleetReport) {
    tr.count("forwarded", r.forwarded);
    tr.count("retries", r.retries);
    tr.count("timeouts", r.timeouts);
    tr.count("steals", r.steals);
    tr.count("rollout_deploys", r.rollout_deploys);
    tr.count("crashes", r.crashes);
    tr.count("recoveries", r.recoveries);
    tr.count("rebuilds", r.shards.iter().map(|s| s.rebuilds).sum());
    tr.count("swaps", r.shards.iter().map(|s| s.swaps).sum());
}

impl World for FleetWorld {
    fn round_len(&self) -> usize {
        match self.traffic {
            Traffic::Steady => 1,
            Traffic::Churn => self.schedules.len(),
        }
    }

    fn prepare(&mut self, kind: usize) {
        self.staged = Some(match self.traffic {
            Traffic::Steady => {
                let (mc, svc) = self.fresh(None);
                (mc, svc, self.fleet.clone())
            }
            Traffic::Churn => self.armed(&self.schedules[kind]),
        });
    }

    fn run(&mut self, _kind: usize, tr: &mut Tracer) -> Rep {
        let (mut mc, mut svc, opts) = self.staged.take().expect("prepared");
        if tr.is_on() {
            svc.marks = Some((tr.origin(), Vec::new()));
        }
        let initial = self.initial.clone();
        tr.open("run_fleet");
        let (report, raw_ns) =
            timed(|| run_fleet(&mut mc, &mut svc, &self.original, initial, &opts));
        let end_ns = tr.now();
        if let Some((_, marks)) = &svc.marks {
            fleet_spans(tr, marks, end_ns);
        }
        let report = report.expect("validated config");
        tr.close(report.served());

        let delta = self.delta(&mc);
        delta.file(tr);
        file_fleet_counts(tr, &report);
        tr.count("fleet_epochs", opts.epochs);
        tr.count("violations", report.violations.len() as u64);
        // Steady traffic counts jobs, and every one must be served; under
        // chaos sheds and timeouts are the faults at work, so a schedule
        // counts as one op and fails on an oracle violation alone.
        let (ops, clean) = match self.traffic {
            Traffic::Steady => {
                let arrivals = opts.epochs * self.shards as u64;
                let all_served = report.served() == arrivals
                    && report.timeouts + report.forward_shed == 0
                    && report
                        .shards
                        .iter()
                        .all(|s| s.job_faults + s.shed_jobs == 0);
                (arrivals, report.violations.is_empty() && all_served)
            }
            Traffic::Churn => (1, report.violations.is_empty()),
        };
        Rep {
            raw_ns,
            ops,
            failed: if clean { 0 } else { ops },
            insts: delta.insts,
            cycles: delta.cycles,
            digest: fold(fold(report.fleet_hash(), delta.insts), delta.cycles),
        }
    }

    fn probes(&mut self, p: &mut Prober) {
        // The fleet's own jobs as interpreter kernels: the deployed build
        // over live instances, on a clone of core 0.
        let table = Footprint {
            lo: LAYOUT_BASE,
            slots: 1 << 15,
            stride: 8,
            theta: 3.0,
        };
        let mut kernels = [Kernel::new(
            "fleet-jobs",
            self.pristine[0].clone(),
            self.initial.prog.clone(),
            self.streams.live[..8].to_vec(),
            Some(table),
        )];
        probe_kernels(p, &mut kernels);
        probe_cache_and_memory(p, &mut kernels);
        self.probe_serving(p);
        self.probe_contention(p);

        // One rebuild cycle on the fleet's program, pass by pass: what a
        // rollout or a staleness trip costs a shard.
        let t = Target {
            name: "fleet-program",
            machine: self.pristine[0].clone(),
            prog: self.original.clone(),
            profiled: self.streams.profiling[0].clone(),
            reference: self.initial.prog.fingerprint(),
            footprint: table,
        };
        let sup = &self.fleet.sup;
        for _ in 0..p.reps {
            p.op(|tr| {
                let mut m = t.machine.clone();
                black_box(rebuild_cycle(&t, &mut m, &sup.degrade.pipeline, sup, tr));
            });
        }
        probe_ladder(p, &t, &sup.degrade);
        let profile = self.initial.profile.as_ref().expect("full-PGO build");
        probe_estimator(p, profile, sup.estimator);
        probe_contexts(p, &self.streams.live);
    }

    fn resident_bytes(&self) -> u64 {
        self.pristine.iter().map(|m| m.mem.resident_bytes()).sum()
    }
}

impl FleetWorld {
    /// [`PROBE_EPOCHS`] of steady serving, three ways, taking turns so all
    /// three see the same host weather: through `run_fleet` at this
    /// fleet's width; the same jobs through `run_dual_mode` alone, in-situ
    /// sampler armed as the supervisor arms it (`core.dualmode.*`; what
    /// `run_fleet` takes beyond it is supervisor and fleet control); and
    /// through `run_fleet` on one shard (`core.fleet.shard_scaling`:
    /// shards run one after another on one host thread today, so jobs per
    /// second do not grow with them).
    fn probe_serving(&self, p: &mut Prober) {
        let narrow = FleetWorld::new(self.seed, 1, Traffic::Steady, &mut Tracer::new());
        let sup = &self.fleet.sup;
        for _ in 0..p.reps {
            for (name, world) in [("run_fleet_wide", self), ("run_fleet_narrow", &narrow)] {
                let (mut mc, mut svc) = world.fresh(None);
                let initial = world.initial.clone();
                let mut opts = world.fleet.clone();
                opts.epochs = PROBE_EPOCHS;
                p.op(|tr| {
                    tr.span(name, || {
                        let r = run_fleet(&mut mc, &mut svc, &world.original, initial, &opts);
                        ((), r.expect("validated config").served())
                    })
                });
            }
            let (mut mc, mut svc) = self.fresh(None);
            p.op(|tr| {
                tr.open("run_dual_mode");
                tr.count("probe_epochs", PROBE_EPOCHS);
                let mut insts = 0;
                for epoch in 0..PROBE_EPOCHS {
                    for (s, core) in mc.cores.iter_mut().enumerate() {
                        let before = core.counters.instructions;
                        let sampler = core.add_sampler(INSITU);
                        let mut primary = svc.primary_context(s, epoch);
                        let mut scavs: Vec<Context> = (0..sup.scavengers)
                            .map(|slot| svc.scavenger_context(s, epoch, epoch, slot))
                            .collect();
                        let prog = &self.initial.prog;
                        let r =
                            run_dual_mode(core, prog, &mut primary, prog, &mut scavs, &sup.dual)
                                .expect("audited build");
                        black_box(core.take_samples(sampler));
                        core.samplers.clear();
                        insts += core.counters.instructions - before;
                        tr.count("dual_fills", r.fill_times.len() as u64);
                        tr.count("dual_starved", r.starved_fills);
                        tr.count("dual_overruns", r.overruns);
                    }
                }
                tr.close(insts);
            });
        }
    }

    /// `sim.multicore.contention_ns`: the shared-uncore fold the fleet
    /// runs at every epoch boundary.
    fn probe_contention(&self, p: &mut Prober) {
        const CALLS: u64 = 1_000;
        let (mut mc, _) = self.fresh(None);
        for _ in 0..p.reps {
            p.op(|tr| {
                tr.span("apply_contention", || {
                    for _ in 0..CALLS {
                        black_box(mc.apply_contention());
                    }
                    ((), CALLS)
                })
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_rep(workload: &str, seed: u64) -> Rep {
        let mut tr = Tracer::new();
        let mut w = setup(workload, seed, &mut tr).unwrap();
        w.prepare(0);
        w.run(0, &mut tr)
    }

    /// The seed is the only input: the same seed reproduces the digest,
    /// another seed gives other inputs and so another digest, and nothing
    /// fails on either.
    #[test]
    fn seed_decides_the_inputs() {
        use crate::spec::{DEFAULT_SEED, HELD_OUT_SEED};
        for workload in ["fleet-steady", "fleet-churn", "interp-dispatch"] {
            let a = first_rep(workload, DEFAULT_SEED);
            let b = first_rep(workload, DEFAULT_SEED);
            let c = first_rep(workload, HELD_OUT_SEED);
            assert_eq!(a.digest, b.digest, "{workload}");
            assert_ne!(a.digest, c.digest, "{workload}");
            assert_eq!((a.failed, c.failed), (0, 0), "{workload}");
        }
    }

    /// A replayed kernel repeats its first run: the same answer, the same
    /// instruction count, observed or not, even where the program writes
    /// the memory it reads (bfs).
    #[test]
    fn every_rebuild_target_replays_as_it_first_ran() {
        let opts = PipelineOptions::default();
        for t in targets(1, &opts, &mut Tracer::new()) {
            let job = t.profiled.clone();
            let mut first = job.make_context(0);
            let exit = (t.machine.clone()).run_to_completion(&t.prog, &mut first, MAX_STEPS);
            assert_eq!(exit, Ok(Exit::Done), "{}", t.name);

            let mut k = Kernel::new(t.name, t.machine, t.prog, vec![job], None);
            for observed in [false, true, false] {
                k.restore();
                let (rep, _) = k.run_pass(observed, &mut Tracer::new());
                assert_eq!(rep.failed, 0, "{}", t.name);
                assert_eq!(rep.insts, first.stats.instructions, "{}", t.name);
            }
        }
    }

    #[test]
    fn churn_round_holds_the_fixed_mix_on_every_seed() {
        for seed in [1, 2, 3] {
            let round = churn_round(seed, FLEET_SHARDS);
            let arm = |a: usize| {
                round
                    .iter()
                    .filter(|s| usize::from(s.rollout) + usize::from(s.poisoned) == a)
                    .count()
            };
            assert_eq!([arm(0), arm(1), arm(2)], CHURN_MIX);
        }
        let schedules = |seed| churn_round(seed, FLEET_SHARDS);
        assert_eq!(schedules(1), schedules(1));
        assert_ne!(schedules(1), schedules(2));
    }
}
