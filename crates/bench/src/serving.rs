//! The supervised zipf-KV serving fixtures shared by the SELFHEAL,
//! CHAOS and MULTICORE experiments, the `reach_chaos` CLI and the fleet
//! property tests: the runaway scavenger, profiling periods sized to the
//! 1024-lookup jobs, the contention-free single core, the per-shard
//! supervisor template, and the key-sharded fleet in its two worlds.
//!
//! * **steady** — the initial build is profiled against live traffic,
//!   so staleness never trips a rebuild (MULTICORE, and the 2-shard
//!   campaigns of `reach_chaos`);
//! * **drift** — the initial build is profiled against a uniform pool
//!   while live traffic is hot-headed, so staleness trips rebuilds a few
//!   epochs in and chaos crash points land in every stage of the loop
//!   (CHAOS, and the 1-shard campaigns of `reach_chaos`).

use reach_core::{
    pgo_pipeline_degrading, Arrival, DegradeOptions, DeployedBuild, DualModeOptions,
    FleetChaosOptions, FleetChaosSchedule, FleetChaosWorld, FleetOptions, FleetWorkload,
    RolloutOptions, Rung, SupervisorOptions, WatchdogOptions,
};
use reach_profile::{OnlineEstimatorOptions, Periods};
use reach_sim::{AluOp, Cond, Context, MultiCore, MultiCoreConfig, Program, ProgramBuilder, Reg};
use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

/// Fleet epochs per run: enough for a full rolling deploy (drain +
/// health window per shard) across four shards, including the final
/// Done transition.
pub const FLEET_EPOCHS: u64 = 16;

/// A cooperative-free infinite loop for the runaway-scavenger class.
pub fn runaway_prog() -> Program {
    let mut b = ProgramBuilder::new("runaway");
    b.imm(Reg(1), 1);
    let top = b.label();
    b.bind(top);
    b.alu(AluOp::Add, Reg(2), Reg(2), Reg(1), 1);
    b.branch(Cond::Nez, Reg(1), top);
    b.halt();
    b.finish().unwrap()
}

/// Profiling periods sized to the 1024-lookup jobs (the defaults would
/// leave too few samples to pass profile validation).
pub fn fast_degrade() -> DegradeOptions {
    let mut d = DegradeOptions::default();
    d.pipeline.collector.periods = Periods {
        l2_miss: 13,
        l3_miss: 13,
        stall: 13,
        retired: 13,
    };
    d
}

/// One core whose shared-L3 and DRAM budgets no window can exceed, so
/// the uncore model never perturbs a one-shard fleet: it serves what a
/// lone machine would (SELFHEAL, and the supervisor replay properties).
pub fn solo_core() -> MultiCore {
    let mut cfg = MultiCoreConfig::new(1);
    cfg.shared_l3_lines = u64::MAX;
    cfg.dram_lines_per_kcycle = u64::MAX;
    MultiCore::new(cfg)
}

/// The per-shard supervisor every fleet world runs. The watchdog must be
/// armed — without it a runaway scavenger gets an unbounded slice and
/// the run never terminates (containment is the supervisor's job; the
/// per-job watchdog just bounds each slice).
pub fn chaos_sup() -> SupervisorOptions {
    SupervisorOptions {
        service_per_epoch: 1,
        scavengers: 2,
        insitu_period: 31,
        estimator: OnlineEstimatorOptions {
            window: 2048,
            min_samples: 8,
        },
        staleness_threshold: 0.6,
        degrade: fast_degrade(),
        dual: DualModeOptions {
            drain_scavengers: false,
            isolate_faults: true,
            watchdog: Some(WatchdogOptions {
                slice_steps: 2_000,
                overrun_cycles: 500,
                max_overruns: u32::MAX,
                ..WatchdogOptions::default()
            }),
            ..DualModeOptions::default()
        },
        ..SupervisorOptions::default()
    }
}

struct ShardStreams {
    live: Vec<InstanceSetup>,
    cursor: usize,
    prof: Vec<InstanceSetup>,
    prof_cursor: usize,
}

/// The key-sharded zipf-KV fleet service: every core holds an identical
/// table layout (so one program and one initial build serve
/// fleet-wide), one arrival per shard per epoch rotates owners
/// round-robin and ingresses at the owner's neighbor (all traffic
/// exercises the forwarding path when `shards > 1`), and every job draws
/// a fresh instance so misses stay compulsory. The runaway shard, if
/// any, swaps its scavenger pool to [`runaway_prog`] in epochs 2..5.
pub struct FleetService {
    per: Vec<ShardStreams>,
    shards: usize,
    runaway: Option<usize>,
}

impl FleetWorkload for FleetService {
    fn arrivals(&mut self, epoch: u64) -> Vec<Arrival> {
        (0..self.shards)
            .map(|i| {
                let owner = (epoch as usize + i) % self.shards;
                Arrival {
                    ingress: (owner + 1) % self.shards,
                    owner,
                }
            })
            .collect()
    }
    fn primary_context(&mut self, shard: usize, _job: u64) -> Context {
        let p = &mut self.per[shard];
        let i = p.cursor;
        p.cursor += 1;
        p.live[i % p.live.len()].make_context(1_000 + i)
    }
    fn scavenger_context(&mut self, shard: usize, _epoch: u64, _job: u64, _slot: usize) -> Context {
        let p = &mut self.per[shard];
        let i = p.cursor;
        p.cursor += 1;
        p.live[i % p.live.len()].make_context(1_000 + i)
    }
    fn scavenger_program(&mut self, shard: usize, epoch: u64) -> Option<Program> {
        (self.runaway == Some(shard) && (2..5).contains(&epoch)).then(runaway_prog)
    }
    fn profiling_contexts(&mut self, shard: usize, _attempt: u32) -> Vec<Context> {
        let p = &mut self.per[shard];
        let n = p.prof.len();
        (0..2)
            .map(|_| {
                let i = p.prof_cursor;
                p.prof_cursor += 1;
                p.prof[i % n].make_context(9_000 + i)
            })
            .collect()
    }
}

/// Builds one fresh fleet world on `shards` cores: byte-identical zipf
/// table layouts, the shared original program, and the shared initial
/// build — profiled against live traffic, or with `drift` against a
/// stale uniform pool laid out between the live and profiling pools.
pub fn fleet_world(
    shards: usize,
    drift: bool,
) -> (MultiCore, FleetService, Program, DeployedBuild) {
    let mut mc = MultiCore::new(MultiCoreConfig::new(shards));
    let mut per = Vec::new();
    let mut stale = Vec::new();
    let mut orig: Option<Program> = None;
    for m in &mut mc.cores {
        let mut alloc = AddrAlloc::new(crate::LAYOUT_BASE);
        let params = |theta: f64, seed: u64| ZipfKvParams {
            table_entries: 1 << 15,
            lookups: 1024,
            theta,
            seed,
        };
        let live = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 13), 56);
        if drift {
            stale = build_zipf_kv(&mut m.mem, &mut alloc, params(0.0, 11), 8).instances;
        }
        let prof = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 17), 12);
        match &orig {
            None => orig = Some(live.prog.clone()),
            Some(o) => assert_eq!(
                o.fingerprint(),
                live.prog.fingerprint(),
                "cores must share one program"
            ),
        }
        per.push(ShardStreams {
            live: live.instances,
            cursor: 0,
            prof: prof.instances,
            prof_cursor: 0,
        });
    }
    let orig = orig.expect("at least one shard");
    let mut svc = FleetService {
        per,
        shards,
        runaway: None,
    };
    let stale_contexts = |a: u32| -> Vec<Context> {
        (0..2)
            .map(|k| {
                let i = 2 * a as usize + k;
                stale[i % stale.len()].make_context(9_500 + i)
            })
            .collect()
    };
    let core0 = &mut mc.cores[0];
    let built = if drift {
        pgo_pipeline_degrading(core0, &orig, stale_contexts, &fast_degrade())
    } else {
        pgo_pipeline_degrading(
            core0,
            &orig,
            |a| svc.profiling_contexts(0, a),
            &fast_degrade(),
        )
    };
    assert_eq!(built.rung, Rung::FullPgo, "{:?}", built.reasons);
    (mc, svc, orig, DeployedBuild::from(built))
}

/// The fleet configuration every world runs: [`chaos_sup`] per shard,
/// [`FLEET_EPOCHS`] fleet epochs, work-stealing on.
pub fn default_fleet_opts(shards: usize, seed: u64) -> FleetOptions {
    FleetOptions {
        shards,
        epochs: FLEET_EPOCHS,
        sup: chaos_sup(),
        seed,
        ..FleetOptions::default()
    }
}

/// The rolling-deploy shape the deploy cells (and the chaos rollout
/// arm) use: drain from epoch 2, one health epoch per shard, a
/// permissive p99 gate (fault containment is what the chaos oracles
/// probe; the tight-p99 freeze path has its own unit tests).
pub fn default_rollout() -> RolloutOptions {
    RolloutOptions {
        start_epoch: 2,
        health_epochs: 1,
        p99_factor: 100.0,
        poison: None,
    }
}

/// The chaos engine configuration over either world.
pub fn default_fleet_chaos_opts(shards: usize) -> FleetChaosOptions {
    let mut o = FleetChaosOptions::new(default_fleet_opts(shards, 7));
    o.rollout_template = default_rollout();
    o
}

/// A [`FleetChaosWorld`] factory over [`fleet_world`]. The drift world
/// wires the schedule's runaway shard into the service. The steady world
/// does not: there `runaway_shard` is a no-op, although
/// [`FleetChaosSchedule::event_count`] counts it and the repro prints
/// it. Its committed `reach_chaos` batch hashes were recorded that way.
pub fn chaos_factory(
    shards: usize,
    drift: bool,
) -> impl FnMut(&FleetChaosSchedule) -> FleetChaosWorld {
    move |schedule: &FleetChaosSchedule| {
        let (mc, mut svc, original, initial) = fleet_world(shards, drift);
        if drift {
            svc.runaway = schedule.runaway_shard;
        }
        FleetChaosWorld {
            mc,
            workload: Box::new(svc),
            original,
            initial,
        }
    }
}
