#![cfg(test)]
//! Fixtures the supervisor, fleet and fleet-chaos unit tests share: the
//! runaway scavenger, profiling periods sized to the test jobs, the
//! per-shard supervisor template, the key-sharded zipf-KV fleet, and
//! the reference standalone loop.

use crate::degrade::{pgo_pipeline_degrading, DegradeOptions, Rung};
use crate::dualmode::{DualModeOptions, WatchdogOptions};
use crate::fleet::{Arrival, FleetWorkload};
use crate::journal::{Journal, JournalState};
use crate::supervisor::{
    CrashPoint, DeployedBuild, EpochLoop, SupervisorOptions, SupervisorReport,
};
use reach_profile::{OnlineEstimatorOptions, Periods};
use reach_sim::{
    AluOp, Cond, Context, Machine, MultiCore, MultiCoreConfig, Program, ProgramBuilder, Reg,
};
use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

/// Lookups per zipf-KV job.
pub(crate) const LOOKUPS: u64 = 1024;

/// A cooperative-free infinite loop for the scavenger pool.
pub(crate) fn runaway_prog() -> Program {
    let mut b = ProgramBuilder::new("runaway");
    b.imm(Reg(1), 1);
    let top = b.label();
    b.bind(top);
    b.alu(AluOp::Add, Reg(2), Reg(2), Reg(1), 1);
    b.branch(Cond::Nez, Reg(1), top);
    b.halt();
    b.finish().unwrap()
}

/// Degrade options whose profiling periods suit the 1024-lookup test
/// jobs (the default periods would yield too few samples).
pub(crate) fn fast_degrade() -> DegradeOptions {
    let mut d = DegradeOptions::default();
    d.pipeline.collector.periods = Periods {
        l2_miss: 13,
        l3_miss: 13,
        stall: 13,
        retired: 13,
    };
    d
}

/// The per-shard supervisor template of the fleet tests. The watchdog is
/// armed: a runaway scavenger without one gets an unbounded slice.
pub(crate) fn fleet_sup() -> SupervisorOptions {
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

/// Key-sharded zipf-KV service: every core holds an identical table
/// layout (so one program serves fleet-wide), each shard draws from its
/// own instance streams, and arrivals rotate owners round-robin with an
/// optional cross-shard ingress offset. The runaway shard swaps its
/// scavenger pool to a spin loop for epochs 3..6.
pub(crate) struct ZipfFleet {
    per: Vec<ShardStreams>,
    shards: usize,
    per_epoch: usize,
    cross: bool,
    /// Shard whose scavenger pool hosts the runaway burst.
    pub(crate) runaway: Option<usize>,
}

impl FleetWorkload for ZipfFleet {
    fn arrivals(&mut self, epoch: u64) -> Vec<Arrival> {
        (0..self.per_epoch)
            .map(|i| {
                let owner = (epoch as usize + i) % self.shards;
                let ingress = if self.cross {
                    (owner + 1) % self.shards
                } else {
                    owner
                };
                Arrival { ingress, owner }
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
        (self.runaway == Some(shard) && (3..6).contains(&epoch)).then(runaway_prog)
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

/// An N-core machine with identical per-core table layouts, the shared
/// original program, and the shared initial deployment (profiled against
/// the live distribution, so steady state stays trigger-free).
pub(crate) fn fleet_world(
    shards: usize,
    per_epoch: usize,
    cross: bool,
) -> (MultiCore, ZipfFleet, Program, DeployedBuild) {
    fleet_world_on(
        MultiCore::new(MultiCoreConfig::new(shards)),
        per_epoch,
        cross,
    )
}

/// One core whose shared-L3 and DRAM budgets no window can exceed, so
/// the uncore model never perturbs a one-shard fleet.
pub(crate) fn solo_core() -> MultiCore {
    let mut cfg = MultiCoreConfig::new(1);
    cfg.shared_l3_lines = u64::MAX;
    cfg.dram_lines_per_kcycle = u64::MAX;
    MultiCore::new(cfg)
}

/// [`fleet_world`] laid out on the cores of `mc`.
pub(crate) fn fleet_world_on(
    mut mc: MultiCore,
    per_epoch: usize,
    cross: bool,
) -> (MultiCore, ZipfFleet, Program, DeployedBuild) {
    let shards = mc.len();
    let mut per = Vec::new();
    let mut orig: Option<Program> = None;
    for m in &mut mc.cores {
        let mut alloc = AddrAlloc::new(0x800_0000);
        let params = |theta: f64, seed: u64| ZipfKvParams {
            table_entries: 1 << 15,
            lookups: LOOKUPS,
            theta,
            seed,
        };
        let live = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 13), 56);
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
    let orig = orig.unwrap();
    let mut svc = ZipfFleet {
        per,
        shards,
        per_epoch,
        cross,
        runaway: None,
    };
    let built = pgo_pipeline_degrading(
        &mut mc.cores[0],
        &orig,
        |a| svc.profiling_contexts(0, a),
        &fast_degrade(),
    );
    assert_eq!(built.rung, Rung::FullPgo, "{:?}", built.reasons);
    (mc, svc, orig, DeployedBuild::from(built))
}

/// How a [`Solo`] run ended.
pub(crate) enum SoloExit {
    /// Every epoch served, and the journal flushed: the sealed report and
    /// the loop's final control state.
    Completed(SupervisorReport, JournalState),
    /// The crash channel fired while serving `epoch`. The report covers
    /// the segment up to the crash.
    Crashed {
        point: CrashPoint,
        epoch: u64,
        report: SupervisorReport,
    },
}

/// The reference standalone loop: one [`EpochLoop`] as shard 0 of one
/// machine, journaled and resumable from `recover`. Every arrival is
/// admitted, as the fleet router admits every arrival at a serving
/// shard. The tests that crash and resume one loop drive it, and the
/// one-shard fleet must serve exactly what it serves.
pub(crate) struct Solo<'a> {
    pub(crate) original: &'a Program,
    pub(crate) opts: &'a SupervisorOptions,
    pub(crate) epochs: u64,
    /// The loop's backoff-jitter seed.
    pub(crate) seed: u64,
}

impl Solo<'_> {
    /// Serves `build` from the start, or from a recovered `state`, to
    /// `epochs` or a crash. A fresh run persists the initial deployment
    /// first.
    pub(crate) fn run(
        &self,
        machine: &mut Machine,
        workload: &mut dyn FleetWorkload,
        build: DeployedBuild,
        journal: &mut Journal,
        state: Option<JournalState>,
    ) -> SoloExit {
        let start = state.as_ref().map_or(0, JournalState::resume_epoch);
        let fresh = state.is_none();
        let mut el = EpochLoop::new(0, build, self.opts, self.seed, state);
        if fresh {
            if let Err(point) = el.persist_initial(machine, journal) {
                let report = el.seal();
                return SoloExit::Crashed {
                    point,
                    epoch: start,
                    report,
                };
            }
        }
        for epoch in start..self.epochs {
            let admitted = workload.arrivals(epoch).len();
            let stepped = el.step_epoch(machine, workload, admitted, self.original, journal, epoch);
            if let Err(point) = stepped {
                let report = el.seal();
                return SoloExit::Crashed {
                    point,
                    epoch,
                    report,
                };
            }
        }
        journal.flush();
        let state = el.state().clone();
        SoloExit::Completed(el.seal(), state)
    }

    /// A fresh run on a fresh journal that must not crash.
    pub(crate) fn complete(
        &self,
        machine: &mut Machine,
        workload: &mut dyn FleetWorkload,
        build: DeployedBuild,
    ) -> SupervisorReport {
        match self.run(machine, workload, build, &mut Journal::new(), None) {
            SoloExit::Completed(r, _) => r,
            SoloExit::Crashed { point, .. } => panic!("crashed at {point} with no crash armed"),
        }
    }
}
