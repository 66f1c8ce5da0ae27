//! Fleet-level chaos: randomized shard-crash × torn-journal × runaway ×
//! poisoned-rollout schedules over [`run_fleet`], with oracles for the
//! properties only a fleet can violate.
//!
//! The single-shard chaos engine ([`crate::chaos`]) proves one
//! supervisor survives crash/restart storms. This module aims the same
//! FoundationDB-style discipline at the *fleet* failure surface: a
//! shard killed mid-rollout, a torn journal on one shard while another
//! hosts a runaway scavenger, a poisoned build pushed through the
//! rolling-deploy pipeline. A [`FleetChaosSchedule`] is a pure value;
//! running it twice produces byte-identical fleet event logs and
//! per-shard incident logs, folded into one `xr_hash` that gates the
//! whole batch.
//!
//! Oracles (beyond the per-shard invariants, which keep holding because
//! each shard still runs the same journaled epoch loop):
//!
//! 1. **Capacity under rolling deploys** — every crash-free epoch keeps
//!    at least (N−1)/N shards serving (audited inside [`run_fleet`]).
//! 2. **Poison containment** — a rollout build corrupted after its
//!    build-time gates never reaches a second shard: the per-shard
//!    re-validation or the health window stops it (audited inside
//!    [`run_fleet`]).
//! 3. **Projected journals equal live fleet state** — each shard's
//!    journal, projected, matches that shard's live deployment, breaker
//!    and job cursor at the end of the run (audited inside
//!    [`run_fleet`]).
//! 4. **Bounded shard unavailability** — every injected shard crash
//!    that does not land in the final epoch is followed by a recovery
//!    for that shard, and the fleet never loses more shards than
//!    crashes were injected.

use crate::fleet::{
    run_fleet, shard_seed, FleetConfigError, FleetEvent, FleetOptions, FleetReport, FleetWorkload,
    RolloutOptions,
};
use crate::supervisor::{mix64, DeployedBuild};
use reach_sim::{FaultInjector, FaultPlan, Inst, MultiCore, Program, SplitMix64};

/// A fleet chaos configuration the engine refuses to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetChaosError {
    /// The underlying fleet configuration is degenerate.
    Fleet(FleetConfigError),
    /// The schedule arms a runaway scavenger but `sup.dual.watchdog` is
    /// `None` — same hang class as
    /// [`crate::chaos::ChaosConfigError::RunawayWithoutWatchdog`].
    RunawayWithoutWatchdog,
    /// A crash is scheduled on a shard index the fleet does not have.
    CrashShardOutOfRange,
}

impl From<FleetConfigError> for FleetChaosError {
    fn from(e: FleetConfigError) -> Self {
        FleetChaosError::Fleet(e)
    }
}

impl std::fmt::Display for FleetChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetChaosError::Fleet(e) => e.fmt(f),
            FleetChaosError::RunawayWithoutWatchdog => write!(
                f,
                "schedule arms a runaway scavenger but sup.dual.watchdog is None \
                 (the burst would pin every slice; arm WatchdogOptions)"
            ),
            FleetChaosError::CrashShardOutOfRange => {
                write!(f, "schedule crashes a shard index outside the fleet")
            }
        }
    }
}

impl std::error::Error for FleetChaosError {}

/// One randomized fleet fault schedule — a pure value.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetChaosSchedule {
    /// Channel intensities and the seed each shard's injector derives
    /// from (`plan.seed` mixed with the shard index). `plan.crash_at` is
    /// ignored — crash instants come from `crashes`. The torn-write and
    /// partial-flush channels apply only to `torn_shard`.
    pub plan: FaultPlan,
    /// `(shard, crash-point consultation)` pairs, at most one per shard:
    /// shard `s` crashes at its `n`-th crash-point consultation and
    /// recovers at the top of the next fleet epoch (the dead injector
    /// dies with the process, so each shard crashes at most once).
    pub crashes: Vec<(usize, u64)>,
    /// Shard whose journal suffers the torn-write / partial-flush
    /// channels (`None` disarms both fleet-wide).
    pub torn_shard: Option<usize>,
    /// Shard whose scavenger pool hosts the runaway burst (the workload
    /// factory decides what the burst looks like).
    pub runaway_shard: Option<usize>,
    /// Run a rolling re-instrumentation deploy during the chaos.
    pub rollout: bool,
    /// Poison the rollout build after its build-time gates (implies
    /// `rollout`; ignored without it).
    pub poisoned: bool,
}

impl FleetChaosSchedule {
    /// A schedule with nothing armed.
    pub fn quiet(seed: u64) -> Self {
        FleetChaosSchedule {
            plan: FaultPlan::none(seed),
            crashes: Vec::new(),
            torn_shard: None,
            runaway_shard: None,
            rollout: false,
            poisoned: false,
        }
    }

    /// The plan shard `s`'s injector runs: shard-mixed seed, the torn
    /// channels only on the torn shard, that shard's crash instant (if
    /// any). `None` when that leaves no channel armed — the shard then
    /// runs without an injector.
    fn shard_plan(&self, s: usize) -> Option<FaultPlan> {
        let mut plan = self.plan;
        plan.seed = shard_seed(self.plan.seed, s as u64);
        if self.torn_shard != Some(s) {
            plan.torn_write = 0.0;
            plan.partial_flush = 0.0;
        }
        plan.crash_at = (self.crashes.iter())
            .find(|&&(cs, _)| cs == s)
            .map(|&(_, at)| at);
        (!plan.is_none()).then_some(plan)
    }

    /// The constructor chain that rebuilds this schedule — printed with
    /// violations so the repro is copy-pasteable.
    pub fn repro(&self) -> String {
        let plan = self.plan.repro();
        format!(
            "FleetChaosSchedule {{ plan: {plan}, crashes: vec!{:?}, torn_shard: {:?}, \
             runaway_shard: {:?}, rollout: {}, poisoned: {} }}",
            self.crashes, self.torn_shard, self.runaway_shard, self.rollout, self.poisoned
        )
    }
}

/// One freshly-built fleet world: the N-core machine (whose per-core
/// memories are the shards' data stores), the sharded workload, the
/// shared original program and the shared initial deployment. The
/// factory receives the schedule so it can arm the runaway shard.
pub struct FleetChaosWorld {
    /// The N-core machine.
    pub mc: MultiCore,
    /// The sharded service.
    pub workload: Box<dyn FleetWorkload>,
    /// The uninstrumented original program.
    pub original: Program,
    /// The initial verified deployment, shared by every shard.
    pub initial: DeployedBuild,
}

/// Engine configuration.
#[derive(Clone)]
pub struct FleetChaosOptions {
    /// Fleet configuration for every run. `fleet.rollout` is overridden
    /// per schedule (from `rollout_template` when the schedule arms a
    /// rollout, `None` otherwise).
    pub fleet: FleetOptions,
    /// Rolling-deploy shape used when a schedule arms `rollout`; its
    /// `poison` field is overridden by the schedule's `poisoned` arm.
    pub rollout_template: RolloutOptions,
}

impl FleetChaosOptions {
    /// Engine defaults around the given fleet configuration.
    pub fn new(fleet: FleetOptions) -> Self {
        FleetChaosOptions {
            fleet,
            rollout_template: RolloutOptions::default(),
        }
    }
}

/// The poisoned-rollout fault class: clobber every yield's save set
/// after the build-time gates pass, so the artifact is live-corrupt but
/// fingerprint-consistent — exactly what per-shard re-validation and the
/// health window must catch.
fn poison_yield_saves(b: &mut DeployedBuild) {
    for inst in &mut b.prog.insts {
        if let Inst::Yield { save_regs, .. } = inst {
            *save_regs = Some(0);
        }
    }
}

/// Everything one fleet schedule run did, and every invariant it broke.
#[derive(Clone, Debug, Default)]
pub struct FleetScheduleRun {
    /// Oracle violations (fleet-internal + engine-level), empty on a
    /// healthy run.
    pub violations: Vec<String>,
    /// Shard crashes injected.
    pub crashes: u64,
    /// Shard recoveries performed.
    pub recoveries: u64,
    /// Jobs served fleet-wide.
    pub served: u64,
    /// Requests shed (admission queues + forwarding queue + timeouts).
    pub shed: u64,
    /// Forward-queue retry attempts.
    pub retries: u64,
    /// Shards the rollout build reached.
    pub rollout_deploys: u64,
    /// True when the rollout froze.
    pub rollout_frozen: bool,
    /// Scavenger slice-epochs moved by work-stealing.
    pub steals: u64,
    /// Fleet event-log length.
    pub events: u64,
    /// The fleet determinism digest ([`FleetReport::fleet_hash`]).
    pub fleet_hash: u64,
}

/// Runs one fleet schedule: arms per-shard injectors, runs the fleet
/// (which crashes/recovers shards inline), then audits the engine-level
/// oracles on top of the fleet's own. Deterministic in
/// `(factory, schedule, opts)`.
pub fn run_fleet_schedule(
    factory: &mut dyn FnMut(&FleetChaosSchedule) -> FleetChaosWorld,
    schedule: &FleetChaosSchedule,
    opts: &FleetChaosOptions,
) -> Result<FleetScheduleRun, FleetChaosError> {
    if schedule.runaway_shard.is_some() && opts.fleet.sup.dual.watchdog.is_none() {
        return Err(FleetChaosError::RunawayWithoutWatchdog);
    }
    if schedule
        .crashes
        .iter()
        .any(|&(s, _)| s >= opts.fleet.shards)
    {
        return Err(FleetChaosError::CrashShardOutOfRange);
    }
    let mut world = factory(schedule);
    let mut fleet_opts = opts.fleet.clone();
    fleet_opts.rollout = schedule.rollout.then(|| RolloutOptions {
        poison: schedule
            .poisoned
            .then_some(poison_yield_saves as fn(&mut DeployedBuild)),
        ..opts.rollout_template
    });

    for s in 0..opts.fleet.shards {
        world.mc.cores[s].faults = schedule.shard_plan(s).map(FaultInjector::new);
    }

    let rep = run_fleet(
        &mut world.mc,
        world.workload.as_mut(),
        &world.original,
        world.initial.clone(),
        &fleet_opts,
    )?;

    let mut run = FleetScheduleRun {
        violations: rep.violations.clone(),
        crashes: rep.crashes,
        recoveries: rep.recoveries,
        served: rep.served(),
        shed: rep.forward_shed + rep.timeouts + rep.shards.iter().map(|s| s.shed_jobs).sum::<u64>(),
        retries: rep.retries,
        rollout_deploys: rep.rollout_deploys,
        rollout_frozen: rep.rollout_frozen,
        steals: rep.steals,
        events: rep.events.len() as u64,
        fleet_hash: rep.fleet_hash(),
    };

    audit_bounded_unavailability(&rep, schedule, fleet_opts.epochs, &mut run.violations);
    Ok(run)
}

/// Oracle 4: every injected crash is bounded — at most one per armed
/// shard, and each crash not in the final epoch has a matching recovery.
fn audit_bounded_unavailability(
    rep: &FleetReport,
    schedule: &FleetChaosSchedule,
    epochs: u64,
    violations: &mut Vec<String>,
) {
    if rep.crashes > schedule.crashes.len() as u64 {
        violations.push(format!(
            "oracle/bounded-unavailability: {} crashes observed for {} scheduled",
            rep.crashes,
            schedule.crashes.len()
        ));
    }
    for e in &rep.events {
        if let FleetEvent::ShardCrashed {
            epoch,
            shard,
            point,
        } = e
        {
            if *epoch + 1 >= epochs {
                continue; // crashed in the final epoch: no epoch left to recover in
            }
            // `>=`: a crash during initial-deploy persistence is
            // labeled epoch 0 and recovers at the top of epoch 0; with
            // at most one crash per shard the match is unambiguous.
            let recovered = rep.events.iter().any(|r| {
                matches!(r, FleetEvent::ShardRecovered { epoch: re, shard: rs, .. }
                    if rs == shard && *re >= *epoch)
            });
            if !recovered {
                violations.push(format!(
                    "oracle/bounded-unavailability: shard {shard} crashed at epoch {epoch} \
                     ({point}) and never recovered"
                ));
            }
        }
    }
}

/// Draws one randomized fleet schedule over `shards` shards. Tuned so
/// most schedules combine a rollout with one or two fault arms — the
/// regime the rolling-deploy gates must survive.
pub fn random_fleet_schedule(rng: &mut SplitMix64, shards: usize) -> FleetChaosSchedule {
    let mut plan = FaultPlan::none(rng.next_u64());
    if rng.next_f64() < 0.50 {
        plan = plan.with_torn_write(0.3 + 0.7 * rng.next_f64());
    }
    if rng.next_f64() < 0.35 {
        plan = plan.with_partial_flush(0.2 + 0.5 * rng.next_f64());
    }
    let n_crashes = match rng.next_below(8) {
        0 | 1 => 0,
        2..=5 => 1,
        _ => 2,
    } as usize;
    let mut crashed: Vec<usize> = Vec::new();
    let mut crashes = Vec::new();
    for _ in 0..n_crashes.min(shards) {
        let s = rng.next_below(shards as u64) as usize;
        if crashed.contains(&s) {
            continue; // at most one crash per shard
        }
        crashed.push(s);
        crashes.push((s, 1 + rng.next_below(24)));
    }
    let torn_shard = (rng.next_f64() < 0.50).then(|| rng.next_below(shards as u64) as usize);
    let runaway_shard = (rng.next_f64() < 0.25).then(|| rng.next_below(shards as u64) as usize);
    let rollout = rng.next_f64() < 0.60;
    FleetChaosSchedule {
        plan,
        crashes,
        torn_shard,
        runaway_shard,
        rollout,
        poisoned: rollout && rng.next_f64() < 0.25,
    }
}

/// Aggregate outcome of a fleet campaign batch.
#[derive(Clone, Debug, Default)]
pub struct FleetCampaignReport {
    /// Schedules executed.
    pub campaigns: u64,
    /// Schedules with at least one oracle violation.
    pub violating: u64,
    /// Every violating schedule with its violations, in campaign order.
    pub violations: Vec<(FleetChaosSchedule, Vec<String>)>,
    /// Shard crashes injected across all campaigns.
    pub crashes: u64,
    /// Shard recoveries across all campaigns.
    pub recoveries: u64,
    /// Jobs served across all campaigns.
    pub served: u64,
    /// Requests shed across all campaigns.
    pub shed: u64,
    /// Rollout deploys across all campaigns.
    pub rollout_deploys: u64,
    /// Rollouts frozen across all campaigns.
    pub rollouts_frozen: u64,
    /// Scavenger slice-epochs stolen across all campaigns.
    pub steals: u64,
    /// Order-sensitive fold of every campaign's fleet hash — one number
    /// certifying the whole batch replayed bit-for-bit.
    pub xr_hash: u64,
}

/// Runs `n` seed-derived random fleet schedules and aggregates.
/// Campaign `i` of seed `s` is identical across processes and reruns.
pub fn run_fleet_campaigns(
    factory: &mut dyn FnMut(&FleetChaosSchedule) -> FleetChaosWorld,
    n: u64,
    seed: u64,
    opts: &FleetChaosOptions,
) -> Result<FleetCampaignReport, FleetChaosError> {
    let mut rng = SplitMix64::new(seed ^ 0xF1EE_7C40);
    let mut rep = FleetCampaignReport::default();
    for _ in 0..n {
        let schedule = random_fleet_schedule(&mut rng, opts.fleet.shards);
        let run = run_fleet_schedule(factory, &schedule, opts)?;
        rep.campaigns += 1;
        rep.crashes += run.crashes;
        rep.recoveries += run.recoveries;
        rep.served += run.served;
        rep.shed += run.shed;
        rep.rollout_deploys += run.rollout_deploys;
        rep.rollouts_frozen += u64::from(run.rollout_frozen);
        rep.steals += run.steals;
        rep.xr_hash = mix64(rep.xr_hash, run.fleet_hash);
        if !run.violations.is_empty() {
            rep.violating += 1;
            rep.violations.push((schedule, run.violations));
        }
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::{DegradeOptions, Rung};
    use crate::dualmode::{DualModeOptions, WatchdogOptions};
    use crate::fleet::{Arrival, FleetOptions};
    use crate::pgo_pipeline_degrading;
    use crate::pipeline::{lint_gate, verify_gate};
    use crate::supervisor::SupervisorOptions;
    use reach_profile::{OnlineEstimatorOptions, Periods};
    use reach_sim::{AluOp, Cond, Context, MultiCoreConfig, ProgramBuilder, Reg};
    use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

    const LOOKUPS: u64 = 1024;

    struct ShardStreams {
        live: Vec<InstanceSetup>,
        cursor: usize,
        prof: Vec<InstanceSetup>,
        prof_cursor: usize,
    }

    /// The fleet test service with the runaway arm: the schedule's
    /// runaway shard swaps its scavenger pool to a spin loop for a
    /// burst of mid-run epochs.
    struct ChaosFleetService {
        per: Vec<ShardStreams>,
        shards: usize,
        per_epoch: usize,
        runaway_shard: Option<usize>,
        runaway: Program,
    }

    impl FleetWorkload for ChaosFleetService {
        fn arrivals(&mut self, epoch: u64) -> Vec<Arrival> {
            (0..self.per_epoch)
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
        fn scavenger_context(
            &mut self,
            shard: usize,
            _epoch: u64,
            _job: u64,
            _slot: usize,
        ) -> Context {
            let p = &mut self.per[shard];
            let i = p.cursor;
            p.cursor += 1;
            p.live[i % p.live.len()].make_context(1_000 + i)
        }
        fn scavenger_program(&mut self, shard: usize, epoch: u64) -> Option<Program> {
            (self.runaway_shard == Some(shard) && (3..6).contains(&epoch))
                .then(|| self.runaway.clone())
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

    fn runaway_prog() -> Program {
        let mut b = ProgramBuilder::new("runaway");
        b.imm(Reg(1), 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(1), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    fn fast_degrade() -> DegradeOptions {
        let mut d = DegradeOptions::default();
        d.pipeline.collector.periods = Periods {
            l2_miss: 13,
            l3_miss: 13,
            stall: 13,
            retired: 13,
        };
        d
    }

    fn chaos_sup() -> SupervisorOptions {
        SupervisorOptions {
            epochs: 10,
            service_per_epoch: 1,
            scavengers: 2,
            insitu_period: 31,
            estimator: OnlineEstimatorOptions {
                window: 2048,
                min_samples: 8,
            },
            staleness_threshold: 0.6,
            seed: 42,
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

    fn chaos_fleet_opts(shards: usize) -> FleetChaosOptions {
        let mut o = FleetChaosOptions::new(FleetOptions {
            shards,
            epochs: 10,
            sup: chaos_sup(),
            seed: 7,
            ..FleetOptions::default()
        });
        o.rollout_template = RolloutOptions {
            start_epoch: 2,
            health_epochs: 1,
            p99_factor: 100.0,
            poison: None,
        };
        o
    }

    /// Builds one fresh fleet world for a schedule: identical per-core
    /// zipf tables (one shared program + initial build), runaway arm
    /// wired to the schedule's runaway shard.
    fn fleet_factory(shards: usize) -> impl FnMut(&FleetChaosSchedule) -> FleetChaosWorld {
        move |schedule: &FleetChaosSchedule| {
            let mut mc = MultiCore::new(MultiCoreConfig::new(shards));
            let mut per = Vec::new();
            let mut orig: Option<Program> = None;
            for s in 0..shards {
                let m = &mut mc.cores[s];
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
                    Some(o) => assert_eq!(o.fingerprint(), live.prog.fingerprint()),
                }
                per.push(ShardStreams {
                    live: live.instances,
                    cursor: 0,
                    prof: prof.instances,
                    prof_cursor: 0,
                });
            }
            let orig = orig.unwrap();
            let mut svc = ChaosFleetService {
                per,
                shards,
                per_epoch: 2,
                runaway_shard: schedule.runaway_shard,
                runaway: runaway_prog(),
            };
            let built = {
                let mc0 = &mut mc.cores[0];
                pgo_pipeline_degrading(
                    mc0,
                    &orig,
                    |a| svc.profiling_contexts(0, a),
                    &fast_degrade(),
                )
            };
            assert_eq!(built.rung, Rung::FullPgo, "{:?}", built.reasons);
            FleetChaosWorld {
                mc,
                workload: Box::new(svc),
                original: orig,
                initial: DeployedBuild::from(built),
            }
        }
    }

    #[test]
    fn quiet_schedule_replays_bit_for_bit() {
        let opts = chaos_fleet_opts(2);
        let mut factory = fleet_factory(2);
        let schedule = FleetChaosSchedule {
            rollout: true,
            ..FleetChaosSchedule::quiet(3)
        };
        let a = run_fleet_schedule(&mut factory, &schedule, &opts).unwrap();
        let b = run_fleet_schedule(&mut factory, &schedule, &opts).unwrap();
        assert_eq!(a.violations, Vec::<String>::new());
        assert!(a.served > 0);
        assert_eq!(a.crashes, 0);
        assert!(a.rollout_deploys >= 1, "quiet rollout should deploy");
        assert_eq!(
            a.fleet_hash, b.fleet_hash,
            "fleet chaos replay must be byte-identical"
        );
    }

    /// Every channel of a hand-written plan reaches the shards, not only
    /// the four the random generator arms, and the repro names it.
    #[test]
    fn a_sampler_only_plan_arms_every_shard_and_shows_in_the_repro() {
        let quiet = FleetChaosSchedule::quiet(5);
        assert_eq!(quiet.shard_plan(0), None);
        let armed = [
            FaultPlan::none(5).with_pebs_drop(0.5),
            FaultPlan::none(5).with_pebs_extra_skid(2),
            FaultPlan::none(5).with_pebs_pc_corrupt(0.5, 4),
            FaultPlan::none(5).with_lbr_drop(0.5),
            FaultPlan::none(5).with_prefetch_corrupt(0.5, 4),
        ];
        for plan in armed {
            let s = FleetChaosSchedule {
                plan,
                ..quiet.clone()
            };
            for shard in 0..3 {
                let got = s.shard_plan(shard).expect("armed on every shard");
                assert_eq!(
                    got,
                    FaultPlan {
                        seed: shard_seed(5, shard as u64),
                        ..plan
                    }
                );
            }
            assert!(s.repro().contains(&plan.repro()), "{}", s.repro());
        }
        // The torn channels still reach the torn shard only, and a crash
        // alone arms its shard.
        let s = FleetChaosSchedule {
            plan: FaultPlan::none(5).with_torn_write(0.5),
            crashes: vec![(2, 7)],
            torn_shard: Some(1),
            ..quiet
        };
        assert_eq!(s.shard_plan(0), None);
        assert_eq!(s.shard_plan(1).map(|p| p.torn_write), Some(0.5));
        let crashed = s.shard_plan(2).expect("crash arms the shard");
        assert_eq!((crashed.crash_at, crashed.torn_write), (Some(7), 0.0));
    }

    #[test]
    fn crashed_shard_recovers_and_oracles_hold() {
        let opts = chaos_fleet_opts(2);
        let mut factory = fleet_factory(2);
        let schedule = FleetChaosSchedule {
            plan: FaultPlan::none(0xD1E).with_torn_write(0.8),
            crashes: vec![(0, 3)],
            torn_shard: Some(0),
            rollout: true,
            ..FleetChaosSchedule::quiet(0xD1E)
        };
        let run = run_fleet_schedule(&mut factory, &schedule, &opts).unwrap();
        assert_eq!(
            run.violations,
            Vec::<String>::new(),
            "repro: {}",
            schedule.repro()
        );
        assert_eq!(run.crashes, 1, "the scheduled crash must fire");
        assert_eq!(run.recoveries, 1, "the crashed shard must recover");
    }

    /// Random schedules reach a deploy's crash points only by luck of
    /// `1 + next_below(24)`. This sweep hits each on purpose: the shard
    /// the rollout reaches first is crashed at its k-th consultation for
    /// every k its run has, so mid-`Deploy`-append, mid-swap and
    /// mid-`Breaker`-append all land inside the rollout deploy — and,
    /// under a health gate nothing can pass, inside the LKG re-pin that
    /// follows it.
    #[test]
    fn first_deploying_shard_survives_a_crash_at_every_consultation() {
        let mut factory = fleet_factory(2);
        for (p99_factor, deploys) in [(100.0, 1), (0.0, 2)] {
            let mut opts = chaos_fleet_opts(2);
            opts.rollout_template.p99_factor = p99_factor;
            let mut swept = 0;
            loop {
                let schedule = FleetChaosSchedule {
                    plan: FaultPlan::none(0x5EE9).with_torn_write(0.8),
                    crashes: vec![(0, swept + 1)],
                    torn_shard: Some(0),
                    rollout: true,
                    ..FleetChaosSchedule::quiet(0x5EE9)
                };
                let run = run_fleet_schedule(&mut factory, &schedule, &opts).unwrap();
                assert_eq!(
                    run.violations,
                    Vec::<String>::new(),
                    "repro: {}",
                    schedule.repro()
                );
                if run.crashes == 0 {
                    assert_eq!(
                        run.rollout_frozen,
                        deploys == 2,
                        "the re-pin arm must re-pin"
                    );
                    break; // past the run's last consultation
                }
                swept += 1;
            }
            // The initial persist, one advance per epoch, and three
            // crash points per deploy were all inside the sweep.
            assert_eq!(swept, 1 + opts.fleet.epochs + 3 * deploys);
        }
    }

    #[test]
    fn poisoned_rollout_is_contained_under_crash_chaos() {
        let opts = chaos_fleet_opts(2);
        let mut factory = fleet_factory(2);
        let schedule = FleetChaosSchedule {
            crashes: vec![(0, 6)],
            rollout: true,
            poisoned: true,
            ..FleetChaosSchedule::quiet(0xBAD)
        };
        let run = run_fleet_schedule(&mut factory, &schedule, &opts).unwrap();
        assert_eq!(
            run.violations,
            Vec::<String>::new(),
            "repro: {}",
            schedule.repro()
        );
        assert!(
            run.rollout_deploys <= 1,
            "poison must never reach a second shard"
        );
    }

    #[test]
    fn runaway_shard_is_survived() {
        let opts = chaos_fleet_opts(2);
        let mut factory = fleet_factory(2);
        let schedule = FleetChaosSchedule {
            runaway_shard: Some(1),
            ..FleetChaosSchedule::quiet(5)
        };
        let run = run_fleet_schedule(&mut factory, &schedule, &opts).unwrap();
        assert_eq!(
            run.violations,
            Vec::<String>::new(),
            "repro: {}",
            schedule.repro()
        );
        assert!(run.served > 0);
    }

    #[test]
    fn degenerate_schedules_are_typed_errors() {
        let mut opts = chaos_fleet_opts(2);
        let mut factory = fleet_factory(2);
        let mut runaway = FleetChaosSchedule::quiet(1);
        runaway.runaway_shard = Some(0);
        opts.fleet.sup.dual.watchdog = None;
        assert_eq!(
            run_fleet_schedule(&mut factory, &runaway, &opts).unwrap_err(),
            FleetChaosError::RunawayWithoutWatchdog
        );
        let opts = chaos_fleet_opts(2);
        let mut oob = FleetChaosSchedule::quiet(1);
        oob.crashes = vec![(9, 1)];
        assert_eq!(
            run_fleet_schedule(&mut factory, &oob, &opts).unwrap_err(),
            FleetChaosError::CrashShardOutOfRange
        );
    }

    #[test]
    fn poison_is_caught_by_gates_and_recovery_repin_is_trusted() {
        // The poison mutator must actually produce a gate-detectable
        // artifact, or the containment oracles test nothing.
        let mut factory = fleet_factory(2);
        let world = factory(&FleetChaosSchedule::quiet(0));
        let sup = chaos_sup();
        let mut poisoned = world.initial.clone();
        poison_yield_saves(&mut poisoned);
        let lint = &sup.degrade.pipeline.lint;
        let caught = lint_gate(&poisoned.prog, &poisoned.origin, lint).is_err()
            || verify_gate(&world.original, &poisoned.prog, &poisoned.origin, lint).is_err();
        assert!(
            caught,
            "poison_yield_saves must be detectable by the swap gates"
        );
    }

    #[test]
    fn fleet_campaign_batch_is_deterministic_and_clean() {
        let opts = chaos_fleet_opts(2);
        let run = || {
            let mut factory = fleet_factory(2);
            run_fleet_campaigns(&mut factory, 5, 0xF1EE7, &opts).unwrap()
        };
        let a = run();
        for (s, v) in &a.violations {
            eprintln!("violating schedule: {}\n  {:?}", s.repro(), v);
        }
        assert_eq!(
            a.violating, 0,
            "fixed-seed campaign batch must be violation-free"
        );
        assert_eq!(a.campaigns, 5);
        assert!(a.served > 0);
        let b = run();
        assert_eq!(
            a.xr_hash, b.xr_hash,
            "campaign batch must replay bit-for-bit"
        );
    }
}
