//! Deterministic chaos campaigns over [`run_fleet`]: randomized
//! shard-crash × torn-journal × fault-channel × runaway ×
//! poisoned-rollout schedules, the fleet's oracles, and a shrinker that
//! cuts a violating schedule down to a minimal copy-pasteable repro.
//!
//! This is the repository's one chaos engine. A single supervisor under
//! chaos is the one-shard fleet, under the fleet's crash model: a
//! shard's crash channel fires at its `n`-th crash-point consultation,
//! the shard stays down for the rest of that fleet epoch and recovers
//! through [`crate::recover`] at the top of the next one, before that
//! epoch's arrivals are routed; the crashed epoch is not re-served (jobs
//! the dead loop had admitted are lost), and each shard crashes at most
//! once (its injector dies with the process).
//!
//! The discipline is FoundationDB-style deterministic simulation
//! testing. A [`FleetChaosSchedule`] is a pure value; running it twice
//! produces byte-identical fleet event logs and per-shard incident logs,
//! folded into one `xr_hash` that gates a whole batch. Every oracle is
//! written once:
//!
//! * inside [`run_fleet`] — capacity under rolling deploys, poison
//!   containment, no recovery hands back an unverified build, and each
//!   shard's journal replays to its live state at the end of the run
//!   (strictly increasing epochs, no torn tail, the deployed artifact,
//!   breaker, failures, scavenger budget, breaker-open ⇒ no full PGO);
//! * here — the initial build is trusted, served epochs never go
//!   backwards on a shard, and every crash not in the final epoch is
//!   followed by that shard's recovery.
//!
//! [`minimize`] shrinks a violating schedule with [`ddmin`] over its
//! armed faults (each crash, each plan channel, each workload arm), and
//! [`FleetChaosSchedule::repro`] prints the survivor as a constructor
//! chain.

use crate::fleet::{
    run_fleet, shard_seed, FleetConfigError, FleetEvent, FleetOptions, FleetReport, FleetWorkload,
    RolloutOptions,
};
use crate::supervisor::{build_is_trusted, mix64, DeployedBuild};
use reach_sim::{ddmin, FaultInjector, FaultPlan, Inst, MultiCore, Program, SplitMix64};

/// A fleet chaos configuration the engine refuses to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetChaosError {
    /// The underlying fleet configuration is degenerate.
    Fleet(FleetConfigError),
    /// The schedule arms a runaway scavenger but `sup.dual.watchdog` is
    /// `None`: a cooperative-free scavenger with no watchdog never
    /// yields the slice back, so the epoch would spin until the
    /// unwatched-slice step cap — in practice, a hang.
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

/// One armed fault of a schedule, as the shrinker sees it: a crash, or
/// one entry of [`ARMS`].
#[derive(Clone, Copy, Debug)]
enum Fault {
    Crash(usize),
    Arm(usize),
}

/// Copies one fault arm — a plan channel with its parameter, or a
/// workload arm — from the second schedule into the first.
type CopyArm = fn(&mut FleetChaosSchedule, &FleetChaosSchedule);

const ARMS: [CopyArm; 12] = [
    |to, from| to.plan.pebs_drop = from.plan.pebs_drop,
    |to, from| to.plan.pebs_extra_skid = from.plan.pebs_extra_skid,
    |to, from| {
        to.plan.pebs_pc_corrupt = from.plan.pebs_pc_corrupt;
        to.plan.pebs_pc_corrupt_range = from.plan.pebs_pc_corrupt_range;
    },
    |to, from| to.plan.lbr_drop = from.plan.lbr_drop,
    |to, from| {
        to.plan.prefetch_corrupt = from.plan.prefetch_corrupt;
        to.plan.prefetch_corrupt_lines = from.plan.prefetch_corrupt_lines;
    },
    |to, from| to.plan.trap_every = from.plan.trap_every,
    |to, from| to.plan.torn_write = from.plan.torn_write,
    |to, from| to.plan.partial_flush = from.plan.partial_flush,
    |to, from| to.torn_shard = from.torn_shard,
    |to, from| to.runaway_shard = from.runaway_shard,
    |to, from| to.rollout = from.rollout,
    |to, from| to.poisoned = from.poisoned,
];

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

    /// Arms `world` for this schedule: every shard's injector. Returns
    /// the fleet options with the schedule's rollout, poisoned or not.
    pub(crate) fn arm(
        &self,
        world: &mut FleetChaosWorld,
        opts: &FleetChaosOptions,
    ) -> FleetOptions {
        for s in 0..opts.fleet.shards {
            world.mc.cores[s].faults = self.shard_plan(s).map(FaultInjector::new);
        }
        FleetOptions {
            rollout: self.rollout.then(|| RolloutOptions {
                poison: self
                    .poisoned
                    .then_some(poison_yield_saves as fn(&mut DeployedBuild)),
                ..opts.rollout_template
            }),
            ..opts.fleet.clone()
        }
    }

    /// The armed faults, crashes first: what the shrinker removes.
    fn faults(&self) -> Vec<Fault> {
        let quiet = FleetChaosSchedule::quiet(self.plan.seed);
        let armed = (0..ARMS.len()).filter(|&k| {
            let mut s = quiet.clone();
            ARMS[k](&mut s, self);
            s != quiet
        });
        (0..self.crashes.len())
            .map(Fault::Crash)
            .chain(armed.map(Fault::Arm))
            .collect()
    }

    /// This schedule with only `faults` armed.
    fn keeping(&self, faults: &[Fault]) -> FleetChaosSchedule {
        let mut s = FleetChaosSchedule::quiet(self.plan.seed);
        for f in faults {
            match *f {
                Fault::Crash(i) => s.crashes.push(self.crashes[i]),
                Fault::Arm(k) => ARMS[k](&mut s, self),
            }
        }
        s
    }

    /// How many distinct faults the schedule arms: one per crash, one
    /// per armed plan channel, one per set workload arm (torn shard,
    /// runaway shard, rollout, poison). The shrinker's target metric.
    pub fn event_count(&self) -> usize {
        self.faults().len()
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
    /// rollout, `None` otherwise). `fleet.recover.revalidate: false` is
    /// the deliberately-broken recovery the oracles exist to catch.
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

/// Runs one fleet schedule: arms per-shard injectors, runs the fleet
/// (which crashes and recovers shards inline, auditing its own oracles),
/// then adds the engine-level oracles to the report's violations.
/// Deterministic in `(factory, schedule, opts)`.
pub fn run_fleet_schedule(
    factory: &mut dyn FnMut(&FleetChaosSchedule) -> FleetChaosWorld,
    schedule: &FleetChaosSchedule,
    opts: &FleetChaosOptions,
) -> Result<FleetReport, FleetChaosError> {
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
    let fleet_opts = schedule.arm(&mut world, opts);

    // Never serve an unverified build, from the first epoch on: trust in
    // the initial build is re-derived here, not believed.
    let mut violations = Vec::new();
    if !build_is_trusted(&world.original, &world.initial, &fleet_opts.sup) {
        violations.push(format!(
            "oracle/unverified-build: the initial {} build is untrusted",
            world.initial.rung
        ));
    }

    let mut rep = run_fleet(
        &mut world.mc,
        world.workload.as_mut(),
        &world.original,
        world.initial.clone(),
        &fleet_opts,
    )?;

    // Served epochs never go backwards on a shard, across its restarts.
    for (s, sh) in rep.shards.iter().enumerate() {
        if let Some(w) = sh.latencies.windows(2).find(|w| w[1].0 < w[0].0) {
            violations.push(format!(
                "oracle/epoch-monotonicity: shard {s} served epoch {} after epoch {}",
                w[1].0, w[0].0
            ));
        }
    }
    audit_bounded_unavailability(&rep, schedule, fleet_opts.epochs, &mut violations);
    rep.violations.extend(violations);
    Ok(rep)
}

/// Every injected crash is bounded — at most one per armed shard, and
/// each crash not in the final epoch has a matching recovery.
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
        rep.served += run.served();
        rep.shed += run.shed();
        rep.rollout_deploys += run.rollout_deploys;
        rep.rollouts_frozen += u64::from(run.rollout_frozen);
        rep.steals += run.steals;
        rep.xr_hash = mix64(rep.xr_hash, run.fleet_hash());
        if !run.violations.is_empty() {
            rep.violating += 1;
            rep.violations.push((schedule, run.violations));
        }
    }
    Ok(rep)
}

/// Shrinks a violating schedule: [`ddmin`] over its armed faults, a
/// candidate kept only while it still violates, until no single fault
/// can be dropped or `budget` trials are spent. Returns the minimal
/// schedule and the trials spent.
pub fn minimize(
    factory: &mut dyn FnMut(&FleetChaosSchedule) -> FleetChaosWorld,
    schedule: &FleetChaosSchedule,
    opts: &FleetChaosOptions,
    budget: u64,
) -> Result<(FleetChaosSchedule, u64), FleetChaosError> {
    // The whole schedule runs first: that validates the configuration
    // every sub-schedule shares, and a schedule that violates nothing is
    // its own minimum.
    if run_fleet_schedule(factory, schedule, opts)?
        .violations
        .is_empty()
    {
        return Ok((schedule.clone(), 1));
    }
    let (kept, trials) = ddmin(&schedule.faults(), budget.saturating_sub(1), |faults| {
        let run = run_fleet_schedule(factory, &schedule.keeping(faults), opts);
        !run.expect("a sub-schedule of a valid schedule is valid")
            .violations
            .is_empty()
    });
    Ok((schedule.keeping(&kept), 1 + trials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::{DegradeOptions, Rung};
    use crate::fleet::FleetOptions;
    use crate::pipeline::{lint_gate, verify_gate};
    use crate::supervisor::{Action, BreakerState, RecoverOptions};
    use crate::testkit::{fleet_sup, fleet_world};
    use reach_profile::Profile;

    // Hand mutations tried against the oracles of the chaos engine (the
    // journal audit in `Fleet::seal`, the recovery check in
    // `recover_down_shards`, the checks in `run_fleet_schedule`), each
    // failing the tests named (`cargo test --release -p reach-core`);
    // no equivalent mutant was found:
    //
    //  1. `recover` ignores `revalidate` and never re-validates —
    //     `broken_recovery_is_caught_and_minimized_to_a_tiny_repro`,
    //     `poisoned_rollout_is_contained_under_crash_chaos`,
    //     `fleet_campaign_batch_is_deterministic_and_clean`;
    //  2. the deploy transition skips its `Breaker` append —
    //     `rebuild_storms_survive_a_crash`,
    //     `first_deploying_shard_survives_a_crash_at_every_consultation`;
    //  3. the SLO shed path drops its `ScavBudget` record —
    //     `runaway_shard_is_survived`;
    //  4. `step_epoch` writes its `EpochAdvance` twice — every fleet run;
    //  5. `recover` replays the journal without repairing it (a torn
    //     tail survives) — `crashed_shard_recovers_and_oracles_hold`;
    //  6. the artifact store answers every lookup with its first build —
    //     `rebuild_storms_survive_a_crash` and the poisoned-rollout tests;
    //  7. the backoff `Breaker` record journals `failures: 0` —
    //     `rebuild_storms_survive_a_crash`;
    //  8. the breaker opens over the serving build, not the fallback —
    //     `rebuild_storms_survive_a_crash`;
    //  9. a shard's sealed segments fold newest-first (served epochs go
    //     backwards) — `crashed_shard_recovers_and_oracles_hold` and the
    //     crash sweeps;
    // 10. `project` forgets that a full-PGO deploy closes the breaker —
    //     `rebuild_storms_survive_a_crash`;
    // 11. the initial-build check removed —
    //     `poison_is_caught_by_the_gates_and_an_untrusted_start_is_a_violation`;
    // 12. the untrusted-recovery check removed (the re-pin kept) —
    //     `broken_recovery_is_caught_and_minimized_to_a_tiny_repro`.

    fn chaos_fleet_opts(shards: usize) -> FleetChaosOptions {
        let mut o = FleetChaosOptions::new(FleetOptions {
            shards,
            epochs: 10,
            sup: fleet_sup(),
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
    /// zipf tables (one shared program + initial build), cross-shard
    /// traffic, the runaway arm wired to the schedule's runaway shard.
    fn fleet_factory(shards: usize) -> impl FnMut(&FleetChaosSchedule) -> FleetChaosWorld {
        move |schedule: &FleetChaosSchedule| {
            let (mc, mut svc, original, initial) = fleet_world(shards, 2, true);
            svc.runaway = schedule.runaway_shard;
            FleetChaosWorld {
                mc,
                workload: Box::new(svc),
                original,
                initial,
            }
        }
    }

    fn clean(run: &FleetReport, schedule: &FleetChaosSchedule) {
        assert_eq!(
            run.violations,
            Vec::<String>::new(),
            "repro: {}",
            schedule.repro()
        );
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
        clean(&a, &schedule);
        assert!(a.served() > 0);
        assert_eq!(a.crashes, 0);
        assert!(a.rollout_deploys >= 1, "quiet rollout should deploy");
        assert_eq!(
            a.fleet_hash(),
            b.fleet_hash(),
            "fleet chaos replay must be byte-identical"
        );
    }

    /// Every channel of a hand-written plan reaches the shards, not only
    /// the four the random generator arms; the repro names it and the
    /// event count counts it.
    #[test]
    fn a_sampler_only_plan_arms_every_shard_and_shows_in_the_repro() {
        let quiet = FleetChaosSchedule::quiet(5);
        assert_eq!(quiet.shard_plan(0), None);
        assert_eq!(quiet.event_count(), 0);
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
            assert_eq!(s.event_count(), 1);
            assert_eq!(
                s.keeping(&s.faults()),
                s,
                "faults must rebuild the schedule"
            );
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
        assert_eq!(s.event_count(), 3);
        assert_eq!(s.keeping(&s.faults()), s);
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
        clean(&run, &schedule);
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
                clean(&run, &schedule);
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
        clean(&run, &schedule);
        assert!(
            run.rollout_deploys <= 1,
            "poison must never reach a second shard"
        );
    }

    /// A runaway burst on one shard, with the SLO guard armed and no
    /// probation to earn slices back: the shard ends the run with its
    /// scavenger pool shed, a journaled budget change the end-of-run
    /// audit compares with live, and the fleet survives.
    #[test]
    fn runaway_shard_is_survived() {
        let mut opts = chaos_fleet_opts(2);
        opts.fleet.sup.slo_p99_cycles = 800_000;
        opts.fleet.sup.slo_window = 2;
        opts.fleet.sup.probation_epochs = u64::MAX;
        let mut factory = fleet_factory(2);
        let schedule = FleetChaosSchedule {
            runaway_shard: Some(1),
            ..FleetChaosSchedule::quiet(5)
        };
        let run = run_fleet_schedule(&mut factory, &schedule, &opts).unwrap();
        clean(&run, &schedule);
        assert!(run.served() > 0);
        let shed = run.shards[1]
            .incidents
            .iter()
            .any(|i| matches!(i.action, Action::ShedScavengers { .. }));
        assert!(shed, "the runaway shard never shed its pool");
    }

    /// Every shard's rebuilds fail (a wiped profile with no retries) and
    /// one shard crashes in the middle of it. With two failures allowed
    /// the breakers open over a degraded rung and correlate into a
    /// fleet-wide LKG pin; with no limit every shard ends the run backing
    /// off. Either way every breaker transition is journaled ahead of the
    /// live one.
    #[test]
    fn rebuild_storms_survive_a_crash() {
        for max_failures in [2, u32::MAX] {
            let mut opts = chaos_fleet_opts(2);
            opts.fleet.epochs = 14;
            opts.fleet.sup.staleness_threshold = 0.0;
            opts.fleet.sup.max_rebuild_failures = max_failures;
            opts.fleet.sup.degrade = DegradeOptions {
                max_reprofiles: 0,
                profile_mutator: Some(|p: &mut Profile| p.total_samples = 0),
                ..opts.fleet.sup.degrade
            };
            let mut factory = fleet_factory(2);
            let schedule = FleetChaosSchedule {
                plan: FaultPlan::none(0x57).with_torn_write(0.7),
                crashes: vec![(1, 13)],
                torn_shard: Some(1),
                ..FleetChaosSchedule::quiet(0x57)
            };
            let run = run_fleet_schedule(&mut factory, &schedule, &opts).unwrap();
            clean(&run, &schedule);
            assert_eq!(run.crashes, 1);
            if max_failures == u32::MAX {
                for sh in &run.shards {
                    assert!(matches!(sh.breaker, BreakerState::Backoff { .. }));
                }
                continue;
            }
            let opened = |s: usize| {
                run.shards[s]
                    .incidents
                    .iter()
                    .any(|i| matches!(i.action, Action::BreakerOpen { .. }))
            };
            assert!(opened(0) && opened(1), "{:?}", run.events);
            assert!(
                run.events
                    .iter()
                    .any(|e| matches!(e, FleetEvent::CorrelatedBreakers { .. })),
                "{:?}",
                run.events
            );
        }
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
        // The same guard protects the shrinker's re-runs.
        assert_eq!(
            minimize(&mut factory, &runaway, &opts, 8).unwrap_err(),
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

    /// The poison mutator must produce a gate-detectable artifact, or the
    /// containment oracles test nothing — and a world that starts on
    /// such a build is refused from the first epoch.
    #[test]
    fn poison_is_caught_by_the_gates_and_an_untrusted_start_is_a_violation() {
        let mut factory = fleet_factory(2);
        let world = factory(&FleetChaosSchedule::quiet(0));
        let sup = fleet_sup();
        let mut poisoned = world.initial.clone();
        poison_yield_saves(&mut poisoned);
        let lint = &sup.degrade.pipeline.lint;
        let caught = lint_gate(&poisoned.prog, &poisoned.origin, lint).is_err()
            || verify_gate(&world.original, &poisoned.prog, &poisoned.origin, lint).is_err();
        assert!(
            caught,
            "poison_yield_saves must be detectable by the swap gates"
        );

        let mut poisoned_start = |s: &FleetChaosSchedule| {
            let mut w = fleet_factory(2)(s);
            poison_yield_saves(&mut w.initial);
            w
        };
        let quiet = FleetChaosSchedule::quiet(0);
        let run = run_fleet_schedule(&mut poisoned_start, &quiet, &chaos_fleet_opts(2)).unwrap();
        assert_eq!(
            run.violations,
            vec!["oracle/unverified-build: the initial full-pgo build is untrusted".to_string()]
        );
    }

    /// The acceptance demo: a recovery path that skips re-validation
    /// (`revalidate: false`) brings a poisoned rollout artifact back
    /// after a crash, the fleet's recovery oracle catches it, and the
    /// shrinker reduces the noisy schedule to a ≤3-event repro.
    #[test]
    fn broken_recovery_is_caught_and_minimized_to_a_tiny_repro() {
        let mut opts = chaos_fleet_opts(2);
        opts.fleet.recover = RecoverOptions { revalidate: false };
        let mut factory = fleet_factory(2);
        let noisy = FleetChaosSchedule {
            plan: FaultPlan::none(0x51AB)
                .with_torn_write(0.5)
                .with_lbr_drop(0.4),
            crashes: vec![(0, 8)],
            torn_shard: Some(0),
            runaway_shard: Some(1),
            rollout: true,
            poisoned: true,
        };
        assert_eq!(noisy.event_count(), 7);
        let caught = |run: &FleetReport| {
            run.violations
                .iter()
                .any(|v| v.starts_with("oracle/unverified-build: shard 0 recovered"))
        };
        let run = run_fleet_schedule(&mut factory, &noisy, &opts).unwrap();
        assert!(
            caught(&run),
            "broken recovery not caught: {:?}",
            run.violations
        );

        let (minimal, trials) = minimize(&mut factory, &noisy, &opts, 64).unwrap();
        assert!(trials > 0);
        assert!(
            minimal.event_count() <= 3,
            "not minimal: {} events, {}",
            minimal.event_count(),
            minimal.repro()
        );
        assert!(!minimal.crashes.is_empty(), "a crash is load-bearing here");
        assert!(minimal.repro().starts_with("FleetChaosSchedule {"));
        // The minimal schedule still reproduces.
        let rerun = run_fleet_schedule(&mut factory, &minimal, &opts).unwrap();
        assert!(caught(&rerun), "{:?}", rerun.violations);
        // With re-validation restored, the very same poison is degraded
        // around instead of served.
        opts.fleet.recover.revalidate = true;
        let healed = run_fleet_schedule(&mut factory, &minimal, &opts).unwrap();
        clean(&healed, &minimal);
        assert!(healed.shards[0].recoveries_degraded >= 1);
        assert_ne!(healed.shards[0].final_rung, Rung::FullPgo);
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
