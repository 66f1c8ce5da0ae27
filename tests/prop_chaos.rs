//! Property tests: crash–restart recovery converges, and chaos
//! schedules replay bit-for-bit — on the one chaos engine, at one shard.
//!
//! Over random generated programs (the `common` micro-IR generator) a
//! one-shard fleet is crashed at *every* crash point it consults: the
//! shard stays down for the rest of that epoch, recovers at the top of
//! the next, and resumes. Every consulted point must fire, every run
//! must pass every oracle (the end-of-run audit that the journal replays
//! to the live state among them) and lose at most the crashed epoch's
//! job, and the final durable journal must project to what the
//! never-crashed run journals. A second property reruns random fleet
//! schedules and demands the fleet hash, counters, latencies, violations
//! and final journal come back byte-identical: the replay-determinism
//! contract of `prop_supervisor.rs` extended over simulated process
//! deaths.

mod common;

use common::{gen_program, GenProgram, BASE, RB};
use proptest::prelude::*;
use reach_core::{
    pgo_pipeline_degrading, project, random_fleet_schedule, run_fleet, run_fleet_schedule, Arrival,
    DegradeOptions, DeployedBuild, DualModeOptions, FleetChaosOptions, FleetChaosSchedule,
    FleetChaosWorld, FleetOptions, FleetWorkload, Journal, JournalState, SupervisorOptions,
    WatchdogOptions,
};
use reach_profile::{OnlineEstimatorOptions, Periods};
use reach_sim::{Context, FaultInjector, FaultPlan, MultiCore, MultiCoreConfig, SplitMix64};

/// Short runs: enough epochs that crash points land across every loop
/// stage, small enough that a per-crash-point sweep stays cheap.
const EPOCHS: u64 = 4;

fn ctx(id: usize) -> Context {
    let mut c = Context::new(id);
    c.set_reg(RB, BASE);
    c
}

/// Serves the generated program on the one shard: every job is a fresh
/// context over the shared scratch region (stores are deterministic, so
/// replays agree).
struct GenService {
    next: usize,
}

impl FleetWorkload for GenService {
    fn arrivals(&mut self, _epoch: u64) -> Vec<Arrival> {
        vec![Arrival {
            ingress: 0,
            owner: 0,
        }]
    }
    fn primary_context(&mut self, _shard: usize, _job: u64) -> Context {
        self.next += 1;
        ctx(1_000 + self.next)
    }
    fn scavenger_context(
        &mut self,
        _shard: usize,
        _epoch: u64,
        _job: u64,
        _slot: usize,
    ) -> Context {
        self.next += 1;
        ctx(1_000 + self.next)
    }
    fn profiling_contexts(&mut self, _shard: usize, attempt: u32) -> Vec<Context> {
        vec![ctx(9_000 + attempt as usize)]
    }
}

/// Profiling periods sized to micro programs (the defaults would starve
/// the collector).
fn degrade() -> DegradeOptions {
    let mut d = DegradeOptions::default();
    d.pipeline.collector.periods = Periods {
        l2_miss: 3,
        l3_miss: 3,
        stall: 13,
        retired: 7,
    };
    d
}

/// A quiet one-shard fleet: random micro programs are not a drift
/// scenario, so staleness can never trip and the loop is pure journaled
/// serving — exactly the regime where crash placement is the only
/// variable.
fn opts() -> FleetChaosOptions {
    FleetChaosOptions::new(FleetOptions {
        shards: 1,
        epochs: EPOCHS,
        sup: SupervisorOptions {
            service_per_epoch: 1,
            scavengers: 1,
            insitu_period: 31,
            estimator: OnlineEstimatorOptions {
                window: 256,
                min_samples: 8,
            },
            staleness_threshold: 2.0,
            degrade: degrade(),
            // Random schedules may arm the runaway-scavenger class, and
            // the engine (rightly) refuses runaways without a bounded
            // slice, so the watchdog must be armed.
            dual: DualModeOptions {
                watchdog: Some(WatchdogOptions {
                    slice_steps: 2_000,
                    overrun_cycles: 500,
                    max_overruns: u32::MAX,
                }),
                ..DualModeOptions::default()
            },
            ..SupervisorOptions::default()
        },
        seed: 77,
        ..FleetOptions::default()
    })
}

/// One fresh one-shard world for `g`: scratch region initialized,
/// initial build from the degrading pipeline (whatever rung the random
/// program earns).
fn gen_world(g: &GenProgram) -> FleetChaosWorld {
    let mut mc = MultiCore::new(MultiCoreConfig::new(1));
    let m = &mut mc.cores[0];
    m.mem.write_slice(BASE, &g.init_words);
    let built = pgo_pipeline_degrading(m, &g.prog, |a| vec![ctx(9_000 + a as usize)], &degrade());
    FleetChaosWorld {
        mc,
        workload: Box::new(GenService { next: 0 }),
        original: g.prog.clone(),
        initial: DeployedBuild::from(built),
    }
}

// Hand mutations tried, each of which fails the crash sweep below in a
// release build (`cargo test --release --test prop_chaos`) while every
// fleet oracle stays silent:
//
//  1. the crash channel skips its third consultation (a crash point that
//     silently stops firing mid-run);
//  2. `recover` re-journals its `Deploy` at the resume epoch even when
//     the journaled artifact passed re-validation (the recovered shard
//     ends on the right build, but not on the never-crashed durable
//     state).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Crash at every consulted crash point, recover, resume: every
    /// consulted point fires exactly once, every run passes every oracle
    /// and loses at most the crashed epoch's job, and the final durable
    /// journal projects to the never-crashed run's state. (When the crash
    /// precedes the first durable deploy, recovery legitimately deploys
    /// the ladder fallback — the projection then differs in the
    /// deployment but must still reach the final epoch with the breaker
    /// intact.)
    #[test]
    fn crash_at_every_point_recovers_to_the_never_crashed_state(g in gen_program()) {
        let opts = opts();

        // Discover how many crash points one clean run consults.
        let consults = {
            let mut world = gen_world(&g);
            world.mc.cores[0].faults = Some(FaultInjector::new(FaultPlan::none(1)));
            let rep = run_fleet(
                &mut world.mc,
                world.workload.as_mut(),
                &world.original,
                world.initial.clone(),
                &opts.fleet,
            ).expect("validated config");
            prop_assert_eq!(rep.crashes, 0);
            world.mc.cores[0].faults.as_ref().expect("armed above").crash_points_seen()
        };
        prop_assert!(consults > 0, "journaled serving consults no crash points");

        let mut factory = |_s: &FleetChaosSchedule| gen_world(&g);
        let crash_at = |at: u64| FleetChaosSchedule {
            crashes: vec![(0, at)],
            ..FleetChaosSchedule::quiet(1)
        };
        let baseline = run_fleet_schedule(&mut factory, &FleetChaosSchedule::quiet(1), &opts)
            .expect("validated config");
        prop_assert_eq!(&baseline.violations, &Vec::<String>::new());
        let base = &baseline.shards[0];
        // Job numbering shifts by the crashed epoch's lost job;
        // everything else about the durable state must agree.
        let projection = |journal: &Journal| JournalState {
            next_job: 0,
            ..project(&journal.replay().records)
        };
        let want = projection(&base.journal);

        for at in 1..=consults {
            let run = run_fleet_schedule(&mut factory, &crash_at(at), &opts)
                .expect("validated config");
            prop_assert_eq!(&run.violations, &Vec::<String>::new(), "crash_at={}", at);
            prop_assert_eq!(run.crashes, 1, "crash_at={} never fired", at);
            let sh = &run.shards[0];
            prop_assert!(
                sh.served <= base.served && sh.served + 1 >= base.served,
                "crash_at={}: served {} of {}", at, sh.served, base.served
            );
            let mut got = projection(&sh.journal);
            if run.recoveries == 0 {
                // Crashed in the final epoch, so the shard ended down: its
                // journal may stop one advance short of the clean run's.
                prop_assert!(
                    got.epoch.map(|e| e + 1) >= want.epoch,
                    "crash_at={}: journal ends at epoch {:?} of {:?}", at, got.epoch, want.epoch
                );
                got.epoch = want.epoch;
            }
            if sh.recoveries_degraded == 0 {
                prop_assert_eq!(got, want.clone(), "crash_at={}", at);
            } else {
                prop_assert_eq!(got.epoch, want.epoch, "crash_at={}", at);
                prop_assert_eq!(got.breaker, want.breaker, "crash_at={}", at);
                prop_assert!(got.deploy.is_some(), "crash_at={}: fallback not journaled", at);
            }
        }
        let past = run_fleet_schedule(&mut factory, &crash_at(consults + 1), &opts)
            .expect("validated config");
        prop_assert_eq!(past.crashes, 0, "a crash past the last consultation fired");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same seed, same schedule, fresh worlds: the fleet hash, every
    /// counter, the latency stream, the violations and the final journal
    /// — its records, its byte length, its projection — replay
    /// byte-identically.
    #[test]
    fn same_seed_chaos_schedules_replay_bit_for_bit(g in gen_program(), seed in any::<u64>()) {
        let opts = opts();
        let schedule = random_fleet_schedule(&mut SplitMix64::new(seed), 1);
        let mut factory = |_s: &FleetChaosSchedule| gen_world(&g);
        let a = run_fleet_schedule(&mut factory, &schedule, &opts).expect("validated config");
        let b = run_fleet_schedule(&mut factory, &schedule, &opts).expect("validated config");
        prop_assert_eq!(a.fleet_hash(), b.fleet_hash());
        prop_assert_eq!(a.violations, b.violations);
        prop_assert_eq!(a.crashes, b.crashes);
        prop_assert_eq!(a.recoveries, b.recoveries);
        prop_assert_eq!(a.served(), b.served());
        prop_assert_eq!(a.shed(), b.shed());
        prop_assert_eq!(a.rollout_deploys, b.rollout_deploys);
        prop_assert_eq!(&a.shards[0].latencies, &b.shards[0].latencies);
        prop_assert_eq!(a.shards[0].final_rung, b.shards[0].final_rung);
        let (ja, jb) = (a.shards[0].journal.replay(), b.shards[0].journal.replay());
        prop_assert_eq!(&ja.records, &jb.records);
        prop_assert_eq!(ja.valid_bytes, jb.valid_bytes);
        prop_assert_eq!(ja.torn_tail, jb.torn_tail);
        prop_assert_eq!(project(&ja.records), project(&jb.records));
    }
}
