//! CHAOS: deterministic crash–restart campaigns over supervised serving.
//!
//! Every cell takes one fault class from the PR 2 matrix (PEBS sample
//! loss/skid/corruption, LBR truncation, stale profiles, wrong-address
//! prefetches, runaway scavengers, injected traps) and layers it over
//! the crash-model base: seed-derived crash instants plus torn-write
//! and partial-flush faults on the supervisor's durable journal. Each
//! schedule runs the full serve → crash → recover → resume loop of
//! [`reach_core::run_schedule`] and is audited by its five safety
//! oracles (never serve an unverified build, epoch monotonicity across
//! restarts, bounded unavailability, journal-projection ≡ live state,
//! breaker-open ⇒ degraded rung).
//!
//! The gated contract is **zero oracle violations in every cell** plus
//! a byte-stable cross-restart incident hash (`xr_hash`) — the
//! replay-determinism guarantee extended over simulated process
//! crashes. `availability` is `served` over the crash-free job count,
//! so it is as deterministic as the counters it is derived from and
//! gates at `--rel 0` with them (it can exceed 1: at-least-once
//! recovery re-serves the crashed epoch). Recovery's host time is not
//! measured here: `benchmark/run.sh run --workload fleet-churn --trace 1`
//! reports it in calibrated time as `core.supervisor.recover_us`.
//!
//! `reach_chaos` is the operator's view of the same engine: bigger
//! randomized batches, plus the shrinker that bisects any violating
//! schedule down to a copy-pasteable minimal repro.

use crate::experiment::{Cell, CellMetrics, Experiment, Tier};
use crate::report::{BenchReport, CellStatus};
use reach_core::{
    mix64, pgo_pipeline_degrading, run_schedule, ChaosOptions, ChaosSchedule, ChaosWorld,
    DegradeOptions, DeployedBuild, DualModeOptions, Rung, ServiceWorkload, SupervisorOptions,
    WatchdogOptions,
};
use reach_profile::{OnlineEstimatorOptions, Periods};
use reach_sim::{
    AluOp, Cond, Context, FaultPlan, Machine, MachineConfig, Program, ProgramBuilder, Reg,
    SplitMix64,
};
use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

/// Schedules each cell runs (all crash-bearing; instants seed-derived).
const CAMPAIGNS: u64 = 6;

/// Epochs per schedule: long enough that drift trips a rebuild and the
/// crash instants land across every loop stage.
const EPOCHS: u64 = 10;

/// One fault class layered over the crash + torn-write base.
struct Class {
    name: &'static str,
    /// Extra fault channels armed on top of the base plan.
    arm: fn(FaultPlan) -> FaultPlan,
    /// Feed every rebuild a drifted profile.
    stale: bool,
    /// Arm the runaway-scavenger burst in the service.
    runaway: bool,
}

fn classes() -> Vec<Class> {
    fn id(p: FaultPlan) -> FaultPlan {
        p
    }
    vec![
        Class {
            name: "baseline",
            arm: id,
            stale: false,
            runaway: false,
        },
        Class {
            name: "pebs-drop",
            arm: |p| p.with_pebs_drop(0.5),
            stale: false,
            runaway: false,
        },
        Class {
            name: "pebs-skid",
            arm: |p| p.with_pebs_extra_skid(9),
            stale: false,
            runaway: false,
        },
        Class {
            name: "pebs-pc-corrupt",
            arm: |p| p.with_pebs_pc_corrupt(0.4, 12),
            stale: false,
            runaway: false,
        },
        Class {
            name: "lbr-trunc",
            arm: |p| p.with_lbr_drop(0.6),
            stale: false,
            runaway: false,
        },
        Class {
            name: "stale-profile",
            arm: id,
            stale: true,
            runaway: false,
        },
        Class {
            name: "prefetch-corrupt",
            arm: |p| p.with_prefetch_corrupt(0.6, 16),
            stale: false,
            runaway: false,
        },
        Class {
            name: "runaway-scav",
            arm: id,
            stale: false,
            runaway: true,
        },
        Class {
            name: "coro-trap",
            arm: |p| p.with_trap_every(30_000),
            stale: false,
            runaway: false,
        },
    ]
}

/// The drift-prone zipf-KV service every schedule supervises (the
/// supervisor fixtures' construction): fresh instances per job so
/// misses stay compulsory, a live profiling pool for rebuilds, and an
/// optional runaway scavenger burst in epochs 2..5.
struct Service {
    live: Vec<InstanceSetup>,
    cursor: usize,
    prof_live: Vec<InstanceSetup>,
    prof_cursor: usize,
    runaway: Option<Program>,
}

impl ServiceWorkload for Service {
    fn arrivals(&mut self, _epoch: u64) -> usize {
        1
    }
    fn primary_context(&mut self, _job: u64) -> Context {
        let i = self.cursor;
        self.cursor += 1;
        self.live[i % self.live.len()].make_context(1_000 + i)
    }
    fn scavenger_context(&mut self, _epoch: u64, _job: u64, _slot: usize) -> Context {
        let i = self.cursor;
        self.cursor += 1;
        self.live[i % self.live.len()].make_context(1_000 + i)
    }
    fn scavenger_program(&mut self, epoch: u64) -> Option<Program> {
        let prog = self.runaway.as_ref()?;
        (2..5).contains(&epoch).then(|| prog.clone())
    }
    fn profiling_contexts(&mut self, _attempt: u32) -> Vec<Context> {
        let n = self.prof_live.len();
        (0..2)
            .map(|_| {
                let i = self.prof_cursor;
                self.prof_cursor += 1;
                self.prof_live[i % n].make_context(9_000 + i)
            })
            .collect()
    }
}

/// A cooperative-free infinite loop for the runaway-scavenger class.
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

/// Profiling periods sized to the 1024-lookup test jobs.
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

/// Builds one fresh serving world for a schedule: drifted zipf-KV
/// traffic (initial build profiled against uniform keys, live traffic
/// hot-headed) so staleness trips rebuilds and crash points land in
/// every supervisor loop stage. Shared with the `reach_chaos` CLI.
pub fn drift_world(schedule: &ChaosSchedule) -> ChaosWorld {
    let mut m = Machine::new(MachineConfig::default());
    let mut alloc = AddrAlloc::new(crate::LAYOUT_BASE);
    let params = |theta: f64, seed: u64| ZipfKvParams {
        table_entries: 1 << 15,
        lookups: 1024,
        theta,
        seed,
    };
    let live = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 13), 56);
    let stale = build_zipf_kv(&mut m.mem, &mut alloc, params(0.0, 11), 8);
    let prof = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 17), 12);
    let orig = live.prog.clone();
    let svc = Service {
        live: live.instances,
        cursor: 0,
        prof_live: prof.instances,
        prof_cursor: 0,
        runaway: schedule.runaway.then(runaway_prog),
    };
    let built = pgo_pipeline_degrading(
        &mut m,
        &orig,
        |a| {
            let n = stale.instances.len();
            (0..2)
                .map(|k| {
                    let i = 2 * a as usize + k;
                    stale.instances[i % n].make_context(9_500 + i)
                })
                .collect()
        },
        &fast_degrade(),
    );
    assert_eq!(built.rung, Rung::FullPgo, "{:?}", built.reasons);
    ChaosWorld {
        machine: m,
        workload: Box::new(svc),
        original: orig,
        initial: DeployedBuild::from(built),
    }
}

/// The engine configuration every cell (and the `reach_chaos` CLI)
/// runs: the supervisor knobs the selfheal fixtures use, correct
/// recovery, no artifact bit-rot. The watchdog must be armed — without
/// it a runaway scavenger gets an unbounded slice and the run never
/// terminates (containment is the supervisor's job; the per-job
/// watchdog just bounds each slice).
pub fn default_chaos_opts() -> ChaosOptions {
    ChaosOptions::new(SupervisorOptions {
        epochs: EPOCHS,
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
    })
}

/// The crash-campaign experiment.
pub struct Chaos;

impl Experiment for Chaos {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn title(&self) -> &'static str {
        "CHAOS: crash-restart campaigns (fault class x crash + torn-write schedules)"
    }

    fn notes(&self) -> &'static str {
        "clean if every fault class survives its crash schedules with \
         zero oracle violations: no unverified build served, epochs \
         monotone across restarts, every crash bounded to one recovery \
         segment, journal projection equal to live state, breaker-open \
         never over full PGO. xr_hash certifies the cross-restart \
         incident log replayed bit-for-bit. availability (served over \
         the crash-free job count) is gated with the counters it is \
         derived from."
    }

    fn cells(&self, _tier: Tier) -> Vec<Cell> {
        // Already CI-sized; smoke == full keeps one committed baseline
        // valid for both tiers.
        classes()
            .iter()
            .map(|c| Cell::new("zipf-drift", c.name))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, seed: u64) -> CellMetrics {
        let class = classes()
            .into_iter()
            .find(|c| c.name == cell.config)
            .expect("known fault class");
        let opts = default_chaos_opts();

        // Seed-derived schedules: every one carries the crash +
        // torn-write + partial-flush base, half carry a second crash.
        let mut rng = SplitMix64::new(seed);
        let mut agg = CellMetrics::new();
        let (mut violations, mut crashes, mut segments) = (0u64, 0u64, 0u64);
        let (mut recoveries_degraded, mut torn_tails) = (0u64, 0u64);
        let (mut served, mut shed_jobs, mut swaps, mut rebuilds) = (0u64, 0u64, 0u64, 0u64);
        let (mut journal_records, mut xr_hash) = (0u64, 0u64);
        let mut first_violation = String::from("-");
        for k in 0..CAMPAIGNS {
            let plan = (class.arm)(
                FaultPlan::none(rng.next_u64())
                    .with_torn_write(0.6)
                    .with_partial_flush(0.4),
            );
            let n_crashes = 1 + (k % 2) as usize;
            let schedule = ChaosSchedule {
                plan,
                crashes: (0..n_crashes).map(|_| 1 + rng.next_below(24)).collect(),
                stale_rebuilds: class.stale,
                runaway: class.runaway,
            };
            let run = run_schedule(&mut drift_world, &schedule, &opts).expect("validated config");
            violations += run.violations.len() as u64;
            if first_violation == "-" {
                if let Some(v) = run.violations.first() {
                    first_violation = format!("{v} [{}]", schedule.repro());
                }
            }
            crashes += run.crashes;
            segments += run.segments;
            recoveries_degraded += run.recoveries_degraded;
            torn_tails += run.torn_tails;
            served += run.served;
            shed_jobs += run.shed_jobs;
            swaps += run.swaps;
            rebuilds += run.rebuilds;
            journal_records += run.journal_records;
            // Same order-sensitive fold as CampaignReport::xr_hash.
            xr_hash = mix64(xr_hash, run.incident_hash);
        }

        // At-least-once serving: jobs re-served after a crash lose no
        // epoch, so availability is served over the crash-free job count.
        let expected = (EPOCHS * CAMPAIGNS) as f64;
        agg.put_u64("campaigns", CAMPAIGNS)
            .put_u64("violations", violations)
            .put_u64("crashes", crashes)
            .put_u64("segments", segments)
            .put_u64("recoveries_degraded", recoveries_degraded)
            .put_u64("torn_tails", torn_tails)
            .put_u64("served", served)
            .put_u64("shed_jobs", shed_jobs)
            .put_u64("swaps", swaps)
            .put_u64("rebuilds", rebuilds)
            .put_u64("journal_records", journal_records)
            .put_u64("xr_hash", xr_hash)
            .put_str("first_violation", first_violation)
            .put_f64("availability", served as f64 / expected);
        agg
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        let mut violations = Vec::new();
        for c in &report.cells {
            if c.status != CellStatus::Ok {
                continue;
            }
            let n = c.metrics.get_f64("violations").unwrap_or(f64::NAN);
            if n != 0.0 {
                let detail = c
                    .metrics
                    .get("first_violation")
                    .map(|v| v.render())
                    .unwrap_or_default();
                violations.push(format!(
                    "{}: {n:.0} oracle violation(s), first: {detail}",
                    c.cell
                ));
            }
            // Every schedule carries armed crash instants (late ones may
            // legitimately outlive a short segment), so a cell with no
            // crash at all or no journal means the harness went dark.
            if c.metrics.get_f64("crashes").unwrap_or(0.0) == 0.0 {
                violations.push(format!("{}: no schedule ever crashed", c.cell));
            }
            if c.metrics.get_f64("journal_records").unwrap_or(0.0) == 0.0 {
                violations.push(format!("{}: empty durable journal", c.cell));
            }
        }
        violations
    }
}
