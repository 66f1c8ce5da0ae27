//! CHAOS: deterministic crash–restart campaigns over a supervised shard.
//!
//! Every cell takes one fault class from the fault matrix (PEBS sample
//! loss/skid/corruption, LBR truncation, stale profiles, wrong-address
//! prefetches, runaway scavengers, injected traps) and layers it over
//! the crash-model base: a seed-derived crash instant plus torn-write
//! and partial-flush faults on the shard's durable journal. Each
//! schedule runs on the one chaos engine,
//! [`reach_core::run_fleet_schedule`], over the one-shard drift world
//! of [`crate::serving`], whose stale initial build makes rebuilds fire
//! so the crash instants land in every stage of the loop. The shard
//! serves, crashes, stays down for the rest of that epoch, recovers at
//! the top of the next, and is audited by the engine's oracles: no
//! unverified build served (at the start or after recovery), served
//! epochs monotone across the restart, the crash bounded by one
//! recovery, and the journal replaying to the live state at the end.
//!
//! The gated contract is **zero oracle violations in every cell** plus
//! a byte-stable batch hash (`xr_hash`) over the fleet event and
//! incident logs — the replay-determinism guarantee extended over
//! simulated process crashes. `availability` is served over arrived
//! jobs (one per epoch): a crashed epoch is not re-served, so it lies in
//! [0, 1], and [`Experiment::finish`] checks that it does. Recovery's
//! host time is not measured here: `benchmark/run.sh run --workload
//! fleet-churn --trace 1` reports it in calibrated time as
//! `core.supervisor.recover_us`.
//!
//! `reach_chaos` is the operator's view of the same engine: bigger
//! randomized batches over this world and the 2-shard steady fleet,
//! plus the shrinker that cuts any violating schedule down to a
//! copy-pasteable minimal repro.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::report::{BenchReport, CellStatus};
use crate::serving::{chaos_factory, default_fleet_chaos_opts};
use reach_core::{mix64, run_fleet_schedule, Ev, FleetChaosSchedule, Trigger};
use reach_profile::Profile;
use reach_sim::{FaultPlan, SplitMix64};

/// Schedules each cell runs (all crash-bearing; instants seed-derived).
const CAMPAIGNS: u64 = 6;

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

/// The stale-profile fault class: drift injected into every rebuild's
/// profile through the ladder's profile-mutator hook. Seeded from the
/// profile itself (a plain `fn` pointer cannot capture), so the
/// mutation is still a pure function of the run.
fn stale_profile_mutator(p: &mut Profile) {
    let mut rng = SplitMix64::new(0x00C0_FFEE ^ p.total_samples);
    p.inject_drift(0.8, 64, &mut rng);
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
         monotone across restarts, every crash bounded to one recovery, \
         the journal replaying to the live state (epochs, deploy, \
         breaker, failures, budget), breaker-open never over full PGO. \
         xr_hash certifies the fleet event and incident logs replayed \
         bit-for-bit. availability (served over arrived jobs; the \
         crashed epoch is not re-served) lies in [0, 1]."
    }

    fn cells(&self) -> Vec<Cell> {
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
        let mut opts = default_fleet_chaos_opts(1);
        if class.stale {
            opts.fleet.sup.degrade.profile_mutator = Some(stale_profile_mutator);
        }
        let mut factory = chaos_factory(1, true);

        // Seed-derived schedules: each carries the crash + torn-write +
        // partial-flush base on the one shard.
        let mut rng = SplitMix64::new(seed);
        let (mut violations, mut crashes, mut recoveries) = (0u64, 0u64, 0u64);
        let (mut recoveries_degraded, mut torn_tails) = (0u64, 0u64);
        let (mut served, mut shed, mut swaps, mut rebuilds) = (0u64, 0u64, 0u64, 0u64);
        let mut xr_hash = 0u64;
        let mut first_violation = String::from("-");
        for _ in 0..CAMPAIGNS {
            let schedule = FleetChaosSchedule {
                plan: (class.arm)(
                    FaultPlan::none(rng.next_u64())
                        .with_torn_write(0.6)
                        .with_partial_flush(0.4),
                ),
                crashes: vec![(0, 1 + rng.next_below(24))],
                torn_shard: Some(0),
                runaway_shard: class.runaway.then_some(0),
                ..FleetChaosSchedule::quiet(0)
            };
            let run = run_fleet_schedule(&mut factory, &schedule, &opts).expect("validated config");
            violations += run.violations.len() as u64;
            if first_violation == "-" {
                if let Some(v) = run.violations.first() {
                    first_violation = format!("{v} [{}]", schedule.repro());
                }
            }
            let shard = &run.shards[0];
            crashes += run.crashes;
            recoveries += run.recoveries;
            recoveries_degraded += shard.recoveries_degraded;
            torn_tails += (shard.incidents.iter())
                .filter(|i| i.trigger == Trigger::CrashRecovery)
                .filter(|i| i.evidence.contains(&("truncated", Ev::U(1))))
                .count() as u64;
            served += run.served();
            shed += run.shed();
            swaps += shard.swaps;
            rebuilds += shard.rebuilds;
            // Same order-sensitive fold as FleetCampaignReport::xr_hash.
            xr_hash = mix64(xr_hash, run.fleet_hash());
        }

        let arrived = (opts.fleet.epochs * CAMPAIGNS) as f64;
        let mut agg = CellMetrics::new();
        agg.put_u64("campaigns", CAMPAIGNS)
            .put_u64("violations", violations)
            .put_u64("crashes", crashes)
            .put_u64("recoveries", recoveries)
            .put_u64("recoveries_degraded", recoveries_degraded)
            .put_u64("torn_tails", torn_tails)
            .put_u64("served", served)
            .put_u64("shed", shed)
            .put_u64("swaps", swaps)
            .put_u64("rebuilds", rebuilds)
            .put_u64("xr_hash", xr_hash)
            .put_str("first_violation", first_violation)
            .put_f64("availability", served as f64 / arrived);
        agg
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        let mut violations = Vec::new();
        for c in &report.cells {
            if c.status != CellStatus::Ok {
                continue;
            }
            let get = |m: &str| c.metrics.get_f64(m).unwrap_or(f64::NAN);
            let n = get("violations");
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
            let availability = get("availability");
            if !(0.0..=1.0).contains(&availability) {
                violations.push(format!(
                    "{}: availability {availability} outside [0, 1]",
                    c.cell
                ));
            }
            // Every schedule carries an armed crash instant (a late one
            // may outlive the run), and the drift world must rebuild for
            // the rebuild crash points to be reachable; a cell with
            // neither means the harness went dark.
            if c.metrics.get_f64("crashes").unwrap_or(0.0) == 0.0 {
                violations.push(format!("{}: no schedule ever crashed", c.cell));
            }
            if c.metrics.get_f64("rebuilds").unwrap_or(0.0) == 0.0 {
                violations.push(format!("{}: the drift world never rebuilt", c.cell));
            }
        }
        violations
    }
}
