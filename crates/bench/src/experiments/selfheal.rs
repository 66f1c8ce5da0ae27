//! SELFHEAL: the self-healing runtime supervisor, end to end.
//!
//! Four service scenarios — healthy steady state, workload drift, a
//! runaway-scavenger overload burst, and drift whose *repair* keeps
//! failing (PEBS sample loss injected via the PR 2 fault plan) — each
//! run under two policies:
//!
//! * **supervised** — the full monitor → diagnose → re-profile →
//!   hot-swap → contain loop, served through a one-shard
//!   [`reach_core::run_fleet`] with the uncore contention model
//!   neutralized ([`solo_core`]);
//! * **unsupervised** — the same serving loop and the same estimator
//!   bookkeeping, but no triggers, swaps or shedding (the passive
//!   baseline the supervisor must beat).
//!
//! The service is zipf KV traffic where every job and every profiling
//! attempt draws a *fresh* instance (disjoint table + request stream),
//! so misses are compulsory and the in-situ sample stream is never
//! silenced by cache residency. Drift ships a binary profiled against
//! uniform traffic (θ=0: the value load always misses) into a hot-head
//! live mix (θ=3: value loads hit; only the request stream misses) —
//! the stale build pays a useless yield per lookup until the supervisor
//! re-profiles and swaps.
//!
//! [`Experiment::finish`] enforces the recovery contract: the
//! supervised drift arm's post-recovery p99 must sit within
//! [`RECOVERY_SLACK`]× the healthy steady state *and* strictly beat the
//! unsupervised arm; the overload arm must shed (and later restore)
//! scavengers and beat the passive arm's burst mean; the rebuild-fault
//! arm must end with the circuit breaker open on an explicitly recorded
//! degraded rung — never a panic. Violations fail the run, which is how
//! CI consumes this experiment. Every run also passes the fleet's own
//! oracles (journal projection, trust, capacity); a cell with any fleet
//! violation fails.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::report::{BenchReport, CellStatus};
use crate::serving::{fast_degrade, runaway_prog, solo_core};
use reach_core::{
    percentile, pgo_pipeline_degrading, run_fleet, Action, Arrival, BreakerState, DeployedBuild,
    DualModeOptions, FleetOptions, FleetWorkload, ShardSummary, SupervisorOptions, WatchdogOptions,
};
use reach_profile::OnlineEstimatorOptions;
use reach_sim::{Context, FaultInjector, FaultPlan, Machine, Program, UncoreStatus};
use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

/// Post-recovery p99 must be within this factor of healthy steady state.
const RECOVERY_SLACK: f64 = 1.5;

/// Epochs every scenario runs.
const EPOCHS: u64 = 16;

/// The runaway burst occupies these epochs of the overload scenario.
const BURST: std::ops::Range<u64> = 2..10;

/// Tail window for post-recovery percentiles (after the burst and the
/// drift repair have both settled).
const TAIL_FROM: u64 = 12;

const SCENARIOS: &[&str] = &["healthy", "drift", "overload", "rebuild-fault"];
const POLICIES: &[&str] = &["supervised", "unsupervised"];

/// The zipf service shared by every scenario (same construction as the
/// supervisor unit fixtures): one arrival per epoch, fresh instances per
/// job, a stale profiling pool for the initial deployment and a live
/// pool for rebuilds.
struct Service {
    prog: Program,
    live: Vec<InstanceSetup>,
    cursor: usize,
    prof_stale: Vec<InstanceSetup>,
    prof_live: Vec<InstanceSetup>,
    prof_cursor: usize,
    runaway: Option<(Program, std::ops::Range<u64>)>,
}

impl Service {
    fn new(m: &mut Machine, stale_theta: f64, live_theta: f64) -> Service {
        let mut alloc = AddrAlloc::new(crate::harness::LAYOUT_BASE);
        let params = |theta: f64, seed: u64| ZipfKvParams {
            table_entries: 1 << 15,
            lookups: 1024,
            theta,
            seed,
        };
        let live = build_zipf_kv(&mut m.mem, &mut alloc, params(live_theta, 13), 56);
        let stale = build_zipf_kv(&mut m.mem, &mut alloc, params(stale_theta, 11), 8);
        let prof = build_zipf_kv(&mut m.mem, &mut alloc, params(live_theta, 17), 12);
        Service {
            prog: live.prog,
            live: live.instances,
            cursor: 0,
            prof_stale: stale.instances,
            prof_live: prof.instances,
            prof_cursor: 0,
            runaway: None,
        }
    }

    fn next_live(&mut self) -> Context {
        let i = self.cursor;
        self.cursor += 1;
        self.live[i % self.live.len()].make_context(1_000 + i)
    }

    fn stale_profiling_contexts(&self, attempt: u32) -> Vec<Context> {
        let n = self.prof_stale.len();
        (0..2)
            .map(|k| {
                self.prof_stale[(2 * attempt as usize + k) % n]
                    .make_context(9_500 + 2 * attempt as usize + k)
            })
            .collect()
    }
}

impl FleetWorkload for Service {
    fn arrivals(&mut self, _epoch: u64) -> Vec<Arrival> {
        vec![Arrival {
            ingress: 0,
            owner: 0,
        }]
    }
    fn primary_context(&mut self, _shard: usize, _job: u64) -> Context {
        self.next_live()
    }
    fn scavenger_context(
        &mut self,
        _shard: usize,
        _epoch: u64,
        _job: u64,
        _slot: usize,
    ) -> Context {
        self.next_live()
    }
    fn scavenger_program(&mut self, _shard: usize, epoch: u64) -> Option<Program> {
        let (prog, range) = self.runaway.as_ref()?;
        range.contains(&epoch).then(|| prog.clone())
    }
    fn profiling_contexts(&mut self, _shard: usize, _attempt: u32) -> Vec<Context> {
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

fn breaker_str(b: &BreakerState) -> &'static str {
    match b {
        BreakerState::Closed => "closed",
        BreakerState::Backoff { .. } => "backoff",
        BreakerState::Open => "open",
    }
}

fn base_opts() -> SupervisorOptions {
    SupervisorOptions {
        service_per_epoch: 1,
        scavengers: 2,
        insitu_period: 31,
        estimator: OnlineEstimatorOptions {
            window: 2048,
            min_samples: 8,
        },
        staleness_threshold: 0.6,
        max_rebuild_failures: 2,
        backoff_base_epochs: 1,
        backoff_max_epochs: 8,
        probation_epochs: 4,
        degrade: fast_degrade(),
        ..SupervisorOptions::default()
    }
}

fn scenario_opts(scenario: &str) -> SupervisorOptions {
    let mut o = base_opts();
    match scenario {
        "overload" => {
            o.slo_p99_cycles = 800_000;
            o.slo_window = 2;
            // It is an overload scenario: leave repair to the shedder.
            o.staleness_threshold = 2.0;
            o.dual = DualModeOptions {
                drain_scavengers: false,
                isolate_faults: true,
                watchdog: Some(WatchdogOptions {
                    slice_steps: 2_000,
                    overrun_cycles: 500,
                    // Containment is the supervisor's job here, not the
                    // per-job watchdog's.
                    max_overruns: u32::MAX,
                    ..WatchdogOptions::default()
                }),
                ..DualModeOptions::default()
            };
        }
        "rebuild-fault" => {
            // A single profiling round per rebuild: with the PEBS skid
            // fault armed, every round's miss samples land off the load
            // PCs and profile validation rejects the rebuild, so the
            // ladder degrades and the breaker eventually opens.
            o.degrade.max_reprofiles = 0;
        }
        _ => {}
    }
    o
}

/// Mean primary latency over an epoch range (0 when no jobs landed
/// there).
fn mean_over(rep: &ShardSummary, range: std::ops::Range<u64>) -> u64 {
    let v: Vec<u64> = rep
        .latencies
        .iter()
        .filter(|(e, _)| range.contains(e))
        .map(|(_, l)| *l)
        .collect();
    if v.is_empty() {
        0
    } else {
        v.iter().sum::<u64>() / v.len() as u64
    }
}

/// The self-healing supervisor experiment.
pub(super) struct SelfHeal;

impl Experiment for SelfHeal {
    fn name(&self) -> &'static str {
        "selfheal"
    }

    fn title(&self) -> &'static str {
        "SELFHEAL: runtime supervisor (drift / overload / rebuild-fault x supervised / unsupervised)"
    }

    fn notes(&self) -> &'static str {
        "clean if the supervised drift arm swaps back to full PGO with \
         post-recovery p99 within 1.5x healthy steady state and strictly \
         better than the unsupervised arm; the overload arm sheds and \
         restores scavengers and beats the passive burst mean; the \
         rebuild-fault arm ends with the breaker open on a recorded \
         degraded rung; and the healthy arm never false-triggers."
    }

    fn cells(&self) -> Vec<Cell> {
        SCENARIOS
            .iter()
            .flat_map(|s| POLICIES.iter().map(move |p| Cell::new(*s, *p)))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, seed: u64) -> CellMetrics {
        let scenario = cell.workload.as_str();
        let (stale_theta, live_theta) = match scenario {
            "healthy" | "overload" => (0.0, 0.0),
            "drift" | "rebuild-fault" => (0.0, 3.0),
            other => panic!("unknown scenario {other:?}"),
        };
        let mut mc = solo_core();
        let m = &mut mc.cores[0];
        let mut svc = Service::new(m, stale_theta, live_theta);
        if scenario == "overload" {
            svc.runaway = Some((runaway_prog(), BURST));
        }
        let orig = svc.prog.clone();

        let mut opts = scenario_opts(scenario);
        opts.supervise = cell.config == "supervised";

        // Initial deployment: built against the (possibly stale) profile
        // pool, on a fault-free machine.
        let init: DeployedBuild =
            pgo_pipeline_degrading(m, &orig, |a| svc.stale_profiling_contexts(a), &opts.degrade)
                .into();
        let init_rung = init.rung;

        // The rebuild-fault scenario arms PEBS sample loss *after* the
        // initial build: serving continues, but every re-profiling
        // attempt starves.
        if scenario == "rebuild-fault" {
            // Constant +9 instruction skid: every PEBS sample (in-situ
            // and re-profiling alike) reports a PC past the real load,
            // so rebuilt profiles fail load-coverage validation while
            // the estimator still sees a (wildly stale-looking) stream.
            m.faults = Some(FaultInjector::new(
                FaultPlan::none(seed).with_pebs_extra_skid(9),
            ));
        }

        let fleet = FleetOptions {
            shards: 1,
            epochs: EPOCHS,
            sup: opts,
            seed,
            ..FleetOptions::default()
        };
        let rep = run_fleet(&mut mc, &mut svc, &orig, init, &fleet).expect("validated config");
        assert!(
            rep.violations.is_empty(),
            "fleet oracle violation(s): {:?}",
            rep.violations
        );
        // A lone supervisor sees no uncore: against unbounded budgets
        // every occupancy and demand reading rounds to zero. Hand
        // mutation, which fails 5 of the 8 cells here: `mc` built with
        // the default contention budgets. The metrics alone cannot see
        // it, because one core's traffic never crosses those budgets.
        assert_eq!(mc.status(), UncoreStatus::default(), "uncore contended");
        let r = &rep.shards[0];

        let sheds = r
            .incidents
            .iter()
            .filter(|i| matches!(i.action, Action::ShedScavengers { .. }))
            .count() as u64;
        let restores = r
            .incidents
            .iter()
            .filter(|i| matches!(i.action, Action::RestoreScavenger { .. }))
            .count() as u64;
        let all: Vec<u64> = r.latencies.iter().map(|(_, l)| *l).collect();

        let mut out = CellMetrics::new();
        out.put_str("init_rung", init_rung.to_string())
            .put_str("final_rung", r.final_rung.to_string())
            .put_str("breaker", breaker_str(&r.breaker))
            .put_u64("served", r.served)
            .put_u64("shed_jobs", r.shed_jobs)
            .put_u64("job_faults", r.job_faults)
            .put_u64("swaps", r.swaps)
            .put_u64("rebuilds", r.rebuilds)
            .put_u64("rebuild_failures", u64::from(r.rebuild_failures))
            .put_u64("incidents", r.incidents.len() as u64)
            .put_u64("sheds", sheds)
            .put_u64("restores", restores)
            .put_u64("p99_cyc", percentile(&all, 0.99))
            .put_u64("p99_tail_cyc", r.p99_after(TAIL_FROM))
            .put_u64("burst_mean_cyc", mean_over(r, BURST))
            .put_f64("staleness_peak", r.staleness_peak)
            .put_f64("staleness_last", r.staleness_last)
            .put_u64("overruns", r.overruns)
            .put_u64("quarantines", r.quarantine_events)
            .put_u64("readmissions", r.readmissions)
            .put_u64("scav_final", r.scav_budget_final as u64)
            .put_u64("incident_hash", r.incident_hash());
        out
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        let mut violations = Vec::new();
        let get = |w: &str, c: &str, m: &str| -> Option<f64> {
            report
                .cells
                .iter()
                .find(|r| r.cell.workload == w && r.cell.config == c)
                .filter(|r| r.status == CellStatus::Ok)
                .and_then(|r| r.metrics.get_f64(m))
        };
        let get_str = |w: &str, c: &str, m: &str| -> Option<String> {
            report
                .cells
                .iter()
                .find(|r| r.cell.workload == w && r.cell.config == c)
                .filter(|r| r.status == CellStatus::Ok)
                .and_then(|r| r.metrics.get(m))
                .map(|v| v.render())
        };

        // Healthy steady state must not false-trigger.
        if get("healthy", "supervised", "swaps") != Some(0.0)
            || get("healthy", "supervised", "incidents") != Some(0.0)
        {
            violations.push("healthy/supervised: supervisor acted on a healthy service".into());
        }
        // No unsupervised arm may ever act.
        for s in SCENARIOS {
            if get(s, "unsupervised", "incidents").is_some_and(|i| i != 0.0) {
                violations.push(format!("{s}/unsupervised: passive arm recorded incidents"));
            }
        }

        let healthy = get("healthy", "supervised", "p99_tail_cyc");

        // Drift: repaired, recovered, and strictly better than passive.
        if get("drift", "supervised", "swaps").is_none_or(|s| s < 1.0) {
            violations.push("drift/supervised: no hot swap happened".into());
        }
        if get_str("drift", "supervised", "final_rung").as_deref() != Some("full-pgo") {
            violations.push("drift/supervised: did not end on full PGO".into());
        }
        match (
            healthy,
            get("drift", "supervised", "p99_tail_cyc"),
            get("drift", "unsupervised", "p99_tail_cyc"),
        ) {
            (Some(h), Some(ds), Some(du)) => {
                if ds > RECOVERY_SLACK * h {
                    violations.push(format!(
                        "drift/supervised: post-recovery p99 {ds:.0} > {RECOVERY_SLACK}x healthy {h:.0}"
                    ));
                }
                if ds >= du {
                    violations.push(format!(
                        "drift/supervised: post-recovery p99 {ds:.0} not better than unsupervised {du:.0}"
                    ));
                }
            }
            _ => violations.push("drift: missing cells for the recovery comparison".into()),
        }

        // Overload: shed, restored, recovered, and better than passive
        // across the burst.
        if get("overload", "supervised", "sheds").is_none_or(|s| s < 1.0) {
            violations.push("overload/supervised: never shed a scavenger".into());
        }
        if get("overload", "supervised", "restores").is_none_or(|s| s < 1.0) {
            violations.push("overload/supervised: never restored a scavenger".into());
        }
        match (
            get("overload", "supervised", "burst_mean_cyc"),
            get("overload", "unsupervised", "burst_mean_cyc"),
        ) {
            (Some(s), Some(u)) => {
                if s >= u {
                    violations.push(format!(
                        "overload/supervised: burst mean {s:.0} not better than unsupervised {u:.0}"
                    ));
                }
            }
            _ => violations.push("overload: missing cells for the burst comparison".into()),
        }
        if let (Some(h), Some(ot)) = (healthy, get("overload", "supervised", "p99_tail_cyc")) {
            if ot > RECOVERY_SLACK * h {
                violations.push(format!(
                    "overload/supervised: post-burst p99 {ot:.0} > {RECOVERY_SLACK}x healthy {h:.0}"
                ));
            }
        }

        // Rebuild-fault: contained by the breaker on a recorded rung.
        if get_str("rebuild-fault", "supervised", "breaker").as_deref() != Some("open") {
            violations.push("rebuild-fault/supervised: breaker did not open".into());
        }
        if get_str("rebuild-fault", "supervised", "final_rung").is_none_or(|r| r == "full-pgo") {
            violations
                .push("rebuild-fault/supervised: no degraded rung recorded after breaker".into());
        }
        if get("rebuild-fault", "supervised", "job_faults").is_none_or(|f| f != 0.0) {
            violations.push("rebuild-fault/supervised: serving faulted during containment".into());
        }
        violations
    }
}
