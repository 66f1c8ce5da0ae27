//! Property tests: the runtime supervisor replays deterministically.
//!
//! The supervisor's incident log is the audit trail operators act on;
//! its value depends on replayability. The loop touches no wall clock
//! and draws randomness only from its seeded SplitMix64 (backoff
//! jitter), the workload's own deterministic RNGs, and the fault plan's
//! per-channel streams — so the same seed + fault plan + drift schedule
//! must reproduce the incident log byte-for-byte, along with every
//! counter and both staleness readings (compared as bits). Mirrors
//! `prop_faults.rs`, one layer up the stack. A supervisor is the
//! one-shard fleet: every scenario runs through `run_fleet` on one
//! contention-free core, and must pass the fleet's oracles too.

use proptest::prelude::*;
use reach_bench::solo_core;
use reach_core::{
    incidents_json, pgo_pipeline_degrading, run_fleet, Arrival, DegradeOptions, DeployedBuild,
    FleetOptions, FleetWorkload, SupervisorOptions,
};
use reach_profile::{OnlineEstimatorOptions, Periods};
use reach_sim::{Context, FaultInjector, FaultPlan, Machine, Program};
use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

/// What one scenario draw pins down: the drift schedule (initial-build
/// skew vs live skew), the supervisor's knobs, and the fault plan armed
/// after the initial deployment.
#[derive(Clone, Copy, Debug)]
struct Scenario {
    seed: u64,
    live_theta: f64,
    epochs: u64,
    staleness_threshold: f64,
    pebs_drop: f64,
    pebs_skid: u32,
}

fn gen_scenario() -> impl Strategy<Value = Scenario> {
    (
        any::<u64>(),
        prop_oneof![Just(0.0f64), Just(3.0f64)],
        5u64..9,
        0.4..0.9f64,
        0.0..0.5f64,
        0u32..10,
    )
        .prop_map(
            |(seed, live_theta, epochs, staleness_threshold, pebs_drop, pebs_skid)| Scenario {
                seed,
                live_theta,
                epochs,
                staleness_threshold,
                pebs_drop,
                pebs_skid,
            },
        )
}

/// Fresh-instance zipf service (same construction as the supervisor's
/// unit fixtures and the selfheal experiment): every job and profiling
/// attempt walks a disjoint table + request stream, so misses are
/// compulsory and the in-situ sample stream stays alive.
struct Service {
    prog: Program,
    live: Vec<InstanceSetup>,
    cursor: usize,
    prof_stale: Vec<InstanceSetup>,
    prof_live: Vec<InstanceSetup>,
    prof_cursor: usize,
}

impl Service {
    fn new(m: &mut Machine, live_theta: f64) -> Service {
        let mut alloc = AddrAlloc::new(0x800_0000);
        let params = |theta: f64, seed: u64| ZipfKvParams {
            table_entries: 1 << 15,
            lookups: 1024,
            theta,
            seed,
        };
        let live = build_zipf_kv(&mut m.mem, &mut alloc, params(live_theta, 13), 32);
        let stale = build_zipf_kv(&mut m.mem, &mut alloc, params(0.0, 11), 8);
        let prof = build_zipf_kv(&mut m.mem, &mut alloc, params(live_theta, 17), 8);
        Service {
            prog: live.prog,
            live: live.instances,
            cursor: 0,
            prof_stale: stale.instances,
            prof_live: prof.instances,
            prof_cursor: 0,
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

/// Everything observable from one supervised run. Two executions of the
/// same scenario must compare equal on all of it.
#[derive(Debug, PartialEq)]
struct Observation {
    incident_log: String,
    incident_hash: u64,
    latencies: Vec<(u64, u64)>,
    served: u64,
    shed_jobs: u64,
    job_faults: u64,
    swaps: u64,
    rebuilds: u64,
    rebuild_failures: u32,
    final_rung: String,
    breaker: String,
    staleness_peak_bits: u64,
    staleness_last_bits: u64,
    overruns: u64,
    quarantines: u64,
    readmissions: u64,
    scav_final: usize,
    violations: Vec<String>,
}

fn observe(sc: Scenario, supervised: bool) -> Observation {
    let mut degrade = DegradeOptions::default();
    degrade.pipeline.collector.periods = Periods {
        l2_miss: 13,
        l3_miss: 13,
        stall: 13,
        retired: 13,
    };

    let mut mc = solo_core();
    let m = &mut mc.cores[0];
    let mut svc = Service::new(m, sc.live_theta);
    let orig = svc.prog.clone();
    let init: DeployedBuild =
        pgo_pipeline_degrading(m, &orig, |a| svc.stale_profiling_contexts(a), &degrade).into();

    // Faults arm after the initial build, like the selfheal experiment's
    // rebuild-fault arm: they hit the in-situ sampler and every rebuild.
    let plan = FaultPlan::none(sc.seed)
        .with_pebs_drop(sc.pebs_drop)
        .with_pebs_extra_skid(sc.pebs_skid);
    if !plan.is_none() {
        m.faults = Some(FaultInjector::new(plan));
    }

    let sup = SupervisorOptions {
        service_per_epoch: 1,
        scavengers: 2,
        insitu_period: 31,
        estimator: OnlineEstimatorOptions {
            window: 2048,
            min_samples: 8,
        },
        staleness_threshold: sc.staleness_threshold,
        max_rebuild_failures: 2,
        backoff_base_epochs: 1,
        backoff_max_epochs: 4,
        degrade,
        supervise: supervised,
        ..SupervisorOptions::default()
    };
    let opts = FleetOptions {
        shards: 1,
        epochs: sc.epochs,
        sup,
        seed: sc.seed,
        ..FleetOptions::default()
    };
    let rep = run_fleet(&mut mc, &mut svc, &orig, init, &opts).expect("validated config");
    let r = &rep.shards[0];
    Observation {
        incident_log: incidents_json(&r.incidents),
        incident_hash: r.incident_hash(),
        latencies: r.latencies.clone(),
        served: r.served,
        shed_jobs: r.shed_jobs,
        job_faults: r.job_faults,
        swaps: r.swaps,
        rebuilds: r.rebuilds,
        rebuild_failures: r.rebuild_failures,
        final_rung: r.final_rung.to_string(),
        breaker: format!("{:?}", r.breaker),
        staleness_peak_bits: r.staleness_peak.to_bits(),
        staleness_last_bits: r.staleness_last.to_bits(),
        overruns: r.overruns,
        quarantines: r.quarantine_events,
        readmissions: r.readmissions,
        scav_final: r.scav_budget_final,
        violations: rep.violations.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The replayability property one layer above `prop_faults`: same
    /// seed + fault plan + drift schedule => byte-identical incident
    /// log, counters, and staleness bits.
    #[test]
    fn identical_scenarios_replay_identically(sc in gen_scenario()) {
        let a = observe(sc, true);
        prop_assert_eq!(&a.violations, &Vec::<String>::new());
        let b = observe(sc, true);
        prop_assert_eq!(a, b);
    }

    /// The passive arm never acts, no matter the scenario: its incident
    /// log stays empty while the serving-side counters still replay.
    #[test]
    fn unsupervised_arm_never_acts(sc in gen_scenario()) {
        let a = observe(sc, false);
        prop_assert_eq!(a.incident_log.as_str(), "[]");
        prop_assert_eq!(a.swaps, 0);
        prop_assert_eq!(a.rebuilds, 0);
        prop_assert_eq!(a.shed_jobs, 0);
        prop_assert_eq!(a.scav_final, 2);
        prop_assert_eq!(&a.violations, &Vec::<String>::new());
        let b = observe(sc, false);
        prop_assert_eq!(a, b);
    }
}
