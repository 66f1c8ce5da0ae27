//! # reach-core — hiding 10–100 ns events in software, end to end
//!
//! The paper's mechanism assembled from the substrate crates:
//!
//! * [`pipeline`] — the three-step PGO flow: profile the original
//!   coroutine code under sampling, apply primary `prefetch+yield`
//!   instrumentation guided by the profile, then the scavenger pass that
//!   bounds inter-yield intervals.
//! * [`executor`] — the symmetric interleaving executor (coroutine or
//!   OS-thread switch costs), with optional register poisoning that
//!   *proves* liveness-derived save sets sound at run time.
//! * [`dualmode`] — asymmetric concurrency: a latency-sensitive primary
//!   coroutine whose misses are filled by scavenger-mode coroutines,
//!   scaled on demand.
//! * [`scheduler`] — §4.2 integration with a µs-task scheduler (FIFO vs
//!   ready-queue side-car vs event-aware).
//! * [`degrade`] — the graceful-degradation ladder: an infallible
//!   pipeline front end that retries profiling and steps down
//!   full-PGO → scavenger-only → uninstrumented, recording why.
//! * [`supervisor`] — the self-healing runtime loop: online staleness
//!   detection, background re-profile + epoch-boundary hot swap, a
//!   circuit breaker over the degradation ladder, and overload
//!   shedding, all recorded in a replay-deterministic incident log;
//!   plus crash [`recover`]y.
//! * [`journal`] — the supervisor's write-ahead journal and artifact
//!   store, with the crash semantics recovery must repair.
//! * [`fleet`] — the only code that runs the supervised loop: N shard
//!   supervisors on an N-core machine under one fleet clock (a single
//!   supervisor is the one-shard fleet), with routing, rolling deploys,
//!   correlated breakers, work stealing, and the oracles that audit
//!   every run.
//! * [`fleet_chaos`] — the chaos engine: seeded crash and fault
//!   schedules over the fleet (a single supervisor is the one-shard
//!   fleet), and the shrinker for a schedule that breaks an oracle.
//! * [`whatif`] — §4.1 hardware what-if: presence-probe-conditional
//!   yields.
//! * [`metrics`] — percentiles and cycle-accounting summaries.
//!
//! # Examples
//!
//! ```
//! use reach_core::{pgo_pipeline, run_interleaved, InterleaveOptions, PipelineOptions};
//! use reach_sim::{Machine, MachineConfig};
//! use reach_workloads::{build_chase, AddrAlloc, ChaseParams};
//!
//! // Lay out a pointer-chase workload with one profiling instance and
//! // two execution instances.
//! let mut m = Machine::new(MachineConfig::default());
//! let mut alloc = AddrAlloc::new(0x10_0000);
//! let params = ChaseParams { nodes: 256, hops: 256, ..ChaseParams::default() };
//! let w = build_chase(&mut m.mem, &mut alloc, params, 3);
//!
//! // Profile + instrument.
//! let mut prof = vec![w.instances[2].make_context(9)];
//! let built = pgo_pipeline(&mut m, &w.prog, &mut prof, &PipelineOptions::default()).unwrap();
//!
//! // Interleave the two remaining instances over the instrumented binary.
//! let mut ctxs = vec![w.instances[0].make_context(0), w.instances[1].make_context(1)];
//! let rep = run_interleaved(&mut m, &built.prog, &mut ctxs, &InterleaveOptions::default()).unwrap();
//! assert_eq!(rep.completed, 2);
//! w.instances[0].assert_checksum(&ctxs[0]);
//! ```

pub mod degrade;
pub mod dualmode;
pub mod executor;
pub mod fleet;
pub mod fleet_chaos;
pub mod journal;
pub mod metrics;
pub mod pipeline;
pub mod scheduler;
pub mod supervisor;
mod testkit;
pub mod whatif;

pub use degrade::{
    pgo_pipeline_degrading, scavenger_only_build, DegradeOptions, DegradeReason, DegradedBuild,
    Rung,
};
pub use dualmode::{run_dual_mode, DualModeOptions, DualModeReport, WatchdogOptions};
pub use executor::{run_interleaved, InterleaveOptions, InterleaveReport, SwitchMode, POISON};
pub use fleet::{
    fleet_events_hash, fleet_events_json, run_fleet, shard_seed, Arrival, FleetConfigError,
    FleetEvent, FleetOptions, FleetReport, FleetWorkload, RolloutOptions, ShardSummary,
};
pub use fleet_chaos::{
    minimize, random_fleet_schedule, run_fleet_campaigns, run_fleet_schedule, FleetCampaignReport,
    FleetChaosError, FleetChaosOptions, FleetChaosSchedule, FleetChaosWorld,
};
pub use journal::{project, Journal, JournalRecord, JournalState, Replay, StoredBuild};
pub use metrics::{percentile, percentiles, ratio, CycleSummary};
pub use pipeline::{
    lint_gate, pgo_pipeline, verify_gate, InstrumentedBinary, PipelineError, PipelineOptions,
};
pub use scheduler::{run_task_queue, SchedPolicy, SchedReport, Task};
pub use supervisor::{
    incidents_hash, incidents_json, mix64, recover, Action, BreakerState, CrashPoint,
    DeployedBuild, Ev, Incident, Outcome, RecoverOptions, Recovery, ResumeState,
    SupervisorConfigError, SupervisorOptions, Trigger,
};
pub use whatif::{make_conditional, yield_census, YieldCensus};
