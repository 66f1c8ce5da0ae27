//! The fleet supervisor: N per-core shard supervisors composed under
//! one deterministic fleet clock.
//!
//! This is the only code that runs the supervised loop: a single
//! supervisor is the one-shard fleet. Everything the supervisor does —
//! dual-mode serving, staleness-triggered rebuilds, circuit breaking,
//! journaled crash recovery — happens *per shard* on that shard's own
//! core of a [`MultiCore`]. This module adds the failure modes only a
//! fleet can express, each behind an explicit, journal-auditable rule:
//!
//! * **Key-sharded routing with bounded forwarding** — every request
//!   has an owner shard; requests that land elsewhere (or arrive while
//!   the owner is draining or down) wait in a bounded forwarding queue
//!   with per-request timeout and deterministic-jitter retry backoff
//!   (1 epoch doubling to at most 4, plus a jitter of 0 or 1), and are
//!   shed on overflow. No request is ever silently re-homed: a key's
//!   data lives on its owner, so serving it elsewhere would be a wrong
//!   answer, not a slow one.
//! * **Rolling re-instrumentation deploys** — one shard at a time:
//!   drain (stop admissions, serve the backlog down), build + gate the
//!   new instrumented binary, deploy, then watch a health window before
//!   touching the next shard. The whole rollout sits behind a
//!   max-unavailable=1 gate: a drain only begins while every shard is
//!   serving, and any crash cancels an in-progress drain.
//! * **Fleet-level correlated-failure detection** — per-shard breakers
//!   already contain local rebuild storms; when 2 breakers open within
//!   8 epochs, that is no longer a local problem. The fleet freezes any
//!   rollout and pins the last-known-good build fleet-wide.
//! * **Work-stealing of scavenger slices** — a draining or crashed
//!   shard's scavenger budget is idle capacity; it is granted
//!   round-robin to the serving shards as a volatile (never journaled)
//!   bonus, and reclaimed the moment the donor returns.
//!
//! Determinism carries over wholesale: the router's jitter comes from
//! one seeded [`SplitMix64`], shard seeds derive from the fleet seed,
//! and the fleet event log serializes to canonical JSON with an FNV-1a
//! digest, so a fleet replay is byte-identical — the property the chaos
//! engine ([`crate::fleet_chaos`]) gates on — however many host threads
//! serve the shards (see [`FleetWorkload`]).

use crate::degrade::{pgo_pipeline_degrading, Rung};
use crate::journal::{fnv1a, project, Journal, JournalRecord};
use crate::metrics::percentile;
use crate::supervisor::{
    build_is_trusted, incidents_hash, mix64, p99_after, recover, validate_options, BreakerState,
    CrashPoint, DeployedBuild, EpochLoop, Incident, RecoverOptions, SupervisorConfigError,
    SupervisorOptions, SupervisorReport,
};
use reach_profile::Json;
use reach_sim::{Context, Machine, MultiCore, Program, SplitMix64};
use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One request entering the fleet: where it landed and which shard owns
/// its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Shard the request arrived at (the load balancer's pick).
    pub ingress: usize,
    /// Shard that owns the request's key and must serve it.
    pub owner: usize,
}

/// The sharded service the fleet runs. The fleet owns admission and
/// routing; the workload provides traffic, per-shard contexts for
/// serving and re-profiling, and an optional scavenger override. Job
/// numbers are per-shard admission sequence numbers.
///
/// The fleet serves its shards on several host threads at once, one
/// callback at a time under a lock. So the callbacks that take a
/// `shard` may be called for different shards in any interleaving, and
/// an answer may depend only on its arguments and on that shard's own
/// earlier calls. Keeping every stream per shard meets this.
pub trait FleetWorkload: Send {
    /// Requests arriving fleet-wide at the start of `epoch`.
    fn arrivals(&mut self, epoch: u64) -> Vec<Arrival>;
    /// Primary context for `shard`'s job number `job`.
    fn primary_context(&mut self, shard: usize, job: u64) -> Context;
    /// Scavenger-pool context for `slot` while `shard` serves `job`.
    fn scavenger_context(&mut self, shard: usize, epoch: u64, job: u64, slot: usize) -> Context;
    /// Optional scavenger-pool program override for `shard` during
    /// `epoch` (the fleet chaos runaway arm).
    fn scavenger_program(&mut self, _shard: usize, _epoch: u64) -> Option<Program> {
        None
    }
    /// Fresh profiling contexts for `shard`'s rebuild attempt `attempt`.
    fn profiling_contexts(&mut self, shard: usize, attempt: u32) -> Vec<Context>;
}

/// Rolling-deploy configuration.
#[derive(Clone, Copy, Debug)]
pub struct RolloutOptions {
    /// Fleet epoch at which the rollout may begin.
    pub start_epoch: u64,
    /// Serving epochs the freshly-deployed shard is watched before the
    /// rollout advances to the next shard.
    pub health_epochs: u64,
    /// Health gate: post-deploy p99 above `pre-drain p99 × p99_factor`
    /// fails the window (any new job fault fails it outright).
    pub p99_factor: f64,
    /// Fault hook: corrupts the rollout build *after* the build-time
    /// gates pass — the supply-chain window the per-shard re-validation
    /// and the health gate exist to contain.
    pub poison: Option<fn(&mut DeployedBuild)>,
}

impl Default for RolloutOptions {
    fn default() -> Self {
        RolloutOptions {
            start_epoch: 2,
            health_epochs: 2,
            p99_factor: 3.0,
            poison: None,
        }
    }
}

/// Configuration for [`run_fleet`]. Three rules are fixed: the
/// forwarding queue holds 16 requests and sheds one that has waited 4
/// epochs; a forwarded request retries after 1 epoch, doubling per
/// attempt to at most 4, plus a jitter of 0 or 1; and 2 breaker opens
/// within 8 epochs freeze the rollout and pin the last-known-good build
/// fleet-wide. Idle scavenger slices are always granted to the serving
/// shards.
#[derive(Clone, Debug)]
pub struct FleetOptions {
    /// Shard count; must equal the [`MultiCore`]'s core count.
    pub shards: usize,
    /// Fleet epochs to run.
    pub epochs: u64,
    /// The supervisor every shard runs. Shard `s` draws its backoff
    /// jitter from [`shard_seed`]`(seed, s)`.
    pub sup: SupervisorOptions,
    /// Rolling re-instrumentation deploy; `None` = steady state.
    pub rollout: Option<RolloutOptions>,
    /// Fleet seed: router jitter and per-shard seed derivation.
    pub seed: u64,
    /// Crash-recovery options for every shard.
    pub recover: RecoverOptions,
}

/// Forwarding-queue bound; requests beyond it are shed on arrival.
const FORWARD_BOUND: usize = 16;

/// Epochs a queued request may wait before it is shed as timed out.
const FORWARD_TIMEOUT_EPOCHS: u64 = 4;

/// Base retry backoff of a forwarded request (epochs); doubles per
/// attempt, plus a jitter draw below `FORWARD_BACKOFF_BASE + 1`.
const FORWARD_BACKOFF_BASE: u64 = 1;

/// Retry backoff cap (epochs), before jitter.
const FORWARD_BACKOFF_MAX: u64 = 4;

/// Correlated-failure threshold: this many breaker opens within
/// [`BREAKER_WINDOW`] epochs freeze the rollout and pin the LKG build.
const BREAKER_K: usize = 2;

/// Sliding window (epochs) for correlated breaker detection.
const BREAKER_WINDOW: u64 = 8;

impl Default for FleetOptions {
    fn default() -> Self {
        FleetOptions {
            shards: 2,
            epochs: 16,
            sup: SupervisorOptions::default(),
            rollout: None,
            seed: 0,
            recover: RecoverOptions { revalidate: true },
        }
    }
}

/// A fleet configuration [`run_fleet`] refuses to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FleetConfigError {
    /// The per-shard supervisor template is degenerate.
    Supervisor(SupervisorConfigError),
    /// `shards == 0`.
    ZeroShards,
    /// `shards` does not match the machine's core count.
    ShardCoreMismatch,
}

impl From<SupervisorConfigError> for FleetConfigError {
    fn from(e: SupervisorConfigError) -> Self {
        FleetConfigError::Supervisor(e)
    }
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::Supervisor(e) => e.fmt(f),
            FleetConfigError::ZeroShards => write!(f, "shards must be >= 1"),
            FleetConfigError::ShardCoreMismatch => {
                write!(f, "shards must equal the MultiCore core count")
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// One fleet-level control-plane event. Canonical JSON, like the
/// per-shard [`Incident`] log: the fleet replay-determinism hash covers
/// both.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetEvent {
    /// The rolling deploy began.
    RolloutStarted {
        /// Fleet epoch.
        epoch: u64,
    },
    /// A shard stopped admitting and began serving its backlog down.
    DrainStarted {
        /// Fleet epoch.
        epoch: u64,
        /// Draining shard.
        shard: u64,
    },
    /// The rollout build was deployed to a drained shard.
    RolloutDeployed {
        /// Fleet epoch.
        epoch: u64,
        /// Receiving shard.
        shard: u64,
        /// Deployed rung.
        rung: Rung,
    },
    /// A freshly-deployed shard served its health window cleanly.
    HealthPassed {
        /// Fleet epoch.
        epoch: u64,
        /// The watched shard.
        shard: u64,
    },
    /// The rollout froze; no further shard will receive the build.
    RolloutFrozen {
        /// Fleet epoch.
        epoch: u64,
        /// Why.
        reason: String,
    },
    /// A shard was re-pinned to the last-known-good build.
    RevertedToLkg {
        /// Fleet epoch.
        epoch: u64,
        /// Re-pinned shard.
        shard: u64,
    },
    /// Every shard runs the rollout build; it is the new LKG.
    RolloutCompleted {
        /// Fleet epoch.
        epoch: u64,
    },
    /// A shard's injected crash channel fired.
    ShardCrashed {
        /// Fleet epoch.
        epoch: u64,
        /// Crashed shard.
        shard: u64,
        /// Loop stage the crash landed in.
        point: CrashPoint,
    },
    /// A crashed shard recovered and resumed serving.
    ShardRecovered {
        /// Fleet epoch.
        epoch: u64,
        /// Recovered shard.
        shard: u64,
        /// True when recovery fell down the ladder.
        degraded: bool,
    },
    /// 2 or more per-shard breakers opened within 8 epochs.
    CorrelatedBreakers {
        /// Fleet epoch.
        epoch: u64,
        /// Breaker-opens inside the window.
        opens: u64,
    },
    /// Idle scavenger slices were granted to the serving shards.
    StealGranted {
        /// Fleet epoch.
        epoch: u64,
        /// Unavailable (donating) shards.
        donors: u64,
        /// Total slices granted this epoch (split evenly, remainder to
        /// the lowest-indexed serving shards).
        granted: u64,
    },
}

impl FleetEvent {
    fn to_json(&self) -> Json {
        let kv = |k: &str, v: Json| (k.to_string(), v);
        let fields = match self {
            FleetEvent::RolloutStarted { epoch } => vec![
                kv("kind", Json::Str("rollout-started".into())),
                kv("epoch", Json::UInt(*epoch)),
            ],
            FleetEvent::DrainStarted { epoch, shard } => vec![
                kv("kind", Json::Str("drain-started".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
            ],
            FleetEvent::RolloutDeployed { epoch, shard, rung } => vec![
                kv("kind", Json::Str("rollout-deployed".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
                kv("rung", Json::Str(rung.to_string())),
            ],
            FleetEvent::HealthPassed { epoch, shard } => vec![
                kv("kind", Json::Str("health-passed".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
            ],
            FleetEvent::RolloutFrozen { epoch, reason } => vec![
                kv("kind", Json::Str("rollout-frozen".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("reason", Json::Str(reason.clone())),
            ],
            FleetEvent::RevertedToLkg { epoch, shard } => vec![
                kv("kind", Json::Str("reverted-to-lkg".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
            ],
            FleetEvent::RolloutCompleted { epoch } => vec![
                kv("kind", Json::Str("rollout-completed".into())),
                kv("epoch", Json::UInt(*epoch)),
            ],
            FleetEvent::ShardCrashed {
                epoch,
                shard,
                point,
            } => vec![
                kv("kind", Json::Str("shard-crashed".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
                kv("point", Json::Str(point.as_str().into())),
            ],
            FleetEvent::ShardRecovered {
                epoch,
                shard,
                degraded,
            } => vec![
                kv("kind", Json::Str("shard-recovered".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("shard", Json::UInt(*shard)),
                kv("degraded", Json::UInt(u64::from(*degraded))),
            ],
            FleetEvent::CorrelatedBreakers { epoch, opens } => vec![
                kv("kind", Json::Str("correlated-breakers".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("opens", Json::UInt(*opens)),
            ],
            FleetEvent::StealGranted {
                epoch,
                donors,
                granted,
            } => vec![
                kv("kind", Json::Str("steal-granted".into())),
                kv("epoch", Json::UInt(*epoch)),
                kv("donors", Json::UInt(*donors)),
                kv("granted", Json::UInt(*granted)),
            ],
        };
        Json::Object(fields)
    }
}

/// Canonical JSON text of a fleet event sequence.
pub(crate) fn fleet_events_json(events: &[FleetEvent]) -> String {
    Json::Array(events.iter().map(FleetEvent::to_json).collect()).to_string()
}

/// FNV-1a digest of [`fleet_events_json`].
pub(crate) fn fleet_events_hash(events: &[FleetEvent]) -> u64 {
    fnv1a(fleet_events_json(events).as_bytes())
}

/// One shard's totals across every crash segment of the fleet run.
#[derive(Clone, Debug)]
pub struct ShardSummary {
    /// Jobs served to completion.
    pub served: u64,
    /// Jobs shed by the shard's own admission queue.
    pub shed_jobs: u64,
    /// Jobs whose primary faulted.
    pub job_faults: u64,
    /// Deployment changes (local swaps, breaker fallbacks, rollouts).
    pub swaps: u64,
    /// Local rebuild attempts.
    pub rebuilds: u64,
    /// Injected crashes this shard took.
    pub crashes: u64,
    /// Recoveries that fell down the ladder.
    pub recoveries_degraded: u64,
    /// `(epoch, primary latency)` per served job, across segments.
    pub latencies: Vec<(u64, u64)>,
    /// Concatenated incident log (segments + recoveries), the unit of
    /// the per-shard replay-determinism contract.
    pub incidents: Vec<Incident>,
    /// Rung serving traffic at fleet end.
    pub final_rung: Rung,
    /// Breaker state at fleet end. This and the next two fields come
    /// from the loop's journaled control state: a shard that ended down
    /// reports what it had appended before the crash, never a decision
    /// whose own append the crash interrupted (the crash may still lose
    /// a buffered record or tear the durable tail).
    pub breaker: BreakerState,
    /// Consecutive rebuild failures at fleet end.
    pub rebuild_failures: u32,
    /// Scavenger-pool budget at fleet end.
    pub scav_budget_final: usize,
    /// Highest finite staleness estimate observed (NaN when none was).
    pub staleness_peak: f64,
    /// Last segment's last finite staleness estimate (NaN when none).
    pub staleness_last: f64,
    /// Watchdog overruns across all served jobs.
    pub overruns: u64,
    /// Watchdog quarantine events across all served jobs.
    pub quarantine_events: u64,
    /// The shard's durable store at fleet end — flushed and audited when
    /// the shard ended up, as the crash left it when it ended down.
    pub journal: Journal,
}

impl Default for ShardSummary {
    fn default() -> Self {
        ShardSummary {
            served: 0,
            shed_jobs: 0,
            job_faults: 0,
            swaps: 0,
            rebuilds: 0,
            crashes: 0,
            recoveries_degraded: 0,
            latencies: Vec::new(),
            incidents: Vec::new(),
            final_rung: Rung::Uninstrumented,
            breaker: BreakerState::Closed,
            rebuild_failures: 0,
            scav_budget_final: 0,
            staleness_peak: f64::NAN,
            staleness_last: f64::NAN,
            overruns: 0,
            quarantine_events: 0,
            journal: Journal::new(),
        }
    }
}

impl ShardSummary {
    /// FNV-1a digest of this shard's concatenated incident log.
    pub fn incident_hash(&self) -> u64 {
        incidents_hash(&self.incidents)
    }

    /// p99 primary latency across the whole run.
    pub fn p99(&self) -> u64 {
        self.p99_after(0)
    }

    /// p99 primary latency over jobs served at `epoch` or later (0 when
    /// none were).
    pub fn p99_after(&self, epoch: u64) -> u64 {
        p99_after(&self.latencies, epoch)
    }

    /// Folds one sealed segment — a loop that crashed, or the one still
    /// live when the fleet ends — into the shard's totals: counters sum,
    /// end-of-run state is the last segment's, and the staleness peak is
    /// the maximum over segments.
    fn absorb(&mut self, r: SupervisorReport) {
        self.served += r.served;
        self.shed_jobs += r.shed_jobs;
        self.job_faults += r.job_faults;
        self.swaps += r.swaps;
        self.rebuilds += r.rebuilds;
        self.overruns += r.overruns;
        self.quarantine_events += r.quarantine_events;
        self.latencies.extend(r.latencies);
        self.incidents.extend(r.incidents);
        self.final_rung = r.final_rung;
        self.breaker = r.breaker;
        self.rebuild_failures = r.rebuild_failures;
        self.scav_budget_final = r.scav_budget_final;
        self.staleness_peak = self.staleness_peak.max(r.staleness_peak);
        self.staleness_last = r.staleness_last;
    }
}

/// Everything the fleet run did, measured, and audited.
#[derive(Clone, Debug, Default)]
pub struct FleetReport {
    /// Per-shard totals, indexed by shard.
    pub shards: Vec<ShardSummary>,
    /// The fleet control-plane event log, in order.
    pub events: Vec<FleetEvent>,
    /// Requests admitted directly at their owner.
    pub admitted_direct: u64,
    /// Requests that needed a cross-shard forward.
    pub forwarded: u64,
    /// Retry attempts by queued requests.
    pub retries: u64,
    /// Queued requests shed after waiting 4 epochs.
    pub timeouts: u64,
    /// Requests shed because the forwarding queue was full.
    pub forward_shed: u64,
    /// Crashes across all shards.
    pub crashes: u64,
    /// Recoveries across all shards.
    pub recoveries: u64,
    /// Epochs in which no shard was down or draining.
    pub healthy_epochs: u64,
    /// Minimum serving-shard count over crash-free epochs (the
    /// (N−1)/N capacity oracle's witness).
    pub min_serving_healthy: usize,
    /// Shards the rollout build reached.
    pub rollout_deploys: u64,
    /// True when the rollout deployed to every shard and became LKG.
    pub rollout_completed: bool,
    /// True when the rollout froze.
    pub rollout_frozen: bool,
    /// Scavenger slices granted via work-stealing (slice-epochs).
    pub steals: u64,
    /// Fleet oracle violations (empty on a healthy run).
    pub violations: Vec<String>,
}

impl FleetReport {
    /// Order-sensitive digest of the whole fleet's logs: every shard's
    /// incident hash folded with the fleet event hash. Byte-identical
    /// across replays — the fleet determinism contract.
    pub fn fleet_hash(&self) -> u64 {
        let mut h = fleet_events_hash(&self.events);
        for s in &self.shards {
            h = mix64(h, s.incident_hash());
        }
        h
    }

    /// Total jobs served fleet-wide.
    pub fn served(&self) -> u64 {
        self.shards.iter().map(|s| s.served).sum()
    }

    /// Requests shed fleet-wide: by the forwarding queue (full or timed
    /// out) and by the shards' own admission queues.
    pub fn shed(&self) -> u64 {
        self.forward_shed + self.timeouts + self.shards.iter().map(|s| s.shed_jobs).sum::<u64>()
    }
}

/// The seed shard `shard` runs under for fleet seed `fleet_seed`: its
/// loop's backoff jitter, and its slice of a chaos schedule's fault
/// plan.
pub fn shard_seed(fleet_seed: u64, shard: u64) -> u64 {
    mix64(fleet_seed, shard)
}

/// A shard is up — it owns a live epoch loop, admitting or draining — or
/// down with no loop at all until [`recover`] builds the next one at the
/// top of the following epoch.
enum ShardState {
    Up {
        el: Box<EpochLoop>,
        /// Rollout drain: serves its backlog down, admits nothing.
        draining: bool,
    },
    Down,
}

/// A request waiting for its owner shard to come back.
#[derive(Clone, Copy, Debug)]
struct QueuedRequest {
    owner: usize,
    enqueued: u64,
    next_try: u64,
    attempts: u32,
}

/// Rollout progress.
#[derive(Clone, Copy)]
enum RolloutPhase {
    Idle,
    Draining {
        shard: usize,
    },
    Health {
        shard: usize,
        left: u64,
        deploy_epoch: u64,
        baseline_p99: u64,
        baseline_faults: u64,
    },
    Done,
    Frozen,
}

struct Shard {
    state: ShardState,
    journal: Journal,
    summary: ShardSummary,
}

impl Shard {
    fn is_serving(&self) -> bool {
        matches!(self.state, ShardState::Up { draining, .. } if !draining)
    }

    fn is_down(&self) -> bool {
        matches!(self.state, ShardState::Down)
    }

    fn el(&self) -> Option<&EpochLoop> {
        match &self.state {
            ShardState::Up { el, .. } => Some(el),
            ShardState::Down => None,
        }
    }

    /// The live loop with the journal it writes ahead to.
    fn live(&mut self) -> Option<(&mut EpochLoop, &mut Journal)> {
        match &mut self.state {
            ShardState::Up { el, .. } => Some((&mut **el, &mut self.journal)),
            ShardState::Down => None,
        }
    }

    fn set_draining(&mut self, on: bool) {
        if let ShardState::Up { draining, .. } = &mut self.state {
            *draining = on;
        }
    }

    /// Job faults across every sealed segment plus the live loop's.
    fn job_faults(&self) -> u64 {
        self.summary.job_faults + self.el().map_or(0, |el| el.report().job_faults)
    }

    /// p99 across every sealed segment plus the live loop's — the
    /// pre-drain baseline for the health gate.
    fn p99(&self) -> u64 {
        let live = self.el().map_or(&[][..], |el| &el.report().latencies[..]);
        let v: Vec<u64> = self
            .summary
            .latencies
            .iter()
            .chain(live)
            .map(|(_, l)| *l)
            .collect();
        percentile(&v, 0.99)
    }
}

/// What stepping one live shard borrows: its index, loop, journal and
/// core.
type LiveShard<'a> = (usize, &'a mut EpochLoop, &'a mut Journal, &'a mut Machine);

/// The workload as the serving threads share it: each callback holds
/// the lock for its own duration. A callback that panicked leaves the
/// lock poisoned, and the other threads carry on past it: `serve`
/// re-raises the first panic in shard order after the join, so nothing
/// computed after the poison is returned.
struct Shared<'a, 'w>(&'a Mutex<&'w mut dyn FleetWorkload>);

impl<'w> Shared<'_, 'w> {
    fn lock(&self) -> MutexGuard<'_, &'w mut dyn FleetWorkload> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl FleetWorkload for Shared<'_, '_> {
    fn arrivals(&mut self, epoch: u64) -> Vec<Arrival> {
        self.lock().arrivals(epoch)
    }
    fn primary_context(&mut self, shard: usize, job: u64) -> Context {
        self.lock().primary_context(shard, job)
    }
    fn scavenger_context(&mut self, shard: usize, epoch: u64, job: u64, slot: usize) -> Context {
        self.lock().scavenger_context(shard, epoch, job, slot)
    }
    fn scavenger_program(&mut self, shard: usize, epoch: u64) -> Option<Program> {
        self.lock().scavenger_program(shard, epoch)
    }
    fn profiling_contexts(&mut self, shard: usize, attempt: u32) -> Vec<Context> {
        self.lock().profiling_contexts(shard, attempt)
    }
}

/// Runs the sharded fleet for `opts.epochs` fleet epochs on
/// `mc.cores[shard]` per shard, journaled throughout, and audits the
/// fleet oracles inline. Crashes injected through a core's fault
/// channel down that shard for the epoch; it recovers through
/// [`recover`] at the top of the next one. Shards are served on up to
/// as many host threads as the host offers; the report does not depend
/// on how many.
pub fn run_fleet(
    mc: &mut MultiCore,
    workload: &mut dyn FleetWorkload,
    original: &Program,
    initial: DeployedBuild,
    opts: &FleetOptions,
) -> Result<FleetReport, FleetConfigError> {
    let host = std::thread::available_parallelism().map_or(1, usize::from);
    run_fleet_on(host, mc, workload, original, initial, opts)
}

/// [`run_fleet`] serving on at most `workers` host threads.
pub(crate) fn run_fleet_on(
    workers: usize,
    mc: &mut MultiCore,
    workload: &mut dyn FleetWorkload,
    original: &Program,
    initial: DeployedBuild,
    opts: &FleetOptions,
) -> Result<FleetReport, FleetConfigError> {
    if opts.shards == 0 {
        return Err(FleetConfigError::ZeroShards);
    }
    if opts.shards != mc.len() {
        return Err(FleetConfigError::ShardCoreMismatch);
    }
    let mut fleet = Fleet::new(mc, original, initial, opts, workers)?;
    for epoch in 0..opts.epochs {
        fleet.crashed_this_epoch = false;
        fleet.recover_down_shards(epoch)?;
        fleet.step_rollout(epoch);
        let admit = fleet.route(workload, epoch);
        let bonus = fleet.grant_steals(epoch);
        fleet.serve(workload, epoch, &admit, &bonus);
        fleet.deploy_if_drained(workload, epoch);
        fleet.correlate_breakers(epoch);
        fleet.audit_capacity(epoch);
        // Shared-uncore contention for the window just served.
        fleet.mc.apply_contention();
    }
    Ok(fleet.seal())
}

/// One fleet run's cross-shard state. [`run_fleet`] steps it through one
/// method per phase of the fleet epoch, in the order above.
struct Fleet<'a> {
    mc: &'a mut MultiCore,
    original: &'a Program,
    opts: &'a FleetOptions,
    shards: Vec<Shard>,
    rep: FleetReport,
    /// Router retry jitter.
    rng: SplitMix64,
    queue: VecDeque<QueuedRequest>,
    /// Last-known-good build: what a re-pin deploys.
    lkg: DeployedBuild,
    rollout_build: Option<DeployedBuild>,
    phase: RolloutPhase,
    /// Epochs of breaker-open transitions inside the window.
    breaker_opens: Vec<u64>,
    prev_breakers: Vec<bool>,
    frozen_by_breakers: bool,
    poisoned_fp: Option<u64>,
    poisoned_deploys: Vec<usize>,
    /// A shard went down this epoch, which exempts it from the capacity
    /// oracle.
    crashed_this_epoch: bool,
    /// Host threads `serve` may use.
    workers: usize,
}

impl<'a> Fleet<'a> {
    fn new(
        mc: &'a mut MultiCore,
        original: &'a Program,
        initial: DeployedBuild,
        opts: &'a FleetOptions,
        workers: usize,
    ) -> Result<Self, FleetConfigError> {
        validate_options(&opts.sup)?;
        let shards = (0..opts.shards)
            .map(|s| Shard {
                state: ShardState::Up {
                    el: Box::new(EpochLoop::new(
                        s,
                        initial.clone(),
                        &opts.sup,
                        shard_seed(opts.seed, s as u64),
                        None,
                    )),
                    draining: false,
                },
                journal: Journal::new(),
                summary: ShardSummary::default(),
            })
            .collect();
        let mut fleet = Fleet {
            mc,
            original,
            opts,
            shards,
            rep: FleetReport {
                min_serving_healthy: opts.shards,
                ..FleetReport::default()
            },
            rng: SplitMix64::new(opts.seed ^ 0xF1EE_7000),
            queue: VecDeque::new(),
            lkg: initial,
            rollout_build: None,
            phase: if opts.rollout.is_some() {
                RolloutPhase::Idle
            } else {
                RolloutPhase::Done
            },
            breaker_opens: Vec::new(),
            prev_breakers: vec![false; opts.shards],
            frozen_by_breakers: false,
            poisoned_fp: None,
            poisoned_deploys: Vec::new(),
            crashed_this_epoch: false,
            workers,
        };
        // Persist each shard's initial deployment before the first
        // epoch. A crash here is treated like any other.
        for s in 0..opts.shards {
            let Some((el, journal)) = fleet.shards[s].live() else {
                continue;
            };
            if let Err(point) = el.persist_initial(&mut fleet.mc.cores[s], journal) {
                fleet.crash_shard(s, 0, point);
            }
        }
        Ok(fleet)
    }

    /// Marks shard `s` down after its crash channel fired: the dead
    /// loop's report is sealed into the shard totals, and recovery runs
    /// at the top of the next epoch.
    fn crash_shard(&mut self, s: usize, epoch: u64, point: CrashPoint) {
        let sh = &mut self.shards[s];
        if let ShardState::Up { el, .. } = std::mem::replace(&mut sh.state, ShardState::Down) {
            sh.summary.absorb(el.seal());
        }
        sh.summary.crashes += 1;
        self.rep.crashes += 1;
        self.crashed_this_epoch = true;
        self.rep.events.push(FleetEvent::ShardCrashed {
            epoch,
            shard: s as u64,
            point,
        });
    }

    /// Freezes the rollout: no further shard receives the build.
    fn freeze(&mut self, epoch: u64, reason: String) {
        self.phase = RolloutPhase::Frozen;
        self.rep.rollout_frozen = true;
        self.rep
            .events
            .push(FleetEvent::RolloutFrozen { epoch, reason });
    }

    /// Re-pins shard `s` to the last-known-good build. A crash inside
    /// the deploy downs the shard like any other; a shard that is
    /// already down has nothing to pin — recovery re-checks whatever it
    /// comes back with.
    fn repin_to_lkg(&mut self, s: usize, epoch: u64) {
        let Some((el, journal)) = self.shards[s].live() else {
            return;
        };
        let pinned = el.deploy_rollout(&mut self.mc.cores[s], journal, self.lkg.clone(), epoch);
        match pinned {
            Err(point) => self.crash_shard(s, epoch, point),
            Ok(()) => self.rep.events.push(FleetEvent::RevertedToLkg {
                epoch,
                shard: s as u64,
            }),
        }
    }

    /// Recovery: shards that died last epoch restart now. The dead
    /// process's injector died with it.
    fn recover_down_shards(&mut self, epoch: u64) -> Result<(), FleetConfigError> {
        for s in 0..self.shards.len() {
            if !self.shards[s].is_down() {
                continue;
            }
            self.mc.cores[s].faults = None;
            let sh = &mut self.shards[s];
            let rec = recover(
                &mut sh.journal,
                self.original,
                &mut self.mc.cores[s],
                &self.opts.sup,
                &self.opts.recover,
            )?;
            self.rep.recoveries += 1;
            if rec.degraded {
                sh.summary.recoveries_degraded += 1;
            }
            sh.summary.incidents.extend(rec.incidents);
            // Fleet oracle: recovery never hands back an unverified
            // build. `recover` runs this same gate, so only a recovery
            // that skips re-validation gets here (e.g. resurrecting a
            // poisoned rollout artifact deployed just before the crash).
            // Contain it anyway: pin the fleet's last-known-good build
            // over it and freeze any in-flight rollout.
            let untrusted = !build_is_trusted(self.original, &rec.build, &self.opts.sup);
            if untrusted {
                self.rep.violations.push(format!(
                    "oracle/unverified-build: shard {s} recovered an untrusted {} build \
                     at epoch {epoch}",
                    rec.build.rung
                ));
            }
            let seed = shard_seed(self.opts.seed, s as u64);
            sh.state = ShardState::Up {
                el: Box::new(EpochLoop::new(
                    s,
                    rec.build,
                    &self.opts.sup,
                    seed,
                    Some(rec.state),
                )),
                draining: false,
            };
            if untrusted {
                self.repin_to_lkg(s, epoch);
                if !matches!(self.phase, RolloutPhase::Done | RolloutPhase::Frozen) {
                    self.freeze(
                        epoch,
                        format!("shard {s} recovered with an untrusted build"),
                    );
                }
                // Oracle: the re-pin must leave the shard trusted.
                let sup = &self.opts.sup;
                if !self.shards[s]
                    .el()
                    .is_some_and(|el| build_is_trusted(self.original, el.deployed(), sup))
                {
                    self.rep.violations.push(format!(
                        "oracle/unverified-build: shard {s} still serving an untrusted build \
                         after the LKG re-pin at epoch {epoch}"
                    ));
                }
            }
            self.rep.events.push(FleetEvent::ShardRecovered {
                epoch,
                shard: s as u64,
                degraded: rec.degraded,
            });
        }
        Ok(())
    }

    /// The rollout state machine's control decisions for this epoch.
    fn step_rollout(&mut self, epoch: u64) {
        let Some(ro) = self.opts.rollout.as_ref() else {
            return;
        };
        match self.phase {
            RolloutPhase::Idle => {
                let all_serving = self.shards.iter().all(Shard::is_serving);
                let next = self.rep.rollout_deploys as usize;
                if epoch >= ro.start_epoch && all_serving && next < self.opts.shards {
                    if next == 0 && self.rollout_build.is_none() {
                        self.rep.events.push(FleetEvent::RolloutStarted { epoch });
                    }
                    self.shards[next].set_draining(true);
                    self.phase = RolloutPhase::Draining { shard: next };
                    self.rep.events.push(FleetEvent::DrainStarted {
                        epoch,
                        shard: next as u64,
                    });
                }
            }
            RolloutPhase::Draining { shard } => {
                // Any down shard cancels the drain: max-unavailable=1
                // counts the draining shard itself, so a concurrent
                // crash means two unavailable shards — back out.
                if self.shards.iter().any(Shard::is_down) {
                    self.shards[shard].set_draining(false);
                    self.phase = RolloutPhase::Idle;
                }
            }
            RolloutPhase::Health {
                shard,
                left,
                deploy_epoch,
                baseline_p99,
                baseline_faults,
            } => {
                let Some(el) = self.shards[shard].el() else {
                    self.freeze(
                        epoch,
                        format!("shard {shard} crashed during its health window"),
                    );
                    return;
                };
                if left > 0 {
                    self.phase = RolloutPhase::Health {
                        shard,
                        left: left - 1,
                        deploy_epoch,
                        baseline_p99,
                        baseline_faults,
                    };
                    return;
                }
                let post_faults = self.shards[shard].job_faults();
                let post_p99 = p99_after(&el.report().latencies, deploy_epoch);
                let p99_limit = (baseline_p99 as f64 * ro.p99_factor) as u64;
                let faulted = post_faults > baseline_faults;
                let slow = baseline_p99 > 0 && post_p99 > p99_limit;
                if faulted || slow {
                    self.freeze(
                        epoch,
                        if faulted {
                            format!(
                                "shard {shard} faulted {} job(s) in its health window",
                                post_faults - baseline_faults
                            )
                        } else {
                            format!(
                                "shard {shard} p99 {post_p99} exceeded {p99_limit} \
                                 (baseline {baseline_p99})"
                            )
                        },
                    );
                    // Pin the shard back to the last-known-good build
                    // immediately.
                    self.repin_to_lkg(shard, epoch);
                } else {
                    self.rep.events.push(FleetEvent::HealthPassed {
                        epoch,
                        shard: shard as u64,
                    });
                    if self.rep.rollout_deploys as usize == self.opts.shards {
                        self.phase = RolloutPhase::Done;
                        self.rep.rollout_completed = true;
                        self.lkg = self
                            .rollout_build
                            .clone()
                            .expect("completed rollout has a build");
                        self.rep.events.push(FleetEvent::RolloutCompleted { epoch });
                    } else {
                        self.phase = RolloutPhase::Idle;
                    }
                }
            }
            RolloutPhase::Done | RolloutPhase::Frozen => {}
        }
    }

    /// Routing: fleet arrivals → owner shards, the forwarding queue, or
    /// the shedder. Returns the admissions granted per shard; only a
    /// serving shard is granted any.
    fn route(&mut self, workload: &mut dyn FleetWorkload, epoch: u64) -> Vec<usize> {
        let opts = self.opts;
        let mut admit = vec![0usize; opts.shards];
        // Queued requests first (they have waited longest).
        let mut still_queued: VecDeque<QueuedRequest> = VecDeque::new();
        while let Some(mut q) = self.queue.pop_front() {
            if epoch < q.next_try {
                still_queued.push_back(q);
                continue;
            }
            if self.shards[q.owner].is_serving() {
                admit[q.owner] += 1;
                continue;
            }
            if epoch.saturating_sub(q.enqueued) >= FORWARD_TIMEOUT_EPOCHS {
                self.rep.timeouts += 1;
                continue;
            }
            self.rep.retries += 1;
            let shift = q.attempts.min(31);
            let delay = FORWARD_BACKOFF_BASE
                .saturating_mul(1u64 << shift)
                .min(FORWARD_BACKOFF_MAX);
            let jitter = self.rng.next_below(FORWARD_BACKOFF_BASE + 1);
            q.next_try = epoch + 1 + delay + jitter;
            q.attempts += 1;
            still_queued.push_back(q);
        }
        self.queue = still_queued;
        for a in workload.arrivals(epoch) {
            let cross = a.ingress != a.owner;
            if cross {
                self.rep.forwarded += 1;
            }
            if self.shards[a.owner].is_serving() {
                admit[a.owner] += 1;
                if !cross {
                    self.rep.admitted_direct += 1;
                }
            } else if self.queue.len() < FORWARD_BOUND {
                self.queue.push_back(QueuedRequest {
                    owner: a.owner,
                    enqueued: epoch,
                    next_try: epoch + 1,
                    attempts: 0,
                });
            } else {
                self.rep.forward_shed += 1;
            }
        }
        admit
    }

    /// Work-stealing: drained/down shards donate their scavenger slices
    /// to the serving shards this epoch. Returns the bonus per shard;
    /// only a serving shard is granted any.
    fn grant_steals(&mut self, epoch: u64) -> Vec<u64> {
        let opts = self.opts;
        let serving = self.shards.iter().filter(|sh| sh.is_serving()).count();
        let donors = opts.shards - serving;
        let mut bonus_of = vec![0u64; opts.shards];
        if donors > 0 && serving > 0 {
            // Each donor gives away what it actually has: a draining
            // shard's live (possibly shed) budget, a dead shard's
            // configured pool. Slices split evenly over the serving
            // shards; the remainder goes to the lowest-indexed ones, so
            // every donated slice lands and the split stays
            // deterministic.
            let donated: u64 = self
                .shards
                .iter()
                .filter(|sh| !sh.is_serving())
                .map(|sh| sh.el().map_or(opts.sup.scavengers, EpochLoop::scav_budget) as u64)
                .sum();
            let base = donated / serving as u64;
            let rem = donated % serving as u64;
            let mut rank = 0u64;
            for (s, sh) in self.shards.iter().enumerate() {
                if sh.is_serving() {
                    bonus_of[s] = base + u64::from(rank < rem);
                    rank += 1;
                }
            }
            if donated > 0 {
                self.rep.steals += donated;
                self.rep.events.push(FleetEvent::StealGranted {
                    epoch,
                    donors: donors as u64,
                    granted: donated,
                });
            }
        }
        bonus_of
    }

    /// Serve: step every live shard's epoch loop on its core. A draining
    /// shard steps too — that is how its backlog drains — on the zero
    /// admissions and zero bonus `route` and `grant_steals` left it.
    ///
    /// A shard's step touches only its own loop, journal and core, and
    /// the workload answers per shard, so the live shards are split into
    /// up to `workers` contiguous runs stepped on scoped threads. The
    /// first run, on this thread, is the longest: each spawned helper
    /// takes `live / (workers + 1)` shards (at least one) off the back,
    /// so with shards enough this thread's run is at least twice a
    /// helper's. A helper starts late, on another core, which a shared
    /// host slows independently of this one. With even runs every epoch
    /// would end on the slower of the two cores; with this split it ends
    /// on this thread's pace unless a helper runs at under half its
    /// speed. Crashes are applied after the join, in shard order, so the
    /// report is the one a serial loop writes.
    fn serve(
        &mut self,
        workload: &mut dyn FleetWorkload,
        epoch: u64,
        admit: &[usize],
        bonus: &[u64],
    ) {
        let original = self.original;
        let mut live: Vec<LiveShard> = (self.shards.iter_mut().zip(&mut self.mc.cores))
            .enumerate()
            .filter_map(|(s, (sh, core))| sh.live().map(|(el, journal)| (s, el, journal, core)))
            .collect();
        let step = |workload: &mut dyn FleetWorkload, run: &mut [LiveShard]| {
            let mut crashed = Vec::new();
            for (s, el, journal, core) in run {
                el.set_scav_bonus(bonus[*s] as usize);
                let stepped = el.step_epoch(core, workload, admit[*s], original, journal, epoch);
                if let Err(point) = stepped {
                    crashed.push((*s, point));
                }
            }
            crashed
        };
        let workers = self.workers.min(live.len());
        let crashed = if workers <= 1 {
            step(workload, &mut live)
        } else {
            let shared = &Mutex::new(workload);
            let run_len = (live.len() / (workers + 1)).max(1);
            let own = live.len() - run_len * (workers - 1);
            let (first, rest) = live.split_at_mut(own);
            let runs = rest.chunks_mut(run_len);
            std::thread::scope(|scope| {
                let spawned: Vec<_> = runs
                    .map(|run| scope.spawn(move || step(&mut Shared(shared), run)))
                    .collect();
                let mut crashed = step(&mut Shared(shared), first);
                for handle in spawned {
                    // A shard's panic reaches the caller as it was raised.
                    crashed.extend(handle.join().unwrap_or_else(|p| resume_unwind(p)));
                }
                crashed
            })
        };
        for (s, point) in crashed {
            self.crash_shard(s, epoch, point);
        }
    }

    /// Drained? Deploy the rollout build at this epoch boundary.
    fn deploy_if_drained(&mut self, workload: &mut dyn FleetWorkload, epoch: u64) {
        let (RolloutPhase::Draining { shard }, Some(ro)) = (self.phase, self.opts.rollout.as_ref())
        else {
            return;
        };
        let Some(el) = self.shards[shard].el() else {
            self.phase = RolloutPhase::Idle;
            return;
        };
        if el.pending_len() > 0 {
            return;
        }
        // Build once, on the drained shard's idle core; gate it, then
        // (the fault hook) poison it after the gates.
        if self.rollout_build.is_none() {
            let built = build_rollout(
                &mut self.mc.cores[shard],
                workload,
                shard,
                self.original,
                &self.opts.sup,
            );
            match built {
                Some(mut b) => {
                    if let Some(poison) = ro.poison {
                        poison(&mut b);
                        self.poisoned_fp = Some(b.prog.fingerprint());
                    }
                    self.rollout_build = Some(b);
                }
                None => {
                    self.freeze(epoch, "rollout build failed its gates".to_string());
                    self.shards[shard].set_draining(false);
                }
            }
        }
        let Some(b) = self.rollout_build.clone() else {
            return;
        };
        // Every shard after the first re-validates the artifact it
        // fetched; the first shard is the supply-chain window the health
        // gate covers.
        let second_or_later = self.rep.rollout_deploys > 0;
        if second_or_later && !build_is_trusted(self.original, &b, &self.opts.sup) {
            self.freeze(
                epoch,
                format!("shard {shard} re-validation rejected the rollout artifact"),
            );
            self.shards[shard].set_draining(false);
            return;
        }
        let sh = &mut self.shards[shard];
        let (baseline_p99, baseline_faults) = (sh.p99(), sh.job_faults());
        let (fingerprint, rung) = (b.prog.fingerprint(), b.rung);
        let Some((el, journal)) = sh.live() else {
            return;
        };
        let deployed = el.deploy_rollout(&mut self.mc.cores[shard], journal, b, epoch);
        match deployed {
            Err(point) => {
                self.crash_shard(shard, epoch, point);
                self.phase = RolloutPhase::Idle;
            }
            Ok(()) => {
                self.rep.rollout_deploys += 1;
                if Some(fingerprint) == self.poisoned_fp {
                    self.poisoned_deploys.push(shard);
                }
                self.shards[shard].set_draining(false);
                self.rep.events.push(FleetEvent::RolloutDeployed {
                    epoch,
                    shard: shard as u64,
                    rung,
                });
                self.phase = RolloutPhase::Health {
                    shard,
                    left: ro.health_epochs,
                    deploy_epoch: epoch + 1,
                    baseline_p99,
                    baseline_faults,
                };
            }
        }
    }

    /// Correlated breaker detection over the live shards.
    fn correlate_breakers(&mut self, epoch: u64) {
        for (s, sh) in self.shards.iter().enumerate() {
            let open = sh
                .el()
                .is_some_and(|el| el.state().breaker == BreakerState::Open);
            if open && !self.prev_breakers[s] {
                self.breaker_opens.push(epoch);
            }
            self.prev_breakers[s] = open;
        }
        self.breaker_opens
            .retain(|&e| epoch.saturating_sub(e) < BREAKER_WINDOW);
        let opens = self.breaker_opens.len();
        if opens < BREAKER_K || self.frozen_by_breakers {
            return;
        }
        self.frozen_by_breakers = true;
        self.rep.events.push(FleetEvent::CorrelatedBreakers {
            epoch,
            opens: opens as u64,
        });
        if !matches!(self.phase, RolloutPhase::Done) {
            self.freeze(
                epoch,
                format!("{opens} breakers opened within {BREAKER_WINDOW} epochs"),
            );
        }
        // Pin every serving shard to the last-known-good build:
        // correlated opens mean the *inputs* to rebuilding are bad
        // fleet-wide, so stop letting shards individually degrade.
        let lkg_fp = self.lkg.prog.fingerprint();
        for s in 0..self.shards.len() {
            let sh = &self.shards[s];
            let on_lkg = sh
                .el()
                .is_some_and(|el| el.deployed().prog.fingerprint() == lkg_fp);
            if sh.is_serving() && !on_lkg {
                self.repin_to_lkg(s, epoch);
            }
        }
    }

    /// Capacity accounting + oracle. A crash-free epoch must keep at
    /// least N−1 shards serving, rolling deploy or not.
    fn audit_capacity(&mut self, epoch: u64) {
        if self.crashed_this_epoch {
            return;
        }
        let serving_now = self.shards.iter().filter(|sh| sh.is_serving()).count();
        self.rep.healthy_epochs += 1;
        self.rep.min_serving_healthy = self.rep.min_serving_healthy.min(serving_now);
        if serving_now + 1 < self.opts.shards {
            self.rep.violations.push(format!(
                "oracle/capacity: epoch {epoch} healthy but only {serving_now}/{} shards \
                 serving",
                self.opts.shards
            ));
        }
    }

    /// Seals every surviving loop and audits the journals.
    fn seal(mut self) -> FleetReport {
        for (s, sh) in self.shards.iter_mut().enumerate() {
            let ShardState::Up { el, .. } = std::mem::replace(&mut sh.state, ShardState::Down)
            else {
                continue;
            };
            // Clean shutdown: anything the partial-flush channel held
            // back reaches the durable image, so a clean journal projects
            // exactly the live state the audit compares against.
            sh.journal.flush();
            audit_journal(s, &sh.journal, &el, &mut self.rep.violations);
            sh.summary.absorb(el.seal());
        }

        // Fleet oracle: a poisoned rollout build never reaches a second
        // shard.
        if self.poisoned_fp.is_some() && self.poisoned_deploys.len() > 1 {
            self.rep.violations.push(format!(
                "oracle/poison-containment: poisoned build deployed to shards {:?}",
                self.poisoned_deploys
            ));
        }

        self.rep.shards = (self.shards.into_iter())
            .map(|sh| ShardSummary {
                journal: sh.journal,
                ..sh.summary
            })
            .collect();
        self.rep
    }
}

/// Fleet oracle, on the replay of shard `s`'s journal after the clean
/// flush: the journal is a faithful record of the shard's live loop `el`
/// — jointly, of the live fleet. Epoch advances strictly increase; no
/// torn tail survives the flush; the journal projects to the loop's
/// control state; that state's deploy names the live build, and its
/// stored artifact is the one its fingerprint names; and an open breaker
/// never sits over full PGO, live or journaled.
fn audit_journal(s: usize, journal: &Journal, el: &EpochLoop, violations: &mut Vec<String>) {
    let mut flag = |oracle: &str, what: String| {
        violations.push(format!("oracle/{oracle}: shard {s} {what}"));
    };
    let replay = journal.replay();
    let advances: Vec<u64> = (replay.records.iter())
        .filter_map(|r| match *r {
            JournalRecord::EpochAdvance { epoch, .. } => Some(epoch),
            _ => None,
        })
        .collect();
    if let Some(w) = advances.windows(2).find(|w| w[1] <= w[0]) {
        let what = format!("journal advances to epoch {} after {}", w[1], w[0]);
        flag("journal-epochs", what);
    }
    if replay.torn_tail {
        flag(
            "journal-projection",
            "journal torn after the clean flush".into(),
        );
    }
    let (st, live) = (project(&replay.records), el.state());
    if st != *live {
        let what = format!("journal {st:?} != live {live:?}");
        flag("journal-projection", what);
    }
    let cur = el.deployed();
    let serving = Some((cur.prog.fingerprint(), cur.rung));
    if live.deploy.map(|(fp, rung, _)| (fp, rung)) != serving {
        let what = format!("state deploys {:?}, live serves {serving:?}", live.deploy);
        flag("journal-projection", what);
    }
    let stored = |fp| {
        journal
            .get_build(fp)
            .is_some_and(|b| b.prog.fingerprint() == fp)
    };
    if st.deploy.is_some_and(|(fp, _, _)| !stored(fp)) {
        let what = "journal deploys an artifact the store lacks or holds as another build";
        flag("journal-projection", what.into());
    }
    let open_over_pgo = |breaker, rung| breaker == BreakerState::Open && rung == Rung::FullPgo;
    if open_over_pgo(live.breaker, cur.rung)
        || st
            .deploy
            .is_some_and(|(_, rung, _)| open_over_pgo(st.breaker, rung))
    {
        flag("breaker-rung", "breaker open over a full-PGO build".into());
    }
}

/// Builds the rollout's re-instrumented binary on the drained shard's
/// idle core and runs the same lint + symbolic-equivalence gates a hot
/// swap passes. `None` when the ladder degraded or a gate refused.
fn build_rollout(
    machine: &mut Machine,
    workload: &mut dyn FleetWorkload,
    shard: usize,
    original: &Program,
    sup: &SupervisorOptions,
) -> Option<DeployedBuild> {
    let built = pgo_pipeline_degrading(
        machine,
        original,
        |a| workload.profiling_contexts(shard, a),
        &sup.degrade,
    );
    if built.rung != Rung::FullPgo {
        return None;
    }
    let build = DeployedBuild::from(built);
    build_is_trusted(original, &build, sup).then_some(build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::DegradeOptions;
    use crate::fleet_chaos::{FleetChaosOptions, FleetChaosSchedule, FleetChaosWorld};
    use crate::supervisor::{incidents_json, Action};
    use crate::testkit::{
        fleet_sup, fleet_world, fleet_world_on, solo_core, Solo, SoloExit, ZipfFleet,
    };
    use reach_profile::Profile;
    use reach_sim::{FaultInjector, FaultPlan, Inst};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A one-shard fleet with neutralized uncore contention serves,
    /// journals, swaps and logs exactly what the reference standalone
    /// loop serves under the shard's derived seed: at N=1 the fleet layer
    /// vanishes. Every rebuild fails (a wiped profile, no retries), so
    /// the run backs off under seeded jitter and then opens the breaker
    /// over a degraded rung; every summary field is compared, the
    /// staleness readings as bits.
    ///
    /// Hand mutations, each of which fails this test: `absorb` drops
    /// `staleness_peak`; the fleet seeds shard 0's loop with the fleet
    /// seed instead of `shard_seed(seed, 0)`.
    #[test]
    fn one_shard_fleet_degenerates_to_single_supervisor() {
        let mut sup = fleet_sup();
        sup.staleness_threshold = 0.0;
        sup.degrade = DegradeOptions {
            max_reprofiles: 0,
            profile_mutator: Some(|p: &mut Profile| p.total_samples = 0),
            ..sup.degrade
        };
        for seed in 0..3 {
            let opts = FleetOptions {
                shards: 1,
                epochs: 16,
                sup: sup.clone(),
                seed,
                ..FleetOptions::default()
            };
            let (mut mc, mut svc, orig, initial) = fleet_world_on(solo_core(), 1, false);
            let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
            assert_eq!(rep.violations, Vec::<String>::new());
            let shard = &rep.shards[0];

            let (mut mc, mut svc, orig, initial) = fleet_world_on(solo_core(), 1, false);
            let solo = Solo {
                original: &orig,
                opts: &sup,
                epochs: opts.epochs,
                seed: shard_seed(seed, 0),
            };
            let mut journal = Journal::new();
            let exit = solo.run(&mut mc.cores[0], &mut svc, initial, &mut journal, None);
            let SoloExit::Completed(r, _) = exit else {
                panic!("no faults armed, run cannot crash");
            };
            assert!(r.rebuilds >= 3 && r.breaker == BreakerState::Open, "{r:?}");

            assert_eq!(shard.incident_hash(), incidents_hash(&r.incidents));
            assert_eq!(shard.latencies, r.latencies);
            let fleet = (
                (shard.served, shard.shed_jobs, shard.job_faults),
                (shard.swaps, shard.rebuilds, shard.rebuild_failures),
                (shard.final_rung, shard.breaker, shard.scav_budget_final),
                (shard.overruns, shard.quarantine_events),
                (
                    shard.staleness_peak.to_bits(),
                    shard.staleness_last.to_bits(),
                ),
            );
            let reference = (
                (r.served, r.shed_jobs, r.job_faults),
                (r.swaps, r.rebuilds, r.rebuild_failures),
                (r.final_rung, r.breaker, r.scav_budget_final),
                (r.overruns, r.quarantine_events),
                (r.staleness_peak.to_bits(), r.staleness_last.to_bits()),
            );
            assert_eq!(fleet, reference, "seed {seed}");
            assert_eq!(
                shard.journal.replay().records,
                journal.replay().records,
                "seed {seed}"
            );
        }
    }

    /// A shard that crashes inside the backoff `Breaker` append of the
    /// final epoch ends the run down, and its summary reports the breaker
    /// and failure count its journal holds: the last journaled decision,
    /// not the backoff the crash interrupted.
    ///
    /// Hand mutation, which fails this test: `write_ahead` applies the
    /// record before it appends it.
    #[test]
    fn a_shard_down_at_fleet_end_reports_its_journaled_state() {
        let mut sup = fleet_sup();
        sup.staleness_threshold = 0.0;
        sup.max_rebuild_failures = u32::MAX;
        sup.degrade = DegradeOptions {
            max_reprofiles: 0,
            profile_mutator: Some(|p: &mut Profile| p.total_samples = 0),
            ..sup.degrade
        };
        let run = |epochs, crash_at: Option<u64>| {
            let (mut mc, mut svc, orig, initial) = fleet_world_on(solo_core(), 1, false);
            let plan = FaultPlan::none(1);
            let plan = crash_at.map_or(plan, |n| plan.with_crash_at(n));
            mc.cores[0].faults = Some(FaultInjector::new(plan));
            let opts = FleetOptions {
                shards: 1,
                epochs,
                sup: sup.clone(),
                ..FleetOptions::default()
            };
            let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
            let consults = mc.cores[0]
                .faults
                .as_ref()
                .map(FaultInjector::crash_points_seen);
            (rep, consults.expect("no recovery ran"))
        };
        // The shortest run whose final epoch backs off. Its backoff
        // append is the last crash-point consultation of the run.
        let (epochs, clean, consults) = (2..16)
            .find_map(|epochs| {
                let (rep, consults) = run(epochs, None);
                let last = rep.shards[0].incidents.last()?;
                let backs_off = matches!(last.action, Action::Backoff { .. });
                (backs_off && last.epoch == epochs - 1).then_some((epochs, rep, consults))
            })
            .expect("a run whose final epoch backs off");
        let (crashed, _) = run(epochs, Some(consults));
        assert_eq!((crashed.crashes, crashed.recoveries), (1, 0));
        let sh = &crashed.shards[0];
        let st = project(&sh.journal.replay().records);
        assert_eq!((sh.breaker, sh.rebuild_failures), (st.breaker, st.failures));
        // The interrupted backoff would have counted one more failure.
        assert_eq!(sh.rebuild_failures + 1, clean.shards[0].rebuild_failures);
    }

    #[test]
    fn steady_fleet_is_deterministic_and_clean() {
        let run = || {
            let (mut mc, mut svc, orig, initial) = fleet_world(2, 2, true);
            let opts = FleetOptions {
                shards: 2,
                epochs: 10,
                sup: fleet_sup(),
                seed: 7,
                ..FleetOptions::default()
            };
            run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap()
        };
        let a = run();
        assert_eq!(a.violations, Vec::<String>::new());
        assert!(a.served() > 0, "fleet served nothing");
        assert!(a.forwarded > 0, "cross-shard arrivals should be counted");
        assert_eq!(
            a.min_serving_healthy, 2,
            "steady state must keep all shards serving"
        );
        assert_eq!(a.crashes, 0);
        assert_eq!(a.rollout_deploys, 0);
        let b = run();
        assert_eq!(
            a.fleet_hash(),
            b.fleet_hash(),
            "fleet replay must be byte-identical"
        );
        for (x, y) in a.shards.iter().zip(&b.shards) {
            assert_eq!(x.served, y.served);
            assert_eq!(x.incident_hash(), y.incident_hash());
        }
    }

    #[test]
    fn rolling_deploy_completes_behind_max_unavailable_one() {
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 2, false);
        let opts = FleetOptions {
            shards: 2,
            epochs: 12,
            sup: fleet_sup(),
            rollout: Some(RolloutOptions {
                start_epoch: 2,
                health_epochs: 1,
                p99_factor: 100.0,
                poison: None,
            }),
            seed: 7,
            ..FleetOptions::default()
        };
        let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
        assert_eq!(rep.violations, Vec::<String>::new());
        assert!(rep.rollout_completed, "events: {:?}", rep.events);
        assert_eq!(rep.rollout_deploys, 2);
        assert!(!rep.rollout_frozen);
        assert!(rep.min_serving_healthy >= 1, "capacity fell below (N-1)/N");
        assert!(
            rep.steals > 0,
            "drained shards should donate scavenger slices"
        );
        let health_passes = rep
            .events
            .iter()
            .filter(|e| matches!(e, FleetEvent::HealthPassed { .. }))
            .count();
        assert_eq!(health_passes, 2);
        // A rollout deploy is a code-map change like any hot swap: each
        // one dropped that core's superblock cache, and nothing else did.
        for (s, sh) in rep.shards.iter().enumerate() {
            assert_eq!(sh.swaps, 1);
            assert_eq!(mc.cores[s].block_cache.stats.invalidations, sh.swaps);
        }
    }

    /// A shard that is down when the fleet ends reports the rung it died
    /// on, not the one it was constructed with: the crash path folds the
    /// dead loop's whole report into the summary, as the end-of-run seal
    /// does for a live one.
    #[test]
    fn shard_down_at_fleet_end_reports_the_rung_it_died_on() {
        let epochs = 8;
        let run = |crash_at: Option<u64>| {
            let (mut mc, mut svc, orig, _) = fleet_world(2, 2, false);
            // Every shard starts on the original, so the rollout's
            // full-PGO build is a rung change.
            let initial = DeployedBuild {
                prog: orig.clone(),
                origin: (0..orig.len()).map(Some).collect(),
                rung: Rung::Uninstrumented,
                profile: None,
            };
            let mut plan = FaultPlan::none(9);
            plan.crash_at = crash_at;
            mc.cores[0].faults = Some(FaultInjector::new(plan));
            let opts = FleetOptions {
                shards: 2,
                epochs,
                sup: fleet_sup(),
                rollout: Some(RolloutOptions {
                    start_epoch: 2,
                    health_epochs: 1,
                    p99_factor: 100.0,
                    poison: None,
                }),
                seed: 7,
                ..FleetOptions::default()
            };
            let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
            let consulted = mc.cores[0].faults.as_ref().unwrap().crash_points_seen();
            (rep, consulted)
        };
        let (clean, consulted) = run(None);
        assert_eq!(
            clean.shards[0].final_rung,
            Rung::FullPgo,
            "{:?}",
            clean.events
        );
        // Shard 0's last consultation is the final epoch's advance.
        let (rep, _) = run(Some(consulted));
        assert_eq!(rep.violations, Vec::<String>::new());
        assert_eq!(
            rep.events.last(),
            Some(&FleetEvent::ShardCrashed {
                epoch: epochs - 1,
                shard: 0,
                point: CrashPoint::MidJournalAppend,
            })
        );
        assert_eq!(rep.recoveries, 0, "no epoch left to recover in");
        assert_eq!(rep.shards[0].final_rung, Rung::FullPgo);
    }

    #[test]
    fn poisoned_rollout_never_reaches_a_second_shard() {
        fn clobber_yield_saves(b: &mut DeployedBuild) {
            for inst in &mut b.prog.insts {
                if let Inst::Yield { save_regs, .. } = inst {
                    *save_regs = Some(0);
                }
            }
        }
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 2, false);
        let opts = FleetOptions {
            shards: 2,
            epochs: 14,
            sup: fleet_sup(),
            rollout: Some(RolloutOptions {
                start_epoch: 2,
                health_epochs: 1,
                p99_factor: 100.0,
                poison: Some(clobber_yield_saves),
            }),
            seed: 7,
            ..FleetOptions::default()
        };
        let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
        assert_eq!(rep.violations, Vec::<String>::new());
        assert!(
            rep.rollout_frozen,
            "poison must freeze the rollout: {:?}",
            rep.events
        );
        assert!(!rep.rollout_completed);
        assert!(
            rep.rollout_deploys <= 1,
            "poisoned build reached {} shards",
            rep.rollout_deploys
        );
    }

    /// Hand mutations, each of which fails this test: the queue admits
    /// every request (no bound); a queued request never times out.
    #[test]
    fn forwarding_queue_sheds_on_overflow_and_times_out() {
        // A long drain (a full backlog at service rate 1) keeps a shard
        // away while half of 12 arrivals an epoch queue for it: the queue
        // fills past its bound of 16, and requests outlive the 4-epoch
        // timeout.
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 12, true);
        let opts = FleetOptions {
            shards: 2,
            epochs: 12,
            sup: fleet_sup(),
            rollout: Some(RolloutOptions {
                start_epoch: 2,
                health_epochs: 1,
                p99_factor: 100.0,
                poison: None,
            }),
            seed: 7,
            ..FleetOptions::default()
        };
        let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap();
        assert_eq!(rep.violations, Vec::<String>::new());
        assert!(rep.timeouts > 0, "expected forward-queue timeouts: {rep:?}");
        assert!(rep.forward_shed > 0, "expected overflow sheds: {rep:?}");
    }

    #[test]
    fn degenerate_fleet_configs_are_typed_errors() {
        let (mut mc, mut svc, orig, initial) = fleet_world(2, 1, false);
        let base = FleetOptions {
            shards: 2,
            epochs: 2,
            sup: fleet_sup(),
            ..FleetOptions::default()
        };
        let opts = FleetOptions {
            shards: 0,
            ..base.clone()
        };
        assert_eq!(
            run_fleet(&mut mc, &mut svc, &orig, initial.clone(), &opts).unwrap_err(),
            FleetConfigError::ZeroShards
        );
        let opts = FleetOptions {
            shards: 3,
            ..base.clone()
        };
        assert_eq!(
            run_fleet(&mut mc, &mut svc, &orig, initial.clone(), &opts).unwrap_err(),
            FleetConfigError::ShardCoreMismatch
        );
        let mut sup = fleet_sup();
        sup.max_rebuild_failures = 0;
        let opts = FleetOptions { sup, ..base };
        assert_eq!(
            run_fleet(&mut mc, &mut svc, &orig, initial, &opts).unwrap_err(),
            FleetConfigError::Supervisor(SupervisorConfigError::ZeroMaxRebuildFailures)
        );
    }

    #[test]
    fn fleet_event_log_serializes_canonically() {
        let events = vec![
            FleetEvent::RolloutStarted { epoch: 2 },
            FleetEvent::DrainStarted { epoch: 2, shard: 0 },
            FleetEvent::RolloutFrozen {
                epoch: 5,
                reason: "x".to_string(),
            },
        ];
        let json = fleet_events_json(&events);
        assert!(json.contains("\"kind\":\"rollout-started\""), "{json}");
        assert!(json.contains("\"kind\":\"drain-started\""), "{json}");
        assert_eq!(
            fleet_events_hash(&events),
            fleet_events_hash(&events.clone())
        );
    }

    /// One run of `schedule` on the 4-shard zipf fleet, served on
    /// `workers` threads: the report, and each core's clock and counters.
    fn run_on_workers(
        schedule: &FleetChaosSchedule,
        workers: usize,
    ) -> (FleetReport, Vec<(u64, reach_sim::PerfCounters)>) {
        let (mc, svc, original, initial) = fleet_world(4, 4, true);
        let mut world = FleetChaosWorld {
            mc,
            workload: Box::new(svc),
            original,
            initial,
        };
        let mut opts = FleetChaosOptions::new(FleetOptions {
            shards: 4,
            epochs: 10,
            sup: fleet_sup(),
            seed: 7,
            ..FleetOptions::default()
        });
        opts.rollout_template = RolloutOptions {
            start_epoch: 2,
            health_epochs: 1,
            p99_factor: 100.0,
            poison: None,
        };
        let fleet_opts = schedule.arm(&mut world, &opts);
        let rep = run_fleet_on(
            workers,
            &mut world.mc,
            world.workload.as_mut(),
            &world.original,
            world.initial,
            &fleet_opts,
        )
        .unwrap();
        let cores = (world.mc.cores.iter())
            .map(|c| (c.now, c.counters.clone()))
            .collect();
        (rep, cores)
    }

    /// Every field of a shard summary, with its final journal as replayed
    /// and projected. The journal's stored builds are left out: a
    /// profile's maps print in no fixed order, and the records name each
    /// deployed build by fingerprint.
    fn shard_print(sh: &ShardSummary) -> impl PartialEq + std::fmt::Debug {
        let replay = sh.journal.replay();
        let staleness = (sh.staleness_peak.to_bits(), sh.staleness_last.to_bits());
        (
            (sh.served, sh.shed_jobs, sh.job_faults, sh.swaps),
            (
                sh.rebuilds,
                sh.crashes,
                sh.recoveries_degraded,
                sh.rebuild_failures,
            ),
            (sh.overruns, sh.quarantine_events),
            (sh.final_rung, sh.breaker, sh.scav_budget_final, staleness),
            (sh.latencies.clone(), incidents_json(&sh.incidents)),
            (project(&replay.records), replay.records, replay.valid_bytes),
            (replay.torn_tail, sh.journal.stats),
        )
    }

    /// The fleet steps its shards on scoped threads, and nothing a run
    /// leaves depends on how many. A 4-shard fleet runs four schedules
    /// at 1, 2 and 4 workers: steady; a clean rollout; a poisoned
    /// rollout; and three shards crashing in one epoch, one of them over
    /// a torn journal. Each run must end with the same fleet hash, the
    /// same report (every shard summary and final journal included), the
    /// same journal projections, and the same clock and counters on
    /// every core. The 1-worker runs are pinned as well: the fleet hash
    /// folded with every core's clock is what the fleet printed when it
    /// stepped its shards one after another on one thread.
    ///
    /// Hand mutations tried, each of which fails this test:
    /// 1. crashes applied in completion order (each run pushes its
    ///    crashes to a shared list when it ends): at 2 workers the
    ///    helper's one shard, 3, goes down and its run ends while this
    ///    thread is still stepping shards 0 to 2, two of which go down;
    /// 2. `set_scav_bonus` applied after the step: the clean rollout's
    ///    pinned digest (a draining shard's slices arrive an epoch late;
    ///    the fleet hash alone does not see it, the clocks do);
    /// 3. the spawned runs' crashes applied before the first run's;
    /// 4. the last run never spawned (`runs.take(workers - 2)`).
    ///
    /// Holding the lock for a whole run instead of per callback is
    /// equivalent here: it serializes the runs, and only host time sees
    /// it.
    #[test]
    fn fleet_runs_identically_on_any_worker_count() {
        let quiet = FleetChaosSchedule::quiet(0x7EAD);
        let schedules = [
            ("steady", quiet.clone(), 0xe901_d5c6_68fb_b963),
            (
                "clean-rollout",
                FleetChaosSchedule {
                    rollout: true,
                    ..quiet.clone()
                },
                0x36cf_8433_4838_edab,
            ),
            (
                "poisoned-rollout",
                FleetChaosSchedule {
                    rollout: true,
                    poisoned: true,
                    ..quiet.clone()
                },
                0x4c0a_1753_a13e_393a,
            ),
            (
                "crash-torn",
                FleetChaosSchedule {
                    plan: FaultPlan::none(0x7EAD).with_torn_write(0.8),
                    // Consultation 6 is epoch 4's `EpochAdvance`; the
                    // first is the initial persist.
                    crashes: vec![(1, 6), (2, 6), (3, 6)],
                    torn_shard: Some(1),
                    ..quiet
                },
                0x4e6e_254f_a499_a4bb,
            ),
        ];
        for (name, schedule, serial_digest) in &schedules {
            let (one, one_cores) = run_on_workers(schedule, 1);
            assert_eq!(one.violations, Vec::<String>::new(), "{name}");
            let digest = (one_cores.iter()).fold(one.fleet_hash(), |h, (now, _)| mix64(h, *now));
            assert_eq!(digest, *serial_digest, "{name}: serial digest");
            let crash_epochs: Vec<u64> = (one.events.iter())
                .filter_map(|e| match e {
                    FleetEvent::ShardCrashed { epoch, .. } => Some(*epoch),
                    _ => None,
                })
                .collect();
            if schedule.crashes.is_empty() {
                assert_eq!(crash_epochs, Vec::<u64>::new(), "{name}");
            } else {
                assert_eq!(crash_epochs, vec![4; 3], "{name}: {:?}", one.events);
            }
            assert_eq!(one.steals > 0, schedule.rollout, "{name}: {:?}", one.events);
            // The fleet-level fields; the shards are compared one by one.
            let fleet = |rep: &FleetReport| {
                let mut rep = rep.clone();
                rep.shards.clear();
                format!("{rep:?}")
            };
            for workers in [2, 4] {
                let (many, many_cores) = run_on_workers(schedule, workers);
                let at = format!("{name} at {workers} workers");
                assert_eq!(one.fleet_hash(), many.fleet_hash(), "{at}");
                assert_eq!(fleet(&one), fleet(&many), "{at}");
                for (s, (a, b)) in one.shards.iter().zip(&many.shards).enumerate() {
                    assert_eq!(shard_print(a), shard_print(b), "{at}, shard {s}");
                }
                assert!(
                    one_cores == many_cores,
                    "{at}: core clocks or counters differ"
                );
            }
        }
    }

    /// A zipf fleet that refuses shard 2 its first primary context.
    struct PanicsOnShard2(ZipfFleet);

    impl FleetWorkload for PanicsOnShard2 {
        fn arrivals(&mut self, epoch: u64) -> Vec<Arrival> {
            self.0.arrivals(epoch)
        }
        fn primary_context(&mut self, shard: usize, job: u64) -> Context {
            assert_ne!(shard, 2, "shard 2 has no primary context for job {job}");
            self.0.primary_context(shard, job)
        }
        fn scavenger_context(
            &mut self,
            shard: usize,
            epoch: u64,
            job: u64,
            slot: usize,
        ) -> Context {
            self.0.scavenger_context(shard, epoch, job, slot)
        }
        fn profiling_contexts(&mut self, shard: usize, attempt: u32) -> Vec<Context> {
            self.0.profiling_contexts(shard, attempt)
        }
    }

    /// A panic inside a shard's step reaches the caller with its own
    /// payload, whichever thread stepped the shard: the one-worker
    /// loop's, and at 2 and 4 workers a spawned thread's. Joining with
    /// `expect("worker panicked")` instead of `resume_unwind` fails it.
    #[test]
    #[should_panic(expected = "shard 2 has no primary context for job 0")]
    fn a_shard_panic_keeps_its_payload_on_any_worker_count() {
        let run = |workers| {
            let (mut mc, svc, orig, initial) = fleet_world(4, 4, false);
            let opts = FleetOptions {
                shards: 4,
                epochs: 1,
                sup: fleet_sup(),
                ..FleetOptions::default()
            };
            let mut svc = PanicsOnShard2(svc);
            run_fleet_on(workers, &mut mc, &mut svc, &orig, initial, &opts)
        };
        // The checks' own messages must not match `expected`.
        let payload = |workers| {
            let payload = catch_unwind(AssertUnwindSafe(|| run(workers))).unwrap_err();
            payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default()
        };
        let one = payload(1);
        assert!(one.contains("job 0"), "1 worker: another panic");
        assert!(payload(2) == one, "2 workers: another payload");
        let _ = run(4);
    }
}
