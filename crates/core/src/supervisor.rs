//! The self-healing runtime supervisor: monitor → diagnose → re-profile
//! → hot-swap → verify, as a deterministic epoch loop.
//!
//! The §3 mechanism is not a one-shot build. Dual-mode execution keeps
//! hiding 10–100 ns stalls only while the deployed yield placement still
//! matches the workload; when traffic drifts, the shipped
//! instrumentation quietly decays into pure overhead. The build-time
//! half of resilience already exists ([`pgo_pipeline_degrading`] runs
//! once, before execution); this module closes the loop *while serving
//! work*:
//!
//! * **Monitor** — an [`OnlineStalenessEstimator`] fed from a
//!   permanently-armed in-situ L2-miss sampler (samples folded back to
//!   original PC space through the deployed build's origin map), a
//!   primary-latency SLO guard over a sliding window, and the watchdog's
//!   scavenger-overrun count.
//! * **Diagnose** — per-epoch trigger evaluation: staleness distance
//!   over threshold, SLO p99 violated, overrun trend tripped, admission
//!   queue overflowing.
//! * **Repair** — re-profile + re-instrument through the existing
//!   degradation ladder, then **hot-swap between epochs**: jobs already
//!   served this epoch finished on the old build, the next epoch's
//!   admissions start on the new one. A swap-time [`lint_gate`] re-checks
//!   the rebuilt binary, and the symbolic equivalence checker
//!   ([`verify_gate`]) re-proves it equivalent to the original (the
//!   build may have been produced concurrently with serving; the gates
//!   are the last line before deployment).
//! * **Contain** — when repair itself keeps failing, a circuit breaker
//!   with SplitMix64-jittered exponential backoff stops hammering the
//!   profiler and finally *opens*: it deploys the best rung the ladder
//!   can still reach ([`Rung::ScavengerOnly`] or
//!   [`Rung::Uninstrumented`]) and gives up on full PGO for the rest of
//!   the run. Overload is contained separately: a bounded admission
//!   queue sheds excess arrivals, SLO violations halve the scavenger
//!   pool (down to a floor), and a clean probation streak restores it
//!   one scavenger at a time.
//!
//! Every transition is recorded as an [`Incident`] — trigger, evidence
//! metrics, action, outcome — and the whole log serializes to canonical
//! JSON ([`incidents_json`]) with an FNV-1a digest for byte-identity
//! gating. The loop touches no wall clock and draws
//! randomness only from a seeded [`SplitMix64`], so a replay with the
//! same seed, fault plan, and drift schedule reproduces the log
//! bit-for-bit.
//!
//! The loop runs per shard under [`run_fleet`](crate::fleet::run_fleet),
//! always journaled; a single supervisor is the one-shard fleet.

use crate::degrade::{
    pgo_pipeline_degrading, scavenger_only_build, DegradeOptions, DegradedBuild, Rung,
};
use crate::dualmode::{run_dual_mode, DualModeOptions};
use crate::fleet::FleetWorkload;
use crate::journal::{fnv1a, project, Journal, JournalRecord};
use crate::metrics::percentile;
use crate::pipeline::{lint_gate, verify_gate};
use reach_profile::{Json, OnlineEstimatorOptions, OnlineStalenessEstimator, Profile};
use reach_sim::{Context, FaultInjector, HwEvent, Machine, PebsConfig, Program, SplitMix64};
use std::collections::VecDeque;

/// The binary currently serving traffic, with the metadata the
/// supervisor needs to judge and replace it.
#[derive(Clone, Debug)]
pub struct DeployedBuild {
    /// The (possibly instrumented) program being executed.
    pub prog: Program,
    /// `origin[pc]` = PC in the original program (`None` for inserted
    /// instructions) — how in-situ samples fold back to the profile's PC
    /// space.
    pub origin: Vec<Option<usize>>,
    /// The ladder rung this build represents.
    pub rung: Rung,
    /// The profile the build was made from ([`Rung::FullPgo`] only);
    /// the staleness reference.
    pub profile: Option<Profile>,
}

impl From<DegradedBuild> for DeployedBuild {
    fn from(b: DegradedBuild) -> Self {
        DeployedBuild {
            prog: b.prog,
            origin: b.origin,
            rung: b.rung,
            profile: b.profile,
        }
    }
}

/// The trust gate: may `build` serve as an instrumentation of
/// `original`? An uninstrumented build must *be* the original; anything
/// else must pass the lint gate and (when enabled) the
/// symbolic-equivalence gate. Every door but the rebuild path asks this
/// one function (`attempt_rebuild` runs the two gates itself: a crash
/// point sits between them and its incident names the gate that
/// refused), and it derives the answer from the bytes alone — which is
/// why the fleet can call it after every recovery, and the chaos engine
/// on every initial build, without believing anything recovery or a
/// swap concluded.
pub(crate) fn build_is_trusted(
    original: &Program,
    build: &DeployedBuild,
    opts: &SupervisorOptions,
) -> bool {
    let pipeline = &opts.degrade.pipeline;
    match build.rung {
        Rung::Uninstrumented => build.prog.fingerprint() == original.fingerprint(),
        Rung::FullPgo | Rung::ScavengerOnly => {
            lint_gate(&build.prog, &build.origin, &pipeline.lint).is_ok()
                && (!pipeline.verify
                    || verify_gate(original, &build.prog, &build.origin, &pipeline.lint).is_ok())
        }
    }
}

/// Per-shard configuration of the supervised loop
/// [`run_fleet`](crate::fleet::run_fleet) runs. Swaps happen only on
/// epoch boundaries.
#[derive(Clone, Debug)]
pub struct SupervisorOptions {
    /// Jobs served per epoch (the service rate).
    pub service_per_epoch: usize,
    /// Admission-queue bound (supervised only): arrivals beyond this
    /// backlog are shed and recorded. Unsupervised runs queue unboundedly.
    pub queue_bound: usize,
    /// Scavenger-pool size per job (the healthy budget).
    pub scavengers: usize,
    /// Shedding floor: SLO shedding never reduces the pool below this.
    pub min_scavengers: usize,
    /// Primary-latency SLO: p99 over the sliding window above this trips
    /// the shedder. `u64::MAX` disables the guard.
    pub slo_p99_cycles: u64,
    /// Sliding-window length (jobs) for the SLO p99; the guard stays
    /// quiet until the window is full.
    pub slo_window: usize,
    /// Staleness distance (total variation, 0–1) at which the deployed
    /// profile is declared stale and a rebuild triggers.
    pub staleness_threshold: f64,
    /// Online estimator window/warm-up configuration.
    pub estimator: OnlineEstimatorOptions,
    /// Sampling period of the permanently-armed in-situ L2-miss sampler.
    pub insitu_period: u64,
    /// Watchdog overruns in a single epoch at which a rebuild triggers
    /// (the overrun-trend guard). `u64::MAX` disables it.
    pub overrun_trip: u64,
    /// Clean epochs (no SLO violation, no overruns) required before one
    /// shed scavenger is restored to the pool.
    pub probation_epochs: u64,
    /// Base backoff delay (epochs) after a failed rebuild; doubles per
    /// consecutive failure.
    pub backoff_base_epochs: u64,
    /// Backoff delay cap (epochs), before jitter.
    pub backoff_max_epochs: u64,
    /// Consecutive rebuild failures at which the circuit breaker opens
    /// and the supervisor deploys the best degraded rung instead.
    pub max_rebuild_failures: u32,
    /// Epochs after a swap during which rebuild triggers are suppressed
    /// (the estimator needs time to re-warm against the new reference).
    pub cooldown_epochs: u64,
    /// Rebuild-engine configuration (ladder, validation, fault hooks).
    pub degrade: DegradeOptions,
    /// Dual-mode execution options for serving jobs.
    pub dual: DualModeOptions,
    /// `false` = passive baseline: same serving loop and the same
    /// estimator bookkeeping, but no triggers, no swaps, no shedding,
    /// unbounded queue. The experiment's "unsupervised" arm.
    pub supervise: bool,
    /// Fault-injection hook: applied to every rebuilt [`Rung::FullPgo`]
    /// binary *before* the swap-time lint gate, so tests can exercise
    /// the gate rejecting a corrupted rebuild.
    pub build_mutator: Option<fn(&mut Program)>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            service_per_epoch: 2,
            queue_bound: 8,
            scavengers: 4,
            min_scavengers: 0,
            slo_p99_cycles: u64::MAX,
            slo_window: 8,
            staleness_threshold: 0.5,
            estimator: OnlineEstimatorOptions::default(),
            insitu_period: 127,
            overrun_trip: u64::MAX,
            probation_epochs: 2,
            backoff_base_epochs: 1,
            backoff_max_epochs: 8,
            max_rebuild_failures: 3,
            cooldown_epochs: 2,
            degrade: DegradeOptions::default(),
            dual: DualModeOptions {
                drain_scavengers: false,
                isolate_faults: true,
                ..DualModeOptions::default()
            },
            supervise: true,
            build_mutator: None,
        }
    }
}

/// What tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Online staleness distance crossed the threshold.
    Staleness,
    /// Sliding-window primary p99 exceeded the SLO.
    SloViolation,
    /// Watchdog overruns in one epoch crossed the trip level.
    OverrunTrend,
    /// Admission backlog exceeded the queue bound.
    QueueOverflow,
    /// A clean probation streak completed.
    ProbationElapsed,
    /// The process restarted after a crash and [`recover`] ran.
    CrashRecovery,
    /// A fleet-level rolling re-instrumentation deploy reached this
    /// shard (the build was pushed by the fleet supervisor, not pulled
    /// by a local trigger).
    Rollout,
}

impl Trigger {
    fn as_str(self) -> &'static str {
        match self {
            Trigger::Staleness => "staleness",
            Trigger::SloViolation => "slo-violation",
            Trigger::OverrunTrend => "overrun-trend",
            Trigger::QueueOverflow => "queue-overflow",
            Trigger::ProbationElapsed => "probation-elapsed",
            Trigger::CrashRecovery => "crash-recovery",
            Trigger::Rollout => "rollout",
        }
    }
}

/// A degenerate [`SupervisorOptions`] configuration, rejected at
/// [`run_fleet`](crate::fleet::run_fleet)/[`recover`] entry instead of
/// producing silently odd behavior mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SupervisorConfigError {
    /// `max_rebuild_failures == 0`: the breaker would open on the first
    /// trigger without ever attempting a rebuild.
    ZeroMaxRebuildFailures,
    /// `slo_window == 0` while the SLO guard is armed: a zero-width p99
    /// window would trip on every served job.
    ZeroSloWindow,
    /// `estimator.window == 0`: a zero-width staleness window can never
    /// retain a sample, so the estimator would be permanently blind.
    ZeroEstimatorWindow,
    /// `min_scavengers > scavengers`: the shedding floor exceeds the
    /// pool, so the first shed would *grow* the pool.
    MinScavengersAbovePool,
}

impl std::fmt::Display for SupervisorConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisorConfigError::ZeroMaxRebuildFailures => {
                write!(f, "max_rebuild_failures must be >= 1")
            }
            SupervisorConfigError::ZeroSloWindow => {
                write!(f, "slo_window must be >= 1 while the SLO guard is armed")
            }
            SupervisorConfigError::ZeroEstimatorWindow => {
                write!(f, "estimator.window must be >= 1")
            }
            SupervisorConfigError::MinScavengersAbovePool => {
                write!(f, "min_scavengers must not exceed scavengers")
            }
        }
    }
}

impl std::error::Error for SupervisorConfigError {}

/// Rejects degenerate configurations (see [`SupervisorConfigError`]).
pub(crate) fn validate_options(opts: &SupervisorOptions) -> Result<(), SupervisorConfigError> {
    if opts.max_rebuild_failures == 0 {
        return Err(SupervisorConfigError::ZeroMaxRebuildFailures);
    }
    if opts.slo_p99_cycles != u64::MAX && opts.slo_window == 0 {
        return Err(SupervisorConfigError::ZeroSloWindow);
    }
    if opts.estimator.window == 0 {
        return Err(SupervisorConfigError::ZeroEstimatorWindow);
    }
    if opts.min_scavengers > opts.scavengers {
        return Err(SupervisorConfigError::MinScavengersAbovePool);
    }
    Ok(())
}

/// What the supervisor did about it.
#[derive(Clone, Debug, PartialEq)]
pub enum Action {
    /// Hot-swapped a rebuilt binary in at the epoch boundary.
    Swap {
        /// Rung of the deployed rebuild.
        rung: Rung,
    },
    /// Rebuild failed; backing off before the next attempt.
    Backoff {
        /// Consecutive failures so far.
        failures: u32,
        /// First epoch at which a rebuild may be attempted again.
        until_epoch: u64,
    },
    /// Breaker opened: rebuilds abandoned, degraded rung deployed.
    BreakerOpen {
        /// Rung of the fallback deployment.
        rung: Rung,
    },
    /// Scavenger pool halved in response to an SLO violation.
    ShedScavengers {
        /// Pool size before.
        from: usize,
        /// Pool size after.
        to: usize,
    },
    /// One shed scavenger restored after a clean probation streak.
    RestoreScavenger {
        /// Pool size after restoration.
        to: usize,
    },
    /// Excess arrivals dropped at admission.
    ShedAdmissions {
        /// Jobs dropped this epoch.
        dropped: u64,
    },
    /// Crash recovery replayed the journal and re-validated the
    /// recovered build; it serves again on its recorded rung.
    Recovered {
        /// Rung of the recovered deployment.
        rung: Rung,
        /// Journal records replayed.
        replayed: u64,
        /// True when a torn tail was detected and truncated.
        truncated: bool,
    },
    /// Crash recovery could not trust the recorded deployment (artifact
    /// missing, or it failed the recovery-time lint/verify gates) and
    /// fell down the degradation ladder instead.
    RecoveryDegraded {
        /// Rung of the fallback deployment.
        rung: Rung,
    },
}

impl Action {
    fn to_json(&self) -> Json {
        let kv = |k: &str, v: Json| (k.to_string(), v);
        let fields = match self {
            Action::Swap { rung } => vec![
                kv("kind", Json::Str("swap".into())),
                kv("rung", Json::Str(rung.to_string())),
            ],
            Action::Backoff {
                failures,
                until_epoch,
            } => vec![
                kv("kind", Json::Str("backoff".into())),
                kv("failures", Json::UInt(u64::from(*failures))),
                kv("until_epoch", Json::UInt(*until_epoch)),
            ],
            Action::BreakerOpen { rung } => vec![
                kv("kind", Json::Str("breaker-open".into())),
                kv("rung", Json::Str(rung.to_string())),
            ],
            Action::ShedScavengers { from, to } => vec![
                kv("kind", Json::Str("shed-scavengers".into())),
                kv("from", Json::UInt(*from as u64)),
                kv("to", Json::UInt(*to as u64)),
            ],
            Action::RestoreScavenger { to } => vec![
                kv("kind", Json::Str("restore-scavenger".into())),
                kv("to", Json::UInt(*to as u64)),
            ],
            Action::ShedAdmissions { dropped } => vec![
                kv("kind", Json::Str("shed-admissions".into())),
                kv("dropped", Json::UInt(*dropped)),
            ],
            Action::Recovered {
                rung,
                replayed,
                truncated,
            } => vec![
                kv("kind", Json::Str("recovered".into())),
                kv("rung", Json::Str(rung.to_string())),
                kv("replayed", Json::UInt(*replayed)),
                kv("truncated", Json::UInt(u64::from(*truncated))),
            ],
            Action::RecoveryDegraded { rung } => vec![
                kv("kind", Json::Str("recovery-degraded".into())),
                kv("rung", Json::Str(rung.to_string())),
            ],
        };
        Json::Object(fields)
    }
}

/// How it ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// A binary was (re)deployed on the stated rung.
    Deployed {
        /// The deployed rung.
        rung: Rung,
    },
    /// The rebuild was rejected; nothing was deployed.
    RebuildFailed {
        /// Human-readable rejection reason (ladder rung or lint).
        reason: String,
    },
    /// The condition was contained without touching the deployment
    /// (shedding, restoration).
    Contained,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let kv = |k: &str, v: Json| (k.to_string(), v);
        let fields = match self {
            Outcome::Deployed { rung } => vec![
                kv("kind", Json::Str("deployed".into())),
                kv("rung", Json::Str(rung.to_string())),
            ],
            Outcome::RebuildFailed { reason } => vec![
                kv("kind", Json::Str("rebuild-failed".into())),
                kv("reason", Json::Str(reason.clone())),
            ],
            Outcome::Contained => vec![kv("kind", Json::Str("contained".into()))],
        };
        Json::Object(fields)
    }
}

/// One numeric evidence value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ev {
    /// An exact counter.
    U(u64),
    /// A derived metric.
    F(f64),
}

/// One structured incident-log entry: what tripped, the numbers that
/// prove it, what was done, and how it ended.
#[derive(Clone, Debug, PartialEq)]
pub struct Incident {
    /// Epoch at which the transition happened.
    pub epoch: u64,
    /// The tripped trigger.
    pub trigger: Trigger,
    /// Named evidence metrics, in a fixed order.
    pub evidence: Vec<(&'static str, Ev)>,
    /// The supervisor's response.
    pub action: Action,
    /// The result of that response.
    pub outcome: Outcome,
}

impl Incident {
    /// Canonical JSON form (field order fixed, floats shortest
    /// round-trip) — the unit of the replay-determinism contract.
    pub fn to_json(&self) -> Json {
        let ev = self
            .evidence
            .iter()
            .map(|(k, v)| {
                let j = match v {
                    Ev::U(n) => Json::UInt(*n),
                    Ev::F(x) => Json::Float(*x),
                };
                ((*k).to_string(), j)
            })
            .collect();
        Json::Object(vec![
            ("epoch".to_string(), Json::UInt(self.epoch)),
            (
                "trigger".to_string(),
                Json::Str(self.trigger.as_str().into()),
            ),
            ("evidence".to_string(), Json::Object(ev)),
            ("action".to_string(), self.action.to_json()),
            ("outcome".to_string(), self.outcome.to_json()),
        ])
    }
}

/// Circuit-breaker state at the end of the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Rebuilds allowed.
    Closed,
    /// Rebuilds suppressed until the stated epoch (half-open after).
    Backoff {
        /// First epoch at which a rebuild may be retried.
        until_epoch: u64,
    },
    /// Rebuilds abandoned for the rest of the run.
    Open,
}

/// What one loop segment — from a fresh start or a resume to a crash or
/// the end of the run — did and measured. The fleet folds every segment
/// of a shard into its [`ShardSummary`](crate::fleet::ShardSummary).
#[derive(Clone, Debug)]
pub(crate) struct SupervisorReport {
    /// The segment's incident log, in order.
    pub incidents: Vec<Incident>,
    /// `(epoch, primary latency in cycles)` per served job, in service
    /// order.
    pub latencies: Vec<(u64, u64)>,
    /// Jobs served to completion.
    pub served: u64,
    /// Jobs dropped at admission (supervised overload shedding).
    pub shed_jobs: u64,
    /// Jobs whose primary faulted under trap isolation.
    pub job_faults: u64,
    /// Successful hot swaps (including a breaker-open fallback
    /// deployment).
    pub swaps: u64,
    /// Rebuild attempts (ladder invocations).
    pub rebuilds: u64,
    /// Consecutive rebuild failures at the end of the segment.
    pub rebuild_failures: u32,
    /// Rung of the binary serving traffic when the segment ended.
    pub final_rung: Rung,
    /// Circuit-breaker state when the segment ended.
    pub breaker: BreakerState,
    /// Highest finite staleness estimate observed.
    pub staleness_peak: f64,
    /// Last finite staleness estimate observed.
    pub staleness_last: f64,
    /// Watchdog overruns across all served jobs.
    pub overruns: u64,
    /// Watchdog quarantine events across all served jobs.
    pub quarantine_events: u64,
    /// Watchdog probation re-admissions across all served jobs.
    pub readmissions: u64,
    /// Scavenger-pool budget at the end of the segment.
    pub scav_budget_final: usize,
}

/// p99 primary latency over the jobs of `latencies` served at `epoch`
/// or later (0 when none were).
pub(crate) fn p99_after(latencies: &[(u64, u64)], epoch: u64) -> u64 {
    let v: Vec<u64> = latencies
        .iter()
        .filter(|(e, _)| *e >= epoch)
        .map(|(_, l)| *l)
        .collect();
    percentile(&v, 0.99)
}

/// Canonical JSON text of any incident sequence — also usable on a log
/// *concatenated across crash segments and recoveries*, which is how a
/// fleet shard extends the replay-determinism contract across restarts.
pub fn incidents_json(incidents: &[Incident]) -> String {
    Json::Array(incidents.iter().map(Incident::to_json).collect()).to_string()
}

/// FNV-1a digest of [`incidents_json`].
pub fn incidents_hash(incidents: &[Incident]) -> u64 {
    fnv1a(incidents_json(incidents).as_bytes())
}

/// The SplitMix64 finaliser over `(seed, k)`: how a fleet or campaign
/// seed derives shard `k`'s or segment `k`'s, and the order-sensitive
/// fold of one more log digest `k` into a running batch hash.
pub fn mix64(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How one rebuild attempt resolved.
enum Rebuild {
    /// A lint-clean full-PGO binary ready to deploy.
    Swapped(Box<DeployedBuild>),
    Failed {
        reason: String,
        /// The ladder's own degraded output when it did not reach
        /// [`Rung::FullPgo`] — the breaker deploys this on open. `None`
        /// when the full-PGO build existed but failed the swap-time
        /// gate (it cannot be trusted; the breaker falls back to a
        /// fresh scavenger-only build of the original).
        fallback: Option<Box<DeployedBuild>>,
    },
    /// The crash channel fired between the lint and verify gates.
    Crashed,
}

/// Where in the supervisor loop a crash landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Inside a journal append: at most a torn prefix of the record
    /// reached the durable image.
    MidJournalAppend,
    /// After a rebuild trigger accepted, before/while the ladder ran.
    MidRebuild,
    /// Inside a rebuild attempt, between the swap-time lint gate and
    /// the symbolic-equivalence verify gate.
    BetweenGates,
    /// After the deploy record went durable, before the in-memory swap.
    MidSwap,
}

impl CrashPoint {
    /// Stable label, used in repro output.
    pub fn as_str(self) -> &'static str {
        match self {
            CrashPoint::MidJournalAppend => "mid-journal-append",
            CrashPoint::MidRebuild => "mid-rebuild",
            CrashPoint::BetweenGates => "between-gates",
            CrashPoint::MidSwap => "mid-swap",
        }
    }
}

impl std::fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

const CP_MID_APPEND: u64 = 1;
const CP_MID_REBUILD: u64 = 2;
const CP_BETWEEN_GATES: u64 = 3;
const CP_MID_SWAP: u64 = 4;

/// The durable state [`recover`] hands back for the restarted loop to
/// resume from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumeState {
    /// First epoch the restarted loop serves.
    pub epoch: u64,
    /// Next global job number to admit.
    pub next_job: u64,
    /// Breaker state as of the last durable transition.
    pub breaker: BreakerState,
    /// Consecutive rebuild failures at that transition.
    pub failures: u32,
    /// Scavenger budget as of the last durable change. The clean
    /// probation streak deliberately restarts at zero: a shed pool must
    /// serve its probation *after* the restart, never be silently
    /// re-admitted by recovery.
    pub scav_budget: usize,
}

/// Write-ahead append: consults the crash channel *inside* the append,
/// so a firing crash leaves at most a torn prefix of this record.
fn jappend(
    faults: &mut Option<FaultInjector>,
    journal: &mut Journal,
    rec: JournalRecord,
) -> Result<(), CrashPoint> {
    if faults
        .as_mut()
        .is_some_and(|f| f.crash_point(CP_MID_APPEND))
    {
        journal.crash_during_append(&rec, faults.as_mut());
        return Err(CrashPoint::MidJournalAppend);
    }
    journal.append(&rec, faults.as_mut());
    Ok(())
}

/// The durable half of a deployment: the artifact atomically, then the
/// write-ahead `Deploy` record that points at it — never the reverse, so
/// the journal cannot name a binary the store does not hold.
fn journal_deploy(
    faults: &mut Option<FaultInjector>,
    journal: &mut Journal,
    build: &DeployedBuild,
    epoch: u64,
) -> Result<(), CrashPoint> {
    let fingerprint = build.prog.fingerprint();
    journal.store_build(fingerprint, build.clone());
    jappend(
        faults,
        journal,
        JournalRecord::Deploy {
            epoch,
            rung: build.rung,
            fingerprint,
        },
    )
}

/// Consults the crash channel at a non-append loop stage and, when it
/// fires, applies crash semantics to the store.
fn crash_gate(
    machine: &mut Machine,
    journal: &mut Journal,
    code: u64,
    point: CrashPoint,
) -> Result<(), CrashPoint> {
    if machine.faults.as_mut().is_some_and(|f| f.crash_point(code)) {
        journal.crash(machine.faults.as_mut());
        return Err(point);
    }
    Ok(())
}

/// The supervisor's per-epoch state machine. The fleet steps one
/// instance per shard on that shard's core under one fleet clock and
/// adds routing, rollouts and work-stealing on top; admission is the
/// fleet router's, so a loop serves the jobs it is granted.
///
/// An `Err(CrashPoint)` from any stepping method means the injected
/// crash channel fired: the process is dead, the journal has already
/// been given its crash semantics, and the caller must stop stepping and
/// go through [`recover`].
pub(crate) struct EpochLoop {
    /// The shard this loop serves: which workload streams it draws.
    shard: usize,
    cur: DeployedBuild,
    estimator: OnlineStalenessEstimator,
    rng: SplitMix64,
    report: SupervisorReport,
    pending: VecDeque<u64>,
    window: VecDeque<u64>,
    // Volatile loop state; durable pieces come back through `resume`.
    // The clean-probation streak is *always* fresh: recovery never
    // credits pre-crash clean epochs toward re-admission.
    next_job: u64,
    scav_budget: usize,
    clean_streak: u64,
    failures: u32,
    breaker: BreakerState,
    last_swap: Option<u64>,
    opts: SupervisorOptions,
    /// Extra scavenger slots donated by the fleet's work-stealing (idle
    /// capacity from drained/down shards). Volatile and never journaled:
    /// a restart resets it.
    scav_bonus: usize,
}

impl EpochLoop {
    /// A loop for `shard` serving `initial`, drawing its backoff jitter
    /// from `seed`; `resume` comes from [`recover`] after a crash.
    pub(crate) fn new(
        shard: usize,
        initial: DeployedBuild,
        opts: &SupervisorOptions,
        seed: u64,
        resume: Option<ResumeState>,
    ) -> Self {
        let scav_budget = resume.map_or(opts.scavengers, |r| r.scav_budget);
        let report = SupervisorReport {
            incidents: Vec::new(),
            latencies: Vec::new(),
            served: 0,
            shed_jobs: 0,
            job_faults: 0,
            swaps: 0,
            rebuilds: 0,
            rebuild_failures: 0,
            final_rung: initial.rung,
            breaker: BreakerState::Closed,
            staleness_peak: f64::NAN,
            staleness_last: f64::NAN,
            overruns: 0,
            quarantine_events: 0,
            readmissions: 0,
            scav_budget_final: scav_budget,
        };
        EpochLoop {
            shard,
            cur: initial,
            estimator: OnlineStalenessEstimator::new(opts.estimator),
            rng: SplitMix64::new(seed ^ 0x5e1f_4ea1),
            report,
            pending: VecDeque::new(),
            window: VecDeque::new(),
            next_job: resume.map_or(0, |r| r.next_job),
            scav_budget,
            clean_streak: 0,
            failures: resume.map_or(0, |r| r.failures),
            breaker: resume.map_or(BreakerState::Closed, |r| r.breaker),
            last_swap: None,
            opts: opts.clone(),
            scav_bonus: 0,
        }
    }

    /// The build currently serving traffic.
    pub(crate) fn deployed(&self) -> &DeployedBuild {
        &self.cur
    }

    /// Current circuit-breaker state.
    pub(crate) fn breaker(&self) -> BreakerState {
        self.breaker
    }

    /// Jobs admitted but not yet served.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Next global job number this loop would admit.
    pub(crate) fn next_job(&self) -> u64 {
        self.next_job
    }

    /// Current (possibly shed) scavenger budget, excluding any bonus.
    pub(crate) fn scav_budget(&self) -> usize {
        self.scav_budget
    }

    /// The in-flight report (counters are live; the sealed fields —
    /// final rung, breaker, failures — are only valid after [`seal`]).
    pub(crate) fn report(&self) -> &SupervisorReport {
        &self.report
    }

    /// Sets the work-stealing bonus applied to the next epoch's
    /// scavenger pool.
    pub(crate) fn set_scav_bonus(&mut self, bonus: usize) {
        self.scav_bonus = bonus;
    }

    /// Persists the initial deployment at epoch 0 — fresh loops only.
    pub(crate) fn persist_initial(
        &mut self,
        machine: &mut Machine,
        journal: &mut Journal,
    ) -> Result<(), CrashPoint> {
        journal_deploy(&mut machine.faults, journal, &self.cur, 0)
    }

    /// The deploy transition, the only way a running loop changes the
    /// build it serves. Write-ahead, in this order: artifact and `Deploy`
    /// record; the mid-swap crash point; the in-memory swap, which drops
    /// the superblock cache (it is keyed by program identity, not
    /// content, so blocks compiled from the retired build must not
    /// survive a code-map change); the `Breaker` record carrying the
    /// breaker state and failure count the caller decided the loop is
    /// left in; then the estimator and SLO window restart against the new
    /// reference and `incident` (whose epoch is the deployment's) is
    /// logged. Crash instants are numbered by consultation, so the order
    /// is part of the replay contract. A crash between the two records
    /// leaves the old breaker durable under the new build, which is why
    /// [`project`] reads a full-PGO `Deploy` as closing the breaker.
    fn deploy(
        &mut self,
        machine: &mut Machine,
        journal: &mut Journal,
        build: DeployedBuild,
        breaker: BreakerState,
        failures: u32,
        incident: Incident,
    ) -> Result<(), CrashPoint> {
        let epoch = incident.epoch;
        journal_deploy(&mut machine.faults, journal, &build, epoch)?;
        crash_gate(machine, journal, CP_MID_SWAP, CrashPoint::MidSwap)?;
        self.cur = build;
        machine.invalidate_blocks();
        self.failures = failures;
        self.breaker = breaker;
        jappend(
            &mut machine.faults,
            journal,
            JournalRecord::Breaker {
                epoch,
                state: breaker,
                failures,
            },
        )?;
        self.last_swap = Some(epoch);
        self.report.swaps += 1;
        self.estimator.reset();
        self.window.clear();
        self.report.incidents.push(incident);
        Ok(())
    }

    /// Deploys a fleet-pushed build at this epoch boundary. The breaker
    /// closes — a successful rollout is fresh evidence the build
    /// pipeline works.
    pub(crate) fn deploy_rollout(
        &mut self,
        machine: &mut Machine,
        journal: &mut Journal,
        build: DeployedBuild,
        epoch: u64,
    ) -> Result<(), CrashPoint> {
        let rung = build.rung;
        let incident = Incident {
            epoch,
            trigger: Trigger::Rollout,
            evidence: vec![("epoch", Ev::U(epoch))],
            action: Action::Swap { rung },
            outcome: Outcome::Deployed { rung },
        };
        self.deploy(machine, journal, build, BreakerState::Closed, 0, incident)
    }

    /// Seals the final-state fields into the report and returns it.
    pub(crate) fn seal(mut self) -> SupervisorReport {
        self.report.final_rung = self.cur.rung;
        self.report.breaker = self.breaker;
        self.report.rebuild_failures = self.failures;
        self.report.scav_budget_final = self.scav_budget;
        self.report
    }

    /// Serves one epoch: admission of the `admitted` jobs the router
    /// granted, and shedding → dual-mode batch with the in-situ sampler
    /// armed → staleness diagnosis → rebuild / backoff / breaker → SLO
    /// shedding and probation.
    pub(crate) fn step_epoch(
        &mut self,
        machine: &mut Machine,
        workload: &mut dyn FleetWorkload,
        admitted: usize,
        original: &Program,
        journal: &mut Journal,
        epoch: u64,
    ) -> Result<(), CrashPoint> {
        jappend(
            &mut machine.faults,
            journal,
            JournalRecord::EpochAdvance {
                epoch,
                next_job: self.next_job,
            },
        )?;
        // --- Admission: arrivals enqueue; supervised runs shed the
        // backlog beyond the queue bound (newest first — they would wait
        // longest anyway).
        for _ in 0..admitted {
            self.pending.push_back(self.next_job);
            self.next_job += 1;
        }
        if self.opts.supervise && self.pending.len() > self.opts.queue_bound {
            let dropped = (self.pending.len() - self.opts.queue_bound) as u64;
            self.pending.truncate(self.opts.queue_bound);
            self.report.shed_jobs += dropped;
            self.report.incidents.push(Incident {
                epoch,
                trigger: Trigger::QueueOverflow,
                evidence: vec![
                    ("queue_len", Ev::U(self.opts.queue_bound as u64 + dropped)),
                    ("queue_bound", Ev::U(self.opts.queue_bound as u64)),
                ],
                action: Action::ShedAdmissions { dropped },
                outcome: Outcome::Contained,
            });
        }

        // --- Serve this epoch's batch with the in-situ sampler armed.
        // Both policies feed the estimator identically; only the
        // *actions* differ, so the experiment compares decisions, not
        // measurement quality.
        let shard = self.shard;
        let scav_override = workload.scavenger_program(shard, epoch);
        let batch = self.pending.len().min(self.opts.service_per_epoch);
        let samplers_before = machine.samplers.len();
        let sampler = machine.add_sampler(PebsConfig {
            event: HwEvent::LoadL2Miss,
            period: self.opts.insitu_period.max(1),
            skid: 0,
            buffer_capacity: 65_536,
        });
        let mut epoch_overruns: u64 = 0;
        for _ in 0..batch {
            let job = self.pending.pop_front().expect("batch <= pending");
            let mut primary = workload.primary_context(shard, job);
            let mut scavs: Vec<Context> = (0..self.scav_budget + self.scav_bonus)
                .map(|slot| workload.scavenger_context(shard, epoch, job, slot))
                .collect();
            let scav_prog = scav_override.as_ref().unwrap_or(&self.cur.prog);
            match run_dual_mode(
                machine,
                &self.cur.prog,
                &mut primary,
                scav_prog,
                &mut scavs,
                &self.opts.dual,
            ) {
                Ok(r) => {
                    self.report.served += 1;
                    self.report.overruns += r.overruns;
                    self.report.quarantine_events += r.quarantined.len() as u64;
                    self.report.readmissions += r.readmitted;
                    epoch_overruns += r.overruns;
                    if let Some(lat) = r.primary_latency {
                        self.report.latencies.push((epoch, lat));
                        self.window.push_back(lat);
                        while self.window.len() > self.opts.slo_window {
                            self.window.pop_front();
                        }
                    } else {
                        self.report.job_faults += 1;
                    }
                }
                Err(_) => self.report.job_faults += 1,
            }
        }
        if let Some(p) = &scav_override {
            // The override dies with this epoch; the next one may be
            // allocated where it lived.
            machine.block_cache.forget(p);
        }
        let samples = machine.take_samples(sampler);
        machine.samplers.truncate(samplers_before);
        for s in &samples {
            if let Some(&Some(opc)) = self.cur.origin.get(s.pc) {
                self.estimator.observe(opc);
            }
        }

        // --- Diagnose.
        let staleness = match &self.cur.profile {
            Some(p) => self.estimator.staleness_vs(p),
            None => f64::NAN,
        };
        if staleness.is_finite() {
            self.report.staleness_last = staleness;
            if self.report.staleness_peak.is_nan() || staleness > self.report.staleness_peak {
                self.report.staleness_peak = staleness;
            }
        }
        if !self.opts.supervise {
            return Ok(());
        }

        let window_p99 = if self.window.len() >= self.opts.slo_window.max(1) {
            let v: Vec<u64> = self.window.iter().copied().collect();
            Some(percentile(&v, 0.99))
        } else {
            None
        };
        let slo_violated = window_p99.is_some_and(|p| p > self.opts.slo_p99_cycles);

        // Rebuild triggers (staleness first: repairing the build beats
        // shedding capacity when both fire).
        let stale_trip = staleness.is_finite() && staleness >= self.opts.staleness_threshold;
        let overrun_trip = epoch_overruns >= self.opts.overrun_trip;
        let rebuild_allowed = match self.breaker {
            BreakerState::Open => false,
            BreakerState::Backoff { until_epoch } => epoch >= until_epoch,
            BreakerState::Closed => true,
        } && self
            .last_swap
            .is_none_or(|s| epoch.saturating_sub(s) >= self.opts.cooldown_epochs);
        if rebuild_allowed && (stale_trip || overrun_trip) {
            let trigger = if stale_trip {
                Trigger::Staleness
            } else {
                Trigger::OverrunTrend
            };
            let evidence = vec![
                ("staleness", Ev::F(staleness)),
                ("epoch_overruns", Ev::U(epoch_overruns)),
                ("retained_samples", Ev::U(self.estimator.retained())),
            ];
            self.report.rebuilds += 1;
            crash_gate(machine, journal, CP_MID_REBUILD, CrashPoint::MidRebuild)?;
            match attempt_rebuild(machine, workload, shard, original, &self.opts) {
                Rebuild::Crashed => {
                    journal.crash(machine.faults.as_mut());
                    return Err(CrashPoint::BetweenGates);
                }
                Rebuild::Swapped(b) => {
                    let rung = b.rung;
                    let incident = Incident {
                        epoch,
                        trigger,
                        evidence,
                        action: Action::Swap { rung },
                        outcome: Outcome::Deployed { rung },
                    };
                    // A rebuild that passed both gates is the evidence
                    // that closes the breaker.
                    self.deploy(machine, journal, *b, BreakerState::Closed, 0, incident)?;
                }
                Rebuild::Failed { reason, fallback } => {
                    self.failures += 1;
                    if self.failures >= self.opts.max_rebuild_failures {
                        let fb = fallback
                            .map(|b| *b)
                            .unwrap_or_else(|| fallback_build(original, machine, &self.opts));
                        let rung = fb.rung;
                        let incident = Incident {
                            epoch,
                            trigger,
                            evidence,
                            action: Action::BreakerOpen { rung },
                            outcome: Outcome::Deployed { rung },
                        };
                        // The breaker opens over the degraded build and
                        // the failure count stands.
                        let failures = self.failures;
                        self.deploy(machine, journal, fb, BreakerState::Open, failures, incident)?;
                    } else {
                        let shift = (self.failures - 1).min(31);
                        let delay = self
                            .opts
                            .backoff_base_epochs
                            .saturating_mul(1u64 << shift)
                            .min(self.opts.backoff_max_epochs);
                        let jitter = self.rng.next_below(self.opts.backoff_base_epochs + 1);
                        let until_epoch = epoch + 1 + delay + jitter;
                        self.breaker = BreakerState::Backoff { until_epoch };
                        jappend(
                            &mut machine.faults,
                            journal,
                            JournalRecord::Breaker {
                                epoch,
                                state: self.breaker,
                                failures: self.failures,
                            },
                        )?;
                        self.report.incidents.push(Incident {
                            epoch,
                            trigger,
                            evidence,
                            action: Action::Backoff {
                                failures: self.failures,
                                until_epoch,
                            },
                            outcome: Outcome::RebuildFailed { reason },
                        });
                    }
                }
            }
        } else if slo_violated && self.scav_budget > self.opts.min_scavengers {
            // Overload containment: halve the scavenger pool toward the
            // floor. Evidence is the window p99 that tripped.
            let from = self.scav_budget;
            let to = (self.scav_budget / 2).max(self.opts.min_scavengers);
            self.scav_budget = to;
            self.clean_streak = 0;
            self.window.clear();
            jappend(
                &mut machine.faults,
                journal,
                JournalRecord::ScavBudget {
                    epoch,
                    budget: self.scav_budget as u64,
                    clean_streak: self.clean_streak,
                },
            )?;
            self.report.incidents.push(Incident {
                epoch,
                trigger: Trigger::SloViolation,
                evidence: vec![
                    ("window_p99", Ev::U(window_p99.unwrap_or(0))),
                    ("slo_p99", Ev::U(self.opts.slo_p99_cycles)),
                    ("epoch_overruns", Ev::U(epoch_overruns)),
                ],
                action: Action::ShedScavengers { from, to },
                outcome: Outcome::Contained,
            });
        } else if self.scav_budget < self.opts.scavengers && !slo_violated && epoch_overruns == 0 {
            // Probation: a clean streak earns one scavenger back.
            self.clean_streak += 1;
            if self.clean_streak >= self.opts.probation_epochs {
                self.scav_budget += 1;
                self.clean_streak = 0;
                jappend(
                    &mut machine.faults,
                    journal,
                    JournalRecord::ScavBudget {
                        epoch,
                        budget: self.scav_budget as u64,
                        clean_streak: self.clean_streak,
                    },
                )?;
                self.report.incidents.push(Incident {
                    epoch,
                    trigger: Trigger::ProbationElapsed,
                    evidence: vec![
                        ("clean_epochs", Ev::U(self.opts.probation_epochs)),
                        ("window_p99", Ev::U(window_p99.unwrap_or(0))),
                    ],
                    action: Action::RestoreScavenger {
                        to: self.scav_budget,
                    },
                    outcome: Outcome::Contained,
                });
            }
        } else if slo_violated || epoch_overruns > 0 {
            self.clean_streak = 0;
        }
        Ok(())
    }
}

/// One rebuild attempt: ladder, fault hook, swap-time lint gate.
fn attempt_rebuild(
    machine: &mut Machine,
    workload: &mut dyn FleetWorkload,
    shard: usize,
    original: &Program,
    opts: &SupervisorOptions,
) -> Rebuild {
    let b = pgo_pipeline_degrading(
        machine,
        original,
        |attempt| workload.profiling_contexts(shard, attempt),
        &opts.degrade,
    );
    if b.rung != Rung::FullPgo {
        let reason = format!("rebuild degraded to {}", b.rung);
        return Rebuild::Failed {
            reason,
            fallback: Some(Box::new(DeployedBuild::from(b))),
        };
    }
    let mut deployed = DeployedBuild::from(b);
    if let Some(mutate) = opts.build_mutator {
        mutate(&mut deployed.prog);
    }
    if let Err(e) = lint_gate(
        &deployed.prog,
        &deployed.origin,
        &opts.degrade.pipeline.lint,
    ) {
        return Rebuild::Failed {
            reason: format!("swap-time lint gate: {e}"),
            fallback: None,
        };
    }
    if machine
        .faults
        .as_mut()
        .is_some_and(|f| f.crash_point(CP_BETWEEN_GATES))
    {
        return Rebuild::Crashed;
    }
    // Beyond the lint gate: prove the deployed image equivalent to the
    // original it claims to instrument before the epoch-boundary swap.
    if opts.degrade.pipeline.verify {
        if let Err(e) = verify_gate(
            original,
            &deployed.prog,
            &deployed.origin,
            &opts.degrade.pipeline.lint,
        ) {
            return Rebuild::Failed {
                reason: format!("swap-time verify gate: {e}"),
                fallback: None,
            };
        }
    }
    Rebuild::Swapped(Box::new(deployed))
}

/// The breaker's open-state deployment when no usable degraded build
/// exists: a fresh scavenger-only build of the original, or the
/// original itself.
fn fallback_build(
    original: &Program,
    machine: &Machine,
    opts: &SupervisorOptions,
) -> DeployedBuild {
    match scavenger_only_build(original, &machine.cfg, &opts.degrade.pipeline) {
        Some(Ok((prog, origin, _lint))) => DeployedBuild {
            prog,
            origin,
            rung: Rung::ScavengerOnly,
            profile: None,
        },
        _ => DeployedBuild {
            prog: original.clone(),
            origin: (0..original.len()).map(Some).collect(),
            rung: Rung::Uninstrumented,
            profile: None,
        },
    }
}

/// Configuration for [`recover`].
#[derive(Clone, Copy, Debug)]
pub struct RecoverOptions {
    /// Re-run the lint + symbolic-equivalence gates on the recovered
    /// build before it serves a single request. `false` is a **test
    /// hook** that models a buggy recovery path — the chaos campaign
    /// engine exists to prove such a recovery gets caught.
    pub revalidate: bool,
}

impl Default for RecoverOptions {
    fn default() -> Self {
        RecoverOptions { revalidate: true }
    }
}

/// What [`recover`] reconstructed.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// The build to serve with (re-validated, or the ladder fallback).
    pub build: DeployedBuild,
    /// The durable state to resume the loop from.
    pub resume: ResumeState,
    /// Recovery decisions, as incidents — concatenate with the segment
    /// reports' logs so the replay-determinism hash spans restarts.
    pub incidents: Vec<Incident>,
    /// Journal records replayed.
    pub replayed: u64,
    /// True when a torn tail was detected and truncated.
    pub truncated: bool,
    /// True when the recorded deployment could not be trusted and the
    /// fallback rung was deployed instead.
    pub degraded: bool,
}

/// Crash recovery: repairs and replays the journal, reconstructs
/// breaker/epoch/rung state, re-validates the recovered build through
/// the same lint + symbolic-equivalence gates a hot swap passes, and
/// falls down the degradation ladder when that re-validation fails.
/// Never serves an unverified build — that is the contract the chaos
/// oracles check.
pub fn recover(
    journal: &mut Journal,
    original: &Program,
    machine: &mut Machine,
    opts: &SupervisorOptions,
    ropts: &RecoverOptions,
) -> Result<Recovery, SupervisorConfigError> {
    validate_options(opts)?;
    // A restart is a deployment boundary like any other: the dead
    // process's JIT state is gone, and the recovered (possibly fallback)
    // build must never be served through superblocks compiled from
    // whatever was running before the crash. The cache is keyed by
    // program identity, so stale entries would otherwise survive here —
    // the one deploy site the hot-swap paths don't cover.
    machine.invalidate_blocks();
    let rep = journal.repair();
    let st = project(&rep.records);
    let resume = ResumeState {
        epoch: st.epoch.map_or(0, |e| e + 1),
        next_job: st.next_job,
        breaker: st.breaker,
        failures: st.failures,
        scav_budget: st
            .scav_budget
            .map_or(opts.scavengers, |b| (b as usize).min(opts.scavengers)),
    };
    let replayed = rep.records.len() as u64;
    let truncated = rep.torn_tail;

    // Resolve the recorded deployment to a concrete build, then earn
    // back trust in it: the artifact must be the one the record names
    // (fingerprint and rung) and pass the trust gate again. Anything less
    // falls down the ladder.
    let mut gate_failed = false;
    let mut recovered = None;
    if let Some((fp, rung, _epoch)) = st.deploy {
        if let Some(build) = journal.get_build(fp) {
            if !ropts.revalidate
                || (build.rung == rung
                    && build.prog.fingerprint() == fp
                    && build_is_trusted(original, build, opts))
            {
                recovered = Some(build.clone());
            } else {
                gate_failed = true;
            }
        }
    }

    let degraded = recovered.is_none();
    let build = recovered.unwrap_or_else(|| fallback_build(original, machine, opts));
    if degraded {
        // A degraded recovery is itself a deployment decision: persist
        // the fallback so the durable image never keeps pointing at a
        // build that failed re-validation. Recovery runs before serving,
        // so the append is synchronous (no fault injector).
        journal_deploy(&mut None, journal, &build, resume.epoch).expect("no injector, no crash");
    }
    let action = if degraded {
        Action::RecoveryDegraded { rung: build.rung }
    } else {
        Action::Recovered {
            rung: build.rung,
            replayed,
            truncated,
        }
    };
    let incidents = vec![Incident {
        epoch: resume.epoch,
        trigger: Trigger::CrashRecovery,
        evidence: vec![
            ("replayed", Ev::U(replayed)),
            ("truncated", Ev::U(u64::from(truncated))),
            ("artifact_found", Ev::U(u64::from(!degraded || gate_failed))),
            ("gate_failed", Ev::U(u64::from(gate_failed))),
            ("failures", Ev::U(u64::from(resume.failures))),
        ],
        action,
        outcome: Outcome::Deployed { rung: build.rung },
    }];
    Ok(Recovery {
        build,
        resume,
        incidents,
        replayed,
        truncated,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dualmode::WatchdogOptions;
    use crate::fleet::{run_fleet, Arrival, FleetConfigError, FleetOptions};
    use crate::journal::{Journal, StoredBuild};
    use crate::testkit::{fast_degrade, runaway_prog, solo_core, Solo, SoloExit, LOOKUPS};
    use reach_sim::{AluOp, Cond, Inst, MachineConfig, ProgramBuilder, Reg};
    use reach_workloads::{build_zipf_kv, AddrAlloc, ZipfKvParams};

    /// A zipf-KV service with independently skewed *profiled* and *live*
    /// traffic: the instrumentation was built against the stale pool's
    /// skew, live jobs arrive with `live_theta`'s. `(0.0, 3.0)` is the
    /// drift scenario — the deployed profile expects the value table to
    /// miss on every lookup, while live traffic hits its hot head and
    /// misses only on the request stream.
    ///
    /// Every job and every profiling attempt draws a *fresh* instance
    /// (disjoint table + request stream) so misses are compulsory and
    /// the sample stream is not silenced by cache residency from earlier
    /// epochs. One arrival per epoch, at shard 0.
    struct ZipfService {
        prog: Program,
        live: Vec<reach_workloads::InstanceSetup>,
        cursor: usize,
        prof_stale: Vec<reach_workloads::InstanceSetup>,
        prof_live: Vec<reach_workloads::InstanceSetup>,
        prof_cursor: usize,
        /// Runaway program injected into the scavenger pool during the
        /// given epoch range (the overload scenario).
        runaway: Option<(Program, std::ops::Range<u64>)>,
    }

    impl ZipfService {
        fn new(m: &mut Machine, stale_theta: f64, live_theta: f64) -> ZipfService {
            let mut alloc = AddrAlloc::new(0x800_0000);
            let params = |theta: f64, seed: u64| ZipfKvParams {
                table_entries: 1 << 15,
                lookups: LOOKUPS,
                theta,
                seed,
            };
            let live = build_zipf_kv(&mut m.mem, &mut alloc, params(live_theta, 13), 56);
            let stale = build_zipf_kv(&mut m.mem, &mut alloc, params(stale_theta, 11), 8);
            let prof = build_zipf_kv(&mut m.mem, &mut alloc, params(live_theta, 17), 12);
            ZipfService {
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

        /// Profiling contexts drawn from the *stale* distribution — what
        /// the initial deployment was built against.
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

    impl FleetWorkload for ZipfService {
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
        /// Rebuilds profile what is *actually* arriving: live traffic.
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

    /// Initial deployment: full-PGO build against the service's
    /// *profiled* (possibly stale) distribution.
    fn initial_build(m: &mut Machine, svc: &ZipfService, orig: &Program) -> DeployedBuild {
        let b = pgo_pipeline_degrading(
            m,
            orig,
            |a| svc.stale_profiling_contexts(a),
            &fast_degrade(),
        );
        assert_eq!(b.rung, Rung::FullPgo, "{:?}", b.reasons);
        DeployedBuild::from(b)
    }

    fn drift_opts() -> SupervisorOptions {
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
            ..SupervisorOptions::default()
        }
    }

    /// The reference loop over `orig` for `epochs`, backoff seed 42.
    fn solo<'a>(orig: &'a Program, opts: &'a SupervisorOptions, epochs: u64) -> Solo<'a> {
        Solo {
            original: orig,
            opts,
            epochs,
            seed: 42,
        }
    }

    #[test]
    fn drift_triggers_rebuild_and_hot_swap() {
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);

        let opts = drift_opts();
        let r = solo(&orig, &opts, 10).complete(&mut m, &mut svc, init);
        assert_eq!(r.swaps, 1, "{}", incidents_json(&r.incidents));
        assert_eq!(r.final_rung, Rung::FullPgo);
        assert_eq!(r.breaker, BreakerState::Closed);
        let swap_epoch = r
            .incidents
            .iter()
            .find(|i| {
                i.trigger == Trigger::Staleness
                    && i.action
                        == Action::Swap {
                            rung: Rung::FullPgo,
                        }
            })
            .expect("a staleness-triggered swap")
            .epoch;
        // The stale profile read as drifted; the rebuilt one matches
        // live traffic again.
        assert!(r.staleness_peak > 0.5, "{}", r.staleness_peak);
        assert!(r.staleness_last < 0.3, "{}", r.staleness_last);
        assert_eq!(r.served, 10);
        assert!(m.samplers.is_empty(), "in-situ sampler left armed");
        // Recovery: post-swap jobs are faster than the stale-build ones.
        // The swap lands at the end of `swap_epoch`, so that epoch's job
        // still ran on the stale build.
        let pre = r
            .latencies
            .iter()
            .filter(|(e, _)| *e <= swap_epoch)
            .map(|(_, l)| *l)
            .max()
            .unwrap();
        let post = p99_after(&r.latencies, swap_epoch + 1);
        assert!(post < pre, "post-swap p99 {post} !< pre-swap max {pre}");
    }

    #[test]
    fn hot_swap_invalidates_superblock_cache() {
        // The superblock engine caches pre-decoded blocks keyed by
        // program *identity*; a deployment changes the code map under
        // the serving loop, so every one — a rebuild swap, the
        // breaker-open fallback, a fleet rollout — must invalidate the
        // cache: blocks compiled from any earlier traffic must not
        // survive a deploy.
        fn wipe(p: &mut Profile) {
            p.total_samples = 0;
        }
        let breaker_opens = SupervisorOptions {
            max_rebuild_failures: 2,
            degrade: DegradeOptions {
                max_reprofiles: 0,
                profile_mutator: Some(wipe),
                ..fast_degrade()
            },
            ..drift_opts()
        };
        for (opts, epochs, rung, rollout) in [
            (drift_opts(), 10, Rung::FullPgo, false),
            (breaker_opens, 12, Rung::ScavengerOnly, false),
            (drift_opts(), 10, Rung::FullPgo, true),
        ] {
            let mut m = Machine::new(MachineConfig::default());
            let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
            let orig = svc.prog.clone();
            let init = initial_build(&mut m, &svc, &orig);

            // Warm the superblock cache with traffic from before the run.
            let mut wb = ProgramBuilder::new("warmup");
            wb.imm(Reg(1), 64).imm(Reg(2), 1);
            let top = wb.label();
            wb.bind(top);
            wb.alu(AluOp::Sub, Reg(1), Reg(1), Reg(2), 1);
            wb.branch(Cond::Nez, Reg(1), top);
            wb.halt();
            let warm_prog = wb.finish().unwrap();
            let mut warm = Context::new(7_000);
            m.run_to_completion(&warm_prog, &mut warm, 1 << 20).unwrap();
            assert!(m.block_cache.stats.compiled > 0, "warmup compiled nothing");
            assert!(m.block_cache.cached_blocks() > 0);

            let r = if rollout {
                // What the fleet does to a drained shard.
                let mut el = EpochLoop::new(0, init.clone(), &opts, 42, None);
                el.deploy_rollout(&mut m, &mut Journal::new(), init, 0)
                    .unwrap();
                el.seal()
            } else {
                solo(&orig, &opts, epochs).complete(&mut m, &mut svc, init)
            };
            assert_eq!(r.swaps, 1, "{}", incidents_json(&r.incidents));
            assert_eq!(r.final_rung, rung);
            assert_eq!(
                m.block_cache.stats.invalidations, r.swaps,
                "every deployment must invalidate the superblock cache"
            );
            // The pre-swap blocks are gone, not merely shadowed.
            assert!(!m.block_cache.has_blocks_for(&warm_prog));
        }
    }

    /// Serving arms the in-situ sampler on every batch; that must not
    /// drop it to the reference tier. A per-epoch scavenger override is
    /// forgotten with its epoch instead of piling up in the cache.
    #[test]
    fn sampler_armed_serving_runs_on_the_block_engine() {
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 3.0, 3.0);
        svc.runaway = Some((runaway_prog(), 0..u64::MAX));
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);
        let before = m.block_cache.stats.clone();
        let cached = m.block_cache.cached_programs();

        let opts = SupervisorOptions {
            supervise: false,
            ..drift_opts()
        };
        let epochs = 10;
        let r = solo(&orig, &opts, epochs).complete(&mut m, &mut svc, init);
        assert_eq!(r.served, epochs);
        let hits = m.block_cache.stats.hits - before.hits;
        assert!(hits > 0, "serving fell back to the reference tier");
        assert!(
            m.block_cache.cached_programs() <= cached + 1,
            "{} programs cached after {epochs} epochs of overrides",
            m.block_cache.cached_programs(),
        );
    }

    #[test]
    fn unsupervised_measures_but_never_acts() {
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);

        let opts = SupervisorOptions {
            supervise: false,
            ..drift_opts()
        };
        let r = solo(&orig, &opts, 10).complete(&mut m, &mut svc, init);
        assert!(r.incidents.is_empty());
        assert_eq!(r.swaps, 0);
        assert_eq!(r.rebuilds, 0);
        assert_eq!(r.final_rung, Rung::FullPgo);
        // Monitoring parity: the estimator still saw the drift.
        assert!(r.staleness_peak > 0.5, "{}", r.staleness_peak);
        assert_eq!(r.scav_budget_final, opts.scavengers);
    }

    #[test]
    fn failing_rebuilds_back_off_then_open_breaker_on_recorded_rung() {
        fn wipe(p: &mut Profile) {
            p.total_samples = 0;
        }
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);

        let opts = SupervisorOptions {
            max_rebuild_failures: 2,
            backoff_base_epochs: 1,
            backoff_max_epochs: 4,
            degrade: DegradeOptions {
                max_reprofiles: 0,
                profile_mutator: Some(wipe),
                ..fast_degrade()
            },
            ..drift_opts()
        };
        let r = solo(&orig, &opts, 12).complete(&mut m, &mut svc, init);
        assert_eq!(
            r.breaker,
            BreakerState::Open,
            "{}",
            incidents_json(&r.incidents)
        );
        assert_eq!(r.final_rung, Rung::ScavengerOnly);
        assert_eq!(r.rebuilds, 2);
        assert!(r.incidents.iter().any(|i| matches!(
            i.action,
            Action::Backoff { failures: 1, .. }
        ) && matches!(&i.outcome, Outcome::RebuildFailed { reason }
                    if reason.contains("scavenger-only"))));
        assert!(r.incidents.iter().any(|i| i.action
            == Action::BreakerOpen {
                rung: Rung::ScavengerOnly
            }
            && i.outcome
                == Outcome::Deployed {
                    rung: Rung::ScavengerOnly
                }));
    }

    #[test]
    fn corrupted_rebuild_is_rejected_by_swap_time_lint_gate() {
        fn clobber_yield_saves(p: &mut Program) {
            for inst in &mut p.insts {
                if let Inst::Yield { save_regs, .. } = inst {
                    *save_regs = Some(0);
                }
            }
        }
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);

        let opts = SupervisorOptions {
            max_rebuild_failures: 2,
            backoff_base_epochs: 1,
            build_mutator: Some(clobber_yield_saves),
            ..drift_opts()
        };
        let r = solo(&orig, &opts, 12).complete(&mut m, &mut svc, init);
        // Every rebuild reaches FullPgo but the corrupted binary fails
        // the swap-time gate; the breaker ends up deploying a *fresh*
        // scavenger-only build of the original.
        assert!(
            r.incidents
                .iter()
                .any(|i| matches!(&i.outcome, Outcome::RebuildFailed { reason }
                    if reason.contains("lint"))),
            "{}",
            incidents_json(&r.incidents)
        );
        assert_eq!(r.breaker, BreakerState::Open);
        assert_eq!(r.final_rung, Rung::ScavengerOnly);
    }

    #[test]
    fn semantically_corrupted_rebuild_is_rejected_by_swap_time_verify_gate() {
        // Skew the load that consumes the first inserted prefetch. The
        // lint gate only *warns* about the orphaned prefetch (RL0002),
        // so on its own it would swap this wrong-address binary in; the
        // equivalence checker proves the load diverges from the
        // original and refuses the swap.
        fn skew_prefetched_load(p: &mut Program) {
            let Some(ppc) = p
                .insts
                .iter()
                .position(|i| matches!(i, Inst::Prefetch { .. }))
            else {
                return;
            };
            for inst in &mut p.insts[ppc..] {
                if let Inst::Load { offset, .. } = inst {
                    *offset += 8;
                    return;
                }
            }
        }
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);

        let opts = SupervisorOptions {
            max_rebuild_failures: 2,
            backoff_base_epochs: 1,
            build_mutator: Some(skew_prefetched_load),
            ..drift_opts()
        };
        let r = solo(&orig, &opts, 12).complete(&mut m, &mut svc, init);
        assert!(
            r.incidents
                .iter()
                .any(|i| matches!(&i.outcome, Outcome::RebuildFailed { reason }
                    if reason.contains("verify gate") && reason.contains("RL0008"))),
            "{}",
            incidents_json(&r.incidents)
        );
        assert_eq!(r.breaker, BreakerState::Open);
        assert_eq!(r.final_rung, Rung::ScavengerOnly);
    }

    #[test]
    fn overload_sheds_scavengers_then_restores_after_probation() {
        let overload_opts = || SupervisorOptions {
            service_per_epoch: 1,
            scavengers: 2,
            slo_p99_cycles: 800_000,
            slo_window: 2,
            probation_epochs: 4,
            insitu_period: 31,
            staleness_threshold: 2.0,
            degrade: fast_degrade(),
            dual: DualModeOptions {
                drain_scavengers: false,
                isolate_faults: true,
                watchdog: Some(WatchdogOptions {
                    slice_steps: 2_000,
                    overrun_cycles: 500,
                    max_overruns: u32::MAX, // containment left to the supervisor
                    ..WatchdogOptions::default()
                }),
                ..DualModeOptions::default()
            },
            ..SupervisorOptions::default()
        };
        let run = |opts: &SupervisorOptions| {
            // Healthy match (profiled == live) so the only disturbance
            // is the runaway scavenger program during the burst.
            let mut m = Machine::new(MachineConfig::default());
            let mut svc = ZipfService::new(&mut m, 0.0, 0.0);
            svc.runaway = Some((runaway_prog(), 2..10));
            let orig = svc.prog.clone();
            let init = initial_build(&mut m, &svc, &orig);
            let solo = Solo {
                original: &orig,
                opts,
                epochs: 16,
                seed: 7,
            };
            solo.complete(&mut m, &mut svc, init)
        };

        let opts = overload_opts();
        let r = run(&opts);
        let count =
            |pred: fn(&Action) -> bool| r.incidents.iter().filter(|i| pred(&i.action)).count();
        let sheds = count(|a| matches!(a, Action::ShedScavengers { .. }));
        let restores = count(|a| matches!(a, Action::RestoreScavenger { .. }));
        assert!(sheds >= 2, "{}", incidents_json(&r.incidents));
        assert!(restores >= 1, "{}", incidents_json(&r.incidents));
        assert!(r.scav_budget_final >= 1, "{}", r.scav_budget_final);
        // After shedding bottoms out and the burst ends, the tail meets
        // the SLO again.
        let tail = p99_after(&r.latencies, 12);
        assert!(tail <= opts.slo_p99_cycles, "tail p99 {tail} > SLO");

        // The passive arm pays the runaway tax with no incidents.
        let base = run(&SupervisorOptions {
            supervise: false,
            ..overload_opts()
        });
        assert!(base.incidents.is_empty());
        assert_eq!(base.scav_budget_final, opts.scavengers);
        // Across the burst the supervised pool sheds the runaways (and
        // may probe one back in via probation — that oscillation is the
        // design), so its mean latency beats the passive arm, which pays
        // the runaway tax every epoch.
        let burst_mean = |rep: &SupervisorReport| {
            let v: Vec<u64> = rep
                .latencies
                .iter()
                .filter(|(e, _)| (2..10).contains(e))
                .map(|(_, l)| *l)
                .collect();
            v.iter().sum::<u64>() / v.len() as u64
        };
        assert!(
            burst_mean(&r) < burst_mean(&base),
            "supervised burst mean {} !< unsupervised {}",
            burst_mean(&r),
            burst_mean(&base)
        );
    }

    /// `run_fleet` and `recover` refuse a degenerate supervisor with the
    /// same typed error.
    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        let mut mc = solo_core();
        let mut svc = ZipfService::new(&mut mc.cores[0], 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut mc.cores[0], &svc, &orig);
        let fleet = |sup: SupervisorOptions| FleetOptions {
            shards: 1,
            epochs: 1,
            sup,
            ..FleetOptions::default()
        };
        let mut check = |opts: SupervisorOptions, want: SupervisorConfigError| {
            let got = run_fleet(&mut mc, &mut svc, &orig, init.clone(), &fleet(opts.clone()))
                .expect_err("degenerate config accepted");
            assert_eq!(got, FleetConfigError::Supervisor(want));
            let mut j = Journal::new();
            let got = recover(
                &mut j,
                &orig,
                &mut mc.cores[0],
                &opts,
                &RecoverOptions::default(),
            )
            .expect_err("degenerate config accepted by recover");
            assert_eq!(got, want);
        };
        check(
            SupervisorOptions {
                max_rebuild_failures: 0,
                ..drift_opts()
            },
            SupervisorConfigError::ZeroMaxRebuildFailures,
        );
        check(
            SupervisorOptions {
                slo_p99_cycles: 1_000,
                slo_window: 0,
                ..drift_opts()
            },
            SupervisorConfigError::ZeroSloWindow,
        );
        check(
            SupervisorOptions {
                estimator: OnlineEstimatorOptions {
                    window: 0,
                    min_samples: 1,
                },
                ..drift_opts()
            },
            SupervisorConfigError::ZeroEstimatorWindow,
        );
        check(
            SupervisorOptions {
                scavengers: 1,
                min_scavengers: 2,
                ..drift_opts()
            },
            SupervisorConfigError::MinScavengersAbovePool,
        );
        // A disarmed SLO guard tolerates the zero-width window (it is
        // never consulted).
        let opts = SupervisorOptions {
            slo_p99_cycles: u64::MAX,
            slo_window: 0,
            ..drift_opts()
        };
        run_fleet(&mut mc, &mut svc, &orig, init, &fleet(opts)).unwrap();
    }

    #[test]
    fn recovery_invalidates_warmed_superblock_cache() {
        use reach_sim::{FaultInjector, FaultPlan};
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);
        let opts = drift_opts();

        let mut journal = Journal::new();
        m.faults = Some(FaultInjector::new(FaultPlan::none(1).with_crash_at(5)));
        let exit = solo(&orig, &opts, 10).run(&mut m, &mut svc, init, &mut journal, None);
        assert!(matches!(exit, SoloExit::Crashed { .. }));
        m.faults = None;

        // Superblocks compiled before the restart: in the simulation the
        // Machine persists across the crash, so without an explicit
        // invalidation at the recovery deploy site these entries — keyed
        // by the identity of whatever program warmed them — would
        // survive into the recovered segment.
        let mut wb = ProgramBuilder::new("warmup");
        wb.imm(Reg(1), 64).imm(Reg(2), 1);
        let top = wb.label();
        wb.bind(top);
        wb.alu(AluOp::Sub, Reg(1), Reg(1), Reg(2), 1);
        wb.branch(Cond::Nez, Reg(1), top);
        wb.halt();
        let warm_prog = wb.finish().unwrap();
        let mut warm = Context::new(7_000);
        m.run_to_completion(&warm_prog, &mut warm, 1 << 20).unwrap();
        assert!(m.block_cache.cached_blocks() > 0, "warmup compiled nothing");
        let inv_before = m.block_cache.stats.invalidations;

        let rec = recover(
            &mut journal,
            &orig,
            &mut m,
            &opts,
            &RecoverOptions::default(),
        )
        .unwrap();
        assert!(!rec.degraded, "{:?}", rec.incidents);
        assert_eq!(
            m.block_cache.stats.invalidations,
            inv_before + 1,
            "recovery is a deploy site and must invalidate the superblock cache"
        );
        assert_eq!(
            m.block_cache.cached_blocks(),
            0,
            "pre-crash blocks survived recovery"
        );
    }

    #[test]
    fn journaled_run_crashes_then_recovers_and_resumes_to_completion() {
        use reach_sim::{FaultInjector, FaultPlan};
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);
        let opts = drift_opts();
        let solo = solo(&orig, &opts, 10);

        let mut journal = Journal::new();
        // Crash at the 5th crash-point consultation (an epoch-advance
        // append, a few epochs in).
        m.faults = Some(FaultInjector::new(FaultPlan::none(1).with_crash_at(5)));
        let exit = solo.run(&mut m, &mut svc, init, &mut journal, None);
        let SoloExit::Crashed { epoch, .. } = exit else {
            panic!("crash channel did not fire");
        };

        let rec = recover(
            &mut journal,
            &orig,
            &mut m,
            &opts,
            &RecoverOptions::default(),
        )
        .unwrap();
        assert!(!rec.degraded, "{:?}", rec.incidents);
        assert_eq!(rec.build.rung, Rung::FullPgo);
        assert!(rec.resume.epoch <= epoch + 1);
        assert!(matches!(rec.incidents[0].action, Action::Recovered { .. }));

        m.faults = None;
        let exit = solo.run(&mut m, &mut svc, rec.build, &mut journal, Some(rec.resume));
        let SoloExit::Completed(r) = exit else {
            panic!("resumed segment crashed without a fault plan");
        };
        // The journal's projection agrees with the live final state.
        let st = project(&journal.replay().records);
        assert_eq!(st.epoch, Some(solo.epochs - 1));
        let (fp, rung, _) = st.deploy.unwrap();
        assert_eq!(rung, r.final_rung);
        assert!(journal.get_build(fp).is_some());
        assert_eq!(st.breaker, r.breaker);
    }

    /// A recovered loop that crashes again recovers again: two
    /// crash–recover cycles, each process under a fresh injector, then a
    /// clean completion. The journal projects the live final state, and
    /// the incident log concatenated across both restarts replays
    /// bit-for-bit.
    #[test]
    fn a_recovered_loop_that_crashes_again_recovers_again() {
        use reach_sim::{FaultInjector, FaultPlan};
        let run = || {
            let mut m = Machine::new(MachineConfig::default());
            let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
            let orig = svc.prog.clone();
            let mut build = initial_build(&mut m, &svc, &orig);
            let opts = drift_opts();
            let solo = solo(&orig, &opts, 10);
            let mut journal = Journal::new();
            let (mut resume, mut incidents, mut process) = (None, Vec::new(), 0u64);
            let live = loop {
                // The first two processes crash at their 4th crash-point
                // consultation; the third runs clean.
                let plan = FaultPlan::none(process).with_torn_write(0.7);
                let plan = if process < 2 {
                    plan.with_crash_at(4)
                } else {
                    plan
                };
                m.faults = Some(FaultInjector::new(plan));
                process += 1;
                let report = match solo.run(&mut m, &mut svc, build.clone(), &mut journal, resume) {
                    SoloExit::Completed(r) => break r,
                    SoloExit::Crashed { report, .. } => report,
                };
                incidents.extend(report.incidents);
                m.faults = None;
                let rec = recover(
                    &mut journal,
                    &orig,
                    &mut m,
                    &opts,
                    &RecoverOptions::default(),
                )
                .unwrap();
                incidents.extend(rec.incidents);
                (build, resume) = (rec.build, Some(rec.resume));
            };
            assert_eq!(process, 3, "both crashes must fire");
            incidents.extend(live.incidents.iter().cloned());
            let recoveries = incidents
                .iter()
                .filter(|i| i.trigger == Trigger::CrashRecovery)
                .count();
            assert_eq!(recoveries, 2);

            let st = project(&journal.replay().records);
            assert_eq!(st.epoch, Some(solo.epochs - 1));
            let (fp, rung, _) = st.deploy.expect("a deploy is journaled");
            assert_eq!(rung, live.final_rung);
            let stored = journal.get_build(fp).expect("the artifact is stored");
            assert_eq!(stored.prog.fingerprint(), fp);
            assert_eq!(st.breaker, live.breaker);
            assert_eq!(st.failures, live.rebuild_failures);
            let budget = st.scav_budget.map_or(opts.scavengers, |b| b as usize);
            assert_eq!(budget, live.scav_budget_final);
            incidents_hash(&incidents)
        };
        assert_eq!(run(), run());
    }

    /// A shed scavenger pool must serve its probation *after* a restart —
    /// recovery may not silently re-admit it, even when the pre-crash
    /// journal recorded a clean streak one epoch short of restoration.
    ///
    /// The journal is hand-built to describe exactly that near-miss: budget
    /// shed 2 → 1 with `clean_streak: 3` durable, `probation_epochs: 4`.
    /// `recover` must resume with the shed budget (not the configured 2),
    /// and the resumed loop must restart the streak from zero, so the
    /// earliest legal `RestoreScavenger` lands at
    /// `resume.epoch + probation_epochs - 1`.
    ///
    /// Hand mutation, which fails this test: `EpochLoop::new` ignores
    /// `resume.scav_budget` (the resumed pool starts full and is never
    /// restored).
    #[test]
    fn recovery_never_readmits_a_shed_scavenger_early() {
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 0.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);

        let opts = SupervisorOptions {
            probation_epochs: 4,
            // Quiet run: the workload is healthy, so the resumed loop's
            // only discretionary action is the probation restore under
            // test.
            staleness_threshold: 2.0,
            ..drift_opts()
        };

        // The pre-crash history, written durably: deploy at epoch 0, a
        // shed to budget 1 whose clean streak had reached 3 of the 4
        // probation epochs, last epoch served 3.
        let fp = init.prog.fingerprint();
        let mut journal = Journal::new();
        journal.store_build(
            fp,
            StoredBuild {
                prog: init.prog.clone(),
                origin: init.origin.clone(),
                rung: init.rung,
                profile: init.profile.clone(),
            },
        );
        for rec in [
            JournalRecord::Deploy {
                epoch: 0,
                rung: init.rung,
                fingerprint: fp,
            },
            JournalRecord::EpochAdvance {
                epoch: 0,
                next_job: 0,
            },
            JournalRecord::ScavBudget {
                epoch: 1,
                budget: 1,
                clean_streak: 3,
            },
            JournalRecord::EpochAdvance {
                epoch: 3,
                next_job: 3,
            },
        ] {
            journal.append(&rec, None);
        }

        let rec = recover(
            &mut journal,
            &orig,
            &mut m,
            &opts,
            &RecoverOptions::default(),
        )
        .expect("validated config");
        assert!(!rec.degraded, "healthy artifact must re-validate");
        assert_eq!(rec.resume.epoch, 4, "resume after last durable epoch");
        assert_eq!(
            rec.resume.scav_budget, 1,
            "the shed budget survives the restart"
        );

        let solo = Solo {
            original: &orig,
            opts: &opts,
            epochs: 12,
            seed: 41,
        };
        let exit = solo.run(&mut m, &mut svc, rec.build, &mut journal, Some(rec.resume));
        let SoloExit::Completed(rep) = exit else {
            panic!("no faults armed, run cannot crash");
        };
        let restores: Vec<u64> = rep
            .incidents
            .iter()
            .filter(|i| matches!(i.action, Action::RestoreScavenger { .. }))
            .map(|i| i.epoch)
            .collect();
        assert!(
            !restores.is_empty(),
            "a healthy resumed run must eventually restore the pool"
        );
        let earliest_legal = rec.resume.epoch + opts.probation_epochs - 1;
        for &e in &restores {
            assert!(
                e >= earliest_legal,
                "pool restored at epoch {e}, before probation ends at {earliest_legal}: \
                 the journaled clean streak leaked across the restart"
            );
        }
        assert_eq!(rep.scav_budget_final, 2, "pool fully restored by the end");
    }

    #[test]
    fn recovery_degrades_when_the_recovered_artifact_fails_the_gates() {
        let mut m = Machine::new(MachineConfig::default());
        let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
        let orig = svc.prog.clone();
        let init = initial_build(&mut m, &svc, &orig);
        let opts = drift_opts();

        let mut journal = Journal::new();
        use reach_sim::{FaultInjector, FaultPlan};
        m.faults = Some(FaultInjector::new(FaultPlan::none(1).with_crash_at(4)));
        let exit = solo(&orig, &opts, 10).run(&mut m, &mut svc, init, &mut journal, None);
        assert!(matches!(exit, SoloExit::Crashed { .. }));
        m.faults = None;

        // Bit-rot the deployed artifact: recovery's gates must refuse it
        // and fall down the ladder.
        let st = project(&journal.replay().records);
        let (fp, _, _) = st.deploy.expect("initial deploy journaled");
        let mut rotted = journal.get_build(fp).expect("artifact stored").clone();
        for inst in &mut rotted.prog.insts {
            if let Inst::Yield { save_regs, .. } = inst {
                *save_regs = Some(0);
            }
        }
        journal.store_build(fp, rotted);
        // Snapshot before recovering: a degraded recovery re-points the
        // journal at its fallback deployment.
        let mut j2 = journal.clone();
        let rec = recover(
            &mut journal,
            &orig,
            &mut m,
            &opts,
            &RecoverOptions::default(),
        )
        .unwrap();
        assert!(rec.degraded);
        assert_ne!(rec.build.rung, Rung::FullPgo);
        assert!(matches!(
            rec.incidents[0].action,
            Action::RecoveryDegraded { .. }
        ));
        // A degraded recovery is durable: the journal now points at the
        // fallback, and that record survives its own replay.
        let st2 = project(&journal.replay().records);
        let (fp2, rung2, _) = st2.deploy.expect("fallback deploy journaled");
        assert_eq!(rung2, rec.build.rung);
        assert!(journal.get_build(fp2).is_some());
        // The test hook that skips re-validation would have served it.
        let broken = recover(
            &mut j2,
            &orig,
            &mut m,
            &opts,
            &RecoverOptions { revalidate: false },
        )
        .unwrap();
        assert!(!broken.degraded);
        assert_eq!(broken.build.rung, Rung::FullPgo);
    }

    #[test]
    fn replay_produces_byte_identical_incident_log() {
        let run = || {
            let mut m = Machine::new(MachineConfig::default());
            let mut svc = ZipfService::new(&mut m, 0.0, 3.0);
            let orig = svc.prog.clone();
            let init = initial_build(&mut m, &svc, &orig);
            let opts = SupervisorOptions {
                max_rebuild_failures: 3,
                degrade: DegradeOptions {
                    max_reprofiles: 0,
                    profile_mutator: Some(|p: &mut Profile| p.total_samples = 0),
                    ..fast_degrade()
                },
                ..drift_opts()
            };
            solo(&orig, &opts, 12).complete(&mut m, &mut svc, init)
        };
        let a = run();
        let b = run();
        assert_eq!(incidents_json(&a.incidents), incidents_json(&b.incidents));
        assert_eq!(a.latencies, b.latencies);
        assert_eq!(a.served, b.served);
        assert_eq!(a.breaker, b.breaker);
        assert_eq!(a.staleness_last.to_bits(), b.staleness_last.to_bits());
        assert!(!a.incidents.is_empty(), "scenario produced no incidents");
    }
}
