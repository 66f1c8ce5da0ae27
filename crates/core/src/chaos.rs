//! Deterministic chaos campaigns over supervised serving: randomized
//! crash × torn-write × fault-class schedules, safety-invariant
//! oracles, and a shrinker that bisects a violating schedule down to a
//! minimal copy-pasteable repro.
//!
//! The discipline is FoundationDB-style deterministic simulation
//! testing. A [`ChaosSchedule`] is a pure value: a [`FaultPlan`]
//! (channel intensities plus the seed every decision stream derives
//! from) plus a list of crash instants (one per crash segment, counted
//! in crash-point consultations) plus two workload-level fault classes
//! (stale rebuild profiles, runaway scavengers). [`run_schedule`]
//! executes it — serve under
//! [`supervise_journaled`], crash, [`recover`], resume, repeat — and
//! checks five oracles:
//!
//! 1. **Never serve an unverified build.** Before every segment the
//!    engine independently re-derives trust in the build about to
//!    serve: fingerprint identity with the original for uninstrumented
//!    builds, the lint + symbolic-equivalence gates otherwise. It
//!    deliberately does not believe anything recovery concluded — which
//!    is exactly how a recovery path that skips re-validation gets
//!    caught.
//! 2. **Epochs monotone across restarts.** Served epochs never go
//!    backwards within a segment, recovery resume points never go
//!    backwards across restarts, and the repaired journal's
//!    epoch-advance records are strictly increasing.
//! 3. **Bounded unavailability.** Every injected crash costs at most
//!    one recovery segment, and the run still journals its final epoch.
//! 4. **Journal-replay state equals live state.** At a clean shutdown,
//!    projecting the durable journal reproduces the live final rung,
//!    breaker state, failure count, and scavenger budget.
//! 5. **Breaker-open implies scavenger-only-or-lower.** An open breaker
//!    never leaves a full-PGO build serving, live or journaled.
//!
//! Everything is seed-derived, so a violating schedule replays
//! bit-for-bit; [`minimize`] then greedily drops crashes, zeroes
//! channels, and bisects crash instants — keeping each transformation
//! only if the violation survives — and [`ChaosSchedule::repro`] prints
//! the survivor as a copy-pasteable constructor chain.

use crate::degrade::Rung;
use crate::journal::{project, Journal, JournalRecord, JournalState, StoredBuild};
use crate::supervisor::{
    build_is_trusted, incidents_hash, mix64, recover, supervise_journaled, BreakerState,
    DeployedBuild, Incident, RecoverOptions, ResumeState, ServiceWorkload, SuperviseExit,
    SupervisorConfigError, SupervisorOptions, SupervisorReport,
};
use reach_profile::Profile;
use reach_sim::{FaultInjector, FaultPlan, Machine, Program, SplitMix64};

/// A chaos configuration the engine refuses to run, caught at
/// [`run_schedule`] entry instead of hanging or corrupting mid-campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosConfigError {
    /// The underlying supervisor configuration is degenerate.
    Supervisor(SupervisorConfigError),
    /// The schedule arms the runaway-scavenger burst but
    /// `sup.dual.watchdog` is `None`: a cooperative-free scavenger with
    /// no watchdog never yields the slice back, so the epoch would spin
    /// until the unwatched-slice step cap — in practice, a hang.
    RunawayWithoutWatchdog,
}

impl From<SupervisorConfigError> for ChaosConfigError {
    fn from(e: SupervisorConfigError) -> Self {
        ChaosConfigError::Supervisor(e)
    }
}

impl std::fmt::Display for ChaosConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosConfigError::Supervisor(e) => e.fmt(f),
            ChaosConfigError::RunawayWithoutWatchdog => write!(
                f,
                "schedule arms a runaway scavenger but sup.dual.watchdog is None \
                 (the burst would pin every slice; arm WatchdogOptions)"
            ),
        }
    }
}

impl std::error::Error for ChaosConfigError {}

/// One randomized fault schedule: which channels are armed and where
/// the crashes land. A pure value — running it twice produces
/// byte-identical fault streams and incident logs.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosSchedule {
    /// Channel intensities and the seed the per-segment injectors
    /// derive from. `plan.crash_at` is ignored here — per-segment crash
    /// instants come from `crashes`.
    pub plan: FaultPlan,
    /// Crash instants: segment `k` crashes at its `crashes[k]`-th
    /// crash-point consultation (1-based); segments beyond the list run
    /// crash-free, so the run then completes.
    pub crashes: Vec<u64>,
    /// Feed every rebuild a drifted profile (the stale-profile fault
    /// class), injected through the ladder's profile-mutator hook.
    pub stale_rebuilds: bool,
    /// Ask the world factory to arm its runaway-scavenger burst (the
    /// overload fault class — the factory decides what that means for
    /// its workload).
    pub runaway: bool,
}

impl ChaosSchedule {
    /// A schedule with nothing armed.
    pub fn quiet(seed: u64) -> Self {
        ChaosSchedule {
            plan: FaultPlan::none(seed),
            crashes: Vec::new(),
            stale_rebuilds: false,
            runaway: false,
        }
    }

    /// How many distinct fault events the schedule arms: one per crash,
    /// one per armed plan channel, one per armed workload class. The
    /// minimizer's target metric.
    pub fn event_count(&self) -> usize {
        let p = &self.plan;
        self.crashes.len()
            + usize::from(p.pebs_drop > 0.0)
            + usize::from(p.pebs_extra_skid > 0)
            + usize::from(p.pebs_pc_corrupt > 0.0)
            + usize::from(p.lbr_drop > 0.0)
            + usize::from(p.prefetch_corrupt > 0.0)
            + usize::from(p.trap_every.is_some())
            + usize::from(p.torn_write > 0.0)
            + usize::from(p.partial_flush > 0.0)
            + usize::from(self.stale_rebuilds)
            + usize::from(self.runaway)
    }

    /// The exact constructor chain that rebuilds this schedule — what a
    /// violation report prints so the repro is copy-pasteable.
    pub fn repro(&self) -> String {
        let plan = self.plan.repro();
        format!(
            "ChaosSchedule {{ plan: {plan}, crashes: vec!{:?}, stale_rebuilds: {}, runaway: {} }}",
            self.crashes, self.stale_rebuilds, self.runaway
        )
    }
}

/// One freshly-built serving world: the machine (whose memory is the
/// data store — it survives simulated process crashes), the service,
/// the original program, and the initial verified deployment. A factory
/// closure builds one per schedule run so every trial starts from an
/// identical state.
pub struct ChaosWorld {
    /// The simulated machine.
    pub machine: Machine,
    /// The service being supervised.
    pub workload: Box<dyn ServiceWorkload>,
    /// The uninstrumented original program.
    pub original: Program,
    /// The initial verified deployment.
    pub initial: DeployedBuild,
}

/// Engine configuration.
#[derive(Clone)]
pub struct ChaosOptions {
    /// Supervisor configuration for every segment (`sup.epochs` is the
    /// whole run's length; crash segments resume inside it).
    pub sup: SupervisorOptions,
    /// Recovery configuration. `revalidate: false` is the
    /// deliberately-broken-recovery test hook the campaign engine
    /// exists to catch.
    pub recover: RecoverOptions,
    /// Test hook: bit-rot applied to the currently-deployed artifact
    /// before every recovery, modeling storage corruption between crash
    /// and restart.
    pub corrupt_artifacts: Option<fn(&mut StoredBuild)>,
    /// Safety stop on recovery loops. A correct engine never gets near
    /// it: segments are bounded by `crashes.len() + 1`.
    pub max_segments: u64,
}

impl ChaosOptions {
    /// Engine defaults around the given supervisor configuration.
    pub fn new(sup: SupervisorOptions) -> Self {
        ChaosOptions {
            sup,
            recover: RecoverOptions::default(),
            corrupt_artifacts: None,
            max_segments: 64,
        }
    }
}

/// Everything one schedule run did, and every invariant it broke.
#[derive(Clone, Debug, Default)]
pub struct ScheduleRun {
    /// Oracle violations, empty on a healthy run.
    pub violations: Vec<String>,
    /// Supervision segments executed (`crashes + 1` on a bounded run).
    pub segments: u64,
    /// Crashes injected.
    pub crashes: u64,
    /// Recoveries that fell down the degradation ladder.
    pub recoveries_degraded: u64,
    /// Recoveries that detected and truncated a torn journal tail.
    pub torn_tails: u64,
    /// Jobs served across all segments.
    pub served: u64,
    /// Jobs shed at admission across all segments.
    pub shed_jobs: u64,
    /// Hot swaps across all segments.
    pub swaps: u64,
    /// Rebuild attempts across all segments.
    pub rebuilds: u64,
    /// Jobs whose primary faulted across all segments.
    pub job_faults: u64,
    /// Records in the final durable journal image.
    pub journal_records: u64,
    /// Bytes in the final durable journal image.
    pub journal_bytes: u64,
    /// Projection of the final (repaired) durable journal — what a
    /// restart at this instant would resume from.
    pub final_state: Option<JournalState>,
    /// The full cross-restart incident log: segment and recovery
    /// incidents concatenated in order.
    pub incidents: Vec<Incident>,
    /// FNV-1a hash of the cross-restart incident log — the
    /// replay-determinism contract extended over restarts.
    pub incident_hash: u64,
    /// The last segment's report, when the run completed cleanly.
    pub final_report: Option<SupervisorReport>,
}

/// The stale-profile fault class: drift injected into every rebuild's
/// profile. Seeded from the profile itself (a plain `fn` pointer cannot
/// capture), so the mutation is still a pure function of the run.
fn stale_profile_mutator(p: &mut Profile) {
    let mut rng = SplitMix64::new(0x00C0_FFEE ^ p.total_samples);
    p.inject_drift(0.8, 64, &mut rng);
}

/// Runs one schedule to completion (or first violation): serve, crash,
/// recover, resume, then audit the durable image. Deterministic in
/// `(factory, schedule, opts)`.
pub fn run_schedule(
    factory: &mut dyn FnMut(&ChaosSchedule) -> ChaosWorld,
    schedule: &ChaosSchedule,
    opts: &ChaosOptions,
) -> Result<ScheduleRun, ChaosConfigError> {
    if schedule.runaway && opts.sup.dual.watchdog.is_none() {
        return Err(ChaosConfigError::RunawayWithoutWatchdog);
    }
    let mut world = factory(schedule);
    let mut sup = opts.sup.clone();
    if schedule.stale_rebuilds {
        sup.degrade.profile_mutator = Some(stale_profile_mutator);
    }

    let mut run = ScheduleRun::default();
    let mut journal = Journal::new();
    let mut build = world.initial.clone();
    let mut resume: Option<ResumeState> = None;
    let mut last_resume_epoch = 0u64;

    loop {
        // Oracle 1: never serve an unverified build.
        if !build_is_trusted(&world.original, &build, &sup) {
            run.violations.push(format!(
                "oracle1/unverified-build: segment {} is about to serve an untrusted {} build",
                run.segments, build.rung
            ));
            break;
        }
        if run.segments >= opts.max_segments {
            run.violations.push(format!(
                "oracle3/bounded-unavailability: {} segments without completing",
                run.segments
            ));
            break;
        }
        // Each segment gets its own injector: same channel intensities,
        // a segment-mixed seed, and that segment's crash instant.
        let mut plan = schedule.plan;
        plan.seed = mix64(schedule.plan.seed, run.segments);
        plan.crash_at = schedule.crashes.get(run.segments as usize).copied();
        world.machine.faults = Some(FaultInjector::new(plan));
        run.segments += 1;

        let exit = supervise_journaled(
            &mut world.machine,
            world.workload.as_mut(),
            &world.original,
            build.clone(),
            &sup,
            &mut journal,
            resume,
        )?;

        {
            let rep = exit.report();
            // Oracle 2 (live half): within a segment, served epochs
            // never go backwards.
            let mut seg_last: Option<u64> = None;
            for (e, _) in &rep.latencies {
                if seg_last.is_some_and(|last| *e < last) {
                    run.violations.push(format!(
                        "oracle2/epoch-monotonicity: served epoch {e} after epoch {}",
                        seg_last.unwrap()
                    ));
                }
                seg_last = Some(*e);
            }
            run.served += rep.served;
            run.shed_jobs += rep.shed_jobs;
            run.swaps += rep.swaps;
            run.rebuilds += rep.rebuilds;
            run.job_faults += rep.job_faults;
        }

        match exit {
            SuperviseExit::Completed(rep) => {
                run.incidents.extend(rep.incidents.iter().cloned());
                run.final_report = Some(rep);
                break;
            }
            SuperviseExit::Crashed { report, .. } => {
                run.crashes += 1;
                run.incidents.extend(report.incidents);
                if let Some(corrupt) = opts.corrupt_artifacts {
                    let st = project(&journal.replay().records);
                    if let Some((fp, _, _)) = st.deploy {
                        journal.mutate_build(fp, corrupt);
                    }
                }
                // The crashed process's injector dies with it; recovery
                // and the next segment's injector start fresh.
                world.machine.faults = None;
                let rec = recover(
                    &mut journal,
                    &world.original,
                    &mut world.machine,
                    &sup,
                    &opts.recover,
                )?;
                // Oracle 2 (restart half): recovery resume points never
                // go backwards — durable state only grows.
                if rec.resume.epoch < last_resume_epoch {
                    run.violations.push(format!(
                        "oracle2/epoch-monotonicity: resume epoch {} after resume epoch {}",
                        rec.resume.epoch, last_resume_epoch
                    ));
                }
                last_resume_epoch = rec.resume.epoch;
                run.recoveries_degraded += u64::from(rec.degraded);
                run.torn_tails += u64::from(rec.truncated);
                run.incidents.extend(rec.incidents);
                build = rec.build;
                resume = Some(rec.resume);
            }
        }
    }

    // Post-run oracles over the durable image and the final live state.
    let replay = journal.replay();
    run.journal_records = replay.records.len() as u64;
    run.journal_bytes = journal.durable_len() as u64;
    run.final_state = Some(project(&replay.records));
    if let Some(rep) = &run.final_report {
        // Oracle 2 (durable half): epoch advances strictly increase.
        let mut prev: Option<u64> = None;
        for r in &replay.records {
            if let JournalRecord::EpochAdvance { epoch, .. } = r {
                if prev.is_some_and(|p| *epoch <= p) {
                    run.violations.push(format!(
                        "oracle2/journal-epochs: advance to {epoch} after {}",
                        prev.unwrap()
                    ));
                }
                prev = Some(*epoch);
            }
        }
        // Oracle 3: bounded unavailability — each crash costs at most
        // one extra segment, and the final epoch was journaled.
        if run.segments > run.crashes + 1 {
            run.violations.push(format!(
                "oracle3/bounded-unavailability: {} segments for {} crashes",
                run.segments, run.crashes
            ));
        }
        if sup.epochs > 0 && prev != Some(sup.epochs - 1) {
            run.violations.push(format!(
                "oracle3/bounded-unavailability: last journaled epoch {prev:?}, expected {}",
                sup.epochs - 1
            ));
        }
        // Oracle 4: at a clean shutdown the journal projection *is* the
        // live state.
        let st = project(&replay.records);
        if replay.torn_tail {
            run.violations
                .push("oracle4/state-equality: torn tail after clean shutdown".into());
        }
        match st.deploy {
            Some((fp, rung, _)) => {
                if rung != rep.final_rung {
                    run.violations.push(format!(
                        "oracle4/state-equality: journal rung {rung}, live {}",
                        rep.final_rung
                    ));
                }
                match journal.get_build(fp) {
                    // The corrupt-artifacts hook deliberately desyncs
                    // stored artifacts from their fingerprints; skip the
                    // identity check under it.
                    Some(sb) if opts.corrupt_artifacts.is_none() => {
                        if sb.prog.fingerprint() != fp {
                            run.violations.push(
                                "oracle4/state-equality: deployed artifact does not match its fingerprint"
                                    .into(),
                            );
                        }
                    }
                    Some(_) => {}
                    None => run.violations.push(
                        "oracle4/state-equality: journal points at a missing artifact".into(),
                    ),
                }
            }
            None => run
                .violations
                .push("oracle4/state-equality: no durable deploy record".into()),
        }
        if st.breaker != rep.breaker {
            run.violations.push(format!(
                "oracle4/state-equality: journal breaker {:?}, live {:?}",
                st.breaker, rep.breaker
            ));
        }
        if st.failures != rep.rebuild_failures {
            run.violations.push(format!(
                "oracle4/state-equality: journal failures {}, live {}",
                st.failures, rep.rebuild_failures
            ));
        }
        let journal_budget = st
            .scav_budget
            .map_or(sup.scavengers, |b| (b as usize).min(sup.scavengers));
        if journal_budget != rep.scav_budget_final {
            run.violations.push(format!(
                "oracle4/state-equality: journal scavenger budget {journal_budget}, live {}",
                rep.scav_budget_final
            ));
        }
        // Oracle 5: breaker-open implies scavenger-only-or-lower.
        if rep.breaker == BreakerState::Open && rep.final_rung == Rung::FullPgo {
            run.violations
                .push("oracle5/breaker-rung: breaker open with a full-PGO build serving".into());
        }
        if st.breaker == BreakerState::Open {
            if let Some((_, rung, _)) = st.deploy {
                if rung == Rung::FullPgo {
                    run.violations.push(
                        "oracle5/breaker-rung: journal records breaker open over full-PGO".into(),
                    );
                }
            }
        }
    }

    run.incident_hash = incidents_hash(&run.incidents);
    Ok(run)
}

/// Draws one randomized schedule. Arming probabilities are tuned so
/// most schedules mix a crash with one or two fault classes — the
/// regime the recovery path must survive.
pub fn random_schedule(rng: &mut SplitMix64) -> ChaosSchedule {
    let mut plan = FaultPlan::none(rng.next_u64());
    if rng.next_f64() < 0.30 {
        plan = plan.with_pebs_drop(0.1 + 0.4 * rng.next_f64());
    }
    if rng.next_f64() < 0.20 {
        plan = plan.with_pebs_extra_skid(1 + rng.next_below(8) as u32);
    }
    if rng.next_f64() < 0.20 {
        plan = plan.with_pebs_pc_corrupt(0.1 + 0.3 * rng.next_f64(), 2 + rng.next_below(8) as u32);
    }
    if rng.next_f64() < 0.20 {
        plan = plan.with_lbr_drop(0.2 + 0.5 * rng.next_f64());
    }
    if rng.next_f64() < 0.20 {
        plan =
            plan.with_prefetch_corrupt(0.2 + 0.5 * rng.next_f64(), 4 + rng.next_below(12) as u32);
    }
    if rng.next_f64() < 0.15 {
        plan = plan.with_trap_every(20_000 + rng.next_below(80_000));
    }
    if rng.next_f64() < 0.50 {
        plan = plan.with_torn_write(0.3 + 0.7 * rng.next_f64());
    }
    if rng.next_f64() < 0.35 {
        plan = plan.with_partial_flush(0.2 + 0.5 * rng.next_f64());
    }
    let n_crashes = match rng.next_below(8) {
        0 => 0,
        1..=4 => 1,
        5 | 6 => 2,
        _ => 3,
    } as usize;
    let crashes = (0..n_crashes).map(|_| 1 + rng.next_below(24)).collect();
    ChaosSchedule {
        plan,
        crashes,
        stale_rebuilds: rng.next_f64() < 0.25,
        runaway: rng.next_f64() < 0.25,
    }
}

/// Aggregate outcome of a campaign batch.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Schedules executed.
    pub campaigns: u64,
    /// Schedules with at least one oracle violation.
    pub violating: u64,
    /// Every violating schedule with its violations, in campaign order.
    pub violations: Vec<(ChaosSchedule, Vec<String>)>,
    /// Crashes injected across all campaigns.
    pub crashes: u64,
    /// Supervision segments across all campaigns.
    pub segments: u64,
    /// Degraded recoveries across all campaigns.
    pub recoveries_degraded: u64,
    /// Torn journal tails detected across all campaigns.
    pub torn_tails: u64,
    /// Jobs served across all campaigns.
    pub served: u64,
    /// Jobs shed across all campaigns.
    pub shed_jobs: u64,
    /// Hot swaps across all campaigns.
    pub swaps: u64,
    /// Rebuild attempts across all campaigns.
    pub rebuilds: u64,
    /// Records in the final durable journals, summed.
    pub journal_records: u64,
    /// Order-sensitive fold of every campaign's cross-restart incident
    /// hash — one number that certifies the whole batch replayed
    /// bit-for-bit.
    pub xr_hash: u64,
}

/// Runs `n` seed-derived random schedules and aggregates. Campaign `i`
/// of seed `s` is identical across processes and reruns.
pub fn run_campaigns(
    factory: &mut dyn FnMut(&ChaosSchedule) -> ChaosWorld,
    n: u64,
    seed: u64,
    opts: &ChaosOptions,
) -> Result<CampaignReport, ChaosConfigError> {
    let mut rng = SplitMix64::new(seed ^ 0xC4A0_5EED);
    let mut rep = CampaignReport::default();
    for _ in 0..n {
        let schedule = random_schedule(&mut rng);
        let run = run_schedule(factory, &schedule, opts)?;
        rep.campaigns += 1;
        rep.crashes += run.crashes;
        rep.segments += run.segments;
        rep.recoveries_degraded += run.recoveries_degraded;
        rep.torn_tails += run.torn_tails;
        rep.served += run.served;
        rep.shed_jobs += run.shed_jobs;
        rep.swaps += run.swaps;
        rep.rebuilds += run.rebuilds;
        rep.journal_records += run.journal_records;
        rep.xr_hash = mix64(rep.xr_hash, run.incident_hash);
        if !run.violations.is_empty() {
            rep.violating += 1;
            rep.violations.push((schedule, run.violations));
        }
    }
    Ok(rep)
}

/// Greedily shrinks a violating schedule: drop crashes, zero channels,
/// clear workload classes, bisect crash instants toward 1 — keeping
/// each transformation only if the schedule still violates — until a
/// fixpoint or the trial `budget` is exhausted. Returns the minimal
/// schedule and the trials spent.
pub fn minimize(
    factory: &mut dyn FnMut(&ChaosSchedule) -> ChaosWorld,
    schedule: &ChaosSchedule,
    opts: &ChaosOptions,
    budget: u64,
) -> Result<(ChaosSchedule, u64), ChaosConfigError> {
    if schedule.runaway && opts.sup.dual.watchdog.is_none() {
        return Err(ChaosConfigError::RunawayWithoutWatchdog);
    }
    let mut best = schedule.clone();
    let mut trials = 0u64;
    let clears: [fn(&mut ChaosSchedule); 10] = [
        |s| s.stale_rebuilds = false,
        |s| s.runaway = false,
        |s| s.plan.pebs_drop = 0.0,
        |s| s.plan.pebs_extra_skid = 0,
        |s| s.plan.pebs_pc_corrupt = 0.0,
        |s| s.plan.lbr_drop = 0.0,
        |s| s.plan.prefetch_corrupt = 0.0,
        |s| s.plan.trap_every = None,
        |s| s.plan.torn_write = 0.0,
        |s| s.plan.partial_flush = 0.0,
    ];
    loop {
        let mut improved = false;
        // Drop whole crashes, last first (later crashes are most often
        // irrelevant to an early violation).
        let mut i = best.crashes.len();
        while i > 0 {
            i -= 1;
            if trials >= budget {
                return Ok((best, trials));
            }
            let mut cand = best.clone();
            cand.crashes.remove(i);
            trials += 1;
            if !run_schedule(&mut *factory, &cand, opts)?
                .violations
                .is_empty()
            {
                best = cand;
                improved = true;
            }
        }
        // Zero each armed channel / workload class.
        for clear in clears {
            let mut cand = best.clone();
            clear(&mut cand);
            if cand == best {
                continue;
            }
            if trials >= budget {
                return Ok((best, trials));
            }
            trials += 1;
            if !run_schedule(&mut *factory, &cand, opts)?
                .violations
                .is_empty()
            {
                best = cand;
                improved = true;
            }
        }
        // Bisect each surviving crash instant toward 1.
        for i in 0..best.crashes.len() {
            while best.crashes[i] > 1 {
                if trials >= budget {
                    return Ok((best, trials));
                }
                let mut cand = best.clone();
                cand.crashes[i] /= 2;
                trials += 1;
                if !run_schedule(&mut *factory, &cand, opts)?
                    .violations
                    .is_empty()
                {
                    best = cand;
                    improved = true;
                } else {
                    break;
                }
            }
        }
        if !improved {
            return Ok((best, trials));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::{pgo_pipeline_degrading, DegradeOptions};
    use reach_profile::{OnlineEstimatorOptions, Periods};
    use reach_sim::{AluOp, Cond, Context, Inst, MachineConfig, ProgramBuilder, Reg};
    use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

    const LOOKUPS: u64 = 1024;

    /// The same drift-prone zipf-KV service the supervisor tests run:
    /// the deployed profile was built against a uniform distribution,
    /// live traffic is heavily skewed, so staleness trips a rebuild a
    /// few epochs in — giving crash points plenty of loop stages to
    /// land in.
    struct ChaosService {
        live: Vec<InstanceSetup>,
        cursor: usize,
        prof_live: Vec<InstanceSetup>,
        prof_cursor: usize,
        runaway: Option<Program>,
    }

    impl ServiceWorkload for ChaosService {
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

    fn drift_world(schedule: &ChaosSchedule) -> ChaosWorld {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x800_0000);
        let params = |theta: f64, seed: u64| ZipfKvParams {
            table_entries: 1 << 15,
            lookups: LOOKUPS,
            theta,
            seed,
        };
        let live = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 13), 56);
        let stale = build_zipf_kv(&mut m.mem, &mut alloc, params(0.0, 11), 8);
        let prof = build_zipf_kv(&mut m.mem, &mut alloc, params(3.0, 17), 12);
        let orig = live.prog.clone();
        let svc = ChaosService {
            live: live.instances,
            cursor: 0,
            prof_live: prof.instances,
            prof_cursor: 0,
            runaway: schedule.runaway.then(runaway_prog),
        };
        // Initial deployment is built against the *stale* distribution,
        // so live traffic reads as drifted and rebuilds actually fire.
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

    fn chaos_opts() -> ChaosOptions {
        ChaosOptions::new(SupervisorOptions {
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
            // A runaway scavenger without a watchdog gets an unbounded
            // slice: random schedules arm the runaway class, so the
            // slices must be bounded for campaigns to terminate.
            dual: crate::dualmode::DualModeOptions {
                drain_scavengers: false,
                isolate_faults: true,
                watchdog: Some(crate::dualmode::WatchdogOptions {
                    slice_steps: 2_000,
                    overrun_cycles: 500,
                    max_overruns: u32::MAX,
                    ..crate::dualmode::WatchdogOptions::default()
                }),
                ..crate::dualmode::DualModeOptions::default()
            },
            ..SupervisorOptions::default()
        })
    }

    #[test]
    fn crash_heavy_schedule_survives_with_zero_violations() {
        let schedule = ChaosSchedule {
            plan: FaultPlan::none(0xBEEF)
                .with_torn_write(0.6)
                .with_partial_flush(0.4),
            crashes: vec![4, 3],
            stale_rebuilds: false,
            runaway: false,
        };
        let run = run_schedule(&mut drift_world, &schedule, &chaos_opts()).unwrap();
        assert_eq!(run.violations, Vec::<String>::new());
        assert_eq!(run.crashes, 2);
        assert_eq!(run.segments, 3);
        assert!(run.final_report.is_some());
        assert!(run.journal_records > 0);
        // Same schedule, fresh world: the cross-restart incident log
        // replays bit-for-bit.
        let again = run_schedule(&mut drift_world, &schedule, &chaos_opts()).unwrap();
        assert_eq!(run.incident_hash, again.incident_hash);
        assert_eq!(run.served, again.served);
        assert_eq!(run.journal_records, again.journal_records);
    }

    #[test]
    fn random_campaigns_find_no_violations_in_correct_recovery() {
        let rep = run_campaigns(&mut drift_world, 4, 7, &chaos_opts()).unwrap();
        assert_eq!(rep.campaigns, 4);
        assert_eq!(rep.violating, 0, "{:?}", rep.violations);
        assert!(rep.served > 0);
    }

    /// The acceptance demo: a recovery path that skips re-validation
    /// (the `revalidate: false` hook) serves a bit-rotted artifact, the
    /// campaign oracles catch it, and the shrinker reduces the schedule
    /// to a ≤3-event repro.
    #[test]
    fn broken_recovery_is_caught_and_minimized_to_a_tiny_repro() {
        let mut opts = chaos_opts();
        opts.recover.revalidate = false;
        // Clobber every yield's save set: the liveness-derived register
        // saves are what the symbolic-equivalence gate certifies, so
        // this is real bit-rot the gates must refuse.
        opts.corrupt_artifacts = Some(|b: &mut StoredBuild| {
            for inst in &mut b.prog.insts {
                if let Inst::Yield { save_regs, .. } = inst {
                    *save_regs = Some(0);
                }
            }
        });
        let noisy = ChaosSchedule {
            plan: FaultPlan::none(0x51AB)
                .with_torn_write(0.5)
                .with_lbr_drop(0.4),
            crashes: vec![6],
            stale_rebuilds: true,
            runaway: false,
        };
        assert_eq!(noisy.event_count(), 4);
        let run = run_schedule(&mut drift_world, &noisy, &opts).unwrap();
        assert!(
            run.violations.iter().any(|v| v.contains("oracle1")),
            "broken recovery not caught: {:?}",
            run.violations
        );
        let (minimal, trials) = minimize(&mut drift_world, &noisy, &opts, 64).unwrap();
        assert!(trials > 0);
        assert!(
            minimal.event_count() <= 3,
            "not minimal: {} events, {}",
            minimal.event_count(),
            minimal.repro()
        );
        assert!(!minimal.crashes.is_empty(), "a crash is load-bearing here");
        // The minimal schedule still reproduces, and its repro string is
        // the real constructor chain.
        let rerun = run_schedule(&mut drift_world, &minimal, &opts).unwrap();
        assert!(rerun.violations.iter().any(|v| v.contains("oracle1")));
        assert!(
            minimal.repro().starts_with("ChaosSchedule {"),
            "{}",
            minimal.repro()
        );
        // With re-validation restored, the very same corruption is
        // degraded around instead of served.
        let fixed = ChaosOptions {
            recover: RecoverOptions { revalidate: true },
            ..opts
        };
        let healed = run_schedule(&mut drift_world, &minimal, &fixed).unwrap();
        assert_eq!(healed.violations, Vec::<String>::new());
        assert!(healed.recoveries_degraded >= 1);
    }

    #[test]
    fn runaway_schedule_without_watchdog_is_a_typed_error() {
        // The documented footgun: a runaway arm with no watchdog pins
        // every scavenger slice until the unwatched-step cap — an
        // effective hang. The engine must refuse the configuration
        // up front instead of spinning.
        let mut opts = chaos_opts();
        opts.sup.dual.watchdog = None;
        let schedule = ChaosSchedule {
            runaway: true,
            ..ChaosSchedule::quiet(3)
        };
        let err = run_schedule(&mut drift_world, &schedule, &opts).unwrap_err();
        assert_eq!(err, ChaosConfigError::RunawayWithoutWatchdog);
        // The same guard protects the shrinker's re-runs.
        let err = minimize(&mut drift_world, &schedule, &opts, 8).unwrap_err();
        assert_eq!(err, ChaosConfigError::RunawayWithoutWatchdog);
        // With the watchdog armed the identical schedule is accepted.
        let run = run_schedule(&mut drift_world, &schedule, &chaos_opts()).unwrap();
        assert_eq!(run.violations, Vec::<String>::new());
        // Supervisor-level validation still surfaces, wrapped.
        let mut bad = chaos_opts();
        bad.sup.max_rebuild_failures = 0;
        let err = run_schedule(&mut drift_world, &ChaosSchedule::quiet(1), &bad).unwrap_err();
        assert!(matches!(err, ChaosConfigError::Supervisor(_)));
    }

    #[test]
    fn event_count_and_repro_track_armed_channels() {
        let mut s = ChaosSchedule::quiet(9);
        assert_eq!(s.event_count(), 0);
        assert_eq!(
            s.repro(),
            "ChaosSchedule { plan: FaultPlan::none(0x9), crashes: vec![], \
             stale_rebuilds: false, runaway: false }"
        );
        s.plan = s.plan.with_torn_write(0.5).with_trap_every(100);
        s.crashes = vec![3, 9];
        s.stale_rebuilds = true;
        assert_eq!(s.event_count(), 5);
        let r = s.repro();
        assert!(r.contains(".with_torn_write(0.5)"), "{r}");
        assert!(r.contains(".with_trap_every(100)"), "{r}");
        assert!(r.contains("crashes: vec![3, 9]"), "{r}");
        assert!(!r.contains("with_lbr_drop"), "{r}");
    }
}
