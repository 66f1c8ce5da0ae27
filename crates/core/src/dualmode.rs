//! Dual-mode execution: the run-time half of asymmetric concurrency
//! (§3.3).
//!
//! One latency-sensitive *primary* coroutine co-runs with a pool of
//! *scavenger* coroutines:
//!
//! * the primary yields only at primary-instrumented sites (likely cache
//!   misses, prefetch already issued);
//! * a scavenger runs until it hits a scavenger-phase conditional yield —
//!   placed ≈ one hide-interval apart — and then yields straight back to
//!   the primary;
//! * a scavenger that hits one of its *own* primary yields too early
//!   instead hands off to **another** scavenger ("scale up the number of
//!   scavenger coroutines on demand"), because its own prefetch is now in
//!   flight and somebody has to consume cycles.
//!
//! The result: the primary's misses are hidden behind scavenger work, and
//! the primary regains the CPU after ≈ the hide target, bounding its
//! latency inflation — the property neither SMT nor symmetric round-robin
//! provides.

use reach_sim::{
    Context, ExecError, Exit, Lane, Machine, Mode, Next, Program, Status, SwitchKind, YieldKind,
};

/// Scavenger watchdog configuration: the runtime containment for
/// scavengers whose conditional yields never fire (elided by a bad
/// rewrite, optimized out, or simply third-party code that does not
/// cooperate). The static reach-lint gate catches the first case before
/// shipping; the watchdog bounds the damage when a runaway slips through
/// anyway.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogOptions {
    /// Instruction budget per scavenger slice; a scavenger still running
    /// after this many instructions is forcibly preempted (the fill ends
    /// and the primary gets the CPU back).
    pub slice_steps: u64,
    /// A slice longer than this many cycles counts as an overrun against
    /// the scavenger that ran it.
    pub overrun_cycles: u64,
    /// Overruns after which a scavenger is quarantined: excluded from
    /// serving fills for the rest of the run and recorded in
    /// [`DualModeReport::quarantined`]. The post-primary drain, where
    /// latency is no longer at stake, still completes it.
    pub max_overruns: u32,
}

/// Per-slice instruction budget for scavengers when **no** watchdog is
/// armed. Historically an unwatched scavenger inherited the whole
/// per-context budget (`u64::MAX` by default) as its slice budget, so a
/// single runaway scavenger could hang the entire dual-mode run during
/// one fill. Large enough that no legitimate scavenger slice ever hits
/// it (the watchdog default is 50 k steps; this is 80×), small enough
/// that a runaway faults out in bounded time.
pub const DEFAULT_UNWATCHED_SLICE_STEPS: u64 = 4_000_000;

impl Default for WatchdogOptions {
    fn default() -> Self {
        WatchdogOptions {
            slice_steps: 50_000,
            overrun_cycles: 1_200,
            max_overruns: 3,
        }
    }
}

/// Cycles of scavenger work that suffice to hide a primary miss (the
/// default DRAM latency). A fill keeps chaining scavengers until it has
/// run this long.
const HIDE_TARGET: u64 = 300;

/// Options for a dual-mode run.
#[derive(Clone, Copy, Debug)]
pub struct DualModeOptions {
    /// Per-context instruction budget.
    pub max_steps_per_ctx: u64,
    /// After the primary completes, run remaining scavengers to
    /// completion (symmetrically interleaved).
    pub drain_scavengers: bool,
    /// Scavenger watchdog (None = no overrun containment, the
    /// pre-hardening behaviour).
    pub watchdog: Option<WatchdogOptions>,
    /// Trap isolation: an [`ExecError`] in any context retires that
    /// context with a record in [`DualModeReport::context_faults`]
    /// instead of aborting the run.
    pub isolate_faults: bool,
}

impl Default for DualModeOptions {
    fn default() -> Self {
        DualModeOptions {
            max_steps_per_ctx: u64::MAX,
            drain_scavengers: true,
            watchdog: None,
            isolate_faults: false,
        }
    }
}

/// Result of a dual-mode run.
#[derive(Clone, Debug, Default)]
pub struct DualModeReport {
    /// Primary wall-clock latency in cycles (start to halt).
    pub primary_latency: Option<u64>,
    /// Total cycles for the whole run (including scavenger drain).
    pub total_cycles: u64,
    /// Most scavengers consumed for a single primary miss (the on-demand
    /// scale-up depth).
    pub max_scavengers_per_fill: usize,
    /// Scavenger contexts that ran at least once.
    pub scavengers_used: usize,
    /// Scavenger contexts that ran to completion.
    pub scavengers_completed: usize,
    /// Cycles the primary spent away from the CPU per fill — one entry
    /// per primary yield, **including starved fills** (which record the
    /// switch overhead they still paid). Keeping starved fills in the
    /// sample is what keeps [`DualModeReport::mean_fill`] an unbiased
    /// mean over *all* fills rather than only the hidden ones.
    pub fill_times: Vec<u64>,
    /// Primary yields with no runnable scavenger available (the fill ran
    /// on nothing and the miss was *not* hidden).
    pub starved_fills: u64,
    /// Scavenger slices the watchdog counted as overruns.
    pub overruns: u64,
    /// Context ids of scavengers quarantined by the watchdog (repeat
    /// overrun offenders, excluded from serving fills for the rest of
    /// the run), each once, in quarantine order.
    pub quarantined: Vec<usize>,
    /// Contexts retired by trap isolation: `(context id, error)` in
    /// fault order. Empty unless [`DualModeOptions::isolate_faults`].
    pub context_faults: Vec<(usize, ExecError)>,
}

impl DualModeReport {
    /// Mean fill time in cycles (0 when no fills happened).
    pub fn mean_fill(&self) -> f64 {
        if self.fill_times.is_empty() {
            0.0
        } else {
            self.fill_times.iter().sum::<u64>() as f64 / self.fill_times.len() as f64
        }
    }
}

/// Watchdog state of one scavenger.
#[derive(Clone, Copy, Default)]
struct Scav {
    used: bool,
    overruns: u32,
    /// Excluded from fills for the rest of the run.
    quarantined: bool,
}

/// Runs `primary` over `primary_prog` co-scheduled with `scavengers` over
/// `scav_prog` under the dual-mode discipline.
///
/// The primary context is forced into [`Mode::Primary`] and scavengers
/// into [`Mode::Scavenger`] (so the conditional scavenger yields fire only
/// in the pool).
///
/// # Errors
///
/// Propagates workload execution errors.
pub fn run_dual_mode(
    machine: &mut Machine,
    primary_prog: &Program,
    primary: &mut Context,
    scav_prog: &Program,
    scavengers: &mut [Context],
    opts: &DualModeOptions,
) -> Result<DualModeReport, ExecError> {
    let started_at = machine.now;
    primary.mode = Mode::Primary;
    for s in scavengers.iter_mut() {
        s.mode = Mode::Scavenger;
    }
    // Per-slice instruction budget: the watchdog preempts long before
    // the overall per-context budget would. Unwatched runs still get a
    // large-but-finite slice ceiling — without it a runaway scavenger
    // inherits `max_steps_per_ctx` (`u64::MAX` by default) and hangs the
    // run inside a single fill; with it the runaway hits `StepLimit`,
    // faults out, and the primary proceeds.
    let unwatched = DEFAULT_UNWATCHED_SLICE_STEPS.min(opts.max_steps_per_ctx);
    let slice_budget = match &opts.watchdog {
        Some(w) => w.slice_steps.min(opts.max_steps_per_ctx),
        None => unwatched,
    };
    let mut report = DualModeReport {
        // One entry per primary yield: a served job records about a
        // thousand, which from an empty `Vec` is ten reallocations.
        fill_times: Vec::with_capacity(1024),
        ..DualModeReport::default()
    };
    let n = scavengers.len();
    let mut pool = vec![Scav::default(); n];
    // Round-robin cursor into the pool.
    let mut next_scav = 0usize;
    // The open fill — it opens when the primary yields and closes when
    // the core goes back to it — and the scavenger slice running in it.
    let (mut fill_start, mut slice_start, mut scavs_this_fill) = (0, 0, 0usize);

    // The discipline as the engine's fill policy: lane 0 is the primary,
    // lane `i + 1` scavenger `i`.
    let mut lanes = Vec::with_capacity(1 + n);
    lanes.push(Lane::new(primary_prog, primary, opts.max_steps_per_ctx));
    lanes.extend(scavengers.iter_mut().map(|s| Lane::new(scav_prog, s, 0)));
    machine.run_lanes(
        &mut lanes,
        #[inline(always)]
        |m, lanes, stopped| {
            let Some((lane, event)) = stopped else {
                return Next::Run(0);
            };
            let fill_goes_on = match event {
                Err(e) if opts.isolate_faults => {
                    // Trap isolation: retire this context only; a fill
                    // keeps going with the next scavenger.
                    lanes[lane].ctx.status = Status::Faulted;
                    report.context_faults.push((lanes[lane].ctx.id, e));
                    if lane == 0 {
                        return Next::Return(Ok(()));
                    }
                    true
                }
                Err(e) => return Next::Return(Err(e)),
                Ok(Exit::Stalled { .. }) => unreachable!("switch_on_stall is disabled here"),
                Ok(exit) if lane > 0 => {
                    let (s, ctx) = (&mut pool[lane - 1], &mut *lanes[lane].ctx);
                    let elapsed = m.now - fill_start;
                    // Watchdog overrun accounting, per slice: repeat
                    // offenders are quarantined, retired from fills for
                    // the rest of the run.
                    if let Some(w) = opts.watchdog.as_ref().filter(|w| {
                        m.now - slice_start > w.overrun_cycles || exit == Exit::StepLimit
                    }) {
                        s.overruns += 1;
                        report.overruns += 1;
                        if s.overruns >= w.max_overruns {
                            s.quarantined = true;
                            report.quarantined.push(ctx.id);
                        }
                    }
                    match exit {
                        // A finished scavenger that has not hidden the
                        // miss yet is followed by another.
                        Exit::Done => {
                            report.scavengers_completed += 1;
                            elapsed < HIDE_TARGET
                        }
                        // Watchdog preemption, not a fault: the scavenger
                        // stays runnable (unless just quarantined) but
                        // the primary gets the CPU back now.
                        Exit::StepLimit if opts.watchdog.is_some() => false,
                        Exit::StepLimit => {
                            ctx.status = Status::Faulted;
                            true
                        }
                        Exit::Yielded {
                            kind, save_regs, ..
                        } => {
                            m.charge_switch(SwitchKind::Coroutine(save_regs));
                            // Its own likely-miss, with the target not
                            // reached: hand off to another scavenger to
                            // consume more cycles. A scavenger-phase
                            // yield means it ran long enough.
                            let chain = matches!(kind, YieldKind::Primary | YieldKind::IfAbsent)
                                && elapsed < HIDE_TARGET
                                && !s.quarantined;
                            if chain {
                                next_scav = if lane == n { 0 } else { lane };
                            }
                            chain
                        }
                        Exit::Stalled { .. } => unreachable!(),
                    }
                }
                Ok(Exit::Yielded { save_regs, .. }) => {
                    // The primary just prefetched and yielded: fill the
                    // gap with scavenger work.
                    fill_start = m.now;
                    m.charge_switch(SwitchKind::Coroutine(save_regs));
                    scavs_this_fill = 0;
                    true
                }
                Ok(_) => return Next::Return(Ok(())),
            };
            if fill_goes_on {
                // The next runnable, non-quarantined scavenger: round
                // robin from the cursor, wrapping once.
                let pick = crate::executor::round_robin(next_scav, n)
                    .find(|&i| lanes[i + 1].ctx.status == Status::Runnable && !pool[i].quarantined);
                if let Some(i) = pick {
                    next_scav = i;
                    let s = &mut pool[i];
                    if !s.used {
                        s.used = true;
                        report.scavengers_used += 1;
                    }
                    scavs_this_fill += 1;
                    slice_start = m.now;
                    lanes[i + 1].budget = slice_budget;
                    return Next::Run(i + 1);
                }
                if scavs_this_fill == 0 {
                    report.starved_fills += 1;
                }
            }
            // The core goes back to the primary.
            report.max_scavengers_per_fill = report.max_scavengers_per_fill.max(scavs_this_fill);
            // Unconditional: starved fills record their (switch-only)
            // fill time too, keeping mean_fill unbiased.
            report.fill_times.push(m.now - fill_start);
            lanes[0].budget = opts.max_steps_per_ctx;
            Next::Run(0)
        },
    )?;
    report.primary_latency = primary.stats.latency();

    if opts.drain_scavengers {
        // Latency is no longer at stake, so the watchdog's slice is not
        // the bound here; the runaway ceiling of an unwatched fill is,
        // per context, and what exhausts it is retired the same way — a
        // quarantined scavenger that never halts is still runnable.
        let iopts = crate::executor::InterleaveOptions {
            max_steps_per_ctx: unwatched,
            isolate_faults: opts.isolate_faults,
            ..crate::executor::InterleaveOptions::default()
        };
        let drain = crate::executor::run_interleaved(machine, scav_prog, scavengers, &iopts)?;
        report.scavengers_completed += drain.completed;
        report.context_faults.extend(drain.faults);
        for s in scavengers.iter_mut().filter(|s| s.is_runnable()) {
            s.status = Status::Faulted;
        }
    }

    report.total_cycles = machine.now - started_at;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Cond, Inst, MachineConfig, ProgramBuilder, Reg};

    /// Primary-instrumented chase program with scavenger yields after the
    /// compute (the shape the full pipeline produces).
    fn dual_instrumented_chase(with_scav_yields: bool) -> Program {
        let mut b = ProgramBuilder::new("dchase");
        let top = b.label();
        b.bind(top);
        b.prefetch(Reg(0), 0);
        b.push(Inst::Yield {
            kind: YieldKind::Primary,
            save_regs: Some((1 << 0) | (1 << 1) | (1 << 6) | (1 << 7)),
        });
        b.load(Reg(4), Reg(0), 0);
        b.load(Reg(3), Reg(0), 8);
        b.alu(AluOp::Add, Reg(7), Reg(7), Reg(3), 1);
        // Some per-hop compute so scavengers actually consume cycles.
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(6), 60);
        if with_scav_yields {
            b.push(Inst::Yield {
                kind: YieldKind::Scavenger,
                save_regs: Some((1 << 0) | (1 << 1) | (1 << 2) | (1 << 6) | (1 << 7)),
            });
        }
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    fn lay_chain(m: &mut Machine, base: u64, n: u64) -> u64 {
        for i in 0..n {
            let addr = base + i * 4096;
            let next = if i + 1 == n { 0 } else { base + (i + 1) * 4096 };
            m.mem.write(addr, next).unwrap();
            m.mem.write(addr + 8, addr ^ 0x9999).unwrap();
        }
        base
    }

    fn ctx_for(id: usize, head: u64, hops: u64) -> Context {
        let mut c = Context::new(id);
        c.set_reg(Reg(0), head);
        c.set_reg(Reg(1), hops);
        c.set_reg(Reg(6), 1);
        c
    }

    #[test]
    fn primary_latency_stays_near_solo_while_scavengers_add_work() {
        let prog = dual_instrumented_chase(true);
        let hops = 64u64;

        // Solo primary (no scavengers): baseline latency.
        let mut m0 = Machine::new(MachineConfig::default());
        let h = lay_chain(&mut m0, 0x100_0000, hops);
        let mut p0 = ctx_for(0, h, hops);
        let r0 = run_dual_mode(
            &mut m0,
            &prog,
            &mut p0,
            &prog,
            &mut [],
            &DualModeOptions::default(),
        )
        .unwrap();
        let solo_latency = r0.primary_latency.unwrap();
        assert_eq!(r0.starved_fills as usize, r0.fill_times.len());

        // With 4 scavengers.
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let mut scavs: Vec<Context> = (0..4)
            .map(|i| {
                let h = lay_chain(&mut m, 0x800_0000 + 0x100_0000 * i as u64, hops);
                ctx_for(i + 1, h, hops)
            })
            .collect();
        let r = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &prog,
            &mut scavs,
            &DualModeOptions::default(),
        )
        .unwrap();
        let dual_latency = r.primary_latency.unwrap();
        assert!(r.scavengers_used >= 1);
        assert_eq!(r.scavengers_completed, 4, "drain finishes the pool");

        // The primary runs a little slower than solo (switch overhead +
        // fill granularity) but nowhere near the 5x of fair sharing with
        // 4 co-runners.
        assert!(
            dual_latency < solo_latency * 2,
            "dual {dual_latency} vs solo {solo_latency}"
        );
        // And the machine did far more useful work per cycle than solo.
        assert!(m.counters.cpu_efficiency() > m0.counters.cpu_efficiency());
    }

    #[test]
    fn scavenger_primary_yield_scales_up_pool() {
        // Scavengers run the *same* chase program: they hit their own
        // primary yields immediately (prefetch+yield is the first thing in
        // the loop), forcing on-demand scale-up past one scavenger.
        let prog = dual_instrumented_chase(false); // no scavenger yields
        let hops = 16u64;
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let mut scavs: Vec<Context> = (0..6)
            .map(|i| {
                let h = lay_chain(&mut m, 0x800_0000 + 0x100_0000 * i as u64, hops);
                ctx_for(i + 1, h, hops)
            })
            .collect();
        let r = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &prog,
            &mut scavs,
            &DualModeOptions::default(),
        )
        .unwrap();
        assert!(
            r.max_scavengers_per_fill > 1,
            "pointer-chasing scavengers must chain: {}",
            r.max_scavengers_per_fill
        );
    }

    #[test]
    fn scavenger_yield_returns_promptly() {
        let prog = dual_instrumented_chase(true);
        let hops = 32u64;
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let mut scavs = vec![{
            let h = lay_chain(&mut m, 0x800_0000, hops * 4);
            ctx_for(1, h, hops * 4)
        }];
        let r = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &prog,
            &mut scavs,
            &DualModeOptions {
                drain_scavengers: false,
                ..DualModeOptions::default()
            },
        )
        .unwrap();
        // Fill times stay bounded: the scavenger's conditional yields
        // bring control back around the hide target, not arbitrarily late.
        let max_fill = r.fill_times.iter().max().copied().unwrap_or(0);
        assert!(
            max_fill < 4 * 300,
            "a fill ran {max_fill} cycles; scavenger yields are not returning"
        );
        assert_eq!(r.starved_fills, 0);
    }

    #[test]
    fn no_scavengers_counts_starved_fills() {
        let prog = dual_instrumented_chase(true);
        let hops = 8u64;
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let r = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &prog,
            &mut [],
            &DualModeOptions::default(),
        )
        .unwrap();
        assert_eq!(r.starved_fills, hops);
        assert_eq!(r.scavengers_used, 0);
    }

    /// A scavenger whose yields were all elided: pure compute, never
    /// hands the core back.
    fn runaway_prog(iters: u64) -> Program {
        let mut b = ProgramBuilder::new("runaway");
        b.imm(Reg(1), iters);
        b.imm(Reg(2), 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(2), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    /// Hand mutations, each of which fails this test: a quarantined
    /// offender is re-admitted after a fixed 5 000-cycle window (whether
    /// each repeat quarantine is recorded or only the first; the second
    /// shows only in the starved-fill count); `overruns` resets at the
    /// next pick; `quarantined` is never set.
    #[test]
    fn watchdog_quarantines_runaway_and_bounds_primary_latency() {
        let prog = dual_instrumented_chase(true);
        let scav = runaway_prog(20_000);
        let hops = 32u64;

        let run = |watchdog: Option<WatchdogOptions>| {
            let mut m = Machine::new(MachineConfig::default());
            let hp = lay_chain(&mut m, 0x100_0000, hops);
            let mut primary = ctx_for(0, hp, hops);
            let mut scavs = vec![Context::new(1)];
            let r = run_dual_mode(
                &mut m,
                &prog,
                &mut primary,
                &scav,
                &mut scavs,
                &DualModeOptions {
                    watchdog,
                    ..DualModeOptions::default()
                },
            )
            .unwrap();
            assert_eq!(primary.status, Status::Done);
            r
        };

        // Unprotected: the runaway consumes its entire program inside one
        // fill and the primary eats all of it.
        let loose = run(None);
        assert_eq!(loose.quarantined, Vec::<usize>::new());

        // Watchdog: slices are preempted, repeat offenses quarantine the
        // scavenger, and the primary's latency stays bounded.
        let w = WatchdogOptions {
            slice_steps: 200,
            overrun_cycles: 1_000,
            max_overruns: 3,
        };
        let tight = run(Some(w));
        assert_eq!(tight.quarantined, vec![1]);
        assert!(tight.overruns >= u64::from(w.max_overruns));
        // Quarantine is permanent: each of the first `max_overruns` fills
        // ran one preempted slice of the offender, and every fill after
        // them ran none while the primary was still running.
        assert_eq!(tight.max_scavengers_per_fill, 1);
        assert_eq!(
            tight.starved_fills,
            tight.fill_times.len() as u64 - u64::from(w.max_overruns),
            "the offender served a fill after its quarantine"
        );
        let (lw, ln) = (
            tight.primary_latency.unwrap(),
            loose.primary_latency.unwrap(),
        );
        assert!(
            lw * 2 < ln,
            "watchdog latency {lw} should be far below unprotected {ln}"
        );
        // The quarantined scavenger is preempted, not faulted: the drain
        // still ran it to completion.
        assert_eq!(tight.scavengers_completed, 1);
        assert!(tight.context_faults.is_empty());
    }

    /// A scavenger that never halts and never yields.
    fn runaway_forever() -> Program {
        let mut b = ProgramBuilder::new("runaway_forever");
        b.imm(Reg(2), 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Add, Reg(1), Reg(1), Reg(2), 1);
        b.branch(Cond::Nez, Reg(2), top); // Reg(2) == 1: always taken
        b.halt(); // unreachable
        b.finish().unwrap()
    }

    #[test]
    fn unwatched_runaway_faults_out_instead_of_hanging_the_run() {
        // Regression test for the unwatched-slice footgun: with no
        // watchdog armed, the scavenger slice budget used to inherit
        // `max_steps_per_ctx` (`u64::MAX` by default), so an *infinite*
        // runaway scavenger would hang the whole run inside one fill.
        // With the finite default the runaway hits its slice ceiling,
        // faults out, and the primary completes.
        let scav = runaway_forever();
        let prog = dual_instrumented_chase(true);
        let hops = 8u64;
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let mut scavs = vec![Context::new(1)];
        let r = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &scav,
            &mut scavs,
            &DualModeOptions {
                watchdog: None,
                drain_scavengers: false,
                ..DualModeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(primary.status, Status::Done);
        // A `StepLimit` without a watchdog armed is a fault, not a
        // preemption: the runaway is retired after exactly one slice.
        assert_eq!(scavs[0].status, Status::Faulted);
        assert!(
            scavs[0].stats.instructions <= DEFAULT_UNWATCHED_SLICE_STEPS + 2,
            "runaway ran {} instructions; slice ceiling did not engage",
            scavs[0].stats.instructions
        );
        assert!(r.quarantined.is_empty());
    }

    /// Regression test for the drain's half of the same footgun: a
    /// watchdog preempts and quarantines an infinite runaway but leaves
    /// it runnable, and the post-primary drain used to hand it the whole
    /// per-context budget (`u64::MAX` by default) — `run_dual_mode` never
    /// returned. The drain now runs under the unwatched slice ceiling and
    /// retires what exhausts it.
    #[test]
    fn watched_runaway_is_retired_by_the_drain_instead_of_hanging_it() {
        let scav = runaway_forever();
        let prog = dual_instrumented_chase(true);
        let hops = 8u64;
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let mut scavs = vec![Context::new(1)];
        let r = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &scav,
            &mut scavs,
            &DualModeOptions {
                watchdog: Some(WatchdogOptions {
                    slice_steps: 200,
                    ..WatchdogOptions::default()
                }),
                ..DualModeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(primary.status, Status::Done);
        assert_eq!(r.quarantined, vec![1], "preempted, then quarantined");
        // Quarantine left it runnable; the drain ran it up to the ceiling
        // and retired it, as an unwatched fill retires a runaway.
        assert_eq!(scavs[0].status, Status::Faulted);
        let ran = scavs[0].stats.instructions;
        assert!(
            (DEFAULT_UNWATCHED_SLICE_STEPS..DEFAULT_UNWATCHED_SLICE_STEPS + 2_000).contains(&ran),
            "the drain's ceiling is per context and on top of its fills: {ran}"
        );
        // Not completed, and not recorded as a fault: exhausting a
        // budget is not an execution error.
        assert_eq!(r.scavengers_completed, 0);
        assert!(r.context_faults.is_empty());
    }

    /// The block cache evicts whole programs, and an eviction shifts the
    /// index of every younger one. With a full cache, seating the
    /// scavengers' program must neither evict the primary's (the oldest,
    /// `age` 0) nor leave its lane pointing at what the shift put in its
    /// place (`age` 1: the oldest goes, every index moves down).
    #[test]
    fn a_full_block_cache_seats_both_programs_of_a_dual_mode_run() {
        use reach_sim::MAX_CACHED_PROGRAMS;
        let prog = dual_instrumented_chase(true);
        let scav = runaway_prog(500);
        let hops = 16u64;
        let run = |blocks: bool, age: usize| {
            let mut m = Machine::new(MachineConfig::default());
            m.blocks_enabled = blocks;
            let hp = lay_chain(&mut m, 0x100_0000, hops);
            // Other code than the primary's: a lane seated on one of
            // their tables must not get away with it.
            let warm: Vec<Program> = (1..MAX_CACHED_PROGRAMS as u64)
                .map(|i| runaway_prog(2 + i))
                .collect();
            let mut order: Vec<&Program> = warm.iter().collect();
            order.insert(age, &prog);
            for p in &order {
                let mut c = ctx_for(9, hp, 1);
                m.run_to_completion(p, &mut c, 1 << 20).unwrap();
            }
            let mut primary = ctx_for(0, hp, hops);
            let mut scavs = vec![Context::new(1), Context::new(2)];
            let opts = DualModeOptions::default();
            let r = run_dual_mode(&mut m, &prog, &mut primary, &scav, &mut scavs, &opts).unwrap();
            if blocks {
                assert_eq!(m.block_cache.cached_programs(), MAX_CACHED_PROGRAMS);
                assert!(m.block_cache.has_blocks_for(&prog), "the primary's stayed");
                assert!(m.block_cache.has_blocks_for(&scav));
                assert!(!m.block_cache.has_blocks_for(order[(age == 0) as usize]));
            }
            let regs: Vec<_> = scavs.iter().map(|s| s.regs).collect();
            (r.fill_times, m.now, m.counters, primary.regs, regs)
        };
        for age in [0, 1] {
            assert_eq!(run(true, age), run(false, age), "primary's age {age}");
        }
    }

    #[test]
    fn isolated_trap_retires_scavenger_and_primary_completes() {
        let prog = dual_instrumented_chase(true);
        // A scavenger that traps immediately: `ret` with an empty call
        // stack.
        let trap = {
            let mut b = ProgramBuilder::new("trap");
            b.ret();
            b.finish().unwrap()
        };
        let hops = 8u64;

        // Without isolation the whole run aborts.
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let mut scavs = vec![Context::new(1)];
        let err = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &trap,
            &mut scavs,
            &DualModeOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, ExecError::RetEmptyStack { pc: 0 });

        // With isolation only the trapping context retires.
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let mut scavs = vec![Context::new(1)];
        let r = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &trap,
            &mut scavs,
            &DualModeOptions {
                isolate_faults: true,
                ..DualModeOptions::default()
            },
        )
        .unwrap();
        assert_eq!(primary.status, Status::Done);
        assert!(r.primary_latency.is_some());
        assert_eq!(scavs[0].status, Status::Faulted);
        assert_eq!(
            r.context_faults,
            vec![(1, ExecError::RetEmptyStack { pc: 0 })]
        );
    }

    /// Regression: starved fills must still contribute a `fill_times`
    /// entry (the switch overhead they paid), so `mean_fill` averages
    /// over every fill rather than only the hidden ones.
    #[test]
    fn starved_fills_record_fill_time_entries() {
        let prog = dual_instrumented_chase(true);
        let hops = 8u64;
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, hops);
        let mut primary = ctx_for(0, hp, hops);
        let r = run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &prog,
            &mut [],
            &DualModeOptions::default(),
        )
        .unwrap();
        assert_eq!(r.starved_fills, hops);
        assert_eq!(
            r.fill_times.len(),
            hops as usize,
            "every starved fill records an entry"
        );
        assert!(
            r.fill_times.iter().all(|&t| t > 0),
            "starved fills still paid the switch overhead"
        );
        assert!(r.mean_fill() > 0.0);
    }

    #[test]
    fn modes_are_forced() {
        let prog = dual_instrumented_chase(true);
        let mut m = Machine::new(MachineConfig::default());
        let hp = lay_chain(&mut m, 0x100_0000, 4);
        let mut primary = ctx_for(0, hp, 4);
        primary.mode = Mode::Scavenger; // wrong on purpose
        let hs = lay_chain(&mut m, 0x800_0000, 4);
        let mut scavs = vec![ctx_for(1, hs, 4)];
        scavs[0].mode = Mode::Primary; // wrong on purpose
        run_dual_mode(
            &mut m,
            &prog,
            &mut primary,
            &prog,
            &mut scavs,
            &DualModeOptions::default(),
        )
        .unwrap();
        assert_eq!(primary.mode, Mode::Primary);
        assert_eq!(scavs[0].mode, Mode::Scavenger);
    }
}
