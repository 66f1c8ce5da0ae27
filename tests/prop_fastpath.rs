//! Differential property tests for the superblock engine.
//!
//! `Machine::run` has two dispatch tiers: the reference loop over
//! `Machine::step`, and the superblock engine (pre-decoded, cached basic
//! blocks), monomorphised once for a machine with nothing armed and once
//! for one with PEBS samplers or a fault injector. The engine must be
//! *observationally identical* to the reference on every program: same
//! exit sequence (including `StepLimit` boundaries at arbitrary chunk
//! sizes, and injected traps), same clock, same performance counters,
//! same registers, same memory and resident-page accounting, same LBR
//! records — and, when observed, the same sample streams, sampler
//! counters and fault log.
//!
//! The reference executor here is the same `Machine` with a passive
//! execution trace attached: tracing pins `run` to the `step` loop but
//! records without perturbing any simulated state, so any divergence is
//! a block-engine bug.
//!
//! The block engine additionally caches decoded blocks across runs, so
//! a dedicated property drives it with `Machine::invalidate_blocks`
//! fired between every resume: invalidation must be a pure cache event
//! with zero effect on simulated state.

mod common;

use common::{gen_program, machine_for, GenProgram, POOL, RB, REGION_WORDS};
use proptest::prelude::*;
use reach_sim::isa::{AluOp, Cond, ProgramBuilder, Reg};
use reach_sim::{
    Context, ExecError, Exit, FaultInjector, FaultLog, FaultPlan, HwEvent, Machine, PebsConfig,
    Program, Sample, Trace,
};

/// Which dispatch tier a differential run pins `Machine::run` to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    /// The `step` loop (passive trace attached).
    Reference,
    /// Superblock engine (the default).
    Blocks,
    /// Superblock engine with the block cache invalidated between every
    /// resume: each chunk recompiles from a cold cache. Exercises
    /// mid-run invalidation (the hot-swap path) at every `StepLimit`,
    /// yield and stall boundary.
    BlocksInvalidated,
}

/// What observes the run: programmed PEBS counters and a fault plan.
#[derive(Clone, Debug, Default)]
struct Arming {
    samplers: Vec<PebsConfig>,
    faults: Option<FaultPlan>,
}

/// Samplers over all four events with periods from 1 (every block has a
/// retirement sample landing in it), skid, and buffers small enough to
/// overflow.
fn gen_samplers() -> impl Strategy<Value = Vec<PebsConfig>> {
    let event = prop_oneof![
        Just(HwEvent::LoadL2Miss),
        Just(HwEvent::LoadL3Miss),
        Just(HwEvent::StallCycle),
        Just(HwEvent::InstRetired),
    ];
    let period = prop_oneof![1u64..4, 1u64..40, 40u64..400];
    prop::collection::vec(
        (event, period, 0u32..3, 1usize..32).prop_map(|(event, period, skid, buffer_capacity)| {
            PebsConfig {
                event,
                period,
                skid,
                buffer_capacity,
            }
        }),
        0..5,
    )
}

/// Fault plans over every machine-level channel. PEBS drop/corrupt pin
/// `run` to the reference loop when samplers are armed; they stay in the
/// mix (one plan in four) so that rule is exercised too.
fn gen_faults() -> impl Strategy<Value = Option<FaultPlan>> {
    let p = || prop_oneof![Just(0.0), Just(0.4), Just(1.0)];
    let trap = prop_oneof![Just(None), (1u64..300).prop_map(Some)];
    let pebs = prop_oneof![
        Just((0.0, 0.0)),
        Just((0.0, 0.0)),
        Just((0.0, 0.0)),
        Just((0.3, 0.3))
    ];
    let plan = (any::<u64>(), trap, (p(), p()), pebs, 0u32..3).prop_map(
        |(seed, trap_every, (prefetch, lbr), (drop, corrupt), skid)| FaultPlan {
            trap_every,
            ..FaultPlan::none(seed)
                .with_prefetch_corrupt(prefetch, 4)
                .with_lbr_drop(lbr)
                .with_pebs_extra_skid(skid)
                .with_pebs_drop(drop)
                .with_pebs_pc_corrupt(corrupt, 3)
        },
    );
    prop_oneof![Just(None), plan.prop_map(Some)]
}

fn gen_arming() -> impl Strategy<Value = Arming> {
    (gen_samplers(), gen_faults()).prop_map(|(samplers, faults)| Arming { samplers, faults })
}

/// Drives `prog` to completion (or to its first error — an injected
/// trap) in `chunk`-step slices, self-resuming yields and waiting out
/// parked stalls exactly like [`Machine::run_to_completion`], and returns
/// every observed exit.
fn drive(
    m: &mut Machine,
    prog: &Program,
    ctx: &mut Context,
    chunk: u64,
    invalidate: bool,
) -> Vec<Result<Exit, ExecError>> {
    let mut exits = Vec::new();
    for _ in 0..1_000_000u32 {
        if invalidate {
            m.invalidate_blocks();
        }
        let e = m.run(prog, ctx, chunk);
        exits.push(e);
        match e {
            Ok(Exit::Done) | Err(_) => return exits,
            Ok(Exit::Stalled { ready }) => {
                let residual = ready.saturating_sub(m.now);
                m.now += residual;
                m.counters.stall_cycles += residual;
            }
            Ok(Exit::Yielded { .. } | Exit::StepLimit) => {}
        }
    }
    panic!("generated program did not terminate");
}

/// What one programmed counter saw: its buffered samples, then
/// (`occurrences`, `emitted`, `dropped`).
type SamplerView = (Vec<Sample>, (u64, u64, u64));

/// Observable machine state after a run: everything the block engine
/// could plausibly get wrong.
#[derive(Debug, PartialEq)]
struct Observed {
    exits: Vec<Result<Exit, ExecError>>,
    now: u64,
    counters: reach_sim::PerfCounters,
    regs: [u64; 32],
    mem: Vec<u64>,
    resident_pages: usize,
    lbr: Vec<reach_sim::BranchRecord>,
    ctx_insts: u64,
    samplers: Vec<SamplerView>,
    fault_log: Option<FaultLog>,
}

fn observe(
    g: &GenProgram,
    chunk: u64,
    switch_on_stall: bool,
    lbr: bool,
    arming: &Arming,
    engine: Engine,
) -> Observed {
    let (mut m, mut ctx) = armed_machine(g, arming, engine == Engine::Reference);
    m.switch_on_stall = switch_on_stall;
    m.lbr_enabled = lbr;
    let invalidate = engine == Engine::BlocksInvalidated;
    let exits = drive(&mut m, &g.prog, &mut ctx, chunk, invalidate);
    Observed {
        exits,
        now: m.now,
        counters: m.counters.clone(),
        regs: ctx.regs,
        mem: scratch_memory(&m),
        resident_pages: m.mem.resident_pages(),
        lbr: m.lbr.snapshot(),
        ctx_insts: ctx.stats.instructions,
        samplers: sampler_views(&mut m),
        fault_log: m.faults.map(|fi| fi.log),
    }
}

/// `machine_for(g)` with `arming` applied; `stepped` attaches the passive
/// trace that pins the machine to the `step` tier.
fn armed_machine(g: &GenProgram, arming: &Arming, stepped: bool) -> (Machine, Context) {
    let (mut m, ctx) = machine_for(g);
    for &cfg in &arming.samplers {
        m.add_sampler(cfg);
    }
    m.faults = arming.faults.map(FaultInjector::new);
    if stepped {
        m.trace = Some(Trace::new(1 << 12));
    }
    (m, ctx)
}

/// The scratch region and the register dump behind it.
fn scratch_memory(m: &Machine) -> Vec<u64> {
    (0..REGION_WORDS + POOL.len() as u64)
        .map(|k| m.mem.read(common::BASE + k * 8).expect("aligned"))
        .collect()
}

fn sampler_views(m: &mut Machine) -> Vec<SamplerView> {
    let view = |s: &mut reach_sim::PebsSampler| (s.drain(), (s.occurrences, s.emitted, s.dropped));
    m.samplers.iter_mut().map(view).collect()
}

fn call_gen() -> GenProgram {
    GenProgram {
        prog: call_prog(),
        init_words: vec![7; REGION_WORDS as usize],
    }
}

/// A fixed program exercising the arms the generator doesn't
/// emit: call/ret (three deep via a loop), prefetch, and a yield inside
/// the callee — so step budgets can expire mid-call.
fn call_prog() -> Program {
    let r_cnt = Reg(0);
    let r_one = Reg(1);
    let r_v = Reg(2);
    let mut b = ProgramBuilder::new("callprog");
    let f = b.label();
    let top = b.label();
    let done = b.label();
    b.imm(r_cnt, 3).imm(r_one, 1);
    b.bind(top);
    b.branch(Cond::Eqz, r_cnt, done);
    b.call(f);
    b.alu(AluOp::Sub, r_cnt, r_cnt, r_one, 1);
    b.jump(top);
    b.bind(done);
    b.halt();
    b.bind(f);
    b.prefetch(RB, 64);
    b.load(r_v, RB, 0);
    b.push(reach_sim::Inst::Yield {
        kind: reach_sim::isa::YieldKind::Manual,
        save_regs: None,
    });
    b.store(r_v, RB, 8);
    // A load that merges with a prefetch's fill 37 cycles before it lands
    // is attributed to L3: an L2 miss that is not an L3 miss.
    b.prefetch(RB, 128);
    b.alu(AluOp::Add, r_v, r_v, r_one, 262);
    b.load(r_v, RB, 128);
    b.ret();
    b.finish().expect("call program is well-formed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_engine_matches_instrumented_path(
        g in gen_program(),
        chunk in prop_oneof![1u64..64, Just(1_000_000u64)],
        switch_on_stall in any::<bool>(),
        lbr in any::<bool>(),
    ) {
        let none = Arming::default();
        let slow = observe(&g, chunk, switch_on_stall, lbr, &none, Engine::Reference);
        let blocks = observe(&g, chunk, switch_on_stall, lbr, &none, Engine::Blocks);
        prop_assert_eq!(&slow.exits, &blocks.exits, "exit sequences diverge");
        prop_assert_eq!(slow, blocks);
    }

    #[test]
    fn mid_run_invalidation_never_changes_state(
        g in gen_program(),
        chunk in prop_oneof![1u64..64, Just(1_000_000u64)],
        switch_on_stall in any::<bool>(),
        lbr in any::<bool>(),
        arming in prop_oneof![Just(Arming::default()), gen_arming()],
    ) {
        let warm = observe(&g, chunk, switch_on_stall, lbr, &arming, Engine::Blocks);
        let cold = observe(&g, chunk, switch_on_stall, lbr, &arming, Engine::BlocksInvalidated);
        prop_assert_eq!(warm, cold, "invalidation perturbed simulated state");
    }

    #[test]
    fn block_engine_matches_on_calls_and_prefetches(
        chunk in 1u64..24,
        switch_on_stall in any::<bool>(),
        lbr in any::<bool>(),
    ) {
        let (g, none) = (call_gen(), Arming::default());
        let slow = observe(&g, chunk, switch_on_stall, lbr, &none, Engine::Reference);
        let blocks = observe(&g, chunk, switch_on_stall, lbr, &none, Engine::Blocks);
        prop_assert_eq!(slow, blocks);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The observed instance: samplers and faults armed, the engine must
    /// reproduce the reference's sample streams and fault schedule.
    #[test]
    fn observed_block_engine_matches_instrumented_path(
        g in gen_program(),
        chunk in prop_oneof![1u64..64, Just(1_000_000u64)],
        switch_on_stall in any::<bool>(),
        lbr in any::<bool>(),
        arming in gen_arming(),
    ) {
        let slow = observe(&g, chunk, switch_on_stall, lbr, &arming, Engine::Reference);
        let blocks = observe(&g, chunk, switch_on_stall, lbr, &arming, Engine::Blocks);
        prop_assert_eq!(&slow.exits, &blocks.exits, "exit sequences diverge");
        prop_assert_eq!(&slow.samplers, &blocks.samplers, "sample streams diverge");
        prop_assert_eq!(&slow.fault_log, &blocks.fault_log, "fault schedules diverge");
        prop_assert_eq!(slow, blocks);
    }

    #[test]
    fn observed_block_engine_matches_on_calls_and_prefetches(
        chunk in 1u64..24,
        switch_on_stall in any::<bool>(),
        lbr in any::<bool>(),
        arming in gen_arming(),
    ) {
        let g = call_gen();
        let slow = observe(&g, chunk, switch_on_stall, lbr, &arming, Engine::Reference);
        let blocks = observe(&g, chunk, switch_on_stall, lbr, &arming, Engine::Blocks);
        prop_assert_eq!(slow, blocks);
    }
}

// ---------------------------------------------------------------------
// Multi-context runs.
//
// Every executor is a fill policy over `Machine::run_lanes`: a fired
// yield, a finished context, an exhausted slice and an isolated fault
// are handed to the policy inside the block engine, which swaps lanes
// without returning. Three executions of one scenario must agree on
// everything observable:
//
// * `Lanes`: the library's executor on the superblock engine;
// * `Stepped`: the same executor with a passive trace attached, which
//   pins `run_lanes` to its reference tier — the same policy driven over
//   `Machine::step`;
// * `ByHand`: the hand-rolled loops the executors were before they
//   became policies, kept here as the reference model, over `step`
//   alone. They share no code with `run_lanes` or the policies, so a
//   mistake in either — an engine that swaps wrongly, a policy that
//   books a fill wrongly — shows against them.
//
// Hand mutations tried, each of which fails at least one of these
// properties in a release build (`cargo test --release --test
// prop_fastpath`), except where another test is named:
//
//  1. `run_lane` completes a parked load only on a context's first
//     slice (skips `complete_pending` at a swap);
//  2. `run_lane` skips the `admits(1)` check at lane entry (a trap or a
//     retirement sample due on a slice's first instruction lands late);
//  3. `dispatch_lanes` carries the previous lane's pc cache into the
//     next lane (`seat` not reloaded at the swap);
//  4. `dispatch_lanes` carries the first lane's budget into the next
//     (the lane's own `budget` ignored);
//  5. the dual-mode policy charges the primary's switch after picking the
//     scavenger instead of before (`slice_start` and the probation
//     check read the clock a switch early);
//  6. `Observed::enter`/`leave` read the retirements of the first
//     lane's context instead of the running lane's;
//  7. `run_lane` sets `started_at` for context 0 only (a scavenger's
//     first slice forgets it);
//  8. `step_exactly` does not re-read the headroom after stepping (the
//     bug this suite found: a slice that ends inside a stepped block
//     left the next lane a stale `slack`, and a trap landed two
//     instructions late);
//  9. `dispatch_lanes` does not `sync` before returning (retirements
//     batched in the last slice never reach the samplers);
// 10. the interleave policy keeps a context's budget per slice, not per
//     run (`budget` not reduced by what the slice retired);
// 11. the dual-mode policy resumes the primary on its scavengers' slice
//     budget;
// 12. the drain leaves what exhausts its budget runnable;
// 13. the drain runs under `max_steps_per_ctx` instead of the unwatched
//     ceiling — no random program runs four million instructions, so
//     this one passes here and hangs `reach-core`'s
//     `watched_runaway_is_retired_by_the_drain_instead_of_hanging_it`,
//     the regression test of the hang it is;
// 14. `BlockCache::seat` evicts the oldest program whoever runs it, or
//     reads a lane's index before seating the next lane's program — the
//     cache is never full here; `reach-core`'s
//     `a_full_block_cache_seats_both_programs_of_a_dual_mode_run` fails
//     both.
//
// Equivalent mutants found: `run_lane` skipping `per_pc.grow_to` (the
// table grows on demand; slack capacity is invisible to equality).

use reach_core::{
    run_dual_mode, run_interleaved, run_task_queue, DualModeOptions, DualModeReport,
    InterleaveOptions, InterleaveReport, SchedPolicy, SwitchMode, Task, WatchdogOptions, POISON,
};
use reach_sim::isa::NUM_REGS;
use reach_sim::{Inst, Mode, Status, SwitchKind, YieldKind};

/// How a multi-context scenario is executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Via {
    Lanes,
    Stepped,
    ByHand,
}

/// `g`'s program as an instrumented binary: `picks` turns each manual
/// yield into one of the four kinds, with a save mask, and every third
/// or so load into a prefetch of a cold line, so `IfAbsent` yields fire.
/// Control flow and the registers loops count in are untouched: the
/// program terminates as before.
fn instrumented(g: &GenProgram, picks: &[u32]) -> Program {
    let mut pick = picks.iter().copied().cycle();
    let mut next = move || pick.next().expect("picks is not empty");
    let insts = g.prog.insts.iter().map(|inst| match *inst {
        Inst::Yield { .. } => {
            let p = next();
            let kind = match p % 4 {
                0 => YieldKind::Manual,
                1 => YieldKind::Primary,
                2 => YieldKind::Scavenger,
                _ => YieldKind::IfAbsent,
            };
            // The pool and the loop registers always saved: poisoning
            // must not break termination.
            let save_regs = (p % 3 != 0).then_some(p | 0xf0ff);
            Inst::Yield { kind, save_regs }
        }
        Inst::Load { addr, .. } if next() % 3 == 0 => Inst::Prefetch {
            addr,
            offset: 4096 + 64 * i64::from(next() % 512),
        },
        ref other => other.clone(),
    });
    Program {
        insts: insts.collect(),
        name: "instrumented".into(),
    }
}

/// One multi-context scenario: what runs, under which executor.
#[derive(Clone, Debug)]
enum Scenario {
    Dual {
        scavengers: usize,
        /// Scavengers run the second program (the override) or the
        /// primary's.
        scav_override: bool,
        opts: DualModeOptions,
    },
    Interleave {
        contexts: usize,
        opts: InterleaveOptions,
    },
    SelfResume {
        max_steps: u64,
        switch_on_stall: bool,
    },
    Queue {
        tasks: usize,
        gap: u64,
        policy: SchedPolicy,
        max_steps: u64,
    },
}

fn gen_budget() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..40, 40u64..400, Just(u64::MAX)]
}

fn gen_dual() -> impl Strategy<Value = Scenario> {
    let watchdog = (
        (1u64..60, 1u64..400, 1u32..4),
        prop_oneof![Just(None), (1u64..2_000).prop_map(Some)],
        0u32..3,
    )
        .prop_map(
            |((slice_steps, overrun_cycles, max_overruns), probation_cycles, max_quarantines)| {
                WatchdogOptions {
                    slice_steps,
                    overrun_cycles,
                    max_overruns,
                    probation_cycles,
                    max_quarantines,
                }
            },
        );
    (
        (0usize..4, any::<bool>()),
        prop_oneof![Just(0u64), Just(60), Just(300)],
        gen_budget(),
        (any::<bool>(), any::<bool>()),
        prop_oneof![Just(None), watchdog.prop_map(Some)],
    )
        .prop_map(
            |((scavengers, scav_override), hide_target, budget, (drain, isolate), watchdog)| {
                Scenario::Dual {
                    scavengers,
                    scav_override,
                    opts: DualModeOptions {
                        hide_target,
                        max_steps_per_ctx: budget,
                        drain_scavengers: drain,
                        watchdog,
                        isolate_faults: isolate,
                    },
                }
            },
        )
}

fn gen_scenario() -> impl Strategy<Value = Scenario> {
    let interleave = (
        1usize..5,
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        gen_budget(),
    )
        .prop_map(|(contexts, (thread, poison, intervals, isolate), budget)| {
            Scenario::Interleave {
                contexts,
                opts: InterleaveOptions {
                    switch: if thread {
                        SwitchMode::Thread
                    } else {
                        SwitchMode::Coroutine
                    },
                    poison_unsaved: poison,
                    record_intervals: intervals,
                    max_steps_per_ctx: budget,
                    isolate_faults: isolate,
                },
            }
        });
    let self_resume = (gen_budget(), any::<bool>()).prop_map(|(max_steps, switch_on_stall)| {
        Scenario::SelfResume {
            max_steps,
            switch_on_stall,
        }
    });
    let queue = (1usize..5, 0u64..300, any::<bool>(), gen_budget()).prop_map(
        |(tasks, gap, aware, max_steps)| Scenario::Queue {
            tasks,
            gap,
            policy: if aware {
                SchedPolicy::EventAware
            } else {
                SchedPolicy::SideCar
            },
            max_steps,
        },
    );
    prop_oneof![gen_dual(), gen_dual(), interleave, self_resume, queue]
}

/// `Machine::run` as it is specified: up to `max_steps` calls of `step`.
fn run_by_hand(
    m: &mut Machine,
    prog: &Program,
    ctx: &mut Context,
    max_steps: u64,
) -> Result<Exit, ExecError> {
    for _ in 0..max_steps {
        if let Some(exit) = m.step(prog, ctx)? {
            return Ok(exit);
        }
    }
    Ok(Exit::StepLimit)
}

/// `run_interleaved` as the hand-rolled loop it was.
fn interleaved_by_hand(
    machine: &mut Machine,
    prog: &Program,
    contexts: &mut [Context],
    opts: &InterleaveOptions,
) -> Result<InterleaveReport, ExecError> {
    let n = contexts.len();
    let started_at = machine.now;
    let mut report = InterleaveReport {
        latencies: vec![None; n],
        ..InterleaveReport::default()
    };
    let mut steps_left = vec![opts.max_steps_per_ctx; n];
    let mut pending_poison: Vec<Option<u32>> = vec![None; n];
    let mut cur = 0usize;
    while let Some(i) = (0..n)
        .map(|off| (cur + off) % n)
        .find(|&i| contexts[i].status == Status::Runnable && steps_left[i] > 0)
    {
        cur = i;
        if let Some(mask) = pending_poison[i].take() {
            for r in 0..NUM_REGS {
                if mask & (1 << r) != 0 {
                    contexts[i].regs[r] = POISON;
                }
            }
        }
        let before = contexts[i].stats.instructions;
        let burst_start = machine.now;
        let exit = match run_by_hand(machine, prog, &mut contexts[i], steps_left[i]) {
            Ok(exit) => exit,
            Err(e) if opts.isolate_faults => {
                contexts[i].status = Status::Faulted;
                report.faults.push((contexts[i].id, e));
                cur = (i + 1) % n;
                continue;
            }
            Err(e) => return Err(e),
        };
        let used = contexts[i].stats.instructions - before;
        steps_left[i] = steps_left[i].saturating_sub(used);
        match exit {
            Exit::Yielded { save_regs, .. } => {
                if opts.record_intervals {
                    report.intervals.push(machine.now - burst_start);
                }
                let someone_else = (0..n)
                    .any(|j| j != i && contexts[j].status == Status::Runnable && steps_left[j] > 0);
                if someone_else {
                    let kind = match opts.switch {
                        SwitchMode::Coroutine => SwitchKind::Coroutine(save_regs),
                        SwitchMode::Thread => SwitchKind::Thread,
                    };
                    machine.charge_switch(kind);
                    report.switches += 1;
                    if opts.poison_unsaved && opts.switch == SwitchMode::Coroutine {
                        if let Some(mask) = save_regs {
                            pending_poison[i] = Some(!mask);
                        }
                    }
                    cur = (i + 1) % n;
                } else {
                    report.empty_yields += 1;
                }
            }
            Exit::Done => {
                report.completed += 1;
                report.latencies[i] = contexts[i].stats.latency();
                cur = (i + 1) % n;
            }
            Exit::StepLimit => report.step_limited = true,
            Exit::Stalled { .. } => unreachable!(),
        }
    }
    report.cycles = machine.now - started_at;
    Ok(report)
}

/// `run_dual_mode` as the hand-rolled loop it was, with the drain
/// bounded as it is now.
fn dual_mode_by_hand(
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
    let mut report = DualModeReport::default();
    let n = scavengers.len();
    let mut used = vec![false; n];
    let mut overruns = vec![0u32; n];
    let mut quarantined = vec![false; n];
    let mut quarantines = vec![0u32; n];
    let mut release_at: Vec<Option<u64>> = vec![None; n];
    let mut next_scav = 0usize;
    let unwatched = reach_core::dualmode::DEFAULT_UNWATCHED_SLICE_STEPS.min(opts.max_steps_per_ctx);
    let slice_budget = match &opts.watchdog {
        Some(w) => w.slice_steps.min(opts.max_steps_per_ctx),
        None => unwatched,
    };

    'primary: loop {
        let exit = match run_by_hand(machine, primary_prog, primary, opts.max_steps_per_ctx) {
            Ok(exit) => exit,
            Err(e) if opts.isolate_faults => {
                primary.status = Status::Faulted;
                report.context_faults.push((primary.id, e));
                break 'primary;
            }
            Err(e) => return Err(e),
        };
        let Exit::Yielded { save_regs, .. } = exit else {
            break 'primary;
        };
        let fill_start = machine.now;
        machine.charge_switch(SwitchKind::Coroutine(save_regs));
        let mut scavs_this_fill = 0usize;
        'fill: loop {
            let now = machine.now;
            let pick = (next_scav..n).chain(0..next_scav).find(|&i| {
                scavengers[i].status == Status::Runnable
                    && !quarantined[i]
                    && release_at[i].is_none_or(|t| now >= t)
            });
            let Some(i) = pick else {
                if scavs_this_fill == 0 {
                    report.starved_fills += 1;
                }
                break 'fill;
            };
            next_scav = i;
            if release_at[i].take().is_some() {
                overruns[i] = 0;
                report.readmitted += 1;
            }
            if !used[i] {
                used[i] = true;
                report.scavengers_used += 1;
            }
            scavs_this_fill += 1;
            let slice_start = machine.now;
            let exit = match run_by_hand(machine, scav_prog, &mut scavengers[i], slice_budget) {
                Ok(exit) => exit,
                Err(e) if opts.isolate_faults => {
                    scavengers[i].status = Status::Faulted;
                    report.context_faults.push((scavengers[i].id, e));
                    continue 'fill;
                }
                Err(e) => return Err(e),
            };
            let elapsed = machine.now - fill_start;
            let mut quarantine_now = false;
            if let Some(w) = &opts.watchdog {
                if machine.now - slice_start > w.overrun_cycles || exit == Exit::StepLimit {
                    overruns[i] += 1;
                    report.overruns += 1;
                    if overruns[i] >= w.max_overruns {
                        quarantines[i] += 1;
                        report.quarantined.push(scavengers[i].id);
                        quarantine_now = true;
                        match w.probation_cycles {
                            Some(p) if quarantines[i] <= w.max_quarantines => {
                                let shift = (quarantines[i] - 1).min(31);
                                let window = p.saturating_mul(1u64 << shift);
                                release_at[i] = Some(machine.now.saturating_add(window));
                            }
                            _ => quarantined[i] = true,
                        }
                    }
                }
            }
            match exit {
                Exit::Done => {
                    report.scavengers_completed += 1;
                    if elapsed >= opts.hide_target {
                        break 'fill;
                    }
                }
                Exit::StepLimit if opts.watchdog.is_some() => break 'fill,
                Exit::StepLimit => scavengers[i].status = Status::Faulted,
                Exit::Stalled { .. } => unreachable!(),
                Exit::Yielded {
                    kind, save_regs, ..
                } => {
                    machine.charge_switch(SwitchKind::Coroutine(save_regs));
                    match kind {
                        YieldKind::Scavenger | YieldKind::Manual => break 'fill,
                        _ if elapsed >= opts.hide_target => break 'fill,
                        _ if quarantine_now => break 'fill,
                        YieldKind::Primary | YieldKind::IfAbsent => next_scav = (i + 1) % n,
                    }
                }
            }
        }
        report.max_scavengers_per_fill = report.max_scavengers_per_fill.max(scavs_this_fill);
        report.fill_times.push(machine.now - fill_start);
    }
    report.primary_latency = primary.stats.latency();

    if opts.drain_scavengers {
        let iopts = InterleaveOptions {
            max_steps_per_ctx: unwatched,
            isolate_faults: opts.isolate_faults,
            ..InterleaveOptions::default()
        };
        let drain = interleaved_by_hand(machine, scav_prog, scavengers, &iopts)?;
        report.scavengers_completed += drain.completed;
        report.context_faults.extend(drain.faults);
        for s in scavengers.iter_mut() {
            if s.status == Status::Runnable {
                s.status = Status::Faulted;
            }
        }
    }
    report.total_cycles = machine.now - started_at;
    Ok(report)
}

/// `run_to_completion` as the hand-rolled loop it was.
fn self_resume_by_hand(
    m: &mut Machine,
    prog: &Program,
    ctx: &mut Context,
    max_steps: u64,
) -> Result<Exit, ExecError> {
    let start = ctx.stats.instructions;
    loop {
        let used = ctx.stats.instructions - start;
        if used >= max_steps {
            return Ok(Exit::StepLimit);
        }
        match run_by_hand(m, prog, ctx, max_steps - used)? {
            Exit::Yielded { .. } => {}
            exit @ (Exit::Done | Exit::StepLimit) => return Ok(exit),
            Exit::Stalled { ready } => {
                let residual = ready.saturating_sub(m.now);
                m.now += residual;
                m.counters.stall_cycles += residual;
            }
        }
    }
}

/// Everything observable after a multi-context run.
#[derive(Debug, PartialEq)]
struct ObservedMulti {
    /// The executor's report (or error), contexts included, `Debug`
    /// formatted: the report types are not `PartialEq`.
    outcome: String,
    now: u64,
    counters: reach_sim::PerfCounters,
    mem: Vec<u64>,
    lbr: Vec<reach_sim::BranchRecord>,
    samplers: Vec<SamplerView>,
    fault_log: Option<FaultLog>,
}

fn observe_multi(
    (g, other): (&GenProgram, &GenProgram),
    picks: &[u32],
    scenario: &Scenario,
    arming: &Arming,
    via: Via,
) -> ObservedMulti {
    let (mut m, _) = armed_machine(g, arming, via == Via::Stepped);
    m.lbr_enabled = true;
    let prog = instrumented(g, picks);
    let other = instrumented(other, &picks[1..]);
    let ctx = |id: usize| {
        let mut c = Context::new(id);
        c.set_reg(RB, common::BASE);
        c
    };
    let by_hand = via == Via::ByHand;
    let outcome = match scenario {
        Scenario::Dual {
            scavengers,
            scav_override,
            opts,
        } => {
            let mut primary = ctx(0);
            let mut scavs: Vec<Context> = (1..=*scavengers).map(ctx).collect();
            let scav_prog = if *scav_override { &other } else { &prog };
            let run = if by_hand {
                dual_mode_by_hand
            } else {
                run_dual_mode
            };
            let r = run(&mut m, &prog, &mut primary, scav_prog, &mut scavs, opts);
            format!("{r:?} {primary:?} {scavs:?}")
        }
        Scenario::Interleave { contexts, opts } => {
            let mut ctxs: Vec<Context> = (0..*contexts).map(ctx).collect();
            let run = if by_hand {
                interleaved_by_hand
            } else {
                run_interleaved
            };
            let r = run(&mut m, &prog, &mut ctxs, opts);
            format!("{r:?} {ctxs:?}")
        }
        Scenario::SelfResume {
            max_steps,
            switch_on_stall,
        } => {
            m.switch_on_stall = *switch_on_stall;
            let mut c = ctx(0);
            let r = if by_hand {
                self_resume_by_hand(&mut m, &prog, &mut c, *max_steps)
            } else {
                m.run_to_completion(&prog, &mut c, *max_steps)
            };
            format!("{r:?} {c:?}")
        }
        Scenario::Queue {
            tasks,
            gap,
            policy,
            max_steps,
        } => {
            let mut tasks: Vec<Task> = (0..*tasks)
                .map(|i| Task {
                    ctx: ctx(i),
                    arrival: i as u64 * gap,
                })
                .collect();
            let r = run_task_queue(&mut m, &prog, &mut tasks, *policy, *max_steps);
            format!("{r:?} {tasks:?}")
        }
    };
    ObservedMulti {
        outcome,
        now: m.now,
        counters: m.counters.clone(),
        mem: scratch_memory(&m),
        lbr: m.lbr.snapshot(),
        samplers: sampler_views(&mut m),
        fault_log: m.faults.map(|fi| fi.log),
    }
}

/// The arming the serving stack and the chaos engines run under, beside
/// the random ones: the in-situ and retirement samplers, and traps with
/// LBR drops.
fn gen_multi_arming() -> impl Strategy<Value = Arming> {
    let sampler = |event, period| PebsConfig {
        event,
        period,
        skid: 0,
        buffer_capacity: 64,
    };
    let serving = (1u64..40, 1u64..40).prop_map(move |(l2, retired)| Arming {
        samplers: vec![
            sampler(HwEvent::LoadL2Miss, l2),
            sampler(HwEvent::InstRetired, retired),
        ],
        faults: None,
    });
    let chaos = (any::<u64>(), 1u64..200).prop_map(|(seed, every)| Arming {
        samplers: Vec::new(),
        faults: Some(
            FaultPlan::none(seed)
                .with_trap_every(every)
                .with_lbr_drop(0.4),
        ),
    });
    prop_oneof![Just(Arming::default()), serving, chaos, gen_arming()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The engine's half: the same policy over swapped lanes and over
    /// `step`.
    #[test]
    fn lanes_match_the_stepped_policy(
        g in gen_program(),
        other in gen_program(),
        picks in prop::collection::vec(any::<u32>(), 2..24),
        scenario in gen_scenario(),
        arming in gen_multi_arming(),
    ) {
        let lanes = observe_multi((&g, &other), &picks, &scenario, &arming, Via::Lanes);
        let stepped = observe_multi((&g, &other), &picks, &scenario, &arming, Via::Stepped);
        prop_assert_eq!(&lanes.outcome, &stepped.outcome, "reports or contexts diverge");
        prop_assert_eq!(lanes, stepped);
    }

    /// The policies' half: the executors against the loops they were.
    /// (The task queue has no model here; `BENCH_t13_scheduler.json`,
    /// gated byte for byte, is what its port was held to.)
    #[test]
    fn lanes_match_the_hand_rolled_executors(
        g in gen_program(),
        other in gen_program(),
        picks in prop::collection::vec(any::<u32>(), 2..24),
        scenario in gen_scenario(),
        arming in gen_multi_arming(),
    ) {
        if matches!(scenario, Scenario::Queue { .. }) {
            return;
        }
        let lanes = observe_multi((&g, &other), &picks, &scenario, &arming, Via::Lanes);
        let by_hand = observe_multi((&g, &other), &picks, &scenario, &arming, Via::ByHand);
        prop_assert_eq!(&lanes.outcome, &by_hand.outcome, "reports or contexts diverge");
        prop_assert_eq!(lanes, by_hand);
    }
}
