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
    let (mut m, mut ctx) = machine_for(g);
    m.switch_on_stall = switch_on_stall;
    m.lbr_enabled = lbr;
    for &cfg in &arming.samplers {
        m.add_sampler(cfg);
    }
    m.faults = arming.faults.map(FaultInjector::new);
    if engine == Engine::Reference {
        m.trace = Some(Trace::new(1 << 12));
    }
    let invalidate = engine == Engine::BlocksInvalidated;
    let exits = drive(&mut m, &g.prog, &mut ctx, chunk, invalidate);
    let resident_pages = m.mem.resident_pages();
    let mem: Vec<u64> = (0..REGION_WORDS + POOL.len() as u64)
        .map(|k| m.mem.read(common::BASE + k * 8).expect("aligned"))
        .collect();
    Observed {
        exits,
        now: m.now,
        counters: m.counters.clone(),
        regs: ctx.regs,
        mem,
        resident_pages,
        lbr: m.lbr.snapshot(),
        ctx_insts: ctx.stats.instructions,
        samplers: m
            .samplers
            .iter_mut()
            .map(|s| (s.drain(), (s.occurrences, s.emitted, s.dropped)))
            .collect(),
        fault_log: m.faults.map(|fi| fi.log),
    }
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
