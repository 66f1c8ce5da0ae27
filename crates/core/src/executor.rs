//! Cooperative executors: interleave contexts over one program image,
//! charging the appropriate switch costs.
//!
//! [`run_interleaved`] is the symmetric round-robin executor: every
//! fired yield rotates to the next runnable context. It powers the
//! coroutine mechanism itself, the OS-thread baseline (same logic, 1 µs
//! switches), and — with poisoning enabled — the soundness check for
//! liveness-derived save sets: registers *not* in a yield's save set are
//! deliberately clobbered across the switch, so an under-approximated
//! save set breaks the workload checksum instead of silently costing
//! nothing.

use reach_sim::{Context, ExecError, Exit, Lane, Machine, Next, Program, Status, SwitchKind};

/// The value poisoning writes into unsaved registers.
pub const POISON: u64 = 0xDEAD_BEEF_DEAD_BEEF;

/// What kind of context switch the executor performs on a yield.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchMode {
    /// Light-weight coroutine switch (cost scales with the save set).
    Coroutine,
    /// OS thread switch (fixed, expensive).
    Thread,
}

/// Options for [`run_interleaved`].
#[derive(Clone, Copy, Debug)]
pub struct InterleaveOptions {
    /// Switch cost model.
    pub switch: SwitchMode,
    /// Clobber unsaved registers across switches (liveness soundness
    /// checking). Only meaningful for [`SwitchMode::Coroutine`] yields
    /// carrying a save mask.
    pub poison_unsaved: bool,
    /// Record inter-yield intervals (cycles between consecutive fired
    /// yields of the same context).
    pub record_intervals: bool,
    /// Per-context instruction budget.
    pub max_steps_per_ctx: u64,
    /// Trap isolation: an [`ExecError`] in one context retires that
    /// context (recorded in [`InterleaveReport::faults`]) instead of
    /// aborting the whole run.
    pub isolate_faults: bool,
}

impl Default for InterleaveOptions {
    fn default() -> Self {
        InterleaveOptions {
            switch: SwitchMode::Coroutine,
            poison_unsaved: false,
            record_intervals: false,
            max_steps_per_ctx: u64::MAX,
            isolate_faults: false,
        }
    }
}

/// Result of an interleaved run.
#[derive(Clone, Debug, Default)]
pub struct InterleaveReport {
    /// Cycles from entry to the last context finishing.
    pub cycles: u64,
    /// Contexts that completed.
    pub completed: usize,
    /// Switches performed.
    pub switches: u64,
    /// Yields that fired with no other runnable context to switch to
    /// (self-resumed at zero cost).
    pub empty_yields: u64,
    /// Per-context wall-clock latency, where finished.
    pub latencies: Vec<Option<u64>>,
    /// Observed CPU bursts in cycles (time a context held the core
    /// between being scheduled and its next fired yield; all contexts
    /// pooled), when recording was enabled. This is the §3.3 inter-yield
    /// interval as experienced by the *other* coroutines waiting for the
    /// CPU.
    pub intervals: Vec<u64>,
    /// True if some context exhausted its step budget.
    pub step_limited: bool,
    /// Contexts retired by trap isolation: `(context id, error)`, in
    /// fault order. Empty unless
    /// [`InterleaveOptions::isolate_faults`] is set.
    pub faults: Vec<(usize, ExecError)>,
}

/// `0..n` starting at `from` (at most `n`) and wrapping once.
pub(crate) fn round_robin(from: usize, n: usize) -> impl Iterator<Item = usize> {
    (from..n).chain(0..from)
}

/// Runs `contexts` over `prog`, rotating on every fired yield.
///
/// # Errors
///
/// Propagates workload execution errors — unless
/// [`InterleaveOptions::isolate_faults`] is set, in which case the
/// faulting context is retired and recorded and the run continues.
pub fn run_interleaved(
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
    // Poison mask to apply when the context next resumes (registers NOT
    // saved at its last yield).
    let mut pending_poison: Vec<Option<u32>> = vec![None; n];
    // The running burst: instructions its context had retired, and the
    // clock, when it was handed the core.
    let (mut before, mut burst_start) = (0, 0);

    // Round robin as the engine's fill policy: lane `i` is context `i`,
    // and a lane's `budget` is what is left of its per-context budget.
    let has_work = |lane: &Lane<'_>| lane.ctx.status == Status::Runnable && lane.budget > 0;
    let mut lanes: Vec<Lane<'_>> = contexts
        .iter_mut()
        .map(|c| Lane::new(prog, c, opts.max_steps_per_ctx))
        .collect();
    machine.run_lanes(
        &mut lanes,
        #[inline(always)]
        |m, lanes, stopped| {
            let mut cur = 0;
            if let Some((i, event)) = stopped {
                cur = i + 1;
                match event {
                    Err(e) if opts.isolate_faults => {
                        // The machine marks some faults (call-depth,
                        // injected traps) itself; make retirement
                        // unconditional so e.g. a memory fault cannot
                        // leave the context schedulable.
                        lanes[i].ctx.status = Status::Faulted;
                        report.faults.push((lanes[i].ctx.id, e));
                    }
                    Err(e) => return Next::Return(Err(e)),
                    Ok(exit) => {
                        let used = lanes[i].ctx.stats.instructions - before;
                        lanes[i].budget = lanes[i].budget.saturating_sub(used);
                        match exit {
                            Exit::Yielded { save_regs, .. } => {
                                if opts.record_intervals {
                                    report.intervals.push(m.now - burst_start);
                                }
                                // Is there anybody else to run?
                                if (0..n).any(|j| j != i && has_work(&lanes[j])) {
                                    let kind = match opts.switch {
                                        SwitchMode::Coroutine => SwitchKind::Coroutine(save_regs),
                                        SwitchMode::Thread => SwitchKind::Thread,
                                    };
                                    m.charge_switch(kind);
                                    report.switches += 1;
                                    if opts.poison_unsaved && opts.switch == SwitchMode::Coroutine {
                                        pending_poison[i] = save_regs.map(|mask| !mask);
                                    }
                                } else {
                                    report.empty_yields += 1;
                                    cur = i;
                                }
                            }
                            Exit::Done => {
                                report.completed += 1;
                                report.latencies[i] = lanes[i].ctx.stats.latency();
                            }
                            Exit::StepLimit => {
                                // Leave the context runnable but
                                // budget-exhausted; the pick skips it.
                                report.step_limited = true;
                                cur = i;
                            }
                            Exit::Stalled { .. } => {
                                unreachable!("interleaved executor never enables switch_on_stall")
                            }
                        }
                    }
                }
            }
            // The first context with work left, from `cur` round.
            let pick = round_robin(cur, n).find(|&i| has_work(&lanes[i]));
            let Some(i) = pick else {
                return Next::Return(Ok(()));
            };
            if let Some(mask) = pending_poison[i].take() {
                // SAFETY of the model: only registers outside the save
                // set are clobbered; a sound save set keeps semantics
                // intact.
                for r in 0..reach_sim::NUM_REGS {
                    if mask & (1 << r) != 0 {
                        lanes[i].ctx.regs[r] = POISON;
                    }
                }
            }
            before = lanes[i].ctx.stats.instructions;
            burst_start = m.now;
            Next::Run(i)
        },
    )?;
    report.cycles = machine.now - started_at;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Cond, Inst, MachineConfig, ProgramBuilder, Reg};

    /// Program: chase `r1` nodes from `r0`, checksum into r7, with a
    /// manual prefetch+yield before the load (pre-instrumented shape).
    fn instrumented_chase() -> Program {
        let mut b = ProgramBuilder::new("ichase");
        let top = b.label();
        b.bind(top);
        b.prefetch(Reg(0), 0);
        b.push(Inst::Yield {
            kind: reach_sim::YieldKind::Primary,
            save_regs: Some((1 << 0) | (1 << 1) | (1 << 6) | (1 << 7)),
        });
        b.load(Reg(4), Reg(0), 0);
        b.load(Reg(3), Reg(0), 8);
        b.alu(AluOp::Add, Reg(7), Reg(7), Reg(3), 1);
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    /// Lays out `k` chains of `n` nodes; returns (heads, expected sums).
    fn lay_chains(m: &mut Machine, k: usize, n: u64) -> (Vec<u64>, Vec<u64>) {
        let mut heads = Vec::new();
        let mut sums = Vec::new();
        for c in 0..k {
            let base = 0x100_0000u64 * (c as u64 + 1);
            let mut sum = 0u64;
            for i in 0..n {
                let addr = base + i * 4096;
                let next = if i + 1 == n { 0 } else { base + (i + 1) * 4096 };
                let payload = addr ^ 0x1234;
                m.mem.write(addr, next).unwrap();
                m.mem.write(addr + 8, payload).unwrap();
                sum = sum.wrapping_add(payload);
            }
            heads.push(base);
            sums.push(sum);
        }
        (heads, sums)
    }

    fn contexts_for(heads: &[u64], n: u64) -> Vec<Context> {
        heads
            .iter()
            .enumerate()
            .map(|(i, &h)| {
                let mut c = Context::new(i);
                c.set_reg(Reg(0), h);
                c.set_reg(Reg(1), n);
                c.set_reg(Reg(6), 1);
                c
            })
            .collect()
    }

    #[test]
    fn interleaving_hides_stalls_and_preserves_results() {
        let prog = instrumented_chase();
        let hops = 32u64;

        // Solo: every miss exposed.
        let mut m1 = Machine::new(MachineConfig::default());
        let (heads, sums) = lay_chains(&mut m1, 1, hops);
        let mut solo = contexts_for(&heads, hops);
        let r1 = run_interleaved(&mut m1, &prog, &mut solo, &InterleaveOptions::default()).unwrap();
        assert_eq!(r1.completed, 1);
        assert_eq!(solo[0].reg(Reg(7)), sums[0]);
        assert!(r1.empty_yields > 0, "nothing to switch to");

        // Eight coroutines: misses overlap.
        let mut m8 = Machine::new(MachineConfig::default());
        let (heads, sums) = lay_chains(&mut m8, 8, hops);
        let mut ctxs = contexts_for(&heads, hops);
        let r8 = run_interleaved(&mut m8, &prog, &mut ctxs, &InterleaveOptions::default()).unwrap();
        assert_eq!(r8.completed, 8);
        for (c, s) in ctxs.iter().zip(&sums) {
            assert_eq!(c.reg(Reg(7)), *s);
        }
        // 8x the work in far less than 8x solo time.
        assert!(
            m8.counters.stall_cycles < m1.counters.stall_cycles * 2,
            "8-way interleave should hide most stalls: {} vs solo {}",
            m8.counters.stall_cycles,
            m1.counters.stall_cycles
        );
        assert!(r8.switches > 0);
    }

    #[test]
    fn thread_switch_mode_is_far_more_expensive() {
        let prog = instrumented_chase();
        let hops = 32u64;
        let run = |mode: SwitchMode| {
            let mut m = Machine::new(MachineConfig::default());
            let (heads, _) = lay_chains(&mut m, 4, hops);
            let mut ctxs = contexts_for(&heads, hops);
            let opts = InterleaveOptions {
                switch: mode,
                ..InterleaveOptions::default()
            };
            run_interleaved(&mut m, &prog, &mut ctxs, &opts).unwrap();
            m.counters.switch_cycles
        };
        let coro = run(SwitchMode::Coroutine);
        let thread = run(SwitchMode::Thread);
        assert!(
            thread > coro * 20,
            "1 us thread switches dwarf 9 ns coroutine switches: {thread} vs {coro}"
        );
    }

    #[test]
    fn poisoning_with_sound_save_sets_preserves_checksums() {
        let prog = instrumented_chase();
        let hops = 16u64;
        let mut m = Machine::new(MachineConfig::default());
        let (heads, sums) = lay_chains(&mut m, 4, hops);
        let mut ctxs = contexts_for(&heads, hops);
        let opts = InterleaveOptions {
            poison_unsaved: true,
            ..InterleaveOptions::default()
        };
        run_interleaved(&mut m, &prog, &mut ctxs, &opts).unwrap();
        for (c, s) in ctxs.iter().zip(&sums) {
            assert_eq!(c.reg(Reg(7)), *s, "sound save set survives poisoning");
        }
        // The poison did land in unsaved registers.
        assert!(ctxs.iter().any(|c| c.regs.contains(&POISON)));
    }

    #[test]
    fn poisoning_catches_unsound_save_sets() {
        // Deliberately omit r7 (the checksum) from the save set.
        let mut b = ProgramBuilder::new("bad");
        let top = b.label();
        b.bind(top);
        b.push(Inst::Yield {
            kind: reach_sim::YieldKind::Primary,
            save_regs: Some((1 << 0) | (1 << 1) | (1 << 6)), // r7 missing!
        });
        b.load(Reg(4), Reg(0), 0);
        b.load(Reg(3), Reg(0), 8);
        b.alu(AluOp::Add, Reg(7), Reg(7), Reg(3), 1);
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        let prog = b.finish().unwrap();

        let hops = 8u64;
        let mut m = Machine::new(MachineConfig::default());
        let (heads, sums) = lay_chains(&mut m, 2, hops);
        let mut ctxs = contexts_for(&heads, hops);
        let opts = InterleaveOptions {
            poison_unsaved: true,
            ..InterleaveOptions::default()
        };
        run_interleaved(&mut m, &prog, &mut ctxs, &opts).unwrap();
        assert_ne!(
            ctxs[0].reg(Reg(7)),
            sums[0],
            "an unsound save set must corrupt the checksum under poisoning"
        );
    }

    #[test]
    fn interval_recording_measures_gaps() {
        let prog = instrumented_chase();
        let hops = 16u64;
        let mut m = Machine::new(MachineConfig::default());
        let (heads, _) = lay_chains(&mut m, 2, hops);
        let mut ctxs = contexts_for(&heads, hops);
        let opts = InterleaveOptions {
            record_intervals: true,
            ..InterleaveOptions::default()
        };
        let r = run_interleaved(&mut m, &prog, &mut ctxs, &opts).unwrap();
        // One burst recorded per fired yield.
        assert_eq!(r.intervals.len() as u64, 2 * hops);
        assert!(r.intervals.iter().all(|&i| i > 0));
        // A burst is one loop body's worth of cycles, nowhere near the
        // whole run.
        let max = *r.intervals.iter().max().unwrap();
        assert!(max < 500, "burst {max} looks like wall time, not a burst");
    }

    #[test]
    fn empty_context_list_is_a_noop() {
        let prog = instrumented_chase();
        let mut m = Machine::new(MachineConfig::default());
        let r = run_interleaved(&mut m, &prog, &mut [], &InterleaveOptions::default()).unwrap();
        assert_eq!(r.completed, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn step_budget_is_respected() {
        let mut b = ProgramBuilder::new("inf");
        let top = b.label();
        b.bind(top);
        b.jump(top);
        let prog = b.finish().unwrap();
        let mut m = Machine::new(MachineConfig::default());
        let mut ctxs = vec![Context::new(0)];
        let opts = InterleaveOptions {
            max_steps_per_ctx: 100,
            ..InterleaveOptions::default()
        };
        let r = run_interleaved(&mut m, &prog, &mut ctxs, &opts).unwrap();
        assert!(r.step_limited);
        assert_eq!(r.completed, 0);
    }

    #[test]
    fn isolated_fault_retires_one_context_not_the_run() {
        // Shared program: one load through r0, halt. Context 0 points r0
        // at an unaligned address (memory fault); context 1 is healthy.
        let mut b = ProgramBuilder::new("iso");
        b.load(Reg(1), Reg(0), 0);
        b.halt();
        let prog = b.finish().unwrap();

        let make_ctxs = || {
            let mut bad = Context::new(0);
            bad.set_reg(Reg(0), 0x1001);
            let mut good = Context::new(1);
            good.set_reg(Reg(0), 0x1000);
            vec![bad, good]
        };

        // Default semantics: the fault aborts the run.
        let mut m = Machine::new(MachineConfig::default());
        let mut ctxs = make_ctxs();
        assert!(run_interleaved(&mut m, &prog, &mut ctxs, &InterleaveOptions::default()).is_err());

        // Isolated: the faulting context is retired and recorded, the
        // healthy one completes.
        let mut m = Machine::new(MachineConfig::default());
        let mut ctxs = make_ctxs();
        let opts = InterleaveOptions {
            isolate_faults: true,
            ..InterleaveOptions::default()
        };
        let r = run_interleaved(&mut m, &prog, &mut ctxs, &opts).unwrap();
        assert_eq!(r.completed, 1);
        assert_eq!(r.faults.len(), 1);
        assert_eq!(r.faults[0].0, 0);
        assert!(matches!(r.faults[0].1, ExecError::Mem(_)));
        assert_eq!(ctxs[0].status, Status::Faulted);
        assert_eq!(ctxs[1].status, Status::Done);
    }
}
