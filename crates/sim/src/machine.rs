//! The machine: executes micro-IR programs against the memory hierarchy
//! under precise cycle accounting, firing sampling events along the way.
//!
//! The machine executes *one context at a time* (it models a single core);
//! executors — sequential, coroutine, SMT, thread — drive contexts and
//! charge the appropriate switch costs through [`Machine::charge_switch`].
//! The machine never decides what a yield switches to: when one fires
//! ([`Exit::Yielded`]) the executor does — as a fill policy consulted
//! inside [`Machine::run_lanes`], the one primitive every executor runs
//! on, or after [`Machine::run`], its one-lane instance, has returned.
//! This split is what lets the same substrate honestly compare hardware
//! and software hiding mechanisms.

use crate::blocks::{BlockCache, Lane, Next, Observed, Stopped, Unobserved};
use crate::cache::{AccessKind, Hierarchy, Level};
use crate::config::MachineConfig;
use crate::context::{Context, Mode, PendingLoad, Status, MAX_CALL_DEPTH};
use crate::counters::PerfCounters;
use crate::faults::FaultInjector;
use crate::isa::{Inst, Program, YieldKind, NUM_REGS};
use crate::lbr::Lbr;
use crate::mem::{MemError, Memory};
use crate::pebs::{HwEvent, PebsConfig, PebsSampler, Sample};
use crate::trace::Trace;

/// Why [`Machine::run`] returned control to the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// A yield fired at `pc`. The context's PC already points past the
    /// yield; the executor decides what to switch to and charges the cost.
    Yielded {
        /// PC of the yield instruction.
        pc: usize,
        /// The yield's kind.
        kind: YieldKind,
        /// Instrumentation-provided live-register mask (None = full set).
        save_regs: Option<u32>,
    },
    /// Switch-on-stall mode only: a load would stall until `ready`. The
    /// load completes transparently when the context next executes at or
    /// after `ready`.
    Stalled {
        /// Absolute cycle at which the load's data arrives.
        ready: u64,
    },
    /// The context executed `halt`.
    Done,
    /// The step budget was exhausted.
    StepLimit,
}

/// Who is performing a context switch, which determines its cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchKind {
    /// User-space coroutine switch; cost depends on the size of the live
    /// register mask (None = all [`NUM_REGS`] registers).
    Coroutine(Option<u32>),
    /// SMT hardware context switch (configured cost, default 0).
    Smt,
    /// OS thread context switch.
    Thread,
}

/// Execution errors. These indicate a malformed program or workload bug,
/// not a modelled architectural event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// An unaligned memory access.
    Mem(MemError),
    /// Shadow-stack overflow at `pc`.
    CallDepth {
        /// PC of the offending call.
        pc: usize,
    },
    /// `ret` with an empty shadow stack at `pc`.
    RetEmptyStack {
        /// PC of the offending return.
        pc: usize,
    },
    /// PC outside the program (corrupt branch target after bad rewriting).
    BadPc {
        /// The out-of-range PC.
        pc: usize,
    },
    /// The context had already halted or faulted.
    NotRunnable,
    /// A trap delivered at an instruction boundary by the fault-injection
    /// plan (see [`crate::faults::FaultPlan::trap_every`]).
    InjectedFault {
        /// PC at which the trap was delivered.
        pc: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Mem(e) => write!(f, "memory error: {e}"),
            ExecError::CallDepth { pc } => write!(f, "call-stack overflow at pc {pc}"),
            ExecError::RetEmptyStack { pc } => write!(f, "ret with empty stack at pc {pc}"),
            ExecError::BadPc { pc } => write!(f, "pc {pc} outside program"),
            ExecError::NotRunnable => write!(f, "context is not runnable"),
            ExecError::InjectedFault { pc } => write!(f, "injected fault at pc {pc}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MemError> for ExecError {
    fn from(e: MemError) -> Self {
        ExecError::Mem(e)
    }
}

/// The simulated core plus its memory system, clock, counters and PMU.
#[derive(Clone, Debug)]
pub struct Machine {
    /// Machine configuration (latencies, costs, geometry).
    pub cfg: MachineConfig,
    /// Flat simulated memory.
    pub mem: Memory,
    /// The cache hierarchy.
    pub hier: Hierarchy,
    /// The global cycle clock, shared by all contexts on this core.
    pub now: u64,
    /// Cycle accounting and ground-truth per-PC statistics.
    pub counters: PerfCounters,
    /// Programmed PEBS counters.
    pub samplers: Vec<PebsSampler>,
    /// Last-branch-record ring.
    pub lbr: Lbr,
    /// Whether taken branches are recorded into the LBR.
    pub lbr_enabled: bool,
    /// Switch-on-stall execution: loads that would stall return
    /// [`Exit::Stalled`] instead of blocking (used by the SMT model).
    pub switch_on_stall: bool,
    /// Optional execution trace (off by default; set to
    /// `Some(Trace::new(n))` to record the last `n` steps).
    pub trace: Option<Trace>,
    /// Optional deterministic fault injector (off by default; install
    /// `Some(FaultInjector::new(plan))` to corrupt the observation and
    /// execution channels the plan arms).
    pub faults: Option<FaultInjector>,
    /// Cached superblocks for the pre-decoded dispatch tier (see
    /// [`crate::blocks`]). Keyed by program identity; must be invalidated
    /// via [`Machine::invalidate_blocks`] on any code-map change.
    pub block_cache: BlockCache,
    /// Whether [`Machine::run`] may use the superblock engine (default).
    /// Off pins every run to the reference loop over [`Machine::step`],
    /// to A/B the two; simulated state is identical either way.
    pub blocks_enabled: bool,
}

impl Machine {
    /// Creates a machine with cold caches at cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: MachineConfig) -> Self {
        let hier = Hierarchy::new(&cfg);
        Machine {
            cfg,
            mem: Memory::new(),
            hier,
            now: 0,
            counters: PerfCounters::new(),
            samplers: Vec::new(),
            lbr: Lbr::new(),
            lbr_enabled: false,
            switch_on_stall: false,
            trace: None,
            faults: None,
            block_cache: BlockCache::default(),
            blocks_enabled: true,
        }
    }

    /// Drops every cached superblock. **Required** whenever a code map
    /// changes under a live machine: a supervisor hot swap, a
    /// re-instrumentation pass, or any in-place mutation of a [`Program`]
    /// this machine has already executed. Cheap when nothing is cached;
    /// debug builds catch violations by revalidating block content
    /// hashes on every dispatch.
    pub fn invalidate_blocks(&mut self) {
        self.block_cache.invalidate();
    }

    /// Programs an additional PEBS counter; returns its index for
    /// [`Machine::take_samples`].
    pub fn add_sampler(&mut self, cfg: PebsConfig) -> usize {
        self.samplers.push(PebsSampler::new(cfg));
        self.samplers.len() - 1
    }

    /// Drains and returns the samples buffered by counter `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a value returned by
    /// [`Machine::add_sampler`].
    pub fn take_samples(&mut self, idx: usize) -> Vec<Sample> {
        self.samplers[idx].drain()
    }

    /// Fires `n` occurrences of `event` into every matching sampler and
    /// charges the sampling overhead for any samples taken.
    pub(crate) fn fire_event(&mut self, event: HwEvent, pc: usize, addr: Option<u64>, n: u64) {
        if self.samplers.is_empty() || n == 0 {
            return;
        }
        // The fault injector sits between the event and the PMU: it can
        // drop the occurrence outright, mis-attribute its PC, or inflate
        // skid — exactly the lies real PEBS hardware tells.
        let (pc, extra_skid) = match &mut self.faults {
            Some(fi) => match fi.corrupt_pebs(pc) {
                Some(v) => v,
                None => return,
            },
            None => (pc, 0),
        };
        let pc = pc + extra_skid as usize;
        let now = self.now;
        let mut taken = 0;
        for s in &mut self.samplers {
            if s.cfg.event == event {
                taken += s.observe(pc, addr, now, n);
            }
        }
        if taken > 0 {
            let cost = taken * self.cfg.pebs_sample_cost;
            self.counters.sampling_cycles += cost;
            self.now += cost;
        }
    }

    /// Records a taken control transfer into the LBR, unless disabled or
    /// dropped by the fault injector (ring truncation).
    pub(crate) fn record_branch(&mut self, from: usize, to: usize) {
        if !self.lbr_enabled {
            return;
        }
        if let Some(fi) = &mut self.faults {
            if fi.drop_lbr(from, to) {
                return;
            }
        }
        self.lbr.record(from, to, self.now);
    }

    /// Charges `c` cycles of useful work.
    #[inline]
    pub(crate) fn busy(&mut self, c: u64) {
        self.now += c;
        self.counters.busy_cycles += c;
    }

    /// Charges a context switch of the given kind; returns its cost.
    #[inline]
    pub fn charge_switch(&mut self, kind: SwitchKind) -> u64 {
        let cost = match kind {
            SwitchKind::Coroutine(save) => self
                .cfg
                .coro_switch_cost(save.map_or(NUM_REGS as u8, |mask| mask.count_ones() as u8)),
            SwitchKind::Smt => self.cfg.smt_switch,
            SwitchKind::Thread => self.cfg.thread_switch,
        };
        self.now += cost;
        self.counters.switch_cycles += cost;
        cost
    }

    /// Advances the clock with every context blocked (pipeline idle).
    pub fn advance_idle(&mut self, cycles: u64) {
        self.now += cycles;
        self.counters.idle_cycles += cycles;
    }

    /// Completes a parked [`PendingLoad`] if its data has arrived; charges
    /// any residual stall if the executor resumed the context early.
    #[inline]
    pub(crate) fn complete_pending(&mut self, ctx: &mut Context) {
        if let Some(p) = ctx.pending_load.take() {
            if self.now < p.ready {
                let residual = p.ready - self.now;
                self.now = p.ready;
                self.counters.stall_cycles += residual;
            }
            ctx.set_reg(p.dst, p.value);
            ctx.pc += 1;
            self.busy(1);
            self.counters.instructions += 1;
            ctx.stats.instructions += 1;
        }
    }

    /// Executes exactly one instruction of `prog` in `ctx`.
    ///
    /// Returns `Ok(Some(exit))` when control must return to the executor
    /// (yield fired, stall in switch-on-stall mode, or halt), `Ok(None)`
    /// to continue stepping.
    pub fn step(&mut self, prog: &Program, ctx: &mut Context) -> Result<Option<Exit>, ExecError> {
        if ctx.status != Status::Runnable {
            return Err(ExecError::NotRunnable);
        }
        if let Some(fi) = &mut self.faults {
            if fi.should_trap() {
                ctx.status = Status::Faulted;
                return Err(ExecError::InjectedFault { pc: ctx.pc });
            }
        }
        if ctx.stats.started_at.is_none() {
            ctx.stats.started_at = Some(self.now);
        }
        self.complete_pending(ctx);

        let pc = ctx.pc;
        let inst = prog.insts.get(pc).ok_or(ExecError::BadPc { pc })?;
        if let Some(t) = &mut self.trace {
            t.record(self.now, ctx.id, pc);
        }

        match *inst {
            Inst::Imm { dst, val } => {
                ctx.set_reg(dst, val);
                ctx.pc += 1;
                self.busy(1);
            }
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
                lat,
            } => {
                let v = op.eval(ctx.reg(src1), ctx.reg(src2));
                ctx.set_reg(dst, v);
                ctx.pc += 1;
                self.busy(lat as u64);
            }
            Inst::Load { dst, addr, offset } => {
                let ea = ctx.reg(addr).wrapping_add_signed(offset);
                // Host-side overlap: fetch the backing word behind the
                // hierarchy walk (no simulated effect).
                self.mem.host_prefetch(ea);
                let access = self.hier.access(ea, self.now, AccessKind::DemandLoad);
                let wait = access.ready.saturating_sub(self.now);
                let stall = wait.saturating_sub(self.cfg.ooo_window);
                // A load that merges with an in-flight fill is a
                // fill-buffer hit, not a miss (Intel: MEM_LOAD_RETIRED.
                // FB_HIT): attribute it by its *visible* wait, not by the
                // original fill's origin level.
                let level = if access.merged_with_fill {
                    if stall == 0 {
                        Level::L1
                    } else if wait <= self.cfg.l3.hit_latency {
                        Level::L3
                    } else {
                        Level::Mem
                    }
                } else {
                    access.level
                };
                // Ground truth + PMU events are recorded at miss time: that
                // is when the hardware counter overflows.
                self.counters.record_load(pc, level, stall);
                match level {
                    Level::L3 | Level::Mem => {
                        self.fire_event(HwEvent::LoadL2Miss, pc, Some(ea), 1);
                        if level == Level::Mem {
                            self.fire_event(HwEvent::LoadL3Miss, pc, Some(ea), 1);
                        }
                    }
                    Level::L1 | Level::L2 => {}
                }
                self.fire_event(HwEvent::StallCycle, pc, Some(ea), stall);

                if stall > 0 && self.switch_on_stall {
                    // Park the load; it completes transparently on resume.
                    let value = self.mem.read_hot(ea)?;
                    ctx.pending_load = Some(PendingLoad {
                        dst,
                        value,
                        ready: access.ready,
                    });
                    return Ok(Some(Exit::Stalled {
                        ready: access.ready,
                    }));
                }

                let value = self.mem.read_hot(ea)?;
                ctx.set_reg(dst, value);
                ctx.pc += 1;
                self.busy(1);
                // Blocking core: the stall is really lost.
                self.now += stall;
                self.counters.stall_cycles += stall;
            }
            Inst::Store { src, addr, offset } => {
                let ea = ctx.reg(addr).wrapping_add_signed(offset);
                let _ = self.hier.access(ea, self.now, AccessKind::Store);
                self.mem.write_hot(ea, ctx.reg(src))?;
                ctx.pc += 1;
                self.busy(1);
                self.counters.stores += 1;
            }
            Inst::Prefetch { addr, offset } => {
                let ea = ctx.reg(addr).wrapping_add_signed(offset);
                // A corrupted hint warms the wrong line; the later demand
                // load still reads the true address, so semantics hold.
                let ea = match &mut self.faults {
                    Some(fi) => fi.corrupt_prefetch(ea),
                    None => ea,
                };
                let access = self.hier.access(ea, self.now, AccessKind::Prefetch);
                ctx.last_prefetch_level = Some(access.level);
                ctx.pc += 1;
                self.busy(self.cfg.prefetch_cost);
                self.counters.prefetches += 1;
            }
            Inst::Branch { cond, src, target } => {
                self.counters.branches += 1;
                let taken = cond.eval(ctx.reg(src));
                self.busy(1);
                if taken {
                    self.record_branch(pc, target);
                    ctx.pc = target;
                } else {
                    ctx.pc += 1;
                }
            }
            Inst::Call { target } => {
                if ctx.call_stack.len() >= MAX_CALL_DEPTH {
                    ctx.status = Status::Faulted;
                    return Err(ExecError::CallDepth { pc });
                }
                ctx.call_stack.push(pc + 1);
                self.busy(2);
                self.record_branch(pc, target);
                ctx.pc = target;
            }
            Inst::Ret => {
                let Some(ret) = ctx.call_stack.pop() else {
                    ctx.status = Status::Faulted;
                    return Err(ExecError::RetEmptyStack { pc });
                };
                self.busy(2);
                self.record_branch(pc, ret);
                ctx.pc = ret;
            }
            Inst::Yield { kind, save_regs } => {
                ctx.pc += 1;
                let fires = match kind {
                    YieldKind::Primary | YieldKind::Manual => true,
                    YieldKind::Scavenger => {
                        self.now += self.cfg.cond_check_cost;
                        self.counters.check_cycles += self.cfg.cond_check_cost;
                        ctx.mode == Mode::Scavenger
                    }
                    YieldKind::IfAbsent => {
                        self.now += self.cfg.cond_check_cost;
                        self.counters.check_cycles += self.cfg.cond_check_cost;
                        matches!(ctx.last_prefetch_level, Some(Level::L3) | Some(Level::Mem))
                    }
                };
                self.counters.instructions += 1;
                ctx.stats.instructions += 1;
                if fires {
                    self.counters.yields_fired += 1;
                    ctx.stats.yields_taken += 1;
                    return Ok(Some(Exit::Yielded {
                        pc,
                        kind,
                        save_regs,
                    }));
                }
                self.counters.yields_suppressed += 1;
                return Ok(None);
            }
            Inst::Halt => {
                ctx.status = Status::Done;
                ctx.stats.finished_at = Some(self.now);
                self.counters.instructions += 1;
                ctx.stats.instructions += 1;
                return Ok(Some(Exit::Done));
            }
        }
        self.counters.instructions += 1;
        ctx.stats.instructions += 1;
        self.fire_event(HwEvent::InstRetired, pc, None, 1);
        Ok(None)
    }

    /// The reference loop: up to `n` calls of [`Machine::step`], stopping
    /// at the first exit. Out of line, so that the block engine's loop,
    /// which calls it for the blocks it declines, does not grow by `step`.
    #[inline(never)]
    pub(crate) fn step_n(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        n: u64,
    ) -> Result<Option<Exit>, ExecError> {
        for _ in 0..n {
            if let Some(exit) = self.step(prog, ctx)? {
                return Ok(Some(exit));
            }
        }
        Ok(None)
    }

    /// True when [`Machine::run_lanes`] must stay on the reference loop.
    /// Read from what is armed right now — `samplers`, `faults` and
    /// `trace` are public fields, mutated directly between runs.
    ///
    /// * A [`Trace`] records every instruction.
    /// * A PEBS drop or PC-corruption channel draws from its random
    ///   stream once per event occurrence reaching a non-empty sampler
    ///   set — once per retired instruction — so its schedule is only
    ///   reproducible instruction by instruction.
    ///
    /// Everything else the block engine observes exactly: samplers on any
    /// event, extra skid, LBR drops, prefetch corruption, traps.
    fn needs_reference_tier(&self) -> bool {
        !self.blocks_enabled
            || self.trace.is_some()
            || (!self.samplers.is_empty()
                && self
                    .faults
                    .as_ref()
                    .is_some_and(|fi| fi.plan.pebs_drop > 0.0 || fi.plan.pebs_pc_corrupt > 0.0))
    }

    /// The execution primitive: `fill` names the lane that runs first;
    /// that lane runs until it gives up the core — a yield fires, it
    /// halts, its `budget` runs out, it stalls (switch-on-stall mode) or
    /// errs; `fill` is told ([`Stopped`]) and names the lane to swap to;
    /// and so on until `fill` returns instead. Every executor is a fill
    /// policy over this; [`Machine::run`] is the one-lane policy that
    /// returns every event.
    ///
    /// The engine executes; the policy — a closure the engine is
    /// monomorphised over, so it inlines into the dispatch loop — owns
    /// every decision and all bookkeeping: roles, switch costs, budgets,
    /// fault isolation, reports. It is handed the machine to charge
    /// switch costs and read the clock and counters. It must leave
    /// `samplers`, `faults`, `trace`, `block_cache` and `blocks_enabled`
    /// alone, and must not run anything on the machine itself: the engine
    /// holds the block cache and credits retirements to the samplers and
    /// the fault injector lazily, across swaps, settling them only when
    /// the policy returns.
    ///
    /// Cycle-exact regardless of route. Dispatch is two-tiered and
    /// decided once per call: the superblock engine ([`crate::blocks`]),
    /// monomorphised for a machine with nothing armed and for one with
    /// samplers or a fault injector, where a swap is a few loads and
    /// stores inside the dispatch loop — or, when
    /// [`Machine::blocks_enabled`] is off, a trace is attached, or a
    /// PEBS drop/corrupt channel is armed together with samplers, the
    /// same policy driven over [`Machine::step`]. Both produce identical
    /// counters, registers, clock, events, samples and fault logs
    /// (enforced by differential proptests against `step`).
    pub fn run_lanes<R>(
        &mut self,
        lanes: &mut [Lane<'_>],
        mut fill: impl FnMut(&mut Machine, &mut [Lane<'_>], Option<Stopped>) -> Next<R>,
    ) -> R {
        let mut cur = match fill(self, lanes, None) {
            Next::Run(first) => first,
            Next::Return(out) => return out,
        };
        if self.needs_reference_tier() {
            loop {
                let lane = &mut lanes[cur];
                let event = self
                    .step_n(lane.prog, lane.ctx, lane.budget)
                    .map(|exit| exit.unwrap_or(Exit::StepLimit));
                match fill(self, lanes, Some((cur, event))) {
                    Next::Run(next) => cur = next,
                    Next::Return(out) => return out,
                }
            }
        }
        // Move the cache out for the duration of the run so the dispatch
        // loop can borrow blocks while handlers borrow the machine
        // mutably.
        let mut cache = std::mem::take(&mut self.block_cache);
        let out = if self.samplers.is_empty() && self.faults.is_none() {
            self.dispatch_lanes::<Unobserved, R>(&mut cache, lanes, cur, &mut fill)
        } else {
            self.dispatch_lanes::<Observed, R>(&mut cache, lanes, cur, &mut fill)
        };
        self.block_cache = cache;
        out
    }

    /// Runs `ctx` until a yield fires, it stalls (switch-on-stall mode),
    /// it halts, or `max_steps` instructions have retired: one lane of
    /// [`Machine::run_lanes`] under the policy that returns every event.
    pub fn run(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        max_steps: u64,
    ) -> Result<Exit, ExecError> {
        let lane = &mut [Lane::new(prog, ctx, max_steps)];
        self.run_lanes(lane, |_, _, stopped| match stopped {
            None => Next::Run(0),
            Some((_, event)) => Next::Return(event),
        })
    }

    /// Runs a single context to completion, treating fired yields as
    /// no-ops (a coroutine with nothing to switch to resumes itself at
    /// zero cost). Useful for functional-equivalence checks and for the
    /// "no hiding" baseline.
    pub fn run_to_completion(
        &mut self,
        prog: &Program,
        ctx: &mut Context,
        max_steps: u64,
    ) -> Result<Exit, ExecError> {
        let start = ctx.stats.instructions;
        let lane = &mut [Lane::new(prog, ctx, max_steps)];
        self.run_lanes(lane, |m, lane, stopped| {
            match stopped {
                // Self-resume: nothing to hide behind.
                None | Some((_, Ok(Exit::Yielded { .. }))) => {}
                Some((_, Ok(Exit::Stalled { ready }))) => {
                    // Nothing else to run: wait out the stall.
                    let residual = ready.saturating_sub(m.now);
                    m.now += residual;
                    m.counters.stall_cycles += residual;
                }
                Some((_, done)) => return Next::Return(done),
            }
            // The lane resumes on what is left of `max_steps`.
            let used = lane[0].ctx.stats.instructions - start;
            if used >= max_steps {
                return Next::Return(Ok(Exit::StepLimit));
            }
            lane[0].budget = max_steps - used;
            Next::Run(0)
        })
    }

    /// Convenience for reports: total cycles in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.cfg.cycles_to_ns(self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AluOp, Cond, ProgramBuilder, Reg};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn imm_alu_sequence_computes_and_charges_cycles() {
        let mut b = ProgramBuilder::new("t");
        b.imm(Reg(0), 6).imm(Reg(1), 7);
        b.alu(AluOp::Mul, Reg(2), Reg(0), Reg(1), 3);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        let exit = m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(exit, Exit::Done);
        assert_eq!(ctx.reg(Reg(2)), 42);
        // 1 + 1 + 3 busy cycles; halt costs nothing.
        assert_eq!(m.counters.busy_cycles, 5);
        assert_eq!(m.counters.instructions, 4);
        assert_eq!(ctx.status, Status::Done);
    }

    #[test]
    fn cold_load_stalls_beyond_ooo_window() {
        let mut b = ProgramBuilder::new("t");
        b.imm(Reg(0), 0x1000);
        b.load(Reg(1), Reg(0), 0);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.mem.write(0x1000, 99).unwrap();
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(ctx.reg(Reg(1)), 99);
        // Memory latency 300, OoO window 30 -> 270 visible stall cycles.
        assert_eq!(m.counters.stall_cycles, 270);
        assert_eq!(m.counters.per_pc[&1].served_by[Level::Mem.index()], 1);
    }

    #[test]
    fn warm_load_has_no_visible_stall() {
        let mut b = ProgramBuilder::new("t");
        b.imm(Reg(0), 0x1000);
        b.load(Reg(1), Reg(0), 0);
        b.load(Reg(2), Reg(0), 8);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.mem.write(0x1008, 7).unwrap();
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(ctx.reg(Reg(2)), 7);
        // Second load: same line, L1 hit (4 cyc < 30 window) => no stall.
        assert_eq!(m.counters.stall_cycles, 270);
    }

    #[test]
    fn prefetch_then_work_then_load_hides_latency() {
        // prefetch [r0]; 300 cycles of ALU work; load [r0] -> no stall.
        let mut b = ProgramBuilder::new("t");
        b.imm(Reg(0), 0x2000);
        b.prefetch(Reg(0), 0);
        b.alu(AluOp::Add, Reg(3), Reg(3), Reg(3), 300);
        b.load(Reg(1), Reg(0), 0);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(m.counters.stall_cycles, 0, "prefetch fully hid the miss");
        assert_eq!(m.counters.prefetches, 1);
    }

    #[test]
    fn prefetch_with_insufficient_work_hides_partially() {
        let mut b = ProgramBuilder::new("t");
        b.imm(Reg(0), 0x2000);
        b.prefetch(Reg(0), 0);
        b.alu(AluOp::Add, Reg(3), Reg(3), Reg(3), 100);
        b.load(Reg(1), Reg(0), 0);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 100).unwrap();
        // Prefetch accesses at t=1 (after the imm), fill ready at 301; the
        // load issues at t=102 (imm + prefetch + 100 ALU cycles), waits
        // 199; visible stall 199-30 = 169.
        assert_eq!(m.counters.stall_cycles, 169);
    }

    #[test]
    fn branch_loop_and_lbr() {
        let mut b = ProgramBuilder::new("loop");
        let r = Reg(0);
        let one = Reg(1);
        b.imm(r, 3).imm(one, 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, r, r, one, 1);
        b.branch(Cond::Nez, r, top);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.lbr_enabled = true;
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(ctx.reg(r), 0);
        assert_eq!(m.counters.branches, 3);
        // Two taken back-edges recorded.
        assert_eq!(m.lbr.recorded, 2);
    }

    #[test]
    fn call_and_ret() {
        let mut b = ProgramBuilder::new("call");
        let f = b.label();
        b.imm(Reg(0), 5);
        b.call(f);
        b.halt();
        b.bind(f);
        b.alu(AluOp::Add, Reg(0), Reg(0), Reg(0), 1);
        b.ret();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        let exit = m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(exit, Exit::Done);
        assert_eq!(ctx.reg(Reg(0)), 10);
        assert!(ctx.call_stack.is_empty());
    }

    #[test]
    fn ret_empty_stack_faults() {
        let mut b = ProgramBuilder::new("bad");
        b.ret();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        assert_eq!(
            m.run(&p, &mut ctx, 10),
            Err(ExecError::RetEmptyStack { pc: 0 })
        );
        assert_eq!(ctx.status, Status::Faulted);
    }

    #[test]
    fn manual_yield_fires_and_returns_to_executor() {
        let mut b = ProgramBuilder::new("y");
        b.imm(Reg(0), 1);
        b.yield_manual();
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        let exit = m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(
            exit,
            Exit::Yielded {
                pc: 1,
                kind: YieldKind::Manual,
                save_regs: None
            }
        );
        assert_eq!(ctx.pc, 2, "pc points past the yield");
        // Resuming finishes the program.
        assert_eq!(m.run(&p, &mut ctx, 100).unwrap(), Exit::Done);
        assert_eq!(m.counters.yields_fired, 1);
    }

    #[test]
    fn scavenger_yield_only_fires_in_scavenger_mode() {
        let mut b = ProgramBuilder::new("s");
        b.push(Inst::Yield {
            kind: YieldKind::Scavenger,
            save_regs: Some(0b11),
        });
        b.halt();
        let p = b.finish().unwrap();

        let mut m = machine();
        let mut primary = Context::new(0);
        assert_eq!(m.run(&p, &mut primary, 10).unwrap(), Exit::Done);
        assert_eq!(m.counters.yields_suppressed, 1);
        assert!(m.counters.check_cycles > 0, "condition check is not free");

        let mut scav = Context::with_mode(1, Mode::Scavenger);
        let exit = m.run(&p, &mut scav, 10).unwrap();
        assert!(matches!(
            exit,
            Exit::Yielded {
                kind: YieldKind::Scavenger,
                save_regs: Some(0b11),
                ..
            }
        ));
    }

    #[test]
    fn if_absent_yield_fires_only_on_miss() {
        // prefetch a cold line -> IfAbsent fires; prefetch a hot line ->
        // suppressed.
        let mut b = ProgramBuilder::new("ia");
        b.imm(Reg(0), 0x3000);
        b.prefetch(Reg(0), 0);
        b.push(Inst::Yield {
            kind: YieldKind::IfAbsent,
            save_regs: Some(0b1),
        });
        b.load(Reg(1), Reg(0), 0);
        // Enough independent work for the fill to complete before the
        // second probe (the OoO-window model lets the load retire slightly
        // before the line physically lands).
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(2), 300);
        b.prefetch(Reg(0), 0);
        b.push(Inst::Yield {
            kind: YieldKind::IfAbsent,
            save_regs: Some(0b1),
        });
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        let exit = m.run(&p, &mut ctx, 100).unwrap();
        assert!(
            matches!(
                exit,
                Exit::Yielded {
                    kind: YieldKind::IfAbsent,
                    ..
                }
            ),
            "cold prefetch: yield fires"
        );
        // Resume; the load waits out the fill, the ALU work lets it land,
        // then the second prefetch finds the line resident: yield
        // suppressed, halt.
        let exit = m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(exit, Exit::Done);
        assert_eq!(m.counters.yields_fired, 1);
        assert_eq!(m.counters.yields_suppressed, 1);
    }

    #[test]
    fn switch_on_stall_parks_and_completes_load() {
        let mut b = ProgramBuilder::new("smt");
        b.imm(Reg(0), 0x4000);
        b.load(Reg(1), Reg(0), 0);
        b.alu(AluOp::Add, Reg(2), Reg(1), Reg(1), 1);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.switch_on_stall = true;
        m.mem.write(0x4000, 21).unwrap();
        let mut ctx = Context::new(0);
        let exit = m.run(&p, &mut ctx, 100).unwrap();
        let Exit::Stalled { ready } = exit else {
            panic!("expected stall, got {exit:?}");
        };
        assert_eq!(ready, 301, "issue at cycle 1, 300-cycle fill");
        assert_eq!(ctx.reg(Reg(1)), 0, "load not yet architecturally complete");
        // Executor waits out the fill, then resumes.
        m.advance_idle(ready - m.now);
        let exit = m.run(&p, &mut ctx, 100).unwrap();
        assert_eq!(exit, Exit::Done);
        assert_eq!(ctx.reg(Reg(1)), 21);
        assert_eq!(ctx.reg(Reg(2)), 42);
    }

    #[test]
    fn switch_on_stall_early_resume_charges_residual_stall() {
        let mut b = ProgramBuilder::new("early");
        b.imm(Reg(0), 0x4000);
        b.load(Reg(1), Reg(0), 0);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.switch_on_stall = true;
        let mut ctx = Context::new(0);
        let Exit::Stalled { ready } = m.run(&p, &mut ctx, 100).unwrap() else {
            panic!("expected stall");
        };
        let stall_before = m.counters.stall_cycles;
        // Resume immediately: the machine must charge the residual wait.
        m.run(&p, &mut ctx, 100).unwrap();
        assert!(m.now >= ready);
        assert!(m.counters.stall_cycles > stall_before);
    }

    #[test]
    fn run_to_completion_treats_yields_as_noops_and_preserves_results() {
        let mut b = ProgramBuilder::new("rc");
        b.imm(Reg(0), 2);
        b.yield_manual();
        b.alu(AluOp::Add, Reg(0), Reg(0), Reg(0), 1);
        b.yield_manual();
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        assert_eq!(m.run_to_completion(&p, &mut ctx, 1000).unwrap(), Exit::Done);
        assert_eq!(ctx.reg(Reg(0)), 4);
        assert_eq!(m.counters.yields_fired, 2);
    }

    /// The primitive itself: two lanes of two programs, swapped at every
    /// event by a policy that logs what it is told — on the block engine
    /// and on the reference tier alike.
    #[test]
    fn run_lanes_swaps_where_the_policy_says_and_returns_what_it_says() {
        let looper = |n: u64, tag: u64| {
            let mut b = ProgramBuilder::new("lane");
            b.imm(Reg(0), n).imm(Reg(1), 1);
            let top = b.label();
            b.bind(top);
            b.alu(AluOp::Add, Reg(2), Reg(2), Reg(1), tag as u32);
            b.yield_manual();
            b.alu(AluOp::Sub, Reg(0), Reg(0), Reg(1), 1);
            b.branch(Cond::Nez, Reg(0), top);
            b.halt();
            b.finish().unwrap()
        };
        let (a, b) = (looper(3, 1), looper(2, 7));
        let drive = |blocks: bool| {
            let mut m = machine();
            m.blocks_enabled = blocks;
            let (mut ca, mut cb) = (Context::new(0), Context::new(1));
            let mut lanes = [Lane::new(&a, &mut ca, 0), Lane::new(&b, &mut cb, 0)];
            let mut log = Vec::new();
            let out = m.run_lanes(&mut lanes, |m, lanes, stopped| {
                let mut next = 0;
                if let Some((lane, event)) = stopped {
                    log.push((lane, event, m.now));
                    next = 1 - lane;
                    if event == Ok(Exit::Done) {
                        return Next::Return("lane 0 is done");
                    }
                }
                // Lane 0 may finish; lane 1 gets two instructions a slice.
                lanes[next].budget = [100, 2][next];
                Next::Run(next)
            });
            (out, log, m.now, m.counters, ca.regs, cb.regs, cb.pc)
        };
        let on_blocks = drive(true);
        assert_eq!(on_blocks, drive(false));
        let (out, log, ..) = on_blocks;
        assert_eq!(out, "lane 0 is done");
        let lanes: Vec<usize> = log.iter().map(|e| e.0).collect();
        assert_eq!(lanes, [0, 1, 0, 1, 0, 1, 0]);
        assert!(matches!(log[0].1, Ok(Exit::Yielded { pc: 3, .. })));
        assert_eq!(log[1].1, Ok(Exit::StepLimit), "two instructions: imm, imm");
        assert!(matches!(log[3].1, Ok(Exit::Yielded { .. })), "add, yield");
        assert_eq!(log[6].1, Ok(Exit::Done));
    }

    #[test]
    fn sampling_fires_and_charges_overhead() {
        let mut b = ProgramBuilder::new("pebs");
        b.imm(Reg(0), 0x8000);
        // 4 cold loads to distinct lines.
        for i in 0..4 {
            b.load(Reg(1), Reg(0), i * 64);
        }
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let idx = m.add_sampler(PebsConfig {
            event: HwEvent::LoadL2Miss,
            period: 2,
            skid: 0,
            buffer_capacity: 64,
        });
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 100).unwrap();
        let samples = m.take_samples(idx);
        assert_eq!(samples.len(), 2, "4 misses at period 2");
        assert!(m.counters.sampling_cycles > 0);
        assert!(samples.iter().all(|s| s.event == HwEvent::LoadL2Miss));
    }

    #[test]
    fn step_limit_exit() {
        let mut b = ProgramBuilder::new("inf");
        let top = b.label();
        b.bind(top);
        b.jump(top);
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        assert_eq!(m.run(&p, &mut ctx, 50).unwrap(), Exit::StepLimit);
        assert!(ctx.is_runnable(), "limit does not kill the context");
    }

    #[test]
    fn not_runnable_context_errors() {
        let mut b = ProgramBuilder::new("h");
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 10).unwrap();
        assert_eq!(m.step(&p, &mut ctx), Err(ExecError::NotRunnable));
    }

    #[test]
    fn charge_switch_costs_match_config() {
        let mut m = machine();
        let cfg = m.cfg.clone();
        assert_eq!(
            m.charge_switch(SwitchKind::Coroutine(Some(0b1111))),
            cfg.coro_switch_cost(4)
        );
        assert_eq!(m.charge_switch(SwitchKind::Thread), cfg.thread_switch);
        assert_eq!(m.charge_switch(SwitchKind::Smt), cfg.smt_switch);
        assert_eq!(
            m.counters.switch_cycles,
            cfg.coro_switch_cost(4) + cfg.thread_switch + cfg.smt_switch
        );
    }

    #[test]
    fn cloned_machine_forks_deterministically() {
        // A Machine snapshot (Clone) must continue identically to the
        // original: the whole simulation state is value-semantic.
        let mut b = ProgramBuilder::new("fork");
        b.imm(Reg(0), 0x4000);
        for i in 0..8 {
            b.load(Reg(1), Reg(0), i * 64);
        }
        b.halt();
        let p = b.finish().unwrap();

        let mut m = machine();
        let mut ctx = Context::new(0);
        // Execute half, snapshot, then run both to completion.
        for _ in 0..4 {
            m.step(&p, &mut ctx).unwrap();
        }
        let mut m2 = m.clone();
        let mut ctx2 = ctx.clone();
        m.run(&p, &mut ctx, 100).unwrap();
        m2.run(&p, &mut ctx2, 100).unwrap();
        assert_eq!(m.now, m2.now);
        assert_eq!(m.counters.stall_cycles, m2.counters.stall_cycles);
        assert_eq!(ctx.regs, ctx2.regs);
    }

    #[test]
    fn if_absent_without_prior_prefetch_never_fires() {
        let mut b = ProgramBuilder::new("ia0");
        b.push(Inst::Yield {
            kind: YieldKind::IfAbsent,
            save_regs: None,
        });
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        assert_eq!(m.run(&p, &mut ctx, 10).unwrap(), Exit::Done);
        assert_eq!(m.counters.yields_fired, 0);
        assert_eq!(m.counters.yields_suppressed, 1);
    }

    #[test]
    fn call_and_ret_record_lbr_transfers() {
        let mut b = ProgramBuilder::new("clbr");
        let f = b.label();
        b.call(f);
        b.halt();
        b.bind(f);
        b.imm(Reg(0), 1);
        b.ret();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.lbr_enabled = true;
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 10).unwrap();
        let snap = m.lbr.snapshot();
        assert_eq!(snap.len(), 2, "call and ret are both taken transfers");
        assert_eq!(snap[0].from, 0);
        assert_eq!(snap[0].to, 2);
        assert_eq!(snap[1].from, 3);
        assert_eq!(snap[1].to, 1);
    }

    #[test]
    fn negative_offsets_and_wrapping_addresses() {
        let mut b = ProgramBuilder::new("neg");
        b.imm(Reg(0), 0x2008);
        b.load(Reg(1), Reg(0), -8);
        b.store(Reg(1), Reg(0), 8);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.mem.write(0x2000, 0x55).unwrap();
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 10).unwrap();
        assert_eq!(ctx.reg(Reg(1)), 0x55);
        assert_eq!(m.mem.read(0x2010).unwrap(), 0x55);
    }

    #[test]
    fn unaligned_load_is_an_error_not_a_panic() {
        let mut b = ProgramBuilder::new("ua");
        b.imm(Reg(0), 0x1001);
        b.load(Reg(1), Reg(0), 0);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        let err = m.run(&p, &mut ctx, 10);
        assert!(matches!(err, Err(ExecError::Mem(_))));
    }

    #[test]
    fn call_depth_overflow_faults() {
        // Infinite self-recursion through the shadow stack.
        let mut b = ProgramBuilder::new("rec");
        let f = b.label();
        b.bind(f);
        b.call(f);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        let mut ctx = Context::new(0);
        let err = m.run(&p, &mut ctx, 100_000);
        assert!(matches!(err, Err(ExecError::CallDepth { .. })));
        assert_eq!(ctx.status, Status::Faulted);
    }

    #[test]
    fn advance_idle_counts_idle_cycles() {
        let mut m = machine();
        m.advance_idle(123);
        assert_eq!(m.counters.idle_cycles, 123);
        assert_eq!(m.now, 123);
        assert_eq!(m.counters.total_cycles(), 123);
    }

    #[test]
    fn elapsed_ns_tracks_clock() {
        let mut m = machine();
        m.advance_idle(600);
        assert!((m.elapsed_ns() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn injected_trap_faults_the_running_context() {
        use crate::faults::{FaultInjector, FaultPlan};
        let mut b = ProgramBuilder::new("trap");
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Add, Reg(0), Reg(0), Reg(0), 1);
        b.jump(top);
        let p = b.finish().unwrap();
        let mut m = machine();
        m.faults = Some(FaultInjector::new(FaultPlan::none(1).with_trap_every(25)));
        let mut ctx = Context::new(0);
        let err = m.run(&p, &mut ctx, 1000);
        assert!(matches!(err, Err(ExecError::InjectedFault { .. })));
        assert_eq!(ctx.status, Status::Faulted);
        assert_eq!(m.faults.as_ref().unwrap().log.traps_injected, 1);
    }

    #[test]
    fn pebs_drop_fault_starves_the_sampler() {
        use crate::faults::{FaultInjector, FaultPlan};
        let mut b = ProgramBuilder::new("drop");
        b.imm(Reg(0), 0x8000);
        for i in 0..8 {
            b.load(Reg(1), Reg(0), i * 64);
        }
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.faults = Some(FaultInjector::new(FaultPlan::none(9).with_pebs_drop(1.0)));
        let idx = m.add_sampler(PebsConfig {
            event: HwEvent::LoadL2Miss,
            period: 1,
            skid: 0,
            buffer_capacity: 64,
        });
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 100).unwrap();
        assert!(m.take_samples(idx).is_empty(), "every event dropped");
        assert!(m.faults.as_ref().unwrap().log.pebs_events_dropped > 0);
        assert_eq!(ctx.status, Status::Done, "faults only hit the PMU path");
    }

    #[test]
    fn lbr_drop_fault_truncates_the_ring() {
        use crate::faults::{FaultInjector, FaultPlan};
        let mut b = ProgramBuilder::new("lbrdrop");
        let r = Reg(0);
        let one = Reg(1);
        b.imm(r, 20).imm(one, 1);
        let top = b.label();
        b.bind(top);
        b.alu(AluOp::Sub, r, r, one, 1);
        b.branch(Cond::Nez, r, top);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.lbr_enabled = true;
        m.faults = Some(FaultInjector::new(FaultPlan::none(5).with_lbr_drop(0.5)));
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 1000).unwrap();
        let dropped = m.faults.as_ref().unwrap().log.lbr_records_dropped;
        assert!(dropped > 0, "some records dropped");
        assert_eq!(m.lbr.recorded + dropped, 19, "19 taken back-edges total");
    }

    /// One test per dispatch rule of [`Machine::run`], read off the
    /// block cache: the engine decodes blocks, the reference loop never
    /// touches it.
    fn runs_on_blocks(arm: impl FnOnce(&mut Machine)) -> bool {
        use crate::faults::{FaultInjector, FaultPlan};
        let mut b = ProgramBuilder::new("tier");
        b.imm(Reg(0), 0x8000);
        b.load(Reg(1), Reg(0), 0);
        b.halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        // A disarmed injector is still an injector.
        m.faults = Some(FaultInjector::new(FaultPlan::none(1)));
        arm(&mut m);
        m.run(&p, &mut Context::new(0), 100).unwrap();
        m.block_cache.stats.compiled > 0
    }

    fn l2_sampler(m: &mut Machine) {
        m.add_sampler(PebsConfig::default());
    }

    #[test]
    fn sampler_only_runs_on_blocks() {
        assert!(runs_on_blocks(|m| {
            m.faults = None;
            l2_sampler(m);
        }));
    }

    #[test]
    fn trap_only_runs_on_blocks() {
        assert!(runs_on_blocks(|m| {
            m.faults.as_mut().unwrap().plan.trap_every = Some(1000);
        }));
    }

    #[test]
    fn pebs_drop_without_a_sampler_runs_on_blocks() {
        assert!(runs_on_blocks(|m| {
            m.faults.as_mut().unwrap().plan.pebs_drop = 0.5;
        }));
    }

    #[test]
    fn pebs_drop_with_a_sampler_runs_on_step() {
        assert!(!runs_on_blocks(|m| {
            m.faults.as_mut().unwrap().plan.pebs_drop = 0.5;
            l2_sampler(m);
        }));
        assert!(!runs_on_blocks(|m| {
            m.faults.as_mut().unwrap().plan.pebs_pc_corrupt = 0.5;
            l2_sampler(m);
        }));
    }

    #[test]
    fn trace_runs_on_step() {
        assert!(!runs_on_blocks(|m| m.trace = Some(Trace::new(8))));
    }

    #[test]
    fn blocks_disabled_runs_on_step() {
        assert!(!runs_on_blocks(|m| m.blocks_enabled = false));
    }

    #[test]
    fn context_latency_recorded() {
        let mut b = ProgramBuilder::new("lat");
        b.imm(Reg(0), 1).halt();
        let p = b.finish().unwrap();
        let mut m = machine();
        m.advance_idle(100);
        let mut ctx = Context::new(0);
        m.run(&p, &mut ctx, 10).unwrap();
        assert_eq!(ctx.stats.started_at, Some(100));
        assert_eq!(ctx.stats.latency(), Some(1));
    }
}
