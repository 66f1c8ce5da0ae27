//! §4.2 runtime-scheduling integration: event hiding in a task scheduler
//! for µs-scale tasks.
//!
//! A stream of short tasks (each a coroutine instance with an arrival
//! time) is served by one core under three disciplines:
//!
//! * [`SchedPolicy::Fifo`] — an event-*agnostic* scheduler: each task runs
//!   to completion; misses stall the core.
//! * [`SchedPolicy::SideCar`] — the paper's first integration option: the
//!   scheduler "exposes the set of coroutines in its ready queue" and the
//!   hiding mechanism switches among *ready* tasks at instrumented yields.
//!   Utilization improves, but every task is stretched equally.
//! * [`SchedPolicy::EventAware`] — the second option: the scheduler
//!   explicitly distinguishes event classes, running the *oldest* ready
//!   task in primary mode and filling its misses with younger tasks in
//!   scavenger mode (asymmetric concurrency applied to the queue), so the
//!   head-of-line task finishes almost as fast as it would alone.

use crate::metrics::percentile;
use reach_sim::{
    Context, ExecError, Exit, Lane, Machine, Mode, Next, Program, Status, SwitchKind, YieldKind,
};

/// Scheduling discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Run-to-completion, arrival order, no hiding.
    Fifo,
    /// Symmetric interleaving across the ready queue at every yield.
    SideCar,
    /// Oldest task primary, younger tasks scavenge its stalls.
    EventAware,
}

/// One task: a context plus its arrival time (cycles).
#[derive(Clone, Debug)]
pub struct Task {
    /// The coroutine instance.
    pub ctx: Context,
    /// Arrival time in absolute cycles.
    pub arrival: u64,
}

/// Result of serving the task queue.
#[derive(Clone, Debug, Default)]
pub struct SchedReport {
    /// Per-task sojourn times (completion − arrival), task order.
    pub sojourns: Vec<u64>,
    /// Per-task service times (completion − first run), task order.
    pub service_times: Vec<u64>,
    /// Completion time of the last task (relative to entry).
    pub makespan: u64,
    /// Tasks completed.
    pub completed: usize,
    /// Tasks retired for exceeding their step budget (runaways).
    pub budget_exceeded: usize,
    /// Tasks retired by an execution fault: `(queue position, error)` in
    /// fault order.
    pub faults: Vec<(usize, ExecError)>,
}

impl SchedReport {
    /// The `p`-th percentile of sojourn time. 0 when no task finished —
    /// callers (the supervisor's SLO guard included) must treat an empty
    /// report as "no evidence", not panic.
    pub fn sojourn_percentile(&self, p: f64) -> u64 {
        percentile(&self.sojourns, p)
    }

    /// The `p`-th percentile of service time. 0 when no task finished.
    pub fn service_percentile(&self, p: f64) -> u64 {
        percentile(&self.service_times, p)
    }
}

/// Serves `tasks` (sorted by arrival internally) over `prog` under
/// `policy`.
///
/// A task that faults or exceeds `max_steps_per_task` is retired
/// (recorded in [`SchedReport::faults`] / [`SchedReport::budget_exceeded`])
/// and the queue keeps draining — one bad task cannot take the scheduler
/// down.
///
/// # Errors
///
/// Per-task failures are contained, not propagated; the `Result` is kept
/// for machine-level errors and API stability.
pub fn run_task_queue(
    machine: &mut Machine,
    prog: &Program,
    tasks: &mut [Task],
    policy: SchedPolicy,
    max_steps_per_task: u64,
) -> Result<SchedReport, ExecError> {
    let started_at = machine.now;
    tasks.sort_by_key(|t| t.arrival);
    let n = tasks.len();
    // Absolute arrival cycle of each task.
    let arrivals: Vec<u64> = tasks.iter().map(|t| started_at + t.arrival).collect();
    let mut first_run: Vec<Option<u64>> = vec![None; n];
    let mut done_at: Vec<Option<u64>> = vec![None; n];
    let mut report = SchedReport::default();

    if policy == SchedPolicy::Fifo {
        for (i, t) in tasks.iter_mut().enumerate() {
            machine.advance_idle(arrivals[i].saturating_sub(machine.now));
            first_run[i] = Some(machine.now);
            match machine.run_to_completion(prog, &mut t.ctx, max_steps_per_task) {
                Ok(Exit::Done) => done_at[i] = Some(machine.now),
                Ok(_) => report.budget_exceeded += 1,
                Err(e) => report.faults.push((i, e)),
            }
            if done_at[i].is_none() {
                t.ctx.status = Status::Faulted;
            }
        }
    } else {
        let aware = policy == SchedPolicy::EventAware;
        // Side-car's round-robin cursor.
        let mut cur = 0usize;
        // Arrived, unfinished, runnable tasks when the scheduled task was
        // picked; once it yields under event-aware, the fillers among them.
        let mut ready: Vec<usize> = Vec::new();
        // Event-aware, while a fill is open: the next filler in `ready`
        // and the cycle the fill started.
        let mut fill: Option<(usize, u64)> = None;

        // The two hiding disciplines as the engine's fill policy: lane
        // `i` is task `i` in arrival order.
        let mut lanes: Vec<Lane<'_>> = tasks
            .iter_mut()
            .map(|t| Lane::new(prog, &mut t.ctx, max_steps_per_task))
            .collect();
        machine.run_lanes(&mut lanes, |m, lanes, stopped| {
            let mut reschedule = true;
            if let Some((i, event)) = stopped {
                // While a fill is open: whether the head task's miss is
                // hidden by now (one memory latency — the event-aware
                // scheduler knows how long the event lasts).
                let filling = fill.map(|(_, start)| m.now - start >= m.cfg.mem_latency);
                match event {
                    Ok(Exit::Done) => {
                        done_at[i] = Some(m.now);
                        reschedule = filling != Some(false);
                    }
                    Ok(Exit::Stalled { .. }) => unreachable!(),
                    Ok(Exit::Yielded {
                        kind, save_regs, ..
                    }) => {
                        let switch = SwitchKind::Coroutine(save_regs);
                        reschedule = match filling {
                            // A filler hands the CPU straight back when
                            // it ran long enough or the miss is hidden;
                            // on its own miss before that it chains to
                            // the next filler.
                            Some(hidden) => {
                                m.charge_switch(switch);
                                hidden || matches!(kind, YieldKind::Scavenger | YieldKind::Manual)
                            }
                            // The head task's miss: fill it with the
                            // *other* ready tasks in scavenger mode, if
                            // there are any.
                            None if aware => {
                                ready.retain(|&j| j != i);
                                if !ready.is_empty() {
                                    m.charge_switch(switch);
                                    fill = Some((0, m.now));
                                }
                                ready.is_empty()
                            }
                            // Side-car: rotate among ready tasks.
                            None => {
                                if ready.iter().any(|&j| j != i) {
                                    m.charge_switch(switch);
                                    cur = i + 1;
                                }
                                true
                            }
                        };
                    }
                    // Trap isolation and runaway containment: retire
                    // this task, keep draining (a fill, with the next
                    // filler).
                    stuck => {
                        lanes[i].ctx.status = Status::Faulted;
                        match stuck {
                            Err(e) => report.faults.push((i, e)),
                            Ok(_) => report.budget_exceeded += 1,
                        }
                        reschedule = filling.is_none();
                    }
                }
                if !matches!(event, Ok(Exit::Yielded { .. })) {
                    cur = i + 1;
                }
            }
            // Event-aware, in a fill: the next filler runs in scavenger
            // mode; with none left the scheduled task gets the core back.
            let filler = fill.filter(|_| !reschedule).and_then(|(k, start)| {
                fill = Some((k + 1, start));
                ready.get(k).copied()
            });
            let (i, mode) = match filler {
                Some(j) => (j, Mode::Scavenger),
                None => {
                    // Who is ready; idle until the next arrival when
                    // nobody is, done when no task is left.
                    fill = None;
                    loop {
                        let pending =
                            |i: &usize| done_at[*i].is_none() && lanes[*i].ctx.is_runnable();
                        ready = (0..n)
                            .filter(|i| pending(i) && arrivals[*i] <= m.now)
                            .collect();
                        if !ready.is_empty() {
                            break;
                        }
                        match (0..n).filter(pending).map(|i| arrivals[i]).min() {
                            Some(t) => m.advance_idle(t.saturating_sub(m.now)),
                            None => return Next::Return(()),
                        }
                    }
                    // Event-aware pins the oldest ready task (tasks are
                    // arrival-sorted) as primary; side-car round-robins.
                    // Either way the scheduled task runs in primary mode
                    // (its conditional scavenger yields stay off);
                    // event-aware demotes its fillers.
                    let next = ready.iter().find(|&&i| !aware && i >= cur);
                    (*next.unwrap_or(&ready[0]), Mode::Primary)
                }
            };
            lanes[i].ctx.mode = mode;
            lanes[i].budget = max_steps_per_task;
            first_run[i].get_or_insert(m.now);
            Next::Run(i)
        });
    }

    for i in 0..n {
        if let (Some(f), Some(d)) = (first_run[i], done_at[i]) {
            report.completed += 1;
            report.sojourns.push(d - arrivals[i]);
            report.service_times.push(d - f);
            report.makespan = report.makespan.max(d - started_at);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{AluOp, Cond, Inst, MachineConfig, ProgramBuilder, Reg};

    /// A µs-scale task: chase 12 nodes with prefetch+primary-yield
    /// instrumentation and scavenger yields after the compute.
    fn task_prog() -> Program {
        let mut b = ProgramBuilder::new("task");
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
        b.alu(AluOp::Add, Reg(2), Reg(2), Reg(6), 80);
        b.push(Inst::Yield {
            kind: YieldKind::Scavenger,
            save_regs: Some(0xFF),
        });
        b.alu(AluOp::Or, Reg(0), Reg(4), Reg(4), 1);
        b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
        b.branch(Cond::Nez, Reg(1), top);
        b.halt();
        b.finish().unwrap()
    }

    fn make_tasks(m: &mut Machine, count: usize, hops: u64, gap: u64) -> Vec<Task> {
        (0..count)
            .map(|i| {
                let base = 0x100_0000 * (i as u64 + 1);
                for k in 0..hops {
                    let addr = base + k * 4096;
                    let next = if k + 1 == hops {
                        0
                    } else {
                        base + (k + 1) * 4096
                    };
                    m.mem.write(addr, next).unwrap();
                    m.mem.write(addr + 8, addr).unwrap();
                }
                let mut ctx = Context::new(i);
                ctx.set_reg(Reg(0), base);
                ctx.set_reg(Reg(1), hops);
                ctx.set_reg(Reg(6), 1);
                Task {
                    ctx,
                    arrival: i as u64 * gap,
                }
            })
            .collect()
    }

    fn run(policy: SchedPolicy) -> (SchedReport, f64) {
        let prog = task_prog();
        let mut m = Machine::new(MachineConfig::default());
        let mut tasks = make_tasks(&mut m, 8, 12, 200);
        let r = run_task_queue(&mut m, &prog, &mut tasks, policy, 1_000_000).unwrap();
        let eff = m.counters.cpu_efficiency();
        (r, eff)
    }

    #[test]
    fn all_policies_complete_all_tasks() {
        for p in [
            SchedPolicy::Fifo,
            SchedPolicy::SideCar,
            SchedPolicy::EventAware,
        ] {
            let (r, _) = run(p);
            assert_eq!(r.completed, 8, "{p:?}");
            assert_eq!(r.sojourns.len(), 8);
        }
    }

    #[test]
    fn hiding_policies_beat_fifo_on_makespan() {
        let (fifo, fifo_eff) = run(SchedPolicy::Fifo);
        let (side, side_eff) = run(SchedPolicy::SideCar);
        let (aware, aware_eff) = run(SchedPolicy::EventAware);
        assert!(
            side.makespan < fifo.makespan,
            "side-car {} !< fifo {}",
            side.makespan,
            fifo.makespan
        );
        assert!(
            aware.makespan < fifo.makespan,
            "event-aware {} !< fifo {}",
            aware.makespan,
            fifo.makespan
        );
        assert!(side_eff > fifo_eff);
        assert!(aware_eff > fifo_eff);
    }

    #[test]
    fn event_aware_compresses_service_time_vs_side_car() {
        let (side, _) = run(SchedPolicy::SideCar);
        let (aware, _) = run(SchedPolicy::EventAware);
        // Side-car stretches every task (fair round robin); event-aware
        // serializes service (head task monopolizes, fillers only absorb
        // its stalls), so per-task service time is much shorter.
        assert!(
            aware.service_percentile(0.5) < side.service_percentile(0.5),
            "aware p50 {} !< side-car p50 {}",
            aware.service_percentile(0.5),
            side.service_percentile(0.5)
        );
    }

    #[test]
    fn faulting_task_is_retired_not_fatal() {
        for p in [
            SchedPolicy::Fifo,
            SchedPolicy::SideCar,
            SchedPolicy::EventAware,
        ] {
            let prog = task_prog();
            let mut m = Machine::new(MachineConfig::default());
            let mut tasks = make_tasks(&mut m, 6, 12, 200);
            // Task 1: misaligned chase head — faults on its first load.
            tasks[1].ctx.set_reg(Reg(0), 0x1001);
            let r = run_task_queue(&mut m, &prog, &mut tasks, p, 1_000_000).unwrap();
            assert_eq!(r.completed, 5, "{p:?}: healthy tasks all finish");
            assert_eq!(r.faults.len(), 1, "{p:?}");
            assert_eq!(r.faults[0].0, 1, "{p:?}: the sabotaged task");
            assert!(matches!(r.faults[0].1, ExecError::Mem(_)), "{p:?}");
            assert_eq!(tasks[1].ctx.status, Status::Faulted);
        }
    }

    #[test]
    fn runaway_task_blows_budget_but_queue_drains() {
        // Pure compute, no yields: the runaway's first slice eats the
        // whole step budget under every policy.
        let prog = {
            let mut b = ProgramBuilder::new("spin");
            let top = b.label();
            b.bind(top);
            b.alu(AluOp::Sub, Reg(1), Reg(1), Reg(6), 1);
            b.branch(Cond::Nez, Reg(1), top);
            b.halt();
            b.finish().unwrap()
        };
        for p in [
            SchedPolicy::Fifo,
            SchedPolicy::SideCar,
            SchedPolicy::EventAware,
        ] {
            let mut m = Machine::new(MachineConfig::default());
            let mut tasks: Vec<Task> = (0..3)
                .map(|i| {
                    let mut ctx = Context::new(i);
                    ctx.set_reg(Reg(1), if i == 1 { 1 << 40 } else { 100 });
                    ctx.set_reg(Reg(6), 1);
                    Task {
                        ctx,
                        arrival: i as u64 * 10,
                    }
                })
                .collect();
            let r = run_task_queue(&mut m, &prog, &mut tasks, p, 20_000).unwrap();
            assert_eq!(r.completed, 2, "{p:?}");
            assert_eq!(r.budget_exceeded, 1, "{p:?}");
            assert!(r.faults.is_empty(), "{p:?}");
            assert_eq!(tasks[1].ctx.status, Status::Faulted, "{p:?}");
        }
    }

    #[test]
    fn percentile_helpers() {
        let r = SchedReport {
            sojourns: vec![10, 20, 30, 40],
            service_times: vec![1, 2, 3, 4],
            makespan: 40,
            completed: 4,
            ..SchedReport::default()
        };
        assert_eq!(r.sojourn_percentile(1.0), 40);
        assert_eq!(r.service_percentile(0.0), 1);
        // Differential: the report helpers are thin wrappers over the one
        // canonical nearest-rank implementation — identical on shared
        // inputs, every rank.
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(r.sojourn_percentile(p), percentile(&r.sojourns, p));
            assert_eq!(r.service_percentile(p), percentile(&r.service_times, p));
            assert_eq!(
                crate::metrics::percentiles(&r.sojourns, &[p])[0],
                r.sojourn_percentile(p)
            );
        }
    }

    #[test]
    fn empty_report_percentiles_are_zero_not_panic() {
        // A run where nothing completed (all faulted, all shed, or the
        // queue never admitted anyone) yields empty sample vectors; every
        // percentile entry point must degrade to 0 per the `percentiles()`
        // contract, because the supervisor reads these on *every* epoch —
        // including epochs where admission shed the whole batch.
        let r = SchedReport::default();
        for p in [0.0, 0.5, 0.99, 1.0, f64::NAN, -1.0, 2.0] {
            assert_eq!(r.sojourn_percentile(p), 0);
            assert_eq!(r.service_percentile(p), 0);
            assert_eq!(percentile(&[], p), 0);
        }
        assert_eq!(crate::metrics::percentiles(&[], &[0.5, 0.99]), vec![0, 0]);
    }
}
