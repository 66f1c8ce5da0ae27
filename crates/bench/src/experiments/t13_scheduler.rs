//! T13 (§4.2): integrating event hiding with a µs-task scheduler.
//!
//! A queue of short request-sized tasks (each a small instrumented chase)
//! is served under three disciplines: FIFO run-to-completion (event
//! agnostic), the ready-queue *side-car* (the hiding mechanism switches
//! among whatever the scheduler exposes as ready), and the *event-aware*
//! scheduler (the oldest task runs primary; younger tasks scavenge its
//! stalls). Reported: makespan, sojourn percentiles, per-task service
//! time, and machine efficiency.

use crate::experiment::{Cell, CellMetrics, Experiment};
use crate::fresh;
use reach_core::{pgo_pipeline, run_task_queue, PipelineOptions, SchedPolicy, Task};
use reach_sim::MachineConfig;
use reach_workloads::{build_chase, ChaseParams};

const TASKS: usize = 16;
/// Cycles between arrivals (tasks arrive faster than FIFO can serve).
const GAP: u64 = 1000;

const POLICIES: &[&str] = &["fifo", "side-car", "event-aware"];

fn params() -> ChaseParams {
    ChaseParams {
        nodes: 24, // ~24 DRAM hops ≈ 2.5 µs of unhidden work per task
        hops: 24,
        node_stride: 4096,
        work_per_hop: 60,
        work_insts: 1,
        seed: 0x713,
    }
}

/// The T13 task-queue scheduling experiment.
pub(super) struct T13Scheduler;

impl Experiment for T13Scheduler {
    fn name(&self) -> &'static str {
        "t13_scheduler"
    }

    fn title(&self) -> &'static str {
        "T13: us-scale task queue under three scheduling disciplines"
    }

    fn notes(&self) -> &'static str {
        "shape: both hiding disciplines shrink makespan and queueing; the \
         event-aware scheduler additionally keeps per-task service time \
         near solo (side-car stretches every task it rotates through)."
    }

    fn cells(&self) -> Vec<Cell> {
        POLICIES
            .iter()
            .map(|p| Cell::new("task-queue", *p))
            .collect()
    }

    fn run_cell(&self, cell: &Cell, _seed: u64) -> CellMetrics {
        let cfg = MachineConfig::default();
        let build = |mem: &mut _, alloc: &mut _| build_chase(mem, alloc, params(), TASKS + 1);

        let policy = match cell.config.as_str() {
            "fifo" => SchedPolicy::Fifo,
            "side-car" => SchedPolicy::SideCar,
            "event-aware" => SchedPolicy::EventAware,
            other => panic!("unknown T13 policy {other:?}"),
        };

        // Instrument once. A 24-hop task is far too short to profile on
        // its own, so the profiling run uses a long chase with the *same
        // program image* (hops and layout are register data, not code).
        let (mut pm, pw) = fresh(&cfg, build);
        let prog = if policy == SchedPolicy::Fifo {
            pw.prog.clone()
        } else {
            let prof_params = ChaseParams {
                nodes: 4096,
                hops: 4096,
                seed: 0x9999,
                ..params()
            };
            let mut palloc = reach_workloads::AddrAlloc::new(0x4000_0000);
            let pw_long = build_chase(&mut pm.mem, &mut palloc, prof_params, 1);
            assert_eq!(pw_long.prog, pw.prog, "same binary");
            let mut prof = vec![pw_long.instances[0].make_context(99)];
            pgo_pipeline(&mut pm, &pw.prog, &mut prof, &PipelineOptions::default())
                .unwrap()
                .prog
        };

        let (mut m, w) = fresh(&cfg, build);
        let mut tasks: Vec<Task> = (0..TASKS)
            .map(|i| Task {
                ctx: w.instances[i].make_context(i),
                arrival: i as u64 * GAP,
            })
            .collect();
        let rep = run_task_queue(&mut m, &prog, &mut tasks, policy, 1 << 22).unwrap();
        assert_eq!(rep.completed, TASKS);
        for task in &tasks {
            let i = task.ctx.id;
            w.instances[i].assert_checksum(&task.ctx);
        }

        let mut out = CellMetrics::new();
        out.put_u64("makespan_cyc", rep.makespan)
            .put_u64("sojourn_p50", rep.sojourn_percentile(0.5))
            .put_u64("sojourn_p99", rep.sojourn_percentile(0.99))
            .put_u64("service_p50", rep.service_percentile(0.5))
            .put_f64("eff", m.counters.cpu_efficiency());
        out
    }
}
