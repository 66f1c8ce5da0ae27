//! Shared experiment plumbing: fresh deterministic machine+workload
//! setups and the PGO convenience wrapper.

use reach_core::{
    pgo_pipeline, run_interleaved, InstrumentedBinary, InterleaveOptions, PipelineOptions,
};
use reach_sim::{Context, Machine, MachineConfig, Memory};
use reach_workloads::{AddrAlloc, BuiltWorkload};

/// Base address where workload layout begins; high enough to dodge the
/// null page, low enough to stay readable in dumps.
pub(crate) const LAYOUT_BASE: u64 = 0x10_0000;

/// A boxed deterministic workload constructor, the currency experiment
/// harnesses pass around when one binary covers several workload cases.
pub type WorkloadBuilder = Box<dyn Fn(&mut Memory, &mut AddrAlloc) -> BuiltWorkload>;

/// Builds a fresh machine and lays out a workload in it with a fresh
/// allocator. The builder closure must be deterministic so that repeated
/// calls (for different mechanisms) see identical layouts.
pub fn fresh<W>(
    cfg: &MachineConfig,
    build: impl FnOnce(&mut Memory, &mut AddrAlloc) -> W,
) -> (Machine, W) {
    let mut m = Machine::new(cfg.clone());
    let mut alloc = AddrAlloc::new(LAYOUT_BASE);
    let w = build(&mut m.mem, &mut alloc);
    (m, w)
}

/// Runs the full PGO pipeline for a workload builder: profiles instance
/// `profile_idx` on a throwaway machine, returning the instrumented
/// binary. The caller then evaluates on a *fresh* machine from the same
/// builder.
///
/// # Panics
///
/// Panics if the pipeline fails — experiment harnesses treat that as a
/// configuration bug.
pub fn pgo_build(
    cfg: &MachineConfig,
    build: impl FnOnce(&mut Memory, &mut AddrAlloc) -> BuiltWorkload,
    profile_idx: usize,
    opts: &PipelineOptions,
) -> InstrumentedBinary {
    let (mut m, w) = fresh(cfg, build);
    let mut prof = vec![w.instances[profile_idx].make_context(1000 + profile_idx)];
    pgo_pipeline(&mut m, &w.prog, &mut prof, opts).expect("pipeline failed")
}

/// Convenience: interleave `ids` instances of `w` over `prog` on
/// `machine`; asserts all complete with correct checksums and returns
/// the report.
///
/// # Panics
///
/// Panics on execution errors or checksum mismatches.
pub(crate) fn interleave_checked(
    machine: &mut Machine,
    prog: &reach_sim::Program,
    w: &BuiltWorkload,
    ids: std::ops::Range<usize>,
    opts: &InterleaveOptions,
) -> (reach_core::InterleaveReport, Vec<Context>) {
    let mut ctxs: Vec<Context> = ids
        .clone()
        .map(|i| w.instances[i].make_context(i))
        .collect();
    let rep = run_interleaved(machine, prog, &mut ctxs, opts).expect("interleave failed");
    assert_eq!(rep.completed, ids.len(), "not all instances completed");
    for (k, i) in ids.enumerate() {
        w.instances[i].assert_checksum(&ctxs[k]);
    }
    (rep, ctxs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_core::CycleSummary;
    use reach_workloads::{build_chase, ChaseParams};

    fn params() -> ChaseParams {
        ChaseParams {
            nodes: 128,
            hops: 128,
            node_stride: 4096,
            work_per_hop: 10,
            work_insts: 1,
            seed: 42,
        }
    }

    #[test]
    fn fresh_is_deterministic() {
        let cfg = MachineConfig::default();
        let (_, w1) = fresh(&cfg, |mem, alloc| build_chase(mem, alloc, params(), 2));
        let (_, w2) = fresh(&cfg, |mem, alloc| build_chase(mem, alloc, params(), 2));
        assert_eq!(w1.instances, w2.instances);
    }

    #[test]
    fn pgo_build_then_interleave_checked() {
        let cfg = MachineConfig::default();
        let built = pgo_build(
            &cfg,
            |mem, alloc| build_chase(mem, alloc, params(), 3),
            2,
            &PipelineOptions::default(),
        );
        let (mut m, w) = fresh(&cfg, |mem, alloc| build_chase(mem, alloc, params(), 3));
        let (rep, _) =
            interleave_checked(&mut m, &built.prog, &w, 0..2, &InterleaveOptions::default());
        assert_eq!(rep.completed, 2);
        assert!(CycleSummary::from_counters(&m.counters, &m.cfg).efficiency > 0.0);
    }
}
