//! The profiling collector: step (i) of the PGO pipeline.
//!
//! Programs the machine's PEBS counters for the §3.2 event set (L2-miss
//! loads, L3-miss loads, stalled cycles, retired instructions), enables the
//! LBR, runs the *original* (uninstrumented) workload "in production", and
//! aggregates the drained samples into a [`Profile`]. Buffers are drained
//! at a configurable chunk size, modelling the OS periodically reading the
//! PEBS buffer; the LBR is snapshotted at the same cadence (as PEBS
//! attaches LBR state to its samples).

use crate::profile::{Periods, Profile};
use reach_sim::{Context, ExecError, Exit, HwEvent, Machine, PebsConfig, Program};

/// Collector configuration.
#[derive(Clone, Copy, Debug)]
pub struct CollectorConfig {
    /// Sampling periods for the four counters.
    pub periods: Periods,
    /// PC skid applied to every counter (0 = precise PEBS).
    pub skid: u32,
    /// Per-counter buffer capacity.
    pub buffer_capacity: usize,
    /// Instructions executed between buffer drains / LBR snapshots.
    pub chunk_steps: u64,
    /// Overall per-instance step budget.
    pub max_steps: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            periods: Periods::default(),
            skid: 0,
            buffer_capacity: 4096,
            chunk_steps: 4096,
            max_steps: 100_000_000,
        }
    }
}

/// What the collection run cost, for the overhead experiment (T11).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectionCost {
    /// Cycles spent in sampling assists during the profiled run.
    pub sampling_cycles: u64,
    /// Total cycles of the profiled run.
    pub total_cycles: u64,
    /// Samples dropped to full buffers.
    pub dropped_samples: u64,
}

impl CollectionCost {
    /// Sampling overhead as a fraction of run time.
    pub fn overhead(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.sampling_cycles as f64 / self.total_cycles as f64
        }
    }
}

/// Runs `contexts` (sequentially, to completion, yields as no-ops — the
/// *original* code) under sampling and returns the aggregated profile plus
/// its cost.
///
/// # Errors
///
/// Propagates any [`ExecError`] from the workload itself.
pub fn collect(
    machine: &mut Machine,
    prog: &Program,
    contexts: &mut [Context],
    cfg: &CollectorConfig,
) -> Result<(Profile, CollectionCost), ExecError> {
    let s_l2 = machine.add_sampler(PebsConfig {
        event: HwEvent::LoadL2Miss,
        period: cfg.periods.l2_miss,
        skid: cfg.skid,
        buffer_capacity: cfg.buffer_capacity,
    });
    let s_l3 = machine.add_sampler(PebsConfig {
        event: HwEvent::LoadL3Miss,
        period: cfg.periods.l3_miss,
        skid: cfg.skid,
        buffer_capacity: cfg.buffer_capacity,
    });
    let s_stall = machine.add_sampler(PebsConfig {
        event: HwEvent::StallCycle,
        period: cfg.periods.stall,
        skid: cfg.skid,
        buffer_capacity: cfg.buffer_capacity,
    });
    let s_ret = machine.add_sampler(PebsConfig {
        event: HwEvent::InstRetired,
        period: cfg.periods.retired,
        skid: cfg.skid,
        buffer_capacity: cfg.buffer_capacity,
    });
    let lbr_was = machine.lbr_enabled;
    machine.lbr_enabled = true;

    let mut profile = Profile::new(prog.name.clone(), cfg.periods);
    profile.fingerprint = prog.fingerprint();
    let start_sampling = machine.counters.sampling_cycles;
    let start_cycles = machine.now;

    let drain = |machine: &mut Machine, profile: &mut Profile| {
        for (idx, map) in [(s_l2, 0usize), (s_l3, 1), (s_stall, 2), (s_ret, 3)] {
            for s in machine.take_samples(idx) {
                let entry = match map {
                    0 => profile.l2_miss_samples.entry(s.pc),
                    1 => profile.l3_miss_samples.entry(s.pc),
                    2 => profile.stall_samples.entry(s.pc),
                    _ => profile.retired_samples.entry(s.pc),
                };
                *entry.or_insert(0) += 1;
                profile.total_samples += 1;
            }
        }
        let snap = machine.lbr.snapshot();
        if !snap.is_empty() {
            profile.blocks.add_snapshot(&snap);
            machine.lbr.clear();
        }
    };

    for ctx in contexts.iter_mut() {
        let start = ctx.stats.instructions;
        loop {
            let used = ctx.stats.instructions - start;
            if used >= cfg.max_steps {
                break;
            }
            let budget = cfg.chunk_steps.min(cfg.max_steps - used);
            let exit = machine.run_to_completion(prog, ctx, budget)?;
            drain(machine, &mut profile);
            if exit == Exit::Done {
                break;
            }
        }
    }

    machine.lbr_enabled = lbr_was;
    let cost = CollectionCost {
        sampling_cycles: machine.counters.sampling_cycles - start_sampling,
        total_cycles: machine.now - start_cycles,
        dropped_samples: machine.samplers.iter().map(|s| s.dropped).sum(),
    };
    Ok((profile, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::MachineConfig;
    use reach_workloads::{build_chase, build_tiered, AddrAlloc, ChaseParams, TieredParams};

    /// The PC with the most stall samples (the lowest PC on a tie): every
    /// PC shares one period, so it is also the largest stall estimate.
    fn top_stall_pc(p: &Profile) -> usize {
        let top = p
            .stall_samples
            .iter()
            .max_by_key(|&(&pc, &n)| (n, std::cmp::Reverse(pc)));
        *top.expect("stall samples").0
    }

    #[test]
    fn chase_profile_finds_the_missing_load() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build_chase(
            &mut m.mem,
            &mut alloc,
            ChaseParams {
                nodes: 2048,
                hops: 2048,
                node_stride: 4096,
                work_per_hop: 0,
                work_insts: 1,
                seed: 1,
            },
            1,
        );
        let mut ctxs = w.make_contexts();
        let (p, cost) = collect(&mut m, &w.prog, &mut ctxs, &CollectorConfig::default()).unwrap();
        // pc 0 (the next-pointer load) dominates the miss profile.
        let miss_pcs = p.miss_pcs(0.5);
        assert_eq!(miss_pcs, vec![0], "profile pinpoints the chasing load");
        assert!(p.miss_likelihood(0) > 0.8);
        // It also dominates stall attribution.
        assert_eq!(top_stall_pc(&p), 0);
        // Overhead is small but non-zero.
        assert!(cost.sampling_cycles > 0);
        assert!(cost.overhead() < 0.2, "overhead {}", cost.overhead());
        // And correlation estimates roughly the DRAM stall per miss.
        let spm = p.stall_per_miss(0).unwrap();
        assert!(
            (150.0..400.0).contains(&spm),
            "stall/miss estimate {spm} out of range"
        );
    }

    #[test]
    fn tiered_profile_separates_sites() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x1000_0000);
        let params = TieredParams {
            iters: 32_768,
            ..TieredParams::default()
        };
        let w = build_tiered(&mut m.mem, &mut alloc, &params, 1);
        let mut ctxs = w.make_contexts();
        let (p, _) = collect(&mut m, &w.prog, &mut ctxs, &CollectorConfig::default()).unwrap();
        let pc_l1 = reach_workloads::site_load_pc(0);
        let pc_mem = reach_workloads::site_load_pc(3);
        assert!(p.miss_likelihood(pc_mem) > 0.7);
        assert!(p.miss_likelihood(pc_l1) < 0.3);
        // Stall attribution concentrates on the DRAM site.
        assert_eq!(top_stall_pc(&p), pc_mem);
    }

    #[test]
    fn lbr_data_covers_the_loop() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build_chase(
            &mut m.mem,
            &mut alloc,
            ChaseParams {
                nodes: 512,
                hops: 512,
                ..ChaseParams::default()
            },
            1,
        );
        let mut ctxs = w.make_contexts();
        let (p, _) = collect(&mut m, &w.prog, &mut ctxs, &CollectorConfig::default()).unwrap();
        assert!(p.blocks.snapshots > 0);
        // The loop's back edge is the hottest edge.
        let back_edge_seen = p
            .blocks
            .edges
            .iter()
            .any(|(&(_, to), &n)| to == 0 && n > 10);
        assert!(back_edge_seen, "loop back edge must dominate LBR data");
        assert!(!p.blocks.runs.is_empty());
    }

    #[test]
    fn coarser_period_collects_fewer_samples_at_lower_cost() {
        let run = |period_scale: u64| {
            let mut m = Machine::new(MachineConfig::default());
            let mut alloc = AddrAlloc::new(0x10_0000);
            let w = build_chase(
                &mut m.mem,
                &mut alloc,
                ChaseParams {
                    nodes: 2048,
                    hops: 2048,
                    node_stride: 4096,
                    work_per_hop: 0,
                    work_insts: 1,
                    seed: 2,
                },
                1,
            );
            let mut ctxs = w.make_contexts();
            let cfg = CollectorConfig {
                periods: Periods {
                    l2_miss: 31 * period_scale,
                    l3_miss: 31 * period_scale,
                    stall: 101 * period_scale,
                    retired: 211 * period_scale,
                },
                ..CollectorConfig::default()
            };
            collect(&mut m, &w.prog, &mut ctxs, &cfg).unwrap()
        };
        let (p_fine, c_fine) = run(1);
        let (p_coarse, c_coarse) = run(16);
        assert!(p_fine.total_samples > p_coarse.total_samples * 4);
        assert!(c_fine.sampling_cycles > c_coarse.sampling_cycles);
    }
}
