//! The gain/cost model and insertion policies (§3.2: "quantitatively model
//! the gain and the cost of instrumenting at a specific load instruction").
//!
//! Per executed load, instrumenting costs `prefetch + switch(save set)`
//! cycles *unconditionally* (primary yields always fire), and gains the
//! expected hidden stall `p_miss × stall_per_miss`. The statistics come
//! from the profile (likelihood from the miss/retired counters, stall per
//! miss from the §3.2 two-event correlation); machine characteristics
//! (switch cost, prefetch cost, DRAM latency) come from the
//! [`MachineConfig`].
//!
//! Policies:
//! * [`Policy::Threshold`] — the paper's "simple policy": instrument when
//!   the miss likelihood clears a threshold. Blind to how *long* the miss
//!   stalls, so it overpays at L3-resident sites.
//! * [`Policy::CostModel`] — instrument when `gain > margin × cost`.
//! * [`Policy::TopK`] — instrument the K sites with the highest estimated
//!   total stall.
//! * [`Policy::All`] — instrument every static load site (the no-profile
//!   upper bound on coverage and overhead).

use reach_profile::Profile;
use reach_sim::{Inst, MachineConfig, Program};

/// Returns a copy of `profile` with basic-block-smoothed execution
/// estimates for `prog` (the program the profile was collected on).
///
/// Instruction-counter samples land on only a few PCs of a short loop;
/// pooling them per basic block (every instruction of a block executes
/// equally often) is what makes per-PC miss *likelihoods* usable — the
/// same block-level aggregation production FDO pipelines perform.
pub fn smooth_profile(profile: &Profile, prog: &Program) -> Profile {
    let cfg = crate::cfg::Cfg::build(prog);
    let mut p = profile.clone();
    p.set_block_smoothing(cfg.blocks.iter().map(|b| b.start..b.end));
    p
}

/// Remaps a profile collected on an *instrumented* binary back to the
/// original program's PC space using the rewriting `origin` map
/// (samples attributed to inserted instructions are dropped).
///
/// This is what makes *continuous* PGO possible: production runs the
/// instrumented binary, its samples are folded back onto original PCs,
/// and the next instrumentation round consumes them like any other
/// profile.
pub fn remap_to_origin(profile: &Profile, origin: &[Option<usize>]) -> Profile {
    let mut out = Profile::new(profile.program.clone(), profile.periods);
    let remap = |map: &std::collections::HashMap<usize, u64>,
                 out_map: &mut std::collections::HashMap<usize, u64>| {
        for (&pc, &n) in map {
            if let Some(Some(opc)) = origin.get(pc) {
                *out_map.entry(*opc).or_insert(0) += n;
            }
        }
    };
    remap(&profile.l2_miss_samples, &mut out.l2_miss_samples);
    remap(&profile.l3_miss_samples, &mut out.l3_miss_samples);
    remap(&profile.stall_samples, &mut out.stall_samples);
    remap(&profile.retired_samples, &mut out.retired_samples);
    out.total_samples = profile.total_samples;
    out
}

/// An insertion policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Policy {
    /// Instrument loads whose estimated miss likelihood is ≥ the value.
    Threshold(f64),
    /// Instrument the K loads with the highest estimated total stall.
    TopK(usize),
    /// Instrument loads whose expected gain exceeds `margin ×` expected
    /// cost.
    CostModel {
        /// Required gain/cost ratio (1.0 = break-even).
        margin: f64,
    },
    /// Instrument every load in the binary.
    All,
}

/// The model's verdict for one load site.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteDecision {
    /// PC of the load (in the program being instrumented).
    pub pc: usize,
    /// Whether the policy selected this site.
    pub instrument: bool,
    /// Estimated miss likelihood.
    pub likelihood: f64,
    /// Expected hidden cycles per execution (`likelihood × stall/miss`).
    pub gain: f64,
    /// Expected overhead cycles per execution (prefetch + switch).
    pub cost: f64,
    /// Estimated executions (profile-scaled), for TopK ranking.
    pub est_executions: f64,
}

/// Evaluates the model at every load site of `prog` and applies `policy`.
///
/// `live_count_at` supplies the number of registers a switch at each PC
/// would save (from liveness analysis); pass `|_| 32` when liveness is
/// disabled.
pub(crate) fn select_sites(
    prog: &Program,
    profile: &Profile,
    mcfg: &MachineConfig,
    policy: Policy,
    mut live_count_at: impl FnMut(usize) -> u32,
) -> Vec<SiteDecision> {
    // Fallback when the two-counter correlation has no data for a PC: the
    // worst-case visible stall (a DRAM miss past the OoO window).
    let default_stall = (mcfg.mem_latency.saturating_sub(mcfg.ooo_window)) as f64;

    let mut decisions: Vec<SiteDecision> = prog
        .insts
        .iter()
        .enumerate()
        .filter(|(_, i)| matches!(i, Inst::Load { .. }))
        .map(|(pc, _)| {
            let likelihood = profile.miss_likelihood(pc);
            let stall_per_miss = profile.stall_per_miss(pc).unwrap_or(default_stall);
            let gain = likelihood * stall_per_miss;
            let cost =
                mcfg.prefetch_cost as f64 + mcfg.coro_switch_cost(live_count_at(pc) as u8) as f64;
            SiteDecision {
                pc,
                instrument: false,
                likelihood,
                gain,
                cost,
                est_executions: profile.est_executions(pc),
            }
        })
        .collect();

    match policy {
        Policy::Threshold(t) => {
            for d in &mut decisions {
                d.instrument = d.likelihood >= t;
            }
        }
        Policy::CostModel { margin } => {
            for d in &mut decisions {
                d.instrument = d.gain > margin * d.cost;
            }
        }
        Policy::TopK(k) => {
            let mut ranked: Vec<usize> = (0..decisions.len()).collect();
            ranked.sort_by(|&a, &b| {
                let sa = decisions[a].gain * decisions[a].est_executions;
                let sb = decisions[b].gain * decisions[b].est_executions;
                sb.total_cmp(&sa)
                    .then(decisions[a].pc.cmp(&decisions[b].pc))
            });
            for &i in ranked.iter().take(k) {
                // Never select sites the profile saw no misses at: TopK of
                // a cold profile must not instrument noise.
                if decisions[i].gain > 0.0 {
                    decisions[i].instrument = true;
                }
            }
        }
        Policy::All => {
            for d in &mut decisions {
                d.instrument = true;
            }
        }
    }
    decisions
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_profile::Periods;
    use reach_sim::{ProgramBuilder, Reg};

    #[test]
    fn remap_folds_samples_onto_original_pcs() {
        let mut p = Profile::new("t", Periods::default());
        p.l2_miss_samples.insert(2, 5); // original pc 0 after 2 insertions
        p.l2_miss_samples.insert(0, 3); // an inserted prefetch: dropped
        p.retired_samples.insert(3, 7);
        p.total_samples = 15;
        let origin = vec![None, None, Some(0), Some(1)];
        let q = remap_to_origin(&p, &origin);
        assert_eq!(q.l2_miss_samples.get(&0), Some(&5));
        assert_eq!(q.l2_miss_samples.len(), 1);
        assert_eq!(q.retired_samples.get(&1), Some(&7));
        assert_eq!(q.total_samples, 15);
    }

    /// Program with three loads at pcs 0, 1, 2.
    fn three_load_prog() -> Program {
        let mut b = ProgramBuilder::new("t");
        b.load(Reg(1), Reg(8), 0);
        b.load(Reg(2), Reg(9), 0);
        b.load(Reg(3), Reg(10), 0);
        b.halt();
        b.finish().unwrap()
    }

    /// Profile: pc0 misses often & stalls long; pc1 misses often but
    /// stalls short (L3-resident); pc2 almost never misses.
    fn profile() -> Profile {
        let periods = Periods {
            l2_miss: 1,
            l3_miss: 1,
            stall: 1,
            retired: 1,
        };
        let mut p = Profile::new("t", periods);
        p.retired_samples.insert(0, 1000);
        p.retired_samples.insert(1, 1000);
        p.retired_samples.insert(2, 1000);
        p.l2_miss_samples.insert(0, 800);
        p.stall_samples.insert(0, 800 * 270);
        p.l2_miss_samples.insert(1, 900);
        p.stall_samples.insert(1, 900 * 12);
        p.l2_miss_samples.insert(2, 10);
        p.stall_samples.insert(2, 10 * 270);
        p
    }

    #[test]
    fn threshold_selects_by_likelihood_only() {
        let prog = three_load_prog();
        let d = select_sites(
            &prog,
            &profile(),
            &MachineConfig::default(),
            Policy::Threshold(0.5),
            |_| 8,
        );
        assert_eq!(d.len(), 3);
        assert!(d[0].instrument, "pc0: p=0.8");
        assert!(
            d[1].instrument,
            "pc1: p=0.9 — threshold cannot tell it stalls briefly"
        );
        assert!(!d[2].instrument, "pc2: p=0.01");
    }

    #[test]
    fn cost_model_skips_short_stall_sites() {
        let prog = three_load_prog();
        let mcfg = MachineConfig::default();
        let d = select_sites(
            &prog,
            &profile(),
            &mcfg,
            Policy::CostModel { margin: 1.0 },
            |_| 8,
        );
        // pc0: gain 0.8*270 = 216 > cost ~32 -> yes.
        assert!(d[0].instrument);
        // pc1: gain 0.9*12 = 10.8 < cost -> no (the threshold policy got
        // this wrong).
        assert!(!d[1].instrument);
        // pc2: gain 0.01*270 = 2.7 < cost -> no.
        assert!(!d[2].instrument);
    }

    #[test]
    fn gain_and_cost_fields_are_populated() {
        let prog = three_load_prog();
        let mcfg = MachineConfig::default();
        let d = select_sites(&prog, &profile(), &mcfg, Policy::All, |_| 8);
        assert!((d[0].gain - 0.8 * 270.0).abs() < 1.0);
        let expected_cost = mcfg.prefetch_cost as f64 + mcfg.coro_switch_cost(8) as f64;
        assert!((d[0].cost - expected_cost).abs() < 1e-9);
        assert!(d.iter().all(|x| x.instrument), "All selects everything");
    }

    #[test]
    fn liveness_reduces_modelled_cost() {
        let prog = three_load_prog();
        let mcfg = MachineConfig::default();
        let slim = select_sites(&prog, &profile(), &mcfg, Policy::All, |_| 4);
        let fat = select_sites(&prog, &profile(), &mcfg, Policy::All, |_| 32);
        assert!(slim[0].cost < fat[0].cost);
    }

    #[test]
    fn topk_ranks_by_total_stall() {
        let prog = three_load_prog();
        let d = select_sites(
            &prog,
            &profile(),
            &MachineConfig::default(),
            Policy::TopK(1),
            |_| 8,
        );
        assert!(d[0].instrument, "pc0 has the largest total stall");
        assert!(!d[1].instrument);
        assert!(!d[2].instrument);
    }

    #[test]
    fn topk_ignores_missless_sites() {
        let prog = three_load_prog();
        let p = Profile::new("t", Periods::default()); // empty profile
        let d = select_sites(&prog, &p, &MachineConfig::default(), Policy::TopK(3), |_| 8);
        assert!(d.iter().all(|x| !x.instrument));
    }

    #[test]
    fn unprofiled_pc_uses_default_stall() {
        let prog = three_load_prog();
        let periods = Periods {
            l2_miss: 1,
            l3_miss: 1,
            stall: 1,
            retired: 1,
        };
        let mut p = Profile::new("t", periods);
        // pc0 has misses but no stall samples: fallback kicks in.
        p.retired_samples.insert(0, 100);
        p.l2_miss_samples.insert(0, 50);
        let mcfg = MachineConfig::default();
        let d = select_sites(&prog, &p, &mcfg, Policy::All, |_| 8);
        let expected = 0.5 * (mcfg.mem_latency - mcfg.ooo_window) as f64;
        assert!((d[0].gain - expected).abs() < 1e-9);
    }
}
