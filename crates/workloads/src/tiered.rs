//! Tiered-working-set workload: several load sites with *different* miss
//! profiles in one program.
//!
//! Each loop iteration touches one random word in each of up to four
//! regions sized to live at different levels of the hierarchy (L1-, L2-,
//! L3-resident, and DRAM-sized). After warm-up the per-site L2-miss
//! likelihoods are approximately {0, 0, 1, 1} — but the *stall* a miss
//! causes differs sharply between the L3-resident site (~12 visible
//! cycles) and the DRAM site (~270): a naive "instrument where misses are
//! likely" policy pays for yields at the L3 site that cost more than they
//! save, while the paper's gain/cost model (§3.2) correctly skips it.
//! This workload is the backbone of the policy and profile-accuracy
//! experiments (T7, T11).

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64};

/// LCG multiplier/increment used *inside* the generated program (and
/// replicated by the generator to predict checksums).
const LCG_A: u64 = 6364136223846793005;
const LCG_C: u64 = 1442695040888963407;

/// Maximum number of sites (bounded by the register budget).
pub(crate) const MAX_SITES: usize = 4;

/// Parameters for the tiered workload.
#[derive(Clone, Debug)]
pub struct TieredParams {
    /// Words per site region; each must be a power of two. Length ≤ 4
    /// (`MAX_SITES`).
    pub site_words: Vec<u64>,
    /// Loop iterations (each touches every site once).
    pub iters: u64,
    /// Seed for the in-program LCG's initial state.
    pub seed: u64,
}

impl Default for TieredParams {
    fn default() -> Self {
        TieredParams {
            site_words: vec![
                1 << 11, // 16 KiB  — L1-resident
                1 << 14, // 128 KiB — L2-resident
                1 << 16, // 512 KiB — L3-resident (L2 misses, small stall)
                1 << 23, // 64 MiB  — DRAM (L3 misses, large stall)
            ],
            iters: 4096,
            seed: 0x7ae5,
        }
    }
}

// Register map.
const R_CNT: Reg = Reg(0);
const R_TMP: Reg = Reg(3);
const R_ADDR: Reg = Reg(4);
const R_VAL: Reg = Reg(5);
const R_ONE: Reg = Reg(6);
const R_SHIFT16: Reg = Reg(11);
const R_THREE: Reg = Reg(12);
const R_STATE: Reg = Reg(16);
const R_A: Reg = Reg(17);
const R_C: Reg = Reg(18);
const R_MASK0: u8 = 20;
const R_BASE0: u8 = 24;

/// Number of instructions emitted per site in the loop body.
const INSTS_PER_SITE: usize = 8;

/// PC of site `j`'s load instruction in the generated program.
pub fn site_load_pc(site: usize) -> usize {
    site * INSTS_PER_SITE + 6
}

/// Builds the tiered program plus instances with disjoint regions.
///
/// # Panics
///
/// Panics if no sites are given, more than `MAX_SITES` (4), or any site size
/// is not a power of two.
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: &TieredParams,
    ninstances: usize,
) -> BuiltWorkload {
    let nsites = params.site_words.len();
    assert!(
        (1..=MAX_SITES).contains(&nsites),
        "1..={MAX_SITES} sites required"
    );
    for &w in &params.site_words {
        assert!(w.is_power_of_two(), "site sizes must be powers of two");
    }
    assert!(params.iters > 0, "empty tiered workload");

    let mut b = ProgramBuilder::new("tiered_sites");
    let top = b.label();
    b.bind(top);
    for j in 0..nsites {
        let mask = Reg(R_MASK0 + j as u8);
        let base = Reg(R_BASE0 + j as u8);
        b.alu(AluOp::Mul, R_STATE, R_STATE, R_A, 3);
        b.alu(AluOp::Add, R_STATE, R_STATE, R_C, 1);
        b.alu(AluOp::Shr, R_TMP, R_STATE, R_SHIFT16, 1);
        b.alu(AluOp::And, R_TMP, R_TMP, mask, 1);
        b.alu(AluOp::Shl, R_TMP, R_TMP, R_THREE, 1);
        b.alu(AluOp::Add, R_ADDR, R_TMP, base, 1);
        b.load(R_VAL, R_ADDR, 0);
        b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_VAL, 1);
    }
    b.alu(AluOp::Sub, R_CNT, R_CNT, R_ONE, 1);
    b.branch(Cond::Nez, R_CNT, top);
    b.halt();
    let prog = b.finish().expect("tiered program is well-formed");

    let mut seed_rng = SplitMix64::new(params.seed);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let bases: Vec<u64> = params
            .site_words
            .iter()
            .map(|&w| alloc.alloc_spread(w * 8))
            .collect();
        let state0 = seed_rng.next_u64();
        let value_of = |site: usize, off: u64| -> u64 {
            SplitMix64::new((site as u64) << 48 ^ off ^ 0x07ea_5eed).next_u64()
        };

        // Replicate the program's LCG to materialize touched words and
        // predict the checksum.
        let mut state = state0;
        let mut checksum = 0u64;
        for _ in 0..params.iters {
            for (j, &words) in params.site_words.iter().enumerate() {
                state = state.wrapping_mul(LCG_A).wrapping_add(LCG_C);
                let off = (state >> 16) & (words - 1);
                let v = value_of(j, off);
                mem.write(bases[j] + off * 8, v).expect("aligned");
                checksum = checksum.wrapping_add(v);
            }
        }

        let mut regs = vec![
            (R_CNT, params.iters),
            (R_ONE, 1),
            (R_SHIFT16, 16),
            (R_THREE, 3),
            (R_STATE, state0),
            (R_A, LCG_A),
            (R_C, LCG_C),
        ];
        for (j, &words) in params.site_words.iter().enumerate() {
            regs.push((Reg(R_MASK0 + j as u8), words - 1));
            regs.push((Reg(R_BASE0 + j as u8), bases[j]));
        }
        instances.push(InstanceSetup {
            regs,
            expected_checksum: checksum,
        });
    }

    BuiltWorkload { prog, instances }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{Machine, MachineConfig};

    #[test]
    fn solo_run_matches_checksum() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x1000_0000);
        let params = TieredParams {
            site_words: vec![1 << 8, 1 << 12],
            iters: 256,
            seed: 1,
        };
        let w = build(&mut m.mem, &mut alloc, &params, 1);
        w.run_solo(&mut m, 0, 10_000_000);
    }

    #[test]
    fn site_load_pcs_are_loads() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x1000_0000);
        let params = TieredParams::default();
        let w = build(&mut m.mem, &mut alloc, &params, 1);
        for j in 0..params.site_words.len() {
            assert!(
                matches!(w.prog.insts[site_load_pc(j)], reach_sim::Inst::Load { .. }),
                "site {j} pc {}",
                site_load_pc(j)
            );
        }
    }

    #[test]
    fn sites_stratify_by_miss_likelihood() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x1000_0000);
        // Enough iterations for the resident sites to warm up past their
        // compulsory misses.
        let params = TieredParams {
            iters: 65_536,
            ..TieredParams::default()
        };
        let w = build(&mut m.mem, &mut alloc, &params, 1);
        w.run_solo(&mut m, 0, 100_000_000);
        let p: Vec<f64> = (0..4)
            .map(|j| m.counters.per_pc[&site_load_pc(j)].miss_likelihood())
            .collect();
        // The L1-resident site rarely misses; the nominally L2-resident
        // site is degraded by inclusive-install pollution from the two
        // streaming sites but stays below them; the L3 and DRAM sites miss
        // L2 nearly always.
        assert!(p[0] < 0.2, "L1 site p={}", p[0]);
        assert!(p[1] < p[2], "L2 site p={} !< L3 site p={}", p[1], p[2]);
        assert!(p[2] > 0.5, "L3 site p={}", p[2]);
        assert!(p[3] > 0.8, "DRAM site p={}", p[3]);
        // And the *stall* differs: DRAM site dominates total stall.
        let stall2 = m.counters.per_pc[&site_load_pc(2)].stall_cycles;
        let stall3 = m.counters.per_pc[&site_load_pc(3)].stall_cycles;
        assert!(
            stall3 > stall2 * 5,
            "DRAM stalls ({stall3}) dwarf L3 stalls ({stall2})"
        );
    }

    #[test]
    fn deterministic_across_builds() {
        let build_once = || {
            let mut m = Machine::new(MachineConfig::default());
            let mut alloc = AddrAlloc::new(0x1000_0000);
            let params = TieredParams {
                site_words: vec![1 << 8],
                iters: 100,
                seed: 9,
            };
            build(&mut m.mem, &mut alloc, &params, 2).instances
        };
        assert_eq!(build_once(), build_once());
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn bad_site_size_panics() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0);
        let params = TieredParams {
            site_words: vec![1000],
            iters: 1,
            seed: 0,
        };
        let _ = build(&mut m.mem, &mut alloc, &params, 1);
    }

    #[test]
    #[should_panic(expected = "sites required")]
    fn too_many_sites_panics() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0);
        let params = TieredParams {
            site_words: vec![8; 5],
            iters: 1,
            seed: 0,
        };
        let _ = build(&mut m.mem, &mut alloc, &params, 1);
    }
}
