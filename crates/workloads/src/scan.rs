//! Streaming-scan workload: sequential array sum.
//!
//! The spatial-locality counterpoint to the pointer chase: the program
//! sums a contiguous array word by word, so only one load in eight (64-byte
//! lines, 8-byte words) misses, and the missing address is trivially
//! predictable. A profile-guided instrumenter should place yields only at
//! the line-crossing load pattern — and a cost model should conclude that
//! for a *hot* array no yields are worth inserting at all.

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64};

/// Parameters for the streaming scan.
#[derive(Clone, Copy, Debug)]
pub struct ScanParams {
    /// Words per instance array.
    pub words: u64,
    /// Passes over the array (after pass 1 a cache-resident array hits).
    pub passes: u64,
    /// Value seed.
    pub seed: u64,
}

impl Default for ScanParams {
    fn default() -> Self {
        ScanParams {
            words: 1 << 14,
            passes: 1,
            seed: 0x5ca9,
        }
    }
}

// Register map.
const R_CNT: Reg = Reg(0);
const R_PTR: Reg = Reg(1);
const R_VAL: Reg = Reg(2);
const R_ONE: Reg = Reg(6);
const R_EIGHT: Reg = Reg(8);
const R_PASS: Reg = Reg(9);
const R_BASE: Reg = Reg(10);
const R_WORDS: Reg = Reg(11);

/// Builds the scan program plus instances with disjoint arrays.
///
/// # Panics
///
/// Panics if `words == 0` or `passes == 0`.
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: ScanParams,
    ninstances: usize,
) -> BuiltWorkload {
    assert!(params.words > 0 && params.passes > 0, "empty scan");

    let mut b = ProgramBuilder::new("stream_scan");
    let pass_top = b.label();
    let inner = b.label();
    b.bind(pass_top);
    b.alu(AluOp::Or, R_PTR, R_BASE, R_BASE, 1); // ptr = base
    b.alu(AluOp::Or, R_CNT, R_WORDS, R_WORDS, 1); // cnt = words
    b.bind(inner);
    b.load(R_VAL, R_PTR, 0); // the streaming load
    b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_VAL, 1);
    b.alu(AluOp::Add, R_PTR, R_PTR, R_EIGHT, 1);
    b.alu(AluOp::Sub, R_CNT, R_CNT, R_ONE, 1);
    b.branch(Cond::Nez, R_CNT, inner);
    b.alu(AluOp::Sub, R_PASS, R_PASS, R_ONE, 1);
    b.branch(Cond::Nez, R_PASS, pass_top);
    b.halt();
    let prog = b.finish().expect("scan program is well-formed");

    let mut rng = SplitMix64::new(params.seed);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let base = alloc.alloc_spread(params.words * 8);
        let mut sum_one_pass = 0u64;
        for i in 0..params.words {
            let v = rng.next_u64() >> 8;
            mem.write(base + i * 8, v).expect("aligned");
            sum_one_pass = sum_one_pass.wrapping_add(v);
        }
        let checksum = sum_one_pass.wrapping_mul(params.passes);
        instances.push(InstanceSetup {
            regs: vec![
                (R_ONE, 1),
                (R_EIGHT, 8),
                (R_PASS, params.passes),
                (R_BASE, base),
                (R_WORDS, params.words),
            ],
            expected_checksum: checksum,
        });
    }

    BuiltWorkload { prog, instances }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{Machine, MachineConfig};

    /// PC of the streaming load.
    const SCAN_LOAD_PC: usize = 2;

    #[test]
    fn solo_run_matches_checksum() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x400_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            ScanParams {
                words: 1024,
                passes: 2,
                seed: 1,
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
    }

    #[test]
    fn one_miss_per_line_on_cold_pass() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x400_0000);
        let words = 4096u64;
        let w = build(
            &mut m.mem,
            &mut alloc,
            ScanParams {
                words,
                passes: 1,
                seed: 2,
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
        let s = &m.counters.per_pc[&SCAN_LOAD_PC];
        assert_eq!(s.loads, words);
        let expected_misses = words / 8;
        assert_eq!(s.l2_misses(), expected_misses, "one miss per 8-word line");
        let p = s.miss_likelihood();
        assert!((p - 0.125).abs() < 0.01);
    }

    #[test]
    fn warm_pass_hits_if_resident() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x400_0000);
        let words = 2048u64; // 16 KiB: L1-resident
        let w = build(
            &mut m.mem,
            &mut alloc,
            ScanParams {
                words,
                passes: 3,
                seed: 3,
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
        let s = &m.counters.per_pc[&SCAN_LOAD_PC];
        assert_eq!(s.loads, words * 3);
        // Only the first pass misses.
        assert_eq!(s.l2_misses(), words / 8);
    }

    #[test]
    fn checksum_scales_with_passes() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x400_0000);
        let w1 = build(
            &mut m.mem,
            &mut alloc,
            ScanParams {
                words: 64,
                passes: 1,
                seed: 4,
            },
            1,
        );
        let mut m2 = Machine::new(MachineConfig::default());
        let mut alloc2 = AddrAlloc::new(0x400_0000);
        let w2 = build(
            &mut m2.mem,
            &mut alloc2,
            ScanParams {
                words: 64,
                passes: 4,
                seed: 4,
            },
            1,
        );
        assert_eq!(
            w2.instances[0].expected_checksum,
            w1.instances[0].expected_checksum.wrapping_mul(4)
        );
    }
}
