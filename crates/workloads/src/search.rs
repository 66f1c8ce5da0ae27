//! Branchless binary-search workload (index-join inner loop).
//!
//! A sorted array of `n` keys (power of two) is searched for a batch of
//! probe keys using the classic branch-free bisection: `log2(n)` dependent
//! loads per search, each to an address computed from the previous load's
//! outcome. For arrays beyond L3 the first few levels miss; the last
//! levels (the hot top of the implicit tree) stay cached — giving load
//! sites with naturally *different* miss likelihoods at different
//! iteration depths, a shape that defeats naive "instrument every load"
//! strategies.

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64};

/// Parameters for the binary-search workload.
#[derive(Clone, Copy, Debug)]
pub struct SearchParams {
    /// Number of sorted keys; must be a power of two.
    pub array_len: u64,
    /// Number of searches each instance performs.
    pub searches: u64,
    /// Seed for keys and probes.
    pub seed: u64,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            array_len: 1 << 16,
            searches: 1024,
            seed: 0xbeef,
        }
    }
}

// Register map.
const R_CNT: Reg = Reg(0);
const R_HALF: Reg = Reg(1);
const R_POS: Reg = Reg(2);
const R_KEY: Reg = Reg(3);
const R_MID: Reg = Reg(4);
const R_ELEM: Reg = Reg(5);
const R_ONE: Reg = Reg(6);
const R_PROBES: Reg = Reg(8);
const R_ARR: Reg = Reg(9);
const R_HALF0: Reg = Reg(10);
const R_CMP: Reg = Reg(11);
const R_EIGHT: Reg = Reg(12);
const R_THREE: Reg = Reg(13);
const R_ADDR: Reg = Reg(14);

/// Builds the search program plus instances with disjoint arrays and probe
/// lists.
///
/// The program, per probe key: `pos = 0; half = n/2; while half > 0 {
/// if arr[pos+half] <= key { pos += half }; half >>= 1 }` then adds
/// `arr[pos]` to the checksum.
///
/// # Panics
///
/// Panics if `array_len` is not a power of two ≥ 2.
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: SearchParams,
    ninstances: usize,
) -> BuiltWorkload {
    assert!(
        params.array_len.is_power_of_two() && params.array_len >= 2,
        "array_len must be a power of two >= 2"
    );

    let mut b = ProgramBuilder::new("binary_search");
    let outer = b.label();
    let bisect = b.label();
    let no_move = b.label();
    let done = b.label();
    b.bind(outer);
    b.load(R_KEY, R_PROBES, 0);
    b.imm(R_POS, 0);
    b.alu(AluOp::Or, R_HALF, R_HALF0, R_HALF0, 1); // half = n/2
    b.bind(bisect);
    b.alu(AluOp::Add, R_MID, R_POS, R_HALF, 1);
    b.alu(AluOp::Shl, R_ADDR, R_MID, R_THREE, 1); // mid * 8
    b.alu(AluOp::Add, R_ADDR, R_ADDR, R_ARR, 1);
    b.load(R_ELEM, R_ADDR, 0); // the bisection load
    b.alu(AluOp::SltU, R_CMP, R_KEY, R_ELEM, 1); // key < elem ?
    b.branch(Cond::Nez, R_CMP, no_move);
    b.alu(AluOp::Or, R_POS, R_MID, R_MID, 1); // pos = mid
    b.bind(no_move);
    b.alu(AluOp::Shr, R_HALF, R_HALF, R_ONE, 1);
    b.branch(Cond::Nez, R_HALF, bisect);
    // Final: checksum += arr[pos].
    b.alu(AluOp::Shl, R_ADDR, R_POS, R_THREE, 1);
    b.alu(AluOp::Add, R_ADDR, R_ADDR, R_ARR, 1);
    b.load(R_ELEM, R_ADDR, 0);
    b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_ELEM, 1);
    b.alu(AluOp::Add, R_PROBES, R_PROBES, R_EIGHT, 1);
    b.alu(AluOp::Sub, R_CNT, R_CNT, R_ONE, 1);
    b.branch(Cond::Nez, R_CNT, outer);
    b.jump(done);
    b.bind(done);
    b.halt();
    let prog = b.finish().expect("search program is well-formed");

    let mut rng = SplitMix64::new(params.seed);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let n = params.array_len;
        let arr = alloc.alloc_spread(n * 8);
        // Sorted, strictly increasing keys starting above 0.
        let mut keys = Vec::with_capacity(n as usize);
        let mut k = 1u64;
        for _ in 0..n {
            k += 1 + rng.next_below(64);
            keys.push(k);
        }
        for (i, &key) in keys.iter().enumerate() {
            mem.write(arr + i as u64 * 8, key).expect("aligned");
        }

        let probes = alloc.alloc_spread(params.searches * 8);
        let mut checksum = 0u64;
        for i in 0..params.searches {
            let probe = rng.next_below(k + 32);
            mem.write(probes + i * 8, probe).expect("aligned");
            // Replicate the program's bisection exactly.
            let mut pos = 0usize;
            let mut half = (n / 2) as usize;
            while half > 0 {
                let mid = pos + half;
                if keys[mid] <= probe {
                    pos = mid;
                }
                half >>= 1;
            }
            checksum = checksum.wrapping_add(keys[pos]);
        }

        instances.push(InstanceSetup {
            regs: vec![
                (R_CNT, params.searches),
                (R_ONE, 1),
                (R_PROBES, probes),
                (R_ARR, arr),
                (R_HALF0, n / 2),
                (R_EIGHT, 8),
                (R_THREE, 3),
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

    /// PC of the bisection load.
    const BISECT_LOAD_PC: usize = 6;

    #[test]
    fn solo_run_matches_checksum() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x200_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            SearchParams {
                array_len: 1 << 10,
                searches: 128,
                seed: 5,
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
    }

    #[test]
    fn bisect_load_pc_is_a_load_and_runs_log_n_times() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x200_0000);
        let searches = 64u64;
        let w = build(
            &mut m.mem,
            &mut alloc,
            SearchParams {
                array_len: 1 << 12,
                searches,
                seed: 9,
            },
            1,
        );
        assert!(matches!(
            w.prog.insts[BISECT_LOAD_PC],
            reach_sim::Inst::Load { .. }
        ));
        w.run_solo(&mut m, 0, 10_000_000);
        let s = &m.counters.per_pc[&BISECT_LOAD_PC];
        assert_eq!(s.loads, searches * 12, "log2(4096) loads per search");
    }

    #[test]
    fn large_array_misses_cold() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x200_0000);
        // 2^21 * 8B = 16 MiB > L3.
        let w = build(
            &mut m.mem,
            &mut alloc,
            SearchParams {
                array_len: 1 << 21,
                searches: 128,
                seed: 21,
            },
            1,
        );
        w.run_solo(&mut m, 0, 50_000_000);
        let s = &m.counters.per_pc[&BISECT_LOAD_PC];
        // Deep levels miss, top levels get hot: likelihood lands strictly
        // inside (0.2, 0.9) — the interesting regime for a cost model.
        let p = s.miss_likelihood();
        assert!(p > 0.2 && p < 0.95, "mixed miss likelihood, got {p}");
    }

    #[test]
    fn deterministic_across_builds() {
        let mut m1 = Machine::new(MachineConfig::default());
        let mut a1 = AddrAlloc::new(0x200_0000);
        let w1 = build(&mut m1.mem, &mut a1, SearchParams::default(), 1);
        let mut m2 = Machine::new(MachineConfig::default());
        let mut a2 = AddrAlloc::new(0x200_0000);
        let w2 = build(&mut m2.mem, &mut a2, SearchParams::default(), 1);
        assert_eq!(w1.instances, w2.instances);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_len_panics() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0);
        let _ = build(
            &mut m.mem,
            &mut alloc,
            SearchParams {
                array_len: 1000,
                ..SearchParams::default()
            },
            1,
        );
    }
}
