//! Multi-chain pointer chase: several *independent* chains advanced in
//! lockstep by one instance.
//!
//! Each loop iteration hops every chain once, so the chain-head loads are
//! adjacent *and* independent — the pattern §3.2's yield-coalescing
//! optimization exists for: one switch can amortize over `k` prefetches.
//! (A database analogue: a batched index join advancing `k` cursors.)

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64};

/// Parameters for the multi-chain chase.
#[derive(Clone, Copy, Debug)]
pub struct MultiChaseParams {
    /// Independent chains per instance (1..=6).
    pub chains: usize,
    /// Nodes per chain.
    pub nodes: u64,
    /// Hops per chain (chains are cycles, so hops may exceed nodes).
    pub hops: u64,
    /// Node spacing in bytes (≥ 16).
    pub node_stride: u64,
    /// Layout seed.
    pub seed: u64,
}

impl Default for MultiChaseParams {
    fn default() -> Self {
        MultiChaseParams {
            chains: 4,
            nodes: 1024,
            hops: 1024,
            node_stride: 4096,
            seed: 0x4c4a,
        }
    }
}

// Register map: chain cursors r0..r5 (chain i in Reg(i) except the
// counter), counter in r14, const 1 in r6, checksum r7, payload r3,
// next r4.
const R_CNT: Reg = Reg(14);
const R_ONE: Reg = Reg(6);
const R_PAYLOAD: Reg = Reg(3);
const R_NEXT: Reg = Reg(4);

/// Cursor register for chain `i`.
fn cursor(i: usize) -> Reg {
    // r8..r13: clear of the scratch registers above.
    Reg(8 + i as u8)
}

/// PC of chain `i`'s next-pointer load in the generated program.
pub fn chain_load_pc(i: usize) -> usize {
    // Each chain emits: load next, load payload, add checksum, mov cursor
    // (4 instructions).
    i * 4
}

/// Builds the multi-chain program plus instances.
///
/// # Panics
///
/// Panics on zero/too many chains, empty chains, or stride < 16.
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: MultiChaseParams,
    ninstances: usize,
) -> BuiltWorkload {
    assert!(
        (1..=6).contains(&params.chains),
        "1..=6 chains supported by the register map"
    );
    assert!(params.nodes > 0 && params.hops > 0, "empty chase");
    assert!(params.node_stride >= 16, "nodes are two words");

    let mut b = ProgramBuilder::new("multi_chase");
    let top = b.label();
    b.bind(top);
    for i in 0..params.chains {
        let cur = cursor(i);
        b.load(R_NEXT, cur, 0);
        b.load(R_PAYLOAD, cur, 8);
        b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_PAYLOAD, 1);
        b.alu(AluOp::Or, cur, R_NEXT, R_NEXT, 1);
    }
    b.alu(AluOp::Sub, R_CNT, R_CNT, R_ONE, 1);
    b.branch(Cond::Nez, R_CNT, top);
    b.halt();
    let prog = b.finish().expect("multi-chase program is well-formed");

    let mut rng = SplitMix64::new(params.seed);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let mut regs = vec![(R_CNT, params.hops), (R_ONE, 1)];
        let mut checksum = 0u64;
        for i in 0..params.chains {
            let region = alloc.alloc_spread(params.nodes * params.node_stride);
            let mut order: Vec<u64> = (0..params.nodes).collect();
            rng.shuffle(&mut order);
            let addr_of = |slot: u64| region + slot * params.node_stride;
            for (k, &slot) in order.iter().enumerate() {
                let next = order[(k + 1) % order.len()];
                mem.write(addr_of(slot), addr_of(next)).expect("aligned");
                mem.write(addr_of(slot) + 8, rng.next_u64())
                    .expect("aligned");
            }
            let mut pos = 0usize;
            for _ in 0..params.hops {
                let slot = order[pos];
                checksum = checksum.wrapping_add(mem.read(addr_of(slot) + 8).expect("aligned"));
                pos = (pos + 1) % order.len();
            }
            regs.push((cursor(i), addr_of(order[0])));
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

    fn small() -> MultiChaseParams {
        MultiChaseParams {
            chains: 3,
            nodes: 64,
            hops: 64,
            node_stride: 4096,
            seed: 1,
        }
    }

    #[test]
    fn solo_run_matches_checksum() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build(&mut m.mem, &mut alloc, small(), 1);
        w.run_solo(&mut m, 0, 1_000_000);
    }

    #[test]
    fn chain_load_pcs_are_adjacent_independent_loads() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build(&mut m.mem, &mut alloc, small(), 1);
        for i in 0..3 {
            assert!(matches!(
                w.prog.insts[chain_load_pc(i)],
                reach_sim::Inst::Load { .. }
            ));
        }
        // Every chain's pointer load misses to memory on a cold pass.
        w.run_solo(&mut m, 0, 1_000_000);
        for i in 0..3 {
            let s = &m.counters.per_pc[&chain_load_pc(i)];
            assert!(s.miss_likelihood() > 0.9, "chain {i}");
        }
    }

    #[test]
    #[should_panic(expected = "chains supported")]
    fn too_many_chains_panics() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0);
        let _ = build(
            &mut m.mem,
            &mut alloc,
            MultiChaseParams {
                chains: 7,
                ..small()
            },
            1,
        );
    }
}
