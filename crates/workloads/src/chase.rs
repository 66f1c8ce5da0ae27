//! Pointer-chase workload: the canonical "killer nanoseconds" kernel.
//!
//! A linked list is laid out with configurable node spacing; the program
//! walks it, accumulating node payloads into the checksum. Every hop is a
//! *dependent* load — the next address is not known until the previous
//! load returns — so hardware cannot overlap consecutive hops and a cold
//! walk exposes one full memory latency per node. This is the workload
//! class (pointer-based data structures in databases, §2) that motivated
//! CoroBase-style manual interleaving.

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64};

/// Parameters for the pointer-chase workload.
#[derive(Clone, Copy, Debug)]
pub struct ChaseParams {
    /// Nodes in each instance's chain.
    pub nodes: u64,
    /// Hops each instance performs. If greater than `nodes`, the chain is
    /// closed into a cycle and walked repeatedly (warm passes then hit in
    /// cache if the working set fits).
    pub hops: u64,
    /// Spacing between consecutive node allocations in bytes (≥ 16;
    /// one page spreads nodes across sets and defeats spatial locality).
    pub node_stride: u64,
    /// Latency of each ALU "work" instruction executed per hop (0 =
    /// none): models computation available to overlap with the miss.
    pub work_per_hop: u32,
    /// Number of work ALU instructions per hop (total per-hop compute =
    /// `work_insts * work_per_hop` cycles, splittable at instruction
    /// granularity — which matters to the scavenger pass).
    pub work_insts: u32,
    /// Layout seed: the chain visits nodes in a seeded random permutation
    /// of the region, so the address of hop *i+1* is unpredictable.
    pub seed: u64,
}

impl Default for ChaseParams {
    fn default() -> Self {
        ChaseParams {
            nodes: 4096,
            hops: 4096,
            node_stride: 256,
            work_per_hop: 0,
            work_insts: 1,
            seed: 0x5eed,
        }
    }
}

/// Register map (documented for instrumentation-aware tests):
/// r0 = current node, r1 = remaining hops, r4 = loaded next pointer,
/// r3 = payload, r6 = constant 1, r7 = checksum, r2 = work scratch.
const R_CUR: Reg = Reg(0);
const R_CNT: Reg = Reg(1);
const R_WORK: Reg = Reg(2);
const R_PAYLOAD: Reg = Reg(3);
const R_NEXT: Reg = Reg(4);
const R_ONE: Reg = Reg(6);

/// Builds the pointer-chase program plus `ninstances` disjoint chains.
///
/// Node layout: word 0 = next node address (0 terminates, but generated
/// chains are cycles), word 1 = payload.
///
/// # Panics
///
/// Panics if `nodes == 0`, `hops == 0`, or `node_stride < 16`.
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: ChaseParams,
    ninstances: usize,
) -> BuiltWorkload {
    assert!(params.nodes > 0 && params.hops > 0, "empty chase");
    assert!(params.node_stride >= 16, "nodes are two words");

    // The shared program.
    let mut b = ProgramBuilder::new("pointer_chase");
    let top = b.label();
    b.bind(top);
    b.load(R_NEXT, R_CUR, 0);
    b.load(R_PAYLOAD, R_CUR, 8);
    b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_PAYLOAD, 1);
    if params.work_per_hop > 0 {
        for _ in 0..params.work_insts.max(1) {
            b.alu(AluOp::Add, R_WORK, R_WORK, R_ONE, params.work_per_hop);
        }
    }
    b.alu(AluOp::Or, R_CUR, R_NEXT, R_NEXT, 1); // cur = next
    b.alu(AluOp::Sub, R_CNT, R_CNT, R_ONE, 1);
    b.branch(Cond::Nez, R_CNT, top);
    b.halt();
    let prog = b.finish().expect("chase program is well-formed");

    let mut rng = SplitMix64::new(params.seed);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let region = alloc.alloc_spread(params.nodes * params.node_stride);
        // Chain order = random permutation of node slots.
        let mut order: Vec<u64> = (0..params.nodes).collect();
        rng.shuffle(&mut order);
        let addr_of = |slot: u64| region + slot * params.node_stride;

        let mut checksum: u64 = 0;
        for (i, &slot) in order.iter().enumerate() {
            let next = order[(i + 1) % order.len()];
            let payload = rng.next_u64();
            mem.write(addr_of(slot), addr_of(next)).expect("aligned");
            mem.write(addr_of(slot) + 8, payload).expect("aligned");
        }
        // Predict the checksum by walking the cycle `hops` times.
        let mut pos = 0usize;
        for _ in 0..params.hops {
            let slot = order[pos];
            checksum =
                checksum.wrapping_add(mem.read(addr_of(slot) + 8).expect("aligned payload read"));
            pos = (pos + 1) % order.len();
        }

        instances.push(InstanceSetup {
            regs: vec![(R_CUR, addr_of(order[0])), (R_CNT, params.hops), (R_ONE, 1)],
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
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            ChaseParams {
                nodes: 64,
                hops: 64,
                ..ChaseParams::default()
            },
            1,
        );
        w.run_solo(&mut m, 0, 100_000);
    }

    #[test]
    fn cold_single_pass_misses_every_node() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let nodes = 128;
        let w = build(
            &mut m.mem,
            &mut alloc,
            ChaseParams {
                nodes,
                hops: nodes,
                node_stride: 4096,
                work_per_hop: 0,
                work_insts: 1,
                seed: 1,
            },
            1,
        );
        w.run_solo(&mut m, 0, 100_000);
        // The next-pointer load at pc 0 must have missed to memory for
        // every (cold) node.
        let pc0 = &m.counters.per_pc[&0];
        assert_eq!(pc0.loads, nodes);
        assert_eq!(
            pc0.served_by[reach_sim::Level::Mem.index()],
            nodes,
            "every hop of a cold page-spread chase is a DRAM miss"
        );
        // The payload load (pc 1) hits the just-filled line.
        let pc1 = &m.counters.per_pc[&1];
        assert_eq!(pc1.served_by[reach_sim::Level::L1.index()], nodes);
        // Stall-dominated: the "memory-bound >60%" regime.
        assert!(m.counters.stall_fraction() > 0.6);
    }

    #[test]
    fn second_pass_hits_if_working_set_fits() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let nodes = 64; // 64 nodes * 256B stride: fits L1/L2 easily
        let w = build(
            &mut m.mem,
            &mut alloc,
            ChaseParams {
                nodes,
                hops: nodes * 3, // three passes around the cycle
                node_stride: 256,
                work_per_hop: 0,
                work_insts: 1,
                seed: 2,
            },
            1,
        );
        w.run_solo(&mut m, 0, 100_000);
        let pc0 = &m.counters.per_pc[&0];
        // Pass 1 misses; passes 2 and 3 hit.
        assert_eq!(pc0.loads, nodes * 3);
        assert!(pc0.served_by[reach_sim::Level::L1.index()] >= nodes * 2);
    }

    #[test]
    fn instances_have_disjoint_chains_and_checksums() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x10_0000);
        let w = build(&mut m.mem, &mut alloc, ChaseParams::default(), 3);
        assert_eq!(w.instances.len(), 3);
        let heads: Vec<u64> = w
            .instances
            .iter()
            .map(|s| s.regs.iter().find(|(r, _)| *r == R_CUR).unwrap().1)
            .collect();
        assert!(heads[0] != heads[1] && heads[1] != heads[2]);
        // Checksum collision over random payloads is vanishingly unlikely.
        assert_ne!(
            w.instances[0].expected_checksum,
            w.instances[1].expected_checksum
        );
    }

    #[test]
    fn deterministic_across_builds() {
        let mut m1 = Machine::new(MachineConfig::default());
        let mut a1 = AddrAlloc::new(0x10_0000);
        let w1 = build(&mut m1.mem, &mut a1, ChaseParams::default(), 2);
        let mut m2 = Machine::new(MachineConfig::default());
        let mut a2 = AddrAlloc::new(0x10_0000);
        let w2 = build(&mut m2.mem, &mut a2, ChaseParams::default(), 2);
        assert_eq!(w1.instances, w2.instances);
        assert_eq!(w1.prog, w2.prog);
    }

    #[test]
    #[should_panic(expected = "two words")]
    fn tiny_stride_panics() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0);
        let _ = build(
            &mut m.mem,
            &mut alloc,
            ChaseParams {
                node_stride: 8,
                ..ChaseParams::default()
            },
            1,
        );
    }
}
