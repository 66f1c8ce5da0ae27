//! Breadth-first search over a CSR graph: the data-analytics motif the
//! paper's introduction leans on ("applications that have large memory
//! footprints and thus frequently incur cache misses (e.g., data
//! analytics)").
//!
//! Memory layout (all word-granular):
//!
//! * `offsets[v]` — CSR row pointers (`n+1` words, read mostly
//!   sequentially),
//! * `edges[e]` — neighbour lists (sequential within a vertex),
//! * `visited[v]` — one word per vertex, hit at *random* (neighbour ids
//!   are shuffled): the miss-heavy access BFS is famous for,
//! * `queue` — the frontier, appended and consumed in order.
//!
//! The checksum accumulates every vertex id in discovery order, making
//! any traversal deviation visible.

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64};

/// Parameters for the BFS workload.
#[derive(Clone, Copy, Debug)]
pub struct BfsParams {
    /// Vertices in the graph.
    pub vertices: u64,
    /// Out-degree of every vertex (uniform random targets).
    pub degree: u64,
    /// Seed for edges and id shuffling.
    pub seed: u64,
}

impl Default for BfsParams {
    fn default() -> Self {
        BfsParams {
            vertices: 1 << 14,
            degree: 8,
            seed: 0xbf5,
        }
    }
}

// Register map.
const R_HEAD: Reg = Reg(0); // queue read cursor (byte addr)
const R_TAIL: Reg = Reg(1); // queue write cursor (byte addr)
const R_U: Reg = Reg(2); // current vertex
const R_E: Reg = Reg(3); // edge cursor (byte addr into edges)
const R_EEND: Reg = Reg(4); // end of u's edge range (byte addr)
const R_V: Reg = Reg(5); // neighbour vertex
const R_ONE: Reg = Reg(6);
const R_TMP: Reg = Reg(8);
const R_ADDR: Reg = Reg(9);
const R_OFFS: Reg = Reg(10); // offsets base
const R_EDGES: Reg = Reg(11); // edges base
const R_VIS: Reg = Reg(12); // visited base
const R_EIGHT: Reg = Reg(13);
const R_THREE: Reg = Reg(14);

/// PC of the visited-array load (the random-access hot spot).
///
/// Derived from the program layout below; asserted by a unit test.
pub const VISITED_LOAD_PC: usize = 18;

/// Builds the BFS program plus instances with disjoint graphs.
///
/// # Panics
///
/// Panics if `vertices == 0` or `degree == 0`.
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: BfsParams,
    ninstances: usize,
) -> BuiltWorkload {
    assert!(params.vertices > 0 && params.degree > 0, "empty graph");

    // Program:
    //  outer: if head == tail -> done
    //         u = [head]; head += 8
    //         e    = edges + [offs + 8u] * 8
    //         eend = edges + [offs + 8u + 8] * 8
    //  inner: if e == eend -> outer
    //         v = [e]; e += 8
    //         if [vis + 8v] != 0 -> inner
    //         [vis + 8v] = 1
    //         [tail] = v; tail += 8
    //         checksum += v
    //         -> inner
    let mut b = ProgramBuilder::new("bfs");
    let outer = b.label();
    let inner = b.label();
    let done = b.label();
    b.bind(outer);
    b.alu(AluOp::Seq, R_TMP, R_HEAD, R_TAIL, 1);
    b.branch(Cond::Nez, R_TMP, done);
    b.load(R_U, R_HEAD, 0);
    b.alu(AluOp::Add, R_HEAD, R_HEAD, R_EIGHT, 1);
    // e/eend from the offsets row.
    b.alu(AluOp::Shl, R_ADDR, R_U, R_THREE, 1);
    b.alu(AluOp::Add, R_ADDR, R_ADDR, R_OFFS, 1);
    b.load(R_E, R_ADDR, 0);
    b.load(R_EEND, R_ADDR, 8);
    b.alu(AluOp::Shl, R_E, R_E, R_THREE, 1);
    b.alu(AluOp::Add, R_E, R_E, R_EDGES, 1);
    b.alu(AluOp::Shl, R_EEND, R_EEND, R_THREE, 1);
    b.alu(AluOp::Add, R_EEND, R_EEND, R_EDGES, 1);
    b.bind(inner);
    b.alu(AluOp::Seq, R_TMP, R_E, R_EEND, 1);
    b.branch(Cond::Nez, R_TMP, outer);
    b.load(R_V, R_E, 0);
    b.alu(AluOp::Add, R_E, R_E, R_EIGHT, 1);
    b.alu(AluOp::Shl, R_ADDR, R_V, R_THREE, 1);
    b.alu(AluOp::Add, R_ADDR, R_ADDR, R_VIS, 1);
    b.load(R_TMP, R_ADDR, 0); // visited[v]: the random access
    b.branch(Cond::Nez, R_TMP, inner);
    b.store(R_ONE, R_ADDR, 0); // visited[v] = 1
    b.store(R_V, R_TAIL, 0); // enqueue
    b.alu(AluOp::Add, R_TAIL, R_TAIL, R_EIGHT, 1);
    b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_V, 1);
    b.jump(inner);
    b.bind(done);
    b.halt();
    let prog = b.finish().expect("bfs program is well-formed");

    let mut rng = SplitMix64::new(params.seed);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let n = params.vertices;
        let d = params.degree;
        // Random d-regular-out multigraph.
        let mut offsets = Vec::with_capacity(n as usize + 1);
        let mut edges = Vec::with_capacity((n * d) as usize);
        for v in 0..n {
            offsets.push(v * d);
            for _ in 0..d {
                edges.push(rng.next_below(n));
            }
        }
        offsets.push(n * d);

        let offs_base = alloc.alloc_spread((n + 1) * 8);
        let edges_base = alloc.alloc_spread(n * d * 8);
        let vis_base = alloc.alloc_spread(n * 8);
        let queue_base = alloc.alloc_spread((n + 1) * 8);
        mem.write_slice(offs_base, &offsets);
        mem.write_slice(edges_base, &edges);
        // visited starts zeroed (sparse memory default). Root = vertex 0:
        // mark visited, pre-enqueue.
        mem.write(vis_base, 1).expect("aligned");
        mem.write(queue_base, 0).expect("aligned");

        // Host-side BFS mirror for the checksum.
        let mut visited = vec![false; n as usize];
        visited[0] = true;
        let mut queue = std::collections::VecDeque::from([0u64]);
        let mut checksum = 0u64;
        while let Some(u) = queue.pop_front() {
            let (s, e) = (offsets[u as usize], offsets[u as usize + 1]);
            for &v in &edges[s as usize..e as usize] {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    queue.push_back(v);
                    checksum = checksum.wrapping_add(v);
                }
            }
        }

        instances.push(InstanceSetup {
            regs: vec![
                (R_HEAD, queue_base),
                (R_TAIL, queue_base + 8),
                (R_ONE, 1),
                (R_OFFS, offs_base),
                (R_EDGES, edges_base),
                (R_VIS, vis_base),
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

    #[test]
    fn solo_run_matches_host_bfs() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x4000_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            BfsParams {
                vertices: 512,
                degree: 4,
                seed: 3,
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
    }

    #[test]
    fn visited_load_pc_is_the_load_and_it_misses_on_big_graphs() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x4000_0000);
        // 2^20 vertices: the visited array alone is 8 MiB, so its random
        // probes thrash the whole hierarchy.
        let w = build(
            &mut m.mem,
            &mut alloc,
            BfsParams {
                vertices: 1 << 20,
                degree: 2,
                seed: 5,
            },
            1,
        );
        assert!(matches!(
            w.prog.insts[VISITED_LOAD_PC],
            reach_sim::Inst::Load { .. }
        ));
        w.run_solo(&mut m, 0, 1 << 28);
        let s = &m.counters.per_pc[&VISITED_LOAD_PC];
        assert!(s.loads > 1 << 19, "one visited probe per edge");
        assert!(
            s.miss_likelihood() > 0.4,
            "random visited probes miss: {}",
            s.miss_likelihood()
        );
        // The visited probe is the single largest stall contributor (the
        // frontier queue and edge lists also miss on a graph this size —
        // honest BFS behaviour).
        let visited_stall = s.stall_cycles;
        let max_other = m
            .counters
            .per_pc
            .iter()
            .filter(|&(pc, _)| pc != VISITED_LOAD_PC)
            .map(|(_, p)| p.stall_cycles)
            .max()
            .unwrap_or(0);
        assert!(
            visited_stall > max_other,
            "visited probes should lead the stall ranking: {visited_stall} vs {max_other}"
        );
    }

    #[test]
    fn two_instances_disjoint() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x4000_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            BfsParams {
                vertices: 256,
                degree: 3,
                seed: 9,
            },
            2,
        );
        let a = w.run_solo(&mut m, 0, 10_000_000);
        let b = w.run_solo(&mut m, 1, 10_000_000);
        assert_ne!(
            a.reg(crate::common::CHECKSUM_REG),
            b.reg(crate::common::CHECKSUM_REG)
        );
    }

    #[test]
    #[should_panic(expected = "empty graph")]
    fn empty_graph_panics() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0);
        let _ = build(
            &mut m.mem,
            &mut alloc,
            BfsParams {
                vertices: 0,
                degree: 1,
                seed: 0,
            },
            1,
        );
    }
}
