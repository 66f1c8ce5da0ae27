//! Binary-search-tree lookup workload: dependent loads *and* unpredictable
//! branches.
//!
//! Unlike the flat-array binary search (one load site in a fixed-depth
//! loop), a pointer BST descends left or right per node, giving the
//! instrumentation pipeline a diamond-shaped CFG per level, data-dependent
//! taken/not-taken branches for the LBR, and a single hot dependent load
//! whose address comes from either arm — the shape real index structures
//! (B-trees, ARTs) present.

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64};

/// Parameters for the BST workload.
#[derive(Clone, Copy, Debug)]
pub struct BstParams {
    /// Keys in the tree.
    pub keys: u64,
    /// Lookups per instance.
    pub lookups: u64,
    /// Node spacing in bytes (≥ 32: key, left, right, value).
    pub node_stride: u64,
    /// Seed for keys, shape and probes.
    pub seed: u64,
}

impl Default for BstParams {
    fn default() -> Self {
        BstParams {
            keys: 1 << 14,
            lookups: 1024,
            node_stride: 64, // one node per cache line
            seed: 0xb57,
        }
    }
}

// Node layout (words): 0 = key, 1 = left ptr, 2 = right ptr, 3 = value.
// Register map.
const R_CNT: Reg = Reg(0);
const R_CUR: Reg = Reg(1);
const R_KEY: Reg = Reg(2);
const R_NKEY: Reg = Reg(3);
const R_CMP: Reg = Reg(4);
const R_VAL: Reg = Reg(5);
const R_ONE: Reg = Reg(6);
const R_PROBES: Reg = Reg(8);
const R_ROOT: Reg = Reg(9);
const R_EIGHT: Reg = Reg(10);

/// PC of the node-key load (the hot dependent load).
pub const NODE_KEY_LOAD_PC: usize = 2;

/// Builds the BST program plus instances with disjoint trees.
///
/// Lookups always target present keys; the walk adds each found node's
/// value to the checksum.
///
/// # Panics
///
/// Panics if `keys == 0`, `lookups == 0`, or `node_stride < 32`.
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: BstParams,
    ninstances: usize,
) -> BuiltWorkload {
    assert!(params.keys > 0 && params.lookups > 0, "empty bst workload");
    assert!(params.node_stride >= 32, "nodes are four words");

    // Program: for each probe key, descend from the root.
    //   loop:  key = [probes]; cur = root
    //   walk:  nkey = [cur]                     <- the dependent load
    //          if nkey == key -> found
    //          cmp = key < nkey
    //          if cmp -> go_left else go_right (load the child ptr)
    //          goto walk
    //   found: checksum += [cur+24]; next probe
    let mut b = ProgramBuilder::new("bst_lookup");
    let outer = b.label();
    let walk = b.label();
    let go_left = b.label();
    let found = b.label();
    let next = b.label();
    b.bind(outer);
    b.load(R_KEY, R_PROBES, 0);
    b.alu(AluOp::Or, R_CUR, R_ROOT, R_ROOT, 1);
    b.bind(walk);
    b.load(R_NKEY, R_CUR, 0); // node key (pc 2)
    b.alu(AluOp::Seq, R_CMP, R_NKEY, R_KEY, 1);
    b.branch(Cond::Nez, R_CMP, found);
    b.alu(AluOp::SltU, R_CMP, R_KEY, R_NKEY, 1);
    b.branch(Cond::Nez, R_CMP, go_left);
    b.load(R_CUR, R_CUR, 16); // right child
    b.jump(walk);
    b.bind(go_left);
    b.load(R_CUR, R_CUR, 8); // left child
    b.jump(walk);
    b.bind(found);
    b.load(R_VAL, R_CUR, 24);
    b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_VAL, 1);
    b.bind(next);
    b.alu(AluOp::Add, R_PROBES, R_PROBES, R_EIGHT, 1);
    b.alu(AluOp::Sub, R_CNT, R_CNT, R_ONE, 1);
    b.branch(Cond::Nez, R_CNT, outer);
    b.halt();
    let prog = b.finish().expect("bst program is well-formed");

    let mut rng = SplitMix64::new(params.seed);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let region = alloc.alloc_spread(params.keys * params.node_stride);
        let addr_of = |slot: u64| region + slot * params.node_stride;

        // Distinct random keys, inserted in random order into a BST laid
        // out at randomly permuted slots (tree shape ~ random BST,
        // expected depth ~ 2 ln n).
        let mut keys: Vec<u64> = Vec::with_capacity(params.keys as usize);
        let mut seen = std::collections::HashSet::new();
        while keys.len() < params.keys as usize {
            let k = rng.next_u64() | 1;
            if seen.insert(k) {
                keys.push(k);
            }
        }
        let mut slots: Vec<u64> = (0..params.keys).collect();
        rng.shuffle(&mut slots);

        // Host-side mirror: (key, left, right, value) per node index.
        #[derive(Clone, Copy)]
        struct Node {
            key: u64,
            left: Option<usize>,
            right: Option<usize>,
            value: u64,
        }
        let mut nodes: Vec<Node> = keys
            .iter()
            .map(|&key| Node {
                key,
                left: None,
                right: None,
                value: rng.next_u64(),
            })
            .collect();
        // Insert nodes 1.. under node 0.
        for i in 1..nodes.len() {
            let mut cur = 0usize;
            loop {
                if nodes[i].key < nodes[cur].key {
                    match nodes[cur].left {
                        Some(l) => cur = l,
                        None => {
                            nodes[cur].left = Some(i);
                            break;
                        }
                    }
                } else {
                    match nodes[cur].right {
                        Some(r) => cur = r,
                        None => {
                            nodes[cur].right = Some(i);
                            break;
                        }
                    }
                }
            }
        }
        // Materialize.
        for (i, n) in nodes.iter().enumerate() {
            let a = addr_of(slots[i]);
            mem.write(a, n.key).expect("aligned");
            mem.write(a + 8, n.left.map_or(0, |l| addr_of(slots[l])))
                .expect("aligned");
            mem.write(a + 16, n.right.map_or(0, |r| addr_of(slots[r])))
                .expect("aligned");
            mem.write(a + 24, n.value).expect("aligned");
        }

        // Probes: present keys only (a miss would dereference a null
        // child); checksum predicted from the mirror.
        let probes_base = alloc.alloc_spread(params.lookups * 8);
        let mut checksum = 0u64;
        for i in 0..params.lookups {
            let idx = rng.next_below(params.keys) as usize;
            mem.write(probes_base + i * 8, nodes[idx].key)
                .expect("aligned");
            checksum = checksum.wrapping_add(nodes[idx].value);
        }

        instances.push(InstanceSetup {
            regs: vec![
                (R_CNT, params.lookups),
                (R_ONE, 1),
                (R_PROBES, probes_base),
                (R_ROOT, addr_of(slots[0])),
                (R_EIGHT, 8),
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
    fn solo_run_matches_checksum() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x2000_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            BstParams {
                keys: 1 << 10,
                lookups: 256,
                ..BstParams::default()
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
    }

    #[test]
    fn node_key_load_is_hot_and_misses_on_big_trees() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x2000_0000);
        // 2^18 nodes * 64 B = 16 MiB > L3.
        let w = build(
            &mut m.mem,
            &mut alloc,
            BstParams {
                keys: 1 << 18,
                lookups: 512,
                ..BstParams::default()
            },
            1,
        );
        assert!(matches!(
            w.prog.insts[NODE_KEY_LOAD_PC],
            reach_sim::Inst::Load { .. }
        ));
        w.run_solo(&mut m, 0, 50_000_000);
        let s = &m.counters.per_pc[&NODE_KEY_LOAD_PC];
        // Expected random-BST depth ~ 2 ln(2^18) ≈ 25.
        let depth = s.loads as f64 / 512.0;
        assert!(
            (10.0..45.0).contains(&depth),
            "average walk depth {depth} implausible"
        );
        // Deep nodes miss; the top of the tree gets hot.
        let p = s.miss_likelihood();
        assert!(p > 0.3 && p < 0.95, "mixed miss profile expected, got {p}");
    }

    #[test]
    fn deterministic_across_builds() {
        let build_once = || {
            let mut m = Machine::new(MachineConfig::default());
            let mut alloc = AddrAlloc::new(0x2000_0000);
            build(
                &mut m.mem,
                &mut alloc,
                BstParams {
                    keys: 256,
                    lookups: 64,
                    ..BstParams::default()
                },
                2,
            )
            .instances
        };
        assert_eq!(build_once(), build_once());
    }

    #[test]
    #[should_panic(expected = "four words")]
    fn tiny_stride_panics() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0);
        let _ = build(
            &mut m.mem,
            &mut alloc,
            BstParams {
                node_stride: 16,
                ..BstParams::default()
            },
            1,
        );
    }
}
