//! Open-addressing hash-table probe workload.
//!
//! An in-memory hash table (linear probing, Fibonacci hashing) is built by
//! the generator; the program performs a batch of lookups. Each lookup
//! reads its key from a sequential key array (cheap), computes the hash
//! with ALU instructions, and then issues probe loads at effectively random
//! table slots — the index-join access pattern of Psaropoulos et al. and
//! CoroBase [23, 28, 53]. For tables larger than L3, nearly every first
//! probe is a miss.

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64};

/// Fibonacci multiplicative-hash constant.
const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Tail padding: probes never wrap; the generator asserts no probe
/// sequence runs past this many slots beyond the nominal capacity.
const TAIL_SLOTS: u64 = 128;

/// Parameters for the hash-probe workload.
#[derive(Clone, Copy, Debug)]
pub struct HashParams {
    /// Nominal table capacity in slots; must be a power of two. Each slot
    /// is two words (key, value).
    pub capacity: u64,
    /// Number of keys inserted (load factor = occupied / capacity; keep
    /// ≤ 0.7 so linear probing stays short).
    pub occupied: u64,
    /// Lookups each instance performs.
    pub lookups: u64,
    /// Fraction (0..=1) of lookups that hit a present key; the rest probe
    /// absent keys.
    pub hit_fraction: f64,
    /// Layout/key seed.
    pub seed: u64,
}

impl Default for HashParams {
    fn default() -> Self {
        HashParams {
            capacity: 1 << 16,
            occupied: 40_000,
            lookups: 2048,
            hit_fraction: 0.8,
            seed: 0xabcd,
        }
    }
}

// Register map.
const R_CNT: Reg = Reg(0);
const R_SHL4: Reg = Reg(1);
const R_EIGHT: Reg = Reg(2);
const R_KEY: Reg = Reg(3);
const R_SLOT: Reg = Reg(4);
const R_PROBE: Reg = Reg(5);
const R_ONE: Reg = Reg(6);
const R_KEYS: Reg = Reg(8);
const R_TABLE: Reg = Reg(9);
const R_MASK: Reg = Reg(10);
const R_MULT: Reg = Reg(11);
const R_SIXTEEN: Reg = Reg(12);
const R_CMP: Reg = Reg(13);
const R_VAL: Reg = Reg(14);
const R_SHIFT: Reg = Reg(15);

fn hash_slot(key: u64, capacity: u64) -> u64 {
    let shift = 64 - capacity.trailing_zeros();
    (key.wrapping_mul(HASH_MULT) >> shift) & (capacity - 1)
}

/// Builds the probe program plus `ninstances` instances, each with its own
/// table and key list.
///
/// # Panics
///
/// Panics if `capacity` is not a power of two, `occupied > 0.9 *
/// capacity`, or any probe chain exceeds the tail padding (raise
/// `capacity` or lower `occupied`).
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: HashParams,
    ninstances: usize,
) -> BuiltWorkload {
    assert!(params.capacity.is_power_of_two(), "capacity must be 2^k");
    assert!(
        params.occupied as f64 <= params.capacity as f64 * 0.9,
        "load factor too high for linear probing"
    );
    assert!((0.0..=1.0).contains(&params.hit_fraction));
    let shift = 64 - params.capacity.trailing_zeros();

    // Program.
    let mut b = ProgramBuilder::new("hash_probe");
    let loop_top = b.label();
    let probe = b.label();
    let found = b.label();
    let miss = b.label();
    let next = b.label();
    b.bind(loop_top);
    b.load(R_KEY, R_KEYS, 0); // key from the sequential array
    b.alu(AluOp::Mul, R_SLOT, R_KEY, R_MULT, 3);
    b.alu(AluOp::Shr, R_SLOT, R_SLOT, R_SHIFT, 1);
    b.alu(AluOp::And, R_SLOT, R_SLOT, R_MASK, 1);
    b.alu(AluOp::Shl, R_SLOT, R_SLOT, R_SHL4, 1); // slot * 16 bytes
    b.alu(AluOp::Add, R_SLOT, R_SLOT, R_TABLE, 1);
    b.bind(probe);
    b.load(R_PROBE, R_SLOT, 0); // the random-location probe load
    b.alu(AluOp::Seq, R_CMP, R_PROBE, R_KEY, 1);
    b.branch(Cond::Nez, R_CMP, found);
    b.branch(Cond::Eqz, R_PROBE, miss);
    b.alu(AluOp::Add, R_SLOT, R_SLOT, R_SIXTEEN, 1);
    b.jump(probe);
    b.bind(found);
    b.load(R_VAL, R_SLOT, 8);
    b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_VAL, 1);
    b.jump(next);
    b.bind(miss);
    b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_KEY, 1);
    b.bind(next);
    b.alu(AluOp::Add, R_KEYS, R_KEYS, R_EIGHT, 1);
    b.alu(AluOp::Sub, R_CNT, R_CNT, R_ONE, 1);
    b.branch(Cond::Nez, R_CNT, loop_top);
    b.halt();
    let prog = b.finish().expect("hash program is well-formed");

    let mut rng = SplitMix64::new(params.seed);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let table_bytes = (params.capacity + TAIL_SLOTS) * 16;
        let table = alloc.alloc_spread(table_bytes);
        // Build the table host-side (mirrors what the program would see).
        let mut slots: Vec<(u64, u64)> = vec![(0, 0); (params.capacity + TAIL_SLOTS) as usize];
        let mut present = Vec::with_capacity(params.occupied as usize);
        let mut inserted = 0;
        while inserted < params.occupied {
            // Non-zero keys only: 0 marks an empty slot.
            let key = rng.next_u64() | 1;
            let mut s = hash_slot(key, params.capacity);
            let mut chain = 0u64;
            loop {
                assert!(
                    chain < TAIL_SLOTS,
                    "probe chain exceeded tail padding; lower the load factor"
                );
                let slot = &mut slots[s as usize];
                if slot.0 == key {
                    break; // duplicate random key: re-draw
                }
                if slot.0 == 0 {
                    let value = rng.next_u64();
                    *slot = (key, value);
                    present.push((key, value));
                    inserted += 1;
                    break;
                }
                s += 1;
                chain += 1;
            }
        }
        for (i, &(k, v)) in slots.iter().enumerate() {
            if k != 0 {
                mem.write(table + i as u64 * 16, k).expect("aligned");
                mem.write(table + i as u64 * 16 + 8, v).expect("aligned");
            }
        }

        // Lookup keys and the predicted checksum.
        let keys_base = alloc.alloc_spread(params.lookups * 8);
        let mut checksum = 0u64;
        for i in 0..params.lookups {
            let (key, contribution) = if rng.next_f64() < params.hit_fraction {
                let &(k, v) = &present[rng.next_below(present.len() as u64) as usize];
                (k, v)
            } else {
                // An absent key: ensure it is not in the table (random
                // 64-bit collision is negligible, but verify for
                // determinism).
                let k = rng.next_u64() | 1;
                let mut s = hash_slot(k, params.capacity);
                let absent = loop {
                    let (sk, _) = slots[s as usize];
                    if sk == 0 {
                        break true;
                    }
                    if sk == k {
                        break false;
                    }
                    s += 1;
                };
                if absent {
                    (k, k)
                } else {
                    (k, slots[s as usize].1)
                }
            };
            mem.write(keys_base + i * 8, key).expect("aligned");
            checksum = checksum.wrapping_add(contribution);
        }

        instances.push(InstanceSetup {
            regs: vec![
                (R_CNT, params.lookups),
                (R_SHL4, 4),
                (R_EIGHT, 8),
                (R_ONE, 1),
                (R_KEYS, keys_base),
                (R_TABLE, table),
                (R_MASK, params.capacity - 1),
                (R_MULT, HASH_MULT),
                (R_SIXTEEN, 16),
                (R_SHIFT, shift as u64),
            ],
            expected_checksum: checksum,
        });
    }

    BuiltWorkload { prog, instances }
}

/// PC of the probe load within the generated program (the hot random
/// access), exported for instrumentation-aware assertions in tests and
/// experiments.
pub const PROBE_LOAD_PC: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{Machine, MachineConfig};

    #[test]
    fn solo_run_matches_checksum() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x100_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            HashParams {
                capacity: 1 << 12,
                occupied: 2048,
                lookups: 256,
                hit_fraction: 0.8,
                seed: 7,
            },
            1,
        );
        w.run_solo(&mut m, 0, 1_000_000);
    }

    #[test]
    fn probe_load_pc_is_the_probe_load() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x100_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            HashParams {
                capacity: 1 << 12,
                occupied: 1024,
                lookups: 128,
                hit_fraction: 1.0,
                seed: 3,
            },
            1,
        );
        assert!(matches!(
            w.prog.insts[PROBE_LOAD_PC],
            reach_sim::Inst::Load { .. }
        ));
        w.run_solo(&mut m, 0, 1_000_000);
        let probe = &m.counters.per_pc[&PROBE_LOAD_PC];
        assert!(probe.loads >= 128, "one probe per lookup at least");
    }

    #[test]
    fn large_table_probes_mostly_miss() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x100_0000);
        // 2^20 slots * 16 B = 16 MiB > 8 MiB L3.
        let w = build(
            &mut m.mem,
            &mut alloc,
            HashParams {
                capacity: 1 << 20,
                occupied: 500_000,
                lookups: 512,
                hit_fraction: 1.0,
                seed: 11,
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
        let probe = &m.counters.per_pc[&PROBE_LOAD_PC];
        // First probes nearly always miss; linear-probing *follow-up*
        // probes often land in the just-filled line (4 slots per 64-byte
        // line), so the blended likelihood sits well above 0.6 but below
        // 1.0.
        assert!(
            probe.miss_likelihood() > 0.6,
            "cold 16MiB table: probes miss (got {})",
            probe.miss_likelihood()
        );
    }

    #[test]
    fn small_table_probes_mostly_hit_after_warmup() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x100_0000);
        // 2^9 slots * 16B = 8 KiB: L1-resident. Warm it with one pass,
        // then measure a second batch... simplest: many lookups over a
        // tiny table; steady state dominates.
        let w = build(
            &mut m.mem,
            &mut alloc,
            HashParams {
                capacity: 1 << 9,
                occupied: 256,
                lookups: 4096,
                hit_fraction: 1.0,
                seed: 13,
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
        let probe = &m.counters.per_pc[&PROBE_LOAD_PC];
        assert!(
            probe.miss_likelihood() < 0.2,
            "hot table should mostly hit (got {})",
            probe.miss_likelihood()
        );
        // Key-array loads are sequential: 1 miss per 8 words.
        let keys = &m.counters.per_pc[&0];
        let key_missrate = keys.l2_misses() as f64 / keys.loads as f64;
        assert!(key_missrate < 0.2);
    }

    #[test]
    fn miss_lookups_contribute_key_to_checksum() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x100_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            HashParams {
                capacity: 1 << 10,
                occupied: 512,
                lookups: 200,
                hit_fraction: 0.0, // all absent
                seed: 17,
            },
            1,
        );
        w.run_solo(&mut m, 0, 1_000_000);
    }

    #[test]
    #[should_panic(expected = "load factor")]
    fn overfull_table_panics() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0);
        let _ = build(
            &mut m.mem,
            &mut alloc,
            HashParams {
                capacity: 1 << 10,
                occupied: 1024,
                ..HashParams::default()
            },
            1,
        );
    }

    #[test]
    fn two_instances_are_independent() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x100_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            HashParams {
                capacity: 1 << 12,
                occupied: 1000,
                lookups: 64,
                hit_fraction: 0.5,
                seed: 23,
            },
            2,
        );
        let c0 = w.run_solo(&mut m, 0, 1_000_000);
        let c1 = w.run_solo(&mut m, 1, 1_000_000);
        assert_ne!(c0.reg(CHECKSUM_REG), c1.reg(CHECKSUM_REG));
    }
}
