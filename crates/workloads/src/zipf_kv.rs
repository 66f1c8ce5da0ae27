//! Zipf-skewed key–value lookup workload.
//!
//! A flat value table is read at indices drawn from a Zipf distribution:
//! the popular head stays cache-resident while the long tail misses. The
//! result is a *single* load site whose miss likelihood is intermediate
//! and tunable via the skew — the regime where a threshold/cost-model
//! instrumentation policy (§3.2) genuinely has something to decide, where
//! CoroBase-style "always yield at the deref" over-pays, and where the
//! §4.1 presence-probe what-if shines.

use crate::common::{AddrAlloc, BuiltWorkload, InstanceSetup, CHECKSUM_REG};
use reach_sim::{AluOp, Cond, Memory, ProgramBuilder, Reg, SplitMix64, Zipf};

/// Parameters for the Zipf KV workload.
#[derive(Clone, Copy, Debug)]
pub struct ZipfKvParams {
    /// Value-table entries (8 bytes each).
    pub table_entries: u64,
    /// Lookups per instance.
    pub lookups: u64,
    /// Zipf skew (0 = uniform, 0.99 = YCSB default).
    pub theta: f64,
    /// Seed for table values and the index stream.
    pub seed: u64,
}

impl Default for ZipfKvParams {
    fn default() -> Self {
        ZipfKvParams {
            table_entries: 1 << 21, // 16 MiB of values: tail misses L3
            lookups: 4096,
            theta: 0.9,
            seed: 0x21bf,
        }
    }
}

// Register map.
const R_CNT: Reg = Reg(0);
const R_IDX: Reg = Reg(1);
const R_VAL: Reg = Reg(2);
const R_ADDR: Reg = Reg(3);
const R_ONE: Reg = Reg(6);
const R_IDXS: Reg = Reg(8);
const R_TABLE: Reg = Reg(9);
const R_EIGHT: Reg = Reg(10);
const R_THREE: Reg = Reg(11);

/// Builds the Zipf KV program plus instances (disjoint tables and index
/// streams).
///
/// The pre-drawn index stream is stored in memory and read sequentially —
/// mirroring a request queue — so the *value* load is the only skewed
/// access.
///
/// # Panics
///
/// Panics if `table_entries == 0` or `lookups == 0`.
pub fn build(
    mem: &mut Memory,
    alloc: &mut AddrAlloc,
    params: ZipfKvParams,
    ninstances: usize,
) -> BuiltWorkload {
    assert!(params.table_entries > 0 && params.lookups > 0, "empty kv");

    let mut b = ProgramBuilder::new("zipf_kv");
    let top = b.label();
    b.bind(top);
    b.load(R_IDX, R_IDXS, 0); // request stream (sequential)
    b.alu(AluOp::Shl, R_ADDR, R_IDX, R_THREE, 1);
    b.alu(AluOp::Add, R_ADDR, R_ADDR, R_TABLE, 1);
    b.load(R_VAL, R_ADDR, 0); // the skewed value load
    b.alu(AluOp::Add, CHECKSUM_REG, CHECKSUM_REG, R_VAL, 1);
    b.alu(AluOp::Add, R_IDXS, R_IDXS, R_EIGHT, 1);
    b.alu(AluOp::Sub, R_CNT, R_CNT, R_ONE, 1);
    b.branch(Cond::Nez, R_CNT, top);
    b.halt();
    let prog = b.finish().expect("zipf kv program is well-formed");

    let mut rng = SplitMix64::new(params.seed);
    let zipf = Zipf::new(params.table_entries, params.theta);
    let mut instances = Vec::with_capacity(ninstances);
    for _ in 0..ninstances {
        let table = alloc.alloc_spread(params.table_entries * 8);
        // Values are derived from the index so we can predict checksums
        // without writing the whole multi-MiB table: value(i) = mix(i).
        // Only entries actually referenced are materialized.
        let value_of = |i: u64| -> u64 { SplitMix64::new(i ^ 0xda7a_5eed).next_u64() };

        // Popularity-to-slot mapping: rank r maps to a pseudo-random slot
        // so popular entries are scattered across the table (and across
        // cache sets), as in a real store.
        let scatter = |rank: u64| -> u64 {
            // A fixed odd multiplier permutes [0, 2^k) when entries is a
            // power of two; otherwise modulo bias is irrelevant here — we
            // only need determinism and spread.
            rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % params.table_entries
        };

        let idxs = alloc.alloc_spread(params.lookups * 8);
        let mut checksum = 0u64;
        for i in 0..params.lookups {
            let rank = zipf.sample(&mut rng);
            let slot = scatter(rank);
            mem.write(idxs + i * 8, slot).expect("aligned");
            let v = value_of(slot);
            mem.write(table + slot * 8, v).expect("aligned");
            checksum = checksum.wrapping_add(v);
        }

        instances.push(InstanceSetup {
            regs: vec![
                (R_CNT, params.lookups),
                (R_ONE, 1),
                (R_IDXS, idxs),
                (R_TABLE, table),
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

    /// PC of the skewed value load.
    const VALUE_LOAD_PC: usize = 3;

    #[test]
    fn solo_run_matches_checksum() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x800_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            ZipfKvParams {
                table_entries: 1 << 12,
                lookups: 512,
                theta: 0.9,
                seed: 1,
            },
            1,
        );
        w.run_solo(&mut m, 0, 10_000_000);
    }

    #[test]
    fn value_load_pc_is_the_skewed_load() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x800_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            ZipfKvParams {
                table_entries: 1 << 12,
                lookups: 64,
                theta: 0.5,
                seed: 2,
            },
            1,
        );
        assert!(matches!(
            w.prog.insts[VALUE_LOAD_PC],
            reach_sim::Inst::Load { .. }
        ));
        w.run_solo(&mut m, 0, 1_000_000);
        assert_eq!(m.counters.per_pc[&VALUE_LOAD_PC].loads, 64);
    }

    #[test]
    fn skew_produces_intermediate_miss_likelihood() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x800_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            ZipfKvParams {
                table_entries: 1 << 21,
                lookups: 8192,
                theta: 0.99,
                seed: 3,
            },
            1,
        );
        w.run_solo(&mut m, 0, 50_000_000);
        let p = m.counters.per_pc[&VALUE_LOAD_PC].miss_likelihood();
        assert!(
            p > 0.1 && p < 0.9,
            "skewed lookups should be a hit/miss mix, got {p}"
        );
    }

    #[test]
    fn uniform_over_huge_table_mostly_misses() {
        let mut m = Machine::new(MachineConfig::default());
        let mut alloc = AddrAlloc::new(0x800_0000);
        let w = build(
            &mut m.mem,
            &mut alloc,
            ZipfKvParams {
                table_entries: 1 << 21,
                lookups: 4096,
                theta: 0.0,
                seed: 4,
            },
            1,
        );
        w.run_solo(&mut m, 0, 50_000_000);
        let p = m.counters.per_pc[&VALUE_LOAD_PC].miss_likelihood();
        assert!(p > 0.9, "uniform over 16MiB: nearly all miss, got {p}");
    }

    #[test]
    fn higher_skew_means_fewer_misses() {
        let run = |theta: f64| {
            let mut m = Machine::new(MachineConfig::default());
            let mut alloc = AddrAlloc::new(0x800_0000);
            let w = build(
                &mut m.mem,
                &mut alloc,
                ZipfKvParams {
                    table_entries: 1 << 21,
                    lookups: 8192,
                    theta,
                    seed: 5,
                },
                1,
            );
            w.run_solo(&mut m, 0, 50_000_000);
            m.counters.per_pc[&VALUE_LOAD_PC].miss_likelihood()
        };
        let p_low = run(0.2);
        let p_high = run(1.2);
        assert!(
            p_high < p_low,
            "more skew -> hotter head -> fewer misses ({p_high} !< {p_low})"
        );
    }
}
