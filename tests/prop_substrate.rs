//! Property tests on the substrate: cache coherence of the model, PEBS
//! arithmetic, rewriting relocation, and executor invariants.

mod common;

use common::{gen_program, run_and_observe};
use proptest::prelude::*;
use reach_sim::{
    AccessKind, Hierarchy, HwEvent, Level, MachineConfig, PebsConfig, PebsSampler, SplitMix64, Zipf,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After any access sequence, a demand re-access of the most recently
    /// loaded line (given time for the fill) is an L1 hit, and the probe
    /// agrees with the access outcome.
    #[test]
    fn cache_recency_and_probe_agree(
        addrs in prop::collection::vec(0u64..(1 << 22), 1..200),
        seed in any::<u64>(),
    ) {
        let cfg = MachineConfig::default();
        let mut h = Hierarchy::new(&cfg);
        let mut rng = SplitMix64::new(seed);
        let mut now = 0u64;
        for &a in &addrs {
            let addr = a & !7;
            let kind = match rng.next_below(3) {
                0 => AccessKind::DemandLoad,
                1 => AccessKind::Store,
                _ => AccessKind::Prefetch,
            };
            let acc = h.access(addr, now, kind);
            now = now.max(acc.ready) + 1 + rng.next_below(50);
        }
        // The last line accessed must be resident now (fills complete).
        let last = addrs.last().unwrap() & !7;
        let acc = h.access(last, now + 1000, AccessKind::DemandLoad);
        prop_assert_eq!(acc.level, Level::L1, "recently-filled line must hit L1");
        // Probe is consistent with a completed state.
        prop_assert_eq!(h.probe(last, now + 2000), Level::L1);
    }

    /// Sample count equals floor(occurrences / period) for any
    /// observation batching.
    #[test]
    fn pebs_sample_arithmetic(
        period in 1u64..1000,
        batches in prop::collection::vec(0u64..500, 1..50),
    ) {
        let mut s = PebsSampler::new(PebsConfig {
            event: HwEvent::StallCycle,
            period,
            skid: 0,
            buffer_capacity: usize::MAX >> 1,
        });
        for (i, &n) in batches.iter().enumerate() {
            s.observe(i, None, i as u64, n);
        }
        let total: u64 = batches.iter().sum();
        prop_assert_eq!(s.occurrences, total);
        prop_assert_eq!(s.emitted, total / period);
        prop_assert_eq!(s.buffered() as u64, total / period);
    }

    /// Zipf samples stay in the domain and rank frequencies decrease from
    /// head to tail (statistically).
    #[test]
    fn zipf_domain_and_monotonicity(n in 2u64..5000, theta in 0.1f64..1.4, seed in any::<u64>()) {
        let z = Zipf::new(n, theta);
        let mut rng = SplitMix64::new(seed);
        let mut head = 0u64;
        let mut tail = 0u64;
        for _ in 0..2000 {
            let r = z.sample(&mut rng);
            prop_assert!(r < n);
            if r < n / 2 { head += 1; } else { tail += 1; }
        }
        prop_assert!(head >= tail, "lower ranks must dominate: {head} vs {tail}");
    }

    /// Inserting no-op yields at arbitrary positions preserves program
    /// semantics (the relocation engine never corrupts control flow).
    #[test]
    fn random_insertions_relocate_correctly(
        g in gen_program(),
        raw_points in prop::collection::vec(0usize..64, 0..8),
    ) {
        let mut points: Vec<usize> = raw_points
            .into_iter()
            .map(|p| p % g.prog.len())
            .collect();
        points.sort_unstable();
        points.dedup();
        let insertions: Vec<reach_instrument::Insertion> = points
            .iter()
            .map(|&at_pc| reach_instrument::Insertion {
                at_pc,
                insts: vec![reach_sim::Inst::Yield {
                    kind: reach_sim::YieldKind::Scavenger,
                    save_regs: None,
                }],
            })
            .collect();
        let (q, map) = reach_instrument::insert_before(&g.prog, insertions).unwrap();
        // PC map invariants.
        for (old, &new) in map.new_of.iter().enumerate() {
            prop_assert_eq!(map.origin[new], Some(old));
        }
        let (_, mem0) = run_and_observe(&g, &g.prog);
        let (_, mem1) = run_and_observe(&g, &q);
        prop_assert_eq!(mem0, mem1);
    }

    /// Dominator/loop analysis invariants on arbitrary CFGs: the entry
    /// dominates every reachable block, idom chains terminate at the
    /// entry, and loop headers dominate their bodies.
    #[test]
    fn dominators_and_loops_are_consistent(g in gen_program()) {
        use reach_instrument::{natural_loops, Cfg, Dominators};
        let cfg = Cfg::build(&g.prog);
        let dom = Dominators::compute(&cfg);
        let rpo = cfg.reverse_post_order();
        for &b in &rpo {
            prop_assert!(dom.dominates(0, b), "entry must dominate block {b}");
            let id = dom.idom(b).unwrap();
            prop_assert!(dom.dominates(id, b));
        }
        for l in natural_loops(&cfg) {
            prop_assert!(l.body.contains(&l.header));
            for &b in &l.body {
                prop_assert!(
                    dom.dominates(l.header, b),
                    "header {} must dominate body block {b}", l.header
                );
            }
        }
    }

    /// CFG + liveness never under-approximate: a register read by any
    /// instruction is live at program entry unless some path defines it
    /// first — weaker sanity: entry liveness only contains registers that
    /// are read somewhere.
    #[test]
    fn entry_liveness_subset_of_used_registers(g in gen_program()) {
        let cfg = reach_instrument::Cfg::build(&g.prog);
        let live = reach_instrument::Liveness::compute(&g.prog, &cfg);
        let mut used = 0u32;
        let mut buf = Vec::new();
        for inst in &g.prog.insts {
            buf.clear();
            inst.uses(&mut buf);
            for r in &buf {
                used |= 1 << r.index();
            }
        }
        let entry = live.live_before(0);
        prop_assert_eq!(entry & !used, 0, "live-at-entry register never read");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Running two identical instances of a generated program as SMT
    /// hardware threads (each on its own copy of the scratch region)
    /// produces exactly the solo results for both: hardware multiplexing
    /// must not perturb architectural state.
    #[test]
    fn smt_corun_is_architecturally_transparent(g in gen_program()) {
        use reach_sim::{run_smt, Context, Machine, MachineConfig};
        let (_, mem_solo) = run_and_observe(&g, &g.prog);

        let base2 = common::BASE + 0x100_0000;
        let mut m = Machine::new(MachineConfig::default());
        m.mem.write_slice(common::BASE, &g.init_words);
        m.mem.write_slice(base2, &g.init_words);
        let mut a = Context::new(0);
        a.set_reg(common::RB, common::BASE);
        let mut b = Context::new(1);
        b.set_reg(common::RB, base2);
        let mut ctxs = [a, b];
        let rep = run_smt(&mut m, &g.prog, &mut ctxs, 1_000_000).unwrap();
        prop_assert_eq!(rep.completed, 2);

        let words = common::REGION_WORDS + common::POOL.len() as u64;
        let dump = |base: u64, m: &Machine| -> Vec<u64> {
            (0..words).map(|k| m.mem.read(base + k * 8).unwrap()).collect()
        };
        prop_assert_eq!(&dump(common::BASE, &m), &mem_solo);
        prop_assert_eq!(&dump(base2, &m), &mem_solo);
    }
}

#[test]
fn percentile_is_monotone_in_p() {
    let mut rng = SplitMix64::new(42);
    let values: Vec<u64> = (0..200).map(|_| rng.next_below(10_000)).collect();
    let mut last = 0;
    for i in 0..=20 {
        let p = i as f64 / 20.0;
        let v = reach_core::percentile(&values, p);
        assert!(v >= last, "percentile must be monotone");
        last = v;
    }
    assert_eq!(
        reach_core::percentile(&values, 1.0),
        *values.iter().max().unwrap()
    );
}
