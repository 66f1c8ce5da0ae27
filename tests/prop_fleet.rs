//! Property tests: fleet runs replay bit-for-bit (on any thread), and a
//! one-shard fleet degenerates exactly to the single supervisor.
//!
//! The first property runs the same sharded fleet (cross-shard
//! forwarding + a rolling re-instrumentation deploy in flight) on the
//! main thread and concurrently on two spawned threads, and demands the
//! fleet event-log hash and every per-shard counter come back
//! byte-identical — the determinism contract is a function of the seed,
//! never of scheduling or parallelism (`--jobs`-invariance).
//!
//! The second is the degeneracy differential: a fleet of one shard with
//! neutralized uncore contention must serve, swap, journal and log
//! incidents *exactly* like `supervise_journaled` run standalone with
//! that shard's derived seed — the fleet layer adds routing and rollout
//! control, not behavior, so at N=1 it must vanish.

use proptest::prelude::*;
use reach_bench::serving::{default_fleet_opts, default_rollout, fleet_world};
use reach_core::{
    incidents_hash, run_fleet, shard_seed, supervise_journaled, Arrival, DeployedBuild,
    FleetWorkload, Journal, ServiceWorkload, SuperviseExit,
};
use reach_sim::{Context, Machine, MachineConfig, MultiCore, MultiCoreConfig, Program};
use reach_workloads::{build_zipf_kv, AddrAlloc, InstanceSetup, ZipfKvParams};

/// One shard's deterministic context streams: primary/scavenger share a
/// cursor, profiling has its own — mirrored on both sides of the
/// differential so the fleet shard and the standalone supervisor serve
/// byte-identical jobs.
struct Streams {
    live: Vec<InstanceSetup>,
    cursor: usize,
    prof: Vec<InstanceSetup>,
    prof_cursor: usize,
}

impl Streams {
    fn serve_ctx(&mut self) -> Context {
        let i = self.cursor;
        self.cursor += 1;
        self.live[i % self.live.len()].make_context(1_000 + i)
    }
    fn prof_ctxs(&mut self) -> Vec<Context> {
        let n = self.prof.len();
        (0..2)
            .map(|_| {
                let i = self.prof_cursor;
                self.prof_cursor += 1;
                self.prof[i % n].make_context(9_000 + i)
            })
            .collect()
    }
}

/// Lays the zipf-KV tables out in `mem` exactly like the bench fleet
/// world does (same base, params and instance counts on every side).
fn zipf_streams(mem: &mut reach_sim::Memory) -> (Streams, Program) {
    let mut alloc = AddrAlloc::new(reach_bench::LAYOUT_BASE);
    let params = |theta: f64, seed: u64| ZipfKvParams {
        table_entries: 1 << 15,
        lookups: 1024,
        theta,
        seed,
    };
    let live = build_zipf_kv(mem, &mut alloc, params(3.0, 13), 56);
    let prof = build_zipf_kv(mem, &mut alloc, params(3.0, 17), 12);
    let prog = live.prog.clone();
    (
        Streams {
            live: live.instances,
            cursor: 0,
            prof: prof.instances,
            prof_cursor: 0,
        },
        prog,
    )
}

/// The one-shard fleet view of [`Streams`].
struct SoloFleet {
    s: Streams,
}

impl FleetWorkload for SoloFleet {
    fn arrivals(&mut self, _epoch: u64) -> Vec<Arrival> {
        vec![Arrival {
            ingress: 0,
            owner: 0,
        }]
    }
    fn primary_context(&mut self, _shard: usize, _job: u64) -> Context {
        self.s.serve_ctx()
    }
    fn scavenger_context(
        &mut self,
        _shard: usize,
        _epoch: u64,
        _job: u64,
        _slot: usize,
    ) -> Context {
        self.s.serve_ctx()
    }
    fn profiling_contexts(&mut self, _shard: usize, _attempt: u32) -> Vec<Context> {
        self.s.prof_ctxs()
    }
}

/// The standalone-supervisor view of the same streams.
struct SoloService {
    s: Streams,
}

impl ServiceWorkload for SoloService {
    fn arrivals(&mut self, _epoch: u64) -> usize {
        1
    }
    fn primary_context(&mut self, _job: u64) -> Context {
        self.s.serve_ctx()
    }
    fn scavenger_context(&mut self, _epoch: u64, _job: u64, _slot: usize) -> Context {
        self.s.serve_ctx()
    }
    fn profiling_contexts(&mut self, _attempt: u32) -> Vec<Context> {
        self.s.prof_ctxs()
    }
}

/// Builds the initial deployment the same way on both sides.
fn initial_build(
    m: &mut Machine,
    orig: &Program,
    prof: &mut dyn FnMut() -> Vec<Context>,
) -> DeployedBuild {
    let d = default_fleet_opts(1, 0).sup.degrade;
    let built = reach_core::pgo_pipeline_degrading(m, orig, |_a| prof(), &d);
    assert_eq!(built.rung, reach_core::Rung::FullPgo, "{:?}", built.reasons);
    DeployedBuild::from(built)
}

/// Per-shard determinism fingerprint: served, swaps, job faults, the
/// incident hash, and the full latency stream.
type ShardPrint = (u64, u64, u64, u64, Vec<(u64, u64)>);

/// One full fleet run (2 shards, cross traffic, rolling deploy) reduced
/// to its determinism fingerprint: the fleet hash plus every per-shard
/// counter stream.
fn fleet_fingerprint(seed: u64) -> (u64, Vec<ShardPrint>) {
    let (mut mc, mut svc, orig, initial) = fleet_world(2, false);
    let mut opts = default_fleet_opts(2, seed);
    opts.rollout = Some(default_rollout());
    let hits_before: Vec<u64> = mc.cores.iter().map(|c| c.block_cache.stats.hits).collect();
    let rep = run_fleet(&mut mc, &mut svc, &orig, initial, &opts).expect("validated config");
    assert_eq!(rep.violations, Vec::<String>::new());
    for (shard, (core, before)) in mc.cores.iter().zip(hits_before).enumerate() {
        assert!(
            core.block_cache.stats.hits > before,
            "shard {shard} served on the reference tier"
        );
    }
    let shards = rep
        .shards
        .iter()
        .map(|s| {
            (
                s.served,
                s.swaps,
                s.job_faults,
                s.incident_hash(),
                s.latencies.clone(),
            )
        })
        .collect();
    (rep.fleet_hash(), shards)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The same seed produces byte-identical fleet runs on the main
    /// thread and on concurrently spawned threads: determinism is a
    /// function of the seed, not of the host's scheduling or the test
    /// runner's `--jobs` count.
    #[test]
    fn fleet_replay_is_byte_identical_across_threads(seed in 0u64..1_000) {
        let main_run = fleet_fingerprint(seed);
        let ta = std::thread::spawn(move || fleet_fingerprint(seed));
        let tb = std::thread::spawn(move || fleet_fingerprint(seed));
        let a = ta.join().expect("thread a");
        let b = tb.join().expect("thread b");
        prop_assert_eq!(&main_run, &a);
        prop_assert_eq!(&main_run, &b);
    }

    /// A one-shard fleet with neutralized uncore contention serves,
    /// swaps and logs exactly like `supervise_journaled` standalone
    /// with the shard's derived seed: at N=1 the fleet layer vanishes.
    #[test]
    fn one_shard_fleet_degenerates_to_single_supervisor(seed in 0u64..1_000) {
        // Fleet side: one core, contention budgets set so the uncore
        // model can never perturb latencies.
        let mut cfg = MultiCoreConfig::new(1);
        cfg.shared_l3_lines = u64::MAX;
        cfg.dram_lines_per_kcycle = u64::MAX;
        let mut mc = MultiCore::new(cfg);
        let (mut fs, orig_f) = zipf_streams(&mut mc.cores[0].mem);
        let initial_f = initial_build(&mut mc.cores[0], &orig_f, &mut || fs.prof_ctxs());
        let mut fleet_svc = SoloFleet { s: fs };
        let opts = default_fleet_opts(1, seed);
        let rep = run_fleet(&mut mc, &mut fleet_svc, &orig_f, initial_f, &opts)
            .expect("validated config");
        prop_assert_eq!(&rep.violations, &Vec::<String>::new());
        let shard = &rep.shards[0];

        // Standalone side: same layout, same streams, the shard's seed.
        let mut m = Machine::new(MachineConfig::default());
        let (mut ss, orig_s) = zipf_streams(&mut m.mem);
        prop_assert_eq!(orig_s.fingerprint(), orig_f.fingerprint());
        let initial_s = initial_build(&mut m, &orig_s, &mut || ss.prof_ctxs());
        let mut svc = SoloService { s: ss };
        let mut sup = opts.sup.clone();
        sup.epochs = opts.epochs;
        sup.seed = shard_seed(opts.seed, 0);
        let mut journal = Journal::new();
        let exit = supervise_journaled(&mut m, &mut svc, &orig_s, initial_s, &sup, &mut journal, None)
            .expect("validated config");
        let solo = match exit {
            SuperviseExit::Completed(r) => r,
            SuperviseExit::Crashed { .. } => panic!("no faults armed, run cannot crash"),
        };

        prop_assert_eq!(shard.served, solo.served);
        prop_assert_eq!(shard.shed_jobs, solo.shed_jobs);
        prop_assert_eq!(shard.job_faults, solo.job_faults);
        prop_assert_eq!(shard.swaps, solo.swaps);
        prop_assert_eq!(shard.rebuilds, solo.rebuilds);
        prop_assert_eq!(&shard.latencies, &solo.latencies);
        prop_assert_eq!(shard.incident_hash(), incidents_hash(&solo.incidents));
        prop_assert_eq!(shard.final_rung, solo.final_rung);
        prop_assert_eq!(shard.breaker, solo.breaker);
    }
}
