//! Property test: fleet runs replay bit-for-bit, on any thread.
//!
//! It runs the same sharded fleet (cross-shard forwarding + a rolling
//! re-instrumentation deploy in flight) on the main thread and
//! concurrently on two spawned threads, and demands the fleet event-log
//! hash and every per-shard counter come back byte-identical — the
//! determinism contract is a function of the seed, never of scheduling
//! or parallelism (`--jobs`-invariance).
//!
//! That a one-shard fleet degenerates exactly to a single supervisor is
//! a `reach-core` unit test (`fleet::tests`): it needs the reference
//! standalone loop, which is test-only code inside that crate.

use proptest::prelude::*;
use reach_bench::serving::{default_fleet_opts, default_rollout, fleet_world};
use reach_core::run_fleet;

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
}
