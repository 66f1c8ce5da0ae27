//! Property test: fleet runs replay bit-for-bit, on any thread.
//!
//! The fleet is parallel inside: each epoch it steps its live shards on
//! scoped threads, as many as the host offers, in contiguous runs of
//! shards. The property is that scheduling cannot move a hash. The same
//! sharded fleet (cross-shard forwarding + a rolling re-instrumentation
//! deploy in flight) runs on the main thread and concurrently on two
//! spawned threads, each run fanning its own shards out again, and the
//! fleet event-log hash and every per-shard counter must come back
//! byte-identical: determinism is a function of the seed, never of
//! scheduling or parallelism (`--jobs`-invariance). It runs at 2 shards
//! and at 4, so on a 2-vCPU host a thread serves several shards in turn.
//!
//! Forcing the worker count (1, 2 and 4 threads against pinned serial
//! digests) and the one-shard fleet's equality with a single supervisor
//! are `reach-core` unit tests (`fleet::tests`): they need a crate-private
//! seam and the reference standalone loop.

use proptest::prelude::*;
use reach_bench::{default_fleet_opts, default_rollout, fleet_world};
use reach_core::run_fleet;

/// Per-shard determinism fingerprint: served, swaps, job faults, the
/// incident hash, and the full latency stream.
type ShardPrint = (u64, u64, u64, u64, Vec<(u64, u64)>);

/// One full fleet run (`shards` shards, cross traffic, rolling deploy)
/// reduced to its determinism fingerprint: the fleet hash plus every
/// per-shard counter stream.
fn fleet_fingerprint(shards: usize, seed: u64) -> (u64, Vec<ShardPrint>) {
    let (mut mc, mut svc, orig, initial) = fleet_world(shards, false);
    let mut opts = default_fleet_opts(shards, seed);
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

/// The fingerprint on the main thread and on two concurrently spawned
/// threads.
fn fingerprints_across_threads(shards: usize, seed: u64) -> [(u64, Vec<ShardPrint>); 3] {
    let main_run = fleet_fingerprint(shards, seed);
    let ta = std::thread::spawn(move || fleet_fingerprint(shards, seed));
    let tb = std::thread::spawn(move || fleet_fingerprint(shards, seed));
    let a = ta.join().expect("thread a");
    let b = tb.join().expect("thread b");
    [main_run, a, b]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The same seed produces byte-identical fleet runs on the main
    /// thread and on concurrently spawned threads: determinism is a
    /// function of the seed, not of the host's scheduling or the test
    /// runner's `--jobs` count.
    #[test]
    fn fleet_replay_is_byte_identical_across_threads(seed in 0u64..1_000) {
        let [main_run, a, b] = fingerprints_across_threads(2, seed);
        prop_assert_eq!(&main_run, &a);
        prop_assert_eq!(&main_run, &b);
    }

    /// The same at 4 shards, where a serving thread steps more than one
    /// shard per epoch whenever the host has fewer than four CPUs.
    #[test]
    fn four_shard_fleet_replay_is_byte_identical_across_threads(seed in 0u64..1_000) {
        let [main_run, a, b] = fingerprints_across_threads(4, seed);
        prop_assert_eq!(&main_run, &a);
        prop_assert_eq!(&main_run, &b);
    }
}
