//! `reach-chaos` — deterministic crash–restart chaos campaigns from the
//! command line.
//!
//! Runs seed-derived randomized fault schedules (crash instants,
//! journal torn-writes/partial-flushes, the PR 2 fault channels, stale
//! rebuilds, runaway scavengers) against the supervised zipf-drift
//! service, audits every run with the five chaos safety oracles, and —
//! when a schedule violates — prints it as a copy-pasteable
//! `ChaosSchedule` constructor chain, optionally shrunk to a minimal
//! repro first.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin reach_chaos -- \
//!     [--campaigns N] [--seed S] [--minimize] [--broken] \
//!     [--fleet [--shards N]]
//! ```
//!
//! Options:
//!
//! * `--campaigns N` — schedules to run (default 50).
//! * `--seed S` — campaign seed; campaign `i` of seed `S` is identical
//!   across machines and reruns (default 1).
//! * `--minimize` — shrink each violating schedule (drop crashes, zero
//!   channels, bisect crash instants) before printing its repro.
//! * `--broken` — sabotage recovery on purpose (`revalidate: false`
//!   plus artifact bit-rot between crash and restart) to demo the
//!   oracle catching it; with `--minimize`, the shrinker demo too.
//! * `--fleet` — run *fleet* schedules instead: shard crashes
//!   mid-rollout, torn journals on one shard, runaway scavengers on
//!   another, poisoned rolling deploys, audited by the fleet oracles
//!   (capacity, poison containment, journal-projection ≡ live state,
//!   bounded unavailability). Not combinable with `--minimize` or
//!   `--broken`.
//! * `--shards N` — fleet width for `--fleet` (default 2).
//!
//! Exit status: 0 when every schedule passed all oracles, 1 when any
//! violated (including under `--broken` — the violation is the point,
//! but the exit code stays honest), 2 on usage errors.

use reach_bench::experiments::chaos::{default_chaos_opts, drift_world};
use reach_bench::experiments::multicore::{default_fleet_chaos_opts, fleet_chaos_factory};
use reach_core::{minimize, run_campaigns, run_fleet_campaigns, run_schedule, StoredBuild};
use reach_sim::Inst;

const MINIMIZE_BUDGET: u64 = 128;

fn usage() -> ! {
    eprintln!(
        "usage: reach_chaos [--campaigns N] [--seed S] [--minimize] [--broken] \
         [--fleet [--shards N]]"
    );
    std::process::exit(2);
}

/// Runs randomized fleet schedules and reports like the single-shard
/// path: aggregate counters, the batch xr-hash, and a copy-pasteable
/// repro for every violating schedule. Exit 1 on any violation.
fn fleet_main(campaigns: u64, seed: u64, shards: usize) -> ! {
    let opts = default_fleet_chaos_opts(shards);
    let mut factory = fleet_chaos_factory(shards);
    println!("== reach-chaos --fleet: {campaigns} campaign(s), {shards} shard(s), seed {seed} ==");
    let rep = run_fleet_campaigns(&mut factory, campaigns, seed, &opts).expect("validated config");
    println!(
        "campaigns {}  shard-crashes {}  recoveries {}  rollout-deploys {}  rollouts-frozen {}",
        rep.campaigns, rep.crashes, rep.recoveries, rep.rollout_deploys, rep.rollouts_frozen
    );
    println!(
        "served {}  shed {}  stolen-slices {}  batch fleet hash 0x{:016x}",
        rep.served, rep.shed, rep.steals, rep.xr_hash
    );
    if rep.violations.is_empty() {
        println!(
            "OK: zero fleet-oracle violations across {} campaign(s).",
            rep.campaigns
        );
        std::process::exit(0);
    }
    eprintln!(
        "FAIL: {} of {} campaign(s) violated a fleet oracle:",
        rep.violating, rep.campaigns
    );
    for (schedule, violations) in &rep.violations {
        eprintln!("-- schedule: {}", schedule.repro());
        for v in violations {
            eprintln!("   {v}");
        }
    }
    std::process::exit(1);
}

fn parse_u64(arg: Option<String>, flag: &str) -> u64 {
    match arg.as_deref().map(str::parse) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} needs an unsigned integer");
            usage();
        }
    }
}

fn main() {
    let mut campaigns = 50u64;
    let mut seed = 1u64;
    let mut do_minimize = false;
    let mut broken = false;
    let mut fleet = false;
    let mut shards = 2usize;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--campaigns" => campaigns = parse_u64(args.next(), "--campaigns"),
            "--seed" => seed = parse_u64(args.next(), "--seed"),
            "--minimize" => do_minimize = true,
            "--broken" => broken = true,
            "--fleet" => fleet = true,
            "--shards" => shards = parse_u64(args.next(), "--shards") as usize,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if fleet {
        if do_minimize || broken {
            eprintln!("--fleet does not combine with --minimize/--broken");
            usage();
        }
        fleet_main(campaigns, seed, shards);
    }

    let mut opts = default_chaos_opts();
    if broken {
        // The deliberately-broken recovery path the campaign engine
        // exists to catch: skip re-validation and bit-rot the deployed
        // artifact's yield save sets between crash and restart.
        opts.recover.revalidate = false;
        opts.corrupt_artifacts = Some(|b: &mut StoredBuild| {
            for inst in &mut b.prog.insts {
                if let Inst::Yield { save_regs, .. } = inst {
                    *save_regs = Some(0);
                }
            }
        });
    }

    println!(
        "== reach-chaos: {campaigns} campaign(s), seed {seed}{} ==",
        if broken { ", recovery SABOTAGED" } else { "" }
    );
    let rep = run_campaigns(&mut drift_world, campaigns, seed, &opts).expect("validated config");
    println!(
        "campaigns {}  crashes {}  segments {}  degraded-recoveries {}  torn-tails {}",
        rep.campaigns, rep.crashes, rep.segments, rep.recoveries_degraded, rep.torn_tails
    );
    println!(
        "served {}  shed {}  swaps {}  rebuilds {}  journal-records {}",
        rep.served, rep.shed_jobs, rep.swaps, rep.rebuilds, rep.journal_records
    );
    println!("cross-restart incident hash 0x{:016x}", rep.xr_hash);

    if rep.violations.is_empty() {
        println!(
            "OK: zero oracle violations across {} campaign(s).",
            rep.campaigns
        );
        return;
    }

    eprintln!(
        "FAIL: {} of {} campaign(s) violated a safety oracle:",
        rep.violating, rep.campaigns
    );
    for (schedule, violations) in &rep.violations {
        eprintln!(
            "-- schedule ({} events): {}",
            schedule.event_count(),
            schedule.repro()
        );
        for v in violations {
            eprintln!("   {v}");
        }
        if do_minimize {
            let (minimal, trials) = minimize(&mut drift_world, schedule, &opts, MINIMIZE_BUDGET)
                .expect("validated config");
            let rerun = run_schedule(&mut drift_world, &minimal, &opts).expect("validated config");
            eprintln!(
                "   minimized to {} event(s) in {trials} trial(s), still violating ({}):",
                minimal.event_count(),
                rerun.violations.first().map(String::as_str).unwrap_or("?")
            );
            eprintln!("   repro: {}", minimal.repro());
        }
    }
    std::process::exit(1);
}
