//! `reach-chaos` — deterministic crash–restart chaos campaigns from the
//! command line.
//!
//! Runs seed-derived randomized fault schedules (shard crash instants,
//! journal torn-writes/partial-flushes, runaway scavengers, rolling and
//! poisoned deploys) through the one chaos engine over two worlds: the
//! supervised zipf *drift* world on one shard, whose stale initial build
//! makes rebuilds fire, then the *steady* fleet on `--shards` shards.
//! Every run is audited by the fleet's oracles; a violating schedule is
//! printed as a copy-pasteable `FleetChaosSchedule` constructor chain,
//! optionally shrunk to a minimal repro first. The steady world does not
//! wire the runaway arm: there a schedule's `runaway_shard` is a no-op
//! (still counted and printed, never load-bearing, so `--minimize`
//! drops it), and the run says so.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin reach_chaos -- \
//!     [--campaigns N] [--seed S] [--minimize] [--broken] [--shards N]
//! ```
//!
//! Options:
//!
//! * `--campaigns N` — schedules to run per world (default 50).
//! * `--seed S` — campaign seed; campaign `i` of seed `S` is identical
//!   across machines and reruns (default 1).
//! * `--minimize` — shrink each violating schedule (delta debugging
//!   over its armed faults) before printing its repro.
//! * `--broken` — sabotage recovery on purpose (`revalidate: false`,
//!   which brings a poisoned rollout artifact back after a crash) to
//!   demo the oracle catching it; with `--minimize`, the shrinker demo
//!   too.
//! * `--shards N` — width of the steady fleet (default 2).
//!
//! Exit status: 0 when every schedule passed all oracles, 1 when any
//! violated (including under `--broken` — the violation is the point,
//! but the exit code stays honest), 2 on usage errors.

use reach_bench::{chaos_factory, default_fleet_chaos_opts};
use reach_core::{minimize, run_fleet_campaigns, run_fleet_schedule};

const MINIMIZE_BUDGET: u64 = 128;

fn usage() -> ! {
    eprintln!("usage: reach_chaos [--campaigns N] [--seed S] [--minimize] [--broken] [--shards N]");
    std::process::exit(2);
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
    let mut shards = 2usize;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--campaigns" => campaigns = parse_u64(args.next(), "--campaigns"),
            "--seed" => seed = parse_u64(args.next(), "--seed"),
            "--minimize" => do_minimize = true,
            "--broken" => broken = true,
            "--shards" => shards = parse_u64(args.next(), "--shards") as usize,
            _ => usage(),
        }
    }
    if shards == 0 {
        eprintln!("--shards must be >= 1");
        usage();
    }

    println!(
        "== reach-chaos: {campaigns} campaign(s) per world, seed {seed}{} ==",
        if broken { ", recovery SABOTAGED" } else { "" }
    );
    let mut violating = 0u64;
    for (world, shards, drift) in [("drift", 1, true), ("fleet", shards, false)] {
        let mut opts = default_fleet_chaos_opts(shards);
        opts.fleet.recover.revalidate = !broken;
        let mut factory = chaos_factory(shards, drift);
        let rep =
            run_fleet_campaigns(&mut factory, campaigns, seed, &opts).expect("validated config");
        println!("-- {world} world, {shards} shard(s)");
        if !drift {
            println!("   (runaway arm not wired here: a schedule's runaway_shard is a no-op)");
        }
        println!(
            "campaigns {}  shard-crashes {}  recoveries {}  rollout-deploys {}  rollouts-frozen {}",
            rep.campaigns, rep.crashes, rep.recoveries, rep.rollout_deploys, rep.rollouts_frozen
        );
        println!(
            "served {}  shed {}  stolen-slices {}  {world} batch hash 0x{:016x}",
            rep.served, rep.shed, rep.steals, rep.xr_hash
        );
        violating += rep.violating;
        for (schedule, violations) in &rep.violations {
            eprintln!(
                "-- {world} schedule ({} events): {}",
                schedule.event_count(),
                schedule.repro()
            );
            for v in violations {
                eprintln!("   {v}");
            }
            if do_minimize {
                let (minimal, trials) = minimize(&mut factory, schedule, &opts, MINIMIZE_BUDGET)
                    .expect("validated config");
                let rerun =
                    run_fleet_schedule(&mut factory, &minimal, &opts).expect("validated config");
                eprintln!(
                    "   minimized to {} event(s) in {trials} trial(s), still violating ({}):",
                    minimal.event_count(),
                    rerun.violations.first().map(String::as_str).unwrap_or("?")
                );
                eprintln!("   repro: {}", minimal.repro());
            }
        }
    }

    if violating == 0 {
        println!(
            "OK: zero oracle violations across {} campaign(s).",
            2 * campaigns
        );
        return;
    }
    eprintln!(
        "FAIL: {violating} of {} campaign(s) violated a safety oracle.",
        2 * campaigns
    );
    std::process::exit(1);
}
