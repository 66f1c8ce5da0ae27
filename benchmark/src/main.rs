//! `reach-benchmark`: the host-time benchmark for serving, rebuild and
//! interpreter. See `README.md` beside `Cargo.toml`.

mod cal;
mod layers;
mod runner;
mod spec;
mod stats;
mod trace;

use layers::Json;
use runner::{Budget, Config, Outcome};
use spec::{Spec, DEFAULT_SEED, HELD_OUT_SEED};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  reach-benchmark run [--workload W] [--seed S] [--trace [0|1]] [--out DIR] [--seconds N]
  reach-benchmark selfcheck [--seed S]
  reach-benchmark list";

struct Args {
    workload: Option<String>,
    seed: u64,
    /// How long the timed loop runs. Not a setting: `BENCHMARK.json` fixes
    /// it as `run_seconds`, which is what runs without the flag use. It is
    /// read because the driver that gates later changes on this benchmark
    /// ends its command line with `--seconds <run_seconds>`; a run of any
    /// other length says so in its output.
    seconds: Option<u64>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // Bare, or followed by 0 or 1 as the driver writes it.
            a.trace = match it.next_if(|v| *v == "0" || *v == "1") {
                Some(v) => v == "1",
                None => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot read {value}");
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad())?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1 to 60, not {value}"));
                }
                a.seconds = Some(s);
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// One line per metric, then whatever says how far to trust them.
fn print(workload: &str, o: &Outcome) {
    for (name, value, unit) in &o.metrics {
        println!("{workload} {name} {value} {unit}");
    }
    println!("{workload} reps {} count", o.n);
    let fail_share = o.failed as f64 / o.attempted as f64;
    println!("{workload} fail_share {fail_share} ratio");
    println!("{workload} digest {:#018x} hash", o.digest);
    for why in &o.caveats {
        println!("{workload} NOT-FOR-COMPARISON {why}");
    }
}

/// Runs this binary again as `run --workload ...` and returns its
/// standard output once it has exited.
fn child(workload: &str, a: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &a.seed.to_string()])
        .args(["--trace", if a.trace { "1" } else { "0" }]);
    if let Some(seconds) = a.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    if let Some(out) = &a.out {
        cmd.arg("--out").arg(out);
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("{workload}: {}\n{stdout}{stderr}", out.status));
    }
    Ok(stdout)
}

fn run(a: &Args, spec: &Spec) -> Result<(), String> {
    let Some(workload) = &a.workload else {
        // Every workload, each in a fresh process: one workload's heap
        // never reaches the next one's numbers.
        for (name, _) in &spec.workloads {
            print!("{}", child(name, a)?);
        }
        return Ok(());
    };
    let cfg = Config {
        workload: workload.clone(),
        seed: a.seed,
        budget: Budget::Seconds(a.seconds.unwrap_or(spec.run_seconds)),
        trace: a.trace,
        out: a.out.clone(),
    };
    let o = runner::run(&cfg, spec)?;
    print(workload, &o);
    println!("{}", o.to_json());
    Ok(())
}

/// What `selfcheck` reads back from a child: the result line's metrics
/// and the digest line.
fn read_back(stdout: &str) -> Result<(Vec<(String, f64)>, String), String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let json = Json::parse(last).map_err(|e| e.to_string())?;
    let Ok(Json::Object(metrics)) = json.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64);
            Ok((name.clone(), v.map_err(|e| e.to_string())?))
        })
        .collect::<Result<_, String>>()?;
    let digest = stdout
        .lines()
        .find_map(|l| l.split(" digest ").nth(1))
        .ok_or("no digest line")?;
    Ok((metrics, digest.to_owned()))
}

/// A/A: the whole untraced set twice on the same code and seed, the
/// second time in reverse workload order. Two runs of one program must
/// agree within the bounds the benchmark holds two programs to.
fn selfcheck(a: &Args, spec: &Spec) -> Result<bool, String> {
    if a.seconds.is_some() || a.trace || a.workload.is_some() {
        return Err(USAGE.into());
    }
    let names: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let mut first = Vec::new();
    for name in &names {
        eprintln!("selfcheck: pass A, {name}");
        first.push(read_back(&child(name, a)?)?);
    }
    let mut second = Vec::new();
    for name in names.iter().rev() {
        eprintln!("selfcheck: pass B, {name}");
        second.push(read_back(&child(name, a)?)?);
    }
    second.reverse();

    let mut ok = true;
    println!("| workload | metric | A | B | difference | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (i, name) in names.iter().enumerate() {
        let ((ma, da), (mb, db)) = (&first[i], &second[i]);
        for ((metric, va), (_, vb)) in ma.iter().zip(mb) {
            let bound = spec
                .end_to_end
                .iter()
                .find(|m| &m.name == metric)
                .and_then(|m| m.bound)
                .ok_or_else(|| format!("{metric} is not an end-to-end metric"))?;
            let diff = (vb - va).abs() / va.abs();
            let pass = diff <= bound;
            ok &= pass;
            let verdict = if pass { "ok" } else { "OUTSIDE" };
            println!(
                "| {name} | {metric} | {va:.4} | {vb:.4} | {:.2}% | {:.0}% | {verdict} |",
                diff * 100.0,
                bound * 100.0
            );
        }
        let pass = da == db;
        ok &= pass;
        let verdict = if pass { "ok" } else { "DIFFERS" };
        println!("| {name} | digest | {da} | {db} | | exact | {verdict} |");
    }
    Ok(ok)
}

fn list(spec: &Spec) {
    println!("command: {}", spec.command.join(" "));
    println!("paths: {}", spec.paths.join(" "));
    println!("run_seconds: {}", spec.run_seconds);
    println!("seeds: default {DEFAULT_SEED}, held out {HELD_OUT_SEED}");
    println!("\nworkloads:");
    for (name, why) in &spec.workloads {
        println!("  {name}: {why}");
    }
    let direction = |higher| if higher { "higher" } else { "lower" };
    println!("\nend-to-end metrics (name, unit, better, bound):");
    for m in &spec.end_to_end {
        let bound = m.bound.expect("end-to-end metrics are bounded") * 100.0;
        let better = direction(m.higher_is_better);
        println!("  {} {} {better} {bound:.0}%", m.name, m.unit);
    }
    println!("\nper-layer metrics (name, unit, better):");
    for m in &spec.per_layer {
        println!("  {} {} {}", m.name, m.unit, direction(m.higher_is_better));
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Spec::embedded().and_then(|spec| {
        let (command, rest) = argv.split_first().ok_or(USAGE)?;
        let args = parse(rest)?;
        match command.as_str() {
            "run" => run(&args, &spec).map(|()| true),
            "selfcheck" => selfcheck(&args, &spec),
            "list" => {
                list(&spec);
                Ok(true)
            }
            _ => Err(USAGE.into()),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("reach-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(&s.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn trace_reads_bare_and_with_the_drivers_value() {
        assert!(args("--trace").unwrap().trace);
        assert!(args("--trace 1 --seed 4").unwrap().trace);
        assert!(!args("--trace 0").unwrap().trace);
        assert!(!args("--seed 4").unwrap().trace);
        // A following flag is not swallowed as the value.
        let a = args("--trace --seed 9").unwrap();
        assert!(a.trace && a.seed == 9);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args("--seed x").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seconds 61").is_err());
        assert!(args("--workload").is_err());
        assert!(args("--frobnicate 1").is_err());
    }

    /// Two rounds of every workload, untraced and traced: every metric
    /// `BENCHMARK.json` names comes back with its unit, nothing fails, and
    /// each layer's metrics are live on the workloads meant to move them.
    /// The numbers themselves are not for comparison.
    #[test]
    fn smoke_every_metric_on_every_workload() {
        let spec = Spec::embedded().unwrap();
        for (workload, _) in &spec.workloads {
            let mut seen = std::collections::BTreeMap::new();
            for trace in [false, true] {
                let cfg = Config {
                    workload: workload.clone(),
                    seed: DEFAULT_SEED,
                    budget: Budget::Rounds(2),
                    trace,
                    out: None,
                };
                let o = runner::run(&cfg, &spec).unwrap();
                assert!(
                    o.caveats.iter().any(|c| c.contains("smoke")),
                    "a smoke run says it is not for comparison"
                );
                assert_eq!(o.failed, 0, "{workload}");
                assert!(o.attempted >= 1);
                let wanted = if trace {
                    &spec.per_layer
                } else {
                    &spec.end_to_end
                };
                let names: Vec<&String> = o.metrics.iter().map(|(n, _, _)| n).collect();
                assert_eq!(names, wanted.iter().map(|m| &m.name).collect::<Vec<_>>());
                for (name, value, unit) in o.metrics {
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    assert!(!unit.is_empty());
                    if !trace {
                        assert!(value > 0.0, "{workload} {name}: never 0");
                    }
                    seen.insert(name, value);
                }
            }
            let live: &[&str] = match workload.as_str() {
                "fleet-steady" | "fleet-churn" => &[
                    "core.fleet.control_share",
                    "core.fleet.shard_scaling",
                    "core.dualmode.ns_per_inst",
                    "core.supervisor.serve_share",
                    "sim.pebs.samples",
                    "sim.multicore.contention_ns",
                    "instrument.equiv.us",
                ],
                "rebuild-cycle" => &[
                    "profile.collector.share",
                    "instrument.primary.us",
                    "instrument.equiv.terms",
                    "core.journal.append_ns",
                    "core.supervisor.recover_us",
                ],
                _ => &["sim.blocks.hit_rate", "sim.cache.ns_per_access"],
            };
            let everywhere = ["sim.machine.obs_penalty", "workloads.ctx_ns"];
            for name in live.iter().chain(&everywhere) {
                assert!(seen[*name] > 0.0, "{workload} {name} = {}", seen[*name]);
            }
        }
    }
}
