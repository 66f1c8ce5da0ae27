//! Regression gate between two BENCH runs.
//!
//! ```sh
//! bench_diff <baseline> <current> [--rel TOL] [--metric KEY=TOL]...
//! ```
//!
//! `<baseline>` and `<current>` are either two `BENCH_*.json` files or
//! two directories of them (matched by file name). Exits non-zero when
//! any baseline metric regresses past its threshold — see
//! [`reach_bench::diff`] for the exact comparison rules. Every metric an
//! experiment writes is simulated and deterministic, so CI gates at
//! `--rel 0`.
//!
//! ```sh
//! # Gate a fresh smoke run against the committed baselines, with a
//! # tighter bound on CPU efficiency:
//! cargo run --release -p reach-bench --bin bench_diff -- \
//!     bench/baselines out --rel 0.10 --metric eff=0.05
//! ```

use reach_bench::{diff_paths, Thresholds};
use std::path::PathBuf;

const USAGE: &str = "usage: bench_diff <baseline-file-or-dir> <current-file-or-dir> \
     [--rel TOL] [--metric KEY=TOL]...";

fn parse(args: impl Iterator<Item = String>) -> Result<(PathBuf, PathBuf, Thresholds), String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut thr = Thresholds::default();
    let mut args = args;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rel" => {
                let v = args.next().ok_or("--rel needs a value")?;
                thr.default_rel = v
                    .parse()
                    .map_err(|_| format!("--rel: not a number: {v:?}"))?;
            }
            "--metric" => {
                let v = args.next().ok_or("--metric needs KEY=TOL")?;
                let (key, tol) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--metric: expected KEY=TOL, got {v:?}"))?;
                let tol: f64 = tol
                    .parse()
                    .map_err(|_| format!("--metric {key}: not a number: {tol:?}"))?;
                thr.per_metric.insert(key.to_string(), tol);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag {flag:?} (try --help)"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }
    if paths.len() != 2 {
        return Err(USAGE.into());
    }
    let cur = paths.pop().expect("two paths");
    let base = paths.pop().expect("two paths");
    Ok((base, cur, thr))
}

fn main() {
    let (base, cur, thr) = match parse(std::env::args().skip(1)) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let result = match diff_paths(&base, &cur, &thr) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("bench_diff: {msg}");
            std::process::exit(2);
        }
    };
    for note in &result.notes {
        println!("note: {note}");
    }
    if result.violations.is_empty() {
        println!(
            "OK: {} metric(s) within thresholds ({} vs {}).",
            result.compared,
            base.display(),
            cur.display()
        );
    } else {
        eprintln!(
            "FAIL: {} regression(s) across {} compared metric(s):",
            result.violations.len(),
            result.compared
        );
        for v in &result.violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
