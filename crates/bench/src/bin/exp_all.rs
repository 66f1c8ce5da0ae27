//! In-process parallel suite runner: every experiment in the registry
//! over one shared worker pool — one command to regenerate every table
//! in EXPERIMENTS.md *and* every `BENCH_<experiment>.json`.
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_all -- --jobs 4 --out-dir bench/baselines
//! cargo run --release -p reach-bench --bin exp_all -- --only t3_switch_cost --no-out
//! ```
//!
//! Flags: `--jobs N` sizes the pool (0 = all cores), `--out-dir D`
//! places the BENCH files (default: the current directory; `--no-out`
//! disables), `--only a,b` restricts to named experiments. The files
//! do not depend on `--jobs`, so a run over `bench/baselines` followed by
//! `git diff` is the regression gate. A failing cell is recorded in its
//! report and the rest of the suite keeps running; the exit code is
//! non-zero if any cell failed or any experiment-level bound was
//! violated.

fn main() {
    let all = reach_bench::experiments::all();
    let refs: Vec<&dyn reach_bench::Experiment> = all.iter().map(|b| b.as_ref()).collect();
    reach_bench::driver::suite_main(&refs);
}
