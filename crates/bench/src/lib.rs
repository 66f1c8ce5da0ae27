//! # reach-bench — experiment harnesses
//!
//! One library module in [`experiments`] per experiment in DESIGN.md §5
//! / EXPERIMENTS.md, each implementing
//! the [`Experiment`] trait: a named matrix of deterministic
//! (workload × config) cells. The shared [`driver`] fans cells out
//! across a scoped thread pool (per-cell seeds derived from the cell
//! key), renders the paper table, and writes one machine-readable
//! `BENCH_<experiment>.json` per experiment (see [`report`]).
//!
//! `exp_all` runs the whole registry, or the experiments `--only`
//! names, in-process via [`driver::suite_main`]. The committed
//! `bench/baselines/` are its output, and the gate is to regenerate them
//! and run `git diff`:
//!
//! ```sh
//! cargo run --release -p reach-bench --bin exp_all -- --jobs 4 --out-dir bench/baselines
//! git diff --exit-code -- bench/baselines
//! ```
//!
//! Every number written here is in simulated cycles and a pure function
//! of the tree. Host time is measured in one place, the calibrated
//! `benchmark/run.sh run` at the repository root; the host-hardware side
//! of the mechanism is shown, unquoted, by `examples/host_interleaving.rs`.

pub mod driver;
pub mod experiment;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod serving;
pub mod table;
pub mod workloads;

pub use driver::{run_suite, DriverOptions};
pub use experiment::{cell_seed, Cell, CellMetrics, Experiment, MetricValue};
pub use harness::{fresh, interleave_checked, pgo_build, RunRow, WorkloadBuilder, LAYOUT_BASE};
pub use report::{BenchReport, CellResult, CellStatus, SCHEMA_VERSION};
pub use table::{cyc_ns, f, pct, Table};
pub use workloads::{workload_builder, WORKLOAD_NAMES};
