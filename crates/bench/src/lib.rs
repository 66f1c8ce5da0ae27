//! # reach-bench — experiment harnesses
//!
//! One library module per experiment in DESIGN.md §5 / EXPERIMENTS.md
//! (the registry is [`all_experiments`]), each implementing the
//! [`Experiment`] trait: a named matrix of deterministic
//! (workload × config) cells. The shared driver ([`run_suite`]) fans cells out
//! across a scoped thread pool (per-cell seeds derived from the cell
//! key), renders the paper table, and writes one machine-readable
//! `BENCH_<experiment>.json` per experiment (see [`BenchReport`]).
//!
//! `exp_all` runs the whole registry, or the experiments `--only`
//! names, in-process via [`suite_main`]. The committed
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

mod driver;
mod experiment;
mod experiments;
mod harness;
mod report;
mod serving;
mod table;
mod workloads;

pub use driver::{run_suite, suite_main, DriverOptions};
pub use experiment::{Cell, CellMetrics, Experiment, MetricValue};
pub use experiments::{all_experiments, experiment_by_name};
pub use harness::{fresh, pgo_build, WorkloadBuilder};
pub use report::{BenchReport, CellResult, CellStatus, SCHEMA_VERSION};
pub use serving::{
    chaos_factory, default_fleet_chaos_opts, default_fleet_opts, default_rollout, fleet_world,
    solo_core, FleetService,
};
pub use workloads::{workload_builder, WORKLOAD_NAMES};
