//! End-to-end harness tests: real experiments through the parallel
//! driver, the `exp_all` binary through its actual CLI surface, and the
//! committed `bench/baselines/` against the registry that writes them.

use reach_bench::experiments::{all, by_name};
use reach_bench::{
    run_suite, BenchReport, Cell, CellMetrics, CellStatus, DriverOptions, Experiment, MetricValue,
    SCHEMA_VERSION,
};
use reach_profile::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reach_harness_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn baselines_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines")
}

/// One experiment restricted to the cells of one workload, so a test
/// can run a slice of a wide matrix; `finish` sees the cells that ran.
struct OneWorkload<'a> {
    exp: &'a dyn Experiment,
    workload: &'static str,
}

impl Experiment for OneWorkload<'_> {
    fn name(&self) -> &'static str {
        self.exp.name()
    }

    fn cells(&self) -> Vec<Cell> {
        self.exp
            .cells()
            .into_iter()
            .filter(|c| c.workload == self.workload)
            .collect()
    }

    fn run_cell(&self, cell: &Cell, seed: u64) -> CellMetrics {
        self.exp.run_cell(cell, seed)
    }

    fn finish(&self, report: &mut BenchReport) -> Vec<String> {
        self.exp.finish(report)
    }
}

#[test]
fn fault_matrix_reports_explicit_rungs_and_na_ratios() {
    // The satellite-1 regression, end to end: a zero/zero degradation
    // ratio must surface as NaN -> rendered "n/a", never a silent 0.0
    // "perfect" — and the fault-matrix cells must carry their rung/why
    // as explicit string metrics.
    assert!(reach_core::ratio(0, 0).is_nan());
    assert_eq!(MetricValue::Float(reach_core::ratio(5, 0)).render(), "n/a");

    let exp = by_name("fault_matrix").unwrap();
    let chase = OneWorkload {
        exp: exp.as_ref(),
        workload: "chase",
    };
    let opts = DriverOptions {
        jobs: 4,
        out_dir: None,
        ..DriverOptions::default()
    };
    let report = run_suite(&[&chase], &opts).remove(0);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(!report.cells.is_empty());
    for c in &report.cells {
        assert_eq!(c.status, CellStatus::Ok, "{}: {:?}", c.cell, c.status);
        assert!(
            matches!(c.metrics.get("rung"), Some(MetricValue::Str(_))),
            "{}: rung must be an explicit string metric",
            c.cell
        );
        assert!(
            c.metrics.get("lat_vs_healthy").is_some(),
            "{}: finish() must derive lat_vs_healthy",
            c.cell
        );
    }
}

/// The gate is "regenerate, then `git diff`"; it cannot see a committed
/// file that nothing regenerates, or a matrix that no longer matches its
/// file. Every registered experiment has exactly one baseline, holding
/// its cells in matrix order and nothing but what the tree computes.
#[test]
fn baselines_hold_one_file_per_experiment_with_its_cells_in_order() {
    let dir = baselines_dir();
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    files.sort();
    let mut expected: Vec<String> = all()
        .iter()
        .map(|e| format!("BENCH_{}.json", e.name()))
        .collect();
    expected.sort();
    assert_eq!(files, expected, "bench/baselines/ vs experiments::all()");

    for e in all() {
        let name = format!("BENCH_{}.json", e.name());
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let json = Json::parse(&text).unwrap_or_else(|err| panic!("{name}: {err}"));
        let Json::Object(fields) = &json else {
            panic!("{name}: not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["experiment", "schema_version", "violations", "cells"],
            "{name}"
        );
        assert_eq!(json.get("experiment").unwrap().as_str().unwrap(), e.name());
        assert_eq!(
            json.get("schema_version").unwrap().as_u64().unwrap(),
            SCHEMA_VERSION
        );
        let committed: Vec<Cell> = json
            .get("cells")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|c| {
                Cell::new(
                    c.get("workload").unwrap().as_str().unwrap(),
                    c.get("config").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        assert_eq!(committed, e.cells(), "{name}: cells differ from cells()");
    }
}

/// The written files do not depend on the pool size, and on this tree
/// they are the committed baselines, byte for byte.
#[test]
fn exp_all_writes_the_committed_baselines_at_any_job_count() {
    let names = ["BENCH_t13_scheduler.json", "BENCH_t8_ablation.json"];
    let run = |jobs: &str| {
        let dir = tmp_dir(&format!("jobs{jobs}"));
        let st = Command::new(env!("CARGO_BIN_EXE_exp_all"))
            .args(["--jobs", jobs, "--only", "t13_scheduler,t8_ablation"])
            .arg("--out-dir")
            .arg(&dir)
            .output()
            .unwrap();
        assert!(st.status.success(), "exp_all --jobs {jobs} failed");
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        written.sort();
        assert_eq!(written, names.map(String::from));
        dir
    };
    let one = run("1");
    let four = run("4");
    for name in names {
        let committed = std::fs::read(baselines_dir().join(name)).unwrap();
        assert_eq!(std::fs::read(one.join(name)).unwrap(), committed, "{name}");
        assert_eq!(std::fs::read(four.join(name)).unwrap(), committed, "{name}");
    }
    std::fs::remove_dir_all(&one).ok();
    std::fs::remove_dir_all(&four).ok();
}
