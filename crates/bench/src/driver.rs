//! The parallel experiment driver: fans (experiment × cell) jobs out
//! across a scoped thread pool, contains per-cell failures, renders the
//! human tables and writes one `BENCH_<experiment>.json` per experiment.
//!
//! `exp_all` is the one entry point: it runs the registry (or the
//! experiments `--only` names) in-process through [`suite_main`] — one
//! shared pool over *all* cells of *all* experiments, so a wide
//! experiment cannot serialize the suite behind it.
//!
//! Everything an experiment reports is simulated and a pure function of
//! the cell's seed, and the driver adds nothing else to a report: the
//! files are byte-identical at any `--jobs`, and regenerating
//! `bench/baselines/` on an unchanged tree leaves `git diff` empty. Host
//! time is `benchmark/run.sh`'s job.
//!
//! Failure containment: a cell that panics (the pre-driver `exp_all`
//! aborted the whole suite when one sibling binary failed to launch) is
//! caught, recorded as a `failed` cell with its message, and the rest of
//! the matrix keeps running.

use crate::experiment::{cell_seed, Cell, Experiment};
use crate::report::{BenchReport, CellResult, CellStatus, SCHEMA_VERSION};
use crate::table::Table;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriverOptions {
    /// Worker threads; 0 means `available_parallelism`.
    pub jobs: usize,
    /// Where `BENCH_*.json` files land; `None` disables writing.
    pub out_dir: Option<PathBuf>,
    /// Restrict `exp_all` to these experiment names (empty = all).
    pub only: Vec<String>,
}

impl Default for DriverOptions {
    fn default() -> DriverOptions {
        DriverOptions {
            jobs: 0,
            out_dir: Some(PathBuf::from(".")),
            only: Vec::new(),
        }
    }
}

impl DriverOptions {
    /// Parses `exp_all`'s CLI surface:
    /// `[--jobs N] [--out-dir DIR] [--no-out] [--only a,b]`.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown flag or malformed value.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<DriverOptions, String> {
        let mut opts = DriverOptions::default();
        let mut args = args;
        while let Some(a) = args.next() {
            let mut value_of =
                |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match a.as_str() {
                "--jobs" => {
                    let v = value_of("--jobs")?;
                    opts.jobs = v
                        .parse()
                        .map_err(|_| format!("--jobs: not a number: {v:?}"))?;
                }
                "--out-dir" => opts.out_dir = Some(PathBuf::from(value_of("--out-dir")?)),
                "--no-out" => opts.out_dir = None,
                "--only" => {
                    opts.only = value_of("--only")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                "--help" | "-h" => {
                    return Err(
                        "usage: [--jobs N] [--out-dir DIR] [--no-out] [--only exp1,exp2]".into(),
                    );
                }
                other => return Err(format!("unknown flag {other:?} (try --help)")),
            }
        }
        Ok(opts)
    }

    fn worker_count(&self, jobs_available: usize) -> usize {
        let n = if self.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.jobs
        };
        n.clamp(1, jobs_available.max(1))
    }
}

/// Runs one cell with panic containment.
fn run_one(exp: &dyn Experiment, cell: &Cell) -> CellResult {
    let seed = cell_seed(exp.name(), cell);
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run_cell(cell, seed)));
    match outcome {
        Ok(metrics) => CellResult {
            cell: cell.clone(),
            status: CellStatus::Ok,
            metrics,
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic with non-string payload".into());
            CellResult {
                cell: cell.clone(),
                status: CellStatus::Failed(msg),
                metrics: Default::default(),
            }
        }
    }
}

/// Runs a set of experiments over one shared worker pool and returns a
/// report per experiment, in input order.
///
/// Per-cell failures (panics) become `failed` cells; experiment-level
/// `finish` violations land in [`BenchReport::violations`]. Neither
/// aborts the suite.
pub fn run_suite(exps: &[&dyn Experiment], opts: &DriverOptions) -> Vec<BenchReport> {
    // Flatten: (experiment index, cell index within experiment, cell).
    let matrices: Vec<Vec<Cell>> = exps.iter().map(|e| e.cells()).collect();
    let jobs: Vec<(usize, usize)> = matrices
        .iter()
        .enumerate()
        .flat_map(|(ei, cells)| (0..cells.len()).map(move |ci| (ei, ci)))
        .collect();

    let slots: Vec<Mutex<Vec<Option<CellResult>>>> = matrices
        .iter()
        .map(|cells| Mutex::new(vec![None; cells.len()]))
        .collect();
    let next = AtomicUsize::new(0);
    let workers = opts.worker_count(jobs.len());

    // Suppress the default panic hook's backtrace spam while cells run;
    // contained panics are reported as failed cells instead.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(ei, ci)) = jobs.get(i) else { break };
                let result = run_one(exps[ei], &matrices[ei][ci]);
                slots[ei].lock().unwrap()[ci] = Some(result);
            });
        }
    });
    std::panic::set_hook(prev_hook);

    exps.iter()
        .zip(slots)
        .map(|(exp, slot)| {
            let cells: Vec<CellResult> = slot
                .into_inner()
                .unwrap()
                .into_iter()
                .map(|c| c.expect("every cell ran"))
                .collect();
            let mut report = BenchReport {
                experiment: exp.name().to_string(),
                schema_version: SCHEMA_VERSION,
                cells,
                violations: Vec::new(),
            };
            report.violations = exp.finish(&mut report);
            report
        })
        .collect()
}

/// Renders a report as the human table: workload/config columns plus the
/// union of metric keys in first-seen order; failed cells show their
/// error.
pub fn render_report(exp: &dyn Experiment, report: &BenchReport) -> String {
    let mut keys: Vec<String> = Vec::new();
    for c in &report.cells {
        for (k, _) in c.metrics.iter() {
            if !keys.iter().any(|have| have == k) {
                keys.push(k.to_string());
            }
        }
    }
    let mut headers: Vec<&str> = vec!["workload", "config"];
    headers.extend(keys.iter().map(String::as_str));
    let mut t = Table::new(exp.title(), &headers);
    for c in &report.cells {
        let mut row = vec![c.cell.workload.clone(), c.cell.config.clone()];
        match &c.status {
            CellStatus::Ok => {
                row.extend(keys.iter().map(|k| {
                    c.metrics
                        .get(k)
                        .map(|v| v.render())
                        .unwrap_or_else(|| "-".into())
                }));
            }
            CellStatus::Failed(msg) => row.push(format!("FAILED: {msg}")),
        }
        t.row(row);
    }
    t.render()
}

/// Prints a report (table, notes, failures, violations) and returns
/// whether it is clean.
pub fn print_report(exp: &dyn Experiment, report: &BenchReport) -> bool {
    print!("{}", render_report(exp, report));
    if !exp.notes().is_empty() {
        println!("{}", exp.notes());
    }
    let failed: Vec<&CellResult> = report
        .cells
        .iter()
        .filter(|c| matches!(c.status, CellStatus::Failed(_)))
        .collect();
    for c in &failed {
        if let CellStatus::Failed(msg) = &c.status {
            eprintln!("FAILED cell {}/{}: {msg}", report.experiment, c.cell);
        }
    }
    for v in &report.violations {
        eprintln!("VIOLATION {}: {v}", report.experiment);
    }
    println!();
    failed.is_empty() && report.violations.is_empty()
}

/// Runs experiments, prints tables, writes BENCH files; returns the
/// process exit code (0 clean, 1 on any failed cell, violation or write
/// error).
pub fn run_and_emit(exps: &[&dyn Experiment], opts: &DriverOptions) -> i32 {
    let reports = run_suite(exps, opts);
    let mut clean = true;
    for (exp, report) in exps.iter().zip(&reports) {
        clean &= print_report(*exp, report);
        if let Some(dir) = &opts.out_dir {
            match report.write_to_dir(dir) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("could not write {}: {e}", report.filename());
                    clean = false;
                }
            }
        }
    }
    let total_cells: usize = reports.iter().map(|r| r.cells.len()).sum();
    let failed: usize = reports
        .iter()
        .flat_map(|r| &r.cells)
        .filter(|c| matches!(c.status, CellStatus::Failed(_)))
        .count();
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    println!(
        "{} experiment(s), {} cell(s), {} failed, {} violation(s).",
        reports.len(),
        total_cells,
        failed,
        violations,
    );
    i32::from(!clean)
}

/// `main` body for `exp_all`: parse CLI (honoring `--only`), run the
/// registry in-process over one shared pool, emit everything.
pub fn suite_main(all: &[&dyn Experiment]) -> ! {
    let opts = match DriverOptions::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let selected: Vec<&dyn Experiment> = if opts.only.is_empty() {
        all.to_vec()
    } else {
        let unknown: Vec<&String> = opts
            .only
            .iter()
            .filter(|name| !all.iter().any(|e| e.name() == name.as_str()))
            .collect();
        if !unknown.is_empty() {
            eprintln!(
                "unknown experiment(s) {:?}; known: {:?}",
                unknown,
                all.iter().map(|e| e.name()).collect::<Vec<_>>()
            );
            std::process::exit(2);
        }
        all.iter()
            .filter(|e| opts.only.iter().any(|n| n == e.name()))
            .copied()
            .collect()
    };
    std::process::exit(run_and_emit(&selected, &opts));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::CellMetrics;

    /// A tiny deterministic experiment: metrics derived purely from the
    /// cell key and seed; one cell panics on demand.
    struct Toy {
        panic_on: &'static str,
    }

    impl Experiment for Toy {
        fn name(&self) -> &'static str {
            "toy"
        }

        fn cells(&self) -> Vec<Cell> {
            (0..6).map(|i| Cell::new("w", format!("c={i}"))).collect()
        }

        fn run_cell(&self, cell: &Cell, seed: u64) -> CellMetrics {
            assert!(cell.config != self.panic_on, "injected cell failure");
            let mut m = CellMetrics::new();
            m.put_u64("seed_lo", seed & 0xFFFF);
            m.put_f64("half", (seed & 0xFF) as f64 / 2.0);
            m
        }

        fn finish(&self, report: &mut BenchReport) -> Vec<String> {
            if report.cell("w", "c=0").is_some() {
                vec![]
            } else {
                vec!["lost the first cell".into()]
            }
        }
    }

    #[test]
    fn suite_runs_all_cells_in_order_and_in_parallel() {
        let toy = Toy { panic_on: "" };
        let opts = DriverOptions {
            jobs: 4,
            out_dir: None,
            ..DriverOptions::default()
        };
        let reports = run_suite(&[&toy], &opts);
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.cells.len(), 6);
        // Matrix order is preserved regardless of completion order.
        for (i, c) in r.cells.iter().enumerate() {
            assert_eq!(c.cell.config, format!("c={i}"));
            assert_eq!(c.status, CellStatus::Ok);
        }
        assert!(r.violations.is_empty());
    }

    #[test]
    fn repeated_runs_are_deterministic() {
        let toy = Toy { panic_on: "" };
        let run = |jobs| {
            let opts = DriverOptions {
                jobs,
                out_dir: None,
                ..DriverOptions::default()
            };
            run_suite(&[&toy], &opts)[0].to_text()
        };
        assert_eq!(run(3), run(3));
        assert_eq!(run(1), run(3));
    }

    /// Regression for the pre-driver `exp_all`, which `panic!`ed out of
    /// the whole suite when launching one sibling failed: a failing cell
    /// must be recorded and every other cell still run.
    #[test]
    fn failing_cell_is_recorded_not_fatal() {
        let toy = Toy { panic_on: "c=2" };
        let opts = DriverOptions {
            jobs: 2,
            out_dir: None,
            ..DriverOptions::default()
        };
        let reports = run_suite(&[&toy], &opts);
        let r = &reports[0];
        assert_eq!(r.cells.len(), 6);
        let failed: Vec<&CellResult> = r
            .cells
            .iter()
            .filter(|c| matches!(c.status, CellStatus::Failed(_)))
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].cell.config, "c=2");
        match &failed[0].status {
            CellStatus::Failed(msg) => assert!(msg.contains("injected"), "msg: {msg}"),
            CellStatus::Ok => unreachable!(),
        }
        // Siblings all completed.
        assert_eq!(
            r.cells
                .iter()
                .filter(|c| c.status == CellStatus::Ok)
                .count(),
            5
        );
    }

    #[test]
    fn cli_parses_the_shared_surface() {
        let opts = DriverOptions::parse(
            ["--jobs", "4", "--out-dir", "/tmp/x", "--only", "a,b"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.jobs, 4);
        assert_eq!(
            opts.out_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(opts.only, ["a", "b"]);
        for gone in ["--bogus", "--smoke", "--full"] {
            assert!(DriverOptions::parse([gone.to_string()].into_iter()).is_err());
        }
        let none = DriverOptions::parse(["--no-out".to_string()].into_iter()).unwrap();
        assert!(none.out_dir.is_none());
    }

    #[test]
    fn render_marks_failed_cells() {
        let toy = Toy { panic_on: "c=1" };
        let opts = DriverOptions {
            jobs: 1,
            out_dir: None,
            ..DriverOptions::default()
        };
        let reports = run_suite(&[&toy], &opts);
        let s = render_report(&toy, &reports[0]);
        assert!(s.contains("FAILED"), "{s}");
        assert!(s.contains("seed_lo"), "{s}");
    }
}
