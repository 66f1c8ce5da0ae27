//! The `BENCH_<experiment>.json` schema: the machine-readable result of
//! every experiment run, and the committed baselines in
//! `bench/baselines/`.
//!
//! A report holds only what the tree computes: no host clock, no commit
//! id, no tier. Regenerating the baselines on an unchanged tree
//! therefore rewrites every file byte for byte, and the gate is
//! `git diff --exit-code -- bench/baselines`. The file puts its header
//! on the first line and each cell on a line of its own, so a diff
//! names the cell that moved:
//!
//! ```json
//! {"experiment":"t4_concurrency","schema_version":2,"violations":[],"cells":[
//! {"workload":"multi4","config":"n=8","status":"ok","metrics":{"eff_smt":0.61,"eff_coro":0.93}},
//! {"workload":"multi4","config":"n=64","status":"failed","error":"...","metrics":{}}
//! ]}
//! ```
//!
//! Every line is written by the workspace's [`Json`] printer
//! (`reach_profile::Json`); NaN metrics are written as `null`.

use crate::experiment::{Cell, CellMetrics, MetricValue};
use reach_profile::Json;
use std::path::{Path, PathBuf};

/// Version of the BENCH JSON schema this crate writes.
pub const SCHEMA_VERSION: u64 = 2;

/// Outcome of one cell.
#[derive(Clone, Debug, PartialEq)]
pub enum CellStatus {
    /// Metrics are valid.
    Ok,
    /// The cell panicked or errored; the message is recorded and the
    /// rest of the matrix kept running.
    Failed(String),
}

/// One cell's recorded result.
#[derive(Clone, Debug, PartialEq)]
pub struct CellResult {
    /// Which matrix point this is.
    pub cell: Cell,
    /// Ok or failed-with-message.
    pub status: CellStatus,
    /// The metrics (empty for failed cells).
    pub metrics: CellMetrics,
}

/// One experiment's full machine-readable result.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Experiment name (`BENCH_<experiment>.json`).
    pub experiment: String,
    /// Schema version written.
    pub schema_version: u64,
    /// Per-cell results, matrix order.
    pub cells: Vec<CellResult>,
    /// Experiment-level bound violations from [`crate::experiment::Experiment::finish`];
    /// non-empty means the generating run exited non-zero.
    pub violations: Vec<String>,
}

fn metric_to_json(v: &MetricValue) -> Json {
    match v {
        MetricValue::UInt(n) => Json::UInt(*n),
        MetricValue::Float(x) => Json::Float(*x),
        MetricValue::Str(s) => Json::Str(s.clone()),
    }
}

fn cell_to_json(c: &CellResult) -> Json {
    let mut fields = vec![
        ("workload".into(), Json::Str(c.cell.workload.clone())),
        ("config".into(), Json::Str(c.cell.config.clone())),
    ];
    match &c.status {
        CellStatus::Ok => fields.push(("status".into(), Json::Str("ok".into()))),
        CellStatus::Failed(msg) => {
            fields.push(("status".into(), Json::Str("failed".into())));
            fields.push(("error".into(), Json::Str(msg.clone())));
        }
    }
    let metrics = c
        .metrics
        .iter()
        .map(|(k, v)| (k.to_string(), metric_to_json(v)))
        .collect();
    fields.push(("metrics".into(), Json::Object(metrics)));
    Json::Object(fields)
}

impl BenchReport {
    /// The canonical file name for this report.
    pub(crate) fn filename(&self) -> String {
        format!("BENCH_{}.json", self.experiment)
    }

    /// The file's text: the header line, one line per cell, and the
    /// closing line (see the module doc).
    pub(crate) fn to_text(&self) -> String {
        let header = Json::Object(vec![
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("schema_version".into(), Json::UInt(self.schema_version)),
            (
                "violations".into(),
                Json::Array(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
        ])
        .to_string();
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| cell_to_json(c).to_string())
            .collect();
        // `header` ends with the object's closing brace; the cell array
        // is its last field.
        format!(
            "{},\"cells\":[\n{}\n]}}\n",
            &header[..header.len() - 1],
            cells.join(",\n")
        )
    }

    /// Writes `BENCH_<experiment>.json` under `dir` (created if absent)
    /// and returns the path.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or writing the file.
    pub(crate) fn write_to_dir(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.filename());
        std::fs::write(&path, self.to_text())?;
        Ok(path)
    }

    /// Looks a cell up by (workload, config).
    pub(crate) fn cell(&self, workload: &str, config: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.cell.workload == workload && c.cell.config == config)
    }

    /// Mutable variant of [`BenchReport::cell`].
    pub(crate) fn cell_mut(&mut self, workload: &str, config: &str) -> Option<&mut CellResult> {
        self.cells
            .iter_mut()
            .find(|c| c.cell.workload == workload && c.cell.config == config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut m1 = CellMetrics::new();
        m1.put_f64("eff", 0.9375)
            .put_u64("cycles", u64::MAX - 1)
            .put_str("rung", "full-pgo")
            .put_f64("lat_vs_healthy", f64::NAN);
        BenchReport {
            experiment: "demo".into(),
            schema_version: SCHEMA_VERSION,
            cells: vec![
                CellResult {
                    cell: Cell::new("chase", "n=8"),
                    status: CellStatus::Ok,
                    metrics: m1,
                },
                CellResult {
                    cell: Cell::new("chase", "n=64"),
                    status: CellStatus::Failed("launch error".into()),
                    metrics: CellMetrics::new(),
                },
            ],
            violations: vec!["bound breached".into()],
        }
    }

    /// The text is one JSON document with the header on its first line
    /// and each cell, in matrix order, on a line of its own.
    #[test]
    fn text_is_json_with_one_line_per_cell() {
        let text = sample().to_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                r#"{"experiment":"demo","schema_version":2,"violations":["bound breached"],"cells":["#,
                r#"{"workload":"chase","config":"n=8","status":"ok","metrics":{"eff":0.9375,"cycles":18446744073709551614,"rung":"full-pgo","lat_vs_healthy":null}},"#,
                r#"{"workload":"chase","config":"n=64","status":"failed","error":"launch error","metrics":{}}"#,
                "]}",
            ]
        );
        let json = Json::parse(&text).unwrap();
        assert_eq!(json.get("cells").unwrap().as_array().unwrap().len(), 2);
        assert!(text.ends_with("]}\n"));
    }

    #[test]
    fn an_empty_report_is_still_json() {
        let mut r = sample();
        r.cells.clear();
        let json = Json::parse(&r.to_text()).unwrap();
        assert!(json.get("cells").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn writes_under_its_canonical_name() {
        let dir = std::env::temp_dir().join(format!("reach_bench_report_{}", std::process::id()));
        let r = sample();
        let path = r.write_to_dir(&dir).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "BENCH_demo.json"
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), r.to_text());
        std::fs::remove_dir_all(&dir).ok();
    }
}
