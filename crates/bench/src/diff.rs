//! Regression gating between two BENCH reports (or directories of
//! them): every baseline metric must exist in the current run and stay
//! within its per-metric threshold.
//!
//! Comparison rules, per baseline cell matched by (workload, config):
//!
//! * numeric metrics (exact counters and floats compare on the same
//!   axis): relative change `|cur - base| / |base|` must not exceed the
//!   metric's threshold; when the baseline is `0`, the *absolute* change
//!   is held to the threshold instead;
//! * `NaN` (serialized `null`) baselines only match `NaN` currents —
//!   a value appearing where none was available (or vice versa) is a
//!   schema-level change worth failing loudly on;
//! * string metrics (degradation rungs, reasons) must be equal;
//! * a baseline cell or metric missing from the current run is a
//!   violation; *extra* current cells/metrics are reported as notes
//!   (new coverage is not a regression);
//! * `wall_ms`, `git_sha` and tier bookkeeping are observability, never
//!   compared — except that diffing a smoke run against a full run is
//!   refused outright.

use crate::report::{BenchReport, CellStatus};
use std::collections::BTreeMap;
use std::path::Path;

/// Per-metric tolerance configuration.
#[derive(Clone, Debug)]
pub struct Thresholds {
    /// Relative tolerance applied when no per-metric override matches.
    pub default_rel: f64,
    /// Metric-key → relative-tolerance overrides.
    pub per_metric: BTreeMap<String, f64>,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            default_rel: 0.10,
            per_metric: BTreeMap::new(),
        }
    }
}

impl Thresholds {
    /// The tolerance for a metric key.
    pub fn for_metric(&self, key: &str) -> f64 {
        self.per_metric
            .get(key)
            .copied()
            .unwrap_or(self.default_rel)
    }
}

/// Outcome of one comparison.
#[derive(Clone, Debug, Default)]
pub struct DiffResult {
    /// Regressions: each fails the gate.
    pub violations: Vec<String>,
    /// Non-fatal observations (new cells/metrics, skipped baselines).
    pub notes: Vec<String>,
    /// Metrics that were actually compared.
    pub compared: usize,
}

impl DiffResult {
    /// True when the gate passes.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn merge(&mut self, other: DiffResult) {
        self.violations.extend(other.violations);
        self.notes.extend(other.notes);
        self.compared += other.compared;
    }
}

/// Compares one current report against its baseline.
pub fn diff_reports(base: &BenchReport, cur: &BenchReport, thr: &Thresholds) -> DiffResult {
    let mut out = DiffResult::default();
    let exp = &base.experiment;
    if base.experiment != cur.experiment {
        out.violations.push(format!(
            "experiment name changed: baseline {:?} vs current {:?}",
            base.experiment, cur.experiment
        ));
        return out;
    }
    if base.tier != cur.tier {
        out.violations.push(format!(
            "{exp}: tier mismatch (baseline {}, current {}) — runs are not comparable",
            base.tier.as_str(),
            cur.tier.as_str()
        ));
        return out;
    }

    for bc in &base.cells {
        let key = format!("{exp}/{}", bc.cell);
        let Some(cc) = cur.cell(&bc.cell.workload, &bc.cell.config) else {
            out.violations
                .push(format!("{key}: cell missing from current run"));
            continue;
        };
        match (&bc.status, &cc.status) {
            (CellStatus::Failed(why), _) => {
                // A failed baseline has no metrics to hold anyone to.
                out.notes
                    .push(format!("{key}: baseline cell failed ({why}); skipped"));
                continue;
            }
            (CellStatus::Ok, CellStatus::Failed(why)) => {
                out.violations.push(format!("{key}: cell now fails: {why}"));
                continue;
            }
            (CellStatus::Ok, CellStatus::Ok) => {}
        }
        for (mk, bv) in bc.metrics.iter() {
            let mkey = format!("{key}:{mk}");
            let problem: Option<String> = match cc.metrics.get(mk) {
                None => Some(format!("{mkey}: metric missing from current run")),
                Some(cv) => {
                    out.compared += 1;
                    match (bv.as_f64(), cv.as_f64()) {
                        (Some(b), Some(c)) => {
                            let tol = thr.for_metric(mk);
                            match (b.is_nan(), c.is_nan()) {
                                (true, true) => None,
                                (true, false) | (false, true) => Some(format!(
                                    "{mkey}: availability changed (baseline {}, current {})",
                                    render_num(b),
                                    render_num(c)
                                )),
                                (false, false) => {
                                    let delta = (c - b).abs();
                                    let rel = if b == 0.0 { delta } else { delta / b.abs() };
                                    if rel > tol {
                                        Some(format!(
                                            "{mkey}: {} -> {} ({}{:.1}% vs tolerance {:.1}%)",
                                            render_num(b),
                                            render_num(c),
                                            if c >= b { "+" } else { "-" },
                                            rel * 100.0,
                                            tol * 100.0
                                        ))
                                    } else {
                                        None
                                    }
                                }
                            }
                        }
                        (None, None) => {
                            if bv != cv {
                                Some(format!("{mkey}: {:?} -> {:?}", bv.render(), cv.render()))
                            } else {
                                None
                            }
                        }
                        _ => Some(format!(
                            "{mkey}: metric type changed ({:?} -> {:?})",
                            bv.render(),
                            cv.render()
                        )),
                    }
                }
            };
            out.violations.extend(problem);
        }
        for (mk, _) in cc.metrics.iter() {
            if bc.metrics.get(mk).is_none() {
                out.notes
                    .push(format!("{key}:{mk}: new metric (not in baseline)"));
            }
        }
    }
    for cc in &cur.cells {
        if base.cell(&cc.cell.workload, &cc.cell.config).is_none() {
            out.notes
                .push(format!("{exp}/{}: new cell (not in baseline)", cc.cell));
        }
    }
    out
}

fn render_num(x: f64) -> String {
    if x.is_nan() {
        "n/a".into()
    } else if x == x.trunc() && x.abs() < 1e15 {
        format!("{x}")
    } else {
        format!("{x:.4}")
    }
}

/// Compares a baseline path against a current path. Files diff 1:1;
/// directories match their `BENCH_*.json` files by name (a baseline file
/// missing from the current directory is a violation, an extra current
/// file a note).
///
/// # Errors
///
/// I/O or parse failures reading either side.
pub fn diff_paths(base: &Path, cur: &Path, thr: &Thresholds) -> Result<DiffResult, String> {
    if base.is_dir() != cur.is_dir() {
        return Err(format!(
            "cannot compare a directory with a file: {} vs {}",
            base.display(),
            cur.display()
        ));
    }
    if !base.is_dir() {
        let b = BenchReport::read_from_file(base)?;
        let c = BenchReport::read_from_file(cur)?;
        return Ok(diff_reports(&b, &c, thr));
    }
    let mut out = DiffResult::default();
    let list = |dir: &Path| -> Result<Vec<String>, String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect();
        names.sort();
        Ok(names)
    };
    let base_names = list(base)?;
    if base_names.is_empty() {
        return Err(format!("no BENCH_*.json files in {}", base.display()));
    }
    for name in &base_names {
        let cur_file = cur.join(name);
        if !cur_file.exists() {
            out.violations
                .push(format!("{name}: baseline file missing from current run"));
            continue;
        }
        let b = BenchReport::read_from_file(&base.join(name))?;
        let c = BenchReport::read_from_file(&cur_file)?;
        out.merge(diff_reports(&b, &c, thr));
    }
    for name in list(cur)? {
        if !base_names.contains(&name) {
            out.notes
                .push(format!("{name}: new file (not in baseline)"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Cell, CellMetrics, Tier};
    use crate::report::{CellResult, SCHEMA_VERSION};

    fn report(eff: f64, cycles: u64, rung: &str) -> BenchReport {
        let mut m = CellMetrics::new();
        m.put_f64("eff", eff)
            .put_u64("cycles", cycles)
            .put_str("rung", rung)
            .put_f64("maybe", f64::NAN);
        BenchReport {
            experiment: "demo".into(),
            schema_version: SCHEMA_VERSION,
            git_sha: "x".into(),
            tier: Tier::Smoke,
            cells: vec![CellResult {
                cell: Cell::new("w", "c"),
                status: CellStatus::Ok,
                metrics: m,
                wall_ms: 1.0,
            }],
            wall_ms: 1.0,
            violations: vec![],
        }
    }

    #[test]
    fn identical_reports_pass_with_zero_tolerance() {
        let b = report(0.5, 1000, "full-pgo");
        let thr = Thresholds {
            default_rel: 0.0,
            ..Thresholds::default()
        };
        let d = diff_reports(&b, &b.clone(), &thr);
        assert!(d.ok(), "{:?}", d.violations);
        assert_eq!(d.compared, 4);
    }

    #[test]
    fn at_threshold_passes_past_threshold_fails() {
        let b = report(0.50, 1000, "full-pgo");
        let thr = Thresholds::default(); // 10%
                                         // At (just inside) the threshold: +9.8% is allowed.
        let d = diff_reports(&b, &report(0.549, 1000, "full-pgo"), &thr);
        assert!(d.ok(), "{:?}", d.violations);
        // Past it fails, both directions.
        assert!(!diff_reports(&b, &report(0.556, 1000, "full-pgo"), &thr).ok());
        assert!(!diff_reports(&b, &report(0.44, 1000, "full-pgo"), &thr).ok());
        // Counters use the same relative rule.
        assert!(diff_reports(&b, &report(0.5, 1100, "full-pgo"), &thr).ok());
        assert!(!diff_reports(&b, &report(0.5, 1111, "full-pgo"), &thr).ok());
    }

    #[test]
    fn per_metric_override_wins() {
        let b = report(0.50, 1000, "full-pgo");
        let mut thr = Thresholds::default();
        thr.per_metric.insert("eff".into(), 0.01);
        let d = diff_reports(&b, &report(0.52, 1000, "full-pgo"), &thr);
        assert!(!d.ok());
        assert!(d.violations[0].contains("eff"), "{:?}", d.violations);
    }

    #[test]
    fn string_and_nan_rules() {
        let b = report(0.5, 1000, "full-pgo");
        let thr = Thresholds::default();
        // Rung regression is a violation regardless of numbers.
        let d = diff_reports(&b, &report(0.5, 1000, "scavenger-only"), &thr);
        assert!(!d.ok());
        // NaN baseline vs value: availability change.
        let mut cur = report(0.5, 1000, "full-pgo");
        cur.cells[0].metrics.put_f64("maybe", 3.0);
        assert!(!diff_reports(&b, &cur, &thr).ok());
    }

    #[test]
    fn missing_cell_metric_or_new_failure_violates() {
        let b = report(0.5, 1000, "full-pgo");
        let thr = Thresholds::default();
        let mut gone = b.clone();
        gone.cells.clear();
        assert!(!diff_reports(&b, &gone, &thr).ok());

        let mut nofail = b.clone();
        nofail.cells[0].status = CellStatus::Failed("boom".into());
        nofail.cells[0].metrics = CellMetrics::new();
        assert!(!diff_reports(&b, &nofail, &thr).ok());
        // Failed *baseline* is skipped with a note, not a violation.
        let d = diff_reports(&nofail, &b, &thr);
        assert!(d.ok());
        assert_eq!(d.notes.len(), 1);
    }

    #[test]
    fn tier_mismatch_is_refused() {
        let b = report(0.5, 1000, "full-pgo");
        let mut cur = b.clone();
        cur.tier = Tier::Full;
        assert!(!diff_reports(&b, &cur, &Thresholds::default()).ok());
    }

    #[test]
    fn zero_baseline_uses_absolute_change() {
        let mut b = report(0.5, 1000, "full-pgo");
        b.cells[0].metrics.put_u64("faults", 0);
        let thr = Thresholds::default(); // 0.10 absolute when base == 0
        let mut ok = b.clone();
        ok.cells[0].metrics.put_u64("faults", 0);
        assert!(diff_reports(&b, &ok, &thr).ok());
        let mut bad = b.clone();
        bad.cells[0].metrics.put_u64("faults", 2);
        assert!(!diff_reports(&b, &bad, &thr).ok());
    }
}
