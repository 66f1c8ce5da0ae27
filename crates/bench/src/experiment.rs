//! The [`Experiment`] abstraction every experiment harness registers into.
//!
//! An experiment is a named matrix of independent **cells** — one
//! (workload × config) point each. The driver (see [`crate::driver`])
//! fans cells out across a thread pool; because every cell builds its own
//! deterministic machine and workload, cells can run in any order on any
//! thread and still produce byte-identical metrics.
//!
//! Cells report their results as typed [`CellMetrics`] (exact `u64`
//! counters, `f64` fractions/ratios, or small enums as strings), which
//! serialize into the `BENCH_<experiment>.json` schema (see
//! [`crate::report`]); the committed copies in `bench/baselines/` are
//! gated by regenerating them and running `git diff`.

use crate::report::BenchReport;

/// One point of an experiment's matrix: a workload crossed with a
/// configuration. Both strings are stable keys — they name the cell in
/// BENCH JSON and in its one line of a `git diff`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Cell {
    /// Workload key (e.g. "chase", "multi4", "zipf").
    pub workload: String,
    /// Configuration key (e.g. "n=16", "policy=cost-margin-1.0").
    pub config: String,
}

impl Cell {
    /// Builds a cell from any stringy pair.
    pub fn new(workload: impl Into<String>, config: impl Into<String>) -> Cell {
        Cell {
            workload: workload.into(),
            config: config.into(),
        }
    }

    /// The `workload/config` key used in logs and seed derivation.
    pub fn key(&self) -> String {
        format!("{}/{}", self.workload, self.config)
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.workload, self.config)
    }
}

/// A single metric value. Counters stay exact `u64` (they round-trip
/// through JSON without passing through `f64`); fractions and ratios are
/// `f64` (NaN serializes as `null` — "not available", e.g. a degradation
/// ratio with a zero baseline); small categorical outcomes (degradation
/// rungs, reasons) are strings.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// An exact counter.
    UInt(u64),
    /// A fraction, ratio or estimate; NaN means "not available".
    Float(f64),
    /// A categorical outcome; regressions are inequality.
    Str(String),
}

impl MetricValue {
    /// Numeric view (`UInt` widened to `f64`); `None` for strings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            MetricValue::UInt(n) => Some(*n as f64),
            MetricValue::Float(x) => Some(*x),
            MetricValue::Str(_) => None,
        }
    }

    /// Human rendering for tables: exact ints, 4-decimal floats, "n/a"
    /// for NaN, strings verbatim.
    pub fn render(&self) -> String {
        match self {
            MetricValue::UInt(n) => n.to_string(),
            MetricValue::Float(x) if x.is_nan() => "n/a".into(),
            MetricValue::Float(x) => format!("{x:.4}"),
            MetricValue::Str(s) => s.clone(),
        }
    }
}

/// The ordered metric map one cell produces. Insertion order is the
/// column order in tables and the key order in JSON, so keep it stable
/// across cells of one experiment.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellMetrics {
    entries: Vec<(String, MetricValue)>,
}

impl CellMetrics {
    /// An empty metric map.
    pub fn new() -> CellMetrics {
        CellMetrics::default()
    }

    /// Inserts (or replaces) an exact counter.
    pub fn put_u64(&mut self, key: impl Into<String>, v: u64) -> &mut Self {
        self.put(key, MetricValue::UInt(v))
    }

    /// Inserts (or replaces) a float metric.
    pub fn put_f64(&mut self, key: impl Into<String>, v: f64) -> &mut Self {
        self.put(key, MetricValue::Float(v))
    }

    /// Inserts (or replaces) a categorical metric.
    pub fn put_str(&mut self, key: impl Into<String>, v: impl Into<String>) -> &mut Self {
        self.put(key, MetricValue::Str(v.into()))
    }

    /// Inserts (or replaces) any metric value.
    pub fn put(&mut self, key: impl Into<String>, v: MetricValue) -> &mut Self {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = v;
        } else {
            self.entries.push((key, v));
        }
        self
    }

    /// Looks a metric up by key.
    pub fn get(&self, key: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Numeric shortcut for [`CellMetrics::get`].
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(MetricValue::as_f64)
    }

    /// Iterates `(key, value)` in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One experiment: a stable name, a cell matrix, and a deterministic
/// per-cell measurement.
///
/// Implementations must be `Sync`: the driver calls [`Experiment::run_cell`]
/// from several threads at once. Each call must build all of its own
/// state (machine, workload, instrumented binary) from the cell key and
/// seed alone — no shared mutable state, no ambient randomness — so two
/// runs of the same cell produce byte-identical metrics.
pub trait Experiment: Sync {
    /// Stable snake_case name; `BENCH_<name>.json` is derived from it.
    fn name(&self) -> &'static str;

    /// One-line human title for the rendered table.
    fn title(&self) -> &'static str {
        self.name()
    }

    /// The "shape" note printed after the table (may be empty).
    fn notes(&self) -> &'static str {
        ""
    }

    /// The cell matrix, in report order.
    fn cells(&self) -> Vec<Cell>;

    /// Measures one cell. `seed` is derived from the cell key (see
    /// [`cell_seed`]) and is the only randomness a cell may consume;
    /// experiments reproducing fixed paper tables may ignore it in favor
    /// of their hard-coded workload seeds. Panics are contained by the
    /// driver and recorded as a failed cell.
    fn run_cell(&self, cell: &Cell, seed: u64) -> CellMetrics;

    /// Post-processing over the assembled report: derive cross-cell
    /// metrics (ratios vs a baseline cell) and check experiment-level
    /// bounds. Returned strings are recorded as `violations` in the
    /// report and make the run exit non-zero.
    fn finish(&self, _report: &mut BenchReport) -> Vec<String> {
        Vec::new()
    }
}

/// Derives the deterministic per-cell seed from the experiment and cell
/// keys: FNV-1a over `"<experiment>/<workload>/<config>"`, finalized
/// with the SplitMix64 mixer so related keys land far apart.
pub fn cell_seed(experiment: &str, cell: &Cell) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in experiment
        .as_bytes()
        .iter()
        .chain(b"/")
        .chain(cell.workload.as_bytes())
        .chain(b"/")
        .chain(cell.config.as_bytes())
    {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // SplitMix64 finalizer.
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_is_stable_and_spread() {
        let a = cell_seed("t4", &Cell::new("multi4", "n=1"));
        let b = cell_seed("t4", &Cell::new("multi4", "n=2"));
        let c = cell_seed("t5", &Cell::new("multi4", "n=1"));
        assert_eq!(a, cell_seed("t4", &Cell::new("multi4", "n=1")));
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Key concatenation must not be ambiguous across field borders.
        let d = cell_seed("t4", &Cell::new("multi4/n", "=1"));
        assert_ne!(a, d);
    }

    #[test]
    fn metrics_keep_insertion_order_and_replace() {
        let mut m = CellMetrics::new();
        m.put_u64("b", 2).put_f64("a", 0.5).put_u64("b", 3);
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["b", "a"]);
        assert_eq!(m.get("b"), Some(&MetricValue::UInt(3)));
        assert_eq!(m.get_f64("a"), Some(0.5));
    }

    #[test]
    fn render_marks_nan_unavailable() {
        assert_eq!(MetricValue::Float(f64::NAN).render(), "n/a");
        assert_eq!(MetricValue::Float(0.25).render(), "0.2500");
        assert_eq!(MetricValue::UInt(7).render(), "7");
        assert_eq!(MetricValue::Str("full-pgo".into()).render(), "full-pgo");
    }
}
