//! LBR aggregation: block latencies and common paths.
//!
//! §3.3: "profiling mechanisms like Intel's LBR can extract information
//! like the latency of a basic block and the common paths in the program
//! [34, 35]". This module turns raw [`BranchRecord`] snapshots into those
//! two artifacts:
//!
//! * a per-straight-run latency estimate (mean cycles between two taken
//!   branches, keyed by the run's start/end PCs), and
//! * taken-edge frequencies, from which hot paths are reconstructed.

use crate::json::{Json, JsonError};
use reach_sim::{straight_runs, BranchRecord};
use std::collections::HashMap;

/// Accumulated timing for one straight-line run (`start..=end`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunTiming {
    /// Observations of this run.
    pub count: u64,
    /// Total observed cycles.
    pub total_cycles: u64,
}

/// Aggregates LBR snapshots into block latencies and edge frequencies.
#[derive(Clone, Debug, Default)]
pub struct BlockLatencyEstimator {
    /// Timing per (start PC, ending-branch PC) straight run.
    ///
    /// Serialized as a PC-sorted list of `[start, end, count,
    /// total_cycles]` rows (JSON maps cannot key on tuples).
    pub runs: HashMap<(usize, usize), RunTiming>,
    /// Taken-edge frequency per (branch PC, target PC).
    pub edges: HashMap<(usize, usize), u64>,
    /// Snapshots folded in.
    pub snapshots: u64,
}

impl BlockLatencyEstimator {
    /// Folds one LBR snapshot (oldest-first records) into the estimator.
    pub(crate) fn add_snapshot(&mut self, records: &[BranchRecord]) {
        self.snapshots += 1;
        for r in records {
            *self.edges.entry((r.from, r.to)).or_insert(0) += 1;
        }
        for run in straight_runs(records) {
            let t = self.runs.entry((run.start, run.end)).or_default();
            t.count += 1;
            t.total_cycles += run.cycles;
        }
    }

    /// Serializes into a [`Json`] value (see [`Profile::to_json`]).
    ///
    /// [`Profile::to_json`]: crate::Profile::to_json
    pub(crate) fn to_json_value(&self) -> Json {
        let mut runs: Vec<((usize, usize), RunTiming)> =
            self.runs.iter().map(|(&k, &t)| (k, t)).collect();
        runs.sort_unstable_by_key(|(k, _)| *k);
        let mut edges: Vec<((usize, usize), u64)> =
            self.edges.iter().map(|(&k, &n)| (k, n)).collect();
        edges.sort_unstable();
        Json::Object(vec![
            (
                "runs".into(),
                Json::Array(
                    runs.into_iter()
                        .map(|((start, end), t)| {
                            Json::Array(vec![
                                Json::UInt(start as u64),
                                Json::UInt(end as u64),
                                Json::UInt(t.count),
                                Json::UInt(t.total_cycles),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "edges".into(),
                Json::Array(
                    edges
                        .into_iter()
                        .map(|((from, to), n)| {
                            Json::Array(vec![
                                Json::UInt(from as u64),
                                Json::UInt(to as u64),
                                Json::UInt(n),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("snapshots".into(), Json::UInt(self.snapshots)),
        ])
    }

    /// Inverse of [`BlockLatencyEstimator::to_json_value`].
    pub(crate) fn from_json_value(v: &Json) -> Result<BlockLatencyEstimator, JsonError> {
        let mut runs = HashMap::new();
        for row in v.get("runs")?.as_array()? {
            let row = row.as_array()?;
            if row.len() != 4 {
                return Err(JsonError::shape("run row is not [start, end, count, cyc]"));
            }
            runs.insert(
                (row[0].as_usize()?, row[1].as_usize()?),
                RunTiming {
                    count: row[2].as_u64()?,
                    total_cycles: row[3].as_u64()?,
                },
            );
        }
        let mut edges = HashMap::new();
        for row in v.get("edges")?.as_array()? {
            let row = row.as_array()?;
            if row.len() != 3 {
                return Err(JsonError::shape("edge row is not [from, to, count]"));
            }
            edges.insert((row[0].as_usize()?, row[1].as_usize()?), row[2].as_u64()?);
        }
        Ok(BlockLatencyEstimator {
            runs,
            edges,
            snapshots: v.get("snapshots")?.as_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(from: usize, to: usize, cycle: u64) -> BranchRecord {
        BranchRecord { from, to, cycle }
    }

    #[test]
    fn snapshot_builds_runs_and_edges() {
        let mut e = BlockLatencyEstimator::default();
        e.add_snapshot(&[rec(5, 10, 100), rec(14, 2, 130), rec(8, 5, 160)]);
        let once = |total_cycles| RunTiming {
            count: 1,
            total_cycles,
        };
        assert_eq!(e.runs[&(10, 14)], once(30));
        assert_eq!(e.runs[&(2, 8)], once(30));
        assert_eq!(e.edges[&(5, 10)], 1);
        assert_eq!(e.edges[&(14, 2)], 1);
        assert_eq!(e.snapshots, 1);
    }

    #[test]
    fn latencies_average_over_observations() {
        let mut e = BlockLatencyEstimator::default();
        e.add_snapshot(&[rec(5, 10, 100), rec(14, 2, 120)]);
        e.add_snapshot(&[rec(5, 10, 500), rec(14, 2, 540)]);
        let t = e.runs[&(10, 14)];
        assert_eq!((t.count, t.total_cycles), (2, 60));
    }

    #[test]
    fn serde_round_trip() {
        let mut e = BlockLatencyEstimator::default();
        e.add_snapshot(&[rec(5, 10, 100), rec(14, 2, 130)]);
        let json = e.to_json_value().to_string();
        let back = BlockLatencyEstimator::from_json_value(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.runs, e.runs);
        assert_eq!(back.edges, e.edges);
        assert_eq!(back.snapshots, 1);
    }
}
