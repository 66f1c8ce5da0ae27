//! LBR-style last-branch records.
//!
//! Models Intel's Last Branch Record facility: a small hardware ring buffer
//! holding the most recent taken control transfers, each with source PC,
//! destination PC and a cycle timestamp. From two consecutive records one
//! recovers the straight-line run between them (`to[i] .. from[i+1]`) and
//! its duration — which is precisely how the scavenger instrumentation
//! phase (§3.3) learns basic-block latencies and common paths "like Intel's
//! LBR can extract" [34, 35].

/// Capacity of the hardware ring (Intel LBR depth on modern cores).
pub(crate) const LBR_DEPTH: usize = 32;

/// One taken-branch record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchRecord {
    /// PC of the taken branch.
    pub from: usize,
    /// Destination PC.
    pub to: usize,
    /// Cycle at which the branch retired.
    pub cycle: u64,
}

/// A straight-line run recovered from two consecutive LBR records: the
/// instructions from `start` up to and including the branch at `end`, which
/// took `cycles` to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StraightRun {
    /// First PC of the run (destination of the previous taken branch).
    pub start: usize,
    /// PC of the taken branch terminating the run.
    pub end: usize,
    /// Observed duration in cycles.
    pub cycles: u64,
}

/// The LBR ring buffer.
#[derive(Clone, Debug)]
pub struct Lbr {
    ring: [Option<BranchRecord>; LBR_DEPTH],
    head: usize,
    len: usize,
    /// Total records ever written (for tests and rate reporting).
    pub recorded: u64,
}

impl Default for Lbr {
    fn default() -> Self {
        Self::new()
    }
}

impl Lbr {
    /// Creates an empty ring.
    pub(crate) fn new() -> Self {
        Lbr {
            ring: [None; LBR_DEPTH],
            head: 0,
            len: 0,
            recorded: 0,
        }
    }

    /// Records a taken branch.
    #[inline]
    pub(crate) fn record(&mut self, from: usize, to: usize, cycle: u64) {
        self.ring[self.head] = Some(BranchRecord { from, to, cycle });
        self.head = (self.head + 1) % LBR_DEPTH;
        self.len = (self.len + 1).min(LBR_DEPTH);
        self.recorded += 1;
    }

    /// Returns the buffered records, oldest first.
    pub fn snapshot(&self) -> Vec<BranchRecord> {
        let mut out = Vec::with_capacity(self.len);
        // Oldest entry is at `head` when full, else at 0.
        let start = if self.len == LBR_DEPTH { self.head } else { 0 };
        for i in 0..self.len {
            if let Some(r) = self.ring[(start + i) % LBR_DEPTH] {
                out.push(r);
            }
        }
        out
    }

    /// Clears the ring.
    pub fn clear(&mut self) {
        self.ring = [None; LBR_DEPTH];
        self.head = 0;
        self.len = 0;
    }
}

/// Recovers straight-line runs from a snapshot (oldest-first records).
///
/// Record *i* landed at `to[i]`; the next taken branch was at `from[i+1]`
/// after `cycle[i+1] - cycle[i]` cycles. Runs with non-monotonic timestamps
/// (which cannot occur from a single context, but can when snapshots are
/// concatenated) are skipped.
pub fn straight_runs(records: &[BranchRecord]) -> Vec<StraightRun> {
    let mut out = Vec::new();
    for w in records.windows(2) {
        let (a, b) = (w[0], w[1]);
        if b.cycle > a.cycle {
            out.push(StraightRun {
                start: a.to,
                end: b.from,
                cycles: b.cycle - a.cycle,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring() {
        let l = Lbr::new();
        assert_eq!(l.len, 0);
        assert!(l.snapshot().is_empty());
    }

    #[test]
    fn snapshot_orders_oldest_first() {
        let mut l = Lbr::new();
        l.record(10, 20, 100);
        l.record(30, 40, 200);
        let s = l.snapshot();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].from, 10);
        assert_eq!(s[1].from, 30);
    }

    #[test]
    fn ring_keeps_only_most_recent_depth_records() {
        let mut l = Lbr::new();
        for i in 0..(LBR_DEPTH as u64 + 10) {
            l.record(i as usize, i as usize + 1, i);
        }
        let s = l.snapshot();
        assert_eq!(s.len(), LBR_DEPTH);
        assert_eq!(s[0].cycle, 10, "oldest surviving record");
        assert_eq!(s[LBR_DEPTH - 1].cycle, LBR_DEPTH as u64 + 9);
        assert_eq!(l.recorded, LBR_DEPTH as u64 + 10);
    }

    #[test]
    fn straight_runs_recover_block_latency() {
        let mut l = Lbr::new();
        // Branch at 5 lands at 10 (cycle 100); branch at 14 lands at 2
        // (cycle 130): the run 10..=14 took 30 cycles.
        l.record(5, 10, 100);
        l.record(14, 2, 130);
        let runs = straight_runs(&l.snapshot());
        assert_eq!(
            runs,
            vec![StraightRun {
                start: 10,
                end: 14,
                cycles: 30
            }]
        );
    }

    #[test]
    fn straight_runs_skip_non_monotonic_timestamps() {
        let records = vec![
            BranchRecord {
                from: 1,
                to: 2,
                cycle: 100,
            },
            BranchRecord {
                from: 3,
                to: 4,
                cycle: 50,
            },
        ];
        assert!(straight_runs(&records).is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut l = Lbr::new();
        l.record(1, 2, 3);
        l.clear();
        assert!(l.snapshot().is_empty());
        assert_eq!(l.recorded, 1, "lifetime count survives clear");
    }
}
