//! The supervisor's simulated durable store: a write-ahead journal plus
//! an atomic build-artifact store, with crash semantics the fault
//! harness can corrupt.
//!
//! The self-healing loop ([`crate::supervisor`]) is only as trustworthy
//! as its memory of what it deployed. This module gives it one: every
//! decision that must survive a restart — epoch advances, deploys (build
//! fingerprint + ladder rung), circuit-breaker transitions, shed /
//! probation budget — is appended as a checksummed [`JournalRecord`]
//! *before* the corresponding in-memory transition takes effect
//! (write-ahead ordering). Deployable binaries themselves go through the
//! content-addressed artifact store, which models an atomically-renamed
//! file: present in full or absent, never torn.
//!
//! The journal byte image, by contrast, fails the way real WALs fail,
//! driven by the [`FaultInjector`]'s journal channels:
//!
//! * **partial flush** — an append may stay in the volatile write buffer
//!   ([`Journal::append`] consults [`FaultInjector::partial_flush`]);
//!   a later flushed append or a clean [`Journal::flush`] lands it, a
//!   [`Journal::crash`] loses it.
//! * **torn write** — at crash time the *tail* record of the durable
//!   image may be cut mid-record ([`FaultInjector::torn_cut`]), the
//!   classic lying-`fsync`. A crash that lands mid-append
//!   ([`Journal::crash_during_append`]) always leaves at most a torn
//!   prefix of the record being written.
//!
//! Recovery reads the image back with [`Journal::replay`]: records are
//! length-prefixed and FNV-1a-checksummed, so a torn tail is *detected*
//! (checksum or framing failure) and everything before it is trusted;
//! [`Journal::repair`] then truncates the image back to the last valid
//! record boundary, exactly like WAL repair on restart. [`project`]
//! folds a replayed record sequence into the [`JournalState`] the
//! supervisor resumes from — and, at a clean shutdown, the same fold is
//! the oracle the chaos engine compares against live state.

use crate::degrade::Rung;
use crate::supervisor::{BreakerState, DeployedBuild};
use reach_sim::FaultInjector;

/// One durable supervisor decision, in write-ahead order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// The supervisor is about to serve `epoch`; `next_job` is the next
    /// global job number to admit.
    EpochAdvance {
        /// Epoch about to be served.
        epoch: u64,
        /// Next global job number at that instant.
        next_job: u64,
    },
    /// A build is about to start serving traffic.
    Deploy {
        /// Epoch of the deployment decision.
        epoch: u64,
        /// Ladder rung of the deployed build.
        rung: Rung,
        /// [`reach_sim::Program::fingerprint`] of the deployed binary —
        /// the key into the artifact store.
        fingerprint: u64,
    },
    /// The circuit breaker changed state.
    Breaker {
        /// Epoch of the transition.
        epoch: u64,
        /// New breaker state.
        state: BreakerState,
        /// Consecutive rebuild failures at that instant.
        failures: u32,
    },
    /// The scavenger budget changed (shed or probation restore).
    ScavBudget {
        /// Epoch of the change.
        epoch: u64,
        /// New pool budget.
        budget: u64,
        /// Clean-probation streak at that instant.
        clean_streak: u64,
    },
}

const TAG_EPOCH: u8 = 1;
const TAG_DEPLOY: u8 = 2;
const TAG_BREAKER: u8 = 3;
const TAG_SCAV: u8 = 4;

fn rung_code(r: Rung) -> u64 {
    match r {
        Rung::FullPgo => 0,
        Rung::ScavengerOnly => 1,
        Rung::Uninstrumented => 2,
    }
}

fn rung_decode(c: u64) -> Option<Rung> {
    match c {
        0 => Some(Rung::FullPgo),
        1 => Some(Rung::ScavengerOnly),
        2 => Some(Rung::Uninstrumented),
        _ => None,
    }
}

fn breaker_code(b: BreakerState) -> (u64, u64) {
    match b {
        BreakerState::Closed => (0, 0),
        BreakerState::Backoff { until_epoch } => (1, until_epoch),
        BreakerState::Open => (2, 0),
    }
}

fn breaker_decode(code: u64, until: u64) -> Option<BreakerState> {
    match code {
        0 => Some(BreakerState::Closed),
        1 => Some(BreakerState::Backoff { until_epoch: until }),
        2 => Some(BreakerState::Open),
        _ => None,
    }
}

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl JournalRecord {
    /// Wire form: `len:u16 | tag:u8 | fields:u64×n | fnv1a(tag..fields):u64`,
    /// all little-endian. `len` covers `tag..fields`.
    fn encode(&self) -> Vec<u8> {
        let (tag, fields): (u8, Vec<u64>) = match *self {
            JournalRecord::EpochAdvance { epoch, next_job } => (TAG_EPOCH, vec![epoch, next_job]),
            JournalRecord::Deploy {
                epoch,
                rung,
                fingerprint,
            } => (TAG_DEPLOY, vec![epoch, rung_code(rung), fingerprint]),
            JournalRecord::Breaker {
                epoch,
                state,
                failures,
            } => {
                let (code, until) = breaker_code(state);
                (TAG_BREAKER, vec![epoch, code, until, u64::from(failures)])
            }
            JournalRecord::ScavBudget {
                epoch,
                budget,
                clean_streak,
            } => (TAG_SCAV, vec![epoch, budget, clean_streak]),
        };
        let mut body = vec![tag];
        for f in &fields {
            body.extend_from_slice(&f.to_le_bytes());
        }
        let mut out = Vec::with_capacity(2 + body.len() + 8);
        out.extend_from_slice(&(body.len() as u16).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out
    }

    /// Decodes one checksum-verified body (`tag..fields`).
    fn decode(body: &[u8]) -> Option<JournalRecord> {
        let (&tag, mut rest) = body.split_first()?;
        if rest.len() % 8 != 0 {
            return None;
        }
        let mut fields = Vec::with_capacity(rest.len() / 8);
        while !rest.is_empty() {
            let (word, tail) = rest.split_at(8);
            fields.push(u64::from_le_bytes(word.try_into().ok()?));
            rest = tail;
        }
        match (tag, fields.as_slice()) {
            (TAG_EPOCH, &[epoch, next_job]) => {
                Some(JournalRecord::EpochAdvance { epoch, next_job })
            }
            (TAG_DEPLOY, &[epoch, rung, fingerprint]) => Some(JournalRecord::Deploy {
                epoch,
                rung: rung_decode(rung)?,
                fingerprint,
            }),
            (TAG_BREAKER, &[epoch, code, until, failures]) => Some(JournalRecord::Breaker {
                epoch,
                state: breaker_decode(code, until)?,
                failures: u32::try_from(failures).ok()?,
            }),
            (TAG_SCAV, &[epoch, budget, clean_streak]) => Some(JournalRecord::ScavBudget {
                epoch,
                budget,
                clean_streak,
            }),
            _ => None,
        }
    }
}

/// A deployable binary in the artifact store: the supervisor's own
/// [`DeployedBuild`], stored as it is served.
pub type StoredBuild = DeployedBuild;

/// Counters for what the store did and lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended (durable or buffered).
    pub appends: u64,
    /// Appends held back in the volatile buffer by the partial-flush
    /// fault channel.
    pub deferred_flushes: u64,
    /// Buffered records dropped by crashes.
    pub records_lost_at_crash: u64,
    /// Crashes that tore the durable tail record.
    pub torn_at_crash: u64,
    /// Bytes cut off by [`Journal::repair`].
    pub repair_truncated_bytes: u64,
}

/// What [`Journal::replay`] read back.
#[derive(Clone, Debug)]
pub struct Replay {
    /// Every valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix of the durable image.
    pub valid_bytes: usize,
    /// True when trailing garbage (a torn record) follows the valid
    /// prefix.
    pub torn_tail: bool,
}

/// The supervisor state a replayed journal projects to — what recovery
/// resumes from, and what the chaos oracles compare against live state
/// at a clean shutdown.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalState {
    /// Last journaled epoch advance, if any.
    pub epoch: Option<u64>,
    /// Next global job number as of that advance.
    pub next_job: u64,
    /// Last journaled deployment: `(fingerprint, rung, epoch)`.
    pub deploy: Option<(u64, Rung, u64)>,
    /// Breaker state as of the last journaled transition.
    pub breaker: BreakerState,
    /// Consecutive rebuild failures at that transition.
    pub failures: u32,
    /// Scavenger budget as of the last journaled change (`None` = never
    /// changed from the configured pool size).
    pub scav_budget: Option<u64>,
    /// Clean-probation streak at that change.
    pub clean_streak: u64,
}

/// Folds a replayed record sequence into the state it describes.
pub fn project(records: &[JournalRecord]) -> JournalState {
    let mut st = JournalState {
        epoch: None,
        next_job: 0,
        deploy: None,
        breaker: BreakerState::Closed,
        failures: 0,
        scav_budget: None,
        clean_streak: 0,
    };
    for r in records {
        match *r {
            JournalRecord::EpochAdvance { epoch, next_job } => {
                st.epoch = Some(epoch);
                st.next_job = next_job;
            }
            JournalRecord::Deploy {
                epoch,
                rung,
                fingerprint,
            } => st.deploy = Some((fingerprint, rung, epoch)),
            JournalRecord::Breaker {
                state, failures, ..
            } => {
                st.breaker = state;
                st.failures = failures;
            }
            JournalRecord::ScavBudget {
                budget,
                clean_streak,
                ..
            } => {
                st.scav_budget = Some(budget);
                st.clean_streak = clean_streak;
            }
        }
    }
    st
}

/// The simulated durable store: journal byte image + write buffer +
/// artifact store. Survives [`crate::supervisor`] restarts by living
/// outside them (the chaos engine owns it across crash segments).
#[derive(Clone, Debug, Default)]
pub struct Journal {
    durable: Vec<u8>,
    /// Byte offset where the last durably-written record starts — the
    /// only record a torn write can damage.
    last_start: usize,
    buffered: Vec<Vec<u8>>,
    builds: Vec<(u64, StoredBuild)>,
    /// Counters for appends, deferrals, and crash losses.
    pub stats: JournalStats,
}

impl Journal {
    /// An empty store.
    pub fn new() -> Self {
        Journal::default()
    }

    /// True when nothing has ever been durably written.
    pub fn is_empty(&self) -> bool {
        self.durable.is_empty() && self.buffered.is_empty()
    }

    /// Byte length of the durable journal image.
    pub fn durable_len(&self) -> usize {
        self.durable.len()
    }

    /// Appends one record. Without faults the append is write-through;
    /// the partial-flush channel may instead hold it (and nothing after
    /// it) in the volatile buffer until the next flushed append, a clean
    /// [`Journal::flush`], or a crash.
    pub fn append(&mut self, rec: &JournalRecord, faults: Option<&mut FaultInjector>) {
        self.stats.appends += 1;
        let bytes = rec.encode();
        if faults.is_some_and(|f| f.partial_flush()) {
            self.stats.deferred_flushes += 1;
            self.buffered.push(bytes);
            return;
        }
        self.buffered.push(bytes);
        self.flush();
    }

    /// Flushes the volatile buffer to the durable image (clean-shutdown
    /// and write-through path).
    pub fn flush(&mut self) {
        for rec in self.buffered.drain(..) {
            self.last_start = self.durable.len();
            self.durable.extend_from_slice(&rec);
        }
    }

    /// A crash between appends: buffered records are lost, and the
    /// torn-write channel may cut the durable tail record mid-bytes.
    pub fn crash(&mut self, faults: Option<&mut FaultInjector>) {
        self.stats.records_lost_at_crash += self.buffered.len() as u64;
        self.buffered.clear();
        let tail = self.durable.len() - self.last_start;
        if let Some(cut) = faults.and_then(|f| f.torn_cut(tail)) {
            self.durable.truncate(self.last_start + cut);
            self.stats.torn_at_crash += 1;
        }
    }

    /// A crash landing *inside* the append of `rec`: buffered records
    /// are lost and at most a torn prefix of `rec` reaches the durable
    /// image (nothing at all when the torn-write channel stays quiet).
    pub fn crash_during_append(&mut self, rec: &JournalRecord, faults: Option<&mut FaultInjector>) {
        self.stats.appends += 1;
        self.stats.records_lost_at_crash += 1 + self.buffered.len() as u64;
        self.buffered.clear();
        let bytes = rec.encode();
        if let Some(mut cut) = faults.and_then(|f| f.torn_cut(bytes.len())) {
            // A full-length "tear" would be a completed write; clamp to
            // a strict prefix.
            cut = cut.min(bytes.len() - 1);
            self.durable.extend_from_slice(&bytes[..cut]);
            self.stats.torn_at_crash += 1;
        }
    }

    /// Reads the durable image back, stopping at the first framing or
    /// checksum failure. Does not modify the image.
    pub fn replay(&self) -> Replay {
        let mut records = Vec::new();
        let mut off = 0usize;
        while let Some(len_bytes) = self.durable.get(off..off + 2) {
            let len = u16::from_le_bytes(len_bytes.try_into().unwrap()) as usize;
            if len == 0 {
                break;
            }
            let Some(body) = self.durable.get(off + 2..off + 2 + len) else {
                break;
            };
            let Some(sum) = self.durable.get(off + 2 + len..off + 2 + len + 8) else {
                break;
            };
            if u64::from_le_bytes(sum.try_into().unwrap()) != fnv1a(body) {
                break;
            }
            let Some(rec) = JournalRecord::decode(body) else {
                break;
            };
            records.push(rec);
            off += 2 + len + 8;
        }
        Replay {
            records,
            valid_bytes: off,
            torn_tail: off < self.durable.len(),
        }
    }

    /// WAL repair on restart: truncates the durable image to its valid
    /// prefix, discards the volatile buffer, and returns the replay.
    pub fn repair(&mut self) -> Replay {
        let rep = self.replay();
        self.stats.repair_truncated_bytes += (self.durable.len() - rep.valid_bytes) as u64;
        self.durable.truncate(rep.valid_bytes);
        // Re-derive the last record start so a later crash tears at a
        // record boundary, not at the repair point.
        let mut off = 0usize;
        self.last_start = 0;
        for r in &rep.records {
            self.last_start = off;
            off += r.encode().len();
        }
        self.buffered.clear();
        rep
    }

    /// Stores a build artifact under its fingerprint — atomic
    /// (rename-into-place): never torn, replaces any previous artifact
    /// with the same fingerprint.
    pub fn store_build(&mut self, fingerprint: u64, build: StoredBuild) {
        if let Some(slot) = self.builds.iter_mut().find(|(fp, _)| *fp == fingerprint) {
            slot.1 = build;
        } else {
            self.builds.push((fingerprint, build));
        }
    }

    /// Looks an artifact up by fingerprint.
    pub fn get_build(&self, fingerprint: u64) -> Option<&StoredBuild> {
        self.builds
            .iter()
            .find(|(fp, _)| *fp == fingerprint)
            .map(|(_, b)| b)
    }

    /// Test hook: bit-rots a stored artifact in place (the chaos
    /// engine's broken-recovery scenarios corrupt the artifact the
    /// journal points at, then check the recovery gates catch it).
    pub fn mutate_build(&mut self, fingerprint: u64, f: impl FnOnce(&mut StoredBuild)) -> bool {
        if let Some(slot) = self.builds.iter_mut().find(|(fp, _)| *fp == fingerprint) {
            f(&mut slot.1);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach_sim::{FaultPlan, Program};

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Deploy {
                epoch: 0,
                rung: Rung::FullPgo,
                fingerprint: 0xDEAD_BEEF,
            },
            JournalRecord::EpochAdvance {
                epoch: 0,
                next_job: 0,
            },
            JournalRecord::Breaker {
                epoch: 3,
                state: BreakerState::Backoff { until_epoch: 7 },
                failures: 2,
            },
            JournalRecord::ScavBudget {
                epoch: 4,
                budget: 1,
                clean_streak: 0,
            },
            JournalRecord::EpochAdvance {
                epoch: 5,
                next_job: 6,
            },
        ]
    }

    #[test]
    fn append_replay_roundtrips_every_record_kind() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r, None);
        }
        let rep = j.replay();
        assert!(!rep.torn_tail);
        assert_eq!(rep.valid_bytes, j.durable_len());
        assert_eq!(rep.records, sample_records());
        let st = project(&rep.records);
        assert_eq!(st.epoch, Some(5));
        assert_eq!(st.next_job, 6);
        assert_eq!(st.deploy, Some((0xDEAD_BEEF, Rung::FullPgo, 0)));
        assert_eq!(st.breaker, BreakerState::Backoff { until_epoch: 7 });
        assert_eq!(st.failures, 2);
        assert_eq!(st.scav_budget, Some(1));
    }

    #[test]
    fn torn_tail_is_detected_and_repaired_to_last_valid_record() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r, None);
        }
        let mut fi = FaultInjector::new(FaultPlan::none(3).with_torn_write(1.0));
        j.crash(Some(&mut fi));
        assert_eq!(j.stats.torn_at_crash, 1);
        let rep = j.replay();
        assert!(rep.torn_tail);
        assert_eq!(rep.records, sample_records()[..4].to_vec());
        let repaired = j.repair();
        assert_eq!(repaired.records.len(), 4);
        assert_eq!(j.durable_len(), repaired.valid_bytes);
        assert!(!j.replay().torn_tail, "repair leaves a clean image");
        // The store keeps working after repair.
        j.append(
            &JournalRecord::EpochAdvance {
                epoch: 9,
                next_job: 9,
            },
            None,
        );
        assert_eq!(j.replay().records.len(), 5);
    }

    #[test]
    fn buffered_appends_are_lost_at_crash_but_flushed_cleanly() {
        let plan = FaultPlan::none(5).with_partial_flush(1.0);
        // Crash path: everything beyond the write-through prefix is gone.
        let mut j = Journal::new();
        j.append(&sample_records()[0], None);
        let mut fi = FaultInjector::new(plan);
        j.append(&sample_records()[1], Some(&mut fi));
        j.append(&sample_records()[2], Some(&mut fi));
        assert_eq!(j.stats.deferred_flushes, 2);
        j.crash(Some(&mut fi));
        assert_eq!(j.stats.records_lost_at_crash, 2);
        assert_eq!(j.replay().records, sample_records()[..1].to_vec());
        // Clean path: flush() lands the same appends.
        let mut j = Journal::new();
        let mut fi = FaultInjector::new(plan);
        j.append(&sample_records()[0], Some(&mut fi));
        j.append(&sample_records()[1], Some(&mut fi));
        j.flush();
        assert_eq!(j.replay().records, sample_records()[..2].to_vec());
    }

    #[test]
    fn a_later_write_through_append_flushes_the_buffer_in_order() {
        let mut j = Journal::new();
        let mut fi = FaultInjector::new(FaultPlan::none(5).with_partial_flush(1.0));
        j.append(&sample_records()[0], Some(&mut fi));
        j.append(&sample_records()[1], None); // write-through
        assert_eq!(j.replay().records, sample_records()[..2].to_vec());
    }

    #[test]
    fn crash_during_append_leaves_at_most_a_torn_prefix() {
        // Quiet torn channel: the record is simply absent.
        let mut j = Journal::new();
        j.append(&sample_records()[0], None);
        let before = j.durable_len();
        let mut fi = FaultInjector::new(FaultPlan::none(1));
        j.crash_during_append(&sample_records()[1], Some(&mut fi));
        assert_eq!(j.durable_len(), before);
        // Armed torn channel: a strict prefix lands and replay rejects it.
        let mut fi = FaultInjector::new(FaultPlan::none(1).with_torn_write(1.0));
        j.crash_during_append(&sample_records()[2], Some(&mut fi));
        assert!(j.durable_len() > before);
        let rep = j.replay();
        assert!(rep.torn_tail);
        assert_eq!(rep.records, sample_records()[..1].to_vec());
    }

    #[test]
    fn corrupted_checksum_stops_replay() {
        let mut j = Journal::new();
        for r in sample_records() {
            j.append(&r, None);
        }
        let last = j.durable.len() - 1;
        j.durable[last] ^= 0xFF;
        let rep = j.replay();
        assert!(rep.torn_tail);
        assert_eq!(rep.records.len(), sample_records().len() - 1);
    }

    #[test]
    fn artifact_store_is_atomic_and_content_addressed() {
        let mut j = Journal::new();
        let prog = Program {
            name: "p".into(),
            insts: Vec::new(),
        };
        j.store_build(
            7,
            StoredBuild {
                prog: prog.clone(),
                origin: vec![Some(0)],
                rung: Rung::FullPgo,
                profile: None,
            },
        );
        assert!(j.get_build(7).is_some());
        assert!(j.get_build(8).is_none());
        assert!(j.mutate_build(7, |b| b.rung = Rung::ScavengerOnly));
        assert_eq!(j.get_build(7).unwrap().rung, Rung::ScavengerOnly);
        // Same fingerprint replaces in place.
        j.store_build(
            7,
            StoredBuild {
                prog,
                origin: vec![Some(0)],
                rung: Rung::Uninstrumented,
                profile: None,
            },
        );
        assert_eq!(j.get_build(7).unwrap().rung, Rung::Uninstrumented);
        assert_eq!(j.builds.len(), 1);
    }
}
