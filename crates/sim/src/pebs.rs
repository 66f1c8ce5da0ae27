//! PEBS-style precise event-based sampling.
//!
//! Models Intel PEBS: a hardware counter counts occurrences of a configured
//! event; every `period`-th occurrence, the PMU writes a sample record
//! (event, PC, data address, timestamp) into an in-memory buffer. Taking a
//! sample costs CPU cycles (microcode assist / PMI); a full buffer drops
//! samples until drained.
//!
//! Two fidelity knobs drive experiment T11:
//!
//! * `period` — lower periods converge faster but cost more cycles.
//! * `skid` — a non-precise counter attributes the sample some instructions
//!   *after* the triggering one; PEBS is (mostly) precise, so 0 is the
//!   default, but the knob lets us quantify what imprecision costs the
//!   downstream instrumentation.

/// Hardware events the sampler can be programmed to count.
///
/// These mirror the two event classes §3.2 proposes sampling — loads that
/// miss L2/L3, and stalled cycles — plus retired instructions for
/// completeness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HwEvent {
    /// A retired load serviced beyond L2 (by L3 or memory).
    LoadL2Miss,
    /// A retired load serviced by memory (missed L3).
    LoadL3Miss,
    /// One stalled cycle (the counter advances once per stall cycle).
    StallCycle,
    /// One retired instruction.
    InstRetired,
}

/// Configuration of one sampling counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PebsConfig {
    /// Which event to count.
    pub event: HwEvent,
    /// Sample every `period`-th occurrence. Must be ≥ 1.
    pub period: u64,
    /// Number of instructions of skid applied to the recorded PC
    /// (0 = precise).
    pub skid: u32,
    /// Sample-buffer capacity; when full, further samples are dropped (and
    /// counted) until [`PebsSampler::drain`] is called.
    pub buffer_capacity: usize,
}

impl Default for PebsConfig {
    fn default() -> Self {
        PebsConfig {
            event: HwEvent::LoadL2Miss,
            period: 127,
            skid: 0,
            buffer_capacity: 4096,
        }
    }
}

/// One sample record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// The sampled event.
    pub event: HwEvent,
    /// PC attributed to the event (including skid).
    pub pc: usize,
    /// Data address, for memory events.
    pub addr: Option<u64>,
    /// Cycle at which the sample was taken.
    pub cycle: u64,
}

/// A single programmed sampling counter with its buffer.
#[derive(Clone, Debug)]
pub struct PebsSampler {
    /// The counter's configuration.
    pub cfg: PebsConfig,
    /// Occurrences seen since the last emitted sample.
    count: u64,
    buffer: Vec<Sample>,
    /// Samples dropped due to a full buffer.
    pub dropped: u64,
    /// Total samples emitted (including dropped).
    pub emitted: u64,
    /// Total event occurrences observed.
    pub occurrences: u64,
}

impl PebsSampler {
    /// Creates a sampler for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0` (a configuration bug).
    pub fn new(cfg: PebsConfig) -> Self {
        assert!(cfg.period >= 1, "sampling period must be >= 1");
        PebsSampler {
            cfg,
            count: 0,
            buffer: Vec::new(),
            dropped: 0,
            emitted: 0,
            occurrences: 0,
        }
    }

    /// Observes `n` occurrences of this sampler's event at (`pc`, `addr`,
    /// `cycle`). Returns the number of samples taken (each costs the
    /// machine [`MachineConfig::pebs_sample_cost`] cycles).
    ///
    /// Multiple occurrences at once model e.g. a multi-cycle stall: all
    /// the stalled cycles share one attribution point.
    ///
    /// [`MachineConfig::pebs_sample_cost`]:
    /// crate::MachineConfig::pebs_sample_cost
    pub fn observe(&mut self, pc: usize, addr: Option<u64>, cycle: u64, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.occurrences += n;
        self.count += n;
        let mut taken = 0;
        while self.count >= self.cfg.period {
            self.count -= self.cfg.period;
            taken += 1;
            self.emitted += 1;
            let sample = Sample {
                event: self.cfg.event,
                pc: pc + self.cfg.skid as usize,
                addr,
                cycle,
            };
            if self.buffer.len() < self.cfg.buffer_capacity {
                self.buffer.push(sample);
            } else {
                self.dropped += 1;
            }
        }
        taken
    }

    /// Occurrences this counter can still absorb before the one that
    /// emits a sample.
    #[inline]
    pub(crate) fn headroom(&self) -> u64 {
        self.cfg.period - 1 - self.count
    }

    /// Counts `n` occurrences known not to reach the period: the block
    /// engine's batched form of `n` calls to [`PebsSampler::observe`].
    #[inline]
    pub(crate) fn credit(&mut self, n: u64) {
        debug_assert!(n <= self.headroom(), "a sample would have landed");
        self.occurrences += n;
        self.count += n;
    }

    /// Removes and returns all buffered samples (the OS "reading the PEBS
    /// buffer").
    pub fn drain(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.buffer)
    }

    /// Number of samples currently buffered.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The effective sampling rate observed so far (`emitted /
    /// occurrences`), for overhead reporting.
    pub fn effective_rate(&self) -> f64 {
        if self.occurrences == 0 {
            0.0
        } else {
            self.emitted as f64 / self.occurrences as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler(period: u64) -> PebsSampler {
        PebsSampler::new(PebsConfig {
            event: HwEvent::LoadL2Miss,
            period,
            skid: 0,
            buffer_capacity: 16,
        })
    }

    #[test]
    fn samples_every_period_th_occurrence() {
        let mut s = sampler(10);
        let mut taken = 0;
        for i in 0..100 {
            taken += s.observe(i, Some(i as u64 * 8), i as u64, 1);
        }
        assert_eq!(taken, 10);
        assert_eq!(s.emitted, 10);
        assert_eq!(s.occurrences, 100);
        assert!((s.effective_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn period_one_samples_everything() {
        let mut s = sampler(1);
        assert_eq!(s.observe(5, None, 0, 1), 1);
        assert_eq!(s.observe(5, None, 1, 1), 1);
        assert_eq!(s.buffered(), 2);
    }

    #[test]
    fn bulk_observation_emits_multiple_samples() {
        let mut s = sampler(10);
        // A 35-cycle stall observed at once crosses the period 3 times.
        assert_eq!(s.observe(7, None, 100, 35), 3);
        // Residual count is 5; 5 more cross it once more.
        assert_eq!(s.observe(7, None, 101, 5), 1);
    }

    #[test]
    fn buffer_overflow_drops_and_counts() {
        let mut s = sampler(1);
        for i in 0..20 {
            s.observe(i, None, i as u64, 1);
        }
        assert_eq!(s.buffered(), 16);
        assert_eq!(s.dropped, 4);
        assert_eq!(s.emitted, 20);
    }

    #[test]
    fn drain_empties_buffer_and_resumes() {
        let mut s = sampler(1);
        s.observe(1, None, 0, 1);
        s.observe(2, None, 1, 1);
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].pc, 1);
        assert_eq!(s.buffered(), 0);
        s.observe(3, None, 2, 1);
        assert_eq!(s.buffered(), 1);
    }

    #[test]
    fn skid_shifts_recorded_pc() {
        let mut s = PebsSampler::new(PebsConfig {
            event: HwEvent::StallCycle,
            period: 1,
            skid: 3,
            buffer_capacity: 4,
        });
        s.observe(10, None, 0, 1);
        assert_eq!(s.drain()[0].pc, 13);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_panics() {
        let _ = PebsSampler::new(PebsConfig {
            period: 0,
            ..PebsConfig::default()
        });
    }

    #[test]
    fn observe_zero_occurrences_is_noop() {
        let mut s = sampler(1);
        assert_eq!(s.observe(1, None, 0, 0), 0);
        assert_eq!(s.occurrences, 0);
        assert_eq!(s.effective_rate(), 0.0);
    }
}
