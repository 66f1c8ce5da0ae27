//! Execution contexts: the architectural state of one coroutine (or one
//! SMT hardware thread, or one OS thread — they differ only in who switches
//! them and at what cost).

use crate::cache::Level;
use crate::isa::NUM_REGS;

/// Run-time mode of a context under asymmetric concurrency (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Latency-sensitive: scavenger yields do not fire.
    Primary,
    /// Throughput filler: scavenger yields fire, returning the CPU
    /// promptly.
    Scavenger,
}

/// Lifecycle status of a context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// Can execute.
    Runnable,
    /// Finished (executed `halt`).
    Done,
    /// Aborted by an execution error.
    Faulted,
}

/// A load that stalled in switch-on-stall mode and completes on resume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PendingLoad {
    /// Destination register to write.
    pub dst: crate::isa::Reg,
    /// The loaded value.
    pub value: u64,
    /// Cycle at which the value becomes available.
    pub ready: u64,
}

/// Per-context statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Instructions retired by this context.
    pub instructions: u64,
    /// Yields this context took.
    pub yields_taken: u64,
    /// Cycle at which the context first ran.
    pub started_at: Option<u64>,
    /// Cycle at which the context halted.
    pub finished_at: Option<u64>,
}

impl ContextStats {
    /// Wall-clock latency in cycles, if the context has finished.
    pub fn latency(&self) -> Option<u64> {
        match (self.started_at, self.finished_at) {
            (Some(s), Some(f)) => Some(f.saturating_sub(s)),
            _ => None,
        }
    }
}

/// The architectural state of one context.
#[derive(Clone, Debug)]
pub struct Context {
    /// Stable identifier (assigned by the creator).
    pub id: usize,
    /// General-purpose registers.
    pub regs: [u64; NUM_REGS],
    /// Program counter (index into the program's instruction stream).
    pub pc: usize,
    /// Shadow call stack of return PCs.
    pub call_stack: Vec<usize>,
    /// Asymmetric-concurrency mode.
    pub mode: Mode,
    /// Lifecycle status.
    pub status: Status,
    /// Level at which the most recent software prefetch found its line —
    /// consulted by `Yield.IfAbsent` (§4.1 what-if).
    pub last_prefetch_level: Option<Level>,
    /// A stalled load awaiting completion (switch-on-stall execution only).
    pub(crate) pending_load: Option<PendingLoad>,
    /// Per-context statistics.
    pub stats: ContextStats,
}

/// Maximum shadow-stack depth; exceeding it faults the context (guards
/// against runaway recursion in generated programs).
pub(crate) const MAX_CALL_DEPTH: usize = 1024;

impl Context {
    /// Creates a fresh runnable context with zeroed registers, starting at
    /// `pc` 0, in [`Mode::Primary`].
    pub fn new(id: usize) -> Self {
        Context {
            id,
            regs: [0; NUM_REGS],
            pc: 0,
            call_stack: Vec::new(),
            mode: Mode::Primary,
            status: Status::Runnable,
            last_prefetch_level: None,
            pending_load: None,
            stats: ContextStats::default(),
        }
    }

    /// Creates a context in the given mode.
    pub fn with_mode(id: usize, mode: Mode) -> Self {
        let mut c = Self::new(id);
        c.mode = mode;
        c
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: crate::isa::Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: crate::isa::Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Returns `true` if this context can execute.
    #[inline]
    pub fn is_runnable(&self) -> bool {
        self.status == Status::Runnable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;

    #[test]
    fn new_context_is_zeroed_and_runnable() {
        let c = Context::new(3);
        assert_eq!(c.id, 3);
        assert_eq!(c.pc, 0);
        assert!(c.is_runnable());
        assert_eq!(c.mode, Mode::Primary);
        assert!(c.regs.iter().all(|&r| r == 0));
    }

    #[test]
    fn reg_accessors() {
        let mut c = Context::new(0);
        c.set_reg(Reg(5), 77);
        assert_eq!(c.reg(Reg(5)), 77);
        assert_eq!(c.reg(Reg(6)), 0);
    }

    #[test]
    fn with_mode_sets_mode() {
        let c = Context::with_mode(1, Mode::Scavenger);
        assert_eq!(c.mode, Mode::Scavenger);
    }

    #[test]
    fn latency_requires_both_endpoints() {
        let mut s = ContextStats::default();
        assert_eq!(s.latency(), None);
        s.started_at = Some(100);
        assert_eq!(s.latency(), None);
        s.finished_at = Some(350);
        assert_eq!(s.latency(), Some(250));
    }
}
