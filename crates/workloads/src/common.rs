//! Shared workload infrastructure: the built-workload contract, the
//! address-space allocator, and register conventions.

use reach_sim::{Context, Machine, Program, Reg, PAGE_BYTES};

/// Register that holds a workload's final checksum at `halt`.
///
/// Every workload accumulates a data-dependent checksum into this register
/// so that instrumented, interleaved, and baseline executions can all be
/// checked for semantic equivalence against the generator's prediction.
pub const CHECKSUM_REG: Reg = Reg(7);

/// Initial register assignments plus the predicted checksum for one
/// instance (one coroutine / SMT thread / OS thread) of a workload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InstanceSetup {
    /// Registers to seed before the instance starts.
    pub regs: Vec<(Reg, u64)>,
    /// Value [`CHECKSUM_REG`] must contain when the instance halts.
    pub expected_checksum: u64,
}

impl InstanceSetup {
    /// Creates a context with these registers, in the given id.
    pub fn make_context(&self, id: usize) -> Context {
        let mut ctx = Context::new(id);
        for &(r, v) in &self.regs {
            ctx.set_reg(r, v);
        }
        ctx
    }

    /// Asserts the context halted with the predicted checksum.
    ///
    /// # Panics
    ///
    /// Panics if the checksum does not match — i.e. an executor or
    /// instrumentation pass corrupted program semantics.
    pub fn assert_checksum(&self, ctx: &Context) {
        assert_eq!(
            ctx.reg(CHECKSUM_REG),
            self.expected_checksum,
            "instance {} checksum mismatch",
            ctx.id
        );
    }

    /// Returns `true` if the context's checksum matches the prediction.
    pub fn checksum_ok(&self, ctx: &Context) -> bool {
        ctx.reg(CHECKSUM_REG) == self.expected_checksum
    }
}

/// A generated workload: one program image shared by all instances (as
/// threads of a process share their binary), with per-instance register
/// seeds pointing at disjoint data.
#[derive(Clone, Debug)]
pub struct BuiltWorkload {
    /// The (uninstrumented) program.
    pub prog: Program,
    /// Per-instance setups.
    pub instances: Vec<InstanceSetup>,
}

impl BuiltWorkload {
    /// Creates contexts for all instances, ids `0..n`.
    pub fn make_contexts(&self) -> Vec<Context> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, s)| s.make_context(i))
            .collect()
    }

    /// Runs instance `idx` to completion on `machine` (yields are no-ops)
    /// and verifies the checksum; returns the finished context.
    ///
    /// Primarily a test/debug helper.
    ///
    /// # Panics
    ///
    /// Panics on execution errors, step-limit exhaustion, or a checksum
    /// mismatch.
    pub fn run_solo(&self, machine: &mut Machine, idx: usize, max_steps: u64) -> Context {
        let setup = &self.instances[idx];
        let mut ctx = setup.make_context(idx);
        let exit = machine
            .run_to_completion(&self.prog, &mut ctx, max_steps)
            .expect("workload execution failed");
        assert_eq!(exit, reach_sim::Exit::Done, "workload did not finish");
        setup.assert_checksum(&ctx);
        ctx
    }
}

/// A bump allocator over the simulated address space, page-granular, used
/// by generators to lay out disjoint regions.
#[derive(Clone, Debug)]
pub struct AddrAlloc {
    next: u64,
}

impl AddrAlloc {
    /// Starts allocating at `base` (rounded up to a page boundary).
    pub fn new(base: u64) -> Self {
        AddrAlloc {
            next: base.next_multiple_of(PAGE_BYTES),
        }
    }

    /// Allocates `bytes`, returned page-aligned.
    pub(crate) fn alloc(&mut self, bytes: u64) -> u64 {
        let at = self.next;
        self.next += bytes.next_multiple_of(PAGE_BYTES);
        at
    }

    /// Allocates `bytes` and additionally skips a guard page, spreading
    /// regions across cache sets.
    pub(crate) fn alloc_spread(&mut self, bytes: u64) -> u64 {
        let at = self.alloc(bytes);
        self.next += PAGE_BYTES;
        at
    }

    /// The next address that would be returned.
    pub fn watermark(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_page_aligned_and_disjoint() {
        let mut a = AddrAlloc::new(100);
        let r1 = a.alloc(10);
        let r2 = a.alloc(5000);
        let r3 = a.alloc(1);
        assert_eq!(r1 % PAGE_BYTES, 0);
        assert_eq!(r2 % PAGE_BYTES, 0);
        assert!(r2 >= r1 + 10);
        assert!(r3 >= r2 + 5000);
    }

    #[test]
    fn alloc_spread_leaves_gap() {
        let mut a = AddrAlloc::new(0);
        let r1 = a.alloc_spread(8);
        let r2 = a.alloc(8);
        assert!(r2 - r1 >= 2 * PAGE_BYTES);
    }

    #[test]
    fn instance_setup_seeds_context() {
        let s = InstanceSetup {
            regs: vec![(Reg(0), 11), (Reg(3), 12)],
            expected_checksum: 0,
        };
        let c = s.make_context(5);
        assert_eq!(c.id, 5);
        assert_eq!(c.reg(Reg(0)), 11);
        assert_eq!(c.reg(Reg(3)), 12);
        assert!(s.checksum_ok(&c), "zero checksum matches fresh context");
    }
}
