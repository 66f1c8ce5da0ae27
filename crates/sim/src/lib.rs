//! # reach-sim — deterministic micro-architectural substrate
//!
//! The simulation substrate for the `reach` reproduction of *"Out of Hand
//! for Hardware? Within Reach for Software!"* (HotOS 2023). It provides
//! everything the paper's mechanism observes and manipulates but which a
//! portable library cannot touch on real hardware:
//!
//! * a compact register-machine **micro-IR** ([`isa`]) standing in for the
//!   post-linked binary the paper instruments;
//! * an in-order core with an OoO-lite overlap window ([`machine`]),
//!   modelling "hardware hides sub-10 ns events";
//! * a three-level set-associative **cache hierarchy** with MSHR-tracked
//!   in-flight fills ([`cache`]) — the source of the 10–100 ns events;
//! * **PEBS-style precise sampling** ([`pebs`]) and **LBR-style branch
//!   records** ([`lbr`]) — the event-visibility mechanisms of §2;
//! * execution **contexts** ([`context`]) switched by external executors at
//!   coroutine/SMT/thread cost, and the switch-on-stall **SMT model**
//!   ([`smt`]);
//! * ground-truth **performance counters** ([`counters`]) against which
//!   sampled profiles are scored.
//!
//! Each [`Machine`] is single-threaded and deterministic: equal seeds
//! and configurations reproduce results bit-for-bit. The cores of a
//! [`MultiCore`] share nothing between two contention windows, so a
//! caller may step them on separate host threads (the serving fleet
//! does) and get the same bits.
//!
//! # Examples
//!
//! ```
//! use reach_sim::isa::{ProgramBuilder, Reg};
//! use reach_sim::{Context, Machine, MachineConfig};
//!
//! // A two-instruction program: load one cold cache line, halt.
//! let mut b = ProgramBuilder::new("demo");
//! b.imm(Reg(0), 0x1000);
//! b.load(Reg(1), Reg(0), 0);
//! b.halt();
//! let prog = b.finish().unwrap();
//!
//! let mut m = Machine::new(MachineConfig::default());
//! m.mem.write(0x1000, 42).unwrap();
//! let mut ctx = Context::new(0);
//! m.run(&prog, &mut ctx, 100).unwrap();
//! assert_eq!(ctx.reg(Reg(1)), 42);
//! // The cold miss stalled for DRAM latency minus the OoO window.
//! assert_eq!(m.counters.stall_cycles, 270);
//! ```

pub mod blocks;
pub mod cache;
pub mod config;
pub mod context;
pub mod counters;
pub mod faults;
pub mod fxhash;
pub mod isa;
pub mod lbr;
pub mod machine;
pub mod mem;
pub mod multicore;
pub mod pebs;
pub mod rng;
pub mod shrink;
pub mod smt;
pub mod trace;

/// Host-side cache prefetch hint: asks the host CPU to start fetching the
/// cache line containing `p`.
///
/// Purely a wall-clock optimization for the interpreter's hot paths (the
/// simulated-load path issues these so host-memory fetches of simulated
/// data and cache metadata overlap instead of serializing). No simulated
/// state is read or written, so determinism is untouched; on non-x86_64
/// hosts it compiles to nothing.
#[inline(always)]
pub(crate) fn host_prefetch<T>(p: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch hints have no architectural memory effects and
    // tolerate any address; `p` is a live reference anyway.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(
            p as *const T as *const i8,
        )
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

pub use blocks::{BlockCache, BlockCacheStats, Lane, Next, Stopped};
pub use cache::{Access, AccessKind, CacheStats, Hierarchy, Level};
pub use config::{CacheLevelConfig, MachineConfig};
pub use context::{Context, ContextStats, Mode, Status};
pub use counters::{PcStats, PerPcTable, PerfCounters};
pub use faults::{FaultInjector, FaultLog, FaultPlan};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHasher};
pub use isa::{AluOp, Cond, Inst, Program, ProgramBuilder, ProgramError, Reg, YieldKind};
pub use lbr::{BranchRecord, Lbr, StraightRun};
pub use machine::{ExecError, Exit, Machine, SwitchKind};
pub use mem::{MemError, Memory};
pub use multicore::{MultiCore, MultiCoreConfig, UncoreStatus};
pub use pebs::{HwEvent, PebsConfig, PebsSampler, Sample};
pub use rng::{SplitMix64, Zipf};
pub use shrink::ddmin;
pub use smt::{run_smt, SmtReport};
pub use trace::{Trace, TraceEntry};
