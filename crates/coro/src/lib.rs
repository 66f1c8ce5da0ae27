//! # reach-coro — a host-runnable light-weight coroutine runtime
//!
//! Everything else in this workspace runs on the deterministic simulator;
//! this crate demonstrates the paper's mechanism on the *real* machine it
//! is compiled for. It provides:
//!
//! * a stackless [`Coro`] trait (suspend/resume state machines — the
//!   zero-allocation, sub-10 ns-switch class of coroutine the paper builds
//!   on; Rust's `async` desugars to the same shape);
//! * a [`GroupExecutor`] that interleaves a batch of coroutines round-robin,
//!   exactly as CoroBase interleaves index lookups;
//! * [`prefetch_read`] — a safe wrapper over the architecture's software
//!   prefetch instruction; and
//! * two memory-bound drivers ([`chase`], [`probe`]) with both sequential
//!   and interleaved implementations, so `examples/host_interleaving.rs`
//!   can show real miss-hiding end to end (its timings are illustrative;
//!   quoted host-time numbers come from `benchmark/run.sh run` only).
//!
//! # Examples
//!
//! ```
//! use reach_coro::{Coro, CoroState, GroupExecutor};
//!
//! struct Counter { n: u32 }
//! impl Coro for Counter {
//!     fn resume(&mut self) -> CoroState {
//!         if self.n == 0 { return CoroState::Complete; }
//!         self.n -= 1;
//!         CoroState::Yielded
//!     }
//! }
//!
//! let mut ex = GroupExecutor::new(vec![Counter { n: 2 }, Counter { n: 5 }]);
//! let resumes = ex.run_to_completion();
//! // 2+1 and 5+1 resumes (the final resume observes completion).
//! assert_eq!(resumes, 9);
//! ```

pub mod asymmetric;
pub mod chase;
pub mod executor;
pub mod future_adapter;
pub mod prefetch;
pub mod probe;

pub use asymmetric::{run_asymmetric, AsymmetricReport};
pub use executor::GroupExecutor;
pub use future_adapter::{yield_now, FutureCoro};
pub use prefetch::prefetch_read;

/// Result of resuming a coroutine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoroState {
    /// The coroutine suspended (typically right after issuing a prefetch)
    /// and wants to be resumed later.
    Yielded,
    /// The coroutine finished; resuming it again is a caller bug.
    Complete,
}

/// A stackless coroutine: a resumable state machine.
///
/// Implementors keep all state in `self`; `resume` runs until the next
/// suspension point. This is deliberately the cheapest possible coroutine
/// representation — a resume is an indirect call plus a state load, the
/// software analogue of the "<10 ns context switch" the paper leans on.
pub trait Coro {
    /// Runs until the next yield or completion.
    fn resume(&mut self) -> CoroState;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Once(bool);
    impl Coro for Once {
        fn resume(&mut self) -> CoroState {
            if self.0 {
                CoroState::Complete
            } else {
                self.0 = true;
                CoroState::Yielded
            }
        }
    }

    #[test]
    fn coro_state_machine_basics() {
        let mut c = Once(false);
        assert_eq!(c.resume(), CoroState::Yielded);
        assert_eq!(c.resume(), CoroState::Complete);
    }
}
