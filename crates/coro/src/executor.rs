//! The group executor: round-robin interleaving of a coroutine batch.

use crate::{Coro, CoroState};

/// Interleaves a batch of coroutines: each resume runs one coroutine to
/// its next yield, then rotates. With each coroutine prefetching before it
/// yields, the group size controls how many fills are in flight at once —
/// the software analogue of memory-level parallelism.
#[derive(Debug)]
pub struct GroupExecutor<C: Coro> {
    coros: Vec<C>,
    done: Vec<bool>,
    remaining: usize,
}

impl<C: Coro> GroupExecutor<C> {
    /// Creates an executor over `coros`.
    pub fn new(coros: Vec<C>) -> Self {
        let n = coros.len();
        GroupExecutor {
            coros,
            done: vec![false; n],
            remaining: n,
        }
    }

    /// Runs every coroutine to completion, round-robin; returns the total
    /// number of resumes performed.
    pub fn run_to_completion(&mut self) -> u64 {
        let n = self.coros.len();
        let mut resumes = 0u64;
        let mut i = 0usize;
        while self.remaining > 0 {
            if !self.done[i] {
                resumes += 1;
                if self.coros[i].resume() == CoroState::Complete {
                    self.done[i] = true;
                    self.remaining -= 1;
                }
            }
            i += 1;
            if i == n {
                i = 0;
            }
        }
        resumes
    }

    /// Consumes the executor, returning the finished coroutines (for
    /// result extraction).
    pub fn into_inner(self) -> Vec<C> {
        self.coros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Appends its tag each resume, `n` times, to a shared-free local log;
    /// used to verify interleaving order.
    struct Tagged {
        tag: u8,
        n: u32,
        log: Vec<u8>,
    }
    impl Coro for Tagged {
        fn resume(&mut self) -> CoroState {
            if self.n == 0 {
                return CoroState::Complete;
            }
            self.n -= 1;
            self.log.push(self.tag);
            CoroState::Yielded
        }
    }

    #[test]
    fn all_coroutines_complete() {
        let mut ex = GroupExecutor::new(vec![
            Tagged {
                tag: 0,
                n: 3,
                log: vec![],
            },
            Tagged {
                tag: 1,
                n: 1,
                log: vec![],
            },
        ]);
        assert_eq!(ex.remaining, 2);
        ex.run_to_completion();
        assert_eq!(ex.remaining, 0);
        let inner = ex.into_inner();
        assert_eq!(inner[0].log, vec![0, 0, 0]);
        assert_eq!(inner[1].log, vec![1]);
    }

    #[test]
    fn resume_count_is_work_plus_completion_observations() {
        let mut ex = GroupExecutor::new(vec![
            Tagged {
                tag: 0,
                n: 4,
                log: vec![],
            },
            Tagged {
                tag: 1,
                n: 2,
                log: vec![],
            },
        ]);
        // 4+1 + 2+1 = 8 resumes.
        assert_eq!(ex.run_to_completion(), 8);
    }

    #[test]
    fn empty_group_is_noop() {
        let mut ex: GroupExecutor<Tagged> = GroupExecutor::new(vec![]);
        assert_eq!(ex.run_to_completion(), 0);
    }
}
