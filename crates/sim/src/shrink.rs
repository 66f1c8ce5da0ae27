//! Delta debugging: the one shrinker for every failing input that is a
//! list of things — chaos fault schedules, generated instruction lists,
//! rewrite mutants.
//!
//! Every run here is deterministic, so a failure found once replays on
//! demand, and shrinking it needs nothing but a predicate that reruns
//! it: [`ddmin`] (Zeller & Hildebrandt's minimising delta debugging)
//! keeps removing chunks of the list, then single items, for as long as
//! the predicate still fails.

use std::ops::Range;

/// Shrinks `items` to a subsequence on which `fails` still holds,
/// spending at most `budget` predicate calls, and returns it with the
/// calls spent.
///
/// When the budget is not exhausted the result is *1-minimal*: removing
/// any one of its items (down to the empty list) makes `fails` return
/// false. `fails(items)` itself is assumed, not re-checked, and item
/// order is preserved. The result is a pure function of `items`,
/// `budget` and the predicate's answers.
pub fn ddmin<T: Clone>(
    items: &[T],
    budget: u64,
    mut fails: impl FnMut(&[T]) -> bool,
) -> (Vec<T>, u64) {
    let mut cur = items.to_vec();
    let mut trials = 0u64;
    let mut granularity = 2usize;
    'shrink: while !cur.is_empty() {
        let n = granularity.min(cur.len());
        let size = cur.len().div_ceil(n);
        let chunks: Vec<Range<usize>> = (0..cur.len())
            .step_by(size)
            .map(|start| start..(start + size).min(cur.len()))
            .collect();
        // Each chunk alone, then each complement. With two chunks the
        // complements are the chunks again; with one, the chunk is the
        // whole list and only its complement (the empty list) is new.
        let subsets = chunks.iter().filter(|r| r.len() < cur.len());
        let complements = chunks.iter().filter(|_| chunks.len() != 2);
        let candidates = subsets
            .map(|r| (false, r))
            .chain(complements.map(|r| (true, r)));
        for (complement, r) in candidates {
            if trials == budget {
                break 'shrink;
            }
            let cand: Vec<T> = if complement {
                [&cur[..r.start], &cur[r.end..]].concat()
            } else {
                cur[r.clone()].to_vec()
            };
            trials += 1;
            if fails(&cand) {
                granularity = if complement { (n - 1).max(2) } else { 2 };
                cur = cand;
                continue 'shrink;
            }
        }
        if n == cur.len() {
            break;
        }
        granularity = (2 * n).min(cur.len());
    }
    (cur, trials)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails when every planted item is present.
    fn planted(want: &[u32]) -> impl FnMut(&[u32]) -> bool + '_ {
        move |s| want.iter().all(|w| s.contains(w))
    }

    #[test]
    fn shrinks_to_the_planted_items_and_is_one_minimal() {
        let items: Vec<u32> = (0..40).collect();
        for want in [&[17][..], &[3, 29], &[0, 1, 38, 39], &[5, 6, 7, 21, 33]] {
            let (got, trials) = ddmin(&items, u64::MAX, planted(want));
            assert_eq!(got, want, "trials {trials}");
            // 1-minimal: dropping any single survivor passes.
            for i in 0..got.len() {
                let mut less = got.clone();
                less.remove(i);
                assert!(!planted(want)(&less));
            }
        }
    }

    #[test]
    fn an_unconditional_failure_shrinks_to_nothing() {
        let (got, trials) = ddmin(&[1, 2, 3], u64::MAX, |_| true);
        assert!(got.is_empty());
        assert!(trials <= 3, "{trials}");
    }

    #[test]
    fn the_trial_budget_is_respected_and_progress_kept() {
        let items: Vec<u32> = (0..64).collect();
        for budget in [0, 1, 5, 12] {
            let mut calls = 0u64;
            let (got, trials) = ddmin(&items, budget, |s| {
                calls += 1;
                s.contains(&9) && s.contains(&50)
            });
            assert_eq!((trials, calls), (budget, budget));
            // Whatever was kept still fails.
            assert!(got.contains(&9) && got.contains(&50), "{got:?}");
        }
    }

    #[test]
    fn shrinking_is_deterministic() {
        let items: Vec<u32> = (0..50).collect();
        // A predicate that depends on more than membership: the sum.
        let fails = |s: &[u32]| s.iter().sum::<u32>() >= 90;
        let a = ddmin(&items, u64::MAX, fails);
        let b = ddmin(&items, u64::MAX, fails);
        assert_eq!(a, b);
        assert!(fails(&a.0));
        for i in 0..a.0.len() {
            let mut less = a.0.clone();
            less.remove(i);
            assert!(!fails(&less), "{:?} is not 1-minimal", a.0);
        }
    }
}
