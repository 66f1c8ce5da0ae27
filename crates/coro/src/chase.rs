//! Real-memory pointer chase: sequential vs coroutine-interleaved.
//!
//! A single randomly-permuted cycle is embedded in a large node array.
//! Chasing it sequentially exposes one full memory latency per hop;
//! splitting the same total work across `G` interleaved coroutine walkers
//! (each prefetching its next node before yielding) keeps `G` misses in
//! flight and — on real hardware, for arrays beyond the last-level cache —
//! speeds the batch up by several times. This is the crate's "it works on
//! the machine you are holding" proof.

use crate::{prefetch_read, Coro, CoroState, GroupExecutor};
use reach_sim::SplitMix64;

/// One chase node: cache-line sized so each hop is a distinct line.
#[repr(align(64))]
#[derive(Clone, Copy, Debug)]
pub(crate) struct Node {
    /// Index of the next node.
    pub next: u32,
    /// Payload folded into checksums.
    pub payload: u64,
    _pad: [u64; 6],
}

/// A pointer-chase arena: nodes forming one random cycle.
#[derive(Debug)]
pub struct Arena {
    nodes: Vec<Node>,
}

impl Arena {
    /// Builds an arena of `n` nodes (n ≥ 2) whose `next` pointers form a
    /// single random cycle (Sattolo's algorithm), deterministically from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn build(n: usize, seed: u64) -> Arena {
        assert!(n >= 2, "a cycle needs at least two nodes");
        let mut rng = SplitMix64::new(seed);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        // Sattolo: one cycle covering all nodes.
        for i in (1..n).rev() {
            let j = rng.next_below(i as u64) as usize;
            perm.swap(i, j);
        }
        let mut nodes = vec![
            Node {
                next: 0,
                payload: 0,
                _pad: [0; 6],
            };
            n
        ];
        for i in 0..n {
            nodes[perm[i] as usize].next = perm[(i + 1) % n];
            nodes[perm[i] as usize].payload = rng.next_u64() >> 8;
        }
        Arena { nodes }
    }

    /// Sequential walk: `hops` dependent loads from node `start`.
    /// Returns the payload checksum.
    pub fn walk_sequential(&self, start: u32, hops: usize) -> u64 {
        let mut cur = start as usize;
        let mut sum = 0u64;
        for _ in 0..hops {
            let node = &self.nodes[cur];
            sum = sum.wrapping_add(node.payload);
            cur = node.next as usize;
        }
        sum
    }

    /// Interleaved walk: the same `hops * group` total work split across
    /// `group` coroutine walkers with prefetch+yield per hop. Returns the
    /// combined checksum (equals the sum of `group` sequential walks from
    /// the same starts).
    pub fn walk_interleaved(&self, starts: &[u32], hops: usize) -> u64 {
        let walkers: Vec<Walker<'_>> = starts
            .iter()
            .map(|&s| Walker {
                arena: self,
                cur: s as usize,
                remaining: hops,
                sum: 0,
                started: false,
            })
            .collect();
        let mut ex = GroupExecutor::new(walkers);
        ex.run_to_completion();
        ex.into_inner().into_iter().map(|w| w.sum).sum()
    }

    /// Evenly spread starting nodes for `group` walkers.
    pub fn spread_starts(&self, group: usize) -> Vec<u32> {
        (0..group)
            .map(|g| ((g * self.nodes.len()) / group.max(1)) as u32)
            .collect()
    }
}

/// One interleaved chase walker.
struct Walker<'a> {
    arena: &'a Arena,
    cur: usize,
    remaining: usize,
    sum: u64,
    started: bool,
}

impl Coro for Walker<'_> {
    #[inline]
    fn resume(&mut self) -> CoroState {
        // Consume the node we prefetched last time (if any), then prefetch
        // the next and yield.
        if self.started {
            let node = &self.arena.nodes[self.cur];
            self.sum = self.sum.wrapping_add(node.payload);
            self.cur = node.next as usize;
            self.remaining -= 1;
        } else {
            self.started = true;
        }
        if self.remaining == 0 {
            return CoroState::Complete;
        }
        prefetch_read(&self.arena.nodes[self.cur]);
        CoroState::Yielded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_a_single_cycle() {
        let a = Arena::build(64, 7);
        let mut seen = [false; 64];
        let mut cur = 0u32;
        for _ in 0..64 {
            assert!(!seen[cur as usize], "revisited before covering all");
            seen[cur as usize] = true;
            cur = a.nodes[cur as usize].next;
        }
        assert_eq!(cur, 0, "returns to start after n hops");
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn interleaved_matches_sequential_checksums() {
        let a = Arena::build(256, 11);
        let starts = a.spread_starts(4);
        let hops = 100;
        let expect: u64 = starts
            .iter()
            .map(|&s| a.walk_sequential(s, hops))
            .fold(0u64, |acc, x| acc.wrapping_add(x));
        assert_eq!(a.walk_interleaved(&starts, hops), expect);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = Arena::build(128, 3);
        let b = Arena::build(128, 3);
        assert_eq!(a.walk_sequential(0, 500), b.walk_sequential(0, 500));
        let c = Arena::build(128, 4);
        assert_ne!(a.walk_sequential(0, 500), c.walk_sequential(0, 500));
    }

    #[test]
    fn node_is_cache_line_sized() {
        assert_eq!(std::mem::size_of::<Node>(), 64);
        assert_eq!(std::mem::align_of::<Node>(), 64);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_arena_panics() {
        let _ = Arena::build(1, 0);
    }
}
