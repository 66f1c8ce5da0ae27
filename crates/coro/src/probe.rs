//! Real-memory hash-table probing: sequential vs coroutine-interleaved.
//!
//! The CoroBase / "killer nanoseconds" scenario on the host: a batch of
//! lookups against a table far larger than the last-level cache. The
//! interleaved version turns each lookup into a two-step coroutine —
//! hash + prefetch the slot, yield, then probe — so a group of `G`
//! lookups keeps `G` random-access fills in flight.

use crate::{prefetch_read, Coro, CoroState, GroupExecutor};
use reach_sim::SplitMix64;

const HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// An open-addressing (linear probing) hash table over u64 keys.
#[derive(Debug)]
pub struct Table {
    slots: Vec<(u64, u64)>, // (key, value); key 0 = empty
    mask: u64,
    shift: u32,
}

impl Table {
    /// Builds a table with `capacity` slots (power of two) holding
    /// `occupied` random entries, deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or the load factor
    /// exceeds 0.9.
    pub fn build(capacity: usize, occupied: usize, seed: u64) -> (Table, Vec<(u64, u64)>) {
        assert!(capacity.is_power_of_two(), "capacity must be 2^k");
        assert!(occupied * 10 <= capacity * 9, "load factor too high");
        let mut t = Table {
            slots: vec![(0, 0); capacity],
            mask: capacity as u64 - 1,
            shift: 64 - capacity.trailing_zeros(),
        };
        let mut rng = SplitMix64::new(seed);
        let mut present = Vec::with_capacity(occupied);
        while present.len() < occupied {
            let key = rng.next_u64() | 1;
            let value = rng.next_u64();
            if t.insert(key, value) {
                present.push((key, value));
            }
        }
        (t, present)
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        ((key.wrapping_mul(HASH_MULT) >> self.shift) & self.mask) as usize
    }

    /// Inserts; returns false if the key already exists.
    fn insert(&mut self, key: u64, value: u64) -> bool {
        let mut s = self.slot_of(key);
        loop {
            match self.slots[s].0 {
                0 => {
                    self.slots[s] = (key, value);
                    return true;
                }
                k if k == key => return false,
                _ => s = (s + 1) & self.mask as usize,
            }
        }
    }

    /// Sequential lookup.
    #[inline]
    pub(crate) fn get(&self, key: u64) -> Option<u64> {
        let mut s = self.slot_of(key);
        loop {
            match self.slots[s] {
                (0, _) => return None,
                (k, v) if k == key => return Some(v),
                _ => s = (s + 1) & self.mask as usize,
            }
        }
    }

    /// Looks up a whole batch sequentially; returns the sum of found
    /// values (misses contribute the key, mirroring the sim workload).
    pub fn lookup_batch_sequential(&self, keys: &[u64]) -> u64 {
        keys.iter()
            .map(|&k| self.get(k).unwrap_or(k))
            .fold(0u64, |a, x| a.wrapping_add(x))
    }

    /// Looks up a batch with `group`-way coroutine interleaving; returns
    /// the same checksum as the sequential version.
    pub fn lookup_batch_interleaved(&self, keys: &[u64], group: usize) -> u64 {
        let group = group.max(1);
        let mut sum = 0u64;
        for chunk in keys.chunks(group) {
            let lookups: Vec<Lookup<'_>> = chunk
                .iter()
                .map(|&key| Lookup {
                    table: self,
                    key,
                    slot: self.slot_of(key),
                    state: LookupState::Fresh,
                    result: 0,
                })
                .collect();
            let mut ex = GroupExecutor::new(lookups);
            ex.run_to_completion();
            for l in ex.into_inner() {
                sum = sum.wrapping_add(l.result);
            }
        }
        sum
    }
}

#[derive(Clone, Copy, PartialEq)]
enum LookupState {
    Fresh,
    Probing,
}

struct Lookup<'a> {
    table: &'a Table,
    key: u64,
    slot: usize,
    state: LookupState,
    result: u64,
}

impl Coro for Lookup<'_> {
    #[inline]
    fn resume(&mut self) -> CoroState {
        if self.state == LookupState::Fresh {
            self.state = LookupState::Probing;
            prefetch_read(&self.table.slots[self.slot]);
            return CoroState::Yielded;
        }
        // Probe the prefetched slot; continue linear probing within the
        // (already resident) line region, yielding again only when we step
        // to a new slot.
        match self.table.slots[self.slot] {
            (0, _) => {
                self.result = self.key;
                CoroState::Complete
            }
            (k, v) if k == self.key => {
                self.result = v;
                CoroState::Complete
            }
            _ => {
                self.slot = (self.slot + 1) & self.table.mask as usize;
                prefetch_read(&self.table.slots[self.slot]);
                CoroState::Yielded
            }
        }
    }
}

/// Generates a deterministic batch of lookup keys: `hit_fraction` of them
/// present in the table.
pub fn make_keys(present: &[(u64, u64)], n: usize, hit_fraction: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| {
            if rng.next_f64() < hit_fraction {
                present[rng.next_below(present.len() as u64) as usize].0
            } else {
                rng.next_u64() | 1
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_finds_inserted_keys() {
        let (t, present) = Table::build(1 << 10, 400, 1);
        for &(k, v) in present.iter().take(50) {
            assert_eq!(t.get(k), Some(v));
        }
        assert_eq!(t.get(2), None, "even keys are never inserted");
    }

    #[test]
    fn interleaved_matches_sequential() {
        let (t, present) = Table::build(1 << 12, 1500, 2);
        let keys = make_keys(&present, 1000, 0.7, 3);
        let seq = t.lookup_batch_sequential(&keys);
        for group in [1, 4, 16] {
            assert_eq!(t.lookup_batch_interleaved(&keys, group), seq);
        }
    }

    #[test]
    fn empty_and_tiny_batches() {
        let (t, present) = Table::build(1 << 8, 50, 4);
        let keys = make_keys(&present, 3, 1.0, 5);
        assert_eq!(
            t.lookup_batch_interleaved(&keys, 16),
            t.lookup_batch_sequential(&keys)
        );
        assert_eq!(t.lookup_batch_interleaved(&[], 8), 0);
    }

    #[test]
    fn keys_hit_fraction_respected() {
        let (t, present) = Table::build(1 << 12, 1000, 6);
        let keys = make_keys(&present, 2000, 1.0, 7);
        assert!(keys.iter().all(|&k| t.get(k).is_some()));
        let miss_keys = make_keys(&present, 2000, 0.0, 8);
        let hits = miss_keys.iter().filter(|&&k| t.get(k).is_some()).count();
        assert!(hits < 5, "random 64-bit keys almost never collide");
    }

    #[test]
    #[should_panic(expected = "load factor")]
    fn overfull_panics() {
        let _ = Table::build(1 << 8, 250, 0);
    }
}
