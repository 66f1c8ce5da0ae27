//! Hand-rolled FxHash-style hasher for the simulator's hot paths.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3: keyed, DoS-resistant,
//! and ~10× more expensive than needed for hashing one `u64` page number
//! or cache-line address per simulated memory access. The keys on those
//! paths are simulator-internal (never attacker-controlled), so we trade
//! DoS resistance for speed with the multiply-based scheme rustc itself
//! uses (FxHash), plus a SplitMix-style xor-shift finalizer so that
//! power-of-two-strided keys — the common case for page numbers and
//! line addresses — still spread across the low bits hashbrown uses for
//! bucket selection.
//!
//! Determinism: the hash is a pure function of the key bytes with no
//! per-process seed, so iteration order is stable across runs *on the
//! same build* — but, as with SipHash, no simulated-visible result may
//! depend on map iteration order. (`Hierarchy::drain_fills` sorts for
//! exactly this reason.)

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from FxHash (the golden-ratio-derived odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The add-rotate-multiply word mixer used by rustc's FxHasher.
#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// A fast, deterministic, non-cryptographic hasher.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // SplitMix-style finalizer: fold the well-mixed high bits into
        // the low bits that hashbrown's bucket mask actually consumes.
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.hash = mix(self.hash, u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.hash = mix(self.hash, u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.hash = mix(self.hash, v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.hash = mix(self.hash, v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = mix(self.hash, v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.hash = mix(self.hash, v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`]; zero-sized, `Default`-constructed.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by the fast deterministic hasher.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_u64(v: u64) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(v);
        h.finish()
    }

    #[test]
    fn hashing_is_deterministic_and_injective_on_small_sets() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert_eq!(hash_u64(i), hash_u64(i), "stable for the same key");
            seen.insert(hash_u64(i));
        }
        assert_eq!(seen.len(), 10_000, "no collisions on sequential keys");
    }

    #[test]
    fn strided_keys_spread_across_low_bits() {
        // Page numbers arrive with power-of-two strides; the finalizer
        // must keep their low hash bits (hashbrown's bucket index) from
        // collapsing onto a few buckets.
        for stride in [1u64 << 9, 1 << 12, 1 << 16] {
            let mut low = std::collections::HashSet::new();
            for i in 0..256u64 {
                low.insert(hash_u64(i * stride) & 0xff);
            }
            assert!(low.len() > 128, "stride {stride:#x}: {} buckets", low.len());
        }
    }

    #[test]
    fn byte_stream_and_word_writes_agree_on_word_data() {
        let mut a = FxHasher::default();
        a.write(&42u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(42);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fx_map_behaves_like_a_map() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i * 4096, i);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&(i * 4096)), Some(&i));
        }
        assert_eq!(m.len(), 1000);
    }
}
