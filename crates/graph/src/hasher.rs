//! FxHash: the fast, non-cryptographic hash used throughout the workspace.
//!
//! Edge-set membership queries sit on the sampler's hot path (`update_phi`
//! probes `y_ab` for every sampled neighbor), so SipHash's HashDoS
//! resistance is pure overhead here — inputs are our own dense integer ids.
//! This is a from-scratch implementation of the multiply-rotate scheme used
//! by `rustc` (the `rustc-hash` crate).

use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiply-rotate hasher.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Finalizer: hash tables index buckets with the LOW bits of the
        // hash, but a single multiply only propagates entropy upward —
        // packed edge keys `(a << 32) | b` with equal `b` would otherwise
        // share low bits and chain in the same buckets. Fold the high half
        // down and multiply once more.
        let h = self.hash;
        (h ^ (h >> 32)).wrapping_mul(SEED)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&12345u64), hash_of(&12345u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn byte_tail_handled() {
        // Lengths around the 8-byte chunk boundary.
        for len in 0..20usize {
            let bytes: Vec<u8> = (0..len as u8).collect();
            let mut h = FxHasher::default();
            h.write(&bytes);
            let first = h.finish();
            let mut h2 = FxHasher::default();
            h2.write(&bytes);
            assert_eq!(first, h2.finish(), "len={len}");
        }
    }

    #[test]
    fn collision_rate_on_dense_keys_is_low() {
        // Packed edge keys are the dominant workload; make sure low bits vary.
        let mut set = std::collections::HashSet::new();
        for a in 0u64..200 {
            for b in 0u64..200 {
                set.insert(hash_of(&((a << 32) | b)) & 0xFFFF);
            }
        }
        // 40k keys into 65536 buckets: expect most buckets distinct-ish.
        assert!(
            set.len() > 25_000,
            "only {} distinct low-16 hashes",
            set.len()
        );
    }

    #[test]
    fn fx_map_and_set_work() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(7, 42);
        assert_eq!(m.get(&7), Some(&42));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }
}
