//! Static partitioning of keys over ranks.
//!
//! The key layout never changes after initial population, so ownership can
//! be a pure function. Keys are assigned round-robin (`key % ranks`): the
//! mini-batch and neighbor sets are uniform over vertices, so round-robin
//! gives each rank an equal share of the random read traffic regardless of
//! vertex-id locality in the input graph.

/// Static key-to-rank mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    num_keys: u32,
    ranks: usize,
}

impl Partition {
    /// Create a partition of `num_keys` keys over `ranks` ranks.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn new(num_keys: u32, ranks: usize) -> Self {
        assert!(ranks > 0, "partition needs at least one rank");
        Self { num_keys, ranks }
    }

    /// Total number of keys.
    pub fn num_keys(&self) -> u32 {
        self.num_keys
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Owner rank of `key`.
    #[inline]
    pub fn owner(&self, key: u32) -> usize {
        (key as usize) % self.ranks
    }

    /// Index of `key` within its owner's local shard.
    #[inline]
    pub fn local_index(&self, key: u32) -> usize {
        (key as usize) / self.ranks
    }

    /// Number of keys owned by `rank`.
    pub fn shard_size(&self, rank: usize) -> usize {
        assert!(rank < self.ranks, "rank {rank} out of {}", self.ranks);
        let n = self.num_keys as usize;
        n / self.ranks + usize::from(rank < n % self.ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsb_rand::{Rng, Xoshiro256PlusPlus};

    #[test]
    fn owner_and_local_index_consistent() {
        let p = Partition::new(10, 3);
        // key -> (owner, local): 0->(0,0) 1->(1,0) 2->(2,0) 3->(0,1) ...
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(4), 1);
        assert_eq!(p.local_index(0), 0);
        assert_eq!(p.local_index(3), 1);
        assert_eq!(p.local_index(7), 2);
    }

    #[test]
    fn shard_sizes_sum_to_total() {
        for (keys, ranks) in [(10u32, 3usize), (64, 64), (7, 8), (1000, 13), (0, 4)] {
            let p = Partition::new(keys, ranks);
            let total: usize = (0..ranks).map(|r| p.shard_size(r)).sum();
            assert_eq!(total, keys as usize, "keys={keys} ranks={ranks}");
        }
    }

    #[test]
    fn shard_sizes_are_balanced() {
        let p = Partition::new(1001, 8);
        let sizes: Vec<usize> = (0..8).map(|r| p.shard_size(r)).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Partition::new(10, 0);
    }

    /// Every key is owned by exactly one rank and the (owner,
    /// local_index) pair is a bijection into the shards. Checked over 64
    /// random (keys, ranks) configurations.
    #[test]
    fn ownership_is_a_bijection() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0xD1);
        for _ in 0..64 {
            let keys = 1 + rng.below(499) as u32;
            let ranks = 1 + rng.below(19) as usize;
            let p = Partition::new(keys, ranks);
            let mut seen = std::collections::HashSet::new();
            for key in 0..keys {
                let owner = p.owner(key);
                assert!(owner < ranks, "keys={keys} ranks={ranks}");
                let local = p.local_index(key);
                assert!(local < p.shard_size(owner), "keys={keys} ranks={ranks}");
                assert!(
                    seen.insert((owner, local)),
                    "slot collision (keys={keys} ranks={ranks})"
                );
            }
        }
    }
}
