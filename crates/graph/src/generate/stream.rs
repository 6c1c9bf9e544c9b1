//! Streaming community-structured edge generator for out-of-core scale.
//!
//! The resident generators in this module's siblings materialize a
//! [`crate::Graph`], which caps them at RAM scale. This generator emits
//! edges through a callback with **O(1)** state — no adjacency, no
//! membership tables — so it can feed the out-of-core streaming builder
//! with 100M+ edges in bounded memory (DESIGN.md §15).
//!
//! The model is deliberately simple: vertices are partitioned into
//! `num_communities` *contiguous* equal-size blocks, and each emitted
//! edge is intra-community with probability `intra_fraction` (uniform
//! pair inside a uniformly chosen block) or a uniform background pair
//! otherwise. Contiguous community ids are the point: a vertex's intra
//! neighbors are numerically nearby, so the sorted neighbor lists the
//! builder writes have small gaps and the delta-varint encoding lands
//! well under the 4.8 bytes/edge acceptance bound.
//!
//! Emitted pairs may repeat — the streaming builder deduplicates at
//! merge — so the realized edge count falls slightly below
//! `target_edges` (a ~`E/P` birthday-collision shortfall for `P`
//! possible pairs; negligible at bench scale).

use mmsb_rand::Rng;

/// Parameters for [`for_each_edge`].
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Number of vertices `N` (ids `0..N`, community-contiguous).
    pub num_vertices: u32,
    /// Number of contiguous community blocks (`1..=N`).
    pub num_communities: u32,
    /// Undirected pairs to emit (before builder-side deduplication).
    pub target_edges: u64,
    /// Probability an emitted pair is drawn inside one community block.
    pub intra_fraction: f64,
    /// RNG seed; the emitted sequence is a pure function of the config.
    pub seed: u64,
}

impl StreamConfig {
    fn validate(&self) {
        assert!(self.num_vertices >= 2, "need at least 2 vertices");
        assert!(
            self.num_communities >= 1 && self.num_communities <= self.num_vertices,
            "num_communities must be in 1..=num_vertices"
        );
        assert!(
            (0.0..=1.0).contains(&self.intra_fraction),
            "intra_fraction must be a probability"
        );
    }

    /// Base block size; the first `num_vertices % num_communities`
    /// communities hold one extra vertex.
    fn base_size(&self) -> u32 {
        self.num_vertices / self.num_communities
    }

    fn remainder(&self) -> u32 {
        self.num_vertices % self.num_communities
    }

    /// Half-open vertex range `[start, end)` of community `k`.
    ///
    /// # Panics
    /// Panics if `k >= num_communities` or the config is invalid.
    pub fn community_range(&self, k: u32) -> (u32, u32) {
        self.validate();
        assert!(k < self.num_communities, "community {k} out of range");
        let base = self.base_size();
        let rem = self.remainder();
        let start = k * base + k.min(rem);
        let size = base + u32::from(k < rem);
        (start, start + size)
    }

    /// Community block owning vertex `v` (inverse of
    /// [`StreamConfig::community_range`]).
    ///
    /// # Panics
    /// Panics if `v >= num_vertices` or the config is invalid.
    pub fn community_of(&self, v: u32) -> u32 {
        self.validate();
        assert!(v < self.num_vertices, "vertex {v} out of range");
        let base = self.base_size();
        let rem = self.remainder();
        let boundary = rem * (base + 1);
        if v < boundary {
            v / (base + 1)
        } else {
            rem + (v - boundary) / base.max(1)
        }
    }
}

/// Emit exactly `config.target_edges` undirected pairs `(a, b)` with
/// `a != b`, deterministically for a given config.
///
/// Pairs are unordered and may repeat; feed them to
/// `mmsb_ooc::StreamingBuilder`, which sorts and deduplicates. A
/// community block too small for a distinct intra pair (size < 2, only
/// possible when `num_communities` approaches `num_vertices`) falls back
/// to a background pair so the edge count is always met.
///
/// # Panics
/// Panics on an invalid config (see [`StreamConfig`] field docs).
pub fn for_each_edge<F: FnMut(u32, u32)>(config: &StreamConfig, mut f: F) {
    config.validate();
    let mut rng = mmsb_rand::Xoshiro256PlusPlus::seed_from_u64(config.seed);
    let n = config.num_vertices as u64;
    for _ in 0..config.target_edges {
        if rng.next_f64() < config.intra_fraction {
            let k = rng.below(config.num_communities as u64) as u32;
            let (start, end) = community_range_unchecked(config, k);
            let size = (end - start) as u64;
            if size >= 2 {
                let a = start + rng.below(size) as u32;
                let b = loop {
                    let b = start + rng.below(size) as u32;
                    if b != a {
                        break b;
                    }
                };
                f(a, b);
                continue;
            }
            // Degenerate singleton block: fall through to a background pair.
        }
        let a = rng.below(n) as u32;
        let b = loop {
            let b = rng.below(n) as u32;
            if b != a {
                break b;
            }
        };
        f(a, b);
    }
}

/// [`StreamConfig::community_range`] without the per-call validation
/// (the hot emit loop has already validated once).
#[inline]
fn community_range_unchecked(config: &StreamConfig, k: u32) -> (u32, u32) {
    let base = config.base_size();
    let rem = config.remainder();
    let start = k * base + k.min(rem);
    let size = base + u32::from(k < rem);
    (start, start + size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> StreamConfig {
        StreamConfig {
            num_vertices: 1000,
            num_communities: 10,
            target_edges: 20_000,
            intra_fraction: 0.9,
            seed: 7,
        }
    }

    #[test]
    fn emits_exact_count_of_valid_pairs() {
        let cfg = small();
        let mut count = 0u64;
        for_each_edge(&cfg, |a, b| {
            assert!(a < cfg.num_vertices && b < cfg.num_vertices);
            assert_ne!(a, b, "self-loop emitted");
            count += 1;
        });
        assert_eq!(count, cfg.target_edges);
    }

    #[test]
    fn intra_fraction_is_respected() {
        let cfg = small();
        let mut intra = 0u64;
        for_each_edge(&cfg, |a, b| {
            if cfg.community_of(a) == cfg.community_of(b) {
                intra += 1;
            }
        });
        let frac = intra as f64 / cfg.target_edges as f64;
        // Background pairs land in one block ~1/K of the time, so the
        // expected fraction is slightly above intra_fraction.
        let expected = cfg.intra_fraction + (1.0 - cfg.intra_fraction) / cfg.num_communities as f64;
        assert!(
            (frac - expected).abs() < 0.02,
            "intra fraction {frac} far from {expected}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = small();
        let collect = |cfg: &StreamConfig| {
            let mut v = Vec::new();
            for_each_edge(cfg, |a, b| v.push((a, b)));
            v
        };
        assert_eq!(collect(&cfg), collect(&cfg));
        let other = StreamConfig { seed: 8, ..cfg };
        assert_ne!(collect(&cfg), collect(&other));
    }

    #[test]
    fn community_ranges_partition_the_vertices() {
        // Non-divisible N/K: the first `rem` blocks get the extra vertex.
        let cfg = StreamConfig {
            num_vertices: 103,
            num_communities: 10,
            target_edges: 0,
            intra_fraction: 0.5,
            seed: 0,
        };
        let mut next = 0u32;
        for k in 0..cfg.num_communities {
            let (start, end) = cfg.community_range(k);
            assert_eq!(start, next, "gap before community {k}");
            assert!(end > start);
            for v in start..end {
                assert_eq!(cfg.community_of(v), k);
            }
            next = end;
        }
        assert_eq!(next, cfg.num_vertices);
    }

    #[test]
    fn singleton_blocks_fall_back_to_background() {
        // K == N forces every intra draw into the fallback path.
        let cfg = StreamConfig {
            num_vertices: 8,
            num_communities: 8,
            target_edges: 100,
            intra_fraction: 1.0,
            seed: 3,
        };
        let mut count = 0;
        for_each_edge(&cfg, |a, b| {
            assert_ne!(a, b);
            count += 1;
        });
        assert_eq!(count, 100);
    }

    #[test]
    #[should_panic(expected = "intra_fraction")]
    fn rejects_bad_fraction() {
        let cfg = StreamConfig {
            intra_fraction: 1.5,
            ..small()
        };
        for_each_edge(&cfg, |_, _| {});
    }
}
