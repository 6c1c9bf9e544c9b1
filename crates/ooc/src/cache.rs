//! The fixed-capacity block cache and the sampler-facing reader.
//!
//! A [`BlockCache`] is *caller-owned scratch*, sized at construction and
//! never reallocated — the warmed read path performs no heap allocation
//! (pinned by the `zero_alloc` counting test). The sampler owns one per
//! region of the file ([`crate::RegionCaches`]); one-off readers own
//! their own. It is set-associative with seeded-LRU eviction: a seeded
//! multiplicative hash spreads blocks over sets (the seed decorrelates
//! set indices from the sequential block ids a CSR produces), and within
//! a set the least-recently-used way is evicted.
//!
//! Cache state is pure scratch. A hit and a miss return the same bytes —
//! blocks are immutable and CRC-verified on load — so cache size,
//! eviction order and the seed can never perturb a sampling chain.

use mmsb_graph::access::GraphAccess;
use mmsb_graph::VertexId;
use mmsb_obs::id as obs_id;

use crate::file::OocGraph;
use crate::varint::VarintState;
use crate::OocError;

/// Tag value of an empty way.
const EMPTY: u32 = u32::MAX;

/// Associativity: ways per set.
pub(crate) const WAYS: usize = 4;

/// A fixed-capacity, set-associative block cache with seeded-LRU
/// eviction.
#[derive(Debug)]
pub struct BlockCache {
    block_size: usize,
    /// Number of sets.
    sets: usize,
    /// Multiplicative hash constant derived from the seed (odd).
    hash_mul: u64,
    /// Block tags, `sets * WAYS`, [`EMPTY`] when vacant.
    tags: Vec<u32>,
    /// LRU stamps aligned with `tags`.
    stamps: Vec<u64>,
    /// Monotone access counter driving the stamps.
    tick: u64,
    /// Block storage, `sets * WAYS * block_size` bytes.
    data: Vec<u8>,
    /// Decode scratch: the most recently decoded neighbor list.
    list: Vec<u32>,
}

impl BlockCache {
    /// A cache holding `capacity_blocks` blocks of `block_size` bytes,
    /// rounded up to whole 4-way sets. The seed parameterizes the set
    /// hash.
    ///
    /// `max_degree` sizes the decode scratch of [`OocReader`] so its
    /// steady-state reads never reallocate.
    pub fn new(capacity_blocks: usize, block_size: usize, seed: u64, max_degree: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let sets = capacity_blocks.div_ceil(WAYS).max(1);
        Self {
            block_size,
            sets,
            // An odd constant mixes all input bits under wrapping_mul;
            // splitmix-style finalization of the seed keeps nearby seeds
            // from producing nearby hash functions.
            hash_mul: (seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0xBF58_476D_1CE4_E5B9))
                | 1,
            tags: vec![EMPTY; sets * WAYS],
            stamps: vec![0; sets * WAYS],
            tick: 0,
            data: vec![0; sets * WAYS * block_size],
            list: Vec::with_capacity(max_degree as usize),
        }
    }

    /// A cache sized for `graph` (its block size and max degree).
    pub fn for_graph(graph: &OocGraph, capacity_blocks: usize, seed: u64) -> Self {
        Self::new(
            capacity_blocks,
            graph.header().block_size as usize,
            seed,
            graph.max_degree(),
        )
    }

    /// Total block slots.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * WAYS
    }

    /// Drop all cached blocks (keeps the allocations) — the bench uses
    /// this to measure cold-cache throughput.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
        self.tick = 0;
    }

    /// The set `block` maps to: the hash scaled into `0..sets` by its
    /// high bits (for a power-of-two set count, its top `log2(sets)`
    /// bits).
    #[inline]
    fn set_of(&self, block: u32) -> usize {
        let hash = (block as u64).wrapping_mul(self.hash_mul);
        ((u128::from(hash) * self.sets as u128) >> 64) as usize
    }

    /// Whether every block of `v`'s list is cached now, so decoding it
    /// would load nothing (and evict nothing).
    pub fn holds(&self, graph: &OocGraph, v: u32) -> bool {
        let (start, end) = graph.list_range(v);
        let bs = u64::from(graph.header().block_size);
        start == end
            || (start / bs..=(end - 1) / bs).all(|b| {
                let base = self.set_of(b as u32) * WAYS;
                self.tags[base..base + WAYS].contains(&(b as u32))
            })
    }

    /// Return the slot index holding `block`, loading (and CRC-checking)
    /// it from `graph` on a miss.
    fn slot_for(&mut self, graph: &OocGraph, block: u32) -> Result<usize, OocError> {
        let base = self.set_of(block) * WAYS;
        self.tick += 1;
        let mut victim = base;
        let mut victim_stamp = u64::MAX;
        for w in 0..WAYS {
            let slot = base + w;
            if self.tags[slot] == block {
                self.stamps[slot] = self.tick;
                mmsb_obs::counter_add(obs_id::C_GRAPH_CACHE_HITS, 1);
                return Ok(slot);
            }
            if self.stamps[slot] < victim_stamp {
                victim_stamp = self.stamps[slot];
                victim = slot;
            }
        }
        mmsb_obs::counter_add(obs_id::C_GRAPH_CACHE_MISSES, 1);
        if self.tags[victim] != EMPTY {
            mmsb_obs::counter_add(obs_id::C_GRAPH_CACHE_EVICTIONS, 1);
        }
        let sw = mmsb_obs::metrics_on().then(mmsb_obs::clock::Stopwatch::start);
        let buf = &mut self.data[victim * self.block_size..(victim + 1) * self.block_size];
        let res = graph.read_block_into(block, buf);
        if let Some(sw) = sw {
            mmsb_obs::hist_record_ns(obs_id::H_GRAPH_READ_NS, sw.elapsed_ns());
        }
        if let Err(e) = res {
            // Leave the way vacant so a retry does not serve bad bytes.
            self.tags[victim] = EMPTY;
            self.stamps[victim] = 0;
            return Err(e);
        }
        self.tags[victim] = block;
        self.stamps[victim] = self.tick;
        Ok(victim)
    }

    /// The bytes of `block`, loaded on a miss.
    fn block(&mut self, graph: &OocGraph, block: u32) -> Result<&[u8], OocError> {
        let slot = self.slot_for(graph, block)?;
        Ok(&self.data[slot * self.block_size..(slot + 1) * self.block_size])
    }

    /// Decode `v`'s neighbor list into `out`, which must hold exactly
    /// `graph.degree(v)` entries, reading every block it spans through
    /// this cache.
    pub fn decode_into(
        &mut self,
        graph: &OocGraph,
        v: u32,
        out: &mut [u32],
    ) -> Result<(), OocError> {
        decode_list(self, graph, v, out)
    }
}

/// Where [`decode_list`] gets a block's bytes from.
pub(crate) trait BlockSource {
    /// The verified bytes of block `b` of `graph`.
    fn block(&mut self, graph: &OocGraph, b: u32) -> Result<&[u8], OocError>;
}

impl BlockSource for BlockCache {
    fn block(&mut self, graph: &OocGraph, b: u32) -> Result<&[u8], OocError> {
        BlockCache::block(self, graph, b)
    }
}

/// Decode `v`'s neighbor list into `out` (exactly `graph.degree(v)`
/// entries), walking its byte range block by block from `src` (lists
/// and even single varints may straddle block boundaries;
/// [`VarintState`] carries the partial accumulator across them).
pub(crate) fn decode_list<S: BlockSource>(
    src: &mut S,
    graph: &OocGraph,
    v: u32,
    out: &mut [u32],
) -> Result<(), OocError> {
    let corrupt = || OocError::Corrupt {
        reason: format!("malformed neighbor list for vertex {v}"),
    };
    if out.len() != graph.degree(v) as usize {
        return Err(corrupt());
    }
    if out.is_empty() {
        return Ok(());
    }
    let (start, end) = graph.list_range(v);
    let bs = u64::from(graph.header().block_size);
    let mut block = (start / bs) as u32;
    let mut off = (start % bs) as usize;
    let mut remaining = (end - start) as usize;
    let mut st = VarintState::default();
    let mut prev = 0u64;
    let mut n = 0;
    while remaining > 0 {
        let bytes = src.block(graph, block)?;
        let take = remaining.min(bytes.len() - off);
        for &byte in &bytes[off..off + take] {
            if let Some(raw) = st.feed(byte).map_err(|_| corrupt())? {
                let id = if n == 0 {
                    raw
                } else {
                    prev.checked_add(raw)
                        .and_then(|x| x.checked_add(1))
                        .ok_or_else(corrupt)?
                };
                let slot = out.get_mut(n).ok_or_else(corrupt)?;
                *slot = u32::try_from(id).map_err(|_| corrupt())?;
                n += 1;
                prev = id;
            }
        }
        remaining -= take;
        block += 1;
        off = 0;
    }
    if st.mid_varint() || n != out.len() {
        return Err(corrupt());
    }
    Ok(())
}

/// A [`GraphAccess`] view over an [`OocGraph`] and a caller-owned
/// [`BlockCache`]. Every read decodes one whole list (the blocks it
/// spans, usually one); `has_edge` is such a read plus a binary search.
///
/// I/O or corruption failures on the trait's infallible methods are
/// fatal (panic): the file was fully validated at open, every block is
/// CRC-checked on load, and a training run cannot meaningfully continue
/// past lost adjacency data. The fallible equivalents
/// ([`OocReader::try_neighbors`], [`OocReader::try_has_edge`]) exist for
/// callers that want the error (corruption tests, the converter).
#[derive(Debug)]
pub struct OocReader<'a> {
    graph: &'a OocGraph,
    cache: &'a mut BlockCache,
}

impl<'a> OocReader<'a> {
    /// Bind a cache to a graph.
    pub fn new(graph: &'a OocGraph, cache: &'a mut BlockCache) -> Self {
        Self { graph, cache }
    }

    /// Fallible neighbor read.
    pub fn try_neighbors(&mut self, v: VertexId) -> Result<&[u32], OocError> {
        // The scratch leaves the cache for the decode (a move, no
        // allocation) so the cache can lend blocks while it fills.
        let mut list = std::mem::take(&mut self.cache.list);
        list.resize(self.graph.degree(v.0) as usize, 0);
        let res = decode_list(self.cache, self.graph, v.0, &mut list);
        self.cache.list = list;
        res?;
        Ok(&self.cache.list)
    }

    /// Fallible membership test on the lower-degree endpoint's list.
    /// For one-off probes (held-out sampling, `RandomPair`, stats): the
    /// training path reads the *anchor's* list once and tests a whole
    /// sampled set against it (`mmsb_graph::access::mark_links`).
    pub fn try_has_edge(&mut self, a: VertexId, b: VertexId) -> Result<bool, OocError> {
        let (v, target) = if self.graph.degree(a.0) <= self.graph.degree(b.0) {
            (a, b.0)
        } else {
            (b, a.0)
        };
        Ok(self.try_neighbors(v)?.binary_search(&target).is_ok())
    }
}

impl GraphAccess for OocReader<'_> {
    fn num_vertices(&self) -> u32 {
        self.graph.num_vertices()
    }

    fn num_edges(&self) -> u64 {
        self.graph.num_edges()
    }

    fn degree(&self, v: VertexId) -> u32 {
        self.graph.degree(v.0)
    }

    fn max_degree(&self) -> u32 {
        self.graph.max_degree()
    }

    fn neighbors(&mut self, v: VertexId) -> &[u32] {
        self.try_neighbors(v)
            .unwrap_or_else(|e| panic!("out-of-core neighbor read failed: {e}"))
    }

    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        self.try_has_edge(a, b)
            .unwrap_or_else(|e| panic!("out-of-core edge probe failed: {e}"))
    }
}
