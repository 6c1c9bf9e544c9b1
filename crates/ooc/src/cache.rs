//! The fixed-capacity frame cache every out-of-core read goes through.
//!
//! A [`BlockCache`] is *caller-owned scratch*, sized at construction and
//! never reallocated — the warmed read path performs no heap allocation
//! (pinned by the `zero_alloc` counting test). The sampler owns one per
//! region of the file ([`crate::RegionCaches`]); one-off readers
//! ([`crate::OocReader`]) own their own. Its unit is the
//! [`FRAME_SIZE`] frame, the file's unit of verification: a miss reads
//! and CRC-checks only the frames the list it decodes spans, one
//! positioned read a frame. It is set-associative with seeded-LRU
//! eviction: a seeded multiplicative hash spreads frames over sets (the
//! seed decorrelates set indices from the sequential frame ids a CSR
//! produces), and within a set the least-recently-used way is evicted.
//!
//! Cache state is pure scratch. A hit and a miss return the same bytes —
//! frames are immutable and CRC-verified on load — so cache size,
//! eviction order and the seed can never perturb a sampling chain.

use mmsb_obs::id as obs_id;

use crate::file::OocGraph;
use crate::format::FRAME_SIZE;
use crate::varint::VarintState;
use crate::OocError;

/// Tag value of an empty way.
const EMPTY: u32 = u32::MAX;

/// Associativity: ways per set.
pub(crate) const WAYS: usize = 4;

/// Bytes per frame slot.
const FRAME: usize = FRAME_SIZE as usize;

/// A fixed-capacity, set-associative frame cache with seeded-LRU
/// eviction, sized in blocks of the file it reads.
#[derive(Debug)]
pub struct BlockCache {
    block_size: usize,
    /// Number of sets.
    sets: usize,
    /// Multiplicative hash constant derived from the seed (odd).
    hash_mul: u64,
    /// Frame tags, `sets * WAYS`, [`EMPTY`] when vacant.
    tags: Vec<u32>,
    /// LRU stamps aligned with `tags`.
    stamps: Vec<u64>,
    /// Monotone access counter driving the stamps.
    tick: u64,
    /// Frame storage, `sets * WAYS * FRAME_SIZE` bytes.
    data: Vec<u8>,
    /// Decode scratch: the most recently decoded neighbor list.
    pub(crate) list: Vec<u32>,
}

impl BlockCache {
    /// A cache holding the bytes of `capacity_blocks` blocks of
    /// `block_size` bytes, as frames, rounded up to whole 4-way sets. The
    /// seed parameterizes the set hash.
    ///
    /// `max_degree` sizes the decode scratch of [`crate::OocReader`] so
    /// its steady-state reads never reallocate.
    // xlint: allow(hot-path-alloc) — setup-time construction: the tags, stamps, frame storage and decode scratch are allocated once here and reused by every read
    pub fn new(capacity_blocks: usize, block_size: usize, seed: u64, max_degree: u32) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let frames = (capacity_blocks * block_size).div_ceil(FRAME);
        let sets = frames.div_ceil(WAYS).max(1);
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
            data: vec![0; sets * WAYS * FRAME],
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

    /// The capacity in blocks: frame slots times [`FRAME_SIZE`], over the
    /// block size.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * WAYS * FRAME / self.block_size
    }

    /// Drop all cached frames (keeps the allocations) — the bench uses
    /// this to measure cold-cache throughput.
    pub fn clear(&mut self) {
        self.tags.fill(EMPTY);
        self.stamps.fill(0);
        self.tick = 0;
    }

    /// The first way of the set `frame` maps to: the hash scaled into
    /// `0..sets` by its high bits (for a power-of-two set count, its top
    /// `log2(sets)` bits), times [`WAYS`].
    #[inline]
    fn set_base(&self, frame: u32) -> usize {
        let hash = (frame as u64).wrapping_mul(self.hash_mul);
        ((u128::from(hash) * self.sets as u128) >> 64) as usize * WAYS
    }

    /// The ways of the set `frame` maps to.
    #[inline]
    fn ways(&self, frame: u32) -> std::ops::Range<usize> {
        let base = self.set_base(frame);
        base..base + WAYS
    }

    /// Whether every frame of `v`'s list is cached now, so decoding it
    /// would load nothing (and evict nothing).
    pub fn holds(&self, graph: &OocGraph, v: u32) -> bool {
        frames_of(graph, v).all(|f| {
            self.tags
                .get(self.ways(f))
                .is_some_and(|ways| ways.contains(&f))
        })
    }

    /// Return the slot index holding `frame`, loading (and CRC-checking)
    /// it from `graph` on a miss.
    // xlint: allow(hot-path-panic) — `ways` is one set's `WAYS` slots below `sets * WAYS`, the length of `tags` and `stamps`, and a slot's bytes `slot * FRAME..` lie inside `data`, which holds `sets * WAYS * FRAME`
    fn slot_for(&mut self, graph: &OocGraph, frame: u32) -> Result<usize, OocError> {
        self.tick += 1;
        let mut victim = self.set_base(frame);
        let mut victim_stamp = u64::MAX;
        for slot in self.ways(frame) {
            if self.tags[slot] == frame {
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
        let res =
            graph.read_frame_into(frame, &mut self.data[victim * FRAME..(victim + 1) * FRAME]);
        if let Some(sw) = sw {
            mmsb_obs::hist_record_ns(obs_id::H_GRAPH_READ_NS, sw.elapsed_ns());
        }
        if let Err(e) = res {
            // Leave the way vacant so a retry does not serve bad bytes.
            self.tags[victim] = EMPTY;
            self.stamps[victim] = 0;
            return Err(e);
        }
        self.tags[victim] = frame;
        self.stamps[victim] = self.tick;
        Ok(victim)
    }

    /// Decode `v`'s neighbor list into `out`, which must hold exactly
    /// `graph.degree(v)` entries, reading every frame it spans through
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

/// The frames the encoded list of `v` spans (none for an isolated
/// vertex).
fn frames_of(graph: &OocGraph, v: u32) -> std::ops::Range<u32> {
    let (start, end) = graph.list_range(v);
    let fs = u64::from(FRAME_SIZE);
    if start == end {
        0..0
    } else {
        // Below `num_frames`, which the header keeps under `u32::MAX`.
        (start / fs) as u32..((end - 1) / fs) as u32 + 1
    }
}

/// Where [`decode_list`] gets a frame's bytes from.
pub(crate) trait FrameSource {
    /// The verified bytes of frame `f` of `graph`.
    fn frame(&mut self, graph: &OocGraph, f: u32) -> Result<&[u8], OocError>;
}

impl FrameSource for BlockCache {
    fn frame(&mut self, graph: &OocGraph, f: u32) -> Result<&[u8], OocError> {
        let slot = self.slot_for(graph, f)?;
        let at = slot * FRAME;
        self.data
            .get(at..at + graph.header().frame_len(f))
            .ok_or_else(|| OocError::Corrupt {
                reason: "frame slot out of range".into(),
            })
    }
}

/// Decode `v`'s neighbor list into `out` (exactly `graph.degree(v)`
/// entries), walking its byte range frame by frame from `src` (lists
/// and even single varints may straddle frame boundaries;
/// [`VarintState`] carries the partial accumulator across them).
// xlint: allow(hot-path-alloc) — the `format!` builds the error of a list that fails to decode, once, on the way out; a list that decodes allocates nothing
pub(crate) fn decode_list<S: FrameSource>(
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
    let (start, end) = graph.list_range(v);
    let fs = u64::from(FRAME_SIZE);
    let mut off = (start % fs) as usize;
    let mut remaining = (end - start) as usize;
    let mut st = VarintState::default();
    let mut prev = 0u64;
    let mut n = 0;
    for f in frames_of(graph, v) {
        let bytes = src.frame(graph, f)?;
        let take = remaining.min(bytes.len().saturating_sub(off));
        for &byte in bytes.get(off..off + take).ok_or_else(corrupt)? {
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
        off = 0;
    }
    if remaining > 0 || st.mid_varint() || n != out.len() {
        return Err(corrupt());
    }
    Ok(())
}
