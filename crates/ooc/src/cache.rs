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
//! A list is decoded from one contiguous slice by
//! [`crate::varint::decode_list`]: straight from its cached frame, or,
//! for a list that spans frames, from a copy of its bytes in scratch the
//! cache reserves when it is built.
//!
//! Cache state is pure scratch. A hit and a miss return the same bytes —
//! frames are immutable and CRC-verified on load — so cache size,
//! eviction order and the seed can never perturb a sampling chain.

use mmsb_obs::id as obs_id;

use crate::file::OocGraph;
use crate::format::FRAME_SIZE;
use crate::varint::{self, MAX_ID_BYTES};
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
    /// Copy scratch: the bytes of a list that spans frames.
    spill: Vec<u8>,
}

impl BlockCache {
    /// A cache holding the bytes of `capacity_blocks` blocks of
    /// `block_size` bytes, as frames, rounded up to whole 4-way sets. The
    /// seed parameterizes the set hash.
    ///
    /// `max_degree` sizes the copy scratch of a list that spans frames,
    /// so steady-state decodes never reallocate.
    // xlint: allow(hot-path-alloc) — setup-time construction: the tags, stamps, frame storage and copy scratch are allocated once here and reused by every read
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
            list: Vec::new(),
            spill: spill_for(max_degree),
        }
    }

    /// A cache sized for `graph` (its block size and max degree), with
    /// the decode scratch [`crate::OocReader`] reads into reserved too.
    pub fn for_graph(graph: &OocGraph, capacity_blocks: usize, seed: u64) -> Self {
        let max_degree = graph.max_degree();
        let block_size = graph.header().block_size as usize;
        let mut cache = Self::new(capacity_blocks, block_size, seed, max_degree);
        cache.list.reserve(max_degree as usize);
        cache
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
        // The copy scratch leaves the cache for the decode (a move, no
        // allocation) so the cache can lend frames while it fills.
        let mut spill = std::mem::take(&mut self.spill);
        let res = decode_list(self, &mut spill, graph, v, out);
        self.spill = spill;
        res
    }
}

/// The copy scratch for lists of up to `max_degree` ids: a valid list
/// takes at most `MAX_ID_BYTES` bytes an id.
// xlint: allow(hot-path-alloc) — setup-time construction, called when a cache is built
pub(crate) fn spill_for(max_degree: u32) -> Vec<u8> {
    Vec::with_capacity(max_degree as usize * MAX_ID_BYTES)
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
/// entries) with [`varint::decode_list`], taking each frame it spans from
/// `src` in order: straight from the frame when the list lies in one,
/// else (an empty list too) from `spill`, into which its bytes are copied
/// frame by frame. A list longer than `MAX_ID_BYTES` bytes an id is
/// refused before any copy, so `spill` never grows past [`spill_for`]
/// the max degree.
// xlint: allow(hot-path-alloc) — the `format!` builds the error of a list that fails to decode, once, on the way out; a list that decodes allocates nothing
pub(crate) fn decode_list<S: FrameSource>(
    src: &mut S,
    spill: &mut Vec<u8>,
    graph: &OocGraph,
    v: u32,
    out: &mut [u32],
) -> Result<(), OocError> {
    let corrupt = || OocError::Corrupt {
        reason: format!("malformed neighbor list for vertex {v}"),
    };
    let (start, end) = graph.list_range(v);
    if out.len() != graph.degree(v) as usize || end - start > (out.len() * MAX_ID_BYTES) as u64 {
        return Err(corrupt());
    }
    let len = (end - start) as usize;
    let mut off = (start % u64::from(FRAME_SIZE)) as usize;
    let frames = frames_of(graph, v);
    let bytes = if frames.len() == 1 {
        let frame = src.frame(graph, frames.start)?;
        frame.get(off..off + len).ok_or_else(corrupt)?
    } else {
        spill.clear();
        for f in frames {
            let frame = src.frame(graph, f)?;
            let take = (len - spill.len()).min(frame.len().saturating_sub(off));
            spill.extend_from_slice(frame.get(off..off + take).ok_or_else(corrupt)?);
            off = 0;
        }
        spill.as_slice()
    };
    varint::decode_list(bytes, out).ok_or_else(corrupt)
}
