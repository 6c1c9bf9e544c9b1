//! Region-owned frame caches: the sampler's whole out-of-core scratch.
//!
//! The file's block range is split into `R` equal, contiguous regions and
//! each region owns one [`BlockCache`]. A frame is only ever cached by
//! the region its block lies in, so a step reads each frame it needs at
//! most once while the frame stays cached, whichever thread asks: the
//! master's draw ([`RoutedReader`]) and the staging fan-out (one part per
//! region, each on its own cache) share one set of caches instead of each
//! keeping a copy of the frames the batch touches.
//!
//! Like every cache here this is pure scratch: which cache holds a frame
//! changes when it is read, never what is decoded.

use mmsb_graph::access::GraphAccess;
use mmsb_graph::VertexId;

use crate::cache::{decode_list, spill_for, BlockCache, FrameSource, WAYS};
use crate::file::OocGraph;
use crate::OocError;

/// One [`BlockCache`] per region of a file's block range, plus the
/// master's decode and copy scratch.
#[derive(Debug, Default)]
pub struct RegionCaches {
    caches: Vec<BlockCache>,
    /// Blocks in the file the regions split.
    num_blocks: u64,
    /// Frames in a whole block of that file.
    frames_per_block: u32,
    /// The routed reader's decoded list (`max_degree` reserved).
    list: Vec<u32>,
    /// The routed decode's copy of a list that spans frames.
    spill: Vec<u8>,
}

impl RegionCaches {
    /// Split `graph`'s blocks into `regions` regions (fewer if the file
    /// has fewer blocks, or the budget fewer than four blocks a region)
    /// sharing `budget_blocks` blocks' worth of frame slots between them.
    /// `seed` parameterizes the set hashes.
    pub fn new(graph: &OocGraph, regions: usize, budget_blocks: usize, seed: u64) -> Self {
        let num_blocks = graph.header().num_blocks as usize;
        let r = regions.min(num_blocks).min(budget_blocks / WAYS).max(1);
        let per_region = (budget_blocks / r / WAYS * WAYS).max(1);
        let caches = (0..r as u64)
            .map(|i| {
                let block_size = graph.header().block_size as usize;
                BlockCache::new(per_region, block_size, seed ^ (i + 1), graph.max_degree())
            })
            .collect();
        Self {
            caches,
            num_blocks: num_blocks as u64,
            frames_per_block: graph.header().frames_per_block(),
            list: Vec::with_capacity(graph.max_degree() as usize),
            spill: spill_for(graph.max_degree()),
        }
    }

    /// Number of regions (0 for the empty set a resident graph gets).
    pub fn regions(&self) -> usize {
        self.caches.len()
    }

    /// Capacity in blocks over all regions.
    pub fn capacity_blocks(&self) -> usize {
        self.caches.iter().map(BlockCache::capacity_blocks).sum()
    }

    /// The region block `b` lies in (the last for the end of the file,
    /// where the empty lists of trailing isolated vertices start).
    #[inline]
    fn region_of_block(&self, b: u64) -> usize {
        region_of_block(b, self.caches.len(), self.num_blocks)
    }

    /// The region of the block `v`'s list starts in. Vertex order is
    /// file order, so this is non-decreasing in `v`.
    pub fn region_of(&self, graph: &OocGraph, v: u32) -> usize {
        let bs = u64::from(graph.header().block_size);
        self.region_of_block(graph.list_range(v).0 / bs)
    }

    /// Whether `v`'s list ends in a later region than it starts in — the
    /// only lists one region's cache cannot serve alone.
    pub fn crosses(&self, graph: &OocGraph, v: u32) -> bool {
        let (start, end) = graph.list_range(v);
        let bs = u64::from(graph.header().block_size);
        end > start && self.region_of_block((end - 1) / bs) != self.region_of_block(start / bs)
    }

    /// The caches, region `r` at index `r`.
    pub fn caches_mut(&mut self) -> &mut [BlockCache] {
        &mut self.caches
    }

    /// Decode `v`'s list into `out` (exactly `graph.degree(v)` entries),
    /// each frame through its block's region's cache.
    pub fn decode_routed(
        &mut self,
        graph: &OocGraph,
        v: u32,
        out: &mut [u32],
    ) -> Result<(), OocError> {
        let mut routed = Routed {
            caches: &mut self.caches,
            num_blocks: self.num_blocks,
            frames_per_block: self.frames_per_block,
        };
        decode_list(&mut routed, &mut self.spill, graph, v, out)
    }

    /// A [`GraphAccess`] view routing every frame to its region's cache.
    pub fn reader<'a>(&'a mut self, graph: &'a OocGraph) -> RoutedReader<'a> {
        RoutedReader {
            graph,
            regions: self,
            error: None,
        }
    }
}

/// The regions' caches as one [`FrameSource`]: frame `f` through the
/// cache of the region its block lies in.
struct Routed<'c> {
    caches: &'c mut [BlockCache],
    num_blocks: u64,
    frames_per_block: u32,
}

/// The region of `regions` equal ones over `num_blocks` blocks that
/// block `b` lies in, clamped to the last.
fn region_of_block(b: u64, regions: usize, num_blocks: u64) -> usize {
    ((b * regions as u64 / num_blocks.max(1)) as usize).min(regions.saturating_sub(1))
}

impl FrameSource for Routed<'_> {
    fn frame(&mut self, graph: &OocGraph, f: u32) -> Result<&[u8], OocError> {
        let b = u64::from(f / self.frames_per_block.max(1));
        let r = region_of_block(b, self.caches.len(), self.num_blocks);
        match self.caches.get_mut(r) {
            Some(cache) => FrameSource::frame(cache, graph, f),
            None => Err(OocError::Corrupt {
                reason: format!("block {b} lies in no cached region"),
            }),
        }
    }
}

/// The master's [`GraphAccess`] view over [`RegionCaches`].
///
/// The trait's reads cannot fail, so a failed read answers an empty list
/// (no edge) and keeps the first error; [`RoutedReader::finish`] returns
/// it. A caller that gets an error must discard whatever it computed
/// from the reader.
#[derive(Debug)]
pub struct RoutedReader<'a> {
    graph: &'a OocGraph,
    regions: &'a mut RegionCaches,
    error: Option<OocError>,
}

impl RoutedReader<'_> {
    /// The first read error, if any read failed.
    pub fn finish(self) -> Result<(), OocError> {
        self.error.map_or(Ok(()), Err)
    }
}

impl GraphAccess for RoutedReader<'_> {
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
        let regions = &mut *self.regions;
        let mut list = std::mem::take(&mut regions.list);
        list.resize(self.graph.degree(v.0) as usize, 0);
        if let Err(e) = regions.decode_routed(self.graph, v.0, &mut list) {
            list.clear();
            self.error.get_or_insert(e);
        }
        regions.list = list;
        &regions.list
    }

    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        let (v, target) = if self.graph.degree(a.0) <= self.graph.degree(b.0) {
            (a, b.0)
        } else {
            (b, a.0)
        };
        self.neighbors(v).binary_search(&target).is_ok()
    }
}
