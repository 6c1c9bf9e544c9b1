//! [`OocReader`]: a one-off [`GraphAccess`] view over a file and a
//! caller-owned [`BlockCache`]. No training step reads through it — the
//! sampler reads through its [`crate::RegionCaches`] — so its infallible
//! trait methods may panic where the step's reads return errors.

use mmsb_graph::access::GraphAccess;
use mmsb_graph::VertexId;

use crate::cache::BlockCache;
use crate::file::OocGraph;
use crate::OocError;

/// A [`GraphAccess`] view over an [`OocGraph`] and a caller-owned
/// [`BlockCache`]. Every read decodes one whole list (the frames it
/// spans, usually one or two); `has_edge` is such a read plus a binary
/// search.
///
/// I/O or corruption failures on the trait's infallible methods are
/// fatal (panic): the file was fully validated at open, every frame is
/// CRC-checked on load, and a one-off probe cannot meaningfully continue
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
        // allocation) so the cache can lend frames while it fills.
        let mut list = std::mem::take(&mut self.cache.list);
        list.resize(self.graph.degree(v.0) as usize, 0);
        let res = self.cache.decode_into(self.graph, v.0, &mut list);
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
