//! `Resident | OutOfCore` backend dispatch for the sampler drivers.

use mmsb_graph::access::GraphAccess;
use mmsb_graph::{Graph, VertexId};

use crate::cache::{BlockCache, OocReader};
use crate::file::OocGraph;

/// Default per-reader cache capacity in blocks (16 MiB at the default
/// 64 KiB block size). Each worker thread owns one cache this size.
pub const DEFAULT_CACHE_BLOCKS: usize = 256;

/// Where a training graph's adjacency lives.
///
/// Metadata queries (`N`, `|E|`, degrees, max degree) are `&self` on both
/// variants — the out-of-core format keeps them resident. Adjacency reads
/// go through [`GraphBackend::reader`], which binds per-thread
/// [`BlockCache`] scratch for the out-of-core case.
#[derive(Debug)]
pub enum GraphBackend {
    /// The fully RAM-resident CSR.
    Resident(Graph),
    /// The compressed on-disk CSR.
    OutOfCore(OocGraph),
}

impl GraphBackend {
    /// Number of vertices `N`.
    pub fn num_vertices(&self) -> u32 {
        match self {
            GraphBackend::Resident(g) => g.num_vertices(),
            GraphBackend::OutOfCore(g) => g.num_vertices(),
        }
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        match self {
            GraphBackend::Resident(g) => g.num_edges(),
            GraphBackend::OutOfCore(g) => g.num_edges(),
        }
    }

    /// Number of unordered vertex pairs.
    pub fn num_pairs(&self) -> u64 {
        let n = self.num_vertices() as u64;
        n * (n - 1) / 2
    }

    /// Degree of `v` — resident metadata on both variants.
    pub fn degree(&self, v: VertexId) -> u32 {
        match self {
            GraphBackend::Resident(g) => g.degree(v),
            GraphBackend::OutOfCore(g) => g.degree(v.0),
        }
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> u32 {
        match self {
            GraphBackend::Resident(g) => g.max_degree(),
            GraphBackend::OutOfCore(g) => g.max_degree(),
        }
    }

    /// A fresh cache for this backend: `None` for resident (no scratch
    /// needed), a [`BlockCache`] of `capacity_blocks` for out-of-core.
    /// `seed` parameterizes the set hash (pure scratch — any seed yields
    /// the same chain).
    pub fn new_cache(&self, capacity_blocks: usize, seed: u64) -> Option<BlockCache> {
        match self {
            GraphBackend::Resident(_) => None,
            GraphBackend::OutOfCore(g) => {
                Some(BlockCache::for_graph(g, capacity_blocks.max(1), seed))
            }
        }
    }

    /// Bind per-call scratch into a [`GraphAccess`] reader.
    ///
    /// # Panics
    /// Panics if the backend is out-of-core and `cache` is `None` — the
    /// drivers allocate caches up front via [`GraphBackend::new_cache`].
    pub fn reader<'a>(&'a self, cache: Option<&'a mut BlockCache>) -> BackendReader<'a> {
        match self {
            GraphBackend::Resident(g) => BackendReader::Resident(g),
            GraphBackend::OutOfCore(g) => {
                let cache = cache.expect("out-of-core reads need a block cache");
                BackendReader::OutOfCore(OocReader::new(g, cache))
            }
        }
    }
}

impl From<Graph> for GraphBackend {
    fn from(g: Graph) -> Self {
        GraphBackend::Resident(g)
    }
}

impl From<OocGraph> for GraphBackend {
    fn from(g: OocGraph) -> Self {
        GraphBackend::OutOfCore(g)
    }
}

/// A bound [`GraphAccess`] view over either backend.
#[derive(Debug)]
pub enum BackendReader<'a> {
    /// Reads straight from the resident CSR.
    Resident(&'a Graph),
    /// Reads through a block cache.
    OutOfCore(OocReader<'a>),
}

impl GraphAccess for BackendReader<'_> {
    fn num_vertices(&self) -> u32 {
        match self {
            BackendReader::Resident(g) => g.num_vertices(),
            BackendReader::OutOfCore(r) => r.num_vertices(),
        }
    }

    fn num_edges(&self) -> u64 {
        match self {
            BackendReader::Resident(g) => g.num_edges(),
            BackendReader::OutOfCore(r) => r.num_edges(),
        }
    }

    fn degree(&self, v: VertexId) -> u32 {
        match self {
            BackendReader::Resident(g) => g.degree(v),
            BackendReader::OutOfCore(r) => GraphAccess::degree(r, v),
        }
    }

    fn max_degree(&self) -> u32 {
        match self {
            BackendReader::Resident(g) => g.max_degree(),
            BackendReader::OutOfCore(r) => GraphAccess::max_degree(r),
        }
    }

    fn neighbors(&mut self, v: VertexId) -> &[u32] {
        match self {
            BackendReader::Resident(g) => g.neighbors(v),
            BackendReader::OutOfCore(r) => r.neighbors(v),
        }
    }

    fn has_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        match self {
            BackendReader::Resident(g) => g.has_edge(a, b),
            BackendReader::OutOfCore(r) => GraphAccess::has_edge(r, a, b),
        }
    }
}
