//! `Resident | OutOfCore` backend dispatch for the sampler drivers.

use mmsb_graph::access::GraphAccess;
use mmsb_graph::{Graph, VertexId};

use crate::file::OocGraph;
use crate::region::{RegionCaches, RoutedReader};
use crate::OocError;

/// Default cache share in blocks (16 MiB at the default 64 KiB block
/// size). A sampler on `T` pool threads caches `(T + 1)` shares in
/// total, split over the regions of the file.
pub const DEFAULT_CACHE_BLOCKS: usize = 256;

/// Where a training graph's adjacency lives.
///
/// Metadata queries (`N`, `|E|`, degrees, max degree) are `&self` on both
/// variants — the out-of-core format keeps them resident. Adjacency reads
/// go through [`GraphBackend::reader`], which routes the out-of-core
/// case's blocks through [`RegionCaches`].
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

    /// The region caches for this backend: none for resident, and for
    /// out-of-core `regions` regions sharing `budget_blocks` blocks
    /// ([`RegionCaches::new`]). `seed` parameterizes the set hashes
    /// (pure scratch — any seed yields the same chain).
    pub fn region_caches(&self, regions: usize, budget_blocks: usize, seed: u64) -> RegionCaches {
        match self {
            GraphBackend::Resident(_) => RegionCaches::default(),
            GraphBackend::OutOfCore(g) => RegionCaches::new(g, regions, budget_blocks, seed),
        }
    }

    /// A [`GraphAccess`] reader: the resident CSR, or the file through
    /// `caches` (made by [`GraphBackend::region_caches`]).
    pub fn reader<'a>(&'a self, caches: &'a mut RegionCaches) -> BackendReader<'a> {
        match self {
            GraphBackend::Resident(g) => BackendReader::Resident(g),
            GraphBackend::OutOfCore(g) => BackendReader::OutOfCore(caches.reader(g)),
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
    /// Reads through the region caches.
    OutOfCore(RoutedReader<'a>),
}

impl BackendReader<'_> {
    /// The first read error, if any read failed (see [`RoutedReader`]).
    pub fn finish(self) -> Result<(), OocError> {
        match self {
            BackendReader::Resident(_) => Ok(()),
            BackendReader::OutOfCore(r) => r.finish(),
        }
    }
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
